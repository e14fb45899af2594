//! Lightweight syntactic analysis layered on the lossless lexer.
//!
//! [`FileModel::build`] turns one lexed file into the structures the
//! concurrency and protocol-conformance rules reason about:
//!
//! * **const definitions** with module-qualified names (`op::PUT`) and,
//!   where the initializer is an integer literal or simple arithmetic
//!   over literals (`16 * 1024`, `1 << 20`), the evaluated value;
//! * **per-function models** — call sites with normalized callee and
//!   receiver names, `let`-binding and block-scope information (so a
//!   guard's lexical live region is computable), loop headers with
//!   their kind and condition shape, and `drop(var)` sites;
//! * **match models** — the qualified paths referenced by each arm's
//!   *pattern* (never its value expression), plus a wildcard flag, for
//!   the opcode-exhaustiveness check.
//!
//! This is deliberately not a full Rust parser. It never fails: on
//! input it cannot make sense of it records less, not wrong — brace
//! matching saturates at end-of-region, unknown initializers evaluate
//! to `None`, and unrecognized statements contribute no model. The
//! rules built on top are tuned so "less" degrades to silence, and the
//! firing fixtures in `tests/rules.rs` pin the shapes that must keep
//! being seen.

use crate::lexer::{ident_name, TokenKind};
use crate::source::SourceFile;

/// One source file plus everything the engine derived from it. The
/// workspace passes (lock-order, wire-drift, …) operate on slices of
/// these, one per file of a crate.
pub struct ParsedFile {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Binary source (`src/main.rs` or `src/bin/**`).
    pub is_bin: bool,
    pub src: SourceFile,
    pub model: FileModel,
}

/// The syntactic model of one file.
#[derive(Debug, Default)]
pub struct FileModel {
    pub consts: Vec<ConstDef>,
    pub fns: Vec<FnModel>,
    pub matches: Vec<MatchModel>,
}

/// A `const NAME: T = expr;` item (module- or body-level).
#[derive(Debug)]
pub struct ConstDef {
    /// Module-qualified within the file: `op::PUT` for a const inside
    /// `mod op`. Bare name at file top level.
    pub name: String,
    pub line: usize,
    /// Evaluated value when the initializer is an integer literal or
    /// simple literal arithmetic (`+ - * << >>`, parens); `None` when
    /// it references other names — such a const is not *comparable*,
    /// and the drift check skips it rather than guessing.
    pub value: Option<i128>,
}

/// One function (or method), including nested closures' statements but
/// excluding nested named `fn` items (those get their own model).
#[derive(Debug, Default)]
pub struct FnModel {
    pub name: String,
    /// Line of the `fn` keyword.
    pub start_line: usize,
    /// Line of the body's closing `}` (== start_line for body-less
    /// trait signatures).
    pub end_line: usize,
    /// Flattened return-type text, empty when the function returns `()`.
    pub ret_type: String,
    pub calls: Vec<CallSite>,
    pub loops: Vec<LoopModel>,
    pub drops: Vec<DropCall>,
}

/// A call expression: `callee(...)` or `recv.callee(...)`.
#[derive(Debug)]
pub struct CallSite {
    /// Last path segment of the callee, raw-ident prefix stripped:
    /// `thread::sleep(..)` → `sleep`, `stream.r#try(..)` → `try`.
    pub callee: String,
    /// For method calls, the receiver's final field name with any
    /// indexing stripped: `self.trackers[g].lock()` → `trackers`.
    pub receiver: Option<String>,
    pub line: usize,
    /// `let` variable the call's result is bound to, when the call is a
    /// top-level part of a `let` initializer.
    pub bound_var: Option<String>,
    /// Line of the `}` closing the block the statement lives in — the
    /// lexical end of any binding this call produced.
    pub scope_end: usize,
    /// The result is consumed in place by a further `.method(...)`
    /// (`shared.queue().len()`): any guard it returned is a temporary.
    pub chained: bool,
}

/// A `drop(var)` statement.
#[derive(Debug)]
pub struct DropCall {
    pub var: String,
    pub line: usize,
}

/// What kind of loop a header introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    Loop,
    While,
    WhileLet,
    For,
}

/// One loop, with enough of its header shape to judge boundedness.
#[derive(Debug)]
pub struct LoopModel {
    pub kind: LoopKind,
    /// Line of the `loop` / `while` / `for` keyword.
    pub header_line: usize,
    /// Line of the body's closing `}`.
    pub end_line: usize,
    /// Does a `while` condition contain a comparison operator
    /// (`< > <= >= == !=`)? Comparison-headed loops visibly march a
    /// counter toward a bound; comparison-free ones are suspects.
    pub cond_has_comparison: bool,
}

/// One `match` expression: the qualified paths its arm patterns
/// reference, for the opcode-group exhaustiveness check.
#[derive(Debug)]
pub struct MatchModel {
    pub line: usize,
    /// Normalized (last-two-segment) paths in arm patterns:
    /// `proto::op::PUT =>` records `op::PUT`.
    pub pattern_paths: Vec<String>,
    pub has_wildcard: bool,
}

/// Normalize a `::`-path to its last two segments: `serve::proto::op::PUT`
/// → `op::PUT`; a bare name stays bare. Const definitions and pattern
/// references meet on this form regardless of import style.
pub fn normalize_path(path: &str) -> String {
    let segs: Vec<&str> = path.split("::").collect();
    if segs.len() >= 2 {
        format!("{}::{}", segs[segs.len() - 2], segs[segs.len() - 1])
    } else {
        path.to_string()
    }
}

impl ParsedFile {
    pub fn parse(rel: &str, is_bin: bool, text: &str) -> Self {
        let src = SourceFile::parse(text);
        let model = FileModel::build(&src);
        Self { rel: rel.to_string(), is_bin, src, model }
    }
}

/// A code token: text, line, kind (whitespace and comments filtered).
struct Tok<'a> {
    text: &'a str,
    line: usize,
    kind: TokenKind,
}

impl FileModel {
    pub fn build(src: &SourceFile) -> Self {
        let toks: Vec<Tok<'_>> = src
            .tokens
            .iter()
            .filter(|t| {
                !matches!(
                    t.kind,
                    TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
                )
            })
            .map(|t| Tok { text: t.text(&src.text), line: t.line, kind: t.kind })
            .collect();
        let mut p = Parser { toks, model: FileModel::default() };
        let end = p.toks.len();
        let mut mod_path = Vec::new();
        p.parse_items(0, end, &mut mod_path);
        p.model
    }
}

/// Rust keywords that look like a call when followed by `(`.
const NON_CALLEES: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "fn", "let", "move",
    "ref", "in", "as", "else", "unsafe", "dyn", "impl", "where", "pub", "use", "mod", "const",
    "static", "struct", "enum", "trait", "crate", "super", "self", "Self", "mut", "box", "await",
];

struct Parser<'a> {
    toks: Vec<Tok<'a>>,
    model: FileModel,
}

impl<'a> Parser<'a> {
    fn text(&self, i: usize) -> &str {
        self.toks.get(i).map_or("", |t| t.text)
    }

    fn line(&self, i: usize) -> usize {
        self.toks.get(i).map_or(0, |t| t.line)
    }

    fn is_ident(&self, i: usize) -> bool {
        self.toks.get(i).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    /// Index of the `}` matching the `{` at `open`, saturating to
    /// `hi - 1` when unmatched (the model must degrade, never panic).
    fn match_brace(&self, open: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        let mut i = open;
        while i < hi {
            match self.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        hi.saturating_sub(1)
    }

    /// Scan forward from `i` to the first occurrence of `stop` at zero
    /// `()[]{}` depth, returning its index (or `hi` if absent).
    fn find_at_depth0(&self, mut i: usize, hi: usize, stop: &[&str]) -> usize {
        let mut depth = 0usize;
        while i < hi {
            let t = self.text(i);
            if depth == 0 && stop.contains(&t) {
                return i;
            }
            match t {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Item-level walk: `mod` nesting (for const qualification), const
    /// definitions, and functions. Everything else is transparent —
    /// `impl`/`trait` braces are walked through, not modeled.
    fn parse_items(&mut self, lo: usize, hi: usize, mod_path: &mut Vec<String>) {
        let mut i = lo;
        while i < hi {
            match self.text(i) {
                "mod" if self.is_ident(i + 1) && self.text(i + 2) == "{" => {
                    let close = self.match_brace(i + 2, hi);
                    mod_path.push(ident_name(self.text(i + 1)).to_string());
                    self.parse_items(i + 3, close, mod_path);
                    mod_path.pop();
                    i = close + 1;
                }
                "const" if self.is_ident(i + 1) => {
                    i = self.parse_const(i, hi, mod_path);
                }
                "fn" if self.is_ident(i + 1) => {
                    i = self.parse_fn(i, hi, mod_path);
                }
                _ => i += 1,
            }
        }
    }

    /// `const NAME: T = expr;` → record, return index past the `;`.
    fn parse_const(&mut self, i: usize, hi: usize, mod_path: &[String]) -> usize {
        let name = ident_name(self.text(i + 1)).to_string();
        let line = self.line(i);
        let semi = self.find_at_depth0(i + 2, hi, &[";"]);
        let eq = self.find_at_depth0(i + 2, semi, &["="]);
        let value = if eq < semi { self.eval_const_expr(eq + 1, semi) } else { None };
        let qualified =
            if mod_path.is_empty() { name } else { format!("{}::{name}", mod_path.join("::")) };
        self.model.consts.push(ConstDef { name: qualified, line, value });
        semi + 1
    }

    /// Evaluate `+ - * << >>` over integer literals; `None` on anything
    /// else (idents, calls, floats).
    fn eval_const_expr(&self, lo: usize, hi: usize) -> Option<i128> {
        let mut pos = lo;
        let v = self.eval_shift(&mut pos, hi)?;
        if pos == hi {
            Some(v)
        } else {
            None
        }
    }

    fn eval_shift(&self, pos: &mut usize, hi: usize) -> Option<i128> {
        let mut acc = self.eval_add(pos, hi)?;
        while *pos + 1 < hi {
            let (a, b) = (self.text(*pos), self.text(*pos + 1));
            if (a, b) == ("<", "<") {
                *pos += 2;
                let rhs = self.eval_add(pos, hi)?;
                acc = acc.checked_shl(u32::try_from(rhs).ok()?)?;
            } else if (a, b) == (">", ">") {
                *pos += 2;
                let rhs = self.eval_add(pos, hi)?;
                acc = acc.checked_shr(u32::try_from(rhs).ok()?)?;
            } else {
                break;
            }
        }
        Some(acc)
    }

    fn eval_add(&self, pos: &mut usize, hi: usize) -> Option<i128> {
        let mut acc = self.eval_mul(pos, hi)?;
        while *pos < hi {
            match self.text(*pos) {
                "+" => {
                    *pos += 1;
                    acc = acc.checked_add(self.eval_mul(pos, hi)?)?;
                }
                "-" => {
                    *pos += 1;
                    acc = acc.checked_sub(self.eval_mul(pos, hi)?)?;
                }
                _ => break,
            }
        }
        Some(acc)
    }

    fn eval_mul(&self, pos: &mut usize, hi: usize) -> Option<i128> {
        let mut acc = self.eval_atom(pos, hi)?;
        while *pos < hi && self.text(*pos) == "*" {
            *pos += 1;
            acc = acc.checked_mul(self.eval_atom(pos, hi)?)?;
        }
        Some(acc)
    }

    fn eval_atom(&self, pos: &mut usize, hi: usize) -> Option<i128> {
        if *pos >= hi {
            return None;
        }
        match self.text(*pos) {
            "(" => {
                *pos += 1;
                let v = self.eval_shift(pos, hi)?;
                if self.text(*pos) != ")" {
                    return None;
                }
                *pos += 1;
                Some(v)
            }
            "-" => {
                *pos += 1;
                Some(-self.eval_atom(pos, hi)?)
            }
            _ => {
                let t = self.toks.get(*pos)?;
                if t.kind != TokenKind::Number {
                    return None;
                }
                *pos += 1;
                parse_int_literal(t.text)
            }
        }
    }

    /// `fn name<..>(..) -> Ret { body }` → build an [`FnModel`], return
    /// the index past the body (or past `;` for signatures).
    fn parse_fn(&mut self, i: usize, hi: usize, mod_path: &mut Vec<String>) -> usize {
        let name = ident_name(self.text(i + 1)).to_string();
        let start_line = self.line(i);
        let mut j = i + 2;
        // Generic parameters: `<` … `>` with `->`'s `>` excluded.
        if self.text(j) == "<" {
            let mut angle = 0i32;
            while j < hi {
                match self.text(j) {
                    "<" => angle += 1,
                    ">" if self.text(j.wrapping_sub(1)) != "-" => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Parameter list.
        if self.text(j) != "(" {
            return i + 2; // not a shape we model; resume scanning
        }
        let mut depth = 0usize;
        while j < hi {
            match self.text(j) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        // Return type: `->` up to the body `{`, a `;`, or `where`.
        let mut ret_type = String::new();
        if self.text(j) == "-" && self.text(j + 1) == ">" {
            j += 2;
            while j < hi && !matches!(self.text(j), "{" | ";" | "where") {
                if !ret_type.is_empty() {
                    ret_type.push(' ');
                }
                ret_type.push_str(self.text(j));
                j += 1;
            }
        }
        while j < hi && !matches!(self.text(j), "{" | ";") {
            j += 1; // where-clause
        }
        if self.text(j) == ";" {
            self.model.fns.push(FnModel {
                name,
                start_line,
                end_line: start_line,
                ret_type,
                ..FnModel::default()
            });
            return j + 1;
        }
        if self.text(j) != "{" {
            return j.max(i + 2);
        }
        let close = self.match_brace(j, hi);
        let mut fnm = FnModel {
            name,
            start_line,
            end_line: self.line(close),
            ret_type,
            ..FnModel::default()
        };
        self.parse_body(j + 1, close, &mut fnm, mod_path);
        self.model.fns.push(fnm);
        close + 1
    }

    /// Walk a function body recording calls, loops, drops, `let`
    /// bindings and `match` patterns. Nested named `fn` items recurse
    /// into their own models; closures stay part of this one.
    fn parse_body(&mut self, lo: usize, hi: usize, fnm: &mut FnModel, mod_path: &mut Vec<String>) {
        // Innermost-block tracking: `open_stack` holds indices of open
        // braces; `scope_end(i)` is the close line of the innermost.
        let mut open_stack: Vec<usize> = Vec::new();
        // Precompute close lines for every `{` in the region.
        let mut close_line: std::collections::BTreeMap<usize, usize> =
            std::collections::BTreeMap::new();
        {
            let mut stack = Vec::new();
            for k in lo..hi {
                match self.text(k) {
                    "{" => stack.push(k),
                    "}" => {
                        if let Some(o) = stack.pop() {
                            close_line.insert(o, self.line(k));
                        }
                    }
                    _ => {}
                }
            }
            for o in stack {
                close_line.insert(o, self.line(hi.saturating_sub(1)));
            }
        }
        let body_end_line = self.line(hi.min(self.toks.len().saturating_sub(1)));
        // Active `let` binding: (var, token index of its `;`, brace
        // depth at which top-level initializer calls bind to it).
        let mut active_let: Option<(String, usize, usize)> = None;
        let mut i = lo;
        while i < hi {
            let t = self.text(i);
            match t {
                "{" => {
                    open_stack.push(i);
                    i += 1;
                }
                "}" => {
                    open_stack.pop();
                    i += 1;
                }
                "fn" if self.is_ident(i + 1) => {
                    i = self.parse_fn(i, hi, mod_path);
                }
                "const" if self.is_ident(i + 1) => {
                    i = self.parse_const(i, hi, mod_path);
                }
                "let" => {
                    let mut j = i + 1;
                    if self.text(j) == "mut" {
                        j += 1;
                    }
                    // First ident of the pattern names the binding (for
                    // tuple patterns: the first element).
                    let mut var = None;
                    let stop = self.find_at_depth0(j, hi, &["=", ";"]);
                    for k in j..stop {
                        if self.is_ident(k) && !NON_CALLEES.contains(&self.text(k)) {
                            var = Some(ident_name(self.text(k)).to_string());
                            break;
                        }
                    }
                    if self.text(stop) == "=" {
                        let semi = self.find_at_depth0(stop + 1, hi, &[";"]);
                        if let Some(v) = var {
                            active_let = Some((v, semi, open_stack.len()));
                        }
                        i = stop + 1;
                    } else {
                        i = stop + 1;
                    }
                }
                "loop" | "while" | "for" => {
                    i = self.parse_loop(i, hi, fnm, &close_line);
                }
                "match" => {
                    self.scan_match(i, hi);
                    i += 1;
                }
                _ => {
                    if self.is_ident(i) && self.text(i + 1) == "(" && !NON_CALLEES.contains(&t) {
                        self.record_call(
                            i,
                            hi,
                            fnm,
                            &open_stack,
                            &close_line,
                            body_end_line,
                            &active_let,
                        );
                    }
                    i += 1;
                }
            }
            if let Some((_, semi, _)) = &active_let {
                if i > *semi {
                    active_let = None;
                }
            }
        }
    }

    /// Record the call whose callee ident sits at `i` (next token `(`).
    #[allow(clippy::too_many_arguments)]
    fn record_call(
        &mut self,
        i: usize,
        hi: usize,
        fnm: &mut FnModel,
        open_stack: &[usize],
        close_line: &std::collections::BTreeMap<usize, usize>,
        body_end_line: usize,
        active_let: &Option<(String, usize, usize)>,
    ) {
        let callee = ident_name(self.text(i)).to_string();
        let line = self.line(i);
        // Receiver: walk back across `.`-chains, `[...]` indexing and
        // `(...)` calls to the nearest field/variable ident.
        let receiver = if self.text(i.wrapping_sub(1)) == "." {
            let mut k = i.wrapping_sub(2);
            loop {
                match self.text(k) {
                    "]" => {
                        let mut d = 0usize;
                        while k > 0 {
                            match self.text(k) {
                                "]" => d += 1,
                                "[" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k = k.wrapping_sub(1);
                        }
                        k = k.wrapping_sub(1);
                    }
                    ")" => {
                        let mut d = 0usize;
                        while k > 0 {
                            match self.text(k) {
                                ")" => d += 1,
                                "(" => {
                                    d -= 1;
                                    if d == 0 {
                                        break;
                                    }
                                }
                                _ => {}
                            }
                            k = k.wrapping_sub(1);
                        }
                        k = k.wrapping_sub(1);
                    }
                    _ => break,
                }
            }
            if self.is_ident(k) && self.text(k) != "self" {
                Some(ident_name(self.text(k)).to_string())
            } else {
                None
            }
        } else {
            None
        };
        // Find the call's closing paren to detect in-place chaining.
        let mut depth = 0usize;
        let mut k = i + 1;
        while k < hi {
            match self.text(k) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            k += 1;
        }
        let mut after = k + 1;
        if self.text(after) == "?" {
            after += 1;
        }
        let chained = self.text(after) == ".";
        let scope_end =
            open_stack.last().and_then(|o| close_line.get(o).copied()).unwrap_or(body_end_line);
        let bound_var = match active_let {
            Some((var, semi, at_depth)) if i < *semi && open_stack.len() == *at_depth => {
                Some(var.clone())
            }
            _ => None,
        };
        if callee == "drop" && self.is_ident(i + 2) && self.text(i + 3) == ")" {
            fnm.drops.push(DropCall { var: ident_name(self.text(i + 2)).to_string(), line });
        }
        fnm.calls.push(CallSite { callee, receiver, line, bound_var, scope_end, chained });
    }

    /// Record a loop header at `i`; returns the index of the body `{`
    /// plus one (the body itself is walked by the caller's loop so its
    /// calls and nested loops are recorded normally).
    fn parse_loop(
        &mut self,
        i: usize,
        hi: usize,
        fnm: &mut FnModel,
        close_line: &std::collections::BTreeMap<usize, usize>,
    ) -> usize {
        let header_line = self.line(i);
        let kw = self.text(i);
        let (kind, body_open) = match kw {
            "loop" => (LoopKind::Loop, i + 1),
            "for" => {
                let open = self.find_paren_free_brace(i + 1, hi);
                (LoopKind::For, open)
            }
            _ => {
                // `while` / `while let`.
                if self.text(i + 1) == "let" {
                    (LoopKind::WhileLet, self.find_paren_free_brace(i + 2, hi))
                } else {
                    (LoopKind::While, self.find_paren_free_brace(i + 1, hi))
                }
            }
        };
        if self.text(body_open) != "{" {
            return i + 1;
        }
        let mut cond_has_comparison = false;
        if kind == LoopKind::While {
            let mut k = i + 1;
            while k < body_open {
                match self.text(k) {
                    "<" | ">" => cond_has_comparison = true,
                    "=" if matches!(self.text(k.wrapping_sub(1)), "=" | "!" | "<" | ">") => {
                        cond_has_comparison = true;
                    }
                    _ => {}
                }
                k += 1;
            }
            // `while true { … }` is sugar for `loop`.
            if body_open == i + 2 && self.text(i + 1) == "true" {
                cond_has_comparison = false;
            }
        }
        let end_line = close_line.get(&body_open).copied().unwrap_or_else(|| {
            let c = self.match_brace(body_open, hi);
            self.line(c)
        });
        fnm.loops.push(LoopModel { kind, header_line, end_line, cond_has_comparison });
        i + 1
    }

    /// First `{` at zero `()[]` depth — the body of a `while`/`for`
    /// header (struct literals are not legal there unparenthesized).
    fn find_paren_free_brace(&self, mut i: usize, hi: usize) -> usize {
        let mut depth = 0usize;
        while i < hi {
            match self.text(i) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => return i,
                _ => {}
            }
            i += 1;
        }
        hi
    }

    /// Read-only scan of a `match` at `i`: collect the qualified paths
    /// referenced by arm *patterns* (values are skipped balanced, so a
    /// nested match's patterns are not attributed to this one).
    fn scan_match(&mut self, i: usize, hi: usize) {
        let line = self.line(i);
        let open = self.find_paren_free_brace(i + 1, hi);
        if self.text(open) != "{" {
            return;
        }
        let close = self.match_brace(open, hi);
        let mut pattern_paths = Vec::new();
        let mut has_wildcard = false;
        let mut k = open + 1;
        while k < close {
            // Pattern region: up to `=>` at depth 0.
            let arrow = {
                let mut depth = 0usize;
                let mut a = k;
                let mut found = close;
                while a < close {
                    match self.text(a) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "=" if depth == 0 && self.text(a + 1) == ">" => {
                            found = a;
                            break;
                        }
                        _ => {}
                    }
                    a += 1;
                }
                found
            };
            if arrow >= close {
                break;
            }
            // Collect paths and wildcards from the pattern.
            let mut a = k;
            while a < arrow {
                if self.text(a) == "_" {
                    has_wildcard = true;
                    a += 1;
                    continue;
                }
                if self.is_ident(a) && !NON_CALLEES.contains(&self.text(a)) {
                    let mut path = ident_name(self.text(a)).to_string();
                    let mut b = a + 1;
                    while self.text(b) == ":" && self.text(b + 1) == ":" && self.is_ident(b + 2) {
                        path.push_str("::");
                        path.push_str(ident_name(self.text(b + 2)));
                        b += 3;
                    }
                    pattern_paths.push(normalize_path(&path));
                    a = b;
                    continue;
                }
                a += 1;
            }
            // Skip the arm value: a balanced `{}` block, or tokens to
            // the next `,` at depth 0.
            let mut v = arrow + 2;
            if self.text(v) == "{" {
                v = self.match_brace(v, close) + 1;
                if self.text(v) == "," {
                    v += 1;
                }
            } else {
                let mut depth = 0usize;
                while v < close {
                    match self.text(v) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth = depth.saturating_sub(1),
                        "," if depth == 0 => {
                            v += 1;
                            break;
                        }
                        _ => {}
                    }
                    v += 1;
                }
            }
            k = v;
        }
        self.model.matches.push(MatchModel { line, pattern_paths, has_wildcard });
    }
}

/// Parse a Rust integer literal (radix prefixes, `_` separators, type
/// suffix) to a value; `None` for floats or malformed text.
fn parse_int_literal(text: &str) -> Option<i128> {
    let clean: String = text.chars().filter(|c| *c != '_').collect();
    let (digits, radix) = if let Some(hex) = clean.strip_prefix("0x").or(clean.strip_prefix("0X")) {
        (hex, 16)
    } else if let Some(oct) = clean.strip_prefix("0o").or(clean.strip_prefix("0O")) {
        (oct, 8)
    } else if let Some(bin) = clean.strip_prefix("0b").or(clean.strip_prefix("0B")) {
        (bin, 2)
    } else {
        (clean.as_str(), 10)
    };
    // Strip a type suffix (`u8`…`usize`, `i8`…`isize`).
    let end = digits.find(|c: char| !c.is_digit(radix)).unwrap_or(digits.len());
    if end == 0 {
        return None;
    }
    // Anything after the digits must be a valid integer suffix, not a
    // float marker.
    let suffix = &digits[end..];
    if !suffix.is_empty() && !suffix.starts_with('u') && !suffix.starts_with('i') {
        return None;
    }
    i128::from_str_radix(&digits[..end], radix).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::build(&SourceFile::parse(src))
    }

    #[test]
    fn consts_qualify_and_evaluate() {
        let m = model(
            "pub const A: usize = 16 * 1024;\n\
             mod op {\n    pub const PUT: u8 = 1;\n    pub const GET: u8 = 0x2;\n}\n\
             pub const B: usize = A + 1;\n\
             pub const C: usize = 1 << 20;\n",
        );
        let by_name: std::collections::BTreeMap<_, _> =
            m.consts.iter().map(|c| (c.name.as_str(), c.value)).collect();
        assert_eq!(by_name["A"], Some(16 * 1024));
        assert_eq!(by_name["op::PUT"], Some(1));
        assert_eq!(by_name["op::GET"], Some(2));
        assert_eq!(by_name["B"], None, "ident-referencing initializer is not comparable");
        assert_eq!(by_name["C"], Some(1 << 20));
    }

    #[test]
    fn fn_models_capture_calls_and_scopes() {
        let m = model(
            "fn f(s: &Shared) {\n\
             \x20   let mut queue = s.queue.lock();\n\
             \x20   queue.push(1);\n\
             \x20   drop(queue);\n\
             \x20   write_frame(s);\n\
             }\n",
        );
        assert_eq!(m.fns.len(), 1);
        let f = &m.fns[0];
        let lock = f.calls.iter().find(|c| c.callee == "lock").expect("lock call");
        assert_eq!(lock.receiver.as_deref(), Some("queue"));
        assert_eq!(lock.bound_var.as_deref(), Some("queue"));
        assert_eq!(lock.scope_end, 6);
        assert!(!lock.chained);
        assert_eq!(f.drops.len(), 1);
        assert_eq!(f.drops[0].var, "queue");
        assert_eq!(f.drops[0].line, 4);
    }

    #[test]
    fn chained_guard_is_a_temporary() {
        let m = model("fn f(s: &S) -> usize {\n    s.queue.lock().len()\n}\n");
        let lock = m.fns[0].calls.iter().find(|c| c.callee == "lock").unwrap();
        assert!(lock.chained);
        assert!(lock.bound_var.is_none());
    }

    #[test]
    fn indexed_receiver_normalizes_to_field() {
        let m = model(
            "fn f(&self, g: usize) {\n    let t = self.trackers[g].lock();\n    t.go();\n}\n",
        );
        let lock = m.fns[0].calls.iter().find(|c| c.callee == "lock").unwrap();
        assert_eq!(lock.receiver.as_deref(), Some("trackers"));
        assert_eq!(lock.bound_var.as_deref(), Some("t"));
    }

    #[test]
    fn loops_classify_by_header_shape() {
        let m = model(
            "fn f(stop: &B, xs: &[u8]) {\n\
             \x20   loop {\n        body();\n    }\n\
             \x20   while !stop.load() {\n        body();\n    }\n\
             \x20   while next < xs.len() {\n        body();\n    }\n\
             \x20   while let Some(x) = it.next() {\n        body();\n    }\n\
             \x20   for x in xs {\n        body();\n    }\n\
             }\n",
        );
        let kinds: Vec<(LoopKind, bool)> =
            m.fns[0].loops.iter().map(|l| (l.kind, l.cond_has_comparison)).collect();
        assert_eq!(
            kinds,
            vec![
                (LoopKind::Loop, false),
                (LoopKind::While, false),
                (LoopKind::While, true),
                (LoopKind::WhileLet, false),
                (LoopKind::For, false),
            ]
        );
        assert!(m.fns[0].loops.iter().all(|l| l.end_line > l.header_line));
    }

    #[test]
    fn match_patterns_collect_paths_not_values() {
        let m = model(
            "fn f(b: u8) -> R {\n\
             \x20   match b {\n\
             \x20       op::PUT => handle(op::GET),\n\
             \x20       proto::op::DELETE => {\n            match c { status::OK => x(), _ => y() }\n        }\n\
             \x20       _ => other(),\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(m.matches.len(), 2);
        let outer = &m.matches[0];
        assert!(outer.pattern_paths.contains(&"op::PUT".to_string()));
        assert!(
            outer.pattern_paths.contains(&"op::DELETE".to_string()),
            "{:?}",
            outer.pattern_paths
        );
        assert!(
            !outer.pattern_paths.contains(&"op::GET".to_string()),
            "arm values are not patterns"
        );
        assert!(
            !outer.pattern_paths.contains(&"status::OK".to_string()),
            "nested match patterns stay theirs"
        );
        assert!(outer.has_wildcard);
        let inner = &m.matches[1];
        assert!(inner.pattern_paths.contains(&"status::OK".to_string()));
    }

    #[test]
    fn guard_returning_fn_signature_is_visible() {
        let m = model(
            "impl Shared {\n\
             \x20   fn queue(&self) -> MutexGuard<'_, VecDeque<TcpStream>> {\n\
             \x20       self.queue.lock().unwrap()\n\
             \x20   }\n\
             }\n",
        );
        assert_eq!(m.fns.len(), 1);
        assert!(m.fns[0].ret_type.contains("MutexGuard"));
        let lock = m.fns[0].calls.iter().find(|c| c.callee == "lock").unwrap();
        assert_eq!(lock.receiver.as_deref(), Some("queue"));
        assert!(lock.chained, "unwrap() consumes in place");
    }

    #[test]
    fn raw_identifiers_normalize() {
        let m = model("fn r#try(x: u8) {\n    r#match(x);\n}\n");
        assert_eq!(m.fns[0].name, "try");
        assert!(m.fns[0].calls.iter().any(|c| c.callee == "match"));
    }

    #[test]
    fn never_panics_on_garbage() {
        for src in ["fn f( {", "match {", "const = ;", "}}}{{{", "fn <<>> (", "let = ="] {
            let _ = model(src);
        }
    }
}
