//! The rule set and the scaffolding rules share.
//!
//! Each rule is a pure function over one [`FileCtx`]: the scrubbed,
//! test-region-aware view of a source file plus the workspace config.
//! Rules are *workspace-native* — their heuristics are tuned to this
//! codebase's real hazard classes (LogLog register shifts, digest
//! slicing, fsync-before-rename), not to generic Rust. Where a
//! heuristic cannot see a bound that genuinely exists, the escape hatch
//! is an inline suppression with a written reason, which the engine
//! enforces.

use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::source::SourceFile;

mod cast;
pub mod concurrency;
mod durability;
mod float;
pub mod netloop;
mod nondet;
mod panic;
mod shift;
pub mod wire;

/// Everything a rule may look at for one file.
pub struct FileCtx<'a> {
    /// Short crate name: the directory under `crates/`, or the root
    /// package name for the facade crate.
    pub crate_name: &'a str,
    /// Workspace-relative path, `/`-separated.
    pub path: &'a str,
    /// Binary source (`src/main.rs` or `src/bin/**`) — panic discipline
    /// does not apply there.
    pub is_bin: bool,
    pub src: &'a SourceFile,
    pub config: &'a Config,
}

impl<'a> FileCtx<'a> {
    /// Iterate `(1-based line number, scrubbed text)` over non-test lines.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.src
            .lines
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.src.test_lines.get(*i).copied().unwrap_or(false))
            .map(|(i, l)| (i + 1, l.as_str()))
    }

    /// A rule's string-list option, with a default.
    pub fn list_opt(&self, rule: &str, key: &str, default: &[&str]) -> Vec<String> {
        match self.config.get_list(&format!("rules.{rule}.{key}")) {
            Some(v) => v.to_vec(),
            None => default.iter().map(|s| (*s).to_string()).collect(),
        }
    }

    pub fn int_opt(&self, rule: &str, key: &str, default: i64) -> i64 {
        self.config.get_int(&format!("rules.{rule}.{key}"), default)
    }

    pub fn str_opt(&self, rule: &str, key: &str, default: &str) -> String {
        self.config
            .get_str(&format!("rules.{rule}.{key}"))
            .map_or_else(|| default.to_string(), str::to_string)
    }

    pub fn error(&self, rule: &str, line: usize, col: usize, message: String) -> Diagnostic {
        Diagnostic::new(rule, Severity::Error, self.path, line, col, message)
    }
}

/// A lint rule.
pub trait Rule {
    fn name(&self) -> &'static str;
    /// One-line description for `hmh-lint rules` and the docs.
    fn describe(&self) -> &'static str;
    fn check(&self, ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// The full rule set, in stable order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(shift::ShiftOverflowHazard),
        Box::new(cast::TruncatingCast),
        Box::new(panic::PanicInLib),
        Box::new(float::FloatEq),
        Box::new(nondet::Nondeterminism),
        Box::new(durability::Durability),
    ]
}

/// The syntactic workspace rules: they run over whole crates (or, for
/// `wire-drift`, the whole workspace) on the models from
/// [`crate::syntax`], not file by file. `(name, description)` pairs —
/// the check functions live in [`concurrency`], [`netloop`], [`wire`].
pub fn workspace_rules() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "lock-order",
            "lock acquisition graph per crate: re-acquisition, cycles, inconsistent order",
        ),
        (
            "blocking-under-lock",
            "sleep/join/channel-recv/dial reached while a MutexGuard is lexically live",
        ),
        (
            "unbounded-net-loop",
            "loop containing dial/frame I/O must show an attempt counter, budget or pacer",
        ),
        (
            "wire-drift",
            "opcode/cap/seed constants must agree across crates; opcode matches exhaustive",
        ),
    ]
}

/// Every rule name the engine accepts in `allow(...)` and `Lint.toml`,
/// including the workspace-level and engine-level checks that are not
/// per-file rules.
pub fn known_rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    names.extend(workspace_rules().iter().map(|(n, _)| *n));
    names.push("forbid-unsafe");
    names
}

// ---------------------------------------------------------------------
// Shared text helpers.
// ---------------------------------------------------------------------

/// Identifiers in an expression snippet (ASCII idents, keywords included).
pub fn idents_in(expr: &str) -> Vec<&str> {
    let bytes = expr.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'_' || b.is_ascii_alphabetic() {
            let start = i;
            while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                i += 1;
            }
            out.push(&expr[start..i]);
        } else {
            i += 1;
        }
    }
    out
}

/// Word-boundary containment test for an identifier.
pub fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(at) = line[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let before_ok = start == 0 || {
            let c = bytes[start - 1];
            c != b'_' && !c.is_ascii_alphanumeric()
        };
        let after_ok = end == bytes.len() || {
            let c = bytes[end];
            c != b'_' && !c.is_ascii_alphanumeric()
        };
        if before_ok && after_ok {
            return true;
        }
        from = end;
    }
    false
}

/// Does a line look like it *establishes a bound* on one of `idents`?
/// Guard shapes: asserts, branch/loop headers naming the identifier,
/// `.min(...)`, a `%` reduction, a `&` mask, or a call whose contract
/// bounds its result (the configured `bounded_calls`).
pub fn line_guards(line: &str, idents: &[&str], bounded_calls: &[String]) -> bool {
    let mentions = idents.iter().any(|id| contains_word(line, id));
    if !mentions {
        return false;
    }
    const GUARD_TOKENS: &[&str] =
        &["assert", "if ", "if(", "match ", "while ", "for ", ".min(", "%", "& ", "&("];
    GUARD_TOKENS.iter().any(|t| line.contains(t))
        || bounded_calls.iter().any(|c| line.contains(c.as_str()))
}

/// Scan upward from `line_no` (inclusive) through at most `window`
/// lines looking for a guard on `idents` in the statement each line
/// starts (joined down to a line ending in `;`, `,`, `{` or `}`, so a
/// rustfmt-wrapped `let` is one). The scan stops at a function
/// boundary — a guard in a *different* function bounds nothing here.
pub fn guarded_within(
    src: &SourceFile,
    line_no: usize,
    window: usize,
    idents: &[&str],
    bounded_calls: &[String],
) -> bool {
    let mut statement = String::new();
    for back in 0..=window {
        let Some(n) = line_no.checked_sub(back) else { break };
        if n == 0 {
            break;
        }
        let line = src.line(n);
        if line.trim_end().ends_with([';', ',', '{', '}']) {
            statement.clear();
        }
        statement.insert_str(0, &format!("{line} "));
        if line_guards(&statement, idents, bounded_calls) {
            return true;
        }
        // Function boundary (checked after the guard test: the header
        // itself may carry the bound, e.g. a `where` clause or an
        // argument pattern — and the hazard line `back == 0` is never a
        // boundary for itself).
        if back > 0 {
            let trimmed = line.trim_start();
            if trimmed.starts_with("fn ")
                || trimmed.starts_with("pub fn ")
                || trimmed.starts_with("pub(crate) fn ")
                || trimmed.starts_with("pub(super) fn ")
            {
                break;
            }
        }
    }
    false
}

/// Match a balanced `(...)` group starting at `open` (which must index a
/// `(`), returning the text inside the parens.
pub fn balanced_group(line: &str, open: usize) -> Option<&str> {
    let bytes = line.as_bytes();
    if bytes.get(open) != Some(&b'(') {
        return None;
    }
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&line[open + 1..i]);
                }
            }
            _ => {}
        }
    }
    None
}
