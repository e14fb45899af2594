//! Seeded properties for the syntactic model builder.
//!
//! The workspace rules (lock-order, wire-drift, …) trust `syntax.rs` to
//! report the right consts, calls and loops; a model that silently drops
//! items makes every rule vacuously pass. These properties generate
//! source files whose model is known by construction and assert the
//! parser recovers it exactly, then sweep token soup to pin totality —
//! the same deterministic-harness pattern as `tests/lexer_props.rs`.

use hmh_lint::syntax::{LoopKind, ParsedFile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

/// What one generated statement contributes to the expected model.
struct StmtShape {
    text: &'static str,
    callees: &'static [&'static str],
    loops: &'static [LoopKind],
}

const STMTS: &[StmtShape] = &[
    StmtShape { text: "    touch();\n", callees: &["touch"], loops: &[] },
    StmtShape { text: "    let data = sock.read_frame();\n", callees: &["read_frame"], loops: &[] },
    StmtShape { text: "    let len = frames[i].encode();\n", callees: &["encode"], loops: &[] },
    StmtShape {
        text: "    loop {\n        step();\n        break;\n    }\n",
        callees: &["step"],
        loops: &[LoopKind::Loop],
    },
    StmtShape {
        text: "    while running {\n        step();\n    }\n",
        callees: &["step"],
        loops: &[LoopKind::While],
    },
    StmtShape {
        text: "    while i < n {\n        advance();\n    }\n",
        callees: &["advance"],
        loops: &[LoopKind::While],
    },
    StmtShape {
        text: "    for x in 0..4 {\n        emit(x);\n    }\n",
        callees: &["emit"],
        loops: &[LoopKind::For],
    },
    StmtShape {
        text: "    while let Some(v) = it.next() {\n        use_it(v);\n    }\n",
        callees: &["next", "use_it"],
        loops: &[LoopKind::WhileLet],
    },
];

/// Generate a file whose consts, calls and loops are known by
/// construction; return the source plus the expectations.
#[allow(clippy::type_complexity)]
fn gen_file(
    rng: &mut StdRng,
) -> (String, Vec<(String, Option<i128>)>, Vec<(Vec<String>, Vec<LoopKind>)>) {
    let mut src = String::new();
    let mut consts: Vec<(String, Option<i128>)> = Vec::new();
    let mut fns: Vec<(Vec<String>, Vec<LoopKind>)> = Vec::new();

    let grouped = rng.gen_bool(0.5);
    if grouped {
        src.push_str("pub mod op {\n");
    }
    for i in 0..rng.gen_range(0usize..5) {
        let name = format!("K{i}");
        let qualified = if grouped { format!("op::{name}") } else { name.clone() };
        match rng.gen_range(0u32..4) {
            0 => {
                let v = i128::from(rng.gen_range(0i64..=255));
                src.push_str(&format!("pub const {name}: u64 = {v};\n"));
                consts.push((qualified, Some(v)));
            }
            1 => {
                let (a, b) =
                    (i128::from(rng.gen_range(0i64..50)), i128::from(rng.gen_range(0i64..50)));
                src.push_str(&format!("pub const {name}: u64 = {a} + {b} * 2;\n"));
                consts.push((qualified, Some(a + b * 2)));
            }
            2 => {
                let k = rng.gen_range(0i64..10);
                src.push_str(&format!("pub const {name}: u64 = 1 << {k};\n"));
                consts.push((qualified, Some(1 << k)));
            }
            _ => {
                src.push_str(&format!("pub const {name}: u64 = OTHER;\n"));
                consts.push((qualified, None));
            }
        }
    }
    if grouped {
        src.push_str("}\n");
    }

    for i in 0..rng.gen_range(1usize..4) {
        src.push_str(&format!("pub fn f{i}() {{\n"));
        let mut callees = Vec::new();
        let mut loops = Vec::new();
        for _ in 0..rng.gen_range(1usize..4) {
            let s = &STMTS[rng.gen_range(0usize..STMTS.len())];
            src.push_str(s.text);
            callees.extend(s.callees.iter().map(|c| c.to_string()));
            loops.extend_from_slice(s.loops);
        }
        src.push_str("}\n");
        fns.push((callees, loops));
    }
    (src, consts, fns)
}

#[test]
fn seeded_models_match_construction() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x517c_c1b7_2722_0a95 ^ case);
        let (src, consts, fns) = gen_file(&mut rng);
        let pf = ParsedFile::parse("crates/test/src/lib.rs", false, &src);

        let got_consts: Vec<(String, Option<i128>)> =
            pf.model.consts.iter().map(|c| (c.name.clone(), c.value)).collect();
        assert_eq!(got_consts, consts, "consts diverged for:\n{src}");

        assert_eq!(pf.model.fns.len(), fns.len(), "fn count diverged for:\n{src}");
        for (f, (callees, loops)) in pf.model.fns.iter().zip(&fns) {
            let got: Vec<String> = f.calls.iter().map(|c| c.callee.clone()).collect();
            assert_eq!(&got, callees, "calls diverged in {} for:\n{src}", f.name);
            let got_loops: Vec<LoopKind> = f.loops.iter().map(|l| l.kind).collect();
            assert_eq!(&got_loops, loops, "loops diverged in {} for:\n{src}", f.name);
            assert!(f.end_line >= f.start_line, "fn span inverted in {}", f.name);
        }
    }
}

#[test]
fn seeded_models_report_lines_inside_the_file() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x2545_f491_4f6c_dd1d ^ case);
        let (src, _, _) = gen_file(&mut rng);
        let n_lines = src.split('\n').count();
        let pf = ParsedFile::parse("crates/test/src/lib.rs", false, &src);
        for c in &pf.model.consts {
            assert!(c.line >= 1 && c.line <= n_lines, "const line out of range");
        }
        for f in &pf.model.fns {
            assert!(f.end_line <= n_lines, "fn end past EOF");
            for call in &f.calls {
                assert!(call.line >= f.start_line && call.line <= f.end_line);
                assert!(call.scope_end <= n_lines, "scope_end past EOF");
            }
            for l in &f.loops {
                assert!(l.header_line <= l.end_line && l.end_line <= f.end_line);
            }
        }
    }
}

#[test]
fn parser_is_total_on_ascii_noise() {
    // Unbalanced braces, stray keywords, half-finished items: the parser
    // must produce *some* model without panicking, for any byte soup.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9e37_79b9 ^ case);
        let len = rng.gen_range(0usize..300);
        let src: String = (0..len)
            .map(|_| {
                let c = rng.gen_range(0x20u8..0x7f);
                if rng.gen_range(0u32..12) == 0 {
                    '\n'
                } else {
                    c as char
                }
            })
            .collect();
        let _ = ParsedFile::parse("crates/test/src/lib.rs", false, &src);
    }
}

#[test]
fn parser_is_total_on_keyword_soup() {
    const WORDS: &[&str] = &[
        "fn", "const", "mod", "loop", "while", "for", "match", "let", "drop", "{", "}", "(", ")",
        "=>", "=", ";", "::", ".", "lock", "<", ">", "->", "in", "if", "u64", "1", "r#fn",
    ];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5bf0_3635_u64 ^ case);
        let len = rng.gen_range(0usize..80);
        let mut src = String::new();
        for _ in 0..len {
            src.push_str(WORDS[rng.gen_range(0usize..WORDS.len())]);
            src.push(if rng.gen_range(0u32..5) == 0 { '\n' } else { ' ' });
        }
        let _ = ParsedFile::parse("crates/test/src/lib.rs", false, &src);
    }
}
