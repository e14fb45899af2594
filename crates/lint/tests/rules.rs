//! Fixture tests: every rule has at least one firing and one passing
//! fixture, plus the suppression machinery's full contract.

use hmh_lint::{lint_text, Config, Severity};

/// Self-contained config mirroring the workspace `Lint.toml` semantics.
const CONFIG: &str = r#"
[rules.shift-overflow-hazard]
guard_window = 10
bounded_calls = [".p()", ".take_bits("]

[rules.truncating-cast]
crates = ["core"]
guard_window = 10
widths = ["u8", "u16", "u32"]
bounded_calls = [".p()", ".take_bits("]

[rules.panic-in-lib]
allow_crates = ["cli"]
invariant_prefix = "invariant: "

[rules.float-eq]
crates = ["core"]
allow_literals = ["0.0", "1.0", "-1.0"]

[rules.nondeterminism]
crates = ["simulate"]

[rules.durability]
crates = ["store"]
sync_window = 12

[rules.lock-order]
crates = ["serve"]

[rules.blocking-under-lock]
crates = ["serve"]
blocking_calls = ["sleep", "join", "recv", "recv_timeout", "connect", "write_frame", "read_frame"]

[rules.unbounded-net-loop]
crates = ["serve"]
net_calls = ["connect", "accept", "write_frame", "read_frame", "read_exact", "write_all"]
bound_tokens = ["attempt", "attempts", "retry", "retries", "budget", "deadline", "shutdown", "timeout", "remaining"]

[rules.wire-drift]
crates = ["serve"]
const_groups = ["op", "status"]
name_patterns = ["PROTO_", "MAX_", "_SEED"]
match_groups = ["op", "status"]
"#;

fn config() -> Config {
    Config::parse(CONFIG).expect("test config parses")
}

/// Lint fixture `text` as a lib file of `crate_name`, returning the
/// rule names that fired.
fn fired(crate_name: &str, text: &str) -> Vec<String> {
    lint_text(crate_name, "crates/test/src/lib.rs", false, text, &config())
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

fn count_rule(findings: &[String], rule: &str) -> usize {
    findings.iter().filter(|r| r.as_str() == rule).count()
}

// -----------------------------------------------------------------
// shift-overflow-hazard
// -----------------------------------------------------------------

#[test]
fn shift_fires_on_unbounded_amount() {
    let f = fired("core", include_str!("fixtures/shift_fire.rs"));
    assert_eq!(count_rule(&f, "shift-overflow-hazard"), 1, "findings: {f:?}");
}

#[test]
fn shift_passes_when_bounded() {
    let f = fired("core", include_str!("fixtures/shift_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

#[test]
fn shift_ignores_generics_closers() {
    let src = "pub fn collect<I: IntoIterator<Item = u64>>(items: I) -> Vec<u64> {\n    items.into_iter().collect()\n}\n";
    let f = fired("core", src);
    assert!(f.is_empty(), "generics `>>` is not a shift: {f:?}");
}

// -----------------------------------------------------------------
// truncating-cast
// -----------------------------------------------------------------

#[test]
fn cast_fires_on_unbounded_operand() {
    let f = fired("core", include_str!("fixtures/cast_fire.rs"));
    assert_eq!(count_rule(&f, "truncating-cast"), 2, "findings: {f:?}");
}

#[test]
fn cast_guard_reads_a_wrapped_statement_to_its_end() {
    // The bound sits on the `let`'s continuation line: one statement.
    let wrapped = "pub fn f(d: &D) -> u32 {\n    let (_c, m) =\n        d.take_bits(0, 6);\n    m as u32\n}\n";
    let f = fired("core", wrapped);
    assert_eq!(count_rule(&f, "truncating-cast"), 0, "findings: {f:?}");
    // The `let` ends at its `;`: a bound in the next statement is not its.
    let split = "pub fn f(d: &D, w: u64) -> u32 {\n    let m =\n        w;\n    let _b = d.take_bits(0, 6);\n    m as u32\n}\n";
    let f = fired("core", split);
    assert_eq!(count_rule(&f, "truncating-cast"), 1, "findings: {f:?}");
}

#[test]
fn cast_passes_when_masked_or_bounded() {
    let f = fired("core", include_str!("fixtures/cast_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

#[test]
fn cast_is_scoped_to_configured_crates() {
    let f = fired("math", include_str!("fixtures/cast_fire.rs"));
    assert_eq!(count_rule(&f, "truncating-cast"), 0, "math is out of scope: {f:?}");
}

// -----------------------------------------------------------------
// panic-in-lib
// -----------------------------------------------------------------

#[test]
fn panic_fires_on_unwrap_expect_and_macros() {
    let f = fired("core", include_str!("fixtures/panic_fire.rs"));
    assert_eq!(count_rule(&f, "panic-in-lib"), 3, "findings: {f:?}");
}

#[test]
fn panic_passes_documented_invariants_and_tests() {
    let f = fired("core", include_str!("fixtures/panic_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

#[test]
fn panic_exempts_binaries_and_allowed_crates() {
    let text = include_str!("fixtures/panic_fire.rs");
    let in_bin = lint_text("core", "crates/core/src/main.rs", true, text, &config());
    assert!(in_bin.is_empty(), "binaries may die loudly: {in_bin:?}");
    let in_cli = fired("cli", text);
    assert_eq!(count_rule(&in_cli, "panic-in-lib"), 0, "cli is allowlisted: {in_cli:?}");
}

// -----------------------------------------------------------------
// float-eq
// -----------------------------------------------------------------

#[test]
fn float_fires_on_literal_and_nan_comparisons() {
    let f = fired("core", include_str!("fixtures/float_fire.rs"));
    assert_eq!(count_rule(&f, "float-eq"), 2, "findings: {f:?}");
}

#[test]
fn float_passes_sentinels_and_tolerances() {
    let f = fired("core", include_str!("fixtures/float_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

// -----------------------------------------------------------------
// nondeterminism
// -----------------------------------------------------------------

#[test]
fn nondet_fires_on_clock_and_hashmap() {
    let f = fired("simulate", include_str!("fixtures/nondet_fire.rs"));
    assert!(count_rule(&f, "nondeterminism") >= 2, "findings: {f:?}");
}

#[test]
fn nondet_passes_ordered_and_seeded_code() {
    let f = fired("simulate", include_str!("fixtures/nondet_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

// -----------------------------------------------------------------
// durability
// -----------------------------------------------------------------

#[test]
fn durability_fires_on_bare_write_and_rename() {
    let f = fired("store", include_str!("fixtures/durability_fire.rs"));
    assert_eq!(count_rule(&f, "durability"), 2, "findings: {f:?}");
}

#[test]
fn durability_passes_fsync_before_rename() {
    let f = fired("store", include_str!("fixtures/durability_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

// -----------------------------------------------------------------
// suppressions
// -----------------------------------------------------------------

const SHIFT_HAZARD: &str = "pub fn mask(p: u32) -> u64 {\n    (1u64 << p) - 1\n}\n";

#[test]
fn reasoned_suppression_silences_the_finding() {
    let src = SHIFT_HAZARD.replace(
        "(1u64 << p) - 1",
        "(1u64 << p) - 1 // hmh-lint: allow(shift-overflow-hazard) — p ≤ 24 by construction",
    );
    let f = fired("core", &src);
    assert!(f.is_empty(), "expected silenced, got: {f:?}");
}

#[test]
fn standalone_suppression_governs_next_code_line() {
    let src = SHIFT_HAZARD.replace(
        "    (1u64 << p) - 1",
        "    // hmh-lint: allow(shift-overflow-hazard) — p ≤ 24 by construction\n    (1u64 << p) - 1",
    );
    let f = fired("core", &src);
    assert!(f.is_empty(), "expected silenced, got: {f:?}");
}

#[test]
fn reasonless_suppression_keeps_finding_and_reports_itself() {
    let src = SHIFT_HAZARD
        .replace("(1u64 << p) - 1", "(1u64 << p) - 1 // hmh-lint: allow(shift-overflow-hazard)");
    let f = fired("core", &src);
    assert_eq!(count_rule(&f, "shift-overflow-hazard"), 1, "finding stands: {f:?}");
    assert_eq!(count_rule(&f, "bad-suppression"), 1, "reasonless is an error: {f:?}");
}

#[test]
fn unknown_rule_suppression_is_an_error() {
    let src = SHIFT_HAZARD
        .replace("(1u64 << p) - 1", "(1u64 << p) - 1 // hmh-lint: allow(no-such-rule) — because");
    let f = fired("core", &src);
    assert_eq!(count_rule(&f, "shift-overflow-hazard"), 1, "finding stands: {f:?}");
    assert_eq!(count_rule(&f, "bad-suppression"), 1, "unknown rule is an error: {f:?}");
}

#[test]
fn unused_suppression_is_a_warning() {
    let src = "// hmh-lint: allow(float-eq) — stale justification\npub fn id(x: u64) -> u64 {\n    x\n}\n";
    let diags = lint_text("core", "crates/test/src/lib.rs", false, src, &config());
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].rule, "unused-suppression");
    assert_eq!(diags[0].severity, Severity::Warning);
}

#[test]
fn malformed_suppression_is_an_error() {
    let src = "// hmh-lint: disallow(float-eq)\npub fn id(x: u64) -> u64 {\n    x\n}\n";
    let f = fired("core", src);
    assert_eq!(count_rule(&f, "bad-suppression"), 1, "findings: {f:?}");
}

#[test]
fn doc_comments_describing_the_syntax_are_inert() {
    let src = "//! Suppress with `// hmh-lint: allow(rule) — reason`.\npub fn id(x: u64) -> u64 {\n    x\n}\n";
    let f = fired("core", src);
    assert!(f.is_empty(), "doc text is not a live suppression: {f:?}");
}

// -----------------------------------------------------------------
// diagnostics carry real spans
// -----------------------------------------------------------------

#[test]
fn findings_point_at_file_line_col() {
    let diags = lint_text("core", "crates/core/src/x.rs", false, SHIFT_HAZARD, &config());
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].file, "crates/core/src/x.rs");
    assert_eq!(diags[0].line, 2);
    assert!(diags[0].col > 1, "column should point inside the line");
    assert_eq!(diags[0].severity, Severity::Error);
}

// -----------------------------------------------------------------
// lock-order
// -----------------------------------------------------------------

#[test]
fn lock_order_fires_on_inverted_order() {
    let f = fired("serve", include_str!("fixtures/lock_order_fire.rs"));
    assert_eq!(count_rule(&f, "lock-order"), 1, "findings: {f:?}");
}

#[test]
fn lock_order_passes_consistent_order() {
    let f = fired("serve", include_str!("fixtures/lock_order_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

#[test]
fn lock_order_fires_on_reacquisition() {
    let src = "pub struct S {\n    pub q: std::sync::Mutex<u64>,\n}\npub fn double(s: &S) -> u64 {\n    let a = s.q.lock();\n    let b = s.q.lock();\n    *a + *b\n}\n";
    let f = fired("serve", src);
    assert_eq!(count_rule(&f, "lock-order"), 1, "findings: {f:?}");
}

#[test]
fn lock_order_is_crate_scoped() {
    let f = fired("core", include_str!("fixtures/lock_order_fire.rs"));
    assert_eq!(count_rule(&f, "lock-order"), 0, "findings: {f:?}");
}

// -----------------------------------------------------------------
// blocking-under-lock
// -----------------------------------------------------------------

#[test]
fn blocking_fires_under_live_guard() {
    let f = fired("serve", include_str!("fixtures/blocking_fire.rs"));
    assert_eq!(count_rule(&f, "blocking-under-lock"), 1, "findings: {f:?}");
}

#[test]
fn blocking_passes_after_drop() {
    let f = fired("serve", include_str!("fixtures/blocking_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

#[test]
fn blocking_ignores_calls_outside_any_guard() {
    let src = "pub fn wait(rx: &std::sync::mpsc::Receiver<u64>) -> u64 {\n    match rx.recv() {\n        Ok(v) => v,\n        Err(_) => 0,\n    }\n}\n";
    let f = fired("serve", src);
    assert!(f.is_empty(), "no guard is live: {f:?}");
}

// -----------------------------------------------------------------
// unbounded-net-loop
// -----------------------------------------------------------------

#[test]
fn netloop_fires_on_unbounded_dial() {
    let f = fired("serve", include_str!("fixtures/netloop_fire.rs"));
    assert_eq!(count_rule(&f, "unbounded-net-loop"), 1, "findings: {f:?}");
}

#[test]
fn netloop_passes_with_attempt_cap() {
    let f = fired("serve", include_str!("fixtures/netloop_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

#[test]
fn netloop_exempts_for_loops() {
    let src = "pub fn flush(streams: &mut Vec<std::net::TcpStream>) {\n    for s in streams.iter_mut() {\n        write_frame(s);\n    }\n}\nfn write_frame(_s: &mut std::net::TcpStream) {}\n";
    let f = fired("serve", src);
    assert!(f.is_empty(), "for-loops are structurally bounded: {f:?}");
}

#[test]
fn netloop_exempts_while_with_comparison() {
    let src = "pub fn pump(n: u64) {\n    let mut sent = 0u64;\n    while sent < n {\n        write_frame(sent);\n        sent += 1;\n    }\n}\nfn write_frame(_v: u64) {}\n";
    let f = fired("serve", src);
    assert!(f.is_empty(), "comparison in the while header is a bound: {f:?}");
}

// -----------------------------------------------------------------
// wire-drift (match exhaustiveness; value drift is cross-file and
// covered by the engine's synthetic-workspace test)
// -----------------------------------------------------------------

#[test]
fn wire_match_fires_on_partial_opcode_coverage() {
    let f = fired("serve", include_str!("fixtures/wire_match_fire.rs"));
    assert_eq!(count_rule(&f, "wire-drift"), 1, "findings: {f:?}");
}

#[test]
fn wire_match_passes_on_full_coverage() {
    let f = fired("serve", include_str!("fixtures/wire_match_pass.rs"));
    assert!(f.is_empty(), "expected clean, got: {f:?}");
}

// -----------------------------------------------------------------
// workspace rules honor the suppression machinery
// -----------------------------------------------------------------

#[test]
fn workspace_rule_findings_are_suppressible_with_reason() {
    let src = "pub fn dial(addr: &str) -> std::net::TcpStream {\n    // hmh-lint: allow(unbounded-net-loop) — caller enforces a wall-clock deadline\n    loop {\n        if let Ok(conn) = std::net::TcpStream::connect(addr) {\n            return conn;\n        }\n    }\n}\n";
    let f = fired("serve", src);
    assert!(f.is_empty(), "reasoned suppression silences the finding: {f:?}");
}
