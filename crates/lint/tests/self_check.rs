//! The linter's own acceptance bar: the workspace it ships in is clean.
//!
//! This is the machine-checked version of "the invariants hold today":
//! any new unguarded shift, undocumented panic, or fsync-skipping write
//! breaks this test before it breaks an estimate.

use hmh_lint::{check_workspace, load_config};
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let config = load_config(&root).expect("Lint.toml parses");
    let report = check_workspace(&root, &config).expect("scan succeeds");
    assert!(
        report.diagnostics.is_empty(),
        "workspace must be lint-clean; found:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("  [{}] {}:{}:{} {}", d.rule, d.file, d.line, d.col, d.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Guard against a silently hollow scan: all workspace crates, with
    // the full src trees, must actually have been visited.
    assert!(report.crates_scanned >= 16, "only {} crates scanned", report.crates_scanned);
    assert!(report.files_scanned >= 100, "only {} files scanned", report.files_scanned);
}

#[test]
fn every_workspace_crate_is_discovered_and_declared() {
    // The scan is only exhaustive if discovery sees every crate; the
    // `[workspace] crates` list in Lint.toml is only honest if it names
    // exactly what discovery sees (the `scopes` subcommand's contract,
    // held here as a test so CI fails before the CLI step even runs).
    let root = workspace_root();
    let discovered = hmh_lint::discovered_crate_names(&root).expect("discovery succeeds");
    for krate in [
        "bench",
        "cli",
        "cnf",
        "core",
        "hash",
        "hll",
        "hyperminhash",
        "ingest",
        "lint",
        "math",
        "minhash",
        "replica",
        "route",
        "serve",
        "simulate",
        "store",
        "workloads",
    ] {
        assert!(discovered.iter().any(|c| c == krate), "crate `{krate}` not discovered");
    }
    let config = load_config(&root).expect("Lint.toml parses");
    let declared = config.get_list("workspace.crates").expect("[workspace] crates is configured");
    let mut declared: Vec<&str> = declared.iter().map(String::as_str).collect();
    let mut found: Vec<&str> = discovered.iter().map(String::as_str).collect();
    declared.sort_unstable();
    found.sort_unstable();
    assert_eq!(declared, found, "Lint.toml [workspace] crates drifted from the tree");
}

#[test]
fn committed_baseline_matches_the_current_findings() {
    // The ratchet contract, held in-process: the committed baseline must
    // parse, and diffing it against a fresh scan must be clean in both
    // directions (no unratcheted findings, no stale entries).
    let root = workspace_root();
    let config = load_config(&root).expect("Lint.toml parses");
    let report = check_workspace(&root, &config).expect("scan succeeds");
    let text = std::fs::read_to_string(root.join("lint-baseline.json"))
        .expect("lint-baseline.json is committed at the workspace root");
    let baseline = hmh_lint::baseline::parse_baseline(&text).expect("baseline parses");
    let diff = hmh_lint::baseline::diff(&report.diagnostics, &baseline);
    assert!(diff.is_clean(), "ratchet drifted — new: {:?}, stale: {:?}", diff.new, diff.stale);
}

#[test]
fn forbid_unsafe_scope_covers_the_pure_logic_crates() {
    // The attribute check is only as strong as its scope: if a crate is
    // dropped from the list, `#![forbid(unsafe_code)]` could regress
    // without failing the self-check above.
    let config = load_config(&workspace_root()).expect("Lint.toml parses");
    let listed =
        config.get_list("rules.forbid-unsafe.crates").expect("forbid-unsafe scope is configured");
    for krate in ["core", "hll", "minhash", "math", "cnf", "hash", "simulate", "workloads", "lint"]
    {
        assert!(
            listed.iter().any(|c| c == krate),
            "crate `{krate}` missing from rules.forbid-unsafe.crates"
        );
    }
}

#[test]
fn every_workspace_suppression_carries_a_reason() {
    // Belt and braces on top of `workspace_is_lint_clean`: walk the tree
    // ourselves and parse each file's suppressions directly, so even a
    // suppression the engine somehow skipped must still argue its case.
    let root = workspace_root();
    let mut checked = 0usize;
    let mut stack = vec![root.join("crates")];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "target" || n == "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = std::fs::read_to_string(&path).expect("readable source");
                let parsed = hmh_lint::source::SourceFile::parse(&text);
                for s in &parsed.suppressions {
                    assert!(
                        !s.reason.is_empty(),
                        "{}:{} suppression has no written reason",
                        path.display(),
                        s.comment_line
                    );
                    checked += 1;
                }
                assert!(
                    parsed.bad_suppressions.is_empty(),
                    "{} has malformed hmh-lint comments",
                    path.display()
                );
            }
        }
    }
    assert!(checked >= 8, "expected the tree's documented suppressions, saw {checked}");
}
