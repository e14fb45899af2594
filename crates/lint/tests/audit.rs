//! The suppression inventory is pinned: adding an `allow(...)` anywhere
//! in the tree must update this test, making every new silenced finding
//! a reviewed, deliberate act rather than a drive-by comment.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels below the root")
        .to_path_buf()
}

/// Every suppression in the workspace today, as (file, line, rule).
/// Lines are part of the pin on purpose: a suppression that drifts to a
/// different statement is a different decision and deserves a re-read.
const INVENTORY: &[(&str, usize, &str)] = &[
    ("crates/cli/src/lib.rs", 1308, "durability"),
    ("crates/core/src/params.rs", 86, "shift-overflow-hazard"),
    ("crates/core/src/params.rs", 92, "shift-overflow-hazard"),
    ("crates/core/src/params.rs", 103, "shift-overflow-hazard"),
    ("crates/core/src/sparse.rs", 153, "panic-in-lib"),
    ("crates/hll/src/sketch.rs", 85, "shift-overflow-hazard"),
    ("crates/minhash/src/kpartition.rs", 75, "shift-overflow-hazard"),
    ("crates/store/src/backend.rs", 86, "durability"),
    ("crates/store/src/backend.rs", 108, "durability"),
    ("crates/store/src/fault.rs", 369, "durability"),
];

#[test]
fn suppression_inventory_is_pinned() {
    let found = hmh_lint::collect_suppressions(&workspace_root()).expect("scan succeeds");
    let mut got: Vec<(String, usize, String)> = found
        .iter()
        .flat_map(|(_, file, s)| {
            s.rules.iter().map(move |r| (file.clone(), s.comment_line, r.clone()))
        })
        .collect();
    got.sort();
    let mut want: Vec<(String, usize, String)> =
        INVENTORY.iter().map(|(f, l, r)| (f.to_string(), *l, r.to_string())).collect();
    want.sort();
    assert_eq!(
        got, want,
        "suppression inventory drifted — if the change is deliberate, update INVENTORY"
    );
}

#[test]
fn every_audited_suppression_argues_its_case() {
    let found = hmh_lint::collect_suppressions(&workspace_root()).expect("scan succeeds");
    assert!(!found.is_empty(), "the tree documents its known suppressions");
    for (krate, file, s) in &found {
        assert!(
            s.reason.len() >= 15,
            "{krate}/{file}:{} reason too thin to audit: {:?}",
            s.comment_line,
            s.reason
        );
    }
}
