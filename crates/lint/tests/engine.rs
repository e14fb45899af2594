//! End-to-end engine tests against small synthetic workspaces on disk:
//! crate discovery, root finding, and the `forbid-unsafe` engine check
//! (which reads lib.rs files rather than running per-line).

use hmh_lint::{check_workspace, find_workspace_root, Config};
use std::fs;
use std::path::PathBuf;

/// A throwaway workspace under the system temp dir, removed on drop.
struct TempWs {
    root: PathBuf,
}

impl TempWs {
    fn new(tag: &str, lib_rs: &str, lint_toml: &str) -> Self {
        let root = std::env::temp_dir().join(format!("hmh-lint-{}-{tag}", std::process::id()));
        let src = root.join("crates/alpha/src");
        fs::create_dir_all(&src).expect("mkdir");
        fs::write(root.join("Cargo.toml"), "[workspace]\nmembers = [\"crates/*\"]\n")
            .expect("write");
        fs::write(root.join("Lint.toml"), lint_toml).expect("write");
        fs::write(
            root.join("crates/alpha/Cargo.toml"),
            "[package]\nname = \"alpha\"\nversion = \"0.1.0\"\n",
        )
        .expect("write");
        fs::write(src.join("lib.rs"), lib_rs).expect("write");
        Self { root }
    }

    /// Add a second (or third…) crate to the synthetic workspace.
    fn add_crate(&self, name: &str, lib_rs: &str) {
        let src = self.root.join(format!("crates/{name}/src"));
        fs::create_dir_all(&src).expect("mkdir");
        fs::write(
            self.root.join(format!("crates/{name}/Cargo.toml")),
            format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\n"),
        )
        .expect("write");
        fs::write(src.join("lib.rs"), lib_rs).expect("write");
    }
}

impl Drop for TempWs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

const FORBID_CFG: &str = "[rules.forbid-unsafe]\ncrates = [\"alpha\"]\n";

fn run(ws: &TempWs, lint_toml: &str) -> Vec<(String, String)> {
    let config = Config::parse(lint_toml).expect("config parses");
    check_workspace(&ws.root, &config)
        .expect("scan succeeds")
        .diagnostics
        .into_iter()
        .map(|d| (d.rule, d.file))
        .collect()
}

#[test]
fn forbid_unsafe_fires_when_attribute_is_missing() {
    let ws = TempWs::new("forbid-fire", "pub fn f() -> u32 {\n    7\n}\n", FORBID_CFG);
    let diags = run(&ws, FORBID_CFG);
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].0, "forbid-unsafe");
    assert!(diags[0].1.ends_with("crates/alpha/src/lib.rs"));
}

#[test]
fn forbid_unsafe_passes_when_attribute_is_present() {
    let ws = TempWs::new(
        "forbid-pass",
        "#![forbid(unsafe_code)]\npub fn f() -> u32 {\n    7\n}\n",
        FORBID_CFG,
    );
    let diags = run(&ws, FORBID_CFG);
    assert!(diags.is_empty(), "diags: {diags:?}");
}

#[test]
fn forbid_unsafe_rejects_attribute_hidden_in_a_comment() {
    let ws = TempWs::new(
        "forbid-comment",
        "// #![forbid(unsafe_code)]\npub fn f() -> u32 {\n    7\n}\n",
        FORBID_CFG,
    );
    let diags = run(&ws, FORBID_CFG);
    assert_eq!(diags.len(), 1, "a commented-out attribute must not count: {diags:?}");
    assert_eq!(diags[0].0, "forbid-unsafe");
}

#[test]
fn unlisted_crates_are_not_required_to_forbid_unsafe() {
    let cfg = "[rules.forbid-unsafe]\ncrates = [\"beta\"]\n";
    let ws = TempWs::new("forbid-unlisted", "pub fn f() -> u32 {\n    7\n}\n", cfg);
    let diags = run(&ws, cfg);
    assert!(diags.is_empty(), "alpha is out of scope: {diags:?}");
}

#[test]
fn find_workspace_root_walks_up_from_a_nested_dir() {
    let ws = TempWs::new("root-walk", "#![forbid(unsafe_code)]\n", FORBID_CFG);
    let nested = ws.root.join("crates/alpha/src");
    let found = find_workspace_root(&nested).expect("root found");
    assert_eq!(found, ws.root);
}

#[test]
fn per_file_rules_run_inside_the_discovered_workspace() {
    let cfg = "[rules.shift-overflow-hazard]\nguard_window = 10\n";
    let ws =
        TempWs::new("rules-run", "pub fn mask(p: u32) -> u64 {\n    (1u64 << p) - 1\n}\n", cfg);
    let diags = run(&ws, cfg);
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].0, "shift-overflow-hazard");
}

// -----------------------------------------------------------------
// wire-drift across crates
// -----------------------------------------------------------------

const DRIFT_CFG: &str =
    "[rules.wire-drift]\ncrates = [\"alpha\", \"beta\"]\nconst_groups = [\"op\"]\n";

const ALPHA_OPS: &str = "pub mod op {\n    pub const PUT: u8 = 1;\n    pub const GET: u8 = 2;\n}\n";

#[test]
fn wire_drift_fires_when_two_crates_disagree_on_an_opcode() {
    let beta = "pub mod op {\n    pub const PUT: u8 = 1;\n    pub const GET: u8 = 3;\n}\n";
    let ws = TempWs::new("drift-fire", ALPHA_OPS, DRIFT_CFG);
    ws.add_crate("beta", beta);
    let diags = run(&ws, DRIFT_CFG);
    assert_eq!(diags.len(), 1, "diags: {diags:?}");
    assert_eq!(diags[0].0, "wire-drift");
    assert!(
        diags[0].1.ends_with("crates/beta/src/lib.rs"),
        "the divergent (non-canonical) site is flagged: {diags:?}"
    );
}

#[test]
fn wire_drift_passes_when_crates_agree() {
    let ws = TempWs::new("drift-pass", ALPHA_OPS, DRIFT_CFG);
    ws.add_crate("beta", ALPHA_OPS);
    let diags = run(&ws, DRIFT_CFG);
    assert!(diags.is_empty(), "identical opcode tables are clean: {diags:?}");
}

#[test]
fn wire_drift_ignores_crates_outside_its_scope() {
    let cfg = "[rules.wire-drift]\ncrates = [\"alpha\"]\nconst_groups = [\"op\"]\n";
    let beta = "pub mod op {\n    pub const PUT: u8 = 9;\n    pub const GET: u8 = 9;\n}\n";
    let ws = TempWs::new("drift-scope", ALPHA_OPS, cfg);
    ws.add_crate("beta", beta);
    let diags = run(&ws, cfg);
    assert!(diags.is_empty(), "beta is out of scope, so there is no second site: {diags:?}");
}
