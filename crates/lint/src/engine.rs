//! The rule engine: workspace discovery, per-crate rule scoping,
//! suppression application, and the engine-level checks that are not
//! per-file rules (`forbid-unsafe`, suppression hygiene).
//!
//! Scope: every workspace member's `src/` tree — `crates/*/src` plus the
//! root facade crate — in sorted order so output is byte-stable.
//! `vendor/` (external stand-ins) and `target/` are never scanned.
//! Test code rides along inside `src/` via `#[cfg(test)]` modules; the
//! source model marks those regions and every rule skips them.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::config::Config;
use crate::diag::{sort_diagnostics, Diagnostic, Severity};
use crate::rules::{all_rules, concurrency, known_rule_names, netloop, wire, FileCtx};
use crate::source::{SourceFile, Suppression};
use crate::syntax::ParsedFile;

/// Result of a workspace check.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    pub files_scanned: usize,
    pub crates_scanned: usize,
}

impl Report {
    pub fn error_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
    }

    pub fn warning_count(&self) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
    }
}

/// A discovered workspace member.
struct CrateDir {
    /// Short name used for rule scoping: directory name under `crates/`,
    /// or the root package's name.
    name: String,
    src: PathBuf,
}

/// Walk up from `start` to the first directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Check the whole workspace rooted at `root` with `config`.
///
/// Pipeline order matters: every per-file and workspace rule runs
/// *raw* first, and suppressions are applied per file at the very end
/// — a suppression for a workspace finding (say `unbounded-net-loop`)
/// must see that finding, or it would be reported as unused.
pub fn check_workspace(root: &Path, config: &Config) -> io::Result<Report> {
    let mut report = Report::default();
    let crates = discover_crates(root)?;
    report.crates_scanned = crates.len();

    // Phase 1: parse every file, run the per-file rules raw.
    let mut parsed: Vec<(String, Vec<ParsedFile>)> = Vec::new();
    let mut raw: std::collections::BTreeMap<String, Vec<Diagnostic>> =
        std::collections::BTreeMap::new();
    for krate in &crates {
        let mut files = Vec::new();
        collect_rs_files(&krate.src, &mut files)?;
        files.sort();
        let mut crate_parsed = Vec::new();
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
            let is_bin = rel.ends_with("/main.rs") || rel.contains("/bin/");
            let pf = ParsedFile::parse(&rel, is_bin, &text);
            let ctx = FileCtx { crate_name: &krate.name, path: &rel, is_bin, src: &pf.src, config };
            let diags = raw.entry(rel.clone()).or_default();
            for rule in all_rules() {
                if rule_applies(config, rule.name(), &krate.name) {
                    rule.check(&ctx, diags);
                }
            }
            crate_parsed.push(pf);
            report.files_scanned += 1;
        }
        check_forbid_unsafe(root, krate, config, &mut report.diagnostics);
        parsed.push((krate.name.clone(), crate_parsed));
    }

    // Phase 2: crate-scoped workspace rules.
    let mut ws_diags = Vec::new();
    for (name, files) in &parsed {
        let slice: Vec<&ParsedFile> = files.iter().collect();
        if rule_applies(config, "lock-order", name) {
            concurrency::check_lock_order(&slice, config, &mut ws_diags);
        }
        if rule_applies(config, "blocking-under-lock", name) {
            concurrency::check_blocking_under_lock(&slice, config, &mut ws_diags);
        }
        if rule_applies(config, "unbounded-net-loop", name) {
            netloop::check_unbounded_net_loop(&slice, config, &mut ws_diags);
        }
    }

    // Phase 3: wire-drift across every scoped crate at once.
    let wire_files: Vec<&ParsedFile> = parsed
        .iter()
        .filter(|(name, _)| rule_applies(config, "wire-drift", name))
        .flat_map(|(_, files)| files.iter())
        .collect();
    wire::check_wire_drift(&wire_files, config, &mut ws_diags);

    // Phase 4: distribute workspace findings to their files, then apply
    // suppressions file by file.
    for d in ws_diags {
        raw.entry(d.file.clone()).or_default().push(d);
    }
    for (_, files) in &parsed {
        for pf in files {
            let diags = raw.remove(&pf.rel).unwrap_or_default();
            report.diagnostics.extend(apply_suppressions(&pf.src, &pf.rel, diags));
        }
    }
    sort_diagnostics(&mut report.diagnostics);
    Ok(report)
}

/// Lint one file's text through the *full* pipeline — per-file rules,
/// the workspace rules restricted to this single file, and suppression
/// application. Public so fixture tests can exercise rules on files
/// that are not part of any real workspace.
pub fn lint_text(
    crate_name: &str,
    rel_path: &str,
    is_bin: bool,
    text: &str,
    config: &Config,
) -> Vec<Diagnostic> {
    let pf = ParsedFile::parse(rel_path, is_bin, text);
    let ctx = FileCtx { crate_name, path: rel_path, is_bin, src: &pf.src, config };
    let mut raw = Vec::new();
    for rule in all_rules() {
        if rule_applies(config, rule.name(), crate_name) {
            rule.check(&ctx, &mut raw);
        }
    }
    let slice = [&pf];
    if rule_applies(config, "lock-order", crate_name) {
        concurrency::check_lock_order(&slice, config, &mut raw);
    }
    if rule_applies(config, "blocking-under-lock", crate_name) {
        concurrency::check_blocking_under_lock(&slice, config, &mut raw);
    }
    if rule_applies(config, "unbounded-net-loop", crate_name) {
        netloop::check_unbounded_net_loop(&slice, config, &mut raw);
    }
    if rule_applies(config, "wire-drift", crate_name) {
        wire::check_wire_drift(&slice, config, &mut raw);
    }
    apply_suppressions(&pf.src, rel_path, raw)
}

/// Sorted names of the workspace members `check_workspace` would scan —
/// the discovery ground truth the `scopes` subcommand audits `Lint.toml`
/// against.
pub fn discovered_crate_names(root: &Path) -> io::Result<Vec<String>> {
    Ok(discover_crates(root)?.into_iter().map(|c| c.name).collect())
}

/// Every inline suppression in the workspace, as
/// `(crate, file, suppression)`, in scan order — the `audit`
/// subcommand's data source.
pub fn collect_suppressions(root: &Path) -> io::Result<Vec<(String, String, Suppression)>> {
    let mut out = Vec::new();
    for krate in discover_crates(root)? {
        let mut files = Vec::new();
        collect_rs_files(&krate.src, &mut files)?;
        files.sort();
        for file in files {
            let text = fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_string_lossy().replace('\\', "/");
            let src = SourceFile::parse(&text);
            for s in src.suppressions {
                out.push((krate.name.clone(), rel.clone(), s));
            }
        }
    }
    Ok(out)
}

/// Is `rule` enabled and in scope for `crate_name`?
fn rule_applies(config: &Config, rule: &str, crate_name: &str) -> bool {
    if !config.get_bool(&format!("rules.{rule}.enabled"), true) {
        return false;
    }
    match config.get_list(&format!("rules.{rule}.crates")) {
        Some(list) => list.iter().any(|c| c == crate_name),
        None => true,
    }
}

/// Drop suppressed findings; emit diagnostics for malformed, reasonless,
/// unknown-rule and unused suppressions. Runs once per file, after
/// every rule (per-file and workspace) has contributed to `raw`.
fn apply_suppressions(src: &SourceFile, path: &str, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let known = known_rule_names();
    let mut used = vec![false; src.suppressions.len()];
    let mut out: Vec<Diagnostic> = Vec::new();
    for diag in raw {
        let matched =
            src.suppressions.iter().enumerate().find(|(_, s)| {
                s.applies_to == diag.line && s.rules.iter().any(|r| r == &diag.rule)
            });
        match matched {
            Some((i, s)) if !s.reason.is_empty() => used[i] = true,
            Some((i, _)) => {
                // Reasonless suppression: the finding stands AND the
                // suppression is reported below (it stays unused).
                let _ = i;
                out.push(diag);
            }
            None => out.push(diag),
        }
    }
    for (i, s) in src.suppressions.iter().enumerate() {
        if s.reason.is_empty() {
            out.push(
                Diagnostic::new(
                    "bad-suppression",
                    Severity::Error,
                    path,
                    s.comment_line,
                    1,
                    "suppression carries no written reason".to_string(),
                )
                .with_note(
                    "format: `// hmh-lint: allow(<rule>) — <why the invariant holds>`".to_string(),
                ),
            );
            continue;
        }
        for r in &s.rules {
            if !known.contains(&r.as_str()) {
                out.push(Diagnostic::new(
                    "bad-suppression",
                    Severity::Error,
                    path,
                    s.comment_line,
                    1,
                    format!("suppression names unknown rule `{r}`"),
                ));
            }
        }
        if !used[i] && s.rules.iter().all(|r| known.contains(&r.as_str())) {
            out.push(
                Diagnostic::new(
                    "unused-suppression",
                    Severity::Warning,
                    path,
                    s.comment_line,
                    1,
                    format!("suppression for `{}` matches no finding", s.rules.join(", ")),
                )
                .with_note("delete it, or re-anchor it to the hazardous line".to_string()),
            );
        }
    }
    for b in &src.bad_suppressions {
        out.push(Diagnostic::new(
            "bad-suppression",
            Severity::Error,
            path,
            b.line,
            1,
            b.what.clone(),
        ));
    }
    out
}

/// Engine check: crates listed under `rules.forbid-unsafe.crates` must
/// keep `#![forbid(unsafe_code)]` at the top of their `lib.rs`.
fn check_forbid_unsafe(root: &Path, krate: &CrateDir, config: &Config, out: &mut Vec<Diagnostic>) {
    let Some(listed) = config.get_list("rules.forbid-unsafe.crates") else { return };
    if !listed.iter().any(|c| c == &krate.name) {
        return;
    }
    let lib = krate.src.join("lib.rs");
    let rel = lib.strip_prefix(root).unwrap_or(&lib).to_string_lossy().replace('\\', "/");
    let Ok(text) = fs::read_to_string(&lib) else {
        out.push(Diagnostic::new(
            "forbid-unsafe",
            Severity::Error,
            &rel,
            1,
            1,
            format!("crate `{}` has no readable src/lib.rs to carry the attribute", krate.name),
        ));
        return;
    };
    // Search the scrubbed text so a comment can't satisfy the check.
    let src = SourceFile::parse(&text);
    let has_attr = src.lines.iter().any(|l| l.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if !has_attr {
        out.push(
            Diagnostic::new(
                "forbid-unsafe",
                Severity::Error,
                &rel,
                1,
                1,
                format!("crate `{}` must keep `#![forbid(unsafe_code)]` in lib.rs", krate.name),
            )
            .with_note(
                "pure-logic crates stay unsafe-free so bit-level invariants are the only \
                 soundness surface"
                    .to_string(),
            ),
        );
    }
}

/// Workspace members with a `src/` tree: `crates/*` plus the root
/// package. `vendor/*` is deliberately out of scope.
fn discover_crates(root: &Path) -> io::Result<Vec<CrateDir>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut entries: Vec<PathBuf> =
            fs::read_dir(&crates_dir)?.filter_map(|e| e.ok().map(|e| e.path())).collect();
        entries.sort();
        for dir in entries {
            let src = dir.join("src");
            if src.is_dir() && dir.join("Cargo.toml").is_file() {
                let name =
                    dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                out.push(CrateDir { name, src });
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() && root.join("Cargo.toml").is_file() {
        out.push(CrateDir { name: "hyperminhash".to_string(), src: root_src });
    }
    Ok(out)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
