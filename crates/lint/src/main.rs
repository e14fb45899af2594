//! `hmh-lint` binary: `check [--deny] [--json] [--ratchet]
//! [--write-baseline] [--root <dir>]`, `audit [--json]`, `scopes`,
//! `rules`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hmh_lint::baseline::{diff, parse_baseline, render_baseline, render_diff_json};
use hmh_lint::diag::{json_str, render_human, render_json};
use hmh_lint::rules::{all_rules, known_rule_names, workspace_rules};
use hmh_lint::{
    check_workspace, collect_suppressions, discovered_crate_names, find_workspace_root, load_config,
};

const USAGE: &str = "\
hmh-lint — workspace-native static analysis for the HyperMinHash repo

USAGE:
    hmh-lint check [--deny] [--json] [--ratchet] [--write-baseline] [--root <dir>]
    hmh-lint audit [--json] [--root <dir>]
    hmh-lint scopes [--root <dir>]
    hmh-lint rules

COMMANDS:
    check    Lint every workspace crate's src/ tree against Lint.toml
    audit    List every inline suppression with file:line, rule and reason
    scopes   Assert Lint.toml's [workspace] crates list matches the crates on disk
    rules    List the rule set with one-line descriptions

OPTIONS:
    --deny             Treat warnings as errors (exit 1 on any finding)
    --json             Emit machine-readable JSON on stdout
    --ratchet          Compare findings against lint-baseline.json: fail on any
                       finding not in the baseline AND on stale baseline entries
    --write-baseline   Regenerate lint-baseline.json from the current findings
    --root <dir>       Workspace root (default: walk up from the current dir)
";

/// Committed ratchet baseline, looked up at the workspace root.
const BASELINE_FILE: &str = "lint-baseline.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("audit") => audit(&args[1..]),
        Some("scopes") => scopes(&args[1..]),
        Some("rules") => {
            for rule in all_rules() {
                println!("{:<24} {}", rule.name(), rule.describe());
            }
            for (name, describe) in workspace_rules() {
                println!("{name:<24} {describe}");
            }
            println!(
                "{:<24} engine check: #![forbid(unsafe_code)] must stay in configured lib.rs files",
                "forbid-unsafe"
            );
            ExitCode::SUCCESS
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Resolve `--root` / walk up from the cwd. Shared by every command.
fn resolve_root(root: Option<PathBuf>) -> Result<PathBuf, ExitCode> {
    match root {
        Some(r) => Ok(r),
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            find_workspace_root(&cwd).ok_or_else(|| {
                eprintln!("no workspace root found above {}", cwd.display());
                ExitCode::from(2)
            })
        }
    }
}

fn check(flags: &[String]) -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut ratchet = false;
    let mut write_baseline = false;
    let mut root: Option<PathBuf> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--ratchet" => ratchet = true,
            "--write-baseline" => write_baseline = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = match resolve_root(root) {
        Ok(r) => r,
        Err(code) => return code,
    };

    let config = match load_config(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("config error: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match check_workspace(&root, &config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("scan error: {e}");
            return ExitCode::from(2);
        }
    };

    if write_baseline {
        let path = root.join(BASELINE_FILE);
        if let Err(e) = std::fs::write(&path, render_baseline(&report.diagnostics)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("hmh-lint: wrote {} entries to {}", report.diagnostics.len(), path.display());
        return ExitCode::SUCCESS;
    }

    if ratchet {
        return check_ratchet(&root, &report, json);
    }

    if json {
        println!("{}", render_json(&report.diagnostics));
    } else {
        for d in &report.diagnostics {
            print!("{}", render_human(d));
        }
        eprintln!(
            "hmh-lint: {} crates, {} files scanned: {} error(s), {} warning(s)",
            report.crates_scanned,
            report.files_scanned,
            report.error_count(),
            report.warning_count(),
        );
    }

    let failed = report.error_count() > 0 || (deny && !report.diagnostics.is_empty());
    let has_warnings_only =
        report.error_count() == 0 && report.warning_count() > 0 && !deny && !json;
    if has_warnings_only {
        eprintln!("hmh-lint: warnings do not fail the build without --deny");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `check --ratchet`: success iff the findings and the committed
/// baseline are in exact agreement — no new findings, no stale entries.
/// `--deny` is implied: the ratchet has no warning tier.
fn check_ratchet(root: &Path, report: &hmh_lint::Report, json: bool) -> ExitCode {
    let path = root.join(BASELINE_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "cannot read {}: {e}\nrun `hmh-lint check --write-baseline` to create it",
                path.display()
            );
            return ExitCode::from(2);
        }
    };
    let baseline = match parse_baseline(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let d = diff(&report.diagnostics, &baseline);
    if json {
        print!("{}", render_diff_json(&d));
    } else {
        for e in &d.new {
            eprintln!("ratchet: NEW finding not in baseline: {}:{} {}", e.file, e.line, e.rule);
        }
        for e in &d.stale {
            eprintln!(
                "ratchet: STALE baseline entry no longer fires: {}:{} {}",
                e.file, e.line, e.rule
            );
        }
        eprintln!(
            "hmh-lint: ratchet vs {} entries: {} new, {} stale",
            baseline.len(),
            d.new.len(),
            d.stale.len()
        );
        if !d.stale.is_empty() {
            eprintln!("hmh-lint: regenerate with `hmh-lint check --write-baseline`");
        }
    }
    if d.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `audit`: the suppression inventory — every place the workspace has
/// argued its way past a rule, with the argument.
fn audit(flags: &[String]) -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match resolve_root(root) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let sups = match collect_suppressions(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("scan error: {e}");
            return ExitCode::from(2);
        }
    };
    if json {
        let mut out = String::from("[");
        for (i, (krate, file, s)) in sups.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n  {{\"crate\": {}, \"file\": {}, \"line\": {}, \"rules\": [{}], \
                 \"reason\": {}}}",
                json_str(krate),
                json_str(file),
                s.comment_line,
                s.rules.iter().map(|r| json_str(r)).collect::<Vec<_>>().join(", "),
                json_str(&s.reason),
            ));
        }
        if !sups.is_empty() {
            out.push('\n');
        }
        out.push(']');
        println!("{out}");
    } else {
        for (_, file, s) in &sups {
            println!("{}:{}: allow({}) — {}", file, s.comment_line, s.rules.join(", "), s.reason);
        }
        eprintln!("hmh-lint: {} suppression(s)", sups.len());
    }
    ExitCode::SUCCESS
}

/// `scopes`: `Lint.toml` must declare, under `[workspace] crates`, the
/// exact set of crates that exist on disk — and every crate named in a
/// rule scope must be in that set. A new crate that nobody added to the
/// config is invisible to crate-scoped rules; this makes that loud.
fn scopes(flags: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory argument");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let root = match resolve_root(root) {
        Ok(r) => r,
        Err(code) => return code,
    };
    let config = match load_config(&root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("config error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(declared) = config.get_list("workspace.crates").map(<[String]>::to_vec) else {
        eprintln!("scopes: Lint.toml has no `[workspace] crates = [...]` list");
        return ExitCode::from(2);
    };
    let discovered = match discovered_crate_names(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("scan error: {e}");
            return ExitCode::from(2);
        }
    };
    let declared_set: std::collections::BTreeSet<&str> =
        declared.iter().map(String::as_str).collect();
    let discovered_set: std::collections::BTreeSet<&str> =
        discovered.iter().map(String::as_str).collect();
    let mut failed = false;
    for missing in discovered_set.difference(&declared_set) {
        eprintln!("scopes: crate `{missing}` exists on disk but is not in [workspace] crates");
        failed = true;
    }
    for ghost in declared_set.difference(&discovered_set) {
        eprintln!("scopes: [workspace] crates lists `{ghost}` but no such crate exists");
        failed = true;
    }
    for rule in known_rule_names() {
        for key in ["crates", "allow_crates"] {
            let Some(scoped) = config.get_list(&format!("rules.{rule}.{key}")) else { continue };
            for name in scoped {
                if !declared_set.contains(name.as_str()) {
                    eprintln!(
                        "scopes: rules.{rule}.{key} names `{name}`, which is not in \
                         [workspace] crates"
                    );
                    failed = true;
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        eprintln!(
            "hmh-lint: scopes OK — {} crates declared, {} discovered",
            declared.len(),
            discovered.len()
        );
        ExitCode::SUCCESS
    }
}
