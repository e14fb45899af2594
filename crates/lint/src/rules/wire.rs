//! `wire-drift`: the wire protocol's constants must agree everywhere
//! they are restated, and opcode matches must be exhaustive.
//!
//! `serve::proto` is the protocol's home, but `replica`, `route`,
//! `ingest` and the client all restate pieces of it — opcode bytes,
//! frame caps, batch limits, hash seeds. Two restatements that drift
//! produce the worst failure class this repo has: both sides keep
//! running and the sketches silently stop converging (the CRDT merge
//! laws only hold on byte-identical frames). Two checks:
//!
//! * **constant drift** — collect every `const` whose module path is in
//!   `const_groups` (`op::`, `status::`) or whose bare name matches
//!   `name_patterns` (`PROTO_*`, `MAX_*`, `*_SEED`), across every
//!   scoped crate. Same normalized name + different evaluated value =
//!   one finding per divergent site, pointing at the first definition.
//!   Constants whose initializer the parser cannot evaluate to an
//!   integer are skipped, not guessed about.
//! * **match exhaustiveness** — a `match` whose arm *patterns* name ≥ 2
//!   constants of a `match_groups` group must name the whole group. A
//!   `_` wildcard does not excuse the gap: for dispatch on wire
//!   opcodes, "forgot the new opcode" and "deliberate default" are
//!   indistinguishable, and the cost of the former (a silently dropped
//!   frame type) is the whole reason this rule exists. Single-constant
//!   matches (`if let`-style peeks) are out of scope.

use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::syntax::ParsedFile;

const DEFAULT_CONST_GROUPS: &[&str] = &["op", "status"];
const DEFAULT_NAME_PATTERNS: &[&str] = &["PROTO_", "MAX_", "_SEED"];
const DEFAULT_MATCH_GROUPS: &[&str] = &["op"];

fn list(config: &Config, key: &str, default: &[&str]) -> Vec<String> {
    config
        .get_list(key)
        .map(<[String]>::to_vec)
        .unwrap_or_else(|| default.iter().map(|s| (*s).to_string()).collect())
}

/// Does a bare constant name match a pattern? Leading `_` patterns are
/// suffix matches (`_SEED`), all others prefix matches (`MAX_`).
fn name_matches(name: &str, pattern: &str) -> bool {
    if let Some(suffix) = pattern.strip_prefix('_') {
        name.ends_with(&format!("_{suffix}"))
    } else {
        name.starts_with(pattern)
    }
}

/// One definition site of a wire constant.
struct Site<'a> {
    file: &'a str,
    line: usize,
    value: i128,
}

/// `wire-drift` runs across *all* scoped crates at once — drift is by
/// definition a cross-crate property.
pub fn check_wire_drift(files: &[&ParsedFile], config: &Config, out: &mut Vec<Diagnostic>) {
    let const_groups = list(config, "rules.wire-drift.const_groups", DEFAULT_CONST_GROUPS);
    let name_patterns = list(config, "rules.wire-drift.name_patterns", DEFAULT_NAME_PATTERNS);
    let match_groups = list(config, "rules.wire-drift.match_groups", DEFAULT_MATCH_GROUPS);

    // Phase 1: collect every relevant constant, keyed by normalized name.
    let mut sites: std::collections::BTreeMap<String, Vec<Site<'_>>> =
        std::collections::BTreeMap::new();
    // Group → every member name defined anywhere (evaluated or not),
    // for the exhaustiveness check.
    let mut members: std::collections::BTreeMap<String, std::collections::BTreeSet<String>> =
        std::collections::BTreeMap::new();
    for pf in files {
        for c in &pf.model.consts {
            if pf.src.is_test_line(c.line) {
                continue;
            }
            let key = crate::syntax::normalize_path(&c.name);
            let relevant = match key.split_once("::") {
                Some((group, _)) => {
                    if const_groups.iter().any(|g| g == group) {
                        members.entry(group.to_string()).or_default().insert(key.clone());
                        true
                    } else {
                        false
                    }
                }
                None => name_patterns.iter().any(|p| name_matches(&key, p)),
            };
            if !relevant {
                continue;
            }
            if let Some(v) = c.value {
                sites.entry(key).or_default().push(Site { file: &pf.rel, line: c.line, value: v });
            }
        }
    }

    // Phase 2: report each site that disagrees with the first.
    for (name, mut defs) in sites {
        defs.sort_by(|a, b| (a.file, a.line).cmp(&(b.file, b.line)));
        let canonical = &defs[0];
        for d in &defs[1..] {
            if d.value != canonical.value {
                out.push(
                    Diagnostic::new(
                        "wire-drift",
                        Severity::Error,
                        d.file,
                        d.line,
                        1,
                        format!(
                            "wire constant `{name}` is {} here but {} at {}:{}",
                            d.value, canonical.value, canonical.file, canonical.line
                        ),
                    )
                    .with_note(
                        "both sides keep running on drifted constants — frames mis-route \
                         or truncate instead of failing loudly"
                            .to_string(),
                    ),
                );
            }
        }
    }

    // Phase 3: opcode-match exhaustiveness.
    for pf in files {
        for m in &pf.model.matches {
            if pf.src.is_test_line(m.line) {
                continue;
            }
            for group in &match_groups {
                let prefix = format!("{group}::");
                let referenced: std::collections::BTreeSet<&String> =
                    m.pattern_paths.iter().filter(|p| p.starts_with(&prefix)).collect();
                if referenced.len() < 2 {
                    continue;
                }
                let Some(all) = members.get(group) else { continue };
                let missing: Vec<&str> =
                    all.iter().filter(|k| !referenced.contains(k)).map(String::as_str).collect();
                if missing.is_empty() {
                    continue;
                }
                out.push(
                    Diagnostic::new(
                        "wire-drift",
                        Severity::Error,
                        &pf.rel,
                        m.line,
                        1,
                        format!(
                            "match covers {} of {} `{group}::` constants; missing: {}",
                            referenced.len(),
                            all.len(),
                            missing.join(", ")
                        ),
                    )
                    .with_note(
                        "a wildcard arm does not count: for wire opcodes, an unhandled \
                         case must be a compile-visible decision, not a default"
                            .to_string(),
                    ),
                );
            }
        }
    }
}
