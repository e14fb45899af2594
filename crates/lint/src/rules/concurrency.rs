//! Lock-discipline rules: `lock-order` and `blocking-under-lock`.
//!
//! Both operate on the per-function models from [`crate::syntax`],
//! crate-wide (a lock-order inversion is by nature a property of two
//! call sites that may live in different files).
//!
//! ## The guard-region model
//!
//! An acquisition is either **bound** (`let queue = shared.queue();`) —
//! its guard lives from the acquire line to the end of the enclosing
//! block, truncated at an explicit `drop(queue)` — or a **temporary**
//! (`shared.queue().len()`, or a bare statement call), which lives for
//! its own line only. This is deliberately lexical: `std::sync` guards
//! drop at end of scope, and this workspace's code style (enforced by
//! these very rules) releases early via `drop(...)`, never by moving
//! guards across functions.
//!
//! ## Lock identity
//!
//! A lock is named by the field the guard comes from. Two forms are
//! resolved:
//!
//! * **direct**: `self.queue.lock()` / `self.trackers[g].lock()` — the
//!   receiver field (`queue`, `trackers`) names the lock;
//! * **via helper**: any same-crate function whose return type mentions
//!   `MutexGuard`/`RwLockReadGuard`/`RwLockWriteGuard` and whose body
//!   contains a direct acquisition maps its *name* to that lock, so
//!   `shared.store()` in `serve` and the free `lock(&shared)` helper in
//!   `ingest` resolve to `store` and `state` respectively.
//!
//! Names are compared per crate. That is the right granularity here:
//! each networked crate has its own `Shared` struct, and a `queue` in
//! `serve` never interacts with a `queue` in `route`.

use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::syntax::{CallSite, FnModel, ParsedFile};

/// Methods that acquire a std guard directly off a lock field.
const DIRECT_ACQUIRES: &[&str] = &["lock"];
/// Methods accepted as the acquisition inside a guard-returning helper
/// (here `read`/`write` are safe to include: the return type already
/// proved a guard is produced).
const HELPER_ACQUIRES: &[&str] = &["lock", "read", "write"];
/// Return types that mark a function as a guard-returning helper.
const GUARD_TYPES: &[&str] = &["MutexGuard", "RwLockReadGuard", "RwLockWriteGuard"];

/// A resolved lock acquisition with its lexical live region.
struct Acquire {
    lock: String,
    line: usize,
    /// First line past the guard's life: `drop(var)` line if one
    /// follows in the same function, else one past the enclosing
    /// block's closing line.
    until: usize,
}

impl Acquire {
    fn covers(&self, line: usize) -> bool {
        line > self.line && line < self.until
    }
}

/// Map helper-function name → lock name, across the crate's files.
fn guard_helpers(files: &[&ParsedFile]) -> std::collections::BTreeMap<String, String> {
    let mut out = std::collections::BTreeMap::new();
    for pf in files {
        for f in &pf.model.fns {
            if !GUARD_TYPES.iter().any(|g| f.ret_type.contains(g)) {
                continue;
            }
            let direct = f
                .calls
                .iter()
                .find(|c| HELPER_ACQUIRES.contains(&c.callee.as_str()) && c.receiver.is_some());
            if let Some(c) = direct {
                out.insert(f.name.clone(), c.receiver.clone().unwrap_or_default());
            }
        }
    }
    out
}

/// Resolve one call site to the lock it acquires, if any.
fn resolve_lock(
    c: &CallSite,
    helpers: &std::collections::BTreeMap<String, String>,
) -> Option<String> {
    if DIRECT_ACQUIRES.contains(&c.callee.as_str()) {
        if let Some(r) = &c.receiver {
            return Some(r.clone());
        }
        // Receiver-less `lock(...)`: a free helper (ingest style).
        return helpers.get(&c.callee).cloned();
    }
    helpers.get(&c.callee).cloned()
}

/// All acquisitions in one function, with live regions.
fn acquires_in(f: &FnModel, helpers: &std::collections::BTreeMap<String, String>) -> Vec<Acquire> {
    let mut out = Vec::new();
    for c in &f.calls {
        let Some(lock) = resolve_lock(c, helpers) else { continue };
        let until = match &c.bound_var {
            Some(var) if !c.chained => {
                let dropped = f
                    .drops
                    .iter()
                    .filter(|d| &d.var == var && d.line >= c.line)
                    .map(|d| d.line)
                    .min();
                dropped.unwrap_or(c.scope_end + 1)
            }
            // Temporaries (statement calls, chained `…lock().x()`)
            // live for their own line only.
            _ => c.line + 1,
        };
        out.push(Acquire { lock, line: c.line, until });
    }
    out
}

/// Should this function's findings be reported? Test-only code is out
/// of scope for every rule.
fn in_scope(pf: &ParsedFile, f: &FnModel) -> bool {
    !pf.src.is_test_line(f.start_line)
}

/// `lock-order`: build the crate's lock-acquisition graph and report
/// self-reacquisition and cycles (a 2-cycle is an inconsistent
/// acquisition order between two call sites; either shape deadlocks
/// once the two paths run concurrently).
pub fn check_lock_order(files: &[&ParsedFile], _config: &Config, out: &mut Vec<Diagnostic>) {
    let helpers = guard_helpers(files);
    // Edge (held → acquired) → first evidence site.
    let mut edges: std::collections::BTreeMap<(String, String), (String, usize)> =
        std::collections::BTreeMap::new();
    for pf in files {
        for f in &pf.model.fns {
            if !in_scope(pf, f) {
                continue;
            }
            let acqs = acquires_in(f, &helpers);
            for held in &acqs {
                for inner in &acqs {
                    if !held.covers(inner.line) {
                        continue;
                    }
                    if held.lock == inner.lock {
                        out.push(
                            Diagnostic::new(
                                "lock-order",
                                Severity::Error,
                                &pf.rel,
                                inner.line,
                                1,
                                format!(
                                    "lock `{}` re-acquired while its guard from line {} is \
                                     still live",
                                    inner.lock, held.line
                                ),
                            )
                            .with_note(
                                "std::sync::Mutex is not reentrant — this deadlocks on the \
                                 spot; drop the first guard before re-acquiring"
                                    .to_string(),
                            ),
                        );
                        continue;
                    }
                    edges
                        .entry((held.lock.clone(), inner.lock.clone()))
                        .or_insert_with(|| (pf.rel.to_string(), inner.line));
                }
            }
        }
    }
    // Cycle detection over the (small) graph: DFS from each node in
    // sorted order; canonicalized cycles report once.
    let nodes: std::collections::BTreeSet<&String> =
        edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let mut reported: std::collections::BTreeSet<Vec<String>> = std::collections::BTreeSet::new();
    for start in &nodes {
        let mut path: Vec<&String> = vec![start];
        dfs_cycles(start, &edges, &mut path, &mut reported, out);
    }
}

fn dfs_cycles<'a>(
    node: &'a String,
    edges: &'a std::collections::BTreeMap<(String, String), (String, usize)>,
    path: &mut Vec<&'a String>,
    reported: &mut std::collections::BTreeSet<Vec<String>>,
    out: &mut Vec<Diagnostic>,
) {
    let nexts: Vec<&(String, String)> = edges.keys().filter(|(a, _)| a == node).collect();
    for key in nexts {
        let to = &key.1;
        if let Some(at) = path.iter().position(|n| *n == to) {
            // Cycle: path[at..] + back-edge. Canonical form rotates the
            // smallest lock name to the front so each cycle reports once.
            let cycle: Vec<String> = path[at..].iter().map(|s| (*s).to_string()).collect();
            let min_at =
                cycle.iter().enumerate().min_by_key(|(_, s)| s.as_str()).map_or(0, |(i, _)| i);
            let mut canon = cycle.clone();
            canon.rotate_left(min_at);
            if reported.insert(canon.clone()) {
                let (file, line) = &edges[key];
                let shown: Vec<&str> = canon.iter().map(String::as_str).collect();
                let msg = if canon.len() == 2 {
                    format!(
                        "inconsistent lock acquisition order: `{}` and `{}` are taken in \
                         both orders in this crate",
                        shown[0], shown[1]
                    )
                } else {
                    format!("lock acquisition cycle: {} → {}", shown.join(" → "), shown[0])
                };
                out.push(
                    Diagnostic::new("lock-order", Severity::Error, file, *line, 1, msg).with_note(
                        "pick one global order for these locks and release before \
                         acquiring against it"
                            .to_string(),
                    ),
                );
            }
            continue;
        }
        path.push(to);
        dfs_cycles(to, edges, path, reported, out);
        path.pop();
    }
}

/// `blocking-under-lock`: a configured blocking call reached while a
/// guard is lexically live.
pub fn check_blocking_under_lock(
    files: &[&ParsedFile],
    config: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let blocking: Vec<String> = config
        .get_list("rules.blocking-under-lock.blocking_calls")
        .map(<[String]>::to_vec)
        .unwrap_or_else(|| {
            ["sleep", "join", "recv", "recv_timeout", "connect", "accept"]
                .iter()
                .map(|s| (*s).to_string())
                .collect()
        });
    let helpers = guard_helpers(files);
    for pf in files {
        for f in &pf.model.fns {
            if !in_scope(pf, f) {
                continue;
            }
            let acqs = acquires_in(f, &helpers);
            for c in &f.calls {
                if !blocking.contains(&c.callee) {
                    continue;
                }
                let Some(held) = acqs.iter().find(|a| a.covers(c.line)) else { continue };
                out.push(
                    Diagnostic::new(
                        "blocking-under-lock",
                        Severity::Error,
                        &pf.rel,
                        c.line,
                        1,
                        format!(
                            "`{}` called while the `{}` guard from line {} is live",
                            c.callee, held.lock, held.line
                        ),
                    )
                    .with_note(
                        "every thread that wants this lock now waits on the blocked call \
                         too — drop the guard first (`drop(...)`) or move the call out of \
                         the region"
                            .to_string(),
                    ),
                );
            }
        }
    }
}
