//! `unbounded-net-loop`: every loop that talks to the network must show
//! its bound.
//!
//! The replication engine, the router's dial paths, and the failover
//! client all retry; PRs 4–6 repeatedly found the same bug shape — a
//! `loop` around a dial or frame read whose exit condition lived only
//! in the author's head. The rule makes the bound a syntactic
//! obligation:
//!
//! * **suspect loops**: `loop { … }`, `while let … { … }`, and any
//!   `while` whose condition contains no comparison operator (a
//!   comparison-headed `while next < names.len()` visibly marches
//!   toward a bound; `while !done.load()` does not). `for` loops are
//!   exempt — they consume a finite iterator by construction.
//! * **network content**: the loop body (header line through closing
//!   brace) contains a call whose *name* is in the configured
//!   `net_calls` list (dials, frame I/O, replication RPCs). Name-level
//!   matching keeps `sync_with_peer` from matching `sync`.
//! * **visible bound**: the same region mentions one of the configured
//!   `bound_tokens` (attempt counters, budgets, backoff pacers,
//!   shutdown flags, pagination cursors) as a whole word, or any
//!   `ALL_CAPS` identifier containing `MAX`/`CAP`/`LIMIT`.
//!
//! A loop that is genuinely bounded by something the rule cannot see
//! (e.g. a per-connection frame loop bounded by socket deadlines and
//! EOF) carries an inline suppression whose reason states that bound —
//! which is exactly the documentation the next reader needs.

use crate::config::Config;
use crate::diag::{Diagnostic, Severity};
use crate::rules::contains_word;
use crate::syntax::{LoopKind, ParsedFile};

const DEFAULT_NET_CALLS: &[&str] =
    &["connect", "connect_timeout", "accept", "write_frame", "read_frame"];
const DEFAULT_BOUND_TOKENS: &[&str] =
    &["attempt", "attempts", "retry", "retries", "budget", "backoff", "deadline", "shutdown"];

fn list(config: &Config, key: &str, default: &[&str]) -> Vec<String> {
    config
        .get_list(key)
        .map(<[String]>::to_vec)
        .unwrap_or_else(|| default.iter().map(|s| (*s).to_string()).collect())
}

/// Does this `ALL_CAPS` identifier look like a capacity constant?
fn caps_bound_ident(word: &str) -> bool {
    word.len() > 1
        && word.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        && ["MAX", "CAP", "LIMIT"].iter().any(|m| word.contains(m))
}

pub fn check_unbounded_net_loop(files: &[&ParsedFile], config: &Config, out: &mut Vec<Diagnostic>) {
    let net_calls = list(config, "rules.unbounded-net-loop.net_calls", DEFAULT_NET_CALLS);
    let bound_tokens = list(config, "rules.unbounded-net-loop.bound_tokens", DEFAULT_BOUND_TOKENS);
    for pf in files {
        for f in &pf.model.fns {
            if pf.src.is_test_line(f.start_line) {
                continue;
            }
            for lp in &f.loops {
                let suspect = match lp.kind {
                    LoopKind::Loop | LoopKind::WhileLet => true,
                    LoopKind::While => !lp.cond_has_comparison,
                    LoopKind::For => false,
                };
                if !suspect {
                    continue;
                }
                let in_region = |line: usize| line >= lp.header_line && line <= lp.end_line;
                let Some(net) =
                    f.calls.iter().find(|c| in_region(c.line) && net_calls.contains(&c.callee))
                else {
                    continue;
                };
                let bounded = (lp.header_line..=lp.end_line).any(|n| {
                    let line = pf.src.line(n);
                    bound_tokens.iter().any(|t| contains_word(line, t))
                        || crate::rules::idents_in(line).iter().any(|w| caps_bound_ident(w))
                });
                if bounded {
                    continue;
                }
                out.push(
                    Diagnostic::new(
                        "unbounded-net-loop",
                        Severity::Error,
                        &pf.rel,
                        lp.header_line,
                        1,
                        format!(
                            "network loop calls `{}` (line {}) with no visible bound in \
                             its condition or body",
                            net.callee, net.line
                        ),
                    )
                    .with_note(
                        "reference an attempt counter, budget, backoff pacer or shutdown \
                         flag in the loop — or suppress with the bound written out"
                            .to_string(),
                    ),
                );
            }
        }
    }
}
