//! Two-phase rebalance: move sketches to their new ring owners without
//! ever leaving one unowned.
//!
//! A ring change (group added, removed, or re-weighted) reassigns some
//! names to new owner groups. Because the paper's union (Algorithm 2)
//! is an idempotent, commutative, associative per-register max, *moving*
//! a sketch is just *merging* it somewhere else and deleting the
//! original — and every step of that is safe to crash in and safe to
//! repeat:
//!
//! 1. **Copy.** For every name whose new owner differs from the group
//!    currently holding it, pull the payload from *each* source replica
//!    (replicas may be mid-anti-entropy and hold different register
//!    states; the union over all of them is the sketch) and MERGE it
//!    into *every* destination replica.
//! 2. **Verify.** A destination replica holds the move only when its
//!    stored payload *dominates* each source payload: folding the
//!    source bytes into the destination's decoded sketch and re-encoding
//!    must reproduce the destination's bytes exactly (encoding is
//!    canonical, so domination is byte-testable). Every destination
//!    replica must pass.
//! 3. **Release.** Only then delete the name from each source replica —
//!    and re-check, because the source group's own anti-entropy can
//!    resurrect a name deleted from one replica while it still lives on
//!    another. The release loop deletes until every source replica
//!    agrees the name is gone, bounded by attempts and paced by the
//!    store's backoff schedule.
//!
//! A crash at any point leaves every sketch owned by at least one
//! group: before release completes, the source still holds it; after,
//! the destination provably does. Re-running the whole rebalance is
//! idempotent — copied names re-verify trivially, released names no
//! longer appear in source digests. Duplicated handoffs (the same move
//! replayed concurrently or after a partial run) are absorbed by merge
//! idempotence; the chaos suite replays them on purpose.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::SocketAddr;
use std::time::Duration;

use hmh_core::format;
use hmh_replica::{fetch_digests, SyncError};
use hmh_serve::proto::{Request, Response};
use hmh_serve::{
    typed_response, Client, ClientError, ClientOptions, MAX_PIPELINE_DEPTH, MAX_SYNC_NAMES,
};
use hmh_store::RetryPolicy;

use crate::ring::{Ring, RingError};

/// Rebalance configuration.
#[derive(Debug, Clone)]
pub struct RebalanceOptions {
    /// Connection options for every shard client.
    pub client: ClientOptions,
    /// Attempts per name in the release loop before giving up (each
    /// attempt deletes from every source replica still holding it).
    pub release_attempts: u32,
    /// Pacing between release attempts (the store's jittered backoff
    /// schedule, so concurrent rebalances decorrelate).
    pub pacing: RetryPolicy,
}

impl Default for RebalanceOptions {
    fn default() -> Self {
        let mut pacing = RetryPolicy::default();
        pacing.base_delay = Duration::from_millis(20);
        pacing.max_delay = Duration::from_millis(200);
        Self { client: ClientOptions::default(), release_attempts: 8, pacing }
    }
}

/// What a completed rebalance did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Names whose owner changed and that were found on a source group.
    pub moved: u64,
    /// Copy-verify-release cycles fully completed (the `route_handoffs`
    /// HEALTH counter counts these).
    pub handoffs: u64,
    /// Names that vanished from the source between digest and pull
    /// (deleted concurrently); nothing to move.
    pub vanished: u64,
}

/// Why a rebalance failed. Every failure leaves the cluster in a state
/// the invariant covers (each name owned by ≥ 1 group) and a re-run
/// picks up where the crash left off.
#[derive(Debug)]
pub enum RebalanceError {
    /// The new ring is invalid, or its epoch does not advance the old
    /// one (two configs with the same epoch but different membership is
    /// exactly the split-brain the epoch exists to prevent).
    Ring(String),
    /// Walking a source group's digests failed on every replica.
    Digests {
        /// The group whose digests could not be read.
        group: String,
        /// The last replica's error.
        detail: String,
    },
    /// Transport or server failure mid-copy.
    Client(ClientError),
    /// A source replica violated the sync protocol.
    Protocol(String),
    /// A destination replica failed to dominate the source payload
    /// after the copy (store refused the write, or answered with bytes
    /// that do not contain the source state).
    Verify {
        /// The name that failed verification.
        name: String,
        /// The destination replica.
        replica: SocketAddr,
        /// What went wrong.
        detail: String,
    },
    /// A source replica still held the name after every release
    /// attempt.
    Release {
        /// The name that could not be released.
        name: String,
        /// The replica still holding it.
        replica: SocketAddr,
    },
}

impl fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RebalanceError::Ring(detail) => write!(f, "ring change rejected: {detail}"),
            RebalanceError::Digests { group, detail } => {
                write!(f, "cannot read digests of group {group:?}: {detail}")
            }
            RebalanceError::Client(e) => write!(f, "rebalance exchange failed: {e}"),
            RebalanceError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            RebalanceError::Verify { name, replica, detail } => {
                write!(f, "verify failed for {name:?} on {replica}: {detail}")
            }
            RebalanceError::Release { name, replica } => {
                write!(f, "release failed: {replica} still holds {name:?}")
            }
        }
    }
}

impl std::error::Error for RebalanceError {}

impl From<ClientError> for RebalanceError {
    fn from(e: ClientError) -> Self {
        RebalanceError::Client(e)
    }
}

impl From<SyncError> for RebalanceError {
    fn from(e: SyncError) -> Self {
        match e {
            SyncError::Client(e) => RebalanceError::Client(e),
            SyncError::Protocol(detail) => RebalanceError::Protocol(detail),
        }
    }
}

impl From<RingError> for RebalanceError {
    fn from(e: RingError) -> Self {
        RebalanceError::Ring(e.to_string())
    }
}

/// The moves a ring change implies for one group's stored names: those
/// whose new owner is a different group. Pure — the planning half of
/// the rebalance, separated so the property suite can pin movement
/// bounds without any network.
pub fn plan_moves<'a>(
    new_ring: &Ring,
    source_group_id: &str,
    stored_names: impl IntoIterator<Item = &'a str>,
) -> Vec<(String, usize)> {
    stored_names
        .into_iter()
        .filter_map(|name| {
            let new_owner = new_ring.owner_index(name);
            (new_ring.groups()[new_owner].id != source_group_id)
                .then(|| (name.to_string(), new_owner))
        })
        .collect()
}

/// Rebalance the cluster from `old_ring` to `new_ring`: every name
/// stored on a group that `new_ring` no longer assigns it to is copied
/// to its new owner group, verified, and released. Idempotent — safe to
/// re-run after a crash, a SIGKILL, or a duplicated invocation.
pub fn rebalance(
    old_ring: &Ring,
    new_ring: &Ring,
    opts: &RebalanceOptions,
) -> Result<RebalanceReport, RebalanceError> {
    if new_ring.epoch() <= old_ring.epoch() {
        return Err(RebalanceError::Ring(format!(
            "new epoch {} must advance old epoch {}",
            new_ring.epoch(),
            old_ring.epoch()
        )));
    }
    let mut report = RebalanceReport::default();
    // Walk every group of the *old* ring: those are the places sketches
    // can currently live. A group present in both rings keeps its
    // unmoved names untouched; a group absent from the new ring has all
    // its names moved off.
    for group in old_ring.groups() {
        let moved = group_moves(new_ring, &group.id, &group.replicas, opts)?;
        report.moved = report.moved.saturating_add(moved.len() as u64);
        for (name, new_owner) in moved {
            match handoff(
                &name,
                &group.replicas,
                new_ring.groups()[new_owner].replicas.as_slice(),
                opts,
            )? {
                Handoff::Completed => report.handoffs = report.handoffs.saturating_add(1),
                Handoff::Vanished => report.vanished = report.vanished.saturating_add(1),
            }
        }
    }
    Ok(report)
}

/// Union of one group's stored names (digest walk across every replica
/// that answers), planned against the new ring. At least one replica
/// must answer — a group that is entirely down cannot donate its names,
/// and pretending it holds nothing would *silently skip* moves.
fn group_moves(
    new_ring: &Ring,
    group_id: &str,
    replicas: &[SocketAddr],
    opts: &RebalanceOptions,
) -> Result<Vec<(String, usize)>, RebalanceError> {
    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut answered = false;
    let mut last_error = String::new();
    for &addr in replicas {
        let mut client = Client::with_options(addr, opts.client.clone());
        match fetch_digests(&mut client) {
            Ok(digests) => {
                answered = true;
                names.extend(digests.into_keys());
            }
            Err(e) => last_error = e.to_string(),
        }
    }
    if !answered {
        return Err(RebalanceError::Digests { group: group_id.to_string(), detail: last_error });
    }
    Ok(plan_moves(new_ring, group_id, names.iter().map(String::as_str)))
}

enum Handoff {
    Completed,
    Vanished,
}

/// One copy-verify-release cycle for one name.
fn handoff(
    name: &str,
    src_replicas: &[SocketAddr],
    dst_replicas: &[SocketAddr],
    opts: &RebalanceOptions,
) -> Result<Handoff, RebalanceError> {
    // -- Copy: pull the payload from every source replica that has it.
    let src_payloads = source_payloads(name, src_replicas, opts)?;
    if src_payloads.is_empty() {
        return Ok(Handoff::Vanished);
    }
    // All source payloads stream to each destination as pipelined MERGE
    // batches: one vectored write and one reply drain per window instead
    // of a round trip per source replica. Safe to replay on failure —
    // merge folds into a max-register lattice.
    let merges: Vec<Request> = src_payloads
        .values()
        .map(|payload| Request::Merge { name: name.to_string(), sketch: payload.clone() })
        .collect();
    for &dst in dst_replicas {
        let mut client = Client::with_options(dst, opts.client.clone());
        for window in merges.chunks(MAX_PIPELINE_DEPTH) {
            for reply in client.pipeline(window)? {
                match typed_response(reply)? {
                    Response::Ok => {}
                    other => {
                        return Err(RebalanceError::Client(ClientError::BadReply(format!(
                            "unexpected MERGE reply during handoff of {name:?}: {other:?}"
                        ))))
                    }
                }
            }
        }
    }

    // -- Verify: every destination replica's stored bytes must dominate
    // every source payload before anything is deleted.
    for &dst in dst_replicas {
        let mut client = Client::with_options(dst, opts.client.clone());
        let stored = client.get_raw(name)?;
        verify_dominates(name, dst, &stored, src_payloads.values())?;
    }

    // -- Release: delete from each source replica, then re-check; the
    // group's anti-entropy may resurrect the name from a replica we had
    // not deleted yet, so loop (bounded, paced) until all agree.
    let mut pacing = opts.pacing.clone();
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let mut survivors = Vec::new();
        for &src in src_replicas {
            let mut client = Client::with_options(src, opts.client.clone());
            match client.delete(name) {
                Ok(()) | Err(ClientError::NotFound(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        for &src in src_replicas {
            let mut client = Client::with_options(src, opts.client.clone());
            match client.get_raw(name) {
                Ok(_) => survivors.push(src),
                Err(ClientError::NotFound(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        if survivors.is_empty() {
            return Ok(Handoff::Completed);
        }
        if attempt >= opts.release_attempts.max(1) {
            return Err(RebalanceError::Release { name: name.to_string(), replica: survivors[0] });
        }
        std::thread::sleep(pacing.backoff_delay(attempt));
    }
}

/// Encoded payloads for `name` from every source replica that holds it,
/// keyed by replica address. A replica that answers NOT_FOUND simply
/// contributes nothing; a transport failure is an error — skipping an
/// unreachable source replica could release a register state that was
/// never copied.
fn source_payloads(
    name: &str,
    src_replicas: &[SocketAddr],
    opts: &RebalanceOptions,
) -> Result<BTreeMap<SocketAddr, Vec<u8>>, RebalanceError> {
    let mut payloads = BTreeMap::new();
    for &src in src_replicas {
        let mut client = Client::with_options(src, opts.client.clone());
        // SYNC answers an empty payload for a vanished name, which is
        // exactly the "contributes nothing" case.
        let entries = client.sync(&[name.to_string()])?;
        match entries.as_slice() {
            [] => {
                return Err(RebalanceError::Protocol(
                    "empty SYNC reply to a one-name request".into(),
                ))
            }
            [entry] if entry.name == name => {
                if !entry.payload.is_empty() {
                    payloads.insert(src, entry.payload.clone());
                }
            }
            _ => {
                return Err(RebalanceError::Protocol(format!(
                    "SYNC reply does not match the one-name request for {name:?}"
                )))
            }
        }
    }
    Ok(payloads)
}

/// `stored` dominates `payload` iff folding `payload` into the decoded
/// `stored` sketch and re-encoding reproduces `stored` byte-for-byte
/// (encoding is canonical, registers are a max-lattice: absorbing an
/// already-dominated state is the identity).
fn verify_dominates<'a>(
    name: &str,
    replica: SocketAddr,
    stored: &[u8],
    payloads: impl Iterator<Item = &'a Vec<u8>>,
) -> Result<(), RebalanceError> {
    let verify_err =
        |detail: String| RebalanceError::Verify { name: name.to_string(), replica, detail };
    let decoded = format::decode(stored).map_err(|e| verify_err(format!("stored bytes: {e}")))?;
    for payload in payloads {
        let source =
            format::decode(payload).map_err(|e| verify_err(format!("source bytes: {e}")))?;
        let mut folded = decoded.clone();
        folded.merge(&source).map_err(|e| verify_err(format!("incompatible: {e}")))?;
        if format::encode(&folded) != stored {
            return Err(verify_err("destination does not dominate the source payload".into()));
        }
    }
    Ok(())
}

/// `MAX_SYNC_NAMES` is re-exported so drill scripts computing chunk
/// sizes agree with the engine.
pub const SYNC_CHUNK: usize = MAX_SYNC_NAMES;
