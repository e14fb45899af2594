//! The `hmh-serve` daemon: the store behind the shared connection front
//! end ([`crate::front`]), which owns backpressure, deadlines,
//! pipelining and drain.
//!
//! Failure behavior is the design, not an afterthought:
//!
//! * **Typed errors, never panics.** Malformed frames get a typed ERR
//!   response and a closed connection; the request handlers return
//!   [`Response`] values for every input.
//! * **Graceful degradation.** A store write failure trips the service
//!   into read-only mode: reads keep serving, writes get READ_ONLY, and
//!   HEALTH says exactly what state the service is in. A later
//!   successful open can only happen by restart — degradation is sticky
//!   because a store that failed a write is suspect until an operator
//!   (or the restart fsck) looks at it.
//! * **Drain, then exit.** Shutdown (the SHUTDOWN op, or
//!   [`ServerHandle::shutdown`]) stops accepting, lets workers finish
//!   every already-queued connection, then joins the workers and the
//!   background scrub. The store lock is held for the daemon's
//!   lifetime, so a stray CLI cannot corrupt the log behind its back; a
//!   SIGKILL at any byte is recovered by the store's salvage scan on the
//!   next open.

use std::net::{SocketAddr, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use hmh_core::format::{self, FormatError};
use hmh_core::jaccard::jaccard_with_cardinalities;
use hmh_core::{CollisionCorrection, HmhParams, HyperMinHash};
use hmh_hash::RandomOracle;
use hmh_store::{
    FileBackend, RetryPolicy, SketchStore, StoreError, StoreOptions, SCRUB_SLICE_BYTES,
};

use crate::front::{self, Disposition, FrontEnd, FrontHandle, FrontOptions, Handler, POLL_TICK};
use crate::proto::{
    DigestEntry, ErrCode, Health, PeerHealth, Request, Response, ScrubReport, SyncEntry,
    MAX_DIGEST_ENTRIES, MAX_FRAME_LEN, MAX_LIST_NAMES, MAX_SCRUB_PAGE, MAX_SYNC_NAMES,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Connection front-end settings: workers, queue depth, deadlines,
    /// frame cap.
    pub front: FrontOptions,
    /// Pacing interval between background scrub slices. Actual pacing is
    /// jittered up to +50% through the store's backoff schedule (the
    /// same pacer anti-entropy uses) so co-located daemons decorrelate.
    /// `Duration::ZERO` disables the background scrub thread entirely.
    pub scrub_interval: Duration,
    /// Committed log bytes one background scrub slice re-verifies under
    /// the store lock; bounds how long a slice can block writers.
    pub scrub_slice: usize,
    /// Store options for the underlying [`SketchStore`].
    pub store: StoreOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            front: FrontOptions::default(),
            scrub_interval: Duration::from_secs(1),
            scrub_slice: SCRUB_SLICE_BYTES,
            store: StoreOptions::default(),
        }
    }
}

/// Why the daemon could not start.
#[derive(Debug)]
pub enum ServeError {
    /// The store could not be opened (I/O, or another process holds the
    /// lock).
    Store(StoreError),
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "cannot open store: {e}"),
            ServeError::Io(e) => write!(f, "cannot start server: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Store(e) => Some(e),
            ServeError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Replication state published by an anti-entropy engine and read by the
/// daemon's HEALTH handler. The daemon owns one of these whether or not
/// replication is running: with no engine attached it reports zero
/// rounds and no peers, which is exactly the truth.
///
/// Lives in `hmh-serve` (not the replica crate) so the dependency points
/// one way: the engine depends on the server, publishes here; the server
/// never needs to know the engine exists.
#[derive(Debug, Default)]
pub struct ReplicationStatus {
    inner: Mutex<(u64, Vec<PeerHealth>)>,
    /// Peer syncs the engine skipped because the shared retry budget was
    /// too drained for background traffic — repair yielding to
    /// foreground load, surfaced as HEALTH `retry_exhausted`.
    yields: AtomicU64,
}

impl ReplicationStatus {
    /// Publish the state after an anti-entropy round: the number of
    /// completed rounds and the current per-peer health.
    pub fn publish(&self, rounds: u64, peers: Vec<PeerHealth>) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = (rounds, peers);
    }

    /// Snapshot `(rounds, peers)` for a HEALTH response.
    pub fn snapshot(&self) -> (u64, Vec<PeerHealth>) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// Record one peer sync skipped for budget reasons.
    pub fn record_yield(&self) {
        self.yields.fetch_add(1, Ordering::Relaxed);
    }

    /// Peer syncs skipped for budget reasons since start.
    pub fn yields(&self) -> u64 {
        self.yields.load(Ordering::Relaxed)
    }
}

struct Shared {
    store: Mutex<SketchStore<FileBackend>>,
    front: Arc<FrontEnd>,
    read_only: AtomicBool,
    replication: Arc<ReplicationStatus>,
    opts: ServeOptions,
}

impl Shared {
    /// The store, recovering from a poisoned mutex: handlers never panic
    /// by design, but a poisoned lock must degrade, not cascade.
    fn store(&self) -> MutexGuard<'_, SketchStore<FileBackend>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running daemon. Dropping the handle signals shutdown (without
/// waiting); call [`ServerHandle::join`] for an orderly drain-then-exit.
pub struct ServerHandle {
    front: FrontHandle,
    replication: Arc<ReplicationStatus>,
}

impl ServerHandle {
    /// The address actually bound (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Signal shutdown without waiting: stop accepting, let workers
    /// drain the queue.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }

    /// Signal shutdown and wait for the accept loop, every worker and
    /// the background scrub to finish draining.
    pub fn join(self) {
        self.front.join();
    }

    /// True once every thread has exited (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.front.is_finished()
    }

    /// The replication status slot this daemon reports in HEALTH. An
    /// anti-entropy engine clones the `Arc` and publishes into it; with
    /// no engine attached the slot stays at its zero state.
    pub fn replication(&self) -> Arc<ReplicationStatus> {
        Arc::clone(&self.replication)
    }
}

/// Start the daemon: open (and lock) the store at `dir`, bind `addr`,
/// spawn the front end and the background scrub.
pub fn serve(
    dir: impl Into<PathBuf>,
    addr: impl ToSocketAddrs,
    opts: ServeOptions,
) -> Result<ServerHandle, ServeError> {
    let store = SketchStore::open_opts(dir, opts.store.clone()).map_err(ServeError::Store)?;
    let (mut front, shared) =
        front::start(addr, opts.front.clone(), "hmh-serve", |front| Shared {
            store: Mutex::new(store),
            front,
            read_only: AtomicBool::new(false),
            replication: Arc::default(),
            opts,
        })?;
    let replication = Arc::clone(&shared.replication);
    if shared.opts.scrub_interval > Duration::ZERO {
        front.spawn("hmh-serve-scrub".into(), move || scrub_loop(&shared))?;
    }
    Ok(ServerHandle { front, replication })
}

/// The background scrub: one bounded slice of checksum re-verification
/// per paced tick. Pacing reuses the store's jittered backoff schedule
/// with base = cap = the configured interval — exactly how the
/// anti-entropy engine paces rounds — so each sleep lands in
/// interval..1.5×interval and co-located daemons decorrelate. The sleep
/// happens *outside* the store lock, in poll-tick pieces that re-check
/// shutdown; only the slice itself runs under the lock, so the scrub
/// never blocks writers longer than one bounded slice and never delays
/// drain-then-exit by more than a tick.
fn scrub_loop(shared: &Shared) {
    let interval = shared.opts.scrub_interval;
    let mut pacing = RetryPolicy::default().with_jitter_seed(0x5343_5255_4250_4143); // "SCRUBPAC"
    pacing.base_delay = interval;
    pacing.max_delay = interval;
    while !shared.front.is_shutdown() {
        sleep_sliced(pacing.backoff_delay(1), shared);
        if shared.front.is_shutdown() {
            return;
        }
        // A store that failed a write is suspect: scrub repair writes
        // (compaction), so a read-only daemon skips slices and leaves
        // the evidence on disk for the operator restart.
        if shared.read_only.load(Ordering::SeqCst) {
            continue;
        }
        let result = shared.store().scrub_slice(shared.opts.scrub_slice);
        if let Err(StoreError::Io(_)) = result {
            // The scrub could not make a repair durable: same sticky
            // degradation as a failed client write.
            shared.read_only.store(true, Ordering::SeqCst);
        }
    }
}

/// Sleep for `total` in poll-tick pieces, re-checking the shutdown flag
/// so drain is never blocked behind a full scrub interval.
fn sleep_sliced(total: Duration, shared: &Shared) {
    let mut remaining = total;
    while remaining > Duration::ZERO && !shared.front.is_shutdown() {
        let slice = remaining.min(POLL_TICK);
        thread::sleep(slice);
        remaining = remaining.saturating_sub(slice);
    }
}

impl Handler for Shared {
    type Worker = ();

    fn worker(&self) {}

    fn handle(&self, (): &mut (), request: Request, _: Option<Instant>) -> (Response, Disposition) {
        let resp = match request {
            Request::Put { name, sketch } => write_op(self, &name, sketch, false),
            Request::Merge { name, sketch } => write_op(self, &name, sketch, true),
            Request::BatchPut { name, p, q, r, algorithm, seed, items } => {
                batch_put(self, &name, (p, q, r), algorithm, seed, &items)
            }
            Request::Get { name } => {
                let store = self.store();
                match store.get_encoded(&name) {
                    Some(bytes) => Response::Sketch(bytes.to_vec()),
                    None => absent(&store, &name),
                }
            }
            Request::Card { name } => {
                let mut store = self.store();
                match store.get_estimated(&name) {
                    Some(Ok((estimate, _))) => Response::Value(estimate),
                    Some(Err(e)) => bad_sketch(e),
                    None => absent(&store, &name),
                }
            }
            Request::Jaccard { a, b } => jaccard_op(self, &a, &b),
            Request::ListPage { after } => {
                // A single daemon always answers its whole page; `partial`
                // is a router-side marker for missing shards.
                let names = self.store().names_page(&after, MAX_LIST_NAMES);
                Response::NamesPage { names, partial: false }
            }
            Request::Delete { name } => delete_op(self, &name),
            Request::Health => Response::Health(health_snapshot(self)),
            Request::Digest { after } => {
                Response::Digests(digest_page(&self.store(), &after, MAX_DIGEST_ENTRIES))
            }
            Request::Sync { names } => sync_page(self, &names),
            Request::Scrub { trigger, after } => scrub_op(self, trigger, &after),
            Request::Shutdown => return (Response::Ok, Disposition::Shutdown),
        };
        (resp, Disposition::KeepAlive)
    }
}

fn digest_page(store: &SketchStore<FileBackend>, after: &str, limit: usize) -> Vec<DigestEntry> {
    store
        .digest_page(after, limit)
        .into_iter()
        .map(|(name, checksum)| DigestEntry { name, checksum })
        .collect()
}

/// SYNC: answer the longest *prefix* of the requested names whose encoded
/// response fits the frame budget; the peer re-requests the remainder
/// starting at the first name it did not receive. A name that vanished
/// between DIGEST and SYNC comes back with an empty payload — an explicit
/// "gone" the peer can distinguish from "cut off by the budget". Both
/// DIGEST and SYNC are reads: they keep serving in read-only mode, so a
/// degraded replica still donates its acknowledged state to the cluster.
fn sync_page(shared: &Shared, names: &[String]) -> Response {
    // Response overhead: status byte + u16 entry count; per entry:
    // u16 name length + name + u32 payload length + payload.
    let budget = shared.opts.front.max_frame.min(MAX_FRAME_LEN);
    let mut used = 3usize;
    let mut entries = Vec::new();
    let store = shared.store();
    for name in names.iter().take(MAX_SYNC_NAMES) {
        let payload = store.get_encoded(name).map(<[u8]>::to_vec).unwrap_or_default();
        let cost = 2 + name.len() + 4 + payload.len();
        // Always answer at least one entry, or an over-budget first
        // sketch would make the peer spin on an empty reply forever.
        if !entries.is_empty() && used + cost > budget {
            break;
        }
        used += cost;
        entries.push(SyncEntry { name: name.clone(), payload });
    }
    Response::Sketches(entries)
}

/// The reply for a read of a name with no stored payload. A fenced name
/// is typed, never a torn payload and never a silent NOT_FOUND that
/// would let a caller conclude the data never existed.
fn absent(store: &SketchStore<FileBackend>, name: &str) -> Response {
    if store.is_quarantined(name) {
        quarantined(name)
    } else {
        not_found(name)
    }
}

fn bad_sketch(e: impl std::fmt::Display) -> Response {
    Response::Err { code: ErrCode::BadSketch, message: e.to_string() }
}

fn not_found(name: &str) -> Response {
    Response::Err { code: ErrCode::NotFound, message: format!("no sketch named {name:?}") }
}

fn quarantined(name: &str) -> Response {
    Response::Err {
        code: ErrCode::CorruptQuarantined,
        message: format!(
            "sketch {name:?} is quarantined: its stored bytes failed the checksum scrub and \
             no valid copy survives here; read-repair or a fresh write releases it"
        ),
    }
}

/// SCRUB: optionally run one full pass, then report lifetime counters
/// plus one page of quarantined names. Triggering can write (findings
/// are repaired by compaction), so it respects read-only degradation
/// like every other write; the status form is a pure read and always
/// answers — a degraded replica must still be able to enumerate its
/// fence for read-repair.
fn scrub_op(shared: &Shared, trigger: bool, after: &str) -> Response {
    let mut store = shared.store();
    if trigger {
        if shared.read_only.load(Ordering::SeqCst) {
            return Response::ReadOnly;
        }
        if let Err(e) = store.scrub_full(shared.opts.scrub_slice) {
            drop(store);
            return commit_result(shared, Err(e));
        }
    }
    let stats = store.scrub_stats();
    Response::Scrub(ScrubReport {
        rounds: stats.rounds,
        records: stats.records,
        corrupt_found: stats.corrupt_found,
        repaired: stats.repaired,
        quarantined: store.quarantined_count() as u64,
        last_scrub_age_ms: store.last_scrub_age_ms().unwrap_or(u64::MAX),
        names: store.quarantined_page(after, MAX_SCRUB_PAGE),
    })
}

/// JACCARD: decode both sketches under one store-lock hold and take
/// their cached estimates for Algorithm 4's collision correction, then
/// run the bucket loop after the lock is released.
fn jaccard_op(shared: &Shared, a: &str, b: &str) -> Response {
    let mut store = shared.store();
    let mut read = |name: &str| {
        store.get_estimated(name).map(|read| {
            let (estimate, payload) = read?;
            Ok::<_, FormatError>((format::decode(payload)?, estimate))
        })
    };
    let sides = (read(a), read(b));
    let ((sa, ca), (sb, cb)) = match sides {
        (Some(Ok(sa)), Some(Ok(sb))) => (sa, sb),
        (None, _) => return absent(&store, a),
        (Some(Err(e)), _) | (_, Some(Err(e))) => return bad_sketch(e),
        (_, None) => return absent(&store, b),
    };
    drop(store);
    match jaccard_with_cardinalities(&sa, &sb, CollisionCorrection::Approx, (ca, cb)) {
        Ok(j) => Response::Value(j.estimate),
        Err(e) => Response::Err { code: ErrCode::Incompatible, message: e.to_string() },
    }
}

/// PUT and MERGE: validate before touching the store, refuse in
/// read-only mode, and trip read-only degradation on a store I/O error.
fn write_op(shared: &Shared, name: &str, payload: Vec<u8>, merge: bool) -> Response {
    if shared.read_only.load(Ordering::SeqCst) {
        return Response::ReadOnly;
    }
    // Decode up front: hostile payloads are a protocol error, not a
    // store error, and must not consume a write.
    let incoming = match format::decode(&payload) {
        Ok(sketch) => sketch,
        Err(e) => return bad_sketch(e),
    };
    if merge {
        return fold(shared, name, &incoming, Some(&payload));
    }
    let result = shared.store().put_encoded(name, &payload);
    commit_result(shared, result)
}

/// BATCH_PUT: ingest a frame of raw items into the named sketch, creating
/// it with the requested configuration if absent. The items are hashed
/// into a fresh operand with no lock held, then folded in exactly as a
/// MERGE of that operand: register max is associative, commutative and
/// idempotent (Algorithm 2), so the stored bytes equal inserting the
/// items into the stored sketch.
fn batch_put(
    shared: &Shared,
    name: &str,
    (p, q, r): (u8, u8, u8),
    algorithm: u8,
    seed: u64,
    items: &[Vec<u8>],
) -> Response {
    if shared.read_only.load(Ordering::SeqCst) {
        return Response::ReadOnly;
    }
    // Validate the sketch configuration up front: a hostile configuration
    // is a protocol-level error and must not consume a write.
    let params = match HmhParams::new(u32::from(p), u32::from(q), u32::from(r)) {
        Ok(params) => params,
        Err(e) => return bad_sketch(e),
    };
    let algorithm = match format::algorithm_from_byte(algorithm) {
        Ok(alg) => alg,
        Err(e) => return bad_sketch(e),
    };
    let mut operand = HyperMinHash::with_oracle(params, RandomOracle::new(algorithm, seed));
    let slices: Vec<&[u8]> = items.iter().map(Vec::as_slice).collect();
    operand.insert_batch(&slices);
    fold(shared, name, &operand, None)
}

/// The one write fold behind MERGE and BATCH_PUT: under a single store
/// lock hold, take the register-wise max of the stored sketch and
/// `incoming`, or store `incoming` when `name` is absent. `wire` is the
/// client's already-validated encoding of `incoming`, stored unchanged
/// on create; without it the operand is encoded. A stored sketch with
/// other params or another oracle is refused typed INCOMPATIBLE and
/// left untouched.
fn fold(shared: &Shared, name: &str, incoming: &HyperMinHash, wire: Option<&[u8]>) -> Response {
    let mut store = shared.store();
    let result = match store.get_encoded(name).map(format::decode) {
        Some(Ok(mut existing)) => match existing.merge(incoming) {
            Ok(()) => store.put(name, &existing),
            Err(e) => {
                return Response::Err { code: ErrCode::Incompatible, message: e.to_string() };
            }
        },
        None => match wire {
            Some(payload) => store.put_encoded(name, payload),
            None => store.put(name, incoming),
        },
        Some(Err(e)) => Err(StoreError::Format(e)),
    };
    drop(store);
    commit_result(shared, result)
}

/// DELETE: the routing tier's rebalance *release* step. Same write
/// discipline as [`write_op`]: refuse in read-only mode, trip read-only
/// degradation on a store I/O error. Deleting an absent name is
/// NOT_FOUND, not success — the releasing router must know whether this
/// replica ever held the sketch.
fn delete_op(shared: &Shared, name: &str) -> Response {
    if shared.read_only.load(Ordering::SeqCst) {
        return Response::ReadOnly;
    }
    let mut store = shared.store();
    let result = store.remove(name);
    drop(store);
    match result {
        Ok(true) => Response::Ok,
        Ok(false) => not_found(name),
        Err(e) => commit_result(shared, Err(e)),
    }
}

/// Map a store write result onto the wire, tripping read-only
/// degradation when the disk refuses the write.
fn commit_result(shared: &Shared, result: Result<(), StoreError>) -> Response {
    match result {
        Ok(()) => Response::Ok,
        Err(StoreError::Io(e)) => {
            // The store could not make the write durable. Degrade to
            // read-only: acknowledged state stays servable, further
            // writes are refused until an operator restarts (which runs
            // recovery).
            shared.read_only.store(true, Ordering::SeqCst);
            Response::Err {
                code: ErrCode::Store,
                message: format!("write failed ({e}); service is now read-only"),
            }
        }
        Err(e) => Response::Err { code: ErrCode::Store, message: e.to_string() },
    }
}

fn health_snapshot(shared: &Shared) -> Health {
    let mut store = shared.store();
    let (sketches, fsck) = (store.len(), store.fsck());
    let scrub = store.scrub_stats();
    let scrub_quarantined = store.quarantined_count() as u64;
    let last_scrub_age_ms = store.last_scrub_age_ms().unwrap_or(u64::MAX);
    drop(store);
    let (store_clean, quarantined, truncated_tail) = match fsck {
        Ok(report) => (report.is_clean(), report.quarantined as u64, report.truncated_tail),
        // Health must answer even when the disk will not: report dirty.
        Err(_) => (false, 0, false),
    };
    let (rounds, peers) = shared.replication.snapshot();
    Health {
        read_only: shared.read_only.load(Ordering::SeqCst),
        sketches: sketches as u64,
        store_clean,
        quarantined,
        truncated_tail,
        rounds,
        // A plain daemon routes nothing; a routing tier synthesizes its
        // own HEALTH with route_epoch and route_handoffs filled in.
        // For a daemon, budget pressure shows up as anti-entropy syncs
        // yielding to foreground load; a breaker lives client-side, so a
        // plain daemon never opens one (breaker_open stays 0).
        retry_exhausted: shared.replication.yields(),
        scrub_rounds: scrub.rounds,
        records_scrubbed: scrub.records,
        corrupt_found: scrub.corrupt_found,
        repaired: scrub.repaired,
        scrub_quarantined,
        last_scrub_age_ms,
        peers,
        ..shared.front.health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{read_frame, write_frame};
    use hmh_core::HmhParams;
    use std::net::TcpStream;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hmh-serve-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn test_opts() -> ServeOptions {
        ServeOptions {
            front: FrontOptions {
                workers: 2,
                queue_depth: 4,
                read_timeout: Duration::from_millis(400),
                write_timeout: Duration::from_millis(400),
                ..FrontOptions::default()
            },
            store: StoreOptions::no_sleep(),
            ..ServeOptions::default()
        }
    }

    fn sketch_bytes(lo: u64, hi: u64) -> Vec<u8> {
        let params = HmhParams::new(6, 6, 6).unwrap();
        format::encode(&HyperMinHash::from_items(params, lo..hi))
    }

    #[test]
    fn serve_binds_and_drains_on_shutdown() {
        let dir = tmpdir("bind");
        let handle = serve(&dir, "127.0.0.1:0", test_opts()).unwrap();
        assert_ne!(handle.addr().port(), 0);
        handle.join();
        // The lock is released: a fresh open succeeds.
        assert!(SketchStore::open(&dir).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn daemon_holds_the_store_lock() {
        let dir = tmpdir("lock");
        let handle = serve(&dir, "127.0.0.1:0", test_opts()).unwrap();
        let err = SketchStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Locked(_)), "{err:?}");
        // And a second daemon on the same dir refuses to start.
        assert!(matches!(
            serve(&dir, "127.0.0.1:0", test_opts()),
            Err(ServeError::Store(StoreError::Locked(_)))
        ));
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn exchange(conn: &mut TcpStream, req: &Request) -> Response {
        write_frame(conn, &crate::proto::encode_request(req)).unwrap();
        let body = read_frame(conn, MAX_FRAME_LEN).unwrap().unwrap();
        crate::proto::decode_response(&body).unwrap()
    }

    /// Flip one payload byte of the record holding `name` in whichever
    /// store file contains it, corrupting its checksum on disk.
    fn flip_record_payload(dir: &std::path::Path, name: &str) {
        for file in ["wal.hmr", "snapshot.hmr"] {
            let path = dir.join(file);
            let Ok(mut bytes) = std::fs::read(&path) else { continue };
            // Locate the record's name field: the name bytes preceded by
            // their u16 length at the header's name_len offset (6 bytes
            // before the name, with payload_len in between).
            let name_bytes = name.as_bytes();
            let hit = bytes.windows(name_bytes.len()).enumerate().find_map(|(i, w)| {
                if w != name_bytes || i < 6 {
                    return None;
                }
                let len = u16::from_le_bytes([bytes[i - 6], bytes[i - 5]]);
                (usize::from(len) == name_bytes.len()).then_some(i)
            });
            if let Some(i) = hit {
                // Flip a byte a little way into the payload (which is
                // hundreds of bytes of encoded sketch).
                bytes[i + name_bytes.len() + 8] ^= 0x01;
                std::fs::write(&path, &bytes).unwrap();
                return;
            }
        }
        panic!("record for {name:?} not found in either store file");
    }

    #[test]
    fn corrupt_record_is_fenced_typed_and_released_by_a_valid_write() {
        let dir = tmpdir("fence");
        {
            let mut store = SketchStore::open_opts(&dir, StoreOptions::no_sleep()).unwrap();
            store.put_encoded("good", &sketch_bytes(0, 400)).unwrap();
            store.put_encoded("bad", &sketch_bytes(400, 800)).unwrap();
        }
        flip_record_payload(&dir, "bad");

        let handle = serve(&dir, "127.0.0.1:0", test_opts()).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

        // The healthy record still serves; the corrupt one is fenced
        // with a typed error, never a torn payload.
        assert_eq!(
            exchange(&mut conn, &Request::Get { name: "good".into() }),
            Response::Sketch(sketch_bytes(0, 400))
        );
        match exchange(&mut conn, &Request::Get { name: "bad".into() }) {
            Response::Err { code: ErrCode::CorruptQuarantined, .. } => {}
            other => panic!("expected CorruptQuarantined, got {other:?}"),
        }
        // CARD on a fenced name is the same typed refusal.
        match exchange(&mut conn, &Request::Card { name: "bad".into() }) {
            Response::Err { code: ErrCode::CorruptQuarantined, .. } => {}
            other => panic!("expected CorruptQuarantined, got {other:?}"),
        }
        // SCRUB status enumerates the fence.
        match exchange(&mut conn, &Request::Scrub { trigger: false, after: String::new() }) {
            Response::Scrub(report) => {
                assert_eq!(report.quarantined, 1);
                assert_eq!(report.names, vec!["bad".to_string()]);
                assert!(report.corrupt_found >= 1, "{report:?}");
            }
            other => panic!("expected Scrub, got {other:?}"),
        }
        // A validated write releases the fence.
        let fresh = sketch_bytes(800, 1200);
        assert_eq!(
            exchange(&mut conn, &Request::Put { name: "bad".into(), sketch: fresh.clone() }),
            Response::Ok
        );
        assert_eq!(
            exchange(&mut conn, &Request::Get { name: "bad".into() }),
            Response::Sketch(fresh)
        );
        match exchange(&mut conn, &Request::Scrub { trigger: false, after: String::new() }) {
            Response::Scrub(report) => {
                assert_eq!(report.quarantined, 0);
                assert!(report.names.is_empty());
                assert!(report.repaired >= 1, "{report:?}");
            }
            other => panic!("expected Scrub, got {other:?}"),
        }
        drop(conn);
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scrub_trigger_verifies_every_record_and_reports_clean() {
        let dir = tmpdir("scrub-trigger");
        // Background scrub off: the triggered pass must do the counting.
        let opts = ServeOptions { scrub_interval: Duration::ZERO, ..test_opts() };
        let handle = serve(&dir, "127.0.0.1:0", opts).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        for (name, lo) in [("a", 0u64), ("b", 300), ("c", 600)] {
            let req = Request::Put { name: name.into(), sketch: sketch_bytes(lo, lo + 300) };
            assert_eq!(exchange(&mut conn, &req), Response::Ok);
        }
        match exchange(&mut conn, &Request::Scrub { trigger: true, after: String::new() }) {
            Response::Scrub(report) => {
                assert!(report.rounds >= 1, "{report:?}");
                assert!(report.records >= 3, "{report:?}");
                assert_eq!(report.corrupt_found, 0);
                assert_eq!(report.quarantined, 0);
                assert!(report.last_scrub_age_ms < u64::MAX, "age must be reported");
            }
            other => panic!("expected Scrub, got {other:?}"),
        }
        // HEALTH carries the same counters.
        match exchange(&mut conn, &Request::Health) {
            Response::Health(h) => {
                assert!(h.scrub_rounds >= 1, "{h:?}");
                assert!(h.records_scrubbed >= 3, "{h:?}");
                assert_eq!(h.corrupt_found, 0);
                assert_eq!(h.scrub_quarantined, 0);
                assert!(h.last_scrub_age_ms < u64::MAX);
            }
            other => panic!("expected Health, got {other:?}"),
        }
        drop(conn);
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn background_scrub_runs_without_a_trigger() {
        let dir = tmpdir("scrub-bg");
        let opts = ServeOptions { scrub_interval: Duration::from_millis(20), ..test_opts() };
        let handle = serve(&dir, "127.0.0.1:0", opts).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let put = Request::Put { name: "bg".into(), sketch: sketch_bytes(0, 200) };
        assert_eq!(exchange(&mut conn, &put), Response::Ok);
        // An empty pair of files scrubs in one slice per tick; a couple
        // of intervals is plenty for at least one full pass.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match exchange(&mut conn, &Request::Scrub { trigger: false, after: String::new() }) {
                Response::Scrub(report) if report.rounds >= 1 => break,
                Response::Scrub(_) if Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(20));
                }
                other => panic!("background scrub never completed a pass: {other:?}"),
            }
        }
        drop(conn);
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn put_get_round_trip_over_a_raw_socket() {
        let dir = tmpdir("raw");
        let handle = serve(&dir, "127.0.0.1:0", test_opts()).unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();

        let payload = sketch_bytes(0, 500);
        let put = Request::Put { name: "raw".into(), sketch: payload.clone() };
        write_frame(&mut conn, &crate::proto::encode_request(&put)).unwrap();
        let body = read_frame(&mut conn, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(crate::proto::decode_response(&body).unwrap(), Response::Ok);

        let get = Request::Get { name: "raw".into() };
        write_frame(&mut conn, &crate::proto::encode_request(&get)).unwrap();
        let body = read_frame(&mut conn, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(
            crate::proto::decode_response(&body).unwrap(),
            Response::Sketch(payload),
            "stored bytes come back bit-identical"
        );
        drop(conn);
        handle.join();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
