//! The `HMS1` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one *frame*:
//!
//! ```text
//! offset  size  field
//! 0       4     body length L (u32 LE), L ≤ MAX_FRAME_LEN
//! 4       L     body
//! ```
//!
//! A request body is `[PROTO_VERSION, opcode, fields…]`; a response body
//! is `[status, fields…]`. Variable-length fields carry their own length
//! prefixes (`u16` for names and messages, `u32` for sketch payloads),
//! and every declared length is validated against both a protocol
//! maximum and the bytes actually present *before* it is believed — an
//! untrusted length field can bound a loop, but it can never drive an
//! allocation or a read on its own. Frame reads likewise grow their
//! buffers only with bytes a peer actually sends, never with what a
//! length prefix merely claims.
//!
//! Every production connection — the daemon's and the router's front
//! end, and each [`crate::Client`] connection — reads through one
//! [`FrameBuffer`]: bytes initialized once, a filled cursor, and one
//! fill routine shared by the blocking and the non-blocking path. The
//! one-shot [`read_frame`] serves callers that hold no buffer (tests,
//! benchmarks) and reads a body straight into its `Vec`.
//!
//! Connections are *pipelined*: a client may have up to
//! [`MAX_PIPELINE_DEPTH`] request frames in flight on one connection,
//! and the server processes them strictly in receipt order and replies
//! in the same order — there are no tags or sequence numbers on the
//! wire, so ordering IS the correlation mechanism. Replies for one
//! batch are coalesced into a single vectored write
//! ([`write_frames_vectored`]): length prefixes and bodies become one
//! syscall instead of 2·k. Error handling is asymmetric by design: a
//! malformed frame poisons only the *tail* of its connection (replies
//! already queued for earlier frames are flushed, then the typed error,
//! then the connection closes), while transport failures drop the
//! connection outright. The failure matrix — truncation, garbage,
//! deadline, disconnect at any byte, now at any pipeline depth — is
//! pinned by `crates/serve/tests/chaos.rs` and
//! `crates/serve/tests/pipeline.rs`.

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::Range;

use hmh_core::format::MAX_ENCODED_LEN;
use hmh_store::log::MAX_NAME_LEN;

/// Protocol version carried as the first body byte of every request.
pub const PROTO_VERSION: u8 = 1;

/// Protocol version for deadline-carrying requests: the body is
/// `[PROTO_VERSION_BUDGET, opcode, budget_ms (u32 LE), fields…]`, where
/// `budget_ms` is the *remaining* milliseconds the caller is still
/// willing to wait (0 means "no deadline", identical to a version-1
/// frame). Servers check the budget against time the request already
/// spent queued and answer a typed [`Response::Expired`] instead of
/// doing work whose caller has hung up; routers re-stamp the shrunk
/// remainder onto every fan-out leg. Version-1 frames stay fully
/// accepted — the two versions share one opcode space.
pub const PROTO_VERSION_BUDGET: u8 = 2;

/// Ceiling on a request's declared `budget_ms`: one day. A budget is a
/// deadline, not a length, but an absurd value is still a lying field —
/// rejected typed, like every other cap in this protocol.
pub const MAX_BUDGET_MS: u32 = 24 * 60 * 60 * 1000;

/// Hard ceiling on a frame body. Covers the largest legal sketch payload
/// plus two names and fixed fields, with slack; anything larger is a
/// lying length prefix, answered with a typed error and a closed
/// connection.
pub const MAX_FRAME_LEN: usize = MAX_ENCODED_LEN + 2 * MAX_NAME_LEN + 64;

/// Up-front allocation for one frame read, and the size a
/// [`FrameBuffer`] starts at: allocation tracks received bytes, not
/// declared lengths.
const READ_CHUNK: usize = 64 * 1024;

/// Maximum request frames a client may have in flight on one connection
/// before reading any reply. The server guarantees in-order replies at
/// any depth it actually receives, but a client that writes more than
/// this many frames without draining replies can deadlock *itself*
/// (both sides blocked on full kernel buffers), so the client API
/// refuses deeper batches with a typed error instead of hanging.
pub const MAX_PIPELINE_DEPTH: usize = 32;

/// Maximum items in one `BATCH_PUT` frame. Together with
/// [`MAX_ITEM_LEN`] this keeps a maximal batch (≈ 16 MiB) well under
/// [`MAX_FRAME_LEN`]; clients chunk longer streams into multiple frames.
pub const MAX_BATCH_ITEMS: usize = 16 * 1024;

/// Maximum byte length of one `BATCH_PUT` item.
pub const MAX_ITEM_LEN: usize = 1024;

/// Maximum digest entries one `DIGEST` response carries. Pagination (the
/// request's `after` cursor) covers stores with more names; the cap
/// keeps a worst-case page (max-length names) well under
/// [`MAX_FRAME_LEN`] and bounds what a lying count can make a reader
/// loop over.
pub const MAX_DIGEST_ENTRIES: usize = 2048;

/// Maximum names one `SYNC` request may ask for. The *response* is
/// additionally bounded by the frame budget: the server answers the
/// longest prefix of the requested names whose sketches fit one frame,
/// and the caller re-requests the rest.
pub const MAX_SYNC_NAMES: usize = 256;

/// Maximum names one `LIST_PAGE` response carries — the same page
/// contract as [`MAX_DIGEST_ENTRIES`]: names arrive in strictly
/// increasing order, a page shorter than the cap is the last page, and
/// a worst-case page (max-length names) stays well under
/// [`MAX_FRAME_LEN`].
pub const MAX_LIST_NAMES: usize = 2048;

/// Maximum quarantined names one `SCRUB` response carries. The same
/// page contract as [`MAX_DIGEST_ENTRIES`]: names arrive in strictly
/// increasing order after the request's cursor, and a page shorter
/// than the cap is the last page.
pub const MAX_SCRUB_PAGE: usize = 256;

/// Maximum peers a `HEALTH` response enumerates (and a daemon accepts).
pub const MAX_PEERS: usize = 64;

/// Maximum byte length of a peer address string in `HEALTH`.
pub const MAX_PEER_ADDR_LEN: usize = 256;

/// Request opcodes.
mod op {
    pub const PUT: u8 = 1;
    pub const GET: u8 = 2;
    pub const MERGE: u8 = 3;
    pub const CARD: u8 = 4;
    pub const JACCARD: u8 = 5;
    // 6 was the unpaginated LIST, replaced by LIST_PAGE. It is never
    // reused: an old client sending it gets a typed UNKNOWN_OP, not
    // another op's reply.
    pub const HEALTH: u8 = 7;
    pub const SHUTDOWN: u8 = 8;
    pub const BATCH_PUT: u8 = 9;
    pub const DIGEST: u8 = 10;
    pub const SYNC: u8 = 11;
    pub const LIST_PAGE: u8 = 12;
    pub const DELETE: u8 = 13;
    pub const SCRUB: u8 = 14;
}

/// Response status bytes.
mod status {
    pub const OK: u8 = 0;
    pub const SKETCH: u8 = 1;
    pub const VALUE: u8 = 2;
    // 3 was NAMES, the unpaginated LIST reply; never reused.
    pub const HEALTH: u8 = 4;
    pub const DIGESTS: u8 = 5;
    pub const SKETCHES: u8 = 6;
    pub const NAMES_PAGE: u8 = 7;
    pub const SCRUB: u8 = 8;
    pub const BUSY: u8 = 0x40;
    pub const READ_ONLY: u8 = 0x41;
    pub const EXPIRED: u8 = 0x42;
    pub const ERR: u8 = 0x7f;
}

/// Typed error codes carried by [`Response::Err`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrCode {
    /// The request frame failed to parse.
    BadFrame,
    /// A length field exceeded a protocol maximum.
    TooLarge,
    /// Unsupported protocol version byte.
    BadVersion,
    /// Unknown opcode.
    UnknownOp,
    /// No sketch stored under the requested name.
    NotFound,
    /// The payload was not a decodable `HMH1` sketch.
    BadSketch,
    /// Sketch parameters are incompatible (merge/jaccard across configs).
    Incompatible,
    /// The store rejected the operation.
    Store,
    /// A routing tier could not reach the replica group that owns the
    /// requested name (all replicas down, or a scatter-gather shard
    /// deadlined). Unlike a transport error this is *final for this
    /// attempt*: the router already spent its failover budget.
    Unavailable,
    /// The requested record is quarantined: its stored bytes failed the
    /// checksum scrub and no valid copy survives locally. The name is
    /// fenced, never served torn — read-repair from a healthy replica
    /// (or any validated write) releases it.
    CorruptQuarantined,
    /// Anything else; the message says what.
    Other(u8),
}

impl ErrCode {
    /// Wire byte for this code.
    pub fn to_byte(self) -> u8 {
        match self {
            ErrCode::BadFrame => 1,
            ErrCode::TooLarge => 2,
            ErrCode::BadVersion => 3,
            ErrCode::UnknownOp => 4,
            ErrCode::NotFound => 5,
            ErrCode::BadSketch => 6,
            ErrCode::Incompatible => 7,
            ErrCode::Store => 8,
            ErrCode::Unavailable => 9,
            ErrCode::CorruptQuarantined => 10,
            ErrCode::Other(b) => b,
        }
    }

    /// Code for a wire byte (unknown bytes survive as [`ErrCode::Other`]).
    pub fn from_byte(b: u8) -> Self {
        match b {
            1 => ErrCode::BadFrame,
            2 => ErrCode::TooLarge,
            3 => ErrCode::BadVersion,
            4 => ErrCode::UnknownOp,
            5 => ErrCode::NotFound,
            6 => ErrCode::BadSketch,
            7 => ErrCode::Incompatible,
            8 => ErrCode::Store,
            9 => ErrCode::Unavailable,
            10 => ErrCode::CorruptQuarantined,
            other => ErrCode::Other(other),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Store an encoded sketch under a name.
    Put {
        /// Target name.
        name: String,
        /// Encoded `HMH1` payload.
        sketch: Vec<u8>,
    },
    /// Fetch the encoded sketch stored under a name.
    Get {
        /// Stored name.
        name: String,
    },
    /// Merge an encoded sketch into the named one (creating it if absent).
    Merge {
        /// Target name.
        name: String,
        /// Encoded `HMH1` payload to fold in.
        sketch: Vec<u8>,
    },
    /// Cardinality estimate of a stored sketch.
    Card {
        /// Stored name.
        name: String,
    },
    /// Jaccard estimate between two stored sketches.
    Jaccard {
        /// First name.
        a: String,
        /// Second name.
        b: String,
    },
    /// Ingest a frame of raw items into the named sketch server-side,
    /// creating it with the given configuration if absent. Replaces one
    /// PUT round-trip per sketch with one frame per batch of items.
    BatchPut {
        /// Target name.
        name: String,
        /// Sketch precision `p` (bucket bits) used when creating.
        p: u8,
        /// Counter width `q` used when creating.
        q: u8,
        /// Mantissa width `r` used when creating.
        r: u8,
        /// Hash algorithm byte (the `HMH1` header encoding).
        algorithm: u8,
        /// Oracle seed.
        seed: u64,
        /// Raw item byte strings, each ≤ [`MAX_ITEM_LEN`]; at most
        /// [`MAX_BATCH_ITEMS`] per frame.
        items: Vec<Vec<u8>>,
    },
    /// One page of stored names for bounded listing: names strictly
    /// greater than `after` (sorted), at most [`MAX_LIST_NAMES`] per
    /// page. An empty `after` starts from the first name; a page
    /// shorter than the cap is the last page.
    ListPage {
        /// Pagination cursor: return names strictly after this one.
        /// Empty means "from the beginning".
        after: String,
    },
    /// Remove the sketch stored under a name (a durable tombstone in
    /// the store log). The routing tier's rebalance *release* step —
    /// issued only after the destination group's copy is digest-verified.
    Delete {
        /// Stored name.
        name: String,
    },
    /// Service health and degradation state.
    Health,
    /// One page of per-key digests for anti-entropy: `(name, checksum)`
    /// pairs for stored names strictly greater than `after` (sorted),
    /// at most [`MAX_DIGEST_ENTRIES`] per page. An empty `after` starts
    /// from the first name.
    Digest {
        /// Pagination cursor: return names strictly after this one.
        /// Empty means "from the beginning".
        after: String,
    },
    /// Pull encoded sketches by name for anti-entropy. The response
    /// covers the longest *prefix* of `names` whose payloads fit one
    /// frame; callers re-request the remainder. A requested name that no
    /// longer exists answers with an empty payload.
    Sync {
        /// Names to fetch, at most [`MAX_SYNC_NAMES`].
        names: Vec<String>,
    },
    /// Trigger or query the corruption scrub. `trigger: true` asks the
    /// daemon to run one full scrub pass synchronously before
    /// answering; `trigger: false` reports current counters without
    /// doing work. Either way the reply carries one cursor-paginated
    /// page of quarantined names (strictly greater than `after`,
    /// sorted, at most [`MAX_SCRUB_PAGE`]) so read-repair and operators
    /// can enumerate the fence without an unbounded frame.
    Scrub {
        /// True to run a scrub pass before answering.
        trigger: bool,
        /// Pagination cursor for the quarantined-name page: return
        /// names strictly after this one; empty means "from the
        /// beginning".
        after: String,
    },
    /// Drain queued connections, then exit.
    Shutdown,
}

/// One `(name, checksum)` pair in a `DIGEST` response. The checksum is
/// xxHash64 over the stored encoded payload (seed
/// `hmh_store::log::DIGEST_SEED`), so equal checksums mean byte-equal
/// sketches up to hash collision — and anti-entropy convergence is
/// checked against exactly the bytes [`hmh_core::format::encode`]
/// produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    /// Stored sketch name.
    pub name: String,
    /// xxHash64 of the stored encoded payload.
    pub checksum: u64,
}

/// One `(name, payload)` pair in a `SYNC` response. An empty payload
/// means the name vanished between DIGEST and SYNC (deleted mid-round);
/// callers skip it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEntry {
    /// Stored sketch name.
    pub name: String,
    /// Encoded `HMH1` payload; empty when the name no longer exists.
    pub payload: Vec<u8>,
}

/// The `SCRUB` response payload: lifetime scrub counters plus one page
/// of currently quarantined names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Full scrub passes completed since start.
    pub rounds: u64,
    /// Records whose checksums were re-verified since start.
    pub records: u64,
    /// Corrupt spans found on disk since start (open-time salvage and
    /// live scrub combined).
    pub corrupt_found: u64,
    /// Corrupt records restored — rewritten from the authoritative
    /// in-memory copy or released from quarantine by a validated write.
    pub repaired: u64,
    /// Names currently fenced in quarantine.
    pub quarantined: u64,
    /// Milliseconds since the last completed scrub pass; `u64::MAX`
    /// when no pass has completed yet.
    pub last_scrub_age_ms: u64,
    /// One page of quarantined names, sorted ascending, strictly after
    /// the request's cursor; at most [`MAX_SCRUB_PAGE`]. A page shorter
    /// than the cap is the last page.
    pub names: Vec<String>,
}

/// Replication health of one configured peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Last anti-entropy round against this peer succeeded.
    Healthy,
    /// Recent rounds failed, but not enough to declare the peer down.
    Suspect,
    /// Enough consecutive failures that sync attempts are backed off.
    Down,
}

impl PeerState {
    /// Wire byte for this state.
    pub fn to_byte(self) -> u8 {
        match self {
            PeerState::Healthy => 0,
            PeerState::Suspect => 1,
            PeerState::Down => 2,
        }
    }

    /// State for a wire byte.
    pub fn from_byte(b: u8) -> Result<Self, ProtoError> {
        match b {
            0 => Ok(PeerState::Healthy),
            1 => Ok(PeerState::Suspect),
            2 => Ok(PeerState::Down),
            other => Err(ProtoError::UnknownEnum(other)),
        }
    }
}

impl fmt::Display for PeerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PeerState::Healthy => write!(f, "healthy"),
            PeerState::Suspect => write!(f, "suspect"),
            PeerState::Down => write!(f, "down"),
        }
    }
}

/// Per-peer replication fields inside a `HEALTH` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerHealth {
    /// Peer address as configured (display form).
    pub addr: String,
    /// Current health state.
    pub state: PeerState,
    /// Anti-entropy rounds since the last successful sync with this
    /// peer; `u64::MAX` when no round has ever succeeded.
    pub last_sync_age: u64,
    /// Cumulative digest mismatches observed against this peer (keys
    /// pulled because their checksums diverged or were missing locally).
    pub mismatches: u64,
}

/// Service health snapshot (the HEALTH response payload).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Health {
    /// True once a store write error tripped read-only degradation.
    pub read_only: bool,
    /// Worker pool size.
    pub workers: u32,
    /// Accept queue capacity.
    pub queue_capacity: u32,
    /// Connections currently queued, waiting for a worker.
    pub queue_depth: u32,
    /// Connections currently being handled.
    pub active: u32,
    /// Connections shed with BUSY since start.
    pub shed: u64,
    /// Requests served since start.
    pub served: u64,
    /// Sketches currently stored.
    pub sketches: u64,
    /// True when the on-disk store scans clean right now.
    pub store_clean: bool,
    /// Corrupt regions the current on-disk scan quarantines.
    pub quarantined: u64,
    /// True when the current scan sees a torn tail.
    pub truncated_tail: bool,
    /// Anti-entropy rounds completed since start (0 when the daemon runs
    /// without replication).
    pub rounds: u64,
    /// Ring-config epoch a routing tier is serving (0 for a plain
    /// daemon: it routes nothing).
    pub route_epoch: u64,
    /// Sketch handoffs a routing tier completed through rebalance
    /// (copy-verify-release cycles); 0 for a plain daemon.
    pub route_handoffs: u64,
    /// Requests answered with a typed EXPIRED because their deadline
    /// budget was already spent (queue wait, or upstream hops) before
    /// any work was done.
    pub expired: u64,
    /// Operations refused because the process's shared retry budget was
    /// empty: for a daemon, anti-entropy rounds that yielded under load;
    /// for a router, shard retries denied mid-failover.
    pub retry_exhausted: u64,
    /// Operations short-circuited because every candidate replica's
    /// circuit breaker was open — bounded refusal instead of amplified
    /// dialing of a flapping peer.
    pub breaker_open: u64,
    /// Background scrub passes completed since start.
    pub scrub_rounds: u64,
    /// Records whose checksums the scrub re-verified since start.
    pub records_scrubbed: u64,
    /// Corrupt spans found on disk since start (open-time salvage and
    /// live scrub combined).
    pub corrupt_found: u64,
    /// Corrupt records restored from the in-memory copy or released
    /// from quarantine by a validated write.
    pub repaired: u64,
    /// Names currently fenced in quarantine (served as typed
    /// CORRUPT_QUARANTINED, awaiting read-repair).
    pub scrub_quarantined: u64,
    /// Milliseconds since the last completed scrub pass; `u64::MAX`
    /// when none has completed. A routing tier reports the *oldest*
    /// age across its shards.
    pub last_scrub_age_ms: u64,
    /// Configured replication peers and their health (empty when the
    /// daemon runs without replication). A routing tier reuses these
    /// slots for per-group liveness: one entry per replica group,
    /// `addr` naming the group.
    pub peers: Vec<PeerHealth>,
}

/// How a routing tier folds one HEALTH scalar over its shards
/// ([`Health::fold`]); each rule is associative and commutative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// The folding process's own value; the shards' are ignored.
    Own,
    /// Saturating sum: a count over the whole cluster.
    Sum,
    /// The largest value: the most stale shard's.
    Max,
    /// Logical or: true when any shard reports it.
    Any,
    /// Logical and: true only when every shard reports it.
    All,
}

/// One HEALTH scalar's field, typed by its wire form: the low 1, 4 or
/// 8 bytes of its [`Scalar::get`] value, little-endian.
pub enum Scalar<'a> {
    /// One wire byte.
    Bool(&'a mut bool),
    /// Four wire bytes.
    U32(&'a mut u32),
    /// A `U32` printed as the `/capacity` of the next row's gauge.
    Capacity(&'a mut u32),
    /// Eight wire bytes.
    U64(&'a mut u64),
    /// A `U64` age in milliseconds; `u64::MAX` means "never".
    AgeMs(&'a mut u64),
}

impl Scalar<'_> {
    /// The value widened to `u64`, a `bool` as 0 or 1.
    pub fn get(&self) -> u64 {
        match self {
            Scalar::Bool(v) => u64::from(**v),
            Scalar::U32(v) | Scalar::Capacity(v) => u64::from(**v),
            Scalar::U64(v) | Scalar::AgeMs(v) => **v,
        }
    }

    /// Store `value`, saturating to the field's width.
    pub fn set(&mut self, value: u64) {
        match self {
            Scalar::Bool(v) => **v = value != 0,
            Scalar::U32(v) | Scalar::Capacity(v) => **v = u32::try_from(value).unwrap_or(u32::MAX),
            Scalar::U64(v) | Scalar::AgeMs(v) => **v = value,
        }
    }

    fn width(&self) -> usize {
        match self {
            Scalar::Bool(_) => 1,
            Scalar::U32(_) | Scalar::Capacity(_) => 4,
            Scalar::U64(_) | Scalar::AgeMs(_) => 8,
        }
    }
}

impl Health {
    /// Every HEALTH scalar in wire order, as `(label, fold, field)`: the
    /// label `hmh client ADDR health` prints, the rule a routing tier
    /// folds it by, and the field. The one list of the scalars: the wire
    /// codec, the router's fold and the CLI printer loop over it.
    pub fn scalars(&mut self) -> [(&'static str, Fold, Scalar<'_>); 23] {
        use Fold::{All, Any, Max, Own, Sum};
        [
            ("read_only", Any, Scalar::Bool(&mut self.read_only)),
            ("workers", Own, Scalar::U32(&mut self.workers)),
            ("queue_capacity", Own, Scalar::Capacity(&mut self.queue_capacity)),
            ("queue", Own, Scalar::U32(&mut self.queue_depth)),
            ("active", Own, Scalar::U32(&mut self.active)),
            ("shed", Own, Scalar::U64(&mut self.shed)),
            ("served", Own, Scalar::U64(&mut self.served)),
            ("sketches", Sum, Scalar::U64(&mut self.sketches)),
            ("store_clean", All, Scalar::Bool(&mut self.store_clean)),
            ("quarantined", Sum, Scalar::U64(&mut self.quarantined)),
            ("truncated_tail", Any, Scalar::Bool(&mut self.truncated_tail)),
            ("replication_rounds", Sum, Scalar::U64(&mut self.rounds)),
            ("route_epoch", Own, Scalar::U64(&mut self.route_epoch)),
            ("route_handoffs", Own, Scalar::U64(&mut self.route_handoffs)),
            ("expired", Sum, Scalar::U64(&mut self.expired)),
            ("retry_budget_exhausted", Sum, Scalar::U64(&mut self.retry_exhausted)),
            ("breaker_open", Sum, Scalar::U64(&mut self.breaker_open)),
            ("scrub_rounds", Sum, Scalar::U64(&mut self.scrub_rounds)),
            ("records_scrubbed", Sum, Scalar::U64(&mut self.records_scrubbed)),
            ("corrupt_found", Sum, Scalar::U64(&mut self.corrupt_found)),
            ("repaired", Sum, Scalar::U64(&mut self.repaired)),
            ("scrub_quarantined", Sum, Scalar::U64(&mut self.scrub_quarantined)),
            ("last_scrub", Max, Scalar::AgeMs(&mut self.last_scrub_age_ms)),
        ]
    }

    /// Fold shards' snapshots into this one, a process's that holds no
    /// store (a routing tier's): each scalar by its [`Fold`], an `All`
    /// row over the shards alone. `peers` is left as it is.
    pub fn fold(mut self, shards: impl IntoIterator<Item = Health>) -> Health {
        for (k, mut shard) in shards.into_iter().enumerate() {
            for ((_, fold, mut mine), (_, _, theirs)) in
                self.scalars().into_iter().zip(shard.scalars())
            {
                let (a, b) = (mine.get(), theirs.get());
                mine.set(match fold {
                    Fold::Own => a,
                    Fold::Sum => a.saturating_add(b),
                    Fold::Max | Fold::Any => a.max(b),
                    Fold::All if k == 0 => b,
                    Fold::All => a.min(b),
                });
            }
        }
        self
    }

    /// What a shard that could not be asked folds as: its store is not
    /// known to be clean, and its scrub has never completed.
    pub fn unreachable() -> Health {
        Health { store_clean: false, last_scrub_age_ms: u64::MAX, ..Health::default() }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The operation succeeded with nothing to return.
    Ok,
    /// An encoded sketch.
    Sketch(Vec<u8>),
    /// A scalar estimate.
    Value(f64),
    /// One page of stored names (the `LIST_PAGE` reply): at most
    /// [`MAX_LIST_NAMES`] names in strictly increasing order. `partial`
    /// is set by a scatter-gathering router when one or more shards
    /// could not be reached within their deadline — the page is the
    /// union of the shards that answered, clearly marked degraded; a
    /// single daemon always answers `partial: false`.
    NamesPage {
        /// The page of names, sorted ascending.
        names: Vec<String>,
        /// True when the answer is missing unreachable shards' names.
        partial: bool,
    },
    /// Health snapshot.
    Health(Health),
    /// One page of per-key digests (the `DIGEST` reply).
    Digests(Vec<DigestEntry>),
    /// Encoded sketches pulled by name (the `SYNC` reply) — the longest
    /// prefix of the requested names that fits one frame.
    Sketches(Vec<SyncEntry>),
    /// Scrub counters plus one page of quarantined names (the `SCRUB`
    /// reply).
    Scrub(ScrubReport),
    /// The accept queue was full; try again later.
    Busy,
    /// The service is degraded to read-only; writes are refused.
    ReadOnly,
    /// The request's `budget_ms` was already spent when the server was
    /// ready to execute it; the work was not performed.
    Expired,
    /// The request failed.
    Err {
        /// Typed error code.
        code: ErrCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a frame body failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Body ended before a field it declared.
    Truncated {
        /// Bytes the field needed.
        expected: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// A declared length exceeded its protocol maximum.
    FieldTooLarge {
        /// Declared length.
        got: usize,
        /// The maximum for that field.
        max: usize,
    },
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown request opcode.
    UnknownOp(u8),
    /// Unknown response status byte.
    UnknownStatus(u8),
    /// A name or message was not valid UTF-8, or a name was empty.
    BadString,
    /// An enumerated field (peer state) carried an unknown value.
    UnknownEnum(u8),
    /// Parse finished with bytes left over.
    TrailingBytes(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { expected, got } => {
                write!(f, "truncated frame: field needs {expected} bytes, {got} remain")
            }
            ProtoError::FieldTooLarge { got, max } => {
                write!(f, "field length {got} exceeds protocol maximum {max}")
            }
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownOp(o) => write!(f, "unknown opcode {o}"),
            ProtoError::UnknownStatus(s) => write!(f, "unknown response status {s}"),
            ProtoError::BadString => write!(f, "name or message is empty or not valid UTF-8"),
            ProtoError::UnknownEnum(b) => write!(f, "unknown enum value {b}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// The error code a server reports for this parse failure.
    pub fn code(&self) -> ErrCode {
        match self {
            ProtoError::FieldTooLarge { .. } => ErrCode::TooLarge,
            ProtoError::BadVersion(_) => ErrCode::BadVersion,
            ProtoError::UnknownOp(_) => ErrCode::UnknownOp,
            _ => ErrCode::BadFrame,
        }
    }
}

/// Frame-level read failures, split so callers can answer a lying length
/// prefix with a typed response before hanging up.
#[derive(Debug)]
pub enum FrameError {
    /// The transport failed (timeout, reset, truncation mid-body).
    Io(io::Error),
    /// The length prefix exceeded the frame ceiling.
    TooLarge {
        /// Declared body length.
        got: usize,
        /// The ceiling it exceeded.
        max: usize,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
            FrameError::TooLarge { got, max } => {
                write!(f, "frame length {got} exceeds maximum {max}")
            }
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            FrameError::TooLarge { .. } => None,
        }
    }
}

/// Write one frame (length prefix + body) and flush.
///
/// # Panics
/// If `body` exceeds [`MAX_FRAME_LEN`]; encoders cap every field, so a
/// larger body is a bug in this crate, not input-dependent.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    assert!(body.len() <= MAX_FRAME_LEN, "invariant: encoders cap frame bodies");
    let len = u32::try_from(body.len()).expect("invariant: MAX_FRAME_LEN < u32::MAX");
    // Prefix and body coalesce into one vectored write: one syscall per
    // frame on an unbuffered socket, not two.
    write_all_vectored(w, &[&len.to_le_bytes(), body])?;
    w.flush()
}

/// Write every segment, in order, completely — the vectored analogue of
/// `write_all`. Uses `write_vectored` so adjacent segments share a
/// syscall; transports without real vectored I/O fall back through
/// `Write::write_vectored`'s default implementation (a plain `write` of
/// the first non-empty segment), and short writes, `EINTR`, and the
/// fallback all converge on the same resume path: re-slice from the
/// current offset and continue.
fn write_all_vectored(w: &mut impl Write, segments: &[&[u8]]) -> io::Result<()> {
    let total: usize = segments.iter().map(|s| s.len()).sum();
    let mut written = 0usize;
    while written < total {
        // Rebuild the slice list from the current offset each pass.
        // O(segments) per resume, but resumes only happen on short
        // writes; the common case is a single pass.
        let mut skip = written;
        let mut slices: Vec<io::IoSlice<'_>> = Vec::with_capacity(segments.len());
        for seg in segments {
            if skip >= seg.len() {
                skip -= seg.len();
            } else {
                slices.push(io::IoSlice::new(&seg[skip..]));
                skip = 0;
            }
        }
        match w.write_vectored(&slices) {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "failed to write frames"))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one frame body. `Ok(None)` on clean EOF at a frame boundary;
/// [`FrameError::TooLarge`] when the length prefix exceeds `max` (the
/// body bytes are *not* read); I/O errors (including timeouts and
/// mid-body EOF) as [`FrameError::Io`].
///
/// The one-shot reader for callers that own no [`FrameBuffer`]: the
/// body is read straight into the returned `Vec`, with no scratch copy.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf).map_err(FrameError::Io)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > max {
        return Err(FrameError::TooLarge { got: len, max });
    }
    // Capacity starts at one chunk and grows with received bytes, not
    // the declared length: a peer that *claims* a huge body but sends
    // nothing costs nothing but a read timeout. `read_to_end` retries
    // EINTR itself, so a signal mid-body never tears the connection.
    let mut body = Vec::with_capacity(len.min(READ_CHUNK));
    r.take(len as u64).read_to_end(&mut body).map_err(FrameError::Io)?;
    if body.len() < len {
        return Err(FrameError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame truncated: {} of {len} body bytes missing", len - body.len()),
        )));
    }
    Ok(Some(body))
}

/// Fill `buf` exactly; `Ok(false)` on EOF before the first byte, errors
/// (UnexpectedEof) on EOF mid-buffer.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "frame truncated inside length prefix",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Write a batch of frames (each length prefix + body) as one vectored
/// write, then flush.
///
/// All 2·k segments — prefixes interleaved with bodies — are handed to
/// `write_vectored` together, so a batch of small frames costs one
/// syscall instead of 2·k. Transports without real vectored I/O are
/// covered by `Write::write_vectored`'s default implementation, which
/// degrades to a plain `write` of the first non-empty segment; the
/// outer loop then re-slices from the new offset, so short writes,
/// `EINTR`, and the fallback all converge on the same resume path.
///
/// # Panics
/// If any body exceeds [`MAX_FRAME_LEN`]; encoders cap every field, so
/// a larger body is a bug in this crate, not input-dependent.
pub fn write_frames_vectored(w: &mut impl Write, bodies: &[Vec<u8>]) -> io::Result<()> {
    if bodies.is_empty() {
        return Ok(());
    }
    let mut prefixes = Vec::with_capacity(bodies.len());
    for body in bodies {
        assert!(body.len() <= MAX_FRAME_LEN, "invariant: encoders cap frame bodies");
        let len = u32::try_from(body.len()).expect("invariant: MAX_FRAME_LEN < u32::MAX");
        prefixes.push(len.to_le_bytes());
    }
    let mut segments: Vec<&[u8]> = Vec::with_capacity(bodies.len() * 2);
    for (prefix, body) in prefixes.iter().zip(bodies) {
        segments.push(prefix);
        segments.push(body);
    }
    write_all_vectored(w, &segments)?;
    w.flush()
}

/// A per-connection frame reassembly buffer: every production reader —
/// the connection front end and each [`crate::Client`] connection —
/// reads frames through one of these.
///
/// It keeps a consumed cursor and a filled cursor over bytes that were
/// initialized once: reads land in the spare tail past the filled
/// cursor and never clear it again. Consumed bytes are compacted away
/// before the next read, and the buffer doubles only when the frame at
/// the cursor fills all of it, so memory grows with bytes a peer
/// actually sent, never with what a length prefix merely claims.
///
/// One `read` that happens to deliver several small frames (a vectored
/// burst typically arrives this way on localhost) yields them all
/// without further syscalls. [`read_frame_ref`] is the blocking path
/// (semantically identical to [`read_frame`], buffer-aware);
/// [`fill_nonblocking`] opportunistically pulls whatever has already
/// arrived so a server can drain a batch without ever blocking on a
/// frame that was never sent. Both go through one fill routine.
///
/// [`read_frame_ref`]: FrameBuffer::read_frame_ref
/// [`fill_nonblocking`]: FrameBuffer::fill_nonblocking
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// End of the received bytes; reads land in `buf[filled..]`.
    filled: usize,
}

impl FrameBuffer {
    /// An empty buffer; the first blocking read allocates it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes received but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.filled - self.start
    }

    /// Bytes the frame at the cursor occupies, prefix included — just
    /// the prefix until all of it has arrived. A lying length prefix
    /// surfaces as [`FrameError::TooLarge`] exactly as [`read_frame`]
    /// would, before any body byte is believed.
    fn frame_len(&self, max: usize) -> Result<usize, FrameError> {
        let [a, b, c, d, ..] = self.buf[self.start..self.filled] else {
            return Ok(4);
        };
        let len = u32::from_le_bytes([a, b, c, d]) as usize;
        if len > max {
            return Err(FrameError::TooLarge { got: len, max });
        }
        Ok(4 + len)
    }

    /// Consume the complete `frame_len`-byte frame at the cursor,
    /// returning the range of its body in `buf`.
    fn consume(&mut self, frame_len: usize) -> Range<usize> {
        let body = self.start + 4..self.start + frame_len;
        self.start = body.end;
        body
    }

    /// Pop one frame if a complete one is buffered; `Ok(None)` when the
    /// buffer holds no complete frame (empty or a partial tail), without
    /// touching the transport.
    pub fn take_frame(&mut self, max: usize) -> Result<Option<Vec<u8>>, FrameError> {
        let frame_len = self.frame_len(max)?;
        if self.buffered() < frame_len {
            return Ok(None);
        }
        let body = self.consume(frame_len);
        Ok(Some(self.buf[body].to_vec()))
    }

    /// Read one frame through the buffer, blocking until a complete
    /// frame, clean EOF, or transport error, and borrow its body until
    /// the next call. Same contract as [`read_frame`]: `Ok(None)` on EOF
    /// at a frame boundary (nothing buffered), `TooLarge` before any
    /// body bytes are believed, I/O errors (timeouts, EOF inside a
    /// frame) as [`FrameError::Io`]. A timeout keeps the bytes of a
    /// partial frame; the next call resumes it.
    pub fn read_frame_ref(
        &mut self,
        r: &mut impl Read,
        max: usize,
    ) -> Result<Option<&[u8]>, FrameError> {
        let mut frame_len = self.frame_len(max)?;
        // Each pass reads at least one byte or returns; the caller's
        // socket timeout bounds a stalled read.
        while self.buffered() < frame_len {
            if self.fill_tail(r, true).map_err(FrameError::Io)? == 0 {
                return match self.buffered() {
                    0 => Ok(None),
                    partial => Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("frame truncated: EOF with {partial} bytes buffered"),
                    ))),
                };
            }
            frame_len = self.frame_len(max)?;
        }
        let body = self.consume(frame_len);
        Ok(Some(&self.buf[body]))
    }

    /// [`FrameBuffer::read_frame_ref`] with an owned body.
    pub fn read_frame_buffered(
        &mut self,
        r: &mut impl Read,
        max: usize,
    ) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self.read_frame_ref(r, max)?.map(<[u8]>::to_vec))
    }

    /// Pull whatever bytes have *already arrived* on `stream` into the
    /// buffer without blocking, up to its spare room: a full buffer
    /// stops the fill and the rest waits in the kernel for the next
    /// batch, so per-connection memory stays bounded. The socket is
    /// flipped to non-blocking for the duration and restored before
    /// returning. EOF observed here is not an error — buffered frames
    /// are still served, and the next blocking read reports it.
    pub fn fill_nonblocking(&mut self, stream: &std::net::TcpStream) -> io::Result<()> {
        stream.set_nonblocking(true)?;
        let filled = self.fill_until_would_block(stream);
        let restored = stream.set_nonblocking(false);
        filled.and(restored)
    }

    fn fill_until_would_block(&mut self, mut stream: &std::net::TcpStream) -> io::Result<()> {
        // Every read shrinks the spare room; none left ends the loop.
        while self.start > 0 || self.filled < self.buf.len() {
            match self.fill_tail(&mut stream, false) {
                Ok(0) => return Ok(()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The one routine every read goes through: one `read` into the
    /// spare tail, retried on EINTR. Consumed bytes are compacted away
    /// first. When unconsumed bytes still fill the whole buffer, `grow`
    /// doubles it (the blocking path, whose frame at the cursor is
    /// incomplete); without `grow` nothing is read. Growing zeroes the
    /// new bytes once; reads reuse initialized bytes and never clear
    /// them. Returns the bytes read: 0 at EOF, or at a full buffer
    /// without `grow`.
    fn fill_tail(&mut self, r: &mut impl Read, grow: bool) -> io::Result<usize> {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.filled, 0);
            self.filled -= self.start;
            self.start = 0;
        }
        if self.filled == self.buf.len() {
            if !grow {
                return Ok(0);
            }
            self.buf.resize((2 * self.buf.len()).max(READ_CHUNK), 0);
        }
        loop {
            match r.read(&mut self.buf[self.filled..]) {
                Ok(n) => {
                    self.filled += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Body encoding
// ---------------------------------------------------------------------

fn push_name(out: &mut Vec<u8>, name: &str) {
    assert!(
        !name.is_empty() && name.len() <= MAX_NAME_LEN,
        "invariant: callers validate names before encoding"
    );
    let len = u16::try_from(name.len()).expect("invariant: MAX_NAME_LEN fits u16");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(name.as_bytes());
}

fn push_blob(out: &mut Vec<u8>, blob: &[u8]) {
    assert!(blob.len() <= MAX_ENCODED_LEN, "invariant: callers validate payload size");
    let len = u32::try_from(blob.len()).expect("invariant: MAX_ENCODED_LEN < u32::MAX");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(blob);
}

/// A pagination cursor: shaped like a name on the wire, but legitimately
/// empty ("start from the beginning").
fn push_cursor(out: &mut Vec<u8>, cursor: &str) {
    assert!(cursor.len() <= MAX_NAME_LEN, "invariant: cursors are stored names or empty");
    let len = u16::try_from(cursor.len()).expect("invariant: MAX_NAME_LEN fits u16");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(cursor.as_bytes());
}

fn push_message(out: &mut Vec<u8>, message: &str) {
    // Messages are server-generated; truncate defensively rather than
    // trust them to stay short.
    let bytes = message.as_bytes();
    let cut = bytes.len().min(1024);
    // Don't split a UTF-8 sequence at the cut.
    let cut = (0..=cut).rev().find(|&i| message.is_char_boundary(i)).unwrap_or(0);
    let len = u16::try_from(cut).expect("invariant: cut ≤ 1024");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&bytes[..cut]);
}

/// Encode a request body.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = vec![PROTO_VERSION];
    match req {
        Request::Put { name, sketch } => {
            out.push(op::PUT);
            push_name(&mut out, name);
            push_blob(&mut out, sketch);
        }
        Request::Get { name } => {
            out.push(op::GET);
            push_name(&mut out, name);
        }
        Request::Merge { name, sketch } => {
            out.push(op::MERGE);
            push_name(&mut out, name);
            push_blob(&mut out, sketch);
        }
        Request::Card { name } => {
            out.push(op::CARD);
            push_name(&mut out, name);
        }
        Request::Jaccard { a, b } => {
            out.push(op::JACCARD);
            push_name(&mut out, a);
            push_name(&mut out, b);
        }
        Request::BatchPut { name, p, q, r, algorithm, seed, items } => {
            out.push(op::BATCH_PUT);
            push_name(&mut out, name);
            out.push(*p);
            out.push(*q);
            out.push(*r);
            out.push(*algorithm);
            out.extend_from_slice(&seed.to_le_bytes());
            assert!(items.len() <= MAX_BATCH_ITEMS, "invariant: callers cap batch item counts");
            let count = u32::try_from(items.len()).expect("invariant: MAX_BATCH_ITEMS < u32::MAX");
            out.extend_from_slice(&count.to_le_bytes());
            for item in items {
                assert!(item.len() <= MAX_ITEM_LEN, "invariant: callers cap item lengths");
                let len = u16::try_from(item.len()).expect("invariant: MAX_ITEM_LEN fits u16");
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(item);
            }
        }
        Request::Digest { after } => {
            out.push(op::DIGEST);
            push_cursor(&mut out, after);
        }
        Request::Sync { names } => {
            out.push(op::SYNC);
            assert!(names.len() <= MAX_SYNC_NAMES, "invariant: callers cap sync name counts");
            let count = u16::try_from(names.len()).expect("invariant: MAX_SYNC_NAMES fits u16");
            out.extend_from_slice(&count.to_le_bytes());
            for name in names {
                push_name(&mut out, name);
            }
        }
        Request::ListPage { after } => {
            out.push(op::LIST_PAGE);
            push_cursor(&mut out, after);
        }
        Request::Delete { name } => {
            out.push(op::DELETE);
            push_name(&mut out, name);
        }
        Request::Scrub { trigger, after } => {
            out.push(op::SCRUB);
            out.push(u8::from(*trigger));
            push_cursor(&mut out, after);
        }
        Request::Health => out.push(op::HEALTH),
        Request::Shutdown => out.push(op::SHUTDOWN),
    }
    out
}

/// Encode a request body carrying a deadline budget.
///
/// A `budget_ms` of 0 means "no deadline" and produces the plain v1
/// body byte-for-byte, so budget-unaware callers and budget-aware
/// callers with no deadline stay indistinguishable on the wire. Any
/// other value produces a [`PROTO_VERSION_BUDGET`] body with the
/// budget spliced between the opcode and the fields.
pub fn encode_request_budget(req: &Request, budget_ms: u32) -> Vec<u8> {
    let mut out = encode_request(req);
    if budget_ms == 0 {
        return out;
    }
    debug_assert!(budget_ms <= MAX_BUDGET_MS, "invariant: callers clamp budgets to the cap");
    out[0] = PROTO_VERSION_BUDGET;
    out.splice(2..2, budget_ms.to_le_bytes());
    out
}

/// Encode a response body.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Ok => out.push(status::OK),
        Response::Sketch(bytes) => {
            out.push(status::SKETCH);
            push_blob(&mut out, bytes);
        }
        Response::Value(v) => {
            out.push(status::VALUE);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Response::NamesPage { names, partial } => {
            out.push(status::NAMES_PAGE);
            out.push(u8::from(*partial));
            assert!(names.len() <= MAX_LIST_NAMES, "invariant: servers cap list pages");
            let count = u16::try_from(names.len()).expect("invariant: MAX_LIST_NAMES fits u16");
            out.extend_from_slice(&count.to_le_bytes());
            for name in names {
                push_name(&mut out, name);
            }
        }
        Response::Health(h) => {
            out.push(status::HEALTH);
            for (_, _, value) in h.clone().scalars() {
                out.extend_from_slice(&value.get().to_le_bytes()[..value.width()]);
            }
            assert!(h.peers.len() <= MAX_PEERS, "invariant: daemons cap peer lists");
            let count = u16::try_from(h.peers.len()).expect("invariant: MAX_PEERS fits u16");
            out.extend_from_slice(&count.to_le_bytes());
            for peer in &h.peers {
                assert!(
                    !peer.addr.is_empty() && peer.addr.len() <= MAX_PEER_ADDR_LEN,
                    "invariant: peer addresses are validated at configuration time"
                );
                let len =
                    u16::try_from(peer.addr.len()).expect("invariant: MAX_PEER_ADDR_LEN fits u16");
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(peer.addr.as_bytes());
                out.push(peer.state.to_byte());
                out.extend_from_slice(&peer.last_sync_age.to_le_bytes());
                out.extend_from_slice(&peer.mismatches.to_le_bytes());
            }
        }
        Response::Digests(entries) => {
            out.push(status::DIGESTS);
            assert!(entries.len() <= MAX_DIGEST_ENTRIES, "invariant: servers cap digest pages");
            let count =
                u16::try_from(entries.len()).expect("invariant: MAX_DIGEST_ENTRIES fits u16");
            out.extend_from_slice(&count.to_le_bytes());
            for entry in entries {
                push_name(&mut out, &entry.name);
                out.extend_from_slice(&entry.checksum.to_le_bytes());
            }
        }
        Response::Sketches(entries) => {
            out.push(status::SKETCHES);
            assert!(entries.len() <= MAX_SYNC_NAMES, "invariant: servers cap sync replies");
            let count = u16::try_from(entries.len()).expect("invariant: MAX_SYNC_NAMES fits u16");
            out.extend_from_slice(&count.to_le_bytes());
            for entry in entries {
                push_name(&mut out, &entry.name);
                push_blob(&mut out, &entry.payload);
            }
        }
        Response::Scrub(report) => {
            out.push(status::SCRUB);
            out.extend_from_slice(&report.rounds.to_le_bytes());
            out.extend_from_slice(&report.records.to_le_bytes());
            out.extend_from_slice(&report.corrupt_found.to_le_bytes());
            out.extend_from_slice(&report.repaired.to_le_bytes());
            out.extend_from_slice(&report.quarantined.to_le_bytes());
            out.extend_from_slice(&report.last_scrub_age_ms.to_le_bytes());
            assert!(report.names.len() <= MAX_SCRUB_PAGE, "invariant: servers cap scrub pages");
            let count =
                u16::try_from(report.names.len()).expect("invariant: MAX_SCRUB_PAGE fits u16");
            out.extend_from_slice(&count.to_le_bytes());
            for name in &report.names {
                push_name(&mut out, name);
            }
        }
        Response::Busy => out.push(status::BUSY),
        Response::ReadOnly => out.push(status::READ_ONLY),
        Response::Expired => out.push(status::EXPIRED),
        Response::Err { code, message } => {
            out.push(status::ERR);
            out.push(code.to_byte());
            push_message(&mut out, message);
        }
    }
    out
}

// ---------------------------------------------------------------------
// Body decoding
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated { expected: n, got: self.remaining() });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn flag(&mut self) -> Result<bool, ProtoError> {
        Ok(self.u8()? != 0)
    }

    /// A name: u16 length (validated against [`MAX_NAME_LEN`] *before*
    /// any read), then that many UTF-8 bytes, non-empty.
    fn name(&mut self) -> Result<String, ProtoError> {
        let len = usize::from(self.u16()?);
        if len > MAX_NAME_LEN {
            return Err(ProtoError::FieldTooLarge { got: len, max: MAX_NAME_LEN });
        }
        if len == 0 {
            return Err(ProtoError::BadString);
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map(str::to_string).map_err(|_| ProtoError::BadString)
    }

    /// A pagination cursor: length-checked like a name but legitimately
    /// empty.
    fn cursor(&mut self) -> Result<String, ProtoError> {
        let len = usize::from(self.u16()?);
        if len > MAX_NAME_LEN {
            return Err(ProtoError::FieldTooLarge { got: len, max: MAX_NAME_LEN });
        }
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map(str::to_string).map_err(|_| ProtoError::BadString)
    }

    /// A message string like [`Cursor::name`] but possibly empty.
    fn message(&mut self) -> Result<String, ProtoError> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map(str::to_string).map_err(|_| ProtoError::BadString)
    }

    /// A batch item: u16 length validated against [`MAX_ITEM_LEN`] before
    /// any read. Unlike names, items are raw bytes and may be empty.
    fn item(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = usize::from(self.u16()?);
        if len > MAX_ITEM_LEN {
            return Err(ProtoError::FieldTooLarge { got: len, max: MAX_ITEM_LEN });
        }
        Ok(self.take(len)?.to_vec())
    }

    /// A sketch blob: u32 length validated against [`MAX_ENCODED_LEN`]
    /// before any read.
    fn blob(&mut self) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32()? as usize;
        if len > MAX_ENCODED_LEN {
            return Err(ProtoError::FieldTooLarge { got: len, max: MAX_ENCODED_LEN });
        }
        Ok(self.take(len)?.to_vec())
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

/// Decode a request body, discarding any deadline budget it carries.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtoError> {
    decode_request_budget(body).map(|(req, _)| req)
}

/// Decode a request body together with its deadline budget.
///
/// v1 bodies carry no budget and decode as `budget_ms = 0` ("no
/// deadline"). v2 ([`PROTO_VERSION_BUDGET`]) bodies carry a u32 budget
/// between the opcode and the fields; budgets above [`MAX_BUDGET_MS`]
/// are rejected as [`ProtoError::FieldTooLarge`] — a hostile frame must
/// not buy itself an unbounded deadline.
pub fn decode_request_budget(body: &[u8]) -> Result<(Request, u32), ProtoError> {
    let mut c = Cursor::new(body);
    let version = c.u8()?;
    if version != PROTO_VERSION && version != PROTO_VERSION_BUDGET {
        return Err(ProtoError::BadVersion(version));
    }
    let opcode = c.u8()?;
    let budget_ms = if version == PROTO_VERSION_BUDGET {
        let budget = c.u32()?;
        if budget > MAX_BUDGET_MS {
            return Err(ProtoError::FieldTooLarge {
                got: budget as usize,
                max: MAX_BUDGET_MS as usize,
            });
        }
        budget
    } else {
        0
    };
    let req = match opcode {
        op::PUT => Request::Put { name: c.name()?, sketch: c.blob()? },
        op::GET => Request::Get { name: c.name()? },
        op::MERGE => Request::Merge { name: c.name()?, sketch: c.blob()? },
        op::CARD => Request::Card { name: c.name()? },
        op::JACCARD => Request::Jaccard { a: c.name()?, b: c.name()? },
        op::BATCH_PUT => {
            let name = c.name()?;
            let p = c.u8()?;
            let q = c.u8()?;
            let r = c.u8()?;
            let algorithm = c.u8()?;
            let seed = c.u64()?;
            let count = c.u32()? as usize;
            if count > MAX_BATCH_ITEMS {
                return Err(ProtoError::FieldTooLarge { got: count, max: MAX_BATCH_ITEMS });
            }
            // Bound the allocation by bytes present: each item costs ≥ 2
            // wire bytes, so a lying count fails fast on Truncated.
            let mut items = Vec::with_capacity(count.min(c.remaining() / 2 + 1));
            for _ in 0..count {
                items.push(c.item()?);
            }
            Request::BatchPut { name, p, q, r, algorithm, seed, items }
        }
        op::DIGEST => Request::Digest { after: c.cursor()? },
        op::SYNC => {
            let count = usize::from(c.u16()?);
            if count > MAX_SYNC_NAMES {
                return Err(ProtoError::FieldTooLarge { got: count, max: MAX_SYNC_NAMES });
            }
            // Bound the allocation by bytes present: each name costs ≥ 3
            // wire bytes, so a lying count fails fast on Truncated.
            let mut names = Vec::with_capacity(count.min(c.remaining() / 3 + 1));
            for _ in 0..count {
                names.push(c.name()?);
            }
            Request::Sync { names }
        }
        op::LIST_PAGE => Request::ListPage { after: c.cursor()? },
        op::DELETE => Request::Delete { name: c.name()? },
        op::SCRUB => Request::Scrub { trigger: c.flag()?, after: c.cursor()? },
        op::HEALTH => Request::Health,
        op::SHUTDOWN => Request::Shutdown,
        other => return Err(ProtoError::UnknownOp(other)),
    };
    c.finish()?;
    Ok((req, budget_ms))
}

/// Decode a response body.
pub fn decode_response(body: &[u8]) -> Result<Response, ProtoError> {
    let mut c = Cursor::new(body);
    let resp = match c.u8()? {
        status::OK => Response::Ok,
        status::SKETCH => Response::Sketch(c.blob()?),
        status::VALUE => Response::Value(c.f64()?),
        status::NAMES_PAGE => {
            let partial = c.flag()?;
            let count = usize::from(c.u16()?);
            if count > MAX_LIST_NAMES {
                return Err(ProtoError::FieldTooLarge { got: count, max: MAX_LIST_NAMES });
            }
            // Bound the allocation by bytes present: each name costs ≥ 3
            // wire bytes, so a lying count fails fast on Truncated.
            let mut names = Vec::with_capacity(count.min(c.remaining() / 3 + 1));
            for _ in 0..count {
                names.push(c.name()?);
            }
            Response::NamesPage { names, partial }
        }
        status::HEALTH => {
            let mut h = Health::default();
            for (_, _, mut value) in h.scalars() {
                let mut le = [0u8; 8];
                le[..value.width()].copy_from_slice(c.take(value.width())?);
                value.set(u64::from_le_bytes(le));
            }
            let count = usize::from(c.u16()?);
            if count > MAX_PEERS {
                return Err(ProtoError::FieldTooLarge { got: count, max: MAX_PEERS });
            }
            for _ in 0..count {
                let len = usize::from(c.u16()?);
                if len > MAX_PEER_ADDR_LEN {
                    return Err(ProtoError::FieldTooLarge { got: len, max: MAX_PEER_ADDR_LEN });
                }
                if len == 0 {
                    return Err(ProtoError::BadString);
                }
                let addr = std::str::from_utf8(c.take(len)?)
                    .map(str::to_string)
                    .map_err(|_| ProtoError::BadString)?;
                h.peers.push(PeerHealth {
                    addr,
                    state: PeerState::from_byte(c.u8()?)?,
                    last_sync_age: c.u64()?,
                    mismatches: c.u64()?,
                });
            }
            Response::Health(h)
        }
        status::DIGESTS => {
            let count = usize::from(c.u16()?);
            if count > MAX_DIGEST_ENTRIES {
                return Err(ProtoError::FieldTooLarge { got: count, max: MAX_DIGEST_ENTRIES });
            }
            // Bound the allocation by bytes present: each entry costs
            // ≥ 11 wire bytes, so a lying count fails fast on Truncated.
            let mut entries = Vec::with_capacity(count.min(c.remaining() / 11 + 1));
            for _ in 0..count {
                entries.push(DigestEntry { name: c.name()?, checksum: c.u64()? });
            }
            Response::Digests(entries)
        }
        status::SKETCHES => {
            let count = usize::from(c.u16()?);
            if count > MAX_SYNC_NAMES {
                return Err(ProtoError::FieldTooLarge { got: count, max: MAX_SYNC_NAMES });
            }
            let mut entries = Vec::with_capacity(count.min(c.remaining() / 7 + 1));
            for _ in 0..count {
                entries.push(SyncEntry { name: c.name()?, payload: c.blob()? });
            }
            Response::Sketches(entries)
        }
        status::SCRUB => {
            let mut report = ScrubReport {
                rounds: c.u64()?,
                records: c.u64()?,
                corrupt_found: c.u64()?,
                repaired: c.u64()?,
                quarantined: c.u64()?,
                last_scrub_age_ms: c.u64()?,
                names: Vec::new(),
            };
            let count = usize::from(c.u16()?);
            if count > MAX_SCRUB_PAGE {
                return Err(ProtoError::FieldTooLarge { got: count, max: MAX_SCRUB_PAGE });
            }
            // Bound the allocation by bytes present: each name costs ≥ 3
            // wire bytes, so a lying count fails fast on Truncated.
            report.names.reserve(count.min(c.remaining() / 3 + 1));
            for _ in 0..count {
                report.names.push(c.name()?);
            }
            Response::Scrub(report)
        }
        status::BUSY => Response::Busy,
        status::READ_ONLY => Response::ReadOnly,
        status::EXPIRED => Response::Expired,
        status::ERR => {
            let code = ErrCode::from_byte(c.u8()?);
            Response::Err { code, message: c.message()? }
        }
        other => return Err(ProtoError::UnknownStatus(other)),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let body = encode_request(&req);
        assert_eq!(decode_request(&body).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let body = encode_response(&resp);
        assert_eq!(decode_response(&body).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Put { name: "a".into(), sketch: vec![1, 2, 3] });
        round_trip_request(Request::Get { name: "日本語".into() });
        round_trip_request(Request::Merge { name: "m".into(), sketch: vec![0; 1000] });
        round_trip_request(Request::Card { name: "c".into() });
        round_trip_request(Request::Jaccard { a: "x".into(), b: "y".into() });
        round_trip_request(Request::ListPage { after: String::new() });
        round_trip_request(Request::ListPage { after: "resume-after-me".into() });
        round_trip_request(Request::Delete { name: "doomed".into() });
        round_trip_request(Request::Health);
        round_trip_request(Request::Scrub { trigger: false, after: String::new() });
        round_trip_request(Request::Scrub { trigger: true, after: "resume-after-me".into() });
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::BatchPut {
            name: "events".into(),
            p: 8,
            q: 6,
            r: 6,
            algorithm: 0,
            seed: 0xDEAD_BEEF,
            items: vec![b"alpha".to_vec(), Vec::new(), vec![0xff; MAX_ITEM_LEN]],
        });
        round_trip_request(Request::BatchPut {
            name: "empty-batch".into(),
            p: 4,
            q: 3,
            r: 4,
            algorithm: 3,
            seed: 0,
            items: Vec::new(),
        });
    }

    #[test]
    fn batch_put_adversarial_bodies_are_typed_errors() {
        let header = |count: u32| {
            let mut b = vec![PROTO_VERSION, op::BATCH_PUT];
            b.extend_from_slice(&2u16.to_le_bytes());
            b.extend_from_slice(b"bp");
            b.extend_from_slice(&[8, 6, 6, 0]); // p q r algorithm
            b.extend_from_slice(&7u64.to_le_bytes()); // seed
            b.extend_from_slice(&count.to_le_bytes());
            b
        };
        // Lying count: claims 1000 items, carries none.
        assert!(matches!(
            decode_request(&header(1000)),
            Err(ProtoError::Truncated { expected: 2, got: 0 })
        ));
        // Oversize batch: count over the protocol cap fails before any
        // item bytes are believed.
        let claim = u32::try_from(MAX_BATCH_ITEMS + 1).unwrap();
        assert_eq!(
            decode_request(&header(claim)),
            Err(ProtoError::FieldTooLarge { got: MAX_BATCH_ITEMS + 1, max: MAX_BATCH_ITEMS })
        );
        // Oversize item: length over MAX_ITEM_LEN is rejected unread.
        let mut b = header(1);
        b.extend_from_slice(&u16::try_from(MAX_ITEM_LEN + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_request(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_ITEM_LEN + 1, max: MAX_ITEM_LEN })
        );
        // Truncated item list: second item's bytes missing.
        let mut b = header(2);
        b.extend_from_slice(&3u16.to_le_bytes());
        b.extend_from_slice(b"abc");
        b.extend_from_slice(&9u16.to_le_bytes());
        b.extend_from_slice(b"shor"); // 4 of 9 declared bytes
        assert_eq!(decode_request(&b), Err(ProtoError::Truncated { expected: 9, got: 4 }));
        // Trailing junk after a complete batch.
        let mut b = header(1);
        b.extend_from_slice(&1u16.to_le_bytes());
        b.push(b'x');
        b.push(0);
        assert_eq!(decode_request(&b), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Ok);
        round_trip_response(Response::Sketch(vec![9; 321]));
        round_trip_response(Response::Value(0.123456789));
        round_trip_response(Response::Value(f64::NAN.to_bits() as f64)); // bit-exact via to_le_bytes
        round_trip_response(Response::NamesPage {
            names: vec!["a".into(), "bb".into(), "ccc".into()],
            partial: false,
        });
        round_trip_response(Response::NamesPage { names: Vec::new(), partial: true });
        round_trip_response(Response::NamesPage {
            names: (0..MAX_LIST_NAMES).map(|i| format!("n{i:04}")).collect(),
            partial: false,
        });
        round_trip_response(Response::Health(Health {
            read_only: true,
            workers: 4,
            queue_capacity: 16,
            queue_depth: 3,
            active: 2,
            shed: 99,
            served: 12345,
            sketches: 7,
            store_clean: false,
            quarantined: 2,
            truncated_tail: true,
            rounds: 41,
            route_epoch: 3,
            route_handoffs: 1729,
            expired: 314,
            retry_exhausted: 27,
            breaker_open: 9,
            scrub_rounds: 6,
            records_scrubbed: 4242,
            corrupt_found: 3,
            repaired: 2,
            scrub_quarantined: 1,
            last_scrub_age_ms: 1500,
            peers: vec![
                PeerHealth {
                    addr: "10.0.0.7:7700".into(),
                    state: PeerState::Healthy,
                    last_sync_age: 0,
                    mismatches: 12,
                },
                PeerHealth {
                    addr: "10.0.0.8:7700".into(),
                    state: PeerState::Down,
                    last_sync_age: u64::MAX,
                    mismatches: 0,
                },
            ],
        }));
        round_trip_response(Response::Busy);
        round_trip_response(Response::ReadOnly);
        round_trip_response(Response::Expired);
        round_trip_response(Response::Err {
            code: ErrCode::NotFound,
            message: "no such sketch".into(),
        });
        round_trip_response(Response::Err { code: ErrCode::Other(200), message: String::new() });
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request::Put { name: "frame".into(), sketch: vec![5; 100] };
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&req)).unwrap();
        write_frame(&mut wire, &encode_request(&Request::Health)).unwrap();
        let mut r = &wire[..];
        let one = read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap();
        let two = read_frame(&mut r, MAX_FRAME_LEN).unwrap().unwrap();
        assert_eq!(decode_request(&one).unwrap(), req);
        assert_eq!(decode_request(&two).unwrap(), Request::Health);
        assert!(read_frame(&mut r, MAX_FRAME_LEN).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_prefix_is_typed_and_unread() {
        // Length prefix claims 4 GiB; nothing but the prefix is consumed.
        let mut wire = u32::MAX.to_le_bytes().to_vec();
        wire.extend_from_slice(b"leftover");
        let mut r = &wire[..];
        match read_frame(&mut r, MAX_FRAME_LEN) {
            Err(FrameError::TooLarge { got, max }) => {
                assert_eq!(got, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(r, b"leftover", "body bytes must not be consumed");
    }

    /// One scripted `read` outcome.
    enum Step {
        Data(Vec<u8>),
        Interrupted,
        TimedOut,
    }

    /// A `Read` that replays a script, then reports EOF. A `Data` step
    /// larger than the caller's buffer is delivered across several reads.
    struct Script(std::collections::VecDeque<Step>);

    impl Script {
        fn new(steps: Vec<Step>) -> Self {
            Script(steps.into())
        }

        /// Bytes still waiting to be read.
        fn pending(&self) -> usize {
            self.0.iter().map(|s| if let Step::Data(d) = s { d.len() } else { 0 }).sum()
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Step::Interrupted) => Err(io::ErrorKind::Interrupted.into()),
                Some(Step::TimedOut) => Err(io::ErrorKind::TimedOut.into()),
                Some(Step::Data(mut data)) => {
                    let n = data.len().min(buf.len());
                    buf[..n].copy_from_slice(&data[..n]);
                    if n < data.len() {
                        self.0.push_front(Step::Data(data.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    /// Three framed bodies of distinct sizes, concatenated on one wire.
    fn three_frames() -> (Vec<Vec<u8>>, Vec<u8>) {
        let bodies = vec![vec![1u8; 3], Vec::new(), vec![7u8; 300]];
        let mut wire = Vec::new();
        for body in &bodies {
            write_frame(&mut wire, body).unwrap();
        }
        (bodies, wire)
    }

    /// Drain `script` through one buffer, riding out timeouts the way a
    /// caller with a read deadline would. At every timeout each byte
    /// read so far is either in a returned frame or still buffered.
    fn drain(frames: &mut FrameBuffer, script: &mut Script) -> Result<Vec<Vec<u8>>, FrameError> {
        let total = script.pending();
        let mut out: Vec<Vec<u8>> = Vec::new();
        loop {
            match frames.read_frame_buffered(script, MAX_FRAME_LEN) {
                Ok(Some(body)) => out.push(body),
                Ok(None) => return Ok(out),
                Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::TimedOut => {
                    let framed: usize = out.iter().map(|b| 4 + b.len()).sum();
                    let read = total - script.pending();
                    assert_eq!(framed + frames.buffered(), read, "a timeout lost bytes");
                }
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn frame_buffer_yields_whole_frames_in_order_at_every_split() {
        let (bodies, wire) = three_frames();
        // An empty read is EOF, so both halves stay non-empty.
        for split in 1..wire.len() {
            let mut script = Script::new(vec![
                Step::Data(wire[..split].to_vec()),
                Step::Interrupted,
                Step::TimedOut,
                Step::Data(wire[split..].to_vec()),
                Step::TimedOut,
            ]);
            let mut frames = FrameBuffer::new();
            let got = drain(&mut frames, &mut script).unwrap();
            assert_eq!(got, bodies, "split at {split}");
        }
        // One byte per read, an interruption and a timeout between each.
        let mut steps = Vec::new();
        for &b in &wire {
            steps.extend([Step::Data(vec![b]), Step::Interrupted, Step::TimedOut]);
        }
        let mut frames = FrameBuffer::new();
        assert_eq!(drain(&mut frames, &mut Script::new(steps)).unwrap(), bodies);
    }

    #[test]
    fn frame_buffer_keeps_a_partial_frame_across_a_timeout() {
        let (bodies, wire) = three_frames();
        // Cut inside the third frame's body.
        let cut = wire.len() - 100;
        let mut script = Script::new(vec![
            Step::Data(wire[..cut].to_vec()),
            Step::TimedOut,
            Step::Data(wire[cut..].to_vec()),
        ]);
        let mut frames = FrameBuffer::new();
        for body in &bodies[..2] {
            assert_eq!(
                frames.read_frame_buffered(&mut script, MAX_FRAME_LEN).unwrap().as_ref(),
                Some(body)
            );
        }
        let partial = frames.buffered();
        assert!(partial > 0, "the third frame's head is buffered");
        match frames.read_frame_buffered(&mut script, MAX_FRAME_LEN) {
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::TimedOut => {}
            other => panic!("expected the scripted timeout, got {other:?}"),
        }
        assert_eq!(frames.buffered(), partial, "the timeout kept the partial frame");
        let third = frames.read_frame_buffered(&mut script, MAX_FRAME_LEN).unwrap();
        assert_eq!(third.as_ref(), Some(&bodies[2]));
    }

    #[test]
    fn frame_buffer_eof_is_clean_only_at_a_frame_boundary() {
        let (bodies, wire) = three_frames();
        let mut boundaries = vec![0];
        for body in &bodies {
            boundaries.push(boundaries.last().unwrap() + 4 + body.len());
        }
        for cut in 0..=wire.len() {
            let mut script = Script::new(vec![Step::Data(wire[..cut].to_vec())]);
            let whole = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
            let mut frames = FrameBuffer::new();
            let mut got = Vec::new();
            let end = loop {
                match frames.read_frame_buffered(&mut script, MAX_FRAME_LEN) {
                    Ok(Some(body)) => got.push(body),
                    other => break other,
                }
            };
            assert_eq!(got, bodies[..whole], "cut at {cut}");
            if boundaries.contains(&cut) {
                assert!(matches!(end, Ok(None)), "cut at boundary {cut}: {end:?}");
            } else {
                assert!(
                    matches!(end, Err(FrameError::Io(ref e)) if e.kind() == io::ErrorKind::UnexpectedEof),
                    "cut at {cut}: {end:?}"
                );
            }
        }
    }

    #[test]
    fn frame_buffer_refuses_a_lying_prefix_before_reading_the_body() {
        let body = b"never believed".to_vec();
        let mut script = Script::new(vec![
            Step::Data(u32::MAX.to_le_bytes().to_vec()),
            Step::Data(body.clone()),
        ]);
        let mut frames = FrameBuffer::new();
        match frames.read_frame_buffered(&mut script, MAX_FRAME_LEN) {
            Err(FrameError::TooLarge { got, max }) => {
                assert_eq!(got, u32::MAX as usize);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        assert_eq!(script.pending(), body.len(), "no body byte was read");
        assert!(frames.buf.len() <= READ_CHUNK, "a claimed length allocates nothing");
    }

    #[test]
    fn frame_buffer_grows_for_a_frame_larger_than_its_initial_size() {
        let big: Vec<u8> = (0..3 * READ_CHUNK + 5).map(|i| i as u8).collect();
        let mut wire = Vec::new();
        write_frame(&mut wire, &big).unwrap();
        write_frame(&mut wire, b"after").unwrap();
        let mut script = Script::new(vec![Step::Data(wire)]);
        let mut frames = FrameBuffer::new();
        let got = frames.read_frame_ref(&mut script, MAX_FRAME_LEN).unwrap();
        assert_eq!(got, Some(&big[..]));
        assert_eq!(frames.buf.len(), 4 * READ_CHUNK, "doubled from the initial size");
        let next = frames.read_frame_buffered(&mut script, MAX_FRAME_LEN).unwrap();
        assert_eq!(next.as_deref(), Some(&b"after"[..]));
        assert!(frames.read_frame_buffered(&mut script, MAX_FRAME_LEN).unwrap().is_none());
        assert_eq!(frames.buf.len(), 4 * READ_CHUNK, "no growth for frames that fit");
    }

    #[test]
    fn frame_buffer_fill_without_growth_stops_at_a_full_buffer() {
        let mut frames = FrameBuffer::new();
        let mut script =
            Script::new(vec![Step::Data(vec![0u8; 4]), Step::Data(vec![9u8; 2 * READ_CHUNK])]);
        assert_eq!(frames.fill_tail(&mut script, true).unwrap(), 4);
        assert_eq!(frames.fill_tail(&mut script, false).unwrap(), READ_CHUNK - 4);
        assert_eq!(frames.fill_tail(&mut script, false).unwrap(), 0, "full: nothing read");
        assert_eq!(frames.buf.len(), READ_CHUNK, "no growth without `grow`");
        assert_eq!(script.pending(), READ_CHUNK + 4);
    }

    #[test]
    fn truncated_frames_error_at_every_cut() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &encode_request(&Request::Get { name: "x".into() })).unwrap();
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            let err = read_frame(&mut r, MAX_FRAME_LEN);
            assert!(
                matches!(err, Err(FrameError::Io(ref e)) if e.kind() == io::ErrorKind::UnexpectedEof),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn adversarial_bodies_are_typed_errors() {
        // Version/opcode garbage.
        assert_eq!(decode_request(&[]), Err(ProtoError::Truncated { expected: 1, got: 0 }));
        assert_eq!(decode_request(&[9, op::HEALTH]), Err(ProtoError::BadVersion(9)));
        assert_eq!(decode_request(&[PROTO_VERSION, 0xEE]), Err(ProtoError::UnknownOp(0xEE)));
        // Name length lies: claims 5000 (over cap) and 500 (unbacked).
        let mut b = vec![PROTO_VERSION, op::GET];
        b.extend_from_slice(&5000u16.to_le_bytes());
        assert_eq!(
            decode_request(&b),
            Err(ProtoError::FieldTooLarge { got: 5000, max: MAX_NAME_LEN })
        );
        let mut b = vec![PROTO_VERSION, op::GET];
        b.extend_from_slice(&500u16.to_le_bytes());
        b.extend_from_slice(b"abc");
        assert_eq!(decode_request(&b), Err(ProtoError::Truncated { expected: 500, got: 3 }));
        // Empty and non-UTF-8 names.
        let mut b = vec![PROTO_VERSION, op::GET];
        b.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(decode_request(&b), Err(ProtoError::BadString));
        let mut b = vec![PROTO_VERSION, op::GET];
        b.extend_from_slice(&2u16.to_le_bytes());
        b.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(decode_request(&b), Err(ProtoError::BadString));
        // Sketch blob claiming more than the format ceiling.
        let mut b = vec![PROTO_VERSION, op::PUT];
        b.extend_from_slice(&1u16.to_le_bytes());
        b.push(b'x');
        let claim = match u32::try_from(MAX_ENCODED_LEN + 1) {
            Ok(claim) => claim,
            Err(_) => unreachable!("test constant fits u32"),
        };
        b.extend_from_slice(&claim.to_le_bytes());
        assert_eq!(
            decode_request(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_ENCODED_LEN + 1, max: MAX_ENCODED_LEN })
        );
        // Trailing junk after a complete request.
        let mut b = encode_request(&Request::Health);
        b.push(0);
        assert_eq!(decode_request(&b), Err(ProtoError::TrailingBytes(1)));
        // Response side: unknown status.
        assert_eq!(decode_response(&[0x33]), Err(ProtoError::UnknownStatus(0x33)));
    }

    #[test]
    fn list_page_adversarial_bodies_are_typed_errors() {
        // LIST_PAGE request with an oversized cursor length claim.
        let mut b = vec![PROTO_VERSION, op::LIST_PAGE];
        b.extend_from_slice(&u16::try_from(MAX_NAME_LEN + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_request(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_NAME_LEN + 1, max: MAX_NAME_LEN })
        );
        // NAMES_PAGE response with a count over the page cap: rejected
        // before any name bytes are believed.
        let mut b = vec![status::NAMES_PAGE, 0];
        b.extend_from_slice(&u16::try_from(MAX_LIST_NAMES + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_response(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_LIST_NAMES + 1, max: MAX_LIST_NAMES })
        );
        // NAMES_PAGE response lying about its name count.
        let mut b = vec![status::NAMES_PAGE, 1];
        b.extend_from_slice(&100u16.to_le_bytes());
        b.extend_from_slice(&1u16.to_le_bytes());
        b.push(b'x');
        assert!(matches!(decode_response(&b), Err(ProtoError::Truncated { .. })));
        // DELETE request with an empty name.
        let mut b = vec![PROTO_VERSION, op::DELETE];
        b.extend_from_slice(&0u16.to_le_bytes());
        assert_eq!(decode_request(&b), Err(ProtoError::BadString));
    }

    #[test]
    fn random_garbage_never_panics() {
        // Seeded LCG garbage of many lengths through both decoders: every
        // outcome is Ok or a typed error, never a panic.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for len in [0usize, 1, 2, 3, 7, 16, 64, 257, 1024] {
            for _ in 0..32 {
                let body: Vec<u8> = (0..len).map(|_| next()).collect();
                let _ = decode_request(&body);
                let _ = decode_response(&body);
            }
        }
    }

    #[test]
    fn replication_messages_round_trip() {
        round_trip_request(Request::Digest { after: String::new() });
        round_trip_request(Request::Digest { after: "cursor-name".into() });
        round_trip_request(Request::Sync { names: vec!["a".into(), "b".into()] });
        round_trip_request(Request::Sync {
            names: (0..MAX_SYNC_NAMES).map(|i| format!("n{i}")).collect(),
        });
        round_trip_response(Response::Digests(Vec::new()));
        round_trip_response(Response::Digests(vec![
            DigestEntry { name: "alpha".into(), checksum: 0 },
            DigestEntry { name: "beta".into(), checksum: u64::MAX },
        ]));
        round_trip_response(Response::Sketches(Vec::new()));
        round_trip_response(Response::Sketches(vec![
            SyncEntry { name: "full".into(), payload: vec![7; 513] },
            SyncEntry { name: "vanished".into(), payload: Vec::new() },
        ]));
        round_trip_response(Response::Health(Health {
            rounds: u64::MAX,
            peers: Vec::new(),
            ..Health::default()
        }));
    }

    #[test]
    fn peer_state_bytes_round_trip() {
        for state in [PeerState::Healthy, PeerState::Suspect, PeerState::Down] {
            assert_eq!(PeerState::from_byte(state.to_byte()).unwrap(), state);
        }
        assert_eq!(PeerState::from_byte(3), Err(ProtoError::UnknownEnum(3)));
        assert_eq!(PeerState::from_byte(0xFF), Err(ProtoError::UnknownEnum(0xFF)));
    }

    #[test]
    fn replication_adversarial_bodies_are_typed_errors() {
        // DIGEST with an oversized cursor length claim.
        let mut b = vec![PROTO_VERSION, op::DIGEST];
        b.extend_from_slice(&u16::try_from(MAX_NAME_LEN + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_request(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_NAME_LEN + 1, max: MAX_NAME_LEN })
        );
        // SYNC request claiming more names than the protocol cap.
        let mut b = vec![PROTO_VERSION, op::SYNC];
        b.extend_from_slice(&u16::try_from(MAX_SYNC_NAMES + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_request(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_SYNC_NAMES + 1, max: MAX_SYNC_NAMES })
        );
        // SYNC request whose name count lies about the bytes behind it.
        let mut b = vec![PROTO_VERSION, op::SYNC];
        b.extend_from_slice(&5u16.to_le_bytes());
        b.extend_from_slice(&1u16.to_le_bytes());
        b.push(b'x');
        assert!(matches!(decode_request(&b), Err(ProtoError::Truncated { .. })));
        // DIGESTS response lying about its entry count.
        let mut b = vec![status::DIGESTS];
        b.extend_from_slice(&100u16.to_le_bytes());
        assert!(matches!(decode_response(&b), Err(ProtoError::Truncated { .. })));
        // DIGESTS response with a count over the page cap.
        let mut b = vec![status::DIGESTS];
        b.extend_from_slice(&u16::try_from(MAX_DIGEST_ENTRIES + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_response(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_DIGEST_ENTRIES + 1, max: MAX_DIGEST_ENTRIES })
        );
        // SKETCHES response whose payload claims more than the format ceiling.
        let mut b = vec![status::SKETCHES];
        b.extend_from_slice(&1u16.to_le_bytes());
        b.extend_from_slice(&1u16.to_le_bytes());
        b.push(b'x');
        let claim = u32::try_from(MAX_ENCODED_LEN + 1).expect("invariant: test constant fits u32");
        b.extend_from_slice(&claim.to_le_bytes());
        assert_eq!(
            decode_response(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_ENCODED_LEN + 1, max: MAX_ENCODED_LEN })
        );
        // HEALTH response with a peer count over the cap.
        let mut b = encode_response(&Response::Health(Health::default()));
        let n = b.len();
        b[n - 2..].copy_from_slice(&u16::try_from(MAX_PEERS + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_response(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_PEERS + 1, max: MAX_PEERS })
        );
        // HEALTH response with an unknown peer-state byte.
        let mut b = encode_response(&Response::Health(Health {
            peers: vec![PeerHealth {
                addr: "p".into(),
                state: PeerState::Healthy,
                last_sync_age: 0,
                mismatches: 0,
            }],
            ..Health::default()
        }));
        let state_off = b.len() - 17; // state byte sits before two trailing u64s
        assert_eq!(b[state_off], PeerState::Healthy.to_byte());
        b[state_off] = 9;
        assert_eq!(decode_response(&b), Err(ProtoError::UnknownEnum(9)));
    }

    #[test]
    fn budget_frames_round_trip_and_v1_decodes_as_no_deadline() {
        // Every opcode carries a budget unchanged through a v2 body.
        let reqs = [
            Request::Put { name: "a".into(), sketch: vec![1, 2, 3] },
            Request::Get { name: "g".into() },
            Request::Merge { name: "m".into(), sketch: vec![0; 64] },
            Request::Card { name: "c".into() },
            Request::Jaccard { a: "x".into(), b: "y".into() },
            Request::Digest { after: String::new() },
            Request::Sync { names: vec!["s".into()] },
            Request::ListPage { after: "after".into() },
            Request::Delete { name: "d".into() },
            Request::Health,
            Request::Scrub { trigger: true, after: "cursor".into() },
            Request::Shutdown,
            Request::BatchPut {
                name: "b".into(),
                p: 8,
                q: 6,
                r: 6,
                algorithm: 0,
                seed: 7,
                items: vec![b"one".to_vec()],
            },
        ];
        for req in reqs {
            for budget in [1u32, 250, MAX_BUDGET_MS] {
                let body = encode_request_budget(&req, budget);
                assert_eq!(body[0], PROTO_VERSION_BUDGET);
                assert_eq!(decode_request_budget(&body).unwrap(), (req.clone(), budget));
                // Budget-unaware decoding still understands the request.
                assert_eq!(decode_request(&body).unwrap(), req);
            }
            // Budget 0 is byte-identical to the v1 encoding: no deadline
            // is not a distinguishable wire state.
            let body = encode_request_budget(&req, 0);
            assert_eq!(body, encode_request(&req));
            assert_eq!(decode_request_budget(&body).unwrap(), (req, 0));
        }
    }

    #[test]
    fn budget_adversarial_bodies_are_typed_errors() {
        // A budget over the cap must not buy an unbounded deadline.
        let mut b = vec![PROTO_VERSION_BUDGET, op::HEALTH];
        b.extend_from_slice(&(MAX_BUDGET_MS + 1).to_le_bytes());
        assert_eq!(
            decode_request_budget(&b),
            Err(ProtoError::FieldTooLarge {
                got: (MAX_BUDGET_MS + 1) as usize,
                max: MAX_BUDGET_MS as usize,
            })
        );
        // A v2 header cut off mid-budget is Truncated, not misparsed.
        let b = [PROTO_VERSION_BUDGET, op::HEALTH, 0x10, 0x00];
        assert!(matches!(decode_request_budget(&b), Err(ProtoError::Truncated { .. })));
        // Unknown versions stay rejected; v2 is the only extension.
        assert_eq!(decode_request_budget(&[3, op::HEALTH]), Err(ProtoError::BadVersion(3)));
    }

    #[test]
    fn retired_list_op_and_names_status_stay_unknown() {
        // Opcode 6 (the unpaginated LIST) and status 3 (its NAMES reply)
        // are reserved: both request forms, with and without a budget,
        // and the old reply are typed refusals, never another message.
        assert_eq!(decode_request(&[PROTO_VERSION, 6]), Err(ProtoError::UnknownOp(6)));
        let mut b = vec![PROTO_VERSION_BUDGET, 6];
        b.extend_from_slice(&250u32.to_le_bytes());
        assert_eq!(decode_request_budget(&b), Err(ProtoError::UnknownOp(6)));
        let mut b = vec![3u8];
        b.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(decode_response(&b), Err(ProtoError::UnknownStatus(3)));
    }

    #[test]
    fn every_health_scalar_round_trips() {
        // Each row gets a distinct value that fills its wire width, so
        // a row the codec drops, reorders or narrows fails here; a new
        // scalar is covered by adding its row.
        let mut h = Health::default();
        for (i, (label, _, mut value)) in (0u64..).zip(h.scalars()) {
            match value {
                Scalar::Bool(_) => value.set(1),
                Scalar::U32(_) | Scalar::Capacity(_) => value.set(u64::from(u32::MAX) - i),
                Scalar::U64(_) | Scalar::AgeMs(_) => value.set(u64::MAX - i),
            }
            assert_ne!(value.get(), 0, "{label} must differ from its default");
        }
        round_trip_response(Response::Health(h));
    }

    #[test]
    fn health_fold_follows_each_rows_rule() {
        let own = Health { workers: 4, served: 9, expired: 1, route_epoch: 3, ..Health::default() };
        let shard_a = Health {
            workers: 2,
            served: 100,
            expired: 2,
            route_epoch: 7,
            sketches: 10,
            store_clean: true,
            quarantined: 1,
            rounds: 5,
            last_scrub_age_ms: 30,
            ..Health::default()
        };
        let shard_b = Health {
            read_only: true,
            sketches: 5,
            truncated_tail: true,
            quarantined: 2,
            rounds: 1,
            last_scrub_age_ms: 10,
            ..Health::default()
        };
        let h = own.fold([shard_a, shard_b]);
        // Own rows keep the folding process's values; Sum, Max, Any and
        // All fold.
        assert_eq!((h.workers, h.served, h.route_epoch), (4, 9, 3));
        assert_eq!((h.expired, h.sketches, h.quarantined, h.rounds), (3, 15, 3, 6));
        assert_eq!(h.last_scrub_age_ms, 30);
        assert!(h.read_only && h.truncated_tail && !h.store_clean);
        // An unreachable shard pins the scrub age at "never"; sums saturate.
        let h = h.fold([Health::unreachable(), Health { sketches: u64::MAX, ..Health::default() }]);
        assert_eq!((h.last_scrub_age_ms, h.sketches), (u64::MAX, u64::MAX));
    }

    /// A HEALTH snapshot with every scalar distinct (no two integer
    /// rows share a value, and each one fills its whole wire width) and
    /// two peers.
    fn golden_health() -> Health {
        Health {
            read_only: true,
            workers: 0x0102_0304,
            queue_capacity: 0x0506_0708,
            queue_depth: 0x090A_0B0C,
            active: 0x0D0E_0F10,
            shed: 0x1112_1314_1516_1718,
            served: 0x191A_1B1C_1D1E_1F20,
            sketches: 0x2122_2324_2526_2728,
            store_clean: false,
            quarantined: 0x292A_2B2C_2D2E_2F30,
            truncated_tail: true,
            rounds: 0x3132_3334_3536_3738,
            route_epoch: 0x393A_3B3C_3D3E_3F40,
            route_handoffs: 0x4142_4344_4546_4748,
            expired: 0x494A_4B4C_4D4E_4F50,
            retry_exhausted: 0x5152_5354_5556_5758,
            breaker_open: 0x595A_5B5C_5D5E_5F60,
            scrub_rounds: 0x6162_6364_6566_6768,
            records_scrubbed: 0x696A_6B6C_6D6E_6F70,
            corrupt_found: 0x7172_7374_7576_7778,
            repaired: 0x797A_7B7C_7D7E_7F80,
            scrub_quarantined: 0x8182_8384_8586_8788,
            last_scrub_age_ms: 0x898A_8B8C_8D8E_8F90,
            peers: vec![
                PeerHealth {
                    addr: "10.0.0.1:7000".into(),
                    state: PeerState::Suspect,
                    last_sync_age: 3,
                    mismatches: 0xA1A2_A3A4_A5A6_A7A8,
                },
                PeerHealth {
                    addr: "b".into(),
                    state: PeerState::Down,
                    last_sync_age: u64::MAX,
                    mismatches: 0,
                },
            ],
        }
    }

    #[test]
    fn health_encoding_matches_golden_bytes() {
        let hex: String = encode_response(&Response::Health(golden_health()))
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        // Captured before the codec became table-driven.
        let golden = concat!(
            // status: HEALTH
            "04",
            // read_only, workers, queue_capacity, queue_depth, active
            "0104030201080706050c0b0a09100f0e0d",
            // shed, served, sketches
            "1817161514131211201f1e1d1c1b1a192827262524232221",
            // store_clean, quarantined, truncated_tail
            "00302f2e2d2c2b2a2901",
            // rounds, route_epoch, route_handoffs
            "3837363534333231403f3e3d3c3b3a394847464544434241",
            // expired, retry_exhausted, breaker_open
            "504f4e4d4c4b4a495857565554535251605f5e5d5c5b5a59",
            // scrub_rounds, records_scrubbed, corrupt_found
            "6867666564636261706f6e6d6c6b6a697877767574737271",
            // repaired, scrub_quarantined, last_scrub_age_ms
            "807f7e7d7c7b7a798887868584838281908f8e8d8c8b8a89",
            // peer count
            "0200",
            // peer 1
            "0d0031302e302e302e313a37303030010300000000000000a8a7a6a5a4a3a2a1",
            // peer 2
            "01006202ffffffffffffffff0000000000000000",
        );
        assert_eq!(hex, golden);
        let bytes = encode_response(&Response::Health(golden_health()));
        assert_eq!(decode_response(&bytes).unwrap(), Response::Health(golden_health()));
    }

    #[test]
    fn scrub_messages_round_trip() {
        round_trip_request(Request::Scrub { trigger: false, after: String::new() });
        round_trip_request(Request::Scrub { trigger: true, after: "after-me".into() });
        round_trip_response(Response::Scrub(ScrubReport::default()));
        round_trip_response(Response::Scrub(ScrubReport {
            rounds: 3,
            records: 999,
            corrupt_found: 4,
            repaired: 3,
            quarantined: 1,
            last_scrub_age_ms: u64::MAX,
            names: vec!["fenced-a".into(), "fenced-b".into()],
        }));
        round_trip_response(Response::Scrub(ScrubReport {
            names: (0..MAX_SCRUB_PAGE).map(|i| format!("q{i:03}")).collect(),
            ..ScrubReport::default()
        }));
        round_trip_response(Response::Err {
            code: ErrCode::CorruptQuarantined,
            message: "sketch \"x\" is quarantined".into(),
        });
    }

    #[test]
    fn scrub_adversarial_bodies_are_typed_errors() {
        // SCRUB request with an oversized cursor length claim.
        let mut b = vec![PROTO_VERSION, op::SCRUB, 1];
        b.extend_from_slice(&u16::try_from(MAX_NAME_LEN + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_request(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_NAME_LEN + 1, max: MAX_NAME_LEN })
        );
        // SCRUB request cut off before the cursor.
        let b = vec![PROTO_VERSION, op::SCRUB];
        assert!(matches!(decode_request(&b), Err(ProtoError::Truncated { .. })));
        // SCRUB response with a name count over the page cap: rejected
        // before any name bytes are believed.
        let mut b = encode_response(&Response::Scrub(ScrubReport::default()));
        let n = b.len();
        b[n - 2..].copy_from_slice(&u16::try_from(MAX_SCRUB_PAGE + 1).unwrap().to_le_bytes());
        assert_eq!(
            decode_response(&b),
            Err(ProtoError::FieldTooLarge { got: MAX_SCRUB_PAGE + 1, max: MAX_SCRUB_PAGE })
        );
        // SCRUB response lying about its name count.
        let mut b = encode_response(&Response::Scrub(ScrubReport::default()));
        let n = b.len();
        b[n - 2..].copy_from_slice(&9u16.to_le_bytes());
        assert!(matches!(decode_response(&b), Err(ProtoError::Truncated { .. })));
        // Trailing junk after a complete report.
        let mut b = encode_response(&Response::Scrub(ScrubReport::default()));
        b.push(0);
        assert_eq!(decode_response(&b), Err(ProtoError::TrailingBytes(1)));
    }

    #[test]
    fn error_code_bytes_round_trip() {
        for code in [
            ErrCode::BadFrame,
            ErrCode::TooLarge,
            ErrCode::BadVersion,
            ErrCode::UnknownOp,
            ErrCode::NotFound,
            ErrCode::BadSketch,
            ErrCode::Incompatible,
            ErrCode::Store,
            ErrCode::Unavailable,
            ErrCode::CorruptQuarantined,
            ErrCode::Other(77),
        ] {
            assert_eq!(ErrCode::from_byte(code.to_byte()), code);
        }
    }
}
