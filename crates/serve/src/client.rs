//! Client for the `hmh-serve` daemon: one connection, typed errors, and
//! budgeted jittered backoff on transient failures.
//!
//! The client reuses the store's [`RetryPolicy`] as its retry engine:
//! connect failures, deadlines, resets, and BUSY sheds all map onto
//! transient [`io::Error`]s and flow through the same jittered
//! exponential backoff with a total-time budget. Every protocol
//! operation is idempotent (PUT overwrites, MERGE folds a fixed
//! payload, reads read), so retrying after an ambiguous failure is
//! always safe.
//!
//! Failures the *server* reports deliberately — NOT_FOUND, READ_ONLY, a
//! store error — are not retried: they would fail the same way again.
//!
//! There is one wire exchange, [`Client::pipeline`]: every typed call is
//! a pipeline of one sent through [`Client::request`]. An exchange
//! writes its frames in one vectored write and reads each reply through
//! the connection's [`FrameBuffer`], decoding it exactly once; BUSY is
//! read off the decoded reply. The connection and its buffer are
//! dropped together on any error. [`FailoverClient::call`] runs any
//! [`Client`] call over a replica ring.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hmh_core::format::{self, FormatError};
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::RandomOracle;
use hmh_store::RetryPolicy;

use crate::proto::{
    decode_response, encode_request_budget, write_frames_vectored, DigestEntry, ErrCode,
    FrameBuffer, FrameError, Health, ProtoError, Request, Response, ScrubReport, SyncEntry,
    MAX_BATCH_ITEMS, MAX_BUDGET_MS, MAX_FRAME_LEN, MAX_ITEM_LEN, MAX_LIST_NAMES,
    MAX_PIPELINE_DEPTH,
};

/// A shared token-bucket retry budget (Finagle-style): retries across a
/// whole process are capped to a fraction of its successes, so N
/// concurrent callers facing a sick backend spend one bounded pool of
/// probes instead of N independent retry schedules amplifying the
/// outage into a retry storm.
///
/// The bucket holds integer *millitokens*. Every success deposits
/// `deposit` millitokens (clamped to the cap); every retry costs 1000.
/// The default — a 10-token cap, 100 millitokens per success — allows
/// sustained retries at 10% of the success rate plus a 10-retry burst
/// from a full bucket. The bucket starts full so cold starts against a
/// briefly-unavailable server still get their first probes.
#[derive(Debug)]
pub struct RetryBudget {
    millitokens: AtomicI64,
    cap: i64,
    deposit: i64,
    exhausted: AtomicU64,
}

/// Millitokens one retry costs.
const RETRY_COST: i64 = 1000;

impl Default for RetryBudget {
    fn default() -> Self {
        Self::new(10, 100)
    }
}

impl RetryBudget {
    /// Budget with a cap of `cap_tokens` whole tokens, depositing
    /// `deposit_millitokens` per recorded success (1000 = one full
    /// retry earned per success). The bucket starts full.
    pub fn new(cap_tokens: u32, deposit_millitokens: u32) -> Self {
        let cap = i64::from(cap_tokens.max(1)) * RETRY_COST;
        Self {
            millitokens: AtomicI64::new(cap),
            cap,
            deposit: i64::from(deposit_millitokens),
            exhausted: AtomicU64::new(0),
        }
    }

    /// Deposit for one observed success, clamped to the cap.
    pub fn record_success(&self) {
        let _ = self.millitokens.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some((v + self.deposit).min(self.cap))
        });
    }

    /// Spend one retry token. Returns false — and counts the denial —
    /// when the bucket is empty; the caller must fail typed, not retry.
    pub fn try_spend(&self) -> bool {
        let spent = self
            .millitokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v >= RETRY_COST).then_some(v - RETRY_COST)
            })
            .is_ok();
        if !spent {
            self.exhausted.fetch_add(1, Ordering::Relaxed);
        }
        spent
    }

    /// Spend a *low-priority* toll: succeeds only while the bucket
    /// stays at least half full after the spend, and costs one
    /// `deposit` (not a full retry token) so background traffic that
    /// also [`RetryBudget::record_success`]es its completed work runs
    /// net-zero in steady state. Anti-entropy repair uses this: when
    /// foreground retries drain the bucket below half — or its own
    /// syncs keep failing and stop re-depositing — repair yields its
    /// probes instead of competing. Denials are not counted as
    /// exhaustion; yielding is the designed behavior, and the caller
    /// records it under its own name.
    pub fn try_spend_low(&self) -> bool {
        self.millitokens
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                (v - self.deposit >= self.cap / 2).then_some(v - self.deposit)
            })
            .is_ok()
    }

    /// Denials [`RetryBudget::try_spend`] has issued — the
    /// `retry_exhausted` HEALTH counter for processes that own a budget.
    pub fn exhausted(&self) -> u64 {
        self.exhausted.load(Ordering::Relaxed)
    }

    /// Current balance in millitokens (observability and tests).
    pub fn balance_millitokens(&self) -> i64 {
        self.millitokens.load(Ordering::Relaxed)
    }
}

/// Per-replica circuit breaker: after [`BREAKER_OPEN_AFTER`] consecutive
/// failures the replica is skipped for an exponentially growing,
/// capped number of operations, then probed again (half-open); one
/// success closes it. The op counter is supplied by the caller —
/// [`FailoverClient`] advances it once per logical operation, including
/// refused ones, so an all-open group keeps aging toward its next probe
/// and recovery needs no background thread.
///
/// This mirrors the replica engine's peer health ladder (suspect after
/// the same threshold, capped exponential rounds) so one mental model
/// covers both; it lives here because `hmh-replica` depends on this
/// crate, not the other way around.
#[derive(Debug, Clone, Default)]
pub struct Breaker {
    consecutive_failures: u32,
    skip_until: u64,
}

/// Consecutive failures before the breaker opens.
pub const BREAKER_OPEN_AFTER: u32 = 3;
/// Longest skip the exponential backoff can reach, in operations.
pub const BREAKER_CAP_OPS: u64 = 16;

impl Breaker {
    /// A closed breaker.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when operation number `op` may try this replica.
    pub fn admits(&self, op: u64) -> bool {
        op >= self.skip_until
    }

    /// One successful exchange: the breaker closes fully.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.skip_until = 0;
    }

    /// One failed exchange during operation `op`.
    pub fn record_failure(&mut self, op: u64) {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        if self.consecutive_failures >= BREAKER_OPEN_AFTER {
            let exponent = (self.consecutive_failures - BREAKER_OPEN_AFTER).min(32);
            let skip = 1u64.checked_shl(exponent).unwrap_or(u64::MAX).min(BREAKER_CAP_OPS);
            self.skip_until = op.saturating_add(skip).saturating_add(1);
        }
    }

    /// Consecutive failures recorded since the last success.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Deadline for establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Per-read deadline on the connection.
    pub read_timeout: Duration,
    /// Per-write deadline on the connection.
    pub write_timeout: Duration,
    /// Backoff policy for transient failures (connect errors, deadlines,
    /// resets, and BUSY sheds).
    pub retry: RetryPolicy,
    /// Per-operation deadline budget. When set, every request is stamped
    /// with its *remaining* budget on the wire (shrinking across
    /// retries) so servers can refuse work the caller has already
    /// abandoned; once it hits zero the call fails locally with
    /// [`ClientError::Expired`]. `None` sends v1 frames with no
    /// deadline. An explicit [`Client::set_deadline`] overrides this.
    pub op_budget: Option<Duration>,
    /// Shared retry budget. When set, every retry (never the first
    /// attempt) must buy a token or the call fails typed with
    /// [`ClientError::RetryBudgetExhausted`]; successes deposit back.
    /// Clone the `Arc` into every client in the process so they share
    /// one pool.
    pub budget: Option<Arc<RetryBudget>>,
}

impl Default for ClientOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            op_budget: None,
            budget: None,
        }
    }
}

/// Why a client call failed, after retries.
#[derive(Debug)]
pub enum ClientError {
    /// The server shed the connection under load and backoff ran out.
    Busy,
    /// The server is in read-only degradation; writes are refused.
    ReadOnly,
    /// No sketch with this name.
    NotFound(String),
    /// The server answered with a typed error.
    Server {
        /// Machine-readable error class from the wire.
        code: ErrCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// A batch item exceeded the protocol's per-item ceiling.
    ItemTooLarge {
        /// Offending item length in bytes.
        len: usize,
        /// The protocol maximum.
        max: usize,
    },
    /// A pipelined submission asked for more in-flight frames than
    /// [`MAX_PIPELINE_DEPTH`] allows. Refused typed *before any bytes
    /// move*: writing a deeper batch without draining replies can
    /// deadlock the connection on full kernel buffers, and a hang is
    /// the one failure mode this protocol never accepts.
    PipelineOverflow {
        /// Frames the caller tried to put in flight.
        submitted: usize,
        /// The [`MAX_PIPELINE_DEPTH`] ceiling.
        max: usize,
    },
    /// The server's reply could not be parsed (version skew or a
    /// corrupted stream).
    BadReply(String),
    /// A sketch payload failed to decode.
    Format(FormatError),
    /// Transport failure (connect, deadline, reset) after retries.
    Io(io::Error),
    /// The operation's deadline budget ran out: either the server
    /// answered a typed EXPIRED (it dequeued the request after the
    /// budget was spent and refused the dead work), or the budget
    /// expired locally before another attempt could be stamped. Final —
    /// the caller has already given up on this result by definition.
    Expired,
    /// The shared [`RetryBudget`] was empty when a retry wanted a token.
    /// Final and deliberate: under a retry storm the budget converts
    /// unbounded amplification into typed, bounded refusal.
    RetryBudgetExhausted,
    /// Every replica's circuit breaker was open, so the operation was
    /// refused without a single dial. Distinct from
    /// [`ClientError::AllReplicasDown`]: that one spent its attempt
    /// budget probing; this one refused to probe at all.
    BreakerOpen {
        /// Replicas considered (all skipped).
        replicas: usize,
    },
    /// A LIST_PAGE walk met a page marked `partial`: a routing tier could
    /// not reach every shard, so the whole-store list would be short.
    PartialListing,
    /// A [`FailoverClient`] spent its whole attempt budget without any
    /// replica answering. Carries the budget and one error string per
    /// exhausted attempt (in rotation order) so the caller — a routing
    /// tier deciding whether a whole group is down — sees every reason,
    /// not just the last.
    AllReplicasDown {
        /// Attempts spent before giving up.
        attempts: u32,
        /// Display form of each attempt's error, oldest first.
        last_errors: Vec<String>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Busy => write!(f, "server is shedding load (busy); retries exhausted"),
            ClientError::ReadOnly => write!(f, "server is read-only; write refused"),
            ClientError::NotFound(name) => write!(f, "no sketch named {name:?}"),
            ClientError::Server { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
            ClientError::ItemTooLarge { len, max } => {
                write!(f, "batch item is {len} bytes; the protocol caps items at {max}")
            }
            ClientError::PipelineOverflow { submitted, max } => {
                write!(f, "pipeline of {submitted} frames exceeds the depth cap of {max}")
            }
            ClientError::BadReply(detail) => write!(f, "unparseable server reply: {detail}"),
            ClientError::Format(e) => write!(f, "sketch payload: {e}"),
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Expired => write!(f, "request deadline budget expired"),
            ClientError::RetryBudgetExhausted => {
                write!(f, "shared retry budget exhausted; refusing to amplify")
            }
            ClientError::BreakerOpen { replicas } => {
                write!(f, "circuit breaker open on all {replicas} replicas; refusing to dial")
            }
            ClientError::PartialListing => {
                write!(f, "listing is partial: a shard behind the router is unreachable")
            }
            ClientError::AllReplicasDown { attempts, last_errors } => {
                write!(f, "all replicas down after {attempts} attempts")?;
                if let Some(last) = last_errors.last() {
                    write!(f, " (last: {last})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Format(e) => Some(e),
            ClientError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for ClientError {
    fn from(e: FormatError) -> Self {
        ClientError::Format(e)
    }
}

/// Why an attempt ended without a reply, carried inside an
/// [`io::Error`] so the retry loop can see it and the caller can map it
/// back to its [`ClientError`] once the loop returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Marker {
    /// The server shed the connection. Transient: it rides the retry
    /// loop like any other, yet stays distinguishable from a real
    /// deadline once retries are exhausted.
    Busy,
    /// The local deadline budget hit zero. Final: no further attempt can
    /// beat a deadline that already passed.
    Expired,
    /// The shared retry budget denied a retry. Final.
    BudgetDenied,
}

impl std::fmt::Display for Marker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Marker::Busy => "server shed the connection (busy)",
            Marker::Expired => "deadline budget expired before the attempt",
            Marker::BudgetDenied => "shared retry budget exhausted",
        })
    }
}

impl std::error::Error for Marker {}

impl Marker {
    /// The marker as an [`io::Error`] whose kind carries its retry
    /// class: `WouldBlock` is transient per [`hmh_store::is_transient`],
    /// `Other` is not.
    fn error(self) -> io::Error {
        let kind = match self {
            Marker::Busy => io::ErrorKind::WouldBlock,
            Marker::Expired | Marker::BudgetDenied => io::ErrorKind::Other,
        };
        io::Error::new(kind, self)
    }

    /// The marker inside `e`, if it carries one.
    fn of(e: &io::Error) -> Option<Marker> {
        e.get_ref().and_then(|inner| inner.downcast_ref::<Marker>()).copied()
    }
}

/// Remaining budget to stamp on the wire for `deadline`, or `None` when
/// it has already passed. Sub-millisecond remainders round *up* to 1 ms:
/// a 0 on the wire means "no deadline", which an almost-expired request
/// must never claim.
fn remaining_budget_ms(deadline: Instant) -> Option<u32> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return None;
    }
    let ms = u32::try_from(remaining.as_millis()).unwrap_or(MAX_BUDGET_MS).min(MAX_BUDGET_MS);
    Some(ms.max(1))
}

/// A connection to one daemon. Reconnects lazily after any transport
/// error, so one `Client` value survives server restarts.
pub struct Client {
    addr: SocketAddr,
    opts: ClientOptions,
    conn: Option<Conn>,
    deadline: Option<Instant>,
}

/// A live connection and the reply bytes read off it but not yet
/// consumed, dropped together on any error.
struct Conn {
    stream: TcpStream,
    frames: FrameBuffer,
}

impl Client {
    /// Client for the daemon at `addr` with default options.
    pub fn connect(addr: SocketAddr) -> Self {
        Self::with_options(addr, ClientOptions::default())
    }

    /// Client with explicit options (tests shrink the deadlines and seed
    /// the retry jitter).
    pub fn with_options(addr: SocketAddr, opts: ClientOptions) -> Self {
        Self { addr, opts, conn: None, deadline: None }
    }

    /// Pin an absolute deadline for subsequent operations (overriding
    /// any [`ClientOptions::op_budget`]); `None` clears it. A routing
    /// tier uses this to propagate one caller's remaining budget across
    /// every scatter-gather leg it fans out to — each leg stamps the
    /// *remaining* time, so downstream work never outlives the caller.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Store `sketch` under `name`, replacing any existing sketch.
    pub fn put(&mut self, name: &str, sketch: &HyperMinHash) -> Result<(), ClientError> {
        self.acked(&Request::Put { name: name.to_string(), sketch: format::encode(sketch) }, name)
    }

    /// Ingest raw items into the sketch stored under `name` server-side,
    /// creating it with `params`/`oracle` if absent.
    ///
    /// Items are streamed in protocol-capped frames ([`MAX_BATCH_ITEMS`]
    /// items of at most [`MAX_ITEM_LEN`] bytes each), so one call may
    /// issue several round-trips. Each frame is idempotent — re-inserting
    /// an item never changes a sketch — so retries after ambiguous
    /// transport failures stay safe. An empty `items` slice still sends
    /// one frame, creating the (empty) sketch if it does not exist.
    pub fn batch_put(
        &mut self,
        name: &str,
        params: HmhParams,
        oracle: RandomOracle,
        items: &[&[u8]],
    ) -> Result<(), ClientError> {
        if let Some(item) = items.iter().find(|item| item.len() > MAX_ITEM_LEN) {
            return Err(ClientError::ItemTooLarge { len: item.len(), max: MAX_ITEM_LEN });
        }
        let widths = [params.p(), params.q(), params.r()]
            .map(|w| u8::try_from(w).expect("invariant: register widths fit a byte"));
        let algorithm = format::algorithm_to_byte(oracle.algorithm());
        let mut chunks: Vec<&[&[u8]]> = items.chunks(MAX_BATCH_ITEMS).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let requests: Vec<Request> = chunks
            .iter()
            .map(|chunk| Request::BatchPut {
                name: name.to_string(),
                p: widths[0],
                q: widths[1],
                r: widths[2],
                algorithm,
                seed: oracle.seed(),
                items: chunk.iter().map(|item| item.to_vec()).collect(),
            })
            .collect();
        // Multi-frame streams ride the pipeline: up to MAX_PIPELINE_DEPTH
        // chunk frames in flight per round trip instead of one. Safe to
        // replay whole batches on transient failures — item insertion is
        // idempotent.
        for window in requests.chunks(MAX_PIPELINE_DEPTH) {
            for resp in self.pipeline(window)? {
                match typed_response(resp)? {
                    Response::Ok => {}
                    other => return Err(unexpected(other, name)),
                }
            }
        }
        Ok(())
    }

    /// Fetch the sketch stored under `name`.
    pub fn get(&mut self, name: &str) -> Result<HyperMinHash, ClientError> {
        Ok(format::decode(&self.get_raw(name)?)?)
    }

    /// Fold `sketch` into the sketch stored under `name` (creates it if
    /// absent).
    pub fn merge(&mut self, name: &str, sketch: &HyperMinHash) -> Result<(), ClientError> {
        self.acked(&Request::Merge { name: name.to_string(), sketch: format::encode(sketch) }, name)
    }

    /// Cardinality estimate of the sketch under `name`, computed
    /// server-side.
    pub fn card(&mut self, name: &str) -> Result<f64, ClientError> {
        match self.request(&Request::Card { name: name.to_string() })? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected(other, name)),
        }
    }

    /// Jaccard estimate between the sketches under `a` and `b`.
    pub fn jaccard(&mut self, a: &str, b: &str) -> Result<f64, ClientError> {
        let request = Request::Jaccard { a: a.to_string(), b: b.to_string() };
        match self.request(&request)? {
            Response::Value(v) => Ok(v),
            other => Err(unexpected(other, a)),
        }
    }

    /// Names of every stored sketch in sorted order, walked page by page
    /// over LIST_PAGE. A whole-store listing never degrades silently: a
    /// page marked `partial` fails the walk with
    /// [`ClientError::PartialListing`] instead of returning a short list.
    pub fn list(&mut self) -> Result<Vec<String>, ClientError> {
        let mut names: Vec<String> = Vec::new();
        loop {
            let after = names.last().cloned().unwrap_or_default();
            let (page, partial) = self.list_page(&after)?;
            if partial {
                return Err(ClientError::PartialListing);
            }
            let last = page.len() < MAX_LIST_NAMES;
            // A full page that does not move the cursor would loop forever.
            if !last && page.last() <= Some(&after) {
                return Err(ClientError::BadReply(format!(
                    "LIST_PAGE did not advance past {after:?}"
                )));
            }
            names.extend(page);
            if last {
                return Ok(names);
            }
        }
    }

    /// One page of stored names strictly after `after` in sorted order
    /// (empty `after` starts from the beginning), plus the server's
    /// partial-result flag. A page shorter than
    /// [`crate::proto::MAX_LIST_NAMES`] is the last page. A plain daemon
    /// always answers `partial: false`; a router sets it when a shard
    /// was unreachable and the page is missing that shard's names.
    pub fn list_page(&mut self, after: &str) -> Result<(Vec<String>, bool), ClientError> {
        match self.request(&Request::ListPage { after: after.to_string() })? {
            Response::NamesPage { names, partial } => Ok((names, partial)),
            other => Err(unexpected(other, after)),
        }
    }

    /// Remove the sketch stored under `name` (a durable tombstone). The
    /// rebalance release step; NOT_FOUND means this replica never held
    /// (or already released) the name.
    pub fn delete(&mut self, name: &str) -> Result<(), ClientError> {
        self.acked(&Request::Delete { name: name.to_string() }, name)
    }

    /// The server's health snapshot (queue depth, shed count, fsck
    /// status, read-only flag).
    pub fn health(&mut self) -> Result<Health, ClientError> {
        match self.request(&Request::Health)? {
            Response::Health(h) => Ok(h),
            other => Err(unexpected(other, "")),
        }
    }

    /// Scrub counters plus one page of quarantined names strictly after
    /// `after` in sorted order (empty `after` starts from the
    /// beginning). With `trigger` set the server first runs one full
    /// synchronous scrub pass over every committed record, so the
    /// returned counters reflect it; triggering is refused READ_ONLY on
    /// a degraded server (repair compacts, which writes), but a pure
    /// status query (`trigger: false`) always answers — a degraded
    /// replica must still be able to enumerate its fence for
    /// read-repair. A page shorter than
    /// [`crate::proto::MAX_SCRUB_PAGE`] is the last page.
    pub fn scrub(&mut self, trigger: bool, after: &str) -> Result<ScrubReport, ClientError> {
        match self.request(&Request::Scrub { trigger, after: after.to_string() })? {
            Response::Scrub(report) => Ok(report),
            other => Err(unexpected(other, after)),
        }
    }

    /// Ask the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.acked(&Request::Shutdown, "")
    }

    /// One page of replication digests: `(name, checksum)` pairs for
    /// names strictly after `after` in sorted order (empty `after`
    /// starts at the beginning). A page shorter than
    /// [`crate::proto::MAX_DIGEST_ENTRIES`] is the last page.
    pub fn digests(&mut self, after: &str) -> Result<Vec<DigestEntry>, ClientError> {
        match self.request(&Request::Digest { after: after.to_string() })? {
            Response::Digests(entries) => Ok(entries),
            other => Err(unexpected(other, after)),
        }
    }

    /// Pull stored sketch payloads for `names`. The server answers the
    /// longest *prefix* of the request that fits its frame budget, so
    /// the reply may be shorter than the request — re-request the
    /// remainder. An entry with an empty payload means the name vanished
    /// since the digest was taken.
    pub fn sync(&mut self, names: &[String]) -> Result<Vec<SyncEntry>, ClientError> {
        match self.request(&Request::Sync { names: names.to_vec() })? {
            Response::Sketches(entries) => Ok(entries),
            other => Err(unexpected(other, "")),
        }
    }

    /// Fold an already-encoded sketch payload into `name` (creating it
    /// if absent). The replication engine's apply path: the payload came
    /// off another replica's wire and is deliberately *not* decoded
    /// here — the receiving server validates it before any write, so a
    /// hostile peer payload dies there as a typed BAD_SKETCH, never as a
    /// local panic.
    pub fn merge_raw(&mut self, name: &str, payload: &[u8]) -> Result<(), ClientError> {
        self.acked(&Request::Merge { name: name.to_string(), sketch: payload.to_vec() }, name)
    }

    /// Store an already-encoded sketch payload under `name`, replacing
    /// any existing sketch. Like [`Client::merge_raw`], the payload is
    /// forwarded undecoded — the router's pass-through path; validation
    /// happens at the receiving server.
    pub fn put_raw(&mut self, name: &str, payload: &[u8]) -> Result<(), ClientError> {
        self.acked(&Request::Put { name: name.to_string(), sketch: payload.to_vec() }, name)
    }

    /// One request whose only success reply is OK.
    fn acked(&mut self, request: &Request, context: &str) -> Result<(), ClientError> {
        match self.request(request)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other, context)),
        }
    }

    /// Fetch the *encoded* sketch payload under `name`, undecoded — the
    /// router's pass-through path (a forwarded GET need not pay a
    /// decode/re-encode just to move bytes).
    pub fn get_raw(&mut self, name: &str) -> Result<Vec<u8>, ClientError> {
        match self.request(&Request::Get { name: name.to_string() })? {
            Response::Sketch(bytes) => Ok(bytes),
            other => Err(unexpected(other, name)),
        }
    }

    /// The address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Send one request as a pipeline of one and map its reply through
    /// [`typed_response`]: READ_ONLY, EXPIRED, NOT_FOUND and server
    /// errors come back as their [`ClientError`] variants. Every typed
    /// method above is this plus a check of the reply variant; callers
    /// that already hold a decoded [`Request`] (a router forwarding one
    /// off its own wire) send it as is.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        let reply = self.pipeline(std::slice::from_ref(request))?.pop();
        typed_response(reply.expect("invariant: a pipeline answers every request"))
    }

    /// Submit up to [`MAX_PIPELINE_DEPTH`] requests as one pipelined
    /// batch — the client's only wire exchange; a single op is a batch
    /// of one. All frames leave in a single vectored write, and the
    /// replies come back strictly in request order (ordering is the
    /// protocol's correlation mechanism — there are no tags).
    ///
    /// Returns the decoded reply for each request, *including* typed
    /// per-op conditions (`Response::Expired`, `Response::ReadOnly`,
    /// `Response::Err`) in their slots, so one op's refusal never hides
    /// its neighbors' results; apply [`typed_response`] per slot for
    /// single-shot semantics. Call-level errors cover what fails the
    /// whole batch: transport failures after retries, a BUSY shed, a
    /// spent deadline, and [`ClientError::PipelineOverflow`] for a
    /// batch deeper than the cap (refused before any bytes move — a
    /// deeper write without draining replies can deadlock on full
    /// kernel buffers).
    ///
    /// Transient failures retry the *whole batch* under the configured
    /// backoff policy, which is safe because every operation is
    /// idempotent (PUT overwrites, MERGE folds a fixed payload, reads
    /// read). When a deadline is pinned (or [`ClientOptions::op_budget`]
    /// set), every attempt stamps its *remaining* budget on every frame
    /// and the call expires locally once it hits zero; when a shared
    /// [`RetryBudget`] is configured, each retry (never the first
    /// attempt) must buy a token.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        if requests.len() > MAX_PIPELINE_DEPTH {
            return Err(ClientError::PipelineOverflow {
                submitted: requests.len(),
                max: MAX_PIPELINE_DEPTH,
            });
        }
        let deadline = self.deadline.or_else(|| self.opts.op_budget.map(|b| Instant::now() + b));
        let budget = self.opts.budget.clone();
        // Every attempt borrows the same encoded bodies. Without a
        // deadline they are encoded once; with one they are re-encoded
        // only when the remaining budget to stamp has changed.
        let encode = |ms| requests.iter().map(|r| encode_request_budget(r, ms)).collect();
        let mut stamped = 0;
        let mut bodies: Vec<Vec<u8>> = if deadline.is_none() { encode(0) } else { Vec::new() };
        // Clone per call: `run_gated` consumes jitter state; cloning
        // keeps each call's schedule starting from the policy's seed,
        // deterministic under test.
        let mut retry = self.opts.retry.clone();
        let result = retry.run_gated(
            |_attempt| {
                if let Some(d) = deadline {
                    let ms = remaining_budget_ms(d).ok_or_else(|| Marker::Expired.error())?;
                    if ms != stamped {
                        bodies = encode(ms);
                        stamped = ms;
                    }
                }
                // Any failure drops the connection and its buffer, so
                // the next attempt reconnects from scratch — a
                // half-drained pipeline is never reused.
                let result = self.exchange(&bodies).map_err(reclassify_disconnect);
                if result.is_err() {
                    self.conn = None;
                }
                result
            },
            || match &budget {
                Some(b) if !b.try_spend() => Err(Marker::BudgetDenied.error()),
                _ => Ok(()),
            },
        );
        match result {
            Ok(replies) => {
                // The transport worked and the server answered: that is
                // the success a retry budget regenerates from, whatever
                // the answers say. One deposit per wire exchange, not
                // per frame: the budget prices exchanges.
                if let Some(b) = &budget {
                    b.record_success();
                }
                replies.into_iter().collect::<Result<_, _>>().map_err(|e| {
                    // An unparseable reply poisons the stream; reconnect
                    // next call rather than guessing at framing.
                    self.conn = None;
                    ClientError::BadReply(e.to_string())
                })
            }
            Err(e) => Err(match Marker::of(&e) {
                Some(Marker::Busy) => ClientError::Busy,
                Some(Marker::Expired) => ClientError::Expired,
                Some(Marker::BudgetDenied) => ClientError::RetryBudgetExhausted,
                None => ClientError::Io(e),
            }),
        }
    }

    /// One wire exchange: every request frame in one vectored write,
    /// then every reply read back in order through the connection's
    /// [`FrameBuffer`] and decoded once. Disconnect shapes the kernel
    /// reports under non-transient kinds are reclassified by the caller
    /// (see [`reclassify_disconnect`]) so they ride the retry loop.
    fn exchange(&mut self, bodies: &[Vec<u8>]) -> io::Result<Vec<Result<Response, ProtoError>>> {
        let Conn { stream, frames } = self.ensure_conn()?;
        write_frames_vectored(stream, bodies)?;
        let mut replies = Vec::with_capacity(bodies.len());
        for drained in 0..bodies.len() {
            let frame = match frames.read_frame_ref(stream, MAX_FRAME_LEN) {
                Ok(Some(frame)) => frame,
                // EOF with replies outstanding: the server hung up (shed
                // without a BUSY frame landing, mid-restart, or it
                // poisoned the tail for a frame we believed well-formed).
                // Transient — the whole batch is retried, which is safe
                // because every operation is idempotent.
                Ok(None) => {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionReset,
                        format!(
                            "server closed the connection with {} of {} replies outstanding",
                            bodies.len() - drained,
                            bodies.len()
                        ),
                    ))
                }
                Err(FrameError::Io(e)) => return Err(e),
                Err(FrameError::TooLarge { got, max }) => {
                    return Err(io::Error::other(format!(
                        "server sent an oversized frame ({got} > {max} bytes)"
                    )))
                }
            };
            match decode_response(frame) {
                // A BUSY shed precedes any frame processing and is
                // followed by a server-side close, so it can only be the
                // first reply — but every slot is checked so a
                // misbehaving server still maps to a transient error the
                // retry loop backs off from, not a confusing per-op result.
                Ok(Response::Busy) => return Err(Marker::Busy.error()),
                reply => replies.push(reply),
            }
        }
        Ok(replies)
    }

    /// Cached connection, dialing a fresh one if needed.
    fn ensure_conn(&mut self) -> io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.opts.connect_timeout)?;
            stream.set_read_timeout(Some(self.opts.read_timeout))?;
            stream.set_write_timeout(Some(self.opts.write_timeout))?;
            let _ = stream.set_nodelay(true);
            self.conn = Some(Conn { stream, frames: FrameBuffer::new() });
        }
        Ok(self.conn.as_mut().expect("invariant: connection established above"))
    }
}

/// Map one decoded reply onto the typed result surface the single-shot
/// [`Client`] methods use: READ_ONLY, EXPIRED, NOT_FOUND and server
/// errors become their [`ClientError`] variants, everything else passes
/// through. [`Client::request`] applies it to its one reply;
/// [`Client::pipeline`] deliberately does *not* apply it per slot — one
/// op's typed refusal must not hide its neighbors' results — so callers
/// that want single-shot semantics per slot apply it themselves.
pub fn typed_response(resp: Response) -> Result<Response, ClientError> {
    match resp {
        Response::ReadOnly => Err(ClientError::ReadOnly),
        // Final, not retried: a deadline that expired server-side has
        // expired for every future attempt too.
        Response::Expired => Err(ClientError::Expired),
        Response::Err { code: ErrCode::NotFound, message } => {
            Err(ClientError::NotFound(extract_name(&message)))
        }
        Response::Err { code, message } => Err(ClientError::Server { code, message }),
        resp => Ok(resp),
    }
}

/// Reclassify a mid-exchange disconnect as transient.
///
/// The kernel reports "the peer hung up on us" under several kinds the
/// store's [`hmh_store::is_transient`] does not cover: `UnexpectedEof`
/// (connection closed inside a reply frame), `BrokenPipe` (closed while
/// our request bytes were in flight), and `NotConnected` (closed before
/// the socket settled). For this protocol they all mean the same thing a
/// `ConnectionReset` means — the daemon restarted, deadlined us, or shed
/// load without a BUSY frame landing — and every operation the client
/// can send is idempotent (PUT overwrites, MERGE folds a fixed payload
/// into a max-register lattice, BATCH_PUT re-inserts items into a
/// sketch, reads read), so retrying an *ambiguous* outcome is safe even
/// if the first attempt actually committed. Wrapping (not replacing)
/// keeps the original error as `source()` for diagnostics.
fn reclassify_disconnect(e: io::Error) -> io::Error {
    match e.kind() {
        io::ErrorKind::UnexpectedEof | io::ErrorKind::BrokenPipe | io::ErrorKind::NotConnected => {
            io::Error::new(io::ErrorKind::ConnectionReset, e)
        }
        _ => e,
    }
}

/// Pull the sketch name back out of a NOT_FOUND message ("no sketch
/// named \"x\"") — best effort; falls back to the whole message.
fn extract_name(message: &str) -> String {
    message.split('"').nth(1).map_or_else(|| message.to_string(), str::to_string)
}

fn unexpected(resp: Response, context: &str) -> ClientError {
    ClientError::BadReply(format!("unexpected response variant for {context:?}: {resp:?}"))
}

/// A client over an *ordered list* of replicas that fails over between
/// them: each operation gets a per-op attempt budget, and any attempt
/// that dies for a reason another replica could answer — a transport
/// failure after the single-node retries, a BUSY shed, a read-only
/// refusal — rotates to the next replica in the ring and tries again.
///
/// Failover is only sound because every operation is idempotent: PUT
/// overwrites, MERGE folds a fixed payload into a max-register lattice
/// (Algorithm 2's union — applying it twice is the same as once),
/// BATCH_PUT folds in a sketch of fixed items the same way, and reads
/// read. An
/// ambiguous first attempt (request sent, reply lost) that actually
/// committed is therefore indistinguishable from one that did not, and
/// retrying against a *different* replica merely creates divergence that
/// anti-entropy is already required to repair. Server-reported
/// [`ClientError::NotFound`] and typed errors are final — every healthy
/// replica would answer the same, so rotating would only spend the
/// budget on identical refusals.
pub struct FailoverClient {
    replicas: Vec<Client>,
    breakers: Vec<Breaker>,
    current: usize,
    attempts: u32,
    /// Logical operation counter: the breakers' clock. Advances on every
    /// operation, including ones refused with an open breaker, so a sick
    /// group keeps aging toward its next half-open probe.
    ops: u64,
    /// Shared retry budget (taken from the options): rotations beyond
    /// the first attempt must buy a token, so N concurrent callers
    /// facing one down replica spend one bounded pool, not N budgets.
    budget: Option<Arc<RetryBudget>>,
    /// Where to count operations refused because every breaker was open
    /// (a router aggregates this into its HEALTH `breaker_open` field).
    breaker_refusals: Option<Arc<AtomicU64>>,
}

impl FailoverClient {
    /// Failover client over `addrs` (tried in order, starting at the
    /// first) with default options and an attempt budget of one try per
    /// replica plus one.
    ///
    /// # Panics
    /// With an empty address list — a client with no one to call is a
    /// configuration bug, not a runtime state.
    pub fn connect(addrs: &[SocketAddr]) -> Self {
        Self::with_options(addrs, ClientOptions::default(), Self::default_attempts(addrs.len()))
    }

    /// The default per-op attempt budget over `replicas` addresses: one
    /// try per replica plus one.
    pub fn default_attempts(replicas: usize) -> u32 {
        u32::try_from(replicas).unwrap_or(u32::MAX).saturating_add(1)
    }

    /// Failover client with explicit per-replica options and a per-op
    /// attempt budget (each attempt is one full single-replica call,
    /// including that replica's own transient-retry backoff). A
    /// [`ClientOptions::budget`] in `opts` is shared: the inner clients
    /// draw from it for transport retries and the failover loop draws
    /// from it for rotations.
    ///
    /// # Panics
    /// With an empty address list.
    pub fn with_options(addrs: &[SocketAddr], opts: ClientOptions, attempts: u32) -> Self {
        assert!(!addrs.is_empty(), "failover client needs at least one replica address");
        let budget = opts.budget.clone();
        let replicas: Vec<Client> =
            addrs.iter().map(|&addr| Client::with_options(addr, opts.clone())).collect();
        let breakers = vec![Breaker::new(); replicas.len()];
        Self {
            replicas,
            breakers,
            current: 0,
            attempts: attempts.max(1),
            ops: 0,
            budget,
            breaker_refusals: None,
        }
    }

    /// Count breaker-open refusals into `counter` (shared with the
    /// owner's health surface).
    #[must_use]
    pub fn with_breaker_counter(mut self, counter: Arc<AtomicU64>) -> Self {
        self.breaker_refusals = Some(counter);
        self
    }

    /// Pin (or clear) an absolute deadline on every replica client, so
    /// whichever replica a failover lands on stamps the same caller's
    /// remaining budget.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        for replica in &mut self.replicas {
            replica.set_deadline(deadline);
        }
    }

    /// The replica the next operation will try first.
    pub fn current_addr(&self) -> SocketAddr {
        self.replicas[self.current].addr()
    }

    /// Submit a pipelined batch to whichever replica answers (see
    /// [`Client::pipeline`]). A replica that drops the connection with
    /// the pipeline half-drained fails the *whole batch* over to the
    /// next replica — safe because every operation is idempotent — and
    /// the rotation pays the same breaker and retry-budget costs as any
    /// other failover, so a flapping replica cannot turn batch depth
    /// into dial amplification.
    pub fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, ClientError> {
        self.call(|c| {
            let replies = c.pipeline(requests)?;
            // A READ_ONLY slot means this replica is in degraded mode —
            // exactly what single-op failover rotates on. Fail the whole
            // batch over so another replica can take the writes; reads
            // in the batch merely replay.
            if replies.iter().any(|r| matches!(r, Response::ReadOnly)) {
                return Err(ClientError::ReadOnly);
            }
            Ok(replies)
        })
    }

    /// Ask the *current* replica to drain and exit. Deliberately no
    /// failover: "shut down" rotated across the ring would take the
    /// whole cluster down one timeout at a time.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.replicas[self.current].shutdown()
    }

    /// Run `op` — any [`Client`] call, as in `fc.call(|c| c.card(name))`
    /// — against the current replica, rotating on failures a different
    /// replica could survive, until it succeeds, fails finally, or the
    /// attempt budget runs out — which surfaces as the typed
    /// [`ClientError::AllReplicasDown`] carrying every attempt's error,
    /// so callers distinguish "the whole group is unreachable" from a
    /// single transport failure without string-matching.
    ///
    /// Two bounds layer on top of the per-op attempt budget. Each
    /// replica's circuit breaker must admit the attempt — with every
    /// breaker open the operation is refused *without one dial* as
    /// [`ClientError::BreakerOpen`]. And each rotation after the first
    /// attempt must buy a token from the shared [`RetryBudget`] (when
    /// configured), so concurrent callers cannot multiply a sick
    /// replica's cost.
    pub fn call<T>(
        &mut self,
        mut op: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        self.ops += 1;
        let now = self.ops;
        let replica_count = self.replicas.len();
        let mut errors = Vec::new();
        for attempt in 0..self.attempts {
            // Next replica (in rotation order) whose breaker admits this
            // operation; all open means bounded refusal, zero dials.
            let admitted = (0..replica_count)
                .map(|i| (self.current + i) % replica_count)
                .find(|&i| self.breakers[i].admits(now));
            let Some(idx) = admitted else {
                if let Some(counter) = &self.breaker_refusals {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                return Err(ClientError::BreakerOpen { replicas: replica_count });
            };
            self.current = idx;
            if attempt > 0 {
                if let Some(budget) = &self.budget {
                    if !budget.try_spend() {
                        return Err(ClientError::RetryBudgetExhausted);
                    }
                }
            }
            let replica = &mut self.replicas[idx];
            match op(replica) {
                // Worth a different replica: this one is unreachable,
                // overloaded, or refusing writes in degraded mode.
                Err(e @ (ClientError::Io(_) | ClientError::Busy | ClientError::ReadOnly)) => {
                    errors.push(format!("{}: {e}", replica.addr()));
                    self.breakers[idx].record_failure(now);
                    self.current = (idx + 1) % replica_count;
                }
                // A local refusal carries no evidence about this
                // replica's health; pass it through untouched.
                Err(e @ ClientError::RetryBudgetExhausted) => return Err(e),
                // Success, or a final answer every replica would repeat.
                // Either way the replica *answered*: its breaker closes.
                // (The inner client already deposited into the shared
                // budget for the successful exchange.)
                other => {
                    self.breakers[idx].record_success();
                    return other;
                }
            }
        }
        Err(ClientError::AllReplicasDown { attempts: self.attempts, last_errors: errors })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_marker_survives_the_io_error_wrap() {
        let e = Marker::Busy.error();
        assert_eq!(Marker::of(&e), Some(Marker::Busy));
        assert!(hmh_store::is_transient(&e), "busy must ride the retry loop");
        assert_eq!(Marker::of(&io::Error::new(io::ErrorKind::WouldBlock, "plain")), None);
        for final_marker in [Marker::Expired, Marker::BudgetDenied] {
            let e = final_marker.error();
            assert_eq!(Marker::of(&e), Some(final_marker));
            assert!(!hmh_store::is_transient(&e), "{final_marker} must end the retry loop");
        }
    }

    #[test]
    fn mid_exchange_disconnects_reclassify_as_transient() {
        for kind in
            [io::ErrorKind::UnexpectedEof, io::ErrorKind::BrokenPipe, io::ErrorKind::NotConnected]
        {
            let wrapped = reclassify_disconnect(io::Error::new(kind, "peer went away"));
            assert_eq!(wrapped.kind(), io::ErrorKind::ConnectionReset, "{kind:?}");
            assert!(hmh_store::is_transient(&wrapped), "{kind:?} must ride the retry loop");
            let source = wrapped.get_ref().expect("invariant: original error kept as source");
            assert!(source.to_string().contains("peer went away"));
        }
        // Genuinely fatal kinds pass through untouched.
        let fatal = reclassify_disconnect(io::Error::new(io::ErrorKind::PermissionDenied, "no"));
        assert_eq!(fatal.kind(), io::ErrorKind::PermissionDenied);
    }

    #[test]
    fn not_found_name_extraction() {
        assert_eq!(extract_name("no sketch named \"events\""), "events");
        assert_eq!(extract_name("mangled"), "mangled");
    }

    #[test]
    fn client_errors_display_their_cause() {
        let e = ClientError::Server { code: ErrCode::Store, message: "disk on fire".into() };
        assert!(e.to_string().contains("disk on fire"));
        assert!(ClientError::Busy.to_string().contains("busy"));
        assert!(ClientError::ReadOnly.to_string().contains("read-only"));
        assert!(ClientError::Expired.to_string().contains("deadline"));
        assert!(ClientError::RetryBudgetExhausted.to_string().contains("retry budget"));
        assert!(ClientError::BreakerOpen { replicas: 3 }.to_string().contains("breaker"));
    }

    #[test]
    fn retry_budget_starts_full_and_denies_when_drained() {
        let b = RetryBudget::new(3, 100);
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend(), "fourth spend exceeds the 3-token cap");
        assert_eq!(b.exhausted(), 1);
        // 10 successes at 100 mt each buy exactly one more retry.
        for _ in 0..10 {
            b.record_success();
        }
        assert!(b.try_spend());
        assert!(!b.try_spend());
        assert_eq!(b.exhausted(), 2);
    }

    #[test]
    fn retry_budget_deposits_clamp_to_the_cap() {
        let b = RetryBudget::new(2, 1000);
        for _ in 0..100 {
            b.record_success();
        }
        assert_eq!(b.balance_millitokens(), 2000, "deposits never exceed the cap");
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
    }

    #[test]
    fn low_priority_spends_yield_once_the_bucket_is_half_drained() {
        let b = RetryBudget::new(4, 1000);
        // Full bucket: low-priority tolls (one deposit each) spend down
        // to (not below) half.
        assert!(b.try_spend_low());
        assert!(b.try_spend_low());
        assert!(!b.try_spend_low(), "below half: background traffic yields");
        assert_eq!(b.exhausted(), 0, "yields are not exhaustion");
        // Foreground still gets the bottom half.
        assert!(b.try_spend());
        assert!(b.try_spend());
        assert!(!b.try_spend());
        assert_eq!(b.exhausted(), 1);
    }

    #[test]
    fn low_priority_toll_plus_success_deposit_is_net_zero() {
        let b = RetryBudget::new(10, 100);
        let full = b.balance_millitokens();
        for _ in 0..50 {
            assert!(b.try_spend_low(), "a repaying background loop never yields");
            b.record_success();
        }
        assert_eq!(b.balance_millitokens(), full, "toll + deposit must cancel");
    }

    #[test]
    fn breaker_opens_after_consecutive_failures_and_probes_again() {
        let mut b = Breaker::new();
        assert!(b.admits(1));
        b.record_failure(1);
        b.record_failure(2);
        assert!(b.admits(3), "two failures stay closed");
        b.record_failure(3);
        assert!(!b.admits(4), "third consecutive failure opens it");
        assert!(b.admits(5), "first backoff skips one op, then half-open probe");
        // A failed probe doubles the skip.
        b.record_failure(5);
        assert!(!b.admits(6));
        assert!(!b.admits(7));
        assert!(b.admits(8));
        // A successful probe closes it fully.
        b.record_success();
        assert!(b.admits(9));
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn breaker_backoff_is_capped() {
        let mut b = Breaker::new();
        for op in 1..=64 {
            b.record_failure(op);
        }
        assert!(!b.admits(65));
        assert!(
            b.admits(64 + BREAKER_CAP_OPS + 1),
            "skip never exceeds BREAKER_CAP_OPS, so probes keep happening"
        );
    }

    /// A one-connection server that reads `requests` frames, then sends
    /// `replies` framed, `chunk` bytes per write, and hangs up.
    fn scripted_server(
        requests: usize,
        replies: &[Response],
        chunk: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr");
        let mut wire = Vec::new();
        for reply in replies {
            crate::proto::write_frame(&mut wire, &crate::proto::encode_response(reply))
                .expect("frame into a Vec");
        }
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            conn.set_nodelay(true).expect("nodelay");
            for _ in 0..requests {
                crate::proto::read_frame(&mut conn, MAX_FRAME_LEN)
                    .expect("request")
                    .expect("frame");
            }
            for piece in wire.chunks(chunk) {
                io::Write::write_all(&mut conn, piece).expect("reply bytes");
            }
        });
        (addr, server)
    }

    fn scripted_client(addr: SocketAddr) -> Client {
        Client::with_options(
            addr,
            ClientOptions { retry: RetryPolicy::none(), ..Default::default() },
        )
    }

    #[test]
    fn pipelined_replies_decode_whole_however_the_bytes_arrive() {
        let requests: Vec<Request> =
            (0..8).map(|i| Request::Card { name: format!("k{i}") }).collect();
        let replies: Vec<Response> = (0..8)
            .map(|i| match i {
                3 => Response::Sketch(vec![0xAB; 1500]),
                5 => Response::Err {
                    code: ErrCode::NotFound,
                    message: "no sketch named \"k5\"".into(),
                },
                _ => Response::Value(f64::from(i)),
            })
            .collect();
        // All replies in one write, then one byte per write.
        for chunk in [usize::MAX, 1] {
            let (addr, server) = scripted_server(requests.len(), &replies, chunk);
            let got = scripted_client(addr).pipeline(&requests).expect("pipeline");
            assert_eq!(got, replies, "chunk {chunk}");
            server.join().expect("server");
        }
    }

    #[test]
    fn a_busy_first_reply_fails_the_pipeline_as_busy() {
        let requests: Vec<Request> =
            (0..8).map(|i| Request::Card { name: format!("k{i}") }).collect();
        for chunk in [usize::MAX, 1] {
            let (addr, server) = scripted_server(requests.len(), &[Response::Busy], chunk);
            match scripted_client(addr).pipeline(&requests) {
                Err(ClientError::Busy) => {}
                other => panic!("chunk {chunk}: expected Busy, got {other:?}"),
            }
            server.join().expect("server");
        }
    }

    #[test]
    fn remaining_budget_rounds_up_and_expires() {
        let soon = Instant::now() + Duration::from_micros(300);
        // Sub-millisecond remainder must stamp 1, never 0 ("no deadline").
        if let Some(ms) = remaining_budget_ms(soon) {
            assert_eq!(ms, 1);
        }
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(remaining_budget_ms(past), None);
        let far = Instant::now() + Duration::from_secs(60 * 60 * 48);
        assert_eq!(remaining_budget_ms(far), Some(MAX_BUDGET_MS), "clamped to the wire cap");
    }
}
