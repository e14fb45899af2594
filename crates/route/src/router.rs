//! The scatter-gather router: one `HMS1` endpoint over a ring of
//! replica groups.
//!
//! The router speaks the same wire protocol as a plain daemon, so every
//! existing client works unchanged — it just answers from a cluster. It
//! runs the daemon's own connection front end ([`hmh_serve::front`]):
//! the same accept queue, BUSY shedding, worker pool, pipelined batches,
//! dispatch-time expiry and drain. Only the per-request answer differs:
//!
//! * **Name-keyed ops** (PUT, MERGE, BATCH_PUT, GET, CARD) forward to
//!   the ring owner's replica group through a [`FailoverClient`]; a
//!   group whose every replica is down answers a typed `UNAVAILABLE`,
//!   never a hang.
//! * **JACCARD** spanning two groups pulls both sketches and computes
//!   the estimate in the router — the same arithmetic a daemon runs,
//!   fed by two GETs.
//! * **LIST_PAGE/HEALTH/SCRUB** scatter-gather across all groups.
//!   LIST_PAGE degrades to a partial page (marked `partial: true`) when
//!   a group is unreachable; HEALTH marks the missing group in its
//!   per-group slots; SCRUB has no gap marker, so it fails typed.
//! * **DELETE** fans out to *every* replica of the owning group —
//!   deleting from one replica of a group is undone by the group's own
//!   anti-entropy.
//! * **DIGEST/SYNC** are refused: they are replica-to-replica
//!   anti-entropy ops, and routing them to "the cluster" has no
//!   meaning.
//! * **SHUTDOWN** stops the router only; the daemons behind it keep
//!   their own lifecycles.
//!
//! Group liveness reuses the replica crate's healthy → suspect → down
//! ladder, one tracker per group, with down-state attempts backed off
//! in request rounds — a dead group costs each scatter a skip, not a
//! connect timeout.

use std::collections::BTreeSet;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use hmh_replica::PeerTracker;
use hmh_serve::front::{self, Disposition, FrontEnd, FrontHandle, FrontOptions, Handler};
use hmh_serve::proto::{
    ErrCode, Health, Request, Response, ScrubReport, MAX_LIST_NAMES, MAX_SCRUB_PAGE,
};
use hmh_serve::{Client, ClientError, ClientOptions, FailoverClient, RetryBudget};

use crate::ring::Ring;

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouteOptions {
    /// Client-facing connection front-end settings: workers, queue
    /// depth, deadlines, frame cap.
    pub front: FrontOptions,
    /// Options for the shard-facing clients. These deadlines are the
    /// per-shard budget: a scatter-gather waits at most one failed
    /// shard exchange per group, never unboundedly.
    pub shard: ClientOptions,
    /// Failover attempt budget per group per operation.
    pub shard_attempts: u32,
    /// Ceiling in rounds on the down-group attempt backoff.
    pub backoff_cap: u64,
}

impl Default for RouteOptions {
    fn default() -> Self {
        Self {
            front: FrontOptions::default(),
            shard: ClientOptions::default(),
            shard_attempts: 0, // 0 = one per replica plus one
            backoff_cap: hmh_replica::BACKOFF_CAP_ROUNDS,
        }
    }
}

/// Why the router could not start.
#[derive(Debug)]
pub enum RouteError {
    /// Binding or configuring the listener failed.
    Io(std::io::Error),
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Io(e) => write!(f, "cannot start router: {e}"),
        }
    }
}

impl std::error::Error for RouteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RouteError::Io(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for RouteError {
    fn from(e: std::io::Error) -> Self {
        RouteError::Io(e)
    }
}

/// Shared per-group liveness: one tracker per group, advanced in
/// request rounds (each handled request is one round, so a down group's
/// backoff expires after a bounded number of requests, not wall-clock).
struct Liveness {
    trackers: Vec<Mutex<PeerTracker>>,
    round: AtomicU64,
}

impl Liveness {
    fn new(ring: &Ring, backoff_cap: u64) -> Self {
        let trackers = ring
            .groups()
            .iter()
            .map(|g| Mutex::new(PeerTracker::new(g.id.clone()).with_backoff_cap(backoff_cap)))
            .collect();
        Self { trackers, round: AtomicU64::new(1) }
    }

    fn tracker(&self, group: usize) -> MutexGuard<'_, PeerTracker> {
        self.trackers[group].lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn should_attempt(&self, group: usize) -> bool {
        let round = self.round.load(Ordering::Relaxed);
        self.tracker(group).should_attempt(round)
    }

    fn record(&self, group: usize, ok: bool) {
        let round = self.round.load(Ordering::Relaxed);
        let mut tracker = self.tracker(group);
        if ok {
            tracker.record_success(round, 0);
        } else {
            tracker.record_failure(round);
        }
    }
}

struct Shared {
    ring: Ring,
    liveness: Liveness,
    /// The client-facing front end. Its `expired` counts requests the
    /// router refused at dispatch and shard EXPIRED replies it relayed.
    front: Arc<FrontEnd>,
    handoffs: Arc<AtomicU64>,
    /// Operations refused because a whole group's breakers were open;
    /// shared with every worker's `FailoverClient`s.
    breaker_refusals: Arc<AtomicU64>,
    /// The router-wide retry budget every shard client draws from (also
    /// present in `opts.shard.budget`; kept here for HEALTH reporting).
    budget: Arc<RetryBudget>,
    opts: RouteOptions,
}

/// A running router. Same lifecycle surface as the daemon's
/// `ServerHandle`: drop signals shutdown, [`RouterHandle::join`] drains.
pub struct RouterHandle {
    front: FrontHandle,
    handoffs: Arc<AtomicU64>,
}

impl RouterHandle {
    /// The address actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Signal shutdown without waiting.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }

    /// Signal shutdown and wait for every thread to drain.
    pub fn join(self) {
        self.front.join();
    }

    /// True once every thread has exited (non-blocking).
    pub fn is_finished(&self) -> bool {
        self.front.is_finished()
    }

    /// The handoff counter this router reports in HEALTH
    /// (`route_handoffs`). An in-process rebalance adds its completed
    /// copy-verify-release cycles here.
    pub fn handoffs(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.handoffs)
    }
}

/// Start the router over `ring`, listening on `addr`.
pub fn route(
    ring: Ring,
    addr: impl ToSocketAddrs,
    opts: RouteOptions,
) -> Result<RouterHandle, RouteError> {
    // One retry budget for the whole router: every worker's shard
    // clients (and DELETE's per-replica clients) share it, so N workers
    // facing one sick group spend one bounded pool of retries.
    let mut opts = opts;
    let budget = opts.shard.budget.get_or_insert_with(|| Arc::new(RetryBudget::default())).clone();

    let liveness = Liveness::new(&ring, opts.backoff_cap);
    let (front, shared) = front::start(addr, opts.front.clone(), "hmh-route", |front| Shared {
        ring,
        liveness,
        front,
        handoffs: Arc::default(),
        breaker_refusals: Arc::default(),
        budget,
        opts,
    })?;
    Ok(RouterHandle { front, handoffs: Arc::clone(&shared.handoffs) })
}

/// Per-worker shard connections: one failover client per group, built
/// once and reused across requests (reconnection after failures is the
/// client's own job). Each group's client layers a per-replica circuit
/// breaker and draws rotations from the router-wide retry budget
/// (shared via the options); breaker-open refusals land on the shared
/// counter for HEALTH.
struct ShardClients {
    groups: Vec<FailoverClient>,
    /// The caller deadline currently being propagated (set per request
    /// by `Shared::handle`, read wherever a fresh shard client is built
    /// mid-request).
    deadline: Option<Instant>,
}

impl ShardClients {
    fn new(shared: &Shared) -> Self {
        let attempts = |n: usize| match shared.opts.shard_attempts {
            0 => FailoverClient::default_attempts(n),
            fixed => fixed,
        };
        let groups = shared
            .ring
            .groups()
            .iter()
            .map(|g| {
                FailoverClient::with_options(
                    &g.replicas,
                    shared.opts.shard.clone(),
                    attempts(g.replicas.len()),
                )
                .with_breaker_counter(Arc::clone(&shared.breaker_refusals))
            })
            .collect();
        Self { groups, deadline: None }
    }

    /// Propagate (or clear) the caller's deadline to every group.
    fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
        for group in &mut self.groups {
            group.set_deadline(deadline);
        }
    }
}

impl Handler for Shared {
    type Worker = ShardClients;

    fn worker(&self) -> ShardClients {
        ShardClients::new(self)
    }

    /// Every inbound frame — expired and unparseable ones included — is
    /// one liveness round.
    fn frame_received(&self) {
        self.liveness.round.fetch_add(1, Ordering::Relaxed);
    }

    fn handle(
        &self,
        shards: &mut ShardClients,
        request: Request,
        deadline: Option<Instant>,
    ) -> (Response, Disposition) {
        // Every scatter-gather leg stamps the caller's *remaining* time,
        // so fan-out never outlives them.
        shards.set_deadline(deadline);
        handle_request(self, shards, request)
    }
}

/// Dispatch one request.
fn handle_request(
    shared: &Shared,
    shards: &mut ShardClients,
    request: Request,
) -> (Response, Disposition) {
    // Name-keyed ops forward verbatim to the owner group over the
    // pipelined submission path — the request frame was just decoded
    // off this router's wire and goes back out byte-equivalent, so
    // there is nothing to re-derive per op.
    if let Some(name) = forward_key(&request) {
        let name = name.to_string();
        return (forward(shared, shards, &name, &request), Disposition::KeepAlive);
    }
    let resp = match request {
        Request::Jaccard { a, b } => jaccard(shared, shards, &a, &b),
        Request::ListPage { after } => scatter_list_page(shared, shards, &after),
        Request::Delete { name } => delete(shared, shards, &name),
        Request::Health => Response::Health(scatter_health(shared, shards)),
        Request::Scrub { trigger, after } => scatter_scrub(shared, shards, trigger, &after),
        Request::Digest { .. } => Response::Err {
            code: ErrCode::UnknownOp,
            message: "DIGEST is replica-to-replica anti-entropy; routers do not serve it".into(),
        },
        Request::Sync { .. } => Response::Err {
            code: ErrCode::UnknownOp,
            message: "SYNC is replica-to-replica anti-entropy; routers do not serve it".into(),
        },
        // Stops the *router*, not the shards: the daemons behind it
        // have their own lifecycles and other routers may be using them.
        Request::Shutdown => return (Response::Ok, Disposition::Shutdown),
        // Name-keyed ops were forwarded above; the arm exists only to
        // keep the match exhaustive without a panic path.
        Request::Put { .. }
        | Request::Merge { .. }
        | Request::BatchPut { .. }
        | Request::Get { .. }
        | Request::Card { .. } => Response::Err {
            code: ErrCode::Other(0x7e),
            message: "name-keyed op fell through the forward path".into(),
        },
    };
    (resp, Disposition::KeepAlive)
}

/// The owner-keyed name of an op the router forwards verbatim to one
/// group, or `None` for scatter/local ops.
fn forward_key(request: &Request) -> Option<&str> {
    match request {
        Request::Put { name, .. }
        | Request::Merge { name, .. }
        | Request::BatchPut { name, .. }
        | Request::Get { name }
        | Request::Card { name } => Some(name),
        _ => None,
    }
}

/// Forward a name-keyed op to the owner group, with liveness gating and
/// typed degradation: a group in down-backoff, or one whose whole
/// failover budget failed, answers `UNAVAILABLE` instead of hanging.
/// The decoded request goes back out as is, through the same
/// [`Client::request`] every typed client call uses.
fn forward(shared: &Shared, shards: &mut ShardClients, name: &str, request: &Request) -> Response {
    let group = shared.ring.owner_index(name);
    if !shared.liveness.should_attempt(group) {
        return unavailable(shared, group, "group is in down-backoff");
    }
    let result = shards.groups[group].call(|c| c.request(request));
    respond(shared, group, result)
}

/// True when a shard call failed because the group could not answer —
/// transport exhaustion, a shed, or a refusal from the resilience layer
/// — rather than with an answer its servers gave (NOT_FOUND, READ_ONLY,
/// EXPIRED, a typed error). The one rule for marking a group down.
fn group_down(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::AllReplicasDown { .. }
            | ClientError::Io(_)
            | ClientError::Busy
            | ClientError::BreakerOpen { .. }
            | ClientError::RetryBudgetExhausted
    )
}

/// Map a shard-call result onto the client-facing wire, recording group
/// liveness: a failure [`group_down`] names marks the group failed,
/// anything the *servers* answered (including typed errors) marks it
/// alive.
fn respond(shared: &Shared, group: usize, result: Result<Response, ClientError>) -> Response {
    let e = match result {
        Ok(resp) => {
            shared.liveness.record(group, true);
            return resp;
        }
        Err(e) => e,
    };
    shared.liveness.record(group, !group_down(&e));
    match e {
        ClientError::AllReplicasDown { attempts, last_errors } => unavailable(
            shared,
            group,
            &format!(
                "all replicas down after {attempts} attempts (last: {})",
                last_errors.last().map_or("none", String::as_str)
            ),
        ),
        ClientError::Io(e) => unavailable(shared, group, &format!("transport: {e}")),
        ClientError::NotFound(name) => {
            Response::Err { code: ErrCode::NotFound, message: format!("no sketch named {name:?}") }
        }
        ClientError::ReadOnly => Response::ReadOnly,
        ClientError::Busy => Response::Busy,
        // The shard (or the inner client, locally) judged the caller's
        // deadline spent. The group is alive — an EXPIRED frame is an
        // answer — and the refusal relays typed to the caller.
        ClientError::Expired => {
            shared.front.count_expired();
            Response::Expired
        }
        // Bounded refusals from the resilience layer: the group already
        // failed at least one attempt (budget) or every breaker is open.
        // Both degrade typed; the budget denial was already counted by
        // the budget itself, the breaker refusal by the shared counter.
        e @ (ClientError::RetryBudgetExhausted | ClientError::BreakerOpen { .. }) => {
            unavailable(shared, group, &e.to_string())
        }
        ClientError::Server { code, message } => Response::Err { code, message },
        other => Response::Err { code: ErrCode::Other(0x7e), message: other.to_string() },
    }
}

fn unavailable(shared: &Shared, group: usize, detail: &str) -> Response {
    let id = &shared.ring.groups()[group].id;
    Response::Err {
        code: ErrCode::Unavailable,
        message: format!("replica group {id:?} is unavailable: {detail}"),
    }
}

/// JACCARD across the ring: both sketches may live in different groups,
/// so pull both encoded payloads and run the paper's estimator locally —
/// the same `hmh_core` arithmetic a daemon runs, so a routed JACCARD and
/// a direct one agree bit-for-bit.
fn jaccard(shared: &Shared, shards: &mut ShardClients, a: &str, b: &str) -> Response {
    let ga = shared.ring.owner_index(a);
    let gb = shared.ring.owner_index(b);
    if ga == gb {
        // One group holds both: its daemon computes, one round-trip.
        let request = Request::Jaccard { a: a.to_string(), b: b.to_string() };
        return forward(shared, shards, a, &request);
    }
    let sa = match fetch_decoded(shared, shards, ga, a) {
        Ok(sketch) => sketch,
        Err(resp) => return resp,
    };
    let sb = match fetch_decoded(shared, shards, gb, b) {
        Ok(sketch) => sketch,
        Err(resp) => return resp,
    };
    match sa.jaccard(&sb) {
        Ok(j) => Response::Value(j.estimate),
        Err(e) => Response::Err { code: ErrCode::Incompatible, message: e.to_string() },
    }
}

// The Err variant is a ready-to-send Response (Health grew past the
// clippy size bar); it is written to the socket immediately, never
// propagated, so boxing would only add an allocation on the error path.
#[allow(clippy::result_large_err)]
fn fetch_decoded(
    shared: &Shared,
    shards: &mut ShardClients,
    group: usize,
    name: &str,
) -> Result<hmh_core::HyperMinHash, Response> {
    if !shared.liveness.should_attempt(group) {
        return Err(unavailable(shared, group, "group is in down-backoff"));
    }
    match shards.groups[group].call(|c| c.get(name)) {
        Ok(sketch) => {
            shared.liveness.record(group, true);
            Ok(sketch)
        }
        Err(e) => Err(respond(shared, group, Err(e))),
    }
}

/// LIST_PAGE: ask every reachable group for its page after the
/// cursor, merge, and return the first [`MAX_LIST_NAMES`] of the union.
///
/// Correctness of the cut: each group's page is the smallest names that
/// group holds after the cursor. If the merged page is full, its last
/// name (the cut) is the `MAX_LIST_NAMES`-th smallest of the union; any
/// name a full group page *omitted* is greater than everything on that
/// page — and a full page alone already holds `MAX_LIST_NAMES` names
/// below the omitted name, pushing the cut below it. So nothing ≤ the
/// cut is ever missing: pagination is gapless, group by group.
///
/// Groups that are unreachable (or in down-backoff) are skipped and the
/// page is marked `partial: true` — degraded, visibly, instead of
/// failing entirely or silently.
fn scatter_list_page(shared: &Shared, shards: &mut ShardClients, after: &str) -> Response {
    let mut union = BTreeSet::new();
    let mut partial = false;
    for group in 0..shared.ring.group_count() {
        if !shared.liveness.should_attempt(group) {
            partial = true;
            continue;
        }
        match shards.groups[group].call(|c| c.list_page(after)) {
            Ok((names, shard_partial)) => {
                shared.liveness.record(group, true);
                partial |= shard_partial;
                union.extend(names);
            }
            Err(e) if group_down(&e) => {
                shared.liveness.record(group, false);
                partial = true;
            }
            Err(e) => {
                shared.liveness.record(group, true);
                return Response::Err { code: ErrCode::Other(0x7e), message: e.to_string() };
            }
        }
    }
    Response::NamesPage { names: union.into_iter().take(MAX_LIST_NAMES).collect(), partial }
}

/// DELETE fans out to every replica of the owning group directly — a
/// one-replica delete is resurrected by the group's anti-entropy, so
/// "delete" at the routing tier means "delete everywhere it is owned".
/// NOT_FOUND from a replica is fine (it never had it, or another pass
/// already released it); the op succeeds if at least one replica
/// deleted and none failed for transport reasons.
fn delete(shared: &Shared, shards: &mut ShardClients, name: &str) -> Response {
    let group = shared.ring.owner_index(name);
    if !shared.liveness.should_attempt(group) {
        return unavailable(shared, group, "group is in down-backoff");
    }
    let mut deleted = 0u64;
    let mut missing = 0u64;
    for &addr in &shared.ring.groups()[group].replicas {
        let mut client = Client::with_options(addr, shared.opts.shard.clone());
        client.set_deadline(shards.deadline);
        match client.delete(name) {
            Ok(()) => deleted += 1,
            Err(ClientError::NotFound(_)) => missing += 1,
            // Narrower than `group_down` on purpose: a direct replica
            // client marks the group down only on a transport failure.
            Err(ClientError::Io(e)) => {
                shared.liveness.record(group, false);
                return unavailable(shared, group, &format!("replica {addr}: {e}"));
            }
            Err(e) => {
                shared.liveness.record(group, true);
                return respond(shared, group, Err(e));
            }
        }
    }
    shared.liveness.record(group, true);
    if deleted == 0 && missing > 0 {
        return Response::Err {
            code: ErrCode::NotFound,
            message: format!("no sketch named {name:?}"),
        };
    }
    Response::Ok
}

/// SCRUB scatter-gather: fan the trigger (or status query) across every
/// group, sum the counters, and merge the quarantined-name pages.
///
/// The name cut is gapless for the same reason [`scatter_list_page`]'s
/// is: each group's page holds its smallest fenced names after the
/// cursor, so the merged page's cut is provably below anything a full
/// group page omitted. `last_scrub_age_ms` aggregates as the *oldest*
/// age across groups — the cluster has scrubbed only as recently as its
/// most-stale shard — so a shard that never completed a pass keeps the
/// cluster honest at `u64::MAX`. A report has no partial marker, so an
/// unreachable group fails the scatter typed instead of understating the
/// cluster's corruption.
fn scatter_scrub(
    shared: &Shared,
    shards: &mut ShardClients,
    trigger: bool,
    after: &str,
) -> Response {
    let mut report = ScrubReport::default();
    let mut union = BTreeSet::new();
    for group in 0..shared.ring.group_count() {
        if !shared.liveness.should_attempt(group) {
            return unavailable(shared, group, "group is in down-backoff");
        }
        match shards.groups[group].call(|c| c.scrub(trigger, after)) {
            Ok(page) => {
                shared.liveness.record(group, true);
                report.rounds = report.rounds.saturating_add(page.rounds);
                report.records = report.records.saturating_add(page.records);
                report.corrupt_found = report.corrupt_found.saturating_add(page.corrupt_found);
                report.repaired = report.repaired.saturating_add(page.repaired);
                report.quarantined = report.quarantined.saturating_add(page.quarantined);
                report.last_scrub_age_ms = report.last_scrub_age_ms.max(page.last_scrub_age_ms);
                union.extend(page.names);
            }
            Err(e) if group_down(&e) => {
                shared.liveness.record(group, false);
                return unavailable(shared, group, &e.to_string());
            }
            Err(e) => return respond(shared, group, Err(e)),
        }
    }
    report.names = union.into_iter().take(MAX_SCRUB_PAGE).collect();
    Response::Scrub(report)
}

/// HEALTH scatter-gather: the router's own snapshot with every group's
/// liveness-gated HEALTH folded in ([`Health::fold`]); a group that is
/// down or fails to answer folds as [`Health::unreachable`]. Per-group
/// liveness rides the `peers` slots (addr = group id).
fn scatter_health(shared: &Shared, shards: &mut ShardClients) -> Health {
    let groups: Vec<Health> = (0..shared.ring.group_count())
        .map(|group| {
            if !shared.liveness.should_attempt(group) {
                return Health::unreachable();
            }
            let reply = shards.groups[group].call(Client::health);
            shared.liveness.record(group, reply.is_ok());
            reply.unwrap_or_else(|_| Health::unreachable())
        })
        .collect();
    let round = shared.liveness.round.load(Ordering::Relaxed);
    Health {
        route_epoch: shared.ring.epoch(),
        route_handoffs: shared.handoffs.load(Ordering::Relaxed),
        retry_exhausted: shared.budget.exhausted(),
        breaker_open: shared.breaker_refusals.load(Ordering::Relaxed),
        peers: (0..shared.ring.group_count())
            .map(|g| shared.liveness.tracker(g).health(round))
            .collect(),
        ..shared.front.health()
    }
    .fold(groups)
}
