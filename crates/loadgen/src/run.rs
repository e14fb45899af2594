//! The generator: preload a key space, then drive it from N
//! connections under a pacing discipline for a fixed wall-clock duty.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hmh_core::{format, HmhParams, HyperMinHash};
use hmh_hash::splitmix::SplitMix64;
use hmh_serve::{Client, ClientError, ClientOptions, Request, RetryBudget, MAX_PIPELINE_DEPTH};
use hmh_store::RetryPolicy;

use crate::report::{classify, classify_response, Report};

/// Relative weights of the operations in the generated stream.
///
/// Weights are integers, not probabilities; a zero weight removes the
/// operation entirely. The default mix is read-heavy (the paper's
/// serving scenario: many similarity queries against a slowly growing
/// corpus): 70% CARD, 20% PUT, 9% JACCARD, 1% LIST.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Weight of PUT (store a full sketch payload).
    pub put: u32,
    /// Weight of CARD (cardinality of one named sketch).
    pub card: u32,
    /// Weight of JACCARD (similarity of two named sketches).
    pub jaccard: u32,
    /// Weight of LIST (whole-store name listing).
    pub list: u32,
}

impl Default for Mix {
    fn default() -> Self {
        Self { put: 20, card: 70, jaccard: 9, list: 1 }
    }
}

impl Mix {
    fn total(&self) -> u64 {
        u64::from(self.put) + u64::from(self.card) + u64::from(self.jaccard) + u64::from(self.list)
    }

    /// Map a uniform roll in `0..total()` to an operation.
    fn pick(&self, roll: u64) -> Op {
        let mut r = roll;
        if r < u64::from(self.put) {
            return Op::Put;
        }
        r -= u64::from(self.put);
        if r < u64::from(self.card) {
            return Op::Card;
        }
        r -= u64::from(self.card);
        if r < u64::from(self.jaccard) {
            return Op::Jaccard;
        }
        Op::List
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Put,
    Card,
    Jaccard,
    List,
}

/// How operations are scheduled onto the wire.
#[derive(Debug, Clone, Copy)]
pub enum Pacing {
    /// Issue the next operation as soon as the previous one completes.
    /// Offered load equals achieved load; measures capacity.
    Closed,
    /// Issue operations on a fixed schedule of `ops_per_sec` spread
    /// evenly across the connections, independent of completions.
    /// Workers behind schedule issue back-to-back; latency is measured
    /// from the *scheduled* start so backlog shows up in p99 instead
    /// of silently throttling the offered load.
    Open {
        /// Total scheduled operation rate across all connections.
        ops_per_sec: f64,
    },
}

/// One load phase's configuration.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Master seed; every worker derives its own deterministic stream.
    pub seed: u64,
    /// Concurrent connections (one OS thread + one TCP client each).
    pub connections: usize,
    /// Wall-clock duty: no operation *starts* after this elapses.
    pub duty: Duration,
    /// Operation mix.
    pub mix: Mix,
    /// Pacing discipline.
    pub pacing: Pacing,
    /// Per-operation deadline budget stamped on the wire (v2 frames).
    /// `None` sends v1 frames with no deadline.
    pub budget: Option<Duration>,
    /// Frames each connection keeps in flight per exchange: every
    /// [`Client::pipeline`] call submits this many operations, so one
    /// round trip (and, server-side, one vectored write) carries the
    /// whole window. `1` is one request, one reply.
    pub pipeline: usize,
    /// Number of distinct sketch names (preloaded before measuring, so
    /// reads never see NOT_FOUND).
    pub keys: usize,
    /// Items folded into the payload sketch each PUT carries.
    pub payload_items: u64,
    /// Base client options. The generator installs its own retry
    /// policy (one bounded retry through a shared [`RetryBudget`]) and
    /// the `budget` above on top of these; timeouts are taken as-is
    /// and are what bounds a worst-case operation — the harness can
    /// slow down under overload but can never hang.
    pub client: ClientOptions,
}

impl Default for LoadOptions {
    fn default() -> Self {
        Self {
            seed: 0xB10C_D05E,
            connections: 2,
            duty: Duration::from_secs(2),
            mix: Mix::default(),
            pacing: Pacing::Closed,
            budget: None,
            pipeline: 1,
            keys: 64,
            payload_items: 256,
            client: ClientOptions {
                connect_timeout: Duration::from_millis(500),
                read_timeout: Duration::from_secs(2),
                write_timeout: Duration::from_secs(2),
                ..ClientOptions::default()
            },
        }
    }
}

/// Why a load phase could not run.
#[derive(Debug)]
pub enum LoadgenError {
    /// The options are unusable (zero connections, empty mix, ...).
    Config(String),
    /// Preloading the key space failed — the target is not serving.
    Preload {
        /// The sketch name that failed to store.
        name: String,
        /// The client error it failed with.
        error: ClientError,
    },
}

impl std::fmt::Display for LoadgenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadgenError::Config(why) => write!(f, "bad load configuration: {why}"),
            LoadgenError::Preload { name, error } => {
                write!(f, "preload of {name:?} failed: {error}")
            }
        }
    }
}

impl std::error::Error for LoadgenError {}

/// The deterministic name of key `i`.
fn key_name(i: usize) -> String {
    format!("loadgen/k{i}")
}

/// Build the fixed payload sketch every PUT carries, pre-encoded once.
/// Parameters are the paper's serving defaults scaled down one notch
/// (p=10) so a payload is a few KiB — representative, not dominant.
fn payload(seed: u64, items: u64) -> Result<Vec<u8>, LoadgenError> {
    let params = HmhParams::new(10, 6, 10)
        .map_err(|e| LoadgenError::Config(format!("payload parameters: {e}")))?;
    let base = seed.wrapping_mul(0x1000).wrapping_add(1);
    let sketch = HyperMinHash::from_items(params, base..base + items.max(1));
    Ok(format::encode(&sketch))
}

/// The client options a worker uses: caller timeouts, the phase's
/// deadline budget, and exactly one bounded retry bought from a
/// process-wide [`RetryBudget`] — enough to smooth the benign
/// shed-race resets, impossible to amplify into a storm.
fn worker_client_options(opts: &LoadOptions, budget: &Arc<RetryBudget>) -> ClientOptions {
    // `none()` never sleeps; re-opening one extra attempt on top of it
    // keeps retries instant (the shed-race reset reconnects right away)
    // while the shared budget bounds how many such retries the whole
    // worker fleet can buy.
    let mut retry = RetryPolicy::none();
    retry.max_attempts = 2;
    retry.base_delay = Duration::from_millis(1);
    retry.max_delay = Duration::from_millis(5);
    ClientOptions {
        retry,
        op_budget: opts.budget,
        budget: Some(Arc::clone(budget)),
        ..opts.client.clone()
    }
}

/// Run one load phase against `addr` and return the merged report.
///
/// Deterministic given the seed *in which operations are generated*;
/// how many complete within the duty is the measurement.
pub fn run(addr: SocketAddr, opts: &LoadOptions) -> Result<Report, LoadgenError> {
    if opts.connections == 0 {
        return Err(LoadgenError::Config("connections must be > 0".into()));
    }
    if opts.keys == 0 {
        return Err(LoadgenError::Config("keys must be > 0".into()));
    }
    if opts.mix.total() == 0 {
        return Err(LoadgenError::Config("the op mix has zero total weight".into()));
    }
    if opts.pipeline == 0 || opts.pipeline > MAX_PIPELINE_DEPTH {
        return Err(LoadgenError::Config(format!(
            "pipeline depth {} is outside 1..={MAX_PIPELINE_DEPTH}",
            opts.pipeline
        )));
    }
    let payload = payload(opts.seed, opts.payload_items)?;

    // Preload with patient retries and no deadline: reads during the
    // measured phase must never see NOT_FOUND, and a slow cold start
    // must not fail the harness.
    let mut loader = Client::with_options(
        addr,
        ClientOptions { retry: RetryPolicy::default(), ..opts.client.clone() },
    );
    for i in 0..opts.keys {
        let name = key_name(i);
        loader
            .put_raw(&name, &payload)
            .map_err(|error| LoadgenError::Preload { name: name.clone(), error })?;
    }
    drop(loader);

    let retry_budget = Arc::new(RetryBudget::default());
    let worker_opts = worker_client_options(opts, &retry_budget);
    let mut merged = Report::default();
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(opts.connections);
        for w in 0..opts.connections {
            let worker_opts = worker_opts.clone();
            let payload = &payload;
            handles.push(scope.spawn(move || worker(addr, opts, worker_opts, payload, w)));
        }
        for handle in handles {
            merged.merge(handle.join().expect("invariant: loadgen workers do not panic"));
        }
    });
    merged.finalize();
    Ok(merged)
}

/// Draw the next operation from a worker's seeded stream.
///
/// Three rolls per op, in a fixed order, whatever the window size, so
/// the generated workload at a given seed is identical at every
/// pipeline depth — only the framing onto the wire differs.
fn next_request(rng: &mut SplitMix64, opts: &LoadOptions, payload: &[u8]) -> Request {
    let roll = rng.next_u64() % opts.mix.total();
    let key = (rng.next_u64() % opts.keys as u64) as usize;
    let key2 = (rng.next_u64() % opts.keys as u64) as usize;
    match opts.mix.pick(roll) {
        Op::Put => Request::Put { name: key_name(key), sketch: payload.to_vec() },
        Op::Card => Request::Card { name: key_name(key) },
        Op::Jaccard => Request::Jaccard { a: key_name(key), b: key_name(key2) },
        Op::List => Request::ListPage { after: String::new() },
    }
}

/// One connection's loop: each iteration draws a window of `pipeline`
/// operations from the worker's seeded stream, submits the window as
/// one pipelined exchange, and classifies every reply slot
/// individually. Depth 1 is a window of one — the same client path a
/// single call takes — so every depth prices the same code.
fn worker(
    addr: SocketAddr,
    opts: &LoadOptions,
    client_opts: ClientOptions,
    payload: &[u8],
    index: usize,
) -> Report {
    let mut rng = SplitMix64::new(SplitMix64::derive(opts.seed, index as u64));
    let mut client = Client::with_options(addr, client_opts);
    let mut report = Report::default();
    let started = Instant::now();
    let end = started + opts.duty;
    let interval = match opts.pacing {
        Pacing::Open { ops_per_sec } if ops_per_sec > 0.0 => {
            Some(Duration::from_secs_f64(opts.connections as f64 / ops_per_sec))
        }
        _ => None,
    };
    let mut issued: u32 = 0;
    while Instant::now() < end {
        // Claim this window's schedule slots. Under open pacing the
        // exchange is issued at the *first* op's slot and carries the
        // later slots early: the offered schedule is unchanged, the
        // wire just sees it in bursts of `pipeline` — which is the
        // point. Latency is still measured from each op's own slot
        // (backlog counts as latency; completing before one's slot
        // counts as zero), and no op whose slot falls past the duty
        // edge is issued.
        let mut starts: Vec<Instant> = Vec::with_capacity(opts.pipeline);
        match interval {
            Some(step) => {
                let first = started + step.mul_f64(f64::from(issued));
                let now = Instant::now();
                if first > now {
                    thread::sleep(first - now);
                }
                if first >= end {
                    break;
                }
                starts.push(first);
                for k in 1..opts.pipeline as u32 {
                    let slot = started + step.mul_f64(f64::from(issued.saturating_add(k)));
                    if slot >= end {
                        break;
                    }
                    starts.push(slot);
                }
            }
            None => starts.resize(opts.pipeline, Instant::now()),
        }
        issued = issued.saturating_add(starts.len() as u32);
        let requests: Vec<Request> =
            starts.iter().map(|_| next_request(&mut rng, opts, payload)).collect();
        match client.pipeline(&requests) {
            Ok(replies) => {
                let done = Instant::now();
                for (slot, reply) in starts.iter().zip(&replies) {
                    let latency_us =
                        u64::try_from(done.saturating_duration_since(*slot).as_micros())
                            .unwrap_or(u64::MAX);
                    report.record(classify_response(reply), latency_us);
                }
            }
            Err(error) => {
                // A whole-exchange failure takes the window down
                // together: every slot records the same outcome.
                let outcome = classify::<()>(&Err(error));
                for _ in &starts {
                    report.record(outcome, 0);
                }
            }
        }
    }
    report.elapsed = started.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_pick_maps_rolls_to_ops_by_weight() {
        let mix = Mix { put: 2, card: 3, jaccard: 4, list: 1 };
        assert_eq!(mix.total(), 10);
        let picks: Vec<Op> = (0..10).map(|r| mix.pick(r)).collect();
        assert_eq!(picks.iter().filter(|&&o| o == Op::Put).count(), 2);
        assert_eq!(picks.iter().filter(|&&o| o == Op::Card).count(), 3);
        assert_eq!(picks.iter().filter(|&&o| o == Op::Jaccard).count(), 4);
        assert_eq!(picks.iter().filter(|&&o| o == Op::List).count(), 1);
        // Zero-weight ops are never picked.
        let no_list = Mix { put: 1, card: 1, jaccard: 1, list: 0 };
        assert!((0..3).all(|r| no_list.pick(r) != Op::List));
    }

    #[test]
    fn bad_configurations_fail_typed_without_dialing() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let zero_conn = LoadOptions { connections: 0, ..LoadOptions::default() };
        assert!(matches!(run(addr, &zero_conn), Err(LoadgenError::Config(_))));
        let zero_keys = LoadOptions { keys: 0, ..LoadOptions::default() };
        assert!(matches!(run(addr, &zero_keys), Err(LoadgenError::Config(_))));
        let empty_mix = LoadOptions {
            mix: Mix { put: 0, card: 0, jaccard: 0, list: 0 },
            ..LoadOptions::default()
        };
        assert!(matches!(run(addr, &empty_mix), Err(LoadgenError::Config(_))));
    }

    #[test]
    fn pipeline_depth_is_validated() {
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        for depth in [0, MAX_PIPELINE_DEPTH + 1] {
            let opts = LoadOptions { pipeline: depth, ..LoadOptions::default() };
            assert!(matches!(run(addr, &opts), Err(LoadgenError::Config(_))));
        }
    }

    #[test]
    fn op_stream_is_identical_at_every_pipeline_depth() {
        // The pipelined worker must price the *same* workload, not a
        // reshuffled one: windowing the stream into batches of 8 draws
        // exactly the ops windows of one would have drawn one by one.
        let opts = LoadOptions::default();
        let payload = payload(opts.seed, 8).expect("payload");
        let mut serial_rng = SplitMix64::new(SplitMix64::derive(opts.seed, 3));
        let mut windowed_rng = SplitMix64::new(SplitMix64::derive(opts.seed, 3));
        let serial: Vec<Request> =
            (0..64).map(|_| next_request(&mut serial_rng, &opts, &payload)).collect();
        let mut windowed: Vec<Request> = Vec::new();
        for _ in 0..8 {
            windowed.extend((0..8).map(|_| next_request(&mut windowed_rng, &opts, &payload)));
        }
        assert_eq!(serial, windowed);
    }

    #[test]
    fn payload_is_deterministic_per_seed() {
        let a = payload(7, 128).expect("payload");
        let b = payload(7, 128).expect("payload");
        let c = payload(8, 128).expect("payload");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn preload_failure_is_typed_with_the_failing_name() {
        // Nothing listens on a reserved port: preload must fail typed,
        // quickly (bounded by connect_timeout × default retries).
        let addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let opts = LoadOptions {
            client: ClientOptions {
                connect_timeout: Duration::from_millis(50),
                retry: RetryPolicy::none(),
                ..ClientOptions::default()
            },
            ..LoadOptions::default()
        };
        match run(addr, &opts) {
            Err(LoadgenError::Preload { name, .. }) => assert_eq!(name, key_name(0)),
            other => panic!("expected a preload failure, got {other:?}"),
        }
    }
}
