//! Retry-storm chaos: one group of a routed cluster flaps (its replica
//! accepts connections and immediately drops them — the worst failure
//! shape for retry amplification, because every dial "succeeds" before
//! failing). The contract under the storm:
//!
//! * dials to the flapping group are **bounded** — the shared retry
//!   budget and the per-replica circuit breaker convert would-be
//!   amplification (2 dials per op, forever) into a probe cadence;
//! * every refused operation fails **typed** (UNAVAILABLE), quickly;
//! * the surviving groups serve normally *through the same router*
//!   while the storm rages;
//! * when the flapping stops, probes close the breaker and the group
//!   serves again — no operator intervention, no restart.

use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use hmh_core::{HmhParams, HyperMinHash};
use hmh_route::{route, Ring, RingConfig, RouteOptions};
use hmh_serve::{
    serve, Client, ClientError, ClientOptions, ErrCode, FailoverClient, FrontOptions, Request,
    Response, ServeOptions, ServerHandle,
};
use hmh_store::{RetryPolicy, StoreOptions};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hmh-storm-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn start(dir: &TempDir) -> ServerHandle {
    serve(
        &dir.0,
        "127.0.0.1:0",
        ServeOptions {
            front: FrontOptions {
                workers: 2,
                queue_depth: 32,
                read_timeout: Duration::from_millis(500),
                write_timeout: Duration::from_millis(500),
                ..FrontOptions::default()
            },
            store: StoreOptions::no_sleep(),
            ..ServeOptions::default()
        },
    )
    .unwrap()
}

const FORWARD: u8 = 0;
const FLAP: u8 = 1;

/// A counting TCP proxy with two modes: FORWARD pipes bytes to the
/// upstream daemon; FLAP accepts and immediately drops — the
/// accept-then-reset shape of a crash-looping replica. Every accept is
/// counted, which is exactly the "dials" the storm contract bounds.
struct Proxy {
    addr: SocketAddr,
    mode: Arc<AtomicU8>,
    accepts: Arc<AtomicU64>,
    live: Arc<std::sync::Mutex<Vec<TcpStream>>>,
    stop: Arc<AtomicBool>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Proxy {
    fn start(upstream: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let mode = Arc::new(AtomicU8::new(FORWARD));
        let accepts = Arc::new(AtomicU64::new(0));
        let live: Arc<std::sync::Mutex<Vec<TcpStream>>> = Default::default();
        let stop = Arc::new(AtomicBool::new(false));
        let (m, a, l, s) = (mode.clone(), accepts.clone(), live.clone(), stop.clone());
        let thread = thread::spawn(move || {
            while !s.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        a.fetch_add(1, Ordering::SeqCst);
                        if m.load(Ordering::SeqCst) == FLAP {
                            drop(conn); // accept-then-drop: the flap
                        } else {
                            let l = l.clone();
                            thread::spawn(move || pipe(conn, upstream, &l));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(2)),
                }
            }
        });
        Self { addr, mode, accepts, live, stop, thread: Some(thread) }
    }

    /// Switch modes. Entering FLAP also resets every live forwarded
    /// connection — a crash-looping replica kills established
    /// connections, it does not grandfather them in.
    fn set_mode(&self, mode: u8) {
        self.mode.store(mode, Ordering::SeqCst);
        if mode == FLAP {
            for conn in self.live.lock().unwrap().drain(..) {
                let _ = conn.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn accepts(&self) -> u64 {
        self.accepts.load(Ordering::SeqCst)
    }

    fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Bidirectional byte pump for FORWARD mode; both ends are registered
/// in `live` so a mode flip can reset them.
fn pipe(client: TcpStream, upstream: SocketAddr, live: &std::sync::Mutex<Vec<TcpStream>>) {
    let Ok(server) = TcpStream::connect(upstream) else { return };
    for conn in [&client, &server] {
        let _ = conn.set_read_timeout(Some(Duration::from_secs(1)));
        let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    }
    if let (Ok(c), Ok(s), Ok(mut reg)) = (client.try_clone(), server.try_clone(), live.lock()) {
        reg.push(c);
        reg.push(s);
    }
    let (Ok(mut c_read), Ok(mut s_write)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let up = thread::spawn(move || {
        let mut buf = [0u8; 4096];
        while let Ok(n) = c_read.read(&mut buf) {
            if n == 0 || std::io::Write::write_all(&mut s_write, &buf[..n]).is_err() {
                break;
            }
        }
        let _ = s_write.shutdown(std::net::Shutdown::Write);
    });
    let mut server = server;
    let mut client = client;
    let mut buf = [0u8; 4096];
    while let Ok(n) = server.read(&mut buf) {
        if n == 0 || std::io::Write::write_all(&mut client, &buf[..n]).is_err() {
            break;
        }
    }
    let _ = up.join();
}

fn ring_of(groups: &[(&str, SocketAddr)]) -> Ring {
    let text = format!(
        "hmh-ring v1\nepoch 1\nvnodes 64\n{}",
        groups.iter().map(|(id, addr)| format!("group {id} {addr}\n")).collect::<String>()
    );
    Ring::build(RingConfig::from_text(&text).unwrap()).unwrap()
}

fn sketch(lo: u64, hi: u64) -> HyperMinHash {
    let params = HmhParams::new(8, 6, 6).unwrap();
    HyperMinHash::from_items(params, lo..hi)
}

#[test]
fn flapping_group_costs_bounded_dials_and_recovers() {
    let dirs: Vec<TempDir> = ["a", "b", "c"].iter().map(|t| TempDir::new(t)).collect();
    let nodes: Vec<ServerHandle> = dirs.iter().map(start).collect();
    let proxy = Proxy::start(nodes[1].addr());

    // Group b's only replica is reached through the proxy.
    let ring = ring_of(&[("a", nodes[0].addr()), ("b", proxy.addr), ("c", nodes[2].addr())]);
    let router = route(
        ring.clone(),
        "127.0.0.1:0",
        RouteOptions {
            shard: ClientOptions {
                connect_timeout: Duration::from_millis(250),
                read_timeout: Duration::from_millis(500),
                write_timeout: Duration::from_millis(500),
                retry: RetryPolicy::none(),
                ..ClientOptions::default()
            },
            ..RouteOptions::default()
        },
    )
    .unwrap();
    let mut via = Client::with_options(
        router.addr(),
        ClientOptions { retry: RetryPolicy::none(), ..ClientOptions::default() },
    );

    // Sort names by owning group; preload every group through the
    // (currently forwarding) proxy so reads have something to read.
    let names: Vec<String> = (0..60).map(|i| format!("storm/s{i}")).collect();
    let mut by_group: std::collections::BTreeMap<&str, Vec<&String>> = Default::default();
    for name in &names {
        by_group.entry(ring.owner(name).id.as_str()).or_default().push(name);
    }
    for (i, name) in names.iter().enumerate() {
        via.put(name, &sketch(i as u64, i as u64 + 40)).unwrap();
    }
    let on_b = by_group.get("b").expect("some names hash to group b").clone();
    let on_a = by_group.get("a").expect("some names hash to group a").clone();
    assert!(on_b.len() >= 5, "need a few b-owned names, got {}", on_b.len());
    via.card(on_b[0]).unwrap(); // baseline: b serves through the proxy

    // ---- The storm. ----
    proxy.set_mode(FLAP);
    let dials_before = proxy.accepts();
    const STORM_OPS: usize = 50;
    let started = Instant::now();
    let mut refusals = 0usize;
    for i in 0..STORM_OPS {
        let name = on_b[i % on_b.len()];
        match via.card(name) {
            Err(ClientError::Server { code: ErrCode::Unavailable, .. }) => refusals += 1,
            Ok(_) => panic!("CARD {name:?} succeeded while its only replica flaps"),
            Err(other) => panic!("untyped failure under the storm: {other:?}"),
        }
        // Survivors answer normally *between* refused ops — the storm
        // on b never starves a or c.
        if i % 10 == 0 {
            via.card(on_a[i / 10 % on_a.len()]).unwrap();
        }
    }
    let storm_elapsed = started.elapsed();
    let dials = proxy.accepts() - dials_before;
    assert_eq!(refusals, STORM_OPS);

    // The bound. Unmitigated, 50 failing ops cost 2 dials each (one
    // per failover attempt) = 100+. With the breaker (opens after 3
    // consecutive failures, probe spacing doubling up to a 16-op cap)
    // and the shared retry budget (10 tokens, only successes refill),
    // the first ops pay a handful of dials and the rest are refused
    // from memory, leaving only spaced half-open probes: comfortably
    // under 30.
    assert!(
        (1..=30).contains(&dials),
        "flapping group cost {dials} dials over {STORM_OPS} ops; the storm is not bounded"
    );
    // Typed refusal must be fast — memory-speed, not timeout-speed.
    assert!(
        storm_elapsed < Duration::from_secs(10),
        "{STORM_OPS} refused ops took {storm_elapsed:?}"
    );

    // The refusals are visible in the router's HEALTH counters.
    let health = via.health().unwrap();
    assert!(
        health.breaker_open + health.retry_exhausted >= 1,
        "storm left no trace in HEALTH: {health:?}"
    );

    // ---- Recovery. ----
    proxy.set_mode(FORWARD);
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut recovered = false;
    while Instant::now() < deadline {
        if via.card(on_b[0]).is_ok() {
            recovered = true;
            break;
        }
        thread::sleep(Duration::from_millis(100));
    }
    assert!(recovered, "group b never recovered after the flapping stopped");
    // The breaker is closed, not merely half-open: several consecutive
    // ops all succeed without a refusal.
    for (i, name) in on_b.iter().take(5).enumerate() {
        via.card(name).unwrap_or_else(|e| panic!("post-recovery op {i} failed: {e}"));
    }

    router.join();
    proxy.stop();
    for node in nodes {
        node.shutdown();
        node.join();
    }
}

/// The pipelined variant of the storm contract: a replica that drops
/// the connection with a pipeline half-drained fails the *whole batch*
/// over to the next replica (safe: every HMS1 op is idempotent), and
/// batch depth buys no dial amplification — a depth-8 batch pays the
/// same bounded failover costs as a single op, not 8× them.
#[test]
fn flapping_replica_drops_a_half_full_pipeline_without_dial_amplification() {
    let dirs: Vec<TempDir> = ["pipe-a", "pipe-b"].iter().map(|t| TempDir::new(t)).collect();
    let nodes: Vec<ServerHandle> = dirs.iter().map(start).collect();
    // Replica 0 is reached through the flappable proxy; replica 1 is
    // direct and stays healthy.
    let proxy = Proxy::start(nodes[0].addr());

    // Both replicas (independent stores) carry the same names.
    let names: Vec<String> = (0..8).map(|i| format!("pipe/s{i}")).collect();
    for node in &nodes {
        let mut c = Client::connect(node.addr());
        for (i, name) in names.iter().enumerate() {
            c.put(name, &sketch(i as u64, i as u64 + 50)).unwrap();
        }
    }

    let shard_opts = ClientOptions {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        retry: RetryPolicy::none(),
        ..ClientOptions::default()
    };
    let mut fc =
        FailoverClient::with_options(&[proxy.addr, nodes[1].addr()], shard_opts.clone(), 3);
    let batch: Vec<Request> = names.iter().map(|n| Request::Card { name: n.clone() }).collect();

    // Baseline: the full window rides the forwarding proxy.
    let replies = fc.pipeline(&batch).unwrap();
    assert_eq!(replies.len(), batch.len());
    assert!(replies.iter().all(|r| matches!(r, Response::Value(_))), "{replies:?}");

    // The flap. Entering FLAP resets the live pipe, so the very next
    // batch is written into a dying connection — the half-drained
    // pipeline shape — and every reconnect is accept-then-dropped.
    proxy.set_mode(FLAP);
    let dials_before = proxy.accepts();
    let started = Instant::now();
    const STORM_BATCHES: usize = 30;
    let mut served = 0usize;
    for round in 0..STORM_BATCHES {
        match fc.pipeline(&batch) {
            Ok(replies) => {
                // Whole-batch failover: never a short window, never a
                // stale slot from the dead replica spliced in.
                assert_eq!(replies.len(), batch.len(), "round {round}: short batch");
                assert!(
                    replies.iter().all(|r| matches!(r, Response::Value(_))),
                    "round {round}: wrong replies {replies:?}"
                );
                served += 1;
            }
            Err(ClientError::RetryBudgetExhausted | ClientError::BreakerOpen { .. }) => {}
            Err(other) => panic!("round {round}: untyped pipelined failure: {other}"),
        }
    }
    let dials = proxy.accepts() - dials_before;
    assert!(served >= STORM_BATCHES / 2, "healthy replica served only {served} batches");
    // The bound: unmitigated, 30 batches × (1 dial + 8 frames) could
    // re-dial the flapper every round — or worse, once per undrained
    // frame. The breaker pins it to the first failures plus spaced
    // probes, exactly as for single ops.
    assert!(
        dials <= 15,
        "flapping replica cost {dials} dials over {STORM_BATCHES} pipelined batches"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "{STORM_BATCHES} batches took {:?} under the flap",
        started.elapsed()
    );

    // Recovery: once the flapping stops, a client pointed *only* at the
    // recovered replica drains full windows again.
    proxy.set_mode(FORWARD);
    let mut direct = FailoverClient::with_options(&[proxy.addr], shard_opts, 2);
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut recovered = false;
    while Instant::now() < deadline {
        if let Ok(replies) = direct.pipeline(&batch) {
            assert_eq!(replies.len(), batch.len());
            recovered = true;
            break;
        }
        thread::sleep(Duration::from_millis(100));
    }
    assert!(recovered, "the flapped replica never served a pipeline after recovery");

    proxy.stop();
    for node in nodes {
        node.shutdown();
        node.join();
    }
}
