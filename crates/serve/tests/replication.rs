//! Multi-node replication chaos: real daemons on real localhost sockets,
//! driven by the real anti-entropy engine, under partition injection,
//! torn SYNC frames, duplicated deliveries, node crash with a torn WAL
//! tail, and failover traffic — asserting the CRDT contract end to end:
//!
//! * all replicas converge to **byte-identical** stored sketches
//!   (`format::encode` equality) equal to the sequential union, within a
//!   bounded number of anti-entropy rounds;
//! * a black-holed peer walks the healthy → suspect → down ladder and is
//!   then attempted with capped backoff — never a reconnect storm;
//! * protocol violations and garbage from "peers" earn typed errors and
//!   never degrade the store to read-only;
//! * the failover client completes its operations against a cluster with
//!   one node down, inside its retry budget.
//!
//! The real SIGKILL-mid-sync drill (process-level, with salvage on
//! restart) lives in `crates/cli/tests/replication_drill.rs`; here the
//! crash is simulated in-process by stopping a node and tearing its WAL
//! tail before rejoin.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hmh_core::format;
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::splitmix::SplitMix64;
use hmh_replica::{sync_with_peer, AntiEntropy, ReplicaOptions};
use hmh_serve::proto::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, MAX_FRAME_LEN,
};
use hmh_serve::{
    serve, Client, ClientError, ClientOptions, ErrCode, FailoverClient, FrontOptions, PeerState,
    ServeOptions, ServerHandle,
};
use hmh_store::{RetryPolicy, StoreOptions};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hmh-repl-{tag}-{}", std::process::id()));
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
                queue_depth: 16,
                read_timeout: Duration::from_millis(300),
                write_timeout: Duration::from_millis(300),
                ..FrontOptions::default()
            },
            store: StoreOptions::no_sleep(),
            ..ServeOptions::default()
        },
    )
    .unwrap()
}

/// Engine options tuned for the suite: fast rounds, one transport
/// attempt per exchange (the engine's own round cadence is the retry),
/// and a small backoff cap so the down-state schedule is observable.
fn engine_opts(seed: u64) -> ReplicaOptions {
    ReplicaOptions {
        interval: Duration::from_millis(25),
        jitter_seed: seed,
        client: ClientOptions {
            connect_timeout: Duration::from_millis(500),
            read_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_millis(500),
            retry: RetryPolicy::none(),
            ..ClientOptions::default()
        },
        backoff_cap: 4,
        retry_budget: None,
    }
}

fn client(addr: SocketAddr) -> Client {
    Client::with_options(
        addr,
        ClientOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default().with_jitter_seed(0xC0FFEE),
            ..ClientOptions::default()
        },
    )
}

fn sketch(lo: u64, hi: u64) -> HyperMinHash {
    let params = HmhParams::new(8, 6, 6).unwrap();
    HyperMinHash::from_items(params, lo..hi)
}

/// One raw request/response exchange, bypassing the client's retry loop.
fn exchange(addr: SocketAddr, request: &Request) -> Response {
    let mut conn = TcpStream::connect(addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    conn.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
    write_frame(&mut conn, &encode_request(request)).unwrap();
    let body = read_frame(&mut conn, MAX_FRAME_LEN).unwrap().unwrap();
    decode_response(&body).unwrap()
}

/// Every stored sketch on the daemon, as raw encoded bytes — the
/// byte-identical convergence oracle.
fn encoded_state(addr: SocketAddr) -> BTreeMap<String, Vec<u8>> {
    // Test stores hold far fewer than MAX_LIST_NAMES: one page is all.
    let list = Request::ListPage { after: String::new() };
    let Response::NamesPage { names, partial: false } = exchange(addr, &list) else {
        panic!("LIST_PAGE did not answer a whole page of names");
    };
    names
        .into_iter()
        .map(|name| {
            let Response::Sketch(bytes) = exchange(addr, &Request::Get { name: name.clone() })
            else {
                panic!("GET {name:?} did not answer a sketch");
            };
            (name, bytes)
        })
        .collect()
}

/// Poll until every replica's stored bytes equal `expect`, or panic at
/// the deadline with a divergence report.
fn await_convergence(
    addrs: &[SocketAddr],
    expect: &BTreeMap<String, Vec<u8>>,
    deadline: Duration,
    tag: &str,
) {
    let start = Instant::now();
    loop {
        let states: Vec<BTreeMap<String, Vec<u8>>> =
            addrs.iter().map(|&a| encoded_state(a)).collect();
        if states.iter().all(|s| s == expect) {
            return;
        }
        assert!(
            start.elapsed() < deadline,
            "{tag}: no convergence within {deadline:?}; key sets: {:?}, expected {:?}",
            states.iter().map(|s| s.keys().cloned().collect::<Vec<_>>()).collect::<Vec<_>>(),
            expect.keys().collect::<Vec<_>>()
        );
        thread::sleep(Duration::from_millis(20));
    }
}

/// The suite's convergence budget. Rounds tick every ~25–38ms, so this
/// bounds convergence at a few hundred anti-entropy rounds — bounded,
/// not "eventually".
const CONVERGE_DEADLINE: Duration = Duration::from_secs(15);

// ---------------------------------------------------------------------
// Partition-injection proxy
// ---------------------------------------------------------------------

const FORWARD: u8 = 0;
const REFUSE: u8 = 1;
const BLACKHOLE: u8 = 2;
const TORN: u8 = 3;

/// A TCP proxy in front of one replica, with switchable failure modes:
/// FORWARD passes bytes through, REFUSE closes on accept (connection
/// refused-ish), BLACKHOLE accepts and never answers (forces the peer's
/// read deadline), TORN forwards the request but truncates the reply
/// mid-frame. Counts accepts so tests can assert attempt budgets.
struct Proxy {
    addr: SocketAddr,
    mode: Arc<AtomicU8>,
    accepts: Arc<AtomicU64>,
    upstream: Arc<Mutex<SocketAddr>>,
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
        let upstream = Arc::new(Mutex::new(upstream));
        let stop = Arc::new(AtomicBool::new(false));

        let (m, a, u, s) = (mode.clone(), accepts.clone(), upstream.clone(), stop.clone());
        let thread = thread::spawn(move || {
            let mut parked: Vec<TcpStream> = Vec::new();
            while !s.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((conn, _)) => {
                        a.fetch_add(1, Ordering::SeqCst);
                        match m.load(Ordering::SeqCst) {
                            REFUSE => drop(conn),
                            BLACKHOLE => parked.push(conn),
                            mode => {
                                let target = *u.lock().unwrap();
                                thread::spawn(move || pipe(conn, target, mode == TORN));
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(2)),
                }
                if m.load(Ordering::SeqCst) != BLACKHOLE {
                    parked.clear();
                }
            }
        });
        Self { addr, mode, accepts, upstream, stop, thread: Some(thread) }
    }

    fn set_mode(&self, mode: u8) {
        self.mode.store(mode, Ordering::SeqCst);
    }

    fn set_upstream(&self, upstream: SocketAddr) {
        *self.upstream.lock().unwrap() = upstream;
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

/// Bidirectional byte pump; in torn mode the server→client direction
/// forwards at most 9 bytes — enough for a length prefix and a sliver of
/// body, so every non-trivial reply is cut mid-frame.
fn pipe(client: TcpStream, upstream: SocketAddr, torn: bool) {
    let Ok(server) = TcpStream::connect(upstream) else { return };
    for conn in [&client, &server] {
        let _ = conn.set_read_timeout(Some(Duration::from_secs(1)));
        let _ = conn.set_write_timeout(Some(Duration::from_secs(1)));
    }
    let (Ok(mut c_read), Ok(mut s_write)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    let up = thread::spawn(move || {
        let mut buf = [0u8; 4096];
        while let Ok(n) = c_read.read(&mut buf) {
            if n == 0 || s_write.write_all(&buf[..n]).is_err() {
                break;
            }
        }
        let _ = s_write.shutdown(std::net::Shutdown::Write);
    });
    let mut remaining = if torn { 9usize } else { usize::MAX };
    let mut server = server;
    let mut client = client;
    let mut buf = [0u8; 4096];
    while remaining > 0 {
        match server.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                let take = n.min(remaining);
                if client.write_all(&buf[..take]).is_err() {
                    break;
                }
                remaining -= take;
            }
        }
    }
    let _ = client.shutdown(std::net::Shutdown::Both);
    let _ = server.shutdown(std::net::Shutdown::Both);
    let _ = up.join();
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// Three nodes, disjoint writes to each plus contended writes to a
/// shared name, full anti-entropy mesh: every replica ends byte-identical
/// to the sequential union, within the round budget, with no slot leak.
#[test]
fn three_nodes_converge_byte_identically_to_the_sequential_union() {
    let dirs = [TempDir::new("mesh-a"), TempDir::new("mesh-b"), TempDir::new("mesh-c")];
    let handles: Vec<ServerHandle> = dirs.iter().map(start).collect();
    let addrs: Vec<SocketAddr> = handles.iter().map(ServerHandle::addr).collect();

    // Disjoint per-node names, plus one name every node writes its own
    // shard of — the contended CRDT case.
    let parts = [sketch(0, 4_000), sketch(4_000, 8_000), sketch(8_000, 12_000)];
    for (i, part) in parts.iter().enumerate() {
        let mut c = client(addrs[i]);
        c.put(&format!("only-{i}"), part).unwrap();
        c.merge("shared", part).unwrap();
    }

    // Sequential union oracle, computed locally.
    let mut union = parts[0].clone();
    union.merge(&parts[1]).unwrap();
    union.merge(&parts[2]).unwrap();
    let mut expect = BTreeMap::new();
    for (i, part) in parts.iter().enumerate() {
        expect.insert(format!("only-{i}"), format::encode(part));
    }
    expect.insert("shared".into(), format::encode(&union));

    // Full mesh: each node pulls from both others.
    let engines: Vec<AntiEntropy> = (0..3)
        .map(|i| {
            let peers: Vec<SocketAddr> = (0..3).filter(|&j| j != i).map(|j| addrs[j]).collect();
            AntiEntropy::spawn(
                addrs[i],
                &peers,
                handles[i].replication(),
                engine_opts(0x5EED_0000 + i as u64),
            )
            .unwrap()
        })
        .collect();

    await_convergence(&addrs, &expect, CONVERGE_DEADLINE, "mesh");

    // Bounded rounds, healthy peers, and the wire-level HEALTH view. A
    // single timed-out round on a loaded machine can leave a peer
    // transiently suspect, so the healthy-and-fresh check polls briefly
    // instead of sampling one instant.
    for (i, handle) in handles.iter().enumerate() {
        let (rounds, peers) = handle.replication().snapshot();
        assert!(rounds >= 1, "node {i} never completed a round");
        assert!(rounds <= 600, "node {i} needed {rounds} rounds — not bounded");
        assert_eq!(peers.len(), 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let (round, peers) = handle.replication().snapshot();
            if peers.iter().all(|p| p.state == PeerState::Healthy && p.last_sync_age <= 2) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "node {i}: peers not healthy+fresh at round {round}: {peers:?}"
            );
            thread::sleep(Duration::from_millis(20));
        }
        let mut c = client(handle.addr());
        let health = c.health().unwrap();
        assert_eq!(health.peers.len(), 2, "HEALTH must carry the peer list");
        assert!(health.rounds >= 1);
    }

    for engine in engines {
        engine.stop();
    }

    // Only after every engine is gone may slot accounting be asserted:
    // while engines run, their loopback and peer connections are
    // legitimate extra `active` slots, not leaks. Post-stop, each node
    // must drain back to at most our own health connection.
    for (i, handle) in handles.iter().enumerate() {
        let mut c = client(handle.addr());
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let health = c.health().unwrap();
            if health.active <= 1 && health.queue_depth == 0 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "node {i}: slot leak after engines stopped: {health:?}"
            );
            thread::sleep(Duration::from_millis(20));
        }
    }
    for handle in handles {
        handle.join();
    }
}

/// A black-holed peer is marked suspect, then down, and further attempts
/// back off (capped) instead of storming. Healing the partition restores
/// the peer to healthy and converges the pair.
#[test]
fn partition_marks_peer_down_with_bounded_attempts_then_heals() {
    let dir_a = TempDir::new("part-a");
    let dir_b = TempDir::new("part-b");
    let a = start(&dir_a);
    let b = start(&dir_b);
    let proxy = Proxy::start(b.addr());

    client(a.addr()).put("from-a", &sketch(0, 2_000)).unwrap();
    client(b.addr()).put("from-b", &sketch(2_000, 4_000)).unwrap();

    // A pulls from B through the proxy only.
    let engine =
        AntiEntropy::spawn(a.addr(), &[proxy.addr], a.replication(), engine_opts(0xA11CE)).unwrap();

    // Phase 1: partition from the start — walk the ladder to Down.
    proxy.set_mode(BLACKHOLE);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, peers) = a.replication().snapshot();
        if peers.first().is_some_and(|p| p.state == PeerState::Down) {
            break;
        }
        assert!(Instant::now() < deadline, "peer never reached Down: {peers:?}");
        thread::sleep(Duration::from_millis(20));
    }

    // Phase 2: while down, attempts must be rationed. Watch ~24 rounds
    // and require far fewer connection attempts than rounds — with a
    // backoff cap of 4 the engine dials at most every other round on
    // average; a storm would dial every round or worse.
    let (rounds_before, _) = a.replication().snapshot();
    let accepts_before = proxy.accepts();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (rounds, _) = a.replication().snapshot();
        if rounds >= rounds_before + 24 {
            break;
        }
        assert!(Instant::now() < deadline, "rounds stalled during partition");
        thread::sleep(Duration::from_millis(20));
    }
    let attempts = proxy.accepts() - accepts_before;
    assert!(attempts <= 12, "reconnect storm against a down peer: {attempts} dials in 24 rounds");

    // The wire view agrees: HEALTH reports the down peer by address.
    let health = client(a.addr()).health().unwrap();
    let peer = health.peers.first().expect("peer list present");
    assert_eq!(peer.state, PeerState::Down);
    assert_eq!(peer.addr, proxy.addr.to_string());

    // Phase 3: heal. The peer recovers to Healthy and the nodes converge
    // (A pulls B's sketch; B's own copy of A's name arrives when B runs
    // an engine — here we only assert A's pull repaired the divergence).
    proxy.set_mode(FORWARD);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, peers) = a.replication().snapshot();
        if peers.first().is_some_and(|p| p.state == PeerState::Healthy) {
            break;
        }
        assert!(Instant::now() < deadline, "peer never healed");
        thread::sleep(Duration::from_millis(20));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let state = encoded_state(a.addr());
        if state.contains_key("from-b") {
            assert_eq!(state["from-b"], format::encode(&sketch(2_000, 4_000)));
            break;
        }
        assert!(Instant::now() < deadline, "divergence never repaired after heal");
        thread::sleep(Duration::from_millis(20));
    }

    engine.stop();
    proxy.stop();
    a.join();
    b.join();
}

/// Torn SYNC/DIGEST replies (cut mid-frame by the network) fail the
/// round with a typed error — no hang, no panic, no partial write — and
/// the engine converges as soon as frames flow whole again.
#[test]
fn torn_replies_fail_rounds_cleanly_then_converge() {
    let dir_a = TempDir::new("torn-a");
    let dir_b = TempDir::new("torn-b");
    let a = start(&dir_a);
    let b = start(&dir_b);
    let proxy = Proxy::start(b.addr());
    proxy.set_mode(TORN);

    client(b.addr()).put("victim", &sketch(0, 3_000)).unwrap();

    let engine =
        AntiEntropy::spawn(a.addr(), &[proxy.addr], a.replication(), engine_opts(0x70A4)).unwrap();

    // Let several rounds of torn replies happen: the peer degrades but
    // the engine and daemon stay responsive, and nothing partial lands.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (rounds, peers) = a.replication().snapshot();
        if rounds >= 6 {
            let peer = peers.first().expect("one peer");
            assert_ne!(peer.state, PeerState::Healthy, "torn frames must count as failures");
            break;
        }
        assert!(Instant::now() < deadline, "engine stalled under torn replies");
        thread::sleep(Duration::from_millis(20));
    }
    assert!(encoded_state(a.addr()).is_empty(), "no sketch may materialize from torn frames");

    proxy.set_mode(FORWARD);
    let mut expect = BTreeMap::new();
    expect.insert("victim".to_string(), format::encode(&sketch(0, 3_000)));
    await_convergence(&[a.addr()], &expect, CONVERGE_DEADLINE, "torn-heal");

    engine.stop();
    proxy.stop();
    a.join();
    b.join();
}

/// Crash + rejoin: node B stops mid-cluster, its WAL grows a torn tail
/// (the shape a SIGKILL mid-append leaves), A keeps writing. B reopens
/// from the same directory — salvage quarantines the tear — and rejoins
/// on a new port; both replicas converge byte-identically.
#[test]
fn crash_with_torn_wal_salvages_and_rejoins() {
    let dir_a = TempDir::new("crash-a");
    let dir_b = TempDir::new("crash-b");
    let a = start(&dir_a);
    let b = start(&dir_b);
    let proxy_b = Proxy::start(b.addr()); // A → B through the proxy (survives B's restart)
    let proxy_a = Proxy::start(a.addr()); // B → A likewise, for the rejoin engine

    client(a.addr()).put("pre-crash", &sketch(0, 2_500)).unwrap();
    client(b.addr()).put("b-only", &sketch(2_500, 5_000)).unwrap();

    let engine_a =
        AntiEntropy::spawn(a.addr(), &[proxy_b.addr], a.replication(), engine_opts(0xCA5C_A000))
            .unwrap();
    let engine_b =
        AntiEntropy::spawn(b.addr(), &[proxy_a.addr], b.replication(), engine_opts(0xCA5C_B000))
            .unwrap();

    // Wait until both have pulled each other's pre-crash state.
    let mut expect = BTreeMap::new();
    expect.insert("pre-crash".to_string(), format::encode(&sketch(0, 2_500)));
    expect.insert("b-only".to_string(), format::encode(&sketch(2_500, 5_000)));
    await_convergence(&[a.addr(), b.addr()], &expect, CONVERGE_DEADLINE, "pre-crash");

    // "Crash" B mid-cluster: engine gone, daemon gone, and the WAL gets
    // the torn tail a SIGKILL mid-append leaves behind.
    engine_b.stop();
    proxy_b.set_mode(REFUSE);
    b.join();
    let wal = dir_b.0.join(hmh_store::WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x13]);
    std::fs::write(&wal, bytes).unwrap();

    // A keeps accepting writes while B is dead.
    client(a.addr()).put("during-outage", &sketch(5_000, 7_500)).unwrap();
    expect.insert("during-outage".to_string(), format::encode(&sketch(5_000, 7_500)));

    // B restarts from the same directory (salvage runs at open), rejoins
    // through the proxies on its new port.
    let b2 = start(&dir_b);
    proxy_b.set_upstream(b2.addr());
    proxy_b.set_mode(FORWARD);
    let engine_b2 =
        AntiEntropy::spawn(b2.addr(), &[proxy_a.addr], b2.replication(), engine_opts(0xCA5C_B200))
            .unwrap();

    await_convergence(&[a.addr(), b2.addr()], &expect, CONVERGE_DEADLINE, "rejoin");

    // The salvaged rejoiner serves reads and writes — not read-only.
    let health = client(b2.addr()).health().unwrap();
    assert!(!health.read_only, "salvage must not leave the rejoiner read-only");

    engine_a.stop();
    engine_b2.stop();
    proxy_a.stop();
    proxy_b.stop();
    a.join();
    b2.join();
}

/// CRDT convergence at the network layer (CASES=64): deliver the same
/// set of SYNC-style merges in seeded random orders, with duplicated and
/// initially-dropped (redelivered) parts, through the daemon's real
/// MERGE path. Every schedule must land on the same encoded bytes as the
/// sequential union — `merge_algebra.rs`'s laws, proven over the wire.
#[test]
fn network_merge_schedules_with_duplication_and_loss_converge() {
    const CASES: u64 = 64;
    let dir = TempDir::new("crdt");
    let handle = start(&dir);
    let mut c = client(handle.addr());

    // Six shards with overlaps; the sequential union is the oracle.
    let parts: Vec<Vec<u8>> =
        (0..6).map(|i| format::encode(&sketch(i * 700, i * 700 + 1_400))).collect();
    let mut union = sketch(0, 1_400);
    for part in &parts[1..] {
        union.merge(&format::decode(part).unwrap()).unwrap();
    }
    let expect = format::encode(&union);

    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xC4D7_0000 ^ case);
        // Build a delivery schedule: every part at least once, ~half the
        // parts duplicated, and "lost" deliveries modeled as drops that
        // are redelivered at the tail (a loss that is never repaired is
        // indistinguishable from a partition that never heals — what
        // converges is the repaired schedule).
        let mut schedule: Vec<usize> = (0..parts.len()).collect();
        for i in 0..parts.len() {
            if rng.next_u64().is_multiple_of(2) {
                schedule.push(i); // duplicated delivery
            }
        }
        // Fisher–Yates with the seeded stream.
        for i in (1..schedule.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            schedule.swap(i, j);
        }
        // Drop a prefix ("lost"), then redeliver it after the rest.
        let dropped = (rng.next_u64() % 3) as usize;
        let (lost, delivered) = schedule.split_at(dropped.min(schedule.len()));
        let final_order: Vec<usize> = delivered.iter().chain(lost).copied().collect();

        let name = format!("case-{case}");
        for &part in &final_order {
            c.merge_raw(&name, &parts[part]).unwrap();
        }
        let Response::Sketch(bytes) = exchange(handle.addr(), &Request::Get { name: name.clone() })
        else {
            panic!("case {case}: sketch missing");
        };
        assert_eq!(
            bytes, expect,
            "case {case}: schedule {final_order:?} diverged from the sequential union"
        );
    }

    handle.join();
}

/// Satellite 6 at the server: hostile replication frames — lying DIGEST
/// cursors, oversized SYNC name counts, unknown ops — get typed errors,
/// and the store never degrades to read-only because of them.
#[test]
fn hostile_replication_frames_get_typed_errors_and_never_degrade_the_store() {
    let dir = TempDir::new("hostile");
    let handle = start(&dir);
    client(handle.addr()).put("keep", &sketch(0, 1_000)).unwrap();

    let send_raw = |body: &[u8]| -> Option<Response> {
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        conn.set_write_timeout(Some(Duration::from_secs(2))).unwrap();
        write_frame(&mut conn, body).unwrap();
        match read_frame(&mut conn, MAX_FRAME_LEN) {
            Ok(Some(frame)) => Some(decode_response(&frame).unwrap()),
            _ => None,
        }
    };

    // DIGEST whose cursor length field lies beyond the name cap.
    let mut b = vec![1u8, 10u8]; // PROTO_VERSION, op::DIGEST
    b.extend_from_slice(&u16::MAX.to_le_bytes());
    match send_raw(&b) {
        Some(Response::Err { code, .. }) => assert_eq!(code, ErrCode::TooLarge),
        other => panic!("lying DIGEST cursor: {other:?}"),
    }

    // SYNC claiming more names than the protocol cap.
    let mut b = vec![1u8, 11u8]; // PROTO_VERSION, op::SYNC
    b.extend_from_slice(&2_000u16.to_le_bytes());
    match send_raw(&b) {
        Some(Response::Err { code, .. }) => assert_eq!(code, ErrCode::TooLarge),
        other => panic!("oversized SYNC: {other:?}"),
    }

    // SYNC whose name count is backed by no bytes.
    let mut b = vec![1u8, 11u8];
    b.extend_from_slice(&5u16.to_le_bytes());
    match send_raw(&b) {
        Some(Response::Err { code, .. }) => assert_eq!(code, ErrCode::BadFrame),
        other => panic!("truncated SYNC: {other:?}"),
    }

    // Unknown opcode from a confused (or hostile) peer.
    match send_raw(&[1u8, 0xEE]) {
        Some(Response::Err { code, .. }) => assert_eq!(code, ErrCode::UnknownOp),
        other => panic!("unknown op: {other:?}"),
    }

    // The store took no damage: not read-only, still writable, data intact.
    let mut c = client(handle.addr());
    let health = c.health().unwrap();
    assert!(!health.read_only, "hostile frames must never trip read-only: {health:?}");
    c.put("still-writable", &sketch(0, 100)).unwrap();
    assert_eq!(c.get("keep").unwrap(), sketch(0, 1_000));

    handle.join();
}

/// Duplicated sync passes are harmless: running the same pairwise sync
/// repeatedly (the duplicated-delivery failure mode at the round level)
/// changes nothing after the first — merge idempotence over the wire.
#[test]
fn repeated_sync_passes_are_idempotent() {
    let dir_a = TempDir::new("idem-a");
    let dir_b = TempDir::new("idem-b");
    let a = start(&dir_a);
    let b = start(&dir_b);

    client(b.addr()).put("x", &sketch(0, 2_000)).unwrap();
    client(a.addr()).put("x", &sketch(1_000, 3_000)).unwrap();

    let opts = engine_opts(0x1DE0);
    let repaired = sync_with_peer(a.addr(), b.addr(), &opts).unwrap();
    assert_eq!(repaired, 1, "one divergent name");
    let after_first = encoded_state(a.addr());

    for pass in 0..3 {
        let again = sync_with_peer(a.addr(), b.addr(), &opts).unwrap();
        // B's copy still differs from A's merged one (B never pulled), so
        // A re-pulls and re-merges — and the merge must change nothing.
        assert!(again <= 1, "pass {pass}: at most the same single name");
        assert_eq!(encoded_state(a.addr()), after_first, "pass {pass}: state drifted");
    }

    let mut expect_x = sketch(0, 2_000);
    expect_x.merge(&sketch(1_000, 3_000)).unwrap();
    assert_eq!(after_first["x"], format::encode(&expect_x), "union of both writes");

    a.join();
    b.join();
}

/// The failover client completes PUT/MERGE/CARD/JACCARD against a
/// cluster with one replica down, within its retry budget, and final
/// errors are not retried across replicas.
#[test]
fn failover_client_completes_operations_with_a_node_down() {
    let dir_a = TempDir::new("fo-a");
    let dir_b = TempDir::new("fo-b");
    let a = start(&dir_a);
    let b = start(&dir_b);
    let addr_a = a.addr();
    let addr_b = b.addr();

    // Kill A outright; its address now refuses connections.
    a.join();

    let opts = ClientOptions {
        connect_timeout: Duration::from_millis(400),
        read_timeout: Duration::from_millis(800),
        write_timeout: Duration::from_millis(800),
        retry: RetryPolicy::none(), // rotation IS the retry here
        ..ClientOptions::default()
    };
    // Dead replica listed first: every op must rotate past it.
    let mut fc = FailoverClient::with_options(&[addr_a, addr_b], opts, 3);
    assert_eq!(fc.current_addr(), addr_a);

    fc.call(|c| c.put("events", &sketch(0, 5_000))).unwrap();
    fc.call(|c| c.merge("events", &sketch(2_500, 7_500))).unwrap();
    fc.call(|c| c.put("other", &sketch(0, 2_500))).unwrap();
    let card = fc.call(|c| c.card("events")).unwrap();
    assert!((card / 7_500.0 - 1.0).abs() < 0.15, "union survived failover: {card}");
    let j = fc.call(|c| c.jaccard("other", "events")).unwrap();
    assert!(j > 0.0 && j < 1.0, "jaccard answered: {j}");

    // After the first rotation the client stays on the live replica.
    assert_eq!(fc.current_addr(), addr_b);

    // Server-final answers do not burn the budget rotating: a missing
    // name is NotFound immediately, not after cycling the ring.
    match fc.call(|c| c.card("missing")) {
        Err(ClientError::NotFound(name)) => assert_eq!(name, "missing"),
        other => panic!("expected NotFound, got {other:?}"),
    }
    assert_eq!(fc.current_addr(), addr_b, "NotFound must not rotate");

    // With every replica down, the budget bounds the attempt count and
    // the exhaustion is the typed all-down error, not a raw transport
    // error from whichever replica happened to be tried last.
    fc.shutdown().unwrap();
    b.join();
    let err = fc.call(|c| c.card("events")).unwrap_err();
    match err {
        ClientError::AllReplicasDown { attempts, last_errors } => {
            assert_eq!(attempts, 3, "the configured budget is reported");
            assert_eq!(last_errors.len(), 3, "one error recorded per attempt");
        }
        other => panic!("expected AllReplicasDown, got {other:?}"),
    }
}

/// The all-down path is typed from the first call: a failover client
/// whose every replica refuses connections reports `AllReplicasDown`
/// with per-attempt detail (address plus cause) rather than hanging,
/// panicking, or surfacing a single replica's raw error.
#[test]
fn failover_client_types_the_all_down_path() {
    // Bind-then-drop: both addresses were just live, so nothing else can
    // be listening there, and connects fail fast with refused.
    let addr_a = reserve_addr();
    let addr_b = reserve_addr();

    let opts = ClientOptions {
        connect_timeout: Duration::from_millis(300),
        read_timeout: Duration::from_millis(300),
        write_timeout: Duration::from_millis(300),
        retry: RetryPolicy::none(),
        ..ClientOptions::default()
    };
    let mut fc = FailoverClient::with_options(&[addr_a, addr_b], opts, 4);
    let err = fc.call(|c| c.put("orphan", &sketch(0, 100))).unwrap_err();
    match &err {
        ClientError::AllReplicasDown { attempts, last_errors } => {
            assert_eq!(*attempts, 4);
            assert_eq!(last_errors.len(), 4);
            // Rotation order: a, b, a, b — each entry names its replica.
            assert!(last_errors[0].starts_with(&addr_a.to_string()), "{last_errors:?}");
            assert!(last_errors[1].starts_with(&addr_b.to_string()), "{last_errors:?}");
            assert!(
                last_errors.iter().all(|e| e.contains("transport")),
                "each attempt records its cause: {last_errors:?}"
            );
        }
        other => panic!("expected AllReplicasDown, got {other:?}"),
    }
    // The Display form summarizes without dumping every attempt.
    assert!(err.to_string().contains("all replicas down after 4 attempts"), "{err}");
    // The first call's four failures (two consecutive per replica, then
    // one more each on call two would be needed — but the breaker opens
    // at three) mean repeated calls soon refuse from memory: still
    // typed, still instant, zero further dials.
    let started = std::time::Instant::now();
    let again = fc.call(|c| c.put("orphan", &sketch(0, 100))).unwrap_err();
    assert!(
        matches!(
            again,
            ClientError::AllReplicasDown { .. } | ClientError::BreakerOpen { replicas: 2 }
        ),
        "repeat all-down call must stay typed, got {again:?}"
    );
    let err = loop {
        match fc.call(|c| c.put("orphan", &sketch(0, 100))).unwrap_err() {
            e @ ClientError::BreakerOpen { .. } => break e,
            ClientError::AllReplicasDown { .. } if started.elapsed() < Duration::from_secs(5) => {}
            other => panic!("expected breaker escalation, got {other:?}"),
        }
    };
    assert!(err.to_string().contains("breaker"), "{err}");
}

/// A live address that nothing listens on: bind, read the port, drop.
fn reserve_addr() -> std::net::SocketAddr {
    std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap()
}

/// Flip one payload byte of **every** record holding `name` across both
/// store files — so no valid on-disk copy survives and the next open
/// must fence the name rather than fall back to an older record.
fn rot_every_record(dir: &TempDir, name: &str) {
    let name_bytes = name.as_bytes();
    let mut hits = 0usize;
    for file in [hmh_store::WAL_FILE, hmh_store::SNAPSHOT_FILE] {
        let path = dir.0.join(file);
        let Ok(mut bytes) = std::fs::read(&path) else { continue };
        // A record's name field sits 6 bytes after the header start
        // (magic 4, kind 1, name_len u16 at offset 5 — the name_len's
        // second byte is at i-5); match name bytes confirmed by their
        // length field, then flip a byte a little way into the payload.
        let mut changed = false;
        for i in 6..bytes.len().saturating_sub(name_bytes.len()) {
            if &bytes[i..i + name_bytes.len()] != name_bytes {
                continue;
            }
            let len = u16::from_le_bytes([bytes[i - 6], bytes[i - 5]]);
            if usize::from(len) != name_bytes.len() {
                continue;
            }
            bytes[i + name_bytes.len() + 8] ^= 0x01;
            changed = true;
            hits += 1;
        }
        if changed {
            std::fs::write(&path, &bytes).unwrap();
        }
    }
    assert!(hits > 0, "no record for {name:?} found to rot in {:?}", dir.0);
}

/// The at-rest corruption drill, end to end: one replica goes down, the
/// committed records under it rot, and it restarts. Open-time salvage
/// fences the rotted names; every interleaved read during the outage
/// and the repair window sees either the typed fence or the correct
/// bytes — never a torn payload; the engine's read-repair pulls valid
/// copies from the healthy peers through loopback MERGE and releases
/// the fences; the mesh reconverges byte-identically; and a triggered
/// second scrub pass finds nothing new.
#[test]
fn bit_rot_on_one_replica_is_fenced_read_repaired_and_reconverges() {
    let dirs = [TempDir::new("rot-a"), TempDir::new("rot-b"), TempDir::new("rot-c")];
    let mut handles: Vec<ServerHandle> = dirs.iter().map(start).collect();
    let addrs: Vec<SocketAddr> = handles.iter().map(ServerHandle::addr).collect();
    // B will restart on a new port; its peers reach it through a proxy
    // whose upstream can be repointed.
    let proxy_b = Proxy::start(addrs[1]);

    let parts = [sketch(0, 3_000), sketch(3_000, 6_000), sketch(6_000, 9_000)];
    let mut expect = BTreeMap::new();
    for (i, part) in parts.iter().enumerate() {
        client(addrs[i]).put(&format!("only-{i}"), part).unwrap();
        expect.insert(format!("only-{i}"), format::encode(part));
    }

    let peers_of = |i: usize| -> Vec<SocketAddr> {
        (0..3).filter(|&j| j != i).map(|j| if j == 1 { proxy_b.addr } else { addrs[j] }).collect()
    };
    let engine_a =
        AntiEntropy::spawn(addrs[0], &peers_of(0), handles[0].replication(), engine_opts(0xB17A))
            .unwrap();
    let engine_b =
        AntiEntropy::spawn(addrs[1], &peers_of(1), handles[1].replication(), engine_opts(0xB17B))
            .unwrap();
    let engine_c =
        AntiEntropy::spawn(addrs[2], &peers_of(2), handles[2].replication(), engine_opts(0xB17C))
            .unwrap();
    await_convergence(&addrs, &expect, CONVERGE_DEADLINE, "rot-seed");

    // B goes down; while it is dead, its copies of two replicated names
    // rot on disk — every record of each, so no valid copy survives.
    engine_b.stop();
    proxy_b.set_mode(REFUSE);
    let [_, dir_b, _] = &dirs;
    handles.remove(1).join();
    rot_every_record(dir_b, "only-0");
    rot_every_record(dir_b, "only-2");

    // Restart: open-time salvage must fence both names before any
    // engine runs — the fence is the open's work, not the repair's.
    let b2 = start(dir_b);
    proxy_b.set_upstream(b2.addr());
    proxy_b.set_mode(FORWARD);
    for name in ["only-0", "only-2"] {
        match exchange(b2.addr(), &Request::Get { name: name.into() }) {
            Response::Err { code: ErrCode::CorruptQuarantined, .. } => {}
            other => panic!("pre-repair GET {name}: expected typed fence, got {other:?}"),
        }
    }
    let health = client(b2.addr()).health().unwrap();
    assert!(health.corrupt_found >= 2, "both flips counted: {health:?}");
    assert_eq!(health.scrub_quarantined, 2, "both names fenced: {health:?}");
    // The untouched name still serves, bit-identical.
    match exchange(b2.addr(), &Request::Get { name: "only-1".into() }) {
        Response::Sketch(bytes) => assert_eq!(bytes, expect["only-1"]),
        other => panic!("undamaged record must keep serving: {other:?}"),
    }

    // Read-repair: B's new engine fetches its own quarantine over
    // loopback, pulls valid copies from the healthy peers, and releases
    // the fences through MERGE. Interleaved GETs pin the containment
    // contract at every observation point: the typed fence or the
    // correct bytes, never a torn payload.
    let engine_b2 =
        AntiEntropy::spawn(b2.addr(), &peers_of(1), b2.replication(), engine_opts(0xB17B2))
            .unwrap();
    for name in ["only-0", "only-2"] {
        let deadline = Instant::now() + CONVERGE_DEADLINE;
        loop {
            match exchange(b2.addr(), &Request::Get { name: name.into() }) {
                Response::Err { code: ErrCode::CorruptQuarantined, .. } => {}
                Response::Sketch(bytes) => {
                    assert_eq!(bytes, expect[name], "{name}: repaired copy must be bit-identical");
                    break;
                }
                other => panic!("mid-repair GET {name}: {other:?}"),
            }
            assert!(Instant::now() < deadline, "{name}: fence never released");
            thread::sleep(Duration::from_millis(20));
        }
    }
    let addrs2 = [addrs[0], b2.addr(), addrs[2]];
    await_convergence(&addrs2, &expect, CONVERGE_DEADLINE, "rot-repair");

    // The repaired node accounts for the damage and holds no fences.
    let health = client(b2.addr()).health().unwrap();
    assert!(health.corrupt_found >= 2, "{health:?}");
    assert_eq!(health.scrub_quarantined, 0, "fences released: {health:?}");

    // A full triggered pass over the repaired disk is clean, and a
    // second one finds nothing new: corruption was healed, not hidden.
    let mut c = client(b2.addr());
    let first = c.scrub(true, "").unwrap();
    assert!(first.names.is_empty() && first.quarantined == 0, "{first:?}");
    assert_ne!(first.last_scrub_age_ms, u64::MAX, "a pass completed");
    let second = c.scrub(true, "").unwrap();
    assert!(second.rounds > first.rounds, "second trigger ran a pass: {second:?}");
    assert_eq!(second.corrupt_found, first.corrupt_found, "no new findings: {second:?}");

    for engine in [engine_a, engine_b2, engine_c] {
        engine.stop();
    }
    proxy_b.stop();
    b2.join();
    for handle in handles {
        handle.join();
    }
}
