//! Router and rebalance chaos: real daemons on real localhost sockets
//! behind a real router, with partitions, a simulated crash
//! mid-rebalance, and deliberately duplicated handoffs — asserting the
//! routing tier's contract:
//!
//! * routed operations answer exactly what the owning daemon would;
//! * a group whose replicas are all down earns a typed `UNAVAILABLE`
//!   (and a partial LIST_PAGE) within the shard deadline budget — the
//!   router degrades, it never hangs and never panics;
//! * rebalance moves every reassigned name losslessly, leaves each name
//!   owned by exactly one group after release, and absorbs both a crash
//!   between copy and release and a fully duplicated invocation.
//!
//! The process-level version — SIGKILL of a shard daemon mid-rebalance,
//! restart, re-run — is the CI `routing` job's shell drill; here the
//! crash is simulated in-process by stopping after the copy phase.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use hmh_core::{HmhParams, HyperMinHash};
use hmh_route::{rebalance, route, RebalanceOptions, Ring, RingConfig, RouteOptions, RouterHandle};
use hmh_serve::{
    serve, Client, ClientError, ClientOptions, ErrCode, FrontOptions, ServeOptions, ServerHandle,
};
use hmh_store::{RetryPolicy, StoreOptions};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("hmh-route-{tag}-{}", std::process::id()));
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

/// Shard-facing options with tight deadlines and no retry sleep: a dead
/// group must cost the router a bounded, small amount of time.
fn shard_opts() -> ClientOptions {
    ClientOptions {
        connect_timeout: Duration::from_millis(250),
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_millis(500),
        retry: RetryPolicy::none(),
        ..ClientOptions::default()
    }
}

fn start_router(ring: Ring) -> RouterHandle {
    route(ring, "127.0.0.1:0", RouteOptions { shard: shard_opts(), ..RouteOptions::default() })
        .unwrap()
}

fn client(addr: SocketAddr) -> Client {
    Client::with_options(
        addr,
        ClientOptions {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            retry: RetryPolicy::none(),
            ..ClientOptions::default()
        },
    )
}

/// Ring over already-running daemons, one address per `(id, addrs)`.
fn ring_of(epoch: u64, groups: &[(&str, &[SocketAddr])]) -> Ring {
    let text = format!(
        "hmh-ring v1\nepoch {epoch}\nvnodes 64\n{}",
        groups
            .iter()
            .map(|(id, addrs)| format!(
                "group {id} {}\n",
                addrs.iter().map(ToString::to_string).collect::<Vec<_>>().join(",")
            ))
            .collect::<String>()
    );
    Ring::build(RingConfig::from_text(&text).unwrap()).unwrap()
}

fn sketch(lo: u64, hi: u64) -> HyperMinHash {
    let params = HmhParams::new(8, 6, 6).unwrap();
    HyperMinHash::from_items(params, lo..hi)
}

fn rebalance_opts() -> RebalanceOptions {
    RebalanceOptions {
        client: shard_opts(),
        pacing: RetryPolicy::no_sleep(),
        ..RebalanceOptions::default()
    }
}

/// Walk the router's paginated LIST to exhaustion; returns the union
/// and whether any page was partial.
fn list_all(router: &mut Client) -> (BTreeSet<String>, bool) {
    let mut names = BTreeSet::new();
    let mut partial = false;
    let mut cursor = String::new();
    loop {
        let (page, page_partial) = router.list_page(&cursor).unwrap();
        partial |= page_partial;
        let Some(last) = page.last().cloned() else { break };
        names.extend(page);
        cursor = last;
    }
    (names, partial)
}

#[test]
fn routed_ops_answer_what_the_owning_daemon_would() {
    let (dir_a, dir_b) = (TempDir::new("ops-a"), TempDir::new("ops-b"));
    let (node_a, node_b) = (start(&dir_a), start(&dir_b));
    let ring = ring_of(1, &[("a", &[node_a.addr()]), ("b", &[node_b.addr()])]);
    let router = start_router(ring.clone());
    let mut via = client(router.addr());

    // PUT + MERGE through the router, spread across both groups.
    let names: Vec<String> = (0..40).map(|i| format!("ops/s{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        let lo = i as u64 * 100;
        via.put(name, &sketch(lo, lo + 500)).unwrap();
        via.merge(name, &sketch(lo + 400, lo + 900)).unwrap();
    }
    let owners: BTreeSet<String> = names.iter().map(|n| ring.owner(n).id.clone()).collect();
    assert_eq!(owners.len(), 2, "40 names landed on one group; ring is degenerate");

    // GET and CARD via the router agree bit-for-bit with the owning
    // daemon, and the name exists on *only* that daemon.
    for name in &names {
        let owner_addr = ring.owner(name).replicas[0];
        let other_addr = if owner_addr == node_a.addr() { node_b.addr() } else { node_a.addr() };
        let direct = client(owner_addr).get(name).unwrap();
        let routed = via.get(name).unwrap();
        assert_eq!(
            hmh_core::format::encode(&routed),
            hmh_core::format::encode(&direct),
            "routed GET of {name:?} differs from the owner's copy"
        );
        assert_eq!(via.card(name).unwrap(), client(owner_addr).card(name).unwrap());
        assert!(matches!(client(other_addr).get(name), Err(ClientError::NotFound(_))));
    }

    // JACCARD across groups equals the local estimator over the two
    // routed GETs (the router runs the same arithmetic).
    let (na, nb) = {
        let mut split = (None, None);
        for name in &names {
            match ring.owner(name).id.as_str() {
                "a" if split.0.is_none() => split.0 = Some(name.clone()),
                "b" if split.1.is_none() => split.1 = Some(name.clone()),
                _ => {}
            }
        }
        (split.0.unwrap(), split.1.unwrap())
    };
    let expected = via.get(&na).unwrap().jaccard(&via.get(&nb).unwrap()).unwrap().estimate;
    assert_eq!(via.jaccard(&na, &nb).unwrap(), expected);

    // The whole-store list, a LIST_PAGE walk that refuses partial pages,
    // covers exactly the put names.
    let listed: BTreeSet<String> = via.list().unwrap().into_iter().collect();
    assert_eq!(listed, names.iter().cloned().collect::<BTreeSet<_>>());

    // DELETE through the router removes the name from its group.
    via.delete(&na).unwrap();
    assert!(matches!(via.get(&na), Err(ClientError::NotFound(_))));
    assert!(matches!(via.delete(&na), Err(ClientError::NotFound(_))));

    // Anti-entropy ops are refused, typed.
    match via.sync(std::slice::from_ref(&nb)) {
        Err(ClientError::Server { code: ErrCode::UnknownOp, message }) => {
            assert!(message.contains("anti-entropy"), "unhelpful refusal: {message}");
        }
        other => panic!("routed SYNC must be refused, got {other:?}"),
    }

    // HEALTH aggregates the cluster and carries the routing fields.
    let health = via.health().unwrap();
    assert_eq!(health.route_epoch, 1);
    assert_eq!(health.peers.len(), 2, "one liveness slot per group");
    assert_eq!(health.sketches, names.len() as u64 - 1, "one name was deleted");
    assert!(health.store_clean);

    router.join();
    node_a.join();
    node_b.join();
}

#[test]
fn partitioned_group_degrades_typed_and_bounded_never_hanging() {
    let (dir_a, dir_b) = (TempDir::new("part-a"), TempDir::new("part-b"));
    let (node_a, node_b) = (start(&dir_a), start(&dir_b));
    let ring = ring_of(1, &[("a", &[node_a.addr()]), ("b", &[node_b.addr()])]);
    let router = start_router(ring.clone());
    let mut via = client(router.addr());

    let names: Vec<String> = (0..40).map(|i| format!("part/s{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        via.put(name, &sketch(i as u64, i as u64 + 50)).unwrap();
    }
    let (on_a, on_b): (Vec<&String>, Vec<&String>) =
        names.iter().partition(|n| ring.owner(n).id == "a");
    assert!(!on_a.is_empty() && !on_b.is_empty());

    // Partition: group b's only replica goes away entirely.
    node_b.join();

    // Name-keyed ops owned by the dead group: typed UNAVAILABLE, inside
    // a wall-clock budget that proves the router sheds rather than
    // hangs (connect timeout 250ms × small failover budget, per op).
    let started = Instant::now();
    for name in on_b.iter().take(3) {
        match via.get(name) {
            Err(ClientError::Server { code: ErrCode::Unavailable, message }) => {
                assert!(message.contains("\"b\""), "which group? {message}");
            }
            other => panic!("GET {name:?} against a dead group: {other:?}"),
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "three dead-group GETs took {:?}; the router is hanging",
        started.elapsed()
    );

    // The surviving group still answers through the same router.
    for name in on_a.iter().take(3) {
        via.get(name).unwrap();
    }

    // A whole-store listing refuses to come back short, typed...
    match via.list() {
        Err(ClientError::PartialListing) => {}
        other => panic!("whole-store list with a group down: {other:?}"),
    }
    // ...while the page walk degrades to exactly the survivor's names,
    // visibly marked partial.
    let (paged, partial) = list_all(&mut via);
    assert!(partial, "a skipped group must mark the page partial");
    assert_eq!(paged, on_a.iter().map(|n| (*n).clone()).collect::<BTreeSet<_>>());

    // HEALTH still answers, reports the cluster dirty, and the dead
    // group's liveness slot has left the healthy state.
    let health = via.health().unwrap();
    assert!(!health.store_clean, "a dead group must not report a clean cluster");
    assert_eq!(health.peers.len(), 2);
    let slot_b = health.peers.iter().find(|p| p.addr == "b").unwrap();
    assert_ne!(slot_b.state, hmh_serve::PeerState::Healthy);

    // Writes to the dead group are refused typed too — and the router
    // survives all of this to serve the next request.
    assert!(matches!(
        via.put(on_b[0], &sketch(0, 10)),
        Err(ClientError::Server { code: ErrCode::Unavailable, .. })
    ));
    via.card(on_a[0]).unwrap();
    assert!(!router.is_finished(), "router threads died under partition");

    router.join();
    node_a.join();
}

/// Damage a stopped daemon's WAL: flip one payload byte of the record
/// holding `name` (its u16 name length sits 6 bytes before the name).
fn rot_record(dir: &TempDir, name: &str) {
    let path = dir.0.join("wal.hmr");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes
        .windows(name.len())
        .enumerate()
        .position(|(i, w)| {
            w == name.as_bytes()
                && i >= 6
                && usize::from(u16::from_le_bytes([bytes[i - 6], bytes[i - 5]])) == name.len()
        })
        .expect("record is in the WAL");
    bytes[at + name.len() + 8] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
}

#[test]
fn routed_health_folds_every_shards_store_scan() {
    // Damage each group's store while its daemon is down: a rotted
    // record on `a`, a torn WAL tail on `b`.
    let (dir_a, dir_b) = (TempDir::new("scan-a"), TempDir::new("scan-b"));
    for dir in [&dir_a, &dir_b] {
        let node = start(dir);
        let mut direct = client(node.addr());
        direct.put("scan/0", &sketch(0, 300)).unwrap();
        direct.put("scan/1", &sketch(300, 600)).unwrap();
        drop(direct);
        node.join();
    }
    rot_record(&dir_a, "scan/0");
    let wal_b = dir_b.0.join("wal.hmr");
    let len = std::fs::metadata(&wal_b).unwrap().len();
    std::fs::OpenOptions::new().write(true).open(&wal_b).unwrap().set_len(len - 3).unwrap();

    // Reopen with auto-heal and background scrub off, so the on-disk
    // scan behind each daemon's HEALTH keeps seeing the damage.
    let reopen = |dir: &TempDir| {
        let opts = ServeOptions {
            front: FrontOptions { workers: 2, ..FrontOptions::default() },
            store: StoreOptions { auto_heal: false, ..StoreOptions::no_sleep() },
            scrub_interval: Duration::ZERO,
            ..ServeOptions::default()
        };
        serve(&dir.0, "127.0.0.1:0", opts).unwrap()
    };
    let (node_a, node_b) = (reopen(&dir_a), reopen(&dir_b));
    let shard_a = client(node_a.addr()).health().unwrap();
    let shard_b = client(node_b.addr()).health().unwrap();
    assert!(shard_a.quarantined > 0 && !shard_a.store_clean, "{shard_a:?}");
    assert!(shard_b.truncated_tail && !shard_b.store_clean, "{shard_b:?}");

    let router = start_router(ring_of(1, &[("a", &[node_a.addr()]), ("b", &[node_b.addr()])]));
    let routed = client(router.addr()).health().unwrap();
    assert_eq!(routed.quarantined, shard_a.quarantined + shard_b.quarantined);
    assert!(routed.truncated_tail, "any shard's torn tail shows through the router");
    assert_eq!(routed.rounds, shard_a.rounds + shard_b.rounds);
    assert!(!routed.store_clean, "a quarantining shard must not report a clean cluster");
    assert_eq!(routed.sketches, shard_a.sketches + shard_b.sketches);

    router.join();
    node_a.join();
    node_b.join();
}

#[test]
fn rebalance_is_lossless_exclusive_and_visible_in_health() {
    let dirs: Vec<TempDir> =
        ["reb-a", "reb-b", "reb-c1", "reb-c2"].iter().map(|t| TempDir::new(t)).collect();
    let nodes: Vec<ServerHandle> = dirs.iter().map(start).collect();
    let (a, b, c1, c2) = (nodes[0].addr(), nodes[1].addr(), nodes[2].addr(), nodes[3].addr());

    // Seed the 2-group cluster through a router over the old ring.
    let old = ring_of(1, &[("a", &[a]), ("b", &[b])]);
    let seed_router = start_router(old.clone());
    let mut via = client(seed_router.addr());
    let names: Vec<String> = (0..120).map(|i| format!("reb/s{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        via.put(name, &sketch(i as u64 * 10, i as u64 * 10 + 300)).unwrap();
    }
    let direct_cards: Vec<f64> = names.iter().map(|n| via.card(n).unwrap()).collect();
    seed_router.join();

    // Grow: add group c (two replicas — the copy and verify phases must
    // cover every destination replica, not just the first).
    let new = ring_of(2, &[("a", &[a]), ("b", &[b]), ("c", &[c1, c2])]);
    let report = rebalance(&old, &new, &rebalance_opts()).unwrap();
    assert!(report.moved > 0, "growing 2→3 groups must move something");
    assert_eq!(report.handoffs, report.moved, "every planned move must complete");
    assert_eq!(report.vanished, 0);

    // Exclusivity: each name lives on exactly one group (both replicas
    // of group c count as one owner), and the union is everything.
    let lists: Vec<BTreeSet<String>> =
        [a, b, c1].iter().map(|&addr| client(addr).list().unwrap().into_iter().collect()).collect();
    let mut union = BTreeSet::new();
    for name in &names {
        let holders = lists.iter().filter(|l| l.contains(name)).count();
        assert_eq!(holders, 1, "{name:?} is owned by {holders} groups after release");
        assert_eq!(new.owner(name).replicas[0] == a, lists[0].contains(name));
    }
    lists.iter().for_each(|l| union.extend(l.iter().cloned()));
    assert_eq!(union, names.iter().cloned().collect::<BTreeSet<_>>(), "names lost or invented");

    // Both replicas of the new group hold identical bytes for its names.
    for name in lists[2].iter() {
        assert_eq!(
            client(c1).get_raw(name).unwrap(),
            client(c2).get_raw(name).unwrap(),
            "destination replicas diverge on {name:?}"
        );
    }

    // A router over the new ring serves every name with unchanged
    // cardinalities, and surfaces the handoff count in HEALTH.
    let router = start_router(new.clone());
    router.handoffs().fetch_add(report.handoffs, Ordering::Relaxed);
    let mut via = client(router.addr());
    for (name, expected) in names.iter().zip(direct_cards) {
        assert_eq!(via.card(name).unwrap(), expected, "CARD of {name:?} changed in flight");
    }
    let health = via.health().unwrap();
    assert_eq!(health.route_epoch, 2);
    assert_eq!(health.route_handoffs, report.handoffs);
    // Each group is counted once (through whichever replica answered
    // the scatter), so the cluster sum is exactly the name count.
    assert_eq!(health.sketches, names.len() as u64);

    router.join();
    nodes.into_iter().for_each(ServerHandle::join);
}

#[test]
fn crashed_and_duplicated_handoffs_are_absorbed() {
    let dirs: Vec<TempDir> = ["dup-a", "dup-b", "dup-c"].iter().map(|t| TempDir::new(t)).collect();
    let nodes: Vec<ServerHandle> = dirs.iter().map(start).collect();
    let (a, b, c) = (nodes[0].addr(), nodes[1].addr(), nodes[2].addr());

    let old = ring_of(1, &[("a", &[a]), ("b", &[b])]);
    let names: Vec<String> = (0..80).map(|i| format!("dup/s{i}")).collect();
    {
        let seed_router = start_router(old.clone());
        let mut via = client(seed_router.addr());
        for (i, name) in names.iter().enumerate() {
            via.put(name, &sketch(i as u64 * 7, i as u64 * 7 + 200)).unwrap();
        }
        seed_router.join();
    }
    let new = ring_of(2, &[("a", &[a]), ("b", &[b]), ("c", &[c])]);
    let moving: Vec<String> = names.iter().filter(|n| new.owner(n).id == "c").cloned().collect();
    assert!(!moving.is_empty());

    // Simulate a rebalancer crash between copy and release: the moving
    // names are merged into their new owner, but never released. Every
    // such name is now owned by TWO groups — the state the two-phase
    // order guarantees instead of zero-owner loss.
    let payloads: Vec<Vec<u8>> = moving
        .iter()
        .map(|name| {
            let src = if old.owner(name).id == "a" { a } else { b };
            let payload = client(src).get_raw(name).unwrap();
            client(c).merge_raw(name, &payload).unwrap();
            payload
        })
        .collect();

    // Recovery is simply re-running the rebalance: the copy phase
    // re-merges (idempotent), verify re-passes, release completes.
    let report = rebalance(&old, &new, &rebalance_opts()).unwrap();
    assert_eq!(report.handoffs + report.vanished, report.moved);

    // A *fully duplicated invocation* after success finds nothing left
    // to move: sources no longer list the moved names.
    let replay = rebalance(&old, &new, &rebalance_opts()).unwrap();
    assert_eq!(replay, hmh_route::RebalanceReport::default(), "replayed rebalance must be a no-op");

    // Duplicated handoff *deliveries* (the same payload merged again
    // long after release) are absorbed byte-identically by the union.
    for (name, payload) in moving.iter().zip(&payloads) {
        let before = client(c).get_raw(name).unwrap();
        client(c).merge_raw(name, payload).unwrap();
        assert_eq!(client(c).get_raw(name).unwrap(), before, "replayed handoff changed {name:?}");
    }

    // Nothing lost, nothing double-owned.
    let lists: Vec<BTreeSet<String>> =
        [a, b, c].iter().map(|&addr| client(addr).list().unwrap().into_iter().collect()).collect();
    for name in &names {
        assert_eq!(lists.iter().filter(|l| l.contains(name)).count(), 1, "{name:?}");
    }
    for name in &moving {
        assert!(lists[2].contains(name), "{name:?} must have landed on group c");
    }

    // An epoch that fails to advance is refused before any I/O.
    let stale = ring_of(1, &[("a", &[a]), ("b", &[b]), ("c", &[c])]);
    assert!(matches!(
        rebalance(&old, &stale, &rebalance_opts()),
        Err(hmh_route::RebalanceError::Ring(_))
    ));

    nodes.into_iter().for_each(ServerHandle::join);
}

/// Drain never waits out an idle keep-alive connection's read deadline
/// (5 s by default). The daemon joins while the router still holds its
/// pooled shard connection open, then the router joins while a client
/// holds an idle connection to it.
#[test]
fn drain_hangs_up_idle_keep_alive_connections_promptly() {
    let dir = TempDir::new("drain-idle");
    let opts = ServeOptions { store: StoreOptions::no_sleep(), ..ServeOptions::default() };
    let node = serve(&dir.0, "127.0.0.1:0", opts).unwrap();
    let router = route(
        ring_of(1, &[("g", &[node.addr()])]),
        "127.0.0.1:0",
        RouteOptions { shard: shard_opts(), ..RouteOptions::default() },
    )
    .unwrap();
    let mut idle = client(router.addr());
    idle.put("idle", &sketch(0, 100)).unwrap();
    assert_eq!(idle.get("idle").unwrap(), sketch(0, 100));

    let started = Instant::now();
    node.join();
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "daemon drain waited {waited:?} behind a router");

    let started = Instant::now();
    router.join();
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "router drain waited {waited:?} behind a client");
    drop(idle);
}
