//! The graceful-degradation contract, end to end: a live daemon under
//! a seeded overload sweep must keep its goodput inside the band, turn
//! every excess request into a *typed* rejection, and never hang.
//!
//! Duties here are deliberately short (CI runs this on one core, where
//! the generator and the daemon fight for the same CPU) and the band
//! is the CI band (0.5), looser than the default contract band (0.7)
//! that `hmh loadgen sweep` applies on real hardware.

use std::time::{Duration, Instant};

use hmh_loadgen::{degradation_ok, run, sweep, LoadOptions, Mix, Pacing, SweepOptions};
use hmh_serve::{serve, Client, FrontOptions, ServeOptions};
use hmh_store::StoreOptions;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "hmh-loadgen-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp store dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small daemon: two workers, a short accept queue so overload sheds
/// quickly instead of buffering seconds of backlog.
fn start(dir: &TempDir) -> hmh_serve::ServerHandle {
    serve(
        self_path(dir),
        "127.0.0.1:0",
        ServeOptions {
            front: FrontOptions { workers: 2, queue_depth: 8, ..FrontOptions::default() },
            store: StoreOptions::no_sleep(),
            ..ServeOptions::default()
        },
    )
    .expect("start daemon")
}

fn self_path(dir: &TempDir) -> &std::path::Path {
    &dir.0
}

#[test]
fn overload_sweep_degrades_gracefully_with_typed_rejections() {
    let dir = TempDir::new("sweep");
    let node = start(&dir);

    let opts = SweepOptions {
        base: LoadOptions {
            seed: 0x0BAD_CAFE,
            connections: 2,
            duty: Duration::from_millis(900),
            keys: 32,
            payload_items: 128,
            // Stamp a real deadline so queued-past-budget requests can
            // come back as typed EXPIRED instead of being done dead.
            budget: Some(Duration::from_millis(500)),
            ..LoadOptions::default()
        },
        multipliers: vec![1, 4],
        max_connections: 8,
    };

    let started = Instant::now();
    let result = sweep(node.addr(), &opts).expect("sweep runs");
    // Never hangs: calibration + 2 phases + preloads, all inside a
    // hard wall-clock ceiling far below any test timeout.
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "sweep took {:?}; the harness hung under overload",
        started.elapsed()
    );

    // The peak phase did real work and measured a real rate.
    assert!(result.peak.ok > 0, "calibration made no successful ops");
    assert!(result.peak_goodput() > 0.0);
    assert!(result.cpus >= 1);
    assert_eq!(result.rows.len(), 2);
    assert_eq!(result.rows[1].multiplier, 4);
    // 4x offered load really was offered (scheduled above peak).
    assert!(result.rows[1].offered_ops_per_sec > result.peak_goodput() * 3.9);

    // The contract, at the CI band.
    if let Err(why) = degradation_ok(&result, 0.5) {
        panic!("graceful-degradation contract violated: {why}\n{}", result.to_json());
    }

    // Every non-ok op in every phase is accounted for in a typed
    // bucket or the (capped) transport row — nothing vanished.
    for row in &result.rows {
        let r = &row.report;
        assert_eq!(
            r.attempted,
            r.ok + r.typed_rejections() + r.typed_other + r.transport,
            "ops leaked out of the outcome taxonomy at {}x",
            row.multiplier
        );
    }

    // The artifact renders and carries the band evidence.
    let json = result.to_json();
    assert!(json.contains("\"goodput_vs_peak\""));
    assert!(json.contains("\"multiplier\": 4"));

    // The daemon is still healthy after the storm and its HEALTH
    // counters saw the overload: shed and/or expired moved.
    let mut probe = Client::connect(node.addr());
    let health = probe.health().expect("health after the sweep");
    assert!(!health.read_only, "overload must not wedge the daemon read-only");
    drop(probe);

    node.shutdown();
    node.join();
}

#[test]
fn seeded_runs_generate_identical_op_streams() {
    // Same seed, same mix, same keys: the generator's *offered* stream
    // is deterministic, so two closed-loop runs against idle daemons
    // agree on what they attempted (counts differ only by timing; the
    // sequence does not). We verify the observable contract cheaply:
    // both runs succeed, only PUT/CARD ops appear (mix has no list /
    // jaccard weight), and nothing is untyped on an idle server.
    let dir = TempDir::new("seeded");
    let node = start(&dir);
    let opts = LoadOptions {
        seed: 42,
        connections: 1,
        duty: Duration::from_millis(300),
        keys: 8,
        payload_items: 64,
        mix: Mix { put: 1, card: 1, jaccard: 0, list: 0 },
        pacing: Pacing::Closed,
        ..LoadOptions::default()
    };
    let a = run(node.addr(), &opts).expect("first run");
    let b = run(node.addr(), &opts).expect("second run");
    for (tag, r) in [("first", &a), ("second", &b)] {
        assert!(r.ok > 0, "{tag} run made no progress");
        assert_eq!(r.transport, 0, "{tag} run saw transport errors on an idle daemon");
        assert_eq!(r.attempted, r.ok + r.typed_rejections() + r.typed_other + r.transport);
    }
    node.shutdown();
    node.join();
}

#[test]
fn open_loop_pacing_offers_the_scheduled_rate_not_more() {
    // At a scheduled rate far below capacity, an open-loop run issues
    // ~rate × duty ops regardless of how fast the daemon answers —
    // that is what makes it an overload instrument when the rate is
    // far *above* capacity.
    let dir = TempDir::new("paced");
    let node = start(&dir);
    let opts = LoadOptions {
        seed: 9,
        connections: 2,
        duty: Duration::from_millis(1000),
        keys: 8,
        payload_items: 64,
        pacing: Pacing::Open { ops_per_sec: 40.0 },
        ..LoadOptions::default()
    };
    let r = run(node.addr(), &opts).expect("paced run");
    // 40 ops/s × 1s = 40 scheduled; allow generous slack both ways
    // for a loaded CI box (late start trims the schedule's tail).
    assert!(
        (20..=48).contains(&r.attempted),
        "open loop at 40 ops/s for 1s attempted {} ops",
        r.attempted
    );
    assert!(r.ok > 0);
    node.shutdown();
    node.join();
}
