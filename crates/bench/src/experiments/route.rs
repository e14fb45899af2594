//! Routing-tier overhead: PUT and CARD through the scatter-gather
//! router vs. straight to the owning daemon, over a live 2-group
//! cluster on localhost.
//!
//! The router adds one network hop and one ring lookup per operation;
//! this experiment prices that hop. Correctness rides along: every
//! routed CARD is asserted equal to the owning daemon's direct answer,
//! so a throughput number can never come from a misrouted sketch.
//! `repro route` publishes the table as `BENCH_route.json`, the artifact
//! CI uploads alongside the ingest snapshot.

use std::time::Instant;

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::{HmhParams, HyperMinHash};
use hmh_route::{route, Ring, RingConfig, RouteOptions};
use hmh_serve::{serve, Client, FrontOptions, ServeOptions};
use hmh_store::StoreOptions;

/// Operations per measured pass.
fn num_ops(cfg: &Config) -> usize {
    if cfg.quick {
        200
    } else {
        2_000
    }
}

/// Measured passes per mode; throughput is the best pass.
fn repeats(cfg: &Config) -> u64 {
    cfg.trials.clamp(1, 3)
}

struct TempDir(std::path::PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("hmh-bench-route-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    TempDir(dir)
}

fn daemon_opts() -> ServeOptions {
    ServeOptions {
        front: FrontOptions { workers: 2, ..FrontOptions::default() },
        store: StoreOptions::no_sleep(),
        ..ServeOptions::default()
    }
}

/// Run the overhead measurement: a 2-group × 1-replica cluster, one
/// router, and the same operation stream driven both ways.
pub fn run(cfg: &Config) -> Table {
    let n = num_ops(cfg);
    let params = HmhParams::new(12, 6, 10).expect("valid parameters");
    let payload = HyperMinHash::from_items(params, 0u64..4096);
    let names: Vec<String> = (0..n).map(|i| format!("bench/s{i}")).collect();

    let (_dir_a, _dir_b) = (temp_dir("a"), temp_dir("b"));
    let node_a = serve(&_dir_a.0, "127.0.0.1:0", daemon_opts()).expect("start shard a");
    let node_b = serve(&_dir_b.0, "127.0.0.1:0", daemon_opts()).expect("start shard b");
    let ring = Ring::build(
        RingConfig::from_text(&format!(
            "hmh-ring v1\nepoch 1\nvnodes 128\ngroup a {}\ngroup b {}\n",
            node_a.addr(),
            node_b.addr()
        ))
        .expect("ring text"),
    )
    .expect("ring build");
    let router = route(ring.clone(), "127.0.0.1:0", RouteOptions::default()).expect("start router");

    let mut table = Table::new(
        format!("Routed vs direct operation overhead, {n} ops per pass"),
        &["op", "mode", "elapsed_ms", "ops_per_sec", "relative_to_direct"],
    );

    let shard_addrs = [node_a.addr(), node_b.addr()];
    let owner_addr = |name: &str| shard_addrs[ring.owner_index(name)];

    // PUT: direct to the owner vs through the router. Connections are
    // reused across the pass (the client holds its socket), so the
    // numbers price the protocol hop, not TCP setup.
    let direct_put = best_of(repeats(cfg), || {
        let mut clients: Vec<Client> = shard_addrs.iter().map(|&a| Client::connect(a)).collect();
        for name in &names {
            clients[ring.owner_index(name)].put(name, &payload).expect("direct put");
        }
        drop(clients);
    });
    let routed_put = best_of(repeats(cfg), || {
        let mut via = Client::connect(router.addr());
        for name in &names {
            via.put(name, &payload).expect("routed put");
        }
    });
    push_pair(&mut table, "put", n, direct_put, routed_put);

    // CARD: read path. Routed answers are asserted against the owner's.
    let mut via = Client::connect(router.addr());
    for name in names.iter().take(16) {
        let direct = Client::connect(owner_addr(name)).card(name).expect("direct card");
        let routed = via.card(name).expect("routed card");
        assert_eq!(routed, direct, "routed CARD of {name:?} diverges from the owner's");
    }
    drop(via);
    let direct_card = best_of(repeats(cfg), || {
        let mut clients: Vec<Client> = shard_addrs.iter().map(|&a| Client::connect(a)).collect();
        for name in &names {
            clients[ring.owner_index(name)].card(name).expect("direct card");
        }
    });
    let routed_card = best_of(repeats(cfg), || {
        let mut via = Client::connect(router.addr());
        for name in &names {
            via.card(name).expect("routed card");
        }
    });
    push_pair(&mut table, "card", n, direct_card, routed_card);

    router.join();
    node_a.shutdown();
    node_b.shutdown();
    node_a.join();
    node_b.join();
    table
}

fn push_pair(table: &mut Table, op: &str, n: usize, direct: f64, routed: f64) {
    let direct_rate = rate(n, direct);
    let routed_rate = rate(n, routed);
    table.push_row(vec![
        op.to_string(),
        "direct".to_string(),
        fnum(direct * 1e3),
        fnum(direct_rate),
        fnum(1.0),
    ]);
    table.push_row(vec![
        op.to_string(),
        "routed".to_string(),
        fnum(routed * 1e3),
        fnum(routed_rate),
        fnum(routed_rate / direct_rate),
    ]);
}

/// Wall-clock seconds for the best (fastest) of `repeats` runs of `f`.
fn best_of(repeats: u64, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn rate(ops: usize, elapsed: f64) -> f64 {
    ops as f64 / elapsed.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_prices_both_ops_both_ways() {
        let cfg = Config { trials: 1, seed: 7, quick: true };
        let t = run(&cfg);
        assert_eq!(t.num_rows(), 4);
        for row in 0..t.num_rows() {
            assert!(t.cell_f64(row, t.col("ops_per_sec")) > 0.0);
        }
        assert_eq!(t.cell(0, t.col("mode")), "direct");
        assert_eq!(t.cell(1, t.col("mode")), "routed");

        let json = t.to_json("route", "repro route");
        assert!(json.contains("{\"op\": \"card\", \"mode\": \"routed\", "));
    }
}
