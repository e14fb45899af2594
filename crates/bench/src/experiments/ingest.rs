//! Parallel ingest throughput: items/sec through `hmh-ingest`'s sharded
//! pipeline vs. a plain sequential build, across worker counts.
//!
//! Because the union is lossless, the parallel result must equal the
//! sequential one bit for bit — the experiment asserts that on every
//! measurement, so a throughput number can never come from a wrong
//! sketch. `repro ingest` publishes the table as `BENCH_ingest.json`,
//! the artifact CI uploads.

use std::time::Instant;

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::splitmix::SplitMix64;
use hmh_hash::RandomOracle;
use hmh_ingest::{ingest, IngestOptions};

/// Worker counts measured against the sequential baseline.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Items per measurement: ≥ 1M in the full configuration (the acceptance
/// bar for the published artifact), scaled down for smoke runs.
fn num_items(cfg: &Config) -> usize {
    if cfg.quick {
        100_000
    } else {
        2_000_000
    }
}

/// Measurement repeats per configuration: throughput is the best of
/// these, the standard antidote to scheduler noise. Deterministic in the
/// trial count, small enough that `all` stays tractable.
fn repeats(cfg: &Config) -> u64 {
    cfg.trials.clamp(1, 3)
}

/// Run the throughput sweep.
pub fn run(cfg: &Config) -> Table {
    let params = HmhParams::new(12, 6, 10).expect("valid parameters");
    let oracle = RandomOracle::with_seed(cfg.seed);
    let n = num_items(cfg);
    let mut gen = SplitMix64::new(cfg.seed ^ 0x1A6E57);
    let items: Vec<u64> = (0..n).map(|_| gen.next_u64()).collect();

    let mut table = Table::new(
        format!("Parallel ingest throughput, {params}, {n} items"),
        &["config", "workers", "elapsed_ms", "items_per_sec", "speedup_vs_seq"],
    );

    // Sequential baseline: one sketch, one thread, plain insert loop.
    let mut reference = HyperMinHash::with_oracle(params, oracle);
    let seq_elapsed = best_of(repeats(cfg), || {
        let mut s = HyperMinHash::with_oracle(params, oracle);
        for item in &items {
            s.insert(item);
        }
        reference = s;
    });
    let seq_rate = rate(n, seq_elapsed);
    table.push_row(vec![
        "sequential".to_string(),
        "0".to_string(),
        fnum(seq_elapsed * 1e3),
        fnum(seq_rate),
        fnum(1.0),
    ]);

    for workers in WORKER_COUNTS {
        let opts = IngestOptions { workers, queue_depth: 2 * workers, batch_size: 8 * 1024 };
        let mut result = None;
        let elapsed = best_of(repeats(cfg), || {
            result = Some(
                ingest(params, oracle, items.iter().copied(), opts.clone())
                    .expect("ingest pipeline failed"),
            );
        });
        // A throughput number from a wrong sketch would be worthless:
        // the merge-equivalence contract is asserted on every sweep.
        assert_eq!(
            result.as_ref().expect("at least one repeat ran"),
            &reference,
            "parallel ingest diverged from the sequential build at {workers} workers"
        );
        let r = rate(n, elapsed);
        table.push_row(vec![
            format!("engine-{workers}"),
            workers.to_string(),
            fnum(elapsed * 1e3),
            fnum(r),
            fnum(r / seq_rate),
        ]);
    }
    table
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

fn rate(items: usize, elapsed: f64) -> f64 {
    items as f64 / elapsed.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_all_configurations() {
        let cfg = Config { trials: 1, seed: 7, quick: true };
        let t = run(&cfg);
        assert_eq!(t.num_rows(), 1 + WORKER_COUNTS.len());
        assert_eq!(t.cell(0, t.col("config")), "sequential");
        for (i, workers) in WORKER_COUNTS.iter().enumerate() {
            assert_eq!(t.cell(i + 1, t.col("config")), format!("engine-{workers}"));
            assert!(t.cell_f64(i + 1, t.col("items_per_sec")) > 0.0);
        }
        let json = t.to_json("ingest", "repro ingest");
        assert!(json.contains("\"title\": \"Parallel ingest throughput, "));
        assert!(json.contains("100000 items\""));
        assert!(json.contains("{\"config\": \"sequential\", \"workers\": 0, "));
        assert!(json.contains("{\"config\": \"engine-4\", \"workers\": 4, "));
    }
}
