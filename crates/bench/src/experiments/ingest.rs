//! Parallel ingest throughput: items/sec through `hmh-ingest`'s sharded
//! pipeline vs. a plain sequential build, across worker counts.
//!
//! Because the union is lossless, the parallel result must equal the
//! sequential one bit for bit — the experiment asserts that on every
//! measurement, so a throughput number can never come from a wrong
//! sketch. Results also feed `BENCH_ingest.json` (see [`to_json`]), the
//! artifact CI publishes.

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

/// Render the throughput table as the `BENCH_ingest.json` artifact: one
/// object per configuration plus the item count the sweep ran at and the
/// machine's core count. The core count is what makes a flat speedup
/// column interpretable — on a single-core box the parallel engine cannot
/// beat the sequential build in wall-clock, only match it bit for bit.
pub fn to_json(table: &Table) -> String {
    let items: String = table
        .title()
        .split(',')
        .next_back()
        .and_then(|part| part.split_whitespace().next())
        .unwrap_or("0")
        .to_string();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"ingest\",\n");
    out.push_str(&format!("  \"items\": {items},\n"));
    out.push_str(&format!("  \"cpus\": {cpus},\n"));
    out.push_str("  \"rows\": [\n");
    for row in 0..table.num_rows() {
        let config = table.cell(row, table.col("config"));
        let workers = table.cell(row, table.col("workers"));
        let rate = table.cell_f64(row, table.col("items_per_sec"));
        let speedup = table.cell_f64(row, table.col("speedup_vs_seq"));
        out.push_str(&format!(
            "    {{\"config\": \"{config}\", \"workers\": {workers}, \
             \"items_per_sec\": {rate}, \"speedup_vs_seq\": {speedup}}}{}\n",
            if row + 1 < table.num_rows() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
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
    }

    #[test]
    fn json_artifact_is_well_formed() {
        let cfg = Config { trials: 1, seed: 7, quick: true };
        let t = run(&cfg);
        let json = to_json(&t);
        assert!(json.contains("\"experiment\": \"ingest\""));
        assert!(json.contains("\"items\": 100000"));
        assert!(json.contains("\"cpus\": "));
        assert!(json.contains("\"config\": \"sequential\""));
        assert!(json.contains("\"config\": \"engine-4\""));
        // Balanced braces/brackets as a cheap structural check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
