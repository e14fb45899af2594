//! **Algorithm 3** — cardinality estimation across 19 decades, with the
//! design ablations DESIGN.md calls out: the HLL-head estimator choice
//! (FFGM07 vs Ertl-improved vs MLE) and the head→tail switch at
//! `1024·2^p`.

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::cardinality::{tail_estimate, CardinalityEstimator};
use hmh_core::HmhParams;
use hmh_hll::estimators::EstimatorKind;
use hmh_math::stats::relative_error;
use hmh_math::Welford;
use hmh_simulate::simulate_hmh_single;

/// Run the decade sweep with per-estimator columns.
pub fn run(cfg: &Config) -> Table {
    let params = HmhParams::headline();
    let mut table = Table::new(
        format!("Algorithm 3 cardinality accuracy, {params} (relative error)"),
        &["n", "ffgm", "ertl_improved", "ertl_mle", "tail_only", "alg3_default"],
    );
    let exponents: Vec<i32> = if cfg.quick { vec![2, 8, 14, 19] } else { (1..=19).collect() };
    for (i, e) in exponents.into_iter().enumerate() {
        let n = 10f64.powi(e);
        let mut rng = cfg.rng(i as u64 + 6000);
        let mut errs = [
            Welford::new(), // ffgm head only
            Welford::new(), // improved head only
            Welford::new(), // mle head only
            Welford::new(), // tail only
            Welford::new(), // full Algorithm 3 (default config)
        ];
        for _ in 0..cfg.trials {
            let sketch = simulate_hmh_single(params, n, &mut rng);
            let hist = sketch.counter_histogram();
            errs[0].add(relative_error(hmh_hll::estimators::ffgm(&hist), n));
            errs[1].add(relative_error(hmh_hll::estimators::ertl_improved(&hist), n));
            errs[2].add(relative_error(hmh_hll::estimators::ertl_mle(&hist), n));
            errs[3].add(relative_error(tail_estimate(&sketch), n));
            errs[4].add(relative_error(
                CardinalityEstimator {
                    hll_estimator: EstimatorKind::ErtlImproved,
                    tail_threshold_factor: 1024.0,
                }
                .estimate(&sketch),
                n,
            ));
        }
        table.push_row(vec![
            format!("1e{e}"),
            fnum(errs[0].mean()),
            fnum(errs[1].mean()),
            fnum(errs[2].mean()),
            fnum(errs[3].mean()),
            fnum(errs[4].mean()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_pipeline_is_calibrated_across_decades() {
        let cfg = Config { trials: 6, seed: 13, quick: true };
        let t = run(&cfg);
        let c = t.col("alg3_default");
        for row in 0..t.num_rows() {
            let re = t.cell_f64(row, c);
            assert!(re < 0.15, "row {row} ({}) error {re}", t.cell(row, 0));
        }
    }

    #[test]
    fn tail_only_is_poor_at_small_n_but_fine_at_huge_n() {
        let cfg = Config { trials: 6, seed: 14, quick: true };
        let t = run(&cfg);
        let tail = t.col("tail_only");
        let small = t.cell_f64(0, tail); // 1e2
        let huge = t.cell_f64(t.num_rows() - 1, tail); // 1e19
        assert!(huge < 0.05, "tail at 1e19: {huge}");
        assert!(small > huge * 3.0, "tail at 1e2 ({small}) should be much worse");
    }
}
