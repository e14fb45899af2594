//! **Theorem 2** — `Var(C) ≤ (EC)² + EC`: empirical variance of the
//! collision count over many disjoint-pair trials vs the bound ("the
//! standard deviation in the number of collisions is approximately the
//! expectation").

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::collisions::{expected_collisions, theorem2_variance_bound};
use hmh_core::jaccard::{jaccard, CollisionCorrection};
use hmh_core::HmhParams;
use hmh_math::Welford;
use hmh_simulate::{simulate_hmh_pair, SimSpec};

/// Run the experiment across cardinalities.
pub fn run(cfg: &Config) -> Table {
    let params = HmhParams::new(8, 6, 6).expect("valid");
    let mut table = Table::new(
        format!("Theorem 2: collision-count variance, {params}"),
        &["n", "mean_C", "exact_EC", "var_C", "thm2_bound", "sd/mean"],
    );
    let exponents: Vec<i32> = if cfg.quick { vec![4, 8] } else { vec![3, 5, 7, 9, 11] };
    // Variance needs more trials than the mean.
    let trials = cfg.trials.max(100);
    for (i, e) in exponents.into_iter().enumerate() {
        let n = 10f64.powi(e);
        let mut rng = cfg.rng(i as u64 + 3000);
        let spec = SimSpec { a_only: n, b_only: n, shared: 0.0 };
        let mut stats = Welford::new();
        for _ in 0..trials {
            let (a, b) = simulate_hmh_pair(params, spec, &mut rng);
            let est = jaccard(&a, &b, CollisionCorrection::None).expect("same params");
            stats.add(est.matching as f64);
        }
        let ec = expected_collisions(params, n, n);
        let bound = theorem2_variance_bound(ec);
        let sd_over_mean = if stats.mean() > 0.0 { stats.std_dev() / stats.mean() } else { 0.0 };
        table.push_row(vec![
            format!("1e{e}"),
            fnum(stats.mean()),
            fnum(ec),
            fnum(stats.sample_variance()),
            fnum(bound),
            fnum(sd_over_mean),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_stays_under_the_bound() {
        let cfg = Config { trials: 150, seed: 5, quick: true };
        let t = run(&cfg);
        for row in 0..t.num_rows() {
            let var = t.cell_f64(row, t.col("var_C"));
            let bound = t.cell_f64(row, t.col("thm2_bound"));
            // Sample variance fluctuates ~ ±30% at 150 trials; the bound
            // has ≈ EC² slack, so 1.5× covers it comfortably.
            assert!(var <= bound * 1.5, "row {row}: var {var} vs bound {bound}");
        }
    }
}
