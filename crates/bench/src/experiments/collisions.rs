//! **Lemma 4 / Algorithm 5 / Theorem 1** — expected accidental collisions:
//! empirical counts from simulated disjoint pairs vs the exact formula,
//! the fast approximation, and the closed-form bound; plus the implied
//! constant the paper calls "a gross overestimate (empirically, the
//! constant seems closer to 1)".

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::collisions::{approx_expected_collisions, expected_collisions, theorem1_bound};
use hmh_core::jaccard::{jaccard, CollisionCorrection};
use hmh_core::HmhParams;
use hmh_math::Welford;
use hmh_simulate::{simulate_hmh_pair, SimSpec};

/// Run the sweep for one parameterization.
pub fn run_for_params(cfg: &Config, params: HmhParams) -> Table {
    let mut table = Table::new(
        format!("Collisions between disjoint sets, {params}"),
        &[
            "n",
            "empirical",
            "exact(Alg5)",
            "approx(Alg6)",
            "thm1_bound",
            "bound/exact",
            "implied_const",
        ],
    );
    let exponents: Vec<i32> = if cfg.quick { vec![3, 6, 9] } else { (2..=14).collect() };
    for (i, e) in exponents.into_iter().enumerate() {
        let n = 10f64.powi(e);
        let mut rng = cfg.rng(i as u64 + 2000);
        let spec = SimSpec { a_only: n, b_only: n, shared: 0.0 };
        let mut emp = Welford::new();
        for _ in 0..cfg.trials {
            let (a, b) = simulate_hmh_pair(params, spec, &mut rng);
            let est = jaccard(&a, &b, CollisionCorrection::None).expect("same params");
            emp.add(est.matching as f64);
        }
        let exact = expected_collisions(params, n, n);
        let approx = approx_expected_collisions(params, n, n)
            .map(fnum)
            .unwrap_or_else(|_| "n/a".to_string());
        let bound = theorem1_bound(params, n);
        // The dominant bound term is 5·2^{p-r}; the exact value divided by
        // 2^{p-r} is the constant the paper discusses.
        let implied = exact / 2f64.powi(params.p() as i32 - params.r() as i32);
        table.push_row(vec![
            format!("1e{e}"),
            fnum(emp.mean()),
            fnum(exact),
            approx,
            fnum(bound),
            fnum(bound / exact),
            fnum(implied),
        ]);
    }
    table
}

/// Default parameterization (p=8, q=6, r=6 — small enough r that the
/// expected counts are clearly visible above trial noise).
pub fn run(cfg: &Config) -> Table {
    run_for_params(cfg, HmhParams::new(8, 6, 6).expect("valid"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_tracks_exact_and_bound_holds() {
        let cfg = Config { trials: 60, seed: 3, quick: true };
        let params = HmhParams::new(8, 6, 6).unwrap(); // r=6: visible counts
        let t = run_for_params(&cfg, params);
        for row in 0..t.num_rows() {
            let emp = t.cell_f64(row, t.col("empirical"));
            let exact = t.cell_f64(row, t.col("exact(Alg5)"));
            let bound = t.cell_f64(row, t.col("thm1_bound"));
            assert!(exact <= bound * 1.0001, "bound violated at row {row}");
            // Empirical within 5σ of exact (σ² ≤ EC² + EC per Thm 2).
            let sigma = ((exact * exact + exact) / cfg.trials as f64).sqrt();
            assert!(
                (emp - exact).abs() < 5.0 * sigma + 0.5,
                "row {row}: empirical {emp} vs exact {exact}"
            );
        }
    }

    #[test]
    fn implied_constant_is_near_one() {
        // The paper: "the constant 6 is a gross overestimate (empirically,
        // the constant seems closer to 1)".
        let cfg = Config { trials: 4, seed: 3, quick: true };
        let t = run(&cfg);
        // Plateau rows (n ≥ 1e6).
        let c = t.cell_f64(t.num_rows() - 1, t.col("implied_const"));
        assert!((0.05..2.0).contains(&c), "implied constant {c}");
    }
}
