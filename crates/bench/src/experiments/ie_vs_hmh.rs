//! **§1.3 comparison** — intersection estimation from HLL sketches alone
//! (inclusion–exclusion, and Ertl's joint-MLE which the paper calls a
//! "constant order (< 3x) improvement") vs HyperMinHash, at matched byte
//! budgets.
//!
//! The claim reproduced: HLL-based errors are relative to the *union*
//! ("for small intersections, the error is often too great"), while
//! HyperMinHash error is relative to the Jaccard index, so the gap widens
//! as `t → 0`.

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::jaccard::{jaccard, CollisionCorrection};
use hmh_core::HmhParams;
use hmh_hll::estimators::EstimatorKind;
use hmh_hll::{inclusion_exclusion, joint_mle};
use hmh_math::stats::relative_error;
use hmh_math::Welford;
use hmh_simulate::hll_sim::simulate_hll_pair;
use hmh_simulate::{simulate_hmh_pair, SimSpec};

/// Run the Jaccard sweep at a fixed union size.
///
/// Budgets: HyperMinHash `p=12, q=6, r=10` → 8 KiB; HLL `p=13`, 6-bit
/// registers → 6 KiB (the nearest power-of-two register count below the
/// same budget — favouring the baseline is fine, the gap is orders of
/// magnitude).
pub fn run(cfg: &Config) -> Table {
    let union = 1e7;
    let hmh_params = HmhParams::new(12, 6, 10).expect("valid");
    let (hll_p, hll_cap) = (13u32, 63u32);
    let mut table = Table::new(
        format!("Intersection estimation vs Jaccard at |A∪B| = {union:.0e}: HLL-IE vs HLL-joint-MLE vs HyperMinHash"),
        &["jaccard", "intersection", "ie_re", "mle_re", "hmh_re"],
    );
    let targets: Vec<f64> =
        if cfg.quick { vec![0.003, 0.1] } else { vec![0.001, 0.003, 0.01, 0.03, 0.1, 0.3] };
    for (i, t) in targets.into_iter().enumerate() {
        // Solve the components for |A∪B| = union, |A| = |B|:
        // shared = t·union; a_only = b_only = (union − shared)/2.
        let shared = t * union;
        let only = (union - shared) / 2.0;
        let spec = SimSpec { a_only: only, b_only: only, shared };
        let mut rng = cfg.rng(i as u64 + 4000);
        let (mut ie_err, mut mle_err, mut hmh_err) =
            (Welford::new(), Welford::new(), Welford::new());
        for _ in 0..cfg.trials {
            let (ha, hb) = simulate_hll_pair(hll_p, hll_cap, spec, &mut rng);
            let ie =
                inclusion_exclusion(&ha, &hb, EstimatorKind::ErtlImproved).expect("same params");
            ie_err.add(relative_error(ie.intersection, shared));
            let mle = joint_mle(&ha, &hb).expect("same params");
            mle_err.add(relative_error(mle.intersection, shared));

            let (a, b) = simulate_hmh_pair(hmh_params, spec, &mut rng);
            let est = jaccard(&a, &b, CollisionCorrection::Approx).expect("same params");
            let union_est = a.union(&b).expect("same params").cardinality();
            hmh_err.add(relative_error(est.estimate * union_est, shared));
        }
        table.push_row(vec![
            fnum(t),
            fnum(shared),
            fnum(ie_err.mean()),
            fnum(mle_err.mean()),
            fnum(hmh_err.mean()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hmh_dominates_at_small_jaccard() {
        let cfg = Config { trials: 6, seed: 4, quick: true };
        let t = run(&cfg);
        // At J = 0.003 the HLL-IE error should be catastrophic relative
        // to HyperMinHash's.
        let ie = t.cell_f64(0, t.col("ie_re"));
        let hmh = t.cell_f64(0, t.col("hmh_re"));
        assert!(hmh < ie / 3.0, "HMH {hmh} should beat IE {ie} by a wide margin at J=0.003");
        assert!(hmh < 0.5, "HMH error {hmh}");
    }
}
