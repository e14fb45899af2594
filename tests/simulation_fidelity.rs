//! The substitution gate: sketches drawn by the order-statistics simulator
//! must be statistically indistinguishable from sketches built by
//! insertion wherever both are feasible — that equivalence is what makes
//! the 10^19 experiments trustworthy (DESIGN.md §4).

use hyperminhash::prelude::*;
use hyperminhash::simulate::{simulate_hmh_pair, simulate_hmh_single, SimSpec};
use hyperminhash::workloads::pairs::{pair_with_overlap, OverlapSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Jaccard estimates from simulated pairs and inserted pairs must have
/// matching means at the same (n, J).
#[test]
fn jaccard_estimates_match_between_sim_and_insertion() {
    let params = HmhParams::new(9, 6, 10).unwrap();
    let n = 30_000u64;
    let truth = 1.0 / 3.0;
    let trials = 25u64;
    let mut rng = StdRng::seed_from_u64(1);

    let mut sim_mean = 0.0;
    let mut ins_mean = 0.0;
    for t in 0..trials {
        let spec = SimSpec::equal_sized_with_jaccard(n as f64, truth);
        let (a, b) = simulate_hmh_pair(params, spec, &mut rng);
        sim_mean += a.jaccard(&b).unwrap().raw;

        let ospec = OverlapSpec::equal_sized_with_jaccard(n, truth);
        let (items_a, items_b) = pair_with_overlap(ospec, 100 + t);
        let oracle = RandomOracle::with_seed(t);
        let mut ia = HyperMinHash::with_oracle(params, oracle);
        let mut ib = HyperMinHash::with_oracle(params, oracle);
        for &x in &items_a {
            ia.insert(&x);
        }
        for &x in &items_b {
            ib.insert(&x);
        }
        ins_mean += ia.jaccard(&ib).unwrap().raw;
    }
    sim_mean /= trials as f64;
    ins_mean /= trials as f64;
    // Each mean has σ ≈ sqrt(t(1−t)/512/25) ≈ 0.004; allow 5σ-ish.
    assert!((sim_mean - ins_mean).abs() < 0.025, "simulated {sim_mean} vs inserted {ins_mean}");
}

/// Cardinality estimates agree between the two construction paths.
#[test]
fn cardinality_estimates_match_between_sim_and_insertion() {
    let params = HmhParams::new(10, 6, 10).unwrap();
    let n = 60_000u64;
    let trials = 20u64;
    let mut rng = StdRng::seed_from_u64(2);
    let (mut sim_mean, mut ins_mean) = (0.0, 0.0);
    for t in 0..trials {
        sim_mean += simulate_hmh_single(params, n as f64, &mut rng).cardinality();
        let oracle = RandomOracle::with_seed(900 + t);
        let mut s = HyperMinHash::with_oracle(params, oracle);
        for i in 0..n {
            s.insert(&i);
        }
        ins_mean += s.cardinality();
    }
    sim_mean /= trials as f64;
    ins_mean /= trials as f64;
    assert!(
        ((sim_mean - ins_mean) / n as f64).abs() < 0.02,
        "simulated {sim_mean} vs inserted {ins_mean}"
    );
}

/// The simulator scales smoothly from insertion range to the headline
/// range with no calibration cliff.
#[test]
fn no_cliff_between_regimes() {
    let params = HmhParams::headline();
    let mut rng = StdRng::seed_from_u64(3);
    let mut previous_error = f64::NAN;
    for exp in [5i32, 8, 11, 14, 17, 19] {
        let n = 10f64.powi(exp);
        let mut err = 0.0;
        let trials = 8;
        for _ in 0..trials {
            let est = simulate_hmh_single(params, n, &mut rng).cardinality();
            err += (est / n - 1.0).abs();
        }
        err /= trials as f64;
        assert!(err < 0.03, "1e{exp}: error {err}");
        if !previous_error.is_nan() {
            assert!(
                err < previous_error * 6.0 + 0.01,
                "cliff between decades: {previous_error} → {err}"
            );
        }
        previous_error = err;
    }
}
