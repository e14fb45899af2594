//! HyperLogLog sketch simulation at arbitrary cardinality.
//!
//! Used by the §1.3 comparison experiment (inclusion–exclusion vs
//! joint-MLE vs HyperMinHash) when the union sizes exceed insertion range.

use crate::overlap::SimSpec;
use hmh_hash::RandomOracle;
use hmh_hll::HyperLogLog;
use hmh_math::dist::{min_of_k_uniforms, multinomial_pow2};
use rand::Rng;

/// Leading-one position of `v ∈ (0, 1)`, saturated at `cap`.
fn rho_of(v: f64, cap: u32) -> u32 {
    let bits = v.to_bits();
    let exp_field = ((bits >> 52) & 0x7ff) as i64;
    if exp_field == 0 {
        return cap;
    }
    ((1023 - exp_field).max(1) as u32).min(cap)
}

fn component_minima<R: Rng + ?Sized>(count: f64, p: u32, rng: &mut R) -> Vec<Option<f64>> {
    multinomial_pow2(count, p, rng)
        .into_iter()
        .map(|k| (k > 0.0).then(|| min_of_k_uniforms(k, rng)))
        .collect()
}

/// Simulate a single HLL sketch of an `n`-element set.
pub fn simulate_hll_single<R: Rng + ?Sized>(p: u32, cap: u32, n: f64, rng: &mut R) -> HyperLogLog {
    let mut sketch = HyperLogLog::with_oracle(p, cap, RandomOracle::default());
    for (bucket, v) in component_minima(n, p, rng).into_iter().enumerate() {
        if let Some(v) = v {
            sketch.observe_register(bucket, rho_of(v, cap));
        }
    }
    sketch
}

/// Simulate a coupled HLL pair realizing `spec`.
pub fn simulate_hll_pair<R: Rng + ?Sized>(
    p: u32,
    cap: u32,
    spec: SimSpec,
    rng: &mut R,
) -> (HyperLogLog, HyperLogLog) {
    let a_only = component_minima(spec.a_only, p, rng);
    let b_only = component_minima(spec.b_only, p, rng);
    let shared = component_minima(spec.shared, p, rng);
    let mut a = HyperLogLog::with_oracle(p, cap, RandomOracle::default());
    let mut b = HyperLogLog::with_oracle(p, cap, RandomOracle::default());
    for bucket in 0..(1usize << p) {
        let sh = shared[bucket];
        for (own, sketch) in [(a_only[bucket], &mut a), (b_only[bucket], &mut b)] {
            let v = match (own, sh) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            };
            if let Some(v) = v {
                sketch.observe_register(bucket, rho_of(v, cap));
            }
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rho_of_matches_register_semantics() {
        assert_eq!(rho_of(0.5, 63), 1);
        assert_eq!(rho_of(0.25, 63), 2);
        assert_eq!(rho_of(0.3, 63), 2);
        assert_eq!(rho_of(2f64.powi(-70), 63), 63, "saturates");
        assert_eq!(rho_of(1e-300, 8), 8);
    }

    #[test]
    fn simulated_hll_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(1);
        for &n in &[1e4, 1e7, 1e12] {
            let s = simulate_hll_single(12, 63, n, &mut rng);
            let e = s.cardinality();
            assert!((e / n - 1.0).abs() < 0.06, "n={n}: {e}");
        }
    }

    #[test]
    fn pair_union_and_intersection_structure() {
        let mut rng = StdRng::seed_from_u64(2);
        let spec = SimSpec { a_only: 3e6, b_only: 3e6, shared: 3e6 };
        let (a, b) = simulate_hll_pair(12, 63, spec, &mut rng);
        let est =
            hmh_hll::inclusion_exclusion(&a, &b, hmh_hll::estimators::EstimatorKind::ErtlImproved)
                .unwrap();
        assert!((est.union / 9e6 - 1.0).abs() < 0.05, "{est:?}");
        assert!((est.intersection / 3e6 - 1.0).abs() < 0.25, "{est:?}");
    }

    #[test]
    fn simulation_matches_insertion_distributionally() {
        let (p, cap) = (8u32, 63u32);
        let n = 30_000u64;
        let trials = 30;
        let mut sim_hist = vec![0f64; cap as usize + 1];
        let mut ins_hist = vec![0f64; cap as usize + 1];
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..trials {
            let sim = simulate_hll_single(p, cap, n as f64, &mut rng);
            for (k, &c) in sim.histogram().iter().enumerate() {
                sim_hist[k] += c as f64;
            }
            let mut ins = HyperLogLog::with_oracle(p, cap, RandomOracle::with_seed(t));
            for i in 0..n {
                ins.insert(&i);
            }
            for (k, &c) in ins.histogram().iter().enumerate() {
                ins_hist[k] += c as f64;
            }
        }
        for k in 0..=cap as usize {
            let (s, i) = (sim_hist[k], ins_hist[k]);
            if s + i > 50.0 {
                let sigma = ((s + i) / 2.0).sqrt();
                assert!((s - i).abs() < 6.0 * sigma, "register {k}: {s} vs {i}");
            }
        }
    }
}
