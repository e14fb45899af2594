//! Closed-form bounds: Theorems 1 and 2.
//!
//! Theorem 1 (adapted to the packed cap, `2^q ↦ cap` — see the crate
//! docs):
//!
//! `EC ≤ 2^p · (5/2^r + n / 2^{p + cap − 1 + r})`
//!
//! from the four covering regions of Figure 5 — the magenta ray (≤ 3/z̄),
//! the strip (≤ 2/z̄), and the bottom-left box (≤ n/(z̄·q̄·p̄)); the
//! top-right box is inside the ray once buckets rescale. Theorem 2:
//! `Var(C) ≤ (EC)² + EC`.
//!
//! The paper notes the constant 5 (6 for a single bucket) "is a gross
//! overestimate (empirically, the constant seems closer to 1)" — the
//! `collisions` experiment measures exactly that.

use crate::params::HmhParams;

/// Theorem 1: upper bound on the expected number of colliding buckets for
/// disjoint sets with the larger cardinality `n`.
pub fn theorem1_bound(params: HmhParams, n: f64) -> f64 {
    let per_bucket = 5.0 * 2f64.powi(-(params.r() as i32))
        + n / 2f64.powi((params.p() + params.cap() - 1 + params.r()) as i32);
    2f64.powi(params.p() as i32) * per_bucket
}

/// Proposition 3: single-bucket version with constant 6.
pub fn proposition3_bound(params: HmhParams, n: f64) -> f64 {
    6.0 * 2f64.powi(-(params.r() as i32)) + n / 2f64.powi((params.cap() - 1 + params.r()) as i32)
}

/// Theorem 2: `Var(C) ≤ (EC)² + EC`.
pub fn theorem2_variance_bound(expected_collisions: f64) -> f64 {
    expected_collisions * expected_collisions + expected_collisions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collisions::exact::{expected_collisions, single_bucket_collision_probability};

    #[test]
    fn theorem1_dominates_the_exact_formula() {
        // The bound must hold across parameterizations and cardinalities,
        // including past the counter range where the n-term takes over.
        for &(p, q, r) in &[(4u32, 3u32, 4u32), (8, 4, 4), (8, 6, 10), (12, 6, 8)] {
            let params = HmhParams::new(p, q, r).unwrap();
            for &n in &[1.0, 100.0, 1e4, 1e6, 1e10, 1e14] {
                let exact = expected_collisions(params, n, n);
                let bound = theorem1_bound(params, n);
                assert!(
                    exact <= bound * (1.0 + 1e-9),
                    "(p,q,r)=({p},{q},{r}) n={n}: exact {exact} > bound {bound}"
                );
            }
        }
    }

    #[test]
    fn proposition3_dominates_single_bucket() {
        let params = HmhParams::new(0, 4, 6).unwrap();
        for &n in &[1.0, 50.0, 1e4, 1e6] {
            let gamma = single_bucket_collision_probability(4, 6, n, n);
            let bound = proposition3_bound(params, n);
            assert!(gamma <= bound, "n={n}: {gamma} > {bound}");
        }
    }

    #[test]
    fn constant_is_a_gross_overestimate() {
        // Empirically the constant is near 1 (paper, §3 end): on the
        // plateau the exact EC should be well under half the bound.
        let params = HmhParams::new(8, 6, 10).unwrap();
        let n = 1e6;
        let exact = expected_collisions(params, n, n);
        let bound = theorem1_bound(params, n);
        assert!(exact < bound / 3.0, "exact {exact}, bound {bound}");
    }

    #[test]
    fn variance_bound_shape() {
        assert_eq!(theorem2_variance_bound(0.0), 0.0);
        assert_eq!(theorem2_variance_bound(1.0), 2.0);
        assert_eq!(theorem2_variance_bound(3.0), 12.0);
    }

    #[test]
    fn empirical_variance_respects_theorem2() {
        use crate::sketch::HyperMinHash;
        use hmh_hash::RandomOracle;
        use hmh_math::Welford;

        let params = HmhParams::new(6, 4, 4).unwrap();
        let n = 2000u64;
        let mut stats = Welford::new();
        for t in 0..80u64 {
            let oracle = RandomOracle::with_seed(7000 + t);
            let mut a = HyperMinHash::with_oracle(params, oracle);
            let mut b = HyperMinHash::with_oracle(params, oracle);
            for i in 0..n {
                a.insert(&i);
                b.insert(&(i + 50_000_000));
            }
            let collisions = (0..params.num_buckets())
                .filter(|&i| a.word(i) != 0 && a.word(i) == b.word(i))
                .count();
            stats.add(collisions as f64);
        }
        let ec = expected_collisions(params, n as f64, n as f64);
        let var_bound = theorem2_variance_bound(ec);
        // Sample variance fluctuates; allow ~2x over the bound for 80
        // trials (the bound itself has slack ≈ EC², so this rarely trips).
        assert!(
            stats.sample_variance() <= var_bound * 2.0,
            "sample var {} vs bound {var_bound}",
            stats.sample_variance()
        );
        // And the mean must track EC.
        assert!(
            (stats.mean() - ec).abs() < 4.0 * (var_bound / 80.0).sqrt() + 0.3,
            "mean {} vs EC {ec}",
            stats.mean()
        );
    }
}
