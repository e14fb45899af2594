//! HLL-only intersection baselines (§1.3 of the paper).
//!
//! The paper's motivation for HyperMinHash is that HLL sketches alone give
//! poor intersections: "the relative error is then in the size of the union
//! (as opposed to the size of the Jaccard index for MinHash)". Two
//! baselines are implemented so the experiments can reproduce that claim:
//!
//! * [`inclusion_exclusion`] — `|A∩B| = |A| + |B| − |A∪B|` from three
//!   cardinality estimates; error scales with the *union*.
//! * [`joint_mle`] — the maximum-likelihood approach the paper cites as a
//!   "constant order (< 3×) improvement" (Ertl [8, 9]): jointly model the
//!   register pairs of the two sketches with three Poisson rates
//!   (`A\B`, `B\A`, `A∩B`) and maximize the exact pairwise likelihood.

use crate::estimators::EstimatorKind;
use crate::sketch::{HllError, HyperLogLog};
use hmh_math::optimize::nelder_mead_max;
use hmh_math::KahanSum;

/// An intersection/Jaccard estimate from two sketches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectionEstimate {
    /// Estimated `|A \ B|`.
    pub a_only: f64,
    /// Estimated `|B \ A|`.
    pub b_only: f64,
    /// Estimated `|A ∩ B|` (clamped to be non-negative).
    pub intersection: f64,
    /// Estimated `|A ∪ B|`.
    pub union: f64,
}

impl IntersectionEstimate {
    /// The implied Jaccard index `|A∩B| / |A∪B|` (0 when the union is 0).
    pub fn jaccard(&self) -> f64 {
        if self.union <= 0.0 {
            0.0
        } else {
            (self.intersection / self.union).clamp(0.0, 1.0)
        }
    }
}

/// Inclusion–exclusion intersection from three HLL cardinality estimates.
pub fn inclusion_exclusion(
    a: &HyperLogLog,
    b: &HyperLogLog,
    kind: EstimatorKind,
) -> Result<IntersectionEstimate, HllError> {
    let union_sketch = a.union(b)?;
    let na = a.cardinality_with(kind);
    let nb = b.cardinality_with(kind);
    let nu = union_sketch.cardinality_with(kind);
    let inter = (na + nb - nu).max(0.0);
    Ok(IntersectionEstimate {
        a_only: (nu - nb).max(0.0),
        b_only: (nu - na).max(0.0),
        intersection: inter,
        union: nu,
    })
}

/// Joint log-likelihood of the paired register histogram under the
/// three-rate Poisson model.
///
/// With per-bucket rates `λ₁ = |A\B|/m`, `λ₂ = |B\A|/m`, `λ₃ = |A∩B|/m`,
/// the registers are `K_A = max(M₁, M₃)`, `K_B = max(M₂, M₃)` where the
/// `Mᵢ` are independent HLL registers with tail `P(Mᵢ ≤ k) = exp(−λᵢ2^−k)`.
/// The joint CDF factorizes as
/// `F(a, b) = G₁(a) · G₂(b) · G₃(min(a, b))`,
/// and the pmf is the 2-D finite difference of `F`.
pub fn joint_log_likelihood(pair_hist: &[Vec<u64>], cap: u32, lambda: &[f64; 3]) -> f64 {
    let g = |lam: f64, k: i64| -> f64 {
        if k < 0 {
            0.0
        } else if k >= i64::from(cap) {
            1.0
        } else {
            (-lam * 2f64.powi(-(k as i32))).exp()
        }
    };
    let f = |a: i64, b: i64| -> f64 { g(lambda[0], a) * g(lambda[1], b) * g(lambda[2], a.min(b)) };
    let mut ll = KahanSum::new();
    for (a, row) in pair_hist.iter().enumerate() {
        for (b, &count) in row.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let (a, b) = (a as i64, b as i64);
            let pmf =
                (f(a, b) - f(a - 1, b) - f(a, b - 1) + f(a - 1, b - 1)).max(f64::MIN_POSITIVE);
            ll.add(count as f64 * pmf.ln());
        }
    }
    ll.total()
}

/// Histogram of register pairs `(K_A, K_B)`: `(cap+1) × (cap+1)` counts.
pub fn pair_histogram(a: &HyperLogLog, b: &HyperLogLog) -> Vec<Vec<u64>> {
    let cap = a.cap() as usize;
    let mut hist = vec![vec![0u64; cap + 1]; cap + 1];
    for i in 0..a.num_registers() {
        hist[a.register(i) as usize][b.register(i) as usize] += 1;
    }
    hist
}

/// Joint-MLE intersection estimation (Ertl's approach): maximize
/// [`joint_log_likelihood`] over the three component rates with
/// Nelder–Mead in log-rate space, initialized from inclusion–exclusion.
pub fn joint_mle(a: &HyperLogLog, b: &HyperLogLog) -> Result<IntersectionEstimate, HllError> {
    a.check_compatible(b)?;
    let m = a.num_registers() as f64;
    let cap = a.cap();
    let hist = pair_histogram(a, b);

    let ie = inclusion_exclusion(a, b, EstimatorKind::ErtlImproved)?;
    // Log-rate parameterization keeps rates positive; floor the init so
    // components estimated at 0 can still grow during the search.
    let floor = 1e-6 / m;
    let init = [
        (ie.a_only.max(1.0) / m).max(floor).ln(),
        (ie.b_only.max(1.0) / m).max(floor).ln(),
        (ie.intersection.max(1.0) / m).max(floor).ln(),
    ];
    let (t, _) = nelder_mead_max(
        |t| joint_log_likelihood(&hist, cap, &[t[0].exp(), t[1].exp(), t[2].exp()]),
        &init,
        &[0.7, 0.7, 0.7],
        1e-10,
        2000,
    );
    let a_only = t[0].exp() * m;
    let b_only = t[1].exp() * m;
    let intersection = t[2].exp() * m;
    Ok(IntersectionEstimate { a_only, b_only, intersection, union: a_only + b_only + intersection })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_pair(
        n_a_only: u64,
        n_b_only: u64,
        n_shared: u64,
        p: u32,
    ) -> (HyperLogLog, HyperLogLog) {
        let mut a = HyperLogLog::new(p);
        let mut b = HyperLogLog::new(p);
        for i in 0..n_shared {
            let key = i;
            a.insert(&key);
            b.insert(&key);
        }
        for i in 0..n_a_only {
            a.insert(&(1_000_000_000 + i));
        }
        for i in 0..n_b_only {
            b.insert(&(2_000_000_000 + i));
        }
        (a, b)
    }

    #[test]
    fn inclusion_exclusion_recovers_large_intersections() {
        // 50% overlap: IE works acceptably here.
        let (a, b) = build_pair(20_000, 20_000, 20_000, 12);
        let est = inclusion_exclusion(&a, &b, EstimatorKind::ErtlImproved).unwrap();
        assert!(((est.intersection - 20_000.0) / 20_000.0).abs() < 0.15, "{est:?}");
        assert!(((est.union - 60_000.0) / 60_000.0).abs() < 0.05);
        assert!((est.jaccard() - 1.0 / 3.0).abs() < 0.08);
    }

    #[test]
    fn joint_mle_recovers_moderate_intersections() {
        let (a, b) = build_pair(30_000, 30_000, 10_000, 12);
        let est = joint_mle(&a, &b).unwrap();
        assert!(((est.intersection - 10_000.0) / 10_000.0).abs() < 0.25, "{est:?}");
        assert!(((est.union - 70_000.0) / 70_000.0).abs() < 0.06, "{est:?}");
    }

    #[test]
    fn joint_mle_beats_ie_on_small_jaccard_on_average() {
        // The paper: MLE is a < 3x constant improvement over IE. Check the
        // direction over repeated trials at J ≈ 0.02.
        let mut ie_err = hmh_math::Welford::new();
        let mut mle_err = hmh_math::Welford::new();
        for trial in 0..6u64 {
            let mut a = HyperLogLog::with_oracle(11, 63, hmh_hash::RandomOracle::with_seed(trial));
            let mut b = HyperLogLog::with_oracle(11, 63, hmh_hash::RandomOracle::with_seed(trial));
            let shared = 2_000u64;
            let each = 48_000u64;
            for i in 0..shared {
                a.insert(&i);
                b.insert(&i);
            }
            for i in 0..each {
                a.insert(&(10_000_000 + i));
                b.insert(&(20_000_000 + i));
            }
            let truth = shared as f64;
            let ie = inclusion_exclusion(&a, &b, EstimatorKind::ErtlImproved).unwrap();
            let mle = joint_mle(&a, &b).unwrap();
            ie_err.add(((ie.intersection - truth) / truth).abs());
            mle_err.add(((mle.intersection - truth) / truth).abs());
        }
        assert!(
            mle_err.mean() <= ie_err.mean() * 1.5,
            "MLE should not be much worse: mle {} vs ie {}",
            mle_err.mean(),
            ie_err.mean()
        );
    }

    #[test]
    fn disjoint_sets_give_near_zero_intersection() {
        let (a, b) = build_pair(50_000, 50_000, 0, 12);
        let est = joint_mle(&a, &b).unwrap();
        // Intersection should be a small fraction of the union.
        assert!(est.intersection < 0.05 * est.union, "spurious intersection: {est:?}");
    }

    #[test]
    fn identical_sets_give_jaccard_one() {
        let mut a = HyperLogLog::new(10);
        for i in 0..10_000u64 {
            a.insert(&i);
        }
        let est = joint_mle(&a, &a.clone()).unwrap();
        assert!(est.jaccard() > 0.9, "{est:?}");
    }

    #[test]
    fn pair_histogram_total_is_register_count() {
        let (a, b) = build_pair(1000, 1000, 1000, 8);
        let hist = pair_histogram(&a, &b);
        let total: u64 = hist.iter().flatten().sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn joint_likelihood_prefers_truth_direction() {
        let (a, b) = build_pair(20_000, 20_000, 20_000, 12);
        let m = a.num_registers() as f64;
        let hist = pair_histogram(&a, &b);
        let truth = [20_000.0 / m, 20_000.0 / m, 20_000.0 / m];
        let wrong = [35_000.0 / m, 35_000.0 / m, 5_000.0 / m];
        assert!(
            joint_log_likelihood(&hist, a.cap(), &truth)
                > joint_log_likelihood(&hist, a.cap(), &wrong)
        );
    }
}
