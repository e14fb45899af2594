//! Jaccard index estimation: Algorithm 4.
//!
//! Count matching non-empty buckets `C` and occupied-in-either buckets
//! `N`; the raw estimate is `C/N`. Optionally subtract the expected number
//! of accidental collisions `EC` first ("generally not needed, except for
//! really small Jaccard index"): `t̂ = (C − EC)/N`.

use crate::collisions::{approx_expected_collisions, expected_collisions};
use crate::error::HmhError;
use crate::sketch::HyperMinHash;

/// How Algorithm 4 estimates the collision correction `EC`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollisionCorrection {
    /// No correction (`EC = 0`) — the Figure 6 protocol.
    None,
    /// Algorithm 6's fast approximation (the pseudocode's
    /// `ApproxExpectedCollisions`, "safe to substitute" default). Falls
    /// back to no correction when the approximation reports
    /// cardinality-too-large.
    #[default]
    Approx,
    /// Algorithm 5's exact computation (log-space evaluation).
    Exact,
}

/// The result of Algorithm 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JaccardEstimate {
    /// The collision-corrected estimate `(C − EC)/N`, clamped to `[0, 1]`.
    pub estimate: f64,
    /// The uncorrected ratio `C/N`.
    pub raw: f64,
    /// Matching non-empty buckets `C`.
    pub matching: usize,
    /// Buckets occupied in either sketch `N`.
    pub occupied: usize,
    /// The `EC` that was subtracted.
    pub expected_collisions: f64,
}

impl JaccardEstimate {
    /// Approximate standard error of [`estimate`](Self::estimate): the
    /// per-bucket matching indicator is Bernoulli(`t`) (variance
    /// `t(1−t)/N` — "variance on the order of k/t", §5), plus the
    /// accidental-collision count's variance, which Theorem 2 bounds by
    /// `(EC)² + EC` ("1/l² variance, where l = 2^r", §5). The second term
    /// uses the *bound*, so this errs slightly conservative.
    pub fn std_err(&self) -> f64 {
        if self.occupied == 0 {
            return 0.0;
        }
        let n = self.occupied as f64;
        let sampling = self.estimate * (1.0 - self.estimate) / n;
        let ec = self.expected_collisions;
        let collisions = (ec * ec + ec) / (n * n);
        (sampling + collisions).sqrt()
    }
}

/// Algorithm 4: Jaccard index of two sketches.
///
/// [`CollisionCorrection::None`] needs no cardinalities and computes
/// none; the corrections estimate both with Algorithm 3 first.
pub fn jaccard(
    a: &HyperMinHash,
    b: &HyperMinHash,
    correction: CollisionCorrection,
) -> Result<JaccardEstimate, HmhError> {
    let cardinalities = match correction {
        CollisionCorrection::None => (0.0, 0.0),
        CollisionCorrection::Approx | CollisionCorrection::Exact => {
            (a.cardinality(), b.cardinality())
        }
    };
    jaccard_with_cardinalities(a, b, correction, cardinalities)
}

/// Algorithm 4 with the two sketches' cardinalities already known, for
/// callers that keep Algorithm 3's estimates (a store caches one per
/// sketch). `(n, m)` feed only the collision correction; with
/// `a.cardinality()` and `b.cardinality()` the result is bit-identical
/// to [`jaccard`].
pub fn jaccard_with_cardinalities(
    a: &HyperMinHash,
    b: &HyperMinHash,
    correction: CollisionCorrection,
    (n, m): (f64, f64),
) -> Result<JaccardEstimate, HmhError> {
    a.check_compatible(b)?;
    let params = a.params();
    let mut matching = 0usize;
    let mut occupied = 0usize;
    for bucket in 0..params.num_buckets() {
        let (wa, wb) = (a.word(bucket), b.word(bucket));
        if wa != 0 || wb != 0 {
            occupied += 1;
            if wa == wb {
                matching += 1;
            }
        }
    }
    let raw = if occupied == 0 { 0.0 } else { matching as f64 / occupied as f64 };

    let ec = match correction {
        CollisionCorrection::None => 0.0,
        CollisionCorrection::Approx => approx_expected_collisions(params, n, m).unwrap_or(0.0),
        CollisionCorrection::Exact => expected_collisions(params, n, m),
    };

    // The correction is derived for *disjoint* buckets; shared buckets
    // cannot accidentally collide, so EC overcorrects slightly at high t —
    // the paper accepts this ("for large Jaccard indexes, this does not
    // matter").
    let estimate = if occupied == 0 {
        0.0
    } else {
        ((matching as f64 - ec) / occupied as f64).clamp(0.0, 1.0)
    };

    Ok(JaccardEstimate { estimate, raw, matching, occupied, expected_collisions: ec })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HmhParams;

    fn pair(n: u64, overlap: u64, params: HmhParams) -> (HyperMinHash, HyperMinHash) {
        // |A| = |B| = n, |A∩B| = overlap.
        let a = HyperMinHash::from_items(params, 0..n);
        let b = HyperMinHash::from_items(params, (n - overlap)..(2 * n - overlap));
        (a, b)
    }

    #[test]
    fn figure6_scenario_jaccard_one_third() {
        // Identically sized sets, 50% overlap → J = 1/3.
        let params = HmhParams::new(11, 6, 10).unwrap();
        let (a, b) = pair(30_000, 15_000, params);
        let est = jaccard(&a, &b, CollisionCorrection::None).unwrap();
        assert!((est.estimate - 1.0 / 3.0).abs() < 0.04, "estimate {}", est.estimate);
        assert_eq!(est.raw, est.estimate, "no correction → raw == estimate");
    }

    #[test]
    fn identical_sets_estimate_one() {
        let params = HmhParams::figure6();
        let a = HyperMinHash::from_items(params, 0..5_000u64);
        let est = jaccard(&a, &a.clone(), CollisionCorrection::None).unwrap();
        assert_eq!(est.estimate, 1.0);
        assert_eq!(est.matching, est.occupied);
    }

    #[test]
    fn empty_sketches_estimate_zero() {
        let params = HmhParams::figure6();
        let a = HyperMinHash::new(params);
        let est = jaccard(&a, &a.clone(), CollisionCorrection::Approx).unwrap();
        assert_eq!(est.estimate, 0.0);
        assert_eq!(est.occupied, 0);
    }

    #[test]
    fn correction_debiases_disjoint_sets() {
        // Disjoint sets with few mantissa bits: raw ≈ EC/N > 0; corrected
        // should be much closer to 0, averaged over trials.
        use hmh_hash::RandomOracle;
        let params = HmhParams::new(8, 5, 4).unwrap();
        let n = 100_000u64;
        let (mut raw_sum, mut corr_sum) = (0.0, 0.0);
        let trials = 10;
        for t in 0..trials {
            let oracle = RandomOracle::with_seed(500 + t);
            let mut a = HyperMinHash::with_oracle(params, oracle);
            let mut b = HyperMinHash::with_oracle(params, oracle);
            for i in 0..n {
                a.insert(&i);
                b.insert(&(i + 1_000_000_000));
            }
            let est = jaccard(&a, &b, CollisionCorrection::Exact).unwrap();
            raw_sum += est.raw;
            corr_sum += est.estimate;
            assert!(est.expected_collisions > 0.5, "EC {}", est.expected_collisions);
        }
        let raw = raw_sum / trials as f64;
        let corrected = corr_sum / trials as f64;
        assert!(raw > 0.005, "raw {raw} should show the collision floor");
        assert!(
            corrected < raw / 2.0,
            "correction should remove most of the floor: raw {raw}, corrected {corrected}"
        );
    }

    #[test]
    fn approx_correction_close_to_exact_correction() {
        let params = HmhParams::new(10, 6, 8).unwrap();
        let (a, b) = pair(50_000, 5_000, params);
        let exact = jaccard(&a, &b, CollisionCorrection::Exact).unwrap();
        let approx = jaccard(&a, &b, CollisionCorrection::Approx).unwrap();
        assert!(
            (exact.estimate - approx.estimate).abs() < 0.01,
            "exact {} vs approx {}",
            exact.estimate,
            approx.estimate
        );
    }

    #[test]
    fn jaccard_is_symmetric() {
        let params = HmhParams::figure6();
        let (a, b) = pair(10_000, 2_000, params);
        let ab = jaccard(&a, &b, CollisionCorrection::None).unwrap();
        let ba = jaccard(&b, &a, CollisionCorrection::None).unwrap();
        assert_eq!(ab.estimate, ba.estimate);
        assert_eq!(ab.matching, ba.matching);
    }

    #[test]
    fn small_jaccard_with_correction() {
        // J = 0.01 at n = 200k: the regime the paper says needs EC.
        let params = HmhParams::new(12, 6, 10).unwrap();
        let n = 200_000u64;
        let overlap = (2.0 * n as f64 * 0.01 / 1.01) as u64; // J = s/(2n−s)
        let (a, b) = pair(n, overlap, params);
        let est = jaccard(&a, &b, CollisionCorrection::Approx).unwrap();
        assert!((est.estimate - 0.01).abs() < 0.004, "estimate {} (raw {})", est.estimate, est.raw);
    }

    #[test]
    fn std_err_matches_empirical_spread() {
        use hmh_hash::RandomOracle;
        use hmh_math::Welford;
        // Repeat the J = 1/3 experiment with independent oracles; the
        // empirical sd of the estimate should sit within a factor ~2 of
        // the predicted standard error.
        let params = HmhParams::new(9, 6, 10).unwrap();
        let mut stats = Welford::new();
        let mut predicted = 0.0;
        let trials = 40u64;
        for t in 0..trials {
            let oracle = RandomOracle::with_seed(3_000 + t);
            let mut a = HyperMinHash::with_oracle(params, oracle);
            let mut b = HyperMinHash::with_oracle(params, oracle);
            for i in 0..20_000u64 {
                a.insert(&i);
                b.insert(&(i + 10_000));
            }
            let est = jaccard(&a, &b, CollisionCorrection::Approx).unwrap();
            stats.add(est.estimate);
            predicted = est.std_err();
        }
        let empirical = stats.std_dev();
        assert!(
            empirical < predicted * 2.0 && empirical > predicted / 3.0,
            "empirical sd {empirical} vs predicted {predicted}"
        );
    }

    #[test]
    fn std_err_edge_cases() {
        let params = HmhParams::figure6();
        let empty = HyperMinHash::new(params);
        let est = jaccard(&empty, &empty.clone(), CollisionCorrection::None).unwrap();
        assert_eq!(est.std_err(), 0.0);
        // Identical sets: t = 1 → sampling term vanishes, only the
        // (tiny) collision term remains.
        let a = HyperMinHash::from_items(params, 0..1000u64);
        let est = jaccard(&a, &a.clone(), CollisionCorrection::None).unwrap();
        assert!(est.std_err() < 0.01, "{}", est.std_err());
    }

    #[test]
    fn known_cardinalities_match_jaccard_bit_for_bit() {
        for p in [4, 11, 15] {
            let params = HmhParams::new(p, 6, 10).unwrap();
            let (a, b) = pair(20_000, 5_000, params);
            let known = (a.cardinality(), b.cardinality());
            for correction in
                [CollisionCorrection::None, CollisionCorrection::Approx, CollisionCorrection::Exact]
            {
                let want = jaccard(&a, &b, correction).unwrap();
                let got = jaccard_with_cardinalities(&a, &b, correction, known).unwrap();
                let bits = |e: &JaccardEstimate| {
                    (
                        e.estimate.to_bits(),
                        e.raw.to_bits(),
                        e.matching,
                        e.occupied,
                        e.expected_collisions.to_bits(),
                    )
                };
                assert_eq!(bits(&got), bits(&want), "p={p} {correction:?}");
            }
        }
    }

    #[test]
    fn incompatible_inputs_error() {
        let a = HyperMinHash::new(HmhParams::new(8, 4, 4).unwrap());
        let b = HyperMinHash::new(HmhParams::new(8, 4, 5).unwrap());
        assert!(jaccard(&a, &b, CollisionCorrection::None).is_err());
    }
}
