//! Cardinality estimation: Algorithm 3.
//!
//! Two regimes:
//!
//! 1. **HLL head** — "the left parts of the buckets can be passed directly
//!    into a HyperLogLog estimator": the LogLog counters form an ordinary
//!    HLL register vector, estimated with any of `hmh-hll`'s estimators.
//! 2. **KMV tail** — once the head estimate exceeds `1024·2^p` the LogLog
//!    counters approach saturation, so Algorithm 3 switches to the
//!    order-statistics estimator over the *full* registers:
//!    `r_i = 2^{-counter}·(1 + mantissa/2^r)` reconstructs each bucket's
//!    minimum to `r`-bit precision and `|S|²/Σ rᵢ` recovers `n` ("we can
//!    also use other k-minimum value count-distinct cardinality estimators,
//!    which we empirically found useful for large cardinalities").
//!
//! Deviation from the naive pseudocode, documented in DESIGN.md: for a
//! *saturated* counter the stored mantissa sits at the fixed positions
//! `cap…cap+r−1` of the bitstring (Lemma 4's `i = 2^q` row), so the
//! reconstruction there is `r_i = 2^{-(cap−1)}·(mantissa + ½)/2^r` rather
//! than the uncapped formula; using the uncapped formula for saturated
//! registers would overestimate those minima by up to `2^r×`.

use crate::params::HmhParams;
use crate::sketch::HyperMinHash;
use hmh_hll::estimators::{estimate as hll_estimate, EstimatorKind};
use hmh_math::KahanSum;

/// Configuration for Algorithm 3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CardinalityEstimator {
    /// Which HLL estimator the head uses. Default: Ertl improved.
    pub hll_estimator: EstimatorKind,
    /// Head→tail switch threshold as a multiple of the bucket count
    /// (the pseudocode's `1024·|S|`).
    pub tail_threshold_factor: f64,
}

impl Default for CardinalityEstimator {
    fn default() -> Self {
        Self { hll_estimator: EstimatorKind::ErtlImproved, tail_threshold_factor: 1024.0 }
    }
}

impl CardinalityEstimator {
    /// The classic pseudocode configuration (FFGM07 head, 1024·m switch).
    pub fn pseudocode() -> Self {
        Self { hll_estimator: EstimatorKind::Ffgm, tail_threshold_factor: 1024.0 }
    }

    /// Full Algorithm 3.
    pub fn estimate(&self, sketch: &HyperMinHash) -> f64 {
        let head = self.head_estimate(sketch);
        let threshold = self.tail_threshold_factor * sketch.params().num_buckets() as f64;
        if head < threshold {
            head
        } else {
            tail_estimate(sketch)
        }
    }

    /// The HLL head estimate alone.
    pub fn head_estimate(&self, sketch: &HyperMinHash) -> f64 {
        hll_estimate(&sketch.counter_histogram(), self.hll_estimator)
    }
}

/// The KMV tail estimate alone: `m² / Σ rᵢ` over the reconstructed bucket
/// minima (∞ when every register is exactly zero — unreachable in
/// practice, matching the pseudocode's `return ∞`).
pub fn tail_estimate(sketch: &HyperMinHash) -> f64 {
    let params = sketch.params();
    let m = params.num_buckets() as f64;
    let mut sum = KahanSum::new();
    for bucket in 0..params.num_buckets() {
        sum.add(reconstruct_min(params, sketch.register(bucket)));
    }
    let total = sum.total();
    if total == 0.0 {
        f64::INFINITY
    } else {
        m * m / total
    }
}

/// Reconstruct a bucket's (within-bucket) minimum from its register, to
/// mantissa precision. Empty buckets reconstruct as 1.0 — the pseudocode's
/// `(0,0) → 2^0·(1+0) = 1` behaviour, harmless in the tail regime where
/// empties have vanishing probability.
fn reconstruct_min(params: HmhParams, register: Option<(u32, u32)>) -> f64 {
    let Some((counter, mantissa)) = register else {
        return 1.0;
    };
    let r_values = params.mantissa_values() as f64;
    if counter < params.cap() {
        2f64.powi(-(counter as i32)) * (1.0 + (f64::from(mantissa) + 0.5) / r_values)
    } else {
        2f64.powi(-(params.cap() as i32 - 1)) * (f64::from(mantissa) + 0.5) / r_values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_tracks_small_and_medium_cardinalities() {
        let params = HmhParams::new(10, 6, 10).unwrap();
        let est = CardinalityEstimator::default();
        for &n in &[100u64, 5_000, 100_000] {
            let sketch = HyperMinHash::from_items(params, 0..n);
            let e = est.estimate(&sketch);
            assert!(((e - n as f64) / n as f64).abs() < 0.1, "n={n}: estimate {e}");
        }
    }

    #[test]
    fn tail_takes_over_at_large_cardinality() {
        // p=4 → threshold 1024·16 = 16384; insert 10^6.
        let params = HmhParams::new(4, 6, 12).unwrap();
        let est = CardinalityEstimator::default();
        let n = 1_000_000u64;
        let sketch = HyperMinHash::from_items(params, 0..n);
        let head = est.head_estimate(&sketch);
        assert!(head > 1024.0 * 16.0, "head {head} should exceed threshold");
        let e = est.estimate(&sketch);
        // 16 buckets → ~25% relative error expected; check the right
        // regime, not tight accuracy.
        assert!(((e - n as f64) / n as f64).abs() < 0.8, "tail estimate {e}");
    }

    #[test]
    fn tail_estimate_via_simulated_registers_is_calibrated() {
        // Feed registers whose minima are exactly Beta(1, k)-distributed
        // (via observe) so the tail estimator is tested in isolation with
        // many buckets.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let params = HmhParams::new(10, 6, 12).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 1e9;
        let per_bucket = n / 1024.0;
        let mut sketch = HyperMinHash::new(params);
        for bucket in 0..1024usize {
            let u: f64 = rng.gen();
            let v = -((-u).ln_1p() / per_bucket).exp_m1(); // min of k uniforms
                                                           // Encode v to (counter, mantissa) like rho_sigma does.
            let counter = ((-v.log2()).floor() as u32 + 1).min(params.cap());
            let mantissa = if counter < params.cap() {
                ((v * 2f64.powi(counter as i32) - 1.0) * params.mantissa_values() as f64) as u32
            } else {
                (v * 2f64.powi(params.cap() as i32 - 1) * params.mantissa_values() as f64) as u32
            };
            sketch.observe(bucket, counter, mantissa.min(params.mantissa_values() as u32 - 1));
        }
        let e = tail_estimate(&sketch);
        assert!((e / n - 1.0).abs() < 0.15, "estimate {e} vs {n}");
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let sketch = HyperMinHash::new(HmhParams::figure6());
        assert_eq!(sketch.cardinality(), 0.0);
    }

    #[test]
    fn union_cardinality_is_consistent() {
        let params = HmhParams::new(10, 6, 10).unwrap();
        let a = HyperMinHash::from_items(params, 0..30_000u64);
        let b = HyperMinHash::from_items(params, 15_000..45_000u64);
        let u = a.union(&b).unwrap();
        let e = u.cardinality();
        assert!((e / 45_000.0 - 1.0).abs() < 0.1, "union estimate {e}");
    }

    #[test]
    fn pseudocode_configuration_works() {
        let params = HmhParams::new(8, 6, 10).unwrap();
        let sketch = HyperMinHash::from_items(params, 0..10_000u64);
        let e = CardinalityEstimator::pseudocode().estimate(&sketch);
        assert!((e / 10_000.0 - 1.0).abs() < 0.15, "estimate {e}");
    }

    #[test]
    fn reconstruct_min_matches_encoding() {
        // Encode a known value, reconstruct, compare.
        let params = HmhParams::new(0, 5, 8).unwrap();
        let digest = hmh_hash::Digest128::from_u128(0b0001_1011_0110_1010u128 << 112);
        let (c, s) = digest.rho_sigma(0, params.cap(), params.r());
        let v_true = 0b0001_1011_0110_1010 as f64 / 65536.0;
        let v_rec = reconstruct_min(params, Some((c, s as u32)));
        assert!(
            (v_rec - v_true).abs() / v_true < 2f64.powi(-(params.r() as i32)) * 1.5,
            "true {v_true}, reconstructed {v_rec}"
        );
    }
}
