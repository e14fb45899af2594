//! Fast approximate expected collisions: Algorithm 6.
//!
//! The paper's numerically-stable approximation ("generally underestimates
//! collisions"):
//!
//! 1. `n ≤ 2^{p+5}` — exact HyperLogLog-level collisions (Algorithm 5 with
//!    `r = 0`) divided by `2^r`, assuming the joint density is near-uniform
//!    within each LogLog box.
//! 2. `2^{p+5} < n ≤ 2^{p+cap−1}` — the asymptotic plateau
//!    `0.169919… · 2^{p−r} · φ` with the skew factor
//!    `φ = 4(n/m) / (1 + n/m)²` from Lemma 7's `nm/((n+m)(n+m−1))`.
//! 3. beyond — the approximation is invalid and an error is returned
//!    (the paper: "cardinality too large for approximation"; for the
//!    practical `q = 6, p = 15` this needs `n > 2^{77} ≈ 10^{23}`).

use crate::error::HmhError;
use crate::params::HmhParams;

/// The paper's empirically-determined asymptotic collision constant:
/// `EC → 0.169919487159739093975315012348·2^{p−r}` as `n = m → ∞`.
pub const ASYMPTOTIC_COLLISION_CONSTANT: f64 = 0.169_919_487_159_739_1;

/// Algorithm 6: fast, numerically-stable approximation of the expected
/// collisions between sketches of disjoint sets of sizes `n`, `m`.
///
/// # Errors
/// [`HmhError::CardinalityTooLarge`] when `max(n, m) > 2^{p + cap − 1}` —
/// the point where per-bucket minima drop below the counters' precision
/// floor and collisions start climbing off the plateau. (The paper's
/// pseudocode guards at `2^{2^q+r}`, but its own appendix notes the
/// approximations actually fail "around n > 2^{2^q+p}"; we use the
/// tighter, correct ceiling, shifted for the packed-register cap.)
pub fn approx_expected_collisions(params: HmhParams, n: f64, m: f64) -> Result<f64, HmhError> {
    let (n, m) = if n >= m { (n, m) } else { (m, n) };
    if n <= 0.0 || m <= 0.0 {
        return Ok(0.0);
    }
    let limit = 2f64.powi((params.cap() - 1 + params.p()) as i32);
    if n > limit {
        return Err(HmhError::CardinalityTooLarge { n, limit });
    }
    let r_scale = 2f64.powi(-(params.r() as i32));
    if n > 2f64.powi(params.p() as i32 + 5) {
        let ratio = n / m;
        let phi = 4.0 * ratio / ((1.0 + ratio) * (1.0 + ratio));
        Ok(ASYMPTOTIC_COLLISION_CONSTANT * 2f64.powi(params.p() as i32) * r_scale * phi)
    } else {
        // HyperLogLog-box collisions (r = 0) spread across the 2^r
        // sub-boxes along each box's diagonal.
        let hll_collisions = super::exact::expected_hll_collisions(params.p(), params.cap(), n, m);
        Ok(hll_collisions * r_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collisions::exact::expected_collisions;

    #[test]
    fn zero_cardinality() {
        let p = HmhParams::figure6();
        assert_eq!(approx_expected_collisions(p, 0.0, 10.0).unwrap(), 0.0);
    }

    #[test]
    fn small_regime_tracks_exact() {
        let params = HmhParams::new(8, 6, 8).unwrap();
        for &n in &[100.0, 1000.0, 5000.0] {
            let approx = approx_expected_collisions(params, n, n).unwrap();
            let exact = expected_collisions(params, n, n);
            assert!((approx / exact - 1.0).abs() < 0.35, "n={n}: approx {approx} vs exact {exact}");
        }
    }

    #[test]
    fn plateau_regime_tracks_exact() {
        let params = HmhParams::new(8, 6, 8).unwrap();
        for &n in &[1e6, 1e9, 1e12] {
            let approx = approx_expected_collisions(params, n, n).unwrap();
            let exact = expected_collisions(params, n, n);
            assert!((approx / exact - 1.0).abs() < 0.25, "n={n}: approx {approx} vs exact {exact}");
        }
    }

    #[test]
    fn skew_factor_matches_exact_shape() {
        let params = HmhParams::new(8, 6, 8).unwrap();
        let n = 1e9;
        for &ratio in &[1.0, 4.0, 64.0] {
            let m = n / ratio;
            let approx = approx_expected_collisions(params, n, m).unwrap();
            let exact = expected_collisions(params, n, m);
            assert!(
                (approx / exact - 1.0).abs() < 0.3,
                "ratio={ratio}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn symmetric_in_arguments() {
        let params = HmhParams::figure6();
        let a = approx_expected_collisions(params, 1e6, 1e4).unwrap();
        let b = approx_expected_collisions(params, 1e4, 1e6).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn too_large_errors() {
        let params = HmhParams::new(4, 3, 4).unwrap(); // limit 2^(4+6)=2^10
        let err = approx_expected_collisions(params, 1e9, 1e9).unwrap_err();
        assert!(matches!(err, HmhError::CardinalityTooLarge { .. }));
        // Headline parameters: valid even at 10^19.
        let headline = HmhParams::headline();
        assert!(approx_expected_collisions(headline, 1e19, 1e19).is_ok());
    }

    #[test]
    fn headline_collision_budget() {
        // §5: p=15, q=6, r=10 → plateau ≈ 0.1699·2^5 ≈ 5.4 colliding
        // buckets out of 32768 — a ~1.7e-4 absolute Jaccard bias, which is
        // what makes J = 0.01 estimable.
        let ec = approx_expected_collisions(HmhParams::headline(), 1e19, 1e19).unwrap();
        assert!((ec - 5.44).abs() < 0.2, "ec = {ec}");
    }
}
