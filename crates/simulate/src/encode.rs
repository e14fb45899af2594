//! Exact register encoding of a sampled minimum.
//!
//! Given a bucket minimum `v ∈ (0, 1)`, produce the `(counter, mantissa)`
//! register that `Digest128::rho_sigma` would produce for a hash whose
//! within-bucket fraction is `v`. The leading-one position is read from
//! the `f64` exponent field (exact — no `log2` rounding hazards) and the
//! mantissa bits from the top of the `f64` fraction field.

use hmh_core::HmhParams;

/// Encode a within-bucket minimum `v ∈ (0, 1)` into `(counter, mantissa)`.
///
/// * `counter = min(⌊−log₂ v⌋ + 1, cap)` — the leading-one position,
///   saturated.
/// * uncapped: `mantissa` = the `r` bits after the leading one.
/// * capped: `mantissa` = bits at the fixed positions `cap … cap+r−1`
///   (Lemma 4's `i = 2^q` row).
///
/// # Panics
/// If `v` is not in `(0, 1)`.
pub fn encode_min(params: HmhParams, v: f64) -> (u32, u32) {
    assert!(v > 0.0 && v < 1.0, "minimum {v} out of (0, 1)");
    let cap = params.cap();
    let r = params.r();
    let bits = v.to_bits();
    let exp_field = ((bits >> 52) & 0x7ff) as i64;
    // Leading-one position: v ∈ [2^e, 2^{e+1}) ⇒ position = −e =
    // 1023 − exp_field. Subnormals (exp_field == 0) are astronomically
    // below any cap we allow and saturate.
    let rho = if exp_field == 0 { u32::MAX } else { (1023 - exp_field).max(1) as u32 };
    debug_assert!(r <= 24, "HmhParams::new caps r at 24, so 52 - r cannot underflow");
    if rho < cap {
        // Top r bits of the 52-bit fraction are the bits after the
        // leading one.
        let frac = bits & ((1u64 << 52) - 1);
        let mantissa = (frac >> (52 - r)) as u32;
        (rho, mantissa)
    } else {
        // Fixed-position window: mantissa = ⌊v · 2^{cap−1+r}⌋ mod 2^r.
        // The scaling is exact (power of two); the floor of a value below
        // 2^r fits comfortably.
        let scaled = v * 2f64.powi((cap - 1 + r) as i32);
        let mantissa = if scaled >= params.mantissa_values() as f64 {
            // v ∈ [2^{-(cap-1)}·(1-ε), 2^{-(cap-1)}) rounding artifact —
            // cannot occur for v strictly below the cap boundary, but a
            // min that equals the boundary (rho == cap-1... handled above)
            // leaves this defensive clamp.
            params.mantissa_values() as u32 - 1
        } else {
            scaled.floor() as u32
        };
        (cap, mantissa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmh_hash::Digest128;

    fn params(q: u32, r: u32) -> HmhParams {
        HmhParams::new(0, q, r).unwrap()
    }

    /// Build a digest whose window fraction equals `v` exactly (v must be
    /// a dyadic with ≤ 100 bits) and compare rho_sigma to encode_min.
    fn check_against_rho_sigma(v: f64, q: u32, r: u32) {
        let p = params(q, r);
        let as_bits = (v * 2f64.powi(100)) as u128; // dyadic, exact
        let digest = Digest128::from_u128(as_bits << 28);
        let expect = digest.rho_sigma(0, p.cap(), p.r());
        let got = encode_min(p, v);
        assert_eq!(got, (expect.0, expect.1 as u32), "v = {v:e}, q={q}, r={r}");
    }

    #[test]
    fn agrees_with_rho_sigma_across_scales() {
        for &(q, r) in &[(4u32, 4u32), (6, 10), (3, 8)] {
            for exp in 1..40 {
                // v = 2^-exp · (1 + j/16) for a few j: exercises every
                // counter class including the cap.
                for j in [0u32, 3, 9, 15] {
                    let v = 2f64.powi(-exp) * (1.0 + f64::from(j) / 16.0);
                    if v < 1.0 {
                        check_against_rho_sigma(v, q, r);
                    }
                }
            }
        }
    }

    #[test]
    fn capped_region_fixed_window() {
        // q=3 → cap=7: v below 2^-6 saturates; mantissa = bits at
        // positions 7..7+r−1.
        let p = params(3, 4);
        // v = 2^-8 = 0.00000001₂ → positions: leading one at 8 ≥ cap.
        // Window bits 7..10 of v: v·2^(6+4) = 2^2 = 4 → mantissa 4.
        let (c, m) = encode_min(p, 2f64.powi(-8));
        assert_eq!(c, 7);
        assert_eq!(m, 4);
        check_against_rho_sigma(2f64.powi(-8), 3, 4);
    }

    #[test]
    fn boundary_between_capped_and_uncapped() {
        let p = params(3, 4); // cap = 7
                              // Leading one at exactly cap−1 = 6 → uncapped.
        let (c, _) = encode_min(p, 2f64.powi(-6));
        assert_eq!(c, 6);
        // Leading one at cap = 7 → capped, and the window sees that bit.
        let (c, m) = encode_min(p, 2f64.powi(-7));
        assert_eq!(c, 7);
        assert_eq!(m, 0b1000);
    }

    #[test]
    fn astronomically_small_minima_saturate() {
        let p = params(6, 10); // cap = 63
        let (c, m) = encode_min(p, 1e-300);
        assert_eq!(c, 63);
        assert_eq!(m, 0, "bits far below the window are zero");
        // Headline scale: v ~ 2^-48 (n = 10^19, p = 15).
        let v = 3.2e-15;
        let (c, _) = encode_min(p, v);
        assert_eq!(c, 49, "2^-49 ≤ 3.2e-15 < 2^-48");
    }

    #[test]
    fn register_distribution_matches_lemma4_masses() {
        // Encode many sampled minima of k uniforms; the empirical
        // (counter, mantissa) frequencies must match the exact interval
        // masses P((i,j)) = (1−s₁)^k − (1−s₂)^k of Lemma 4. (Note the
        // mantissa is *not* uniform — the min's density decays within each
        // octave — so this is the correct reference, not a flat law.)
        use hmh_math::logspace::pow1m_diff;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let p = HmhParams::new(0, 6, 3).unwrap();
        let k = 1e6;
        let mut rng = StdRng::seed_from_u64(8);
        let mut counts = std::collections::HashMap::new();
        let trials = 40_000;
        for _ in 0..trials {
            let v = hmh_math::dist::min_of_k_uniforms(k, &mut rng);
            *counts.entry(encode_min(p, v)).or_insert(0u32) += 1;
        }
        let mass = |i: u32, j: u32| -> f64 {
            let r = p.r() as i32;
            let (s1, s2) = if i < p.cap() {
                let base = p.mantissa_values() as f64;
                let den = 2f64.powi(r + i as i32);
                ((base + f64::from(j)) / den, (base + f64::from(j) + 1.0) / den)
            } else {
                let den = 2f64.powi(r + p.cap() as i32 - 1);
                (f64::from(j) / den, (f64::from(j) + 1.0) / den)
            };
            pow1m_diff(s1, s2, k)
        };
        let mut checked = 0;
        for i in 1..=p.cap() {
            for j in 0..p.mantissa_values() as u32 {
                let expect = mass(i, j) * trials as f64;
                if expect > 100.0 {
                    let got = f64::from(counts.get(&(i, j)).copied().unwrap_or(0));
                    assert!(
                        (got - expect).abs() < 5.0 * expect.sqrt() + 3.0,
                        "register ({i},{j}): {got} vs {expect}"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 10, "test must exercise several registers: {checked}");
    }

    #[test]
    #[should_panic(expected = "out of (0, 1)")]
    fn rejects_out_of_range() {
        encode_min(HmhParams::figure6(), 1.0);
    }
}
