//! Exact expected collisions: Lemma 4 / Algorithm 5.
//!
//! For disjoint sets of sizes `n` and `m`, a register value `(i, j)`
//! corresponds to the event that the bucket's minimum landed in the dyadic
//! interval `[s₁, s₂)` with
//!
//! * `s₁ = (2^r + j)/2^{r+i}`, `s₂ = (2^r + j + 1)/2^{r+i}` for `i < cap`,
//! * `s₁ = j/2^{r+i−1}`,     `s₂ = (j + 1)/2^{r+i−1}`     for `i = cap`,
//!
//! and with `2^p` buckets the boundaries scale by `2^{-p}` (Algorithm 5's
//! `b = s/2^p`). The expected number of colliding buckets is
//!
//! `EC = 2^p · Σᵢ Σⱼ [(1−b₁)ⁿ − (1−b₂)ⁿ]·[(1−b₁)ᵐ − (1−b₂)ᵐ]`.
//!
//! Two implementations:
//!
//! * [`expected_collisions`] — `f64` in log space via
//!   [`hmh_math::logspace::pow1m_diff`]; fast (`O(cap·2^r)` kernel calls)
//!   and accurate to ~1 ulp per term across the entire `(n, m)` range. This
//!   is the workhorse.
//! * [`expected_collisions_bigfloat`] — Algorithm 5 evaluated verbatim in
//!   arbitrary precision, "BigInts" as the paper prescribes. Slow; exists
//!   to certify the log-space version (see tests) and as the reference for
//!   EXPERIMENTS.md.

use crate::params::HmhParams;
use hmh_math::logspace::pow1m_diff;
use hmh_math::{BigFloat, KahanSum};

/// Interval boundaries `(s₁, s₂)` of register `(i, j)` *before* the `2^p`
/// bucket rescaling, as exact dyadics: returns `(numer₁, numer₂, log2_den)`
/// with `sₖ = numerₖ / 2^{log2_den}`.
fn interval(params: HmhParams, i: u32, j: u64) -> (u64, u64, u32) {
    let r = params.r();
    let cap = params.cap();
    debug_assert!((1..=cap).contains(&i));
    if i < cap {
        let base = params.mantissa_values();
        (base + j, base + j + 1, r + i)
    } else {
        (j, j + 1, r + cap - 1)
    }
}

/// Expected number of colliding buckets between sketches of two disjoint
/// sets of sizes `n` and `m` (Algorithm 5, log-space `f64`).
///
/// `n` and `m` may be astronomically large (they are probabilities'
/// exponents, not loop bounds); the computation is `O(cap · 2^r)`.
pub fn expected_collisions(params: HmhParams, n: f64, m: f64) -> f64 {
    debug_assert!(n >= 0.0 && m >= 0.0);
    if n == 0.0 || m == 0.0 {
        return 0.0;
    }
    let p_scale = params.p();
    let mut total = KahanSum::new();
    for i in 1..=params.cap() {
        for j in 0..params.mantissa_values() {
            let (n1, n2, log_den) = interval(params, i, j);
            let den = 2f64.powi((log_den + p_scale) as i32);
            let b1 = n1 as f64 / den;
            let b2 = (n2 as f64 / den).min(1.0);
            total.add(pow1m_diff(b1, b2, n) * pow1m_diff(b1, b2, m));
        }
    }
    total.total() * 2f64.powi(p_scale as i32)
}

/// Single-bucket collision probability `Eγ(n, m)` (Proposition 3 /
/// Lemma 4): [`expected_collisions`] of the `p = 0` sketch.
pub fn single_bucket_collision_probability(q: u32, r: u32, n: f64, m: f64) -> f64 {
    let params = HmhParams::new(0, q, r)
        .expect("invariant: documented precondition — caller's q, r satisfy HmhParams bounds");
    expected_collisions(params, n, m)
}

/// Expected collisions of the LogLog counters alone (`r = 0` in the
/// pseudocode — registers match when the minima merely agree in order of
/// magnitude, Figure 2). Used by Algorithm 6's small-cardinality branch.
pub fn expected_hll_collisions(p: u32, cap: u32, n: f64, m: f64) -> f64 {
    if n == 0.0 || m == 0.0 {
        return 0.0;
    }
    let mut total = KahanSum::new();
    for i in 1..=cap {
        // r = 0 collapses the inner sum to j = 0: the full LogLog box
        // [2^{-i}, 2^{-i+1}) for i < cap, [0, 2^{-cap+1}) at the cap.
        let (b1, b2) = if i < cap {
            (2f64.powi(-((i + p) as i32)), 2f64.powi(-((i + p) as i32 - 1)))
        } else {
            (0.0, 2f64.powi(-((cap + p) as i32 - 1)))
        };
        total.add(pow1m_diff(b1, b2, n) * pow1m_diff(b1, b2, m));
    }
    total.total() * 2f64.powi(p as i32)
}

/// Algorithm 5 evaluated verbatim in arbitrary-precision arithmetic with
/// `prec` mantissa bits (192 is ample; each term uses two `powi` chains of
/// ≤ 2·64 roundings).
///
/// `n`, `m` are exact integer cardinalities here, as in the pseudocode.
pub fn expected_collisions_bigfloat(params: HmhParams, n: u128, m: u128, prec: u64) -> f64 {
    if n == 0 || m == 0 {
        return 0.0;
    }
    let one = BigFloat::one();
    let mut total = BigFloat::zero();
    for i in 1..=params.cap() {
        for j in 0..params.mantissa_values() {
            let (n1, n2, log_den) = interval(params, i, j);
            let log_den = i64::from(log_den + params.p());
            let b1 = BigFloat::from_dyadic(n1, log_den);
            let b2 = BigFloat::from_dyadic(n2, log_den);
            // Pr_x = (1−b1)^n − (1−b2)^n  (paper writes the operands in the
            // other order with a sign slip; probabilities are positive).
            let one_b1 = one.sub(&b1);
            let one_b2 = one.sub(&b2);
            let pr_x = one_b1.powi_prec(n, prec).sub(&one_b2.powi_prec(n, prec));
            let pr_y = one_b1.powi_prec(m, prec).sub(&one_b2.powi_prec(m, prec));
            total = total.add(&pr_x.mul(&pr_y)).round_to(prec * 2);
        }
    }
    total.to_f64() * 2f64.powi(params.p() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cardinalities_have_zero_collisions() {
        let p = HmhParams::figure6();
        assert_eq!(expected_collisions(p, 0.0, 100.0), 0.0);
        assert_eq!(expected_collisions(p, 100.0, 0.0), 0.0);
        assert_eq!(expected_collisions_bigfloat(p, 0, 7, 128), 0.0);
    }

    #[test]
    fn logspace_matches_bigfloat_reference() {
        // Small r so the big-float loop stays fast; spans the regimes the
        // paper flags as numerically dangerous (large n).
        let params = HmhParams::new(4, 4, 4).unwrap();
        for &(n, m) in &[(10u128, 10u128), (1000, 500), (1 << 20, 1 << 18), (1 << 40, 1 << 40)] {
            let fast = expected_collisions(params, n as f64, m as f64);
            let reference = expected_collisions_bigfloat(params, n, m, 192);
            assert!(
                ((fast - reference) / reference.max(1e-300)).abs() < 1e-10,
                "n={n} m={m}: fast {fast} vs reference {reference}"
            );
        }
    }

    #[test]
    fn single_bucket_probability_is_a_probability() {
        for &(n, m) in &[(1.0, 1.0), (100.0, 100.0), (1e6, 1e4), (1e18, 1e18)] {
            let g = single_bucket_collision_probability(4, 6, n, m);
            assert!((0.0..=1.0).contains(&g), "γ({n},{m}) = {g}");
        }
    }

    #[test]
    fn collisions_grow_with_r_shrinking() {
        // Fewer mantissa bits → more collisions (the 1/2^r floor).
        let n = 1e6;
        let ec_r4 = expected_collisions(HmhParams::new(8, 6, 4).unwrap(), n, n);
        let ec_r8 = expected_collisions(HmhParams::new(8, 6, 8).unwrap(), n, n);
        let ec_r12 = expected_collisions(HmhParams::new(8, 6, 12).unwrap(), n, n);
        assert!(ec_r4 > ec_r8 * 8.0, "r=4: {ec_r4}, r=8: {ec_r8}");
        assert!(ec_r8 > ec_r12 * 8.0, "r=8: {ec_r8}, r=12: {ec_r12}");
        // Asymptotically ~16x per 4 bits of r.
        assert!(ec_r4 / ec_r8 < 32.0);
    }

    #[test]
    fn collisions_roughly_constant_across_cardinality_plateau() {
        // "The collision probabilities remain roughly constant as
        // cardinalities increase, at least until we reach the precision
        // limit of the LogLog counters" (§2).
        let params = HmhParams::new(8, 6, 10).unwrap();
        let ec: Vec<f64> =
            [1e4, 1e6, 1e9, 1e12].iter().map(|&n| expected_collisions(params, n, n)).collect();
        for w in ec.windows(2) {
            assert!((w[1] / w[0]).abs() < 2.0 && (w[1] / w[0]) > 0.5, "plateau violated: {ec:?}");
        }
    }

    #[test]
    fn collisions_blow_up_past_the_counter_range() {
        // Past n ≈ 2^{p + cap − 1} the bottom-left box dominates and
        // collisions climb (Figure 4's "final lower left bucket").
        let params = HmhParams::new(4, 3, 4).unwrap(); // cap = 7: range 2^10
        let inside = expected_collisions(params, 1e2, 1e2);
        let outside = expected_collisions(params, 1e9, 1e9);
        assert!(outside > inside * 5.0, "inside {inside}, outside {outside}");
        // In the far regime every bucket collides.
        let saturated = expected_collisions(params, 1e15, 1e15);
        assert!((saturated - params.num_buckets() as f64).abs() < 0.5, "saturated: {saturated}");
    }

    #[test]
    fn asymmetric_cardinalities_collide_less() {
        // For n ≫ m the minima live at different scales; the paper's
        // Algorithm 6 models this with φ = 4(n/m)/(1+n/m)².
        let params = HmhParams::new(8, 6, 8).unwrap();
        let balanced = expected_collisions(params, 1e8, 1e8);
        let skewed = expected_collisions(params, 1e8, 1e4);
        assert!(skewed < balanced / 100.0, "balanced {balanced}, skewed {skewed}");
    }

    #[test]
    fn empirical_collisions_match_formula() {
        // Brute force: sketch disjoint sets, count equal non-empty buckets,
        // compare to the formula. This validates the entire register
        // pipeline end to end.
        use crate::sketch::HyperMinHash;
        use hmh_hash::RandomOracle;

        let params = HmhParams::new(6, 4, 4).unwrap(); // small r → many collisions
        let n = 3000u64;
        let trials = 60;
        let mut total = 0u64;
        for t in 0..trials {
            let oracle = RandomOracle::with_seed(1000 + t);
            let mut a = HyperMinHash::with_oracle(params, oracle);
            let mut b = HyperMinHash::with_oracle(params, oracle);
            for i in 0..n {
                a.insert(&i);
                b.insert(&(i + 10_000_000));
            }
            for bucket in 0..params.num_buckets() {
                let (wa, wb) = (a.word(bucket), b.word(bucket));
                if wa != 0 && wa == wb {
                    total += 1;
                }
            }
        }
        let empirical = total as f64 / trials as f64;
        let formula = expected_collisions(params, n as f64, n as f64);
        // 60 trials of a mean-~4 count: ~3.5σ window.
        let sd = (formula / trials as f64).sqrt() * 3.5 + 0.3;
        assert!(
            (empirical - formula).abs() < sd.max(0.5),
            "empirical {empirical} vs formula {formula}"
        );
    }
}
