//! Cancellation-free probability kernels.
//!
//! Algorithm 5 sums terms of the form
//! `[(1-b₁)^n − (1-b₂)^n]·[(1-b₁)^m − (1-b₂)^m]` where `b` can be as small
//! as `2^-(p+2^q+r)` (≈ 2^-89 for the paper's practical parameters) and `n`
//! as large as 10^19. Evaluating these literally in `f64` underflows the
//! powers to 1 and cancels the differences to 0 — the "floating point
//! errors" the paper works around with BigInts. Working in log space with
//! `ln_1p`/`exp_m1` keeps full relative precision instead:
//!
//! * `(1-b)^n = exp(n·ln(1-b))` — [`pow1m`].
//! * `(1-b₁)^n − (1-b₂)^n = (1-b₁)^n · (1 − ((1-b₂)/(1-b₁))^n)`, where the
//!   ratio's log is a *single* `ln_1p` of the exactly-representable
//!   quantity `(b₂-b₁)/(1-b₁)` — [`pow1m_diff`]. No subtraction of
//!   nearly-equal values ever happens.
//!
//! The big-float evaluation of Algorithm 5 in `hmh-core` cross-checks these
//! kernels to ~1e-14 relative error (see that crate's tests).

/// `(1 - b)^n` for `b ∈ [0, 1]`, `n ≥ 0`, without underflow of `1 - b`.
///
/// Remains fully accurate for `b` down to the smallest positive `f64` and
/// `n` up to ~1e300 (the result underflows to 0 long before the kernel
/// loses precision).
#[inline]
pub fn pow1m(b: f64, n: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&b), "b out of range: {b}");
    debug_assert!(n >= 0.0, "negative exponent: {n}");
    if b == 0.0 || n == 0.0 {
        return 1.0;
    }
    if b == 1.0 {
        return 0.0;
    }
    (n * (-b).ln_1p()).exp()
}

/// `(1 - b₁)^n − (1 - b₂)^n` for `0 ≤ b₁ ≤ b₂ ≤ 1`, cancellation-free.
///
/// This is the probability that the minimum of `n` uniforms lands in
/// `[b₁, b₂)` — the building block of Lemma 4. The naive difference loses
/// all precision once `n·b ≪ 1` (both powers round to 1); this kernel keeps
/// ~1 ulp relative accuracy across the entire range.
#[inline]
pub fn pow1m_diff(b1: f64, b2: f64, n: f64) -> f64 {
    debug_assert!(b1 <= b2, "b1 {b1} > b2 {b2}");
    if b1 == b2 || n == 0.0 {
        return 0.0;
    }
    if b2 >= 1.0 {
        return pow1m(b1, n);
    }
    // ln((1-b2)/(1-b1)) = ln(1 - (b2-b1)/(1-b1)), computed with one ln_1p.
    let ratio = (b2 - b1) / (1.0 - b1);
    let log_ratio = (-ratio).ln_1p();
    // (1-b1)^n · (1 - exp(n·log_ratio)); the second factor via exp_m1.
    pow1m(b1, n) * (-(n * log_ratio).exp_m1())
}

/// `n·ln(1 - b)` — the log of [`pow1m`], for when the power itself would
/// underflow (e.g. tail probabilities at astronomical cardinalities).
#[inline]
pub fn ln_pow1m(b: f64, n: f64) -> f64 {
    debug_assert!((0.0..1.0).contains(&b));
    n * (-b).ln_1p()
}

/// `1 - (1 - b)^n`, the occupancy probability, accurate when `n·b ≪ 1`.
#[inline]
pub fn occupancy(b: f64, n: f64) -> f64 {
    if b >= 1.0 {
        return if n == 0.0 { 0.0 } else { 1.0 };
    }
    -(n * (-b).ln_1p()).exp_m1()
}

/// `log₂(x)` as an exact integer when `x` is a power of two, else `None`.
#[inline]
pub fn exact_log2(x: u64) -> Option<u32> {
    (x.is_power_of_two()).then(|| x.trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow1m_matches_powi_for_moderate_values() {
        for &b in &[0.5, 0.1, 0.01, 1e-6] {
            for &n in &[1.0, 2.0, 10.0, 100.0] {
                let exact = (1.0f64 - b).powi(n as i32);
                let got = pow1m(b, n);
                assert!(
                    (got - exact).abs() <= 1e-14 * exact.max(1e-300),
                    "b={b} n={n}: {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn pow1m_edge_cases() {
        assert_eq!(pow1m(0.0, 1e19), 1.0);
        assert_eq!(pow1m(1.0, 5.0), 0.0);
        assert_eq!(pow1m(0.3, 0.0), 1.0);
        // Tiny b with astronomical n: (1-2^-90)^(2^80) ≈ exp(-2^-10).
        let v = pow1m(2f64.powi(-90), 2f64.powi(80));
        let expect = (-(2f64.powi(-10))).exp();
        assert!((v - expect).abs() < 1e-12);
    }

    #[test]
    fn pow1m_diff_no_cancellation_in_the_tiny_regime() {
        // n·b ≪ 1: difference ≈ n·(b2-b1); the naive f64 subtraction
        // returns exactly 0 here.
        let b1 = 2f64.powi(-80);
        let b2 = 2f64.powi(-80) + 2f64.powi(-90);
        let n = 2f64.powi(10);
        let naive = pow1m(b1, n) - pow1m(b2, n);
        assert_eq!(naive, 0.0, "sanity: naive evaluation cancels to zero");
        let got = pow1m_diff(b1, b2, n);
        let expect = n * (b2 - b1); // first-order, error O((n·b)²)
        assert!(((got - expect) / expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn pow1m_diff_matches_naive_when_naive_is_fine() {
        let (b1, b2, n) = (0.2, 0.5, 7.0);
        let naive = (1.0f64 - b1).powi(7) - (1.0f64 - b2).powi(7);
        let got = pow1m_diff(b1, b2, n);
        assert!((got - naive).abs() < 1e-15);
    }

    #[test]
    fn pow1m_diff_zero_width() {
        assert_eq!(pow1m_diff(0.25, 0.25, 1e6), 0.0);
    }

    #[test]
    fn pow1m_diff_upper_saturation() {
        // b2 = 1 means the interval reaches the top: result = (1-b1)^n.
        let got = pow1m_diff(0.5, 1.0, 3.0);
        assert!((got - 0.125).abs() < 1e-15, "{got}");
    }

    #[test]
    fn interval_masses_sum_to_one() {
        // Partition [0,1] into 1000 intervals; masses of the min of n
        // uniforms must sum to 1.
        for &n in &[1.0, 5.0, 1e3, 1e12] {
            let mut total = 0.0;
            for i in 0..1000 {
                let b1 = i as f64 / 1000.0;
                let b2 = (i + 1) as f64 / 1000.0;
                total += pow1m_diff(b1, b2, n);
            }
            assert!((total - 1.0).abs() < 1e-12, "n={n}: {total}");
        }
    }

    #[test]
    fn occupancy_small_and_large() {
        // n·b small: ≈ n·b.
        let got = occupancy(1e-12, 10.0);
        assert!(((got - 1e-11) / 1e-11).abs() < 1e-9);
        // n·b huge: ≈ 1.
        assert!((occupancy(0.1, 1e6) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn exact_log2_works() {
        assert_eq!(exact_log2(1), Some(0));
        assert_eq!(exact_log2(1024), Some(10));
        assert_eq!(exact_log2(3), None);
        assert_eq!(exact_log2(0), None);
    }
}
