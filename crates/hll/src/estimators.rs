//! Cardinality estimators over HyperLogLog register histograms.
//!
//! Three generations, all operating on the histogram `hist[k]` = number of
//! registers with value `k`, `k ∈ 0..=cap` (`cap` = saturation value of the
//! counter — the paper's `2^q` analog, `2^q − 1` for packed registers):
//!
//! * [`ffgm`] — the original HyperLogLog estimator of Flajolet, Fusy,
//!   Gandouet & Meunier (2007) \[13\]: bias-corrected harmonic mean with a
//!   linear-counting small-range regime.
//! * [`ertl_improved`] — Ertl's improved raw estimator \[8\]: uses the full
//!   histogram including the 0 and saturated registers via the `σ`/`τ`
//!   corrections; no empirical bias tables, no range switching.
//! * [`ertl_mle`] — Ertl's Poisson maximum-likelihood estimator \[9\]:
//!   maximizes the exact register likelihood; the strongest baseline the
//!   paper cites for HLL-only intersection work.
//!
//! `hmh-core`'s Algorithm 3 feeds its LogLog counters through one of these
//! (selectable), exactly as the pseudocode's
//! `HyperLogLogCardinalityEstimator` placeholder intends.

use hmh_math::logspace::pow1m;
use hmh_math::optimize::golden_section_max;
use hmh_math::KahanSum;

/// `α_m` bias constant of the FFGM07 raw estimator.
pub fn alpha_m(m: usize) -> f64 {
    match m {
        0..=16 => 0.673,
        17..=32 => 0.697,
        33..=64 => 0.709,
        _ => 0.7213 / (1.0 + 1.079 / m as f64),
    }
}

/// `α_∞ = 1/(2 ln 2)`, the asymptotic constant used by Ertl's estimators.
pub const ALPHA_INF: f64 = 0.721_347_520_444_481_7;

/// The FFGM07 raw estimate: `α_m · m² / Σ 2^{-M_j}`.
pub fn ffgm_raw(hist: &[u64]) -> f64 {
    let m: u64 = hist.iter().sum();
    let mf = m as f64;
    let mut denom = KahanSum::new();
    for (k, &c) in hist.iter().enumerate() {
        if c > 0 {
            denom.add(c as f64 * 2f64.powi(-(k as i32)));
        }
    }
    alpha_m(m as usize) * mf * mf / denom.total()
}

/// The full FFGM07 estimator: raw estimate with the linear-counting
/// small-range regime (`E ≤ 5m/2` and empty registers present →
/// `m·ln(m/V)`).
///
/// The classic large-range correction (for 32-bit hash exhaustion) does not
/// apply here: register saturation is handled by the caller's choice of
/// `cap` and, in HyperMinHash, by Algorithm 3's KMV tail.
pub fn ffgm(hist: &[u64]) -> f64 {
    let m: u64 = hist.iter().sum();
    let mf = m as f64;
    let raw = ffgm_raw(hist);
    let zeros = hist[0];
    if raw <= 2.5 * mf && zeros > 0 {
        mf * (mf / zeros as f64).ln()
    } else {
        raw
    }
}

/// Ertl's `σ` helper: `σ(x) = x + Σ_{k≥1} x^{2^k}·2^{k-1}` (Ertl 2017,
/// used for the weight of zero-valued registers).
pub fn sigma(mut x: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&x));
    if x == 1.0 {
        return f64::INFINITY;
    }
    let mut y = 1.0;
    let mut z = x;
    loop {
        x = x * x;
        let z_prev = z;
        z += x * y;
        y += y;
        if z == z_prev || !z.is_finite() {
            return z;
        }
    }
}

/// Ertl's `τ` helper: `τ(x) = (1/3)(1 − x − Σ_{k≥1}(1 − x^{2^{-k}})²·2^{-k})`
/// (weight of saturated registers).
pub fn tau(mut x: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&x));
    if x == 0.0 || x == 1.0 {
        return 0.0;
    }
    let mut y = 1.0;
    let mut z = 1.0 - x;
    loop {
        x = x.sqrt();
        let z_prev = z;
        y *= 0.5;
        let omx = 1.0 - x;
        z -= omx * omx * y;
        if z == z_prev {
            return z / 3.0;
        }
    }
}

/// Ertl's improved raw estimator (Ertl 2017, Algorithm 8): exact asymptotic
/// constant `α_∞`, with `σ`/`τ` handling of empty and saturated registers.
/// `hist` must have `cap + 1` entries where `cap` is the register
/// saturation value.
pub fn ertl_improved(hist: &[u64]) -> f64 {
    let cap = hist.len() - 1;
    let m: u64 = hist.iter().sum();
    let mf = m as f64;
    let mut z = mf * tau(1.0 - hist[cap] as f64 / mf);
    for k in (1..cap).rev() {
        z = 0.5 * (z + hist[k] as f64);
    }
    z += mf * sigma(hist[0] as f64 / mf);
    ALPHA_INF * mf * mf / z
}

/// Log-likelihood of the register histogram under the Poisson model with
/// per-bucket rate `lambda` (`= n/m`), used by [`ertl_mle`].
///
/// Register distribution for saturation value `cap`:
/// `P(M ≤ k) = exp(-λ·2^{-k})` for `0 ≤ k < cap`, `P(M ≤ cap) = 1`, so
/// `P(M = k) = exp(-λ·2^{-k}) · (1 − exp(-λ·2^{-k}))` for `1 ≤ k < cap`
/// (note `-λ2^{-(k-1)} = -λ2^{-k} − λ2^{-k}`), `P(M = 0) = exp(-λ)` and
/// `P(M = cap) = 1 − exp(-λ·2^{-(cap-1)})`.
pub fn poisson_log_likelihood(hist: &[u64], lambda: f64) -> f64 {
    let cap = hist.len() - 1;
    let mut ll = KahanSum::new();
    if hist[0] > 0 {
        ll.add(hist[0] as f64 * -lambda);
    }
    for (k, &c) in hist.iter().enumerate().take(cap).skip(1) {
        if c > 0 {
            let e = -lambda * 2f64.powi(-(k as i32));
            // ln P = e + ln(1 − exp(e)) = e + ln(−expm1(e))
            let p_tail = -e.exp_m1();
            ll.add(c as f64 * (e + p_tail.max(f64::MIN_POSITIVE).ln()));
        }
    }
    if hist[cap] > 0 {
        let e = -lambda * 2f64.powi(-(cap as i32 - 1));
        let p = -e.exp_m1();
        ll.add(hist[cap] as f64 * p.max(f64::MIN_POSITIVE).ln());
    }
    ll.total()
}

/// Ertl's Poisson maximum-likelihood estimator: maximizes
/// [`poisson_log_likelihood`] in `λ` and returns `λ̂ · m`.
///
/// Degenerate inputs (all registers empty → 0; all saturated → the
/// saturation-scale upper estimate) short-circuit.
pub fn ertl_mle(hist: &[u64]) -> f64 {
    let cap = hist.len() - 1;
    let m: u64 = hist.iter().sum();
    let mf = m as f64;
    if hist[0] == m {
        return 0.0;
    }
    if hist[cap] == m {
        // Likelihood increases without bound; report the scale at which
        // saturation is near-certain.
        return mf * 2f64.powi(cap as i32 + 2);
    }
    // Bracket around the improved estimate (robust even when that estimate
    // is off by a large factor).
    let init = ertl_improved(hist).max(1e-9) / mf;
    let lo = (init / 256.0).ln();
    let hi = (init * 256.0).ln();
    let (t, _) = golden_section_max(|t| poisson_log_likelihood(hist, t.exp()), lo, hi, 1e-10, 200);
    t.exp() * mf
}

/// Which estimator Algorithm 3 should use for its HLL head.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EstimatorKind {
    /// Original FFGM07 (raw + linear counting).
    Ffgm,
    /// Ertl's improved raw estimator (default: unbiased across ranges, no
    /// regime switching).
    #[default]
    ErtlImproved,
    /// Ertl's Poisson MLE (most accurate, slowest).
    ErtlMle,
}

/// Dispatch on [`EstimatorKind`].
pub fn estimate(hist: &[u64], kind: EstimatorKind) -> f64 {
    match kind {
        EstimatorKind::Ffgm => ffgm(hist),
        EstimatorKind::ErtlImproved => ertl_improved(hist),
        EstimatorKind::ErtlMle => ertl_mle(hist),
    }
}

/// Expected register histogram under the Poisson model — the exact
/// distribution the simulators and tests validate against.
pub fn expected_histogram(m: usize, cap: usize, n: f64) -> Vec<f64> {
    let lambda = n / m as f64;
    let mut out = vec![0.0; cap + 1];
    out[0] = (-lambda).exp() * m as f64;
    for (k, slot) in out.iter_mut().enumerate().take(cap).skip(1) {
        let e = -lambda * 2f64.powi(-(k as i32));
        *slot = e.exp() * (-e.exp_m1()) * m as f64;
    }
    let e = -lambda * 2f64.powi(-(cap as i32 - 1));
    out[cap] = -e.exp_m1() * m as f64;
    out
}

/// Probability that a single occupied-or-not register equals `k` for `n`
/// *fixed* (non-Poissonized) items over `m` buckets — used by exactness
/// tests at small `n` where Poissonization visibly differs.
pub fn exact_register_pmf(m: usize, cap: usize, n: u64, k: usize) -> f64 {
    // P(M ≤ k) = (1 − P(element in this bucket with ρ > k))^n
    //          = (1 − 2^{-p}·2^{-k})^n with 2^{-p} = 1/m, for 0 ≤ k < cap.
    let tail = |k: i32| -> f64 {
        if k < 0 {
            0.0
        } else if k as usize >= cap {
            1.0
        } else {
            pow1m(2f64.powi(-k) / m as f64, n as f64)
        }
    };
    tail(k as i32) - tail(k as i32 - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the histogram of an idealized register vector where register j
    /// of m took the exact expected value — handy smoke inputs.
    fn hist_from_registers(regs: &[u32], cap: u32) -> Vec<u64> {
        let mut h = vec![0u64; cap as usize + 1];
        for &r in regs {
            h[r as usize] += 1;
        }
        h
    }

    #[test]
    fn alpha_constants() {
        assert_eq!(alpha_m(16), 0.673);
        assert_eq!(alpha_m(32), 0.697);
        assert_eq!(alpha_m(64), 0.709);
        assert!((alpha_m(1 << 20) - ALPHA_INF).abs() < 1e-3);
    }

    #[test]
    fn sigma_and_tau_reference_points() {
        // σ(0) = 0, σ(x) ≈ x for tiny x, σ(1) = ∞.
        assert_eq!(sigma(0.0), 0.0);
        assert!((sigma(1e-12) - 1e-12).abs() < 1e-20);
        assert_eq!(sigma(1.0), f64::INFINITY);
        // τ(0) = τ(1) = 0; τ is positive inside.
        assert_eq!(tau(0.0), 0.0);
        assert_eq!(tau(1.0), 0.0);
        assert!(tau(0.5) > 0.0);
        // Ertl's series: σ(1/2) = 1/2 + 1/4·1 + 1/16·2 + 1/256·4 + … ≈ 0.890625 + tail
        let s = sigma(0.5);
        assert!((0.89..0.90).contains(&s), "σ(0.5) = {s}");
    }

    #[test]
    fn linear_counting_small_range() {
        // 1000 registers, 10 occupied at value 1 → LC: m·ln(m/V).
        let mut hist = vec![0u64; 65];
        hist[0] = 990;
        hist[1] = 10;
        let e = ffgm(&hist);
        let lc = 1000.0 * (1000.0f64 / 990.0).ln();
        assert!((e - lc).abs() < 1e-9, "{e} vs {lc}");
    }

    #[test]
    fn estimators_agree_on_poisson_expected_histogram() {
        // Feed each estimator the *expected* histogram at a known n; all
        // should recover n within a few percent.
        let m = 4096;
        let cap = 64;
        for &n in &[5_000.0, 100_000.0, 10_000_000.0] {
            let exp_hist = expected_histogram(m, cap, n);
            let hist: Vec<u64> = exp_hist.iter().map(|&x| x.round() as u64).collect();
            for kind in [EstimatorKind::Ffgm, EstimatorKind::ErtlImproved, EstimatorKind::ErtlMle] {
                let e = estimate(&hist, kind);
                assert!(((e - n) / n).abs() < 0.04, "{kind:?} at n={n}: {e}");
            }
        }
    }

    #[test]
    fn mle_handles_degenerate_histograms() {
        let mut empty = vec![0u64; 65];
        empty[0] = 1024;
        assert_eq!(ertl_mle(&empty), 0.0);

        let mut saturated = vec![0u64; 65];
        saturated[64] = 1024;
        assert!(ertl_mle(&saturated) > 1e20);
    }

    #[test]
    fn log_likelihood_peaks_near_truth() {
        let m = 1024;
        let cap = 32;
        let n = 50_000.0;
        let hist: Vec<u64> =
            expected_histogram(m, cap, n).iter().map(|&x| x.round() as u64).collect();
        let lambda = n / m as f64;
        let at_truth = poisson_log_likelihood(&hist, lambda);
        assert!(at_truth > poisson_log_likelihood(&hist, lambda * 1.3));
        assert!(at_truth > poisson_log_likelihood(&hist, lambda / 1.3));
    }

    #[test]
    fn exact_pmf_sums_to_one() {
        let (m, cap, n) = (256, 16, 1000u64);
        let total: f64 = (0..=cap).map(|k| exact_register_pmf(m, cap, n, k)).sum();
        assert!((total - 1.0).abs() < 1e-12, "{total}");
    }

    #[test]
    fn exact_pmf_matches_poisson_for_large_n() {
        let (m, cap) = (1024, 32);
        let n = 1_000_000u64;
        let expected = expected_histogram(m, cap, n as f64);
        for (k, &pois) in expected.iter().enumerate() {
            let exact = exact_register_pmf(m, cap, n, k) * m as f64;
            if pois > 1e-3 {
                assert!(((exact - pois) / pois).abs() < 0.01, "k={k}: {exact} vs {pois}");
            }
        }
    }

    #[test]
    fn saturated_register_weighting() {
        // Every register saturated: the likelihood has no interior optimum
        // and Ertl improved correctly diverges to +∞ (τ(0) = σ(0) = 0) —
        // Algorithm 3's KMV tail takes over in that regime. One register
        // below the cap restores a finite, huge estimate.
        let all = hist_from_registers(&vec![6u32; 64], 6);
        assert_eq!(ertl_improved(&all), f64::INFINITY);

        let mut regs = vec![6u32; 64];
        regs[0] = 5;
        let almost = hist_from_registers(&regs, 6);
        let e = ertl_improved(&almost);
        assert!(e.is_finite());
        assert!(e > 1000.0, "estimate {e}");
    }
}
