//! Distribution samplers for the order-statistics sketch simulator.
//!
//! The headline experiments run at cardinalities up to 10^19 — far beyond
//! anything that can be inserted item by item. The simulator instead draws
//! sketch registers directly from their distribution, which needs exactly
//! three primitives, all valid for `n` up to 2^63 and beyond (counts are
//! carried as `f64`, whose 2^53 integer resolution is astronomically finer
//! than any register-level event at those scales):
//!
//! * [`min_of_k_uniforms`] — the minimum of `k` iid uniforms, i.e. a
//!   `Beta(1, k)` draw, computed in log space with full relative precision
//!   even when the result is ~2^-60.
//! * [`binomial`] — hybrid exact-inversion / normal sampler with no `O(n)`
//!   paths.
//! * [`multinomial_pow2`] — bucket occupancies for `2^levels` equal
//!   partitions by recursive binomial halving.
//!
//! Plus general-purpose extras used by workload generators: [`normal`],
//! [`poisson`], [`exp_unit`] and [`ZipfSampler`].

use rand::Rng;

/// A standard exponential draw: `−ln(1−U)`.
#[inline]
pub fn exp_unit<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    -(-u).ln_1p()
}

/// A standard normal draw (Box–Muller; one value per call, the second is
/// discarded for simplicity — these are not hot paths).
pub fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > 0.0 {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// The minimum of `k` iid `U[0,1)` variables (`Beta(1, k)`), exact in
/// distribution and with full *relative* precision for tiny results.
///
/// Derivation: `P(min ≤ x) = 1 − (1−x)^k`, so `min = 1 − (1−U)^{1/k}`
/// `= −expm1(ln(1−U)/k)`. For `k = 10^19` the result is ~1e-19 and still
/// carries ~15 significant digits, which is what lets the simulator encode
/// LogLog counters and mantissa bits faithfully.
///
/// `k = 0` returns 1.0 (the empty minimum: no element, register stays
/// empty — callers treat occupancy separately, but 1.0 is a safe sentinel
/// since real minima are < 1).
#[inline]
pub fn min_of_k_uniforms<R: Rng + ?Sized>(k: f64, rng: &mut R) -> f64 {
    debug_assert!(k >= 0.0);
    if k == 0.0 {
        return 1.0;
    }
    let u: f64 = rng.gen();
    -((-u).ln_1p() / k).exp_m1()
}

/// A Poisson draw. Exact (inversion) for small means, normal approximation
/// for large ones.
pub fn poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    debug_assert!(mean >= 0.0);
    if mean == 0.0 {
        return 0.0;
    }
    if mean < 30.0 {
        // Inversion by pmf recurrence.
        let mut pmf = (-mean).exp();
        let mut cdf = pmf;
        let mut k = 0.0f64;
        let u: f64 = rng.gen();
        let cap = mean + 20.0 * mean.sqrt() + 50.0;
        while u > cdf && k < cap {
            k += 1.0;
            pmf *= mean / k;
            cdf += pmf;
        }
        k
    } else {
        (mean + mean.sqrt() * normal(rng)).round().max(0.0)
    }
}

/// A `Binomial(n, p)` draw with `n` carried as `f64` (valid far beyond
/// 2^53: at that scale the distribution is a narrow normal whose absolute
/// resolution is irrelevant next to its ~10^9 standard deviation).
///
/// Strategy: flip to the smaller of `p`/`1−p`; if the variance is at least
/// [`BINOMIAL_NORMAL_VAR`], use the normal approximation (Berry–Esseen
/// error < 1% of a standard deviation there); otherwise the mean is < 50
/// and exact CDF inversion by pmf recurrence runs in O(mean) steps. No
/// `O(n)` path exists.
pub fn binomial<R: Rng + ?Sized>(n: f64, p: f64, rng: &mut R) -> f64 {
    debug_assert!(n >= 0.0, "negative n");
    debug_assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
    if n == 0.0 || p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - binomial(n, 1.0 - p, rng);
    }
    let mean = n * p;
    let var = mean * (1.0 - p);
    if var >= BINOMIAL_NORMAL_VAR {
        return (mean + var.sqrt() * normal(rng)).round().clamp(0.0, n);
    }
    // var < threshold and p ≤ 1/2 → mean ≤ 2·var < 2·threshold: inversion
    // terminates quickly. pmf(0) = (1-p)^n via log space (n may be 1e19).
    let mut pmf = crate::logspace::pow1m(p, n);
    if pmf == 0.0 {
        // Pathological corner (huge n with mid-size p but tiny var cannot
        // actually happen; defensive fallback).
        return (mean + var.sqrt() * normal(rng)).round().clamp(0.0, n);
    }
    let odds = p / (1.0 - p);
    let mut cdf = pmf;
    let mut k = 0.0f64;
    let u: f64 = rng.gen();
    let cap = mean + 20.0 * var.sqrt() + 50.0;
    while u > cdf && k < cap {
        pmf *= (n - k) / (k + 1.0) * odds;
        k += 1.0;
        cdf += pmf;
    }
    k.min(n)
}

/// Variance threshold above which [`binomial`] switches to the normal
/// approximation.
pub const BINOMIAL_NORMAL_VAR: f64 = 25.0;

/// Occupancies of `2^levels` equally-likely buckets for `n` balls, by
/// recursive `Binomial(·, 1/2)` halving. Returns exactly `2^levels` counts
/// summing to `n`.
pub fn multinomial_pow2<R: Rng + ?Sized>(n: f64, levels: u32, rng: &mut R) -> Vec<f64> {
    assert!(levels < 32, "2^levels counts must be allocatable (levels = {levels})");
    let mut counts = vec![0.0f64; 1 << levels];
    counts[0] = n;
    let mut width = 1usize;
    for _ in 0..levels {
        // Split each occupied block in half, back to front so we can write
        // in place.
        for i in (0..width).rev() {
            let total = counts[i];
            let left = binomial(total, 0.5, rng);
            counts[2 * i] = left;
            counts[2 * i + 1] = total - left;
        }
        width *= 2;
    }
    counts
}

/// Bounded Zipf sampler over `{1, …, n}` with exponent `s`, by inverse-CDF
/// binary search on a precomputed table.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Build the table for `n` items with exponent `s` (`s = 1.0` is the
    /// classic Zipf law).
    ///
    /// # Panics
    /// If `n == 0` or `s < 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one item");
        assert!(s >= 0.0, "negative exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = crate::KahanSum::new();
        for k in 1..=n {
            acc.add((k as f64).powf(-s));
            cdf.push(acc.total());
        }
        let total = acc.total();
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    /// Number of distinct items.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Draw one rank in `1..=n` (rank 1 is the most frequent).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self.cdf.binary_search_by(|c| {
            c.partial_cmp(&u).expect("invariant: CDF entries are finite, never NaN")
        }) {
            Ok(i) | Err(i) => (i + 1).min(self.cdf.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xfeed_beef)
    }

    #[test]
    fn exp_unit_mean_is_one() {
        let mut r = rng();
        let mean: f64 = (0..100_000).map(|_| exp_unit(&mut r)).sum::<f64>() / 100_000.0;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let mut w = crate::Welford::new();
        for _ in 0..100_000 {
            w.add(normal(&mut r));
        }
        assert!(w.mean().abs() < 0.02, "mean {}", w.mean());
        assert!((w.variance() - 1.0).abs() < 0.03, "var {}", w.variance());
    }

    #[test]
    fn min_of_k_mean() {
        // E[min of k uniforms] = 1/(k+1).
        let mut r = rng();
        for &k in &[1.0, 10.0, 1000.0] {
            let trials = 50_000;
            let mean: f64 =
                (0..trials).map(|_| min_of_k_uniforms(k, &mut r)).sum::<f64>() / trials as f64;
            let expect = 1.0 / (k + 1.0);
            assert!(((mean - expect) / expect).abs() < 0.05, "k={k}: {mean} vs {expect}");
        }
    }

    #[test]
    fn min_of_k_precision_at_extreme_k() {
        // k = 1e19: the result must be ~1e-19-scale, never rounded to 0,
        // and carry fine-grained mantissa bits.
        let mut r = rng();
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let v = min_of_k_uniforms(1e19, &mut r);
            assert!(v > 0.0 && v < 1e-15, "v = {v}");
            distinct.insert(v.to_bits());
        }
        assert!(distinct.len() > 990, "values collapsed: {}", distinct.len());
    }

    #[test]
    fn min_of_zero_elements_is_one() {
        assert_eq!(min_of_k_uniforms(0.0, &mut rng()), 1.0);
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(binomial(0.0, 0.5, &mut r), 0.0);
        assert_eq!(binomial(10.0, 0.0, &mut r), 0.0);
        assert_eq!(binomial(10.0, 1.0, &mut r), 10.0);
        let v = binomial(1.0, 0.5, &mut r);
        assert!(v == 0.0 || v == 1.0);
    }

    #[test]
    fn binomial_moments_small_regime() {
        // Exact-inversion regime: n=40, p=0.2 → var = 6.4 < 25.
        let mut r = rng();
        let mut w = crate::Welford::new();
        for _ in 0..100_000 {
            w.add(binomial(40.0, 0.2, &mut r));
        }
        assert!((w.mean() - 8.0).abs() < 0.05, "mean {}", w.mean());
        assert!((w.variance() - 6.4).abs() < 0.15, "var {}", w.variance());
    }

    #[test]
    fn binomial_moments_normal_regime() {
        let mut r = rng();
        let (n, p) = (10_000.0, 0.3);
        let mut w = crate::Welford::new();
        for _ in 0..20_000 {
            w.add(binomial(n, p, &mut r));
        }
        assert!(((w.mean() - 3000.0) / 3000.0).abs() < 0.01, "mean {}", w.mean());
        assert!(((w.variance() - 2100.0) / 2100.0).abs() < 0.1, "var {}", w.variance());
    }

    #[test]
    fn binomial_huge_n() {
        let mut r = rng();
        let n = 1e19;
        let p = 1e-18; // mean 10, tiny var → exact inversion path
        let mut w = crate::Welford::new();
        for _ in 0..50_000 {
            w.add(binomial(n, p, &mut r));
        }
        assert!((w.mean() - 10.0).abs() < 0.1, "mean {}", w.mean());
        // Normal path with huge n.
        let v = binomial(1e19, 0.5, &mut r);
        assert!((v / 5e18 - 1.0).abs() < 1e-6, "v = {v}");
    }

    #[test]
    fn binomial_p_above_half_flips() {
        let mut r = rng();
        let mut w = crate::Welford::new();
        for _ in 0..50_000 {
            w.add(binomial(20.0, 0.9, &mut r));
        }
        assert!((w.mean() - 18.0).abs() < 0.05, "mean {}", w.mean());
    }

    #[test]
    fn multinomial_sums_and_is_uniform() {
        let mut r = rng();
        let n = 1_000_000.0;
        let counts = multinomial_pow2(n, 6, &mut r);
        assert_eq!(counts.len(), 64);
        let total: f64 = counts.iter().sum();
        assert_eq!(total, n, "counts must sum exactly");
        let expect = n / 64.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(((c - expect) / expect).abs() < 0.05, "bucket {i}: {c} vs {expect}");
        }
    }

    #[test]
    fn multinomial_zero_levels() {
        let counts = multinomial_pow2(42.0, 0, &mut rng());
        assert_eq!(counts, vec![42.0]);
    }

    #[test]
    fn multinomial_huge_n() {
        let mut r = rng();
        let counts = multinomial_pow2(1e19, 10, &mut r);
        let total: f64 = counts.iter().sum();
        // Exact up to f64 addition of ~equal magnitudes.
        assert!((total / 1e19 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut r = rng();
        let mut counts = vec![0u32; 1001];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        // Harmonic(1000) ≈ 7.485; P(rank 1) ≈ 0.1336.
        let p1 = f64::from(counts[1]) / 100_000.0;
        assert!((p1 - 0.1336).abs() < 0.01, "p1 = {p1}");
    }

    #[test]
    fn zipf_s_zero_is_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut r = rng();
        let mut counts = [0u32; 11];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for (k, &count) in counts.iter().enumerate().skip(1) {
            let p = f64::from(count) / 100_000.0;
            assert!((p - 0.1).abs() < 0.01, "rank {k}: {p}");
        }
    }
}
