//! Coupled simulation of HyperMinHash sketch pairs with exact overlap
//! structure.

use crate::encode::encode_min;
use hmh_core::{HmhParams, HyperMinHash};
use hmh_math::dist::{min_of_k_uniforms, multinomial_pow2};
use rand::Rng;

/// Sizes of the three disjoint components of an overlapping pair.
///
/// Counts are `f64` so they can exceed 2^53 (see the crate docs on
/// integer-exactness above that scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSpec {
    /// `|A \ B|`.
    pub a_only: f64,
    /// `|B \ A|`.
    pub b_only: f64,
    /// `|A ∩ B|`.
    pub shared: f64,
}

impl SimSpec {
    /// Equal-sized pair with target Jaccard `t`: each set has size `n`,
    /// `shared = 2nt/(1+t)`.
    pub fn equal_sized_with_jaccard(n: f64, t: f64) -> Self {
        assert!((0.0..=1.0).contains(&t));
        let shared = 2.0 * n * t / (1.0 + t);
        Self { a_only: n - shared, b_only: n - shared, shared }
    }

    /// Exact Jaccard of the spec.
    pub fn jaccard(self) -> f64 {
        let u = self.a_only + self.b_only + self.shared;
        if u == 0.0 {
            0.0
        } else {
            self.shared / u
        }
    }

    /// `|A|`.
    pub fn n_a(self) -> f64 {
        self.a_only + self.shared
    }

    /// `|B|`.
    pub fn n_b(self) -> f64 {
        self.b_only + self.shared
    }

    /// `|A ∪ B|`.
    pub fn union(self) -> f64 {
        self.a_only + self.b_only + self.shared
    }
}

/// Per-bucket component minima for one simulated set component: bucket
/// occupancies drawn multinomially, then a `Beta(1, k)` minimum per
/// occupied bucket (`None` for empty buckets).
fn component_minima<R: Rng + ?Sized>(count: f64, p: u32, rng: &mut R) -> Vec<Option<f64>> {
    multinomial_pow2(count, p, rng)
        .into_iter()
        .map(|k| (k > 0.0).then(|| min_of_k_uniforms(k, rng)))
        .collect()
}

/// Combine two optional minima.
fn min_opt(a: Option<f64>, b: Option<f64>) -> Option<f64> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Simulate a single sketch of an `n`-element set.
pub fn simulate_hmh_single<R: Rng + ?Sized>(
    params: HmhParams,
    n: f64,
    rng: &mut R,
) -> HyperMinHash {
    let mut sketch = HyperMinHash::new(params);
    for (bucket, v) in component_minima(n, params.p(), rng).into_iter().enumerate() {
        if let Some(v) = v {
            let (c, m) = encode_min(params, v);
            sketch.observe(bucket, c, m);
        }
    }
    sketch
}

/// Simulate a coupled `(A, B)` sketch pair realizing `spec`.
///
/// The three disjoint components get independent per-bucket minima;
/// `A`'s bucket minimum is `min(A\B component, shared component)` and
/// symmetrically for `B` — the exact joint distribution of the real
/// sketches.
pub fn simulate_hmh_pair<R: Rng + ?Sized>(
    params: HmhParams,
    spec: SimSpec,
    rng: &mut R,
) -> (HyperMinHash, HyperMinHash) {
    let p = params.p();
    let a_only = component_minima(spec.a_only, p, rng);
    let b_only = component_minima(spec.b_only, p, rng);
    let shared = component_minima(spec.shared, p, rng);
    let mut a = HyperMinHash::new(params);
    let mut b = HyperMinHash::new(params);
    for bucket in 0..params.num_buckets() {
        if let Some(v) = min_opt(a_only[bucket], shared[bucket]) {
            let (c, m) = encode_min(params, v);
            a.observe(bucket, c, m);
        }
        if let Some(v) = min_opt(b_only[bucket], shared[bucket]) {
            let (c, m) = encode_min(params, v);
            b.observe(bucket, c, m);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmh_core::jaccard::{jaccard, CollisionCorrection};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn spec_arithmetic() {
        let s = SimSpec::equal_sized_with_jaccard(30_000.0, 1.0 / 3.0);
        assert!((s.shared - 15_000.0).abs() < 1.0);
        assert!((s.jaccard() - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.union() - 45_000.0).abs() < 1.0);
        assert_eq!(s.n_a(), s.n_b());
    }

    #[test]
    fn simulated_cardinality_is_calibrated_small() {
        let params = HmhParams::new(10, 6, 10).unwrap();
        let mut r = rng(1);
        for &n in &[1e3, 1e5] {
            let sketch = simulate_hmh_single(params, n, &mut r);
            let e = sketch.cardinality();
            assert!((e / n - 1.0).abs() < 0.12, "n={n}: {e}");
        }
    }

    #[test]
    fn simulated_cardinality_is_calibrated_astronomical() {
        // The regime no insertion loop can reach.
        let params = HmhParams::headline();
        let mut r = rng(2);
        for &n in &[1e12, 1e16, 1e19] {
            let sketch = simulate_hmh_single(params, n, &mut r);
            let e = sketch.cardinality();
            assert!((e / n - 1.0).abs() < 0.15, "n={n}: {e}");
        }
    }

    #[test]
    fn simulated_pair_jaccard_matches_spec() {
        let params = HmhParams::new(12, 6, 10).unwrap();
        let mut r = rng(3);
        for &t in &[0.05, 1.0 / 3.0, 0.8] {
            let spec = SimSpec::equal_sized_with_jaccard(1e6, t);
            let (a, b) = simulate_hmh_pair(params, spec, &mut r);
            let est = jaccard(&a, &b, CollisionCorrection::None).unwrap().estimate;
            assert!((est - t).abs() < 0.03 + 0.02 * t, "t={t}: estimate {est}");
        }
    }

    #[test]
    fn headline_scale_pair() {
        // n = 10^19, J = 0.01: the abstract's claim, one trial.
        let params = HmhParams::headline();
        let mut r = rng(4);
        let spec = SimSpec::equal_sized_with_jaccard(1e19, 0.01);
        let (a, b) = simulate_hmh_pair(params, spec, &mut r);
        let est = jaccard(&a, &b, CollisionCorrection::Approx).unwrap();
        assert!((est.estimate - 0.01).abs() < 0.004, "estimate {} (raw {})", est.estimate, est.raw);
        let card = a.cardinality();
        assert!((card / 1e19 - 1.0).abs() < 0.05, "cardinality {card:e}");
    }

    #[test]
    fn disjoint_pair_shows_only_accidental_collisions() {
        let params = HmhParams::new(10, 6, 6).unwrap();
        let mut r = rng(5);
        let spec = SimSpec { a_only: 1e8, b_only: 1e8, shared: 0.0 };
        let mut total_matches = 0usize;
        let trials = 20;
        for _ in 0..trials {
            let (a, b) = simulate_hmh_pair(params, spec, &mut r);
            total_matches += jaccard(&a, &b, CollisionCorrection::None).unwrap().matching;
        }
        let mean = total_matches as f64 / trials as f64;
        let expect = hmh_core::collisions::expected_collisions(params, 1e8, 1e8);
        assert!(
            (mean - expect).abs() < 4.0 * (expect / trials as f64).sqrt() + 1.0,
            "mean matches {mean} vs expected collisions {expect}"
        );
    }

    #[test]
    fn union_of_simulated_pair_estimates_union_size() {
        let params = HmhParams::new(12, 6, 10).unwrap();
        let mut r = rng(6);
        let spec = SimSpec { a_only: 4e10, b_only: 3e10, shared: 1e10 };
        let (a, b) = simulate_hmh_pair(params, spec, &mut r);
        let u = a.union(&b).unwrap().cardinality();
        assert!((u / 8e10 - 1.0).abs() < 0.05, "union {u:e}");
    }

    #[test]
    fn simulation_matches_insertion_distributionally() {
        // The fidelity gate: at n = 50k, counter histograms from simulated
        // and inserted sketches must agree within sampling noise.
        let params = HmhParams::new(8, 6, 10).unwrap();
        let n = 50_000u64;
        let trials = 30u64;
        let cap = params.cap() as usize;
        let mut sim_hist = vec![0f64; cap + 1];
        let mut ins_hist = vec![0f64; cap + 1];
        let mut r = rng(7);
        for t in 0..trials {
            let sim = simulate_hmh_single(params, n as f64, &mut r);
            for (k, &c) in sim.counter_histogram().iter().enumerate() {
                sim_hist[k] += c as f64;
            }
            let oracle = hmh_hash::RandomOracle::with_seed(t);
            let mut ins = HyperMinHash::with_oracle(params, oracle);
            for i in 0..n {
                ins.insert(&i);
            }
            for (k, &c) in ins.counter_histogram().iter().enumerate() {
                ins_hist[k] += c as f64;
            }
        }
        // Compare where there is mass; tolerance ~5σ of Poisson counts.
        for k in 0..=cap {
            let (s, i) = (sim_hist[k], ins_hist[k]);
            if s + i > 50.0 {
                let sigma = ((s + i) / 2.0).sqrt();
                assert!((s - i).abs() < 6.0 * sigma, "counter {k}: simulated {s} vs inserted {i}");
            }
        }
    }
}
