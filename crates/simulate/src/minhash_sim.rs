//! Coupled simulation of k-partition MinHash pairs (the Figure 6
//! baselines) at arbitrary cardinality.
//!
//! The register of bucket `i` is `⌊min · 2^bits⌋` — truncation commutes
//! with the minimum, so encoding the sampled `Beta(1, k)` minimum directly
//! gives exactly the distribution of the inserted sketch.

use crate::overlap::SimSpec;
use hmh_hash::RandomOracle;
use hmh_math::dist::{min_of_k_uniforms, multinomial_pow2};
use hmh_minhash::KPartitionMinHash;
use rand::Rng;

fn truncate(v: f64, bits: u32) -> u32 {
    let scaled = (v * 2f64.powi(bits as i32)).floor();
    (scaled as u32).min((1u32 << bits) - 1)
}

fn component_minima<R: Rng + ?Sized>(count: f64, p: u32, rng: &mut R) -> Vec<Option<f64>> {
    multinomial_pow2(count, p, rng)
        .into_iter()
        .map(|k| (k > 0.0).then(|| min_of_k_uniforms(k, rng)))
        .collect()
}

/// Simulate a single k-partition MinHash sketch of an `n`-element set.
pub fn simulate_kpartition_single<R: Rng + ?Sized>(
    p: u32,
    bits: u32,
    n: f64,
    rng: &mut R,
) -> KPartitionMinHash {
    let mut sketch = KPartitionMinHash::new(p, bits, RandomOracle::default());
    for (bucket, v) in component_minima(n, p, rng).into_iter().enumerate() {
        if let Some(v) = v {
            sketch.observe(bucket, truncate(v, bits));
        }
    }
    sketch
}

/// Simulate a coupled k-partition MinHash pair realizing `spec` (same
/// component decomposition as the HyperMinHash simulator).
pub fn simulate_kpartition_pair<R: Rng + ?Sized>(
    p: u32,
    bits: u32,
    spec: SimSpec,
    rng: &mut R,
) -> (KPartitionMinHash, KPartitionMinHash) {
    let a_only = component_minima(spec.a_only, p, rng);
    let b_only = component_minima(spec.b_only, p, rng);
    let shared = component_minima(spec.shared, p, rng);
    let mut a = KPartitionMinHash::new(p, bits, RandomOracle::default());
    let mut b = KPartitionMinHash::new(p, bits, RandomOracle::default());
    for bucket in 0..(1usize << p) {
        let sh = shared[bucket];
        for (own, sketch) in [(a_only[bucket], &mut a), (b_only[bucket], &mut b)] {
            let v = match (own, sh) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            };
            if let Some(v) = v {
                sketch.observe(bucket, truncate(v, bits));
            }
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn truncation_basics() {
        assert_eq!(truncate(0.5, 8), 128);
        assert_eq!(truncate(0.999999999, 8), 255);
        assert_eq!(truncate(1e-20, 8), 0);
    }

    #[test]
    fn simulated_jaccard_matches_at_low_cardinality() {
        // Wide registers, moderate n: estimate ≈ truth.
        let mut rng = StdRng::seed_from_u64(1);
        let spec = SimSpec::equal_sized_with_jaccard(10_000.0, 1.0 / 3.0);
        let (a, b) = simulate_kpartition_pair(9, 24, spec, &mut rng);
        let j = a.jaccard(&b).unwrap();
        assert!((j - 1.0 / 3.0).abs() < 0.08, "j = {j}");
    }

    #[test]
    fn narrow_registers_fail_at_high_cardinality() {
        // The Figure 6 failure mode, reproduced by simulation: 8-bit
        // registers at n = 2^20 collide massively, inflating J.
        let mut rng = StdRng::seed_from_u64(2);
        let spec = SimSpec::equal_sized_with_jaccard(2f64.powi(20), 1.0 / 3.0);
        let (a, b) = simulate_kpartition_pair(8, 8, spec, &mut rng);
        let j = a.jaccard(&b).unwrap();
        assert!(j > 0.6, "truncation collisions should inflate J: {j}");
    }

    #[test]
    fn simulation_matches_insertion_distributionally() {
        // Compare simulated vs inserted register histograms at n = 20k.
        let (p, bits) = (6u32, 8u32);
        let n = 20_000u64;
        let trials = 40;
        let mut sim_hist = vec![0f64; 1 << bits];
        let mut ins_hist = vec![0f64; 1 << bits];
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..trials {
            let sim = simulate_kpartition_single(p, bits, n as f64, &mut rng);
            let mut ins = KPartitionMinHash::new(p, bits, RandomOracle::with_seed(t));
            for i in 0..n {
                ins.insert(&i);
            }
            for bucket in 0..(1usize << p) {
                if let Some(v) = sim.register(bucket) {
                    sim_hist[v as usize] += 1.0;
                }
                if let Some(v) = ins.register(bucket) {
                    ins_hist[v as usize] += 1.0;
                }
            }
        }
        // Coarse-grain into 16 bins to keep counts high, then compare.
        for bin in 0..16 {
            let (mut s, mut i) = (0.0, 0.0);
            for v in bin * 16..(bin + 1) * 16 {
                s += sim_hist[v];
                i += ins_hist[v];
            }
            if s + i > 40.0 {
                let sigma = ((s + i) / 2.0).sqrt();
                assert!((s - i).abs() < 6.0 * sigma, "bin {bin}: simulated {s} vs inserted {i}");
            }
        }
    }

    #[test]
    fn astronomical_cardinality_saturates_registers() {
        // At n = 10^15 every 8-bit register is 0 — the MinHash failure the
        // paper contrasts against.
        let mut rng = StdRng::seed_from_u64(4);
        let s = simulate_kpartition_single(8, 8, 1e15, &mut rng);
        for bucket in 0..256 {
            assert_eq!(s.register(bucket), Some(0));
        }
    }
}
