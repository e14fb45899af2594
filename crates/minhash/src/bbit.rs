//! b-bit MinHash fingerprints (Li & König \[16\]).
//!
//! §1.3–1.4: after computing full-width minima, keep only the lowest `b`
//! bits of each. Excellent space for pairwise Jaccard — `O(ε⁻²)` with the
//! collision-corrected estimator — but, as §1.4 stresses, the fingerprint
//! is *post-hoc*: generation still needs `log n`-bit registers, and two
//! fingerprints cannot be merged into the fingerprint of the union (the
//! low bits of `min(A)` and `min(B)` say nothing about `min(A∪B)` when the
//! minima differ). Accordingly this type offers **no union or insert** —
//! the API gap is the point, demonstrated in the `bbit` experiment.

use crate::common::MinHashError;
use crate::khash::KHashMinHash;
use hmh_hll::registers::BitPacked;

/// A b-bit MinHash fingerprint of `k` registers.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BBitMinHash {
    b: u32,
    seed_tag: u64,
    registers: BitPacked,
}

impl BBitMinHash {
    /// Fingerprint an existing full-width MinHash sketch by keeping the low
    /// `b` bits of each register.
    ///
    /// # Panics
    /// If `b ∉ 1..=32`.
    pub fn from_minhash(source: &KHashMinHash, b: u32) -> Self {
        assert!((1..=32).contains(&b), "b = {b} out of 1..=32");
        let mask = if b == 32 { u32::MAX } else { (1u32 << b) - 1 };
        let mut registers = BitPacked::new(b, source.k());
        for (i, &v) in source.registers().iter().enumerate() {
            registers.set(i, (v as u32) & mask);
        }
        Self { b, seed_tag: source.oracle().seed(), registers }
    }

    /// Bits per register.
    pub fn b(&self) -> u32 {
        self.b
    }

    /// Number of registers.
    pub fn k(&self) -> usize {
        self.registers.len()
    }

    /// Fingerprint size in bytes.
    pub fn byte_size(&self) -> usize {
        (self.k() * self.b as usize).div_ceil(8)
    }

    /// Register `i`'s retained low bits (exposed so experiments can model
    /// *wrong* uses of the fingerprint, e.g. the naive merge the
    /// composability demonstration needs).
    pub fn register(&self, i: usize) -> u32 {
        self.registers.get(i)
    }

    /// Jaccard estimate with the random-collision correction:
    /// `E[match fraction] = C + (1 − C)·t` with `C = 2^{-b}`, so
    /// `t̂ = (M − C) / (1 − C)`, clamped to `[0, 1]`.
    ///
    /// (Li & König's full estimator replaces `C` with density-dependent
    /// `A₁`/`A₂` terms; the uniform `2^{-b}` approximation is what their
    /// analysis reduces to for sets much smaller than the hash space, and
    /// is the variant HyperMinHash's mantissa analysis parallels.)
    pub fn jaccard(&self, other: &Self) -> Result<f64, MinHashError> {
        if self.b != other.b || self.k() != other.k() {
            return Err(MinHashError::ParameterMismatch { what: "b or k differs" });
        }
        if self.seed_tag != other.seed_tag {
            return Err(MinHashError::OracleMismatch);
        }
        let matching =
            (0..self.k()).filter(|&i| self.registers.get(i) == other.registers.get(i)).count();
        let m_frac = matching as f64 / self.k() as f64;
        let c = 2f64.powi(-(self.b as i32));
        Ok(((m_frac - c) / (1.0 - c)).clamp(0.0, 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmh_hash::RandomOracle;

    fn minhash_range(lo: u64, hi: u64, k: usize) -> KHashMinHash {
        let mut s = KHashMinHash::new(k, RandomOracle::default());
        for i in lo..hi {
            s.insert(&i);
        }
        s
    }

    #[test]
    fn fingerprint_size() {
        let mh = minhash_range(0, 100, 256);
        let fp = BBitMinHash::from_minhash(&mh, 1);
        assert_eq!(fp.byte_size(), 32); // 256 × 1 bit
        let fp4 = BBitMinHash::from_minhash(&mh, 4);
        assert_eq!(fp4.byte_size(), 128);
    }

    #[test]
    fn corrected_estimate_matches_truth() {
        // J = 1/3 with 50% overlap.
        let a = minhash_range(0, 2000, 1024);
        let b = minhash_range(1000, 3000, 1024);
        let full_j = a.jaccard(&b).unwrap();
        for bits in [1, 2, 4, 8] {
            let fa = BBitMinHash::from_minhash(&a, bits);
            let fb = BBitMinHash::from_minhash(&b, bits);
            let j = fa.jaccard(&fb).unwrap();
            // The corrected b-bit estimate should track the full estimate.
            let tol = if bits == 1 { 0.12 } else { 0.08 };
            assert!((j - full_j).abs() < tol, "b={bits}: {j} vs full {full_j}");
        }
    }

    #[test]
    fn disjoint_sets_estimate_near_zero() {
        let a = minhash_range(0, 5000, 2048);
        let b = minhash_range(100_000, 105_000, 2048);
        let fa = BBitMinHash::from_minhash(&a, 2);
        let fb = BBitMinHash::from_minhash(&b, 2);
        let j = fa.jaccard(&fb).unwrap();
        assert!(j < 0.05, "j = {j}");
    }

    #[test]
    fn identical_sets_estimate_one() {
        let a = minhash_range(0, 1000, 256);
        let fa = BBitMinHash::from_minhash(&a, 1);
        assert_eq!(fa.jaccard(&fa.clone()).unwrap(), 1.0);
    }

    #[test]
    fn mismatched_fingerprints_error() {
        let a = minhash_range(0, 100, 64);
        let f1 = BBitMinHash::from_minhash(&a, 1);
        let f2 = BBitMinHash::from_minhash(&a, 2);
        assert!(f1.jaccard(&f2).is_err());

        let mut other = KHashMinHash::new(64, RandomOracle::with_seed(7));
        other.insert(&1u64);
        let f3 = BBitMinHash::from_minhash(&other, 1);
        assert_eq!(f1.jaccard(&f3).unwrap_err(), MinHashError::OracleMismatch);
    }
}
