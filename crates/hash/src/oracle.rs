//! The seeded random oracle every sketch draws its bits from.
//!
//! The paper's analysis assumes `h : S → [0,1]` is a uniformly random hash
//! function (a random oracle) and that all parties share it (shared
//! randomness). [`RandomOracle`] is the concrete stand-in: a choice of hash
//! algorithm plus a 64-bit seed. Two sketches are mergeable iff they were
//! built from oracles with the same `(algorithm, seed)` pair, which the
//! sketch types enforce.

use crate::bits::Digest128;
use crate::murmur3::murmur3_x64_128;
use crate::sha1::sha1_128;
use crate::splitmix::{mix64, SplitMix64};
use crate::traits::HashableItem;
use crate::xxhash::xxh64;

/// Hash algorithm backing a [`RandomOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum HashAlgorithm {
    /// Murmur3 x64 128-bit — the default: one pass, full 128-bit digest.
    #[default]
    Murmur3,
    /// SHA-1 truncated to 128 bits — the paper's random-oracle example;
    /// slowest, strongest uniformity guarantees.
    Sha1,
    /// Two xxHash64 passes with derived seeds forming a 128-bit digest.
    XxPair,
    /// SplitMix Feistel mixing for integer keys (≤ 16 bytes); falls back to
    /// Murmur3 for longer inputs. Fastest path for integer streams.
    SplitMix,
}

/// A seeded random oracle producing 128-bit digests.
///
/// ```
/// use hmh_hash::{HashAlgorithm, RandomOracle};
///
/// let oracle = RandomOracle::new(HashAlgorithm::Murmur3, 42);
/// let d = oracle.digest(&"some item");
/// assert_eq!(d, oracle.digest(&"some item"), "deterministic");
/// assert_ne!(d, RandomOracle::with_seed(43).digest(&"some item"));
/// // Algorithm 1's bit slicing: bucket, then (counter, mantissa).
/// let bucket = d.take_bits(0, 12);
/// let (counter, mantissa) = d.rho_sigma(12, 63, 10);
/// assert!(bucket < 4096 && counter >= 1 && mantissa < 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RandomOracle {
    algorithm: HashAlgorithm,
    seed: u64,
}

impl Default for RandomOracle {
    /// The conventional shared oracle: Murmur3 with seed 0. Sketches built
    /// with the default oracle are mergeable with any other party's
    /// default-oracle sketches — the paper's shared-randomness assumption.
    fn default() -> Self {
        Self::new(HashAlgorithm::Murmur3, 0)
    }
}

impl RandomOracle {
    /// Oracle with an explicit algorithm and seed.
    pub const fn new(algorithm: HashAlgorithm, seed: u64) -> Self {
        Self { algorithm, seed }
    }

    /// Oracle with the default algorithm and the given seed.
    pub const fn with_seed(seed: u64) -> Self {
        Self::new(HashAlgorithm::Murmur3, seed)
    }

    /// The configured algorithm.
    pub const fn algorithm(self) -> HashAlgorithm {
        self.algorithm
    }

    /// The configured seed.
    pub const fn seed(self) -> u64 {
        self.seed
    }

    /// An oracle for the `i`-th independent hash function derived from this
    /// one (used by the k-hash-functions MinHash variant).
    pub fn derived(self, i: u64) -> Self {
        Self::new(self.algorithm, SplitMix64::derive(self.seed, i))
    }

    /// Hash raw bytes to a 128-bit digest.
    #[inline]
    pub fn digest_bytes(self, data: &[u8]) -> Digest128 {
        match self.algorithm {
            HashAlgorithm::Murmur3 => murmur3_x64_128(data, self.seed),
            HashAlgorithm::Sha1 => sha1_128(data, self.seed),
            HashAlgorithm::XxPair => {
                let hi = xxh64(data, SplitMix64::derive(self.seed, 0));
                let lo = xxh64(data, SplitMix64::derive(self.seed, 1));
                Digest128::new(hi, lo)
            }
            HashAlgorithm::SplitMix => {
                if data.len() <= 16 {
                    let mut buf = [0u8; 16];
                    buf[..data.len()].copy_from_slice(data);
                    // Fold the length in so prefixes of zero bytes stay
                    // distinct from shorter inputs.
                    feistel128(u128::from_le_bytes(buf) ^ ((data.len() as u128) << 120), self.seed)
                } else {
                    murmur3_x64_128(data, self.seed)
                }
            }
        }
    }

    /// Hash any [`HashableItem`] to a 128-bit digest.
    ///
    /// Integer items take an allocation-free path; other items are encoded
    /// to a scratch buffer first.
    #[inline]
    pub fn digest<T: HashableItem + ?Sized>(self, item: &T) -> Digest128 {
        if let Some((buf, len)) = item.as_inline_bytes() {
            self.digest_bytes(&buf[..len])
        } else {
            let mut buf = Vec::with_capacity(32);
            item.write_bytes(&mut buf);
            self.digest_bytes(&buf)
        }
    }

    /// Hash an item to 64 bits (the digest's high word).
    #[inline]
    pub fn digest64<T: HashableItem + ?Sized>(self, item: &T) -> u64 {
        self.digest(item).hi()
    }
}

/// A 3-round Feistel network over `(u64, u64)` with [`mix64`] round
/// functions and seed-derived round keys: a bijection on `u128` with full
/// avalanche, used as the integer fast path.
#[inline]
fn feistel128(key: u128, seed: u64) -> Digest128 {
    let mut x = key as u64;
    let mut y = (key >> 64) as u64;
    y ^= mix64(x ^ SplitMix64::derive(seed, 0));
    x ^= mix64(y ^ SplitMix64::derive(seed, 1));
    y ^= mix64(x ^ SplitMix64::derive(seed, 2));
    Digest128::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_are_deterministic() {
        for alg in [
            HashAlgorithm::Murmur3,
            HashAlgorithm::Sha1,
            HashAlgorithm::XxPair,
            HashAlgorithm::SplitMix,
        ] {
            let o = RandomOracle::new(alg, 1234);
            assert_eq!(o.digest(&42u64), o.digest(&42u64), "{alg:?}");
            assert_ne!(o.digest(&42u64), o.digest(&43u64), "{alg:?}");
        }
    }

    #[test]
    fn seed_separates_oracles() {
        for alg in [
            HashAlgorithm::Murmur3,
            HashAlgorithm::Sha1,
            HashAlgorithm::XxPair,
            HashAlgorithm::SplitMix,
        ] {
            let a = RandomOracle::new(alg, 1);
            let b = RandomOracle::new(alg, 2);
            assert_ne!(a.digest(&7u64), b.digest(&7u64), "{alg:?}");
        }
    }

    #[test]
    fn derived_oracles_are_distinct() {
        let o = RandomOracle::default();
        let d0 = o.derived(0);
        let d1 = o.derived(1);
        assert_ne!(d0.seed(), d1.seed());
        assert_ne!(d0.digest(&1u64), d1.digest(&1u64));
    }

    #[test]
    fn feistel_is_a_bijection_on_samples() {
        // Injectivity spot check: 10k keys, no digest collisions.
        let mut seen = std::collections::HashSet::new();
        for k in 0u128..10_000 {
            assert!(seen.insert(feistel128(k, 99)));
        }
    }

    #[test]
    fn splitmix_handles_long_inputs_via_fallback() {
        let o = RandomOracle::new(HashAlgorithm::SplitMix, 0);
        let long = vec![0u8; 100];
        assert_eq!(
            o.digest_bytes(&long),
            murmur3_x64_128(&long, 0),
            "long inputs fall back to murmur3"
        );
    }

    #[test]
    fn splitmix_length_disambiguation() {
        let o = RandomOracle::new(HashAlgorithm::SplitMix, 0);
        // 4 zero bytes vs 8 zero bytes must differ.
        assert_ne!(o.digest_bytes(&[0u8; 4]), o.digest_bytes(&[0u8; 8]));
    }

    #[test]
    fn digest_uniformity_chi_square() {
        // The sketches consume the top bits heavily; check that each of the
        // top 16 bits of the digest is ~unbiased over 20k integer keys.
        for alg in [HashAlgorithm::Murmur3, HashAlgorithm::SplitMix, HashAlgorithm::XxPair] {
            let o = RandomOracle::new(alg, 7);
            let n = 20_000u64;
            let mut ones = [0u32; 16];
            for k in 0..n {
                let top = o.digest(&k).take_bits(0, 16);
                for (b, count) in ones.iter_mut().enumerate() {
                    *count += ((top >> (15 - b)) & 1) as u32;
                }
            }
            for (b, &count) in ones.iter().enumerate() {
                let frac = f64::from(count) / n as f64;
                assert!((frac - 0.5).abs() < 0.02, "{alg:?} bit {b} biased: {frac}");
            }
        }
    }

    #[test]
    fn avalanche_of_integer_fast_path() {
        // Flipping any key bit should flip ~64 of the 128 digest bits.
        let o = RandomOracle::new(HashAlgorithm::SplitMix, 3);
        let base = o.digest(&0xdead_beefu64);
        for bit in 0..64 {
            let flipped = o.digest(&(0xdead_beefu64 ^ (1 << bit)));
            let diff = (base.as_u128() ^ flipped.as_u128()).count_ones();
            assert!((32..=96).contains(&diff), "bit {bit}: {diff} flips");
        }
    }
}
