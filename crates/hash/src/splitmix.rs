//! SplitMix64: a tiny, statistically strong 64-bit mixer and generator.
//!
//! Used in two places: as the integer-key fast path of the random oracle
//! (mixing an integer item with the seed avoids byte-buffer round-trips) and
//! to derive independent per-hash seeds from one master seed, which is how
//! the k-hash-functions MinHash variant obtains its `k` "independent" hash
//! functions from shared randomness.
//!
//! Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
//! generators", OOPSLA 2014. The constants below are the canonical ones.

/// The golden-ratio increment of the SplitMix64 stream.
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 64-bit finalization mix of SplitMix64 (also known as `mix64`).
///
/// A bijection on `u64` with full avalanche: flipping any input bit flips
/// each output bit with probability ~1/2 (verified in tests).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The inverse of [`mix64`]; used in tests to prove bijectivity and exposed
/// because unmixing is occasionally handy when debugging register contents.
#[inline]
pub fn unmix64(mut z: u64) -> u64 {
    // Invert `z ^= z >> 31` (shift >= 32 would self-invert; 31 needs two steps).
    z ^= (z >> 31) ^ (z >> 62);
    z = z.wrapping_mul(inverse_of(0x94d0_49bb_1331_11eb));
    z ^= (z >> 27) ^ (z >> 54);
    z = z.wrapping_mul(inverse_of(0xbf58_476d_1ce4_e5b9));
    z ^= (z >> 30) ^ (z >> 60);
    z
}

/// Modular inverse of an odd 64-bit constant (Newton iteration over 2^64).
const fn inverse_of(a: u64) -> u64 {
    // x_{k+1} = x_k (2 - a x_k); doubles correct bits each step.
    let mut x = a; // correct to 3 bits for odd a
    let mut i = 0;
    while i < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        i += 1;
    }
    x
}

/// A SplitMix64 sequence generator; deterministic from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator starting at `seed`.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix64(self.state)
    }

    /// Derive the `i`-th sub-seed of `seed` without materializing a stream.
    ///
    /// `derive(s, i) == SplitMix64::new(s)` advanced `i + 1` times' last
    /// output, but in O(1).
    #[inline]
    pub fn derive(seed: u64, i: u64) -> u64 {
        mix64(seed.wrapping_add(GOLDEN_GAMMA.wrapping_mul(i.wrapping_add(1))))
    }
}

/// Hash a 128-bit integer key together with a seed to 64 bits.
///
/// This is the allocation-free fast path for integer items: two dependent
/// `mix64` rounds give full avalanche across all 128 key bits.
#[inline]
pub fn mix128_to_64(key: u128, seed: u64) -> u64 {
    let lo = key as u64;
    let hi = (key >> 64) as u64;
    let a = mix64(lo ^ seed);
    mix64(a.wrapping_add(GOLDEN_GAMMA) ^ hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_reference_vector() {
        // First three outputs of SplitMix64 seeded with 0, per the reference
        // implementation (used as test vectors by xoshiro and many others).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(g.next_u64(), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn mix64_is_a_bijection() {
        for z in [0u64, 1, u64::MAX, 0x1234_5678_9abc_def0, GOLDEN_GAMMA] {
            assert_eq!(unmix64(mix64(z)), z);
            assert_eq!(mix64(unmix64(z)), z);
        }
    }

    #[test]
    fn derive_matches_stream() {
        let seed = 42;
        let mut g = SplitMix64::new(seed);
        for i in 0..10 {
            assert_eq!(SplitMix64::derive(seed, i), g.next_u64());
        }
    }

    #[test]
    fn avalanche_of_mix64() {
        // Flipping one input bit should flip ~32 of 64 output bits.
        let mut total = 0u32;
        let trials = 64 * 16;
        let mut g = SplitMix64::new(7);
        for _ in 0..16 {
            let x = g.next_u64();
            for bit in 0..64 {
                total += (mix64(x) ^ mix64(x ^ (1 << bit))).count_ones();
            }
        }
        let mean = f64::from(total) / f64::from(trials);
        assert!((mean - 32.0).abs() < 1.5, "avalanche mean {mean} too far from 32");
    }

    #[test]
    fn mix128_distinguishes_high_bits() {
        let a = mix128_to_64(1u128 << 100, 0);
        let b = mix128_to_64(1u128 << 101, 0);
        assert_ne!(a, b);
        // And the seed matters.
        assert_ne!(mix128_to_64(5, 0), mix128_to_64(5, 1));
    }
}
