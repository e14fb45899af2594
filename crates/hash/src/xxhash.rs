//! xxHash64, implemented from scratch per the reference specification.
//!
//! This is the workspace's default byte-string hash: non-cryptographic but
//! passes SMHasher, and an order of magnitude faster than SHA-1. Verified
//! against the official test vectors (`XXH64` of the reference
//! implementation) in the tests below.

use crate::traits::Hash64;

const PRIME64_1: u64 = 0x9e37_79b1_85eb_ca87;
const PRIME64_2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const PRIME64_3: u64 = 0x1656_67b1_9e37_79f9;
const PRIME64_4: u64 = 0x85eb_ca77_c2b2_ae63;
const PRIME64_5: u64 = 0x27d4_eb2f_1656_67c5;

#[inline]
fn read_u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("invariant: b[..8] is 8 bytes"))
}

#[inline]
fn read_u32_le(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("invariant: b[..4] is 4 bytes"))
}

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2)).rotate_left(31).wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4)
}

#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^ (h >> 32)
}

/// One-shot xxHash64 of `data` with `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut rest = data;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = round(v1, read_u64_le(&rest[0..]));
            v2 = round(v2, read_u64_le(&rest[8..]));
            v3 = round(v3, read_u64_le(&rest[16..]));
            v4 = round(v4, read_u64_le(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while rest.len() >= 8 {
        h ^= round(0, read_u64_le(rest));
        h = h.rotate_left(27).wrapping_mul(PRIME64_1).wrapping_add(PRIME64_4);
        rest = &rest[8..];
    }
    if rest.len() >= 4 {
        h ^= u64::from(read_u32_le(rest)).wrapping_mul(PRIME64_1);
        h = h.rotate_left(23).wrapping_mul(PRIME64_2).wrapping_add(PRIME64_3);
        rest = &rest[4..];
    }
    for &byte in rest {
        h ^= u64::from(byte).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
    }

    avalanche(h)
}

/// Marker type implementing [`Hash64`] with xxHash64.
#[derive(Debug, Clone, Copy, Default)]
pub struct XxHash64;

impl Hash64 for XxHash64 {
    #[inline]
    fn hash64(data: &[u8], seed: u64) -> u64 {
        xxh64(data, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        // Widely-published xxHash64 vectors for ASCII strings with seed 0.
        assert_eq!(xxh64(b"", 0), 0xef46_db37_51d8_e999);
        assert_eq!(xxh64(b"a", 0), 0xd24e_c4f1_a98c_6e5b);
        assert_eq!(xxh64(b"abc", 0), 0x44bc_2cf5_ad77_0999);
    }

    #[test]
    fn long_inputs_exercise_the_stripe_loop() {
        // >= 32 bytes takes the 4-lane path; check determinism and that a
        // one-byte change anywhere flips the digest.
        let data: Vec<u8> = (0..100u8).collect();
        let base = xxh64(&data, 0);
        assert_eq!(base, xxh64(&data, 0));
        for i in 0..data.len() {
            let mut mutated = data.clone();
            mutated[i] ^= 1;
            assert_ne!(base, xxh64(&mutated, 0), "byte {i} did not affect hash");
        }
    }

    #[test]
    fn seed_changes_output() {
        assert_ne!(xxh64(b"hyperminhash", 0), xxh64(b"hyperminhash", 1));
    }

    #[test]
    fn all_length_classes_hash_distinctly() {
        // Exercise the <4, <8, <32 and >=32 byte code paths.
        let data: Vec<u8> = (0u8..=255).collect();
        let mut seen = std::collections::HashSet::new();
        for len in 0..=64 {
            assert!(seen.insert(xxh64(&data[..len], 0)), "collision at {len}");
        }
    }
}
