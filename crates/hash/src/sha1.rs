//! SHA-1, implemented from scratch per FIPS 180-1.
//!
//! The paper names SHA-1 as the practical stand-in for a random oracle
//! ("standard cryptographic hash functions (e.g. SHA-1) behave as random
//! oracles", §1.2). We provide it both as a streaming hasher and as the
//! strongest (slowest) oracle backend; the test suite checks the FIPS test
//! vectors. SHA-1 is of course broken for collision *resistance*, but the
//! sketches only need its output to be uniform, which it remains.

use crate::bits::Digest128;
use crate::traits::{Hash128, Hash64};

const H0: [u32; 5] = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476, 0xc3d2_e1f0];

/// Streaming SHA-1 hasher.
#[derive(Debug, Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Bytes processed so far (for the length suffix).
    len_bytes: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hasher in the initial FIPS state.
    pub fn new() -> Self {
        Self { state: H0, len_bytes: 0, buf: [0; 64], buf_len: 0 }
    }

    /// Absorb `data`.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len_bytes = self.len_bytes.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                return;
            }
        }
        while data.len() >= 64 {
            let (block, rest) = data.split_at(64);
            self.compress(
                block.try_into().expect("invariant: split_at(64) yields a 64-byte block"),
            );
            data = rest;
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Finish and return the 20-byte digest.
    pub fn finalize(mut self) -> [u8; 20] {
        let bit_len = self.len_bytes.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0x00]);
        }
        // Appending the length manually to avoid it perturbing len_bytes.
        let mut block = self.buf;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        self.compress(&block);

        let mut out = [0u8; 20];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(
                chunk.try_into().expect("invariant: chunks_exact(4) yields 4-byte chunks"),
            );
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = self.state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5a82_7999),
                20..=39 => (b ^ c ^ d, 0x6ed9_eba1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8f1b_bcdc),
                _ => (b ^ c ^ d, 0xca62_c1d6),
            };
            let tmp =
                a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
    }
}

/// One-shot SHA-1 digest.
pub fn sha1(data: &[u8]) -> [u8; 20] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

/// One-shot seeded SHA-1, truncated to the top 128 bits of the digest.
///
/// The seed is prepended as 8 big-endian bytes, the standard keyed-prefix
/// construction (the oracle only needs pseudo-independence across seeds,
/// not MAC security).
pub fn sha1_128(data: &[u8], seed: u64) -> Digest128 {
    let mut h = Sha1::new();
    h.update(&seed.to_be_bytes());
    h.update(data);
    let d = h.finalize();
    let hi = u64::from_be_bytes(
        d[0..8].try_into().expect("invariant: 8-byte slice of the 20-byte digest"),
    );
    let lo = u64::from_be_bytes(
        d[8..16].try_into().expect("invariant: 8-byte slice of the 20-byte digest"),
    );
    Digest128::new(hi, lo)
}

/// Marker type implementing the hash traits with seeded SHA-1.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sha1Oracle;

impl Hash128 for Sha1Oracle {
    #[inline]
    fn hash128(data: &[u8], seed: u64) -> Digest128 {
        sha1_128(data, seed)
    }
}

impl Hash64 for Sha1Oracle {
    #[inline]
    fn hash64(data: &[u8], seed: u64) -> u64 {
        sha1_128(data, seed).hi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(&data), "split at {split}");
        }
    }

    #[test]
    fn seeded_digests_differ_by_seed() {
        assert_ne!(sha1_128(b"x", 0), sha1_128(b"x", 1));
    }
}
