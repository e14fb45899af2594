//! A compact, versioned binary wire format for sketches.
//!
//! Serde/JSON is convenient but ~6× larger than the registers themselves;
//! production sketch stores ship raw registers. Layout (little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "HMH1"
//! 4       1     format version (1)
//! 5       1     p
//! 6       1     q
//! 7       1     r
//! 8       1     oracle algorithm (0 murmur3, 1 sha1, 2 xxpair, 3 splitmix)
//! 9       8     oracle seed (u64 LE)
//! 17      8·W   packed register words (u64 LE each)
//! 17+8·W  8     xxHash64 of bytes [0, 17+8·W) with seed 0
//! ```
//!
//! The trailing digest catches truncation and bit rot; parameter and
//! padding validation catches adversarial or corrupt payloads without
//! panicking.

use crate::error::HmhError;
use crate::params::HmhParams;
use crate::sketch::HyperMinHash;
use hmh_hash::xxhash::xxh64;
use hmh_hash::{HashAlgorithm, RandomOracle};
use hmh_hll::registers::BitPacked;

/// Magic bytes of the format.
pub const MAGIC: [u8; 4] = *b"HMH1";
/// Current format version.
pub const VERSION: u8 = 1;

/// Hard ceiling on an encoded sketch, derived from the parameter bounds
/// `HmhParams::new` enforces (p ≤ 24, q + r ≤ 32): 2^24 buckets of at
/// most 32 bits each, plus header and digest. Untrusted inputs larger
/// than this are rejected *before* any length field is believed, so a
/// hostile or corrupt length can never drive an unbounded allocation or
/// read — in this decoder or in anything (store records, network frames)
/// that carries encoded sketches.
pub const MAX_ENCODED_LEN: usize = HEADER_LEN + (1 << 24) * 32 / 8 + DIGEST_LEN;

/// Fixed header size (magic + version + p/q/r + algorithm + seed).
pub const HEADER_LEN: usize = 17;

/// Trailing xxHash64 digest size.
pub const DIGEST_LEN: usize = 8;

/// Errors from decoding a binary sketch.
#[derive(Debug, Clone, PartialEq)]
pub enum FormatError {
    /// Input does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    UnsupportedVersion(u8),
    /// Header parameters fail [`HmhParams::new`] validation.
    InvalidParams(HmhError),
    /// Unknown oracle algorithm byte.
    UnknownAlgorithm(u8),
    /// Input shorter than the header + payload + digest demand.
    Truncated {
        /// Bytes expected (0 when the header itself is short).
        expected: usize,
        /// Bytes available.
        got: usize,
    },
    /// Input larger than any valid sketch ([`MAX_ENCODED_LEN`]) — a lying
    /// length field upstream, not a sketch.
    TooLarge {
        /// Bytes presented.
        got: usize,
        /// The [`MAX_ENCODED_LEN`] ceiling.
        max: usize,
    },
    /// Trailing digest does not match the content.
    ChecksumMismatch,
    /// Payload failed structural validation (e.g. dirty padding bits).
    CorruptPayload(String),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a HyperMinHash sketch (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            Self::InvalidParams(e) => write!(f, "invalid parameters in header: {e}"),
            Self::UnknownAlgorithm(a) => write!(f, "unknown oracle algorithm {a}"),
            Self::Truncated { expected, got } => {
                write!(f, "truncated sketch: expected {expected} bytes, got {got}")
            }
            Self::TooLarge { got, max } => {
                write!(f, "oversized sketch: {got} bytes exceeds the {max}-byte format ceiling")
            }
            Self::ChecksumMismatch => write!(f, "checksum mismatch (corrupt sketch)"),
            Self::CorruptPayload(msg) => write!(f, "corrupt payload: {msg}"),
        }
    }
}

impl std::error::Error for FormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::InvalidParams(e) => Some(e),
            _ => None,
        }
    }
}

/// The `HMH1` header byte for a hash algorithm (also used by the serve
/// protocol's BATCH_PUT sketch-configuration fields).
pub fn algorithm_to_byte(alg: HashAlgorithm) -> u8 {
    match alg {
        HashAlgorithm::Murmur3 => 0,
        HashAlgorithm::Sha1 => 1,
        HashAlgorithm::XxPair => 2,
        HashAlgorithm::SplitMix => 3,
    }
}

/// The hash algorithm for an `HMH1` header byte.
pub fn algorithm_from_byte(b: u8) -> Result<HashAlgorithm, FormatError> {
    Ok(match b {
        0 => HashAlgorithm::Murmur3,
        1 => HashAlgorithm::Sha1,
        2 => HashAlgorithm::XxPair,
        3 => HashAlgorithm::SplitMix,
        other => return Err(FormatError::UnknownAlgorithm(other)),
    })
}

/// Encode a sketch to the binary format.
pub fn encode(sketch: &HyperMinHash) -> Vec<u8> {
    let params = sketch.params();
    let words = sketch.packed().raw_words();
    let mut out = Vec::with_capacity(17 + words.len() * 8 + 8);
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(params.p() as u8);
    out.push(params.q() as u8);
    out.push(params.r() as u8);
    out.push(algorithm_to_byte(sketch.oracle().algorithm()));
    out.extend_from_slice(&sketch.oracle().seed().to_le_bytes());
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    let digest = xxh64(&out, 0);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Decode a sketch from the binary format.
pub fn decode(bytes: &[u8]) -> Result<HyperMinHash, FormatError> {
    const HEADER: usize = HEADER_LEN;
    if bytes.len() > MAX_ENCODED_LEN {
        return Err(FormatError::TooLarge { got: bytes.len(), max: MAX_ENCODED_LEN });
    }
    if bytes.len() < HEADER {
        return Err(FormatError::Truncated { expected: HEADER, got: bytes.len() });
    }
    if bytes[0..4] != MAGIC {
        return Err(FormatError::BadMagic);
    }
    if bytes[4] != VERSION {
        return Err(FormatError::UnsupportedVersion(bytes[4]));
    }
    let (p, q, r) = (u32::from(bytes[5]), u32::from(bytes[6]), u32::from(bytes[7]));
    let params = HmhParams::new(p, q, r).map_err(FormatError::InvalidParams)?;
    let algorithm = algorithm_from_byte(bytes[8])?;
    let seed =
        u64::from_le_bytes(bytes[9..17].try_into().expect("invariant: bytes[9..17] is 8 bytes"));

    let bits = (params.num_buckets() as u64) * u64::from(params.word_bits());
    let num_words = bits.div_ceil(64) as usize;
    let expected = HEADER + num_words * 8 + 8;
    if bytes.len() != expected {
        return Err(FormatError::Truncated { expected, got: bytes.len() });
    }
    let body_end = HEADER + num_words * 8;
    let digest = u64::from_le_bytes(
        bytes[body_end..].try_into().expect("invariant: length checked 8 lines up"),
    );
    if xxh64(&bytes[..body_end], 0) != digest {
        return Err(FormatError::ChecksumMismatch);
    }
    let words: Vec<u64> = bytes[HEADER..body_end]
        .chunks_exact(8)
        .map(|c| {
            u64::from_le_bytes(
                c.try_into().expect("invariant: chunks_exact(8) yields 8-byte chunks"),
            )
        })
        .collect();
    let packed = BitPacked::from_raw_words(params.word_bits(), params.num_buckets(), words)
        .map_err(FormatError::CorruptPayload)?;
    // Structural register validation: counters must not exceed the cap
    // (BitPacked width alone cannot enforce this when q+r is not a power
    // of two — counter bits are the top q of the word, always in range by
    // construction, so nothing further to check).
    Ok(HyperMinHash::from_packed(params, RandomOracle::new(algorithm, seed), packed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch() -> HyperMinHash {
        let params = HmhParams::new(8, 6, 10).unwrap();
        HyperMinHash::from_items(params, 0..5_000u64)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let s = sketch();
        let bytes = encode(&s);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.cardinality(), s.cardinality());
    }

    #[test]
    fn wire_size_is_compact() {
        let s = sketch();
        let bytes = encode(&s);
        // 17-byte header + 512 B of registers + 8-byte digest.
        assert_eq!(bytes.len(), 17 + s.params().byte_size() + 8);
        let json = serde_json::to_vec(&s).unwrap();
        assert!(bytes.len() * 2 < json.len(), "binary {} vs json {}", bytes.len(), json.len());
    }

    #[test]
    fn oracle_configuration_survives() {
        let params = HmhParams::figure6();
        let oracle = RandomOracle::new(HashAlgorithm::Sha1, 0xdead_beef);
        let mut s = HyperMinHash::with_oracle(params, oracle);
        for i in 0..100u64 {
            s.insert(&i);
        }
        let back = decode(&encode(&s)).unwrap();
        assert_eq!(back.oracle(), oracle);
        assert_eq!(back, s);
    }

    #[test]
    fn corruption_is_detected() {
        let bytes = encode(&sketch());
        // Flip one payload bit.
        let mut bad = bytes.clone();
        bad[20] ^= 1;
        assert_eq!(decode(&bad), Err(FormatError::ChecksumMismatch));
        // Truncate.
        assert!(matches!(decode(&bytes[..40]), Err(FormatError::Truncated { .. })));
        assert!(matches!(decode(&[]), Err(FormatError::Truncated { .. })));
        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode(&bad), Err(FormatError::BadMagic));
        // Future version.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(decode(&bad), Err(FormatError::UnsupportedVersion(9)));
    }

    #[test]
    fn adversarial_headers_rejected_without_panicking() {
        let bytes = encode(&sketch());
        // Illegal q (checksum is checked after structure, so recompute it
        // to prove the parameter gate itself fires).
        let mut bad = bytes.clone();
        bad[6] = 99;
        assert!(matches!(
            decode(&bad),
            Err(FormatError::InvalidParams(_)) | Err(FormatError::Truncated { .. })
        ));
        // Unknown algorithm byte.
        let mut bad = bytes;
        bad[8] = 200;
        assert!(matches!(decode(&bad), Err(FormatError::UnknownAlgorithm(200))));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        // Small parameters keep the exhaustive sweep cheap: every bit of
        // header, payload and digest is flipped in turn, and the decoder
        // must reject every one of them (the digest covers the whole
        // body, and a digest flip breaks the digest itself).
        let params = HmhParams::new(2, 6, 4).unwrap();
        let s = HyperMinHash::from_items(params, 0..200u64);
        let bytes = encode(&s);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&bad).is_err(), "flipped bit {bit} was accepted");
        }
        assert_eq!(decode(&bytes).unwrap(), s, "pristine bytes still decode");
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let params = HmhParams::new(2, 6, 4).unwrap();
        let s = HyperMinHash::from_items(params, 0..200u64);
        let bytes = encode(&s);
        for len in 0..bytes.len() {
            let err = decode(&bytes[..len]).unwrap_err();
            assert!(
                matches!(err, FormatError::Truncated { .. } | FormatError::BadMagic),
                "cut at {len}: unexpected {err:?}"
            );
        }
        // Trailing junk is rejected too — the length check is exact.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(decode(&extended), Err(FormatError::Truncated { .. })));
    }

    #[test]
    fn invalid_params_error_chains_to_cause() {
        use std::error::Error;
        let mut bad = encode(&sketch());
        bad[6] = 99; // q far outside the valid range
        let err = decode(&bad).unwrap_err();
        let FormatError::InvalidParams(_) = &err else {
            panic!("expected InvalidParams, got {err:?}");
        };
        let source = err.source().expect("InvalidParams carries its cause");
        assert!(source.to_string().contains('q'), "{source}");
        assert!(source.downcast_ref::<HmhError>().is_some());
        // Leaf errors terminate the chain.
        assert!(source.source().is_none());
        assert!(FormatError::BadMagic.source().is_none());
    }

    #[test]
    fn oversized_inputs_rejected_before_parsing() {
        // A buffer over the format ceiling is refused up front with the
        // typed error — no header parsing, no allocation proportional to
        // the claimed size. (The buffer itself is allocated lazily-ish
        // here; what matters is the decoder's gate fires first.)
        let huge = vec![0u8; MAX_ENCODED_LEN + 1];
        assert_eq!(
            decode(&huge),
            Err(FormatError::TooLarge { got: MAX_ENCODED_LEN + 1, max: MAX_ENCODED_LEN })
        );
        // The largest legal parameter set still fits under the ceiling.
        let params = HmhParams::new(24, 6, 26);
        if let Ok(p) = params {
            let bits = (p.num_buckets() as u64) * u64::from(p.word_bits());
            let expected = HEADER_LEN + bits.div_ceil(64) as usize * 8 + DIGEST_LEN;
            assert!(expected <= MAX_ENCODED_LEN, "{expected} > {MAX_ENCODED_LEN}");
        }
    }

    #[test]
    fn adversarial_corpus_never_panics() {
        // Hostile inputs from every class the decoder gates on: declared
        // sizes that lie, headers that are garbage, truncations at every
        // structural boundary. Every one must return a typed error (or
        // decode cleanly for the pristine case) — never panic, never
        // allocate past the ceiling.
        let good = encode(&sketch());
        let corpus: Vec<Vec<u8>> = vec![
            Vec::new(),
            vec![0x00],
            b"HMH1".to_vec(),
            b"HMH1\x01".to_vec(),
            good[..HEADER_LEN].to_vec(),
            good[..HEADER_LEN + 1].to_vec(),
            good[..good.len() - DIGEST_LEN].to_vec(),
            // Maximal parameter bytes with no body: claims a huge sketch.
            {
                let mut b = good[..HEADER_LEN].to_vec();
                (b[5], b[6], b[7]) = (24, 6, 26);
                b
            },
            // All 0xff after the magic: implausible params + lengths.
            {
                let mut b = good.clone();
                for x in &mut b[4..] {
                    *x = 0xff;
                }
                b
            },
            vec![0xff; 64],
            vec![0x41; 1024],
        ];
        for (i, bytes) in corpus.iter().enumerate() {
            assert!(decode(bytes).is_err(), "corpus[{i}] accepted");
        }
        assert!(decode(&good).is_ok());
    }

    #[test]
    fn decoded_sketches_keep_merging() {
        let params = HmhParams::new(8, 6, 10).unwrap();
        let a = HyperMinHash::from_items(params, 0..3_000u64);
        let b = HyperMinHash::from_items(params, 1_500..4_500u64);
        let a2 = decode(&encode(&a)).unwrap();
        assert_eq!(a.union(&b).unwrap(), a2.union(&b).unwrap());
    }
}
