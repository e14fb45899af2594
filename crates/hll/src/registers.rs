//! Register storage: bit-packed fixed-width cells over `u64` words.
//!
//! HyperLogLog needs 6-bit registers ("often 6 bits", §2); HyperMinHash
//! packs a `q`-bit counter and an `r`-bit mantissa into one `q + r`-bit
//! word per bucket (Appendix A.1 optimization 1: "pack the hashed tuple
//! into a single word"). [`BitPacked`] serves both: fixed cell width of
//! 1..=32 bits, cells never straddling is *not* assumed — cells may span
//! two words.

/// A vector of fixed-width unsigned cells packed into `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct BitPacked {
    width: u32,
    len: usize,
    words: Vec<u64>,
}

impl BitPacked {
    /// `len` zeroed cells of `width` bits each.
    ///
    /// # Panics
    /// If `width` is 0 or exceeds 32.
    pub fn new(width: u32, len: usize) -> Self {
        assert!((1..=32).contains(&width), "cell width {width} out of 1..=32");
        let bits = (len as u64) * u64::from(width);
        let words = vec![0u64; bits.div_ceil(64) as usize];
        Self { width, len, words }
    }

    /// Cell width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff there are no cells.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes used by the packed words (the sketch-size accounting the
    /// paper's 256-byte / 64-KiB claims refer to).
    pub fn byte_size(&self) -> usize {
        self.words.len() * 8
    }

    /// Read cell `i`.
    ///
    /// # Panics
    /// If `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        assert!(i < self.len, "cell {i} out of bounds ({})", self.len);
        let bit = (i as u64) * u64::from(self.width);
        let word = (bit / 64) as usize;
        let offset = (bit % 64) as u32;
        let mask = Self::mask(self.width);
        let lo = self.words[word] >> offset;
        let value = if offset + self.width <= 64 {
            lo
        } else {
            lo | (self.words[word + 1] << (64 - offset))
        };
        (value & mask) as u32
    }

    /// Write cell `i`.
    ///
    /// # Panics
    /// If `i >= len` or `value` does not fit in `width` bits.
    #[inline]
    pub fn set(&mut self, i: usize, value: u32) {
        assert!(i < self.len, "cell {i} out of bounds ({})", self.len);
        let mask = Self::mask(self.width);
        assert!(u64::from(value) <= mask, "value {value} does not fit in {} bits", self.width);
        let bit = (i as u64) * u64::from(self.width);
        let word = (bit / 64) as usize;
        let offset = (bit % 64) as u32;
        self.words[word] &= !(mask << offset);
        self.words[word] |= u64::from(value) << offset;
        if offset + self.width > 64 {
            let high_bits = offset + self.width - 64;
            let high_mask = Self::mask(high_bits);
            self.words[word + 1] &= !high_mask;
            self.words[word + 1] |= u64::from(value) >> (64 - offset);
        }
    }

    /// Iterate over all cell values.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Raw backing words (little-endian cell order) — for wire formats.
    pub fn raw_words(&self) -> &[u64] {
        &self.words
    }

    /// Rebuild from raw backing words as produced by [`Self::raw_words`].
    ///
    /// # Errors
    /// If the word count does not match `width`/`len`, or padding bits
    /// beyond the last cell are non-zero (corrupt or truncated payload).
    pub fn from_raw_words(width: u32, len: usize, words: Vec<u64>) -> Result<Self, String> {
        assert!((1..=32).contains(&width), "cell width {width} out of 1..=32");
        let bits = (len as u64) * u64::from(width);
        let expect = bits.div_ceil(64) as usize;
        if words.len() != expect {
            return Err(format!("expected {expect} words for {len}×{width}b, got {}", words.len()));
        }
        let tail_bits = (bits % 64) as u32;
        if tail_bits != 0 {
            let last = *words.last().expect("invariant: len > 0 when tail_bits > 0");
            if last >> tail_bits != 0 {
                return Err("non-zero padding bits past the last cell".to_string());
            }
        }
        Ok(Self { width, len, words })
    }

    /// Histogram of cell values: `hist[v]` = number of cells equal to `v`,
    /// with `max_value + 1` entries. The estimator functions consume this.
    pub fn histogram(&self, max_value: u32) -> Vec<u64> {
        let mut hist = vec![0u64; max_value as usize + 1];
        for v in self.iter() {
            hist[v as usize] += 1;
        }
        hist
    }

    #[inline]
    fn mask(width: u32) -> u64 {
        if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_widths() {
        for width in [1u32, 3, 6, 7, 8, 13, 16, 17, 31, 32] {
            let len = 100;
            let mut p = BitPacked::new(width, len);
            let mask = if width == 32 { u32::MAX } else { (1u32 << width) - 1 };
            for i in 0..len {
                let v = (i as u32).wrapping_mul(0x9e37_79b9) & mask;
                p.set(i, v);
            }
            for i in 0..len {
                let v = (i as u32).wrapping_mul(0x9e37_79b9) & mask;
                assert_eq!(p.get(i), v, "width {width}, cell {i}");
            }
        }
    }

    #[test]
    fn neighbours_do_not_clobber() {
        let mut p = BitPacked::new(6, 10);
        p.set(3, 63);
        p.set(4, 0);
        p.set(2, 0);
        assert_eq!(p.get(3), 63);
        p.set(3, 0);
        assert_eq!(p.get(2), 0);
        assert_eq!(p.get(4), 0);
    }

    #[test]
    fn cells_straddling_word_boundaries() {
        // width 6: cell 10 occupies bits 60..66, straddling words 0 and 1.
        let mut p = BitPacked::new(6, 22);
        p.set(10, 0b101_011);
        assert_eq!(p.get(10), 0b101_011);
        assert_eq!(p.get(9), 0);
        assert_eq!(p.get(11), 0);
        // Overwrite with a different straddling value.
        p.set(10, 0b010_100);
        assert_eq!(p.get(10), 0b010_100);
    }

    #[test]
    fn byte_size_is_word_rounded() {
        // 256 cells × 8 bits = 256 bytes (the Figure 6 sketch size).
        assert_eq!(BitPacked::new(8, 256).byte_size(), 256);
        // 2^15 cells × 16 bits = 64 KiB (the abstract's headline size).
        assert_eq!(BitPacked::new(16, 1 << 15).byte_size(), 64 * 1024);
        // Non-divisible: 10 cells × 6 bits = 60 bits → one word.
        assert_eq!(BitPacked::new(6, 10).byte_size(), 8);
    }

    #[test]
    fn histogram_counts() {
        let mut p = BitPacked::new(4, 8);
        for (i, v) in [0u32, 1, 1, 2, 2, 2, 15, 15].into_iter().enumerate() {
            p.set(i, v);
        }
        let h = p.histogram(15);
        assert_eq!(h[0], 1);
        assert_eq!(h[1], 2);
        assert_eq!(h[2], 3);
        assert_eq!(h[15], 2);
        assert_eq!(h.iter().sum::<u64>(), 8);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn set_rejects_oversized_values() {
        BitPacked::new(4, 4).set(0, 16);
    }

    #[test]
    fn raw_word_round_trip() {
        let mut p = BitPacked::new(13, 37);
        for i in 0..37 {
            p.set(i, (i as u32 * 599) & 0x1fff);
        }
        let rebuilt =
            BitPacked::from_raw_words(13, 37, p.raw_words().to_vec()).expect("valid payload");
        assert_eq!(rebuilt, p);
    }

    #[test]
    fn from_raw_words_validates() {
        assert!(BitPacked::from_raw_words(8, 16, vec![0; 3]).is_err(), "wrong count");
        // 4 cells × 4 bits = 16 bits in one word; padding above bit 16
        // must be zero.
        assert!(BitPacked::from_raw_words(4, 4, vec![1u64 << 20]).is_err(), "dirty padding");
        assert!(BitPacked::from_raw_words(4, 4, vec![0xffff]).is_ok());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_rejects_out_of_bounds() {
        let _ = BitPacked::new(4, 4).get(4);
    }
}
