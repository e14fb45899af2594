//! Packed `(counter, mantissa)` register words.
//!
//! Appendix A.1, optimization 1: "Pack the hashed tuple into a single word;
//! this enables Jaccard index computation while using only one comparison
//! per bucket." A register word is `counter << r | mantissa` in `q + r`
//! bits; the empty register is the all-zero word (an occupied register has
//! `counter ≥ 1`, so its word is ≥ `2^r` and never collides with empty).
//!
//! Appendix A.1, optimization 2 ("use the max instead of min of the
//! subbuckets") is realized by [`rank`]: a monotone re-encoding under which
//! the *better* register (larger ρ, then smaller mantissa) is the *larger*
//! word, so unions and inserts are a single compare-and-swap.

use crate::params::HmhParams;

/// A packed register word (`q + r` significant bits, 0 = empty).
pub type Word = u32;

/// Pack `(counter, mantissa)` into a word.
#[inline]
pub fn pack(params: HmhParams, counter: u32, mantissa: u32) -> Word {
    debug_assert!(counter <= params.cap(), "counter {counter} > cap");
    debug_assert!(
        u64::from(mantissa) < params.mantissa_values(),
        "mantissa {mantissa} out of range"
    );
    (counter << params.r()) | mantissa
}

/// Unpack a word into `(counter, mantissa)`.
#[inline]
pub fn unpack(params: HmhParams, word: Word) -> (u32, u32) {
    let mask = (params.mantissa_values() - 1) as u32;
    (word >> params.r(), word & mask)
}

/// Monotone rank: `rank(a) > rank(b)` iff register `a` encodes a *smaller*
/// minimum hash than `b` (larger counter wins; ties broken by smaller
/// mantissa). The empty word ranks below every occupied word.
#[inline]
pub fn rank(params: HmhParams, word: Word) -> u32 {
    let mask = (params.mantissa_values() - 1) as u32;
    // Flip the mantissa bits: smaller mantissa → larger rank within a
    // counter class. Empty (0,0) → rank = mask < 2^r ≤ any occupied rank.
    (word | mask) - (word & mask)
}

/// Which of two register words represents the smaller minimum (i.e. should
/// survive a union). Returns `true` when `candidate` beats `incumbent`.
#[inline]
pub fn beats(params: HmhParams, candidate: Word, incumbent: Word) -> bool {
    rank(params, candidate) > rank(params, incumbent)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HmhParams {
        HmhParams::new(8, 4, 6).unwrap()
    }

    #[test]
    fn pack_unpack_round_trip() {
        let p = params();
        for counter in 0..=p.cap() {
            for mantissa in [0u32, 1, 31, 63] {
                let w = pack(p, counter, mantissa);
                assert_eq!(unpack(p, w), (counter, mantissa));
            }
        }
    }

    #[test]
    fn empty_word_is_zero() {
        let p = params();
        assert_eq!(pack(p, 0, 0), 0);
        assert_eq!(unpack(p, 0), (0, 0));
    }

    #[test]
    fn occupied_words_are_nonzero() {
        let p = params();
        assert!(pack(p, 1, 0) > 0);
    }

    #[test]
    fn rank_orders_by_counter_then_inverse_mantissa() {
        let p = params();
        // Larger counter beats smaller.
        assert!(beats(p, pack(p, 5, 63), pack(p, 4, 0)));
        // Same counter: smaller mantissa beats larger.
        assert!(beats(p, pack(p, 5, 10), pack(p, 5, 11)));
        assert!(!beats(p, pack(p, 5, 11), pack(p, 5, 10)));
        // Equal registers: no strict beat.
        assert!(!beats(p, pack(p, 5, 10), pack(p, 5, 10)));
    }

    #[test]
    fn everything_beats_empty() {
        let p = params();
        for counter in 1..=p.cap() {
            for mantissa in [0u32, 63] {
                assert!(beats(p, pack(p, counter, mantissa), 0));
                assert!(!beats(p, 0, pack(p, counter, mantissa)));
            }
        }
        assert!(!beats(p, 0, 0));
    }

    #[test]
    fn rank_agrees_with_true_value_order() {
        // The register encodes the interval [s1, s2) of the underlying
        // minimum (Lemma 4); rank order must equal descending s1 order.
        let p = params();
        let s1 = |counter: u32, mantissa: u32| -> f64 {
            let r = p.r() as i32;
            let cap = p.cap();
            if counter < cap {
                (p.mantissa_values() as f64 + f64::from(mantissa)) / 2f64.powi(r + counter as i32)
            } else {
                f64::from(mantissa) / 2f64.powi(r + cap as i32 - 1)
            }
        };
        let mut entries: Vec<(u32, u32)> = Vec::new();
        for c in 1..=p.cap() {
            for m in [0u32, 1, 17, 63] {
                entries.push((c, m));
            }
        }
        for &(c1, m1) in &entries {
            for &(c2, m2) in &entries {
                let by_rank = rank(p, pack(p, c1, m1)).cmp(&rank(p, pack(p, c2, m2)));
                let by_value = s1(c2, m2).partial_cmp(&s1(c1, m1)).expect("finite");
                assert_eq!(by_rank, by_value, "({c1},{m1}) vs ({c2},{m2})");
            }
        }
    }
}
