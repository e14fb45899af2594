//! Document shingling — Broder's original MinHash use case ("estimating
//! the resemblance of documents by looking at the Jaccard index of
//! 'shingles' … contained within the documents", §1.1).
//!
//! A document is reduced to the set of hashes of its word `w`-grams;
//! document resemblance is the Jaccard index of those sets.

use hmh_hash::xxhash::xxh64;

/// Split `text` into lowercase word tokens (alphanumeric runs).
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            current.extend(ch.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// The set of hashed word `w`-shingles of `text` (duplicates removed).
///
/// # Panics
/// If `w == 0`.
pub fn shingles(text: &str, w: usize) -> Vec<u64> {
    assert!(w > 0, "shingle width must be positive");
    let tokens = tokenize(text);
    if tokens.len() < w {
        return Vec::new();
    }
    let mut out: Vec<u64> = tokens
        .windows(w)
        .map(|gram| {
            let joined = gram.join("\u{1f}"); // unit separator avoids gluing
            xxh64(joined.as_bytes(), 0x5a17_9e55)
        })
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// A tiny synthetic "document" generator: deterministic pseudo-sentences
/// over a fixed vocabulary, with a mutation knob to create
/// near-duplicates.
pub fn synthetic_document(words: usize, seed: u64, mutation_rate: f64) -> String {
    const VOCAB: [&str; 24] = [
        "stream",
        "sketch",
        "jaccard",
        "union",
        "bucket",
        "hash",
        "minimum",
        "counter",
        "mantissa",
        "collision",
        "estimate",
        "cardinality",
        "index",
        "partition",
        "document",
        "query",
        "survey",
        "network",
        "packet",
        "distinct",
        "probability",
        "random",
        "oracle",
        "bitstring",
    ];
    let mut out = String::new();
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..words {
        let roll = next();
        // Mutation: replace the deterministic word stream with a seeded
        // detour at the given rate.
        let idx = if (roll >> 32) as f64 / 2f64.powi(32) < mutation_rate {
            (roll % VOCAB.len() as u64) as usize
        } else {
            (i * 7 + 3) % VOCAB.len()
        };
        if i > 0 {
            out.push(' ');
        }
        out.push_str(VOCAB[idx]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_normalizes() {
        assert_eq!(tokenize("Hello, World! 123"), vec!["hello", "world", "123"]);
        assert_eq!(tokenize(""), Vec::<String>::new());
        assert_eq!(tokenize("  --- "), Vec::<String>::new());
        assert_eq!(tokenize("Don't"), vec!["don", "t"]);
    }

    #[test]
    fn shingles_basic() {
        let s = shingles("a b c d", 2);
        assert_eq!(s.len(), 3); // ab, bc, cd
        let s1 = shingles("a b c d", 4);
        assert_eq!(s1.len(), 1);
        assert!(shingles("a b", 3).is_empty());
    }

    #[test]
    fn shingles_are_order_sensitive_but_duplicate_free() {
        let fwd = shingles("one two three", 2);
        let rev = shingles("three two one", 2);
        assert_ne!(fwd, rev);
        let rep = shingles("x y x y x y", 2);
        assert_eq!(rep.len(), 2); // xy and yx only
    }

    #[test]
    fn boundary_bytes_do_not_glue() {
        // ("ab", "c") must differ from ("a", "bc").
        let s1 = shingles("ab c", 2);
        let s2 = shingles("a bc", 2);
        assert_ne!(s1, s2);
    }

    #[test]
    fn identical_documents_have_jaccard_one() {
        let d = synthetic_document(500, 1, 0.0);
        let a = shingles(&d, 3);
        let b = shingles(&d, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn mutation_lowers_resemblance_monotonically() {
        let base = synthetic_document(2000, 42, 0.0);
        let sim = |rate: f64| -> f64 {
            let other = synthetic_document(2000, 43, rate);
            let a: crate::ExactSet = shingles(&base, 3).into_iter().collect();
            let b: crate::ExactSet = shingles(&other, 3).into_iter().collect();
            a.jaccard(&b)
        };
        let low = sim(0.05);
        let high = sim(0.5);
        assert!(low > high, "5% mutation {low} should resemble more than 50% {high}");
        assert!(sim(0.0) > 0.99, "unmutated copies are near-identical");
    }
}
