//! Fixture: `truncating-cast` must fire — `word` keeps only its low 32
//! bits with nothing bounding it, and `low`'s wrapped `let` ends before
//! the bounded call that follows it.

pub fn to_register(word: u64) -> u32 {
    word as u32
}

pub fn bound_in_the_next_statement(word: u64, digest: &Digest128) -> u32 {
    let low =
        word.wrapping_mul(0x9E37_79B9);
    let _bits = digest.take_bits(0, 6);
    low as u32
}
