//! Fixture: `truncating-cast` must stay silent — masked operand,
//! bounded call, post-cast mask, and an assert within the guard window,
//! also when rustfmt wraps the bounding statement over several lines.

pub fn masked(word: u64) -> u32 {
    (word & 0xffff_ffff) as u32
}

pub fn sliced(digest: &Digest128) -> u32 {
    digest.take_bits(0, 6) as u32
}

pub fn masked_after(word: u64) -> u32 {
    (word as u32) & 0x00ff_ffff
}

pub fn asserted(len: usize) -> u16 {
    debug_assert!(len <= 65_535, "record length fits the wire field");
    len as u16
}

pub fn wrapped_bound(digest: &Digest128) -> u32 {
    let mantissa =
        digest.take_bits(0, 6);
    mantissa as u32
}

pub fn wrapped_assert(len: usize) -> u16 {
    debug_assert!(
        len <= 65_535,
        "record length fits the wire field"
    );
    len as u16
}
