//! Minimal arbitrary-precision unsigned integers.
//!
//! Just the operations [`crate::bigfloat::BigFloat`] needs to evaluate
//! Algorithm 5 verbatim ("BigInts must be used for large n and m"):
//! addition, subtraction, multiplication, shifts and comparisons over
//! little-endian `u64` limbs. Schoolbook multiplication is plenty — the
//! mantissas involved stay under a few hundred limbs.

use std::cmp::Ordering;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs, no
/// trailing zero limbs; zero is the empty limb vector).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        Self { limbs: Vec::new() }
    }

    /// One.
    pub fn one() -> Self {
        Self::from_u64(1)
    }

    /// From a `u64`.
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Self { limbs: vec![v] }
        }
    }

    /// From a `u128`.
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut limbs = vec![lo, hi];
        let mut out = Self { limbs: std::mem::take(&mut limbs) };
        out.normalize();
        out
    }

    /// From little-endian limbs (trailing zeros allowed; normalized here).
    pub fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = Self { limbs };
        out.normalize();
        out
    }

    /// Little-endian limb view.
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Number of significant bits (0 for zero).
    pub fn bit_length(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => (self.limbs.len() as u64) * 64 - u64::from(top.leading_zeros()),
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (&self.limbs, &other.limbs)
        } else {
            (&other.limbs, &self.limbs)
        };
        let mut out = Vec::with_capacity(long.len() + 1);
        let mut carry = 0u64;
        for (i, &l) in long.iter().enumerate() {
            let b = short.get(i).copied().unwrap_or(0);
            let (s1, c1) = l.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = u64::from(c1) + u64::from(c2);
        }
        if carry > 0 {
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// `self - other`; panics if `other > self`.
    pub fn sub(&self, other: &Self) -> Self {
        assert!(self.cmp_big(other) != Ordering::Less, "BigUint underflow");
        let mut out = Vec::with_capacity(self.limbs.len());
        let mut borrow = 0u64;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = u64::from(b1) + u64::from(b2);
        }
        debug_assert_eq!(borrow, 0);
        Self::from_limbs(out)
    }

    /// `self * other` (schoolbook).
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let t = u128::from(a) * u128::from(b) + u128::from(out[i + j]) + carry;
                out[i + j] = t as u64;
                carry = t >> 64;
            }
            let mut k = i + other.limbs.len();
            while carry > 0 {
                let t = u128::from(out[k]) + carry;
                out[k] = t as u64;
                carry = t >> 64;
                k += 1;
            }
        }
        Self::from_limbs(out)
    }

    /// `self << bits`.
    pub fn shl(&self, bits: u64) -> Self {
        if self.is_zero() || bits == 0 {
            return self.clone();
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = (bits % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            if carry > 0 {
                out.push(carry);
            }
        }
        Self::from_limbs(out)
    }

    /// `self >> bits` (floor).
    pub fn shr(&self, bits: u64) -> Self {
        let limb_shift = (bits / 64) as usize;
        if limb_shift >= self.limbs.len() {
            return Self::zero();
        }
        let bit_shift = (bits % 64) as u32;
        let src = &self.limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        Self::from_limbs(out)
    }

    /// Total-order comparison.
    pub fn cmp_big(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for i in (0..self.limbs.len()).rev() {
                    match self.limbs[i].cmp(&other.limbs[i]) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }

    /// Approximate as `mantissa · 2^exponent` with a 53-bit mantissa in
    /// `[0.5, 1)` — i.e. the value as an `f64` times a power of two, exact
    /// for values that fit.
    pub fn to_f64_exp(&self) -> (f64, i64) {
        let bits = self.bit_length();
        if bits == 0 {
            return (0.0, 0);
        }
        // Take the top 64 bits, then scale.
        let top =
            if bits <= 64 { self.shl(64 - bits).limbs[0] } else { self.shr(bits - 64).limbs[0] };
        // top has its MSB set; value ≈ top · 2^(bits-64).
        (top as f64 / 2f64.powi(64), bits as i64)
    }

    /// Lossy conversion to `f64` (may overflow to `inf`).
    pub fn to_f64(&self) -> f64 {
        let (m, e) = self.to_f64_exp();
        m * 2f64.powi(e.clamp(i64::from(i32::MIN), i64::from(i32::MAX)) as i32)
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_big(other)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_normalization() {
        assert!(BigUint::zero().is_zero());
        assert_eq!(BigUint::from_limbs(vec![5, 0, 0]).limbs(), &[5]);
        assert_eq!(BigUint::from_u128(u128::MAX).bit_length(), 128);
        assert_eq!(BigUint::from_u64(1).bit_length(), 1);
        assert_eq!(BigUint::from_u64(255).bit_length(), 8);
    }

    #[test]
    fn add_with_carry_chain() {
        let a = BigUint::from_u128(u128::MAX);
        let b = BigUint::one();
        let s = a.add(&b);
        assert_eq!(s.limbs(), &[0, 0, 1]);
        // Commutative.
        assert_eq!(b.add(&a), s);
    }

    #[test]
    fn sub_with_borrow_chain() {
        let a = BigUint::from_limbs(vec![0, 0, 1]); // 2^128
        let b = BigUint::one();
        assert_eq!(a.sub(&b), BigUint::from_u128(u128::MAX));
        assert!(a.sub(&a).is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = BigUint::one().sub(&BigUint::from_u64(2));
    }

    #[test]
    fn mul_matches_u128() {
        let a = 0xdead_beef_1234_5678u64;
        let b = 0xcafe_f00d_8765_4321u64;
        let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
        assert_eq!(prod, BigUint::from_u128(u128::from(a) * u128::from(b)));
    }

    #[test]
    fn mul_big() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = BigUint::from_u128(u128::MAX);
        let sq = a.mul(&a);
        let expect = BigUint::one().shl(256).sub(&BigUint::one().shl(129)).add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts_round_trip() {
        let a = BigUint::from_u128(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        for bits in [0u64, 1, 63, 64, 65, 127, 130] {
            assert_eq!(a.shl(bits).shr(bits), a, "bits={bits}");
        }
        assert_eq!(BigUint::from_u64(0b1011).shr(2).limbs(), &[0b10]);
    }

    #[test]
    fn comparison() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u128(1u128 << 100);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp_big(&a), Ordering::Equal);
    }

    #[test]
    fn to_f64_small_and_large() {
        assert_eq!(BigUint::from_u64(12345).to_f64(), 12345.0);
        assert_eq!(BigUint::zero().to_f64(), 0.0);
        let big = BigUint::one().shl(100);
        assert_eq!(big.to_f64(), 2f64.powi(100));
        // 2^100 + 2^50: f64 representable exactly.
        let v = big.add(&BigUint::one().shl(50));
        assert_eq!(v.to_f64(), 2f64.powi(100) + 2f64.powi(50));
    }
}
