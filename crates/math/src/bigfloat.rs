//! Arbitrary-precision binary floating point: `± mantissa · 2^exponent`.
//!
//! Exactly what Algorithm 5 needs and nothing more: the paper notes the
//! exact expected-collision computation "often results in floating point
//! errors unless BigInts are used". `hmh-core` evaluates Algorithm 5 with
//! [`BigFloat`] at a few hundred bits of precision as the reference against
//! which the fast log-space kernels are validated.
//!
//! Add/sub/mul are exact (mantissas grow); callers bound growth with
//! [`BigFloat::round_to`] or by using [`BigFloat::powi_prec`], which rounds
//! after every squaring step. Rounding truncates toward zero — at 192+ bits
//! of working precision the accumulated error is below 2^-120 relative,
//! orders of magnitude finer than anything the experiments resolve.

use crate::bigint::BigUint;
use std::cmp::Ordering;

/// A signed arbitrary-precision binary float.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BigFloat {
    negative: bool,
    mant: BigUint,
    /// Value = `(-1)^negative · mant · 2^exp`.
    exp: i64,
}

impl BigFloat {
    /// Zero.
    pub fn zero() -> Self {
        Self { negative: false, mant: BigUint::zero(), exp: 0 }
    }

    /// One.
    pub fn one() -> Self {
        Self { negative: false, mant: BigUint::one(), exp: 0 }
    }

    /// Exact value `numer · 2^(-log2_denom)` — the dyadic interval
    /// boundaries `b = (2^r + j) / 2^(p+r+i)` of Algorithm 5.
    pub fn from_dyadic(numer: u64, log2_denom: i64) -> Self {
        Self { negative: false, mant: BigUint::from_u64(numer), exp: -log2_denom }.normalized()
    }

    /// Exact decomposition of a finite `f64`.
    ///
    /// # Panics
    /// On NaN or infinity.
    pub fn from_f64(v: f64) -> Self {
        assert!(v.is_finite(), "BigFloat::from_f64({v})");
        if v == 0.0 {
            return Self::zero();
        }
        let bits = v.abs().to_bits();
        let exp_field = (bits >> 52) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, exp) = if exp_field == 0 {
            (frac, -1074) // subnormal
        } else {
            (frac | (1u64 << 52), exp_field - 1075)
        };
        Self { negative: v < 0.0, mant: BigUint::from_u64(mant), exp }.normalized()
    }

    /// True iff zero.
    pub fn is_zero(&self) -> bool {
        self.mant.is_zero()
    }

    /// True iff negative (zero is non-negative).
    pub fn is_negative(&self) -> bool {
        self.negative && !self.is_zero()
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        if self.is_zero() {
            self.clone()
        } else {
            Self { negative: !self.negative, ..self.clone() }
        }
    }

    /// Magnitude gap (in bits) beyond which [`BigFloat::add`] drops the
    /// smaller operand instead of materializing the alignment. Operands
    /// separated by more than 2^16 binary orders of magnitude cannot
    /// interact at any precision this crate uses, while exact alignment
    /// would allocate a mantissa of that many bits (powers like
    /// `(1−b)^{2^40}` have exponents near −10^9).
    pub const ADD_ALIGN_LIMIT: i64 = 1 << 16;

    /// `self + other` — exact, except that an operand more than
    /// [`Self::ADD_ALIGN_LIMIT`] binary orders of magnitude below the other
    /// is treated as zero (see that constant).
    pub fn add(&self, other: &Self) -> Self {
        if self.is_zero() {
            return other.clone();
        }
        if other.is_zero() {
            return self.clone();
        }
        // Negligibility fast path: compare the larger operand's lowest
        // retained bit against the smaller operand's highest bit.
        let top_self = self.exp + self.mant.bit_length() as i64;
        let top_other = other.exp + other.mant.bit_length() as i64;
        if self.exp > top_other + Self::ADD_ALIGN_LIMIT {
            return self.clone();
        }
        if other.exp > top_self + Self::ADD_ALIGN_LIMIT {
            return other.clone();
        }
        let e = self.exp.min(other.exp);
        let a = self.mant.shl((self.exp - e) as u64);
        let b = other.mant.shl((other.exp - e) as u64);
        if self.negative == other.negative {
            return Self { negative: self.negative, mant: a.add(&b), exp: e }.normalized();
        }
        match a.cmp_big(&b) {
            Ordering::Equal => Self::zero(),
            Ordering::Greater => {
                Self { negative: self.negative, mant: a.sub(&b), exp: e }.normalized()
            }
            Ordering::Less => {
                Self { negative: other.negative, mant: b.sub(&a), exp: e }.normalized()
            }
        }
    }

    /// `self - other`, exact.
    pub fn sub(&self, other: &Self) -> Self {
        self.add(&other.neg())
    }

    /// `self * other`, exact.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        Self {
            negative: self.negative != other.negative,
            mant: self.mant.mul(&other.mant),
            exp: self.exp + other.exp,
        }
        .normalized()
    }

    /// `self^n` by square-and-multiply, rounding each intermediate to
    /// `prec` mantissa bits (truncation toward zero).
    pub fn powi_prec(&self, n: u128, prec: u64) -> Self {
        let mut result = Self::one();
        let mut base = self.round_to(prec);
        let mut e = n;
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base).round_to(prec);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base).round_to(prec);
            }
        }
        result
    }

    /// Round (truncate toward zero) to at most `prec` mantissa bits.
    pub fn round_to(&self, prec: u64) -> Self {
        let bits = self.mant.bit_length();
        if bits <= prec {
            return self.clone();
        }
        let drop = bits - prec;
        Self { negative: self.negative, mant: self.mant.shr(drop), exp: self.exp + drop as i64 }
            .normalized()
    }

    /// Strip trailing zero bits from the mantissa (keeps the value,
    /// canonicalizes the representation so `PartialEq` is semantic).
    fn normalized(mut self) -> Self {
        if self.mant.is_zero() {
            return Self::zero();
        }
        let limbs = self.mant.limbs();
        let mut tz = 0u64;
        for &l in limbs {
            if l == 0 {
                tz += 64;
            } else {
                tz += u64::from(l.trailing_zeros());
                break;
            }
        }
        if tz > 0 {
            self.mant = self.mant.shr(tz);
            self.exp += tz as i64;
        }
        self
    }

    /// Compare by value.
    pub fn cmp_val(&self, other: &Self) -> Ordering {
        match (self.is_zero(), other.is_zero()) {
            (true, true) => return Ordering::Equal,
            (true, false) => {
                return if other.negative { Ordering::Greater } else { Ordering::Less }
            }
            (false, true) => return if self.negative { Ordering::Less } else { Ordering::Greater },
            _ => {}
        }
        match (self.negative, other.negative) {
            (false, true) => Ordering::Greater,
            (true, false) => Ordering::Less,
            (neg, _) => {
                let mag = self.cmp_abs(other);
                if neg {
                    mag.reverse()
                } else {
                    mag
                }
            }
        }
    }

    fn cmp_abs(&self, other: &Self) -> Ordering {
        // Compare mant_a·2^ea vs mant_b·2^eb via bit positions first.
        let top_a = self.exp + self.mant.bit_length() as i64;
        let top_b = other.exp + other.mant.bit_length() as i64;
        match top_a.cmp(&top_b) {
            Ordering::Equal => {
                let e = self.exp.min(other.exp);
                self.mant
                    .shl((self.exp - e) as u64)
                    .cmp_big(&other.mant.shl((other.exp - e) as u64))
            }
            ord => ord,
        }
    }

    /// Lossy conversion to `f64` (overflow → ±inf, underflow → ±0).
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let (m, bits) = self.mant.to_f64_exp();
        let total_exp = bits + self.exp;
        let v = if !(-1000..=1000).contains(&total_exp) {
            // Split the scaling to dodge intermediate overflow/underflow.
            let half = total_exp / 2;
            m * 2f64.powi(half.clamp(-1074, 1024) as i32)
                * 2f64.powi((total_exp - half).clamp(-1074, 1024) as i32)
        } else {
            m * 2f64.powi(total_exp as i32)
        };
        if self.negative {
            -v
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bf(v: f64) -> BigFloat {
        BigFloat::from_f64(v)
    }

    #[test]
    fn f64_round_trips_exactly() {
        for v in [0.0, 1.0, -1.0, 0.5, std::f64::consts::PI, 1e-300, 1e300, -2.5e-10] {
            assert_eq!(bf(v).to_f64(), v, "{v}");
        }
    }

    #[test]
    fn dyadic_construction() {
        // 5 / 2^3 = 0.625
        assert_eq!(BigFloat::from_dyadic(5, 3).to_f64(), 0.625);
        // (2^10 + 7) / 2^100
        let v = BigFloat::from_dyadic(1031, 100);
        assert_eq!(v.to_f64(), 1031.0 / 2f64.powi(100));
    }

    #[test]
    fn exact_addition_beyond_f64() {
        // 1 + 2^-100 − 1 = 2^-100, which plain f64 cannot do.
        let tiny = BigFloat::from_dyadic(1, 100);
        let v = BigFloat::one().add(&tiny).sub(&BigFloat::one());
        assert_eq!(v.to_f64(), 2f64.powi(-100));
    }

    #[test]
    fn signed_arithmetic() {
        assert_eq!(bf(3.0).sub(&bf(5.0)).to_f64(), -2.0);
        assert_eq!(bf(-3.0).mul(&bf(-2.0)).to_f64(), 6.0);
        assert_eq!(bf(-3.0).mul(&bf(2.0)).to_f64(), -6.0);
        assert_eq!(bf(2.5).add(&bf(-2.5)).to_f64(), 0.0);
        assert!(!bf(2.5).sub(&bf(2.5)).is_negative(), "zero is non-negative");
    }

    #[test]
    fn powers_match_f64_when_representable() {
        let v = bf(0.999755859375); // 1 - 2^-12, exact in f64
        let got = v.powi_prec(1000, 256).to_f64();
        let expect = 0.999755859375f64.powi(1000);
        assert!(((got - expect) / expect).abs() < 1e-13, "{got} vs {expect}");
    }

    #[test]
    fn huge_exponent_power() {
        // (1 - 2^-20)^(2^24) ≈ exp(-16); log-space f64 agrees to ~1e-12.
        let b = BigFloat::one().sub(&BigFloat::from_dyadic(1, 20));
        let got = b.powi_prec(1 << 24, 256).to_f64();
        let expect = crate::logspace::pow1m(2f64.powi(-20), 2f64.powi(24));
        assert!(((got - expect) / expect).abs() < 1e-10, "{got} vs {expect}");
    }

    #[test]
    fn add_drops_astronomically_smaller_operands() {
        // 1 + 2^-100000 returns 1 instantly instead of materializing a
        // 100k-bit mantissa; the gap guard triggers both ways.
        let tiny = BigFloat::from_dyadic(1, 100_000);
        assert_eq!(BigFloat::one().add(&tiny), BigFloat::one());
        assert_eq!(tiny.add(&BigFloat::one()), BigFloat::one());
        // Within the limit, addition stays exact.
        let near = BigFloat::from_dyadic(1, 1000);
        assert_ne!(BigFloat::one().add(&near), BigFloat::one());
    }

    #[test]
    fn comparisons() {
        assert_eq!(bf(1.0).cmp_val(&bf(2.0)), Ordering::Less);
        assert_eq!(bf(-1.0).cmp_val(&bf(1.0)), Ordering::Less);
        assert_eq!(bf(-1.0).cmp_val(&bf(-2.0)), Ordering::Greater);
        assert_eq!(bf(0.0).cmp_val(&bf(0.0)), Ordering::Equal);
        assert_eq!(bf(0.0).cmp_val(&bf(-1.0)), Ordering::Greater);
        // Different exponents, same leading bit position.
        assert_eq!(bf(1.5).cmp_val(&bf(1.25)), Ordering::Greater);
    }

    #[test]
    fn round_to_truncates() {
        // 1 + 2^-100 rounded to 50 bits is exactly 1.
        let v = BigFloat::one().add(&BigFloat::from_dyadic(1, 100));
        assert_eq!(v.round_to(50).to_f64(), 1.0);
        // Rounding something already small is the identity.
        assert_eq!(bf(0.75).round_to(50), bf(0.75));
    }

    #[test]
    fn normalization_makes_eq_semantic() {
        // 1.0 computed two ways compares equal structurally.
        let a = BigFloat::from_dyadic(4, 2);
        let b = BigFloat::one();
        assert_eq!(a, b);
    }
}
