//! The HyperLogLog sketch proper.

use crate::estimators::{self, EstimatorKind};
use crate::registers::BitPacked;
use hmh_hash::{HashableItem, RandomOracle};

/// Re-export: which estimator to use for cardinality queries.
pub use crate::estimators::EstimatorKind as Estimator;

/// Errors from sketch combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HllError {
    /// Sketches have different `p` (bucket count) or `cap` parameters.
    ParameterMismatch {
        /// Parameters of the left operand as `(p, cap)`.
        left: (u32, u32),
        /// Parameters of the right operand as `(p, cap)`.
        right: (u32, u32),
    },
    /// Sketches were built with different oracles and cannot be merged.
    OracleMismatch,
}

impl std::fmt::Display for HllError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ParameterMismatch { left, right } => {
                write!(f, "HLL parameter mismatch: (p, cap) = {left:?} vs {right:?}")
            }
            Self::OracleMismatch => write!(f, "HLL sketches use different random oracles"),
        }
    }
}

impl std::error::Error for HllError {}

/// A HyperLogLog count-distinct sketch with `2^p` registers saturating at
/// `cap`, stored bit-packed at the minimum width.
///
/// Default `cap` is 63 (6-bit registers — "storing 6 bits is sufficient for
/// set cardinalities up to O(2^64)", §2).
///
/// ```
/// use hmh_hll::HyperLogLog;
///
/// let mut sketch = HyperLogLog::new(12); // 4096 six-bit registers = 3 KiB
/// for i in 0..50_000u64 {
///     sketch.insert(&i);
/// }
/// let estimate = sketch.cardinality();
/// assert!((estimate / 50_000.0 - 1.0).abs() < 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HyperLogLog {
    p: u32,
    cap: u32,
    oracle: RandomOracle,
    registers: BitPacked,
}

impl HyperLogLog {
    /// Default register saturation value: 6-bit registers.
    pub const DEFAULT_CAP: u32 = 63;

    /// New sketch with `2^p` registers (`4 ≤ p ≤ 24`) and the default
    /// oracle.
    pub fn new(p: u32) -> Self {
        Self::with_oracle(p, Self::DEFAULT_CAP, RandomOracle::default())
    }

    /// New sketch with explicit saturation value and oracle.
    ///
    /// # Panics
    /// If `p ∉ 4..=24` or `cap ∉ 1..=64`.
    pub fn with_oracle(p: u32, cap: u32, oracle: RandomOracle) -> Self {
        assert!((4..=24).contains(&p), "p = {p} out of 4..=24");
        assert!((1..=64).contains(&cap), "cap = {cap} out of 1..=64");
        let width = 32 - cap.leading_zeros(); // bits to hold 0..=cap
        Self { p, cap, oracle, registers: BitPacked::new(width, 1 << p) }
    }

    /// Number of registers `m = 2^p`.
    pub fn num_registers(&self) -> usize {
        // hmh-lint: allow(shift-overflow-hazard) — p ∈ 4..=24 asserted by with_oracle
        1 << self.p
    }

    /// The precision parameter `p`.
    pub fn p(&self) -> u32 {
        self.p
    }

    /// The register saturation value.
    pub fn cap(&self) -> u32 {
        self.cap
    }

    /// The oracle this sketch hashes with.
    pub fn oracle(&self) -> RandomOracle {
        self.oracle
    }

    /// Sketch memory in bytes (packed registers only).
    pub fn byte_size(&self) -> usize {
        self.registers.byte_size()
    }

    /// Insert one item.
    pub fn insert<T: HashableItem + ?Sized>(&mut self, item: &T) {
        let digest = self.oracle.digest(item);
        let bucket = digest.take_bits(0, self.p) as usize;
        let (rho, _) = digest.rho_sigma(self.p, self.cap, 0);
        if rho > self.registers.get(bucket) {
            self.registers.set(bucket, rho);
        }
    }

    /// Insert a register value directly (used by the simulator and by
    /// Algorithm 3's counter hand-off from HyperMinHash).
    ///
    /// # Panics
    /// If `rho > cap`.
    pub fn observe_register(&mut self, bucket: usize, rho: u32) {
        assert!(rho <= self.cap, "rho {rho} exceeds cap {}", self.cap);
        if rho > self.registers.get(bucket) {
            self.registers.set(bucket, rho);
        }
    }

    /// Read register `bucket`.
    pub fn register(&self, bucket: usize) -> u32 {
        self.registers.get(bucket)
    }

    /// Register value histogram (`cap + 1` entries).
    pub fn histogram(&self) -> Vec<u64> {
        self.registers.histogram(self.cap)
    }

    /// Cardinality estimate with the default estimator (Ertl improved).
    pub fn cardinality(&self) -> f64 {
        self.cardinality_with(EstimatorKind::default())
    }

    /// Cardinality estimate with an explicit estimator.
    pub fn cardinality_with(&self, kind: EstimatorKind) -> f64 {
        estimators::estimate(&self.histogram(), kind)
    }

    /// Lossless union: the sketch of `A ∪ B` (register-wise max).
    pub fn union(&self, other: &Self) -> Result<Self, HllError> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        for i in 0..out.num_registers() {
            let v = other.registers.get(i);
            if v > out.registers.get(i) {
                out.registers.set(i, v);
            }
        }
        Ok(out)
    }

    /// In-place union.
    pub fn merge(&mut self, other: &Self) -> Result<(), HllError> {
        self.check_compatible(other)?;
        for i in 0..self.num_registers() {
            let v = other.registers.get(i);
            if v > self.registers.get(i) {
                self.registers.set(i, v);
            }
        }
        Ok(())
    }

    /// Check mergeability.
    pub fn check_compatible(&self, other: &Self) -> Result<(), HllError> {
        if self.p != other.p || self.cap != other.cap {
            return Err(HllError::ParameterMismatch {
                left: (self.p, self.cap),
                right: (other.p, other.cap),
            });
        }
        if self.oracle != other.oracle {
            return Err(HllError::OracleMismatch);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_across_three_decades() {
        let mut h = HyperLogLog::new(12);
        let mut next_check = 100u64;
        for i in 0..1_000_000u64 {
            h.insert(&i);
            if i + 1 == next_check {
                let e = h.cardinality();
                let n = (i + 1) as f64;
                let tol = if n < 10_000.0 { 0.05 } else { 0.06 };
                assert!(((e - n) / n).abs() < tol, "at n={n}: estimate {e}");
                next_check *= 10;
            }
        }
    }

    #[test]
    fn duplicates_do_not_count() {
        let mut h = HyperLogLog::new(10);
        for _ in 0..100 {
            for i in 0..500u64 {
                h.insert(&i);
            }
        }
        let e = h.cardinality();
        assert!((e - 500.0).abs() / 500.0 < 0.1, "estimate {e}");
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let h = HyperLogLog::new(10);
        assert_eq!(h.cardinality_with(EstimatorKind::Ffgm), 0.0);
        assert_eq!(h.cardinality_with(EstimatorKind::ErtlMle), 0.0);
    }

    #[test]
    fn union_equals_inserting_both() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        let mut ab = HyperLogLog::new(10);
        for i in 0..5_000u64 {
            a.insert(&i);
            ab.insert(&i);
        }
        for i in 2_500..7_500u64 {
            b.insert(&i);
            ab.insert(&i);
        }
        let u = a.union(&b).unwrap();
        assert_eq!(u, ab, "register-wise max must equal the direct sketch");
    }

    #[test]
    fn union_is_commutative_and_idempotent() {
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        for i in 0..1000u64 {
            a.insert(&(i * 3));
            b.insert(&(i * 7));
        }
        assert_eq!(a.union(&b).unwrap(), b.union(&a).unwrap());
        assert_eq!(a.union(&a).unwrap(), a);
    }

    #[test]
    fn mismatched_parameters_refuse_to_merge() {
        let a = HyperLogLog::new(8);
        let b = HyperLogLog::new(10);
        assert!(matches!(a.union(&b), Err(HllError::ParameterMismatch { .. })));
        let c = HyperLogLog::with_oracle(8, 63, RandomOracle::with_seed(99));
        assert_eq!(a.union(&c), Err(HllError::OracleMismatch));
    }

    #[test]
    fn small_cap_saturates_gracefully() {
        // cap=15 (4-bit registers, the Figure 6 HMH configuration's head).
        let mut h = HyperLogLog::with_oracle(10, 15, RandomOracle::default());
        for i in 0..100_000u64 {
            h.insert(&i);
        }
        let e = h.cardinality();
        // 2^cap-scale ceilings are far above 1e5; estimate should be sane.
        assert!((e - 1e5).abs() / 1e5 < 0.1, "estimate {e}");
    }

    #[test]
    fn byte_size_packs_registers() {
        // p=12, cap=63 → 6-bit registers → 4096·6/8 = 3072 bytes.
        let h = HyperLogLog::new(12);
        assert_eq!(h.byte_size(), 3072);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip() {
        let mut h = HyperLogLog::new(8);
        for i in 0..1000u64 {
            h.insert(&i);
        }
        let json = serde_json::to_string(&h).unwrap();
        let back: HyperLogLog = serde_json::from_str(&json).unwrap();
        assert_eq!(h, back);
        assert_eq!(h.cardinality(), back.cardinality());
    }
}
