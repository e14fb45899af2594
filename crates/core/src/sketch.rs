//! The HyperMinHash sketch: construction (Algorithm 1), streaming inserts,
//! and lossless unions (Algorithm 2).

use crate::error::HmhError;
use crate::params::HmhParams;
use crate::registers::{self, Word};
use hmh_hash::{HashableItem, RandomOracle};
use hmh_hll::registers::BitPacked;

/// A HyperMinHash sketch.
///
/// `2^p` buckets, each a packed `(q-bit counter, r-bit mantissa)` word
/// holding the adaptive-precision encoding of the minimum hash that fell
/// into the bucket. Supports streaming [`insert`](Self::insert)s and
/// lossless [`union`](Self::union)s; Jaccard, cardinality and intersection
/// queries live in the sibling modules and are exposed as methods here.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HyperMinHash {
    params: HmhParams,
    oracle: RandomOracle,
    words: BitPacked,
}

impl HyperMinHash {
    /// New empty sketch with the default (shared) oracle.
    pub fn new(params: HmhParams) -> Self {
        Self::with_oracle(params, RandomOracle::default())
    }

    /// New empty sketch with an explicit oracle.
    pub fn with_oracle(params: HmhParams, oracle: RandomOracle) -> Self {
        Self { params, oracle, words: BitPacked::new(params.word_bits(), params.num_buckets()) }
    }

    /// Build a sketch from an iterator of items.
    pub fn from_items<T: HashableItem, I: IntoIterator<Item = T>>(
        params: HmhParams,
        items: I,
    ) -> Self {
        let mut s = Self::new(params);
        for item in items {
            s.insert(&item);
        }
        s
    }

    /// The sketch parameters.
    pub fn params(&self) -> HmhParams {
        self.params
    }

    /// The random oracle.
    pub fn oracle(&self) -> RandomOracle {
        self.oracle
    }

    /// Sketch size in bytes (packed register words).
    pub fn byte_size(&self) -> usize {
        self.params.byte_size()
    }

    /// Insert one item (Algorithm 1's loop body): hash, partition by the
    /// top `p` bits, and keep the register encoding the smaller minimum.
    pub fn insert<T: HashableItem + ?Sized>(&mut self, item: &T) {
        let digest = self.oracle.digest(item);
        let params = &self.params;
        let bucket = digest.take_bits(0, params.p()) as usize;
        let (counter, mantissa) = digest.rho_sigma(params.p(), params.cap(), params.r());
        self.observe(bucket, counter, mantissa as u32);
    }

    /// Insert a batch of items (the bulk-ingest fast path).
    ///
    /// Hoists the parameter loads (`p`, `cap`, `r`) and the oracle out of
    /// the per-item loop so the hot path is hash → slice → observe with no
    /// repeated struct reads. Bit-for-bit equivalent to calling
    /// [`insert`](Self::insert) on each item in order — register updates
    /// commute (max is associative and commutative), so batching can never
    /// change the resulting sketch.
    pub fn insert_batch<T: HashableItem>(&mut self, items: &[T]) {
        let oracle = self.oracle;
        let p = self.params.p();
        let cap = self.params.cap();
        let r = self.params.r();
        for item in items {
            let digest = oracle.digest(item);
            let bucket = digest.take_bits(0, p) as usize;
            let (counter, mantissa) = digest.rho_sigma(p, cap, r);
            self.observe(bucket, counter, mantissa as u32);
        }
    }

    /// Record a register observation directly (used by the simulator and
    /// by deserialization-free bulk loads).
    ///
    /// # Panics
    /// If `bucket`, `counter` or `mantissa` are out of range.
    #[inline]
    pub fn observe(&mut self, bucket: usize, counter: u32, mantissa: u32) {
        let candidate = registers::pack(self.params, counter, mantissa);
        let incumbent = self.words.get(bucket);
        if registers::beats(self.params, candidate, incumbent) {
            self.words.set(bucket, candidate);
        }
    }

    /// Raw packed register storage (for the binary wire format).
    pub(crate) fn packed(&self) -> &BitPacked {
        &self.words
    }

    /// Rebuild from decoded parts (wire-format decode path).
    pub(crate) fn from_packed(params: HmhParams, oracle: RandomOracle, words: BitPacked) -> Self {
        debug_assert_eq!(words.len(), params.num_buckets());
        debug_assert_eq!(words.width(), params.word_bits());
        Self { params, oracle, words }
    }

    /// The packed word of `bucket` (0 = empty).
    pub fn word(&self, bucket: usize) -> Word {
        self.words.get(bucket)
    }

    /// The `(counter, mantissa)` register of `bucket`, or `None` if empty.
    pub fn register(&self, bucket: usize) -> Option<(u32, u32)> {
        let w = self.words.get(bucket);
        (w != 0).then(|| registers::unpack(self.params, w))
    }

    /// Number of non-empty buckets.
    pub fn occupied(&self) -> usize {
        self.words.iter().filter(|&w| w != 0).count()
    }

    /// True iff no bucket is occupied.
    pub fn is_empty(&self) -> bool {
        self.occupied() == 0
    }

    /// Iterate over packed words, bucket order.
    pub fn words(&self) -> impl Iterator<Item = Word> + '_ {
        self.words.iter()
    }

    /// Histogram of LogLog counters (`cap + 1` entries) — the input of
    /// Algorithm 3's HLL head.
    pub fn counter_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.params.cap() as usize + 1];
        for w in self.words.iter() {
            hist[(w >> self.params.r()) as usize] += 1;
        }
        hist
    }

    /// Lossless union (Algorithm 2): bucket-wise best register. The result
    /// is exactly the sketch of `A ∪ B`.
    pub fn union(&self, other: &Self) -> Result<Self, HmhError> {
        let mut out = self.clone();
        out.merge(other)?;
        Ok(out)
    }

    /// In-place union.
    pub fn merge(&mut self, other: &Self) -> Result<(), HmhError> {
        self.check_compatible(other)?;
        for bucket in 0..self.params.num_buckets() {
            let candidate = other.words.get(bucket);
            if registers::beats(self.params, candidate, self.words.get(bucket)) {
                self.words.set(bucket, candidate);
            }
        }
        Ok(())
    }

    /// Losslessly reduce the mantissa width to `new_r ≤ r`, producing the
    /// *exact* sketch that direct construction with `(p, q, new_r)` would
    /// have produced on the same items.
    ///
    /// Why this is exact: registers order by `(counter desc, mantissa
    /// asc)` and the mantissa is a binary prefix of the sub-bucket
    /// position (both in the after-the-leading-one case and in the
    /// fixed-window saturated case), so truncating the winner's mantissa
    /// equals the winner under truncated mantissas — different tie-breaks
    /// can pick a different *element*, but never a different truncated
    /// register value. (The converse, widening `r`, is impossible: the
    /// dropped bits are gone. So is changing `p` or `q`.)
    ///
    /// This lets fleets with mixed precisions interoperate: reduce both
    /// sides to the common `r`, then merge/compare as usual.
    pub fn reduce_r(&self, new_r: u32) -> Result<Self, HmhError> {
        if new_r > self.params.r() {
            return Err(HmhError::InvalidParams {
                reason: format!("cannot widen r from {} to {new_r}", self.params.r()),
            });
        }
        let params = HmhParams::new(self.params.p(), self.params.q(), new_r)?;
        let shift = self.params.r() - new_r;
        let mut out = Self::with_oracle(params, self.oracle);
        for bucket in 0..self.params.num_buckets() {
            if let Some((counter, mantissa)) = self.register(bucket) {
                out.observe(bucket, counter, mantissa >> shift);
            }
        }
        Ok(out)
    }

    /// Verify two sketches can be combined (same parameters and oracle).
    pub fn check_compatible(&self, other: &Self) -> Result<(), HmhError> {
        if self.params != other.params {
            return Err(HmhError::ParameterMismatch { left: self.params, right: other.params });
        }
        if self.oracle != other.oracle {
            return Err(HmhError::OracleMismatch);
        }
        Ok(())
    }

    /// Cardinality estimate (Algorithm 3) with default settings.
    pub fn cardinality(&self) -> f64 {
        crate::cardinality::CardinalityEstimator::default().estimate(self)
    }

    /// Jaccard estimate (Algorithm 4) with the default collision
    /// correction (the fast approximation, Algorithm 6).
    pub fn jaccard(&self, other: &Self) -> Result<crate::jaccard::JaccardEstimate, HmhError> {
        crate::jaccard::jaccard(self, other, crate::jaccard::CollisionCorrection::Approx)
    }

    /// Intersection cardinality estimate `t̂ · |A ∪ B|̂`.
    pub fn intersection(&self, other: &Self) -> Result<crate::IntersectionEstimate, HmhError> {
        crate::intersect::intersection(self, other)
    }
}

impl<T: HashableItem> Extend<T> for HyperMinHash {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.insert(&item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HmhParams {
        HmhParams::new(6, 4, 6).unwrap()
    }

    fn sketch_range(lo: u64, hi: u64, p: HmhParams) -> HyperMinHash {
        HyperMinHash::from_items(p, lo..hi)
    }

    #[test]
    fn insert_is_order_invariant() {
        let p = params();
        let forward = HyperMinHash::from_items(p, 0..1000u64);
        let mut backward = HyperMinHash::new(p);
        for i in (0..1000u64).rev() {
            backward.insert(&i);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn insert_is_idempotent() {
        let p = params();
        let once = sketch_range(0, 500, p);
        let mut thrice = HyperMinHash::new(p);
        for _ in 0..3 {
            for i in 0..500u64 {
                thrice.insert(&i);
            }
        }
        assert_eq!(once, thrice);
    }

    #[test]
    fn union_equals_direct_sketch_of_union() {
        let p = params();
        let a = sketch_range(0, 800, p);
        let b = sketch_range(400, 1200, p);
        let direct = sketch_range(0, 1200, p);
        assert_eq!(a.union(&b).unwrap(), direct);
    }

    #[test]
    fn union_is_commutative_associative_idempotent() {
        let p = params();
        let a = sketch_range(0, 300, p);
        let b = sketch_range(200, 500, p);
        let c = sketch_range(450, 700, p);
        assert_eq!(a.union(&b).unwrap(), b.union(&a).unwrap());
        assert_eq!(
            a.union(&b).unwrap().union(&c).unwrap(),
            a.union(&b.union(&c).unwrap()).unwrap()
        );
        assert_eq!(a.union(&a).unwrap(), a);
        // Empty is the identity.
        let empty = HyperMinHash::new(p);
        assert_eq!(a.union(&empty).unwrap(), a);
    }

    #[test]
    fn insert_batch_matches_insert_loop() {
        let p = params();
        let items: Vec<u64> = (0..500).map(|i| i * 7 + 13).collect();
        let mut batched = HyperMinHash::new(p);
        batched.insert_batch(&items);
        let mut looped = HyperMinHash::new(p);
        for item in &items {
            looped.insert(item);
        }
        assert_eq!(batched, looped);
        // Empty batch is a no-op.
        let before = batched.clone();
        batched.insert_batch(&[] as &[u64]);
        assert_eq!(batched, before);
    }

    #[test]
    fn registers_match_manual_digest_decomposition() {
        let p = params();
        let mut s = HyperMinHash::new(p);
        s.insert(&42u64);
        let digest = s.oracle().digest(&42u64);
        let bucket = digest.take_bits(0, p.p()) as usize;
        let (counter, mantissa) = digest.rho_sigma(p.p(), p.cap(), p.r());
        assert_eq!(s.register(bucket), Some((counter, mantissa as u32)));
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn observe_keeps_the_better_register() {
        let p = params();
        let mut s = HyperMinHash::new(p);
        s.observe(3, 2, 40);
        s.observe(3, 5, 60); // larger counter wins
        assert_eq!(s.register(3), Some((5, 60)));
        s.observe(3, 5, 10); // same counter, smaller mantissa wins
        assert_eq!(s.register(3), Some((5, 10)));
        s.observe(3, 5, 20); // worse mantissa loses
        assert_eq!(s.register(3), Some((5, 10)));
        s.observe(3, 4, 0); // smaller counter loses
        assert_eq!(s.register(3), Some((5, 10)));
    }

    #[test]
    fn counter_histogram_totals() {
        let p = params();
        let s = sketch_range(0, 10_000, p);
        let hist = s.counter_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 64);
        assert_eq!(hist.len(), 16);
        // At n = 10k over 64 buckets, every bucket should be occupied.
        assert_eq!(hist[0], 0);
    }

    #[test]
    fn incompatible_sketches_refuse_to_merge() {
        let a = HyperMinHash::new(HmhParams::new(6, 4, 6).unwrap());
        let b = HyperMinHash::new(HmhParams::new(7, 4, 6).unwrap());
        assert!(matches!(a.union(&b), Err(HmhError::ParameterMismatch { .. })));
        let c = HyperMinHash::with_oracle(a.params(), RandomOracle::with_seed(9));
        assert!(matches!(a.union(&c), Err(HmhError::OracleMismatch)));
    }

    #[test]
    fn extend_matches_insert() {
        let p = params();
        let mut a = HyperMinHash::new(p);
        a.extend(0..100u64);
        let b = sketch_range(0, 100, p);
        assert_eq!(a, b);
    }

    #[test]
    fn reduce_r_equals_direct_construction() {
        // The exactness claim: reducing r must reproduce the narrow sketch
        // bit for bit, across the full item stream.
        let wide = HmhParams::new(7, 5, 12).unwrap();
        let sketch = HyperMinHash::from_items(wide, 0..20_000u64);
        for new_r in [12u32, 10, 6, 3, 1] {
            let narrow_params = HmhParams::new(7, 5, new_r).unwrap();
            let direct = HyperMinHash::from_items(narrow_params, 0..20_000u64);
            let reduced = sketch.reduce_r(new_r).unwrap();
            assert_eq!(reduced, direct, "r → {new_r}");
        }
    }

    #[test]
    fn reduce_r_enables_cross_width_merging() {
        let coarse = HmhParams::new(6, 4, 4).unwrap();
        let fine = HmhParams::new(6, 4, 8).unwrap();
        let a = HyperMinHash::from_items(fine, 0..1000u64);
        let b = HyperMinHash::from_items(coarse, 500..1500u64);
        let merged = a.reduce_r(4).unwrap().union(&b).unwrap();
        assert_eq!(merged, HyperMinHash::from_items(coarse, 0..1500u64));
    }

    #[test]
    fn reduce_r_rejects_widening() {
        let s = HyperMinHash::new(HmhParams::new(6, 4, 4).unwrap());
        assert!(matches!(s.reduce_r(8), Err(HmhError::InvalidParams { .. })));
    }

    #[test]
    fn figure6_size_claims() {
        assert_eq!(HyperMinHash::new(HmhParams::figure6()).byte_size(), 256);
        assert_eq!(HyperMinHash::new(HmhParams::headline()).byte_size(), 65536);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn serde_round_trip_preserves_everything() {
        let s = sketch_range(0, 2_000, HmhParams::figure6());
        let json = serde_json::to_string(&s).unwrap();
        let back: HyperMinHash = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
        // And the restored sketch keeps merging correctly.
        let t = sketch_range(1_000, 3_000, HmhParams::figure6());
        assert_eq!(s.union(&t).unwrap(), back.union(&t).unwrap());
    }
}
