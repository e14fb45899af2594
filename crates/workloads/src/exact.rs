//! Exact set operations — the ground truth every estimate is scored
//! against.

use std::collections::BTreeSet;

/// An exact set of `u64` elements with the operations the sketches
/// estimate. Backed by a `BTreeSet` so iteration order — and therefore
/// everything derived from it — is deterministic across runs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactSet {
    items: BTreeSet<u64>,
}

impl ExactSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an element; returns true if it was new.
    pub fn insert(&mut self, item: u64) -> bool {
        self.items.insert(item)
    }

    /// Membership test.
    pub fn contains(&self, item: u64) -> bool {
        self.items.contains(&item)
    }

    /// Cardinality.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterate over elements (ascending order).
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.items.iter().copied()
    }

    /// `|self ∩ other|`.
    pub fn intersection_size(&self, other: &Self) -> usize {
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        small.items.iter().filter(|i| large.items.contains(i)).count()
    }

    /// `|self ∪ other|`.
    pub fn union_size(&self, other: &Self) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Exact Jaccard index (0 for two empty sets).
    pub fn jaccard(&self, other: &Self) -> f64 {
        let u = self.union_size(other);
        if u == 0 {
            0.0
        } else {
            self.intersection_size(other) as f64 / u as f64
        }
    }

    /// Union with another set.
    pub fn union(&self, other: &Self) -> Self {
        let mut out = self.clone();
        out.items.extend(&other.items);
        out
    }

    /// Intersection with another set.
    pub fn intersection(&self, other: &Self) -> Self {
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        Self { items: small.items.iter().filter(|i| large.items.contains(i)).copied().collect() }
    }
}

impl FromIterator<u64> for ExactSet {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Self { items: iter.into_iter().collect() }
    }
}

impl Extend<u64> for ExactSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_operations() {
        let a: ExactSet = (0..100).collect();
        let b: ExactSet = (50..150).collect();
        assert_eq!(a.len(), 100);
        assert_eq!(a.intersection_size(&b), 50);
        assert_eq!(a.union_size(&b), 150);
        assert!((a.jaccard(&b) - 50.0 / 150.0).abs() < 1e-15);
        assert_eq!(a.union(&b).len(), 150);
        assert_eq!(a.intersection(&b).len(), 50);
    }

    #[test]
    fn duplicates_and_membership() {
        let mut s = ExactSet::new();
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_edge_cases() {
        let e = ExactSet::new();
        assert!(e.is_empty());
        assert_eq!(e.jaccard(&e), 0.0);
        assert_eq!(e.union_size(&e), 0);
    }

    #[test]
    fn jaccard_identity_and_disjoint() {
        let a: ExactSet = (0..10).collect();
        assert_eq!(a.jaccard(&a.clone()), 1.0);
        let b: ExactSet = (100..110).collect();
        assert_eq!(a.jaccard(&b), 0.0);
    }
}
