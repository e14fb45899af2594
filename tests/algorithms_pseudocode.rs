//! End-to-end checks that the implementation realizes Algorithms 1–6 of
//! the paper's appendix, at the behavioural level an auditor would check.

use hyperminhash::prelude::*;
use hyperminhash::sketch::collisions::{
    approx_expected_collisions, expected_collisions, expected_collisions_bigfloat, theorem1_bound,
    theorem2_variance_bound,
};
use hyperminhash::sketch::jaccard::{jaccard, CollisionCorrection};

/// Algorithm 1: the sketch is a deterministic function of the set — not of
/// insertion order, multiplicity, or chunking.
#[test]
fn algorithm1_sketch_is_set_function() {
    let params = HmhParams::figure6();
    let direct = HyperMinHash::from_items(params, 0..5_000u64);

    let mut shuffled = HyperMinHash::new(params);
    // A fixed permutation via multiplicative stepping (5000 is not prime;
    // use a coprime stride).
    let stride = 2_399u64; // gcd(2399, 5000) = 1
    let mut x = 17u64;
    for _ in 0..5_000 {
        shuffled.insert(&x);
        x = (x + stride) % 5_000;
    }
    // Every residue visited exactly once → same set.
    assert_eq!(direct, shuffled);

    let mut doubled = HyperMinHash::new(params);
    for i in 0..5_000u64 {
        doubled.insert(&i);
        doubled.insert(&i);
    }
    assert_eq!(direct, doubled);
}

/// Algorithm 2: union is exactly the sketch of the union, for any overlap
/// pattern, and is monotone (a union never has a worse register).
#[test]
fn algorithm2_union_exactness_and_monotonicity() {
    let params = HmhParams::new(7, 4, 6).unwrap();
    for (lo_a, hi_a, lo_b, hi_b) in [(0u64, 100, 200, 300), (0, 1000, 500, 1500), (0, 50, 0, 50)] {
        let a = HyperMinHash::from_items(params, lo_a..hi_a);
        let b = HyperMinHash::from_items(params, lo_b..hi_b);
        let u = a.union(&b).unwrap();
        let mut direct = HyperMinHash::new(params);
        direct.extend(lo_a..hi_a);
        direct.extend(lo_b..hi_b);
        assert_eq!(u, direct);
        // Monotone: every union bucket at least as "good" as each input.
        for bucket in 0..params.num_buckets() {
            for input in [&a, &b] {
                if let Some((c, m)) = input.register(bucket) {
                    let (uc, um) = u.register(bucket).expect("union occupied");
                    assert!(uc > c || (uc == c && um <= m), "bucket {bucket}");
                }
            }
        }
    }
}

/// Algorithm 3: cardinality accuracy from tens to hundreds of thousands by
/// insertion (the simulator covers the astronomical range in its own
/// tests).
#[test]
fn algorithm3_cardinality_across_scales() {
    let params = HmhParams::new(11, 6, 10).unwrap();
    let mut sketch = HyperMinHash::new(params);
    let mut next_check = 10u64;
    for i in 0..300_000u64 {
        sketch.insert(&i);
        if i + 1 == next_check {
            let est = sketch.cardinality();
            let n = (i + 1) as f64;
            let tol = if n < 1000.0 { 0.12 } else { 0.07 };
            assert!((est / n - 1.0).abs() < tol, "at n={n}: estimate {est}");
            next_check *= 10;
        }
    }
}

/// Algorithm 4: raw vs corrected estimates and the (C, N) bookkeeping.
#[test]
fn algorithm4_jaccard_bookkeeping() {
    let params = HmhParams::new(10, 6, 10).unwrap();
    let a = HyperMinHash::from_items(params, 0..20_000u64);
    let b = HyperMinHash::from_items(params, 10_000..30_000u64);
    let est = jaccard(&a, &b, CollisionCorrection::Approx).unwrap();
    assert!(est.occupied <= params.num_buckets());
    assert!(est.matching <= est.occupied);
    assert!(est.expected_collisions >= 0.0);
    assert!(est.estimate <= est.raw, "correction only subtracts");
    assert!((est.estimate - 1.0 / 3.0).abs() < 0.05, "estimate {}", est.estimate);
}

/// Algorithms 5/6 and the theorems: mutual consistency on a parameter grid.
#[test]
fn algorithms5_6_and_theorems_consistent() {
    for &(p, q, r) in &[(4u32, 4u32, 6u32), (8, 5, 8), (10, 6, 10)] {
        let params = HmhParams::new(p, q, r).unwrap();
        for &n in &[1e3, 1e6, 1e9] {
            let exact = expected_collisions(params, n, n);
            let bound = theorem1_bound(params, n);
            assert!(exact <= bound * 1.0001, "({p},{q},{r}) n={n}");
            assert!(theorem2_variance_bound(exact) >= exact);
            if let Ok(approx) = approx_expected_collisions(params, n, n) {
                assert!(
                    (approx / exact - 1.0).abs() < 0.4,
                    "({p},{q},{r}) n={n}: approx {approx} vs exact {exact}"
                );
            }
        }
    }
}

/// Algorithm 5's big-float evaluation agrees with the log-space one — the
/// cross-implementation check the paper's "BigInts" remark demands.
#[test]
fn algorithm5_bigfloat_crosscheck() {
    let params = HmhParams::new(6, 4, 5).unwrap();
    for &n in &[100u128, 10_000, 1 << 30] {
        let fast = expected_collisions(params, n as f64, n as f64);
        let reference = expected_collisions_bigfloat(params, n, n, 192);
        assert!(((fast - reference) / reference).abs() < 1e-9, "n={n}: {fast} vs {reference}");
    }
}
