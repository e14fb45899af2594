//! Cross-crate consistency: the same data seen through HyperMinHash, raw
//! HyperLogLog and the MinHash variants must tell one coherent story.

use hyperminhash::prelude::*;
use hyperminhash::sketch::cardinality::CardinalityEstimator;

/// The LogLog-counter half of a HyperMinHash bucket *is* an HLL register
/// (Definition 1 / Algorithm 3): with the same oracle, `p` and cap, the
/// two sketches' counter histograms must be identical.
#[test]
fn hmh_counters_equal_hll_registers() {
    let oracle = RandomOracle::with_seed(5);
    let params = HmhParams::new(10, 6, 8).unwrap();
    let mut hmh = HyperMinHash::with_oracle(params, oracle);
    let mut hll = hyperminhash::hll::HyperLogLog::with_oracle(10, params.cap(), oracle);
    for i in 0..50_000u64 {
        hmh.insert(&i);
        hll.insert(&i);
    }
    assert_eq!(hmh.counter_histogram(), hll.histogram());
    for bucket in 0..params.num_buckets() {
        let hmh_counter = hmh.register(bucket).map(|(c, _)| c).unwrap_or(0);
        assert_eq!(hmh_counter, hll.register(bucket), "bucket {bucket}");
    }
}

/// All sketches agree on cardinality within their error envelopes.
#[test]
fn cardinality_consensus() {
    let n = 80_000u64;
    let oracle = RandomOracle::default();

    let mut hmh = HyperMinHash::new(HmhParams::new(12, 6, 10).unwrap());
    let mut hll = hyperminhash::hll::HyperLogLog::new(12);
    let mut kmv = BottomK::new(2048, oracle);
    let mut kp = KPartitionMinHash::new(12, 20, oracle);
    for i in 0..n {
        hmh.insert(&i);
        hll.insert(&i);
        kmv.insert(&i);
        kp.insert(&i);
    }
    for (name, est) in [
        ("hyperminhash", hmh.cardinality()),
        ("hyperloglog", hll.cardinality()),
        ("bottom-k", kmv.cardinality()),
        ("k-partition", kp.cardinality()),
    ] {
        assert!((est / n as f64 - 1.0).abs() < 0.1, "{name}: estimate {est} vs {n}");
    }
}

/// All Jaccard-capable sketches agree on J = 1/3 within noise.
#[test]
fn jaccard_consensus() {
    let oracle = RandomOracle::default();
    let params = HmhParams::new(11, 6, 10).unwrap();
    let spec =
        hyperminhash::workloads::pairs::OverlapSpec::equal_sized_with_jaccard(30_000, 1.0 / 3.0);
    let (items_a, items_b) = hyperminhash::workloads::pairs::pair_with_overlap(spec, 3);

    let mut hmh =
        (HyperMinHash::with_oracle(params, oracle), HyperMinHash::with_oracle(params, oracle));
    let mut kmv = (BottomK::new(1024, oracle), BottomK::new(1024, oracle));
    let mut kh = (KHashMinHash::new(256, oracle), KHashMinHash::new(256, oracle));
    for &x in &items_a {
        hmh.0.insert(&x);
        kmv.0.insert(&x);
        kh.0.insert(&x);
    }
    for &x in &items_b {
        hmh.1.insert(&x);
        kmv.1.insert(&x);
        kh.1.insert(&x);
    }
    let estimates = [
        ("hyperminhash", hmh.0.jaccard(&hmh.1).unwrap().estimate),
        ("bottom-k", kmv.0.jaccard(&kmv.1).unwrap()),
        ("k-hash", kh.0.jaccard(&kh.1).unwrap()),
    ];
    for (name, est) in estimates {
        assert!((est - 1.0 / 3.0).abs() < 0.06, "{name}: {est}");
    }
}

/// Unions compose across a chain of sketches and match a direct sketch.
#[test]
fn union_chains() {
    let params = HmhParams::new(8, 5, 8).unwrap();
    let chunks: Vec<HyperMinHash> =
        (0..8u64).map(|c| HyperMinHash::from_items(params, (c * 1000)..((c + 1) * 1000))).collect();
    let mut acc = chunks[0].clone();
    for c in &chunks[1..] {
        acc.merge(c).unwrap();
    }
    let direct = HyperMinHash::from_items(params, 0..8000u64);
    assert_eq!(acc, direct);
    let est = acc.cardinality();
    assert!((est / 8000.0 - 1.0).abs() < 0.15, "estimate {est}");
}

/// The pseudocode estimator configuration and the default both work on the
/// same sketch (ablation hook used by the cardinality experiment).
#[test]
fn estimator_configurations_agree_in_range() {
    let params = HmhParams::new(11, 6, 10).unwrap();
    let sketch = HyperMinHash::from_items(params, 0..100_000u64);
    let default = CardinalityEstimator::default().estimate(&sketch);
    let pseudo = CardinalityEstimator::pseudocode().estimate(&sketch);
    assert!((default / 1e5 - 1.0).abs() < 0.08, "default {default}");
    assert!((pseudo / 1e5 - 1.0).abs() < 0.08, "pseudocode {pseudo}");
}
