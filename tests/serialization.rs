//! Serde round-trips across the workspace: sketches survive JSON transit
//! and keep full functionality (the shared-randomness deployment story —
//! sketch on one machine, merge on another).

use hyperminhash::prelude::*;

fn round_trip<T: serde::Serialize + serde::de::DeserializeOwned>(v: &T) -> T {
    let json = serde_json::to_string(v).expect("serialize");
    serde_json::from_str(&json).expect("deserialize")
}

#[test]
fn hyperminhash_roundtrip_preserves_behaviour() {
    let params = HmhParams::new(10, 6, 10).unwrap();
    let a = HyperMinHash::from_items(params, 0..10_000u64);
    let b = HyperMinHash::from_items(params, 5_000..15_000u64);
    let a2 = round_trip(&a);
    assert_eq!(a, a2);
    // Restored sketches merge and estimate identically.
    assert_eq!(a.union(&b).unwrap(), a2.union(&b).unwrap());
    assert_eq!(a.jaccard(&b).unwrap().estimate, a2.jaccard(&b).unwrap().estimate);
    assert_eq!(a.cardinality(), a2.cardinality());
}

#[test]
fn hyperloglog_roundtrip() {
    let mut h = hyperminhash::hll::HyperLogLog::new(10);
    for i in 0..5_000u64 {
        h.insert(&i);
    }
    let h2 = round_trip(&h);
    assert_eq!(h, h2);
    assert_eq!(h.cardinality(), h2.cardinality());
}

#[test]
fn minhash_variants_roundtrip() {
    let oracle = RandomOracle::with_seed(9);
    let mut kmv = BottomK::new(128, oracle);
    let mut kh = KHashMinHash::new(64, oracle);
    let mut kp = KPartitionMinHash::new(7, 12, oracle);
    for i in 0..2_000u64 {
        kmv.insert(&i);
        kh.insert(&i);
        kp.insert(&i);
    }
    assert_eq!(kmv, round_trip(&kmv));
    assert_eq!(kh, round_trip(&kh));
    assert_eq!(kp, round_trip(&kp));

    let mh_for_fp = {
        let mut m = KHashMinHash::new(64, oracle);
        for i in 0..500u64 {
            m.insert(&i);
        }
        m
    };
    let fp = BBitMinHash::from_minhash(&mh_for_fp, 2);
    assert_eq!(fp, round_trip(&fp));
}

#[test]
fn params_and_oracle_roundtrip() {
    let p = HmhParams::headline();
    assert_eq!(p, round_trip(&p));
    let o = RandomOracle::new(HashAlgorithm::Sha1, 77);
    assert_eq!(o, round_trip(&o));
}

#[test]
fn cross_machine_merge_story() {
    // "Machine 1" sketches January, serializes; "machine 2" sketches
    // February, deserializes January's sketch, merges, queries.
    let params = HmhParams::new(12, 6, 10).unwrap();
    let january = HyperMinHash::from_items(params, 0..40_000u64);
    let wire = serde_json::to_vec(&january).unwrap();

    let february = HyperMinHash::from_items(params, 20_000..60_000u64);
    let restored: HyperMinHash = serde_json::from_slice(&wire).unwrap();
    let both = restored.union(&february).unwrap();
    let est = both.cardinality();
    assert!((est / 60_000.0 - 1.0).abs() < 0.05, "estimate {est}");
    let j = restored.jaccard(&february).unwrap().estimate;
    assert!((j - 1.0 / 3.0).abs() < 0.05, "jaccard {j}");
}

#[test]
fn tampered_payloads_fail_loudly() {
    // Structurally invalid JSON must error, not panic.
    let bad: Result<HyperMinHash, _> = serde_json::from_str("{\"params\": 12}");
    assert!(bad.is_err());
    let bad: Result<HmhParams, _> = serde_json::from_str("\"not-params\"");
    assert!(bad.is_err());
}
