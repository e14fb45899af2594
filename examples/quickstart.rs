//! Quickstart: build two sketches, estimate Jaccard / union / intersection.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hyperminhash::prelude::*;

fn main() {
    // p=12 → 4096 buckets; q=6 counter bits; r=10 mantissa bits: 8 KiB.
    let params = HmhParams::new(12, 6, 10).expect("valid parameters");
    println!("sketch parameters: {params}, {} bytes each\n", params.byte_size());

    // Stream two overlapping sets: |A| = |B| = 60k, |A∩B| = 30k (J = 1/3).
    let mut a = HyperMinHash::new(params);
    let mut b = HyperMinHash::new(params);
    for i in 0..60_000u64 {
        a.insert(&i);
    }
    for i in 30_000..90_000u64 {
        b.insert(&i);
    }

    // Jaccard index (Algorithm 4, with the fast collision correction).
    let j = a.jaccard(&b).expect("same parameters and oracle");
    println!(
        "jaccard:        estimate {:.4}   (truth 0.3333, raw {:.4}, EC {:.2})",
        j.estimate, j.raw, j.expected_collisions
    );

    // Cardinalities (Algorithm 3).
    println!("cardinality A:  {:.0}   (truth 60000)", a.cardinality());

    // Lossless union (Algorithm 2) — the sketch of A ∪ B.
    let u = a.union(&b).expect("same parameters and oracle");
    println!("union:          {:.0}   (truth 90000)", u.cardinality());

    // Intersection = Jaccard × union.
    let i = a.intersection(&b).expect("same parameters and oracle");
    println!("intersection:   {:.0}   (truth 30000)", i.intersection);

    // Sketches serialize (serde) — ship them between machines that share
    // the oracle seed and keep merging.
    let bytes = serde_json::to_vec(&a).expect("serializable");
    let restored: HyperMinHash = serde_json::from_slice(&bytes).expect("round-trips");
    assert_eq!(restored, a);
    println!(
        "\nserialized sketch: {} JSON bytes (registers pack to {} raw)",
        bytes.len(),
        params.byte_size()
    );
}
