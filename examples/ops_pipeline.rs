//! Operational pipeline: the production features around the paper's
//! algorithms — sparse sketches for small sets, the compact binary wire
//! format for shipping, and lossless precision downgrades for
//! mixed-parameter fleets.
//!
//! ```sh
//! cargo run --release --example ops_pipeline
//! ```

use hyperminhash::prelude::*;
use hyperminhash::sketch::format;

fn main() {
    // 1. Edge nodes keep per-tenant sketches. Most tenants are tiny, so
    //    the adaptive representation starts sparse.
    let params = HmhParams::headline(); // dense would be 64 KiB each
    let mut small_tenant = AdaptiveHyperMinHash::new(params);
    for i in 0..200u64 {
        small_tenant.insert(&i);
    }
    println!(
        "small tenant: {} items → {} bytes (dense would be {} bytes), sparse = {}",
        200,
        small_tenant.byte_size(),
        params.byte_size(),
        small_tenant.is_sparse()
    );

    let mut big_tenant = AdaptiveHyperMinHash::new(params);
    for i in 0..200_000u64 {
        big_tenant.insert(&i);
    }
    println!(
        "big tenant:   {} items → {} bytes, sparse = {} (auto-promoted)",
        200_000,
        big_tenant.byte_size(),
        big_tenant.is_sparse()
    );

    // 2. Ship the dense sketch over the wire with framing + checksum.
    let dense = big_tenant.to_dense();
    let wire = format::encode(&dense);
    println!(
        "\nwire format: {} bytes ({} header/checksum overhead)",
        wire.len(),
        wire.len() - params.byte_size()
    );
    let restored = format::decode(&wire).expect("intact payload");
    assert_eq!(restored, dense);

    // Corruption is detected, not silently accepted.
    let mut tampered = wire.clone();
    tampered[100] ^= 0x40;
    println!("tampered payload → {:?}", format::decode(&tampered).unwrap_err());

    // 3. A legacy fleet runs r = 6; downgrade losslessly and merge.
    let legacy_params = HmhParams::new(15, 6, 6).expect("valid parameters");
    let mut legacy = HyperMinHash::new(legacy_params);
    for i in 150_000..350_000u64 {
        legacy.insert(&i);
    }
    let downgraded = restored.reduce_r(6).expect("r only shrinks");
    let merged = downgraded.union(&legacy).expect("same parameters now");
    println!("\nmerged across precisions: estimate {:.0} (truth 350000)", merged.cardinality());
}
