//! The paper's DDoS motivation: "how many of the source IPs used in a
//! DDoS attack today were also used last month?"
//!
//! Streams several days of Zipf-skewed packet traffic into one sketch per
//! day (duplicates deduplicate for free), then answers day-over-day
//! overlap questions and compares against exact ground truth.
//!
//! ```sh
//! cargo run --release --example ddos_ips
//! ```

use hyperminhash::prelude::*;
use hyperminhash::workloads::ipstream::{self, IpStreamConfig};

fn main() {
    let cfg = IpStreamConfig {
        pool_size: 50_000,
        packets_per_day: 400_000,
        carryover: 0.35,
        zipf_s: 1.1,
        seed: 2024,
    };
    let days = ipstream::generate(cfg, 5);
    let params = HmhParams::new(12, 6, 10).expect("valid parameters");

    println!("streaming {} packets/day into one 8 KiB sketch per day…\n", cfg.packets_per_day);
    let sketches: Vec<HyperMinHash> = days
        .iter()
        .map(|day| {
            let mut s = HyperMinHash::new(params);
            for &ip in &day.packets {
                s.insert(&ip); // repeats are free — the sketch is a set
            }
            s
        })
        .collect();

    for (d, sketch) in sketches.iter().enumerate() {
        let distinct: std::collections::HashSet<u64> = days[d].packets.iter().copied().collect();
        println!(
            "day {d}: distinct IPs estimate {:>7.0}   (exact {})",
            sketch.cardinality(),
            distinct.len()
        );
    }

    println!("\nday-over-day overlap (estimated vs exact over *observed* IPs):");
    for d in 1..sketches.len() {
        let est = sketches[0].intersection(&sketches[d]).expect("same parameters");
        let seen0: std::collections::HashSet<u64> = days[0].packets.iter().copied().collect();
        let seend: std::collections::HashSet<u64> = days[d].packets.iter().copied().collect();
        let exact = seen0.intersection(&seend).count();
        println!(
            "  day0 ∩ day{d}: estimate {:>7.0}   exact {:>7}   (J estimate {:.4})",
            est.intersection, exact, est.jaccard
        );
    }

    // A month-scale question: "seen today AND on any of the previous
    // days" — a union first, then an intersection, all on sketches.
    let mut previous = sketches[0].clone();
    for s in &sketches[1..4] {
        previous.merge(s).expect("same parameters");
    }
    let today = &sketches[4];
    let est = today.intersection(&previous).expect("same parameters");
    let prev_exact: std::collections::HashSet<u64> =
        days[..4].iter().flat_map(|d| d.packets.iter().copied()).collect();
    let today_exact: std::collections::HashSet<u64> = days[4].packets.iter().copied().collect();
    let exact = prev_exact.intersection(&today_exact).count();
    println!("\n|day4 ∩ (day0 ∪ … ∪ day3)|: estimate {:.0}, exact {exact}", est.intersection);
    println!("sample attacker IP from day 4: {}", ipstream::as_ipv4(days[4].pool[0]));
}
