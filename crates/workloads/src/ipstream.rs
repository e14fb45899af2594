//! The intro's DDoS scenario: "how many of the source IPs used in a DDoS
//! attack today were also used last month?"
//!
//! Generates multi-day source-IP traffic with the two properties that make
//! the sketch problem interesting:
//!
//! * **heavy hitters** — per-day IP draws are Zipfian over each day's
//!   active pool, so the *stream* is much longer than the *distinct* count
//!   (exercising streaming deduplicating inserts);
//! * **controlled churn** — a configurable fraction of each day's pool
//!   carries over to the next day, giving known day-over-day overlap
//!   structure.

use hmh_hash::splitmix::mix64;
use hmh_math::dist::ZipfSampler;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the traffic generator.
#[derive(Debug, Clone, Copy)]
pub struct IpStreamConfig {
    /// Distinct IPs active per day.
    pub pool_size: usize,
    /// Packets observed per day (stream length; ≥ pool_size for full
    /// coverage is not required — absent IPs simply stay unseen).
    pub packets_per_day: usize,
    /// Fraction of day `d`'s pool that carries over to day `d+1`.
    pub carryover: f64,
    /// Zipf exponent of per-packet IP popularity.
    pub zipf_s: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for IpStreamConfig {
    fn default() -> Self {
        Self { pool_size: 10_000, packets_per_day: 100_000, carryover: 0.4, zipf_s: 1.0, seed: 0 }
    }
}

/// One day of traffic.
#[derive(Debug, Clone)]
pub struct Day {
    /// The day's distinct IP pool (ground truth).
    pub pool: Vec<u64>,
    /// The packet stream: one source IP per packet, with repeats.
    pub packets: Vec<u64>,
}

/// Generate `days` days of traffic.
///
/// Day pools share exactly `⌊carryover · pool_size⌋` IPs with the previous
/// day (a sliding window over an injective IP-label sequence), so the
/// exact overlap between any two days `i < j` is
/// `max(0, pool_size − (j−i)·(pool_size − carried))`.
pub fn generate(config: IpStreamConfig, days: usize) -> Vec<Day> {
    assert!((0.0..=1.0).contains(&config.carryover));
    assert!(config.pool_size > 0);
    let carried = (config.carryover * config.pool_size as f64).floor() as usize;
    let fresh_per_day = config.pool_size - carried;
    let zipf = ZipfSampler::new(config.pool_size, config.zipf_s);
    let mut out = Vec::with_capacity(days);
    let mut rng = StdRng::seed_from_u64(config.seed);
    for day in 0..days {
        //

        // Sliding window over the injective label sequence: day d's pool is
        // labels [d·fresh, d·fresh + pool_size).
        let start = (day * fresh_per_day) as u64;
        let pool: Vec<u64> =
            (0..config.pool_size as u64).map(|i| ip_label(config.seed, start + i)).collect();
        let packets: Vec<u64> =
            (0..config.packets_per_day).map(|_| pool[zipf.sample(&mut rng) - 1]).collect();
        out.push(Day { pool, packets });
    }
    out
}

/// Exact distinct-IP overlap between two generated days.
pub fn exact_overlap(config: IpStreamConfig, day_i: usize, day_j: usize) -> usize {
    let carried = (config.carryover * config.pool_size as f64).floor() as usize;
    let fresh = config.pool_size - carried;
    let gap = day_i.abs_diff(day_j);
    config.pool_size.saturating_sub(gap * fresh)
}

/// Injective IP labeling (IPv4-shaped for readability in examples: the
/// label is a mixed 64-bit value; take the low 32 bits for a display IP).
fn ip_label(seed: u64, index: u64) -> u64 {
    mix64(seed ^ 0xddee_ffaa_1122_3344).wrapping_add(mix64(index.wrapping_add(1)))
}

/// Render a label as a dotted-quad IPv4 string (low 32 bits).
pub fn as_ipv4(label: u64) -> String {
    let v = label as u32;
    format!("{}.{}.{}.{}", v >> 24, (v >> 16) & 255, (v >> 8) & 255, v & 255)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::ExactSet;

    #[test]
    fn pools_have_exact_size_and_overlap() {
        let cfg = IpStreamConfig {
            pool_size: 1000,
            packets_per_day: 5000,
            carryover: 0.3,
            ..Default::default()
        };
        let days = generate(cfg, 4);
        assert_eq!(days.len(), 4);
        for d in &days {
            let set: ExactSet = d.pool.iter().copied().collect();
            assert_eq!(set.len(), 1000, "labels must be injective");
        }
        let d0: ExactSet = days[0].pool.iter().copied().collect();
        let d1: ExactSet = days[1].pool.iter().copied().collect();
        let d2: ExactSet = days[2].pool.iter().copied().collect();
        assert_eq!(d0.intersection_size(&d1), exact_overlap(cfg, 0, 1));
        assert_eq!(d0.intersection_size(&d2), exact_overlap(cfg, 0, 2));
        assert_eq!(exact_overlap(cfg, 0, 1), 300);
    }

    #[test]
    fn packets_draw_from_the_pool_with_repeats() {
        let cfg = IpStreamConfig { pool_size: 100, packets_per_day: 10_000, ..Default::default() };
        let days = generate(cfg, 1);
        let pool: ExactSet = days[0].pool.iter().copied().collect();
        assert!(days[0].packets.iter().all(|ip| pool.contains(*ip)));
        let distinct: ExactSet = days[0].packets.iter().copied().collect();
        assert!(distinct.len() <= 100);
        assert!(distinct.len() > 50, "most of a small pool should appear");
    }

    #[test]
    fn zipf_makes_heavy_hitters() {
        let cfg = IpStreamConfig {
            pool_size: 1000,
            packets_per_day: 50_000,
            zipf_s: 1.2,
            ..Default::default()
        };
        let days = generate(cfg, 1);
        let mut counts = std::collections::HashMap::new();
        for &ip in &days[0].packets {
            *counts.entry(ip).or_insert(0u64) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 50_000 / 100, "heaviest hitter should dominate: {max}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = IpStreamConfig::default();
        let a = generate(cfg, 2);
        let b = generate(cfg, 2);
        assert_eq!(a[1].packets, b[1].packets);
        let c = generate(IpStreamConfig { seed: 9, ..cfg }, 2);
        assert_ne!(a[1].packets, c[1].packets);
    }

    #[test]
    fn ipv4_rendering() {
        assert_eq!(as_ipv4(0x0102_0304), "1.2.3.4");
        assert_eq!(as_ipv4(0xffff_ffff), "255.255.255.255");
    }

    #[test]
    fn distant_days_are_disjoint() {
        let cfg = IpStreamConfig { pool_size: 100, carryover: 0.5, ..Default::default() };
        assert_eq!(exact_overlap(cfg, 0, 1), 50);
        assert_eq!(exact_overlap(cfg, 0, 2), 0);
        assert_eq!(exact_overlap(cfg, 0, 10), 0);
    }
}
