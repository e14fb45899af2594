//! CNF Boolean queries against exact ground truth on both motivating
//! workloads (survey and IP traffic) — the paper's end-to-end use case.

use hyperminhash::cnf::{eval, parse, SketchCatalog};
use hyperminhash::prelude::*;
use hyperminhash::workloads::ipstream::{self, IpStreamConfig};
use hyperminhash::workloads::survey::Survey;
use std::collections::HashSet;

fn exact_cnf(groups: &[(&str, &[u64])], text: &str) -> usize {
    let query = parse(text).expect("parses");
    let lookup = |name: &str| -> HashSet<u64> {
        groups
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ids)| ids.iter().copied().collect())
            .unwrap_or_default()
    };
    let mut acc: Option<HashSet<u64>> = None;
    for clause in query.clauses() {
        let mut union = HashSet::new();
        for var in clause {
            union.extend(lookup(var));
        }
        acc = Some(match acc {
            None => union,
            Some(prev) => prev.intersection(&union).copied().collect(),
        });
    }
    acc.map(|s| s.len()).unwrap_or(0)
}

#[test]
fn survey_queries_match_exact_within_tolerance() {
    let survey = Survey::generate(150_000, 3);
    let mut cat = SketchCatalog::new(HmhParams::new(12, 6, 10).unwrap());
    for (key, ids) in &survey.groups {
        cat.insert_all(key, ids.iter().copied());
    }
    let groups: Vec<(&str, &[u64])> =
        survey.groups.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect();

    for text in [
        "party:independent & view:favorable",
        "(party:democrat | party:republican) & view:neutral",
        "(view:favorable | view:neutral) & (age:18-29 | age:30-44)",
    ] {
        let answer = eval::query(&cat, text).expect("evaluates");
        let truth = exact_cnf(&groups, text) as f64;
        assert!(
            (answer.count / truth - 1.0).abs() < 0.2,
            "{text}: estimate {} vs truth {truth}",
            answer.count
        );
    }
}

#[test]
fn three_clause_queries_stay_bounded_by_result_error() {
    // a ∩ b ∩ c with a small result relative to the universe: the error
    // must scale with the result, not the union (the §1.3 contrast).
    let survey = Survey::generate(200_000, 5);
    let mut cat = SketchCatalog::new(HmhParams::new(13, 6, 10).unwrap());
    for (key, ids) in &survey.groups {
        cat.insert_all(key, ids.iter().copied());
    }
    let groups: Vec<(&str, &[u64])> =
        survey.groups.iter().map(|(k, v)| (k.as_str(), v.as_slice())).collect();
    let text = "party:independent & view:favorable & age:65+";
    let truth = exact_cnf(&groups, text) as f64; // ≈ 0.2·0.3·0.19·200k ≈ 2.3k
    let answer = eval::query(&cat, text).expect("evaluates");
    assert!(truth > 1_000.0, "sanity: {truth}");
    assert!(
        (answer.count / truth - 1.0).abs() < 0.35,
        "estimate {} vs truth {truth}",
        answer.count
    );
}

#[test]
fn ip_workload_day_over_day() {
    let cfg = IpStreamConfig {
        pool_size: 20_000,
        packets_per_day: 150_000,
        carryover: 0.5,
        zipf_s: 0.9,
        seed: 12,
    };
    let days = ipstream::generate(cfg, 3);
    let mut cat = SketchCatalog::new(HmhParams::new(12, 6, 10).unwrap());
    for (d, day) in days.iter().enumerate() {
        cat.insert_all(format!("day{d}").as_str(), day.packets.iter().copied());
    }
    // Exact truth over *observed* IPs (Zipf sampling misses some pool
    // members).
    let observed: Vec<HashSet<u64>> =
        days.iter().map(|d| d.packets.iter().copied().collect()).collect();

    let ans = eval::query(&cat, "day0 & day1").expect("evaluates");
    let truth = observed[0].intersection(&observed[1]).count() as f64;
    assert!((ans.count / truth - 1.0).abs() < 0.15, "estimate {} vs truth {truth}", ans.count);

    // (day0 ∪ day1) ∩ day2.
    let ans = eval::query(&cat, "(day0 | day1) & day2").expect("evaluates");
    let union01: HashSet<u64> = observed[0].union(&observed[1]).copied().collect();
    let truth = union01.intersection(&observed[2]).count() as f64;
    assert!((ans.count / truth - 1.0).abs() < 0.15, "estimate {} vs truth {truth}", ans.count);
}

#[test]
fn parser_errors_surface_cleanly() {
    let cat = SketchCatalog::new(HmhParams::figure6());
    assert!(eval::query(&cat, "a | b").is_err(), "top-level OR is not CNF");
    assert!(eval::query(&cat, "missing & sets").is_err());
}
