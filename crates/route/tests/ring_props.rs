//! Seeded property suite for the consistent-hash ring (CASES = 64).
//!
//! Each case draws a random cluster shape (group count, vnode budget,
//! group ids) from a `SplitMix64` stream and pins the properties the
//! routing tier's correctness rests on:
//!
//! * **Determinism.** Two rings built from independently parsed copies
//!   of the same committed text agree on every ownership decision —
//!   the cross-process half of this claim is exercised for real by the
//!   CI shell drill, where three separate processes parse the file.
//! * **Bounded movement.** Adding one group to an N-group ring moves
//!   ≈ 1/(N+1) of the names (within a generous vnode-variance band),
//!   and *every* moved name moves TO the new group — no name migrates
//!   between two groups present in both rings. Removing a group moves
//!   exactly the names it owned, and every one moves FROM it.
//! * **Serialization stability.** `to_text` → `from_text` is the
//!   identity on configs, and ring lookups survive the round trip
//!   unchanged (vnode points are derived, not stored, so the text form
//!   is the whole truth).

use std::net::SocketAddr;

use hmh_hash::splitmix::SplitMix64;
use hmh_route::{plan_moves, GroupConfig, Ring, RingConfig};

const CASES: u64 = 64;
const NAMES: usize = 2_000;

fn addr(rng: &mut SplitMix64) -> SocketAddr {
    let port = 1024 + (rng.next_u64() % 60_000) as u16;
    format!("127.0.0.1:{port}").parse().unwrap()
}

/// A random valid cluster config: 2..=7 groups, 1..=3 replicas each,
/// vnodes from a small palette (low vnode counts have the worst
/// balance variance, so they stress the movement bounds hardest).
fn random_config(rng: &mut SplitMix64, case: u64) -> RingConfig {
    let group_count = 2 + (rng.next_u64() % 6) as usize;
    let vnodes = [32u32, 64, 128, 256][(rng.next_u64() % 4) as usize];
    let groups = (0..group_count)
        .map(|i| {
            let replica_count = 1 + (rng.next_u64() % 3) as usize;
            GroupConfig {
                id: format!("g{case}-{i}-{:x}", rng.next_u64() & 0xffff),
                replicas: (0..replica_count).map(|_| addr(rng)).collect(),
            }
        })
        .collect();
    RingConfig { epoch: 1 + (rng.next_u64() % 100), vnodes, groups }
}

fn names(case: u64) -> Vec<String> {
    (0..NAMES).map(|i| format!("case{case}/sketch-{i}")).collect()
}

#[test]
fn rings_from_the_same_text_agree_on_every_owner() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x5249_4e47 ^ case.wrapping_mul(0x9E37_79B9));
        let config = random_config(&mut rng, case);
        let text = config.to_text();
        // Two independent parses of the committed text — the in-process
        // stand-in for two router processes reading the same file.
        let ring_a = Ring::build(RingConfig::from_text(&text).unwrap()).unwrap();
        let ring_b = Ring::build(RingConfig::from_text(&text).unwrap()).unwrap();
        for name in names(case) {
            assert_eq!(
                ring_a.owner(&name).id,
                ring_b.owner(&name).id,
                "case {case}: rings from identical text disagree on {name:?}"
            );
        }
    }
}

#[test]
fn adding_a_group_moves_about_one_nth_and_only_to_the_new_group() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xADD0_0000 ^ case.wrapping_mul(0x9E37_79B9));
        let config = random_config(&mut rng, case);
        let n = config.groups.len();
        let old = Ring::build(config.clone()).unwrap();

        let mut grown = config;
        grown.epoch += 1;
        grown.groups.push(GroupConfig {
            id: format!("g{case}-new-{:x}", rng.next_u64() & 0xffff),
            replicas: vec![addr(&mut rng)],
        });
        let new = Ring::build(grown).unwrap();
        let new_id = &new.groups()[n].id;

        let mut moved = 0usize;
        for name in names(case) {
            let before = old.owner(&name).id.clone();
            let after = new.owner(&name).id.clone();
            if before != after {
                moved += 1;
                // The exactness half: a surviving group never donates to
                // another surviving group when only an *add* happened.
                assert_eq!(
                    &after, new_id,
                    "case {case}: {name:?} moved {before:?} → {after:?}, \
                     not to the added group {new_id:?}"
                );
            }
        }
        // The quantity half: ≈ NAMES/(n+1), within a wide band that
        // accommodates vnode placement variance at 32 vnodes.
        let ideal = NAMES / (n + 1);
        let (lo, hi) = (ideal / 3, ideal * 5 / 2);
        assert!(
            (lo..=hi).contains(&moved),
            "case {case}: adding a group to {n} moved {moved} of {NAMES} names; \
             expected ≈{ideal} (band {lo}..={hi})"
        );
    }
}

#[test]
fn removing_a_group_moves_exactly_its_names_and_no_others() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0xDE1E_0000 ^ case.wrapping_mul(0x9E37_79B9));
        let config = random_config(&mut rng, case);
        let old = Ring::build(config.clone()).unwrap();

        let victim = (rng.next_u64() % config.groups.len() as u64) as usize;
        let victim_id = config.groups[victim].id.clone();
        let mut shrunk = config;
        shrunk.epoch += 1;
        shrunk.groups.remove(victim);
        let new = Ring::build(shrunk).unwrap();

        let mut moved = 0usize;
        let mut orphaned = 0usize;
        for name in names(case) {
            let before = old.owner(&name).id.clone();
            let after = new.owner(&name).id.clone();
            if before == victim_id {
                orphaned += 1;
                assert_ne!(after, victim_id, "case {case}: removed group still owns {name:?}");
            } else {
                // Names owned by survivors do not move at all.
                assert_eq!(
                    before, after,
                    "case {case}: {name:?} moved between surviving groups on a remove"
                );
            }
            if before != after {
                moved += 1;
            }
        }
        assert_eq!(
            moved, orphaned,
            "case {case}: movement must be exactly the removed group's names"
        );
    }
}

#[test]
fn lookups_and_planning_survive_serialization_round_trip() {
    for case in 0..CASES {
        let mut rng = SplitMix64::new(0x7E87_0000 ^ case.wrapping_mul(0x9E37_79B9));
        let config = random_config(&mut rng, case);
        let reparsed = RingConfig::from_text(&config.to_text()).unwrap();
        assert_eq!(reparsed, config, "case {case}: to_text/from_text is not the identity");

        let direct = Ring::build(config.clone()).unwrap();
        let round_tripped = Ring::build(reparsed).unwrap();
        let all = names(case);
        for name in &all {
            assert_eq!(
                direct.owner_index(name),
                round_tripped.owner_index(name),
                "case {case}: owner of {name:?} changed across serialization"
            );
        }

        // plan_moves against an identical-membership ring is empty for
        // every group: serialization introduces no phantom moves.
        for group in direct.groups() {
            let owned: Vec<&str> =
                all.iter().filter(|n| direct.owner(n).id == group.id).map(String::as_str).collect();
            assert!(
                plan_moves(&round_tripped, &group.id, owned).is_empty(),
                "case {case}: round-trip ring plans moves for unchanged membership"
            );
        }
    }
}
