//! The serving workloads: their sizes and op mixes, the seeded op lists
//! sent to the daemons, and the in-memory model that predicts every
//! reply.
//!
//! Each of the two client connections owns the keys whose index is
//! congruent to its own index mod 2, so no key is written by both and
//! every reply has exactly one correct value. A connection replays its
//! fixed op list once per round. The ops of one round, taken together,
//! are idempotent (CARD and JACCARD only read, MERGE is a register-max
//! union), so the state at the start of every round after the first is
//! the state after one round: the model replays two rounds and predicts
//! every later round from the second.

use std::collections::BTreeMap;

use hmh_core::{format, HmhParams, HyperMinHash};
use hmh_hash::xxhash::xxh64;
use hmh_serve::proto::encode_response;
use hmh_serve::{Request, Response};

use crate::rng::Rng;

/// Client connections in the closed loop (one per core of the 2-core
/// machine the workloads were sized on).
pub const CONNECTIONS: usize = 2;

/// Counter and mantissa widths of every sketch: the paper's headline
/// `q = 6, r = 10`.
const Q: u32 = 6;
const R: u32 = 10;
/// Items in a preloaded sketch, log-uniform. Sizes are drawn from
/// evenly spaced quantiles (see [`Rng::strata`]).
const BASE_ITEMS: (usize, usize) = (1 << 10, 1 << 14);
/// Fresh items in a MERGE delta sketch, log-uniform.
const DELTA_ITEMS: (usize, usize) = (64, 1024);

/// The op kinds the workloads send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Card,
    Jaccard,
    Merge,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Card, Kind::Jaccard, Kind::Merge];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Card => "card",
            Kind::Jaccard => "jaccard",
            Kind::Merge => "merge",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn is_write(self) -> bool {
        self == Kind::Merge
    }

    pub fn of(request: &Request) -> Kind {
        match request {
            Request::Card { .. } => Kind::Card,
            Request::Jaccard { .. } => Kind::Jaccard,
            Request::Merge { .. } => Kind::Merge,
            other => panic!("the workloads send no {other:?}"),
        }
    }
}

/// One serving workload.
#[derive(Debug)]
pub struct ServeSpec {
    pub name: &'static str,
    pub keys: usize,
    pub p: u32,
    /// Op kinds with their weights in per mille.
    pub mix: &'static [(Kind, u32)],
    /// Ops in one connection's round.
    pub round_ops: usize,
    /// Two daemons behind `hmh route serve` instead of one daemon.
    pub routed: bool,
    /// Rounds a second on the 2-vCPU machine the workloads were sized
    /// on: `--seconds` fixes the number of rounds through it, so every
    /// run does the same work.
    pub rounds_per_second: f64,
}

// Writes are few in both workloads. Every MERGE appends the whole
// merged sketch to the write-ahead log and fsyncs it, and the daemon's
// background scrub re-reads the whole log on every slice, so a
// write-heavy run grows the log by hundreds of MiB, stalls reads behind
// ever longer scrub slices and ties the result to the shared disk's
// fsync tail.

pub const SERVE_READ: ServeSpec = ServeSpec {
    name: "serve-read",
    keys: 256,
    p: 15,
    mix: &[(Kind::Card, 845), (Kind::Jaccard, 150), (Kind::Merge, 5)],
    round_ops: 1000,
    routed: false,
    rounds_per_second: 3.5,
};

pub const ROUTED: ServeSpec = ServeSpec {
    name: "routed",
    keys: 512,
    p: 14,
    mix: &[(Kind::Card, 780), (Kind::Jaccard, 200), (Kind::Merge, 20)],
    round_ops: 500,
    routed: true,
    rounds_per_second: 7.0,
};

pub fn key_name(i: usize) -> String {
    format!("k{i:05}")
}

/// Everything the daemons receive, generated from the seed alone.
#[derive(Debug, PartialEq)]
pub struct Plan {
    /// One PUT per key, sent before the first measured op.
    pub preload: Vec<Request>,
    /// Each connection's round of ops.
    pub conns: Vec<Vec<Request>>,
}

pub fn plan(spec: &ServeSpec, seed: u64) -> Plan {
    let params = HmhParams::new(spec.p, Q, R).expect("workload parameters are valid");
    let sizes = Rng::derive(seed, 1 << 33).strata(spec.keys, BASE_ITEMS, true);
    let preload = sizes
        .into_iter()
        .enumerate()
        .map(|(k, n)| {
            let mut rng = Rng::derive(seed, k as u64);
            Request::Put { name: key_name(k), sketch: random_sketch(params, &mut rng, n) }
        })
        .collect();
    let conns = (0..CONNECTIONS).map(|c| ops(spec, params, seed, c)).collect();
    Plan { preload, conns }
}

fn random_sketch(params: HmhParams, rng: &mut Rng, n: usize) -> Vec<u8> {
    let items: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
    let mut sketch = HyperMinHash::new(params);
    sketch.insert_batch(&items);
    format::encode(&sketch)
}

fn ops(spec: &ServeSpec, params: HmhParams, seed: u64, conn: usize) -> Vec<Request> {
    let mut rng = Rng::derive(seed, (1 << 32) + conn as u64);
    let owned = (spec.keys - conn).div_ceil(CONNECTIONS);
    let pick = |rng: &mut Rng| key_name(rng.below(owned) * CONNECTIONS + conn);
    // Exactly the mix in every round, in seeded order, so that seeds
    // differ in which keys and items an op touches but not in how much
    // work of each kind a round holds.
    let total: u32 = spec.mix.iter().map(|&(_, w)| w).sum();
    let mut kinds: Vec<Kind> = spec
        .mix
        .iter()
        .flat_map(|&(kind, w)| {
            std::iter::repeat_n(kind, spec.round_ops * w as usize / total as usize)
        })
        .collect();
    assert_eq!(kinds.len(), spec.round_ops, "round_ops is a multiple of the mix's total weight");
    rng.shuffle(&mut kinds);
    let merges = kinds.iter().filter(|&&k| k == Kind::Merge).count();
    let mut sizes = rng.strata(merges, DELTA_ITEMS, true);
    kinds
        .into_iter()
        .map(|kind| match kind {
            Kind::Card => Request::Card { name: pick(&mut rng) },
            Kind::Jaccard => {
                let a = pick(&mut rng);
                let b = loop {
                    let b = pick(&mut rng);
                    if b != a {
                        break b;
                    }
                };
                Request::Jaccard { a, b }
            }
            Kind::Merge => Request::Merge {
                name: pick(&mut rng),
                sketch: random_sketch(params, &mut rng, sizes.pop().expect("a size per MERGE")),
            },
        })
        .collect()
}

/// Payload bytes a write op carries: the sketch of a MERGE.
pub fn write_payload(request: &Request) -> u64 {
    match request {
        Request::Merge { sketch, .. } => sketch.len() as u64,
        _ => 0,
    }
}

/// The protocol's semantics over an in-memory map of sketches.
#[derive(Default)]
pub struct Model {
    sketches: BTreeMap<String, HyperMinHash>,
}

impl Model {
    pub fn apply(&mut self, request: &Request) -> Response {
        let decode = |bytes: &[u8]| format::decode(bytes).expect("generated sketches decode");
        let get = |name: &str| -> &HyperMinHash {
            self.sketches.get(name).expect("the workloads only read preloaded keys")
        };
        match request {
            Request::Card { name } => Response::Value(get(name).cardinality()),
            Request::Jaccard { a, b } => Response::Value(
                get(a).jaccard(get(b)).expect("one configuration per workload").estimate,
            ),
            Request::Put { name, sketch } => {
                self.sketches.insert(name.clone(), decode(sketch));
                Response::Ok
            }
            Request::Merge { name, sketch } => {
                let incoming = decode(sketch);
                match self.sketches.get_mut(name) {
                    Some(existing) => {
                        existing.merge(&incoming).expect("one configuration per workload")
                    }
                    None => {
                        self.sketches.insert(name.clone(), incoming);
                    }
                }
                Response::Ok
            }
            other => panic!("the workloads send no {other:?}"),
        }
    }

    /// Every sketch under `format::encode`.
    pub fn encoded(&self) -> BTreeMap<String, Vec<u8>> {
        self.sketches.iter().map(|(k, s)| (k.clone(), format::encode(s))).collect()
    }
}

/// Digest of a reply frame body; replies are compared bit for bit
/// through it.
pub fn reply_digest(body: &[u8]) -> u64 {
    xxh64(body, 0)
}

/// The model's predictions for a plan.
pub struct Expected {
    /// `rounds[min(round, 1)][conn][op]`: reply digests of the first
    /// round, and of the second and every later round.
    pub rounds: [Vec<Vec<u64>>; 2],
    /// The state after one or more rounds.
    pub settled: BTreeMap<String, Vec<u8>>,
}

impl Expected {
    pub fn reply(&self, round: usize, conn: usize, op: usize) -> u64 {
        self.rounds[round.min(1)][conn][op]
    }
}

pub fn expect(plan: &Plan) -> Expected {
    let mut model = Model::default();
    for request in &plan.preload {
        model.apply(request);
    }
    let rounds = [0, 1].map(|_| {
        plan.conns
            .iter()
            .map(|ops| {
                ops.iter().map(|op| reply_digest(&encode_response(&model.apply(op)))).collect()
            })
            .collect()
    });
    Expected { rounds, settled: model.encoded() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_op_lists_and_the_expected_state() {
        for spec in [&SERVE_READ, &ROUTED] {
            let (a, b) = (plan(spec, 7), plan(spec, 7));
            assert!(a == b, "{}: same seed, different op lists", spec.name);
            let (ea, eb) = (expect(&a), expect(&b));
            assert_eq!(ea.rounds, eb.rounds, "{}", spec.name);
            assert_eq!(ea.settled, eb.settled, "{}", spec.name);

            let c = plan(spec, 8);
            assert!(a.conns != c.conns, "{}: another seed, same op lists", spec.name);
            assert!(a.preload != c.preload, "{}: another seed, same preload", spec.name);
        }
    }

    #[test]
    fn connections_own_disjoint_keys_and_the_mix_holds() {
        let key = |name: &str| name[1..].parse::<usize>().unwrap();
        for spec in [&SERVE_READ, &ROUTED] {
            let plan = plan(spec, 11);
            for (c, ops) in plan.conns.iter().enumerate() {
                for op in ops {
                    let names: Vec<&String> = match op {
                        Request::Jaccard { a, b } => vec![a, b],
                        Request::Card { name } | Request::Merge { name, .. } => vec![name],
                        _ => unreachable!(),
                    };
                    assert!(names.iter().all(|n| key(n) % CONNECTIONS == c && key(n) < spec.keys));
                }
                for &(kind, weight) in spec.mix {
                    let share = ops.iter().filter(|op| Kind::of(op) == kind).count() as f64
                        / ops.len() as f64;
                    assert_eq!(share, f64::from(weight) / 1000.0, "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn rounds_after_the_first_repeat() {
        // The premise of predicting every later round from the second.
        let plan = plan(&ROUTED, 3);
        let mut model = Model::default();
        plan.preload.iter().for_each(|r| {
            model.apply(r);
        });
        let mut replies = Vec::new();
        for _ in 0..3 {
            let round: Vec<u64> = plan.conns[0]
                .iter()
                .map(|op| reply_digest(&encode_response(&model.apply(op))))
                .collect();
            replies.push(round);
        }
        assert_eq!(replies[1], replies[2]);
    }
}
