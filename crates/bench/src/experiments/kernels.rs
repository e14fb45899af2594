//! In-process kernel timings: ns/op for the sketch kernels at three
//! parameter sets, for the baselines the paper compares against, and for
//! the Appendix A.1 and Algorithm 5/6 ablations. Published as
//! `BENCH_core.json`.
//!
//! The experiment is one list of named rows `(group, kernel, params,
//! call)` and one timer. Every row runs its call once and checks the
//! output before it is timed — `decode(encode(s)) == s`, `merge` equals
//! the sketch of the union, `insert_batch` equals the insert loop, every
//! estimate is finite — so no number can come from a wrong kernel. The
//! timer warms a row up, then reports the median of several timed batches.
//!
//! The machine's speed drifts between runs, so every row also reports
//! `x_copy`: its ns/op over the ns/op of the `copy` row (a clone of the
//! encoded register bytes) at its parameter set, timed in the same
//! process. Rows that time a baseline sketch are listed under the
//! HyperMinHash set they match: HLL p = 12 and bottom-1024 (8 KiB) under
//! `p=12,q=6,r=10`, the 256-register k-partition and k-hash MinHash under
//! Figure 6's `p=8,q=4,r=4`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use super::Config;
use crate::table::{fnum, Table};
use hmh_core::collisions::{
    approx_expected_collisions, expected_collisions, expected_collisions_bigfloat,
};
use hmh_core::{format, HmhParams, HyperMinHash};
use hmh_hash::{HashAlgorithm, RandomOracle};
use hmh_hll::estimators::{ertl_improved, ertl_mle, ffgm, EstimatorKind};
use hmh_hll::{inclusion_exclusion, joint_mle, HyperLogLog};
use hmh_minhash::{BottomK, KHashMinHash, KPartitionMinHash};

/// The parameter sets: Figure 6, the ingest/route set, and the headline
/// set that the `sketch-docs` benchmark workload runs at.
const SETS: [(u32, u32, u32); 3] = [(8, 4, 4), (12, 6, 10), (15, 6, 10)];
const FIG6: usize = 0;
const MID: usize = 1;
const HEADLINE: usize = 2;

/// Items per insert call; query operands have `OPERAND` items and
/// overlap by half.
const BATCH: u64 = 10_000;
const OPERAND: u64 = 50_000;

/// One call per operation (the unit of most rows).
const CALL: (u64, &str) = (1, "call");

fn params(set: usize) -> HmhParams {
    let (p, q, r) = SETS[set];
    HmhParams::new(p, q, r).expect("valid parameter set")
}

fn label(set: usize) -> String {
    let (p, q, r) = SETS[set];
    format!("p={p},q={q},r={r}")
}

/// One timed row: a call that performs `per.0` operations of unit `per.1`.
struct Row {
    group: &'static str,
    kernel: &'static str,
    set: usize,
    per: (u64, &'static str),
    check: &'static str,
    call: Box<dyn FnMut()>,
}

/// Build a row, running `call` once and asserting `ok` on its output
/// first: a row whose kernel is wrong never reaches the timer.
fn row<T>(
    (group, kernel): (&'static str, &'static str),
    set: usize,
    per: (u64, &'static str),
    mut call: impl FnMut() -> T + 'static,
    check: &'static str,
    ok: impl FnOnce(&T) -> bool,
) -> Row {
    assert!(ok(&call()), "{group}/{kernel} at {}: output check `{check}` failed", label(set));
    let call = Box::new(move || {
        black_box(call());
    });
    Row { group, kernel, set, per, check, call }
}

/// A row whose output is an estimate; an error counts as not finite.
fn estimate(
    name: (&'static str, &'static str),
    set: usize,
    call: impl FnMut() -> f64 + 'static,
) -> Row {
    row(name, set, CALL, call, "finite", |x| x.is_finite())
}

/// The six kernels of ROADMAP item 4a plus the `copy` reference, at one
/// parameter set.
fn core_rows(set: usize, rows: &mut Vec<Row>) {
    let params = params(set);
    let items: Vec<u64> = (0..BATCH).collect();
    let looped = HyperMinHash::from_items(params, items.iter().copied());
    let batch = move || {
        let mut s = HyperMinHash::new(params);
        s.insert_batch(&items);
        s
    };
    rows.push(row(("core", "insert_batch"), set, (BATCH, "item"), batch, "= insert loop", |s| {
        *s == looped
    }));

    let a = HyperMinHash::from_items(params, 0..OPERAND);
    let b = HyperMinHash::from_items(params, OPERAND / 2..OPERAND * 3 / 2);
    let both = HyperMinHash::from_items(params, 0..OPERAND * 3 / 2);
    let bytes = format::encode(&a);
    let (a1, b1) = (a.clone(), b.clone());
    let merge = move || {
        let mut m = a1.clone();
        m.merge(&b1).expect("same parameters");
        m
    };
    rows.push(row(("core", "merge"), set, CALL, merge, "= sketch(A∪B)", |m| *m == both));
    let (a1, a2, b1) = (a.clone(), a.clone(), bytes.clone());
    let roundtrip = "decode(encode(s)) = s";
    let encode = move || format::encode(&a1);
    rows.push(row(("core", "encode"), set, CALL, encode, roundtrip, |e| {
        format::decode(e).is_ok_and(|d| d == a)
    }));
    let decode = move || format::decode(&b1).expect("valid encoding");
    rows.push(row(("core", "decode"), set, CALL, decode, roundtrip, |d| *d == a2));
    let a1 = a.clone();
    rows.push(estimate(("core", "card"), set, move || a1.cardinality()));
    let a1 = a.clone();
    rows.push(estimate(("core", "jaccard"), set, move || {
        a1.jaccard(&b).map_or(f64::NAN, |j| j.estimate)
    }));
    let b1 = bytes.clone();
    rows.push(row(("core", "copy"), set, CALL, move || b1.clone(), "= bytes", |c| *c == bytes));
}

/// An `insert_10k` row: 10k inserts into a fresh `$new`, per item.
macro_rules! insert_10k {
    ($kernel:expr, $set:expr, $new:expr, $check:expr, $ok:expr) => {
        row(
            ("insert_10k", $kernel),
            $set,
            (BATCH, "item"),
            move || {
                let mut s = $new;
                for i in 0..BATCH {
                    s.insert(black_box(&i));
                }
                s
            },
            $check,
            $ok,
        )
    };
    ($kernel:expr, $set:expr, $new:expr) => {
        insert_10k!($kernel, $set, $new, "finite estimate", |s| s.cardinality().is_finite())
    };
}

fn insert_rows(rows: &mut Vec<Row>) {
    let hmh = |kernel, set, alg| {
        let (params, oracle) = (params(set), RandomOracle::new(alg, 0));
        let mut batched = HyperMinHash::with_oracle(params, oracle);
        batched.insert_batch(&(0..BATCH).collect::<Vec<_>>());
        insert_10k!(kernel, set, HyperMinHash::with_oracle(params, oracle), "= insert_batch", |s| {
            *s == batched
        })
    };
    rows.push(hmh("hyperminhash_fig6", FIG6, HashAlgorithm::Murmur3));
    rows.push(hmh("hyperminhash_headline", HEADLINE, HashAlgorithm::Murmur3));
    rows.push(hmh("hyperminhash_splitmix_oracle", FIG6, HashAlgorithm::SplitMix));
    rows.push(hmh("hyperminhash_sha1_oracle", FIG6, HashAlgorithm::Sha1));
    let oracle = RandomOracle::default();
    rows.push(insert_10k!("hyperloglog_p12", MID, HyperLogLog::new(12)));
    rows.push(insert_10k!("kpartition_256x8", FIG6, KPartitionMinHash::new(8, 8, oracle)));
    rows.push(insert_10k!("bottomk_1024", MID, BottomK::new(1024, oracle)));
    rows.push(insert_10k!("khash_256", FIG6, KHashMinHash::new(256, oracle)));
}

/// Appendix A.1's Jaccard bucket scan: `(matching, occupied)` buckets.
/// Timed over packed single words and over unpacked `(counter, mantissa)`
/// tuples; only the register type differs.
fn scan<T: Copy + PartialEq + Default>(a: &[T], b: &[T]) -> (usize, usize) {
    let empty = T::default();
    let (mut matching, mut occupied) = (0usize, 0usize);
    for (&x, &y) in a.iter().zip(b) {
        if x != empty || y != empty {
            occupied += 1;
            matching += usize::from(x == y);
        }
    }
    (matching, occupied)
}

fn scan_rows(rows: &mut Vec<Row>) {
    let params = params(HEADLINE);
    let a = HyperMinHash::from_items(params, 0..200_000u64);
    let b = HyperMinHash::from_items(params, 100_000..300_000u64);
    let counts = a.jaccard(&b).map(|j| (j.matching, j.occupied)).expect("same parameters");
    let per = (params.num_buckets() as u64, "bucket");
    let (wa, wb): (Vec<u32>, Vec<u32>) = (a.words().collect(), b.words().collect());
    let tuples = |s: &HyperMinHash| -> Vec<(u32, u32)> {
        (0..params.num_buckets()).map(|i| s.register(i).unwrap_or((0, 0))).collect()
    };
    let (ta, tb) = (tuples(&a), tuples(&b));
    let (check, ok) = ("= jaccard counts", |c: &(usize, usize)| *c == counts);
    let name = ("jaccard_scan", "packed_word");
    rows.push(row(name, HEADLINE, per, move || scan(&wa, &wb), check, ok));
    let name = ("jaccard_scan", "tuple_compare");
    rows.push(row(name, HEADLINE, per, move || scan(&ta, &tb), check, ok));
}

/// The three expected-collision computations: log-space exact
/// (Algorithm 5), big-float Algorithm 5 (the paper's "BigInts") and the
/// Algorithm 6 approximation. Figure 6's `n` is 2^22, the largest
/// cardinality Algorithm 6 accepts at `q = 4`; the big-float loop runs
/// only there (at `r = 10` it is minutes-scale, the paper's point).
fn collision_rows(rows: &mut Vec<Row>) {
    let (fig6, headline) = (params(FIG6), params(HEADLINE));
    let n = 1u128 << 22;
    let nf = n as f64;
    let g = "expected_collisions";
    rows.push(estimate((g, "logspace_exact"), FIG6, move || {
        expected_collisions(black_box(fig6), black_box(nf), nf)
    }));
    rows.push(estimate((g, "bigfloat_alg5_192bit"), FIG6, move || {
        expected_collisions_bigfloat(black_box(fig6), black_box(n), n, 192)
    }));
    rows.push(estimate((g, "approx_alg6"), FIG6, move || {
        approx_expected_collisions(black_box(fig6), black_box(nf), nf).unwrap_or(f64::NAN)
    }));
    rows.push(estimate((g, "logspace_exact_headline"), HEADLINE, move || {
        expected_collisions(black_box(headline), black_box(1e19), 1e19)
    }));
    rows.push(estimate((g, "approx_alg6_headline"), HEADLINE, move || {
        approx_expected_collisions(black_box(headline), black_box(1e19), 1e19).unwrap_or(f64::NAN)
    }));
}

/// The §1.3 baseline's price: HLL estimators and HLL-only intersections
/// on two p = 12 sketches of 200k items overlapping by half.
fn hll_rows(rows: &mut Vec<Row>) {
    let mut a = HyperLogLog::new(12);
    let mut b = HyperLogLog::new(12);
    for i in 0..200_000u64 {
        a.insert(&i);
        b.insert(&(i + 100_000));
    }
    let ffgm = ffgm as fn(&[u64]) -> f64;
    for (kernel, estimator) in
        [("ffgm", ffgm), ("ertl_improved", ertl_improved), ("ertl_mle", ertl_mle)]
    {
        let hist = a.histogram();
        rows.push(estimate(("hll_estimators", kernel), MID, move || estimator(black_box(&hist))));
    }
    let (a1, b1) = (a.clone(), b.clone());
    rows.push(estimate(("hll_intersection", "inclusion_exclusion"), MID, move || {
        inclusion_exclusion(&a1, &b1, EstimatorKind::ErtlImproved)
            .map_or(f64::NAN, |e| e.intersection)
    }));
    rows.push(estimate(("hll_intersection", "joint_mle"), MID, move || {
        joint_mle(&a, &b).map_or(f64::NAN, |e| e.intersection)
    }));
}

/// How long the timer spends on a row.
struct Budget {
    warmup: Duration,
    batches: usize,
    batch: Duration,
}

impl Budget {
    fn for_config(cfg: &Config) -> Self {
        let ms = Duration::from_millis;
        if cfg.quick {
            Self { warmup: ms(5), batches: 5, batch: ms(4) }
        } else {
            Self { warmup: ms(50), batches: 11, batch: ms(20) }
        }
    }

    /// Median ns per call: warm up (at least one call), size a batch from
    /// the warm-up's mean, then time `batches` batches of that size.
    fn time(&self, call: &mut dyn FnMut()) -> f64 {
        let start = Instant::now();
        let mut calls = 0u32;
        while calls == 0 || start.elapsed() < self.warmup {
            call();
            calls += 1;
        }
        let iters = (self.batch.as_nanos() / (start.elapsed() / calls).as_nanos().max(1)).max(1);
        let mut ns: Vec<f64> = (0..self.batches)
            .map(|_| {
                let t = Instant::now();
                (0..iters).for_each(|_| call());
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        ns.sort_by(f64::total_cmp);
        ns[ns.len() / 2]
    }
}

/// Check every row, then time every row.
pub fn run(cfg: &Config) -> Table {
    let mut rows = Vec::new();
    (0..SETS.len()).for_each(|set| core_rows(set, &mut rows));
    insert_rows(&mut rows);
    scan_rows(&mut rows);
    collision_rows(&mut rows);
    hll_rows(&mut rows);

    let budget = Budget::for_config(cfg);
    let ns: Vec<f64> = rows.iter_mut().map(|r| budget.time(&mut r.call) / r.per.0 as f64).collect();
    let copy_ns = |set| {
        let copy = rows.iter().position(|r| r.set == set && r.kernel == "copy");
        ns[copy.expect("every set has a copy row")]
    };
    let mut table = Table::new(
        format!("Kernel timings: ns/op, median of {} batches", budget.batches),
        &["group", "kernel", "params", "per", "ns_per_op", "x_copy", "check"],
    );
    for (r, &ns) in rows.iter().zip(&ns) {
        table.push_row(vec![
            r.group.to_string(),
            r.kernel.to_string(),
            label(r.set),
            r.per.1.to_string(),
            fnum(ns),
            fnum(ns / copy_ns(r.set)),
            r.check.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row outside `core` as `kernel set`, grouped, set by index.
    const ROWS: &str = "insert_10k: hyperminhash_fig6 0, hyperminhash_headline 2, \
        hyperminhash_splitmix_oracle 0, hyperminhash_sha1_oracle 0, hyperloglog_p12 1, \
        kpartition_256x8 0, bottomk_1024 1, khash_256 0; \
        jaccard_scan: packed_word 2, tuple_compare 2; \
        expected_collisions: logspace_exact 0, bigfloat_alg5_192bit 0, approx_alg6 0, \
        logspace_exact_headline 2, approx_alg6_headline 2; \
        hll_estimators: ffgm 1, ertl_improved 1, ertl_mle 1; \
        hll_intersection: inclusion_exclusion 1, joint_mle 1";

    #[test]
    fn smoke_run_times_every_row_once() {
        let t = run(&Config::smoke());
        let mut names: Vec<String> = (0..t.num_rows())
            .map(|i| {
                let name = format!("{}/{}/{}", t.cell(i, 0), t.cell(i, 1), t.cell(i, 2));
                let ns = t.cell_f64(i, t.col("ns_per_op"));
                assert!(ns.is_finite() && ns > 0.0, "{name}: {ns} ns/op");
                assert!(t.cell_f64(i, t.col("x_copy")) > 0.0, "{name}");
                assert!(!t.cell(i, t.col("check")).is_empty(), "{name}: no output check");
                name
            })
            .collect();
        let core = ["insert_batch", "merge", "encode", "decode", "card", "jaccard", "copy"];
        let mut expected: Vec<String> =
            (0..SETS.len()).flat_map(|s| core.map(|k| format!("core/{k}/{}", label(s)))).collect();
        for group in ROWS.split("; ") {
            let (group, kernels) = group.split_once(": ").expect("group: kernels");
            for kernel in kernels.split(", ") {
                let (kernel, set) = kernel.split_once(' ').expect("kernel set");
                expected.push(format!("{group}/{kernel}/{}", label(set.parse().expect("set"))));
            }
        }
        names.sort();
        expected.sort();
        assert_eq!(names, expected, "every row exactly once");
    }

    #[test]
    #[should_panic(expected = "core/card at p=8,q=4,r=4: output check `finite` failed")]
    fn a_wrong_kernel_fails_its_check_before_timing() {
        estimate(("core", "card"), FIG6, || f64::NAN);
    }
}
