//! The `sketch-docs` workload: one thread, no daemon. Each document is
//! sketched, estimated, compared with the previous document, merged into
//! the corpus union and round-tripped through the wire format.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use hmh_core::{format, HmhParams, HyperMinHash};

use crate::daemon::peak_rss_kib;
use crate::layers::Layers;
use crate::report::{latency_metrics, median_f64, percentile, rate_per_s, Length, Metrics};
use crate::rng::Rng;
use crate::trace::Trace;
use crate::{Outcome, SETUPS};

/// Documents in the corpus, replayed in rounds.
const DOCS: usize = 256;
/// Items per document, log-uniform (evenly spaced quantiles).
const DOC_ITEMS: (usize, usize) = (1 << 8, 1 << 16);
/// Rounds a second on the 2-vCPU machine the workload was sized on:
/// `--seconds` fixes the number of rounds through it.
const ROUNDS_PER_SECOND: f64 = 2.7;

/// The corpus: each document shares a seeded fraction of its items with
/// the one before it.
pub fn corpus(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = Rng::derive(seed, 1 << 40);
    let sizes = rng.strata(DOCS, DOC_ITEMS, true);
    let mut shares: Vec<f64> = (0..DOCS).map(|i| (i as f64 + 0.5) / DOCS as f64).collect();
    rng.shuffle(&mut shares);
    let mut docs: Vec<Vec<u64>> = Vec::with_capacity(DOCS);
    for (n, share) in sizes.into_iter().zip(shares) {
        let prev = docs.last().map_or(&[][..], Vec::as_slice);
        let shared = (share * n.min(prev.len()) as f64) as usize;
        let mut items = prev[..shared].to_vec();
        items.extend((shared..n).map(|_| rng.next_u64()));
        docs.push(items);
    }
    docs
}

/// When each step of one document ended.
struct Steps {
    start: Instant,
    inserted: Instant,
    estimated: Instant,
    compared: Instant,
    merged: Instant,
    encoded: Instant,
    decoded: Instant,
}

impl Steps {
    fn ns(from: Instant, to: Instant) -> u64 {
        to.duration_since(from).as_nanos() as u64
    }

    fn total_ns(&self) -> u64 {
        Self::ns(self.start, self.decoded)
    }

    /// Reads: the estimate and the comparison.
    fn read_ns(&self) -> u64 {
        Self::ns(self.inserted, self.compared)
    }

    /// Writes: the insert, the merge and the wire round trip.
    fn write_ns(&self) -> u64 {
        self.total_ns() - self.read_ns()
    }
}

struct Corpus {
    params: HmhParams,
    docs: Vec<Vec<u64>>,
    union: HyperMinHash,
    prev: HyperMinHash,
    /// Cardinality and Jaccard estimates of the first round, which every
    /// later round must repeat bit for bit.
    first_round: Vec<(u64, u64)>,
    rounds: usize,
}

impl Corpus {
    fn new(docs: Vec<Vec<u64>>) -> Self {
        let params = HmhParams::headline();
        // The first document is compared with the last one.
        let mut prev = HyperMinHash::new(params);
        prev.insert_batch(docs.last().expect("the corpus is not empty"));
        let union = HyperMinHash::new(params);
        Self { params, docs, union, prev, first_round: Vec::new(), rounds: 0 }
    }

    /// Process document `i`; the checks run after the timed steps.
    fn process(&mut self, i: usize) -> Result<(Steps, HyperMinHash), String> {
        let start = Instant::now();
        let mut sketch = HyperMinHash::new(self.params);
        sketch.insert_batch(&self.docs[i]);
        let inserted = Instant::now();
        let card = black_box(sketch.cardinality());
        let estimated = Instant::now();
        let jaccard = sketch.jaccard(&self.prev).map_err(|e| e.to_string())?.estimate;
        let compared = Instant::now();
        self.union.merge(&sketch).map_err(|e| e.to_string())?;
        let merged = Instant::now();
        let bytes = format::encode(&sketch);
        let encoded = Instant::now();
        let decoded_sketch = format::decode(&bytes).map_err(|e| e.to_string())?;
        let decoded = Instant::now();

        if format::encode(&decoded_sketch) != bytes {
            return Err(format!("document {i}: the encode/decode round trip changed the bytes"));
        }
        let estimates = (card.to_bits(), jaccard.to_bits());
        if self.rounds == 0 {
            self.first_round.push(estimates);
        } else if self.first_round[i] != estimates {
            return Err(format!("document {i}: the estimates changed between rounds"));
        }
        Ok((Steps { start, inserted, estimated, compared, merged, encoded, decoded }, sketch))
    }

    /// Run rounds of the whole corpus for `length`, returning the wall
    /// time of each round in ns; `each` sees every document's steps,
    /// sketch and items.
    fn run(
        &mut self,
        length: Length,
        mut each: impl FnMut(&Steps, &HyperMinHash, &[u64]),
    ) -> Result<Vec<u64>, String> {
        let start = Instant::now();
        let mut round_ns = Vec::new();
        loop {
            let round_start = Instant::now();
            for i in 0..self.docs.len() {
                let (steps, sketch) = self.process(i)?;
                each(&steps, &sketch, &self.docs[i]);
                self.prev = sketch;
            }
            round_ns.push(round_start.elapsed().as_nanos() as u64);
            self.rounds += 1;
            if length.done(round_ns.len(), start.elapsed()) {
                return Ok(round_ns);
            }
        }
    }

    /// The union of every document equals one sketch built item by item.
    fn check_union(&self) -> Result<(), String> {
        let mut sequential = HyperMinHash::new(self.params);
        for item in self.docs.iter().flatten() {
            sequential.insert(item);
        }
        if format::encode(&sequential) != format::encode(&self.union) {
            return Err("the corpus union differs from a sequential build".into());
        }
        Ok(())
    }

    /// Sketch bytes written per byte of items inserted, over one round.
    fn write_amp(&self) -> f64 {
        let items: usize = self.docs.iter().map(Vec::len).sum();
        let encoded = self.docs.len() * format::encode(&self.union).len();
        encoded as f64 / (items * std::mem::size_of::<u64>()) as f64
    }
}

pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut docs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        docs = black_box(corpus(seed));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut corpus = Corpus::new(docs);

    let (mut all, mut reads, mut writes) = (Vec::new(), Vec::new(), Vec::new());
    let round_ns = corpus.run(Length::rounds(seconds, ROUNDS_PER_SECOND), |s, _, _| {
        all.push(s.total_ns());
        reads.push(s.read_ns());
        writes.push(s.write_ns());
    })?;
    corpus.check_union()?;

    let by_round = |v: Vec<u64>| -> Vec<Vec<u64>> { v.chunks(DOCS).map(<[u64]>::to_vec).collect() };
    let done = all.len();
    let mut m = Metrics::default();
    m.add("setup_s", median_f64(setups), "s");
    m.add("ops_per_s", rate_per_s(&vec![DOCS; round_ns.len()], &round_ns), "1/s");
    latency_metrics(&mut m, &by_round(all), &by_round(reads), &by_round(writes));
    m.add("ok_ratio", 1.0, "ratio");
    m.add("write_amp", corpus.write_amp(), "ratio");
    let rss = peak_rss_kib("/proc/self/status").map_err(|e| e.to_string())?;
    m.add("rss_mb", rss as f64 / 1024.0, "MB");
    Ok(Outcome { metrics: m, attempted: done as u64, failed: 0 })
}

pub fn run_traced(seed: u64, seconds: f64, trace_file: &Path) -> Result<Outcome, String> {
    let mut corpus = Corpus::new(corpus(seed));

    // Untraced, then traced: the difference of the median document
    // times is the tracing overhead.
    let mut untraced = Vec::new();
    let phase = |share: f64| Length::Time(Duration::from_secs_f64(seconds * share));
    corpus.run(phase(0.3), |s, _, _| {
        untraced.push(s.total_ns());
    })?;

    let mut tr = Trace::new();
    let mut traced = Vec::new();
    let mut items = 0u64;
    corpus.run(phase(0.7), |s, sketch, doc| {
        let op = traced.len();
        let root = tr.record(op, "doc", s.start, s.decoded, None);
        let insert = tr.record(op, "core.insert_batch", s.start, s.inserted, Some(root));
        tr.record(op, "core.cardinality", s.inserted, s.estimated, Some(root));
        tr.record(op, "core.jaccard", s.estimated, s.compared, Some(root));
        tr.record(op, "core.merge", s.compared, s.merged, Some(root));
        tr.record(op, "core.encode", s.merged, s.encoded, Some(root));
        tr.record(op, "core.decode", s.encoded, s.decoded, Some(root));
        // Replay the hashing insert_batch did inside it.
        let oracle = sketch.oracle();
        tr.time(op, "hash.digest", Some(insert), || {
            for item in doc {
                black_box(oracle.digest(item));
            }
        });
        items += doc.len() as u64;
        traced.push(s.total_ns());
    })?;
    corpus.check_union()?;
    tr.write(trace_file).map_err(|e| e.to_string())?;

    let mut layers = Layers::default();
    layers.set_core(&tr, &tr.self_ns(), items);
    let overhead = percentile(&mut traced, 50.0) as f64 - percentile(&mut untraced, 50.0) as f64;
    layers.set("trace.overhead_us", overhead / 1e3);
    let attempted = (untraced.len() + traced.len()) as u64;
    Ok(Outcome { metrics: layers.into_metrics(), attempted, failed: 0 })
}
