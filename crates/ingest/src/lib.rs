//! Parallel sharded ingest for HyperMinHash sketches.
//!
//! The paper's union (Algorithm 2) is lossless: a bucket-wise register max.
//! Register max is associative, commutative and idempotent, so ingest is
//! embarrassingly data-parallel — partition the stream arbitrarily across
//! worker threads, let each build a private *shard* sketch, and merge the
//! shards at the end. The result is **bit-for-bit identical** to a
//! sequential build of the same items, no matter how the scheduler
//! interleaves the workers or how the stream is batched.
//!
//! [`IngestEngine`] is that pipeline: a bounded MPSC work queue (blocking
//! `submit` is the backpressure) feeding N `std::thread` workers, each
//! owning one shard and draining batches through the
//! [`insert_batch`](hmh_core::HyperMinHash::insert_batch) fast path.
//! [`IngestEngine::finish`] closes the queue, joins the workers, and folds
//! the shards with the lossless merge.
//!
//! ```
//! use hmh_core::{HmhParams, HyperMinHash};
//! use hmh_hash::RandomOracle;
//! use hmh_ingest::{ingest, IngestOptions};
//!
//! let params = HmhParams::new(8, 6, 6).unwrap();
//! let oracle = RandomOracle::with_seed(7);
//! let parallel = ingest(params, oracle, 0u64..10_000, IngestOptions::default()).unwrap();
//!
//! let mut sequential = HyperMinHash::with_oracle(params, oracle);
//! for item in 0u64..10_000 {
//!     sequential.insert(&item);
//! }
//! assert_eq!(parallel, sequential);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

use hmh_core::{HmhParams, HyperMinHash};
use hmh_hash::{HashableItem, RandomOracle};

/// Tuning knobs for the ingest pipeline.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Worker threads, each owning one shard sketch. Clamped to ≥ 1.
    pub workers: usize,
    /// Maximum batches queued ahead of the workers. `submit` blocks once
    /// the queue is full — this bound is the producer backpressure and
    /// caps queue memory at `queue_depth × batch bytes`. Clamped to ≥ 1.
    pub queue_depth: usize,
    /// Items per batch used by the [`ingest`] convenience driver. Larger
    /// batches amortize queue locking; smaller ones spread short streams
    /// across more workers. Clamped to ≥ 1.
    pub batch_size: usize,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self { workers: 4, queue_depth: 8, batch_size: 1024 }
    }
}

impl IngestOptions {
    /// Options with `workers` threads and the default queue bounds.
    pub fn with_workers(workers: usize) -> Self {
        Self { workers, ..Self::default() }
    }
}

/// Why an ingest pipeline failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestError {
    /// A worker thread panicked; the pipeline is closed and its partial
    /// result discarded. (Sketch insertion itself never panics — this can
    /// only come from a panicking [`HashableItem`] encoding.)
    WorkerPanicked,
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::WorkerPanicked => write!(f, "an ingest worker thread panicked"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Queue state behind the mutex: pending batches plus the two flags that
/// end the pipeline (`closed` = drain then exit; `failed` = a worker died).
struct State<T> {
    queue: VecDeque<Vec<T>>,
    closed: bool,
    failed: bool,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

/// Lock the queue, recovering from poisoning: the state is a plain
/// `VecDeque` plus two flags, valid at every instruction, so a panic while
/// holding the lock cannot leave it logically corrupt.
fn lock<T>(shared: &Shared<T>) -> MutexGuard<'_, State<T>> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Flags the pipeline as failed if the owning worker unwinds, so blocked
/// producers wake with an error instead of hanging on a queue that will
/// never drain.
struct FailGuard<T> {
    shared: Arc<Shared<T>>,
    armed: bool,
}

impl<T> Drop for FailGuard<T> {
    fn drop(&mut self) {
        if self.armed {
            let mut state = lock(&self.shared);
            state.failed = true;
            state.closed = true;
            drop(state);
            self.shared.not_full.notify_all();
            self.shared.not_empty.notify_all();
        }
    }
}

/// A running parallel ingest pipeline.
///
/// Producers call [`submit`](Self::submit) with batches of items (blocking
/// when the bounded queue is full); [`finish`](Self::finish) drains the
/// queue, joins the workers, and returns the merged sketch.
pub struct IngestEngine<T> {
    shared: Arc<Shared<T>>,
    workers: Vec<JoinHandle<HyperMinHash>>,
    params: HmhParams,
    oracle: RandomOracle,
}

impl<T: HashableItem + Send + 'static> IngestEngine<T> {
    /// Start a pipeline: spawn the worker threads, each with an empty
    /// private shard built from the same `(params, oracle)` pair.
    pub fn new(params: HmhParams, oracle: RandomOracle, opts: IngestOptions) -> Self {
        let workers = opts.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { queue: VecDeque::new(), closed: false, failed: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: opts.queue_depth.max(1),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker(shared, params, oracle))
            })
            .collect();
        Self { shared, workers: handles, params, oracle }
    }

    /// Enqueue one batch, blocking while the queue is at capacity.
    ///
    /// Empty batches are dropped without queueing. Fails only if a worker
    /// has panicked — the queue would never drain, so blocking further
    /// producers would deadlock them.
    pub fn submit(&self, batch: Vec<T>) -> Result<(), IngestError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut state = lock(&self.shared);
        while state.queue.len() >= self.shared.capacity && !state.failed {
            state = self.shared.not_full.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.failed {
            return Err(IngestError::WorkerPanicked);
        }
        state.queue.push_back(batch);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Close the queue, wait for the workers to drain it, and fold their
    /// shards with the lossless register-max merge.
    ///
    /// The result is bit-for-bit identical to inserting every submitted
    /// item into one sketch sequentially, in any order.
    pub fn finish(self) -> Result<HyperMinHash, IngestError> {
        {
            let mut state = lock(&self.shared);
            state.closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        let mut merged = HyperMinHash::with_oracle(self.params, self.oracle);
        let mut failed = false;
        for handle in self.workers {
            match handle.join() {
                Ok(shard) => merged
                    .merge(&shard)
                    .expect("invariant: every shard shares this engine's params and oracle"),
                Err(_) => failed = true,
            }
        }
        if failed {
            return Err(IngestError::WorkerPanicked);
        }
        Ok(merged)
    }
}

/// Worker loop: pop batches until the queue is closed *and* empty, feeding
/// a private shard through the batch fast path.
fn worker<T: HashableItem>(
    shared: Arc<Shared<T>>,
    params: HmhParams,
    oracle: RandomOracle,
) -> HyperMinHash {
    let mut guard = FailGuard { shared: Arc::clone(&shared), armed: true };
    let mut shard = HyperMinHash::with_oracle(params, oracle);
    loop {
        let batch = {
            let mut state = lock(&shared);
            loop {
                if let Some(batch) = state.queue.pop_front() {
                    break Some(batch);
                }
                if state.closed {
                    break None;
                }
                state = shared.not_empty.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        match batch {
            Some(batch) => {
                shared.not_full.notify_one();
                shard.insert_batch(&batch);
            }
            None => break,
        }
    }
    guard.armed = false;
    shard
}

/// Ingest an item stream with `opts.workers` threads and return the merged
/// sketch: chunks the stream into `opts.batch_size` batches, submits them
/// under backpressure, and drains.
pub fn ingest<T, I>(
    params: HmhParams,
    oracle: RandomOracle,
    items: I,
    opts: IngestOptions,
) -> Result<HyperMinHash, IngestError>
where
    T: HashableItem + Send + 'static,
    I: IntoIterator<Item = T>,
{
    let batch_size = opts.batch_size.max(1);
    let engine = IngestEngine::new(params, oracle, opts);
    let mut batch = Vec::with_capacity(batch_size);
    for item in items {
        batch.push(item);
        if batch.len() == batch_size {
            engine.submit(std::mem::replace(&mut batch, Vec::with_capacity(batch_size)))?;
        }
    }
    engine.submit(batch)?;
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> HmhParams {
        HmhParams::new(8, 6, 6).unwrap()
    }

    fn sequential(n: u64) -> HyperMinHash {
        let mut s = HyperMinHash::with_oracle(params(), RandomOracle::with_seed(1));
        for i in 0..n {
            s.insert(&i);
        }
        s
    }

    #[test]
    fn parallel_matches_sequential() {
        let got =
            ingest(params(), RandomOracle::with_seed(1), 0u64..20_000, IngestOptions::default())
                .unwrap();
        assert_eq!(got, sequential(20_000));
    }

    #[test]
    fn single_worker_and_tiny_queue_still_complete() {
        let opts = IngestOptions { workers: 1, queue_depth: 1, batch_size: 3 };
        let got = ingest(params(), RandomOracle::with_seed(1), 0u64..1_000, opts).unwrap();
        assert_eq!(got, sequential(1_000));
    }

    #[test]
    fn zero_worker_request_is_clamped_to_one() {
        let opts = IngestOptions { workers: 0, queue_depth: 0, batch_size: 0 };
        let got = ingest(params(), RandomOracle::with_seed(1), 0u64..100, opts).unwrap();
        assert_eq!(got, sequential(100));
    }

    #[test]
    fn empty_stream_yields_empty_sketch() {
        let got = ingest(
            params(),
            RandomOracle::with_seed(1),
            std::iter::empty::<u64>(),
            IngestOptions::default(),
        )
        .unwrap();
        assert_eq!(got, HyperMinHash::with_oracle(params(), RandomOracle::with_seed(1)));
    }

    #[test]
    fn manual_submit_of_uneven_batches_matches_sequential() {
        let engine = IngestEngine::new(
            params(),
            RandomOracle::with_seed(1),
            IngestOptions { workers: 3, queue_depth: 2, batch_size: 1 },
        );
        let mut next = 0u64;
        for size in [1u64, 999, 7, 0, 2_000, 13] {
            engine.submit((next..next + size).collect()).unwrap();
            next += size;
        }
        assert_eq!(engine.finish().unwrap(), sequential(next));
    }

    /// An item whose byte encoding panics, to drive the worker-failure
    /// path: producers must error out, not hang on a dead queue.
    struct Bomb;

    impl HashableItem for Bomb {
        fn write_bytes(&self, _out: &mut Vec<u8>) -> usize {
            panic!("bomb item");
        }
    }

    #[test]
    fn worker_panic_surfaces_as_error_not_hang() {
        let engine = IngestEngine::<Bomb>::new(
            params(),
            RandomOracle::with_seed(1),
            IngestOptions { workers: 2, queue_depth: 1, batch_size: 1 },
        );
        // Feed bombs until the failure propagates back to submit; the
        // queue bound guarantees this terminates (each worker dies on its
        // first batch, after which nothing drains the queue).
        let mut saw_error = false;
        for _ in 0..64 {
            if engine.submit(vec![Bomb]).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "submit must fail once the workers are dead");
        assert_eq!(engine.finish(), Err(IngestError::WorkerPanicked));
    }

    #[test]
    fn error_displays() {
        assert!(IngestError::WorkerPanicked.to_string().contains("panicked"));
    }
}
