//! Spans kept in memory, and the in-process replay of the daemon's work
//! for one request through the public functions it calls, in its order.
//!
//! A span has a name, a start, an end and a parent; all spans of one op
//! share its op id. The parent of an op is its client round trip (or,
//! for a sketch document, the document's processing). Replayed calls
//! become its children. Where a replayed call does work of another
//! layer inside it (`SketchStore::put` encodes, `insert_batch` hashes),
//! that inner work is replayed right after as a child of the call. A
//! span's self time is its duration minus its children's durations, so
//! the self times of an op's spans add up to its round trip.

use std::fs;
use std::hint::black_box;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use hmh_core::format;
use hmh_serve::proto::{decode_request_budget, encode_response};
use hmh_serve::{Request, Response};
use hmh_store::{Backend, FileBackend, SketchStore, StoreOptions};

use crate::plan::Kind;

pub struct Span {
    pub op: usize,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ns(&self) -> i64 {
        (self.end_ns - self.start_ns) as i64
    }
}

/// The layer a span name belongs to: the text before its first dot.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn record(
        &mut self,
        op: usize,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let at = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        let span = Span { op, name, start_ns: at(start), end_ns: at(end), parent };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        op: usize,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(op, name, start, Instant::now(), parent);
        (out, id)
    }

    /// Self time of every span, in ns. Replayed children lie outside
    /// their parent's interval, so a self time can come out negative
    /// when a replay ran slower than the call it stands for.
    pub fn self_ns(&self) -> Vec<i64> {
        let mut children = vec![0i64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p] += span.ns();
            }
        }
        self.spans.iter().zip(children).map(|(s, c)| s.ns() - c).collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\top\tname\tstart_ns\tend_ns\tparent")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(out, "{id}\t{}\t{}\t{}\t{}\t{parent}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Per-call counts and times of the storage primitives.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoCounts {
    pub appends: u64,
    pub append_bytes: u64,
    pub append_ns: u64,
    pub fsyncs: u64,
    pub fsync_ns: u64,
}

/// [`FileBackend`] with every append and fsync counted and timed.
#[derive(Default)]
pub struct CountingBackend {
    inner: FileBackend,
    pub counts: IoCounts,
}

impl IoCounts {
    pub fn since(self, earlier: IoCounts) -> IoCounts {
        IoCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            append_ns: self.append_ns - earlier.append_ns,
            fsyncs: self.fsyncs - earlier.fsyncs,
            fsync_ns: self.fsync_ns - earlier.fsync_ns,
        }
    }
}

impl Backend for CountingBackend {
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.append(path, data);
        self.counts.append_ns += start.elapsed().as_nanos() as u64;
        self.counts.appends += 1;
        self.counts.append_bytes += data.len() as u64;
        result
    }

    fn write_new(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.write_new(path, data)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        let start = Instant::now();
        let result = self.inner.fsync(path);
        self.counts.fsync_ns += start.elapsed().as_nanos() as u64;
        self.counts.fsyncs += 1;
        result
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn ensure_dir(&mut self, path: &Path) -> io::Result<()> {
        self.inner.ensure_dir(path)
    }
}

/// A scratch store holding the daemon's state, on which requests are
/// replayed the way the daemon executes them.
pub struct Replayer {
    store: SketchStore<CountingBackend>,
    /// Write ops replayed.
    pub writes: u64,
}

type ReplayResult<T> = Result<T, String>;

impl Replayer {
    /// Open a scratch store at `dir` with the daemon's default
    /// `StoreOptions` and fill it with `state`.
    pub fn open<'a>(
        dir: &Path,
        state: impl IntoIterator<Item = (&'a String, &'a Vec<u8>)>,
    ) -> ReplayResult<Self> {
        if dir.exists() {
            fs::remove_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let mut store =
            SketchStore::open_with(CountingBackend::default(), dir, StoreOptions::default())
                .map_err(|e| e.to_string())?;
        for (name, bytes) in state {
            store.put_encoded(name, bytes).map_err(|e| e.to_string())?;
        }
        Ok(Self { store, writes: 0 })
    }

    /// Storage calls since the store was opened.
    pub fn io(&self) -> IoCounts {
        self.store.backend().counts
    }

    /// Replay request frame `body` of op `op` under `root`, returning the
    /// reply frame body the daemon would send.
    pub fn replay(
        &mut self,
        tr: &mut Trace,
        op: usize,
        root: usize,
        body: &[u8],
    ) -> ReplayResult<Vec<u8>> {
        let parent = Some(root);
        let (decoded, _) = tr.time(op, "proto.decode_request", parent, || {
            decode_request_budget(body).map_err(|e| e.to_string())
        });
        let (request, _budget) = decoded?;
        let get = |tr: &mut Trace, store: &SketchStore<CountingBackend>, name: &str| {
            let start = Instant::now();
            let bytes = store.get_encoded(name);
            let mid = Instant::now();
            tr.record(op, "store.get", start, mid, parent);
            let bytes = bytes.ok_or_else(|| format!("replay: {name} is absent"))?;
            let (sketch, _) = tr.time(op, "core.decode", parent, || format::decode(bytes));
            sketch.map_err(|e| e.to_string())
        };
        if Kind::of(&request).is_write() {
            self.writes += 1;
        }
        let store = &mut self.store;
        let response = match request {
            Request::Card { name } => {
                let sketch = get(tr, store, &name)?;
                let (value, _) = tr.time(op, "core.cardinality", parent, || sketch.cardinality());
                Response::Value(value)
            }
            Request::Jaccard { a, b } => {
                let (sa, sb) = (get(tr, store, &a)?, get(tr, store, &b)?);
                let (j, _) = tr.time(op, "core.jaccard", parent, || sa.jaccard(&sb));
                Response::Value(j.map_err(|e| e.to_string())?.estimate)
            }
            Request::Merge { name, sketch } => {
                let (incoming, _) = tr.time(op, "core.decode", parent, || format::decode(&sketch));
                let incoming = incoming.map_err(|e| e.to_string())?;
                let mut existing = get(tr, store, &name)?;
                let (merged, _) = tr.time(op, "core.merge", parent, || existing.merge(&incoming));
                merged.map_err(|e| e.to_string())?;
                self.put(tr, op, root, &name, &existing)?;
                Response::Ok
            }
            other => return Err(format!("replay: the workloads send no {other:?}")),
        };
        let (reply, _) =
            tr.time(op, "proto.encode_response", parent, || encode_response(&response));
        Ok(reply)
    }

    /// `SketchStore::put`, which encodes then appends and fsyncs.
    fn put(
        &mut self,
        tr: &mut Trace,
        op: usize,
        root: usize,
        name: &str,
        sketch: &hmh_core::HyperMinHash,
    ) -> ReplayResult<()> {
        let (stored, put) = tr.time(op, "store.put", Some(root), || self.store.put(name, sketch));
        stored.map_err(|e| e.to_string())?;
        tr.time(op, "core.encode", Some(put), || black_box(format::encode(sketch)).len());
        Ok(())
    }
}
