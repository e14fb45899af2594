//! The crash-safe sketch store.
//!
//! On disk a store is a directory with three files:
//!
//! * `snapshot.hmr` — compacted state, replaced only by atomic
//!   write-temp + fsync + rename;
//! * `wal.hmr` — append-only log of puts/tombstones since the snapshot;
//! * `quarantine.bin` — bytes salvage could not parse, kept for forensics.
//!
//! Every open runs the salvage scan ([`crate::log::salvage_scan`]) over
//! snapshot then WAL, replays intact records last-wins, and reports what
//! it found. With [`StoreOptions::auto_heal`] (the default) a dirty open
//! immediately compacts, so corruption never survives a reopen.
//!
//! Durability discipline for `put`/`remove`: truncate the WAL back to
//! the last known-good length (cutting any torn bytes from a previously
//! failed append), append the record, fsync — all under bounded retry
//! for transient errors. A record is acknowledged only after its fsync
//! succeeds, so an acknowledged record survives any later crash.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use hmh_core::format::{self, FormatError};
use hmh_core::HyperMinHash;

use crate::backend::{atomic_write, Backend, FileBackend};
use crate::lock::{LockError, StoreLock};
use crate::log::{
    encode_record, salvage_scan, scan_step, CorruptSpan, Record, RecordKind, RecoveryReport,
    ScanStep, DIGEST_SEED, MAX_NAME_LEN,
};
use crate::retry::RetryPolicy;
use hmh_hash::xxhash::xxh64;

/// Snapshot file name inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.hmr";
/// Write-ahead log file name.
pub const WAL_FILE: &str = "wal.hmr";
/// Quarantine dump file name.
pub const QUARANTINE_FILE: &str = "quarantine.bin";
/// Quarantined-name fence file: the names whose records were found
/// corrupt with no surviving valid copy. Persisted so a crash between
/// detection and repair never turns the fence into silent loss of the
/// name — the next open re-fences anything still unrepaired.
pub const QUARANTINE_NAMES_FILE: &str = "quarantine.names";

/// Default scrub slice: how many committed bytes one paced scrub step
/// re-verifies before releasing the store lock.
pub const SCRUB_SLICE_BYTES: usize = 256 * 1024;

/// Store configuration.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Retry schedule for transient I/O errors.
    pub retry: RetryPolicy,
    /// Compact immediately when an open finds corruption (default true).
    pub auto_heal: bool,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { retry: RetryPolicy::default(), auto_heal: true }
    }
}

impl StoreOptions {
    /// Options suitable for tests: no retry sleeps.
    pub fn no_sleep() -> Self {
        Self { retry: RetryPolicy::no_sleep(), auto_heal: true }
    }
}

/// Store failures.
#[derive(Debug)]
pub enum StoreError {
    /// An I/O operation failed after exhausting retries.
    Io(io::Error),
    /// A payload was not a valid `HMH1` sketch.
    Format(FormatError),
    /// A sketch name was empty or too long.
    InvalidName(String),
    /// Another process holds the store's lock file.
    Locked(LockError),
    /// The name's on-disk record failed its checksum and no valid copy
    /// survives; reads are fenced until a validated write repairs it.
    CorruptQuarantined(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Format(e) => write!(f, "invalid sketch payload: {e}"),
            StoreError::InvalidName(name) => {
                write!(f, "invalid sketch name {name:?}: must be 1..={MAX_NAME_LEN} bytes")
            }
            StoreError::Locked(e) => write!(f, "{e}"),
            StoreError::CorruptQuarantined(name) => write!(
                f,
                "sketch {name:?} is quarantined: its record failed the checksum scrub and \
                 no valid copy survives; a validated write (repair) releases it"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Format(e) => Some(e),
            StoreError::InvalidName(_) => None,
            StoreError::Locked(e) => Some(e),
            StoreError::CorruptQuarantined(_) => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<FormatError> for StoreError {
    fn from(e: FormatError) -> Self {
        StoreError::Format(e)
    }
}

/// Cumulative scrub counters (process lifetime, not persisted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScrubStats {
    /// Completed full passes over snapshot + WAL.
    pub rounds: u64,
    /// Records whose checksums were re-verified (cumulative).
    pub records: u64,
    /// Corrupt spans found (at open or by scrub).
    pub corrupt_found: u64,
    /// Corrupt records repaired: rewritten from a surviving valid copy,
    /// or released from quarantine by a validated write.
    pub repaired: u64,
}

/// One corruption finding surfaced by a scrub step, tagged with the
/// file it was found in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFinding {
    /// `snapshot.hmr` or `wal.hmr`.
    pub file: &'static str,
    /// The corrupt record's location and checksum mismatch.
    pub span: CorruptSpan,
}

/// Result of one bounded scrub step.
#[derive(Debug, Clone, Default)]
pub struct ScrubSlice {
    /// Records verified by this step.
    pub records: u64,
    /// Corruption found by this step.
    pub findings: Vec<ScrubFinding>,
    /// True when this step finished a full pass (the cursor wrapped).
    pub completed_round: bool,
}

/// Current on-disk health with per-record corruption detail
/// ([`SketchStore::fsck_detail`]); read-only, like `fsck`.
#[derive(Debug, Clone, Default)]
pub struct FsckDetail {
    /// The summary `fsck` has always reported.
    pub report: RecoveryReport,
    /// Per-record corruption spans, tagged with their file.
    pub spans: Vec<ScrubFinding>,
}

/// Where the scrub cursor sits: which file, and the byte offset of the
/// next unverified record boundary.
#[derive(Debug, Clone, Copy)]
enum ScrubFile {
    Snapshot,
    Wal,
}

/// One stored sketch: its `HMH1` payload and, once a read has asked for
/// it, Algorithm 3's estimate of that payload. The estimate is a pure
/// function of the payload and lives in the same value, so replacing or
/// removing the entry drops it: it can never describe other bytes. It is
/// never persisted and never computed at open or on write.
#[derive(Debug)]
struct Entry {
    payload: Vec<u8>,
    estimate: Option<f64>,
}

impl Entry {
    fn new(payload: Vec<u8>) -> Self {
        Self { payload, estimate: None }
    }
}

/// A crash-safe, named collection of HyperMinHash sketches.
#[derive(Debug)]
pub struct SketchStore<B: Backend> {
    backend: B,
    dir: PathBuf,
    entries: BTreeMap<String, Entry>,
    /// Known-good WAL length: bytes up to and including the last record
    /// this process successfully fsynced (or salvaged at open).
    wal_len: u64,
    report: RecoveryReport,
    options: StoreOptions,
    /// Names fenced by quarantine: their on-disk record failed its
    /// checksum and no valid copy survives. Reads return
    /// [`StoreError::CorruptQuarantined`]; a validated write releases.
    quarantine: BTreeSet<String>,
    /// Incremental scrub position.
    scrub_file: ScrubFile,
    scrub_offset: usize,
    scrub_stats: ScrubStats,
    last_scrub_completed: Option<Instant>,
    /// Single-writer lock, held for real-filesystem stores ([`Self::open`]
    /// / [`Self::open_opts`]); released when the store drops. In-memory
    /// and fault-injected opens via [`Self::open_with`] skip it — they
    /// are same-process by construction.
    lock: Option<StoreLock>,
}

impl SketchStore<FileBackend> {
    /// Open (creating if absent) a store directory on the real
    /// filesystem with default options. Acquires the directory's
    /// single-writer lock; fails with [`StoreError::Locked`] while
    /// another live process holds it.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        Self::open_opts(dir, StoreOptions::default())
    }

    /// [`Self::open`] with explicit options.
    pub fn open_opts(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Self, StoreError> {
        let dir = dir.into();
        FileBackend.ensure_dir(&dir)?;
        let lock = StoreLock::acquire(&dir).map_err(StoreError::Locked)?;
        let mut store = Self::open_with(FileBackend, dir, options)?;
        store.lock = Some(lock);
        Ok(store)
    }
}

impl<B: Backend> SketchStore<B> {
    /// Open a store over an arbitrary backend.
    ///
    /// Never fails on *corrupt* data — salvage recovers what it can and
    /// the [`recovery_report`](Self::recovery_report) says what happened.
    /// Only real I/O failures (after retries) surface as errors.
    pub fn open_with(
        mut backend: B,
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<Self, StoreError> {
        let dir = dir.into();
        backend.ensure_dir(&dir)?;

        let mut entries = BTreeMap::new();
        let mut report = RecoveryReport::default();
        let mut quarantined_bytes: Vec<u8> = Vec::new();
        let mut corrupt_names: BTreeSet<String> = BTreeSet::new();
        let mut corrupt_found = 0u64;

        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let wal_path = dir.join(WAL_FILE);

        let mut wal_len = 0u64;
        for (path, is_wal) in [(&snapshot_path, false), (&wal_path, true)] {
            let bytes = backend.read(path)?.unwrap_or_default();
            let salvage = salvage_scan(&bytes);
            for record in salvage.records {
                apply(&mut entries, record);
            }
            for &(start, end) in &salvage.quarantined_ranges {
                quarantined_bytes.extend_from_slice(&bytes[start..end]);
            }
            corrupt_found += salvage.corrupt_spans.len() as u64;
            corrupt_names.extend(salvage.corrupt_spans.into_iter().filter_map(|s| s.name));
            report.absorb(&salvage.report);
            if is_wal {
                wal_len = bytes.len() as u64;
            }
        }

        // Fence every name whose record rotted with no surviving valid
        // copy — the salvage dropped its bytes, but the *name* must not
        // vanish silently: GET answers typed, and read-repair knows
        // what to fetch. A name with a surviving valid record (an older
        // snapshot version, say) is not fenced; anti-entropy catches it
        // up like any stale replica. Names fenced by a previous process
        // life stay fenced until a validated write repairs them.
        let mut quarantine: BTreeSet<String> =
            corrupt_names.into_iter().filter(|name| !entries.contains_key(name)).collect();
        let fence_file = backend.read(&dir.join(QUARANTINE_NAMES_FILE))?;
        let had_fence_file = fence_file.is_some();
        if let Some(bytes) = fence_file {
            // The fence file is itself salvage-scanned: a rotted fence
            // file degrades to fewer fences, never to a crash.
            quarantine.extend(
                salvage_scan(&bytes)
                    .records
                    .into_iter()
                    .filter(|r| !entries.contains_key(&r.name))
                    .map(|r| r.name),
            );
        }

        let mut store = Self {
            backend,
            dir,
            entries,
            wal_len,
            report: report.clone(),
            options,
            quarantine,
            scrub_file: ScrubFile::Snapshot,
            scrub_offset: 0,
            scrub_stats: ScrubStats { corrupt_found, ..ScrubStats::default() },
            last_scrub_completed: None,
            lock: None,
        };
        if !store.quarantine.is_empty() || had_fence_file {
            store.persist_quarantine();
        }

        if !report.is_clean() {
            // Keep the unparseable bytes for forensics (best effort —
            // the quarantine file is not load-bearing).
            if !quarantined_bytes.is_empty() {
                let qpath = store.dir.join(QUARANTINE_FILE);
                let _ = store.backend.append(&qpath, &quarantined_bytes);
            }
            if store.options.auto_heal {
                // Rewrite clean state now so the corruption cannot
                // resurface. Best effort: if the heal itself fails, the
                // in-memory state is still correct and a later compact
                // can finish the job.
                let _ = store.compact();
            }
        }
        Ok(store)
    }

    /// What the salvage scan found when this store was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.report
    }

    /// The storage backend (the fault harness reads its counters).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Store an encoded `HMH1` payload under `name`, durably.
    ///
    /// The payload is validated before anything touches disk, so the
    /// store never persists bytes it could not decode back.
    pub fn put_encoded(&mut self, name: &str, payload: &[u8]) -> Result<(), StoreError> {
        format::decode(payload)?;
        self.append_record(name, RecordKind::Put, payload)?;
        self.entries.insert(name.to_string(), Entry::new(payload.to_vec()));
        self.release_quarantine(name);
        Ok(())
    }

    /// Store a sketch under `name`, durably.
    pub fn put(&mut self, name: &str, sketch: &HyperMinHash) -> Result<(), StoreError> {
        let payload = format::encode(sketch);
        self.append_record(name, RecordKind::Put, &payload)?;
        self.entries.insert(name.to_string(), Entry::new(payload));
        self.release_quarantine(name);
        Ok(())
    }

    /// Encoded payload stored under `name`, if any. Quarantined names
    /// hold no payload; callers that must distinguish "absent" from
    /// "fenced" check [`Self::is_quarantined`].
    pub fn get_encoded(&self, name: &str) -> Option<&[u8]> {
        self.entries.get(name).map(|entry| entry.payload.as_slice())
    }

    /// Algorithm 3's cardinality estimate of the sketch stored under
    /// `name`, with the payload it was computed from. The first call
    /// after the entry was written decodes the payload and walks its
    /// registers; later calls return the cached value until a write or
    /// removal replaces the entry. `None` exactly when
    /// [`Self::get_encoded`] is `None`.
    pub fn get_estimated(&mut self, name: &str) -> Option<Result<(f64, &[u8]), FormatError>> {
        let entry = self.entries.get_mut(name)?;
        let estimate = match entry.estimate {
            Some(estimate) => {
                debug_assert_eq!(
                    format::decode(&entry.payload).map(|s| s.cardinality().to_bits()).ok(),
                    Some(estimate.to_bits()),
                    "cached estimate of {name:?} does not match its payload"
                );
                estimate
            }
            None => match format::decode(&entry.payload) {
                Ok(sketch) => *entry.estimate.insert(sketch.cardinality()),
                Err(e) => return Some(Err(e)),
            },
        };
        Some(Ok((estimate, &entry.payload)))
    }

    /// Decoded sketch stored under `name`, if any. A quarantined name is
    /// a typed error, never `None`: the name exists but its bytes are
    /// fenced until repaired.
    pub fn get(&self, name: &str) -> Result<Option<HyperMinHash>, StoreError> {
        match self.entries.get(name) {
            Some(entry) => Ok(Some(format::decode(&entry.payload)?)),
            None if self.quarantine.contains(name) => {
                Err(StoreError::CorruptQuarantined(name.to_string()))
            }
            None => Ok(None),
        }
    }

    /// Remove `name`, durably (a tombstone record). `Ok(false)` when the
    /// name was not present (no record written). Removing a quarantined
    /// name releases its fence — an explicit operator decision to give
    /// up on the data, counted as neither repair nor loss.
    pub fn remove(&mut self, name: &str) -> Result<bool, StoreError> {
        if self.quarantine.contains(name) {
            self.append_record(name, RecordKind::Tombstone, &[])?;
            self.quarantine.remove(name);
            self.persist_quarantine();
            return Ok(true);
        }
        if !self.entries.contains_key(name) {
            return Ok(false);
        }
        self.append_record(name, RecordKind::Tombstone, &[])?;
        self.entries.remove(name);
        Ok(true)
    }

    /// True when `name` is fenced by quarantine.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.quarantine.contains(name)
    }

    /// Number of quarantined names.
    pub fn quarantined_count(&self) -> usize {
        self.quarantine.len()
    }

    /// One page of quarantined names: up to `limit` names strictly after
    /// `after` in sorted order — the same cursor contract as
    /// [`Self::digest_page`], so paged retrieval over the wire
    /// terminates for the same reason.
    pub fn quarantined_page(&self, after: &str, limit: usize) -> Vec<String> {
        use std::ops::Bound;
        self.quarantine
            .range::<str, _>((Bound::Excluded(after), Bound::Unbounded))
            .take(limit)
            .cloned()
            .collect()
    }

    /// Release `name` from quarantine after a validated write landed
    /// (the only exit besides an explicit [`Self::remove`]).
    fn release_quarantine(&mut self, name: &str) {
        if self.quarantine.remove(name) {
            self.scrub_stats.repaired += 1;
            // Best effort: if the fence-file rewrite fails the name is
            // merely re-fenced at the next open until a write repairs
            // it again — safe in the useless direction, never unsafe.
            self.persist_quarantine();
        }
    }

    /// Rewrite the fence file from the current quarantine set (atomic
    /// replace; best effort — see callers for why that is safe).
    fn persist_quarantine(&mut self) {
        let mut buf = Vec::new();
        for name in &self.quarantine {
            buf.extend(encode_record(name, RecordKind::Put, &[]));
        }
        let path = self.dir.join(QUARANTINE_NAMES_FILE);
        let mut retry = self.options.retry.clone();
        let backend = &mut self.backend;
        let _ = retry.run(|| atomic_write(backend, &path, &buf));
    }

    /// All stored names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// One page of stored names: up to `limit` names strictly after
    /// `after` in sorted order (empty `after` starts from the
    /// beginning). The listing analogue of [`Self::digest_page`] — the
    /// cursor contract is identical, so paginated LIST over the wire
    /// inherits the same termination proof (each page advances the
    /// cursor strictly, names are finite).
    pub fn names_page(&self, after: &str, limit: usize) -> Vec<String> {
        use std::ops::Bound;
        self.entries
            .range::<str, _>((Bound::Excluded(after), Bound::Unbounded))
            .take(limit)
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// One page of replication digests: up to `limit` `(name, checksum)`
    /// pairs for names strictly after `after` in sorted order (empty
    /// `after` starts from the beginning). The checksum is xxHash64 of
    /// the stored payload under [`crate::log::DIGEST_SEED`], so two
    /// replicas agree on a name exactly when they hold byte-identical
    /// sketches — the property anti-entropy needs, since `format::encode`
    /// is canonical.
    pub fn digest_page(&self, after: &str, limit: usize) -> Vec<(String, u64)> {
        use std::ops::Bound;
        self.entries
            .range::<str, _>((Bound::Excluded(after), Bound::Unbounded))
            .take(limit)
            .map(|(name, entry)| (name.clone(), xxh64(&entry.payload, DIGEST_SEED)))
            .collect()
    }

    /// Number of stored sketches.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no sketches are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rewrite the snapshot from current state (atomic replace), then
    /// reset the WAL. Shrinks the store to one record per live name and
    /// drops any corrupt bytes still sitting in the old files.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let mut snapshot = Vec::new();
        for (name, entry) in &self.entries {
            snapshot.extend(encode_record(name, RecordKind::Put, &entry.payload));
        }
        let snapshot_path = self.dir.join(SNAPSHOT_FILE);
        let wal_path = self.dir.join(WAL_FILE);

        let mut retry = self.options.retry.clone();
        let backend = &mut self.backend;
        retry.run(|| atomic_write(backend, &snapshot_path, &snapshot))?;

        // The snapshot now holds everything; the WAL can go. A crash
        // between rename and truncate only leaves duplicate records,
        // which last-wins replay makes harmless.
        let mut retry = self.options.retry.clone();
        let backend = &mut self.backend;
        retry.run(|| {
            backend.truncate(&wal_path, 0)?;
            backend.fsync(&wal_path)
        })?;
        // Note: `self.report` deliberately keeps what the *open* found —
        // healing the files does not rewrite history; `fsck` reports
        // current on-disk health.
        self.wal_len = 0;
        // Both files were just rewritten; the scrub cursor's offsets no
        // longer name record boundaries. Restart the pass.
        self.scrub_file = ScrubFile::Snapshot;
        self.scrub_offset = 0;
        Ok(())
    }

    /// Re-scan both files from disk and report their current health
    /// without modifying anything.
    pub fn fsck(&mut self) -> Result<RecoveryReport, StoreError> {
        Ok(self.fsck_detail()?.report)
    }

    /// [`Self::fsck`] with per-record corruption spans (offset, length,
    /// checksum expected/actual, best-effort name), tagged by file.
    /// Read-only, like `fsck`.
    pub fn fsck_detail(&mut self) -> Result<FsckDetail, StoreError> {
        let mut detail = FsckDetail::default();
        for file in [SNAPSHOT_FILE, WAL_FILE] {
            let bytes = self.backend.read(&self.dir.join(file))?.unwrap_or_default();
            let salvage = salvage_scan(&bytes);
            detail.report.absorb(&salvage.report);
            detail
                .spans
                .extend(salvage.corrupt_spans.into_iter().map(|span| ScrubFinding { file, span }));
        }
        Ok(detail)
    }

    /// Cumulative scrub counters.
    pub fn scrub_stats(&self) -> ScrubStats {
        self.scrub_stats
    }

    /// Milliseconds since the last completed scrub pass (`None` until a
    /// first pass completes).
    pub fn last_scrub_age_ms(&self) -> Option<u64> {
        self.last_scrub_completed
            .map(|at| u64::try_from(at.elapsed().as_millis()).unwrap_or(u64::MAX))
    }

    /// Re-verify one bounded slice of committed on-disk records — the
    /// online scrub's unit of work, sized so callers can hold the store
    /// lock across a step without stalling traffic, and pace steps with
    /// the same backoff machinery as anti-entropy.
    ///
    /// Every corrupt span found is handled before the step returns:
    ///
    /// * a record shadowed by a valid in-memory copy (the common live
    ///   bit-rot case — memory was validated at load/put) is repaired by
    ///   compacting, which rewrites both files from memory;
    /// * a record with no surviving copy has its name quarantined
    ///   (fenced reads, persisted, released only by a validated write)
    ///   and its bytes dropped at the same compact — so a later pass
    ///   finds a clean disk plus an honest fence, never the same rot
    ///   twice;
    /// * an unattributable span (header too damaged to name) is covered
    ///   by the compact alone: memory holds every live name's bytes.
    pub fn scrub_slice(&mut self, max_bytes: usize) -> Result<ScrubSlice, StoreError> {
        let mut out = ScrubSlice::default();
        let (file, path) = match self.scrub_file {
            ScrubFile::Snapshot => (SNAPSHOT_FILE, self.dir.join(SNAPSHOT_FILE)),
            ScrubFile::Wal => (WAL_FILE, self.dir.join(WAL_FILE)),
        };
        let bytes = self.backend.read(&path)?.unwrap_or_default();
        // Only bytes we ever acknowledged are scrubbed: the WAL past
        // `wal_len` may legitimately hold a torn append that salvage
        // (not scrub) owns.
        let limit = match self.scrub_file {
            ScrubFile::Snapshot => bytes.len(),
            ScrubFile::Wal => (self.wal_len as usize).min(bytes.len()),
        };
        let mut pos = self.scrub_offset.min(limit);
        let slice_end = pos.saturating_add(max_bytes.max(1)).min(limit);
        while pos < slice_end {
            match scan_step(&bytes, pos, limit) {
                ScanStep::Record { next, .. } => {
                    out.records += 1;
                    pos = next;
                }
                ScanStep::Corrupt { spans, next } => {
                    out.findings.extend(spans.into_iter().map(|span| ScrubFinding { file, span }));
                    pos = next;
                }
                ScanStep::End => break,
            }
        }
        self.scrub_offset = pos;
        self.scrub_stats.records += out.records;

        if pos >= limit {
            match self.scrub_file {
                ScrubFile::Snapshot => {
                    self.scrub_file = ScrubFile::Wal;
                    self.scrub_offset = 0;
                }
                ScrubFile::Wal => {
                    self.scrub_file = ScrubFile::Snapshot;
                    self.scrub_offset = 0;
                    self.scrub_stats.rounds += 1;
                    self.last_scrub_completed = Some(Instant::now());
                    out.completed_round = true;
                }
            }
        }

        if !out.findings.is_empty() {
            self.scrub_stats.corrupt_found += out.findings.len() as u64;
            let mut newly_fenced = 0u64;
            for finding in &out.findings {
                if let Some(name) = &finding.span.name {
                    if !self.entries.contains_key(name) && self.quarantine.insert(name.clone()) {
                        newly_fenced += 1;
                    }
                }
            }
            if newly_fenced > 0 {
                self.persist_quarantine();
            }
            // One compact handles every case: records with surviving
            // memory copies are rewritten (repaired), and the corrupt
            // bytes — quarantined or not — leave the disk, so the next
            // pass starts clean. Fenced names are *not* repaired by
            // this (they have no bytes to rewrite); they stay fenced.
            self.compact()?;
            self.scrub_stats.repaired += (out.findings.len() as u64).saturating_sub(newly_fenced);
        }
        Ok(out)
    }

    /// Run scrub steps until a full pass completes, accumulating what
    /// they found — the offline `hmh store scrub` entry point.
    ///
    /// The loop is bounded: each step either advances the cursor by at
    /// least one byte or completes the pass, and a step that finds
    /// corruption compacts (shrinking the files), so the iteration
    /// count is capped by the file sizes; the explicit ceiling below is
    /// a belt-and-braces guard against a backend that mutates under us.
    pub fn scrub_full(&mut self, slice_bytes: usize) -> Result<ScrubSlice, StoreError> {
        let mut total = ScrubSlice::default();
        let span_bytes: usize = self
            .backend
            .read(&self.dir.join(SNAPSHOT_FILE))?
            .map(|b| b.len())
            .unwrap_or(0)
            .saturating_add(self.wal_len as usize);
        let bound = span_bytes / slice_bytes.max(1) + 8;
        for _ in 0..bound {
            let slice = self.scrub_slice(slice_bytes)?;
            total.records += slice.records;
            total.findings.extend(slice.findings);
            if slice.completed_round {
                total.completed_round = true;
                break;
            }
        }
        Ok(total)
    }

    /// Append one record to the WAL with full durability discipline.
    fn append_record(
        &mut self,
        name: &str,
        kind: RecordKind,
        payload: &[u8],
    ) -> Result<(), StoreError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN {
            return Err(StoreError::InvalidName(name.to_string()));
        }
        let record = encode_record(name, kind, payload);
        let wal_path = self.dir.join(WAL_FILE);
        let wal_len = self.wal_len;
        let mut retry = self.options.retry.clone();
        let backend = &mut self.backend;
        retry.run(|| {
            // Cut torn bytes a previously failed append may have left,
            // so the new record lands at a known-good offset.
            backend.truncate(&wal_path, wal_len)?;
            backend.append(&wal_path, &record)?;
            backend.fsync(&wal_path)
        })?;
        self.wal_len += record.len() as u64;
        Ok(())
    }
}

fn apply(entries: &mut BTreeMap<String, Entry>, record: Record) {
    match record.kind {
        RecordKind::Put => {
            entries.insert(record.name, Entry::new(record.payload));
        }
        RecordKind::Tombstone => {
            entries.remove(&record.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::MemBackend;
    use hmh_core::{HmhParams, HyperMinHash};
    use std::path::Path;

    fn sketch(items: std::ops::Range<u64>) -> HyperMinHash {
        let params = HmhParams::new(4, 6, 4).unwrap();
        HyperMinHash::from_items(params, items)
    }

    fn mem_store(mem: &MemBackend) -> SketchStore<MemBackend> {
        SketchStore::open_with(mem.clone(), "/store", StoreOptions::no_sleep()).unwrap()
    }

    #[test]
    fn put_get_remove_round_trip() {
        let mem = MemBackend::new();
        let mut s = mem_store(&mem);
        let a = sketch(0..100);
        s.put("a", &a).unwrap();
        assert_eq!(s.get("a").unwrap().unwrap(), a);
        assert_eq!(s.len(), 1);
        assert!(s.remove("a").unwrap());
        assert!(!s.remove("a").unwrap());
        assert!(s.get("a").unwrap().is_none());
    }

    #[test]
    fn state_survives_reopen() {
        let mem = MemBackend::new();
        let (a, b) = (sketch(0..50), sketch(25..75));
        {
            let mut s = mem_store(&mem);
            s.put("a", &a).unwrap();
            s.put("b", &b).unwrap();
            s.put("a", &b).unwrap(); // overwrite: last wins
            s.remove("b").unwrap();
        }
        let s = mem_store(&mem);
        assert!(s.recovery_report().is_clean());
        assert_eq!(s.get("a").unwrap().unwrap(), b);
        assert!(s.get("b").unwrap().is_none());
        assert_eq!(s.names().collect::<Vec<_>>(), ["a"]);
    }

    #[test]
    fn writes_and_reopen_drop_the_cached_estimate() {
        let mem = MemBackend::new();
        let mut s = mem_store(&mem);
        let cached = |s: &SketchStore<MemBackend>, name: &str| s.entries[name].estimate;
        let estimate = |s: &mut SketchStore<MemBackend>, name: &str| {
            let (estimate, _) = s.get_estimated(name).unwrap().unwrap();
            estimate
        };
        let (a, b) = (sketch(0..100), sketch(0..300));

        s.put("a", &a).unwrap();
        assert_eq!(cached(&s, "a"), None, "writes never compute the estimate");
        assert_eq!(estimate(&mut s, "a").to_bits(), a.cardinality().to_bits());
        assert_eq!(cached(&s, "a").map(f64::to_bits), Some(a.cardinality().to_bits()));

        s.put("a", &b).unwrap();
        assert_eq!(cached(&s, "a"), None, "put drops the estimate");
        assert_eq!(estimate(&mut s, "a").to_bits(), b.cardinality().to_bits());

        s.put_encoded("a", &format::encode(&a)).unwrap();
        assert_eq!(cached(&s, "a"), None, "put_encoded drops the estimate");
        assert_eq!(estimate(&mut s, "a").to_bits(), a.cardinality().to_bits());

        assert!(s.remove("a").unwrap());
        assert!(s.get_estimated("a").is_none(), "remove drops the entry and its estimate");
        s.put("a", &b).unwrap();
        assert_eq!(cached(&s, "a"), None);

        estimate(&mut s, "a");
        drop(s);
        let reopened = mem_store(&mem);
        assert_eq!(cached(&reopened, "a"), None, "a reopened store caches nothing");
    }

    #[test]
    fn compact_shrinks_and_preserves() {
        let mem = MemBackend::new();
        let mut s = mem_store(&mem);
        for i in 0..10u64 {
            s.put("hot", &sketch(0..10 * (i + 1))).unwrap();
        }
        let wal = Path::new("/store").join(WAL_FILE);
        let before = mem.len(&wal).unwrap();
        s.compact().unwrap();
        assert_eq!(mem.len(&wal), Some(0));
        assert!(mem.len(&Path::new("/store").join(SNAPSHOT_FILE)).unwrap() < before);
        let expect = sketch(0..100);
        assert_eq!(s.get("hot").unwrap().unwrap(), expect);
        let reopened = mem_store(&mem);
        assert_eq!(reopened.get("hot").unwrap().unwrap(), expect);
    }

    #[test]
    fn torn_wal_tail_loses_only_the_torn_record() {
        let mem = MemBackend::new();
        let mut s = mem_store(&mem);
        s.put("keep", &sketch(0..30)).unwrap();
        s.put("casualty", &sketch(0..40)).unwrap();
        // Crash mid-append of the second record: cut 3 bytes.
        let wal = Path::new("/store").join(WAL_FILE);
        let len = mem.len(&wal).unwrap();
        assert!(mem.truncate_at(&wal, len - 3));
        let s2 = mem_store(&mem);
        assert!(s2.recovery_report().truncated_tail);
        assert_eq!(s2.get("keep").unwrap().unwrap(), sketch(0..30));
        assert!(s2.get("casualty").unwrap().is_none());
        // Auto-heal compacted: a further reopen is clean.
        let s3 = mem_store(&mem);
        assert!(s3.recovery_report().is_clean());
    }

    #[test]
    fn bit_flip_is_quarantined_and_healed() {
        let mem = MemBackend::new();
        let mut s = mem_store(&mem);
        s.put("a", &sketch(0..30)).unwrap();
        s.put("b", &sketch(0..40)).unwrap();
        s.put("c", &sketch(0..50)).unwrap();
        s.compact().unwrap();
        let snap = Path::new("/store").join(SNAPSHOT_FILE);
        // Corrupt the middle record's payload area.
        let len = mem.len(&snap).unwrap();
        assert!(mem.flip_bit(&snap, len / 2, 3));
        let s2 = mem_store(&mem);
        assert_eq!(s2.recovery_report().quarantined, 1);
        assert!(s2.len() < 3, "the hit record is gone, not silently wrong");
        // Quarantined bytes were kept for forensics.
        assert!(mem.len(&Path::new("/store").join(QUARANTINE_FILE)).unwrap_or(0) > 0);
        // And the store healed itself.
        let s3 = mem_store(&mem);
        assert!(s3.recovery_report().is_clean());
        assert_eq!(s3.len(), s2.len());
    }

    #[test]
    fn invalid_names_and_payloads_rejected_before_disk() {
        let mem = MemBackend::new();
        let mut s = mem_store(&mem);
        assert!(matches!(s.put("", &sketch(0..5)), Err(StoreError::InvalidName(_))));
        assert!(matches!(s.put_encoded("x", b"not a sketch"), Err(StoreError::Format(_))));
        assert_eq!(mem.len(&Path::new("/store").join(WAL_FILE)), None, "nothing written");
    }

    #[test]
    fn file_store_is_single_writer_both_orders() {
        let dir = std::env::temp_dir().join(format!("hmh-store-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Order 1: first opener holds, second fails fast with Locked.
        let first = SketchStore::open(&dir).unwrap();
        let err = SketchStore::open(&dir).unwrap_err();
        assert!(matches!(err, StoreError::Locked(_)), "{err:?}");
        assert!(err.to_string().contains("locked"), "{err}");
        drop(first);

        // Order 2: the released lock admits the other side; the original
        // opener now fails in turn.
        let second = SketchStore::open(&dir).unwrap();
        assert!(matches!(SketchStore::open(&dir), Err(StoreError::Locked(_))));
        drop(second);

        // Mem-backed opens never lock: two live handles are fine.
        let mem = MemBackend::new();
        let a = mem_store(&mem);
        let b = mem_store(&mem);
        drop((a, b));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e = StoreError::Io(io::Error::other("disk on fire"));
        assert!(e.source().is_some());
        let e = StoreError::InvalidName(String::new());
        assert!(e.source().is_none());
    }

    #[test]
    fn fsck_reports_without_modifying() {
        let mem = MemBackend::new();
        let mut s = mem_store(&mem);
        s.put("a", &sketch(0..30)).unwrap();
        assert!(s.fsck().unwrap().is_clean());
        let wal = Path::new("/store").join(WAL_FILE);
        let len = mem.len(&wal).unwrap();
        let before = mem.raw(&wal).unwrap();
        assert!(mem.truncate_at(&wal, len - 1));
        let report = s.fsck().unwrap();
        assert!(report.truncated_tail);
        assert_eq!(mem.raw(&wal).unwrap(), before[..len - 1], "fsck is read-only");
    }
}
