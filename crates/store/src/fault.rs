//! Deterministic fault injection for crash-safety testing.
//!
//! [`MemBackend`] is an in-memory filesystem; [`FaultyIo`] wraps any
//! [`Backend`] and injects faults from a [`FaultPlan`] — a deterministic
//! schedule derived from a single `SplitMix64` seed. Replaying the same
//! seed replays exactly the same faults, so every failing fuzz case is a
//! reproducible unit test.
//!
//! Injected fault classes (all seed-scheduled):
//!
//! * **short writes** — an `append`/`write_new` persists only a prefix of
//!   the data, then fails (a torn write / crash mid-write);
//! * **transient errors** — `io::ErrorKind::Interrupted` failures that a
//!   retry should absorb;
//! * **permanent errors** — `io::ErrorKind::Other` failures the store
//!   must surface;
//! * **bit flips at chosen offsets** and **truncate-at-offset** — at-rest
//!   corruption applied to the stored image between store sessions
//!   (exposed as [`MemBackend::flip_bit`] / [`MemBackend::truncate_at`],
//!   driven by the same seed in the harness).

use std::cell::RefCell;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use hmh_hash::splitmix::SplitMix64;

use crate::backend::Backend;

/// In-memory filesystem with shared interior state.
///
/// Clones share the same files, so a test can hold one handle for
/// at-rest corruption while the store owns another (possibly wrapped in
/// [`FaultyIo`]).
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    files: Rc<RefCell<HashMap<PathBuf, Vec<u8>>>>,
}

impl MemBackend {
    /// Fresh empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current length of a file, if it exists.
    pub fn len(&self, path: &Path) -> Option<usize> {
        self.files.borrow().get(path).map(Vec::len)
    }

    /// True when no files exist.
    pub fn is_empty(&self) -> bool {
        self.files.borrow().is_empty()
    }

    /// Raw bytes of a file, if it exists.
    pub fn raw(&self, path: &Path) -> Option<Vec<u8>> {
        self.files.borrow().get(path).cloned()
    }

    /// Flip one bit of the stored image (at-rest corruption). Returns
    /// false if the file is missing or the offset is out of range.
    pub fn flip_bit(&self, path: &Path, byte: usize, bit: u32) -> bool {
        let mut files = self.files.borrow_mut();
        match files.get_mut(path) {
            Some(data) if byte < data.len() => {
                data[byte] ^= 1 << (bit % 8);
                true
            }
            _ => false,
        }
    }

    /// Cut a file at `len` bytes (a crash-truncated tail). Returns false
    /// if the file is missing or already shorter.
    pub fn truncate_at(&self, path: &Path, len: usize) -> bool {
        let mut files = self.files.borrow_mut();
        match files.get_mut(path) {
            Some(data) if data.len() > len => {
                data.truncate(len);
                true
            }
            _ => false,
        }
    }

    /// Paths of all existing files (sorted, for deterministic iteration).
    pub fn paths(&self) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = self.files.borrow().keys().cloned().collect();
        v.sort();
        v
    }
}

impl Backend for MemBackend {
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        Ok(self.files.borrow().get(path).cloned())
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files.borrow_mut().entry(path.to_path_buf()).or_default().extend_from_slice(data);
        Ok(())
    }

    fn write_new(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.files.borrow_mut().insert(path.to_path_buf(), data.to_vec());
        Ok(())
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        if let Some(data) = self.files.borrow_mut().get_mut(path) {
            if data.len() as u64 > len {
                data.truncate(len as usize);
            }
        }
        Ok(())
    }

    fn fsync(&mut self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let mut files = self.files.borrow_mut();
        match files.remove(from) {
            Some(data) => {
                files.insert(to.to_path_buf(), data);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "rename: no such file")),
        }
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.files.borrow_mut().remove(path);
        Ok(())
    }

    fn ensure_dir(&mut self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Let the operation through untouched.
    None,
    /// Persist only `kept` bytes of the data, then fail with
    /// `ErrorKind::WriteZero` (the canonical torn write).
    ShortWrite {
        /// Fraction numerator out of 256 of the data to keep.
        kept_num: u8,
    },
    /// Fail with a transient `ErrorKind::Interrupted` without touching
    /// storage; retries should absorb these.
    Transient,
    /// Fail with a permanent `ErrorKind::Other` without touching storage.
    Permanent,
}

/// Deterministic schedule of faults, one draw per mutating operation.
///
/// Built from a single seed; the `fault_rate` is the probability (out of
/// 256) that any given mutating operation faults at all, and faulting
/// operations pick among short write / transient / permanent.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    rng: SplitMix64,
    /// Chance out of 256 that a mutating op faults.
    pub fault_rate: u8,
}

impl FaultPlan {
    /// Schedule with roughly `fault_rate`/256 of mutating ops faulting.
    pub fn new(seed: u64, fault_rate: u8) -> Self {
        Self { rng: SplitMix64::new(seed), fault_rate }
    }

    /// Draw the fault (or `Fault::None`) for the next mutating op.
    pub fn next_fault(&mut self) -> Fault {
        let roll = self.rng.next_u64();
        if (roll & 0xff) as u8 >= self.fault_rate {
            return Fault::None;
        }
        match (roll >> 8) % 4 {
            // Short writes get double weight: torn tails are the
            // interesting crash shape for an append-only log.
            0 | 1 => Fault::ShortWrite { kept_num: (roll >> 16) as u8 },
            2 => Fault::Transient,
            _ => Fault::Permanent,
        }
    }

    /// Draw a uniform value below `bound` (for harness-side choices such
    /// as corruption offsets), consuming from the same stream.
    pub fn pick(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.rng.next_u64() % bound
        }
    }
}

/// Seeded schedule for **bit rot at rest**: between backend operations,
/// flip `flips` bits somewhere in the already-committed `.hmr` log bytes
/// with probability `rot_rate`/256 per operation. Unlike [`FaultPlan`]
/// (which fails the *operation*), rot silently mutates bytes that were
/// successfully fsynced long ago — the corruption class the online
/// scrub exists to catch. SplitMix64-scheduled: the same seed replays
/// the same flips at the same points in the operation stream.
#[derive(Debug, Clone)]
pub struct BitRotPlan {
    rng: SplitMix64,
    /// Chance out of 256 that any given backend op is preceded by rot.
    pub rot_rate: u8,
    /// Bits flipped per rot event.
    pub flips: u32,
}

impl BitRotPlan {
    /// Schedule with roughly `rot_rate`/256 of ops preceded by `flips`
    /// bit flips.
    pub fn new(seed: u64, rot_rate: u8, flips: u32) -> Self {
        Self { rng: SplitMix64::new(seed), rot_rate, flips }
    }
}

/// A [`Backend`] wrapper that injects faults from a [`FaultPlan`] into
/// every mutating operation. Reads are never faulted: the harness models
/// write-path crashes and at-rest corruption, not read errors (the
/// salvage scan handles whatever bytes reads return).
///
/// With [`Self::with_bit_rot`], the wrapper additionally rots committed
/// bytes between operations (reads included — rot does not wait for a
/// write to land), through a shared [`MemBackend`] handle so the flips
/// hit the at-rest image directly.
#[derive(Debug)]
pub struct FaultyIo<B: Backend> {
    inner: B,
    plan: FaultPlan,
    rot: Option<(BitRotPlan, MemBackend)>,
    /// Count of faults actually injected (for harness assertions).
    pub injected: usize,
    /// Count of at-rest bits actually flipped by the bit-rot schedule.
    pub rotted_bits: usize,
}

impl<B: Backend> FaultyIo<B> {
    /// Wrap `inner`, drawing faults from `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        Self { inner, plan, rot: None, injected: 0, rotted_bits: 0 }
    }

    /// Enable at-rest bit rot, flipping bits of `disk`'s committed
    /// `.hmr` files on `plan`'s schedule. `disk` should be a clone of
    /// the backend under `inner` so the flips land on the same image
    /// the store reads back.
    pub fn with_bit_rot(mut self, plan: BitRotPlan, disk: MemBackend) -> Self {
        self.rot = Some((plan, disk));
        self
    }

    /// Apply scheduled rot before an operation touches the backend.
    fn maybe_rot(&mut self) {
        let Some((plan, disk)) = &mut self.rot else { return };
        let roll = plan.rng.next_u64();
        if (roll & 0xff) as u8 >= plan.rot_rate {
            return;
        }
        for _ in 0..plan.flips {
            // Target only the record logs: rot is about committed
            // sketch state, not lock files or temp staging.
            let targets: Vec<PathBuf> = disk
                .paths()
                .into_iter()
                .filter(|p| p.extension().is_some_and(|e| e == "hmr"))
                .filter(|p| disk.len(p).unwrap_or(0) > 0)
                .collect();
            if targets.is_empty() {
                return;
            }
            let path = &targets[(plan.rng.next_u64() % targets.len() as u64) as usize];
            let len = disk.len(path).unwrap_or(0);
            let byte = (plan.rng.next_u64() % len as u64) as usize;
            let bit = (plan.rng.next_u64() % 8) as u32;
            if disk.flip_bit(path, byte, bit) {
                self.rotted_bits += 1;
            }
        }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    fn faulted_write(
        &mut self,
        path: &Path,
        data: &[u8],
        write: impl FnOnce(&mut B, &Path, &[u8]) -> io::Result<()>,
    ) -> io::Result<()> {
        match self.plan.next_fault() {
            Fault::None => write(&mut self.inner, path, data),
            Fault::ShortWrite { kept_num } => {
                self.injected += 1;
                let kept = data.len() * usize::from(kept_num) / 256;
                write(&mut self.inner, path, &data[..kept])?;
                Err(io::Error::new(io::ErrorKind::WriteZero, "injected short write"))
            }
            Fault::Transient => {
                self.injected += 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient fault"))
            }
            Fault::Permanent => {
                self.injected += 1;
                Err(io::Error::other("injected permanent fault"))
            }
        }
    }

    fn faulted_op(&mut self, op: impl FnOnce(&mut B) -> io::Result<()>) -> io::Result<()> {
        match self.plan.next_fault() {
            Fault::None | Fault::ShortWrite { .. } => op(&mut self.inner),
            Fault::Transient => {
                self.injected += 1;
                Err(io::Error::new(io::ErrorKind::Interrupted, "injected transient fault"))
            }
            Fault::Permanent => {
                self.injected += 1;
                Err(io::Error::other("injected permanent fault"))
            }
        }
    }
}

impl<B: Backend> Backend for FaultyIo<B> {
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        self.maybe_rot();
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.maybe_rot();
        self.faulted_write(path, data, B::append)
    }

    fn write_new(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.maybe_rot();
        self.faulted_write(path, data, B::write_new)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.maybe_rot();
        self.faulted_op(|b| b.truncate(path, len))
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        self.maybe_rot();
        self.faulted_op(|b| b.fsync(path))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        // Rename stays atomic: it either happens or errors cleanly.
        // hmh-lint: allow(durability) — fault-injection wrapper forwarding to the inner backend, whose rename carries the fsync contract
        self.faulted_op(|b| b.rename(from, to))
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.faulted_op(|b| b.remove(path))
    }

    fn ensure_dir(&mut self, path: &Path) -> io::Result<()> {
        self.inner.ensure_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_behaves_like_a_filesystem() {
        let mut b = MemBackend::new();
        let p = Path::new("/x/f");
        assert_eq!(b.read(p).unwrap(), None);
        b.append(p, b"ab").unwrap();
        b.append(p, b"cd").unwrap();
        assert_eq!(b.read(p).unwrap().unwrap(), b"abcd");
        b.truncate(p, 3).unwrap();
        assert_eq!(b.read(p).unwrap().unwrap(), b"abc");
        b.write_new(p, b"zz").unwrap();
        assert_eq!(b.read(p).unwrap().unwrap(), b"zz");
        b.rename(p, Path::new("/x/g")).unwrap();
        assert_eq!(b.read(p).unwrap(), None);
        assert_eq!(b.read(Path::new("/x/g")).unwrap().unwrap(), b"zz");
        b.remove(Path::new("/x/g")).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let a = MemBackend::new();
        let mut b = a.clone();
        b.append(Path::new("/f"), b"shared").unwrap();
        assert_eq!(a.len(Path::new("/f")), Some(6));
        assert!(a.flip_bit(Path::new("/f"), 0, 0));
        assert_eq!(b.read(Path::new("/f")).unwrap().unwrap()[0], b's' ^ 1);
        assert!(a.truncate_at(Path::new("/f"), 2));
        assert_eq!(a.len(Path::new("/f")), Some(2));
        assert!(!a.truncate_at(Path::new("/f"), 2), "not shorter: refused");
    }

    #[test]
    fn plan_is_deterministic() {
        let mut a = FaultPlan::new(42, 64);
        let mut b = FaultPlan::new(42, 64);
        for _ in 0..1000 {
            assert_eq!(a.next_fault(), b.next_fault());
        }
        let mut c = FaultPlan::new(43, 64);
        let differs = (0..1000).any(|_| a.next_fault() != c.next_fault());
        assert!(differs, "different seeds give different schedules");
    }

    #[test]
    fn short_write_keeps_a_strict_prefix() {
        // fault_rate 255 ⇒ every op faults; find a short write and check
        // the persisted bytes are a prefix.
        for seed in 0..64 {
            let mem = MemBackend::new();
            let mut io = FaultyIo::new(mem.clone(), FaultPlan::new(seed, 255));
            let p = Path::new("/f");
            let data = b"0123456789abcdef";
            if io.write_new(p, data).is_err() {
                if let Some(stored) = mem.raw(p) {
                    assert!(stored.len() <= data.len());
                    assert_eq!(&data[..stored.len()], &stored[..]);
                }
            }
        }
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mem = MemBackend::new();
        let mut io = FaultyIo::new(mem, FaultPlan::new(7, 0));
        let p = Path::new("/f");
        for _ in 0..100 {
            io.append(p, b"x").unwrap();
        }
        assert_eq!(io.injected, 0);
        assert_eq!(io.inner().len(p), Some(100));
    }
}
