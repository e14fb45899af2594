//! Storage backend abstraction.
//!
//! The store talks to durable storage through the [`Backend`] trait so the
//! same store logic runs against the real filesystem ([`FileBackend`]) and
//! against the deterministic fault-injection harness
//! ([`FaultyIo`](crate::fault::FaultyIo) over
//! [`MemBackend`](crate::fault::MemBackend)). The trait deliberately
//! exposes *crash-shaped* primitives — append, whole-file replace, fsync,
//! atomic rename — rather than seek/write, because those are the only
//! operations whose failure semantics the store reasons about.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Durable-storage primitives the store is built on.
///
/// Failure contract: `append` and `write_new` may persist any prefix of
/// `data` before returning an error (a torn write); `rename` is atomic
/// (the destination holds either the old or the new content, never a
/// mixture); `fsync` returning `Ok` means previously written bytes for
/// that path are durable.
pub trait Backend {
    /// Read a whole file; `Ok(None)` if it does not exist.
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>>;

    /// Append bytes to a file, creating it if absent.
    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Create or truncate a file and write `data`.
    fn write_new(&mut self, path: &Path, data: &[u8]) -> io::Result<()>;

    /// Truncate a file to `len` bytes (no-op if already shorter).
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;

    /// Flush a file's content to durable storage.
    fn fsync(&mut self, path: &Path) -> io::Result<()>;

    /// Atomically replace `to` with `from`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove a file; `Ok` even if it does not exist.
    fn remove(&mut self, path: &Path) -> io::Result<()>;

    /// Create a directory (and parents) if missing.
    fn ensure_dir(&mut self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct FileBackend;

impl FileBackend {
    /// Fsync a directory so a rename within it is durable (POSIX
    /// requires syncing the parent directory; a no-op elsewhere).
    fn sync_dir(path: &Path) -> io::Result<()> {
        #[cfg(unix)]
        {
            if let Some(parent) = path.parent() {
                if let Ok(dir) = fs::File::open(parent) {
                    dir.sync_all()?;
                }
            }
        }
        #[cfg(not(unix))]
        let _ = path;
        Ok(())
    }
}

impl Backend for FileBackend {
    fn read(&mut self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut f = fs::OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(data)
    }

    fn write_new(&mut self, path: &Path, data: &[u8]) -> io::Result<()> {
        // hmh-lint: allow(durability) — Backend primitive; atomic_write composes it with fsync + rename
        fs::write(path, data)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        match fs::OpenOptions::new().write(true).open(path) {
            Ok(f) => {
                if f.metadata()?.len() > len {
                    f.set_len(len)?;
                }
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound && len == 0 => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        fs::File::open(path)?.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        // hmh-lint: allow(durability) — Backend primitive; callers fsync the source first (atomic_write discipline), and sync_dir below persists the entry
        fs::rename(from, to)?;
        Self::sync_dir(to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        match fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn ensure_dir(&mut self, path: &Path) -> io::Result<()> {
        fs::create_dir_all(path)
    }
}

/// Crash-safe whole-file write: write a sibling temp file, fsync it, then
/// atomically rename it into place. A crash at any point leaves either
/// the previous file content or the new one at `path` — never a torn
/// mixture (the torn bytes live only in the temp file).
pub fn atomic_write(backend: &mut impl Backend, path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = sibling_tmp(path);
    backend.write_new(&tmp, data)?;
    backend.fsync(&tmp)?;
    backend.rename(&tmp, path)
}

/// The temp path `atomic_write` stages through: `<path>.tmp` next to the
/// target, so the rename never crosses a filesystem boundary.
pub fn sibling_tmp(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Convenience: [`atomic_write`] against the real filesystem.
pub fn atomic_write_file(path: &Path, data: &[u8]) -> io::Result<()> {
    atomic_write(&mut FileBackend, path, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hmh-store-backend-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_backend_round_trip() {
        let dir = tmpdir("rt");
        let mut b = FileBackend;
        let p = dir.join("f");
        assert_eq!(b.read(&p).unwrap(), None);
        b.append(&p, b"hello ").unwrap();
        b.append(&p, b"world").unwrap();
        assert_eq!(b.read(&p).unwrap().unwrap(), b"hello world");
        b.truncate(&p, 5).unwrap();
        assert_eq!(b.read(&p).unwrap().unwrap(), b"hello");
        b.fsync(&p).unwrap();
        b.remove(&p).unwrap();
        b.remove(&p).unwrap(); // idempotent
        assert_eq!(b.read(&p).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_replaces() {
        let dir = tmpdir("aw");
        let p = dir.join("target");
        atomic_write_file(&p, b"one").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"one");
        atomic_write_file(&p, b"two").unwrap();
        assert_eq!(fs::read(&p).unwrap(), b"two");
        assert!(!sibling_tmp(&p).exists(), "temp cleaned by rename");
        let _ = fs::remove_dir_all(&dir);
    }
}
