//! Virtual filesystem seam for snapshot and WAL I/O.
//!
//! Every durable byte the engine writes — snapshots, the write-ahead log,
//! store directories — flows through a [`Vfs`] implementation. Production
//! code uses [`RealVfs`] (thin `std::fs` passthrough); the deterministic
//! simulation harness (`cind-sim`) substitutes an in-memory backend that
//! injects torn writes, short reads, `ENOSPC`, failed fsyncs, and
//! crash-points at any mutation, all driven by a seeded PRNG. The seam is
//! deliberately narrow — create/open/read/rename plus per-file
//! read/write/sync — because that is the complete set of filesystem
//! operations the store performs; keeping it minimal keeps the fault model
//! exhaustive.
//!
//! Two constructors make a file for writing. [`Vfs::create`] is the plain
//! one (snapshots, manifests): every write extends the file. [`Vfs::create_log`]
//! is for the append-only write-ahead log: it takes the same sequential
//! writes, but keeps the durable file [`LOG_CHUNK`]-aligned and zero-filled
//! past the log end, growing it a whole chunk at a time inside the write
//! that crosses the allocated end. A commit's `write` + `sync` then
//! overwrites bytes the file already holds instead of extending it, so the
//! fsync does not also have to commit a new file size (one in
//! `LOG_CHUNK` bytes of log pays that). The zeros are the clean end of the
//! log to [`crate::wal::replay`].

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The growth step of a [`Vfs::create_log`] file, in bytes. A constant,
/// not a knob: 4 KiB and 64 KiB measured the same durable-insert
/// throughput, a 1 MiB chunk 6 % less.
pub const LOG_CHUNK: u64 = 64 * 1024;

/// One open file behind a [`Vfs`]: byte-stream reads and writes plus an
/// explicit durability barrier. `sync` is separate from `flush` because the
/// snapshot path relies on write → sync → rename ordering, and a simulated
/// fsync failure must be distinguishable from a failed write.
pub trait VfsFile: Read + Write + Send + Sync {
    /// Forces written data down to durable storage (`File::sync_all` for
    /// the real backend).
    ///
    /// # Errors
    /// I/O failure of the underlying sync (injected, for fault backends).
    fn sync(&mut self) -> std::io::Result<()>;
}

/// A filesystem backend. Implementations must be safe to share across
/// threads (the engine holds one behind an `Arc`).
pub trait Vfs: Send + Sync {
    /// Creates (or truncates) a file for writing.
    ///
    /// # Errors
    /// I/O failure (real or injected).
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;

    /// Creates (or truncates) an append-only log. Writes land sequentially
    /// exactly as on a [`Self::create`] file, but the durable file is kept
    /// zero-filled ahead of the log end in [`LOG_CHUNK`] steps, so a write
    /// overwrites allocated bytes rather than extending the file. Growth is
    /// lazy: creating the log writes nothing.
    ///
    /// # Errors
    /// I/O failure (real or injected).
    fn create_log(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;

    /// Opens an existing file for reading.
    ///
    /// # Errors
    /// I/O failure (real or injected), including not-found.
    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;

    /// Atomically renames `from` to `to` (the snapshot commit point).
    ///
    /// # Errors
    /// I/O failure (real or injected).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Creates a directory and all its parents.
    ///
    /// # Errors
    /// I/O failure (real or injected).
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()>;

    /// Reads a whole file into memory.
    ///
    /// # Errors
    /// I/O failure (real or injected), including short reads.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let mut f = self.open_read(path)?;
        let mut buf = Vec::new();
        f.read_to_end(&mut buf)?;
        Ok(buf)
    }
}

/// The production backend: a thin passthrough to `std::fs`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

struct RealFile(std::fs::File);

impl Read for RealFile {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for RealFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl VfsFile for RealFile {
    fn sync(&mut self) -> std::io::Result<()> {
        self.0.sync_all()
    }
}

/// A [`Vfs::create_log`] file: the cursor sits at the log end `end`, and
/// `[end, len)` of the file is zeros.
struct RealLogFile {
    file: std::fs::File,
    /// Where the next write lands.
    end: u64,
    /// The file's length: a multiple of [`LOG_CHUNK`], zeros past `end`.
    len: u64,
}

impl RealLogFile {
    /// Zero-fills the file from its current length up to the chunk
    /// boundary at or past `to`, then returns the cursor to the log end. A
    /// failed fill leaves `len` as it was (the next write fills again).
    fn grow(&mut self, to: u64) -> std::io::Result<()> {
        let len = to.div_ceil(LOG_CHUNK) * LOG_CHUNK;
        let zeros = vec![0u8; usize::try_from(len - self.len).map_err(std::io::Error::other)?];
        self.file.seek(SeekFrom::Start(self.len))?;
        let filled = self.file.write_all(&zeros);
        self.file.seek(SeekFrom::Start(self.end))?;
        filled?;
        self.len = len;
        Ok(())
    }
}

impl Read for RealLogFile {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        Err(std::io::Error::other("write-only log handle"))
    }
}

impl Write for RealLogFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let to = self.end + buf.len() as u64;
        if to > self.len {
            self.grow(to)?;
        }
        let n = self.file.write(buf)?;
        self.end += n as u64;
        Ok(n)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

impl VfsFile for RealLogFile {
    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }
}

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::create(path)?)))
    }

    fn create_log(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let file = std::fs::File::create(path)?;
        Ok(Box::new(RealLogFile { file, end: 0, len: 0 }))
    }

    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(std::fs::File::open(path)?)))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// Adapts a [`VfsFile`] to the plain `Write + Send + Sync` sink that
/// [`crate::UniversalTable::attach_wal`] takes (trait objects don't upcast
/// across the extra bounds).
pub struct FileSink(pub Box<dyn VfsFile>);

impl Write for FileSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_vfs_roundtrips_a_file() {
        let dir = std::env::temp_dir().join("cind_vfs_test");
        let vfs = RealVfs;
        vfs.create_dir_all(&dir).unwrap();
        let tmp = dir.join("x.tmp");
        let dst = dir.join("x");
        let mut f = vfs.create(&tmp).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        vfs.rename(&tmp, &dst).unwrap();
        assert!(vfs.exists(&dst));
        assert!(!vfs.exists(&tmp));
        assert_eq!(vfs.read(&dst).unwrap(), b"hello");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_log_grows_in_zeroed_chunks_ahead_of_its_end() {
        let dir = std::env::temp_dir().join(format!("cind_vfs_log_{}", std::process::id()));
        let vfs = RealVfs;
        vfs.create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let chunk = usize::try_from(LOG_CHUNK).unwrap();
        let mut f = vfs.create_log(&path).unwrap();
        assert_eq!(vfs.read(&path).unwrap().len(), 0, "creating the log writes nothing");

        let mut log = Vec::new();
        for (i, n) in [100usize, chunk - 100, 1, chunk + 7].into_iter().enumerate() {
            let bytes = vec![u8::try_from(i + 1).unwrap(); n];
            f.write_all(&bytes).unwrap();
            f.sync().unwrap();
            log.extend_from_slice(&bytes);
            let file = vfs.read(&path).unwrap();
            assert_eq!(file.len(), log.len().div_ceil(chunk) * chunk, "after write {i}");
            assert_eq!(&file[..log.len()], &log[..], "after write {i}");
            assert!(file[log.len()..].iter().all(|&b| b == 0), "after write {i}");
        }
        drop(f);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_read_missing_file_errors() {
        let vfs = RealVfs;
        assert!(vfs.open_read(Path::new("/nonexistent/cind")).is_err());
    }
}
