//! The deterministic fault-injecting filesystem backend.
//!
//! [`SimVfs`] implements [`cind_storage::Vfs`] over an in-memory file map,
//! driven by a seeded PRNG. It injects the fault classes a real disk can
//! produce — torn writes (a crash truncates the write at any byte, with
//! optional garbage after the cut), short reads, out-of-space failures,
//! failed fsyncs — plus virtual per-op latency, and supports *crash-points*:
//! arm a countdown and the k-th subsequent mutating operation (write,
//! create, rename, sync) dies mid-effect, after which every operation
//! fails until the harness "reboots" by clearing the crash and reopening
//! the engine. All randomness flows from one seed, so a failing schedule
//! replays byte-for-byte.
//!
//! A [`Vfs::create_log`] file is modelled as the real backend keeps it: its
//! image grows by zero-filled [`LOG_CHUNK`]s inside the mutation of the
//! write that crosses the image end (so crash-point counts match a plain
//! file's), and each write overwrites the zeros at the log end. A crash
//! mid-write then persists either a prefix of the write (as for a plain
//! file) or, with dirty tears on, any subset of the write's 512-byte
//! sectors; a lost sector keeps what it held before the write. The tear
//! shape is drawn from a second stream derived from the seed, so every
//! other fault draw is the one a plain file would get.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Error, ErrorKind, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use cind_storage::vfs::{Vfs, VfsFile, LOG_CHUNK};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::clock::VirtualClock;

/// Which faults fire, and how often. Probabilities are per-mille per
/// opportunity (a write, a read-open, a sync).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crashed writes may leave garbage bytes after the cut point
    /// (a "dirty" tear), not just a clean prefix.
    pub torn_write: bool,
    /// Per-mille chance a read delivers a prefix then fails (transient —
    /// the retry draws fresh randomness).
    pub short_read_permille: u32,
    /// Per-mille chance a write fails with `StorageFull`, writing nothing.
    pub enospc_permille: u32,
    /// Per-mille chance a sync fails (data already written is kept).
    pub fsync_fail_permille: u32,
    /// Charge random virtual nanoseconds per operation.
    pub latency: bool,
}

impl FaultPlan {
    /// No faults: the VFS behaves like a perfect disk (crash-points still
    /// work — they are armed explicitly, not drawn).
    #[must_use]
    pub fn none() -> Self {
        Self {
            torn_write: false,
            short_read_permille: 0,
            enospc_permille: 0,
            fsync_fail_permille: 0,
            latency: false,
        }
    }

    /// No random faults, but crashed writes tear dirty (prefix + garbage)
    /// — the crash-sweep's plan, where the armed crash is the experiment.
    #[must_use]
    pub fn crash_only() -> Self {
        Self { torn_write: true, ..Self::none() }
    }

    /// Every fault class enabled at its default rate.
    #[must_use]
    pub fn all() -> Self {
        Self {
            torn_write: true,
            short_read_permille: 15,
            enospc_permille: 5,
            fsync_fail_permille: 5,
            latency: true,
        }
    }
}

/// The unit a torn in-place write persists or loses whole.
const SECTOR: usize = 512;

/// Mixed into the seed for the tear-shape stream.
const TEAR_STREAM: u64 = 0x5EC7_0125_7EA2_5EC7;

struct VfsState {
    files: BTreeMap<PathBuf, Vec<u8>>,
    /// The log end of every [`Vfs::create_log`] file; its image is zeros
    /// from there on.
    log_ends: BTreeMap<PathBuf, usize>,
    dirs: BTreeSet<PathBuf>,
    rng: StdRng,
    /// Tear shapes of crashed log writes (see the module docs).
    tear_rng: StdRng,
    plan: FaultPlan,
    /// While set, no random faults fire (crash recovery escape hatch —
    /// armed crash-points are unaffected).
    suppress: bool,
    /// Mutations remaining until the armed crash fires (`Some(0)` = the
    /// next mutation crashes).
    crash_in: Option<u64>,
    crashed: bool,
    mutations: u64,
}

fn crash_err() -> Error {
    Error::other("simulated crash")
}

impl VfsState {
    /// Gate every mutating operation: fail if already crashed, count the
    /// mutation, and report whether the armed crash fires *on this op*.
    fn begin_mutation(&mut self) -> std::io::Result<bool> {
        if self.crashed {
            return Err(crash_err());
        }
        self.mutations += 1;
        if let Some(k) = self.crash_in {
            if k == 0 {
                self.crash_in = None;
                self.crashed = true;
                return Ok(true);
            }
            self.crash_in = Some(k - 1);
        }
        Ok(false)
    }

    fn roll(&mut self, permille: u32) -> bool {
        !self.suppress && permille > 0 && self.rng.gen_range(0u32..1000) < permille
    }

    /// Renames `from` to `to`, log end included; `false` if `from` is
    /// missing.
    fn move_file(&mut self, from: &Path, to: &Path) -> bool {
        let Some(data) = self.files.remove(from) else { return false };
        self.files.insert(to.to_path_buf(), data);
        match self.log_ends.remove(from) {
            Some(end) => self.log_ends.insert(to.to_path_buf(), end),
            None => self.log_ends.remove(to),
        };
        true
    }

    /// The log end of `path` and its image, grown by zero-filled chunks
    /// until it holds `more` bytes past the end.
    fn grow_log(&mut self, path: &Path, more: usize) -> Option<(usize, &mut Vec<u8>)> {
        let end = *self.log_ends.get(path)?;
        let image = self.files.get_mut(path)?;
        let chunk = LOG_CHUNK as usize;
        if end + more > image.len() {
            image.resize((end + more).div_ceil(chunk) * chunk, 0);
        }
        Some((end, image))
    }

    /// A crash tore the log write `buf`: either its first `cut` bytes land,
    /// followed by `garbage`, or (drawn from the tear stream) each 512-byte
    /// sector it touches lands or keeps its old bytes independently.
    fn tear_log(&mut self, path: &Path, buf: &[u8], cut: usize, garbage: &[u8]) {
        let holes = self.plan.torn_write && self.tear_rng.gen_bool(0.5);
        let Some(&end) = self.log_ends.get(path) else { return };
        let kept: Vec<usize> = if holes {
            let sectors = end / SECTOR..(end + buf.len()).div_ceil(SECTOR);
            sectors.filter(|_| self.tear_rng.gen_bool(0.5)).collect()
        } else {
            Vec::new()
        };
        let Some((_, image)) = self.grow_log(path, buf.len()) else { return };
        if holes {
            for s in kept {
                let lo = (s * SECTOR).max(end);
                let hi = ((s + 1) * SECTOR).min(end + buf.len());
                image[lo..hi].copy_from_slice(&buf[lo - end..hi - end]);
            }
        } else {
            image[end..end + cut].copy_from_slice(&buf[..cut]);
            let tail = end + cut + garbage.len();
            if tail > image.len() {
                image.resize(tail, 0);
            }
            image[end + cut..tail].copy_from_slice(garbage);
        }
    }
}

/// The fault backend. The engine holds it as its `Arc<dyn Vfs>` while the
/// harness keeps a concrete handle for the control surface (`arm_crash`,
/// `crashed`, `corrupt_byte`, …); write handles share the same state.
pub struct SimVfs {
    state: Arc<Mutex<VfsState>>,
    clock: Arc<VirtualClock>,
}

impl SimVfs {
    /// A fresh empty filesystem with its own PRNG stream.
    #[must_use]
    pub fn new(seed: u64, plan: FaultPlan, clock: Arc<VirtualClock>) -> Self {
        Self {
            state: Arc::new(Mutex::new(VfsState {
                files: BTreeMap::new(),
                log_ends: BTreeMap::new(),
                dirs: BTreeSet::new(),
                rng: StdRng::seed_from_u64(seed),
                tear_rng: StdRng::seed_from_u64(seed ^ TEAR_STREAM),
                plan,
                suppress: false,
                crash_in: None,
                crashed: false,
                mutations: 0,
            })),
            clock,
        }
    }

    fn st(&self) -> MutexGuard<'_, VfsState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self, g: &mut VfsState) {
        if g.plan.latency && !g.suppress {
            let ns = g.rng.gen_range(500u64..20_000);
            self.clock.advance(ns);
        }
    }

    /// While `true`, random faults are suppressed (recovery escape hatch).
    pub fn set_suppress(&self, on: bool) {
        self.st().suppress = on;
    }

    /// Arms a crash-point: the `k`-th mutating operation from now
    /// (0 = the very next one) dies mid-effect.
    pub fn arm_crash(&self, k: u64) {
        self.st().crash_in = Some(k);
    }

    /// Whether the armed crash has fired (every operation now fails).
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.st().crashed
    }

    /// "Reboots" the filesystem: clears the crashed flag and any armed
    /// countdown. File contents (including torn tails) are kept — that is
    /// the disk the restarted engine recovers from.
    pub fn clear_crash(&self) {
        let mut g = self.st();
        g.crashed = false;
        g.crash_in = None;
    }

    /// Total mutating operations performed so far (the crash-sweep uses
    /// this to enumerate every crash-point of a schedule).
    #[must_use]
    pub fn mutation_count(&self) -> u64 {
        self.st().mutations
    }

    /// Where the next write to the [`Vfs::create_log`] file `path` lands
    /// (the bytes its completed writes hold), if `path` is a log.
    #[must_use]
    pub fn log_end(&self, path: &Path) -> Option<usize> {
        self.st().log_ends.get(path).copied()
    }

    /// A copy of `path`'s bytes, if it exists.
    #[must_use]
    pub fn file_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        self.st().files.get(path).cloned()
    }

    /// XORs `mask` into the byte at `offset` (the self-test's bit-rot
    /// injector). Returns `false` if the file or offset does not exist.
    pub fn corrupt_byte(&self, path: &Path, offset: usize, mask: u8) -> bool {
        let mut g = self.st();
        match g.files.get_mut(path).and_then(|f| f.get_mut(offset)) {
            Some(b) => {
                *b ^= mask;
                true
            }
            None => false,
        }
    }
}

impl SimVfs {
    /// `create` and `create_log`: one mutation either way.
    fn create_file(&self, path: &Path, log: bool) -> std::io::Result<Box<dyn VfsFile>> {
        let mut g = self.st();
        self.tick(&mut g);
        let crashed = g.begin_mutation()?;
        // Crash at the create boundary: the file may or may not have come
        // into (empty) existence.
        if !crashed || g.rng.gen_bool(0.5) {
            g.files.insert(path.to_path_buf(), Vec::new());
            if log {
                g.log_ends.insert(path.to_path_buf(), 0);
            } else {
                g.log_ends.remove(path);
            }
        }
        if crashed {
            return Err(crash_err());
        }
        drop(g);
        Ok(Box::new(SimWriteFile {
            state: Arc::clone(&self.state),
            clock: Arc::clone(&self.clock),
            path: path.to_path_buf(),
            log,
        }))
    }
}

impl Vfs for SimVfs {
    fn create(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.create_file(path, false)
    }

    fn create_log(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        self.create_file(path, true)
    }

    fn open_read(&self, path: &Path) -> std::io::Result<Box<dyn VfsFile>> {
        let mut g = self.st();
        self.tick(&mut g);
        if g.crashed {
            return Err(crash_err());
        }
        let Some(data) = g.files.get(path).cloned() else {
            return Err(Error::new(ErrorKind::NotFound, "no such file"));
        };
        let permille = g.plan.short_read_permille;
        let fail_at = if g.roll(permille) && !data.is_empty() {
            Some(g.rng.gen_range(0..data.len()))
        } else {
            None
        };
        drop(g);
        Ok(Box::new(SimReadFile { data, pos: 0, fail_at }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.st().files.contains_key(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut g = self.st();
        self.tick(&mut g);
        if g.begin_mutation()? {
            // Crash at the rename boundary: it either happened or it
            // didn't — never a half state (rename is atomic).
            if g.rng.gen_bool(0.5) {
                g.move_file(from, to);
            }
            return Err(crash_err());
        }
        if g.move_file(from, to) {
            Ok(())
        } else {
            Err(Error::new(ErrorKind::NotFound, "rename source missing"))
        }
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        let mut g = self.st();
        if g.crashed {
            return Err(crash_err());
        }
        g.dirs.insert(path.to_path_buf());
        Ok(())
    }
}

/// Read handle: a snapshot of the file at open time, optionally failing
/// after delivering a prefix (the short-read fault).
struct SimReadFile {
    data: Vec<u8>,
    pos: usize,
    fail_at: Option<usize>,
}

impl Read for SimReadFile {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let end = self.fail_at.unwrap_or(self.data.len());
        if self.pos >= end {
            if self.fail_at.is_some() {
                return Err(Error::other("simulated short read"));
            }
            return Ok(0);
        }
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for SimReadFile {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(Error::other("read-only handle"))
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl VfsFile for SimReadFile {
    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Append-only write handle sharing the filesystem state. Every `write`
/// is one mutation for crash-countdown purposes; a crash mid-write tears
/// the buffer at a random byte (optionally followed by garbage) or, on a
/// log, may lose any of its sectors; ENOSPC writes nothing at all (not even
/// a log's growth), and a failed sync keeps the data (our model treats
/// written bytes as durable — fsync only reports).
struct SimWriteFile {
    state: Arc<Mutex<VfsState>>,
    clock: Arc<VirtualClock>,
    path: PathBuf,
    /// Opened by `create_log`: writes overwrite the zeros at the log end.
    log: bool,
}

impl SimWriteFile {
    fn st(&self) -> MutexGuard<'_, VfsState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Read for SimWriteFile {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        Err(Error::other("write-only handle"))
    }
}

impl Write for SimWriteFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut g = self.st();
        if g.plan.latency && !g.suppress {
            let ns = g.rng.gen_range(500u64..20_000);
            self.clock.advance(ns);
        }
        if g.begin_mutation()? {
            // Torn write: a random prefix of the buffer lands, optionally
            // followed by garbage bytes that never belonged to any entry.
            let cut = g.rng.gen_range(0..=buf.len());
            let garbage: Vec<u8> = if g.plan.torn_write && g.rng.gen_bool(0.5) {
                let n = g.rng.gen_range(1usize..=8);
                (0..n).map(|_| g.rng.gen::<u8>()).collect()
            } else {
                Vec::new()
            };
            if self.log {
                g.tear_log(&self.path, buf, cut, &garbage);
            } else if let Some(f) = g.files.get_mut(&self.path) {
                f.extend_from_slice(&buf[..cut]);
                f.extend_from_slice(&garbage);
            }
            return Err(crash_err());
        }
        let enospc = g.plan.enospc_permille;
        if g.roll(enospc) {
            return Err(Error::new(ErrorKind::StorageFull, "simulated ENOSPC"));
        }
        if self.log {
            let Some((end, image)) = g.grow_log(&self.path, buf.len()) else {
                return Err(Error::new(ErrorKind::NotFound, "file vanished"));
            };
            image[end..end + buf.len()].copy_from_slice(buf);
            g.log_ends.insert(self.path.clone(), end + buf.len());
            return Ok(buf.len());
        }
        match g.files.get_mut(&self.path) {
            Some(f) => {
                f.extend_from_slice(buf);
                Ok(buf.len())
            }
            None => Err(Error::new(ErrorKind::NotFound, "file vanished")),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.st().crashed {
            return Err(crash_err());
        }
        Ok(())
    }
}

impl VfsFile for SimWriteFile {
    fn sync(&mut self) -> std::io::Result<()> {
        let mut g = self.st();
        if g.begin_mutation()? {
            // Crash at the fsync boundary: written bytes stay (already
            // applied to the in-memory image), the caller sees the crash.
            return Err(crash_err());
        }
        let fsync_fail = g.plan.fsync_fail_permille;
        if g.roll(fsync_fail) {
            return Err(Error::other("simulated fsync failure"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vfs(seed: u64, plan: FaultPlan) -> SimVfs {
        SimVfs::new(seed, plan, Arc::new(VirtualClock::new()))
    }

    #[test]
    fn write_read_rename_roundtrip() {
        let v = vfs(1, FaultPlan::none());
        let p = Path::new("/d/a");
        let q = Path::new("/d/b");
        let mut f = v.create(p).expect("create");
        f.write_all(b"hello").expect("write");
        f.sync().expect("sync");
        drop(f);
        v.rename(p, q).expect("rename");
        assert!(!v.exists(p));
        let mut r = v.open_read(q).expect("open");
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).expect("read");
        assert_eq!(buf, b"hello");
    }

    #[test]
    fn armed_crash_tears_a_write_then_fails_everything() {
        let v = vfs(7, FaultPlan::all());
        let p = Path::new("/d/wal");
        let mut f = v.create(p).expect("create"); // mutation 0
        v.arm_crash(0); // next mutation (the write) crashes
        let err = f.write_all(&[0xAB; 64]).expect_err("must crash");
        assert_eq!(err.to_string(), "simulated crash");
        assert!(v.crashed());
        // The torn image is a strict prefix of the buffer (possibly with
        // garbage), never the full durable write plus success.
        assert!(v.open_read(p).is_err(), "post-crash ops fail");
        v.clear_crash();
        let len = v.file_bytes(p).map(|b| b.len()).expect("file exists");
        assert!(len <= 64 + 8, "prefix + bounded garbage, got {len}");
        assert!(v.open_read(p).is_ok(), "reboot restores service");
    }

    #[test]
    fn enospc_write_leaves_no_partial_bytes() {
        let plan = FaultPlan { enospc_permille: 1000, ..FaultPlan::none() };
        let v = vfs(3, plan);
        let p = Path::new("/d/x");
        let mut f = v.create(p).expect("create");
        let err = f.write_all(b"doomed").expect_err("always ENOSPC");
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert_eq!(v.file_bytes(p).map(|b| b.len()), Some(0));
    }

    #[test]
    fn a_log_image_grows_by_zero_chunks_inside_the_crossing_write() {
        let v = vfs(2, FaultPlan::none());
        let p = Path::new("/d/wal");
        let chunk = LOG_CHUNK as usize;
        let mut f = v.create_log(p).expect("create");
        assert_eq!(
            (v.file_bytes(p).map(|b| b.len()), v.log_end(p)),
            (Some(0), Some(0))
        );
        let mut log = Vec::new();
        for (i, n) in [100usize, chunk - 100, 1].into_iter().enumerate() {
            let bytes = vec![u8::try_from(i + 1).expect("small"); n];
            let before = v.mutation_count();
            f.write_all(&bytes).expect("write");
            assert_eq!(v.mutation_count(), before + 1, "write {i}: one mutation");
            log.extend_from_slice(&bytes);
            let image = v.file_bytes(p).expect("image");
            assert_eq!(v.log_end(p), Some(log.len()), "write {i}");
            assert_eq!(image.len(), log.len().div_ceil(chunk) * chunk, "write {i}");
            assert_eq!(&image[..log.len()], &log[..], "write {i}");
            assert!(image[log.len()..].iter().all(|&b| b == 0), "write {i}");
        }
    }

    #[test]
    fn enospc_on_an_extending_log_write_applies_nothing() {
        let plan = FaultPlan { enospc_permille: 1000, ..FaultPlan::none() };
        let v = vfs(3, plan);
        let p = Path::new("/d/wal");
        let mut f = v.create_log(p).expect("create");
        let err = f.write_all(b"doomed").expect_err("always ENOSPC");
        assert_eq!(err.kind(), ErrorKind::StorageFull);
        assert_eq!(
            (v.file_bytes(p).map(|b| b.len()), v.log_end(p)),
            (Some(0), Some(0))
        );
    }

    #[test]
    fn a_crashed_log_write_lands_a_prefix_or_a_subset_of_its_sectors() {
        let (old, new_len) = (700usize, 1300usize);
        let new: Vec<u8> =
            (0..new_len).map(|i| u8::try_from(i % 251 + 1).expect("small")).collect();
        let mut hole_tears = 0;
        for seed in 0..64u64 {
            let v = vfs(seed, FaultPlan::crash_only());
            let p = Path::new("/d/wal");
            let mut f = v.create_log(p).expect("create");
            f.write_all(&vec![0xA5; old]).expect("write");
            v.arm_crash(0);
            f.write_all(&new).expect_err("must crash");
            v.clear_crash();
            let image = v.file_bytes(p).expect("image");
            assert!(image[..old].iter().all(|&b| b == 0xA5), "seed {seed}: old bytes kept");
            let end = old + new_len;
            // A prefix of the write, then at most 8 garbage bytes, then zeros.
            let cut = image[old..].iter().zip(&new).take_while(|(a, b)| a == b).count();
            let prefix = image[old + cut..].iter().skip(8).all(|&b| b == 0);
            // Or each sector the write touches holds its new bytes or zeros.
            let subset = image[end..].iter().all(|&b| b == 0)
                && (old / SECTOR..end.div_ceil(SECTOR)).all(|s| {
                    let (lo, hi) = ((s * SECTOR).max(old), ((s + 1) * SECTOR).min(end));
                    image[lo..hi] == new[lo - old..hi - old]
                        || image[lo..hi].iter().all(|&b| b == 0)
                });
            assert!(prefix || subset, "seed {seed}: neither a prefix nor a sector subset");
            hole_tears += usize::from(subset && !prefix);
        }
        assert!(hole_tears > 0, "no crash lost an early sector but kept a later one");
    }

    #[test]
    fn a_log_draws_the_faults_a_plain_file_draws() {
        for seed in [0u64, 5, 99] {
            let run = |log: bool| {
                let clock = Arc::new(VirtualClock::new());
                let v = SimVfs::new(seed, FaultPlan::all(), Arc::clone(&clock));
                let p = Path::new("/d/z");
                let mut f = if log { v.create_log(p) } else { v.create(p) }.expect("create");
                let outcomes: Vec<(bool, bool)> = (0..200u32)
                    .map(|i| (f.write_all(&i.to_le_bytes()).is_ok(), f.sync().is_ok()))
                    .collect();
                (outcomes, v.mutation_count(), clock.now_ns())
            };
            assert_eq!(run(false), run(true), "seed {seed}");
        }
    }

    #[test]
    fn short_read_fails_after_a_prefix_and_suppress_disables_it() {
        let plan = FaultPlan { short_read_permille: 1000, ..FaultPlan::none() };
        let v = vfs(11, plan);
        let p = Path::new("/d/y");
        let mut f = v.create(p).expect("create");
        f.write_all(&[9u8; 100]).expect("write");
        drop(f);
        let mut r = v.open_read(p).expect("open");
        let mut buf = Vec::new();
        assert!(r.read_to_end(&mut buf).is_err(), "short read must error");
        assert!(buf.len() < 100, "must deliver a strict prefix");
        v.set_suppress(true);
        let mut r = v.open_read(p).expect("open");
        let mut buf = Vec::new();
        r.read_to_end(&mut buf).expect("suppressed read succeeds");
        assert_eq!(buf.len(), 100);
    }

    #[test]
    fn same_seed_same_fault_stream() {
        for seed in [0u64, 5, 99] {
            let run = |_: ()| {
                let v = vfs(seed, FaultPlan::all());
                let p = Path::new("/d/z");
                let mut log = Vec::new();
                let mut f = v.create(p).expect("create");
                for i in 0..200u32 {
                    log.push(f.write_all(&i.to_le_bytes()).is_ok());
                    log.push(f.sync().is_ok());
                }
                (log, v.file_bytes(p))
            };
            assert_eq!(run(()), run(()), "seed {seed} diverged");
        }
    }
}
