//! WAL group commit: the per-shard commit coordinator.
//!
//! Every durable mutation used to pay one `write` + one `fsync` of its own.
//! [`GroupCommit`] amortises both: writers *submit* their already-framed WAL
//! transaction group (one atomic unit = one `write` call from the
//! [`cind_storage::wal::WalSink`], which emits exactly one buffered
//! `write_all` per Begin..Commit group) into a shared in-memory buffer, then
//! *wait* for their ticket to become durable. The first waiter that finds no
//! flush in progress becomes the **leader**: it optionally lingers for the
//! configured gather window so concurrent writers can pile on, takes the
//! whole buffer, and — with the coordinator unlocked so followers keep
//! enqueueing — issues a single `write_all` plus a single
//! [`cind_storage::vfs::VfsFile::sync`] for the entire group, then advances
//! the durable watermark and wakes every follower with the shared result.
//!
//! Ordering: submissions only happen under the shard's writer lock, so
//! buffer order equals commit order equals WAL byte order — a group-commit
//! log is byte-identical to a per-op log for the same operation sequence,
//! at any window setting. The crash surface is unchanged from PR 5's
//! single-write framing: a torn group is a torn prefix of whole frames plus
//! at most one torn frame, which replay already discards.
//!
//! Failure is sticky, mirroring the WAL sink's poison discipline: once a
//! group write or sync fails, the coordinator records the `ErrorKind`,
//! every waiter past the durable watermark gets that error, and every later
//! submit refuses — which poisons the attached `WalSink` and surfaces as
//! [`cind_storage::StorageError::WalAppend`] on the next mutation. An acked
//! commit is therefore always durable; a failed one never acks.
//!
//! This module is the **only** place in `cind-server` allowed to call
//! `sync`/`flush` (CIND-A007): `crates/server/clippy.toml` disallows
//! `VfsFile::sync`, `File::{sync_all, sync_data}` and `Write::flush`
//! everywhere else in the crate.

#![expect(
    clippy::disallowed_methods,
    reason = "CIND-A007: the group-commit coordinator is where the serving crate syncs"
)]

use std::io::{self, ErrorKind, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use cind_storage::vfs::VfsFile;

use crate::protocol::IoCounters;

/// Cumulative WAL I/O counters for one engine, shared across the
/// coordinator generations a checkpoint cycles through. All relaxed: these
/// are observability counters, not synchronisation.
#[derive(Debug, Default)]
pub struct WalCounters {
    /// `write` calls issued to the log file (one per flushed group).
    pub appends: AtomicU64,
    /// `sync` (fsync) calls issued to the log file.
    pub syncs: AtomicU64,
    /// Flush groups completed (successfully or not).
    pub groups: AtomicU64,
    /// Atomic units (WAL transaction groups) submitted.
    pub ops: AtomicU64,
}

impl WalCounters {
    /// Reads all counters into the `wal_*` fields of an [`IoCounters`]
    /// (relaxed; consistent enough for reporting). The `net_*` and
    /// `frames_*` fields are zero: the server layer fills them in.
    #[must_use]
    pub fn snapshot(&self) -> IoCounters {
        IoCounters {
            wal_appends: self.appends.load(Ordering::Relaxed),
            wal_syncs: self.syncs.load(Ordering::Relaxed),
            wal_groups: self.groups.load(Ordering::Relaxed),
            wal_ops: self.ops.load(Ordering::Relaxed),
            ..IoCounters::default()
        }
    }
}

struct CommitState {
    /// The log file. `None` only while the leader holds it for I/O (or
    /// after an unrecoverable coordinator fault).
    file: Option<Box<dyn VfsFile>>,
    /// Framed-but-not-yet-flushed WAL bytes, in submission order.
    buf: Vec<u8>,
    /// Tickets issued so far (one per submitted atomic unit).
    enqueued: u64,
    /// Highest ticket whose bytes are known durable.
    durable: u64,
    /// Whether a leader currently owns the flush.
    leader: bool,
    /// Sticky poison: the kind of the first failed group flush.
    failed: Option<ErrorKind>,
}

/// The per-shard commit coordinator. Shared (`Arc`) between the engine's
/// WAL sink (which submits) and its write paths (which wait).
pub struct GroupCommit {
    state: Mutex<CommitState>,
    cond: Condvar,
    window: Duration,
    counters: Arc<WalCounters>,
}

impl GroupCommit {
    /// A coordinator over `file`, gathering followers for `window` before
    /// each flush (`Duration::ZERO` = flush immediately, i.e. per-op
    /// semantics with coalescing only when writers genuinely race).
    #[must_use]
    pub fn new(file: Box<dyn VfsFile>, window: Duration, counters: Arc<WalCounters>) -> Self {
        Self {
            state: Mutex::new(CommitState {
                file: Some(file),
                buf: Vec::new(),
                enqueued: 0,
                durable: 0,
                leader: false,
                failed: None,
            }),
            cond: Condvar::new(),
            window,
            counters,
        }
    }

    fn lock(&self) -> MutexGuard<'_, CommitState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueues one atomic unit of framed WAL bytes.
    ///
    /// # Errors
    /// The sticky poison kind, once any group flush has failed.
    pub fn submit(&self, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        if let Some(kind) = st.failed {
            return Err(io::Error::new(kind, "wal group commit poisoned"));
        }
        st.buf.extend_from_slice(bytes);
        st.enqueued += 1;
        self.counters.ops.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The ticket covering everything submitted so far — pass it to
    /// [`Self::wait_durable`] after releasing the writer lock.
    #[must_use]
    pub fn ticket(&self) -> u64 {
        self.lock().enqueued
    }

    /// Blocks until `ticket` is durable (leader/follower protocol: the
    /// caller may end up doing the flush for everyone).
    ///
    /// # Errors
    /// The sticky poison kind when the group containing `ticket` (or any
    /// earlier group) failed to reach the disk.
    pub fn wait_durable(&self, ticket: u64) -> Result<(), ErrorKind> {
        let mut st = self.lock();
        loop {
            if st.durable >= ticket {
                return Ok(());
            }
            if let Some(kind) = st.failed {
                return Err(kind);
            }
            if st.leader {
                // A flush is in progress; wait for its result.
                st = self
                    .cond
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            // Become the leader.
            st.leader = true;
            if !self.window.is_zero() {
                // Linger so concurrent writers can join the group. Submits
                // don't signal the condvar, so this sleeps ~the window
                // (modulo spurious wakeups, which only shrink it).
                st = self
                    .cond
                    .wait_timeout(st, self.window)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            let batch = std::mem::take(&mut st.buf);
            let upto = st.enqueued;
            if batch.is_empty() && st.durable >= upto {
                // Nothing accumulated (a racing drain): step down.
                st.leader = false;
                self.cond.notify_all();
                continue;
            }
            let Some(mut file) = st.file.take() else {
                // Defensive: the file can only be absent if a previous
                // leader panicked mid-flush; poison rather than wedge.
                st.leader = false;
                st.failed = Some(ErrorKind::Other);
                self.cond.notify_all();
                return Err(ErrorKind::Other);
            };
            drop(st);
            // The flush itself runs unlocked so followers keep enqueueing
            // into the *next* group while this one hits the disk.
            let res = Self::flush_group(&mut *file, &batch, &self.counters);
            st = self.lock();
            st.file = Some(file);
            st.leader = false;
            match res {
                Ok(()) => st.durable = st.durable.max(upto),
                Err(e) => st.failed = Some(e.kind()),
            }
            self.cond.notify_all();
            // Loop: re-evaluate our own ticket against the new watermark.
        }
    }

    fn flush_group(
        file: &mut dyn VfsFile,
        batch: &[u8],
        counters: &WalCounters,
    ) -> io::Result<()> {
        counters.groups.fetch_add(1, Ordering::Relaxed);
        if !batch.is_empty() {
            counters.appends.fetch_add(1, Ordering::Relaxed);
            file.write_all(batch)?;
        }
        counters.syncs.fetch_add(1, Ordering::Relaxed);
        file.sync()
    }

    /// Flushes everything submitted so far and blocks until durable.
    ///
    /// # Errors
    /// The sticky poison kind on flush failure.
    pub fn drain(&self) -> Result<(), ErrorKind> {
        let ticket = self.ticket();
        self.wait_durable(ticket)
    }
}

/// Adapts a [`GroupCommit`] to the plain `Write + Send + Sync` sink that
/// [`cind_storage::UniversalTable::attach_wal`] takes. Each `write` call is
/// one atomic unit (the `WalSink` buffers a whole transaction group into a
/// single `write_all`), and `flush` drains the coordinator — so
/// `UniversalTable::flush_wal` means "everything logged so far is on disk".
pub struct GroupSink(Arc<GroupCommit>);

impl GroupSink {
    /// Wraps `coord` for [`cind_storage::UniversalTable::attach_wal`].
    #[must_use]
    pub fn new(coord: Arc<GroupCommit>) -> Self {
        Self(coord)
    }
}

impl Write for GroupSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.0.submit(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0
            .drain()
            .map_err(|kind| io::Error::new(kind, "wal group flush failed"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::sync::atomic::AtomicUsize;

    /// An in-memory `VfsFile` that records write/sync call counts and can
    /// be told to fail its next sync.
    struct MemFile {
        data: Arc<Mutex<Vec<u8>>>,
        writes: Arc<AtomicUsize>,
        syncs: Arc<AtomicUsize>,
        fail_next_sync: Arc<Mutex<bool>>,
    }

    impl Read for MemFile {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
    }
    impl Write for MemFile {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.data.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl VfsFile for MemFile {
        fn sync(&mut self) -> io::Result<()> {
            self.syncs.fetch_add(1, Ordering::Relaxed);
            if std::mem::take(&mut *self.fail_next_sync.lock().unwrap()) {
                return Err(io::Error::other("sync refused"));
            }
            Ok(())
        }
    }

    struct Probe {
        data: Arc<Mutex<Vec<u8>>>,
        /// `write` calls the file saw — must track `counters.appends`.
        writes: Arc<AtomicUsize>,
        syncs: Arc<AtomicUsize>,
        fail_next_sync: Arc<Mutex<bool>>,
    }

    fn mem_file() -> (Box<dyn VfsFile>, Probe) {
        let data = Arc::new(Mutex::new(Vec::new()));
        let writes = Arc::new(AtomicUsize::new(0));
        let syncs = Arc::new(AtomicUsize::new(0));
        let fail = Arc::new(Mutex::new(false));
        let file = MemFile {
            data: Arc::clone(&data),
            writes: Arc::clone(&writes),
            syncs: Arc::clone(&syncs),
            fail_next_sync: Arc::clone(&fail),
        };
        (Box::new(file), Probe { data, writes, syncs, fail_next_sync: fail })
    }

    fn coord(window: Duration) -> (Arc<GroupCommit>, Probe, Arc<WalCounters>) {
        let (file, probe) = mem_file();
        let counters = Arc::new(WalCounters::default());
        (
            Arc::new(GroupCommit::new(file, window, Arc::clone(&counters))),
            probe,
            counters,
        )
    }

    #[test]
    fn single_writer_flushes_inline_and_preserves_bytes() {
        let (c, probe, counters) = coord(Duration::ZERO);
        c.submit(b"aa").unwrap();
        let t = c.ticket();
        c.wait_durable(t).unwrap();
        c.submit(b"bb").unwrap();
        c.wait_durable(c.ticket()).unwrap();
        assert_eq!(&*probe.data.lock().unwrap(), b"aabb");
        assert_eq!(probe.syncs.load(Ordering::Relaxed), 2);
        let snap = counters.snapshot();
        assert_eq!(snap.wal_ops, 2);
        assert_eq!(snap.wal_syncs, 2);
        assert_eq!(snap.wal_groups, 2);
    }

    #[test]
    fn concurrent_writers_coalesce_into_fewer_syncs() {
        let (c, probe, counters) = coord(Duration::from_millis(4));
        const N: usize = 16;
        std::thread::scope(|s| {
            for i in 0..N {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    let unit = [i as u8; 3];
                    c.submit(&unit).unwrap();
                    let t = c.ticket();
                    c.wait_durable(t).unwrap();
                });
            }
        });
        assert_eq!(probe.data.lock().unwrap().len(), N * 3);
        let snap = counters.snapshot();
        assert_eq!(snap.wal_ops, N as u64);
        // At least some coalescing must have happened: 16 units cannot
        // take 16 separate groups when a 4ms window gathers them.
        assert!(
            snap.wal_syncs < N as u64,
            "expected <{N} syncs, got {}",
            snap.wal_syncs
        );
        assert_eq!(probe.syncs.load(Ordering::Relaxed) as u64, snap.wal_syncs);
        assert_eq!(probe.writes.load(Ordering::Relaxed) as u64, snap.wal_appends);
    }

    #[test]
    fn failed_sync_poisons_all_waiters_and_later_submits() {
        let (c, probe, _) = coord(Duration::ZERO);
        c.submit(b"ok").unwrap();
        c.wait_durable(c.ticket()).unwrap();
        *probe.fail_next_sync.lock().unwrap() = true;
        c.submit(b"doomed").unwrap();
        let err = c.wait_durable(c.ticket()).expect_err("sync failure surfaces");
        assert_eq!(err, ErrorKind::Other);
        // Sticky: everything after the poison refuses.
        assert!(c.submit(b"later").is_err());
        assert!(c.wait_durable(c.ticket()).is_err());
        // But tickets at or below the durable watermark still report Ok —
        // an acked commit stays acked.
        assert!(c.wait_durable(1).is_ok());
    }

    #[test]
    fn drain_on_empty_coordinator_is_cheap() {
        let (c, probe, _) = coord(Duration::ZERO);
        c.drain().unwrap();
        c.drain().unwrap();
        assert_eq!(probe.syncs.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn group_sink_write_is_one_unit_and_flush_drains() {
        let (c, probe, counters) = coord(Duration::ZERO);
        let mut sink = GroupSink::new(Arc::clone(&c));
        sink.write_all(b"frame-one").unwrap();
        sink.write_all(b"frame-two").unwrap();
        assert_eq!(counters.snapshot().wal_ops, 2);
        assert_eq!(probe.data.lock().unwrap().len(), 0, "buffered until flush");
        sink.flush().unwrap();
        assert_eq!(&*probe.data.lock().unwrap(), b"frame-oneframe-two");
        assert_eq!(probe.syncs.load(Ordering::Relaxed), 1, "one sync for both");
    }
}
