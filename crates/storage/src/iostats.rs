//! I/O accounting counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative I/O counters of a [`BufferPool`](crate::BufferPool).
///
/// "Physical" reads are buffer-pool misses: in this simulation substrate no
/// real disk exists, but the miss count is exactly the number of page reads
/// a disk-resident deployment of the same plan would issue, which is the
/// cost the paper's query experiments are sensitive to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct IoStats {
    /// Page accesses issued by scans and point lookups.
    pub logical_reads: u64,
    /// Accesses that missed the buffer pool.
    pub physical_reads: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Page writes (record inserts, deletes, moves).
    pub page_writes: u64,
}

impl IoStats {
    /// Buffer-pool hits.
    pub fn hits(&self) -> u64 {
        self.logical_reads - self.physical_reads
    }

    /// Hit ratio in `[0, 1]`; 1.0 when nothing was read.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            1.0
        } else {
            self.hits() as f64 / self.logical_reads as f64
        }
    }

    /// Counter-wise difference `self - earlier`, for measuring one
    /// operation's I/O as a delta between snapshots.
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            evictions: self.evictions - earlier.evictions,
            page_writes: self.page_writes - earlier.page_writes,
        }
    }
}

impl std::ops::AddAssign for IoStats {
    /// Counter-wise accumulation — the merge step for per-thread deltas.
    fn add_assign(&mut self, rhs: IoStats) {
        self.logical_reads += rhs.logical_reads;
        self.physical_reads += rhs.physical_reads;
        self.evictions += rhs.evictions;
        self.page_writes += rhs.page_writes;
    }
}

/// Lock-free [`IoStats`] accumulator shared by concurrent readers.
///
/// Counters are monotonic and independent, so every update uses `Relaxed`
/// ordering: a [`AtomicIoStats::snapshot`] taken while no reader is
/// mid-access is exact, and delta measurement (snapshot before/after an
/// operation, [`IoStats::since`]) stays correct even when the operation
/// itself ran on many threads.
#[derive(Debug, Default)]
pub struct AtomicIoStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    evictions: AtomicU64,
    page_writes: AtomicU64,
}

impl AtomicIoStats {
    /// Records one page access: a logical read, plus a physical read on a
    /// miss, plus any evictions the admission caused.
    pub fn record_access(&self, hit: bool, evicted: u64) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
        if !hit {
            self.physical_reads.fetch_add(1, Ordering::Relaxed);
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Records one page write plus any evictions its admission caused.
    pub fn record_write(&self, evicted: u64) {
        self.page_writes.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// A plain-value snapshot of the counters.
    pub fn snapshot(&self) -> IoStats {
        IoStats {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            page_writes: self.page_writes.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Display for IoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "logical={} physical={} evictions={} writes={} hit-ratio={:.3}",
            self.logical_reads,
            self.physical_reads,
            self.evictions,
            self.page_writes,
            self.hit_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_and_ratio() {
        let s = IoStats { logical_reads: 10, physical_reads: 3, evictions: 1, page_writes: 2 };
        assert_eq!(s.hits(), 7);
        assert!((s.hit_ratio() - 0.7).abs() < 1e-12);
        assert_eq!(IoStats::default().hit_ratio(), 1.0);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = IoStats { logical_reads: 10, physical_reads: 3, evictions: 1, page_writes: 2 };
        a += IoStats { logical_reads: 5, physical_reads: 2, evictions: 0, page_writes: 1 };
        assert_eq!(
            a,
            IoStats { logical_reads: 15, physical_reads: 5, evictions: 1, page_writes: 3 }
        );
    }

    #[test]
    fn atomic_stats_roundtrip() {
        let stats = AtomicIoStats::default();
        stats.record_access(false, 1);
        stats.record_access(true, 0);
        stats.record_write(0);
        let s = stats.snapshot();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 1);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.page_writes, 1);
    }

    #[test]
    fn since_is_counterwise_difference() {
        let a = IoStats { logical_reads: 10, physical_reads: 3, evictions: 1, page_writes: 2 };
        let b = IoStats { logical_reads: 25, physical_reads: 9, evictions: 4, page_writes: 5 };
        let d = b.since(&a);
        assert_eq!(
            d,
            IoStats { logical_reads: 15, physical_reads: 6, evictions: 3, page_writes: 3 }
        );
    }
}
