//! Accounting buffer pool: one LRU behind one lock, safe for concurrent readers.

use crate::iostats::AtomicIoStats;
use crate::segment::SegmentId;
use crate::IoStats;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Globally unique page address: a segment and a page index within it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PageKey {
    /// The owning segment.
    pub segment: SegmentId,
    /// Page index within the segment.
    pub page: u32,
}

/// An LRU page cache that classifies every access as hit or miss.
///
/// Page *contents* always live in their segment (this is a simulation
/// substrate — see [`IoStats`]); the pool tracks only residency, so a scan
/// over a table larger than the pool produces the same miss pattern a real
/// buffer manager would, at zero copy cost. The LRU list is an intrusive
/// doubly linked list over a slab, giving O(1) touch/evict.
///
/// **Concurrency.** One mutex guards the one LRU; every page access takes
/// it once, so concurrent readers of a table serialise there. The
/// [`IoStats`] counters are lock-free atomics updated outside the lock.
pub struct BufferPool {
    lru: Mutex<Lru>,
    stats: AtomicIoStats,
}

struct Lru {
    capacity: usize,
    map: HashMap<PageKey, usize>, // key -> slab index
    slab: Vec<Node>,
    head: usize, // most recently used; usize::MAX when empty
    tail: usize, // least recently used
    free: Vec<usize>,
}

struct Node {
    key: PageKey,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// The buffer-pool size, in pages, of every store and command that is not
/// given one.
pub const DEFAULT_POOL_PAGES: usize = 1024;

impl BufferPool {
    /// Creates a pool that can hold `capacity` pages — exact global LRU
    /// semantics. A capacity of 0 disables caching (every access is a miss).
    pub fn new(capacity: usize) -> Self {
        Self {
            lru: Mutex::new(Lru {
                capacity,
                map: HashMap::new(),
                slab: Vec::new(),
                head: NIL,
                tail: NIL,
                free: Vec::new(),
            }),
            stats: AtomicIoStats::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a read access to `key`. Returns `true` on a hit.
    pub fn access(&self, key: PageKey) -> bool {
        self.access_tracked(key).0
    }

    /// Records a read access to `key`, returning `(hit, evictions)` so the
    /// caller can keep a *local* [`IoStats`] delta for this scan. The
    /// pool's global counters are updated either way; the return value lets
    /// concurrent sessions attribute each access to exactly the query that
    /// issued it instead of diffing the shared counters (which would
    /// double-count every other session's traffic in the window).
    pub fn access_tracked(&self, key: PageKey) -> (bool, u64) {
        let (hit, evicted) = {
            let mut g = self.lock();
            if g.capacity == 0 {
                (false, 0)
            } else if let Some(&idx) = g.map.get(&key) {
                g.unlink(idx);
                g.push_front(idx);
                (true, 0)
            } else {
                let evicted = g.admit(key);
                (false, evicted)
            }
        };
        self.stats.record_access(hit, evicted);
        (hit, evicted)
    }

    /// Records a write to `key` (also makes the page resident).
    pub fn write(&self, key: PageKey) {
        let evicted = {
            let mut g = self.lock();
            if g.capacity == 0 {
                0
            } else if let Some(&idx) = g.map.get(&key) {
                g.unlink(idx);
                g.push_front(idx);
                0
            } else {
                g.admit(key)
            }
        };
        self.stats.record_write(evicted);
    }

    /// Drops all pages of `segment` from the pool (segment dropped/split).
    pub fn invalidate_segment(&self, segment: SegmentId) {
        let mut g = self.lock();
        let victims: Vec<usize> = g
            .map
            .iter()
            .filter(|(k, _)| k.segment == segment)
            .map(|(_, &i)| i)
            .collect();
        for idx in victims {
            g.remove(idx);
        }
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Number of currently resident pages.
    pub fn resident(&self) -> usize {
        self.lock().map.len()
    }

    /// Cross-checks the LRU structure — capacity bound, map/list agreement,
    /// doubly-linked-list coherence, free-list integrity, and slab
    /// accounting — returning a diagnostic per violation. Takes the pool
    /// lock, so it is safe to call on a live pool.
    pub fn validate(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.lock().validate(&mut out);
        out
    }
}

impl Lru {
    /// Admits `key`, evicting the least recently used page if full. Returns the
    /// number of evictions (0 or 1).
    fn admit(&mut self, key: PageKey) -> u64 {
        let mut evicted = 0;
        if self.map.len() >= self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            self.remove(tail);
            evicted = 1;
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.slab[i] = Node { key, prev: NIL, next: NIL };
                i
            }
            None => {
                self.slab.push(Node { key, prev: NIL, next: NIL });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    fn remove(&mut self, idx: usize) {
        self.unlink(idx);
        let key = self.slab[idx].key;
        self.map.remove(&key);
        self.free.push(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slab[idx].prev = NIL;
        self.slab[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Appends a diagnostic for every violated LRU invariant to `out`.
    /// Written defensively: a corrupted LRU (dangling index, cycle) must
    /// produce a report, not a panic or an endless walk.
    fn validate(&self, out: &mut Vec<String>) {
        let mut v = |detail: String| out.push(format!("[buffer-pool] {detail}"));
        if self.map.len() > self.capacity {
            v(format!(
                "{} resident pages exceed capacity {}",
                self.map.len(),
                self.capacity
            ));
        }
        if self.map.len() + self.free.len() != self.slab.len() {
            v(format!(
                "slab accounting: {} mapped + {} free != {} slab nodes",
                self.map.len(),
                self.free.len(),
                self.slab.len()
            ));
        }
        let mut on_free = vec![false; self.slab.len()];
        for &idx in &self.free {
            if idx >= self.slab.len() {
                v(format!("free-list index {idx} out of range"));
            } else if std::mem::replace(&mut on_free[idx], true) {
                v(format!("slab index {idx} appears twice on the free list"));
            }
        }
        for (&key, &idx) in &self.map {
            if idx >= self.slab.len() {
                v(format!("page {key:?} maps to out-of-range slab index {idx}"));
                continue;
            }
            if on_free[idx] {
                v(format!("page {key:?} maps to freed slab index {idx}"));
            }
            if self.slab[idx].key != key {
                v(format!(
                    "page {key:?} maps to slab index {idx} holding {:?}",
                    self.slab[idx].key
                ));
            }
        }
        // Walk the LRU list from the head, bounding the walk by the slab
        // size so a cycle terminates with a diagnostic.
        if self.head != NIL && self.head < self.slab.len() && self.slab[self.head].prev != NIL
        {
            v(format!("head {} has a predecessor", self.head));
        }
        let mut idx = self.head;
        let mut prev = NIL;
        let mut walked = 0usize;
        while idx != NIL {
            if idx >= self.slab.len() {
                v(format!("list reaches out-of-range index {idx}"));
                return;
            }
            if walked > self.slab.len() {
                v("LRU list contains a cycle".to_owned());
                return;
            }
            if self.slab[idx].prev != prev {
                v(format!(
                    "index {idx}: prev pointer {} but reached from {prev}",
                    self.slab[idx].prev
                ));
            }
            if self.map.get(&self.slab[idx].key).is_none_or(|&m| m != idx) {
                v(format!(
                    "listed page {:?} at index {idx} not mapped there",
                    self.slab[idx].key
                ));
            }
            walked += 1;
            prev = idx;
            idx = self.slab[idx].next;
        }
        if walked != self.map.len() {
            v(format!(
                "LRU list holds {walked} nodes, map holds {}",
                self.map.len()
            ));
        }
        if self.tail != prev {
            v(format!("tail is {} but the list ends at {prev}", self.tail));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u32) -> PageKey {
        PageKey { segment: SegmentId(0), page: p }
    }

    #[test]
    fn misses_then_hits() {
        let pool = BufferPool::new(4);
        assert!(!pool.access(key(1)));
        assert!(!pool.access(key(2)));
        assert!(pool.access(key(1)));
        let s = pool.stats();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let pool = BufferPool::new(2);
        pool.access(key(1));
        pool.access(key(2));
        pool.access(key(1)); // 2 is now LRU
        pool.access(key(3)); // evicts 2
        assert!(pool.access(key(1)), "1 should still be resident");
        assert!(!pool.access(key(2)), "2 should have been evicted");
        assert_eq!(pool.stats().evictions, 2); // 3 evicted 2, then 2 evicted 3
    }

    #[test]
    fn zero_capacity_always_misses() {
        let pool = BufferPool::new(0);
        assert!(!pool.access(key(1)));
        assert!(!pool.access(key(1)));
        pool.write(key(1));
        assert_eq!(pool.resident(), 0);
        let s = pool.stats();
        assert_eq!(s.physical_reads, 2);
        assert_eq!(s.page_writes, 1);
    }

    #[test]
    fn write_makes_resident() {
        let pool = BufferPool::new(4);
        pool.write(key(9));
        assert!(pool.access(key(9)));
    }

    #[test]
    fn invalidate_segment_drops_only_that_segment() {
        let pool = BufferPool::new(8);
        pool.access(PageKey { segment: SegmentId(1), page: 0 });
        pool.access(PageKey { segment: SegmentId(1), page: 1 });
        pool.access(PageKey { segment: SegmentId(2), page: 0 });
        pool.invalidate_segment(SegmentId(1));
        assert_eq!(pool.resident(), 1);
        assert!(pool.access(PageKey { segment: SegmentId(2), page: 0 }));
        assert!(!pool.access(PageKey { segment: SegmentId(1), page: 0 }));
    }

    #[test]
    fn eviction_pressure_keeps_capacity() {
        let pool = BufferPool::new(3);
        for p in 0..100 {
            pool.access(key(p));
        }
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.stats().evictions, 97);
        // The three most recent pages are resident.
        assert!(pool.access(key(99)));
        assert!(pool.access(key(98)));
        assert!(pool.access(key(97)));
    }

    #[test]
    fn validate_accepts_healthy_pool() {
        // Exercise every structural transition: fill, hit, evict, write,
        // invalidate — the free list, LRU chain, and map must stay coherent.
        let pool = BufferPool::new(8);
        for p in 0..32 {
            pool.access(key(p));
        }
        for p in 0..8 {
            pool.access(key(p));
            pool.write(PageKey { segment: SegmentId(1), page: p });
        }
        pool.invalidate_segment(SegmentId(1));
        assert!(pool.validate().is_empty(), "{:?}", pool.validate());
        // Empty and zero-capacity pools are trivially consistent too.
        assert!(BufferPool::new(4).validate().is_empty());
        assert!(BufferPool::new(0).validate().is_empty());
    }

    /// Seeds one corruption per LRU invariant directly into the private
    /// LRU structures and asserts `validate` names each precisely — the
    /// regression net that keeps the validator itself honest.
    #[test]
    fn validate_reports_each_seeded_lru_corruption() {
        let corrupted = |sabotage: fn(&mut Lru), needle: &str| {
            let pool = BufferPool::new(4);
            for p in 0..3 {
                pool.access(key(p));
            }
            sabotage(&mut pool.lock());
            let report = pool.validate();
            assert!(
                report.iter().any(|d| d.contains(needle)),
                "expected a diagnostic containing {needle:?}, got {report:?}"
            );
        };

        // Map points at a slab index past the slab.
        corrupted(
            |s| {
                s.map.insert(key(99), 42);
            },
            "maps to out-of-range slab index 42",
        );
        // Map points at a node holding a different key.
        corrupted(
            |s| {
                let &idx = s.map.get(&key(1)).expect("resident");
                s.map.insert(key(77), idx);
            },
            "maps to slab index",
        );
        // A live node is also on the free list.
        corrupted(
            |s| {
                let &idx = s.map.get(&key(0)).expect("resident");
                s.free.push(idx);
            },
            "maps to freed slab index",
        );
        // Duplicate free-list entry (and slab accounting drift).
        corrupted(
            |s| {
                s.map.remove(&key(2));
                let idx = s.slab.len() - 1;
                s.free.push(idx);
                s.free.push(idx);
            },
            "appears twice on the free list",
        );
        // Free-list entry past the slab.
        corrupted(
            |s| {
                s.free.push(9);
            },
            "free-list index 9 out of range",
        );
        // LRU chain broken: head's prev set, making the list inconsistent.
        corrupted(
            |s| {
                s.slab[s.head].prev = 1;
            },
            "has a predecessor",
        );
        // LRU chain cycle: most-recent node's next points back at the head.
        corrupted(
            |s| {
                let head = s.head;
                let mid = s.slab[head].next;
                s.slab[mid].next = head;
            },
            "prev pointer",
        );
        // Tail does not terminate the chain.
        corrupted(
            |s| {
                s.tail = s.head;
            },
            "but the list ends at",
        );
        // A mapped page never appears on the LRU walk.
        corrupted(
            |s| {
                let head = s.head;
                s.slab[head].next = NIL;
                s.tail = head;
            },
            "LRU list holds 1 nodes, map holds 3",
        );
        // Capacity overrun.
        corrupted(
            |s| {
                s.capacity = 2;
            },
            "3 resident pages exceed capacity 2",
        );
    }

    #[test]
    fn concurrent_access_is_safe_and_balanced() {
        let pool = BufferPool::new(64);
        std::thread::scope(|s| {
            for t in 0..8u32 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..1000u32 {
                        pool.access(PageKey {
                            segment: SegmentId(t % 4),
                            page: i % 100,
                        });
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.logical_reads, 8000);
        assert_eq!(s.physical_reads + s.hits(), 8000);
        assert!(pool.resident() <= 64);
    }
}
