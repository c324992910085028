//! Concurrency stress tests for the buffer pool and the
//! `ReadView` scan path: many threads hammer overlapping segments while
//! the test checks that the lock-free counters balance exactly and the
//! pool's resident set never exceeds capacity.

use std::sync::atomic::{AtomicU64, Ordering};

use cind_model::{AttrId, Entity, EntityId, Value};
use cind_storage::buffer::PageKey;
use cind_storage::{BufferPool, SegmentId, UniversalTable};

/// Drives `threads` workers over `keys_per_thread` accesses each, with all
/// workers sharing the same small set of segments (maximum overlap), then
/// checks the counter identities over this call's delta.
fn hammer_pool(pool: &BufferPool, threads: u32, keys_per_thread: u32) {
    let before = pool.stats();
    let hits = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..threads {
            let pool = &pool;
            let hits = &hits;
            s.spawn(move || {
                let mut local_hits = 0u64;
                for i in 0..keys_per_thread {
                    // Overlapping working sets: every thread touches the
                    // same 4 segments; page ids interleave thread-locally
                    // and globally so both hits and misses occur.
                    let key = PageKey {
                        segment: SegmentId(i % 4),
                        page: (i * 7 + t) % 97,
                    };
                    if pool.access(key) {
                        local_hits += 1;
                    }
                }
                hits.fetch_add(local_hits, Ordering::Relaxed);
            });
        }
    });

    let s = pool.stats().since(&before);
    let expected_logical = u64::from(threads) * u64::from(keys_per_thread);
    assert_eq!(s.logical_reads, expected_logical, "every access counted once");
    assert_eq!(
        s.physical_reads + hits.load(Ordering::Relaxed),
        s.logical_reads,
        "hit/miss classification balances: every logical read is one or the other"
    );
    assert_eq!(
        s.hits(),
        hits.load(Ordering::Relaxed),
        "pool-side hit count equals the sum of per-thread observations"
    );
}

#[test]
fn pool_survives_overlapping_writers() {
    let pool = BufferPool::new(64);
    hammer_pool(&pool, 8, 2_000);
    assert!(pool.resident() <= 64, "capacity bound holds under contention");
}

#[test]
fn tiny_pool_thrashes_without_losing_counts() {
    // Capacity far below the working set: almost every access evicts.
    let pool = BufferPool::new(4);
    hammer_pool(&pool, 8, 1_000);
    assert!(pool.resident() <= 4);
    let s = pool.stats();
    assert!(s.evictions > 0, "a thrashing pool must evict");
}

#[test]
fn invalidation_races_with_readers() {
    // Readers hammer two segments while another thread repeatedly
    // invalidates one of them; counters must still balance and the
    // invalidated segment's pages must be gone at the end.
    let pool = BufferPool::new(128);
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let pool = &pool;
            s.spawn(move || {
                for i in 0..2_000u32 {
                    pool.access(PageKey {
                        segment: SegmentId(t % 2),
                        page: i % 50,
                    });
                }
            });
        }
        let pool = &pool;
        s.spawn(move || {
            for _ in 0..100 {
                pool.invalidate_segment(SegmentId(0));
                std::thread::yield_now();
            }
        });
    });
    pool.invalidate_segment(SegmentId(0));
    let s = pool.stats();
    assert_eq!(s.logical_reads, 8_000);
    assert_eq!(s.physical_reads + s.hits(), s.logical_reads);
    // Only segment-1 pages may remain.
    assert!(pool.resident() <= 50);
}

/// Builds a table with `segments` segments × `per_segment` entities.
fn build_table(segments: u32, per_segment: u64) -> (UniversalTable, Vec<SegmentId>) {
    let mut table = UniversalTable::new(256);
    for i in 0..8 {
        table.catalog_mut().intern(&format!("a{i}"));
    }
    let segs: Vec<SegmentId> = (0..segments).map(|_| table.create_segment()).collect();
    let mut id = 0u64;
    for &seg in &segs {
        for _ in 0..per_segment {
            let e = Entity::new(
                EntityId(id),
                [
                    (AttrId((id % 8) as u32), Value::Int(id as i64)),
                    (AttrId(((id + 3) % 8) as u32), Value::Bool(true)),
                ],
            )
            .unwrap();
            table.insert(seg, &e).unwrap();
            id += 1;
        }
    }
    (table, segs)
}

#[test]
fn concurrent_read_views_agree_with_sequential_scan() {
    let (table, segs) = build_table(8, 100);
    let view = table.read_view();

    // Sequential reference counts.
    let mut expected = vec![0u64; segs.len()];
    for (i, &seg) in segs.iter().enumerate() {
        table.scan(seg, |_| expected[i] += 1).unwrap();
    }

    // 8 threads each scan every segment through the shared view.
    let counted: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let segs = &segs;
                s.spawn(move || {
                    let mut counts = vec![0u64; segs.len()];
                    for (i, &seg) in segs.iter().enumerate() {
                        view.scan(seg, |_| counts[i] += 1).unwrap();
                    }
                    counts
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for counts in counted {
        assert_eq!(counts, expected, "every reader sees every entity");
    }

    // 9 full passes (1 sequential + 8 threaded) over all pages: the
    // counters must account for all of them.
    let s = table.io_stats();
    assert_eq!(s.physical_reads + s.hits(), s.logical_reads);
}

/// The live table plus what the writer's ops so far should have left in
/// it, behind the lock discipline the server's engine uses: the writer
/// holds the write lock per op, a reader the read lock only to `freeze()`.
struct Churned {
    table: UniversalTable,
    /// Writer ops applied — which prefix of the op stream a freeze sees.
    applied: usize,
    /// Ids the model says are stored after that prefix.
    live: Vec<u64>,
}

/// What a snapshot holds, segment by segment: sorted entity ids.
fn contents(snap: &cind_storage::TableSnapshot) -> Vec<(SegmentId, Vec<u64>)> {
    let view = snap.view();
    view.segment_ids()
        .map(|seg| {
            let mut ids = Vec::new();
            view.scan(seg, |e| ids.push(e.id().0)).unwrap();
            ids.sort_unstable();
            (seg, ids)
        })
        .collect()
}

/// One writer inserts, deletes, moves, interns never-seen attributes and
/// creates and drops segments while `readers` threads loop freeze → scan
/// everything → wait for the writer to move on → scan everything again.
/// Each snapshot must answer the same both times — with writes in between,
/// which the wait forces — and hold exactly the ids the model had after the
/// prefix of ops it was frozen at.
fn readers_against_a_live_writer(readers: usize, ops: usize) {
    use std::sync::atomic::{AtomicBool, AtomicUsize};
    use std::sync::{Barrier, RwLock};

    let (table, mut segs) = build_table(6, 40);
    let live: Vec<u64> = (0..240).collect();
    let shared = RwLock::new(Churned { table, applied: 0, live });
    let progress = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    // Every reader holds a scanned-once snapshot of the preload before the
    // first write, so at least one snapshot per reader spans real churn.
    let start = Barrier::new(readers + 1);

    let snapshots: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                s.spawn(|| {
                    let mut taken = 0usize;
                    loop {
                        let (snap, prefix, mut want) = {
                            let g = shared.read().unwrap();
                            (g.table.freeze(), g.applied, g.live.clone())
                        };
                        want.sort_unstable();
                        let first = contents(&snap);
                        if taken == 0 {
                            start.wait();
                        }
                        while progress.load(Ordering::Acquire) <= prefix
                            && !done.load(Ordering::Acquire)
                        {
                            std::thread::yield_now();
                        }
                        let second = contents(&snap);
                        assert_eq!(first, second, "frozen at op {prefix}: answers moved");
                        let mut have: Vec<u64> =
                            first.into_iter().flat_map(|(_, ids)| ids).collect();
                        have.sort_unstable();
                        assert_eq!(have, want, "frozen at op {prefix}: not that prefix");
                        assert_eq!(snap.entity_count(), want.len());
                        taken += 1;
                        if prefix == ops {
                            return taken;
                        }
                    }
                })
            })
            .collect();

        start.wait();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next_id = 240u64;
        for step in 1..=ops {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pick = (x >> 16) as usize;
            let mut g = shared.write().unwrap();
            let g = &mut *g;
            match x % 16 {
                0 => segs.push(g.table.create_segment()),
                1 if segs.len() > 2 => {
                    // Empty a segment into its neighbour, then drop it.
                    let seg = segs.swap_remove(pick % segs.len());
                    let to = segs[pick % segs.len()];
                    for e in g.table.scan_collect(seg).unwrap() {
                        g.table.move_entity(e.id(), to).unwrap();
                    }
                    g.table.drop_segment(seg).unwrap();
                }
                2..=5 if !g.live.is_empty() => {
                    let id = g.live.swap_remove(pick % g.live.len());
                    g.table.delete(EntityId(id)).unwrap();
                }
                6 if !g.live.is_empty() => {
                    let id = g.live[pick % g.live.len()];
                    g.table.move_entity(EntityId(id), segs[(pick >> 8) % segs.len()]).unwrap();
                }
                n => {
                    let attr = if n == 7 {
                        g.table.catalog_mut().intern(&format!("late{step}"))
                    } else {
                        AttrId((next_id % 8) as u32)
                    };
                    let e = Entity::new(EntityId(next_id), [(attr, Value::Int(step as i64))]);
                    g.table.insert(segs[pick % segs.len()], &e.unwrap()).unwrap();
                    g.live.push(next_id);
                    next_id += 1;
                }
            }
            g.applied = step;
            progress.store(step, Ordering::Release);
        }
        done.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    // Each reader: the preload snapshot, and one frozen at the last op.
    assert!(snapshots >= 2 * readers, "{snapshots} snapshots");
    let g = shared.read().unwrap();
    assert_eq!(g.table.entity_count(), g.live.len());
}

#[test]
fn snapshot_readers_never_see_a_live_writer() {
    readers_against_a_live_writer(2, 1_500);
}

/// Long-running variant for soak testing: `cargo test -- --ignored`.
#[test]
#[ignore = "long-running stress variant; run explicitly with --ignored"]
fn snapshot_readers_never_see_a_live_writer_soak() {
    readers_against_a_live_writer(4, 150_000);
}

/// Long-running variant for soak testing: `cargo test -- --ignored`.
#[test]
#[ignore = "long-running stress variant; run explicitly with --ignored"]
fn pool_soak() {
    let pool = BufferPool::new(256);
    for round in 0..20 {
        hammer_pool(&pool, 16, 50_000);
        assert!(pool.resident() <= 256, "round {round}");
    }
    let (table, segs) = build_table(16, 500);
    let view = table.read_view();
    std::thread::scope(|s| {
        for _ in 0..16 {
            let segs = &segs;
            s.spawn(move || {
                for _ in 0..50 {
                    let mut n = 0u64;
                    for &seg in segs {
                        view.scan(seg, |_| n += 1).unwrap();
                    }
                    assert_eq!(n, 16 * 500);
                }
            });
        }
    });
    let s = table.io_stats();
    assert_eq!(s.physical_reads + s.hits(), s.logical_reads);
}
