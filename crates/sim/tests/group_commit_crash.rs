//! Crash-consistency tests for the WAL group-commit coordinator, driven
//! through the simulator's fault-injection VFS.
//!
//! The coordinator introduces two crash surfaces the per-op WAL never
//! had:
//!
//! * **after the leader's append, before fsync returns** — several
//!   writers' transaction frames are on the (virtual) disk but *none* of
//!   them has been acknowledged; the armed crash fires on the `sync`
//!   mutation, which in [`SimVfs`] keeps the written bytes and merely
//!   reports the failure — exactly a power cut between `write` and
//!   `fsync` completion;
//! * **mid-group torn write** — the crash fires on the coalesced
//!   multi-transaction `write` itself, tearing the group buffer at an
//!   arbitrary byte (optionally followed by garbage).
//!
//! Both must preserve the contract the robustness suite pins down for
//! the per-op path: an acknowledged commit is always replayable, and an
//! unacknowledged one either vanishes cleanly or replays *whole* —
//! never a partial entity. The sweep below arms a crash at a range of
//! mutation countdowns while concurrent writers hammer one engine, so
//! over the sweep the crash lands on both `write` and `sync` mutations
//! of multi-writer groups; two deterministic single-writer tests then
//! target each surface exactly.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use cind_model::{EntityId, Value};
use cind_server::{Engine, EngineOptions, WireEntity};
use cind_sim::clock::VirtualClock;
use cind_sim::{FaultPlan, SimVfs};
use cind_storage::Vfs;
use cinderella_core::Config;

const STORE: &str = "/gc/store";

fn sim_vfs(seed: u64) -> Arc<SimVfs> {
    Arc::new(SimVfs::new(seed, FaultPlan::crash_only(), Arc::new(VirtualClock::new())))
}

fn opts(vfs: &Arc<SimVfs>, window: Duration) -> EngineOptions {
    EngineOptions {
        config: Config {
            weight: 0.3,
            capacity: 8,
            ..Config::default()
        },
        pool_pages: 64,
        group_commit_window: window,
        vfs: Arc::clone(vfs) as Arc<dyn Vfs>,
    }
}

fn entity(id: u64) -> WireEntity {
    // Two attributes per entity: replaying half an entity would be
    // visible as a missing attribute, so full-or-nothing is checkable.
    WireEntity {
        id,
        attrs: vec![
            (format!("a{}", id % 7), Value::Int(id as i64)),
            ("tag".to_string(), Value::Text(format!("e{id}"))),
        ],
    }
}

/// Asserts `id` is present with its *complete* attribute set.
fn assert_whole(engine: &Engine, id: u64) {
    engine.with_parts(|table, _| {
        let stored = table.get(EntityId(id)).unwrap_or_else(|e| {
            panic!("entity {id} unreadable after recovery: {e}");
        });
        assert_eq!(stored.attrs().len(), 2, "entity {id} replayed partially");
    });
}

/// Reopens the store after a crash and checks every invariant the
/// coordinator must preserve: acked entities present and whole, any
/// surviving unacked entity whole, structural validation clean.
fn check_recovery(vfs: &Arc<SimVfs>, acked: &BTreeSet<u64>, all_ids: &[u64]) {
    vfs.clear_crash();
    let engine = Engine::open(Path::new(STORE), opts(vfs, Duration::ZERO))
        .expect("recovery after group-commit crash");
    for &id in acked {
        assert_whole(&engine, id);
    }
    for &id in all_ids {
        let present = engine.with_parts(|table, _| table.get(EntityId(id)).is_ok());
        if present {
            assert_whole(&engine, id);
        } else {
            assert!(
                !acked.contains(&id),
                "acked entity {id} vanished across the crash"
            );
        }
    }
    let violations = engine.validate().expect("validation runs");
    assert!(violations.is_empty(), "post-crash store invalid: {violations:?}");
}

/// Multi-writer sweep: arm a crash `countdown` mutations into a phase
/// where 4 threads insert through one windowed coordinator. Across the
/// sweep the crash lands on coalesced-group `write`s and on group
/// `sync`s; every landing must satisfy [`check_recovery`].
#[test]
fn acked_commits_survive_crashes_across_the_group_commit_sweep() {
    for (round, countdown) in [2u64, 3, 5, 8, 13, 21, 34].into_iter().enumerate() {
        let vfs = sim_vfs(0xC0FFEE ^ round as u64);
        let engine = Arc::new(
            Engine::open(Path::new(STORE), opts(&vfs, Duration::from_micros(1500)))
                .expect("fresh store opens"),
        );
        let acked = Arc::new(Mutex::new(BTreeSet::new()));
        vfs.arm_crash(countdown);

        let all_ids: Vec<u64> = (0..100).collect();
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let engine = Arc::clone(&engine);
                let acked = Arc::clone(&acked);
                s.spawn(move || {
                    for i in 0..25u64 {
                        let id = w * 25 + i;
                        if engine.insert(&entity(id)).is_ok() {
                            acked.lock().unwrap().insert(id);
                        }
                    }
                });
            }
        });

        assert!(
            vfs.crashed(),
            "countdown {countdown} never fired — sweep lost its crash coverage"
        );
        drop(engine);
        let acked = Arc::try_unwrap(acked)
            .map(Mutex::into_inner)
            .expect("writers joined")
            .expect("acked set unpoisoned");
        check_recovery(&vfs, &acked, &all_ids);
    }
}

/// Deterministic single-writer hit on the group `write` mutation: the
/// append itself tears. The insert must fail, and recovery must come
/// back clean with the torn transaction dropped (or, if the tear spared
/// the full frame, replayed whole).
#[test]
fn torn_group_write_recovers_clean()  {
    let vfs = sim_vfs(7);
    let engine = Engine::open(Path::new(STORE), opts(&vfs, Duration::ZERO))
        .expect("fresh store opens");
    let mut acked = BTreeSet::new();
    if engine.insert(&entity(1)).is_ok() {
        acked.insert(1);
    }
    // Window 0, single writer: each insert is exactly one WAL `write`
    // then one `sync`. Countdown 0 = the very next mutation, the append.
    vfs.arm_crash(0);
    assert!(engine.insert(&entity(2)).is_err(), "torn append must not ack");
    assert!(vfs.crashed());
    drop(engine);
    check_recovery(&vfs, &acked, &[1, 2]);
}

/// Deterministic single-writer hit on the group `sync` mutation: bytes
/// written, fsync reports failure — the "after leader append, before
/// fsync returns to followers" point. The insert must not ack even
/// though its bytes reached the virtual disk; on recovery the entity may
/// legitimately replay (whole) or vanish.
#[test]
fn crash_between_group_append_and_fsync_never_acks() {
    let vfs = sim_vfs(11);
    let engine = Engine::open(Path::new(STORE), opts(&vfs, Duration::ZERO))
        .expect("fresh store opens");
    let mut acked = BTreeSet::new();
    if engine.insert(&entity(1)).is_ok() {
        acked.insert(1);
    }
    // Countdown 1 skips the append and lands on its fsync.
    vfs.arm_crash(1);
    assert!(
        engine.insert(&entity(2)).is_err(),
        "commit whose fsync crashed must not ack"
    );
    assert!(vfs.crashed());
    drop(engine);
    check_recovery(&vfs, &acked, &[1, 2]);
}

/// Sanity for the sweep's premise: with a window and concurrent writers,
/// the coordinator really does coalesce (fewer fsyncs than commits), and
/// a crash-free windowed run loses nothing.
#[test]
fn windowed_commits_coalesce_and_lose_nothing_without_a_crash() {
    let vfs = sim_vfs(23);
    let engine = Arc::new(
        Engine::open(Path::new(STORE), opts(&vfs, Duration::from_millis(2)))
            .expect("fresh store opens"),
    );
    std::thread::scope(|s| {
        for w in 0..4u64 {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                for i in 0..50u64 {
                    engine.insert(&entity(w * 50 + i)).expect("crash-free insert");
                }
            });
        }
    });
    let io = engine.io_counters();
    // 200 inserts plus the epoch mark written at open.
    assert!(io.wal_ops >= 200, "commits bypassed the coordinator: {}", io.wal_ops);
    assert!(
        io.wal_syncs < io.wal_ops,
        "no coalescing happened: {} syncs for {} ops",
        io.wal_syncs,
        io.wal_ops
    );
    drop(engine);
    let reopened = Engine::open(Path::new(STORE), opts(&vfs, Duration::ZERO))
        .expect("clean reopen");
    reopened.with_parts(|table, _| assert_eq!(table.entity_count(), 200));
    let violations = reopened.validate().expect("validation runs");
    assert!(violations.is_empty(), "{violations:?}");
}
