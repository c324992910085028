//! Exhaustive WAL torn-tail recovery: a multi-entry log truncated at
//! *every* byte offset — or zeroed from every byte offset to the end of
//! its preallocated image — must recover to exactly the prefix of
//! committed entries, and the recovered store must pass the full
//! structural validation (the same invariant sweep `cind check` runs).
//!
//! The log is built in the simulator's in-memory VFS so each of the
//! hundreds of truncation points gets a pristine copy of the original
//! snapshot + log bytes without touching the real filesystem.

use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;

use cind_model::{EntityId, Value};
use cind_server::engine::{Engine, EngineOptions, SNAPSHOT_FILE, WAL_FILE};
use cind_server::WireEntity;
use cind_sim::clock::VirtualClock;
use cind_sim::{FaultPlan, SimVfs};
use cind_storage::Vfs;
use cinderella_core::Config;

const STORE: &str = "/torn/store";
const ENTITIES: u64 = 10;

fn options(vfs: Arc<SimVfs>) -> EngineOptions {
    EngineOptions {
        config: Config {
            weight: 0.3,
            // Small partitions so the replayed entities actually exercise
            // splits, not one flat segment.
            capacity: 4,
            ..Config::default()
        },
        pool_pages: 64,
        // Per-op commits: the truncation sweep below reasons about the
        // exact bytes each acknowledged insert appended.
        group_commit_window: std::time::Duration::ZERO,
        vfs,
    }
}

fn fresh_vfs() -> Arc<SimVfs> {
    Arc::new(SimVfs::new(0, FaultPlan::none(), Arc::new(VirtualClock::new())))
}

fn write_file(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) {
    if let Some(parent) = path.parent() {
        vfs.create_dir_all(parent).expect("mkdir");
    }
    let mut f = vfs.create(path).expect("create");
    f.write_all(bytes).expect("write");
    f.sync().expect("sync");
}

fn entity(id: u64) -> WireEntity {
    // Varied arity and attribute sets so entities land in different
    // partitions and every WAL group has a different byte length.
    let mut attrs = vec![("kind".to_owned(), Value::Int(id as i64 % 3))];
    for a in 0..(id % 4) {
        attrs.push((format!("g{}_a{a}", id % 2), Value::Int(-(id as i64) * 7 + a as i64)));
    }
    if id.is_multiple_of(3) {
        attrs.push(("label".to_owned(), Value::Text(format!("e{id}"))));
    }
    WireEntity { id, attrs }
}

#[test]
fn every_truncation_offset_recovers_a_committed_prefix() {
    // Build the original store: open (checkpoints an empty snapshot and
    // stamps the log's epoch frame), then append one commit group per
    // entity, recording the log length after each.
    let vfs = fresh_vfs();
    let dir = Path::new(STORE);
    let engine = Engine::open(dir, options(vfs.clone())).expect("open");
    let wal_path = dir.join(WAL_FILE);
    let snap_path = dir.join(SNAPSHOT_FILE);

    let mut len_after = Vec::new();
    for id in 0..ENTITIES {
        engine.insert(&entity(id)).expect("insert");
        len_after.push(vfs.log_end(&wal_path).expect("wal is a log"));
    }
    let wal = vfs.file_bytes(&wal_path).expect("wal bytes");
    let snap = vfs.file_bytes(&snap_path).expect("snapshot bytes");
    let log_end = *len_after.last().expect("non-empty");
    // The log file is preallocated: zeros from the log end to the image end.
    assert!(wal.len() > log_end && wal[log_end..].iter().all(|&b| b == 0));

    // Each cut both ways: the file ends at the cut (a log that was never
    // grown past it), or keeps its zeroed length (a crash lost the bytes
    // of an in-place write from the cut on).
    let images = (0..=log_end).flat_map(|cut| {
        let mut padded = wal[..cut].to_vec();
        padded.resize(wal.len(), 0);
        [(cut, wal[..cut].to_vec()), (cut, padded)]
    });
    for (cut, image) in images {
        let cut_desc = format!("cut {cut} of a {}-byte image", image.len());
        let copy = fresh_vfs();
        write_file(&*copy, &snap_path, &snap);
        write_file(&*copy, &wal_path, &image);

        let reopened = Engine::open(dir, options(copy.clone()))
            .unwrap_or_else(|e| panic!("{cut_desc}: recovery failed: {e}"));

        // Exactly the entities whose commit group is fully inside the
        // retained prefix survive — never a later one, never a hole.
        let expect = len_after.iter().filter(|&&l| l <= cut).count() as u64;
        assert_eq!(
            reopened.stats().entities, expect,
            "{cut_desc}: wrong survivor count"
        );
        reopened.with_parts(|table, _| {
            for id in 0..ENTITIES {
                let present = table.get(EntityId(id)).is_ok();
                assert_eq!(
                    present,
                    id < expect,
                    "{cut_desc}: entity {id} presence (expected first {expect})"
                );
            }
        });

        // The recovered store passes the full structural validation —
        // what `cind check` runs after restoring a snapshot.
        let violations = reopened.validate().expect("validate runs");
        assert!(violations.is_empty(), "{cut_desc}: {violations:?}");
    }
}
