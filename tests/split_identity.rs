//! The split path, byte for byte. A seeded stream at a small `B` drives
//! well over a hundred overflow splits, plus deletes, updates, merge passes,
//! direct merges and re-splits, into an in-memory WAL. The test then pins
//! three things: the FNV-1a of every WAL byte, each segment's sorted member
//! ids, and the partitioner's counters. A change to how a structural
//! operation reads, places or logs its members moves at least one of them.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::{Arc, Mutex};

use cind_model::{AttrId, Entity, EntityId, Value};
use cind_storage::{wal, SegmentId, UniversalTable};
use cinderella_core::{Cinderella, Config, Stats};

mod common;

/// FNV-1a of every WAL byte the stream below writes.
const WAL_FNV: u64 = 14_952_933_776_900_096_032;
/// FNV-1a over each segment id followed by its sorted member ids.
const LAYOUT_FNV: u64 = 17_235_151_612_430_733_135;

const ATTRS: u32 = 24;
const B: u64 = 12;
const STEPS: u64 = 2_400;

/// A `Write` sink whose bytes stay readable after the table takes it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("wal buffer").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64: the stream depends on nothing outside this file.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// One of four latent shapes (five attributes each, some left out) plus a
/// noise attribute, with values of every record tag so moved records vary
/// in length and content.
fn entity(rng: &mut Rng, id: u64) -> Entity {
    let base = rng.below(4) as u32 * 5;
    let mut attrs: BTreeSet<u32> = (base..base + 5).filter(|_| rng.below(4) != 0).collect();
    attrs.insert(20 + rng.below(u64::from(ATTRS - 20)) as u32);
    let values = attrs.into_iter().map(|a| {
        let v = match rng.below(4) {
            0 => Value::Bool(rng.below(2) == 1),
            1 => Value::Int(rng.below(1 << 40) as i64 - (1 << 39)),
            2 => Value::Float(rng.below(1_000_000) as f64 / 7.0),
            _ => Value::Text("x".repeat(rng.below(40) as usize)),
        };
        (AttrId(a), v)
    });
    Entity::new(EntityId(id), values).expect("ascending attributes")
}

#[test]
fn split_path_is_pinned_byte_for_byte() {
    let mut table = UniversalTable::new(64);
    for a in 0..ATTRS {
        table.catalog_mut().intern(&format!("a{a}"));
    }
    let log = SharedBuf::default();
    table.attach_wal(Box::new(log.clone()));
    let mut cindy = Cinderella::new(Config {
        weight: 0.5,
        capacity: B,
        ..Config::default()
    });

    let mut rng = Rng(0x5eed);
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    for step in 1..=STEPS {
        match rng.below(10) {
            0 if !live.is_empty() => {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                cindy.delete(&mut table, EntityId(id)).expect("delete");
            }
            1 if !live.is_empty() => {
                let id = live[rng.below(live.len() as u64) as usize];
                let e = entity(&mut rng, id);
                cindy.update(&mut table, e).expect("update");
            }
            _ => {
                let e = entity(&mut rng, next);
                cindy.insert(&mut table, e).expect("insert");
                live.push(next);
                next += 1;
            }
        }
        if step % 600 == 0 {
            cindy.merge_pass(&mut table, 0.5).expect("merge pass");
        }
    }

    // Thin the store out, then merge directly, smallest partition into the
    // next one with room, and re-split, as the reorganizer enacts them.
    for _ in 0..live.len() / 2 {
        let id = live.swap_remove(rng.below(live.len() as u64) as usize);
        cindy.delete(&mut table, EntityId(id)).expect("delete");
    }
    let mut merged = 0;
    for _ in 0..3 {
        let mut by_size: Vec<(u64, SegmentId)> = cindy
            .catalog()
            .iter()
            .map(|m| (m.entities, m.segment))
            .collect();
        by_size.sort_unstable();
        let from = by_size[0].1;
        for &(_, into) in &by_size[1..] {
            if cindy
                .merge_partitions(&mut table, from, into)
                .expect("merge")
                .is_some()
            {
                merged += 1;
                break;
            }
        }
    }
    let segs: Vec<SegmentId> = cindy.catalog().iter().map(|m| m.segment).collect();
    let mut resplit = 0;
    for seg in segs {
        if resplit < 5 && cindy.resplit(&mut table, seg).expect("resplit").is_some() {
            resplit += 1;
        }
    }
    assert_eq!((merged, resplit), (3, 5));
    common::assert_fully_valid(&cindy, &table);

    let stats = cindy.stats();
    assert!(stats.splits >= 100, "{stats:?}");
    assert_eq!(
        stats,
        Stats {
            inserts: 1924,
            deletes: 1086,
            updates: 228,
            update_moves: 224,
            partitions_created: 7,
            partitions_dropped: 8,
            splits: 512,
            split_moves: 6177,
            ratings_computed: 151_720,
            merges: 361,
            merge_moves: 798,
            reorg_resplits: 5,
        }
    );

    let layout: Vec<(SegmentId, Vec<u64>)> = table
        .segment_ids()
        .map(|seg| {
            let mut ids: Vec<u64> = table
                .scan_collect(seg)
                .expect("scan")
                .iter()
                .map(|e| e.id().0)
                .collect();
            ids.sort_unstable();
            (seg, ids)
        })
        .collect();
    let layout_bytes = layout.iter().flat_map(|(seg, ids)| {
        std::iter::once(u64::from(seg.0))
            .chain(ids.iter().copied())
            .flat_map(u64::to_le_bytes)
    });
    assert_eq!(fnv1a(layout_bytes), LAYOUT_FNV, "{layout:?}");

    let bytes = log.0.lock().expect("wal buffer").clone();
    assert_eq!(
        fnv1a(bytes.iter().copied()),
        WAL_FNV,
        "{} WAL bytes",
        bytes.len()
    );

    // The log alone rebuilds the same layout.
    let mut replayed = UniversalTable::new(64);
    wal::replay(&mut replayed, &mut &bytes[..]).expect("replay");
    for (seg, ids) in &layout {
        let mut got: Vec<u64> = replayed
            .scan_collect(*seg)
            .expect("scan")
            .iter()
            .map(|e| e.id().0)
            .collect();
        got.sort_unstable();
        assert_eq!(&got, ids, "{seg} after replay");
    }
    assert_eq!(replayed.segment_count(), layout.len());
}
