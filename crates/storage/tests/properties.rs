//! Property tests on storage internals: the buffer pool against a
//! reference LRU, pages under random operation sequences, snapshot
//! corruption resistance, the record cursor against the full decoder on
//! arbitrary bytes, the signature column's no-false-negative law, and
//! moves that carry a record's bytes verbatim through the table and its WAL.

use cind_bitset as _; // silence unused-dep lint paths in some cargo setups
use cind_model::{AttrId, Entity, EntityId, Value};
use cind_storage::buffer::PageKey;
use cind_storage::record::RecordView;
use cind_storage::{
    decode_entity, encode_entity, signature_bit, varint, BufferPool, Page, SegmentId,
    StorageError, UniversalTable,
};
use proptest::prelude::*;
use std::collections::VecDeque;

/// Reference LRU with the same admission/eviction semantics.
struct RefLru {
    capacity: usize,
    /// Most recent first.
    order: VecDeque<PageKey>,
}

impl RefLru {
    fn new(capacity: usize) -> Self {
        Self { capacity, order: VecDeque::new() }
    }

    /// Returns hit?
    fn access(&mut self, key: PageKey) -> bool {
        if let Some(pos) = self.order.iter().position(|k| *k == key) {
            self.order.remove(pos);
            self.order.push_front(key);
            true
        } else {
            if self.capacity == 0 {
                return false;
            }
            if self.order.len() >= self.capacity {
                self.order.pop_back();
            }
            self.order.push_front(key);
            false
        }
    }
}

/// Walks `bytes` with the cursor, materialising only the attributes whose
/// turn `keep` says yes to: the ids seen, the values asked for, and where
/// and why the walk stopped early, if it did.
type Walk = (Vec<AttrId>, Vec<(usize, Value)>, Option<StorageError>);

fn walk(bytes: &[u8], keep: impl Fn(usize) -> bool, finish: bool) -> Walk {
    let (mut ids, mut values) = (Vec::new(), Vec::new());
    let mut run = || {
        let mut view = RecordView::new(bytes)?;
        while let Some((attr, raw)) = view.next_attr()? {
            if keep(ids.len()) {
                values.push((ids.len(), raw.to_value()?));
            }
            ids.push(attr);
        }
        if finish {
            view.finish()?;
        }
        Ok(())
    };
    let stopped = run().err();
    (ids, values, stopped)
}

/// `Value` equality that also holds for a NaN an overwrite produced.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
        _ => a == b,
    }
}

fn arbitrary_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1.0e9f64..1.0e9).prop_map(Value::Float),
        "[a-zé日]{0,9}".prop_map(Value::Text),
        "[a-z]{125,135}".prop_map(Value::Text),
    ]
}

/// Encodes attributes in the order given — unlike `encode_entity`, which
/// can only produce ascending, duplicate-free records.
fn encode_unchecked(id: u64, attrs: &[(u32, Value)]) -> Vec<u8> {
    let mut out = Vec::new();
    varint::encode(id, &mut out);
    varint::encode(attrs.len() as u64, &mut out);
    for (attr, value) in attrs {
        let one = Entity::new(EntityId(0), [(AttrId(*attr), value.clone())]).expect("one attr");
        // Skip the single-attribute record's two header bytes.
        out.extend_from_slice(&encode_entity(&one)[2..]);
    }
    out
}

/// Bytes that get deep into the format: a record whose attributes may be
/// out of order or repeated, with up to three bytes overwritten, then cut
/// or extended — or pure noise.
fn record_like_bytes() -> impl Strategy<Value = Vec<u8>> {
    let mutated = (
        any::<u64>(),
        prop::collection::vec(
            (prop_oneof![0u32..20, 100u32..160, 16_000u32..17_000], arbitrary_value()),
            0..8,
        ),
        any::<bool>(),
        prop::collection::vec((any::<prop::sample::Index>(), any::<u8>()), 0..4),
        (
            prop::option::of(any::<prop::sample::Index>()),
            prop::collection::vec(any::<u8>(), 0..3),
        ),
    )
        .prop_map(|(id, mut attrs, sort, overwrites, (cut, tail))| {
            if sort {
                attrs.sort_by_key(|(a, _)| *a);
                attrs.dedup_by_key(|(a, _)| *a);
            }
            let mut bytes = encode_unchecked(id, &attrs);
            for (at, byte) in overwrites {
                let at = at.index(bytes.len());
                bytes[at] = byte;
            }
            if let Some(cut) = cut {
                bytes.truncate(cut.index(bytes.len() + 1));
            }
            bytes.extend(tail);
            bytes
        });
    prop_oneof![4 => mutated, 1 => prop::collection::vec(any::<u8>(), 0..40)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// On arbitrary bytes the cursor never panics and never disagrees with
    /// the (independently written) full decoder: materialising everything
    /// and finishing, it accepts exactly what `decode_entity` accepts, with
    /// the same content; skipping values and stopping early, whatever it
    /// yields is a prefix of that content, and it may only be more lenient
    /// about what it did not look at.
    #[test]
    fn record_view_agrees_with_decode_entity_on_arbitrary_bytes(
        bytes in record_like_bytes(),
        keep_mask in any::<u16>(),
    ) {
        let decoded = decode_entity(&bytes);

        let (ids, values, stopped) = walk(&bytes, |_| true, true);
        match (&decoded, &stopped) {
            (Ok(entity), None) => {
                prop_assert_eq!(RecordView::new(&bytes).unwrap().id(), entity.id());
                prop_assert_eq!(RecordView::new(&bytes).unwrap().arity(), entity.arity());
                prop_assert_eq!(values.len(), entity.arity());
                for ((attr, (_, value)), want) in ids.iter().zip(&values).zip(entity.attrs()) {
                    prop_assert!(*attr == want.0 && same(value, &want.1), "{attr} {value:?}");
                }
            }
            (Err(StorageError::CorruptRecord(_)), Some(StorageError::CorruptRecord(_))) => {}
            (d, s) => prop_assert!(false, "decode_entity {d:?} but full walk stopped with {s:?}"),
        }

        let keep = |i: usize| keep_mask >> (i % 16) & 1 == 1;
        let (ids, values, stopped) = walk(&bytes, keep, false);
        match (&decoded, &stopped) {
            (Ok(entity), stopped) => {
                prop_assert!(stopped.is_none(), "walk refused a valid record: {stopped:?}");
                prop_assert_eq!(ids.len(), entity.arity());
                for (i, attr) in ids.iter().enumerate() {
                    prop_assert_eq!(*attr, entity.attrs()[i].0);
                }
                for (i, value) in &values {
                    prop_assert!(same(value, &entity.attrs()[*i].1), "{value:?} at {i}");
                }
            }
            (Err(_), Some(StorageError::CorruptRecord(_)) | None) => {}
            (d, s) => prop_assert!(false, "decode_entity {d:?} but skip walk stopped with {s:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Signatures never hide a record: whatever bytes a page is given, a
    /// mask naming any attribute a walk of the record would reach — even a
    /// walk that then fails — keeps the record a candidate, and bytes that
    /// do not walk as a record stay candidates of every mask, so the scan
    /// that meets them still fails on them. The column follows the slots
    /// through deletion, reuse and compaction, and the validator agrees
    /// throughout.
    #[test]
    fn signatures_never_hide_a_record(
        records in prop::collection::vec(record_like_bytes(), 1..40),
        deletes in prop::collection::vec(any::<prop::sample::Index>(), 0..20),
        probe in prop_oneof![0u32..20, 100u32..160, 16_000u32..17_000],
    ) {
        let mut page = Page::new();
        let mut live: Vec<(cind_storage::SlotId, Vec<u8>)> = Vec::new();
        let mut deletes = deletes.into_iter();
        for (i, bytes) in records.into_iter().enumerate() {
            if bytes.is_empty() {
                continue;
            }
            if let Some(slot) = page.insert(&bytes) {
                live.push((slot, bytes));
            }
            if i % 3 == 2 {
                if let Some(pick) = deletes.next() {
                    let (slot, _) = live.swap_remove(pick.index(live.len()));
                    prop_assert!(page.delete(slot));
                }
            }
        }
        prop_assert_eq!(page.validate_signatures(), Vec::<String>::new());
        let candidates_of = |mask| -> Vec<cind_storage::SlotId> {
            page.candidates(mask).map(|(slot, ..)| slot).collect()
        };
        for (slot, bytes) in &live {
            let (ids, _, stopped) = walk(bytes, |_| false, true);
            for id in ids {
                let hit = candidates_of(signature_bit(id));
                prop_assert!(hit.contains(slot), "{slot}: attribute {id} hidden");
            }
            if stopped.is_some() {
                let hit = candidates_of(signature_bit(AttrId(probe)));
                prop_assert!(hit.contains(slot), "{slot}: unwalkable bytes skipped");
            }
        }
        let full: Vec<_> = candidates_of(cind_storage::Signature::MAX);
        let mut want: Vec<_> = live.iter().map(|(slot, _)| *slot).collect();
        want.sort_unstable();
        prop_assert_eq!(full, want);
    }
}

/// A `Write` sink whose bytes stay readable after the table takes it.
#[derive(Clone, Default)]
struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("wal buffer").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[derive(Clone, Debug)]
enum TableOp {
    Insert(Vec<(u32, Value)>, usize),
    Move(prop::sample::Index, usize),
    Delete(prop::sample::Index),
}

fn table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        3 => (prop::collection::vec((0u32..12, arbitrary_value()), 0..6), 0usize..4)
            .prop_map(|(attrs, seg)| TableOp::Insert(attrs, seg)),
        3 => (any::<prop::sample::Index>(), 0usize..4).prop_map(|(pick, seg)| TableOp::Move(pick, seg)),
        1 => any::<prop::sample::Index>().prop_map(TableOp::Delete),
    ]
}

/// Every live record's stored bytes, by entity id, read off the pages.
fn stored_bytes(table: &UniversalTable) -> std::collections::BTreeMap<u64, (SegmentId, Vec<u8>)> {
    let mut out = std::collections::BTreeMap::new();
    let view = table.read_view();
    for seg in view.segment_ids() {
        let mut io = cind_storage::IoStats::default();
        view.scan_records(
            seg,
            cind_storage::Signature::MAX,
            |bytes, _| {
                let id = cind_storage::record::decode_entity_id(bytes)?.0;
                assert!(out.insert(id, (seg, bytes.to_vec())).is_none(), "entity {id} stored twice");
                Ok(())
            },
            &mut io,
        )
        .expect("scan");
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `move_entity` moves a record as its bytes: across random
    /// interleavings of insert, move and delete every live record keeps the
    /// exact bytes it was inserted with, sits where the locator says, and
    /// carries the signature its bytes give; and the WAL the moves wrote,
    /// replayed onto an empty table, gives back every entity unchanged.
    #[test]
    fn moves_keep_record_bytes_verbatim(ops in prop::collection::vec(table_op(), 1..80)) {
        let mut table = UniversalTable::new(8);
        for a in 0..12 {
            table.catalog_mut().intern(&format!("a{a}"));
        }
        let log = SharedBuf::default();
        table.attach_wal(Box::new(log.clone()));
        let segs: Vec<SegmentId> = (0..4).map(|_| table.create_segment()).collect();
        // id → (segment, bytes as first encoded)
        let mut model: std::collections::BTreeMap<u64, (SegmentId, Vec<u8>)> =
            std::collections::BTreeMap::new();
        let mut next = 0u64;
        for op in ops {
            match op {
                TableOp::Insert(mut attrs, seg) => {
                    attrs.sort_by_key(|(a, _)| *a);
                    attrs.dedup_by_key(|(a, _)| *a);
                    let e = Entity::new(EntityId(next), attrs.into_iter().map(|(a, v)| (AttrId(a), v)))
                        .expect("sorted, deduplicated");
                    table.insert(segs[seg], &e).expect("insert");
                    model.insert(next, (segs[seg], encode_entity(&e)));
                    next += 1;
                }
                TableOp::Move(pick, seg) if !model.is_empty() => {
                    let id = *model.keys().nth(pick.index(model.len())).expect("picked");
                    table.move_entity(EntityId(id), segs[seg]).expect("move");
                    model.get_mut(&id).expect("live").0 = segs[seg];
                }
                TableOp::Delete(pick) if !model.is_empty() => {
                    let id = *model.keys().nth(pick.index(model.len())).expect("picked");
                    let (_, bytes) = model.remove(&id).expect("live");
                    let e = table.delete(EntityId(id)).expect("delete");
                    prop_assert_eq!(encode_entity(&e), bytes);
                }
                TableOp::Move(..) | TableOp::Delete(_) => {}
            }
        }
        prop_assert_eq!(&stored_bytes(&table), &model);
        prop_assert_eq!(table.validate_signatures(), Vec::<String>::new());
        for (id, (seg, _)) in &model {
            prop_assert_eq!(table.location(EntityId(*id)), Some(*seg));
        }

        let bytes = log.0.lock().expect("wal buffer").clone();
        let mut replayed = UniversalTable::new(8);
        cind_storage::replay(&mut replayed, &mut &bytes[..]).expect("replay");
        for id in 0..next {
            prop_assert_eq!(replayed.get(EntityId(id)).ok(), table.get(EntityId(id)).ok());
        }
        prop_assert_eq!(&stored_bytes(&replayed), &model);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slab-based intrusive LRU agrees with a naive reference on every
    /// access of a random trace.
    #[test]
    fn buffer_pool_matches_reference_lru(
        capacity in 0usize..8,
        trace in prop::collection::vec((0u32..4, 0u32..12), 0..200),
    ) {
        let pool = BufferPool::new(capacity);
        let mut reference = RefLru::new(capacity);
        let mut hits = 0u64;
        let mut misses = 0u64;
        for (seg, page) in trace {
            let key = PageKey { segment: SegmentId(seg), page };
            let expect = reference.access(key);
            let got = pool.access(key);
            prop_assert_eq!(got, expect, "divergence at {:?}", key);
            if expect { hits += 1 } else { misses += 1 }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.logical_reads, hits + misses);
        prop_assert_eq!(stats.physical_reads, misses);
        prop_assert!(pool.resident() <= capacity);
    }

    /// Pages never lose or corrupt live records under arbitrary
    /// insert/delete sequences (with compaction happening implicitly).
    #[test]
    fn page_survives_random_insert_delete(
        ops in prop::collection::vec((any::<bool>(), 1usize..400, 0u16..64), 1..120),
    ) {
        let mut page = Page::new();
        let mut model: std::collections::HashMap<u16, Vec<u8>> =
            std::collections::HashMap::new();
        let mut stamp = 0u8;
        for (is_insert, len, pick) in ops {
            if is_insert {
                stamp = stamp.wrapping_add(1);
                let rec = vec![stamp; len];
                if let Some(slot) = page.insert(&rec) {
                    model.insert(slot.0, rec);
                }
            } else if !model.is_empty() {
                let keys: Vec<u16> = model.keys().copied().collect();
                let slot = keys[pick as usize % keys.len()];
                prop_assert!(page.delete(cind_storage::SlotId(slot)));
                model.remove(&slot);
            }
            prop_assert_eq!(page.live_count(), model.len());
        }
        for (slot, rec) in &model {
            prop_assert_eq!(
                page.get(cind_storage::SlotId(*slot)).expect("live"),
                &rec[..]
            );
        }
    }

    /// A snapshot with any single byte flipped never restores successfully
    /// — and never panics.
    #[test]
    fn snapshot_detects_any_single_byte_flip(flip_pos in any::<prop::sample::Index>()) {
        let mut table = UniversalTable::new(8);
        let a = table.catalog_mut().intern("x");
        let seg = table.create_segment();
        for i in 0..10u64 {
            let e = Entity::new(EntityId(i), [(a, Value::Int(i as i64))]).unwrap();
            table.insert(seg, &e).unwrap();
        }
        let mut buf = Vec::new();
        table.snapshot(&mut buf).unwrap();
        let pos = flip_pos.index(buf.len());
        buf[pos] ^= 0x5A;
        prop_assert!(
            UniversalTable::restore(&mut &buf[..], 8).is_err(),
            "flip at {pos} of {} went undetected",
            buf.len()
        );
    }

    /// Attribute ids survive catalog interning order (sanity for AttrId
    /// stability assumptions used across crates).
    #[test]
    fn catalog_ids_are_stable_and_dense(names in prop::collection::btree_set("[a-z]{1,8}", 1..30)) {
        let mut table = UniversalTable::new(4);
        let names: Vec<String> = names.into_iter().collect();
        let ids: Vec<AttrId> = names
            .iter()
            .map(|n| table.catalog_mut().intern(n))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            prop_assert_eq!(id.0 as usize, i);
            prop_assert_eq!(table.catalog().lookup(&names[i]), Some(*id));
            // Re-interning never mints a new id.
            prop_assert_eq!(table.catalog_mut().intern(&names[i]), *id);
        }
    }
}
