//! Shared tier-1 epilogue: deep structural validation — and the
//! decode-then-project oracle the scan suites compare the kernel with.
//!
//! Every integration test that builds a partitioning finishes by driving
//! the full catalog/arena/index validator ([`Cinderella::validate`]) plus
//! the buffer-pool LRU validator, so a latent inconsistency surfaces as a
//! named invariant violation rather than as a wrong answer three suites
//! later.

// Each test binary compiles this module separately and most use only one
// or two of the helpers.
#![allow(dead_code)]

use cinderella::core::{validate, Cinderella};
use cinderella::model::Entity;
use cinderella::query::{Query, Row};
use cinderella::storage::{decode_entity, ReadView, SegmentId, UniversalTable};

/// Panics with the rendered violation report if any structural invariant
/// of the catalog/arena/index triad — or of the table's buffer pool — is
/// broken.
pub fn assert_fully_valid(cindy: &Cinderella, table: &UniversalTable) {
    let violations = cindy.validate(table).expect("validation scan");
    assert!(violations.is_empty(), "{}", validate::render(&violations));
    assert_pool_valid(table);
}

/// Buffer-pool-only variant for suites that exercise storage without a
/// partitioner on top.
pub fn assert_pool_valid(table: &UniversalTable) {
    let report = table.pool().validate();
    assert!(report.is_empty(), "buffer pool invariants: {report:?}");
}

/// What a scan of some segments must report, by definition.
#[derive(Debug, Default)]
pub struct ScanOracle {
    /// The projected rows, in segment, page, then slot order.
    pub rows: Vec<Row>,
    /// Non-null cells across `rows`.
    pub cells: u64,
    /// Live records in the segments.
    pub live: u64,
    /// Live records whose signature, recomputed here from the decoded
    /// entity, shares a bit with the query's: what the scan may read.
    pub candidates: u64,
    /// Pages holding at least one candidate: what the scan may touch.
    pub pages: u64,
}

/// An entity's or a query's signature as the definition has it: bit
/// `id mod 128` per attribute.
fn fold(attrs: impl IntoIterator<Item = cinderella::model::AttrId>) -> u128 {
    attrs.into_iter().fold(0, |bits, a| bits | 1u128 << (a.0 % 128))
}

/// The decode-then-project oracle: walks every page of `segments` through
/// `view`, decodes every live record in full and asks `q` — never the
/// signature column. Panics on a false negative: a matching record that the
/// recomputed signatures would have skipped.
pub fn scan_oracle(view: ReadView<'_>, q: &Query, segments: &[SegmentId]) -> ScanOracle {
    let mask = fold(q.attrs().iter().copied());
    let mut want = ScanOracle::default();
    for &seg in segments {
        let segment = view.segment(seg).expect("segment");
        for page_idx in 0..segment.page_count() as u32 {
            let page = segment.page(page_idx).expect("page");
            let mut holds_candidate = false;
            for (_, bytes) in page.iter() {
                let e: Entity = decode_entity(bytes).expect("stored records decode");
                let candidate = fold(e.attrs().iter().map(|(a, _)| *a)) & mask != 0;
                want.live += 1;
                want.candidates += u64::from(candidate);
                holds_candidate |= candidate;
                if q.matches(&e) {
                    assert!(candidate, "false negative: {:?} matches {:?}", e, q.attrs());
                    want.cells += u64::from(q.projected_cells(&e));
                    want.rows.push(q.project(&e).into_iter().map(|v| v.cloned()).collect());
                }
            }
            want.pages += u64::from(holds_candidate);
        }
    }
    want
}
