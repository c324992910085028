//! Differential suite for the catalog's one pruning-index path against
//! its two oracles — the full arena sweep (`best_sweep`) for the rating
//! scan, the per-partition `|p ∧ q| = 0` test over `pruning_view` for the
//! planner — under both index storages (`IndexTier::Exact` and
//! `IndexTier::Tiered`), on randomized catalogs that see entity additions,
//! removals, zero-size partitions, and splits (partition removal +
//! redistribution onto fresh segments, which also exercises arena slot
//! recycling).
//!
//! Contract (see `PartitionCatalog::best_partition`): whenever the best
//! rating is non-negative — the only case Algorithm 1 acts on the returned
//! partition — the indexed argmax equals the sweep argmax exactly,
//! including the lowest-segment tie-break; when negative, both paths agree
//! the best is negative (the caller creates a new partition either way).
//! That holds in both synopsis modes: in workload-based mode the rating
//! rows are query bits while the index holds attributes, and the lookup
//! key is the attribute cover of the entity's rating bits. On exact
//! storage the indexed scan rates exactly the partitions sharing a rating
//! bit with the entity plus the zero-size ones. Survivors equal the oracle
//! set on exact storage and contain it on tiered; the frozen
//! `PruningSnapshot` answers exactly like the live index in both.
//!
//! Both of those paths run the catalog's rating kernel, so a third property
//! checks all three scans (`best_partition`, `best_sweep`, `best_among`)
//! against the definition: a brute-force argmax of `rating::rate` — the
//! fused four-count reference — over every partition's rating synopsis,
//! compared as `(segment, rating bits)`.
//!
//! A fourth holds the served scan — bit-sliced overlap counts and the
//! can-win mask — to a copy of the per-candidate loop it replaced, on
//! `(segment, rating bits, ratings)`, on catalogs wider than two words of
//! slots with entities of up to 100 attributes.

use cind_bitset::FusedCounts;
use cind_model::{EntityId, Synopsis};
use cind_storage::SegmentId;
use cinderella_core::rating::{local_rating, rate};
use cinderella_core::{IndexTier, PartitionCatalog, RatingInputs, SynopsisMode};
use proptest::prelude::*;

const UNIVERSE: usize = 24;
/// Attribute span of the definition property's probes: five words, past
/// every arena stride the members can grow.
const SPAN: usize = 320;
/// A member attribute that widens the arena stride to two words.
const GROW: u32 = 70;

fn syn(bits: &[u32]) -> Synopsis {
    Synopsis::from_bits(SPAN, bits.iter().copied())
}

/// One randomized catalog history, replayed identically on any tier.
#[derive(Clone, Debug)]
struct Script {
    nparts: usize,
    /// (attrs, size, partition pick) — size 0 makes zero-size members,
    /// empty attrs make empty synopses.
    entities: Vec<(Vec<u32>, u64, prop::sample::Index)>,
    /// (partition pick, member pick) removals, applied best-effort.
    removals: Vec<(prop::sample::Index, prop::sample::Index)>,
    /// Partitions to split in two (remove + redistribute onto new segs).
    splits: Vec<prop::sample::Index>,
    /// Partitions copied, members and all, onto a fresh segment after the
    /// splits: equal ratings by construction, the twin's segment higher,
    /// its slot often a recycled lower one.
    twins: Vec<prop::sample::Index>,
}

/// Mirror member: (entity id, attrs, size).
type Member = (u64, Vec<u32>, u64);

/// A workload for `SynopsisMode::WorkloadBased`: the random `queries`, one
/// query no entity can match, and two that share attribute `shared`.
fn workload(queries: &[Vec<u32>], overlap: (&[u32], &[u32]), shared: u32) -> SynopsisMode {
    let wide = UNIVERSE + 8;
    let mut qs: Vec<Synopsis> =
        queries.iter().map(|q| Synopsis::from_bits(wide, q.iter().copied())).collect();
    qs.push(Synopsis::from_bits(wide, [UNIVERSE as u32 + 4]));
    for half in [overlap.0, overlap.1] {
        qs.push(Synopsis::from_bits(wide, half.iter().copied().chain([shared])));
    }
    SynopsisMode::WorkloadBased(qs)
}

/// Replays `script` on a fresh catalog of the given mode and tier. Every
/// catalog sees byte-identical mutation sequences, so any divergence is
/// the index's.
fn build(script: &Script, mode: &SynopsisMode, tier: IndexTier) -> PartitionCatalog {
    let mut cat = PartitionCatalog::with_mode(mode.clone(), tier);
    // Mirror of live partitions: (seg, members).
    let mut live: Vec<(u32, Vec<Member>)> = Vec::new();
    let mut next_seg = 0u32;
    let mut next_id = 0u64;
    for _ in 0..script.nparts {
        cat.create_partition(SegmentId(next_seg));
        live.push((next_seg, Vec::new()));
        next_seg += 1;
    }
    for (attrs, size, pick) in &script.entities {
        let slot = pick.index(live.len());
        let (seg, members) = &mut live[slot];
        let s = syn(attrs);
        cat.add_entity(SegmentId(*seg), EntityId(next_id), &s, *size);
        members.push((next_id, attrs.clone(), *size));
        next_id += 1;
    }
    for (ppick, mpick) in &script.removals {
        let slot = ppick.index(live.len());
        let (seg, members) = &mut live[slot];
        if members.is_empty() {
            continue;
        }
        let (id, attrs, size) = members.remove(mpick.index(members.len()));
        let s = syn(&attrs);
        let left = cat.remove_entity(SegmentId(*seg), EntityId(id), &s, size);
        if left == 0 {
            // The partitioner drops empty partitions; mirror that so the
            // sweep and the index both stop seeing them.
            cat.remove_partition(SegmentId(*seg));
            live.remove(slot);
            if live.is_empty() {
                cat.create_partition(SegmentId(next_seg));
                live.push((next_seg, Vec::new()));
                next_seg += 1;
            }
        }
    }
    for pick in &script.splits {
        let slot = pick.index(live.len());
        let (seg, members) = live[slot].clone();
        if members.len() < 2 {
            continue;
        }
        cat.remove_partition(SegmentId(seg));
        live.remove(slot);
        let (a, b) = (next_seg, next_seg + 1);
        next_seg += 2;
        cat.create_partition(SegmentId(a));
        cat.create_partition(SegmentId(b));
        let mut halves = (Vec::new(), Vec::new());
        for (i, (id, attrs, size)) in members.into_iter().enumerate() {
            let target = if i % 2 == 0 { a } else { b };
            let s = syn(&attrs);
            cat.add_entity(SegmentId(target), EntityId(id), &s, size);
            if i % 2 == 0 {
                halves.0.push((id, attrs, size));
            } else {
                halves.1.push((id, attrs, size));
            }
        }
        live.push((a, halves.0));
        live.push((b, halves.1));
    }
    for pick in &script.twins {
        let members = live[pick.index(live.len())].1.clone();
        let seg = next_seg;
        next_seg += 1;
        cat.create_partition(SegmentId(seg));
        let mut copies = Vec::new();
        for (_, attrs, size) in members {
            cat.add_entity(SegmentId(seg), EntityId(next_id), &syn(&attrs), size);
            copies.push((next_id, attrs, size));
            next_id += 1;
        }
        live.push((seg, copies));
    }
    cat
}

/// A workload for the definition property: the random `queries`, 64
/// queries over attributes no member carries, then `{GROW}` — a rating bit
/// ≥ 64 for any partition holding `GROW`, and rating bits past a one-word
/// stride for probes carrying the filler attributes.
fn wide_workload(queries: &[Vec<u32>]) -> SynopsisMode {
    let mut qs: Vec<Synopsis> = queries.iter().map(|q| syn(q)).collect();
    qs.extend((0..64).map(|k| syn(&[UNIVERSE as u32 + 4 * k + 1])));
    qs.push(syn(&[GROW]));
    SynopsisMode::WorkloadBased(qs)
}

/// `(segment, rating bits)`: ratings compared bit for bit.
fn key(best: Option<(SegmentId, f64)>) -> Option<(SegmentId, u64)> {
    best.map(|(seg, r)| (seg, r.to_bits()))
}

/// The definition's argmax over `segs`, in the order given: the first
/// maximal `rate(w, e, SIZE(e), rating synopsis of p, SIZE(p))` wins ties.
fn definition(
    cat: &PartitionCatalog,
    segs: impl Iterator<Item = SegmentId>,
    e: &Synopsis,
    size: u64,
    w: f64,
) -> Option<(SegmentId, f64)> {
    let mut best: Option<(SegmentId, f64)> = None;
    for seg in segs {
        let Some(meta) = cat.get(seg) else { continue };
        let p = cat.rating_synopsis(seg).expect("cataloged");
        let r = rate(w, e, size, &p, meta.size);
        if best.is_none_or(|(_, rb)| rb < r) {
            best = Some((seg, r));
        }
    }
    best
}

/// Attribute span of the masked-scan property: wide enough for 100-attribute
/// probes, with a dense low region so overlaps run high.
const WIDE: u32 = 160;
/// The weights the masked-scan property rates at: `(1−w)·n` lands on an
/// integer for every `n` at 0, for even `n` at 0.5, for `n` divisible by 4
/// at 0.25 (and by 10 at 0.7, up to rounding of `1 − 0.7`).
const WEIGHTS: [f64; 7] = [0.0, 0.2, 0.25, 0.3, 0.5, 0.7, 0.999];

/// A catalog of `nparts` partitions (more than 128 slots) filled with
/// `members`, then `recycle` partitions emptied, removed and re-created on
/// fresh segments, which take the freed slots. Partitions no member lands
/// in stay zero-size with empty synopses; size-0 members make zero-size
/// partitions with attributes.
fn wide_catalog(
    nparts: usize,
    members: &[(Vec<u32>, u64, prop::sample::Index)],
    recycle: &[prop::sample::Index],
) -> PartitionCatalog {
    let mut cat = PartitionCatalog::new(IndexTier::Exact);
    let mut parts: Vec<(u32, Vec<Member>)> = Vec::new();
    for seg in 0..nparts as u32 {
        cat.create_partition(SegmentId(seg));
        parts.push((seg, Vec::new()));
    }
    for (id, (attrs, size, pick)) in members.iter().enumerate() {
        let (seg, held) = &mut parts[pick.index(nparts)];
        cat.add_entity(SegmentId(*seg), EntityId(id as u64), &syn(attrs), *size);
        held.push((id as u64, attrs.clone(), *size));
    }
    for (fresh, pick) in (nparts as u32..).zip(recycle) {
        let (seg, held) = std::mem::take(&mut parts[pick.index(nparts)]);
        for (id, attrs, size) in &held {
            cat.remove_entity(SegmentId(seg), EntityId(*id), &syn(attrs), *size);
        }
        cat.remove_partition(SegmentId(seg));
        cat.create_partition(SegmentId(fresh));
        for (id, attrs, size) in &held {
            cat.add_entity(SegmentId(fresh), EntityId(*id), &syn(attrs), *size);
        }
        parts[pick.index(nparts)] = (fresh, held);
    }
    cat
}

/// The per-candidate indexed scan the masked scan replaced, on the
/// catalog's public view: every partition sharing an attribute with `e` or
/// of size 0 is a candidate and counts as rated; each gets its overlap,
/// `r'` in `local_rating`'s expressions, and a division only where
/// `r' ≥ 0`. Segment order with a strict `<` keeps the lowest segment on
/// ties.
fn per_candidate(
    cat: &PartitionCatalog,
    e: &Synopsis,
    size_e: u64,
    w: f64,
) -> (Option<(SegmentId, u64)>, u32) {
    let (mut best, mut ratings): (Option<(SegmentId, f64)>, u32) = (None, 0);
    let left = e.cardinality();
    for m in cat.iter() {
        let p = cat.rating_synopsis(m.segment).expect("cataloged");
        let (and, right) = (e.overlap(&p), p.cardinality());
        if and == 0 && m.size != 0 {
            continue;
        }
        ratings += 1;
        let counts = FusedCounts { and, or: left + right - and, left, right };
        let i = RatingInputs::from_fused(counts, size_e, m.size);
        let denom = (i.size_p + i.size_e) as f64 * f64::from(i.union_count);
        let r = if denom == 0.0 {
            0.0
        } else {
            let local = local_rating(w, &i);
            if local < 0.0 {
                continue;
            }
            local / denom
        };
        if best.is_none_or(|(_, rb)| rb < r) {
            best = Some((m.segment, r));
        }
    }
    (key(best), ratings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn masked_scan_matches_the_per_candidate_loop(
        nparts in 129usize..200,
        members in prop::collection::vec(
            (
                prop::collection::vec(
                    prop_oneof![3 => 0u32..12, 1 => 0u32..WIDE],
                    0..40,
                ),
                prop_oneof![1 => 0u64..1, 4 => 1u64..6],
                any::<prop::sample::Index>(),
            ),
            100..400,
        ),
        recycle in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
        kept in any::<prop::sample::Index>(),
        probes in prop::collection::vec(
            (
                prop::collection::vec(
                    prop_oneof![2 => 0u32..12, 1 => 0u32..WIDE],
                    1..101,
                ),
                1u64..6,
            ),
            1..6,
        ),
    ) {
        let mut cat = wide_catalog(nparts, &members, &recycle);
        // One weight's planes kept; every other weight is rebuilt per call.
        cat.set_rating_weight(WEIGHTS[kept.index(WEIGHTS.len())]);
        let report = cinderella_core::validate::render(&cat.validate());
        prop_assert!(report.is_empty(), "{}", report);
        for (attrs, size) in &probes {
            let e = syn(attrs);
            for w in WEIGHTS {
                let (best, ratings) = cat.best_partition(&e, *size, w);
                prop_assert_eq!(
                    (key(best), ratings),
                    per_candidate(&cat, &e, *size, w),
                    "{} partitions, probe of {} attributes, size {}, w {}",
                    cat.len(), e.cardinality(), size, w
                );
            }
        }
    }

    #[test]
    fn indexed_argmax_matches_full_scan(
        nparts in 1usize..8,
        entities in prop::collection::vec(
            (
                prop::collection::vec(0u32..UNIVERSE as u32, 0..5),
                0u64..4,
                any::<prop::sample::Index>(),
            ),
            1..60,
        ),
        removals in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..12,
        ),
        splits in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        twins in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        probes in prop::collection::vec(
            (
                prop::collection::vec(
                    prop_oneof![4 => 0u32..UNIVERSE as u32, 1 => UNIVERSE as u32..SPAN as u32],
                    0..7,
                ),
                0u64..4,
            ),
            1..6,
        ),
        queries in prop::collection::vec(prop::collection::vec(0u32..UNIVERSE as u32, 1..4), 0..5),
        overlap in (
            prop::collection::vec(0u32..UNIVERSE as u32, 0..3),
            prop::collection::vec(0u32..UNIVERSE as u32, 0..3),
            0u32..UNIVERSE as u32,
        ),
    ) {
        let script = Script { nparts, entities, removals, splits, twins };
        let modes = [
            SynopsisMode::EntityBased,
            workload(&queries, (&overlap.0, &overlap.1), overlap.2),
        ];
        let tiers = [IndexTier::Exact, IndexTier::Tiered, IndexTier::Auto];
        for (mode, tier) in modes.iter().flat_map(|m| tiers.map(|t| (m, t))) {
            let cat = build(&script, mode, tier);
            for (attrs, size) in &probes {
                let e = syn(attrs);
                let e = mode.rating_of(&e);
                // 1.0 exercises the w = 1 fallback; the rest the indexed path.
                for w in [0.0, 0.2, 0.3, 0.5, 0.7, 0.999, 1.0] {
                    let (a, swept) = cat.best_sweep(&e, *size, w);
                    let (b, rated) = cat.best_partition(&e, *size, w);
                    prop_assert_eq!(swept as usize, cat.len());
                    prop_assert!(rated <= swept);
                    let (sa, ra) = a.expect("the sweep rates every partition of a non-empty catalog");
                    if ra >= 0.0 {
                        prop_assert_eq!(
                            Some((sa, ra)), b,
                            "{:?} {} probe {:?} size {} w {}", mode, tier, attrs, size, w
                        );
                    } else {
                        // No candidate at all (`None`) is a negative best too.
                        prop_assert!(
                            b.is_none_or(|(_, rb)| rb < 0.0),
                            "{:?} {} probe {:?} w {}: sweep {} vs indexed {:?}",
                            mode, tier, attrs, w, ra, b
                        );
                    }
                    if tier == IndexTier::Exact {
                        // Exact candidates: a shared rating bit or SIZE(p) = 0
                        // — or every partition where the scan must sweep.
                        let indexed = *size > 0 && w < 1.0 && !e.is_empty();
                        let want = cat
                            .iter()
                            .filter(|m| {
                                let rating = cat.rating_synopsis(m.segment).expect("cataloged");
                                !indexed || m.size == 0 || !rating.is_disjoint(&e)
                            })
                            .count();
                        prop_assert_eq!(
                            rated as usize, want,
                            "{:?} probe {:?} w {}", mode, attrs, w
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn survivors_match_disjoint_pruning(
        nparts in 1usize..8,
        entities in prop::collection::vec(
            (
                prop::collection::vec(0u32..UNIVERSE as u32, 0..5),
                0u64..4,
                any::<prop::sample::Index>(),
            ),
            1..60,
        ),
        removals in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..12,
        ),
        splits in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        queries in prop::collection::vec(
            prop::collection::vec(0u32..UNIVERSE as u32, 0..4),
            1..6,
        ),
    ) {
        let script = Script { nparts, entities, removals, splits, twins: Vec::new() };
        for tier in [IndexTier::Exact, IndexTier::Tiered, IndexTier::Auto] {
            let cat = build(&script, &SynopsisMode::EntityBased, tier);
            let frozen = cat.freeze();
            prop_assert_eq!(frozen.partitions(), cat.len());
            for qattrs in &queries {
                let q = syn(qattrs);
                let oracle: Vec<SegmentId> = cat
                    .pruning_view()
                    .filter(|(_, p, _)| !q.is_disjoint(p))
                    .map(|(s, _, _)| s)
                    .collect();
                let (survivors, pruned) = cat.survivors(&q);
                if cat.tier_active() {
                    prop_assert!(
                        oracle.iter().all(|s| survivors.binary_search(s).is_ok()),
                        "query {:?}: {:?} must contain {:?}", qattrs, survivors, oracle
                    );
                } else {
                    prop_assert_eq!(&survivors, &oracle, "query {:?}", qattrs);
                }
                prop_assert_eq!(pruned, cat.len() - survivors.len());
                prop_assert_eq!(frozen.survivors(&q), (survivors, pruned));
            }
        }
    }

    #[test]
    fn every_scan_matches_the_rating_definition(
        nparts in 1usize..8,
        entities in prop::collection::vec(
            (
                prop::collection::vec(0u32..UNIVERSE as u32, 0..5),
                0u64..4,
                any::<prop::sample::Index>(),
            ),
            1..60,
        ),
        grow in prop::option::of(any::<prop::sample::Index>()),
        removals in prop::collection::vec(
            (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
            0..12,
        ),
        splits in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        probes in prop::collection::vec(
            (
                prop::collection::vec(
                    prop_oneof![3 => 0u32..UNIVERSE as u32, 1 => UNIVERSE as u32..SPAN as u32],
                    0..6,
                ),
                0u64..4,
            ),
            1..6,
        ),
        targets in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        queries in prop::collection::vec(prop::collection::vec(0u32..UNIVERSE as u32, 1..4), 0..5),
    ) {
        let mut entities = entities;
        if let Some(at) = grow {
            // One member widens the stride mid-history; later removals
            // and splits recycle slots under the wider layout.
            let at = at.index(entities.len());
            entities[at].0.push(GROW);
        }
        let script = Script { nparts, entities, removals, splits, twins: Vec::new() };
        let modes = [SynopsisMode::EntityBased, wide_workload(&queries)];
        let cases = modes.iter().flat_map(|m| [(m, IndexTier::Exact), (m, IndexTier::Tiered)]);
        for (mode, tier) in cases {
            let cat = build(&script, mode, tier);
            let segs: Vec<SegmentId> = cat.iter().map(|m| m.segment).collect();
            // Targets in pick order, repeats allowed, plus one segment the
            // catalog never held (skipped by `best_among`).
            let mut among: Vec<SegmentId> = targets.iter().map(|t| segs[t.index(segs.len())]).collect();
            among.push(SegmentId(u32::MAX));
            for (attrs, size) in &probes {
                let e = mode.rating_of(&syn(attrs)).into_owned();
                for w in [0.0, 0.3, 1.0] {
                    let ctx = format!("{mode:?} {tier} probe {attrs:?} size {size} w {w}");
                    let want = definition(&cat, segs.iter().copied(), &e, *size, w);
                    let (swept, _) = cat.best_sweep(&e, *size, w);
                    prop_assert_eq!(key(swept), key(want), "sweep: {}", ctx);

                    let (indexed, _) = cat.best_partition(&e, *size, w);
                    if want.is_some_and(|(_, r)| r >= 0.0) {
                        prop_assert_eq!(key(indexed), key(want), "indexed: {}", ctx);
                    } else if let Some((seg, r)) = indexed {
                        // A negative best may be any candidate, but its
                        // rating is still the definition's.
                        prop_assert!(r < 0.0, "indexed: {}", ctx);
                        let own = definition(&cat, [seg].into_iter(), &e, *size, w);
                        prop_assert_eq!(key(indexed), key(own), "indexed: {}", ctx);
                    }

                    let (picked, rated) = cat.best_among(&among, &e, *size, w);
                    let want = definition(&cat, among.iter().copied(), &e, *size, w);
                    prop_assert_eq!(key(picked), key(want), "among {:?}: {}", among, ctx);
                    prop_assert_eq!(rated as usize, among.len() - 1, "among: {}", ctx);
                }
            }
        }
    }
}
