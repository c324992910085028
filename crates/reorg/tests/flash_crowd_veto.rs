//! The flash-crowd merge-thrash regression (ROADMAP open item after
//! PR 9's bench recorded an honest −0.043 EFFICIENCY *loss* on the
//! flash-crowd scenario).
//!
//! Mechanism of the loss: the crowd hammers one attribute pair, so every
//! other partition's decayed scan heat halves to zero within a couple of
//! epochs even though the background workload still touches them. The
//! merge phase reads "heat zero" as "cold", folds those partitions, and
//! the post-crowd re-hit forces them straight back apart — each round
//! trip paying the merge's efficiency damage plus the re-split's moves.
//!
//! The fix is a cool-off veto: [`HeatMap::recently_scanned`] remembers
//! the *last scan epoch* un-decayed, and the driver keeps any partition
//! scanned within [`MERGE_COOLOFF_EPOCHS`] off the merge menu. Two
//! layers of proof here:
//!
//! * a driver-level unit scenario showing the veto blocks the exact
//!   merge that enacts once the cool-off expires, and
//! * the full seeded flash-crowd datagen stream (the bench's scenario at
//!   reduced op count) asserting `--reorg auto` no longer loses
//!   EFFICIENCY against `--reorg off`.

use cind_datagen::{DriftConfig, DriftMode, DriftOp, DriftScenario};
use cind_model::{AttrId, EntityId, Synopsis, Value};
use cind_reorg::{ActionKind, ReorgDriver, MERGE_COOLOFF_EPOCHS};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{efficiency, Cinderella, Config, ReorgConfig, ReorgMode};

fn reorg_cfg(mode: ReorgMode, epoch_ops: u64) -> ReorgConfig {
    ReorgConfig { mode, budget: 64, threshold: 0.05, epoch_ops }
}

/// The partition whose synopsis contains `attr` (there must be exactly
/// one in these scenarios).
fn partition_of(cindy: &Cinderella, universe: usize, attr: AttrId) -> SegmentId {
    let probe = Synopsis::from_attrs(universe, [attr]);
    let mut hits = cindy
        .catalog()
        .pruning_view()
        .filter(|(_, syn, _)| !probe.is_disjoint(syn))
        .map(|(seg, _, _)| seg);
    let seg = hits.next().expect("attribute group has a partition");
    assert_eq!(hits.next(), None, "attribute group split across partitions");
    seg
}

/// Survivors of `q` under exact pruning — what the server feeds the heat
/// map per query.
fn scanned(cindy: &Cinderella, q: &Synopsis) -> Vec<SegmentId> {
    cindy
        .catalog()
        .pruning_view()
        .filter(|(_, syn, _)| !q.is_disjoint(syn))
        .map(|(seg, _, _)| seg)
        .collect()
}

/// Driver-level veto: two underfull partitions whose decayed heat is zero
/// but whose last scan is inside the cool-off window must not merge; the
/// identical step enacts the merge once the window expires.
#[test]
fn merge_waits_out_the_cooloff() {
    let mut table = UniversalTable::new(64);
    let groups: Vec<Vec<AttrId>> = (0..3)
        .map(|g| (0..3).map(|j| table.catalog_mut().intern(&format!("g{g}_a{j}"))).collect())
        .collect();
    let universe = table.universe();
    let rc = reorg_cfg(ReorgMode::Auto, 4);
    let mut cindy = Cinderella::new(Config {
        capacity: 24,
        reorg: rc,
        ..Config::default()
    });
    let mut driver = ReorgDriver::new(rc);

    // Three disjoint attribute groups → three partitions (a disjoint
    // entity rates negative everywhere, so each group opens its own).
    // Identical members per group: nothing for re-split (pair_diff 0) to
    // do, so the step's only candidate action is the cold merge.
    let mut next_id = 0u64;
    for g in &groups {
        for _ in 0..3 {
            let attrs: Vec<(AttrId, Value)> = g.iter().map(|a| (*a, Value::Int(1))).collect();
            let e = cind_model::Entity::new(EntityId(next_id), attrs).expect("distinct attrs");
            next_id += 1;
            cindy.insert(&mut table, e).expect("insert");
        }
    }
    let seg_a = partition_of(&cindy, universe, groups[0][0]);
    let seg_b = partition_of(&cindy, universe, groups[1][0]);

    // One background query touches partitions A and B (epoch 0)…
    let q_ab = Synopsis::from_attrs(universe, [groups[0][0], groups[1][0]]);
    let hits = scanned(&cindy, &q_ab);
    assert!(hits.contains(&seg_a) && hits.contains(&seg_b));
    driver.record_query(&q_ab, hits);
    // …then the workload moves to group C — a *mix* of C shapes (so no
    // single shape monopolizes the window and only the cool-off is in
    // play) — until A's and B's counters have halved to zero but their
    // last scan is still inside the cool-off.
    let q_cs: Vec<Synopsis> = [
        vec![groups[2][0], groups[2][1]],
        vec![groups[2][1], groups[2][2]],
        vec![groups[2][0]],
    ]
    .into_iter()
    .map(|attrs| Synopsis::from_attrs(universe, attrs))
    .collect();
    let crowd = |driver: &mut ReorgDriver, cindy: &Cinderella, n: u64| {
        for i in 0..n {
            let q = &q_cs[(i % 3) as usize];
            let hits = scanned(cindy, q);
            driver.record_query(q, hits);
        }
    };
    crowd(&mut driver, &cindy, rc.epoch_ops * 2 - 1);
    assert_eq!(driver.heat().heat(seg_a), 0, "background heat fully decayed");
    assert!(driver.heat().recently_scanned(seg_a), "cool-off still open");

    let report = driver.step(&mut table, &mut cindy).expect("step");
    assert_eq!(report.action, None, "cool-off vetoes the cold merge");
    assert_eq!(driver.stats().merges, 0);

    // Let the cool-off expire (the C mix keeps running), then step again:
    // the very merge the veto blocked now enacts.
    crowd(&mut driver, &cindy, rc.epoch_ops * (MERGE_COOLOFF_EPOCHS + 1));
    assert!(!driver.heat().recently_scanned(seg_a), "cool-off expired");
    let report = driver.step(&mut table, &mut cindy).expect("step");
    match report.action {
        Some(ActionKind::Merge { from, into }) => {
            let pair = [from, into];
            assert!(pair.contains(&seg_a) && pair.contains(&seg_b));
        }
        other => panic!("expected the A/B merge after cool-off, got {other:?}"),
    }
}

/// A monopolized window — one shape carrying the majority of the weight,
/// the flash crowd's signature — suspends cold merges outright, however
/// stale the other partitions' scans are: starvation under a monopolized
/// sample is not evidence of coldness.
#[test]
fn crowd_monopoly_suspends_merges() {
    let mut table = UniversalTable::new(64);
    let groups: Vec<Vec<AttrId>> = (0..3)
        .map(|g| (0..3).map(|j| table.catalog_mut().intern(&format!("g{g}_a{j}"))).collect())
        .collect();
    let universe = table.universe();
    let rc = reorg_cfg(ReorgMode::Auto, 4);
    let mut cindy = Cinderella::new(Config {
        capacity: 24,
        reorg: rc,
        ..Config::default()
    });
    let mut driver = ReorgDriver::new(rc);
    let mut next_id = 0u64;
    for g in &groups {
        for _ in 0..3 {
            let attrs: Vec<(AttrId, Value)> = g.iter().map(|a| (*a, Value::Int(1))).collect();
            let e = cind_model::Entity::new(EntityId(next_id), attrs).expect("distinct attrs");
            next_id += 1;
            cindy.insert(&mut table, e).expect("insert");
        }
    }
    let seg_a = partition_of(&cindy, universe, groups[0][0]);

    // One fixed shape hammered far past the cool-off window: partitions
    // A and B are unscanned, decayed cold, and cool-off-expired — yet the
    // monopoly veto still withholds the merge.
    let q_c = Synopsis::from_attrs(universe, [groups[2][0], groups[2][1]]);
    for _ in 0..(rc.epoch_ops * (MERGE_COOLOFF_EPOCHS + 4)) {
        let hits = scanned(&cindy, &q_c);
        driver.record_query(&q_c, hits);
    }
    assert!(!driver.heat().recently_scanned(seg_a), "cool-off long expired");
    let report = driver.step(&mut table, &mut cindy).expect("step");
    assert_eq!(report.action, None, "monopolized window suspends merges");
    assert_eq!(driver.stats().merges, 0);
}

/// The PR 9 bench scenario (same generator, same seed, reduced op count):
/// with the veto in place, `--reorg auto` must no longer lose EFFICIENCY
/// against `--reorg off` on the flash crowd beyond noise.
#[test]
fn flash_crowd_no_longer_regresses_efficiency() {
    const OPS: usize = 2_500;
    const TRAIL: usize = 300;

    let run = |reorg: ReorgMode| -> f64 {
        let scenario = DriftScenario::new(DriftConfig {
            mode: DriftMode::FlashCrowd,
            ops: OPS,
            groups: 8,
            group_width: 8,
            query_share: 0.35,
            seed: 0xBE9C,
        });
        let mut table = UniversalTable::new(4096);
        let ops = scenario.generate(table.catalog_mut(), 0);
        let universe = table.universe();
        let rc = reorg_cfg(reorg, 32);
        let mut cindy = Cinderella::new(Config {
            capacity: 64,
            reorg: rc,
            ..Config::default()
        });
        let mut driver = ReorgDriver::new(rc);
        let mut trail: Vec<Synopsis> = Vec::new();
        for op in &ops {
            let due = match op {
                DriftOp::Insert(e) => {
                    cindy.insert(&mut table, e.clone()).expect("insert");
                    driver.record_write()
                }
                DriftOp::Delete(id) => {
                    cindy.delete(&mut table, *id).expect("delete");
                    driver.record_write()
                }
                DriftOp::Query(attrs) => {
                    let q = Synopsis::from_attrs(universe, attrs.iter().copied());
                    let due = driver.record_query(&q, scanned(&cindy, &q));
                    trail.push(q);
                    if trail.len() > TRAIL {
                        trail.remove(0);
                    }
                    due
                }
            };
            if due {
                driver.step(&mut table, &mut cindy).expect("reorg step");
            }
        }
        // The current workload: distinct synopses of the trailing window.
        let mut current: Vec<Synopsis> = Vec::new();
        for q in &trail {
            if !current.contains(q) {
                current.push(q.clone());
            }
        }
        efficiency(&table, &cindy, &current)
    };

    let off = run(ReorgMode::Off);
    let auto = run(ReorgMode::Auto);
    // PR 9 recorded −0.043 here; the veto must hold the gap to noise.
    assert!(
        auto >= off - 0.01,
        "flash-crowd thrash is back: auto {auto:.4} vs off {off:.4}"
    );
}
