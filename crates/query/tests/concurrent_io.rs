//! Per-session I/O attribution under concurrency: `QueryResult::io` is
//! accumulated per buffer-pool access on the session's own stack, so
//! concurrent queries must each report exactly their own page traffic,
//! and the global pool counters must equal the sum of the sessions —
//! no double counting, no lost hits. Every session runs a sequential plan
//! on its own thread over one shared pool, which is how the server's
//! workers read.

use std::thread;

use cind_model::{Entity, EntityId, Value};
use cind_query::{execute, plan, Query};
use cind_storage::{IoStats, UniversalTable};

const THREADS: usize = 4;

fn build() -> (UniversalTable, Vec<&'static str>) {
    let mut table = UniversalTable::new(4096); // everything stays resident
    let names = vec!["rpm", "cache", "mp", "zoom"];
    let ids: Vec<_> = names.iter().map(|n| table.catalog_mut().intern(n)).collect();
    let drives = table.create_segment();
    let cams = table.create_segment();
    for i in 0..600u64 {
        let (seg, attrs) = if i % 2 == 0 {
            (drives, vec![(ids[0], Value::Int(7200)), (ids[1], Value::Int(64))])
        } else {
            (cams, vec![(ids[2], Value::Int(12)), (ids[3], Value::Int(10))])
        };
        let e = Entity::new(EntityId(i), attrs).expect("entity");
        table.insert(seg, &e).expect("insert");
    }
    (table, names)
}

fn run_query(table: &UniversalTable, attr: &str) -> IoStats {
    let q = Query::from_names(table.catalog(), [attr]).expect("known attr");
    let view: Vec<_> = table
        .segment_ids()
        .map(|s| {
            let mut syn = None;
            table
                .scan(s, |e| {
                    if syn.is_none() {
                        syn = Some(e.synopsis(table.universe()));
                    }
                })
                .expect("scan");
            (s, syn.expect("non-empty segment"))
        })
        .collect();
    let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
    execute(table, &q, &p).expect("execute").io
}

#[test]
fn concurrent_queries_attribute_io_exactly() {
    let (table, names) = build();

    // Warm-up pass: faults every page in and fixes the baseline.
    let baseline = run_query(&table, names[0]);
    assert!(baseline.logical_reads > 0);

    let before = table.io_stats();
    let per_session: Vec<IoStats> = thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let table = &table;
                let attr = names[t % names.len()];
                s.spawn(move || run_query(table, attr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session")).collect()
    });
    let after = table.io_stats();
    let delta = after.since(&before);

    // Each session owns a deterministic page set: with everything
    // resident, every concurrent run reads exactly the pages of the one
    // segment its attribute survives pruning for — all hits.
    for io in &per_session {
        assert!(io.logical_reads > 0, "a session reported no reads");
        assert_eq!(
            io.physical_reads, 0,
            "resident pages must be buffer-pool hits"
        );
    }

    // The pool's global counters (what `cind stats` reports) cover the
    // sessions *plus* their plan-construction scans, so here the global
    // delta can only exceed the session sum — never undercount it. The
    // strict equality is asserted in `global_counters_equal_session_sum`,
    // where plan construction is hoisted out of the measured window.
    let session_sum: u64 = per_session.iter().map(|io| io.logical_reads).sum();
    assert!(
        delta.logical_reads >= session_sum,
        "global counters lost reads: {} < {session_sum}",
        delta.logical_reads
    );
}

/// The strict identity, with plan construction hoisted out of the
/// measured window: global delta == Σ per-session `io` exactly.
#[test]
fn global_counters_equal_session_sum() {
    let (table, names) = build();
    let _ = run_query(&table, names[0]); // fault in

    // Pre-build every plan so the measured window contains executions
    // only.
    let plans: Vec<_> = (0..THREADS)
        .map(|t| {
            let attr = names[t % names.len()];
            let q = Query::from_names(table.catalog(), [attr]).expect("known");
            let view: Vec<_> = table
                .segment_ids()
                .map(|s| {
                    let mut syn = None;
                    table
                        .scan(s, |e| {
                            if syn.is_none() {
                                syn = Some(e.synopsis(table.universe()));
                            }
                        })
                        .expect("scan");
                    (s, syn.expect("non-empty"))
                })
                .collect();
            let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
            (q, p)
        })
        .collect();

    let before = table.io_stats();
    let per_session: Vec<IoStats> = thread::scope(|s| {
        let handles: Vec<_> = plans
            .iter()
            .map(|(q, p)| {
                let table = &table;
                s.spawn(move || execute(table, q, p).expect("execute").io)
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session")).collect()
    });
    let delta = table.io_stats().since(&before);

    let logical_sum: u64 = per_session.iter().map(|io| io.logical_reads).sum();
    let physical_sum: u64 = per_session.iter().map(|io| io.physical_reads).sum();
    assert_eq!(
        delta.logical_reads, logical_sum,
        "global logical reads must equal the sum of per-session attribution"
    );
    assert_eq!(
        delta.physical_reads, physical_sum,
        "global physical reads must equal the sum of per-session attribution"
    );
    assert!(per_session.iter().all(|io| io.logical_reads > 0));
}
