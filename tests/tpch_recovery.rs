//! Table I correctness: Cinderella on perfectly regular data must
//! rediscover the schema and add only bounded scan overhead.

use cinderella::core::{Capacity, Cinderella, Config};
use cinderella::datagen::{tpch_query_columns, TpchConfig, TpchGenerator};
use cinderella::model::Synopsis;
use cinderella::query::{execute, plan, Query};
use cinderella::storage::{SegmentId, UniversalTable};

mod common;

fn load(b: u64) -> (UniversalTable, Cinderella, TpchGenerator) {
    let gen = TpchGenerator::new(TpchConfig { scale: 0.002, seed: 3 });
    let mut table = UniversalTable::new(128);
    let (entities, _) = gen.generate(table.catalog_mut());
    let mut cindy = Cinderella::new(Config {
        weight: 0.5,
        capacity: Capacity::MaxEntities(b),
        ..Config::default()
    });
    for e in entities {
        cindy.insert(&mut table, e).expect("insert");
    }
    common::assert_fully_valid(&cindy, &table);
    (table, cindy, gen)
}

#[test]
fn every_partition_is_exactly_one_relation() {
    for b in [500u64, 2_000, 10_000] {
        let (table, cindy, gen) = load(b);
        let relation_synopses: Vec<Synopsis> = gen
            .schema()
            .iter()
            .map(|r| r.synopsis(table.catalog()))
            .collect();
        for meta in cindy.catalog().iter() {
            assert!(
                relation_synopses.contains(&meta.attr_synopsis),
                "B={b}: partition {} mixes relations",
                meta.segment
            );
            // Regular data ⇒ perfectly dense partitions.
            assert_eq!(meta.sparseness(), 0.0, "B={b}: {}", meta.segment);
        }
    }
}

#[test]
fn tpch_queries_agree_with_native_schema() {
    let (cindy_table, cindy, gen) = load(2_000);

    // Native schema: one segment per relation.
    let mut native_table = UniversalTable::new(128);
    let (entities, origin) = gen.generate(native_table.catalog_mut());
    let segs: Vec<SegmentId> = gen
        .schema()
        .iter()
        .map(|_| native_table.create_segment())
        .collect();
    for (e, rel) in entities.iter().zip(&origin) {
        native_table.insert(segs[*rel], e).expect("native insert");
    }
    let native_view: Vec<(SegmentId, Synopsis)> = gen
        .schema()
        .iter()
        .zip(&segs)
        .map(|(rel, seg)| (*seg, rel.synopsis(native_table.catalog())))
        .collect();
    let cindy_view: Vec<(SegmentId, Synopsis)> = cindy
        .catalog()
        .pruning_view()
        .map(|(s, syn, _)| (s, syn.clone()))
        .collect();

    let mut cindy_pages = 0u64;
    let mut native_pages = 0u64;
    for (name, cols) in tpch_query_columns() {
        let q = Query::from_names(cindy_table.catalog(), cols.iter().copied())
            .expect("columns interned");
        let cp = plan(&q, cindy_view.iter().map(|(s, syn)| (*s, syn)));
        let np = plan(&q, native_view.iter().map(|(s, syn)| (*s, syn)));
        let cr = execute(&cindy_table, &q, &cp).expect("cinderella run");
        let nr = execute(&native_table, &q, &np).expect("native run");
        assert_eq!(cr.rows, nr.rows, "{name}");
        assert_eq!(cr.cells, nr.cells, "{name}");
        cindy_pages += cr.io.logical_reads;
        native_pages += nr.io.logical_reads;
    }
    // Table I: the overhead of the discovered partitioning is small. In
    // page terms it comes only from per-partition page fragmentation, so
    // it is bounded by a modest factor.
    assert!(
        (cindy_pages as f64) < native_pages as f64 * 1.25,
        "cinderella read {cindy_pages} pages vs native {native_pages}"
    );
}

#[test]
fn pruning_hits_only_referenced_relations() {
    let (table, cindy, gen) = load(2_000);
    // The Q1 column set references only lineitem; every scanned partition
    // must be a lineitem partition.
    let lineitem = gen.schema()[7].synopsis(table.catalog());
    let q = Query::from_names(
        table.catalog(),
        tpch_query_columns()[0].1.iter().copied(),
    )
    .expect("Q1 columns");
    let view: Vec<(SegmentId, Synopsis)> = cindy
        .catalog()
        .pruning_view()
        .map(|(s, syn, _)| (s, syn.clone()))
        .collect();
    let p = plan(&q, view.iter().map(|(s, syn)| (*s, syn)));
    assert!(!p.segments.is_empty());
    for seg in &p.segments {
        let meta = cindy.catalog().get(*seg).expect("cataloged");
        assert_eq!(meta.attr_synopsis, lineitem, "{seg} is not a lineitem partition");
    }
}

/// Kill-mid-load crash recovery: a server is crash-stopped (the
/// SIGKILL-equivalent `hard_kill`, which skips the drain, the WAL flush,
/// and the final checkpoint) in the middle of a concurrent mixed
/// workload. Reopening the store must replay the WAL suffix over the last
/// snapshot, every *acknowledged* write must be present, the rebuilt
/// partitioner must pass the full structural validation, and a fresh
/// snapshot of the recovered store must satisfy `cind check`.
#[test]
fn kill_mid_load_recovers_from_wal() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use cinderella::model::AttributeCatalog;
    use cinderella::server::{
        shard_dir_name, Client, EngineOptions, ServeConfig, Server, ServerError,
        ShardedEngine, ShardedOptions, WireEntity,
    };

    let dir = std::env::temp_dir().join("cind_kill_mid_load");
    let _ = std::fs::remove_dir_all(&dir);

    // Wire-ready TPC-H entities (names, not ids — the server interns).
    let mut catalog = AttributeCatalog::new();
    let (entities, _) =
        TpchGenerator::new(TpchConfig { scale: 0.002, seed: 11 }).generate(&mut catalog);
    let wire: Vec<WireEntity> = entities
        .iter()
        .map(|e| WireEntity {
            id: e.id().0,
            attrs: e
                .attrs()
                .iter()
                .map(|(a, v)| (catalog.name(*a).expect("interned").to_string(), v.clone()))
                .collect(),
        })
        .collect();

    // Two shards: the crash must be recoverable per crash domain.
    let opts = ShardedOptions::new(EngineOptions::default(), 2);
    let engine = Arc::new(ShardedEngine::open(&dir, opts.clone()).expect("open store"));
    let handle = Server::start(
        Arc::clone(&engine),
        &ServeConfig { queue_depth: 16, shards: 2, ..ServeConfig::default() },
    )
    .expect("server start");
    let addr = format!("127.0.0.1:{}", handle.port());

    let acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    const CONNS: usize = 4;
    let mut chunks: Vec<Vec<WireEntity>> = (0..CONNS).map(|_| Vec::new()).collect();
    for (i, e) in wire.into_iter().enumerate() {
        chunks[i % CONNS].push(e);
    }
    let threads: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let addr = addr.clone();
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let Ok(mut client) = Client::connect(addr) else { return };
                let _ = client.set_timeout(Some(Duration::from_secs(5)));
                for (i, e) in chunk.into_iter().enumerate() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match client.insert(e) {
                        Ok(_) => {
                            acked.fetch_add(1, Ordering::SeqCst);
                        }
                        Err(ServerError::Busy) => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        // Crash mid-load: the connection dies under us.
                        Err(_) => return,
                    }
                    // A query every 8 ops keeps readers in the mix.
                    if i % 8 == 7 && client.query(["l_shipdate"]).is_err() {
                        return;
                    }
                }
            })
        })
        .collect();

    // Let the mixed workload run, then pull the plug mid-flight.
    while acked.load(Ordering::SeqCst) < 200 {
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.hard_kill();
    stop.store(true, Ordering::SeqCst);
    for t in threads {
        let _ = t.join();
    }
    let acked = acked.load(Ordering::SeqCst);
    drop(engine); // release the WAL file handle before reopening

    // Recovery: per-shard snapshot + WAL-suffix replay + rebuild.
    let reopened = ShardedEngine::open(&dir, opts).expect("recover store");
    let stats = reopened.stats();
    assert!(
        stats.entities >= acked,
        "lost acknowledged writes: {} recovered < {acked} acked",
        stats.entities
    );
    assert!(
        reopened.validate().expect("validate").is_empty(),
        "recovered store fails structural validation"
    );

    // Recovery checkpointed each shard; every shard's snapshot must pass
    // the CLI's offline integrity check too.
    let shards = reopened.shard_count();
    drop(reopened);
    for i in 0..shards {
        let snap = dir.join(shard_dir_name(i)).join("store.cind");
        let report = cind_cli::check(&snap, 1024).expect("cind check");
        assert!(report.starts_with("ok:"), "shard {i}: unexpected check report: {report}");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
