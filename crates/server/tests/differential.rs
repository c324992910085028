//! Differential test: the server path must be semantically identical to
//! in-process engine calls — same entities, same queries, compared on
//! partition count, Definition-1 efficiency, and query result rows — even
//! when the entities arrive over ≥4 concurrent connections in
//! nondeterministic interleavings.
//!
//! TPC-H data makes the comparison order-independent: relations have
//! pairwise disjoint attribute sets, so with a generous capacity Algorithm
//! 1 converges to exactly one partition per relation no matter how the
//! inserts interleave (a disjoint entity always rates `r < 0` against
//! foreign partitions and `r > 0` against its own).

use std::sync::Arc;
use std::time::Duration;

use cind_datagen::{tpch_query_columns, TpchConfig, TpchGenerator};
use cind_model::{AttributeCatalog, Entity, Synopsis, Value};
use cind_query::{execute_collect, plan, Query};
use cind_server::{
    Client, EngineOptions, ServeConfig, Server, ServerError, ShardedEngine, ShardedOptions,
    WireEntity,
};
use cind_storage::UniversalTable;
use cinderella_core::{efficiency, efficiency_counters_for, Capacity, Cinderella, Config};

const CONNECTIONS: usize = 4;

fn partitioner_config() -> Config {
    Config {
        weight: 0.5,
        capacity: Capacity::MaxEntities(10_000),
        ..Config::default()
    }
}

fn tpch_wire_entities() -> Vec<WireEntity> {
    let mut catalog = AttributeCatalog::new();
    let (entities, _) =
        TpchGenerator::new(TpchConfig { scale: 0.002, seed: 3 }).generate(&mut catalog);
    entities
        .iter()
        .map(|e| WireEntity {
            id: e.id().0,
            attrs: e
                .attrs()
                .iter()
                .map(|(a, v)| (catalog.name(*a).expect("interned").to_string(), v.clone()))
                .collect(),
        })
        .collect()
}

/// Rows as an order-independent multiset: rendered and sorted.
fn canonical(rows: &[Vec<Option<Value>>]) -> Vec<String> {
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

#[test]
fn server_path_matches_in_process_under_concurrency() {
    // --- in-process reference -----------------------------------------
    let mut table = UniversalTable::new(256);
    let (entities, _) =
        TpchGenerator::new(TpchConfig { scale: 0.002, seed: 3 }).generate(table.catalog_mut());
    let mut cindy = Cinderella::new(partitioner_config());
    for e in entities {
        cindy.insert(&mut table, e).expect("reference insert");
    }

    // --- server path: same entities over 4 concurrent connections ------
    let engine = Arc::new(ShardedEngine::in_memory(ShardedOptions::new(
        EngineOptions {
            config: partitioner_config(),
            pool_pages: 256,
            ..EngineOptions::default()
        },
        1,
    )));
    let handle = Server::start(
        Arc::clone(&engine),
        &ServeConfig { queue_depth: 32, ..ServeConfig::default() },
    )
    .expect("server start");
    let addr = format!("127.0.0.1:{}", handle.port());

    let wire = tpch_wire_entities();
    let mut chunks: Vec<Vec<WireEntity>> = (0..CONNECTIONS).map(|_| Vec::new()).collect();
    for (i, e) in wire.into_iter().enumerate() {
        chunks[i % CONNECTIONS].push(e);
    }
    let threads: Vec<_> = chunks
        .into_iter()
        .map(|chunk| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(30))).expect("timeout");
                for e in chunk {
                    loop {
                        match client.insert(e.clone()) {
                            Ok(_) => break,
                            Err(ServerError::Busy) => {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                            Err(e) => panic!("insert failed: {e}"),
                        }
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("insert connection");
    }

    let mut client = Client::connect(&addr).expect("connect");

    // --- partition count and entity count -------------------------------
    let stats = client.stats().expect("stats");
    assert_eq!(stats.entities as usize, table.entity_count());
    assert_eq!(stats.partitions as usize, cindy.catalog().len());

    // --- query rows over the socket vs. direct execution ----------------
    let queries: Vec<Synopsis> = {
        let state_catalog = table.catalog();
        tpch_query_columns()
            .iter()
            .map(|(_, cols)| {
                Query::from_names(state_catalog, cols.iter().copied())
                    .expect("tpch columns known")
                    .synopsis()
                    .clone()
            })
            .collect()
    };
    for (name, cols) in tpch_query_columns() {
        let q = Query::from_names(table.catalog(), cols.iter().copied()).expect("known");
        let p = plan(&q, cindy.catalog().pruning_view().map(|(s, syn, _)| (s, syn)));
        let (_, local_rows) = execute_collect(&table, &q, &p).expect("local execute");
        let (remote_rows, rstats) = client.query(cols.iter().copied()).expect("remote query");
        assert_eq!(
            canonical(&remote_rows),
            canonical(&local_rows),
            "{name}: server rows diverge from in-process rows"
        );
        assert_eq!(
            (rstats.segments_read + rstats.segments_pruned) as usize,
            cindy.catalog().len(),
            "{name}: plan covers a different partition universe"
        );
    }

    // --- Definition-1 efficiency ----------------------------------------
    let local_eff = efficiency(&table, &cindy, &queries);
    let remote_eff = {
        // The server engine exposes validation and stats over the wire;
        // efficiency needs the catalog, so compute it in-process on the
        // shared engine — same code path as the reference.
        let shard = handle.engine().shard_engine(0);
        shard.with_parts(|t, c| efficiency(t, c, &queries))
    };
    assert!(
        (local_eff - remote_eff).abs() < 1e-12,
        "efficiency diverges: local {local_eff} vs server {remote_eff}"
    );

    // --- structural validation over the wire -----------------------------
    assert!(client.validate().expect("validate").is_empty());

    // --- graceful shutdown drains and validates --------------------------
    client.shutdown().expect("shutdown ack");
    let report = handle.join().expect("graceful join");
    assert!(
        report.violations.is_empty(),
        "post-drain validation found defects: {:?}",
        report.violations
    );
}

// ---------------------------------------------------------------------------
// Sharded vs. unsharded differential: for N ∈ {1, 2, 8}, a sharded engine
// fed the same entities must return exactly the same query rows as the
// unsharded in-process reference, pass per-shard structural validation,
// and land its *global* Definition-1 efficiency (summed counters across
// shards, divided once) inside a stated band of the N=1 engine.
//
// Why partition quality may differ across N: hash-routing slices each
// latent entity group across all shards, so every shard partitions a
// 1/N-sized sample of the same population with the same capacity B. The
// split points Algorithm 1 picks depend on arrival order and local
// density, so the *partition boundaries* (and hence the pages a query
// touches) differ — but on data with clean group structure each shard
// rediscovers the same shapes, so efficiency stays close. On TPC-H the
// relations are pairwise disjoint and capacity is generous: every shard
// converges to exactly one partition per relation, and the efficiency
// counters are *identical* (band 0). On DBpedia-like irregular data the
// boundaries genuinely shift with the sample, so we assert a small
// absolute band instead.
// ---------------------------------------------------------------------------

/// Unsharded in-process reference: insert everything, keep table+cindy.
fn reference_for(entities: Vec<Entity>, catalog: AttributeCatalog, config: Config)
    -> (UniversalTable, Cinderella) {
    let mut table = UniversalTable::new(512);
    *table.catalog_mut() = catalog;
    let mut cindy = Cinderella::new(config);
    for e in entities {
        cindy.insert(&mut table, e).expect("reference insert");
    }
    (table, cindy)
}

/// Wire-format clone of `entities` (names, not ids — engines intern
/// independently, which is exactly what sharding does in production).
fn to_wire(entities: &[Entity], catalog: &AttributeCatalog) -> Vec<WireEntity> {
    entities
        .iter()
        .map(|e| WireEntity {
            id: e.id().0,
            attrs: e
                .attrs()
                .iter()
                .map(|(a, v)| (catalog.name(*a).expect("interned").to_string(), v.clone()))
                .collect(),
        })
        .collect()
}

/// Global Definition-1 efficiency of a sharded engine: per-shard
/// `(relevant, read)` counters summed, divided once. Query synopses are
/// rebuilt per shard from names because each shard interns its own ids.
fn sharded_efficiency(eng: &ShardedEngine, query_names: &[Vec<String>]) -> f64 {
    let (mut relevant, mut read) = (0u64, 0u64);
    for i in 0..eng.shard_count() {
        let shard = eng.shard_engine(i);
        let (r, d) = shard.with_parts(|t, c| {
            let universe = t.universe();
            let queries: Vec<Synopsis> = query_names
                .iter()
                .map(|names| {
                    Synopsis::from_attrs(
                        universe,
                        names.iter().filter_map(|n| t.catalog().lookup(n)),
                    )
                })
                .collect();
            efficiency_counters_for(t, c, &queries)
        });
        relevant += r;
        read += d;
    }
    if read == 0 { 1.0 } else { relevant as f64 / read as f64 }
}

/// Runs the differential for one dataset: rows must match the reference
/// exactly at every N; efficiency at N ∈ {2, 8} must sit within
/// `efficiency_band` (absolute) of N=1.
fn assert_sharded_matches_reference(
    dataset: &str,
    entities: Vec<Entity>,
    catalog: AttributeCatalog,
    config: Config,
    query_sets: &[Vec<String>],
    efficiency_band: f64,
) {
    let wire = to_wire(&entities, &catalog);
    let (table, cindy) = reference_for(entities, catalog, config.clone());

    // Reference rows per query set.
    let reference_rows: Vec<Vec<String>> = query_sets
        .iter()
        .map(|names| {
            let q = Query::from_names(table.catalog(), names.iter().map(String::as_str))
                .expect("reference knows all queried attributes");
            let p = plan(&q, cindy.catalog().pruning_view().map(|(s, syn, _)| (s, syn)));
            let (_, rows) = execute_collect(&table, &q, &p).expect("reference execute");
            canonical(&rows)
        })
        .collect();

    let mut eff_at_one = None;
    for shards in [1usize, 2, 8] {
        let eng = ShardedEngine::in_memory(ShardedOptions::new(
            EngineOptions { config: config.clone(), pool_pages: 512, ..EngineOptions::default() },
            shards,
        ));
        for e in &wire {
            eng.insert(e).expect("sharded insert");
        }
        assert_eq!(
            eng.stats().entities as usize,
            table.entity_count(),
            "{dataset} N={shards}: entity count diverges"
        );
        for (names, want) in query_sets.iter().zip(&reference_rows) {
            let (rows, _) = eng.query(names).expect("sharded query");
            assert_eq!(
                &canonical(&rows),
                want,
                "{dataset} N={shards}: rows diverge for {names:?}"
            );
        }
        let violations = eng.validate().expect("sharded validate");
        assert!(
            violations.is_empty(),
            "{dataset} N={shards}: per-shard validation failed: {violations:?}"
        );
        let eff = sharded_efficiency(&eng, query_sets);
        let anchor = *eff_at_one.get_or_insert(eff);
        assert!(
            (eff - anchor).abs() <= efficiency_band,
            "{dataset} N={shards}: efficiency {eff:.4} outside band {efficiency_band} \
             of N=1 efficiency {anchor:.4}"
        );
    }
}

#[test]
fn sharded_matches_unsharded_on_tpch() {
    let mut catalog = AttributeCatalog::new();
    let entities = {
        let (e, _) =
            TpchGenerator::new(TpchConfig { scale: 0.002, seed: 3 }).generate(&mut catalog);
        e
    };
    let query_sets: Vec<Vec<String>> = tpch_query_columns()
        .iter()
        .map(|(_, cols)| cols.iter().map(|c| (*c).to_string()).collect())
        .collect();
    // Disjoint relations + generous capacity: every shard rediscovers one
    // partition per relation, so the efficiency counters agree exactly.
    assert_sharded_matches_reference(
        "tpch",
        entities,
        catalog,
        partitioner_config(),
        &query_sets,
        1e-12,
    );
}

#[test]
fn sharded_matches_unsharded_on_dbpedia() {
    use cind_datagen::{DbpediaConfig, DbpediaGenerator};
    let mut catalog = AttributeCatalog::new();
    let entities = DbpediaGenerator::new(DbpediaConfig {
        entities: 3_000,
        attributes: 60,
        groups: 8,
        ..DbpediaConfig::default()
    })
    .generate(&mut catalog);
    // A person-ish workload: identity lookups, career queries, tail scans.
    let query_sets: Vec<Vec<String>> = [
        vec!["name", "birthDate"],
        vec!["occupation", "nationality"],
        vec!["team", "position", "club"],
        vec!["party", "office"],
        vec!["genre", "instrument"],
        vec!["award", "knownFor"],
        vec!["attr40", "attr41", "attr42"],
    ]
    .iter()
    .map(|set| set.iter().map(|s| (*s).to_string()).collect())
    .collect();
    let config = Config {
        weight: 0.2,
        capacity: Capacity::MaxEntities(400),
        ..Config::default()
    };
    // Irregular data: split boundaries shift with each shard's 1/N sample,
    // so partition quality differs slightly across N — the band states how
    // much drift hash-partitioning is allowed to cost.
    assert_sharded_matches_reference("dbpedia", entities, catalog, config, &query_sets, 0.05);
}
