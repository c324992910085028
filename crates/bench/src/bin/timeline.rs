//! Definition 2, made visible: EFFICIENCY(P) tracked *continuously* while
//! the universal table is modified.
//!
//! The paper defines online partitioning as keeping `EFFICIENCY(P)`
//! maximised "under the presence of modification operations" (Def. 2) but
//! never plots the trajectory. This harness does: it streams the
//! DBpedia-like entities through three phases — growth (inserts), churn
//! (mixed updates/deletes/inserts), decay (mass deletes) — and records the
//! efficiency, partition count, and mean partition fill at checkpoints,
//! with and without the merge-pass maintenance extension during decay.

#![forbid(unsafe_code)]

use cind_bench::{dbpedia_dataset, representative_queries, ExperimentEnv};
use cind_metrics::Table;
use cind_model::{Entity, EntityId, Synopsis};
use cind_storage::UniversalTable;
use cinderella_core::{efficiency, Cinderella, Config};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = ExperimentEnv::from_args();
    let mut table = UniversalTable::new(env.pool_pages);
    let entities = dbpedia_dataset(&env, &mut table);
    let universe = table.universe();
    let specs = representative_queries(universe, &entities);
    let workload: Vec<Synopsis> = specs
        .iter()
        .map(|s| Synopsis::from_attrs(universe, s.attrs.iter().copied()))
        .collect();

    let mut cindy = Cinderella::new(Config {
        weight: 0.2,
        capacity: 2_000,
        ..Config::default()
    });
    let mut rng = StdRng::seed_from_u64(env.seed);
    let checkpoint_every = (entities.len() / 10).max(1);

    let mut t = Table::new([
        "phase",
        "op#",
        "entities",
        "partitions",
        "efficiency",
        "mean fill",
    ]);
    let mut ops = 0usize;
    let checkpoint = |phase: &str,
                          ops: usize,
                          t: &mut Table,
                          table: &UniversalTable,
                          cindy: &Cinderella| {
        let eff = efficiency(table, cindy, &workload);
        let parts = cindy.catalog().len().max(1);
        let fill = table.entity_count() as f64 / parts as f64
            / 2_000.0; // fraction of B
        t.row([
            phase.to_owned(),
            ops.to_string(),
            table.entity_count().to_string(),
            cindy.catalog().len().to_string(),
            format!("{eff:.4}"),
            format!("{fill:.3}"),
        ]);
    };

    // Phase 1: growth.
    let total = entities.len();
    let mut pool: Vec<Entity> = Vec::with_capacity(total);
    for e in entities {
        pool.push(e.clone());
        cindy.insert(&mut table, e).expect("insert");
        ops += 1;
        if ops.is_multiple_of(checkpoint_every) {
            checkpoint("growth", ops, &mut t, &table, &cindy);
        }
    }

    // Phase 2: churn — equal parts updates (shape-mutating), deletes, and
    // re-inserts, for 30 % of the data volume.
    let churn_ops = total * 3 / 10;
    let mut next_id = total as u64;
    for i in 0..churn_ops {
        match i % 3 {
            0 => {
                // Mutate a random live entity into a random other shape.
                let donor = &pool[rng.gen_range(0..pool.len())];
                let victim = loop {
                    let id = EntityId(rng.gen_range(0..next_id));
                    if table.location(id).is_some() {
                        break id;
                    }
                };
                let e = Entity::new(victim, donor.attrs().to_vec()).expect("valid");
                cindy.update(&mut table, e).expect("update");
            }
            1 => {
                let victim = loop {
                    let id = EntityId(rng.gen_range(0..next_id));
                    if table.location(id).is_some() {
                        break id;
                    }
                };
                cindy.delete(&mut table, victim).expect("delete");
            }
            _ => {
                let donor = &pool[rng.gen_range(0..pool.len())];
                let e = Entity::new(EntityId(next_id), donor.attrs().to_vec())
                    .expect("valid");
                next_id += 1;
                cindy.insert(&mut table, e).expect("insert");
            }
        }
        ops += 1;
        if ops.is_multiple_of(checkpoint_every) {
            checkpoint("churn", ops, &mut t, &table, &cindy);
        }
    }

    // Phase 3: decay — delete 80 % of what remains, checkpointing without
    // maintenance, then run one merge pass and checkpoint again.
    let live: Vec<EntityId> = (0..next_id)
        .map(EntityId)
        .filter(|id| table.location(*id).is_some())
        .collect();
    for (i, id) in live.iter().enumerate() {
        if i % 5 != 0 {
            cindy.delete(&mut table, *id).expect("delete");
            ops += 1;
            if ops.is_multiple_of(checkpoint_every) {
                checkpoint("decay", ops, &mut t, &table, &cindy);
            }
        }
    }
    checkpoint("decay (end)", ops, &mut t, &table, &cindy);
    let report = cindy.merge_pass(&mut table, 0.5).expect("merge");
    checkpoint("after merge pass", ops, &mut t, &table, &cindy);

    println!(
        "Definition 2 timeline — EFFICIENCY(P) under modifications \
         ({} entities, B = 2000, w = 0.2)\n",
        total
    );
    println!("{}", t.render());
    println!(
        "\nmerge pass at decay end: {} merges, {} entities moved",
        report.merges, report.entities_moved
    );
    println!(
        "totals: {} inserts, {} updates ({} moved), {} deletes, {} splits",
        cindy.stats().inserts,
        cindy.stats().updates,
        cindy.stats().update_moves,
        cindy.stats().deletes,
        cindy.stats().splits,
    );
    env.maybe_csv("timeline", &t)?;
    Ok(())
}
