//! A living product catalog: inserts, updates, and deletes under
//! Cinderella, with the partitioning quality tracked over time.
//!
//! ```sh
//! cargo run --release --example product_catalog
//! ```
//!
//! The paper's motivating scenario (§I): an electronics catalog where new
//! kinds of products keep appearing and existing products change shape
//! (a camera gains Wi-Fi, a drive loses its spec sheet). Cinderella keeps
//! the partitioning fit *online*, while the catalog is modified — no
//! re-partitioning job, no DBA.

use cinderella::core::{efficiency, Cinderella, Config};
use cinderella::datagen::ProductGenerator;
use cinderella::model::{EntityId, Synopsis, Value};
use cinderella::storage::UniversalTable;

fn main() {
    let mut table = UniversalTable::new(256);
    let mut cindy = Cinderella::new(Config {
        weight: 0.3,
        capacity: 200,
        ..Config::default()
    });

    // Phase 1: the initial catalog — 2 000 products over 7 categories.
    let (products, origin) = ProductGenerator::new(42).generate(table.catalog_mut(), 2_000);
    let categories = ProductGenerator::category_names();
    for e in products {
        cindy.insert(&mut table, e).expect("insert");
    }
    println!(
        "phase 1: loaded 2000 products over {} categories → {} partitions, {} splits",
        categories.len(),
        cindy.catalog().len(),
        cindy.stats().splits
    );

    // A per-category workload: "all compact cameras", "all drives", …
    // modelled as the attribute sets that distinguish the categories.
    let workload: Vec<Synopsis> = [
        vec!["aperture"],
        vec!["rotation", "formFactor"],
        vec!["tuner"],
        vec!["dualSim", "nfc"],
    ]
    .iter()
    .map(|names| {
        Synopsis::from_attrs(
            table.universe(),
            names.iter().map(|n| table.catalog().lookup(n).expect("known attr")),
        )
    })
    .collect();
    let eff = efficiency(&table, &cindy, &workload);
    println!("phase 1: EFFICIENCY(P) for the category workload = {eff:.3}");

    // Phase 2: product churn. A third of the smartphones gain an attribute
    // the catalog has never seen (products evolve), and every fifth
    // hard-drive generation is discontinued.
    let phone_cat = categories.iter().position(|c| *c == "smartphone").unwrap();
    let drive_cat = categories.iter().position(|c| *c == "hard-drive").unwrap();
    let mut updates = 0;
    let mut deletes = 0;
    for (i, &cat) in origin.iter().enumerate() {
        let id = EntityId(i as u64);
        if cat == phone_cat && i % 3 == 0 {
            let mut e = table.get(id).expect("phone exists");
            let attr = table.catalog_mut().intern("satelliteMessaging");
            e.set(attr, Value::Bool(true));
            cindy.update(&mut table, e).expect("update");
            updates += 1;
        } else if cat == drive_cat && i % 5 == 0 {
            cindy.delete(&mut table, id).expect("delete");
            deletes += 1;
        }
    }
    println!(
        "\nphase 2: {updates} updates (new attribute satelliteMessaging), {deletes} deletes"
    );
    println!(
        "phase 2: {} partitions, {} update-moves, {} partitions dropped",
        cindy.catalog().len(),
        cindy.stats().update_moves,
        cindy.stats().partitions_dropped
    );

    // Phase 3: a whole new product line arrives — drones, sharing some
    // attributes (name, weight) but bringing their own.
    for i in 0..150u64 {
        let id = EntityId(10_000 + i);
        let attrs = vec![
            (table.catalog_mut().intern("name"), Value::Text(format!("drone-{i}"))),
            (table.catalog_mut().intern("weight"), Value::Int(900)),
            (table.catalog_mut().intern("flightTime"), Value::Int(30)),
            (table.catalog_mut().intern("range"), Value::Int(8_000)),
            (table.catalog_mut().intern("camera"), Value::Bool(true)),
        ];
        let e = cinderella::model::Entity::new(id, attrs).expect("unique attrs");
        cindy.insert(&mut table, e).expect("insert");
    }
    let flight_time = table.catalog().lookup("flightTime").expect("new attr");
    let drone_parts: Vec<_> = cindy
        .catalog()
        .iter()
        .filter(|m| m.attr_synopsis.contains(flight_time))
        .collect();
    println!(
        "\nphase 3: 150 drones arrived → {} drone partition(s), catalog now {} partitions",
        drone_parts.len(),
        cindy.catalog().len()
    );
    for m in &drone_parts {
        println!(
            "  {}: {} entities, sparseness {:.2}",
            m.segment,
            m.entities,
            m.sparseness()
        );
    }

    let eff = efficiency(&table, &cindy, &workload);
    println!("\nfinal EFFICIENCY(P) for the category workload = {eff:.3}");
    let s = cindy.stats();
    println!(
        "lifetime stats: {} inserts, {} updates, {} deletes, {} splits, {} partitions created",
        s.inserts, s.updates, s.deletes, s.splits, s.partitions_created
    );
}
