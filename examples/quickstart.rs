//! Quickstart: partition a handful of products online and query them.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Walks the paper's Figure 2 scenario end to end: insert irregular
//! entities, watch Cinderella assign them to partitions (creating and
//! splitting as needed), then run a selective query that prunes the
//! irrelevant partitions.

use cinderella::core::{Cinderella, Config, InsertOutcome};
use cinderella::model::{Entity, EntityId, Value};
use cinderella::query::{execute_collect, plan, Query};
use cinderella::storage::UniversalTable;

fn main() {
    // A universal table with a 64-page buffer pool, and a Cinderella
    // instance with the paper's recommended weight and a tiny partition
    // capacity so the example shows a split.
    let mut table = UniversalTable::new(64);
    let mut cindy = Cinderella::new(Config {
        weight: 0.3,
        capacity: 3,
        ..Config::default()
    });

    // The Fig. 1 product catalog: cameras, a TV, a hard drive — attribute
    // sets overlap but differ per kind.
    let products: Vec<(&str, Vec<(&str, Value)>)> = vec![
        ("Canon PowerShot S120", vec![
            ("resolution", Value::Float(12.1)),
            ("aperture", Value::Float(2.0)),
            ("screen", Value::Float(3.0)),
            ("weight", Value::Int(198)),
        ]),
        ("Sony SLT-A99", vec![
            ("resolution", Value::Float(24.0)),
            ("screen", Value::Float(3.0)),
            ("weight", Value::Int(733)),
        ]),
        ("Samsung Galaxy S4", vec![
            ("resolution", Value::Float(13.0)),
            ("screen", Value::Float(4.3)),
            ("storage", Value::Text("32GB".into())),
            ("weight", Value::Int(133)),
        ]),
        ("LG 60LA7408", vec![
            ("resolution", Value::Text("Full HD".into())),
            ("screen", Value::Float(40.0)),
            ("tuner", Value::Text("DVB-T/C/S".into())),
            ("weight", Value::Int(9800)),
        ]),
        ("WD4000FYYZ", vec![
            ("storage", Value::Text("4TB".into())),
            ("rotation", Value::Int(7200)),
            ("formFactor", Value::Text("3.5\"".into())),
        ]),
        ("Garmin Dakota 20", vec![
            ("screen", Value::Float(2.6)),
            ("weight", Value::Int(150)),
        ]),
    ];

    println!("inserting {} products (B = 3, w = 0.3):\n", products.len());
    for (i, (name, attrs)) in products.into_iter().enumerate() {
        let mut pairs = vec![(table.catalog_mut().intern("name"), Value::from(name))];
        for (attr, value) in attrs {
            pairs.push((table.catalog_mut().intern(attr), value));
        }
        let entity = Entity::new(EntityId(i as u64), pairs).expect("unique attributes");
        let outcome = cindy.insert(&mut table, entity).expect("insert succeeds");
        let describe = match outcome {
            InsertOutcome::Inserted(seg) => format!("joined partition {seg}"),
            InsertOutcome::NewPartition(seg) => format!("opened partition {seg}"),
            InsertOutcome::Split { from, into } => {
                format!("overflowed {from}, split into {} and {}", into.0, into.1)
            }
        };
        println!("  {name:<22} → {describe}");
    }

    println!("\npartition catalog:");
    for meta in cindy.catalog().iter() {
        let attrs: Vec<String> = meta
            .attr_synopsis
            .iter()
            .filter_map(|a| table.catalog().name(a).map(str::to_owned))
            .collect();
        println!(
            "  {}: {} entities, sparseness {:.2}, attributes {{{}}}",
            meta.segment,
            meta.entities,
            meta.sparseness(),
            attrs.join(", ")
        );
    }

    // A selective query: hard drives only. The paper's query form returns
    // entities instantiating at least one requested attribute, so asking
    // for `rotation, formFactor` prunes every partition without them
    // before any data is read.
    let query = Query::from_names(table.catalog(), ["rotation", "formFactor"])
        .expect("attributes exist");
    let view: Vec<_> = cindy
        .catalog()
        .pruning_view()
        .map(|(seg, syn, _)| (seg, syn.clone()))
        .collect();
    let p = plan(&query, view.iter().map(|(s, syn)| (*s, syn)));
    let (result, rows) = execute_collect(&table, &query, &p).expect("plan is live");

    println!(
        "\nSELECT rotation, formFactor WHERE … IS NOT NULL → {} row(s), \
         scanned {} of {} partitions ({} pruned):",
        result.rows,
        result.segments_read,
        result.segments_read + result.segments_pruned,
        result.segments_pruned,
    );
    for row in rows {
        let cells: Vec<String> = row
            .iter()
            .map(|v| v.as_ref().map_or("NULL".to_owned(), Value::to_string))
            .collect();
        println!("  {}", cells.join(" | "));
    }
}
