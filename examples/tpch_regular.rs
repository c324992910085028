//! Regular data: Cinderella rediscovers the TPC-H schema (§V-C).
//!
//! ```sh
//! cargo run --release --example tpch_regular
//! ```
//!
//! Loads TPC-H-shaped rows — perfectly regular, eight disjoint column
//! sets — through Cinderella and shows that the discovered partitions
//! coincide exactly with the TPC-H relations: partitioning irregular data
//! online costs nothing when the data turns out to be regular.

use cinderella::core::{Cinderella, Config};
use cinderella::datagen::{TpchConfig, TpchGenerator};
use cinderella::query::{execute, plan, Query};
use cinderella::storage::UniversalTable;

fn main() {
    let gen = TpchGenerator::new(TpchConfig { scale: 0.003, seed: 7 });
    let mut table = UniversalTable::new(256);
    let (entities, origin) = gen.generate(table.catalog_mut());
    println!(
        "generated {} TPC-H rows over {} relations (scale {})",
        entities.len(),
        gen.schema().len(),
        0.003
    );

    let mut cindy = Cinderella::new(Config {
        weight: 0.5,
        capacity: 2_000,
        ..Config::default()
    });
    for e in entities {
        cindy.insert(&mut table, e).expect("insert");
    }
    println!(
        "cinderella built {} partitions ({} splits)\n",
        cindy.catalog().len(),
        cindy.stats().splits
    );

    // Schema recovery: map every partition to the relation whose column
    // set matches its synopsis exactly.
    println!("partition → relation mapping:");
    let mut pure = true;
    let mut per_relation = vec![0usize; gen.schema().len()];
    for meta in cindy.catalog().iter() {
        let matched = gen
            .schema()
            .iter()
            .position(|rel| rel.synopsis(table.catalog()) == meta.attr_synopsis);
        match matched {
            Some(rel) => {
                per_relation[rel] += 1;
                println!(
                    "  {} ({} rows) = {}",
                    meta.segment,
                    meta.entities,
                    gen.schema()[rel].name
                );
            }
            None => {
                pure = false;
                println!("  {} MIXES RELATIONS", meta.segment);
            }
        }
    }
    assert!(pure, "every partition must hold exactly one relation's rows");
    println!("\nschema recovered exactly: every partition is one relation ✓");
    let expected = gen.row_counts();
    for (rel, (count, schema)) in per_relation.iter().zip(gen.schema()).enumerate() {
        println!(
            "  {:<10} {} partition(s) for {} rows",
            schema.name, count, expected[rel]
        );
    }

    // A TPC-H-style query (Q6 column set) prunes everything but lineitem.
    let q6 = Query::from_names(
        table.catalog(),
        ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    .expect("lineitem columns exist");
    let view: Vec<_> = cindy
        .catalog()
        .pruning_view()
        .map(|(s, syn, _)| (s, syn.clone()))
        .collect();
    let p = plan(&q6, view.iter().map(|(s, syn)| (*s, syn)));
    let r = execute(&table, &q6, &p).expect("live plan");
    let lineitem_rows = origin.iter().filter(|&&rel| rel == 7).count() as u64;
    assert_eq!(r.rows, lineitem_rows);
    println!(
        "\nQ6 column set: scanned {} partition(s), pruned {}, returned all {} lineitem rows in {:.2?}",
        r.segments_read, r.segments_pruned, r.rows, r.duration
    );
}
