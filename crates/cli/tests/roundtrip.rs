//! Property test: arbitrary sparse tables round-trip through the whole
//! CLI pipeline — CSV → load (partition + snapshot) → query — with exact
//! answers.

use cind_cli::{load, query, LoadOptions, QueryOptions};
use cinderella_core::Config;
use proptest::prelude::*;

/// One generated row: id and an optional value per attribute column.
#[derive(Clone, Debug)]
struct Row {
    id: u64,
    cells: Vec<Option<i64>>,
}

const COLS: usize = 6;

fn rows() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(prop::option::of(-1000i64..1000), COLS),
        1..40,
    )
    .prop_map(|rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, cells)| Row { id: i as u64, cells })
            .collect()
    })
}

fn to_csv(rows: &[Row]) -> String {
    let mut out = String::from("id");
    for c in 0..COLS {
        out.push_str(&format!(",attr{c}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&row.id.to_string());
        for cell in &row.cells {
            out.push(',');
            if let Some(v) = cell {
                out.push_str(&v.to_string());
            }
        }
        out.push('\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csv_load_query_roundtrip(rows in rows(), qcol in 0..COLS) {
        let dir = std::env::temp_dir().join(format!(
            "cind_cli_prop_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("in.csv");
        let snap = dir.join("t.cind");
        std::fs::write(&input, to_csv(&rows)).unwrap();

        load(
            &input,
            &snap,
            &LoadOptions {
                config: Config {
                    weight: 0.3,
                    capacity: 10,
                    ..Config::default()
                },
                ..LoadOptions::default()
            },
        )
        .expect("load");

        let attr = format!("attr{qcol}");
        let expected = rows.iter().filter(|r| r.cells[qcol].is_some()).count();
        match query(
            &snap,
            &[attr.as_str()],
            &QueryOptions { limit: None, pool_pages: 64, ..QueryOptions::default() },
        ) {
            Ok(out) => {
                prop_assert!(
                    out.contains(&format!("\n{expected} rows;")),
                    "expected {expected} rows in:\n{out}"
                );
            }
            Err(e) => {
                // The attribute exists in the header, so the query must
                // never fail.
                prop_assert!(false, "query failed: {e}");
            }
        }
    }
}
