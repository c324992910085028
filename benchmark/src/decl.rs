//! `BENCHMARK.json` as the single declaration of what is measured: metric
//! names, units, directions, regression bounds, workloads, run length. The
//! file is compiled in, so a binary can never report against a stale copy.

use crate::json::Json;

/// The root `BENCHMARK.json`, as committed with this source.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDecl {
    pub name: String,
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the base median the metric may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Clone, Debug)]
pub struct Decl {
    pub run_seconds: f64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricDecl>,
    pub per_layer: Vec<MetricDecl>,
}

fn metrics(list: &Json) -> Result<Vec<MetricDecl>, String> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("metric without {k}"))
            };
            let better = field("better")?;
            Ok(MetricDecl {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher|lower, got {other}")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Decl {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    /// Syntax errors and missing fields.
    pub fn parse(text: &str) -> Result<Decl, String> {
        let doc = Json::parse(text)?;
        let workloads = doc
            .get("workloads")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|w| {
                let s = |k: &str| {
                    w.get(k)
                        .and_then(Json::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (s("name"), s("why"))
            })
            .collect();
        Ok(Decl {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("no run_seconds")?,
            workloads,
            end_to_end: metrics(doc.get("end_to_end").ok_or("no end_to_end")?)?,
            per_layer: metrics(doc.get("per_layer").ok_or("no per_layer")?)?,
        })
    }

    /// The compiled-in declaration.
    ///
    /// # Panics
    /// Panics if the committed `BENCHMARK.json` does not parse — a build
    /// with a broken declaration must not measure anything.
    pub fn load() -> Decl {
        Decl::parse(BENCHMARK_JSON).expect("committed BENCHMARK.json parses")
    }
}
