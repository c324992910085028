//! Whole-set runs and what is done with their records: `run.sh` without
//! `--workload` (every workload, each run in a fresh child process, one
//! JSON record), `compare`, `selfcheck`, and `fingerprint`.

use std::process::{Command, Stdio};

use crate::decl::{Decl, MetricDecl};
use crate::json::Json;
use crate::stats;
use crate::workload::{
    plan_timed, plan_traced, stream_seed, timed_fingerprint, DEFAULT_SEED, HELD_OUT_SEED, SPECS,
};
use crate::Args;

/// The committed calibration record (>= 5 runs per workload): `compare`
/// takes a pair's spread from it when the records hold single runs.
const CALIBRATION_JSON: &str = include_str!("../calibration.json");

/// Traced metrics that are ratios of exact counts, so must repeat exactly
/// on one seed like the counts themselves.
const EXACT_RATIOS: [&str; 7] = [
    "engine.snapshot_refreeze_share",
    "tier.false_positive_share",
    "query.entities_scanned_per_row",
    "query.segments_pruned_share",
    "buffer.hit_ratio",
    "reorg.efficiency_gain",
    "wal.bytes_per_user_byte",
];

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the record was measured.
fn machine_note() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::Str(kernel)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
    ])
}

/// One child run: forwards its human-readable lines, returns its result
/// object (the last stdout line).
fn run_child(workload: &str, seed: u64, args: &Args, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    // Exit code 1 still carries a result (correct = false); anything else
    // is a crash.
    match out.status.code() {
        Some(0 | 1) => {
            Json::parse(last).map_err(|e| format!("{workload}: unreadable result line: {e}"))
        }
        code => Err(format!("{workload}: child exited with {code:?}")),
    }
}

/// `(name, value, unit)` of every member of a `{name: {value, unit}}` map.
fn metric_values(metrics: Option<&Json>) -> Vec<(String, f64, String)> {
    metrics
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            )
        })
        .collect()
}

/// Runs every workload `args.runs` times (seeds `seed, seed + 1, ...`),
/// plus one traced run each under `--trace`, and returns the record.
fn measure(args: &Args, decl: &Decl) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for spec in &SPECS {
        let why = decl
            .workloads
            .iter()
            .find(|w| w.0 == spec.name)
            .map_or("", |w| w.1.as_str());
        println!("# == {}: {why}", spec.name);
        let mut series: Vec<(String, String, Vec<f64>)> = Vec::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for r in 0..args.runs {
            let result = run_child(spec.name, args.seed + r as u64, args, false)?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for (name, value, unit) in metric_values(result.get("metrics")) {
                match series.iter_mut().find(|s| s.0 == name) {
                    Some(s) => s.2.push(value),
                    None => series.push((name, unit, vec![value])),
                }
            }
        }
        let end_to_end = series.into_iter().map(|(name, unit, values)| {
            let (q1, median, q3) =
                stats::quartiles(&values).unwrap_or((values[0], values[0], values[0]));
            let body = Json::obj([
                ("unit", Json::Str(unit)),
                ("median", Json::Num(median)),
                ("q1", Json::Num(q1)),
                ("q3", Json::Num(q3)),
                (
                    "values",
                    Json::Arr(values.into_iter().map(Json::Num).collect()),
                ),
            ]);
            (name, body)
        });
        let mut members = vec![
            ("attempted".to_string(), Json::Num(attempted)),
            ("failed".to_string(), Json::Num(failed)),
            ("end_to_end".to_string(), Json::Obj(end_to_end.collect())),
        ];
        if args.trace {
            let result = run_child(spec.name, args.seed, args, true)?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            let per_layer =
                metric_values(result.get("metrics"))
                    .into_iter()
                    .map(|(name, value, unit)| {
                        (
                            name,
                            Json::obj([("unit", Json::Str(unit)), ("value", Json::Num(value))]),
                        )
                    });
            members.push(("per_layer".to_string(), Json::Obj(per_layer.collect())));
        }
        workloads.push((spec.name.to_string(), Json::Obj(members)));
    }
    let record = Json::obj([
        ("schema", Json::Num(1.0)),
        ("machine", machine_note()),
        ("seed", Json::Num(args.seed as f64)),
        (
            "seconds",
            Json::Num(args.seconds.unwrap_or(decl.run_seconds)),
        ),
        ("smoke", Json::Bool(args.smoke)),
        ("runs", Json::Num(args.runs as f64)),
        ("correct", Json::Bool(all_correct)),
        ("workloads", Json::Obj(workloads)),
    ]);
    Ok((record, all_correct))
}

fn write_record(record: &Json, path: &str) -> Result<(), String> {
    if let Some(parent) = std::path::Path::new(path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    std::fs::write(path, record.pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("# record written to {path}");
    Ok(())
}

/// `run.sh` without `--workload`: the whole set into one record.
pub fn run_all(args: &Args, decl: &Decl) -> Result<bool, String> {
    let (record, correct) = measure(args, decl)?;
    let default_out = crate::harness::out_dir().join("record.json");
    write_record(
        &record,
        args.out
            .as_deref()
            .unwrap_or(&default_out.to_string_lossy()),
    )?;
    Ok(correct)
}

/// One row of a comparison.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// Within the bound, but the run-to-run spread is wider than the bound,
    /// so "unchanged" cannot be told from "changed".
    Unresolved,
}

/// How much worse `head` is than `base`, as a share of `base` (negative =
/// better).
pub fn worsening(decl: &MetricDecl, base: f64, head: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    let change = (head - base) / base.abs();
    if decl.higher_is_better {
        -change
    } else {
        change
    }
}

pub fn verdict(decl: &MetricDecl, base: f64, head: f64, spread: f64) -> Verdict {
    let bound = decl.bound.unwrap_or(f64::INFINITY);
    if worsening(decl, base, head) > bound {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn e2e<'a>(record: &'a Json, workload: &str, metric: &str) -> Option<&'a Json> {
    record
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)
}

/// Inter-quartile spread of one metric in a record, as a share of its
/// median; `None` for single-run records.
fn record_spread(record: &Json, workload: &str, metric: &str) -> Option<f64> {
    let m = e2e(record, workload, metric)?;
    let values: Vec<f64> = m
        .get("values")?
        .as_arr()
        .iter()
        .filter_map(Json::as_f64)
        .collect();
    (values.len() >= 2).then(|| stats::spread(&values))
}

/// Prints one row per (end-to-end metric, workload) and returns whether
/// nothing regressed and `failed` did not rise.
pub fn compare(base: &Json, head: &Json, decl: &Decl) -> Result<bool, String> {
    let calibration = Json::parse(CALIBRATION_JSON)?;
    let mut clean = true;
    println!(
        "{:<16} {:<14} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "base", "head", "worse", "spread", "bound"
    );
    for spec in &SPECS {
        for m in &decl.end_to_end {
            let median = |r: &Json| {
                e2e(r, spec.name, &m.name)
                    .and_then(|v| v.get("median"))
                    .and_then(Json::as_f64)
            };
            let (Some(b), Some(h)) = (median(base), median(head)) else {
                return Err(format!("{} / {}: missing from a record", spec.name, m.name));
            };
            let spread = [base, head]
                .iter()
                .filter_map(|r| record_spread(r, spec.name, &m.name))
                .reduce(f64::max)
                .or_else(|| record_spread(&calibration, spec.name, &m.name))
                .unwrap_or(0.0);
            let v = verdict(m, b, h, spread);
            clean &= v != Verdict::Regressed;
            println!(
                "{:<16} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.0}%  {}",
                spec.name,
                m.name,
                b,
                h,
                worsening(m, b, h) * 100.0,
                spread * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        let failed = |r: &Json| {
            r.get("workloads")
                .and_then(|w| w.get(spec.name))
                .and_then(|w| w.get("failed"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        if failed(head) > failed(base) {
            clean = false;
            println!(
                "{:<16} failed rose from {} to {}  REGRESSED",
                spec.name,
                failed(base),
                failed(head)
            );
        }
    }
    Ok(clean)
}

fn read_record(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

/// `run.sh compare BASE.json HEAD.json`.
pub fn compare_files(args: &Args, decl: &Decl) -> Result<bool, String> {
    let [base, head] = args.positional.as_slice() else {
        return Err("compare needs BASE.json HEAD.json".to_string());
    };
    compare(&read_record(base)?, &read_record(head)?, decl)
}

/// `run.sh selfcheck`: the whole set twice on one build, traced, then the
/// two compared; on top, everything that is a count must repeat exactly.
pub fn selfcheck(args: &Args, decl: &Decl) -> Result<bool, String> {
    let args = Args {
        trace: true,
        ..args.clone()
    };
    let (first, ok_a) = measure(&args, decl)?;
    let (second, ok_b) = measure(&args, decl)?;
    let dir = crate::harness::out_dir();
    write_record(&first, &dir.join("selfcheck-a.json").to_string_lossy())?;
    write_record(&second, &dir.join("selfcheck-b.json").to_string_lossy())?;
    let mut clean = compare(&first, &second, decl)? && ok_a && ok_b;

    let layer = |r: &Json, w: &str| {
        metric_values(
            r.get("workloads")
                .and_then(|x| x.get(w))
                .and_then(|x| x.get("per_layer")),
        )
    };
    for spec in &SPECS {
        for ((name, a, unit), (_, b, _)) in layer(&first, spec.name)
            .into_iter()
            .zip(layer(&second, spec.name))
        {
            let exact = unit == "count" || unit == "bytes" || EXACT_RATIOS.contains(&name.as_str());
            if exact && a.to_bits() != b.to_bits() {
                clean = false;
                println!("{:<16} {name}: {a} then {b}  NOT REPEATABLE", spec.name);
            }
        }
    }
    // One connection, so the timed drift run repeats its EFFICIENCY too.
    let eff = |r: &Json| {
        e2e(r, "drift_reorg", "efficiency")
            .and_then(|m| m.get("values"))
            .map(|v| v.render())
    };
    if eff(&first) != eff(&second) {
        clean = false;
        println!(
            "drift_reorg efficiency: {:?} then {:?}  NOT REPEATABLE",
            eff(&first),
            eff(&second)
        );
    }
    println!(
        "selfcheck: {}",
        if clean {
            "two sets agree"
        } else {
            "two sets DISAGREE"
        }
    );
    Ok(clean)
}

/// `run.sh fingerprint`: the plan hashes `fingerprints.json` freezes, plus
/// the held-out seed's for reference.
pub fn fingerprints(decl: &Decl) -> Json {
    let section = |seed: u64, traced: bool| {
        Json::Obj(
            SPECS
                .iter()
                .map(|spec| {
                    let fingerprint = if traced {
                        plan_traced(spec, seed, decl.run_seconds).fingerprint
                    } else {
                        timed_fingerprint((0..spec.streams).map(|s| {
                            plan_timed(spec, stream_seed(seed, s), decl.run_seconds).fingerprint
                        }))
                    };
                    (
                        spec.name.to_string(),
                        Json::Str(format!("{fingerprint:016x}")),
                    )
                })
                .collect(),
        )
    };
    Json::obj([
        ("seed", Json::Num(DEFAULT_SEED as f64)),
        ("seconds", Json::Num(decl.run_seconds)),
        ("timed", section(DEFAULT_SEED, false)),
        ("traced", section(DEFAULT_SEED, true)),
        ("held_out_seed", Json::Num(HELD_OUT_SEED as f64)),
        ("held_out_timed", section(HELD_OUT_SEED, false)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(higher: bool, bound: f64) -> MetricDecl {
        MetricDecl {
            name: "m".into(),
            unit: "us".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = decl(false, 0.10);
        assert_eq!(verdict(&lower, 100.0, 109.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(&lower, 100.0, 111.0, 0.02), Verdict::Regressed);
        assert_eq!(verdict(&lower, 100.0, 50.0, 0.02), Verdict::Ok);
        assert_eq!(verdict(&lower, 100.0, 105.0, 0.12), Verdict::Unresolved);
        // Beyond the bound is a regression however wide the spread.
        assert_eq!(verdict(&lower, 100.0, 120.0, 0.5), Verdict::Regressed);
        let higher = decl(true, 0.10);
        assert_eq!(verdict(&higher, 100.0, 91.0, 0.0), Verdict::Ok);
        assert_eq!(verdict(&higher, 100.0, 89.0, 0.0), Verdict::Regressed);
        assert_eq!(verdict(&higher, 100.0, 200.0, 0.0), Verdict::Ok);
    }

    /// A record with one run of every workload and metric at `value`,
    /// except `(workload, metric)` at `odd`.
    fn record(d: &Decl, value: f64, odd: Option<(&str, &str, f64)>, failed: f64) -> Json {
        let workloads = SPECS.iter().map(|spec| {
            let metrics = d.end_to_end.iter().map(|m| {
                let v = match odd {
                    Some((w, n, v)) if w == spec.name && n == m.name => v,
                    _ => value,
                };
                (
                    m.name.clone(),
                    Json::obj([
                        ("unit", Json::Str(m.unit.clone())),
                        ("median", Json::Num(v)),
                        ("values", Json::Arr(vec![Json::Num(v)])),
                    ]),
                )
            });
            (
                spec.name.to_string(),
                Json::obj([
                    ("failed", Json::Num(failed)),
                    ("end_to_end", Json::Obj(metrics.collect())),
                ]),
            )
        });
        Json::obj([("workloads", Json::Obj(workloads.collect()))])
    }

    #[test]
    fn compare_flags_regressions_and_failures_only() {
        let d = Decl::load();
        let base = record(&d, 100.0, None, 0.0);
        assert_eq!(compare(&base, &base, &d), Ok(true));
        // query_p50_us is lower-is-better: +60 % is beyond any bound <= 0.25.
        let slower = record(&d, 100.0, Some(("scan_only", "query_p50_us", 160.0)), 0.0);
        assert_eq!(compare(&base, &slower, &d), Ok(false));
        assert_eq!(compare(&slower, &base, &d), Ok(true));
        // ops_per_s is higher-is-better: a drop regresses, a rise does not.
        let less = record(&d, 100.0, Some(("ingest_mem", "ops_per_s", 60.0)), 0.0);
        assert_eq!(compare(&base, &less, &d), Ok(false));
        let more = record(&d, 100.0, Some(("ingest_mem", "ops_per_s", 160.0)), 0.0);
        assert_eq!(compare(&base, &more, &d), Ok(true));
        // Any rise in failed ops fails the comparison.
        assert_eq!(compare(&base, &record(&d, 100.0, None, 1.0), &d), Ok(false));
        // A record missing a declared metric is an error, not a pass.
        assert!(compare(
            &base,
            &Json::obj([("workloads", Json::Obj(Vec::new()))]),
            &d
        )
        .is_err());
    }
}
