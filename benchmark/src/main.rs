//! `cind-benchmark`: the repo's one benchmark — five workloads, the
//! end-to-end metrics of a timed run, and the per-layer metrics of a traced
//! run — behind `benchmark/run.sh`. See `benchmark/README.md`.

mod decl;
mod harness;
mod json;
mod layers;
mod oracle;
mod record;
mod stats;
mod timed;
mod trace;
mod workload;

use std::process::ExitCode;

use decl::Decl;
use harness::Outcome;
use json::Json;
use workload::{Spec, DEFAULT_SEED};

/// Frozen default-seed fingerprints (`run.sh fingerprint` regenerates).
const FINGERPRINTS_JSON: &str = include_str!("../fingerprints.json");
/// `--smoke` plans a fiftieth of the frozen run length.
const SMOKE_DIVISOR: f64 = 50.0;

const USAGE: &str = "usage: benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--smoke] [--runs N] [--out FILE]
       benchmark/run.sh compare BASE.json HEAD.json
       benchmark/run.sh selfcheck [--seed N] [--runs N]
       benchmark/run.sh fingerprint
With --workload: one run of one workload in this process; the last stdout
line is the result object. Without: every workload, each run in a fresh
child process, gathered into one record (default benchmark/out/record.json).";

/// Parsed command line.
#[derive(Clone)]
pub struct Args {
    pub command: Option<String>,
    pub positional: Vec<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    pub smoke: bool,
    pub runs: usize,
    pub out: Option<String>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: None,
    };
    let mut it = raw.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                let v = value("--seed")?;
                args.seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse(), |h| u64::from_str_radix(h, 16))
                    .map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {v} out of range"));
                }
                args.seconds = Some(s);
            }
            "--runs" => {
                let v = value("--runs")?;
                args.runs = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or(format!("bad --runs {v}"))?;
            }
            "--out" => args.out = Some(value("--out")?),
            "--smoke" => args.smoke = true,
            // `--trace` alone means on; the driver passes `--trace 0|1`.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "-h" | "--help" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}\n{USAGE}")),
            word if args.command.is_none() && args.positional.is_empty() => {
                args.command = Some(word.to_string());
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

/// The frozen fingerprint of `spec`'s plan, when this run is the frozen
/// shape (default seed, frozen run length, not smoke).
fn frozen_fingerprint(spec: &Spec, args: &Args, scale: f64) -> Result<Option<u64>, String> {
    let doc = Json::parse(FINGERPRINTS_JSON)?;
    let frozen_shape = !args.smoke
        && doc.get("seed").and_then(Json::as_f64) == Some(args.seed as f64)
        && doc.get("seconds").and_then(Json::as_f64) == Some(scale);
    if !frozen_shape {
        return Ok(None);
    }
    let section = if args.trace { "traced" } else { "timed" };
    Ok(doc
        .get(section)
        .and_then(|s| s.get(spec.name))
        .and_then(Json::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok()))
}

/// One run of one workload in this process: prints notes, every declared
/// metric of the mode by name with its unit, then the result object.
fn run_one(spec: &Spec, args: &Args, decl: &Decl) -> Result<bool, String> {
    let scale = match (args.seconds, args.smoke) {
        (Some(s), false) => s,
        (Some(s), true) => s / SMOKE_DIVISOR,
        (None, false) => decl.run_seconds,
        (None, true) => decl.run_seconds / SMOKE_DIVISOR,
    };
    let frozen = frozen_fingerprint(spec, args, scale)?;
    let Outcome {
        metrics,
        attempted,
        failed,
        notes,
    } = if args.trace {
        layers::run(spec, args.seed, scale, frozen)?
    } else {
        timed::run(spec, args.seed, scale, frozen)?
    };
    println!(
        "# workload {} seed {} scale {scale} trace {}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    for note in &notes {
        println!("# {note}");
    }
    let declared = if args.trace {
        &decl.per_layer
    } else {
        &decl.end_to_end
    };
    let mut members = Vec::new();
    for d in declared {
        let m = metrics
            .iter()
            .find(|m| m.name == d.name)
            .ok_or(format!("declared metric {} was not measured", d.name))?;
        if m.unit != d.unit {
            return Err(format!(
                "{}: measured in {}, declared in {}",
                d.name, m.unit, d.unit
            ));
        }
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
        members.push((
            m.name.to_string(),
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.to_string())),
            ]),
        ));
    }
    if let Some(extra) = metrics
        .iter()
        .find(|m| declared.iter().all(|d| d.name != m.name))
    {
        return Err(format!(
            "measured metric {} is not declared in BENCHMARK.json",
            extra.name
        ));
    }
    let correct = failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(attempted.max(1) as f64)),
            ("failed", Json::Num(failed as f64)),
            ("metrics", Json::Obj(members)),
        ])
        .render()
    );
    Ok(correct)
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw)?;
    let decl = Decl::load();
    match args.command.as_deref() {
        None => match &args.workload {
            Some(name) => {
                let spec = workload::spec(name).ok_or(format!("unknown workload {name}"))?;
                run_one(spec, &args, &decl)
            }
            None => record::run_all(&args, &decl),
        },
        Some("compare") => record::compare_files(&args, &decl),
        Some("selfcheck") => record::selfcheck(&args, &decl),
        Some("fingerprint") => {
            println!("{}", record::fingerprints(&decl).pretty());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("cind-benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declaration_is_well_formed_and_matches_the_workloads() {
        let decl = Decl::load();
        let mut names: Vec<&str> = Vec::new();
        for m in decl.end_to_end.iter().chain(&decl.per_layer) {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(
                !names.contains(&m.name.as_str()),
                "{} declared twice",
                m.name
            );
            names.push(&m.name);
        }
        for m in &decl.end_to_end {
            assert!(
                m.bound.is_some_and(|b| b > 0.0 && b <= 0.25),
                "{} needs a bound in (0, 0.25]",
                m.name
            );
        }
        assert!(decl
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
        assert_eq!(decl.run_seconds, workload::FROZEN_SECONDS);
        let declared: Vec<&str> = decl.workloads.iter().map(|w| w.0.as_str()).collect();
        let planned: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        assert_eq!(declared, planned);
        assert!(decl
            .workloads
            .iter()
            .all(|w| name_ok(&w.0) && !w.1.is_empty() && w.1.len() <= 200));
    }

    /// Runs the smallest workload end to end in both modes and checks the
    /// emitted metric names against the declaration, both ways, and that a
    /// result line survives the JSON writer and reader.
    #[test]
    fn every_emitted_metric_is_declared_and_vice_versa() {
        let decl = Decl::load();
        let spec = workload::spec("drift_reorg").unwrap();
        for (traced, declared) in [(false, &decl.end_to_end), (true, &decl.per_layer)] {
            let outcome = if traced {
                layers::run(spec, 7, 0.1, None)
            } else {
                timed::run(spec, 7, 0.1, None)
            }
            .expect("tiny run succeeds");
            assert_eq!(outcome.failed, 0, "{:?}", outcome.notes);
            let mut emitted: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
            let mut wanted: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
            emitted.sort_unstable();
            wanted.sort_unstable();
            assert_eq!(emitted, wanted);
            for m in &outcome.metrics {
                let d = declared.iter().find(|d| d.name == m.name).unwrap();
                assert_eq!(d.unit, m.unit, "{}", m.name);
            }
            let line = Json::obj(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([
                        ("value", Json::Num(m.value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            }))
            .render();
            let back = Json::parse(&line).expect("result line parses");
            for m in &outcome.metrics {
                let v = back
                    .get(m.name)
                    .and_then(|x| x.get("value"))
                    .and_then(Json::as_f64);
                assert!(
                    v == Some(m.value) || (v.is_none() && !m.value.is_finite()),
                    "{}",
                    m.name
                );
            }
        }
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |words: &[&str]| {
            parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>()).unwrap()
        };
        assert!(parse(&["--trace"]).trace);
        assert!(parse(&["--trace", "1", "--seed", "9"]).trace);
        assert!(!parse(&["--trace", "0"]).trace);
        let a = parse(&[
            "--workload",
            "scan_only",
            "--seed",
            "0x10",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]);
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds),
            (Some("scan_only"), 16, Some(3.0))
        );
        let c = parse(&["compare", "a.json", "b.json"]);
        assert_eq!(
            (c.command.as_deref(), c.positional.len()),
            (Some("compare"), 2)
        );
    }
}
