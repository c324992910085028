//! The timed run (`--trace 0`): set up, drive the planned op stream over
//! loopback TCP with the public `Client`, probe, verify against the
//! oracle, and report the end-to-end metrics.
//!
//! Every stream is replayed `Spec::replays` times, each time on a fresh server.
//! One closed-loop connection makes op `i` the same work on the same state
//! in every replay, so the fastest of its replays is what it costs when the
//! host leaves the program alone; throughput and latencies are computed from
//! those per-op minima, and pooled over several streams planned from seeds
//! derived from `--seed` (README "noise").

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cind_model::EntityId;
use cind_server::{Client, Request, Response, Server, ServerError, ServerHandle, ShardedEngine};

use crate::harness::{
    self, allowed_cpus, distinct_queries, efficiency_counters, efficiency_of, fresh_store, metric,
    open_engine, peak_rss_mb, pin_to, remove_dir, serve_config, Outcome,
};
use crate::oracle::{Digest, Model};
use crate::stats;
use crate::workload::{
    check_fingerprint, inserts_of, op_count, plan_timed, stream_seed, timed_fingerprint, Plan, Spec,
};

/// What driving a list of ops measured.
#[derive(Default)]
struct Driven {
    /// Latency of every op, in order, µs.
    us: Vec<f64>,
    /// Digest of every query answer, in order.
    digests: Vec<Digest>,
    /// Busy sheds, typed errors, responses of the wrong kind.
    failed: u64,
    /// Wall time of the window part.
    window_s: f64,
}

/// Sends `ops` closed-loop (the next request leaves when the previous
/// answer is in) and times each from just before `send` to the return of
/// `recv`, decode included. A shed or failed op counts as failed and is
/// not retried.
fn drive(client: &mut Client, ops: &[Request], out: &mut Driven) -> Result<(), ServerError> {
    for op in ops {
        let sent = Instant::now();
        let resp = client.roundtrip(op)?;
        out.us.push(sent.elapsed().as_secs_f64() * 1e6);
        match (op, resp) {
            (Request::Insert(_), Response::Written { .. })
            | (Request::Delete(_), Response::Deleted) => {}
            (Request::InsertBatch(es), Response::Batch(items)) => {
                let written = items
                    .iter()
                    .filter(|r| matches!(r, Response::Written { .. }))
                    .count();
                out.failed += (es.len() - written.min(es.len())) as u64;
            }
            (Request::Query(_), Response::Rows { rows, .. }) => {
                out.digests.push(Digest::of_rows(&rows));
            }
            (Request::Query(_), _) => {
                out.digests.push(Digest::default());
                out.failed += 1;
            }
            _ => out.failed += 1,
        }
    }
    Ok(())
}

/// A planned stream with its server up, preload in, client connected.
struct Live {
    engine: Arc<ShardedEngine>,
    server: ServerHandle,
    client: Client,
    dir: Option<PathBuf>,
}

fn setup(spec: &Spec, seed: u64, seconds: f64, n: usize) -> Result<(Plan, Live), String> {
    let plan = plan_timed(spec, seed, seconds);
    let (engine, dir) = fresh_store(spec, spec.name, n, &plan.preload)?;
    let server = Server::start(Arc::clone(&engine), &serve_config(spec))
        .map_err(|e| format!("server start: {e}"))?;
    let addr = format!("127.0.0.1:{}", server.port());
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let live = Live {
        engine,
        server,
        client,
        dir,
    };
    Ok((plan, live))
}

impl Live {
    /// Crash-stops the server and removes the store.
    fn teardown(self) {
        drop(self.client);
        self.server.hard_kill();
        drop(self.engine);
        remove_dir(self.dir);
    }
}

/// What the replays of one stream add to the run.
#[derive(Default)]
struct Totals {
    setup_s: Vec<f64>,
    /// Per stream: window ops over the sum of their fastest replays.
    stream_rates: Vec<f64>,
    /// Fastest replay of every insert frame and of every query.
    insert_us: Vec<f64>,
    query_us: Vec<f64>,
    /// Definition-1 `(relevant, read)` over the streams' final stores.
    counters: (u64, u64),
    fingerprints: Vec<u64>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// One replay of a stream on a fresh server: set up, drive the window,
/// then the probes. Returns the plan and the server, still up.
fn replay(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    n: usize,
    replays: &mut Vec<Driven>,
    totals: &mut Totals,
) -> Result<(Plan, Live), String> {
    let t0 = Instant::now();
    let (plan, mut up) = setup(spec, seed, seconds, n)?;
    totals.setup_s.push(t0.elapsed().as_secs_f64());
    let mut driven = Driven::default();
    let t0 = Instant::now();
    drive(&mut up.client, &plan.ops, &mut driven).map_err(|e| format!("window: {e}"))?;
    driven.window_s = t0.elapsed().as_secs_f64();
    // Probes: the op type the window lacks, on the quiesced store.
    drive(&mut up.client, &plan.probe_inserts, &mut driven)
        .and_then(|()| drive(&mut up.client, &plan.probe_queries, &mut driven))
        .map_err(|e| format!("probe: {e}"))?;
    totals.failed += driven.failed;
    replays.push(driven);
    Ok((plan, up))
}

/// After a stream's last replay: folds its per-op minima into `totals` and
/// checks the store that replay left against the oracle.
fn finish(
    spec: &Spec,
    stream: usize,
    seed: u64,
    plan: &Plan,
    live: Live,
    replays: &[Driven],
    totals: &mut Totals,
) -> Result<(), String> {
    totals.fingerprints.push(plan.fingerprint);
    let measured: Vec<&Request> = plan
        .ops
        .iter()
        .chain(&plan.probe_inserts)
        .chain(&plan.probe_queries)
        .collect();
    totals.attempted +=
        (measured.iter().map(|op| op_count(op)).sum::<u64>()) * replays.len() as u64;

    // Per-op minima over the replays.
    let window_ops: u64 = plan.ops.iter().map(op_count).sum();
    let mut window_us = 0.0;
    for (i, op) in measured.iter().enumerate() {
        let us = replays
            .iter()
            .filter_map(|r| r.us.get(i).copied())
            .fold(f64::INFINITY, f64::min);
        if i < plan.ops.len() {
            window_us += us;
        }
        match op {
            Request::Query(_) => totals.query_us.push(us),
            Request::Insert(_) | Request::InsertBatch(_) => totals.insert_us.push(us),
            _ => {}
        }
    }
    totals
        .stream_rates
        .push(window_ops as f64 / (window_us / 1e6));
    totals.notes.push(format!(
        "stream {stream} (seed {seed}): {window_ops} window ops x {} replays; window wall \
         {} s; per-op minima sum to {:.3} s",
        replays.len(),
        replays
            .iter()
            .map(|r| format!("{:.3}", r.window_s))
            .collect::<Vec<_>>()
            .join(" "),
        window_us / 1e6
    ));

    // One connection: every replay must have seen the same answers.
    let answers = &replays.last().ok_or("no replay ran")?.digests;
    let unlike = replays.iter().filter(|r| r.digests != *answers).count();
    if unlike > 0 {
        totals.failed += unlike as u64;
        totals.notes.push(format!(
            "{unlike} replay(s) answered differently from the last"
        ));
    }

    // The last replay against the model, op by op.
    let Live {
        engine,
        server,
        mut client,
        dir,
    } = live;
    let mut model = Model::default();
    plan.preload.iter().for_each(|e| model.insert(e));
    let mut oracle_bad = 0u64;
    let mut got = answers.iter();
    for op in &measured {
        inserts_of(op).iter().for_each(|e| model.insert(e));
        if let Request::Query(attrs) = op {
            oracle_bad += u64::from(got.next() != Some(&model.expect(attrs)));
        }
    }
    let mut check = Driven::default();
    drive(&mut client, &plan.verify_queries, &mut check)
        .map_err(|e| format!("query check: {e}"))?;
    totals.attempted += plan.verify_queries.len() as u64;
    totals.failed += check.failed;
    for (op, got) in plan.verify_queries.iter().zip(&check.digests) {
        if let Request::Query(attrs) = op {
            oracle_bad += u64::from(model.expect(attrs) != *got);
        }
    }

    // Quiesced: structural validation over the wire.
    let violations = client.validate().map_err(|e| format!("validate: {e}"))?;
    totals.attempted += 1;
    if !violations.is_empty() {
        totals.failed += 1;
        totals.notes.push(format!(
            "validate: {} violation(s), first: {}",
            violations.len(),
            violations[0]
        ));
    }

    // Durability: checkpoint, a WAL suffix, crash, reopen, read back.
    let engine = if let Some(d) = &dir {
        let t0 = Instant::now();
        engine
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        let checkpoint_s = t0.elapsed().as_secs_f64();
        let mut tail = Driven::default();
        drive(&mut client, &plan.tail_inserts, &mut tail)
            .map_err(|e| format!("tail inserts: {e}"))?;
        totals.failed += tail.failed;
        totals.attempted += plan.tail_inserts.len() as u64;
        plan.tail_inserts
            .iter()
            .flat_map(inserts_of)
            .for_each(|e| model.insert(e));
        drop(client);
        server.hard_kill();
        if Arc::try_unwrap(engine).is_err() {
            totals
                .notes
                .push("old engine still referenced at reopen".to_string());
        }
        let t0 = Instant::now();
        let reopened = open_engine(spec, Some(d)).map_err(|e| format!("reopen: {e}"))?;
        let first_ok = match plan.probe_queries.first() {
            Some(Request::Query(attrs)) => match reopened.query(attrs) {
                Ok((rows, _)) => Digest::of_rows(&rows) == model.expect(attrs),
                Err(_) => false,
            },
            _ => true,
        };
        let recover_s = t0.elapsed().as_secs_f64();
        oracle_bad += u64::from(!first_ok);
        let mut lost = 0u64;
        for id in model.ids() {
            let stored = reopened
                .shard_engine(reopened.shard_of(id))
                .with_parts(|t, _| {
                    t.get(EntityId(id)).ok().map(|e| {
                        let mut attrs: Vec<(String, cind_model::Value)> = e
                            .attrs()
                            .iter()
                            .map(|(a, v)| {
                                (
                                    t.catalog().name(*a).unwrap_or_default().to_string(),
                                    v.clone(),
                                )
                            })
                            .collect();
                        attrs.sort_by(|a, b| a.0.cmp(&b.0));
                        attrs
                    })
                });
            let mut want = model.get(id).map(|e| e.attrs.clone()).unwrap_or_default();
            want.sort_by(|a, b| a.0.cmp(&b.0));
            lost += u64::from(stored.as_ref() != Some(&want));
        }
        totals.attempted += 1;
        totals.failed += lost;
        let violations = reopened
            .validate()
            .map_err(|e| format!("validate after reopen: {e}"))?;
        totals.failed += u64::from(!violations.is_empty());
        let user = plan.user_bytes();
        totals.notes.push(format!(
            "checkpoint {checkpoint_s:.3} s; recover {recover_s:.3} s (open after hard kill -> \
             first correct query); acked_lost {lost} of {} acked inserts; store {} bytes / user \
             {user} bytes = {:.4}",
            model.ids().count(),
            harness::dir_bytes(d),
            harness::dir_bytes(d) as f64 / user.max(1) as f64
        ));
        reopened
    } else {
        drop(client);
        server.hard_kill();
        engine
    };

    totals.failed += oracle_bad;
    if oracle_bad > 0 {
        totals
            .notes
            .push(format!("{oracle_bad} answer(s) differ from the oracle"));
    }

    // Definition 1 over the final partitioning vs the distinct query set.
    let distinct = distinct_queries(measured.iter().copied().chain(&plan.verify_queries));
    let (relevant, read) = efficiency_counters(&engine, &distinct);
    totals.counters.0 += relevant;
    totals.counters.1 += read;
    let stats_now = engine.stats();
    let (mut splits, mut split_moves) = (0, 0);
    for i in 0..engine.shard_count() {
        let core = engine.shard_engine(i).with_parts(|_, c| c.stats());
        splits += core.splits;
        split_moves += core.split_moves;
    }
    totals.notes.push(format!(
        "stream {stream} final store: {} entities, {} partitions, {} distinct query shapes; \
         core: {splits} splits moved {split_moves} entities",
        stats_now.entities,
        stats_now.partitions,
        distinct.len()
    ));
    drop(engine);
    remove_dir(dir);
    Ok(())
}

/// Median and supported tail of a latency sample, as a note: read next to
/// the numbers but not gated (see README "demoted timings").
fn latency_note(what: &str, sample: &mut [f64]) -> String {
    stats::sort(sample);
    let p50 = stats::percentile(sample, 50.0).unwrap_or(0.0);
    let (p, tail) = stats::tail(sample).unwrap_or((50.0, 0.0));
    format!(
        "{what} latency (fastest replay of each op): p50 {p50:.1} us, p{p} {tail:.1} us over {} \
         ops",
        sample.len()
    )
}

/// Runs `spec` once and reports the end-to-end metrics.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    expect_fingerprint: Option<u64>,
) -> Result<Outcome, String> {
    // Replay rounds outermost: a stream's replays then lie a whole round
    // apart, so a slow phase of the host rarely covers all of them.
    let mut totals = Totals::default();
    let mut replays: Vec<Vec<Driven>> = (0..spec.streams).map(|_| Vec::new()).collect();
    // The last CPU, not the first: CPU 0 takes the interrupts (durable
    // replays pinned there ran 2.5x slower than on CPU 1).
    if let Some(cpu) = allowed_cpus().last().filter(|_| spec.pin) {
        let pinned = pin_to(*cpu);
        totals.notes.push(format!(
            "pinned to cpu {cpu}{}",
            if pinned {
                ""
            } else {
                " REFUSED: runs unpinned"
            }
        ));
    }
    for round in 0..spec.replays {
        for (stream, replays) in replays.iter_mut().enumerate() {
            let seed = stream_seed(seed, stream);
            let n = round * spec.streams + stream;
            let (plan, live) = replay(spec, seed, seconds, n, replays, &mut totals)?;
            if round + 1 == spec.replays {
                finish(spec, stream, seed, &plan, live, replays, &mut totals)?;
            } else {
                live.teardown();
            }
        }
    }
    let Totals {
        setup_s,
        stream_rates,
        mut insert_us,
        mut query_us,
        counters,
        fingerprints,
        attempted,
        failed,
        mut notes,
    } = totals;
    let fingerprint = timed_fingerprint(fingerprints);
    check_fingerprint(spec.name, fingerprint, expect_fingerprint)?;
    notes.push(format!("fingerprint {fingerprint:016x}"));
    notes.push(latency_note("insert", &mut insert_us));
    notes.push(latency_note("query", &mut query_us));
    let metrics = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("ops_per_s", stats::median(&stream_rates), "1/s"),
        metric(
            "query_p50_us",
            stats::percentile(&query_us, 50.0).unwrap_or(0.0),
            "us",
        ),
        metric("efficiency", efficiency_of(counters), "ratio"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes,
    })
}
