//! A load generator: N connections × mixed insert/query workload,
//! per-operation latency histograms.
//!
//! Each connection is one thread with one [`Client`]. In the default
//! closed loop it issues requests back-to-back (the next request starts
//! when the previous response arrives); with [`LoadConfig::pipeline`]` >
//! 1` it keeps K requests in flight per connection, and with
//! [`LoadConfig::batch`]` > 1` it packs inserts into wire-level
//! `InsertBatch` frames. The entity stream comes from the DBpedia-like
//! generator, split across the connections; every `query_every`-th
//! operation is a `SELECT` over a small attribute set instead of an
//! insert. [`Response::Busy`](crate::Response::Busy) sheds are counted
//! and retried after a short backoff (closed loop) or by re-queueing the
//! operation (pipelined) — under admission control a load client *backs
//! off*, it does not hammer.
//!
//! # Latency accounting under pipelining
//!
//! A closed-loop round-trip time is an honest per-operation latency; a
//! pipelined one is not — response *i* cannot arrive before response
//! *i−1* has been read, so the raw `recv − send` of a deeply pipelined
//! operation mostly measures queueing behind its own connection's
//! earlier requests. The report therefore keeps two histograms per
//! operation class:
//!
//! * **end-to-end** — `recv_i − send_i`, what the caller experienced;
//! * **service** — `recv_i − max(recv_{i−1}, send_i)`, the marginal time
//!   attributable to operation *i* itself once the line ahead of it had
//!   cleared.
//!
//! In closed-loop mode the two coincide.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use cind_datagen::{DbpediaConfig, DbpediaGenerator, DriftConfig, DriftMode, DriftOp, DriftScenario};
use cind_metrics::LatencyHistogram;
use cind_model::AttributeCatalog;

use crate::client::Client;
use crate::protocol::{Request, Response, WireEntity};
use crate::ServerError;

/// Load-generator knobs.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Concurrent connections (threads).
    pub connections: usize,
    /// Total entities to insert, split across the connections.
    pub entities: usize,
    /// Distinct attributes in the generated data.
    pub attributes: usize,
    /// Every `query_every`-th operation is a query instead of an insert
    /// (`0` = inserts only).
    pub query_every: usize,
    /// RNG seed (generation and query choice are deterministic per seed).
    pub seed: u64,
    /// Requests kept in flight per connection. `0` or `1` = classic
    /// closed loop; `K > 1` = pipelined mode, K frames outstanding before
    /// the first response is read (the client batches the unsent frames
    /// into single `write` calls).
    pub pipeline: usize,
    /// Inserts packed per wire-level `InsertBatch` frame. `0` or `1` =
    /// one insert per frame; `N > 1` = batched mode (mutually exclusive
    /// with pipelining; batch wins if both are set).
    pub batch: usize,
    /// Workload shape. [`DriftMode::Steady`] keeps the classic DBpedia
    /// stream; the drift modes generate grouped scenario streams
    /// ([`DriftScenario`]) whose query focus moves (or whose population
    /// churns) so the reorganizer has something to chase.
    pub mode: DriftMode,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            connections: 4,
            entities: 2_000,
            attributes: 60,
            query_every: 10,
            seed: 0xC1DE,
            pipeline: 1,
            batch: 1,
            mode: DriftMode::default(),
        }
    }
}

impl LoadConfig {
    /// Checks the knobs the stream generator would otherwise reject with a
    /// panic: the steady DBpedia stream needs at least
    /// [`DbpediaConfig::MIN_ATTRIBUTES`] attributes (the drift modes do not
    /// read `attributes`).
    ///
    /// # Errors
    /// A message naming the knob and its minimum.
    pub fn validate(&self) -> Result<(), String> {
        if self.mode == DriftMode::Steady && self.attributes < DbpediaConfig::MIN_ATTRIBUTES {
            return Err(format!(
                "attributes must be at least {} for the steady stream, got {}",
                DbpediaConfig::MIN_ATTRIBUTES,
                self.attributes
            ));
        }
        Ok(())
    }
}

/// What one load run did and how fast the server answered.
pub struct LoadReport {
    /// Inserts acknowledged.
    pub inserts: u64,
    /// Deletes acknowledged (drift scenario streams only).
    pub deletes: u64,
    /// Queries answered.
    pub queries: u64,
    /// Rows returned across all queries.
    pub rows: u64,
    /// `Busy` sheds observed (each was retried until accepted).
    pub busy_sheds: u64,
    /// Queries that raced ahead of the inserts interning their attribute
    /// (typed `UnknownAttribute` — benign under a mixed workload).
    pub unknown_attr: u64,
    /// Other typed remote errors — should be zero on a healthy run.
    pub errors: u64,
    /// Wall time of the whole run.
    pub elapsed: Duration,
    /// Per-insert end-to-end latencies (`recv − send`).
    pub insert_latency: LatencyHistogram,
    /// Per-query end-to-end latencies.
    pub query_latency: LatencyHistogram,
    /// Per-insert service times (see the module docs; equals end-to-end
    /// in closed-loop mode).
    pub insert_service: LatencyHistogram,
    /// Per-query service times.
    pub query_service: LatencyHistogram,
}

impl LoadReport {
    /// Acknowledged operations per second over the whole run.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let ops = (self.inserts + self.deletes + self.queries) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            ops / secs
        } else {
            0.0
        }
    }

    /// A fixed-width text summary for the CLI.
    #[must_use]
    pub fn render(&mut self) -> String {
        let mut out = String::new();
        let deletes = if self.deletes > 0 {
            format!(", {} deletes", self.deletes)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "ops: {} inserts{deletes}, {} queries ({} rows) in {:.2?}  →  {:.0} ops/s\n",
            self.inserts,
            self.queries,
            self.rows,
            self.elapsed,
            self.throughput(),
        ));
        out.push_str(&format!(
            "admission control: {} Busy sheds, {} unseen-attribute queries, {} errors\n",
            self.busy_sheds, self.unknown_attr, self.errors
        ));
        for (name, hist) in [
            ("insert e2e", &mut self.insert_latency),
            ("insert svc", &mut self.insert_service),
            ("query e2e", &mut self.query_latency),
            ("query svc", &mut self.query_service),
        ] {
            if hist.is_empty() {
                continue;
            }
            let p50 = hist.percentile(50.0).unwrap_or_default();
            let p99 = hist.percentile(99.0).unwrap_or_default();
            out.push_str(&format!(
                "{name:>11} latency: p50 {p50:.2?}  p99 {p99:.2?}  mean {:.2?}\n",
                hist.mean().unwrap_or_default()
            ));
        }
        out
    }
}

#[derive(Default)]
struct ConnOutcome {
    inserts: u64,
    deletes: u64,
    queries: u64,
    rows: u64,
    busy_sheds: u64,
    unknown_attr: u64,
    errors: u64,
    insert_lat: Vec<Duration>,
    query_lat: Vec<Duration>,
    insert_svc: Vec<Duration>,
    query_svc: Vec<Duration>,
}

/// One scheduled operation in a connection's stream.
enum LoadOp {
    Insert(WireEntity),
    Delete(u64),
    Query(Vec<String>),
}

impl LoadOp {
    fn to_request(&self) -> Request {
        match self {
            LoadOp::Insert(e) => Request::Insert(e.clone()),
            LoadOp::Delete(id) => Request::Delete(*id),
            LoadOp::Query(attrs) => Request::Query(attrs.clone()),
        }
    }
}

/// Generates the wire-ready entity stream and the query attribute pool for
/// a load config. Exposed so tests and the benchmark harness can reuse the
/// exact workload the generator drives.
///
/// # Panics
/// Panics if `cfg.attributes` is below [`DbpediaConfig::MIN_ATTRIBUTES`]
/// (see [`LoadConfig::validate`]).
#[must_use]
pub fn workload(cfg: &LoadConfig) -> (Vec<WireEntity>, Vec<String>) {
    let mut catalog = AttributeCatalog::new();
    let entities = DbpediaGenerator::new(DbpediaConfig {
        entities: cfg.entities,
        attributes: cfg.attributes,
        seed: cfg.seed,
        ..DbpediaConfig::default()
    })
    .generate(&mut catalog);
    let wire: Vec<WireEntity> = entities
        .iter()
        .map(|e| WireEntity {
            id: e.id().0,
            attrs: e
                .attrs()
                .iter()
                .map(|(a, v)| {
                    (
                        catalog.name(*a).unwrap_or_default().to_string(),
                        v.clone(),
                    )
                })
                .collect(),
        })
        .collect();
    let names: Vec<String> = catalog.iter().map(|(_, n)| n.to_string()).collect();
    (wire, names)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Plans every connection's operation stream up front. Steady mode splits
/// the DBpedia entity stream round-robin and interleaves queries exactly
/// as the original closed loop did; the drift modes give each connection
/// its own [`DriftScenario`] over a disjoint id space, so deletes always
/// trail their inserts on the same (ordered) connection.
fn plan_connections(cfg: &LoadConfig, connections: usize) -> Vec<Vec<LoadOp>> {
    let conn_seed =
        |c: usize| cfg.seed ^ (c as u64).wrapping_mul(0xA5A5_A5A5);
    if cfg.mode != DriftMode::Steady {
        let per_conn = cfg.entities.div_ceil(connections);
        return (0..connections)
            .map(|c| plan_drift_ops(cfg, per_conn, c, conn_seed(c)))
            .collect();
    }
    let (entities, names) = workload(cfg);
    let mut chunks: Vec<Vec<WireEntity>> = (0..connections).map(|_| Vec::new()).collect();
    for (i, e) in entities.into_iter().enumerate() {
        chunks[i % connections].push(e);
    }
    chunks
        .into_iter()
        .enumerate()
        .map(|(c, chunk)| plan_ops(chunk, &names, cfg.query_every, conn_seed(c)))
        .collect()
}

/// One connection's drift-scenario stream, rendered to wire operations.
/// Entity ids are offset per connection so the streams never collide.
fn plan_drift_ops(cfg: &LoadConfig, per_conn: usize, conn_id: usize, seed: u64) -> Vec<LoadOp> {
    let query_share = if cfg.query_every > 0 {
        1.0 / (cfg.query_every as f64 + 1.0)
    } else {
        0.0
    };
    let ops = per_conn + per_conn.checked_div(cfg.query_every).unwrap_or(0);
    let mut catalog = AttributeCatalog::new();
    let stream = DriftScenario::new(DriftConfig {
        mode: cfg.mode,
        ops: ops.max(1),
        query_share,
        seed,
        ..DriftConfig::default()
    })
    .generate(&mut catalog, (conn_id as u64) << 40);
    let name_of = |a: cind_model::AttrId| catalog.name(a).unwrap_or_default().to_string();
    stream
        .into_iter()
        .map(|op| match op {
            DriftOp::Insert(e) => LoadOp::Insert(WireEntity {
                id: e.id().0,
                attrs: e.attrs().iter().map(|(a, v)| (name_of(*a), v.clone())).collect(),
            }),
            DriftOp::Delete(id) => LoadOp::Delete(id.0),
            DriftOp::Query(attrs) => {
                LoadOp::Query(attrs.into_iter().map(name_of).collect())
            }
        })
        .collect()
}

/// Interleaves the connection's insert chunk with its scheduled queries,
/// in the same order the original closed loop issued them.
fn plan_ops(
    chunk: Vec<WireEntity>,
    names: &[String],
    query_every: usize,
    mut rng: u64,
) -> Vec<LoadOp> {
    let mut ops = Vec::with_capacity(chunk.len() + chunk.len() / query_every.max(1));
    for (i, entity) in chunk.into_iter().enumerate() {
        if query_every > 0 && i > 0 && i % query_every == 0 && !names.is_empty() {
            let a = names[(splitmix(&mut rng) as usize) % names.len()].clone();
            let b = names[(splitmix(&mut rng) as usize) % names.len()].clone();
            ops.push(LoadOp::Query(vec![a, b]));
        }
        ops.push(LoadOp::Insert(entity));
    }
    ops
}

/// Runs the load against `addr` and aggregates per-connection
/// measurements into one report (no double counting: every operation is
/// timed exactly once, on the connection that issued it).
///
/// # Errors
/// Connection failures; in-band remote errors are *counted*, not raised.
pub fn run_load(addr: &str, cfg: &LoadConfig) -> Result<LoadReport, ServerError> {
    let connections = cfg.connections.max(1);
    let plans = plan_connections(cfg, connections);

    let started = Instant::now();
    let mut handles = Vec::with_capacity(connections);
    for ops in plans {
        let addr = addr.to_string();
        let pipeline = cfg.pipeline;
        let batch = cfg.batch;
        handles.push(std::thread::spawn(move || {
            run_connection(&addr, ops, pipeline, batch)
        }));
    }

    let mut report = LoadReport {
        inserts: 0,
        deletes: 0,
        queries: 0,
        rows: 0,
        busy_sheds: 0,
        unknown_attr: 0,
        errors: 0,
        elapsed: Duration::ZERO,
        insert_latency: LatencyHistogram::new(),
        query_latency: LatencyHistogram::new(),
        insert_service: LatencyHistogram::new(),
        query_service: LatencyHistogram::new(),
    };
    let mut first_err: Option<ServerError> = None;
    for h in handles {
        match h.join() {
            Ok(Ok(out)) => {
                report.inserts += out.inserts;
                report.deletes += out.deletes;
                report.queries += out.queries;
                report.rows += out.rows;
                report.busy_sheds += out.busy_sheds;
                report.unknown_attr += out.unknown_attr;
                report.errors += out.errors;
                for d in out.insert_lat {
                    report.insert_latency.record(d);
                }
                for d in out.query_lat {
                    report.query_latency.record(d);
                }
                for d in out.insert_svc {
                    report.insert_service.record(d);
                }
                for d in out.query_svc {
                    report.query_service.record(d);
                }
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err =
                    first_err.or(Some(ServerError::Io(std::io::Error::other(
                        "load connection thread panicked",
                    ))));
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    report.elapsed = started.elapsed();
    Ok(report)
}

fn run_connection(
    addr: &str,
    ops: Vec<LoadOp>,
    pipeline: usize,
    batch: usize,
) -> Result<ConnOutcome, ServerError> {
    let mut client = Client::connect(addr)?;
    client.set_timeout(Some(Duration::from_secs(30)))?;
    if batch > 1 {
        run_batched(&mut client, ops, batch)
    } else if pipeline > 1 {
        run_pipelined(&mut client, ops, pipeline)
    } else {
        run_closed_loop(&mut client, ops)
    }
}

/// The classic closed loop: one request outstanding, service time equals
/// end-to-end time by construction.
fn run_closed_loop(client: &mut Client, ops: Vec<LoadOp>) -> Result<ConnOutcome, ServerError> {
    let mut out = ConnOutcome::default();
    for op in ops {
        let t0 = Instant::now();
        let resp = roundtrip_retrying(client, &op, &mut out.busy_sheds)?;
        let elapsed = t0.elapsed();
        settle(&op, resp, elapsed, elapsed, &mut out)?;
    }
    Ok(out)
}

/// One-at-a-time round-trip that absorbs `Busy` sheds with a short sleep
/// (`roundtrip` surfaces `Busy` as a decoded response value, not an
/// error, so the generic [`retry_busy`] wrapper cannot see it).
fn roundtrip_retrying(
    client: &mut Client,
    op: &LoadOp,
    sheds: &mut u64,
) -> Result<Response, ServerError> {
    loop {
        let resp = client.roundtrip(&op.to_request())?;
        if matches!(resp, Response::Busy) {
            *sheds += 1;
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        return Ok(resp);
    }
}

/// Pipelined mode: keep `depth` requests in flight; `Busy` sheds re-queue
/// the operation at the back instead of sleeping (the pipeline itself is
/// the backoff — shed work yields its slot to the line behind it).
fn run_pipelined(
    client: &mut Client,
    ops: Vec<LoadOp>,
    depth: usize,
) -> Result<ConnOutcome, ServerError> {
    let mut out = ConnOutcome::default();
    let mut todo: VecDeque<LoadOp> = ops.into();
    let mut inflight: VecDeque<(LoadOp, Instant)> = VecDeque::new();
    let mut prev_recv: Option<Instant> = None;
    while !todo.is_empty() || !inflight.is_empty() {
        while inflight.len() < depth {
            let Some(op) = todo.pop_front() else { break };
            client.send(&op.to_request())?;
            inflight.push_back((op, Instant::now()));
        }
        let resp = client.recv()?;
        let Some((op, sent)) = inflight.pop_front() else {
            return Err(ServerError::UnexpectedResponse);
        };
        let now = Instant::now();
        let e2e = now.duration_since(sent);
        let service = now.duration_since(prev_recv.map_or(sent, |p| p.max(sent)));
        prev_recv = Some(now);
        if matches!(resp, Response::Busy) {
            out.busy_sheds += 1;
            todo.push_back(op);
            continue;
        }
        settle(&op, resp, e2e, service, &mut out)?;
    }
    Ok(out)
}

/// Batched mode: inserts travel `width` to a frame; scheduled queries cut
/// the current batch so operation order is preserved. Every item in a
/// batch acks when the batch does, so the batch round-trip *is* each
/// item's end-to-end latency.
fn run_batched(
    client: &mut Client,
    ops: Vec<LoadOp>,
    width: usize,
) -> Result<ConnOutcome, ServerError> {
    let mut out = ConnOutcome::default();
    let mut pending: Vec<WireEntity> = Vec::with_capacity(width);
    for op in ops {
        match op {
            LoadOp::Insert(e) => {
                pending.push(e);
                if pending.len() >= width {
                    flush_batch(client, &mut pending, &mut out)?;
                }
            }
            // Queries and deletes cut the current batch so operation
            // order is preserved (a delete must not overtake the batched
            // insert of its own entity).
            op @ (LoadOp::Query(_) | LoadOp::Delete(_)) => {
                flush_batch(client, &mut pending, &mut out)?;
                let t0 = Instant::now();
                let resp = roundtrip_retrying(client, &op, &mut out.busy_sheds)?;
                let elapsed = t0.elapsed();
                settle(&op, resp, elapsed, elapsed, &mut out)?;
            }
        }
    }
    flush_batch(client, &mut pending, &mut out)?;
    Ok(out)
}

fn flush_batch(
    client: &mut Client,
    pending: &mut Vec<WireEntity>,
    out: &mut ConnOutcome,
) -> Result<(), ServerError> {
    if pending.is_empty() {
        return Ok(());
    }
    let batch: Vec<WireEntity> = std::mem::take(pending);
    let t0 = Instant::now();
    let results = retry_busy(&mut out.busy_sheds, || client.insert_batch(batch.clone()))?;
    let elapsed = t0.elapsed();
    for item in results {
        match item {
            Ok(_) => {
                out.inserts += 1;
                out.insert_lat.push(elapsed);
                out.insert_svc.push(elapsed);
            }
            Err(ServerError::Busy) => out.busy_sheds += 1,
            Err(_) => out.errors += 1,
        }
    }
    Ok(())
}

/// Books one non-`Busy` response into the outcome. `Busy` must be handled
/// by the caller (retry policy differs per mode).
fn settle(
    op: &LoadOp,
    resp: Response,
    e2e: Duration,
    service: Duration,
    out: &mut ConnOutcome,
) -> Result<(), ServerError> {
    match (op, resp) {
        (LoadOp::Insert(_), Response::Written { .. }) => {
            out.inserts += 1;
            out.insert_lat.push(e2e);
            out.insert_svc.push(service);
        }
        // Deletes are counted but not folded into the insert histograms
        // (the report labels those per operation class).
        (LoadOp::Delete(_), Response::Deleted) => out.deletes += 1,
        (LoadOp::Query(_), Response::Rows { rows, .. }) => {
            out.queries += 1;
            out.rows += rows.len() as u64;
            out.query_lat.push(e2e);
            out.query_svc.push(service);
        }
        (
            LoadOp::Query(_),
            Response::Error { code: crate::ErrorCode::UnknownAttribute, .. },
        ) => out.unknown_attr += 1,
        (_, Response::Error { .. }) => out.errors += 1,
        _ => return Err(ServerError::UnexpectedResponse),
    }
    Ok(())
}

/// Retries `op` while the server sheds it, counting the sheds. The backoff
/// is short and fixed: the point of admission control is that the *server*
/// stays responsive; the client's job is merely not to spin.
fn retry_busy<T>(
    sheds: &mut u64,
    mut op: impl FnMut() -> Result<T, ServerError>,
) -> Result<T, ServerError> {
    loop {
        match op() {
            Err(ServerError::Busy) => {
                *sheds += 1;
                std::thread::sleep(Duration::from_millis(2));
            }
            other => return other,
        }
    }
}
