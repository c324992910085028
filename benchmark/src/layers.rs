//! The traced run (`--trace 1`): one single-client op stream replayed in
//! onion passes, each one layer deeper, with a span around every call the
//! benchmark makes into a layer. No program code is edited — every number
//! comes from timing public functions and from deltas of public counters.
//!
//! * **A** `Client::roundtrip` over loopback TCP (once untraced, for the
//!   tracing overhead, once traced);
//! * **B** in-process `ShardedEngine::handle` plus the four codec calls;
//! * **C** `Engine::{insert, snapshot, query_subset}` on the routed shard;
//! * **D** bare `Cinderella` + `UniversalTable` per shard
//!   (`Cinderella::insert`, `plan_survivors`, `execute_collect_view`);
//! * **E** bare `UniversalTable::{insert, scan, freeze}` mirroring
//!   D's placements, once without and once with a file WAL attached.
//!
//! Op `i` is the same operation in every pass, so a layer's self time is
//! the per-op difference between its pass and the pass beneath it, and the
//! reported figure is the median of those differences. A query fans out
//! over both shards in parallel inside `handle`, so below B a query's time
//! is its slowest shard leg (the critical path), not the sum of the legs.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cind_model::{Entity, EntityId, Synopsis};
use cind_query::{execute_collect_view, plan_from_survivors, Query};
use cind_reorg::{ActionKind, ReorgDriver, ReorgStats};
use cind_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use cind_server::{
    shard_dir_name, Client, Engine, EngineOptions, IoCounters, QueryStats, Request, Response,
    Server, ShardRouter,
};
use cind_storage::{SegmentId, UniversalTable};
use cinderella_core::{Cinderella, Config, IndexTier, InsertOutcome, Stats};

use crate::harness::{
    self, distinct_queries, efficiency, fresh_store, metric, open_engine, remove_dir, serve_config,
    Metric, Outcome,
};
use crate::stats;
use crate::trace::{Tracer, NONE};
use crate::workload::{check_fingerprint, plan_traced, Plan, Spec, SHARDS};

/// Operations whose spans go into the trace file (metrics use all).
const TRACE_FILE_OPS: u32 = 2_000;

/// Per-op samples of one measured quantity; NaN where the op has none.
struct Series(Vec<f64>);

impl Series {
    fn new(n: usize) -> Self {
        Series(vec![f64::NAN; n])
    }

    fn set_ns(&mut self, op: usize, ns: u64) {
        self.0[op] = ns as f64 / 1e3;
    }

    /// Median over the ops in `idx` that have a sample (0 when none).
    fn median(&self, idx: &[usize]) -> f64 {
        let sample: Vec<f64> = idx
            .iter()
            .map(|i| self.0[*i])
            .filter(|v| v.is_finite())
            .collect();
        stats::median(&sample)
    }

    /// The supported tail percentile over the ops in `idx` (0 when none).
    fn tail(&self, idx: &[usize]) -> f64 {
        let mut sample: Vec<f64> = idx
            .iter()
            .map(|i| self.0[*i])
            .filter(|v| v.is_finite())
            .collect();
        stats::sort(&mut sample);
        stats::tail(&sample).map_or(0.0, |(_, v)| v)
    }

    /// Per-op `self - others...`.
    fn minus(&self, others: &[&Series]) -> Series {
        Series(
            self.0
                .iter()
                .enumerate()
                .map(|(i, v)| others.iter().fold(*v, |acc, o| acc - o.0[i]))
                .collect(),
        )
    }

    fn plus(&self, other: &Series) -> Series {
        Series(self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect())
    }
}

/// Which ops of the stream are inserts and which are queries.
struct Kinds {
    inserts: Vec<usize>,
    queries: Vec<usize>,
}

impl Kinds {
    fn of(ops: &[Request]) -> Self {
        let pick = |want_query: bool| {
            ops.iter()
                .enumerate()
                .filter(|(_, r)| matches!(r, Request::Query(_)) == want_query)
                .map(|(i, _)| i)
                .collect()
        };
        Kinds {
            inserts: pick(false),
            queries: pick(true),
        }
    }
}

// ---------------------------------------------------------------- pass A

struct WireOut {
    wall_s: f64,
    failed: u64,
    /// Server I/O counters over the op stream alone.
    io: IoCounters,
    roundtrip: Series,
}

/// Pass A: the op stream over loopback TCP with one closed-loop client.
fn wire_pass(spec: &Spec, plan: &Plan, tr: &mut Tracer) -> Result<WireOut, String> {
    let (engine, dir) = fresh_store(spec, "trace-a", 0, &plan.preload)?;
    let server = Server::start(Arc::clone(&engine), &serve_config(spec))
        .map_err(|e| format!("pass A server: {e}"))?;
    let mut client = Client::connect(format!("127.0.0.1:{}", server.port()))
        .map_err(|e| format!("pass A connect: {e}"))?;
    let ops = &plan.ops;
    let mut roundtrip = Series::new(ops.len());
    let mut failed = 0;
    let io0 = client
        .io_counters()
        .map_err(|e| format!("io counters: {e}"))?;
    let t0 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let span = tr.begin("A.roundtrip", NONE, i as u32);
        let sent = Instant::now();
        let resp = client
            .roundtrip(op)
            .map_err(|e| format!("pass A op {i}: {e}"))?;
        roundtrip.set_ns(i, sent.elapsed().as_nanos() as u64);
        tr.end(span);
        failed += u64::from(matches!(resp, Response::Busy | Response::Error { .. }));
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let io1 = client
        .io_counters()
        .map_err(|e| format!("io counters: {e}"))?;
    drop(client);
    server.hard_kill();
    drop(engine);
    remove_dir(dir);
    // The two snapshots bracket the stream plus one IoCounters exchange.
    let io = IoCounters {
        net_reads: (io1.net_reads - io0.net_reads).saturating_sub(1),
        net_writes: (io1.net_writes - io0.net_writes).saturating_sub(1),
        frames_in: (io1.frames_in - io0.frames_in).saturating_sub(1),
        frames_out: (io1.frames_out - io0.frames_out).saturating_sub(1),
        wal_appends: io1.wal_appends - io0.wal_appends,
        wal_syncs: io1.wal_syncs - io0.wal_syncs,
        wal_groups: io1.wal_groups - io0.wal_groups,
        wal_ops: io1.wal_ops - io0.wal_ops,
    };
    Ok(WireOut {
        wall_s,
        failed,
        io,
        roundtrip,
    })
}

// ---------------------------------------------------------------- pass B

#[derive(Default)]
struct ShardedOut {
    failed: u64,
    /// Rows each query returned (0 for inserts) — the cross-pass check.
    rows: Vec<u64>,
    qstats: QueryStats,
    response_bytes: u64,
    evictions: u64,
    core: Stats,
    partitions: u64,
    reorg: ReorgStats,
    efficiency: f64,
    checkpoint_s: f64,
    recover_s: f64,
    store_bytes_per_user_byte: f64,
}

struct ShardedSeries {
    encode_request: Series,
    decode_request: Series,
    handle: Series,
    encode_response: Series,
    decode_response: Series,
}

fn core_stats(engine: &cind_server::ShardedEngine) -> Stats {
    let mut sum = Stats::default();
    for i in 0..engine.shard_count() {
        let s = engine.shard_engine(i).with_parts(|_, c| c.stats());
        sum.splits += s.splits;
        sum.split_moves += s.split_moves;
        sum.ratings_computed += s.ratings_computed;
        sum.inserts += s.inserts;
    }
    sum
}

/// Pass B: `ShardedEngine::handle` in process, with the codec calls a wire
/// round trip makes timed on their own.
fn sharded_pass(
    spec: &Spec,
    plan: &Plan,
    tr: &mut Tracer,
) -> Result<(ShardedOut, ShardedSeries), String> {
    let (engine, dir) = fresh_store(spec, "trace-b", 0, &plan.preload)?;
    let ops = &plan.ops;
    let n = ops.len();
    let mut out = ShardedOut {
        rows: vec![0; n],
        ..ShardedOut::default()
    };
    let mut series = ShardedSeries {
        encode_request: Series::new(n),
        decode_request: Series::new(n),
        handle: Series::new(n),
        encode_response: Series::new(n),
        decode_response: Series::new(n),
    };
    let core0 = core_stats(&engine);
    let evictions0 = engine.stats().evictions;
    for (i, op) in ops.iter().enumerate() {
        let id = i as u32;
        let parent = tr.begin("B.op", NONE, id);
        let span = tr.begin("B.encode_request", parent, id);
        let wire = encode_request(op);
        series.encode_request.set_ns(i, tr.end(span));
        let span = tr.begin("B.decode_request", parent, id);
        let decoded = decode_request(&wire).map_err(|e| format!("pass B decode: {e}"))?;
        series.decode_request.set_ns(i, tr.end(span));
        let span = tr.begin("B.handle", parent, id);
        let resp = engine.handle(&decoded);
        series.handle.set_ns(i, tr.end(span));
        let span = tr.begin("B.encode_response", parent, id);
        let body = encode_response(&resp);
        series.encode_response.set_ns(i, tr.end(span));
        let span = tr.begin("B.decode_response", parent, id);
        let back = decode_response(&body).map_err(|e| format!("pass B decode: {e}"))?;
        series.decode_response.set_ns(i, tr.end(span));
        tr.end(parent);
        match back {
            Response::Rows { rows, stats } => {
                out.rows[i] = rows.len() as u64;
                out.response_bytes += body.len() as u64;
                out.qstats.entities_scanned += stats.entities_scanned;
                out.qstats.segments_read += stats.segments_read;
                out.qstats.segments_pruned += stats.segments_pruned;
                out.qstats.logical_reads += stats.logical_reads;
                out.qstats.physical_reads += stats.physical_reads;
            }
            Response::Busy | Response::Error { .. } => out.failed += 1,
            _ => {}
        }
    }
    let core1 = core_stats(&engine);
    out.core = Stats {
        splits: core1.splits - core0.splits,
        split_moves: core1.split_moves - core0.split_moves,
        ratings_computed: core1.ratings_computed - core0.ratings_computed,
        inserts: core1.inserts - core0.inserts,
        ..Stats::default()
    };
    out.evictions = engine.stats().evictions - evictions0;
    out.partitions = engine.stats().partitions;
    out.reorg = engine.reorg_stats();
    out.efficiency = efficiency(&engine, &distinct_queries(ops.iter()));
    out.failed += u64::from(
        !engine
            .validate()
            .map_err(|e| format!("validate: {e}"))?
            .is_empty(),
    );

    if let Some(d) = &dir {
        // Durability figures on the same store: checkpoint, kill (drop
        // without flush), reopen to the first correct query.
        let t0 = Instant::now();
        engine
            .checkpoint()
            .map_err(|e| format!("checkpoint: {e}"))?;
        out.checkpoint_s = t0.elapsed().as_secs_f64();
        out.store_bytes_per_user_byte =
            harness::dir_bytes(d) as f64 / plan.user_bytes().max(1) as f64;
        let entities = engine.stats().entities;
        drop(engine);
        let t0 = Instant::now();
        let reopened = open_engine(spec, Some(d)).map_err(|e| format!("reopen: {e}"))?;
        let probe = vec![plan
            .all_inserts()
            .next()
            .map(|e| e.attrs[0].0.clone())
            .unwrap_or_default()];
        let answered = reopened.query(&probe).is_ok();
        out.recover_s = t0.elapsed().as_secs_f64();
        out.failed += u64::from(!answered || reopened.stats().entities != entities);
        drop(reopened);
    }
    remove_dir(dir);
    Ok((out, series))
}

// ---------------------------------------------------------------- pass C

struct EngineSeries {
    insert: Series,
    /// Critical shard leg of each query: snapshot + `query_subset`.
    query_leg: Series,
    /// The snapshot part of that leg.
    snapshot: Series,
    /// Every explicit `Engine::snapshot()` call, split by what it did.
    refreeze_us: Vec<f64>,
    hit_us: Vec<f64>,
    rows: Vec<u64>,
}

/// Pass C: the per-shard `Engine`s directly, routed the way
/// `ShardedEngine` routes. `dir` makes them durable (ack after fsync).
fn engine_pass(
    spec: &Spec,
    plan: &Plan,
    dir: Option<&Path>,
    tr: &mut Tracer,
    tag: &'static [&'static str; 3],
) -> Result<EngineSeries, String> {
    let opts = EngineOptions::from_serve(&serve_config(spec));
    let mut engines = Vec::new();
    for i in 0..SHARDS {
        engines.push(match dir {
            Some(d) => Engine::open(&d.join(shard_dir_name(i)), opts.clone())
                .map_err(|e| format!("pass C open: {e}"))?,
            None => Engine::in_memory(opts.clone()),
        });
    }
    let router = ShardRouter::new(SHARDS);
    for e in &plan.preload {
        engines[router.route(e.id)]
            .insert(e)
            .map_err(|e| format!("pass C preload: {e}"))?;
    }
    // Warm the snapshot cache so the first timed query is not charged the
    // preload's refreeze.
    let mut last: Vec<_> = engines.iter().map(Engine::snapshot).collect();
    let ops = &plan.ops;
    let n = ops.len();
    let mut s = EngineSeries {
        insert: Series::new(n),
        query_leg: Series::new(n),
        snapshot: Series::new(n),
        refreeze_us: Vec::new(),
        hit_us: Vec::new(),
        rows: vec![0; n],
    };
    for (i, op) in ops.iter().enumerate() {
        let id = i as u32;
        match op {
            Request::Insert(e) => {
                let span = tr.begin(tag[0], NONE, id);
                let r = engines[router.route(e.id)].insert(e);
                s.insert.set_ns(i, tr.end(span));
                r.map_err(|e| format!("pass C insert: {e}"))?;
            }
            Request::Query(attrs) => {
                let (mut leg_ns, mut leg_snap_ns) = (0u64, 0u64);
                for (shard, engine) in engines.iter().enumerate() {
                    let span = tr.begin(tag[1], NONE, id);
                    let snap = engine.snapshot();
                    let snap_ns = tr.end(span);
                    let refroze = !Arc::ptr_eq(&snap, &last[shard]);
                    last[shard] = snap;
                    if refroze {
                        &mut s.refreeze_us
                    } else {
                        &mut s.hit_us
                    }
                    .push(snap_ns as f64 / 1e3);
                    let span = tr.begin(tag[2], NONE, id);
                    let leg = engine.query_subset(attrs);
                    let ns = snap_ns + tr.end(span);
                    s.rows[i] += leg.map_err(|e| format!("pass C query: {e}"))?.0.len() as u64;
                    if ns > leg_ns {
                        (leg_ns, leg_snap_ns) = (ns, snap_ns);
                    }
                }
                s.query_leg.set_ns(i, leg_ns);
                s.snapshot.set_ns(i, leg_snap_ns);
            }
            _ => {}
        }
    }
    Ok(s)
}

// ------------------------------------------------------------ passes D, E

/// One shard at level D: the partitioner, its table, and the reorganizer
/// driven with the cadence `Engine` drives it.
struct Bare {
    table: UniversalTable,
    cindy: Cinderella,
    driver: ReorgDriver,
}

#[derive(Default)]
struct BareOut {
    failed: u64,
    rows: Vec<u64>,
    partitions: u64,
    pages: u64,
    index_resident_bytes: u64,
    tier_resident_bytes: u64,
    tier_plan_us: f64,
    tier_false_positive_share: f64,
    wal_bytes: u64,
    reorg_step_us: Vec<f64>,
    rating_us: Vec<f64>,
}

struct BareSeries {
    insert: Series,
    /// Inserts that split, only.
    split_insert: Series,
    /// Critical shard leg of each query at D (plan + execute) ...
    query_leg: Series,
    plan: Series,
    exec: Series,
    /// ... and at E (segment scans), plus the table freeze a query after
    /// writes would pay.
    scan: Series,
    freeze: Series,
    e_insert: Series,
    ew_insert: Series,
}

/// What E must do to its table to mirror a structural change D made.
struct Sync {
    /// Whole-partition reads the change began with (segments about to go).
    reads: Vec<SegmentId>,
    creates: Vec<SegmentId>,
    moves: Vec<(EntityId, SegmentId)>,
}

/// Diffs D's table against E's over the segments a change touched.
fn plan_sync(
    d: &UniversalTable,
    e: &UniversalTable,
    touched: &[SegmentId],
) -> Result<Sync, String> {
    let d_segs: Vec<SegmentId> = d.segment_ids().collect();
    let e_segs: Vec<SegmentId> = e.segment_ids().collect();
    let creates: Vec<SegmentId> = d_segs
        .iter()
        .copied()
        .filter(|s| !e_segs.contains(s))
        .collect();
    let reads = e_segs
        .iter()
        .copied()
        .filter(|s| !d_segs.contains(s))
        .collect();
    let mut moves = Vec::new();
    for seg in touched.iter().chain(&creates) {
        if !d_segs.contains(seg) {
            continue;
        }
        for entity in d
            .scan_collect(*seg)
            .map_err(|e| format!("sync scan: {e}"))?
        {
            if e.location(entity.id()) != Some(*seg) {
                moves.push((entity.id(), *seg));
            }
        }
    }
    moves.sort_unstable();
    moves.dedup();
    Ok(Sync {
        reads,
        creates,
        moves,
    })
}

/// Replays a [`Sync`] on E's table; `incoming` is the entity an overflow
/// split placed for the first time.
fn apply_sync(
    e: &mut UniversalTable,
    sync: &Sync,
    incoming: Option<&Entity>,
) -> Result<(), String> {
    let err = |e| format!("sync: {e}");
    for seg in &sync.reads {
        e.scan_collect(*seg).map_err(err)?;
    }
    for want in &sync.creates {
        // Segment ids are allocated in order; burn any id D used and
        // dropped within the same change.
        loop {
            let got = e.create_segment();
            if got == *want {
                break;
            }
            if got > *want {
                return Err(format!(
                    "sync: segment ids out of step ({got:?} > {want:?})"
                ));
            }
            e.drop_segment(got).map_err(err)?;
        }
    }
    for (id, seg) in &sync.moves {
        match (e.location(*id), incoming) {
            (Some(_), _) => e.move_entity(*id, *seg).map_err(err)?,
            (None, Some(entity)) if entity.id() == *id => e.insert(*seg, entity).map_err(err)?,
            (None, _) => return Err(format!("sync: entity {} unknown to the mirror", id.0)),
        }
    }
    for seg in &sync.reads {
        e.drop_segment(*seg).map_err(err)?;
    }
    Ok(())
}

/// Segments an enacted reorganizer action wrote into.
fn action_targets(action: ActionKind) -> Vec<SegmentId> {
    match action {
        ActionKind::Resplit { into, .. } => vec![into.0, into.1],
        ActionKind::Migrate { to, .. } => vec![to],
        ActionKind::Merge { into, .. } => vec![into],
    }
}

/// Passes D and E together: E mirrors each D operation right after it, so
/// it can read D's placements off D's live table.
fn bare_pass(spec: &Spec, plan: &Plan, tr: &mut Tracer) -> Result<(BareOut, BareSeries), String> {
    let config: Config = EngineOptions::from_serve(&serve_config(spec)).config;
    let wal_dir = harness::scratch_dir("trace-wal", 0).map_err(|e| format!("scratch dir: {e}"))?;
    let d: Vec<Bare> = (0..SHARDS)
        .map(|_| Bare {
            table: UniversalTable::new(spec.pool_pages.max(8)),
            cindy: Cinderella::new(config.clone()),
            driver: ReorgDriver::new(config.reorg),
        })
        .collect();
    let e: Vec<UniversalTable> = (0..SHARDS)
        .map(|_| UniversalTable::new(spec.pool_pages.max(8)))
        .collect();
    let mut ew: Vec<UniversalTable> = Vec::new();
    for i in 0..SHARDS {
        let mut t = UniversalTable::new(spec.pool_pages.max(8));
        let file = std::fs::File::create(wal_dir.join(format!("shard-{i}.wal")))
            .map_err(|e| format!("wal file: {e}"))?;
        t.attach_wal(Box::new(file));
        ew.push(t);
    }
    let ops = &plan.ops;
    let n = ops.len();
    let out = BareOut {
        rows: vec![0; n],
        ..BareOut::default()
    };
    let s = BareSeries {
        insert: Series::new(n),
        split_insert: Series::new(n),
        query_leg: Series::new(n),
        plan: Series::new(n),
        exec: Series::new(n),
        scan: Series::new(n),
        freeze: Series::new(n),
        e_insert: Series::new(n),
        ew_insert: Series::new(n),
    };
    let mut st = Stack {
        config,
        router: ShardRouter::new(SHARDS),
        d,
        e,
        ew,
        dirty: [true; SHARDS],
        s,
        out,
    };

    // The preload goes in with tracing off.
    tr.enabled = false;
    for wire in &plan.preload {
        st.insert(wire, NONE, tr)?;
    }
    tr.enabled = true;
    for (i, op) in ops.iter().enumerate() {
        match op {
            Request::Insert(wire) => {
                st.insert(wire, i as u32, tr)?;
            }
            Request::Query(attrs) => {
                let id = i as u32;
                let (mut d_leg, mut d_plan, mut d_exec, mut e_leg, mut e_freeze) =
                    (0u64, 0u64, 0u64, 0u64, 0u64);
                for shard in 0..SHARDS {
                    let bare = &mut st.d[shard];
                    let present: Vec<_> = attrs
                        .iter()
                        .filter_map(|a| bare.table.catalog().lookup(a))
                        .collect();
                    if present.is_empty() {
                        continue;
                    }
                    let query = Query::from_attrs(bare.table.catalog().len(), present);
                    let span = tr.begin("D.plan", NONE, id);
                    let survivors = bare.cindy.catalog().plan_survivors(query.synopsis());
                    let plan_ns = tr.end(span);
                    let (segments, pruned) =
                        survivors.ok_or("index mode off: no plan_survivors")?;
                    let plan = plan_from_survivors(segments, pruned);
                    bare.driver
                        .record_query(query.synopsis(), plan.segments.iter().copied());
                    let span = tr.begin("D.exec", NONE, id);
                    let result = execute_collect_view(bare.table.read_view(), &query, &plan);
                    let exec_ns = tr.end(span);
                    let (_, rows) = result.map_err(|e| format!("pass D query: {e}"))?;
                    st.out.rows[i] += rows.len() as u64;
                    if plan_ns + exec_ns > d_leg {
                        (d_leg, d_plan, d_exec) = (plan_ns + exec_ns, plan_ns, exec_ns);
                    }
                    // E: the freeze a query after writes pays, then the
                    // raw scans of the surviving segments.
                    let mut freeze_ns = 0;
                    if st.dirty[shard] {
                        let span = tr.begin("E.freeze", NONE, id);
                        drop(st.e[shard].freeze());
                        freeze_ns = tr.end(span);
                        st.dirty[shard] = false;
                    }
                    let span = tr.begin("E.scan", NONE, id);
                    for seg in &plan.segments {
                        // Decode every record, keep none: the storage floor
                        // under the executor's match-and-project.
                        st.e[shard]
                            .scan(*seg, |entity| {
                                std::hint::black_box(entity);
                            })
                            .map_err(|e| format!("pass E scan: {e}"))?;
                    }
                    let scan_ns = tr.end(span);
                    if scan_ns > e_leg {
                        e_leg = scan_ns;
                    }
                    e_freeze = e_freeze.max(freeze_ns);
                }
                st.s.query_leg.set_ns(i, d_leg);
                st.s.plan.set_ns(i, d_plan);
                st.s.exec.set_ns(i, d_exec);
                st.s.scan.set_ns(i, e_leg);
                if e_freeze > 0 {
                    st.s.freeze.set_ns(i, e_freeze);
                }
            }
            _ => {}
        }
    }

    // The mirror must have ended where D did.
    for shard in 0..SHARDS {
        let same = st.d[shard].table.entity_count() == st.e[shard].entity_count()
            && st.d[shard]
                .table
                .segment_ids()
                .eq(st.e[shard].segment_ids())
            && st.e[shard].segment_ids().eq(st.ew[shard].segment_ids());
        st.out.failed += u64::from(!same);
        st.out.partitions += st.d[shard].cindy.catalog().len() as u64;
        st.out.pages += st.e[shard]
            .segment_ids()
            .map(|seg| {
                st.e[shard]
                    .segment(seg)
                    .map_or(0, |s| s.page_count() as u64)
            })
            .sum::<u64>();
        st.out.index_resident_bytes += st.d[shard].cindy.catalog().index_resident_bytes() as u64;
        st.ew[shard]
            .flush_wal()
            .map_err(|e| format!("wal flush: {e}"))?;
    }
    st.out.wal_bytes = harness::dir_bytes(&wal_dir);
    let _ = std::fs::remove_dir_all(&wal_dir);

    // Tier shadow: flip D's catalogs to the tiered index and re-plan every
    // distinct query; survivors must be a superset of the exact ones.
    let shapes = distinct_queries(ops.iter());
    let (mut tier_us, mut exact_total, mut tier_total) = (Vec::new(), 0usize, 0usize);
    for bare in &mut st.d {
        let synopses: Vec<Synopsis> = shapes
            .iter()
            .filter_map(|attrs| {
                let ids: Vec<_> = attrs
                    .iter()
                    .filter_map(|a| bare.table.catalog().lookup(a))
                    .collect();
                (!ids.is_empty()).then(|| Synopsis::from_attrs(bare.table.catalog().len(), ids))
            })
            .collect();
        let exact: Vec<Vec<SegmentId>> = synopses
            .iter()
            .map(|q| {
                bare.cindy
                    .catalog()
                    .plan_survivors(q)
                    .map(|s| s.0)
                    .unwrap_or_default()
            })
            .collect();
        bare.cindy.set_index_tier(IndexTier::Tiered);
        for (q, exact) in synopses.iter().zip(&exact) {
            let span = tr.begin("tier.plan", NONE, NONE);
            let survivors = bare.cindy.catalog().plan_survivors(q);
            tier_us.push(tr.end(span) as f64 / 1e3);
            let tiered = survivors.map(|s| s.0).unwrap_or_default();
            st.out.failed += u64::from(!exact.iter().all(|seg| tiered.contains(seg)));
            exact_total += exact.len();
            tier_total += tiered.len();
        }
        st.out.tier_resident_bytes += bare.cindy.catalog().index_resident_bytes() as u64;
    }
    st.out.tier_plan_us = stats::median(&tier_us);
    st.out.tier_false_positive_share = if tier_total == 0 {
        0.0
    } else {
        (tier_total - exact_total) as f64 / tier_total as f64
    };
    Ok((st.out, st.s))
}

/// Levels D and E of every shard, and what their replay has measured.
struct Stack {
    config: Config,
    router: ShardRouter,
    d: Vec<Bare>,
    /// E mirrors without and with a file WAL.
    e: Vec<UniversalTable>,
    ew: Vec<UniversalTable>,
    /// Writes since E's last freeze, per shard.
    dirty: [bool; SHARDS],
    s: BareSeries,
    out: BareOut,
}

impl Stack {
    /// One insert at levels D, E and E-with-WAL (`id == NONE`: preload).
    fn insert(
        &mut self,
        wire: &cind_server::WireEntity,
        id: u32,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let Stack {
            config,
            router,
            d,
            e,
            ew,
            dirty,
            s,
            out,
        } = self;
        let shard = router.route(wire.id);
        let bare = &mut d[shard];
        // `Engine::build_entity`'s job, outside the spans: it is engine code,
        // so it must land in engine self time (C - D), not in core's.
        let attrs: Vec<_> = wire
            .attrs
            .iter()
            .map(|(name, value)| {
                e[shard].catalog_mut().intern(name);
                ew[shard].catalog_mut().intern(name);
                (bare.table.catalog_mut().intern(name), value.clone())
            })
            .collect();
        let entity = Entity::new(EntityId(wire.id), attrs).map_err(|e| format!("entity: {e}"))?;
        if tr.enabled {
            // Shadow call: the rating scan `Cinderella::insert` is about to do.
            let syn = entity.synopsis(bare.table.universe());
            let size = config.size_model.entity_size(&entity);
            let span = tr.begin("D.rating_scan", NONE, id);
            std::hint::black_box(
                bare.cindy
                    .catalog()
                    .best_partition(&syn, size, config.weight),
            );
            out.rating_us.push(tr.end(span) as f64 / 1e3);
        }
        let span = tr.begin("D.insert", NONE, id);
        let outcome = bare.cindy.insert(&mut bare.table, entity.clone());
        let insert_ns = tr.end(span);
        let outcome = outcome.map_err(|e| format!("pass D insert: {e}"))?;
        let op = id as usize;
        if id != NONE {
            s.insert.set_ns(op, insert_ns);
            if outcome.is_split() {
                s.split_insert.set_ns(op, insert_ns);
            }
        }
        // Mirror into E and E-with-WAL.
        let sync = match outcome {
            InsertOutcome::Inserted(_) => None,
            InsertOutcome::NewPartition(seg) => Some(plan_sync(&bare.table, &e[shard], &[seg])?),
            InsertOutcome::Split { into, .. } => {
                Some(plan_sync(&bare.table, &e[shard], &[into.0, into.1])?)
            }
        };
        let seg = bare
            .table
            .location(entity.id())
            .ok_or("inserted entity has no location")?;
        for (table, name, wal) in [
            (&mut e[shard], "E.insert", false),
            (&mut ew[shard], "Ew.insert", true),
        ] {
            let span = tr.begin(name, NONE, id);
            if wal {
                table.wal_txn_begin();
            }
            let r = match &sync {
                None => table
                    .insert(seg, &entity)
                    .map_err(|e| format!("pass E insert: {e}")),
                Some(sync) => apply_sync(table, sync, Some(&entity)),
            };
            if wal {
                table
                    .wal_txn_commit()
                    .map_err(|e| format!("wal commit: {e}"))?;
            }
            let ns = tr.end(span);
            r?;
            if id != NONE {
                if wal {
                    &mut s.ew_insert
                } else {
                    &mut s.e_insert
                }
                .set_ns(op, ns);
            }
        }
        dirty[shard] = true;

        // The reorganizer cadence `Engine::after_write` keeps.
        if bare.driver.record_write() {
            let span = tr.begin("D.reorg_step", NONE, id);
            let report = bare.driver.step(&mut bare.table, &mut bare.cindy);
            let ns = tr.end(span);
            let report = report.map_err(|e| format!("reorg step: {e}"))?;
            if tr.enabled {
                out.reorg_step_us.push(ns as f64 / 1e3);
            }
            if let Some(action) = report.action {
                let sync = plan_sync(&bare.table, &e[shard], &action_targets(action))?;
                for table in [&mut e[shard], &mut ew[shard]] {
                    table.wal_txn_begin();
                    apply_sync(table, &sync, None)?;
                    table
                        .wal_txn_commit()
                        .map_err(|e| format!("wal commit: {e}"))?;
                }
            }
        }
        Ok(())
    }
}

// --------------------------------------------------------------- the run

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs the traced replay of `spec` and reports the per-layer metrics.
pub fn run(
    spec: &Spec,
    seed: u64,
    scale: f64,
    expect_fingerprint: Option<u64>,
) -> Result<Outcome, String> {
    let plan = plan_traced(spec, seed, scale);
    check_fingerprint(spec.name, plan.fingerprint, expect_fingerprint)?;
    let ops = &plan.ops;
    let kinds = Kinds::of(ops);
    let mut notes = vec![format!("fingerprint {:016x}", plan.fingerprint)];
    notes.push(format!(
        "traced stream: {} preload, {} inserts, {} queries, one client",
        plan.preload.len(),
        kinds.inserts.len(),
        kinds.queries.len()
    ));
    let mut tr = Tracer::new();

    // A three times: a discarded warm-up (the first pass of a process pays
    // page faults and cold caches), then untraced, then traced.
    tr.enabled = false;
    wire_pass(spec, &plan, &mut tr)?;
    let untraced = wire_pass(spec, &plan, &mut tr)?;
    tr.enabled = true;
    let a = wire_pass(spec, &plan, &mut tr)?;
    let (b, bs) = sharded_pass(spec, &plan, &mut tr)?;
    let c = engine_pass(
        spec,
        &plan,
        None,
        &mut tr,
        &["C.insert", "C.snapshot", "C.query_subset"],
    )?;
    let (d, ds) = bare_pass(spec, &plan, &mut tr)?;

    // Extra replays that only some workloads have a use for.
    let mut durable_overhead_us = 0.0;
    if spec.durable {
        let dir = harness::scratch_dir("trace-c", 0).map_err(|e| format!("scratch dir: {e}"))?;
        let durable = engine_pass(
            spec,
            &plan,
            Some(&dir),
            &mut tr,
            &["Cd.insert", "Cd.snapshot", "Cd.query_subset"],
        )?;
        durable_overhead_us = durable
            .insert
            .minus(&[&c.insert])
            .median(&kinds.inserts)
            .max(0.0);
        let _ = std::fs::remove_dir_all(dir);
    }
    let mut efficiency_gain = 0.0;
    if spec.reorg {
        tr.enabled = false;
        let off = Spec {
            reorg: false,
            ..*spec
        };
        efficiency_gain = b.efficiency - sharded_pass(&off, &plan, &mut tr)?.0.efficiency;
        tr.enabled = true;
    }

    // Cross-pass agreement: every level answered every query alike and
    // ended with the same partitioning.
    let mut failed = a.failed + untraced.failed + b.failed + d.failed;
    let disagree = kinds
        .queries
        .iter()
        .filter(|i| b.rows[**i] != c.rows[**i] || b.rows[**i] != d.rows[**i])
        .count();
    failed += disagree as u64;
    if disagree > 0 {
        notes.push(format!(
            "{disagree} queries returned different row counts at different levels"
        ));
    }
    if b.partitions != d.partitions {
        failed += 1;
        notes.push(format!(
            "pass B ended with {} partitions, pass D with {}",
            b.partitions, d.partitions
        ));
    }

    // Stage series (per op, µs).
    let codec = bs
        .encode_request
        .plus(&bs.decode_request)
        .plus(&bs.encode_response)
        .plus(&bs.decode_response);
    let wire_self = a.roundtrip.minus(&[&bs.handle, &codec]);
    let (ins, qs) = (&kinds.inserts, &kinds.queries);
    let pos = |v: f64| v.max(0.0);
    let sharded_self_insert = pos(bs.handle.minus(&[&c.insert]).median(ins));
    let sharded_self_query = pos(bs.handle.minus(&[&c.query_leg]).median(qs));
    let engine_self_insert = pos(c.insert.minus(&[&ds.insert]).median(ins));
    let engine_self_query = pos(c.query_leg.minus(&[&ds.query_leg, &c.snapshot]).median(qs));
    let core_self_insert = pos(ds.insert.minus(&[&ds.e_insert]).median(ins));
    let query_self_scan = pos(ds.exec.minus(&[&ds.scan]).median(qs));
    let wire_self_insert = pos(wire_self.median(ins));
    let wire_self_query = pos(wire_self.median(qs));
    let stage_sum_insert = wire_self_insert
        + codec.median(ins)
        + sharded_self_insert
        + engine_self_insert
        + core_self_insert
        + ds.e_insert.median(ins);
    let stage_sum_query = wire_self_query
        + codec.median(qs)
        + sharded_self_query
        + engine_self_query
        + c.snapshot.median(qs)
        + ds.plan.median(qs)
        + query_self_scan
        + ds.scan.median(qs);
    let unattributed = |sum: f64, idx: &[usize]| {
        let total = a.roundtrip.median(idx);
        if total == 0.0 {
            0.0
        } else {
            1.0 - sum / total
        }
    };

    let n_ops = ops.len() as f64;
    let n_q = qs.len() as f64;
    let n_i = ins.len() as f64;
    let user_bytes = plan.user_bytes();
    let snapshots = (c.refreeze_us.len() + c.hit_us.len()) as f64;
    let frozen: Vec<usize> = qs
        .iter()
        .copied()
        .filter(|i| ds.freeze.0[*i].is_finite())
        .collect();
    let splits: Vec<usize> = ins
        .iter()
        .copied()
        .filter(|i| ds.split_insert.0[*i].is_finite())
        .collect();

    let all: Vec<usize> = (0..ops.len()).collect();
    let us = "us";
    let count = "count";
    let metrics: Vec<Metric> = vec![
        metric(
            "protocol.encode_request_us",
            bs.encode_request.median(&all),
            us,
        ),
        metric(
            "protocol.decode_request_us",
            bs.decode_request.median(&all),
            us,
        ),
        metric(
            "protocol.encode_response_us",
            bs.encode_response
                .median(if qs.is_empty() { ins } else { qs }),
            us,
        ),
        metric(
            "protocol.decode_response_us",
            bs.decode_response
                .median(if qs.is_empty() { ins } else { qs }),
            us,
        ),
        metric(
            "protocol.response_bytes_per_query",
            ratio(b.response_bytes as f64, n_q),
            "bytes",
        ),
        metric("server.wire_self_insert_us", wire_self_insert, us),
        metric("server.wire_self_query_us", wire_self_query, us),
        metric(
            "server.socket_syscalls_per_op",
            ratio((a.io.net_reads + a.io.net_writes) as f64, n_ops),
            count,
        ),
        metric(
            "server.frames_per_read",
            ratio(a.io.frames_in as f64, a.io.net_reads as f64),
            count,
        ),
        metric(
            "server.frames_per_write",
            ratio(a.io.frames_out as f64, a.io.net_writes as f64),
            count,
        ),
        metric(
            "server.busy_sheds",
            (a.failed + untraced.failed) as f64,
            count,
        ),
        metric("server.insert_p50_us", untraced.roundtrip.median(ins), us),
        metric("server.insert_tail_us", untraced.roundtrip.tail(ins), us),
        metric("server.query_p50_us", untraced.roundtrip.median(qs), us),
        metric("server.query_tail_us", untraced.roundtrip.tail(qs), us),
        metric("sharded.insert_us", bs.handle.median(ins), us),
        metric("sharded.query_us", bs.handle.median(qs), us),
        metric("sharded.self_insert_us", sharded_self_insert, us),
        metric("sharded.self_query_us", sharded_self_query, us),
        metric("engine.insert_us", c.insert.median(ins), us),
        metric(
            "engine.query_us",
            c.query_leg.minus(&[&c.snapshot]).median(qs),
            us,
        ),
        metric("engine.snapshot_us", stats::median(&c.refreeze_us), us),
        metric("engine.snapshot_hit_us", stats::median(&c.hit_us), us),
        metric(
            "engine.snapshot_refreeze_share",
            ratio(c.refreeze_us.len() as f64, snapshots),
            "ratio",
        ),
        metric("engine.self_insert_us", engine_self_insert, us),
        metric("engine.self_query_us", engine_self_query, us),
        metric(
            "commit.wal_syncs_per_op",
            ratio(a.io.wal_syncs as f64, a.io.wal_ops as f64),
            count,
        ),
        metric(
            "commit.ops_per_group",
            ratio(a.io.wal_ops as f64, a.io.wal_groups as f64),
            count,
        ),
        metric("commit.durable_overhead_us", durable_overhead_us, us),
        metric("core.insert_us", ds.insert.median(ins), us),
        metric("core.insert_split_us", ds.split_insert.median(&splits), us),
        metric("core.rating_scan_us", stats::median(&d.rating_us), us),
        metric(
            "core.ratings_per_insert",
            ratio(b.core.ratings_computed as f64, b.core.inserts as f64),
            count,
        ),
        metric("core.splits", b.core.splits as f64, count),
        metric("core.split_moves", b.core.split_moves as f64, count),
        metric("core.partitions", b.partitions as f64, count),
        metric("core.plan_us", ds.plan.median(qs), us),
        metric("core.self_insert_us", core_self_insert, us),
        metric(
            "core.index_resident_bytes",
            d.index_resident_bytes as f64,
            "bytes",
        ),
        metric("tier.plan_us", d.tier_plan_us, us),
        metric(
            "tier.false_positive_share",
            d.tier_false_positive_share,
            "ratio",
        ),
        metric("tier.resident_bytes", d.tier_resident_bytes as f64, "bytes"),
        metric("query.scan_us", ds.exec.median(qs), us),
        metric("query.self_scan_us", query_self_scan, us),
        metric(
            "query.rows_per_query",
            ratio(qs.iter().map(|i| b.rows[*i]).sum::<u64>() as f64, n_q),
            count,
        ),
        metric(
            "query.entities_scanned_per_row",
            ratio(
                b.qstats.entities_scanned as f64,
                qs.iter().map(|i| b.rows[*i]).sum::<u64>() as f64,
            ),
            "ratio",
        ),
        metric(
            "query.segments_pruned_share",
            ratio(
                b.qstats.segments_pruned as f64,
                (b.qstats.segments_pruned + b.qstats.segments_read) as f64,
            ),
            "ratio",
        ),
        metric("storage.insert_us", ds.e_insert.median(ins), us),
        metric("storage.scan_us", ds.scan.median(qs), us),
        metric("storage.freeze_us", ds.freeze.median(&frozen), us),
        metric("storage.pages", d.pages as f64, count),
        metric(
            "buffer.hit_ratio",
            if b.qstats.logical_reads == 0 {
                0.0
            } else {
                1.0 - ratio(
                    b.qstats.physical_reads as f64,
                    b.qstats.logical_reads as f64,
                )
            },
            "ratio",
        ),
        metric("buffer.evictions", b.evictions as f64, count),
        metric(
            "buffer.logical_reads_per_query",
            ratio(b.qstats.logical_reads as f64, n_q),
            count,
        ),
        metric(
            "buffer.physical_reads_per_query",
            ratio(b.qstats.physical_reads as f64, n_q),
            count,
        ),
        metric(
            "wal.bytes_per_user_byte",
            ratio(d.wal_bytes as f64, user_bytes as f64),
            "ratio",
        ),
        metric(
            "wal.append_overhead_us",
            pos(ds.ew_insert.minus(&[&ds.e_insert]).median(ins)),
            us,
        ),
        metric("wal.checkpoint_s", b.checkpoint_s, "s"),
        metric("wal.recover_s", b.recover_s, "s"),
        metric(
            "wal.store_bytes_per_user_byte",
            b.store_bytes_per_user_byte,
            "ratio",
        ),
        metric("reorg.steps", b.reorg.steps as f64, count),
        metric("reorg.resplits", b.reorg.resplits as f64, count),
        metric("reorg.merges", b.reorg.merges as f64, count),
        metric("reorg.migrations", b.reorg.migrations as f64, count),
        metric("reorg.entities_moved", b.reorg.entities_moved as f64, count),
        metric("reorg.step_us", stats::median(&d.reorg_step_us), us),
        metric("reorg.efficiency_gain", efficiency_gain, "ratio"),
        metric("trace.spans", tr.spans.len() as f64, count),
        // Medians, not wall time: one stall in either pass would swamp the
        // two clock reads per op that tracing adds.
        metric(
            "trace.overhead_share",
            ratio(
                a.roundtrip.median(&all) - untraced.roundtrip.median(&all),
                untraced.roundtrip.median(&all),
            ),
            "ratio",
        ),
        metric(
            "trace.unattributed_share_insert",
            if n_i == 0.0 {
                0.0
            } else {
                unattributed(stage_sum_insert, ins)
            },
            "ratio",
        ),
        metric(
            "trace.unattributed_share_query",
            if n_q == 0.0 {
                0.0
            } else {
                unattributed(stage_sum_query, qs)
            },
            "ratio",
        ),
    ];

    notes.push(format!(
        "pass A wall {:.3} s traced, {:.3} s untraced; efficiency {:.4}; roundtrip p50 insert {:.1} us, query {:.1} us",
        a.wall_s,
        untraced.wall_s,
        b.efficiency,
        a.roundtrip.median(ins),
        a.roundtrip.median(qs)
    ));
    let path = harness::out_dir().join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(harness::out_dir()).map_err(|e| format!("out dir: {e}"))?;
    std::fs::write(&path, tr.to_json(TRACE_FILE_OPS).render())
        .map_err(|e| format!("trace file: {e}"))?;
    notes.push(format!(
        "spans of the first {TRACE_FILE_OPS} ops written to {}",
        path.display()
    ));

    Ok(Outcome {
        metrics,
        attempted: (ops.len() as u64).max(1),
        failed,
        notes,
    })
}
