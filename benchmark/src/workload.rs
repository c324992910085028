//! The five workloads: their frozen sizes, the op-stream planner, and the
//! fingerprint that pins what is measured.
//!
//! The planner is the benchmark's own (it calls `cind-datagen` generators
//! but not `cind_server::loadgen`), so a later change to program code
//! cannot change which operations are timed. Every size below is a
//! constant calibrated once on the 2-core reference box, stated for the
//! frozen run length [`FROZEN_SECONDS`]; nothing scales itself at run time.
//! `--seconds` scales the sizes linearly, so the same `--seconds` always
//! plans the same streams.

use cind_datagen::{
    DbpediaConfig, DbpediaGenerator, DriftConfig, DriftMode, DriftOp, DriftScenario,
};
use cind_model::{AttributeCatalog, Entity, Value};
use cind_server::{Request, WireEntity};

/// The seed every recorded number uses unless `--seed` says otherwise.
pub const DEFAULT_SEED: u64 = 0xC1DE;
/// A seed never used while calibrating; claims must also hold on it.
pub const HELD_OUT_SEED: u64 = 0x5EED;
/// The run length (`run_seconds` in `BENCHMARK.json`) the sizes are for.
pub const FROZEN_SECONDS: f64 = 20.0;
/// Attributes in the DBpedia-like data (the paper's shape).
pub const ATTRIBUTES: usize = 100;
/// Server shape shared by every workload (nproc = 2).
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;
pub const QUEUE_DEPTH: usize = 64;

/// Which generator feeds a workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Data {
    /// `DbpediaGenerator`: 100 attributes, Fig. 4 frequency shape.
    Dbpedia,
    /// `DriftScenario` in `DriftMode::Drift`: 8 groups x 8 attributes,
    /// query share 1/11, focus rotating over four phases.
    Drift,
}

/// One workload's frozen shape. Sizes are per replay at `--seconds`
/// [`FROZEN_SECONDS`]; every workload drives one closed-loop connection.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    /// On-disk store with WAL (ack after fsync, group-commit window 0).
    pub durable: bool,
    /// `reorg: Auto` instead of `Off`.
    pub reorg: bool,
    /// Run pinned to one CPU. A closed loop of small ops keeps one thread
    /// runnable at a time, and unpinned its speed is set by how this guest's
    /// two vCPUs wake each other (a 2x swing lasting minutes); on one CPU a
    /// wake-up is a context switch (README "noise").
    pub pin: bool,
    /// Inserts per `InsertBatch` frame in the timed window (1 = one
    /// `Insert` frame each).
    pub batch: usize,
    /// Distinct streams per timed run, planned from seeds derived from
    /// `--seed`; the metrics pool them, so one seed's luck weighs less.
    pub streams: usize,
    /// Times the timed run replays each stream, every time on a fresh
    /// server. One closed-loop connection makes op `i` the same work on the
    /// same state in every replay, so its fastest replay is its undisturbed
    /// cost (README "noise"); more, shorter replays see more of the host's
    /// phases.
    pub replays: usize,
    /// Buffer-pool pages *per shard*.
    pub pool_pages: usize,
    /// Entities loaded during set-up, before the timed window.
    pub preload: usize,
    /// Inserts and queries of one timed window.
    pub inserts: usize,
    pub queries: usize,
    /// The single stream of the traced run.
    pub trace_inserts: usize,
    pub trace_queries: usize,
    /// Timed right after the window on the quiesced store: the op type the
    /// window lacks (see README "probes"); fixed counts, not scaled.
    pub probe_queries: usize,
    pub probe_inserts: usize,
    /// Durable only: inserts acked *after* the checkpoint, so recovery has
    /// a WAL suffix to replay over the snapshot.
    pub tail_inserts: usize,
    /// Query shapes checked against the oracle after the store quiesces.
    pub verify_queries: usize,
}

const BASE: Spec = Spec {
    name: "",
    data: Data::Dbpedia,
    durable: false,
    reorg: false,
    pin: false,
    batch: 1,
    streams: 1,
    replays: 4,
    pool_pages: 4096,
    preload: 0,
    inserts: 0,
    queries: 0,
    trace_inserts: 0,
    trace_queries: 0,
    probe_queries: 0,
    probe_inserts: 0,
    tail_inserts: 0,
    verify_queries: 0,
};

/// The workloads, in the order they run and print.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "ingest_mem",
        // Many short streams, not one long window: past ~60k entities the
        // partitioner enters a split storm (see README) whose length swings
        // seed to seed; 24k stays in the steady regime, and the median
        // stream shrugs off the odd seed that splits early.
        pin: true,
        batch: 32,
        streams: 11,
        replays: 8,
        inserts: 12_000,
        trace_inserts: 30_000,
        probe_queries: 30,
        ..BASE
    },
    Spec {
        name: "ingest_durable",
        durable: true,
        pin: true,
        streams: 3,
        replays: 6,
        inserts: 4_000,
        trace_inserts: 8_000,
        probe_queries: 100,
        tail_inserts: 500,
        ..BASE
    },
    Spec {
        name: "steady_mix",
        streams: 3,
        preload: 30_000,
        inserts: 1_750,
        queries: 175,
        trace_inserts: 2_500,
        trace_queries: 250,
        verify_queries: 50,
        ..BASE
    },
    Spec {
        name: "scan_only",
        streams: 3,
        pool_pages: 64,
        preload: 30_000,
        queries: 225,
        trace_queries: 400,
        probe_inserts: 500,
        ..BASE
    },
    Spec {
        name: "drift_reorg",
        data: Data::Drift,
        reorg: true,
        pin: true,
        streams: 3,
        replays: 8,
        // Drift streams are sized in ops; 1 in 11 is a query.
        inserts: 9_000,
        queries: 900,
        trace_inserts: 15_000,
        trace_queries: 1_500,
        ..BASE
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Everything one run sends, planned before the clock starts.
pub struct Plan {
    /// Loaded in-process during set-up.
    pub preload: Vec<WireEntity>,
    /// The timed window, in the order the one connection sends it.
    pub ops: Vec<Request>,
    /// Post-window probes and checks (see [`Spec`]).
    pub probe_queries: Vec<Request>,
    pub probe_inserts: Vec<Request>,
    pub tail_inserts: Vec<Request>,
    pub verify_queries: Vec<Request>,
    /// FNV-1a over a canonical rendering of every planned op, in order.
    pub fingerprint: u64,
}

impl Plan {
    /// Every insert the run will have acked once it is over, in plan order.
    pub fn all_inserts(&self) -> impl Iterator<Item = &WireEntity> {
        let reqs = self
            .ops
            .iter()
            .chain(self.probe_inserts.iter())
            .chain(self.tail_inserts.iter());
        self.preload.iter().chain(reqs.flat_map(inserts_of))
    }

    /// Bytes the user hands the system over the whole run: every inserted
    /// entity as the body of a single `Insert` request.
    pub fn user_bytes(&self) -> u64 {
        self.all_inserts()
            .map(|e| {
                cind_server::protocol::encode_request(&Request::Insert(e.clone())).len() as u64
            })
            .sum()
    }
}

/// Refuses to measure a plan that is not the frozen one.
///
/// # Errors
/// "workload drifted" when `frozen` is given and differs from `planned`.
pub fn check_fingerprint(workload: &str, planned: u64, frozen: Option<u64>) -> Result<(), String> {
    match frozen {
        Some(want) if want != planned => Err(format!(
            "workload drifted: {workload} plans fingerprint {planned:016x}, frozen {want:016x} \
             (cind-datagen or the rand shim changed what is generated)"
        )),
        _ => Ok(()),
    }
}

/// The entities a request inserts (none for anything but inserts).
pub fn inserts_of(req: &Request) -> &[WireEntity] {
    match req {
        Request::Insert(e) => std::slice::from_ref(e),
        Request::InsertBatch(es) => es,
        _ => &[],
    }
}

/// Operations a request frame carries: a batch counts each insert.
pub fn op_count(req: &Request) -> u64 {
    match req {
        Request::InsertBatch(es) => es.len() as u64,
        _ => 1,
    }
}

pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `n` at the frozen run length, scaled to `seconds` (never below 1 for a
/// size that is not 0).
fn scaled(n: usize, seconds: f64) -> usize {
    let scaled = (n as f64 * seconds / FROZEN_SECONDS).round() as usize;
    if n > 0 {
        scaled.max(1)
    } else {
        0
    }
}

/// Seed of the `stream`-th stream of a timed run: `seed` itself, then
/// golden-ratio steps away from it, so runs on neighbouring seeds share no
/// stream.
pub fn stream_seed(seed: u64, stream: usize) -> u64 {
    seed.wrapping_add((stream as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Plans one stream of the timed run of `spec`. `seconds` is `--seconds`
/// (or a fiftieth of the frozen run length under `--smoke`).
pub fn plan_timed(spec: &Spec, seed: u64, seconds: f64) -> Plan {
    plan(
        spec,
        seed,
        scaled(spec.inserts, seconds),
        scaled(spec.queries, seconds),
        true,
    )
}

/// Fingerprint of a whole timed run: its streams' fingerprints, in order.
pub fn timed_fingerprint(streams: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    streams.into_iter().for_each(|f| h.u64(f));
    h.0
}

/// Plans the traced run: the same generators and query schedule, sized
/// for several replay passes, without probes.
pub fn plan_traced(spec: &Spec, seed: u64, seconds: f64) -> Plan {
    plan(
        spec,
        seed,
        scaled(spec.trace_inserts, seconds),
        scaled(spec.trace_queries, seconds),
        false,
    )
}

fn plan(spec: &Spec, seed: u64, inserts: usize, queries: usize, probes: bool) -> Plan {
    let mut plan = match spec.data {
        Data::Dbpedia => plan_dbpedia(spec, seed, inserts, queries, probes),
        Data::Drift => plan_drift(seed, inserts + queries),
    };
    plan.fingerprint = fingerprint(&plan);
    plan
}

fn wire(entity: &Entity, catalog: &AttributeCatalog) -> WireEntity {
    WireEntity {
        id: entity.id().0,
        attrs: entity
            .attrs()
            .iter()
            .map(|(a, v)| (catalog.name(*a).unwrap_or_default().to_string(), v.clone()))
            .collect(),
    }
}

/// Frequency classes of the DBpedia-like attributes, by rank (see
/// `DbpediaGenerator::target_frequency`): two near-universal, eleven
/// fairly common, the rest a long tail.
const UNIVERSAL: std::ops::Range<usize> = 0..2;
const COMMON: std::ops::Range<usize> = 2..13;
const TAIL: std::ops::Range<usize> = 13..ATTRIBUTES;

/// Query classes in a repeating cycle of 25: one (universal, tail), five
/// (common, tail), nineteen (tail, tail) — the shares a uniform pick over
/// 100 attributes gives (4 % / 20 % / 76 %), but with the *count* of heavy
/// queries fixed, so throughput does not swing with how many a seed drew.
fn query_class(i: usize) -> std::ops::Range<usize> {
    match i % 25 {
        12 => UNIVERSAL,
        2 | 7 | 17 | 22 | 24 => COMMON,
        _ => TAIL,
    }
}

/// Draws two-attribute queries on the class schedule, only over attributes
/// `present` in the data loaded before the first query can run (so no
/// query can meet an attribute the store has never seen).
struct QueryPicker<'a> {
    names: &'a [String],
    present: &'a [bool],
    rng: u64,
    next: usize,
}

impl QueryPicker<'_> {
    fn pick_in(&mut self, class: std::ops::Range<usize>, avoid: Option<usize>) -> usize {
        let pool: Vec<usize> = class
            .filter(|i| self.present[*i] && Some(*i) != avoid)
            .collect();
        // Classes are never empty in practice (universals are on ~every
        // entity); fall back to attribute 0, which always exists.
        if pool.is_empty() {
            return 0;
        }
        pool[(splitmix(&mut self.rng) % pool.len() as u64) as usize]
    }

    fn next_query(&mut self) -> Request {
        let class = query_class(self.next);
        self.next += 1;
        let a = self.pick_in(class, None);
        let b = self.pick_in(TAIL, Some(a));
        Request::Query(vec![self.names[a].clone(), self.names[b].clone()])
    }
}

/// Spreads `queries` evenly between `inserts`, inserts first.
fn interleave(inserts: Vec<Request>, queries: Vec<Request>) -> Vec<Request> {
    let (ni, nq) = (inserts.len(), queries.len());
    let mut out = Vec::with_capacity(ni + nq);
    let mut queries = queries.into_iter();
    let mut emitted = 0;
    for (i, ins) in inserts.into_iter().enumerate() {
        out.push(ins);
        // After k inserts, floor(k * nq / ni) queries have gone out.
        while emitted < (i + 1) * nq / ni {
            out.extend(queries.next());
            emitted += 1;
        }
    }
    out.extend(queries);
    out
}

fn plan_dbpedia(spec: &Spec, seed: u64, inserts: usize, queries: usize, probes: bool) -> Plan {
    let (probe_inserts, tail_inserts) = if probes {
        (spec.probe_inserts, spec.tail_inserts)
    } else {
        (0, 0)
    };
    let total = spec.preload + inserts + probe_inserts + tail_inserts;
    let gen = DbpediaGenerator::new(DbpediaConfig {
        entities: total,
        attributes: ATTRIBUTES,
        seed,
        ..DbpediaConfig::default()
    });
    let mut catalog = AttributeCatalog::new();
    let entities = gen.generate(&mut catalog);
    let names: Vec<String> = catalog.iter().map(|(_, n)| n.to_string()).collect();

    // Attributes the store is sure to know when the first query runs: the
    // preload's for in-window queries, everything timed for later probes.
    let mut present_early = vec![false; ATTRIBUTES];
    let mut present_late = vec![false; ATTRIBUTES];
    for (i, e) in entities[..spec.preload + inserts].iter().enumerate() {
        for (a, _) in e.attrs() {
            present_late[a.index() as usize] = true;
            if i < spec.preload {
                present_early[a.index() as usize] = true;
            }
        }
    }

    let mut wires = entities.iter().map(|e| wire(e, &catalog));
    let preload: Vec<WireEntity> = wires.by_ref().take(spec.preload).collect();
    let batch = if probes { spec.batch.max(1) } else { 1 };
    let timed: Vec<Request> = if batch == 1 {
        wires.by_ref().take(inserts).map(Request::Insert).collect()
    } else {
        let mut es = wires.by_ref().take(inserts).peekable();
        let mut frames = Vec::new();
        while es.peek().is_some() {
            frames.push(Request::InsertBatch(es.by_ref().take(batch).collect()));
        }
        frames
    };
    let probe_ins: Vec<Request> = wires
        .by_ref()
        .take(probe_inserts)
        .map(Request::Insert)
        .collect();
    let tail: Vec<Request> = wires.map(Request::Insert).collect();

    let mut picker = QueryPicker {
        names: &names,
        present: &present_early,
        rng: seed ^ 0x51C0_FFEE,
        next: 0,
    };
    let window_queries = (0..queries).map(|_| picker.next_query()).collect();
    let ops = interleave(timed, window_queries);

    let (probe_q, verify_q) = if probes {
        (spec.probe_queries, spec.verify_queries)
    } else {
        (0, 0)
    };
    // Probe shapes are fixed by frequency rank, not drawn: they exist only
    // to give an insert-only window a query latency, and a drawn set of
    // this size would make that latency swing with the seed.
    let tail_attrs: Vec<usize> = TAIL.filter(|i| present_late[*i]).collect();
    let probe_queries = (0..probe_q)
        .map(|k| {
            let a = tail_attrs[k % tail_attrs.len()];
            let b = tail_attrs[(k + 1 + k / tail_attrs.len()) % tail_attrs.len()];
            Request::Query(vec![names[a].clone(), names[b].clone()])
        })
        .collect();
    picker.present = &present_late;
    picker.next = 0;
    let verify_queries = (0..verify_q).map(|_| picker.next_query()).collect();

    Plan {
        preload,
        ops,
        probe_queries,
        probe_inserts: probe_ins,
        tail_inserts: tail,
        verify_queries,
        fingerprint: 0,
    }
}

/// Drift group shape (the issue fixes 8 x 8).
const DRIFT_GROUPS: usize = 8;
const DRIFT_WIDTH: usize = 8;
/// Ids of the synthetic preload entities sit far above the stream's.
const DRIFT_PRELOAD_BASE: u64 = 1 << 40;

fn plan_drift(seed: u64, ops: usize) -> Plan {
    let scenario = DriftScenario::new(DriftConfig {
        mode: DriftMode::Drift,
        ops: ops.max(1),
        groups: DRIFT_GROUPS,
        group_width: DRIFT_WIDTH,
        query_share: 1.0 / 11.0,
        seed,
    });
    let mut catalog = AttributeCatalog::new();
    let stream = scenario.generate(&mut catalog, 0);
    let name_of = |a: cind_model::AttrId| catalog.name(a).unwrap_or_default().to_string();
    // One full-width entity per group interns all 64 attributes before the
    // stream starts, so an early query cannot name an unseen attribute.
    let preload = (0..DRIFT_GROUPS)
        .map(|g| WireEntity {
            id: DRIFT_PRELOAD_BASE + g as u64,
            attrs: (0..DRIFT_WIDTH)
                .map(|j| (format!("g{g}_a{j}"), Value::Int(0)))
                .collect(),
        })
        .collect();
    let ops = stream
        .into_iter()
        .map(|op| match op {
            DriftOp::Insert(e) => Request::Insert(wire(&e, &catalog)),
            DriftOp::Delete(id) => Request::Delete(id.0),
            DriftOp::Query(attrs) => Request::Query(attrs.into_iter().map(name_of).collect()),
        })
        .collect();
    Plan {
        preload,
        ops,
        probe_queries: Vec::new(),
        probe_inserts: Vec::new(),
        tail_inserts: Vec::new(),
        verify_queries: Vec::new(),
        fingerprint: 0,
    }
}

/// FNV-1a 64, fed in chunks.
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Bool(b) => h.bytes(&[1, u8::from(*b)]),
        Value::Int(i) => {
            h.bytes(&[2]);
            h.u64(*i as u64);
        }
        Value::Float(f) => {
            h.bytes(&[3]);
            h.u64(f.to_bits());
        }
        Value::Text(s) => {
            h.bytes(&[4]);
            h.u64(s.len() as u64);
            h.bytes(s.as_bytes());
        }
    }
}

fn hash_entity(h: &mut Fnv, e: &WireEntity) {
    h.u64(e.id);
    h.u64(e.attrs.len() as u64);
    for (name, value) in &e.attrs {
        h.u64(name.len() as u64);
        h.bytes(name.as_bytes());
        hash_value(h, value);
    }
}

fn hash_request(h: &mut Fnv, req: &Request) {
    match req {
        Request::Insert(e) => {
            h.bytes(b"I");
            hash_entity(h, e);
        }
        Request::InsertBatch(es) => {
            h.bytes(b"B");
            h.u64(es.len() as u64);
            es.iter().for_each(|e| hash_entity(h, e));
        }
        Request::Delete(id) => {
            h.bytes(b"D");
            h.u64(*id);
        }
        Request::Query(attrs) => {
            h.bytes(b"Q");
            h.u64(attrs.len() as u64);
            for a in attrs {
                h.u64(a.len() as u64);
                h.bytes(a.as_bytes());
            }
        }
        // The planner emits nothing else.
        _ => h.bytes(b"?"),
    }
}

/// Hash of the whole plan in a canonical rendering that does not depend on
/// the wire protocol's encoding — only on *what* is sent.
fn fingerprint(plan: &Plan) -> u64 {
    let mut h = Fnv::new();
    for e in &plan.preload {
        hash_entity(&mut h, e);
    }
    let tails = [
        &plan.probe_inserts,
        &plan.probe_queries,
        &plan.tail_inserts,
        &plan.verify_queries,
    ];
    for list in std::iter::once(&plan.ops).chain(tails) {
        h.bytes(b"|");
        for req in list {
            hash_request(&mut h, req);
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(ops: &[Request]) -> String {
        ops.iter()
            .map(|r| match r {
                Request::Insert(_) => 'i',
                Request::Query(_) => 'q',
                _ => '?',
            })
            .collect()
    }

    fn ins(n: usize) -> Vec<Request> {
        (0..n as u64)
            .map(|id| {
                Request::Insert(WireEntity {
                    id,
                    attrs: Vec::new(),
                })
            })
            .collect()
    }

    fn qs(n: usize) -> Vec<Request> {
        (0..n).map(|_| Request::Query(Vec::new())).collect()
    }

    #[test]
    fn interleave_spreads_queries_evenly() {
        assert_eq!(kinds(&interleave(ins(6), qs(2))), "iiiqiiiq");
        assert_eq!(kinds(&interleave(ins(20), qs(2))), "iiiiiiiiiiqiiiiiiiiiiq");
        assert_eq!(kinds(&interleave(ins(0), qs(3))), "qqq");
        assert_eq!(kinds(&interleave(ins(3), qs(0))), "iii");
        assert_eq!(kinds(&interleave(ins(2), qs(4))), "iqqiqq");
    }

    #[test]
    fn plans_repeat_per_seed_and_differ_across_seeds() {
        for spec in &SPECS {
            let a = plan_timed(spec, 7, 0.2);
            let b = plan_timed(spec, 7, 0.2);
            let c = plan_timed(spec, 8, 0.2);
            assert_eq!(a.fingerprint, b.fingerprint, "{}", spec.name);
            assert_ne!(a.fingerprint, c.fingerprint, "{}", spec.name);
            let traced = plan_traced(spec, 7, 0.2);
            assert_ne!(traced.fingerprint, a.fingerprint);
        }
    }

    #[test]
    fn query_schedule_keeps_the_class_shares() {
        let heavy = (0..100).filter(|i| query_class(*i) == UNIVERSAL).count();
        let common = (0..100).filter(|i| query_class(*i) == COMMON).count();
        assert_eq!((heavy, common), (4, 20));
    }

    #[test]
    fn queries_only_name_attributes_the_store_knows() {
        let spec = spec("steady_mix").unwrap();
        let plan = plan_timed(spec, 3, 0.2);
        let known: std::collections::BTreeSet<&str> = plan
            .preload
            .iter()
            .flat_map(|e| e.attrs.iter().map(|(n, _)| n.as_str()))
            .collect();
        let mut queries = 0;
        for req in plan.ops.iter().chain(&plan.verify_queries) {
            if let Request::Query(attrs) = req {
                queries += 1;
                assert_eq!(attrs.len(), 2);
                assert_ne!(attrs[0], attrs[1]);
                assert!(attrs.iter().all(|a| known.contains(a.as_str())));
            }
        }
        assert!(queries > 0);
    }
}
