//! Synthetic query workload (§V-B construction).
//!
//! The paper: "We created multiple sets of attributes. Each of the
//! individual attributes forms an attribute set. Additionally, we combined
//! the 20 most frequent attributes to pairs and triples. […] We collected
//! representative queries to reasonably cover the range of possible
//! selectivities; three representative queries for each selectivity."
//!
//! [`WorkloadBuilder::build`] generates the full candidate set with exact
//! selectivities (inclusion–exclusion over one pass of co-occurrence
//! counting); [`WorkloadBuilder::representatives`] picks the binned
//! representatives the figures average over.
//!
//! # Drift scenarios
//!
//! The static construction above freezes the workload; the reorganizer
//! (DESIGN.md §15) is evaluated against workloads that *move*.
//! [`DriftScenario`] generates a seeded, deterministic operation stream —
//! inserts, deletes, and queries over a grouped attribute universe — in
//! four shapes ([`DriftMode`]):
//!
//! * `steady` — uniform focus throughout (control: a reorganizer should
//!   find little to do);
//! * `drift` — the query focus rotates across attribute groups phase by
//!   phase, so partitions laid out for the old focus go stale;
//! * `flash-crowd` — a mid-run burst hammers one hot attribute pair;
//! * `churn` — Zipf-skewed inserts plus deletes of live entities hollow
//!   out partitions, leaving cold fragments to merge.

use std::fmt;
use std::str::FromStr;

use cind_model::{AttrId, AttributeCatalog, Entity, EntityId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// One candidate query: an attribute set plus its exact selectivity against
/// the generated data.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The queried attributes.
    pub attrs: Vec<AttrId>,
    /// Fraction of entities instantiating at least one of them.
    pub selectivity: f64,
    /// Human-readable label, e.g. `single(a3)` or `pair(a0,a5)`.
    pub label: String,
}

/// Builds the paper's synthetic workload.
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    /// How many of the most frequent attributes to combine (paper: 20).
    pub top_k: usize,
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        Self { top_k: 20 }
    }
}

impl WorkloadBuilder {
    /// Generates all candidate queries: one singleton per attribute that
    /// occurs at all, plus pairs and triples of the `top_k` most frequent
    /// attributes, each with exact selectivity.
    pub fn build(&self, universe: usize, entities: &[Entity]) -> Vec<QuerySpec> {
        let n = entities.len().max(1) as f64;
        // Pass 1: attribute frequencies.
        let mut freq = vec![0u64; universe];
        for e in entities {
            for (a, _) in e.attrs() {
                freq[a.0 as usize] += 1;
            }
        }
        // Top-k attributes by frequency (stable: ties by id).
        let mut ranked: Vec<u32> = (0..universe as u32).collect();
        ranked.sort_by_key(|&a| (std::cmp::Reverse(freq[a as usize]), a));
        let top: Vec<u32> = ranked
            .iter()
            .copied()
            .take(self.top_k)
            .filter(|&a| freq[a as usize] > 0)
            .collect();
        let k = top.len();
        let rank_of = {
            let mut m = vec![usize::MAX; universe];
            for (r, &a) in top.iter().enumerate() {
                m[a as usize] = r;
            }
            m
        };
        // Pass 2: pair and triple co-occurrence among the top-k.
        let mut pair = vec![0u64; k * k];
        let mut triple = std::collections::HashMap::<(usize, usize, usize), u64>::new();
        for e in entities {
            let present: Vec<usize> = e
                .attrs()
                .iter()
                .filter_map(|(a, _)| {
                    let r = rank_of[a.0 as usize];
                    (r != usize::MAX).then_some(r)
                })
                .collect();
            for (i, &a) in present.iter().enumerate() {
                for &b in &present[i + 1..] {
                    let (lo, hi) = (a.min(b), a.max(b));
                    pair[lo * k + hi] += 1;
                }
            }
            for (i, &a) in present.iter().enumerate() {
                for (j, &b) in present.iter().enumerate().skip(i + 1) {
                    for &c in &present[j + 1..] {
                        let mut t = [a, b, c];
                        t.sort_unstable();
                        *triple.entry((t[0], t[1], t[2])).or_default() += 1;
                    }
                }
            }
        }

        let mut specs = Vec::new();
        // Singletons over every attribute that occurs.
        for a in 0..universe as u32 {
            if freq[a as usize] > 0 {
                specs.push(QuerySpec {
                    attrs: vec![AttrId(a)],
                    selectivity: freq[a as usize] as f64 / n,
                    label: format!("single(a{a})"),
                });
            }
        }
        // Pairs of top-k: |A ∪ B| = f_A + f_B − f_AB.
        for i in 0..k {
            for j in (i + 1)..k {
                let (a, b) = (top[i], top[j]);
                let union = freq[a as usize] + freq[b as usize] - pair[i * k + j];
                specs.push(QuerySpec {
                    attrs: vec![AttrId(a), AttrId(b)],
                    selectivity: union as f64 / n,
                    label: format!("pair(a{a},a{b})"),
                });
            }
        }
        // Triples of top-k, by inclusion–exclusion.
        for i in 0..k {
            for j in (i + 1)..k {
                for l in (j + 1)..k {
                    let (a, b, c) = (top[i], top[j], top[l]);
                    let f3 = triple.get(&(i, j, l)).copied().unwrap_or(0);
                    let union = freq[a as usize] + freq[b as usize] + freq[c as usize]
                        - pair[i * k + j]
                        - pair[i * k + l]
                        - pair[j * k + l]
                        + f3;
                    specs.push(QuerySpec {
                        attrs: vec![AttrId(a), AttrId(b), AttrId(c)],
                        selectivity: union as f64 / n,
                        label: format!("triple(a{a},a{b},a{c})"),
                    });
                }
            }
        }
        specs
    }

    /// Picks up to `per_bin` representatives per selectivity bin. `edges`
    /// are ascending upper bin boundaries; a spec falls in the first bin
    /// whose edge is ≥ its selectivity. Returns the picks sorted by
    /// selectivity.
    pub fn representatives(
        specs: &[QuerySpec],
        edges: &[f64],
        per_bin: usize,
    ) -> Vec<QuerySpec> {
        let mut sorted: Vec<&QuerySpec> = specs.iter().collect();
        sorted.sort_by(|a, b| a.selectivity.total_cmp(&b.selectivity));
        let mut out: Vec<QuerySpec> = Vec::new();
        let mut cursor = 0usize;
        let mut lower = 0.0f64;
        for &edge in edges {
            let mut taken = 0;
            // Specs are sorted; take the first `per_bin` in (lower, edge].
            while cursor < sorted.len() && sorted[cursor].selectivity <= edge {
                if sorted[cursor].selectivity > lower && taken < per_bin {
                    out.push(sorted[cursor].clone());
                    taken += 1;
                }
                cursor += 1;
            }
            lower = edge;
        }
        out
    }

    /// The selectivity bin edges the harnesses use (log-spaced over the
    /// range Figs. 5–6 cover).
    pub fn default_edges() -> Vec<f64> {
        vec![0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0]
    }
}

/// Which drift scenario shapes a generated operation stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DriftMode {
    /// Uniform focus throughout — the control scenario.
    #[default]
    Steady,
    /// Query focus rotates across attribute groups phase by phase.
    Drift,
    /// A mid-run burst concentrates queries on one hot attribute pair.
    FlashCrowd,
    /// Zipf-skewed inserts plus deletes of live entities (population churn).
    Churn,
}

impl FromStr for DriftMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "steady" => Ok(Self::Steady),
            "drift" => Ok(Self::Drift),
            "flash-crowd" | "flashcrowd" => Ok(Self::FlashCrowd),
            "churn" => Ok(Self::Churn),
            other => Err(format!(
                "unknown drift mode '{other}' (expected steady|drift|flash-crowd|churn)"
            )),
        }
    }
}

impl fmt::Display for DriftMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::Steady => "steady",
            Self::Drift => "drift",
            Self::FlashCrowd => "flash-crowd",
            Self::Churn => "churn",
        })
    }
}

/// One operation of a drift scenario stream.
#[derive(Clone, Debug, PartialEq)]
pub enum DriftOp {
    /// Insert a fresh entity.
    Insert(Entity),
    /// Delete a previously inserted (and still live) entity.
    Delete(EntityId),
    /// Run a conjunctive query over the given attributes.
    Query(Vec<AttrId>),
}

/// Knobs for [`DriftScenario`]. Everything is derived from the seed;
/// two generators with equal configs emit identical streams.
#[derive(Clone, Debug)]
pub struct DriftConfig {
    /// Scenario shape.
    pub mode: DriftMode,
    /// Total operations to emit (inserts + deletes + queries).
    pub ops: usize,
    /// Attribute groups; each entity draws its attributes from one group.
    pub groups: usize,
    /// Attributes per group.
    pub group_width: usize,
    /// Approximate fraction of operations that are queries.
    pub query_share: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            mode: DriftMode::Steady,
            ops: 2_000,
            groups: 8,
            group_width: 8,
            query_share: 0.35,
            seed: 0xD21F7,
        }
    }
}

/// Number of phases a stream is divided into; `drift` rotates its query
/// focus once per phase, `flash-crowd` burns during the middle two.
const DRIFT_PHASES: usize = 4;

/// Generates drift scenario streams. Construct once, then
/// [`generate`](DriftScenario::generate).
#[derive(Clone, Debug)]
pub struct DriftScenario {
    cfg: DriftConfig,
}

impl DriftScenario {
    /// Builds a scenario generator, clamping degenerate knobs (at least
    /// two groups of two attributes, `query_share` into `[0, 0.9]`).
    #[must_use]
    pub fn new(cfg: DriftConfig) -> Self {
        let query_share = if cfg.query_share.is_finite() {
            cfg.query_share.clamp(0.0, 0.9)
        } else {
            0.35
        };
        Self {
            cfg: DriftConfig {
                groups: cfg.groups.max(2),
                group_width: cfg.group_width.max(2),
                query_share,
                ..cfg
            },
        }
    }

    /// Interns the grouped attribute names (`g{group}_a{slot}`) into
    /// `catalog` and returns them as `ids[group][slot]`.
    pub fn intern_attributes(&self, catalog: &mut AttributeCatalog) -> Vec<Vec<AttrId>> {
        (0..self.cfg.groups)
            .map(|g| {
                (0..self.cfg.group_width)
                    .map(|j| catalog.intern(&format!("g{g}_a{j}")))
                    .collect()
            })
            .collect()
    }

    /// Emits the full operation stream. Entity ids are sequential from
    /// `first_id`; every `Delete` targets an id inserted earlier in the
    /// same stream and not yet deleted, so replaying the stream in order
    /// against an empty store never references a missing entity.
    pub fn generate(&self, catalog: &mut AttributeCatalog, first_id: u64) -> Vec<DriftOp> {
        let ids = self.intern_attributes(catalog);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let group_pick = match self.cfg.mode {
            // Churn skews the insert population toward head groups.
            DriftMode::Churn => Zipf::new(self.cfg.groups, 1.1),
            _ => Zipf::new(self.cfg.groups, 0.0),
        };
        // Churn deletes prefer the oldest live entities (rank 0 = oldest),
        // hollowing out the partitions built earliest.
        let delete_pick = Zipf::new(CHURN_DELETE_WINDOW, 0.8);

        let mut out = Vec::with_capacity(self.cfg.ops);
        let mut live: Vec<EntityId> = Vec::new();
        let mut next_id = first_id;
        for i in 0..self.cfg.ops {
            let phase = (i * DRIFT_PHASES) / self.cfg.ops.max(1);
            if !live.is_empty() && rng.gen::<f64>() < self.cfg.query_share {
                out.push(DriftOp::Query(self.pick_query(&ids, phase, &mut rng)));
                continue;
            }
            let wants_delete = self.cfg.mode == DriftMode::Churn
                && live.len() > CHURN_DELETE_WINDOW
                && rng.gen::<f64>() < CHURN_DELETE_SHARE;
            if wants_delete {
                let rank = delete_pick.sample(&mut rng).min(live.len() - 1);
                out.push(DriftOp::Delete(live.remove(rank)));
                continue;
            }
            let group = group_pick.sample(&mut rng);
            let id = EntityId(next_id);
            next_id += 1;
            if let Some(entity) = self.make_entity(id, &ids[group], &ids, &mut rng) {
                live.push(id);
                out.push(DriftOp::Insert(entity));
            }
        }
        out
    }

    /// Query attribute pick for one operation: a one- or two-attribute
    /// conjunction from a mode- and phase-dependent focus group.
    fn pick_query(&self, ids: &[Vec<AttrId>], phase: usize, rng: &mut StdRng) -> Vec<AttrId> {
        let uniform = rng.gen_range(0..self.cfg.groups);
        let group = match self.cfg.mode {
            DriftMode::Steady | DriftMode::Churn => uniform,
            // Focus rotates with the phase; a small uniform floor keeps
            // the stale groups warm enough to be measured.
            DriftMode::Drift => {
                if rng.gen::<f64>() < FOCUS_SHARE {
                    phase % self.cfg.groups
                } else {
                    uniform
                }
            }
            DriftMode::FlashCrowd => {
                let burning = phase == 1 || phase == 2;
                if burning && rng.gen::<f64>() < FOCUS_SHARE {
                    // The crowd hits one fixed pair of group 0.
                    return vec![ids[0][0], ids[0][1]];
                }
                uniform
            }
        };
        let a = rng.gen_range(0..self.cfg.group_width);
        if rng.gen::<f64>() < 0.5 {
            vec![ids[group][a]]
        } else {
            let b = (a + 1 + rng.gen_range(0..self.cfg.group_width - 1)) % self.cfg.group_width;
            vec![ids[group][a.min(b)], ids[group][a.max(b)]]
        }
    }

    /// One entity of `group`: a run of its group's attributes (at least
    /// two) plus, occasionally, a single leaked attribute from a foreign
    /// group. Attribute ids are distinct by construction.
    fn make_entity(
        &self,
        id: EntityId,
        group: &[AttrId],
        all: &[Vec<AttrId>],
        rng: &mut StdRng,
    ) -> Option<Entity> {
        let mut attrs: Vec<(AttrId, Value)> = Vec::with_capacity(group.len() + 1);
        for (j, a) in group.iter().enumerate() {
            if j < 2 || rng.gen::<f64>() < 0.6 {
                attrs.push((*a, Value::Int(rng.gen_range(0..10_000))));
            }
        }
        if rng.gen::<f64>() < LEAK_SHARE {
            let g = rng.gen_range(0..all.len());
            let leak = all[g][rng.gen_range(0..all[g].len())];
            if !attrs.iter().any(|(a, _)| *a == leak) {
                attrs.push((leak, Value::Int(rng.gen_range(0..10_000))));
            }
        }
        Entity::new(id, attrs).ok()
    }
}

/// Fraction of focused queries that actually hit the focus (drift and
/// flash-crowd modes); the rest stay uniform.
const FOCUS_SHARE: f64 = 0.9;
/// Probability a churn write is a delete rather than an insert.
const CHURN_DELETE_SHARE: f64 = 0.35;
/// How deep into the oldest live entities churn deletes reach.
const CHURN_DELETE_WINDOW: usize = 64;
/// Probability an entity carries one attribute leaked from a foreign group.
const LEAK_SHARE: f64 = 0.1;

#[cfg(test)]
mod tests {
    use super::*;
    use cind_model::{EntityId, Value};

    /// 10 entities: attr 0 on all, attr 1 on half, attr 2 on 20 %, attr 3
    /// co-occurring with attr 1.
    fn entities() -> Vec<Entity> {
        (0..10u64)
            .map(|i| {
                let mut attrs = vec![(AttrId(0), Value::Int(1))];
                if i % 2 == 0 {
                    attrs.push((AttrId(1), Value::Int(1)));
                    attrs.push((AttrId(3), Value::Int(1)));
                }
                if i % 5 == 0 {
                    attrs.push((AttrId(2), Value::Int(1)));
                }
                Entity::new(EntityId(i), attrs).unwrap()
            })
            .collect()
    }

    #[test]
    fn singleton_selectivities_are_frequencies() {
        let specs = WorkloadBuilder { top_k: 4 }.build(4, &entities());
        let get = |label: &str| {
            specs
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("{label} missing"))
                .selectivity
        };
        assert!((get("single(a0)") - 1.0).abs() < 1e-12);
        assert!((get("single(a1)") - 0.5).abs() < 1e-12);
        assert!((get("single(a2)") - 0.2).abs() < 1e-12);
    }

    #[test]
    fn pair_and_triple_use_inclusion_exclusion() {
        let specs = WorkloadBuilder { top_k: 4 }.build(4, &entities());
        // a1 ∪ a2: 5 + 2 − 1 (entity 0 has both) = 6 → 0.6.
        let pair = specs
            .iter()
            .find(|s| s.label == "pair(a1,a2)" || s.label == "pair(a2,a1)")
            .unwrap();
        assert!((pair.selectivity - 0.6).abs() < 1e-12);
        // a1 ∪ a2 ∪ a3 = a1 ∪ a2 (a3 ⊆ a1) = 0.6.
        let triple = specs
            .iter()
            .find(|s| s.attrs.len() == 3 && !s.attrs.contains(&AttrId(0)))
            .unwrap();
        assert!((triple.selectivity - 0.6).abs() < 1e-12);
    }

    #[test]
    fn counts_of_generated_specs() {
        let specs = WorkloadBuilder { top_k: 4 }.build(4, &entities());
        // 4 singletons + C(4,2)=6 pairs + C(4,3)=4 triples.
        assert_eq!(specs.len(), 4 + 6 + 4);
        // With top_k exceeding the live attributes, k clamps to 4.
        let specs = WorkloadBuilder { top_k: 20 }.build(4, &entities());
        assert_eq!(specs.len(), 4 + 6 + 4);
    }

    #[test]
    fn representatives_cover_bins() {
        let specs = WorkloadBuilder { top_k: 4 }.build(4, &entities());
        let reps = WorkloadBuilder::representatives(&specs, &[0.3, 0.7, 1.0], 2);
        assert!(reps.len() <= 6);
        // Sorted by selectivity.
        for w in reps.windows(2) {
            assert!(w[0].selectivity <= w[1].selectivity);
        }
        // The low bin (≤ 0.3) and the top bin (> 0.7) both contribute.
        assert!(reps.iter().any(|s| s.selectivity <= 0.3));
        assert!(reps.iter().any(|s| s.selectivity > 0.7));
        // Per-bin cap respected.
        let low = reps.iter().filter(|s| s.selectivity <= 0.3).count();
        assert!(low <= 2);
    }

    fn scenario(mode: DriftMode, seed: u64) -> Vec<DriftOp> {
        let mut catalog = AttributeCatalog::new();
        DriftScenario::new(DriftConfig { mode, ops: 1_200, seed, ..DriftConfig::default() })
            .generate(&mut catalog, 0)
    }

    #[test]
    fn drift_streams_are_deterministic_per_seed() {
        for mode in [DriftMode::Steady, DriftMode::Drift, DriftMode::FlashCrowd, DriftMode::Churn]
        {
            assert_eq!(scenario(mode, 7), scenario(mode, 7), "{mode}");
            assert_ne!(scenario(mode, 7), scenario(mode, 8), "{mode}");
        }
    }

    #[test]
    fn drift_streams_never_reference_missing_entities() {
        for mode in [DriftMode::Steady, DriftMode::Churn] {
            let mut live = std::collections::BTreeSet::new();
            for op in scenario(mode, 3) {
                match op {
                    DriftOp::Insert(e) => {
                        assert!(live.insert(e.id()), "duplicate insert of {:?}", e.id());
                        assert!(e.arity() >= 2, "entities carry at least two attributes");
                    }
                    DriftOp::Delete(id) => {
                        assert!(live.remove(&id), "delete of missing {id:?}");
                    }
                    DriftOp::Query(attrs) => {
                        assert!(!attrs.is_empty() && attrs.len() <= 2);
                    }
                }
            }
        }
    }

    #[test]
    fn churn_deletes_steady_does_not() {
        let deletes = |mode| {
            scenario(mode, 5).iter().filter(|op| matches!(op, DriftOp::Delete(_))).count()
        };
        assert_eq!(deletes(DriftMode::Steady), 0);
        assert!(deletes(DriftMode::Churn) > 20, "churn must actually churn");
    }

    #[test]
    fn drift_rotates_the_query_focus() {
        let mut catalog = AttributeCatalog::new();
        let cfg = DriftConfig { mode: DriftMode::Drift, ops: 2_000, seed: 11, ..Default::default() };
        let scenario = DriftScenario::new(cfg.clone());
        let ops = scenario.generate(&mut catalog, 0);
        let ids = scenario.intern_attributes(&mut catalog);
        // Count queries per (phase, group) and check the diagonal dominates.
        let group_of = |a: AttrId| {
            ids.iter().position(|g| g.contains(&a)).expect("query attrs come from the universe")
        };
        for phase in 0..DRIFT_PHASES {
            let lo = phase * cfg.ops / DRIFT_PHASES;
            let hi = (phase + 1) * cfg.ops / DRIFT_PHASES;
            let mut counts = vec![0usize; cfg.groups];
            for op in &ops[lo..hi.min(ops.len())] {
                if let DriftOp::Query(attrs) = op {
                    counts[group_of(attrs[0])] += 1;
                }
            }
            let hot = phase % cfg.groups;
            let total: usize = counts.iter().sum();
            assert!(
                counts[hot] * 2 > total,
                "phase {phase}: hot group {hot} got {}/{total} queries",
                counts[hot]
            );
        }
    }

    #[test]
    fn flash_crowd_burns_one_pair_mid_run() {
        let ops = scenario(DriftMode::FlashCrowd, 9);
        let n = ops.len();
        let pair_hits = |range: std::ops::Range<usize>| {
            ops[range]
                .iter()
                .filter(|op| matches!(op, DriftOp::Query(a) if a.len() == 2
                    && a[0] == AttrId(0) && a[1] == AttrId(1)))
                .count()
        };
        // Burst phases (1 and 2) hammer the pair; the edges barely touch it.
        let edge = pair_hits(0..n / 4) + pair_hits(3 * n / 4..n);
        let burst = pair_hits(n / 4..3 * n / 4);
        assert!(burst > 10 * edge.max(1), "burst {burst} vs edge {edge}");
    }

    #[test]
    fn drift_mode_parses_and_displays() {
        for mode in [DriftMode::Steady, DriftMode::Drift, DriftMode::FlashCrowd, DriftMode::Churn]
        {
            assert_eq!(mode.to_string().parse::<DriftMode>(), Ok(mode));
        }
        assert!("hot".parse::<DriftMode>().is_err());
    }
}
