//! DBpedia-person-like irregular entity generator (Fig. 4 calibration).
//!
//! The paper extracts 100 000 person entities with 100 attributes from
//! DBpedia and reports (Fig. 4): two attributes "extremely common" (on
//! almost every entity), eleven "fairly common" (> 30 %), 85 % of
//! attributes below 10 %, attributes-per-entity mostly between 2 and 15
//! with outliers up to 27, and an overall sparseness of 0.94.
//!
//! This generator reproduces those marginals *and* adds the latent
//! co-occurrence structure real data has (athletes share team/position,
//! politicians share party/office, …): each entity draws a latent *group*
//! (Zipf-distributed) and instantiates group-affine attributes with a
//! boosted probability. Per-attribute target frequencies are solved so the
//! realized marginal matches the Fig. 4 curve regardless of group sizes.

use cind_model::{AttrId, AttributeCatalog, Entity, EntityId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// Human-readable names for the first attributes (the common head of the
/// person schema); the long tail falls back to `attr{i}`.
const HEAD_NAMES: &[&str] = &[
    "name",
    "birthDate",
    "birthPlace",
    "occupation",
    "nationality",
    "deathDate",
    "deathPlace",
    "almaMater",
    "spouse",
    "knownFor",
    "award",
    "residence",
    "children",
    "team",
    "party",
    "genre",
    "instrument",
    "position",
    "club",
    "office",
];

/// Generator configuration. The default matches the paper's dataset.
#[derive(Clone, Debug)]
pub struct DbpediaConfig {
    /// Number of entities (paper: 100 000).
    pub entities: usize,
    /// Number of attributes (paper: 100).
    pub attributes: usize,
    /// Number of latent groups ("person types").
    pub groups: usize,
    /// Zipf exponent of the group-size distribution.
    pub group_exponent: f64,
    /// Probability ratio for instantiating an attribute of a *foreign*
    /// group relative to the own group (cross-type leakage).
    pub leakage: f64,
    /// RNG seed (generation is deterministic per seed).
    pub seed: u64,
}

impl DbpediaConfig {
    /// The fewest attributes the generator takes: the two universal
    /// attributes, the eleven fairly common ones and a tail of Fig. 4.
    pub const MIN_ATTRIBUTES: usize = 16;
}

impl Default for DbpediaConfig {
    fn default() -> Self {
        Self {
            entities: 100_000,
            attributes: 100,
            groups: 12,
            group_exponent: 0.9,
            leakage: 0.08,
            seed: 0xD8_BED1A,
        }
    }
}

/// The calibrated generator. Construct once, then
/// [`generate`](DbpediaGenerator::generate).
pub struct DbpediaGenerator {
    config: DbpediaConfig,
    /// Target marginal frequency per attribute.
    freqs: Vec<f64>,
    /// Own-group instantiation probability per attribute (solved from the
    /// marginal).
    q: Vec<f64>,
    /// Home group of each attribute (universal attributes use `usize::MAX`
    /// = group-independent).
    group_of: Vec<usize>,
    /// Full group membership per attribute. Tail attributes belong to just
    /// their home group; common attributes span several groups — otherwise
    /// a > 30 % marginal is unreachable from a small group even at
    /// in-group probability 1 (an athlete-only attribute cannot be on a
    /// third of all persons).
    members: Vec<Vec<usize>>,
    group_dist: Zipf,
}

/// Number of group-independent, near-universal attributes.
const UNIVERSALS: usize = 2;

impl DbpediaGenerator {
    /// Builds the generator, solving the per-attribute probabilities.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (fewer than
    /// [`DbpediaConfig::MIN_ATTRIBUTES`] attributes, no groups, or leakage
    /// outside `[0, 1]`).
    pub fn new(config: DbpediaConfig) -> Self {
        assert!(
            config.attributes >= DbpediaConfig::MIN_ATTRIBUTES,
            "need the Fig. 4 head + tail"
        );
        assert!(config.groups >= 1, "need at least one group");
        assert!((0.0..=1.0).contains(&config.leakage), "leakage in [0,1]");
        let n = config.attributes;
        let mut freqs = Vec::with_capacity(n);
        for i in 0..n {
            freqs.push(Self::target_frequency(i, n));
        }
        let group_dist = Zipf::new(config.groups, config.group_exponent);
        // Groups in descending probability (Zipf pmf is already sorted).
        let mut group_of = vec![usize::MAX; n];
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut q = vec![0.0; n];
        for i in UNIVERSALS..n {
            // Deterministic pseudo-random home group, spreading the
            // fairly-common head attributes across distinct groups.
            let home = if i < 13 {
                (i - UNIVERSALS) % config.groups
            } else {
                (i * 7 + 3) % config.groups
            };
            group_of[i] = home;
            // Grow the membership set (home group first, then the largest
            // groups) until the marginal is reachable with headroom:
            // P(attr) = P(members)·q + (1 − P(members))·leak·q with q ≤ 1.
            let mut mem = vec![home];
            let mut p_mem = group_dist.pmf(home);
            let reachable =
                |p: f64| p + (1.0 - p) * config.leakage;
            for g in 0..config.groups {
                if reachable(p_mem) >= freqs[i] * 1.15 {
                    break;
                }
                if g != home {
                    mem.push(g);
                    p_mem += group_dist.pmf(g);
                }
            }
            mem.sort_unstable();
            let denom = reachable(p_mem);
            q[i] = (freqs[i] / denom).min(1.0);
            members[i] = mem;
        }
        Self { config, freqs, q, group_of, members, group_dist }
    }

    /// The Fig. 4(a) target curve: index → marginal frequency.
    fn target_frequency(i: usize, n: usize) -> f64 {
        match i {
            // Two near-universal attributes.
            0 => 0.96,
            1 => 0.87,
            // Eleven fairly common attributes, > 30 %.
            2..=12 => 0.42 - 0.011 * (i - 2) as f64,
            // Two transition attributes between 10 % and 30 %.
            13 => 0.22,
            14 => 0.13,
            // Long tail below 10 %, Zipf decay.
            _ => {
                let rank = (i - 14) as f64;
                (0.095 * rank.powf(-0.9)).max(0.5 / n as f64)
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DbpediaConfig {
        &self.config
    }

    /// Interns the attribute names into `catalog` (in frequency-rank order)
    /// and returns the ids.
    pub fn intern_attributes(&self, catalog: &mut AttributeCatalog) -> Vec<AttrId> {
        (0..self.config.attributes)
            .map(|i| {
                let name = HEAD_NAMES
                    .get(i)
                    .map(|s| (*s).to_owned())
                    .unwrap_or_else(|| format!("attr{i}"));
                catalog.intern(&name)
            })
            .collect()
    }

    /// Generates the full entity set (ids `0..entities`, in the random
    /// group order the sampler produces — the paper inserts "in random
    /// order", which this stream already is with respect to shape).
    pub fn generate(&self, catalog: &mut AttributeCatalog) -> Vec<Entity> {
        let ids = self.intern_attributes(catalog);
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut out = Vec::with_capacity(self.config.entities);
        for eid in 0..self.config.entities {
            out.push(self.generate_one(eid as u64, &ids, &mut rng));
        }
        out
    }

    #[expect(clippy::expect_used, reason = "each attribute id is pushed at most once")]
    fn generate_one(&self, eid: u64, ids: &[AttrId], rng: &mut StdRng) -> Entity {
        let group = self.group_dist.sample(rng);
        let mut attrs: Vec<(AttrId, Value)> = Vec::with_capacity(8);
        for (i, id) in ids.iter().enumerate() {
            let p = if self.group_of[i] == usize::MAX {
                self.freqs[i]
            } else if self.members[i].binary_search(&group).is_ok() {
                self.q[i]
            } else {
                self.q[i] * self.config.leakage
            };
            if rng.gen::<f64>() < p {
                attrs.push((*id, self.value_for(i, rng)));
            }
        }
        // Fig. 4(b): every person record has at least its name.
        if attrs.is_empty() {
            attrs.push((ids[0], self.value_for(0, rng)));
        }
        Entity::new(EntityId(eid), attrs).expect("attribute ids are unique")
    }

    /// Values are typed per attribute (stable assignment) and kept short,
    /// like DBpedia literals.
    fn value_for(&self, i: usize, rng: &mut StdRng) -> Value {
        match i % 3 {
            0 => Value::Text(format!("v{}_{}", i, rng.gen_range(0..10_000u32))),
            1 => Value::Int(rng.gen_range(0..100_000)),
            _ => Value::Float(f64::from(rng.gen_range(0..10_000u32)) / 100.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Vec<Entity>, AttributeCatalog, DbpediaGenerator) {
        let gen = DbpediaGenerator::new(DbpediaConfig {
            entities: 20_000,
            ..DbpediaConfig::default()
        });
        let mut catalog = AttributeCatalog::new();
        let entities = gen.generate(&mut catalog);
        (entities, catalog, gen)
    }

    /// Realized attribute frequencies.
    fn frequencies(entities: &[Entity], attrs: usize) -> Vec<f64> {
        let mut counts = vec![0u32; attrs];
        for e in entities {
            for (a, _) in e.attrs() {
                counts[a.0 as usize] += 1;
            }
        }
        counts
            .into_iter()
            .map(|c| f64::from(c) / entities.len() as f64)
            .collect()
    }

    #[test]
    fn marginals_match_fig4a() {
        let (entities, catalog, gen) = small();
        assert_eq!(catalog.len(), 100);
        let f = frequencies(&entities, 100);
        // Two extremely common attributes.
        assert!(f[0] > 0.9, "name freq {}", f[0]);
        assert!(f[1] > 0.8, "birthDate freq {}", f[1]);
        // Eleven fairly common (> 30 %).
        let common = f.iter().filter(|&&x| (0.3..0.8).contains(&x)).count();
        assert!((10..=14).contains(&common), "fairly-common count {common}");
        // At least 85 % of attributes below 10 %.
        let rare = f.iter().filter(|&&x| x < 0.10).count();
        assert!(rare >= 85, "rare count {rare}");
        // Realized marginals track the targets (group solving works).
        for (i, (got, want)) in f.iter().zip(&gen.freqs).enumerate() {
            assert!(
                (got - want).abs() < 0.05,
                "attr {i}: realized {got:.3} vs target {want:.3}"
            );
        }
    }

    #[test]
    fn arity_distribution_matches_fig4b() {
        let (entities, _, _) = small();
        let arities: Vec<usize> = entities.iter().map(Entity::arity).collect();
        let mean = arities.iter().sum::<usize>() as f64 / arities.len() as f64;
        // Sparseness = 1 - mean/100 ≈ 0.94 in the paper.
        assert!((5.0..8.5).contains(&mean), "mean arity {mean}");
        let max = *arities.iter().max().unwrap();
        assert!((16..=40).contains(&max), "max arity {max}");
        let in_band = arities.iter().filter(|&&a| (2..=15).contains(&a)).count();
        assert!(
            in_band as f64 / arities.len() as f64 > 0.8,
            "majority of entities must have 2–15 attributes"
        );
        assert!(arities.iter().all(|&a| a >= 1));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let gen = |seed| {
            let g = DbpediaGenerator::new(DbpediaConfig {
                entities: 100,
                seed,
                ..DbpediaConfig::default()
            });
            let mut c = AttributeCatalog::new();
            g.generate(&mut c)
        };
        assert_eq!(gen(1), gen(1));
        assert_ne!(gen(1), gen(2));
    }

    #[test]
    fn groups_create_cooccurrence() {
        // Attributes of the same group must co-occur far more often than
        // attributes of different groups (given comparable marginals).
        let (entities, _, gen) = small();
        // Find two tail attributes sharing a group and two from different
        // groups with similar target frequency.
        let g = &gen.group_of;
        let mut same = None;
        let mut diff = None;
        for a in 20..100 {
            for b in (a + 1)..100 {
                if g[a] == g[b] && same.is_none() {
                    same = Some((a, b));
                }
                if g[a] != g[b] && diff.is_none() {
                    diff = Some((a, b));
                }
            }
        }
        let count_pair = |(a, b): (usize, usize)| {
            entities
                .iter()
                .filter(|e| {
                    e.has(AttrId(a as u32)) && e.has(AttrId(b as u32))
                })
                .count() as f64
                / entities.len() as f64
        };
        let f = frequencies(&entities, 100);
        let lift = |(a, b): (usize, usize)| count_pair((a, b)) / (f[a] * f[b]).max(1e-9);
        let same_lift = lift(same.unwrap());
        let diff_lift = lift(diff.unwrap());
        assert!(
            same_lift > diff_lift,
            "same-group lift {same_lift:.2} must exceed cross-group {diff_lift:.2}"
        );
        assert!(same_lift > 2.0, "same-group attributes must attract, lift {same_lift:.2}");
    }
}
