//! Cinderella configuration.

use cind_model::SizeModel;

use crate::modes::SynopsisMode;

/// How the catalog's [`PruningIndex`](crate::PruningIndex) *stores* the
/// attribute→partition presence metadata every rating scan and query plan
/// goes through: exact bitmaps for every partition, or the tiered
/// approximate structure of [`crate::tier`]. The index's only knob.
///
/// `Exact` is the oracle: one [`crate::arena::PresenceIndex`] row per
/// attribute, O(attrs × partitions) bits. `Tiered` replaces those bitmaps
/// with per-group blocked Bloom filter rows under group summaries,
/// cutting resident index memory by an order of magnitude on large
/// catalogs. The tier is *superset-sound* by
/// construction: an exact-present (attr, partition) pair is always present
/// in the approximate tier, so candidate sets can only grow — false
/// positives cost scans, never answers. `Cinderella::validate` checks the
/// implication structurally.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IndexTier {
    /// Exact presence bitmaps for every partition (the default and the
    /// differential-test oracle).
    #[default]
    Exact,
    /// Approximate filter tier, from the first partition on.
    Tiered,
    /// Cost-gated one-way ratchet: exact bitmaps until the catalog reaches
    /// [`IndexTier::AUTO_MIN_PARTITIONS`] partitions, tiered from then on.
    Auto,
}

impl IndexTier {
    /// The `Auto` ratchet point: below this partition count the exact
    /// bitmaps are small enough that approximation buys nothing.
    pub const AUTO_MIN_PARTITIONS: usize = 4096;
}

impl std::str::FromStr for IndexTier {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(Self::Exact),
            "tiered" => Ok(Self::Tiered),
            "auto" => Ok(Self::Auto),
            other => Err(format!("bad index tier {other:?}; use exact|tiered|auto")),
        }
    }
}

impl std::fmt::Display for IndexTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            Self::Exact => "exact",
            Self::Tiered => "tiered",
            Self::Auto => "auto",
        })
    }
}

/// Whether the background reorganizer (the `cind-reorg` crate) is allowed
/// to act on this store.
///
/// `Off` is provably inert: no heat bookkeeping influences any decision,
/// no reorganization action runs, and the WAL/snapshot byte streams are
/// identical to a build without the subsystem (the server's differential
/// test checks exactly this). `Auto` lets the driver enact cost-modeled
/// re-split / merge actions between foreground operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReorgMode {
    /// Never reorganize (the default — the paper's behaviour).
    #[default]
    Off,
    /// Enact actions whose estimated gain clears the hysteresis threshold,
    /// within the per-step work budget.
    Auto,
}

impl std::str::FromStr for ReorgMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(Self::Off),
            "auto" => Ok(Self::Auto),
            other => Err(format!("bad reorg mode {other:?}; use off|auto")),
        }
    }
}

impl std::fmt::Display for ReorgMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Off => "off",
            Self::Auto => "auto",
        })
    }
}

/// Knobs of the workload-adaptive background reorganizer.
///
/// All cadence is *op-count based* — the heat window advances every
/// `epoch_ops` partitioner operations, never on wall-clock time, so a run
/// is a pure function of its operation sequence (the CIND-A005 property
/// the simulation harness relies on; `cind-reorg`'s and this crate's
/// `clippy.toml` ban wall-clock reads).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReorgConfig {
    /// Whether the driver may act at all.
    pub mode: ReorgMode,
    /// Per-step work budget: the maximum number of entities one
    /// `ReorgDriver::step` may physically move. Bounds the writer-lock
    /// hold time of a background step to the same order as a split.
    pub budget: u64,
    /// Hysteresis threshold in `[0, 1]`: an action is enacted only when
    /// its estimated workload-weighted scan saving is at least this
    /// fraction of the affected partitions' current scan cost (and a merge
    /// only when its estimated scan *damage* stays below this fraction).
    pub threshold: f64,
    /// Operations per heat epoch: after this many partitioner ops the heat
    /// counters and workload weights are halved (deterministic sliding
    /// window) and the driver considers one reorganization step.
    pub epoch_ops: u64,
}

impl Default for ReorgConfig {
    fn default() -> Self {
        Self { mode: ReorgMode::default(), budget: 32, threshold: 0.05, epoch_ops: 64 }
    }
}

impl ReorgConfig {
    /// Whether any reorganization work may happen.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.mode == ReorgMode::Auto && self.budget > 0
    }
}

/// Tuning knobs of the algorithm.
#[derive(Clone, Debug)]
pub struct Config {
    /// Rating weight `w ∈ [0, 1]` balancing positive vs. negative evidence
    /// (§IV). `w = 0` admits only perfectly homogeneous partitions; the
    /// paper finds 0.2–0.5 reasonable and uses 0.2 for DBpedia.
    pub weight: f64,
    /// Partition capacity `B`: the most entities a partition holds. An
    /// insert into a partition that already holds `B` splits it. The
    /// evaluation counts `B` in entities (B ∈ {500, 5000, 50000}), so
    /// [`SizeModel`] shapes the ratings and Definition 1 but not the
    /// capacity.
    pub capacity: u64,
    /// The `SIZE()` function of Definition 1.
    pub size_model: SizeModel,
    /// Entity-based or workload-based partitioning (§II).
    pub mode: SynopsisMode,
    /// How the pruning index's presence metadata is stored: exact per-partition
    /// bitmaps (`exact`), the approximate filter tier (`tiered`), or a
    /// partition-count-gated ratchet (`auto`).
    /// Superset-sound at every setting; see [`IndexTier`].
    pub tier: IndexTier,
    /// Background reorganizer knobs (`--reorg off|auto` plus budget /
    /// threshold / epoch cadence). Off by default; see [`ReorgConfig`].
    pub reorg: ReorgConfig,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            weight: 0.2,
            capacity: 5000,
            size_model: SizeModel::default(),
            mode: SynopsisMode::default(),
            tier: IndexTier::default(),
            reorg: ReorgConfig::default(),
        }
    }
}

/// A [`Config`] knob out of its range, named by the variant.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ConfigError {
    /// `weight` outside `[0, 1]`.
    Weight(f64),
    /// A capacity `B` below two entities per partition.
    Capacity(u64),
    /// `reorg.threshold` outside `[0, 1]`.
    ReorgThreshold(f64),
    /// `reorg.epoch_ops` of zero.
    ReorgEpoch,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Weight(w) => write!(f, "weight w must be in [0, 1], got {w}"),
            Self::Capacity(b) => write!(
                f,
                "capacity must allow at least two entities per partition, got {b}"
            ),
            Self::ReorgThreshold(t) => write!(f, "reorg threshold must be in [0, 1], got {t}"),
            Self::ReorgEpoch => f.write_str("reorg epoch must be at least one op"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Checks the knobs: weight range, a capacity of at least two entities,
    /// reorg threshold range, a non-zero reorg epoch.
    ///
    /// # Errors
    /// The first knob out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let in_unit = |x: f64| (0.0..=1.0).contains(&x);
        if !in_unit(self.weight) {
            return Err(ConfigError::Weight(self.weight));
        }
        if self.capacity < 2 {
            return Err(ConfigError::Capacity(self.capacity));
        }
        if !in_unit(self.reorg.threshold) {
            return Err(ConfigError::ReorgThreshold(self.reorg.threshold));
        }
        if self.reorg.epoch_ops == 0 {
            return Err(ConfigError::ReorgEpoch);
        }
        Ok(())
    }

    /// [`validate`](Self::validate) as the constructors' documented panic:
    /// configs are build-time values, so failing fast beats threading
    /// errors. Callers that read knobs from a user (the CLI) validate
    /// first and report the [`ConfigError`].
    pub(crate) fn assert_valid(&self) {
        let verdict = self.validate();
        assert!(
            verdict.is_ok(),
            "{}",
            verdict.map_or_else(|why| why.to_string(), |()| String::new())
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        assert_eq!(Config::default().validate(), Ok(()));
    }

    #[test]
    fn index_tier_parses() {
        assert_eq!("exact".parse::<IndexTier>().unwrap(), IndexTier::Exact);
        assert_eq!("tiered".parse::<IndexTier>().unwrap(), IndexTier::Tiered);
        assert_eq!("auto".parse::<IndexTier>().unwrap(), IndexTier::Auto);
        assert!("TIERED".parse::<IndexTier>().is_err());
        assert_eq!(IndexTier::Tiered.to_string(), "tiered");
        assert_eq!(IndexTier::default(), IndexTier::Exact);
    }

    #[test]
    fn reorg_mode_parses() {
        assert_eq!("off".parse::<ReorgMode>().unwrap(), ReorgMode::Off);
        assert_eq!("auto".parse::<ReorgMode>().unwrap(), ReorgMode::Auto);
        assert!("AUTO".parse::<ReorgMode>().is_err());
        assert_eq!(ReorgMode::Auto.to_string(), "auto");
    }

    #[test]
    fn reorg_default_is_off_and_inert() {
        let r = ReorgConfig::default();
        assert_eq!(r.mode, ReorgMode::Off);
        assert!(!r.enabled());
        assert!(!ReorgConfig { budget: 0, mode: ReorgMode::Auto, ..r }.enabled());
        assert!(ReorgConfig { mode: ReorgMode::Auto, ..r }.enabled());
    }

    #[test]
    fn bad_reorg_threshold_is_an_error() {
        let mut cfg = Config::default();
        cfg.reorg.threshold = 2.0;
        assert_eq!(cfg.validate(), Err(ConfigError::ReorgThreshold(2.0)));
        cfg.reorg = ReorgConfig { epoch_ops: 0, ..ReorgConfig::default() };
        assert_eq!(cfg.validate(), Err(ConfigError::ReorgEpoch));
    }

    #[test]
    fn bad_weight_is_an_error() {
        for w in [1.5, -0.1, f64::INFINITY] {
            let err = Config { weight: w, ..Config::default() }.validate();
            assert_eq!(err, Err(ConfigError::Weight(w)));
        }
        let err = Config { weight: f64::NAN, ..Config::default() }.validate();
        assert!(matches!(err, Err(ConfigError::Weight(w)) if w.is_nan()));
        assert_eq!(
            ConfigError::Weight(1.5).to_string(),
            "weight w must be in [0, 1], got 1.5"
        );
    }

    #[test]
    fn tiny_capacity_is_an_error() {
        for tiny in [0, 1] {
            let cfg = Config {
                capacity: tiny,
                ..Config::default()
            };
            assert_eq!(cfg.validate(), Err(ConfigError::Capacity(tiny)));
        }
        assert_eq!(
            ConfigError::Capacity(1).to_string(),
            "capacity must allow at least two entities per partition, got 1"
        );
    }
}
