//! Structural invariant checking for the catalog/arena/index triad.
//!
//! Cinderella's pruning guarantee (Definition 1: `|p ∧ q| = 0` ⇒ the
//! partition can be skipped) is only sound while three redundant views of
//! the same state agree: the per-partition reference counts (the source of
//! truth), the packed [`SynopsisArena`](crate::SynopsisArena) rows the hot
//! loops sweep, and the [`PruningIndex`](crate::PruningIndex) that
//! produces candidate and survivor sets. Each structure exposes a
//! `validate()` that cross-checks its invariants and returns *every*
//! violation it finds — not just the first — as an [`InvariantViolation`]
//! with a precise diagnostic naming the slot/segment/attribute and both
//! sides of the disagreement.
//!
//! Where the checks run:
//!
//! * **Debug builds** assert a catalog-level sweep at every structural
//!   boundary — split, merge, rebuild, and arena stride
//!   relayout — so any maintenance bug trips the nearest boundary instead
//!   of surfacing queries later as a silently wrong pruning decision.
//! * **`cind check`** (the CLI subcommand) runs the deep sweep — including
//!   the entity-level cross-check of
//!   [`Cinderella::validate`](crate::Cinderella::validate) — against a
//!   restored snapshot and exits non-zero on any violation.
//! * **Tier-1 integration tests** end with a full `validate()` call, and a
//!   property suite interleaves insert/split/merge/remove with a sweep
//!   after every operation.
//!
//! The invariant catalog itself (structure × invariant × where checked) is
//! tabulated in DESIGN.md §9.

/// One violated structural invariant.
///
/// `structure` names the owning data structure (`"arena"`, `"presence"`,
/// `"catalog"`, `"starters"`, `"table"`, `"signature"`, `"buffer-pool"`);
/// `detail` is a self-contained diagnostic naming the slot / segment /
/// attribute involved and both sides of the disagreement, precise enough to
/// act on without re-running the check under a debugger.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InvariantViolation {
    /// The data structure whose invariant is violated.
    pub structure: &'static str,
    /// Human- and log-readable diagnostic with the exact disagreement.
    pub detail: String,
}

impl InvariantViolation {
    /// Builds a violation for `structure` with the given diagnostic.
    pub fn new(structure: &'static str, detail: impl Into<String>) -> Self {
        Self { structure, detail: detail.into() }
    }
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.structure, self.detail)
    }
}

/// Renders a violation list as one line per violation (the `cind check`
/// output format).
pub fn render(violations: &[InvariantViolation]) -> String {
    violations
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_structure_and_detail() {
        let v = InvariantViolation::new("arena", "slot 3: free but live");
        assert_eq!(v.to_string(), "[arena] slot 3: free but live");
        let r = render(&[v.clone(), InvariantViolation::new("catalog", "x")]);
        assert_eq!(r, "[arena] slot 3: free but live\n[catalog] x");
    }
}
