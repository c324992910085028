//! Core-layer errors.

use cind_model::ModelError;
use cind_storage::StorageError;

/// Errors surfaced by the partitioner.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoreError {
    /// The storage layer failed.
    Storage(StorageError),
    /// The model layer failed.
    Model(ModelError),
    /// A structural invariant the partitioner relies on did not hold —
    /// e.g. the catalog lost a partition the rating scan just returned.
    /// Always a bug; surfaced as a typed error so a server turns it into
    /// an error frame instead of tearing the whole process down.
    Invariant(&'static str),
    /// A merge pass asked for a fill threshold outside `(0, 1]` (or NaN).
    MergeThreshold,
}

impl From<StorageError> for CoreError {
    fn from(e: StorageError) -> Self {
        CoreError::Storage(e)
    }
}

impl From<ModelError> for CoreError {
    fn from(e: ModelError) -> Self {
        CoreError::Model(e)
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Storage(e) => write!(f, "storage: {e}"),
            CoreError::Model(e) => write!(f, "model: {e}"),
            CoreError::Invariant(what) => write!(f, "invariant violated: {what}"),
            CoreError::MergeThreshold => f.write_str("merge threshold must be in (0, 1]"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Storage(e) => Some(e),
            CoreError::Model(e) => Some(e),
            CoreError::Invariant(_) | CoreError::MergeThreshold => None,
        }
    }
}
