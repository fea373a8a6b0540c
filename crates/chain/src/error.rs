//! Typed errors for the chain substrate.
//!
//! Fallible configuration and checkpoint paths return [`ChainError`]
//! instead of panicking; the panicking constructors (`ValidatorSet::new`,
//! `ChainService::new`, …) delegate to the `try_` variants and surface
//! the same messages, so existing callers keep their behavior.

use std::fmt;

use txallo_core::{CheckpointError, UnknownAllocator};

/// Errors raised by chain configuration, service, and checkpoint paths.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainError {
    /// The allocation method is not registered (wraps the registry's
    /// [`UnknownAllocator`] so its name enumeration survives).
    UnknownMethod(UnknownAllocator),
    /// A configuration asked for zero shards.
    NoShards,
    /// Fewer validators than shards — some shard would be empty.
    NoValidators {
        /// Validators available.
        total: usize,
        /// Shards requested.
        shards: usize,
    },
    /// More Byzantine validators than validators.
    TooManyFaults {
        /// Byzantine count requested.
        byzantine: usize,
        /// Total validators.
        total: usize,
    },
    /// The Byzantine count breaks the `f < n/3` PBFT quorum bound: even a
    /// perfectly even spread leaves some shard unable to commit.
    QuorumViolation {
        /// Byzantine count requested.
        byzantine: usize,
        /// Total validators.
        total: usize,
        /// Shards the population splits across.
        shards: usize,
    },
    /// An epoch length of zero blocks.
    EmptyEpoch,
    /// `checkpoint()` called part-way through an epoch; the format only
    /// captures epoch-boundary state.
    MidEpochCheckpoint {
        /// Blocks processed since the last boundary.
        blocks_into_epoch: usize,
    },
    /// `checkpoint()` called before `warmup()`/`resume()`.
    NotWarmedUp,
    /// The checkpoint bytes failed validation (bad magic, version,
    /// checksum, or truncation).
    CorruptCheckpoint(CheckpointError),
    /// The checkpoint was taken under a different shard count than the
    /// resuming configuration.
    ShardMismatch {
        /// Shards in the resuming configuration.
        expected: usize,
        /// Shards recorded in the checkpoint.
        found: usize,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainError::UnknownMethod(e) => write!(f, "{e}"),
            ChainError::NoShards => write!(f, "need at least one shard"),
            ChainError::NoValidators { total, shards } => write!(
                f,
                "need at least one validator per shard ({total} validators over {shards} shards)"
            ),
            ChainError::TooManyFaults { byzantine, total } => write!(
                f,
                "cannot have more faults than validators ({byzantine} > {total})"
            ),
            ChainError::QuorumViolation {
                byzantine,
                total,
                shards,
            } => write!(
                f,
                "{byzantine} Byzantine of {total} validators over {shards} shard(s) breaks \
                 the f < n/3 quorum bound"
            ),
            ChainError::EmptyEpoch => write!(f, "epochs must contain blocks"),
            ChainError::MidEpochCheckpoint { blocks_into_epoch } => write!(
                f,
                "checkpoints are epoch-boundary only ({blocks_into_epoch} block(s) into the \
                 current epoch)"
            ),
            ChainError::NotWarmedUp => {
                write!(f, "service not warmed up: call warmup() or resume() first")
            }
            ChainError::CorruptCheckpoint(e) => write!(f, "corrupt checkpoint: {e}"),
            ChainError::ShardMismatch { expected, found } => write!(
                f,
                "checkpoint shard count {found} does not match the configured {expected}"
            ),
        }
    }
}

impl std::error::Error for ChainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ChainError::CorruptCheckpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UnknownAllocator> for ChainError {
    fn from(e: UnknownAllocator) -> Self {
        ChainError::UnknownMethod(e)
    }
}

impl From<CheckpointError> for ChainError {
    fn from(e: CheckpointError) -> Self {
        match e {
            CheckpointError::ShardMismatch { expected, found } => {
                ChainError::ShardMismatch { expected, found }
            }
            e => ChainError::CorruptCheckpoint(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_preserves_the_historic_panic_substrings() {
        // The panicking constructors delegate to `try_` + `panic!("{e}")`;
        // these substrings are load-bearing for #[should_panic] callers.
        assert!(ChainError::NoShards
            .to_string()
            .contains("at least one shard"));
        assert!(ChainError::NoValidators {
            total: 2,
            shards: 3
        }
        .to_string()
        .contains("at least one validator per shard"));
        assert!(ChainError::TooManyFaults {
            byzantine: 5,
            total: 4
        }
        .to_string()
        .contains("more faults than validators"));
        assert!(ChainError::EmptyEpoch
            .to_string()
            .contains("epochs must contain blocks"));
        let q = ChainError::QuorumViolation {
            byzantine: 2,
            total: 4,
            shards: 1,
        };
        assert!(q.to_string().contains("quorum"));
    }
}
