//! Typed errors of the training loop and checkpoint restore.

use std::error::Error;
use std::fmt;

use tsc_sim::SimError;

/// Errors produced by training
/// ([`PairUpLight::train`](crate::PairUpLight::train),
/// [`PairUpLight::train_checkpointed`](crate::PairUpLight::train_checkpointed),
/// [`PairUpLight::collect_rollouts`](crate::PairUpLight::collect_rollouts))
/// and checkpoint restore ([`PairUpLight::resume`](crate::PairUpLight::resume)).
#[derive(Debug)]
#[non_exhaustive]
pub enum TrainError {
    /// An environment replica failed with a simulator error (a real
    /// error, not a panic — these are never retried because they are
    /// deterministic: the same seed would fail the same way).
    Sim(SimError),
    /// A filesystem failure while writing or managing checkpoints.
    Io(std::io::Error),
    /// A checkpoint file could not be parsed or failed validation.
    Load(tsc_nn::LoadError),
    /// A PPO round kept diverging after exhausting its rollback
    /// retries.
    Diverged {
        /// The round (0-based, counted over the model's lifetime) that
        /// could not be completed.
        round: u64,
        /// Reseeded retries attempted after the first failure.
        retries: u32,
        /// Human-readable description of the last divergence.
        reason: String,
    },
    /// A rollout worker kept panicking after exhausting its same-seed
    /// retries.
    WorkerPanic {
        /// The round during which the worker panicked.
        round: u64,
        /// The environment replica index the worker was driving.
        env: usize,
        /// Same-seed retries attempted after the first panic.
        retries: u32,
    },
    /// Training was stopped by an injected abort fault (test-only; see
    /// [`FaultPlan::abort_after_round`](crate::FaultPlan::abort_after_round)).
    Aborted {
        /// The last round completed before the abort.
        round: u64,
    },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Sim(e) => write!(f, "simulation error: {e}"),
            TrainError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            TrainError::Load(e) => write!(f, "checkpoint load error: {e}"),
            TrainError::Diverged {
                round,
                retries,
                reason,
            } => write!(
                f,
                "round {round} still diverged after {retries} reseeded retries: {reason}"
            ),
            TrainError::WorkerPanic {
                round,
                env,
                retries,
            } => write!(
                f,
                "rollout worker for env {env} panicked in round {round} and \
                 {retries} same-seed retries did not recover it"
            ),
            TrainError::Aborted { round } => {
                write!(f, "training aborted by fault plan after round {round}")
            }
        }
    }
}

impl Error for TrainError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TrainError::Sim(e) => Some(e),
            TrainError::Io(e) => Some(e),
            TrainError::Load(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for TrainError {
    fn from(e: SimError) -> Self {
        TrainError::Sim(e)
    }
}

impl From<std::io::Error> for TrainError {
    fn from(e: std::io::Error) -> Self {
        TrainError::Io(e)
    }
}

impl From<tsc_nn::LoadError> for TrainError {
    fn from(e: tsc_nn::LoadError) -> Self {
        TrainError::Load(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failed_round() {
        let e = TrainError::Diverged {
            round: 7,
            retries: 2,
            reason: "policy loss is NaN".into(),
        };
        let msg = e.to_string();
        assert!(msg.contains("round 7"));
        assert!(msg.contains("2 reseeded retries"));
        let e = TrainError::WorkerPanic {
            round: 3,
            env: 1,
            retries: 2,
        };
        assert!(e.to_string().contains("env 1"));
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrainError>();
    }
}
