//! Replica management for data-parallel rollout collection.
//!
//! A [`RolloutSet`] owns `K` independent [`TscEnv`] replicas cloned
//! from one prototype. Each replica is reset with its own
//! deterministically derived seed (see [`derive_rollout_seed`]) before
//! a collection round, so the set of episodes produced by a round is a
//! pure function of `(base_seed, round)` — independent of how many
//! worker threads drive the replicas or in which order they finish.

use crate::env::TscEnv;

/// A fixed-size set of independent environment replicas for
/// data-parallel rollout collection.
///
/// Replicas start as exact clones of the prototype; the trainer resets
/// each with a distinct derived seed per round, so they immediately
/// diverge into independent episodes.
#[derive(Debug, Clone)]
pub struct RolloutSet {
    envs: Vec<TscEnv>,
}

impl RolloutSet {
    /// Builds `num_envs` replicas of `prototype`.
    ///
    /// # Panics
    ///
    /// Panics if `num_envs` is zero.
    pub fn new(prototype: &TscEnv, num_envs: usize) -> Self {
        assert!(num_envs > 0, "a rollout set needs at least one env");
        RolloutSet {
            envs: (0..num_envs).map(|_| prototype.clone()).collect(),
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.envs.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.envs.is_empty()
    }

    /// Read access to the replicas, in env-index order.
    pub fn envs(&self) -> &[TscEnv] {
        &self.envs
    }

    /// Mutable access to the replicas, in env-index order. Workers
    /// split this slice to drive replicas concurrently.
    pub fn envs_mut(&mut self) -> &mut [TscEnv] {
        &mut self.envs
    }
}

/// Derives the episode seed for replica `env_idx` in collection round
/// `round` from the experiment's `base_seed`.
///
/// [`det::mix3`](tsc_obs::det::mix3) over the packed inputs:
/// statistically independent streams for every `(base_seed, round,
/// env_idx)` triple, yet fully reproducible — the parallel and serial
/// rollout paths feed identical seeds to identical replicas, which is
/// one half of the bit-for-bit determinism argument (the other half is
/// canonical env-index merge order; see DESIGN.md).
#[must_use]
#[inline]
pub fn derive_rollout_seed(base_seed: u64, round: u64, env_idx: u64) -> u64 {
    tsc_obs::det::mix3(base_seed, round, env_idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvConfig;
    use crate::scenario::grid::{Grid, GridConfig};
    use crate::scenario::patterns::{flows, FlowPattern, PatternConfig};
    use crate::sim::SimConfig;

    fn tiny_env() -> TscEnv {
        let grid = Grid::build(GridConfig {
            cols: 2,
            rows: 2,
            spacing: 150.0,
        })
        .unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        let scenario = grid.scenario("tiny", f).unwrap();
        TscEnv::new(scenario, SimConfig::default(), EnvConfig::default(), 7).unwrap()
    }

    #[test]
    fn replicas_are_independent_copies() {
        let proto = tiny_env();
        let mut set = RolloutSet::new(&proto, 3);
        assert_eq!(set.len(), 3);
        // Stepping one replica must not disturb the others.
        let actions = vec![0usize; proto.num_agents()];
        let envs = set.envs_mut();
        envs[0].reset(11);
        envs[0].step(&actions).unwrap();
        assert_eq!(envs[1].sim().time(), proto.sim().time());
        assert_ne!(envs[0].sim().time(), envs[1].sim().time());
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a = derive_rollout_seed(0, 0, 0);
        let b = derive_rollout_seed(0, 0, 1);
        let c = derive_rollout_seed(0, 1, 0);
        let d = derive_rollout_seed(1, 0, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(b, c);
        // Stable across calls (pure function).
        assert_eq!(a, derive_rollout_seed(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "at least one env")]
    fn zero_envs_rejected() {
        let proto = tiny_env();
        let _ = RolloutSet::new(&proto, 0);
    }
}
