//! The multi-agent control environment wrapping the simulator.
//!
//! [`TscEnv`] exposes the simulator at the *decision* cadence of the
//! paper (§IV-B, §VI-A): every step, each agent picks a phase; the
//! environment holds that phase for `decision_interval` seconds of
//! green, preceded by the yellow clearance whenever the phase changed,
//! and returns each intersection's observation and reward (Eq. 6) at
//! the end of the interval.

use crate::chaos::ChaosPlan;
use crate::detector::IntersectionObs;
use crate::error::SimError;
use crate::ids::NodeId;
use crate::scenario::Scenario;
use crate::sim::{SimConfig, Simulation};

/// Decision cadence of the environment.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EnvConfig {
    /// Green seconds per decision (paper: 5).
    pub decision_interval: u32,
    /// Episode length in simulation seconds (demand horizon).
    pub episode_horizon: u32,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            decision_interval: 5,
            episode_horizon: 3600,
        }
    }
}

/// Result of one environment step.
#[derive(Debug, Clone)]
pub struct EnvStep {
    /// Per-agent observations at the end of the interval.
    pub obs: Vec<IntersectionObs>,
    /// Per-agent rewards (Eq. 6) at the end of the interval.
    pub rewards: Vec<f64>,
    /// Whether the episode horizon has been reached.
    pub done: bool,
}

/// A controller maps joint observations to joint phase choices.
///
/// Implemented by every model in this repository (fixed-time, single
/// agent RL, MA2C, CoLight, PairUpLight), which is what lets the
/// experiment harness evaluate them interchangeably.
pub trait Controller {
    /// Called at episode start.
    fn reset(&mut self) {}

    /// Picks one phase index per agent, in agent order.
    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize>;
}

/// The multi-agent traffic-signal-control environment.
///
/// `Clone` copies the full simulation state, which is what makes cheap
/// per-worker environment replicas possible in the data-parallel
/// rollout engine (see [`crate::rollout::RolloutSet`]).
#[derive(Debug, Clone)]
pub struct TscEnv {
    scenario: Scenario,
    sim_config: SimConfig,
    env_config: EnvConfig,
    sim: Simulation,
    agents: Vec<NodeId>,
    /// Installed chaos plan, re-installed into the fresh simulation on
    /// every [`reset`](Self::reset).
    chaos: ChaosPlan,
    /// Structural fingerprint of `scenario`, computed once at
    /// construction (see [`Scenario::fingerprint`]).
    fingerprint: u64,
    /// Whether episodes run on the legacy tick oracle instead of the
    /// event core (see [`Simulation::new_legacy`]); preserved across
    /// [`reset`](Self::reset).
    legacy: bool,
}

/// Computes the scenario fingerprint and records the construction in
/// the tsc-obs scenario-event ring (observation-only; no RNG impact).
fn fingerprint_and_record(scenario: &Scenario, agents: usize) -> u64 {
    let fingerprint = scenario.fingerprint();
    tsc_obs::record_scenario(
        &scenario.name,
        fingerprint,
        agents,
        scenario.network.num_links(),
    );
    fingerprint
}

impl TscEnv {
    /// Creates the environment and its first episode.
    ///
    /// # Errors
    ///
    /// Propagates simulation construction failures (bad config,
    /// unroutable OD pairs).
    pub fn new(
        scenario: Scenario,
        sim_config: SimConfig,
        env_config: EnvConfig,
        seed: u64,
    ) -> Result<Self, SimError> {
        let sim = Simulation::new(&scenario, sim_config, seed)?;
        let agents = scenario.agents();
        let fingerprint = fingerprint_and_record(&scenario, agents.len());
        Ok(TscEnv {
            scenario,
            sim_config,
            env_config,
            sim,
            agents,
            chaos: ChaosPlan::default(),
            fingerprint,
            legacy: false,
        })
    }

    /// Creates the environment on the legacy per-second tick stepper
    /// instead of the event core. Episodes started via
    /// [`reset`](Self::reset) stay on the legacy engine. Exists so the
    /// differential parity harness and the end-to-end training pin can
    /// compare whole training runs across engines.
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn new_legacy(
        scenario: Scenario,
        sim_config: SimConfig,
        env_config: EnvConfig,
        seed: u64,
    ) -> Result<Self, SimError> {
        let sim = Simulation::new_legacy(&scenario, sim_config, seed)?;
        let agents = scenario.agents();
        let fingerprint = fingerprint_and_record(&scenario, agents.len());
        Ok(TscEnv {
            scenario,
            sim_config,
            env_config,
            sim,
            agents,
            chaos: ChaosPlan::default(),
            fingerprint,
            legacy: true,
        })
    }

    /// Creates the environment with a chaos plan installed from the
    /// start (equivalent to [`new`](Self::new) followed by
    /// [`set_chaos`](Self::set_chaos)).
    ///
    /// # Errors
    ///
    /// Same as [`new`](Self::new).
    pub fn with_chaos(
        scenario: Scenario,
        sim_config: SimConfig,
        env_config: EnvConfig,
        seed: u64,
        chaos: ChaosPlan,
    ) -> Result<Self, SimError> {
        let mut env = Self::new(scenario, sim_config, env_config, seed)?;
        env.set_chaos(chaos);
        Ok(env)
    }

    /// Installs (or replaces) the chaos plan: it takes effect on the
    /// running episode immediately and survives every subsequent
    /// [`reset`](Self::reset). An empty plan restores fault-free
    /// behavior exactly.
    pub fn set_chaos(&mut self, chaos: ChaosPlan) {
        self.sim.set_chaos(chaos.clone());
        self.chaos = chaos;
    }

    /// The installed chaos plan (empty by default).
    pub fn chaos(&self) -> &ChaosPlan {
        &self.chaos
    }

    /// The controlled intersections, in agent order.
    pub fn agents(&self) -> &[NodeId] {
        &self.agents
    }

    /// Number of agents.
    pub fn num_agents(&self) -> usize {
        self.agents.len()
    }

    /// The environment configuration.
    pub fn env_config(&self) -> &EnvConfig {
        &self.env_config
    }

    /// The underlying simulation (read access for metrics/diagnostics).
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// The scenario driving this environment.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The scenario's structural fingerprint (computed once at
    /// construction; see [`Scenario::fingerprint`]). Bench reports
    /// embed this value so runs are attributable to an exact world.
    pub fn scenario_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Seconds of simulated time per decision step (yellow + green).
    pub fn seconds_per_step(&self) -> u32 {
        self.sim_config.yellow_time + self.env_config.decision_interval
    }

    /// Decision steps per episode.
    pub fn steps_per_episode(&self) -> usize {
        (self.env_config.episode_horizon as usize).div_ceil(self.seconds_per_step() as usize)
    }

    /// Starts a new episode with `seed` and returns initial observations.
    pub fn reset(&mut self, seed: u64) -> Vec<IntersectionObs> {
        if self.legacy {
            self.sim = Simulation::with_chaos_legacy(
                &self.scenario,
                self.sim_config,
                seed,
                self.chaos.clone(),
            )
            .expect("scenario validated at construction");
            return self.sim.observe_all();
        }
        self.sim =
            Simulation::with_chaos(&self.scenario, self.sim_config, seed, self.chaos.clone())
                .expect("scenario validated at construction");
        self.sim.observe_all()
    }

    /// Applies one joint action and advances yellow + green seconds.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ActionLengthMismatch`] or
    /// [`SimError::InvalidPhase`]. Agents whose plan has fewer phases
    /// than the requested index are *not* wrapped here; controllers are
    /// responsible for emitting valid indices (see
    /// [`clamp_action`](Self::clamp_action)).
    pub fn step(&mut self, actions: &[usize]) -> Result<EnvStep, SimError> {
        let _span = tsc_obs::span!("sim.env_step");
        if actions.len() != self.agents.len() {
            return Err(SimError::ActionLengthMismatch {
                got: actions.len(),
                expected: self.agents.len(),
            });
        }
        for (&node, &phase) in self.agents.iter().zip(actions) {
            self.sim.request_phase(node, phase)?;
        }
        for _ in 0..self.seconds_per_step() {
            self.sim.step()?;
        }
        let obs = self.sim.observe_all();
        let rewards = obs.iter().map(IntersectionObs::reward).collect();
        let done = self.sim.time() >= self.env_config.episode_horizon;
        Ok(EnvStep { obs, rewards, done })
    }

    /// Maps an arbitrary action index into the valid phase range of
    /// agent `agent_idx` (modulo), for controllers with a uniform
    /// action space driving heterogeneous intersections.
    pub fn clamp_action(&self, agent_idx: usize, action: usize) -> usize {
        let n = self.scenario.signal_plans[agent_idx].num_phases();
        action % n
    }

    /// Runs `controller` for one full episode and returns the final
    /// simulation state for metric extraction.
    ///
    /// # Errors
    ///
    /// Propagates environment step failures.
    pub fn run_episode<C: Controller + ?Sized>(
        &mut self,
        controller: &mut C,
        seed: u64,
    ) -> Result<EpisodeStats, SimError> {
        let mut obs = self.reset(seed);
        controller.reset();
        let mut reward_sum = 0.0;
        let mut steps = 0usize;
        loop {
            let raw = controller.decide(&obs);
            let actions: Vec<usize> = raw
                .iter()
                .enumerate()
                .map(|(i, &a)| self.clamp_action(i, a))
                .collect();
            let step = self.step(&actions)?;
            reward_sum += step.rewards.iter().sum::<f64>();
            steps += 1;
            obs = step.obs;
            if step.done {
                break;
            }
        }
        Ok(EpisodeStats {
            steps,
            total_reward: reward_sum,
            avg_waiting_time: self.sim.metrics().avg_waiting_time(),
            avg_travel_time: self.sim.avg_travel_time(),
            finished: self.sim.metrics().finished(),
            spawned: self.sim.metrics().spawned(),
        })
    }

    /// Continues stepping the current episode with `controller` until
    /// the network drains (no active vehicles and demand exhausted) or
    /// `cap_time` is reached — used for travel-time evaluation where
    /// gridlocked vehicles must keep accruing time (Table II).
    ///
    /// # Errors
    ///
    /// Propagates environment step failures.
    pub fn drain<C: Controller + ?Sized>(
        &mut self,
        controller: &mut C,
        cap_time: u32,
    ) -> Result<(), SimError> {
        let mut obs = self.sim.observe_all();
        while self.sim.active_vehicles() > 0 && self.sim.time() < cap_time {
            let raw = controller.decide(&obs);
            let actions: Vec<usize> = raw
                .iter()
                .enumerate()
                .map(|(i, &a)| self.clamp_action(i, a))
                .collect();
            let step = self.step(&actions)?;
            obs = step.obs;
        }
        Ok(())
    }
}

/// Summary statistics of one episode.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EpisodeStats {
    /// Decision steps taken.
    pub steps: usize,
    /// Sum of all agents' rewards.
    pub total_reward: f64,
    /// Paper metric: episode mean of the per-step mean-of-max waits (s).
    pub avg_waiting_time: f64,
    /// Paper metric: average travel time including unfinished trips (s).
    pub avg_travel_time: f64,
    /// Completed trips.
    pub finished: usize,
    /// Generated vehicles.
    pub spawned: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::grid::{Grid, GridConfig};
    use crate::scenario::patterns::{flows, FlowPattern, PatternConfig};

    fn env() -> TscEnv {
        let grid = Grid::build(GridConfig {
            cols: 3,
            rows: 3,
            spacing: 200.0,
        })
        .unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        let scenario = grid.scenario("test", f).unwrap();
        TscEnv::new(
            scenario,
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: 140,
            },
            7,
        )
        .unwrap()
    }

    struct AlwaysPhase(usize);
    impl Controller for AlwaysPhase {
        fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
            vec![self.0; obs.len()]
        }
    }

    #[test]
    fn step_advances_yellow_plus_green_seconds() {
        let mut e = env();
        e.reset(1);
        assert_eq!(e.seconds_per_step(), 7);
        let step = e.step(&vec![0; e.num_agents()]).unwrap();
        assert_eq!(e.sim().time(), 7);
        assert_eq!(step.obs.len(), 9);
        assert_eq!(step.rewards.len(), 9);
    }

    #[test]
    fn episode_terminates_at_horizon() {
        let mut e = env();
        let stats = e.run_episode(&mut AlwaysPhase(2), 3).unwrap();
        assert_eq!(stats.steps, e.steps_per_episode());
        assert!(e.sim().time() >= 140);
    }

    #[test]
    fn wrong_action_length_is_rejected() {
        let mut e = env();
        e.reset(1);
        assert!(matches!(
            e.step(&[0, 1]),
            Err(SimError::ActionLengthMismatch {
                got: 2,
                expected: 9
            })
        ));
    }

    #[test]
    fn reset_is_reproducible() {
        let mut e = env();
        let a = e.run_episode(&mut AlwaysPhase(2), 5).unwrap();
        let b = e.run_episode(&mut AlwaysPhase(2), 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn clamp_action_wraps_modulo() {
        let e = env();
        assert_eq!(e.clamp_action(0, 5), 1);
        assert_eq!(e.clamp_action(0, 3), 3);
    }

    #[test]
    fn rewards_are_nonpositive() {
        let mut e = env();
        let mut obs = e.reset(2);
        for _ in 0..10 {
            let step = e.step(&vec![0; obs.len()]).unwrap();
            obs = step.obs;
            assert!(step.rewards.iter().all(|&r| r <= 0.0));
        }
    }
}
