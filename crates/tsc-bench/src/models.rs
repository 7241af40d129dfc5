//! Uniform model zoo: train any of the paper's five models (plus
//! ablations) on an environment and obtain a deployable controller and
//! a training curve.

use pairuplight::{PairUpLight, PairUpLightConfig, TrainError};
use tsc_baselines::{
    single_agent_with, CoLight, CoLightConfig, FixedTimeController, Ma2c, Ma2cConfig,
};
use tsc_sim::{Controller, TscEnv};

/// The models of Table II plus the ablations of Figs. 8 and 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ModelKind {
    /// Predetermined cyclic timing.
    FixedTime,
    /// Shared PPO on local observations.
    SingleAgent,
    /// Independent A2C with fingerprints (Chu et al., 2019).
    Ma2c,
    /// GAT + DQN with parameter sharing (Wei et al., 2019).
    CoLight,
    /// The full proposed model.
    PairUpLight,
    /// PairUpLight without the communication module (Fig. 8 ablation).
    PairUpLightNoComm,
    /// PairUpLight with a custom message bandwidth (Fig. 11).
    PairUpLightBandwidth(usize),
}

impl ModelKind {
    /// All Table II rows, in paper order.
    pub const TABLE2: [ModelKind; 5] = [
        ModelKind::FixedTime,
        ModelKind::SingleAgent,
        ModelKind::Ma2c,
        ModelKind::CoLight,
        ModelKind::PairUpLight,
    ];

    /// Paper-style display name.
    pub fn name(self) -> String {
        match self {
            ModelKind::FixedTime => "Fixedtime".into(),
            ModelKind::SingleAgent => "SingleAgent".into(),
            ModelKind::Ma2c => "MA2C".into(),
            ModelKind::CoLight => "CoLight".into(),
            ModelKind::PairUpLight => "PairUpLight".into(),
            ModelKind::PairUpLightNoComm => "PairUpLight (no comm)".into(),
            ModelKind::PairUpLightBandwidth(b) => format!("PairUpLight (bw={b})"),
        }
    }
}

/// Size/effort knobs shared by all trainable models so experiments can
/// be scaled between "smoke test" and "paper scale".
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainSetup {
    /// Hidden/trunk width.
    pub hidden: usize,
    /// LSTM width (actor-critic models).
    pub lstm_hidden: usize,
    /// Training episodes.
    pub episodes: usize,
    /// PPO epochs per episode.
    pub ppo_epochs: usize,
    /// Base seed; episode `i` runs on `seed + i`.
    pub seed: u64,
    /// Disable parameter sharing (Monaco §VI-D).
    pub heterogeneous: bool,
}

impl Default for TrainSetup {
    fn default() -> Self {
        TrainSetup {
            hidden: 32,
            lstm_hidden: 32,
            episodes: 30,
            ppo_epochs: 2,
            seed: 7,
            heterogeneous: false,
        }
    }
}

/// One point of a training curve.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CurvePoint {
    /// Episode index.
    pub episode: usize,
    /// Episode-average waiting time (s) — the Fig. 7/8/10 y-axis.
    pub avg_waiting_time: f64,
    /// Average travel time (s) at the horizon.
    pub avg_travel_time: f64,
    /// Sum of agent rewards.
    pub total_reward: f64,
    /// Mean policy loss over the episode's updates (0 for non-PPO).
    pub policy_loss: f32,
    /// Mean value loss over the updates (0 for non-PPO).
    pub value_loss: f32,
    /// Mean policy entropy over the updates (0 for non-PPO).
    pub entropy: f32,
}

/// A trained (or static) model ready for evaluation.
pub struct TrainedModel {
    /// The deployable controller.
    pub controller: Box<dyn Controller>,
    /// Per-episode training diagnostics (empty for FixedTime).
    pub curve: Vec<CurvePoint>,
    /// Which model this is.
    pub kind: ModelKind,
}

impl std::fmt::Debug for TrainedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrainedModel")
            .field("kind", &self.kind)
            .field("curve_len", &self.curve.len())
            .finish()
    }
}

fn pairuplight_config(setup: &TrainSetup, bandwidth: usize) -> PairUpLightConfig {
    let mut cfg = PairUpLightConfig {
        hidden: setup.hidden,
        lstm_hidden: setup.lstm_hidden,
        bandwidth,
        parameter_sharing: !setup.heterogeneous,
        seed: setup.seed,
        eps_decay_episodes: (setup.episodes / 2).max(1),
        ..PairUpLightConfig::default()
    };
    cfg.ppo.epochs = setup.ppo_epochs;
    cfg
}

/// Trains `kind` on `env` and returns the controller plus curve.
///
/// `on_episode` fires after every training episode (use it for
/// progress output); it receives the fresh curve point.
///
/// # Errors
///
/// Propagates environment failures, and PairUpLight training failures
/// (see [`PairUpLight::train`]).
pub fn train_model(
    kind: ModelKind,
    env: &mut TscEnv,
    setup: &TrainSetup,
    mut on_episode: impl FnMut(&CurvePoint),
) -> Result<TrainedModel, TrainError> {
    let mut curve = Vec::with_capacity(setup.episodes);
    let controller: Box<dyn Controller> = match kind {
        ModelKind::FixedTime => Box::new(FixedTimeController::default()),
        ModelKind::SingleAgent
        | ModelKind::PairUpLight
        | ModelKind::PairUpLightNoComm
        | ModelKind::PairUpLightBandwidth(_) => {
            let bandwidth = match kind {
                ModelKind::SingleAgent | ModelKind::PairUpLightNoComm => 0,
                ModelKind::PairUpLightBandwidth(b) => b,
                _ => 1,
            };
            let cfg = pairuplight_config(setup, bandwidth);
            let mut model = if kind == ModelKind::SingleAgent {
                single_agent_with(env, cfg)
            } else {
                PairUpLight::new(env, cfg)
            };
            model.train(env, setup.episodes, setup.seed, |ep| {
                let point = CurvePoint {
                    episode: ep.episode,
                    avg_waiting_time: ep.stats.avg_waiting_time,
                    avg_travel_time: ep.stats.avg_travel_time,
                    total_reward: ep.stats.total_reward,
                    policy_loss: ep.policy_loss,
                    value_loss: ep.value_loss,
                    entropy: ep.entropy,
                };
                on_episode(&point);
                curve.push(point);
            })?;
            Box::new(model.controller())
        }
        ModelKind::Ma2c => {
            let cfg = Ma2cConfig {
                hidden: setup.hidden,
                lstm_hidden: setup.lstm_hidden,
                seed: setup.seed,
                ..Ma2cConfig::default()
            };
            let mut model = Ma2c::new(env, cfg);
            for i in 0..setup.episodes {
                let stats = model.train_episode(env, setup.seed + i as u64)?;
                let point = CurvePoint {
                    episode: i,
                    avg_waiting_time: stats.avg_waiting_time,
                    avg_travel_time: stats.avg_travel_time,
                    total_reward: stats.total_reward,
                    policy_loss: 0.0,
                    value_loss: 0.0,
                    entropy: 0.0,
                };
                on_episode(&point);
                curve.push(point);
            }
            Box::new(model.controller())
        }
        ModelKind::CoLight => {
            let cfg = CoLightConfig {
                embed: setup.hidden,
                seed: setup.seed,
                ..CoLightConfig::default()
            };
            let mut model = CoLight::new(env, cfg);
            for i in 0..setup.episodes {
                let stats = model.train_episode(env, setup.seed + i as u64)?;
                let point = CurvePoint {
                    episode: i,
                    avg_waiting_time: stats.avg_waiting_time,
                    avg_travel_time: stats.avg_travel_time,
                    total_reward: stats.total_reward,
                    policy_loss: 0.0,
                    value_loss: 0.0,
                    entropy: 0.0,
                };
                on_episode(&point);
                curve.push(point);
            }
            Box::new(model.controller())
        }
    };
    Ok(TrainedModel {
        controller,
        curve,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsc_sim::scenario::grid::{Grid, GridConfig};
    use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
    use tsc_sim::{EnvConfig, SimConfig};

    fn tiny_env() -> TscEnv {
        let grid = Grid::build(GridConfig {
            cols: 2,
            rows: 2,
            spacing: 150.0,
        })
        .unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        TscEnv::new(
            grid.scenario("t", f).unwrap(),
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: 140,
            },
            0,
        )
        .unwrap()
    }

    fn tiny_setup() -> TrainSetup {
        TrainSetup {
            hidden: 8,
            lstm_hidden: 8,
            episodes: 2,
            ppo_epochs: 1,
            seed: 1,
            heterogeneous: false,
        }
    }

    #[test]
    fn every_model_kind_trains_and_evaluates() {
        for kind in [
            ModelKind::FixedTime,
            ModelKind::SingleAgent,
            ModelKind::Ma2c,
            ModelKind::CoLight,
            ModelKind::PairUpLight,
            ModelKind::PairUpLightNoComm,
            ModelKind::PairUpLightBandwidth(2),
        ] {
            let mut env = tiny_env();
            let mut count = 0;
            let trained = train_model(kind, &mut env, &tiny_setup(), |_| count += 1).unwrap();
            if kind == ModelKind::FixedTime {
                assert!(trained.curve.is_empty());
            } else {
                assert_eq!(trained.curve.len(), 2);
                assert_eq!(count, 2);
            }
            let mut ctl = trained.controller;
            let stats = env.run_episode(&mut *ctl, 5).unwrap();
            assert!(stats.spawned > 0, "{}", kind.name());
        }
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(ModelKind::Ma2c.name(), "MA2C");
        assert_eq!(
            ModelKind::PairUpLightBandwidth(2).name(),
            "PairUpLight (bw=2)"
        );
        assert_eq!(ModelKind::TABLE2.len(), 5);
    }
}
