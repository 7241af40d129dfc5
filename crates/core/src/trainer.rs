//! The CTDE training loop of Algorithm 1 and the decentralized
//! execution controller.
//!
//! Centralized training: all agents' experience is gathered into one
//! rollout buffer; with parameter sharing (homogeneous grids) one
//! actor/critic pair is updated from everyone's data, otherwise
//! (Monaco) each agent owns its networks. Decentralized execution: the
//! trained [`PairUpLightController`] runs each intersection from local
//! observations plus the single incoming message.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tsc_nn::{Adam, Graph, Params, Tensor};
use tsc_rl::buffer::{RolloutBuffer, Trajectory, Transition};
use tsc_rl::distribution::LinearSchedule;
use tsc_rl::ppo::{clipped_policy_loss, entropy_bonus, value_loss};
use tsc_rl::sentinel::{check_finite_params, check_update, UpdateStats};
use tsc_sim::rollout::{derive_rollout_seed, RolloutSet};
use tsc_sim::{Controller, EpisodeStats, IntersectionObs, SimError, TscEnv};

use crate::checkpoint::{Checkpoint, CheckpointManager};
use crate::config::{CriticMode, PairUpLightConfig};
use crate::error::TrainError;
use crate::fault::FaultPlan;
use crate::model::{ActorNet, CriticNet};
use crate::obs::{ObsEncoder, ObsNorm};
use crate::pairing::PairingTable;
use crate::policy::PolicySnapshot;
use crate::runlog::{RunLogger, UpdateRecord};
use crate::step::{PolicyStep, Selection, StepInput};

/// One actor/critic pair with its optimizer state.
#[derive(Debug)]
struct NetBundle {
    params: Params,
    actor: ActorNet,
    critic: CriticNet,
    opt: Adam,
}

impl NetBundle {
    fn new(cfg: &PairUpLightConfig, obs_dim: usize, critic_dim: usize, rng: &mut StdRng) -> Self {
        let mut params = Params::new();
        let actor = ActorNet::new(
            &mut params,
            obs_dim,
            cfg.bandwidth,
            cfg.hidden,
            cfg.lstm_hidden,
            cfg.max_phases,
            rng,
        );
        let critic = CriticNet::new(&mut params, critic_dim, cfg.hidden, cfg.lstm_hidden, rng);
        let opt = Adam::new(&params, cfg.ppo.lr);
        NetBundle {
            params,
            actor,
            critic,
            opt,
        }
    }
}

/// An in-memory restore point: every bundle's weight tensors and
/// optimizer state plus the counters that drive every derived seed.
/// Taken before each training round so the divergence sentinel can roll
/// the round back without touching the filesystem. Gradient buffers are
/// left out: Adam zeroes them after every step, so between rounds they
/// hold nothing.
struct TrainerState {
    bundles: Vec<(Vec<Tensor>, Adam)>,
    episodes_trained: usize,
    rounds_trained: u64,
}

/// Losses and diagnostics of one minibatch step, or their aggregate
/// over a PPO round (means, except `grad_norm` which takes the max).
#[derive(Debug, Clone, Copy, Default)]
struct RoundLosses {
    policy_loss: f32,
    value_loss: f32,
    entropy: f32,
    grad_norm: f32,
    approx_kl: f32,
    clip_fraction: f32,
}

/// Everything one environment replica produces in one collection
/// round: the on-policy trajectory (with bootstrap values) plus the
/// episode's diagnostics. Produced by [`PairUpLight::collect_rollout`]
/// against an immutable policy snapshot; consumed (in env-index order)
/// by the PPO update.
#[derive(Debug, Clone)]
pub struct Rollout {
    /// Per-agent transitions and bootstrap values.
    pub trajectory: Trajectory,
    /// Environment statistics of the collected episode.
    pub stats: EpisodeStats,
    /// Mean absolute regularized message value sent (0 when
    /// communication is disabled).
    pub mean_message: f32,
    /// Mean halted-vehicle queue per intersection per decision step
    /// (Eq. 6's queue term, averaged over the episode) — the traffic
    /// health signal for the observability stream.
    pub mean_queue: f64,
}

/// Per-episode training diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TrainEpisode {
    /// Episode index (0-based).
    pub episode: usize,
    /// Environment statistics of the episode.
    pub stats: EpisodeStats,
    /// Exploration ε used.
    pub epsilon: f32,
    /// Mean absolute regularized message value sent this episode
    /// (0 when communication is disabled).
    pub mean_message: f32,
    /// Mean clipped-surrogate policy loss over the episode's updates.
    pub policy_loss: f32,
    /// Mean value loss (in critic-scale units) over the updates.
    pub value_loss: f32,
    /// Mean policy entropy over the updates.
    pub entropy: f32,
    /// Maximum pre-clip global gradient norm over the episode's
    /// minibatch updates — the divergence sentinel's early-warning
    /// statistic.
    pub grad_norm: f32,
    /// Mean approximate KL divergence `E[logπ_old − logπ_new]` over
    /// the round's minibatch updates (PPO's trust-region health
    /// signal; large values mean the policy moved too far).
    pub approx_kl: f32,
    /// Fraction of samples whose importance ratio hit the PPO clip
    /// range over the round's minibatch updates.
    pub clip_fraction: f32,
}

/// The PairUpLight learner (paper §V, Algorithm 1).
///
/// All randomness is derived, never free-running: exploration streams
/// come from the rollout seed, and the minibatch-shuffle RNG is a pure
/// function of `(cfg.seed, rounds_trained)`. That makes the counters
/// below the *complete* RNG state, which is what lets a checkpoint
/// (weights + Adam state + counters) resume training bit-for-bit
/// identically to an uninterrupted run without serializing any RNG.
#[derive(Debug)]
pub struct PairUpLight {
    cfg: PairUpLightConfig,
    encoder: ObsEncoder,
    pairing: PairingTable,
    bundles: Vec<NetBundle>,
    num_agents: usize,
    phases_per_agent: Vec<usize>,
    episodes_trained: usize,
    /// PPO update rounds completed over the model's lifetime (one round
    /// merges `num_envs` episodes).
    rounds_trained: u64,
    /// Injected faults for exercising the recovery machinery (empty in
    /// production). Behind a mutex so concurrent rollout workers can
    /// consume entries.
    faults: Mutex<FaultPlan>,
    /// Optional JSONL run logger (see [`RunLogger`]). Behind a mutex
    /// because retry events are emitted from `&self` collection paths;
    /// strictly out-of-band — it never feeds back into training state.
    logger: Mutex<Option<RunLogger>>,
}

impl PairUpLight {
    /// Creates a learner for the environment's scenario.
    pub fn new(env: &TscEnv, cfg: PairUpLightConfig) -> Self {
        let scenario = env.scenario();
        let agents = scenario.agents();
        let encoder = ObsEncoder::new(
            &scenario.network,
            &agents,
            cfg.max_phases,
            ObsNorm::default(),
        );
        let pairing = PairingTable::new(&scenario.network, &agents, &encoder);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let critic_dim = match cfg.critic_mode {
            CriticMode::Local => encoder.local_dim(),
            CriticMode::Centralized => encoder.critic_dim(),
        };
        let num_bundles = if cfg.parameter_sharing {
            1
        } else {
            agents.len()
        };
        let bundles = (0..num_bundles)
            .map(|_| NetBundle::new(&cfg, encoder.local_dim(), critic_dim, &mut rng))
            .collect();
        let phases_per_agent = scenario
            .signal_plans
            .iter()
            .map(|p| p.num_phases().min(cfg.max_phases))
            .collect();
        PairUpLight {
            cfg,
            encoder,
            pairing,
            bundles,
            num_agents: agents.len(),
            phases_per_agent,
            episodes_trained: 0,
            rounds_trained: 0,
            faults: Mutex::new(FaultPlan::new()),
            logger: Mutex::new(None),
        }
    }

    /// Attaches a JSONL run logger and immediately writes the manifest
    /// record (config fingerprint, seed, build info, model shape).
    /// Instrumentation is out-of-band: an instrumented run trains
    /// bit-identically to an uninstrumented one.
    pub fn attach_obs(&self, sink: tsc_obs::EventSink) {
        use tsc_obs::Json;
        let mut logger = RunLogger::from_sink(sink);
        logger.log_manifest(
            self.config_fingerprint(),
            self.cfg.seed,
            [
                ("num_agents".to_string(), Json::num(self.num_agents as f64)),
                (
                    "num_envs".to_string(),
                    Json::num(self.cfg.num_envs.max(1) as f64),
                ),
                (
                    "parameter_sharing".to_string(),
                    Json::Bool(self.cfg.parameter_sharing),
                ),
                (
                    "num_params".to_string(),
                    Json::num(self.num_parameters() as f64),
                ),
                (
                    "episodes_trained".to_string(),
                    Json::num(self.episodes_trained as f64),
                ),
                (
                    "rounds_trained".to_string(),
                    Json::num(self.rounds_trained as f64),
                ),
            ],
        );
        *self.logger.lock().expect("run logger lock") = Some(logger);
    }

    /// Detaches the run logger, writing its `summary` record, and
    /// returns the accumulated metrics registry. `None` when no logger
    /// was attached (or it was already finished).
    pub fn finish_obs(&self) -> Option<tsc_obs::MetricsRegistry> {
        self.logger
            .lock()
            .expect("run logger lock")
            .take()
            .map(RunLogger::finish)
    }

    /// Runs `f` against the attached run logger, if any.
    fn with_obs(&self, f: impl FnOnce(&mut RunLogger)) {
        if let Some(log) = self.logger.lock().expect("run logger lock").as_mut() {
            f(log);
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PairUpLightConfig {
        &self.cfg
    }

    /// Episodes trained so far.
    pub fn episodes_trained(&self) -> usize {
        self.episodes_trained
    }

    /// PPO update rounds completed so far (one round merges
    /// `cfg.num_envs` episodes).
    pub fn rounds_trained(&self) -> u64 {
        self.rounds_trained
    }

    /// Replaces the injected-fault schedule (test instrumentation; see
    /// [`FaultPlan`]). An empty plan — the default — injects nothing.
    pub fn inject_faults(&self, plan: FaultPlan) {
        *self.faults.lock().expect("fault plan lock") = plan;
    }

    /// Total trainable scalars across bundles.
    pub fn num_parameters(&self) -> usize {
        self.bundles.iter().map(|b| b.params.num_scalars()).sum()
    }

    /// The critic predicts *average-reward-scaled* returns
    /// `(1-γ)·R` so its targets stay in the clamped reward range
    /// regardless of γ; this factor converts back to return units for
    /// GAE. Without it the value loss dwarfs the policy loss under
    /// oversaturation and the clipped gradient erases the policy
    /// signal.
    fn value_scale(&self) -> f32 {
        1.0 / (1.0 - self.cfg.ppo.gamma).max(0.01)
    }

    fn epsilon(&self) -> f32 {
        LinearSchedule {
            start: self.cfg.eps_start,
            end: self.cfg.eps_end,
            decay_steps: self.cfg.eps_decay_episodes as u64,
        }
        .value(self.episodes_trained as u64)
    }

    /// Collects one full episode of on-policy experience against the
    /// *current* (frozen) policy — pure with respect to the learner:
    /// `&self` only, with all randomness (exploration, message noise,
    /// random pairing) drawn from a private RNG derived from `seed` and
    /// `cfg.seed`. This is what makes data-parallel collection sound:
    /// any number of workers can run it concurrently on independent
    /// env replicas and the result for a given `(policy, seed)` pair is
    /// always the same. Each decision step is one tape-free
    /// [`PolicyStep`] pass per bundle group.
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn collect_rollout(&self, env: &mut TscEnv, seed: u64) -> Result<Rollout, SimError> {
        let _span = tsc_obs::span!("rollout.episode");
        let n = self.num_agents;
        let local_dim = self.encoder.local_dim();
        let selection = Selection::Explore(self.epsilon());
        // The policy stream is salted with `cfg.seed` so two learners
        // that differ only in their model seed also explore
        // differently on the same episode seed.
        let mut rng = StdRng::seed_from_u64(derive_rollout_seed(self.cfg.seed, seed, 0x5A17));
        let mut all_obs = env.reset(seed);
        let mut step = PolicyStep::new(&self.cfg, n);
        let mut traj = Trajectory::new(n);
        let mut total_reward = 0.0f64;
        let mut msg_abs_sum = 0.0f32;
        let mut msg_count = 0usize;
        let mut queue_sum = 0.0f64;
        let mut queue_steps = 0usize;
        let owned = |(h, c): (&[f32], &[f32])| (h.to_vec(), c.to_vec());

        loop {
            let partners = self.pairing.select(self.cfg.pairing, &all_obs, &mut rng);
            step.listen(&partners);
            // The recurrent state each agent decides from, which the
            // PPO update replays.
            let before: Vec<_> = (0..n)
                .map(|a| (owned(step.actor_state(a)), owned(step.critic_state(a))))
                .collect();
            let input = StepInput {
                encoder: &self.encoder,
                phases: &self.phases_per_agent,
                obs: &all_obs,
                selection,
                sigma: self.cfg.sigma,
            };
            for (g, b) in self.bundles.iter().enumerate() {
                let _infer = tsc_obs::span!("rollout.infer");
                step.run_group(g, &input, &b.params, &b.actor, Some(&b.critic), &mut rng);
            }
            let env_step = env.step(&step.actions)?;
            queue_sum += env_step
                .obs
                .iter()
                .map(IntersectionObs::total_halting)
                .sum::<f64>();
            queue_steps += 1;
            for (a, (actor_h, critic_h)) in before.into_iter().enumerate() {
                let m_hat = step.outgoing.row(a);
                msg_abs_sum += m_hat.iter().map(|x| x.abs()).sum::<f32>();
                msg_count += m_hat.len();
                let (obs, message_in) = step.actor_input(a).split_at(local_dim);
                total_reward += env_step.rewards[a];
                traj.push(
                    a,
                    Transition {
                        obs: obs.to_vec(),
                        critic_obs: step.critic_input(a).to_vec(),
                        action: step.actions[a],
                        reward: ((env_step.rewards[a] as f32) * self.cfg.reward_scale)
                            .clamp(-self.cfg.reward_clip, 0.0),
                        value: step.values[a] * self.value_scale(),
                        log_prob: step.log_probs[a],
                        actor_h,
                        critic_h,
                        message_in: message_in.to_vec(),
                        aux: vec![self.encoder.message_target(&env_step.obs[a])],
                    },
                );
            }
            all_obs = env_step.obs;
            if env_step.done {
                break;
            }
        }

        // Bootstrap values V(s_{B+1}) (Algorithm 1 line 24).
        for (g, b) in self.bundles.iter().enumerate() {
            step.critic_group(g, &self.encoder, &all_obs, &b.params, &b.critic);
        }
        for (last, &v) in traj.last_values.iter_mut().zip(&step.values) {
            *last = v * self.value_scale();
        }
        let stats = EpisodeStats {
            steps: traj.agents.first().map_or(0, Vec::len),
            total_reward,
            avg_waiting_time: env.sim().metrics().avg_waiting_time(),
            avg_travel_time: env.sim().avg_travel_time(),
            finished: env.sim().metrics().finished(),
            spawned: env.sim().metrics().spawned(),
        };
        Ok(Rollout {
            trajectory: traj,
            stats,
            mean_message: if msg_count > 0 {
                msg_abs_sum / msg_count as f32
            } else {
                0.0
            },
            mean_queue: if queue_steps > 0 {
                queue_sum / (queue_steps * n) as f64
            } else {
                0.0
            },
        })
    }

    /// Collects one rollout per replica in `set`, seeding replica `e`
    /// with `seeds[e]`, and returns the rollouts **in env-index order**
    /// regardless of worker scheduling.
    ///
    /// With `parallel`, replicas are driven by scoped worker threads
    /// sharing the frozen policy read-only; each worker writes into its
    /// own pre-allocated slot, so no result ever moves between lanes
    /// and no floating-point value is accumulated across threads —
    /// the output is bit-identical to the serial path.
    ///
    /// Each worker runs inside `catch_unwind`, and a panicked replica
    /// is retried with the **same** seed (bounded by
    /// `cfg.max_round_retries`). Because
    /// [`collect_rollout`](Self::collect_rollout) takes `&self` and
    /// starts from `env.reset(seed)`, a retry observes no trace of the
    /// aborted attempt — the recovered result is bit-identical to one
    /// where the panic never happened, which is why `AssertUnwindSafe`
    /// is sound here.
    ///
    /// # Errors
    ///
    /// [`TrainError::Sim`] for the first (lowest env index) environment
    /// failure; [`TrainError::WorkerPanic`] when a replica still panics
    /// after its retries.
    ///
    /// # Panics
    ///
    /// Panics if `seeds.len() != set.len()`.
    pub fn collect_rollouts(
        &self,
        set: &mut RolloutSet,
        seeds: &[u64],
        parallel: bool,
    ) -> Result<Vec<Rollout>, TrainError> {
        self.collect_round(set.envs_mut(), seeds, parallel)
    }

    /// [`collect_rollouts`](Self::collect_rollouts) over a slice of
    /// replicas, so a one-replica round can drive the caller's env
    /// without cloning it. Injected worker faults are looked up under
    /// the learner's current round.
    fn collect_round(
        &self,
        envs: &mut [TscEnv],
        seeds: &[u64],
        parallel: bool,
    ) -> Result<Vec<Rollout>, TrainError> {
        assert_eq!(seeds.len(), envs.len(), "one seed per replica");
        let round = self.rounds_trained;
        let run = |env: &mut TscEnv, seed: u64, e: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                if self
                    .faults
                    .lock()
                    .expect("fault plan lock")
                    .take_panic(round, e)
                {
                    panic!("injected rollout worker fault (round {round}, env {e})");
                }
                self.collect_rollout(env, seed)
            }))
        };
        let run = &run;
        let mut slots: Vec<Option<std::thread::Result<Result<Rollout, SimError>>>> =
            (0..envs.len()).map(|_| None).collect();
        if parallel && envs.len() > 1 {
            std::thread::scope(|scope| {
                for (e, ((env, &seed), slot)) in
                    envs.iter_mut().zip(seeds).zip(slots.iter_mut()).enumerate()
                {
                    scope.spawn(move || {
                        *slot = Some(run(env, seed, e));
                        // thread::scope waits for this closure, not for
                        // TLS destructors: fold span stats in now so a
                        // report taken right after the scope sees them.
                        tsc_obs::span::flush_thread();
                    });
                }
            });
        } else {
            for (e, ((env, &seed), slot)) in
                envs.iter_mut().zip(seeds).zip(slots.iter_mut()).enumerate()
            {
                *slot = Some(run(env, seed, e));
            }
        }
        // Retry panicked replicas serially (panics are the rare path);
        // healthy replicas' results are already in their slots.
        let mut out = Vec::with_capacity(envs.len());
        for (e, (slot, env)) in slots.into_iter().zip(envs.iter_mut()).enumerate() {
            let mut result = slot.expect("every worker fills its slot");
            let mut retries = 0u32;
            while result.is_err() {
                if retries >= self.cfg.max_round_retries {
                    return Err(TrainError::WorkerPanic {
                        round,
                        env: e,
                        retries,
                    });
                }
                retries += 1;
                self.with_obs(|log| log.log_worker_panic_retry(round, e, retries));
                result = run(env, seeds[e], e);
            }
            let Ok(rollout) = result else {
                unreachable!("loop above exits only on success")
            };
            out.push(rollout?);
        }
        Ok(out)
    }

    /// Merges a round of rollouts (already in env-index order) into one
    /// multi-env batch, runs the PPO update, and returns one
    /// [`TrainEpisode`] record per rollout (sharing the round's losses).
    fn update_round(&mut self, rollouts: Vec<Rollout>) -> Vec<TrainEpisode> {
        let epsilon = self.epsilon();
        let round = self.rounds_trained;
        let episode_start = self.episodes_trained;
        let mut metas = Vec::with_capacity(rollouts.len());
        let mut trajs = Vec::with_capacity(rollouts.len());
        for r in rollouts {
            metas.push((r.stats, r.mean_message, r.mean_queue));
            trajs.push(r.trajectory);
        }
        let (mut buffer, last_values) = RolloutBuffer::from_trajectories(trajs);
        buffer.compute_targets(&last_values, self.cfg.ppo.gamma, self.cfg.ppo.lambda);
        let update_started = Instant::now();
        let losses = self.update(&buffer);
        let update_wall_ns = u64::try_from(update_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.rounds_trained += 1;
        // Out-of-band observability: aggregates over the round's
        // episodes, written after the update so a crash mid-update
        // never logs a round that didn't happen.
        self.with_obs(|log| {
            let k = metas.len().max(1) as f64;
            log.log_update(&UpdateRecord {
                round,
                episode_start,
                episodes: metas.len(),
                steps: metas.first().map_or(0, |(s, _, _)| s.steps),
                policy_loss: losses.policy_loss,
                value_loss: losses.value_loss,
                entropy: losses.entropy,
                grad_norm: losses.grad_norm,
                approx_kl: losses.approx_kl,
                clip_fraction: losses.clip_fraction,
                epsilon,
                mean_message: metas.iter().map(|(_, m, _)| m).sum::<f32>() / k as f32,
                mean_reward: metas.iter().map(|(s, _, _)| s.total_reward).sum::<f64>() / k,
                mean_queue: metas.iter().map(|(_, _, q)| q).sum::<f64>() / k,
                mean_wait_s: metas
                    .iter()
                    .map(|(s, _, _)| s.avg_waiting_time)
                    .sum::<f64>()
                    / k,
                mean_travel_s: metas.iter().map(|(s, _, _)| s.avg_travel_time).sum::<f64>() / k,
                update_wall_ns,
            });
        });
        metas
            .into_iter()
            .map(|(stats, mean_message, _)| {
                let ep = TrainEpisode {
                    episode: self.episodes_trained,
                    stats,
                    epsilon,
                    mean_message,
                    policy_loss: losses.policy_loss,
                    value_loss: losses.value_loss,
                    entropy: losses.entropy,
                    grad_norm: losses.grad_norm,
                    approx_kl: losses.approx_kl,
                    clip_fraction: losses.clip_fraction,
                };
                self.episodes_trained += 1;
                ep
            })
            .collect()
    }

    /// Runs one training episode (explore + update) and returns its
    /// diagnostics: one `num_envs = 1` round without the panic
    /// isolation or divergence rollback of [`train`](Self::train).
    ///
    /// # Errors
    ///
    /// Propagates environment failures.
    pub fn train_episode(&mut self, env: &mut TscEnv, seed: u64) -> Result<TrainEpisode, SimError> {
        let rollout = self.collect_rollout(env, seed)?;
        Ok(self.update_round(vec![rollout]).remove(0))
    }

    /// PPO update (Algorithm 1 line 29): K epochs over minibatches.
    /// Returns mean losses/diagnostics and max pre-clip gradient norm
    /// over minibatch updates.
    ///
    /// The minibatch-shuffle RNG is derived fresh from
    /// `(cfg.seed, rounds_trained)` every round rather than carried in
    /// the learner, so the round counter alone reproduces the shuffle —
    /// the property checkpoint resume relies on.
    fn update(&mut self, buffer: &RolloutBuffer) -> RoundLosses {
        let _span = tsc_obs::span!("ppo.update");
        let epochs = self.cfg.ppo.epochs;
        let minibatch = self.cfg.ppo.minibatch;
        let mut rng = StdRng::seed_from_u64(derive_rollout_seed(
            self.cfg.seed,
            self.rounds_trained,
            0x0BB5,
        ));
        let mut acc = RoundLosses::default();
        let mut count = 0usize;
        let fold = |acc: &mut RoundLosses, l: RoundLosses| {
            acc.policy_loss += l.policy_loss;
            acc.value_loss += l.value_loss;
            acc.entropy += l.entropy;
            acc.approx_kl += l.approx_kl;
            acc.clip_fraction += l.clip_fraction;
            acc.grad_norm = acc.grad_norm.max(l.grad_norm);
        };
        for _epoch in 0..epochs {
            let batches = buffer.minibatches(minibatch, &mut rng);
            for batch in batches {
                if self.cfg.parameter_sharing {
                    let l = self.update_minibatch(0, buffer, &batch);
                    fold(&mut acc, l);
                    count += 1;
                } else {
                    // Group the minibatch by owning agent. Buffer lanes
                    // are env-major (`lane = env * num_agents + agent`),
                    // so the owning agent — and therefore the bundle —
                    // is `lane % num_agents`.
                    let mut per_agent: Vec<Vec<(usize, usize)>> = vec![Vec::new(); self.num_agents];
                    for (lane, t) in batch {
                        per_agent[lane % self.num_agents].push((lane, t));
                    }
                    for (a, items) in per_agent.into_iter().enumerate() {
                        if !items.is_empty() {
                            let l = self.update_minibatch(a, buffer, &items);
                            fold(&mut acc, l);
                            count += 1;
                        }
                    }
                }
            }
        }
        let n = count.max(1) as f32;
        RoundLosses {
            policy_loss: acc.policy_loss / n,
            value_loss: acc.value_loss / n,
            entropy: acc.entropy / n,
            grad_norm: acc.grad_norm,
            approx_kl: acc.approx_kl / n,
            clip_fraction: acc.clip_fraction / n,
        }
    }

    /// One gradient step of bundle `b` on the given `(agent, step)`
    /// items. Returns the step's losses and diagnostics.
    fn update_minibatch(
        &mut self,
        b: usize,
        buffer: &RolloutBuffer,
        items: &[(usize, usize)],
    ) -> RoundLosses {
        let _span = tsc_obs::span!("ppo.minibatch");
        let bw = self.cfg.bandwidth;
        let rows = items.len();
        let mut actor_in = Vec::with_capacity(rows);
        let mut actor_h = Vec::with_capacity(rows);
        let mut actor_c = Vec::with_capacity(rows);
        let mut critic_in = Vec::with_capacity(rows);
        let mut critic_h = Vec::with_capacity(rows);
        let mut critic_c = Vec::with_capacity(rows);
        let mut actions = Vec::with_capacity(rows);
        let mut old_logp = Vec::with_capacity(rows);
        let mut advs = Vec::with_capacity(rows);
        let mut rets = Vec::with_capacity(rows);
        let mut aux_targets = Vec::with_capacity(rows);
        for &(a, t) in items {
            let tr = &buffer.transitions(a)[t];
            let mut input = tr.obs.clone();
            input.extend_from_slice(&tr.message_in);
            actor_in.push(input);
            actor_h.push(tr.actor_h.0.clone());
            actor_c.push(tr.actor_h.1.clone());
            critic_in.push(tr.critic_obs.clone());
            critic_h.push(tr.critic_h.0.clone());
            critic_c.push(tr.critic_h.1.clone());
            actions.push(tr.action);
            old_logp.push(tr.log_prob);
            let target = buffer.target(a, t);
            advs.push(target.advantage);
            rets.push(target.ret / self.value_scale());
            aux_targets.push(tr.aux.first().copied().unwrap_or(0.0));
        }
        let stack = |rows: &[Vec<f32>]| {
            let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
            Tensor::from_rows(&refs)
        };
        let bundle = &mut self.bundles[b];
        let mut g = Graph::new();
        let x = g.input(stack(&actor_in));
        let h = g.input(stack(&actor_h));
        let c = g.input(stack(&actor_c));
        let (out, _) = bundle.actor.forward(&mut g, &bundle.params, x, h, c);
        let logp_all = g.log_softmax(out.logits);
        let picked = g.gather_cols(logp_all, actions);
        let pl = clipped_policy_loss(&mut g, picked, &old_logp, &advs, self.cfg.ppo.clip);
        let ent = entropy_bonus(&mut g, out.logits);
        // Critic.
        let cx = g.input(stack(&critic_in));
        let ch = g.input(stack(&critic_h));
        let cc = g.input(stack(&critic_c));
        let (v, _, _) = bundle.critic.forward(&mut g, &bundle.params, cx, ch, cc);
        let vl = value_loss(&mut g, v, &rets);
        // Assemble: policy + c_v·value − β·entropy (+ message aux).
        let vls = g.scale(vl, self.cfg.ppo.value_coef);
        let ents = g.scale(ent, -self.cfg.ppo.entropy_coef);
        let mut loss = g.add(pl, vls);
        loss = g.add(loss, ents);
        if bw > 0 {
            if let Some(msg) = out.message {
                // Message auxiliary objective: the regularized message
                // must encode local congestion (see DESIGN.md).
                let squashed = g.sigmoid(msg);
                let first = g.slice_cols(squashed, 0, 1);
                let target = g.input(Tensor::from_vec(rows, 1, aux_targets));
                let d = g.sub(first, target);
                let sq = g.square(d);
                let ml = g.mean(sq);
                let mls = g.scale(ml, self.cfg.message_coef);
                loss = g.add(loss, mls);
            }
        }
        let stats = (
            g.value(pl).get(0, 0),
            g.value(vl).get(0, 0),
            g.value(ent).get(0, 0),
        );
        // Post-hoc diagnostics (pure reads of forward values — no
        // effect on the gradient or on any RNG, so instrumented and
        // uninstrumented runs stay bit-identical): approximate KL
        // `E[logπ_old − logπ_new]` and the fraction of importance
        // ratios outside the clip range.
        let new_logp = g.value(picked);
        let mut kl_sum = 0.0f32;
        let mut clipped = 0usize;
        for (i, &old) in old_logp.iter().enumerate() {
            let new = new_logp.get(i, 0);
            kl_sum += old - new;
            if ((new - old).exp() - 1.0).abs() > self.cfg.ppo.clip {
                clipped += 1;
            }
        }
        g.backward(loss, &mut bundle.params);
        let grad_norm = bundle.params.clip_grad_norm(self.cfg.ppo.max_grad_norm);
        bundle.opt.step(&mut bundle.params);
        RoundLosses {
            policy_loss: stats.0,
            value_loss: stats.1,
            entropy: stats.2,
            grad_norm,
            approx_kl: kl_sum / rows as f32,
            clip_fraction: clipped as f32 / rows as f32,
        }
    }

    /// Trains for at least `episodes` episodes, invoking `on_episode`
    /// after each.
    ///
    /// With `cfg.num_envs = 1` this is the classic loop: one episode
    /// per PPO update, episode `i` of the call seeded `base_seed + i`.
    /// With `K = num_envs > 1`, each update consumes a *round* of `K`
    /// episodes collected from independent env replicas against a
    /// frozen policy snapshot, replica `e` of the call's round `r`
    /// seeded [`derive_rollout_seed`]`(base_seed, r, e)`; rounds repeat
    /// until `episodes` is reached, so the history length rounds up to
    /// a multiple of `K`. Results are bit-identical whether the
    /// replicas run on worker threads (`cfg.parallel_rollouts`) or
    /// serially.
    ///
    /// This is [`train_checkpointed`](Self::train_checkpointed) without
    /// a checkpoint manager, except that the seed schedule counts from
    /// the start of the call rather than from the learner's lifetime
    /// counters: panicked workers are retried and diverged rounds are
    /// rolled back the same way.
    ///
    /// # Errors
    ///
    /// As [`train_checkpointed`](Self::train_checkpointed), minus the
    /// checkpoint failures.
    pub fn train(
        &mut self,
        env: &mut TscEnv,
        episodes: usize,
        base_seed: u64,
        on_episode: impl FnMut(&TrainEpisode),
    ) -> Result<Vec<TrainEpisode>, TrainError> {
        let origin = (self.episodes_trained, self.rounds_trained);
        self.train_rounds(env, episodes, base_seed, origin, None, on_episode)
    }

    /// FNV-1a-64 over the configuration's debug representation —
    /// written into every checkpoint so restore can refuse state from a
    /// differently-configured learner (wrong shapes would be caught
    /// anyway; wrong hyper-parameters would silently train the wrong
    /// model). Shared with checkpoint consumers as
    /// [`crate::checkpoint::config_fingerprint`].
    fn config_fingerprint(&self) -> u64 {
        crate::checkpoint::config_fingerprint(&self.cfg)
    }

    fn snapshot(&self) -> TrainerState {
        TrainerState {
            bundles: self
                .bundles
                .iter()
                .map(|b| {
                    let weights = b.params.ids().map(|id| b.params.value(id).clone());
                    (weights.collect(), b.opt.clone())
                })
                .collect(),
            episodes_trained: self.episodes_trained,
            rounds_trained: self.rounds_trained,
        }
    }

    fn restore(&mut self, state: &TrainerState) {
        for (bundle, (weights, opt)) in self.bundles.iter_mut().zip(&state.bundles) {
            for (id, w) in bundle.params.ids().zip(weights) {
                bundle.params.value_mut(id).clone_from(w);
            }
            bundle.opt = opt.clone();
        }
        self.episodes_trained = state.episodes_trained;
        self.rounds_trained = state.rounds_trained;
    }

    /// Simulates the aftermath of a non-finite gradient step by
    /// poisoning one weight with NaN. Only reachable through
    /// [`FaultPlan::nan_gradient`].
    fn poison_first_parameter(&mut self) {
        if let Some(bundle) = self.bundles.first_mut() {
            if let Some(id) = bundle.params.ids().next() {
                bundle.params.value_mut(id).data_mut()[0] = f32::NAN;
            }
        }
    }

    /// Writes the full training state (weights, Adam moments and
    /// timestep, episode/round counters, `base_seed`, config
    /// fingerprint) to `path` atomically. See [`Checkpoint`] for the
    /// format and the bit-identical-resume guarantee.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn save_checkpoint(
        &self,
        path: impl AsRef<std::path::Path>,
        base_seed: u64,
    ) -> std::io::Result<()> {
        self.checkpoint_state(base_seed).write_atomic(path)
    }

    /// Snapshots the full training state as a [`Checkpoint`] value
    /// (the serialization side of
    /// [`save_checkpoint`](Self::save_checkpoint)).
    fn checkpoint_state(&self, base_seed: u64) -> Checkpoint {
        Checkpoint {
            fingerprint: self.config_fingerprint(),
            episodes_trained: self.episodes_trained,
            rounds_trained: self.rounds_trained,
            base_seed,
            bundles: self
                .bundles
                .iter()
                .map(|b| (b.params.clone(), b.opt.clone()))
                .collect(),
        }
    }

    /// Restores a checkpoint written by
    /// [`save_checkpoint`](Self::save_checkpoint) into this learner and
    /// returns the `base_seed` of the interrupted run. All-or-nothing:
    /// the checksum and then [`Checkpoint::validate`] (fingerprint,
    /// layout, finite content) are checked before the first weight is
    /// touched, so a rejected checkpoint leaves the learner exactly as
    /// it was.
    ///
    /// # Errors
    ///
    /// Returns [`TrainError::Load`] for corrupt/truncated files and
    /// every [`Checkpoint::validate`] failure; [`TrainError::Io`]
    /// wrapped inside [`TrainError::Load`] for filesystem failures.
    pub fn load_checkpoint(
        &mut self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<u64, TrainError> {
        let ck = Checkpoint::read(path)?;
        ck.validate(&self.cfg, self.bundles.iter().map(|b| &b.params))?;
        for (bundle, (params, opt)) in self.bundles.iter_mut().zip(ck.bundles) {
            bundle.params.copy_from(&params);
            bundle.opt = opt;
        }
        self.episodes_trained = ck.episodes_trained;
        self.rounds_trained = ck.rounds_trained;
        Ok(ck.base_seed)
    }

    /// Reconstructs a learner from a checkpoint: builds a fresh model
    /// for `env` with `cfg`, restores the checkpoint into it, and
    /// returns the learner together with the interrupted run's
    /// `base_seed`. Continuing with
    /// [`train_checkpointed`](Self::train_checkpointed) and that seed
    /// produces the exact byte-for-byte parameter trajectory of the run
    /// that was never interrupted.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint validation failures; `cfg` must match the
    /// checkpointed configuration (enforced via fingerprint).
    pub fn resume(
        env: &TscEnv,
        cfg: PairUpLightConfig,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(Self, u64), TrainError> {
        let mut model = PairUpLight::new(env, cfg);
        let base_seed = model.load_checkpoint(path)?;
        Ok((model, base_seed))
    }

    /// The fault-tolerant training loop: [`train`](Self::train)'s
    /// rounds plus periodic atomic checkpoints through `manager`,
    /// pruned to its retention policy.
    ///
    /// Per round it (1) snapshots the weights, optimizer state and
    /// counters in memory, (2) collects rollouts with panicked workers
    /// retried on the same seed, (3) runs the PPO update, (4) checks the
    /// update statistics and parameters for divergence — on a trip the
    /// snapshot is restored and the round retried with a
    /// deterministically reseeded schedule (the same seed would diverge
    /// identically), bounded by `cfg.max_round_retries` — and (5)
    /// writes a checkpoint through `manager` when one is due.
    ///
    /// Seeding continues from the learner's lifetime counters rather
    /// than restarting at zero: round `r` of a resumed learner draws
    /// the same seeds as round `r` of one that never stopped, which is
    /// what makes resume-from-checkpoint bit-identical.
    ///
    /// # Errors
    ///
    /// [`TrainError::Sim`] for deterministic environment failures
    /// (never retried), [`TrainError::WorkerPanic`] /
    /// [`TrainError::Diverged`] when a retry budget is exhausted,
    /// [`TrainError::Io`] for checkpoint failures, and
    /// [`TrainError::Aborted`] for an injected abort.
    pub fn train_checkpointed(
        &mut self,
        env: &mut TscEnv,
        episodes: usize,
        base_seed: u64,
        manager: Option<&CheckpointManager>,
        on_episode: impl FnMut(&TrainEpisode),
    ) -> Result<Vec<TrainEpisode>, TrainError> {
        self.train_rounds(env, episodes, base_seed, (0, 0), manager, on_episode)
    }

    /// The one round loop behind [`train`](Self::train) and
    /// [`train_checkpointed`](Self::train_checkpointed). `origin` is
    /// the `(episodes_trained, rounds_trained)` the seed schedule
    /// counts from: the call's start for `train`, the learner's birth
    /// for `train_checkpointed`.
    fn train_rounds(
        &mut self,
        env: &mut TscEnv,
        episodes: usize,
        base_seed: u64,
        origin: (usize, u64),
        manager: Option<&CheckpointManager>,
        mut on_episode: impl FnMut(&TrainEpisode),
    ) -> Result<Vec<TrainEpisode>, TrainError> {
        /// Salts the reseeded retry of a diverged round so it draws
        /// fresh episodes instead of replaying the divergent ones.
        const RETRY_SALT: u64 = 0x8E7B_11F5;
        let k = self.cfg.num_envs.max(1);
        self.with_obs(|log| log.log_train_start(base_seed, episodes, self.rounds_trained));
        // One replica drives `env` itself; more are cloned from it.
        // Every rollout starts from `env.reset(seed)`, so the env's
        // current state never leaks into training either way.
        let mut replicas = (k > 1).then(|| RolloutSet::new(env, k));
        let mut history = Vec::with_capacity(episodes);
        while history.len() < episodes {
            let round = self.rounds_trained;
            let restore_point = self.snapshot();
            let mut attempt: u32 = 0;
            let round_records = loop {
                // Attempt 0 follows the nominal seed schedule; retries
                // derive a fresh deterministic one.
                let seeds: Vec<u64> = if k == 1 {
                    let nominal = base_seed + (self.episodes_trained - origin.0) as u64;
                    vec![if attempt == 0 {
                        nominal
                    } else {
                        derive_rollout_seed(nominal, u64::from(attempt), RETRY_SALT)
                    }]
                } else {
                    let nominal = round - origin.1;
                    let round_key = if attempt == 0 {
                        nominal
                    } else {
                        derive_rollout_seed(nominal, u64::from(attempt), RETRY_SALT)
                    };
                    (0..k)
                        .map(|e| derive_rollout_seed(base_seed, round_key, e as u64))
                        .collect()
                };
                let envs = match &mut replicas {
                    Some(set) => set.envs_mut(),
                    None => std::slice::from_mut(&mut *env),
                };
                let rollouts = self.collect_round(envs, &seeds, self.cfg.parallel_rollouts)?;
                let records = self.update_round(rollouts);
                if self.faults.lock().expect("fault plan lock").take_nan(round) {
                    self.poison_first_parameter();
                }
                let stats = UpdateStats {
                    policy_loss: records[0].policy_loss,
                    value_loss: records[0].value_loss,
                    entropy: records[0].entropy,
                    grad_norm: records[0].grad_norm,
                };
                match check_update(&stats, self.cfg.divergence_loss_limit)
                    .and_then(|()| check_finite_params(self.parameter_vector()))
                {
                    Ok(()) => break records,
                    Err(diagnosis) => {
                        self.restore(&restore_point);
                        let exhausted = attempt >= self.cfg.max_round_retries;
                        self.with_obs(|log| {
                            log.log_divergence(round, attempt, &diagnosis.to_string());
                            log.log_rollback(round, attempt, !exhausted);
                        });
                        if exhausted {
                            return Err(TrainError::Diverged {
                                round,
                                retries: attempt,
                                reason: diagnosis.to_string(),
                            });
                        }
                        attempt += 1;
                    }
                }
            };
            for ep in round_records {
                on_episode(&ep);
                history.push(ep);
            }
            if let Some(manager) = manager {
                if manager.due(self.rounds_trained) {
                    let path = manager.path_for(self.rounds_trained);
                    if self
                        .faults
                        .lock()
                        .expect("fault plan lock")
                        .take_checkpoint_fail(round)
                    {
                        // Injected disk-full: the write tears mid-file
                        // and the real error surfaces. The previous
                        // checkpoint must survive untouched.
                        return Err(TrainError::Io(
                            self.checkpoint_state(base_seed).write_torn(path),
                        ));
                    }
                    self.save_checkpoint(&path, base_seed)?;
                    self.with_obs(|log| log.log_checkpoint(self.rounds_trained, &path));
                    manager.prune()?;
                }
            }
            if self
                .faults
                .lock()
                .expect("fault plan lock")
                .take_abort(round)
            {
                return Err(TrainError::Aborted { round });
            }
        }
        Ok(history)
    }

    /// All trainable scalars across bundles, concatenated in a stable
    /// (bundle, parameter, element) order. Intended for exact
    /// (bit-for-bit) equality checks between training runs.
    pub fn parameter_vector(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for b in &self.bundles {
            for id in b.params.ids() {
                out.extend_from_slice(b.params.value(id).data());
            }
        }
        out
    }

    /// Snapshots the deployable policy state (actor weights, encoder,
    /// pairing, phase counts) for a serving runtime. See
    /// [`PolicySnapshot`](crate::policy::PolicySnapshot).
    pub fn policy_snapshot(&self) -> PolicySnapshot {
        PolicySnapshot::new(
            self.cfg,
            self.encoder.clone(),
            self.pairing.clone(),
            self.bundles
                .iter()
                .map(|b| (b.params.clone(), b.actor.clone()))
                .collect(),
            self.phases_per_agent.clone(),
        )
    }

    /// Snapshots the current policy as a decentralized execution
    /// controller (σ = 0; the critic is not deployed — paper Fig. 4).
    pub fn controller(&self) -> PairUpLightController {
        PairUpLightController {
            step: PolicyStep::new(&self.cfg, self.num_agents),
            selection: if self.cfg.stochastic_execution {
                Selection::Sample
            } else {
                Selection::Greedy
            },
            rng: StdRng::seed_from_u64(self.cfg.seed ^ 0xC0FFEE),
            policy: self.policy_snapshot(),
        }
    }
}

/// The deployed (inference-only) PairUpLight policy: local observations
/// plus one incoming message per intersection, run through
/// [`PolicyStep`] with no autograd tape. Samples its phases when the
/// config asks for stochastic execution, else picks greedily.
#[derive(Debug)]
pub struct PairUpLightController {
    policy: PolicySnapshot,
    step: PolicyStep,
    selection: Selection,
    rng: StdRng,
}

impl PairUpLightController {
    /// Forces greedy (argmax) execution instead of sampling.
    pub fn set_greedy(&mut self) {
        self.selection = Selection::Greedy;
    }
}

impl Controller for PairUpLightController {
    fn reset(&mut self) {
        self.step.reset();
        // Reseed so evaluation episodes are reproducible.
        self.rng = StdRng::seed_from_u64(self.policy.config().seed ^ 0xC0FFEE);
    }

    fn decide(&mut self, obs: &[IntersectionObs]) -> Vec<usize> {
        let policy = &self.policy;
        let partners = policy
            .pairing()
            .select(policy.config().pairing, obs, &mut self.rng);
        self.step.listen(&partners);
        let input = StepInput {
            encoder: policy.encoder(),
            phases: policy.phases_per_agent(),
            obs,
            selection: self.selection,
            sigma: 0.0,
        };
        for (g, (params, actor)) in policy.actors().iter().enumerate() {
            self.step
                .run_group(g, &input, params, actor, None, &mut self.rng);
        }
        self.step.actions.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PairingMode;
    use rand::Rng;
    use tsc_nn::LstmState;
    use tsc_rl::distribution::Categorical;
    use tsc_sim::scenario::grid::{Grid, GridConfig};
    use tsc_sim::scenario::patterns::{flows, FlowPattern, PatternConfig};
    use tsc_sim::{EnvConfig, SimConfig};

    fn tiny_scenario() -> tsc_sim::Scenario {
        let grid = Grid::build(GridConfig {
            cols: 2,
            rows: 2,
            spacing: 150.0,
        })
        .unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        grid.scenario("tiny", f).unwrap()
    }

    fn tiny_env(horizon: u32) -> TscEnv {
        TscEnv::new(
            tiny_scenario(),
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: horizon,
            },
            0,
        )
        .unwrap()
    }

    /// Same environment, but stepped by the legacy tick oracle instead
    /// of the event core.
    fn tiny_env_legacy(horizon: u32) -> TscEnv {
        TscEnv::new_legacy(
            tiny_scenario(),
            SimConfig::default(),
            EnvConfig {
                decision_interval: 5,
                episode_horizon: horizon,
            },
            0,
        )
        .unwrap()
    }

    fn small_cfg() -> PairUpLightConfig {
        let mut cfg = PairUpLightConfig {
            hidden: 16,
            lstm_hidden: 16,
            ..Default::default()
        };
        cfg.ppo.minibatch = 32;
        cfg.ppo.epochs = 2;
        cfg
    }

    #[test]
    fn one_training_episode_runs_and_updates() {
        let mut env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        let before = model.num_parameters();
        let ep = model.train_episode(&mut env, 1).unwrap();
        assert_eq!(model.num_parameters(), before);
        assert_eq!(ep.stats.steps, env.steps_per_episode());
        assert!(ep.stats.spawned > 0);
        assert_eq!(model.episodes_trained(), 1);
        assert!(ep.mean_message > 0.0, "messages flow by default");
    }

    /// End-to-end pin of the simulator migration: a short training run
    /// must produce bit-identical weights whether the environment is
    /// stepped by the event core or the legacy tick oracle. This pushes
    /// the parity contract through the full stack — observations,
    /// rewards, rollout collection, GAE and PPO updates.
    #[test]
    fn training_bitwise_identical_on_event_and_legacy_cores() {
        let run = |legacy: bool| {
            let mut env = if legacy {
                tiny_env_legacy(140)
            } else {
                tiny_env(140)
            };
            let mut model = PairUpLight::new(&env, small_cfg());
            let history = model.train(&mut env, 2, 42, |_| {}).unwrap();
            let bits: Vec<u32> = model
                .parameter_vector()
                .iter()
                .map(|p| p.to_bits())
                .collect();
            let rewards: Vec<u64> = history
                .iter()
                .map(|r| r.stats.total_reward.to_bits())
                .collect();
            (bits, rewards)
        };
        let (event_bits, event_rewards) = run(false);
        let (legacy_bits, legacy_rewards) = run(true);
        assert_eq!(event_rewards, legacy_rewards, "episode rewards diverged");
        assert_eq!(event_bits, legacy_bits, "trained weights diverged");
    }

    #[test]
    fn training_is_deterministic_given_seeds() {
        let run = || {
            let mut env = tiny_env(140);
            let mut model = PairUpLight::new(&env, small_cfg());
            let a = model.train_episode(&mut env, 5).unwrap();
            let b = model.train_episode(&mut env, 6).unwrap();
            (a.stats.total_reward, b.stats.total_reward, a.mean_message)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn multi_env_round_counts_episodes_and_shares_losses() {
        let mut env = tiny_env(140);
        let mut cfg = small_cfg();
        cfg.num_envs = 2;
        let mut model = PairUpLight::new(&env, cfg);
        let history = model.train(&mut env, 2, 0, |_| {}).unwrap();
        assert_eq!(history.len(), 2);
        assert_eq!(model.episodes_trained(), 2);
        assert_eq!(history[0].episode, 0);
        assert_eq!(history[1].episode, 1);
        // One PPO update per round: its diagnostics are shared by the
        // round's episode records.
        assert_eq!(history[0].policy_loss, history[1].policy_loss);
        assert_eq!(history[0].value_loss, history[1].value_loss);
        // Replicas got distinct derived seeds, so their episodes differ.
        assert_ne!(history[0].stats.total_reward, history[1].stats.total_reward);
    }

    #[test]
    fn collect_rollout_is_pure_and_repeatable() {
        let mut env = tiny_env(140);
        let model = PairUpLight::new(&env, small_cfg());
        let a = model.collect_rollout(&mut env, 3).unwrap();
        let b = model.collect_rollout(&mut env, 3).unwrap();
        assert_eq!(a.stats.total_reward, b.stats.total_reward);
        assert_eq!(a.trajectory.last_values, b.trajectory.last_values);
        assert_eq!(a.trajectory.total(), b.trajectory.total());
    }

    fn bundle_idx(model: &PairUpLight, agent: usize) -> usize {
        if model.cfg.parameter_sharing {
            0
        } else {
            agent
        }
    }

    fn critic_input(model: &PairUpLight, all: &[IntersectionObs], agent: usize) -> Vec<f32> {
        match model.cfg.critic_mode {
            CriticMode::Local => model.encoder.encode_local(&all[agent]),
            CriticMode::Centralized => model.encoder.encode_critic(all, agent),
        }
    }

    /// The per-agent ε-greedy sampler the rollout loop used before
    /// `PolicyStep`. Returns `(action, log_prob)`.
    fn sample_action(
        model: &PairUpLight,
        probs: &[f32],
        agent: usize,
        epsilon: f32,
        rng: &mut StdRng,
    ) -> (usize, f32) {
        let n = model.phases_per_agent[agent];
        let mut masked: Vec<f32> = probs[..n].to_vec();
        let sum: f32 = masked.iter().sum();
        if sum <= 0.0 {
            masked = vec![1.0 / n as f32; n];
        } else {
            for p in &mut masked {
                *p /= sum;
            }
        }
        let action = if rng.gen::<f32>() < epsilon {
            rng.gen_range(0..n)
        } else {
            Categorical::new(&masked).sample(rng)
        };
        (action, Categorical::new(&masked).log_prob(action))
    }

    /// The original collection loop: one agent at a time, every forward
    /// pass builds an autograd tape and every step reallocates its
    /// scratch. Kept as the oracle for the rollout tests below.
    fn collect_rollout_tape_reference(
        model: &PairUpLight,
        env: &mut TscEnv,
        seed: u64,
    ) -> Trajectory {
        let epsilon = model.epsilon();
        let n = model.num_agents;
        let lstm = model.cfg.lstm_hidden;
        let bw = model.cfg.bandwidth;
        let mut rng = StdRng::seed_from_u64(derive_rollout_seed(model.cfg.seed, seed, 0x5A17));
        let mut all_obs = env.reset(seed);
        let mut actor_states: Vec<LstmState> = (0..n).map(|_| LstmState::zeros(1, lstm)).collect();
        let mut critic_states: Vec<LstmState> = (0..n).map(|_| LstmState::zeros(1, lstm)).collect();
        let mut messages: Vec<Vec<f32>> = vec![vec![0.0; bw]; n];
        let mut traj = Trajectory::new(n);
        loop {
            let partners = model.pairing.select(model.cfg.pairing, &all_obs, &mut rng);
            let mut actions = vec![0usize; n];
            let mut step_transitions: Vec<Transition> = Vec::with_capacity(n);
            let mut next_messages = vec![vec![0.0f32; bw]; n];
            for a in 0..n {
                let local = model.encoder.encode_local(&all_obs[a]);
                let msg_in: Vec<f32> = if bw > 0 {
                    messages[partners[a]].clone()
                } else {
                    Vec::new()
                };
                let mut input = local.clone();
                input.extend_from_slice(&msg_in);
                let b = bundle_idx(model, a);
                let mut g = Graph::new();
                let (out, next_state) = model.bundles[b].actor.step(
                    &mut g,
                    &model.bundles[b].params,
                    Tensor::row_from_slice(&input),
                    &actor_states[a],
                );
                let probs = tsc_nn::softmax_rows(g.value(out.logits));
                let raw_msg: Vec<f32> = out
                    .message
                    .map(|m| g.value(m).row(0).to_vec())
                    .unwrap_or_default();
                let critic_in = critic_input(model, &all_obs, a);
                let mut gc = Graph::new();
                let (v, next_cstate) = model.bundles[b].critic.step(
                    &mut gc,
                    &model.bundles[b].params,
                    Tensor::row_from_slice(&critic_in),
                    &critic_states[a],
                );
                let value = gc.value(v).get(0, 0) * model.value_scale();
                let (action, log_prob) = sample_action(model, probs.row(0), a, epsilon, &mut rng);
                actions[a] = action;
                if bw > 0 {
                    next_messages[a] =
                        crate::message::regularize(&raw_msg, model.cfg.sigma, &mut rng);
                }
                step_transitions.push(Transition {
                    obs: local,
                    critic_obs: critic_in,
                    action,
                    reward: 0.0,
                    value,
                    log_prob,
                    actor_h: (
                        actor_states[a].h.row(0).to_vec(),
                        actor_states[a].c.row(0).to_vec(),
                    ),
                    critic_h: (
                        critic_states[a].h.row(0).to_vec(),
                        critic_states[a].c.row(0).to_vec(),
                    ),
                    message_in: msg_in,
                    aux: Vec::new(),
                });
                actor_states[a] = next_state;
                critic_states[a] = next_cstate;
            }
            let step = env.step(&actions).unwrap();
            for (a, mut t) in step_transitions.into_iter().enumerate() {
                t.reward = ((step.rewards[a] as f32) * model.cfg.reward_scale)
                    .clamp(-model.cfg.reward_clip, 0.0);
                t.aux = vec![model.encoder.message_target(&step.obs[a])];
                traj.push(a, t);
            }
            messages = next_messages;
            all_obs = step.obs;
            if step.done {
                break;
            }
        }
        for (a, state) in critic_states.iter().enumerate() {
            let b = bundle_idx(model, a);
            let critic_in = critic_input(model, &all_obs, a);
            let mut g = Graph::new();
            let (v, _) = model.bundles[b].critic.step(
                &mut g,
                &model.bundles[b].params,
                Tensor::row_from_slice(&critic_in),
                state,
            );
            traj.last_values[a] = g.value(v).get(0, 0) * model.value_scale();
        }
        traj
    }

    /// Recurrent state, mailbox and RNG of [`decide_tape_reference`].
    struct TapeDecider {
        states: Vec<LstmState>,
        messages: Vec<Vec<f32>>,
        rng: StdRng,
        stochastic: bool,
    }

    impl TapeDecider {
        fn new(model: &PairUpLight, stochastic: bool) -> Self {
            TapeDecider {
                states: (0..model.num_agents)
                    .map(|_| LstmState::zeros(1, model.cfg.lstm_hidden))
                    .collect(),
                messages: vec![vec![0.0; model.cfg.bandwidth]; model.num_agents],
                rng: StdRng::seed_from_u64(model.cfg.seed ^ 0xC0FFEE),
                stochastic,
            }
        }
    }

    /// The controller's original decide loop: one agent at a time, one
    /// autograd graph per agent per step. Kept as the oracle for the
    /// controller lockstep test below.
    fn decide_tape_reference(
        model: &PairUpLight,
        st: &mut TapeDecider,
        obs: &[IntersectionObs],
    ) -> Vec<usize> {
        let partners = model.pairing.select(model.cfg.pairing, obs, &mut st.rng);
        let mut actions = Vec::with_capacity(model.num_agents);
        let mut next_messages = vec![vec![0.0f32; model.cfg.bandwidth]; model.num_agents];
        for a in 0..model.num_agents {
            let mut input = model.encoder.encode_local(&obs[a]);
            if model.cfg.bandwidth > 0 {
                input.extend_from_slice(&st.messages[partners[a]]);
            }
            let b = &model.bundles[bundle_idx(model, a)];
            let mut g = Graph::new();
            let (out, next) = b.actor.step(
                &mut g,
                &b.params,
                Tensor::row_from_slice(&input),
                &st.states[a],
            );
            let n = model.phases_per_agent[a];
            let probs = tsc_nn::softmax_rows(g.value(out.logits));
            let mut masked: Vec<f32> = probs.row(0)[..n].to_vec();
            let sum: f32 = masked.iter().sum();
            for p in &mut masked {
                *p /= sum.max(1e-8);
            }
            let dist = Categorical::new(&masked);
            let action = if st.stochastic {
                dist.sample(&mut st.rng)
            } else {
                dist.argmax()
            };
            if let Some(m) = out.message {
                next_messages[a] = g
                    .value(m)
                    .row(0)
                    .iter()
                    .map(|&x| crate::message::logistic(x))
                    .collect();
            }
            st.states[a] = next;
            actions.push(action);
        }
        st.messages = next_messages;
        actions
    }

    /// Rollout configurations the kernel must match the tape reference
    /// on: shared and per-agent bundles, congestion and random pairing.
    fn rollout_variants(base: PairUpLightConfig) -> Vec<PairUpLightConfig> {
        let mut out = Vec::new();
        for parameter_sharing in [true, false] {
            for pairing in [PairingMode::CongestedUpstream, PairingMode::RandomUpstream] {
                out.push(PairUpLightConfig {
                    parameter_sharing,
                    pairing,
                    ..base
                });
            }
        }
        out
    }

    #[test]
    fn buffer_reusing_rollout_is_bit_identical_to_tape_reference() {
        for cfg in rollout_variants(small_cfg()) {
            let mut env = tiny_env(140);
            let model = PairUpLight::new(&env, cfg);
            let fast = model.collect_rollout(&mut env, 3).unwrap().trajectory;
            let reference = collect_rollout_tape_reference(&model, &mut env, 3);
            assert_eq!(fast.last_values, reference.last_values, "{cfg:?}");
            assert_eq!(fast.agents, reference.agents, "{cfg:?}");
        }
    }

    #[test]
    fn buffer_reusing_rollout_matches_reference_without_communication() {
        for cfg in rollout_variants(small_cfg().without_communication()) {
            let mut env = tiny_env(140);
            let model = PairUpLight::new(&env, cfg);
            let fast = model.collect_rollout(&mut env, 9).unwrap().trajectory;
            let reference = collect_rollout_tape_reference(&model, &mut env, 9);
            assert_eq!(fast.agents, reference.agents, "{cfg:?}");
            assert_eq!(fast.last_values, reference.last_values, "{cfg:?}");
        }
    }

    /// The controller and the tape oracle choose the same phase for
    /// every agent at every step of a full episode — shared and
    /// per-agent bundles, greedy and sampled, congestion and random
    /// pairing — from trained (not freshly initialized) weights.
    #[test]
    fn controller_matches_decide_tape_reference_over_an_episode() {
        for cfg in rollout_variants(small_cfg()) {
            let mut env = tiny_env(140);
            let mut model = PairUpLight::new(&env, cfg);
            model.train_episode(&mut env, 1).unwrap();
            for stochastic in [true, false] {
                let mut ctl = model.controller();
                if !stochastic {
                    ctl.set_greedy();
                }
                ctl.reset();
                let mut reference = TapeDecider::new(&model, stochastic);
                let mut obs = env.reset(4);
                let mut steps = 0usize;
                loop {
                    let want = decide_tape_reference(&model, &mut reference, &obs);
                    assert_eq!(ctl.decide(&obs), want, "{cfg:?} step {steps}");
                    let r = env.step(&want).unwrap();
                    obs = r.obs;
                    steps += 1;
                    if r.done {
                        break;
                    }
                }
                assert_eq!(steps, env.steps_per_episode());
            }
        }
    }

    #[test]
    fn no_communication_ablation_sends_nothing() {
        let mut env = tiny_env(140);
        let cfg = small_cfg().without_communication();
        let mut model = PairUpLight::new(&env, cfg);
        let ep = model.train_episode(&mut env, 1).unwrap();
        assert_eq!(ep.mean_message, 0.0);
    }

    #[test]
    fn controller_runs_an_episode() {
        let mut env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        model.train_episode(&mut env, 1).unwrap();
        let mut ctl = model.controller();
        let stats = env.run_episode(&mut ctl, 99).unwrap();
        assert!(stats.steps > 0);
        assert!(stats.spawned > 0);
    }

    #[test]
    fn per_agent_parameters_when_sharing_disabled() {
        let env = tiny_env(140);
        let mut cfg = small_cfg();
        cfg.parameter_sharing = false;
        let model = PairUpLight::new(&env, cfg);
        let shared = PairUpLight::new(&env, small_cfg());
        assert_eq!(model.num_parameters(), 4 * shared.num_parameters());
    }

    #[test]
    fn load_checkpoint_round_trips_policy() {
        let mut env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        model.train_episode(&mut env, 1).unwrap();
        let path = std::env::temp_dir().join("pairuplight_test_round_trip.ckpt");
        model.save_checkpoint(&path, 7).unwrap();
        // A fresh learner with the same config still holds its initial
        // weights until the checkpoint is restored.
        let mut restored = PairUpLight::new(&env, small_cfg());
        assert_ne!(restored.parameter_vector(), model.parameter_vector());
        assert_eq!(restored.load_checkpoint(&path).unwrap(), 7);
        let _ = std::fs::remove_file(&path);
        assert_eq!(restored.episodes_trained(), 1);
        // Both greedy controllers must now act identically all episode.
        let mut a = model.controller();
        let mut b = restored.controller();
        a.set_greedy();
        b.set_greedy();
        let stats_a = env.run_episode(&mut a, 5).unwrap();
        let stats_b = env.run_episode(&mut b, 5).unwrap();
        assert_eq!(stats_a, stats_b);
    }

    /// Weight shapes do not depend on the grid, so under parameter
    /// sharing a checkpoint moves between grid sizes; with one bundle
    /// per agent it cannot, and the layout check says so.
    #[test]
    fn load_checkpoint_rejects_another_grids_layout() {
        let grid = Grid::build(GridConfig {
            cols: 3,
            rows: 3,
            spacing: 150.0,
        })
        .unwrap();
        let f = flows(&grid, FlowPattern::Five, &PatternConfig::default()).unwrap();
        let big_env = TscEnv::new(
            grid.scenario("big", f).unwrap(),
            SimConfig::default(),
            EnvConfig::default(),
            0,
        )
        .unwrap();
        let path = std::env::temp_dir().join("pairuplight_test_other_grid.ckpt");
        for parameter_sharing in [true, false] {
            // Same config (so the fingerprint matches), other topology.
            let cfg = PairUpLightConfig {
                parameter_sharing,
                ..small_cfg()
            };
            PairUpLight::new(&big_env, cfg)
                .save_checkpoint(&path, 0)
                .unwrap();
            let mut env = tiny_env(140);
            let mut model = PairUpLight::new(&env, cfg);
            model.train_episode(&mut env, 1).unwrap();
            let before = model.parameter_vector();
            let result = model.load_checkpoint(&path);
            if parameter_sharing {
                assert_eq!(result.unwrap(), 0);
                continue;
            }
            let err = result.unwrap_err();
            assert!(
                matches!(&err, TrainError::Load(tsc_nn::LoadError::Format(m))
                    if m.contains("expected 4 bundles, found 9")),
                "{err}"
            );
            assert_eq!(model.parameter_vector(), before, "learner untouched");
            assert_eq!(model.episodes_trained(), 1);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn epsilon_decays_with_episodes() {
        let env = tiny_env(140);
        let mut model = PairUpLight::new(&env, small_cfg());
        let e0 = model.epsilon();
        model.episodes_trained = model.cfg.eps_decay_episodes;
        assert!(model.epsilon() < e0);
        assert_eq!(model.epsilon(), model.cfg.eps_end);
    }
}
