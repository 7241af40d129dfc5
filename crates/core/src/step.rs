//! One decision step of the decentralized policy, batched: encode →
//! [`ActorNet::infer`] → softmax → mask → select → [`regularize_into`]
//! (→ [`CriticNet::infer`]). Training rollouts, evaluation
//! ([`PairUpLightController`](crate::PairUpLightController)) and the
//! `tsc-serve` runtime all run through [`PolicyStep`].
//!
//! Rows are grouped by bundle: group 0 holds all `N` agents when
//! parameters are shared, else group `a` holds agent `a` alone. Every
//! kernel on the path is row-independent, so a batched group is
//! bit-identical to `N` single-row forwards. Groups run in agent order
//! and draw their randomness (sampling, then message noise) row by row
//! after their forward; forwards draw nothing, so the random stream is
//! the one-agent-at-a-time loop's.

use rand::Rng;
use tsc_nn::{LstmState, Params, Tensor};
use tsc_rl::distribution::Categorical;
use tsc_sim::IntersectionObs;

use crate::config::{CriticMode, PairUpLightConfig};
use crate::message::regularize_into;
use crate::model::{ActorNet, CriticNet, InferBuffers};
use crate::obs::ObsEncoder;

/// How [`PolicyStep`] turns a masked policy row into an action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Selection {
    /// The most probable phase; draws no randomness.
    Greedy,
    /// One categorical draw (stochastic execution).
    Sample,
    /// ε-greedy exploration (Algorithm 1 line 13): one uniform draw
    /// picks a uniformly random phase with probability ε, otherwise a
    /// categorical draw.
    Explore(f32),
}

/// What every row group of one decision step reads.
#[derive(Debug, Clone, Copy)]
pub struct StepInput<'a> {
    /// Observation encoder of the controlled topology.
    pub encoder: &'a ObsEncoder,
    /// Valid phase count per agent: the action mask.
    pub phases: &'a [usize],
    /// Joint observation, one entry per agent.
    pub obs: &'a [IntersectionObs],
    /// Action selection rule.
    pub selection: Selection,
    /// Message-regularizer noise σ; 0 is the plain logistic squash.
    pub sigma: f32,
}

/// Buffers and recurrent state of one bundle group.
#[derive(Debug, Clone)]
struct Group {
    x: Tensor,
    cx: Tensor,
    actor: LstmState,
    critic: LstmState,
    abuf: InferBuffers,
    cbuf: InferBuffers,
    probs: Tensor,
}

/// Reusable N-row buffers, recurrent state and per-agent outputs of the
/// batched policy step (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct PolicyStep {
    groups: Vec<Group>,
    critic_mode: CriticMode,
    masked: Vec<f32>,
    allocs: u64,
    /// Incoming partner message per agent (`N × bandwidth`).
    pub incoming: Tensor,
    /// Regularized outgoing message per agent (`N × bandwidth`).
    pub outgoing: Tensor,
    /// Chosen phase per agent.
    pub actions: Vec<usize>,
    /// Behaviour log-probability of each chosen phase.
    pub log_probs: Vec<f32>,
    /// Raw critic value per agent.
    pub values: Vec<f32>,
}

impl PolicyStep {
    /// Zero-state buffers for `num_agents` agents under `cfg`'s
    /// parameter sharing, LSTM width, bandwidth and critic input.
    pub fn new(cfg: &PairUpLightConfig, num_agents: usize) -> Self {
        let (groups, rows) = if cfg.parameter_sharing {
            (1, num_agents)
        } else {
            (num_agents, 1)
        };
        let group = Group {
            x: Tensor::zeros(0, 0),
            cx: Tensor::zeros(0, 0),
            actor: LstmState::zeros(rows, cfg.lstm_hidden),
            critic: LstmState::zeros(rows, cfg.lstm_hidden),
            abuf: InferBuffers::default(),
            cbuf: InferBuffers::default(),
            probs: Tensor::zeros(0, 0),
        };
        PolicyStep {
            groups: vec![group; groups],
            critic_mode: cfg.critic_mode,
            masked: Vec::new(),
            allocs: 0,
            incoming: Tensor::zeros(num_agents, cfg.bandwidth),
            outgoing: Tensor::zeros(num_agents, cfg.bandwidth),
            actions: vec![0; num_agents],
            log_probs: vec![0.0; num_agents],
            values: vec![0.0; num_agents],
        }
    }

    /// Zeroes recurrent state and messages: a fresh episode.
    pub fn reset(&mut self) {
        for g in &mut self.groups {
            for s in [&mut g.actor, &mut g.critic] {
                s.h.fill_zero();
                s.c.fill_zero();
            }
        }
        self.incoming.fill_zero();
        self.outgoing.fill_zero();
    }

    /// Direct message exchange: agent `a` hears what `partners[a]` sent
    /// on the previous step.
    pub fn listen(&mut self, partners: &[usize]) {
        for (a, &p) in partners.iter().enumerate() {
            self.incoming
                .row_mut(a)
                .copy_from_slice(self.outgoing.row(p));
        }
    }

    /// Agent `a`'s group and its row in it: group 0 row `a` when
    /// shared, group `a` row 0 otherwise.
    fn locate(&self, a: usize) -> (&Group, usize) {
        let g = a.min(self.groups.len() - 1);
        (&self.groups[g], a - g)
    }

    /// Agent `a`'s last actor input `[local observation ⊕ message]`.
    pub fn actor_input(&self, a: usize) -> &[f32] {
        let (g, r) = self.locate(a);
        g.x.row(r)
    }

    /// Agent `a`'s last critic input.
    pub fn critic_input(&self, a: usize) -> &[f32] {
        let (g, r) = self.locate(a);
        g.cx.row(r)
    }

    /// Agent `a`'s actor LSTM state `(h, c)`: the next step's start.
    pub fn actor_state(&self, a: usize) -> (&[f32], &[f32]) {
        let (g, r) = self.locate(a);
        (g.actor.h.row(r), g.actor.c.row(r))
    }

    /// Agent `a`'s critic LSTM state `(h, c)`.
    pub fn critic_state(&self, a: usize) -> (&[f32], &[f32]) {
        let (g, r) = self.locate(a);
        (g.critic.h.row(r), g.critic.c.row(r))
    }

    /// Cumulative buffer (re)allocation count; constant across steps
    /// once shapes have stabilized.
    pub fn alloc_events(&self) -> u64 {
        let bufs = |g: &Group| g.abuf.alloc_events() + g.cbuf.alloc_events();
        self.allocs + self.groups.iter().map(bufs).sum::<u64>()
    }

    /// Runs group `g` through `actor`: one batched forward, then per
    /// agent in order the masked action choice and the regularized
    /// outgoing message; with a `critic`, also
    /// [`critic_group`](Self::critic_group). Advances the group's
    /// recurrent state.
    pub fn run_group<R: Rng>(
        &mut self,
        g: usize,
        input: &StepInput<'_>,
        params: &Params,
        actor: &ActorNet,
        critic: Option<&CriticNet>,
        rng: &mut R,
    ) {
        // Group `g` holds agents `g..g + rows` (`g` is 0 when shared).
        let group = &mut self.groups[g];
        let rows = group.actor.h.rows();
        let local_dim = input.encoder.local_dim();
        let width = local_dim + self.incoming.cols();
        self.allocs += u64::from(group.x.ensure_shape(rows, width));
        for r in 0..rows {
            let (local, msg) = group.x.row_mut(r).split_at_mut(local_dim);
            input.encoder.encode_local_into(&input.obs[g + r], local);
            msg.copy_from_slice(self.incoming.row(g + r));
        }
        let (h, c) = (&group.actor.h, &group.actor.c);
        actor.infer(params, &group.x, h, c, &mut group.abuf);
        let logits = &group.abuf.out;
        self.allocs += u64::from(group.probs.ensure_shape(rows, logits.cols()));
        tsc_nn::softmax_rows_into(logits, &mut group.probs);
        group.actor.h.copy_from(&group.abuf.h);
        group.actor.c.copy_from(&group.abuf.c);
        for r in 0..rows {
            let a = g + r;
            let probs = &group.probs.row(r)[..input.phases[a]];
            (self.actions[a], self.log_probs[a]) =
                select(&mut self.masked, probs, input.selection, rng);
            if self.outgoing.cols() > 0 {
                let raw = group.abuf.message.row(r);
                regularize_into(raw, input.sigma, rng, self.outgoing.row_mut(a));
            }
        }
        if let Some(critic) = critic {
            self.critic_group(g, input.encoder, input.obs, params, critic);
        }
    }

    /// Runs group `g`'s critic on the joint observation `obs`: raw
    /// values land in [`values`](Self::values) and the group's critic
    /// state advances.
    pub fn critic_group(
        &mut self,
        g: usize,
        encoder: &ObsEncoder,
        obs: &[IntersectionObs],
        params: &Params,
        critic: &CriticNet,
    ) {
        let group = &mut self.groups[g];
        let rows = group.critic.h.rows();
        let dim = match self.critic_mode {
            CriticMode::Local => encoder.local_dim(),
            CriticMode::Centralized => encoder.critic_dim(),
        };
        self.allocs += u64::from(group.cx.ensure_shape(rows, dim));
        for r in 0..rows {
            let v = group.cx.row_mut(r);
            match self.critic_mode {
                CriticMode::Local => encoder.encode_local_into(&obs[g + r], v),
                CriticMode::Centralized => encoder.encode_critic_into(obs, g + r, v),
            }
        }
        let (h, c) = (&group.critic.h, &group.critic.c);
        critic.infer(params, &group.cx, h, c, &mut group.cbuf);
        for r in 0..rows {
            self.values[g + r] = group.cbuf.out.get(r, 0);
        }
        group.critic.h.copy_from(&group.cbuf.h);
        group.critic.c.copy_from(&group.cbuf.c);
    }
}

/// Masks a softmax row to the agent's valid phases (`probs` is already
/// cut to them), renormalizes (uniform when no mass is left), and picks
/// a phase. Returns `(action, log_prob)`.
fn select<R: Rng>(
    masked: &mut Vec<f32>,
    probs: &[f32],
    selection: Selection,
    rng: &mut R,
) -> (usize, f32) {
    masked.clear();
    masked.extend_from_slice(probs);
    let sum: f32 = masked.iter().sum();
    if sum <= 0.0 {
        masked.fill(1.0 / probs.len() as f32);
    } else {
        masked.iter_mut().for_each(|p| *p /= sum);
    }
    let dist = Categorical::new(masked);
    let action = match selection {
        Selection::Greedy => dist.argmax(),
        Selection::Sample => dist.sample(rng),
        Selection::Explore(epsilon) => {
            if rng.gen::<f32>() < epsilon {
                rng.gen_range(0..probs.len())
            } else {
                dist.sample(rng)
            }
        }
    };
    (action, dist.log_prob(action))
}
