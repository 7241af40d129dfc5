//! The coordinated Actor and centralized Critic networks (paper Fig. 5).
//!
//! Both networks share the same shape — a fully-connected trunk into an
//! LSTM — and diverge at the heads: the actor emits an action
//! distribution *and* a raw outgoing message (Eq. 8); the critic emits
//! a scalar value (Eq. 9). As in the paper, actor and critic are fully
//! separate networks (no shared trunk). Hidden LSTM states are carried
//! by the caller and stored in the rollout buffer (Algorithm 1
//! line 20), giving truncated backpropagation-through-time of length 1.

use rand::Rng;

use tsc_nn::{Graph, Init, Linear, LstmCell, LstmScratch, LstmState, Params, Tensor, Var};

/// Reusable activation buffers for the tape-free forward passes
/// [`ActorNet::infer`] and [`CriticNet::infer`]. All tensors are sized
/// on first use and then reused allocation-free;
/// [`alloc_events`](Self::alloc_events) counts (re)allocations so tests
/// can assert a zero-allocation steady state.
#[derive(Debug, Clone, Default)]
pub struct InferBuffers {
    fc: Tensor,
    scratch: LstmScratch,
    /// Next LSTM hidden output `h'` (`batch × lstm_hidden`).
    pub h: Tensor,
    /// Next LSTM cell state `c'` (`batch × lstm_hidden`).
    pub c: Tensor,
    /// Head output: policy logits (`batch × max_phases`) for the
    /// actor, state values (`batch × 1`) for the critic.
    pub out: Tensor,
    /// The actor's raw outgoing messages (`batch × bandwidth`; left
    /// `0 × 0` for the critic and when communication is ablated).
    pub message: Tensor,
    allocs: u64,
}

impl InferBuffers {
    /// Cumulative buffer (re)allocation count. Constant across steps
    /// once shapes have stabilized — the inference path's allocation
    /// probe.
    pub fn alloc_events(&self) -> u64 {
        self.allocs
    }

    /// The `FC → ReLU → LSTM → head` pass both networks share, in the
    /// tape path's exact operation order.
    fn trunk_and_head(
        &mut self,
        params: &Params,
        (fc, lstm, head): (&Linear, &LstmCell, &Linear),
        x: &Tensor,
        (h_prev, c_prev): (&Tensor, &Tensor),
    ) {
        self.allocs += fc.infer_into(params, x, &mut self.fc);
        for v in self.fc.data_mut() {
            *v = v.max(0.0);
        }
        let (scratch, h, c) = (&mut self.scratch, &mut self.h, &mut self.c);
        self.allocs += lstm.infer_into(params, &self.fc, h_prev, c_prev, scratch, h, c);
        self.allocs += head.infer_into(params, &self.h, &mut self.out);
    }
}

/// The coordinated actor: `FC → LSTM → {policy head, message head}`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ActorNet {
    fc: Linear,
    lstm: LstmCell,
    policy_head: Linear,
    message_head: Option<Linear>,
}

/// Output of one actor forward pass (graph nodes).
#[derive(Debug, Clone, Copy)]
pub struct ActorOut {
    /// `batch × max_phases` policy logits.
    pub logits: Var,
    /// `batch × bandwidth` raw outgoing messages (`None` when the
    /// communication module is ablated).
    pub message: Option<Var>,
    /// LSTM hidden output (graph node), for further heads if needed.
    pub h: Var,
}

impl ActorNet {
    /// Builds an actor for `obs_dim`-dimensional local observations,
    /// `bandwidth` incoming/outgoing messages and `max_phases` actions.
    pub fn new<R: Rng>(
        params: &mut Params,
        obs_dim: usize,
        bandwidth: usize,
        hidden: usize,
        lstm_hidden: usize,
        max_phases: usize,
        rng: &mut R,
    ) -> Self {
        let input_dim = obs_dim + bandwidth;
        let fc = Linear::new(
            params,
            "actor.fc",
            input_dim,
            hidden,
            Init::Orthogonal { gain: 2f32.sqrt() },
            rng,
        );
        let lstm = LstmCell::new(params, "actor.lstm", hidden, lstm_hidden, rng);
        let policy_head = Linear::new(
            params,
            "actor.pi",
            lstm_hidden,
            max_phases,
            Init::Orthogonal { gain: 0.01 },
            rng,
        );
        let message_head = (bandwidth > 0).then(|| {
            Linear::new(
                params,
                "actor.msg",
                lstm_hidden,
                bandwidth,
                Init::Orthogonal { gain: 0.5 },
                rng,
            )
        });
        ActorNet {
            fc,
            lstm,
            policy_head,
            message_head,
        }
    }

    /// Forward pass from an already-assembled input
    /// `[obs ⊕ incoming message]` (`batch × (obs_dim + bandwidth)`)
    /// and explicit previous LSTM state vars.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: Var,
        h_prev: Var,
        c_prev: Var,
    ) -> (ActorOut, Var) {
        let z = self.fc.forward(g, params, x);
        let z = g.relu(z);
        let (h, c) = self.lstm.forward(g, params, z, h_prev, c_prev);
        let logits = self.policy_head.forward(g, params, h);
        let message = self
            .message_head
            .as_ref()
            .map(|mh| mh.forward(g, params, h));
        (ActorOut { logits, message, h }, c)
    }

    /// Tape-free forward pass, bit-identical to
    /// [`forward`](Self::forward) on the same inputs: `x` is the
    /// assembled `batch × (obs_dim + bandwidth)` input, `h_prev` /
    /// `c_prev` the previous LSTM state, and all activations land in
    /// `buf` (logits in `out`, raw message, next `h` / `c`). Records no autograd
    /// tape and allocates nothing once `buf`'s shapes have stabilized,
    /// which is what makes the serving hot loop and rollout collection
    /// cheap.
    pub fn infer(
        &self,
        params: &Params,
        x: &Tensor,
        h_prev: &Tensor,
        c_prev: &Tensor,
        buf: &mut InferBuffers,
    ) {
        let layers = (&self.fc, &self.lstm, &self.policy_head);
        buf.trunk_and_head(params, layers, x, (h_prev, c_prev));
        if let Some(mh) = &self.message_head {
            buf.allocs += mh.infer_into(params, &buf.h, &mut buf.message);
        }
    }

    /// Convenience single-step forward from plain tensors: returns
    /// logits, raw message row-major data, and the next LSTM state.
    pub fn step(
        &self,
        g: &mut Graph,
        params: &Params,
        input: Tensor,
        state: &LstmState,
    ) -> (ActorOut, LstmState) {
        let x = g.input(input);
        let h_prev = g.input(state.h.clone());
        let c_prev = g.input(state.c.clone());
        let (out, c) = self.forward(g, params, x, h_prev, c_prev);
        let next = LstmState {
            h: g.value(out.h).clone(),
            c: g.value(c).clone(),
        };
        (out, next)
    }
}

/// The centralized critic: `FC → LSTM → value` (Eq. 9).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CriticNet {
    fc: Linear,
    lstm: LstmCell,
    value_head: Linear,
}

impl CriticNet {
    /// Builds a critic for `input_dim`-dimensional inputs (local or
    /// centralized, per [`CriticMode`](crate::config::CriticMode)).
    pub fn new<R: Rng>(
        params: &mut Params,
        input_dim: usize,
        hidden: usize,
        lstm_hidden: usize,
        rng: &mut R,
    ) -> Self {
        let fc = Linear::new(
            params,
            "critic.fc",
            input_dim,
            hidden,
            Init::Orthogonal { gain: 2f32.sqrt() },
            rng,
        );
        let lstm = LstmCell::new(params, "critic.lstm", hidden, lstm_hidden, rng);
        let value_head = Linear::new(
            params,
            "critic.v",
            lstm_hidden,
            1,
            Init::Orthogonal { gain: 1.0 },
            rng,
        );
        CriticNet {
            fc,
            lstm,
            value_head,
        }
    }

    /// Forward pass with explicit previous-state vars; returns the
    /// `batch × 1` value node and the new `(h, c)` nodes.
    pub fn forward(
        &self,
        g: &mut Graph,
        params: &Params,
        x: Var,
        h_prev: Var,
        c_prev: Var,
    ) -> (Var, Var, Var) {
        let z = self.fc.forward(g, params, x);
        let z = g.relu(z);
        let (h, c) = self.lstm.forward(g, params, z, h_prev, c_prev);
        let v = self.value_head.forward(g, params, h);
        (v, h, c)
    }

    /// Single-step forward from plain tensors.
    pub fn step(
        &self,
        g: &mut Graph,
        params: &Params,
        input: Tensor,
        state: &LstmState,
    ) -> (Var, LstmState) {
        let x = g.input(input);
        let h_prev = g.input(state.h.clone());
        let c_prev = g.input(state.c.clone());
        let (v, h, c) = self.forward(g, params, x, h_prev, c_prev);
        let next = LstmState {
            h: g.value(h).clone(),
            c: g.value(c).clone(),
        };
        (v, next)
    }

    /// Tape-free forward pass, bit-identical to
    /// [`forward`](Self::forward); see [`ActorNet::infer`].
    pub fn infer(
        &self,
        params: &Params,
        x: &Tensor,
        h_prev: &Tensor,
        c_prev: &Tensor,
        buf: &mut InferBuffers,
    ) {
        let layers = (&self.fc, &self.lstm, &self.value_head);
        buf.trunk_and_head(params, layers, x, (h_prev, c_prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn actor_emits_policy_and_message() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 20, 1, 32, 32, 4, &mut rng);
        let mut g = Graph::new();
        let state = LstmState::zeros(3, 32);
        let input = Tensor::zeros(3, 21);
        let (out, next) = actor.step(&mut g, &params, input, &state);
        assert_eq!(g.value(out.logits).shape(), (3, 4));
        assert_eq!(g.value(out.message.unwrap()).shape(), (3, 1));
        assert_eq!(next.h.shape(), (3, 32));
    }

    #[test]
    fn zero_bandwidth_actor_has_no_message_head() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 20, 0, 32, 32, 4, &mut rng);
        let mut g = Graph::new();
        let (out, _) = actor.step(
            &mut g,
            &params,
            Tensor::zeros(1, 20),
            &LstmState::zeros(1, 32),
        );
        assert!(out.message.is_none());
    }

    #[test]
    fn actor_policy_depends_on_incoming_message() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 4, 1, 16, 16, 4, &mut rng);
        let state = LstmState::zeros(1, 16);
        let run = |msg: f32| {
            let mut g = Graph::new();
            let mut input = Tensor::zeros(1, 5);
            input.set(0, 4, msg);
            let (out, _) = actor.step(&mut g, &params, input, &state);
            g.value(out.logits).clone()
        };
        assert_ne!(run(0.0), run(1.0), "message reaches the policy");
    }

    #[test]
    fn critic_value_is_scalar_per_row() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut params = Params::new();
        let critic = CriticNet::new(&mut params, 36, 32, 32, &mut rng);
        let mut g = Graph::new();
        let (v, next) = critic.step(
            &mut g,
            &params,
            Tensor::zeros(5, 36),
            &LstmState::zeros(5, 32),
        );
        assert_eq!(g.value(v).shape(), (5, 1));
        assert_eq!(next.c.shape(), (5, 32));
    }

    #[test]
    fn actor_infer_is_bit_identical_to_graph_step() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 8, 2, 16, 16, 4, &mut rng);
        let x = Tensor::randn(3, 10, 1.0, &mut rng);
        let state = LstmState {
            h: Tensor::randn(3, 16, 0.3, &mut rng),
            c: Tensor::randn(3, 16, 0.3, &mut rng),
        };
        let mut g = Graph::new();
        let (out, next) = actor.step(&mut g, &params, x.clone(), &state);
        let mut buf = InferBuffers::default();
        actor.infer(&params, &x, &state.h, &state.c, &mut buf);
        assert_eq!(&buf.out, g.value(out.logits));
        assert_eq!(&buf.message, g.value(out.message.unwrap()));
        assert_eq!(buf.h, next.h);
        assert_eq!(buf.c, next.c);
        // Steady state: repeating the same step allocates nothing.
        let after_first = buf.alloc_events();
        for _ in 0..10 {
            actor.infer(&params, &x, &state.h, &state.c, &mut buf);
        }
        assert_eq!(buf.alloc_events(), after_first);
    }

    #[test]
    fn critic_infer_is_bit_identical_to_graph_step() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut params = Params::new();
        let critic = CriticNet::new(&mut params, 12, 16, 16, &mut rng);
        let x = Tensor::randn(2, 12, 1.0, &mut rng);
        let state = LstmState {
            h: Tensor::randn(2, 16, 0.3, &mut rng),
            c: Tensor::randn(2, 16, 0.3, &mut rng),
        };
        let mut g = Graph::new();
        let (v, next) = critic.step(&mut g, &params, x.clone(), &state);
        let mut buf = InferBuffers::default();
        critic.infer(&params, &x, &state.h, &state.c, &mut buf);
        assert_eq!(&buf.out, g.value(v));
        assert_eq!(buf.h, next.h);
        assert_eq!(buf.c, next.c);
        let after_first = buf.alloc_events();
        critic.infer(&params, &x, &state.h, &state.c, &mut buf);
        assert_eq!(buf.alloc_events(), after_first);
    }

    /// Row `r` of `t` as a standalone `1 × cols` tensor.
    fn row(t: &Tensor, r: usize) -> Tensor {
        Tensor::row_from_slice(t.row(r))
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The property the batched policy step rests on: an `N`-row
    /// forward with distinct per-row inputs and states equals `N`
    /// separate 1-row forwards, bit for bit.
    #[test]
    fn batched_infer_equals_per_row_infer() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut params = Params::new();
        let actor = ActorNet::new(&mut params, 8, 2, 16, 12, 4, &mut rng);
        let critic = CriticNet::new(&mut params, 14, 16, 12, &mut rng);
        let n = 5;
        let state = |rng: &mut StdRng| LstmState {
            h: Tensor::randn(n, 12, 0.5, rng),
            c: Tensor::randn(n, 12, 0.5, rng),
        };
        let (ax, ast) = (Tensor::randn(n, 10, 1.0, &mut rng), state(&mut rng));
        let (cx, cst) = (Tensor::randn(n, 14, 1.0, &mut rng), state(&mut rng));
        let mut abatch = InferBuffers::default();
        actor.infer(&params, &ax, &ast.h, &ast.c, &mut abatch);
        let mut cbatch = InferBuffers::default();
        critic.infer(&params, &cx, &cst.h, &cst.c, &mut cbatch);
        let mut a1 = InferBuffers::default();
        let mut c1 = InferBuffers::default();
        for r in 0..n {
            actor.infer(
                &params,
                &row(&ax, r),
                &row(&ast.h, r),
                &row(&ast.c, r),
                &mut a1,
            );
            assert_eq!(
                bits(a1.out.data()),
                bits(abatch.out.row(r)),
                "actor logits row {r}"
            );
            assert_eq!(
                bits(a1.message.data()),
                bits(abatch.message.row(r)),
                "message row {r}"
            );
            assert_eq!(bits(a1.h.data()), bits(abatch.h.row(r)), "actor h row {r}");
            assert_eq!(bits(a1.c.data()), bits(abatch.c.row(r)), "actor c row {r}");
            critic.infer(
                &params,
                &row(&cx, r),
                &row(&cst.h, r),
                &row(&cst.c, r),
                &mut c1,
            );
            assert_eq!(
                bits(c1.out.data()),
                bits(cbatch.out.row(r)),
                "value row {r}"
            );
            assert_eq!(bits(c1.h.data()), bits(cbatch.h.row(r)), "critic h row {r}");
            assert_eq!(bits(c1.c.data()), bits(cbatch.c.row(r)), "critic c row {r}");
        }
    }

    #[test]
    fn actor_and_critic_have_separate_parameters() {
        // Paper §V-A: completely separate networks.
        let mut rng = StdRng::seed_from_u64(4);
        let mut actor_params = Params::new();
        let _actor = ActorNet::new(&mut actor_params, 20, 1, 32, 32, 4, &mut rng);
        let mut critic_params = Params::new();
        let _critic = CriticNet::new(&mut critic_params, 36, 32, 32, &mut rng);
        assert!(actor_params.num_scalars() > 0);
        assert!(critic_params.num_scalars() > 0);
        // Separate Params sets: updating one cannot touch the other.
        assert_ne!(
            actor_params.num_scalars(),
            0,
            "actor owns its own parameters"
        );
    }
}
