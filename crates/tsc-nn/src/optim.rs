//! Gradient-descent optimizers.

use crate::params::Params;
use crate::tensor::Tensor;

/// Adam optimizer state over one [`Params`] set.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer for `params` with learning rate `lr`
    /// and standard betas (0.9, 0.999).
    pub fn new(params: &Params, lr: f32) -> Self {
        let m = params
            .ids()
            .map(|id| {
                let t = params.value(id);
                Tensor::zeros(t.rows(), t.cols())
            })
            .collect::<Vec<_>>();
        let v = m.clone();
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m,
            v,
        }
    }

    /// Rebuilds an optimizer from persisted state (see
    /// [`load_adam`](crate::io::load_adam)). The moment vectors `m` and
    /// `v` must be pairwise shape-identical; `t` is the number of
    /// [`step`](Self::step) calls already applied, so a restored
    /// optimizer continues bias correction exactly where the saved one
    /// stopped.
    ///
    /// # Errors
    ///
    /// Returns a message when `m` and `v` disagree in length or shape.
    pub fn from_state(
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        t: u64,
        m: Vec<Tensor>,
        v: Vec<Tensor>,
    ) -> Result<Self, String> {
        if m.len() != v.len() {
            return Err(format!(
                "moment count mismatch: {} first moments vs {} second moments",
                m.len(),
                v.len()
            ));
        }
        for (i, (mi, vi)) in m.iter().zip(&v).enumerate() {
            if mi.shape() != vi.shape() {
                return Err(format!(
                    "moment {i} shape mismatch: m is {:?}, v is {:?}",
                    mi.shape(),
                    vi.shape()
                ));
            }
        }
        Ok(Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        })
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Updates the learning rate (for schedules/annealing).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// The `(β₁, β₂)` decay rates.
    pub fn betas(&self) -> (f32, f32) {
        (self.beta1, self.beta2)
    }

    /// The denominator stabilizer ε.
    pub fn epsilon(&self) -> f32 {
        self.eps
    }

    /// Number of update steps applied so far. Together with
    /// [`moments`](Self::moments) this is the full optimizer state:
    /// bias correction depends on `t`, so faithful checkpoint resume is
    /// impossible without persisting it.
    pub fn timestep(&self) -> u64 {
        self.t
    }

    /// The first (`m`) and second (`v`) moment estimates, in parameter
    /// registration order.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Whether this optimizer's moment tensors match `params` tensor
    /// for tensor (count and shapes) — the precondition of
    /// [`step`](Self::step).
    pub fn matches(&self, params: &Params) -> bool {
        self.m.len() == params.len()
            && params
                .ids()
                .all(|id| self.m[id.index()].shape() == params.value(id).shape())
    }

    /// Applies one update from the gradients accumulated in `params`,
    /// then zeroes them.
    ///
    /// # Panics
    ///
    /// Panics if `params` gained tensors since construction.
    pub fn step(&mut self, params: &mut Params) {
        assert_eq!(self.m.len(), params.len(), "param set changed size");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for id in params.ids() {
            let i = id.index();
            let (value, grad) = params.value_mut_and_grad(id);
            let m = &mut self.m[i];
            for (mi, gi) in m.data_mut().iter_mut().zip(grad.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
            }
            let v = &mut self.v[i];
            for (vi, gi) in v.data_mut().iter_mut().zip(grad.data()) {
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            for ((wi, mi), vi) in value
                .data_mut()
                .iter_mut()
                .zip(self.m[i].data())
                .zip(self.v[i].data())
            {
                let mhat = mi / b1t;
                let vhat = vi / b2t;
                *wi -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
        params.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Adam should minimize a simple quadratic `(w - 3)^2`.
    #[test]
    fn adam_converges_on_quadratic() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, -5.0));
        let mut opt = Adam::new(&params, 0.1);
        for _ in 0..500 {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let target = g.input(Tensor::full(1, 1, 3.0));
            let d = g.sub(wv, target);
            let sq = g.square(d);
            let loss = g.sum(sq);
            g.backward(loss, &mut params);
            opt.step(&mut params);
        }
        let final_w = params.value(w).get(0, 0);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, 1.0));
        let mut opt = Adam::new(&params, 0.01);
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let loss = g.sum(wv);
        g.backward(loss, &mut params);
        assert!(params.grad_norm() > 0.0);
        opt.step(&mut params);
        assert_eq!(params.grad_norm(), 0.0);
    }

    #[test]
    fn lr_schedule_is_settable() {
        let params = Params::new();
        let mut opt = Adam::new(&params, 0.01);
        opt.set_lr(0.001);
        assert_eq!(opt.lr(), 0.001);
    }
}
