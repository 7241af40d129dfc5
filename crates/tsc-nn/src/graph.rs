//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Graph`] records every operation of one forward pass on a tape;
//! [`Graph::backward`] walks the tape in reverse, accumulating exact
//! gradients into the [`Params`] set. The op set
//! is exactly what PPO/A2C/DQN over MLP+LSTM networks need — nothing
//! more.
//!
//! # Examples
//!
//! ```
//! use tsc_nn::{Graph, Params, Tensor};
//!
//! let mut params = Params::new();
//! let w = params.add("w", Tensor::from_rows(&[&[2.0], &[3.0]]));
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_rows(&[&[1.0, 4.0]]));
//! let wv = g.param(&params, w);
//! let y = g.matmul(x, wv); // 1x1: 1*2 + 4*3 = 14
//! let loss = g.sum(y);
//! g.backward(loss, &mut params);
//! assert_eq!(g.value(y).get(0, 0), 14.0);
//! assert_eq!(params.grad(w).data(), &[1.0, 4.0]);
//! ```

use crate::params::{ParamId, Params};
use crate::tensor::Tensor;

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    Param(ParamId),
    MatMul(Var, Var),
    Add(Var, Var),
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    // The scalar shift has unit gradient, so backward never reads it;
    // it is kept for Debug output of the tape.
    AddScalar(Var, #[allow(dead_code)] f32),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    Exp(Var),
    Softmax(Var),
    LogSoftmax(Var),
    GatherCols(Var, Vec<usize>),
    Sum(Var),
    Mean(Var),
    Square(Var),
    Clamp(Var, f32, f32),
    Minimum(Var, Var),
    ConcatCols(Var, Var),
    SliceCols(Var, usize),
    Transpose(Var),
}

/// A single forward pass' computation tape.
#[derive(Debug, Default)]
pub struct Graph {
    values: Vec<Tensor>,
    ops: Vec<Op>,
}

impl Graph {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Graph::default()
    }

    fn push(&mut self, value: Tensor, op: Op) -> Var {
        self.values.push(value);
        self.ops.push(op);
        Var(self.values.len() - 1)
    }

    /// The computed value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.0]
    }

    /// Number of nodes on the tape.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A constant input (no gradient flows back out of it).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf)
    }

    /// A view of parameter `id`; gradients accumulate into `params` on
    /// [`backward`](Self::backward).
    pub fn param(&mut self, params: &Params, id: ParamId) -> Var {
        self.push(params.value(id).clone(), Op::Param(id))
    }

    /// Matrix product.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let v = self.values[a.0].matmul(&self.values[b.0]);
        self.push(v, Op::MatMul(a, b))
    }

    /// Element-wise sum of equal-shaped tensors.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let mut v = self.values[a.0].clone();
        v.add_assign(&self.values[b.0]);
        self.push(v, Op::Add(a, b))
    }

    /// Adds a `1 × m` row vector to every row of an `n × m` matrix.
    pub fn add_row(&mut self, a: Var, row: Var) -> Var {
        let (n, m) = self.values[a.0].shape();
        assert_eq!(self.values[row.0].shape(), (1, m), "row vector shape");
        let mut v = self.values[a.0].clone();
        for r in 0..n {
            for c in 0..m {
                let x = v.get(r, c) + self.values[row.0].get(0, c);
                v.set(r, c, x);
            }
        }
        self.push(v, Op::AddRow(a, row))
    }

    /// Element-wise difference `a - b`.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let b_t = self.values[b.0].clone();
        let v = Tensor::from_vec(
            b_t.rows(),
            b_t.cols(),
            self.values[a.0]
                .data()
                .iter()
                .zip(b_t.data())
                .map(|(x, y)| x - y)
                .collect(),
        );
        self.push(v, Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let v = Tensor::from_vec(
            self.values[a.0].rows(),
            self.values[a.0].cols(),
            self.values[a.0]
                .data()
                .iter()
                .zip(self.values[b.0].data())
                .map(|(x, y)| x * y)
                .collect(),
        );
        self.push(v, Op::Mul(a, b))
    }

    /// Scalar multiple.
    pub fn scale(&mut self, a: Var, s: f32) -> Var {
        let v = self.values[a.0].map(|x| x * s);
        self.push(v, Op::Scale(a, s))
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&mut self, a: Var, s: f32) -> Var {
        let v = self.values[a.0].map(|x| x + s);
        self.push(v, Op::AddScalar(a, s))
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(|x| 1.0 / (1.0 + (-x).exp()));
        self.push(v, Op::Sigmoid(a))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(f32::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(|x| x.max(0.0));
        self.push(v, Op::Relu(a))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(f32::exp);
        self.push(v, Op::Exp(a))
    }

    /// Row-wise softmax.
    pub fn softmax(&mut self, a: Var) -> Var {
        let v = softmax_rows(&self.values[a.0]);
        self.push(v, Op::Softmax(a))
    }

    /// Row-wise log-softmax (numerically stable).
    pub fn log_softmax(&mut self, a: Var) -> Var {
        let x = &self.values[a.0];
        let mut v = x.clone();
        for r in 0..x.rows() {
            let max = x.row(r).iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let logsum = x.row(r).iter().map(|&y| (y - max).exp()).sum::<f32>().ln() + max;
            for c in 0..x.cols() {
                v.set(r, c, x.get(r, c) - logsum);
            }
        }
        self.push(v, Op::LogSoftmax(a))
    }

    /// Picks one column per row: output `n × 1` with
    /// `out[r] = a[r, cols[r]]`.
    ///
    /// # Panics
    ///
    /// Panics if `cols.len()` differs from the row count or an index is
    /// out of range.
    pub fn gather_cols(&mut self, a: Var, cols: Vec<usize>) -> Var {
        let x = &self.values[a.0];
        assert_eq!(cols.len(), x.rows(), "one column index per row");
        let mut v = Tensor::zeros(x.rows(), 1);
        for (r, &c) in cols.iter().enumerate() {
            v.set(r, 0, x.get(r, c));
        }
        self.push(v, Op::GatherCols(a, cols))
    }

    /// Sum of all elements (`1 × 1`).
    pub fn sum(&mut self, a: Var) -> Var {
        let v = Tensor::from_vec(1, 1, vec![self.values[a.0].sum()]);
        self.push(v, Op::Sum(a))
    }

    /// Mean of all elements (`1 × 1`).
    pub fn mean(&mut self, a: Var) -> Var {
        let n = self.values[a.0].len() as f32;
        let v = Tensor::from_vec(1, 1, vec![self.values[a.0].sum() / n]);
        self.push(v, Op::Mean(a))
    }

    /// Element-wise square.
    pub fn square(&mut self, a: Var) -> Var {
        let v = self.values[a.0].map(|x| x * x);
        self.push(v, Op::Square(a))
    }

    /// Element-wise clamp into `[lo, hi]`; gradient passes only through
    /// the un-clipped region (as in PPO's clipped objective).
    pub fn clamp(&mut self, a: Var, lo: f32, hi: f32) -> Var {
        let v = self.values[a.0].map(|x| x.clamp(lo, hi));
        self.push(v, Op::Clamp(a, lo, hi))
    }

    /// Element-wise minimum; the gradient flows to the smaller operand
    /// (ties go to `a`).
    pub fn minimum(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(self.values[a.0].shape(), self.values[b.0].shape());
        let v = Tensor::from_vec(
            self.values[a.0].rows(),
            self.values[a.0].cols(),
            self.values[a.0]
                .data()
                .iter()
                .zip(self.values[b.0].data())
                .map(|(x, y)| x.min(*y))
                .collect(),
        );
        self.push(v, Op::Minimum(a, b))
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let x = &self.values[a.0];
        let y = &self.values[b.0];
        assert_eq!(x.rows(), y.rows(), "concat row mismatch");
        let mut v = Tensor::zeros(x.rows(), x.cols() + y.cols());
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                v.set(r, c, x.get(r, c));
            }
            for c in 0..y.cols() {
                v.set(r, x.cols() + c, y.get(r, c));
            }
        }
        self.push(v, Op::ConcatCols(a, b))
    }

    /// Columns `start..end` as a new tensor.
    pub fn slice_cols(&mut self, a: Var, start: usize, end: usize) -> Var {
        let x = &self.values[a.0];
        assert!(start < end && end <= x.cols(), "slice bounds");
        let mut v = Tensor::zeros(x.rows(), end - start);
        for r in 0..x.rows() {
            for c in start..end {
                v.set(r, c - start, x.get(r, c));
            }
        }
        self.push(v, Op::SliceCols(a, start))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, a: Var) -> Var {
        let v = self.values[a.0].transpose();
        self.push(v, Op::Transpose(a))
    }

    /// Runs reverse-mode differentiation from scalar `loss`, adding
    /// parameter gradients into `params`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: Var, params: &mut Params) {
        assert_eq!(self.values[loss.0].shape(), (1, 1), "loss must be scalar");
        let mut grads: Vec<Tensor> = self
            .values
            .iter()
            .map(|v| Tensor::zeros(v.rows(), v.cols()))
            .collect();
        grads[loss.0].set(0, 0, 1.0);
        for i in (0..self.ops.len()).rev() {
            if grads[i].data().iter().all(|&x| x == 0.0) {
                continue;
            }
            // Every consumer of node `i` sits later on the tape and has
            // been visited, so its gradient is complete and never read
            // again: move it out instead of copying it.
            let g = std::mem::take(&mut grads[i]);
            match &self.ops[i] {
                Op::Leaf => {}
                Op::Param(id) => params.accumulate_grad(*id, &g),
                Op::MatMul(a, b) => {
                    // An input's gradient is never read, so it is not
                    // formed: this skips the `G·Bᵀ` product for a batch
                    // of observations or recurrent state fed as input.
                    if !matches!(self.ops[a.0], Op::Leaf) {
                        let da = g.matmul_nt(&self.values[b.0]);
                        grads[a.0].add_assign(&da);
                    }
                    if !matches!(self.ops[b.0], Op::Leaf) {
                        let db = self.values[a.0].matmul_tn(&g);
                        grads[b.0].add_assign(&db);
                    }
                }
                Op::Add(a, b) => {
                    grads[a.0].add_assign(&g);
                    grads[b.0].add_assign(&g);
                }
                Op::AddRow(a, row) => {
                    grads[a.0].add_assign(&g);
                    let mut dr = Tensor::zeros(1, g.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            dr.set(0, c, dr.get(0, c) + g.get(r, c));
                        }
                    }
                    grads[row.0].add_assign(&dr);
                }
                Op::Sub(a, b) => {
                    grads[a.0].add_assign(&g);
                    let neg = g.map(|x| -x);
                    grads[b.0].add_assign(&neg);
                }
                Op::Mul(a, b) => {
                    let da = elementwise(&g, &self.values[b.0], |x, y| x * y);
                    let db = elementwise(&g, &self.values[a.0], |x, y| x * y);
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::Scale(a, s) => {
                    let da = g.map(|x| x * s);
                    grads[a.0].add_assign(&da);
                }
                Op::AddScalar(a, _) => grads[a.0].add_assign(&g),
                Op::Sigmoid(a) => {
                    let da = elementwise(&g, &self.values[i], |gi, y| gi * y * (1.0 - y));
                    grads[a.0].add_assign(&da);
                }
                Op::Tanh(a) => {
                    let da = elementwise(&g, &self.values[i], |gi, y| gi * (1.0 - y * y));
                    grads[a.0].add_assign(&da);
                }
                Op::Relu(a) => {
                    let da = elementwise(
                        &g,
                        &self.values[a.0],
                        |gi, x| {
                            if x > 0.0 {
                                gi
                            } else {
                                0.0
                            }
                        },
                    );
                    grads[a.0].add_assign(&da);
                }
                Op::Exp(a) => {
                    let da = elementwise(&g, &self.values[i], |gi, y| gi * y);
                    grads[a.0].add_assign(&da);
                }
                Op::Softmax(a) => {
                    let y = &self.values[i];
                    let mut da = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let dot: f32 = (0..y.cols()).map(|c| g.get(r, c) * y.get(r, c)).sum();
                        for c in 0..y.cols() {
                            da.set(r, c, y.get(r, c) * (g.get(r, c) - dot));
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::LogSoftmax(a) => {
                    let y = &self.values[i]; // log-probs
                    let mut da = Tensor::zeros(y.rows(), y.cols());
                    for r in 0..y.rows() {
                        let gsum: f32 = (0..y.cols()).map(|c| g.get(r, c)).sum();
                        for c in 0..y.cols() {
                            da.set(r, c, g.get(r, c) - y.get(r, c).exp() * gsum);
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::GatherCols(a, cols) => {
                    let mut da = Tensor::zeros(self.values[a.0].rows(), self.values[a.0].cols());
                    for (r, &c) in cols.iter().enumerate() {
                        da.set(r, c, g.get(r, 0));
                    }
                    grads[a.0].add_assign(&da);
                }
                Op::Sum(a) => {
                    let da = Tensor::full(
                        self.values[a.0].rows(),
                        self.values[a.0].cols(),
                        g.get(0, 0),
                    );
                    grads[a.0].add_assign(&da);
                }
                Op::Mean(a) => {
                    let n = self.values[a.0].len() as f32;
                    let da = Tensor::full(
                        self.values[a.0].rows(),
                        self.values[a.0].cols(),
                        g.get(0, 0) / n,
                    );
                    grads[a.0].add_assign(&da);
                }
                Op::Square(a) => {
                    let da = elementwise(&g, &self.values[a.0], |gi, x| gi * 2.0 * x);
                    grads[a.0].add_assign(&da);
                }
                Op::Clamp(a, lo, hi) => {
                    let da = elementwise(&g, &self.values[a.0], |gi, x| {
                        if x > *lo && x < *hi {
                            gi
                        } else {
                            0.0
                        }
                    });
                    grads[a.0].add_assign(&da);
                }
                Op::Minimum(a, b) => {
                    let xa = &self.values[a.0];
                    let xb = &self.values[b.0];
                    let mut da = Tensor::zeros(xa.rows(), xa.cols());
                    let mut db = Tensor::zeros(xa.rows(), xa.cols());
                    for r in 0..xa.rows() {
                        for c in 0..xa.cols() {
                            if xa.get(r, c) <= xb.get(r, c) {
                                da.set(r, c, g.get(r, c));
                            } else {
                                db.set(r, c, g.get(r, c));
                            }
                        }
                    }
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::ConcatCols(a, b) => {
                    let ca = self.values[a.0].cols();
                    let cb = self.values[b.0].cols();
                    let mut da = Tensor::zeros(g.rows(), ca);
                    let mut db = Tensor::zeros(g.rows(), cb);
                    for r in 0..g.rows() {
                        for c in 0..ca {
                            da.set(r, c, g.get(r, c));
                        }
                        for c in 0..cb {
                            db.set(r, c, g.get(r, ca + c));
                        }
                    }
                    grads[a.0].add_assign(&da);
                    grads[b.0].add_assign(&db);
                }
                Op::Transpose(a) => {
                    let da = g.transpose();
                    grads[a.0].add_assign(&da);
                }
                Op::SliceCols(a, start) => {
                    let mut da = Tensor::zeros(self.values[a.0].rows(), self.values[a.0].cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            da.set(r, start + c, g.get(r, c));
                        }
                    }
                    grads[a.0].add_assign(&da);
                }
            }
        }
    }
}

/// Row-wise numerically stable softmax on a plain tensor (also used by
/// inference-time action sampling without a tape).
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut v = x.clone();
    softmax_rows_into(x, &mut v);
    v
}

/// Row-wise softmax written into a pre-sized `out` (fully overwritten),
/// bit-identical to [`softmax_rows`]. Lets the tape-free serving hot
/// loop reuse one probability buffer across steps.
///
/// # Panics
///
/// Panics if `out`'s shape differs from `x`'s.
pub fn softmax_rows_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!(out.shape(), x.shape(), "softmax_rows_into out");
    for r in 0..x.rows() {
        let max = x.row(r).iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0;
        for c in 0..x.cols() {
            let e = (x.get(r, c) - max).exp();
            out.set(r, c, e);
            sum += e;
        }
        for c in 0..x.cols() {
            out.set(r, c, out.get(r, c) / sum);
        }
    }
}

fn elementwise(g: &Tensor, x: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    debug_assert_eq!(g.shape(), x.shape());
    Tensor::from_vec(
        g.rows(),
        g.cols(),
        g.data()
            .iter()
            .zip(x.data())
            .map(|(&gi, &xi)| f(gi, xi))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference check: for a scalar loss `f(params)`, compare
    /// the analytic gradient with `(f(p + eps) - f(p - eps)) / (2 eps)`.
    fn grad_check<F>(build: F, rows: usize, cols: usize, seed: u64)
    where
        F: Fn(&mut Graph, &Params, ParamId) -> Var,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = Params::new();
        let w = params.add("w", Tensor::randn(rows, cols, 0.5, &mut rng));
        // Analytic gradient.
        let mut g = Graph::new();
        let loss = build(&mut g, &params, w);
        params.zero_grad();
        g.backward(loss, &mut params);
        let analytic = params.grad(w).clone();
        // Numeric gradient.
        let eps = 1e-3f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = params.value(w).get(r, c);
                params.value_mut(w).set(r, c, orig + eps);
                let mut gp = Graph::new();
                let lp = build(&mut gp, &params, w);
                let fp = gp.value(lp).get(0, 0);
                params.value_mut(w).set(r, c, orig - eps);
                let mut gm = Graph::new();
                let lm = build(&mut gm, &params, w);
                let fm = gm.value(lm).get(0, 0);
                params.value_mut(w).set(r, c, orig);
                let numeric = (fp - fm) / (2.0 * eps);
                let a = analytic.get(r, c);
                assert!(
                    (a - numeric).abs() < 2e-2 * (1.0 + a.abs().max(numeric.abs())),
                    "grad mismatch at ({r},{c}): analytic {a}, numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn grad_check_matmul_sigmoid_sum() {
        grad_check(
            |g, p, w| {
                let x = g.input(Tensor::from_rows(&[&[0.3, -0.7, 1.1], &[0.9, 0.2, -0.4]]));
                let wv = g.param(p, w);
                let y = g.matmul(x, wv);
                let s = g.sigmoid(y);
                g.sum(s)
            },
            3,
            2,
            0,
        );
    }

    #[test]
    fn grad_check_tanh_mul_mean() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let t = g.tanh(wv);
                let sq = g.mul(t, t);
                g.mean(sq)
            },
            4,
            3,
            1,
        );
    }

    #[test]
    fn grad_check_softmax_gather() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let ls = g.log_softmax(wv);
                let picked = g.gather_cols(ls, vec![1, 0, 2]);
                let neg = g.scale(picked, -1.0);
                g.mean(neg)
            },
            3,
            4,
            2,
        );
    }

    #[test]
    fn grad_check_softmax_entropy() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let probs = g.softmax(wv);
                let logp = g.log_softmax(wv);
                let plogp = g.mul(probs, logp);
                let s = g.sum(plogp);
                g.scale(s, -1.0)
            },
            2,
            5,
            3,
        );
    }

    #[test]
    fn grad_check_clamp_minimum_ppo_shape() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let ratio = g.exp(wv);
                let adv = g.input(Tensor::from_rows(&[&[1.0, -0.5, 0.2], &[-1.2, 0.8, 0.1]]));
                let surr1 = g.mul(ratio, adv);
                let clipped = g.clamp(ratio, 0.8, 1.2);
                let surr2 = g.mul(clipped, adv);
                let m = g.minimum(surr1, surr2);
                let s = g.mean(m);
                g.scale(s, -1.0)
            },
            2,
            3,
            4,
        );
    }

    #[test]
    fn grad_check_concat_slice_relu() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w);
                let x = g.input(Tensor::from_rows(&[&[0.5, -0.3], &[0.1, 0.9]]));
                let cat = g.concat_cols(x, wv);
                let r = g.relu(cat);
                let sl = g.slice_cols(r, 1, 4);
                let sq = g.square(sl);
                g.sum(sq)
            },
            2,
            2,
            5,
        );
    }

    #[test]
    fn grad_check_add_row_bias() {
        grad_check(
            |g, p, w| {
                let x = g.input(Tensor::from_rows(&[
                    &[0.3, -0.7, 1.1],
                    &[0.9, 0.2, -0.4],
                    &[-0.2, 0.5, 0.6],
                ]));
                let b = g.param(p, w);
                let y = g.add_row(x, b);
                let t = g.tanh(y);
                g.sum(t)
            },
            1,
            3,
            6,
        );
    }

    #[test]
    fn grad_check_sub_square_value_loss() {
        grad_check(
            |g, p, w| {
                let v = g.param(p, w);
                let target = g.input(Tensor::from_rows(&[&[1.0], &[-2.0], &[0.5]]));
                let d = g.sub(v, target);
                let sq = g.square(d);
                g.mean(sq)
            },
            3,
            1,
            7,
        );
    }

    #[test]
    fn grad_check_transpose_attention_shape() {
        grad_check(
            |g, p, w| {
                let wv = g.param(p, w); // 2x3 "keys"
                let q = g.input(Tensor::from_rows(&[&[0.4, -0.9]]));
                let kt = g.transpose(wv); // 3x2 -> wait: w is 2x3, kt 3x2
                let scores = g.matmul(q, wv); // 1x3
                let sm = g.softmax(scores);
                let ctx = g.matmul(sm, kt); // 1x2

                g.sum(ctx)
            },
            2,
            3,
            8,
        );
    }

    #[test]
    fn softmax_rows_sums_to_one() {
        let x = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
    }

    #[test]
    fn unused_branches_get_zero_grad() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, 2.0));
        let u = params.add("unused", Tensor::full(1, 1, 3.0));
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let _uv = g.param(&params, u);
        let loss = g.sum(wv);
        g.backward(loss, &mut params);
        assert_eq!(params.grad(w).get(0, 0), 1.0);
        assert_eq!(params.grad(u).get(0, 0), 0.0);
    }

    #[test]
    fn grads_accumulate_across_backward_calls() {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(1, 1, 2.0));
        for _ in 0..3 {
            let mut g = Graph::new();
            let wv = g.param(&params, w);
            let loss = g.sum(wv);
            g.backward(loss, &mut params);
        }
        assert_eq!(params.grad(w).get(0, 0), 3.0);
    }
}
