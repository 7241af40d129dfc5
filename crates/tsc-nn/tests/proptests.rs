//! Property-based tests for tensor algebra and autograd invariants.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tsc_nn::{orthogonal, softmax_rows, Graph, Params, Tensor};

// The kernel module is compiled into this test crate as well, so the
// properties below can pick each instruction-set path through its
// crate-private `Isa` parameter.
#[allow(dead_code)]
#[path = "../src/gemm.rs"]
mod gemm;

use gemm::{Isa, Layout};

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(rows, cols, data))
}

/// The bit pattern of `x`, with every NaN mapped to one canonical NaN.
fn bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// A `len`-element operand: about half zeros (of either sign), the rest
/// normal values, plus — when `hostile` — NaN and ±inf entries.
fn gemm_operand(rng: &mut StdRng, len: usize, hostile: bool) -> Vec<f32> {
    (0..len)
        .map(|_| match rng.gen_range(0u32..100) {
            0..=44 => 0.0,
            45..=49 => -0.0,
            50..=52 if hostile => f32::NAN,
            53..=54 if hostile => f32::INFINITY,
            55..=56 if hostile => f32::NEG_INFINITY,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (A B) C == A (B C) within float tolerance.
    #[test]
    fn matmul_is_associative(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(2, 5),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// (A B)^T == B^T A^T.
    #[test]
    fn transpose_reverses_products(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
    ) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert_eq!(lhs, rhs);
    }

    /// Softmax rows are probability vectors, invariant to constant
    /// shifts of the logits.
    #[test]
    fn softmax_is_shift_invariant_probability(
        logits in small_matrix(2, 5),
        shift in -10.0f32..10.0,
    ) {
        let s1 = softmax_rows(&logits);
        let shifted = logits.map(|x| x + shift);
        let s2 = softmax_rows(&shifted);
        for r in 0..2 {
            let sum: f32 = s1.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5);
            for c in 0..5 {
                prop_assert!(s1.get(r, c) >= 0.0);
                prop_assert!((s1.get(r, c) - s2.get(r, c)).abs() < 1e-4);
            }
        }
    }

    /// Orthogonal init yields orthonormal columns for any tall shape
    /// and seed.
    #[test]
    fn orthogonal_columns_are_orthonormal(
        seed in 0u64..500,
        extra_rows in 0usize..6,
        cols in 1usize..5,
    ) {
        let rows = cols + extra_rows;
        let mut rng = StdRng::seed_from_u64(seed);
        let t = orthogonal(rows, cols, 1.0, &mut rng);
        for c1 in 0..cols {
            for c2 in 0..cols {
                let dot: f32 = (0..rows).map(|r| t.get(r, c1) * t.get(r, c2)).sum();
                let expect = if c1 == c2 { 1.0 } else { 0.0 };
                prop_assert!((dot - expect).abs() < 1e-3);
            }
        }
    }

    /// Gradient of sum(x ⊙ w) wrt w is exactly x, for any values —
    /// a closed-form autograd check.
    #[test]
    fn autograd_mul_sum_gradient_is_exact(x in small_matrix(2, 3)) {
        let mut params = Params::new();
        let w = params.add("w", Tensor::full(2, 3, 0.5));
        let mut g = Graph::new();
        let xv = g.input(x.clone());
        let wv = g.param(&params, w);
        let prod = g.mul(xv, wv);
        let loss = g.sum(prod);
        g.backward(loss, &mut params);
        prop_assert_eq!(params.grad(w).clone(), x);
    }

    /// The gradient of mean((w - t)^2) at w == t is zero everywhere.
    #[test]
    fn autograd_mse_gradient_vanishes_at_optimum(t in small_matrix(3, 2)) {
        let mut params = Params::new();
        let w = params.add("w", t.clone());
        let mut g = Graph::new();
        let wv = g.param(&params, w);
        let tv = g.input(t);
        let d = g.sub(wv, tv);
        let sq = g.square(d);
        let loss = g.mean(sq);
        g.backward(loss, &mut params);
        prop_assert!(params.grad(w).norm() < 1e-7);
    }
}

proptest! {
    // Each case multiplies up to 300 × 300 × 300 on every path; the
    // unoptimised debug build runs fewer of them.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 16 } else { 128 }))]

    /// Every instruction-set path of the kernel, for each of `A·B`,
    /// `Aᵀ·B` and `A·Bᵀ`, reproduces the zero-skipping reference loop
    /// (run on explicitly transposed operands) bit for bit: for any
    /// shape, including ones that are not multiples of a tile, with a
    /// left operand full of ±0, NaN and ±inf, and a right operand that
    /// is either all finite (the tiled path) or not (the fallback).
    /// A NaN output must be NaN in both; its sign and payload are not
    /// compared, since Rust leaves those unspecified for arithmetic.
    #[test]
    fn gemm_is_bit_identical_to_reference_loop(
        (m, k, n) in (1usize..301, 1usize..301, 1usize..301),
        finite_b in prop_oneof![1 => Just(true), 1 => Just(false)],
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = gemm_operand(&mut rng, m * k, true);
        let b = gemm_operand(&mut rng, k * n, !finite_b);
        let mut expect = vec![0.0; m * n];
        gemm::reference(&a, &b, &mut expect, m, k, n);
        let expect: Vec<u32> = expect.iter().map(|&x| bits(x)).collect();
        // The same product, stored the way each layout reads it.
        let a_t = gemm::transposed(&a, m, k);
        let b_t = gemm::transposed(&b, k, n);
        let cases = [(Layout::Nn, &a, &b), (Layout::Tn, &a_t, &b), (Layout::Nt, &a, &b_t)];
        for isa in Isa::ALL.into_iter().filter(|isa| isa.available()) {
            for (layout, a, b) in cases {
                let mut out = vec![f32::NAN; m * n];
                gemm::matmul(isa, layout, a, b, &mut out, m, k, n);
                let got: Vec<u32> = out.iter().map(|&x| bits(x)).collect();
                prop_assert!(
                    got == expect,
                    "{isa:?} {layout:?} m={m} k={k} n={n} finite_b={finite_b}: first mismatch at {:?}",
                    got.iter().zip(&expect).position(|(g, e)| g != e).map(|p| (p, got[p], expect[p]))
                );
            }
        }
    }
}

/// A weight entry of `inf` meets a zero in the input on the forward
/// pass and a zero in the upstream gradient on the backward pass. The
/// zero-skipping loop never forms `0·inf`, so the output and both
/// gradients stay finite; forward and backward must take the same
/// fallback rather than the tiled path, which would produce NaN. The
/// batch has 4 rows, enough for the tiled path to be eligible.
#[test]
fn matmul_through_inf_weight_skips_zero_terms() {
    let mut params = Params::new();
    let w = params.add(
        "w",
        Tensor::from_rows(&[
            &[f32::INFINITY, 1.0],
            &[2.0, 3.0],
            &[0.5, -1.0],
            &[1.0, 2.0],
        ]),
    );
    let u = params.add(
        "u",
        Tensor::from_rows(&[
            &[0.0, 1.0, 2.0, -1.0],
            &[0.0, -2.0, 0.5, 3.0],
            &[0.0, 0.0, 1.0, 1.0],
            &[0.0, 4.0, -1.0, 2.0],
        ]),
    );
    let mut g = Graph::new();
    let uv = g.param(&params, u);
    let wv = g.param(&params, w);
    let y = g.matmul(uv, wv);
    // Only column 1 of y reaches the loss, so every row of dL/dy is [0, 1].
    let y1 = g.slice_cols(y, 1, 2);
    let loss = g.sum(y1);
    g.backward(loss, &mut params);
    // Column 0 skips the 0·inf term of every row.
    assert_eq!(
        g.value(y).data(),
        &[2.0, -1.0, -0.75, -0.5, 1.5, 1.0, 9.5, 17.0]
    );
    // dW = uᵀ·dL/dy: column 1 holds the column sums of u.
    assert_eq!(
        params.grad(w).data(),
        &[0.0, 0.0, 0.0, 3.0, 0.0, 2.5, 0.0, 5.0]
    );
    // du = dL/dy·Wᵀ: every row is column 1 of W; the 0·inf term is
    // skipped.
    let du = params.grad(u);
    for r in 0..4 {
        assert_eq!(du.row(r), &[1.0, 3.0, -1.0, 2.0]);
    }
}
