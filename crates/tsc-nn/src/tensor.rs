//! A minimal dense 2-D tensor.
//!
//! All networks in this reproduction are small MLP/LSTM stacks, so a
//! row-major `Vec<f32>` matrix with a handful of BLAS-free kernels is
//! all the linear algebra required; matrix products go through
//! [`gemm`](crate::gemm).

use std::fmt;

use rand::Rng;

use crate::gemm;

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use tsc_nn::Tensor;
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.shape(), (2, 2));
/// assert_eq!(t.get(1, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `rows × cols` tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Tensor {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Builds from a row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape/data mismatch");
        Tensor { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged rows or zero rows.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty());
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A single-row tensor from a slice.
    pub fn row_from_slice(v: &[f32]) -> Self {
        Tensor::from_vec(1, v.len(), v.to_vec())
    }

    /// Standard-normal random tensor scaled by `std`.
    pub fn randn<R: Rng>(rows: usize, cols: usize, std: f32, rng: &mut R) -> Self {
        // Box–Muller; avoids a rand_distr dependency.
        let mut data = Vec::with_capacity(rows * cols);
        while data.len() < rows * cols {
            let u1: f32 = rng.gen::<f32>().max(1e-12);
            let u2: f32 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
        Tensor { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets element `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies `other`'s elements into `self` without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn copy_from(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "copy_from shapes");
        self.data.copy_from_slice(&other.data);
    }

    /// Ensures `self` is `rows × cols`, reallocating only on shape
    /// change. Returns `true` when a fresh allocation was required —
    /// this is the hook the inference path's allocation probes count
    /// (steady state: always `false`). Contents are unspecified after
    /// the call; callers are expected to overwrite every element.
    pub fn ensure_shape(&mut self, rows: usize, cols: usize) -> bool {
        if self.rows == rows && self.cols == cols {
            return false;
        }
        *self = Tensor::zeros(rows, cols);
        true
    }

    /// Matrix product `self @ other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols());
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self @ other` written into a pre-sized `out`
    /// (fully overwritten), skipping only the output allocation — what
    /// the tape-free inference path reuses across steps. Both run the
    /// same [`gemm`](crate::gemm) kernel, so results are bit-identical,
    /// and that kernel reproduces the zero-skipping i-k-j loop bit for
    /// bit (see the module's exactness notes).
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch or a mis-sized `out`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.cols, other.rows, "matmul inner dims");
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_into out");
        gemm::nn(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.cols,
        );
    }

    /// `selfᵀ @ other`, read in place (no transpose copy); bit-identical
    /// to `self.transpose().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub(crate) fn matmul_tn(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "matmul_tn inner dims");
        let mut out = Tensor::zeros(self.cols, other.cols);
        gemm::tn(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            self.rows,
            other.cols,
        );
        out
    }

    /// `self @ otherᵀ`, read in place (no transpose copy); bit-identical
    /// to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics if the column counts differ.
    pub(crate) fn matmul_nt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "matmul_nt inner dims");
        let mut out = Tensor::zeros(self.rows, other.rows);
        gemm::nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
        out
    }

    /// Transpose.
    pub fn transpose(&self) -> Tensor {
        Tensor::from_vec(
            self.cols,
            self.rows,
            gemm::transposed(&self.data, self.rows, self.cols),
        )
    }

    /// Element-wise in-place `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shapes");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scale.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Element-wise map to a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }

    /// Sets all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Tensor::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn randn_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::randn(100, 100, 1.0, &mut rng);
        let mean = t.sum() / t.len() as f32;
        let var = t.data().iter().map(|x| (x - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    #[should_panic(expected = "matmul inner dims")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn add_assign_and_scale() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        a.add_assign(&b);
        a.scale_assign(0.5);
        assert_eq!(a, Tensor::full(2, 2, 1.5));
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Tensor::zeros(1, 1).to_string().is_empty());
    }

    #[test]
    fn matmul_into_is_bit_identical_to_matmul() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::randn(5, 7, 1.0, &mut rng);
        let b = Tensor::randn(7, 4, 1.0, &mut rng);
        let fresh = a.matmul(&b);
        // Reused, dirty output buffer: must be fully overwritten.
        let mut out = Tensor::full(5, 4, f32::NAN);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, fresh);
    }

    #[test]
    fn ensure_shape_reallocates_only_on_change() {
        let mut t = Tensor::zeros(2, 3);
        assert!(!t.ensure_shape(2, 3));
        assert!(t.ensure_shape(4, 3));
        assert_eq!(t.shape(), (4, 3));
        assert!(!t.ensure_shape(4, 3));
    }

    #[test]
    fn copy_from_and_row_mut() {
        let src = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let mut dst = Tensor::zeros(2, 2);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.row_mut(1).copy_from_slice(&[9.0, 8.0]);
        assert_eq!(dst.row(1), &[9.0, 8.0]);
    }
}
