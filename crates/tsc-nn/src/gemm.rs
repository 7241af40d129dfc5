//! Exact matrix-multiply kernels: `A·B`, `Aᵀ·B` and `A·Bᵀ`.
//!
//! Every matrix product of the crate runs through this module: the
//! tape's forward matmul, its backward pass (which reads both transposed
//! products in place, with no transpose copy) and the tape-free
//! inference path used by rollouts, evaluation and serving.
//!
//! # Exactness
//!
//! The result is bit-identical to [`reference`], the zero-skipping
//! i-k-j loop the crate has always used, on any input:
//!
//! - Each output element is summed in ascending `k` order, starting
//!   from `+0.0`, with a separate multiply and add. Rust never contracts
//!   `acc += a * b` into a fused multiply-add, so both loops round every
//!   product and every sum the same way.
//! - The reference skips terms with `a == 0`; the tile adds them. For a
//!   finite `b`, `0·b` is `±0`, and `x + ±0 == x` for any `x ≠ 0`. The
//!   accumulator is never `−0`: it starts at `+0`, and a
//!   round-to-nearest sum is `−0` only when both addends are `−0`. So
//!   `+0 + ±0 == +0` too, and the extra term changes nothing.
//! - For an infinite or NaN `b`, `0·b` is NaN. The tile therefore runs
//!   only when the right operand is all finite; otherwise the reference
//!   loop runs (on explicitly transposed operands for `Aᵀ·B` and
//!   `A·Bᵀ`).
//!
//! Products with fewer rows than one tile (`MR`, 4 on every ISA) also
//! take the reference loop, which is faster there. Which path runs may depend on shape, on the
//! right operand's finiteness and on the host's instruction set, but
//! never changes the bits of the result. The one thing not pinned is
//! the sign and payload of a NaN output: Rust leaves those unspecified
//! for arithmetic (the compiler may commute an addition), so a NaN is
//! only guaranteed to stay a NaN.
//!
//! # ISA dispatch
//!
//! [`tiled`] is one generic, safe, register-tiled kernel: an `MR × NR`
//! accumulator block held in registers while `k` runs, then narrower
//! column blocks and single rows for the leftovers. It is instantiated
//! once per instruction set: portable (baseline x86-64 SSE2 or any other
//! target), AVX2 and AVX-512F, each through a `#[target_feature]`
//! wrapper so the compiler vectorises the block with that ISA's
//! registers. The widest ISA the CPU supports is picked at run time
//! ([`Isa::host`]); there is no option to choose one.

/// An instruction set the tiled kernel is compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    /// Baseline code for the build target (SSE2 on x86-64).
    Portable,
    /// 256-bit AVX2 vectors (x86-64 only).
    Avx2,
    /// 512-bit AVX-512F vectors (x86-64 only).
    Avx512,
}

impl Isa {
    /// Every instantiation, narrowest first.
    pub(crate) const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// Whether this CPU can run the path.
    pub(crate) fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest path this CPU supports.
    pub(crate) fn host() -> Isa {
        Isa::ALL
            .into_iter()
            .rev()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Portable)
    }
}

/// How the stored operands map onto `out = op(A)·op(B)`, where `out`
/// is `m × n` and the inner dimension is `k`. All storage is row-major.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Layout {
    /// `A·B`: `a` is `m × k`, `b` is `k × n`.
    Nn,
    /// `Aᵀ·B`: `a` is `k × m`, `b` is `k × n`.
    Tn,
    /// `A·Bᵀ`: `a` is `m × k`, `b` is `n × k`.
    Nt,
}

/// `out = A·B` on the host's widest path (`a`: `m × k`, `b`: `k × n`).
pub(crate) fn nn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul(Isa::host(), Layout::Nn, a, b, out, m, k, n);
}

/// `out = Aᵀ·B` on the host's widest path (`a`: `k × m`, `b`: `k × n`).
pub(crate) fn tn(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul(Isa::host(), Layout::Tn, a, b, out, m, k, n);
}

/// `out = A·Bᵀ` on the host's widest path (`a`: `m × k`, `b`: `n × k`).
pub(crate) fn nt(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    matmul(Isa::host(), Layout::Nt, a, b, out, m, k, n);
}

/// Writes the `m × n` product described by `layout` into `out` (fully
/// overwritten), using the tiled kernel compiled for `isa`.
///
/// # Panics
///
/// Panics if a slice length does not match the dimensions, or if `isa`
/// is not [available](Isa::available) on this CPU.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul(
    isa: Isa,
    layout: Layout,
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "gemm: left operand size");
    assert_eq!(b.len(), k * n, "gemm: right operand size");
    assert_eq!(out.len(), m * n, "gemm: output size");
    if out.is_empty() {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let p = Product {
        layout,
        a,
        b,
        m,
        k,
        n,
    };
    let done = match isa {
        Isa::Portable => portable(p, out),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if std::arch::is_x86_feature_detected!("avx2") => {
            // SAFETY: `avx2` only requires the AVX2 target feature, and
            // the guard on this arm just confirmed the CPU has it.
            unsafe { avx2(p, out) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if std::arch::is_x86_feature_detected!("avx512f") => {
            // SAFETY: `avx512` only requires the AVX-512F target
            // feature, and the guard on this arm just confirmed the CPU
            // has it.
            unsafe { avx512(p, out) }
        }
        _ => panic!("gemm: {isa:?} is not available on this CPU"),
    };
    if !done {
        match layout {
            Layout::Nn => reference(a, b, out, m, k, n),
            Layout::Tn => reference(&transposed(a, k, m), b, out, m, k, n),
            Layout::Nt => reference(a, &transposed(b, n, k), out, m, k, n),
        }
    }
}

/// The zero-skipping i-k-j loop `out = A·B` (`a`: `m × k`, `b`:
/// `k × n`): the exactness oracle of this module, and the path taken
/// when the right operand holds an infinity or a NaN.
pub(crate) fn reference(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let row_out = &mut out[i * n..(i + 1) * n];
            let row_b = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in row_out.iter_mut().zip(row_b) {
                *o += av * bv;
            }
        }
    }
}

/// The `cols × rows` transpose of a row-major `rows × cols` matrix.
pub(crate) fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0; x.len()];
    for r in 0..rows {
        for c in 0..cols {
            t[c * rows + r] = x[r * cols + c];
        }
    }
    t
}

fn portable(p: Product, out: &mut [f32]) -> bool {
    dense::<4, 8, 4>(p, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2(p: Product, out: &mut [f32]) -> bool {
    dense::<4, 16, 8>(p, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512(p: Product, out: &mut [f32]) -> bool {
    dense::<4, 64, 16>(p, out)
}

/// The widest column block of any instantiation; sizes the `A·Bᵀ`
/// packing buffer.
const MAX_NR: usize = 64;

/// Rows of `Bᵀ` packed at a time for `A·Bᵀ`. Between chunks the
/// accumulators round-trip through `out` as `f32`, which is exact.
const KC: usize = 64;

/// One product's operands and dimensions (see [`Layout`]).
#[derive(Clone, Copy)]
struct Product<'a> {
    layout: Layout,
    a: &'a [f32],
    b: &'a [f32],
    m: usize,
    k: usize,
    n: usize,
}

impl Product<'_> {
    /// Strides of the logical `m × k` left operand: element `(i, kk)`
    /// is `a[i * rs + kk * cs]`.
    #[inline(always)]
    fn a_strides(&self) -> (usize, usize) {
        match self.layout {
            Layout::Tn => (1, self.m),
            Layout::Nn | Layout::Nt => (self.k, 1),
        }
    }
}

/// Runs [`tiled`] if the right operand is all finite (the condition of
/// its exactness) and reports whether it ran. Products with fewer than
/// `MR` rows are left to the zero-skipping loop, which is faster there
/// than one-row tiles that add every zero term.
#[inline(always)]
fn dense<const MR: usize, const NR: usize, const NR2: usize>(p: Product, out: &mut [f32]) -> bool {
    if p.m < MR {
        return false;
    }
    // Finite iff the exponent bits are not all ones; a max-reduction
    // over the magnitude bits vectorises, unlike a short-circuiting scan.
    let finite =
        p.b.iter()
            .fold(0u32, |acc, x| acc.max(x.to_bits() & 0x7fff_ffff))
            < 0x7f80_0000;
    if finite {
        tiled::<MR, NR, NR2>(p, out);
    }
    finite
}

/// The tiled kernel. Only `A·Bᵀ` packs, into a buffer on the stack; the
/// other layouts skip zeroing it.
#[inline(always)]
fn tiled<const MR: usize, const NR: usize, const NR2: usize>(p: Product, out: &mut [f32]) {
    if p.layout == Layout::Nt {
        ladder::<MR, NR, NR2>(p, out, &mut [0.0; KC * MAX_NR]);
    } else {
        ladder::<MR, NR, NR2>(p, out, &mut []);
    }
}

/// Column blocks `NR` wide, then `NR2`, 4 and 1 wide for the leftover
/// columns, each swept by `MR`-row tiles and then single rows.
#[inline(always)]
fn ladder<const MR: usize, const NR: usize, const NR2: usize>(
    p: Product,
    out: &mut [f32],
    pack: &mut [f32],
) {
    let j0 = columns::<MR, NR>(p, out, pack, 0);
    let j0 = columns::<MR, NR2>(p, out, pack, j0);
    let j0 = columns::<MR, 4>(p, out, pack, j0);
    columns::<MR, 1>(p, out, pack, j0);
}

/// Fills as many `W`-wide column blocks as fit from column `j0` on and
/// returns the first column left over.
#[inline(always)]
fn columns<const MR: usize, const W: usize>(
    p: Product,
    out: &mut [f32],
    pack: &mut [f32],
    mut j0: usize,
) -> usize {
    while j0 + W <= p.n {
        match p.layout {
            // Row `kk` of the block is contiguous in `b`: read in place.
            Layout::Nn | Layout::Tn => rows::<MR, W>(p, &p.b[j0..], p.n, 0, p.k, out, j0),
            // Column `kk` of the block is strided in `b`: pack `KC` rows
            // of `Bᵀ` at a time.
            Layout::Nt => {
                let mut k0 = 0;
                while k0 < p.k {
                    let kc = KC.min(p.k - k0);
                    for c in 0..W {
                        let src = &p.b[(j0 + c) * p.k + k0..][..kc];
                        for (kk, &v) in src.iter().enumerate() {
                            pack[kk * W + c] = v;
                        }
                    }
                    rows::<MR, W>(p, pack, W, k0, kc, out, j0);
                    k0 += kc;
                }
            }
        }
        j0 += W;
    }
    j0
}

/// Sweeps one `W`-wide column block, whose rows `k0..k0 + kc` are
/// `panel[kk * ldp..][..W]`, over every row of the output.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn rows<const MR: usize, const W: usize>(
    p: Product,
    panel: &[f32],
    ldp: usize,
    k0: usize,
    kc: usize,
    out: &mut [f32],
    j0: usize,
) {
    let (rs, cs) = p.a_strides();
    let resume = k0 > 0;
    let mut i0 = 0;
    while i0 + MR <= p.m {
        let (a, o) = (&p.a[i0 * rs + k0 * cs..], &mut out[i0 * p.n + j0..]);
        tile::<MR, W>(a, rs, cs, panel, ldp, kc, o, p.n, resume);
        i0 += MR;
    }
    while i0 < p.m {
        let (a, o) = (&p.a[i0 * rs + k0 * cs..], &mut out[i0 * p.n + j0..]);
        tile::<1, W>(a, rs, cs, panel, ldp, kc, o, p.n, resume);
        i0 += 1;
    }
}

/// One `R × W` output tile: `out[r][c] (+)= Σ_kk a[r][kk] · panel[kk][c]`
/// for `kk` in ascending order, accumulated in registers. With `resume`
/// the sums continue from the values already in `out`; otherwise they
/// start at `+0.0`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    a: &[f32],
    rs: usize,
    cs: usize,
    panel: &[f32],
    ldp: usize,
    kc: usize,
    out: &mut [f32],
    ldo: usize,
    resume: bool,
) {
    let mut acc = [[0.0f32; W]; R];
    if resume {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            acc_r.copy_from_slice(&out[r * ldo..][..W]);
        }
    }
    for kk in 0..kc {
        let bk: &[f32; W] = panel[kk * ldp..][..W]
            .try_into()
            .expect("a slice of W elements");
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let av = a[r * rs + kk * cs];
            for (o, &bv) in acc_r.iter_mut().zip(bk) {
                *o += av * bv;
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate() {
        out[r * ldo..][..W].copy_from_slice(acc_r);
    }
}
