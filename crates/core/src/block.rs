//! Multi-RHS (block) spinor fields and their column-wise BLAS.
//!
//! The paper's propagator campaign is thousands of CG solves against the
//! *same* gauge configuration (many sources × 12 spin-color components).
//! A [`BlockSpinor`] interleaves N right-hand-sides RHS-innermost,
//!
//! ```text
//!   data[site * nrhs + j]          (4D operators)
//!   data[(s*V + x) * nrhs + j]     (5D Möbius, s-major like Vec<Spinor>)
//! ```
//!
//! so one gauge-link load from site memory feeds all N columns of the
//! blocked dslash — the link-traffic amortization the batched solvers are
//! built on.
//!
//! **Bit-exactness contract.** Every column-wise operation here reproduces
//! the exact floating-point result of the corresponding [`crate::blas`]
//! call on a contiguous copy of that column:
//!
//! - elementwise updates (`axpy_col`, `xpby_col`, …) apply the same scalar
//!   arithmetic per element, which is order-independent;
//! - reductions (`norm_sqr_col`, `dot_cols`, …) reuse `blas::grain_for` for
//!   the chunk shape and fold chunks in index order, so the accumulation
//!   tree has the same shape as `blas::norm_sqr`/`blas::dot` on the packed
//!   column regardless of the interleaved storage or the pool width.
//!
//! The solver-facing functions take interleaved slices plus `nrhs`, so the
//! CG core can borrow a caller's plain vector as a one-column block, and
//! dispatch on that stride: a one-column block *is* the packed column, so
//! `nrhs == 1` runs the contiguous `blas` kernels (with their SIMD twins)
//! and wider blocks run the strided loops — the same bits either way.
//!
//! `tests/block_solver.rs` enforces this contract end-to-end: `cg_block`
//! at any block size is bit-identical to N sequential `cg` solves.

use crate::blas;
use crate::complex::C64;
use crate::real::Real;
use crate::spinor::Spinor;

/// A field of `len` lattice (or 5D) sites × `nrhs` right-hand-sides,
/// stored RHS-innermost.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockSpinor<R> {
    len: usize,
    nrhs: usize,
    data: Vec<Spinor<R>>,
}

impl<R: Real> BlockSpinor<R> {
    /// All-zero block of `len` sites × `nrhs` columns.
    pub fn zeros(len: usize, nrhs: usize) -> Self {
        assert!(nrhs > 0, "a block needs at least one column");
        Self {
            len,
            nrhs,
            data: vec![Spinor::zero(); len * nrhs],
        }
    }

    /// Interleave `cols` (each a length-`len` spinor vector) into a block.
    pub fn from_columns(cols: &[Vec<Spinor<R>>]) -> Self {
        assert!(!cols.is_empty(), "a block needs at least one column");
        let len = cols[0].len();
        let nrhs = cols.len();
        let mut data = vec![Spinor::zero(); len * nrhs];
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), len, "ragged block columns");
            for (i, s) in c.iter().enumerate() {
                data[i * nrhs + j] = *s;
            }
        }
        Self { len, nrhs, data }
    }

    /// Number of sites per column.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the block holds no sites.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of right-hand-side columns.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }

    /// The interleaved storage, RHS-innermost.
    pub fn data(&self) -> &[Spinor<R>] {
        &self.data
    }

    /// Mutable interleaved storage, RHS-innermost.
    pub fn data_mut(&mut self) -> &mut [Spinor<R>] {
        &mut self.data
    }

    /// Extract column `j` into a contiguous vector.
    pub fn col(&self, j: usize) -> Vec<Spinor<R>> {
        assert!(j < self.nrhs);
        (0..self.len)
            .map(|i| self.data[i * self.nrhs + j])
            .collect()
    }
}

/// Chunked elementwise update of one column, `y[:,j] = f(y[:,j], x[:,j])`.
///
/// Chunks are aligned to whole site-rows (`grain_for(len) * nrhs`
/// elements), mirroring `blas::update2`; per-element arithmetic is
/// order-independent, so the result is bit-identical to the packed-column
/// update at any pool width.
fn update_col2<R: Real, F>(x: &[Spinor<R>], y: &mut [Spinor<R>], nrhs: usize, j: usize, f: F)
where
    F: Fn(&mut Spinor<R>, &Spinor<R>) + Sync + Send,
{
    assert_eq!(x.len(), y.len());
    assert!(j < nrhs);
    let grain = blas::grain_for(x.len() / nrhs) * nrhs;
    rayon::for_each_chunk_mut(y, grain, |base, chunk| {
        let mut i = base + j;
        let end = base + chunk.len();
        while i < end {
            f(&mut chunk[i - base], &x[i]);
            i += nrhs;
        }
    });
}

/// `y[:,j] += a * x[:,j]` with real `a`.
pub fn axpy_col<R: Real>(a: f64, x: &[Spinor<R>], y: &mut [Spinor<R>], nrhs: usize, j: usize) {
    if nrhs == 1 {
        return blas::axpy(a, x, y);
    }
    let a = R::from_f64(a);
    update_col2(x, y, nrhs, j, |yi, xi| *yi += xi.scale(a));
}

/// `y[:,j] = x[:,j] + b * y[:,j]` (the CG search-direction update).
pub fn xpby_col<R: Real>(x: &[Spinor<R>], b: f64, y: &mut [Spinor<R>], nrhs: usize, j: usize) {
    if nrhs == 1 {
        return blas::xpby(x, b, y);
    }
    let b = R::from_f64(b);
    update_col2(x, y, nrhs, j, |yi, xi| *yi = *xi + yi.scale(b));
}

/// Zero column `j`.
pub fn zero_col<R: Real>(y: &mut [Spinor<R>], nrhs: usize, j: usize) {
    assert!(j < nrhs);
    let mut i = j;
    while i < y.len() {
        y[i] = Spinor::zero();
        i += nrhs;
    }
}

/// `‖x[:,j]‖²` accumulated in `f64` — same chunk shape and fold order as
/// `blas::norm_sqr` on the packed column.
pub fn norm_sqr_col<R: Real>(x: &[Spinor<R>], nrhs: usize, j: usize) -> f64 {
    if nrhs == 1 {
        return blas::norm_sqr(x);
    }
    assert!(j < nrhs);
    let len = x.len() / nrhs;
    rayon::reduce_chunks(
        len,
        blas::grain_for(len),
        || 0.0f64,
        |acc, r| r.fold(acc, |a, i| a + x[i * nrhs + j].norm_sqr().to_f64()),
        |a, b| a + b,
    )
}

/// `⟨x[:,j], y[:,j]⟩` accumulated in `f64` — same chunk shape and fold
/// order as `blas::dot` on the packed columns.
pub fn dot_cols<R: Real>(x: &[Spinor<R>], y: &[Spinor<R>], nrhs: usize, j: usize) -> C64 {
    if nrhs == 1 {
        return blas::dot(x, y);
    }
    assert_eq!(x.len(), y.len());
    assert!(j < nrhs);
    let len = x.len() / nrhs;
    let (re, im) = rayon::reduce_chunks(
        len,
        blas::grain_for(len),
        || (0.0f64, 0.0f64),
        |acc, r| {
            r.fold(acc, |(re, im), i| {
                let d = x[i * nrhs + j].dot(&y[i * nrhs + j]).to_c64();
                (re + d.re, im + d.im)
            })
        },
        |a, b| (a.0 + b.0, a.1 + b.1),
    );
    C64::new(re, im)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FermionField;

    fn cols(seed: u64, n: usize, nrhs: usize) -> Vec<Vec<Spinor<f64>>> {
        (0..nrhs)
            .map(|j| FermionField::<f64>::gaussian(n, seed + j as u64).data)
            .collect()
    }

    #[test]
    fn roundtrip_columns() {
        let cs = cols(1, 37, 3);
        let b = BlockSpinor::from_columns(&cs);
        assert_eq!(b.len(), 37);
        assert_eq!(b.nrhs(), 3);
        for (j, c) in cs.iter().enumerate() {
            assert_eq!(&b.col(j), c);
        }
    }

    #[test]
    fn reductions_bit_match_packed_blas() {
        // Above the parallel threshold so the chunked tree is exercised.
        let n = (1 << 12) + 57;
        let cs = cols(2, n, 4);
        let b = BlockSpinor::from_columns(&cs);
        for (j, c) in cs.iter().enumerate() {
            assert_eq!(norm_sqr_col(b.data(), 4, j), blas::norm_sqr(c));
            assert_eq!(dot_cols(b.data(), b.data(), 4, j), blas::dot(c, c));
        }
    }

    #[test]
    fn updates_bit_match_packed_blas() {
        let n = (1 << 12) + 19;
        let xs = cols(3, n, 3);
        let ys = cols(4, n, 3);
        let xb = BlockSpinor::from_columns(&xs);
        let mut yb = BlockSpinor::from_columns(&ys);
        for j in 0..3 {
            let mut yref = ys[j].clone();
            blas::axpy(0.7, &xs[j], &mut yref);
            blas::xpby(&xs[j], -1.25, &mut yref);
            axpy_col(0.7, xb.data(), yb.data_mut(), 3, j);
            xpby_col(xb.data(), -1.25, yb.data_mut(), 3, j);
            assert_eq!(yb.col(j), yref);
        }
        // Untouched interleaving: columns do not bleed into each other.
        let mut yb2 = BlockSpinor::from_columns(&ys);
        axpy_col(2.0, xb.data(), yb2.data_mut(), 3, 1);
        assert_eq!(yb2.col(0), ys[0]);
        assert_eq!(yb2.col(2), ys[2]);
    }

    #[test]
    fn zero_col_clears_only_its_column() {
        let ys = cols(5, 301, 2);
        let mut yb = BlockSpinor::from_columns(&ys);
        zero_col(yb.data_mut(), 2, 1);
        assert_eq!(norm_sqr_col(yb.data(), 2, 1), 0.0);
        assert_eq!(yb.col(0), ys[0]);
    }
}
