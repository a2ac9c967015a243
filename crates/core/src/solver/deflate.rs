//! Low-mode deflation subsystem: a reusable subspace of Lanczos eigenpairs
//! applied to single and batched solves.
//!
//! A [`Deflation`] wraps the low modes of `D†D` computed by
//! [`lanczos`](super::lanczos) and turns them into initial guesses
//! (`x₀ = V Λ⁻¹ V† b`) and projectors (`P = V V†`). The guess removes most
//! of each source's slow low-mode content before CG ever iterates, which is
//! where the iteration-count savings of the `repro deflation` experiment
//! come from; combined with [`cg_block`](super::cg_block) the remaining
//! iterations also share gauge-link traffic across right-hand-sides.
//!
//! Column-wise guesses use the [`crate::block`] BLAS, so a deflated block
//! solve is bit-identical to deflating and solving each column
//! sequentially (`tests/deflation_properties.rs` and
//! `tests/block_solver.rs` enforce this).

use super::cg::{cg_block, FallibleOp};
use super::eig::{lanczos, EigenPair, LanczosParams};
use super::{CgParams, SolveStats};
use crate::blas;
use crate::block::{self, BlockSpinor};
use crate::complex::C64;
use crate::dirac::LinearOp;
use crate::spinor::Spinor;

/// A low-mode deflation subspace: eigenpairs of a Hermitian
/// positive-definite operator, used to precondition solves against it.
pub struct Deflation {
    pairs: Vec<EigenPair>,
}

impl Deflation {
    /// Wrap precomputed eigenpairs.
    pub fn new(pairs: Vec<EigenPair>) -> Self {
        Self { pairs }
    }

    /// Compute the subspace with restarted shift-invert Lanczos.
    pub fn compute<A: LinearOp<f64> + ?Sized>(op: &A, params: &LanczosParams) -> Self {
        Self::new(lanczos(op, params))
    }

    /// Number of deflation modes held.
    pub fn n_modes(&self) -> usize {
        self.pairs.len()
    }

    /// The underlying eigenpairs (ascending eigenvalue).
    pub fn pairs(&self) -> &[EigenPair] {
        &self.pairs
    }

    /// Low-mode initial guess `x = V Λ⁻¹ V† b` (overwrites `x`).
    pub fn guess(&self, x: &mut [Spinor<f64>], b: &[Spinor<f64>]) {
        blas::zero(x);
        for m in &self.pairs {
            let c: C64 = blas::dot(&m.vector, b);
            blas::caxpy(c * C64::new(1.0 / m.value, 0.0), &m.vector, x);
        }
    }

    /// Column-wise [`Self::guess`]: `x[:,j] = V Λ⁻¹ V† b[:,j]`,
    /// bit-identical to the packed-column guess.
    pub fn guess_col(&self, x: &mut BlockSpinor<f64>, b: &BlockSpinor<f64>, j: usize) {
        block::zero_col(x.data_mut(), b.nrhs(), j);
        for m in &self.pairs {
            let c: C64 = block::dot_vec_col(&m.vector, b, j);
            block::caxpy_vec_col(c * C64::new(1.0 / m.value, 0.0), &m.vector, x, j);
        }
    }

    /// Orthogonal projector onto the subspace: `out = V V† inp`.
    pub fn apply_projector(&self, out: &mut [Spinor<f64>], inp: &[Spinor<f64>]) {
        blas::zero(out);
        for m in &self.pairs {
            let c: C64 = blas::dot(&m.vector, inp);
            blas::caxpy(c, &m.vector, out);
        }
    }

    /// Remove the subspace component in place: `r ← (1 − V V†) r`.
    pub fn project_out(&self, r: &mut [Spinor<f64>]) {
        for m in &self.pairs {
            let c: C64 = blas::dot(&m.vector, r);
            blas::caxpy(-c, &m.vector, r);
        }
    }
}

/// Deflated batched CG: seed every column of `x` with the low-mode guess,
/// then run [`cg_block`]. Column `j` is bit-identical to [`Deflation::guess`]
/// followed by [`cg`](super::cg) on the packed column.
pub fn deflated_cg_block<A: FallibleOp<f64> + ?Sized>(
    op: &mut A,
    defl: &Deflation,
    x: &mut BlockSpinor<f64>,
    b: &BlockSpinor<f64>,
    params: CgParams,
) -> Vec<SolveStats> {
    let reg = obs::Registry::current();
    reg.counter("solver.deflation.block_solves").inc();
    reg.counter("solver.deflation.rhs").add(b.nrhs() as u64);
    reg.counter("solver.deflation.modes")
        .add(defl.n_modes() as u64);
    for j in 0..b.nrhs() {
        defl.guess_col(x, b, j);
    }
    cg_block(op, x, b, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::{NormalOp, WilsonDirac};
    use crate::field::{FermionField, GaugeField};
    use crate::lattice::Lattice;
    use crate::solver::{cg, lanczos_lowest};

    #[test]
    fn block_deflated_solve_is_bit_identical_to_sequential() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 51);
        let d = WilsonDirac::new(&lat, &gauge, 0.05, true);
        let a = NormalOp::new(&d);
        let v = lat.volume();
        let defl = Deflation::new(lanczos_lowest(&a, 6, 70, 11));

        let nrhs = 2;
        let cols: Vec<Vec<Spinor<f64>>> = (0..nrhs)
            .map(|j| FermionField::<f64>::gaussian(v, 21 + j as u64).data)
            .collect();
        let bb = BlockSpinor::from_columns(&cols);
        let mut xb = BlockSpinor::zeros(v, nrhs);
        let params = CgParams::default();
        let stats = deflated_cg_block(&mut &a, &defl, &mut xb, &bb, params);

        for (j, c) in cols.iter().enumerate() {
            let mut xs = vec![Spinor::zero(); v];
            defl.guess(&mut xs, c);
            let seq = cg(&a, &mut xs, c, params);
            assert_eq!(stats[j], seq, "stats of column {j}");
            assert_eq!(xb.col(j), xs, "solution of column {j}");
            assert!(seq.converged);
        }
    }
}
