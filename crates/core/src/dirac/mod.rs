//! Dirac operators and the linear-operator interface used by the solvers.

mod hopping;
mod mobius;
mod wilson;

pub use hopping::{hop_site, hop_site_block, HoppingKernel, HOPPING_FLOPS_PER_SITE};
pub use mobius::{MobiusDirac, MobiusParams, PrecMobius};
pub use wilson::{PrecWilson, WilsonDirac};

use crate::real::Real;
use crate::spinor::Spinor;
use parking_lot::Mutex;

/// A general linear operator on a fermion vector, as seen by Krylov solvers.
pub trait LinearOp<R: Real>: Sync {
    /// Length (in spinors) of vectors this operator acts on.
    fn vec_len(&self) -> usize;
    /// `out = A · inp`.
    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]);
    /// Floating-point operations per `apply`, for performance reporting.
    fn flops_per_apply(&self) -> f64 {
        0.0
    }
    /// `out = A · inp` on an interleaved block of `nrhs` right-hand-sides.
    ///
    /// Slices hold `vec_len() * nrhs` spinors interleaved RHS-innermost
    /// (`data[i * nrhs + j]`, see [`crate::block::BlockSpinor`]). The
    /// contract is *bit-exactness*: column `j` must equal `apply` on a
    /// packed copy of column `j`, to the last bit. The default honours it
    /// by construction (one column at a time through `apply`); the Dirac
    /// operators override it with blocked kernels that reuse the single-RHS
    /// per-site arithmetic and amortize the gauge-link loads across columns.
    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let n = inp.len() / nrhs;
        let mut col_out = vec![Spinor::zero(); n];
        for j in 0..nrhs {
            let col_in: Vec<Spinor<R>> = (0..n).map(|i| inp[i * nrhs + j]).collect();
            self.apply(&mut col_out, &col_in);
            for (i, s) in col_out.iter().enumerate() {
                out[i * nrhs + j] = *s;
            }
        }
    }
}

/// A Dirac-type operator: knows its adjoint (via γ5-hermiticity), so the
/// normal equations `D†D x = D†b` can be formed.
pub trait DiracOp<R: Real>: LinearOp<R> {
    /// `out = D† · inp` on an interleaved block, under the same
    /// bit-exactness contract as [`LinearOp::apply_block`]. Each operator
    /// writes its adjoint once, here.
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize);
    /// `out = D† · inp`: the one-column block.
    fn apply_dagger(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        self.apply_dagger_block(out, inp, 1);
    }
}

/// `D† D`, the Hermitian positive-definite operator CG actually inverts —
/// "conjugate gradient on the normal equations", the paper's solver for the
/// Möbius domain-wall discretization.
pub struct NormalOp<'a, R: Real, D: DiracOp<R>> {
    op: &'a D,
    /// The intermediate `D · inp`, reused across applies (behind a lock so
    /// `apply` keeps its `&self` solver interface).
    tmp: Mutex<Vec<Spinor<R>>>,
}

impl<'a, R: Real, D: DiracOp<R>> NormalOp<'a, R, D> {
    /// Wrap a Dirac operator.
    pub fn new(op: &'a D) -> Self {
        Self {
            op,
            tmp: Mutex::new(Vec::new()),
        }
    }

    /// The underlying Dirac operator.
    pub fn inner(&self) -> &D {
        self.op
    }
}

impl<'a, R: Real, D: DiracOp<R>> LinearOp<R> for NormalOp<'a, R, D> {
    fn vec_len(&self) -> usize {
        self.op.vec_len()
    }

    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        let mut tmp = self.tmp.lock();
        tmp.resize(self.op.vec_len(), Spinor::zero());
        self.op.apply(&mut tmp, inp);
        self.op.apply_dagger(out, &tmp);
    }

    fn flops_per_apply(&self) -> f64 {
        2.0 * self.op.flops_per_apply()
    }

    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let mut tmp = self.tmp.lock();
        tmp.resize(self.op.vec_len() * nrhs, Spinor::zero());
        self.op.apply_block(&mut tmp, inp, nrhs);
        self.op.apply_dagger_block(out, &tmp, nrhs);
    }
}
