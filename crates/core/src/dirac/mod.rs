//! Dirac operators and the linear-operator interface used by the solvers.

mod hopping;
pub(crate) mod lanes;
mod mobius;
mod wilson;

pub(crate) use hopping::SendPtr;
pub use hopping::{hop_site, HoppingKernel, HOPPING_FLOPS_PER_SITE};
pub(crate) use mobius::FusedHop;
pub use mobius::{MobiusDirac, MobiusParams, PrecMobius};
pub use wilson::{PrecWilson, WilsonDirac};

use crate::lattice::{Lattice, Parity};
use crate::real::Real;
use crate::spinor::Spinor;
use parking_lot::Mutex;

/// A general linear operator on a fermion vector, as seen by Krylov solvers.
pub trait LinearOp<R: Real>: Sync {
    /// Length (in spinors) of vectors this operator acts on.
    fn vec_len(&self) -> usize;
    /// Floating-point operations per `apply`, for performance reporting.
    fn flops_per_apply(&self) -> f64 {
        0.0
    }
    /// `out = A · inp` on an interleaved block of `nrhs` right-hand-sides.
    ///
    /// Slices hold `vec_len() * nrhs` spinors interleaved RHS-innermost
    /// (`data[i * nrhs + j]`, see [`crate::block::BlockSpinor`]). The
    /// contract is *bit-exactness*: column `j` must equal the one-column
    /// block of a packed copy of column `j`, to the last bit. Each operator
    /// writes its apply once, here.
    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize);
    /// `out = A · inp`: the one-column block.
    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        self.apply_block(out, inp, 1);
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
    /// `apply_block` keeps its `&self` solver interface).
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

/// Split an s-major vector of full-volume slices into its (even, odd)
/// checkerboards, each as many half-volume slices.
fn split_parity<R: Real>(
    lattice: &Lattice,
    full: &[Spinor<R>],
) -> (Vec<Spinor<R>>, Vec<Spinor<R>>) {
    let (v, hv) = (lattice.volume(), lattice.half_volume());
    assert_eq!(full.len() % v, 0, "a whole number of slices");
    let mut even = vec![Spinor::zero(); full.len() / 2];
    let mut odd = vec![Spinor::zero(); full.len() / 2];
    for (i, &psi) in full.iter().enumerate() {
        let (s, x) = (i / v, i % v);
        let half = match lattice.parity(x) {
            Parity::Even => &mut even,
            Parity::Odd => &mut odd,
        };
        half[s * hv + lattice.cb_index(x)] = psi;
    }
    (even, odd)
}

/// Merge (even, odd) checkerboards of half-volume slices back into an
/// s-major vector of full-volume slices.
fn merge_parity<R: Real>(
    lattice: &Lattice,
    even: &[Spinor<R>],
    odd: &[Spinor<R>],
) -> Vec<Spinor<R>> {
    let (v, hv) = (lattice.volume(), lattice.half_volume());
    assert_eq!(even.len(), odd.len());
    (0..2 * even.len())
        .map(|i| {
            let (s, x) = (i / v, i % v);
            let half = match lattice.parity(x) {
                Parity::Even => even,
                Parity::Odd => odd,
            };
            half[s * hv + lattice.cb_index(x)]
        })
        .collect()
}

/// What the operators' oracle tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// Every real of `v` as its bit pattern (f32 widened losslessly), so a
    /// comparison also sees what `==` hides: the sign of a zero, a NaN.
    pub(crate) fn real_bits<R: Real>(v: &[Spinor<R>]) -> Vec<u64> {
        v.iter()
            .flat_map(|sp| sp.s.iter().flat_map(|cv| cv.c.iter()))
            .flat_map(|z| [z.re.to_f64().to_bits(), z.im.to_f64().to_bits()])
            .collect()
    }

    /// Hold every operator of `ops` — one operator at several stencil grains,
    /// say — to `oracle(out, inp, nrhs, dagger)` in both directions
    /// (`apply_block`, `apply_dagger_block`) on every real's bit pattern, at
    /// `nrhs` 1 and 3 and pool widths 1, 2 and 4.
    pub(crate) fn assert_block_matches_oracle<R: Real, D: DiracOp<R>>(
        ops: &[D],
        what: &str,
        oracle: impl Fn(&mut [Spinor<R>], &[Spinor<R>], usize, bool),
    ) {
        for nrhs in [1, 3] {
            let n = ops[0].vec_len() * nrhs;
            let inp = crate::field::FermionField::<R>::gaussian(n, 40 + nrhs as u64).data;
            for dagger in [false, true] {
                let mut want = vec![Spinor::zero(); n];
                oracle(&mut want, &inp, nrhs, dagger);
                let want = real_bits(&want);
                for (k, op) in ops.iter().enumerate() {
                    for width in [1, 2, 4] {
                        let mut got = vec![Spinor::zero(); n];
                        let pool = rayon::ThreadPoolBuilder::new().num_threads(width).build();
                        pool.expect("width handle").install(|| match dagger {
                            false => op.apply_block(&mut got, &inp, nrhs),
                            true => op.apply_dagger_block(&mut got, &inp, nrhs),
                        });
                        assert!(
                            real_bits(&got) == want,
                            "{what}: operator {k}, nrhs {nrhs}, dagger {dagger}, width {width}"
                        );
                    }
                }
            }
        }
    }
}
