//! The conjugate-gradient recurrence, written once, and its plain drivers
//! [`cg`], [`cg_block`] and [`cgne`].
//!
//! [`cg_core`] *continues* a recurrence from a [`Recurrence`] state
//! `(k, x, r, p, ρ)` per column over a (possibly fallible) block apply. It is
//! silent (no metrics, no events) and monomorphised over the operator and
//! two hooks; each public solver is a thin driver adding what makes it
//! different: [`cg`] = source prologue + initial residual + core at
//! `nrhs = 1`; [`cg_block`] = the same at `nrhs = N`, plus retirement
//! events; [`cg_ft`](super::cg_ft) = a snapshot hook before the apply, and
//! restore-and-re-enter when it fails; [`mixed_cg`](super::mixed_cg) = the
//! core seeded with the low-precision residual between reliable updates.
//!
//! **Retirement rule.** A column leaves the active set the moment its own
//! loop condition fails (converged, budget exhausted, or broken down). From
//! then on its `x`, `r`, `p` are never written again — the block operator
//! still reads the whole interleaved block, but retired outputs are
//! discarded — so column `j` of a block solve is bit-identical (solution,
//! residual, [`SolveStats`]) to the single-column solve.
//! `tests/block_solver.rs` enforces this across block sizes, precisions,
//! comm policies, and thread widths.

use super::{record_solve, SolveStats};
use crate::blas;
use crate::block::{self, BlockSpinor};
use crate::comms::CommError;
use crate::dirac::{DiracOp, LinearOp, NormalOp};
use crate::real::Real;
use crate::spinor::Spinor;
use obs::Json;

/// Stopping criteria for CG-family solvers.
#[derive(Clone, Copy, Debug)]
pub struct CgParams {
    /// Relative residual target `‖r‖/‖b‖`.
    pub tol: f64,
    /// Iteration budget.
    pub max_iter: usize,
}

impl Default for CgParams {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            max_iter: 10_000,
        }
    }
}

/// The operator as the solvers see it: a (possibly fallible, possibly
/// stateful) apply on an interleaved block of `nrhs` columns
/// (`data[i * nrhs + j]`; a plain vector is the `nrhs = 1` block) that may be
/// able to repair itself after a typed communication failure. Every `&A`
/// with `A: LinearOp` is one; the sharded halo-exchange operator is the
/// fallible one.
pub trait FallibleOp<R: Real> {
    /// Length (in spinors) of each column.
    fn vec_len(&self) -> usize;

    /// `out = A · inp` on the whole block, or a typed failure (in which
    /// case `out` is unspecified).
    fn apply_block(
        &mut self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
    ) -> Result<(), CommError>;

    /// Flops of one successful apply *per column*, so a column's flop
    /// ledger does not depend on the block size.
    fn flops_per_apply(&self) -> f64;

    /// Attempt to repair the operator after `err`. `Ok(())` means a retry
    /// can make progress (possibly on a degraded configuration); `Err`
    /// means the failure is terminal, which is the default.
    fn recover(&mut self, err: &CommError) -> Result<(), CommError> {
        Err(*err)
    }
}

impl<R: Real, A: LinearOp<R> + ?Sized> FallibleOp<R> for &A {
    fn vec_len(&self) -> usize {
        (**self).vec_len()
    }

    fn apply_block(
        &mut self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
    ) -> Result<(), CommError> {
        (**self).apply_block(out, inp, nrhs);
        Ok(())
    }

    fn flops_per_apply(&self) -> f64 {
        (**self).flops_per_apply()
    }
}

/// The scalar part of one column's recurrence, with its work ledger.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Column {
    /// Recurrence index (rolled back by a checkpoint restore, unlike
    /// `stats.iterations`, which counts replayed work too).
    pub k: usize,
    /// `ρ = ‖r‖²`; NaN until the initial residual exists.
    pub rho: f64,
    /// Absolute target on `ρ`.
    pub target: f64,
    /// `‖b‖²`, the scale the exit residual is reported against.
    pub b_norm2: f64,
    /// Still iterating.
    pub live: bool,
    /// The core adds iterations and flops and sets `breakdown`; retirement
    /// fills in the verdict.
    pub stats: SolveStats,
}

impl Column {
    /// The exit epilogue every driver shares: fill in the verdict from the
    /// final `ρ` — a non-finite one is a breakdown reported as `∞`, never
    /// NaN — and leave the active set.
    pub(crate) fn retire(&mut self) {
        let finite = self.rho.is_finite();
        self.stats.breakdown |= !finite;
        self.stats.final_rel_residual = if finite {
            (self.rho / self.b_norm2).sqrt()
        } else {
            f64::INFINITY
        };
        self.stats.converged = finite && self.rho <= self.target;
        self.live = false;
    }
}

/// Everything that determines the remaining iteration sequence bit-for-bit:
/// interleaved `x`, `r`, `p` plus `(k, ρ)` per column. `x` is borrowed, so a
/// driver's solution vector is iterated in place.
pub(crate) struct Recurrence<'a, R: Real> {
    pub x: &'a mut [Spinor<R>],
    pub r: Vec<Spinor<R>>,
    pub p: Vec<Spinor<R>>,
    /// `A p` of the iteration in flight. Scratch, not state: it is
    /// overwritten before it is read, so a restore need not reproduce it —
    /// it lives here only so a re-entered recurrence reuses its storage.
    pub ap: Vec<Spinor<R>>,
    pub cols: Vec<Column>,
    /// Successful block applies so far, the initial residual included.
    pub applies: u64,
}

impl<'a, R: Real> Recurrence<'a, R> {
    /// The source prologue every driver shares, per column: a zero source
    /// is solved by zero (converged, no applies); a NaN/∞ source is a
    /// breakdown with `x` untouched, since iterating would only propagate
    /// garbage; any other column goes live with target `tol²·‖b‖²`.
    pub(crate) fn open(x: &'a mut [Spinor<R>], b: &[Spinor<R>], nrhs: usize, tol: f64) -> Self {
        assert_eq!(x.len(), b.len());
        let column = |j| {
            let b_norm2 = block::norm_sqr_col(b, nrhs, j);
            let mut stats = SolveStats::new();
            if b_norm2 == 0.0 {
                block::zero_col(x, nrhs, j);
                stats.converged = true;
                stats.final_rel_residual = 0.0;
            } else if !b_norm2.is_finite() {
                stats.breakdown = true;
            }
            Column {
                k: 0,
                rho: f64::NAN,
                target: tol * tol * b_norm2,
                b_norm2,
                live: !stats.converged && !stats.breakdown,
                stats,
            }
        };
        let cols = (0..nrhs).map(column).collect();
        Self {
            x,
            r: Vec::new(),
            p: Vec::new(),
            ap: Vec::new(),
            cols,
            applies: 0,
        }
    }

    fn any_live(&self) -> bool {
        self.cols.iter().any(|c| c.live)
    }

    /// (Re)start every live column from the guess in `x`: `r = b − A x`,
    /// `ρ = ‖r‖²`, `k = 0`; `p = r` is [`cg_core`]'s to set. The apply is
    /// performed and charged even for a zero guess — skipping it would flip
    /// zero signs in `r` and change the flop ledger. It spans retired
    /// columns too; their outputs are discarded.
    pub(crate) fn start<A: FallibleOp<R> + ?Sized>(
        &mut self,
        op: &mut A,
        b: &[Spinor<R>],
    ) -> Result<(), CommError> {
        if !self.any_live() {
            return Ok(());
        }
        let nrhs = self.cols.len();
        for col in self.cols.iter_mut().filter(|c| c.live) {
            (col.k, col.rho) = (0, f64::NAN);
        }
        self.r.resize(b.len(), Spinor::zero());
        op.apply_block(&mut self.r, self.x, nrhs)?;
        self.applies += 1;
        for (j, col) in self.cols.iter_mut().enumerate().filter(|(_, c)| c.live) {
            col.stats.flops += op.flops_per_apply();
            for i in (j..b.len()).step_by(nrhs) {
                self.r[i] = b[i] - self.r[i];
            }
            col.rho = block::norm_sqr_col(&self.r, nrhs, j);
        }
        Ok(())
    }
}

/// The CG recurrence. Continues every live column of `state` until its
/// `ρ ≤ target`, its `k` reaches `max_k`, or it breaks down (`p·Ap ≤ 0`,
/// non-finite `ρ`), in the operation order `dot → α → axpy x → axpy r →
/// ‖r‖² → β → xpby p`. A state whose live columns are all at `k = 0`
/// enters with `p = r`. Two hooks let a driver observe it: `before_apply`
/// sees the state a restore must reproduce to replay the coming apply;
/// `retired` sees each column as it leaves with its verdict filled in. An
/// `Err` is a failed apply: the state is as it was before that apply,
/// columns still live, so the driver can recover and re-enter or give up.
pub(crate) fn cg_core<R: Real, A: FallibleOp<R> + ?Sized>(
    op: &mut A,
    state: &mut Recurrence<'_, R>,
    max_k: usize,
    mut before_apply: impl FnMut(&Recurrence<'_, R>),
    mut retired: impl FnMut(usize, &Column),
) -> Result<(), CommError> {
    let nrhs = state.cols.len();
    let blas_flops = 6.0 * 24.0 * op.vec_len() as f64; // three axpys + two reductions per iteration
    if state.cols.iter().all(|c| !c.live || c.k == 0) {
        state.p.clone_from(&state.r);
    }
    state.ap.resize(state.p.len(), Spinor::zero());
    loop {
        // Retire every column whose own loop would exit here, before the
        // next shared apply. A non-finite ρ is a divergence: stop with an
        // error status instead of spinning on NaN until the budget.
        for (j, col) in state.cols.iter_mut().enumerate().filter(|(_, c)| c.live) {
            if !(col.k < max_k && col.rho > col.target && col.rho.is_finite()) {
                col.retire();
                retired(j, col);
            }
        }
        if !state.any_live() {
            return Ok(());
        }
        before_apply(state);
        op.apply_block(&mut state.ap, &state.p, nrhs)?;
        state.applies += 1;

        for (j, col) in state.cols.iter_mut().enumerate().filter(|(_, c)| c.live) {
            col.k += 1;
            col.stats.iterations += 1;
            col.stats.flops += op.flops_per_apply() + blas_flops;

            let pap = block::dot_cols(&state.p, &state.ap, nrhs, j).re;
            if !pap.is_finite() || pap <= 0.0 {
                // Not positive definite (or total loss of precision).
                col.stats.breakdown = true;
                col.retire();
                retired(j, col);
                continue;
            }
            let alpha = col.rho / pap;
            block::axpy_col(alpha, &state.p, state.x, nrhs, j);
            block::axpy_col(-alpha, &state.ap, &mut state.r, nrhs, j);
            let rho_new = block::norm_sqr_col(&state.r, nrhs, j);
            let beta = rho_new / col.rho;
            block::xpby_col(&state.r, beta, &mut state.p, nrhs, j);
            col.rho = rho_new;
        }
    }
}

/// What [`cg`] and [`cg_block`] share: prologue, initial residual, core. On
/// a communication failure every still-live column is retired as a
/// breakdown (the data is intact but the iteration cannot continue
/// deterministically) and `true` is returned alongside the final state.
fn solve<'a, R: Real, A: FallibleOp<R> + ?Sized>(
    op: &mut A,
    x: &'a mut [Spinor<R>],
    b: &[Spinor<R>],
    nrhs: usize,
    params: CgParams,
    mut retired: impl FnMut(usize, &Column),
) -> (Recurrence<'a, R>, bool) {
    assert_eq!(x.len(), op.vec_len() * nrhs);
    let mut state = Recurrence::open(x, b, nrhs, params.tol);
    let run = state
        .start(op, b)
        .and_then(|()| cg_core(op, &mut state, params.max_iter, |_| {}, &mut retired));
    if run.is_err() {
        for (j, col) in state.cols.iter_mut().enumerate().filter(|(_, c)| c.live) {
            col.stats.breakdown = true;
            col.retire();
            retired(j, col);
        }
    }
    (state, run.is_err())
}

/// Standard CG for a Hermitian positive-definite operator `A`.
///
/// Solves `A x = b`, starting from the value already in `x` (zero it for a
/// fresh solve). BLAS-1 flop accounting uses the paper's convention of ~50
/// flops per site-iteration beyond the stencil.
pub fn cg<R: Real, A: LinearOp<R> + ?Sized>(
    mut op: &A,
    x: &mut [Spinor<R>],
    b: &[Spinor<R>],
    params: CgParams,
) -> SolveStats {
    let (state, _) = solve(&mut op, x, b, 1, params, |_, _| {});
    let stats = state.cols[0].stats;
    record_solve("cg", &stats);
    stats
}

/// Batched CG over `nrhs` right-hand-sides sharing link traffic.
///
/// Solves `A x[:,j] = b[:,j]` for every column, starting from the values
/// already in `x` (zero them for fresh solves), each operator application
/// amortizing the gauge-link loads across all columns. Column `j` of the
/// result — solution, residual history, and the returned [`SolveStats`]
/// including flop counts — is bit-identical to `cg(op, x_j, b_j, params)`
/// on the packed column (see the module docs for the retirement rule). On a
/// communication failure every still-active column is finalized as a
/// breakdown.
pub fn cg_block<R: Real, A: FallibleOp<R> + ?Sized>(
    op: &mut A,
    x: &mut BlockSpinor<R>,
    b: &BlockSpinor<R>,
    params: CgParams,
) -> Vec<SolveStats> {
    let nrhs = b.nrhs();
    assert_eq!(x.nrhs(), nrhs);
    let reg = obs::Registry::current();
    let retire_event = |j: usize, col: &Column| {
        reg.event(
            "solver.cg_block.retire",
            vec![
                ("rhs", Json::from(j as u64)),
                ("iterations", Json::from(col.stats.iterations as u64)),
                ("converged", Json::from(col.stats.converged)),
            ],
        );
    };
    let (state, comm_failed) = solve(op, x.data_mut(), b.data(), nrhs, params, retire_event);

    reg.counter("solver.cg_block.block_solves").inc();
    reg.counter("solver.cg_block.rhs").add(nrhs as u64);
    reg.counter("solver.cg_block.block_applies")
        .add(state.applies);
    if comm_failed {
        reg.counter("solver.cg_block.comm_failures").inc();
    }
    let stats: Vec<SolveStats> = state.cols.iter().map(|c| c.stats).collect();
    for s in &stats {
        record_solve("cg_block", s);
    }
    stats
}

/// Solve `D x = b` through the normal equations: form `D†b`, hand
/// `(x, D†b)` to `solve` (some CG on `D†D`), then report the recomputed
/// true residual `‖b − D x‖/‖b‖` of the original system. A non-finite true
/// residual is a breakdown, never a NaN in the report.
pub(crate) fn solve_normal<R: Real, D: DiracOp<R>>(
    op: &D,
    x: &mut [Spinor<R>],
    b: &[Spinor<R>],
    solve: impl FnOnce(&mut [Spinor<R>], &[Spinor<R>]) -> SolveStats,
) -> SolveStats {
    let n = op.vec_len();
    let mut rhs = vec![Spinor::zero(); n];
    op.apply_dagger(&mut rhs, b);
    let mut stats = solve(x, &rhs);

    let mut dx = vec![Spinor::zero(); n];
    op.apply(&mut dx, x);
    let diff = blas::sub(b, &dx);
    let b2 = blas::norm_sqr(b);
    if b2 > 0.0 && b2.is_finite() {
        let true_r2 = blas::norm_sqr(&diff);
        if true_r2.is_finite() {
            stats.final_rel_residual = (true_r2 / b2).sqrt();
        } else {
            stats.final_rel_residual = f64::INFINITY;
            stats.converged = false;
            stats.breakdown = true;
        }
    }
    stats
}

/// CG on the normal equations: solves `D x = b` by running [`cg`] on
/// `D†D x = D†b` — the paper's solver for the Möbius discretization.
pub fn cgne<R: Real, D: DiracOp<R>>(
    op: &D,
    x: &mut [Spinor<R>],
    b: &[Spinor<R>],
    params: CgParams,
) -> SolveStats {
    let mut stats = solve_normal(op, x, b, |x, rhs| cg(&NormalOp::new(op), x, rhs, params));
    stats.flops += op.flops_per_apply();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::{MobiusDirac, MobiusParams, PrecMobius, PrecWilson, WilsonDirac};
    use crate::field::{FermionField, GaugeField};
    use crate::lattice::Lattice;

    #[test]
    fn cg_solves_wilson_normal_equations() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 61);
        let d = WilsonDirac::new(&lat, &gauge, 0.3, true);
        let b = FermionField::<f64>::gaussian(lat.volume(), 11).data;
        let mut x = vec![Spinor::zero(); lat.volume()];
        let stats = cgne(&d, &mut x, &b, CgParams::default());
        assert!(stats.converged, "CGNE must converge: {stats:?}");
        assert!(stats.final_rel_residual < 1e-9);
        assert!(stats.flops > 0.0);
    }

    #[test]
    fn cg_respects_iteration_budget() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 67);
        let d = WilsonDirac::new(&lat, &gauge, 0.05, true);
        let b = FermionField::<f64>::gaussian(lat.volume(), 12).data;
        let mut x = vec![Spinor::zero(); lat.volume()];
        let stats = cgne(
            &d,
            &mut x,
            &b,
            CgParams {
                tol: 1e-14,
                max_iter: 3,
            },
        );
        assert!(!stats.converged);
        assert_eq!(stats.iterations, 3);
    }

    #[test]
    fn cgne_solves_full_mobius() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 71);
        let params = MobiusParams::standard(4, 0.1);
        let d = MobiusDirac::new(&lat, &gauge, params);
        let b = FermionField::<f64>::gaussian(d.vec_len(), 14).data;
        let mut x = vec![Spinor::zero(); d.vec_len()];
        let stats = cgne(&d, &mut x, &b, CgParams::default());
        assert!(stats.converged, "{stats:?}");
        assert!(stats.final_rel_residual < 1e-9);
    }

    #[test]
    fn preconditioned_mobius_solve_matches_full_solve() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 73);
        let params = MobiusParams::standard(4, 0.1);
        let full = MobiusDirac::new(&lat, &gauge, params);
        let prec = PrecMobius::new(&lat, &gauge, params);

        let b = FermionField::<f64>::gaussian(full.vec_len(), 15).data;

        // Full solve.
        let mut x_full = vec![Spinor::zero(); full.vec_len()];
        let s1 = cgne(&full, &mut x_full, &b, CgParams::default());
        assert!(s1.converged);

        // Preconditioned solve.
        let (b_e, b_o) = prec.split(&b);
        let rhs = prec.prepare_source(&b_e, &b_o);
        let mut x_o = vec![Spinor::zero(); prec.vec_len()];
        let s2 = cgne(&prec, &mut x_o, &rhs, CgParams::default());
        assert!(s2.converged);
        let x_e = prec.reconstruct_even(&b_e, &x_o);
        let x_prec = prec.merge(&x_e, &x_o);

        let diff = crate::blas::sub(&x_full, &x_prec);
        let rel = crate::blas::norm_sqr(&diff) / crate::blas::norm_sqr(&x_full);
        assert!(rel < 1e-16, "prec and full solutions differ: rel {rel}");
    }

    #[test]
    fn preconditioning_reduces_iteration_count() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 79);
        let mass = 0.2;
        let full = WilsonDirac::new(&lat, &gauge, mass, true);
        let prec = PrecWilson::new(&lat, &gauge, mass, true);

        let b = FermionField::<f64>::gaussian(lat.volume(), 16).data;
        let mut x_full = vec![Spinor::zero(); lat.volume()];
        let s_full = cgne(&full, &mut x_full, &b, CgParams::default());

        let (b_e, b_o) = prec.split(&b);
        let rhs = prec.prepare_source(&b_e, &b_o);
        let mut x_o = vec![Spinor::zero(); lat.half_volume()];
        let s_prec = cgne(&prec, &mut x_o, &rhs, CgParams::default());

        assert!(s_full.converged && s_prec.converged);
        assert!(
            s_prec.iterations < s_full.iterations,
            "red-black should converge faster: {} vs {}",
            s_prec.iterations,
            s_full.iterations
        );
    }
}
