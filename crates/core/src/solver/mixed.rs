//! Mixed-precision CG with reliable updates.
//!
//! The paper's optimum solver stores fields in 16-bit fixed point, computes
//! in single precision, and performs "occasional reliable updates to full
//! double precision" (Clark et al., CPC 181 (2010) 1517). This module
//! implements that control flow: the inner CG (the shared core of
//! [`super::cg`]) runs entirely in the low precision `L`; whenever the inner
//! residual has dropped by `delta` relative to the last reliable point, the
//! accumulated correction is promoted to `f64`, the true residual is
//! recomputed with the high-precision operator, and the inner iteration
//! restarts from it. This bounds the drift between
//! the iterated and true residuals that pure low-precision CG suffers.

use super::cg::{cg, cg_core, Column, Recurrence};
use super::{CgParams, SolveStats, SolverOutcome};
use crate::blas;
use crate::dirac::LinearOp;
use crate::real::Real;
use crate::spinor::Spinor;
use obs::{Json, Registry};

/// Parameters of the mixed-precision solve.
#[derive(Clone, Copy, Debug)]
pub struct MixedParams {
    /// Stopping criteria on the outer (true, double-precision) residual.
    pub outer: CgParams,
    /// Reliable-update threshold: an update triggers when the inner residual
    /// norm² falls below `delta²` times the norm² at the last reliable point.
    pub delta: f64,
    /// Safety cap on inner iterations between reliable updates.
    pub max_inner: usize,
}

impl Default for MixedParams {
    fn default() -> Self {
        Self {
            outer: CgParams::default(),
            delta: 0.1,
            max_inner: 1_000,
        }
    }
}

/// Solve `A x = b` where `A` is Hermitian positive definite, given the same
/// operator in high (`f64`) and low (`L`) precision.
///
/// `x` must come in zeroed (or holding an initial guess in `f64`).
pub fn mixed_cg<L: Real, AH: LinearOp<f64> + ?Sized, AL: LinearOp<L> + ?Sized>(
    mut op_hi: &AH,
    mut op_lo: &AL,
    x: &mut [Spinor<f64>],
    b: &[Spinor<f64>],
    params: MixedParams,
) -> SolveStats {
    let n = op_hi.vec_len();
    assert_eq!(op_lo.vec_len(), n, "precision pair must share a geometry");
    assert_eq!(x.len(), n);
    // The outer, double-precision recurrence never iterates, so never holds
    // a `p`: every reliable point is a (re)start from the current `x`, i.e.
    // the true residual `r = b − A x` recomputed and charged. In-process
    // `LinearOp` applies cannot fail, so the `Result`s carry no information.
    let mut outer = Recurrence::open(x, b, 1, params.outer.tol);
    let _ = outer.start(&mut op_hi, b);

    // The inner, low-precision recurrence is built once and re-seeded at
    // every reliable point, so a restart reuses the `e`, `r`, `p`, `A p`
    // storage it already owns.
    let mut e_lo = vec![Spinor::<L>::zero(); n];
    let mut inner = Recurrence {
        x: &mut e_lo,
        r: Vec::new(),
        p: Vec::new(),
        ap: Vec::new(),
        cols: vec![outer.cols[0]],
        applies: 0,
    };

    // A non-finite residual — from a poisoned initial guess, or from a
    // promoted correction that poisoned the iterate — ends the solve as a
    // breakdown.
    while let Column {
        live: true,
        rho: r2_hi,
        target,
        b_norm2,
        stats,
        ..
    } = outer.cols[0]
    {
        if !(r2_hi.is_finite() && r2_hi > target && stats.iterations < params.outer.max_iter) {
            outer.cols[0].retire();
            break;
        }
        // Inner CG in low precision on A e = r, e starting at zero: the
        // core seeded with (0, e = 0, r, ‖r‖²) — no initial apply to
        // charge — until the residual has dropped by `delta` from this
        // reliable point, or the outer target or either budget is reached.
        inner.r.clear();
        inner.r.extend(outer.r.iter().map(|s| s.cast::<L>()));
        blas::zero(inner.x);
        let reliable_point = blas::norm_sqr(&inner.r);
        let inner_target = (params.delta * params.delta) * reliable_point;
        inner.cols[0] = Column {
            k: 0,
            rho: reliable_point,
            target: inner_target.max(target),
            ..outer.cols[0]
        };
        let budget = params
            .max_inner
            .min(params.outer.max_iter - stats.iterations);
        let _ = cg_core(&mut op_lo, &mut inner, budget, |_| {}, |_, _| {});
        // Take the work ledger, not the verdict: a `p·Ap ≤ 0` exit only
        // means precision is exhausted (or overflowed) in low precision.
        let col = inner.cols[0];
        outer.cols[0].stats.iterations = col.stats.iterations;
        outer.cols[0].stats.flops = col.stats.flops;
        if !col.rho.is_finite() {
            // Low-precision overflow/NaN: abandon this inner sequence; the
            // reliable update below re-anchors in double precision.
            blas::zero(inner.x);
        }

        // Reliable update: promote the correction and recompute the true
        // residual in double precision.
        for (xi, ei) in outer.x.iter_mut().zip(inner.x.iter()) {
            *xi += ei.cast();
        }
        let _ = outer.start(&mut op_hi, b);
        let col = &mut outer.cols[0];
        col.stats.reliable_updates += 1;
        // One event per reliable update — together they trace the true
        // (double-precision) residual trajectory of the solve.
        Registry::current().event(
            "solver.reliable_update",
            vec![
                ("update", Json::from(col.stats.reliable_updates)),
                ("iteration", Json::from(col.stats.iterations)),
                (
                    "rel_residual",
                    Json::from(if col.rho.is_finite() {
                        (col.rho / b_norm2).sqrt()
                    } else {
                        f64::INFINITY
                    }),
                ),
            ],
        );
        if col.rho >= r2_hi && col.rho > target {
            // No progress even after a reliable update (or a degenerate
            // inner loop that could not move at all): the low precision
            // cannot resolve the remaining residual. Give up cleanly.
            col.retire();
        }
    }

    let stats = outer.cols[0].stats;
    super::record_solve("mixed", &stats);
    stats
}

/// Parameters of the fault-tolerant solve ([`mixed_cg_robust`]).
#[derive(Clone, Copy, Debug)]
pub struct RobustParams {
    /// The mixed-precision solve attempted first.
    pub mixed: MixedParams,
    /// Checkpointed restarts (each with a tighter reliable-update
    /// threshold) before escalating to full double precision.
    pub max_restarts: usize,
    /// Factor applied to `delta` on each restart (< 1 tightens).
    pub delta_shrink: f64,
}

impl Default for RobustParams {
    fn default() -> Self {
        Self {
            mixed: MixedParams::default(),
            max_restarts: 2,
            delta_shrink: 0.25,
        }
    }
}

/// Fault-tolerant mixed-precision solve with checkpointed restarts and
/// precision escalation, returning a typed [`SolverOutcome`].
///
/// Strategy: run [`mixed_cg`]. On divergence (residual drift to NaN/∞ or a
/// breakdown), roll `x` back to the checkpoint and retry with a tighter
/// reliable-update threshold, up to `max_restarts` times. If the mixed
/// solver still cannot converge — persistent divergence or low-precision
/// stagnation — escalate to full double-precision [`cg`] from the best
/// finite iterate. Only when even the double-precision solve breaks down is
/// the solve declared [`SolverOutcome::Failed`].
pub fn mixed_cg_robust<L: Real, AH: LinearOp<f64> + ?Sized, AL: LinearOp<L> + ?Sized>(
    op_hi: &AH,
    op_lo: &AL,
    x: &mut [Spinor<f64>],
    b: &[Spinor<f64>],
    params: RobustParams,
) -> SolverOutcome {
    let checkpoint: Vec<Spinor<f64>> = x.to_vec();
    let mut total = SolveStats::new();
    let mut mixed_params = params.mixed;
    let mut restarts = 0usize;
    let reg = Registry::current();
    reg.counter("solver.robust.solves").inc();

    loop {
        let mut attempt = checkpoint.clone();
        let stats = mixed_cg(op_hi, op_lo, &mut attempt, b, mixed_params);
        total.iterations += stats.iterations;
        total.flops += stats.flops;
        total.reliable_updates += stats.reliable_updates;
        total.final_rel_residual = stats.final_rel_residual;
        if stats.converged {
            x.copy_from_slice(&attempt);
            total.converged = true;
            return SolverOutcome::Converged {
                stats: total,
                restarts,
                escalated: false,
            };
        }
        let diverged = stats.breakdown || !stats.final_rel_residual.is_finite();
        if diverged && restarts < params.max_restarts {
            // Residual drifted beyond recovery: discard the attempt (x
            // stays at the checkpoint) and retry with tighter reliable
            // updates.
            restarts += 1;
            mixed_params.delta *= params.delta_shrink;
            reg.counter("solver.robust.restarts").inc();
            // Shared restart tally across the whole recovery ladder —
            // precision escalation here, comm-failure checkpoint restores in
            // `cg_ft` — so dashboards see one `solver.restarts` stream.
            reg.counter("solver.restarts").inc();
            reg.event(
                "solver.restart",
                vec![
                    ("restart", Json::from(restarts)),
                    ("delta", Json::from(mixed_params.delta)),
                ],
            );
            continue;
        }
        if !diverged {
            // Stagnated but finite: keep the partial progress as the
            // starting guess for the escalation.
            x.copy_from_slice(&attempt);
        }
        break;
    }

    // Persistent divergence or low-precision stagnation: escalate to full
    // double precision from the best finite iterate.
    reg.counter("solver.robust.escalations").inc();
    reg.event(
        "solver.escalation",
        vec![("restarts", Json::from(restarts))],
    );
    let stats = cg(op_hi, x, b, params.mixed.outer);
    total.iterations += stats.iterations;
    total.flops += stats.flops;
    total.final_rel_residual = stats.final_rel_residual;
    total.breakdown = stats.breakdown;
    if stats.converged {
        total.converged = true;
        SolverOutcome::Converged {
            stats: total,
            restarts,
            escalated: true,
        }
    } else if stats.breakdown || !stats.final_rel_residual.is_finite() {
        reg.counter("solver.robust.failures").inc();
        SolverOutcome::Failed {
            stats: total,
            restarts,
            reason: "non-finite residual in full double precision",
        }
    } else {
        SolverOutcome::MaxIterations {
            stats: total,
            restarts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::{MobiusParams, NormalOp, PrecMobius, WilsonDirac};
    use crate::field::{FermionField, GaugeField};
    use crate::lattice::Lattice;
    use crate::solver::cg;

    #[test]
    fn mixed_cg_reaches_double_precision_tolerance() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge64 = GaugeField::<f64>::hot(&lat, 83);
        let gauge32 = gauge64.cast::<f32>();
        let d64 = WilsonDirac::new(&lat, &gauge64, 0.3, true);
        let d32 = WilsonDirac::new(&lat, &gauge32, 0.3, true);
        let n64 = NormalOp::new(&d64);
        let n32 = NormalOp::new(&d32);

        let b = FermionField::<f64>::gaussian(lat.volume(), 17).data;
        let mut x = vec![crate::spinor::Spinor::zero(); lat.volume()];
        let stats = mixed_cg(
            &n64,
            &n32,
            &mut x,
            &b,
            MixedParams {
                outer: CgParams {
                    tol: 1e-10,
                    max_iter: 10_000,
                },
                delta: 0.1,
                max_inner: 500,
            },
        );
        assert!(stats.converged, "{stats:?}");
        assert!(stats.final_rel_residual < 1e-10);
        assert!(
            stats.reliable_updates >= 2,
            "tolerance beyond f32 needs several reliable updates: {stats:?}"
        );
    }

    #[test]
    fn mixed_cg_matches_pure_double_solution() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge64 = GaugeField::<f64>::hot(&lat, 89);
        let gauge32 = gauge64.cast::<f32>();
        let params = MobiusParams::standard(4, 0.1);
        let p64 = PrecMobius::new(&lat, &gauge64, params);
        let p32 = PrecMobius::new(&lat, &gauge32, params);
        let n64 = NormalOp::new(&p64);
        let n32 = NormalOp::new(&p32);

        let b = FermionField::<f64>::gaussian(p64.vec_len(), 18).data;

        let mut x_double = vec![crate::spinor::Spinor::zero(); p64.vec_len()];
        let s1 = cg(&n64, &mut x_double, &b, CgParams::default());
        assert!(s1.converged);

        let mut x_mixed = vec![crate::spinor::Spinor::zero(); p64.vec_len()];
        let s2 = mixed_cg(&n64, &n32, &mut x_mixed, &b, MixedParams::default());
        assert!(s2.converged, "{s2:?}");

        let diff = crate::blas::sub(&x_double, &x_mixed);
        let rel = crate::blas::norm_sqr(&diff) / crate::blas::norm_sqr(&x_double);
        assert!(rel < 1e-16, "solutions must agree to tolerance: rel {rel}");
    }

    #[test]
    fn robust_solver_converges_without_escalation_on_healthy_input() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge64 = GaugeField::<f64>::hot(&lat, 83);
        let gauge32 = gauge64.cast::<f32>();
        let d64 = WilsonDirac::new(&lat, &gauge64, 0.3, true);
        let d32 = WilsonDirac::new(&lat, &gauge32, 0.3, true);
        let n64 = NormalOp::new(&d64);
        let n32 = NormalOp::new(&d32);
        let b = FermionField::<f64>::gaussian(lat.volume(), 21).data;
        let mut x = vec![crate::spinor::Spinor::zero(); lat.volume()];
        let outcome = mixed_cg_robust(&n64, &n32, &mut x, &b, RobustParams::default());
        match outcome {
            crate::solver::SolverOutcome::Converged {
                restarts,
                escalated,
                stats,
            } => {
                assert_eq!(restarts, 0);
                assert!(!escalated);
                assert!(stats.final_rel_residual < 1e-10);
            }
            other => panic!("healthy solve must converge cleanly: {other:?}"),
        }
    }

    #[test]
    fn robust_solver_fails_typed_on_nan_source() {
        // A NaN source cannot be saved by restarts or escalation: the
        // outcome must be a typed failure, never silent garbage or a panic.
        let lat = Lattice::new([2, 2, 2, 2]);
        let gauge64 = GaugeField::<f64>::cold(&lat);
        let gauge32 = gauge64.cast::<f32>();
        let d64 = WilsonDirac::new(&lat, &gauge64, 0.5, true);
        let d32 = WilsonDirac::new(&lat, &gauge32, 0.5, true);
        let n64 = NormalOp::new(&d64);
        let n32 = NormalOp::new(&d32);
        let mut b = FermionField::<f64>::gaussian(lat.volume(), 23).data;
        b[3].s[0].c[1].im = f64::NAN;
        let mut x = vec![crate::spinor::Spinor::zero(); lat.volume()];
        let outcome = mixed_cg_robust(&n64, &n32, &mut x, &b, RobustParams::default());
        match outcome {
            crate::solver::SolverOutcome::Failed { stats, .. } => {
                assert!(stats.breakdown);
                assert!(!outcome.is_converged());
            }
            other => panic!("NaN source must yield Failed, got {other:?}"),
        }
        // The iterate was rolled back, not poisoned.
        assert!(x.iter().all(|sp| sp
            .s
            .iter()
            .all(|cv| cv.c.iter().all(|z| z.re.is_finite() && z.im.is_finite()))));
    }

    /// An inner operator corrupted by a wrong overall normalization (e.g. a
    /// bad rescaling applied during a precision conversion). With `A_lo =
    /// c·A` and c = 0.4, the inner solve returns `d = 2.5·A⁻¹r`, so every
    /// correction overshoots and the true residual *grows* by 1.5× — a
    /// deterministic stall, independent of the gauge configuration.
    struct MisscaledOp<'a, D: crate::dirac::DiracOp<f32>>(NormalOp<'a, f32, D>, f32);

    impl<D: crate::dirac::DiracOp<f32>> LinearOp<f32> for MisscaledOp<'_, D> {
        fn vec_len(&self) -> usize {
            self.0.vec_len()
        }
        fn apply_block(
            &self,
            out: &mut [crate::spinor::Spinor<f32>],
            inp: &[crate::spinor::Spinor<f32>],
            nrhs: usize,
        ) {
            self.0.apply_block(out, inp, nrhs);
            for sp in out.iter_mut() {
                for cv in sp.s.iter_mut() {
                    for z in cv.c.iter_mut() {
                        z.re *= self.1;
                        z.im *= self.1;
                    }
                }
            }
        }
    }

    #[test]
    fn robust_solver_escalates_when_low_precision_stagnates() {
        // The mis-scaled inner operator makes the mixed solve diverge, so
        // the double-precision escalation path must finish the job.
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge64 = GaugeField::<f64>::hot(&lat, 97);
        let gauge32 = gauge64.cast::<f32>();
        let d64 = WilsonDirac::new(&lat, &gauge64, 0.3, true);
        let d32 = WilsonDirac::new(&lat, &gauge32, 0.3, true);
        let n64 = NormalOp::new(&d64);
        let n32 = MisscaledOp(NormalOp::new(&d32), 0.4);
        let b = FermionField::<f64>::gaussian(lat.volume(), 25).data;
        let mut x = vec![crate::spinor::Spinor::zero(); lat.volume()];
        let outcome = mixed_cg_robust(&n64, &n32, &mut x, &b, RobustParams::default());
        match outcome {
            crate::solver::SolverOutcome::Converged { escalated, .. } => {
                assert!(escalated, "stalled mixed solve must escalate");
            }
            crate::solver::SolverOutcome::MaxIterations { .. } => {
                panic!("escalated double CG should converge here")
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(outcome.stats().final_rel_residual < 1e-10);
    }
}
