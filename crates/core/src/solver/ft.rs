//! Fault-tolerant CG: checkpoint-restart over a fallible operator.
//!
//! [`cg_ft`] drives the one CG recurrence ([`super::cg`]'s core) against a
//! [`FallibleOp`] whose apply can fail with a typed
//! [`CommError`](crate::comms::CommError) (the sharded halo-exchange dslash
//! under fault injection). Every `checkpoint_every` iterations it snapshots
//! the full recurrence state
//! `(k, x, r, p, ρ)` — which determines the entire remaining iteration
//! sequence bit-for-bit — in memory, and optionally through a
//! [`CheckpointSink`] for durable CRC-protected storage. When an apply
//! fails:
//!
//! 1. the operator is asked to [`FallibleOp::recover`] — a no-op for
//!    transient wire faults, a grid degradation (rebuild on the surviving
//!    ranks) for [`CommError::RankLost`](crate::comms::CommError::RankLost);
//! 2. the recurrence state is restored from the last checkpoint (or
//!    re-initialized from the starting guess if none was taken), and
//!    the core is re-entered.
//!
//! Because the sharded apply is bit-identical at every rank grid and thread
//! width, the restored recurrence continues the *exact* bit sequence of an
//! undisturbed run: final residuals match the no-fault solve bit-for-bit,
//! checkpointing on or off, grid shrunk or not. The only cost of a fault is
//! the replayed iterations — `stats.iterations` counts total work (replays
//! included), so the wasted-work overhead of a fault schedule is directly
//! measurable against a clean run.
//!
//! Recovery publishes `solver.checkpoints` / `solver.restarts` counters and
//! `solver.checkpoint` / `solver.restore` events through obs, mirroring the
//! `comms.*` fault metrics one layer down.

use super::cg::{cg_core, FallibleOp, Recurrence};
use super::{record_solve, CgParams, SolverOutcome};
use crate::real::Real;
use crate::spinor::Spinor;
use obs::{Json, Registry};

/// One CG recurrence snapshot: everything needed to continue the iteration
/// sequence bit-exactly from iteration `iteration`.
#[derive(Clone, Debug, PartialEq)]
pub struct CgCheckpoint<R: Real> {
    /// Iteration count at snapshot time.
    pub iteration: usize,
    /// Residual norm-squared `ρ = ‖r‖²` (the recurrence scalar).
    pub rho: f64,
    /// Current solution estimate.
    pub x: Vec<Spinor<R>>,
    /// Current residual.
    pub r: Vec<Spinor<R>>,
    /// Current search direction.
    pub p: Vec<Spinor<R>>,
}

/// f64 components per spinor in the flat serialization (4 spins × 3 colors
/// × re/im).
pub const CKPT_SPINOR_F64: usize = 24;

impl<R: Real> CgCheckpoint<R> {
    /// Flatten to `[iteration, rho, n, x…, r…, p…]` (each spinor as
    /// [`CKPT_SPINOR_F64`] f64 components), the payload the io checkpoint
    /// container stores under CRC.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        let n = self.x.len();
        let mut out = Vec::with_capacity(3 + 3 * n * CKPT_SPINOR_F64);
        out.push(self.iteration as f64);
        out.push(self.rho);
        out.push(n as f64);
        for field in [&self.x, &self.r, &self.p] {
            for sp in field.iter() {
                for cv in &sp.s {
                    for z in &cv.c {
                        out.push(z.re.to_f64());
                        out.push(z.im.to_f64());
                    }
                }
            }
        }
        out
    }

    /// Rebuild from the flat layout; `None` on any shape violation: a
    /// header count (`iteration`, `n`) that is not a finite non-negative
    /// integer, or a length other than the one `n` implies. Every check
    /// runs before anything is allocated.
    pub fn from_f64_vec(data: &[f64]) -> Option<Self> {
        let count = |x: f64| {
            let exact = x >= 0.0 && x.fract() == 0.0 && x < usize::MAX as f64;
            exact.then_some(x as usize)
        };
        let iteration = count(*data.first()?)?;
        let rho = *data.get(1)?;
        let n = count(*data.get(2)?)?;
        let expected = n
            .checked_mul(3 * CKPT_SPINOR_F64)
            .and_then(|reals| reals.checked_add(3))?;
        if data.len() != expected {
            return None;
        }
        let mut fields: [Vec<Spinor<R>>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut at = 3;
        for field in fields.iter_mut() {
            field.reserve(n);
            for _ in 0..n {
                let mut sp = Spinor::<R>::zero();
                for cv in sp.s.iter_mut() {
                    for z in cv.c.iter_mut() {
                        z.re = R::from_f64(data[at]);
                        z.im = R::from_f64(data[at + 1]);
                        at += 2;
                    }
                }
                field.push(sp);
            }
        }
        let [x, r, p] = fields;
        Some(Self {
            iteration,
            rho,
            x,
            r,
            p,
        })
    }
}

/// Durable checkpoint storage the solver writes through (the io crate's
/// CRC-framed container on disk, or a test double). The solver always keeps
/// its latest checkpoint in memory; the sink is the layer that survives a
/// process death, which the in-memory fault simulation does not model — so
/// sink failures are reported but never abort the solve.
pub trait CheckpointSink<R: Real> {
    /// Persist `ckpt`. Errors are counted (`solver.checkpoint_sink_errors`)
    /// and otherwise ignored.
    fn store(&mut self, ckpt: &CgCheckpoint<R>) -> Result<(), String>;
}

/// Knobs of the fault-tolerant solve.
#[derive(Clone, Copy, Debug)]
pub struct FtParams {
    /// Inner CG stopping criteria (tolerance, recurrence-iteration budget).
    pub cg: CgParams,
    /// Snapshot the recurrence every this many iterations (0 disables
    /// checkpointing: every restart re-runs from the starting guess).
    pub checkpoint_every: usize,
    /// Comm-failure restarts tolerated before the solve is declared failed.
    pub max_comm_restarts: usize,
    /// Budget on *total* operator applications including replayed
    /// iterations (0 = unlimited) — the wasted-work ceiling the chaos sweep
    /// charges against. Exhausting it yields
    /// [`SolverOutcome::MaxIterations`].
    pub max_total_iters: usize,
}

impl Default for FtParams {
    fn default() -> Self {
        Self {
            cg: CgParams::default(),
            checkpoint_every: 25,
            max_comm_restarts: 8,
            max_total_iters: 0,
        }
    }
}

/// Checkpoint-restart CG for a Hermitian positive-definite [`FallibleOp`].
///
/// Runs the recurrence of [`super::cg`] (the same core), so with a
/// fault-free operator the iterates — and the final residual — are
/// identical to the plain solver's. See the module docs for the recovery
/// protocol.
pub fn cg_ft<R: Real, A: FallibleOp<R> + ?Sized>(
    op: &mut A,
    x: &mut [Spinor<R>],
    b: &[Spinor<R>],
    params: &FtParams,
    mut sink: Option<&mut dyn CheckpointSink<R>>,
) -> SolverOutcome {
    assert_eq!(x.len(), op.vec_len());
    let mut state = Recurrence::open(x, b, 1, params.cg.tol);
    let mut last_ckpt: Option<CgCheckpoint<R>> = None;
    let mut checkpoints = 0usize;
    let reg = Registry::current();

    let failure = if !state.cols[0].live {
        state.cols[0].stats.breakdown.then_some("non-finite source")
    } else {
        let x0 = state.x.to_vec();
        // One pass = one solve segment: establish the recurrence state
        // (from the last checkpoint, or r = b − A x₀ re-derived when none
        // exists: the whole history is replayed), then iterate until done
        // or a comm failure forces recovery + restore.
        loop {
            let established = match &last_ckpt {
                Some(c) => {
                    state.x.copy_from_slice(&c.x);
                    state.r.clone_from(&c.r);
                    state.p.clone_from(&c.p);
                    (state.cols[0].k, state.cols[0].rho) = (c.iteration, c.rho);
                    Ok(())
                }
                None => {
                    state.x.copy_from_slice(&x0);
                    state.start(op, b)
                }
            };
            // `max_total_iters` caps applies, replays included: it bounds
            // how far this segment may advance `k`.
            let col = &state.cols[0];
            let max_k = match params.max_total_iters {
                0 => params.cg.max_iter,
                total => {
                    (col.k + total.saturating_sub(col.stats.iterations)).min(params.cg.max_iter)
                }
            };
            // Snapshot on schedule, *before* the apply that might fail, so
            // a failure at iteration k replays at most `checkpoint_every − 1`
            // healthy iterations.
            let snapshot = |state: &Recurrence<'_, R>| {
                let col = &state.cols[0];
                if params.checkpoint_every == 0 || !col.k.is_multiple_of(params.checkpoint_every) {
                    return;
                }
                let ckpt = CgCheckpoint {
                    iteration: col.k,
                    rho: col.rho,
                    x: state.x.to_vec(),
                    r: state.r.clone(),
                    p: state.p.clone(),
                };
                checkpoints += 1;
                reg.counter("solver.checkpoints").inc();
                reg.event("solver.checkpoint", vec![("iteration", Json::from(col.k))]);
                if let Some(Err(msg)) = sink.as_deref_mut().map(|s| s.store(&ckpt)) {
                    reg.counter("solver.checkpoint_sink_errors").inc();
                    reg.event(
                        "solver.checkpoint_sink_error",
                        vec![("error", Json::from(msg))],
                    );
                }
                last_ckpt = Some(ckpt);
            };
            let run =
                established.and_then(|()| cg_core(op, &mut state, max_k, snapshot, |_, _| {}));
            let Err(e) = run else { break None };

            // Spend one comm restart, let the operator repair itself, and
            // record the recovery before restoring.
            let col = &mut state.cols[0];
            if col.stats.comm_restarts >= params.max_comm_restarts {
                break Some("comm-restart budget exhausted");
            }
            if op.recover(&e).is_err() {
                break Some("unrecoverable comm failure");
            }
            col.stats.comm_restarts += 1;
            reg.counter("solver.restarts").inc();
            reg.event(
                "solver.restore",
                vec![
                    ("restart", Json::from(col.stats.comm_restarts)),
                    ("iteration", Json::from(col.k)),
                    ("error", Json::from(e.to_string())),
                ],
            );
        }
    };

    let mut stats = state.cols[0].stats;
    stats.checkpoints = checkpoints;
    let restarts = stats.comm_restarts;
    record_solve("cg_ft", &stats);
    match failure.or((!stats.converged && stats.breakdown).then_some("breakdown")) {
        Some(reason) => SolverOutcome::Failed {
            stats,
            restarts,
            reason,
        },
        None if stats.converged => SolverOutcome::Converged {
            stats,
            restarts,
            escalated: false,
        },
        None => SolverOutcome::MaxIterations { stats, restarts },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comms::CommError;
    use crate::dirac::{LinearOp, NormalOp, WilsonDirac};
    use crate::field::{FermionField, GaugeField};
    use crate::lattice::Lattice;

    struct CountingSink {
        stored: Vec<usize>,
    }

    impl CheckpointSink<f64> for CountingSink {
        fn store(&mut self, ckpt: &CgCheckpoint<f64>) -> Result<(), String> {
            self.stored.push(ckpt.iteration);
            Ok(())
        }
    }

    /// A fallible wrapper that fails the apply at scripted call indices.
    struct Flaky<'a, A: LinearOp<f64>> {
        op: &'a A,
        calls: usize,
        fail_at: Vec<usize>,
    }

    impl<'a, A: LinearOp<f64>> FallibleOp<f64> for Flaky<'a, A> {
        fn vec_len(&self) -> usize {
            self.op.vec_len()
        }

        fn apply_block(
            &mut self,
            out: &mut [Spinor<f64>],
            inp: &[Spinor<f64>],
            nrhs: usize,
        ) -> Result<(), CommError> {
            let idx = self.calls;
            self.calls += 1;
            if self.fail_at.contains(&idx) {
                return Err(CommError::Missing {
                    rank: 0,
                    mu: 0,
                    side: 0,
                    attempts: 4,
                });
            }
            self.op.apply_block(out, inp, nrhs);
            Ok(())
        }

        fn flops_per_apply(&self) -> f64 {
            self.op.flops_per_apply()
        }

        fn recover(&mut self, _err: &CommError) -> Result<(), CommError> {
            Ok(())
        }
    }

    fn wilson_problem() -> (Lattice, GaugeField<f64>, Vec<Spinor<f64>>) {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 61);
        let b = FermionField::<f64>::gaussian(lat.volume(), 11).data;
        (lat, gauge, b)
    }

    #[test]
    fn checkpointed_restart_reaches_identical_residual_with_bounded_waste() {
        let (lat, gauge, b) = wilson_problem();
        let d = WilsonDirac::new(&lat, &gauge, 0.3, true);
        let normal = NormalOp::new(&d);

        let mut x_clean = vec![Spinor::zero(); lat.volume()];
        let clean = cg_ft(&mut &normal, &mut x_clean, &b, &FtParams::default(), None);
        let clean_iters = clean.stats().iterations;

        let params = FtParams {
            checkpoint_every: 10,
            ..FtParams::default()
        };
        let mut flaky = Flaky {
            op: &normal,
            calls: 0,
            fail_at: vec![18, 35],
        };
        let mut x_faulty = vec![Spinor::zero(); lat.volume()];
        let mut sink = CountingSink { stored: Vec::new() };
        let out = cg_ft(&mut flaky, &mut x_faulty, &b, &params, Some(&mut sink));

        assert!(out.is_converged(), "{out:?}");
        let SolverOutcome::Converged {
            stats, restarts, ..
        } = out
        else {
            unreachable!()
        };
        assert_eq!(restarts, 2);
        assert_eq!(stats.comm_restarts, 2);
        assert_eq!(
            stats.final_rel_residual.to_bits(),
            clean.stats().final_rel_residual.to_bits(),
            "restored recurrence must finish bit-identically"
        );
        assert_eq!(x_faulty, x_clean);
        // Replay cost is bounded by the checkpoint interval per failure.
        assert!(stats.iterations > clean_iters);
        assert!(
            stats.iterations <= clean_iters + 2 * params.checkpoint_every,
            "waste {} vs interval bound {}",
            stats.iterations - clean_iters,
            2 * params.checkpoint_every
        );
        assert_eq!(
            stats.checkpoints,
            sink.stored.len(),
            "every snapshot reaches the sink"
        );
        assert!(!sink.stored.is_empty());
    }

    #[test]
    fn no_checkpointing_restarts_from_scratch() {
        let (lat, gauge, b) = wilson_problem();
        let d = WilsonDirac::new(&lat, &gauge, 0.3, true);
        let normal = NormalOp::new(&d);

        let mut x_clean = vec![Spinor::zero(); lat.volume()];
        let clean = cg_ft(&mut &normal, &mut x_clean, &b, &FtParams::default(), None);
        let clean_iters = clean.stats().iterations;

        let params = FtParams {
            checkpoint_every: 0,
            ..FtParams::default()
        };
        let mut flaky = Flaky {
            op: &normal,
            calls: 0,
            fail_at: vec![30],
        };
        let mut x = vec![Spinor::zero(); lat.volume()];
        let out = cg_ft(&mut flaky, &mut x, &b, &params, None);
        assert!(out.is_converged(), "{out:?}");
        // The 29 pre-failure iterations are all wasted.
        assert!(
            out.stats().iterations >= clean_iters + 25,
            "{} vs clean {clean_iters}",
            out.stats().iterations
        );
        assert_eq!(
            out.stats().final_rel_residual.to_bits(),
            clean.stats().final_rel_residual.to_bits()
        );
    }

    #[test]
    fn restart_budget_exhaustion_is_a_typed_failure() {
        let (lat, gauge, b) = wilson_problem();
        let d = WilsonDirac::new(&lat, &gauge, 0.3, true);
        let normal = NormalOp::new(&d);
        let params = FtParams {
            max_comm_restarts: 2,
            ..FtParams::default()
        };
        let mut flaky = Flaky {
            op: &normal,
            calls: 0,
            fail_at: (0..1000).collect(), // every apply fails
        };
        let mut x = vec![Spinor::zero(); lat.volume()];
        match cg_ft(&mut flaky, &mut x, &b, &params, None) {
            SolverOutcome::Failed {
                restarts, reason, ..
            } => {
                assert_eq!(restarts, 2);
                assert_eq!(reason, "comm-restart budget exhausted");
            }
            other => panic!("want Failed, got {other:?}"),
        }
    }

    #[test]
    fn total_iteration_budget_caps_wasted_work() {
        let (lat, gauge, b) = wilson_problem();
        let d = WilsonDirac::new(&lat, &gauge, 0.3, true);
        let normal = NormalOp::new(&d);
        let params = FtParams {
            checkpoint_every: 0,
            max_total_iters: 40,
            ..FtParams::default()
        };
        // Repeated failure with no checkpointing: only ~35 productive
        // iterations fit the budget, so the solve must give up.
        let mut flaky = Flaky {
            op: &normal,
            calls: 0,
            fail_at: vec![20, 41],
        };
        let mut x = vec![Spinor::zero(); lat.volume()];
        match cg_ft(&mut flaky, &mut x, &b, &params, None) {
            SolverOutcome::MaxIterations { stats, .. } => {
                assert!(stats.iterations <= 40, "{}", stats.iterations);
            }
            other => panic!("want MaxIterations, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_round_trips_through_f64() {
        let ckpt = CgCheckpoint::<f64> {
            iteration: 17,
            rho: 0.125,
            x: FermionField::<f64>::gaussian(6, 1).data,
            r: FermionField::<f64>::gaussian(6, 2).data,
            p: FermionField::<f64>::gaussian(6, 3).data,
        };
        let flat = ckpt.to_f64_vec();
        assert_eq!(flat.len(), 3 + 3 * 6 * CKPT_SPINOR_F64);
        let back = CgCheckpoint::<f64>::from_f64_vec(&flat).unwrap();
        assert_eq!(back, ckpt);
        assert!(CgCheckpoint::<f64>::from_f64_vec(&flat[..flat.len() - 1]).is_none());
    }

    /// A hostile payload decodes to `None` or to a well-formed checkpoint,
    /// never a panic: header counts that overflow the length arithmetic or
    /// do not fit a `usize`, every truncation, every single-bit flip of a
    /// header word.
    #[test]
    fn hostile_checkpoint_payloads_never_panic() {
        for header in [
            [0.0, 0.0, (1u64 << 61) as f64],
            [0.0, 0.0, 1e30],
            [0.0, 0.0, f64::NAN],
            [0.0, 0.0, -1.0],
            [0.0, 0.0, 0.5],
            [f64::INFINITY, 0.0, 0.0],
        ] {
            assert!(
                CgCheckpoint::<f64>::from_f64_vec(&header).is_none(),
                "{header:?}"
            );
        }
        let flat = CgCheckpoint::<f64> {
            iteration: 9,
            rho: 0.5,
            x: FermionField::<f64>::gaussian(2, 4).data,
            r: FermionField::<f64>::gaussian(2, 5).data,
            p: FermionField::<f64>::gaussian(2, 6).data,
        }
        .to_f64_vec();
        for len in 0..flat.len() {
            assert!(
                CgCheckpoint::<f64>::from_f64_vec(&flat[..len]).is_none(),
                "{len}"
            );
        }
        for word in 0..3 {
            for bit in 0..64 {
                let mut data = flat.clone();
                data[word] = f64::from_bits(data[word].to_bits() ^ (1 << bit));
                if let Some(c) = CgCheckpoint::<f64>::from_f64_vec(&data) {
                    assert!(c.x.len() == 2 && c.r.len() == 2 && c.p.len() == 2);
                }
            }
        }
    }
}
