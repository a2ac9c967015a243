//! Bit-exactness suite for the batched multi-RHS solver path.
//!
//! [`cg_block`] promises that column `j` of a block solve — solution bits,
//! final residual, per-RHS iteration count, flop ledger — is *identical* to
//! running [`cg`] on that column alone, at every block size, in both
//! precisions, at any thread-pool width, and over the sharded halo-exchange
//! operator under any communication policy; a column that retires early
//! keeps its bits while the rest of the block iterates on. These tests pin
//! that contract; a single flipped bit anywhere in the blocked dslash, the
//! column BLAS, or the batched halo frames fails them.
//!
//! All four CG drivers ([`cg`], [`cg_block`], [`cg_ft`], [`mixed_cg`]) run
//! one recurrence core, so the same matrix also pins `cg_ft` on a fault-free
//! operator to `cg`, and one table walks every exit condition of the core
//! through every driver.

use lqcd::core::comms::{policy_from_index, CommError, ShardedNormal};
use lqcd::core::prelude::*;
use lqcd::core::solver::{cg_ft, FallibleOp, FtParams, SolverOutcome};
use obs::{assert_event_count, Registry};

fn at_width<R: Send>(w: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("width handle")
        .install(op)
}

/// Gaussian sources with per-column seeds so every block size slices the
/// same underlying set.
fn sources(n: usize, nrhs: usize, seed0: u64) -> Vec<Vec<Spinor<f64>>> {
    (0..nrhs)
        .map(|j| FermionField::<f64>::gaussian(n, seed0 + j as u64).data)
        .collect()
}

/// Run `cg_block` at block size `nrhs` over the leading columns and compare
/// every column against its sequential solve, bit for bit.
fn assert_block_matches_sequential<R: Real>(
    normal: &NormalOp<'_, R, impl DiracOp<R>>,
    cols: &[Vec<Spinor<R>>],
    params: CgParams,
) {
    let bb = BlockSpinor::from_columns(cols);
    let mut xb = BlockSpinor::zeros(cols[0].len(), cols.len());
    let block_stats = cg_block(&mut &*normal, &mut xb, &bb, params);

    for (j, c) in cols.iter().enumerate() {
        let mut xs = vec![Spinor::zero(); c.len()];
        let seq = cg(normal, &mut xs, c, params);
        assert!(seq.converged, "sequential baseline must converge");
        assert_eq!(
            block_stats[j],
            seq,
            "nrhs={}: stats of column {j} diverge",
            cols.len()
        );
        assert_eq!(
            block_stats[j].final_rel_residual.to_bits(),
            seq.final_rel_residual.to_bits(),
            "nrhs={}: residual of column {j} is not bit-identical",
            cols.len()
        );
        assert_eq!(
            xb.col(j),
            xs,
            "nrhs={}: solution of column {j} is not bit-identical",
            cols.len()
        );

        // The fault-tolerant driver on a fault-free operator is the same
        // solve, snapshots or not (they only add to the `checkpoints` tally).
        for checkpoint_every in [0usize, 7] {
            let ft = FtParams {
                cg: params,
                checkpoint_every,
                ..FtParams::default()
            };
            let mut xf = vec![Spinor::zero(); c.len()];
            let out = cg_ft(&mut &*normal, &mut xf, c, &ft, None);
            assert!(
                matches!(out, SolverOutcome::Converged { restarts: 0, .. }),
                "{out:?}"
            );
            let stats = *out.stats();
            assert_eq!(stats.checkpoints > 0, checkpoint_every > 0);
            assert_eq!(
                SolveStats {
                    checkpoints: 0,
                    ..stats
                },
                seq,
                "cg_ft (every {checkpoint_every}): stats of column {j} diverge"
            );
            assert_eq!(
                stats.final_rel_residual.to_bits(),
                seq.final_rel_residual.to_bits()
            );
            assert_eq!(
                xf, xs,
                "cg_ft (every {checkpoint_every}): solution of column {j}"
            );
        }
    }
}

#[test]
fn every_block_size_matches_sequential_cg_f64() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 31);
    let d = WilsonDirac::new(&lat, &gauge, 0.25, true);
    let normal = NormalOp::new(&d);
    let cols = sources(lat.volume(), 12, 300);
    for nrhs in [1usize, 2, 4, 12] {
        assert_block_matches_sequential(&normal, &cols[..nrhs], CgParams::default());
    }
}

#[test]
fn every_block_size_matches_sequential_cg_f32() {
    let lat = Lattice::new([4, 4, 2, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 33).cast::<f32>();
    let d = WilsonDirac::new(&lat, &gauge, 0.3, true);
    let normal = NormalOp::new(&d);
    let cols: Vec<Vec<Spinor<f32>>> = (0..4)
        .map(|j| FermionField::<f32>::gaussian(lat.volume(), 310 + j as u64).data)
        .collect();
    // Single precision stalls near its epsilon; stop well above it.
    let params = CgParams {
        tol: 1e-4,
        max_iter: 5_000,
    };
    for nrhs in [1usize, 2, 4] {
        let mut xb = BlockSpinor::zeros(lat.volume(), nrhs);
        let sub = BlockSpinor::from_columns(&cols[..nrhs]);
        let block_stats = cg_block(&mut &normal, &mut xb, &sub, params);
        for j in 0..nrhs {
            let mut xs = vec![Spinor::zero(); lat.volume()];
            let seq = cg(&normal, &mut xs, &cols[j], params);
            assert!(seq.converged);
            assert_eq!(block_stats[j], seq, "f32 nrhs={nrhs}: stats of column {j}");
            assert_eq!(xb.col(j), xs, "f32 nrhs={nrhs}: solution of column {j}");
        }
    }
}

#[test]
fn thread_width_does_not_change_block_bits() {
    let lat = Lattice::new([4, 4, 2, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 35);
    let cols = sources(lat.volume(), 4, 350);
    let bb = BlockSpinor::from_columns(&cols);

    let solve = |w: usize| {
        at_width(w, || {
            let d = WilsonDirac::new(&lat, &gauge, 0.2, true);
            let normal = NormalOp::new(&d);
            let mut xb = BlockSpinor::zeros(lat.volume(), cols.len());
            let stats = cg_block(&mut &normal, &mut xb, &bb, CgParams::default());
            (stats, xb)
        })
    };
    let (stats1, x1) = solve(1);
    let (stats4, x4) = solve(4);
    assert_eq!(
        stats1, stats4,
        "per-RHS stats must not depend on pool width"
    );
    assert_eq!(
        x1.data(),
        x4.data(),
        "block solutions must not depend on pool width"
    );
    assert!(stats1.iter().all(|s| s.converged));
}

/// A column started from a good guess (a looser solve of its own source)
/// converges after a few iterations; the other column, started from zero,
/// keeps the block iterating long after. The early column's retired bits
/// must match a solo solve from the same guess exactly — proof it was never
/// written again after retirement.
#[test]
fn retired_column_is_bit_stable_under_continued_iteration() {
    let lat = Lattice::new([4, 4, 2, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 51);
    let d = WilsonDirac::new(&lat, &gauge, 0.1, true);
    let a = NormalOp::new(&d);
    let v = lat.volume();
    let params = CgParams::default();

    let easy = FermionField::<f64>::gaussian(v, 429).data;
    let hard = FermionField::<f64>::gaussian(v, 430).data;
    let mut guess = vec![Spinor::zero(); v];
    let loose = CgParams {
        tol: 1e-6,
        ..params
    };
    assert!(cg(&a, &mut guess, &easy, loose).converged);

    let bb = BlockSpinor::from_columns(&[easy.clone(), hard.clone()]);
    let reg = Registry::new();
    let (stats, xb) = {
        let _guard = reg.install_scoped();
        let mut xb = BlockSpinor::from_columns(&[guess.clone(), vec![Spinor::zero(); v]]);
        let stats = cg_block(&mut &a, &mut xb, &bb, params);
        (stats, xb)
    };
    assert!(stats[0].converged && stats[1].converged);
    assert!(
        stats[0].iterations + 5 < stats[1].iterations,
        "the warm-started column must retire far earlier ({} vs {})",
        stats[0].iterations,
        stats[1].iterations
    );
    // One retirement event per column, each carrying its own iteration
    // count.
    assert_event_count!(reg, "solver.cg_block.retire", 2);

    // The retired column's bits equal the solo solve that stopped at the
    // same iteration — continued block iteration never touched it.
    let mut solo = guess;
    let solo_stats = cg(&a, &mut solo, &easy, params);
    assert_eq!(stats[0], solo_stats);
    assert_eq!(
        xb.col(0),
        solo,
        "retired column was modified after retirement"
    );

    // And the late column still matches its own solo solve.
    let mut solo_hard = vec![Spinor::zero(); v];
    let hard_stats = cg(&a, &mut solo_hard, &hard, params);
    assert_eq!(stats[1], hard_stats);
    assert_eq!(xb.col(1), solo_hard);
}

/// The batched halo exchange carries all columns in one frame per face; the
/// solve over the sharded Möbius normal operator must be bit-identical
/// across communication policies *and* to the single-domain sequential
/// baseline, at both tested pool widths.
#[test]
fn comm_policies_and_widths_agree_with_single_domain_sequential() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 37);
    let params = MobiusParams::standard(4, 0.1);
    let nrhs = 3;
    let n = params.l5 * lat.volume();
    let cols: Vec<Vec<Spinor<f64>>> = (0..nrhs)
        .map(|j| FermionField::<f64>::gaussian(n, 370 + j as u64).data)
        .collect();
    let bb = BlockSpinor::from_columns(&cols);
    let cg_params = CgParams {
        tol: 1e-8,
        max_iter: 2_000,
    };

    // Sequential single-domain baseline.
    let d = MobiusDirac::new(&lat, &gauge, params);
    let normal = NormalOp::new(&d);
    let mut baseline_stats = Vec::new();
    let mut baseline_x = Vec::new();
    for c in &cols {
        let mut x = vec![Spinor::zero(); n];
        let seq = cg(&normal, &mut x, c, cg_params);
        assert!(seq.converged, "Möbius baseline must converge");
        baseline_stats.push(seq);
        baseline_x.push(x);
    }

    for policy_idx in [0usize, 3] {
        for width in [1usize, 4] {
            let (stats, xb) = at_width(width, || {
                let mut op = ShardedNormal::new(
                    &lat,
                    &gauge,
                    params,
                    [2, 2, 1, 1],
                    4,
                    policy_from_index(policy_idx),
                )
                .expect("grid divides the lattice");
                let mut xb = BlockSpinor::zeros(n, nrhs);
                let stats = cg_block(&mut op, &mut xb, &bb, cg_params);
                (stats, xb)
            });
            for j in 0..nrhs {
                assert_eq!(
                    stats[j], baseline_stats[j],
                    "policy {policy_idx} width {width}: stats of column {j}"
                );
                assert_eq!(
                    xb.col(j),
                    baseline_x[j],
                    "policy {policy_idx} width {width}: solution of column {j}"
                );
            }
        }
    }
}

/// `−A`: every `p·Ap` is negative, so CG must stop with a typed breakdown.
struct Negated<'a, A>(&'a A);

impl<R: Real, A: LinearOp<R>> LinearOp<R> for Negated<'_, A> {
    fn vec_len(&self) -> usize {
        self.0.vec_len()
    }
    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.0.apply_block(out, inp, nrhs);
        blas::scal(-1.0, out);
    }
}

/// Fails the block apply at one scripted call index, then recovers.
struct FailsAt<'a, A> {
    op: &'a A,
    calls: usize,
    fail_at: usize,
}

impl<A: LinearOp<f64>> FallibleOp<f64> for FailsAt<'_, A> {
    fn vec_len(&self) -> usize {
        self.op.vec_len()
    }
    fn apply_block(
        &mut self,
        out: &mut [Spinor<f64>],
        inp: &[Spinor<f64>],
        nrhs: usize,
    ) -> Result<(), CommError> {
        self.calls += 1;
        if self.calls - 1 == self.fail_at {
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

/// How a solve ended, in one vocabulary for all drivers.
fn exit_of(s: &SolveStats) -> &'static str {
    match (s.converged, s.breakdown) {
        (true, _) => "converged",
        (false, true) => "breakdown",
        (false, false) => "unconverged",
    }
}

fn ft_exit_of(out: &SolverOutcome) -> &'static str {
    match out {
        SolverOutcome::Converged { .. } => "converged",
        SolverOutcome::MaxIterations { .. } => "unconverged",
        SolverOutcome::Failed { reason, .. } => reason,
    }
}

/// One exit condition: what is wrong with the input, and how each driver
/// must report it. `cg_block` is held to `cg` column by column instead.
struct ExitCase {
    name: &'static str,
    /// Replaces column 0's source.
    source: Option<f64>,
    /// Poisons column 0's initial guess.
    guess: Option<f64>,
    max_iter: usize,
    indefinite: bool,
    /// `(exit, iterations)` of `cg` (and so of every `cg_block` column that
    /// shares the condition).
    cg: (&'static str, usize),
    cg_ft: &'static str,
    mixed: &'static str,
}

const EXIT_CASES: [ExitCase; 7] = [
    ExitCase {
        name: "zero source",
        source: Some(0.0),
        guess: None,
        max_iter: 10_000,
        indefinite: false,
        cg: ("converged", 0),
        cg_ft: "converged",
        mixed: "converged",
    },
    ExitCase {
        name: "NaN source",
        source: Some(f64::NAN),
        guess: None,
        max_iter: 10_000,
        indefinite: false,
        cg: ("breakdown", 0),
        cg_ft: "non-finite source",
        mixed: "breakdown",
    },
    ExitCase {
        name: "∞ source",
        source: Some(f64::INFINITY),
        guess: None,
        max_iter: 10_000,
        indefinite: false,
        cg: ("breakdown", 0),
        cg_ft: "non-finite source",
        mixed: "breakdown",
    },
    ExitCase {
        // Every entry is finite, but ‖b‖² is not.
        name: "overflowing source",
        source: Some(1e200),
        guess: None,
        max_iter: 10_000,
        indefinite: false,
        cg: ("breakdown", 0),
        cg_ft: "non-finite source",
        mixed: "breakdown",
    },
    ExitCase {
        name: "∞ initial guess",
        source: None,
        guess: Some(f64::INFINITY),
        max_iter: 10_000,
        indefinite: false,
        cg: ("breakdown", 0),
        cg_ft: "breakdown",
        mixed: "breakdown",
    },
    ExitCase {
        name: "max_iter = 3",
        source: None,
        guess: None,
        max_iter: 3,
        indefinite: false,
        cg: ("unconverged", 3),
        cg_ft: "unconverged",
        mixed: "unconverged",
    },
    ExitCase {
        name: "indefinite operator",
        source: None,
        guess: None,
        max_iter: 10_000,
        indefinite: true,
        // The first p·Ap is negative. In mixed CG that only ends the inner
        // sequence; the reliable update then sees no progress and gives up
        // with a finite residual.
        cg: ("breakdown", 1),
        cg_ft: "breakdown",
        mixed: "unconverged",
    },
];

/// Every way out of the recurrence, through every driver: the outcome is
/// typed as the table says and nothing panics.
#[test]
fn every_exit_condition_is_typed_in_every_driver() {
    let lat = Lattice::new([4, 4, 2, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 5);
    let gauge32 = gauge.cast::<f32>();
    let d = PrecWilson::new(&lat, &gauge, 0.2, true);
    let d32 = PrecWilson::new(&lat, &gauge32, 0.2, true);
    let (normal, normal32) = (NormalOp::new(&d), NormalOp::new(&d32));
    let n = normal.vec_len();

    for case in &EXIT_CASES {
        let name = case.name;
        let mut cols = sources(n, 3, 77);
        if let Some(v) = case.source {
            cols[0].fill(Spinor::zero());
            cols[0][0].s[0].c[0].re = v;
        }
        // A non-zero guess everywhere, so "zero source ⇒ x = 0" is seen.
        let mut guesses = sources(n, 3, 177);
        if let Some(v) = case.guess {
            guesses[0][0].s[0].c[0].re = v;
        }
        let params = CgParams {
            tol: 1e-10,
            max_iter: case.max_iter,
        };
        let (neg, neg32) = (Negated(&normal), Negated(&normal32));
        let (op, op32): (&dyn LinearOp<f64>, &dyn LinearOp<f32>) = if case.indefinite {
            (&neg, &neg32)
        } else {
            (&normal, &normal32)
        };

        // cg: the reference for the typed outcome.
        let seq: Vec<(SolveStats, Vec<Spinor<f64>>)> = (0..3)
            .map(|j| {
                let mut x = guesses[j].clone();
                (cg(op, &mut x, &cols[j], params), x)
            })
            .collect();
        let (s0, x0) = &seq[0];
        assert_eq!((exit_of(s0), s0.iterations), case.cg, "{name}: cg {s0:?}");
        let corrupt = |v: f64| !(v * v).is_finite();
        if case.source.or(case.guess).is_some_and(corrupt) {
            assert_eq!(s0.final_rel_residual, f64::INFINITY, "{name}: never NaN");
        }
        if case.source == Some(0.0) {
            assert_eq!(blas::norm_sqr(x0), 0.0, "{name}: zero source ⇒ zero x");
            assert_eq!(s0.final_rel_residual, 0.0);
        } else if case.source.is_some() {
            assert_eq!(x0, &guesses[0], "{name}: a corrupt source leaves x alone");
        }

        // cg_block: every column, alone or next to healthy neighbours, is
        // its own cg solve bit for bit.
        for nrhs in [1usize, 3] {
            let bb = BlockSpinor::from_columns(&cols[..nrhs]);
            let mut xb = BlockSpinor::from_columns(&guesses[..nrhs]);
            let stats = cg_block(&mut &*op, &mut xb, &bb, params);
            for j in 0..nrhs {
                assert_eq!(stats[j], seq[j].0, "{name}: cg_block({nrhs}) column {j}");
                assert_eq!(xb.col(j), seq[j].1, "{name}: cg_block({nrhs}) x {j}");
            }
        }

        // cg_ft.
        let ft = FtParams {
            cg: params,
            ..FtParams::default()
        };
        let mut x = guesses[0].clone();
        let out = cg_ft(&mut &*op, &mut x, &cols[0], &ft, None);
        assert_eq!(ft_exit_of(&out), case.cg_ft, "{name}: cg_ft {out:?}");
        assert_eq!(out.stats().iterations, case.cg.1, "{name}: cg_ft");
        assert_eq!(x, *x0, "{name}: cg_ft leaves the same x as cg");

        // mixed_cg.
        let mut x = guesses[0].clone();
        let mixed_params = MixedParams {
            outer: params,
            ..MixedParams::default()
        };
        let s = mixed_cg(op, op32, &mut x, &cols[0], mixed_params);
        assert_eq!(exit_of(&s), case.mixed, "{name}: mixed_cg {s:?}");
        assert_eq!(s.iterations, case.cg.1, "{name}: mixed_cg");
        assert!(!s.final_rel_residual.is_nan(), "{name}: mixed_cg {s:?}");

        // The normal-equation wrappers report ∞, never NaN, for a corrupt
        // source — cgne and the mixed Möbius propagator path alike.
        if case.source.is_some_and(corrupt) {
            let mut x = vec![Spinor::zero(); n];
            let s = cgne(&d, &mut x, &cols[0], params);
            assert_eq!(exit_of(&s), "breakdown", "{name}: cgne {s:?}");
            assert_eq!(s.final_rel_residual, f64::INFINITY, "{name}: cgne");
            assert!(s.iterations < 10, "{name}: cgne must not spin: {s:?}");

            let kind = SolverKind::MobiusMixed {
                params: MobiusParams::standard(2, 0.3),
            };
            let mut src = FermionField::zeros(lat.volume());
            src.data[0].s[0].c[0].re = case.source.unwrap_or(0.0);
            let (_, s) = PropagatorSolver::new(&lat, &gauge, kind).solve(&src);
            assert_eq!(exit_of(&s), "breakdown", "{name}: propagator {s:?}");
            assert_eq!(s.final_rel_residual, f64::INFINITY, "{name}: propagator");
        }
    }

    // A failed apply (only fallible operators have one): on the initial
    // residual apply and on a later one.
    let cols = sources(n, 3, 77);
    let params = CgParams::default();
    let mut x_clean = vec![Spinor::zero(); n];
    let clean = cg(&normal, &mut x_clean, &cols[0], params);
    for fail_at in [0usize, 4] {
        // cg_block cannot continue deterministically: every column is a
        // breakdown carrying the residual it had reached.
        for nrhs in [1usize, 3] {
            let mut flaky = FailsAt {
                op: &normal,
                calls: 0,
                fail_at,
            };
            let bb = BlockSpinor::from_columns(&cols[..nrhs]);
            let mut xb = BlockSpinor::zeros(n, nrhs);
            for s in cg_block(&mut flaky, &mut xb, &bb, params) {
                assert_eq!(exit_of(&s), "breakdown", "fail@{fail_at}: {s:?}");
                assert_eq!(s.iterations, fail_at.saturating_sub(1));
                assert_eq!(s.final_rel_residual.is_finite(), fail_at > 0);
            }
        }
        // cg_ft recovers, replays, and lands on the fault-free answer.
        let mut flaky = FailsAt {
            op: &normal,
            calls: 0,
            fail_at,
        };
        let mut x = vec![Spinor::zero(); n];
        let out = cg_ft(&mut flaky, &mut x, &cols[0], &FtParams::default(), None);
        assert!(
            matches!(out, SolverOutcome::Converged { restarts: 1, .. }),
            "fail@{fail_at}: {out:?}"
        );
        assert_eq!(
            out.stats().final_rel_residual.to_bits(),
            clean.final_rel_residual.to_bits()
        );
        assert_eq!(x, x_clean, "fail@{fail_at}: cg_ft solution");
    }
}
