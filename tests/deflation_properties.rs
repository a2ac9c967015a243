//! Mathematical contracts of the low-mode deflation subsystem.
//!
//! The [`Deflation`] projector `P = V V†` over Lanczos eigenpairs of the
//! Hermitian positive-definite `D†D` must be idempotent and Hermitian (to
//! the accuracy of the computed subspace), removing the subspace component
//! must never grow a residual, and the eigenpairs themselves must satisfy
//! the advertised `‖A v − λ v‖` bound. The retirement test pins the
//! solver-side contract: a column that converges and retires mid-block is
//! never written again, so its bits match a solo solve exactly.

use lqcd::core::prelude::*;
use lqcd::core::solver::lanczos;
use obs::{assert_event_count, Registry};

/// Shared 4×4×2×4 Wilson normal-operator rig with a moderately light mass,
/// so the low modes carry real weight in random sources.
struct Rig {
    lat: Lattice,
    gauge: GaugeField<f64>,
}

fn rig() -> Rig {
    let lat = Lattice::new([4, 4, 2, 4]);
    let gauge = GaugeField::<f64>::hot(&lat, 51);
    Rig { lat, gauge }
}

#[test]
fn projector_is_idempotent_and_hermitian() {
    let r = rig();
    let d = WilsonDirac::new(&r.lat, &r.gauge, 0.1, true);
    let a = NormalOp::new(&d);
    let v = r.lat.volume();
    let defl = Deflation::new(lanczos_lowest(&a, 6, 70, 11));
    assert_eq!(defl.n_modes(), 6);

    let x = FermionField::<f64>::gaussian(v, 400).data;
    let y = FermionField::<f64>::gaussian(v, 401).data;

    // Idempotence: P(Px) == Px up to the basis orthonormality error.
    let mut px = vec![Spinor::zero(); v];
    let mut ppx = vec![Spinor::zero(); v];
    defl.apply_projector(&mut px, &x);
    defl.apply_projector(&mut ppx, &px);
    let mut diff = ppx.clone();
    blas::axpy(-1.0, &px, &mut diff);
    let rel = (blas::norm_sqr(&diff) / blas::norm_sqr(&px)).sqrt();
    assert!(rel < 1e-10, "P² deviates from P by {rel:e}");

    // Hermiticity: ⟨y, Px⟩ == ⟨Py, x⟩ to rounding.
    let mut py = vec![Spinor::zero(); v];
    defl.apply_projector(&mut py, &y);
    let lhs = blas::dot(&y, &px);
    let rhs = blas::dot(&py, &x);
    let scale = blas::norm_sqr(&x).sqrt() * blas::norm_sqr(&y).sqrt();
    assert!(
        (lhs - rhs).abs() / scale < 1e-12,
        "⟨y,Px⟩={lhs:?} vs ⟨Py,x⟩={rhs:?}"
    );
}

#[test]
fn projecting_out_never_grows_the_residual() {
    let r = rig();
    let d = WilsonDirac::new(&r.lat, &r.gauge, 0.05, true);
    let a = NormalOp::new(&d);
    let v = r.lat.volume();
    let defl = Deflation::new(lanczos_lowest(&a, 6, 70, 11));

    for seed in [410u64, 411, 412] {
        let mut res = FermionField::<f64>::gaussian(v, seed).data;
        let before = blas::norm_sqr(&res).sqrt();
        defl.project_out(&mut res);
        let after = blas::norm_sqr(&res).sqrt();
        assert!(
            after <= before * (1.0 + 1e-12),
            "seed {seed}: ‖(1−P)r‖={after} grew past ‖r‖={before}"
        );
        // A Gaussian source always overlaps the low modes: the removal
        // must be strict, not a no-op.
        assert!(
            after < before * 0.999999,
            "seed {seed}: projection removed nothing"
        );
    }
}

#[test]
fn restarted_lanczos_pairs_meet_the_residual_bound() {
    let r = rig();
    let d = WilsonDirac::new(&r.lat, &r.gauge, 0.1, true);
    let a = NormalOp::new(&d);
    let v = r.lat.volume();
    let resid_tol = 1e-3;
    let pairs = lanczos(
        &a,
        &LanczosParams::new(4, 80, 7).with_restarts(3, resid_tol),
    );
    assert_eq!(pairs.len(), 4);

    let mut prev = f64::NEG_INFINITY;
    for (k, p) in pairs.iter().enumerate() {
        assert!(p.value > 0.0, "D†D eigenvalues are positive");
        assert!(p.value >= prev, "pairs must come back ascending");
        prev = p.value;
        let mut av = vec![Spinor::zero(); v];
        a.apply(&mut av, &p.vector);
        blas::axpy(-p.value, &p.vector, &mut av);
        let res = blas::norm_sqr(&av).sqrt();
        let bound = resid_tol * p.value.abs().max(1.0);
        assert!(
            res <= bound,
            "pair {k}: ‖Av−λv‖={res:e} exceeds the accepted bound {bound:e}"
        );
        let nrm = blas::norm_sqr(&p.vector).sqrt();
        assert!((nrm - 1.0).abs() < 1e-12, "pair {k} is not unit norm");
    }
}

/// A column built from the lowest eigenvector converges almost instantly;
/// the other column keeps the block iterating long after. The early
/// column's retired bits must match a solo solve of the same source
/// exactly — proof it was never written again after retirement.
#[test]
fn retired_column_is_bit_stable_under_continued_iteration() {
    let r = rig();
    let d = WilsonDirac::new(&r.lat, &r.gauge, 0.1, true);
    let a = NormalOp::new(&d);
    let v = r.lat.volume();
    let modes = lanczos_lowest(&a, 2, 60, 9);

    let easy = modes[0].vector.clone(); // an eigenvector: CG solves it in O(1) iterations
    let hard = FermionField::<f64>::gaussian(v, 430).data;
    let bb = BlockSpinor::from_columns(&[easy.clone(), hard.clone()]);
    let params = CgParams::default();

    let reg = Registry::new();
    let (stats, xb) = {
        let _guard = reg.install_scoped();
        let mut xb = BlockSpinor::zeros(v, 2);
        let stats = cg_block(&mut &a, &mut xb, &bb, params);
        (stats, xb)
    };
    assert!(stats[0].converged && stats[1].converged);
    assert!(
        stats[0].iterations + 5 < stats[1].iterations,
        "the eigenvector column must retire far earlier ({} vs {})",
        stats[0].iterations,
        stats[1].iterations
    );
    // One retirement event per column, each carrying its own iteration
    // count.
    assert_event_count!(reg, "solver.cg_block.retire", 2);

    // The retired column's bits equal the solo solve that stopped at the
    // same iteration — continued block iteration never touched it.
    let mut solo = vec![Spinor::zero(); v];
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
