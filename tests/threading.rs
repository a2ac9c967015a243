//! Determinism suite for the threaded execution layer.
//!
//! The vendored rayon executor promises that every kernel result is
//! bit-identical at any pool width: chunk shapes are derived from input
//! length only, chunks are reduced sequentially, and partials combine in
//! index order. These tests pin that contract at the level the physics
//! cares about — BLAS reductions, a full mixed-precision CG solve, and
//! timeslice-binned contractions — by running the identical computation
//! under `install` scopes of width 1, 2, and 8 and comparing raw bits.

use lqcd::core::prelude::*;
use lqcd::core::prop::Propagator;
use lqcd::core::spinor::Spinor;

fn at_width<R: Send>(w: usize, op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(w)
        .build()
        .expect("width handle")
        .install(op)
}

/// Run `op` at each of `widths` and require bitwise-equal results.
fn agree_at<R, F>(widths: &[usize], op: F) -> R
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn() -> R + Send + Sync,
{
    let first = at_width(widths[0], &op);
    for &w in &widths[1..] {
        assert_eq!(
            first,
            at_width(w, &op),
            "width {} vs {w} disagree",
            widths[0]
        );
    }
    first
}

/// Run `op` at widths 1, 2, and 8 and require bitwise-equal results.
fn widths_agree<R, F>(op: F) -> R
where
    R: PartialEq + std::fmt::Debug + Send,
    F: Fn() -> R + Send + Sync,
{
    agree_at(&[1, 2, 8], op)
}

fn bits<R: Real>(v: &[Spinor<R>]) -> Vec<u64> {
    // Spinor layout: 4 spin components x 3 colors x (re, im).
    v.iter()
        .flat_map(|s| {
            s.s.iter().flat_map(|cv| {
                cv.c.iter()
                    .flat_map(|z| [z.re.to_f64().to_bits(), z.im.to_f64().to_bits()])
            })
        })
        .collect()
}

#[test]
fn dot_and_norm_bits_stable_across_widths() {
    // Larger than blas::PAR_THRESHOLD so the multi-chunk path is exercised.
    let x = FermionField::<f64>::gaussian(40_000, 21).data;
    let y = FermionField::<f64>::gaussian(40_000, 22).data;
    let (d, n) = widths_agree(|| {
        let d = blas::dot(&x, &y);
        (
            (d.re.to_bits(), d.im.to_bits()),
            blas::norm_sqr(&x).to_bits(),
        )
    });
    assert!(f64::from_bits(d.0).is_finite());
    assert!(f64::from_bits(n) > 0.0);
}

#[test]
fn axpy_family_bits_stable_across_widths() {
    let x = FermionField::<f64>::gaussian(20_000, 31).data;
    let y0 = FermionField::<f64>::gaussian(20_000, 32).data;
    widths_agree(|| {
        let mut y = y0.clone();
        blas::axpy(0.37, &x, &mut y);
        blas::xpby(&x, -1.21, &mut y);
        blas::scal(0.93, &mut y);
        bits(&y)
    });
}

#[test]
fn dslash_application_bits_stable_across_widths() {
    let lat = Lattice::new([8, 8, 8, 16]);
    let gauge = GaugeField::<f64>::hot(&lat, 41);
    let psi = FermionField::<f64>::gaussian(lat.volume(), 42).data;
    let dirac = WilsonDirac::new(&lat, &gauge, 0.2, true);
    widths_agree(|| {
        let mut out = vec![Spinor::zero(); lat.volume()];
        dirac.apply(&mut out, &psi);
        bits(&out)
    });
}

#[test]
fn mixed_cg_solve_bits_stable_across_widths() {
    // Full reliable-update mixed-precision solve: every iterate's dot /
    // norm / axpy must be width-independent for the trajectories (and the
    // iteration counts) to match bit-for-bit.
    let lat = Lattice::new([8, 8, 8, 16]);
    let gauge64 = GaugeField::<f64>::hot(&lat, 51);
    let gauge32 = gauge64.cast::<f32>();
    let d64 = WilsonDirac::new(&lat, &gauge64, 0.3, true);
    let d32 = WilsonDirac::new(&lat, &gauge32, 0.3, true);
    let n64 = NormalOp::new(&d64);
    let n32 = NormalOp::new(&d32);
    let b = FermionField::<f64>::gaussian(lat.volume(), 52).data;

    let (xbits, iters) = widths_agree(|| {
        let mut x = vec![Spinor::zero(); lat.volume()];
        let stats = mixed_cg(
            &n64,
            &n32,
            &mut x,
            &b,
            MixedParams {
                outer: CgParams {
                    tol: 1e-8,
                    max_iter: 10_000,
                },
                ..MixedParams::default()
            },
        );
        assert!(stats.converged, "{stats:?}");
        (bits(&x), stats.iterations)
    });
    assert!(iters > 0);
    assert!(!xbits.is_empty());
}

#[test]
fn service_wilson_block_bits_stable_across_widths() {
    // The solve service's dense batch: `D†D` on the Wilson operator at
    // 4³×8 with 8 columns. The stencil splits the 512 sites into eight
    // chunks of 64, so the block apply forks at every width above 1.
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge = GaugeField::<f64>::hot(&lat, 71);
    let d = WilsonDirac::new(&lat, &gauge, 0.2, true);
    let a = NormalOp::new(&d);
    let nrhs = 8;
    let inp = FermionField::<f64>::gaussian(lat.volume() * nrhs, 72).data;
    let mut out = vec![Spinor::zero(); inp.len()];
    // Warm: the first apply sizes the reused `D · inp` intermediate.
    a.apply_block(&mut out, &inp, nrhs);
    agree_at(&[1, 2, 4], || {
        let mut out = vec![Spinor::zero(); inp.len()];
        a.apply_block(&mut out, &inp, nrhs);
        bits(&out)
    });
}

#[test]
fn mobius_production_shape_bits_stable_across_widths() {
    // 4³×8, L5 = 4 is the `fh_small` shape: the stencil splits the
    // half-volume's 256 sites into eight chunks of 32, so the production
    // solve's Möbius hops fork at every width above 1.
    let lat = Lattice::new([4, 4, 4, 8]);
    let mut ens = QuenchedEnsemble::cold_start(&lat, HeatbathParams { beta: 6.0, n_or: 2 }, 7);
    let gauge = ens.generate(4, 1, 1).pop().expect("one configuration");
    let gauge32 = gauge.cast::<f32>();
    let params = MobiusParams::standard(4, 0.3);

    fn operator_bits<R: Real>(op: &impl DiracOp<R>, seed: u64) -> Vec<u64> {
        let inp = FermionField::<R>::gaussian(op.vec_len(), seed).data;
        let mut out = vec![Spinor::zero(); inp.len()];
        op.apply(&mut out, &inp);
        let mut all = bits(&out);
        op.apply_dagger(&mut out, &inp);
        all.extend(bits(&out));
        all
    }
    let prec64 = PrecMobius::new(&lat, &gauge, params);
    let prec32 = PrecMobius::new(&lat, &gauge32, params);
    agree_at(&[1, 2, 4], || {
        (operator_bits(&prec64, 61), operator_bits(&prec32, 62))
    });

    let source = point_source(&lat, 0, 0, 0);
    let (solution, iterations, _, _) = agree_at(&[1, 2, 4], || {
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::MobiusMixed { params });
        let (q, stats) = solver.solve(&source);
        assert!(stats.converged, "{stats:?}");
        (
            bits(&q.data),
            stats.iterations,
            stats.reliable_updates,
            stats.flops.to_bits(),
        )
    });
    assert!(iterations > 0);
    assert!(!solution.is_empty());
}

#[test]
fn timeslice_contractions_bits_stable_across_widths() {
    // Volume 8192 spans several contraction chunks; a synthetic propagator
    // (gaussian columns) is enough to exercise the binned reduction.
    let lat = Lattice::new([8, 8, 8, 16]);
    let gaussian_prop = |seed: u64| Propagator {
        columns: (0..12)
            .map(|i| FermionField::<f64>::gaussian(lat.volume(), seed + i))
            .collect(),
        source_site: 0,
        source_time: 3,
    };
    let prop = gaussian_prop(100);
    let pion = widths_agree(|| {
        lqcd::core::contract::pion_correlator(&lat, &prop)
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    });
    assert_eq!(pion.len(), lat.nt());

    // The baryons run the same binned reduction over a much heavier site
    // function; a second propagator stands in for the FH one.
    let fh = gaussian_prop(200);
    let proj = lqcd::core::gamma::polarized_projector();
    let c_bits = |c: Vec<lqcd::core::complex::C64>| -> Vec<(u64, u64)> {
        c.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    };
    let baryons = widths_agree(|| {
        (
            c_bits(lqcd::core::contract::proton_correlator(
                &lat, &prop, &prop, &proj,
            )),
            c_bits(lqcd::core::fh::fh_nucleon_correlator(
                &lat, &prop, &prop, &fh, &fh, &proj,
            )),
        )
    });
    assert_eq!(baryons.0.len(), lat.nt());
}

#[test]
fn pool_neither_drops_nor_duplicates_chunks() {
    // Real-thread stress at the public API level: every index must be
    // visited exactly once per call, under repeated contended jobs.
    use std::sync::atomic::{AtomicUsize, Ordering};
    at_width(8, || {
        for round in 0..100 {
            let n = 1000 + round * 7;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            rayon::for_each_chunk(n, n.div_ceil(64), |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} in round {round}");
            }
        }
    });
}

#[test]
fn reported_width_follows_install_scope() {
    assert_eq!(at_width(5, rayon::current_num_threads), 5);
    assert!(rayon::current_num_threads() >= 1);
}
