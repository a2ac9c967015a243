//! Layer probes of the traced run: every library layer timed in isolation
//! on the workload's own shapes, in the same process and on the same host
//! calibration as the workload's spans. The suite is the same for every
//! workload, so each timing below is measured (never zero) on each of them;
//! only the shape differs.
//!
//! Probes call `DiracOp::{apply, apply_dagger}` on `PrecMobius`,
//! `MobiusDirac` and `WilsonDirac`, `blas::{axpy, dot, norm_sqr}`, the
//! `halfprec` encode/decode and the same prelude-level entry points as the
//! workloads — never a solver kernel or a comms constructor directly.
//! Every byte count is *computed* from array sizes, not measured.

use crate::alloc;
use crate::host::{at_width, gib_per_s, stream_triad, Host, STREAM_LEN};
use crate::spec::Metrics;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    file_len, mild_faults, service_dims, sharded_backend, synthetic_fit, Shape,
};
use lattice_io::{
    read_gauge, read_propagator, write_correlator, write_gauge, write_propagator, BundlePrecision,
};
use lqcd_core::complex::C64;
use lqcd_core::gamma::polarized_projector;
use lqcd_core::prelude::*;
use solve_service::{CacheKey, Precision, ResultCache, SolveResult};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Paper Table I accounting, held here so a library change cannot move it:
/// flops per 5D half-checkerboard site of one preconditioned operator
/// application, and BLAS-1 flops per site per CG iteration.
const FLOPS_PER_SITE_APPLY: f64 = 11_000.0;
const FLOPS_PER_SITE_BLAS: f64 = 75.0;

const SPINOR_REALS: f64 = 24.0;
const LINK_REALS: f64 = 18.0;

/// Median and best wall time of `f` over at least `min_reps` calls and at
/// least `min_secs` seconds.
fn time_reps(tr: &Tracer, min_reps: usize, min_secs: f64, mut f: impl FnMut()) -> (f64, f64) {
    let mut times = Vec::new();
    let start = tr.now();
    while times.len() < min_reps || tr.now() - start < min_secs {
        let t0 = tr.now();
        f();
        times.push(tr.now() - t0);
    }
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    (median(&times), best)
}

pub struct ProbeArgs<'a> {
    pub shape: Shape,
    pub seed: u64,
    pub quick: bool,
    pub host: &'a Host,
    /// Scratch directory (exists; removed by the caller).
    pub dir: &'a Path,
}

pub fn run(args: &ProbeArgs, tr: &mut Tracer) -> Metrics {
    let mut m = Metrics::new();
    let width = args.host.pool_width();
    // A smoke run takes three samples of everything and no minimum time.
    let reps = |n: usize| if args.quick { 3 } else { n };
    let at_least = |s: f64| if args.quick { 0.0 } else { s };

    // --- host -----------------------------------------------------------
    let stream_len = if args.quick {
        STREAM_LEN / 16
    } else {
        STREAM_LEN
    };
    let (stream_w1, stream) = stream_triad(width, stream_len, tr);
    m.insert("host.nproc", args.host.nproc as f64);
    m.insert("host.l2_kib", args.host.l2_kib as f64);
    m.insert("host.l3_kib", args.host.l3_kib as f64);
    m.insert("host.stream_w1_gib_per_s", stream_w1);
    m.insert("host.stream_triad_gib_per_s", stream);
    let arrays_kib = (3 * stream_len * 8 / 1024) as u64;
    m.insert(
        "host.stream_in_llc",
        f64::from(u8::from(args.host.l3_kib > arrays_kib)),
    );
    m.insert("pool.threads", width as f64);

    // --- core.gauge -----------------------------------------------------
    let lat = Lattice::new(args.shape.dims);
    let vol = lat.volume() as f64;
    let mut ens =
        QuenchedEnsemble::cold_start(&lat, HeatbathParams { beta: 6.0, n_or: 2 }, args.seed);
    let (cycle, _) = time_reps(tr, reps(6), 0.0, || ens.update());
    let gauge = ens.current().clone();
    m.insert("gauge.heatbath_ms_per_cycle", cycle * 1e3);
    m.insert("gauge.plaquette", average_plaquette(&lat, &gauge));

    // --- core.dirac -----------------------------------------------------
    let params = args.shape.mobius;
    let gauge32: GaugeField<f32> = gauge.cast();
    let prec64 = PrecMobius::new(&lat, &gauge, params);
    let prec32 = PrecMobius::new(&lat, &gauge32, params);
    let n = prec64.vec_len();
    let x64 = FermionField::<f64>::gaussian(n, 11).data;
    let x32 = FermionField::<f64>::gaussian(n, 11).cast::<f32>().data;
    let mut y64 = vec![Spinor::zero(); n];
    let mut y32 = vec![Spinor::zero(); n];
    let (apply64, _) = time_reps(tr, reps(50), at_least(0.2), || prec64.apply(&mut y64, &x64));
    let (apply32, apply32_best) =
        time_reps(tr, reps(50), at_least(0.2), || prec32.apply(&mut y32, &x32));
    let (dagger32, _) = time_reps(tr, reps(50), at_least(0.2), || {
        prec32.apply_dagger(&mut y32, &x32)
    });
    let wilson = WilsonDirac::new(&lat, &gauge, 0.2, true);
    let xw = FermionField::<f64>::gaussian(lat.volume(), 12).data;
    let mut yw = vec![Spinor::zero(); lat.volume()];
    let (wilson64, _) = time_reps(tr, reps(50), at_least(0.2), || wilson.apply(&mut yw, &xw));
    std::hint::black_box((&y64, &y32, &yw));
    // Computed traffic of one f32 apply: per 5D site 8 neighbour + 2
    // s-coupled spinors read and 1 written; 8 links per 4D half-site.
    let bytes32 = n as f64 * 11.0 * SPINOR_REALS * 4.0 + vol / 2.0 * 8.0 * LINK_REALS * 4.0;
    let flops = n as f64 * FLOPS_PER_SITE_APPLY;
    let dirac_gib = gib_per_s(bytes32, apply32);
    m.insert("dirac.apply_f64_us", apply64 * 1e6);
    m.insert("dirac.apply_f32_us", apply32 * 1e6);
    m.insert("dirac.apply_f32_best_us", apply32_best * 1e6);
    m.insert("dirac.dagger_f32_us", dagger32 * 1e6);
    m.insert("dirac.wilson_f64_us", wilson64 * 1e6);
    m.insert("dirac.f32_gib_per_s_computed", dirac_gib);
    m.insert("dirac.f32_gflop_per_s", flops / apply32 / 1e9);
    m.insert("dirac.flop_per_byte", flops / bytes32);
    m.insert("dirac.f32_pct_stream", 100.0 * dirac_gib / stream);

    // --- core.blas, core.halfprec (solver-vector length) ------------------
    let sb = SPINOR_REALS * 8.0;
    let mut acc = y64;
    let (axpy, _) = time_reps(tr, reps(50), at_least(0.05), || {
        blas::axpy(1e-3, &x64, &mut acc)
    });
    let (dot, _) = time_reps(tr, reps(50), at_least(0.05), || {
        std::hint::black_box(blas::dot(&x64, &acc));
    });
    let (norm2, _) = time_reps(tr, reps(50), at_least(0.05), || {
        std::hint::black_box(blas::norm_sqr(&x64));
    });
    let norm2_gib = gib_per_s(n as f64 * sb, norm2);
    m.insert("blas.axpy_gib_per_s", gib_per_s(3.0 * n as f64 * sb, axpy));
    m.insert("blas.dot_gib_per_s", gib_per_s(2.0 * n as f64 * sb, dot));
    m.insert("blas.norm2_gib_per_s", norm2_gib);
    m.insert("blas.norm2_pct_stream", 100.0 * norm2_gib / stream);
    let mut half = HalfFermionField::encode(&x32);
    let (encode, _) = time_reps(tr, reps(30), at_least(0.05), || {
        half = HalfFermionField::encode(&x32)
    });
    let (decode, _) = time_reps(tr, reps(30), at_least(0.05), || {
        std::hint::black_box(half.decode());
    });
    let half_bytes = n as f64 * SPINOR_REALS * 4.0 + half.storage_bytes() as f64;
    m.insert("halfprec.encode_gib_per_s", gib_per_s(half_bytes, encode));
    m.insert("halfprec.decode_gib_per_s", gib_per_s(half_bytes, decode));

    // --- core.prop, core.solver: one point-source column ------------------
    let kind = SolverKind::MobiusMixed { params };
    let (cast, _) = time_reps(tr, 5, 0.0, || {
        std::hint::black_box(PropagatorSolver::new(&lat, &gauge, kind));
    });
    m.insert("prop.gauge_cast_ms", cast * 1e3);
    let solver = PropagatorSolver::new(&lat, &gauge, kind);
    let source = point_source(&lat, 0, 0, 0);
    let column = |w: usize| {
        let (b0, c0) = alloc::counters();
        alloc::set_counting(true);
        let t0 = tr.now();
        let (_, stats) = at_width(w, || solver.solve(&source));
        let secs = tr.now() - t0;
        alloc::set_counting(false);
        let (b1, c1) = alloc::counters();
        (stats, secs, (b1 - b0) as f64, (c1 - c0) as f64)
    };
    let (stats, secs, alloc_bytes, alloc_calls) = column(width);
    let (stats_w1, secs_w1, ..) = column(1);
    assert!(stats.converged, "probe column did not converge: {stats:?}");
    assert_eq!(
        stats.iterations, stats_w1.iterations,
        "iteration count depends on pool width"
    );
    let iters = stats.iterations as f64;
    m.insert("solver.iterations", iters);
    m.insert("solver.reliable_updates", stats.reliable_updates as f64);
    m.insert("solver.ms_per_iteration", secs * 1e3 / iters);
    m.insert("solver.width1_ms_per_iteration", secs_w1 * 1e3 / iters);
    m.insert(
        "solver.gflop_per_s",
        iters * n as f64 * (2.0 * FLOPS_PER_SITE_APPLY + FLOPS_PER_SITE_BLAS) / secs / 1e9,
    );
    m.insert("solver.alloc_bytes_per_iteration", alloc_bytes / iters);
    m.insert("solver.alloc_calls_per_iteration", alloc_calls / iters);
    // An estimate until the solver carries spans of its own: every
    // iteration applies the f32 operator and its adjoint once.
    m.insert(
        "solver.dirac_share_est",
        iters * (apply32 + dagger32) / secs,
    );
    m.insert("solver.reported_residual_max", stats.final_rel_residual);
    m.insert("pool.speedup_vs_width1", secs_w1 / secs);

    // --- core.contract ----------------------------------------------------
    let random_prop = |seed: u64| Propagator {
        columns: (0..12)
            .map(|c| FermionField::gaussian(lat.volume(), seed + c))
            .collect(),
        source_site: 0,
        source_time: 0,
    };
    let (prop, fh_prop) = (random_prop(100), random_prop(200));
    let proj = polarized_projector();
    let (pion, _) = time_reps(tr, reps(5), 0.0, || {
        std::hint::black_box(pion_correlator(&lat, &prop));
    });
    let (proton, _) = time_reps(tr, 3, 0.0, || {
        std::hint::black_box(proton_correlator(&lat, &prop, &prop, &proj));
    });
    let (fh_nucleon, _) = time_reps(tr, 2, 0.0, || {
        std::hint::black_box(fh_nucleon_correlator(
            &lat, &prop, &prop, &fh_prop, &fh_prop, &proj,
        ));
    });
    m.insert("contract.pion_us", pion * 1e6);
    m.insert("contract.proton_ms", proton * 1e3);
    m.insert("contract.fh_nucleon_ms", fh_nucleon * 1e3);
    m.insert("contract.us_per_site", (proton + fh_nucleon) * 1e6 / vol);
    // The proton contraction reads three propagators of 12 spinors a site.
    m.insert(
        "contract.gib_per_s_computed",
        gib_per_s(vol * 36.0 * sb, proton),
    );

    // --- io -----------------------------------------------------------------
    let mib = |path: &Path, secs: f64| file_len(path) / secs / (1 << 20) as f64;
    let (bundle, corr, cfg) = (
        args.dir.join("p.lqio"),
        args.dir.join("c.lqio"),
        args.dir.join("g.lqio"),
    );
    let (write_prop, _) = time_reps(tr, 3, 0.0, || {
        write_propagator(&bundle, &prop, BundlePrecision::F32, BTreeMap::new())
            .expect("probe bundle write");
    });
    let (read_prop, _) = time_reps(tr, 3, 0.0, || {
        std::hint::black_box(read_propagator(&bundle).expect("probe bundle read"));
    });
    let series = vec![C64::new(1.0, 0.0); lat.nt()];
    let (write_corr, _) = time_reps(tr, reps(20), 0.0, || {
        write_correlator(&corr, &series, BTreeMap::new()).expect("probe correlator write");
    });
    write_gauge(&cfg, &lat, &gauge, BTreeMap::new()).expect("probe gauge write");
    let (read_cfg, _) = time_reps(tr, 3, 0.0, || {
        std::hint::black_box(read_gauge(&cfg, &lat).expect("probe gauge read"));
    });
    m.insert("io.write_propagator_mib_per_s", mib(&bundle, write_prop));
    m.insert("io.read_propagator_mib_per_s", mib(&bundle, read_prop));
    m.insert("io.write_correlator_us", write_corr * 1e6);
    m.insert("io.read_gauge_ms", read_cfg * 1e3);

    // --- core.comms: the sharded solve against a single-domain apply -----
    let svc_dims = service_dims(args.quick);
    let clean = sharded_backend(svc_dims, None);
    let faulty = sharded_backend(svc_dims, Some(mild_faults(args.seed)));
    let mass = params.mass;
    let sharded = |b: &solve_service::Backend| {
        let t0 = tr.now();
        let r = b
            .solve_sharded(0, mass.to_bits(), Precision::Sloppy, 500)
            .expect("probe sharded solve");
        assert!(r.converged, "probe sharded solve did not converge");
        (
            r.iterations as f64,
            (tr.now() - t0) * 1e3 / r.iterations as f64,
            r.recovered,
        )
    };
    let (it_clean, ms_clean, _) = sharded(&clean);
    let (it_faulty, ms_faulty, recovered) = sharded(&faulty);
    // Same lattice, first configuration and L5 as the service backend.
    let svc_lat = clean.lattice().clone();
    let svc_gauge = GaugeField::<f64>::hot(&svc_lat, 1000);
    let single = MobiusDirac::new(&svc_lat, &svc_gauge, MobiusParams::standard(4, mass));
    let xs = FermionField::<f64>::gaussian(single.vec_len(), 13).data;
    let mut ys = vec![Spinor::zero(); xs.len()];
    let mut zs = ys.clone();
    let (normal, _) = time_reps(tr, reps(30), at_least(0.1), || {
        single.apply(&mut ys, &xs);
        single.apply_dagger(&mut zs, &ys);
    });
    m.insert("comms.clean_ms_per_iteration", ms_clean);
    m.insert("comms.faulty_ms_per_iteration", ms_faulty);
    m.insert("comms.iterations", it_clean);
    m.insert("comms.replayed_iterations", it_faulty - it_clean);
    m.insert("comms.recovered_solves", f64::from(u8::from(recovered)));
    m.insert("comms.overhead_vs_single_domain", ms_clean / (normal * 1e3));

    // --- service ------------------------------------------------------------
    let seeds: Vec<u64> = (500..508).collect();
    let (batch8, _) = time_reps(tr, 3, 0.0, || {
        let r = clean
            .solve_dense_batch(0, 0.2f64.to_bits(), Precision::Sloppy, &seeds)
            .expect("probe batch solve");
        assert!(
            r.iter().all(|c| c.converged),
            "probe batch did not converge"
        );
    });
    m.insert("service.backend_batch8_ms", batch8 * 1e3);
    let entry = |seed: u64| {
        let key = CacheKey {
            config_hash: 1,
            source_seed: seed,
            mass_bits: 0.2f64.to_bits(),
            precision: 0,
            policy: 0,
        };
        let value = Arc::new(SolveResult {
            solution: FermionField::<f64>::gaussian(svc_lat.volume(), seed).data,
            iterations: 1,
            final_rel_residual: 0.0,
            converged: true,
            recovered: false,
        });
        (key, value)
    };
    let ((key_a, val_a), (key_b, val_b)) = (entry(1), entry(2));
    let memory = ResultCache::new(4, None);
    memory.insert(key_a, val_a.clone());
    let (hit, _) = time_reps(tr, 1000, 0.0, || {
        std::hint::black_box(memory.lookup(&key_a).expect("resident entry"));
    });
    m.insert("service.cache_hit_us", hit * 1e6);
    // Capacity 1: every lookup of the other key revives it from its spill
    // file and spills the resident one.
    let spill_dir = args.dir.join("spill");
    std::fs::create_dir_all(&spill_dir).expect("probe spill directory");
    let spilling = ResultCache::new(1, Some(spill_dir));
    spilling.insert(key_a, val_a);
    spilling.insert(key_b, val_b);
    let mut flip = false;
    let (roundtrip, _) = time_reps(tr, reps(100), 0.0, || {
        let key = if flip { &key_b } else { &key_a };
        flip = !flip;
        let (_, from_disk) = spilling.lookup(key).expect("spilled entry revives");
        assert!(from_disk, "lookup was served from memory");
    });
    m.insert("service.spill_roundtrip_us", roundtrip * 1e6);

    // --- analysis -------------------------------------------------------------
    let fit = synthetic_fit(args.seed, tr);
    m.insert("analysis.jackknife_ms", fit.jackknife_s * 1e3);
    m.insert("analysis.fit_ms", fit.fit_s * 1e3);
    m.insert("analysis.ga_pull", fit.pull);
    m.insert("analysis.chi2_per_dof", fit.chi2_per_dof);
    m
}
