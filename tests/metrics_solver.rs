//! Metric-assertion tests: the observability layer's counters, events,
//! and histograms must report exactly what the instrumented code did —
//! and do so bit-stably across identical runs, so metrics can serve as
//! regression oracles.

use lqcd::core::prelude::*;
use lqcd::core::solver::{mixed_cg_robust, RobustParams, SolverOutcome};
use lqcd::io::{read_container_retrying, salvage_container_bytes, write_container, Container};
use obs::{
    assert_counter, assert_event_count, assert_float_counter, assert_hist_quantile, Registry,
};
use std::collections::BTreeMap;

/// The small 4³×8 Wilson system every solver test here uses.
struct System {
    lat: Lattice,
    gauge64: GaugeField<f64>,
    gauge32: GaugeField<f32>,
    b: Vec<Spinor<f64>>,
}

fn system() -> System {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge64 = GaugeField::<f64>::hot(&lat, 83);
    let gauge32 = gauge64.cast::<f32>();
    let b = FermionField::<f64>::gaussian(lat.volume(), 17).data;
    System {
        lat,
        gauge64,
        gauge32,
        b,
    }
}

/// Run one mixed-precision solve under a fresh registry; return the
/// registry and the solver's own stats for cross-checking.
fn solve_once(sys: &System) -> (Registry, SolveStats) {
    let d64 = WilsonDirac::new(&sys.lat, &sys.gauge64, 0.3, true);
    let d32 = WilsonDirac::new(&sys.lat, &sys.gauge32, 0.3, true);
    let n64 = NormalOp::new(&d64);
    let n32 = NormalOp::new(&d32);
    let reg = Registry::new();
    let stats = {
        let _guard = reg.install_scoped();
        let mut x = vec![Spinor::zero(); sys.lat.volume()];
        mixed_cg(&n64, &n32, &mut x, &sys.b, MixedParams::default())
    };
    (reg, stats)
}

#[test]
fn mixed_solve_metrics_match_returned_stats() {
    let sys = system();
    let (reg, stats) = solve_once(&sys);
    assert!(stats.converged);

    assert_counter!(reg, "solver.mixed.solves", 1);
    assert_counter!(reg, "solver.mixed.iters", stats.iterations as u64);
    assert_counter!(reg, "solver.mixed.converged", 1);
    assert_counter!(
        reg,
        "solver.mixed.reliable_updates",
        stats.reliable_updates as u64
    );
    // Flops are accumulated by the same code that fills `stats`, in the
    // same order — the counter must match to the bit.
    assert_float_counter!(reg, "solver.mixed.flops", stats.flops);
    // One reliable-update event per update, carrying the residual
    // trajectory.
    assert_event_count!(reg, "solver.reliable_update", stats.reliable_updates as u64);
}

#[test]
fn solver_metrics_are_bit_stable_across_runs() {
    let sys = system();
    let (reg_a, stats_a) = solve_once(&sys);
    let (reg_b, stats_b) = solve_once(&sys);

    assert_eq!(stats_a.iterations, stats_b.iterations);
    assert_counter!(reg_a, "solver.mixed.iters", stats_b.iterations as u64);
    assert_counter!(
        reg_a,
        "solver.mixed.reliable_updates",
        reg_b.counter("solver.mixed.reliable_updates").get()
    );
    // Bit-exact flops: the whole arithmetic chain is deterministic.
    assert_float_counter!(
        reg_a,
        "solver.mixed.flops",
        reg_b.float_counter("solver.mixed.flops").get()
    );
    assert_eq!(
        reg_a.to_json().to_string_pretty(),
        reg_b.to_json().to_string_pretty(),
        "identical solves must serialize to identical metric snapshots"
    );
}

/// Low-precision operator mis-scaled by a constant: the inner solve
/// stalls, forcing the robust wrapper through restarts into the
/// double-precision escalation (mirrors the core solver's own test rig).
struct MisscaledOp<'a, D: DiracOp<f32>>(NormalOp<'a, f32, D>, f64);

impl<D: DiracOp<f32>> LinearOp<f32> for MisscaledOp<'_, D> {
    fn vec_len(&self) -> usize {
        self.0.vec_len()
    }
    fn apply_block(&self, out: &mut [Spinor<f32>], inp: &[Spinor<f32>], nrhs: usize) {
        self.0.apply_block(out, inp, nrhs);
        blas::scal(self.1, out);
    }
}

#[test]
fn escalation_is_counted_and_emitted() {
    let sys = system();
    let d64 = WilsonDirac::new(&sys.lat, &sys.gauge64, 0.3, true);
    let d32 = WilsonDirac::new(&sys.lat, &sys.gauge32, 0.3, true);
    let n64 = NormalOp::new(&d64);
    let bad = MisscaledOp(NormalOp::new(&d32), 0.4);

    let reg = Registry::new();
    let outcome = {
        let _guard = reg.install_scoped();
        let mut x = vec![Spinor::zero(); sys.lat.volume()];
        mixed_cg_robust(&n64, &bad, &mut x, &sys.b, RobustParams::default())
    };
    match outcome {
        SolverOutcome::Converged { escalated, .. } => assert!(escalated),
        other => panic!("expected escalated convergence, got {other:?}"),
    }

    assert_counter!(reg, "solver.robust.solves", 1);
    assert_counter!(reg, "solver.robust.escalations", 1);
    assert_counter!(reg, "solver.robust.failures", 0);
    assert_event_count!(reg, "solver.escalation", 1);
    // The escalation runs exactly one full-double CG epilogue.
    assert_counter!(reg, "solver.cg.solves", 1);
    assert_counter!(reg, "solver.cg.converged", 1);
}

#[test]
fn iteration_histogram_tracks_the_solve() {
    let sys = system();
    let (reg, stats) = solve_once(&sys);
    let h = reg
        .try_histogram("solver.mixed.iterations")
        .expect("iteration histogram exists");
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), stats.iterations as f64);
    // With one sample every quantile is that sample's bucket.
    assert_hist_quantile!(reg, "solver.mixed.iterations", 0.5, 1.0..=10_000.0);
}

#[test]
fn io_retry_counter_counts_injected_faults() {
    let vals: Vec<f64> = (0..512).map(|i| i as f64).collect();
    let c = Container::from_f64("retry", vec![512], &vals, BTreeMap::new());
    let dir = std::env::temp_dir().join("lqcd_metrics_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("retry.lqio");

    let reg = Registry::new();
    {
        let _guard = reg.install_scoped();
        write_container(&path, &c).unwrap();
        let good = std::fs::read(&path).unwrap();
        let mut fetches = 0usize;
        let (back, attempts) = read_container_retrying(3, || {
            fetches += 1;
            let mut bytes = good.clone();
            if fetches == 1 {
                let n = bytes.len();
                bytes[n - 5] ^= 0xFF;
            }
            Ok(bytes)
        })
        .unwrap();
        assert_eq!(attempts, 2);
        assert_eq!(back.payload, c.payload);
    }
    assert_counter!(reg, "io.crc_retries", 1);
    assert_counter!(reg, "io.checksum_failures", 1);
    assert_counter!(reg, "io.containers_written", 1);
    // Only the clean attempt completes a read.
    assert_counter!(reg, "io.containers_read", 1);
    std::fs::remove_file(&path).ok();
}

#[test]
fn salvage_counters_report_the_hole() {
    let vals: Vec<f64> = (0..512).map(|i| (i as f64).cos()).collect();
    let c = Container::from_f64("salvage", vec![512], &vals, BTreeMap::new());
    let dir = std::env::temp_dir().join("lqcd_metrics_io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("salvage.lqio");

    let reg = Registry::new();
    let lost = {
        let _guard = reg.install_scoped();
        write_container(&path, &c).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 5] ^= 0xFF; // corrupt the single chunk's payload
        let s = salvage_container_bytes(&bytes).unwrap();
        assert!(!s.is_complete());
        s.lost_bytes()
    };
    assert_counter!(reg, "io.salvage.calls", 1);
    assert_counter!(reg, "io.salvage.corrupt_chunks", 1);
    assert_counter!(reg, "io.salvage.lost_bytes", lost as u64);
    assert_eq!(lost, 512 * 8, "whole single chunk is forfeit");
    std::fs::remove_file(&path).ok();
}

#[test]
fn scoped_registries_isolate_metrics() {
    let sys = system();
    let outer = Registry::new();
    let _outer_guard = outer.install_scoped();
    let (inner, stats) = solve_once(&sys);
    assert!(stats.converged);
    // The solve ran under `inner`'s scope; nothing may leak outward.
    assert_counter!(inner, "solver.mixed.solves", 1);
    assert_counter!(outer, "solver.mixed.solves", 0);
    assert_event_count!(outer, "solver.reliable_update", 0);
}
