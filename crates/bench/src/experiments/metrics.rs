//! The `metrics` experiment: one small, fully deterministic pass through
//! every instrumented layer of the pipeline — the mixed-precision solver
//! and its double-precision escalation path, container I/O with injected
//! transient corruption and a salvage, the autotuner cache, and the three
//! fault-tolerant schedulers at the fault sweep's harshest MTBF — captured
//! in a fresh [`obs::Registry`] and exported as `results/metrics.json`.
//!
//! Every input is seeded and the registry clock is a [`ManualClock`], so
//! two runs produce byte-identical JSON. The committed
//! `results/metrics.json` is a golden: CI regenerates it and diffs, which
//! turns every counter in the observability layer into a regression test.

use crate::experiments::faults::{fault_stats_json, run_point, SweepPoint};
use crate::output::{print_table, ExperimentOutput};
use autotune::{ParamSpace, TimingHarness, Tunable, TuneKey, TuneParam, Tuner};
use coral_machine::sierra;
use lattice_io::{
    read_container, read_container_retrying, salvage_container_bytes, write_container, Container,
};
use lqcd_core::prelude::*;
use lqcd_core::solver::{mixed_cg_robust, RobustParams, SolverOutcome};
use obs::{Json, ManualClock, Registry};
use std::collections::BTreeMap;

/// MTBF (seconds) the scheduler stage runs at: the fault sweep's brutal
/// endpoint, so crash, retry, requeue, and blacklist paths all fire.
const SCHED_MTBF: f64 = 10_000.0;

/// Transient fetch failures injected into the retrying container read.
const INJECTED_CRC_FAULTS: usize = 2;

/// A low-precision operator whose output is mis-scaled by a constant, so
/// the inner mixed-precision solve stalls and `mixed_cg_robust` must
/// escalate to full double precision (same construction as the core solver
/// tests, reproduced here because it is test-only in `lqcd-core`).
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

/// A modeled-cost kernel for the autotune stage. The harness is
/// `Modeled`, so candidate "timings" come from `modeled_cost` and never
/// touch the wall clock — the recorded `autotune.candidate_seconds`
/// histogram is exactly reproducible.
struct ModelKernel {
    name: &'static str,
    best_policy: usize,
}

impl Tunable for ModelKernel {
    fn key(&self) -> TuneKey {
        TuneKey::new(self.name, "4x4x4x8", "prec=f32")
    }
    fn param_space(&self) -> ParamSpace {
        ParamSpace::policies(6)
    }
    fn run(&mut self, _p: TuneParam) {}
    fn modeled_cost(&self, p: TuneParam) -> f64 {
        1e-3 * ((p.policy as f64 - self.best_policy as f64).abs() + 1.0)
    }
    fn harness(&self) -> TimingHarness {
        TimingHarness::Modeled
    }
    fn flops(&self) -> f64 {
        1e9
    }
}

/// Per-stage results the summary table and tests consume.
pub struct MetricsResult {
    /// The registry snapshot written to `metrics.json`.
    pub json: Json,
    /// Scheduler (name, utilization, fraction-of-peak) rows.
    pub sched_rows: Vec<(String, f64, f64)>,
}

fn solver_stage() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let gauge64 = GaugeField::<f64>::hot(&lat, 83);
    let gauge32 = gauge64.cast::<f32>();
    let d64 = WilsonDirac::new(&lat, &gauge64, 0.3, true);
    let d32 = WilsonDirac::new(&lat, &gauge32, 0.3, true);
    let n64 = NormalOp::new(&d64);
    let n32 = NormalOp::new(&d32);
    let b = FermionField::<f64>::gaussian(lat.volume(), 17).data;

    // Healthy mixed-precision solve: iterations, flops, reliable updates.
    let mut x = vec![Spinor::zero(); lat.volume()];
    let stats = mixed_cg(&n64, &n32, &mut x, &b, MixedParams::default());
    assert!(
        stats.converged,
        "healthy mixed solve must converge: {stats:?}"
    );

    // Sabotaged low-precision operator: the robust wrapper restarts, then
    // escalates to double precision — exercising the full-double CG path
    // and the escalation counters/events.
    let bad = MisscaledOp(NormalOp::new(&d32), 0.4);
    let mut y = vec![Spinor::zero(); lat.volume()];
    let outcome = mixed_cg_robust(&n64, &bad, &mut y, &b, RobustParams::default());
    match outcome {
        SolverOutcome::Converged { escalated, .. } => {
            assert!(escalated, "mis-scaled inner op must force escalation")
        }
        other => panic!("escalated solve must converge: {other:?}"),
    }
}

fn io_stage(out: &ExperimentOutput) {
    let vals: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.001).sin()).collect();
    let mut md = BTreeMap::new();
    md.insert("experiment".into(), "metrics".into());
    let c = Container::from_f64("metrics_demo", vec![4096], &vals, md);
    let path = out.path("metrics_demo.lqio");
    write_container(&path, &c).expect("write demo container");

    // Clean round trip.
    let back = read_container(&path).expect("clean read");
    assert_eq!(back.payload, c.payload);

    // Transient corruption: the first `INJECTED_CRC_FAULTS` fetches flip a
    // payload byte (CRC mismatch), then the source heals — the retry loop
    // must absorb exactly that many failures.
    let good = std::fs::read(&path).expect("read file bytes");
    let mut fetches = 0usize;
    let (_, attempts) = read_container_retrying(INJECTED_CRC_FAULTS + 1, || {
        fetches += 1;
        let mut bytes = good.clone();
        if fetches <= INJECTED_CRC_FAULTS {
            let n = bytes.len();
            bytes[n - 5] ^= 0xFF; // last payload byte of the last chunk
        }
        Ok(bytes)
    })
    .expect("retrying read heals");
    assert_eq!(attempts, INJECTED_CRC_FAULTS + 1);

    // Persistent corruption: salvage zero-fills the bad chunk and reports
    // the hole.
    let mut bad = good;
    let n = bad.len();
    bad[n - 5] ^= 0xFF;
    let s = salvage_container_bytes(&bad).expect("salvage");
    assert!(!s.is_complete() && s.lost_bytes() > 0);

    std::fs::remove_file(&path).ok();
}

fn autotune_stage() {
    let tuner = Tuner::new();
    for (name, best) in [("dslash_wilson", 2), ("halo_exchange", 4)] {
        let mut k = ModelKernel {
            name,
            best_policy: best,
        };
        let won = tuner.tune(&mut k); // miss: sweeps 6 candidates
        assert_eq!(won.policy, best);
        assert_eq!(tuner.tune(&mut k).policy, best); // hit: pure lookup
    }
}

fn sched_stage() -> Vec<SweepPoint> {
    ["naive", "metaq", "mpi_jm"]
        .into_iter()
        .map(|s| run_point(SCHED_MTBF, s))
        .collect()
}

/// Run the metrics experiment: exercise every instrumented layer under a
/// fresh registry and write the deterministic `metrics.json` snapshot.
pub fn run_metrics(out: &ExperimentOutput) -> MetricsResult {
    let reg = Registry::new();
    let clock = ManualClock::new(0.0);
    reg.set_clock(clock.clone());
    let _guard = reg.install_scoped();

    // Each stage is bracketed by a stage event on the manual clock, so the
    // event log shows simulated — never wall — time.
    let stage = |name: &str, f: &mut dyn FnMut()| {
        reg.event("metrics.stage", vec![("stage", Json::from(name))]);
        f();
        clock.advance(1.0);
    };
    stage("solver", &mut solver_stage);
    stage("io", &mut || io_stage(out));
    stage("autotune", &mut autotune_stage);
    let mut points = Vec::new();
    stage("schedulers", &mut || points = sched_stage());

    // Sustained fraction of peak per scheduler: completed work over the
    // makespan, against the 64-node slice of Sierra's fp32 peak.
    let peak_flops = 64.0 * sierra().fp32_tflops_per_node * 1e12;
    let sched_rows: Vec<(String, f64, f64)> = points
        .iter()
        .map(|p| {
            (
                p.scheduler.to_string(),
                p.report.utilization(),
                p.report.sustained_flops() / peak_flops,
            )
        })
        .collect();
    print_table(
        &format!("Metrics run — schedulers at MTBF {SCHED_MTBF:.0} s, 64 Sierra nodes"),
        &["scheduler", "utilization", "sustained TFLOP/s", "of peak"],
        &sched_rows
            .iter()
            .zip(&points)
            .map(|((name, util, frac), p)| {
                vec![
                    name.clone(),
                    format!("{:.1}%", 100.0 * util),
                    format!("{:.0}", p.report.sustained_flops() / 1e12),
                    format!("{:.1}%", 100.0 * frac),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let json = Json::obj(vec![
        ("experiment", Json::from("metrics")),
        (
            "workload",
            Json::from(
                "4^3x8 Wilson mixed-CG + escalation; container round trip with 2 injected CRC \
                 faults + salvage; 2 modeled autotune sweeps; 3 schedulers at MTBF 10000 s",
            ),
        ),
        (
            "schedulers",
            Json::Arr(
                points
                    .iter()
                    .zip(&sched_rows)
                    .map(|(p, (name, util, frac))| {
                        Json::obj(vec![
                            ("scheduler", Json::from(name.as_str())),
                            ("mtbf_seconds", Json::from(p.mtbf)),
                            ("utilization", Json::from(*util)),
                            ("sustained_flops", Json::from(p.report.sustained_flops())),
                            ("fraction_of_peak", Json::from(*frac)),
                            ("faults", fault_stats_json(&p.report.faults)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("registry", reg.to_json()),
    ]);
    std::fs::write(out.path("metrics.json"), json.to_string_pretty()).expect("write metrics.json");
    std::fs::write(out.path("metrics.csv"), reg.to_csv()).expect("write metrics.csv");

    MetricsResult { json, sched_rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_into(dir: &str) -> MetricsResult {
        let out = ExperimentOutput::new(std::env::temp_dir().join(dir)).unwrap();
        run_metrics(&out)
    }

    #[test]
    fn metrics_json_is_bit_stable_across_runs() {
        let a = run_into("metrics_test_a");
        let b = run_into("metrics_test_b");
        assert_eq!(
            a.json.to_string_pretty(),
            b.json.to_string_pretty(),
            "metrics.json must be byte-identical between runs"
        );
    }

    #[test]
    fn metrics_json_contains_every_layer() {
        let r = run_into("metrics_test_c");
        let reg = r.json.get("registry").expect("registry section");
        // Solver iteration counters from both the healthy and robust solves.
        assert!(
            reg.get_path(&["counters", "solver.mixed.iters"])
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
        assert_eq!(
            reg.get_path(&["counters", "solver.robust.escalations"])
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Injected transient faults and the salvage.
        assert_eq!(
            reg.get_path(&["counters", "io.crc_retries"])
                .unwrap()
                .as_u64(),
            Some(INJECTED_CRC_FAULTS as u64)
        );
        assert_eq!(
            reg.get_path(&["counters", "io.salvage.calls"])
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Autotune cache behaviour: one miss + one hit per kernel.
        assert_eq!(
            reg.get_path(&["counters", "autotune.cache_hits"])
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert_eq!(
            reg.get_path(&["counters", "autotune.cache_misses"])
                .unwrap()
                .as_u64(),
            Some(2)
        );
        // Scheduler gauges for all three schedulers.
        for s in ["naive", "metaq", "mpi_jm"] {
            let u = reg
                .get_path(&["gauges", &format!("sched.{s}.utilization")])
                .unwrap_or_else(|| panic!("missing sched.{s}.utilization"))
                .as_f64()
                .unwrap();
            // Can exceed 1 at harsh MTBF: busy seconds are normalized by
            // the *surviving* nodes' availability.
            assert!(u.is_finite() && u >= 0.0, "utilization {u} for {s}");
        }
        // The stage markers rode the manual clock.
        assert_eq!(
            reg.get_path(&["event_counts", "metrics.stage"])
                .unwrap()
                .as_u64(),
            Some(4)
        );
    }
}
