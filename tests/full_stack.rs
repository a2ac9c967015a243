//! Cross-crate integration tests: the full application stack wired together
//! the way the paper's production runs were.

use lqcd::analysis::jackknife::jackknife;
use lqcd::autotune::Tuner;
use lqcd::core::prelude::*;
use lqcd::jobmgr::{
    weak_scaling_point, Cluster, ClusterConfig, MetaqScheduler, MpiFlavor, NaiveBundler, Workload,
};
use lqcd::machine::{sierra, SolverPerfModel};
use std::collections::BTreeMap;

/// Gauge generation → I/O → solver → contraction → statistics, with
/// each stage from a different crate.
#[test]
fn gauge_to_correlator_through_every_crate() {
    let lat = Lattice::new([4, 4, 4, 8]);
    let mut ens = QuenchedEnsemble::cold_start(&lat, HeatbathParams { beta: 6.0, n_or: 1 }, 3);
    let configs = ens.generate(5, 3, 2);

    let dir = std::env::temp_dir().join("full_stack_test");
    std::fs::create_dir_all(&dir).unwrap();

    let mut pion_t1 = Vec::new();
    for (i, gauge) in configs.iter().enumerate() {
        // lattice-io round trip.
        let path = dir.join(format!("cfg{i}.lqio"));
        lqcd::io::write_gauge(&path, &lat, gauge, BTreeMap::new()).unwrap();
        let gauge = lqcd::io::read_gauge(&path, &lat).unwrap();

        // Red–black preconditioned Wilson solve of the propagator.
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.4 });
        let (prop, stats) = solver.point_propagator(0);
        assert!(stats.iter().all(|s| s.converged));

        let pion = pion_correlator(&lat, &prop);
        assert!(pion.iter().all(|&c| c > 0.0));
        pion_t1.push((pion[1] / pion[2]).ln());
    }
    std::fs::remove_dir_all(&dir).ok();

    // lqcd-analysis: jackknife the effective mass across configs.
    let est = jackknife(&pion_t1, |s| s.iter().sum::<f64>() / s.len() as f64);
    assert!(est.mean > 0.0, "pion effective mass positive: {est:?}");
    assert!(est.error.is_finite());
}

/// The machine model, autotuner, and job simulator agree on the headline
/// weak-scaling claim: sustained rate at scale is within the 15–20%-of-peak
/// band of the paper.
#[test]
fn sierra_at_scale_sustains_paper_efficiency_band() {
    let machine = sierra();
    let p = weak_scaling_point(
        &machine,
        [48, 48, 48, 64],
        12,
        4,
        256,
        4,
        MpiFlavor::Mvapich2JmSingle,
        9,
    )
    .expect("group size decomposes the lattice");
    // Peak of the engaged partition, with the paper's 1.675 accounting.
    let peak_tflops = 256.0 * 4.0 * machine.fp32_tflops_per_node;
    let pct = 100.0 * p.pflops * 1e3 * 1.675 / peak_tflops;
    assert!(
        (10.0..25.0).contains(&pct),
        "sustained {pct}% of peak should sit in the paper's 15-20% band"
    );
}

/// The solver model's 4-node group rate and the scheduler's utilization
/// compose: aggregate sustained ≈ groups × group rate × utilization.
#[test]
fn weak_scaling_decomposes_into_rate_times_utilization() {
    let machine = sierra();
    let tuner = Tuner::new();
    let model = SolverPerfModel::new(machine.clone(), [48, 48, 48, 64], 12);
    let group = model.performance(&tuner, 16).expect("fits");

    let p = weak_scaling_point(
        &machine,
        [48, 48, 48, 64],
        12,
        4,
        64,
        4,
        MpiFlavor::SpectrumIndividual,
        5,
    )
    .expect("group size decomposes the lattice");
    let ideal_pflops = 64.0 * group.tflops / 1000.0;
    assert!(
        p.pflops < ideal_pflops,
        "scheduled rate below ideal: {} vs {}",
        p.pflops,
        ideal_pflops
    );
    assert!(
        p.pflops > 0.55 * ideal_pflops,
        "but within overheads: {} vs {}",
        p.pflops,
        ideal_pflops
    );
}

/// Schedulers preserve work: every task runs exactly once, never before its
/// dependencies, and METAQ beats naive on the same workload.
#[test]
fn scheduler_invariants_on_the_figure2_workflow() {
    let workload = Workload::figure2_workflow(2, 6, 4, 300.0, 1e14);
    let config = ClusterConfig {
        nodes: 16,
        jitter_sigma: 0.05,
        startup_failure_prob: 0.0,
        seed: 7,
    };

    let naive = NaiveBundler::run(&mut Cluster::new(sierra(), &config), &workload);
    let metaq = MetaqScheduler::run(&mut Cluster::new(sierra(), &config), &workload);

    for report in [&naive, &metaq] {
        assert_eq!(report.records.len(), workload.len());
        for t in &workload.tasks {
            let rec = &report.records[t.id];
            assert!(rec.end >= rec.start);
            for &d in &t.deps {
                assert!(report.records[d].end <= rec.start + 1e-9);
            }
        }
    }
    assert!(metaq.makespan <= naive.makespan * 1.05);
}

/// gA from the synthetic Fig. 1 analysis feeds Eq. 1 and lands on a
/// physical lifetime.
#[test]
fn ga_to_lifetime_closure() {
    use lqcd::analysis::corrmodel::A09M310;
    let model = A09M310;
    let tau = lqcd::neutron_lifetime_seconds(model.ga);
    assert!(
        (850.0..900.0).contains(&tau),
        "τ_n({}) = {tau} s should be near the measured ~880 s",
        model.ga
    );
}
