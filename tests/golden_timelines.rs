//! Golden event-timeline regression tests: each scheduler replays a fixed
//! workload under a deterministic fault schedule (same shape as the
//! `fault_recovery` property tests) while a fresh registry records its
//! event stream. The rendered timeline must match the committed golden in
//! `tests/goldens/` line for line — any change to scheduling order, fault
//! handling, or event fields shows up as a legible text diff.
//!
//! Regenerate after an intentional behaviour change with:
//! `UPDATE_GOLDENS=1 cargo test --test golden_timelines`

use lqcd::jobmgr::{
    Cluster, ClusterConfig, FaultConfig, MetaqScheduler, MpiJmConfig, MpiJmScheduler, NaiveBundler,
    RetryPolicy, SimReport, Workload,
};
use lqcd::machine::sierra;
use obs::Registry;
use std::path::PathBuf;

/// A fixed, fully seeded scenario the schedulers replay.
struct Scenario {
    /// Golden-file infix (`<scheduler><suffix>_timeline.txt`).
    suffix: &'static str,
    workload: Workload,
    cluster: ClusterConfig,
    faults: FaultConfig,
    mpi_jm: MpiJmConfig,
    /// The golden pins `{report:?}` after the timeline, so records, wasted
    /// records, attempts and `FaultStats` are held too, not just events.
    pin_report: bool,
}

/// 24 heterogeneous 2-node solves on 12 nodes, node crashes at MTBF
/// 12 000 s plus 5% transient failures.
fn solves() -> Scenario {
    Scenario {
        suffix: "",
        workload: Workload::heterogeneous_solves(24, 2, 400.0, 0.3, 1e14, 11),
        cluster: ClusterConfig {
            nodes: 12,
            jitter_sigma: 0.05,
            startup_failure_prob: 0.0,
            seed: 5,
        },
        faults: FaultConfig {
            node_mtbf_seconds: 12_000.0,
            transient_fail_prob: 0.05,
            seed: 42,
            ..FaultConfig::default()
        },
        mpi_jm: MpiJmConfig {
            lump_nodes: 16,
            block_nodes: 4,
            ..MpiJmConfig::default()
        },
        pin_report: false,
    }
}

/// Everything the schedulers share beyond GPU solves: the Fig. 2 workflow
/// (dependencies, contractions, I/O) on 16 nodes, one of them dead at
/// startup, with all four fault channels on. The seeds are chosen so every
/// scheduler's golden holds a `blacklist`, a `task_failed` and a
/// `task_abandoned`, `mpi_jm` strands a ready task on shrunken blocks, and
/// a co-scheduled contraction is killed once by a crash and once by a
/// transient failure.
fn fig2() -> Scenario {
    Scenario {
        suffix: "_fig2",
        workload: Workload::figure2_workflow(2, 6, 4, 400.0, 1e14),
        cluster: ClusterConfig {
            nodes: 16,
            jitter_sigma: 0.05,
            startup_failure_prob: 0.05,
            seed: 7,
        },
        faults: FaultConfig {
            node_mtbf_seconds: 8_000.0,
            transient_fail_prob: 0.15,
            straggler_prob: 0.1,
            nic_degrade_prob: 0.15,
            seed: 59_320,
            ..FaultConfig::default()
        },
        mpi_jm: MpiJmConfig {
            lump_nodes: 4,
            block_nodes: 4,
            ..MpiJmConfig::default()
        },
        pin_report: true,
    }
}

fn run_scheduler(which: &str, sc: &Scenario) -> (Registry, SimReport) {
    let policy = RetryPolicy::default();
    let mut cluster = Cluster::new(sierra(), &sc.cluster);
    let reg = Registry::new();
    let report = {
        let _guard = reg.install_scoped();
        match which {
            "naive" => {
                NaiveBundler::run_with_faults(&mut cluster, &sc.workload, &sc.faults, &policy)
            }
            "metaq" => {
                MetaqScheduler::run_with_faults(&mut cluster, &sc.workload, &sc.faults, &policy)
            }
            "mpi_jm" => MpiJmScheduler::new(sc.mpi_jm).run_with_faults(
                &mut cluster,
                &sc.workload,
                &sc.faults,
                &policy,
            ),
            "mpi_jm_noco" => MpiJmScheduler::new(MpiJmConfig {
                co_schedule: false,
                ..sc.mpi_jm
            })
            .run_with_faults(&mut cluster, &sc.workload, &sc.faults, &policy),
            other => unreachable!("unknown scheduler {other}"),
        }
    };
    (reg, report)
}

fn golden_path(name: &str, sc: &Scenario) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}{}_timeline.txt", sc.suffix))
}

fn check_timeline(name: &str, sc: &Scenario) {
    let (reg, report) = run_scheduler(name, sc);
    let mut timeline = reg.events().render_timeline();
    if sc.pin_report {
        timeline.push_str(&format!("{report:?}\n"));
    }

    // The event stream must agree with the report's own accounting.
    assert_eq!(
        reg.events().count_kind("task_end"),
        report.completed_tasks as u64,
        "one task_end per completed task"
    );
    assert_eq!(
        reg.events().count_kind("node_crash"),
        report.faults.node_crashes as u64,
        "one node_crash event per crash"
    );
    assert_eq!(
        reg.events().count_kind("task_abandoned"),
        report.faults.abandoned_tasks as u64
    );
    assert!(
        reg.events().count_kind("task_start") >= report.completed_tasks as u64,
        "every completion implies at least one start"
    );

    let path = golden_path(name, sc);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &timeline).unwrap();
        eprintln!("updated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with UPDATE_GOLDENS=1 to create it",
            path.display()
        )
    });
    if timeline != golden {
        let first_diff = timeline
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| timeline.lines().count().min(golden.lines().count()));
        panic!(
            "{name}{} timeline diverged from golden at line {} \
             (got {} lines, golden {}):\n  got:    {:?}\n  golden: {:?}\n\
             rerun with UPDATE_GOLDENS=1 if the change is intentional",
            sc.suffix,
            first_diff + 1,
            timeline.lines().count(),
            golden.lines().count(),
            timeline.lines().nth(first_diff).unwrap_or("<eof>"),
            golden.lines().nth(first_diff).unwrap_or("<eof>"),
        );
    }
}

#[test]
fn naive_timeline_matches_golden() {
    check_timeline("naive", &solves());
}

#[test]
fn metaq_timeline_matches_golden() {
    check_timeline("metaq", &solves());
}

#[test]
fn mpi_jm_timeline_matches_golden() {
    check_timeline("mpi_jm", &solves());
}

#[test]
fn fig2_workflow_timelines_match_goldens() {
    for name in ["naive", "metaq", "mpi_jm", "mpi_jm_noco"] {
        check_timeline(name, &fig2());
    }
}
