//! METAQ: shell-level backfilling between the batch scheduler and the user's
//! job scripts.
//!
//! METAQ keeps a queue of task scripts and starts the next one whenever
//! resources free up — recovering the idle time naive bundling wastes
//! ("effectively providing an across-the-board 25% speed-up"). Being
//! hardware-agnostic it cannot keep allocations close together, so as jobs
//! of different sizes complete "the available nodes became fragmented,
//! impacting performance"; and each task costs a separate `mpirun`
//! invocation, which taxes the service nodes.
//!
//! Because each task is its own `mpirun`, METAQ's fault blast radius is a
//! single task: a node crash kills only the tasks whose allocation touched
//! that node, and each is individually requeued with backoff. That places it
//! between naive bundling (whole-wave blast radius) and `mpi_jm`
//! (block-isolated) in the `repro faults` sweep.

use crate::cluster::Cluster;
use crate::des::{run_queue, Placed, Placement};
use crate::fault::{FaultConfig, FaultInjector, RetryPolicy};
use crate::report::SimReport;
use crate::task::{TaskKind, TaskSpec, Workload};

/// Multiplicative slowdown of a task whose allocation is not contiguous.
pub const FRAGMENTATION_PENALTY: f64 = 0.95;

/// Serialized `mpirun` launch cost on the service node, seconds per task.
pub const MPIRUN_LAUNCH_SECONDS: f64 = 1.0;

/// Whole-machine first fit, as METAQ and the naive bundler both allocate:
/// any free nodes will do (a contraction takes a whole node, I/O runs on the
/// service nodes and takes none). Occupies the nodes and returns them with
/// the pace their slowest member and NIC set.
pub(crate) fn first_fit(
    cluster: &mut Cluster,
    injector: &FaultInjector,
    task: &TaskSpec,
) -> Option<(Vec<usize>, f64)> {
    let alloc = match task.kind {
        TaskKind::PropagatorSolve { nodes } => cluster.find_free_nodes(nodes, true)?,
        TaskKind::Contraction => cluster.find_free_nodes(1, true)?,
        TaskKind::Io => return Some((Vec::new(), 1.0)),
    };
    cluster.occupy(&alloc);
    let speed = cluster.group_speed(&alloc) * injector.nic_speed(&alloc);
    Some((alloc, speed))
}

/// METAQ's placement policy: hardware-agnostic first fit over the whole
/// machine, one serialized `mpirun` per task.
pub(crate) struct FirstFit {
    /// The service-node launcher is serialized: the next `mpirun` may start
    /// then.
    launcher_free_at: f64,
}

impl Placement for FirstFit {
    const NAME: &'static str = "metaq";

    fn place(
        &mut self,
        cluster: &mut Cluster,
        injector: &FaultInjector,
        task: &TaskSpec,
        time: f64,
    ) -> Option<Placed> {
        let (alloc, mut speed) = first_fit(cluster, injector, task)?;
        if !Cluster::is_contiguous(&alloc) {
            speed *= FRAGMENTATION_PENALTY;
        }
        // Pay the serialized mpirun cost.
        let launch_at = time.max(self.launcher_free_at);
        self.launcher_free_at = launch_at + MPIRUN_LAUNCH_SECONDS;
        Some(Placed {
            alloc,
            cpu_pin: None,
            start: launch_at + MPIRUN_LAUNCH_SECONDS,
            speed,
        })
    }

    fn release(&mut self, cluster: &mut Cluster, alloc: &[usize], _cpu_pin: Option<usize>) {
        cluster.release(alloc);
    }

    fn is_dead(&self, cluster: &Cluster, node: usize) -> bool {
        cluster.nodes[node].failed
    }

    fn retire(&mut self, cluster: &mut Cluster, node: usize) {
        cluster.mark_crashed(node);
    }

    fn capacity(&self, cluster: &Cluster) -> usize {
        cluster.healthy_nodes()
    }
}

/// The METAQ backfilling scheduler.
pub struct MetaqScheduler;

impl MetaqScheduler {
    /// Run `workload` on `cluster` on a pristine machine (no mid-run
    /// faults) with event-driven backfilling.
    pub fn run(cluster: &mut Cluster, workload: &Workload) -> SimReport {
        Self::run_with_faults(
            cluster,
            workload,
            &FaultConfig::default(),
            &RetryPolicy::default(),
        )
    }

    /// Run `workload` on `cluster` under the given mid-run fault model.
    ///
    /// Recovery policy: a crashed node kills only the tasks allocated on it;
    /// each victim (and each transient failure) is requeued with capped
    /// exponential backoff until its retry budget runs out. Nodes crossing
    /// the blacklist threshold of attributed transient faults are
    /// quarantined.
    pub fn run_with_faults(
        cluster: &mut Cluster,
        workload: &Workload,
        faults: &FaultConfig,
        policy: &RetryPolicy,
    ) -> SimReport {
        let first_fit = FirstFit {
            launcher_free_at: 0.0,
        };
        run_queue(first_fit, cluster, workload, faults, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use crate::naive::NaiveBundler;
    use coral_machine::sierra;

    fn cluster(nodes: usize, jitter: f64, seed: u64) -> Cluster {
        Cluster::new(
            sierra(),
            &ClusterConfig {
                nodes,
                jitter_sigma: jitter,
                startup_failure_prob: 0.0,
                seed,
            },
        )
    }

    #[test]
    fn backfilling_recovers_naive_bundling_waste() {
        // The paper's headline: METAQ gave "an across-the-board 25% speed-up"
        // over naive bundling on heterogeneous workloads.
        let w = Workload::heterogeneous_solves(16 * 8, 4, 1000.0, 0.35, 1e15, 7);
        let naive = NaiveBundler::run(&mut cluster(64, 0.06, 3), &w);
        let metaq = MetaqScheduler::run(&mut cluster(64, 0.06, 3), &w);
        let speedup = naive.makespan / metaq.makespan;
        assert!(
            (1.10..1.45).contains(&speedup),
            "METAQ speedup over naive should be ~1.25, got {speedup}"
        );
        assert!(metaq.utilization() > naive.utilization());
    }

    #[test]
    fn fragmentation_slows_some_tasks() {
        // Mixed task sizes fragment the free set; some allocations go
        // non-contiguous and run at the penalty speed.
        let mut tasks = Workload::heterogeneous_solves(40, 3, 500.0, 0.5, 1e15, 11);
        let extra = Workload::heterogeneous_solves(20, 5, 700.0, 0.5, 1e15, 13);
        let base = tasks.tasks.len();
        for (i, mut t) in extra.tasks.into_iter().enumerate() {
            t.id = base + i;
            tasks.tasks.push(t);
        }
        let r = MetaqScheduler::run(&mut cluster(32, 0.0, 5), &tasks);
        let fragmented = r
            .records
            .iter()
            .filter(|rec| !rec.nodes.is_empty() && !Cluster::is_contiguous(&rec.nodes))
            .count();
        assert!(fragmented > 0, "expected some fragmented allocations");
    }

    #[test]
    fn launch_cost_serializes_on_service_node() {
        // 8 zero-length-ish tasks cost 8 serialized mpirun invocations.
        let w = Workload::uniform_solves(8, 1, 0.001, 1.0);
        let r = MetaqScheduler::run(&mut cluster(8, 0.0, 7), &w);
        assert!(
            r.makespan >= 8.0 * MPIRUN_LAUNCH_SECONDS,
            "serialized launches must bound the makespan: {}",
            r.makespan
        );
    }

    #[test]
    fn dependencies_are_honored() {
        let w = Workload::figure2_workflow(1, 3, 2, 50.0, 1e14);
        let r = MetaqScheduler::run(&mut cluster(8, 0.0, 9), &w);
        for t in &w.tasks {
            for &d in &t.deps {
                assert!(r.records[d].end <= r.records[t.id].start + 1e-9);
            }
        }
    }

    #[test]
    fn node_crash_kills_only_colocated_tasks() {
        // 4 single-node tasks; a crash mid-run kills at most the tasks on
        // the crashed node — the others finish undisturbed on first attempt.
        let w = Workload::uniform_solves(4, 1, 5_000.0, 1e15);
        let faults = FaultConfig {
            node_mtbf_seconds: 20_000.0,
            seed: 5,
            ..FaultConfig::default()
        };
        let r = MetaqScheduler::run_with_faults(
            &mut cluster(4, 0.0, 7),
            &w,
            &faults,
            &RetryPolicy::default(),
        );
        assert!(r.faults.node_crashes >= 1, "{:?}", r.faults);
        let first_try = r.records.iter().filter(|rec| rec.attempts == 1).count();
        assert!(
            first_try >= 4usize.saturating_sub(r.faults.node_crashes + r.faults.requeues),
            "crash blast radius must be per-node, not whole-queue"
        );
        assert_eq!(r.completed_tasks + r.failed_tasks, 4);
    }

    #[test]
    fn des_invariants_hold_under_faults() {
        // No oversubscription, causality, and task-count conservation with
        // crashes + transient failures + stragglers all enabled.
        let w = Workload::heterogeneous_solves(48, 2, 400.0, 0.4, 1e15, 17);
        let faults = FaultConfig {
            node_mtbf_seconds: 30_000.0,
            transient_fail_prob: 0.15,
            straggler_prob: 0.1,
            seed: 23,
            ..FaultConfig::default()
        };
        let r = MetaqScheduler::run_with_faults(
            &mut cluster(16, 0.05, 9),
            &w,
            &faults,
            &RetryPolicy::default(),
        );
        assert_eq!(r.completed_tasks + r.failed_tasks, 48);
        // Each completed task appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for rec in &r.records {
            assert!(seen.insert(rec.id));
            assert!(rec.end >= rec.start);
        }
        // No two records (successful or wasted) overlap on a node.
        let mut intervals: Vec<(usize, f64, f64)> = Vec::new();
        for rec in r.records.iter().chain(&r.wasted_records) {
            for &node in &rec.nodes {
                intervals.push((node, rec.start, rec.end));
            }
        }
        intervals.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).expect("finite"));
        for w2 in intervals.windows(2) {
            if w2[0].0 == w2[1].0 {
                assert!(
                    w2[0].2 <= w2[1].1 + 1e-9,
                    "node {} oversubscribed: [{}, {}] overlaps [{}, {}]",
                    w2[0].0,
                    w2[0].1,
                    w2[0].2,
                    w2[1].1,
                    w2[1].2
                );
            }
        }
    }
}
