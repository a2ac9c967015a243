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
use crate::des::{cascade_fail, Event, Ord64};
use crate::fault::{
    AttemptFate, FaultConfig, FaultInjector, FaultStats, RecoveryState, RetryPolicy,
};
use crate::instrument::SchedObs;
use crate::report::{SimReport, TaskRecord};
use crate::task::{TaskKind, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Multiplicative slowdown of a task whose allocation is not contiguous.
pub const FRAGMENTATION_PENALTY: f64 = 0.95;

/// Serialized `mpirun` launch cost on the service node, seconds per task.
pub const MPIRUN_LAUNCH_SECONDS: f64 = 1.0;

/// An in-flight attempt.
struct RunInfo {
    alloc: Vec<usize>,
    start: f64,
    speed: f64,
    attempt: usize,
    epoch: u64,
    /// The scheduled `TaskEnd` is a transient death, not a completion.
    fails: bool,
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
        let n = workload.len();
        let n_nodes = cluster.nodes.len();
        let sobs = SchedObs::new("metaq");
        let injector = FaultInjector::new(*faults, n_nodes);
        let mut recovery = RecoveryState::new(n, n_nodes);
        let mut stats = FaultStats {
            nic_degraded_nodes: (0..n_nodes).filter(|&i| injector.nic_degraded(i)).count(),
            ..FaultStats::default()
        };

        let mut dep_count: Vec<usize> = workload.tasks.iter().map(|t| t.deps.len()).collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in &workload.tasks {
            for &d in &t.deps {
                dependents[d].push(t.id);
            }
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| dep_count[i] == 0).collect();
        let mut records: Vec<Option<TaskRecord>> = vec![None; n];
        let mut wasted_records: Vec<TaskRecord> = Vec::new();
        let mut running: Vec<Option<RunInfo>> = (0..n).map(|_| None).collect();
        let mut epoch: Vec<u64> = vec![0; n];
        let mut events: BinaryHeap<Reverse<(Ord64, Event)>> = BinaryHeap::new();
        for node in 0..n_nodes {
            let ct = injector.crash_time(node);
            if ct.is_finite() {
                events.push(Reverse((Ord64(ct), Event::NodeCrash { node })));
            }
        }
        let mut time = 0.0f64;
        let mut busy_node_seconds = 0.0;
        let mut completed_flops = 0.0;
        let mut done = vec![false; n];
        let mut settled = 0usize; // done + permanently failed
                                  // Service-node launcher is serialized: next mpirun may start then.
        let mut launcher_free_at = 0.0f64;

        while settled < n {
            // Start everything that fits right now, FIFO over ready tasks.
            let mut started_any = true;
            while started_any {
                started_any = false;
                let mut next_ready = Vec::new();
                for &id in &ready {
                    if recovery.failed[id] {
                        continue; // abandoned while queued
                    }
                    let t = &workload.tasks[id];
                    let start_attempt = match t.kind {
                        TaskKind::PropagatorSolve { nodes } => cluster.find_free_nodes(nodes, true),
                        TaskKind::Contraction => cluster.find_free_nodes(1, true),
                        TaskKind::Io => Some(Vec::new()),
                    };
                    match start_attempt {
                        Some(alloc) => {
                            // Pay the serialized mpirun cost.
                            let launch_at = time.max(launcher_free_at);
                            launcher_free_at = launch_at + MPIRUN_LAUNCH_SECONDS;
                            let start = launch_at + MPIRUN_LAUNCH_SECONDS;
                            cluster.occupy(&alloc);
                            let attempt = recovery.start_attempt(id, &mut stats);
                            let mut speed = if alloc.is_empty() {
                                1.0
                            } else {
                                cluster.group_speed(&alloc) * injector.nic_speed(&alloc)
                            };
                            if !alloc.is_empty() && !Cluster::is_contiguous(&alloc) {
                                speed *= FRAGMENTATION_PENALTY;
                            }
                            let fate = injector.attempt_fate(id, attempt);
                            if let AttemptFate::Straggler { slowdown } = fate {
                                speed *= slowdown;
                                stats.stragglers += 1;
                            }
                            let dur = t.base_seconds / speed;
                            let (end, fails) = match fate {
                                AttemptFate::TransientFailure { at_fraction } => {
                                    (start + dur * at_fraction, true)
                                }
                                _ => (start + dur, false),
                            };
                            epoch[id] += 1;
                            sobs.task_start(start, id, attempt, alloc.len());
                            running[id] = Some(RunInfo {
                                alloc,
                                start,
                                speed,
                                attempt,
                                epoch: epoch[id],
                                fails,
                            });
                            events.push(Reverse((
                                Ord64(end),
                                Event::TaskEnd {
                                    id,
                                    epoch: epoch[id],
                                },
                            )));
                            started_any = true;
                        }
                        None => next_ready.push(id),
                    }
                }
                ready = next_ready;
            }
            sobs.queue_depth(ready.len());
            sobs.nodes_busy(running.iter().flatten().map(|ri| ri.alloc.len()).sum());

            // Nothing running and no events left: the stranded ready tasks
            // can never fit on what remains of the machine.
            let any_running = running.iter().any(|r| r.is_some());
            if !any_running && events.is_empty() {
                if !ready.is_empty() && faults.enabled() {
                    for id in ready.drain(..) {
                        if !recovery.failed[id] {
                            recovery.failed[id] = true;
                            stats.abandoned_tasks += 1;
                            sobs.task_abandoned(time, id);
                            settled += 1;
                            cascade_fail(
                                id,
                                time,
                                &sobs,
                                &mut recovery,
                                &dependents,
                                &mut stats,
                                &mut settled,
                            );
                        }
                    }
                    continue;
                }
                assert!(
                    ready.is_empty(),
                    "tasks pending but nothing running: deadlock"
                );
                break; // only dep-waiting tasks remain; cascade settled them
            }

            // Advance to the next event.
            let Some(Reverse((Ord64(t_ev), ev))) = events.pop() else {
                break;
            };
            time = time.max(t_ev);
            match ev {
                Event::TaskEnd { id, epoch: ep } => {
                    // Epoch mismatch (or an empty slot) marks the stale
                    // tombstone of a killed attempt: leave it untouched.
                    let Some(ri) = running[id].take_if(|ri| ri.epoch == ep) else {
                        continue;
                    };
                    cluster.release(&ri.alloc);
                    let t = &workload.tasks[id];
                    if ri.fails {
                        // Transient failure partway through the attempt.
                        stats.transient_failures += 1;
                        sobs.task_killed(time, id, ri.attempt, "transient");
                        stats.wasted_node_seconds +=
                            (time - ri.start).max(0.0) * ri.alloc.len() as f64;
                        wasted_records.push(TaskRecord {
                            id,
                            start: ri.start,
                            end: time,
                            nodes: ri.alloc.clone(),
                            speed: ri.speed,
                            attempts: ri.attempt,
                        });
                        if let Some(&node) = ri.alloc.first() {
                            if recovery.attribute_node_fault(node, policy)
                                && !cluster.nodes[node].failed
                            {
                                cluster.mark_crashed(node);
                                stats.blacklisted_nodes += 1;
                                sobs.blacklist(time, node);
                            }
                        }
                        if recovery.requeue_or_fail(id, time, policy, &mut stats) {
                            sobs.requeue(time, id, recovery.ready_at[id]);
                            events.push(Reverse((
                                Ord64(recovery.ready_at[id]),
                                Event::TaskReady { id },
                            )));
                        } else {
                            settled += 1;
                            sobs.task_failed(time, id);
                            cascade_fail(
                                id,
                                time,
                                &sobs,
                                &mut recovery,
                                &dependents,
                                &mut stats,
                                &mut settled,
                            );
                        }
                    } else {
                        if matches!(t.kind, TaskKind::PropagatorSolve { .. }) {
                            busy_node_seconds += (time - ri.start) * ri.alloc.len() as f64;
                        }
                        completed_flops += t.flops;
                        records[id] = Some(TaskRecord {
                            id,
                            start: ri.start,
                            end: time,
                            nodes: ri.alloc,
                            speed: ri.speed,
                            attempts: ri.attempt,
                        });
                        done[id] = true;
                        settled += 1;
                        sobs.task_end(time, id, ri.attempt);
                        for &dep in &dependents[id] {
                            dep_count[dep] -= 1;
                            if dep_count[dep] == 0 && !recovery.failed[dep] {
                                ready.push(dep);
                            }
                        }
                    }
                }
                Event::NodeCrash { node } => {
                    if cluster.nodes[node].failed {
                        continue; // dead at startup or already blacklisted
                    }
                    stats.node_crashes += 1;
                    sobs.node_crash(time, node);
                    // Kill every attempt whose allocation touches the node.
                    for id in 0..n {
                        let Some(ri) = running[id].take_if(|ri| ri.alloc.contains(&node)) else {
                            continue;
                        };
                        cluster.release(&ri.alloc);
                        sobs.task_killed(time, id, ri.attempt, "node_crash");
                        stats.wasted_node_seconds +=
                            (time - ri.start).max(0.0) * ri.alloc.len() as f64;
                        wasted_records.push(TaskRecord {
                            id,
                            start: ri.start,
                            end: time,
                            nodes: ri.alloc,
                            speed: ri.speed,
                            attempts: ri.attempt,
                        });
                        if recovery.requeue_or_fail(id, time, policy, &mut stats) {
                            sobs.requeue(time, id, recovery.ready_at[id]);
                            events.push(Reverse((
                                Ord64(recovery.ready_at[id]),
                                Event::TaskReady { id },
                            )));
                        } else {
                            settled += 1;
                            sobs.task_failed(time, id);
                            cascade_fail(
                                id,
                                time,
                                &sobs,
                                &mut recovery,
                                &dependents,
                                &mut stats,
                                &mut settled,
                            );
                        }
                    }
                    cluster.mark_crashed(node);
                }
                Event::TaskReady { id } => {
                    if !done[id] && !recovery.failed[id] && running[id].is_none() {
                        ready.push(id);
                    }
                }
            }
        }

        let completed_tasks = done.iter().filter(|&&d| d).count();
        let failed_tasks = recovery.failed.iter().filter(|&&f| f).count();
        let healthy = cluster.healthy_nodes() as f64;
        let report = SimReport {
            makespan: time,
            startup: 0.0,
            busy_node_seconds,
            total_node_seconds: healthy * time,
            records: records.into_iter().flatten().collect(),
            total_flops: workload.total_flops(),
            completed_flops,
            completed_tasks,
            failed_tasks,
            task_attempts: recovery.attempts,
            wasted_records,
            faults: stats,
        };
        sobs.finish(&report);
        report
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
