//! Naive bundling: collect a wave of tasks, launch them simultaneously, and
//! wait for the whole wave to finish before starting the next.
//!
//! This is the baseline the paper measured at 20–25% idle: "naively bundling
//! tasks — simply collecting and simultaneously launching HPC steps, and
//! waiting for their completion — often caused a 20 to 25% idling
//! inefficiency", because nodes differ in performance and task durations
//! vary, so every wave ends at the pace of its slowest member.
//!
//! Under mid-run faults the baseline is even worse than idle: the wave is
//! one bundled `mpirun`, so the first node crash or task failure inside it
//! kills *every* task still in flight (one sick node costs the whole job
//! step). Each kill burns one retry attempt for every unfinished wave
//! member, which is why naive bundling collapses in the `repro faults`
//! sweep while `mpi_jm` degrades gracefully.

use crate::cluster::Cluster;
use crate::des::{Attempt, Ledger, Placed};
use crate::fault::{FaultConfig, RetryPolicy};
use crate::metaq::first_fit;
use crate::report::SimReport;
use crate::task::Workload;

/// The naive wave-at-a-time bundler.
pub struct NaiveBundler;

impl NaiveBundler {
    /// Run `workload` on `cluster` on a pristine machine (no mid-run
    /// faults), returning the schedule report.
    ///
    /// Dependencies are honored across waves: a task joins a wave only when
    /// all of its dependencies completed in earlier waves.
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
    /// Recovery policy: a killed wave requeues every unfinished member with
    /// capped exponential backoff; a member whose retry budget is exhausted
    /// is permanently failed. Nodes crossing the blacklist threshold of
    /// attributed transient faults are quarantined.
    pub fn run_with_faults(
        cluster: &mut Cluster,
        workload: &Workload,
        faults: &FaultConfig,
        policy: &RetryPolicy,
    ) -> SimReport {
        let n = workload.len();
        let n_nodes = cluster.nodes.len();
        let mut ledger = Ledger::new("naive", n, n_nodes, faults);
        let mut time = 0.0f64;

        loop {
            // Retire nodes whose crash time has passed while idle.
            for node in 0..n_nodes {
                if ledger.injector.crash_time(node) <= time && !cluster.nodes[node].failed {
                    cluster.mark_crashed(node);
                    ledger.node_crashed(time, node);
                }
            }
            // Abandon tasks whose dependencies permanently failed.
            loop {
                let mut cascaded = false;
                for t in &workload.tasks {
                    if !ledger.done[t.id]
                        && !ledger.recovery.failed[t.id]
                        && t.deps.iter().any(|&d| ledger.recovery.failed[d])
                    {
                        ledger.abandon(t.id, time);
                        cascaded = true;
                    }
                }
                if !cascaded {
                    break;
                }
            }
            let pending: Vec<usize> = (0..n)
                .filter(|&i| !ledger.done[i] && !ledger.recovery.failed[i])
                .collect();
            ledger.sobs.queue_depth(pending.len());
            if pending.is_empty() {
                break;
            }
            // Honor backoff gates: if every dep-ready task is still backing
            // off, idle forward to the earliest gate.
            let dep_ready = |i: usize| workload.tasks[i].deps.iter().all(|&d| ledger.done[d]);
            let ready: Vec<usize> = pending
                .iter()
                .copied()
                .filter(|&i| dep_ready(i) && ledger.recovery.ready_at[i] <= time)
                .collect();
            if ready.is_empty() {
                let next_gate = pending
                    .iter()
                    .filter(|&&i| dep_ready(i))
                    .map(|&i| ledger.recovery.ready_at[i])
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    next_gate.is_finite(),
                    "deadlock: pending tasks but no runnable dependency chain"
                );
                time = next_gate;
                continue;
            }

            // Collect the wave: ready tasks that fit in the (fully free)
            // machine simultaneously. Naive bundling gives contractions
            // their own whole node; GPUs on it idle.
            let mut wave: Vec<Attempt> = Vec::new();
            for &i in &ready {
                let t = &workload.tasks[i];
                let Some((alloc, speed)) = first_fit(cluster, &ledger.injector, t) else {
                    continue;
                };
                let placed = Placed {
                    alloc,
                    cpu_pin: None,
                    start: time,
                    speed,
                };
                wave.push(ledger.launch(t, placed));
            }
            ledger
                .sobs
                .nodes_busy(wave.iter().map(|w| w.alloc.len()).sum());
            if wave.is_empty() {
                // The machine is fully free here, so a ready task that
                // does not fit now never will: either capacity shrank
                // below its footprint or the workload was oversized from
                // the start. Abandon those gracefully (tasks merely
                // backing off get another chance) instead of panicking
                // mid-campaign.
                for &i in &ready {
                    ledger.abandon(i, time);
                }
                continue;
            }

            // The wave is one bundled launch: the first failure event —
            // a transient task death or a crash of any participating node —
            // kills everything still in flight.
            let nominal_end = wave.iter().map(|w| w.planned_end).fold(time, f64::max);
            let mut kill: Option<(f64, Option<usize>)> = None; // (when, crashed node)
            for w in &wave {
                if let Some(f) = w.fail_at {
                    if kill.is_none_or(|(k, _)| f < k) {
                        kill = Some((f, None));
                    }
                }
                for &node in &w.alloc {
                    let ct = ledger.injector.crash_time(node);
                    if ct > time && ct <= nominal_end && kill.is_none_or(|(k, _)| ct < k) {
                        kill = Some((ct, Some(node)));
                    }
                }
            }

            let wave_end = kill.map_or(nominal_end, |(k, _)| k);
            for w in &wave {
                cluster.release(&w.alloc);
                if w.planned_end <= wave_end {
                    // Finished before the bundle died (output already on
                    // disk) — or the wave was never killed.
                    ledger.complete(&workload.tasks[w.id], w);
                } else if w.fail_at == Some(wave_end) {
                    ledger.killed(w, wave_end, "transient");
                    if let Some(&node) = w.alloc.first() {
                        if ledger.blame(node, policy) && !cluster.nodes[node].failed {
                            cluster.mark_crashed(node);
                            ledger.blacklisted(wave_end, node);
                        }
                    }
                    ledger.requeue(w.id, wave_end, policy);
                } else {
                    // Killed as part of the bundle.
                    ledger.killed(w, wave_end, "wave_kill");
                    ledger.requeue(w.id, wave_end, policy);
                }
            }
            if let Some((k, Some(node))) = kill {
                // The crash culprit is retired permanently.
                if !cluster.nodes[node].failed {
                    cluster.mark_crashed(node);
                    ledger.node_crashed(k, node);
                }
            }
            time = wave_end;
        }

        let healthy = cluster.healthy_nodes();
        ledger.finish(workload, time, healthy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;
    use coral_machine::sierra;

    #[test]
    fn uniform_tasks_on_uniform_nodes_have_no_waste() {
        let mut c = Cluster::new(
            sierra(),
            &ClusterConfig {
                nodes: 16,
                jitter_sigma: 0.0,
                startup_failure_prob: 0.0,
                seed: 1,
            },
        );
        // 8 tasks of 4 nodes on 16 nodes: two perfect waves.
        let w = Workload::uniform_solves(8, 4, 100.0, 1e15);
        let r = NaiveBundler::run(&mut c, &w);
        assert!((r.makespan - 200.0).abs() < 1e-9);
        assert!((r.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(r.completed_tasks, 8);
        assert_eq!(r.failed_tasks, 0);
        assert!((r.completed_work_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_tasks_idle_20_to_25_percent() {
        // The paper's observation: heterogeneous durations + node jitter
        // under wave-bundling waste ~20-25%.
        let mut c = Cluster::new(
            sierra(),
            &ClusterConfig {
                nodes: 64,
                jitter_sigma: 0.06,
                startup_failure_prob: 0.0,
                seed: 3,
            },
        );
        let w = Workload::heterogeneous_solves(16 * 8, 4, 1000.0, 0.35, 1e15, 7);
        let r = NaiveBundler::run(&mut c, &w);
        let waste = 1.0 - r.utilization();
        assert!(
            (0.12..0.35).contains(&waste),
            "naive bundling should waste ~20-25%, got {waste}"
        );
    }

    #[test]
    fn dependencies_are_honored() {
        let mut c = Cluster::new(
            sierra(),
            &ClusterConfig {
                nodes: 8,
                jitter_sigma: 0.0,
                startup_failure_prob: 0.0,
                seed: 5,
            },
        );
        let w = Workload::figure2_workflow(1, 2, 4, 100.0, 1e15);
        let r = NaiveBundler::run(&mut c, &w);
        for t in &w.tasks {
            let rec = &r.records[t.id];
            for &d in &t.deps {
                assert!(
                    r.records[d].end <= rec.start + 1e-9,
                    "task {} started before dep {d} finished",
                    t.id
                );
            }
        }
    }

    #[test]
    fn a_node_crash_kills_the_whole_wave() {
        // One crash inside the first wave must requeue every unfinished
        // member (the bundle is a single mpirun), then finish on retry.
        let mut c = Cluster::new(
            sierra(),
            &ClusterConfig {
                nodes: 16,
                jitter_sigma: 0.0,
                startup_failure_prob: 0.0,
                seed: 1,
            },
        );
        let w = Workload::uniform_solves(4, 4, 1000.0, 1e15);
        // MTBF chosen so some node crashes inside the first ~1000 s.
        let faults = FaultConfig {
            node_mtbf_seconds: 10_000.0,
            seed: 3,
            ..FaultConfig::default()
        };
        let r = NaiveBundler::run_with_faults(&mut c, &w, &faults, &RetryPolicy::default());
        assert!(r.faults.node_crashes >= 1, "{:?}", r.faults);
        assert!(
            !r.wasted_records.is_empty(),
            "a mid-wave crash must kill in-flight collateral"
        );
        assert!(r.faults.wasted_node_seconds > 0.0);
        assert_eq!(
            r.completed_tasks + r.failed_tasks,
            4,
            "every task is accounted for"
        );
        // Retried tasks completed exactly once each.
        let mut seen = std::collections::HashSet::new();
        for rec in &r.records {
            assert!(seen.insert(rec.id), "task {} completed twice", rec.id);
        }
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        let mut c = Cluster::new(
            sierra(),
            &ClusterConfig {
                nodes: 8,
                jitter_sigma: 0.0,
                startup_failure_prob: 0.0,
                seed: 9,
            },
        );
        let w = Workload::uniform_solves(16, 4, 100.0, 1e15);
        let faults = FaultConfig {
            transient_fail_prob: 0.3,
            seed: 11,
            ..FaultConfig::default()
        };
        let policy = RetryPolicy::default();
        let r = NaiveBundler::run_with_faults(&mut c, &w, &faults, &policy);
        assert!(r.faults.transient_failures > 0, "{:?}", r.faults);
        for (i, &a) in r.task_attempts.iter().enumerate() {
            assert!(
                a <= policy.max_attempts,
                "task {i} burned {a} attempts > budget"
            );
        }
        assert_eq!(r.completed_tasks + r.failed_tasks, 16);
    }
}
