//! `mpi_jm`: a library-level job manager with tight hardware binding.
//!
//! The design points implemented from §V of the paper:
//!
//! - The allocation is organized into **lumps** (e.g. 32–128 nodes), each
//!   started by its own `mpirun`; lumps that fail to start (bad node,
//!   filesystem trouble) are simply ignored, so one sick node costs a lump,
//!   not the job — the reason "relatively small lump sizes" are used on new
//!   systems.
//! - Lumps are subdivided into **blocks** whose size is a multiple of the
//!   largest job; jobs never straddle a block boundary, so allocations stay
//!   contiguous and "block boundaries prevent fragmentation and keep high
//!   bandwidth communications local".
//! - Jobs start via `MPI_Comm_spawn_multiple` inside their block — cheap and
//!   parallel across blocks, unlike METAQ's serialized `mpirun`s.
//! - **CPU/GPU co-scheduling**: CPU-only contractions overlay nodes whose
//!   GPUs run propagators, making their cost "effectively free".
//!
//! Mid-run faults extend the lump discipline into steady state: a node crash
//! kills only the jobs bound to that node, the surviving nodes of the block
//! re-spawn workers at the block boundary, and the victims are requeued into
//! other blocks with backoff. The blast radius is one job and the relaunch
//! is a cheap parallel `MPI_Comm_spawn`, which is why `mpi_jm` retains most
//! of its throughput in the `repro faults` sweep while naive bundling
//! collapses.

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

/// `mpi_jm` configuration.
#[derive(Clone, Copy, Debug)]
pub struct MpiJmConfig {
    /// Nodes per lump (one `mpirun` each).
    pub lump_nodes: usize,
    /// Nodes per block (must divide the lump and be ≥ the largest job).
    pub block_nodes: usize,
    /// `MPI_Comm_spawn_multiple` cost per job start, seconds (parallel
    /// across blocks).
    pub spawn_seconds: f64,
    /// Overlay CPU-only tasks on GPU-busy nodes.
    pub co_schedule: bool,
    /// Solve-rate multiplier of the MPI stack (e.g. untuned MVAPICH2 < 1).
    pub mpi_efficiency: f64,
}

impl Default for MpiJmConfig {
    fn default() -> Self {
        Self {
            lump_nodes: 32,
            block_nodes: 4,
            spawn_seconds: 0.5,
            co_schedule: true,
            mpi_efficiency: 1.0,
        }
    }
}

/// One block's bookkeeping: a contiguous node range inside a healthy lump.
#[derive(Clone, Debug)]
struct Block {
    nodes: Vec<usize>,
    /// Free whole-node slots (vector of node indices not in use by GPU jobs).
    free: Vec<usize>,
}

/// An in-flight attempt.
struct RunInfo {
    alloc: Vec<usize>,
    cpu_pin: Option<usize>,
    start: f64,
    speed: f64,
    attempt: usize,
    epoch: u64,
    /// The scheduled `TaskEnd` is a transient death, not a completion.
    fails: bool,
}

/// The `mpi_jm` scheduler.
pub struct MpiJmScheduler {
    config: MpiJmConfig,
}

impl MpiJmScheduler {
    /// Build with a config.
    pub fn new(config: MpiJmConfig) -> Self {
        assert!(
            config.lump_nodes.is_multiple_of(config.block_nodes),
            "blocks tile lumps"
        );
        Self { config }
    }

    /// Number of healthy lumps and the blocks they contribute.
    fn build_blocks(&self, cluster: &Cluster) -> (usize, usize, Vec<Block>) {
        let ln = self.config.lump_nodes;
        let mut blocks = Vec::new();
        let mut lumps_total = 0;
        let mut lumps_failed = 0;
        let mut start = 0;
        // Allocations smaller than (or not divisible by) the lump size get
        // a trailing partial lump: mpi_jm shrinks its last mpirun to the
        // nodes that exist rather than leaving them idle. Only full blocks
        // are formed inside it — jobs never straddle a block boundary.
        while start + self.config.block_nodes <= cluster.nodes.len() {
            let end = (start + ln).min(cluster.nodes.len());
            lumps_total += 1;
            let lump: Vec<usize> = (start..end).collect();
            let healthy = lump.iter().all(|&i| !cluster.nodes[i].failed);
            if healthy {
                for chunk in lump.chunks(self.config.block_nodes) {
                    if chunk.len() == self.config.block_nodes {
                        blocks.push(Block {
                            nodes: chunk.to_vec(),
                            free: chunk.to_vec(),
                        });
                    }
                }
            } else {
                lumps_failed += 1;
            }
            start += ln;
        }
        (lumps_total, lumps_failed, blocks)
    }

    /// Run `workload` on `cluster` on a pristine machine (no mid-run
    /// faults).
    ///
    /// # Panics
    /// If any GPU task needs more nodes than a block holds (jobs must not
    /// straddle blocks) or the workload cannot fit at all.
    pub fn run(&self, cluster: &mut Cluster, workload: &Workload) -> SimReport {
        self.run_with_faults(
            cluster,
            workload,
            &FaultConfig::default(),
            &RetryPolicy::default(),
        )
    }

    /// Run `workload` on `cluster` under the given mid-run fault model.
    ///
    /// Recovery policy: a node crash kills only the jobs bound to that
    /// node; the block re-spawns with its surviving nodes, and each victim
    /// is requeued with capped exponential backoff up to the retry budget.
    /// Nodes crossing the blacklist threshold of attributed transient
    /// faults are quarantined out of their block.
    pub fn run_with_faults(
        &self,
        cluster: &mut Cluster,
        workload: &Workload,
        faults: &FaultConfig,
        policy: &RetryPolicy,
    ) -> SimReport {
        let n = workload.len();
        let n_nodes = cluster.nodes.len();
        let (_lumps, lumps_failed, mut blocks) = self.build_blocks(cluster);
        assert!(
            !blocks.is_empty(),
            "no healthy lumps: {lumps_failed} lumps failed"
        );
        for t in &workload.tasks {
            if let TaskKind::PropagatorSolve { nodes } = t.kind {
                assert!(
                    nodes <= self.config.block_nodes,
                    "job of {nodes} nodes exceeds block size {}",
                    self.config.block_nodes
                );
            }
        }

        let sobs = SchedObs::new("mpi_jm");
        let injector = FaultInjector::new(*faults, n_nodes);
        let mut recovery = RecoveryState::new(n, n_nodes);
        let mut stats = FaultStats {
            nic_degraded_nodes: (0..n_nodes).filter(|&i| injector.nic_degraded(i)).count(),
            ..FaultStats::default()
        };
        let mut node_dead: Vec<bool> = cluster.nodes.iter().map(|nd| nd.failed).collect();

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

        // CPU availability per node (contractions pin one node's CPUs).
        let mut cpu_free: Vec<bool> = cluster.nodes.iter().map(|_| true).collect();

        // Return an allocation to its block, skipping retired nodes.
        let release_to_block = |blocks: &mut Vec<Block>, alloc: &[usize], node_dead: &[bool]| {
            if alloc.is_empty() {
                return;
            }
            for b in blocks.iter_mut() {
                if alloc.iter().all(|i| b.nodes.contains(i)) {
                    b.free
                        .extend(alloc.iter().copied().filter(|&i| !node_dead[i]));
                    b.free.sort_unstable();
                    break;
                }
            }
        };

        // Retire a node from its block: the block re-spawns at the boundary
        // with its surviving nodes.
        let retire_node = |blocks: &mut Vec<Block>, node: usize| {
            for b in blocks.iter_mut() {
                b.free.retain(|&x| x != node);
                b.nodes.retain(|&x| x != node);
            }
        };

        while settled < n {
            let mut started_any = true;
            while started_any {
                started_any = false;
                let mut next_ready = Vec::new();
                for &id in &ready {
                    if recovery.failed[id] {
                        continue; // abandoned while queued
                    }
                    let t = &workload.tasks[id];
                    // (allocated GPU nodes, pinned CPU host) for this start.
                    let placement: Option<(Vec<usize>, Option<usize>)> = match t.kind {
                        TaskKind::PropagatorSolve { nodes } => blocks
                            .iter_mut()
                            .find(|b| b.free.len() >= nodes)
                            .map(|block| (block.free.drain(..nodes).collect(), None)),
                        TaskKind::Contraction => {
                            let host = if self.config.co_schedule {
                                cpu_free
                                    .iter()
                                    .enumerate()
                                    .position(|(i, &f)| f && !node_dead[i])
                            } else {
                                // Without co-scheduling a contraction needs a
                                // whole free node inside some block.
                                blocks
                                    .iter()
                                    .flat_map(|b| b.free.iter())
                                    .find(|&&i| cpu_free[i])
                                    .copied()
                            };
                            host.map(|host| {
                                cpu_free[host] = false;
                                if !self.config.co_schedule {
                                    // Occupies the node exclusively.
                                    for b in blocks.iter_mut() {
                                        b.free.retain(|&x| x != host);
                                    }
                                    (vec![host], Some(host))
                                } else {
                                    (Vec::new(), Some(host))
                                }
                            })
                        }
                        TaskKind::Io => Some((Vec::new(), None)),
                    };
                    let Some((alloc, cpu_pin)) = placement else {
                        next_ready.push(id);
                        continue;
                    };
                    let attempt = recovery.start_attempt(id, &mut stats);
                    let fate = injector.attempt_fate(id, attempt);
                    let mut speed = match t.kind {
                        TaskKind::PropagatorSolve { .. } => {
                            cluster.group_speed(&alloc)
                                * self.config.mpi_efficiency
                                * injector.nic_speed(&alloc)
                        }
                        TaskKind::Contraction => {
                            // Launch sites pin every contraction to a CPU
                            // host before queuing it.
                            let Some(host) = cpu_pin else {
                                unreachable!("contraction launched without a cpu pin")
                            };
                            cluster.nodes[host].speed
                        }
                        TaskKind::Io => 1.0,
                    };
                    if let AttemptFate::Straggler { slowdown } = fate {
                        speed *= slowdown;
                        stats.stragglers += 1;
                    }
                    let start = if matches!(t.kind, TaskKind::Io) {
                        time
                    } else {
                        time + self.config.spawn_seconds
                    };
                    let dur = t.base_seconds / speed;
                    let (end, fails) = match fate {
                        AttemptFate::TransientFailure { at_fraction } => {
                            (start + dur * at_fraction, true)
                        }
                        _ => (start + dur, false),
                    };
                    epoch[id] += 1;
                    sobs.task_start(
                        start,
                        id,
                        attempt,
                        alloc.len().max(usize::from(cpu_pin.is_some())),
                    );
                    running[id] = Some(RunInfo {
                        alloc,
                        cpu_pin,
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
                ready = next_ready;
            }
            sobs.queue_depth(ready.len());
            sobs.nodes_busy(
                running
                    .iter()
                    .flatten()
                    .map(|ri| ri.alloc.len().max(usize::from(ri.cpu_pin.is_some())))
                    .sum(),
            );

            let any_running = running.iter().any(|r| r.is_some());
            if !any_running && events.is_empty() {
                if !ready.is_empty() && faults.enabled() {
                    // Capacity shrank below the stranded tasks' footprints:
                    // abandon them gracefully instead of panicking.
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
                    "tasks pending but nothing running: workload too big for blocks"
                );
                break;
            }

            let Some(Reverse((Ord64(t_ev), ev))) = events.pop() else {
                break;
            };
            time = time.max(t_ev);
            match ev {
                Event::TaskEnd { id, epoch: ep } => {
                    let Some(ri) = running[id].take_if(|ri| ri.epoch == ep) else {
                        continue; // tombstone of a killed attempt
                    };
                    release_to_block(&mut blocks, &ri.alloc, &node_dead);
                    if let Some(host) = ri.cpu_pin {
                        cpu_free[host] = true;
                    }
                    let t = &workload.tasks[id];
                    if ri.fails {
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
                        let culprit = ri.alloc.first().copied().or(ri.cpu_pin);
                        if let Some(node) = culprit {
                            if recovery.attribute_node_fault(node, policy) && !node_dead[node] {
                                node_dead[node] = true;
                                cluster.mark_crashed(node);
                                retire_node(&mut blocks, node);
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
                            nodes: if ri.alloc.is_empty() {
                                ri.cpu_pin.map(|h| vec![h]).unwrap_or_default()
                            } else {
                                ri.alloc
                            },
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
                    if node_dead[node] {
                        continue; // startup-failed or already blacklisted
                    }
                    node_dead[node] = true;
                    stats.node_crashes += 1;
                    sobs.node_crash(time, node);
                    // Kill only the jobs bound to this node; the block
                    // re-spawns at the boundary with its survivors.
                    for id in 0..n {
                        let Some(ri) = running[id]
                            .take_if(|ri| ri.alloc.contains(&node) || ri.cpu_pin == Some(node))
                        else {
                            continue;
                        };
                        release_to_block(&mut blocks, &ri.alloc, &node_dead);
                        if let Some(host) = ri.cpu_pin {
                            cpu_free[host] = true;
                        }
                        sobs.task_killed(time, id, ri.attempt, "node_crash");
                        stats.wasted_node_seconds +=
                            (time - ri.start).max(0.0) * ri.alloc.len().max(1) as f64;
                        wasted_records.push(TaskRecord {
                            id,
                            start: ri.start,
                            end: time,
                            nodes: if ri.alloc.is_empty() {
                                vec![node]
                            } else {
                                ri.alloc
                            },
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
                    retire_node(&mut blocks, node);
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
        let avail_nodes = blocks.iter().map(|b| b.nodes.len()).sum::<usize>() as f64;
        let report = SimReport {
            makespan: time,
            startup: 0.0,
            busy_node_seconds,
            total_node_seconds: avail_nodes * time,
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
    use coral_machine::sierra;

    fn cluster(nodes: usize, jitter: f64, fail: f64, seed: u64) -> Cluster {
        Cluster::new(
            sierra(),
            &ClusterConfig {
                nodes,
                jitter_sigma: jitter,
                startup_failure_prob: fail,
                seed,
            },
        )
    }

    #[test]
    fn jobs_never_straddle_blocks() {
        let sched = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 16,
            block_nodes: 4,
            ..MpiJmConfig::default()
        });
        let w = Workload::heterogeneous_solves(40, 4, 300.0, 0.3, 1e15, 3);
        let mut c = cluster(32, 0.05, 0.0, 5);
        let r = sched.run(&mut c, &w);
        for rec in &r.records {
            if rec.nodes.len() == 4 {
                assert!(
                    Cluster::is_contiguous(&rec.nodes),
                    "block allocations stay contiguous"
                );
                // All four nodes in the same block of 4.
                let block = rec.nodes[0] / 4;
                assert!(rec.nodes.iter().all(|&i| i / 4 == block));
            }
        }
    }

    #[test]
    fn failed_lumps_are_dropped_not_fatal() {
        let sched = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 8,
            block_nodes: 4,
            ..MpiJmConfig::default()
        });
        // High failure rate: some lumps must drop, the run must still finish.
        let mut c = cluster(64, 0.0, 0.05, 7);
        let w = Workload::uniform_solves(20, 4, 100.0, 1e15);
        let r = sched.run(&mut c, &w);
        assert_eq!(r.records.len(), 20);
        assert!(r.total_node_seconds < 64.0 * r.makespan, "capacity shrank");
    }

    #[test]
    fn co_scheduling_makes_contractions_free() {
        // Workload: solves + contractions heavy enough to contend for nodes
        // (a backlog of contractions from earlier configurations, as in the
        // production workflow). With co-scheduling the makespan stays near
        // the solves-only value; without it, contractions steal GPU nodes.
        let mut w = Workload::figure2_workflow(4, 8, 4, 400.0, 1e15);
        for t in w.tasks.iter_mut() {
            if matches!(t.kind, TaskKind::Contraction) {
                t.base_seconds *= 10.0;
            }
        }
        let solves_only = Workload::uniform_solves(32, 4, 400.0, 1e15);

        let co = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 16,
            block_nodes: 4,
            co_schedule: true,
            ..MpiJmConfig::default()
        });
        let no_co = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 16,
            block_nodes: 4,
            co_schedule: false,
            ..MpiJmConfig::default()
        });

        let m_solves = co.run(&mut cluster(16, 0.0, 0.0, 9), &solves_only).makespan;
        let m_co = co.run(&mut cluster(16, 0.0, 0.0, 9), &w).makespan;
        let m_noco = no_co.run(&mut cluster(16, 0.0, 0.0, 9), &w).makespan;

        assert!(
            m_co < m_solves * 1.15,
            "co-scheduled contractions nearly free: {m_co} vs {m_solves}"
        );
        assert!(
            m_noco > m_co * 1.03,
            "dropping co-scheduling must cost time: {m_noco} vs {m_co}"
        );
    }

    #[test]
    fn mpi_efficiency_scales_run_time() {
        let w = Workload::uniform_solves(8, 4, 100.0, 1e15);
        let fast = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 8,
            block_nodes: 4,
            mpi_efficiency: 1.0,
            ..MpiJmConfig::default()
        });
        let slow = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 8,
            block_nodes: 4,
            mpi_efficiency: 0.8,
            ..MpiJmConfig::default()
        });
        let m1 = fast.run(&mut cluster(8, 0.0, 0.0, 11), &w).makespan;
        let m2 = slow.run(&mut cluster(8, 0.0, 0.0, 11), &w).makespan;
        assert!(m2 > m1 * 1.2, "{m2} vs {m1}");
    }

    #[test]
    fn dependencies_are_honored() {
        let sched = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 8,
            block_nodes: 4,
            ..MpiJmConfig::default()
        });
        let w = Workload::figure2_workflow(1, 3, 2, 50.0, 1e14);
        let r = sched.run(&mut cluster(8, 0.0, 0.0, 13), &w);
        for t in &w.tasks {
            for &d in &t.deps {
                assert!(r.records[d].end <= r.records[t.id].start + 1e-9);
            }
        }
    }

    #[test]
    fn crash_blast_radius_is_one_job_not_the_machine() {
        // 8 two-node jobs on 16 nodes; a mid-run crash must kill only the
        // job(s) on the crashed node, requeue them, and still finish the
        // rest on first attempt.
        let sched = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 8,
            block_nodes: 4,
            ..MpiJmConfig::default()
        });
        let w = Workload::uniform_solves(8, 2, 5_000.0, 1e15);
        let faults = FaultConfig {
            node_mtbf_seconds: 40_000.0,
            seed: 3,
            ..FaultConfig::default()
        };
        let r = sched.run_with_faults(
            &mut cluster(16, 0.0, 0.0, 7),
            &w,
            &faults,
            &RetryPolicy::default(),
        );
        assert!(r.faults.node_crashes >= 1, "{:?}", r.faults);
        assert_eq!(r.completed_tasks + r.failed_tasks, 8);
        let retried = r.records.iter().filter(|rec| rec.attempts > 1).count() + r.failed_tasks;
        assert!(
            retried <= 2 * r.faults.node_crashes + r.faults.transient_failures,
            "blast radius must be per-job: {retried} retried for {:?}",
            r.faults
        );
    }

    #[test]
    fn degrades_gracefully_as_nodes_die() {
        // Aggressive MTBF: nodes keep dying, yet the scheduler must neither
        // panic nor lose accounting — every task completes or fails.
        let sched = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 8,
            block_nodes: 4,
            ..MpiJmConfig::default()
        });
        let w = Workload::heterogeneous_solves(64, 4, 800.0, 0.4, 1e15, 19);
        let faults = FaultConfig {
            node_mtbf_seconds: 20_000.0,
            transient_fail_prob: 0.1,
            seed: 29,
            ..FaultConfig::default()
        };
        let r = sched.run_with_faults(
            &mut cluster(32, 0.05, 0.0, 11),
            &w,
            &faults,
            &RetryPolicy::default(),
        );
        assert_eq!(r.completed_tasks + r.failed_tasks, 64);
        let mut seen = std::collections::HashSet::new();
        for rec in &r.records {
            assert!(seen.insert(rec.id), "task {} completed twice", rec.id);
        }
        // Every failure is accounted for as a deliberate recovery decision,
        // not silently dropped.
        assert_eq!(
            r.faults.permanent_failures + r.faults.abandoned_tasks,
            r.failed_tasks
        );
        // Graceful degradation: even while most of the machine dies, the
        // early-run capacity completes a meaningful slice of the work. (The
        // exact fraction depends on the crash schedule; >0.25 is robust.)
        assert!(
            r.completed_work_fraction() > 0.25,
            "too little work finished: {}",
            r.completed_work_fraction()
        );
    }
}
