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
use crate::des::{run_queue, Placed, Placement};
use crate::fault::{FaultConfig, FaultInjector, RetryPolicy};
use crate::report::SimReport;
use crate::task::{TaskKind, TaskSpec, Workload};

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

/// `mpi_jm`'s placement policy: GPU jobs are bound to one block, CPU-only
/// contractions are pinned to a node's CPUs (overlaying its GPU job) or,
/// without co-scheduling, take a whole free node; starts cost one parallel
/// `MPI_Comm_spawn`.
pub(crate) struct Blocks {
    config: MpiJmConfig,
    blocks: Vec<Block>,
    /// Nodes out of service: dead at startup, crashed or blacklisted.
    node_dead: Vec<bool>,
    /// CPU availability per node (contractions pin one node's CPUs).
    cpu_free: Vec<bool>,
}

impl Placement for Blocks {
    const NAME: &'static str = "mpi_jm";

    fn place(
        &mut self,
        cluster: &mut Cluster,
        injector: &FaultInjector,
        task: &TaskSpec,
        time: f64,
    ) -> Option<Placed> {
        let spawned = time + self.config.spawn_seconds;
        match task.kind {
            TaskKind::PropagatorSolve { nodes } => {
                let block = self.blocks.iter_mut().find(|b| b.free.len() >= nodes)?;
                let alloc: Vec<usize> = block.free.drain(..nodes).collect();
                let speed = cluster.group_speed(&alloc)
                    * self.config.mpi_efficiency
                    * injector.nic_speed(&alloc);
                Some(Placed {
                    alloc,
                    cpu_pin: None,
                    start: spawned,
                    speed,
                })
            }
            TaskKind::Contraction => {
                let host = if self.config.co_schedule {
                    (0..self.cpu_free.len()).find(|&i| self.cpu_free[i] && !self.node_dead[i])?
                } else {
                    // Without co-scheduling a contraction needs a whole
                    // free node inside some block, and occupies it
                    // exclusively.
                    let host = self
                        .blocks
                        .iter()
                        .flat_map(|b| b.free.iter().copied())
                        .find(|&i| self.cpu_free[i])?;
                    for b in self.blocks.iter_mut() {
                        b.free.retain(|&x| x != host);
                    }
                    host
                };
                self.cpu_free[host] = false;
                Some(Placed {
                    alloc: if self.config.co_schedule {
                        Vec::new()
                    } else {
                        vec![host]
                    },
                    cpu_pin: Some(host),
                    start: spawned,
                    speed: cluster.nodes[host].speed,
                })
            }
            TaskKind::Io => Some(Placed {
                alloc: Vec::new(),
                cpu_pin: None,
                start: time,
                speed: 1.0,
            }),
        }
    }

    /// Finds the block by *any* surviving member: a node of the allocation
    /// may have been retired while the job ran (the crash that is killing
    /// it, or a blacklisting charged to a contraction co-scheduled on it),
    /// and the rest still go back to their block.
    fn release(&mut self, _cluster: &mut Cluster, alloc: &[usize], cpu_pin: Option<usize>) {
        if let Some(host) = cpu_pin {
            self.cpu_free[host] = true;
        }
        let block = self
            .blocks
            .iter_mut()
            .find(|b| alloc.iter().any(|i| b.nodes.contains(i)));
        if let Some(b) = block {
            b.free
                .extend(alloc.iter().copied().filter(|&i| !self.node_dead[i]));
            b.free.sort_unstable();
        }
    }

    fn is_dead(&self, _cluster: &Cluster, node: usize) -> bool {
        self.node_dead[node]
    }

    /// The node leaves its block, which re-spawns at the boundary with its
    /// surviving nodes.
    fn retire(&mut self, cluster: &mut Cluster, node: usize) {
        self.node_dead[node] = true;
        cluster.mark_crashed(node);
        for b in self.blocks.iter_mut() {
            b.free.retain(|&x| x != node);
            b.nodes.retain(|&x| x != node);
        }
    }

    fn capacity(&self, _cluster: &Cluster) -> usize {
        self.blocks.iter().map(|b| b.nodes.len()).sum()
    }
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
    /// If no lump is healthy, or any GPU task needs more nodes than a block
    /// holds (jobs must not straddle blocks).
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
        let (_lumps, lumps_failed, blocks) = self.build_blocks(cluster);
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
        let blocks = Blocks {
            config: self.config,
            blocks,
            node_dead: cluster.nodes.iter().map(|nd| nd.failed).collect(),
            cpu_free: vec![true; cluster.nodes.len()],
        };
        run_queue(blocks, cluster, workload, faults, policy)
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

    #[test]
    fn a_task_that_can_never_fit_is_abandoned_by_every_scheduler() {
        // Pristine fault model, but node 3 never came up: the 4-node solve
        // (task 0) cannot fit on the 3 nodes left. It and its dependents
        // (write 1, contraction 2) are abandoned; the two 1-node solves run.
        use crate::metaq::MetaqScheduler;
        use crate::naive::NaiveBundler;
        use crate::task::TaskSpec;
        let task = |id, kind, deps: &[usize]| TaskSpec {
            id,
            kind,
            base_seconds: 10.0,
            flops: 1e12,
            deps: deps.to_vec(),
        };
        let w = Workload {
            tasks: vec![
                task(0, TaskKind::PropagatorSolve { nodes: 4 }, &[]),
                task(1, TaskKind::Io, &[0]),
                task(2, TaskKind::Contraction, &[1]),
                task(3, TaskKind::PropagatorSolve { nodes: 1 }, &[]),
                task(4, TaskKind::PropagatorSolve { nodes: 1 }, &[]),
            ],
        };
        let degraded = || {
            let mut c = cluster(4, 0.0, 0.0, 3);
            c.nodes[3].failed = true;
            c
        };
        let (faults, policy) = (FaultConfig::default(), RetryPolicy::default());
        // mpi_jm's pre-flight drops a lump with a dead node, so its row runs
        // the engine on what such a block looks like after losing the node.
        let shrunken_block = |c: &Cluster| Blocks {
            config: MpiJmConfig::default(),
            blocks: vec![Block {
                nodes: vec![0, 1, 2],
                free: vec![0, 1, 2],
            }],
            node_dead: c.nodes.iter().map(|nd| nd.failed).collect(),
            cpu_free: vec![true; 4],
        };
        type Run<'a> = &'a dyn Fn(&mut Cluster) -> SimReport;
        let rows: [(&str, Run); 3] = [
            ("naive", &|c| NaiveBundler::run(c, &w)),
            ("metaq", &|c| MetaqScheduler::run(c, &w)),
            ("mpi_jm", &|c| {
                run_queue(shrunken_block(c), c, &w, &faults, &policy)
            }),
        ];
        for (name, run) in rows {
            let r = run(&mut degraded());
            assert_eq!(r.completed_tasks, 2, "{name}");
            assert_eq!(r.failed_tasks, 3, "{name}: oversized solve + 2 dependents");
            assert_eq!(r.faults.abandoned_tasks, 3, "{name}");
            assert_eq!(r.faults.permanent_failures, 0, "{name}");
            assert_eq!(r.task_attempts[..3], [0, 0, 0], "{name}: never launched");
        }
    }

    #[test]
    fn release_returns_survivors_of_a_block_that_lost_a_node_mid_job() {
        // A node can be retired under a running GPU job (blacklisted through
        // a contraction co-scheduled on it): the job's other nodes must
        // still go back to the block when it ends.
        let mut c = cluster(4, 0.0, 0.0, 3);
        let mut blocks = Blocks {
            config: MpiJmConfig::default(),
            blocks: vec![Block {
                nodes: vec![0, 1, 2, 3],
                free: vec![2, 3],
            }],
            node_dead: vec![false; 4],
            cpu_free: vec![true; 4],
        };
        blocks.retire(&mut c, 0);
        blocks.release(&mut c, &[0, 1], None);
        assert_eq!(blocks.blocks[0].free, [1, 2, 3]);
        assert_eq!(blocks.capacity(&c), 3);
    }

    #[test]
    fn des_invariants_hold_under_faults() {
        // The golden Fig. 2 scenario: deps, contractions and I/O with every
        // fault channel on. Same-resource records (GPU allocations; CPU pins
        // of co-scheduled contractions) never overlap on a node, and every
        // contraction record — successful, crash-killed or transient-killed
        // — names the one host it was pinned to.
        let sched = MpiJmScheduler::new(MpiJmConfig {
            lump_nodes: 4,
            block_nodes: 4,
            ..MpiJmConfig::default()
        });
        let w = Workload::figure2_workflow(2, 6, 4, 400.0, 1e14);
        let faults = FaultConfig {
            node_mtbf_seconds: 8_000.0,
            transient_fail_prob: 0.15,
            straggler_prob: 0.1,
            nic_degrade_prob: 0.15,
            seed: 59_320,
            ..FaultConfig::default()
        };
        let r = sched.run_with_faults(
            &mut cluster(16, 0.05, 0.05, 7),
            &w,
            &faults,
            &RetryPolicy::default(),
        );
        assert_eq!(r.completed_tasks + r.failed_tasks, w.len());
        let is_contraction = |id: usize| matches!(w.tasks[id].kind, TaskKind::Contraction);
        let mut intervals: Vec<(bool, usize, f64, f64)> = Vec::new();
        for rec in r.records.iter().chain(&r.wasted_records) {
            if is_contraction(rec.id) {
                assert_eq!(rec.nodes.len(), 1, "pinned host named: {rec:?}");
            }
            for &node in &rec.nodes {
                intervals.push((is_contraction(rec.id), node, rec.start, rec.end));
            }
        }
        let killed_contractions = r.wasted_records.iter().filter(|k| is_contraction(k.id));
        assert!(killed_contractions.count() >= 2, "one crash, one transient");
        let charged: f64 = r
            .wasted_records
            .iter()
            .map(|k| (k.end - k.start) * k.nodes.len() as f64)
            .sum();
        assert!(
            (r.faults.wasted_node_seconds - charged).abs() < 1e-6,
            "every kill is charged the nodes its record names"
        );
        intervals.sort_by(|a, b| {
            (a.0, a.1, a.2)
                .partial_cmp(&(b.0, b.1, b.2))
                .expect("finite")
        });
        for w2 in intervals.windows(2) {
            if (w2[0].0, w2[0].1) == (w2[1].0, w2[1].1) {
                assert!(
                    w2[0].3 <= w2[1].2 + 1e-9,
                    "node {} oversubscribed: {:?} overlaps {:?}",
                    w2[0].1,
                    w2[0],
                    w2[1]
                );
            }
        }
    }
}
