//! The one discrete-event engine under the work-queue schedulers, and the
//! run ledger all three schedulers keep.
//!
//! METAQ and `mpi_jm` differ in *where a task may run and what a launch
//! costs* — a [`Placement`] — not in what happens when a node dies. So
//! [`run_queue`] owns time, the event heap, dependency release, the FIFO
//! backfill pass and every fault/recovery decision, and the two schedulers
//! are placement policies ([`crate::metaq::FirstFit`],
//! [`crate::mpijm::Blocks`]).
//!
//! Naive bundling is not a `Placement`: it is a wave model, not a queue.
//! Its clock advances wave by wave (a wave's members end at times known when
//! it is collected, and the first failure kills all of them), so folding it
//! in would make the engine branch on its caller and could not keep its
//! event order. It keeps its own loop and shares the [`Ledger`], so the
//! three report, count and emit alike.

use crate::cluster::Cluster;
use crate::fault::{
    AttemptFate, FaultConfig, FaultInjector, FaultStats, RecoveryState, RetryPolicy,
};
use crate::instrument::SchedObs;
use crate::report::{SimReport, TaskRecord};
use crate::task::{TaskKind, TaskSpec, Workload};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Where and when a placement policy starts one attempt.
pub(crate) struct Placed {
    /// Whole nodes held for the attempt (empty for I/O and co-scheduled
    /// contractions).
    pub(crate) alloc: Vec<usize>,
    /// Node whose CPUs a contraction is pinned to, if the policy pins.
    pub(crate) cpu_pin: Option<usize>,
    /// When the attempt starts running, launch cost included.
    pub(crate) start: f64,
    /// Nominal speed on that hardware, before any straggler slowdown.
    pub(crate) speed: f64,
}

/// What distinguishes one work-queue scheduler from another.
pub(crate) trait Placement {
    /// Scheduler name in events and metric keys.
    const NAME: &'static str;

    /// Reserve resources for `task` at `time`, or `None` if it does not fit
    /// now. Launch costs are paid only on a successful fit, so a task that
    /// stays queued never delays the ones behind it.
    fn place(
        &mut self,
        cluster: &mut Cluster,
        injector: &FaultInjector,
        task: &TaskSpec,
        time: f64,
    ) -> Option<Placed>;

    /// Return an ended or killed attempt's resources, skipping retired nodes.
    fn release(&mut self, cluster: &mut Cluster, alloc: &[usize], cpu_pin: Option<usize>);

    /// Whether `node` is already out of service for this policy.
    fn is_dead(&self, cluster: &Cluster, node: usize) -> bool;

    /// Take `node` out of service for good (crash or blacklist).
    fn retire(&mut self, cluster: &mut Cluster, node: usize);

    /// Nodes still schedulable at the end of the run — the utilization
    /// denominator.
    fn capacity(&self, cluster: &Cluster) -> usize;
}

/// One launched attempt, in flight or just ended.
pub(crate) struct Attempt {
    pub(crate) id: usize,
    pub(crate) alloc: Vec<usize>,
    pub(crate) cpu_pin: Option<usize>,
    pub(crate) start: f64,
    pub(crate) speed: f64,
    /// 1-based launch count of the task.
    pub(crate) attempt: usize,
    /// Completion time if nothing kills the attempt first.
    pub(crate) planned_end: f64,
    /// Time the attempt dies of a transient failure, if fated to.
    pub(crate) fail_at: Option<f64>,
}

impl Attempt {
    /// The nodes the attempt occupies: its allocation, or the pinned host of
    /// a co-scheduled contraction. The one footprint rule — `task_start`,
    /// the busy gauge, the success record and every kill's waste charge and
    /// wasted record count and name the same nodes.
    fn nodes(&self) -> &[usize] {
        if self.alloc.is_empty() {
            self.cpu_pin.as_slice()
        } else {
            &self.alloc
        }
    }

    /// The attempt's record, ended (or killed) at `end`.
    fn record(&self, end: f64) -> TaskRecord {
        TaskRecord {
            id: self.id,
            start: self.start,
            end,
            nodes: self.nodes().to_vec(),
            speed: self.speed,
            attempts: self.attempt,
        }
    }
}

/// Per-run accounting shared by the engine and the naive bundler: every
/// launch, completion, kill and recovery decision updates the counters,
/// records and event stream here, in one place.
pub(crate) struct Ledger {
    pub(crate) sobs: SchedObs,
    pub(crate) injector: FaultInjector,
    pub(crate) recovery: RecoveryState,
    pub(crate) done: Vec<bool>,
    stats: FaultStats,
    records: Vec<Option<TaskRecord>>,
    wasted_records: Vec<TaskRecord>,
    busy_node_seconds: f64,
    completed_flops: f64,
}

impl Ledger {
    pub(crate) fn new(
        sched: &'static str,
        n_tasks: usize,
        n_nodes: usize,
        faults: &FaultConfig,
    ) -> Self {
        let injector = FaultInjector::new(*faults, n_nodes);
        let stats = FaultStats {
            nic_degraded_nodes: (0..n_nodes).filter(|&i| injector.nic_degraded(i)).count(),
            ..FaultStats::default()
        };
        Self {
            sobs: SchedObs::new(sched),
            injector,
            recovery: RecoveryState::new(n_tasks, n_nodes),
            done: vec![false; n_tasks],
            stats,
            records: vec![None; n_tasks],
            wasted_records: Vec::new(),
            busy_node_seconds: 0.0,
            completed_flops: 0.0,
        }
    }

    /// Count a launch of `task` as placed, draw its fate (a straggler runs
    /// slower, a transient failure ends it early) and emit `task_start`.
    pub(crate) fn launch(&mut self, task: &TaskSpec, placed: Placed) -> Attempt {
        let Placed {
            alloc,
            cpu_pin,
            start,
            mut speed,
        } = placed;
        let attempt = self.recovery.start_attempt(task.id, &mut self.stats);
        let fate = self.injector.attempt_fate(task.id, attempt);
        if let AttemptFate::Straggler { slowdown } = fate {
            speed *= slowdown;
            self.stats.stragglers += 1;
        }
        let dur = task.base_seconds / speed;
        let fail_at = match fate {
            AttemptFate::TransientFailure { at_fraction } => Some(start + dur * at_fraction),
            _ => None,
        };
        let a = Attempt {
            id: task.id,
            alloc,
            cpu_pin,
            start,
            speed,
            attempt,
            planned_end: start + dur,
            fail_at,
        };
        self.sobs
            .task_start(start, task.id, attempt, a.nodes().len());
        a
    }

    /// The attempt ran to its planned end.
    pub(crate) fn complete(&mut self, task: &TaskSpec, a: &Attempt) {
        if matches!(task.kind, TaskKind::PropagatorSolve { .. }) {
            self.busy_node_seconds += (a.planned_end - a.start) * a.alloc.len() as f64;
        }
        self.completed_flops += task.flops;
        self.records[a.id] = Some(a.record(a.planned_end));
        self.done[a.id] = true;
        self.sobs.task_end(a.planned_end, a.id, a.attempt);
    }

    /// The attempt died at `at` of `cause` ("transient", "node_crash", or
    /// "wave_kill" for naive-bundling collateral); its work so far is wasted.
    pub(crate) fn killed(&mut self, a: &Attempt, at: f64, cause: &str) {
        if cause == "transient" {
            self.stats.transient_failures += 1;
        }
        self.sobs.task_killed(at, a.id, a.attempt, cause);
        self.stats.wasted_node_seconds += (at - a.start).max(0.0) * a.nodes().len() as f64;
        self.wasted_records.push(a.record(at));
    }

    /// Decide a killed task's future: requeue behind a backoff gate (`true`;
    /// the gate is `recovery.ready_at[id]`) or, with the retry budget spent,
    /// fail it for good (`false`).
    pub(crate) fn requeue(&mut self, id: usize, at: f64, policy: &RetryPolicy) -> bool {
        let retry = self
            .recovery
            .requeue_or_fail(id, at, policy, &mut self.stats);
        if retry {
            self.sobs.requeue(at, id, self.recovery.ready_at[id]);
        } else {
            self.sobs.task_failed(at, id);
        }
        retry
    }

    /// Attribute a transient failure to `node`; `true` when it just crossed
    /// the blacklist threshold.
    pub(crate) fn blame(&mut self, node: usize, policy: &RetryPolicy) -> bool {
        self.recovery.attribute_node_fault(node, policy)
    }

    /// `node` was quarantined by the caller after [`Ledger::blame`].
    pub(crate) fn blacklisted(&mut self, at: f64, node: usize) {
        self.stats.blacklisted_nodes += 1;
        self.sobs.blacklist(at, node);
    }

    /// A healthy node crashed mid-run.
    pub(crate) fn node_crashed(&mut self, at: f64, node: usize) {
        self.stats.node_crashes += 1;
        self.sobs.node_crash(at, node);
    }

    /// The task will never run: a dependency failed or it can no longer fit.
    pub(crate) fn abandon(&mut self, id: usize, at: f64) {
        self.recovery.failed[id] = true;
        self.stats.abandoned_tasks += 1;
        self.sobs.task_abandoned(at, id);
    }

    /// Close the run: build the report and flush the aggregate metrics.
    pub(crate) fn finish(self, workload: &Workload, makespan: f64, capacity: usize) -> SimReport {
        let report = SimReport {
            makespan,
            startup: 0.0,
            busy_node_seconds: self.busy_node_seconds,
            total_node_seconds: capacity as f64 * makespan,
            records: self.records.into_iter().flatten().collect(),
            total_flops: workload.total_flops(),
            completed_flops: self.completed_flops,
            completed_tasks: self.done.iter().filter(|&&d| d).count(),
            failed_tasks: self.recovery.failed.iter().filter(|&&f| f).count(),
            task_attempts: self.recovery.attempts,
            wasted_records: self.wasted_records,
            faults: self.stats,
        };
        self.sobs.finish(&report);
        report
    }
}

/// Total-order wrapper for event times.
#[derive(PartialEq)]
struct Ord64(f64);
impl Eq for Ord64 {}
impl PartialOrd for Ord64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ord64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A DES event. `TaskEnd` carries the attempt number as its epoch: an end
/// scheduled for an attempt that a crash has since killed no longer matches
/// the task's in-flight attempt and is a tombstone, so killing never has to
/// search the heap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    TaskEnd {
        id: usize,
        attempt: usize,
    },
    NodeCrash {
        node: usize,
    },
    /// Backoff gate expiry: the task may be queued again.
    TaskReady {
        id: usize,
    },
}

/// State of one [`run_queue`] run beyond the ledger.
struct Queue<'a> {
    ledger: Ledger,
    policy: &'a RetryPolicy,
    dependents: Vec<Vec<usize>>,
    events: BinaryHeap<Reverse<(Ord64, Event)>>,
    /// Tasks done or permanently failed.
    settled: usize,
}

impl Queue<'_> {
    /// `id` is permanently failed (already marked): settle it and abandon
    /// its transitive dependents.
    fn settle_failed(&mut self, id: usize, time: f64) {
        self.settled += 1;
        let mut stack = vec![id];
        while let Some(i) = stack.pop() {
            for &dep in &self.dependents[i] {
                if !self.ledger.recovery.failed[dep] {
                    self.ledger.abandon(dep, time);
                    self.settled += 1;
                    stack.push(dep);
                }
            }
        }
    }

    /// A killed attempt's task goes back behind its backoff gate, or fails
    /// for good and takes its dependents with it.
    fn recycle(&mut self, id: usize, time: f64) {
        if self.ledger.requeue(id, time, self.policy) {
            let gate = self.ledger.recovery.ready_at[id];
            self.events
                .push(Reverse((Ord64(gate), Event::TaskReady { id })));
        } else {
            self.settle_failed(id, time);
        }
    }
}

/// Run `workload` on `cluster` as an event-driven work queue under the given
/// placement policy and mid-run fault model.
///
/// Recovery policy, the same for every placement: a crashed node is retired
/// and kills only the attempts bound to it; each victim, and each transient
/// failure, is requeued with capped exponential backoff until its retry
/// budget runs out, and a permanent failure abandons the task's dependents.
/// Nodes crossing the blacklist threshold of attributed transient faults are
/// retired too. Ready tasks that no longer fit once nothing is in flight or
/// scheduled are abandoned.
pub(crate) fn run_queue<P: Placement>(
    mut placement: P,
    cluster: &mut Cluster,
    workload: &Workload,
    faults: &FaultConfig,
    policy: &RetryPolicy,
) -> SimReport {
    let n = workload.len();
    let n_nodes = cluster.nodes.len();
    let mut q = Queue {
        ledger: Ledger::new(P::NAME, n, n_nodes, faults),
        policy,
        dependents: vec![Vec::new(); n],
        events: BinaryHeap::new(),
        settled: 0,
    };
    let mut dep_count: Vec<usize> = workload.tasks.iter().map(|t| t.deps.len()).collect();
    for t in &workload.tasks {
        for &d in &t.deps {
            q.dependents[d].push(t.id);
        }
    }
    for node in 0..n_nodes {
        let ct = q.ledger.injector.crash_time(node);
        if ct.is_finite() {
            q.events
                .push(Reverse((Ord64(ct), Event::NodeCrash { node })));
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| dep_count[i] == 0).collect();
    let mut running: Vec<Option<Attempt>> = (0..n).map(|_| None).collect();
    let mut time = 0.0f64;

    while q.settled < n {
        // Start everything that fits right now, FIFO over ready tasks; a
        // task that does not fit is passed over, not waited for.
        let mut started_any = true;
        while started_any {
            started_any = false;
            let mut next_ready = Vec::new();
            for &id in &ready {
                if q.ledger.recovery.failed[id] {
                    continue; // abandoned while queued
                }
                let t = &workload.tasks[id];
                let Some(placed) = placement.place(cluster, &q.ledger.injector, t, time) else {
                    next_ready.push(id);
                    continue;
                };
                let a = q.ledger.launch(t, placed);
                q.events.push(Reverse((
                    Ord64(a.fail_at.unwrap_or(a.planned_end)),
                    Event::TaskEnd {
                        id,
                        attempt: a.attempt,
                    },
                )));
                running[id] = Some(a);
                started_any = true;
            }
            ready = next_ready;
        }
        q.ledger.sobs.queue_depth(ready.len());
        q.ledger
            .sobs
            .nodes_busy(running.iter().flatten().map(|a| a.nodes().len()).sum());

        // Advance to the next event. Every in-flight attempt has its end in
        // the heap, so an empty heap means nothing is running either: a
        // ready task that did not fit just now never will — capacity shrank
        // below its footprint, or it was oversized from the start — and is
        // abandoned rather than left to hang or panic the campaign.
        let Some(Reverse((Ord64(t_ev), ev))) = q.events.pop() else {
            if ready.is_empty() {
                break; // only dep-waiting tasks remain; the cascade settled them
            }
            for id in ready.drain(..) {
                if !q.ledger.recovery.failed[id] {
                    q.ledger.abandon(id, time);
                    q.settle_failed(id, time);
                }
            }
            continue;
        };
        time = time.max(t_ev);
        match ev {
            Event::TaskEnd { id, attempt } => {
                let Some(a) = running[id].take_if(|a| a.attempt == attempt) else {
                    continue; // tombstone of a killed attempt
                };
                placement.release(cluster, &a.alloc, a.cpu_pin);
                if a.fail_at.is_some() {
                    // Transient failure partway through the attempt.
                    q.ledger.killed(&a, time, "transient");
                    if let Some(node) = a.alloc.first().copied().or(a.cpu_pin) {
                        if q.ledger.blame(node, policy) && !placement.is_dead(cluster, node) {
                            placement.retire(cluster, node);
                            q.ledger.blacklisted(time, node);
                        }
                    }
                    q.recycle(id, time);
                } else {
                    q.ledger.complete(&workload.tasks[id], &a);
                    q.settled += 1;
                    for &dep in &q.dependents[id] {
                        dep_count[dep] -= 1;
                        if dep_count[dep] == 0 && !q.ledger.recovery.failed[dep] {
                            ready.push(dep);
                        }
                    }
                }
            }
            Event::NodeCrash { node } => {
                if placement.is_dead(cluster, node) {
                    continue; // dead at startup or already blacklisted
                }
                q.ledger.node_crashed(time, node);
                // Retire before the kill loop: the victims' `release` then
                // already skips the dead node, so no policy ever holds a
                // dead node as free and one hook suffices.
                placement.retire(cluster, node);
                // Kill only the attempts bound to this node.
                for id in 0..n {
                    let Some(a) =
                        running[id].take_if(|a| a.alloc.contains(&node) || a.cpu_pin == Some(node))
                    else {
                        continue;
                    };
                    placement.release(cluster, &a.alloc, a.cpu_pin);
                    q.ledger.killed(&a, time, "node_crash");
                    q.recycle(id, time);
                }
            }
            Event::TaskReady { id } => {
                if !q.ledger.done[id] && !q.ledger.recovery.failed[id] && running[id].is_none() {
                    ready.push(id);
                }
            }
        }
    }

    let capacity = placement.capacity(cluster);
    q.ledger.finish(workload, time, capacity)
}
