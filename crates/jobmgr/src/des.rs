//! The discrete-event vocabulary the fault-aware schedulers
//! ([`crate::metaq`], [`crate::mpijm`]) share: the event-time ordering, the
//! event type, and the permanent-failure cascade. Their event loops stay
//! separate.

use crate::fault::{FaultStats, RecoveryState};
use crate::instrument::SchedObs;

/// Total-order wrapper for event times.
#[derive(PartialEq)]
pub(crate) struct Ord64(pub(crate) f64);
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

/// A DES event. `TaskEnd` carries the task's launch epoch so ends belonging
/// to an attempt that was already killed by a crash are tombstoned.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Event {
    TaskEnd {
        id: usize,
        epoch: u64,
    },
    NodeCrash {
        node: usize,
    },
    /// Backoff gate expiry: the task may be queued again.
    TaskReady {
        id: usize,
    },
}

/// Permanently fail `id` and abandon its transitive dependents.
pub(crate) fn cascade_fail(
    id: usize,
    time: f64,
    sobs: &SchedObs,
    recovery: &mut RecoveryState,
    dependents: &[Vec<usize>],
    stats: &mut FaultStats,
    settled: &mut usize,
) {
    let mut stack = vec![id];
    while let Some(i) = stack.pop() {
        for &dep in &dependents[i] {
            if !recovery.failed[dep] {
                recovery.failed[dep] = true;
                stats.abandoned_tasks += 1;
                sobs.task_abandoned(time, dep);
                *settled += 1;
                stack.push(dep);
            }
        }
    }
}
