//! Mid-run fault injection and the recovery policies shared by all three
//! schedulers.
//!
//! The paper's job-management layer exists because real 4000-node CORAL runs
//! lose nodes mid-flight: `mpi_jm` drops lumps that fail to start, and the
//! companion production campaigns ran for months on machines where node
//! crashes, stragglers, and corrupted propagator files are the dominant
//! operational hazard. The seed simulator only modelled *startup* failures
//! frozen at t=0 (see [`crate::cluster::ClusterConfig::startup_failure_prob`]);
//! this module adds a deterministic, seeded injector for faults that strike
//! *during* the run, plus the retry/backoff/blacklist machinery the
//! schedulers use to survive them.
//!
//! Fault taxonomy:
//!
//! - **Node crash** — each node draws a crash time from an exponential
//!   distribution with mean [`FaultConfig::node_mtbf_seconds`]. A crashed
//!   node never comes back (repair is slower than any single job); tasks
//!   running on it at the crash instant are killed and requeued.
//! - **Transient task failure** — a per-attempt coin flip
//!   ([`FaultConfig::transient_fail_prob`]): the attempt dies partway
//!   through (ECC storm, filesystem hiccup, launch race), wasting the work
//!   done so far, but the node survives.
//! - **Straggler onset** — a per-attempt coin flip
//!   ([`FaultConfig::straggler_prob`]): the attempt runs at
//!   [`FaultConfig::straggler_slowdown`] of nominal speed (thermal
//!   throttling, OS noise).
//! - **NIC degradation** — a per-node coin flip at partition construction
//!   ([`FaultConfig::nic_degrade_prob`]): every attempt touching the node
//!   runs at [`FaultConfig::nic_slowdown`] speed (a flaky link that slows
//!   halo exchange without killing anything).
//!
//! All decisions are derived from `seed` with splitmix64 per-entity hashing,
//! so they are independent of scheduler query order: the same
//! (seed, node) always crashes at the same time, and the same
//! (seed, task, attempt) always meets the same fate, whichever scheduler is
//! running. This is what makes the `repro faults` sweep an apples-to-apples
//! comparison.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the mid-run fault model. `Default` is a pristine machine
/// (all rates zero), so existing entry points keep their behaviour.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Per-node mean time between failures, seconds; `0.0` disables crashes.
    /// Distinct from `startup_failure_prob`, which models nodes dead before
    /// the first task launches.
    pub node_mtbf_seconds: f64,
    /// Probability that a task attempt dies partway through.
    pub transient_fail_prob: f64,
    /// Probability that a task attempt runs as a straggler.
    pub straggler_prob: f64,
    /// Speed multiplier (< 1) of a straggling attempt.
    pub straggler_slowdown: f64,
    /// Probability that a node's NIC is degraded for the whole run.
    pub nic_degrade_prob: f64,
    /// Speed multiplier (< 1) for attempts touching a degraded NIC.
    pub nic_slowdown: f64,
    /// RNG seed for all fault decisions.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            node_mtbf_seconds: 0.0,
            transient_fail_prob: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 0.5,
            nic_degrade_prob: 0.0,
            nic_slowdown: 0.8,
            seed: 0xFA_17,
        }
    }
}

impl FaultConfig {
    /// Whether any fault channel is active.
    pub fn enabled(&self) -> bool {
        self.node_mtbf_seconds > 0.0
            || self.transient_fail_prob > 0.0
            || self.straggler_prob > 0.0
            || self.nic_degrade_prob > 0.0
    }
}

/// Recovery policy: how schedulers respond to injected faults.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Total attempts a task may consume (first run included) before it is
    /// declared permanently failed.
    pub max_attempts: usize,
    /// First retry waits this long after the failure.
    pub backoff_base_seconds: f64,
    /// Cap on the exponential backoff.
    pub backoff_cap_seconds: f64,
    /// Quarantine a node after this many faults are attributed to it
    /// (transient failures; crashes retire the node outright).
    pub blacklist_after: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base_seconds: 5.0,
            backoff_cap_seconds: 300.0,
            blacklist_after: 3,
        }
    }
}

impl RetryPolicy {
    /// Capped exponential backoff before retry number `retry` (1-based:
    /// the wait after the first failure is `backoff_seconds(1)`).
    pub fn backoff_seconds(&self, retry: usize) -> f64 {
        let exp = retry.saturating_sub(1).min(30) as u32;
        (self.backoff_base_seconds * f64::from(2u32.pow(exp.min(20)))).min(self.backoff_cap_seconds)
    }

    /// Whether a task that has burned `attempts` attempts may try again.
    pub fn allows_retry(&self, attempts: usize) -> bool {
        attempts < self.max_attempts
    }
}

/// What the injector decrees for one task attempt.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AttemptFate {
    /// Runs to completion at nominal speed.
    Success,
    /// Dies after this fraction of its duration has elapsed.
    TransientFailure {
        /// Fraction of the attempt's duration completed (and wasted).
        at_fraction: f64,
    },
    /// Completes, but at reduced speed.
    Straggler {
        /// Multiplicative speed factor (< 1).
        slowdown: f64,
    },
}

/// splitmix64 — cheap, well-mixed per-entity seed derivation. Public so
/// seed chains can thread from the scheduler fault model into other layers
/// (the comms fault injector keeps an identical copy — the layering rules
/// forbid it depending on this crate — pinned to these constants by golden
/// tests on both sides).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic, seeded source of every fault decision in a run.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Per-node crash time (`f64::INFINITY` = never crashes).
    crash_times: Vec<f64>,
    /// Per-node degraded-NIC flag.
    nic_degraded: Vec<bool>,
}

impl FaultInjector {
    /// Build the injector for a partition of `n_nodes` nodes.
    pub fn new(config: FaultConfig, n_nodes: usize) -> Self {
        let mut crash_times = Vec::with_capacity(n_nodes);
        let mut nic_degraded = Vec::with_capacity(n_nodes);
        for node in 0..n_nodes {
            let mut rng = SmallRng::seed_from_u64(splitmix64(config.seed ^ (node as u64) << 1));
            let crash = if config.node_mtbf_seconds > 0.0 {
                // Exponential inter-failure time with the configured mean.
                let u: f64 = rng.gen::<f64>().max(1e-300);
                -config.node_mtbf_seconds * u.ln()
            } else {
                f64::INFINITY
            };
            crash_times.push(crash);
            nic_degraded.push(rng.gen::<f64>() < config.nic_degrade_prob);
        }
        Self {
            config,
            crash_times,
            nic_degraded,
        }
    }

    /// When `node` crashes (`f64::INFINITY` if it never does).
    pub fn crash_time(&self, node: usize) -> f64 {
        self.crash_times[node]
    }

    /// Whether `node`'s NIC is degraded for the whole run.
    pub fn nic_degraded(&self, node: usize) -> bool {
        self.nic_degraded[node]
    }

    /// Speed multiplier from NIC state over an allocation (the slowest link
    /// paces the halo exchange).
    pub fn nic_speed(&self, alloc: &[usize]) -> f64 {
        if alloc.iter().any(|&i| self.nic_degraded[i]) {
            self.config.nic_slowdown
        } else {
            1.0
        }
    }

    /// The fate of attempt number `attempt` (1-based) of task `task` —
    /// deterministic in (seed, task, attempt).
    pub fn attempt_fate(&self, task: usize, attempt: usize) -> AttemptFate {
        if self.config.transient_fail_prob == 0.0 && self.config.straggler_prob == 0.0 {
            return AttemptFate::Success;
        }
        let key = splitmix64(
            self.config.seed.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ splitmix64((task as u64) << 20 | attempt as u64),
        );
        let mut rng = SmallRng::seed_from_u64(key);
        let u: f64 = rng.gen();
        if u < self.config.transient_fail_prob {
            // Die somewhere in the middle 80% of the attempt.
            AttemptFate::TransientFailure {
                at_fraction: 0.1 + 0.8 * rng.gen::<f64>(),
            }
        } else if u < self.config.transient_fail_prob + self.config.straggler_prob {
            AttemptFate::Straggler {
                slowdown: self.config.straggler_slowdown,
            }
        } else {
            AttemptFate::Success
        }
    }
}

/// Per-run fault and recovery counters, carried in
/// [`crate::report::SimReport`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Nodes that crashed during the run.
    pub node_crashes: usize,
    /// Task attempts killed by a transient failure.
    pub transient_failures: usize,
    /// Task attempts that ran as stragglers.
    pub stragglers: usize,
    /// Nodes with a degraded NIC in the partition.
    pub nic_degraded_nodes: usize,
    /// Retry launches performed (attempts beyond each task's first).
    pub retries: usize,
    /// Task kills that led to a requeue (crash collateral + transients).
    pub requeues: usize,
    /// Tasks that exhausted the retry budget (direct failures only).
    pub permanent_failures: usize,
    /// Tasks abandoned because capacity vanished or a dependency died.
    pub abandoned_tasks: usize,
    /// Nodes quarantined after repeated attributed faults.
    pub blacklisted_nodes: usize,
    /// Node-seconds of work lost to killed attempts.
    pub wasted_node_seconds: f64,
}

/// Mutable per-task recovery bookkeeping used by the schedulers.
#[derive(Clone, Debug)]
pub struct RecoveryState {
    /// Attempts consumed per task.
    pub attempts: Vec<usize>,
    /// Earliest time each task may (re)start — backoff gate.
    pub ready_at: Vec<f64>,
    /// Tasks declared permanently failed (budget exhausted or abandoned).
    pub failed: Vec<bool>,
    /// Faults attributed per node (for blacklisting).
    pub node_faults: Vec<usize>,
}

impl RecoveryState {
    /// Fresh state for `n_tasks` tasks on `n_nodes` nodes.
    pub fn new(n_tasks: usize, n_nodes: usize) -> Self {
        Self {
            attempts: vec![0; n_tasks],
            ready_at: vec![0.0; n_tasks],
            failed: vec![false; n_tasks],
            node_faults: vec![0; n_nodes],
        }
    }

    /// Register a killed attempt of `task` at time `now`: either schedules a
    /// retry after backoff (returns `true`) or, with the budget exhausted,
    /// marks the task permanently failed (returns `false`). The attempt
    /// itself must already have been counted via `start_attempt`.
    pub fn requeue_or_fail(
        &mut self,
        task: usize,
        now: f64,
        policy: &RetryPolicy,
        stats: &mut FaultStats,
    ) -> bool {
        stats.requeues += 1;
        if policy.allows_retry(self.attempts[task]) {
            self.ready_at[task] = now + policy.backoff_seconds(self.attempts[task]);
            true
        } else {
            self.failed[task] = true;
            stats.permanent_failures += 1;
            false
        }
    }

    /// Count the launch of a new attempt of `task`; returns the attempt
    /// number (1-based).
    pub fn start_attempt(&mut self, task: usize, stats: &mut FaultStats) -> usize {
        self.attempts[task] += 1;
        if self.attempts[task] > 1 {
            stats.retries += 1;
        }
        self.attempts[task]
    }

    /// Attribute a fault to `node`; returns `true` if the node just crossed
    /// the blacklist threshold.
    pub fn attribute_node_fault(&mut self, node: usize, policy: &RetryPolicy) -> bool {
        self.node_faults[node] += 1;
        self.node_faults[node] == policy.blacklist_after
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault_config(mtbf: f64, transient: f64, straggler: f64) -> FaultConfig {
        FaultConfig {
            node_mtbf_seconds: mtbf,
            transient_fail_prob: transient,
            straggler_prob: straggler,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn disabled_injector_injects_nothing() {
        let inj = FaultInjector::new(FaultConfig::default(), 64);
        assert!((0..64).all(|node| inj.crash_time(node).is_infinite()));
        for t in 0..100 {
            assert_eq!(inj.attempt_fate(t, 1), AttemptFate::Success);
        }
        assert_eq!(inj.nic_speed(&[0, 1, 2, 3]), 1.0);
    }

    #[test]
    fn crash_times_are_deterministic_and_exponential_scale() {
        let a = FaultInjector::new(fault_config(10_000.0, 0.0, 0.0), 2000);
        let b = FaultInjector::new(fault_config(10_000.0, 0.0, 0.0), 2000);
        let mean: f64 = a.crash_times.iter().sum::<f64>() / a.crash_times.len() as f64;
        assert_eq!(a.crash_times, b.crash_times, "same seed, same crashes");
        assert!(
            (mean / 10_000.0 - 1.0).abs() < 0.15,
            "mean crash time {mean} should be near the MTBF"
        );
    }

    #[test]
    fn attempt_fates_are_order_independent() {
        let inj = FaultInjector::new(fault_config(0.0, 0.3, 0.2), 8);
        let forward: Vec<_> = (0..50).map(|t| inj.attempt_fate(t, 1)).collect();
        let backward: Vec<_> = (0..50).rev().map(|t| inj.attempt_fate(t, 1)).collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
        assert!(forward
            .iter()
            .any(|f| matches!(f, AttemptFate::TransientFailure { .. })));
        assert!(forward
            .iter()
            .any(|f| matches!(f, AttemptFate::Straggler { .. })));
        assert!(forward.iter().any(|f| matches!(f, AttemptFate::Success)));
    }

    #[test]
    fn retries_redraw_the_fate() {
        // A task that failed on attempt 1 must not be doomed to fail every
        // retry: the fate depends on the attempt number.
        let inj = FaultInjector::new(fault_config(0.0, 0.5, 0.0), 8);
        let differs = (0..200).any(|t| inj.attempt_fate(t, 1) != inj.attempt_fate(t, 2));
        assert!(differs, "attempt number must enter the fate derivation");
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            max_attempts: 10,
            backoff_base_seconds: 5.0,
            backoff_cap_seconds: 60.0,
            blacklist_after: 3,
        };
        assert_eq!(p.backoff_seconds(1), 5.0);
        assert_eq!(p.backoff_seconds(2), 10.0);
        assert_eq!(p.backoff_seconds(3), 20.0);
        assert_eq!(p.backoff_seconds(4), 40.0);
        assert_eq!(p.backoff_seconds(5), 60.0, "capped");
        assert_eq!(p.backoff_seconds(50), 60.0, "no overflow at large retries");
    }

    #[test]
    fn recovery_state_enforces_the_retry_budget() {
        let policy = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut st = RecoveryState::new(1, 4);
        let mut stats = FaultStats::default();
        for expected_retry in [true, true, false] {
            st.start_attempt(0, &mut stats);
            let retried = st.requeue_or_fail(0, 100.0, &policy, &mut stats);
            assert_eq!(retried, expected_retry);
        }
        assert_eq!(st.attempts[0], 3);
        assert!(st.failed[0]);
        assert_eq!(stats.permanent_failures, 1);
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.requeues, 3);
    }

    #[test]
    fn blacklist_threshold_fires_once() {
        let policy = RetryPolicy {
            blacklist_after: 2,
            ..RetryPolicy::default()
        };
        let mut st = RecoveryState::new(1, 4);
        assert!(!st.attribute_node_fault(2, &policy));
        assert!(st.attribute_node_fault(2, &policy), "threshold crossing");
        assert!(!st.attribute_node_fault(2, &policy), "fires exactly once");
    }

    #[test]
    fn nic_degradation_slows_touching_allocations() {
        let cfg = FaultConfig {
            nic_degrade_prob: 0.5,
            nic_slowdown: 0.7,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(cfg, 64);
        let degraded: Vec<usize> = (0..64).filter(|&i| inj.nic_degraded(i)).collect();
        let clean: Vec<usize> = (0..64).filter(|&i| !inj.nic_degraded(i)).collect();
        assert!(!degraded.is_empty() && !clean.is_empty());
        assert_eq!(inj.nic_speed(&clean[..2]), 1.0);
        assert_eq!(inj.nic_speed(&[clean[0], degraded[0]]), 0.7);
    }
}
