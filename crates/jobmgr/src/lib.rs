//! Job management for bundled lattice-QCD workloads — METAQ and `mpi_jm`.
//!
//! A full lattice QCD computation is thousands of intermediate-sized tasks
//! (GPU propagator solves, CPU-only contractions, I/O) with different
//! resource needs. The paper shows that naive bundling — launching a batch
//! of tasks and waiting for all of them — idles 20–25% of the machine; that
//! METAQ-style backfilling recovers it; and that `mpi_jm` (lumps, blocks,
//! tight hardware binding, CPU/GPU co-scheduling) scales a single job
//! submission to 3388+ Sierra nodes at 15% of peak.
//!
//! This crate implements those schedulers over a discrete-event cluster
//! simulator: nodes with speed jitter and failures, GPU/CPU slots, and task
//! durations derived from the `coral-machine` solver model. The scheduling
//! *logic* is real — what is simulated is only the passage of time.

#![allow(clippy::needless_range_loop)]

pub mod cluster;
mod des;
pub mod fault;
mod instrument;
pub mod metaq;
pub mod mpijm;
pub mod naive;
pub mod placement;
pub mod report;
pub mod startup;
pub mod task;
pub mod timeline;
pub mod weak;

pub use cluster::{Cluster, ClusterConfig};
pub use fault::{
    splitmix64, AttemptFate, FaultConfig, FaultInjector, FaultStats, RecoveryState, RetryPolicy,
};
pub use metaq::MetaqScheduler;
pub use mpijm::{MpiJmConfig, MpiJmScheduler};
pub use naive::NaiveBundler;
pub use placement::{bundle_throughput, place_jobs, GpuPlacement};
pub use report::{SimReport, TaskRecord};
pub use startup::{startup_model, StartupReport};
pub use task::{TaskKind, TaskSpec, Workload};
pub use timeline::{sparkline, timeline_utilization, utilization_timeline, wasted_timeline};
pub use weak::{weak_scaling_point, MpiFlavor, WeakScalingPoint};
