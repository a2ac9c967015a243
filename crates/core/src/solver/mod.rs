//! Krylov solvers for the Dirac linear systems.
//!
//! The paper's production solver is conjugate gradient on the normal
//! equations ([`cgne`]) over the red–black preconditioned Möbius operator,
//! run double/half mixed-precision with reliable updates ([`mixed_cg`]). The
//! CG recurrence is written once (see [`cg`]'s module); [`cg`],
//! [`cg_block`], [`cg_ft`] and [`mixed_cg`] are drivers over it. A BiCGStab
//! variant covers non-Hermitian 4D Wilson solves; shift-invert Lanczos plus
//! deflated block CG accelerate ill-conditioned light-quark systems.

mod bicgstab;
mod cg;
mod deflate;
mod eig;
mod ft;
mod mixed;

pub use bicgstab::bicgstab;
pub(crate) use cg::solve_normal;
pub use cg::{cg, cg_block, cgne, CgParams, FallibleOp};
pub use deflate::{deflated_cg_block, Deflation};
pub use eig::{lanczos, lanczos_lowest, EigenPair, LanczosParams};
pub use ft::{cg_ft, CgCheckpoint, CheckpointSink, FtParams, CKPT_SPINOR_F64};
pub use mixed::{mixed_cg, mixed_cg_robust, MixedParams, RobustParams};

/// Outcome of a linear solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolveStats {
    /// Matrix applications (of the solver's main operator) performed.
    pub iterations: usize,
    /// `‖b − A x‖ / ‖b‖` at exit, measured in the working precision of the
    /// final true-residual evaluation.
    pub final_rel_residual: f64,
    /// Whether the tolerance was met within the iteration budget.
    pub converged: bool,
    /// Reliable updates performed (mixed-precision solver only).
    pub reliable_updates: usize,
    /// Total floating-point operations attributed to the solve.
    pub flops: f64,
    /// The iteration broke down — a non-finite residual (NaN/∞ from a
    /// corrupted field or overflow) or loss of positive-definiteness — and
    /// the solve terminated early rather than iterating on garbage.
    pub breakdown: bool,
    /// Recurrence snapshots taken (fault-tolerant solver only).
    pub checkpoints: usize,
    /// Restarts forced by communication failures (fault-tolerant solver
    /// only; `iterations` includes the replayed work they cost).
    pub comm_restarts: usize,
}

impl SolveStats {
    pub(crate) fn new() -> Self {
        Self {
            iterations: 0,
            final_rel_residual: f64::INFINITY,
            converged: false,
            reliable_updates: 0,
            flops: 0.0,
            breakdown: false,
            checkpoints: 0,
            comm_restarts: 0,
        }
    }
}

/// Bucket edges for per-solve iteration-count histograms: powers of two,
/// with the default iteration budget as the last finite edge.
pub(crate) const ITERATION_BOUNDS: [f64; 12] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 10_000.0,
];

/// Flush one completed solve into the ambient observability registry.
///
/// Called exactly once per solve, after the iteration loop has exited, so
/// the hot path itself carries no atomic traffic beyond the local
/// [`SolveStats`] accumulation it already does.
pub(crate) fn record_solve(kind: &str, stats: &SolveStats) {
    let reg = obs::Registry::current();
    reg.counter(&format!("solver.{kind}.solves")).inc();
    reg.counter(&format!("solver.{kind}.iters"))
        .add(stats.iterations as u64);
    reg.float_counter(&format!("solver.{kind}.flops"))
        .add(stats.flops);
    reg.histogram(&format!("solver.{kind}.iterations"), &ITERATION_BOUNDS)
        .record(stats.iterations as f64);
    if stats.converged {
        reg.counter(&format!("solver.{kind}.converged")).inc();
    }
    if stats.breakdown {
        reg.counter(&format!("solver.{kind}.breakdowns")).inc();
    }
    if stats.reliable_updates > 0 {
        reg.counter(&format!("solver.{kind}.reliable_updates"))
            .add(stats.reliable_updates as u64);
    }
}

/// Typed outcome of a fault-tolerant solve ([`mixed_cg_robust`]): callers
/// can distinguish clean convergence from a budget exhaustion or an
/// irrecoverable divergence instead of inspecting silent garbage.
#[derive(Clone, Copy, Debug)]
pub enum SolverOutcome {
    /// Converged to tolerance.
    Converged {
        /// Accumulated statistics over every attempt.
        stats: SolveStats,
        /// Checkpointed restarts that were needed.
        restarts: usize,
        /// Whether the solve had to escalate to full double precision.
        escalated: bool,
    },
    /// The iteration budget ran out while the residual was still finite.
    MaxIterations {
        /// Accumulated statistics over every attempt.
        stats: SolveStats,
        /// Checkpointed restarts that were performed.
        restarts: usize,
    },
    /// Divergence persisted through every restart and the double-precision
    /// escalation — the inputs themselves are bad (NaN/∞ in the source or
    /// operator).
    Failed {
        /// Accumulated statistics over every attempt.
        stats: SolveStats,
        /// Checkpointed restarts that were performed.
        restarts: usize,
        /// What killed the solve.
        reason: &'static str,
    },
}

impl SolverOutcome {
    /// The accumulated solve statistics, whatever the outcome.
    pub fn stats(&self) -> &SolveStats {
        match self {
            SolverOutcome::Converged { stats, .. }
            | SolverOutcome::MaxIterations { stats, .. }
            | SolverOutcome::Failed { stats, .. } => stats,
        }
    }

    /// Whether the solve met its tolerance.
    pub fn is_converged(&self) -> bool {
        matches!(self, SolverOutcome::Converged { .. })
    }
}
