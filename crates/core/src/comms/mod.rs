//! Rank-decomposed execution: the communication layer the cost models in
//! `coral-machine` describe, actually run.
//!
//! The module maps a `coral_machine::decomp` rank grid onto the real
//! [`crate::lattice::Lattice`] ([`DomainDecomposition`]), exchanges halo
//! faces between ranks through in-memory mailboxes, one per rank ×
//! direction × side ([`FaultyTransport`]), and executes the hopping
//! stencil over the shards ([`ShardedHopping`]) — and the Möbius normal
//! operator around it ([`ShardedNormal`]) — with output bit-identical to the
//! single-domain kernels at any rank grid, thread width, and precision.
//!
//! Both layers speak the same `CommPolicy` type: `perfmodel`/`commpolicy`
//! predict exchange cost from a policy, and this module *executes* that
//! policy — [`tune_comm_policy`] closes the loop by sweeping the policies
//! with measured timings and the `repro comms` experiment commits
//! measured-vs-analytic columns side by side.

//! Messages travel CRC-32C-framed ([`crate::crc32c`], the checksum the
//! `lattice-io` container uses too) through [`FaultyTransport`], which can
//! deterministically inject corruption, drops, duplicates, reordering, and
//! latency spikes ([`CommFaultProfile`]) and heals them with
//! NACK/retransmit + capped backoff ([`CommRetryPolicy`]); unrecoverable
//! failures surface as typed [`CommError`]s that drive the solver layer's
//! checkpoint-restart and rank-loss degradation ([`ShardedNormal`]).

mod domain;
mod fault;
mod kernel;
mod transport;

pub use domain::{surviving_grid, DimExchange, DomainDecomposition, RankDomain};
pub use fault::{splitmix64, CommError, CommFaultProfile, CommRetryPolicy, WireFault};
pub use kernel::{
    policy_from_index, tune_comm_policy, ShardedField, ShardedHopping, ShardedNormal,
};
pub use transport::{CommFaultStats, CommStats, FaultyTransport, Frame, Payload, BOX_BWD, BOX_FWD};
