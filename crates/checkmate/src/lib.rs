//! Concurrency verification for the repo's concurrent protocol cores.
//!
//! Two engines, one crate, zero dependencies:
//!
//! 1. **Schedule exploration** ([`explore`]): a deterministic shadow-execution
//!    harness in the CHESS tradition. Protocols are re-modeled as
//!    [`explore::System`]s — cooperative tasks stepping atomically over
//!    modeled channels/mutexes/registers ([`model`]) — and a DFS controller
//!    enumerates interleavings with sleep-set pruning and an optional
//!    preemption bound. Any failing schedule serializes to a replayable
//!    [`trace::Trace`]. The protocol adapters live in [`protocols`]:
//!    mailbox dedup-by-seq, the NACK/retransmit recv loop, two-slot
//!    checkpoint rotation, and a racy-counter defect model.
//!
//! 2. **Happens-before race detection** ([`race`]): FNV-keyed vector clocks
//!    recording sync edges (lock/unlock, channel send/recv, pool chunk
//!    handoff) and flagging conflicting accesses with no ordering between
//!    them. The vendored `parking_lot`/`rayon`/`crossbeam` shims call into
//!    it behind their `race-detect` feature, so the existing determinism
//!    suites double as race tests on any stable toolchain.
//!
//! The bench CLI surfaces both as `repro verify`; see `results/verify.md`
//! for the committed exhaustive-exploration numbers.

pub mod explore;
pub mod model;
pub mod protocols;
pub mod race;
pub mod trace;

pub use explore::{Exploration, Explorer, Footprint, System, Violation};
pub use trace::{Trace, Verdict};

/// FNV-1a 64-bit hash — the same keyed hashing used across the workspace
/// (the service's gauge content hash, lint suppression hashes). Used here
/// to derive stable object ids for modeled objects and race-detector sync
/// keys.
// Zero-dependency crate: keeps its own FNV-1a rather than sharing one.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::fnv1a_64;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171F73967E8);
    }
}
