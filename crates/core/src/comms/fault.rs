//! Deterministic comm-layer fault model and the typed errors recovery
//! speaks.
//!
//! This is `jobmgr::fault` pushed one layer down the stack: where the
//! scheduler model decides the fate of task *attempts*, this module decides
//! the fate of individual halo *messages*. The same design rules apply —
//! every decision is a pure function of `(seed, entity, attempt)` through
//! splitmix64 per-entity hashing (identical mixing constants to the jobmgr
//! injector), so the same message meets the same fate regardless of rank
//! visit order, thread width, or how many times the fate is queried. That
//! determinism is what lets the `repro chaos` sweep compare checkpointing
//! on/off on *identical* fault schedules, and what keeps the recovery tests
//! bit-reproducible.
//!
//! Fault taxonomy (per message-transmission attempt, redrawn on every
//! retransmission so retries can succeed):
//!
//! - **Corruption** — a payload bit flips in flight; the receiver's CRC-32C
//!   frame checksum catches it and triggers a NACK/re-request.
//! - **Drop** — the frame never arrives; the receiver times out and
//!   re-requests from the sender's retransmit buffer.
//! - **Duplicate** — the frame arrives twice; the receiver dedups by
//!   sequence number.
//! - **Reorder** — a stale frame (previous sequence number) arrives ahead
//!   of the real one; the receiver discards it by sequence number.
//! - **Latency spike** — the frame is late; the receiver burns a timeout
//!   (accounted as [`CommFaultProfile::delay_seconds`]) before the
//!   re-request finds it.
//! - **Rank loss** — from `lost_at_apply` onward, `lost_rank` neither sends
//!   nor receives; every exchange touching it surfaces
//!   [`CommError::RankLost`], the trigger for checkpoint restore and grid
//!   degradation.

use crate::lattice::ND;
use std::fmt;

/// Typed failure of a halo-exchange operation — the non-panicking
/// replacement for the transport's original `unreachable!`/`assert!` exits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommError {
    /// No frame for the current exchange arrived within the retry budget
    /// and the sender had nothing to retransmit.
    Missing {
        /// Receiving rank.
        rank: usize,
        /// Partitioned direction.
        mu: usize,
        /// Ghost-zone side.
        side: usize,
        /// Transmission attempts consumed before giving up.
        attempts: usize,
    },
    /// Every arriving frame failed its checksum and the retry budget is
    /// exhausted — a persistently corrupting link.
    Corrupt {
        /// Receiving rank.
        rank: usize,
        /// Partitioned direction.
        mu: usize,
        /// Ghost-zone side.
        side: usize,
        /// Transmission attempts consumed before giving up.
        attempts: usize,
    },
    /// A frame arrived whose payload length does not match the exchange
    /// geometry (protocol violation, not recoverable by retry).
    SizeMismatch {
        /// Receiving rank.
        rank: usize,
        /// Partitioned direction.
        mu: usize,
        /// Ghost-zone side.
        side: usize,
    },
    /// The named rank is permanently gone; only checkpoint restore plus
    /// grid degradation can make progress.
    RankLost {
        /// The dead rank.
        rank: usize,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CommError::Missing {
                rank,
                mu,
                side,
                attempts,
            } => write!(
                f,
                "no halo frame at (rank {rank}, dim {mu}, side {side}) after {attempts} attempts"
            ),
            CommError::Corrupt {
                rank,
                mu,
                side,
                attempts,
            } => write!(
                f,
                "halo frame at (rank {rank}, dim {mu}, side {side}) failed checksum on all {attempts} attempts"
            ),
            CommError::SizeMismatch { rank, mu, side } => write!(
                f,
                "halo frame at (rank {rank}, dim {mu}, side {side}) has wrong payload size"
            ),
            CommError::RankLost { rank } => write!(f, "rank {rank} lost"),
        }
    }
}

impl std::error::Error for CommError {}

/// Intensities of the deterministic message-fault injector. `Default` is a
/// perfect network (all rates zero, no rank loss), under which the framed
/// transport is bit-identical in behaviour to the fault-free one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommFaultProfile {
    /// Probability a transmission attempt delivers a corrupted payload.
    pub corrupt_prob: f64,
    /// Probability a transmission attempt is dropped outright.
    pub drop_prob: f64,
    /// Probability a transmission attempt is delivered twice.
    pub duplicate_prob: f64,
    /// Probability a stale (previous-sequence) frame arrives ahead of the
    /// real one.
    pub reorder_prob: f64,
    /// Probability the frame is late enough that the receiver times out
    /// once before the re-request finds it.
    pub delay_prob: f64,
    /// Simulated length of one latency spike, seconds (charged to the
    /// recovery-latency accounting, not slept).
    pub delay_seconds: f64,
    /// Rank that dies permanently, if any.
    pub lost_rank: Option<usize>,
    /// Apply index (sequence number) from which `lost_rank` is dead.
    pub lost_at_apply: u64,
    /// Seed for every injection decision.
    pub seed: u64,
}

impl Default for CommFaultProfile {
    fn default() -> Self {
        Self {
            corrupt_prob: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            delay_prob: 0.0,
            delay_seconds: 2e-6,
            lost_rank: None,
            lost_at_apply: 0,
            seed: 0xC0_113C,
        }
    }
}

/// What the injector decrees for one transmission attempt of one frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireFault {
    /// Delivered intact, once, on time.
    Clean,
    /// Delivered with a flipped payload bit.
    Corrupt,
    /// Never delivered.
    Drop,
    /// Delivered twice.
    Duplicate,
    /// A stale frame is delivered just before the real one.
    Reorder,
    /// Delivered only after the receiver has timed out once.
    Delay,
}

impl CommFaultProfile {
    /// Whether any message-fault channel is active (rank loss counts: it
    /// changes send/recv outcomes even with all rates zero).
    pub fn enabled(&self) -> bool {
        self.corrupt_prob > 0.0
            || self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.reorder_prob > 0.0
            || self.delay_prob > 0.0
            || self.lost_rank.is_some()
    }

    /// Whether `rank` is dead at exchange sequence number `seq`.
    pub fn rank_dead(&self, rank: usize, seq: u64) -> bool {
        self.lost_rank == Some(rank) && seq >= self.lost_at_apply
    }

    /// The fate of transmission attempt `attempt` of the frame addressed to
    /// `(dest, mu, side)` with sequence number `seq`.
    ///
    /// Pure function of `(seed, dest, mu, side, seq, attempt)`: the same
    /// frame meets the same fate however many times this is queried and
    /// whatever order boxes are visited in. Each retransmission attempt
    /// redraws, so a retried frame is not doomed to repeat its fate.
    pub fn draw(&self, dest: usize, mu: usize, side: usize, seq: u64, attempt: u64) -> WireFault {
        if self.corrupt_prob <= 0.0
            && self.drop_prob <= 0.0
            && self.duplicate_prob <= 0.0
            && self.reorder_prob <= 0.0
            && self.delay_prob <= 0.0
        {
            return WireFault::Clean;
        }
        let u = unit_f64(self.decision_bits(dest, mu, side, seq, attempt));
        let mut edge = self.corrupt_prob;
        if u < edge {
            return WireFault::Corrupt;
        }
        edge += self.drop_prob;
        if u < edge {
            return WireFault::Drop;
        }
        edge += self.duplicate_prob;
        if u < edge {
            return WireFault::Duplicate;
        }
        edge += self.reorder_prob;
        if u < edge {
            return WireFault::Reorder;
        }
        edge += self.delay_prob;
        if u < edge {
            return WireFault::Delay;
        }
        WireFault::Clean
    }

    /// Well-mixed 64 decision bits for one `(dest, mu, side, seq, attempt)`
    /// entity — also used to pick which payload element a corruption hits.
    pub fn decision_bits(
        &self,
        dest: usize,
        mu: usize,
        side: usize,
        seq: u64,
        attempt: u64,
    ) -> u64 {
        debug_assert!(mu < ND && side < 2);
        let entity = ((dest as u64) << 34)
            ^ ((mu as u64) << 31)
            ^ ((side as u64) << 30)
            ^ (seq << 8)
            ^ attempt;
        splitmix64(self.seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ splitmix64(entity))
    }
}

/// Retry/backoff policy of the receive path — the comm-layer mirror of
/// `jobmgr`'s task-level `RetryPolicy`, with the same capped-exponential
/// shape scaled to network timescales.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommRetryPolicy {
    /// Transmission attempts per frame (first delivery included) before the
    /// exchange is declared failed.
    pub max_attempts: usize,
    /// Simulated wait after the first failed attempt, seconds.
    pub backoff_base_seconds: f64,
    /// Cap on the exponential backoff, seconds.
    pub backoff_cap_seconds: f64,
}

impl Default for CommRetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base_seconds: 1e-6,
            backoff_cap_seconds: 64e-6,
        }
    }
}

impl CommRetryPolicy {
    /// Capped exponential backoff before retry number `retry` (1-based,
    /// same shape as `jobmgr::RetryPolicy::backoff_seconds`).
    pub fn backoff_seconds(&self, retry: usize) -> f64 {
        let exp = retry.saturating_sub(1).min(20) as u32;
        (self.backoff_base_seconds * f64::from(2u32.pow(exp))).min(self.backoff_cap_seconds)
    }
}

/// splitmix64 — the same per-entity seed-derivation hash `jobmgr::fault`
/// uses, duplicated here because the layering rules (srclint R4) forbid
/// `lqcd-core` depending on `mpi-jm`. The constants must stay in sync with
/// `mpi_jm::splitmix64` so a scheduler-level seed threads down to the comm
/// layer reproducibly.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map 64 random bits to `[0, 1)` with 53-bit resolution.
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_disabled_and_draws_clean() {
        let p = CommFaultProfile::default();
        assert!(!p.enabled());
        for seq in 0..16 {
            assert_eq!(p.draw(3, 1, 0, seq, 0), WireFault::Clean);
        }
    }

    #[test]
    fn draws_are_deterministic_and_entity_keyed() {
        let p = CommFaultProfile {
            corrupt_prob: 0.2,
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            seed: 99,
            ..CommFaultProfile::default()
        };
        for dest in 0..4 {
            for mu in 0..ND {
                for side in 0..2 {
                    for seq in 0..8 {
                        let a = p.draw(dest, mu, side, seq, 0);
                        let b = p.draw(dest, mu, side, seq, 0);
                        assert_eq!(a, b, "same entity, same fate");
                    }
                }
            }
        }
        // Different attempts of the same frame redraw independently: over
        // many frames at 60% fault rate, some fate must change with attempt.
        let changed = (0..200).any(|seq| p.draw(0, 0, 0, seq, 0) != p.draw(0, 0, 0, seq, 1));
        assert!(changed, "retransmissions must redraw");
    }

    #[test]
    fn fault_rates_are_roughly_honoured() {
        let p = CommFaultProfile {
            corrupt_prob: 0.25,
            drop_prob: 0.25,
            seed: 7,
            ..CommFaultProfile::default()
        };
        let n = 4000;
        let faults = (0..n)
            .filter(|&seq| p.draw(1, 2, 1, seq, 0) != WireFault::Clean)
            .count();
        let frac = faults as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "observed fault fraction {frac}");
    }

    #[test]
    fn rank_death_starts_at_the_scheduled_apply() {
        let p = CommFaultProfile {
            lost_rank: Some(2),
            lost_at_apply: 5,
            ..CommFaultProfile::default()
        };
        assert!(p.enabled());
        assert!(!p.rank_dead(2, 4));
        assert!(p.rank_dead(2, 5));
        assert!(p.rank_dead(2, 99));
        assert!(!p.rank_dead(1, 99));
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let r = CommRetryPolicy {
            max_attempts: 8,
            backoff_base_seconds: 1.0,
            backoff_cap_seconds: 5.0,
        };
        assert_eq!(r.backoff_seconds(1), 1.0);
        assert_eq!(r.backoff_seconds(2), 2.0);
        assert_eq!(r.backoff_seconds(3), 4.0);
        assert_eq!(r.backoff_seconds(4), 5.0, "capped");
        assert_eq!(r.backoff_seconds(30), 5.0, "capped far out");
    }

    #[test]
    fn splitmix_matches_jobmgr_constants() {
        // Golden values pin the mixing constants to the jobmgr injector's;
        // if either copy drifts, seeds stop threading down reproducibly.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }
}
