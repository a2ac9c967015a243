//! Model of `FaultyTransport`'s mailbox send/recv with dedup-by-seq.
//!
//! Mirrors `crates/core/src/comms/transport.rs`: each rank owns one FIFO
//! mailbox per (neighbor direction) side, frames carry a monotone per-box
//! sequence number, and the receiver accepts a frame only when its seq
//! matches the next expected value, dropping stale (duplicate) seqs on the
//! floor. A duplicating-wire adversary re-delivers a parked frame, standing
//! in for the duplicate-delivery fault the `FaultyTransport` wire injector
//! produces.
//!
//! The modeled configuration is the issue's bounded one — 2 ranks × 1 dim —
//! with `applies` exchanges per box. Properties:
//!
//! - every (box, seq) payload is applied at most once, bit-correct
//!   (checked after every step), and
//! - exactly once by the time all tasks finish (final check).
//!
//! The `skip_dedup` switch removes the seq gate — the real bug class the
//! dedup exists for — and must yield a violating schedule.

use crate::explore::{Footprint, System};
use crate::model::ChanM;

const SIDES: usize = 2;

#[derive(Debug, Clone)]
struct FrameM {
    seq: u64,
    src: usize,
    payload: u64,
}

/// Deterministic payload tag, standing in for the frame checksum: lets the
/// checker catch cross-box or cross-seq mixups bit-exactly.
fn payload(src: usize, side: usize, seq: u64) -> u64 {
    crate::fnv1a_64(&[src as u8, side as u8, seq as u8])
}

/// Bounded mailbox configuration (2 ranks × 1 dim).
#[derive(Debug, Clone)]
pub struct MailboxSpec {
    /// Exchanges per (rank, side) box.
    pub applies: u64,
    /// Add a duplicating-wire adversary (budget 1).
    pub wire_dup: bool,
    /// Seeded defect: receivers accept frames without the seq gate.
    pub skip_dedup: bool,
}

impl Default for MailboxSpec {
    fn default() -> Self {
        Self {
            applies: 2,
            wire_dup: true,
            skip_dedup: false,
        }
    }
}

/// Per-receiver-side progress.
#[derive(Debug, Clone, Default)]
struct BoxState {
    expect: u64,
    /// Count of applies per seq (the exactly-once ledger).
    applied: Vec<u64>,
}

/// Task layout: 0,1 senders; 2,3 receivers; 4 (optional) duplicator.
pub struct MailboxSystem {
    spec: MailboxSpec,
    /// `boxes[rank][side]`: frames awaiting rank's receiver.
    boxes: [[ChanM<FrameM>; SIDES]; 2],
    /// Sender program counters: next (side, seq) flattened.
    send_pc: [u64; 2],
    rx: [[BoxState; SIDES]; 2],
    dup_budget: u64,
    /// Set when a receiver observes a protocol impossibility (e.g. a seq
    /// from the future); surfaced through `check`.
    protocol_error: Option<String>,
}

impl MailboxSystem {
    pub fn new(spec: MailboxSpec) -> Self {
        let chan = |rank: usize, side: usize| ChanM::new(&format!("box.r{rank}.s{side}"));
        Self {
            dup_budget: u64::from(spec.wire_dup),
            boxes: [[chan(0, 0), chan(0, 1)], [chan(1, 0), chan(1, 1)]],
            send_pc: [0, 0],
            rx: [
                [BoxState::default(), BoxState::default()],
                [BoxState::default(), BoxState::default()],
            ],
            protocol_error: None,
            spec,
        }
    }

    fn sends_total(&self) -> u64 {
        self.spec.applies * SIDES as u64
    }

    fn receivers_done(&self) -> bool {
        (0..2).all(|r| self.receiver_done(r))
    }

    fn receiver_done(&self, rank: usize) -> bool {
        self.rx[rank].iter().all(|b| b.expect >= self.spec.applies)
    }

    /// First nonempty box of `rank`, the deterministic poll order the
    /// receiver uses.
    fn rx_pick(&self, rank: usize) -> Option<usize> {
        (0..SIDES).find(|&s| !self.boxes[rank][s].is_empty())
    }

    /// First nonempty box overall, the duplicator's deterministic target.
    fn dup_pick(&self) -> Option<(usize, usize)> {
        (0..2)
            .flat_map(|r| (0..SIDES).map(move |s| (r, s)))
            .find(|&(r, s)| !self.boxes[r][s].is_empty())
    }
}

impl System for MailboxSystem {
    fn n_tasks(&self) -> usize {
        4 + usize::from(self.spec.wire_dup)
    }

    fn task_name(&self, task: usize) -> String {
        match task {
            0 | 1 => format!("sender{task}"),
            2 | 3 => format!("receiver{}", task - 2),
            _ => "dup-wire".into(),
        }
    }

    fn done(&self, task: usize) -> bool {
        match task {
            0 | 1 => self.send_pc[task] >= self.sends_total(),
            2 | 3 => self.receiver_done(task - 2),
            _ => self.dup_budget == 0 || self.receivers_done(),
        }
    }

    fn enabled(&self, task: usize) -> bool {
        match task {
            0 | 1 => !self.done(task),
            2 | 3 => self.rx_pick(task - 2).is_some(),
            _ => self.dup_pick().is_some(),
        }
    }

    fn peek(&self, task: usize) -> Footprint {
        match task {
            0 | 1 => {
                let pc = self.send_pc[task];
                let side = (pc % SIDES as u64) as usize;
                Footprint::new().write(self.boxes[1 - task][side].id())
            }
            2 | 3 => {
                let rank = task - 2;
                // Reads both boxes (the poll), writes the one it pops.
                let mut fp = Footprint::new()
                    .read(self.boxes[rank][0].id())
                    .read(self.boxes[rank][1].id());
                if let Some(side) = self.rx_pick(rank) {
                    fp = fp.write(self.boxes[rank][side].id());
                }
                fp
            }
            _ => {
                // Polls every box, mutates the first nonempty one.
                let mut fp = Footprint::new();
                for r in 0..2 {
                    for s in 0..SIDES {
                        fp = fp.read(self.boxes[r][s].id());
                    }
                }
                if let Some((r, s)) = self.dup_pick() {
                    fp = fp.write(self.boxes[r][s].id());
                }
                fp
            }
        }
    }

    fn step(&mut self, task: usize) {
        match task {
            0 | 1 => {
                let pc = self.send_pc[task];
                let side = (pc % SIDES as u64) as usize;
                let seq = pc / SIDES as u64;
                self.boxes[1 - task][side].send(FrameM {
                    seq,
                    src: task,
                    payload: payload(task, side, seq),
                });
                self.send_pc[task] += 1;
            }
            2 | 3 => {
                let rank = task - 2;
                let Some(side) = self.rx_pick(rank) else {
                    return;
                };
                let Some(frame) = self.boxes[rank][side].try_recv() else {
                    return;
                };
                let state = &mut self.rx[rank][side];
                let accept = if self.spec.skip_dedup {
                    // Seeded defect: the seq gate is gone; anything present
                    // gets applied.
                    true
                } else {
                    frame.seq == state.expect
                };
                if !accept {
                    // Stale duplicate: dropped on the floor, like the real
                    // `duplicates_dropped` path.
                    return;
                }
                if frame.seq > state.expect {
                    self.protocol_error = Some(format!(
                        "receiver{rank} saw future seq {} (expect {})",
                        frame.seq, state.expect
                    ));
                    return;
                }
                if frame.payload != payload(frame.src, side, frame.seq) {
                    self.protocol_error = Some(format!(
                        "receiver{rank} applied a corrupted payload for seq {}",
                        frame.seq
                    ));
                    return;
                }
                let idx = frame.seq as usize;
                if state.applied.len() <= idx {
                    state.applied.resize(idx + 1, 0);
                }
                state.applied[idx] += 1;
                if frame.seq == state.expect {
                    state.expect += 1;
                }
            }
            _ => {
                if let Some((r, s)) = self.dup_pick() {
                    self.boxes[r][s].duplicate_front();
                    self.dup_budget -= 1;
                }
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        if let Some(err) = &self.protocol_error {
            return Err(err.clone());
        }
        for rank in 0..2 {
            for side in 0..SIDES {
                for (seq, &n) in self.rx[rank][side].applied.iter().enumerate() {
                    if n > 1 {
                        return Err(format!(
                            "box (rank {rank}, side {side}) applied seq {seq} {n} times"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        self.check()?;
        for rank in 0..2 {
            for side in 0..SIDES {
                let state = &self.rx[rank][side];
                for seq in 0..self.spec.applies {
                    let n = state.applied.get(seq as usize).copied().unwrap_or(0);
                    if n != 1 {
                        return Err(format!(
                            "box (rank {rank}, side {side}) applied seq {seq} {n} times (want 1)"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{replay, Explorer};

    #[test]
    fn dedup_makes_delivery_exactly_once_under_duplication() {
        let run =
            Explorer::default().explore("mailbox", || MailboxSystem::new(MailboxSpec::default()));
        assert!(
            run.verified(),
            "exhaustive pass expected, got {:?}",
            run.violation
        );
        assert!(run.schedules > 100, "space should be non-trivial");
    }

    #[test]
    fn dropped_dedup_check_is_caught_and_replayable() {
        let spec = MailboxSpec {
            skip_dedup: true,
            ..MailboxSpec::default()
        };
        let run =
            Explorer::default().explore("mailbox-defect", || MailboxSystem::new(spec.clone()));
        let v = run.violation.expect("skip_dedup must violate exactly-once");
        assert!(v.message.contains("times"), "{}", v.message);
        let mut sys = MailboxSystem::new(spec);
        let replayed = replay(&mut sys, &v.schedule).expect_err("replay must reproduce");
        assert_eq!(replayed.message, v.message);
    }

    #[test]
    fn no_adversary_passes_trivially() {
        let run = Explorer::default().explore("mailbox-clean", || {
            MailboxSystem::new(MailboxSpec {
                wire_dup: false,
                ..MailboxSpec::default()
            })
        });
        assert!(run.verified());
    }
}
