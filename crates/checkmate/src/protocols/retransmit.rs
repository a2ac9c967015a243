//! Model of the NACK/retransmit recv loop under wire faults.
//!
//! Mirrors `FaultyTransport` in `crates/core/src/comms/transport.rs` for a
//! single exchange: the sender parks the frame in its mailbox before
//! transmitting; the receiver drains the wire, dedup-dropping
//! stale seqs, NACKing checksum failures, timing out on a lost frame, and
//! failing the exchange once the retry budget (`CommRetryPolicy`-default
//! 4 attempts) is spent. Wire faults are adversary tasks with unit
//! budgets — corrupt, drop, duplicate, and reorder (inject a stale frame)
//! — so the explorer enumerates every fault *timing*, not a sampled one.
//!
//! Abstractions, documented in DESIGN.md:
//!
//! - the checksum is an `intact` bit (CRC collisions out of scope);
//! - the NACK is a modeled channel the sender serves, standing in for the
//!   receive loop's synchronous retransmit of the parked frame;
//! - a timeout fires only when the frame is truly lost (wire and NACK
//!   queue empty), modeling a deadline much longer than retransmit
//!   latency — the real backoff schedule guarantees exactly this.
//!
//! Properties: the receiver always completes the exchange, having applied
//! the correct payload exactly once, within the retry budget. The
//! `skip_dedup` switch removes the stale-seq gate; with the reorder
//! adversary live this is the issue's seeded dedup defect and must yield a
//! violating schedule (a stale frame applied as current).

use crate::explore::{Footprint, System};
use crate::model::{obj_id, ChanM};

/// Retry budget, matching `CommRetryPolicy::default().max_attempts`.
pub const MAX_ATTEMPTS: usize = 4;

/// The exchange seq under test; the reorderer injects `SEQ - 1`.
const SEQ: u64 = 5;

fn payload(seq: u64) -> u64 {
    crate::fnv1a_64(&seq.to_le_bytes())
}

#[derive(Debug, Clone)]
struct FrameM {
    seq: u64,
    payload: u64,
    /// Checksum abstraction: false models a CRC mismatch on verify.
    intact: bool,
}

/// Which adversaries ride on the wire (each with budget 1).
#[derive(Debug, Clone)]
pub struct RetransmitSpec {
    pub corrupt: bool,
    pub drop: bool,
    pub duplicate: bool,
    /// Inject a stale (already-delivered) seq, modeling reordering.
    pub reorder: bool,
    /// Seeded defect: the receiver applies whatever seq arrives.
    pub skip_dedup: bool,
}

impl Default for RetransmitSpec {
    fn default() -> Self {
        Self {
            corrupt: true,
            drop: true,
            duplicate: true,
            reorder: true,
            skip_dedup: false,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum SenderPc {
    Park,
    Transmit,
    Serve,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum RecvResult {
    Delivered,
    Failed(String),
}

/// Task layout: 0 sender, 1 receiver, then one task per enabled adversary
/// in corrupt, drop, duplicate, reorder order.
pub struct RetransmitSystem {
    spec: RetransmitSpec,
    wire: ChanM<FrameM>,
    nacks: ChanM<u64>,
    resend_id: u64,
    resend: Option<FrameM>,
    sender_pc: SenderPc,
    recv_id: u64,
    attempts: usize,
    applied: Vec<(u64, u64)>,
    result: Option<RecvResult>,
    adversaries: Vec<Adversary>,
}

#[derive(Debug, Clone)]
struct Adversary {
    kind: AdvKind,
    budget: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdvKind {
    Corrupt,
    Drop,
    Duplicate,
    Reorder,
}

impl RetransmitSystem {
    pub fn new(spec: RetransmitSpec) -> Self {
        let mut adversaries = Vec::new();
        for (kind, on) in [
            (AdvKind::Corrupt, spec.corrupt),
            (AdvKind::Drop, spec.drop),
            (AdvKind::Duplicate, spec.duplicate),
            (AdvKind::Reorder, spec.reorder),
        ] {
            if on {
                adversaries.push(Adversary { kind, budget: 1 });
            }
        }
        Self {
            spec,
            wire: ChanM::new("retx.wire"),
            nacks: ChanM::new("retx.nacks"),
            resend_id: obj_id("retx.resend"),
            resend: None,
            sender_pc: SenderPc::Park,
            recv_id: obj_id("retx.recv"),
            attempts: 1,
            applied: Vec::new(),
            result: None,
            adversaries,
        }
    }

    fn receiver_done(&self) -> bool {
        self.result.is_some()
    }

    /// The modeled timeout condition: the frame is truly lost — nothing in
    /// flight on the wire, no NACK awaiting service.
    fn timed_out(&self) -> bool {
        self.sender_pc == SenderPc::Serve && self.wire.is_empty() && self.nacks.is_empty()
    }

    fn nack_or_fail(&mut self, why: &str) {
        if self.attempts >= MAX_ATTEMPTS {
            self.result = Some(RecvResult::Failed(format!(
                "retry budget exhausted after {}: {why}",
                self.attempts
            )));
        } else {
            self.attempts += 1;
            self.nacks.send(SEQ);
        }
    }
}

impl System for RetransmitSystem {
    fn n_tasks(&self) -> usize {
        2 + self.adversaries.len()
    }

    fn task_name(&self, task: usize) -> String {
        match task {
            0 => "sender".into(),
            1 => "receiver".into(),
            _ => match self.adversaries[task - 2].kind {
                AdvKind::Corrupt => "corruptor".into(),
                AdvKind::Drop => "dropper".into(),
                AdvKind::Duplicate => "duplicator".into(),
                AdvKind::Reorder => "reorderer".into(),
            },
        }
    }

    fn done(&self, task: usize) -> bool {
        match task {
            0 => self.sender_pc == SenderPc::Serve && self.receiver_done(),
            1 => self.receiver_done(),
            _ => self.adversaries[task - 2].budget == 0 || self.receiver_done(),
        }
    }

    fn enabled(&self, task: usize) -> bool {
        if self.done(task) {
            return false;
        }
        match task {
            0 => self.sender_pc != SenderPc::Serve || !self.nacks.is_empty(),
            // The receiver only starts once the exchange is in flight
            // (recv is called after the matching send was posted).
            1 => self.sender_pc == SenderPc::Serve && (!self.wire.is_empty() || self.timed_out()),
            _ => match self.adversaries[task - 2].kind {
                AdvKind::Reorder => self.sender_pc != SenderPc::Park,
                _ => !self.wire.is_empty(),
            },
        }
    }

    fn peek(&self, task: usize) -> Footprint {
        match task {
            0 => match self.sender_pc {
                SenderPc::Park => Footprint::new().write(self.resend_id),
                SenderPc::Transmit => Footprint::new().read(self.resend_id).write(self.wire.id()),
                SenderPc::Serve => Footprint::new()
                    .read(self.resend_id)
                    .write(self.nacks.id())
                    .write(self.wire.id()),
            },
            1 => Footprint::new()
                .write(self.wire.id())
                .write(self.nacks.id())
                .write(self.recv_id)
                .read(self.resend_id),
            _ => Footprint::new().write(self.wire.id()).read(self.recv_id),
        }
    }

    fn step(&mut self, task: usize) {
        match task {
            0 => match self.sender_pc {
                SenderPc::Park => {
                    self.resend = Some(FrameM {
                        seq: SEQ,
                        payload: payload(SEQ),
                        intact: true,
                    });
                    self.sender_pc = SenderPc::Transmit;
                }
                SenderPc::Transmit => {
                    if let Some(frame) = self.resend.clone() {
                        self.wire.send(frame);
                    }
                    self.sender_pc = SenderPc::Serve;
                }
                SenderPc::Serve => {
                    if self.nacks.try_recv().is_some() {
                        if let Some(frame) = self.resend.clone() {
                            self.wire.send(frame);
                        }
                    }
                }
            },
            1 => {
                if let Some(frame) = self.wire.try_recv() {
                    if frame.seq != SEQ && !self.spec.skip_dedup {
                        // Stale seq: dedup-dropped, costs nothing.
                        return;
                    }
                    if !frame.intact {
                        self.nack_or_fail("checksum mismatch");
                        return;
                    }
                    self.applied.push((frame.seq, frame.payload));
                    self.result = Some(RecvResult::Delivered);
                } else if self.timed_out() {
                    self.nack_or_fail("timeout");
                }
            }
            _ => {
                let adv = &mut self.adversaries[task - 2];
                match adv.kind {
                    AdvKind::Corrupt => {
                        if let Some(frame) = self.wire.front_mut() {
                            frame.intact = false;
                            adv.budget -= 1;
                        }
                    }
                    AdvKind::Drop => {
                        if self.wire.try_recv().is_some() {
                            adv.budget -= 1;
                        }
                    }
                    AdvKind::Duplicate => {
                        if !self.wire.is_empty() {
                            self.wire.duplicate_front();
                            adv.budget -= 1;
                        }
                    }
                    AdvKind::Reorder => {
                        self.wire.send(FrameM {
                            seq: SEQ - 1,
                            payload: payload(SEQ - 1),
                            intact: true,
                        });
                        adv.budget -= 1;
                    }
                }
            }
        }
    }

    fn check(&self) -> Result<(), String> {
        if self.applied.len() > 1 {
            return Err(format!(
                "payload applied {} times (want at most once)",
                self.applied.len()
            ));
        }
        if let Some((seq, pay)) = self.applied.first() {
            if *seq != SEQ || *pay != payload(SEQ) {
                return Err(format!(
                    "wrong frame applied: seq {seq} (want {SEQ}) — stale or corrupt data \
                     reached the solver"
                ));
            }
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        self.check()?;
        match &self.result {
            Some(RecvResult::Delivered) => Ok(()),
            Some(RecvResult::Failed(why)) => {
                Err(format!("exchange failed within the retry budget: {why}"))
            }
            None => Err("receiver never ran".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{replay, Explorer};

    #[test]
    fn full_adversary_mix_delivers_exactly_once() {
        let run = Explorer::default().explore("retransmit", || {
            RetransmitSystem::new(RetransmitSpec::default())
        });
        assert!(
            run.verified(),
            "exhaustive pass expected, got {:?}",
            run.violation
        );
        assert!(run.schedules > 50, "fault timings should be non-trivial");
    }

    #[test]
    fn dropped_dedup_check_applies_a_stale_frame() {
        let spec = RetransmitSpec {
            skip_dedup: true,
            ..RetransmitSpec::default()
        };
        let run = Explorer::default()
            .explore("retransmit-defect", || RetransmitSystem::new(spec.clone()));
        let v = run.violation.expect("skip_dedup must be caught");
        assert!(v.message.contains("stale"), "{}", v.message);
        let mut sys = RetransmitSystem::new(spec);
        let replayed = replay(&mut sys, &v.schedule).expect_err("replay must reproduce");
        assert_eq!(replayed.message, v.message);
    }

    #[test]
    fn clean_wire_is_a_two_step_delivery() {
        let run = Explorer::default().explore("retransmit-clean", || {
            RetransmitSystem::new(RetransmitSpec {
                corrupt: false,
                drop: false,
                duplicate: false,
                reorder: false,
                skip_dedup: false,
            })
        });
        assert!(run.verified());
    }
}
