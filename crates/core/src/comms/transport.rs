//! In-memory multi-rank transport: CRC-framed mailboxes with deterministic
//! fault injection, NACK/re-request retries, and dedup-by-sequence.
//!
//! Ranks exchange face buffers through mailboxes, mirroring the
//! point-to-point structure of the MPI halo exchange: a message is addressed
//! by (destination rank, direction `mu`, which ghost zone it fills), and
//! each such box is one lock around its FIFO of frames and the last clean
//! frame sent to it.
//!
//! [`FaultyTransport`] runs the framed protocol over those boxes. Every
//! payload travels inside a [`Frame`] envelope (sequence number, source
//! rank × dim × side, and a CRC-32C from [`crate::crc32c`] over the header
//! and payload bits, which catches every single-bit flip). The checksummed
//! bytes are the 24 header bytes, then every component as its little-endian
//! `f64` bits; an `f64` payload is those bytes in memory, so the CRC runs
//! straight over it ([`Frame::compute_checksum`]). The send path
//! seals the frame once, parks it in its box for retransmission and queues
//! the same shared frame through the seeded [`CommFaultProfile`] injector;
//! only a corrupted or a stale copy is a new frame. The receive path
//! verifies the checksum, discards stale sequence numbers (dedup), and on a
//! missing or corrupt frame NACKs — re-requests the parked frame with
//! capped exponential backoff — until the [`CommRetryPolicy`] budget is
//! exhausted. Rank loss short-circuits every exchange touching the dead
//! rank into [`CommError::RankLost`].
//!
//! With the default (disabled) fault profile the framed path degenerates to
//! exactly-once delivery on first attempt, so the sharded kernels remain
//! bit-identical to their fault-free behaviour.
//!
//! The transport policies differ in how many buffer copies a payload makes
//! on its way into the ghost zone (the "real copy counts" the analytic
//! [`coral_machine::commpolicy::CommPolicy`] model charges for):
//! staged-DMA packs, stages, and unpacks from the frame; zero-copy packs
//! straight into the frame's payload; GPU-Direct skips the mailboxes
//! entirely and the receiver gathers the remote face in place.

use super::fault::{CommError, CommFaultProfile, CommRetryPolicy, WireFault};
use crate::lattice::ND;
use crate::real::Real;
use crate::spinor::Spinor;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Side index of a mailbox: which ghost zone of the destination the message
/// fills.
pub const BOX_FWD: usize = 0;
/// See [`BOX_FWD`].
pub const BOX_BWD: usize = 1;

/// A face buffer: `l5 × face_len` spinors in canonical reduced-lex order.
pub type Payload<R> = Vec<Spinor<R>>;

/// The framed envelope one halo payload travels in.
#[derive(Clone, Debug)]
pub struct Frame<R: Real> {
    /// Exchange sequence number (the kernel's apply counter): the dedup and
    /// staleness key.
    pub seq: u64,
    /// Sending rank.
    pub src: u32,
    /// Partitioned direction.
    pub mu: u8,
    /// Ghost-zone side the payload fills.
    pub side: u8,
    /// CRC-32C over (seq, src, mu, side) and every payload component's bit
    /// pattern.
    pub checksum: u32,
    /// The face buffer.
    pub payload: Payload<R>,
}

/// Spinors widened per stack block when an `f32` payload is checksummed.
const WIDEN_BLOCK: usize = 32;

/// Checksummed bytes per spinor: 24 components, 8 bytes each.
const SPINOR_WIRE_BYTES: usize = 24 * 8;

/// The layout [`Frame::compute_checksum`] reads an `f64` payload's bytes
/// by: a spinor is its 24 components in serialization order, real then
/// imaginary part, spin-major then colour, with no padding.
const _: () = {
    use crate::complex::Complex;
    use std::mem::{offset_of, size_of};
    assert!(size_of::<Spinor<f64>>() == SPINOR_WIRE_BYTES);
    assert!(offset_of!(Complex<f64>, re) == 0 && offset_of!(Complex<f64>, im) == 8);
};

impl<R: Real> Frame<R> {
    /// Seal `payload` into a checksummed frame.
    pub fn new(seq: u64, src: usize, mu: usize, side: usize, payload: Payload<R>) -> Self {
        let mut f = Self {
            seq,
            src: src as u32,
            mu: mu as u8,
            side: side as u8,
            checksum: 0,
            payload,
        };
        f.checksum = f.compute_checksum();
        f
    }

    /// CRC-32C over the header words `seq`, `src`, `mu << 8 | side`, then
    /// every payload component's bits as `to_f64().to_bits()`, real then
    /// imaginary part, spin-major then colour, each word little-endian:
    /// equal to [`crc32c`](crate::crc32c::crc32c) of that byte
    /// serialization. Widening is exact for both supported precisions, so
    /// the checksum is stable under the precision the wire carries. An
    /// `f64` payload on a little-endian target is that serialization in
    /// memory and is checksummed in place; an `f32` payload is widened a
    /// block of spinors at a time into a stack buffer.
    pub fn compute_checksum(&self) -> u32 {
        use crate::crc32c::{crc32c, crc32c_extend};
        let mut header = [0u8; 24];
        let words = [
            self.seq,
            u64::from(self.src),
            (u64::from(self.mu) << 8) | u64::from(self.side),
        ];
        for (out, w) in header.chunks_exact_mut(8).zip(words) {
            out.copy_from_slice(&w.to_le_bytes());
        }
        let crc = crc32c(&header);
        #[cfg(target_endian = "little")]
        if std::any::TypeId::of::<R>() == std::any::TypeId::of::<f64>() {
            let p = &self.payload;
            // SAFETY: `R` is `f64`, so `p` is `p.len()` contiguous
            // `Spinor<f64>`s of 24 `f64`s each in serialization order with
            // no padding (the layout assertion above); any initialised
            // bytes may be read as `u8`, and the view borrows `p`. On a
            // little-endian target an `f64`'s memory image is
            // `to_bits().to_le_bytes()`, the serialization itself.
            let bytes = unsafe {
                std::slice::from_raw_parts(p.as_ptr().cast::<u8>(), std::mem::size_of_val(&p[..]))
            };
            return crc32c_extend(crc, bytes);
        }
        self.payload.chunks(WIDEN_BLOCK).fold(crc, |crc, block| {
            let mut wide = [0u8; WIDEN_BLOCK * SPINOR_WIRE_BYTES];
            let parts = block
                .iter()
                .flat_map(|sp| sp.s.iter().flat_map(|cv| cv.c.iter()))
                .flat_map(|z| [z.re, z.im]);
            for (w, part) in wide.chunks_exact_mut(8).zip(parts) {
                w.copy_from_slice(&part.to_f64().to_bits().to_le_bytes());
            }
            crc32c_extend(crc, &wide[..block.len() * SPINOR_WIRE_BYTES])
        })
    }

    /// Whether the payload still matches the checksum sealed at send time.
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }
}

/// Cumulative fault-injection and recovery counts of one transport, the
/// source of the `comms.retries` / `comms.crc_failures` / `comms.timeouts`
/// obs metrics. Injection counts say what the (simulated) wire did;
/// recovery counts say what the receive path observed and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommFaultStats {
    /// Frames delivered with a flipped payload bit.
    pub injected_corruptions: u64,
    /// Frames never delivered on an attempt.
    pub injected_drops: u64,
    /// Frames delivered twice.
    pub injected_duplicates: u64,
    /// Stale frames delivered ahead of the real one.
    pub injected_reorders: u64,
    /// Frames held back past one receiver timeout.
    pub injected_delays: u64,
    /// Checksum verification failures on the receive path.
    pub crc_failures: u64,
    /// Receive attempts that found an empty box (drop, delay, or loss).
    pub timeouts: u64,
    /// NACK/re-request rounds (each pays one backoff).
    pub retries: u64,
    /// Frames discarded by sequence-number dedup.
    pub duplicates_dropped: u64,
    /// Simulated seconds spent in retry backoff and latency spikes — the
    /// recovery-latency numerator of the chaos sweep.
    pub backoff_seconds: f64,
}

impl CommFaultStats {
    /// Field-wise difference of two cumulative snapshots (`self − base`),
    /// the per-apply delta the kernel publishes.
    pub fn delta(&self, base: &CommFaultStats) -> CommFaultStats {
        CommFaultStats {
            injected_corruptions: self.injected_corruptions - base.injected_corruptions,
            injected_drops: self.injected_drops - base.injected_drops,
            injected_duplicates: self.injected_duplicates - base.injected_duplicates,
            injected_reorders: self.injected_reorders - base.injected_reorders,
            injected_delays: self.injected_delays - base.injected_delays,
            crc_failures: self.crc_failures - base.crc_failures,
            timeouts: self.timeouts - base.timeouts,
            retries: self.retries - base.retries,
            duplicates_dropped: self.duplicates_dropped - base.duplicates_dropped,
            backoff_seconds: self.backoff_seconds - base.backoff_seconds,
        }
    }
}

/// Atomic accumulator behind [`CommFaultStats`] (the receive path runs
/// inside the rank-parallel unpack loop).
#[derive(Default)]
struct FaultCounters {
    injected_corruptions: AtomicU64,
    injected_drops: AtomicU64,
    injected_duplicates: AtomicU64,
    injected_reorders: AtomicU64,
    injected_delays: AtomicU64,
    crc_failures: AtomicU64,
    timeouts: AtomicU64,
    retries: AtomicU64,
    duplicates_dropped: AtomicU64,
    /// Backoff in femtoseconds to keep the accumulator atomic; converted on
    /// read. (Deterministic: integer addition commutes.)
    backoff_femtos: AtomicU64,
}

const FEMTO: f64 = 1e15;

impl FaultCounters {
    fn snapshot(&self) -> CommFaultStats {
        CommFaultStats {
            injected_corruptions: self.injected_corruptions.load(Ordering::Relaxed),
            injected_drops: self.injected_drops.load(Ordering::Relaxed),
            injected_duplicates: self.injected_duplicates.load(Ordering::Relaxed),
            injected_reorders: self.injected_reorders.load(Ordering::Relaxed),
            injected_delays: self.injected_delays.load(Ordering::Relaxed),
            crc_failures: self.crc_failures.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            duplicates_dropped: self.duplicates_dropped.load(Ordering::Relaxed),
            backoff_seconds: self.backoff_femtos.load(Ordering::Relaxed) as f64 / FEMTO,
        }
    }

    fn add_backoff(&self, seconds: f64) {
        self.backoff_femtos
            .fetch_add((seconds * FEMTO).round() as u64, Ordering::Relaxed);
    }
}

/// One `(rank, mu, side)` box: the frames waiting in arrival order, and the
/// last clean frame sent to it, which a NACK retransmits without the sender
/// re-packing.
struct Mailbox<R: Real> {
    queue: VecDeque<Arc<Frame<R>>>,
    parked: Option<Arc<Frame<R>>>,
}

/// The framed, fault-injecting, self-healing transport. See the module docs
/// for the protocol.
pub struct FaultyTransport<R: Real> {
    /// `boxes[dest][mu][side]`, each behind its own lock: a send, a receive
    /// or a NACK holds the lock of its one box only.
    boxes: Vec<[[Mutex<Mailbox<R>>; 2]; ND]>,
    profile: CommFaultProfile,
    retry: CommRetryPolicy,
    counters: FaultCounters,
}

impl<R: Real> FaultyTransport<R> {
    /// A transport for `n_ranks` with fault injection disabled.
    pub fn new(n_ranks: usize) -> Self {
        let mailbox = || {
            Mutex::new(Mailbox {
                queue: VecDeque::new(),
                parked: None,
            })
        };
        Self {
            boxes: (0..n_ranks)
                .map(|_| std::array::from_fn(|_| std::array::from_fn(|_| mailbox())))
                .collect(),
            profile: CommFaultProfile::default(),
            retry: CommRetryPolicy::default(),
            counters: FaultCounters::default(),
        }
    }

    /// Install a fault profile and retry policy.
    pub fn set_faults(&mut self, profile: CommFaultProfile, retry: CommRetryPolicy) {
        self.profile = profile;
        self.retry = retry;
    }

    /// The active fault profile.
    pub fn profile(&self) -> &CommFaultProfile {
        &self.profile
    }

    /// Cumulative injection/recovery statistics.
    pub fn fault_stats(&self) -> CommFaultStats {
        self.counters.snapshot()
    }

    /// Whether `rank` is alive at sequence number `seq`.
    pub fn rank_alive(&self, rank: usize, seq: u64) -> bool {
        !self.profile.rank_dead(rank, seq)
    }

    /// Frame one face buffer from `src` to `(dest, mu, side)` under sequence
    /// number `seq`, park it in the box for retransmission, and run the
    /// first transmission attempt through the injector.
    pub fn send(
        &self,
        src: usize,
        dest: usize,
        mu: usize,
        side: usize,
        payload: Payload<R>,
        seq: u64,
    ) -> Result<(), CommError> {
        if self.profile.rank_dead(src, seq) {
            return Err(CommError::RankLost { rank: src });
        }
        if self.profile.rank_dead(dest, seq) {
            return Err(CommError::RankLost { rank: dest });
        }
        let frame = Arc::new(Frame::new(seq, src, mu, side, payload));
        let mut mailbox = self.boxes[dest][mu][side].lock();
        mailbox.parked = Some(Arc::clone(&frame));
        self.transmit(&mut mailbox, dest, &frame, 0);
        Ok(())
    }

    /// One transmission attempt of `frame` into its box at `dest`: consult
    /// the injector, then queue the frame (or not) accordingly.
    /// Retransmissions redraw with their attempt index.
    fn transmit(&self, mailbox: &mut Mailbox<R>, dest: usize, frame: &Arc<Frame<R>>, attempt: u64) {
        let (mu, side) = (usize::from(frame.mu), usize::from(frame.side));
        let c = &self.counters;
        let queue = &mut mailbox.queue;
        match self.profile.draw(dest, mu, side, frame.seq, attempt) {
            WireFault::Clean => queue.push_back(Arc::clone(frame)),
            WireFault::Corrupt => {
                c.injected_corruptions.fetch_add(1, Ordering::Relaxed);
                let mut bad = Frame::clone(frame);
                if !bad.payload.is_empty() {
                    // Flip one mantissa bit of a deterministically chosen
                    // component; the sealed checksum no longer matches.
                    let bits = self
                        .profile
                        .decision_bits(dest, mu, side, frame.seq, attempt);
                    let k = (bits as usize) % bad.payload.len();
                    let z = &mut bad.payload[k].s[0].c[0];
                    z.re = R::from_f64(f64::from_bits(z.re.to_f64().to_bits() ^ (1 << 17)));
                }
                queue.push_back(Arc::new(bad));
            }
            WireFault::Drop => {
                c.injected_drops.fetch_add(1, Ordering::Relaxed);
            }
            WireFault::Duplicate => {
                c.injected_duplicates.fetch_add(1, Ordering::Relaxed);
                queue.push_back(Arc::clone(frame));
                queue.push_back(Arc::clone(frame));
            }
            WireFault::Reorder => {
                c.injected_reorders.fetch_add(1, Ordering::Relaxed);
                // An old packet finally arrives just ahead of the real one:
                // a stale-sequence frame with a valid checksum, which the
                // receiver must discard by seq alone.
                let mut stale = Frame::clone(frame);
                stale.seq = frame.seq.wrapping_sub(1);
                stale.checksum = stale.compute_checksum();
                queue.push_back(Arc::new(stale));
                queue.push_back(Arc::clone(frame));
            }
            WireFault::Delay => {
                c.injected_delays.fetch_add(1, Ordering::Relaxed);
                // Held back past one receiver timeout: not queued now; the
                // re-request serves it from the parked frame.
            }
        }
    }

    /// Receive the frame for `(rank, mu, side)` at sequence number `seq`,
    /// sent by `src`: verify the checksum, dedup stale frames, and on a
    /// missing or corrupt frame NACK — charge the backoff and retransmit
    /// the box's parked frame, redrawing its fate with the new attempt
    /// index — until the retry budget is spent. The frame is handed back
    /// shared, so the caller unpacks its payload in place.
    pub fn recv(
        &self,
        rank: usize,
        mu: usize,
        side: usize,
        src: usize,
        seq: u64,
        expected_len: usize,
    ) -> Result<Arc<Frame<R>>, CommError> {
        if self.profile.rank_dead(rank, seq) {
            return Err(CommError::RankLost { rank });
        }
        if self.profile.rank_dead(src, seq) {
            return Err(CommError::RankLost { rank: src });
        }
        let c = &self.counters;
        let mut mailbox = self.boxes[rank][mu][side].lock();
        let mut attempts = 1usize; // the original transmission
        let mut saw_corrupt = false;
        loop {
            match mailbox.queue.pop_front() {
                // Stale duplicate or reordered leftover — discard by
                // sequence number without burning a retry.
                Some(frame) if frame.seq != seq => {
                    c.duplicates_dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                Some(frame) if !frame.verify() => {
                    saw_corrupt = true;
                    c.crc_failures.fetch_add(1, Ordering::Relaxed);
                }
                Some(frame) if frame.payload.len() != expected_len => {
                    return Err(CommError::SizeMismatch { rank, mu, side });
                }
                Some(frame) => return Ok(frame),
                None => {
                    c.timeouts.fetch_add(1, Ordering::Relaxed);
                }
            }
            if attempts >= self.retry.max_attempts {
                return Err(if saw_corrupt {
                    CommError::Corrupt {
                        rank,
                        mu,
                        side,
                        attempts,
                    }
                } else {
                    CommError::Missing {
                        rank,
                        mu,
                        side,
                        attempts,
                    }
                });
            }
            c.retries.fetch_add(1, Ordering::Relaxed);
            c.add_backoff(self.retry.backoff_seconds(attempts) + self.profile.delay_seconds);
            let attempt = attempts as u64;
            attempts += 1;
            // Nothing current parked: the next look finds the box empty
            // again and the budget runs down to a typed Missing.
            if let Some(parked) = mailbox.parked.clone().filter(|f| f.seq == seq) {
                self.transmit(&mut mailbox, rank, &parked, attempt);
            }
        }
    }
}

/// Cumulative execution statistics of a sharded kernel, for
/// measured-vs-analytic cross-checks and obs metrics. All fields except the
/// overlap window are deterministic functions of (geometry, policy, applies)
/// and are asserted against actual pack/unpack event counts on every
/// successful apply.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CommStats {
    /// Operator applications executed.
    pub applies: u64,
    /// Logical neighbor messages (two per partitioned direction per rank per
    /// apply, for every transport — GPU-Direct still *exchanges*, it just
    /// does not stage).
    pub messages: u64,
    /// 5D halo spinors delivered into ghost zones.
    pub halo_sites: u64,
    /// Bytes written into intermediate send-side buffers (staged-DMA copies
    /// twice before the wire, zero-copy once, GPU-Direct none).
    pub bytes_packed: u64,
    /// Payload bytes delivered across rank boundaries.
    pub bytes_sent: u64,
    /// Total buffer copies including the ghost-zone unpack (3, 2, or 1 per
    /// message by transport).
    pub copies: u64,
    /// 5D site updates computed inside the overlap window (fine granularity
    /// only).
    pub sites_interior: u64,
    /// 5D site updates computed after halo arrival.
    pub sites_boundary: u64,
    /// Measured interior-compute time between posting sends and the first
    /// unpack — the communication/computation overlap window.
    pub overlap_seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(vals: &[f64]) -> Payload<f64> {
        vals.iter()
            .map(|&v| {
                let mut s = Spinor::<f64>::zero();
                s.s[0].c[0].re = v;
                s
            })
            .collect()
    }

    /// A 3-spinor frame with every component distinct and nonzero.
    fn dense_frame() -> Frame<f64> {
        let mut p = payload(&[0.0; 3]);
        for (i, sp) in p.iter_mut().enumerate() {
            for (j, z) in sp.s.iter_mut().flat_map(|cv| cv.c.iter_mut()).enumerate() {
                z.re = (i * 12 + j) as f64 + 0.5;
                z.im = -((i * 12 + j) as f64) * 1.25 - 1e-3;
            }
        }
        Frame::new(0x0123_4567_89AB_CDEF, 5, 3, BOX_BWD, p)
    }

    /// The checksummed serialization of `f`, built independently of
    /// [`Frame::compute_checksum`]: the three header words, then every
    /// component widened to `f64`, each word little-endian.
    fn wire_bytes<R: Real>(f: &Frame<R>) -> Vec<u8> {
        let mut bytes = Vec::new();
        let side = (u64::from(f.mu) << 8) | u64::from(f.side);
        for w in [f.seq, u64::from(f.src), side] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for sp in &f.payload {
            for z in sp.s.iter().flat_map(|cv| cv.c.iter()) {
                bytes.extend_from_slice(&z.re.to_f64().to_bits().to_le_bytes());
                bytes.extend_from_slice(&z.im.to_f64().to_bits().to_le_bytes());
            }
        }
        assert_eq!(bytes.len(), (3 + 24 * f.payload.len()) * 8);
        bytes
    }

    /// `n` spinors whose components cycle through `specials`.
    fn special_payload<R: Real>(specials: &[R], n: usize) -> Payload<R> {
        (0..n)
            .map(|i| {
                let mut sp = Spinor::<R>::zero();
                for (k, z) in sp.s.iter_mut().flat_map(|cv| cv.c.iter_mut()).enumerate() {
                    z.re = specials[(i + 2 * k) % specials.len()];
                    z.im = specials[(i + 2 * k + 1) % specials.len()];
                }
                sp
            })
            .collect()
    }

    #[test]
    fn frame_checksum_is_crc32c_of_the_little_endian_words() {
        let f = dense_frame();
        assert_eq!(f.checksum, crate::crc32c::crc32c(&wire_bytes(&f)));
        assert!(f.verify());
        // f32 components are widened exactly, so the same values hash alike.
        let narrow: Payload<f32> = f.payload.iter().map(|sp| sp.cast()).collect();
        let g = Frame::new(f.seq, 5, 3, BOX_BWD, narrow);
        let wide: Payload<f64> = g.payload.iter().map(|sp| sp.cast()).collect();
        assert_eq!(g.checksum, Frame::new(f.seq, 5, 3, BOX_BWD, wide).checksum);
        assert_eq!(g.checksum, crate::crc32c::crc32c(&wire_bytes(&g)));

        // Values whose bits a numeric path would fold together: −0 and +0,
        // subnormals, ±∞, and NaNs with payloads and either sign, in every
        // component slot, on payloads that cross the f32 widening block
        // and the CRC's three-way block lengths.
        let specials64 = [
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 4.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7FF8_0000_0000_0ABC),
            f64::from_bits(0xFFF0_0000_DEAD_BEEF),
        ];
        let specials32 = [
            -0.0,
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 4.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7FC0_0ABC),
            f32::from_bits(0xFF80_BEEF),
        ];
        for n in [
            1,
            5,
            WIDEN_BLOCK - 1,
            WIDEN_BLOCK,
            WIDEN_BLOCK + 1,
            129,
            300,
        ] {
            let seq = 7 + n as u64;
            let f = Frame::new(seq, 2, 1, BOX_FWD, special_payload(&specials64, n));
            assert_eq!(
                f.checksum,
                crate::crc32c::crc32c(&wire_bytes(&f)),
                "f64, {n}"
            );
            assert!(f.verify(), "f64, {n}");
            let g = Frame::new(seq, 2, 1, BOX_FWD, special_payload(&specials32, n));
            assert_eq!(
                g.checksum,
                crate::crc32c::crc32c(&wire_bytes(&g)),
                "f32, {n}"
            );
            assert!(g.verify(), "f32, {n}");
        }
        // −0 and +0 compare equal but do not checksum alike.
        let plus = Frame::new(1, 0, 0, BOX_FWD, payload(&[0.0]));
        let minus = Frame::new(1, 0, 0, BOX_FWD, payload(&[-0.0]));
        assert_ne!(plus.checksum, minus.checksum);
    }

    #[test]
    fn frame_checksum_catches_any_component_flip() {
        let f = dense_frame();
        assert!(f.verify());
        let mut flips = 0;
        for i in 0..f.payload.len() {
            for k in 0..24 {
                for bit in 0..64 {
                    let mut bad = f.clone();
                    let z = &mut bad.payload[i].s[k / 6].c[k % 6 / 2];
                    let part = if k % 2 == 0 { &mut z.re } else { &mut z.im };
                    *part = f64::from_bits(part.to_bits() ^ (1 << bit));
                    assert!(!bad.verify(), "spinor {i} word {k} bit {bit} undetected");
                    flips += 1;
                }
            }
        }
        assert_eq!(flips, 4608);
        let tampered: [fn(&mut Frame<f64>); 4] = [
            |g| g.seq += 1,
            |g| g.src ^= 1,
            |g| g.mu ^= 1,
            |g| g.side ^= 1,
        ];
        for (field, tamper) in ["seq", "src", "mu", "side"].iter().zip(tampered) {
            let mut bad = f.clone();
            tamper(&mut bad);
            assert!(!bad.verify(), "{field} tamper must fail verification");
        }
    }

    #[test]
    fn clean_transport_delivers_exactly_once() {
        let t: FaultyTransport<f64> = FaultyTransport::new(2);
        t.send(0, 1, 2, BOX_FWD, payload(&[4.0, 5.0]), 0).unwrap();
        let got = t.recv(1, 2, BOX_FWD, 0, 0, 2).unwrap();
        assert_eq!(got.payload, payload(&[4.0, 5.0]));
        assert_eq!(t.fault_stats(), CommFaultStats::default());
    }

    #[test]
    fn corruption_is_detected_and_healed_by_retransmit() {
        let mut t: FaultyTransport<f64> = FaultyTransport::new(2);
        // Find a seed whose first attempt corrupts and second is clean.
        let seed = (0..5000u64)
            .find(|&s| {
                let p = CommFaultProfile {
                    corrupt_prob: 0.5,
                    seed: s,
                    ..CommFaultProfile::default()
                };
                p.draw(1, 0, BOX_FWD, 0, 0) == WireFault::Corrupt
                    && p.draw(1, 0, BOX_FWD, 0, 1) == WireFault::Clean
            })
            .expect("seed exists");
        t.set_faults(
            CommFaultProfile {
                corrupt_prob: 0.5,
                seed,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy::default(),
        );
        let want = payload(&[1.0, 2.0, 3.0]);
        t.send(0, 1, 0, BOX_FWD, want.clone(), 0).unwrap();
        let got = t.recv(1, 0, BOX_FWD, 0, 0, 3).unwrap();
        assert_eq!(got.payload, want, "recovered payload must be the clean one");
        let s = t.fault_stats();
        assert_eq!(s.injected_corruptions, 1);
        assert_eq!(s.crc_failures, 1);
        assert_eq!(s.retries, 1);
        assert!(s.backoff_seconds > 0.0);
    }

    #[test]
    fn persistent_corruption_exhausts_retries_typed() {
        let mut t: FaultyTransport<f64> = FaultyTransport::new(2);
        t.set_faults(
            CommFaultProfile {
                corrupt_prob: 1.0,
                seed: 11,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy {
                max_attempts: 3,
                ..CommRetryPolicy::default()
            },
        );
        t.send(0, 1, 0, BOX_FWD, payload(&[9.0]), 0).unwrap();
        match t.recv(1, 0, BOX_FWD, 0, 0, 1) {
            Err(CommError::Corrupt { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("want Corrupt after retry exhaustion, got {other:?}"),
        }
        assert_eq!(t.fault_stats().crc_failures, 3);
    }

    #[test]
    fn total_drop_exhausts_retries_as_missing() {
        let mut t: FaultyTransport<f64> = FaultyTransport::new(2);
        t.set_faults(
            CommFaultProfile {
                drop_prob: 1.0,
                seed: 13,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy {
                max_attempts: 4,
                ..CommRetryPolicy::default()
            },
        );
        t.send(0, 1, 1, BOX_BWD, payload(&[1.0]), 5).unwrap();
        match t.recv(1, 1, BOX_BWD, 0, 5, 1) {
            Err(CommError::Missing { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("want Missing, got {other:?}"),
        }
        let s = t.fault_stats();
        assert_eq!(s.injected_drops, 4, "initial + 3 retransmissions");
        assert_eq!(s.timeouts, 4);
    }

    #[test]
    fn duplicates_and_reorders_are_deduped_by_seq() {
        let mut t: FaultyTransport<f64> = FaultyTransport::new(2);
        t.set_faults(
            CommFaultProfile {
                duplicate_prob: 1.0,
                seed: 17,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy::default(),
        );
        let want = payload(&[6.0, 7.0]);
        t.send(0, 1, 0, BOX_FWD, want.clone(), 0).unwrap();
        assert_eq!(t.recv(1, 0, BOX_FWD, 0, 0, 2).unwrap().payload, want);
        // The duplicate is still in the box; the next exchange discards it
        // by stale seq and receives its own frame.
        let want2 = payload(&[8.0]);
        t.send(0, 1, 0, BOX_FWD, want2.clone(), 1).unwrap();
        assert_eq!(t.recv(1, 0, BOX_FWD, 0, 1, 1).unwrap().payload, want2);
        assert!(t.fault_stats().duplicates_dropped >= 1);

        let mut t2: FaultyTransport<f64> = FaultyTransport::new(2);
        t2.set_faults(
            CommFaultProfile {
                reorder_prob: 1.0,
                seed: 19,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy::default(),
        );
        let want3 = payload(&[1.5]);
        t2.send(0, 1, 0, BOX_FWD, want3.clone(), 4).unwrap();
        assert_eq!(t2.recv(1, 0, BOX_FWD, 0, 4, 1).unwrap().payload, want3);
        let s2 = t2.fault_stats();
        assert_eq!(s2.injected_reorders, 1);
        assert_eq!(s2.duplicates_dropped, 1, "the stale frame was discarded");
    }

    #[test]
    fn delay_costs_one_timeout_then_recovers() {
        let mut t: FaultyTransport<f64> = FaultyTransport::new(2);
        // delay on attempt 0; find a seed where attempt 1 is clean.
        let seed = (0..5000u64)
            .find(|&s| {
                let p = CommFaultProfile {
                    delay_prob: 0.5,
                    seed: s,
                    ..CommFaultProfile::default()
                };
                p.draw(1, 0, BOX_FWD, 0, 0) == WireFault::Delay
                    && p.draw(1, 0, BOX_FWD, 0, 1) == WireFault::Clean
            })
            .expect("seed exists");
        t.set_faults(
            CommFaultProfile {
                delay_prob: 0.5,
                delay_seconds: 1e-3,
                seed,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy::default(),
        );
        let want = payload(&[2.0]);
        t.send(0, 1, 0, BOX_FWD, want.clone(), 0).unwrap();
        assert_eq!(t.recv(1, 0, BOX_FWD, 0, 0, 1).unwrap().payload, want);
        let s = t.fault_stats();
        assert_eq!(s.injected_delays, 1);
        assert_eq!(s.timeouts, 1);
        assert!(s.backoff_seconds >= 1e-3, "latency spike charged");
    }

    #[test]
    fn rank_loss_surfaces_on_both_sides() {
        let mut t: FaultyTransport<f64> = FaultyTransport::new(4);
        t.set_faults(
            CommFaultProfile {
                lost_rank: Some(2),
                lost_at_apply: 3,
                ..CommFaultProfile::default()
            },
            CommRetryPolicy::default(),
        );
        // Before the death apply everything works.
        t.send(2, 1, 0, BOX_FWD, payload(&[1.0]), 2).unwrap();
        assert!(t.recv(1, 0, BOX_FWD, 2, 2, 1).is_ok());
        // From the death apply on: typed RankLost from all four directions.
        assert_eq!(
            t.send(2, 1, 0, BOX_FWD, payload(&[1.0]), 3),
            Err(CommError::RankLost { rank: 2 })
        );
        assert_eq!(
            t.send(1, 2, 0, BOX_FWD, payload(&[1.0]), 3),
            Err(CommError::RankLost { rank: 2 })
        );
        assert_eq!(
            t.recv(1, 0, BOX_FWD, 2, 3, 1).err(),
            Some(CommError::RankLost { rank: 2 })
        );
        assert_eq!(
            t.recv(2, 0, BOX_FWD, 1, 3, 1).err(),
            Some(CommError::RankLost { rank: 2 })
        );
    }
}
