//! The sharded halo-exchange dslash: the communication policies *executed*,
//! not just modeled.
//!
//! [`ShardedHopping`] runs the Wilson hopping stencil over a
//! [`DomainDecomposition`], exchanging face buffers between ranks through
//! the in-memory [`Mailboxes`] transport. Each rank's field lives in the
//! domain's extended index space, ghosts after locals, and every local
//! site's `L5 × nrhs` spinors go through the single-domain sweep's own lane
//! row, with ghost spinors and gauge links gathered bit-exactly from the
//! global field — so the output is bit-identical to the single-domain kernel
//! at any rank grid, thread width, precision, and RHS block size. Batched
//! ([`ShardedField::zeros_block`]) fields carry all N right-hand-sides in
//! each halo frame: the message *count* is that of a single solve, frames
//! just grow N× fatter. [`ShardedMobius`] runs [`MobiusDirac`]'s one
//! composition around this hop.
//!
//! The [`CommPolicy`] knobs change execution, not just a cost formula:
//!
//! - `Coarse` exchanges every direction, unpacks everything, then runs one
//!   fused pass over all sites (no overlap window).
//! - `Fine` posts all sends, computes the interior while messages are "in
//!   flight" (the measured overlap window), then pipelines per direction:
//!   unpack `mu`, compute the sites whose last missing ghosts were `mu`'s.
//! - `StagedDma` copies pack → staging → wire → ghost (3 copies/message),
//!   `ZeroCopy` packs straight into the wire buffer (2), and `GdrDirect`
//!   skips the channel: the receiver gathers the remote face in place (1).
//!
//! Every apply cross-checks its actual pack/unpack event counts against the
//! analytic expectation (exactly-once delivery) and accumulates
//! [`CommStats`], published to the `obs` registry as `comms.*` metrics.
//!
//! Halo messages travel through the CRC-framed [`FaultyTransport`], so
//! `apply` is fallible: with the (default) disabled fault profile every
//! exchange succeeds on the first attempt and results are bit-identical to
//! the fault-free kernel; with faults injected, recovered exchanges are
//! still bit-exact (the retransmit path redelivers the clean frame) and
//! unrecoverable ones surface as typed [`CommError`]s for the solver's
//! checkpoint-restart machinery ([`crate::solver::cg_ft`]). Injection and
//! recovery tallies are published post-parallel in a fixed order
//! (`comms.retries`, `comms.crc_failures`, `comms.timeouts`, plus
//! `comms.fault_injected`/`comms.crc_reject`/`comms.retry`/`comms.timeout`
//! events), so obs timelines are deterministic at any thread width.

use super::domain::{surviving_grid, DomainDecomposition};
use super::fault::{CommError, CommFaultProfile, CommRetryPolicy};
use super::transport::{CommFaultStats, CommStats, FaultyTransport, BOX_BWD, BOX_FWD};
use crate::dirac::{
    lanes, FusedHop, LinearOp, MobiusDirac, MobiusParams, SendPtr, HOPPING_FLOPS_PER_SITE,
};
use crate::field::GaugeLinks;
use crate::lattice::{volume_string, Lattice, ND};
use crate::real::Real;
use crate::simd;
use crate::solver::FallibleOp;
use crate::spinor::Spinor;
use crate::su3::Su3;
use autotune::{ParamSpace, TimingHarness, Tunable, TuneKey, TuneParam, Tuner};
use coral_machine::commpolicy::{CommGranularity, CommPolicy, CommTransport};
use obs::{Clock, Json, Registry, WallClock};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A 5D fermion vector — or an interleaved multi-RHS block of them —
/// sharded over the ranks of a decomposition. Each rank stores its slice of
/// the vector in the domain's *extended* index space: local sites first,
/// then the ghost slots each halo exchange refreshes, s-major and
/// RHS-innermost like [`crate::block::BlockSpinor`]. That is the index
/// space of [`super::domain::RankDomain::neighbors`] and the kernel's link
/// tables, so a neighbor index addresses the storage directly. With
/// `nrhs > 1` every halo frame carries all columns of each face site, so N
/// right-hand-sides ride one exchange's worth of messages.
#[derive(Clone, Debug)]
pub struct ShardedField<R: Real> {
    l5: usize,
    nrhs: usize,
    v_loc: usize,
    /// Extended sites per slice: `v_loc` locals, then the ghost slots.
    v_ext: usize,
    /// Rank `r`'s spinor at extended site `e`, slice `s`, column `j` is
    /// `data[r·rank_len + (s·v_ext + e)·nrhs + j]`, `rank_len =
    /// l5·v_ext·nrhs`: one allocation holding one block per rank, so a
    /// GPU-Direct delivery can read a neighbor's local rows through the same
    /// pointer it writes its own ghost rows with.
    data: Vec<Spinor<R>>,
}

impl<R: Real> ShardedField<R> {
    /// All-zero field over `domain` with `l5` fifth-dimension slices.
    pub fn zeros(domain: &DomainDecomposition, l5: usize) -> Self {
        Self::zeros_block(domain, l5, 1)
    }

    /// All-zero `nrhs`-column block over `domain`.
    pub fn zeros_block(domain: &DomainDecomposition, l5: usize, nrhs: usize) -> Self {
        assert!(nrhs > 0, "a sharded block needs at least one column");
        let v_loc = domain.local_volume();
        let v_ext = v_loc + domain.ghost_len();
        Self {
            l5,
            nrhs,
            v_loc,
            v_ext,
            data: vec![Spinor::zero(); domain.n_ranks() * l5 * v_ext * nrhs],
        }
    }

    /// Shard a global s-major 5D vector (`l5 × volume` spinors) onto ranks.
    pub fn scatter(domain: &DomainDecomposition, global: &[Spinor<R>], l5: usize) -> Self {
        Self::scatter_block(domain, global, l5, 1)
    }

    /// Shard a global s-major, RHS-innermost block
    /// (`l5 × volume × nrhs` spinors, `global[(s*V + x)*nrhs + j]`).
    pub fn scatter_block(
        domain: &DomainDecomposition,
        global: &[Spinor<R>],
        l5: usize,
        nrhs: usize,
    ) -> Self {
        let mut f = Self::zeros_block(domain, l5, nrhs);
        f.scatter_mapped(domain, global, &|psi| psi);
        f
    }

    /// Spinors per rank block.
    fn rank_len(&self) -> usize {
        self.l5 * self.v_ext * self.nrhs
    }

    /// Every local row of the field against a global vector of `global_len`
    /// spinors: the global index and the `data` index where the `nrhs`
    /// spinors of one (rank, slice, local site) start.
    fn rows<'d>(
        &self,
        domain: &'d DomainDecomposition,
        global_len: usize,
    ) -> impl Iterator<Item = (usize, usize)> + 'd {
        let (l5, nrhs, v_loc, v_ext) = (self.l5, self.nrhs, self.v_loc, self.v_ext);
        let v = domain.lattice().volume();
        assert_eq!(global_len, l5 * v * nrhs, "global vector length mismatch");
        assert_eq!(v_loc, domain.local_volume(), "field/domain mismatch");
        domain
            .ranks()
            .iter()
            .enumerate()
            .flat_map(move |(r, rank)| {
                (0..l5).flat_map(move |s| {
                    let sites = rank.local_to_global[..v_loc].iter().enumerate();
                    sites.map(move |(lx, &g)| {
                        let ext = (r * l5 + s) * v_ext + lx;
                        ((s * v + g as usize) * nrhs, ext * nrhs)
                    })
                })
            })
    }

    /// Overwrite the rank locals, in place, with `load` of each spinor of a
    /// global s-major, RHS-innermost block of this field's shape. The ghosts
    /// keep whatever they held until the next exchange refreshes them.
    fn scatter_mapped(
        &mut self,
        domain: &DomainDecomposition,
        global: &[Spinor<R>],
        load: &impl Fn(Spinor<R>) -> Spinor<R>,
    ) {
        let nrhs = self.nrhs;
        for (g, l) in self.rows(domain, global.len()) {
            let row = &mut self.data[l..l + nrhs];
            for (o, &psi) in row.iter_mut().zip(&global[g..g + nrhs]) {
                *o = load(psi);
            }
        }
    }

    /// Reassemble the global s-major (RHS-innermost) vector from the rank
    /// locals.
    pub fn gather_into(&self, domain: &DomainDecomposition, global: &mut [Spinor<R>]) {
        self.gather_mapped(domain, global, &|_, h| h);
    }

    /// [`Self::gather_into`] storing `finish(i, h)` at global index `i`
    /// instead of the rank's spinor `h`.
    fn gather_mapped(
        &self,
        domain: &DomainDecomposition,
        global: &mut [Spinor<R>],
        finish: &impl Fn(usize, Spinor<R>) -> Spinor<R>,
    ) {
        let nrhs = self.nrhs;
        for (g, l) in self.rows(domain, global.len()) {
            let row = &self.data[l..l + nrhs];
            for (j, (o, &h)) in global[g..g + nrhs].iter_mut().zip(row).enumerate() {
                *o = finish(g + j, h);
            }
        }
    }

    /// Fifth-dimension extent.
    pub fn l5(&self) -> usize {
        self.l5
    }

    /// Number of interleaved right-hand-side columns.
    pub fn nrhs(&self) -> usize {
        self.nrhs
    }
}

/// The decomposed hopping kernel.
pub struct ShardedHopping<R: Real> {
    domain: Arc<DomainDecomposition>,
    /// Per rank: gauge links over the *extended* index space,
    /// `links[r][e * ND + mu]`, gathered from the global field at
    /// construction (bit-identical to single-domain link fetches, including
    /// half-precision decode).
    links: Vec<Vec<Su3<R>>>,
    antiperiodic_t: bool,
    policy: CommPolicy,
    transport: FaultyTransport<R>,
    clock: Arc<dyn Clock>,
    stats: CommStats,
    /// Exchange sequence number: incremented on every apply *attempt*
    /// (successful or not), so frames stranded by a failed apply are stale
    /// by sequence number and deduped, never unpacked, on later applies.
    seq: u64,
    /// Transport fault-stat snapshot at the end of the previous apply, for
    /// per-apply delta publication.
    fault_base: CommFaultStats,
}

impl<R: Real> ShardedHopping<R> {
    /// Bind the kernel to a decomposition and gauge field under `policy`.
    pub fn new(
        domain: Arc<DomainDecomposition>,
        gauge: &impl GaugeLinks<R>,
        antiperiodic_t: bool,
        policy: CommPolicy,
    ) -> Self {
        assert_eq!(
            gauge.volume(),
            domain.lattice().volume(),
            "gauge/lattice mismatch"
        );
        let links = domain
            .ranks()
            .iter()
            .map(|rank| {
                let mut tbl = Vec::with_capacity(rank.local_to_global.len() * ND);
                for &g in &rank.local_to_global {
                    for mu in 0..ND {
                        tbl.push(gauge.link(g as usize, mu));
                    }
                }
                tbl
            })
            .collect();
        let transport = FaultyTransport::new(domain.n_ranks());
        Self {
            domain,
            links,
            antiperiodic_t,
            policy,
            transport,
            clock: Arc::new(WallClock::new()),
            stats: CommStats::default(),
            seq: 0,
            fault_base: CommFaultStats::default(),
        }
    }

    /// The decomposition.
    pub fn domain(&self) -> &Arc<DomainDecomposition> {
        &self.domain
    }

    /// Current communication policy.
    pub fn policy(&self) -> CommPolicy {
        self.policy
    }

    /// Switch communication policy (the autotuner's knob).
    pub fn set_policy(&mut self, policy: CommPolicy) {
        self.policy = policy;
    }

    /// Inject a time source for the overlap-window measurement (tests use
    /// `obs::ManualClock`).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.clock = clock;
    }

    /// Cumulative execution statistics.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Install a message-fault profile and retry policy on the transport.
    pub fn set_fault_profile(&mut self, profile: CommFaultProfile, retry: CommRetryPolicy) {
        self.transport.set_faults(profile, retry);
    }

    /// The transport's active fault profile.
    pub fn fault_profile(&self) -> &CommFaultProfile {
        self.transport.profile()
    }

    /// Cumulative transport injection/recovery statistics.
    pub fn fault_stats(&self) -> CommFaultStats {
        self.transport.fault_stats()
    }

    /// Send-side copies into intermediate buffers per message (before the
    /// wire) and total copies per message including the ghost unpack.
    fn copy_profile(&self) -> (u64, u64) {
        match self.policy.transport {
            CommTransport::StagedDma => (2, 3),
            CommTransport::ZeroCopy => (1, 2),
            CommTransport::GdrDirect => (0, 1),
        }
    }

    /// Pack and post both faces of partitioned direction `k` for every rank.
    /// No-op for GPU-Direct (the receiver gathers in [`Self::deliver_dim`]).
    ///
    /// Every rank attempts both its posts regardless of other ranks'
    /// failures, so the set of transmissions — and hence the deterministic
    /// injection draws — is independent of thread schedule; the surfaced
    /// error is the canonical minimum over all failures ([`merge_err`]).
    fn send_dim(
        &self,
        inp: &ShardedField<R>,
        k: usize,
        seq: u64,
        packs: &AtomicU64,
    ) -> Result<(), CommError> {
        if self.policy.transport == CommTransport::GdrDirect {
            return Ok(());
        }
        let staged = self.policy.transport == CommTransport::StagedDma;
        let domain = &self.domain;
        let transport = &self.transport;
        let (l5, nrhs, v_ext) = (inp.l5, inp.nrhs, inp.v_ext);
        let rank_len = inp.rank_len();
        let first_err: Mutex<Option<CommError>> = Mutex::new(None);
        rayon::for_each_chunk(domain.n_ranks(), 1, |ranks| {
            for r in ranks {
                let ex = &domain.ranks()[r].exchanges[k];
                let field = &inp.data[r * rank_len..(r + 1) * rank_len];
                let post = |face: &[u32], dest: usize, side: usize| -> Result<(), CommError> {
                    // Batched faces: one frame carries every RHS column of
                    // each face site (columns innermost, like the storage).
                    let mut buf = Vec::with_capacity(l5 * ex.face_len * nrhs);
                    for s in 0..l5 {
                        for &lx in face {
                            let base = (s * v_ext + lx as usize) * nrhs;
                            buf.extend_from_slice(&field[base..base + nrhs]);
                        }
                    }
                    let wire = if staged {
                        // Stage through a second buffer: the DMA-to-CPU copy
                        // the staged transport pays before MPI sees the data.
                        buf.clone()
                    } else {
                        buf
                    };
                    transport.send(r, dest, ex.mu, side, wire, seq)?;
                    packs.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                };
                // Low face backward: fills the backward neighbor's forward
                // ghost zone. High face forward: the converse.
                if let Err(e) = post(&ex.low_face, ex.bwd_rank, BOX_FWD) {
                    merge_err(&first_err, e);
                }
                if let Err(e) = post(&ex.high_face, ex.fwd_rank, BOX_BWD) {
                    merge_err(&first_err, e);
                }
            }
        });
        let taken = first_err.lock().take();
        match taken {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Fill every rank's ghost zones for partitioned direction `k`: receive
    /// and unpack the two expected frames (CRC-verified, retried, deduped by
    /// the transport), or (GPU-Direct) gather the neighbor faces straight
    /// out of their local storage — no wire, so immune to message faults,
    /// but a dead peer still surfaces as [`CommError::RankLost`].
    fn deliver_dim(
        &self,
        inp: &mut ShardedField<R>,
        k: usize,
        seq: u64,
        unpacks: &AtomicU64,
    ) -> Result<(), CommError> {
        let gdr = self.policy.transport == CommTransport::GdrDirect;
        let domain = &self.domain;
        let transport = &self.transport;
        let (l5, nrhs, v_loc, v_ext) = (inp.l5, inp.nrhs, inp.v_loc, inp.v_ext);
        let rank_len = inp.rank_len();
        let first_err: Mutex<Option<CommError>> = Mutex::new(None);
        let data = SendPtr(inp.data.as_mut_ptr());
        rayon::for_each_chunk(domain.n_ranks(), 1, |ranks| {
            for r in ranks {
                let ex = &domain.ranks()[r].exchanges[k];
                // The `nrhs` spinors at ghost slot `base + i` of slice `s`.
                let ghost_row = |s: usize, base: usize, i: usize| {
                    let at = r * rank_len + (s * v_ext + v_loc + base + i) * nrhs;
                    // SAFETY: ghost slot `base + i < ghost_len` lies in rank
                    // `r`'s block, which only this task writes; the other
                    // reads this pass makes are of local rows, disjoint
                    // from every ghost row.
                    unsafe { std::slice::from_raw_parts_mut(data.get().add(at), nrhs) }
                };
                let deliver = || -> Result<(), CommError> {
                    if gdr {
                        for rank in [r, ex.fwd_rank, ex.bwd_rank] {
                            if !transport.rank_alive(rank, seq) {
                                return Err(CommError::RankLost { rank });
                            }
                        }
                        let gather = |src: usize, face: &[u32], base: usize| {
                            for s in 0..l5 {
                                for (i, &lx) in face.iter().enumerate() {
                                    let at = src * rank_len + (s * v_ext + lx as usize) * nrhs;
                                    // SAFETY: a local row of rank `src`; the
                                    // tasks of this pass write ghost rows only.
                                    let row = unsafe {
                                        std::slice::from_raw_parts(data.get().add(at), nrhs)
                                    };
                                    ghost_row(s, base, i).copy_from_slice(row);
                                }
                            }
                            unpacks.fetch_add(1, Ordering::Relaxed);
                        };
                        // Forward ghosts are the forward neighbor's low face.
                        let fwd = &domain.ranks()[ex.fwd_rank].exchanges[k];
                        gather(ex.fwd_rank, &fwd.low_face, ex.fwd_ghost_base);
                        let bwd = &domain.ranks()[ex.bwd_rank].exchanges[k];
                        gather(ex.bwd_rank, &bwd.high_face, ex.bwd_ghost_base);
                        return Ok(());
                    }
                    let unpack = |side: usize, src: usize, base: usize| -> Result<(), CommError> {
                        let buf =
                            transport.recv(r, ex.mu, side, src, seq, l5 * ex.face_len * nrhs)?;
                        for s in 0..l5 {
                            for i in 0..ex.face_len {
                                let from = (s * ex.face_len + i) * nrhs;
                                ghost_row(s, base, i).copy_from_slice(&buf[from..from + nrhs]);
                            }
                        }
                        unpacks.fetch_add(1, Ordering::Relaxed);
                        Ok(())
                    };
                    // Forward ghost zone holds the forward neighbor's low face.
                    unpack(BOX_FWD, ex.fwd_rank, ex.fwd_ghost_base)?;
                    unpack(BOX_BWD, ex.bwd_rank, ex.bwd_ghost_base)
                };
                if let Err(e) = deliver() {
                    merge_err(&first_err, e);
                }
            }
        });
        let taken = first_err.lock().take();
        match taken {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Compute `out = H inp` on a per-rank set of local sites. Each site's
    /// `L5 × nrhs` spinors go through the single-domain sweep's lane row
    /// (`lanes::hop_row`) with its eight links from the rank's table, each
    /// written exactly once, so results are bit-identical to the
    /// single-domain kernel at any thread width and for any site-list
    /// schedule.
    fn compute(&self, out: &mut ShardedField<R>, inp: &ShardedField<R>, which: SiteSet) -> u64 {
        let (l5, nrhs, v_loc) = (inp.l5, inp.nrhs, inp.v_loc);
        let rank_len = inp.rank_len();
        let slice_len = inp.v_ext * nrhs;
        let counted = AtomicU64::new(0);
        rayon::for_each_chunk_mut(&mut out.data, rank_len, |start, o| {
            let r = start / rank_len;
            let rank = &self.domain.ranks()[r];
            let sites: &mut dyn Iterator<Item = usize> = match which {
                SiteSet::All => &mut (0..v_loc),
                SiteSet::Interior => &mut rank.interior.iter().map(|&x| x as usize),
                SiteSet::Boundary(k) => &mut rank.boundary[k].iter().map(|&x| x as usize),
            };
            let (lk, field) = (&self.links[r], &inp.data[start..start + rank_len]);
            let optr = o.as_mut_ptr();
            let n = simd::dispatch(
                self,
                #[inline(always)]
                |this| {
                    let mut n = 0;
                    for lx in sites {
                        let nb = &rank.neighbors[lx];
                        let fwd = [0, 1, 2, 3].map(|mu| lk[lx * ND + mu]);
                        let bwd = [0, 1, 2, 3].map(|mu| lk[nb.bwd[mu] as usize * ND + mu]);
                        lanes::hop_row(
                            nb,
                            lx,
                            this.antiperiodic_t,
                            (&fwd, &bwd),
                            (l5, nrhs, slice_len),
                            #[inline(always)]
                            |e| e * nrhs,
                            #[inline(always)]
                            |i| field[i],
                            #[inline(always)]
                            |b, h| {
                                // SAFETY: `b = s·slice_len + j` for the site's
                                // spinor (s, j), so `b + lx·nrhs` is local row
                                // (s, lx) of this rank's block, stored once by
                                // `hop_row`, and below `rank_len = o.len()`.
                                unsafe { *optr.add(b + lx * nrhs) = h };
                            },
                        );
                        n += l5 as u64;
                    }
                    n
                },
            );
            counted.fetch_add(n, Ordering::Relaxed);
        });
        counted.load(Ordering::Relaxed)
    }

    /// The exchange + compute phases of one apply attempt under sequence
    /// number `seq`. Stops at the first failing direction.
    fn exchange(
        &self,
        out: &mut ShardedField<R>,
        inp: &mut ShardedField<R>,
        seq: u64,
        packs: &AtomicU64,
        unpacks: &AtomicU64,
        overlap: &mut f64,
    ) -> Result<(u64, u64), CommError> {
        let n_dims = self.domain.decomp().halos.len();
        match self.policy.granularity {
            CommGranularity::Coarse => {
                // Exchange everything, then one fused pass over all sites.
                for k in 0..n_dims {
                    self.send_dim(inp, k, seq, packs)?;
                }
                for k in 0..n_dims {
                    self.deliver_dim(inp, k, seq, unpacks)?;
                }
                Ok((0, self.compute(out, inp, SiteSet::All)))
            }
            CommGranularity::Fine => {
                // Post all sends, overlap interior compute with the
                // "in-flight" messages, then pipeline per direction.
                for k in 0..n_dims {
                    self.send_dim(inp, k, seq, packs)?;
                }
                let t0 = self.clock.now();
                let interior = self.compute(out, inp, SiteSet::Interior);
                *overlap = self.clock.now() - t0;
                let mut boundary = 0;
                for k in 0..n_dims {
                    self.deliver_dim(inp, k, seq, unpacks)?;
                    boundary += self.compute(out, inp, SiteSet::Boundary(k));
                }
                Ok((interior, boundary))
            }
        }
    }

    /// `out = H inp` over every rank, exchanging halos under the current
    /// policy. `inp` is mutable because the exchange refreshes its ghost
    /// zones; local (owned) input sites are never written.
    ///
    /// Fallible: an exchange the transport could not heal within its retry
    /// budget — or one touching a lost rank — surfaces as a typed
    /// [`CommError`], with `out`'s contents unspecified. Fault-stat deltas
    /// are published to obs on *every* attempt (a failed apply still leaves
    /// its forensic trail); [`CommStats`] only advance on success.
    pub fn apply(
        &mut self,
        out: &mut ShardedField<R>,
        inp: &mut ShardedField<R>,
    ) -> Result<(), CommError> {
        let l5 = inp.l5;
        assert_eq!(out.l5, l5, "l5 mismatch");
        assert_eq!(out.nrhs, inp.nrhs, "nrhs mismatch");
        // The exchange and the stencil write through raw pointers at offsets
        // taken from the domain, so both fields must have its exact shape.
        let v_loc = self.domain.local_volume();
        let shape = (v_loc, v_loc + self.domain.ghost_len());
        assert_eq!((inp.v_loc, inp.v_ext), shape, "input shape");
        assert_eq!((out.v_loc, out.v_ext), shape, "output shape");
        let seq = self.seq;
        self.seq += 1;
        let packs = AtomicU64::new(0);
        let unpacks = AtomicU64::new(0);
        let mut overlap = 0.0;
        let outcome = self.exchange(out, inp, seq, &packs, &unpacks, &mut overlap);

        // Injection/recovery deltas go out before any error does, in fixed
        // post-parallel order — deterministic timelines at any thread width.
        let fault_now = self.transport.fault_stats();
        let fault_delta = fault_now.delta(&self.fault_base);
        self.fault_base = fault_now;
        publish_faults(&fault_delta);

        let (interior_sites, boundary_sites) = outcome?;

        // Exactly-once delivery, cross-checked against the analytic message
        // count every apply.
        let expected_msgs = self.domain.total_messages_per_apply() as u64;
        let gdr = self.policy.transport == CommTransport::GdrDirect;
        assert_eq!(
            packs.load(Ordering::Relaxed),
            if gdr { 0 } else { expected_msgs },
            "every face must be packed exactly once"
        );
        assert_eq!(
            unpacks.load(Ordering::Relaxed),
            expected_msgs,
            "every ghost zone must be filled exactly once"
        );
        let total_sites = (self.domain.n_ranks() * self.domain.local_volume() * l5) as u64;
        assert_eq!(
            interior_sites + boundary_sites,
            total_sites,
            "interior/boundary passes must tile the lattice"
        );

        // Halo spinors delivered: both faces of every partitioned direction,
        // per rank, l5-fat messages, every RHS column per face site.
        let halo_sites: u64 = self
            .domain
            .ranks()
            .iter()
            .flat_map(|rank| rank.exchanges.iter())
            .map(|ex| 2 * (ex.face_len * l5 * inp.nrhs) as u64)
            .sum();
        let spinor_bytes = std::mem::size_of::<Spinor<R>>() as u64;
        let (pack_copies, total_copies) = self.copy_profile();
        let d = CommStats {
            applies: 1,
            messages: expected_msgs,
            halo_sites,
            bytes_packed: pack_copies * halo_sites * spinor_bytes,
            bytes_sent: halo_sites * spinor_bytes,
            copies: total_copies * expected_msgs,
            sites_interior: interior_sites,
            sites_boundary: boundary_sites,
            overlap_seconds: overlap,
        };
        self.stats.applies += d.applies;
        self.stats.messages += d.messages;
        self.stats.halo_sites += d.halo_sites;
        self.stats.bytes_packed += d.bytes_packed;
        self.stats.bytes_sent += d.bytes_sent;
        self.stats.copies += d.copies;
        self.stats.sites_interior += d.sites_interior;
        self.stats.sites_boundary += d.sites_boundary;
        self.stats.overlap_seconds += d.overlap_seconds;
        publish(&d);
        Ok(())
    }

    /// Flops of one apply (the standard Wilson-dslash figure over all
    /// ranks).
    pub fn flops_per_apply(&self, l5: usize) -> f64 {
        (self.domain.n_ranks() * self.domain.local_volume() * l5) as f64 * HOPPING_FLOPS_PER_SITE
    }
}

/// Which sites a compute pass covers.
#[derive(Clone, Copy)]
enum SiteSet {
    All,
    Interior,
    Boundary(usize),
}

/// Keep the canonical error of a parallel exchange pass: [`CommError::RankLost`]
/// beats wire faults, then lowest (rank, mu, side) wins — so the surfaced
/// error is independent of thread schedule.
fn merge_err(slot: &Mutex<Option<CommError>>, e: CommError) {
    fn key(e: &CommError) -> (u8, usize, usize, usize) {
        match *e {
            CommError::RankLost { rank } => (0, rank, 0, 0),
            CommError::ChannelClosed { rank, mu, side } => (1, rank, mu, side),
            CommError::Corrupt { rank, mu, side, .. } => (1, rank, mu, side),
            CommError::Missing { rank, mu, side, .. } => (1, rank, mu, side),
            CommError::SizeMismatch { rank, mu, side } => (1, rank, mu, side),
        }
    }
    let mut g = slot.lock();
    match &*g {
        Some(cur) if key(cur) <= key(&e) => {}
        _ => *g = Some(e),
    }
}

/// Publish one apply's injection/recovery deltas: the `comms.retries` /
/// `comms.crc_failures` / `comms.timeouts` counters plus fixed-order events
/// for golden timelines. A fault-free apply publishes nothing, so existing
/// metric goldens are untouched.
fn publish_faults(d: &CommFaultStats) {
    if *d == CommFaultStats::default() {
        return;
    }
    let reg = Registry::current();
    reg.counter("comms.crc_failures").add(d.crc_failures);
    reg.counter("comms.timeouts").add(d.timeouts);
    reg.counter("comms.retries").add(d.retries);
    reg.counter("comms.duplicates_dropped")
        .add(d.duplicates_dropped);
    reg.float_counter("comms.backoff_seconds")
        .add(d.backoff_seconds);
    let injected = [
        ("corrupt", d.injected_corruptions),
        ("drop", d.injected_drops),
        ("duplicate", d.injected_duplicates),
        ("reorder", d.injected_reorders),
        ("delay", d.injected_delays),
    ];
    for (kind, n) in injected {
        if n > 0 {
            reg.event(
                "comms.fault_injected",
                vec![("kind", Json::from(kind)), ("count", Json::from(n))],
            );
        }
    }
    if d.crc_failures > 0 {
        reg.event(
            "comms.crc_reject",
            vec![("count", Json::from(d.crc_failures))],
        );
    }
    if d.timeouts > 0 {
        reg.event("comms.timeout", vec![("count", Json::from(d.timeouts))]);
    }
    if d.retries > 0 {
        reg.event(
            "comms.retry",
            vec![
                ("count", Json::from(d.retries)),
                ("backoff_seconds", Json::from(d.backoff_seconds)),
            ],
        );
    }
}

/// Publish one apply's stat deltas as `comms.*` metrics.
fn publish(d: &CommStats) {
    let reg = Registry::current();
    reg.counter("comms.messages").add(d.messages);
    reg.counter("comms.halo_sites").add(d.halo_sites);
    reg.counter("comms.bytes_packed").add(d.bytes_packed);
    reg.counter("comms.bytes_sent").add(d.bytes_sent);
    reg.counter("comms.copies").add(d.copies);
    reg.counter("comms.sites_interior").add(d.sites_interior);
    reg.counter("comms.sites_boundary").add(d.sites_boundary);
    reg.float_counter("comms.overlap_seconds")
        .add(d.overlap_seconds);
}

/// Autotune adapter: sweeps the policy index over [`CommPolicy::all`] with
/// measured (injected-clock) timings, per (geometry, precision, rank grid).
struct PolicySweep<'a, R: Real> {
    kernel: &'a mut ShardedHopping<R>,
    out: &'a mut ShardedField<R>,
    inp: &'a mut ShardedField<R>,
}

impl<'a, R: Real> Tunable for PolicySweep<'a, R> {
    fn key(&self) -> TuneKey {
        TuneKey::new(
            "comms_dslash",
            format!(
                "{}x{}",
                volume_string(self.kernel.domain.lattice().dims()),
                self.inp.l5
            ),
            format!("prec={},grid={}", R::NAME, self.kernel.domain.grid_string()),
        )
        .with_nrhs(self.inp.nrhs)
    }

    fn param_space(&self) -> ParamSpace {
        ParamSpace::policies(CommPolicy::all().len())
    }

    fn run(&mut self, param: TuneParam) {
        self.kernel.set_policy(policy_from_index(param.policy));
        if let Err(e) = self.kernel.apply(self.out, self.inp) {
            unreachable!("autotune sweeps require a fault-free transport: {e}");
        }
    }

    fn harness(&self) -> TimingHarness {
        TimingHarness::WallClock { reps: 2 }
    }

    fn flops(&self) -> f64 {
        self.kernel.flops_per_apply(self.inp.l5) * self.inp.nrhs as f64
    }
}

/// Stable policy-index decoding shared by the sweep and its consumers.
pub fn policy_from_index(idx: usize) -> CommPolicy {
    let all = CommPolicy::all();
    all[idx % all.len()]
}

/// Sweep every communication policy on `kernel` through `tuner` (measured
/// timings via the tuner's injected clock), leave the winner installed, and
/// return it. Cached per (geometry, L5, precision, rank grid).
pub fn tune_comm_policy<R: Real>(
    tuner: &Tuner,
    kernel: &mut ShardedHopping<R>,
    out: &mut ShardedField<R>,
    inp: &mut ShardedField<R>,
) -> CommPolicy {
    assert!(
        !kernel.fault_profile().enabled(),
        "policy tuning must run on a fault-free transport"
    );
    let param = tuner.tune(&mut PolicySweep { kernel, out, inp });
    let best = policy_from_index(param.policy);
    kernel.set_policy(best);
    best
}

/// The Möbius domain-wall operator with its 4D hopping term executed by the
/// sharded halo-exchange kernel. The composition is [`MobiusDirac`]'s own,
/// so the full apply is bit-identical to the single-domain operator.
pub struct ShardedMobius<'a, R: Real, G: GaugeLinks<R>> {
    mobius: MobiusDirac<'a, R, G>,
    hop: ShardedHop<R>,
}

/// [`ShardedHopping`] as the fused hop of a Möbius composition. Its operand
/// and result fields are resident: sized at construction (and again
/// whenever a hop brings a different `nrhs`), then scattered into and
/// gathered from in place, `load` applied on the scatter and `finish` on
/// the gather.
struct ShardedHop<R: Real> {
    kernel: ShardedHopping<R>,
    /// Hop operand: rank locals scattered from the global vector, ghosts
    /// filled by the exchange.
    operand: ShardedField<R>,
    /// Hop result, gathered back into the global vector.
    result: ShardedField<R>,
    /// The current apply's first comm failure: its remaining hops are
    /// skipped and its output is unspecified.
    failed: Option<CommError>,
}

impl<R: Real> FusedHop<R> for ShardedHop<R> {
    fn hop<L, F>(
        &mut self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
        load: &L,
        finish: &F,
    ) where
        L: Fn(Spinor<R>) -> Spinor<R> + Sync,
        F: Fn(usize, Spinor<R>) -> Spinor<R> + Sync,
    {
        if self.failed.is_some() {
            return;
        }
        let domain = self.kernel.domain().clone();
        if self.operand.nrhs != nrhs {
            self.operand = ShardedField::zeros_block(&domain, self.operand.l5, nrhs);
            self.result = ShardedField::zeros_block(&domain, self.result.l5, nrhs);
        }
        self.operand.scatter_mapped(&domain, inp, load);
        match self.kernel.apply(&mut self.result, &mut self.operand) {
            Ok(()) => self.result.gather_mapped(&domain, out, finish),
            Err(e) => self.failed = Some(e),
        }
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> ShardedMobius<'a, R, G> {
    /// Bind the operator. `domain` must decompose `lattice`.
    pub fn new(
        lattice: &'a Lattice,
        gauge: &'a G,
        params: MobiusParams,
        domain: Arc<DomainDecomposition>,
        policy: CommPolicy,
    ) -> Self {
        assert_eq!(
            domain.lattice().volume(),
            lattice.volume(),
            "domain/lattice mismatch"
        );
        Self {
            mobius: MobiusDirac::new(lattice, gauge, params),
            hop: ShardedHop {
                operand: ShardedField::zeros(&domain, params.l5),
                result: ShardedField::zeros(&domain, params.l5),
                // Antiperiodic-t matches MobiusDirac::new (the physical choice).
                kernel: ShardedHopping::new(domain, gauge, true, policy),
                failed: None,
            },
        }
    }

    /// Vector length of the operator (`L5 × volume`).
    pub fn vec_len(&self) -> usize {
        self.mobius.params().l5 * self.mobius.lattice().volume()
    }

    /// Fifth-dimension extent × volume geometry parameters.
    pub fn params(&self) -> &MobiusParams {
        self.mobius.params()
    }

    /// `out = D inp` on global s-major, RHS-innermost interleaved 5D
    /// vectors: one halo exchange's worth of messages serves all `nrhs`
    /// columns, and column `j` is bit-identical to the single-domain
    /// operator on the packed column. Fallible: the first comm failure of a
    /// hop is returned and `out` is then unspecified.
    pub fn apply_block(
        &mut self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
    ) -> Result<(), CommError> {
        self.mobius.apply_block_via(out, inp, nrhs, &mut self.hop);
        self.hop.failed.take().map_or(Ok(()), Err)
    }

    /// `out = D† inp` with the sharded hopping term (`H† = γ5 H γ5`),
    /// fallible like [`Self::apply_block`].
    pub fn apply_dagger_block(
        &mut self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
    ) -> Result<(), CommError> {
        self.mobius
            .apply_dagger_block_via(out, inp, nrhs, &mut self.hop);
        self.hop.failed.take().map_or(Ok(()), Err)
    }
}

/// The fallible Möbius normal operator `D†D` over a sharded halo exchange,
/// with graceful rank-loss degradation: the operator [`crate::solver::cg_ft`]
/// drives through checkpoint-restart.
///
/// On a transient [`CommError`] (corruption/drop retries exhausted),
/// [`FallibleOp::recover`] is a no-op — the transport is still usable and
/// the solver simply restores its last checkpoint. On
/// [`CommError::RankLost`], recovery re-runs [`DomainDecomposition`] on the
/// surviving rank grid ([`surviving_grid`]), regathers the extended link
/// tables from the global gauge field, and clears the dead rank from the
/// fault profile; because the sharded apply is bit-identical at *any* rank
/// grid, the restored CG recurrence continues the exact bit sequence of the
/// no-fault run.
pub struct ShardedNormal<'a, R: Real, G: GaugeLinks<R>> {
    lattice: &'a Lattice,
    gauge: &'a G,
    params: MobiusParams,
    gpus_per_node: usize,
    policy: CommPolicy,
    retry: CommRetryPolicy,
    grid: [usize; ND],
    op: ShardedMobius<'a, R, G>,
    degradations: usize,
    tmp: Vec<Spinor<R>>,
}

impl<'a, R: Real, G: GaugeLinks<R>> ShardedNormal<'a, R, G> {
    /// Bind the operator on `grid`. `None` if the grid does not decompose
    /// the lattice.
    pub fn new(
        lattice: &'a Lattice,
        gauge: &'a G,
        params: MobiusParams,
        grid: [usize; ND],
        gpus_per_node: usize,
        policy: CommPolicy,
    ) -> Option<Self> {
        let domain = DomainDecomposition::new(lattice, grid, params.l5, gpus_per_node)?;
        let op = ShardedMobius::new(lattice, gauge, params, Arc::new(domain), policy);
        Some(Self {
            lattice,
            gauge,
            params,
            gpus_per_node,
            policy,
            retry: CommRetryPolicy::default(),
            grid,
            op,
            degradations: 0,
            tmp: Vec::new(),
        })
    }

    /// Install a message-fault profile and retry policy.
    pub fn set_fault_profile(&mut self, profile: CommFaultProfile, retry: CommRetryPolicy) {
        self.retry = retry;
        self.op.hop.kernel.set_fault_profile(profile, retry);
    }

    /// The rank grid currently executing (shrinks on degradation).
    pub fn grid(&self) -> [usize; ND] {
        self.grid
    }

    /// How many times the operator has degraded to a smaller grid.
    pub fn degradations(&self) -> usize {
        self.degradations
    }

    /// Cumulative transport injection/recovery statistics (reset on
    /// degradation — the transport is rebuilt).
    pub fn fault_stats(&self) -> CommFaultStats {
        self.op.hop.kernel.fault_stats()
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> FallibleOp<R> for ShardedNormal<'a, R, G> {
    fn vec_len(&self) -> usize {
        self.op.vec_len()
    }

    /// One halo exchange per hop serves the whole interleaved block, and
    /// each column's result is bit-identical to the single-domain operator
    /// on that column.
    fn apply_block(
        &mut self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
    ) -> Result<(), CommError> {
        self.tmp.resize(self.op.vec_len() * nrhs, Spinor::zero());
        self.op.apply_block(&mut self.tmp, inp, nrhs)?;
        self.op.apply_dagger_block(out, &self.tmp, nrhs)
    }

    fn flops_per_apply(&self) -> f64 {
        // D then D†: twice the Möbius figure.
        2.0 * self.op.mobius.flops_per_apply()
    }

    fn recover(&mut self, err: &CommError) -> Result<(), CommError> {
        let CommError::RankLost { rank } = *err else {
            // Transient wire failure: the transport survives; the solver
            // restores from checkpoint and the next apply redraws its fates.
            return Ok(());
        };
        let to = surviving_grid(self.grid).ok_or(*err)?;
        let domain = DomainDecomposition::new(self.lattice, to, self.params.l5, self.gpus_per_node)
            .ok_or(*err)?;
        // Rebuild the operator on the shrunken grid: fresh transport, link
        // tables regathered from the global gauge field. The dead rank no
        // longer exists, so it leaves the fault profile; wire-fault rates
        // stay active.
        let mut profile = *self.op.hop.kernel.fault_profile();
        profile.lost_rank = None;
        let from = self.op.hop.kernel.domain().grid_string();
        self.op = ShardedMobius::new(
            self.lattice,
            self.gauge,
            self.params,
            Arc::new(domain),
            self.policy,
        );
        self.op.hop.kernel.set_fault_profile(profile, self.retry);
        self.grid = to;
        self.degradations += 1;
        let reg = Registry::current();
        reg.counter("comms.rank_losses").add(1);
        reg.event(
            "comms.degrade",
            vec![
                ("rank", Json::from(rank)),
                ("from", Json::from(from)),
                ("to", Json::from(self.op.hop.kernel.domain().grid_string())),
            ],
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirac::testing::real_bits;
    use crate::field::{FermionField, GaugeField};

    /// The sharded operator against [`MobiusDirac`]'s allocating oracle
    /// compositions on every real's bit pattern, on two rank grids. Each
    /// operator sees `nrhs` 1, 3, then 1 again, so its resident shard fields
    /// are resized in both directions.
    fn sharded_matches_oracle<R: Real>(lat: &Lattice, gauge: &GaugeField<R>) {
        for l5 in [2, 4] {
            for params in [
                MobiusParams::standard(l5, 0.1),
                MobiusParams::shamir(l5, 0.1),
            ] {
                let oracle = MobiusDirac::new(lat, gauge, params);
                let mut sharded: Vec<ShardedMobius<R, GaugeField<R>>> =
                    [[2, 1, 1, 1], [2, 2, 1, 1]]
                        .into_iter()
                        .map(|grid| {
                            let domain = DomainDecomposition::new(lat, grid, l5, 4).expect("grid");
                            let policy = policy_from_index(0);
                            ShardedMobius::new(lat, gauge, params, Arc::new(domain), policy)
                        })
                        .collect();
                for nrhs in [1, 3, 1] {
                    let n = sharded[0].vec_len() * nrhs;
                    let inp = FermionField::<R>::gaussian(n, 90 + (l5 * nrhs) as u64).data;
                    for dagger in [false, true] {
                        let what = format!("{params:?} nrhs {nrhs} dagger {dagger}");
                        let mut want = vec![Spinor::zero(); n];
                        match dagger {
                            false => oracle.apply_block_oracle(&mut want, &inp, nrhs),
                            true => oracle.apply_dagger_block_oracle(&mut want, &inp, nrhs),
                        }
                        for op in &mut sharded {
                            let grid = op.hop.kernel.domain().grid_string();
                            let mut got = vec![Spinor::zero(); n];
                            let res = match dagger {
                                false => op.apply_block(&mut got, &inp, nrhs),
                                true => op.apply_dagger_block(&mut got, &inp, nrhs),
                            };
                            res.expect("clean wire");
                            assert!(real_bits(&got) == real_bits(&want), "grid {grid}, {what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hop_compositions_are_bit_identical_to_their_oracles() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 83);
        sharded_matches_oracle(&lat, &gauge);
        sharded_matches_oracle(&lat, &gauge.cast::<f32>());
    }
}
