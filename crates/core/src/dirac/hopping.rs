//! The radius-one Wilson hopping stencil — the hot kernel of the whole code.
//!
//! `H ψ(x) = Σμ [(1−γμ) Uμ(x) ψ(x+μ̂) + (1+γμ) U†μ(x−μ̂) ψ(x−μ̂)]`
//!
//! Each direction is applied with the half-spinor trick: `(1∓γμ)ψ` has rank
//! two, so only two color-vectors are multiplied by the link and the other
//! two spin components are reconstructed by a phase — exactly the matrix-free
//! stencil structure QUDA uses. One fused sweep per checkerboarding serves
//! every Dirac operator: the 4D Wilson ones as a single slice, the 5D Möbius
//! ones across all `L5` slices, each at any number of right-hand-side columns.
//! The sweep hops a site's `L5 × nrhs` spinors together, as vector lanes
//! that share its links (`lanes`), gathered straight from the operand, each
//! lane bit-identical to [`hop_site`]. The adjoint `H† = γ5 H γ5` is the
//! same sweep with the projector signs swapped, `γ5 (1∓γμ) γ5 = 1±γμ`, as
//! QUDA writes its dagger dslash: no γ5 is applied to any spinor.
//!
//! Antiperiodic temporal boundary conditions for fermions are applied as a
//! sign on hops whose neighbor lookup wrapped in `t`.

use super::lanes;
use crate::complex::Complex;
use crate::field::GaugeLinks;
use crate::gamma::GAMMAS;
use crate::lattice::{Lattice, Neighbors, Parity, ND};
use crate::real::Real;
use crate::simd;
use crate::spinor::Spinor;
use crate::su3::Su3;

/// Flops per site of one full hopping application (8 directions, half-spinor
/// form): the standard Wilson-dslash figure.
pub const HOPPING_FLOPS_PER_SITE: f64 = 1320.0;

/// One site of `H ψ` in half-spinor form, or of `H† ψ` when `DAGGER` (the
/// projector signs swapped), with all geometry abstracted out: neighbor
/// indices come from `nb`, spinors from `fetch`, links from
/// `link(site, mu)`. It is the scalar form of the one stencil body,
/// `lanes::hop_row`: every lane of a row performs this exact operation
/// chain, and the spinors a lane group cannot fill go through this function
/// itself. The single-domain sweeps resolve the geometry against the full
/// lattice; the sharded halo-exchange kernel runs the same row against a
/// rank's extended index space, whose wrap flags were computed from
/// *global* coordinates, so the two are bit-identical by construction.
#[inline]
pub fn hop_site<R: Real, const DAGGER: bool>(
    nb: &Neighbors,
    x: usize,
    antiperiodic_t: bool,
    fetch: &impl Fn(usize) -> Spinor<R>,
    link: &impl Fn(usize, usize) -> Su3<R>,
) -> Spinor<R> {
    let mut r = Spinor::zero();
    for mu in 0..ND {
        let g = &GAMMAS[mu];
        let p0 = g.perm[0];
        let p1 = g.perm[1];
        let phi0: Complex<R> = g.phase[0].cast();
        let phi1: Complex<R> = g.phase[1].cast();
        // Reconstruction phases: result_s = ∓φ_s t_{p(s)} for s = 2, 3.
        let phi2: Complex<R> = g.phase[2].cast();
        let phi3: Complex<R> = g.phase[3].cast();
        let p2 = g.perm[2];
        let p3 = g.perm[3];

        // Forward hop: (1 − γμ) Uμ(x) ψ(x+μ̂), (1 + γμ) for the adjoint.
        {
            let nbr = nb.fwd[mu] as usize;
            let flip = antiperiodic_t && mu == 3 && (nb.fwd_wrap >> mu) & 1 == 1;
            let psi = fetch(nbr);
            let u = link(x, mu);
            let (a0, a1) = (psi.s[p0].scale_c(phi0), psi.s[p1].scale_c(phi1));
            let h = match DAGGER {
                false => [psi.s[0] - a0, psi.s[1] - a1],
                true => [psi.s[0] + a0, psi.s[1] + a1],
            };
            let mut t = [u.mul_vec(&h[0]), u.mul_vec(&h[1])];
            if flip {
                t = [-t[0], -t[1]];
            }
            r.s[0] += t[0];
            r.s[1] += t[1];
            let (t2, t3) = (t[p2].scale_c(phi2), t[p3].scale_c(phi3));
            let (t2, t3) = if DAGGER { (t2, t3) } else { (-t2, -t3) };
            r.s[2] += t2;
            r.s[3] += t3;
        }

        // Backward hop: (1 + γμ) U†μ(x−μ̂) ψ(x−μ̂), (1 − γμ) for the adjoint.
        {
            let nbr = nb.bwd[mu] as usize;
            let flip = antiperiodic_t && mu == 3 && (nb.bwd_wrap >> mu) & 1 == 1;
            let psi = fetch(nbr);
            let u = link(nbr, mu);
            let (a0, a1) = (psi.s[p0].scale_c(phi0), psi.s[p1].scale_c(phi1));
            let h = match DAGGER {
                false => [psi.s[0] + a0, psi.s[1] + a1],
                true => [psi.s[0] - a0, psi.s[1] - a1],
            };
            let mut t = [u.dagger_mul_vec(&h[0]), u.dagger_mul_vec(&h[1])];
            if flip {
                t = [-t[0], -t[1]];
            }
            r.s[0] += t[0];
            r.s[1] += t[1];
            let (t2, t3) = (t[p2].scale_c(phi2), t[p3].scale_c(phi3));
            let (t2, t3) = if DAGGER { (-t2, -t3) } else { (t2, t3) };
            r.s[2] += t2;
            r.s[3] += t3;
        }
    }
    r
}

/// Rows per parallel chunk of a Dirac sweep over `rows` sites — the stencil
/// and the Möbius column sweeps alike: an eighth of them, so the pool has
/// something to share even at 4³×8, down to a 32-row floor and up to a
/// 1024-row ceiling.
pub(super) fn stencil_grain(rows: usize) -> usize {
    (rows / 8).clamp(32, 1024)
}

/// Pointer wrapper that lets disjoint parallel tasks write through a shared
/// raw pointer. Soundness rests on the call sites writing non-overlapping
/// element sets; see the `SAFETY` comments there.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);

impl<T> SendPtr<T> {
    /// The wrapped pointer. Going through a method (rather than field access)
    /// makes closures capture the whole `Sync` wrapper instead of the bare
    /// pointer under edition-2021 disjoint field capture.
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

// SAFETY: the wrapped pointer is only dereferenced for writes to provably
// disjoint elements (each (slice, site) pair is written by exactly one rayon
// task), so sharing it across threads is sound.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: see the `Send` impl above — tasks never write the same element.
unsafe impl<T> Sync for SendPtr<T> {}

/// Hopping-term kernel bound to a lattice and a gauge field.
pub struct HoppingKernel<'a, R: Real, G: GaugeLinks<R>> {
    lattice: &'a Lattice,
    gauge: &'a G,
    antiperiodic_t: bool,
    _marker: std::marker::PhantomData<R>,
}

impl<'a, R: Real, G: GaugeLinks<R>> HoppingKernel<'a, R, G> {
    /// Bind the kernel. `antiperiodic_t` selects fermionic temporal boundary
    /// conditions (the physical choice).
    pub fn new(lattice: &'a Lattice, gauge: &'a G, antiperiodic_t: bool) -> Self {
        assert_eq!(gauge.volume(), lattice.volume(), "gauge/lattice mismatch");
        Self {
            lattice,
            gauge,
            antiperiodic_t,
            _marker: std::marker::PhantomData,
        }
    }

    /// Fused hop on the full lattice: `inp` and `out` are interleaved 5D
    /// blocks of `l5` slices and `nrhs` columns, the spinor of slice `s`,
    /// site `x`, column `j` at `(s·V + x)·nrhs + j`. The sixteen stencil
    /// links of every 4D site are fetched once and feed all `L5 × nrhs`
    /// spinors of its rows — the fifth-dimension (and right-hand-side)
    /// fusion that stops the Möbius operator from re-streaming the gauge
    /// field per slice. The hop is `H`, or with `dagger` its adjoint
    /// `H† = γ5 H γ5`, run as the same stencil with the projector signs
    /// swapped (see [`hop_site`]). Each hop is the very same [`hop_site`]
    /// value — a site's spinors are hopped as vector lanes, each lane
    /// performing `hop_site`'s exact operation chain, and the few a lane
    /// group cannot fill go through `hop_site` itself with the cached links
    /// — and `finish(i, h)` maps it to the value stored at `out[i]` — the
    /// diagonal or fifth-dimension algebra folded into the single output
    /// write. The sites are split into parallel chunks of
    /// `stencil_grain(V)` rows: an eighth of them, clamped to 32..=1024.
    pub fn apply_full_fused_5d<F>(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        (l5, nrhs): (usize, usize),
        dagger: bool,
        finish: &F,
    ) where
        F: Fn(usize, Spinor<R>) -> Spinor<R> + Sync,
    {
        let rows = self.lattice.volume();
        let shape = (l5, nrhs, stencil_grain(rows));
        self.fused_sweep(out, inp, rows, shape, |x| x, |_, e| e, dagger, finish);
    }

    /// Checkerboarded counterpart of [`Self::apply_full_fused_5d`]: hops from
    /// parity `!out_parity` onto `out_parity`, so both blocks hold
    /// `half_volume` sites per slice and column, checkerboard-indexed.
    pub fn apply_parity_fused_5d<F>(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        out_parity: Parity,
        (l5, nrhs): (usize, usize),
        dagger: bool,
        finish: &F,
    ) where
        F: Fn(usize, Spinor<R>) -> Spinor<R> + Sync,
    {
        let sites = self.lattice.sites_with_parity(out_parity);
        let site = |cb: usize| sites[cb] as usize;
        let slot = |lat: &Lattice, e: usize| lat.cb_index(e);
        let rows = sites.len();
        let shape = (l5, nrhs, stencil_grain(rows));
        self.fused_sweep(out, inp, rows, shape, site, slot, dagger, finish);
    }

    /// The one stencil body, `(l5, nrhs)` as in the two sweeps above and
    /// `grain` rows per parallel chunk: output row `row` (of `rows` per
    /// slice) is lexicographic site `site(row)`, and a neighbor `e` is read
    /// from slot `slot(lattice, e)` of the input slice. Each row's
    /// `L5 × nrhs` spinors go through [`lanes::hop_row`], which hops them as
    /// vector lanes, gathered straight from `inp`. Chunks write disjoint
    /// rows, so `grain` never reaches the result's bits.
    #[allow(clippy::too_many_arguments)]
    fn fused_sweep<S, I, F>(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        rows: usize,
        (l5, nrhs, grain): (usize, usize, usize),
        site: S,
        slot: I,
        dagger: bool,
        finish: &F,
    ) where
        S: Fn(usize) -> usize + Sync,
        I: Fn(&Lattice, usize) -> usize + Sync,
        F: Fn(usize, Spinor<R>) -> Spinor<R> + Sync,
    {
        assert!(nrhs > 0, "a block needs at least one column");
        let slice_len = rows * nrhs;
        assert_eq!(out.len(), slice_len * l5);
        assert_eq!(inp.len(), slice_len * l5);
        // `move` captures the whole `SendPtr` wrapper (edition-2021 disjoint
        // field capture would otherwise borrow the raw pointer, which is not
        // `Sync`).
        let optr = SendPtr(out.as_mut_ptr());
        let (site, slot) = (&site, &slot);
        rayon::for_each_chunk(rows, grain, move |range| {
            simd::dispatch(
                self,
                #[inline(always)]
                |this| {
                    for row in range {
                        let x = site(row);
                        let nb = this.lattice.neighbors(x);
                        let (g, b) = (this.gauge, nb.bwd.map(|e| e as usize));
                        let fwd = [g.link(x, 0), g.link(x, 1), g.link(x, 2), g.link(x, 3)];
                        let bwd = [
                            g.link(b[0], 0),
                            g.link(b[1], 1),
                            g.link(b[2], 2),
                            g.link(b[3], 3),
                        ];
                        lanes::hop_row(
                            nb,
                            x,
                            (this.antiperiodic_t, dagger),
                            (&fwd, &bwd),
                            (l5, nrhs, slice_len),
                            inp,
                            #[inline(always)]
                            |e| slot(this.lattice, e) * nrhs,
                            #[inline(always)]
                            |b, h| {
                                let i = b + row * nrhs;
                                // SAFETY: `b = s·slice_len + j` for the row's
                                // spinor (s, j), so `i = (s·rows + row)·nrhs
                                // + j` is written exactly once — `row` ranges
                                // over disjoint chunks across tasks and
                                // `hop_row` stores each (s, j) once — and
                                // `i < l5·rows·nrhs = out.len()`.
                                unsafe { *optr.get().add(i) = finish(i, h) };
                            },
                        );
                    }
                },
            )
        });
    }
}

#[cfg(test)]
impl<R: Real, G: GaugeLinks<R>> HoppingKernel<'_, R, G> {
    /// The unfused oracle of both fused sweeps: every slice, site and column
    /// of an interleaved block hopped one at a time through [`hop_site`]
    /// with direct link fetches — no link cache, no chunking, no dispatch.
    /// `out_parity: None` is the full-lattice hop.
    pub(crate) fn apply_oracle(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        out_parity: Option<Parity>,
        nrhs: usize,
    ) {
        let lat = self.lattice;
        let sites: Vec<usize> = match out_parity {
            None => (0..lat.volume()).collect(),
            Some(p) => lat
                .sites_with_parity(p)
                .iter()
                .map(|&x| x as usize)
                .collect(),
        };
        let slot = |e: usize| {
            if out_parity.is_some() {
                lat.cb_index(e)
            } else {
                e
            }
        };
        let slice = sites.len() * nrhs;
        assert_eq!(out.len(), inp.len());
        assert_eq!(inp.len() % slice, 0);
        for (o, i) in out.chunks_mut(slice).zip(inp.chunks(slice)) {
            for (row, &x) in sites.iter().enumerate() {
                for j in 0..nrhs {
                    let fetch = |e: usize| i[slot(e) * nrhs + j];
                    let link = |site: usize, mu: usize| self.gauge.link(site, mu);
                    o[row * nrhs + j] = hop_site::<R, false>(
                        lat.neighbors(x),
                        x,
                        self.antiperiodic_t,
                        &fetch,
                        &link,
                    );
                }
            }
        }
    }

    /// Reference implementation using dense γ-matrices and full 4-spin link
    /// multiplication, to validate the half-spinor path.
    pub(crate) fn apply_full_reference(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        let v = self.lattice.volume();
        assert_eq!(out.len(), v);
        assert_eq!(inp.len(), v);
        for x in 0..v {
            let nb = self.lattice.neighbors(x);
            let mut r = Spinor::zero();
            for mu in 0..ND {
                let gdense = crate::gamma::gamma_dense(mu).cast::<R>();
                // Forward.
                let nbr = nb.fwd[mu] as usize;
                let mut psi = inp[nbr];
                if self.antiperiodic_t && mu == 3 && (nb.fwd_wrap >> mu) & 1 == 1 {
                    psi = -psi;
                }
                let u = self.gauge.link(x, mu);
                let upsi = Spinor {
                    s: [
                        u.mul_vec(&psi.s[0]),
                        u.mul_vec(&psi.s[1]),
                        u.mul_vec(&psi.s[2]),
                        u.mul_vec(&psi.s[3]),
                    ],
                };
                r += upsi - upsi.apply_spin_matrix(&gdense);
                // Backward.
                let nbr = nb.bwd[mu] as usize;
                let mut psi = inp[nbr];
                if self.antiperiodic_t && mu == 3 && (nb.bwd_wrap >> mu) & 1 == 1 {
                    psi = -psi;
                }
                let u = self.gauge.link(nbr, mu);
                let upsi = Spinor {
                    s: [
                        u.dagger_mul_vec(&psi.s[0]),
                        u.dagger_mul_vec(&psi.s[1]),
                        u.dagger_mul_vec(&psi.s[2]),
                        u.dagger_mul_vec(&psi.s[3]),
                    ],
                };
                r += upsi + upsi.apply_spin_matrix(&gdense);
            }
            out[x] = r;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockSpinor;
    use crate::dirac::testing::real_bits;
    use crate::field::{FermionField, GaugeField};

    fn setup(dims: [usize; 4], seed: u64) -> (Lattice, GaugeField<f64>, FermionField<f64>) {
        let lat = Lattice::new(dims);
        let gauge = GaugeField::hot(&lat, seed);
        let psi = FermionField::gaussian(lat.volume(), seed + 1);
        (lat, gauge, psi)
    }

    /// `out = H inp` (`H† inp` when `dagger`) through the public sweep onto
    /// `parity` (`None`: the full lattice), with the identity `finish`.
    fn fused<R: Real, G: GaugeLinks<R>>(
        hop: &HoppingKernel<R, G>,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        parity: Option<Parity>,
        shape: (usize, usize),
        dagger: bool,
    ) {
        let finish = |_, h| h;
        match parity {
            None => hop.apply_full_fused_5d(out, inp, shape, dagger, &finish),
            Some(p) => hop.apply_parity_fused_5d(out, inp, p, shape, dagger, &finish),
        }
    }

    /// The public sweep onto `parity` run through the one stencil body at an
    /// explicit `grain` instead of [`stencil_grain`].
    fn fused_at<R: Real, G: GaugeLinks<R>>(
        hop: &HoppingKernel<R, G>,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        parity: Option<Parity>,
        shape: (usize, usize, usize),
        dagger: bool,
        finish: &(impl Fn(usize, Spinor<R>) -> Spinor<R> + Sync),
    ) {
        let lat = hop.lattice;
        match parity {
            None => {
                let rows = lat.volume();
                hop.fused_sweep(out, inp, rows, shape, |x| x, |_, e| e, dagger, finish)
            }
            Some(p) => {
                let sites = lat.sites_with_parity(p);
                let site = |cb: usize| sites[cb] as usize;
                let slot = |lat: &Lattice, e: usize| lat.cb_index(e);
                hop.fused_sweep(out, inp, sites.len(), shape, site, slot, dagger, finish);
            }
        }
    }

    #[test]
    fn half_spinor_path_matches_dense_reference() {
        let (lat, gauge, psi) = setup([4, 4, 4, 4], 9);
        for apbc in [false, true] {
            let hop = HoppingKernel::new(&lat, &gauge, apbc);
            let mut fast = vec![Spinor::zero(); lat.volume()];
            let mut slow = vec![Spinor::zero(); lat.volume()];
            fused(&hop, &mut fast, &psi.data, None, (1, 1), false);
            hop.apply_full_reference(&mut slow, &psi.data);
            let diff = crate::blas::sub(&fast, &slow);
            let rel = crate::blas::norm_sqr(&diff) / crate::blas::norm_sqr(&slow);
            assert!(rel < 1e-24, "apbc={apbc} relative error {rel}");
        }
    }

    /// Every grain the stencil body may be split at — one row per chunk, a
    /// ragged last chunk, the rule's floor and its ceiling (one chunk) —
    /// gives the public sweeps' bits, full and parity, in both directions
    /// and with an index-dependent `finish`.
    #[test]
    fn grain_size_does_not_change_result() {
        let (lat, gauge, _) = setup([4, 4, 2, 6], 11);
        let hop = HoppingKernel::new(&lat, &gauge, true);
        let (l5, nrhs) = (2, 3);
        for (parity, dagger) in [None, Some(Parity::Even), Some(Parity::Odd)]
            .into_iter()
            .flat_map(|p| [(p, false), (p, true)])
        {
            let rows = parity.map_or(lat.volume(), |_| lat.half_volume());
            let psi = FermionField::<f64>::gaussian(l5 * rows * nrhs, 12).data;
            let finish = |i: usize, h: Spinor<f64>| h.scale(0.5 + (i % 7) as f64) - psi[i];
            let mut want = vec![Spinor::zero(); psi.len()];
            match parity {
                None => hop.apply_full_fused_5d(&mut want, &psi, (l5, nrhs), dagger, &finish),
                Some(p) => {
                    hop.apply_parity_fused_5d(&mut want, &psi, p, (l5, nrhs), dagger, &finish)
                }
            }
            for grain in [1, 7, 32, 1024] {
                let (mut got, shape) = (vec![Spinor::zero(); psi.len()], (l5, nrhs, grain));
                fused_at(&hop, &mut got, &psi, parity, shape, dagger, &finish);
                assert!(
                    real_bits(&got) == real_bits(&want),
                    "{parity:?} dagger {dagger} grain {grain}"
                );
            }
        }
    }

    #[test]
    fn parity_kernels_tile_the_full_application() {
        let (lat, gauge, psi) = setup([4, 4, 4, 4], 13);
        let hop = HoppingKernel::new(&lat, &gauge, true);

        let mut full = vec![Spinor::zero(); lat.volume()];
        fused(&hop, &mut full, &psi.data, None, (1, 1), false);

        // Scatter input into checkerboards.
        let hv = lat.half_volume();
        let mut even_in = vec![Spinor::zero(); hv];
        let mut odd_in = vec![Spinor::zero(); hv];
        for x in 0..lat.volume() {
            match lat.parity(x) {
                Parity::Even => even_in[lat.cb_index(x)] = psi.data[x],
                Parity::Odd => odd_in[lat.cb_index(x)] = psi.data[x],
            }
        }
        let mut even_out = vec![Spinor::zero(); hv];
        let mut odd_out = vec![Spinor::zero(); hv];
        fused(
            &hop,
            &mut even_out,
            &odd_in,
            Some(Parity::Even),
            (1, 1),
            false,
        );
        fused(
            &hop,
            &mut odd_out,
            &even_in,
            Some(Parity::Odd),
            (1, 1),
            false,
        );

        for x in 0..lat.volume() {
            let cb = lat.cb_index(x);
            let got = match lat.parity(x) {
                Parity::Even => even_out[cb],
                Parity::Odd => odd_out[cb],
            };
            assert!(
                (got - full[x]).norm_sqr() < 1e-24,
                "site {x} parity tiling mismatch"
            );
        }
    }

    /// `(l5, nrhs)` shapes covering every lane-group mix of both widths. In
    /// `f32` (8 lanes, half group 4): full groups only (8, 16), full then
    /// half group then `hop_site` (2 × 7 = 14), half group only (4), half
    /// group then `hop_site` (6) and `hop_site` only (1, 2, 3). In `f64` (4
    /// lanes, half group 2) the same shapes give full groups only (4, 8, 16),
    /// full then half (6, 14), half then `hop_site` (3) and `hop_site` only
    /// (1).
    const LANE_SHAPES: [(usize, usize); 10] = [
        (1, 1),
        (2, 1),
        (1, 3),
        (1, 4),
        (4, 1),
        (2, 3),
        (8, 1),
        (2, 4),
        (2, 7),
        (4, 4),
    ];

    /// Both sweeps against [`HoppingKernel::apply_oracle`] on every real's bit
    /// pattern at every shape of [`LANE_SHAPES`], and every column of a block
    /// against the sweep of that column alone.
    fn fused_matches_oracle<R: Real, G: GaugeLinks<R>>(lat: &Lattice, gauge: &G) {
        let hop = HoppingKernel::new(lat, gauge, true);
        for parity in [None, Some(Parity::Even), Some(Parity::Odd)] {
            let rows = parity.map_or(lat.volume(), |_| lat.half_volume());
            for (l5, nrhs) in LANE_SHAPES {
                let cols: Vec<Vec<Spinor<R>>> = (0..nrhs)
                    .map(|j| FermionField::gaussian(l5 * rows, 100 + j as u64).data)
                    .collect();
                let block = BlockSpinor::from_columns(&cols);
                let mut out = BlockSpinor::zeros(l5 * rows, nrhs);
                fused(
                    &hop,
                    out.data_mut(),
                    block.data(),
                    parity,
                    (l5, nrhs),
                    false,
                );
                let mut oracle = vec![Spinor::zero(); out.data().len()];
                hop.apply_oracle(&mut oracle, block.data(), parity, nrhs);
                let what = format!("{} {parity:?} l5 {l5} nrhs {nrhs}", R::NAME);
                assert!(real_bits(out.data()) == real_bits(&oracle), "{what}");
                for (j, c) in cols.iter().enumerate() {
                    let mut single = vec![Spinor::zero(); c.len()];
                    fused(&hop, &mut single, c, parity, (l5, 1), false);
                    assert!(
                        real_bits(&out.col(j)) == real_bits(&single),
                        "{what} column {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_sweeps_are_bit_identical_to_the_oracle_per_column() {
        let (lat, gauge, _) = setup([4, 4, 2, 6], 17);
        fused_matches_oracle(&lat, &gauge);
        fused_matches_oracle(&lat, &gauge.cast::<f32>());
    }

    /// Compressed links reach the lanes through [`GaugeLinks`] exactly as
    /// they reach [`hop_site`].
    #[test]
    fn fused_sweeps_on_compressed_links_match_the_oracle() {
        let (lat, gauge, _) = setup([4, 4, 2, 6], 19);
        let gauge = gauge.cast::<f32>();
        fused_matches_oracle(&lat, &crate::recon::Recon12Gauge::from_gauge(&gauge));
        fused_matches_oracle(&lat, &crate::recon::Recon8Gauge::from_gauge(&gauge));
    }

    /// `γ5 H γ5 inp` as the γ5 sandwich around [`HoppingKernel::apply_oracle`].
    fn gamma5_sandwich<R: Real, G: GaugeLinks<R>>(
        hop: &HoppingKernel<R, G>,
        inp: &[Spinor<R>],
        parity: Option<Parity>,
        nrhs: usize,
    ) -> Vec<Spinor<R>> {
        let g5in: Vec<Spinor<R>> = inp.iter().map(|psi| psi.apply_gamma5()).collect();
        let mut out = vec![Spinor::zero(); inp.len()];
        hop.apply_oracle(&mut out, &g5in, parity, nrhs);
        out.iter().map(|psi| psi.apply_gamma5()).collect()
    }

    /// The adjoint sweep against the γ5 sandwich at every shape of
    /// [`LANE_SHAPES`], full and both parities, on `gauge`. Gaussian inputs
    /// match by bit pattern. A point source (a unit spin–color component at
    /// one site, per slice and column) leaves most of the result exactly
    /// zero, and there the two may disagree in the zero's sign alone:
    /// `−(a + b)` and `(−a) + (−b)` are the same value, but the sandwich
    /// negates a `+0` sum to `−0`. Each real is held to "bits equal, or
    /// both ±0"; returns how many reals were zeros of opposite sign.
    fn adjoint_matches_sandwich<R: Real, G: GaugeLinks<R>>(lat: &Lattice, gauge: &G) -> usize {
        let hop = HoppingKernel::new(lat, gauge, true);
        let mut zero_signs = 0;
        for parity in [None, Some(Parity::Even), Some(Parity::Odd)] {
            let rows = parity.map_or(lat.volume(), |_| lat.half_volume());
            for (l5, nrhs) in LANE_SHAPES {
                let n = l5 * rows * nrhs;
                let what = format!("{} {parity:?} l5 {l5} nrhs {nrhs}", R::NAME);
                let gaussian = FermionField::<R>::gaussian(n, 23).data;
                let mut out = vec![Spinor::zero(); n];
                fused(&hop, &mut out, &gaussian, parity, (l5, nrhs), true);
                let want = gamma5_sandwich(&hop, &gaussian, parity, nrhs);
                assert!(real_bits(&out) == real_bits(&want), "gaussian {what}");

                let mut point = vec![Spinor::zero(); n];
                for (s, j) in (0..l5).flat_map(|s| (0..nrhs).map(move |j| (s, j))) {
                    point[(s * rows + 5) * nrhs + j] = Spinor::unit((s + j) % 4, (s + 2 * j) % 3);
                }
                fused(&hop, &mut out, &point, parity, (l5, nrhs), true);
                let want = gamma5_sandwich(&hop, &point, parity, nrhs);
                for (i, (&got, &want)) in real_bits(&out).iter().zip(&real_bits(&want)).enumerate()
                {
                    let both_zero = f64::from_bits(got) == 0.0 && f64::from_bits(want) == 0.0;
                    assert!(got == want || both_zero, "point source {what}, real {i}");
                    zero_signs += usize::from(got != want);
                }
            }
        }
        zero_signs
    }

    /// `H†` runs as the stencil with the projector signs swapped, held to
    /// the γ5 sandwich it replaces, in both precisions on a hot and a cold
    /// gauge. The point sources must show at least one zero of the other
    /// sign, or the relaxed comparison would be checking nothing.
    #[test]
    fn adjoint_sweep_is_the_gamma5_sandwich() {
        let lat = Lattice::new([4, 4, 2, 6]);
        let hot = GaugeField::<f64>::hot(&lat, 29);
        let cold = GaugeField::<f64>::cold(&lat);
        for gauge in [&hot, &cold] {
            let flipped = adjoint_matches_sandwich(&lat, gauge)
                + adjoint_matches_sandwich(&lat, &gauge.cast::<f32>());
            assert!(flipped > 0, "a point source shows a zero of the other sign");
        }
    }

    /// `H[U′] Ωψ = Ω H[U] ψ` under a random gauge transform `Ω`, for both
    /// directions, full and both parities, at a lane shape with full, half
    /// and `hop_site` spinors.
    #[test]
    fn hop_is_gauge_covariant() {
        use crate::dirac::testing::{gauge_transform, rel_err, rotate};
        let (lat, gauge, _) = setup([4, 4, 2, 6], 31);
        let (omega, transformed) = gauge_transform(&gauge, 37);
        let (hop, hop_t) = (
            HoppingKernel::new(&lat, &gauge, true),
            HoppingKernel::new(&lat, &transformed, true),
        );
        let all: Vec<u32> = (0..lat.volume() as u32).collect();
        for parity in [None, Some(Parity::Even), Some(Parity::Odd)] {
            let (from, to) = match parity {
                None => (&all[..], &all[..]),
                Some(p) => (lat.sites_with_parity(p.other()), lat.sites_with_parity(p)),
            };
            let psi = FermionField::<f64>::gaussian(3 * from.len(), 41).data;
            for dagger in [false, true] {
                let mut h = vec![Spinor::zero(); psi.len()];
                fused(&hop, &mut h, &psi, parity, (3, 1), dagger);
                let mut h_t = vec![Spinor::zero(); psi.len()];
                fused(
                    &hop_t,
                    &mut h_t,
                    &rotate(&omega, from, &psi),
                    parity,
                    (3, 1),
                    dagger,
                );
                let err = rel_err(&h_t, &rotate(&omega, to, &h));
                assert!(err <= 1e-13, "{parity:?} dagger {dagger}: {err}");
            }
        }
    }

    #[test]
    fn hopping_on_cold_gauge_is_translation_stencil() {
        // With U = 1 and periodic BCs, H applied to a constant spinor gives
        // Σμ (1−γμ)ψ + (1+γμ)ψ = 8ψ.
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::cold(&lat);
        let hop = HoppingKernel::new(&lat, &gauge, false);
        let mut psi = FermionField::zeros(lat.volume());
        let constant = {
            let mut s: Spinor<f64> = Spinor::zero();
            for sp in 0..4 {
                for c in 0..3 {
                    s.s[sp].c[c] =
                        crate::complex::Complex::from_f64(0.3 * (sp as f64) + 0.1, c as f64);
                }
            }
            s
        };
        psi.data.iter_mut().for_each(|s| *s = constant);
        let mut out = vec![Spinor::zero(); lat.volume()];
        fused(&hop, &mut out, &psi.data, None, (1, 1), false);
        for x in 0..lat.volume() {
            let expect = constant.scale(8.0);
            assert!((out[x] - expect).norm_sqr() < 1e-20);
        }
    }
}
