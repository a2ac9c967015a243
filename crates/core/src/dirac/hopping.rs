//! The radius-one Wilson hopping stencil — the hot kernel of the whole code.
//!
//! `H ψ(x) = Σμ [(1−γμ) Uμ(x) ψ(x+μ̂) + (1+γμ) U†μ(x−μ̂) ψ(x−μ̂)]`
//!
//! Each direction is applied with the half-spinor trick: `(1∓γμ)ψ` has rank
//! two, so only two color-vectors are multiplied by the link and the other
//! two spin components are reconstructed by a phase — exactly the matrix-free
//! stencil structure QUDA uses. The same kernel serves the 4D Wilson operator
//! and (slice-by-slice) the 5D Möbius domain-wall operator.
//!
//! Antiperiodic temporal boundary conditions for fermions are applied as a
//! sign on hops whose neighbor lookup wrapped in `t`.

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

/// One site of `H ψ` in half-spinor form, with all geometry abstracted out:
/// neighbor indices come from `nb`, spinors from `fetch`, links from
/// `link(site, mu)`. The single-domain kernel resolves these against the
/// full lattice; the sharded halo-exchange kernel resolves them against
/// extended local tables whose wrap flags were computed from *global*
/// coordinates. Both paths share this one function, so their outputs are
/// bit-identical by construction.
#[inline]
pub fn hop_site<R: Real>(
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

        // Forward hop: (1 − γμ) Uμ(x) ψ(x+μ̂).
        {
            let nbr = nb.fwd[mu] as usize;
            let flip = antiperiodic_t && mu == 3 && (nb.fwd_wrap >> mu) & 1 == 1;
            let psi = fetch(nbr);
            let u = link(x, mu);
            let h0 = psi.s[0] - psi.s[p0].scale_c(phi0);
            let h1 = psi.s[1] - psi.s[p1].scale_c(phi1);
            let mut t = [u.mul_vec(&h0), u.mul_vec(&h1)];
            if flip {
                t[0] = -t[0];
                t[1] = -t[1];
            }
            r.s[0] += t[0];
            r.s[1] += t[1];
            r.s[2] += -(t[p2].scale_c(phi2));
            r.s[3] += -(t[p3].scale_c(phi3));
        }

        // Backward hop: (1 + γμ) U†μ(x−μ̂) ψ(x−μ̂).
        {
            let nbr = nb.bwd[mu] as usize;
            let flip = antiperiodic_t && mu == 3 && (nb.bwd_wrap >> mu) & 1 == 1;
            let psi = fetch(nbr);
            let u = link(nbr, mu);
            let h0 = psi.s[0] + psi.s[p0].scale_c(phi0);
            let h1 = psi.s[1] + psi.s[p1].scale_c(phi1);
            let mut t = [u.dagger_mul_vec(&h0), u.dagger_mul_vec(&h1)];
            if flip {
                t[0] = -t[0];
                t[1] = -t[1];
            }
            r.s[0] += t[0];
            r.s[1] += t[1];
            r.s[2] += t[p2].scale_c(phi2);
            r.s[3] += t[p3].scale_c(phi3);
        }
    }
    r
}

/// One site-row of the blocked hop. The eight links of site `x` are
/// fetched once into locals and every RHS column reuses them — that is the
/// link-traffic amortization of the batched path. Each column is then
/// evaluated by the very same [`hop_site`], so column `j` of the output is
/// bit-identical to a single-RHS application of that column.
///
/// `fetch(site, j)` returns column `j` of the neighbor spinor; `out` is the
/// `nrhs`-long interleaved row at site `x`.
///
/// A one-column row has no second column to reuse the links, so it calls
/// [`hop_site`] with the caller's `link` directly instead of copying eight
/// links into locals first: the scalar operator forms run as one-column
/// blocks, and the copy alone was measured at 1–5 % of `fh_small`'s
/// time-to-solution (DESIGN.md, "Data layout & vectorization"). This is
/// the kernel-side twin of `block.rs`'s `nrhs == 1` BLAS dispatch, and the
/// only place in the Dirac layer that knows a block may be one column wide.
#[inline]
pub fn hop_site_block<R: Real>(
    nb: &Neighbors,
    x: usize,
    antiperiodic_t: bool,
    fetch: &impl Fn(usize, usize) -> Spinor<R>,
    link: &impl Fn(usize, usize) -> Su3<R>,
    out: &mut [Spinor<R>],
) {
    if let [o] = out {
        *o = hop_site(nb, x, antiperiodic_t, &|e| fetch(e, 0), link);
        return;
    }
    let fwd: [Su3<R>; ND] = std::array::from_fn(|mu| link(x, mu));
    let bwd: [Su3<R>; ND] = std::array::from_fn(|mu| link(nb.bwd[mu] as usize, mu));
    // `hop_site` asks for `link(x, mu)` on forward hops and
    // `link(nb.bwd[mu], mu)` on backward ones; when a backward neighbor
    // coincides with `x` (extent-1 direction) the forward cache is the same
    // link, so the site test is exact.
    let cached = |site: usize, mu: usize| if site == x { fwd[mu] } else { bwd[mu] };
    for (j, o) in out.iter_mut().enumerate() {
        *o = hop_site(nb, x, antiperiodic_t, &|e| fetch(e, j), &cached);
    }
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

    /// The lattice this kernel runs on.
    pub fn lattice(&self) -> &Lattice {
        self.lattice
    }

    /// One site of `H ψ`. `fetch` maps a lexicographic neighbor index to the
    /// neighbor's spinor (identity for full-volume vectors, checkerboard
    /// lookup for parity-restricted ones).
    #[inline]
    fn site_hop(&self, x: usize, fetch: &impl Fn(usize) -> Spinor<R>) -> Spinor<R> {
        let nb = self.lattice.neighbors(x);
        hop_site(nb, x, self.antiperiodic_t, fetch, &|site, mu| {
            self.gauge.link(site, mu)
        })
    }

    /// `out = H inp` on the full lattice; vectors are lexicographic,
    /// `volume` spinors long. `grain` is the autotuned parallel chunk size.
    pub fn apply_full(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], grain: usize) {
        let v = self.lattice.volume();
        assert_eq!(out.len(), v);
        assert_eq!(inp.len(), v);
        let fetch = |i: usize| inp[i];
        rayon::for_each_chunk_mut(out, grain, |base, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                *o = self.site_hop(base + k, &fetch);
            }
        });
    }

    /// `out = H_{po,pi} inp`: checkerboarded hop from parity `pi = !po` onto
    /// parity `po`. Both vectors are half-volume, checkerboard-indexed.
    pub fn apply_parity(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        out_parity: Parity,
        grain: usize,
    ) {
        let hv = self.lattice.half_volume();
        assert_eq!(out.len(), hv);
        assert_eq!(inp.len(), hv);
        let sites = self.lattice.sites_with_parity(out_parity);
        let fetch = |lex: usize| inp[self.lattice.cb_index(lex)];
        rayon::for_each_chunk_mut(out, grain, |base, chunk| {
            for (k, o) in chunk.iter_mut().enumerate() {
                let lex = sites[base + k] as usize;
                *o = self.site_hop(lex, &fetch);
            }
        });
    }

    /// Fused multi-slice hop on the full lattice: the sixteen stencil links
    /// of every 4D site are fetched once and reused across all `l5` s-slices
    /// — the 5th-dimension fusion that stops the Möbius operator from
    /// re-streaming the gauge field per slice. Slice `s`'s hop value is
    /// computed by the very same [`hop_site`] as [`Self::apply_full`] (the
    /// cached-link closure reproduces the per-call link fetches bit for
    /// bit), and `finish(s, x, h)` maps it to the value stored at
    /// `out[s·V + x]`. With `l5 = 1` this doubles as a fused 4D hop whose
    /// diagonal/algebra pass is folded into the single output write.
    pub fn apply_full_fused_5d<F>(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        l5: usize,
        grain: usize,
        finish: &F,
    ) where
        F: Fn(usize, usize, Spinor<R>) -> Spinor<R> + Sync,
    {
        let v = self.lattice.volume();
        assert_eq!(out.len(), v * l5);
        assert_eq!(inp.len(), v * l5);
        // `move` captures the whole `SendPtr` wrapper (edition-2021 disjoint
        // field capture would otherwise borrow the raw pointer, which is not
        // `Sync`).
        let optr = SendPtr(out.as_mut_ptr());
        rayon::for_each_chunk(v, grain, move |range| {
            simd::dispatch(
                self,
                #[inline(always)]
                |this| {
                    for x in range {
                        let nb = this.lattice.neighbors(x);
                        let fwd: [Su3<R>; ND] = std::array::from_fn(|mu| this.gauge.link(x, mu));
                        let bwd: [Su3<R>; ND] =
                            std::array::from_fn(|mu| this.gauge.link(nb.bwd[mu] as usize, mu));
                        let cached =
                            |site: usize, mu: usize| if site == x { fwd[mu] } else { bwd[mu] };
                        for s in 0..l5 {
                            let slice = &inp[s * v..(s + 1) * v];
                            let h = hop_site(nb, x, this.antiperiodic_t, &|e| slice[e], &cached);
                            // SAFETY: element `s·v + x` is written exactly
                            // once — `x` ranges over disjoint chunks across
                            // tasks and `s` is the task-local loop — so no
                            // two tasks alias any element, and the index
                            // stays in bounds (`x < v`, `s < l5`).
                            unsafe { *optr.get().add(s * v + x) = finish(s, x, h) };
                        }
                    }
                },
            )
        });
    }

    /// Checkerboarded counterpart of [`Self::apply_full_fused_5d`]: hops from
    /// parity `!out_parity` onto `out_parity`, slices are `half_volume` long,
    /// `load` maps every neighbor spinor as it is fetched (the identity for
    /// `H`; γ5 for the adjoint `H† = γ5 H γ5`, which then also applies γ5 in
    /// `finish` — the same values a separate γ5 pass over `inp` would feed
    /// the stencil), and `finish(s, cb, h)` maps the slice-`s` hop at
    /// checkerboard site `cb` to the value stored at `out[s·hv + cb]`.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_parity_fused_5d<L, F>(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        out_parity: Parity,
        l5: usize,
        grain: usize,
        load: &L,
        finish: &F,
    ) where
        L: Fn(Spinor<R>) -> Spinor<R> + Sync,
        F: Fn(usize, usize, Spinor<R>) -> Spinor<R> + Sync,
    {
        let hv = self.lattice.half_volume();
        assert_eq!(out.len(), hv * l5);
        assert_eq!(inp.len(), hv * l5);
        let sites = self.lattice.sites_with_parity(out_parity);
        // `move` captures the whole `SendPtr` wrapper, as above.
        let optr = SendPtr(out.as_mut_ptr());
        rayon::for_each_chunk(hv, grain, move |range| {
            simd::dispatch(
                self,
                #[inline(always)]
                |this| {
                    for cb in range {
                        let lex = sites[cb] as usize;
                        let nb = this.lattice.neighbors(lex);
                        let fwd: [Su3<R>; ND] = std::array::from_fn(|mu| this.gauge.link(lex, mu));
                        let bwd: [Su3<R>; ND] =
                            std::array::from_fn(|mu| this.gauge.link(nb.bwd[mu] as usize, mu));
                        let cached =
                            |site: usize, mu: usize| if site == lex { fwd[mu] } else { bwd[mu] };
                        for s in 0..l5 {
                            let slice = &inp[s * hv..(s + 1) * hv];
                            let fetch = |e: usize| load(slice[this.lattice.cb_index(e)]);
                            let h = hop_site(nb, lex, this.antiperiodic_t, &fetch, &cached);
                            // SAFETY: element `s·hv + cb` is written exactly
                            // once — `cb` ranges over disjoint chunks across
                            // tasks and `s` is the task-local loop — so no
                            // two tasks alias any element, and the index
                            // stays in bounds.
                            unsafe { *optr.get().add(s * hv + cb) = finish(s, cb, h) };
                        }
                    }
                },
            )
        });
    }

    /// `out = H inp` on the full lattice for an interleaved block of `nrhs`
    /// right-hand-sides (slices are `volume * nrhs` spinors, RHS-innermost).
    /// `grain` counts sites as in [`Self::apply_full`]; chunks are aligned
    /// to whole site-rows so every column reproduces `apply_full` exactly.
    pub fn apply_full_block(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
        grain: usize,
    ) {
        let v = self.lattice.volume();
        assert!(nrhs > 0, "a block needs at least one column");
        assert_eq!(out.len(), v * nrhs);
        assert_eq!(inp.len(), v * nrhs);
        let fetch = |i: usize, j: usize| inp[i * nrhs + j];
        rayon::for_each_chunk_mut(out, grain.max(1) * nrhs, |base, chunk| {
            for (k, row) in chunk.chunks_mut(nrhs).enumerate() {
                let x = base / nrhs + k;
                let nb = self.lattice.neighbors(x);
                hop_site_block(
                    nb,
                    x,
                    self.antiperiodic_t,
                    &fetch,
                    &|site, mu| self.gauge.link(site, mu),
                    row,
                );
            }
        });
    }

    /// Blocked checkerboarded hop onto parity `out_parity`; both slices are
    /// `half_volume * nrhs`, RHS-innermost.
    pub fn apply_parity_block(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        out_parity: Parity,
        nrhs: usize,
        grain: usize,
    ) {
        let hv = self.lattice.half_volume();
        assert!(nrhs > 0, "a block needs at least one column");
        assert_eq!(out.len(), hv * nrhs);
        assert_eq!(inp.len(), hv * nrhs);
        let sites = self.lattice.sites_with_parity(out_parity);
        let fetch = |lex: usize, j: usize| inp[self.lattice.cb_index(lex) * nrhs + j];
        rayon::for_each_chunk_mut(out, grain.max(1) * nrhs, |base, chunk| {
            for (k, row) in chunk.chunks_mut(nrhs).enumerate() {
                let lex = sites[base / nrhs + k] as usize;
                let nb = self.lattice.neighbors(lex);
                hop_site_block(
                    nb,
                    lex,
                    self.antiperiodic_t,
                    &fetch,
                    &|site, mu| self.gauge.link(site, mu),
                    row,
                );
            }
        });
    }

    /// Reference implementation using dense γ-matrices and full 4-spin link
    /// multiplication. Used only by tests to validate the half-spinor path.
    pub fn apply_full_reference(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
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
    use crate::field::{FermionField, GaugeField};

    fn setup(dims: [usize; 4], seed: u64) -> (Lattice, GaugeField<f64>, FermionField<f64>) {
        let lat = Lattice::new(dims);
        let gauge = GaugeField::hot(&lat, seed);
        let psi = FermionField::gaussian(lat.volume(), seed + 1);
        (lat, gauge, psi)
    }

    #[test]
    fn half_spinor_path_matches_dense_reference() {
        let (lat, gauge, psi) = setup([4, 4, 4, 4], 9);
        for apbc in [false, true] {
            let hop = HoppingKernel::new(&lat, &gauge, apbc);
            let mut fast = vec![Spinor::zero(); lat.volume()];
            let mut slow = vec![Spinor::zero(); lat.volume()];
            hop.apply_full(&mut fast, &psi.data, 64);
            hop.apply_full_reference(&mut slow, &psi.data);
            let diff = crate::blas::sub(&fast, &slow);
            let rel = crate::blas::norm_sqr(&diff) / crate::blas::norm_sqr(&slow);
            assert!(rel < 1e-24, "apbc={apbc} relative error {rel}");
        }
    }

    #[test]
    fn grain_size_does_not_change_result() {
        let (lat, gauge, psi) = setup([4, 4, 2, 6], 11);
        let hop = HoppingKernel::new(&lat, &gauge, true);
        let mut a = vec![Spinor::zero(); lat.volume()];
        let mut b = vec![Spinor::zero(); lat.volume()];
        hop.apply_full(&mut a, &psi.data, 1);
        hop.apply_full(&mut b, &psi.data, 4096);
        assert_eq!(a, b);
    }

    #[test]
    fn parity_kernels_tile_the_full_application() {
        let (lat, gauge, psi) = setup([4, 4, 4, 4], 13);
        let hop = HoppingKernel::new(&lat, &gauge, true);

        let mut full = vec![Spinor::zero(); lat.volume()];
        hop.apply_full(&mut full, &psi.data, 128);

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
        hop.apply_parity(&mut even_out, &odd_in, Parity::Even, 64);
        hop.apply_parity(&mut odd_out, &even_in, Parity::Odd, 64);

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

    #[test]
    fn blocked_hop_is_bit_identical_per_column() {
        let (lat, gauge, _) = setup([4, 4, 2, 6], 17);
        let v = lat.volume();
        let hop = HoppingKernel::new(&lat, &gauge, true);
        for nrhs in [1usize, 3, 4] {
            let cols: Vec<Vec<Spinor<f64>>> = (0..nrhs)
                .map(|j| FermionField::gaussian(v, 100 + j as u64).data)
                .collect();
            let block = crate::block::BlockSpinor::from_columns(&cols);
            let mut out = crate::block::BlockSpinor::zeros(v, nrhs);
            hop.apply_full_block(out.data_mut(), block.data(), nrhs, 64);
            for (j, c) in cols.iter().enumerate() {
                let mut single = vec![Spinor::zero(); v];
                hop.apply_full(&mut single, c, 64);
                assert_eq!(out.col(j), single, "column {j} of {nrhs}");
            }
        }
    }

    #[test]
    fn blocked_parity_hop_is_bit_identical_per_column() {
        let (lat, gauge, _) = setup([4, 4, 4, 4], 23);
        let hv = lat.half_volume();
        let hop = HoppingKernel::new(&lat, &gauge, true);
        for nrhs in [1usize, 3] {
            let cols: Vec<Vec<Spinor<f64>>> = (0..nrhs)
                .map(|j| FermionField::gaussian(hv, 200 + j as u64).data)
                .collect();
            let block = crate::block::BlockSpinor::from_columns(&cols);
            for parity in [Parity::Even, Parity::Odd] {
                let mut out = crate::block::BlockSpinor::zeros(hv, nrhs);
                hop.apply_parity_block(out.data_mut(), block.data(), parity, nrhs, 64);
                for (j, c) in cols.iter().enumerate() {
                    let mut single = vec![Spinor::zero(); hv];
                    hop.apply_parity(&mut single, c, parity, 64);
                    assert_eq!(out.col(j), single, "parity {parity:?} column {j} of {nrhs}");
                }
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
        hop.apply_full(&mut out, &psi.data, 64);
        for x in 0..lat.volume() {
            let expect = constant.scale(8.0);
            assert!((out[x] - expect).norm_sqr() < 1e-20);
        }
    }
}
