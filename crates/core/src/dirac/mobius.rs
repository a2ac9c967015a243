//! The Möbius domain-wall Dirac operator — the discretization used by the
//! paper — and its 4D-red–black preconditioned Schur complement.
//!
//! With `D_W` the 4D Wilson operator at negative mass `−M5` (diagonal part
//! `d = 4 − M5`), the Möbius operator on an `L5`-slice fifth dimension is
//!
//! `D(m) ψ_s = (b5 D_W + 1) ψ_s + (c5 D_W − 1)·shift(ψ)_s`
//!
//! where `shift(ψ)_s = P₋ ψ_{s+1} + P₊ ψ_{s−1}` and the wraps at `s = 0` and
//! `s = L5−1` carry the factor `−m` (the physical quark mass coupling the
//! walls). Setting `b5 = 1, c5 = 0` recovers the Shamir operator.
//!
//! Grouping terms, `D = A − ½ H ∘ ρ` where `A = α + β·shift`
//! (`α = b5·d + 1`, `β = c5·d − 1`) and `ρ = b5 + c5·shift` act only in the
//! fifth dimension and spin. `A` (the site-diagonal block of the 4D
//! checkerboarding) is inverted in closed form by two precomputed real
//! `L5×L5` matrices, one per chirality — that inverse is what makes the
//! paper's "red–black preconditioned domain-wall CG" possible.
//!
//! Note that for `c5 ≠ 0` the operator is *not* Γ5R5-hermitian: the hopping
//! `H` carries `(1∓γμ)` factors that anticommute with the γ5 inside the
//! `P±` of `shift`, so `H∘ρ ≠ ρ∘H`. The adjoint is therefore implemented
//! explicitly (`D† = A† − ½ ρ† γ5 H γ5`), exactly as QUDA's `Mdag` does.
//!
//! Vectors are `s`-major: the spinor at `(s, x)` lives at `s·V + x`, so each
//! `s`-slice is a contiguous 4D field; a block of `nrhs` columns interleaves
//! them innermost, `(s·V + x)·nrhs + j`. The fifth-dimension algebra acts
//! per `(s, 4D-site)` element, so it runs on a block unchanged with slice
//! length `V·nrhs`, and the one fused hopping sweep covers every slice and
//! column.

use super::hopping::{HoppingKernel, HOPPING_FLOPS_PER_SITE};
use super::{DiracOp, LinearOp};
use crate::field::GaugeLinks;
use crate::lattice::{Lattice, Parity};
use crate::real::Real;
use crate::spinor::Spinor;
use parking_lot::Mutex;
use rayon::prelude::*;

/// Physical and algorithmic parameters of the Möbius operator.
#[derive(Clone, Copy, Debug)]
pub struct MobiusParams {
    /// Fifth-dimension extent.
    pub l5: usize,
    /// Domain-wall height `M5` (typically 1.8).
    pub m5: f64,
    /// Möbius kernel parameter `b5`.
    pub b5: f64,
    /// Möbius kernel parameter `c5` (0 recovers Shamir).
    pub c5: f64,
    /// Bare quark mass `m` coupling the walls.
    pub mass: f64,
}

impl MobiusParams {
    /// A standard Möbius setup (`b5 = 1.5, c5 = 0.5`, scale `b5+c5 = 2`).
    pub fn standard(l5: usize, mass: f64) -> Self {
        Self {
            l5,
            m5: 1.8,
            b5: 1.5,
            c5: 0.5,
            mass,
        }
    }

    /// The Shamir limit.
    pub fn shamir(l5: usize, mass: f64) -> Self {
        Self {
            l5,
            m5: 1.8,
            b5: 1.0,
            c5: 0.0,
            mass,
        }
    }

    /// Diagonal of `D_W(−M5)`.
    pub fn d_diag(&self) -> f64 {
        4.0 - self.m5
    }

    /// `α = b5·d + 1`.
    pub fn alpha(&self) -> f64 {
        self.b5 * self.d_diag() + 1.0
    }

    /// `β = c5·d − 1`.
    pub fn beta(&self) -> f64 {
        self.c5 * self.d_diag() - 1.0
    }
}

/// Invert a dense real matrix by Gauss–Jordan elimination with partial
/// pivoting. Panics on a singular matrix; the `A±` blocks are provably
/// nonsingular for `|β/α| < 1`, which all sensible parameters satisfy.
fn invert_real_matrix(a: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = a.len();
    let mut aug: Vec<Vec<f64>> = a
        .iter()
        .enumerate()
        .map(|(i, row)| {
            assert_eq!(row.len(), n, "matrix must be square");
            let mut r = row.clone();
            r.extend((0..n).map(|j| if i == j { 1.0 } else { 0.0 }));
            r
        })
        .collect();
    for col in 0..n {
        // `total_cmp` orders identically to `partial_cmp` on the
        // non-negative magnitudes compared here, without a NaN panic
        // path; `col..n` is nonempty (col < n), so the fallback pivot
        // never actually fires.
        let pivot = (col..n)
            .max_by(|&i, &j| aug[i][col].abs().total_cmp(&aug[j][col].abs()))
            .unwrap_or(col);
        assert!(aug[pivot][col].abs() > 1e-300, "singular A-block");
        aug.swap(col, pivot);
        let inv = 1.0 / aug[col][col];
        for v in aug[col].iter_mut() {
            *v *= inv;
        }
        for row in 0..n {
            if row != col {
                let f = aug[row][col];
                if f != 0.0 {
                    for k in 0..2 * n {
                        let sub = f * aug[col][k];
                        aug[row][k] -= sub;
                    }
                }
            }
        }
    }
    aug.into_iter().map(|r| r[n..].to_vec()).collect()
}

/// Builds `A±` and their inverses for the given parameters.
///
/// `A⁺` couples chirality-plus spin components to `s−1` (wrap `−m`);
/// `A⁻` couples chirality-minus components to `s+1` (wrap `−m`).
fn build_a_inverses(p: &MobiusParams) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let l5 = p.l5;
    let (alpha, beta, m) = (p.alpha(), p.beta(), p.mass);
    let mut a_plus = vec![vec![0.0; l5]; l5];
    let mut a_minus = vec![vec![0.0; l5]; l5];
    for s in 0..l5 {
        a_plus[s][s] = alpha;
        a_minus[s][s] = alpha;
        if s > 0 {
            a_plus[s][s - 1] = beta;
        } else {
            a_plus[0][l5 - 1] = -m * beta;
        }
        if s + 1 < l5 {
            a_minus[s][s + 1] = beta;
        } else {
            a_minus[l5 - 1][0] = -m * beta;
        }
    }
    (invert_real_matrix(&a_plus), invert_real_matrix(&a_minus))
}

/// Shared fifth-dimension machinery for the full and preconditioned forms.
struct FifthDim<R> {
    params: MobiusParams,
    /// Inverse of the chirality-plus block, row-major.
    ainv_plus: Vec<R>,
    /// Inverse of the chirality-minus block, row-major.
    ainv_minus: Vec<R>,
}

impl<R: Real> FifthDim<R> {
    fn new(params: MobiusParams) -> Self {
        assert!(params.l5 >= 2, "L5 must be at least 2");
        let (p, m) = build_a_inverses(&params);
        let flat =
            |m: Vec<Vec<f64>>| -> Vec<R> { m.into_iter().flatten().map(R::from_f64).collect() };
        Self {
            params,
            ainv_plus: flat(p),
            ainv_minus: flat(m),
        }
    }

    /// `out_s = P₋ in_{s+1} + P₊ in_{s−1}` with `−m` wraps (`dagger = false`),
    /// or its adjoint `out_s = P₋ in_{s−1} + P₊ in_{s+1}` with the wraps
    /// mirrored (`dagger = true`). `slice_len` is the 4D vector length
    /// (volume or half-volume). The per-element oracle of [`Self::shift_at`].
    #[cfg(test)]
    fn shift(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], slice_len: usize, dagger: bool) {
        let l5 = self.params.l5;
        let mm = R::from_f64(-self.params.mass);
        out.par_chunks_mut(slice_len)
            .enumerate()
            .for_each(|(s, out_slice)| {
                let up = if s + 1 < l5 { s + 1 } else { 0 };
                let dn = if s > 0 { s - 1 } else { l5 - 1 };
                let up_scale = if s + 1 < l5 { R::ONE } else { mm };
                let dn_scale = if s > 0 { R::ONE } else { mm };
                let up_slice = &inp[up * slice_len..(up + 1) * slice_len];
                let dn_slice = &inp[dn * slice_len..(dn + 1) * slice_len];
                for (i, o) in out_slice.iter_mut().enumerate() {
                    *o = if dagger {
                        // shift† = P₋ S₋ + P₊ S₊.
                        dn_slice[i].chiral_project(false).scale(dn_scale)
                            + up_slice[i].chiral_project(true).scale(up_scale)
                    } else {
                        // shift = P₋ S₊ + P₊ S₋.
                        up_slice[i].chiral_project(false).scale(up_scale)
                            + dn_slice[i].chiral_project(true).scale(dn_scale)
                    };
                }
            });
    }

    /// One element of [`Self::shift`]: the shifted spinor at 5D index
    /// `(s, i)`. The per-element operation chain is identical to the slice
    /// loop in `shift`, so fused callers stay bit-identical to the two-pass
    /// path.
    #[inline(always)]
    fn shift_at(
        &self,
        inp: &[Spinor<R>],
        slice_len: usize,
        s: usize,
        i: usize,
        dagger: bool,
    ) -> Spinor<R> {
        self.shift_at_mapped(inp, slice_len, s, i, dagger, |x| x)
    }

    /// [`Self::shift_at`] on `map(inp)`: `map` runs on the two fetched
    /// neighbours, so the chain is `shift_at`'s on a stored mapped vector.
    #[inline(always)]
    fn shift_at_mapped(
        &self,
        inp: &[Spinor<R>],
        slice_len: usize,
        s: usize,
        i: usize,
        dagger: bool,
        map: impl Fn(Spinor<R>) -> Spinor<R>,
    ) -> Spinor<R> {
        let l5 = self.params.l5;
        let mm = R::from_f64(-self.params.mass);
        let up = if s + 1 < l5 { s + 1 } else { 0 };
        let dn = if s > 0 { s - 1 } else { l5 - 1 };
        let up_scale = if s + 1 < l5 { R::ONE } else { mm };
        let dn_scale = if s > 0 { R::ONE } else { mm };
        let u = map(inp[up * slice_len + i]);
        let d = map(inp[dn * slice_len + i]);
        if dagger {
            d.chiral_project(false).scale(dn_scale) + u.chiral_project(true).scale(up_scale)
        } else {
            u.chiral_project(false).scale(up_scale) + d.chiral_project(true).scale(dn_scale)
        }
    }

    /// Column-wise fused precompute of *both* diagonal-sector vectors:
    /// `rho = b5·ψ + c5·shift(ψ)` and `diag = α·ψ + β·shift(ψ)` in a single
    /// sweep parallelized over 4D sites. For a fixed site the whole s-column
    /// of `ψ` stays cache-resident across the inner s-loop, so each element
    /// is streamed from memory once instead of three times per output (and
    /// the shifted spinor is computed once and shared by both outputs —
    /// value-reuse, not reassociation, so both vectors carry the identical
    /// per-element chains as the unfused `affine_shift` oracle).
    fn rho_and_diag(
        &self,
        rho: &mut [Spinor<R>],
        diag: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        slice_len: usize,
    ) {
        let l5 = self.params.l5;
        let n = inp.len();
        assert_eq!(rho.len(), n);
        assert_eq!(diag.len(), n);
        assert_eq!(n, l5 * slice_len);
        let grain = crate::blas::grain_for(slice_len);
        let rptr = super::hopping::SendPtr(rho.as_mut_ptr());
        let dptr = super::hopping::SendPtr(diag.as_mut_ptr());
        rayon::for_each_chunk(slice_len, grain, |range| {
            crate::simd::dispatch(
                self,
                #[inline(always)]
                |this| {
                    let (b5, c5) = (R::from_f64(this.params.b5), R::from_f64(this.params.c5));
                    let (al, be) = (
                        R::from_f64(this.params.alpha()),
                        R::from_f64(this.params.beta()),
                    );
                    for i in range {
                        for s in 0..l5 {
                            let idx = s * slice_len + i;
                            let sh = this.shift_at(inp, slice_len, s, i, false);
                            // Read once: `inp` is no argument of the AVX2
                            // wrapper, so LLVM cannot tell that the `rho`
                            // write leaves it unchanged.
                            let x = inp[idx];
                            // SAFETY: each (s, i) pair is written by exactly
                            // one task (`i` ranges over disjoint chunks, `s`
                            // is task-local), and `idx < l5·slice_len` keeps
                            // both writes in bounds.
                            unsafe {
                                *rptr.get().add(idx) = x.scale(b5) + sh.scale(c5);
                                *dptr.get().add(idx) = x.scale(al) + sh.scale(be);
                            }
                        }
                    }
                },
            )
        });
    }

    /// Row `s_out` of the closed-form inverse applied to one s-column:
    /// `Σ_{s_in} inv[s_out][s_in]·col(s_in)`, chirality-plus spins (0, 1)
    /// through `inv_up` and minus spins (2, 3) through `inv_dn`, accumulated
    /// in ascending `s_in` — the chain of [`Self::apply_a_inverse`].
    #[inline(always)]
    fn ainv_row<'c>(
        &self,
        inv_up: &[R],
        inv_dn: &[R],
        s_out: usize,
        col: impl Fn(usize) -> &'c Spinor<R>,
    ) -> Spinor<R> {
        let l5 = self.params.l5;
        let mut acc = Spinor::zero();
        for s_in in 0..l5 {
            let wp = inv_up[s_out * l5 + s_in];
            let wm = inv_dn[s_out * l5 + s_in];
            let src = col(s_in);
            acc.s[0] += src.s[0].scale(wp);
            acc.s[1] += src.s[1].scale(wp);
            acc.s[2] += src.s[2].scale(wm);
            acc.s[3] += src.s[3].scale(wm);
        }
        acc
    }

    /// Run `body(range, col)` over the 4D sites in chunks, handing each
    /// chunk its own `L5`-spinor column out of the reusable slab `cols` (one
    /// row per chunk, so no chunk allocates and no `L5` is too long).
    fn for_each_column_chunk(
        &self,
        slice_len: usize,
        cols: &mut Vec<Spinor<R>>,
        body: impl Fn(std::ops::Range<usize>, &mut [Spinor<R>]) + Sync + Send,
    ) {
        let l5 = self.params.l5;
        let grain = crate::blas::grain_for(slice_len);
        cols.resize(slice_len.div_ceil(grain) * l5, Spinor::zero());
        let cptr = super::hopping::SendPtr(cols.as_mut_ptr());
        rayon::for_each_chunk(slice_len, grain, |range| {
            // SAFETY: chunk `range.start / grain` is run by exactly one task
            // and owns slab row `[chunk·l5, (chunk+1)·l5)`, which lies inside
            // the `⌈slice_len/grain⌉·l5` spinors `cols` was just resized to
            // and is disjoint from every other chunk's row.
            let col = unsafe {
                std::slice::from_raw_parts_mut(cptr.get().add(range.start / grain * l5), l5)
            };
            body(range, col);
        });
    }

    /// Column-wise fused `out = ρ(A⁻¹ in)`: for each 4D site, apply the
    /// `L5×L5` inverse to the whole s-column (the exact accumulation chain
    /// of [`Self::apply_a_inverse`], so each input element is read from
    /// memory once instead of `L5` times), then form
    /// `b5·(A⁻¹in) + c5·shift(A⁻¹in)` from the still-local column — the
    /// shift chain is [`Self::shift_at`] on the column itself.
    fn ainv_then_rho(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        slice_len: usize,
        cols: &mut Vec<Spinor<R>>,
    ) {
        let n = inp.len();
        assert_eq!(out.len(), n);
        assert_eq!(n, self.params.l5 * slice_len);
        let optr = super::hopping::SendPtr(out.as_mut_ptr());
        self.for_each_column_chunk(slice_len, cols, |range, col| {
            crate::simd::dispatch(
                self,
                #[inline(always)]
                |this| this.ainv_then_rho_range(&optr, inp, slice_len, range, col),
            )
        });
    }

    /// Chunk body of [`Self::ainv_then_rho`]: 4D sites `range`, whole
    /// s-columns staged in `col`. Unlike the other column sweeps it stays a
    /// method: as a `&mut` argument `col` is known not to alias the output
    /// writes, and folded into its closure the sweep loses 12 % of its
    /// 256-bit instructions.
    #[inline(always)]
    fn ainv_then_rho_range(
        &self,
        optr: &super::hopping::SendPtr<Spinor<R>>,
        inp: &[Spinor<R>],
        slice_len: usize,
        range: std::ops::Range<usize>,
        col: &mut [Spinor<R>],
    ) {
        let l5 = self.params.l5;
        let (b5, c5) = (R::from_f64(self.params.b5), R::from_f64(self.params.c5));
        for i in range {
            for (s_out, c) in col.iter_mut().enumerate() {
                *c = self.ainv_row(&self.ainv_plus, &self.ainv_minus, s_out, |s_in| {
                    &inp[s_in * slice_len + i]
                });
            }
            for s in 0..l5 {
                // `shift_at` on the local column: slice length 1, site 0.
                let sh = self.shift_at(col, 1, s, 0, false);
                // SAFETY: each (s, i) is written by exactly one task and
                // the index stays in bounds, as in `rho_and_diag`.
                unsafe {
                    *optr.get().add(s * slice_len + i) = col[s].scale(b5) + sh.scale(c5);
                }
            }
        }
    }

    /// One element of `f·ρ†(t′)` with `t′ = map(t)`:
    /// `(b5·t′ + c5·shift†(t′))·f` at `(s, i)`, the chain
    /// `offdiag_dagger_block` runs as an affine pass and a scale.
    #[inline(always)]
    fn scaled_rho_dagger_at(
        &self,
        t: &[Spinor<R>],
        slice_len: usize,
        s: usize,
        i: usize,
        map: impl Fn(Spinor<R>) -> Spinor<R> + Copy,
        f: R,
    ) -> Spinor<R> {
        let (b5, c5) = (R::from_f64(self.params.b5), R::from_f64(self.params.c5));
        let sh = self.shift_at_mapped(t, slice_len, s, i, true, map);
        (map(t[s * slice_len + i]).scale(b5) + sh.scale(c5)).scale(f)
    }

    /// Column-wise fused `out = (A†)⁻¹(−½ ρ†(t))`, the adjoint's mirror of
    /// [`Self::ainv_then_rho`]: the s-column of `−½ ρ†(t)` is staged in the
    /// chunk's slab row, then each output is one row of the
    /// chirality-swapped inverse (`A±` are mutual transposes) on it.
    fn rho_dagger_then_ainv(
        &self,
        out: &mut [Spinor<R>],
        t: &[Spinor<R>],
        slice_len: usize,
        cols: &mut Vec<Spinor<R>>,
    ) {
        let n = t.len();
        assert_eq!(out.len(), n);
        assert_eq!(n, self.params.l5 * slice_len);
        let optr = super::hopping::SendPtr(out.as_mut_ptr());
        self.for_each_column_chunk(slice_len, cols, |range, col| {
            crate::simd::dispatch(
                self,
                #[inline(always)]
                |this| {
                    let neg_half = R::from_f64(-0.5);
                    for i in range {
                        for (s, c) in col.iter_mut().enumerate() {
                            *c = this.scaled_rho_dagger_at(t, slice_len, s, i, |x| x, neg_half);
                        }
                        for s_out in 0..this.params.l5 {
                            let v =
                                this.ainv_row(&this.ainv_minus, &this.ainv_plus, s_out, |s_in| {
                                    &col[s_in]
                                });
                            // SAFETY: each (s_out, i) is written by exactly
                            // one task (`i` ranges over disjoint chunks,
                            // `s_out` is task-local) and
                            // `s_out·slice_len + i < l5·slice_len = out.len()`.
                            unsafe { *optr.get().add(s_out * slice_len + i) = v };
                        }
                    }
                },
            )
        });
    }

    /// Column-wise fused `out = A†ψ − f·ρ†(t′)` with `t′ = map(t)`, the
    /// adjoints' closing pass: `(α·ψ + β·shift†ψ) − (b5·t′ + c5·shift†(t′))·f`
    /// per element, with each site's s-columns of `ψ` and `t` cache-resident
    /// across the inner s-loop.
    fn a_dagger_minus_scaled_rho_dagger(
        &self,
        out: &mut [Spinor<R>],
        psi: &[Spinor<R>],
        t: &[Spinor<R>],
        slice_len: usize,
        map: impl Fn(Spinor<R>) -> Spinor<R> + Copy + Sync,
        f: f64,
    ) {
        let n = psi.len();
        assert_eq!(out.len(), n);
        assert_eq!(t.len(), n);
        assert_eq!(n, self.params.l5 * slice_len);
        let grain = crate::blas::grain_for(slice_len);
        let optr = super::hopping::SendPtr(out.as_mut_ptr());
        rayon::for_each_chunk(slice_len, grain, |range| {
            crate::simd::dispatch(
                self,
                #[inline(always)]
                |this| {
                    let (al, be) = (
                        R::from_f64(this.params.alpha()),
                        R::from_f64(this.params.beta()),
                    );
                    let f = R::from_f64(f);
                    for i in range {
                        for s in 0..this.params.l5 {
                            let idx = s * slice_len + i;
                            let diag = psi[idx].scale(al)
                                + this.shift_at(psi, slice_len, s, i, true).scale(be);
                            let rho = this.scaled_rho_dagger_at(t, slice_len, s, i, map, f);
                            // SAFETY: each (s, i) is written by exactly one
                            // task (`i` ranges over disjoint chunks, `s` is
                            // task-local) and `idx < l5·slice_len = out.len()`.
                            unsafe { *optr.get().add(idx) = diag - rho };
                        }
                    }
                },
            )
        });
    }

    /// `out = a·in + b·shift^(†)(in)`, the shared form of `A` (`a=α, b=β`)
    /// and `ρ` (`a=b5, b=c5`) and their adjoints: the unfused pass the
    /// column sweeps are held to.
    #[cfg(test)]
    fn affine_shift(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        slice_len: usize,
        a: f64,
        b: f64,
        dagger: bool,
    ) {
        self.shift(out, inp, slice_len, dagger);
        let a = R::from_f64(a);
        let b = R::from_f64(b);
        out.par_iter_mut().zip(inp.par_iter()).for_each(|(o, i)| {
            *o = i.scale(a) + o.scale(b);
        });
    }

    /// `out = A⁻¹ in` (or `(A†)⁻¹ in`), applied per 4D site as two real
    /// `L5×L5` mat-vecs, one per chirality sector. Because the `A±` blocks
    /// are mutual transposes, the adjoint just swaps which inverse serves
    /// which chirality.
    fn apply_a_inverse(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        slice_len: usize,
        dagger: bool,
    ) {
        let (inv_up, inv_dn) = if dagger {
            (&self.ainv_minus, &self.ainv_plus)
        } else {
            (&self.ainv_plus, &self.ainv_minus)
        };
        // Parallelize over 5D sites; gather strided s-components.
        out.par_iter_mut().enumerate().for_each(|(idx, o)| {
            let site = idx % slice_len;
            *o = self.ainv_row(inv_up, inv_dn, idx / slice_len, |s_in| {
                &inp[s_in * slice_len + site]
            });
        });
    }
}

/// Two reusable 5D staging buffers (fused-path scratch).
type Scratch2<R> = Mutex<(Vec<Spinor<R>>, Vec<Spinor<R>>)>;

/// Reusable staging of the preconditioned fused sweeps: three 5D
/// half-volume vectors and the column slab of the `A⁻¹` passes.
struct PrecScratch<R> {
    /// `ρ`-stage (`apply_block`) / `(A†)⁻¹` stage (`apply_dagger_block`).
    rho: Vec<Spinor<R>>,
    /// Hop target.
    tmp: Vec<Spinor<R>>,
    /// Precomputed diagonal `A(ψ)` (`apply_block` only).
    diag: Vec<Spinor<R>>,
    /// One `L5`-spinor row per chunk of the column-wise passes.
    cols: Vec<Spinor<R>>,
}

/// Default sites per stencil chunk for a 4D extent of `sites`: at least
/// eight chunks, so the pool has something to share even at 4³×8, down to a
/// 32-site floor and up to the 1024 the Wilson operators use.
fn default_grain(sites: usize) -> usize {
    (sites / 8).clamp(32, 1024)
}

/// The full-lattice Möbius domain-wall operator on `L5 × V` vectors.
pub struct MobiusDirac<'a, R: Real, G: GaugeLinks<R>> {
    hopping: HoppingKernel<'a, R, G>,
    lattice: &'a Lattice,
    fifth: FifthDim<R>,
    /// Sites per parallel chunk of the 4D stencil: by default an eighth of
    /// the stencil's 4D extent, clamped to 32..=1024, unless a caller
    /// overrides it ([`crate::tune::tune_operator`] installs a measured
    /// winner; no production path tunes). Chunks write disjoint elements, so
    /// it never reaches the result's bits.
    pub grain: usize,
    /// Reusable 5D staging buffers: `ρ(ψ)` and the precomputed diagonal
    /// `A(ψ)` for [`LinearOp::apply_block`], the hop result for
    /// [`DiracOp::apply_dagger_block`] — whichever hop the composition runs.
    scratch: Scratch2<R>,
}

/// The 4D hop of a Möbius composition with the per-element maps around it
/// fused in: `out[i] = finish(i, (H·load(inp))[i])` on an interleaved
/// `nrhs`-column 5D block, `(s·V + x)·nrhs + j`, where `load` maps every
/// operand spinor before it is hopped. [`MobiusDirac`]'s own instance is
/// the single-domain sweep [`HoppingKernel::apply_full_fused_5d`]; the
/// sharded operator in [`crate::comms`] runs its halo-exchange dslash, with
/// `load` riding the scatter into the rank fields and `finish` the gather
/// out of them. Because `load` and `finish` are pure per-element maps, an
/// instance column-wise bit-identical to the single-domain stencil makes a
/// bit-identical Möbius operator.
pub(crate) trait FusedHop<R: Real> {
    /// `out[i] = finish(i, (H·load(inp))[i])`.
    fn hop<L, F>(
        &mut self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
        load: &L,
        finish: &F,
    ) where
        L: Fn(Spinor<R>) -> Spinor<R> + Sync,
        F: Fn(usize, Spinor<R>) -> Spinor<R> + Sync;
}

/// [`MobiusDirac`]'s own hop: the fused single-domain sweep at its grain.
struct SingleDomain<'m, 'a, R: Real, G: GaugeLinks<R>>(&'m MobiusDirac<'a, R, G>);

impl<R: Real, G: GaugeLinks<R>> FusedHop<R> for SingleDomain<'_, '_, R, G> {
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
        let m = self.0;
        m.hopping
            .apply_full_fused_5d(out, inp, m.l5(), nrhs, m.grain, load, finish);
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> MobiusDirac<'a, R, G> {
    /// Bind the operator (antiperiodic temporal BCs are always used — the
    /// physical choice for the valence sector).
    pub fn new(lattice: &'a Lattice, gauge: &'a G, params: MobiusParams) -> Self {
        Self {
            hopping: HoppingKernel::new(lattice, gauge, true),
            lattice,
            fifth: FifthDim::new(params),
            grain: default_grain(lattice.volume()),
            scratch: Mutex::new((Vec::new(), Vec::new())),
        }
    }

    /// Parameters.
    pub fn params(&self) -> &MobiusParams {
        &self.fifth.params
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        self.lattice
    }

    /// The bound 4D hopping kernel.
    pub fn hopping(&self) -> &HoppingKernel<'a, R, G> {
        &self.hopping
    }

    fn l5(&self) -> usize {
        self.fifth.params.l5
    }

    /// `out = A(inp) − ½ H ρ(inp)` on `nrhs` interleaved right-hand-sides,
    /// the hop run by `hop`. The fifth-dimension ops (`ρ`, `A`, the
    /// halving) act per `(s, 4D-site)` element, so running them with slice
    /// length `V·nrhs` on the interleaved block applies the identical scalar
    /// arithmetic to every column.
    ///
    /// Two passes over the reused scratch: one column-wise sweep writing
    /// both `ρ(inp)` and the diagonal `A(inp)`, then the hop of `ρ` with
    /// `A(inp) − ½ h` folded into its output write. The scratch stays locked
    /// across the hop, so `hop` must not apply this operator.
    pub(crate) fn apply_block_via(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
        hop: &mut impl FusedHop<R>,
    ) {
        let n = self.vec_len() * nrhs;
        assert_eq!(out.len(), n);
        assert_eq!(inp.len(), n);
        let half = R::from_f64(0.5);

        let mut guard = self.scratch.lock();
        let (rho, diag) = &mut *guard;
        rho.resize(n, Spinor::zero());
        diag.resize(n, Spinor::zero());
        let vb = self.lattice.volume() * nrhs;
        self.fifth.rho_and_diag(rho, diag, inp, vb);
        let diag = &*diag;
        hop.hop(out, rho, nrhs, &|psi| psi, &|i, h| diag[i] - h.scale(half));
    }

    /// `out = A†(inp) − ½ ρ†(γ5 H γ5 inp)` with the hop run by `hop`: the
    /// explicit adjoint of [`Self::apply_block_via`]. The Möbius operator
    /// with `c5 ≠ 0` is NOT Γ5R5-hermitian (the 4D hopping does not commute
    /// with the chirality-projected s-shift), so — like QUDA's Mdag — it is
    /// `D† = A† − ½ ρ† H†` with `H† = γ5 H γ5`.
    ///
    /// Two passes: the hop with γ5 on each operand spinor as it is loaded,
    /// then the column-wise `A†ψ − ½ ρ†(γ5 h)`. As in
    /// [`Self::apply_block_via`], `hop` must not apply this operator.
    pub(crate) fn apply_dagger_block_via(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
        hop: &mut impl FusedHop<R>,
    ) {
        let n = self.vec_len() * nrhs;
        assert_eq!(out.len(), n);
        assert_eq!(inp.len(), n);
        let gamma5 = |psi: Spinor<R>| psi.apply_gamma5();

        let mut guard = self.scratch.lock();
        let h = &mut guard.0;
        h.resize(n, Spinor::zero());
        hop.hop(h, inp, nrhs, &gamma5, &|_, h| h);
        let vb = self.lattice.volume() * nrhs;
        self.fifth
            .a_dagger_minus_scaled_rho_dagger(out, inp, h, vb, gamma5, 0.5);
    }
}

#[cfg(test)]
impl<R: Real, G: GaugeLinks<R>> MobiusDirac<'_, R, G> {
    /// The allocating composition [`LinearOp::apply_block`] is held to bit
    /// for bit: two affine passes, the oracle hop into a fresh vector, a
    /// subtraction pass.
    pub(crate) fn apply_block_oracle(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let vb = self.lattice.volume() * nrhs;
        let p = &self.fifth.params;
        let n = self.vec_len() * nrhs;
        assert_eq!(out.len(), n);
        assert_eq!(inp.len(), n);

        let mut rho = vec![Spinor::zero(); n];
        self.fifth
            .affine_shift(&mut rho, inp, vb, p.b5, p.c5, false);
        let mut hrho = vec![Spinor::zero(); n];
        self.hopping.apply_oracle(&mut hrho, &rho, None, nrhs);

        self.fifth
            .affine_shift(out, inp, vb, p.alpha(), p.beta(), false);
        let half = R::from_f64(0.5);
        out.par_iter_mut().zip(hrho.par_iter()).for_each(|(o, h)| {
            *o = *o - h.scale(half);
        });
    }

    /// The allocating composition [`DiracOp::apply_dagger_block`] is held
    /// to bit for bit: γ5 passes around the oracle hop, then two affine
    /// passes and a subtraction pass.
    pub(crate) fn apply_dagger_block_oracle(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
    ) {
        let vb = self.lattice.volume() * nrhs;
        let p = &self.fifth.params;
        let n = self.vec_len() * nrhs;
        assert_eq!(out.len(), n);
        assert_eq!(inp.len(), n);

        let g5in: Vec<Spinor<R>> = inp.par_iter().map(|s| s.apply_gamma5()).collect();
        let mut h = vec![Spinor::zero(); n];
        self.hopping.apply_oracle(&mut h, &g5in, None, nrhs);
        h.par_iter_mut().for_each(|s| *s = s.apply_gamma5());

        let mut rho_h = vec![Spinor::zero(); n];
        self.fifth
            .affine_shift(&mut rho_h, &h, vb, p.b5, p.c5, true);

        self.fifth
            .affine_shift(out, inp, vb, p.alpha(), p.beta(), true);
        let half = R::from_f64(0.5);
        out.par_iter_mut().zip(rho_h.par_iter()).for_each(|(o, r)| {
            *o = *o - r.scale(half);
        });
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> LinearOp<R> for MobiusDirac<'a, R, G> {
    fn vec_len(&self) -> usize {
        self.l5() * self.lattice.volume()
    }

    fn flops_per_apply(&self) -> f64 {
        let sites = self.vec_len() as f64;
        // Hopping dominates; shift/affine contribute ~250 flops per 5D site.
        sites * (HOPPING_FLOPS_PER_SITE + 250.0)
    }

    /// `apply_block_via` on the single-domain fused sweep, which reuses
    /// each site's eight gauge links across the whole s-extent and every
    /// column.
    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.apply_block_via(out, inp, nrhs, &mut SingleDomain(self));
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> DiracOp<R> for MobiusDirac<'a, R, G> {
    /// `apply_dagger_block_via` on the single-domain fused sweep, γ5
    /// riding on each neighbor fetch.
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.apply_dagger_block_via(out, inp, nrhs, &mut SingleDomain(self));
    }
}

/// Red–black preconditioned Möbius operator on the odd checkerboard:
/// `M̂ = A − ¼ · H_oe ρ A⁻¹ H_eo ρ`, acting on `L5 × V/2` vectors.
pub struct PrecMobius<'a, R: Real, G: GaugeLinks<R>> {
    hopping: HoppingKernel<'a, R, G>,
    lattice: &'a Lattice,
    fifth: FifthDim<R>,
    /// Sites per parallel chunk of the 4D stencil: by default an eighth of
    /// the stencil's 4D extent, clamped to 32..=1024, unless a caller
    /// overrides it ([`crate::tune::tune_operator`] installs a measured
    /// winner; no production path tunes). Chunks write disjoint elements, so
    /// it never reaches the result's bits.
    pub grain: usize,
    /// Reusable staging for the block forms, source preparation and
    /// reconstruction (behind a lock so all keep their `&self` interface).
    scratch: Mutex<PrecScratch<R>>,
}

impl<'a, R: Real, G: GaugeLinks<R>> PrecMobius<'a, R, G> {
    /// Bind the preconditioned operator.
    pub fn new(lattice: &'a Lattice, gauge: &'a G, params: MobiusParams) -> Self {
        Self {
            hopping: HoppingKernel::new(lattice, gauge, true),
            lattice,
            fifth: FifthDim::new(params),
            grain: default_grain(lattice.half_volume()),
            scratch: Mutex::new(PrecScratch {
                rho: Vec::new(),
                tmp: Vec::new(),
                diag: Vec::new(),
                cols: Vec::new(),
            }),
        }
    }

    /// Parameters.
    pub fn params(&self) -> &MobiusParams {
        &self.fifth.params
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        self.lattice
    }

    /// The bound 4D hopping kernel.
    pub fn hopping(&self) -> &HoppingKernel<'a, R, G> {
        &self.hopping
    }

    fn l5(&self) -> usize {
        self.fifth.params.l5
    }

    fn hv(&self) -> usize {
        self.lattice.half_volume()
    }

    /// Split a full 5D vector into (even, odd) 5D checkerboard vectors.
    pub fn split(&self, full: &[Spinor<R>]) -> (Vec<Spinor<R>>, Vec<Spinor<R>>) {
        super::split_parity(self.lattice, full)
    }

    /// Merge checkerboards back into a full 5D vector.
    pub fn merge(&self, even: &[Spinor<R>], odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        super::merge_parity(self.lattice, even, odd)
    }

    /// The fused checkerboard hop onto `parity` across all `L5` slices and
    /// `nrhs` columns.
    fn hop(
        &self,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        parity: Parity,
        nrhs: usize,
        load: &(impl Fn(Spinor<R>) -> Spinor<R> + Sync),
        finish: &(impl Fn(usize, Spinor<R>) -> Spinor<R> + Sync),
    ) {
        let (l5, grain) = (self.l5(), self.grain);
        self.hopping
            .apply_parity_fused_5d(out, inp, parity, l5, nrhs, grain, load, finish);
    }

    /// Preconditioned source `b'_o = b_o − M_oe A⁻¹ b_e` with
    /// `M_oe = −½ H_oe ρ`: one column-wise `ρ(A⁻¹ b_e)` sweep, then the fused
    /// hop with the subtraction folded into its output write.
    pub fn prepare_source(&self, b_even: &[Spinor<R>], b_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let n = self.vec_len();
        assert_eq!(b_even.len(), n);
        assert_eq!(b_odd.len(), n);
        let neg_half = R::from_f64(-0.5);
        let mut guard = self.scratch.lock();
        let PrecScratch { rho, cols, .. } = &mut *guard;
        rho.resize(n, Spinor::zero());
        self.fifth.ainv_then_rho(rho, b_even, self.hv(), cols);
        let mut out = vec![Spinor::zero(); n];
        self.hop(&mut out, rho, Parity::Odd, 1, &|psi| psi, &|i, h| {
            b_odd[i] - h.scale(neg_half)
        });
        out
    }

    /// Even-site reconstruction `x_e = A⁻¹ (b_e − M_eo x_o)`: the `ρ(x_o)`
    /// sweep, the fused hop with the subtraction folded into its write, then
    /// `A⁻¹`.
    pub fn reconstruct_even(&self, b_even: &[Spinor<R>], x_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let n = self.vec_len();
        assert_eq!(b_even.len(), n);
        assert_eq!(x_odd.len(), n);
        let neg_half = R::from_f64(-0.5);
        let mut guard = self.scratch.lock();
        let PrecScratch { rho, tmp, diag, .. } = &mut *guard;
        for v in [&mut *rho, &mut *tmp, &mut *diag] {
            v.resize(n, Spinor::zero());
        }
        self.fifth.rho_and_diag(rho, diag, x_odd, self.hv());
        self.hop(tmp, rho, Parity::Even, 1, &|psi| psi, &|i, h| {
            b_even[i] - h.scale(neg_half)
        });
        let mut out = vec![Spinor::zero(); n];
        self.fifth.apply_a_inverse(&mut out, tmp, self.hv(), false);
        out
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> LinearOp<R> for PrecMobius<'a, R, G> {
    fn vec_len(&self) -> usize {
        self.l5() * self.hv()
    }

    fn flops_per_apply(&self) -> f64 {
        let sites = self.vec_len() as f64;
        // Two half-volume hops per 5D site pair + fifth-dimension algebra.
        sites * (HOPPING_FLOPS_PER_SITE + 250.0 + 48.0 * self.l5() as f64)
    }

    /// The Schur complement in four passes over reused scratch buffers, the
    /// column sweeps running with slice length `hv·nrhs`:
    ///
    /// 1. `ρ ← b5·ψ + c5·shift(ψ)` and `diag ← α·ψ + β·shift(ψ)` in a single
    ///    column-wise sweep (the s-shift of `ψ` is read once, feeding both),
    /// 2. `t ← −½ H_eo ρ` (5D-fused stencil, `−½` folded into the write),
    /// 3. `ρ ← b5·(A⁻¹t) + c5·shift(A⁻¹t)` column-wise: each s-column of
    ///    `A⁻¹t` stays register/cache resident through the following affine,
    /// 4. `out ← diag − (−½ H_oe ρ)` (stencil pass with the precomputed
    ///    diagonal folded into the output write).
    ///
    /// Each fused expression evaluates the identical per-element operation
    /// chain as the unfused eleven-pass composition, so the result is
    /// bit-identical to it.
    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let hvb = self.hv() * nrhs;
        let n = self.vec_len() * nrhs;
        assert_eq!(out.len(), n);
        assert_eq!(inp.len(), n);
        let neg_half = R::from_f64(-0.5);

        let mut guard = self.scratch.lock();
        let PrecScratch {
            rho,
            tmp,
            diag,
            cols,
        } = &mut *guard;
        rho.resize(n, Spinor::zero());
        tmp.resize(n, Spinor::zero());
        diag.resize(n, Spinor::zero());

        self.fifth.rho_and_diag(rho, diag, inp, hvb);
        self.hop(tmp, rho, Parity::Even, nrhs, &|psi| psi, &|_, h| {
            h.scale(neg_half)
        });
        self.fifth.ainv_then_rho(rho, tmp, hvb, cols);
        let diag = &*diag;
        self.hop(out, rho, Parity::Odd, nrhs, &|psi| psi, &|i, h| {
            diag[i] - h.scale(neg_half)
        });
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> DiracOp<R> for PrecMobius<'a, R, G> {
    /// `M̂† = A† − M_eo† (A†)⁻¹ M_oe†` with `M† = −½ ρ† γ5 H γ5`, in the
    /// four passes of [`LinearOp::apply_block`] mirrored:
    ///
    /// 1. `t ← γ5 H_eo γ5 ψ` — the same fused stencil, γ5 riding on each
    ///    neighbor fetch and on the output write instead of two extra passes,
    /// 2. `ρ ← (A†)⁻¹[(b5·t + c5·shift†(t))·(−½)]` column-wise, with the
    ///    chirality-swapped inverses,
    /// 3. `t ← γ5 H_oe γ5 ρ`,
    /// 4. `out ← (α·ψ + β·shift†ψ) − (b5·t + c5·shift†(t))·(−½)` column-wise.
    ///
    /// Each fused expression evaluates the identical per-element operation
    /// chain as the unfused composition, so the result is bit-identical to
    /// it.
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let hvb = self.hv() * nrhs;
        let n = self.vec_len() * nrhs;
        assert_eq!(out.len(), n);
        assert_eq!(inp.len(), n);
        let gamma5 = |psi: Spinor<R>| psi.apply_gamma5();
        let gamma5_hop = |_, h: Spinor<R>| h.apply_gamma5();

        let mut guard = self.scratch.lock();
        let PrecScratch { rho, tmp, cols, .. } = &mut *guard;
        rho.resize(n, Spinor::zero());
        tmp.resize(n, Spinor::zero());

        self.hop(tmp, inp, Parity::Even, nrhs, &gamma5, &gamma5_hop);
        self.fifth.rho_dagger_then_ainv(rho, tmp, hvb, cols);
        self.hop(tmp, rho, Parity::Odd, nrhs, &gamma5, &gamma5_hop);
        self.fifth
            .a_dagger_minus_scaled_rho_dagger(out, inp, tmp, hvb, |x| x, -0.5);
    }
}

#[cfg(test)]
impl<'a, R: Real, G: GaugeLinks<R>> PrecMobius<'a, R, G> {
    /// `M_eo`-style off-diagonal application onto `out_parity`, blocked:
    /// `out = −½ H ρ(in)`.
    fn offdiag_block(&self, inp: &[Spinor<R>], out_parity: Parity, nrhs: usize) -> Vec<Spinor<R>> {
        let hvb = self.hv() * nrhs;
        let p = &self.fifth.params;
        let mut rho = vec![Spinor::zero(); inp.len()];
        self.fifth
            .affine_shift(&mut rho, inp, hvb, p.b5, p.c5, false);
        let mut hop = vec![Spinor::zero(); inp.len()];
        self.hopping
            .apply_oracle(&mut hop, &rho, Some(out_parity), nrhs);
        hop.par_iter_mut()
            .for_each(|s| *s = s.scale(R::from_f64(-0.5)));
        hop
    }

    /// Adjoint off-diagonal application onto `out_parity`, blocked:
    /// `out = −½ ρ† γ5 H γ5 (in)`.
    fn offdiag_dagger_block(
        &self,
        inp: &[Spinor<R>],
        out_parity: Parity,
        nrhs: usize,
    ) -> Vec<Spinor<R>> {
        let hvb = self.hv() * nrhs;
        let p = &self.fifth.params;
        let g5in: Vec<Spinor<R>> = inp.par_iter().map(|s| s.apply_gamma5()).collect();
        let mut hop = vec![Spinor::zero(); inp.len()];
        self.hopping
            .apply_oracle(&mut hop, &g5in, Some(out_parity), nrhs);
        hop.par_iter_mut().for_each(|s| *s = s.apply_gamma5());
        let mut out = vec![Spinor::zero(); inp.len()];
        self.fifth
            .affine_shift(&mut out, &hop, hvb, p.b5, p.c5, true);
        out.par_iter_mut()
            .for_each(|s| *s = s.scale(R::from_f64(-0.5)));
        out
    }

    /// The unfused Schur complement on an interleaved block — eleven passes
    /// and six or eight fresh vectors, the oracle the fused sweeps are held
    /// to: `M̂ = A − M_oe A⁻¹ M_eo`, or with `dagger`
    /// `M̂† = A† − M_eo† (A†)⁻¹ M_oe†`, each adjoint applied explicitly.
    fn schur_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize, dagger: bool) {
        let hvb = self.hv() * nrhs;
        let p = &self.fifth.params;
        assert_eq!(out.len(), self.vec_len() * nrhs);
        assert_eq!(inp.len(), self.vec_len() * nrhs);
        let offdiag = if dagger {
            Self::offdiag_dagger_block
        } else {
            Self::offdiag_block
        };

        let to_even = offdiag(self, inp, Parity::Even, nrhs);
        let mut ainv = vec![Spinor::zero(); to_even.len()];
        self.fifth.apply_a_inverse(&mut ainv, &to_even, hvb, dagger);
        let to_odd = offdiag(self, &ainv, Parity::Odd, nrhs);

        self.fifth
            .affine_shift(out, inp, hvb, p.alpha(), p.beta(), dagger);
        out.par_iter_mut()
            .zip(to_odd.par_iter())
            .for_each(|(o, m)| {
                *o = *o - *m;
            });
    }

    /// The unfused [`Self::prepare_source`]: `A⁻¹`, `M_oe`, subtraction.
    fn prepare_source_oracle(&self, b_even: &[Spinor<R>], b_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let mut ainv_be = vec![Spinor::zero(); b_even.len()];
        self.fifth
            .apply_a_inverse(&mut ainv_be, b_even, self.hv(), false);
        let moe = self.offdiag_block(&ainv_be, Parity::Odd, 1);
        b_odd.iter().zip(&moe).map(|(b, m)| *b - *m).collect()
    }

    /// The unfused [`Self::reconstruct_even`]: `M_eo`, subtraction, `A⁻¹`.
    fn reconstruct_even_oracle(&self, b_even: &[Spinor<R>], x_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let meo = self.offdiag_block(x_odd, Parity::Even, 1);
        let rhs: Vec<Spinor<R>> = b_even.iter().zip(&meo).map(|(b, m)| *b - *m).collect();
        let mut out = vec![Spinor::zero(); rhs.len()];
        self.fifth.apply_a_inverse(&mut out, &rhs, self.hv(), false);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::dirac::testing::{assert_block_matches_oracle, real_bits};
    use crate::field::{FermionField, GaugeField};

    #[test]
    fn invert_real_matrix_known_case() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let inv = invert_real_matrix(&a);
        // A·A⁻¹ = 1.
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = 0.0;
                for k in 0..2 {
                    acc += a[i][k] * inv[k][j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((acc - expect).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn a_inverse_inverts_a_blockwise() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let gauge = GaugeField::<f64>::cold(&lat);
        let params = MobiusParams::standard(8, 0.1);
        let op = MobiusDirac::new(&lat, &gauge, params);
        let v = lat.volume();
        let n = params.l5 * v;
        let x = FermionField::<f64>::gaussian(n, 2).data;

        // Apply A then A⁻¹.
        let mut ax = vec![Spinor::zero(); n];
        op.fifth
            .affine_shift(&mut ax, &x, v, params.alpha(), params.beta(), false);
        let mut back = vec![Spinor::zero(); n];
        op.fifth.apply_a_inverse(&mut back, &ax, v, false);
        let diff = blas::sub(&back, &x);
        assert!(blas::norm_sqr(&diff) / blas::norm_sqr(&x) < 1e-22);
    }

    /// `|⟨y, Dx⟩ − ⟨D†y, x⟩| / |⟨y, Dx⟩|` on gaussian `x`, `y`: the physics
    /// check a bit-identical *wrong* adjoint would fail.
    fn adjoint_defect<R: Real>(op: &impl DiracOp<R>, seed: u64) -> f64 {
        let n = op.vec_len();
        let x = FermionField::<R>::gaussian(n, seed).data;
        let y = FermionField::<R>::gaussian(n, seed + 1).data;
        let mut dx = vec![Spinor::zero(); n];
        op.apply(&mut dx, &x);
        let mut ddag_y = vec![Spinor::zero(); n];
        op.apply_dagger(&mut ddag_y, &y);
        let lhs = blas::dot(&y, &dx);
        let rhs = blas::dot(&ddag_y, &x);
        (lhs - rhs).abs() / lhs.abs()
    }

    #[test]
    fn dagger_is_true_adjoint_in_both_precisions() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 37);
        let gauge32 = gauge.cast::<f32>();
        for params in [
            MobiusParams::standard(6, 0.08),
            MobiusParams::shamir(4, 0.3),
        ] {
            let full = adjoint_defect(&MobiusDirac::new(&lat, &gauge, params), 3);
            let prec = adjoint_defect(&PrecMobius::new(&lat, &gauge, params), 5);
            assert!(
                full <= 1e-12 && prec <= 1e-12,
                "f64 {params:?}: {full} {prec}"
            );
            let full = adjoint_defect(&MobiusDirac::new(&lat, &gauge32, params), 3);
            let prec = adjoint_defect(&PrecMobius::new(&lat, &gauge32, params), 5);
            assert!(
                full <= 1e-5 && prec <= 1e-5,
                "f32 {params:?}: {full} {prec}"
            );
        }
    }

    /// Both Möbius operators' fused forms (through
    /// `assert_block_matches_oracle`: both directions, `nrhs` 1 and 3, pool
    /// widths 1, 2 and 4; L5 2, 4 and 8) and `PrecMobius`'s source preparation and
    /// reconstruction against their unfused oracles, on every real's bit
    /// pattern — at every stencil grain, since the grain may not reach the
    /// bits.
    fn fused_forms_match_oracles<R: Real>(lat: &Lattice, gauge: &GaugeField<R>) {
        for l5 in [2, 4, 8] {
            for mass in [0.3, 0.05] {
                for params in [
                    MobiusParams::standard(l5, mass),
                    MobiusParams::shamir(l5, mass),
                ] {
                    let what = format!("{:?} {params:?}", lat.dims());
                    let grains = [1, 7, 32, 1024];
                    let full = grains.map(|grain| MobiusDirac {
                        grain,
                        ..MobiusDirac::new(lat, gauge, params)
                    });
                    assert_block_matches_oracle(&full, &what, |o, i, nrhs, dagger| match dagger {
                        false => full[0].apply_block_oracle(o, i, nrhs),
                        true => full[0].apply_dagger_block_oracle(o, i, nrhs),
                    });
                    let prec = grains.map(|grain| PrecMobius {
                        grain,
                        ..PrecMobius::new(lat, gauge, params)
                    });
                    assert_block_matches_oracle(&prec, &what, |o, i, nrhs, dagger| {
                        prec[0].schur_block(o, i, nrhs, dagger)
                    });

                    let n = prec[0].vec_len();
                    let b_e = FermionField::<R>::gaussian(n, 61).data;
                    let b_o = FermionField::<R>::gaussian(n, 62).data;
                    for op in &prec {
                        let (got, want) = (
                            op.prepare_source(&b_e, &b_o),
                            op.prepare_source_oracle(&b_e, &b_o),
                        );
                        assert!(real_bits(&got) == real_bits(&want), "{what}");
                        let (got, want) = (
                            op.reconstruct_even(&b_e, &b_o),
                            op.reconstruct_even_oracle(&b_e, &b_o),
                        );
                        assert!(real_bits(&got) == real_bits(&want), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_sweeps_are_bit_identical_to_unfused_oracles() {
        for dims in [[4, 4, 4, 8], [4, 4, 2, 6], [8, 4, 4, 4]] {
            let lat = Lattice::new(dims);
            let gauge = GaugeField::<f64>::hot(&lat, 59);
            fused_forms_match_oracles(&lat, &gauge);
            fused_forms_match_oracles(&lat, &gauge.cast::<f32>());
        }
    }

    #[test]
    fn schur_identity_for_mobius() {
        // If D ψ = b then M̂ ψ_o = b_o − M_oe A⁻¹ b_e.
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 43);
        let params = MobiusParams::standard(4, 0.05);
        let full = MobiusDirac::new(&lat, &gauge, params);
        let prec = PrecMobius::new(&lat, &gauge, params);

        let n = full.vec_len();
        let psi = FermionField::<f64>::gaussian(n, 7).data;
        let mut b = vec![Spinor::zero(); n];
        full.apply(&mut b, &psi);

        let (_, psi_o) = prec.split(&psi);
        let (b_e, b_o) = prec.split(&b);

        let rhs = prec.prepare_source(&b_e, &b_o);
        let mut lhs = vec![Spinor::zero(); prec.vec_len()];
        prec.apply(&mut lhs, &psi_o);

        let diff = blas::sub(&lhs, &rhs);
        let rel = blas::norm_sqr(&diff) / blas::norm_sqr(&rhs);
        assert!(rel < 1e-20, "Schur identity violated: rel = {rel}");
    }

    #[test]
    fn reconstruct_even_recovers_solution() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 47);
        let params = MobiusParams::shamir(4, 0.1);
        let full = MobiusDirac::new(&lat, &gauge, params);
        let prec = PrecMobius::new(&lat, &gauge, params);

        let n = full.vec_len();
        let psi = FermionField::<f64>::gaussian(n, 8).data;
        let mut b = vec![Spinor::zero(); n];
        full.apply(&mut b, &psi);

        let (psi_e, psi_o) = prec.split(&psi);
        let (b_e, _) = prec.split(&b);
        let x_e = prec.reconstruct_even(&b_e, &psi_o);
        let diff = blas::sub(&x_e, &psi_e);
        assert!(blas::norm_sqr(&diff) / blas::norm_sqr(&psi_e) < 1e-20);
    }

    #[test]
    fn dense_matrix_adjoint_is_exact() {
        // Build the full dense matrix of D and of D† on a 2^4 lattice and
        // verify D†[r][c] == conj(D[c][r]) element-wise — the strongest
        // possible check of the explicit Mdag implementation.
        let lat = Lattice::new([2, 2, 2, 2]);
        let gauge = crate::field::GaugeField::<f64>::hot(&lat, 37);
        let params = MobiusParams::standard(2, 0.08);
        let op = MobiusDirac::new(&lat, &gauge, params);
        let n = op.vec_len();
        let dim = n * 12;

        let dense = |dagger: bool| -> Vec<Vec<crate::complex::C64>> {
            let mut m = vec![vec![crate::complex::C64::zero(); dim]; dim];
            for col in 0..dim {
                let (i, rest) = (col / 12, col % 12);
                let (sp, c) = (rest / 3, rest % 3);
                let mut e = vec![Spinor::zero(); n];
                e[i].s[sp].c[c] = crate::complex::C64::new(1.0, 0.0);
                let mut out = vec![Spinor::zero(); n];
                if dagger {
                    op.apply_dagger(&mut out, &e);
                } else {
                    op.apply(&mut out, &e);
                }
                for (row, entry) in m.iter_mut().enumerate() {
                    let (j, rest2) = (row / 12, row % 12);
                    let (sp2, c2) = (rest2 / 3, rest2 % 3);
                    entry[col] = out[j].s[sp2].c[c2];
                }
            }
            m
        };
        let d = dense(false);
        let ddag = dense(true);
        let mut max = 0.0f64;
        for r in 0..dim {
            for c in 0..dim {
                max = max.max((ddag[r][c] - d[c][r].conj()).abs());
            }
        }
        assert!(max < 1e-13, "max adjoint violation {max}");
    }

    #[test]
    fn shift_at_matches_shift_elementwise() {
        let params = MobiusParams::standard(6, 0.1);
        let fifth = FifthDim::<f64>::new(params);
        let slice_len = 17;
        let n = params.l5 * slice_len;
        let x = FermionField::<f64>::gaussian(n, 21).data;
        for dagger in [false, true] {
            let mut shifted = vec![Spinor::zero(); n];
            fifth.shift(&mut shifted, &x, slice_len, dagger);
            for s in 0..params.l5 {
                for i in 0..slice_len {
                    assert_eq!(
                        fifth.shift_at(&x, slice_len, s, i, dagger),
                        shifted[s * slice_len + i],
                        "(s={s}, i={i}, dagger={dagger})"
                    );
                }
            }
        }
    }

    #[test]
    fn rho_and_diag_is_bit_identical_to_two_affines() {
        let params = MobiusParams::standard(4, 0.08);
        let fifth = FifthDim::<f64>::new(params);
        let slice_len = 64;
        let n = params.l5 * slice_len;
        let x = FermionField::<f64>::gaussian(n, 22).data;
        let mut rho_ref = vec![Spinor::zero(); n];
        fifth.affine_shift(&mut rho_ref, &x, slice_len, params.b5, params.c5, false);
        let mut diag_ref = vec![Spinor::zero(); n];
        fifth.affine_shift(
            &mut diag_ref,
            &x,
            slice_len,
            params.alpha(),
            params.beta(),
            false,
        );
        let mut rho = vec![Spinor::zero(); n];
        let mut diag = vec![Spinor::zero(); n];
        fifth.rho_and_diag(&mut rho, &mut diag, &x, slice_len);
        assert_eq!(rho, rho_ref);
        assert_eq!(diag, diag_ref);
    }

    #[test]
    fn ainv_then_rho_is_bit_identical_to_two_passes() {
        let params = MobiusParams::standard(4, 0.08);
        let fifth = FifthDim::<f64>::new(params);
        let slice_len = 64;
        let n = params.l5 * slice_len;
        let x = FermionField::<f64>::gaussian(n, 25).data;
        let mut ainv = vec![Spinor::zero(); n];
        fifth.apply_a_inverse(&mut ainv, &x, slice_len, false);
        let mut reference = vec![Spinor::zero(); n];
        fifth.affine_shift(
            &mut reference,
            &ainv,
            slice_len,
            params.b5,
            params.c5,
            false,
        );
        let mut fused = vec![Spinor::zero(); n];
        fifth.ainv_then_rho(&mut fused, &x, slice_len, &mut Vec::new());
        assert_eq!(fused, reference);
    }

    #[test]
    fn split_merge_round_trip_5d() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let gauge = GaugeField::<f64>::cold(&lat);
        let params = MobiusParams::standard(4, 0.1);
        let prec = PrecMobius::new(&lat, &gauge, params);
        let v = FermionField::<f64>::gaussian(params.l5 * lat.volume(), 9).data;
        let (e, o) = prec.split(&v);
        assert_eq!(prec.merge(&e, &o), v);
    }

    #[test]
    fn shamir_limit_matches_handwritten_form() {
        // For c5 = 0: D ψ_s = (D_W + 1) ψ_s − shift(ψ)_s. On a cold gauge
        // with a 4D-constant input, periodic spatial BCs, and a t-independent
        // spinor, apbc makes H act nontrivially only via t-wraps... avoid BC
        // subtleties by comparing against the generic apply with b5=1,c5=0
        // computed via an independent composition: A(ψ) − ½H(ψ).
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 53);
        let params = MobiusParams::shamir(4, 0.2);
        let op = MobiusDirac::new(&lat, &gauge, params);
        let n = op.vec_len();
        let psi = FermionField::<f64>::gaussian(n, 10).data;

        let mut got = vec![Spinor::zero(); n];
        op.apply(&mut got, &psi);

        // Independent path: out = αψ + β·shift(ψ) − ½ H ψ (since ρ = ψ).
        let v = lat.volume();
        let mut expect = vec![Spinor::zero(); n];
        op.fifth
            .affine_shift(&mut expect, &psi, v, params.alpha(), params.beta(), false);
        let mut hpsi = vec![Spinor::zero(); n];
        op.hopping.apply_oracle(&mut hpsi, &psi, None, 1);
        for i in 0..n {
            expect[i] = expect[i] - hpsi[i].scale(0.5);
        }
        let diff = blas::sub(&got, &expect);
        assert!(blas::norm_sqr(&diff) / blas::norm_sqr(&expect) < 1e-24);
    }
}
