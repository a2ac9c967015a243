//! [`hop_site`] across vector lanes: the fused sweep's lane body.
//!
//! All `L5 × nrhs` spinors of one 4D site share its neighbor indices, its
//! antiperiodic flips and its sixteen stencil links, so they are hopped
//! together, one spinor per lane. Each neighbor's spinors are gathered into
//! a lane-major [`Tile`] (24 reals × `N` lanes), the spin projection, the
//! SU(3) product with the link broadcast to every lane and the
//! reconstruction run once per real across all lanes, and each lane is
//! scattered back out as a [`Spinor`]. One 256-bit register holds a real of
//! every lane, so a group is 8 lanes wide in `f32` and 4 in `f64`; a
//! remainder of at least half that takes one half-width group, and what is
//! still left goes through [`hop_site`] itself, a vector loop's scalar
//! epilogue. The adjoint `H† = γ5 H γ5` is the same hop with the projector
//! signs swapped, `γ5 (1∓γμ) γ5 = 1±γμ`: [`hop_tiles`] takes it as a const
//! flag, so no γ5 is ever applied to a spinor.
//!
//! Storage stays array-of-structs: the eight gathered tiles are a
//! transpose on the stack, made per group and never stored. On a CPU with
//! AVX2 the transpose runs in registers: each neighbor's `N` spinors are
//! loaded as whole vectors straight from the operand, one row pointer per
//! lane, and shuffled into lanes (`24 / N` blocks of `N × N` reals), and
//! the result tile goes back out the same way before each lane is stored.
//! Elsewhere [`put`] and [`get`] move one real at a time; both paths move
//! the same bits.
//!
//! **Bit-identity.** Every lane performs [`hop_site`]'s exact operation
//! chain: the same IEEE adds, subtracts and multiplies in the same order
//! (`add_mul` as `(acc + a·b) − a'·b'`, full complex multiplies by the γ
//! phases, `conj` then multiply for `U†`, accumulation from zero), never
//! fused, so lane `l` of a group is the very value the scalar loop computed
//! for that spinor.
//!
//! **Codegen.** The gather and the scatter inline into the sweep's
//! [`crate::simd::dispatch`] body; [`hop_row`] asks
//! [`crate::simd::has_avx2`] once and every group takes the transposes or
//! the scalar moves from the answer. The arithmetic is [`hop_tiles`], whose
//! only parameters are the real, the width and the adjoint flag: it runs
//! its own dispatch, so each of the eight group shapes is compiled once per
//! ISA rather than once per operator, gauge storage and closure. Every
//! helper under it is `#[inline(always)]`, as the dispatch requires: a
//! helper LLVM kept out of line would run at the baseline 128-bit width.

use super::hop_site;
use crate::complex::Complex;
use crate::gamma::{GAMMAS, NS};
use crate::lattice::{Neighbors, ND};
use crate::real::Real;
use crate::simd;
use crate::spinor::Spinor;
use crate::su3::{Su3, NC};

/// One complex number per lane: the real parts, then the imaginary parts.
#[derive(Clone, Copy)]
#[repr(C)]
pub(crate) struct Lanes<R, const N: usize> {
    pub(crate) re: [R; N],
    pub(crate) im: [R; N],
}

/// One color vector per lane.
pub(crate) type ColorLanes<R, const N: usize> = [Lanes<R, N>; NC];

/// One spinor per lane, lane-major: 24 × `[R; N]` in a spinor's own order
/// of reals.
pub(crate) type Tile<R, const N: usize> = [ColorLanes<R, N>; NS];

/// The layouts the transposes move reals between, checked for every group
/// shape: a [`Spinor`] is 24 contiguous reals, real `2·(3s + c) + re/im`,
/// and a [`Tile`] is exactly 24 × `N` reals, lane `l` of that real at
/// `(2·(3s + c) + re/im)·N + l` (arrays are contiguous, so the sizes and
/// the `im` offsets leave no other placement).
const _: () = {
    use std::mem::{offset_of, size_of};
    const fn spinor_is_contiguous<R>() -> bool {
        size_of::<Spinor<R>>() == 24 * size_of::<R>()
            && offset_of!(Complex<R>, im) == size_of::<R>()
    }
    const fn tile_is_lane_major<R, const N: usize>() -> bool {
        size_of::<Tile<R, N>>() == 24 * N * size_of::<R>()
            && offset_of!(Lanes<R, N>, im) == N * size_of::<R>()
    }
    assert!(spinor_is_contiguous::<f32>() && spinor_is_contiguous::<f64>());
    assert!(tile_is_lane_major::<f32, 8>() && tile_is_lane_major::<f32, 4>());
    assert!(tile_is_lane_major::<f64, 4>() && tile_is_lane_major::<f64, 2>());
};

impl<R: Real, const N: usize> Lanes<R, N> {
    /// Zero in every lane.
    #[inline(always)]
    pub(crate) fn zero() -> Self {
        Self {
            re: [R::ZERO; N],
            im: [R::ZERO; N],
        }
    }

    /// `self + b` per lane.
    #[inline(always)]
    fn add(&self, b: &Self) -> Self {
        let mut o = *self;
        for l in 0..N {
            o.re[l] = self.re[l] + b.re[l];
            o.im[l] = self.im[l] + b.im[l];
        }
        o
    }

    /// `self − b` per lane.
    #[inline(always)]
    fn sub(&self, b: &Self) -> Self {
        let mut o = *self;
        for l in 0..N {
            o.re[l] = self.re[l] - b.re[l];
            o.im[l] = self.im[l] - b.im[l];
        }
        o
    }

    /// `−self` per lane.
    #[inline(always)]
    fn neg(&self) -> Self {
        let mut o = *self;
        for l in 0..N {
            o.re[l] = -self.re[l];
            o.im[l] = -self.im[l];
        }
        o
    }

    /// `self · z` per lane for a broadcast `z`: the chain of `Complex * Complex`.
    #[inline(always)]
    fn mul(&self, z: Complex<R>) -> Self {
        let mut o = *self;
        for l in 0..N {
            o.re[l] = self.re[l] * z.re - self.im[l] * z.im;
            o.im[l] = self.re[l] * z.im + self.im[l] * z.re;
        }
        o
    }

    /// `z · self` per lane for a broadcast `z`: the chain of `Complex * Complex`.
    #[inline(always)]
    fn mul_left(&self, z: Complex<R>) -> Self {
        let mut o = *self;
        for l in 0..N {
            o.re[l] = z.re * self.re[l] - z.im * self.im[l];
            o.im[l] = z.re * self.im[l] + z.im * self.re[l];
        }
        o
    }

    /// `self + a · b` per lane for a broadcast `a`: the chain of
    /// [`Complex::add_mul`].
    #[inline(always)]
    fn add_mul(&self, a: Complex<R>, b: &Self) -> Self {
        let mut o = *self;
        for l in 0..N {
            o.re[l] = self.re[l] + a.re * b.re[l] - a.im * b.im[l];
            o.im[l] = self.im[l] + a.re * b.im[l] + a.im * b.re[l];
        }
        o
    }
}

/// `v · z` on every color of every lane.
#[inline(always)]
pub(crate) fn scale_c<R: Real, const N: usize>(
    v: &ColorLanes<R, N>,
    z: Complex<R>,
) -> ColorLanes<R, N> {
    [v[0].mul(z), v[1].mul(z), v[2].mul(z)]
}

/// `U v` per lane for a broadcast `U`: the chain of [`Su3::mul_vec`].
#[inline(always)]
pub(crate) fn mul_vec<R: Real, const N: usize>(
    u: &Su3<R>,
    v: &ColorLanes<R, N>,
) -> ColorLanes<R, N> {
    let mut out = [Lanes::zero(); NC];
    for (o, row) in out.iter_mut().zip(&u.m) {
        for (&u, v) in row.iter().zip(v) {
            *o = o.add_mul(u, v);
        }
    }
    out
}

/// `U† v` per lane for a broadcast `U`: the chain of [`Su3::dagger_mul_vec`].
#[inline(always)]
pub(crate) fn dagger_mul_vec<R: Real, const N: usize>(
    u: &Su3<R>,
    v: &ColorLanes<R, N>,
) -> ColorLanes<R, N> {
    let mut out = [Lanes::zero(); NC];
    for (i, o) in out.iter_mut().enumerate() {
        for (row, v) in u.m.iter().zip(v) {
            *o = o.add(&v.mul_left(row[i].conj()));
        }
    }
    out
}

/// `acc += v` on every color of every lane.
#[inline(always)]
pub(crate) fn accumulate<R: Real, const N: usize>(
    acc: &mut ColorLanes<R, N>,
    v: &ColorLanes<R, N>,
) {
    for (a, b) in acc.iter_mut().zip(v) {
        *a = a.add(b);
    }
}

/// `−v` on every color of every lane.
#[inline(always)]
fn neg<R: Real, const N: usize>(v: &ColorLanes<R, N>) -> ColorLanes<R, N> {
    [v[0].neg(), v[1].neg(), v[2].neg()]
}

/// `a ∓ b` on every color of every lane (`minus` selects the sign).
#[inline(always)]
fn add_or_sub<R: Real, const N: usize>(
    a: &ColorLanes<R, N>,
    b: &ColorLanes<R, N>,
    minus: bool,
) -> ColorLanes<R, N> {
    match minus {
        true => [a[0].sub(&b[0]), a[1].sub(&b[1]), a[2].sub(&b[2])],
        false => [a[0].add(&b[0]), a[1].add(&b[1]), a[2].add(&b[2])],
    }
}

/// Write `psi` into lane `l` of `tile`.
#[inline(always)]
fn put<R: Real, const N: usize>(tile: &mut Tile<R, N>, l: usize, psi: &Spinor<R>) {
    for (t, v) in tile.iter_mut().zip(&psi.s) {
        for (t, z) in t.iter_mut().zip(&v.c) {
            t.re[l] = z.re;
            t.im[l] = z.im;
        }
    }
}

/// Lane `l` of `tile` as a spinor.
#[inline(always)]
fn get<R: Real, const N: usize>(tile: &Tile<R, N>, l: usize) -> Spinor<R> {
    let mut psi = Spinor::zero();
    for (v, t) in psi.s.iter_mut().zip(tile) {
        for (z, t) in v.c.iter_mut().zip(t) {
            *z = Complex::new(t.re[l], t.im[l]);
        }
    }
    psi
}

/// `inp[b[l] + hop]` into lane `l` of `tile` for every `l`: in-register
/// transposes straight from the operand when `avx2` (the running CPU has
/// AVX2), else [`put`] per lane.
#[inline(always)]
fn gather<R: Real, const N: usize>(
    tile: &mut Tile<R, N>,
    inp: &[Spinor<R>],
    (b, hop): (&[usize; N], usize),
    avx2: bool,
) {
    if avx2 {
        #[cfg(target_arch = "x86_64")]
        {
            let mut rows = [std::ptr::null(); N];
            for (r, &b) in rows.iter_mut().zip(b) {
                *r = std::ptr::from_ref(&inp[b + hop]).cast::<R>();
            }
            // SAFETY: `avx2` is `simd::has_avx2()`, so the CPU supports
            // AVX2, and each row points at a whole spinor of `inp`.
            if unsafe { x86::gather(tile, &rows) } {
                return;
            }
        }
    }
    for (l, &b) in b.iter().enumerate() {
        put(tile, l, &inp[b + hop]);
    }
}

/// Lane `l` of `tile` into `s[l]` for every `l`: in-register transposes
/// when `avx2` (the running CPU has AVX2), else [`get`] per lane.
#[inline(always)]
fn scatter<R: Real, const N: usize>(s: &mut [Spinor<R>; N], tile: &Tile<R, N>, avx2: bool) {
    if avx2 {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `avx2` is `simd::has_avx2()`, so the CPU supports AVX2.
        if unsafe { x86::scatter(s, tile) } {
            return;
        }
    }
    for (l, psi) in s.iter_mut().enumerate() {
        *psi = get(tile, l);
    }
}

/// The lanes' spinors at a site's eight neighbors, in [`hop_site`]'s hop
/// order: `2·mu` forward, `2·mu + 1` backward.
type Gathered<R, const N: usize> = [Tile<R, N>; 2 * ND];

/// What every lane of a site shares besides its neighbor indices: the
/// links `Uμ(x)` and `Uμ(x − μ̂)`, and whether the temporal forward and
/// backward hops flip sign.
struct Site<'r, R> {
    fwd: &'r [Su3<R>; ND],
    bwd: &'r [Su3<R>; ND],
    flip: [bool; 2],
}

/// Hop one 4D site's row: its `l5 × nrhs` spinors, spinor `k = s·nrhs + j`
/// (slice `s`, column `j`) at offset `s·slice_len + j`, as `H` or, when
/// `dagger`, as `H† = γ5 H γ5`. Neighbor `e`'s spinors start at index
/// `slot(e)` of `inp`, and `store(b, h)` takes the hop of the spinor at
/// offset `b`. Full-width lane groups, then at most one half-width group,
/// then [`hop_site`] on what is left; every hop is [`hop_site`]'s value to
/// the bit.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn hop_row<R: Real>(
    nb: &Neighbors,
    x: usize,
    (antiperiodic_t, dagger): (bool, bool),
    (fwd, bwd): (&[Su3<R>; ND], &[Su3<R>; ND]),
    (l5, nrhs, slice_len): (usize, usize, usize),
    inp: &[Spinor<R>],
    slot: impl Fn(usize) -> usize,
    store: impl Fn(usize, Spinor<R>),
) {
    let flip = |wrap: u8| antiperiodic_t && (wrap >> 3) & 1 == 1;
    let row = Row {
        hops: std::array::from_fn(|k| match k % 2 {
            0 => slot(nb.fwd[k / 2] as usize),
            _ => slot(nb.bwd[k / 2] as usize),
        }),
        site: Site {
            fwd,
            bwd,
            flip: [flip(nb.fwd_wrap), flip(nb.bwd_wrap)],
        },
        inp,
        store: &store,
        dagger,
        avx2: simd::has_avx2(),
    };
    let mut at = Cursor {
        s: 0,
        j: 0,
        nrhs,
        slice_len,
    };
    let lanes = l5 * nrhs;
    let left = match std::mem::size_of::<R>() {
        4 => row.groups::<8, 4>(lanes, &mut at),
        _ => row.groups::<4, 2>(lanes, &mut at),
    };
    for _ in 0..left {
        let [b] = at.take();
        // `hop_site` asks for `link(x, mu)` on forward hops and
        // `link(nb.bwd[mu], mu)` on backward ones; when a backward neighbor
        // coincides with `x` (extent-1 direction) the forward cache is the
        // same link, so the site test is exact.
        let link = |site: usize, mu: usize| if site == x { fwd[mu] } else { bwd[mu] };
        let fetch = |e: usize| inp[b + slot(e)];
        let h = match dagger {
            false => hop_site::<R, false>(nb, x, antiperiodic_t, &fetch, &link),
            true => hop_site::<R, true>(nb, x, antiperiodic_t, &fetch, &link),
        };
        store(b, h);
    }
}

/// The offsets `s·slice_len + j` of a row's spinors `k = s·nrhs + j`, in
/// turn from `(s, j)`.
struct Cursor {
    s: usize,
    j: usize,
    nrhs: usize,
    slice_len: usize,
}

impl Cursor {
    /// The next `N` offsets.
    #[inline(always)]
    fn take<const N: usize>(&mut self) -> [usize; N] {
        let mut b = [0; N];
        for b in &mut b {
            *b = self.s * self.slice_len + self.j;
            self.j += 1;
            if self.j == self.nrhs {
                (self.s, self.j) = (self.s + 1, 0);
            }
        }
        b
    }
}

/// What [`hop_row`]'s lane groups share: the index of `inp` where each
/// hop's neighbor spinors start, in [`Gathered`] order, the site, whether
/// the hop is the adjoint, and whether the CPU has AVX2 (checked once a
/// row).
struct Row<'r, R, St> {
    hops: [usize; 2 * ND],
    site: Site<'r, R>,
    inp: &'r [Spinor<R>],
    store: &'r St,
    dagger: bool,
    avx2: bool,
}

impl<R: Real, St> Row<'_, R, St>
where
    St: Fn(usize, Spinor<R>),
{
    /// Groups of `W` lanes while `left` allows, then one of `H` if it still
    /// does; returns the spinors left over.
    #[inline(always)]
    fn groups<const W: usize, const H: usize>(&self, mut left: usize, at: &mut Cursor) -> usize {
        while left >= W {
            self.group::<W>(at.take());
            left -= W;
        }
        if left >= H {
            self.group::<H>(at.take());
            left -= H;
        }
        left
    }

    /// The `N` spinors at offsets `b` as one lane group: gather, hop,
    /// scatter.
    #[inline(always)]
    fn group<const N: usize>(&self, b: [usize; N]) {
        // Loops, not `array::map`: a closure LLVM kept out of line would
        // run at the baseline ISA (see `simd::dispatch`).
        let mut psi: Gathered<R, N> = [[[Lanes::zero(); NC]; NS]; 2 * ND];
        for (tile, &hop) in psi.iter_mut().zip(&self.hops) {
            gather(tile, self.inp, (&b, hop), self.avx2);
        }
        let r = match self.dagger {
            false => hop_tiles::<R, N, false>(&psi, &self.site),
            true => hop_tiles::<R, N, true>(&psi, &self.site),
        };
        let mut s = [Spinor::zero(); N];
        scatter(&mut s, &r, self.avx2);
        for (s, &b) in s.iter().zip(&b) {
            (self.store)(b, *s);
        }
    }
}

/// [`hop_site`] on `N` lanes at once, as `H` or, when `DAGGER`, as `H†`.
/// Its only parameters are the real, the width and the flag, so it is
/// compiled once per group shape and direction (and by its own
/// [`simd::dispatch`], once per ISA) whatever operator, gauge storage or
/// closures the sweep around it was built for. The eight hops are spelled
/// out in [`hop_site`]'s order, so each one's γ permutation, phases and
/// projector sign are constants.
#[inline(never)]
fn hop_tiles<R: Real, const N: usize, const DAGGER: bool>(
    psi: &Gathered<R, N>,
    site: &Site<'_, R>,
) -> Tile<R, N> {
    simd::dispatch(
        psi,
        #[inline(always)]
        |psi| {
            let mut r = [[Lanes::zero(); NC]; NS];
            hop_dir::<R, N, DAGGER>(&mut r, &psi[0], site, 0, false);
            hop_dir::<R, N, DAGGER>(&mut r, &psi[1], site, 0, true);
            hop_dir::<R, N, DAGGER>(&mut r, &psi[2], site, 1, false);
            hop_dir::<R, N, DAGGER>(&mut r, &psi[3], site, 1, true);
            hop_dir::<R, N, DAGGER>(&mut r, &psi[4], site, 2, false);
            hop_dir::<R, N, DAGGER>(&mut r, &psi[5], site, 2, true);
            hop_dir::<R, N, DAGGER>(&mut r, &psi[6], site, 3, false);
            hop_dir::<R, N, DAGGER>(&mut r, &psi[7], site, 3, true);
            r
        },
    )
}

/// One of [`hop_tiles`]' eight hops on the gathered `psi`, accumulated into
/// `r`: `(1 − γμ) Uμ(x) ψ(x+μ̂)`, or `(1 + γμ) U†μ(x−μ̂) ψ(x−μ̂)` when
/// `backward`; the adjoint swaps the two projector signs.
#[inline(always)]
fn hop_dir<R: Real, const N: usize, const DAGGER: bool>(
    r: &mut Tile<R, N>,
    psi: &Tile<R, N>,
    site: &Site<'_, R>,
    mu: usize,
    backward: bool,
) {
    let g = &GAMMAS[mu];
    let (p0, p1, p2, p3) = (g.perm[0], g.perm[1], g.perm[2], g.perm[3]);
    let phi: [Complex<R>; NS] = [
        g.phase[0].cast(),
        g.phase[1].cast(),
        g.phase[2].cast(),
        g.phase[3].cast(),
    ];
    let minus = backward == DAGGER;
    let h0 = add_or_sub(&psi[0], &scale_c(&psi[p0], phi[0]), minus);
    let h1 = add_or_sub(&psi[1], &scale_c(&psi[p1], phi[1]), minus);
    let mut t = match backward {
        false => [mul_vec(&site.fwd[mu], &h0), mul_vec(&site.fwd[mu], &h1)],
        true => [
            dagger_mul_vec(&site.bwd[mu], &h0),
            dagger_mul_vec(&site.bwd[mu], &h1),
        ],
    };
    if mu == 3 && site.flip[usize::from(backward)] {
        t = [neg(&t[0]), neg(&t[1])];
    }
    accumulate(&mut r[0], &t[0]);
    accumulate(&mut r[1], &t[1]);
    let (t2, t3) = (scale_c(&t[p2], phi[2]), scale_c(&t[p3], phi[3]));
    match minus {
        true => {
            accumulate(&mut r[2], &neg(&t2));
            accumulate(&mut r[3], &neg(&t3));
        }
        false => {
            accumulate(&mut r[2], &t2);
            accumulate(&mut r[3], &t3);
        }
    }
}

/// The lane gather and scatter as in-register transposes, the kernels'
/// one use of vector intrinsics. A group's reals are `24 / N` blocks of
/// `N × N`: on the [`Spinor`] side a block row is `N` reals of one spinor,
/// on the [`Tile`] side `N` lanes of one real. Each block is loaded as `N`
/// vectors (whole rows, or two half rows where that spares a lane-crossing
/// permute), each row through its own pointer, transposed with shuffles
/// and stored as `N` vectors. Shuffles move bits and never compute, so
/// every real, signed zero, subnormal, infinity and NaN payload arrives as
/// [`put`] or [`get`] would write it.
///
/// Nothing here may run unless `simd::has_avx2()` holds. The functions are
/// `#[inline(always)]` without a `target_feature` of their own: inlined
/// into a [`simd::dispatch`] body's AVX2 codegen, the intrinsics inline
/// with them (an out-of-line call per neighbor tile costs the gain).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Tile;
    use crate::spinor::Spinor;
    use std::any::TypeId;
    use std::arch::x86_64::*;

    /// [`super::put`] of the spinor at `rows[l]` into lane `l` of `tile`
    /// for every `l`. Returns `false`, moving nothing, unless the group is
    /// one of the four shapes: `f32` × 8 or 4, `f64` × 4 or 2.
    ///
    /// # Safety
    ///
    /// Each row points at 24 readable reals (a whole [`Spinor`]), none of
    /// them inside `tile`, and the CPU supports AVX2.
    #[inline(always)]
    // SAFETY: a contract, not a use: callers uphold `# Safety` above.
    pub(super) unsafe fn gather<R: 'static, const N: usize>(
        tile: &mut Tile<R, N>,
        rows: &[*const R; N],
    ) -> bool {
        let dst = (tile as *mut Tile<R, N>).cast::<R>();
        // SAFETY: by the layout asserts `tile` is 24 rows of `N`; block `k`
        // reads reals `N·k..N·k + N` of each spinor row, which the caller
        // vouches for, and writes rows `N·i` from `N²·k`, `i < N`,
        // `k < 24 / N`, in bounds of the distinct borrow `tile`.
        unsafe { blocks::<R, N>(rows, N, dst, (N, N * N)) }
    }

    /// [`super::get`] of lane `l` of `tile` into `s[l]` for every `l`.
    /// Returns `false`, moving nothing, for the same shapes as [`gather`].
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2.
    #[inline(always)]
    // SAFETY: a contract, not a use: callers uphold `# Safety` above.
    pub(super) unsafe fn scatter<R: 'static, const N: usize>(
        s: &mut [Spinor<R>; N],
        tile: &Tile<R, N>,
    ) -> bool {
        let src = (tile as *const Tile<R, N>).cast::<R>();
        let mut rows = [src; N];
        for (i, r) in rows.iter_mut().enumerate() {
            *r = src.wrapping_add(i * N);
        }
        // SAFETY: as in `gather`, the tile's rows `N` apart (blocks `N²`
        // apart) as the source and `s`, `N` rows of 24 reals, as the
        // destination.
        unsafe { blocks::<R, N>(&rows, N * N, s.as_mut_ptr().cast::<R>(), (24, N)) }
    }

    /// Transpose the `24 / N` blocks of `N × N` reals: row `r` of block `k`
    /// is read at `src[r] + k·src_k` and written as column `r` of the block
    /// at `dst + k·dst_k`, whose rows are `dst_r` apart.
    ///
    /// # Safety
    ///
    /// Every position named is in bounds of its allocation, the source and
    /// destination ranges do not overlap, and the CPU supports AVX2.
    #[inline(always)]
    // SAFETY: a contract, not a use: callers uphold `# Safety` above.
    unsafe fn blocks<R: 'static, const N: usize>(
        src: &[*const R; N],
        src_k: usize,
        dst: *mut R,
        (dst_r, dst_k): (usize, usize),
    ) -> bool {
        let real = TypeId::of::<R>();
        let (f32s, f64s) = (real == TypeId::of::<f32>(), real == TypeId::of::<f64>());
        for k in 0..24 / N {
            let (off, dst) = (k * src_k, dst.wrapping_add(k * dst_k));
            // SAFETY: `R` is the real each arm casts to; the caller vouches
            // for the positions and the ISA.
            unsafe {
                match N {
                    8 if f32s => t8_ps(src, off, dst.cast(), dst_r),
                    4 if f32s => t4_ps(src, off, dst.cast(), dst_r),
                    4 if f64s => t4_pd(src, off, dst.cast(), dst_r),
                    2 if f64s => t2_pd(src, off, dst.cast(), dst_r),
                    _ => return false,
                }
            }
        }
        true
    }

    /// Real `c` of block row `r`, at `src[r] + off + c`, as a `T` pointer
    /// (`T` is the real behind `R`, checked by [`blocks`]).
    #[inline(always)]
    fn at<R, T>(src: &[*const R], off: usize, r: usize, c: usize) -> *const T {
        src[r].wrapping_add(off).cast::<T>().wrapping_add(c)
    }

    /// One 8 × 8 `f32` block. Each vector pairs the same four columns of
    /// row `i` (low half) and row `i + 4` (high half), loaded as two 128-bit
    /// halves, so the two in-lane shuffle stages of [`t4_ps`] finish the
    /// transpose without a lane-crossing permute.
    ///
    /// # Safety
    ///
    /// As for [`blocks`], at `N = 8`.
    #[inline(always)]
    // SAFETY: a contract, not a use: callers uphold `# Safety` above.
    unsafe fn t8_ps<R>(src: &[*const R], off: usize, dst: *mut f32, dst_r: usize) {
        // SAFETY: the caller vouches for AVX2 and for rows `< 8` of 8 reals
        // at both ends.
        unsafe {
            let mut r = [_mm256_setzero_ps(); 8];
            for (i, r) in r.iter_mut().enumerate() {
                // Rows `i % 4` and `i % 4 + 4`, columns `4·(i / 4)` on.
                let c = 4 * (i / 4);
                *r = _mm256_loadu2_m128(at(src, off, i % 4 + 4, c), at(src, off, i % 4, c));
            }
            for (h, r) in r.chunks_exact(4).enumerate() {
                // Per 128-bit half, rows a..d (e..h): a0 b0 a1 b1,
                // a2 b2 a3 b3, c0 d0 c1 d1, c2 d2 c3 d3, then columns
                // `4h..4h + 4`.
                let (ab01, ab23) = (
                    _mm256_unpacklo_ps(r[0], r[1]),
                    _mm256_unpackhi_ps(r[0], r[1]),
                );
                let (cd01, cd23) = (
                    _mm256_unpacklo_ps(r[2], r[3]),
                    _mm256_unpackhi_ps(r[2], r[3]),
                );
                let o = [
                    _mm256_shuffle_ps::<0x44>(ab01, cd01),
                    _mm256_shuffle_ps::<0xEE>(ab01, cd01),
                    _mm256_shuffle_ps::<0x44>(ab23, cd23),
                    _mm256_shuffle_ps::<0xEE>(ab23, cd23),
                ];
                for (i, o) in o.into_iter().enumerate() {
                    _mm256_storeu_ps(dst.add((4 * h + i) * dst_r), o);
                }
            }
        }
    }

    /// One 4 × 4 `f32` block: two SSE shuffle stages.
    ///
    /// # Safety
    ///
    /// As for [`blocks`], at `N = 4`.
    #[inline(always)]
    // SAFETY: a contract, not a use: callers uphold `# Safety` above.
    unsafe fn t4_ps<R>(src: &[*const R], off: usize, dst: *mut f32, dst_r: usize) {
        // SAFETY: the caller vouches for AVX2 and for rows `< 4` of 4 reals
        // at both ends.
        unsafe {
            let mut r = [_mm_setzero_ps(); 4];
            for (i, r) in r.iter_mut().enumerate() {
                *r = _mm_loadu_ps(at(src, off, i, 0));
            }
            let (ab01, cd01) = (_mm_unpacklo_ps(r[0], r[1]), _mm_unpacklo_ps(r[2], r[3]));
            let (ab23, cd23) = (_mm_unpackhi_ps(r[0], r[1]), _mm_unpackhi_ps(r[2], r[3]));
            let o = [
                _mm_movelh_ps(ab01, cd01),
                _mm_movehl_ps(cd01, ab01),
                _mm_movelh_ps(ab23, cd23),
                _mm_movehl_ps(cd23, ab23),
            ];
            for (i, o) in o.into_iter().enumerate() {
                _mm_storeu_ps(dst.add(i * dst_r), o);
            }
        }
    }

    /// One 4 × 4 `f64` block. Each vector pairs two columns of row `i`
    /// (low half) and row `i + 2` (high half), loaded as two 128-bit
    /// halves, so one in-lane shuffle stage finishes the transpose.
    ///
    /// # Safety
    ///
    /// As for [`blocks`], at `N = 4`.
    #[inline(always)]
    // SAFETY: a contract, not a use: callers uphold `# Safety` above.
    unsafe fn t4_pd<R>(src: &[*const R], off: usize, dst: *mut f64, dst_r: usize) {
        // SAFETY: the caller vouches for AVX2 and for rows `< 4` of 4 reals
        // at both ends.
        unsafe {
            let mut r = [_mm256_setzero_pd(); 4];
            for (i, r) in r.iter_mut().enumerate() {
                // Rows `i % 2` and `i % 2 + 2`, columns `2·(i / 2)` on.
                let c = 2 * (i / 2);
                *r = _mm256_loadu2_m128d(at(src, off, i % 2 + 2, c), at(src, off, i % 2, c));
            }
            // a0 b0 | c0 d0, a1 b1 | c1 d1, a2 b2 | c2 d2, a3 b3 | c3 d3.
            let o = [
                _mm256_unpacklo_pd(r[0], r[1]),
                _mm256_unpackhi_pd(r[0], r[1]),
                _mm256_unpacklo_pd(r[2], r[3]),
                _mm256_unpackhi_pd(r[2], r[3]),
            ];
            for (i, o) in o.into_iter().enumerate() {
                _mm256_storeu_pd(dst.add(i * dst_r), o);
            }
        }
    }

    /// One 2 × 2 `f64` block: one SSE2 shuffle stage.
    ///
    /// # Safety
    ///
    /// As for [`blocks`], at `N = 2`.
    #[inline(always)]
    // SAFETY: a contract, not a use: callers uphold `# Safety` above.
    unsafe fn t2_pd<R>(src: &[*const R], off: usize, dst: *mut f64, dst_r: usize) {
        // SAFETY: the caller vouches for AVX2 and for rows `< 2` of 2 reals
        // at both ends.
        unsafe {
            let (a, b) = (
                _mm_loadu_pd(at(src, off, 0, 0)),
                _mm_loadu_pd(at(src, off, 1, 0)),
            );
            _mm_storeu_pd(dst, _mm_unpacklo_pd(a, b));
            _mm_storeu_pd(dst.add(dst_r), _mm_unpackhi_pd(a, b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real as its bit pattern and back, with the masks that build the
    /// awkward values.
    trait Bits: Real {
        const SIGN: u64;
        const EXP: u64;
        const QUIET: u64;
        fn bits(self) -> u64;
        fn from_bits(b: u64) -> Self;
    }

    impl Bits for f32 {
        const SIGN: u64 = 1 << 31;
        const EXP: u64 = 0xff << 23;
        const QUIET: u64 = 1 << 22;
        fn bits(self) -> u64 {
            self.to_bits().into()
        }
        fn from_bits(b: u64) -> Self {
            f32::from_bits(u32::try_from(b).expect("an f32 pattern"))
        }
    }

    impl Bits for f64 {
        const SIGN: u64 = 1 << 63;
        const EXP: u64 = 0x7ff << 52;
        const QUIET: u64 = 1 << 51;
        fn bits(self) -> u64 {
            self.to_bits()
        }
        fn from_bits(b: u64) -> Self {
            f64::from_bits(b)
        }
    }

    /// The `i`-th of a run of reals no arithmetic would leave alone: ±0,
    /// small and large subnormals, ±∞, quiet and signaling NaNs of both
    /// signs whose payload is `i + 1` (so no two NaNs are alike), and
    /// ordinary values.
    fn awkward<R: Bits>(i: usize) -> R {
        let p = i as u64 + 1;
        assert!(p < R::QUIET, "payload below the quiet bit");
        let sign = R::SIGN * (i / 8 % 2) as u64;
        R::from_bits(match i % 8 {
            0 => sign,
            1 => p,
            2 => R::SIGN | R::QUIET | p,
            3 => sign | R::EXP,
            4 => R::EXP | R::QUIET | p,
            5 => R::EXP | p,
            6 => R::SIGN | R::EXP | R::QUIET | p,
            _ => return R::from_f64(i as f64 * 0.5 - 3.0),
        })
    }

    /// The spinor whose real `k` (`2·(3s + c) + re/im`) is `f(k)`.
    fn spinor<R: Real>(f: impl Fn(usize) -> R) -> Spinor<R> {
        let mut psi = Spinor::zero();
        for (s, v) in psi.s.iter_mut().enumerate() {
            for (c, z) in v.c.iter_mut().enumerate() {
                let k = 2 * (3 * s + c);
                *z = Complex::new(f(k), f(k + 1));
            }
        }
        psi
    }

    fn spinor_bits<R: Bits>(psi: &Spinor<R>) -> Vec<u64> {
        let z = psi.s.iter().flat_map(|v| &v.c);
        z.flat_map(|z| [z.re.bits(), z.im.bits()]).collect()
    }

    /// Every real of `tile` in memory order.
    fn tile_bits<R: Bits, const N: usize>(tile: &Tile<R, N>) -> Vec<u64> {
        let z = tile.iter().flatten();
        z.flat_map(|z| z.re.iter().chain(&z.im))
            .map(|&x| x.bits())
            .collect()
    }

    /// The gather and the scatter at one group shape against [`put`] and
    /// [`get`], real by real, and a gather then a scatter against the
    /// gathered spinors. The gather reads a row's lanes the way
    /// [`hop_row`] does, from an operand at non-uniform offsets: `nrhs` 3
    /// from column 2 on, so every group crosses a slice boundary, shifted
    /// by a neighbor's slot. On an AVX2 host this holds the transposes to
    /// the scalar path (and checks they take the shape); elsewhere both
    /// sides are scalar.
    fn transposes_match_put_and_get<R: Bits, const N: usize>() {
        let avx2 = simd::has_avx2();
        let (nrhs, slice_len, slot) = (3, 15, 3);
        let mut cursor = Cursor {
            s: 0,
            j: 2,
            nrhs,
            slice_len,
        };
        let b: [usize; N] = cursor.take();
        let at = b.map(|b| b + slot);
        let inp: Vec<Spinor<R>> = (0..slice_len * (N + 1))
            .map(|i| spinor(|k| awkward(24 * i + k)))
            .collect();
        let mut want: Tile<R, N> = [[Lanes::zero(); NC]; NS];
        for (l, &i) in at.iter().enumerate() {
            put(&mut want, l, &inp[i]);
        }
        // Prefilled with other values, so a real the gather skips shows.
        let mut got: Tile<R, N> = [[Lanes::zero(); NC]; NS];
        for l in 0..N {
            put(&mut got, l, &spinor(|k| awkward(500_000 + 24 * l + k)));
        }
        gather(&mut got, &inp, (&b, slot), avx2);
        let what = format!("{} × {N}, avx2 {avx2}", R::NAME);
        assert_eq!(tile_bits(&got), tile_bits(&want), "gather {what}");

        let mut tile: Tile<R, N> = [[Lanes::zero(); NC]; NS];
        for l in 0..N {
            put(&mut tile, l, &spinor(|k| awkward(1_000_000 + 24 * l + k)));
        }
        let mut out = [Spinor::zero(); N];
        scatter(&mut out, &tile, avx2);
        for (l, psi) in out.iter().enumerate() {
            let want = spinor_bits(&get(&tile, l));
            assert_eq!(spinor_bits(psi), want, "scatter {what}, lane {l}");
        }

        scatter(&mut out, &got, avx2);
        for (l, (psi, &i)) in out.iter().zip(&at).enumerate() {
            let want = spinor_bits(&inp[i]);
            assert_eq!(spinor_bits(psi), want, "round trip {what}, lane {l}");
        }

        #[cfg(target_arch = "x86_64")]
        if avx2 {
            let mut t: Tile<R, N> = [[Lanes::zero(); NC]; NS];
            let rows: [*const R; N] = at.map(|i| std::ptr::from_ref(&inp[i]).cast());
            // SAFETY: the CPU was just detected to support AVX2, and each
            // row is a whole spinor of `inp`.
            let took = unsafe { x86::gather(&mut t, &rows) && x86::scatter(&mut out, &t) };
            assert!(took, "{what} has a transpose");
        }
    }

    #[test]
    fn transposes_are_bit_identical_to_put_and_get() {
        transposes_match_put_and_get::<f32, 8>();
        transposes_match_put_and_get::<f32, 4>();
        transposes_match_put_and_get::<f64, 4>();
        transposes_match_put_and_get::<f64, 2>();
    }
}
