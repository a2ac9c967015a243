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
//! epilogue.
//!
//! Storage stays array-of-structs: the eight gathered tiles are a
//! transpose on the stack, made per group and never stored.
//!
//! **Bit-identity.** Every lane performs [`hop_site`]'s exact operation
//! chain: the same IEEE adds, subtracts and multiplies in the same order
//! (`add_mul` as `(acc + a·b) − a'·b'`, full complex multiplies by the γ
//! phases, `conj` then multiply for `U†`, accumulation from zero), never
//! fused, so lane `l` of a group is the very value the scalar loop computed
//! for that spinor.
//!
//! **Codegen.** The gather and the scatter inline into the sweep's
//! [`crate::simd::dispatch`] body. The arithmetic is [`hop_tiles`], whose
//! only type parameters are the real and the width: it runs its own
//! dispatch, so each of the four group shapes is compiled once per ISA
//! rather than once per operator, gauge storage and closure. Every helper
//! under it is `#[inline(always)]`, as the dispatch requires: a helper LLVM
//! kept out of line would run at the baseline 128-bit width.

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
pub(crate) struct Lanes<R, const N: usize> {
    pub(crate) re: [R; N],
    pub(crate) im: [R; N],
}

/// One color vector per lane.
pub(crate) type ColorLanes<R, const N: usize> = [Lanes<R, N>; NC];

/// One spinor per lane, lane-major: 24 × `[R; N]` in a spinor's own order
/// of reals.
pub(crate) type Tile<R, const N: usize> = [ColorLanes<R, N>; NS];

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
/// (slice `s`, column `j`) at offset `s·slice_len + j`. Neighbor `e`'s
/// spinors start at input index `slot(e)`, `fetch(i)` is the spinor at
/// input index `i`, and `store(b, h)` takes the hop of the spinor at offset
/// `b`. Full-width lane groups, then at most one half-width group,
/// then [`hop_site`] on what is left; every hop is [`hop_site`]'s value to
/// the bit.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn hop_row<R: Real>(
    nb: &Neighbors,
    x: usize,
    antiperiodic_t: bool,
    (fwd, bwd): (&[Su3<R>; ND], &[Su3<R>; ND]),
    (l5, nrhs, slice_len): (usize, usize, usize),
    slot: impl Fn(usize) -> usize,
    fetch: impl Fn(usize) -> Spinor<R>,
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
        fetch: &fetch,
        store: &store,
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
        store(
            b,
            hop_site(nb, x, antiperiodic_t, &|e| fetch(b + slot(e)), &link),
        );
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

/// What [`hop_row`]'s lane groups share: the input index where each hop's
/// neighbor spinors start, in [`Gathered`] order, and the site.
struct Row<'r, R, Fe, St> {
    hops: [usize; 2 * ND],
    site: Site<'r, R>,
    fetch: &'r Fe,
    store: &'r St,
}

impl<R: Real, Fe, St> Row<'_, R, Fe, St>
where
    Fe: Fn(usize) -> Spinor<R>,
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
        let mut psi: Gathered<R, N> = [[[Lanes::zero(); NC]; NS]; 2 * ND];
        for (tile, &at) in psi.iter_mut().zip(&self.hops) {
            for (l, &b) in b.iter().enumerate() {
                put(tile, l, &(self.fetch)(b + at));
            }
        }
        let r = hop_tiles(&psi, &self.site);
        for (l, &b) in b.iter().enumerate() {
            (self.store)(b, get(&r, l));
        }
    }
}

/// [`hop_site`] on `N` lanes at once. Its only type parameters are
/// the real and the width, so it is compiled once per group shape (and by
/// its own [`simd::dispatch`], once per ISA) whatever operator, gauge
/// storage or closures the sweep around it was built for. The eight hops
/// are spelled out in [`hop_site`]'s order, so each one's γ permutation
/// and phases are constants.
#[inline(never)]
fn hop_tiles<R: Real, const N: usize>(psi: &Gathered<R, N>, site: &Site<'_, R>) -> Tile<R, N> {
    simd::dispatch(
        psi,
        #[inline(always)]
        |psi| {
            let mut r = [[Lanes::zero(); NC]; NS];
            hop_dir(&mut r, &psi[0], site, 0, false);
            hop_dir(&mut r, &psi[1], site, 0, true);
            hop_dir(&mut r, &psi[2], site, 1, false);
            hop_dir(&mut r, &psi[3], site, 1, true);
            hop_dir(&mut r, &psi[4], site, 2, false);
            hop_dir(&mut r, &psi[5], site, 2, true);
            hop_dir(&mut r, &psi[6], site, 3, false);
            hop_dir(&mut r, &psi[7], site, 3, true);
            r
        },
    )
}

/// One of [`hop_tiles`]' eight hops on the gathered `psi`, accumulated into
/// `r`: `(1 − γμ) Uμ(x) ψ(x+μ̂)`, or `(1 + γμ) U†μ(x−μ̂) ψ(x−μ̂)` when
/// `backward`.
#[inline(always)]
fn hop_dir<R: Real, const N: usize>(
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
    let h0 = add_or_sub(&psi[0], &scale_c(&psi[p0], phi[0]), !backward);
    let h1 = add_or_sub(&psi[1], &scale_c(&psi[p1], phi[1]), !backward);
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
    match backward {
        false => {
            accumulate(&mut r[2], &neg(&t2));
            accumulate(&mut r[3], &neg(&t3));
        }
        true => {
            accumulate(&mut r[2], &t2);
            accumulate(&mut r[3], &t3);
        }
    }
}
