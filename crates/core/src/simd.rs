//! Runtime ISA dispatch for the hot kernel bodies.
//!
//! The hot kernel bodies are plain scalar loops, written so rustc's
//! autovectorizer handles them; the baseline `x86_64` ISA caps that at
//! 128-bit vectors. Each kernel runs its chunk body through `dispatch`,
//! which on a CPU with AVX2 calls it inside one
//! `#[target_feature(enable = "avx2")]` wrapper, so the same source is
//! compiled a second time with 256-bit vectors. There is no feature switch:
//! every build, the test suite included, carries both codegens and picks
//! one per call from `has_avx2`. The baseline codegen runs only on CPUs
//! without AVX2 (and on other architectures).
//!
//! Two kernels lay sites across vector lanes: the fused stencil
//! (`dirac::lanes`), and the baryon contraction, whose `SiteLanes` complex
//! holds four sites' reals and four sites' imaginaries as plain `[f64; 4]`
//! arrays, so every lane repeats the one-site `C64` chain and the
//! autovectorizer fills a 256-bit register per operation.
//!
//! The one exception to plain loops is the fused stencil's lane gather and
//! scatter (`dirac::lanes`), written as in-register transposes with
//! `std::arch` intrinsics. Their contract: every intrinsic sits in one
//! `#[cfg(target_arch = "x86_64")]` module, is reached only behind a
//! `has_avx2` answer of `true` (asked once per stencil row), and inlines
//! into a `dispatch` body, whose AVX2 codegen is where it runs. The
//! intrinsics only move bits (loads, stores, shuffles), so the transposes
//! write exactly what the scalar per-lane moves they replace would, and
//! those moves remain the path on every other CPU.

/// Run `f(ctx)`, compiled for AVX2 when the running CPU supports it.
///
/// `f` must be an `#[inline(always)]` closure. It has two call sites, the
/// AVX2 wrapper and the fallback below; a closure LLVM keeps out of line is
/// compiled once, at the baseline width, and the "AVX2" path would then run
/// 128-bit code. Every bit would still match, so no test would notice.
///
/// `ctx` is the read-only data the body works from: the kernel's receiver,
/// input vector or scalar. It reaches `f` as an argument of the AVX2 wrapper
/// itself, so LLVM knows its referent cannot change under the body's
/// output writes and keeps loads from it out of the loops. A reference
/// the closure captured instead carries no such guarantee, and the Möbius
/// column sweeps then lose up to 40 % of their 256-bit instructions.
///
/// The two codegens are bit-identical because the wrapper enables `avx2`
/// only, never `fma`, so LLVM cannot contract `a*b + c` into a fused
/// multiply-add, and `lqcd-core` never calls `mul_add`: AVX2 lanes perform
/// the same elementwise IEEE add/sub/mul as the baseline.
#[inline(always)]
pub(crate) fn dispatch<C: ?Sized, T>(ctx: &C, f: impl FnOnce(&C) -> T) -> T {
    #[cfg(target_arch = "x86_64")]
    if has_avx2() {
        // SAFETY: `avx2` enables only AVX2, which the running CPU was just
        // detected to support.
        return unsafe { avx2(ctx, f) };
    }
    f(ctx)
}

/// Whether the running CPU supports AVX2: the one test in front of every
/// AVX2 path, [`dispatch`]'s and the lane transposes'. `std` caches the
/// detection, so a call is a load and a bit test.
#[inline(always)]
pub(crate) fn has_avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// `f(ctx)` with AVX2 enabled: the inlined body of `f` gets 256-bit codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<C: ?Sized, T>(ctx: &C, f: impl FnOnce(&C) -> T) -> T {
    f(ctx)
}

#[cfg(test)]
mod tests {
    use super::dispatch;
    use crate::complex::Complex;
    use crate::dirac::lanes::{accumulate, dagger_mul_vec, mul_vec, scale_c, ColorLanes, Lanes};
    use crate::field::FermionField;
    use crate::real::Real;
    use crate::spinor::Spinor;
    use crate::su3::{ColorVec, Su3, NC};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// A kernel-shaped body: per site, SU(3) products on all four spin
    /// components (`U` and `U†`), a real `scale`, an add and a sub.
    #[inline(always)]
    fn body<R: Real>(links: &[Su3<R>], psi: &[Spinor<R>], out: &mut [Spinor<R>]) {
        let n = psi.len();
        let (a, b) = (R::from_f64(0.75), R::from_f64(-1.25));
        for (i, o) in out.iter_mut().enumerate() {
            let (u, p, q) = (&links[i], &psi[i], &psi[(i + 1) % n]);
            let mut r = Spinor::zero();
            for s in 0..4 {
                r.s[s] = u.mul_vec(&p.s[s]) + u.dagger_mul_vec(&q.s[s]);
            }
            *o = r.scale(a) + *q - p.scale(b);
        }
    }

    fn bits<R: Real>(v: &[Spinor<R>]) -> Vec<u64> {
        v.iter()
            .flat_map(|sp| sp.s.iter().flat_map(|cv| cv.c.iter()))
            .flat_map(|z| [z.re.to_f64().to_bits(), z.im.to_f64().to_bits()])
            .collect()
    }

    fn dispatched_matches_direct<R: Real>() {
        const SITES: usize = 4096;
        let psi = FermionField::<f64>::gaussian(SITES, 31).cast::<R>().data;
        let mut rng = SmallRng::seed_from_u64(37);
        let links: Vec<Su3<R>> = (0..SITES).map(|_| Su3::random(&mut rng)).collect();
        let mut direct = vec![Spinor::zero(); SITES];
        let mut dispatched = direct.clone();
        body(&links, &psi, &mut direct);
        dispatch(
            psi.as_slice(),
            #[inline(always)]
            |psi| body(&links, psi, &mut dispatched),
        );
        assert_eq!(bits(&dispatched), bits(&direct));
    }

    /// The lane body's arithmetic: per site, a broadcast link times an
    /// `N`-lane color tile with `U` and `U†`, a γ-phase multiply and an
    /// accumulation.
    #[inline(always)]
    fn lane_body<R: Real, const N: usize>(
        links: &[Su3<R>],
        tiles: &[ColorLanes<R, N>],
        out: &mut [ColorLanes<R, N>],
    ) {
        let n = tiles.len();
        let phase = Complex::<R>::from_f64(0.0, -1.0);
        for (i, o) in out.iter_mut().enumerate() {
            let (u, p, q) = (&links[i], &tiles[i], &tiles[(i + 1) % n]);
            let mut acc = mul_vec(u, p);
            accumulate(&mut acc, &scale_c(&dagger_mul_vec(u, q), phase));
            *o = acc;
        }
    }

    /// The scalar chain [`lane_body`] performs in each lane.
    fn scalar_lane<R: Real>(u: &Su3<R>, p: &ColorVec<R>, q: &ColorVec<R>) -> ColorVec<R> {
        let mut acc = u.mul_vec(p);
        acc += u.dagger_mul_vec(q).scale_c(Complex::from_f64(0.0, -1.0));
        acc
    }

    fn lane<R: Real, const N: usize>(v: &ColorLanes<R, N>, l: usize) -> ColorVec<R> {
        ColorVec {
            c: std::array::from_fn(|c| Complex::new(v[c].re[l], v[c].im[l])),
        }
    }

    fn lanes_dispatched_match_direct_and_scalar<R: Real, const N: usize>() {
        const SITES: usize = 1024;
        let psi = FermionField::<f64>::gaussian(SITES * N, 41)
            .cast::<R>()
            .data;
        let mut rng = SmallRng::seed_from_u64(43);
        let links: Vec<Su3<R>> = (0..SITES).map(|_| Su3::random(&mut rng)).collect();
        let tiles: Vec<ColorLanes<R, N>> = (0..SITES)
            .map(|i| {
                let mut t = [Lanes::zero(); NC];
                for (c, t) in t.iter_mut().enumerate() {
                    for l in 0..N {
                        let z = psi[i * N + l].s[0].c[c];
                        (t.re[l], t.im[l]) = (z.re, z.im);
                    }
                }
                t
            })
            .collect();
        let mut direct = vec![[Lanes::zero(); NC]; SITES];
        let mut dispatched = direct.clone();
        lane_body(&links, &tiles, &mut direct);
        dispatch(
            tiles.as_slice(),
            #[inline(always)]
            |tiles| lane_body(&links, tiles, &mut dispatched),
        );
        let bits = |v: &[ColorLanes<R, N>]| -> Vec<u64> {
            v.iter()
                .flat_map(|t| t.iter().flat_map(|z| z.re.iter().chain(&z.im)))
                .map(|x| x.to_f64().to_bits())
                .collect()
        };
        assert_eq!(bits(&dispatched), bits(&direct), "{} × {N}", R::NAME);
        for i in 0..SITES {
            for l in 0..N {
                let want = scalar_lane(
                    &links[i],
                    &lane(&tiles[i], l),
                    &lane(&tiles[(i + 1) % SITES], l),
                );
                let got = lane(&direct[i], l);
                for c in 0..NC {
                    let (w, g) = (want.c[c], got.c[c]);
                    assert_eq!(
                        (g.re.to_f64().to_bits(), g.im.to_f64().to_bits()),
                        (w.re.to_f64().to_bits(), w.im.to_f64().to_bits()),
                        "{} × {N}: site {i} lane {l} color {c}",
                        R::NAME
                    );
                }
            }
        }
    }

    /// The baryon contraction's lane pipeline (gather, sink fold and trace,
    /// diquark sandwich, site) on every group of a volume, dispatched and
    /// called directly, each lane also held to the one-site chain.
    fn baryon_lanes_dispatched_match_direct_and_scalar() {
        use crate::contract::tests::{gaussian_prop, projectors};
        use crate::contract::{proton_group, BaryonKernel, SiteLanes, SiteValue, LANES};
        use crate::lattice::Lattice;
        let lat = Lattice::new([4, 4, 2, 4]);
        let props = [100, 200, 300].map(|seed| gaussian_prop(&lat, seed));
        let props = props.each_ref();
        let bits = |z: crate::complex::C64| (z.re.to_bits(), z.im.to_bits());
        for (name, proj) in projectors() {
            let kernel = BaryonKernel::new(&proj);
            for x in (0..lat.volume()).step_by(LANES) {
                let direct = proton_group::<SiteLanes>(&kernel, props, x).sites();
                let dispatched = dispatch(
                    &kernel,
                    #[inline(always)]
                    |k| proton_group::<SiteLanes>(k, props, x),
                )
                .sites();
                for l in 0..LANES {
                    let want = bits(proton_group(&kernel, props, x + l));
                    assert_eq!(bits(dispatched[l]), bits(direct[l]), "{name}: site {x}+{l}");
                    assert_eq!(bits(direct[l]), want, "{name}: site {x}+{l}");
                }
            }
        }
    }

    /// On an AVX2 host this compares the AVX2 and the baseline codegen of
    /// one source, built into one test binary, to the bit: a site-at-a-time
    /// kernel body, the stencil's lane body at every group width the fused
    /// sweep runs (8 and 4 lanes in `f32`, 4 and 2 in `f64`) and the baryon
    /// contraction's lane pipeline, each lane also held to the scalar chain
    /// it replaces.
    #[test]
    fn dispatch_is_bit_identical_to_a_direct_call() {
        dispatched_matches_direct::<f64>();
        dispatched_matches_direct::<f32>();
        lanes_dispatched_match_direct_and_scalar::<f32, 8>();
        lanes_dispatched_match_direct_and_scalar::<f32, 4>();
        lanes_dispatched_match_direct_and_scalar::<f64, 4>();
        lanes_dispatched_match_direct_and_scalar::<f64, 2>();
        baryon_lanes_dispatched_match_direct_and_scalar();
    }
}
