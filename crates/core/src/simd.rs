//! Runtime ISA dispatch for the hot kernel bodies.
//!
//! The hot kernel bodies are plain scalar loops, written so rustc's
//! autovectorizer handles them; the baseline `x86_64` ISA caps that at
//! 128-bit vectors. Each kernel runs its chunk body through `dispatch`,
//! which on a CPU with AVX2 calls it inside one
//! `#[target_feature(enable = "avx2")]` wrapper, so the same source is
//! compiled a second time with 256-bit vectors. There is no feature switch:
//! every build, the test suite included, carries both codegens and picks
//! one per call from `std::arch::is_x86_feature_detected!`. The baseline
//! codegen runs only on CPUs without AVX2 (and on other architectures).

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
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `avx2` enables only AVX2, which the running CPU was just
        // detected to support.
        return unsafe { avx2(ctx, f) };
    }
    f(ctx)
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
    use crate::field::FermionField;
    use crate::real::Real;
    use crate::spinor::Spinor;
    use crate::su3::Su3;
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

    /// On an AVX2 host this compares the AVX2 and the baseline codegen of
    /// one source, built into one test binary, to the bit.
    #[test]
    fn dispatch_is_bit_identical_to_a_direct_call() {
        dispatched_matches_direct::<f64>();
        dispatched_matches_direct::<f32>();
    }
}
