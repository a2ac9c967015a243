//! BLAS-1 operations on spinor vectors.
//!
//! These are the auxiliary operations of the CG solver (50–100 flops per
//! lattice site in the paper's accounting — "extremely bandwidth bound").
//! All reductions accumulate in `f64` regardless of storage precision,
//! matching the paper's reporting convention that "all reductions are done in
//! double precision"; `rayon::reduce_chunks` provides the parallel
//! reduction.

use crate::complex::{Complex, C64};
use crate::real::Real;
use crate::spinor::Spinor;
use std::mem::{ManuallyDrop, MaybeUninit};

/// Minimum vector length before a BLAS-1 loop is split across threads; tiny
/// vectors stay a single sequential chunk to avoid fork-join overhead.
const PAR_THRESHOLD: usize = 1 << 12;

/// Chunk length for a loop over `len` spinors. Below `PAR_THRESHOLD` the
/// whole vector is one chunk (sequential, and bit-identical to a plain
/// loop); above it, fixed chunks split the work across the pool. Derived
/// from `len` only, so the chunk shape — and therefore every reduction's
/// bits — is independent of the pool width.
pub(crate) fn grain_for(len: usize) -> usize {
    if len < PAR_THRESHOLD {
        len.max(1)
    } else {
        PAR_THRESHOLD / 4
    }
}

/// Chunk length of the set-up and conversion loops (random starts,
/// precision casts, half-precision packing, heat-bath passes, `sub`): 64
/// chunks at any length, so even a 256-site pass forks. Like `grain_for`,
/// derived from `len` only.
pub(crate) fn fixed_grain(len: usize) -> usize {
    len.div_ceil(64).max(1)
}

/// `[f(0), f(1), …, f(len − 1)]`, computed in `fixed_grain` chunks on the
/// pool. Each element is written once, into uninitialised storage: a
/// default-filled vector would double the writes of a light map such as a
/// precision cast.
pub(crate) fn collect_chunked<B: Send>(len: usize, f: impl Fn(usize) -> B + Sync + Send) -> Vec<B> {
    let mut out: Vec<MaybeUninit<B>> = Vec::with_capacity(len);
    out.resize_with(len, MaybeUninit::uninit);
    rayon::for_each_chunk_mut(&mut out, fixed_grain(len), |base, chunk| {
        for (k, o) in chunk.iter_mut().enumerate() {
            o.write(f(base + k));
        }
    });
    let mut out = ManuallyDrop::new(out);
    // SAFETY: `for_each_chunk_mut` hands every index of `0..len` to exactly
    // one chunk and returns only once all have run (a panicking chunk
    // unwinds out of it before this line), so all `len` elements were
    // written above; `MaybeUninit<B>` has `B`'s layout, and `ManuallyDrop`
    // hands the allocation over without freeing it.
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<B>(), len, out.capacity()) }
}

/// Chunked elementwise update `y[i] = f(y[i], x[i])`: the one code path
/// behind the axpy family, sequential or parallel by `grain_for`. Like the
/// dslash chunk bodies, each chunk runs through [`crate::simd::dispatch`].
fn update2<R: Real, F>(x: &[Spinor<R>], y: &mut [Spinor<R>], f: F)
where
    F: Fn(&mut Spinor<R>, &Spinor<R>) + Sync + Send,
{
    assert_eq!(x.len(), y.len());
    rayon::for_each_chunk_mut(y, grain_for(x.len()), |base, chunk| {
        crate::simd::dispatch(
            x,
            #[inline(always)]
            |x| {
                for (k, yi) in chunk.iter_mut().enumerate() {
                    f(yi, &x[base + k]);
                }
            },
        )
    });
}

/// Chunked `f64` reduction over `0..len` with per-chunk sequential folds
/// combined in index order: the one code path behind `dot`/`norm_sqr`.
fn reduce2<T, ID, F, OP>(len: usize, identity: ID, fold_chunk: F, combine: OP) -> T
where
    T: Send,
    ID: Fn() -> T + Sync + Send,
    F: Fn(T, std::ops::Range<usize>) -> T + Sync + Send,
    OP: Fn(T, T) -> T + Sync + Send,
{
    rayon::reduce_chunks(len, grain_for(len), identity, fold_chunk, combine)
}

/// `y += a * x` with real `a`.
pub fn axpy<R: Real>(a: f64, x: &[Spinor<R>], y: &mut [Spinor<R>]) {
    let a = R::from_f64(a);
    update2(x, y, |yi, xi| *yi += xi.scale(a));
}

/// `y += a * x` with complex `a`.
pub fn caxpy<R: Real>(a: C64, x: &[Spinor<R>], y: &mut [Spinor<R>]) {
    let a: Complex<R> = a.cast();
    update2(x, y, |yi, xi| *yi += xi.scale_c(a));
}

/// `y = x + b * y` (the CG search-direction update).
pub fn xpby<R: Real>(x: &[Spinor<R>], b: f64, y: &mut [Spinor<R>]) {
    let b = R::from_f64(b);
    update2(x, y, |yi, xi| *yi = *xi + yi.scale(b));
}

/// `y = x` (copy).
pub fn copy<R: Real>(x: &[Spinor<R>], y: &mut [Spinor<R>]) {
    assert_eq!(x.len(), y.len());
    y.copy_from_slice(x);
}

/// `y *= a`.
pub fn scal<R: Real>(a: f64, y: &mut [Spinor<R>]) {
    let a = R::from_f64(a);
    let grain = grain_for(y.len());
    rayon::for_each_chunk_mut(y, grain, |_, chunk| {
        crate::simd::dispatch(
            &a,
            #[inline(always)]
            |&a| {
                for yi in chunk.iter_mut() {
                    *yi = yi.scale(a);
                }
            },
        )
    });
}

/// Set every component to zero.
pub fn zero<R: Real>(y: &mut [Spinor<R>]) {
    y.iter_mut().for_each(|yi| *yi = Spinor::zero());
}

/// `‖x‖²` accumulated in `f64`.
pub fn norm_sqr<R: Real>(x: &[Spinor<R>]) -> f64 {
    reduce2(
        x.len(),
        || 0.0f64,
        |acc, r| r.fold(acc, |a, i| a + x[i].norm_sqr().to_f64()),
        |a, b| a + b,
    )
}

/// `⟨x, y⟩` accumulated in `f64`.
pub fn dot<R: Real>(x: &[Spinor<R>], y: &[Spinor<R>]) -> C64 {
    assert_eq!(x.len(), y.len());
    let (re, im) = reduce2(
        x.len(),
        || (0.0f64, 0.0f64),
        |acc, r| {
            r.fold(acc, |(re, im), i| {
                let d = x[i].dot(&y[i]).to_c64();
                (re + d.re, im + d.im)
            })
        },
        |a, b| (a.0 + b.0, a.1 + b.1),
    );
    C64::new(re, im)
}

/// `z = x − y` into a fresh vector.
pub fn sub<R: Real>(x: &[Spinor<R>], y: &[Spinor<R>]) -> Vec<Spinor<R>> {
    assert_eq!(x.len(), y.len());
    collect_chunked(x.len(), |i| x[i] - y[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FermionField;

    fn v(seed: u64, n: usize) -> Vec<Spinor<f64>> {
        FermionField::<f64>::gaussian(n, seed).data
    }

    #[test]
    fn axpy_matches_reference() {
        let x = v(1, 100);
        let mut y = v(2, 100);
        let y0 = y.clone();
        axpy(2.5, &x, &mut y);
        for i in 0..100 {
            let expect = y0[i] + x[i].scale(2.5);
            assert!((y[i] - expect).norm_sqr() < 1e-24);
        }
    }

    #[test]
    fn dot_is_conjugate_symmetric() {
        let x = v(3, 257);
        let y = v(4, 257);
        let xy = dot(&x, &y);
        let yx = dot(&y, &x);
        assert!((xy - yx.conj()).abs() < 1e-10);
    }

    #[test]
    fn norm_matches_self_dot() {
        let x = v(5, 300);
        let n = norm_sqr(&x);
        let d = dot(&x, &x);
        assert!((n - d.re).abs() < 1e-9 * n);
        assert!(d.im.abs() < 1e-9 * n);
    }

    #[test]
    fn parallel_and_serial_paths_agree() {
        // A vector above the threshold exercises the rayon path; compare the
        // reduction with a plain serial sum.
        let x = v(6, PAR_THRESHOLD + 17);
        let serial: f64 = x.iter().map(|s| s.norm_sqr()).sum();
        assert!((norm_sqr(&x) - serial).abs() < 1e-8 * serial);
    }

    #[test]
    fn xpby_matches_reference() {
        let x = v(7, 64);
        let mut y = v(8, 64);
        let y0 = y.clone();
        xpby(&x, -0.75, &mut y);
        for i in 0..64 {
            let expect = x[i] + y0[i].scale(-0.75);
            assert!((y[i] - expect).norm_sqr() < 1e-24);
        }
    }

    #[test]
    fn caxpy_with_real_coefficient_matches_axpy() {
        let x = v(9, 128);
        let mut y1 = v(10, 128);
        let mut y2 = y1.clone();
        axpy(1.25, &x, &mut y1);
        caxpy(C64::new(1.25, 0.0), &x, &mut y2);
        for i in 0..128 {
            assert!((y1[i] - y2[i]).norm_sqr() < 1e-24);
        }
    }

    #[test]
    fn update_kernels_are_bit_identical_to_plain_loops() {
        // Above PAR_THRESHOLD so the chunked path runs (through the AVX2
        // wrapper on an AVX2 host); must match a plain serial loop to the bit.
        let n = PAR_THRESHOLD + 33;
        let x = v(12, n);
        let mut y = v(13, n);
        let mut yref = y.clone();
        axpy(1.0000001, &x, &mut y);
        let a = 1.0000001f64;
        for (yi, xi) in yref.iter_mut().zip(&x) {
            *yi += xi.scale(a);
        }
        assert_eq!(y, yref);
        scal(-0.375, &mut y);
        for yi in yref.iter_mut() {
            *yi = yi.scale(-0.375);
        }
        assert_eq!(y, yref);
    }

    #[test]
    fn scal_and_zero() {
        let mut x = v(11, 32);
        scal(0.5, &mut x);
        let n = norm_sqr(&x);
        zero(&mut x);
        assert_eq!(norm_sqr(&x), 0.0);
        assert!(n > 0.0);
    }
}
