//! Runtime dispatch to the AVX2-compiled kernel twins.
//!
//! The hot kernel bodies are plain scalar loops, written so rustc's
//! autovectorizer handles them (at the baseline ISA, 128-bit on `x86_64`).
//! The `arch-simd` cargo feature additionally compiles those bodies a
//! second time with `#[target_feature(enable = "avx2")]` and dispatches to
//! that twin after `std::arch::is_x86_feature_detected!` confirms support.
//! Because the recompiled code still consists of the same elementwise IEEE
//! add/sub/mul operations (rustc never contracts mul+add to FMA), the
//! feature gate cannot change a single bit of any result.

/// Whether the AVX2-compiled kernel twins should run: requires the
/// `arch-simd` feature, an `x86_64` target, and runtime CPU support.
#[inline]
pub fn avx2_detected() -> bool {
    #[cfg(all(feature = "arch-simd", target_arch = "x86_64"))]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(all(feature = "arch-simd", target_arch = "x86_64")))]
    {
        false
    }
}
