//! Precision abstraction.
//!
//! The paper's solver is *mixed precision*: bulk work in 16-bit fixed point /
//! 32-bit float, reliable updates in 64-bit. All field and operator code in
//! this crate is generic over [`Real`], instantiated at `f32` and `f64`; the
//! 16-bit fixed-point storage layer lives in [`crate::halfprec`] and decodes
//! to `f32` for compute, exactly as QUDA's "half" precision does.

use std::fmt::Debug;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point scalar used for field storage and kernel arithmetic.
pub trait Real:
    Copy
    + Send
    + Sync
    + Debug
    + Default
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Short name used in autotune keys and I/O headers ("f32"/"f64").
    const NAME: &'static str;

    /// Lossy conversion from `f64` (rounds for `f32`).
    fn from_f64(x: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Fused multiply-add `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Sine (used by the 8-real gauge reconstruction's phase decode).
    fn sin(self) -> Self;
    /// Cosine (used by the 8-real gauge reconstruction's phase decode).
    fn cos(self) -> Self;
    /// Four-quadrant arctangent `atan2(self, x)` (phase extraction in the
    /// 8-real gauge compression encode).
    fn atan2(self, x: Self) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f64";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn sin(self) -> Self {
        f64::sin(self)
    }
    #[inline(always)]
    fn cos(self) -> Self {
        f64::cos(self)
    }
    #[inline(always)]
    fn atan2(self, x: Self) -> Self {
        f64::atan2(self, x)
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NAME: &'static str = "f32";

    #[inline(always)]
    fn from_f64(x: f64) -> Self {
        x as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn sin(self) -> Self {
        f32::sin(self)
    }
    #[inline(always)]
    fn cos(self) -> Self {
        f32::cos(self)
    }
    #[inline(always)]
    fn atan2(self, x: Self) -> Self {
        f32::atan2(self, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_round_trips_through_f64() {
        let x: f32 = 1.25;
        assert_eq!(f32::from_f64(x.to_f64()), x);
    }

    #[test]
    fn constants_are_correct() {
        assert_eq!(f64::ZERO + f64::ONE, 1.0);
        assert_eq!(f32::ZERO + f32::ONE, 1.0);
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f32::NAME, "f32");
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        assert_eq!(2.0f64.mul_add(3.0, 4.0), 10.0);
        assert_eq!(2.0f32.mul_add(3.0, 4.0), 10.0);
    }
}
