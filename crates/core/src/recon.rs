//! Compressed SU(3) gauge storage with on-the-fly reconstruction.
//!
//! An SU(3) matrix has 18 reals but only 8 degrees of freedom; QUDA ships
//! gauge fields to the GPU in 12-real or 8-real form and reconstructs the
//! remaining entries in registers, trading flops for memory bandwidth — on
//! a bandwidth-bound stencil that is a direct speedup. This module mirrors
//! both formats behind the [`GaugeLinks`] trait, so every dslash kernel
//! (including the sharded halo-exchange path, which gathers links through
//! the same trait) runs on compressed storage unchanged.
//!
//! **12-real**: store the first two rows; unitarity gives the third row as
//! the conjugate cross product `c = (a × b)*` — the exact closure used by
//! [`Su3::reunitarize`], so reconstructing a reunitarized link is lossless
//! up to the rounding of the cross product itself.
//!
//! **8-real**: store row 1 minus the phase of its first entry, the first
//! entry of row 2, and two phases:
//! `[θ_a₁, θ_c₁, Re a₂, Im a₂, Re a₃, Im a₃, Re b₁, Im b₁]`
//! (naming rows `a, b, c`). Writing `n = |a₂|² + |a₃|²`, row-0 unit norm
//! gives `|a₁| = √(1−n)` so `a₁ = |a₁| e^{iθ_a₁}`, column-0 unit norm gives
//! `|c₁| = √(1−|a₁|²−|b₁|²)` so `c₁ = |c₁| e^{iθ_c₁}`, and the pair of
//! linear relations `a·b* = 0` (row orthogonality) and
//! `c₁* = a₂ b₃ − a₃ b₂` (det = 1 cross product) solves for
//!
//! ```text
//! b₂ = −(a₁* a₂ b₁ + a₃* c₁*) / n      b₃ = (a₂* c₁* − a₁* a₃ b₁) / n
//! ```
//!
//! with the rest of row `c` closed by the cross product. The solve divides
//! by `n`, so 8-real storage requires generic links (`n > 0`); exact-unit
//! links (cold gauge) are not representable, exactly as in QUDA.

use crate::complex::Complex;
use crate::field::{GaugeField, GaugeLinks};
use crate::real::Real;
use crate::su3::{Su3, NC};

/// Cross-product closure of the third row from the first two — the same
/// arithmetic as the final rows of [`Su3::reunitarize`].
#[inline(always)]
fn cross_row<R: Real>(a: &[Complex<R>; NC], b: &[Complex<R>; NC]) -> [Complex<R>; NC] {
    [
        (a[1] * b[2] - a[2] * b[1]).conj(),
        (a[2] * b[0] - a[0] * b[2]).conj(),
        (a[0] * b[1] - a[1] * b[0]).conj(),
    ]
}

/// Gauge field compressed to the first two rows (12 reals per link).
#[derive(Clone)]
pub struct Recon12Gauge<R> {
    volume: usize,
    /// `volume × 4` links × 12 reals, link-major.
    rows: Vec<R>,
}

/// Reals stored per link in 12-real form.
const R12: usize = 12;

impl<R: Real> Recon12Gauge<R> {
    /// Compress a full gauge field.
    pub fn from_gauge(gauge: &GaugeField<R>) -> Self {
        let volume = gauge.lattice().volume();
        let mut rows = Vec::with_capacity(volume * 4 * R12);
        for site in 0..volume {
            for mu in 0..4 {
                let u = GaugeLinks::link(gauge, site, mu);
                for row in 0..2 {
                    for j in 0..NC {
                        rows.push(u.m[row][j].re);
                        rows.push(u.m[row][j].im);
                    }
                }
            }
        }
        Self { volume, rows }
    }
}

impl<R: Real> GaugeLinks<R> for Recon12Gauge<R> {
    #[inline]
    fn link(&self, site: usize, mu: usize) -> Su3<R> {
        let base = (site * 4 + mu) * R12;
        let d = &self.rows[base..base + R12];
        let row = |r: usize| -> [Complex<R>; NC] {
            std::array::from_fn(|j| Complex::new(d[(r * NC + j) * 2], d[(r * NC + j) * 2 + 1]))
        };
        let a = row(0);
        let b = row(1);
        let c = cross_row(&a, &b);
        Su3 { m: [a, b, c] }
    }
    fn volume(&self) -> usize {
        self.volume
    }
}

/// Gauge field compressed to 8 reals per link (see module docs).
#[derive(Clone)]
pub struct Recon8Gauge<R> {
    volume: usize,
    /// `volume × 4` links × 8 reals, link-major.
    params: Vec<R>,
}

/// Reals stored per link in 8-real form.
const R8: usize = 8;

impl<R: Real> Recon8Gauge<R> {
    /// Compress a full gauge field.
    ///
    /// # Panics
    /// If any link has `|a₂|² + |a₃|² ≈ 0` (e.g. a cold/unit link), which
    /// the 8-real parametrization cannot represent.
    pub fn from_gauge(gauge: &GaugeField<R>) -> Self {
        let volume = gauge.lattice().volume();
        let mut params = Vec::with_capacity(volume * 4 * R8);
        for site in 0..volume {
            for mu in 0..4 {
                let u = GaugeLinks::link(gauge, site, mu);
                let a1 = u.m[0][0];
                let c1 = u.m[2][0];
                let n = u.m[0][1].norm_sqr() + u.m[0][2].norm_sqr();
                assert!(
                    n.to_f64() > 1e-30,
                    "8-real reconstruction needs generic links (|a2|^2+|a3|^2 > 0)"
                );
                params.push(a1.im.atan2(a1.re));
                params.push(c1.im.atan2(c1.re));
                params.push(u.m[0][1].re);
                params.push(u.m[0][1].im);
                params.push(u.m[0][2].re);
                params.push(u.m[0][2].im);
                params.push(u.m[1][0].re);
                params.push(u.m[1][0].im);
            }
        }
        Self { volume, params }
    }
}

impl<R: Real> GaugeLinks<R> for Recon8Gauge<R> {
    #[inline]
    fn link(&self, site: usize, mu: usize) -> Su3<R> {
        let base = (site * 4 + mu) * R8;
        let d = &self.params[base..base + R8];
        let (th_a1, th_c1) = (d[0], d[1]);
        let a2 = Complex::new(d[2], d[3]);
        let a3 = Complex::new(d[4], d[5]);
        let b1 = Complex::new(d[6], d[7]);

        let n = a2.norm_sqr() + a3.norm_sqr();
        let a1_abs = (R::ONE - n).max_zero().sqrt();
        let a1 = Complex::new(a1_abs * th_a1.cos(), a1_abs * th_a1.sin());
        let c1_abs = (R::ONE - a1_abs * a1_abs - b1.norm_sqr()).max_zero().sqrt();
        let c1 = Complex::new(c1_abs * th_c1.cos(), c1_abs * th_c1.sin());

        let inv_n = R::ONE / n;
        let b2 = -(a1.conj() * a2 * b1 + a3.conj() * c1.conj()).scale(inv_n);
        let b3 = (a2.conj() * c1.conj() - a1.conj() * a3 * b1).scale(inv_n);
        let c2 = (a3 * b1 - a1 * b3).conj();
        let c3 = (a1 * b2 - a2 * b1).conj();
        Su3 {
            m: [[a1, a2, a3], [b1, b2, b3], [c1, c2, c3]],
        }
    }
    fn volume(&self) -> usize {
        self.volume
    }
}

/// Clamp tiny negative round-off before a square root.
trait MaxZero {
    fn max_zero(self) -> Self;
}

impl<R: Real> MaxZero for R {
    #[inline(always)]
    fn max_zero(self) -> Self {
        if self < R::ZERO {
            R::ZERO
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;

    fn setup() -> (Lattice, GaugeField<f64>) {
        let lat = Lattice::new([4, 4, 2, 4]);
        (lat.clone(), GaugeField::hot(&lat, 31))
    }

    fn max_err<G: GaugeLinks<f64>>(gauge: &GaugeField<f64>, recon: &G) -> f64 {
        let mut worst = 0.0f64;
        for site in 0..gauge.lattice().volume() {
            for mu in 0..4 {
                let full = GaugeLinks::link(gauge, site, mu);
                let got = recon.link(site, mu);
                for i in 0..NC {
                    for j in 0..NC {
                        worst = worst.max((got.m[i][j] - full.m[i][j]).norm_sqr().sqrt());
                    }
                }
            }
        }
        worst
    }

    #[test]
    fn recon12_round_trips_to_rounding() {
        let (_, gauge) = setup();
        let r12 = Recon12Gauge::from_gauge(&gauge);
        let err = max_err(&gauge, &r12);
        assert!(err < 1e-13, "recon-12 error {err}");
    }

    #[test]
    fn recon8_round_trips_to_rounding() {
        let (_, gauge) = setup();
        let r8 = Recon8Gauge::from_gauge(&gauge);
        let err = max_err(&gauge, &r8);
        assert!(err < 1e-12, "recon-8 error {err}");
    }

    #[test]
    fn recon_links_stay_unitary() {
        let (_, gauge) = setup();
        let r12 = Recon12Gauge::from_gauge(&gauge);
        let r8 = Recon8Gauge::from_gauge(&gauge);
        for site in 0..gauge.lattice().volume() {
            for mu in 0..4 {
                let e12 = r12.link(site, mu).unitarity_error();
                let e8 = r8.link(site, mu).unitarity_error();
                assert!(e12 < 1e-13, "r12 unitarity {e12}");
                assert!(e8 < 1e-12, "r8 unitarity {e8}");
            }
        }
    }

    #[test]
    fn recon12_f32_is_tolerant() {
        let (_, gauge64) = setup();
        let gauge = gauge64.cast::<f32>();
        let r12 = Recon12Gauge::from_gauge(&gauge);
        let mut worst = 0.0f32;
        for site in 0..gauge.lattice().volume() {
            for mu in 0..4 {
                let full = GaugeLinks::link(&gauge, site, mu);
                let got = r12.link(site, mu);
                for i in 0..NC {
                    for j in 0..NC {
                        worst = worst.max((got.m[i][j] - full.m[i][j]).norm_sqr().sqrt());
                    }
                }
            }
        }
        assert!(worst < 1e-5, "recon-12 f32 error {worst}");
    }

    #[test]
    #[should_panic(expected = "generic links")]
    fn recon8_rejects_unit_links() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let cold = GaugeField::<f64>::cold(&lat);
        let _ = Recon8Gauge::from_gauge(&cold);
    }
}
