//! 16-bit fixed-point ("half") field storage.
//!
//! QUDA's fastest solver stores fields as 16-bit fixed-point numbers with a
//! per-site scale and computes in 32-bit float — this is the "double-half CG"
//! of the paper, where "most of the work is done using 16-bit precision
//! fixed-point storage (utilizing single-precision computation)". The win is
//! memory traffic: the solver is bandwidth bound, and half storage moves half
//! the bytes of single precision.
//!
//! This module implements that layer:
//!
//! - [`HalfGaugeField`] — links stored as `i16` with one `f32` scale per
//!   link matrix; implements [`GaugeLinks<f32>`], so every stencil kernel in
//!   this crate runs over it unchanged, decoding on the fly.
//! - [`HalfFermionField`] — spinors stored as `i16` with one `f32` scale per
//!   site, used to truncate vectors between solver restarts and to measure
//!   the encode error the reliable updates must absorb.

use crate::blas::{collect_chunked, fixed_grain};
use crate::complex::Complex;
use crate::field::{GaugeField, GaugeLinks};
use crate::lattice::ND;
use crate::real::Real;
use crate::spinor::Spinor;
use crate::su3::{Su3, NC};

/// Maximum magnitude representable by the mantissa.
const QMAX: f32 = 32767.0;

/// Encode a block of reals into `i16` against the block's max-abs scale.
/// Returns the scale. An all-zero block gets scale 0 and all-zero codes.
fn encode_block(values: &[f32], out: &mut [i16]) -> f32 {
    debug_assert_eq!(values.len(), out.len());
    let max = values.iter().fold(0.0f32, |a, &v| a.max(v.abs()));
    if max == 0.0 {
        out.iter_mut().for_each(|o| *o = 0);
        return 0.0;
    }
    let inv = QMAX / max;
    for (o, &v) in out.iter_mut().zip(values) {
        *o = (v * inv).round().clamp(-QMAX, QMAX) as i16;
    }
    max
}

/// Encode `n` blocks of `W` reals into `n * W` codes and `n` scales, in
/// `fixed_grain(n)` chunks on the pool; `values(i)` yields block `i`.
fn encode_blocks<const W: usize>(
    n: usize,
    values: impl Fn(usize) -> [f32; W] + Sync + Send,
) -> (Vec<i16>, Vec<f32>) {
    let mut codes = vec![0i16; n * W];
    let mut scales = vec![0f32; n];
    let grain = fixed_grain(n);
    // Pair each chunk of scales with its chunk of codes up front, so one
    // pool task owns both.
    let mut parts: Vec<(&mut [i16], &mut [f32])> = codes
        .chunks_mut(grain * W)
        .zip(scales.chunks_mut(grain))
        .collect();
    rayon::for_each_chunk_mut(&mut parts, 1, |ci, part| {
        let (codes, scales) = &mut part[0];
        for (k, (block, scale)) in codes.chunks_mut(W).zip(scales.iter_mut()).enumerate() {
            *scale = encode_block(&values(ci * grain + k), block);
        }
    });
    (codes, scales)
}

/// Decode a block of `i16` against its scale.
fn decode_block(codes: &[i16], scale: f32, out: &mut [f32]) {
    let s = scale / QMAX;
    for (o, &c) in out.iter_mut().zip(codes) {
        *o = c as f32 * s;
    }
}

/// Gauge links in 16-bit fixed point: 18 codes + 1 scale per link.
///
/// 18 × 2 + 4 = 40 bytes per link versus 72 in `f32` — a 1.8× traffic
/// reduction on the dominant data stream of the stencil.
#[derive(Clone)]
pub struct HalfGaugeField {
    volume: usize,
    /// `volume * 4 * 18` codes (row-major re/im pairs).
    codes: Vec<i16>,
    /// One scale per link.
    scales: Vec<f32>,
}

impl HalfGaugeField {
    /// Compress a full-precision gauge field.
    pub fn from_gauge<R: Real>(gauge: &GaugeField<R>) -> Self {
        let volume = gauge.lattice().volume();
        let (codes, scales) = encode_blocks(volume * ND, |l| {
            let u = gauge.links()[l];
            let mut vals = [0f32; 18];
            for i in 0..NC {
                for j in 0..NC {
                    vals[(i * NC + j) * 2] = u.m[i][j].re.to_f64() as f32;
                    vals[(i * NC + j) * 2 + 1] = u.m[i][j].im.to_f64() as f32;
                }
            }
            vals
        });
        Self {
            volume,
            codes,
            scales,
        }
    }

    /// Bytes of storage used (the metric the half format exists to shrink).
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() * 2 + self.scales.len() * 4
    }

    /// Maximum element-wise decode error against a reference field.
    pub fn max_abs_error<R: Real>(&self, reference: &GaugeField<R>) -> f64 {
        crate::reduce::max_sites(self.volume * ND, |l| {
            let u = self.decode_link(l);
            let r = reference.links()[l];
            let mut err = 0.0f64;
            for i in 0..NC {
                for j in 0..NC {
                    let d = (u.m[i][j].to_c64() - r.m[i][j].to_c64()).abs();
                    err = err.max(d);
                }
            }
            err
        })
    }

    #[inline]
    fn decode_link(&self, l: usize) -> Su3<f32> {
        let chunk = &self.codes[l * 18..(l + 1) * 18];
        let s = self.scales[l] / QMAX;
        let mut u = Su3::zero();
        for i in 0..NC {
            for j in 0..NC {
                u.m[i][j] = Complex::new(
                    chunk[(i * NC + j) * 2] as f32 * s,
                    chunk[(i * NC + j) * 2 + 1] as f32 * s,
                );
            }
        }
        u
    }
}

impl GaugeLinks<f32> for HalfGaugeField {
    #[inline]
    fn link(&self, site: usize, mu: usize) -> Su3<f32> {
        self.decode_link(site * ND + mu)
    }
    fn volume(&self) -> usize {
        self.volume
    }
}

/// Gauge links combining 16-bit fixed-point storage with 12-real
/// reconstruction: only the first two rows are stored (12 codes + 1 scale =
/// 28 bytes per link versus 40 for [`HalfGaugeField`] and 72 for `f32`), and
/// the third row is closed on the fly by the conjugate cross product — the
/// compounding of QUDA's "half" and "recon-12" axes.
#[derive(Clone)]
pub struct HalfRecon12Gauge {
    volume: usize,
    /// `volume * 4 * 12` codes (two rows of re/im pairs).
    codes: Vec<i16>,
    /// One scale per link.
    scales: Vec<f32>,
}

impl HalfRecon12Gauge {
    /// Compress a full-precision gauge field to two half-stored rows.
    pub fn from_gauge<R: Real>(gauge: &GaugeField<R>) -> Self {
        let volume = gauge.lattice().volume();
        let (codes, scales) = encode_blocks(volume * ND, |l| {
            let u = gauge.links()[l];
            let mut vals = [0f32; 12];
            for i in 0..2 {
                for j in 0..NC {
                    vals[(i * NC + j) * 2] = u.m[i][j].re.to_f64() as f32;
                    vals[(i * NC + j) * 2 + 1] = u.m[i][j].im.to_f64() as f32;
                }
            }
            vals
        });
        Self {
            volume,
            codes,
            scales,
        }
    }

    /// Bytes of storage used.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() * 2 + self.scales.len() * 4
    }
}

impl GaugeLinks<f32> for HalfRecon12Gauge {
    #[inline]
    fn link(&self, site: usize, mu: usize) -> Su3<f32> {
        let l = site * ND + mu;
        let chunk = &self.codes[l * 12..(l + 1) * 12];
        let s = self.scales[l] / QMAX;
        let mut u = Su3::zero();
        for i in 0..2 {
            for j in 0..NC {
                u.m[i][j] = Complex::new(
                    chunk[(i * NC + j) * 2] as f32 * s,
                    chunk[(i * NC + j) * 2 + 1] as f32 * s,
                );
            }
        }
        // Third row: conjugate cross product of the stored rows, the same
        // closure as 12-real reconstruction at full precision.
        u.m[2] = [
            (u.m[0][1] * u.m[1][2] - u.m[0][2] * u.m[1][1]).conj(),
            (u.m[0][2] * u.m[1][0] - u.m[0][0] * u.m[1][2]).conj(),
            (u.m[0][0] * u.m[1][1] - u.m[0][1] * u.m[1][0]).conj(),
        ];
        u
    }
    fn volume(&self) -> usize {
        self.volume
    }
}

/// Fermion vector in 16-bit fixed point: 24 codes + 1 scale per site spinor.
#[derive(Clone)]
pub struct HalfFermionField {
    codes: Vec<i16>,
    scales: Vec<f32>,
}

impl HalfFermionField {
    /// Compress a spinor vector.
    pub fn encode(v: &[Spinor<f32>]) -> Self {
        let (codes, scales) = encode_blocks(v.len(), |i| {
            let sp = &v[i];
            let mut vals = [0f32; 24];
            for s in 0..4 {
                for c in 0..3 {
                    vals[(s * 3 + c) * 2] = sp.s[s].c[c].re;
                    vals[(s * 3 + c) * 2 + 1] = sp.s[s].c[c].im;
                }
            }
            vals
        });
        Self { codes, scales }
    }

    /// Number of spinors stored.
    pub fn len(&self) -> usize {
        self.scales.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.scales.is_empty()
    }

    /// Decompress to `f32` spinors.
    pub fn decode(&self) -> Vec<Spinor<f32>> {
        collect_chunked(self.len(), |i| {
            let mut vals = [0f32; 24];
            decode_block(&self.codes[i * 24..(i + 1) * 24], self.scales[i], &mut vals);
            let mut sp = Spinor::zero();
            for s in 0..4 {
                for c in 0..3 {
                    sp.s[s].c[c] = Complex::new(vals[(s * 3 + c) * 2], vals[(s * 3 + c) * 2 + 1]);
                }
            }
            sp
        })
    }

    /// Bytes of storage used.
    pub fn storage_bytes(&self) -> usize {
        self.codes.len() * 2 + self.scales.len() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FermionField;
    use crate::lattice::Lattice;

    #[test]
    fn fermion_round_trip_error_is_bounded_by_block_scale() {
        let v: Vec<Spinor<f32>> = FermionField::<f64>::gaussian(512, 5).cast::<f32>().data;
        let half = HalfFermionField::encode(&v);
        let back = half.decode();
        for (orig, dec) in v.iter().zip(&back) {
            // Per-site bound: scale/2^15 per component (+rounding).
            let mut max_comp = 0.0f32;
            for s in 0..4 {
                for c in 0..3 {
                    max_comp = max_comp
                        .max(orig.s[s].c[c].re.abs())
                        .max(orig.s[s].c[c].im.abs());
                }
            }
            let bound = max_comp / QMAX * 1.01 + 1e-12;
            for s in 0..4 {
                for c in 0..3 {
                    let d = orig.s[s].c[c] - dec.s[s].c[c];
                    assert!(d.re.abs() <= bound && d.im.abs() <= bound);
                }
            }
        }
    }

    #[test]
    fn zero_vector_encodes_to_zero() {
        let v = vec![Spinor::<f32>::zero(); 16];
        let half = HalfFermionField::encode(&v);
        assert_eq!(half.decode(), v);
    }

    #[test]
    fn gauge_decode_error_is_small_for_unitary_links() {
        let lat = Lattice::new([4, 4, 2, 2]);
        let gauge = GaugeField::<f64>::hot(&lat, 3);
        let half = HalfGaugeField::from_gauge(&gauge);
        // Unitary entries are bounded by 1, so the error is ≤ ~1/32767.
        assert!(half.max_abs_error(&gauge) < 1.0 / 16000.0);
    }

    #[test]
    fn half_storage_is_smaller_than_single() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 7);
        let half = HalfGaugeField::from_gauge(&gauge);
        let single_bytes = lat.volume() * 4 * 18 * 4;
        assert!(half.storage_bytes() * 9 < single_bytes * 6, "≥1.6x smaller");
    }

    #[test]
    fn half_recon12_decodes_close_and_saves_bytes() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 21);
        let hr = HalfRecon12Gauge::from_gauge(&gauge);
        let plain = HalfGaugeField::from_gauge(&gauge);
        assert!(hr.storage_bytes() < plain.storage_bytes(), "28 < 40 B/link");
        let mut worst = 0.0f64;
        for site in 0..lat.volume() {
            for mu in 0..ND {
                let u = hr.link(site, mu);
                let r = gauge.links()[site * ND + mu];
                for i in 0..NC {
                    for j in 0..NC {
                        worst = worst.max((u.m[i][j].to_c64() - r.m[i][j].to_c64()).abs());
                    }
                }
            }
        }
        // Stored rows err at the 2^-15 level; the cross product roughly
        // doubles that on the reconstructed row.
        assert!(worst < 3.0 / 16000.0, "half-r12 decode error {worst}");
    }

    #[test]
    fn stencil_runs_on_half_gauge() {
        use crate::dirac::{LinearOp, WilsonDirac};
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge64 = GaugeField::<f64>::hot(&lat, 11);
        let gauge32 = gauge64.cast::<f32>();
        let half = HalfGaugeField::from_gauge(&gauge64);

        let d32 = WilsonDirac::new(&lat, &gauge32, 0.1, true);
        let dh = WilsonDirac::new(&lat, &half, 0.1, true);

        let psi = FermionField::<f64>::gaussian(lat.volume(), 13).cast::<f32>();
        let mut a = vec![Spinor::zero(); lat.volume()];
        let mut b = vec![Spinor::zero(); lat.volume()];
        d32.apply(&mut a, &psi.data);
        dh.apply(&mut b, &psi.data);

        let diff = crate::blas::sub(&a, &b);
        let rel = crate::blas::norm_sqr(&diff) / crate::blas::norm_sqr(&a);
        // Half-precision links: relative error ~ (2^-15)^2 in norm².
        assert!(rel < 1e-7, "half-gauge stencil deviates too much: {rel}");
        assert!(rel > 0.0, "must actually differ from f32");
    }

    #[test]
    fn double_half_mixed_cg_converges() {
        use crate::dirac::{NormalOp, WilsonDirac};
        use crate::solver::{mixed_cg, MixedParams};
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge64 = GaugeField::<f64>::hot(&lat, 17);
        let half = HalfGaugeField::from_gauge(&gauge64);
        let d64 = WilsonDirac::new(&lat, &gauge64, 0.3, true);
        let dh = WilsonDirac::new(&lat, &half, 0.3, true);
        let n64 = NormalOp::new(&d64);
        let nh = NormalOp::new(&dh);

        let b = FermionField::<f64>::gaussian(lat.volume(), 19).data;
        let mut x = vec![Spinor::zero(); lat.volume()];
        let stats = mixed_cg(&n64, &nh, &mut x, &b, MixedParams::default());
        // The inner operator differs from the outer one at the 2^-15 level;
        // reliable updates must still drive the true residual to tolerance.
        assert!(
            stats.converged,
            "double-half reliable-update CG failed: {stats:?}"
        );
    }
}
