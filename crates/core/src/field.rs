//! Lattice fields: gauge links and fermion vectors.
//!
//! Gauge links are stored site-major (`site*4 + mu`), which is the access
//! order of the stencil. Fermion fields are flat `Vec<Spinor<R>>`; the 5D
//! domain-wall field stacks `L5` four-dimensional slices (`s` outermost) so
//! the 4D hopping kernel can run unchanged on each slice.

use crate::blas::{collect_chunked, fixed_grain};
use crate::lattice::{Lattice, ND};
use crate::real::Real;
use crate::spinor::Spinor;
use crate::su3::Su3;
use rand::distributions::Distribution;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Read access to gauge links, abstracting over storage precision.
///
/// The mixed-precision solver runs its bulk iterations against links stored
/// in 16-bit fixed point ([`crate::halfprec::HalfGaugeField`]); this trait
/// lets the stencil kernels accept either representation.
pub trait GaugeLinks<R: Real>: Sync {
    /// The link `U_mu(site)`.
    fn link(&self, site: usize, mu: usize) -> Su3<R>;
    /// Number of sites.
    fn volume(&self) -> usize;
}

/// Full-precision gauge field: 4 links per site.
#[derive(Clone)]
pub struct GaugeField<R> {
    lattice: Lattice,
    links: Vec<Su3<R>>,
}

impl<R: Real> GaugeField<R> {
    /// Unit ("cold") configuration — the free field.
    pub fn cold(lattice: &Lattice) -> Self {
        Self {
            lattice: lattice.clone(),
            links: vec![Su3::identity(); lattice.volume() * ND],
        }
    }

    /// Random ("hot") configuration, reproducible from a seed.
    pub fn hot(lattice: &Lattice, seed: u64) -> Self {
        let volume = lattice.volume();
        let mut links = vec![Su3::identity(); volume * ND];
        rayon::for_each_chunk_mut(&mut links, ND * fixed_grain(volume), |base, chunk| {
            for (k, site_links) in chunk.chunks_mut(ND).enumerate() {
                let site = base / ND + k;
                let mut rng =
                    SmallRng::seed_from_u64(seed ^ (site as u64).wrapping_mul(0x9E3779B97F4A7C15));
                for link in site_links.iter_mut() {
                    *link = Su3::random(&mut rng);
                }
            }
        });
        Self {
            lattice: lattice.clone(),
            links,
        }
    }

    /// The lattice this field lives on.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Mutable link access (gauge evolution).
    #[inline(always)]
    pub fn link_mut(&mut self, site: usize, mu: usize) -> &mut Su3<R> {
        &mut self.links[site * ND + mu]
    }

    /// Raw link storage.
    pub fn links(&self) -> &[Su3<R>] {
        &self.links
    }

    /// Mutable raw link storage.
    pub fn links_mut(&mut self) -> &mut [Su3<R>] {
        &mut self.links
    }

    /// Convert every link to another precision.
    pub fn cast<S: Real>(&self) -> GaugeField<S> {
        GaugeField {
            lattice: self.lattice.clone(),
            links: collect_chunked(self.links.len(), |l| self.links[l].cast()),
        }
    }

    /// Largest unitarity violation across all links (drift monitor).
    pub fn max_unitarity_error(&self) -> f64 {
        crate::reduce::max_sites(self.links.len(), |l| self.links[l].unitarity_error())
    }

    /// Project every link back onto SU(3).
    pub fn reunitarize(&mut self) {
        let grain = fixed_grain(self.links.len());
        rayon::for_each_chunk_mut(&mut self.links, grain, |_, chunk| {
            for u in chunk {
                *u = u.reunitarize();
            }
        });
    }
}

impl<R: Real> GaugeLinks<R> for GaugeField<R> {
    #[inline(always)]
    fn link(&self, site: usize, mu: usize) -> Su3<R> {
        self.links[site * ND + mu]
    }
    fn volume(&self) -> usize {
        self.lattice.volume()
    }
}

/// A fermion vector: `len` spinors (4D: volume; 5D: volume × L5; red-black:
/// half of either).
#[derive(Clone, Debug, PartialEq)]
pub struct FermionField<R> {
    /// Flat spinor storage.
    pub data: Vec<Spinor<R>>,
}

impl<R: Real> FermionField<R> {
    /// Zero vector of the given length.
    pub fn zeros(len: usize) -> Self {
        Self {
            data: vec![Spinor::zero(); len],
        }
    }

    /// Gaussian random vector (unit variance per real component),
    /// reproducible from a seed. Used for stochastic sources and tests.
    pub fn gaussian(len: usize, seed: u64) -> Self {
        let data = collect_chunked(len, |i| {
            let mut rng =
                SmallRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0xD1B54A32D192ED03));
            let normal = GaussPair;
            let mut sp = Spinor::zero();
            for s in 0..4 {
                for c in 0..3 {
                    let (re, im) = normal.sample(&mut rng);
                    sp.s[s].c[c] = crate::complex::Complex::from_f64(re, im);
                }
            }
            sp
        });
        Self { data }
    }

    /// Number of spinors.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Convert precision.
    pub fn cast<S: Real>(&self) -> FermionField<S> {
        FermionField {
            data: collect_chunked(self.len(), |i| self.data[i].cast()),
        }
    }
}

/// Box–Muller pair sampler used by `FermionField::gaussian`.
struct GaussPair;

impl Distribution<(f64, f64)> for GaussPair {
    fn sample<G: rand::Rng + ?Sized>(&self, rng: &mut G) -> (f64, f64) {
        let u1: f64 = rng.gen::<f64>().max(1e-300);
        let u2: f64 = rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let th = 2.0 * std::f64::consts::PI * u2;
        (r * th.cos(), r * th.sin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;

    #[test]
    fn cold_field_is_exactly_unit() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let g = GaugeField::<f64>::cold(&lat);
        assert_eq!(g.links().len(), lat.volume() * 4);
        assert!(g.max_unitarity_error() < 1e-15);
    }

    #[test]
    fn hot_field_is_unitary_and_reproducible() {
        let lat = Lattice::new([4, 4, 2, 2]);
        let a = GaugeField::<f64>::hot(&lat, 42);
        let b = GaugeField::<f64>::hot(&lat, 42);
        let c = GaugeField::<f64>::hot(&lat, 43);
        assert!(a.max_unitarity_error() < 1e-12);
        assert_eq!(a.links()[5], b.links()[5], "same seed, same field");
        assert_ne!(a.links()[5], c.links()[5], "different seed differs");
    }

    #[test]
    fn gaussian_vector_has_unit_variance() {
        let v = FermionField::<f64>::gaussian(4096, 7);
        let n2 = blas::norm_sqr(&v.data);
        let dof = (v.len() * 24) as f64;
        let var = n2 / dof;
        assert!((var - 1.0).abs() < 0.05, "variance {var} should be ~1");
    }

    #[test]
    fn cast_round_trip_is_close() {
        let v = FermionField::<f64>::gaussian(64, 3);
        let w: FermionField<f64> = v.cast::<f32>().cast();
        let mut diff = v.clone();
        blas::axpy(-1.0, &w.data, &mut diff.data);
        let rel = blas::norm_sqr(&diff.data) / blas::norm_sqr(&v.data);
        assert!(rel < 1e-12, "f32 round-trip relative error {rel}");
    }

    #[test]
    fn reunitarize_restores_scaled_links() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let mut g = GaugeField::<f64>::hot(&lat, 1);
        for u in g.links_mut() {
            *u = u.scale(1.01);
        }
        assert!(g.max_unitarity_error() > 1e-3);
        g.reunitarize();
        assert!(g.max_unitarity_error() < 1e-12);
    }
}
