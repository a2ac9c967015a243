//! The 4D Wilson Dirac operator and its red–black (even–odd) preconditioned
//! Schur complement.
//!
//! `D ψ(x) = (4 + m) ψ(x) − ½ H ψ(x)` with `H` the hopping term. Because the
//! mass term is site-diagonal, the even–even block inverts trivially and the
//! odd-checkerboard Schur complement is
//!
//! `M̂ = (4+m) − ¼/(4+m) · H_oe H_eo`,
//!
//! which halves the solve's vector length and improves conditioning — the
//! same red–black trick the paper's Möbius solver uses (where the diagonal
//! block is the 5th-dimension structure, see [`super::mobius`]).

use super::hopping::{HoppingKernel, HOPPING_FLOPS_PER_SITE};
use super::{DiracOp, LinearOp};
use crate::field::GaugeLinks;
use crate::lattice::{Lattice, Parity};
use crate::real::Real;
use crate::spinor::Spinor;
use parking_lot::Mutex;
use rayon::prelude::*;

/// The full-lattice Wilson operator.
pub struct WilsonDirac<'a, R: Real, G: GaugeLinks<R>> {
    hopping: HoppingKernel<'a, R, G>,
    lattice: &'a Lattice,
    mass: f64,
    /// Sites per parallel chunk of the stencil: 1024 unless a caller
    /// overrides it ([`crate::tune::tune_operator`] installs a measured
    /// winner; no production path tunes). Chunks write disjoint elements, so
    /// it never reaches the result's bits.
    pub grain: usize,
}

impl<'a, R: Real, G: GaugeLinks<R>> WilsonDirac<'a, R, G> {
    /// Bind the operator to a gauge field with bare mass `mass` and
    /// antiperiodic temporal boundary conditions if `antiperiodic_t`.
    pub fn new(lattice: &'a Lattice, gauge: &'a G, mass: f64, antiperiodic_t: bool) -> Self {
        Self {
            hopping: HoppingKernel::new(lattice, gauge, antiperiodic_t),
            lattice,
            mass,
            grain: 1024,
        }
    }

    /// The bare quark mass.
    pub fn mass(&self) -> f64 {
        self.mass
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        self.lattice
    }

    /// Access to the underlying hopping kernel.
    pub fn hopping(&self) -> &HoppingKernel<'a, R, G> {
        &self.hopping
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> LinearOp<R> for WilsonDirac<'a, R, G> {
    fn vec_len(&self) -> usize {
        self.lattice.volume()
    }

    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        let diag = R::from_f64(4.0 + self.mass);
        let half = R::from_f64(0.5);
        // The diagonal combination (`i·a − h·b` with `h` the hop) is fused
        // into the stencil's single output write: the same per-site value
        // chain as the separate passes of `apply_block`, so bit-identical.
        self.hopping
            .apply_full_fused_5d(out, inp, 1, self.grain, &|_, x, h| {
                inp[x].scale(diag) - h.scale(half)
            });
    }

    fn flops_per_apply(&self) -> f64 {
        // Hopping + diagonal axpy-like update (4 real ops per component).
        self.lattice.volume() as f64 * (HOPPING_FLOPS_PER_SITE + 96.0)
    }

    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.hopping.apply_full_block(out, inp, nrhs, self.grain);
        let diag = R::from_f64(4.0 + self.mass);
        let half = R::from_f64(0.5);
        out.par_iter_mut().zip(inp.par_iter()).for_each(|(o, i)| {
            *o = i.scale(diag) - o.scale(half);
        });
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> DiracOp<R> for WilsonDirac<'a, R, G> {
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        // γ5-hermiticity: D† = γ5 D γ5.
        let g5in: Vec<Spinor<R>> = inp.par_iter().map(|s| s.apply_gamma5()).collect();
        self.apply_block(out, &g5in, nrhs);
        out.par_iter_mut().for_each(|s| *s = s.apply_gamma5());
    }
}

/// Even–odd preconditioned Wilson operator acting on the odd checkerboard.
pub struct PrecWilson<'a, R: Real, G: GaugeLinks<R>> {
    hopping: HoppingKernel<'a, R, G>,
    lattice: &'a Lattice,
    mass: f64,
    /// Sites per parallel chunk of the stencil: 1024 unless a caller
    /// overrides it ([`crate::tune::tune_operator`] installs a measured
    /// winner; no production path tunes). Chunks write disjoint elements, so
    /// it never reaches the result's bits.
    pub grain: usize,
    /// Reused half-volume intermediate for `apply` (behind a lock so
    /// `apply` keeps its `&self` solver interface).
    scratch: Mutex<Vec<Spinor<R>>>,
}

impl<'a, R: Real, G: GaugeLinks<R>> PrecWilson<'a, R, G> {
    /// Bind the preconditioned operator.
    pub fn new(lattice: &'a Lattice, gauge: &'a G, mass: f64, antiperiodic_t: bool) -> Self {
        Self {
            hopping: HoppingKernel::new(lattice, gauge, antiperiodic_t),
            lattice,
            mass,
            grain: 1024,
            scratch: Mutex::new(Vec::new()),
        }
    }

    fn diag(&self) -> f64 {
        4.0 + self.mass
    }

    /// The bound 4D hopping kernel.
    pub fn hopping(&self) -> &HoppingKernel<'a, R, G> {
        &self.hopping
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        self.lattice
    }

    /// Split a full-volume vector into (even, odd) checkerboards.
    pub fn split(&self, full: &[Spinor<R>]) -> (Vec<Spinor<R>>, Vec<Spinor<R>>) {
        let hv = self.lattice.half_volume();
        let mut even = vec![Spinor::zero(); hv];
        let mut odd = vec![Spinor::zero(); hv];
        for x in 0..self.lattice.volume() {
            match self.lattice.parity(x) {
                Parity::Even => even[self.lattice.cb_index(x)] = full[x],
                Parity::Odd => odd[self.lattice.cb_index(x)] = full[x],
            }
        }
        (even, odd)
    }

    /// Merge (even, odd) checkerboards back into a full-volume vector.
    pub fn merge(&self, even: &[Spinor<R>], odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let mut full = vec![Spinor::zero(); self.lattice.volume()];
        for x in 0..self.lattice.volume() {
            let cb = self.lattice.cb_index(x);
            full[x] = match self.lattice.parity(x) {
                Parity::Even => even[cb],
                Parity::Odd => odd[cb],
            };
        }
        full
    }

    /// Preconditioned source: `b'_o = b_o + ½/(4+m) · H_oe b_e`.
    pub fn prepare_source(&self, b_even: &[Spinor<R>], b_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let hv = self.lattice.half_volume();
        let mut tmp = vec![Spinor::zero(); hv];
        self.hopping
            .apply_parity(&mut tmp, b_even, Parity::Odd, self.grain);
        let c = R::from_f64(0.5 / self.diag());
        tmp.par_iter_mut()
            .zip(b_odd.par_iter())
            .for_each(|(t, b)| *t = *b + t.scale(c));
        tmp
    }

    /// Reconstruct the even solution: `x_e = (b_e + ½ H_eo x_o)/(4+m)`.
    pub fn reconstruct_even(&self, b_even: &[Spinor<R>], x_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let hv = self.lattice.half_volume();
        let mut tmp = vec![Spinor::zero(); hv];
        self.hopping
            .apply_parity(&mut tmp, x_odd, Parity::Even, self.grain);
        let inv = R::from_f64(1.0 / self.diag());
        let half = R::from_f64(0.5);
        tmp.par_iter_mut()
            .zip(b_even.par_iter())
            .for_each(|(t, b)| *t = (*b + t.scale(half)).scale(inv));
        tmp
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> LinearOp<R> for PrecWilson<'a, R, G> {
    fn vec_len(&self) -> usize {
        self.lattice.half_volume()
    }

    fn apply(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>]) {
        let hv = self.lattice.half_volume();
        let a = R::from_f64(self.diag());
        let c = R::from_f64(0.25 / self.diag());
        // The second hop's diagonal combination (`i·a − h·c`) is folded
        // into its output write — the identical value chain as the separate
        // passes of `apply_block`, one fewer full pass, and a reused
        // intermediate buffer.
        let mut even = self.scratch.lock();
        if even.len() != hv {
            even.resize(hv, Spinor::zero());
        }
        self.hopping
            .apply_parity(&mut even, inp, Parity::Even, self.grain);
        self.hopping.apply_parity_fused_5d(
            out,
            &even,
            Parity::Odd,
            1,
            self.grain,
            &|psi| psi,
            &|_, cb, h| inp[cb].scale(a) - h.scale(c),
        );
    }

    fn flops_per_apply(&self) -> f64 {
        // Two half-volume hopping applications + the diagonal combination.
        self.lattice.volume() as f64 * (HOPPING_FLOPS_PER_SITE + 48.0)
    }

    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let hv = self.lattice.half_volume();
        let mut even = vec![Spinor::zero(); hv * nrhs];
        self.hopping
            .apply_parity_block(&mut even, inp, Parity::Even, nrhs, self.grain);
        self.hopping
            .apply_parity_block(out, &even, Parity::Odd, nrhs, self.grain);
        let a = R::from_f64(self.diag());
        let c = R::from_f64(0.25 / self.diag());
        out.par_iter_mut().zip(inp.par_iter()).for_each(|(o, i)| {
            *o = i.scale(a) - o.scale(c);
        });
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> DiracOp<R> for PrecWilson<'a, R, G> {
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        let g5in: Vec<Spinor<R>> = inp.par_iter().map(|s| s.apply_gamma5()).collect();
        self.apply_block(out, &g5in, nrhs);
        out.par_iter_mut().for_each(|s| *s = s.apply_gamma5());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::field::{FermionField, GaugeField};

    #[test]
    fn constant_mode_on_periodic_cold_gauge_has_eigenvalue_m() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::cold(&lat);
        let d = WilsonDirac::new(&lat, &gauge, 0.3, false);
        let mut psi = FermionField::zeros(lat.volume());
        for s in psi.data.iter_mut() {
            *s = Spinor::unit(1, 2);
        }
        let mut out = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut out, &psi.data);
        for x in 0..lat.volume() {
            let expect = psi.data[x].scale(0.3);
            assert!((out[x] - expect).norm_sqr() < 1e-20, "D ψ0 = m ψ0");
        }
    }

    #[test]
    fn gamma5_hermiticity_of_wilson() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 21);
        let d = WilsonDirac::new(&lat, &gauge, 0.1, true);
        let x = FermionField::<f64>::gaussian(lat.volume(), 1).data;
        let y = FermionField::<f64>::gaussian(lat.volume(), 2).data;
        // ⟨x, D y⟩ = ⟨D† x, y⟩
        let mut dy = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut dy, &y);
        let mut ddag_x = vec![Spinor::zero(); lat.volume()];
        d.apply_dagger(&mut ddag_x, &x);
        let lhs = blas::dot(&x, &dy);
        let rhs = blas::dot(&ddag_x, &y);
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }

    #[test]
    fn prec_operator_is_gamma5_hermitian() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 23);
        let m = PrecWilson::new(&lat, &gauge, 0.05, true);
        let hv = lat.half_volume();
        let x = FermionField::<f64>::gaussian(hv, 3).data;
        let y = FermionField::<f64>::gaussian(hv, 4).data;
        let mut my = vec![Spinor::zero(); hv];
        m.apply(&mut my, &y);
        let mut mdag_x = vec![Spinor::zero(); hv];
        m.apply_dagger(&mut mdag_x, &x);
        let lhs = blas::dot(&x, &my);
        let rhs = blas::dot(&mdag_x, &y);
        assert!((lhs - rhs).abs() < 1e-10 * lhs.abs().max(1.0));
    }

    #[test]
    fn schur_complement_matches_block_elimination() {
        // For a random full-volume vector ψ with D ψ = b, the Schur identity
        // M̂ ψ_o = b_o + ½/(4+m) H_oe b_e must hold.
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 29);
        let mass = 0.2;
        let d = WilsonDirac::new(&lat, &gauge, mass, true);
        let p = PrecWilson::new(&lat, &gauge, mass, true);

        let psi = FermionField::<f64>::gaussian(lat.volume(), 5).data;
        let mut b = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut b, &psi);

        let (_, psi_o) = p.split(&psi);
        let (b_e, b_o) = p.split(&b);
        let rhs = p.prepare_source(&b_e, &b_o);

        let mut lhs = vec![Spinor::zero(); lat.half_volume()];
        p.apply(&mut lhs, &psi_o);

        let diff = blas::sub(&lhs, &rhs);
        let rel = blas::norm_sqr(&diff) / blas::norm_sqr(&rhs);
        assert!(rel < 1e-22, "Schur identity violated: rel {rel}");
    }

    #[test]
    fn reconstruct_even_recovers_full_solution() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let gauge = GaugeField::<f64>::hot(&lat, 31);
        let mass = 0.2;
        let d = WilsonDirac::new(&lat, &gauge, mass, true);
        let p = PrecWilson::new(&lat, &gauge, mass, true);

        let psi = FermionField::<f64>::gaussian(lat.volume(), 6).data;
        let mut b = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut b, &psi);

        let (psi_e, psi_o) = p.split(&psi);
        let (b_e, _) = p.split(&b);
        let x_e = p.reconstruct_even(&b_e, &psi_o);
        let diff = blas::sub(&x_e, &psi_e);
        assert!(blas::norm_sqr(&diff) / blas::norm_sqr(&psi_e) < 1e-22);
    }

    #[test]
    fn split_merge_round_trip() {
        let lat = Lattice::new([2, 2, 2, 2]);
        let gauge = GaugeField::<f64>::cold(&lat);
        let p = PrecWilson::new(&lat, &gauge, 0.0, true);
        let v = FermionField::<f64>::gaussian(lat.volume(), 7).data;
        let (e, o) = p.split(&v);
        assert_eq!(p.merge(&e, &o), v);
    }
}
