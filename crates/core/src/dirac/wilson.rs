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

/// The full-lattice Wilson operator.
pub struct WilsonDirac<'a, R: Real, G: GaugeLinks<R>> {
    hopping: HoppingKernel<'a, R, G>,
    lattice: &'a Lattice,
    mass: f64,
}

impl<'a, R: Real, G: GaugeLinks<R>> WilsonDirac<'a, R, G> {
    /// Bind the operator to a gauge field with bare mass `mass` and
    /// antiperiodic temporal boundary conditions if `antiperiodic_t`.
    pub fn new(lattice: &'a Lattice, gauge: &'a G, mass: f64, antiperiodic_t: bool) -> Self {
        Self {
            hopping: HoppingKernel::new(lattice, gauge, antiperiodic_t),
            lattice,
            mass,
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
}

impl<'a, R: Real, G: GaugeLinks<R>> LinearOp<R> for WilsonDirac<'a, R, G> {
    fn vec_len(&self) -> usize {
        self.lattice.volume()
    }

    fn flops_per_apply(&self) -> f64 {
        // Hopping + diagonal axpy-like update (4 real ops per component).
        self.lattice.volume() as f64 * (HOPPING_FLOPS_PER_SITE + 96.0)
    }

    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.sweep(out, inp, nrhs, false);
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> DiracOp<R> for WilsonDirac<'a, R, G> {
    /// γ5-hermiticity: `D† = γ5 D γ5 = (4 + m) − ½ H†`.
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.sweep(out, inp, nrhs, true);
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> WilsonDirac<'a, R, G> {
    /// `D`, or `D†` when `dagger`, in one fused stencil pass: the hop `h`
    /// (`H` or `H†`) with the diagonal combination `i·a − h·b` folded into
    /// the output write.
    fn sweep(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize, dagger: bool) {
        let diag = R::from_f64(4.0 + self.mass);
        let half = R::from_f64(0.5);
        self.hopping
            .apply_full_fused_5d(out, inp, (1, nrhs), dagger, &|i, h| {
                inp[i].scale(diag) - h.scale(half)
            });
    }
}

/// Even–odd preconditioned Wilson operator acting on the odd checkerboard.
pub struct PrecWilson<'a, R: Real, G: GaugeLinks<R>> {
    hopping: HoppingKernel<'a, R, G>,
    lattice: &'a Lattice,
    mass: f64,
    /// Reused half-volume intermediate of the two hops (behind a lock so
    /// `apply_block` keeps its `&self` solver interface).
    scratch: Mutex<Vec<Spinor<R>>>,
}

impl<'a, R: Real, G: GaugeLinks<R>> PrecWilson<'a, R, G> {
    /// Bind the preconditioned operator.
    pub fn new(lattice: &'a Lattice, gauge: &'a G, mass: f64, antiperiodic_t: bool) -> Self {
        Self {
            hopping: HoppingKernel::new(lattice, gauge, antiperiodic_t),
            lattice,
            mass,
            scratch: Mutex::new(Vec::new()),
        }
    }

    fn diag(&self) -> f64 {
        4.0 + self.mass
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        self.lattice
    }

    /// Split a full-volume vector into (even, odd) checkerboards.
    pub fn split(&self, full: &[Spinor<R>]) -> (Vec<Spinor<R>>, Vec<Spinor<R>>) {
        super::split_parity(self.lattice, full)
    }

    /// Merge (even, odd) checkerboards back into a full-volume vector.
    pub fn merge(&self, even: &[Spinor<R>], odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        super::merge_parity(self.lattice, even, odd)
    }

    /// Preconditioned source: `b'_o = b_o + ½/(4+m) · H_oe b_e`.
    pub fn prepare_source(&self, b_even: &[Spinor<R>], b_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let c = R::from_f64(0.5 / self.diag());
        self.hop_into_new(b_even, Parity::Odd, |i, h| b_odd[i] + h.scale(c))
    }

    /// Reconstruct the even solution: `x_e = (b_e + ½ H_eo x_o)/(4+m)`.
    pub fn reconstruct_even(&self, b_even: &[Spinor<R>], x_odd: &[Spinor<R>]) -> Vec<Spinor<R>> {
        let inv = R::from_f64(1.0 / self.diag());
        let half = R::from_f64(0.5);
        self.hop_into_new(x_odd, Parity::Even, |i, h| {
            (b_even[i] + h.scale(half)).scale(inv)
        })
    }

    /// One fused hop of a single vector onto `parity`, `finish` folded into
    /// the write of a fresh output vector.
    fn hop_into_new(
        &self,
        inp: &[Spinor<R>],
        parity: Parity,
        finish: impl Fn(usize, Spinor<R>) -> Spinor<R> + Sync,
    ) -> Vec<Spinor<R>> {
        let mut out = vec![Spinor::zero(); self.lattice.half_volume()];
        self.hopping
            .apply_parity_fused_5d(&mut out, inp, parity, (1, 1), false, &finish);
        out
    }

    /// `M̂`, or `M̂† = γ5 M̂ γ5` when `dagger`, in two fused hops (`H` or
    /// `H†`) over the reused half-volume intermediate, the diagonal
    /// combination `i·a − h·c` folded into the second hop's output write.
    fn schur(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize, dagger: bool) {
        let a = R::from_f64(self.diag());
        let c = R::from_f64(0.25 / self.diag());
        let mut even = self.scratch.lock();
        even.resize(self.lattice.half_volume() * nrhs, Spinor::zero());
        let hop = &self.hopping;
        hop.apply_parity_fused_5d(&mut even, inp, Parity::Even, (1, nrhs), dagger, &|_, h| h);
        hop.apply_parity_fused_5d(out, &even, Parity::Odd, (1, nrhs), dagger, &|i, h| {
            inp[i].scale(a) - h.scale(c)
        });
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> LinearOp<R> for PrecWilson<'a, R, G> {
    fn vec_len(&self) -> usize {
        self.lattice.half_volume()
    }

    fn flops_per_apply(&self) -> f64 {
        // Two half-volume hopping applications + the diagonal combination.
        self.lattice.volume() as f64 * (HOPPING_FLOPS_PER_SITE + 48.0)
    }

    fn apply_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.schur(out, inp, nrhs, false);
    }
}

impl<'a, R: Real, G: GaugeLinks<R>> DiracOp<R> for PrecWilson<'a, R, G> {
    fn apply_dagger_block(&self, out: &mut [Spinor<R>], inp: &[Spinor<R>], nrhs: usize) {
        self.schur(out, inp, nrhs, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::dirac::testing::{assert_block_matches_oracle, real_bits};
    use crate::field::{FermionField, GaugeField};

    /// `v`, or `γ5 v` for the adjoint, as a fresh vector.
    fn gamma5_if<R: Real>(dagger: bool, v: &[Spinor<R>]) -> Vec<Spinor<R>> {
        v.iter()
            .map(|s| if dagger { s.apply_gamma5() } else { *s })
            .collect()
    }

    /// The unfused compositions the fused sweeps are held to: γ5 copies
    /// around the kernel's oracle hops and a separate diagonal pass.
    fn oracle_wilson<R: Real>(
        d: &WilsonDirac<R, GaugeField<R>>,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
        dagger: bool,
    ) {
        let gin = gamma5_if(dagger, inp);
        d.hopping.apply_oracle(out, &gin, None, nrhs);
        let (diag, half) = (R::from_f64(4.0 + d.mass), R::from_f64(0.5));
        for (o, i) in out.iter_mut().zip(&gin) {
            *o = i.scale(diag) - o.scale(half);
        }
        out.copy_from_slice(&gamma5_if(dagger, out));
    }

    fn oracle_prec_wilson<R: Real>(
        p: &PrecWilson<R, GaugeField<R>>,
        out: &mut [Spinor<R>],
        inp: &[Spinor<R>],
        nrhs: usize,
        dagger: bool,
    ) {
        let gin = gamma5_if(dagger, inp);
        let mut even = vec![Spinor::zero(); inp.len()];
        p.hopping
            .apply_oracle(&mut even, &gin, Some(Parity::Even), nrhs);
        p.hopping.apply_oracle(out, &even, Some(Parity::Odd), nrhs);
        let (a, c) = (R::from_f64(p.diag()), R::from_f64(0.25 / p.diag()));
        for (o, i) in out.iter_mut().zip(&gin) {
            *o = i.scale(a) - o.scale(c);
        }
        out.copy_from_slice(&gamma5_if(dagger, out));
    }

    fn fused_forms_match_oracles<R: Real>(lat: &Lattice, gauge: &GaugeField<R>) {
        let d = WilsonDirac::new(lat, gauge, 0.1, true);
        assert_block_matches_oracle(&d, "WilsonDirac", |o, i, n, dag| {
            oracle_wilson(&d, o, i, n, dag)
        });
        let p = &PrecWilson::new(lat, gauge, 0.1, true);
        assert_block_matches_oracle(p, "PrecWilson", |o, i, n, dag| {
            oracle_prec_wilson(p, o, i, n, dag)
        });

        // Source preparation and reconstruction: the oracle hop, then the
        // combination pass.
        let hv = lat.half_volume();
        let b_e = FermionField::<R>::gaussian(hv, 51).data;
        let b_o = FermionField::<R>::gaussian(hv, 52).data;
        let (c, inv, half) = (
            R::from_f64(0.5 / p.diag()),
            R::from_f64(1.0 / p.diag()),
            R::from_f64(0.5),
        );
        let mut want = vec![Spinor::zero(); hv];
        p.hopping
            .apply_oracle(&mut want, &b_e, Some(Parity::Odd), 1);
        for (w, b) in want.iter_mut().zip(&b_o) {
            *w = *b + w.scale(c);
        }
        assert!(real_bits(&p.prepare_source(&b_e, &b_o)) == real_bits(&want));
        p.hopping
            .apply_oracle(&mut want, &b_o, Some(Parity::Even), 1);
        for (w, b) in want.iter_mut().zip(&b_e) {
            *w = (*b + w.scale(half)).scale(inv);
        }
        assert!(real_bits(&p.reconstruct_even(&b_e, &b_o)) == real_bits(&want));
    }

    #[test]
    fn fused_sweeps_are_bit_identical_to_unfused_oracles() {
        let lat = Lattice::new([4, 4, 2, 6]);
        let gauge = GaugeField::<f64>::hot(&lat, 19);
        fused_forms_match_oracles(&lat, &gauge);
        fused_forms_match_oracles(&lat, &gauge.cast::<f32>());
    }

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
