//! The Feynman–Hellmann (FH) propagator method — the paper's physics
//! algorithm (Bouchard, Chang, Kurth, Orginos, Walker-Loud, PRD 96 014504).
//!
//! Traditional calculations of the axial coupling build three-point functions
//! at a few fixed source–sink separations and fit the large-time region,
//! where the signal-to-noise ratio has decayed exponentially. The FH method
//! instead solves one extra ("sequential") Dirac equation per quark line,
//!
//! `D ψ_FH = Γ_A S`,
//!
//! with the axial current `Γ_A = γ3 γ5` inserted *summed over all spacetime*.
//! Substituting `ψ_FH` for one quark line at a time in the nucleon
//! contraction yields a correlator whose logarithmic time-derivative
//! plateaus at `gA` — giving every source–sink separation for the cost of a
//! single traditional separation, which is exactly why the paper's Fig. 1
//! reaches a more precise answer with an order of magnitude fewer samples.

use crate::complex::C64;
use crate::contract::{baryon_sum, common_source_time, gather, BaryonKernel, SiteLanes, SiteValue};
use crate::gamma::{gamma3_gamma5, SpinMatrix};
use crate::lattice::Lattice;
use crate::prop::{Propagator, PropagatorSolver};
use crate::solver::SolveStats;

/// Feynman–Hellmann machinery bound to a propagator solver.
pub struct FeynmanHellmann<'s, 'a> {
    solver: &'s PropagatorSolver<'a>,
    insertion: SpinMatrix<f64>,
}

impl<'s, 'a> FeynmanHellmann<'s, 'a> {
    /// FH setup for the z-polarized axial current `A3 = q̄ γ3 γ5 q`.
    pub fn axial(solver: &'s PropagatorSolver<'a>) -> Self {
        Self {
            solver,
            insertion: gamma3_gamma5(),
        }
    }

    /// FH setup for an arbitrary current spin structure.
    pub fn with_insertion(solver: &'s PropagatorSolver<'a>, insertion: SpinMatrix<f64>) -> Self {
        Self { solver, insertion }
    }

    /// The current's spin structure.
    pub fn insertion(&self) -> &SpinMatrix<f64> {
        &self.insertion
    }

    /// The FH propagator: `D ψ_FH = Γ_A S` with the insertion summed over
    /// all spacetime (one extra inversion per column — the whole trick).
    pub fn fh_propagator(&self, base: &Propagator) -> (Propagator, Vec<SolveStats>) {
        self.solver.sequential_propagator(base, &self.insertion)
    }

    /// Sequential propagator with the current inserted on a single time
    /// slice only — the building block of the *traditional* three-point
    /// method, requiring one inversion set per insertion time.
    pub fn fixed_time_propagator(
        &self,
        base: &Propagator,
        t_insert: usize,
    ) -> (Propagator, Vec<SolveStats>) {
        let lat = self.solver.lattice();
        let (columns, stats) = self.solver.columns(base.columns.len(), |k, x| {
            if lat.time_of(x) == t_insert {
                base.columns[k].data[x].apply_spin_matrix(&self.insertion)
            } else {
                crate::spinor::Spinor::zero()
            }
        });
        for s in &stats {
            assert!(s.converged, "fixed-time sequential solve failed: {s:?}");
        }
        (
            Propagator {
                columns,
                source_site: base.source_site,
                source_time: base.source_time,
            },
            stats,
        )
    }
}

/// The FH-substituted nucleon correlator for the isovector axial current
/// `A3 = ū γ3γ5 u − d̄ γ3γ5 d`: the current is inserted on each up-quark
/// line in turn (two lines) minus the down-quark line.
pub fn fh_nucleon_correlator(
    lattice: &Lattice,
    prop_u: &Propagator,
    prop_d: &Propagator,
    fh_u: &Propagator,
    fh_d: &Propagator,
    projector: &SpinMatrix<f64>,
) -> Vec<C64> {
    fh_sum::<SiteLanes>(lattice, [prop_u, prop_d, fh_u, fh_d], projector)
}

/// [`fh_nucleon_correlator`] over groups of `E::WIDTH` sites.
fn fh_sum<E: SiteValue>(
    lattice: &Lattice,
    props: [&Propagator; 4],
    projector: &SpinMatrix<f64>,
) -> Vec<C64> {
    let t0 = common_source_time(&props);
    let kernel = BaryonKernel::new(projector);
    let [prop_u, prop_d, fh_u, fh_d] = props;
    // One pass: each of the four propagators is gathered, and each quark
    // line prepared, once per site group for all three substitutions.
    baryon_sum(
        lattice,
        t0,
        &kernel,
        #[inline(always)]
        |k: &BaryonKernel, x| {
            let (u, fu) = (gather::<E>(prop_u, x), gather(fh_u, x));
            let (u_folded, fu_folded) = (k.sink_folded(&u), k.sink_folded(&fu));
            let (u_traced, fu_traced) = (k.sink_traced(&u), k.sink_traced(&fu));
            let d = k.diquark_sandwiched(&gather(prop_d, x));
            let fd = k.diquark_sandwiched(&gather(fh_d, x));
            let c_u1 = k.site(&fu, &fu_folded, &u, &u_traced, &d);
            let c_u2 = k.site(&u, &u_folded, &fu, &fu_traced, &d);
            let c_d = k.site(&u, &u_folded, &u, &u_traced, &fd);
            c_u1 + c_u2 - c_d
        },
    )
}

/// The effective coupling `g_eff(t) = R(t+1) − R(t)` with
/// `R(t) = C_FH(t) / C_2pt(t)`.
///
/// For a matrix element `g` with the FH insertion summed over all time,
/// `R(t) → const + g·t` in the ground-state region, so the finite difference
/// plateaus at `g` — this is the quantity plotted in the paper's Fig. 1.
pub fn effective_ga(c2pt: &[f64], cfh: &[f64]) -> Vec<f64> {
    assert_eq!(c2pt.len(), cfh.len());
    let r: Vec<f64> = c2pt
        .iter()
        .zip(cfh)
        .map(|(&c2, &cf)| if c2 != 0.0 { cf / c2 } else { f64::NAN })
        .collect();
    (0..r.len().saturating_sub(1))
        .map(|t| r[t + 1] - r[t])
        .collect()
}

/// The traditional three-point ratio
/// `R_trad(t_sep, τ) = C_3pt(t_sep, τ) / C_2pt(t_sep)`, which plateaus at the
/// matrix element for `0 ≪ τ ≪ t_sep`. `c3pt[t]` must be the substituted
/// correlator built from a fixed-`τ` sequential propagator.
pub fn traditional_ratio(c2pt: &[f64], c3pt: &[f64], t_sep: usize) -> f64 {
    assert!(t_sep < c2pt.len());
    if c2pt[t_sep] != 0.0 {
        c3pt[t_sep] / c2pt[t_sep]
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::field::GaugeField;
    use crate::gamma::polarized_projector;
    use crate::prop::SolverKind;

    fn quenched_setup() -> (Lattice, GaugeField<f64>) {
        let lat = Lattice::new([4, 4, 4, 8]);
        let mut ens = crate::gauge::QuenchedEnsemble::cold_start(
            &lat,
            crate::gauge::HeatbathParams { beta: 6.0, n_or: 1 },
            13,
        );
        for _ in 0..5 {
            ens.update();
        }
        (lat.clone(), ens.current().clone())
    }

    #[test]
    fn fixed_time_insertions_sum_to_full_fh_propagator() {
        // Linearity of the Dirac inverse: Σ_τ D⁻¹(Γ S δ_{t,τ}) = D⁻¹(Γ S).
        let (lat, gauge) = quenched_setup();
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.5 });
        let (base, _) = solver.point_propagator(0);
        let fh = FeynmanHellmann::axial(&solver);

        let (full, _) = fh.fh_propagator(&base);
        let mut summed = vec![crate::spinor::Spinor::zero(); lat.volume()];
        for t in 0..lat.nt() {
            let (part, _) = fh.fixed_time_propagator(&base, t);
            blas::axpy(1.0, &part.columns[5].data, &mut summed);
        }
        let diff = blas::sub(&summed, &full.columns[5].data);
        let rel = blas::norm_sqr(&diff) / blas::norm_sqr(&full.columns[5].data);
        assert!(rel < 1e-10, "linearity violated: rel {rel}");
    }

    #[test]
    fn effective_ga_extracts_linear_slope() {
        // If C_FH(t) = (a + g·t)·C2(t) exactly, g_eff must equal g at all t.
        let c2: Vec<f64> = (0..12).map(|t| 5.0 * (-0.4 * t as f64).exp()).collect();
        let g = 1.271;
        let cfh: Vec<f64> = c2
            .iter()
            .enumerate()
            .map(|(t, &c)| (0.3 + g * t as f64) * c)
            .collect();
        let geff = effective_ga(&c2, &cfh);
        for v in &geff {
            assert!((v - g).abs() < 1e-12, "g_eff {v} != {g}");
        }
    }

    #[test]
    fn fh_nucleon_correlator_runs_on_real_pipeline() {
        let (lat, gauge) = quenched_setup();
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.5 });
        let (prop, _) = solver.point_propagator(0);
        let fh = FeynmanHellmann::axial(&solver);
        let (fh_prop, _) = fh.fh_propagator(&prop);

        let proj = polarized_projector();
        let c2 = crate::contract::proton_correlator(&lat, &prop, &prop, &proj);
        let cfh = fh_nucleon_correlator(&lat, &prop, &prop, &fh_prop, &fh_prop, &proj);

        assert_eq!(cfh.len(), lat.nt());
        let c2r: Vec<f64> = c2.iter().map(|c| c.re).collect();
        let cfhr: Vec<f64> = cfh.iter().map(|c| c.re).collect();
        let geff = effective_ga(&c2r, &cfhr);
        // Single quenched config at heavy mass: no physical value expected,
        // but the pipeline must produce finite numbers in the interior.
        for t in 0..4 {
            assert!(geff[t].is_finite(), "g_eff({t}) not finite");
        }
    }

    #[test]
    fn fused_pass_equals_the_three_substitutions_of_the_index_loop() {
        use crate::contract::tests::{gaussian_prop, proton_reference, rel_err};
        let lat = Lattice::new([4, 4, 2, 4]);
        let (u, d) = (gaussian_prop(&lat, 100), gaussian_prop(&lat, 200));
        let (fh_u, fh_d) = (gaussian_prop(&lat, 300), gaussian_prop(&lat, 400));
        for proj in [crate::gamma::parity_projector(), polarized_projector()] {
            let c_u1 = proton_reference(&lat, &fh_u, &u, &d, &proj);
            let c_u2 = proton_reference(&lat, &u, &fh_u, &d, &proj);
            let c_d = proton_reference(&lat, &u, &u, &fh_d, &proj);
            let want: Vec<C64> = (0..lat.nt()).map(|t| c_u1[t] + c_u2[t] - c_d[t]).collect();
            let got = fh_nucleon_correlator(&lat, &u, &d, &fh_u, &fh_d, &proj);
            let err = rel_err(&got, &want);
            assert!(err <= 1e-12, "relative error {err}");
        }
    }

    #[test]
    fn lanes_equal_the_one_site_chain_bit_for_bit() {
        use crate::contract::tests::{bits, gaussian_prop, projectors};
        let lat = Lattice::new([4, 4, 2, 4]);
        let (u, d) = (gaussian_prop(&lat, 100), gaussian_prop(&lat, 200));
        let (fh_u, fh_d) = (gaussian_prop(&lat, 300), gaussian_prop(&lat, 400));
        for (name, proj) in projectors() {
            assert_eq!(
                bits(&fh_nucleon_correlator(&lat, &u, &d, &fh_u, &fh_d, &proj)),
                bits(&fh_sum::<C64>(&lat, [&u, &d, &fh_u, &fh_d], &proj)),
                "{name} projector"
            );
        }
    }

    #[test]
    #[should_panic(expected = "same source needed")]
    fn fh_rejects_propagators_from_different_sources() {
        use crate::contract::tests::gaussian_prop;
        let lat = Lattice::new([2, 2, 2, 4]);
        let u = gaussian_prop(&lat, 1);
        let mut fh = gaussian_prop(&lat, 2);
        fh.source_time = 1;
        fh_nucleon_correlator(&lat, &u, &u, &fh, &fh, &polarized_projector());
    }

    #[test]
    fn traditional_ratio_matches_definition() {
        let c2 = vec![8.0, 4.0, 2.0, 1.0];
        let c3 = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(traditional_ratio(&c2, &c3, 2), 1.5);
    }
}
