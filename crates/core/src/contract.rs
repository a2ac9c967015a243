//! Tensor contractions of propagators into hadron correlators — the "3% of
//! execution time" CPU-only stage of the paper's workflow that `mpi_jm`
//! co-schedules with GPU propagator solves.
//!
//! Implemented here:
//! - generic meson two-point functions `C(t) = Σx Tr[Γ_snk S_a Γ_src γ5 S_b† γ5]`,
//! - the proton (nucleon) two-point function via explicit Wick contraction
//!   of the `ε_abc (u^T Cγ5 d) u` interpolating operator,
//! - the substituted contractions used by the Feynman–Hellmann method, where
//!   one quark line at a time is replaced by a current-inserted propagator.

use crate::complex::C64;
use crate::gamma::{c_gamma5, gamma5_dense, SpinMatrix, NS};
use crate::lattice::Lattice;
use crate::prop::Propagator;

/// Sites per parallel chunk of a contraction volume sum. Constant (never
/// width-derived) so the reduction shape — and the correlator's bits — are
/// identical at any thread count.
const SITE_GRAIN: usize = 1024;

/// Timeslice-binned volume sum `corr[(t(x) + nt - t0) % nt] += site(x)`:
/// each fixed chunk of sites folds into its own `nt`-length partial
/// correlator, and partials are added slice-wise in chunk-index order.
pub(crate) fn timeslice_sum<T, F>(lattice: &Lattice, t0: usize, zero: T, site: F) -> Vec<T>
where
    T: Copy + std::ops::AddAssign + Send + Sync,
    F: Fn(usize) -> (usize, T) + Sync + Send,
{
    let nt = lattice.nt();
    rayon::reduce_chunks(
        lattice.volume(),
        SITE_GRAIN,
        || vec![zero; nt],
        |mut corr, sites| {
            for x in sites {
                let (t, v) = site(x);
                corr[(t + nt - t0) % nt] += v;
            }
            corr
        },
        |mut a, b| {
            for (ai, bi) in a.iter_mut().zip(b) {
                *ai += bi;
            }
            a
        },
    )
}

/// The 6 non-zero entries of the ε tensor as (a, b, c, sign).
const EPSILON: [(usize, usize, usize, f64); 6] = [
    (0, 1, 2, 1.0),
    (1, 2, 0, 1.0),
    (2, 0, 1, 1.0),
    (0, 2, 1, -1.0),
    (2, 1, 0, -1.0),
    (1, 0, 2, -1.0),
];

/// Generic meson two-point function with sink and source spin structures:
/// `C(t) = Σ_x Tr[ Γ_snk S_a(x,0) Γ_src γ5 S_b(x,0)† γ5 ]`,
/// time-sliced relative to the source time. For `Γ_snk = Γ_src = γ5` this is
/// the pion correlator `Σ |S|²`.
pub fn meson_correlator(
    lattice: &Lattice,
    prop_a: &Propagator,
    prop_b: &Propagator,
    gamma_snk: &SpinMatrix<f64>,
    gamma_src: &SpinMatrix<f64>,
) -> Vec<C64> {
    assert_eq!(prop_a.source_site, prop_b.source_site, "same source needed");
    let t0 = prop_a.source_time;
    let g5 = gamma5_dense();
    // Γ̃_src = γ5 Γ_src γ5 is applied to the conjugated propagator:
    // Tr[Γ_snk S_a Γ_src γ5 S_b† γ5] = Σ (Γ_snk S_a)_{..} (γ5 Γ_src† γ5 ...).
    timeslice_sum(lattice, t0, C64::zero(), |x| {
        let ma = prop_a.site_matrix(x);
        let mb = prop_b.site_matrix(x);
        let mut acc = C64::zero();
        // Tr over spin-color: Γ_snk(s1,s2) S_a[(s2,c1),(s3,c2)]
        // Γ_src(s3,s4) [γ5 S_b† γ5][(s4,c2),(s1,c1)]
        // with [γ5 S_b† γ5][(s4,c2),(s1,c1)]
        //    = γ5(s4) γ5(s1) conj(S_b[(s1,c1),(s4,c2)]).
        for s1 in 0..NS {
            for s2 in 0..NS {
                let gk = gamma_snk.m[s1][s2];
                if gk.norm_sqr() == 0.0 {
                    continue;
                }
                for s3 in 0..NS {
                    for s4 in 0..NS {
                        let gs = gamma_src.m[s3][s4];
                        if gs.norm_sqr() == 0.0 {
                            continue;
                        }
                        let phase = g5.m[s4][s4] * g5.m[s1][s1];
                        for c1 in 0..3 {
                            for c2 in 0..3 {
                                let a = ma[s2 * 3 + c1][s3 * 3 + c2];
                                let b = mb[s1 * 3 + c1][s4 * 3 + c2].conj();
                                acc += gk * gs * phase * a * b;
                            }
                        }
                    }
                }
            }
        }
        (lattice.time_of(x), acc)
    })
}

/// Pion correlator via the γ5-hermiticity shortcut: `C(t) = Σ_x Σ |S(x)|²`.
/// Used both as the physical pseudoscalar channel and as a cross-check of
/// [`meson_correlator`].
pub fn pion_correlator(lattice: &Lattice, prop: &Propagator) -> Vec<f64> {
    timeslice_sum(lattice, prop.source_time, 0.0f64, |x| {
        let mut acc = 0.0;
        for col in &prop.columns {
            acc += col.data[x].norm_sqr();
        }
        (lattice.time_of(x), acc)
    })
}

/// Proton two-point function with an arbitrary sink spin projector:
///
/// `C(t) = Σ_x ε_abc ε_a'b'c' (Cγ5)_{αβ} (Cγ5)_{α'β'} P_{γ'γ}
///         S_d^{bb'}_{ββ'} [ S_u^{aa'}_{αα'} S_u^{cc'}_{γγ'}
///                          − S_u^{ac'}_{αγ'} S_u^{ca'}_{γα'} ]`
///
/// The two terms are the direct and exchange Wick pairings of the two up
/// quarks.
pub fn proton_correlator(
    lattice: &Lattice,
    prop_u: &Propagator,
    prop_d: &Propagator,
    projector: &SpinMatrix<f64>,
) -> Vec<C64> {
    proton_correlator_general(lattice, prop_u, prop_u, prop_d, projector)
}

/// Proton contraction with independently substitutable up-quark lines:
/// `u1` contracts the `u_a` line, `u2` the `u_c` line. Used by the
/// Feynman–Hellmann substitution (one line at a time carries the current).
pub fn proton_correlator_general(
    lattice: &Lattice,
    u1: &Propagator,
    u2: &Propagator,
    d: &Propagator,
    projector: &SpinMatrix<f64>,
) -> Vec<C64> {
    let t0 = common_source_time(&[u1, u2, d]);
    let kernel = BaryonKernel::new(projector);
    timeslice_sum(lattice, t0, C64::zero(), |x| {
        let mu1 = u1.site_matrix(x);
        let mu2 = u2.site_matrix(x);
        let site = kernel.site(
            &mu1,
            &kernel.sink_folded(&mu1),
            &mu2,
            &kernel.sink_traced(&mu2),
            &kernel.diquark_sandwiched(&d.site_matrix(x)),
        );
        (lattice.time_of(x), site)
    })
}

/// The source time shared by every propagator of one baryon contraction.
/// Propagators from different sources would bin a correlator shifted by
/// the wrong `t0` without any other symptom, so a mismatch is a panic.
pub(crate) fn common_source_time(props: &[&Propagator]) -> usize {
    for p in &props[1..] {
        assert_eq!(
            (p.source_site, p.source_time),
            (props[0].source_site, props[0].source_time),
            "same source needed"
        );
    }
    props[0].source_time
}

/// A propagator at one site, indexed `[s_snk*3+c_snk][s_src*3+c_src]`.
type SiteMatrix = [[C64; 12]; 12];

/// `V[αa][c'][k] = Σ_γ' P[γ'][γ_k] U[αa][γ'c']`: an up-quark line with the
/// sink projector folded onto its source index, one slot per distinct `γ_k`.
type SinkFolded = [[[C64; NS]; 3]; 12];

/// `T[c][c'] = Σ P[γ'][γ] U[γc][γ'c']`: an up-quark line traced against
/// the sink projector, a 3×3 colour matrix.
type SinkTraced = [[C64; 3]; 3];

/// The per-call constants of the baryon contraction (see
/// [`proton_correlator`]) and the per-site pieces it factors into. With the
/// Cγ5-sandwiched down quark `S̃d[αb][α'b'] = w w' Sd[β(α)b][β'(α')b']`
/// the site value is
///
/// `Σ ± Σ_α' ( T2[c][c'] Σ_α S̃d[αb][α'b'] U1[αa][α'a']
///            − Σ_k U2[γ_k c][α'a'] Σ_α S̃d[αb][α'b'] V1[αa][c'][k] )`
///
/// over the 36 signed colour pairs: the projector sums are done once per
/// quark line instead of once per colour pair, and neither the ε signs nor
/// the projector's zeros cost a multiply or a branch inside.
pub(crate) struct BaryonKernel {
    /// `ε_abc ε_a'b'c'` as `([a, b, c], [a', b', c'], product is −1)`.
    colour: [([usize; 3], [usize; 3], bool); 36],
    /// Non-zeros `(α, β, w)` of `Cγ5`.
    cg5: Vec<(usize, usize, f64)>,
    /// Non-zeros of the projector as `(γ', k, P[γ'][γ_k])`.
    projector: Vec<(usize, usize, C64)>,
    /// The distinct `γ_k` with a non-zero projector column.
    gammas: Vec<usize>,
}

impl BaryonKernel {
    pub(crate) fn new(projector: &SpinMatrix<f64>) -> Self {
        let mut colour = [([0; 3], [0; 3], false); 36];
        for (i, &(a, b, c, sgn)) in EPSILON.iter().enumerate() {
            for (j, &(ap, bp, cp, sgnp)) in EPSILON.iter().enumerate() {
                colour[i * 6 + j] = ([a, b, c], [ap, bp, cp], sgn * sgnp < 0.0);
            }
        }
        let cg5_dense = c_gamma5();
        let mut cg5 = Vec::new();
        for al in 0..NS {
            for be in 0..NS {
                let w = cg5_dense.m[al][be];
                if w.norm_sqr() > 0.0 {
                    assert_eq!(w.im, 0.0, "Cγ5 is real in this basis");
                    cg5.push((al, be, w.re));
                }
            }
        }
        let mut entries = Vec::new();
        let mut gammas = Vec::new();
        for ga in 0..NS {
            for gap in 0..NS {
                let p = projector.m[gap][ga];
                if p.norm_sqr() > 0.0 {
                    if gammas.last() != Some(&ga) {
                        gammas.push(ga);
                    }
                    entries.push((gap, gammas.len() - 1, p));
                }
            }
        }
        Self {
            colour,
            cg5,
            projector: entries,
            gammas,
        }
    }

    /// The projector folded onto the source index of the `u_a` line.
    pub(crate) fn sink_folded(&self, u: &SiteMatrix) -> SinkFolded {
        let mut v = [[[C64::zero(); NS]; 3]; 12];
        for &(gp, k, p) in &self.projector {
            for (row, vr) in v.iter_mut().enumerate() {
                for cp in 0..3 {
                    vr[cp][k] += p * u[row][gp * 3 + cp];
                }
            }
        }
        v
    }

    /// The projector traced against the `u_c` line.
    pub(crate) fn sink_traced(&self, u: &SiteMatrix) -> SinkTraced {
        let mut t = [[C64::zero(); 3]; 3];
        for &(gp, k, p) in &self.projector {
            let g = self.gammas[k];
            for c in 0..3 {
                for cp in 0..3 {
                    t[c][cp] += p * u[g * 3 + c][gp * 3 + cp];
                }
            }
        }
        t
    }

    /// The down quark between the two diquark `Cγ5`s.
    pub(crate) fn diquark_sandwiched(&self, d: &SiteMatrix) -> SiteMatrix {
        let mut s = [[C64::zero(); 12]; 12];
        for &(al, be, w) in &self.cg5 {
            for &(alp, bep, wp) in &self.cg5 {
                for b in 0..3 {
                    for bp in 0..3 {
                        s[al * 3 + b][alp * 3 + bp] += d[be * 3 + b][bep * 3 + bp].scale(w * wp);
                    }
                }
            }
        }
        s
    }

    /// The baryon contraction at one site: `u1`/`v1` are the `u_a` line
    /// and its [`Self::sink_folded`], `u2`/`t2` the `u_c` line and its
    /// [`Self::sink_traced`], `sd` the [`Self::diquark_sandwiched`] down
    /// quark.
    pub(crate) fn site(
        &self,
        u1: &SiteMatrix,
        v1: &SinkFolded,
        u2: &SiteMatrix,
        t2: &SinkTraced,
        sd: &SiteMatrix,
    ) -> C64 {
        let ng = self.gammas.len();
        let mut acc = C64::zero();
        for &([a, b, c], [ap, bp, cp], negative) in &self.colour {
            let mut direct = C64::zero();
            let mut exchange = C64::zero();
            for alp in 0..NS {
                // q[k] = Σ_α S̃d[αb][α'b'] V1[αa][c'][k]
                let mut q = [C64::zero(); NS];
                for al in 0..NS {
                    let s = sd[al * 3 + b][alp * 3 + bp];
                    direct += s * u1[al * 3 + a][alp * 3 + ap];
                    for (qk, &vk) in q.iter_mut().zip(&v1[al * 3 + a][cp][..ng]) {
                        *qk += s * vk;
                    }
                }
                for (&qk, &g) in q.iter().zip(&self.gammas) {
                    exchange += qk * u2[g * 3 + c][alp * 3 + ap];
                }
            }
            let pair = t2[c][cp] * direct - exchange;
            if negative {
                acc -= pair;
            } else {
                acc += pair;
            }
        }
        acc
    }
}

/// Momentum-projected pion correlator:
/// `C(p, t) = Σ_x e^{−i p·x} Σ |S(x)|²`-style with the phase on the sink,
/// for integer momentum `n = (nx, ny, nz)` in units of `2π/L`.
pub fn pion_correlator_momentum(lattice: &Lattice, prop: &Propagator, n_mom: [i32; 3]) -> Vec<C64> {
    let dims = lattice.dims();
    timeslice_sum(lattice, prop.source_time, C64::zero(), |x| {
        let c = lattice.coords(x);
        let mut phase = 0.0f64;
        for (k, &n) in n_mom.iter().enumerate() {
            phase += 2.0 * std::f64::consts::PI * n as f64 * c[k] as f64 / dims[k] as f64;
        }
        let w = C64::new(phase.cos(), -phase.sin());
        let mut acc = 0.0;
        for col in &prop.columns {
            acc += col.data[x].norm_sqr();
        }
        (lattice.time_of(x), w * C64::new(acc, 0.0))
    })
}

/// Effective mass `m_eff(t) = ln[C(t) / C(t+1)]` of a decaying correlator.
pub fn effective_mass(corr: &[f64]) -> Vec<f64> {
    (0..corr.len().saturating_sub(1))
        .map(|t| {
            if corr[t] > 0.0 && corr[t + 1] > 0.0 {
                (corr[t] / corr[t + 1]).ln()
            } else {
                f64::NAN
            }
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::field::GaugeField;
    use crate::gamma::parity_projector;
    use crate::prop::{PropagatorSolver, SolverKind};

    fn quenched_setup() -> (Lattice, GaugeField<f64>) {
        let lat = Lattice::new([4, 4, 4, 8]);
        let mut ens = crate::gauge::QuenchedEnsemble::cold_start(
            &lat,
            crate::gauge::HeatbathParams { beta: 6.0, n_or: 1 },
            11,
        );
        for _ in 0..5 {
            ens.update();
        }
        (lat.clone(), ens.current().clone())
    }

    fn make_prop(lat: &Lattice, gauge: &GaugeField<f64>, mass: f64) -> Propagator {
        let solver = PropagatorSolver::new(lat, gauge, SolverKind::WilsonPrecCgne { mass });
        solver.point_propagator(0).0
    }

    /// The contraction as the plain index loop over ε ⊗ ε ⊗ Cγ5 ⊗ Cγ5 ⊗ P —
    /// the form the formula in [`proton_correlator`]'s doc is read off from,
    /// kept as the oracle for [`BaryonKernel`].
    pub(crate) fn proton_reference(
        lattice: &Lattice,
        u1: &Propagator,
        u2: &Propagator,
        d: &Propagator,
        projector: &SpinMatrix<f64>,
    ) -> Vec<C64> {
        let t0 = d.source_time;
        let cg5 = c_gamma5();

        // Precompute the sparse entries of Cγ5 (4 non-zeros, all real).
        let mut cg5_entries: Vec<(usize, usize, f64)> = Vec::new();
        for a in 0..NS {
            for b in 0..NS {
                if cg5.m[a][b].norm_sqr() > 0.0 {
                    cg5_entries.push((a, b, cg5.m[a][b].re));
                }
            }
        }

        timeslice_sum(lattice, t0, C64::zero(), |x| {
            let mu1 = u1.site_matrix(x);
            let mu2 = u2.site_matrix(x);
            let md = d.site_matrix(x);
            let mut acc = C64::zero();
            for &(a, b, c, sgn) in &EPSILON {
                for &(ap, bp, cp, sgnp) in &EPSILON {
                    let color_sign = sgn * sgnp;
                    for &(al, be, w1) in &cg5_entries {
                        for &(alp, bep, w2) in &cg5_entries {
                            let sd = md[be * 3 + b][bep * 3 + bp];
                            let w = color_sign * w1 * w2;
                            for ga in 0..NS {
                                for gap in 0..NS {
                                    let p = projector.m[gap][ga];
                                    if p.norm_sqr() == 0.0 {
                                        continue;
                                    }
                                    // Direct pairing.
                                    let direct = mu1[al * 3 + a][alp * 3 + ap]
                                        * mu2[ga * 3 + c][gap * 3 + cp];
                                    // Exchange pairing.
                                    let exchange = mu1[al * 3 + a][gap * 3 + cp]
                                        * mu2[ga * 3 + c][alp * 3 + ap];
                                    acc += p * sd * (direct - exchange) * C64::new(w, 0.0);
                                }
                            }
                        }
                    }
                }
            }
            (lattice.time_of(x), acc)
        })
    }

    /// A propagator of seeded gaussian columns from source `(0, 0)`.
    pub(crate) fn gaussian_prop(lat: &Lattice, seed: u64) -> Propagator {
        Propagator {
            columns: (0..12)
                .map(|i| crate::field::FermionField::gaussian(lat.volume(), seed + i))
                .collect(),
            source_site: 0,
            source_time: 0,
        }
    }

    /// Largest `|a − b| / max(|b|, 1e-9·max|b|)`, the rule of
    /// `benchmark/src/check.rs::rel_err`.
    pub(crate) fn rel_err(got: &[C64], want: &[C64]) -> f64 {
        assert_eq!(got.len(), want.len());
        let floor = 1e-9 * want.iter().map(|w| w.abs()).fold(0.0, f64::max);
        got.iter()
            .zip(want)
            .map(|(&g, &w)| (g - w).abs() / w.abs().max(floor))
            .fold(0.0, f64::max)
    }

    #[test]
    fn factored_kernel_matches_index_loop_for_any_projector() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let (u1, u2, d) = (
            gaussian_prop(&lat, 100),
            gaussian_prop(&lat, 200),
            gaussian_prop(&lat, 300),
        );
        // A dense complex projector with no zero entry.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        let mut dense = SpinMatrix::zero();
        for e in dense.m.iter_mut().flatten() {
            *e = C64::new(rng.gen::<f64>() - 1.5, rng.gen::<f64>() + 0.5);
        }
        for (name, proj) in [
            ("parity", parity_projector()),
            ("polarized", crate::gamma::polarized_projector()),
            ("dense", dense),
        ] {
            let got = proton_correlator_general(&lat, &u1, &u2, &d, &proj);
            let want = proton_reference(&lat, &u1, &u2, &d, &proj);
            let err = rel_err(&got, &want);
            assert!(err <= 1e-12, "{name} projector: relative error {err}");
        }
    }

    #[test]
    #[should_panic(expected = "same source needed")]
    fn proton_rejects_propagators_from_different_sources() {
        let lat = Lattice::new([2, 2, 2, 4]);
        let d = gaussian_prop(&lat, 1);
        let mut u = gaussian_prop(&lat, 2);
        u.source_site = lat.volume() - 1;
        u.source_time = 3;
        proton_correlator(&lat, &u, &d, &parity_projector());
    }

    #[test]
    fn generic_meson_with_gamma5_matches_pion_shortcut() {
        let (lat, gauge) = quenched_setup();
        let prop = make_prop(&lat, &gauge, 0.5);
        let g5 = gamma5_dense();
        let generic = meson_correlator(&lat, &prop, &prop, &g5, &g5);
        let shortcut = pion_correlator(&lat, &prop);
        for t in 0..lat.nt() {
            assert!(
                (generic[t].re - shortcut[t]).abs() < 1e-8 * shortcut[t].abs().max(1e-30),
                "t={t}: {} vs {}",
                generic[t].re,
                shortcut[t]
            );
            assert!(generic[t].im.abs() < 1e-10 * shortcut[t].abs().max(1e-30));
        }
    }

    #[test]
    fn pion_correlator_is_positive_and_decays() {
        let (lat, gauge) = quenched_setup();
        let prop = make_prop(&lat, &gauge, 0.5);
        let c = pion_correlator(&lat, &prop);
        for t in 0..lat.nt() {
            assert!(c[t] > 0.0, "pion correlator positive at t={t}");
        }
        // Decay away from the source toward the midpoint.
        assert!(c[1] < c[0]);
        assert!(c[2] < c[1]);
        // Approximate time-reflection symmetry (periodic + apbc doubling).
        let nt = lat.nt();
        for t in 1..nt / 2 {
            let ratio = c[t] / c[nt - t];
            assert!(
                (0.2..5.0).contains(&ratio),
                "gross asymmetry at t={t}: {ratio}"
            );
        }
    }

    #[test]
    fn proton_correlator_is_real_and_decays() {
        let (lat, gauge) = quenched_setup();
        let prop = make_prop(&lat, &gauge, 0.5);
        let c = proton_correlator(&lat, &prop, &prop, &parity_projector());
        // The imaginary part vanishes only in the ensemble average; on a
        // single configuration it is a volume-suppressed fluctuation, so
        // compare it against the t=0 signal rather than the decayed one.
        let scale = c[0].re.abs();
        for t in 0..4 {
            assert!(
                c[t].im.abs() < 1e-3 * scale,
                "t={t} imaginary part too large: {:?} (scale {scale})",
                c[t]
            );
        }
        let c0 = c[0].re.abs();
        let c1 = c[1].re.abs();
        let c2 = c[2].re.abs();
        assert!(c0 > 0.0 && c1 > 0.0);
        assert!(c1 < c0, "baryon correlator must decay: {c0} -> {c1}");
        assert!(c2 < c1, "baryon correlator must decay: {c1} -> {c2}");
    }

    #[test]
    fn proton_heavier_than_pion() {
        let (lat, gauge) = quenched_setup();
        let prop = make_prop(&lat, &gauge, 0.5);
        let cpi = pion_correlator(&lat, &prop);
        let cp = proton_correlator(&lat, &prop, &prop, &parity_projector());
        let m_pi = (cpi[1] / cpi[2]).ln();
        let m_p = (cp[1].re.abs() / cp[2].re.abs()).ln();
        assert!(
            m_p > m_pi,
            "effective proton mass {m_p} should exceed pion {m_pi}"
        );
    }

    #[test]
    fn general_contraction_reduces_to_standard_when_lines_equal() {
        let (lat, gauge) = quenched_setup();
        let prop = make_prop(&lat, &gauge, 0.5);
        let a = proton_correlator(&lat, &prop, &prop, &parity_projector());
        let b = proton_correlator_general(&lat, &prop, &prop, &prop, &parity_projector());
        for t in 0..lat.nt() {
            assert!((a[t] - b[t]).abs() < 1e-12 * a[t].abs().max(1e-30));
        }
    }

    #[test]
    fn momentum_zero_projection_matches_plain_pion() {
        let (lat, gauge) = quenched_setup();
        let prop = make_prop(&lat, &gauge, 0.5);
        let plain = pion_correlator(&lat, &prop);
        let p0 = pion_correlator_momentum(&lat, &prop, [0, 0, 0]);
        for t in 0..lat.nt() {
            assert!((p0[t].re - plain[t]).abs() < 1e-10 * plain[t].abs());
            assert!(p0[t].im.abs() < 1e-10 * plain[t].abs());
        }
    }

    #[test]
    fn dispersion_relation_boosted_pion_is_heavier() {
        // E(p)² ≈ m² + p²: the momentum-projected correlator must decay
        // faster than the zero-momentum one.
        let (lat, gauge) = quenched_setup();
        let prop = make_prop(&lat, &gauge, 0.5);
        let c0 = pion_correlator_momentum(&lat, &prop, [0, 0, 0]);
        let c1 = pion_correlator_momentum(&lat, &prop, [1, 0, 0]);
        let e0 = (c0[1].re.abs() / c0[2].re.abs()).ln();
        let e1 = (c1[1].re.abs() / c1[2].re.abs()).ln();
        assert!(
            e1 > e0,
            "boosted pion must be heavier: E(1) = {e1} vs E(0) = {e0}"
        );
        // Loose continuum-dispersion check: E(p)² − E(0)² ≈ p² up to
        // lattice artifacts on a coarse 4³ box.
        let p2 = (2.0 * std::f64::consts::PI / 4.0f64).powi(2);
        let gap = e1 * e1 - e0 * e0;
        assert!(
            (0.2 * p2..3.0 * p2).contains(&gap),
            "dispersion gap {gap} vs p² = {p2}"
        );
    }

    #[test]
    fn effective_mass_of_pure_exponential_is_flat() {
        let corr: Vec<f64> = (0..10).map(|t| 3.0 * (-0.7 * t as f64).exp()).collect();
        let m = effective_mass(&corr);
        for v in m {
            assert!((v - 0.7).abs() < 1e-12);
        }
    }
}
