//! Quark propagators — the computation that consumes ~97% of the paper's
//! machine time.
//!
//! A propagator is the Dirac-operator inverse against 12 point-source columns
//! (4 spins × 3 colors). For the Möbius discretization the 4D quark field is
//! built from the walls of the 5th dimension:
//!
//! - source injection: `B_s(y) = δ_{s,L5−1} P₋ b(y) + δ_{s,0} P₊ b(y)`
//! - sink extraction: `q(x) = P₋ ψ_0(x) + P₊ ψ_{L5−1}(x)`
//!
//! Every solve goes through the red–black preconditioned system (prepare →
//! CGNE (optionally mixed-precision) → reconstruct), exactly the production
//! path of the paper. The walls are written straight into the two
//! checkerboards and read straight out of them; no full 5D vector is built.
//!
//! **Threading.** The columns of a propagator are independent, so they run
//! side by side as pool tasks, the way the paper's job manager runs many
//! small solves at once rather than strong-scaling one past its knee. Inside
//! a column every parallel loop then runs inline on the task's thread. A lone
//! [`PropagatorSolver::solve`] is one task run inline on the caller, so its
//! loops spread over the whole pool instead. Either way a column's solution
//! and [`SolveStats`] are bit-identical at any pool width
//! (`tests/propagator_columns.rs`). Each column reports its solve into the
//! caller's ambient [`obs::Registry`]; the `solver.reliable_update` events of
//! concurrent columns interleave in that registry in scheduling order, so
//! only their per-column subsequences are deterministic.

use crate::complex::C64;
use crate::dirac::{LinearOp, MobiusParams, NormalOp, PrecMobius, PrecWilson};
use crate::field::{FermionField, GaugeField};
use crate::lattice::{Lattice, Parity};
use crate::solver::{cgne, mixed_cg, solve_normal, CgParams, MixedParams, SolveStats};
use crate::spinor::Spinor;
use obs::Registry;

/// Which action / solver pipeline produces the propagator.
#[derive(Clone, Copy, Debug)]
pub enum SolverKind {
    /// 4D Wilson quarks through the red-black preconditioned CGNE path
    /// (same prepare/solve/reconstruct structure as the Möbius pipeline).
    WilsonPrecCgne {
        /// Bare Wilson quark mass.
        mass: f64,
    },
    /// Möbius domain-wall quarks, red–black preconditioned CGNE in double.
    MobiusCgne {
        /// Operator parameters.
        params: MobiusParams,
    },
    /// Möbius domain-wall quarks, double/single mixed-precision
    /// reliable-update CGNE over the red–black system.
    MobiusMixed {
        /// Operator parameters.
        params: MobiusParams,
    },
}

/// A point source: 1 in the given (spin, color) slot at `site`.
pub fn point_source(
    lattice: &Lattice,
    site: usize,
    spin: usize,
    color: usize,
) -> FermionField<f64> {
    let mut b = FermionField::zeros(lattice.volume());
    b.data[site] = Spinor::unit(spin, color);
    b
}

/// A wall source: 1 in the given (spin, color) slot on every spatial site of
/// time slice `t0` — a zero-momentum projection at the source.
pub fn wall_source(lattice: &Lattice, t0: usize, spin: usize, color: usize) -> FermionField<f64> {
    let mut b = FermionField::zeros(lattice.volume());
    for x in 0..lattice.volume() {
        if lattice.time_of(x) == t0 {
            b.data[x] = Spinor::unit(spin, color);
        }
    }
    b
}

/// A Z₂×Z₂ noise source on time slice `t0` (all spins and colors populated
/// with ±1±i), used for stochastic estimation; reproducible from `seed`.
pub fn z2_noise_source(lattice: &Lattice, t0: usize, seed: u64) -> FermionField<f64> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut b = FermionField::zeros(lattice.volume());
    for x in 0..lattice.volume() {
        if lattice.time_of(x) != t0 {
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(seed ^ (x as u64).wrapping_mul(0x2545F4914F6CDD1D));
        for s in 0..4 {
            for c in 0..3 {
                let re = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                let im = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                b.data[x].s[s].c[c] = C64::new(re, im);
            }
        }
    }
    b
}

/// All 12 columns of a propagator from one source site, plus solve metadata.
#[derive(Clone)]
pub struct Propagator {
    /// `columns[spin_src * 3 + color_src]` = 4D solution field.
    pub columns: Vec<FermionField<f64>>,
    /// Source site (lexicographic).
    pub source_site: usize,
    /// Source time slice.
    pub source_time: usize,
}

impl Propagator {
    /// Matrix element `S(x)_{(s_snk, c_snk), (s_src, c_src)}`.
    #[inline]
    pub fn entry(&self, x: usize, s_snk: usize, c_snk: usize, s_src: usize, c_src: usize) -> C64 {
        self.columns[s_src * 3 + c_src].data[x].s[s_snk].c[c_snk]
    }

    /// The full 12×12 site matrix, indexed `[s_snk*3+c_snk][s_src*3+c_src]`.
    pub fn site_matrix(&self, x: usize) -> [[C64; 12]; 12] {
        let mut m = [[C64::zero(); 12]; 12];
        for sc_src in 0..12 {
            let sp = &self.columns[sc_src].data[x];
            for s in 0..4 {
                for c in 0..3 {
                    m[s * 3 + c][sc_src] = sp.s[s].c[c];
                }
            }
        }
        m
    }
}

/// The pipeline a [`SolverKind`] selects. A Möbius solver's f64 red–black
/// operator is built once, in [`PropagatorSolver::new`], and shared by
/// every column it solves.
enum Operator<'a> {
    /// 4D Wilson quarks of this bare mass.
    Wilson { mass: f64 },
    /// Möbius domain-wall quarks, with a mixed-precision inner solve when
    /// `mixed`.
    Mobius { prec: Box<Prec64<'a>>, mixed: bool },
}

/// The f64 red–black Möbius operator a solver shares across its columns.
type Prec64<'a> = PrecMobius<'a, f64, GaugeField<f64>>;

/// Propagator factory bound to a gauge configuration.
pub struct PropagatorSolver<'a> {
    lattice: &'a Lattice,
    gauge: &'a GaugeField<f64>,
    /// Single-precision copy of the gauge field for the mixed solver.
    gauge32: GaugeField<f32>,
    op: Operator<'a>,
    /// Stopping criteria.
    pub solve_params: CgParams,
}

impl<'a> PropagatorSolver<'a> {
    /// Bind to a configuration.
    pub fn new(lattice: &'a Lattice, gauge: &'a GaugeField<f64>, kind: SolverKind) -> Self {
        let op = match kind {
            SolverKind::WilsonPrecCgne { mass } => Operator::Wilson { mass },
            SolverKind::MobiusCgne { params } => Operator::Mobius {
                prec: Box::new(PrecMobius::new(lattice, gauge, params)),
                mixed: false,
            },
            SolverKind::MobiusMixed { params } => Operator::Mobius {
                prec: Box::new(PrecMobius::new(lattice, gauge, params)),
                mixed: true,
            },
        };
        Self {
            lattice,
            gauge,
            gauge32: gauge.cast(),
            op,
            solve_params: CgParams {
                tol: 1e-8,
                max_iter: 20_000,
            },
        }
    }

    /// The lattice.
    pub fn lattice(&self) -> &Lattice {
        self.lattice
    }

    /// Solve `D q = b` for one 4D source column, returning the 4D solution.
    /// The column's own loops spread over the whole pool.
    pub fn solve(&self, source: &FermionField<f64>) -> (FermionField<f64>, SolveStats) {
        assert_eq!(source.len(), self.lattice.volume());
        let (mut q, mut stats) = self.columns(1, |_, x| source.data[x]);
        match (q.pop(), stats.pop()) {
            (Some(q), Some(s)) => (q, s),
            _ => unreachable!("one column in, one column out"),
        }
    }

    /// The column driver of every propagator: `n` independent solves `D q_k
    /// = b_k`, `source(k, x)` the spinor of `b_k` at site `x`, run as `n`
    /// concurrent pool tasks. Each task's own parallel loops then run inline
    /// on its thread, so a column's bits are those of a lone [`Self::solve`]
    /// at any pool width; with `n = 1` the one task runs inline on the
    /// caller and its loops spread over the pool instead. The tasks share
    /// the solver's f64 operator (and one f64 normal operator); its scratch
    /// lock serializes only the source preparation, the reconstruction and
    /// the f64 applies of the true residuals. Each task builds its own f32
    /// operator, whose lock would otherwise serialize every inner iteration.
    /// The caller's ambient [`Registry`] is installed in every task, so each
    /// solve reports where a sequential loop would have reported it.
    pub(crate) fn columns(
        &self,
        n: usize,
        source: impl Fn(usize, usize) -> Spinor<f64> + Sync,
    ) -> (Vec<FermionField<f64>>, Vec<SolveStats>) {
        let registry = Registry::current();
        // The solutions are allocated here, on the calling thread, so only
        // a column's transient vectors live in a worker's heap.
        let empty = (
            FermionField::zeros(self.lattice.volume()),
            SolveStats::new(),
        );
        let mut slots = vec![empty; n];
        let mut run = |column: &(dyn Fn(usize, &mut [Spinor<f64>]) -> SolveStats + Sync)| {
            rayon::for_each_chunk_mut(&mut slots, 1, |k, slot| {
                let _ambient = registry.install_scoped();
                let (q, stats) = &mut slot[0];
                *stats = column(k, &mut q.data);
            });
        };
        match &self.op {
            Operator::Wilson { mass } => run(&|k, q| self.solve_wilson(*mass, |x| source(k, x), q)),
            Operator::Mobius { prec, mixed } => {
                let n64 = NormalOp::new(&**prec);
                run(&|k, q| self.solve_mobius(prec, &n64, *mixed, |x| source(k, x), q))
            }
        }
        slots.into_iter().unzip()
    }

    /// Red–black preconditioned Wilson solve into `q`, on the task's own
    /// operator.
    fn solve_wilson(
        &self,
        mass: f64,
        source: impl Fn(usize) -> Spinor<f64>,
        q: &mut [Spinor<f64>],
    ) -> SolveStats {
        let prec = PrecWilson::new(self.lattice, self.gauge, mass, true);
        let b: Vec<Spinor<f64>> = (0..self.lattice.volume()).map(source).collect();
        let (b_e, b_o) = prec.split(&b);
        let rhs = prec.prepare_source(&b_e, &b_o);
        let mut x_o = vec![Spinor::zero(); prec.vec_len()];
        let stats = cgne(&prec, &mut x_o, &rhs, self.solve_params);
        let x_e = prec.reconstruct_even(&b_e, &x_o);
        q.copy_from_slice(&prec.merge(&x_e, &x_o));
        stats
    }

    /// Red–black preconditioned Möbius solve into `q`, with wall
    /// injection/extraction. Neither the 5D source nor the 5D solution is
    /// ever held whole: the walls are written straight into (and read
    /// straight out of) the two checkerboards.
    fn solve_mobius(
        &self,
        prec: &Prec64<'a>,
        n64: &NormalOp<'_, f64, Prec64<'a>>,
        mixed: bool,
        source: impl Fn(usize) -> Spinor<f64>,
        q: &mut [Spinor<f64>],
    ) -> SolveStats {
        let lat = self.lattice;
        let (l5, hv) = (prec.params().l5, lat.half_volume());
        let rhs = prec.prepare_source(
            &inject(lat, l5, &source, Parity::Even),
            &inject(lat, l5, &source, Parity::Odd),
        );
        let mut x_o = vec![Spinor::zero(); prec.vec_len()];

        let stats = if mixed {
            let prec32 = PrecMobius::new(lat, &self.gauge32, *prec.params());
            let n32 = NormalOp::new(&prec32);
            // CGNE: mixed CG on M̂†M̂ x = M̂† rhs, reporting the residual of
            // the first-order system.
            solve_normal(prec, &mut x_o, &rhs, |x, ne_rhs| {
                mixed_cg(
                    n64,
                    &n32,
                    x,
                    ne_rhs,
                    MixedParams {
                        outer: self.solve_params,
                        ..MixedParams::default()
                    },
                )
            })
        } else {
            // CG iterates on the task's own operator: the shared one's lock
            // would serialize every iteration of the concurrent columns.
            let own = PrecMobius::new(lat, self.gauge, *prec.params());
            cgne(&own, &mut x_o, &rhs, self.solve_params)
        };

        let x_e = prec.reconstruct_even(&inject(lat, l5, &source, Parity::Even), &x_o);
        // Wall extraction of the 4D quark field.
        for (x, qx) in q.iter_mut().enumerate() {
            let half = match lat.parity(x) {
                Parity::Even => &x_e,
                Parity::Odd => &x_o,
            };
            let i = lat.cb_index(x);
            *qx = half[i].chiral_project(false) + half[(l5 - 1) * hv + i].chiral_project(true);
        }
        stats
    }

    /// All 12 columns from a point source at `site`.
    pub fn point_propagator(&self, site: usize) -> (Propagator, Vec<SolveStats>) {
        let (columns, stats) = self.columns(12, |sc, x| {
            if x == site {
                Spinor::unit(sc / 3, sc % 3)
            } else {
                Spinor::zero()
            }
        });
        for (sc, s) in stats.iter().enumerate() {
            let (spin, color) = (sc / 3, sc % 3);
            assert!(
                s.converged,
                "propagator column (spin {spin}, color {color}) did not converge: {s:?}"
            );
        }
        (
            Propagator {
                columns,
                source_site: site,
                source_time: self.lattice.time_of(site),
            },
            stats,
        )
    }

    /// Propagator whose columns are `D⁻¹ (Γ_ins S_col)` — the sequential
    /// ("Feynman–Hellmann") inversion through a current insertion summed over
    /// all spacetime. `insertion` is a dense spin matrix (e.g. `γ3 γ5`).
    pub fn sequential_propagator(
        &self,
        base: &Propagator,
        insertion: &crate::gamma::SpinMatrix<f64>,
    ) -> (Propagator, Vec<SolveStats>) {
        let (columns, stats) = self.columns(base.columns.len(), |k, x| {
            base.columns[k].data[x].apply_spin_matrix(insertion)
        });
        for s in &stats {
            assert!(s.converged, "sequential solve failed: {s:?}");
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

/// One checkerboard of the wall injection of a 4D source,
/// `B_s(y) = δ_{s,L5−1} P₋ b(y) + δ_{s,0} P₊ b(y)`, on the sites of `parity`.
/// The `s = 0` wall is `0 + P₊ b`, so an exact `−0` of `P₊ b` is stored as
/// `+0`.
fn inject(
    lattice: &Lattice,
    l5: usize,
    source: &impl Fn(usize) -> Spinor<f64>,
    parity: Parity,
) -> Vec<Spinor<f64>> {
    let sites = lattice.sites_with_parity(parity);
    let hv = sites.len();
    let mut b = vec![Spinor::zero(); l5 * hv];
    for (i, &x) in sites.iter().enumerate() {
        let s = source(x as usize);
        b[(l5 - 1) * hv + i] = s.chiral_project(false);
        b[i] += s.chiral_project(true);
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::dirac::WilsonDirac;
    use crate::gamma::gamma5_dense;

    fn small_setup() -> (Lattice, GaugeField<f64>) {
        let lat = Lattice::new([4, 4, 4, 8]);
        let mut ens = crate::gauge::QuenchedEnsemble::cold_start(
            &lat,
            crate::gauge::HeatbathParams { beta: 6.0, n_or: 1 },
            3,
        );
        for _ in 0..5 {
            ens.update();
        }
        (lat.clone(), ens.current().clone())
    }

    #[test]
    fn wilson_point_propagator_satisfies_dirac_equation() {
        let (lat, gauge) = small_setup();
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.3 });
        let b = point_source(&lat, 0, 2, 1);
        let (q, stats) = solver.solve(&b);
        assert!(stats.converged);
        // D q = b.
        let d = WilsonDirac::new(&lat, &gauge, 0.3, true);
        let mut dq = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut dq, &q.data);
        let diff = blas::sub(&dq, &b.data);
        assert!(blas::norm_sqr(&diff) < 1e-14);
    }

    #[test]
    fn wall_source_populates_one_time_slice() {
        let lat = Lattice::new([4, 4, 4, 8]);
        let b = wall_source(&lat, 3, 2, 1);
        let expect = lat.spatial_volume() as f64;
        assert_eq!(blas::norm_sqr(&b.data), expect);
        for x in 0..lat.volume() {
            let occupied = b.data[x].norm_sqr() > 0.0;
            assert_eq!(occupied, lat.time_of(x) == 3);
        }
    }

    #[test]
    fn z2_source_has_unit_magnitude_entries() {
        let lat = Lattice::new([4, 4, 4, 8]);
        let b = z2_noise_source(&lat, 0, 9);
        let b2 = z2_noise_source(&lat, 0, 9);
        assert_eq!(b.data, b2.data, "seeded reproducibility");
        for x in 0..lat.volume() {
            if lat.time_of(x) == 0 {
                for s in 0..4 {
                    for c in 0..3 {
                        let v = b.data[x].s[s].c[c];
                        assert_eq!(v.re.abs(), 1.0);
                        assert_eq!(v.im.abs(), 1.0);
                    }
                }
            }
        }
    }

    #[test]
    fn prec_wilson_column_solves_the_full_dirac_equation() {
        let (lat, gauge) = small_setup();
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.4 });
        let b = point_source(&lat, 7, 1, 0);
        let (q, stats) = solver.solve(&b);
        assert!(stats.converged);
        // The reconstructed full-lattice column satisfies D q = b.
        let d = WilsonDirac::new(&lat, &gauge, 0.4, true);
        let mut dq = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut dq, &q.data);
        let rel = blas::norm_sqr(&blas::sub(&dq, &b.data)) / blas::norm_sqr(&b.data);
        assert!(rel < 1e-14, "‖D q − b‖²/‖b‖² = {rel}");
    }

    #[test]
    fn mobius_solve_produces_nonzero_quark_field() {
        let (lat, gauge) = small_setup();
        let params = MobiusParams::standard(4, 0.1);
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::MobiusCgne { params });
        let b = point_source(&lat, 5, 0, 0);
        let (q, stats) = solver.solve(&b);
        assert!(stats.converged);
        assert!(blas::norm_sqr(&q.data) > 0.0);
    }

    #[test]
    fn mixed_and_double_mobius_solves_agree() {
        let (lat, gauge) = small_setup();
        let params = MobiusParams::standard(4, 0.2);
        let double = PropagatorSolver::new(&lat, &gauge, SolverKind::MobiusCgne { params });
        let mixed = PropagatorSolver::new(&lat, &gauge, SolverKind::MobiusMixed { params });
        let b = point_source(&lat, 3, 1, 2);
        let (q1, s1) = double.solve(&b);
        let (q2, s2) = mixed.solve(&b);
        assert!(s1.converged && s2.converged);
        assert!(s2.reliable_updates > 0, "mixed path must reliable-update");
        let diff = blas::sub(&q1.data, &q2.data);
        let rel = blas::norm_sqr(&diff) / blas::norm_sqr(&q1.data);
        assert!(rel < 1e-12, "precision paths disagree: {rel}");
    }

    #[test]
    fn propagator_gamma5_hermiticity_at_the_source() {
        // γ5 S(x,0) γ5 = S†(0,x): check the source-site block is hermitian
        // under γ5-conjugation (a nontrivial consistency of all 12 columns).
        let (lat, gauge) = small_setup();
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.4 });
        let (prop, _) = solver.point_propagator(0);
        let g5 = gamma5_dense();
        let m = prop.site_matrix(0);
        // Build γ5 M γ5 and compare with M†.
        for sc1 in 0..12 {
            for sc2 in 0..12 {
                let (s1, s2) = (sc1 / 3, sc2 / 3);
                let phase = g5.m[s1][s1] * g5.m[s2][s2];
                let lhs = m[sc1][sc2] * phase.to_c64();
                let rhs = m[sc2][sc1].conj();
                assert!(
                    (lhs - rhs).abs() < 1e-6,
                    "γ5-hermiticity of the source block fails at ({sc1},{sc2})"
                );
            }
        }
    }

    #[test]
    fn sequential_propagator_solves_through_insertion() {
        let (lat, gauge) = small_setup();
        let solver = PropagatorSolver::new(&lat, &gauge, SolverKind::WilsonPrecCgne { mass: 0.4 });
        let (prop, _) = solver.point_propagator(0);
        let ins = crate::gamma::gamma3_gamma5().cast::<f64>();
        let (seq, _) = solver.sequential_propagator(&prop, &ins);
        // D S_seq = Γ S: verify for one column.
        let d = WilsonDirac::new(&lat, &gauge, 0.4, true);
        let mut dq = vec![Spinor::zero(); lat.volume()];
        d.apply(&mut dq, &seq.columns[0].data);
        let expect: Vec<Spinor<f64>> = prop.columns[0]
            .data
            .iter()
            .map(|s| s.apply_spin_matrix(&ins))
            .collect();
        let diff = blas::sub(&dq, &expect);
        let rel = blas::norm_sqr(&diff) / blas::norm_sqr(&expect);
        assert!(rel < 1e-12);
    }
}
