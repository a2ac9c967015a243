//! Quenched gauge-field generation for the Wilson plaquette action.
//!
//! The paper consumes externally produced ensembles of "gluonic field
//! configurations" (the Monte Carlo samples that dictate how the quarks
//! move). We have no access to the MILC HISQ ensembles, so this module
//! generates real quenched SU(3) ensembles with the standard Cabibbo–Marinari
//! pseudo-heat-bath (Kennedy–Pendleton SU(2) subgroup sampling) plus
//! microcanonical overrelaxation. The update exploits the same red–black
//! structure as the solver: all sites of one parity and one direction update
//! in parallel.

use crate::blas::collect_chunked;
use crate::complex::Complex;
use crate::field::GaugeField;
use crate::lattice::{Lattice, Parity, ND};
use crate::su3::{Su3, NC};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The three SU(2) subgroups of SU(3) used by Cabibbo–Marinari.
const SUBGROUPS: [(usize, usize); 3] = [(0, 1), (0, 2), (1, 2)];

/// Parameters of the quenched update.
#[derive(Clone, Copy, Debug)]
pub struct HeatbathParams {
    /// Wilson gauge coupling β = 6/g².
    pub beta: f64,
    /// Overrelaxation sweeps per heat-bath sweep.
    pub n_or: usize,
}

impl Default for HeatbathParams {
    fn default() -> Self {
        Self { beta: 5.7, n_or: 3 }
    }
}

/// Sum of the six staples around link `(x, mu)`, oriented so the local
/// action is `−β/3 · Re Tr[U_μ(x) Σ]`.
fn staple_sum(lat: &Lattice, gauge: &GaugeField<f64>, x: usize, mu: usize) -> Su3<f64> {
    let mut sum = Su3::zero();
    let nb = lat.neighbors(x);
    for nu in 0..ND {
        if nu == mu {
            continue;
        }
        let x_mu = nb.fwd[mu] as usize;
        let x_nu = nb.fwd[nu] as usize;
        // Forward staple: U_ν(x+μ̂) U_μ†(x+ν̂) U_ν†(x).
        let fwd = gauge.link(x_mu, nu) * gauge.link(x_nu, mu).dagger() * gauge.link(x, nu).dagger();
        sum += fwd;
        // Backward staple: U_ν†(x+μ̂−ν̂) U_μ†(x−ν̂) U_ν(x−ν̂).
        let x_dn_nu = nb.bwd[nu] as usize;
        let x_mu_dn_nu = lat.neighbors(x_mu).bwd[nu] as usize;
        let bwd = gauge.link(x_mu_dn_nu, nu).dagger()
            * gauge.link(x_dn_nu, mu).dagger()
            * gauge.link(x_dn_nu, nu);
        sum += bwd;
    }
    sum
}

use crate::field::GaugeLinks;

/// Average plaquette `⟨Re Tr U_{μν}⟩ / 3` over all sites and planes.
pub fn average_plaquette(lat: &Lattice, gauge: &GaugeField<f64>) -> f64 {
    let total = crate::reduce::sum_sites(lat.volume(), |x| {
        let nb = lat.neighbors(x);
        let mut acc = 0.0;
        for mu in 0..ND {
            for nu in (mu + 1)..ND {
                let x_mu = nb.fwd[mu] as usize;
                let x_nu = nb.fwd[nu] as usize;
                let p = gauge.link(x, mu)
                    * gauge.link(x_mu, nu)
                    * gauge.link(x_nu, mu).dagger()
                    * gauge.link(x, nu).dagger();
                acc += p.re_trace() / NC as f64;
            }
        }
        acc
    });
    total / (lat.volume() as f64 * 6.0)
}

/// A unit quaternion representing an SU(2) element
/// `a0 + i (a1 σ1 + a2 σ2 + a3 σ3)`.
#[derive(Clone, Copy, Debug)]
struct Quat {
    a: [f64; 4],
}

impl Quat {
    fn conj(self) -> Self {
        Self {
            a: [self.a[0], -self.a[1], -self.a[2], -self.a[3]],
        }
    }

    fn mul(self, o: Self) -> Self {
        let [a0, a1, a2, a3] = self.a;
        let [b0, b1, b2, b3] = o.a;
        Self {
            a: [
                a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
                a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
                a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
            ],
        }
    }
}

/// Extract the SU(2)-projected part of the 2×2 submatrix `(i, j)` of `w`.
/// Returns the quaternion components (unnormalized) of
/// `½ (w − w† + Tr(w†) 1)` restricted to the subgroup.
fn project_su2(w: &Su3<f64>, i: usize, j: usize) -> [f64; 4] {
    let w00 = w.m[i][i];
    let w01 = w.m[i][j];
    let w10 = w.m[j][i];
    let w11 = w.m[j][j];
    [
        0.5 * (w00.re + w11.re),
        0.5 * (w01.im + w10.im),
        0.5 * (w01.re - w10.re),
        0.5 * (w00.im - w11.im),
    ]
}

/// Embed an SU(2) quaternion into the `(i, j)` subgroup of SU(3).
fn embed_su2(q: Quat, i: usize, j: usize) -> Su3<f64> {
    let mut u = Su3::identity();
    let [a0, a1, a2, a3] = q.a;
    u.m[i][i] = Complex::new(a0, a3);
    u.m[i][j] = Complex::new(a2, a1);
    u.m[j][i] = Complex::new(-a2, a1);
    u.m[j][j] = Complex::new(a0, -a3);
    u
}

/// Kennedy–Pendleton sampling of `x0 = cos θ` with density
/// `∝ √(1−x0²) exp(α x0)`, plus a uniform direction for the vector part.
fn kp_sample(rng: &mut SmallRng, alpha: f64) -> Quat {
    let x0 = if alpha < 1e-10 {
        // α → 0: rejection-sample the semicircle density directly.
        loop {
            let x: f64 = rng.gen::<f64>() * 2.0 - 1.0;
            if rng.gen::<f64>() * rng.gen::<f64>() <= 1.0 - x * x {
                break x;
            }
        }
    } else {
        loop {
            let r1: f64 = rng.gen::<f64>().max(1e-300);
            let r2: f64 = rng.gen();
            let r3: f64 = rng.gen::<f64>().max(1e-300);
            let c = (2.0 * std::f64::consts::PI * r2).cos();
            let lambda2 = -(r1.ln() + c * c * r3.ln()) / (2.0 * alpha);
            let r4: f64 = rng.gen();
            if r4 * r4 <= 1.0 - lambda2 {
                break 1.0 - 2.0 * lambda2;
            }
        }
    };
    // Uniform direction on the 2-sphere for the vector part.
    let norm = (1.0 - x0 * x0).max(0.0).sqrt();
    let cos_t = rng.gen::<f64>() * 2.0 - 1.0;
    let sin_t = (1.0 - cos_t * cos_t).sqrt();
    let phi = 2.0 * std::f64::consts::PI * rng.gen::<f64>();
    Quat {
        a: [
            x0,
            norm * sin_t * phi.cos(),
            norm * sin_t * phi.sin(),
            norm * cos_t,
        ],
    }
}

/// One subgroup update of a single link, shared by heat bath and
/// overrelaxation.
fn update_link(
    link: &mut Su3<f64>,
    staple: &Su3<f64>,
    beta: f64,
    rng: &mut SmallRng,
    overrelax: bool,
) {
    for &(i, j) in &SUBGROUPS {
        let w = *link * *staple;
        let proj = project_su2(&w, i, j);
        let k = (proj.iter().map(|a| a * a).sum::<f64>()).sqrt();
        if k < 1e-14 {
            continue; // staple orthogonal to this subgroup; nothing to do
        }
        let v = Quat {
            a: [proj[0] / k, proj[1] / k, proj[2] / k, proj[3] / k],
        };
        let g = if overrelax {
            // Microcanonical reflection: g = V†², preserves Re Tr(U Σ).
            v.conj().mul(v.conj())
        } else {
            // Heat bath: g = u V† with u ~ KP at α = 2kβ/Nc.
            let alpha = 2.0 * k * beta / NC as f64;
            kp_sample(rng, alpha).mul(v.conj())
        };
        *link = embed_su2(g, i, j) * *link;
    }
}

/// One full sweep (all parities × directions) of heat bath or overrelaxation.
fn sweep(
    lat: &Lattice,
    gauge: &mut GaugeField<f64>,
    beta: f64,
    seed: u64,
    sweep_idx: u64,
    overrelax: bool,
) {
    for parity in [Parity::Even, Parity::Odd] {
        for mu in 0..ND {
            // Compute the updated links for this (parity, mu) in parallel
            // against the frozen field — staples of same-parity links never
            // reference same-parity `mu`-links — then write them back.
            let sites = lat.sites_with_parity(parity);
            let frozen = &*gauge;
            let updated = collect_chunked(sites.len(), |k| {
                let x = sites[k] as usize;
                let st = staple_sum(lat, frozen, x, mu);
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ sweep_idx.wrapping_mul(0x9E3779B97F4A7C15)
                        ^ ((x as u64 * ND as u64 + mu as u64).wrapping_mul(0xBF58476D1CE4E5B9))
                        ^ if overrelax { 0x5555_5555 } else { 0 },
                );
                let mut link = frozen.link(x, mu);
                update_link(&mut link, &st, beta, &mut rng, overrelax);
                link
            });
            for (&x, link) in sites.iter().zip(updated) {
                *gauge.link_mut(x as usize, mu) = link;
            }
        }
    }
}

/// A quenched ensemble generator.
///
/// Produces a stream of decorrelated configurations: `n_therm` initial
/// sweeps, then `n_skip` sweeps between saved configurations, each "sweep"
/// being one heat-bath pass plus `n_or` overrelaxation passes.
pub struct QuenchedEnsemble {
    lattice: Lattice,
    gauge: GaugeField<f64>,
    params: HeatbathParams,
    seed: u64,
    sweeps_done: u64,
    /// Plaquette value after each completed update cycle.
    pub plaquette_history: Vec<f64>,
}

impl QuenchedEnsemble {
    /// Start from a hot (random) configuration.
    pub fn hot_start(lattice: &Lattice, params: HeatbathParams, seed: u64) -> Self {
        Self {
            lattice: lattice.clone(),
            gauge: GaugeField::hot(lattice, seed),
            params,
            seed,
            sweeps_done: 0,
            plaquette_history: Vec::new(),
        }
    }

    /// Start from a cold (unit) configuration.
    pub fn cold_start(lattice: &Lattice, params: HeatbathParams, seed: u64) -> Self {
        Self {
            lattice: lattice.clone(),
            gauge: GaugeField::cold(lattice),
            params,
            seed,
            sweeps_done: 0,
            plaquette_history: Vec::new(),
        }
    }

    /// The current configuration.
    pub fn current(&self) -> &GaugeField<f64> {
        &self.gauge
    }

    /// Run one update cycle (1 heat-bath + `n_or` overrelaxation sweeps) and
    /// record the plaquette.
    pub fn update(&mut self) {
        sweep(
            &self.lattice,
            &mut self.gauge,
            self.params.beta,
            self.seed,
            self.sweeps_done,
            false,
        );
        self.sweeps_done += 1;
        for _ in 0..self.params.n_or {
            sweep(
                &self.lattice,
                &mut self.gauge,
                self.params.beta,
                self.seed,
                self.sweeps_done,
                true,
            );
            self.sweeps_done += 1;
        }
        // Control rounding drift from repeated group multiplications.
        if self.sweeps_done % 32 < (1 + self.params.n_or) as u64 {
            self.gauge.reunitarize();
        }
        self.plaquette_history
            .push(average_plaquette(&self.lattice, &self.gauge));
    }

    /// Thermalize with `n_therm` cycles, then emit `n_configs` configurations
    /// separated by `n_skip` cycles each.
    pub fn generate(
        &mut self,
        n_therm: usize,
        n_configs: usize,
        n_skip: usize,
    ) -> Vec<GaugeField<f64>> {
        for _ in 0..n_therm {
            self.update();
        }
        let mut configs = Vec::with_capacity(n_configs);
        for _ in 0..n_configs {
            for _ in 0..n_skip.max(1) {
                self.update();
            }
            configs.push(self.gauge.clone());
        }
        configs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plaquette_of_cold_gauge_is_one() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let g = GaugeField::<f64>::cold(&lat);
        assert!((average_plaquette(&lat, &g) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn plaquette_of_hot_gauge_is_near_zero() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let g = GaugeField::<f64>::hot(&lat, 5);
        assert!(average_plaquette(&lat, &g).abs() < 0.1);
    }

    #[test]
    fn heatbath_preserves_group_manifold() {
        let lat = Lattice::new([4, 4, 2, 2]);
        let mut ens = QuenchedEnsemble::hot_start(&lat, HeatbathParams::default(), 7);
        for _ in 0..3 {
            ens.update();
        }
        assert!(ens.current().max_unitarity_error() < 1e-9);
    }

    #[test]
    fn strong_coupling_gives_small_plaquette_weak_coupling_large() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let mut strong =
            QuenchedEnsemble::hot_start(&lat, HeatbathParams { beta: 0.5, n_or: 1 }, 11);
        let mut weak = QuenchedEnsemble::cold_start(
            &lat,
            HeatbathParams {
                beta: 12.0,
                n_or: 1,
            },
            11,
        );
        for _ in 0..10 {
            strong.update();
            weak.update();
        }
        let ps = strong.plaquette_history.last().copied().unwrap();
        let pw = weak.plaquette_history.last().copied().unwrap();
        assert!(ps < 0.25, "strong coupling plaquette {ps}");
        // Leading weak-coupling expansion: ⟨P⟩ ≈ 1 − 2/β = 0.833 at β = 12.
        assert!(
            (pw - (1.0 - 2.0 / 12.0)).abs() < 0.04,
            "weak coupling plaquette {pw}"
        );
    }

    #[test]
    fn beta_5_7_plaquette_matches_literature() {
        // Quenched Wilson action at β = 5.7 has ⟨P⟩ ≈ 0.549 in the
        // thermodynamic limit; a 4⁴ box lands close enough for a loose check.
        let lat = Lattice::new([4, 4, 4, 4]);
        let mut ens = QuenchedEnsemble::cold_start(&lat, HeatbathParams { beta: 5.7, n_or: 2 }, 13);
        for _ in 0..40 {
            ens.update();
        }
        let tail = &ens.plaquette_history[20..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(
            (0.50..0.62).contains(&mean),
            "β=5.7 plaquette {mean} outside literature band"
        );
    }

    #[test]
    fn hot_and_cold_starts_converge_to_same_plaquette() {
        let lat = Lattice::new([4, 4, 4, 4]);
        let p = HeatbathParams { beta: 5.9, n_or: 2 };
        let mut hot = QuenchedEnsemble::hot_start(&lat, p, 17);
        let mut cold = QuenchedEnsemble::cold_start(&lat, p, 19);
        for _ in 0..30 {
            hot.update();
            cold.update();
        }
        let ph: f64 = hot.plaquette_history[20..].iter().sum::<f64>() / 10.0;
        let pc: f64 = cold.plaquette_history[20..].iter().sum::<f64>() / 10.0;
        assert!(
            (ph - pc).abs() < 0.05,
            "hot {ph} and cold {pc} should agree after thermalization"
        );
    }

    #[test]
    fn generate_returns_requested_configs() {
        let lat = Lattice::new([2, 2, 2, 4]);
        let mut ens = QuenchedEnsemble::hot_start(&lat, HeatbathParams::default(), 23);
        let configs = ens.generate(2, 3, 2);
        assert_eq!(configs.len(), 3);
        // Successive configs must differ (the chain is moving).
        assert_ne!(configs[0].links()[3], configs[1].links()[3]);
    }

    #[test]
    fn overrelaxation_preserves_action_approximately() {
        let lat = Lattice::new([4, 4, 2, 2]);
        let mut ens = QuenchedEnsemble::hot_start(&lat, HeatbathParams { beta: 5.7, n_or: 0 }, 29);
        for _ in 0..10 {
            ens.update();
        }
        let before = average_plaquette(&lat, ens.current());
        let mut g = ens.current().clone();
        sweep(&lat, &mut g, 5.7, 31, 999, true);
        let after = average_plaquette(&lat, &g);
        // One OR sweep is microcanonical per link but the field changes as
        // the sweep proceeds; the plaquette should stay within a few percent.
        assert!(
            (before - after).abs() < 0.02,
            "OR changed plaquette too much: {before} -> {after}"
        );
    }
}
