//! `contract_io` — the CPU-only job type of the paper's Fig. 2: per
//! configuration directory, read two single-precision propagator bundles
//! (quark and Feynman–Hellmann), contract pion, proton and FH-nucleon
//! correlators, write the correlators; the terminal stage is the correlated
//! FH fit with a fit-window model average on the `a09m310` synthetic
//! ensemble, whose gA is known.
//!
//! No solver call: `core.contract`, `io` and `analysis` do all the work,
//! so a contraction or decode/CRC optimisation is visible here (they are
//! under 1% of `fh_small`). The bundles are synthetic (a decaying
//! colour-diagonal field plus seeded noise): contraction cost does not
//! depend on the field values. File I/O is served by the page cache.

use super::{file_len, re, Output, RoundOut, SetupArgs, Shape, Workload};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use lattice_io::{read_propagator, write_correlator, write_propagator, BundlePrecision};
use lqcd_analysis::{
    curve_fit_correlated, inverse_mean_covariance, jackknife_vector, model_average, FitSettings,
    SyntheticEnsemble, A09M310,
};
use lqcd_core::complex::C64;
use lqcd_core::gamma::polarized_projector;
use lqcd_core::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const N_CONFIGS: usize = 4;

pub struct ContractIo {
    lat: Lattice,
    dir: PathBuf,
    fit_seed: u64,
}

/// A synthetic propagator from the origin: colour- and spin-diagonal,
/// decaying with the distance in time, with 10% seeded noise on every
/// entry. `slope` multiplies by `(0.3 + slope*t)`, the shape an FH
/// propagator has relative to its quark propagator.
fn synthetic_propagator(lat: &Lattice, rng: &mut SplitMix64, slope: f64) -> Propagator {
    let nt = lat.nt();
    let columns = (0..12)
        .map(|col| {
            let mut f = FermionField::zeros(lat.volume());
            for (x, sp) in f.data.iter_mut().enumerate() {
                let t = lat.time_of(x);
                let dt = t.min(nt - t) as f64;
                let amp = (-0.35 * dt).exp() * (0.3 + slope * dt);
                for s in 0..4 {
                    for c in 0..3 {
                        let diag = if s * 3 + c == col { 1.0 } else { 0.0 };
                        sp.s[s].c[c] = C64::new(
                            amp * (diag + 0.1 * rng.next_signed()),
                            amp * 0.1 * rng.next_signed(),
                        );
                    }
                }
            }
            f
        })
        .collect();
    Propagator {
        columns,
        source_site: 0,
        source_time: 0,
    }
}

impl ContractIo {
    pub fn setup(args: &SetupArgs) -> Self {
        let dims = if args.quick {
            [4, 4, 4, 8]
        } else {
            [8, 8, 8, 16]
        };
        let lat = Lattice::new(dims);
        let mut rng = SplitMix64::new(args.seed, 3);
        for k in 0..N_CONFIGS {
            let dir = args.dir.join(format!("cfg_{k}"));
            std::fs::create_dir_all(&dir).expect("create configuration directory");
            for (file, slope) in [("prop.lqio", 0.0), ("fh.lqio", 1.2)] {
                let prop = synthetic_propagator(&lat, &mut rng, slope);
                write_propagator(
                    &dir.join(file),
                    &prop,
                    BundlePrecision::F32,
                    BTreeMap::new(),
                )
                .expect("write propagator bundle");
            }
        }
        let mut w = ContractIo {
            lat,
            dir: args.dir.to_path_buf(),
            fit_seed: rng.next_u64(),
        };
        // Warm-up slice: configuration 0 once through the whole chain.
        w.round(0, &mut Tracer::new());
        w
    }
}

impl Workload for ContractIo {
    fn items(&self) -> usize {
        N_CONFIGS
    }

    fn ops_per_round(&self) -> u64 {
        1 // one configuration contracted
    }

    fn round(&mut self, k: usize, tr: &mut Tracer) -> RoundOut {
        let mut out = RoundOut::default();
        let lat = &self.lat;
        let dir = self.dir.join(format!("cfg_{k}"));
        let (prop_path, fh_path) = (dir.join("prop.lqio"), dir.join("fh.lqio"));
        let prop = tr
            .call("io", "read_propagator", || read_propagator(&prop_path))
            .expect("read quark propagator bundle");
        let fh_prop = tr
            .call("io", "read_propagator", || read_propagator(&fh_path))
            .expect("read FH propagator bundle");

        let proj = polarized_projector();
        let pion = tr.call("core.contract", "pion", || pion_correlator(lat, &prop));
        let proton = tr.call("core.contract", "proton", || {
            proton_correlator(lat, &prop, &prop, &proj)
        });
        let cfh = tr.call("core.contract", "fh_nucleon", || {
            fh_nucleon_correlator(lat, &prop, &prop, &fh_prop, &fh_prop, &proj)
        });

        let mut written = 0.0;
        for (tag, corr) in [("proton", &proton), ("cfh", &cfh)] {
            let path = dir.join(format!("{tag}.lqio"));
            tr.call("io", "write_correlator", || {
                write_correlator(&path, corr, BTreeMap::new())
            })
            .expect("write correlator");
            written += file_len(&path);
        }

        out.attempted = 1;
        // The synthetic fields decay like a meson made of two quarks and a
        // baryon made of three: the proton correlator must fall faster.
        let (proton, cfh) = (re(&proton), re(&cfh));
        let fall = |c: &[f64]| (c[1] / c[2]).abs().ln();
        let sane = fall(&proton) > fall(&pion) && cfh.iter().all(|v| v.is_finite());
        out.failed = u64::from(!sane);
        out.facts
            .insert("io.read_bytes", file_len(&prop_path) + file_len(&fh_path));
        out.facts.insert("io.write_bytes", written);
        out.outputs = vec![
            Output::real("pion", pion),
            Output::real("proton", proton),
            Output::real("cfh", cfh),
        ];
        out
    }

    fn finish(&mut self, _items_done: usize, tr: &mut Tracer) -> RoundOut {
        let fit = synthetic_fit(self.fit_seed, tr);
        let within_4_sigma = fit.pull.abs() <= 4.0;
        let mut out = RoundOut {
            attempted: 1,
            failed: u64::from(!within_4_sigma),
            ..RoundOut::default()
        };
        out.outputs = vec![
            Output::real("ga", vec![fit.ga, fit.ga_err]),
            Output::real("ga_window_average", vec![fit.avg, fit.avg_err]),
            Output::real("chi2_per_dof", vec![fit.chi2_per_dof]),
        ];
        out
    }

    fn shape(&self) -> Shape {
        Shape {
            dims: self.lat.dims(),
            mobius: MobiusParams::standard(4, 0.3),
        }
    }
}

/// Result of the terminal analysis stage.
pub struct FitSummary {
    pub ga: f64,
    pub ga_err: f64,
    pub avg: f64,
    pub avg_err: f64,
    pub chi2_per_dof: f64,
    /// `(ga − truth) / ga_err` against the model's gA.
    pub pull: f64,
    pub jackknife_s: f64,
    pub fit_s: f64,
}

/// The paper's terminal fit on a synthetic `a09m310` ensemble drawn from
/// `seed`: jackknifed `g_eff(t)`, a correlated fit of
/// `gA + b·exp(−ΔE·t)` over `t ∈ [2, 10]`, and the Akaike-weighted average
/// over fit windows. Also the `analysis` probe of every traced run.
pub fn synthetic_fit(seed: u64, tr: &mut Tracer) -> FitSummary {
    let model = A09M310;
    let (n_configs, t_max) = (400, 14);
    let ens = model.generate(n_configs, t_max, seed);

    let t0 = tr.now();
    let id = tr.enter("analysis", "jackknife");
    let idx: Vec<usize> = (0..n_configs).collect();
    let est = jackknife_vector(&idx, |ii| {
        let c2: Vec<Vec<f64>> = ii.iter().map(|&i| ens.c2pt[i].clone()).collect();
        let cf: Vec<Vec<f64>> = ii.iter().map(|&i| ens.cfh[i].clone()).collect();
        SyntheticEnsemble::effective_ga_of(&c2, &cf)
    });
    tr.exit(id);
    let t1 = tr.now();

    let id = tr.enter("analysis", "fit");
    let window: Vec<usize> = (2..=10).collect();
    let xs: Vec<f64> = window.iter().map(|&t| t as f64).collect();
    let ys: Vec<f64> = window.iter().map(|&t| est[t].mean).collect();
    // Per-configuration g_eff samples give the covariance of the mean.
    let samples: Vec<Vec<f64>> = (0..n_configs)
        .map(|i| {
            let r = |t: usize| ens.cfh[i][t] / ens.c2pt[i][t];
            window.iter().map(|&t| r(t + 1) - r(t)).collect()
        })
        .collect();
    let inv_cov = inverse_mean_covariance(&samples, 0.1).expect("shrunk covariance inverts");
    let de = model.de;
    let form = move |x: f64, p: &[f64]| p[0] + p[1] * (-de * x).exp();
    let p0 = [1.2, -0.3];
    let fit = curve_fit_correlated(&xs, &ys, &inv_cov, form, &p0, &FitSettings::default());

    let all: Vec<usize> = (1..=10).collect();
    let xa: Vec<f64> = all.iter().map(|&t| t as f64).collect();
    let ya: Vec<f64> = all.iter().map(|&t| est[t].mean).collect();
    let sa: Vec<f64> = all.iter().map(|&t| est[t].error.max(1e-9)).collect();
    let avg = model_average(&xa, &ya, &sa, form, &p0, 0..6, 6, 0);
    tr.exit(id);
    let t2 = tr.now();

    FitSummary {
        ga: fit.params[0],
        ga_err: fit.errors[0],
        avg: avg.value,
        avg_err: avg.error,
        chi2_per_dof: fit.chi2_per_dof(),
        pull: (fit.params[0] - model.ga) / fit.errors[0],
        jackknife_s: t1 - t0,
        fit_s: t2 - t1,
    }
}
