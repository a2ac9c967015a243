//! `fh_small` — the paper's production path, whole, on a lattice whose
//! every vector fits in L2: per configuration `read_gauge` → mixed-precision
//! red–black Möbius point propagator (12 columns) → Feynman–Hellmann
//! sequential propagator (12 columns) → pion, proton and FH-nucleon
//! contractions → propagator bundle and correlator files; terminal stage
//! jackknifes the effective coupling over the configurations done.
//!
//! It is bound by per-iteration latency, allocation and fifth-dimension
//! algebra rather than bandwidth, and is the thing a user waits for.

use super::{file_len, re, Output, RoundOut, SetupArgs, Shape, Workload};
use crate::rng::{SplitMix64, ENSEMBLE_SEED};
use crate::trace::Tracer;
use lattice_io::{read_gauge, write_correlator, write_gauge, write_propagator, BundlePrecision};
use lqcd_analysis::jackknife_vector;
use lqcd_core::complex::C64;
use lqcd_core::gamma::polarized_projector;
use lqcd_core::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const BETA: f64 = 6.0;

struct Correlators {
    pion: Vec<f64>,
    proton: Vec<f64>,
    cfh: Vec<f64>,
}

pub struct FhSmall {
    lat: Lattice,
    params: MobiusParams,
    dir: PathBuf,
    /// Point-source site per configuration, drawn from the seed.
    sites: Vec<usize>,
    plaquettes: Vec<f64>,
    done: Vec<Option<Correlators>>,
}

impl FhSmall {
    pub fn setup(args: &SetupArgs) -> Self {
        let dims = if args.quick {
            [4, 2, 2, 8]
        } else {
            [4, 4, 4, 8]
        };
        let n_configs = if args.quick { 2 } else { 3 };
        let lat = Lattice::new(dims);
        let params = MobiusParams::standard(4, 0.3);
        let mut rng = SplitMix64::new(args.seed, 1);

        let mut ens = QuenchedEnsemble::cold_start(
            &lat,
            HeatbathParams {
                beta: BETA,
                n_or: 2,
            },
            ENSEMBLE_SEED,
        );
        let configs = ens.generate(10, n_configs, 5);
        let mut plaquettes = Vec::new();
        for (k, gauge) in configs.iter().enumerate() {
            plaquettes.push(average_plaquette(&lat, gauge));
            let mut md = BTreeMap::new();
            md.insert("beta".to_string(), BETA.to_string());
            write_gauge(&args.dir.join(format!("cfg_{k}.lqio")), &lat, gauge, md)
                .expect("write gauge configuration");
        }
        let sites = (0..n_configs).map(|_| rng.below(lat.volume())).collect();

        // Warm-up slice: one column of configuration 0 through the solver.
        let solver = PropagatorSolver::new(&lat, &configs[0], SolverKind::MobiusMixed { params });
        let (_, stats) = solver.solve(&point_source(&lat, 0, 0, 0));
        assert!(
            stats.converged,
            "warm-up column did not converge: {stats:?}"
        );

        FhSmall {
            lat,
            params,
            dir: args.dir.to_path_buf(),
            sites,
            plaquettes,
            done: (0..n_configs).map(|_| None).collect(),
        }
    }
}

impl Workload for FhSmall {
    fn items(&self) -> usize {
        self.sites.len()
    }

    fn min_rounds(&self) -> usize {
        2 // the jackknife needs two configurations
    }

    fn ops_per_round(&self) -> u64 {
        24 // column solves: 12 point-source + 12 sequential
    }

    fn round(&mut self, k: usize, tr: &mut Tracer) -> RoundOut {
        let mut out = RoundOut::default();
        let lat = &self.lat;
        let gauge_path = self.dir.join(format!("cfg_{k}.lqio"));
        let gauge = tr
            .call("io", "read_gauge", || read_gauge(&gauge_path, lat))
            .expect("read gauge configuration");

        let kind = SolverKind::MobiusMixed {
            params: self.params,
        };
        let solver = tr.call("core.prop", "gauge_cast", || {
            PropagatorSolver::new(lat, &gauge, kind)
        });
        let (prop, stats) = tr.call("core.prop", "solve", || {
            solver.point_propagator(self.sites[k])
        });
        let fh = FeynmanHellmann::axial(&solver);
        let (fh_prop, fh_stats) = tr.call("core.fh", "fh_propagator", || fh.fh_propagator(&prop));

        let proj = polarized_projector();
        let pion = tr.call("core.contract", "pion", || pion_correlator(lat, &prop));
        let proton = tr.call("core.contract", "proton", || {
            re(&proton_correlator(lat, &prop, &prop, &proj))
        });
        let cfh = tr.call("core.contract", "fh_nucleon", || {
            re(&fh_nucleon_correlator(
                lat, &prop, &prop, &fh_prop, &fh_prop, &proj,
            ))
        });

        let prop_path = self.dir.join(format!("prop_{k}.lqio"));
        tr.call("io", "write_propagator", || {
            write_propagator(&prop_path, &prop, BundlePrecision::F32, BTreeMap::new())
        })
        .expect("write propagator bundle");
        let corr_paths = [("proton", &proton), ("cfh", &cfh)].map(|(tag, corr)| {
            let path = self.dir.join(format!("{tag}_{k}.lqio"));
            let complex: Vec<C64> = corr.iter().map(|&r| C64::new(r, 0.0)).collect();
            tr.call("io", "write_correlator", || {
                write_correlator(&path, &complex, BTreeMap::new())
            })
            .expect("write correlator");
            path
        });

        let tol = solver.solve_params.tol;
        let mut iterations = Vec::new();
        for s in stats.iter().chain(&fh_stats) {
            out.count_solve(s, tol);
            iterations.push(s.iterations as f64);
        }
        let plaq = self.plaquettes[k];
        if !(0.45..0.75).contains(&plaq) {
            out.problems
                .push(format!("config {k}: plaquette {plaq} outside 0.45..0.75"));
        }
        out.facts
            .insert("solver.item0_iterations", iterations.iter().sum());
        out.facts.insert("io.read_bytes", file_len(&gauge_path));
        out.facts.insert(
            "io.write_bytes",
            file_len(&prop_path) + corr_paths.iter().map(|p| file_len(p)).sum::<f64>(),
        );
        out.outputs = vec![
            Output::real("plaquette", vec![plaq]),
            Output::real("pion", pion.clone()),
            Output::real("proton", proton.clone()),
            Output::real("cfh", cfh.clone()),
            Output::count("iterations", iterations),
        ];
        self.done[k] = Some(Correlators { pion, proton, cfh });
        out
    }

    fn finish(&mut self, items_done: usize, tr: &mut Tracer) -> RoundOut {
        let rows: Vec<&Correlators> = self.done[..items_done]
            .iter()
            .map(|c| c.as_ref().expect("a visited configuration has correlators"))
            .collect();
        let nt = self.lat.nt();
        let idx: Vec<usize> = (0..rows.len()).collect();
        let mean = |ii: &[usize], pick: fn(&Correlators) -> &Vec<f64>, t: usize| -> f64 {
            ii.iter().map(|&i| pick(rows[i])[t]).sum::<f64>() / ii.len() as f64
        };
        let eff_mass = |pick: fn(&Correlators) -> &Vec<f64>| {
            jackknife_vector(&idx, |ii| {
                (0..nt - 1)
                    .map(|t| (mean(ii, pick, t).abs() / mean(ii, pick, t + 1).abs()).ln())
                    .collect()
            })
        };
        let id = tr.enter("analysis", "jackknife");
        let m_pion = eff_mass(|c| &c.pion);
        let m_proton = eff_mass(|c| &c.proton);
        let geff = jackknife_vector(&idx, |ii| {
            let r: Vec<f64> = (0..nt)
                .map(|t| mean(ii, |c| &c.cfh, t) / mean(ii, |c| &c.proton, t))
                .collect();
            (0..nt - 1).map(|t| r[t + 1] - r[t]).collect()
        });
        tr.exit(id);

        let mut out = RoundOut::default();
        if !(m_pion[1].mean > 0.0 && m_proton[1].mean > m_pion[1].mean) {
            out.problems.push(format!(
                "m_proton {} is not above m_pion {}",
                m_proton[1].mean, m_pion[1].mean
            ));
        }
        if geff[..3].iter().any(|g| !g.mean.is_finite()) {
            out.problems
                .push("g_eff is not finite in the early window".into());
        }
        out.outputs = vec![
            Output::real("geff", geff.iter().map(|e| e.mean).collect()),
            Output::real("m_pion", m_pion.iter().map(|e| e.mean).collect()),
            Output::real("m_proton", m_proton.iter().map(|e| e.mean).collect()),
        ];
        out
    }

    fn shape(&self) -> Shape {
        Shape {
            dims: self.lat.dims(),
            mobius: self.params,
        }
    }
}
