//! `mobius_large` — solver only, on a lattice whose half-checkerboard
//! vectors do not fit in L2: one heat-bath configuration loaded from disk,
//! point-source columns through the same mixed-precision Möbius path as
//! `fh_small` but with `L5 = 8`.
//!
//! The CG working set (five or more 1.5–3 MiB vectors) streams from the
//! last-level cache on every iteration, so a byte-saving change (16-bit
//! storage, fused passes) shows here and barely on `fh_small`, while an
//! allocation or latency change shows the other way round.

use super::{Output, RoundOut, SetupArgs, Shape, Workload};
use crate::rng::{SplitMix64, ENSEMBLE_SEED};
use crate::trace::Tracer;
use lattice_io::{read_gauge, write_gauge};
use lqcd_core::prelude::*;
use std::collections::BTreeMap;

const COLUMNS: usize = 4;

pub struct MobiusLarge {
    lat: Lattice,
    params: MobiusParams,
    gauge: GaugeField<f64>,
    plaquette: f64,
    site: usize,
}

impl MobiusLarge {
    pub fn setup(args: &SetupArgs) -> Self {
        let dims = if args.quick {
            [4, 4, 4, 8]
        } else {
            [8, 8, 8, 8]
        };
        let lat = Lattice::new(dims);
        let params = MobiusParams::standard(8, 0.3);
        let mut rng = SplitMix64::new(args.seed, 2);

        let mut ens = QuenchedEnsemble::cold_start(
            &lat,
            HeatbathParams { beta: 6.0, n_or: 2 },
            ENSEMBLE_SEED,
        );
        for _ in 0..10 {
            ens.update();
        }
        let path = args.dir.join("cfg.lqio");
        write_gauge(&path, &lat, ens.current(), BTreeMap::new()).expect("write gauge");
        let gauge = read_gauge(&path, &lat).expect("read gauge back");
        let site = rng.below(lat.volume());

        // Warm-up slice: a few iterations of one column (pool threads up,
        // allocator arenas grown); convergence is not the point.
        let mut solver = PropagatorSolver::new(&lat, &gauge, SolverKind::MobiusMixed { params });
        solver.solve_params.max_iter = 8;
        std::hint::black_box(solver.solve(&point_source(&lat, site, 0, 0)));

        MobiusLarge {
            plaquette: average_plaquette(&lat, &gauge),
            lat,
            params,
            gauge,
            site,
        }
    }
}

impl Workload for MobiusLarge {
    fn items(&self) -> usize {
        COLUMNS
    }

    fn ops_per_round(&self) -> u64 {
        1 // one column solve
    }

    fn round(&mut self, column: usize, tr: &mut Tracer) -> RoundOut {
        let mut out = RoundOut::default();
        let lat = &self.lat;
        let kind = SolverKind::MobiusMixed {
            params: self.params,
        };
        let solver = tr.call("core.prop", "gauge_cast", || {
            PropagatorSolver::new(lat, &self.gauge, kind)
        });
        // Columns (spin, colour) = (0,0) (1,1) (2,2) (3,0).
        let source = point_source(lat, self.site, column, column % 3);
        let (q, stats) = tr.call("core.prop", "solve", || solver.solve(&source));

        out.count_solve(&stats, solver.solve_params.tol);
        if !(0.45..0.75).contains(&self.plaquette) {
            out.problems
                .push(format!("plaquette {} outside 0.45..0.75", self.plaquette));
        }
        // Time-sliced norm of the column: its contribution to the pion
        // correlator, checked like one.
        let mut slices = vec![0.0; lat.nt()];
        for (x, sp) in q.data.iter().enumerate() {
            slices[lat.time_of(x)] += sp.norm_sqr();
        }
        out.facts
            .insert("solver.item0_iterations", stats.iterations as f64);
        out.outputs = vec![
            Output::real("plaquette", vec![self.plaquette]),
            Output::real("column_norm_by_t", slices),
            Output::count("iterations", vec![stats.iterations as f64]),
            Output::count("reliable_updates", vec![stats.reliable_updates as f64]),
        ];
        out
    }

    fn finish(&mut self, _items_done: usize, _tr: &mut Tracer) -> RoundOut {
        RoundOut::default()
    }

    fn shape(&self) -> Shape {
        Shape {
            dims: self.lat.dims(),
            mobius: self.params,
        }
    }
}
