//! `sharded_ft` — the fault-tolerant sharded solve: `Backend::solve_sharded`
//! (Möbius `L5 = 4` on the 2x2x1x1 rank grid, double-precision tolerance)
//! on a clean wire, then the same system under the `mild` wire-fault
//! profile of the chaos sweep.
//!
//! The only workload where `core.comms` pack/exchange/unpack, CRC framing,
//! retransmit and checkpoint-restore run; the clean and the faulty half use
//! the layer two ways, and the faulty solution must equal the clean one bit
//! for bit.

use super::{Output, RoundOut, SetupArgs, Shape, Workload};
use crate::rng::SplitMix64;
use crate::trace::Tracer;
use lqcd_core::blas;
use lqcd_core::comms::CommFaultProfile;
use lqcd_core::prelude::MobiusParams;
use solve_service::{Backend, BackendConfig, Precision, SolveResult};

const N_SYSTEMS: usize = 4;
const MASS: f64 = 0.5;

/// The `mild` intensity of the chaos sweep: every fault class active, all
/// healable by the NACK/retransmit layer.
pub fn mild_faults(seed: u64) -> CommFaultProfile {
    CommFaultProfile {
        corrupt_prob: 0.03,
        drop_prob: 0.03,
        duplicate_prob: 0.025,
        reorder_prob: 0.025,
        delay_prob: 0.05,
        seed,
        ..CommFaultProfile::default()
    }
}

/// Lattice of the service backend (both service workloads and the probes).
pub fn service_dims(quick: bool) -> [usize; 4] {
    if quick {
        [4, 4, 2, 4]
    } else {
        [4, 4, 4, 8]
    }
}

pub fn backend(dims: [usize; 4], faults: Option<CommFaultProfile>) -> Backend {
    Backend::new(BackendConfig {
        dims,
        n_configs: N_SYSTEMS,
        l5: 4,
        max_iter: 4000,
        fault_profile: faults,
    })
    .expect("the service lattices decompose on the 2x2x1x1 grid")
}

pub struct ShardedFt {
    clean: Backend,
    faulty: Backend,
    /// Gaussian-source seed per system, drawn from the benchmark seed.
    sources: Vec<u64>,
    precision: Precision,
}

impl ShardedFt {
    pub fn setup(args: &SetupArgs) -> Self {
        let mut rng = SplitMix64::new(args.seed, 5);
        let dims = service_dims(args.quick);
        let w = ShardedFt {
            clean: backend(dims, None),
            faulty: backend(dims, Some(mild_faults(rng.next_u64()))),
            sources: (0..N_SYSTEMS).map(|_| rng.next_u64() >> 16).collect(),
            precision: if args.quick {
                Precision::Sloppy
            } else {
                Precision::Double
            },
        };
        // Warm-up slice: one sloppy solve on the clean wire.
        let r = w
            .clean
            .solve_sharded(0, MASS.to_bits(), Precision::Sloppy, w.sources[0])
            .expect("warm-up solve");
        assert!(r.converged, "warm-up solve did not converge");
        w
    }
}

impl Workload for ShardedFt {
    fn items(&self) -> usize {
        N_SYSTEMS
    }

    fn ops_per_round(&self) -> u64 {
        2 // one clean and one faulty sharded solve
    }

    fn round(&mut self, k: usize, tr: &mut Tracer) -> RoundOut {
        let mut out = RoundOut::default();
        let solve = |b: &Backend| {
            b.solve_sharded(k as u32, MASS.to_bits(), self.precision, self.sources[k])
        };
        let clean = tr.call("core.comms", "solve_sharded_clean", || solve(&self.clean));
        let faulty = tr.call("core.comms", "solve_sharded_faulty", || solve(&self.faulty));

        let tol = self.precision.tol();
        let mut judge = |r: &Result<SolveResult, _>| {
            out.attempted += 1;
            let ok = matches!(r, Ok(r) if r.converged && r.final_rel_residual <= 10.0 * tol);
            out.failed += u64::from(!ok);
        };
        judge(&clean);
        judge(&faulty);
        let (Ok(clean), Ok(faulty)) = (clean, faulty) else {
            out.problems
                .push(format!("system {k}: sharded solve returned an error"));
            return out;
        };
        if clean.solution != faulty.solution {
            out.problems.push(format!(
                "system {k}: faulty-wire solution differs from the clean one"
            ));
        }
        out.residual_max = clean.final_rel_residual.max(faulty.final_rel_residual);
        out.facts.insert(
            "solver.item0_iterations",
            (clean.iterations + faulty.iterations) as f64,
        );
        out.outputs = vec![
            Output::real("solution_norm_sqr", vec![blas::norm_sqr(&clean.solution)]),
            Output::count(
                "iterations_clean_faulty",
                vec![clean.iterations as f64, faulty.iterations as f64],
            ),
            Output::count("recovered", vec![f64::from(u8::from(faulty.recovered))]),
        ];
        out
    }

    fn finish(&mut self, _items_done: usize, _tr: &mut Tracer) -> RoundOut {
        RoundOut::default()
    }

    fn shape(&self) -> Shape {
        Shape {
            dims: self.clean.lattice().dims(),
            mobius: MobiusParams::standard(4, MASS),
        }
    }
}
