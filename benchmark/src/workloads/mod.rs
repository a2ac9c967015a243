//! The five workloads. Each one is a fixed cycle of *items* (a gauge
//! configuration, a source column, a request trace, a linear system); a
//! *round* pushes one item through the workload's chain of library calls
//! and is the unit that is timed. Rounds revisit the items in order for as
//! long as the run measures, then a terminal stage runs once.
//!
//! Only the entry points listed in `README.md` ("API surface") are called.

use crate::spec::Metrics;
use crate::trace::Tracer;
use lqcd_core::prelude::MobiusParams;
use lqcd_core::solver::SolveStats;
use std::path::Path;

mod contract_io;
mod fh_small;
mod mobius_large;
mod serve_zipf;
mod sharded_ft;

pub use contract_io::synthetic_fit;
pub use sharded_ft::{backend as sharded_backend, mild_faults, service_dims};

/// One checked output of a round: a named vector compared with the golden
/// (default seed), with its earlier visits, and between the traced and the
/// untraced round of a pair.
#[derive(Clone, Debug, PartialEq)]
pub struct Output {
    pub name: &'static str,
    pub values: Vec<f64>,
    /// Counts compare exactly; everything else at 1e-6 relative.
    pub exact: bool,
}

impl Output {
    pub fn real(name: &'static str, values: Vec<f64>) -> Self {
        Output {
            name,
            values,
            exact: false,
        }
    }

    pub fn count(name: &'static str, values: Vec<f64>) -> Self {
        Output {
            name,
            values,
            exact: true,
        }
    }
}

/// What one round (or the terminal stage) did.
#[derive(Default)]
pub struct RoundOut {
    pub outputs: Vec<Output>,
    /// Operations attempted and failed (see `README.md` for what an
    /// operation is per workload and when it counts as failed).
    pub attempted: u64,
    pub failed: u64,
    /// Per-layer metrics this round can state exactly (counts, bytes).
    /// Kept from the first visit of item 0 and from the terminal stage.
    pub facts: Metrics,
    /// Physics sanity checks that did not hold.
    pub problems: Vec<String>,
    /// Largest relative residual a solve of this round reported.
    pub residual_max: f64,
}

impl RoundOut {
    /// Count a column solve as attempted, and as failed when it did not
    /// converge or reports a residual above ten times its tolerance.
    pub fn count_solve(&mut self, s: &SolveStats, tol: f64) {
        self.attempted += 1;
        let residual = s.final_rel_residual;
        if !s.converged || residual.is_nan() || residual > 10.0 * tol {
            self.failed += 1;
        }
        self.residual_max = self.residual_max.max(residual);
    }
}

/// Shapes the layer probes of the traced run use for this workload.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub dims: [usize; 4],
    pub mobius: MobiusParams,
}

pub trait Workload {
    /// Number of distinct items the rounds cycle through.
    fn items(&self) -> usize;
    /// Fewest rounds the terminal stage can work with.
    fn min_rounds(&self) -> usize {
        1
    }
    /// Operations in one round (constant per workload).
    fn ops_per_round(&self) -> u64;
    fn round(&mut self, item: usize, tr: &mut Tracer) -> RoundOut;
    /// Terminal stage over the items visited so far (`items_done` of them,
    /// always the first ones of the cycle).
    fn finish(&mut self, items_done: usize, tr: &mut Tracer) -> RoundOut;
    /// Housekeeping after a round that is not part of the measured work
    /// (removing a spill directory).
    fn between_rounds(&mut self) {}
    fn shape(&self) -> Shape;
    /// Per-layer metrics that need extra replays of the workload itself;
    /// called once in the traced run, after the timed region.
    fn extra_facts(&mut self, _tr: &mut Tracer) -> Metrics {
        Metrics::new()
    }
}

/// Inputs of a set-up.
pub struct SetupArgs<'a> {
    pub seed: u64,
    /// Tiny sizes for smoke runs; goldens do not apply.
    pub quick: bool,
    /// Scratch directory of this set-up (exists, empty, removed by the caller).
    pub dir: &'a Path,
}

/// Generate the workload's inputs from the seed, write its files, build
/// its long-lived objects and run its warm-up slice.
pub fn setup(name: &str, args: &SetupArgs) -> Option<Box<dyn Workload>> {
    Some(match name {
        "fh_small" => Box::new(fh_small::FhSmall::setup(args)),
        "mobius_large" => Box::new(mobius_large::MobiusLarge::setup(args)),
        "contract_io" => Box::new(contract_io::ContractIo::setup(args)),
        "serve_zipf" => Box::new(serve_zipf::ServeZipf::setup(args)),
        "sharded_ft" => Box::new(sharded_ft::ShardedFt::setup(args)),
        _ => return None,
    })
}

/// Real parts of a complex correlator.
pub fn re(c: &[lqcd_core::complex::C64]) -> Vec<f64> {
    c.iter().map(|z| z.re).collect()
}

/// Size of a file the round just wrote or is about to read, in bytes.
pub fn file_len(p: &Path) -> f64 {
    std::fs::metadata(p).map_or(0.0, |m| m.len() as f64)
}
