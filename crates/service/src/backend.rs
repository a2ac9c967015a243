//! The solves behind the gateway.
//!
//! Dense requests are served by batched multi-RHS conjugate gradient
//! ([`cg_block`]) over the Wilson normal operator — per-column results are
//! bit-identical to the unbatched [`cg`] on the same system, which is what
//! makes batching transparent to the content-addressed cache. Sharded
//! requests run the fault-tolerant [`cg_ft`] stack over the decomposed
//! Möbius operator with the deterministic comm-fault injector live, so the
//! service demonstrably keeps serving (and keeps its bit-identity
//! guarantees) while the wire misbehaves underneath it.

use crate::error::ServiceError;
use crate::request::{Policy, Precision};
use lqcd_core::block::BlockSpinor;
use lqcd_core::comms::{policy_from_index, CommFaultProfile, CommRetryPolicy, ShardedNormal};
use lqcd_core::dirac::{MobiusParams, NormalOp, WilsonDirac};
use lqcd_core::field::{FermionField, GaugeField};
use lqcd_core::lattice::Lattice;
use lqcd_core::solver::{cg, cg_block, cg_ft, CgParams, FtParams, SolverOutcome};
use lqcd_core::spinor::Spinor;
use obs::Registry;

/// Rank grid for sharded solves (degrades on injected rank loss).
pub const GRID: [usize; 4] = [2, 2, 1, 1];
/// Accelerators per node in the modeled machine.
pub const GPUS_PER_NODE: usize = 4;

/// Static configuration of the solve backend.
#[derive(Clone, Debug)]
pub struct BackendConfig {
    /// Lattice dimensions; must be divisible by [`GRID`] for the sharded
    /// pipeline.
    pub dims: [usize; 4],
    /// Number of gauge configurations the service fronts.
    pub n_configs: usize,
    /// Fifth-dimension extent of the sharded Möbius solves.
    pub l5: usize,
    /// Iteration cap per CG solve.
    pub max_iter: usize,
    /// Wire-fault profile injected under sharded solves (`None` = clean).
    pub fault_profile: Option<CommFaultProfile>,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            dims: [4, 4, 2, 4],
            n_configs: 4,
            l5: 4,
            max_iter: 4000,
            fault_profile: None,
        }
    }
}

/// One solve's answer plus the provenance the cache persists with it.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveResult {
    /// Solution vector (4D volume for dense, `L5 ×` volume for sharded).
    pub solution: Vec<Spinor<f64>>,
    /// Operator applications performed.
    pub iterations: usize,
    /// Relative true residual at exit.
    pub final_rel_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Whether the solve survived injected comm faults (retries, restarts,
    /// or a grid degradation) and still converged.
    pub recovered: bool,
}

/// Gauge configurations plus the operators over them.
pub struct Backend {
    lat: Lattice,
    configs: Vec<GaugeField<f64>>,
    hashes: Vec<u64>,
    cfg: BackendConfig,
}

/// FNV-1a-64 offset basis: the hash state before any input.
const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Fold the eight bytes of `word`, least significant first, into the
/// FNV-1a-64 state `h`.
fn fnv1a_u64(mut h: u64, word: u64) -> u64 {
    for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
        h ^= (word >> shift) & 0xFF;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the raw bit pattern of every link matrix element, in site
/// order. This is the configuration's *content* identity: regenerating the
/// same links under a different id hashes identically, and any single-bit
/// change anywhere flips it.
fn content_hash(gauge: &GaugeField<f64>) -> u64 {
    let mut h = FNV_OFFSET;
    for u in gauge.links() {
        for row in &u.m {
            for z in row {
                h = fnv1a_u64(h, z.re.to_bits());
                h = fnv1a_u64(h, z.im.to_bits());
            }
        }
    }
    h
}

impl Backend {
    /// Generate `cfg.n_configs` hot configurations and hash their content.
    pub fn new(cfg: BackendConfig) -> Result<Self, ServiceError> {
        if cfg.dims.iter().zip(GRID.iter()).any(|(d, g)| d % g != 0) {
            return Err(ServiceError::Config(format!(
                "dims {:?} not divisible by sharded grid {GRID:?}",
                cfg.dims
            )));
        }
        if cfg.n_configs == 0 {
            return Err(ServiceError::Config(
                "need at least one configuration".into(),
            ));
        }
        if cfg.l5 < 2 {
            return Err(ServiceError::Config(format!(
                "fifth-dimension extent l5 = {} must be at least 2",
                cfg.l5
            )));
        }
        let lat = Lattice::new(cfg.dims);
        let configs: Vec<GaugeField<f64>> = (0..cfg.n_configs)
            .map(|i| GaugeField::<f64>::hot(&lat, 1000 + i as u64))
            .collect();
        let hashes = configs.iter().map(content_hash).collect();
        Ok(Backend {
            lat,
            configs,
            hashes,
            cfg,
        })
    }

    /// The lattice all dense solves run on.
    pub fn lattice(&self) -> &Lattice {
        &self.lat
    }

    /// Content hash of configuration `id`.
    pub fn config_hash(&self, id: u32) -> Result<u64, ServiceError> {
        self.hashes
            .get(id as usize)
            .copied()
            .ok_or_else(|| ServiceError::Config(format!("unknown configuration id {id}")))
    }

    /// The deterministic Gaussian source for `seed` under `policy`.
    pub fn source(&self, seed: u64, policy: Policy) -> Vec<Spinor<f64>> {
        let len = match policy {
            Policy::Dense => self.lat.volume(),
            Policy::Sharded => self.cfg.l5 * self.lat.volume(),
        };
        FermionField::<f64>::gaussian(len, seed).data
    }

    /// Resolve a request's `(config, mass)` pair: an unknown configuration
    /// id or a `mass_bits` that does not decode to a finite number is
    /// rejected here, before any operator is built on it.
    fn system(
        &self,
        config_id: u32,
        mass_bits: u64,
    ) -> Result<(&GaugeField<f64>, f64), ServiceError> {
        let gauge = self
            .configs
            .get(config_id as usize)
            .ok_or_else(|| ServiceError::Config(format!("unknown configuration id {config_id}")))?;
        let mass = f64::from_bits(mass_bits);
        if !mass.is_finite() {
            return Err(ServiceError::Config(format!("mass {mass} is not finite")));
        }
        Ok((gauge, mass))
    }

    fn params(&self, precision: Precision) -> CgParams {
        CgParams {
            tol: precision.tol(),
            max_iter: self.cfg.max_iter,
        }
    }

    /// One batched dense solve: all `seeds` against the same
    /// `(config, mass, precision)` system, sharing gauge-link traffic in a
    /// single [`cg_block`] call. Column `j` of the answer is bit-identical
    /// to [`Backend::solve_dense_solo`] on `seeds[j]`.
    pub fn solve_dense_batch(
        &self,
        config_id: u32,
        mass_bits: u64,
        precision: Precision,
        seeds: &[u64],
    ) -> Result<Vec<SolveResult>, ServiceError> {
        let (gauge, mass) = self.system(config_id, mass_bits)?;
        if seeds.is_empty() {
            return Ok(Vec::new());
        }
        let d = WilsonDirac::new(&self.lat, gauge, mass, true);
        let a = NormalOp::new(&d);
        let cols: Vec<Vec<Spinor<f64>>> = seeds
            .iter()
            .map(|&s| self.source(s, Policy::Dense))
            .collect();
        let b = BlockSpinor::from_columns(&cols);
        let mut x = BlockSpinor::zeros(self.lat.volume(), seeds.len());
        let stats = cg_block(&mut &a, &mut x, &b, self.params(precision));
        Ok(stats
            .iter()
            .enumerate()
            .map(|(j, s)| SolveResult {
                solution: x.col(j),
                iterations: s.iterations,
                final_rel_residual: s.final_rel_residual,
                converged: s.converged,
                recovered: false,
            })
            .collect())
    }

    /// The unbatched reference solve for audits: plain [`cg`] on one
    /// column.
    pub fn solve_dense_solo(
        &self,
        config_id: u32,
        mass_bits: u64,
        precision: Precision,
        seed: u64,
    ) -> Result<SolveResult, ServiceError> {
        let (gauge, mass) = self.system(config_id, mass_bits)?;
        let d = WilsonDirac::new(&self.lat, gauge, mass, true);
        let a = NormalOp::new(&d);
        let b = self.source(seed, Policy::Dense);
        let mut x = vec![Spinor::zero(); b.len()];
        let stats = cg(&a, &mut x, &b, self.params(precision));
        Ok(SolveResult {
            solution: x,
            iterations: stats.iterations,
            final_rel_residual: stats.final_rel_residual,
            converged: stats.converged,
            recovered: false,
        })
    }

    /// One fault-tolerant sharded Möbius solve, with the configured wire
    /// faults injected. Runs under its own metric registry so the
    /// transport's retry counters can be attributed to this solve.
    pub fn solve_sharded(
        &self,
        config_id: u32,
        mass_bits: u64,
        precision: Precision,
        seed: u64,
    ) -> Result<SolveResult, ServiceError> {
        let (gauge, mass) = self.system(config_id, mass_bits)?;
        let params = MobiusParams::standard(self.cfg.l5, mass);
        let b = self.source(seed, Policy::Sharded);
        let mut x = vec![Spinor::zero(); b.len()];
        let reg = Registry::new();
        let (outcome, degradations) = {
            let _guard = reg.install_scoped();
            let Some(mut op) = ShardedNormal::new(
                &self.lat,
                gauge,
                params,
                GRID,
                GPUS_PER_NODE,
                policy_from_index(0),
            ) else {
                return Err(ServiceError::Config(format!(
                    "grid {GRID:?} does not decompose dims {:?}",
                    self.cfg.dims
                )));
            };
            if let Some(profile) = self.cfg.fault_profile {
                op.set_fault_profile(profile, CommRetryPolicy::default());
            }
            let ft = FtParams {
                cg: self.params(precision),
                checkpoint_every: 10,
                max_comm_restarts: 24,
                max_total_iters: 4 * self.cfg.max_iter,
            };
            let outcome = cg_ft(&mut op, &mut x, &b, &ft, None);
            (outcome, op.degradations())
        };
        let retries = reg.counter("comms.retries").get();
        let (stats, restarts) = match &outcome {
            SolverOutcome::Converged {
                stats, restarts, ..
            }
            | SolverOutcome::MaxIterations { stats, restarts }
            | SolverOutcome::Failed {
                stats, restarts, ..
            } => (*stats, *restarts),
        };
        let converged = outcome.is_converged();
        Ok(SolveResult {
            solution: x,
            iterations: stats.iterations,
            final_rel_residual: stats.final_rel_residual,
            converged,
            recovered: converged && (retries > 0 || restarts > 0 || degradations > 0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backend() -> Backend {
        Backend::new(BackendConfig::default()).expect("default backend")
    }

    #[test]
    fn content_hash_tracks_content_not_id() {
        let lat = Lattice::new([4, 4, 2, 4]);
        let a = GaugeField::<f64>::hot(&lat, 1);
        let b = GaugeField::<f64>::hot(&lat, 1);
        let c = GaugeField::<f64>::hot(&lat, 2);
        assert_eq!(content_hash(&a), content_hash(&b));
        assert_ne!(content_hash(&a), content_hash(&c));
    }

    #[test]
    fn batched_columns_match_solo_solves_bitwise() {
        let be = backend();
        let seeds = [501, 502, 503];
        let mass_bits = 0.2f64.to_bits();
        let batch = be
            .solve_dense_batch(0, mass_bits, Precision::Sloppy, &seeds)
            .expect("batch");
        for (j, &s) in seeds.iter().enumerate() {
            let solo = be
                .solve_dense_solo(0, mass_bits, Precision::Sloppy, s)
                .expect("solo");
            assert!(solo.converged);
            assert_eq!(batch[j].iterations, solo.iterations);
            assert_eq!(
                batch[j].final_rel_residual.to_bits(),
                solo.final_rel_residual.to_bits()
            );
            assert_eq!(batch[j].solution, solo.solution, "column {j} bits differ");
        }
    }

    #[test]
    fn degenerate_requests_are_typed_answers_not_panics() {
        let be = backend();
        let mass_bits = 0.2f64.to_bits();
        let batch = be.solve_dense_batch(0, mass_bits, Precision::Sloppy, &[]);
        assert_eq!(batch.expect("empty batch"), Vec::new());
        // An unknown configuration is still an error, batch or no batch.
        assert!(be
            .solve_dense_batch(99, mass_bits, Precision::Sloppy, &[])
            .is_err());
        // A mass that decodes to NaN/±∞ is refused by every entry point
        // instead of burning a full solve to a breakdown.
        let is_config = |e: ServiceError| matches!(e, ServiceError::Config(_));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let bits = bad.to_bits();
            let p = Precision::Sloppy;
            assert!(be
                .solve_dense_batch(0, bits, p, &[501])
                .is_err_and(is_config));
            assert!(be.solve_dense_solo(0, bits, p, 501).is_err_and(is_config));
            assert!(be.solve_sharded(0, bits, p, 501).is_err_and(is_config));
        }
        // A fifth dimension the Möbius operator cannot be built on is
        // refused at construction, not by a panic in a worker.
        for l5 in [0, 1] {
            let cfg = BackendConfig {
                l5,
                ..BackendConfig::default()
            };
            assert!(Backend::new(cfg).is_err_and(is_config), "l5 = {l5}");
        }
    }

    #[test]
    fn sharded_solve_recovers_under_faults() {
        let cfg = BackendConfig {
            fault_profile: Some(CommFaultProfile {
                corrupt_prob: 0.03,
                drop_prob: 0.03,
                duplicate_prob: 0.02,
                reorder_prob: 0.02,
                delay_prob: 0.02,
                seed: 99,
                ..CommFaultProfile::default()
            }),
            ..BackendConfig::default()
        };
        let be = Backend::new(cfg).expect("faulty backend");
        let r = be
            .solve_sharded(1, 0.2f64.to_bits(), Precision::Sloppy, 501)
            .expect("sharded solve");
        assert!(r.converged, "mild faults must heal");
        assert!(r.recovered, "retries should have been recorded");
    }
}
