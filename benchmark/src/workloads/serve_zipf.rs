//! `serve_zipf` — the solve service under a Zipf(1.1) request trace from
//! four tenants: `Gateway::run` replays the pre-generated trace in virtual
//! time against a cold `ResultCache` of 16 entries with a fresh spill
//! directory. Closed loop: the replay is one call and returns when the
//! last request is served.
//!
//! The only workload where cache lookup, LRU spill and revive through
//! `lattice_io`, batching and admission dominate, and where the solver is
//! used differently (f64 Wilson-normal multi-RHS block CG instead of scalar
//! mixed-precision Möbius): a change that speeds the scalar path at the
//! block path's expense shows here. Spill files are small and served by
//! the page cache.

use super::sharded_ft::service_dims;
use super::{Output, RoundOut, SetupArgs, Shape, Workload};
use crate::spec::Metrics;
use crate::trace::Tracer;
use lqcd_core::prelude::MobiusParams;
use solve_service::{
    generate, Backend, BackendConfig, CacheStats, Gateway, GatewayConfig, ResultCache, ServeReport,
    ServiceError, SolveRequest, TrafficConfig,
};
use std::path::{Path, PathBuf};

const N_CONFIGS: usize = 4;
/// Distinct keys: 4 configs x 4 sources x 2 masses x 2 tolerance tiers = 64,
/// four times the cache.
const CACHE_CAPACITY: usize = 16;

pub struct ServeZipf {
    backend: Backend,
    requests: Vec<SolveRequest>,
    spill: PathBuf,
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        // Deep enough that the trace never meets a full queue: a rejected
        // request is a failed operation, and the workload is sized to have
        // none.
        queue_capacity: 4096,
        n_tenants: 4,
        audit_every: 0,
        ..GatewayConfig::default()
    }
}

/// Replay `requests` against a cold cache (with `spill` as its spill
/// directory, or none).
fn replay(
    backend: &Backend,
    requests: &[SolveRequest],
    capacity: usize,
    spill: Option<&Path>,
) -> Result<(ServeReport, CacheStats), ServiceError> {
    if let Some(dir) = spill {
        std::fs::create_dir_all(dir).map_err(|e| ServiceError::Io(e.to_string()))?;
    }
    let cache = ResultCache::new(capacity, spill.map(Path::to_path_buf));
    let report = Gateway::new(backend, &cache, gateway_config()).run(requests)?;
    Ok((report, cache.stats()))
}

impl ServeZipf {
    pub fn setup(args: &SetupArgs) -> Self {
        let backend = Backend::new(BackendConfig {
            dims: service_dims(args.quick),
            n_configs: N_CONFIGS,
            l5: 4,
            max_iter: 4000,
            fault_profile: None,
        })
        .expect("the service lattices decompose on the 2x2x1x1 grid");
        let requests = generate(&TrafficConfig {
            n_requests: if args.quick { 400 } else { 8000 },
            n_tenants: 4,
            n_configs: N_CONFIGS,
            n_seeds: 4,
            masses: vec![0.2, 0.08],
            zipf_exponent: 1.1,
            mean_interarrival: 8,
            sharded_per_mille: 0,
            seed: args.seed,
        });
        // Warm-up slice: the head of the trace against a throw-away cache.
        let warm = args.dir.join("warmup-spill");
        replay(&backend, &requests[..200], CACHE_CAPACITY, Some(&warm)).expect("warm-up replay");
        std::fs::remove_dir_all(&warm).ok();

        ServeZipf {
            backend,
            requests,
            spill: args.dir.join("spill"),
        }
    }
}

impl Workload for ServeZipf {
    fn items(&self) -> usize {
        1
    }

    fn ops_per_round(&self) -> u64 {
        self.requests.len() as u64 // requests submitted
    }

    fn round(&mut self, _item: usize, tr: &mut Tracer) -> RoundOut {
        let mut out = RoundOut {
            attempted: self.ops_per_round(),
            ..RoundOut::default()
        };
        let result = tr.call("service", "gateway_run", || {
            replay(
                &self.backend,
                &self.requests,
                CACHE_CAPACITY,
                Some(&self.spill),
            )
        });
        let (r, c) = match result {
            Ok(rc) => rc,
            Err(e) => {
                out.failed = out.attempted;
                out.problems.push(format!("gateway: {e}"));
                return out;
            }
        };
        out.failed = r.rejected + r.unconverged + (r.submitted - r.served - r.rejected);
        let occupancy = r.batched_columns as f64 / r.batches.max(1) as f64;
        for (name, v) in [
            ("service.hits", r.hits as f64),
            ("service.spill_hits", r.spill_hits as f64),
            ("service.coalesced", r.coalesced as f64),
            ("service.solved_keys", r.solved_keys as f64),
            ("service.batches", r.batches as f64),
            ("service.mean_batch_occupancy", occupancy),
            ("service.rejected", r.rejected as f64),
            ("service.evictions", c.evictions as f64),
            ("service.spill_rejects", c.spill_rejects as f64),
            ("service.hit_rate", r.hit_rate()),
        ] {
            out.facts.insert(name, v);
        }
        out.outputs = vec![Output::count(
            "serve_counts",
            vec![
                r.submitted as f64,
                r.served as f64,
                r.rejected as f64,
                r.hits as f64,
                r.spill_hits as f64,
                r.coalesced as f64,
                r.solved_keys as f64,
                r.batches as f64,
                r.batched_columns as f64,
                r.unconverged as f64,
                r.virtual_makespan as f64,
                c.evictions as f64,
                c.spills as f64,
                c.spill_rejects as f64,
            ],
        )];
        out
    }

    fn between_rounds(&mut self) {
        std::fs::remove_dir_all(&self.spill).ok();
    }

    fn finish(&mut self, _items_done: usize, _tr: &mut Tracer) -> RoundOut {
        RoundOut::default()
    }

    fn shape(&self) -> Shape {
        Shape {
            dims: self.backend.lattice().dims(),
            mobius: MobiusParams::standard(4, 0.2),
        }
    }

    /// `service.spill_path_share`: the share of a replay that the spill
    /// path costs, from one more replay with room for every key and no
    /// spill directory.
    fn extra_facts(&mut self, tr: &mut Tracer) -> Metrics {
        let time = |spill: Option<&Path>, capacity: usize| {
            let t0 = tr.now();
            replay(&self.backend, &self.requests, capacity, spill).expect("probe replay");
            tr.now() - t0
        };
        let with_spill = time(Some(&self.spill), CACHE_CAPACITY);
        let without = time(None, 4096);
        self.between_rounds();
        Metrics::from([("service.spill_path_share", 1.0 - without / with_spill)])
    }
}
