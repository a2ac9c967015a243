//! `repro serve` — drive the solve-service gateway with deterministic
//! Zipf-distributed synthetic traffic and publish the service-side
//! statistics: latency quantiles, cache hit rate, batch occupancy, queue
//! depth, and fault-recovery counts.
//!
//! Everything in `serve.json` / `serve.md` is derived from *virtual time*
//! and bit-stable solver iteration counts — never from the wall clock —
//! so the committed artifacts are bit-identical on any machine at any
//! `RAYON_NUM_THREADS`. Wall-clock throughput is printed to the console
//! only, through the injected [`Clock`].
//!
//! The run enforces the service's own guarantees as it goes:
//!
//! - every audited cache hit is re-solved cold and compared bit-for-bit
//!   (the gateway aborts on mismatch);
//! - every audited batch has a column re-solved through the unbatched
//!   `cg` and compared bit-for-bit;
//! - the fault-injection layer runs *under* the service: the sharded
//!   share of traffic solves through `cg_ft` with a mild wire-fault
//!   profile live, and the recovered-solve count must come out positive;
//! - the Zipf head must make the content-addressed cache earn a hit rate
//!   of at least one half.

use crate::output::ExperimentOutput;
use lqcd_core::comms::{splitmix64, CommFaultProfile};
use obs::{Clock, Json, Registry, WallClock};
use solve_service::{
    generate, Backend, BackendConfig, CacheStats, Gateway, GatewayConfig, ResultCache, ServeReport,
    TrafficConfig,
};

/// Options for the serve subcommand.
#[derive(Default)]
pub struct ServeOpts {
    /// Scale the stream down for CI smoke runs.
    pub quick: bool,
}

/// The wire-fault intensity injected under the sharded share of traffic:
/// the `mild` setting of the chaos sweep — every fault class active, all
/// healable by the NACK/retransmit layer.
fn mild_faults() -> CommFaultProfile {
    CommFaultProfile {
        corrupt_prob: 0.03,
        drop_prob: 0.03,
        duplicate_prob: 0.025,
        reorder_prob: 0.025,
        delay_prob: 0.05,
        seed: splitmix64(20180806),
        ..CommFaultProfile::default()
    }
}

struct ServeSetup {
    traffic: TrafficConfig,
    gateway: GatewayConfig,
    backend: BackendConfig,
    cache_capacity: usize,
}

fn setup(quick: bool) -> ServeSetup {
    let traffic = TrafficConfig {
        n_requests: if quick { 4096 } else { 1_000_000 },
        n_tenants: 4,
        n_configs: 4,
        n_seeds: 16,
        masses: vec![0.2, 0.08],
        zipf_exponent: 1.1,
        mean_interarrival: if quick { 8 } else { 2 },
        sharded_per_mille: 4,
        seed: 20180806,
    };
    let gateway = GatewayConfig {
        queue_capacity: 64,
        n_servers: 2,
        max_nrhs: 8,
        n_tenants: traffic.n_tenants,
        drr_quantum: 1.0,
        hit_cost: 1,
        batch_base_cost: 16,
        cost_per_iteration: 4,
        cost_per_column: 2,
        audit_every: if quick { 64 } else { 997 },
    };
    let backend = BackendConfig {
        dims: [4, 4, 2, 4],
        n_configs: traffic.n_configs,
        l5: 4,
        max_iter: 4000,
        fault_profile: Some(mild_faults()),
    };
    ServeSetup {
        traffic,
        gateway,
        backend,
        // Below the distinct-key count, so the LRU tail spills to disk and
        // some of it is revived (exercising the CRC + key-metadata gate).
        cache_capacity: 64,
    }
}

/// Run the service and write `serve.json` + `serve.md`. Inject a
/// [`ManualClock`](obs::ManualClock) for bit-stable console output in
/// tests; the artifacts never contain wall time either way.
pub fn run_serve_with_clock(
    out: &ExperimentOutput,
    opts: &ServeOpts,
    clock: &dyn Clock,
) -> std::io::Result<()> {
    let s = setup(opts.quick);
    println!(
        "repro serve: {} requests, {} configs x {} seeds x {} masses, cache {} entries",
        s.traffic.n_requests,
        s.traffic.n_configs,
        s.traffic.n_seeds,
        s.traffic.masses.len(),
        s.cache_capacity,
    );

    // Spill directory: fresh per run so revived entries are exactly the
    // ones this run evicted (a warm spill dir would change the goldens).
    let spill = std::env::temp_dir().join(format!("serve-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill)?;

    let backend = Backend::new(s.backend.clone()).map_err(std::io::Error::from)?;
    let cache = ResultCache::new(s.cache_capacity, Some(spill.clone()));
    let requests = generate(&s.traffic);

    let reg = Registry::new();
    let t0 = clock.now();
    let report = {
        let _guard = reg.install_scoped();
        Gateway::new(&backend, &cache, s.gateway.clone())
            .run(&requests)
            .map_err(std::io::Error::from)?
    };
    let wall = clock.now() - t0;
    let cache_stats = cache.stats();
    std::fs::remove_dir_all(&spill).ok();

    // The acceptance gates: the run is wrong, not just slow, if any fails.
    assert!(
        report.hit_rate() >= 0.5,
        "Zipf traffic must hit at least half the time, got {:.3}",
        report.hit_rate()
    );
    assert!(
        report.recovered > 0,
        "the fault-injected sharded share must recover at least one solve"
    );
    assert_eq!(report.unconverged, 0, "every solve must converge");
    assert!(report.audits_passed > 0, "audits must actually run");
    assert_eq!(
        report.submitted,
        report.served + report.rejected,
        "every request is served or rejected"
    );

    let latency = reg
        .try_histogram("serve.latency_ticks")
        .map(|h| h.snapshot());
    let occupancy = reg
        .try_histogram("serve.batch_occupancy")
        .map(|h| h.snapshot());
    let depth = reg.try_histogram("serve.queue_depth").map(|h| h.snapshot());

    let doc = render_json(&s, &report, &cache_stats, &latency, &occupancy, &depth);
    std::fs::write(out.path("serve.json"), &doc)?;
    let md = render_markdown(&s, &report, &cache_stats);
    std::fs::write(out.path("serve.md"), &md)?;

    println!(
        "  served {} / rejected {} of {} (hit rate {:.1}%, {} solves, {} recovered)",
        report.served,
        report.rejected,
        report.submitted,
        100.0 * report.hit_rate(),
        report.solved_keys,
        report.recovered,
    );
    println!(
        "  latency p50 {} p99 {} ticks; mean batch occupancy {:.2}; {:.2}s wall",
        report.latency_p50,
        report.latency_p99,
        mean_occupancy(&report),
        wall,
    );
    Ok(())
}

/// Run with the wall clock (the CLI path).
pub fn run_serve(out: &ExperimentOutput, opts: &ServeOpts) -> std::io::Result<()> {
    run_serve_with_clock(out, opts, &WallClock::new())
}

fn mean_occupancy(report: &ServeReport) -> f64 {
    if report.batches == 0 {
        return 0.0;
    }
    report.batched_columns as f64 / report.batches as f64
}

fn histogram_json(snap: &Option<obs::HistogramSnapshot>) -> Json {
    match snap {
        None => Json::Null,
        Some(s) => Json::obj(vec![
            (
                "bounds",
                Json::Arr(s.bounds.iter().map(|&b| Json::Num(b)).collect()),
            ),
            (
                "buckets",
                Json::Arr(s.buckets.iter().map(|&c| Json::Num(c as f64)).collect()),
            ),
            ("count", Json::Num(s.count as f64)),
            ("sum", Json::Num(s.sum)),
            ("min", Json::Num(if s.count == 0 { 0.0 } else { s.min })),
            ("max", Json::Num(if s.count == 0 { 0.0 } else { s.max })),
        ]),
    }
}

fn render_json(
    s: &ServeSetup,
    report: &ServeReport,
    cache: &CacheStats,
    latency: &Option<obs::HistogramSnapshot>,
    occupancy: &Option<obs::HistogramSnapshot>,
    depth: &Option<obs::HistogramSnapshot>,
) -> String {
    let tenants: Vec<Json> = report
        .per_tenant_served
        .iter()
        .zip(report.per_tenant_rejected.iter())
        .enumerate()
        .map(|(t, (&served, &rejected))| {
            Json::obj(vec![
                ("tenant", Json::Num(t as f64)),
                ("served", Json::Num(served as f64)),
                ("rejected", Json::Num(rejected as f64)),
            ])
        })
        .collect();
    let mut doc = Json::obj(vec![
        ("schema", Json::Str("serve-v1".to_string())),
        (
            "config",
            Json::obj(vec![
                ("n_requests", Json::Num(s.traffic.n_requests as f64)),
                ("n_tenants", Json::Num(s.traffic.n_tenants as f64)),
                ("n_configs", Json::Num(s.traffic.n_configs as f64)),
                ("n_seeds", Json::Num(s.traffic.n_seeds as f64)),
                (
                    "masses",
                    Json::Arr(s.traffic.masses.iter().map(|&m| Json::Num(m)).collect()),
                ),
                ("zipf_exponent", Json::Num(s.traffic.zipf_exponent)),
                (
                    "sharded_per_mille",
                    Json::Num(s.traffic.sharded_per_mille as f64),
                ),
                ("cache_capacity", Json::Num(s.cache_capacity as f64)),
                ("queue_capacity", Json::Num(s.gateway.queue_capacity as f64)),
                ("n_servers", Json::Num(s.gateway.n_servers as f64)),
                ("max_nrhs", Json::Num(s.gateway.max_nrhs as f64)),
                ("audit_every", Json::Num(s.gateway.audit_every as f64)),
            ]),
        ),
        (
            "results",
            Json::obj(vec![
                ("submitted", Json::Num(report.submitted as f64)),
                ("served", Json::Num(report.served as f64)),
                ("rejected", Json::Num(report.rejected as f64)),
                ("hits", Json::Num(report.hits as f64)),
                ("spill_hits", Json::Num(report.spill_hits as f64)),
                ("coalesced", Json::Num(report.coalesced as f64)),
                ("hit_rate", Json::Num(report.hit_rate())),
                ("solved_keys", Json::Num(report.solved_keys as f64)),
                ("batches", Json::Num(report.batches as f64)),
                ("batched_columns", Json::Num(report.batched_columns as f64)),
                ("mean_batch_occupancy", Json::Num(mean_occupancy(report))),
                ("sharded_solves", Json::Num(report.sharded_solves as f64)),
                ("recovered", Json::Num(report.recovered as f64)),
                ("unconverged", Json::Num(report.unconverged as f64)),
                ("audits_passed", Json::Num(report.audits_passed as f64)),
                ("latency_p50_ticks", Json::Num(report.latency_p50)),
                ("latency_p99_ticks", Json::Num(report.latency_p99)),
                ("max_queue_depth", Json::Num(report.max_queue_depth as f64)),
                (
                    "virtual_makespan",
                    Json::Num(report.virtual_makespan as f64),
                ),
                ("per_tenant", Json::Arr(tenants)),
            ]),
        ),
        (
            "cache",
            Json::obj(vec![
                ("evictions", Json::Num(cache.evictions as f64)),
                ("spills", Json::Num(cache.spills as f64)),
                ("spill_hits", Json::Num(cache.spill_hits as f64)),
                ("spill_rejects", Json::Num(cache.spill_rejects as f64)),
            ]),
        ),
        (
            "histograms",
            Json::obj(vec![
                ("latency_ticks", histogram_json(latency)),
                ("batch_occupancy", histogram_json(occupancy)),
                ("queue_depth", histogram_json(depth)),
            ]),
        ),
    ]);
    doc.sort_keys();
    let mut out = doc.to_string_pretty();
    out.push('\n');
    out
}

fn render_markdown(s: &ServeSetup, report: &ServeReport, cache: &CacheStats) -> String {
    let mut md = String::new();
    md.push_str("# Solve service under Zipf load\n\n");
    md.push_str(&format!(
        "{} requests from {} tenants against {} configurations × {} sources × {} masses \
         (Zipf s={}), cache capacity {} entries, {} virtual servers, batches up to {} RHS.\n\n",
        s.traffic.n_requests,
        s.traffic.n_tenants,
        s.traffic.n_configs,
        s.traffic.n_seeds,
        s.traffic.masses.len(),
        s.traffic.zipf_exponent,
        s.cache_capacity,
        s.gateway.n_servers,
        s.gateway.max_nrhs,
    ));
    md.push_str("| metric | value |\n|---|---|\n");
    let mut row = |k: &str, v: String| {
        md.push_str(&format!("| {k} | {v} |\n"));
    };
    row(
        "served / submitted",
        format!("{} / {}", report.served, report.submitted),
    );
    row(
        "rejected (admission control)",
        format!("{}", report.rejected),
    );
    row(
        "hit rate (memory + spill + coalesced)",
        format!("{:.3}", report.hit_rate()),
    );
    row(
        "hits / spill hits / coalesced",
        format!(
            "{} / {} / {}",
            report.hits, report.spill_hits, report.coalesced
        ),
    );
    row("unique systems solved", format!("{}", report.solved_keys));
    row(
        "batches (mean occupancy)",
        format!("{} ({:.2} RHS)", report.batches, mean_occupancy(report)),
    );
    row(
        "sharded solves (fault-injected)",
        format!("{}", report.sharded_solves),
    );
    row("recovered solves", format!("{}", report.recovered));
    row(
        "latency p50 / p99 (virtual ticks)",
        format!("{} / {}", report.latency_p50, report.latency_p99),
    );
    row("max queue depth", format!("{}", report.max_queue_depth));
    row(
        "cache evictions / spills / spill rejects",
        format!(
            "{} / {} / {}",
            cache.evictions, cache.spills, cache.spill_rejects
        ),
    );
    row(
        "bit-identity audits passed",
        format!("{}", report.audits_passed),
    );
    md.push_str(
        "\nEvery audited cache hit was re-solved cold and compared bit-for-bit; every audited \
         batch had a column re-solved through the unbatched CG likewise. The sharded share of \
         traffic ran over the fault-injected transport (mild profile) and still converged to \
         bit-identical residuals; `recovered` counts solves that needed retransmits or \
         checkpoint restarts to get there.\n",
    );
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::ManualClock;

    #[test]
    fn quick_serve_is_bit_stable_and_passes_its_gates() {
        let dir = std::env::temp_dir().join(format!("serve-golden-{}", std::process::id()));
        let out = ExperimentOutput::new(&dir).expect("results dir");
        let clock = ManualClock::new(0.0);
        run_serve_with_clock(&out, &ServeOpts { quick: true }, clock.as_ref()).expect("serve run");
        let first = std::fs::read_to_string(out.path("serve.json")).expect("serve.json");
        assert!(first.contains("\"schema\": \"serve-v1\""));
        // A second run must reproduce the artifact byte-for-byte.
        run_serve_with_clock(&out, &ServeOpts { quick: true }, clock.as_ref()).expect("second run");
        let second = std::fs::read_to_string(out.path("serve.json")).expect("serve.json");
        assert_eq!(first, second, "serve.json must be deterministic");
        let md = std::fs::read_to_string(out.path("serve.md")).expect("serve.md");
        assert!(md.contains("hit rate"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
