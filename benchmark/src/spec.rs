//! The benchmark's vocabulary: workload and metric names with their units.
//! `../BENCHMARK.json` lists the same names; a test keeps the two equal.

use std::collections::BTreeMap;

pub const WORKLOADS: [&str; 5] = [
    "fh_small",
    "mobius_large",
    "contract_io",
    "serve_zipf",
    "sharded_ft",
];

/// `(name, unit)` of the metrics of the untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("time_to_solution_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of the metrics of the traced run, grouped by layer.
pub const PER_LAYER: [(&str, &str); 88] = [
    // host calibration
    ("host.nproc", "count"),
    ("host.l2_kib", "KiB"),
    ("host.l3_kib", "KiB"),
    ("host.stream_triad_gib_per_s", "GiB/s"),
    ("host.stream_w1_gib_per_s", "GiB/s"),
    ("host.stream_in_llc", "flag"),
    // vendored rayon pool
    ("pool.threads", "count"),
    ("pool.parallel_job_share", "share"),
    ("pool.speedup_vs_width1", "ratio"),
    // core.gauge
    ("gauge.heatbath_ms_per_cycle", "ms"),
    ("gauge.plaquette", "1"),
    // core.prop, core.fh
    ("prop.gauge_cast_ms", "ms"),
    ("prop.gauge_cast_share", "share"),
    ("prop.solve_share", "share"),
    ("fh.fh_propagator_share", "share"),
    // core.solver
    ("solver.iterations", "count"),
    ("solver.reliable_updates", "count"),
    ("solver.ms_per_iteration", "ms"),
    ("solver.width1_ms_per_iteration", "ms"),
    ("solver.gflop_per_s", "Gflop/s"),
    ("solver.alloc_bytes_per_iteration", "B"),
    ("solver.alloc_calls_per_iteration", "count"),
    ("solver.dirac_share_est", "share"),
    ("solver.reported_residual_max", "1"),
    ("solver.item0_iterations", "count"),
    // core.dirac
    ("dirac.apply_f64_us", "us"),
    ("dirac.apply_f32_us", "us"),
    ("dirac.apply_f32_best_us", "us"),
    ("dirac.dagger_f32_us", "us"),
    ("dirac.wilson_f64_us", "us"),
    ("dirac.f32_gib_per_s_computed", "GiB/s"),
    ("dirac.f32_gflop_per_s", "Gflop/s"),
    ("dirac.flop_per_byte", "flop/B"),
    ("dirac.f32_pct_stream", "%"),
    // core.blas
    ("blas.axpy_gib_per_s", "GiB/s"),
    ("blas.dot_gib_per_s", "GiB/s"),
    ("blas.norm2_gib_per_s", "GiB/s"),
    ("blas.norm2_pct_stream", "%"),
    // core.halfprec
    ("halfprec.encode_gib_per_s", "GiB/s"),
    ("halfprec.decode_gib_per_s", "GiB/s"),
    // core.contract
    ("contract.pion_us", "us"),
    ("contract.proton_ms", "ms"),
    ("contract.fh_nucleon_ms", "ms"),
    ("contract.us_per_site", "us"),
    ("contract.gib_per_s_computed", "GiB/s"),
    ("contract.share", "share"),
    // core.comms
    ("comms.clean_ms_per_iteration", "ms"),
    ("comms.faulty_ms_per_iteration", "ms"),
    ("comms.iterations", "count"),
    ("comms.replayed_iterations", "count"),
    ("comms.recovered_solves", "count"),
    ("comms.overhead_vs_single_domain", "ratio"),
    ("comms.share", "share"),
    // io
    ("io.read_gauge_ms", "ms"),
    ("io.read_propagator_mib_per_s", "MiB/s"),
    ("io.write_propagator_mib_per_s", "MiB/s"),
    ("io.write_correlator_us", "us"),
    ("io.read_bytes", "B"),
    ("io.write_bytes", "B"),
    ("io.share", "share"),
    // analysis
    ("analysis.jackknife_ms", "ms"),
    ("analysis.fit_ms", "ms"),
    ("analysis.ga_pull", "sigma"),
    ("analysis.chi2_per_dof", "1"),
    ("analysis.share", "share"),
    // service
    ("service.hits", "count"),
    ("service.spill_hits", "count"),
    ("service.coalesced", "count"),
    ("service.solved_keys", "count"),
    ("service.batches", "count"),
    ("service.mean_batch_occupancy", "count"),
    ("service.rejected", "count"),
    ("service.evictions", "count"),
    ("service.spill_rejects", "count"),
    ("service.hit_rate", "share"),
    ("service.backend_batch8_ms", "ms"),
    ("service.cache_hit_us", "us"),
    ("service.spill_roundtrip_us", "us"),
    ("service.spill_path_share", "share"),
    ("service.share", "share"),
    // harness
    ("trace.overhead_share", "share"),
    ("trace.span_coverage", "share"),
    ("trace.rounds", "count"),
    ("check.output_rel_err_max", "1"),
    ("check.ops_failed_share", "share"),
    ("check.items_checked", "count"),
    ("check.golden_compared", "flag"),
    ("harness.share", "share"),
];

/// Metric values of one run, by name.
pub type Metrics = BTreeMap<&'static str, f64>;

#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[cfg(test)]
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Json;
    use std::collections::BTreeSet;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(valid_name(w) && seen.insert(w), "bad workload name {w}");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_unit("GiB per s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let doc = manifest();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
        let names: Vec<String> = listed(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(names, WORKLOADS);
        assert!(END_TO_END.contains(&("setup_s", "s")));
        for m in doc.get("end_to_end").and_then(Json::as_arr).expect("list") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25);
        }
    }
}
