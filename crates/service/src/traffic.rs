//! Deterministic synthetic traffic: a splitmix64-seeded stream of solve
//! requests whose key popularity is Zipf-distributed, mirroring the
//! production workload shape (a few hot configurations and sources
//! dominate, with a long tail of one-off systems).
//!
//! Everything is derived from one `u64` seed through the same splitmix64
//! chain the scheduler and fault injector use, so a given
//! [`TrafficConfig`] always produces the identical request stream — the
//! precondition for committing the serve experiment's output as a golden.

use crate::request::{Policy, Precision, SolveRequest};
use lqcd_core::comms::splitmix64;

/// Shape of the generated stream.
#[derive(Clone, Debug)]
pub struct TrafficConfig {
    /// Total requests to emit.
    pub n_requests: usize,
    /// Distinct tenants. Tenant 0 is deliberately a noisy neighbour
    /// (roughly half the traffic) so the fairness machinery has something
    /// to push against.
    pub n_tenants: usize,
    /// Distinct gauge configurations.
    pub n_configs: usize,
    /// Distinct source seeds per configuration.
    pub n_seeds: usize,
    /// Candidate quark masses.
    pub masses: Vec<f64>,
    /// Zipf exponent `s` of the key-popularity law `p(r) ∝ (r+1)^-s`.
    pub zipf_exponent: f64,
    /// Mean inter-arrival gap in virtual ticks (uniform on
    /// `1..=2*mean-1`, so the mean is exactly `mean`).
    pub mean_interarrival: u64,
    /// Per-mille of requests routed through the fault-tolerant sharded
    /// pipeline instead of the dense batched one.
    pub sharded_per_mille: u64,
    /// Seed of the splitmix64 chain.
    pub seed: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            n_requests: 4096,
            n_tenants: 4,
            n_configs: 4,
            n_seeds: 16,
            masses: vec![0.2, 0.08],
            zipf_exponent: 1.1,
            mean_interarrival: 8,
            sharded_per_mille: 4,
            seed: 20180806,
        }
    }
}

/// A deterministic splitmix64 draw chain.
struct Chain(u64);

impl Chain {
    fn next_u64(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Generate the request stream for `cfg`, sorted by arrival time.
///
/// The popularity rank of each `(config, seed, mass)` tuple is its index
/// in row-major enumeration order; rank 0 is the hottest. With
/// `zipf_exponent` around 1 the head of the distribution carries enough
/// repeats that a content-addressed cache of modest capacity serves the
/// majority of traffic — the property the serve experiment asserts.
pub fn generate(cfg: &TrafficConfig) -> Vec<SolveRequest> {
    let n_keys = (cfg.n_configs * cfg.n_seeds * cfg.masses.len()).max(1);
    // Zipf CDF over ranks, precomputed once.
    let mut cdf = Vec::with_capacity(n_keys);
    let mut total = 0.0f64;
    for r in 0..n_keys {
        total += ((r + 1) as f64).powf(-cfg.zipf_exponent);
        cdf.push(total);
    }
    for c in &mut cdf {
        *c /= total;
    }

    let mut chain = Chain(cfg.seed);
    let mut t: u64 = 0;
    let mut out = Vec::with_capacity(cfg.n_requests);
    for _ in 0..cfg.n_requests {
        // Arrival: uniform gap with mean `mean_interarrival`.
        let gap_span = (2 * cfg.mean_interarrival).saturating_sub(1).max(1);
        t += 1 + chain.next_u64() % gap_span;

        // Key rank by inverse-CDF, then unpacked row-major.
        let u = chain.next_f64();
        let rank = cdf.partition_point(|&c| c < u).min(n_keys - 1);
        let config_id = (rank % cfg.n_configs) as u32;
        let seed_idx = (rank / cfg.n_configs) % cfg.n_seeds.max(1);
        let mass_idx = rank / (cfg.n_configs * cfg.n_seeds.max(1));
        let mass = cfg.masses[mass_idx.min(cfg.masses.len() - 1)];

        // Tenant: 0 gets ~half of everything, the rest split the remainder.
        let tenant = if cfg.n_tenants <= 1 || chain.next_u64().is_multiple_of(2) {
            0
        } else {
            1 + (chain.next_u64() % (cfg.n_tenants as u64 - 1)) as u32
        };

        // Tier and pipeline.
        let precision = if chain.next_u64() % 10 < 3 {
            Precision::Double
        } else {
            Precision::Sloppy
        };
        let policy = if chain.next_u64() % 1000 < cfg.sharded_per_mille {
            Policy::Sharded
        } else {
            Policy::Dense
        };

        out.push(SolveRequest {
            tenant,
            config_id,
            source_seed: 500 + seed_idx as u64,
            mass,
            precision,
            policy,
            arrival: t,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn stream_is_deterministic_and_sorted() {
        let cfg = TrafficConfig::default();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert_eq!(a.len(), cfg.n_requests);
    }

    #[test]
    fn popularity_is_heavy_tailed() {
        let cfg = TrafficConfig {
            n_requests: 20_000,
            ..TrafficConfig::default()
        };
        let reqs = generate(&cfg);
        let mut by_key: HashMap<(u32, u64, u64, u8), usize> = HashMap::new();
        for r in &reqs {
            *by_key
                .entry((
                    r.config_id,
                    r.source_seed,
                    r.mass.to_bits(),
                    r.precision.tag(),
                ))
                .or_insert(0) += 1;
        }
        let mut counts: Vec<usize> = by_key.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let head: usize = counts.iter().take(counts.len().div_ceil(10)).sum();
        assert!(
            head * 2 > reqs.len(),
            "top decile of keys should carry the majority of traffic, got {head}/{}",
            reqs.len()
        );
    }

    #[test]
    fn tenant_zero_is_the_noisy_neighbour() {
        let reqs = generate(&TrafficConfig {
            n_requests: 10_000,
            ..TrafficConfig::default()
        });
        let t0 = reqs.iter().filter(|r| r.tenant == 0).count();
        assert!(t0 > reqs.len() / 3 && t0 < 2 * reqs.len() / 3);
        let sharded = reqs.iter().filter(|r| r.policy == Policy::Sharded).count();
        assert!(sharded > 0, "some requests must exercise the sharded path");
    }
}
