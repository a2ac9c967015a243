//! The solve gateway: admission control, per-tenant fairness, batching,
//! and the deterministic virtual-time event loop.
//!
//! Latency accounting runs entirely in *virtual ticks*: arrivals carry
//! generated timestamps, and each dispatched solve is charged a modeled
//! service time derived from its (bit-stable) iteration count. The real
//! numerical work still happens — every dispatch runs the actual batched
//! or fault-tolerant solver on the work-stealing pool — but wall time
//! never leaks into the published statistics, so the serve experiment's
//! histograms are bit-identical across machines and thread counts and can
//! be committed as goldens.
//!
//! Scheduling is deficit round-robin over tenants: each visit to a
//! non-empty tenant queue adds `drr_quantum` of credit, one dispatch costs
//! one unit, and a tenant's deficit resets when its queue drains. With the
//! default unit quantum this degenerates to fair round-robin, which is
//! exactly the property the fairness test pins: a noisy-neighbour tenant
//! cannot starve the quiet ones.

use crate::backend::{Backend, SolveResult};
use crate::batch::{drain_compatible, BatchClass, QueuedRequest};
use crate::cache::ResultCache;
use crate::error::ServiceError;
use crate::request::{CacheKey, Policy, SolveRequest};
use obs::Registry;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::Arc;

/// Gateway knobs. Costs are in virtual ticks.
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Admission bound: total requests queued across all tenants. Each
    /// tenant may hold at most `queue_capacity / n_tenants` of it, so a
    /// flooding tenant fills only its own share and is rejected at the
    /// door rather than crowding everyone else out of the queue.
    pub queue_capacity: usize,
    /// Virtual solve servers (concurrent batches in flight).
    pub n_servers: usize,
    /// Maximum right-hand sides per batched solve.
    pub max_nrhs: usize,
    /// Tenants (requests carry `tenant < n_tenants`).
    pub n_tenants: usize,
    /// Deficit round-robin credit added per visit; one dispatch costs 1.
    pub drr_quantum: f64,
    /// Ticks to serve a cache hit.
    pub hit_cost: u64,
    /// Fixed ticks per dispatched solve.
    pub batch_base_cost: u64,
    /// Ticks per CG iteration of the slowest column.
    pub cost_per_iteration: u64,
    /// Marginal ticks per additional right-hand side.
    pub cost_per_column: u64,
    /// Cross-check every Nth batch and every Nth hit against a fresh solo
    /// solve, bit-for-bit (0 disables).
    pub audit_every: u64,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            queue_capacity: 64,
            n_servers: 2,
            max_nrhs: 8,
            n_tenants: 4,
            drr_quantum: 1.0,
            hit_cost: 1,
            batch_base_cost: 16,
            cost_per_iteration: 4,
            cost_per_column: 2,
            audit_every: 0,
        }
    }
}

/// Everything the serve experiment reports. All fields are derived from
/// virtual time and bit-stable solver statistics only.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServeReport {
    pub submitted: u64,
    pub served: u64,
    pub rejected: u64,
    pub hits: u64,
    pub spill_hits: u64,
    pub coalesced: u64,
    pub solved_keys: u64,
    pub batches: u64,
    pub batched_columns: u64,
    pub sharded_solves: u64,
    pub recovered: u64,
    pub unconverged: u64,
    pub audits_passed: u64,
    pub latency_p50: f64,
    pub latency_p99: f64,
    pub max_queue_depth: u64,
    pub virtual_makespan: u64,
    pub per_tenant_served: Vec<u64>,
    pub per_tenant_rejected: Vec<u64>,
}

impl ServeReport {
    /// Fraction of served requests that did not trigger their own solve.
    pub fn hit_rate(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        (self.hits + self.spill_hits + self.coalesced) as f64 / self.served as f64
    }
}

/// A dispatched batch whose virtual completion is still in the future
/// (the completion time itself lives in the event heap).
struct PendingBatch {
    /// Unique keys solved by this batch, with their results.
    results: Vec<(CacheKey, Arc<SolveResult>)>,
    /// Request instances (original members and coalesced latecomers)
    /// completed by this batch: `(tenant, arrival)`.
    waiters: Vec<(u32, u64)>,
}

/// The gateway. Borrow a backend and a cache; `run` drives a request
/// stream to completion.
pub struct Gateway<'a> {
    backend: &'a Backend,
    cache: &'a ResultCache,
    cfg: GatewayConfig,
}

/// Compare two solutions bit-for-bit (stricter than `==`: distinguishes
/// `-0.0` from `0.0`).
fn bits_equal(a: &SolveResult, b: &SolveResult) -> bool {
    a.iterations == b.iterations
        && a.final_rel_residual.to_bits() == b.final_rel_residual.to_bits()
        && a.solution.len() == b.solution.len()
        && a.solution.iter().zip(b.solution.iter()).all(|(x, y)| {
            (0..4).all(|s| {
                (0..3).all(|c| {
                    x.s[s].c[c].re.to_bits() == y.s[s].c[c].re.to_bits()
                        && x.s[s].c[c].im.to_bits() == y.s[s].c[c].im.to_bits()
                })
            })
        })
}

impl<'a> Gateway<'a> {
    /// Bind a gateway over `backend` and `cache`.
    pub fn new(backend: &'a Backend, cache: &'a ResultCache, cfg: GatewayConfig) -> Self {
        Gateway {
            backend,
            cache,
            cfg,
        }
    }

    /// Solve `requests` (sorted by arrival) to completion and report.
    ///
    /// Every cache hit audited on the way (`audit_every`) is re-solved
    /// cold and compared bit-for-bit; every audited batch has its first
    /// column re-solved through the unbatched [`cg`] path likewise. A
    /// mismatch aborts the run with [`ServiceError::Audit`] — the service
    /// refuses to keep serving answers it cannot prove content-addressed.
    ///
    /// [`cg`]: lqcd_core::solver::cg
    pub fn run(&self, requests: &[SolveRequest]) -> Result<ServeReport, ServiceError> {
        let cfg = &self.cfg;
        let reg = Registry::current();
        let latency = reg.histogram("serve.latency_ticks", &exponential_bounds(1.0, 2.0, 28));
        let occupancy = reg.histogram(
            "serve.batch_occupancy",
            &linear_bounds(1.0, 1.0, cfg.max_nrhs.max(2)),
        );
        let depth_hist = reg.histogram("serve.queue_depth", &exponential_bounds(1.0, 2.0, 12));
        let depth_gauge = reg.gauge("serve.queue_depth");
        let c_hits = reg.counter("serve.hits");
        let c_spill = reg.counter("serve.spill_hits");
        let c_coal = reg.counter("serve.coalesced");
        let c_solved = reg.counter("serve.solved_keys");
        let c_rejected = reg.counter("serve.rejected");
        let c_batches = reg.counter("serve.batches");
        let c_recovered = reg.counter("serve.recovered");

        let mut report = ServeReport {
            per_tenant_served: vec![0; cfg.n_tenants],
            per_tenant_rejected: vec![0; cfg.n_tenants],
            ..ServeReport::default()
        };
        let per_tenant_cap = (cfg.queue_capacity / cfg.n_tenants.max(1)).max(1);

        let mut queues: Vec<VecDeque<QueuedRequest>> =
            (0..cfg.n_tenants).map(|_| VecDeque::new()).collect();
        let mut deficits = vec![0.0f64; cfg.n_tenants];
        let mut cursor = 0usize;
        let mut queued_total = 0usize;
        let mut servers = vec![0u64; cfg.n_servers.max(1)];
        let mut pending: Vec<PendingBatch> = Vec::new();
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let mut pending_keys: HashMap<CacheKey, usize> = HashMap::new();
        let mut seq = 0u64;
        let mut hit_seq = 0u64;
        let mut now = 0u64;
        let mut ai = 0usize;

        loop {
            let t_arr = requests.get(ai).map(|r| r.arrival.max(now));
            let t_comp = heap.peek().map(|Reverse((t, _))| *t);
            let t_disp = if queued_total > 0 {
                let t_free = servers.iter().copied().min().unwrap_or(0);
                Some(t_free.max(now))
            } else {
                None
            };

            // Earliest event wins; ties resolve completion → arrival →
            // dispatch so cache state is current before new work enters.
            enum Ev {
                Complete,
                Admit,
                Dispatch,
            }
            let mut best: Option<(u64, u8, Ev)> = None;
            let mut consider = |t: Option<u64>, pri: u8, ev: Ev| {
                if let Some(t) = t {
                    let better = match &best {
                        None => true,
                        Some((bt, bp, _)) => (t, pri) < (*bt, *bp),
                    };
                    if better {
                        best = Some((t, pri, ev));
                    }
                }
            };
            consider(t_comp, 0, Ev::Complete);
            consider(t_arr, 1, Ev::Admit);
            consider(t_disp, 2, Ev::Dispatch);

            let Some((t, _, ev)) = best else { break };
            now = t;
            match ev {
                Ev::Complete => {
                    let Some(Reverse((_, idx))) = heap.pop() else {
                        continue;
                    };
                    let batch = &mut pending[idx];
                    for (key, result) in batch.results.drain(..) {
                        pending_keys.remove(&key);
                        self.cache.insert(key, result);
                    }
                    for (tenant, arrival) in batch.waiters.drain(..) {
                        latency.record((now - arrival) as f64);
                        report.served += 1;
                        report.per_tenant_served[tenant as usize] += 1;
                    }
                }
                Ev::Admit => {
                    let req = requests[ai];
                    ai += 1;
                    seq += 1;
                    report.submitted += 1;
                    let tenant = (req.tenant as usize).min(cfg.n_tenants - 1);
                    let key = CacheKey::canonical(&req, self.backend.config_hash(req.config_id)?);

                    if let Some((cached, from_disk)) = self.cache.lookup(&key) {
                        hit_seq += 1;
                        if cfg.audit_every > 0 && hit_seq.is_multiple_of(cfg.audit_every) {
                            self.audit_hit(&req, &key, &cached)?;
                            report.audits_passed += 1;
                        }
                        latency.record(cfg.hit_cost as f64);
                        report.served += 1;
                        report.per_tenant_served[tenant] += 1;
                        if from_disk {
                            report.spill_hits += 1;
                            c_spill.add(1);
                        } else {
                            report.hits += 1;
                            c_hits.add(1);
                        }
                    } else if let Some(&idx) = pending_keys.get(&key) {
                        pending[idx].waiters.push((tenant as u32, req.arrival));
                        report.coalesced += 1;
                        c_coal.add(1);
                    } else if queued_total >= cfg.queue_capacity
                        || queues[tenant].len() >= per_tenant_cap
                    {
                        report.rejected += 1;
                        report.per_tenant_rejected[tenant] += 1;
                        c_rejected.add(1);
                    } else {
                        queues[tenant].push_back(QueuedRequest { req, key, seq });
                        queued_total += 1;
                    }
                    let d = queued_total as f64;
                    depth_gauge.set(d);
                    depth_hist.record(d);
                    report.max_queue_depth = report.max_queue_depth.max(queued_total as u64);
                }
                Ev::Dispatch => {
                    // Cheapest free server takes the batch.
                    let sid = min_index(&servers);
                    let tenant = next_tenant(&queues, &mut deficits, &mut cursor, cfg.drr_quantum);
                    let Some(head) = queues[tenant].pop_front() else {
                        continue;
                    };
                    queued_total -= 1;
                    if queues[tenant].is_empty() {
                        deficits[tenant] = 0.0;
                    }

                    let mut members = vec![head];
                    if let Some(class) = BatchClass::of(&head.req) {
                        let extra =
                            drain_compatible(&mut queues, class, cfg.max_nrhs - members.len());
                        queued_total -= extra.len();
                        members.extend(extra);
                        for (i, q) in queues.iter().enumerate() {
                            if q.is_empty() {
                                deficits[i] = 0.0;
                            }
                        }
                    }

                    let (results, waiters, service) = self.dispatch(&members, &mut report)?;
                    if matches!(head.req.policy, Policy::Dense) {
                        report.batches += 1;
                        report.batched_columns += results.len() as u64;
                        c_batches.add(1);
                        occupancy.record(results.len() as f64);
                        if cfg.audit_every > 0 && report.batches.is_multiple_of(cfg.audit_every) {
                            self.audit_batch(&members[0], &results[0].1)?;
                            report.audits_passed += 1;
                        }
                    }
                    report.solved_keys += results.len() as u64;
                    c_solved.add(results.len() as u64);
                    c_recovered.add(results.iter().filter(|(_, r)| r.recovered).count() as u64);

                    let completion = now + service;
                    servers[sid] = completion;
                    let idx = pending.len();
                    for (k, _) in &results {
                        pending_keys.insert(*k, idx);
                    }
                    pending.push(PendingBatch { results, waiters });
                    heap.push(Reverse((completion, idx)));
                    report.virtual_makespan = report.virtual_makespan.max(completion);
                }
            }
        }

        report.latency_p50 = latency.quantile(0.5);
        report.latency_p99 = latency.quantile(0.99);
        Ok(report)
    }

    /// Run the real solve for a formed batch; returns the unique-key
    /// results, the request instances to complete, and the modeled service
    /// time.
    #[allow(clippy::type_complexity)]
    fn dispatch(
        &self,
        members: &[QueuedRequest],
        report: &mut ServeReport,
    ) -> Result<(Vec<(CacheKey, Arc<SolveResult>)>, Vec<(u32, u64)>, u64), ServiceError> {
        let cfg = &self.cfg;
        let head = &members[0].req;
        let waiters: Vec<(u32, u64)> = members
            .iter()
            .map(|m| (m.req.tenant, m.req.arrival))
            .collect();
        match head.policy {
            Policy::Sharded => {
                let r = self.backend.solve_sharded(
                    head.config_id,
                    head.mass.to_bits(),
                    head.precision,
                    head.source_seed,
                )?;
                report.sharded_solves += 1;
                if r.recovered {
                    report.recovered += 1;
                }
                if !r.converged {
                    report.unconverged += 1;
                }
                let service = cfg.batch_base_cost + cfg.cost_per_iteration * r.iterations as u64;
                Ok((vec![(members[0].key, Arc::new(r))], waiters, service))
            }
            Policy::Dense => {
                // Unique keys in first-seen order become the RHS columns.
                let mut keys: Vec<CacheKey> = Vec::new();
                let mut seeds: Vec<u64> = Vec::new();
                for m in members {
                    if !keys.contains(&m.key) {
                        keys.push(m.key);
                        seeds.push(m.req.source_seed);
                    }
                }
                let solved = self.backend.solve_dense_batch(
                    head.config_id,
                    head.mass.to_bits(),
                    head.precision,
                    &seeds,
                )?;
                let mut max_iters = 0u64;
                let mut results = Vec::with_capacity(keys.len());
                for (k, r) in keys.into_iter().zip(solved) {
                    max_iters = max_iters.max(r.iterations as u64);
                    if !r.converged {
                        report.unconverged += 1;
                    }
                    results.push((k, Arc::new(r)));
                }
                let service = cfg.batch_base_cost
                    + cfg.cost_per_iteration * max_iters
                    + cfg.cost_per_column * (results.len() as u64 - 1);
                Ok((results, waiters, service))
            }
        }
    }

    /// Bit-identity audit of a served hit against a fresh cold solve.
    fn audit_hit(
        &self,
        req: &SolveRequest,
        key: &CacheKey,
        cached: &SolveResult,
    ) -> Result<(), ServiceError> {
        let fresh = match req.policy {
            Policy::Dense => self.backend.solve_dense_solo(
                req.config_id,
                req.mass.to_bits(),
                req.precision,
                req.source_seed,
            )?,
            Policy::Sharded => self.backend.solve_sharded(
                req.config_id,
                req.mass.to_bits(),
                req.precision,
                req.source_seed,
            )?,
        };
        if !bits_equal(&fresh, cached) {
            return Err(ServiceError::Audit(format!(
                "cache hit for {} is not bit-identical to a cold solve",
                key.file_stem()
            )));
        }
        Ok(())
    }

    /// Bit-identity audit of a batched column against the unbatched `cg`.
    fn audit_batch(
        &self,
        member: &QueuedRequest,
        batched: &SolveResult,
    ) -> Result<(), ServiceError> {
        let solo = self.backend.solve_dense_solo(
            member.req.config_id,
            member.req.mass.to_bits(),
            member.req.precision,
            member.req.source_seed,
        )?;
        if !bits_equal(&solo, batched) {
            return Err(ServiceError::Audit(format!(
                "batched column for {} is not bit-identical to the solo solve",
                member.key.file_stem()
            )));
        }
        Ok(())
    }
}

/// Index of the minimum element (first wins ties — deterministic).
fn min_index(v: &[u64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x < v[best] {
            best = i;
        }
    }
    best
}

/// Deficit round-robin tenant selection. Precondition: some queue is
/// non-empty.
fn next_tenant(
    queues: &[VecDeque<QueuedRequest>],
    deficits: &mut [f64],
    cursor: &mut usize,
    quantum: f64,
) -> usize {
    let quantum = quantum.max(0.05);
    let n = queues.len();
    loop {
        let t = *cursor;
        *cursor = (*cursor + 1) % n;
        if queues[t].is_empty() {
            continue;
        }
        deficits[t] += quantum;
        if deficits[t] >= 1.0 {
            deficits[t] -= 1.0;
            return t;
        }
    }
}

fn exponential_bounds(start: f64, factor: f64, n: usize) -> Vec<f64> {
    let mut bounds = Vec::with_capacity(n);
    let mut e = start;
    for _ in 0..n {
        bounds.push(e);
        e *= factor;
    }
    bounds
}

fn linear_bounds(start: f64, width: f64, n: usize) -> Vec<f64> {
    (0..n).map(|i| start + width * i as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendConfig;
    use crate::request::Precision;
    use crate::traffic::{generate, TrafficConfig};

    fn small_stream(n: usize) -> Vec<SolveRequest> {
        generate(&TrafficConfig {
            n_requests: n,
            n_configs: 2,
            n_seeds: 4,
            masses: vec![0.2],
            sharded_per_mille: 0,
            ..TrafficConfig::default()
        })
    }

    fn run(reqs: &[SolveRequest], cfg: GatewayConfig) -> ServeReport {
        let backend = Backend::new(BackendConfig {
            n_configs: 2,
            ..BackendConfig::default()
        })
        .expect("backend");
        let cache = ResultCache::new(64, None);
        Gateway::new(&backend, &cache, cfg)
            .run(reqs)
            .expect("gateway run")
    }

    #[test]
    fn everything_is_served_or_rejected_and_hits_dominate() {
        let reqs = small_stream(200);
        let report = run(
            &reqs,
            GatewayConfig {
                audit_every: 16,
                ..GatewayConfig::default()
            },
        );
        assert_eq!(report.submitted, 200);
        assert_eq!(report.served + report.rejected, 200);
        assert!(report.hit_rate() > 0.5, "hit rate {}", report.hit_rate());
        assert!(report.audits_passed > 0);
        assert!(report.latency_p99 >= report.latency_p50);
    }

    #[test]
    fn report_is_identical_across_pool_widths() {
        let reqs = small_stream(120);
        let cfg = GatewayConfig::default();
        let at = |w: usize| {
            let cfg = cfg.clone();
            let reqs = reqs.clone();
            rayon::ThreadPoolBuilder::new()
                .num_threads(w)
                .build()
                .expect("pool")
                .install(move || run(&reqs, cfg))
        };
        assert_eq!(at(1), at(4), "virtual-time report must be width-invariant");
    }

    #[test]
    fn noisy_neighbour_cannot_starve_quiet_tenants() {
        // Saturating load from tenant 0 plus a trickle from tenant 1:
        // admission may reject the flood, but tenant 1 must be served.
        let mut reqs: Vec<SolveRequest> = Vec::new();
        for i in 0..60u64 {
            reqs.push(SolveRequest {
                tenant: 0,
                config_id: 0,
                source_seed: 500 + i, // all distinct: no cache relief
                mass: 0.2,
                precision: Precision::Sloppy,
                policy: Policy::Dense,
                arrival: 1 + i,
            });
        }
        for i in 0..6u64 {
            reqs.push(SolveRequest {
                tenant: 1,
                config_id: 1,
                source_seed: 700 + i,
                mass: 0.2,
                precision: Precision::Sloppy,
                policy: Policy::Dense,
                arrival: 5 + 150 * i,
            });
        }
        reqs.sort_by_key(|r| r.arrival);
        let report = run(
            &reqs,
            GatewayConfig {
                queue_capacity: 12,
                max_nrhs: 4,
                n_servers: 1,
                ..GatewayConfig::default()
            },
        );
        // Per-tenant admission quotas keep the flood inside tenant 0's
        // share, and DRR alternates dispatch, so every quiet-tenant
        // request completes while the flood eats its own rejections.
        assert_eq!(report.per_tenant_served[1], 6, "{report:?}");
        assert!(report.per_tenant_rejected[0] > 0);
        assert!(report.per_tenant_served[0] > 0);
    }
}
