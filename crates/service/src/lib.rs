//! Solve-service front end: a thread-pool-backed gateway over the batched
//! Krylov solvers with a content-addressed result cache.
//!
//! The paper's production campaign served millions of propagator solves
//! against a few thousand gauge configurations; the same (configuration,
//! source, mass, precision) system recurs constantly across contraction
//! jobs. This crate packages that workload shape as a service:
//!
//! - [`request`] — the canonical solve-request schema and the
//!   collision-safe [`request::CacheKey`] derived from it (config *content*
//!   hash, mass as raw `f64` bits — never a formatted string);
//! - [`cache`] — a sharded-safe content-addressed result cache with LRU
//!   eviction, in-flight deduplication (two racing misses → one solve), and
//!   CRC-gated spill to one slab file per cache, one extent per key;
//! - [`batch`] — grouping of compatible queued requests (same
//!   configuration, mass, precision) into one multi-RHS [`cg_block`] solve;
//! - [`gateway`] — admission control over a bounded queue, deficit
//!   round-robin fairness across tenants, and a deterministic virtual-time
//!   event loop so latency statistics are bit-stable at any pool width;
//! - [`traffic`] — a splitmix64-seeded, Zipf-distributed synthetic request
//!   generator for the `repro serve` experiment;
//! - [`backend`] — the actual solves: dense batched `cg_block` over the
//!   Wilson normal operator, and fault-tolerant `cg_ft` over the sharded
//!   Möbius operator for requests routed through the degraded-comms path.
//!
//! All parallelism happens inside the solver kernels on the deterministic
//! work-stealing pool; the service spawns no threads of its own and reads
//! no wall clocks, so every response — and every metric derived from the
//! virtual clock — is bit-identical across machines and thread counts.
//!
//! [`cg_block`]: lqcd_core::solver::cg_block

pub mod backend;
pub mod batch;
pub mod cache;
pub mod error;
pub mod gateway;
pub mod request;
pub mod traffic;

pub use backend::{Backend, BackendConfig, SolveResult};
pub use batch::BatchClass;
pub use cache::{CacheOutcome, CacheStats, ResultCache};
pub use error::ServiceError;
pub use gateway::{Gateway, GatewayConfig, ServeReport};
pub use request::{CacheKey, Policy, Precision, SolveRequest};
pub use traffic::{generate, TrafficConfig};
