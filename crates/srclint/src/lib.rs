//! `srclint` — workspace-specific static analysis.
//!
//! The paper reproduction's headline guarantee is *reproducibility*:
//! bit-identical reductions at any thread width, injectable clocks so
//! simulations are deterministic, and I/O that surfaces corruption as
//! `Err` instead of panicking mid-campaign. Those invariants are easy to
//! erode one innocuous line at a time, so this crate machine-enforces
//! them, exactly as clippy/rustfmt already enforce style in CI:
//!
//! - **R1 `unsafe-no-safety-comment`** — every `unsafe` block, fn, or impl
//!   must carry an adjacent `// SAFETY:` justification.
//! - **R2 `nondeterminism`** — raw time (`Instant::now`, `SystemTime::now`),
//!   ad-hoc threading (`std::thread::spawn`), and entropy-seeded RNGs are
//!   banned outside the sanctioned modules (`obs::clock`, the pool's
//!   internal busy-time accounting, bench timers).
//! - **R3 `panic-site`** — `unwrap()`/`expect()`/`panic!()` are banned in
//!   non-test library code of the crates that run unattended at scale
//!   (`core`, `io`, `jobmgr`, `obs`).
//! - **R4 `layering`** — the crate dependency graph parsed from each
//!   `Cargo.toml` plus actual `use`/path references must respect the layer
//!   policy (`core` never depends on `jobmgr`/`bench`/`io`; `obs` depends
//!   on nothing in-workspace), and declared dependencies must be used.
//! - **R5 `unordered-float-reduce`** — direct `.sum()`/`.reduce()` on a
//!   parallel iterator chain is banned outside the deterministic
//!   `blas`/`contract` reducers: order-dependent float accumulation must
//!   go through the fixed-shape chunk reducers that make results
//!   bit-identical at any width.
//! - **R6 `atomic-ordering`** — `Ordering::Relaxed` on shared atomics is
//!   banned outside an audited allowlist (the pool's chunk cursor and
//!   stats, the obs delta counters, the transport fault counters): relaxed
//!   accesses carry no happens-before edge, so the checkmate race detector
//!   and TSan both treat them as unsynchronized. Every allowlisted file
//!   holds only monotone counters whose readers tolerate staleness; any
//!   new relaxed site must either justify itself into the allowlist or use
//!   acquire/release.
//!
//! Pre-existing violations live in a committed `lint-baseline.json` of
//! `(rule, path, content-hash)` suppressions: moved-but-unfixed code stays
//! suppressed, fixed code cannot silently regress (its suppression goes
//! stale and `--check` demands a baseline shrink), and new violations fail
//! CI. See `repro lint` in `crates/bench` for the CLI.

pub mod baseline;
pub mod layering;
pub mod lexer;
pub mod report;
pub mod rules;

use std::path::{Path, PathBuf};

/// Stable rule identifiers (also the `rule` field in baseline entries).
pub mod rule_ids {
    pub const UNSAFE_NO_SAFETY: &str = "R1-unsafe-no-safety-comment";
    pub const NONDETERMINISM: &str = "R2-nondeterminism";
    pub const PANIC_SITE: &str = "R3-panic-site";
    pub const LAYERING: &str = "R4-layering";
    pub const FLOAT_REDUCE: &str = "R5-unordered-float-reduce";
    pub const ATOMIC_ORDERING: &str = "R6-atomic-ordering";
    /// All rules, in report order.
    pub const ALL: [&str; 6] = [
        UNSAFE_NO_SAFETY,
        NONDETERMINISM,
        PANIC_SITE,
        LAYERING,
        FLOAT_REDUCE,
        ATOMIC_ORDERING,
    ];
}

/// One rule violation at a source location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier from [`rule_ids`].
    pub rule: &'static str,
    /// Path relative to the scan root, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// FNV-1a 64 hash (hex) of the trimmed line content — the
    /// baseline-suppression key, robust to the line moving within the file.
    pub content_hash: String,
}

impl Finding {
    fn new(rule: &'static str, path: &str, line: u32, message: String, content: &str) -> Self {
        Finding {
            rule,
            path: path.to_string(),
            line,
            message,
            content_hash: fnv64_hex(content.trim()),
        }
    }
}

/// FNV-1a 64-bit hash, rendered as 16 hex digits. Deliberately simple: the
/// baseline only needs collision resistance against accidental matches
/// between source lines, not an adversary.
// The linter sits below `lqcd-core`: it keeps its own FNV-1a rather than that crate's.
pub fn fnv64_hex(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// What to scan and which repo-specific exemptions apply. Paths are
/// relative to the scan root with forward slashes.
#[derive(Clone, Debug)]
pub struct Config {
    /// Files where R2's banned constructs are the implementation of the
    /// sanctioned abstraction itself (clock internals, pool busy-time
    /// accounting) or are bench-harness timers.
    pub sanctioned_nondet: Vec<String>,
    /// Path prefixes R3 applies to (the unattended-at-scale crates).
    pub panic_scope: Vec<String>,
    /// Files exempt from R5 — the deterministic reducers themselves, plus
    /// the vendored pool internals they are built on.
    pub float_reduce_exempt: Vec<String>,
    /// Files where R6's `Ordering::Relaxed` is audited and allowed: every
    /// relaxed atomic there is a monotone stats counter (or the pool's
    /// claim-by-fetch_add chunk cursor) whose readers tolerate staleness
    /// and never derive ordering from the value.
    pub atomic_relaxed_allow: Vec<String>,
    /// Layer policy: (package, forbidden dependency packages).
    pub forbidden_deps: Vec<(String, Vec<String>)>,
    /// Packages that must not depend on anything in-workspace.
    pub isolated_packages: Vec<String>,
    /// Directory names never descended into.
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    /// The policy for *this* repository.
    fn default() -> Self {
        Config {
            sanctioned_nondet: vec![
                "crates/obs/src/clock.rs".into(),
                "vendor/rayon/src/pool.rs".into(),
            ],
            panic_scope: vec![
                "crates/core/src/".into(),
                "crates/io/src/".into(),
                "crates/jobmgr/src/".into(),
                "crates/obs/src/".into(),
                "crates/service/src/".into(),
            ],
            float_reduce_exempt: vec![
                "crates/core/src/blas.rs".into(),
                "crates/core/src/contract.rs".into(),
                "vendor/".into(),
            ],
            atomic_relaxed_allow: vec![
                // Pool chunk cursor (claim via fetch_add: the returned index
                // is the claim, no ordering needed) and per-worker stats.
                "vendor/rayon/src/pool.rs".into(),
                // Delta counters/gauges/histograms: monotone, snapshot reads.
                "crates/obs/src/metrics.rs".into(),
                // Busy-time publication counter (swap, monotone).
                "crates/core/src/threads.rs".into(),
                // Fault-injection and pack/unpack stats counters.
                "crates/core/src/comms/transport.rs".into(),
                "crates/core/src/comms/kernel.rs".into(),
            ],
            forbidden_deps: vec![
                (
                    "lqcd-core".into(),
                    vec!["mpi-jm".into(), "bench".into(), "lattice-io".into()],
                ),
                ("srclint".into(), vec!["lqcd-core".into(), "mpi-jm".into()]),
            ],
            isolated_packages: vec!["obs".into()],
            skip_dirs: vec![
                ".git".into(),
                "target".into(),
                "fixtures".into(),
                "goldens".into(),
                "results".into(),
            ],
        }
    }
}

/// Is `path` (relative, forward slashes) test code by location? Covers
/// integration-test trees (`tests/…`, `…/tests/…`), in-crate `tests.rs`
/// modules, benches, and examples.
fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.contains("/tests/")
        || path.ends_with("/tests.rs")
        || path.contains("/benches/")
        || path.starts_with("examples/")
        || path.contains("/examples/")
}

/// Recursively collect `*.rs` files under `root`, sorted for determinism.
fn rust_files(root: &Path, cfg: &Config) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if !cfg.skip_dirs.iter().any(|s| s == name) {
                    stack.push(p);
                }
            } else if p.extension().and_then(|e| e.to_str()) == Some("rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// `path` relative to `root`, forward slashes.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Run every rule over the workspace at `root`. Findings are sorted by
/// (path, line, rule) so output is deterministic.
pub fn scan_workspace(root: &Path, cfg: &Config) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for file in rust_files(root, cfg)? {
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue; // non-UTF-8: nothing token-level to say about it
        };
        let relpath = rel(root, &file);
        findings.extend(rules::check_file(&relpath, &src, cfg));
    }
    findings.extend(layering::check_layering(root, cfg)?);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule)));
    Ok(findings)
}
