//! `gabench` — the end-to-end + per-layer benchmark of the gA production
//! path. See `README.md` for the workloads, the metrics and how to cite
//! them, and `../BENCHMARK.json` for the contract the binary is run under.
//!
//! ```text
//! gabench --workload W --seed S --seconds N --trace 0|1 [--quick]
//! gabench suite [--seed S] [--seconds N] [--runs K] [--quick] [--out FILE]
//! gabench check A.json B.json
//! ```

mod alloc;
mod check;
mod host;
mod probes;
mod rng;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use check::{Checker, Key};
use host::Host;
use obs::Json;
use spec::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{Tracer, HARNESS};
use workloads::{RoundOut, SetupArgs, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Smallest share of the traced rounds that named layer spans must cover.
const MIN_SPAN_COVERAGE: f64 = 0.95;

/// Directory for everything a run writes: inside the benchmark's own
/// directory, which is inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory removed when the value is dropped, on every exit path.
struct TempDir(PathBuf);

impl TempDir {
    fn create(path: PathBuf) -> std::io::Result<Self> {
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
}

/// Outcome of one run: the contract's result object.
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in the order of `spec`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(name, value, unit)| {
                            let m = Json::obj(vec![
                                ("value", Json::Num(*value)),
                                ("unit", Json::Str(unit.to_string())),
                            ]);
                            (name.to_string(), m)
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// What the timed region measured.
#[derive(Default)]
struct Region {
    untraced_secs: Vec<f64>,
    /// `traced / untraced − 1` per pair of rounds on one item.
    overheads: Vec<f64>,
    busy_secs: f64,
    ops: u64,
    attempted: u64,
    failed: u64,
    facts: Metrics,
    residual_max: f64,
    parallel_job_share: f64,
}

/// Run rounds for `seconds`, then the terminal stage. Closed loop: a round
/// starts when the previous one has returned. With `paired`, every item is
/// visited twice in a row, untraced then traced, so the two can be compared.
fn timed_region(
    w: &mut dyn Workload,
    seconds: f64,
    paired: bool,
    tr: &mut Tracer,
    checker: &mut Checker,
) -> Region {
    let mut reg = Region::default();
    let account = |reg: &mut Region, out: RoundOut, key: Key, checker: &mut Checker| {
        let wrong = !checker.check(key, &out.outputs);
        reg.attempted += out.attempted;
        reg.failed += if wrong { out.attempted } else { out.failed };
        reg.residual_max = reg.residual_max.max(out.residual_max);
        checker.problems.extend(out.problems);
        out.facts
    };
    let pool_before = rayon::pool_stats();
    let start = tr.now();
    let per_item = if paired { 2 } else { 1 };
    let mut all_secs = Vec::new();
    let mut rounds = 0usize;
    loop {
        let step = rounds / per_item;
        let item = step % w.items();
        let traced = paired && rounds % 2 == 1;
        tr.set_enabled(traced);
        let id = tr.enter(HARNESS, "round");
        let t0 = tr.now();
        let out = w.round(item, tr);
        let secs = tr.now() - t0;
        tr.exit(id);
        tr.set_enabled(false);
        w.between_rounds();

        reg.busy_secs += secs;
        reg.ops += w.ops_per_round();
        all_secs.push(secs);
        if traced {
            reg.overheads.push(secs / all_secs[rounds - 1] - 1.0);
        } else {
            reg.untraced_secs.push(secs);
        }
        let facts = account(&mut reg, out, Key::Item(item), checker);
        if step == 0 {
            reg.facts.extend(facts);
        }
        rounds += 1;

        // Stop once another round (or pair) would overshoot the time by
        // more than half of itself.
        let next = per_item as f64 * stats::median(&all_secs);
        let enough = tr.now() - start >= seconds - 0.5 * next;
        if rounds.is_multiple_of(per_item) && rounds / per_item >= w.min_rounds() && enough {
            break;
        }
    }
    let items_done = (rounds / per_item).min(w.items());

    tr.set_enabled(paired);
    let id = tr.enter(HARNESS, "finish");
    let t0 = tr.now();
    let out = w.finish(items_done, tr);
    reg.busy_secs += tr.now() - t0;
    tr.exit(id);
    tr.set_enabled(false);
    let facts = account(&mut reg, out, Key::Final(items_done), checker);
    reg.facts.extend(facts);

    let pool = rayon::pool_stats();
    let parallel = (pool.jobs - pool_before.jobs) as f64;
    let inline = (pool.sequential_jobs - pool_before.sequential_jobs) as f64;
    reg.parallel_job_share = parallel / (parallel + inline).max(1.0);
    reg
}

/// Per-layer metrics derived from the recorded spans: each layer's (and a
/// few named calls') self time as a share of the traced rounds.
fn span_metrics(tr: &Tracer, m: &mut Metrics) -> f64 {
    let total: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum();
    let by_layer = tr.self_time_by_layer();
    let by_name = tr.self_time_by_name();
    let layer = |l: &str| by_layer.get(l).copied().unwrap_or(0.0) / total;
    let call =
        |l: &'static str, n: &'static str| by_name.get(&(l, n)).copied().unwrap_or(0.0) / total;
    m.insert("prop.gauge_cast_share", call("core.prop", "gauge_cast"));
    m.insert("prop.solve_share", call("core.prop", "solve"));
    m.insert("fh.fh_propagator_share", layer("core.fh"));
    m.insert("contract.share", layer("core.contract"));
    m.insert("comms.share", layer("core.comms"));
    m.insert("io.share", layer("io"));
    m.insert("analysis.share", layer("analysis"));
    m.insert("service.share", layer("service"));
    m.insert("harness.share", layer(HARNESS));
    1.0 - layer(HARNESS)
}

pub fn run_once(opts: &RunOpts) -> Result<RunResult, String> {
    let host = Host::probe();
    // `RAYON_NUM_THREADS`, when set, still wins (the repository's CI contract).
    rayon::ThreadPoolBuilder::new()
        .num_threads(host.pool_width())
        .build_global()
        .map_err(|e| e.to_string())?;
    let root = TempDir::create(out_dir().join(format!("tmp-{}", std::process::id())))
        .map_err(|e| format!("cannot create {}: {e}", out_dir().display()))?;
    let mut tr = Tracer::new();

    // Set-up, several times over; the last one is kept and measured on.
    let mut setup_secs = Vec::new();
    let mut state: Option<(Box<dyn Workload>, TempDir)> = None;
    for i in 0..if opts.quick { 1 } else { 3 } {
        drop(state.take());
        let dir = TempDir::create(root.0.join(format!("setup-{i}"))).map_err(|e| e.to_string())?;
        let t0 = tr.now();
        let args = SetupArgs {
            seed: opts.seed,
            quick: opts.quick,
            dir: &dir.0,
        };
        let w = workloads::setup(&opts.workload, &args).ok_or_else(|| {
            format!(
                "unknown workload `{}` (one of {WORKLOADS:?})",
                opts.workload
            )
        })?;
        setup_secs.push(tr.now() - t0);
        state = Some((w, dir));
    }
    let (mut w, _dir) = state.expect("at least one set-up ran");

    let update_goldens = std::env::var_os("GABENCH_UPDATE_GOLDENS").is_some();
    // Goldens are recorded at full size; the checker matches their seed.
    let use_golden = !opts.quick && !update_goldens;
    let mut checker = Checker::new(&opts.workload, opts.seed, use_golden);
    let reg = timed_region(w.as_mut(), opts.seconds, opts.traced, &mut tr, &mut checker);
    let peak_rss = host::peak_rss_mib();

    let mut m = Metrics::new();
    if opts.traced {
        let probe_dir = TempDir::create(root.0.join("probes")).map_err(|e| e.to_string())?;
        m = probes::run(
            &probes::ProbeArgs {
                shape: w.shape(),
                seed: opts.seed,
                quick: opts.quick,
                host: &host,
                dir: &probe_dir.0,
            },
            &mut tr,
        );
        m.extend(reg.facts.clone());
        m.extend(w.extra_facts(&mut tr));
        let residual = m.entry("solver.reported_residual_max").or_insert(0.0);
        *residual = residual.max(reg.residual_max);
        let coverage = span_metrics(&tr, &mut m);
        if coverage < MIN_SPAN_COVERAGE {
            checker
                .problems
                .push(format!("spans cover only {coverage} of the traced rounds"));
        }
        m.insert("pool.parallel_job_share", reg.parallel_job_share);
        m.insert("trace.span_coverage", coverage);
        m.insert("trace.overhead_share", stats::median(&reg.overheads));
        m.insert("trace.rounds", reg.overheads.len() as f64);
        m.insert("check.output_rel_err_max", checker.rel_err_max);
        m.insert(
            "check.ops_failed_share",
            reg.failed as f64 / reg.attempted.max(1) as f64,
        );
        m.insert("check.items_checked", checker.items_checked() as f64);
        m.insert(
            "check.golden_compared",
            f64::from(u8::from(checker.has_golden())),
        );
        let path = out_dir().join(format!("trace-{}.json", opts.workload));
        std::fs::write(&path, tr.to_json().to_string_pretty()).map_err(|e| e.to_string())?;
    } else {
        m.insert("setup_s", stats::median(&setup_secs));
        m.insert("time_to_solution_s", stats::median(&reg.untraced_secs));
        m.insert("ops_per_s", reg.ops as f64 / reg.busy_secs);
        m.insert("peak_rss_mib", peak_rss);
    }

    if update_goldens {
        // The terminal stage over every prefix of the items visited.
        let visited = reg.untraced_secs.len().min(w.items());
        for n in w.min_rounds()..=visited {
            checker.check(Key::Final(n), &w.finish(n, &mut tr).outputs);
        }
        let path = check::golden_path(&opts.workload);
        std::fs::write(&path, checker.to_golden(opts.seed).to_string_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("gabench: wrote {}", path.display());
    }

    for p in &checker.problems {
        eprintln!("gabench: {}: {p}", opts.workload);
    }
    let table: &[(&str, &str)] = if opts.traced { &PER_LAYER } else { &END_TO_END };
    if let Some(stray) = m.keys().find(|k| !table.iter().any(|(name, _)| name == *k)) {
        return Err(format!("metric `{stray}` is set but not listed in spec.rs"));
    }
    Ok(RunResult {
        correct: reg.failed == 0 && checker.problems.is_empty(),
        attempted: reg.attempted,
        failed: reg.failed,
        metrics: table
            .iter()
            .map(|&(name, unit)| (name, m.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    })
}

const USAGE: &str = "usage:
  gabench --workload W --seed S --seconds N --trace 0|1 [--quick]
  gabench suite [--seed S] [--seconds N] [--runs K] [--quick] [--out FILE]
  gabench check A.json B.json
workloads: fh_small mobius_large contract_io serve_zipf sharded_ft";

/// `--flag value` pairs and bare `--quick`, in any order.
pub struct Flags(Vec<(String, String)>);

impl Flags {
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`"));
            }
            let value = if flag == "--quick" {
                "1".to_string()
            } else {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .clone()
            };
            out.push((flag[2..].to_string(), value));
        }
        Ok(Flags(out))
    }

    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().rev().find(|(n, _)| n == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{v}`")),
        }
    }

    pub fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !known.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown flag --{n}")),
            None => Ok(()),
        }
    }
}

fn run_command(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args)?;
    flags.only(&["workload", "seed", "seconds", "trace", "quick"])?;
    let quick = flags.get("quick", 0u8)? != 0;
    let opts = RunOpts {
        workload: flags.get("workload", String::new())?,
        seed: flags.get("seed", rng::DEFAULT_SEED)?,
        seconds: flags.get("seconds", if quick { 0.5 } else { 20.0 })?,
        traced: flags.get("trace", 0u8)? != 0,
        quick,
    };
    if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let result = run_once(&opts)?;
    println!(
        "workload {} seed {} trace {}",
        opts.workload,
        opts.seed,
        u8::from(opts.traced)
    );
    for (name, value, unit) in &result.metrics {
        println!("{name:<34} {value:>22} {unit}");
    }
    println!("{}", result.to_json());
    Ok(u8::from(!result.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite::run(&args[1..]),
        Some("check") if args.len() == 3 => check::compare(&args[1], &args[2]),
        Some("run") => run_command(&args[1..]),
        Some(first) if first.starts_with("--") => run_command(&args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("gabench: {message}");
            ExitCode::from(2)
        }
    }
}
