//! `repro bench` — threaded micro-benchmarks of the hot kernels.
//!
//! Runs the dslash / BLAS / contraction kernels at pool width 1 and at a
//! "high" width (max of 4 and the machine's available parallelism), then
//! emits a machine-readable `BENCH_kernels.json` and a human-readable
//! `bench.md` table with GiB/s, Gflop/s, and the N-thread speedup.
//!
//! The harness keeps its own best-of-N wall-clock timer: one warmup call,
//! then `reps` timed calls, reporting the minimum (least-noise) iteration.
//!
//! Byte counts are per-application traffic estimates (spinors and links
//! actually touched, assuming no cache reuse); flop counts come from each
//! operator's own [`LinearOp::flops_per_apply`] accounting or from the
//! standard per-site BLAS/contraction formulas. Both are documented next to
//! each kernel below so the derived GiB/s and Gflop/s are auditable.
//!
//! Before timing, the dslash operators are run through
//! [`tune_dslash_variant`], so each dslash row reports the execution
//! variant (`aos` / `aos_fused` / `soa`) the layout-aware autotuner picked
//! on this machine. Each row also carries its arithmetic intensity
//! (flops/byte, from the same traffic model) and its width-1 bandwidth as a
//! percentage of a STREAM-like triad bound measured by the harness itself,
//! so compute-bound and bandwidth-bound kernels are distinguishable at a
//! glance.

use crate::output::{print_table, ExperimentOutput};
use autotune::Tuner;
use lqcd_core::prelude::*;
use obs::Json;
use std::time::Instant;

/// Bench JSON schema version. Bump whenever `BENCH_kernels.json` gains,
/// loses, or renames a field, and regenerate the committed file (checked by
/// `repro bench --check-schema`). v2: per-kernel `variant`,
/// `arith_intensity`, `pct_stream_w1`; config `stream_gib_s_w1`.
pub const BENCH_SCHEMA_VERSION: f64 = 2.0;

/// Options for the bench subcommand.
#[derive(Default)]
pub struct BenchOpts {
    /// Fewer repetitions — for CI smoke runs.
    pub quick: bool,
}

/// Bytes of one `Spinor<R>`: 4 spin × 3 color × 2 reals.
fn spinor_bytes(real_bytes: f64) -> f64 {
    4.0 * 3.0 * 2.0 * real_bytes
}

/// Bytes of one `Su3<R>` link: 3×3 complex.
fn link_bytes(real_bytes: f64) -> f64 {
    3.0 * 3.0 * 2.0 * real_bytes
}

/// One benchmark kernel: a closure plus its per-iteration traffic/flops.
struct Kernel<'a> {
    name: &'static str,
    /// Autotuned execution variant for dslash rows, `"-"` for fixed-path
    /// kernels (BLAS, contractions).
    variant: String,
    bytes_per_iter: f64,
    flops_per_iter: f64,
    reps: usize,
    run: Box<dyn FnMut() + Send + 'a>,
}

/// Best-of-`reps` wall-clock seconds for one call of `run` (after a warmup).
fn time_best(reps: usize, run: &mut (dyn FnMut() + Send)) -> f64 {
    run();
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Timing of one kernel at each width, in the order of `widths`.
struct Timed {
    name: &'static str,
    variant: String,
    bytes_per_iter: f64,
    flops_per_iter: f64,
    seconds: Vec<f64>,
}

impl Timed {
    /// Arithmetic intensity (flops per byte of modeled traffic).
    fn arith_intensity(&self) -> f64 {
        if self.bytes_per_iter > 0.0 {
            self.flops_per_iter / self.bytes_per_iter
        } else {
            0.0
        }
    }
}

fn run_kernels(widths: &[usize], kernels: &mut [Kernel<'_>]) -> Vec<Timed> {
    let mut results: Vec<Timed> = kernels
        .iter()
        .map(|k| Timed {
            name: k.name,
            variant: k.variant.clone(),
            bytes_per_iter: k.bytes_per_iter,
            flops_per_iter: k.flops_per_iter,
            seconds: Vec::new(),
        })
        .collect();
    for &w in widths {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(w)
            .build()
            .expect("bench pool handle");
        let slot: Vec<f64> = pool.install(|| {
            kernels
                .iter_mut()
                .map(|k| {
                    let s = time_best(k.reps, &mut *k.run);
                    println!("  [{w} thread(s)] {:<24} {:>10.3} ms", k.name, s * 1e3);
                    s
                })
                .collect()
        });
        for (r, s) in results.iter_mut().zip(slot) {
            r.seconds.push(s);
        }
    }
    results
}

/// Run the benchmark suite and write `BENCH_kernels.json` + `bench.md`.
pub fn run_bench(out: &ExperimentOutput, opts: &BenchOpts) -> std::io::Result<()> {
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let hi = avail.max(4);
    let widths = [1usize, hi];
    let (reps, reps_heavy) = if opts.quick { (2, 1) } else { (20, 5) };

    println!("repro bench: widths {widths:?}, available_parallelism {avail}");

    // --- kernel setup (fixed seeds; sizes match benches/dslash.rs) ---
    let lat = Lattice::new([8, 8, 8, 16]);
    let vol = lat.volume() as f64;
    let gauge64 = GaugeField::<f64>::hot(&lat, 3);
    let gauge32 = gauge64.cast::<f32>();
    let mut d64 = WilsonDirac::new(&lat, &gauge64, 0.1, true);
    let mut d32 = WilsonDirac::new(&lat, &gauge32, 0.1, true);
    let src64 = FermionField::<f64>::gaussian(lat.volume(), 1).data;
    let src32 = FermionField::<f32>::gaussian(lat.volume(), 1).data;
    let mut out64 = vec![Spinor::<f64>::zero(); lat.volume()];
    let mut out32 = vec![Spinor::<f32>::zero(); lat.volume()];

    let lat5 = Lattice::new([8, 8, 8, 8]);
    let gauge5 = GaugeField::<f64>::hot(&lat5, 5);
    let mut prec = PrecMobius::new(&lat5, &gauge5, MobiusParams::standard(8, 0.1));
    let src5 = FermionField::<f64>::gaussian(prec.vec_len(), 2).data;
    let mut out5 = vec![Spinor::<f64>::zero(); prec.vec_len()];

    // Autotune each dslash operator's (variant, grain) at width 1 — the
    // timed rows below then exercise exactly what the tuner selected, and
    // the winner's name is attached to the row. Every variant is
    // bit-identical, so tuning only affects speed.
    let tuner = Tuner::new();
    let tune_pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("bench tune pool");
    let (vw64, vw32, vprec) = tune_pool.install(|| {
        (
            tune_dslash_variant(&tuner, &mut d64).0,
            tune_dslash_variant(&tuner, &mut d32).0,
            tune_dslash_variant(&tuner, &mut prec).0,
        )
    });
    println!(
        "autotuned variants: wilson_f64={} wilson_f32={} mobius_prec_f64={}",
        vw64.name(),
        vw32.name(),
        vprec.name()
    );
    let (d64, d32, prec) = (&d64, &d32, &prec);

    // STREAM-like triad bound at width 1, used for the %STREAM column.
    let stream_gib_s = measure_stream_w1(reps);
    println!("stream triad (width 1): {stream_gib_s:.2} GiB/s");

    const BLAS_LEN: usize = 32_768;
    let bx = FermionField::<f64>::gaussian(BLAS_LEN, 11).data;
    let mut by = FermionField::<f64>::gaussian(BLAS_LEN, 12).data;

    let prop = Propagator {
        columns: (0..12)
            .map(|i| FermionField::<f64>::gaussian(lat.volume(), 200 + i))
            .collect(),
        source_site: 0,
        source_time: 0,
    };
    let projector = lqcd_core::gamma::polarized_projector();

    // Wilson dslash traffic per site: 8 neighbor spinors read + 1 written,
    // 8 links read.
    let wilson_bytes = |rb: f64| vol * (9.0 * spinor_bytes(rb) + 8.0 * link_bytes(rb));
    // Preconditioned Möbius traffic per 5D site: 8 neighbor + 2 Ls-coupled
    // spinors read + 1 written; 8 links read per underlying 4D half-site.
    let mobius_bytes = {
        let sites5 = prec.vec_len() as f64;
        let half4 = lat5.volume() as f64 / 2.0;
        sites5 * 11.0 * spinor_bytes(8.0) + half4 * 8.0 * link_bytes(8.0)
    };
    // BLAS per site (24 reals): axpy = 2 flops/real, read x+y write y;
    // dot = 8 flops/complex over 12 complex, read x+y;
    // norm2 = 4 flops/complex, read x.
    let n = BLAS_LEN as f64;
    let sb = spinor_bytes(8.0);
    // Pion: 12 columns × 24 reals × (1 mul + 1 add); reads 12 column spinors
    // per site. Proton: traffic-bound epsilon contraction, reads three
    // 12-spinor site matrices per site; flop count not modeled (reported 0).
    let d64_flops = d64.flops_per_apply();
    let d32_flops = d32.flops_per_apply();
    let prec_flops = prec.flops_per_apply();

    let mut kernels = vec![
        Kernel {
            name: "dslash_wilson_f64",
            variant: vw64.name().to_string(),
            bytes_per_iter: wilson_bytes(8.0),
            flops_per_iter: d64_flops,
            reps,
            run: Box::new(|| d64.apply(&mut out64, &src64)),
        },
        Kernel {
            name: "dslash_wilson_f32",
            variant: vw32.name().to_string(),
            bytes_per_iter: wilson_bytes(4.0),
            flops_per_iter: d32_flops,
            reps,
            run: Box::new(|| d32.apply(&mut out32, &src32)),
        },
        Kernel {
            name: "dslash_mobius_prec_f64",
            variant: vprec.name().to_string(),
            bytes_per_iter: mobius_bytes,
            flops_per_iter: prec_flops,
            reps,
            run: Box::new(|| prec.apply(&mut out5, &src5)),
        },
        Kernel {
            name: "blas_axpy_32768",
            variant: "-".to_string(),
            bytes_per_iter: n * 3.0 * sb,
            flops_per_iter: n * 48.0,
            reps,
            run: Box::new(|| blas::axpy(1.0000001, &bx, &mut by)),
        },
        Kernel {
            name: "blas_dot_32768",
            variant: "-".to_string(),
            bytes_per_iter: n * 2.0 * sb,
            flops_per_iter: n * 96.0,
            reps,
            run: Box::new(|| {
                std::hint::black_box(blas::dot(&bx, std::hint::black_box(&bx)));
            }),
        },
        Kernel {
            name: "blas_norm2_32768",
            variant: "-".to_string(),
            bytes_per_iter: n * sb,
            flops_per_iter: n * 48.0,
            reps,
            run: Box::new(|| {
                std::hint::black_box(blas::norm_sqr(std::hint::black_box(&bx)));
            }),
        },
        Kernel {
            name: "contract_pion",
            variant: "-".to_string(),
            bytes_per_iter: vol * 12.0 * sb,
            flops_per_iter: vol * 12.0 * 48.0,
            reps,
            run: Box::new(|| {
                std::hint::black_box(pion_correlator(&lat, std::hint::black_box(&prop)));
            }),
        },
        Kernel {
            name: "contract_proton",
            variant: "-".to_string(),
            bytes_per_iter: vol * 3.0 * 12.0 * sb,
            flops_per_iter: 0.0,
            reps: reps_heavy,
            run: Box::new(|| {
                std::hint::black_box(proton_correlator(
                    &lat,
                    std::hint::black_box(&prop),
                    &prop,
                    &projector,
                ));
            }),
        },
    ];

    let timed = run_kernels(&widths, &mut kernels);

    // --- emit JSON ---
    let kernel_json: Vec<Json> = timed
        .iter()
        .map(|t| {
            let t1 = t.seconds[0];
            let tn = t.seconds[1];
            let gib1 = gib_per_s(t.bytes_per_iter, t1);
            Json::obj(vec![
                ("name", Json::Str(t.name.to_string())),
                ("variant", Json::Str(t.variant.clone())),
                ("bytes_per_iter", Json::Num(t.bytes_per_iter)),
                ("flops_per_iter", Json::Num(t.flops_per_iter)),
                ("arith_intensity", Json::Num(t.arith_intensity())),
                ("seconds_w1", Json::Num(t1)),
                ("seconds_wN", Json::Num(tn)),
                ("gib_per_s_w1", Json::Num(gib1)),
                ("gib_per_s_wN", Json::Num(gib_per_s(t.bytes_per_iter, tn))),
                (
                    "pct_stream_w1",
                    Json::Num(100.0 * gib1 / stream_gib_s.max(1e-12)),
                ),
                (
                    "gflop_per_s_w1",
                    Json::Num(gflop_per_s(t.flops_per_iter, t1)),
                ),
                (
                    "gflop_per_s_wN",
                    Json::Num(gflop_per_s(t.flops_per_iter, tn)),
                ),
                ("speedup", Json::Num(t1 / tn)),
            ])
        })
        .collect();
    let json = Json::obj(vec![
        ("experiment", Json::Str("bench".to_string())),
        ("schema_version", Json::Num(BENCH_SCHEMA_VERSION)),
        (
            "config",
            Json::obj(vec![
                ("width_low", Json::Num(1.0)),
                ("width_high", Json::Num(hi as f64)),
                ("available_parallelism", Json::Num(avail as f64)),
                ("stream_gib_s_w1", Json::Num(stream_gib_s)),
                ("quick", Json::Bool(opts.quick)),
            ]),
        ),
        ("kernels", Json::Arr(kernel_json)),
    ]);
    let json_path = out.path("BENCH_kernels.json");
    std::fs::write(&json_path, json.to_string_pretty() + "\n")?;

    // --- emit markdown + console table ---
    let mut md = String::new();
    md.push_str("# Kernel benchmarks (`repro bench`)\n\n");
    md.push_str(&format!(
        "Pool widths: 1 and {hi} (available_parallelism on the generating \
         machine: {avail}). Best-of-N wall-clock per kernel application; \
         bytes/flops models are documented in \
         `crates/bench/src/experiments/kernels.rs`.\n\n"
    ));
    if avail < hi {
        md.push_str(&format!(
            "> **Note:** the generating machine exposes only {avail} CPU(s), \
             so the {hi}-thread column oversubscribes a single core and the \
             speedup column reflects scheduling overhead, not scaling. On a \
             machine with ≥{hi} cores the same harness measures real \
             multi-core speedup.\n\n"
        ));
    }
    md.push_str(&format!(
        "Measured STREAM-like triad bound at width 1: {stream_gib_s:.2} \
         GiB/s. `AI` is arithmetic intensity (flops per modeled byte); \
         `%STREAM @1` is the kernel's width-1 bandwidth relative to that \
         bound; kernels whose working set fits in cache can exceed 100%. \
         `variant` is the execution path the layout-aware autotuner \
         selected for each dslash row (`-` for fixed-path kernels).\n\n"
    ));
    md.push_str(
        "| kernel | variant | AI (F/B) | GiB/s @1 | %STREAM @1 | GiB/s @N \
         | Gflop/s @1 | Gflop/s @N | speedup |\n",
    );
    md.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|\n");
    let mut rows = Vec::new();
    for t in &timed {
        let (t1, tn) = (t.seconds[0], t.seconds[1]);
        let gib1 = gib_per_s(t.bytes_per_iter, t1);
        let cells = [
            t.variant.clone(),
            format!("{:.3}", t.arith_intensity()),
            format!("{gib1:.2}"),
            format!("{:.1}%", 100.0 * gib1 / stream_gib_s.max(1e-12)),
            format!("{:.2}", gib_per_s(t.bytes_per_iter, tn)),
            format!("{:.2}", gflop_per_s(t.flops_per_iter, t1)),
            format!("{:.2}", gflop_per_s(t.flops_per_iter, tn)),
            format!("{:.2}x", t1 / tn),
        ];
        md.push_str(&format!("| {} | {} |\n", t.name, cells.join(" | ")));
        let mut row = vec![t.name.to_string()];
        row.extend(cells);
        rows.push(row);
    }
    std::fs::write(out.path("bench.md"), md)?;
    print_table(
        "kernel benchmarks",
        &[
            "kernel",
            "variant",
            "AI (F/B)",
            "GiB/s @1",
            "%STREAM @1",
            "GiB/s @N",
            "Gflop/s @1",
            "Gflop/s @N",
            "speedup",
        ],
        &rows,
    );
    println!("wrote {} and bench.md", json_path.display());
    Ok(())
}

/// Measure a STREAM-like bandwidth bound at width 1: best-of-`reps` `axpy`
/// (2 reads + 1 write per element, like STREAM triad) over a working set
/// several times larger than typical last-level caches, so the figure
/// reflects memory bandwidth rather than cache throughput.
fn measure_stream_w1(reps: usize) -> f64 {
    // 131072 spinors × 192 B ≈ 24 MiB per array, ~72 MiB of traffic/iter.
    const STREAM_LEN: usize = 1 << 17;
    let x = FermionField::<f64>::gaussian(STREAM_LEN, 31).data;
    let mut y = FermionField::<f64>::gaussian(STREAM_LEN, 32).data;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("stream pool");
    let secs = pool.install(|| time_best(reps, &mut || blas::axpy(1.0000001, &x, &mut y)));
    gib_per_s(STREAM_LEN as f64 * 3.0 * spinor_bytes(8.0), secs)
}

fn gib_per_s(bytes: f64, secs: f64) -> f64 {
    bytes / secs / (1024.0 * 1024.0 * 1024.0)
}

fn gflop_per_s(flops: f64, secs: f64) -> f64 {
    flops / secs / 1e9
}

/// Flatten a JSON value into sorted `path` strings describing its shape
/// (object keys and array element shape, ignoring scalar values).
pub fn schema_paths(j: &Json, path: &str, acc: &mut Vec<String>) {
    match j {
        Json::Obj(pairs) => {
            for (k, v) in pairs {
                schema_paths(v, &format!("{path}/{k}"), acc);
            }
            if pairs.is_empty() {
                acc.push(format!("{path}:{{}}"));
            }
        }
        Json::Arr(items) => {
            acc.push(format!("{path}:[]"));
            if let Some(first) = items.first() {
                schema_paths(first, &format!("{path}[]"), acc);
            }
        }
        _ => acc.push(path.to_string()),
    }
}

/// Compare the structural schema of a committed `BENCH_kernels.json` against
/// a reference produced by this build. Returns the mismatching paths
/// (empty = schemas agree).
pub fn schema_diff(committed: &Json, fresh: &Json) -> Vec<String> {
    let mut a = Vec::new();
    let mut b = Vec::new();
    schema_paths(committed, "", &mut a);
    schema_paths(fresh, "", &mut b);
    a.sort();
    a.dedup();
    b.sort();
    b.dedup();
    let mut diff = Vec::new();
    for p in &a {
        if !b.contains(p) {
            diff.push(format!("only in committed file: {p}"));
        }
    }
    for p in &b {
        if !a.contains(p) {
            diff.push(format!("missing from committed file: {p}"));
        }
    }
    diff
}

/// `--check-schema FILE`: verify that a committed benchmark JSON still has
/// the schema this build produces. Exits non-zero on mismatch.
pub fn check_schema(out: &ExperimentOutput, file: &str) {
    let committed = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("repro bench --check-schema: cannot read {file}: {e}");
        std::process::exit(1);
    });
    let committed = Json::parse(&committed).expect("parse committed benchmark JSON");
    let fresh_path = out.path("BENCH_kernels.json");
    let fresh = std::fs::read_to_string(&fresh_path).unwrap_or_else(|e| {
        eprintln!(
            "repro bench --check-schema: cannot read {}: {e} (run `repro bench` first)",
            fresh_path.display()
        );
        std::process::exit(1);
    });
    let fresh = Json::parse(&fresh).expect("parse fresh benchmark JSON");
    let diff = schema_diff(&committed, &fresh);
    if diff.is_empty() {
        println!("schema check OK: {file} matches the current bench schema");
    } else {
        eprintln!("schema mismatch between {file} and this build:");
        for d in &diff {
            eprintln!("  {d}");
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_diff_accepts_identical_shapes_with_different_values() {
        let a = Json::parse(r#"{"kernels":[{"name":"a","speedup":1.0}],"n":1}"#).unwrap();
        let b = Json::parse(r#"{"kernels":[{"name":"b","speedup":3.9}],"n":7}"#).unwrap();
        assert!(schema_diff(&a, &b).is_empty());
    }

    #[test]
    fn schema_diff_reports_missing_and_extra_keys() {
        let a = Json::parse(r#"{"kernels":[{"name":"a"}],"extra":1}"#).unwrap();
        let b = Json::parse(r#"{"kernels":[{"name":"a","speedup":1.0}]}"#).unwrap();
        let diff = schema_diff(&a, &b);
        assert!(diff.iter().any(|d| d.contains("only in committed")));
        assert!(diff.iter().any(|d| d.contains("missing from committed")));
    }

    #[test]
    fn throughput_conversions() {
        assert!((gib_per_s(1024.0 * 1024.0 * 1024.0, 2.0) - 0.5).abs() < 1e-12);
        assert!((gflop_per_s(2e9, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arith_intensity_is_flops_over_bytes() {
        let t = Timed {
            name: "k",
            variant: "aos_fused".to_string(),
            bytes_per_iter: 8.0,
            flops_per_iter: 12.0,
            seconds: vec![],
        };
        assert!((t.arith_intensity() - 1.5).abs() < 1e-12);
        let z = Timed {
            bytes_per_iter: 0.0,
            ..t
        };
        assert_eq!(z.arith_intensity(), 0.0);
    }

    #[test]
    fn schema_version_is_bumped_for_variant_columns() {
        assert!(BENCH_SCHEMA_VERSION >= 2.0);
    }
}
