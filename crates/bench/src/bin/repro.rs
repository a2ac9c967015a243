//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--results DIR]
//!
//! experiments:
//!   table1    performance attributes (Table I)
//!   table2    machine specifications (Table II)
//!   fig1      FH vs traditional effective gA (a09m310 model)
//!   fig3      strong scaling, 48^3x64, Titan/Ray/Sierra
//!   fig4      strong scaling, 96^3x144, Summit
//!   fig5      Sierra weak scaling under three MPI deployments
//!   fig6      Summit weak scaling under METAQ
//!   fig7      per-solve performance histogram at 13488 GPUs
//!   backfill  naive vs METAQ vs mpi_jm utilization
//!   faults    mid-run failure sweep: blast radius and recovery per scheduler
//!   startup   mpi_jm partitioned startup model
//!   budget    application time budget (Fig. 2 fractions)
//!   speedup   machine-to-machine speedup over Titan
//!   memory    solver memory footprints and minimum-GPU floors
//!   ablation  design-choice ablations (policy tuning, delta, precision, placement)
//!   pipeline  real end-to-end physics run on a small lattice
//!   metrics   deterministic observability snapshot (results/metrics.json golden)
//!   comms     execute the halo-exchange policies on the sharded dslash
//!             and write measured-vs-analytic columns to comms.csv
//!             (--quick for CI smoke, --check-schema FILE to verify a
//!             committed comms.csv still has this build's columns)
//!   chaos     fault-injection sweep: wire-fault intensity x comm policy
//!             x {checkpointing on, off} through the fault-tolerant CG
//!             (--quick for CI smoke, --check-schema FILE to verify a
//!             committed chaos.csv still has this build's columns)
//!   serve     solve-service gateway under deterministic Zipf load:
//!             batching, content-addressed cache with LRU spill, admission
//!             control, fault injection under the service; writes
//!             serve.{json,md} (--quick for CI smoke, --check-schema FILE
//!             to verify a committed serve.json against this build)
//!   lint      workspace static analysis (determinism/safety/layering
//!             rules R1-R6; --check gates on the committed
//!             lint-baseline.json, --update-baseline regenerates it)
//!   verify    concurrency verification: exhaustive schedule exploration
//!             of the bounded protocol models (mailbox dedup, NACK
//!             retransmit, checkpoint rotation, cache get-or-compute)
//!             plus seeded-defect twins;
//!             --check gates on results/verify.{json,md} and the
//!             committed traces, --trace FILE replays one schedule
//!   all       everything above except comms and chaos
//!             (timings are machine-specific)
//! ```

use bench::experiments::{
    ablation, chaos, comms, faults, fig1, fig3, fig5, jobs, lint, metrics, pipeline, serve, tables,
    verify,
};
use bench::output::{check_csv_header, check_json_shape, ExperimentOutput};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `lint` has its own flags and exit-code contract; handle it before the
    // generic experiment machinery.
    if args.first().map(String::as_str) == Some("lint") {
        std::process::exit(lint::run_lint(&args[1..]));
    }
    // So does `verify`: its exit code is the verification verdict.
    if args.first().map(String::as_str) == Some("verify") {
        std::process::exit(verify::run_verify(&args[1..]));
    }
    let mut experiment = None;
    let mut results_dir = "results".to_string();
    let mut quick = false;
    let mut check_schema: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--results" => {
                i += 1;
                results_dir = args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--results needs a directory");
                    std::process::exit(2);
                });
            }
            "--quick" => quick = true,
            "--check-schema" => {
                i += 1;
                check_schema = Some(args.get(i).cloned().unwrap_or_else(|| {
                    eprintln!("--check-schema needs a file");
                    std::process::exit(2);
                }));
            }
            name if experiment.is_none() => experiment = Some(name.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(experiment) = experiment else {
        eprintln!(
            "usage: repro <table1|table2|fig1|fig3|fig4|fig5|fig6|fig7|backfill|faults|startup|budget|speedup|memory|ablation|pipeline|metrics|comms|chaos|serve|all> [--results DIR] [--quick] [--check-schema FILE]"
        );
        std::process::exit(2);
    };

    let out = ExperimentOutput::new(&results_dir).unwrap_or_else(|e| {
        eprintln!("repro: cannot create results directory {results_dir}: {e}");
        std::process::exit(1);
    });
    if let Err(e) = out.ensure_writable() {
        eprintln!("repro: results directory {results_dir} is not writable: {e}");
        std::process::exit(1);
    }

    // The one place a failed write or a failed `--check-schema` of the
    // experiments that take those flags becomes exit code 1.
    let finish =
        |name: &str, ran: std::io::Result<()>, check: &dyn Fn(&str) -> Result<(), String>| {
            if let Err(e) = ran {
                eprintln!("repro {name}: cannot write results: {e}");
                std::process::exit(1);
            }
            if let Some(file) = &check_schema {
                match check(file) {
                    Ok(()) => println!("schema check OK: {file} matches what this build writes"),
                    Err(msg) => {
                        eprintln!("repro {name} --check-schema: {msg}");
                        std::process::exit(1);
                    }
                }
            }
        };

    let run_one = |name: &str, out: &ExperimentOutput| match name {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig1" => {
            fig1::run(out, 800, 8000, 20180101);
        }
        "fig3" => {
            fig3::run_fig3(out);
        }
        "fig4" => {
            fig3::run_fig4(out);
        }
        "fig5" => {
            fig5::run_fig5(out);
        }
        "fig6" => {
            fig5::run_fig6(out);
        }
        "fig7" => {
            fig5::run_fig7(out);
        }
        "backfill" => {
            jobs::run_backfill(out);
        }
        "faults" => {
            faults::run_faults(out);
        }
        "startup" => jobs::run_startup(out),
        "budget" => {
            jobs::run_budget(out);
        }
        "speedup" => jobs::run_speedup(out),
        "memory" => jobs::run_memory(out),
        "pipeline" => {
            pipeline::run(out, [4, 4, 4, 8], 3, 2018);
        }
        "ablation" => {
            ablation::run_policy_ablation(out);
            ablation::run_solver_ablation(out);
            ablation::run_placement(out);
        }
        "metrics" => {
            metrics::run_metrics(out);
        }
        "comms" => finish(
            name,
            comms::run_comms(out, &comms::CommsOpts { quick }),
            &|file| check_csv_header(file, comms::CSV_HEADER),
        ),
        "chaos" => finish(
            name,
            chaos::run_chaos(out, &chaos::ChaosOpts { quick }),
            &|file| check_csv_header(file, chaos::CSV_HEADER),
        ),
        "serve" => finish(
            name,
            serve::run_serve(out, &serve::ServeOpts { quick }),
            &|file| check_json_shape(file, &out.path("serve.json")),
        ),
        other => {
            eprintln!("unknown experiment: {other}");
            std::process::exit(2);
        }
    };

    if experiment == "all" {
        for name in [
            "table1", "table2", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "backfill",
            "faults", "startup", "budget", "speedup", "memory", "ablation", "pipeline", "metrics",
        ] {
            run_one(name, &out);
        }
    } else {
        run_one(&experiment, &out);
    }
    println!("\nresults written to {results_dir}/");
}
