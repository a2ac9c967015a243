//! The `suite` subcommand: every workload, `K` untraced runs on seeds
//! `S, S+1, …` (the protocol the benchmark is accepted under) and one
//! traced run on `S`, each in a process of its own so that peak memory and
//! allocator state are per run; one JSON document on stdout and in `out/`.

use crate::host::Host;
use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::{out_dir, rng, Flags};
use obs::Json;
use std::process::Command;

/// Run this binary once more and read the result object off its last line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]);
    if quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let out = cmd.output().map_err(|e| e.to_string())?;
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let mut doc = Json::parse(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result ({e}); exit {:?}",
            out.status.code()
        )
    })?;
    if let Json::Obj(pairs) = &mut doc {
        pairs.insert(0, ("seed".into(), Json::Num(seed as f64)));
    }
    Ok(doc)
}

pub fn run(args: &[String]) -> Result<u8, String> {
    let flags = Flags::parse(args)?;
    flags.only(&["seed", "seconds", "runs", "quick", "out"])?;
    let quick = flags.get("quick", 0u8)? != 0;
    let seed = flags.get("seed", rng::DEFAULT_SEED)?;
    let seconds = flags.get("seconds", if quick { 0.5 } else { 20.0 })?;
    let runs = flags.get("runs", if quick { 1usize } else { 3 })?;
    let out = flags.get("out", out_dir().join("result.json").display().to_string())?;
    if runs == 0 {
        return Err("--runs must be at least 1".into());
    }

    let mut all_correct = true;
    let mut per_workload = Vec::new();
    for w in WORKLOADS {
        let mut untraced = Vec::new();
        for i in 0..runs {
            eprintln!("gabench: {w} untraced run {}/{runs}", i + 1);
            untraced.push(child(w, seed + i as u64, seconds, false, quick)?);
        }
        eprintln!("gabench: {w} traced run");
        let traced = child(w, seed, seconds, true, quick)?;
        all_correct &= untraced
            .iter()
            .chain([&traced])
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));

        let summary = END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let values: Vec<f64> = untraced
                    .iter()
                    .filter_map(|r| {
                        r.get_path(&["metrics", name, "value"])
                            .and_then(Json::as_f64)
                    })
                    .collect();
                let mut fields = vec![
                    ("median", Json::Num(median(&values))),
                    (
                        "min",
                        Json::Num(values.iter().copied().fold(f64::INFINITY, f64::min)),
                    ),
                    (
                        "max",
                        Json::Num(values.iter().copied().fold(f64::NEG_INFINITY, f64::max)),
                    ),
                    ("n", Json::Num(values.len() as f64)),
                    ("unit", Json::Str(unit.into())),
                ];
                if values.len() >= 2 {
                    fields.push(("iqr_share", Json::Num(iqr_share(&values))));
                }
                (name.to_string(), Json::obj(fields))
            })
            .collect();
        per_workload.push((
            w.to_string(),
            Json::obj(vec![
                ("end_to_end", Json::Obj(summary)),
                ("runs", Json::Arr(untraced)),
                ("traced", traced),
            ]),
        ));
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("gabench-result-1".into())),
        ("claim", Json::Null),
        ("host", Host::probe().to_json()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(quick)),
        ("workloads", Json::Obj(per_workload)),
    ]);
    let text = doc.to_string_pretty();
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    std::fs::write(&out, &text).map_err(|e| format!("{out}: {e}"))?;
    print!("{text}");
    eprintln!("gabench: wrote {out}");
    Ok(u8::from(!all_correct))
}
