//! `repro lint` — run the workspace static-analysis pass (see `srclint`).
//!
//! ```text
//! repro lint [--check] [--update-baseline] [--format text|json]
//!            [--root DIR] [--baseline FILE]
//! ```
//!
//! Exit status: 0 when every finding is covered by the baseline and no
//! suppression is stale; 1 when there are fresh findings or stale
//! suppressions (so CI fails both on new violations and on fixed
//! violations whose suppression was not removed); 2 on usage or I/O
//! errors. `--update-baseline` rewrites the baseline to match the current
//! tree and exits 0.

use srclint::baseline::{baseline_with_content, Baseline};
use srclint::{report, scan_workspace, Config};
use std::path::PathBuf;

/// Parse `repro lint` arguments and run. Returns the process exit code.
pub fn run_lint(args: &[String]) -> i32 {
    let mut check = false;
    let mut update = false;
    let mut format = "text".to_string();
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--check" => check = true,
            "--update-baseline" => update = true,
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some(f @ ("text" | "json")) => format = f.to_string(),
                    _ => {
                        eprintln!("--format needs `text` or `json`");
                        return 2;
                    }
                }
            }
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--root needs a directory");
                    return 2;
                };
                root = PathBuf::from(dir);
            }
            "--baseline" => {
                i += 1;
                let Some(file) = args.get(i) else {
                    eprintln!("--baseline needs a file");
                    return 2;
                };
                baseline_path = Some(PathBuf::from(file));
            }
            other => {
                eprintln!("unexpected lint argument: {other}");
                return 2;
            }
        }
        i += 1;
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.json"));

    let cfg = Config::default();
    let findings = match scan_workspace(&root, &cfg) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("lint: scan failed: {e}");
            return 2;
        }
    };

    if update {
        let base = baseline_with_content(&findings, &root);
        if let Err(e) = base.save(&baseline_path) {
            eprintln!("lint: writing {}: {e}", baseline_path.display());
            return 2;
        }
        println!(
            "wrote {} with {} suppression(s)",
            baseline_path.display(),
            base.suppressions.len()
        );
        return 0;
    }

    let base = match Baseline::load(&baseline_path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("lint: {e}");
            return 2;
        }
    };
    let applied = base.apply(findings);
    match format.as_str() {
        "json" => print!("{}", report::render_json(&applied)),
        _ => print!("{}", report::render_text(&applied)),
    }
    let clean = applied.fresh.is_empty() && applied.stale.is_empty();
    if (check && !clean) || (!check && !applied.fresh.is_empty()) {
        1
    } else {
        0
    }
}
