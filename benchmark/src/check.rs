//! Output checks of a run, and the `check` subcommand that compares two
//! result files of the `suite` subcommand.

use crate::spec::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use crate::workloads::Output;
use obs::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Largest relative deviation from a reference that still counts as equal.
pub const REL_TOL: f64 = 1e-6;

/// Per-layer counts that must repeat exactly between two runs of one seed.
pub const EXACT_COUNTS: [&str; 14] = [
    "solver.iterations",
    "solver.reliable_updates",
    "solver.item0_iterations",
    "comms.iterations",
    "comms.replayed_iterations",
    "service.hits",
    "service.spill_hits",
    "service.coalesced",
    "service.solved_keys",
    "service.batches",
    "service.rejected",
    "service.evictions",
    "service.spill_rejects",
    "comms.recovered_solves",
];

pub fn golden_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(format!("{workload}.json"))
}

fn outputs_to_json(outputs: &[Output]) -> Json {
    Json::Obj(
        outputs
            .iter()
            .map(|o| {
                (
                    o.name.to_string(),
                    Json::Arr(o.values.iter().map(|&v| Json::Num(v)).collect()),
                )
            })
            .collect(),
    )
}

/// Largest elementwise deviation of `got` from `want`, relative to the
/// reference element (floored at 1e-9 of the reference's largest element,
/// so a correlator's zero crossing does not blow the ratio up).
fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    got.iter()
        .zip(want)
        .map(|(g, w)| {
            if g == w {
                return 0.0;
            }
            let err = (g - w).abs() / w.abs().max(1e-9 * scale).max(f64::MIN_POSITIVE);
            // `f64::max` would drop a NaN; a NaN output is as wrong as can be.
            if err.is_nan() {
                f64::INFINITY
            } else {
                err
            }
        })
        .fold(0.0, f64::max)
}

/// Checks the outputs of a run as they are produced.
pub struct Checker {
    /// Goldens of this workload, when the run is on the golden's seed.
    golden: Option<Json>,
    /// First outputs seen per key: later visits and traced twins must
    /// repeat them bit for bit.
    first: BTreeMap<Key, Vec<Output>>,
    pub rel_err_max: f64,
    pub problems: Vec<String>,
}

/// What a set of outputs belongs to: a round on an item, or the terminal
/// stage over the first `n` items.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    Item(usize),
    Final(usize),
}

impl Key {
    /// `(section, entry)` of the golden file.
    fn path(self) -> (&'static str, String) {
        match self {
            Key::Item(k) => ("items", k.to_string()),
            Key::Final(n) => ("final", n.to_string()),
        }
    }
}

impl Checker {
    /// With `use_golden`, outputs are also compared with the workload's
    /// golden file, if that was recorded on this seed.
    pub fn new(workload: &str, seed: u64, use_golden: bool) -> Self {
        let golden = use_golden
            .then(|| std::fs::read_to_string(golden_path(workload)).ok())
            .flatten()
            .and_then(|text| Json::parse(&text).ok())
            .filter(|g| g.get("seed").and_then(Json::as_u64) == Some(seed));
        Checker {
            golden,
            first: BTreeMap::new(),
            rel_err_max: 0.0,
            problems: Vec::new(),
        }
    }

    pub fn has_golden(&self) -> bool {
        self.golden.is_some()
    }

    pub fn items_checked(&self) -> usize {
        self.first.len()
    }

    /// Check `outputs` of `key`; false when they are wrong.
    pub fn check(&mut self, key: Key, outputs: &[Output]) -> bool {
        let (section, entry) = key.path();
        let label = format!("{section}.{entry}");
        if let Some(first) = self.first.get(&key) {
            if first.as_slice() != outputs {
                self.problems
                    .push(format!("{label}: outputs differ between two visits"));
                return false;
            }
            return true;
        }
        self.first.insert(key, outputs.to_vec());
        let Some(golden) = &self.golden else {
            return true;
        };
        let Some(want) = golden.get_path(&[section, &entry]) else {
            return true; // the golden run did not get this far
        };
        let mut ok = true;
        for o in outputs {
            let reference: Option<Vec<f64>> = want
                .get(o.name)
                .and_then(Json::as_arr)
                .map(|a| a.iter().filter_map(Json::as_f64).collect());
            let err = reference.map_or(f64::INFINITY, |r| rel_err(&o.values, &r));
            let limit = if o.exact { 0.0 } else { REL_TOL };
            if !o.exact && err.is_finite() {
                self.rel_err_max = self.rel_err_max.max(err);
            }
            if err > limit {
                self.problems
                    .push(format!("{label}.{}: {err:e} from the golden", o.name));
                ok = false;
            }
        }
        ok
    }

    /// Everything seen, in the golden file's layout.
    pub fn to_golden(&self, seed: u64) -> Json {
        let section = |name: &str| {
            Json::Obj(
                self.first
                    .iter()
                    .filter(|(k, _)| k.path().0 == name)
                    .map(|(k, o)| (k.path().1, outputs_to_json(o)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("seed", Json::Num(seed as f64)),
            ("items", section("items")),
            ("final", section("final")),
        ])
    }
}

// ---------------------------------------------------------------------------
// `check A.json B.json`
// ---------------------------------------------------------------------------

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get_path(&["workloads", workload, "runs"])
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|r| {
            r.get_path(&["metrics", metric, "value"])
                .and_then(Json::as_f64)
        })
        .collect()
}

/// Compare two result files: per workload and end-to-end metric, whether
/// the second median is within the metric's bound of the first
/// (`within-bound`), worse by more (`regressed`), or the run-to-run spread
/// of either side is wider than the bound (`unresolved`). Exact per-layer
/// counts must be identical. Returns the process exit code.
pub fn compare(path_a: &str, path_b: &str) -> Result<u8, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let manifest = load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))?;
    let fp = |d: &Json| {
        d.get_path(&["host", "fingerprint"])
            .and_then(Json::as_str)
            .map(String::from)
    };
    if fp(&a) != fp(&b) {
        println!("note: host fingerprints differ; timings are not comparable");
    }
    let mut bad = 0;
    println!(
        "{:<14} {:<20} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "change", "spread", "bound"
    );
    for w in WORKLOADS {
        for (metric, _) in END_TO_END {
            let spec = manifest
                .get("end_to_end")
                .and_then(Json::as_arr)
                .and_then(|l| {
                    l.iter()
                        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
                })
                .ok_or_else(|| format!("{metric} is not in BENCHMARK.json"))?;
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower_is_better = spec.get("better").and_then(Json::as_str) == Some("lower");
            let (va, vb) = (run_values(&a, w, metric), run_values(&b, w, metric));
            if va.len() < 2 || vb.len() < 2 {
                println!("{w:<14} {metric:<20} needs two runs a side");
                bad += 1;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let worse = if lower_is_better {
                mb / ma - 1.0
            } else {
                ma / mb - 1.0
            };
            let spread = iqr_share(&va).max(iqr_share(&vb));
            // Set-up time is judged on its median only: it is short, and
            // its bound is there to show work moved into set-up.
            let verdict = if spread > bound && metric != "setup_s" {
                "unresolved"
            } else if worse > bound {
                "regressed"
            } else {
                "within-bound"
            };
            bad += u8::from(verdict != "within-bound");
            println!(
                "{w:<14} {metric:<20} {ma:>12.5} {mb:>12.5} {:>+7.1}% {:>7.1}% {:>7.1}%  {verdict}",
                100.0 * (mb / ma - 1.0),
                100.0 * spread,
                100.0 * bound
            );
        }
        for name in EXACT_COUNTS {
            let get = |d: &Json| {
                d.get_path(&["workloads", w, "traced", "metrics", name, "value"])
                    .and_then(Json::as_f64)
            };
            let same_seed = a.get("seed") == b.get("seed");
            if same_seed && get(&a) != get(&b) {
                println!(
                    "{w:<14} {name:<20} count differs: {:?} vs {:?}",
                    get(&a),
                    get(&b)
                );
                bad += 1;
            }
        }
    }
    println!(
        "{}",
        if bad == 0 {
            "check: all rows within bound"
        } else {
            "check: FAILED rows above"
        }
    );
    Ok(u8::from(bad != 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_is_elementwise_with_a_floor() {
        assert_eq!(rel_err(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rel_err(&[1.0, 2.0 + 2e-6], &[1.0, 2.0]) - 1e-6).abs() < 1e-12);
        assert_eq!(rel_err(&[1.0], &[1.0, 2.0]), f64::INFINITY);
        // A zero crossing is measured against the vector's scale.
        assert!(rel_err(&[1.0, 1e-12], &[1.0, 0.0]) < 2e-3);
        assert_eq!(rel_err(&[0.0], &[0.0]), 0.0);
        assert_eq!(rel_err(&[f64::NAN, 1.0], &[1.0, 1.0]), f64::INFINITY);
    }

    #[test]
    fn checker_demands_identical_revisits() {
        let mut c = Checker::new("fh_small", 1, false);
        let out = vec![Output::real("pion", vec![1.0, 0.5])];
        assert!(c.check(Key::Item(0), &out));
        assert!(c.check(Key::Item(0), &out));
        assert!(!c.check(Key::Item(0), &[Output::real("pion", vec![1.0, 0.5000001])]));
        assert!(c.check(Key::Final(2), &out));
        assert_eq!(c.items_checked(), 2);
        let g = c.to_golden(1);
        assert!(g.get_path(&["items", "0", "pion"]).is_some());
        assert!(g.get_path(&["final", "2", "pion"]).is_some());
    }
}
