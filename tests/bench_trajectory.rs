//! Schema of `BENCH_gabench.json`, the append-only perf trajectory at the
//! repo root: one row per measured change (or re-anchor run), each holding
//! per-side quartiles of every end-to-end `gabench` metric by workload and
//! seed, the pairs the change won, and the verdict those numbers give.
//! Workload and metric names come from `BENCHMARK.json`, so a row cannot
//! cite a metric the benchmark does not emit. CI checks what needs git
//! history: that each row's parent is an ancestor of its commit and that
//! the file at `HEAD~` is a prefix of the file at `HEAD`.

use obs::json::Json;

fn load(name: &str) -> (String, Json) {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    (text, json)
}

/// The `name`s of the objects in `BENCHMARK.json`'s array `key`.
fn names(manifest: &Json, key: &str) -> Vec<String> {
    manifest
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

/// Whether an end-to-end metric improves downward, per `BENCHMARK.json`.
fn lower_is_better(manifest: &Json, metric: &str) -> bool {
    let entry = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end");
    let entry = entry
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))
        .expect("a declared metric");
    entry.get("better").and_then(Json::as_str) == Some("lower")
}

fn is_null(j: &Json) -> bool {
    *j == Json::Null
}

/// `j` is `null` or a number: the form every optional measurement takes.
fn opt_num(j: &Json, what: &str) -> Option<f64> {
    assert!(is_null(j) || j.as_f64().is_some(), "{what}: number or null");
    j.as_f64()
}

fn field<'a>(j: &'a Json, key: &str, what: &str) -> &'a Json {
    j.get(key).unwrap_or_else(|| panic!("{what}: no \"{key}\""))
}

/// Exactly `keys`, in that order: rows are appended by hand, and a fixed
/// key order keeps every row diffable against the one before it.
fn assert_keys(j: &Json, keys: &[&str], what: &str) {
    let got: Vec<&str> = j
        .as_obj()
        .unwrap_or_else(|| panic!("{what}: not an object"))
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(got, keys, "{what}: keys");
}

/// A 7–40 digit lowercase hex commit id.
fn assert_commit(j: &Json, what: &str) {
    let id = j
        .as_str()
        .unwrap_or_else(|| panic!("{what}: commit id string"));
    assert!(
        (7..=40).contains(&id.len())
            && id
                .bytes()
                .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)),
        "{what}: {id:?} is not a commit id"
    );
}

/// One side's `{q1, median, q3}`, each a number or null, ordered when
/// present. Returns `(q1, median, q3)`.
fn quartiles(j: &Json, what: &str) -> (Option<f64>, Option<f64>, Option<f64>) {
    assert_keys(j, &["q1", "median", "q3"], what);
    let q = |k| opt_num(field(j, k, what), &format!("{what}.{k}"));
    let (q1, med, q3) = (q("q1"), q("median"), q("q3"));
    if let (Some(a), Some(m), Some(b)) = (q1, med, q3) {
        assert!(a <= m && m <= b, "{what}: quartiles out of order");
    }
    (q1, med, q3)
}

/// The verdict a metric's numbers give: "better" when the change won at
/// least nine pairs in ten and its median beat the parent's by more than
/// the parent's interquartile range, "worse" for the converse, otherwise
/// "unresolved"; `None` when a number it needs was not recorded.
fn verdict(
    pairs: u64,
    won: Option<u64>,
    medians: (Option<f64>, Option<f64>),
    iqr: Option<f64>,
    lower: bool,
) -> Option<&'static str> {
    let (won, parent, change, iqr) = (won?, medians.0?, medians.1?, iqr?);
    if pairs == 0 {
        return None;
    }
    let gain = if lower {
        parent - change
    } else {
        change - parent
    };
    Some(if 10 * won >= 9 * pairs && gain > iqr {
        "better"
    } else if 10 * (pairs - won) >= 9 * pairs && -gain > iqr {
        "worse"
    } else {
        "unresolved"
    })
}

/// One metric of one result: per-side quartiles, the parent's IQR, the
/// median change in percent, the pairs won and the verdict, each checked
/// against the others where both are recorded.
fn check_metric(m: &Json, pairs: u64, lower: bool, reanchor: bool, what: &str) {
    assert_keys(
        m,
        &[
            "parent",
            "change",
            "parent_iqr",
            "change_pct",
            "pairs_won",
            "verdict",
        ],
        what,
    );
    let parent = field(m, "parent", what);
    let (p1, pm, p3) = if reanchor {
        assert!(
            is_null(parent),
            "{what}: a re-anchor run has no parent side"
        );
        (None, None, None)
    } else {
        quartiles(parent, &format!("{what}.parent"))
    };
    let (_, cm, _) = quartiles(field(m, "change", what), &format!("{what}.change"));
    let iqr = opt_num(field(m, "parent_iqr", what), what);
    if let (Some(a), Some(b), Some(i)) = (p1, p3, iqr) {
        assert!(
            (b - a - i).abs() <= 1e-9 * b.abs().max(1.0),
            "{what}: parent_iqr is not q3 - q1"
        );
    }
    let pct = opt_num(field(m, "change_pct", what), what);
    if let (Some(p), Some(c), Some(pct)) = (pm, cm, pct) {
        let exact = 100.0 * (c / p - 1.0);
        assert!(
            (exact - pct).abs() <= 0.5,
            "{what}: change_pct {pct} but medians give {exact}"
        );
    }
    let won = field(m, "pairs_won", what);
    assert!(
        is_null(won) || won.as_u64().is_some_and(|w| w <= pairs),
        "{what}: pairs_won"
    );
    let want = verdict(pairs, won.as_u64(), (pm, cm), iqr, lower);
    let got = field(m, "verdict", what);
    assert_eq!(got.as_str(), want, "{what}: verdict");
    assert!(
        want.is_some() || is_null(got),
        "{what}: verdict without its numbers"
    );
}

#[test]
fn trajectory_rows_follow_the_schema() {
    let (text, rows) = load("BENCH_gabench.json");
    let (_, manifest) = load("BENCHMARK.json");
    // Append-only layout: appending a row rewrites only the closing
    // bracket, so the file before an append is a byte prefix of the file
    // after it once its final "\n]\n" is dropped.
    assert!(
        text.starts_with("[\n") && text.ends_with("}\n]\n"),
        "file layout"
    );
    let rows = rows.as_arr().expect("an array of rows");
    assert!(!rows.is_empty());
    let workloads = names(&manifest, "workloads");
    let metrics = names(&manifest, "end_to_end");
    for (i, row) in rows.iter().enumerate() {
        let what = format!("row {i}");
        assert_keys(
            row,
            &[
                "commit", "parent", "host", "source", "claim", "note", "results",
            ],
            &what,
        );
        assert_commit(field(row, "commit", &what), &what);
        let source = field(row, "source", &what).as_str().expect("source");
        assert!(
            ["pairs", "CHANGES.md", "re-anchor"].contains(&source),
            "{what}: unknown source {source:?}"
        );
        let reanchor = source == "re-anchor";
        let parent = field(row, "parent", &what);
        if reanchor {
            assert!(is_null(parent), "{what}: a re-anchor run has no parent");
        } else {
            assert_commit(parent, &what);
        }
        let host = field(row, "host", &what);
        assert_keys(host, &["fingerprint", "stream_triad_gib_per_s"], &what);
        let fp = field(host, "fingerprint", &what);
        assert!(
            is_null(fp) || fp.as_str().is_some_and(|f| f.len() == 16),
            "{what}: fingerprint"
        );
        opt_num(field(host, "stream_triad_gib_per_s", &what), &what);
        let note = field(row, "note", &what);
        assert!(is_null(note) || note.as_str().is_some(), "{what}: note");

        let results = field(row, "results", &what).as_arr().expect("results");
        assert!(!results.is_empty(), "{what}: no results");
        for (j, r) in results.iter().enumerate() {
            let what = format!("{what} result {j}");
            assert_keys(
                r,
                &["workload", "seed", "seconds", "pairs", "metrics"],
                &what,
            );
            let w = field(r, "workload", &what).as_str().expect("workload");
            assert!(
                workloads.iter().any(|n| n == w),
                "{what}: unknown workload {w:?}"
            );
            field(r, "seed", &what).as_u64().expect("seed");
            assert!(field(r, "seconds", &what).as_f64().is_some_and(|s| s > 0.0));
            let pairs = field(r, "pairs", &what).as_u64().expect("pairs");
            assert_eq!(
                pairs == 0,
                reanchor,
                "{what}: only a re-anchor run has no pairs"
            );
            let ms = field(r, "metrics", &what);
            let names: Vec<&str> = metrics.iter().map(String::as_str).collect();
            assert_keys(ms, &names, &what);
            for name in &names {
                let lower = lower_is_better(&manifest, name);
                check_metric(
                    field(ms, name, &what),
                    pairs,
                    lower,
                    reanchor,
                    &format!("{what} {name}"),
                );
            }
        }

        // A claim names one workload and end-to-end metric and cites at
        // least ten pairs on each of at least two seeds.
        let claim = field(row, "claim", &what);
        if is_null(claim) {
            continue;
        }
        assert!(!reanchor, "{what}: a re-anchor run claims nothing");
        assert_keys(claim, &["workload", "metric", "target_pct", "met"], &what);
        let w = field(claim, "workload", &what)
            .as_str()
            .expect("claim workload");
        let m = field(claim, "metric", &what)
            .as_str()
            .expect("claim metric");
        assert!(metrics.iter().any(|n| n == m), "{what}: claim metric {m:?}");
        let target = field(claim, "target_pct", &what)
            .as_f64()
            .expect("target_pct");
        let met = field(claim, "met", &what).as_bool().expect("met");
        let cited: Vec<&Json> = results
            .iter()
            .filter(|r| r.get("workload").and_then(Json::as_str) == Some(w))
            .collect();
        let mut seeds: Vec<u64> = cited
            .iter()
            .map(|r| r.get("seed").and_then(Json::as_u64).unwrap())
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert!(seeds.len() >= 2, "{what}: a claim cites at least two seeds");
        assert!(
            cited
                .iter()
                .all(|r| r.get("pairs").and_then(Json::as_u64).unwrap() >= 10),
            "{what}: a claim cites at least ten pairs a seed"
        );
        // Met means every cited result reaches the target change and the
        // verdict "better" on the claimed metric.
        let reached = cited.iter().all(|r| {
            let m = r.get_path(&["metrics", m]).unwrap();
            let pct = m.get("change_pct").and_then(Json::as_f64);
            let better = m.get("verdict").and_then(Json::as_str) == Some("better");
            better
                && pct.is_some_and(|p| {
                    if target < 0.0 {
                        p <= target
                    } else {
                        p >= target
                    }
                })
        });
        assert_eq!(met, reached, "{what}: met");
    }
}

#[test]
fn verdict_needs_nine_pairs_in_ten_and_a_gap_wider_than_the_parent_iqr() {
    let v = |won, p, c, iqr| verdict(10, Some(won), (Some(p), Some(c)), Some(iqr), true);
    assert_eq!(v(9, 1.0, 0.8, 0.1), Some("better"));
    assert_eq!(v(8, 1.0, 0.8, 0.1), Some("unresolved"));
    assert_eq!(v(10, 1.0, 0.95, 0.1), Some("unresolved"));
    assert_eq!(v(0, 1.0, 1.2, 0.1), Some("worse"));
    assert_eq!(
        verdict(10, Some(10), (Some(1.0), Some(1.2)), Some(0.1), false),
        Some("better")
    );
    assert_eq!(
        verdict(10, None, (Some(1.0), Some(0.8)), Some(0.1), true),
        None
    );
}
