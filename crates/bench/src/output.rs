//! CSV + console output helpers for the experiment harness, and the
//! `--check-schema` comparisons of a committed artifact against this build.

use obs::Json;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Where an experiment's artifacts land.
pub struct ExperimentOutput {
    dir: PathBuf,
}

impl ExperimentOutput {
    /// Create (and ensure) the results directory.
    pub fn new(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// Default location: `results/` under the current directory.
    pub fn default_dir() -> std::io::Result<Self> {
        Self::new("results")
    }

    /// Path for a named artifact.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Probe that the results directory actually accepts writes.
    ///
    /// `create_dir_all` succeeding is not enough — the directory may exist
    /// but be read-only, or the path may pass through a regular file. This
    /// writes and removes a probe file so the harness can fail with one
    /// clear error up front instead of panicking mid-experiment.
    pub fn ensure_writable(&self) -> std::io::Result<()> {
        let probe = self.dir.join(".write-probe");
        std::fs::write(&probe, b"probe")?;
        std::fs::remove_file(&probe)
    }

    /// Write rows as CSV with a header line.
    pub fn csv(&self, name: &str, header: &str, rows: &[Vec<f64>]) -> std::io::Result<PathBuf> {
        let path = self.path(name);
        write_csv(&path, header, rows)?;
        Ok(path)
    }
}

/// Write a CSV file with a header and numeric rows.
pub fn write_csv(path: &Path, header: &str, rows: &[Vec<f64>]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "{header}")?;
    for row in rows {
        let line: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        writeln!(f, "{}", line.join(","))?;
    }
    Ok(())
}

/// Flatten a JSON value into sorted `path` strings describing its shape
/// (object keys and array element shape, ignoring scalar values).
fn schema_paths(j: &Json, path: &str, acc: &mut Vec<String>) {
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

/// Compare the structural schema of a committed JSON artifact against a
/// reference produced by this build. Returns the mismatching paths
/// (empty = schemas agree).
fn schema_diff(committed: &Json, fresh: &Json) -> Vec<String> {
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

/// `--check-schema FILE` for a CSV artifact: the committed file's header
/// line must be the column layout this build writes.
pub fn check_csv_header(file: &str, expected: &str) -> Result<(), String> {
    let committed =
        std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let header = committed.lines().next().unwrap_or("");
    if header == expected {
        Ok(())
    } else {
        Err(format!(
            "schema mismatch in {file}:\n  committed: {header}\n  expected:  {expected}"
        ))
    }
}

/// `--check-schema FILE` for a JSON artifact: structural comparison of the
/// committed file against the one this run just wrote at `fresh` (values
/// may differ freely; keys and shapes may not).
pub fn check_json_shape(file: &str, fresh: &Path) -> Result<(), String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("cannot parse {}: {e}", path.display()))
    };
    let diff = schema_diff(&load(Path::new(file))?, &load(fresh)?);
    if diff.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "schema mismatch between {file} and this build:\n  {}",
            diff.join("\n  ")
        ))
    }
}

/// Render a fixed-width console table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title}");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let dir = std::env::temp_dir().join("bench_output_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.csv");
        write_csv(&path, "a,b", &[vec![1.0, 2.0], vec![3.5, -4.0]]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content, "a,b\n1,2\n3.5,-4\n");
        std::fs::remove_file(&path).ok();
    }

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
}
