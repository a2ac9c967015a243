//! Exit-code contract of the `repro` binary's error paths.
//!
//! The harness must fail with a clear one-line error (not a panic/abort)
//! when the results directory cannot be created or written, and with usage
//! errors for bad arguments — these are the paths CI and scripted callers
//! branch on.

use std::process::Command;

fn repro() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

/// A results path routed *through a regular file* cannot be created — even
/// running as root (where read-only directory bits are bypassed), `mkdir
/// a/b` with `a` a file fails with `NotADirectory`.
fn blocked_results_dir(tag: &str) -> std::path::PathBuf {
    let file = std::env::temp_dir().join(format!("repro-cli-block-{tag}-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    file.join("results")
}

#[test]
fn uncreatable_results_dir_is_a_clean_error() {
    let dir = blocked_results_dir("create");
    let out = repro()
        .args(["chaos", "--quick", "--results"])
        .arg(&dir)
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A clean error exit, not a panic abort.
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create results directory"),
        "stderr: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must not panic on a bad results dir: {stderr}"
    );
    std::fs::remove_file(dir.parent().unwrap()).ok();
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = repro().arg("no-such-experiment").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment"), "stderr: {stderr}");
}

#[test]
fn missing_experiment_prints_usage() {
    let out = repro().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: repro"), "stderr: {stderr}");
    assert!(stderr.contains("chaos"), "usage must list chaos: {stderr}");
    assert!(stderr.contains("serve"), "usage must list serve: {stderr}");
}

/// `repro comms --check-schema` against a stale header must run the
/// experiment, then fail the schema diff with exit code 1 — the branch CI
/// takes when a committed `comms.csv` no longer matches this build.
#[test]
fn comms_schema_mismatch_is_a_clean_error() {
    let results = std::env::temp_dir().join(format!("repro-cli-comms-{}", std::process::id()));
    std::fs::create_dir_all(&results).unwrap();
    let stale = results.join("stale.csv");
    std::fs::write(&stale, "grid_id,not_the_real_columns\n").unwrap();
    let out = repro()
        .args(["comms", "--quick", "--results"])
        .arg(&results)
        .arg("--check-schema")
        .arg(&stale)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema mismatch"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir_all(&results).ok();
}

/// `repro serve` must refuse an unwritable results directory with exit
/// code 1 and a clear message *before* generating a million requests.
#[test]
fn serve_unwritable_results_dir_is_a_clean_error() {
    let results =
        std::env::temp_dir().join(format!("repro-cli-serve-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(results.join(".write-probe")).unwrap();
    let out = repro()
        .args(["serve", "--quick", "--results"])
        .arg(&results)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not writable"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir_all(&results).ok();
}

/// `repro serve --check-schema` against the committed golden passes (the
/// quick run's *values* differ from the committed full run, but the JSON
/// shape must match), and fails cleanly against a stale schema or a
/// malformed file.
#[test]
fn serve_check_schema_gates_on_shape_not_values() {
    let results = std::env::temp_dir().join(format!("repro-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&results).unwrap();
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/serve.json");
    let out = repro()
        .args(["serve", "--quick", "--results"])
        .arg(&results)
        .args(["--check-schema", committed])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("schema check OK"), "stdout: {stdout}");

    // A stale committed schema must fail with exit 1, not a panic.
    let stale = results.join("stale-serve.json");
    std::fs::write(&stale, "{\"schema\": \"serve-v0\", \"gone\": 1}\n").unwrap();
    let out = repro()
        .args(["serve", "--quick", "--results"])
        .arg(&results)
        .arg("--check-schema")
        .arg(&stale)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("schema mismatch"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");

    // So must a committed file that is not JSON at all (truncated write).
    let truncated = results.join("truncated-serve.json");
    std::fs::write(&truncated, "{\"schema\": \"serve-v1\", \"work").unwrap();
    let out = repro()
        .args(["serve", "--quick", "--results"])
        .arg(&results)
        .arg("--check-schema")
        .arg(&truncated)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot parse"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir_all(&results).ok();
}

#[test]
fn unwritable_results_dir_is_a_clean_error() {
    // The directory exists but rejects the write probe: running as root
    // bypasses mode bits, so instead occupy the probe's own path with a
    // directory — `fs::write(".write-probe")` then fails for any uid.
    let results = std::env::temp_dir().join(format!("repro-cli-unwritable-{}", std::process::id()));
    std::fs::create_dir_all(results.join(".write-probe")).unwrap();
    let out = repro()
        .args(["chaos", "--quick", "--results"])
        .arg(&results)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not writable"), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    std::fs::remove_dir_all(&results).ok();
}
