//! Drives the real `bhmark` binary over all five workloads in `--quick`
//! mode (sizes / 8, one cycle) against the release binaries under test.
//!
//! Those binaries are built by `benchmark/run.sh`, not by this package; the
//! test looks for them next to its own target directory and says so when
//! they are not there yet.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `<target>/release`, from `<target>/debug/bhmark`.
fn release_dir() -> PathBuf {
    let driver = Path::new(env!("CARGO_BIN_EXE_bhmark"));
    driver.parent().and_then(Path::parent).expect("target/<profile>/bhmark").join("release")
}

#[test]
fn a_quick_run_of_every_workload_is_correct() {
    let bin_dir = release_dir();
    if ["bhsim", "snapdiff", "bhserve"].iter().any(|b| !bin_dir.join(b).exists()) {
        eprintln!(
            "skipped: no release binaries in {}; run benchmark/run.sh once",
            bin_dir.display()
        );
        return;
    }
    let out_dir = bin_dir.with_file_name(format!("bhmark-quick-{}", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_bhmark"))
        .args(["--quick", "--seed", "7", "--bin-dir"])
        .arg(&bin_dir)
        .arg("--out-dir")
        .arg(&out_dir)
        .output()
        .expect("bhmark runs");
    let _ = std::fs::remove_dir_all(&out_dir);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "bhmark --quick failed:\n{stdout}");

    let results: Vec<(&str, serde::Value)> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("RESULT ")?.split_once(' '))
        .map(|(name, json)| (name, serde_json::from_str(json).expect("RESULT lines are JSON")))
        .collect();
    let names: Vec<&str> = results.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, bhmark::workload::NAMES);
    for (name, result) in &results {
        assert_eq!(result.get("correct").and_then(|v| v.as_bool()), Some(true), "{name}");
        let metrics = result.get("metrics").expect("metrics");
        for declared in bhmark::metrics::end_to_end() {
            let value = metrics.get(&declared.name).and_then(|m| m.get("value")?.as_f64());
            assert!(value.is_some_and(|v| v > 0.0), "{name}: {} is {value:?}", declared.name);
        }
    }
}
