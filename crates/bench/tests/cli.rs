//! `tables` answers `--help` on stdout with exit 0, refuses a bad command
//! line on stderr with exit 2 (the shared `engine::cli`) before it runs
//! anything, and prints every claim of the paper once under `--all`.

use bh_bench::claims::CLAIMS;
use std::process::{Command, Output};

fn tables(line: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tables")).args(line).output().expect("spawn tables")
}

#[test]
fn help_is_an_answer_not_an_error() {
    for flag in ["--help", "-h"] {
        let out = tables(&[flag]);
        assert_eq!(out.status.code(), Some(0), "tables {flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: tables"));
        assert!(out.stderr.is_empty(), "tables {flag} is no error");
    }
    for line in [&["--hlep"][..], &[]] {
        let out = tables(line);
        assert_eq!(out.status.code(), Some(2), "tables {line:?}");
        assert!(out.stdout.is_empty(), "tables {line:?} runs nothing");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: tables"));
    }
}

/// Every point is judged by its backend (`Caps` + `SimConfig::validate`)
/// before the first run, and a refusal names the experiment and the code.
#[test]
fn an_invalid_scale_is_refused_before_anything_runs() {
    for (flag, value, code) in [
        ("--measured", "5", "[E_MEASURED_WINDOW]"),
        ("--threads", "0", "[E_MACHINE]"),
        ("--bodies", "0", "[E_NBODIES]"),
    ] {
        let out = tables(&["--smoke", flag, value, "table2"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(stderr.contains("tables: table2: ") && stderr.contains(code), "{stderr}");
        assert!(!stderr.contains("[1/"), "{flag} {value} ran a point: {stderr}");
        assert!(out.stdout.is_empty());
    }
}

/// A weak-scaling count that does not fill whole nodes would run more ranks
/// than its row is labelled and sized by.
#[test]
fn a_thread_count_that_does_not_fill_whole_nodes_is_refused() {
    let out = tables(&["--smoke", "--weak-threads", "3", "fig11"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("tables: fig11: 3 threads do not fill whole nodes of 2"), "{stderr}");
    assert!(!stderr.contains("[1/") && out.stdout.is_empty(), "{stderr}");
}

#[test]
fn an_unusable_json_dir_is_refused_at_start_up() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/out");
    let out = tables(&["--smoke", "--json", dir, "table2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("tables: --json "), "{stderr}");
    assert!(!stderr.contains("workload:"), "parsing refuses it: {stderr}");
    assert!(out.stdout.is_empty());

    // A write that fails later is refused the same way, not with a panic.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("tables-json");
    std::fs::create_dir_all(dir.join("table2.json")).unwrap();
    let out = tables(&["--smoke", "--quiet", "--json", dir.to_str().unwrap(), "table2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("tables: cannot write "), "{stderr}");
}

#[test]
fn every_claim_prints_once_under_all() {
    let out = tables(&["--smoke", "--all", "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for claim in CLAIMS {
        let line = format!("claim {} | ", claim.id);
        assert_eq!(stdout.matches(&line).count(), 1, "{}", claim.id);
    }
}
