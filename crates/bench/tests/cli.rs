//! `tables` answers `--help` on stdout with exit 0, and refuses a bad
//! command line on stderr with exit 2 (the shared `engine::cli`).

use std::process::Command;

#[test]
fn help_is_an_answer_not_an_error() {
    let tables = env!("CARGO_BIN_EXE_tables");
    for flag in ["--help", "-h"] {
        let out = Command::new(tables).arg(flag).output().expect("spawn tables");
        assert_eq!(out.status.code(), Some(0), "tables {flag}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: tables"));
        assert!(out.stderr.is_empty(), "tables {flag} is no error");
    }
    for line in [&["--hlep"][..], &[]] {
        let out = Command::new(tables).args(line).output().expect("spawn tables");
        assert_eq!(out.status.code(), Some(2), "tables {line:?}");
        assert!(out.stdout.is_empty(), "tables {line:?} runs nothing");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: tables"));
    }
}
