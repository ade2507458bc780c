//! `bhserve` and `bhload` answer `--help` on stdout with exit 0, and refuse
//! a bad command line on stderr with exit 2 (the shared `engine::cli`).

use std::process::Command;

#[test]
fn help_is_an_answer_not_an_error() {
    for (bin, head) in
        [(env!("CARGO_BIN_EXE_bhserve"), "bhserve — "), (env!("CARGO_BIN_EXE_bhload"), "bhload — ")]
    {
        for flag in ["--help", "-h"] {
            let out = Command::new(bin).arg(flag).output().expect("spawn");
            assert_eq!(out.status.code(), Some(0), "{bin} {flag}");
            assert!(String::from_utf8_lossy(&out.stdout).starts_with(head), "{bin} {flag}");
            assert!(out.stderr.is_empty(), "{bin} {flag} is no error");
        }
        let out = Command::new(bin).arg("--hlep").output().expect("spawn");
        assert_eq!(out.status.code(), Some(2), "{bin} --hlep");
        assert!(out.stdout.is_empty());
        assert!(String::from_utf8_lossy(&out.stderr).contains("did you mean --help?"));
    }
}
