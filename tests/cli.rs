//! Process-level check of the shared command-line cursor (`engine::cli`)
//! through the binary most scripts call.

use std::process::Command;

#[test]
fn bhsim_rejects_a_misspelt_flag_with_exit_2_and_a_suggestion() {
    let out = Command::new(env!("CARGO_BIN_EXE_bhsim"))
        .args(["--stpes", "4"])
        .output()
        .expect("spawn bhsim");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "a rejected command line must not start a run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bhsim: unknown option: --stpes (did you mean --steps?)"), "{stderr}");
    assert!(stderr.contains("usage: bhsim"), "{stderr}");
}
