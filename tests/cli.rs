//! Process-level checks of `bhsim`'s refusals — the shared command-line
//! cursor (`engine::cli`) and the capability table (`engine::caps`) —
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

#[test]
fn bhsim_rejects_an_unsupported_combination_before_any_work() {
    let dir = std::env::temp_dir().join(format!("bhsim-unsupported-{}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_bhsim"))
        .args(["--backend", "mpi", "--n", "64", "--nodes", "2", "--steps", "2", "--measured", "1"])
        .args(["--checkpoint-every", "1", "--checkpoint-dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn bhsim");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[E_UNSUPPORTED]"), "{stderr}");
    assert!(out.stdout.is_empty() && !stderr.contains("workload:"), "it did work: {stderr}");
    assert!(!dir.exists(), "the checkpoint directory was created before the refusal");
}
