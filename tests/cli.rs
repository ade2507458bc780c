//! Process-level checks of `bhsim` through the binary most scripts call:
//! its refusals — the shared command-line cursor (`engine::cli`) and the
//! capability table (`engine::caps`) — and the step-fault supervisor.

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
        .args(["--opt", "subspace", "--build", "sorted", "--n", "64", "--nodes", "2"])
        .args(["--steps", "2", "--measured", "1"])
        .args(["--checkpoint-every", "1", "--checkpoint-dir", dir.to_str().unwrap()])
        .output()
        .expect("spawn bhsim");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("[E_UNSUPPORTED]"), "{stderr}");
    assert!(out.stdout.is_empty() && !stderr.contains("workload:"), "it did work: {stderr}");
    assert!(!dir.exists(), "the checkpoint directory was created before the refusal");
}

/// Runs `bhsim` with `args` and returns its `--json` report's `state_digest`
/// and its stderr.
fn bhsim_digest(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bhsim")).args(args).output().expect("spawn bhsim");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    let report: serde::Value =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("--json parses");
    let digest = report.get("state_digest").and_then(|v| v.as_str()).expect("state_digest");
    (digest.to_string(), stderr)
}

#[test]
fn the_supervisor_recovers_every_backend_bit_for_bit() {
    for backend in ["upc", "mpi", "direct"] {
        let run = ["--backend", backend, "--scenario", "plummer", "--n", "256", "--nodes", "2"];
        let run = [&run[..], &["--steps", "6", "--json"]].concat();
        let (clean, _) = bhsim_digest(&run);

        let dir =
            std::env::temp_dir().join(format!("bhsim-supervised-{backend}-{}", std::process::id()));
        let checkpoints = ["--checkpoint-every", "2", "--checkpoint-dir", dir.to_str().unwrap()];
        let faults = ["--faults", "seed=3,engine.step@s4..5"];
        let (recovered, stderr) = bhsim_digest(&[&run[..], &checkpoints, &faults].concat());
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            stderr.contains("STEP_FAULT") && stderr.contains("supervisor restoring"),
            "{stderr}"
        );
        assert_eq!(recovered, clean, "{backend}: the recovered run left the fault-free trajectory");
    }
}
