//! Process-level checks of `bhsim` through the binary most scripts call:
//! its answer to `--help`, its refusals — the shared command-line cursor
//! (`engine::cli`, which `snapdiff` parses with too) and the
//! capability table (`engine::caps`, which runs `SimConfig::validate` first)
//! — and the step-fault supervisor.

use std::path::{Path, PathBuf};
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

/// What `bin` does with `args`: exit code, stdout, stderr.
fn status_of(bin: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn help_is_an_answer_not_an_error() {
    for (bin, head) in [
        (env!("CARGO_BIN_EXE_bhsim"), "usage: bhsim"),
        (env!("CARGO_BIN_EXE_snapdiff"), "usage: snapdiff"),
    ] {
        for flag in ["--help", "-h"] {
            let (code, stdout, stderr) = status_of(bin, &[flag]);
            assert_eq!(code, Some(0), "{bin} {flag}: {stderr}");
            assert!(stdout.starts_with(head), "{bin} {flag} prints its usage on stdout");
            assert!(stderr.is_empty(), "{bin} {flag} is no error: {stderr}");
        }
        // A rejected command line still exits 2 with the usage on stderr.
        let (code, stdout, stderr) = status_of(bin, &["--hlep"]);
        assert_eq!(code, Some(2));
        assert!(stdout.is_empty());
        assert!(stderr.contains("did you mean --help?") && stderr.contains(head), "{stderr}");
    }
}

/// Copies the directory tree `from` to `to`.
fn copy_tree(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy");
    for entry in std::fs::read_dir(from).expect("read fixture").flatten() {
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_tree(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy file");
        }
    }
}

/// Every file under `dir`, sorted.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read dir").flatten() {
        if entry.file_type().expect("file type").is_dir() {
            files.extend(files_under(&entry.path()));
        } else {
            files.push(entry.path());
        }
    }
    files.sort();
    files
}

#[test]
fn bhsim_rejects_an_unsupported_combination_before_any_work() {
    let tmp = std::env::temp_dir().join(format!("bhsim-unsupported-{}", std::process::id()));
    let dir = tmp.join("ck");
    // Copies of the v1 fixture store whose manifest describes a machine
    // without ranks: the resume path judges them like a fresh run.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v1");
    let manifest = std::fs::read_to_string(fixture.join("step-0002.json")).expect("fixture");
    let mut stores = Vec::new();
    for (name, from, to) in [
        ("nodes-0", "\"nodes\": 2", "\"nodes\": 0"),
        ("threads-0", "\"threads_per_node\": 1", "\"threads_per_node\": 0"),
    ] {
        assert!(manifest.contains(from), "{from} not in the fixture manifest");
        let store = tmp.join(name);
        copy_tree(&fixture, &store);
        std::fs::write(store.join("step-0002.json"), manifest.replace(from, to)).expect("write");
        stores.push(store);
    }
    let resumes: Vec<String> =
        stores.iter().map(|s| s.join("step-0002.json").display().to_string()).collect();
    let cases: [(&[&str], &str); 5] = [
        (&["--opt", "subspace", "--build", "sorted", "--nodes", "2"], "[E_UNSUPPORTED]"),
        (&["--opt", "subspace", "--tree-policy", "reuse", "--nodes", "2"], "[E_UNSUPPORTED]"),
        (&["--nodes", "0"], "[E_MACHINE]"),
        (&["--resume", &resumes[0]], "[E_MACHINE]"),
        (&["--resume", &resumes[1]], "[E_MACHINE]"),
    ];
    let before: Vec<_> = stores.iter().map(|s| files_under(s)).collect();
    for (args, code) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_bhsim"))
            .args(args)
            .args(["--n", "64", "--steps", "2", "--measured", "1"])
            .args(["--checkpoint-every", "1", "--checkpoint-dir", dir.to_str().unwrap()])
            .output()
            .expect("spawn bhsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(code), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty() && !stderr.contains("workload:"), "it did work: {stderr}");
        assert!(!dir.exists(), "{args:?}: the checkpoint directory was created before the refusal");
    }
    let after: Vec<_> = stores.iter().map(|s| files_under(s)).collect();
    assert_eq!(before, after, "a refused resume wrote into its store");
    let _ = std::fs::remove_dir_all(&tmp);
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

/// Runs `bhsim` with `args` and returns its parsed `--json` report.
fn bhsim_json(args: &[&str]) -> serde::Value {
    let out = Command::new(env!("CARGO_BIN_EXE_bhsim")).args(args).output().expect("spawn bhsim");
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("--json parses")
}

/// The keys of a JSON object, in order.
fn keys(value: &serde::Value) -> Vec<&str> {
    let serde::Value::Object(entries) = value else { panic!("expected an object: {value:?}") };
    entries.iter().map(|(key, _)| key.as_str()).collect()
}

/// The `--json` row scripts read, pinned key for key so that adding or
/// dropping a field is a deliberate change to this list.
#[test]
fn bhsim_json_rows_carry_exactly_the_pinned_keys() {
    const ROW: [&str; 14] = [
        "scenario",
        "backend",
        "spec",
        "workload",
        "state_digest",
        "wall_ms",
        "phases",
        "total_sim",
        "migration_fraction",
        "tree_bytes",
        "stats",
        "phases_host_ms",
        "tail_ms",
        "tree_rebuilds",
    ];
    // The `bhserve` job keys that rerun the row, in knob-table order.
    const SPEC: [&str; 14] = [
        "n",
        "seed",
        "theta",
        "eps",
        "dt",
        "steps",
        "measured",
        "policy",
        "walk",
        "build",
        "opt",
        "nodes",
        "threads_per_node",
        "pthreads",
    ];
    let small = ["--n", "64", "--nodes", "2", "--steps", "2", "--measured", "1", "--json"];
    let single = bhsim_json(&[&["--backend", "upc"], &small[..]].concat());
    let compared = bhsim_json(&[&["--compare", "upc,mpi,direct"], &small[..]].concat());
    let rows = compared.as_array().expect("--compare prints an array");
    assert_eq!(rows.len(), 3);
    for row in [&single, &rows[0]] {
        assert_eq!(keys(row), ROW);
        assert_eq!(keys(row.get("spec").expect("spec")), SPEC);
    }
    // The reuse parameters apply under the reuse policy only.
    let reuse = ["--opt", "cache-local-tree", "--tree-policy", "reuse"];
    let reused = bhsim_json(&[&reuse[..], &small[..]].concat());
    let mut spec = SPEC.to_vec();
    spec.splice(8..8, ["rebuild_every", "drift_threshold"]);
    assert_eq!(keys(reused.get("spec").expect("spec")), spec);
}
