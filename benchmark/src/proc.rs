//! Running the binaries under test as a user would: spawn, wait, read the
//! JSON they print.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Value;

use crate::host::CpuPlan;

/// One finished process.
pub struct Finished {
    /// Spawn-to-exit wall time in seconds.
    pub wall_s: f64,
    /// Exit code (`None` when killed by a signal).
    pub code: Option<i32>,
    /// Standard output parsed as JSON, when it is JSON.
    pub json: Option<Value>,
    /// Peak resident set in megabytes, when it was watched.
    pub peak_rss_mb: Option<f64>,
}

fn spawn(plan: &CpuPlan, program: &Path, args: &[String]) -> Result<std::process::Child, String> {
    let mut command = Command::new(program);
    command.args(args).stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
    plan.spawn_program(&mut command).map_err(|e| format!("cannot spawn {}: {e}", program.display()))
}

fn finish(
    child: std::process::Child,
    start: Instant,
    peak_rss_mb: Option<f64>,
) -> Result<Finished, String> {
    let output = child.wait_with_output().map_err(|e| format!("waiting for a child: {e}"))?;
    let wall_s = start.elapsed().as_secs_f64();
    let json = serde_json::from_str(&String::from_utf8_lossy(&output.stdout)).ok();
    Ok(Finished { wall_s, code: output.status.code(), json, peak_rss_mb })
}

/// Spawns `program` confined to the program CPU, waits for it, and parses
/// its standard output.  `Err` only when the process could not be spawned.
pub fn run(plan: &CpuPlan, program: &Path, args: &[String]) -> Result<Finished, String> {
    let start = Instant::now();
    finish(spawn(plan, program, args)?, start, None)
}

/// Like [`run`], polling the process's peak resident set while it runs.
/// The last reading before exit stands for the peak; the output must fit
/// the pipe buffer (a `--json` report does), since nothing drains it until
/// the process has exited.
pub fn run_watching_rss(
    plan: &CpuPlan,
    program: &Path,
    args: &[String],
) -> Result<Finished, String> {
    let start = Instant::now();
    let mut child = spawn(plan, program, args)?;
    let mut peak = None;
    while matches!(child.try_wait(), Ok(None)) {
        peak = crate::host::peak_rss_mb(child.id()).or(peak);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    finish(child, start, peak)
}

/// Like [`run`], for a process that must exit 0 and print a JSON object:
/// anything else is described in the error.
pub fn run_json(plan: &CpuPlan, program: &Path, args: &[String]) -> Result<(f64, Value), String> {
    let done = run(plan, program, args)?;
    let name = program.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    if done.code != Some(0) {
        return Err(format!("{name} {} exited with {:?}", args.join(" "), done.code));
    }
    match done.json {
        Some(json) => Ok((done.wall_s, json)),
        None => Err(format!("{name} {} printed no JSON", args.join(" "))),
    }
}

/// A directory under the scratch space, removed when dropped.
pub struct ScratchDir(pub std::path::PathBuf);

impl ScratchDir {
    pub fn create(path: std::path::PathBuf) -> std::io::Result<ScratchDir> {
        // A leftover from a killed run would make checkpoints dedup against
        // stale chunks.
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    pub fn file(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Errors are ignored: Drop must not panic, and a leftover directory
        // is replaced by the next run.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
