//! `bhsim` — scenario × backend driver for the emulated Barnes-Hut system.
//!
//! Runs any registered workload scenario through any registered solver
//! backend (`upc` — the paper's optimization ladder, `mpi` — the
//! message-passing comparator, `direct` — exact summation) on any emulated
//! machine shape, and prints the per-phase timing breakdown (the paper's
//! table rows) together with the communication-traffic counters the emulator
//! collects.  `--compare` runs the same scenario/seed/machine through
//! several backends and prints one side-by-side table — the head-to-head
//! experiment the paper's §9 defers to future work.
//!
//! ```text
//! bhsim --list
//! bhsim --scenario exp-disk --n 4096 --opt subspace --nodes 4
//! bhsim --scenario hernquist --n 8192 --backend mpi --nodes 8
//! bhsim --scenario king --n 2048 --compare upc,mpi,direct --json
//! bhsim --scenario plummer --n 2048 --steps 8 --checkpoint-every 2 --checkpoint-dir ckpt
//! bhsim --resume ckpt/step-0004.json --json
//! ```
//!
//! Checkpointing runs any backend step-tracked and saves a resumable
//! snapshot (`snapstore`, content-addressed) every N steps; `--resume`
//! replays from the snapshot's rebuild anchor, verifies the replay
//! bit-for-bit against the stored bodies, and continues to the run's
//! configured steps — the final state is bit-identical to the
//! uninterrupted run (compare `state_digest` in `--json` output).

use std::path::Path;

use barnes_hut_upc::engine;
use barnes_hut_upc::prelude::*;
use engine::cli::Args;
use engine::knobs;
use snapstore::{Saved, SimState, Store};

struct Options {
    scenario: String,
    backend: String,
    compare: Option<Vec<String>>,
    knobs: Vec<(String, serde::Value)>,
    checkpoint_every: Option<usize>,
    checkpoint_dir: Option<String>,
    resume: Option<String>,
    faults: engine::FaultPlan,
    json: bool,
    list: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scenario: "plummer".to_string(),
            backend: "upc".to_string(),
            compare: None,
            knobs: Vec::new(),
            checkpoint_every: None,
            checkpoint_dir: None,
            resume: None,
            faults: engine::FaultPlan::default(),
            json: false,
            list: false,
        }
    }
}

fn usage() -> String {
    let mut configuration = String::new();
    for knob in &knobs::ROWS {
        let Some((flag, help)) = knob.flag else { continue };
        let choices = match knob.kind {
            knobs::Kind::Name { choices, .. } => {
                let names: Vec<&str> = choices().into_iter().map(|(name, _)| name).collect();
                format!(": {}", names.join(", "))
            }
            _ => String::new(),
        };
        let default = knob.default_text(Some(knobs::Front::Flag));
        let head = format!("{flag} {}", knob.metavar());
        configuration += &format!("{head:<20} {help}{choices} (default {default})\n");
    }
    format!(
        "usage: bhsim [options]\n\
         \n\
         workload and solver:\n\
           --scenario NAME      workload family (default plummer); see --list\n\
           --backend NAME       solver backend            (default upc); see --list\n\
           --compare B1,B2,...  run several backends on the same workload and\n\
                                print one side-by-side comparison table\n\
         \n\
         configuration (where each value runs: --list):\n\
         {configuration}\
         \n\
         checkpointing (content-addressed snapstore):\n\
           --checkpoint-every N save a resumable snapshot every N completed steps\n\
           --checkpoint-dir D   snapshot store directory (required with\n\
                                --checkpoint-every; snapshots land as\n\
                                D/step-NNNN.json + deduplicated chunks)\n\
           --resume MANIFEST    continue an interrupted run from a snapshot\n\
                                manifest; the workload/solver flags come from\n\
                                the manifest, and the finished run is\n\
                                bit-identical to an uninterrupted one\n\
         \n\
         fault injection (the faultline plane; deterministic, seeded):\n\
           --faults SPEC        inject faults at named sites; SPEC is a\n\
                                comma-separated list like\n\
                                  seed=7,engine.step@n2,snap.chunk.torn@p0.1\n\
                                triggers: @nK (Kth call), @pF (probability F\n\
                                per call from a seeded stream), @sL..H (once\n\
                                in step/call range [L,H)); engine.step faults\n\
                                need --checkpoint-every — the supervisor\n\
                                restores the latest snapshot and replays with\n\
                                bounded backoff, bit-identical to a fault-free\n\
                                run (compare state_digest)\n\
         \n\
         output:\n\
           --list               list scenarios, backends, every axis and the valid\n\
                                combinations, then exit\n\
           --json               print the report as JSON instead of a table\n\
           --help               print this help and exit\n"
    )
}

/// The flags `bhsim` accepts besides the knob table's: with those, what
/// [`engine::cli::Args`] admits and what an unknown flag is matched against
/// for its did-you-mean.
const FLAGS: &[&str] = &[
    "--list",
    "--json",
    "--scenario",
    "--backend",
    "--compare",
    "--checkpoint-every",
    "--checkpoint-dir",
    "--resume",
    "--faults",
];

fn parse_args() -> Options {
    let mut opts = Options::default();
    let flags: Vec<&str> =
        FLAGS.iter().copied().chain(knobs::names_on(knobs::Front::Flag)).collect();
    let mut args = Args::from_env("bhsim", &flags, usage);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => opts.list = true,
            "--json" => opts.json = true,
            "--scenario" => opts.scenario = args.value("--scenario"),
            "--backend" => opts.backend = args.value("--backend"),
            "--compare" => {
                let list = args.value("--compare");
                let names: Vec<String> = list
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    args.reject("--compare needs a comma-separated list of backends")
                }
                opts.compare = Some(names);
            }
            "--checkpoint-every" => {
                let every: usize = args.number("--checkpoint-every");
                if every == 0 {
                    args.reject("invalid value for --checkpoint-every: must be at least 1")
                }
                opts.checkpoint_every = Some(every);
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(args.value("--checkpoint-dir")),
            "--resume" => opts.resume = Some(args.value("--resume")),
            "--faults" => {
                let spec = args.value("--faults");
                opts.faults = engine::FaultPlan::parse(&spec)
                    .unwrap_or_else(|e| args.reject(&format!("invalid --faults spec: {e}")));
            }
            other => {
                if !knobs::take_flag(&mut args, other, &mut opts.knobs) {
                    args.unknown(other)
                }
            }
        }
    }
    if opts.checkpoint_every.is_some() != opts.checkpoint_dir.is_some() {
        args.reject("--checkpoint-every and --checkpoint-dir must be given together")
    }
    if (opts.checkpoint_every.is_some() || opts.resume.is_some()) && opts.compare.is_some() {
        args.reject("checkpointing and --resume drive a single backend, not --compare")
    }
    if opts.faults.targets("engine.step") && opts.checkpoint_every.is_none() {
        args.reject(
            "--faults engine.step needs --checkpoint-every/--checkpoint-dir — the \
             step-fault supervisor recovers by restoring the latest checkpoint",
        )
    }
    opts
}

/// Newest `step-NNNN.json` manifest in the checkpoint directory, if any —
/// the restore point the step-fault supervisor resumes from.
fn latest_checkpoint(dir: &str) -> Option<std::path::PathBuf> {
    let mut best: Option<(String, std::path::PathBuf)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("step-") && name.ends_with(".json") {
            // Zero-padded step numbers sort lexicographically.
            if best.as_ref().is_none_or(|(b, _)| name > *b) {
                best = Some((name, entry.path()));
            }
        }
    }
    best.map(|(_, path)| path)
}

/// The run's checkpointing: the store, the cadence, the first save error,
/// and what each save reported.
struct Checkpointer {
    store: Store,
    every: usize,
    error: Option<String>,
    saved: Vec<Saved>,
}

impl Checkpointer {
    /// Opens the snapshot store when checkpointing was requested, armed
    /// with the run's fault plan (the `snap.*` injection sites live in the
    /// store).
    fn open(opts: &Options) -> Option<Checkpointer> {
        let (dir, every) = (opts.checkpoint_dir.as_ref()?, opts.checkpoint_every?);
        let store = Store::open(dir)
            .unwrap_or_else(|e| {
                eprintln!("bhsim: {e}");
                std::process::exit(1)
            })
            .with_faults(opts.faults.clone());
        Some(Checkpointer { store, every, error: None, saved: Vec::new() })
    }

    /// The periodic-save policy shared by cold and resumed runs: every N
    /// completed steps, plus the run's final state.
    fn save(&mut self, state: &SimState) {
        if !state.step.is_multiple_of(self.every) && state.step != state.cfg.steps {
            return;
        }
        if self.error.is_some() {
            return;
        }
        let name = format!("step-{:04}", state.step);
        match self.store.save(state, &name) {
            Ok(saved) => {
                eprintln!(
                    "bhsim: checkpoint {} (step {}, {} chunk(s), {} new)",
                    saved.manifest_path.display(),
                    state.step,
                    saved.chunks_total,
                    saved.chunks_new
                );
                self.saved.push(saved);
            }
            Err(e) => self.error = Some(e.to_string()),
        }
    }

    /// What the run's saves did, summed: the `checkpoints` object of
    /// `--json`, and the stderr line [`Checkpointer::finish`] prints.
    fn totals(&self) -> Vec<(String, serde::Value)> {
        let count =
            |field: fn(&Saved) -> u64| serde::Value::UInt(self.saved.iter().map(field).sum());
        let ms = |field: fn(&Saved) -> f64| serde::Value::Float(self.saved.iter().map(field).sum());
        let totals = [
            ("saved", serde::Value::UInt(self.saved.len() as u64)),
            ("chunks_total", count(|s| s.chunks_total as u64)),
            ("chunks_new", count(|s| s.chunks_new as u64)),
            ("files_written", count(|s| s.files_written as u64)),
            ("bytes_written", count(|s| s.bytes_written)),
            ("fsyncs", count(|s| s.fsyncs as u64)),
            ("encode_ms", ms(|s| s.encode_ms)),
            ("hash_ms", ms(|s| s.hash_ms)),
            ("write_ms", ms(|s| s.write_ms)),
            ("sync_ms", ms(|s| s.sync_ms)),
        ];
        totals.into_iter().map(|(name, value)| (name.to_string(), value)).collect()
    }

    /// Ends the run's checkpointing: exits on a failed save, else says on
    /// stderr where the checkpoints' host time went.
    fn finish(&self) {
        if let Some(e) = &self.error {
            eprintln!("bhsim: checkpoint save failed: {e}");
            std::process::exit(1)
        }
        let line: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, value)| match value {
                serde::Value::Float(ms) => format!("{name} {ms:.1}"),
                other => format!("{name} {}", other.as_u64().unwrap_or(0)),
            })
            .collect();
        eprintln!("bhsim: checkpoints: {}", line.join(" | "));
    }
}

/// `--resume`: load the manifest, replay from the anchor, continue to the
/// configured steps, and report like a normal single-backend run.
fn run_resume(opts: &Options, manifest: &str) {
    // A resumed run's workload comes from the store, not a generator: the
    // load is its `tail_ms.generate`.
    let (state, load_ms) = timed(|| snapstore::load_state(Path::new(manifest)));
    let state = state.unwrap_or_else(|e| {
        eprintln!("bhsim: {e}");
        std::process::exit(1)
    });
    let backends = backend_registry();
    let backend = backends.lookup(&state.backend).unwrap_or_else(|e| {
        eprintln!("bhsim: {e}");
        std::process::exit(2)
    });
    if let Err(e) = backend.caps().check(&state.cfg) {
        eprintln!("bhsim: backend {} cannot resume this checkpoint: {e}", state.backend);
        std::process::exit(2)
    }
    let registry = scenario_registry();
    let scenario = registry.get(&state.scenario).unwrap_or_else(|| {
        eprintln!(
            "bhsim: {}",
            engine::suggest::unknown_key("scenario", &state.scenario, &registry.names())
        );
        std::process::exit(2)
    });
    // A persistent tree's checkpoint anchors before its step: resume
    // replays from the anchor to restore the rebuild cadence.
    let replay = match state.steps_since_rebuild() {
        0 => String::new(),
        n => format!(" (replaying {n} step(s) to restore the rebuild cadence)"),
    };
    eprintln!(
        "bhsim: resuming {} | backend {} | step {}/{} | anchor {}{replay}",
        state.scenario, state.backend, state.step, state.cfg.steps, state.anchor_step,
    );

    let mut checkpoints = Checkpointer::open(opts);
    let start = std::time::Instant::now();
    let result = snapstore::resume(&state, backend, |continued| {
        if let Some(checkpoints) = &mut checkpoints {
            checkpoints.save(&continued);
        }
    })
    .unwrap_or_else(|e| {
        eprintln!("bhsim: {e}");
        std::process::exit(1)
    });
    if let Some(checkpoints) = &checkpoints {
        checkpoints.finish();
    }

    let run = BackendRun {
        name: state.backend.clone(),
        result,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    };
    let (diag, diagnostics_ms) = timed(|| scenario.diagnostics(&state.bodies));
    if opts.json {
        let runs = std::slice::from_ref(&run);
        let tail = Tail { generate_ms: load_ms, diagnostics_ms };
        print_json(&state.scenario, &state.cfg, &diag, &tail, runs, false, checkpoints.as_ref());
    } else {
        print_report(&state.cfg, &run.result);
    }
}

fn list_registries() {
    println!("registered scenarios:");
    for scenario in scenario_registry().iter() {
        let t = scenario.recommended_config();
        println!(
            "  {:<10} {}  [theta {}, eps {}, dt {}]",
            scenario.name(),
            scenario.description(),
            t.theta,
            t.eps,
            t.dt
        );
    }
    println!();
    println!("registered backends:");
    for backend in backend_registry().iter() {
        println!("  {:<10} {}", backend.name(), backend.description());
    }
    // The named knobs are enums, not registries, but a sweep script should
    // be able to discover every axis from one command.
    for knob in &knobs::ROWS {
        let (knobs::Kind::Name { what, choices }, Some((flag, _))) = (knob.kind, knob.flag) else {
            continue;
        };
        println!();
        println!("{what} names ({flag}):");
        for (name, description) in choices() {
            println!("{}", format!("  {name:<10} {description}").trim_end());
        }
    }
    println!();
    print!("{}", engine::caps::render(&backend_registry()));
}

fn main() {
    let opts = parse_args();
    if opts.list {
        list_registries();
        return;
    }
    if let Some(manifest) = opts.resume.clone() {
        run_resume(&opts, &manifest);
        return;
    }

    let registry = scenario_registry();
    let scenario = registry.get(&opts.scenario).unwrap_or_else(|| {
        eprintln!(
            "{}",
            engine::suggest::unknown_key("scenario", &opts.scenario, &registry.names())
        );
        std::process::exit(2)
    });

    // Every knob not given takes its table default; θ/ε/dt the scenario's.
    let tuning = scenario.recommended_config();
    let given = serde::Value::Object(opts.knobs.clone());
    let mut cfg = knobs::config(knobs::Front::Flag, &given, &tuning)
        .unwrap_or_else(|e| engine::cli::reject("bhsim", usage, &e.to_string()));
    cfg.faults = opts.faults.clone();

    // Every backend's capability row judges the run before any work: no
    // bodies generated, no checkpoint directory created.
    let backends = backend_registry();
    let backend_names = opts.compare.clone().unwrap_or_else(|| vec![opts.backend.clone()]);
    for name in &backend_names {
        let caps = backends.lookup(name).map(|b| b.caps()).unwrap_or_else(|e| {
            eprintln!("bhsim: {e}");
            std::process::exit(2)
        });
        if let Err(e) = caps.check(&cfg) {
            eprintln!("bhsim: backend {name} cannot run this config: {e}");
            std::process::exit(2)
        }
    }

    let flags = knobs::encode(knobs::Front::Flag, &cfg);
    let knob_values: Vec<String> = (flags.as_object().unwrap_or_default().iter())
        .map(|(flag, value)| format!("{} {}", flag.trim_start_matches("--"), knobs::text(value)))
        .collect();
    eprintln!(
        "bhsim: scenario {} | backend(s) {} | {}",
        scenario.name(),
        backend_names.join(","),
        knob_values.join(" | ")
    );

    let (bodies, generate_ms) = timed(|| scenario.generate(cfg.nbodies, cfg.seed));
    let (diag, diagnostics_ms) = timed(|| scenario.diagnostics(&bodies));
    let tail = Tail { generate_ms, diagnostics_ms };
    eprintln!(
        "workload: mass {:.3} | r10/r50/r90 {:.3}/{:.3}/{:.3} | sigma {:.3} | virial {:.3} | |L| {:.3}",
        diag.total_mass,
        diag.r10,
        diag.r50,
        diag.r90,
        diag.velocity_dispersion,
        diag.virial_ratio,
        diag.angular_momentum,
    );

    // The single comparison driver: one backend is just a one-column run.
    // Under --checkpoint-every the run goes through the step-tracked entry
    // instead, feeding a snapstore Recorder that persists resumable
    // snapshots on the requested cadence.
    let mut checkpoints = Checkpointer::open(&opts);
    let runs = if let Some(checkpoints) = &mut checkpoints {
        let backend = backends.get(&opts.backend).expect("checked above");
        // The step-fault supervisor: a tracked run that aborts with a
        // retryable STEP_FAULT is restored from the newest checkpoint (or
        // restarted from the identical initial conditions when the fault
        // landed before the first save) and replayed with bounded,
        // deterministically jittered backoff.  The replay-anchor machinery
        // verifies the restore bit-for-bit, so a recovered run's
        // state_digest equals the fault-free one.
        const MAX_STEP_RETRIES: usize = 4;
        let dir = opts.checkpoint_dir.as_deref().expect("checkpointing implies a dir");
        let start = std::time::Instant::now();
        let mut attempt = 0usize;
        let result = loop {
            let restore = if attempt == 0 { None } else { latest_checkpoint(dir) };
            let outcome = match restore {
                Some(manifest) => {
                    let state = snapstore::load_state(&manifest).unwrap_or_else(|e| {
                        eprintln!("bhsim: restoring {}: {e}", manifest.display());
                        std::process::exit(1)
                    });
                    eprintln!(
                        "bhsim: supervisor restoring {} (step {}/{})",
                        manifest.display(),
                        state.step,
                        state.cfg.steps
                    );
                    snapstore::resume(&state, backend, |continued| checkpoints.save(&continued))
                }
                None => {
                    let mut recorder = snapstore::Recorder::new(
                        scenario.name(),
                        &opts.backend,
                        &cfg,
                        bodies.clone(),
                        0,
                    );
                    backend.run_tracked(&cfg, bodies.clone(), &mut |record| {
                        checkpoints.save(&recorder.observe(&record));
                    })
                }
            };
            match outcome {
                Ok(result) => break result,
                Err(e) if e.contains(engine::fault::STEP_FAULT) && attempt < MAX_STEP_RETRIES => {
                    attempt += 1;
                    let delay = engine::fault::backoff_ms(10, cfg.faults.seed, attempt);
                    eprintln!("bhsim: {e}; retry {attempt}/{MAX_STEP_RETRIES} in {delay} ms");
                    std::thread::sleep(std::time::Duration::from_millis(delay));
                }
                Err(e) => {
                    eprintln!("bhsim: {e}");
                    std::process::exit(2)
                }
            }
        };
        checkpoints.finish();
        vec![BackendRun {
            name: opts.backend.clone(),
            result,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
        }]
    } else {
        engine::run_backends(&backends, &backend_names, &cfg, &bodies).unwrap_or_else(|e| {
            eprintln!("bhsim: {e}");
            std::process::exit(2)
        })
    };

    // `--compare upc` (one name) still gets comparison-shaped output — a
    // one-column table, a one-element JSON array — so sweep scripts see a
    // stable shape regardless of how many backends they request.
    let comparing = opts.compare.is_some();
    if opts.json {
        print_json(scenario.name(), &cfg, &diag, &tail, &runs, comparing, checkpoints.as_ref());
    } else if comparing {
        print_comparison(&cfg, &runs);
    } else {
        print_report(&cfg, &runs[0].result);
    }
}

fn print_report(cfg: &SimConfig, result: &SimResult) {
    println!();
    println!(
        "per-phase simulated seconds and host milliseconds (max over {} ranks, {} measured step(s)):",
        cfg.ranks(),
        cfg.measured_steps
    );
    println!("  {:<16} {:>12}  {:>6}  {:>10}", "phase", "seconds", "%", "host ms");
    for phase in Phase::ALL {
        println!(
            "  {:<16} {:>12.6}  {:>5.1}%  {:>10.3}",
            phase.label(),
            result.phases.get(phase),
            result.phases.percent(phase),
            result.phases_host_ms.get(phase)
        );
    }
    println!(
        "  {:<16} {:>12.6}  {:>6}  {:>10.3}",
        "TOTAL",
        result.total,
        "",
        result.phases_host_ms.total()
    );

    let stats = result.total_stats();
    println!();
    println!("communication traffic (sum over ranks, whole run):");
    println!("  fine-grained remote ops : {:>12}", stats.remote_ops());
    println!("  bulk messages           : {:>12}", stats.messages);
    println!("  bytes in / out          : {:>12} / {}", stats.bytes_in, stats.bytes_out);
    println!("  lock acquisitions       : {:>12}", stats.lock_acquires);
    println!("  interactions            : {:>12}", stats.interactions);
    println!("  tree operations         : {:>12}", stats.tree_ops);
    println!("  multipole tests (macs)  : {:>12}", stats.macs);
    if let Some(fraction) = result.vlist_single_source_fraction() {
        println!("  vlist single-source     : {:>11.1}%", 100.0 * fraction);
    }
    println!("  migration / step        : {:>11.2}%", 100.0 * result.migration_fraction);
    if result.tree_rebuilds > 0 {
        println!("  tree rebuilds / steps   : {:>12} / {}", result.tree_rebuilds, cfg.steps);
    }

    // Load balance over ranks: the paper's imbalance discussions in one line.
    let times: Vec<f64> = result.ranks.iter().map(|r| r.phases.total()).collect();
    let max = times.iter().cloned().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
    if mean > 0.0 {
        println!("  rank imbalance (max/avg): {:>12.3}", max / mean);
    }
}

fn print_comparison(cfg: &SimConfig, runs: &[BackendRun]) {
    println!();
    println!(
        "head-to-head, per-phase simulated seconds (max over {} ranks, {} measured step(s)):",
        cfg.ranks(),
        cfg.measured_steps
    );
    print!("{}", engine::comparison_table(runs));
    // Makespan ratios against the first (reference) backend.
    let reference = &runs[0];
    println!();
    for run in &runs[1..] {
        println!(
            "  {} / {} makespan ratio: {:.3}",
            run.name,
            reference.name,
            run.result.total / reference.result.total.max(1e-12)
        );
    }
}

/// Host milliseconds of the serial work around the backend run, the part of
/// a `bhsim` process `wall_ms` does not cover.  The third part, the
/// `state_digest`, is timed where [`summary_value`] computes it.
struct Tail {
    generate_ms: f64,
    diagnostics_ms: f64,
}

/// Runs `f`, returning its result and the host milliseconds it took.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

fn summary_value(
    scenario: &str,
    cfg: &SimConfig,
    diag: &Diagnostics,
    tail: &Tail,
    run: &BackendRun,
) -> serde::Value {
    // A compact machine-readable summary (the full SimResult with all body
    // states would dominate the output).  The measurement half is
    // `engine::bench::Sample`, so every backend's row has one schema:
    // `wall_ms`, `phases`, `total_sim`, `migration_fraction`, `tree_bytes`,
    // `stats` (`tests/cli.rs` pins the key set).
    let (digest, digest_ms) = timed(|| snapstore::digest_bodies(&run.result.bodies));
    let mut entries = vec![
        ("scenario".to_string(), serde::Value::String(scenario.to_string())),
        ("backend".to_string(), serde::Value::String(run.name.clone())),
        // The `bhserve` job keys that, with `op`, `tenant`, `scenario` and
        // `backend`, rerun this row.
        ("spec".to_string(), knobs::encode(knobs::Front::Wire, cfg)),
        ("workload".to_string(), serde::Serialize::to_value(diag)),
        // Canonical digest of the final body states (bit-exact, sorted by
        // id) — two runs produced the same trajectory iff these match,
        // which is how the CI checkpoint smoke compares a resumed run
        // against an uninterrupted one.
        ("state_digest".to_string(), serde::Value::String(digest)),
    ];
    let sample = engine::bench::Sample::from_run(run);
    if let serde::Value::Object(fields) = serde::Serialize::to_value(&sample) {
        entries.extend(fields);
    }
    // The host clock beside `phases` (max over ranks, measured window):
    // what emulating each phase cost.  Not part of `Sample`.
    entries.push((
        "phases_host_ms".to_string(),
        serde::Serialize::to_value(&run.result.phases_host_ms),
    ));
    // Where the process's time outside `wall_ms` went.
    let tail_ms = [
        ("generate", tail.generate_ms),
        ("diagnostics", tail.diagnostics_ms),
        ("digest", digest_ms),
    ];
    entries.push((
        "tail_ms".to_string(),
        serde::Value::Object(
            tail_ms.iter().map(|&(name, ms)| (name.to_string(), serde::Value::Float(ms))).collect(),
        ),
    ));
    // How often the shared tree was built from scratch: equal to the step
    // count, a persistent policy reused nothing.
    entries.push(("tree_rebuilds".to_string(), serde::Value::UInt(run.result.tree_rebuilds)));
    serde::Value::Object(entries)
}

fn print_json(
    scenario: &str,
    cfg: &SimConfig,
    diag: &Diagnostics,
    tail: &Tail,
    runs: &[BackendRun],
    comparing: bool,
    checkpoints: Option<&Checkpointer>,
) {
    // `--compare` always emits an array (even with one backend); a plain
    // `--backend` run emits a single object.
    let value = if comparing {
        serde::Value::Array(
            runs.iter().map(|run| summary_value(scenario, cfg, diag, tail, run)).collect(),
        )
    } else {
        let mut summary = summary_value(scenario, cfg, diag, tail, &runs[0]);
        // What the run's checkpoints cost (checkpointing runs are never
        // comparisons, so only the single-object shape carries it).
        if let (serde::Value::Object(fields), Some(checkpoints)) = (&mut summary, checkpoints) {
            fields.push(("checkpoints".to_string(), serde::Value::Object(checkpoints.totals())));
        }
        summary
    };
    println!("{}", serde_json::to_string_pretty(&value).expect("serialize report"));
}
