//! `bhmark` — the end-to-end half of the benchmark.
//!
//! Runs the workloads through the release binaries (`bhsim`, `snapdiff`,
//! `bhserve`) and the wire protocol, untraced, checks what they output, and
//! prints every end-to-end metric by name with its unit.  With one
//! `--workload` the last line of standard output is the JSON result an
//! outside driver reads; without, all five run in turn.
//!
//! `bhmark compare A B` reads two saved outputs and prints how far each
//! metric of B is from A, beside its bound.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use bhmark::cli::{self, Args};
use bhmark::host::{CpuPlan, Daemon, Provenance};
use bhmark::proc::{self, ScratchDir};
use bhmark::report::{self, Declared, Metric, Tally};
use bhmark::script::{self, Class};
use bhmark::serve;
use bhmark::stats;
use bhmark::workload::{self, Sweep, Window, SEED_POOL, SETUP_REPS};
use serde::Value;

struct Env {
    args: Args,
    plan: CpuPlan,
}

impl Env {
    fn bin(&self, name: &str) -> PathBuf {
        self.args.bin_dir.join(name)
    }
}

/// What one workload measured.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    /// Extra lines for the human report (per-operation medians).
    notes: Vec<String>,
}

/// What the end-to-end metrics are computed from.
struct EndToEnd {
    setup_s: Vec<f64>,
    /// Body·steps one cycle advances (every cycle does the same work).
    cycle_body_steps: u64,
    /// Host seconds each cycle's operations took.
    cycle_busy_s: Vec<f64>,
    cycle_sim_s: Vec<f64>,
    headline_s: Vec<f64>,
}

impl EndToEnd {
    fn new(setup_s: Vec<f64>, cycle_body_steps: u64) -> EndToEnd {
        EndToEnd {
            setup_s,
            cycle_body_steps,
            cycle_busy_s: Vec::new(),
            cycle_sim_s: Vec::new(),
            headline_s: Vec::new(),
        }
    }

    /// Every metric is a median over cycles or operations, so that one
    /// stalled cycle (an fsync storm, a neighbour's burst) does not move it.
    fn metrics(self) -> Vec<Metric> {
        let work = self.cycle_body_steps as f64;
        let rates = self.cycle_busy_s.iter().map(|s| work / s).collect();
        vec![
            Metric::median_of("setup_s", "s", self.setup_s, 1.0),
            Metric::median_of("body_steps_per_s", "1/s", rates, 1.0),
            Metric::median_of("sim_s", "s", self.cycle_sim_s, 1.0),
            Metric::median_of("op_p50_ms", "ms", self.headline_s, 1e3),
        ]
    }
}

fn sim_seconds(report: &Value) -> Option<f64> {
    report.get("total_sim").and_then(Value::as_f64)
}

fn digest(report: &Value) -> Option<String> {
    report.get("state_digest").and_then(Value::as_str).map(str::to_string)
}

/// `ladder-fine-4k`, `ladder-cached-16k`, `reuse-group-16k`: every cycle
/// runs each op of the sweep once as its own `bhsim` process.
fn run_sweep(env: &Env, name: &str, sweep: &Sweep) -> Outcome {
    let bhsim = env.bin("bhsim");
    let pool = workload::seed_pool(env.args.seed, name);
    let mut tally = Tally::default();

    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let mut args = sweep.warmup.bhsim_args(pool[0]);
        args.push("--json".to_string());
        match proc::run_json(&env.plan, &bhsim, &args) {
            Ok((wall, _)) => {
                tally.pass();
                setup_s.push(wall);
            }
            Err(e) => tally.fail(e),
        }
    }

    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); sweep.ops.len()];
    let mut sims: Vec<Vec<f64>> = vec![Vec::new(); sweep.ops.len()];
    let mut seen: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut out = EndToEnd::new(setup_s, sweep.ops.iter().map(|op| op.body_steps()).sum());
    let mut window = Window::open(env.args.seconds, env.args.quick);
    for cycle in 0.. {
        let slot = cycle % SEED_POOL;
        // Simulated and host seconds of the cycle; `None` once an op failed.
        let mut cycle_sum = Some((0.0, 0.0));
        let mut cycle_digests: Vec<String> = Vec::new();
        for (i, op) in sweep.ops.iter().enumerate() {
            let mut args = op.bhsim_args(pool[slot]);
            args.push("--json".to_string());
            let run = proc::run_json(&env.plan, &bhsim, &args).and_then(|(wall, report)| {
                let sim = sim_seconds(&report).ok_or("bhsim --json has no total_sim")?;
                let digest = digest(&report).ok_or("bhsim --json has no state_digest")?;
                Ok((wall, sim, digest))
            });
            match run {
                Ok((wall, sim, digest)) => {
                    tally.pass();
                    walls[i].push(wall);
                    sims[i].push(sim);
                    cycle_sum = cycle_sum.map(|(s, w)| (s + sim, w + wall));
                    // The same input must give the same trajectory.
                    if let Some(earlier) = seen.get(&(i, slot)) {
                        tally.check(*earlier == digest, || {
                            format!("{} seed {}: digest changed between runs", op.opt, pool[slot])
                        });
                    } else {
                        seen.insert((i, slot), digest.clone());
                    }
                    cycle_digests.push(digest);
                }
                Err(e) => {
                    tally.fail(e);
                    cycle_sum = None;
                }
            }
        }
        if sweep.one_digest && cycle_digests.len() == sweep.ops.len() {
            tally.check(cycle_digests.windows(2).all(|w| w[0] == w[1]), || {
                format!("seed {}: the rungs disagree on the final state", pool[slot])
            });
        }
        if let Some((sim, wall)) = cycle_sum {
            out.cycle_sim_s.push(sim);
            out.cycle_busy_s.push(wall);
        }
        if !window.another() {
            break;
        }
    }
    out.headline_s = walls[sweep.headline].clone();

    let notes = sweep
        .ops
        .iter()
        .zip(walls.iter().zip(&sims))
        .filter(|(_, (w, _))| !w.is_empty())
        .map(|(op, (w, s))| {
            format!(
                "{:<20} wall {:>9.3} ms (host)   sim {:>10.6} s (simulated)   n={}",
                op.opt,
                stats::median(w) * 1e3,
                stats::median(s),
                w.len()
            )
        })
        .collect();
    Outcome { tally, metrics: out.metrics(), notes }
}

/// What one connection's load thread brings back.
#[derive(Default)]
struct ConnRun {
    tally: Tally,
    cycles: Vec<serve::Cycle>,
    cycle_wall_s: Vec<f64>,
}

fn drive_connection(
    conn: &mut bhmark::wire::Conn,
    index: u64,
    pool: &[u64; SEED_POOL],
    mut window: Window,
) -> ConnRun {
    let mut run = ConnRun::default();
    let tenant = format!("bhmark-{index}");
    for cycle in 0.. {
        let script = script::build(pool[cycle % SEED_POOL], index);
        let start = Instant::now();
        match serve::run_cycle(conn, &script, &tenant, &mut run.tally) {
            Ok(done) => {
                run.cycle_wall_s.push(start.elapsed().as_secs_f64());
                run.cycles.push(done);
            }
            Err(e) => {
                run.tally.fail(format!("connection {index}: {e}"));
                break;
            }
        }
        if !window.another() {
            break;
        }
    }
    run
}

/// `serve-mix`: `bhserve` as a child on a free port, two closed-loop
/// connections each running the seeded 31-request script.
fn run_serve(env: &Env) -> Outcome {
    const CONNECTIONS: u64 = 2;
    let pool = workload::seed_pool(env.args.seed, workload::SERVE_MIX);
    let warm_seed = script::derive_seed(env.args.seed, &[u64::MAX]);
    let mut tally = Tally::default();

    // Set-up: spawn the daemon, connect, one warm-up script per connection.
    // Repeated so `setup_s` is a median; the last daemon serves.
    let mut setup_s = Vec::new();
    let mut live: Option<(Daemon, Vec<bhmark::wire::Conn>)> = None;
    for _ in 0..SETUP_REPS {
        live = None; // the previous daemon is killed before the next spawns
        let start = Instant::now();
        let attempt = Daemon::spawn(&env.plan, &env.bin("bhserve")).and_then(|daemon| {
            let mut conns = Vec::new();
            for c in 0..CONNECTIONS {
                let mut conn = serve::connect(&daemon.addr)?;
                let script = script::build(warm_seed, c);
                serve::run_cycle(&mut conn, &script, &format!("warm-{c}"), &mut tally)?;
                conns.push(conn);
            }
            Ok((daemon, conns))
        });
        match attempt {
            Ok(pair) => {
                setup_s.push(start.elapsed().as_secs_f64());
                live = Some(pair);
            }
            Err(e) => tally.fail(format!("bhserve set-up: {e}")),
        }
    }
    // Both connections are busy throughout, each waiting its turn behind the
    // other on the daemon's one CPU: the system advances one script's worth
    // of body·steps per connection per cycle wall time.
    let script_work: u64 = script::build(0, 0).iter().map(script::Request::body_steps).sum();
    let mut out = EndToEnd::new(setup_s, CONNECTIONS * script_work);
    let Some((daemon, mut conns)) = live else {
        return Outcome { tally, metrics: out.metrics(), notes: Vec::new() };
    };

    let start = Instant::now();
    let runs: Vec<ConnRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let window = Window::open(env.args.seconds, env.args.quick);
                let pool = &pool;
                scope.spawn(move || drive_connection(conn, i as u64, pool, window))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let window_s = start.elapsed().as_secs_f64();

    // Identically seeded probe sessions on the two connections must
    // snapshot to the same bytes.
    let probe_seed = script::derive_seed(env.args.seed, &[u64::MAX - 1]);
    let probes: Vec<_> =
        conns.iter_mut().map(|conn| serve::probe(conn, probe_seed, "probe", &mut tally)).collect();
    match probes.as_slice() {
        [Ok(a), Ok(b)] => {
            tally.check(!a.is_empty() && a == b, || "probe snapshots differ".to_string());
        }
        _ => tally.fail("probe session failed"),
    }
    let daemon_rss = daemon.peak_rss_mb();
    drop(conns);
    drop(daemon);

    let mut by_class: BTreeMap<Class, Vec<f64>> = BTreeMap::new();
    let mut requests = 0usize;
    for run in runs {
        tally.absorb(run.tally);
        out.cycle_busy_s.extend(run.cycle_wall_s);
        for cycle in run.cycles {
            out.cycle_sim_s.push(cycle.sim_s);
            requests += cycle.samples.len();
            for s in cycle.samples {
                by_class.entry(s.class).or_default().push(s.stamps.latency().as_secs_f64());
            }
        }
    }
    out.headline_s = by_class.get(&Class::Run48).cloned().unwrap_or_default();

    let all: Vec<f64> = by_class.values().flatten().map(|s| s * 1e3).collect();
    let mut notes = vec![format!(
        "{requests} requests in {:.3} s = {:.1} req/s; all-request latency [{}] ms; daemon peak rss {:.1} MB",
        window_s,
        requests as f64 / window_s,
        stats::describe(&all),
        daemon_rss.unwrap_or(0.0),
    )];
    notes.extend(by_class.iter().map(|(class, lat)| {
        format!("{:<20} p50 {:>9.3} ms   n={}", class.name(), stats::median(lat) * 1e3, lat.len())
    }));
    Outcome { tally, metrics: out.metrics(), notes }
}

/// `checkpoint-cycle`: a checkpointing run, a resume from its middle, and a
/// `snapdiff` of the middle against the end, each in a fresh store.
fn run_checkpoint(env: &Env) -> Outcome {
    let (bhsim, snapdiff) = (env.bin("bhsim"), env.bin("snapdiff"));
    let pool = workload::seed_pool(env.args.seed, workload::CHECKPOINT_CYCLE);
    let spec = workload::checkpoint_run(env.args.quick);
    let mut tally = Tally::default();
    let store_path =
        |tag: &str| env.args.out_dir.join(format!("store-{}-{tag}", std::process::id()));
    let manifest = |dir: &ScratchDir, step: usize| dir.file(&format!("step-{step:04}.json"));
    let checkpointing = |dir: &ScratchDir, spec: &workload::SimSpec, seed: u64| {
        let mut args = spec.bhsim_args(seed);
        let dir = dir.0.to_string_lossy().into_owned();
        args.extend(
            ["--checkpoint-every", "1", "--checkpoint-dir", &dir, "--json"].map(String::from),
        );
        args
    };
    let diff_args = |a: String, b: String| vec!["--bodies".to_string(), "--json".to_string(), a, b];

    // Set-up: a fresh store and a two-step cycle through all three programs.
    let mut setup_s = Vec::new();
    let warm = workload::SimSpec { steps: 2, measured: 1, ..spec.clone() };
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let done = ScratchDir::create(store_path(&format!("setup{rep}")))
            .map_err(|e| format!("store directory: {e}"))
            .and_then(|dir| {
                proc::run_json(&env.plan, &bhsim, &checkpointing(&dir, &warm, pool[0]))?;
                let resume = ["--resume".to_string(), manifest(&dir, 1), "--json".to_string()];
                proc::run_json(&env.plan, &bhsim, &resume)?;
                proc::run(&env.plan, &snapdiff, &diff_args(manifest(&dir, 1), manifest(&dir, 2)))
            });
        match done {
            Ok(_) => {
                tally.pass();
                setup_s.push(start.elapsed().as_secs_f64());
            }
            Err(e) => tally.fail(e),
        }
    }

    // The checkpointing run executes every step, the resume the steps after
    // its checkpoint.
    let resumed_steps = (spec.n * (spec.steps - workload::RESUME_STEP)) as u64;
    let mut out = EndToEnd::new(setup_s, spec.body_steps() + resumed_steps);
    let (mut resume_s, mut diff_s) = (Vec::new(), Vec::new());
    let mut window = Window::open(env.args.seconds, env.args.quick);
    for cycle in 0.. {
        let seed = pool[cycle % SEED_POOL];
        let dir = match ScratchDir::create(store_path(&format!("cycle{cycle}"))) {
            Ok(dir) => dir,
            Err(e) => {
                tally.fail(format!("store directory: {e}"));
                break;
            }
        };
        let (mid, end) = (manifest(&dir, workload::RESUME_STEP), manifest(&dir, spec.steps));

        let resume_args = ["--resume".to_string(), mid.clone(), "--json".to_string()];
        let cycle_runs = || -> Result<_, String> {
            let (full_s, full) =
                proc::run_json(&env.plan, &bhsim, &checkpointing(&dir, &spec, seed))?;
            let (res_s, resumed) = proc::run_json(&env.plan, &bhsim, &resume_args)?;
            let diff = proc::run(&env.plan, &snapdiff, &diff_args(mid.clone(), end))?;
            Ok((full_s, full, res_s, resumed, diff))
        };
        match cycle_runs() {
            Ok((full_s, full, res_s, resumed, diff)) => {
                for _ in 0..3 {
                    tally.pass();
                }
                out.headline_s.push(full_s);
                resume_s.push(res_s);
                diff_s.push(diff.wall_s);
                out.cycle_busy_s.push(full_s + res_s + diff.wall_s);
                out.cycle_sim_s
                    .extend(sim_seconds(&full).zip(sim_seconds(&resumed)).map(|(a, b)| a + b));
                tally.check(digest(&full).is_some() && digest(&full) == digest(&resumed), || {
                    format!(
                        "seed {seed}: the resumed run's digest differs from the uninterrupted one"
                    )
                });
                let same_run = diff.json.as_ref().and_then(|j| j.get("same_run")?.as_bool());
                tally.check(diff.code == Some(1) && same_run == Some(true), || {
                    format!(
                        "snapdiff step {} vs {}: exit {:?}, same_run {same_run:?}",
                        workload::RESUME_STEP,
                        spec.steps,
                        diff.code
                    )
                });
                // Check only, not part of the cycle's wall time.
                let own = proc::run(&env.plan, &snapdiff, &diff_args(mid.clone(), mid.clone()));
                tally.check(own.as_ref().is_ok_and(|d| d.code == Some(0)), || {
                    "snapdiff of a checkpoint against itself did not exit 0".to_string()
                });
            }
            Err(e) => tally.fail(e),
        }
        drop(dir);
        if !window.another() {
            break;
        }
    }

    let line = |what: &str, s: &[f64]| {
        format!("{what:<20} wall {:>9.3} ms   n={}", stats::median(s) * 1e3, s.len())
    };
    let notes = if resume_s.is_empty() {
        Vec::new()
    } else {
        vec![
            line("checkpointing run", &out.headline_s),
            line("resume", &resume_s),
            line("snapdiff", &diff_s),
        ]
    };
    Outcome { tally, metrics: out.metrics(), notes }
}

fn run_workload(env: &Env, name: &str) -> Outcome {
    match (name, workload::sweep(name, env.args.quick)) {
        (_, Some(sweep)) => run_sweep(env, name, &sweep),
        (workload::SERVE_MIX, _) => run_serve(env),
        _ => run_checkpoint(env),
    }
}

/// The `RESULT <workload> <json>` lines of a saved output.
fn saved_results(path: &str) -> Result<BTreeMap<String, Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut results = BTreeMap::new();
    for line in text.lines() {
        if let Some((workload, json)) = line.strip_prefix("RESULT ").and_then(|l| l.split_once(' '))
        {
            let value = serde_json::from_str(json).map_err(|e| format!("{path}: {e}"))?;
            results.insert(workload.to_string(), value);
        }
    }
    if results.is_empty() {
        return Err(format!("{path}: no RESULT lines"));
    }
    Ok(results)
}

/// `bhmark compare A B`: every end-to-end metric of every workload, how
/// much worse B is than A, and whether that is within the metric's bound.
fn compare(a: &str, b: &str, declared: &[Declared]) -> Result<bool, String> {
    let (a, b) = (saved_results(a)?, saved_results(b)?);
    let mut within = true;
    println!(
        "{:<18} {:<20} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (workload, first) in &a {
        let second =
            b.get(workload).ok_or_else(|| format!("{workload} missing from the second set"))?;
        let correct = |r: &Value| r.get("correct").and_then(Value::as_bool) == Some(true);
        if !correct(first) || !correct(second) {
            println!("{workload:<18} reported failures");
            within = false;
        }
        for d in declared {
            let value = |r: &Value| r.get("metrics")?.get(&d.name)?.get("value")?.as_f64();
            let (Some(x), Some(y)) = (value(first), value(second)) else {
                return Err(format!("{workload}: {} missing", d.name));
            };
            let worse = d.worsening(x, y);
            // Two sets of one commit: either may be the slower one.
            let ok = worse.abs() <= d.bound;
            within &= ok;
            println!(
                "{workload:<18} {:<20} {x:>16.6} {y:>16.6} {:>8.2}% {:>6.0}% {}",
                d.name,
                worse * 100.0,
                d.bound * 100.0,
                if ok { "" } else { "OUTSIDE" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let declared = report::declared(&std::fs::read_to_string("BENCHMARK.json").unwrap_or_default());
    if raw.first().map(String::as_str) == Some("compare") {
        return match raw.as_slice() {
            [_, a, b] => match compare(a, b, &declared) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::from(1),
                Err(e) => {
                    eprintln!("bhmark compare: {e}");
                    ExitCode::from(2)
                }
            },
            _ => {
                eprintln!("usage: bhmark compare FIRST SECOND");
                ExitCode::from(2)
            }
        };
    }
    let args = match cli::parse(raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bhmark: {e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let plan = CpuPlan::detect();
    plan.enter_driver();
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("bhmark: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    Provenance::collect(&plan, &args.out_dir).print(args.seed, args.seconds);
    if args.quick {
        println!("# --quick: sizes / 8, one cycle; a smoke run, not a measurement");
    }
    let env = Env { args, plan };

    let mut all_correct = true;
    let mut last = String::new();
    for name in env.args.workloads() {
        let outcome = run_workload(&env, name);
        report::print_metrics(name, &outcome.metrics, &declared);
        report::print_tally(name, &outcome.tally);
        for note in &outcome.notes {
            println!("{name:<18}   {note}");
        }
        all_correct &= outcome.tally.failed == 0;
        last = report::result_line(&outcome.tally, &outcome.metrics);
        println!("RESULT {name} {last}");
    }
    if env.args.workload.is_some() {
        println!("{last}");
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
