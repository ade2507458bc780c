//! The five workloads, run in-process with spans.
//!
//! Cycles alternate untraced and traced on the same input seed: the traced
//! ones feed the per-layer numbers, and the ratio of the two medians is the
//! tracing overhead (the tracked run's per-step snapshots plus the spans).

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use barnes_hut_upc::engine::{Phase, SimResult};
use bhmark::host::{CpuPlan, Daemon};
use bhmark::metrics::{LAYERS, SERVE_CLASSES};
use bhmark::proc::{self, ScratchDir};
use bhmark::report::Tally;
use bhmark::script::{self, Class};
use bhmark::serve;
use bhmark::span::{self, Tracer};
use bhmark::stats;
use bhmark::workload::{self, SimSpec, Sweep, Window, SEED_POOL};

use crate::sim::{self, Layers, StepTime};

/// Named numbers; one per traced cycle, then one for the whole run.
pub type Values = BTreeMap<String, f64>;

fn add(values: &mut Values, key: &str, amount: f64) {
    *values.entry(key.to_string()).or_default() += amount;
}

fn set_median(values: &mut Values, key: &str, samples: &[f64]) {
    if !samples.is_empty() {
        values.insert(key.to_string(), stats::median(samples));
    }
}

pub struct Env<'a> {
    pub args: &'a bhmark::cli::Args,
    pub plan: &'a CpuPlan,
    pub layers: &'a Layers,
}

/// What a traced workload hands back.
pub struct Traced {
    pub values: Values,
    pub tally: Tally,
    pub tracer: Tracer,
}

/// The alternating cycles of one thread.
struct Cycles {
    tracer: Tracer,
    /// Span index range of each traced cycle; its first span is the cycle.
    ranges: Vec<Range<usize>>,
    traced_s: Vec<f64>,
    untraced_s: Vec<f64>,
    /// What each traced cycle summed up.
    sums: Vec<Values>,
}

impl Cycles {
    /// Runs `cycle(tracer, input slot, sums)` until the window closes, at
    /// least once untraced and once traced.
    fn run(
        origin: Instant,
        mut window: Window,
        mut cycle: impl FnMut(&mut Tracer, usize, u64, &mut Values),
    ) -> Cycles {
        let mut out = Cycles {
            tracer: Tracer::new(origin, false),
            ranges: Vec::new(),
            traced_s: Vec::new(),
            untraced_s: Vec::new(),
            sums: Vec::new(),
        };
        for i in 0u64.. {
            let traced = i % 2 == 1;
            out.tracer.set_enabled(traced);
            let first = out.tracer.spans().len();
            let mut sums = Values::new();
            let start = Instant::now();
            let slot = (i / 2) as usize % SEED_POOL;
            out.tracer.scope("driver.cycle", i, |t| cycle(t, slot, i, &mut sums));
            let wall = start.elapsed().as_secs_f64();
            if traced {
                out.ranges.push(first..out.tracer.spans().len());
                out.traced_s.push(wall);
                out.sums.push(sums);
            } else {
                out.untraced_s.push(wall);
            }
            if !window.another() && traced {
                break;
            }
        }
        out
    }
}

/// Medians over the traced cycles of several threads, the layer self times
/// from their spans, and the trace bookkeeping.
fn summarise(threads: Vec<Cycles>) -> (Values, Tracer) {
    let mut values = Values::new();
    let mut per_key: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut merged: Option<Tracer> = None;
    let mut cycles = 0usize;
    for thread in threads {
        let spans = thread.tracer.spans();
        let self_ns = span::self_times(spans);
        for (range, sums) in thread.ranges.iter().zip(&thread.sums) {
            cycles += 1;
            let wall_ns = (spans[range.start].end_ns - spans[range.start].start_ns) as f64;
            let mut layer_ns: BTreeMap<&str, f64> = BTreeMap::new();
            let mut cycle = sums.clone();
            for i in range.clone() {
                let layer = spans[i].name.split('.').next().unwrap_or_default();
                if let Some(known) = LAYERS.iter().find(|l| **l == layer) {
                    *layer_ns.entry(known).or_default() += self_ns[i] as f64;
                }
                // The client-side stages of a request, by name.
                if let Some(stage) = spans[i].name.strip_prefix("bhserve.stage.") {
                    add(&mut cycle, &format!("bhserve.{stage}_ms"), self_ns[i] as f64 / 1e6);
                }
            }
            for (layer, ns) in &layer_ns {
                cycle.insert(format!("{layer}.self_ms"), ns / 1e6);
            }
            // The driver's own time is not a layer of the system.
            let dominant = layer_ns
                .iter()
                .filter(|(layer, _)| **layer != "driver")
                .map(|(_, ns)| *ns)
                .fold(0.0, f64::max);
            cycle.insert("trace.dominant_share".to_string(), dominant / wall_ns.max(1.0));
            for (key, value) in cycle {
                per_key.entry(key).or_default().push(value);
            }
        }
        traced_s.extend(&thread.traced_s);
        untraced_s.extend(&thread.untraced_s);
        match &mut merged {
            Some(all) => all.merge(thread.tracer),
            None => merged = Some(thread.tracer),
        }
    }
    for (key, samples) in per_key {
        // A key some cycles never touched counts as 0 there.
        let mut padded = samples;
        padded.resize(cycles.max(padded.len()), 0.0);
        values.insert(key, stats::median(&padded));
    }
    let tracer = merged.expect("at least one thread ran");
    values.insert("trace.cycles".to_string(), cycles as f64);
    values.insert("trace.spans".to_string(), tracer.spans().len() as f64);
    if !traced_s.is_empty() && !untraced_s.is_empty() {
        let (traced, untraced) = (stats::median(&traced_s), stats::median(&untraced_s));
        values.insert("trace.cycle_ms".to_string(), traced * 1e3);
        values.insert("trace.overhead_share".to_string(), traced / untraced - 1.0);
    }
    (values, tracer)
}

/// Adds one solver result's simulated seconds and counts to a cycle's sums.
fn add_result(sums: &mut Values, result: &SimResult) {
    for phase in Phase::ALL {
        add(sums, &format!("bh.{}_sim_s", phase.key()), result.phases.get(phase));
    }
    let stats = result.total_stats();
    add(sums, "pgas.comm_sim_s", stats.comm_seconds);
    add(sums, "pgas.sync_sim_s", stats.sync_seconds);
    add(sums, "pgas.compute_sim_s", stats.compute_seconds);
    add(sums, "pgas.remote_gets", stats.remote_gets as f64);
    add(sums, "pgas.remote_puts", stats.remote_puts as f64);
    add(sums, "pgas.messages", stats.messages as f64);
    add(sums, "pgas.bytes_in", stats.bytes_in as f64);
    add(sums, "pgas.lock_acquires", stats.lock_acquires as f64);
    add(sums, "bh.interactions", stats.interactions as f64);
    add(sums, "bh.macs", stats.macs as f64);
    add(sums, "bh.tree_ops", stats.tree_ops as f64);
    let peak = sums.get("bh.tree_bytes").copied().unwrap_or(0.0).max(result.tree_bytes as f64);
    sums.insert("bh.tree_bytes".to_string(), peak);
    add(sums, "bh.migration_share", result.migration_fraction);
}

/// Per-rung and per-step series collected across cycles.
#[derive(Default)]
struct Series {
    rung_wall_s: BTreeMap<String, Vec<f64>>,
    rung_sim_s: BTreeMap<String, Vec<f64>>,
    steps: Vec<StepTime>,
}

impl Series {
    fn rung(&mut self, opt: &str, wall_s: f64, sim_s: f64) {
        self.rung_wall_s.entry(opt.to_string()).or_default().push(wall_s);
        self.rung_sim_s.entry(opt.to_string()).or_default().push(sim_s);
    }

    fn into_values(self, values: &mut Values) {
        for (opt, walls) in &self.rung_wall_s {
            let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
            set_median(values, &format!("bh.rung.{opt}.wall_ms"), &ms);
        }
        for (opt, sims) in &self.rung_sim_s {
            set_median(values, &format!("bh.rung.{opt}.sim_s"), sims);
        }
        let ms = |keep: &dyn Fn(&StepTime) -> bool| -> Vec<f64> {
            self.steps.iter().filter(|s| keep(s)).map(|s| s.ms).collect()
        };
        let all = ms(&|_| true);
        set_median(values, "bh.step_ms_p50", &all);
        if let Some(max) = all.iter().copied().reduce(f64::max) {
            values.insert("bh.step_ms_max".to_string(), max);
        }
        set_median(values, "bh.rebuild_step_ms", &ms(&|s| s.rebuilt));
        set_median(values, "bh.reuse_step_ms", &ms(&|s| !s.rebuilt));
    }
}

/// `bhsim.startup_ms` and `bhsim.peak_rss_mb`: one real `bhsim` process of
/// the workload's representative run.  Start-up is what the process spends
/// outside the solver wall time it reports.
fn bhsim_process(env: &Env, spec: &SimSpec, seed: u64, values: &mut Values, tally: &mut Tally) {
    let mut args = spec.bhsim_args(seed);
    args.push("--json".to_string());
    match proc::run_watching_rss(env.plan, &env.args.bin_dir.join("bhsim"), &args) {
        Ok(proc::Finished { wall_s, code: Some(0), json: Some(report), peak_rss_mb }) => {
            tally.pass();
            let inside = report.get("wall_ms").and_then(|v| v.as_f64()).unwrap_or(0.0);
            values.insert("bhsim.startup_ms".to_string(), wall_s * 1e3 - inside);
            values.extend(peak_rss_mb.map(|rss| ("bhsim.peak_rss_mb".to_string(), rss)));
        }
        Ok(done) => tally.fail(format!("bhsim exited with {:?}", done.code)),
        Err(e) => tally.fail(e),
    }
}

fn run_sweep(env: &Env, name: &str, sweep: &Sweep, window: Window) -> Traced {
    let pool = workload::seed_pool(env.args.seed, name);
    let mut tally = Tally::default();
    let mut series = Series::default();
    let cycles = Cycles::run(Instant::now(), window, |tracer, slot, cycle, sums| {
        let mut digests = Vec::new();
        for (i, spec) in sweep.ops.iter().enumerate() {
            let op = cycle * 100 + i as u64;
            match sim::run_op(tracer, env.layers, spec, pool[slot], op) {
                Ok(done) => {
                    tally.pass();
                    add_result(sums, &done.result);
                    if tracer.enabled() {
                        series.rung(spec.opt, done.run_s, done.result.total);
                        series.steps.extend(&done.steps);
                    }
                    digests.push(done.digest);
                }
                Err(e) => tally.fail(e),
            }
        }
        if sweep.one_digest && digests.len() == sweep.ops.len() {
            tally.check(digests.windows(2).all(|w| w[0] == w[1]), || {
                format!("seed {}: the rungs disagree on the final state", pool[slot])
            });
        }
    });
    let (mut values, tracer) = summarise(vec![cycles]);
    series.into_values(&mut values);
    bhsim_process(env, &sweep.ops[sweep.headline], pool[0], &mut values, &mut tally);
    Traced { values, tally, tracer }
}

/// Records one answered request as a `bhserve.request.<class>` span with its
/// four client-side stages beneath it.
fn record_request(tracer: &mut Tracer, op: u64, sample: &serve::Sample) {
    let s = sample.stamps;
    let at = |i: Instant| tracer.ns_of(i);
    let (start, written, first, read, decoded) =
        (at(s.start), at(s.written), at(s.first_byte), at(s.read), at(s.decoded));
    let name = format!("bhserve.request.{}", sample.class.name());
    let request = tracer.record(None, &name, op, start, decoded);
    for (stage, lo, hi) in [
        ("frame_write", start, written),
        ("server_wait", written, first),
        ("frame_read", first, read),
        ("json_decode", read, decoded),
    ] {
        tracer.record(request, &format!("bhserve.stage.{stage}"), op, lo, hi);
    }
}

fn run_serve(env: &Env, window_seconds: f64) -> Traced {
    const CONNECTIONS: u64 = 2;
    let pool = workload::seed_pool(env.args.seed, workload::SERVE_MIX);
    let mut tally = Tally::default();
    let fail = |tally: Tally, why: String| {
        let mut tally = tally;
        tally.fail(why);
        Traced { values: Values::new(), tally, tracer: Tracer::new(Instant::now(), false) }
    };
    // The daemon runs where the binaries run; the load threads below are
    // moved to the driver's CPU.
    let daemon = match Daemon::spawn(env.plan, &env.args.bin_dir.join("bhserve")) {
        Ok(daemon) => daemon,
        Err(e) => return fail(tally, format!("bhserve: {e}")),
    };
    let mut conns = Vec::new();
    for _ in 0..CONNECTIONS {
        match serve::connect(&daemon.addr) {
            Ok(conn) => conns.push(conn),
            Err(e) => return fail(tally, format!("connect: {e}")),
        }
    }

    let origin = Instant::now();
    let start = Instant::now();
    type ThreadOut = (Cycles, Tally, Vec<serve::Sample>);
    let threads: Vec<ThreadOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(index, conn)| {
                let window = Window::open(window_seconds, env.args.quick);
                let (pool, plan) = (&pool, env.plan);
                scope.spawn(move || {
                    plan.enter_driver();
                    let tenant = format!("bhtrace-{index}");
                    let mut tally = Tally::default();
                    let mut samples = Vec::new();
                    let cycles = Cycles::run(origin, window, |tracer, slot, cycle, sums| {
                        let script = script::build(pool[slot], index as u64);
                        match serve::run_cycle(conn, &script, &tenant, &mut tally) {
                            Ok(done) => {
                                for (i, sample) in done.samples.iter().enumerate() {
                                    record_request(tracer, cycle * 100 + i as u64, sample);
                                }
                                for (metric, total) in &done.counters {
                                    add(sums, metric, *total);
                                }
                                if tracer.enabled() {
                                    samples.extend(done.samples);
                                }
                            }
                            Err(e) => tally.fail(format!("connection {index}: {e}")),
                        }
                    });
                    (cycles, tally, samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let busy_s = start.elapsed().as_secs_f64();
    drop(conns);
    drop(daemon);

    let mut samples: Vec<serve::Sample> = Vec::new();
    let mut all_cycles = Vec::new();
    let script_len = script::build(0, 0).len();
    let mut requests = 0usize;
    for (cycles, thread_tally, thread_samples) in threads {
        requests += (cycles.traced_s.len() + cycles.untraced_s.len()) * script_len;
        tally.absorb(thread_tally);
        samples.extend(thread_samples);
        all_cycles.push(cycles);
    }
    let (mut values, tracer) = summarise(all_cycles);

    let ms = |keep: &dyn Fn(&serve::Sample) -> bool, f: &dyn Fn(&serve::Sample) -> f64| {
        samples.iter().filter(|s| keep(s)).map(f).collect::<Vec<f64>>()
    };
    let latency = |s: &serve::Sample| s.stamps.latency().as_secs_f64() * 1e3;
    // What a request costs beyond the engine time the server reports for it.
    let overhead = |s: &serve::Sample| latency(s) - s.server_wall_ms.unwrap_or(0.0);
    for class in SERVE_CLASSES {
        let of = |s: &serve::Sample| s.class == class;
        set_median(&mut values, &format!("bhserve.{}.p50_ms", class.name()), &ms(&of, &latency));
        set_median(
            &mut values,
            &format!("bhserve.{}.overhead_ms", class.name()),
            &ms(&of, &overhead),
        );
    }
    let ping_us = ms(&|s| s.class == Class::Ping, &|s| latency(s) * 1e3);
    set_median(&mut values, "bhserve.ping_us", &ping_us);
    if let Some((_, tail)) = stats::tail(&ms(&|_| true, &latency)) {
        values.insert("bhserve.req_tail_ms".to_string(), tail);
    }
    values.insert("bhserve.req_per_s".to_string(), requests as f64 / busy_s);
    let share = |hit: &dyn Fn(&serve::Sample) -> bool| {
        samples.iter().filter(|s| hit(s)).count() as f64 / samples.len().max(1) as f64
    };
    values.insert("bhserve.batched_share".to_string(), share(&|s| s.batched));
    values.insert("bhserve.shed_share".to_string(), share(&|s| s.shed));
    // Every job here runs the subspace rung; its wall is what the server
    // reports for the engine run.
    let engine_ms = ms(&|s| s.server_wall_ms.is_some(), &|s| s.server_wall_ms.unwrap_or(0.0));
    set_median(&mut values, "bh.rung.subspace.wall_ms", &engine_ms);
    let step_ms = ms(&|s| s.class == Class::Step, &|s| s.server_wall_ms.unwrap_or(0.0));
    set_median(&mut values, "bh.step_ms_p50", &step_ms);
    set_median(&mut values, "bh.rebuild_step_ms", &step_ms);
    if let Some(max) = step_ms.iter().copied().reduce(f64::max) {
        values.insert("bh.step_ms_max".to_string(), max);
    }
    let spec = SimSpec::paper(script::SESSION_BODIES as usize, "subspace");
    bhsim_process(env, &spec, pool[0], &mut values, &mut tally);
    Traced { values, tally, tracer }
}

/// Files and bytes under `dir`.
fn disk_usage(dir: &Path) -> (u64, u64) {
    let mut total = (0, 0);
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        match entry.metadata() {
            Ok(meta) if meta.is_dir() => {
                let (files, bytes) = disk_usage(&entry.path());
                total = (total.0 + files, total.1 + bytes);
            }
            Ok(meta) => total = (total.0 + 1, total.1 + meta.len()),
            Err(_) => {}
        }
    }
    total
}

/// One checkpoint cycle in-process: the checkpointing run, the resume from
/// its middle and the diff of middle against end.
fn checkpoint_cycle(
    tracer: &mut Tracer,
    env: &Env,
    spec: &SimSpec,
    seed: u64,
    cycle: u64,
    sums: &mut Values,
    series: &mut Series,
) -> Result<(), String> {
    let layers = env.layers;
    let cfg = layers.config(spec, seed)?;
    let scenario = layers.scenario(spec.scenario)?;
    let backend = layers.backend("upc")?;
    let dir = ScratchDir::create(
        env.args.out_dir.join(format!("store-{}-trace{cycle}", std::process::id())),
    )
    .map_err(|e| format!("store directory: {e}"))?;
    let fail = |e: snapstore::SnapError| e.to_string();
    let op = cycle * 100;

    // bhsim --checkpoint-every 1
    let full_digest = tracer.scope("driver.bhsim", op, |t| -> Result<String, String> {
        let bodies = t.scope("scenarios.generate", op, |_| scenario.generate(cfg.nbodies, seed));
        let diagnostics = t.scope("scenarios.diagnostics", op, |_| scenario.diagnostics(&bodies));
        std::hint::black_box(diagnostics);
        let store =
            t.scope("snapstore.open", op, |_| snapstore::Store::open(&dir.0)).map_err(fail)?;
        let mut recorder = snapstore::Recorder::new(spec.scenario, "upc", &cfg, bodies.clone(), 0);
        // Saves run on a solver thread, inside the step callback: stamp
        // them there and turn the stamps into spans afterwards.
        let mut saves: Vec<(Instant, Instant, usize, usize)> = Vec::new();
        let mut save_error: Option<String> = None;
        let started = Instant::now();
        let result = t.scope("bh.run", op, |t| {
            let result = backend.run_tracked(&cfg, bodies, &mut |record| {
                let state = recorder.observe(&record);
                let begin = Instant::now();
                match store.save(&state, &format!("step-{:04}", state.step)) {
                    Ok(saved) => {
                        saves.push((begin, Instant::now(), saved.chunks_new, saved.chunks_total))
                    }
                    Err(e) => save_error = Some(e.to_string()),
                }
            });
            for (begin, end, ..) in &saves {
                t.record(None, "snapstore.save", op, t.ns_of(*begin), t.ns_of(*end));
            }
            result
        })?;
        if let Some(e) = save_error {
            return Err(format!("checkpoint save failed: {e}"));
        }
        let run_s = started.elapsed().as_secs_f64();
        add_result(sums, &result);
        let (new, total) = saves.iter().fold((0, 0), |(n, t), s| (n + s.2, t + s.3));
        sums.insert("snapstore.chunks_new_share".to_string(), new as f64 / total.max(1) as f64);
        let save_ms: Vec<f64> = saves.iter().map(|s| (s.1 - s.0).as_secs_f64() * 1e3).collect();
        set_median(sums, "snapstore.save_ms", &save_ms);
        let (files, bytes) = disk_usage(&dir.0);
        let checkpoints = saves.len().max(1) as f64;
        sums.insert("snapstore.files_per_ckpt".to_string(), files as f64 / checkpoints);
        sums.insert("snapstore.bytes_per_ckpt".to_string(), bytes as f64 / checkpoints);
        // Computed, not counted: the store syncs each new file and then its
        // directory.
        sums.insert("snapstore.fsyncs_per_ckpt".to_string(), 2.0 * files as f64 / checkpoints);
        if t.enabled() {
            series.rung(spec.opt, run_s, result.total);
        }
        Ok(t.scope("snapstore.digest", op, |_| snapstore::digest_bodies(&result.bodies)))
    })?;

    // bhsim --resume step-0004.json
    let (mid, end) = (
        dir.0.join(format!("step-{:04}.json", workload::RESUME_STEP)),
        dir.0.join(format!("step-{:04}.json", spec.steps)),
    );
    let resumed_digest = tracer.scope("driver.resume", op + 1, |t| -> Result<String, String> {
        let state =
            t.scope("snapstore.load", op + 1, |_| snapstore::load_state(&mid)).map_err(fail)?;
        let started = Instant::now();
        let result =
            t.scope("snapstore.replay", op + 1, |_| snapstore::resume(&state, backend, |_| {}))?;
        add(sums, "snapstore.replay_ms", started.elapsed().as_secs_f64() * 1e3);
        add_result(sums, &result);
        Ok(t.scope("snapstore.digest", op + 1, |_| snapstore::digest_bodies(&result.bodies)))
    })?;
    if full_digest != resumed_digest {
        return Err(format!("seed {seed}: resumed digest differs from the uninterrupted run's"));
    }

    // snapdiff --bodies step-0004.json step-0008.json
    tracer.scope("driver.snapdiff", op + 2, |t| -> Result<(), String> {
        let started = Instant::now();
        let (a, b) = t
            .scope("snapstore.load_manifest", op + 2, |_| {
                Ok::<_, snapstore::SnapError>((
                    snapstore::load_manifest(&mid)?,
                    snapstore::load_manifest(&end)?,
                ))
            })
            .map_err(fail)?;
        let diff =
            t.scope("snapstore.diff_manifests", op + 2, |_| snapstore::diff_manifests(&a, &b));
        let begin_load = Instant::now();
        let (sa, sb) = t
            .scope("snapstore.load", op + 2, |_| {
                Ok::<_, snapstore::SnapError>((
                    snapstore::load_state(&mid)?,
                    snapstore::load_state(&end)?,
                ))
            })
            .map_err(fail)?;
        // Two loads in this span: per-load time is half.
        add(sums, "snapstore.load_ms", begin_load.elapsed().as_secs_f64() * 1e3 / 2.0);
        let delta = t.scope("snapstore.diff_bodies", op + 2, |_| {
            snapstore::diff_bodies(&sa.bodies, &sb.bodies)
        });
        add(sums, "snapstore.diff_ms", started.elapsed().as_secs_f64() * 1e3);
        if delta.identical() || diff.shared_fraction() >= 1.0 {
            return Err("step 4 and step 8 checkpoints do not differ".to_string());
        }
        Ok(())
    })
}

fn run_checkpoint(env: &Env, window: Window) -> Traced {
    let pool = workload::seed_pool(env.args.seed, workload::CHECKPOINT_CYCLE);
    let spec = workload::checkpoint_run(env.args.quick);
    let mut tally = Tally::default();
    let mut series = Series::default();
    let cycles = Cycles::run(Instant::now(), window, |tracer, slot, cycle, sums| {
        match checkpoint_cycle(tracer, env, &spec, pool[slot], cycle, sums, &mut series) {
            Ok(()) => tally.pass(),
            Err(e) => tally.fail(e),
        }
    });
    let (mut values, tracer) = summarise(vec![cycles]);
    series.into_values(&mut values);
    bhsim_process(env, &spec, pool[0], &mut values, &mut tally);
    Traced { values, tally, tracer }
}

/// Runs one workload traced for `seconds`.
pub fn run(env: &Env, name: &str, seconds: f64) -> Traced {
    let window = Window::open(seconds, env.args.quick);
    let mut traced = match (name, workload::sweep(name, env.args.quick)) {
        (_, Some(sweep)) => run_sweep(env, name, &sweep, window),
        (workload::SERVE_MIX, _) => run_serve(env, seconds),
        _ => run_checkpoint(env, window),
    };
    // Mean over every digest taken (one per run; none over the wire).
    if let Some(t) = traced.tracer.totals().get("snapstore.digest") {
        let ms = t.total_ns as f64 / t.count as f64 / 1e6;
        traced.values.insert("snapstore.digest_ms".to_string(), ms);
    }
    traced
}
