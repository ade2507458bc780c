//! One `bhsim`-shaped run made in-process, with a span around every call
//! into a layer's public functions: what `bhsim` does between `main` and
//! exit, minus the process.

use std::time::Instant;

use barnes_hut_upc::engine::{
    self, Backend, BackendRegistry, OptLevel, SimConfig, SimResult, TreeBuild, TreePolicy, WalkMode,
};
use barnes_hut_upc::nbody;
use barnes_hut_upc::pgas::Machine;
use barnes_hut_upc::scenarios::{self, Scenario};
use bhmark::span::Tracer;
use bhmark::workload::{SimSpec, NODES};

/// The registries every in-process run resolves names against.
pub struct Layers {
    pub scenarios: scenarios::Registry,
    pub backends: BackendRegistry,
}

impl Layers {
    pub fn builtin() -> Layers {
        Layers { scenarios: scenarios::builtin(), backends: barnes_hut_upc::backends() }
    }

    pub fn scenario(&self, name: &str) -> Result<&dyn Scenario, String> {
        self.scenarios.get(name).ok_or_else(|| format!("unknown scenario {name}"))
    }

    pub fn backend(&self, name: &str) -> Result<&dyn Backend, String> {
        self.backends.lookup(name)
    }

    /// The configuration `bhsim` builds from the same flags: the scenario's
    /// recommended tuning, 2 emulated nodes, everything else from `spec`.
    pub fn config(&self, spec: &SimSpec, seed: u64) -> Result<SimConfig, String> {
        let unknown = |what: &str, name: &str| format!("unknown {what} {name}");
        let opt = OptLevel::from_name(spec.opt).ok_or_else(|| unknown("opt level", spec.opt))?;
        let mut cfg = SimConfig::new(spec.n, Machine::power5(NODES, 1, false), opt);
        let tuning = self.scenario(spec.scenario)?.recommended_config();
        cfg.seed = seed;
        cfg.steps = spec.steps;
        cfg.measured_steps = spec.measured;
        cfg.theta = tuning.theta;
        cfg.eps = tuning.eps;
        cfg.dt = tuning.dt;
        cfg.build = TreeBuild::from_name(spec.build).ok_or_else(|| unknown("build", spec.build))?;
        cfg.walk = WalkMode::from_name(spec.walk).ok_or_else(|| unknown("walk", spec.walk))?;
        if let Some((rebuild_every, drift_threshold)) = spec.reuse {
            cfg.tree_policy = TreePolicy::Reuse { rebuild_every, drift_threshold };
        }
        cfg.validate().map_err(|e| e.to_string())?;
        Ok(cfg)
    }
}

/// Host milliseconds of one step of a tracked run, and whether the step
/// rebuilt the tree from scratch.
#[derive(Debug, Clone, Copy)]
pub struct StepTime {
    pub ms: f64,
    pub rebuilt: bool,
}

/// What one in-process run produced.
pub struct OpResult {
    /// Host seconds inside `Backend::run` / `run_tracked`.
    pub run_s: f64,
    pub result: SimResult,
    /// Empty for an untraced run (no observer, no stamps).
    pub steps: Vec<StepTime>,
    pub digest: String,
}

/// Converts the observer's stamps into per-step times and `bh.step` spans
/// under the open span.
pub fn record_steps(
    tracer: &mut Tracer,
    op: u64,
    started: Instant,
    stamps: &[(u64, Instant)],
    reuses_tree: bool,
) -> Vec<StepTime> {
    let mut previous = (0u64, started);
    stamps
        .iter()
        .map(|&(generation, at)| {
            // Without a persistent tree every step rebuilds; with one, the
            // generation bumps exactly on full rebuilds.
            let rebuilt = !reuses_tree || generation != previous.0;
            let name = if rebuilt { "bh.step.rebuild" } else { "bh.step.reuse" };
            tracer.record(None, name, op, tracer.ns_of(previous.1), tracer.ns_of(at));
            let ms = (at - previous.1).as_secs_f64() * 1e3;
            previous = (generation, at);
            StepTime { ms, rebuilt }
        })
        .collect()
}

/// Runs `cfg` over `bodies` inside a `bh.run` span.  With tracing on the
/// run is step-tracked and each step becomes a child span; with tracing off
/// it is the plain `Backend::run` the binaries call.
pub fn solve(
    tracer: &mut Tracer,
    backend: &dyn Backend,
    cfg: &SimConfig,
    bodies: Vec<nbody::Body>,
    op: u64,
) -> Result<(f64, SimResult, Vec<StepTime>), String> {
    tracer.scope("bh.run", op, |t| {
        let started = Instant::now();
        if !t.enabled() {
            let result = backend.run(cfg, bodies);
            return Ok((started.elapsed().as_secs_f64(), result, Vec::new()));
        }
        let mut stamps: Vec<(u64, Instant)> = Vec::with_capacity(cfg.steps);
        let result = backend.run_tracked(cfg, bodies, &mut |record: engine::StepRecord| {
            stamps.push((record.tree_generation, Instant::now()));
        })?;
        let run_s = started.elapsed().as_secs_f64();
        let steps = record_steps(t, op, started, &stamps, cfg.tree_policy.reuses_tree());
        Ok((run_s, result, steps))
    })
}

/// Everything `bhsim --json` does for one run: generate the workload,
/// measure it, solve, digest the final state and render the report.
pub fn run_op(
    tracer: &mut Tracer,
    layers: &Layers,
    spec: &SimSpec,
    seed: u64,
    op: u64,
) -> Result<OpResult, String> {
    let cfg = layers.config(spec, seed)?;
    let scenario = layers.scenario(spec.scenario)?;
    let backend = layers.backend("upc")?;
    backend.supports(&cfg)?;
    tracer.scope("driver.bhsim", op, |t| {
        let bodies = t.scope("scenarios.generate", op, |_| scenario.generate(cfg.nbodies, seed));
        let diagnostics = t.scope("scenarios.diagnostics", op, |_| scenario.diagnostics(&bodies));
        std::hint::black_box(diagnostics);
        let (run_s, result, steps) = solve(t, backend, &cfg, bodies, op)?;
        let digest = t.scope("snapstore.digest", op, |_| snapstore::digest_bodies(&result.bodies));
        let result = t.scope("engine.report", op, |_| {
            let run = engine::BackendRun { name: "upc".to_string(), result, wall_ms: run_s * 1e3 };
            let sample = engine::bench::Sample::from_run(&run);
            std::hint::black_box(serde_json::to_string_pretty(&sample).map(|s| s.len()).ok());
            run.result
        });
        Ok(OpResult { run_s, result, steps, digest })
    })
}
