//! The run-report vocabulary `bhsim --json` writes.
//!
//! * [`RunSpec`] — the identity of one measured configuration (scenario ×
//!   backend × opt level × tree policy × walk × build × machine shape ×
//!   size).
//! * [`Sample`] — one run's measurements: host wall time plus the
//!   emulator's outputs (simulated per-phase seconds, traffic counters).
//!   `bhsim --json` prints one per backend.
//!
//! Nothing in the workspace reads a report back: performance is judged by
//! `benchmark/` (bhmark + bhtrace) on same-host parent/change pairs, never
//! by comparing against numbers recorded on another host or in another run.

use crate::compare::BackendRun;
use crate::config::SimConfig;
use crate::report::PhaseTimes;
use pgas::RankStats;
use serde::Serialize;

/// The identity of one measured configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunSpec {
    /// Workload family (scenario registry key).
    pub scenario: String,
    /// Solver (backend registry key).
    pub backend: String,
    /// UPC optimization level name (meaningful for the `upc` backend; the
    /// other backends record the level they were configured with).
    pub opt: String,
    /// Tree-lifecycle policy label, parameters included
    /// ([`crate::TreePolicy::spec_label`], e.g. `reuse[e8,d0.25]`).  The
    /// cadence/drift parameters change the measurement protocol, so they
    /// are part of the identity.
    pub policy: String,
    /// Force-walk mode name ([`crate::WalkMode::name`]): a group-walk row
    /// and a per-body row of the same point are different protocols.
    pub walk: String,
    /// Tree-construction algorithm name ([`crate::TreeBuild::name`]): the
    /// sorted build and global insertion are different protocols for the
    /// tree phase.
    pub build: String,
    /// Number of bodies.
    pub nbodies: usize,
    /// Emulated nodes.
    pub nodes: usize,
    /// Emulated UPC threads per node.
    pub threads_per_node: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Total time steps.
    pub steps: usize,
    /// Trailing measured steps.
    pub measured_steps: usize,
}

impl RunSpec {
    /// Builds the spec for running `scenario` through `backend` under `cfg`.
    pub fn new(scenario: &str, backend: &str, cfg: &SimConfig) -> RunSpec {
        RunSpec {
            scenario: scenario.to_string(),
            backend: backend.to_string(),
            opt: cfg.opt.name().to_string(),
            policy: cfg.tree_policy.spec_label(),
            walk: cfg.walk.name().to_string(),
            build: cfg.build.name().to_string(),
            nbodies: cfg.nbodies,
            nodes: cfg.machine.nodes,
            threads_per_node: cfg.machine.threads_per_node,
            seed: cfg.seed,
            steps: cfg.steps,
            measured_steps: cfg.measured_steps,
        }
    }
}

/// One run's measurements.
#[derive(Debug, Clone, Serialize)]
pub struct Sample {
    /// Real (host) wall time of the whole run, milliseconds.
    pub wall_ms: f64,
    /// Simulated per-phase seconds (max over ranks, measured window).
    pub phases: PhaseTimes,
    /// Simulated makespan of the measured window.
    pub total_sim: f64,
    /// Body migration per measured step.
    pub migration_fraction: f64,
    /// Peak node-arena bytes across ranks and steps (deterministic; `0`
    /// when the backend has no node arena).
    pub tree_bytes: u64,
    /// Communication counters summed over ranks, whole run.
    pub stats: RankStats,
}

impl Sample {
    /// Extracts the sample of one completed [`BackendRun`].
    pub fn from_run(run: &BackendRun) -> Sample {
        Sample {
            wall_ms: run.wall_ms,
            phases: run.result.phases,
            total_sim: run.result.total,
            migration_fraction: run.result.migration_fraction,
            tree_bytes: run.result.tree_bytes,
            stats: run.result.total_stats(),
        }
    }
}
