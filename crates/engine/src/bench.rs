//! The run-report vocabulary `bhsim --json` writes.
//!
//! [`Sample`] is one run's measurements: host wall time plus the emulator's
//! outputs (simulated per-phase seconds, traffic counters).  `bhsim --json`
//! prints one per backend, beside its `spec`: the `bhserve` job keys that
//! rerun the row ([`crate::knobs::encode`] on the wire).
//!
//! Nothing in the workspace reads a report back: performance is judged by
//! `benchmark/` (bhmark + bhtrace) on same-host parent/change pairs, never
//! by comparing against numbers recorded on another host or in another run.

use crate::compare::BackendRun;
use crate::report::PhaseTimes;
use pgas::RankStats;
use serde::Serialize;

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
