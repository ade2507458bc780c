//! Per-phase timing reports, mirroring the rows of the paper's tables, plus
//! the rank-report aggregation and measured-window bookkeeping the step
//! driver ([`crate::drive`]) runs on.

use crate::config::SimConfig;
use pgas::RankStats;
use serde::{Deserialize, Serialize};

/// The execution phases of one Barnes-Hut time step, in the order the paper
/// reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Octree construction (including the bounding-box computation).
    TreeBuild,
    /// Centre-of-mass computation (separate phase only before §5.4).
    CenterOfMass,
    /// Costzones/subspace partitioning of bodies to threads.
    Partition,
    /// Body redistribution to owners (§5.2 onwards).
    Redistribute,
    /// Force computation.
    Force,
    /// Body advancement (leapfrog update).
    Advance,
}

impl Phase {
    /// All phases in table order.
    pub const ALL: [Phase; 6] = [
        Phase::TreeBuild,
        Phase::CenterOfMass,
        Phase::Partition,
        Phase::Redistribute,
        Phase::Force,
        Phase::Advance,
    ];

    /// The row label used by the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::TreeBuild => "Tree-building",
            Phase::CenterOfMass => "C-of-m Comp.",
            Phase::Partition => "Partitioning",
            Phase::Redistribute => "Redistribution",
            Phase::Force => "Force Comp.",
            Phase::Advance => "Body-adv.",
        }
    }

    /// Internal key used with [`pgas::PhaseTimer`].
    pub fn key(self) -> &'static str {
        match self {
            Phase::TreeBuild => "tree",
            Phase::CenterOfMass => "cofm",
            Phase::Partition => "partition",
            Phase::Redistribute => "redistribute",
            Phase::Force => "force",
            Phase::Advance => "advance",
        }
    }
}

/// Simulated seconds spent in each phase (for one rank, or the maximum over
/// ranks, depending on context).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Tree construction time.
    pub tree: f64,
    /// Centre-of-mass computation time.
    pub cofm: f64,
    /// Partitioning time.
    pub partition: f64,
    /// Redistribution time.
    pub redistribute: f64,
    /// Force computation time.
    pub force: f64,
    /// Body advancement time.
    pub advance: f64,
}

impl PhaseTimes {
    /// Time of one phase.
    pub fn get(&self, phase: Phase) -> f64 {
        match phase {
            Phase::TreeBuild => self.tree,
            Phase::CenterOfMass => self.cofm,
            Phase::Partition => self.partition,
            Phase::Redistribute => self.redistribute,
            Phase::Force => self.force,
            Phase::Advance => self.advance,
        }
    }

    /// Sets the time of one phase.
    pub fn set(&mut self, phase: Phase, value: f64) {
        match phase {
            Phase::TreeBuild => self.tree = value,
            Phase::CenterOfMass => self.cofm = value,
            Phase::Partition => self.partition = value,
            Phase::Redistribute => self.redistribute = value,
            Phase::Force => self.force = value,
            Phase::Advance => self.advance = value,
        }
    }

    /// One value per phase, in table order.
    fn from_rows(row: impl Fn(Phase) -> f64) -> PhaseTimes {
        let mut t = PhaseTimes::default();
        for phase in Phase::ALL {
            t.set(phase, row(phase));
        }
        t
    }

    /// Total over all phases.
    pub fn total(&self) -> f64 {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// Element-wise maximum (used to compute the per-phase maximum over
    /// ranks that the paper's tables report).
    pub fn max(&self, other: &PhaseTimes) -> PhaseTimes {
        let mut out = PhaseTimes::default();
        for p in Phase::ALL {
            out.set(p, self.get(p).max(other.get(p)));
        }
        out
    }

    /// Element-wise sum.
    pub fn add(&self, other: &PhaseTimes) -> PhaseTimes {
        let mut out = PhaseTimes::default();
        for p in Phase::ALL {
            out.set(p, self.get(p) + other.get(p));
        }
        out
    }

    /// Percentage of the total spent in `phase` (0 when the total is 0).
    pub fn percent(&self, phase: Phase) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            100.0 * self.get(phase) / total
        }
    }
}

/// Per-rank outcome of a simulation run.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankOutcome {
    /// Phase times accumulated over the measured steps on this rank.
    pub phases: PhaseTimes,
    /// Host milliseconds this rank's thread spent in each phase over the
    /// measured steps, barrier waits included: what the emulation cost, not
    /// what the model says.  Zero for results recorded before the field.
    #[serde(default)]
    pub phases_host_ms: PhaseTimes,
    /// Tree-building sub-phase split (local build, merge/hook) accumulated
    /// over the measured steps — the Figure 8 data.
    pub tree_local: f64,
    /// See [`RankOutcome::tree_local`].
    pub tree_merge: f64,
    /// Bodies owned by this rank at the end of the run.
    pub owned_bodies: u64,
    /// Bodies that migrated to this rank during the measured steps.
    pub migrated_bodies: u64,
    /// Communication statistics accumulated over the whole run.
    pub stats: RankStats,
}

impl RankOutcome {
    /// The phase rows of a rank's [`pgas::PhaseTimer`] on both clocks (host
    /// in milliseconds), every other field zero.
    pub fn timed(timer: &pgas::PhaseTimer) -> RankOutcome {
        RankOutcome {
            phases: PhaseTimes::from_rows(|phase| timer.get(phase.key())),
            phases_host_ms: PhaseTimes::from_rows(|p| timer.host(p.key()).as_secs_f64() * 1e3),
            ..RankOutcome::default()
        }
    }
}

/// Result of a full simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-phase simulated time: for each phase, the maximum over ranks of
    /// the per-rank time accumulated over the measured steps (this is what
    /// the paper's tables report).
    pub phases: PhaseTimes,
    /// Per-phase host milliseconds, the maximum over ranks like `phases`
    /// (see [`RankOutcome::phases_host_ms`]).  Host-dependent: never gated,
    /// never compared across machines.
    #[serde(default)]
    pub phases_host_ms: PhaseTimes,
    /// The simulated makespan of the measured steps
    /// (max over ranks of their total measured time).
    pub total: f64,
    /// One outcome per rank.
    pub ranks: Vec<RankOutcome>,
    /// Fraction of owned bodies that migrated between ranks per measured
    /// step (the §5.2 ≈2 % statistic).
    pub migration_fraction: f64,
    /// Peak node-arena bytes across ranks and steps (deterministic — a
    /// count of allocated node records times their stored size).  `0` when
    /// the backend has no shared node arena (direct summation, MPI
    /// comparator).
    pub tree_bytes: u64,
    /// Full builds of the shared tree performed by this invocation: the
    /// final tree generation under the persistent policy (`reuse`), the
    /// step count when the tree is rebuilt every step.  A
    /// resumed run starts from a fresh build and counts its own steps only,
    /// not those before the checkpoint.  A `reuse` run whose count equals
    /// its step count reused nothing.  `0` when the backend keeps no shared
    /// tree (direct summation, MPI comparator) and for results recorded
    /// before the field.
    #[serde(default)]
    pub tree_rebuilds: u64,
    /// Final body states (indexed by body id), for correctness checks.
    pub bodies: Vec<nbody::Body>,
}

impl SimResult {
    /// Aggregates per-rank outcomes into the run-level report: per-phase
    /// maximum over ranks, makespan, and the migration-fraction statistic
    /// normalized by the ownership population of the measured window.
    ///
    /// [`crate::drive::drive`] ends with this call; the outcomes must
    /// already carry their rank's [`RankStats`].
    pub fn aggregate(
        cfg: &SimConfig,
        ranks: Vec<RankOutcome>,
        bodies: Vec<nbody::Body>,
    ) -> SimResult {
        let mut phases = PhaseTimes::default();
        let mut phases_host_ms = PhaseTimes::default();
        let mut migrated = 0u64;
        for r in &ranks {
            phases = phases.max(&r.phases);
            phases_host_ms = phases_host_ms.max(&r.phases_host_ms);
            migrated += r.migrated_bodies;
        }
        // Every body is owned by exactly one rank each step, so the ownership
        // population per measured step is the body count.
        let ownership_slots = (cfg.nbodies.max(1) * cfg.measured_steps.max(1)) as u64;
        SimResult {
            phases,
            phases_host_ms,
            total: phases.total(),
            ranks,
            migration_fraction: migrated as f64 / ownership_slots as f64,
            tree_bytes: 0,
            tree_rebuilds: 0,
            bodies,
        }
    }

    /// Aggregated communication statistics over all ranks.
    pub fn total_stats(&self) -> RankStats {
        let mut total = RankStats::default();
        for r in &self.ranks {
            total.merge(&r.stats);
        }
        total
    }

    /// The fraction of aggregated gather requests with a single source rank
    /// (§5.5 statistic), if any such requests were issued.
    pub fn vlist_single_source_fraction(&self) -> Option<f64> {
        self.total_stats().vlist_single_source_fraction()
    }
}

/// `true` when `step` is the first step of the measured window (the paper
/// measures the last `measured_steps` of `steps`): the moment
/// [`crate::drive::drive`] resets every rank's timers and accumulators.
pub fn measurement_begins(cfg: &SimConfig, step: usize) -> bool {
    step + cfg.measured_steps == cfg.steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use pgas::Machine;

    #[test]
    fn phase_get_set_total() {
        let mut t = PhaseTimes::default();
        t.set(Phase::Force, 2.0);
        t.set(Phase::TreeBuild, 1.0);
        assert_eq!(t.get(Phase::Force), 2.0);
        assert_eq!(t.total(), 3.0);
        assert!((t.percent(Phase::Force) - 66.666).abs() < 0.01);
        assert_eq!(PhaseTimes::default().percent(Phase::Force), 0.0);
    }

    #[test]
    fn max_and_add_are_elementwise() {
        let a = PhaseTimes { tree: 1.0, force: 5.0, ..Default::default() };
        let b = PhaseTimes { tree: 2.0, force: 3.0, advance: 1.0, ..Default::default() };
        let m = a.max(&b);
        assert_eq!(m.tree, 2.0);
        assert_eq!(m.force, 5.0);
        assert_eq!(m.advance, 1.0);
        let s = a.add(&b);
        assert_eq!(s.tree, 3.0);
        assert_eq!(s.force, 8.0);
    }

    #[test]
    fn labels_match_the_paper() {
        assert_eq!(Phase::TreeBuild.label(), "Tree-building");
        assert_eq!(Phase::Force.label(), "Force Comp.");
        assert_eq!(Phase::ALL.len(), 6);
    }

    #[test]
    fn aggregate_takes_phase_maxima_and_sums_migration() {
        let cfg = SimConfig::test(100, 2, OptLevel::Subspace);
        let a = RankOutcome {
            phases: PhaseTimes { force: 2.0, tree: 1.0, ..Default::default() },
            phases_host_ms: PhaseTimes { force: 7.0, ..Default::default() },
            migrated_bodies: 3,
            ..Default::default()
        };
        let b = RankOutcome {
            phases: PhaseTimes { force: 1.0, tree: 4.0, ..Default::default() },
            phases_host_ms: PhaseTimes { force: 3.0, tree: 9.0, ..Default::default() },
            migrated_bodies: 2,
            ..Default::default()
        };
        let result = SimResult::aggregate(&cfg, vec![a, b], Vec::new());
        assert_eq!(result.phases.force, 2.0);
        assert_eq!(result.phases.tree, 4.0);
        assert_eq!(result.total, 6.0);
        assert_eq!(result.phases_host_ms.force, 7.0);
        assert_eq!(result.phases_host_ms.tree, 9.0);
        // 5 migrations over 100 bodies × 1 measured step.
        assert!((result.migration_fraction - 0.05).abs() < 1e-12);
    }

    #[test]
    fn measured_window_starts_at_the_right_step() {
        let mut cfg = SimConfig::new(10, Machine::test_cluster(1), OptLevel::Baseline);
        cfg.steps = 4;
        cfg.measured_steps = 2;
        let starts: Vec<bool> = (0..4).map(|s| measurement_begins(&cfg, s)).collect();
        assert_eq!(starts, vec![false, false, true, false]);
    }
}
