//! The direct-summation reference backend.
//!
//! Wraps `nbody::direct` — the exact O(n²) method the paper motivates
//! Barnes-Hut against (§3) — as a distributed [`Backend`], so that every
//! scenario × machine combination has a ground-truth competitor in
//! head-to-head comparisons: both tree solvers approximate *this* answer.
//!
//! The parallelization is the textbook replicated-data scheme: bodies are
//! block-distributed by id, an all-to-all broadcast replicates the current
//! positions each step (billed, bytes and latency, as the Redistribution
//! phase), and each rank then evaluates the exact pairwise sum for its own
//! block (Force) and advances it (Body-adv.).  Tree building,
//! centre-of-mass and partitioning do not exist here and report zero.

use crate::backend::Backend;
use crate::caps::{Caps, Reasons, Rungs};
use crate::config::SimConfig;
use crate::report::{measurement_begins, PhaseTimes, RankOutcome, SimResult};
use crate::Phase;
use nbody::{Body, SoaBodies};
use pgas::{Ctx, PhaseTimer, Runtime};

/// The exact O(n²) solver as an engine backend (registry key `direct`).
pub struct DirectBackend;

/// The direct solver's capability row: it has no tree, so the walk, build
/// and tree-policy axes are accepted and ignored.
pub const CAPS: Caps = Caps {
    group_walk: Rungs::Ignored,
    sorted_build: Rungs::Ignored,
    sorted_max_ranks: None,
    tree_reuse: Rungs::Ignored,
    max_bodies: None,
    tracked: false,
    why: Reasons::NONE,
};

impl Backend for DirectBackend {
    fn name(&self) -> &'static str {
        "direct"
    }

    fn description(&self) -> &'static str {
        "exact O(n^2) direct summation (replicated data), the ground-truth reference"
    }

    fn caps(&self) -> Caps {
        CAPS
    }

    fn run(&self, cfg: &SimConfig, bodies: Vec<Body>) -> SimResult {
        run_simulation_on(cfg, bodies)
    }
}

/// Runs the distributed direct-summation simulation described by `cfg` over
/// caller-provided initial conditions.
///
/// `cfg.opt`, `cfg.tree_policy` and the ladder tunables are ignored (there
/// is no tree); θ is likewise meaningless here.  ε, dt, the step counts and
/// the machine are honoured, so runs are directly comparable to the tree
/// backends'.
///
/// # Panics
/// Panics when [`CAPS`] rejects `cfg` or when the bodies do not match
/// `cfg.nbodies`.
pub fn run_simulation_on(cfg: &SimConfig, bodies: Vec<Body>) -> SimResult {
    if let Err(e) = CAPS.check(cfg) {
        panic!("engine::direct::run_simulation_on: invalid config: {e}");
    }
    crate::backend::validate_bodies(cfg, &bodies);
    let runtime = Runtime::new(cfg.machine.clone());
    let ranks = runtime.ranks();

    let report = runtime.run(|ctx| {
        // The same block-by-id split the tree solvers start from.
        let per = cfg.nbodies.div_ceil(ranks.max(1)).max(1);
        let mut owned: Vec<Body> =
            bodies.iter().skip(ctx.rank() * per).take(per).copied().collect();
        let mut timer = PhaseTimer::new();
        for step in 0..cfg.steps {
            if measurement_begins(cfg, step) {
                timer.reset();
            }
            run_step(ctx, &mut owned, &mut timer, cfg);
        }

        let outcome = RankOutcome {
            phases: PhaseTimes::from_timer(&timer),
            phases_host_ms: PhaseTimes::host_ms_from_timer(&timer),
            tree_local: 0.0,
            tree_merge: 0.0,
            owned_bodies: owned.len() as u64,
            migrated_bodies: 0,
            stats: Default::default(),
        };

        // Gather the final body states so the result carries the full,
        // id-ordered system (outside the measured window).  The collective
        // must run on every rank, but only rank 0's copy survives into the
        // result, so the others skip assembling theirs.
        let gathered = ctx.allgather(owned.clone());
        let final_bodies: Vec<Body> = if ctx.rank() == 0 {
            let mut all: Vec<Body> = gathered.into_iter().flatten().collect();
            all.sort_unstable_by_key(|b| b.id);
            all
        } else {
            Vec::new()
        };
        (outcome, final_bodies)
    });

    let mut ranks_out = Vec::with_capacity(report.ranks.len());
    let mut final_bodies = Vec::new();
    for r in &report.ranks {
        let (mut outcome, gathered) = r.result.clone();
        outcome.stats = r.stats.clone();
        if r.rank == 0 {
            final_bodies = gathered;
        }
        ranks_out.push(outcome);
    }
    SimResult::aggregate(cfg, ranks_out, final_bodies)
}

/// One replicated-data direct-summation time step.
fn run_step(ctx: &Ctx, owned: &mut [Body], timer: &mut PhaseTimer, cfg: &SimConfig) {
    // Replication of the current body states (the only communication):
    // every rank sends its block to every peer through the all-to-all
    // exchange, which bills latency per destination plus the byte volume —
    // the dominant cost of replicated-data direct summation at scale.
    timer.begin(ctx, Phase::Redistribute.key());
    let outgoing: Vec<Vec<Body>> = (0..ctx.ranks()).map(|_| owned.to_vec()).collect();
    // Blocks are contiguous by id and arrive in source-rank order, so the
    // concatenation is already id-sorted.
    let all: Vec<Body> = ctx.exchange(outgoing).into_iter().flatten().collect();
    ctx.barrier();
    timer.end(ctx, Phase::Redistribute.key());

    // Exact pairwise force evaluation for the owned block.  The replicated
    // system is gathered once per step into a structure-of-arrays batch and
    // streamed per target — the same leaf-coalesced kernel the cached tree
    // walks use, bit-identical to the naive loop over `Body` records.
    timer.begin(ctx, Phase::Force.key());
    let n = all.len();
    let soa = SoaBodies::from_bodies(&all);
    for body in owned.iter_mut() {
        let mut acc = nbody::Vec3::ZERO;
        let mut phi = 0.0;
        soa.accumulate_excluding_id(0, n, body.pos, body.id, cfg.eps, &mut acc, &mut phi);
        body.acc = acc;
        body.phi = phi;
        body.cost = (n.saturating_sub(1)) as u32;
    }
    ctx.charge_interactions(owned.len() as u64 * n.saturating_sub(1) as u64);
    ctx.barrier();
    timer.end(ctx, Phase::Force.key());

    // Body advancement (same update rule as the tree solvers).
    timer.begin(ctx, Phase::Advance.key());
    for b in owned.iter_mut() {
        b.vel += b.acc * cfg.dt;
        b.pos += b.vel * cfg.dt;
    }
    ctx.charge_local_accesses(2 * owned.len() as u64);
    ctx.barrier();
    timer.end(ctx, Phase::Advance.key());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use nbody::direct;
    use nbody::plummer::{generate, PlummerConfig};

    fn plummer(n: usize) -> Vec<Body> {
        generate(&PlummerConfig::new(n, 42))
    }

    #[test]
    fn accelerations_match_sequential_direct_summation_exactly() {
        let mut cfg = SimConfig::test(96, 3, OptLevel::Subspace);
        cfg.steps = 1;
        cfg.measured_steps = 1;
        let bodies = plummer(cfg.nbodies);
        let reference = direct::compute_forces(&bodies, cfg.eps);
        let result = DirectBackend.run(&cfg, bodies);
        assert_eq!(result.bodies.len(), 96);
        for (a, b) in result.bodies.iter().zip(&reference) {
            assert_eq!(a.id, b.id);
            assert!((a.acc - b.acc).norm() < 1e-12, "direct backend must be exact");
            assert!((a.phi - b.phi).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_count_does_not_change_the_physics() {
        let bodies = plummer(80);
        let mut cfg1 = SimConfig::test(80, 1, OptLevel::Baseline);
        let mut cfg4 = SimConfig::test(80, 4, OptLevel::Baseline);
        cfg1.steps = 2;
        cfg4.steps = 2;
        let a = run_simulation_on(&cfg1, bodies.clone());
        let b = run_simulation_on(&cfg4, bodies);
        for (x, y) in a.bodies.iter().zip(&b.bodies) {
            assert!((x.pos - y.pos).norm() < 1e-12);
        }
    }

    #[test]
    fn phases_without_a_tree_report_zero() {
        let cfg = SimConfig::test(64, 2, OptLevel::Subspace);
        let result = DirectBackend.run(&cfg, plummer(64));
        assert_eq!(result.phases.tree, 0.0);
        assert_eq!(result.phases.cofm, 0.0);
        assert_eq!(result.phases.partition, 0.0);
        assert!(result.phases.force > 0.0);
        assert!(result.phases.redistribute > 0.0, "the replication exchange is billed");
        assert!(result.total_stats().bytes_out > 0, "replication sends real bytes");
        assert_eq!(result.migration_fraction, 0.0);
        let owned: u64 = result.ranks.iter().map(|r| r.owned_bodies).sum();
        assert_eq!(owned, 64);
    }
}
