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
use crate::drive::{self, Observer, Solver};
use crate::report::{RankOutcome, SimResult};
use crate::Phase;
use nbody::{Body, SoaBodies};
use pgas::{Ctx, PhaseTimer, Price};

/// The exact O(n²) solver as an engine backend (registry key `direct`).  It
/// honours ε, dt, the step counts and the machine; θ, `cfg.opt` and the
/// ladder tunables mean nothing without a tree.
pub struct DirectBackend;

/// The direct solver's capability row: it has no tree, so the walk, build
/// and tree-policy axes are accepted and ignored.
pub const CAPS: Caps = Caps {
    group_walk: Rungs::Ignored,
    sorted_build: Rungs::Ignored,
    sorted_max_ranks: None,
    tree_reuse: Rungs::Ignored,
    max_bodies: None,
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

    fn drive(
        &self,
        cfg: &SimConfig,
        bodies: Vec<Body>,
        observer: Option<Observer>,
    ) -> Result<SimResult, String> {
        drive::drive::<Direct>(CAPS, cfg, bodies, observer)
    }
}

/// One run of the direct solver: the initial bodies each rank takes its
/// block of.
struct Direct {
    bodies: Vec<Body>,
}

/// One rank's block and phase timer.
struct DirectRank {
    owned: Vec<Body>,
    timer: PhaseTimer,
}

impl Solver for Direct {
    type Rank = DirectRank;

    fn new(_: &SimConfig, bodies: Vec<Body>) -> Self {
        Direct { bodies }
    }

    fn start(&self, ctx: &Ctx, _: &SimConfig) -> DirectRank {
        DirectRank {
            owned: drive::initial_block(ctx, &self.bodies).to_vec(),
            timer: PhaseTimer::new(),
        }
    }

    fn step(&self, ctx: &Ctx, cfg: &SimConfig, rank: &mut DirectRank, _: usize) {
        run_step(ctx, &mut rank.owned, &mut rank.timer, cfg);
    }

    fn reset_window(&self, rank: &mut DirectRank) {
        rank.timer.reset();
    }

    fn outcome(&self, rank: &DirectRank) -> RankOutcome {
        RankOutcome { owned_bodies: rank.owned.len() as u64, ..RankOutcome::timed(&rank.timer) }
    }

    fn bodies(&self, _: &Ctx, rank: &DirectRank) -> Vec<Body> {
        rank.owned.clone()
    }
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
    ctx.bill(Price::Interaction, owned.len() as u64 * n.saturating_sub(1) as u64);
    ctx.barrier();
    timer.end(ctx, Phase::Force.key());

    // Body advancement (same update rule as the tree solvers).
    timer.begin(ctx, Phase::Advance.key());
    for b in owned.iter_mut() {
        b.vel += b.acc * cfg.dt;
        b.pos += b.vel * cfg.dt;
    }
    ctx.bill(Price::LocalAccess, 2 * owned.len() as u64);
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
        let a = DirectBackend.run(&cfg1, bodies.clone());
        let b = DirectBackend.run(&cfg4, bodies);
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
