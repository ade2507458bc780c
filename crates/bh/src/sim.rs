//! The upc solver's time step — the paper's phase structure, per
//! optimization level — as the [`engine::drive::Solver`] the shared step
//! driver runs for every backend.
//!
//! Each step's tree-building phase is governed by the configured
//! [`engine::config::TreePolicy`]: the default per-step rebuild reproduces
//! the paper's protocol exactly, while the reuse policy routes through the
//! tree-lifecycle subsystem ([`crate::lifecycle`]) — a persistent global
//! tree, incrementally updated, with drift-triggered rebuilds.  A resume
//! replays such a tree from its last rebuild, the step the solver's record
//! anchor names.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::force::{advance_phase, force_phase_cached, force_phase_uncached, write_back};
use crate::frontier::{force_phase_async, force_phase_async_group};
use crate::lifecycle;
use crate::mergetree::{allocate_merge_root, build_local_tree, merge_into_global};
use crate::partition::{partition_phase, redistribute_phase};
use crate::shared::{BhShared, RankState};
use crate::sortbuild::sorted_build;
use crate::subspace::{subspace_partition, subspace_redistribute, subspace_treebuild};
use crate::treebuild::{
    allocate_root, bounding_box_phase, center_of_mass_phase, derive_root_cube, insert_owned_bodies,
    publish_root_cube,
};
use crate::UpcBackend;
use engine::config::{SimConfig, TreeBuild, WalkMode};
use engine::drive::Solver;
use engine::report::{Phase, RankOutcome, SimResult};
use engine::Backend;
use nbody::plummer::{generate, PlummerConfig};
use nbody::Body;
use pgas::{Ctx, GlobalPtr};

/// Runs a full simulation according to `cfg` over the paper's Plummer
/// initial conditions and returns the per-phase timing breakdown, per-rank
/// outcomes and the final body states.
pub fn run_simulation(cfg: &SimConfig) -> SimResult {
    run_simulation_on(cfg, generate(&PlummerConfig::new(cfg.nbodies, cfg.seed)))
}

/// Like [`run_simulation`] but over caller-provided initial conditions
/// (any workload — see the `scenarios` crate — not just the built-in
/// Plummer sphere).  The bodies must number `cfg.nbodies` with ids `0..n`;
/// panics where [`Backend::run`] does.
pub fn run_simulation_on(cfg: &SimConfig, bodies: Vec<Body>) -> SimResult {
    UpcBackend.run(cfg, bodies)
}

/// One run of the upc solver: the PGAS-resident state every rank shares.
pub(crate) struct Upc {
    shared: BhShared,
    /// The persistent tree's final generation, left by the ranks' outcomes.
    generation: AtomicU64,
}

impl Solver for Upc {
    type Rank = RankState;

    fn new(cfg: &SimConfig, bodies: Vec<Body>) -> Self {
        Upc { shared: BhShared::with_bodies(cfg, bodies), generation: AtomicU64::new(0) }
    }

    fn start(&self, ctx: &Ctx, cfg: &SimConfig) -> RankState {
        RankState::new(ctx, &self.shared, cfg)
    }

    fn step(&self, ctx: &Ctx, cfg: &SimConfig, st: &mut RankState, step: usize) {
        run_step(ctx, &self.shared, st, cfg, step);
    }

    fn reset_window(&self, st: &mut RankState) {
        st.timer.reset();
        st.tree_local_time = 0.0;
        st.tree_merge_time = 0.0;
        st.migrated = 0;
    }

    fn outcome(&self, st: &RankState) -> RankOutcome {
        // Every rank takes the same lifecycle decisions, so any rank's
        // generation is the run's.
        self.generation.store(st.lifecycle.generation, Ordering::Relaxed);
        RankOutcome {
            tree_local: st.tree_local_time,
            tree_merge: st.tree_merge_time,
            owned_bodies: st.my_ids.len() as u64,
            migrated_bodies: st.migrated,
            ..RankOutcome::timed(&st.timer)
        }
    }

    fn bodies(&self, ctx: &Ctx, _: &RankState) -> Vec<Body> {
        // The body table is shared: rank 0 hands over all of it.
        if ctx.rank() == 0 {
            self.shared.bodytab.snapshot()
        } else {
            Vec::new()
        }
    }

    fn anchor(&self, st: &RankState, step: usize) -> (usize, u64) {
        // A tree kept valid across steps (persistent policies only) depends
        // on the body history since its last full rebuild, so a resume
        // replays from there; a tree built fresh every step lets it continue
        // from the current bodies.
        let valid = st.lifecycle.valid;
        let anchor_step = if valid { st.lifecycle.last_rebuild_step } else { step + 1 };
        (anchor_step, st.lifecycle.generation)
    }

    fn finish(&self, cfg: &SimConfig, result: &mut SimResult) {
        result.tree_bytes = self.shared.cells.peak_bytes();
        result.tree_rebuilds = if cfg.tree_policy.reuses_tree() {
            self.generation.load(Ordering::Relaxed)
        } else {
            cfg.steps as u64
        };
    }
}

/// Runs one time step with the phase structure of the configured
/// optimization level.
fn run_step(ctx: &Ctx, shared: &BhShared, st: &mut RankState, cfg: &SimConfig, step: usize) {
    if cfg.opt.subspace_tree_build() {
        run_step_subspace(ctx, shared, st, cfg);
    } else {
        run_step_classic(ctx, shared, st, cfg, step);
    }

    // Force computation.  The walk mode selects between one traversal per
    // body (the paper's walk) and one per body group ([`crate::groupwalk`]);
    // the group walk streams cells out of a cell cache, which the upc
    // capability row requires.
    st.timer.begin(ctx, Phase::Force.key());
    let forces = if cfg.opt.async_aggregation() {
        if cfg.walk == WalkMode::Group {
            force_phase_async_group(ctx, shared, st, cfg)
        } else {
            force_phase_async(ctx, shared, st, cfg)
        }
    } else if cfg.opt.caches_cells() {
        // Dispatches on `cfg.walk` internally.
        force_phase_cached(ctx, shared, st, cfg)
    } else {
        force_phase_uncached(ctx, shared, st, cfg)
    };
    write_back(ctx, shared, st, cfg, &forces);
    ctx.barrier();
    st.timer.end(ctx, Phase::Force.key());

    // Body advancement.
    st.timer.begin(ctx, Phase::Advance.key());
    advance_phase(ctx, shared, st, cfg);
    ctx.barrier();
    st.timer.end(ctx, Phase::Advance.key());

    // Step cleanup: under the per-step rebuild protocol the tree is torn
    // down; the reuse policy keeps it for the next step's lifecycle
    // decision.
    if !cfg.tree_policy.reuses_tree() {
        st.my_cells.clear();
        if ctx.rank() == 0 {
            shared.cells.clear(ctx);
            shared.root.write_raw(GlobalPtr::NULL);
        }
        ctx.barrier();
    }
}

/// Tree building → centre of mass → partitioning → redistribution, as used
/// by every level below the §6 subspace algorithm.
fn run_step_classic(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    step: usize,
) {
    // Tree building: reuse the persistent tree when the lifecycle decision
    // allows it, rebuild from scratch otherwise.  Under the default
    // `TreePolicy::Rebuild` the decision short-circuits (no collectives, no
    // charges) and the phase below is exactly the paper's.
    st.timer.begin(ctx, Phase::TreeBuild.key());
    let (mut center, mut rsize) = bounding_box_phase(ctx, shared, st, cfg);
    let decision = lifecycle::decide(ctx, shared, st, cfg, step);
    let rebuilt = matches!(decision, lifecycle::StepBuild::Rebuild);
    match decision {
        lifecycle::StepBuild::Reuse(probes) => {
            lifecycle::incremental_update(ctx, shared, st, cfg, probes);
        }
        lifecycle::StepBuild::Rebuild => {
            if st.bbox_kept_cube {
                // The bounding-box fast path handed back the persistent
                // cube on the bet that this step would reuse the tree; a
                // rebuild must derive its cube from this step's box alone,
                // so rebuilt trees are bit-identical under every policy.
                (center, rsize) = derive_root_cube(st.bbox_lo, st.bbox_hi);
                publish_root_cube(ctx, shared, st, cfg, center, rsize);
            }
            lifecycle::clear_stale_tree(ctx, shared, st);
            if cfg.build == TreeBuild::Sorted {
                // Lock-free sort-based construction ([`crate::sortbuild`]):
                // cells come out fully summarized, so the centre-of-mass
                // phase below has nothing to do.
                let (local_t, hook_t) = sorted_build(ctx, shared, st, cfg, center, rsize);
                st.tree_local_time += local_t;
                st.tree_merge_time += hook_t;
            } else if cfg.opt.merged_tree_build() {
                allocate_merge_root(ctx, shared, center, rsize);
                ctx.barrier();
                let local_start = ctx.now();
                let local_root = build_local_tree(ctx, shared, st, cfg);
                let merge_start = ctx.now();
                st.tree_local_time += merge_start - local_start;
                merge_into_global(ctx, shared, st, cfg, local_root);
                // Record the merge sub-phase before the barrier so that the
                // Figure 8 style per-rank breakdown shows the merge
                // imbalance rather than the barrier wait.
                st.tree_merge_time += ctx.now() - merge_start;
                ctx.barrier();
            } else {
                allocate_root(ctx, shared, center, rsize);
                ctx.barrier();
                insert_owned_bodies(ctx, shared, st, cfg);
                ctx.barrier();
            }
        }
    }
    st.timer.end(ctx, Phase::TreeBuild.key());

    // Centre-of-mass computation (folded into tree building by §5.4+; a
    // reuse step re-folded the summaries during the incremental update).
    st.timer.begin(ctx, Phase::CenterOfMass.key());
    if rebuilt && !cfg.opt.merged_tree_build() && cfg.build != TreeBuild::Sorted {
        center_of_mass_phase(ctx, shared, st, cfg);
    }
    ctx.barrier();
    st.timer.end(ctx, Phase::CenterOfMass.key());

    // A fresh build under a persistent policy captures every owned body's
    // leaf site and bumps the tree generation (tree-building work).
    if rebuilt && cfg.tree_policy.reuses_tree() {
        st.timer.begin(ctx, Phase::TreeBuild.key());
        lifecycle::after_rebuild(ctx, shared, st, cfg, step, center, rsize);
        st.timer.end(ctx, Phase::TreeBuild.key());
    }

    // Partitioning.
    st.timer.begin(ctx, Phase::Partition.key());
    let (plan, keyed) = partition_phase(ctx, shared, st, cfg);
    st.timer.end(ctx, Phase::Partition.key());

    // Redistribution.
    st.timer.begin(ctx, Phase::Redistribute.key());
    let outcome = redistribute_phase(ctx, shared, st, cfg, &plan, keyed);
    st.migrated += outcome.migrated_in;
    ctx.barrier();
    st.timer.end(ctx, Phase::Redistribute.key());
}

/// The §6 step structure: partitioning (subspace construction) →
/// redistribution (all-to-all) → tree building (subforests + hooking).
fn run_step_subspace(ctx: &Ctx, shared: &BhShared, st: &mut RankState, cfg: &SimConfig) {
    st.timer.begin(ctx, Phase::Partition.key());
    bounding_box_phase(ctx, shared, st, cfg);
    let (plan, pre) = subspace_partition(ctx, shared, st, cfg);
    st.timer.end(ctx, Phase::Partition.key());

    st.timer.begin(ctx, Phase::Redistribute.key());
    let (assignment, migrated) = subspace_redistribute(ctx, shared, st, cfg, &plan, pre);
    st.migrated += migrated;
    ctx.barrier();
    st.timer.end(ctx, Phase::Redistribute.key());

    st.timer.begin(ctx, Phase::TreeBuild.key());
    let (local_t, hook_t) = subspace_treebuild(ctx, shared, st, cfg, &plan, &assignment);
    st.tree_local_time += local_t;
    st.tree_merge_time += hook_t;
    st.timer.end(ctx, Phase::TreeBuild.key());

    // No separate centre-of-mass phase.
    st.timer.begin(ctx, Phase::CenterOfMass.key());
    ctx.barrier();
    st.timer.end(ctx, Phase::CenterOfMass.key());
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::config::OptLevel;
    use scenarios::builtin;

    #[test]
    fn run_simulation_on_accepts_any_scenario() {
        // Every registered workload family must run through the distributed
        // solver at a non-trivial optimization level, conserve the body
        // count and produce finite physics.
        for scenario in builtin().iter() {
            let cfg = SimConfig::test(192, 3, OptLevel::Subspace);
            let bodies = scenario.generate(cfg.nbodies, cfg.seed);
            let result = run_simulation_on(&cfg, bodies);
            assert_eq!(result.bodies.len(), 192, "{}", scenario.name());
            assert!(
                result.bodies.iter().all(|b| b.pos.is_finite() && b.vel.is_finite()),
                "{} produced non-finite bodies",
                scenario.name()
            );
            assert!(result.phases.total() > 0.0, "{}", scenario.name());
        }
    }

    #[test]
    fn plummer_path_is_unchanged() {
        // `run_simulation` (implicit Plummer) and `run_simulation_on` with
        // the same Plummer bodies must agree body-for-body.
        let cfg = SimConfig::test(128, 2, OptLevel::CacheLocalTree);
        let implicit = run_simulation(&cfg);
        let explicit =
            run_simulation_on(&cfg, generate(&PlummerConfig::new(cfg.nbodies, cfg.seed)));
        for (a, b) in implicit.bodies.iter().zip(&explicit.bodies) {
            assert!((a.pos - b.pos).norm() < 1e-9);
        }
    }
}
