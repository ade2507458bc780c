//! The simulation driver: runs the configured number of time steps with the
//! phase structure of the paper and collects the per-phase times its tables
//! report.
//!
//! Each step's tree-building phase is governed by the configured
//! [`crate::config::TreePolicy`]: the default per-step rebuild reproduces
//! the paper's protocol exactly, while the reuse/adaptive policies route
//! through the tree-lifecycle subsystem ([`crate::lifecycle`]) — a
//! persistent global tree, incrementally updated, with drift-triggered
//! rebuilds.

use crate::cellstore::COMPACT_MAX_RANKS;
use crate::config::{SimConfig, TreeBuild, WalkMode};
use crate::force::{advance_phase, force_phase_cached, force_phase_uncached, write_back};
use crate::frontier::{force_phase_async, force_phase_async_group};
use crate::lifecycle;
use crate::mergetree::{allocate_merge_root, build_local_tree, merge_into_global};
use crate::partition::{partition_phase, redistribute_phase};
use crate::report::{measurement_begins, Phase, PhaseTimes, RankOutcome, SimResult};
use crate::shared::{BhShared, RankState};
use crate::sortbuild::sorted_build;
use crate::subspace::{subspace_partition, subspace_redistribute, subspace_treebuild};
use crate::treebuild::{
    allocate_root, bounding_box_phase, center_of_mass_phase, derive_root_cube, insert_owned_bodies,
    publish_root_cube,
};
use pgas::{Ctx, GlobalPtr, Runtime};

/// Runs a full simulation according to `cfg` and returns the per-phase
/// timing breakdown, per-rank outcomes and the final body states.
pub fn run_simulation(cfg: &SimConfig) -> SimResult {
    let shared = BhShared::new(cfg);
    run_simulation_with(cfg, &shared)
}

/// Like [`run_simulation`] but over caller-provided initial conditions
/// (any workload — see the `scenarios` crate — not just the built-in
/// Plummer sphere).  The bodies must number `cfg.nbodies` with ids `0..n`.
pub fn run_simulation_on(cfg: &SimConfig, bodies: Vec<nbody::Body>) -> SimResult {
    let shared = BhShared::with_bodies(cfg, bodies);
    run_simulation_with(cfg, &shared)
}

/// Like [`run_simulation_on`] but emits an [`engine::snap::StepRecord`]
/// after every completed time step, so callers (the checkpoint layer) can
/// capture resumable state mid-run.
///
/// Observation is physics-neutral: the record is taken at a point where
/// every rank has passed the advance-phase barrier — the body table is the
/// exact between-steps state — and the only addition to the schedule is one
/// extra barrier per step, outside every phase timer, so tracked runs
/// produce bit-for-bit the bodies of untracked runs.
///
/// Tracked runs are the supervised (retryable) surface, so this entry is
/// fallible: a pending `engine.step` fault in `cfg.faults` aborts the run
/// with an error carrying the [`engine::fault::STEP_FAULT`] marker, after
/// every record for the steps completed *before* the fault has been
/// delivered — a supervisor restores the last checkpoint and retries.
pub fn run_simulation_tracked(
    cfg: &SimConfig,
    bodies: Vec<nbody::Body>,
    observer: &mut (dyn FnMut(engine::snap::StepRecord) + Send),
) -> Result<SimResult, String> {
    let shared = BhShared::with_bodies(cfg, bodies);
    run_simulation_observed(cfg, &shared, Some(observer))
}

/// Like [`run_simulation`] but over an existing shared state (used by tests
/// and benches that want to inspect or pre-seed the body table).
///
/// # Panics
/// Panics when [`SimConfig::validate`] rejects `cfg` (unrunnable
/// measurement window, non-positive physics parameters, ...).
pub fn run_simulation_with(cfg: &SimConfig, shared: &BhShared) -> SimResult {
    match run_simulation_observed(cfg, shared, None) {
        Ok(result) => result,
        // Unsupervised entry points have no recovery layer to hand the
        // fault to; aborting loudly keeps the injection observable.
        Err(e) => panic!("bh::run_simulation: {e}"),
    }
}

/// The shared driver behind [`run_simulation_with`] (no observer) and
/// [`run_simulation_tracked`] (per-step observer).
fn run_simulation_observed(
    cfg: &SimConfig,
    shared: &BhShared,
    observer: Option<&mut (dyn FnMut(engine::snap::StepRecord) + Send)>,
) -> Result<SimResult, String> {
    if let Err(e) = cfg.validate() {
        panic!("bh::run_simulation: invalid config: {e}");
    }
    if let Err(e) = check_walk_mode(cfg) {
        panic!("bh::run_simulation: invalid config: {e}");
    }
    if let Err(e) = check_tree_build(cfg) {
        panic!("bh::run_simulation: invalid config: {e}");
    }
    let step_faults = cfg.faults.targets("engine.step");
    let observer = observer.map(std::sync::Mutex::new);
    let runtime = Runtime::new(cfg.machine.clone());
    let report = runtime.run(|ctx| {
        let mut st = RankState::new(ctx, shared, cfg);
        for step in 0..cfg.steps {
            if step_faults && cfg.faults.step_fault_pending("engine.step", step) {
                // A **pure** read: every rank evaluates the same predicate
                // and abandons the run at the same step — no mutation here,
                // so no rank desynchronizes and no barrier is left hanging.
                // The driver below classifies the abort and consumes the
                // trigger once, after all ranks have returned.
                break;
            }
            if measurement_begins(cfg, step) {
                // Start of the measured window (the paper measures the last
                // two of four steps): reset all accumulators.
                st.timer.reset();
                st.tree_local_time = 0.0;
                st.tree_merge_time = 0.0;
                st.migrated = 0;
                st.owned_accum = 0;
            }
            run_step(ctx, shared, &mut st, cfg, step);
            if let Some(obs) = &observer {
                // Every rank has passed the advance-phase barrier inside
                // `run_step`, so the body table holds the exact
                // between-steps state and nothing writes it until the next
                // step begins.  Rank 0 copies it out, then one barrier
                // releases the other ranks into the next step.  The barrier
                // sits outside every phase timer, so tracked runs report
                // the same phase times and identical physics.
                if ctx.rank() == 0 {
                    let anchor_step = if lifecycle::persistent_tree(cfg) && st.lifecycle.valid {
                        // The reused tree's structure depends on the body
                        // history since the last full rebuild: resume must
                        // replay from there.
                        st.lifecycle.last_rebuild_step
                    } else {
                        // Stateless per-step construction: resume continues
                        // directly from the current bodies.
                        step + 1
                    };
                    let record = engine::snap::StepRecord {
                        step,
                        anchor_step,
                        tree_generation: st.lifecycle.generation,
                        bodies: shared.bodytab.snapshot(),
                    };
                    (obs.lock().expect("snapshot observer poisoned"))(record);
                }
                ctx.barrier();
            }
        }
        let outcome = RankOutcome {
            phases: PhaseTimes::from_timer(&st.timer),
            phases_host_ms: PhaseTimes::host_ms_from_timer(&st.timer),
            tree_local: st.tree_local_time,
            tree_merge: st.tree_merge_time,
            owned_bodies: st.my_ids.len() as u64,
            migrated_bodies: st.migrated,
            stats: Default::default(),
        };
        // Every rank takes the same lifecycle decisions, so any rank's
        // generation is the run's.
        (outcome, st.lifecycle.generation)
    });

    if step_faults {
        // The pending predicate is pure, so re-finding the first pending
        // step here names exactly the step every rank broke at.  Consuming
        // the trigger marks it spent in the plan's *shared* state, so the
        // supervisor's checkpoint-restore replay passes the step cleanly.
        if let Some(step) =
            (0..cfg.steps).find(|&s| cfg.faults.step_fault_pending("engine.step", s))
        {
            cfg.faults.consume_step("engine.step", step);
            return Err(format!(
                "{}: injected fault at step {step} (site engine.step); the run aborted \
                 before the step executed and is retryable from the last checkpoint",
                engine::fault::STEP_FAULT
            ));
        }
    }

    let mut ranks: Vec<RankOutcome> = Vec::with_capacity(report.ranks.len());
    for r in &report.ranks {
        let mut outcome = r.result.0.clone();
        outcome.stats = r.stats.clone();
        ranks.push(outcome);
    }
    let mut result = SimResult::aggregate(cfg, ranks, shared.bodytab.snapshot());
    result.tree_bytes = shared.cells.peak_bytes();
    result.tree_rebuilds =
        if lifecycle::persistent_tree(cfg) { report.ranks[0].result.1 } else { cfg.steps as u64 };
    Ok(result)
}

/// Checks that `cfg.walk` is runnable on this solver: the group walk builds
/// its interaction lists over the §5.3 cell cache, so it requires a caching
/// optimization level.  Shared by [`run_simulation_with`] and
/// [`crate::backend::UpcBackend::supports`] so library callers and the
/// registry fail identically, with a clear error instead of a silent
/// per-body fallback that would make walk-mode comparisons lie.
pub fn check_walk_mode(cfg: &SimConfig) -> Result<(), String> {
    if cfg.walk == WalkMode::Group && !cfg.opt.caches_cells() {
        return Err(format!(
            "walk mode {} requires a caching optimization level (cache-local-tree and above): \
             the group walk builds per-group interaction lists over the force cache, which \
             --opt {} does not have",
            cfg.walk.name(),
            cfg.opt.name()
        ));
    }
    Ok(())
}

/// Checks that `cfg.build` is runnable on this solver: the sorted build
/// routes each body (with its leaf payload) to its Morton-bucket owner, an
/// owner-computes protocol that needs redistributed bodies (§5.2 and above),
/// and it replaces the classic build phase, which the §6 subspace algorithm
/// does not have.  Its compact cell arena addresses ranks through 8-bit
/// handle fields, so it also caps the machine size
/// ([`COMPACT_MAX_RANKS`]).  Shared by [`run_simulation_with`] and
/// [`crate::backend::UpcBackend::supports`] so library callers and the
/// registry fail identically (like [`check_walk_mode`]).
pub fn check_tree_build(cfg: &SimConfig) -> Result<(), String> {
    if cfg.build != TreeBuild::Sorted {
        return Ok(());
    }
    if !cfg.opt.redistributes_bodies() || cfg.opt.subspace_tree_build() {
        return Err(format!(
            "tree build {} requires an owner-computes optimization level (redistribute \
             through async-aggregation): the sorted build routes bodies to Morton-bucket \
             owners over the redistribution machinery, which --opt {} does not support",
            cfg.build.name(),
            cfg.opt.name()
        ));
    }
    if cfg.ranks() > COMPACT_MAX_RANKS {
        return Err(format!(
            "--build {} supports at most {COMPACT_MAX_RANKS} ranks (its compact cell handles \
             carry the rank in 8 bits); this machine has {}",
            cfg.build.name(),
            cfg.ranks()
        ));
    }
    Ok(())
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
    // the group walk requires a cell cache to build its lists over, which
    // `run_simulation_with`/`UpcBackend::supports` enforce.
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

    // Step cleanup: under the per-step rebuild protocol (and the subspace
    // build, which re-plans the tree shape every step) the tree is torn
    // down; persistent policies keep it for the next step's lifecycle
    // decision.
    if !lifecycle::persistent_tree(cfg) {
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
    if rebuilt && lifecycle::persistent_tree(cfg) {
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
    st.owned_accum += outcome.owned;
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
    st.owned_accum += st.my_ids.len() as u64;
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
    use crate::config::OptLevel;
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
    fn sorted_build_is_rejected_beyond_the_compact_handle_rank_limit() {
        let mut cfg = SimConfig::test(64, COMPACT_MAX_RANKS, OptLevel::CacheLocalTree);
        cfg.build = TreeBuild::Sorted;
        assert_eq!(cfg.ranks(), 255);
        assert_eq!(check_tree_build(&cfg), Ok(()));
        cfg.machine = pgas::Machine::test_cluster(COMPACT_MAX_RANKS + 1);
        let err = check_tree_build(&cfg).expect_err("256 ranks overflow the handle");
        assert!(err.contains("--build sorted") && err.contains("at most 255 ranks"), "{err}");
        // The insertion build's fat pointers have no such limit.
        cfg.build = TreeBuild::Insertion;
        assert_eq!(check_tree_build(&cfg), Ok(()));
    }

    #[test]
    fn tracked_run_is_physics_neutral_and_emits_every_step() {
        use crate::config::TreePolicy;
        let mut cfg = SimConfig::test(96, 2, OptLevel::CacheLocalTree);
        cfg.steps = 4;
        cfg.measured_steps = 2;
        cfg.tree_policy = TreePolicy::Reuse { rebuild_every: 2, drift_threshold: 0.5 };
        let bodies =
            nbody::plummer::generate(&nbody::plummer::PlummerConfig::new(cfg.nbodies, cfg.seed));
        let plain = run_simulation_on(&cfg, bodies.clone());
        let mut records: Vec<engine::snap::StepRecord> = Vec::new();
        let tracked = run_simulation_tracked(&cfg, bodies, &mut |r| records.push(r))
            .expect("a fault-free tracked run succeeds");
        assert_eq!(records.len(), cfg.steps, "one record per completed step");
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.step, i);
            assert!(r.anchor_step <= i + 1, "anchor may never lie in the future");
            assert_eq!(r.bodies.len(), cfg.nbodies);
            assert!(r.bodies.iter().enumerate().all(|(j, b)| b.id as usize == j), "sorted by id");
        }
        // A rebuild happened at step 0 (no valid tree) and at step 2 (the
        // e2 cadence), so the final record's anchor is step 2.
        assert_eq!(records.last().expect("records").anchor_step, 2);
        assert!(
            engine::snap::bodies_bits_equal(&tracked.bodies, &plain.bodies),
            "observation must not perturb the physics"
        );
        assert!(
            engine::snap::bodies_bits_equal(
                &records.last().expect("records").bodies,
                &plain.bodies
            ),
            "the last record is the final state"
        );
    }

    #[test]
    fn injected_step_faults_abort_once_then_replay_clean() {
        let mut cfg = SimConfig::test(64, 2, OptLevel::CacheLocalTree);
        cfg.steps = 4;
        cfg.measured_steps = 2;
        cfg.faults = engine::fault::FaultPlan::parse("engine.step@n2").unwrap();
        let bodies =
            nbody::plummer::generate(&nbody::plummer::PlummerConfig::new(cfg.nbodies, cfg.seed));

        let mut records: Vec<engine::snap::StepRecord> = Vec::new();
        let err = run_simulation_tracked(&cfg, bodies.clone(), &mut |r| records.push(r))
            .expect_err("the armed step fault must abort the run");
        assert!(err.contains(engine::fault::STEP_FAULT), "{err}");
        assert!(err.contains("step 2"), "{err}");
        // Steps before the fault completed and were observed.
        assert_eq!(records.len(), 2, "steps 0 and 1 ran before the fault");

        // The abort consumed the trigger (shared across clones), so the
        // supervisor's retry with the same plan runs clean and matches a
        // fault-free run bit-for-bit.
        let retry = run_simulation_tracked(&cfg, bodies.clone(), &mut |_| {})
            .expect("the consumed fault must not re-fire");
        let mut clean_cfg = cfg.clone();
        clean_cfg.faults = engine::fault::FaultPlan::default();
        let clean = run_simulation_on(&clean_cfg, bodies);
        assert!(
            engine::snap::bodies_bits_equal(&retry.bodies, &clean.bodies),
            "the retried run must be bit-identical to a fault-free run"
        );
    }

    #[test]
    fn plummer_path_is_unchanged() {
        // `run_simulation` (implicit Plummer) and `run_simulation_on` with
        // the same Plummer bodies must agree body-for-body.
        let cfg = SimConfig::test(128, 2, OptLevel::CacheLocalTree);
        let implicit = run_simulation(&cfg);
        let explicit = run_simulation_on(
            &cfg,
            nbody::plummer::generate(&nbody::plummer::PlummerConfig::new(cfg.nbodies, cfg.seed)),
        );
        for (a, b) in implicit.bodies.iter().zip(&explicit.bodies) {
            assert!((a.pos - b.pos).norm() < 1e-9);
        }
    }
}
