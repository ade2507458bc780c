//! Integration tests of the group-walk traversal mode: the streamed group
//! walk reproduces the per-body walk bit for bit under every tree policy,
//! it stays physically accurate when combined with persistent-tree
//! stepping, the per-body mode remains exactly the walk it was before the
//! knob existed, and the walk amortization shows up in the traversal
//! counters and the simulated force phase.

use barnes_hut_upc::prelude::*;

/// Runs one scenario through the `upc` solver under `(policy, walk)` and
/// returns the final states, phase times and traffic counters.
#[allow(clippy::too_many_arguments)]
fn run_walk(
    scenario: &str,
    nbodies: usize,
    ranks: usize,
    steps: usize,
    opt: OptLevel,
    seed: u64,
    policy: TreePolicy,
    walk: WalkMode,
) -> SimResult {
    let registry = scenario_registry();
    let family = registry.get(scenario).expect("scenario registered");
    let tuning = family.recommended_config();
    let mut cfg = SimConfig::new(nbodies, Machine::test_cluster(ranks), opt);
    cfg.steps = steps;
    cfg.measured_steps = steps.div_ceil(2);
    cfg.seed = seed;
    cfg.theta = tuning.theta;
    cfg.eps = tuning.eps;
    cfg.dt = tuning.dt;
    cfg.tree_policy = policy;
    cfg.walk = walk;
    run_simulation_on(&cfg, family.generate(nbodies, seed))
}

/// Asserts two trajectories are bit-for-bit identical.
fn assert_bit_identical(a: &SimResult, b: &SimResult, label: &str) {
    assert_eq!(a.bodies.len(), b.bodies.len(), "{label}");
    for (x, y) in a.bodies.iter().zip(&b.bodies) {
        assert_eq!(x.id, y.id, "{label}");
        for (p, q) in [(x.pos, y.pos), (x.vel, y.vel), (x.acc, y.acc)] {
            assert_eq!(p.x.to_bits(), q.x.to_bits(), "{label}: body {}", x.id);
            assert_eq!(p.y.to_bits(), q.y.to_bits(), "{label}: body {}", x.id);
            assert_eq!(p.z.to_bits(), q.z.to_bits(), "{label}: body {}", x.id);
        }
    }
}

/// Mean relative acceleration error against the direct-summation backend.
fn mean_error_vs_direct(result: &SimResult, direct: &SimResult) -> f64 {
    result
        .bodies
        .iter()
        .zip(&direct.bodies)
        .map(|(a, b)| (a.acc - b.acc).norm() / b.acc.norm().max(1e-12))
        .sum::<f64>()
        / result.bodies.len() as f64
}

/// The group walk's member-level decisions reproduce the per-body
/// criterion exactly, in the per-body walk's order, so the
/// whole trajectory must be bit-for-bit the per-body trajectory — on every
/// scenario family.  This is simultaneously the strongest possible form of
/// "group-walk acceleration error vs direct is ≤ the per-body walk's error
/// on every scenario family" (the two errors are equal) and the pin that
/// `WalkMode::PerBody` remains the walk the group mode amortizes.
#[test]
fn group_walk_is_bit_identical_to_per_body_under_rebuild_on_every_family() {
    for scenario in scenario_registry().iter() {
        let per_body = run_walk(
            scenario.name(),
            160,
            3,
            3,
            OptLevel::CacheLocalTree,
            7,
            TreePolicy::Rebuild,
            WalkMode::PerBody,
        );
        let group = run_walk(
            scenario.name(),
            160,
            3,
            3,
            OptLevel::CacheLocalTree,
            7,
            TreePolicy::Rebuild,
            WalkMode::Group,
        );
        assert_bit_identical(&per_body, &group, scenario.name());
    }
}

/// The same equivalence through the §5.3.2 shadow cache and at the merged
/// tree-build level: the group walk composes with both cache flavours and
/// every caching rung below §5.5.
#[test]
fn group_walk_matches_per_body_through_the_shadow_cache() {
    let registry = scenario_registry();
    let family = registry.get("king").expect("king registered");
    let tuning = family.recommended_config();
    for opt in [OptLevel::CacheLocalTree, OptLevel::MergedTreeBuild] {
        let mut cfg = SimConfig::new(192, Machine::test_cluster(2), opt);
        cfg.steps = 2;
        cfg.measured_steps = 1;
        cfg.theta = tuning.theta;
        cfg.eps = tuning.eps;
        cfg.dt = tuning.dt;
        cfg.shadow_cache = true;
        cfg.walk = WalkMode::PerBody;
        let per_body = run_simulation_on(&cfg, family.generate(cfg.nbodies, cfg.seed));
        cfg.walk = WalkMode::Group;
        let group = run_simulation_on(&cfg, family.generate(cfg.nbodies, cfg.seed));
        assert_bit_identical(&per_body, &group, "shadow-cache group walk");
    }
}

/// Group-walk error vs the direct reference equals the per-body walk's on
/// every scenario family.  Under per-step rebuild it is checked against
/// direct summation; under tree reuse, at one rank (where the re-fold
/// takes no race), the two trajectories are compared bit for bit: the
/// group walk carries nothing across steps but the tree and the cache the
/// per-body walk carries too.
#[test]
fn group_walk_error_is_never_worse_than_per_body_on_every_family() {
    let steps = 4;
    for scenario in scenario_registry().iter() {
        let run = |ranks, policy, walk| {
            run_walk(scenario.name(), 192, ranks, steps, OptLevel::CacheLocalTree, 13, policy, walk)
        };
        let per_body = run(2, TreePolicy::Rebuild, WalkMode::PerBody);
        let group = run(2, TreePolicy::Rebuild, WalkMode::Group);
        let registry = scenario_registry();
        let family = registry.get(scenario.name()).unwrap();
        let tuning = family.recommended_config();
        let mut dcfg = SimConfig::new(192, Machine::test_cluster(2), OptLevel::CacheLocalTree);
        dcfg.steps = steps;
        dcfg.measured_steps = steps / 2;
        dcfg.seed = 13;
        dcfg.theta = tuning.theta;
        dcfg.eps = tuning.eps;
        dcfg.dt = tuning.dt;
        let backends = backend_registry();
        let direct =
            backends.get("direct").unwrap().run(&dcfg, family.generate(dcfg.nbodies, dcfg.seed));
        let err_per_body = mean_error_vs_direct(&per_body, &direct);
        let err_group = mean_error_vs_direct(&group, &direct);
        assert!(
            err_group <= err_per_body + 1e-10,
            "{}: group error {err_group} vs per-body {err_per_body}",
            scenario.name()
        );
        assert!(err_group < 0.1, "{}: absolute group error {err_group}", scenario.name());

        let reuse = TreePolicy::Reuse { rebuild_every: 8, drift_threshold: 0.25 };
        let per_body = run(1, reuse, WalkMode::PerBody);
        let group = run(1, reuse, WalkMode::Group);
        assert_bit_identical(&per_body, &group, &format!("{} [reuse]", scenario.name()));
        assert_eq!(
            per_body.total_stats().interactions,
            group.total_stats().interactions,
            "{} [reuse]",
            scenario.name()
        );
    }
}

/// A steps=16 trajectory with group walks *and* tree reuse enabled together
/// must stay close to the direct reference: the persistent tree, its
/// carried force cache and the incremental refolds compose with the group
/// walk without accuracy collapse.
#[test]
fn long_group_walk_trajectory_with_tree_reuse_tracks_direct_summation() {
    for scenario in ["plummer", "king"] {
        let group = run_walk(
            scenario,
            256,
            2,
            16,
            OptLevel::CacheLocalTree,
            5,
            TreePolicy::Reuse { rebuild_every: 8, drift_threshold: 0.25 },
            WalkMode::Group,
        );
        let registry = scenario_registry();
        let family = registry.get(scenario).unwrap();
        let tuning = family.recommended_config();
        let mut dcfg = SimConfig::new(256, Machine::test_cluster(2), OptLevel::CacheLocalTree);
        dcfg.steps = 16;
        dcfg.measured_steps = 8;
        dcfg.seed = 5;
        dcfg.theta = tuning.theta;
        dcfg.eps = tuning.eps;
        dcfg.dt = tuning.dt;
        let backends = backend_registry();
        let direct =
            backends.get("direct").unwrap().run(&dcfg, family.generate(dcfg.nbodies, dcfg.seed));
        let err = mean_error_vs_direct(&group, &direct);
        assert!(
            err < 0.12,
            "{scenario}: steps=16 group+reuse trajectory drifted {err} from direct summation"
        );
        assert!(group.bodies.iter().all(|b| b.pos.is_finite() && b.vel.is_finite()), "{scenario}");
    }
}

/// Strict reuse (`drift_threshold: 0`) promises bit-for-bit equivalence
/// with per-step rebuild; the group walk honours it by walking the
/// (bit-identical) tree afresh every step.
#[test]
fn strict_reuse_group_walk_is_bit_identical_to_rebuild_group_walk() {
    let rebuild = run_walk(
        "plummer",
        144,
        2,
        3,
        OptLevel::CacheLocalTree,
        23,
        TreePolicy::Rebuild,
        WalkMode::Group,
    );
    let strict = run_walk(
        "plummer",
        144,
        2,
        3,
        OptLevel::CacheLocalTree,
        23,
        TreePolicy::Reuse { rebuild_every: usize::MAX, drift_threshold: 0.0 },
        WalkMode::Group,
    );
    assert_bit_identical(&rebuild, &strict, "strict-reuse group walk");
    // Counter-for-counter comparability: the walk is the same on the same
    // tree, so its traversal volume matches the rebuild walk's exactly.
    assert_eq!(rebuild.total_stats().macs, strict.total_stats().macs);
}

/// The §5.5 group engine: the physics of the blocking group walk bit for
/// bit (both reproduce the per-body walk), with aggregated non-blocking
/// gathers.  The sorted build gives both rungs one tree at any rank count.
#[test]
fn async_group_engine_matches_blocking_group_walk() {
    let registry = scenario_registry();
    let family = registry.get("plummer").expect("plummer registered");
    let run = |opt| {
        let mut cfg = SimConfig::new(240, Machine::test_cluster(4), opt);
        cfg.steps = 2;
        cfg.measured_steps = 1;
        cfg.seed = 3;
        cfg.build = TreeBuild::Sorted;
        cfg.walk = WalkMode::Group;
        run_simulation_on(&cfg, family.generate(cfg.nbodies, cfg.seed))
    };
    let cached = run(OptLevel::CacheLocalTree);
    let async_group = run(OptLevel::AsyncAggregation);
    assert_bit_identical(&cached, &async_group, "async group engine");
    assert_eq!(cached.total_stats().interactions, async_group.total_stats().interactions);
}

/// The walk amortization claim: the group walk must cut the
/// multipole-acceptance count well below the per-body walk's on the same
/// workload, with and without tree reuse, evaluate exactly the same
/// interactions and spend less simulated time in the force phase.  One
/// rank takes no lock and races no re-fold, so every run repeats and the
/// time is asserted in every mode.
#[test]
fn group_walk_amortizes_the_traversal_counters() {
    for policy in
        [TreePolicy::Rebuild, TreePolicy::Reuse { rebuild_every: 8, drift_threshold: 0.25 }]
    {
        let run = |walk| run_walk("plummer", 1024, 1, 6, OptLevel::CacheLocalTree, 9, policy, walk);
        let per_body = run(WalkMode::PerBody);
        let group = run(WalkMode::Group);
        let macs_per_body = per_body.total_stats().macs;
        let macs_group = group.total_stats().macs;
        assert!(
            (macs_group as f64) < 0.75 * macs_per_body as f64,
            "[{}] group macs {macs_group} vs per-body {macs_per_body}",
            policy.name()
        );
        assert_eq!(
            per_body.total_stats().interactions,
            group.total_stats().interactions,
            "[{}] the group walk evaluates exactly the per-body interactions",
            policy.name()
        );
        assert!(
            group.phases.force < per_body.phases.force,
            "[{}] group force time {} vs per-body {}",
            policy.name(),
            group.phases.force,
            per_body.phases.force
        );
    }
}

/// The walk knob is validated, not silently substituted: the group walk
/// needs a cell cache (`upc` below §5.3 rejects it) and the
/// message-passing comparator has no group walk at all.
#[test]
fn group_walk_support_is_checked_per_backend() {
    let backends = backend_registry();
    let mut cfg = SimConfig::test(64, 2, OptLevel::Redistribute);
    cfg.walk = WalkMode::Group;
    let err = backends.get("upc").unwrap().supports(&cfg).unwrap_err();
    assert_eq!(err.code, barnes_hut_upc::engine::ConfigError::E_UNSUPPORTED, "{err}");
    assert!(err.message.contains("cache"), "{err}");

    let mut cfg = SimConfig::test(64, 2, OptLevel::Subspace);
    cfg.walk = WalkMode::Group;
    let err = backends.get("mpi").unwrap().supports(&cfg).unwrap_err();
    assert_eq!(err.code, barnes_hut_upc::engine::ConfigError::E_UNSUPPORTED, "{err}");
    assert!(err.message.contains("not supported"), "{err}");
    assert!(backends.get("upc").unwrap().supports(&cfg).is_ok());
    assert!(
        backends.get("direct").unwrap().supports(&cfg).is_ok(),
        "direct summation has no tree and ignores the walk mode"
    );
}
