//! Integration tests of the tree-lifecycle subsystem: persistent-tree time
//! stepping must degrade into the paper's per-step rebuild exactly when
//! asked to, stay physically accurate over long incremental trajectories,
//! and actually pay off on the tree-building phase.

mod common;

use barnes_hut_upc::prelude::*;
use proptest::prelude::*;

/// Runs one scenario through the `upc` solver under `policy` and returns
/// the final body states plus the per-phase times.
fn run_policy(
    scenario: &str,
    nbodies: usize,
    ranks: usize,
    steps: usize,
    opt: OptLevel,
    seed: u64,
    policy: TreePolicy,
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
    run_simulation_on(&cfg, family.generate(nbodies, seed))
}

/// Asserts two trajectories are bit-for-bit identical (positions,
/// velocities and accelerations compared by their bit patterns).
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

/// `Reuse { rebuild_every: 1 }` rebuilds every step by definition, so its
/// trajectory must be bit-for-bit the `Rebuild` trajectory on every
/// registered scenario family (the whole equivalence suite then pins the
/// refactor: the rebuild path *is* the pre-lifecycle solver).
#[test]
fn rebuild_every_step_is_bit_identical_to_rebuild_on_every_family() {
    for scenario in scenario_registry().iter() {
        let rebuild = run_policy(
            scenario.name(),
            160,
            3,
            3,
            OptLevel::CacheLocalTree,
            7,
            TreePolicy::Rebuild,
        );
        let reuse1 = run_policy(
            scenario.name(),
            160,
            3,
            3,
            OptLevel::CacheLocalTree,
            7,
            TreePolicy::Reuse { rebuild_every: 1, drift_threshold: 0.25 },
        );
        assert_bit_identical(&rebuild, &reuse1, scenario.name());
        assert_eq!((rebuild.tree_rebuilds, reuse1.tree_rebuilds), (3, 3), "{}", scenario.name());
    }
}

/// `drift_threshold: 0` forces a rebuild the moment any body leaves its
/// leaf's cell bounds, so the only steps that reuse the tree are zero-drift
/// steps — which reproduce a fresh build's summaries exactly at the
/// insertion levels.  Either way the trajectory must match `Rebuild` bit
/// for bit on every family.
#[test]
fn zero_drift_threshold_is_bit_identical_to_rebuild_on_every_family() {
    for scenario in scenario_registry().iter() {
        let rebuild =
            run_policy(scenario.name(), 128, 2, 3, OptLevel::Redistribute, 11, TreePolicy::Rebuild);
        let reuse0 = run_policy(
            scenario.name(),
            128,
            2,
            3,
            OptLevel::Redistribute,
            11,
            TreePolicy::Reuse { rebuild_every: usize::MAX, drift_threshold: 0.0 },
        );
        assert_bit_identical(&rebuild, &reuse0, scenario.name());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized corners of the same pins: scenario family × insertion-level
    /// opt × machine shape × seed, `Reuse { rebuild_every: 1 }` and
    /// `drift_threshold: 0` both bit-for-bit against `Rebuild`.
    #[test]
    fn reuse_degenerate_policies_match_rebuild(
        family_idx in 0usize..6,
        opt_idx in 0usize..2,
        ranks in 1usize..4,
        nbodies in 64usize..160,
        seed in 1u64..500,
    ) {
        let registry = scenario_registry();
        let names = registry.names();
        let scenario = names[family_idx % names.len()];
        let opt = [OptLevel::Redistribute, OptLevel::CacheLocalTree][opt_idx];
        let rebuild = run_policy(scenario, nbodies, ranks, 2, opt, seed, TreePolicy::Rebuild);
        for policy in [
            TreePolicy::Reuse { rebuild_every: 1, drift_threshold: 0.25 },
            TreePolicy::Reuse { rebuild_every: usize::MAX, drift_threshold: 0.0 },
        ] {
            let reused = run_policy(scenario, nbodies, ranks, 2, opt, seed, policy);
            prop_assert_eq!(rebuild.bodies.len(), reused.bodies.len());
            for (x, y) in rebuild.bodies.iter().zip(&reused.bodies) {
                prop_assert_eq!(x.pos.x.to_bits(), y.pos.x.to_bits(), "{} {:?}", scenario, policy);
                prop_assert_eq!(x.pos.y.to_bits(), y.pos.y.to_bits(), "{} {:?}", scenario, policy);
                prop_assert_eq!(x.pos.z.to_bits(), y.pos.z.to_bits(), "{} {:?}", scenario, policy);
            }
        }
    }
}

/// The pinned long-run accuracy bound: a 16-step Plummer trajectory on the
/// incremental path (rebuilding only every 4th step) must keep its final
/// accelerations within a few percent of exact direct summation — the
/// reused tree's summaries are exact by construction, so only the bounded
/// spatial staleness of the cell partition may cost accuracy.
#[test]
fn incremental_path_holds_acceleration_error_on_a_long_plummer_run() {
    let policy = TreePolicy::Reuse { rebuild_every: 4, drift_threshold: 0.35 };
    let result = run_policy("plummer", 384, 3, 16, OptLevel::CacheLocalTree, 42, policy);
    assert_eq!(result.bodies.len(), 384);
    assert!(result.bodies.iter().all(|b| b.pos.is_finite() && b.vel.is_finite()));

    // The stored accelerations belong to the positions *before* the final
    // advance; roll the positions back one kick to rebuild the reference.
    let dt = scenario_registry().get("plummer").unwrap().recommended_config().dt;
    let rolled_back: Vec<Body> = result
        .bodies
        .iter()
        .map(|b| {
            let mut prev = *b;
            prev.pos -= prev.vel * dt;
            prev
        })
        .collect();
    let eps = scenario_registry().get("plummer").unwrap().recommended_config().eps;
    let reference = nbody::direct::compute_forces(&rolled_back, eps);
    let mean_err = result
        .bodies
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a.acc - b.acc).norm() / b.acc.norm().max(1e-12))
        .sum::<f64>()
        / result.bodies.len() as f64;
    assert!(mean_err < 0.06, "incremental-path acceleration error too large: {mean_err}");
}

/// The point of the subsystem: on a long trajectory, reusing the tree must
/// beat rebuilding it every step on the tree-building work.  In CI mode the
/// assertion uses the deterministic lock counter (per-step global insertion
/// re-acquires a lock per body, the incremental path only locks for the
/// drifted ones); locally the simulated phase times are asserted as well.
#[test]
fn reuse_beats_per_step_rebuild_on_long_trajectories() {
    for scenario in ["plummer", "king"] {
        let rebuild =
            run_policy(scenario, 1024, 2, 8, OptLevel::CacheLocalTree, 3, TreePolicy::Rebuild);
        let reuse = run_policy(
            scenario,
            1024,
            2,
            8,
            OptLevel::CacheLocalTree,
            3,
            TreePolicy::Reuse {
                rebuild_every: TreePolicy::DEFAULT_REBUILD_EVERY,
                drift_threshold: TreePolicy::DEFAULT_DRIFT_THRESHOLD,
            },
        );
        // The run says so itself: one build in eight steps, against eight.
        assert_eq!((rebuild.tree_rebuilds, reuse.tree_rebuilds), (8, 1), "{scenario}");
        let locks = |r: &SimResult| r.total_stats().lock_acquires;
        assert!(
            locks(&reuse) < locks(&rebuild) / 2,
            "{scenario}: the incremental path must lock far less than per-step global insertion \
             ({} vs {})",
            locks(&reuse),
            locks(&rebuild)
        );
        if !common::deterministic_counters_mode() {
            let tree = |r: &SimResult| r.phases.tree + r.phases.cofm;
            assert!(
                tree(&reuse) < tree(&rebuild),
                "{scenario}: reuse must beat rebuild on simulated tree-building time \
                 ({} vs {})",
                tree(&reuse),
                tree(&rebuild)
            );
        }
    }
}

/// The validation bugfix: a library caller whose measurement window can
/// never start must get an error, not a silently garbage phase table.
#[test]
#[should_panic(expected = "measured_steps")]
fn upc_solver_rejects_a_never_starting_measurement_window() {
    let mut cfg = SimConfig::test(64, 2, OptLevel::Subspace);
    cfg.measured_steps = cfg.steps + 1;
    let _ = run_simulation(&cfg);
}

/// Same guard on the direct-summation reference.
#[test]
#[should_panic(expected = "measured_steps")]
fn direct_solver_rejects_a_never_starting_measurement_window() {
    let mut cfg = SimConfig::test(64, 2, OptLevel::Subspace);
    cfg.measured_steps = cfg.steps + 1;
    let bodies = generate(&PlummerConfig::new(cfg.nbodies, cfg.seed));
    let _ = engine::direct::run_simulation_on(&cfg, bodies);
}

/// Same guard on the message-passing comparator, which additionally rejects
/// reuse policies up front through `Backend::supports`.
#[test]
fn mpi_backend_guards_validation_and_tree_policy() {
    let backends = backend_registry();
    let mpi = backends.get("mpi").unwrap();

    let mut bad_window = SimConfig::test(64, 2, OptLevel::Subspace);
    bad_window.measured_steps = bad_window.steps + 1;
    let err = mpi.supports(&bad_window).unwrap_err();
    assert_eq!(err.code, barnes_hut_upc::engine::ConfigError::E_MEASURED_WINDOW, "{err}");
    assert!(err.message.contains("measured_steps"), "{err}");

    let mut reuse = SimConfig::test(64, 2, OptLevel::Subspace);
    reuse.tree_policy = TreePolicy::Adaptive;
    let err = mpi.supports(&reuse).unwrap_err();
    assert_eq!(err.code, barnes_hut_upc::engine::ConfigError::E_UNSUPPORTED, "{err}");
    assert!(err.message.contains("not supported"), "{err}");
    // The comparison driver surfaces the same error before running anything.
    let bodies = generate(&PlummerConfig::new(reuse.nbodies, reuse.seed));
    let err = engine::run_backends(&backends, &["mpi".to_string()], &reuse, &bodies).unwrap_err();
    assert!(err.contains("cannot run this config"), "{err}");
    assert!(err.contains("E_UNSUPPORTED"), "{err}");

    // The upc and direct backends accept the same configuration.
    assert!(backends.get("upc").unwrap().supports(&reuse).is_ok());
    assert!(backends.get("direct").unwrap().supports(&reuse).is_ok());
}
