//! Cross-backend equivalence: every scenario family, pushed through the
//! `upc` and `mpi` backends, must agree with the `direct` (exact
//! ground-truth) backend — the property that makes head-to-head timing
//! comparisons meaningful in the first place.

use barnes_hut_upc::engine;
use barnes_hut_upc::prelude::*;

/// One step, one measured step: every backend computes its accelerations at
/// the *same* (initial) positions, so `result.bodies[i].acc` is directly
/// comparable across backends — the advance that follows moves bodies but
/// never touches the stored accelerations.
fn single_step_cfg(scenario: &dyn Scenario, nbodies: usize, ranks: usize) -> SimConfig {
    let mut cfg = SimConfig::test(nbodies, ranks, OptLevel::Subspace);
    cfg.steps = 1;
    cfg.measured_steps = 1;
    let tuning = scenario.recommended_config();
    cfg.theta = tuning.theta;
    cfg.eps = tuning.eps;
    cfg.dt = tuning.dt;
    cfg
}

fn mean_relative_acc_error(result: &[Body], reference: &[Body]) -> f64 {
    result
        .iter()
        .zip(reference)
        .map(|(a, b)| (a.acc - b.acc).norm() / b.acc.norm().max(1e-12))
        .sum::<f64>()
        / result.len().max(1) as f64
}

#[test]
fn every_scenario_agrees_with_direct_on_every_tree_backend() {
    let scenarios = scenario_registry();
    let backends = backend_registry();
    let direct = backends.get("direct").expect("direct is a builtin backend");
    for scenario in scenarios.iter() {
        let cfg = single_step_cfg(scenario, 128, 3);
        let bodies = scenario.generate(cfg.nbodies, cfg.seed);
        let reference = direct.run(&cfg, bodies.clone());
        assert_eq!(reference.bodies.len(), cfg.nbodies, "{}", scenario.name());

        for backend_name in ["upc", "mpi"] {
            let backend = backends.get(backend_name).expect("builtin backend");
            backend
                .supports(&cfg)
                .unwrap_or_else(|e| panic!("{backend_name} must support the test config: {e}"));
            let result = backend.run(&cfg, bodies.clone());

            // The body sets are id-for-id identical (pre-advance identity:
            // the advance changes positions, never membership or ids).
            assert_eq!(
                result.bodies.len(),
                reference.bodies.len(),
                "{}/{backend_name}",
                scenario.name()
            );
            for (i, (a, b)) in result.bodies.iter().zip(&reference.bodies).enumerate() {
                assert_eq!(a.id, b.id, "{}/{backend_name} body {i}", scenario.name());
                assert_eq!(a.id as usize, i, "{}/{backend_name}", scenario.name());
                assert_eq!(a.mass, b.mass, "{}/{backend_name} body {i}", scenario.name());
            }

            // θ≈1 Barnes-Hut approximates the exact sum to a few percent.
            let err = mean_relative_acc_error(&result.bodies, &reference.bodies);
            assert!(
                err < 0.12,
                "{}/{backend_name}: mean acceleration error vs direct too large: {err}",
                scenario.name()
            );
            assert!(
                result.bodies.iter().all(|b| b.acc.is_finite() && b.pos.is_finite()),
                "{}/{backend_name} produced non-finite state",
                scenario.name()
            );
        }
    }
}

#[test]
fn compare_driver_runs_all_three_backends_on_one_workload() {
    let scenarios = scenario_registry();
    let backends = backend_registry();
    let hernquist = scenarios.get("hernquist").expect("hernquist is builtin");
    let cfg = single_step_cfg(hernquist, 96, 2);
    let bodies = hernquist.generate(cfg.nbodies, cfg.seed);
    let names: Vec<String> = ["upc", "mpi", "direct"].iter().map(|s| s.to_string()).collect();
    let runs = engine::run_backends(&backends, &names, &cfg, &bodies).unwrap();
    assert_eq!(runs.len(), 3);
    for run in &runs {
        assert_eq!(run.result.bodies.len(), 96, "{}", run.name);
        assert!(run.result.total > 0.0, "{}", run.name);
    }
    let table = engine::comparison_table(&runs);
    for name in ["upc", "mpi", "direct"] {
        assert!(table.contains(name), "table must have a {name} column:\n{table}");
    }
    assert!(table.contains("Force Comp."));
    assert!(table.contains("TOTAL"));
}

#[test]
fn mpi_backend_rejects_pseudo_id_collisions_through_the_registry() {
    let backends = backend_registry();
    let mpi = backends.get("mpi").unwrap();
    let mut cfg = SimConfig::test(64, 2, OptLevel::Subspace);
    assert!(mpi.supports(&cfg).is_ok());
    cfg.nbodies = bh_mpi::PSEUDO_ID_BASE as usize + 1;
    let err = mpi.supports(&cfg).unwrap_err();
    assert_eq!(err.code, engine::ConfigError::E_UNSUPPORTED, "{err}");
    assert!(err.message.contains("pseudo-body"), "{err}");
    // The other backends have no such limit.
    assert!(backends.get("upc").unwrap().supports(&cfg).is_ok());
    assert!(backends.get("direct").unwrap().supports(&cfg).is_ok());
}
