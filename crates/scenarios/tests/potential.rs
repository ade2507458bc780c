//! The tree estimate behind `Diagnostics::virial_ratio`, held against the
//! exact O(n²) pair sum it replaced: accuracy per family, determinism, the
//! degenerate inputs, and a *count* guard on its cost.

use nbody::{energy, Body, Vec3};
use scenarios::{builtin, estimate_potential, Diagnostics, POTENTIAL_TARGETS};

#[test]
fn virial_ratio_is_within_two_percent_of_the_exact_sum() {
    for scenario in builtin().iter() {
        let eps = scenario.recommended_config().eps;
        for n in [1024, 4096] {
            for seed in [5u64, 77, 40_961] {
                let bodies = scenario.generate(n, seed);
                let what = format!("{} n={n} seed={seed}", scenario.name());

                let exact_w = energy::potential_energy(&bodies, eps);
                let w = estimate_potential(&bodies, eps).energy;
                assert!(((w - exact_w) / exact_w).abs() <= 0.02, "{what}: W {w} vs {exact_w}");

                let exact = 2.0 * energy::kinetic_energy(&bodies) / exact_w.abs();
                let virial = Diagnostics::measure(&bodies, eps).virial_ratio;
                if exact == 0.0 {
                    assert_eq!(virial, 0.0, "{what}: a cold system has virial ratio 0");
                } else {
                    let err = (virial - exact).abs() / exact;
                    assert!(err <= 0.02, "{what}: virial {virial} vs exact {exact} ({err:.4})");
                }
            }
        }
    }
}

#[test]
fn same_bodies_give_the_same_bits() {
    for scenario in builtin().iter() {
        let bodies = scenario.generate(3000, 9);
        let eps = scenario.recommended_config().eps;
        let first = estimate_potential(&bodies, eps);
        assert_eq!(first, estimate_potential(&bodies.clone(), eps), "{}", scenario.name());
        let a = Diagnostics::measure(&bodies, eps).virial_ratio;
        let b = Diagnostics::measure(&bodies, eps).virial_ratio;
        assert_eq!(a.to_bits(), b.to_bits(), "{}", scenario.name());
    }
}

/// `Diagnostics::measure` is public and takes any body slice: hand-built
/// sets often leave every id 0, and none of them may drop out of φ for it.
#[test]
fn body_ids_play_no_part() {
    let bodies = builtin().get("plummer").unwrap().generate(1500, 4);
    let mut unnumbered = bodies.clone();
    for b in &mut unnumbered {
        b.id = 0;
    }
    assert_eq!(estimate_potential(&bodies, 0.05), estimate_potential(&unnumbered, 0.05));
}

#[test]
fn degenerate_inputs_keep_their_conventions() {
    // No pairs, no potential: the ratio is infinite (as `energy::virial_ratio`).
    assert_eq!(estimate_potential(&[], 0.05).energy, 0.0);
    assert!(Diagnostics::measure(&[], 0.05).virial_ratio.is_infinite());
    let one = [Body::new(0, Vec3::new(0.3, 0.1, 0.2), Vec3::new(1.0, 0.0, 0.0), 1.0)];
    assert_eq!(estimate_potential(&one, 0.05).energy, 0.0);
    assert!(Diagnostics::measure(&one, 0.05).virial_ratio.is_infinite());

    // One pair: the walk opens the root and meets the other body itself.
    for scenario in builtin().iter() {
        let two = scenario.generate(2, 3);
        let exact = energy::virial_ratio(&two, 0.05);
        let virial = Diagnostics::measure(&two, 0.05).virial_ratio;
        assert!(virial.is_finite(), "{}", scenario.name());
        assert!((virial - exact).abs() <= 1e-12 * exact.abs(), "{}", scenario.name());
    }

    // Coincident bodies: the tree bottoms out at its depth limit and the
    // leaf's bodies are summed pairwise, softened...
    let coincident: Vec<Body> = (0..5)
        .map(|i| Body::new(i, Vec3::new(0.25, 0.25, 0.25), Vec3::new(0.0, 0.1, 0.0), 0.2))
        .collect();
    let exact = energy::potential_energy(&coincident, 0.05);
    let w = estimate_potential(&coincident, 0.05).energy;
    assert!((w - exact).abs() <= 1e-12 * exact.abs(), "coincident: {w} vs {exact}");
    // ...and unsoftened their potential diverges, which reads as ratio 0.
    assert_eq!(estimate_potential(&coincident, 0.0).energy, f64::NEG_INFINITY);
    assert_eq!(Diagnostics::measure(&coincident, 0.0).virial_ratio, 0.0);

    // Bodies at rest: T = 0, ratio 0.
    let cold = builtin().get("cold-cube").unwrap().generate(300, 1);
    assert_eq!(Diagnostics::measure(&cold, 0.05).virial_ratio, 0.0);
}

/// The O(n²) sum cannot come back unnoticed: at n = 16384 it is 134 million
/// pair evaluations (8192·n), the estimate's walks are allowed 64·n.  A
/// count, not a wall-clock bound, so it holds on any host.
#[test]
fn cost_is_counted_in_pair_evaluations_not_seconds() {
    let n = 16_384;
    for scenario in builtin().iter() {
        let bodies = scenario.generate(n, 13);
        let estimate = estimate_potential(&bodies, scenario.recommended_config().eps);
        assert!(
            estimate.interactions <= 64 * n as u64,
            "{}: {} pair evaluations for n = {n}",
            scenario.name(),
            estimate.interactions
        );
        // Every target's walk meets at least one other body or cell.
        assert!(estimate.interactions >= POTENTIAL_TARGETS as u64);
    }
}
