//! Property-based tests for the workload-generation subsystem: every
//! registered scenario must satisfy the shared conventions (determinism,
//! normalization, conservation) for arbitrary sizes and seeds, and each
//! family must keep its characteristic physical shape.

use proptest::prelude::*;
use scenarios::{builtin, Diagnostics};

/// Virial-ratio band expected from each family at moderate n.
///
/// Equilibrium spheres sit near 1, the approximate rotation-curve disk in a
/// generous band around 1, the cold cube at exactly 0, and the merger (two
/// internally virialized systems plus orbital energy) between the two.
fn virial_band(name: &str) -> (f64, f64) {
    match name {
        "plummer" => (0.5, 1.6),
        "king" | "hernquist" => (0.6, 1.4),
        "exp-disk" => (0.4, 1.7),
        "cold-cube" => (0.0, 1e-9),
        // Two internally virialized spheres plus the orbital kinetic energy
        // of the encounter: the composite ratio sits near 2.
        "merger" => (0.3, 2.5),
        other => panic!("no virial band registered for scenario {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_scenario_is_deterministic_and_normalized(
        n in 64usize..256,
        seed in 0u64..1_000_000,
    ) {
        for scenario in builtin().iter() {
            let name = scenario.name();
            let bodies = scenario.generate(n, seed);
            prop_assert_eq!(bodies.len(), n, "{} must generate n bodies", name);

            // Bit-identical replay from the same (n, seed).
            let replay = scenario.generate(n, seed);
            prop_assert_eq!(&bodies, &replay, "{} must be deterministic", name);

            // Ids are 0..n in order (the solvers index the body table by id).
            for (i, b) in bodies.iter().enumerate() {
                prop_assert_eq!(b.id as usize, i, "{} ids must be 0..n", name);
                prop_assert!(b.pos.is_finite() && b.vel.is_finite(), "{} non-finite body", name);
                prop_assert!(b.mass > 0.0, "{} non-positive mass", name);
            }

            let d = scenario.diagnostics(&bodies);
            prop_assert!((d.total_mass - 1.0).abs() < 1e-9,
                "{} total mass {} != 1", name, d.total_mass);
            prop_assert!(d.com_offset < 1e-9,
                "{} centre of mass off origin by {}", name, d.com_offset);
            prop_assert!(d.momentum < 1e-9,
                "{} net momentum {}", name, d.momentum);
        }
    }

    #[test]
    fn different_seeds_give_different_workloads(n in 64usize..200, seed in 0u64..100_000) {
        for scenario in builtin().iter() {
            let a = scenario.generate(n, seed);
            let b = scenario.generate(n, seed.wrapping_add(1));
            prop_assert!(a != b, "{} ignored its seed", scenario.name());
        }
    }

    #[test]
    fn virial_ratio_matches_each_family(seed in 0u64..10_000) {
        // Moderate n keeps generation fast while staying well inside each
        // band's sampling noise.
        let n = 512;
        for scenario in builtin().iter() {
            let bodies = scenario.generate(n, seed);
            let d = Diagnostics::measure(&bodies, scenario.recommended_config().eps);
            let (lo, hi) = virial_band(scenario.name());
            prop_assert!(
                d.virial_ratio >= lo && d.virial_ratio <= hi,
                "{} virial ratio {} outside [{}, {}]",
                scenario.name(), d.virial_ratio, lo, hi
            );
        }
    }
}

#[test]
fn scenario_shapes_are_distinguishable() {
    // The families exist to stress different solver paths; make sure the
    // structural signatures that drive those paths actually differ.
    let registry = builtin();
    let n = 2_000;
    let seed = 424_242;
    let diag = |name: &str| {
        let s = registry.get(name).unwrap();
        Diagnostics::measure(&s.generate(n, seed), s.recommended_config().eps)
    };

    let plummer = diag("plummer");
    let hernquist = diag("hernquist");
    let disk = diag("exp-disk");
    let merger = diag("merger");

    // The cusp concentrates mass far more than the cored profiles.
    assert!(hernquist.concentration > 2.0 * plummer.concentration);
    // King's tidal edge is a hard cutoff: its outermost body sits at the
    // (rescaled) tidal radius, while Plummer's halo tail reaches several
    // times further out.
    let max_r = |name: &str| {
        registry
            .get(name)
            .unwrap()
            .generate(n, seed)
            .iter()
            .map(|b| b.pos.norm())
            .fold(0.0f64, f64::max)
    };
    assert!(max_r("king") < 0.5 * max_r("plummer"));
    // Only the disk carries macroscopic angular momentum.
    assert!(disk.angular_momentum > 10.0 * plummer.angular_momentum.max(1e-6));
    // Only the merger is hollow at its centre of mass.
    assert!(merger.r10 > 3.0 * plummer.r10);
}

#[test]
fn zero_and_tiny_sizes_are_safe() {
    for scenario in builtin().iter() {
        assert!(scenario.generate(0, 1).is_empty(), "{}", scenario.name());
        for n in 1..4 {
            let bodies = scenario.generate(n, 7);
            assert_eq!(bodies.len(), n, "{} n={n}", scenario.name());
            assert!(bodies.iter().all(|b| b.pos.is_finite() && b.vel.is_finite()));
        }
    }
}
