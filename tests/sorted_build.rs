//! Force-equivalence tests for the sorted (Morton sample-sort) tree build.
//!
//! The sorted build's contract is not "close enough": because it creates a
//! cell at exactly the regions the insertion build does, derives child
//! geometry through the same `child_geometry` arithmetic and folds summaries
//! in the same octant order, the tree it hands the force walk is
//! *bit-identical* to the insertion tree.  These tests pin that contract
//! end-to-end — final positions and velocities compared via `to_bits`, no
//! epsilon — across all six scenario families, both tree-reuse policies and
//! both force-walk modes.  The per-phase unit tests in `bh::sortbuild` pin
//! the same claim at the tree level (node-by-node field equality) and the
//! zero-lock property of the build phase.

use barnes_hut_upc::bh::cellnode::{CellNode, COMPACT_NODE_BYTES};
use barnes_hut_upc::prelude::*;
use proptest::prelude::*;

/// Runs one configuration under both tree builds and asserts the final body
/// states are bit-for-bit identical.
fn assert_builds_agree_bitwise(
    family: &str,
    nbodies: usize,
    ranks: usize,
    seed: u64,
    opt: OptLevel,
    policy: TreePolicy,
    walk: WalkMode,
) {
    let scenario = scenarios::builtin();
    let scenario = scenario.get(family).expect("builtin family");
    let bodies = scenario.generate(nbodies, seed);

    let mut cfg = SimConfig::test(nbodies, ranks, opt);
    cfg.seed = seed;
    cfg.steps = 3;
    cfg.measured_steps = 1;
    cfg.tree_policy = policy;
    cfg.walk = walk;

    cfg.build = TreeBuild::Insertion;
    let insertion = bh::run_simulation_on(&cfg, bodies.clone());
    cfg.build = TreeBuild::Sorted;
    let sorted = bh::run_simulation_on(&cfg, bodies);

    assert_eq!(insertion.bodies.len(), sorted.bodies.len());
    for (a, b) in insertion.bodies.iter().zip(&sorted.bodies) {
        assert_eq!(a.id, b.id, "{family}: body order diverged");
        for (pa, pb, axis) in [
            (a.pos.x, b.pos.x, "pos.x"),
            (a.pos.y, b.pos.y, "pos.y"),
            (a.pos.z, b.pos.z, "pos.z"),
            (a.vel.x, b.vel.x, "vel.x"),
            (a.vel.y, b.vel.y, "vel.y"),
            (a.vel.z, b.vel.z, "vel.z"),
        ] {
            assert_eq!(
                pa.to_bits(),
                pb.to_bits(),
                "{family}/{}/{}/{} body {} {axis}: insertion {pa:e} vs sorted {pb:e}",
                opt.name(),
                policy.name(),
                walk.name(),
                a.id,
            );
        }
    }
    // Same nodes, different billed record: both builds allocate exactly the
    // same cells and leaves, so their peak footprints differ only by the
    // record size each bills.
    assert!(sorted.tree_bytes > 0, "{family}: sorted build must report tree_bytes");
    assert_eq!(
        sorted.tree_bytes * std::mem::size_of::<CellNode>() as u64,
        insertion.tree_bytes * COMPACT_NODE_BYTES as u64,
        "{family}: sorted {} B vs insertion {} B is not the record-size ratio",
        sorted.tree_bytes,
        insertion.tree_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The headline property: sorted and insertion builds produce
    /// bit-for-bit identical trajectories on every scenario family, under
    /// per-step rebuild and under tree reuse, with either walk mode.
    #[test]
    fn sorted_build_is_bitwise_equivalent_across_families(
        family_idx in 0usize..6,
        nbodies in 96usize..288,
        ranks in 1usize..5,
        seed in 1u64..1_000,
        reuse in any::<bool>(),
        group_walk in any::<bool>(),
    ) {
        let policy = if reuse {
            TreePolicy::Reuse { rebuild_every: 2, drift_threshold: 0.25 }
        } else {
            TreePolicy::Rebuild
        };
        // The group walk needs a caching level; the per-body case also
        // exercises the lowest level the sorted build supports.
        let (opt, walk) = if group_walk {
            (OptLevel::CacheLocalTree, WalkMode::Group)
        } else {
            (OptLevel::Redistribute, WalkMode::PerBody)
        };
        assert_builds_agree_bitwise(
            scenarios::BUILTIN_NAMES[family_idx],
            nbodies,
            ranks,
            seed,
            opt,
            policy,
            walk,
        );
    }
}

/// A deterministic sweep guaranteeing every family is exercised on every
/// run (the proptest above samples; this one enumerates), alternating the
/// policy and walk axes so each combination appears.
#[test]
fn every_family_agrees_bitwise_under_both_policies_and_walks() {
    for (i, family) in scenarios::BUILTIN_NAMES.into_iter().enumerate() {
        let policy = if i % 2 == 0 {
            TreePolicy::Rebuild
        } else {
            TreePolicy::Reuse { rebuild_every: 2, drift_threshold: 0.25 }
        };
        // Bit-for-bit equivalence is against the global-insertion build;
        // the merged-local-tree levels fold summaries in merge order and
        // are only statistically equivalent, so the sweep stays on the
        // lock-based insertion levels the sorted build replaces.
        let (opt, walk) = if i % 3 == 0 {
            (OptLevel::CacheLocalTree, WalkMode::Group)
        } else {
            (OptLevel::Redistribute, WalkMode::PerBody)
        };
        assert_builds_agree_bitwise(family, 192, 3, 7 + i as u64, opt, policy, walk);
    }
}
