//! Equivalence tests for the leaf-coalesced (SoA-batched) force kernel.
//!
//! The batched walk (`CacheTree::walk`) gathers each opened cell's body
//! leaves into contiguous position/mass arrays and streams them; the
//! retained per-body walk (`CacheTree::walk_per_body`) reads one node record
//! per leaf.  Because both evaluate the identical floating-point expression
//! in the identical order, they must agree **bit for bit** — on every
//! scenario family, every machine shape and every θ.  The interaction
//! counts they charge must also be identical (the deterministic counter the
//! bench baseline gates on), pinned here for a fixed configuration.

use barnes_hut_upc::prelude::*;
use bh::cache::CacheTree;
use bh::shared::{BhShared, RankState};
use bh::treebuild::{allocate_root, bounding_box_phase, center_of_mass_phase, insert_owned_bodies};
use proptest::prelude::*;

/// Builds the shared tree over `bodies` and, on every rank, walks every
/// owned body with both kernels, returning
/// `(id, batched, per_body, shadow_batched)` triples of raw results.
#[allow(clippy::type_complexity)]
fn walk_both(
    cfg: &SimConfig,
    bodies: Vec<Body>,
    theta: f64,
) -> Vec<(u32, (Vec3, f64, u32), (Vec3, f64, u32), (Vec3, f64, u32))> {
    let shared = BhShared::with_bodies(cfg, bodies);
    let rt = Runtime::new(cfg.machine.clone());
    let shared_ref = &shared;
    let report = rt.run(|ctx| {
        let mut st = RankState::new(ctx, shared_ref, cfg);
        let (center, rsize) = bounding_box_phase(ctx, shared_ref, &mut st, cfg);
        allocate_root(ctx, shared_ref, center, rsize);
        ctx.barrier();
        insert_owned_bodies(ctx, shared_ref, &mut st, cfg);
        ctx.barrier();
        center_of_mass_phase(ctx, shared_ref, &mut st, cfg);
        ctx.barrier();
        let mut batched = CacheTree::new(ctx, shared_ref, false);
        let mut per_body = CacheTree::new(ctx, shared_ref, false);
        let mut shadow = CacheTree::new(ctx, shared_ref, true);
        st.my_ids
            .iter()
            .map(|&id| {
                let pos = shared_ref.bodytab.read_raw(id as usize).pos;
                let a = batched.walk(ctx, shared_ref, pos, id, theta, cfg.eps);
                let b = per_body.walk_per_body(ctx, shared_ref, pos, id, theta, cfg.eps);
                let s = shadow.walk(ctx, shared_ref, pos, id, theta, cfg.eps);
                (
                    id,
                    (a.acc, a.phi, a.interactions),
                    (b.acc, b.phi, b.interactions),
                    (s.acc, s.phi, s.interactions),
                )
            })
            .collect::<Vec<_>>()
    });
    report.ranks.into_iter().flat_map(|r| r.result).collect()
}

#[test]
fn batched_walk_is_bit_identical_on_every_scenario_family() {
    for scenario in scenario_registry().iter() {
        let mut cfg = SimConfig::test(256, 3, OptLevel::CacheLocalTree);
        let tuning = scenario.recommended_config();
        cfg.theta = tuning.theta;
        cfg.eps = tuning.eps;
        let bodies = scenario.generate(cfg.nbodies, cfg.seed);
        let results = walk_both(&cfg, bodies, cfg.theta);
        assert_eq!(results.len(), 256, "{}", scenario.name());
        for (id, batched, per_body, shadow) in results {
            assert_eq!(
                batched,
                per_body,
                "{}: batched and per-body walks diverged on body {id}",
                scenario.name()
            );
            assert_eq!(
                batched,
                shadow,
                "{}: batched and shadow walks diverged on body {id}",
                scenario.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: for arbitrary workload seeds, sizes, rank counts and
    /// opening angles, the SoA-batched accelerations match the per-body
    /// walk bit for bit.
    #[test]
    fn batched_walk_matches_per_body_walk_bit_for_bit(
        seed in 0u64..1_000_000,
        nbodies in 16usize..220,
        ranks in 1usize..4,
        theta in 0.3f64..1.4,
        family in 0usize..6,
    ) {
        let registry = scenario_registry();
        let names = registry.names();
        let scenario = registry.get(names[family % names.len()]).unwrap();
        let mut cfg = SimConfig::test(nbodies, ranks, OptLevel::CacheLocalTree);
        cfg.seed = seed;
        let bodies = scenario.generate(nbodies, seed);
        for (id, batched, per_body, shadow) in walk_both(&cfg, bodies, theta) {
            prop_assert_eq!(batched, per_body, "body {} diverged", id);
            prop_assert_eq!(batched, shadow, "shadow walk diverged on body {}", id);
        }
    }
}

#[test]
fn interaction_counts_are_pinned_for_the_reference_configuration() {
    // One rank builds the tree by sequential insertion, so the count is a
    // deterministic function of (workload, seed, theta) — a drift here
    // means a kernel change altered *what* is evaluated, not just how
    // fast.  The pinned value was recorded when the leaf-coalesced kernel
    // landed; both engines charged it then and must keep charging it.
    let cfg = SimConfig::test(200, 1, OptLevel::CacheLocalTree);
    let bodies = generate(&PlummerConfig::new(cfg.nbodies, cfg.seed));
    let results = walk_both(&cfg, bodies, cfg.theta);
    let total_batched: u64 = results.iter().map(|(_, a, _, _)| a.2 as u64).sum();
    let total_per_body: u64 = results.iter().map(|(_, _, b, _)| b.2 as u64).sum();
    assert_eq!(total_batched, total_per_body, "the two kernels must charge identical counts");
    assert_eq!(
        total_batched, PINNED_INTERACTIONS,
        "interaction count drifted from the pinned reference"
    );
}

/// Total interactions of the 200-body Plummer reference walk (seed 1234567,
/// θ = 1, one rank).  See
/// [`interaction_counts_are_pinned_for_the_reference_configuration`].
const PINNED_INTERACTIONS: u64 = 14_846;
