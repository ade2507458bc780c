//! Cross-crate tests for the comparison substrates added on top of the
//! paper's ladder: the §5.3.2 shadow-pointer cache, the MuPC-style
//! transparent scalar cache, and the message-passing (MPI-style) solver.
//!
//! The common theme: every variant must compute the same physics, and its
//! performance relationship to the manual optimizations must match what the
//! paper claims (little change for §5.3.2, partial recovery for transparent
//! caching, comparable efficiency for the MPI-style code).

use barnes_hut_upc::prelude::*;

mod common;
use common::deterministic_counters_mode;

const NBODIES: usize = 240;
const RANKS: usize = 3;

fn cfg_with(opt: OptLevel, f: impl FnOnce(&mut SimConfig)) -> SimConfig {
    let mut cfg = SimConfig::test(NBODIES, RANKS, opt);
    cfg.steps = 2;
    cfg.measured_steps = 1;
    f(&mut cfg);
    cfg
}

fn mean_position_difference(a: &[Body], b: &[Body]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x.pos - y.pos).norm()).sum::<f64>() / a.len() as f64
}

#[test]
fn shadow_cache_matches_separate_cache_and_changes_little() {
    // Sorted build: no locks and a deterministic cell affinity, so the two
    // runs walk the same tree and differ only in the cache's load discipline.
    // (Two independently raced insertion builds place cells on different
    // ranks and their remote counts differ by multiples, whatever the flag.)
    let run = |shadow| {
        bh::run_simulation(&cfg_with(OptLevel::CacheLocalTree, |c| {
            c.build = TreeBuild::Sorted;
            c.shadow_cache = shadow;
        }))
    };
    let (separate, shadow) = (run(false), run(true));

    // Same physics.
    let diff = mean_position_difference(&separate.bodies, &shadow.bodies);
    assert!(diff < 1e-3, "shadow-pointer cache changed the physics: {diff}");

    // §5.3.2: "little performance improvement" — the variant does not
    // change global communication: local cells are pointer-cast instead of
    // copied, remote cells are fetched exactly as before.
    assert_eq!(
        shadow.total_stats().remote_gets,
        separate.total_stats().remote_gets,
        "shadow cache must not change remote traffic"
    );
    // The timing form of the same claim: the two cached variants land within
    // a small factor of each other, far closer than the orders of magnitude
    // separating cached from uncached levels.
    let ratio = shadow.phases.force / separate.phases.force.max(1e-12);
    assert!(
        (0.5..=1.5).contains(&ratio),
        "shadow cache force time should be close to the separate-tree cache (ratio {ratio})"
    );
}

#[test]
fn software_scalar_cache_preserves_physics_and_cuts_scalar_traffic() {
    let plain = bh::run_simulation(&cfg_with(OptLevel::Baseline, |_| {}));
    let cached =
        bh::run_simulation(&cfg_with(OptLevel::Baseline, |c| c.software_scalar_cache = true));

    let diff = mean_position_difference(&plain.bodies, &cached.bodies);
    assert!(diff < 1e-3, "transparent caching changed the physics: {diff}");

    let plain_gets = plain.total_stats().remote_gets;
    let cached_gets = cached.total_stats().remote_gets;
    assert!(
        cached_gets < plain_gets,
        "the software cache must remove remote scalar reads ({cached_gets} vs {plain_gets})"
    );
    assert!(cached.total <= plain.total * 1.01, "caching must not slow the baseline down");
}

#[test]
fn software_scalar_cache_does_not_recover_the_manual_ladder() {
    // The paper's scepticism (§8): transparent caching of scalars cannot
    // substitute for the application-level optimizations, because the bulk
    // of the baseline's traffic is fine-grained access to bodies and cells.
    let swcached =
        bh::run_simulation(&cfg_with(OptLevel::Baseline, |c| c.software_scalar_cache = true));
    let manually_optimized = bh::run_simulation(&cfg_with(OptLevel::CacheLocalTree, |_| {}));
    // The counter form, in every mode: the software cache only removes
    // scalar reads, leaving the fine-grained body/cell traffic that caching
    // cells eliminates (observed ~40x apart on this workload).
    let sw = swcached.total_stats().remote_gets;
    let manual = manually_optimized.total_stats().remote_gets;
    assert!(
        sw as f64 > 3.0 * manual as f64,
        "transparent scalar caching ({sw} remote gets) must not approach the §5.3 cell cache ({manual})"
    );
    if deterministic_counters_mode() {
        return;
    }
    assert!(
        swcached.phases.force > 3.0 * manually_optimized.phases.force,
        "transparent scalar caching ({:.4}s) must not come close to the §5.3 cached force phase ({:.4}s)",
        swcached.phases.force,
        manually_optimized.phases.force
    );
}

#[test]
fn software_scalar_cache_recovers_part_of_the_replication_gain() {
    let plain = || bh::run_simulation(&cfg_with(OptLevel::Baseline, |_| {}));
    let swcached =
        || bh::run_simulation(&cfg_with(OptLevel::Baseline, |c| c.software_scalar_cache = true));
    let replicated = || bh::run_simulation(&cfg_with(OptLevel::ReplicateScalars, |_| {}));

    // Ordering claim: baseline ≥ software cache ≥ manual replication (the
    // manual version also avoids the first read per epoch and the cache
    // bookkeeping).  The counter form is deterministic; the timing form
    // carries a few percent of thread-scheduling noise (which rank wins an
    // insertion race decides a cell's affinity, and with it which of a few
    // discrete force-phase maxima the run lands on), so it compares medians
    // of three runs, and is skipped in CI.
    let (p, s, r) = (plain().total_stats(), swcached().total_stats(), replicated().total_stats());
    assert!(s.remote_gets as f64 <= p.remote_gets as f64 * 1.02);
    assert!(r.remote_gets as f64 <= s.remote_gets as f64 * 1.02);
    if deterministic_counters_mode() {
        return;
    }
    let median_force = |run: &dyn Fn() -> SimResult| {
        let mut forces = [run(), run(), run()].map(|result| result.phases.force);
        forces.sort_by(f64::total_cmp);
        forces[1]
    };
    let (plain, swcached, replicated) =
        (median_force(&plain), median_force(&swcached), median_force(&replicated));
    assert!(swcached <= plain * 1.10);
    assert!(replicated <= swcached * 1.10);
}

#[test]
fn mpi_comparator_and_optimized_upc_are_comparably_efficient() {
    // §9: "We suspect that, with all these changes, the UPC code is as
    // efficient as a similar MPI code."  At this scale the two should land
    // within a small factor of each other — and both far below the baseline.
    let cfg = cfg_with(OptLevel::Subspace, |_| {});
    let upc = bh::run_simulation(&cfg);
    let mpi = bh_mpi::run_simulation(&cfg);
    let baseline = bh::run_simulation(&cfg_with(OptLevel::Baseline, |_| {}));

    let ratio = mpi.total / upc.total.max(1e-12);
    assert!(
        (0.2..=5.0).contains(&ratio),
        "optimized UPC ({:.4}s) and MPI-style ({:.4}s) should be comparable (ratio {ratio})",
        upc.total,
        mpi.total
    );
    assert!(mpi.total < baseline.total, "the MPI-style code must beat the naive baseline");
    assert!(upc.total < baseline.total);
}

#[test]
fn mpi_comparator_matches_upc_physics() {
    let cfg = cfg_with(OptLevel::Subspace, |_| {});
    let upc = bh::run_simulation(&cfg);
    let mpi = bh_mpi::run_simulation(&cfg);
    assert_eq!(upc.bodies.len(), mpi.bodies.len());
    let diff = mean_position_difference(&upc.bodies, &mpi.bodies);
    assert!(diff < 1e-2, "the two programming models diverged: mean position difference {diff}");
}

#[test]
fn shadow_cache_composes_with_higher_ladder_levels() {
    // The shadow cache is selectable at the blocking cached levels
    // (cache-local-tree, merged-tree-build); make sure it also runs under
    // the merged tree build without disturbing the results.
    let plain = bh::run_simulation(&cfg_with(OptLevel::MergedTreeBuild, |_| {}));
    let shadow =
        bh::run_simulation(&cfg_with(OptLevel::MergedTreeBuild, |c| c.shadow_cache = true));
    let diff = mean_position_difference(&plain.bodies, &shadow.bodies);
    assert!(diff < 1e-3);
    assert!(shadow.phases.force > 0.0);

    // From async-aggregation up the §5.5 engine builds a copy-discipline
    // cache whatever the flag says, so the flag is a no-op there: same
    // bodies, same counters.  (Sorted build: lock-free, so two runs of one
    // configuration repeat exactly and any difference would be the flag's.)
    let async_cfg = |shadow| {
        cfg_with(OptLevel::AsyncAggregation, |c| {
            c.build = TreeBuild::Sorted;
            c.shadow_cache = shadow;
        })
    };
    let off = bh::run_simulation(&async_cfg(false));
    let on = bh::run_simulation(&async_cfg(true));
    assert!(engine::snap::bodies_bits_equal(&off.bodies, &on.bodies));
    assert_eq!(off.total_stats(), on.total_stats());
}
