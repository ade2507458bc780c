//! Integration tests for the *performance shape* of the optimization ladder.
//!
//! The paper's headline claims, re-checked here on scaled-down workloads in
//! simulated time:
//!
//! * the naive baseline gets dramatically slower when ranks are added
//!   (Table 2),
//! * replicating scalars, redistributing bodies and caching cells each cut
//!   the relevant phases (Tables 3–5),
//! * the merged tree build cuts tree-building time (Table 6),
//! * non-blocking aggregation cuts the force phase further at scale
//!   (Table 7), and its aggregation degree n1 = n2 = n3 saturates by 4 (§5.5),
//! * the fully optimized code *speeds up* with ranks instead of slowing down
//!   (Figure 13), and the cumulative improvement over the baseline is large
//!   (Figure 5).

use barnes_hut_upc::prelude::*;
use pgas::Machine;

mod common;
use common::deterministic_counters_mode;

const NBODIES: usize = 400;

fn run(opt: OptLevel, ranks: usize, nbodies: usize) -> SimResult {
    let mut cfg = SimConfig::new(nbodies, Machine::process_per_node(ranks), opt);
    cfg.steps = 2;
    cfg.measured_steps = 1;
    bh::run_simulation(&cfg)
}

#[test]
fn baseline_slows_down_with_more_ranks() {
    let single = run(OptLevel::Baseline, 1, NBODIES);
    let eight = run(OptLevel::Baseline, 8, NBODIES);
    if deterministic_counters_mode() {
        // The mechanism behind the slowdown, in deterministic counters: one
        // rank touches everything locally, eight ranks turn the same work
        // into a flood of fine-grained remote operations.
        let single_remote = single.total_stats().remote_ops();
        let eight_remote = eight.total_stats().remote_ops();
        assert_eq!(single_remote, 0, "one rank must not perform remote operations");
        assert!(
            eight_remote as usize > 100 * NBODIES,
            "the baseline on 8 ranks must drown in fine-grained remote ops (got {eight_remote})"
        );
        return;
    }
    assert!(
        eight.total > single.total,
        "the naive baseline must be slower on 8 ranks ({:.3}s) than on 1 ({:.3}s)",
        eight.total,
        single.total
    );
}

#[test]
fn replicating_scalars_cuts_baseline_force_time() {
    let baseline = run(OptLevel::Baseline, 8, NBODIES);
    let replicated = run(OptLevel::ReplicateScalars, 8, NBODIES);
    let (base, repl) = (baseline.total_stats(), replicated.total_stats());
    // Both levels build the tree by global insertion under locks, and the
    // simulated time of that phase depends on the real thread interleaving
    // (a descheduled lock holder turns into billed retries on its peers:
    // the ratio of two runs ranged 0.60–1.27), so "replication must not
    // inflate tree building" is asserted on what the phase costs in the
    // model — its lock traffic, which one run repeats to about a percent.
    assert!(
        (repl.lock_acquires as f64) < 1.25 * base.lock_acquires as f64,
        "replicating scalars should not inflate tree building ({} -> {} lock acquisitions)",
        base.lock_acquires,
        repl.lock_acquires
    );
    if deterministic_counters_mode() {
        // Table 3's mechanism in counters: replication removes the remote
        // tol/eps reads the force walk performs per interaction (observed
        // ~450k -> ~310k remote gets on this workload), and changes no
        // physics (identical interaction counts).
        assert!(
            base.remote_gets as f64 > 1.2 * repl.remote_gets as f64,
            "replicating scalars must remove remote scalar reads ({} vs {})",
            base.remote_gets,
            repl.remote_gets
        );
        assert_eq!(
            base.interactions, repl.interactions,
            "replication must not change what is evaluated"
        );
        return;
    }
    assert!(
        replicated.phases.force < 0.7 * baseline.phases.force,
        "replicating tol/eps should cut the force phase substantially ({:.3}s -> {:.3}s)",
        baseline.phases.force,
        replicated.phases.force
    );
}

#[test]
fn redistribution_eliminates_cofm_and_advance_costs() {
    let replicated = run(OptLevel::ReplicateScalars, 8, NBODIES);
    let redistributed = run(OptLevel::Redistribute, 8, NBODIES);
    // The centre-of-mass phase runs the SPLASH-2 done-flag protocol: a cell
    // whose children are not summarized yet is retried, every retry bills its
    // reads, and how many there are is up to the host scheduler (the phase
    // ranged 0.15–4.5 ms on one configuration).  So its claim is asserted on
    // the mechanism: before redistribution a body lives wherever the block
    // distribution put it, and the c-of-m, write-back and advance phases
    // reach it with `FINE_GRAINED_FIELDS` (3) remote gets per read and puts per
    // write; after it every one of those is local.  The puts show it (the
    // gets carry the retries' reads): what is left of them is the c-of-m
    // phase's remote cell summaries, one per cell however often it was
    // retried (observed ~4560 -> ~370 puts on this workload).
    let (repl, redis) = (replicated.total_stats(), redistributed.total_stats());
    assert!(
        5 * redis.remote_puts < repl.remote_puts,
        "redistribution should make every body write local ({} -> {} remote puts)",
        repl.remote_puts,
        redis.remote_puts
    );
    // Body advancement has no retries and no locks: its time repeats.
    assert!(
        redistributed.phases.advance < 0.5 * replicated.phases.advance,
        "redistribution should nearly eliminate body advancement ({:.4}s -> {:.4}s)",
        replicated.phases.advance,
        redistributed.phases.advance
    );
}

#[test]
fn caching_cells_slashes_force_time() {
    let uncached = run(OptLevel::Redistribute, 8, NBODIES);
    let cached = run(OptLevel::CacheLocalTree, 8, NBODIES);
    if deterministic_counters_mode() {
        // The 99% force-time cut of Table 5 is a traffic cut: every remote
        // cell is fetched once per rank per step instead of once per visit
        // (observed ~300k -> ~11k remote gets on this workload).
        let uncached_gets = uncached.total_stats().remote_gets;
        let cached_gets = cached.total_stats().remote_gets;
        assert!(
            (cached_gets as f64) < 0.2 * uncached_gets as f64,
            "demand-driven caching must slash remote reads ({uncached_gets} -> {cached_gets})"
        );
        return;
    }
    assert!(
        cached.phases.force < 0.15 * uncached.phases.force,
        "demand-driven caching should cut force time by an order of magnitude ({:.3}s -> {:.3}s)",
        uncached.phases.force,
        cached.phases.force
    );
}

#[test]
fn merged_tree_build_cuts_tree_time() {
    let locked = run(OptLevel::CacheLocalTree, 8, NBODIES);
    let merged = run(OptLevel::MergedTreeBuild, 8, NBODIES);
    if deterministic_counters_mode() {
        // §5.4's mechanism: local trees are built without global locks, so
        // the lock traffic of the insertion-under-locks build disappears
        // (observed ~1250 -> ~500 acquisitions on this workload).
        let locked_locks = locked.total_stats().lock_acquires;
        let merged_locks = merged.total_stats().lock_acquires;
        assert!(
            merged_locks < locked_locks,
            "merged local trees must acquire fewer global locks ({locked_locks} -> {merged_locks})"
        );
        return;
    }
    let locked_build = locked.phases.tree + locked.phases.cofm;
    let merged_build = merged.phases.tree + merged.phases.cofm;
    assert!(
        merged_build < locked_build,
        "merged local trees should beat global insertion under locks ({locked_build:.3}s vs {merged_build:.3}s)"
    );
}

#[test]
fn async_aggregation_cuts_force_time_at_scale() {
    let blocking = run(OptLevel::MergedTreeBuild, 16, NBODIES);
    let asynchronous = run(OptLevel::AsyncAggregation, 16, NBODIES);
    if deterministic_counters_mode() {
        // §5.5's mechanism: cache misses are batched into aggregated vlist
        // gathers, so messages drop while the interactions are unchanged.
        let async_stats = asynchronous.total_stats();
        let blocking_stats = blocking.total_stats();
        assert!(async_stats.vlist_requests > 0, "the async engine must issue aggregated gathers");
        assert!(
            async_stats.messages < blocking_stats.messages,
            "aggregation must reduce bulk message count ({} vs {})",
            async_stats.messages,
            blocking_stats.messages
        );
        assert_eq!(async_stats.interactions, blocking_stats.interactions);
        return;
    }
    assert!(
        asynchronous.phases.force < blocking.phases.force,
        "aggregated non-blocking gathers should cut the force phase ({:.3}s -> {:.3}s)",
        blocking.phases.force,
        asynchronous.phases.force
    );
}

/// §5.5: the results "are not very sensitive to [n1, n2, n3] … good even
/// with n1 = n2 = n3 = 1".  On the sorted build (lock-free, so every row
/// repeats bit for bit) the force phase saturates by n1 = n2 = n3 = 4:
/// 4 is within 2 % of 16 at 4 ranks (0.038326 vs 0.037674 s) and at 16
/// ranks (0.009972 vs 0.009776 s).  What does not reproduce is the n = 1
/// half of the claim: it costs +12 % at 4 ranks (0.042236 s) and +32 % at
/// 16 ranks (0.012904 s), and the raced insertion build shows the same shape
/// (+22 % at 16 ranks).  That is recorded here, not asserted, and no
/// constant was tuned to move it.  The lock-free rows need no
/// `deterministic_counters_mode()` branch.
#[test]
fn aggregation_degree_saturates_by_four() {
    let force = |ranks: usize, degree: usize| {
        let mut cfg =
            SimConfig::new(4096, Machine::process_per_node(ranks), OptLevel::AsyncAggregation);
        cfg.build = TreeBuild::Sorted;
        cfg.steps = 2;
        cfg.measured_steps = 1;
        (cfg.n1, cfg.n2, cfg.n3) = (degree, degree, degree);
        bh::run_simulation(&cfg).phases.force
    };
    for ranks in [4, 16] {
        let [one, four, sixteen] = [1, 4, 16].map(|degree| force(ranks, degree));
        assert!(
            four <= 1.05 * sixteen,
            "{ranks} ranks: n1 = n2 = n3 = 4 should be within 5 % of 16 (force {one:.6} / \
             {four:.6} / {sixteen:.6} s at 1 / 4 / 16)"
        );
    }
}

#[test]
fn optimized_code_speeds_up_with_ranks() {
    // Figure 13: the fully optimized code shows strong-scaling speed-up.
    // The subspace rung takes no lock at either size, so nothing races and
    // its simulated clock repeats exactly: both forms hold in every mode.
    let one = run(OptLevel::Subspace, 1, 600);
    let eight = run(OptLevel::Subspace, 8, 600);
    for r in [&one, &eight] {
        assert_eq!(r.total_stats().lock_acquires, 0);
    }
    // Strong scaling in counters: the costzones partitioner spreads the
    // interaction work, so the busiest of 8 ranks carries a small fraction
    // of the single rank's load (observed ~6x less).
    let max_inter = |r: &SimResult| r.ranks.iter().map(|o| o.stats.interactions).max().unwrap();
    let m1 = max_inter(&one);
    let m8 = max_inter(&eight);
    assert!(
        (m8 as f64) < 0.5 * m1 as f64,
        "8 ranks must spread the interaction work ({m1} -> busiest rank {m8})"
    );
    let speedup = one.total / eight.total;
    // The exact factor depends on the Plummer sample (and therefore on the
    // RNG stream feeding the generator); on this workload it is 2.55x.  The
    // claim under test is strong scaling — clearly faster on 8
    // ranks — not a particular constant.
    assert!(
        speedup > 1.6,
        "the optimized code should speed up with ranks (got {speedup:.2}x on 8 ranks)"
    );
}

#[test]
fn cumulative_improvement_over_baseline_is_large() {
    // Figure 5: the cumulative improvement at a non-trivial rank count is
    // orders of magnitude (the paper reports >1600x at 112 ranks on the full
    // problem; the scaled-down workload still shows a very large factor).
    let baseline = run(OptLevel::Baseline, 8, NBODIES);
    let optimized = run(OptLevel::Subspace, 8, NBODIES);
    if deterministic_counters_mode() {
        // The cumulative ladder in counters: identical physics (same
        // interaction count), two orders of magnitude less fine-grained
        // remote traffic (observed ~455k -> ~5k on this workload).
        let base = baseline.total_stats();
        let opt = optimized.total_stats();
        assert_eq!(base.interactions, opt.interactions, "the ladder must not change the physics");
        assert!(
            (opt.remote_ops() as f64) < base.remote_ops() as f64 / 30.0,
            "the full ladder must eliminate almost all remote traffic ({} -> {})",
            base.remote_ops(),
            opt.remote_ops()
        );
        return;
    }
    let improvement = baseline.total / optimized.total;
    assert!(
        improvement > 30.0,
        "cumulative optimizations should improve the total time by a large factor (got {improvement:.1}x)"
    );
}

#[test]
fn pthreads_runtime_is_slower_than_process_mode() {
    // Table 8 vs Table 9: one process per node beats one pthread per node.
    let mut cfg_proc = SimConfig::new(NBODIES, Machine::process_per_node(4), OptLevel::Subspace);
    cfg_proc.steps = 2;
    cfg_proc.measured_steps = 1;
    let mut cfg_pth = SimConfig::new(NBODIES, Machine::pthreads_per_node(4, 1), OptLevel::Subspace);
    cfg_pth.steps = 2;
    cfg_pth.measured_steps = 1;
    let proc = bh::run_simulation(&cfg_proc);
    let pth = bh::run_simulation(&cfg_pth);
    assert!(
        pth.total > 1.2 * proc.total,
        "the pthreads runtime overhead should show up ({:.3}s vs {:.3}s)",
        pth.total,
        proc.total
    );
}

#[test]
fn weak_scaling_tree_build_scales_with_vector_reduction() {
    // Figure 10 vs Figure 11: without vector reduction the subspace
    // construction cost explodes with rank count; with it, it stays modest.
    let ranks = 16;
    let mut with_vec =
        SimConfig::new(ranks * 40, Machine::process_per_node(ranks), OptLevel::Subspace);
    with_vec.steps = 2;
    with_vec.measured_steps = 1;
    let mut without_vec = with_vec.clone();
    without_vec.vector_reduction = false;
    let a = bh::run_simulation(&with_vec);
    let b = bh::run_simulation(&without_vec);
    assert!(
        b.phases.partition > 2.0 * a.phases.partition,
        "per-subspace scalar reductions should be much more expensive ({:.4}s vs {:.4}s)",
        b.phases.partition,
        a.phases.partition
    );
}
