//! The paper's claims (`bh_bench::claims`) at a toy scale: one test per
//! asserted row, named by its id, over the runs `tables` makes for the
//! experiments those rows read.  Every compared check is asserted, the
//! `raced` ones unless `deterministic_counters_mode()`; a failing test lists
//! every failing check of its row.

use bh_bench::claims::CLAIMS;
use bh_bench::experiments::{self, Experiment, Runs, EXPERIMENTS};
use bh_bench::Scale;
use std::sync::OnceLock;

mod common;
use common::deterministic_counters_mode;

/// n = 400 on 1, 4, 8 and 16 ranks, 2 steps with 1 measured; Figs. 10/11 on
/// 16 single-thread pthreads nodes of 40 bodies each.
fn toy() -> Scale {
    Scale {
        bodies: 400,
        weak_bodies_per_thread: 40,
        strong_threads: vec![1, 4, 8, 16],
        weak_threads: vec![16],
        threads_per_node: 1,
        steps: 2,
        measured_steps: 1,
        seed: engine::DEFAULT_SEED,
    }
}

/// The toy-scale runs of every experiment an asserted row reads.
fn runs() -> &'static (Scale, Runs) {
    static RUNS: OnceLock<(Scale, Runs)> = OnceLock::new();
    RUNS.get_or_init(|| {
        let scale = toy();
        let read =
            |e: &&Experiment| CLAIMS.iter().any(|c| c.asserted() && c.reads.contains(&e.name));
        let read: Vec<&Experiment> = EXPERIMENTS.iter().filter(read).collect();
        let mut runs = Runs::default();
        runs.add(&experiments::plan(&read, &scale).expect("the toy scale is valid"), None);
        (scale, runs)
    })
}

fn check(id: &str) {
    let claim = CLAIMS.iter().find(|c| c.id == id).expect("a row of bh_bench::claims");
    let (scale, runs) = runs();
    let failures = claim.failures(scale, runs, !deterministic_counters_mode());
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

macro_rules! asserted_rows {
    ($($id:ident)*) => {
        $(#[test]
        fn $id() {
            check(stringify!($id));
        })*

        /// The ids tested above, in registry order.
        const TESTED: &[&str] = &[$(stringify!($id)),*];
    };
}

asserted_rows! {
    baseline_slows_down_with_more_ranks
    replicating_scalars_cuts_baseline_force_time
    redistribution_eliminates_cofm_and_advance_costs
    caching_cells_slashes_force_time
    merged_tree_build_cuts_tree_time
    async_aggregation_cuts_force_time_at_scale
    aggregation_degree_saturates_by_four
    optimized_code_speeds_up_with_ranks
    cumulative_improvement_over_baseline_is_large
    pthreads_runtime_is_slower_than_process_mode
    weak_scaling_tree_build_scales_with_vector_reduction
}

#[test]
fn every_asserted_row_is_tested_here() {
    let asserted: Vec<&str> = CLAIMS.iter().filter(|c| c.asserted()).map(|c| c.id).collect();
    assert_eq!(asserted, TESTED);
}
