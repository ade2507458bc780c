//! The simulated clock is homogeneous of degree one in the prices: every
//! movement of it is a count of events times a `pgas::Price`, or a wait
//! for another rank's clock, or a max over such sums.  Doubling every
//! price (the compute factor, nodes and threads held) must therefore
//! double the total, every phase and every rank's three ledgers bit for
//! bit — doubling is exact in binary floating point — and leave every
//! counter and the final bodies alone.  A clock movement priced by
//! anything but a `Price` breaks it.

use barnes_hut_upc::engine;
use barnes_hut_upc::pgas::{Price, RankStats};
use barnes_hut_upc::prelude::*;

/// `machine` with every price doubled.
fn doubled(machine: &Machine) -> Machine {
    let m = machine.clone();
    let twice = Machine {
        interaction_cost: 2.0 * m.interaction_cost,
        global_ptr_overhead: 2.0 * m.global_ptr_overhead,
        treeop_cost: 2.0 * m.treeop_cost,
        mac_cost: 2.0 * m.mac_cost,
        local_access_cost: 2.0 * m.local_access_cost,
        remote_latency: 2.0 * m.remote_latency,
        remote_byte_cost: 2.0 * m.remote_byte_cost,
        intranode_latency: 2.0 * m.intranode_latency,
        intranode_byte_cost: 2.0 * m.intranode_byte_cost,
        loopback_latency: 2.0 * m.loopback_latency,
        loopback_byte_cost: 2.0 * m.loopback_byte_cost,
        lock_overhead: 2.0 * m.lock_overhead,
        barrier_latency: 2.0 * m.barrier_latency,
        collective_latency: 2.0 * m.collective_latency,
        sw_overhead: 2.0 * m.sw_overhead,
        ..m
    };
    for price in Price::ALL {
        assert_eq!(twice.price(price), 2.0 * machine.price(price), "{price:?} doubled");
    }
    assert_eq!(twice.compute_factor(), machine.compute_factor());
    twice
}

fn run(backend: &str, cfg: &SimConfig) -> SimResult {
    let bodies = generate(&PlummerConfig::new(cfg.nbodies, cfg.seed));
    backend_registry().get(backend).expect("builtin backend").run(cfg, bodies)
}

/// Runs `cfg` on `backend` at its prices and at twice its prices, and
/// asserts that every simulated second doubled exactly.
fn assert_homogeneous(label: &str, backend: &str, cfg: SimConfig) {
    let base = run(backend, &cfg);
    let twice = run(backend, &SimConfig { machine: doubled(&cfg.machine), ..cfg });
    let same = |a: f64, b: f64, what: &str| {
        assert_eq!((2.0 * a).to_bits(), b.to_bits(), "{label}: {what} {a} -> {b} is not doubled");
    };
    assert!(base.total > 0.0, "{label}");
    same(base.total, twice.total, "total");
    for phase in Phase::ALL {
        same(base.phases.get(phase), twice.phases.get(phase), &format!("{phase:?}"));
    }
    assert_eq!(base.ranks.len(), twice.ranks.len());
    for (rank, (a, b)) in base.ranks.iter().zip(&twice.ranks).enumerate() {
        let (sa, sb) = (&a.stats, &b.stats);
        same(sa.compute_seconds, sb.compute_seconds, &format!("rank {rank} compute"));
        same(sa.comm_seconds, sb.comm_seconds, &format!("rank {rank} comm"));
        same(sa.sync_seconds, sb.sync_seconds, &format!("rank {rank} sync"));
        let counters = |s: &RankStats| RankStats {
            compute_seconds: 0.0,
            comm_seconds: 0.0,
            sync_seconds: 0.0,
            ..s.clone()
        };
        assert_eq!(counters(sa), counters(sb), "{label}: rank {rank} counters");
    }
    assert!(
        engine::snap::bodies_bits_equal(&base.bodies, &twice.bodies),
        "{label}: the prices reached the physics"
    );
}

fn cfg(opt: OptLevel, machine: Machine, build: TreeBuild) -> SimConfig {
    let mut cfg = SimConfig::new(1024, machine, opt);
    cfg.build = build;
    cfg.steps = 2;
    cfg.measured_steps = 1;
    cfg
}

#[test]
fn one_rank_and_process_mode_rows_double_with_the_prices() {
    use OptLevel::*;
    let (insertion, sorted) = (TreeBuild::Insertion, TreeBuild::Sorted);
    let process = Machine::process_per_node;
    assert_homogeneous("baseline, 1 rank", "upc", cfg(Baseline, process(1), insertion));
    assert_homogeneous("redistribute sorted, 2 x 1", "upc", cfg(Redistribute, process(2), sorted));
    assert_homogeneous(
        "cache-local-tree sorted, 4",
        "upc",
        cfg(CacheLocalTree, process(4), sorted),
    );
    assert_homogeneous(
        "async-aggregation sorted, 4",
        "upc",
        cfg(AsyncAggregation, process(4), sorted),
    );
    assert_homogeneous("subspace, 4 x 1", "upc", cfg(Subspace, process(4), insertion));
}

#[test]
fn pthreads_rows_double_with_the_prices() {
    let pthreads = Machine::pthreads_per_node(2, 2);
    let sorted = TreeBuild::Sorted;
    assert_homogeneous(
        "redistribute sorted, 2 x 2 pthreads",
        "upc",
        cfg(OptLevel::Redistribute, pthreads.clone(), sorted),
    );
    assert_homogeneous(
        "subspace, 2 x 2 pthreads",
        "upc",
        cfg(OptLevel::Subspace, pthreads, TreeBuild::Insertion),
    );
}

#[test]
fn the_mpi_and_direct_backends_double_with_the_prices() {
    for backend in ["mpi", "direct"] {
        let machine = Machine::process_per_node(4);
        assert_homogeneous(
            backend,
            backend,
            cfg(OptLevel::Subspace, machine, TreeBuild::Insertion),
        );
    }
}
