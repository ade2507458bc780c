//! The message-passing time step.
//!
//! Runs under the same step driver as the UPC solver ([`engine::drive`]) —
//! the same number of time steps with the last `measured_steps` timed, the
//! same per-phase breakdown — but every phase is expressed with explicit
//! message passing: an all-to-all body exchange instead of one-sided
//! redistribution, a pushed locally-essential-tree exchange instead of
//! demand-driven caching, and a purely local force walk.
//!
//! [`MpiBackend`] runs any `scenarios` workload under message passing;
//! [`run_simulation`] keeps the historical Plummer entry point.  The output
//! is the solver-neutral
//! [`engine::SimResult`], so the bench harness and the integration tests can
//! compare programming models on identical workloads (§9 of the paper: "We
//! plan, in future work, to directly compare the performance of this code to
//! the performance of a similar code expressed in MPI").

use crate::domain::{exchange_bodies, plan};
use crate::letree::{exchange_let, DomainBox, LetItem};
use crate::MpiBackend;
use engine::config::{LEAF_CAPACITY, MAX_DEPTH};
use engine::drive::{self, Solver};
use engine::report::{Phase, RankOutcome, SimResult};
use engine::{Backend, SimConfig};
use nbody::plummer::{generate, PlummerConfig};
use nbody::Body;
use octree::tree::{Octree, TreeParams};
use octree::walk::accel_on;
use pgas::{Ctx, PhaseTimer, Price};

/// Base id given to imported pseudo-bodies so they never collide with real
/// body ids (the body cap of [`crate::backend::CAPS`] keeps the headroom).
pub const PSEUDO_ID_BASE: u32 = u32::MAX - (1 << 24);

/// Runs the message-passing Barnes-Hut simulation described by `cfg` over
/// the paper's Plummer initial conditions ([`MpiBackend`] runs any
/// workload's).
///
/// `cfg.opt`, `cfg.n1`–`n3` and `cfg.vector_reduction` are
/// ignored: they parameterise the UPC optimization ladder, which has no
/// counterpart here.  Everything else (bodies, seed, θ, ε, dt, step counts,
/// machine) is honoured, so a run with the same `SimConfig` is directly
/// comparable to the UPC solver's.  Panics where [`Backend::run`] does.
pub fn run_simulation(cfg: &SimConfig) -> SimResult {
    MpiBackend.run(cfg, generate(&PlummerConfig::new(cfg.nbodies, cfg.seed)))
}

/// One run of the message-passing solver: the initial bodies each rank
/// takes its block of (the same block-by-id split the UPC body table uses,
/// so both solvers start from identical ownership).
pub(crate) struct Mpi {
    bodies: Vec<Body>,
}

/// Per-rank state of the message-passing solver.
pub(crate) struct MpiRankState {
    /// Bodies currently owned by this rank.
    owned: Vec<Body>,
    timer: PhaseTimer,
    tree_local_time: f64,
    let_exchange_time: f64,
    migrated: u64,
}

impl Solver for Mpi {
    type Rank = MpiRankState;

    fn new(_: &SimConfig, bodies: Vec<Body>) -> Self {
        Mpi { bodies }
    }

    fn start(&self, ctx: &Ctx, _: &SimConfig) -> MpiRankState {
        MpiRankState {
            owned: drive::initial_block(ctx, &self.bodies).to_vec(),
            timer: PhaseTimer::new(),
            tree_local_time: 0.0,
            let_exchange_time: 0.0,
            migrated: 0,
        }
    }

    fn step(&self, ctx: &Ctx, cfg: &SimConfig, st: &mut MpiRankState, _: usize) {
        run_step(ctx, st, cfg);
    }

    fn reset_window(&self, st: &mut MpiRankState) {
        st.timer.reset();
        st.tree_local_time = 0.0;
        st.let_exchange_time = 0.0;
        st.migrated = 0;
    }

    fn outcome(&self, st: &MpiRankState) -> RankOutcome {
        RankOutcome {
            tree_local: st.tree_local_time,
            tree_merge: st.let_exchange_time,
            owned_bodies: st.owned.len() as u64,
            migrated_bodies: st.migrated,
            ..RankOutcome::timed(&st.timer)
        }
    }

    fn bodies(&self, _: &Ctx, st: &MpiRankState) -> Vec<Body> {
        st.owned.clone()
    }
}

/// One message-passing time step.
fn run_step(ctx: &Ctx, st: &mut MpiRankState, cfg: &SimConfig) {
    // Partitioning: agree on the global box and the ownership map.
    st.timer.begin(ctx, Phase::Partition.key());
    let (global, splitters) = plan(ctx, &st.owned);
    st.timer.end(ctx, Phase::Partition.key());

    // Redistribution: all-to-all body exchange.
    st.timer.begin(ctx, Phase::Redistribute.key());
    let (owned, migrated_in) =
        exchange_bodies(ctx, std::mem::take(&mut st.owned), &global, &splitters);
    st.owned = owned;
    st.migrated += migrated_in;
    ctx.barrier();
    st.timer.end(ctx, Phase::Redistribute.key());

    // Tree building: the local octree over owned bodies.
    st.timer.begin(ctx, Phase::TreeBuild.key());
    let local_start = ctx.now();
    let params = TreeParams { leaf_capacity: LEAF_CAPACITY, max_depth: MAX_DEPTH };
    let mut tree = Octree::build_in(&st.owned, global.center, global.rsize, params);
    ctx.bill(Price::TreeOp, tree.build_ops);
    st.tree_local_time += ctx.now() - local_start;
    st.timer.end(ctx, Phase::TreeBuild.key());

    // Centre-of-mass computation over the local tree.
    st.timer.begin(ctx, Phase::CenterOfMass.key());
    let visits = tree.compute_mass(&st.owned);
    ctx.bill(Price::TreeOp, visits);
    ctx.barrier();
    st.timer.end(ctx, Phase::CenterOfMass.key());

    // Locally essential tree exchange + grafting of the imported point
    // masses into the local tree (counted as tree building, like the §5.4
    // merge sub-phase it replaces).
    st.timer.begin(ctx, Phase::TreeBuild.key());
    let exchange_start = ctx.now();
    let domains: Vec<DomainBox> = ctx.allgather(DomainBox::of(&st.owned));
    let imported = exchange_let(ctx, &tree, &st.owned, &domains, cfg.theta);
    let walk_bodies = graft_imports(ctx, &mut tree, &st.owned, &imported);
    st.let_exchange_time += ctx.now() - exchange_start;
    ctx.barrier();
    st.timer.end(ctx, Phase::TreeBuild.key());

    // Force computation: purely local walk over the locally essential tree.
    st.timer.begin(ctx, Phase::Force.key());
    let mut interactions = 0u64;
    let mut macs = 0u64;
    for i in 0..st.owned.len() {
        let body = st.owned[i];
        let r = accel_on(&tree, &walk_bodies, body.pos, Some(body.id), cfg.theta, cfg.eps);
        st.owned[i].acc = r.acc;
        st.owned[i].phi = r.phi;
        st.owned[i].cost = r.interactions.max(1);
        interactions += r.interactions as u64;
        macs += r.macs as u64;
    }
    ctx.bill(Price::Mac, macs);
    ctx.bill(Price::Interaction, interactions);
    ctx.barrier();
    st.timer.end(ctx, Phase::Force.key());

    // Body advancement (same update rule as the UPC solver).
    st.timer.begin(ctx, Phase::Advance.key());
    for b in &mut st.owned {
        b.vel += b.acc * cfg.dt;
        b.pos += b.vel * cfg.dt;
    }
    ctx.bill(Price::LocalAccess, 2 * st.owned.len() as u64);
    ctx.barrier();
    st.timer.end(ctx, Phase::Advance.key());
}

/// Inserts the imported LET items into the local tree as point masses and
/// returns the combined body slice the force walk runs over.
fn graft_imports(ctx: &Ctx, tree: &mut Octree, owned: &[Body], imported: &[LetItem]) -> Vec<Body> {
    // The pseudo-id window holds `1 << 24` ids; past it the u32 addition
    // below would wrap around into real body ids — the silent aliasing
    // the body cap of [`crate::backend::CAPS`] exists to prevent.  The cap
    // bounds the real ids; the per-step import count can only be bounded
    // here, where it is known.
    assert!(
        imported.len() < (1usize << 24),
        "LET import count {} exceeds the pseudo-body id window ({} ids starting at {})",
        imported.len(),
        1u32 << 24,
        PSEUDO_ID_BASE
    );
    let mut walk_bodies = owned.to_vec();
    walk_bodies.reserve(imported.len());
    for (k, item) in imported.iter().enumerate() {
        walk_bodies.push(Body::at_rest(PSEUDO_ID_BASE + k as u32, item.pos, item.mass));
    }
    let ops_before = tree.build_ops;
    for i in owned.len()..walk_bodies.len() {
        tree.insert(&walk_bodies, i, walk_bodies[i].pos);
    }
    ctx.bill(Price::TreeOp, tree.build_ops - ops_before);
    let visits = tree.compute_mass(&walk_bodies);
    ctx.bill(Price::TreeOp, visits);
    walk_bodies
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::OptLevel;
    use nbody::direct;

    fn test_cfg(nbodies: usize, ranks: usize) -> SimConfig {
        SimConfig::test(nbodies, ranks, OptLevel::Subspace)
    }

    fn mean_relative_error(result: &[Body], reference: &[Body]) -> f64 {
        result
            .iter()
            .zip(reference)
            .map(|(a, b)| (a.acc - b.acc).norm() / b.acc.norm().max(1e-12))
            .sum::<f64>()
            / result.len() as f64
    }

    #[test]
    fn forces_agree_with_direct_summation() {
        let cfg = test_cfg(300, 4);
        let result = run_simulation(&cfg);
        assert_eq!(result.bodies.len(), 300);
        // Rebuild the reference at the final positions minus the last kick:
        // simpler and sufficient — compare the *final accelerations* stored in
        // the result against direct summation at the final positions' previous
        // configuration is awkward, so instead check against a fresh direct
        // evaluation at the positions the accelerations were computed for.
        // The advance step moved bodies after the last force evaluation, so
        // roll positions back by one update.
        let rolled_back: Vec<Body> = result
            .bodies
            .iter()
            .map(|b| {
                let mut prev = *b;
                prev.pos -= prev.vel * cfg.dt;
                prev
            })
            .collect();
        let reference = direct::compute_forces(&rolled_back, cfg.eps);
        let err = mean_relative_error(&result.bodies, &reference);
        assert!(err < 0.06, "mean force error vs direct summation too large: {err}");
    }

    #[test]
    fn any_workload_runs_through_the_backend() {
        // Caller-provided bodies (here: a deliberately non-Plummer cold
        // lattice) must flow through the full message-passing pipeline.
        let cfg = test_cfg(216, 3);
        let bodies: Vec<Body> = (0..216u32)
            .map(|i| {
                let (x, y, z) = (i % 6, (i / 6) % 6, i / 36);
                Body::at_rest(
                    i,
                    nbody::Vec3::new(x as f64 - 2.5, y as f64 - 2.5, z as f64 - 2.5),
                    1.0 / 216.0,
                )
            })
            .collect();
        let result = MpiBackend.run(&cfg, bodies);
        assert_eq!(result.bodies.len(), 216);
        assert!(result.bodies.iter().enumerate().all(|(i, b)| b.id as usize == i));
        assert!(result.bodies.iter().all(|b| b.pos.is_finite() && b.vel.is_finite()));
        assert!(result.phases.force > 0.0);
    }

    #[test]
    fn pseudo_id_collisions_are_rejected() {
        let caps = crate::backend::CAPS;
        let mut cfg = test_cfg(64, 2);
        assert!(caps.check(&cfg).is_ok());
        cfg.nbodies = PSEUDO_ID_BASE as usize;
        let err = caps.check(&cfg).unwrap_err();
        assert_eq!(err.code, engine::ConfigError::E_UNSUPPORTED, "{err}");
        assert!(err.message.contains("pseudo-body id space"), "{err}");
        cfg.nbodies = PSEUDO_ID_BASE as usize + 7;
        assert!(caps.check(&cfg).is_err());
        cfg.nbodies = PSEUDO_ID_BASE as usize - 1;
        assert!(caps.check(&cfg).is_ok());
    }

    #[test]
    fn phase_times_are_populated() {
        let cfg = test_cfg(200, 3);
        let result = run_simulation(&cfg);
        assert!(result.phases.force > 0.0);
        assert!(result.phases.tree > 0.0);
        assert!(result.phases.partition > 0.0);
        assert!(result.total > 0.0);
        assert_eq!(result.ranks.len(), 3);
        let owned: u64 = result.ranks.iter().map(|r| r.owned_bodies).sum();
        assert_eq!(owned, 200);
    }

    #[test]
    fn single_rank_run_works() {
        let cfg = test_cfg(128, 1);
        let result = run_simulation(&cfg);
        assert_eq!(result.bodies.len(), 128);
        assert!(result.phases.force > 0.0);
        assert_eq!(result.migration_fraction, 0.0);
    }

    #[test]
    fn force_phase_needs_no_communication() {
        // The defining property of the LET approach: once the exchange is
        // done, the force phase is local.  Communication totals must not grow
        // with extra *measured* steps beyond what the per-step exchanges add;
        // more directly, remote gets (one-sided reads) are never used at all.
        let cfg = test_cfg(200, 4);
        let result = run_simulation(&cfg);
        let stats = result.total_stats();
        assert_eq!(stats.remote_gets, 0, "the MPI solver never reads remotely one-sided");
        assert!(stats.bytes_out > 0, "but it does send messages");
    }

    #[test]
    fn more_ranks_do_not_change_physics() {
        let a = run_simulation(&test_cfg(200, 2));
        let b = run_simulation(&test_cfg(200, 5));
        let mean_diff: f64 =
            a.bodies.iter().zip(&b.bodies).map(|(x, y)| (x.pos - y.pos).norm()).sum::<f64>()
                / a.bodies.len() as f64;
        assert!(mean_diff < 1e-2, "rank count must not change the physics: {mean_diff}");
    }
}
