//! The shared (PGAS) state of the distributed Barnes-Hut application and the
//! per-rank private state, together with the body-access helpers that encode
//! each optimization level's access/billing discipline.

use crate::cellnode::{CellNode, COMPACT_NODE_BYTES};
use crate::lifecycle::{LeafSite, TreeLifecycle};
use engine::config::{OptLevel, SimConfig, TreeBuild, FINE_GRAINED_FIELDS};
use nbody::plummer::{generate, PlummerConfig};
use nbody::{Body, Vec3};
use pgas::shared::SharedScalar;
use pgas::swcache::CachedScalar;
use pgas::{Ctx, GlobalPtr, PhaseTimer, Price, SharedArena, SharedVec};

/// Number of locks in the global lock table protecting cell modifications
/// (SPLASH-2 hashes cells onto a fixed pool of locks).
pub const CELL_LOCKS: usize = 2048;

/// All PGAS-resident state of the application (the equivalent of the UPC
/// program's shared declarations in §4).
pub struct BhShared {
    /// The global body table (`bodytab` in the paper): block-distributed
    /// over ranks, allocated by thread 0 with `upc_global_alloc`.
    pub bodytab: SharedVec<Body>,
    /// The cell heap: cells are allocated by the inserting thread with
    /// `upc_alloc` and linked through pointers-to-shared.  One arena for
    /// every tree build; the sorted build bills each node as the compact
    /// [`COMPACT_NODE_BYTES`] record, its peak footprint is `tree_bytes`.
    pub cells: SharedArena<CellNode>,
    /// Pointer to the root cell of the current step's tree (a shared scalar
    /// on thread 0).
    pub root: SharedScalar<GlobalPtr>,
    /// Root cell size (`rsize`), a shared scalar on thread 0 that §5.1
    /// replicates.
    pub rsize: SharedScalar<f64>,
    /// Root cell centre, shared alongside `rsize`.
    pub center: SharedScalar<Vec3>,
    /// Opening criterion θ (`tol`), a write-once shared scalar on thread 0.
    pub tol: SharedScalar<f64>,
    /// Softening ε (`eps`), a write-once shared scalar on thread 0.
    pub eps: SharedScalar<f64>,
    /// Lock table protecting concurrent cell modification during the global
    /// insertion tree build.
    pub locks: pgas::lock::LockTable,
    /// Per-body leaf sites of the persistent tree (the tree-lifecycle
    /// subsystem's side table, indexed by body id like `bodytab`).  One
    /// slot per body under a reuse-capable [`engine::config::TreePolicy`],
    /// none under per-step rebuild, which never reads it.
    pub sites: pgas::SharedVec<LeafSite>,
}

impl BhShared {
    /// Creates the shared state for a run: generates the Plummer initial
    /// conditions into the body table and initializes the shared scalars.
    pub fn new(cfg: &SimConfig) -> Self {
        let bodies = generate(&PlummerConfig::new(cfg.nbodies, cfg.seed));
        BhShared::with_bodies(cfg, bodies)
    }

    /// Creates the shared state over caller-provided initial conditions
    /// (any workload — see the `scenarios` crate — not just Plummer).
    ///
    /// The bodies must number `cfg.nbodies` and carry ids `0..nbodies` in
    /// order: the solvers use the id as the index into the global body
    /// table when redistributing and when assembling the final snapshot.
    /// The step driver ([`engine::drive`]) checks that before building.
    pub fn with_bodies(cfg: &SimConfig, bodies: Vec<Body>) -> Self {
        let ranks = cfg.ranks();
        let nbodies = bodies.len();
        let node_bytes = match cfg.build {
            TreeBuild::Insertion => std::mem::size_of::<CellNode>(),
            TreeBuild::Sorted => COMPACT_NODE_BYTES,
        };
        let site_slots = if cfg.tree_policy.reuses_tree() { nbodies } else { 0 };
        BhShared {
            bodytab: SharedVec::from_vec(ranks, bodies),
            sites: SharedVec::new(ranks, site_slots, LeafSite::INVALID),
            cells: SharedArena::with_record_bytes(ranks, node_bytes),
            root: SharedScalar::new(GlobalPtr::NULL),
            rsize: SharedScalar::new(0.0),
            center: SharedScalar::new(Vec3::ZERO),
            tol: SharedScalar::new(cfg.theta),
            eps: SharedScalar::new(cfg.eps),
            locks: pgas::lock::LockTable::new(CELL_LOCKS, ranks),
        }
    }

    /// The lock protecting modifications of the cell addressed by `ptr`.
    pub fn lock_for(&self, ptr: GlobalPtr) -> &pgas::GlobalLock {
        let key = (ptr.threadof() << 20) ^ ptr.indexof();
        self.locks.lock_for(key)
    }
}

/// Per-rank software caches in front of the shared scalars (the MuPC-style
/// transparent caching ablation; see [`SimConfig::software_scalar_cache`]).
#[derive(Default)]
pub struct ScalarCaches {
    /// Cache in front of `tol` (θ).
    pub tol: CachedScalar<f64>,
    /// Cache in front of `eps`.
    pub eps: CachedScalar<f64>,
    /// Cache in front of `rsize`.
    pub rsize: CachedScalar<f64>,
    /// Cache in front of the root-cell centre.
    pub center: CachedScalar<Vec3>,
}

/// Private per-rank state (the UPC thread's private variables).
pub struct RankState {
    /// Global indices of the bodies this rank currently owns
    /// (`mybodytab[]`).
    pub my_ids: Vec<u32>,
    /// Ownership bitmap over all bodies (kept consistent with `my_ids` by
    /// [`RankState::set_owned`]); gives O(1) ownership tests in hot paths.
    owned: Vec<bool>,
    /// Replicated θ (meaningful at [`OptLevel::ReplicateScalars`] and above).
    pub theta: f64,
    /// Replicated ε.
    pub eps: f64,
    /// Replicated root size (`myrsize` in §5.1).
    pub rsize: f64,
    /// Replicated root centre.
    pub center: Vec3,
    /// Cells this rank allocated during the current step's tree build
    /// (`mycelltab[]`), in creation order.
    pub my_cells: Vec<GlobalPtr>,
    /// Phase timer for this rank.
    pub timer: PhaseTimer,
    /// Simulated time spent building the local tree (§5.4/§6 sub-phase,
    /// Figure 8).
    pub tree_local_time: f64,
    /// Simulated time spent merging/hooking into the global tree (Figure 8).
    pub tree_merge_time: f64,
    /// Bodies that migrated to this rank during measured steps.
    pub migrated: u64,
    /// Transparent software caches for the shared scalars, present only when
    /// [`SimConfig::software_scalar_cache`] is enabled.
    pub scalar_caches: Option<ScalarCaches>,
    /// Lower corner of this step's global bounding box (stashed by the
    /// bounding-box phase; the tree-lifecycle fit test reads it).
    pub bbox_lo: Vec3,
    /// Upper corner of this step's global bounding box.
    pub bbox_hi: Vec3,
    /// `true` when the bounding-box phase handed back the persistent root
    /// cube instead of deriving a fresh one this step.  A rebuild must then
    /// re-derive the cube from the stashed box ([`crate::treebuild::derive_root_cube`])
    /// so rebuilt trees stay bit-identical under every tree policy.
    pub bbox_kept_cube: bool,
    /// Persistent-tree bookkeeping (see [`crate::lifecycle`]).
    pub lifecycle: TreeLifecycle,
}

impl RankState {
    /// Initial state: the rank owns its block of the body table and has
    /// parsed the input parameters locally (as §5.1 prescribes for
    /// write-once scalars).
    pub fn new(ctx: &Ctx, shared: &BhShared, cfg: &SimConfig) -> Self {
        let range = shared.bodytab.local_range(ctx.rank());
        let my_ids: Vec<u32> = range.map(|i| i as u32).collect();
        let mut owned = vec![false; shared.bodytab.len()];
        for &id in &my_ids {
            owned[id as usize] = true;
        }
        RankState {
            my_ids,
            owned,
            theta: cfg.theta,
            eps: cfg.eps,
            rsize: 0.0,
            center: Vec3::ZERO,
            my_cells: Vec::new(),
            timer: PhaseTimer::new(),
            tree_local_time: 0.0,
            tree_merge_time: 0.0,
            migrated: 0,
            scalar_caches: if cfg.software_scalar_cache {
                Some(ScalarCaches::default())
            } else {
                None
            },
            bbox_lo: Vec3::ZERO,
            bbox_hi: Vec3::ZERO,
            bbox_kept_cube: false,
            lifecycle: TreeLifecycle::default(),
        }
    }

    /// `true` when this rank currently owns global body `id`.
    #[inline]
    pub fn owns(&self, id: u32) -> bool {
        self.owned.get(id as usize).copied().unwrap_or(false)
    }

    /// Replaces the set of owned bodies (updates both `my_ids` and the
    /// ownership bitmap).
    pub fn set_owned(&mut self, ids: Vec<u32>) {
        for &id in &self.my_ids {
            self.owned[id as usize] = false;
        }
        for &id in &ids {
            self.owned[id as usize] = true;
        }
        self.my_ids = ids;
    }
}

/// Reads the opening criterion θ according to the level's discipline:
/// the baseline re-reads the shared scalar (a remote access for every rank
/// but 0, unless the transparent software cache is enabled); all later levels
/// use the replicated private copy.
#[inline]
pub fn read_theta(ctx: &Ctx, shared: &BhShared, st: &RankState, opt: OptLevel) -> f64 {
    if opt.replicates_scalars() {
        st.theta
    } else if let Some(caches) = &st.scalar_caches {
        caches.tol.read(ctx, &shared.tol)
    } else {
        shared.tol.read(ctx)
    }
}

/// Reads the softening ε according to the level's discipline (see
/// [`read_theta`]).
#[inline]
pub fn read_eps(ctx: &Ctx, shared: &BhShared, st: &RankState, opt: OptLevel) -> f64 {
    if opt.replicates_scalars() {
        st.eps
    } else if let Some(caches) = &st.scalar_caches {
        caches.eps.read(ctx, &shared.eps)
    } else {
        shared.eps.read(ctx)
    }
}

/// Reads the root geometry (`rsize`, centre) according to the level's
/// discipline: the baseline reads the shared scalars on every call, later
/// levels use the per-step replicated copies.
#[inline]
pub fn read_root_geometry(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    opt: OptLevel,
) -> (Vec3, f64) {
    if opt.replicates_scalars() {
        (st.center, st.rsize)
    } else if let Some(caches) = &st.scalar_caches {
        (caches.center.read(ctx, &shared.center), caches.rsize.read(ctx, &shared.rsize))
    } else {
        (shared.center.read(ctx), shared.rsize.read(ctx))
    }
}

/// Reads body `id` under the level's access discipline.
///
/// * Baseline / replicate-scalars: the body lives wherever the block
///   distribution put it; the literal translation reads it field by field,
///   so [`FINE_GRAINED_FIELDS`] separate accesses are charged.
/// * Redistribute and above: bodies this rank owns were moved to local
///   shared memory by the redistribution phase and their pointers cast to
///   local (§5.2), so owned bodies cost a local access; foreign bodies are
///   still one remote (whole-struct) get.
pub fn read_body(ctx: &Ctx, shared: &BhShared, st: &RankState, cfg: &SimConfig, id: u32) -> Body {
    let idx = id as usize;
    if cfg.opt.redistributes_bodies() {
        if st.owns(id) {
            ctx.bill(Price::LocalAccess, 1);
            shared.bodytab.read_raw(idx)
        } else {
            shared.bodytab.read(ctx, idx)
        }
    } else {
        shared.bodytab.read_fields(ctx, idx, FINE_GRAINED_FIELDS)
    }
}

/// Writes body `id` under the level's access discipline (see [`read_body`]).
pub fn write_body(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
    id: u32,
    body: Body,
) {
    let idx = id as usize;
    if cfg.opt.redistributes_bodies() {
        debug_assert!(st.owns(id), "owner-computes: only the owner may write a body");
        ctx.bill(Price::LocalAccess, 1);
        shared.bodytab.write_raw(idx, body);
    } else {
        shared.bodytab.write_fields(ctx, idx, body, FINE_GRAINED_FIELDS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::{Machine, Runtime};

    fn cfg(ranks: usize, opt: OptLevel) -> SimConfig {
        SimConfig::test(64, ranks, opt)
    }

    #[test]
    fn shared_state_holds_all_bodies() {
        let cfg = cfg(4, OptLevel::Baseline);
        let shared = BhShared::new(&cfg);
        assert_eq!(shared.bodytab.len(), 64);
        assert_eq!(shared.cells.ranks(), 4);
        assert_eq!(shared.tol.read_raw(), cfg.theta);
        assert_eq!(shared.eps.read_raw(), cfg.eps);
    }

    #[test]
    fn leaf_sites_are_allocated_only_under_reuse() {
        let rebuild = cfg(2, OptLevel::CacheLocalTree);
        assert_eq!(BhShared::new(&rebuild).sites.len(), 0);
        let mut reuse = rebuild.clone();
        reuse.tree_policy = engine::config::TreePolicy::from_name("reuse").unwrap();
        assert_eq!(BhShared::new(&reuse).sites.len(), 64);
    }

    #[test]
    fn initial_ownership_is_block_distribution() {
        let cfg = cfg(4, OptLevel::Baseline);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let st = RankState::new(ctx, &shared, &cfg);
            (st.my_ids.len(), st.my_ids.first().copied())
        });
        assert_eq!(report.ranks[0].result, (16, Some(0)));
        assert_eq!(report.ranks[3].result, (16, Some(48)));
    }

    #[test]
    fn baseline_scalar_reads_are_remote_for_nonzero_ranks() {
        let cfg = cfg(2, OptLevel::Baseline);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let st = RankState::new(ctx, &shared, &cfg);
            let _ = read_theta(ctx, &shared, &st, cfg.opt);
            let _ = read_eps(ctx, &shared, &st, cfg.opt);
            ctx.stats_snapshot().remote_gets
        });
        assert_eq!(report.ranks[0].result, 0);
        assert_eq!(report.ranks[1].result, 2);
    }

    #[test]
    fn replicated_scalar_reads_are_free_of_communication() {
        let cfg = cfg(2, OptLevel::ReplicateScalars);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let st = RankState::new(ctx, &shared, &cfg);
            for _ in 0..100 {
                let _ = read_theta(ctx, &shared, &st, cfg.opt);
                let _ = read_eps(ctx, &shared, &st, cfg.opt);
            }
            ctx.stats_snapshot().remote_gets
        });
        assert!(report.ranks.iter().all(|r| r.result == 0));
    }

    #[test]
    fn baseline_body_reads_are_fine_grained() {
        let cfg = cfg(2, OptLevel::Baseline);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let st = RankState::new(ctx, &shared, &cfg);
            // Rank 1 reads a body owned (by affinity) by rank 0.
            if ctx.rank() == 1 {
                let _ = read_body(ctx, &shared, &st, &cfg, 0);
            }
            ctx.stats_snapshot().remote_gets
        });
        assert_eq!(report.ranks[1].result, FINE_GRAINED_FIELDS as u64);
    }

    #[test]
    fn redistributed_owned_body_access_is_local() {
        let cfg = cfg(2, OptLevel::Redistribute);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            // Pretend this rank was assigned a body whose affinity is the
            // other rank: an owned access must still be billed local.
            let foreign = if ctx.rank() == 0 { 40u32 } else { 0u32 };
            let mut ids = st.my_ids.clone();
            ids.push(foreign);
            st.set_owned(ids);
            let before = ctx.stats_snapshot().remote_gets;
            let _ = read_body(ctx, &shared, &st, &cfg, foreign);
            let b = shared.bodytab.read_raw(foreign as usize);
            write_body(ctx, &shared, &st, &cfg, foreign, b);
            ctx.stats_snapshot().remote_gets - before
        });
        assert!(report.ranks.iter().all(|r| r.result == 0));
    }
}
