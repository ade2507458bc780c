//! Demand-driven caching of octree cells in a per-thread local tree
//! (§5.3, Listings 1 and 2 of the paper): one cache, two load disciplines.
//!
//! Every rank starts the force phase by copying the global root into a
//! private arena of `LocalNode`s, under every tree policy: the cache lives
//! for one force phase, as the paper's does.  Whenever the walk needs to
//! open a cell whose children have not been localized yet, it fetches all
//! eight children with pointer-to-shared reads, stores local copies,
//! swizzles the child pointers to local indices and sets the `localized`
//! flag — after which any later visit (for this or any other body) costs
//! only local pointer dereferences.  This is the optimization responsible for the 99 % force
//! time reduction between Table 4 and Table 5.
//!
//! The §5.3.1 separate local tree and the §5.3.2 merged tree with shadow
//! pointers differ in one decision, made in `CacheTree::load` and nowhere
//! else: §5.3.1 copies *every* child through its pointer-to-shared, §5.3.2
//! pointer-casts the children whose affinity is the calling rank and reads
//! them in place.  The paper reports that the second "showed little
//! performance improvement over Table 5: the improved algorithm saves some
//! local copying but does not affect global communication"; the
//! `tables cache_variants` experiment confirms it — remote traffic is
//! identical, only the local copying cost differs.

use crate::cellnode::{CellNode, NodeKind};
use crate::shared::BhShared;
use nbody::direct::pairwise_acceleration;
use nbody::{SoaBodies, Vec3};
use octree::walk::cell_is_far;
use pgas::{Ctx, GlobalPtr, Price};

/// Sentinel for "no local child".
const NO_LOCAL: i32 = -1;

/// Arena of coalesced children: the body-leaf children of every
/// localized cell gathered once into one structure-of-arrays batch
/// ([`SoaBodies`] — contiguous positions and masses), plus the indices of
/// the cell-kind children, both in octant order per cell.  The batched
/// walks stream through these arrays instead of chasing one node record per
/// leaf.
#[derive(Debug, Default)]
pub(crate) struct LeafArena {
    leaves: SoaBodies,
    cell_kids: Vec<u32>,
}

/// One cell's slice of a [`LeafArena`], recorded when its children are
/// coalesced.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChildRanges {
    leaf_start: u32,
    leaf_len: u32,
    kids_start: u32,
    kids_len: u32,
}

impl LeafArena {
    /// Coalesces one cell's children — `(cache index, payload)` pairs in
    /// octant order — into the arenas, returning the cell's ranges.  Called
    /// exactly once per cell, right after its children are installed.
    pub(crate) fn coalesce<'a>(
        &mut self,
        children: impl Iterator<Item = (u32, &'a CellNode)>,
    ) -> ChildRanges {
        let leaf_start = self.leaves.len() as u32;
        let kids_start = self.cell_kids.len() as u32;
        for (idx, child) in children {
            match child.kind {
                NodeKind::Body => {
                    self.leaves.push(child.body_id, child.cofm, child.mass);
                }
                NodeKind::Cell => self.cell_kids.push(idx),
            }
        }
        ChildRanges {
            leaf_start,
            leaf_len: self.leaves.len() as u32 - leaf_start,
            kids_start,
            kids_len: self.cell_kids.len() as u32 - kids_start,
        }
    }

    /// Accumulates the ranged cell's leaf batch onto `(acc, phi)` (skipping
    /// `self_id`), returning the interactions evaluated.
    #[inline]
    pub(crate) fn accumulate(
        &self,
        r: ChildRanges,
        pos: Vec3,
        self_id: u32,
        eps: f64,
        acc: &mut Vec3,
        phi: &mut f64,
    ) -> u32 {
        self.leaves.accumulate_excluding_id(
            r.leaf_start as usize,
            r.leaf_len as usize,
            pos,
            self_id,
            eps,
            acc,
            phi,
        )
    }

    /// The ranged cell's cell-kind children, in octant order.
    #[inline]
    pub(crate) fn kids(&self, r: ChildRanges) -> &[u32] {
        &self.cell_kids[r.kids_start as usize..(r.kids_start + r.kids_len) as usize]
    }
}

/// A locally cached copy of a shared tree node.
#[derive(Debug, Clone)]
pub struct LocalNode {
    /// Copied payload of the shared node.
    pub node: CellNode,
    /// Local indices of the children once localized.
    pub children_local: [i32; 8],
    /// `true` once all children of this node have local copies
    /// (the `Localized` flag of Listing 1).
    pub localized: bool,
    /// `true` once a gather for this node's children has been issued but not
    /// yet completed (used by the §5.5 non-blocking framework).
    pub requested: bool,
    /// This cell's slice of the cache's [`LeafArena`].
    ranges: ChildRanges,
}

impl LocalNode {
    fn new(node: CellNode) -> LocalNode {
        LocalNode {
            node,
            children_local: [NO_LOCAL; 8],
            localized: false,
            requested: false,
            ranges: ChildRanges::default(),
        }
    }
}

/// A per-rank cache tree.  It lives for one force phase, under every tree
/// policy: the next phase starts again from the root copy.
///
/// Besides the per-node copies, the cache keeps a [`LeafArena`] built as
/// cells are localized, so the batched [`CacheTree::walk`] streams each
/// opened cell's leaves from contiguous arrays.  The per-body evaluation —
/// one `LocalNode` record chased per leaf — survives as
/// [`CacheTree::walk_per_body`], the reference the bit-for-bit equivalence
/// tests run against.
pub struct CacheTree {
    /// All localized nodes; index 0 is the local copy of the global root
    /// (`L_root` in the paper).
    pub nodes: Vec<LocalNode>,
    /// The load discipline: `false` copies every cell (§5.3.1), `true`
    /// pointer-casts the cells local to this rank (§5.3.2).  See
    /// [`CacheTree::load`].
    cast_local: bool,
    /// Cells read through their pointer-to-shared (every load under the
    /// copy discipline; exactly the remote ones under the cast discipline).
    pub remote_copies: u64,
    /// Local cells read in place by pointer cast instead of copied (cast
    /// discipline only).
    pub local_reuses: u64,
    /// Coalesced children of every localized cell.
    arena: LeafArena,
}

/// Statistics of a cached force walk for one body.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachedWalkResult {
    /// Acceleration on the body.
    pub acc: Vec3,
    /// Potential at the body.
    pub phi: f64,
    /// Interactions evaluated.
    pub interactions: u32,
}

impl CacheTree {
    /// Creates the cache by copying the global root cell, under the given
    /// load discipline (`cast_local`: [`engine::config::SimConfig::shadow_cache`];
    /// the §5.5 engines always copy).
    pub fn new(ctx: &Ctx, shared: &BhShared, cast_local: bool) -> Self {
        let root_ptr = shared.root.read(ctx);
        assert!(!root_ptr.is_null(), "force phase requires a built tree");
        let mut cache = CacheTree {
            nodes: Vec::new(),
            cast_local,
            remote_copies: 0,
            local_reuses: 0,
            arena: LeafArena::default(),
        };
        let root = cache.load(ctx, shared, root_ptr);
        cache.nodes.push(LocalNode::new(root));
        cache
    }

    /// Reads a cell into the cache — the only place the two disciplines
    /// differ: under the cast discipline a cell local to this rank is
    /// pointer-cast and read in place (legal because cells are read-only
    /// during the force phase, §7 of the paper); everything else is copied
    /// through its pointer-to-shared.
    fn load(&mut self, ctx: &Ctx, shared: &BhShared, ptr: GlobalPtr) -> CellNode {
        if self.cast_local && ptr.is_local_to(ctx.rank()) {
            self.local_reuses += 1;
            shared.cells.read_local(ctx, ptr)
        } else {
            self.remote_copies += 1;
            shared.cells.read(ctx, ptr)
        }
    }

    /// Number of cached nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the cache holds only the root copy.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Installs an already-fetched child under `parent`.
    fn install_child(&mut self, parent: usize, octant: usize, node: CellNode) {
        self.nodes[parent].children_local[octant] = self.nodes.len() as i32;
        self.nodes.push(LocalNode::new(node));
    }

    /// Coalesces the freshly localized children of `parent` into the arena.
    fn coalesce_children(&mut self, parent: usize) {
        let children = self.nodes[parent].children_local;
        let nodes = &self.nodes;
        let ranges = self.arena.coalesce(
            children
                .iter()
                .filter(|&&c| c != NO_LOCAL)
                .map(|&c| (c as u32, &nodes[c as usize].node)),
        );
        self.nodes[parent].ranges = ranges;
    }

    /// Localizes the children of `parent` with blocking loads (Listing 1,
    /// lines 10–18; Listing 2, lines 10–23 under the cast discipline).
    pub fn localize_children(&mut self, ctx: &Ctx, shared: &BhShared, parent: usize) {
        if self.nodes[parent].localized {
            return;
        }
        ctx.bill(Price::TreeOp, 1);
        for octant in 0..8 {
            let child_ptr = self.nodes[parent].node.children[octant];
            if child_ptr.is_null() {
                continue;
            }
            let child = self.load(ctx, shared, child_ptr);
            self.install_child(parent, octant, child);
        }
        self.coalesce_children(parent);
        self.nodes[parent].localized = true;
        self.nodes[parent].requested = false;
    }

    /// Installs the children of `parent` from data fetched by an aggregated
    /// gather (§5.5).  `children` must be the non-null children in octant
    /// order, matching [`CacheTree::children_ptrs`].
    pub fn install_children(&mut self, ctx: &Ctx, parent: usize, children: Vec<CellNode>) {
        if self.nodes[parent].localized {
            return;
        }
        ctx.bill(Price::TreeOp, 1);
        let octants: Vec<usize> =
            (0..8).filter(|&o| !self.nodes[parent].node.children[o].is_null()).collect();
        assert_eq!(octants.len(), children.len(), "gathered child count mismatch");
        for (octant, node) in octants.into_iter().zip(children) {
            self.install_child(parent, octant, node);
        }
        self.coalesce_children(parent);
        self.nodes[parent].localized = true;
        self.nodes[parent].requested = false;
    }

    /// The non-null child pointers of `parent`, in octant order (the list an
    /// aggregated gather must fetch).
    pub fn children_ptrs(&self, parent: usize) -> Vec<GlobalPtr> {
        (0..8)
            .filter_map(|o| {
                let p = self.nodes[parent].node.children[o];
                if p.is_null() {
                    None
                } else {
                    Some(p)
                }
            })
            .collect()
    }

    /// Cell-kind children of an opened node, in octant order.
    pub(crate) fn kids(&self, idx: usize) -> &[u32] {
        self.arena.kids(self.nodes[idx].ranges)
    }

    /// Accumulates the opened node's coalesced leaf batch onto `(acc, phi)`
    /// (skipping `self_id`), returning the interactions evaluated.
    pub(crate) fn accumulate(
        &self,
        idx: usize,
        pos: Vec3,
        self_id: u32,
        eps: f64,
        acc: &mut Vec3,
        phi: &mut f64,
    ) -> u32 {
        self.arena.accumulate(self.nodes[idx].ranges, pos, self_id, eps, acc, phi)
    }

    /// Force walk for one body position using the cache, localizing cells on
    /// demand with blocking loads (the §5.3 algorithm, under either load
    /// discipline).
    ///
    /// Opened cells evaluate their coalesced body leaves through the SoA
    /// batch gathered at localization time (contiguous positions and masses,
    /// no per-leaf pointer chasing) and push only their cell-kind children.
    /// The evaluation order — leaves of the opened cell in octant order,
    /// then its cell children depth-first — matches
    /// [`CacheTree::walk_per_body`] exactly, so the two produce bit-identical
    /// forces; they differ only in memory layout.
    pub fn walk(
        &mut self,
        ctx: &Ctx,
        shared: &BhShared,
        pos: Vec3,
        self_id: u32,
        theta: f64,
        eps: f64,
    ) -> CachedWalkResult {
        let mut result = CachedWalkResult::default();
        let mut macs = 0u64;
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            let node = self.nodes[idx].node;
            match node.kind {
                NodeKind::Body => {
                    // Only reachable when the root itself is a body leaf.
                    if node.body_id == self_id {
                        continue;
                    }
                    let (a, p) = pairwise_acceleration(pos, node.cofm, node.mass, eps);
                    result.acc += a;
                    result.phi += p;
                    result.interactions += 1;
                }
                NodeKind::Cell => {
                    if node.nbodies == 0 {
                        continue;
                    }
                    macs += 1;
                    let dist_sq = pos.dist_sq(node.cofm);
                    if cell_is_far(node.side(), dist_sq, theta) {
                        let (a, p) = pairwise_acceleration(pos, node.cofm, node.mass, eps);
                        result.acc += a;
                        result.phi += p;
                        result.interactions += 1;
                    } else {
                        self.localize_children(ctx, shared, idx);
                        let ranges = self.nodes[idx].ranges;
                        result.interactions += self.arena.accumulate(
                            ranges,
                            pos,
                            self_id,
                            eps,
                            &mut result.acc,
                            &mut result.phi,
                        );
                        for &k in self.arena.kids(ranges) {
                            stack.push(k as usize);
                        }
                    }
                }
            }
        }
        ctx.bill(Price::Mac, macs);
        ctx.bill(Price::Interaction, result.interactions as u64);
        result
    }

    /// The per-body reference evaluation: identical traversal schedule to
    /// [`CacheTree::walk`], but each body leaf of an opened cell is read out
    /// of its own [`LocalNode`] record (an array-of-structures pointer chase
    /// per leaf) instead of the coalesced SoA batch.
    ///
    /// This reproduces the *memory behavior* of the walk this PR replaced —
    /// one node record dragged through the cache per leaf — under the
    /// batched walk's evaluation schedule, so the A-B pair isolates the
    /// layout change alone and the two agree bit for bit.  (The replaced
    /// walk itself pushed body leaves through the traversal stack and thus
    /// accumulated in a different order; its per-leaf record reads are what
    /// this reference preserves.)  The equivalence tests assert the
    /// bit-for-bit agreement.
    pub fn walk_per_body(
        &mut self,
        ctx: &Ctx,
        shared: &BhShared,
        pos: Vec3,
        self_id: u32,
        theta: f64,
        eps: f64,
    ) -> CachedWalkResult {
        let mut result = CachedWalkResult::default();
        let mut macs = 0u64;
        let mut stack = vec![0usize];
        while let Some(idx) = stack.pop() {
            let node = self.nodes[idx].node;
            match node.kind {
                NodeKind::Body => {
                    if node.body_id == self_id {
                        continue;
                    }
                    let (a, p) = pairwise_acceleration(pos, node.cofm, node.mass, eps);
                    result.acc += a;
                    result.phi += p;
                    result.interactions += 1;
                }
                NodeKind::Cell => {
                    if node.nbodies == 0 {
                        continue;
                    }
                    macs += 1;
                    let dist_sq = pos.dist_sq(node.cofm);
                    if cell_is_far(node.side(), dist_sq, theta) {
                        let (a, p) = pairwise_acceleration(pos, node.cofm, node.mass, eps);
                        result.acc += a;
                        result.phi += p;
                        result.interactions += 1;
                    } else {
                        self.localize_children(ctx, shared, idx);
                        let children = self.nodes[idx].children_local;
                        for c in children {
                            if c == NO_LOCAL {
                                continue;
                            }
                            let child = self.nodes[c as usize].node;
                            match child.kind {
                                NodeKind::Body => {
                                    if child.body_id == self_id {
                                        continue;
                                    }
                                    let (a, p) =
                                        pairwise_acceleration(pos, child.cofm, child.mass, eps);
                                    result.acc += a;
                                    result.phi += p;
                                    result.interactions += 1;
                                }
                                NodeKind::Cell => stack.push(c as usize),
                            }
                        }
                    }
                }
            }
        }
        ctx.bill(Price::Mac, macs);
        ctx.bill(Price::Interaction, result.interactions as u64);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::RankState;
    use crate::treebuild::{
        allocate_root, bounding_box_phase, center_of_mass_phase, insert_owned_bodies,
    };
    use engine::config::{OptLevel, SimConfig};
    use nbody::direct;
    use pgas::Runtime;

    /// Builds a shared tree over the configured bodies and runs `f` on every
    /// rank with the tree ready.
    fn with_built_tree<R: Send>(
        cfg: &SimConfig,
        f: impl Fn(&Ctx, &BhShared, &mut RankState) -> R + Sync,
    ) -> (BhShared, Vec<R>) {
        let shared = BhShared::new(cfg);
        let rt = Runtime::new(cfg.machine.clone());
        let results = {
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
                f(ctx, shared_ref, &mut st)
            });
            report.ranks.into_iter().map(|r| r.result).collect()
        };
        (shared, results)
    }

    /// Walks every body this rank owns through `cache` once.
    fn walk_owned(
        ctx: &Ctx,
        shared: &BhShared,
        st: &RankState,
        cfg: &SimConfig,
        cache: &mut CacheTree,
    ) {
        for &id in &st.my_ids {
            let b = shared.bodytab.read_raw(id as usize);
            cache.walk(ctx, shared, b.pos, id, cfg.theta, cfg.eps);
        }
    }

    #[test]
    fn cached_walk_matches_direct_summation_closely() {
        let cfg = SimConfig::test(150, 2, OptLevel::CacheLocalTree);
        let (shared, results) = with_built_tree(&cfg, |ctx, shared, st| {
            let mut cache = CacheTree::new(ctx, shared, false);
            st.my_ids
                .iter()
                .map(|&id| {
                    let b = shared.bodytab.read_raw(id as usize);
                    (id, cache.walk(ctx, shared, b.pos, id, 0.0, cfg.eps))
                })
                .collect::<Vec<_>>()
        });
        let bodies = shared.bodytab.snapshot();
        let reference = direct::compute_forces(&bodies, cfg.eps);
        for per_rank in results {
            for (id, walk) in per_rank {
                let r = &reference[id as usize];
                let err = (walk.acc - r.acc).norm() / r.acc.norm().max(1e-12);
                assert!(err < 1e-9, "theta=0 cached walk must equal direct summation (err {err})");
            }
        }
    }

    #[test]
    fn cache_fetches_each_remote_cell_at_most_once() {
        let cfg = SimConfig::test(300, 4, OptLevel::CacheLocalTree);
        for cast_local in [false, true] {
            let (_, results) = with_built_tree(&cfg, |ctx, shared, st| {
                let before = ctx.stats_snapshot();
                let mut cache = CacheTree::new(ctx, shared, cast_local);
                walk_owned(ctx, shared, st, &cfg, &mut cache);
                let first_pass = ctx.stats_snapshot().delta(&before).remote_gets;
                // A second pass over the same bodies must not fetch anything new.
                let before2 = ctx.stats_snapshot();
                walk_owned(ctx, shared, st, &cfg, &mut cache);
                let second_pass = ctx.stats_snapshot().delta(&before2).remote_gets;
                (first_pass, second_pass, cache.len())
            });
            for (first, second, cached) in results {
                assert_eq!(second, 0, "second pass must be fully cached");
                assert!(cached > 1);
                // The first pass fetches at most every cell once; it cannot
                // exceed the cache size.
                assert!(first <= cached as u64);
            }
        }
    }

    #[test]
    fn children_ptrs_and_install_children_mirror_localize() {
        let cfg = SimConfig::test(200, 2, OptLevel::AsyncAggregation);
        let (_, results) = with_built_tree(&cfg, |ctx, shared, _st| {
            // Localize the root's children through the aggregated-install
            // path and check it matches a blocking localize.
            let mut a = CacheTree::new(ctx, shared, false);
            let ptrs = a.children_ptrs(0);
            let nodes: Vec<CellNode> = ptrs.iter().map(|&p| shared.cells.read_raw(p)).collect();
            a.install_children(ctx, 0, nodes);

            let mut b = CacheTree::new(ctx, shared, false);
            b.localize_children(ctx, shared, 0);

            assert_eq!(a.len(), b.len());
            for (x, y) in a.nodes.iter().zip(&b.nodes) {
                assert_eq!(x.node.nbodies, y.node.nbodies);
                assert_eq!(x.children_local, y.children_local);
            }
            a.nodes[0].localized && b.nodes[0].localized
        });
        assert!(results.into_iter().all(|ok| ok));
    }

    #[test]
    fn shadow_walk_matches_separate_local_tree_exactly() {
        let cfg = SimConfig::test(250, 3, OptLevel::CacheLocalTree);
        let (_, results) = with_built_tree(&cfg, |ctx, shared, st| {
            let mut shadow = CacheTree::new(ctx, shared, true);
            let mut separate = CacheTree::new(ctx, shared, false);
            st.my_ids
                .iter()
                .map(|&id| {
                    let b = shared.bodytab.read_raw(id as usize);
                    let a = shadow.walk(ctx, shared, b.pos, id, cfg.theta, cfg.eps);
                    let c = separate.walk(ctx, shared, b.pos, id, cfg.theta, cfg.eps);
                    (
                        (a.acc - c.acc).norm(),
                        (a.phi - c.phi).abs(),
                        a.interactions == c.interactions,
                    )
                })
                .collect::<Vec<_>>()
        });
        for per_rank in results {
            for (dacc, dphi, same_count) in per_rank {
                assert_eq!(dacc, 0.0, "shadow and separate-tree walks must be bit-identical");
                assert_eq!(dphi, 0.0);
                assert!(same_count);
            }
        }
    }

    #[test]
    fn shadow_cache_does_not_copy_local_cells() {
        let cfg = SimConfig::test(400, 4, OptLevel::CacheLocalTree);
        let (_, results) = with_built_tree(&cfg, |ctx, shared, st| {
            let mut cache = CacheTree::new(ctx, shared, true);
            walk_owned(ctx, shared, st, &cfg, &mut cache);
            (cache.remote_copies, cache.local_reuses)
        });
        for (copies, reuses) in results {
            assert!(reuses > 0, "every rank opens at least some of its own cells");
            assert!(copies > 0, "with several ranks, some cells are remote");
        }
    }

    #[test]
    fn remote_traffic_is_identical_to_separate_local_tree() {
        // The paper's point: §5.3.2 does not change global communication.
        // Both disciplines are exercised over the *same* built tree (the
        // global insertion order, and hence the tree shape, differs from run
        // to run).
        let cfg = SimConfig::test(300, 4, OptLevel::CacheLocalTree);
        let (_, results) = with_built_tree(&cfg, |ctx, shared, st| {
            let before_shadow = ctx.stats_snapshot();
            let mut shadow = CacheTree::new(ctx, shared, true);
            walk_owned(ctx, shared, st, &cfg, &mut shadow);
            let shadow_remote = ctx.stats_snapshot().delta(&before_shadow).remote_gets;

            let before_separate = ctx.stats_snapshot();
            let mut separate = CacheTree::new(ctx, shared, false);
            walk_owned(ctx, shared, st, &cfg, &mut separate);
            let separate_remote = ctx.stats_snapshot().delta(&before_separate).remote_gets;
            (shadow_remote, separate_remote)
        });
        for (shadow_remote, separate_remote) in results {
            assert_eq!(shadow_remote, separate_remote);
        }
    }

    #[test]
    fn second_pass_is_fully_cached() {
        let cfg = SimConfig::test(200, 2, OptLevel::CacheLocalTree);
        let (_, results) = with_built_tree(&cfg, |ctx, shared, st| {
            let mut cache = CacheTree::new(ctx, shared, true);
            walk_owned(ctx, shared, st, &cfg, &mut cache);
            let before = ctx.stats_snapshot();
            walk_owned(ctx, shared, st, &cfg, &mut cache);
            ctx.stats_snapshot().delta(&before).remote_gets
        });
        assert!(results.into_iter().all(|extra| extra == 0));
    }

    #[test]
    fn single_rank_never_copies() {
        // With one rank everything is local: the cast discipline is pure
        // pointer casting, which is exactly the §5.3 single-thread
        // improvement.
        let cfg = SimConfig::test(150, 1, OptLevel::CacheLocalTree);
        let (_, results) = with_built_tree(&cfg, |ctx, shared, st| {
            let mut cache = CacheTree::new(ctx, shared, true);
            walk_owned(ctx, shared, st, &cfg, &mut cache);
            (cache.remote_copies, cache.local_reuses)
        });
        for (copies, reuses) in results {
            assert_eq!(copies, 0);
            assert!(reuses > 0);
        }
    }
}
