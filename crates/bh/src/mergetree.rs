//! §5.4 tree building: per-thread local octrees merged into the global tree.
//!
//! Each rank first builds an octree over its own bodies entirely locally
//! (no locks, no remote traffic), computes its centres of mass, and then
//! merges it into the shared global tree.  Merging only needs to lock the
//! cells it actually modifies, and the centre-of-mass of two merged cells is
//! combined as a mass-weighted average — a commutative, associative update
//! performed atomically, so merges can happen in any order and the separate
//! centre-of-mass phase disappears.
//!
//! The merge cost is unbalanced: the rank that links its subtree first pays a
//! pointer update, the rank that arrives second must traverse the winner's
//! (now remote) subtree step by step — the effect shown in Figure 8 and the
//! motivation for the §6 subspace algorithm.

use crate::cellnode::{CellNode, NodeKind};
use crate::shared::{read_body, BhShared, RankState};
use engine::config::{SimConfig, LEAF_CAPACITY, MAX_DEPTH};
use nbody::{Body, Vec3};
use octree::tree::{Octree, TreeParams, NO_CHILD};
use pgas::{Ctx, GlobalPtr, Price};

/// Builds this rank's local octree over its owned bodies and uploads it into
/// the shared cell arena (local allocations), returning the pointer to its
/// root, or `GlobalPtr::NULL` when the rank owns no bodies.
///
/// The returned subtree has valid summaries (mass, centre of mass, cost,
/// body count) throughout.
pub fn build_local_tree(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
) -> GlobalPtr {
    if st.my_ids.is_empty() {
        return GlobalPtr::NULL;
    }
    // Gather owned bodies (local accesses after redistribution).
    let bodies: Vec<Body> =
        st.my_ids.iter().map(|&id| read_body(ctx, shared, st, cfg, id)).collect();
    let params = TreeParams { leaf_capacity: LEAF_CAPACITY, max_depth: MAX_DEPTH };
    let mut tree = Octree::build_in(&bodies, st.center, st.rsize, params);
    let mass_visits = tree.compute_mass(&bodies);
    ctx.bill(Price::TreeOp, tree.build_ops + mass_visits);

    let ids = st.my_ids.clone();
    upload_subtree(ctx, shared, st, &tree, 0, &bodies, &ids)
}

/// Recursively allocates shared-arena copies of the local octree rooted at
/// `node`, returning the pointer to the copy.
///
/// `ids[i]` is the global body id of `bodies[i]`.  Also used by the §6
/// subspace builder to upload per-leaf subforests.
pub fn upload_subtree(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    tree: &Octree,
    node: usize,
    bodies: &[Body],
    ids: &[u32],
) -> GlobalPtr {
    let n = &tree.nodes[node];
    if n.is_leaf {
        return upload_leaf(ctx, shared, st, n.center, n.half, &n.bodies, bodies, ids);
    }
    let mut cell = CellNode::new_cell(n.center, n.half);
    cell.mass = n.mass;
    cell.cofm = n.cofm;
    cell.cost = n.cost;
    cell.nbodies = n.nbodies as u32;
    cell.done = true;
    for octant in 0..8 {
        let child = n.children[octant];
        if child != NO_CHILD {
            cell.children[octant] =
                upload_subtree(ctx, shared, st, tree, child as usize, bodies, ids);
        }
    }
    let ptr = shared.cells.alloc(ctx, cell);
    st.my_cells.push(ptr);
    ptr
}

/// Uploads one octree leaf.  A single body becomes a body leaf; a bucket (the
/// coincident-body fallback) becomes a small cell holding body leaves.
#[allow(clippy::too_many_arguments)]
fn upload_leaf(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    center: Vec3,
    half: f64,
    members: &[usize],
    bodies: &[Body],
    ids: &[u32],
) -> GlobalPtr {
    assert!(!members.is_empty(), "octree leaves always hold at least one body");
    if members.len() == 1 {
        let m = members[0];
        let b = &bodies[m];
        return shared.cells.alloc(ctx, CellNode::new_body(ids[m], b.pos, b.mass, b.cost));
    }
    // Bucket of (nearly) coincident bodies: wrap them in a cell.
    let mut cell = CellNode::new_cell(center, half.max(1e-12));
    let mut children: Vec<GlobalPtr> = Vec::new();
    for &m in members {
        let b = &bodies[m];
        children.push(shared.cells.alloc(ctx, CellNode::new_body(ids[m], b.pos, b.mass, b.cost)));
        cell.merge_summary(b.mass, b.pos, b.cost.max(1) as u64, 1);
    }
    for (slot, ptr) in cell.children.iter_mut().zip(children) {
        *slot = ptr;
    }
    cell.done = true;
    let ptr = shared.cells.alloc(ctx, cell);
    st.my_cells.push(ptr);
    ptr
}

/// Allocates (on rank 0) the empty global root for the merged build and
/// publishes it.  Must be followed by a barrier.
pub fn allocate_merge_root(ctx: &Ctx, shared: &BhShared, center: Vec3, rsize: f64) {
    if ctx.rank() == 0 {
        let mut root = CellNode::new_cell(center, rsize / 2.0);
        root.done = true;
        let ptr = shared.cells.alloc(ctx, root);
        shared.root.write(ctx, ptr);
    }
}

/// Merges this rank's local tree (rooted at `local_root`) into the global
/// tree.
///
/// Cells allocated along the way (slot subdivisions) are recorded in
/// `st.my_cells` so the tree-lifecycle re-fold can reset and re-summarize
/// them on reuse steps; per-step rebuild simply clears the list.
pub fn merge_into_global(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    local_root: GlobalPtr,
) {
    if local_root.is_null() {
        return;
    }
    let global_root = shared.root.read(ctx);
    let lnode = shared.cells.read_local(ctx, local_root);
    match lnode.kind {
        NodeKind::Cell => merge_cells(ctx, shared, st, cfg, local_root, global_root),
        // A rank that owns a single body has a bare leaf as its local tree:
        // insert it like any other displaced body.
        NodeKind::Body => insert_leaf_into_global(ctx, shared, st, local_root, &lnode, global_root),
    }
}

/// Merges local cell `l` (owned by this rank, valid summary) into global cell
/// `g` (same geometry).
fn merge_cells(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    l: GlobalPtr,
    g: GlobalPtr,
) {
    let lnode = shared.cells.read_local(ctx, l);
    // Fold the whole subtree's summary into the global cell atomically.
    shared.cells.update(ctx, g, |cell| {
        cell.merge_summary(lnode.mass, lnode.cofm, lnode.cost, lnode.nbodies);
    });
    ctx.bill(Price::TreeOp, 1);
    for octant in 0..8 {
        let lchild = lnode.children[octant];
        if !lchild.is_null() {
            merge_child(ctx, shared, st, cfg, g, octant, lchild);
        }
    }
}

/// Swaps `expect` for `replacement` in slot `octant` of cell `g`, under the
/// cell's lock.  Returns `false` when the slot no longer holds `expect`.
///
/// The mutation goes through [`pgas::SharedArena::update`] (same get+put
/// billing as a read-then-write) rather than a whole-node read/write so that
/// it cannot clobber a concurrent atomic summary fold on `g`: summary merges
/// take only the element lock, not [`BhShared::lock_for`], so writing back a
/// stale full node here would silently drop them.
pub(crate) fn swap_child_slot(
    ctx: &Ctx,
    shared: &BhShared,
    g: GlobalPtr,
    octant: usize,
    expect: GlobalPtr,
    replacement: GlobalPtr,
) -> bool {
    let guard = shared.lock_for(g).lock(ctx);
    let swapped = shared.cells.update(ctx, g, |cell| {
        if cell.children[octant] == expect {
            cell.children[octant] = replacement;
            true
        } else {
            false
        }
    });
    drop(guard);
    swapped
}

/// Merges the local node `lchild` into slot `octant` of global cell `g`.
fn merge_child(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    g: GlobalPtr,
    octant: usize,
    lchild: GlobalPtr,
) {
    let lnode = shared.cells.read_local(ctx, lchild);
    loop {
        let gnode = shared.cells.read(ctx, g);
        let gchild = gnode.children[octant];

        if gchild.is_null() {
            // Try to hook the whole local subtree with one pointer update.
            if swap_child_slot(ctx, shared, g, octant, GlobalPtr::NULL, lchild) {
                return;
            }
            continue; // Lost the race; re-evaluate.
        }

        let gchild_node = shared.cells.read(ctx, gchild);
        match (gchild_node.kind, lnode.kind) {
            (NodeKind::Cell, NodeKind::Cell) => {
                merge_cells(ctx, shared, st, cfg, lchild, gchild);
                return;
            }
            (NodeKind::Cell, NodeKind::Body) => {
                insert_leaf_into_global(ctx, shared, st, lchild, &lnode, gchild);
                return;
            }
            (NodeKind::Body, NodeKind::Cell) => {
                // Swap: our cell takes the slot, the displaced body is
                // re-inserted below it.
                if !swap_child_slot(ctx, shared, g, octant, gchild, lchild) {
                    continue;
                }
                insert_leaf_into_global(ctx, shared, st, gchild, &gchild_node, lchild);
                return;
            }
            (NodeKind::Body, NodeKind::Body) => {
                // Two bodies collide in the slot: subdivide.  The new cell is
                // allocated before the swap (a cell's geometry and a body
                // leaf's summary are immutable, so nothing can go stale); a
                // lost swap merely strands the allocation until the arena
                // clear at the next teardown.
                let (ccenter, chalf) = gnode.child_geometry(octant);
                let mut new_cell = CellNode::new_cell(ccenter, chalf);
                new_cell.done = true;
                new_cell.merge_summary(gchild_node.mass, gchild_node.cofm, gchild_node.cost, 1);
                new_cell.children[new_cell.octant_of(gchild_node.cofm)] = gchild;
                let new_ptr = shared.cells.alloc(ctx, new_cell);
                st.my_cells.push(new_ptr);
                if !swap_child_slot(ctx, shared, g, octant, gchild, new_ptr) {
                    continue;
                }
                insert_leaf_into_global(ctx, shared, st, lchild, &lnode, new_ptr);
                return;
            }
        }
    }
}

/// Inserts a body leaf (`leaf_ptr`, whose contents are `leaf`) into the
/// global subtree rooted at `cell_ptr`, atomically folding its summary into
/// every cell it descends through.
fn insert_leaf_into_global(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    leaf_ptr: GlobalPtr,
    leaf: &CellNode,
    cell_ptr: GlobalPtr,
) {
    let mut cur = cell_ptr;
    let mut depth = 0usize;
    // Outer loop: one iteration per *cell on the descent path*, folding the
    // leaf's summary into that cell exactly once.  The inner loop retries
    // lost slot races without re-folding (a retry used to re-run the fold,
    // double-counting the leaf in `cur` whenever another rank won a hook or
    // subdivision race).
    'descend: loop {
        depth += 1;
        shared.cells.update(ctx, cur, |cell| {
            cell.merge_summary(leaf.mass, leaf.cofm, leaf.cost, 1);
        });
        ctx.bill(Price::TreeOp, 1);
        if depth > MAX_DEPTH + 16 {
            // Coincident bodies: fold into the cell summary only (the body is
            // then represented by the aggregate, an approximation that never
            // triggers with Plummer inputs).
            return;
        }
        loop {
            let node = shared.cells.read(ctx, cur);
            let octant = node.octant_of(leaf.cofm);
            let child = node.children[octant];

            if child.is_null() {
                if swap_child_slot(ctx, shared, cur, octant, GlobalPtr::NULL, leaf_ptr) {
                    return;
                }
                continue;
            }

            let child_node = shared.cells.read(ctx, child);
            if child_node.is_cell() {
                cur = child;
                continue 'descend;
            }
            // Body/body collision: subdivide and keep descending (see
            // `merge_child` for why the allocation precedes the swap).
            let (ccenter, chalf) = node.child_geometry(octant);
            let mut new_cell = CellNode::new_cell(ccenter, chalf);
            new_cell.done = true;
            new_cell.merge_summary(child_node.mass, child_node.cofm, child_node.cost, 1);
            new_cell.children[new_cell.octant_of(child_node.cofm)] = child;
            let new_ptr = shared.cells.alloc(ctx, new_cell);
            st.my_cells.push(new_ptr);
            if !swap_child_slot(ctx, shared, cur, octant, child, new_ptr) {
                continue;
            }
            cur = new_ptr;
            continue 'descend;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::RankState;
    use crate::treebuild::bounding_box_phase;
    use engine::config::{OptLevel, SimConfig};
    use nbody::body::center_of_mass;
    use pgas::Runtime;

    fn build_merged(nbodies: usize, ranks: usize) -> (BhShared, SimConfig) {
        let cfg = SimConfig::test(nbodies, ranks, OptLevel::MergedTreeBuild);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(cfg.machine.clone());
        rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            let (center, rsize) = bounding_box_phase(ctx, &shared, &mut st, &cfg);
            allocate_merge_root(ctx, &shared, center, rsize);
            ctx.barrier();
            let local_root = build_local_tree(ctx, &shared, &mut st, &cfg);
            ctx.barrier();
            merge_into_global(ctx, &shared, &mut st, &cfg, local_root);
            ctx.barrier();
        });
        (shared, cfg)
    }

    /// Checks that the merged tree contains every body exactly once and that
    /// every cell's summary equals the sum of its children.
    fn check_merged_tree(shared: &BhShared, nbodies: usize) {
        let root = shared.root.read_raw();
        assert!(!root.is_null());
        let mut seen = vec![false; nbodies];
        fn visit(shared: &BhShared, ptr: GlobalPtr, seen: &mut [bool]) -> (u32, f64, Vec3) {
            let node = shared.cells.read_raw(ptr);
            match node.kind {
                NodeKind::Body => {
                    assert!(!seen[node.body_id as usize], "body {} appears twice", node.body_id);
                    seen[node.body_id as usize] = true;
                    (1, node.mass, node.cofm * node.mass)
                }
                NodeKind::Cell => {
                    let mut count = 0u32;
                    let mut mass = 0.0;
                    let mut moment = Vec3::ZERO;
                    for c in node.children {
                        if !c.is_null() {
                            let (n, m, mm) = visit(shared, c, seen);
                            count += n;
                            mass += m;
                            moment += mm;
                        }
                    }
                    assert_eq!(count, node.nbodies, "body count mismatch in merged cell");
                    assert!((mass - node.mass).abs() < 1e-9, "mass mismatch in merged cell");
                    if mass > 0.0 {
                        let cofm = moment / mass;
                        assert!(
                            (cofm - node.cofm).norm() < 1e-6,
                            "centre of mass mismatch: {:?} vs {:?}",
                            cofm,
                            node.cofm
                        );
                    }
                    (count, mass, moment)
                }
            }
        }
        let (count, _, _) = visit(shared, root, &mut seen);
        assert_eq!(count as usize, nbodies);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn merged_tree_single_rank() {
        let (shared, _) = build_merged(100, 1);
        check_merged_tree(&shared, 100);
    }

    #[test]
    fn merged_tree_contains_all_bodies_multi_rank() {
        for ranks in [2, 3, 5, 8] {
            let (shared, _) = build_merged(240, ranks);
            check_merged_tree(&shared, 240);
        }
    }

    #[test]
    fn merged_root_summary_matches_global_center_of_mass() {
        let (shared, _) = build_merged(300, 4);
        let bodies = shared.bodytab.snapshot();
        let root = shared.cells.read_raw(shared.root.read_raw());
        assert!((root.mass - bodies.iter().map(|b| b.mass).sum::<f64>()).abs() < 1e-9);
        assert!((root.cofm - center_of_mass(&bodies)).norm() < 1e-6);
        assert_eq!(root.nbodies as usize, 300);
    }

    #[test]
    fn merged_build_uses_no_remote_traffic_on_one_rank() {
        let cfg = SimConfig::test(100, 1, OptLevel::MergedTreeBuild);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(cfg.machine.clone());
        let report = rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            let (center, rsize) = bounding_box_phase(ctx, &shared, &mut st, &cfg);
            allocate_merge_root(ctx, &shared, center, rsize);
            let local_root = build_local_tree(ctx, &shared, &mut st, &cfg);
            merge_into_global(ctx, &shared, &mut st, &cfg, local_root);
            ctx.stats_snapshot().remote_gets
        });
        assert_eq!(report.ranks[0].result, 0);
    }
}
