//! The tree-lifecycle subsystem: persistent-tree time stepping.
//!
//! The paper's protocol ([`TreePolicy::Rebuild`]) tears the global octree
//! down after every step and rebuilds it from nothing, which is what its
//! 4-step measurement window does — but over a long trajectory the bodies
//! barely move between steps, so almost all of that work recreates the tree
//! that was just discarded.  Under [`TreePolicy::Reuse`] this module keeps
//! the shared tree alive across steps:
//!
//! * every full build records, per body, a [`LeafSite`] — the leaf node's
//!   pointer, its parent cell and octant slot, and the bounds of the
//!   sub-cube the body occupied — in a shared side table that migrates with
//!   body ownership;
//! * at the start of each step, [`decide`] probes every owned body against
//!   its site: bodies still inside their sub-cube only need their leaf
//!   payload refreshed in place, bodies that left it must be re-inserted.
//!   A collective vote turns the per-rank drift counts into one global
//!   decision — reuse, or fall back to a full rebuild (cadence reached,
//!   drift threshold crossed, bounding box outgrew the persistent root, or
//!   any rank lost track of a leaf);
//! * [`incremental_update`] applies a reuse step: in-place leaf refreshes,
//!   detach + re-insert of the drifted bodies (re-using their leaf nodes,
//!   subdividing under the same locks a fresh insertion would take), and a
//!   bottom-up re-fold of every cell's (mass, centre of mass, cost, count)
//!   summary along the dirtied paths — which, bodies being bodies, is every
//!   path, so the re-fold runs over each rank's created cells with the same
//!   done-flag protocol as the centre-of-mass phase, but through cast-local
//!   pointers (the cells were allocated by this rank, §5.2 discipline);
//! * a *tree generation* counter increments on every full build; snapshots
//!   record it beside their anchor.
//!
//! Only the tree persists.  The force cache ([`crate::cache::CacheTree`])
//! is built fresh every force phase under every policy, as the paper's is:
//! a reuse step localizes the cells it opens again, one `TreeOp` each.
//!
//! The persistent tree targets the global-insertion family (§4–§5.3),
//! where per-step rebuild means every body descending the shared tree
//! under locks; the upc capability row ([`crate::backend::CAPS`]) refuses
//! a reusing policy on the upper rungs, whose merged and subspace builds
//! already rebuild cheaply every step.
//! [`TreePolicy::Rebuild`] short-circuits out of every function here,
//! keeping the paper's protocol bit-for-bit identical to the pre-lifecycle
//! solver.

use crate::cellnode::{CellNode, NodeKind};
use crate::mergetree::swap_child_slot;
use crate::shared::{read_body, BhShared, RankState};
use engine::config::{SimConfig, TreePolicy, MAX_DEPTH};
use nbody::{Body, Vec3};
use pgas::{Ctx, GlobalPtr, Price};
use std::collections::HashMap;

/// Where a body's leaf lives in the persistent tree: recorded at every full
/// build, kept fresh by the incremental update, stored in
/// [`BhShared::sites`] so it migrates with body ownership.
#[derive(Debug, Clone, Copy)]
pub struct LeafSite {
    /// The body-leaf node in the cell arena (stable across reuse steps; the
    /// incremental update re-uses the allocation when re-inserting).
    pub leaf: GlobalPtr,
    /// The cell whose child slot held the leaf when the site was recorded.
    /// A *hint*: concurrent subdivisions may relocate the leaf one level
    /// down, in which case the detach falls back to a descent.
    pub parent: GlobalPtr,
    /// Slot within `parent`.
    pub octant: u8,
    /// Centre of the containing cell's cube — the drift-test bound.  (The
    /// leaf *slot*'s octant sub-cube would be the tight bound, but with
    /// leaf capacity 1 those cubes are so small that most bodies exit them
    /// every step; the cell cube keeps the tree geometrically consistent —
    /// every ancestor still contains the body — while cutting the re-insert
    /// rate by ~8x per level.  Summaries stay exact either way: the re-fold
    /// recomputes them from the true positions.)
    pub center: Vec3,
    /// Half side length of the containing cell's cube.
    pub half: f64,
    /// `false` when the body could not be located in the tree (pathological
    /// coincident-body fallbacks); forces a rebuild.
    pub valid: bool,
}

impl LeafSite {
    /// The "no site recorded" sentinel.
    pub const INVALID: LeafSite = LeafSite {
        leaf: GlobalPtr::NULL,
        parent: GlobalPtr::NULL,
        octant: 0,
        center: Vec3::ZERO,
        half: 0.0,
        valid: false,
    };

    /// `true` when `pos` is still inside the recorded cell cube.
    #[inline]
    pub fn contains(&self, pos: Vec3) -> bool {
        (pos.x - self.center.x).abs() <= self.half
            && (pos.y - self.center.y).abs() <= self.half
            && (pos.z - self.center.z).abs() <= self.half
    }

    /// `true` when `pos` is still inside the *slot* sub-cube (the recorded
    /// octant of the cell cube).  A body outside its slot but inside the
    /// cell is where the persistent tree and a fresh rebuild first diverge
    /// structurally; `drift_threshold: 0` counts these as drift so that the
    /// policy stays bit-for-bit equivalent to per-step rebuild.
    #[inline]
    pub fn slot_contains(&self, pos: Vec3) -> bool {
        let q = self.half / 2.0;
        let cx = self.center.x + if self.octant & 1 != 0 { q } else { -q };
        let cy = self.center.y + if self.octant & 2 != 0 { q } else { -q };
        let cz = self.center.z + if self.octant & 4 != 0 { q } else { -q };
        (pos.x - cx).abs() <= q && (pos.y - cy).abs() <= q && (pos.z - cz).abs() <= q
    }
}

/// Per-rank lifecycle bookkeeping.  All fields that feed the reuse/rebuild
/// decision are either derived from collectives or updated identically on
/// every rank, so the decision itself never diverges between ranks.
#[derive(Debug, Clone)]
pub struct TreeLifecycle {
    /// Generation of the persistent tree; increments on every full build.
    /// Snapshots record it ([`engine::drive::Solver::anchor`]).
    pub generation: u64,
    /// `true` while a persistent tree from an earlier step is alive.
    pub valid: bool,
    /// Step index of the last full build.
    pub last_rebuild_step: usize,
    /// Set when a reuse step could not keep the tree geometrically exact
    /// (an un-detachable or un-locatable leaf); the next decision rebuilds.
    pub degraded: bool,
    /// Root-cell centre of the persistent tree (the bounding-box fit test).
    pub root_center: Vec3,
    /// Root-cell half side length of the persistent tree.
    pub root_half: f64,
    /// Total cell-arena population right after the last full build.  Reuse
    /// steps only ever grow the arena (detached structure is never
    /// reclaimed mid-generation), so the decision forces a rebuild once the
    /// arena doubles — bounding tree garbage even under an unbounded
    /// rebuild cadence.
    pub cells_at_build: usize,
}

impl Default for TreeLifecycle {
    fn default() -> Self {
        TreeLifecycle {
            generation: 0,
            valid: false,
            last_rebuild_step: 0,
            degraded: false,
            root_center: Vec3::ZERO,
            root_half: 0.0,
            cells_at_build: 0,
        }
    }
}

/// One owned body's probe result, computed once by [`decide`] and re-used by
/// [`incremental_update`] so the body table is not read twice.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Global body id.
    pub id: u32,
    /// The body's current state (post-advance of the previous step).
    pub body: Body,
    /// Its recorded leaf site.
    pub site: LeafSite,
    /// `true` when the body is still inside its site's sub-cube.
    pub clean: bool,
}

/// The per-step build decision.
pub enum StepBuild {
    /// Tear down (if needed) and build from scratch.
    Rebuild,
    /// Keep the tree; apply [`incremental_update`] over these probes.
    Reuse(Vec<Probe>),
}

/// Decides whether this step reuses the persistent tree or rebuilds.
///
/// Under [`TreePolicy::Rebuild`] this returns
/// immediately with no communication and no charges — the paper's protocol
/// is untouched.  Otherwise every rank probes its owned bodies against
/// their recorded sites and one allgather combines the drift counts and
/// validity flags into a decision that is identical on every rank.
pub fn decide(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    step: usize,
) -> StepBuild {
    if !cfg.tree_policy.reuses_tree() {
        return StepBuild::Rebuild;
    }

    // Inputs that are identical on every rank by construction (`valid` and
    // `last_rebuild_step` only change on globally agreed rebuilds) decide a
    // cadence-forced rebuild up front — no probe pass, no collective, no
    // wasted per-body reads on a step that was going to rebuild anyway.
    let since = step.saturating_sub(st.lifecycle.last_rebuild_step);
    let cadence_due = !st.lifecycle.valid
        || match cfg.tree_policy {
            TreePolicy::Rebuild => true,
            TreePolicy::Reuse { rebuild_every, .. } => since >= rebuild_every,
        };
    // The arena only grows during reuse (nothing is reclaimed
    // mid-generation); once it has doubled since the last build, the
    // accumulated garbage costs more than a rebuild.  `total_len` is stable
    // between steps and identical on every rank, so this stays a uniform
    // local decision.
    let bloated = shared.cells.total_len() > 2 * st.lifecycle.cells_at_build.max(1);
    if cadence_due || bloated {
        return StepBuild::Rebuild;
    }

    // `drift_threshold: 0` is the strict mode: even within-cell movement (a
    // body changing octant inside its cell — the first point where the
    // persistent tree and a fresh rebuild diverge structurally) counts as
    // drift, so any reuse step the policy still allows is bit-for-bit a
    // rebuild.  Above zero, the threshold gates the re-insert fraction —
    // the bodies that actually left their leaf's cell bounds.
    let strict = matches!(cfg.tree_policy, TreePolicy::Reuse { drift_threshold, .. } if drift_threshold == 0.0);

    let mut probes = Vec::new();
    let mut dirty = 0u64;
    let mut lost = false;
    for i in 0..st.my_ids.len() {
        let id = st.my_ids[i];
        let body = read_body(ctx, shared, st, cfg, id);
        let site = read_site(ctx, shared, st, cfg, id);
        if !site.valid {
            lost = true;
        }
        let clean = site.valid && site.contains(body.pos);
        let drifted = if strict { !(site.valid && site.slot_contains(body.pos)) } else { !clean };
        if drifted {
            dirty += 1;
        }
        probes.push(Probe { id, body, site, clean });
    }
    ctx.bill(Price::TreeOp, st.my_ids.len() as u64);

    // The new bounding box (stashed by the bounding-box phase) must still
    // fit inside the persistent root cell, or insertions would walk off the
    // tree's geometry.
    let fits = {
        let c = st.lifecycle.root_center;
        let h = st.lifecycle.root_half;
        let inside =
            |p: Vec3| (p.x - c.x).abs() <= h && (p.y - c.y).abs() <= h && (p.z - c.z).abs() <= h;
        inside(st.bbox_lo) && inside(st.bbox_hi)
    };
    let bad = lost || st.lifecycle.degraded || !fits;

    // One collective turns the per-rank observations into a global decision.
    let votes = ctx.allgather((dirty, st.my_ids.len() as u64, bad as u8));
    let total_dirty: u64 = votes.iter().map(|v| v.0).sum();
    let total_owned: u64 = votes.iter().map(|v| v.1).sum();
    let any_bad = votes.iter().any(|v| v.2 != 0);
    let drift = total_dirty as f64 / total_owned.max(1) as f64;

    let rebuild = any_bad
        || match cfg.tree_policy {
            TreePolicy::Rebuild => true,
            TreePolicy::Reuse { drift_threshold, .. } => drift > drift_threshold,
        };
    if std::env::var("BH_LIFECYCLE_TRACE").is_ok() && ctx.rank() == 0 {
        eprintln!("[lifecycle] step {step}: drift {:.3} since {since} rebuild={rebuild}", drift);
    }
    if rebuild {
        StepBuild::Rebuild
    } else {
        StepBuild::Reuse(probes)
    }
}

/// Tears down the persistent tree before a full rebuild.  A no-op when no
/// tree survived the previous step (first step, or [`TreePolicy::Rebuild`],
/// whose per-step teardown already ran), so the rebuild-only path keeps its
/// exact pre-lifecycle barrier structure.
pub fn clear_stale_tree(ctx: &Ctx, shared: &BhShared, st: &mut RankState) {
    if !st.lifecycle.valid {
        return;
    }
    st.my_cells.clear();
    if ctx.rank() == 0 {
        shared.cells.clear(ctx);
        shared.root.write_raw(GlobalPtr::NULL);
    }
    ctx.barrier();
    st.lifecycle.valid = false;
}

/// Finishes a full build under a persistent policy: bumps the tree
/// generation, records the root geometry, and captures every owned body's
/// [`LeafSite`] by one memoized descent pass over the fresh tree.
pub fn after_rebuild(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    step: usize,
    center: Vec3,
    rsize: f64,
) {
    st.lifecycle.generation += 1;
    st.lifecycle.valid = true;
    st.lifecycle.degraded = false;
    st.lifecycle.last_rebuild_step = step;
    st.lifecycle.root_center = center;
    st.lifecycle.root_half = rsize / 2.0;
    st.lifecycle.cells_at_build = shared.cells.total_len();
    capture_sites(ctx, shared, st, cfg);
    ctx.barrier();
}

/// Records the [`LeafSite`] of every body this rank owns by descending the
/// freshly built tree.  Cells are read (and billed) once each per rank via a
/// memo, like a force-phase cache warm-up; a body that cannot be located
/// (the coincident-body give-up of the builders drops bodies from the tree)
/// marks the rank degraded, which forces the next decision to rebuild.
fn capture_sites(ctx: &Ctx, shared: &BhShared, st: &mut RankState, cfg: &SimConfig) {
    let root_ptr = shared.root.read(ctx);
    let mut memo: HashMap<GlobalPtr, CellNode> = HashMap::new();
    for i in 0..st.my_ids.len() {
        let id = st.my_ids[i];
        let body = read_body(ctx, shared, st, cfg, id);
        let site = locate_leaf(ctx, shared, &mut memo, root_ptr, id, body.pos);
        if !site.valid {
            st.lifecycle.degraded = true;
        }
        write_site(ctx, shared, st, cfg, id, site);
    }
}

/// Descends from `root` to body `id`'s leaf, returning its site (or
/// [`LeafSite::INVALID`] when the body is not reachable by its position).
fn locate_leaf(
    ctx: &Ctx,
    shared: &BhShared,
    memo: &mut HashMap<GlobalPtr, CellNode>,
    root: GlobalPtr,
    id: u32,
    pos: Vec3,
) -> LeafSite {
    let mut cur = root;
    for _ in 0..MAX_DEPTH + 32 {
        let node = read_cell_memo(ctx, shared, memo, cur);
        if node.kind != NodeKind::Cell {
            return LeafSite::INVALID;
        }
        ctx.bill(Price::TreeOp, 1);
        let octant = node.octant_of(pos);
        let mut next = GlobalPtr::NULL;
        let child = node.children[octant];
        if !child.is_null() {
            let cn = read_cell_memo(ctx, shared, memo, child);
            if cn.is_body() && cn.body_id == id {
                return LeafSite {
                    leaf: child,
                    parent: cur,
                    octant: octant as u8,
                    center: node.center,
                    half: node.half,
                    valid: true,
                };
            }
            if cn.is_cell() {
                next = child;
            }
        }
        // Coincident-body buckets hang their leaves in arbitrary slots, so
        // an octant miss falls back to scanning the cell.  The recorded
        // bounds are then the parent's cube (conservative: the leaf slot's
        // octant cube does not correspond to the body's position).
        if next.is_null() {
            for o in 0..8 {
                let c = node.children[o];
                if c.is_null() || o == octant {
                    continue;
                }
                let cn = read_cell_memo(ctx, shared, memo, c);
                if cn.is_body() && cn.body_id == id {
                    return LeafSite {
                        leaf: c,
                        parent: cur,
                        octant: o as u8,
                        center: node.center,
                        half: node.half,
                        valid: true,
                    };
                }
            }
            return LeafSite::INVALID;
        }
        cur = next;
    }
    LeafSite::INVALID
}

/// Reads a cell through the memo, billing the shared-pointer read once per
/// distinct cell per capture pass.
fn read_cell_memo(
    ctx: &Ctx,
    shared: &BhShared,
    memo: &mut HashMap<GlobalPtr, CellNode>,
    ptr: GlobalPtr,
) -> CellNode {
    if let Some(node) = memo.get(&ptr) {
        return *node;
    }
    let node = shared.cells.read(ctx, ptr);
    memo.insert(ptr, node);
    node
}

/// Applies one reuse step to the persistent tree: in-place leaf refreshes,
/// detach + re-insert of the drifted bodies, and the bottom-up summary
/// re-fold.  Runs entirely inside the tree-building phase; the separate
/// centre-of-mass phase has nothing left to do afterwards.
pub fn incremental_update(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    probes: Vec<Probe>,
) {
    // Phase A: refresh clean leaves in place (the leaf pointer is the
    // stable handle — relocations never change it) and detach the dirty
    // ones from their parent slots.
    let mut dirty: Vec<Probe> = Vec::new();
    for p in probes {
        let fresh = CellNode::new_body(p.id, p.body.pos, p.body.mass, p.body.cost);
        if p.clean {
            shared.cells.write(ctx, p.site.leaf, fresh);
            ctx.bill(Price::TreeOp, 1);
        } else if detach_leaf(ctx, shared, &p.site) {
            dirty.push(p);
        } else {
            // The leaf could not be located (a lost relocation race):
            // refresh it where it is — summaries stay exact, only the
            // spatial partition degrades — and rebuild next step.
            shared.cells.write(ctx, p.site.leaf, fresh);
            ctx.bill(Price::TreeOp, 1);
            st.lifecycle.degraded = true;
        }
    }
    ctx.barrier();

    // Phase B: re-insert the detached bodies, re-using their leaf nodes.
    let root = shared.root.read(ctx);
    for p in &dirty {
        let fresh = CellNode::new_body(p.id, p.body.pos, p.body.mass, p.body.cost);
        shared.cells.write(ctx, p.site.leaf, fresh);
        reinsert_leaf(ctx, shared, st, cfg, root, p.site.leaf, &fresh);
    }
    ctx.barrier();

    // Phase C: re-fold summaries bottom-up.  Every body moved, so every
    // root-to-leaf path is dirty: reset the done flags of the cells this
    // rank created (they live in its own region — cast-local accesses) and
    // run the done-flag fold, children before parents.
    for i in 0..st.my_cells.len() {
        let ptr = st.my_cells[i];
        let mut node = shared.cells.read_local(ctx, ptr);
        node.done = false;
        shared.cells.write_local(ctx, ptr, node);
    }
    if ctx.rank() == 0 && !root.is_null() {
        let mut node = shared.cells.read_local(ctx, root);
        node.done = false;
        shared.cells.write_local(ctx, root, node);
    }
    ctx.barrier();
    refold_cells(ctx, shared, st);
    ctx.barrier();
}

/// Unhooks a leaf from the tree: first through its site hint, then (if a
/// relocation made the hint stale) by descending along the leaf's recorded
/// position.  Returns `false` when the leaf cannot be found.
fn detach_leaf(ctx: &Ctx, shared: &BhShared, site: &LeafSite) -> bool {
    if !site.parent.is_null()
        && swap_child_slot(
            ctx,
            shared,
            site.parent,
            site.octant as usize,
            site.leaf,
            GlobalPtr::NULL,
        )
    {
        return true;
    }
    // Hint stale: the leaf still holds the position it was placed by (dirty
    // leaves are not refreshed before detaching), so a descent finds it.
    let placed_at = shared.cells.read(ctx, site.leaf).cofm;
    let mut cur = shared.root.read(ctx);
    for _ in 0..MAX_DEPTH + 32 {
        if cur.is_null() {
            return false;
        }
        let node = shared.cells.read(ctx, cur);
        if node.kind != NodeKind::Cell {
            return false;
        }
        ctx.bill(Price::TreeOp, 1);
        if let Some(o) = (0..8).find(|&o| node.children[o] == site.leaf) {
            if swap_child_slot(ctx, shared, cur, o, site.leaf, GlobalPtr::NULL) {
                return true;
            }
            continue;
        }
        let child = node.children[node.octant_of(placed_at)];
        if child.is_null() {
            return false;
        }
        if shared.cells.read(ctx, child).is_body() {
            return false;
        }
        cur = child;
    }
    false
}

/// Re-inserts a detached leaf under the same locking discipline as a fresh
/// insertion, recording its new site (and keeping the site of any body leaf
/// a subdivision relocates fresh).
fn reinsert_leaf(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    root: GlobalPtr,
    leaf_ptr: GlobalPtr,
    leaf: &CellNode,
) {
    let mut cur = root;
    let mut depth = 0usize;
    loop {
        depth += 1;
        if depth > MAX_DEPTH + 16 {
            // Pathologically coincident bodies: leave the body out of the
            // tree for this step (its mass is missing from the summaries
            // until the forced rebuild, exactly like the builders' give-up).
            write_site(ctx, shared, st, cfg, leaf.body_id, LeafSite::INVALID);
            st.lifecycle.degraded = true;
            return;
        }
        let node = shared.cells.read(ctx, cur);
        debug_assert_eq!(node.kind, NodeKind::Cell, "re-insert descent must stay on cells");
        ctx.bill(Price::TreeOp, 1);
        let octant = node.octant_of(leaf.cofm);
        let child = node.children[octant];

        if child.is_null() {
            if swap_child_slot(ctx, shared, cur, octant, GlobalPtr::NULL, leaf_ptr) {
                let site = LeafSite {
                    leaf: leaf_ptr,
                    parent: cur,
                    octant: octant as u8,
                    center: node.center,
                    half: node.half,
                    valid: true,
                };
                write_site(ctx, shared, st, cfg, leaf.body_id, site);
                return;
            }
            continue; // Lost the race; re-read the slot.
        }

        let child_node = shared.cells.read(ctx, child);
        if child_node.is_cell() {
            cur = child;
            continue;
        }

        // The slot holds another body: subdivide under the cell's lock,
        // exactly like a fresh insertion, and keep the displaced body's
        // site fresh.
        let guard = shared.lock_for(cur).lock(ctx);
        let fresh = shared.cells.read(ctx, cur);
        if fresh.children[octant] != child {
            drop(guard);
            continue;
        }
        let (ccenter, chalf) = fresh.child_geometry(octant);
        let mut new_cell = CellNode::new_cell(ccenter, chalf);
        let existing_octant = new_cell.octant_of(child_node.cofm);
        new_cell.children[existing_octant] = child;
        let new_ptr = shared.cells.alloc(ctx, new_cell);
        st.my_cells.push(new_ptr);
        let mut updated = fresh;
        updated.children[octant] = new_ptr;
        shared.cells.write(ctx, cur, updated);
        drop(guard);

        // The displaced body was clean under the *parent's* cube, so it may
        // lie outside the new sub-cell it was re-hung in (an octant change
        // within its cell).  Recording the sub-cell cube then would make
        // `contains` fail every step and re-insert the body forever; fall
        // back to the cube that is known to contain it.
        let mut displaced = LeafSite {
            leaf: child,
            parent: new_ptr,
            octant: existing_octant as u8,
            center: ccenter,
            half: chalf,
            valid: true,
        };
        if !displaced.contains(child_node.cofm) {
            displaced.center = fresh.center;
            displaced.half = fresh.half;
        }
        write_site(ctx, shared, st, cfg, child_node.body_id, displaced);
        cur = new_ptr;
    }
}

/// The bottom-up summary re-fold: the same done-flag protocol (and the same
/// per-cell arithmetic, so a zero-drift reuse step reproduces a fresh
/// build's summaries bit for bit at the insertion levels) as the
/// centre-of-mass phase, but reading each rank's own cells through cast
/// local pointers and taking child payloads from the leaves themselves —
/// the refreshed leaf *is* the body record.
fn refold_cells(ctx: &Ctx, shared: &BhShared, st: &RankState) {
    let pending = crate::treebuild::summary_pending(ctx, shared, st);
    crate::treebuild::drain_summaries(pending, |ptr| try_refold_cell(ctx, shared, ptr));
}

/// Attempts to re-fold one cell; `false` when a child cell's summary is not
/// ready yet.
fn try_refold_cell(ctx: &Ctx, shared: &BhShared, ptr: GlobalPtr) -> bool {
    let node = if ptr.is_local_to(ctx.rank()) {
        shared.cells.read_local(ctx, ptr)
    } else {
        shared.cells.read(ctx, ptr)
    };
    if node.done {
        return true;
    }
    ctx.bill(Price::TreeOp, 1);
    let mut mass = 0.0;
    let mut moment = Vec3::ZERO;
    let mut cost = 0u64;
    let mut nbodies = 0u32;
    for octant in 0..8 {
        let child = node.children[octant];
        if child.is_null() {
            continue;
        }
        let child_node = if child.is_local_to(ctx.rank()) {
            shared.cells.read_local(ctx, child)
        } else {
            shared.cells.read(ctx, child)
        };
        match child_node.kind {
            NodeKind::Body => {
                mass += child_node.mass;
                moment += child_node.cofm * child_node.mass;
                cost += child_node.cost;
                nbodies += 1;
            }
            NodeKind::Cell => {
                if !child_node.done {
                    return false;
                }
                mass += child_node.mass;
                moment += child_node.cofm * child_node.mass;
                cost += child_node.cost;
                nbodies += child_node.nbodies;
            }
        }
    }
    let mut updated = node;
    updated.mass = mass;
    updated.cofm = if mass > 0.0 { moment / mass } else { node.center };
    updated.cost = cost;
    updated.nbodies = nbodies;
    updated.done = true;
    if ptr.is_local_to(ctx.rank()) {
        shared.cells.write_local(ctx, ptr, updated);
    } else {
        shared.cells.write(ctx, ptr, updated);
    }
    true
}

/// Reads body `id`'s site under the body-table access discipline: the
/// record migrates with ownership (it rides the same redistribution
/// transfers as the body), so owned sites cost a local access; foreign
/// sites are one remote get.  Only the drift probe reads sites.
fn read_site(ctx: &Ctx, shared: &BhShared, st: &RankState, cfg: &SimConfig, id: u32) -> LeafSite {
    if cfg.opt.redistributes_bodies() && st.owns(id) {
        ctx.bill(Price::LocalAccess, 1);
        shared.sites.read_raw(id as usize)
    } else {
        shared.sites.read(ctx, id as usize)
    }
}

/// Writes body `id`'s site (see [`read_site`] for the discipline).
fn write_site(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
    id: u32,
    site: LeafSite,
) {
    if cfg.opt.redistributes_bodies() && st.owns(id) {
        ctx.bill(Price::LocalAccess, 1);
        shared.sites.write_raw(id as usize, site);
    } else {
        shared.sites.write(ctx, id as usize, site);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treebuild::{
        allocate_root, bounding_box_phase, center_of_mass_phase, insert_owned_bodies,
    };
    use engine::config::OptLevel;
    use pgas::Runtime;

    fn reuse_cfg(nbodies: usize, ranks: usize) -> SimConfig {
        let mut cfg = SimConfig::test(nbodies, ranks, OptLevel::CacheLocalTree);
        cfg.tree_policy = TreePolicy::Reuse { rebuild_every: 8, drift_threshold: 1.0 };
        cfg
    }

    #[test]
    fn leaf_site_containment() {
        let site = LeafSite { center: Vec3::new(1.0, 1.0, 1.0), half: 0.5, ..LeafSite::INVALID };
        assert!(site.contains(Vec3::new(1.2, 0.9, 1.5)));
        assert!(!site.contains(Vec3::new(1.6, 1.0, 1.0)));
        assert!(!std::hint::black_box(LeafSite::INVALID).valid);
    }

    #[test]
    fn capture_locates_every_owned_body() {
        let cfg = reuse_cfg(200, 3);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(cfg.machine.clone());
        rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            let (center, rsize) = bounding_box_phase(ctx, &shared, &mut st, &cfg);
            allocate_root(ctx, &shared, center, rsize);
            ctx.barrier();
            insert_owned_bodies(ctx, &shared, &mut st, &cfg);
            ctx.barrier();
            center_of_mass_phase(ctx, &shared, &mut st, &cfg);
            ctx.barrier();
            after_rebuild(ctx, &shared, &mut st, &cfg, 0, center, rsize);
            assert!(!st.lifecycle.degraded, "every Plummer body must be locatable");
            // The recorded sites point at the actual leaves and contain the
            // bodies that produced them.
            for &id in &st.my_ids {
                let site = shared.sites.read_raw(id as usize);
                assert!(site.valid, "body {id} has no site");
                let leaf = shared.cells.read_raw(site.leaf);
                assert!(leaf.is_body());
                assert_eq!(leaf.body_id, id);
                let parent = shared.cells.read_raw(site.parent);
                assert_eq!(parent.children[site.octant as usize], site.leaf);
                let body = shared.bodytab.read_raw(id as usize);
                assert!(site.contains(body.pos), "body {id} outside its recorded sub-cube");
            }
            ctx.barrier();
        });
    }

    #[test]
    fn zero_drift_reuse_reproduces_the_summaries() {
        // Build, capture, then run an incremental update without moving any
        // body: the re-folded summaries must match what the fresh build
        // computed.
        let cfg = reuse_cfg(150, 2);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(cfg.machine.clone());
        let report = rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            let (center, rsize) = bounding_box_phase(ctx, &shared, &mut st, &cfg);
            allocate_root(ctx, &shared, center, rsize);
            ctx.barrier();
            insert_owned_bodies(ctx, &shared, &mut st, &cfg);
            ctx.barrier();
            center_of_mass_phase(ctx, &shared, &mut st, &cfg);
            ctx.barrier();
            after_rebuild(ctx, &shared, &mut st, &cfg, 0, center, rsize);
            ctx.barrier();
            let before = shared.cells.read_raw(shared.root.read_raw());

            let decision = decide(ctx, &shared, &mut st, &cfg, 1);
            let probes = match decision {
                StepBuild::Reuse(p) => p,
                StepBuild::Rebuild => panic!("unmoved bodies must allow reuse"),
            };
            assert!(probes.iter().all(|p| p.clean), "no body moved");
            incremental_update(ctx, &shared, &mut st, &cfg, probes);
            ctx.barrier();
            let after = shared.cells.read_raw(shared.root.read_raw());
            (before, after)
        });
        for r in &report.ranks {
            let (before, after) = &r.result;
            assert_eq!(before.mass.to_bits(), after.mass.to_bits());
            assert_eq!(before.cofm.x.to_bits(), after.cofm.x.to_bits());
            assert_eq!(before.nbodies, after.nbodies);
            assert!(after.done);
        }
    }

    #[test]
    fn drifted_bodies_are_reinserted_and_summaries_stay_exact() {
        let cfg = reuse_cfg(120, 2);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(cfg.machine.clone());
        rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            let (center, rsize) = bounding_box_phase(ctx, &shared, &mut st, &cfg);
            allocate_root(ctx, &shared, center, rsize);
            ctx.barrier();
            insert_owned_bodies(ctx, &shared, &mut st, &cfg);
            ctx.barrier();
            center_of_mass_phase(ctx, &shared, &mut st, &cfg);
            ctx.barrier();
            after_rebuild(ctx, &shared, &mut st, &cfg, 0, center, rsize);
            ctx.barrier();

            // Move a quarter of the owned bodies to fresh, pairwise
            // distinct spots well inside the root cube (guaranteed to leave
            // their leaf sub-cubes without creating coincident bodies).
            for (k, &id) in st.my_ids.iter().enumerate() {
                if k % 4 == 0 {
                    let mut b = shared.bodytab.read_raw(id as usize);
                    let f = id as f64;
                    b.pos = center + Vec3::new(0.3 + 0.002 * f, 0.1 - 0.001 * f, -0.2 + 0.0015 * f);
                    shared.bodytab.write_raw(id as usize, b);
                }
            }
            ctx.barrier();

            let decision = decide(ctx, &shared, &mut st, &cfg, 1);
            let probes = match decision {
                StepBuild::Reuse(p) => p,
                StepBuild::Rebuild => panic!("drift threshold 1.0 must not force a rebuild"),
            };
            assert!(probes.iter().any(|p| !p.clean), "some bodies must have drifted");
            incremental_update(ctx, &shared, &mut st, &cfg, probes);
            ctx.barrier();

            // The tree still contains every body exactly once and every
            // summary matches its subtree.
            if ctx.rank() == 0 {
                let root = shared.root.read_raw();
                let mut seen = vec![false; cfg.nbodies];
                fn visit(shared: &BhShared, ptr: GlobalPtr, seen: &mut [bool]) -> (u32, f64) {
                    let node = shared.cells.read_raw(ptr);
                    match node.kind {
                        NodeKind::Body => {
                            assert!(!seen[node.body_id as usize]);
                            seen[node.body_id as usize] = true;
                            (1, node.mass)
                        }
                        NodeKind::Cell => {
                            assert!(node.done, "re-fold must complete");
                            let mut count = 0;
                            let mut mass = 0.0;
                            for c in node.children {
                                if !c.is_null() {
                                    let (n, m) = visit(shared, c, seen);
                                    count += n;
                                    mass += m;
                                }
                            }
                            assert_eq!(count, node.nbodies, "stale body count after reuse");
                            assert!((mass - node.mass).abs() < 1e-9);
                            (count, mass)
                        }
                    }
                }
                let (count, _) = visit(&shared, root, &mut seen);
                assert_eq!(count as usize, cfg.nbodies, "a reused tree lost bodies");
                assert!(seen.iter().all(|&s| s));
            }
            ctx.barrier();
        });
    }
}
