//! Group tree-walks: one traversal per body *group*, evaluated through
//! per-group interaction lists ([`engine::config::WalkMode::Group`]).
//!
//! The per-body force walk — even with the §5.3 cache hiding the *second*
//! touch of every cell — still pays one full traversal per body, so the
//! number of multipole-acceptance tests scales with `n · depth`.  Barnes'
//! classic group-walk refinement ("A modified tree code: don't laugh, it
//! runs") amortizes one traversal over a whole group of nearby bodies:
//!
//! * the rank's owned bodies are partitioned into [`GROUP_SIZE`]-body
//!   groups by Morton order (spatially compact, so the group bounding boxes
//!   stay tight);
//! * each group walks the force cache **once**, producing an *interaction
//!   list* under a *conservative* opening criterion: a cell is opened when
//!   **any** point of the group's bounding box could open it under θ
//!   (`l/d_min ≥ θ` with `d_min` the box-to-centre-of-mass distance).
//!   Since every member body lies inside the box, `d_min ≤ d_body`, so
//!   every cell the group *accepts* would also be accepted by each member's
//!   own criterion — per-body accuracy is never worse;
//! * each list entry records how the box saw the cell.  Cells far even from
//!   the *nearest* box corner are [`EntryKind::Accepted`] for every member;
//!   cells near even at the *farthest* corner are [`EntryKind::Opened`] for
//!   every member (any member's own test would open them too).  For the
//!   borderline shell in between, the builder runs each member's *own*
//!   acceptance test once, at list-construction time: if every member
//!   accepts, the cell is recorded as [`EntryKind::Accepted`] and its
//!   subtree is never touched (no localization, no descent — exactly like
//!   the per-body walks, which never open it either); if every member
//!   opens, it is [`EntryKind::Opened`]; otherwise it is
//!   [`EntryKind::Mixed`] with a per-member accept bitmask and its subtree
//!   extent, and each member either takes the point mass and skips the
//!   subtree or streams the cell's coalesced leaf batch
//!   ([`crate::cache::LeafArena`]) and descends.  The member-level
//!   decisions therefore reproduce the per-body criterion *exactly*: with
//!   fresh lists the group walk computes bit-for-bit the per-body forces,
//!   the identical interaction count and the identical localization set,
//!   while the traversal volume (the `macs` counter: one group test per
//!   visited cell, plus the member tests of the borderline shell, billed
//!   once per list instead of once per body) drops by roughly the group
//!   occupancy — and a list reused across steps applies with no
//!   acceptance tests at all.
//!
//! Under a reuse-capable [`TreePolicy`](engine::config::TreePolicy), the
//! lists are carried across steps in [`crate::shared::RankState`] while the
//! tree generation is unchanged: payloads are epoch-refreshed lazily (the
//! same discipline as the cache itself), and a group's list is rebuilt when
//! a member migrated away, left the group's bounding box, had its leaf
//! relocated (the [`crate::lifecycle::LeafSite`] table records the leaf and
//! parent pointers), or when an opened list cell was subdivided underneath
//! (the epoch refresh drops its localization).  Under the strict
//! `drift_threshold: 0` reuse mode — whose contract is bit-for-bit
//! equivalence with per-step rebuild — lists are rebuilt every step, so the
//! walk sees exactly the tree a rebuild would have produced.

use crate::cache::CacheTree;
use crate::cellnode::NodeKind;
use crate::force::BodyForce;
use crate::lifecycle;
use crate::shared::{read_body, read_eps, read_theta, BhShared, RankState};
use engine::config::{SimConfig, TreePolicy};
use nbody::direct::pairwise_acceleration;
use nbody::{morton, Vec3};
use octree::walk::cell_is_far;
use pgas::{Ctx, GlobalPtr, Price};
use std::collections::{HashMap, HashSet};

/// Target number of bodies per walk group.  Eight matches one octree level
/// of fan-out: the Morton chunks stay within a few sibling leaf cells, so
/// the group boxes stay tight (the mixed borderline shell, where members
/// fall back to their own acceptance tests, stays thin) while the traversal
/// volume drops by roughly this factor.
pub const GROUP_SIZE: usize = 8;

/// When interaction lists are carried across steps, the group box is padded
/// by this many steps of the fastest member's motion (`pad = steps · v_max
/// · dt`).  A tight box would be invalidated by the very first move of
/// whichever member defines a face; the pad keeps the list conservative
/// for every position the members can reach before the next rebuild is due
/// anyway, at the cost of a slightly thicker mixed shell.
pub const LIST_PAD_STEPS: f64 = 1.0;

/// A cached list may be applied for at most this many steps after it was
/// built.  The box pad keeps a reused list *conservative*, but its
/// accept/open decisions are frozen at build time while the bodies and the
/// cell summaries keep moving; one step of that drift is a bounded, tested
/// approximation (fast coherently-moving workloads — rotating disks — are
/// the worst case), while longer freezes degrade accuracy for diminishing
/// traversal savings (most lists die to leaf relocations first anyway).
pub const MAX_LIST_AGE: u32 = 1;

/// How the group criterion classified a list entry's cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EntryKind {
    /// Every member takes the node as a point mass: far from every point of
    /// the group box, or borderline but accepted by every member's own test
    /// at build time (and body-leaf roots).  No subtree follows.
    Accepted,
    /// Every member streams the leaf batch: near even at the farthest box
    /// corner, or borderline but opened by every member's test.
    Opened,
    /// The members' own tests disagreed at build time: `mask` records who
    /// accepts (takes the point mass and jumps over the `skip` subtree
    /// entries) and who descends.
    Mixed,
}

/// One entry of a group's interaction list, in depth-first traversal order
/// (matching the per-body walk's evaluation order exactly).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ListEntry {
    /// Cache-node index.
    pub idx: u32,
    /// Group-level classification.
    pub kind: EntryKind,
    /// For [`EntryKind::Mixed`]: bit `i` set when member `i` (by position
    /// in the group) accepts the cell as a point mass.
    pub mask: u16,
    /// Number of following entries that belong to this cell's subtree
    /// (meaningful for [`EntryKind::Mixed`]; an accepting member jumps over
    /// them).
    pub skip: u32,
}

/// One body group with its cached interaction list.
#[derive(Debug, Clone)]
pub(crate) struct CachedGroup {
    /// Member body ids.
    ids: Vec<u32>,
    /// Bounding box of the member positions when the list was built.
    lo: Vec3,
    hi: Vec3,
    /// Each member's `(leaf, parent)` pointers from the [`lifecycle`] site
    /// table when the list was built; a mismatch means the leaf relocated
    /// and the list must be rebuilt.
    sites: Vec<(GlobalPtr, GlobalPtr)>,
    /// Steps this list has been applied since it was built (see
    /// [`MAX_LIST_AGE`]).
    age: u32,
    /// The interaction list (empty until first built).
    list: Vec<ListEntry>,
}

/// The per-rank group-list cache carried across steps in
/// [`RankState::group_slot`] while the tree generation is unchanged.
#[derive(Debug, Clone)]
pub struct GroupLists {
    /// Tree generation the lists' cache-node indices refer to.
    pub generation: u64,
    groups: Vec<CachedGroup>,
}

/// Squared distance from point `p` to the axis-aligned box `[lo, hi]`
/// (zero when `p` lies inside).
#[inline]
pub fn aabb_dist_sq(lo: Vec3, hi: Vec3, p: Vec3) -> f64 {
    let dx = (lo.x - p.x).max(0.0).max(p.x - hi.x);
    let dy = (lo.y - p.y).max(0.0).max(p.y - hi.y);
    let dz = (lo.z - p.z).max(0.0).max(p.z - hi.z);
    dx * dx + dy * dy + dz * dz
}

/// Squared distance from point `p` to the farthest point of the box
/// `[lo, hi]`.
#[inline]
pub fn aabb_max_dist_sq(lo: Vec3, hi: Vec3, p: Vec3) -> f64 {
    let dx = (p.x - lo.x).abs().max((p.x - hi.x).abs());
    let dy = (p.y - lo.y).abs().max((p.y - hi.y).abs());
    let dz = (p.z - lo.z).abs().max((p.z - hi.z).abs());
    dx * dx + dy * dy + dz * dz
}

/// The conservative group opening decision: `true` when the cell (side `l`,
/// centre of mass at `cofm`) is far from **every** point of the box — so
/// far from every member body too.
#[inline]
pub fn group_cell_is_far(l: f64, lo: Vec3, hi: Vec3, cofm: Vec3, theta: f64) -> bool {
    cell_is_far(l, aabb_dist_sq(lo, hi, cofm), theta)
}

/// `true` when the cell is far even from the *farthest* point of the box:
/// a point at that distance would accept it, so a cell the group cannot
/// accept outright (some box point is near) while this holds sits in the
/// *borderline shell*, where the members' own tests decide.
#[inline]
pub fn group_cell_all_far(l: f64, lo: Vec3, hi: Vec3, cofm: Vec3, theta: f64) -> bool {
    cell_is_far(l, aabb_max_dist_sq(lo, hi, cofm), theta)
}

/// `true` when [`build_list`] would descend into this cell for the given
/// members: the box cannot accept it for everyone, and in the borderline
/// shell at least one member's own test opens it.  The §5.5 group engine's
/// discovery pass uses this to localize exactly the cells the final list
/// build will open.
#[inline]
pub(crate) fn group_descends(
    l: f64,
    lo: Vec3,
    hi: Vec3,
    cofm: Vec3,
    members: &[Vec3],
    theta: f64,
) -> bool {
    if group_cell_is_far(l, lo, hi, cofm, theta) {
        return false;
    }
    if group_cell_all_far(l, lo, hi, cofm, theta) {
        return members.iter().any(|&p| !cell_is_far(l, p.dist_sq(cofm), theta));
    }
    true
}

/// A freshly partitioned body group (before any list exists).
#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub ids: Vec<u32>,
    pub positions: Vec<Vec3>,
    pub lo: Vec3,
    pub hi: Vec3,
}

/// Partitions `(id, position)` pairs into Morton-ordered groups of at most
/// [`GROUP_SIZE`] bodies, with the tight bounding box of each chunk.
/// `center`/`rsize` give the cube the Morton keys are computed in (the
/// step's global bounding box).
pub(crate) fn partition_groups(members: &[(u32, Vec3)], center: Vec3, rsize: f64) -> Vec<Group> {
    let mut order: Vec<usize> = (0..members.len()).collect();
    let rsize = if rsize > 0.0 { rsize } else { 1.0 };
    order.sort_by_key(|&i| (morton::encode(members[i].1, center, rsize), members[i].0));
    order
        .chunks(GROUP_SIZE)
        .map(|chunk| {
            let mut lo = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
            let mut hi = Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
            let mut ids = Vec::with_capacity(chunk.len());
            let mut positions = Vec::with_capacity(chunk.len());
            for &i in chunk {
                let (id, pos) = members[i];
                ids.push(id);
                positions.push(pos);
                lo.x = lo.x.min(pos.x);
                lo.y = lo.y.min(pos.y);
                lo.z = lo.z.min(pos.z);
                hi.x = hi.x.max(pos.x);
                hi.y = hi.y.max(pos.y);
                hi.z = hi.z.max(pos.z);
            }
            Group { ids, positions, lo, hi }
        })
        .collect()
}

/// Walks the cache once for the box `[lo, hi]`, producing the interaction
/// list under the conservative group criterion.  Bills one MAC per visited
/// non-empty cell (the group test) plus, for cells in the borderline shell
/// where the group test cannot decide for everyone, one member test each —
/// billed here, once per list, instead of once per body per step.
///
/// `members` are the group's body positions, in group order (the bit order
/// of [`ListEntry::mask`]).
///
/// The list is in depth-first order with children descended in *reverse*
/// octant order — the order the per-body stack walks evaluate in — so a
/// member filtering the list by the recorded masks reproduces its per-body
/// walk bit for bit.
pub(crate) fn build_list(
    ctx: &Ctx,
    shared: &BhShared,
    cache: &mut CacheTree,
    lo: Vec3,
    hi: Vec3,
    members: &[Vec3],
    theta: f64,
) -> Vec<ListEntry> {
    assert!(!members.is_empty() && members.len() <= 16, "ListEntry::mask holds 1..=16 members");
    let mut list = Vec::new();
    let mut macs = 0u64;
    build_node(ctx, shared, cache, 0, lo, hi, members, theta, &mut list, &mut macs);
    ctx.bill(Price::Mac, macs);
    list
}

/// Recursive helper of [`build_list`]: classifies one cache node and, when
/// opened, its subtree, backpatching the subtree extent.
#[allow(clippy::too_many_arguments)]
fn build_node(
    ctx: &Ctx,
    shared: &BhShared,
    cache: &mut CacheTree,
    idx: u32,
    lo: Vec3,
    hi: Vec3,
    members: &[Vec3],
    theta: f64,
    list: &mut Vec<ListEntry>,
    macs: &mut u64,
) {
    let node = cache.payload(ctx, shared, idx as usize);
    match node.kind {
        NodeKind::Body => {
            // Only reachable when the root itself is a body leaf; the
            // member-id exclusion happens at evaluation time.
            list.push(ListEntry { idx, kind: EntryKind::Accepted, mask: 0, skip: 0 });
        }
        NodeKind::Cell => {
            if node.nbodies == 0 {
                return;
            }
            *macs += 1;
            if group_cell_is_far(node.side(), lo, hi, node.cofm, theta) {
                list.push(ListEntry { idx, kind: EntryKind::Accepted, mask: 0, skip: 0 });
                return;
            }
            // The box could not accept for everyone.  In the borderline
            // shell (some box point would accept), the members' own tests
            // decide, recorded once in the mask; nearer cells are opened by
            // every member's test automatically.
            let mut kind = EntryKind::Opened;
            let mut mask = 0u16;
            if group_cell_all_far(node.side(), lo, hi, node.cofm, theta) {
                *macs += members.len() as u64;
                for (i, &pos) in members.iter().enumerate() {
                    if cell_is_far(node.side(), pos.dist_sq(node.cofm), theta) {
                        mask |= 1 << i;
                    }
                }
                // Shift-safe full mask for 1..=16 members (`1u16 << 16`
                // would overflow).
                let full = u16::MAX >> (16 - members.len());
                if mask == full {
                    // Every member accepts: the subtree is never needed —
                    // no localization, no descent, exactly like the
                    // per-body walks.
                    list.push(ListEntry { idx, kind: EntryKind::Accepted, mask: 0, skip: 0 });
                    return;
                }
                if mask != 0 {
                    kind = EntryKind::Mixed;
                }
            }
            cache.open(ctx, shared, idx as usize);
            let at = list.len();
            list.push(ListEntry { idx, kind, mask, skip: 0 });
            let kids: Vec<u32> = cache.kids(idx as usize).to_vec();
            for &k in kids.iter().rev() {
                build_node(ctx, shared, cache, k, lo, hi, members, theta, list, macs);
            }
            list[at].skip = (list.len() - at - 1) as u32;
        }
    }
}

/// Brings a cached list's nodes into the current epoch: payload re-reads
/// (the same lazy refresh the cache walks do) plus leaf-batch re-coalescing
/// for the opened cells.  Returns `false` when an opened cell lost its
/// localization (a slot was subdivided underneath) — the list no longer
/// covers the tree below it and must be rebuilt.
fn refresh_list(ctx: &Ctx, shared: &BhShared, cache: &mut CacheTree, list: &[ListEntry]) -> bool {
    for e in list {
        cache.payload(ctx, shared, e.idx as usize);
        if e.kind != EntryKind::Accepted {
            if !cache.nodes[e.idx as usize].localized {
                return false;
            }
            cache.open(ctx, shared, e.idx as usize);
        }
    }
    true
}

/// Applies one interaction list to the group's `member`-th body.  Every
/// payload has been ensured fresh by [`build_list`]/[`refresh_list`] and
/// every acceptance decision is already recorded in the list, so the
/// evaluation is purely local arithmetic: one point-mass interaction per
/// accepted entry, the SoA leaf batch per opened entry, the recorded mask
/// bit at mixed entries (point mass + subtree skip when set), with the
/// member's own leaf excluded by id throughout.  Returns
/// `(acc, phi, interactions)`.
pub(crate) fn apply_list(
    cache: &CacheTree,
    list: &[ListEntry],
    member: usize,
    pos: Vec3,
    self_id: u32,
    eps: f64,
) -> (Vec3, f64, u32) {
    let mut acc = Vec3::ZERO;
    let mut phi = 0.0;
    let mut interactions = 0u32;
    let mut i = 0usize;
    while i < list.len() {
        let e = list[i];
        i += 1;
        let node = cache.nodes[e.idx as usize].node;
        match e.kind {
            EntryKind::Accepted => {
                if node.is_body() && node.body_id == self_id {
                    continue;
                }
                if node.is_cell() && node.nbodies == 0 {
                    continue;
                }
                let (a, p) = pairwise_acceleration(pos, node.cofm, node.mass, eps);
                acc += a;
                phi += p;
                interactions += 1;
            }
            EntryKind::Opened => {
                interactions +=
                    cache.accumulate(e.idx as usize, pos, self_id, eps, &mut acc, &mut phi);
            }
            EntryKind::Mixed => {
                if node.nbodies == 0 {
                    i += e.skip as usize;
                    continue;
                }
                if e.mask & (1 << member) != 0 {
                    let (a, p) = pairwise_acceleration(pos, node.cofm, node.mass, eps);
                    acc += a;
                    phi += p;
                    interactions += 1;
                    i += e.skip as usize;
                } else {
                    interactions +=
                        cache.accumulate(e.idx as usize, pos, self_id, eps, &mut acc, &mut phi);
                }
            }
        }
    }
    (acc, phi, interactions)
}

/// The group-walk force phase ([`engine::config::WalkMode::Group`] at the
/// caching levels): the counterpart of
/// [`crate::force::force_phase_cached`], carrying both the force cache and
/// the group lists across steps under a persistent tree policy.
pub fn force_phase_group(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
) -> Vec<BodyForce> {
    let theta = read_theta(ctx, shared, st, cfg.opt);
    let eps = read_eps(ctx, shared, st, cfg.opt);
    let persistent = cfg.tree_policy.reuses_tree();
    let generation = st.lifecycle.generation;
    // Strict reuse (`drift_threshold: 0`) promises bit-for-bit equivalence
    // with per-step rebuild, so lists are rebuilt from the (bit-identical)
    // tree every step; list reuse would freeze earlier steps' opening
    // decisions instead.
    let strict = matches!(cfg.tree_policy, TreePolicy::Reuse { drift_threshold, .. } if drift_threshold == 0.0);
    let reuse_lists = persistent && !strict;

    let (mut cache, carried) = CacheTree::for_step(ctx, shared, st, cfg);
    let prior = match st.group_slot.take() {
        Some(l) if reuse_lists && carried && l.generation == generation => Some(l),
        _ => None,
    };
    let (out, lists) =
        group_forces(ctx, shared, st, cfg, &mut cache, prior, reuse_lists, theta, eps);
    if persistent {
        st.cache_slot = Some(cache);
        if reuse_lists {
            st.group_slot = Some(lists);
        }
    }
    out
}

/// The group force phase over the step's cache: keep the prior
/// step's groups whose members this rank still owns, regroup the leftovers,
/// re-validate or rebuild each group's list, and evaluate every member
/// against its group's list.
#[allow(clippy::too_many_arguments)]
fn group_forces(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
    cache: &mut CacheTree,
    prior: Option<GroupLists>,
    reuse_lists: bool,
    theta: f64,
    eps: f64,
) -> (Vec<BodyForce>, GroupLists) {
    // Read every owned body once, under the same access discipline as the
    // per-body engine.  Speeds feed the list-reuse box padding.
    let mut pos_of: HashMap<u32, (Vec3, f64)> = HashMap::with_capacity(st.my_ids.len());
    let mut members: Vec<(u32, Vec3)> = Vec::with_capacity(st.my_ids.len());
    for &id in &st.my_ids {
        let body = read_body(ctx, shared, st, cfg, id);
        pos_of.insert(id, (body.pos, body.vel.norm()));
        members.push((id, body.pos));
    }

    // Keep prior groups whose members are all still owned; everything else
    // (fresh ranks, migrated-in bodies) is regrouped by Morton order.
    let mut groups: Vec<CachedGroup> = Vec::new();
    let mut covered: HashSet<u32> = HashSet::new();
    if let Some(prior) = prior {
        for g in prior.groups {
            if g.ids.iter().all(|&id| st.owns(id)) {
                covered.extend(g.ids.iter().copied());
                groups.push(g);
            }
        }
    }
    let leftovers: Vec<(u32, Vec3)> =
        members.iter().copied().filter(|(id, _)| !covered.contains(id)).collect();
    if !leftovers.is_empty() {
        let center = (st.bbox_lo + st.bbox_hi) * 0.5;
        let extent = st.bbox_hi - st.bbox_lo;
        let rsize = extent.x.max(extent.y).max(extent.z);
        for g in partition_groups(&leftovers, center, rsize) {
            groups.push(CachedGroup {
                ids: g.ids,
                lo: g.lo,
                hi: g.hi,
                sites: Vec::new(),
                age: 0,
                list: Vec::new(),
            });
        }
    }

    // Site snapshots and box padding only matter when the lists may be
    // applied on a later step; under per-step rebuild *and* under the
    // strict `drift_threshold: 0` reuse mode (whose contract is
    // counter-for-counter comparability with rebuild) they would only
    // thicken the borderline shell and bill site reads for nothing.
    let track_sites = reuse_lists;
    let mut out = Vec::with_capacity(st.my_ids.len());
    let mut total_interactions = 0u64;
    for g in &mut groups {
        // A cached list stays valid while it is young enough for its frozen
        // decisions, every member is still inside the box it was built for
        // and still hangs off the same leaf slot, and no opened cell was
        // subdivided underneath (checked by the epoch refresh).
        let mut valid = !g.list.is_empty() && g.age < MAX_LIST_AGE;
        if valid {
            for (k, &id) in g.ids.iter().enumerate() {
                let (pos, _) = pos_of[&id];
                if aabb_dist_sq(g.lo, g.hi, pos) > 0.0 {
                    valid = false;
                    break;
                }
                let site = lifecycle::read_site(ctx, shared, st, cfg, id);
                if !site.valid || g.sites.get(k).copied() != Some((site.leaf, site.parent)) {
                    valid = false;
                    break;
                }
            }
        }
        if valid {
            valid = refresh_list(ctx, shared, cache, &g.list);
        }
        if !valid {
            // (Re)build: one pass collects the member positions, the tight
            // box and the fresh site snapshot.  When lists are carried
            // across steps, the box is padded by a few steps of the fastest
            // member's motion, so the very next move of a face-defining
            // member does not invalidate it.
            let mut lo = Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY);
            let mut hi = Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY);
            let mut vmax = 0.0f64;
            let mut positions = Vec::with_capacity(g.ids.len());
            g.sites.clear();
            for &id in &g.ids {
                let (pos, speed) = pos_of[&id];
                positions.push(pos);
                vmax = vmax.max(speed);
                lo.x = lo.x.min(pos.x);
                lo.y = lo.y.min(pos.y);
                lo.z = lo.z.min(pos.z);
                hi.x = hi.x.max(pos.x);
                hi.y = hi.y.max(pos.y);
                hi.z = hi.z.max(pos.z);
                if track_sites {
                    let site = lifecycle::read_site(ctx, shared, st, cfg, id);
                    g.sites.push((site.leaf, site.parent));
                }
            }
            if track_sites {
                let pad = LIST_PAD_STEPS * vmax * cfg.dt;
                lo -= Vec3::new(pad, pad, pad);
                hi += Vec3::new(pad, pad, pad);
            }
            g.lo = lo;
            g.hi = hi;
            g.list = build_list(ctx, shared, cache, g.lo, g.hi, &positions, theta);
            g.age = 0;
        } else {
            g.age += 1;
        }

        for (k, &id) in g.ids.iter().enumerate() {
            let (pos, _) = pos_of[&id];
            let (acc, phi, interactions) = apply_list(cache, &g.list, k, pos, id, eps);
            total_interactions += interactions as u64;
            out.push(BodyForce { id, acc, phi, cost: interactions });
        }
    }
    ctx.bill(Price::Interaction, total_interactions);

    let generation = st.lifecycle.generation;
    (out, GroupLists { generation, groups })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treebuild::{
        allocate_root, bounding_box_phase, center_of_mass_phase, insert_owned_bodies,
    };
    use engine::config::OptLevel;
    use pgas::Runtime;
    use proptest::prelude::*;

    /// Builds a shared tree over `bodies` and, on every rank, partitions the
    /// owned bodies into groups, builds their interaction lists and hands
    /// `(cache, groups, lists, member positions)` to the verifier.
    fn with_group_lists(
        bodies: Vec<nbody::Body>,
        ranks: usize,
        theta: f64,
        verify: impl Fn(f64, &CacheTree, &Group, &[ListEntry]) + Sync,
    ) {
        let mut cfg = SimConfig::test(bodies.len(), ranks, OptLevel::CacheLocalTree);
        cfg.theta = theta;
        let shared = BhShared::with_bodies(&cfg, bodies);
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

            let members: Vec<(u32, Vec3)> = st
                .my_ids
                .iter()
                .map(|&id| (id, shared.bodytab.read_raw(id as usize).pos))
                .collect();
            let mut cache = CacheTree::new(ctx, &shared);
            for g in partition_groups(&members, center, rsize) {
                let list =
                    build_list(ctx, &shared, &mut cache, g.lo, g.hi, &g.positions, cfg.theta);
                verify(cfg.theta, &cache, &g, &list);
            }
            ctx.barrier();
        });
    }

    /// The conservativeness/exactness contract of a freshly built list:
    /// every entry's classification agrees with each member's own per-body
    /// acceptance test.
    fn assert_list_matches_member_criteria(
        theta: f64,
        cache: &CacheTree,
        g: &Group,
        list: &[ListEntry],
    ) {
        for e in list {
            let node = cache.nodes[e.idx as usize].node;
            if node.is_body() {
                continue;
            }
            let member_far = |pos: Vec3| cell_is_far(node.side(), pos.dist_sq(node.cofm), theta);
            match e.kind {
                EntryKind::Accepted => {
                    for &pos in &g.positions {
                        assert!(
                            member_far(pos),
                            "group accepted a cell a member's own criterion would open \
                             (side {}, dist {})",
                            node.side(),
                            pos.dist(node.cofm)
                        );
                    }
                }
                EntryKind::Opened => {
                    for &pos in &g.positions {
                        assert!(!member_far(pos), "opened-for-all cell accepted by a member");
                    }
                }
                EntryKind::Mixed => {
                    for (i, &pos) in g.positions.iter().enumerate() {
                        assert_eq!(
                            e.mask & (1 << i) != 0,
                            member_far(pos),
                            "mixed mask disagrees with member {i}'s own criterion"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every scenario family, varied sizes/seeds/θ/rank counts: every
        /// cell the group criterion accepts would also be accepted by the
        /// per-body criterion of each member (and the opened/mixed
        /// classifications agree with the member tests too, so group-walk
        /// error is never worse than per-body error).
        #[test]
        fn group_lists_are_conservative_for_every_scenario_family(
            family in 0usize..6,
            nbodies in 48usize..160,
            seed in 0u64..1_000,
            theta in 0.5f64..1.2,
            ranks in 1usize..4,
        ) {
            let registry = scenarios::builtin();
            let scenario = registry.iter().nth(family).expect("six builtin families");
            let bodies = scenario.generate(nbodies, seed);
            with_group_lists(bodies, ranks, theta, assert_list_matches_member_criteria);
        }
    }

    #[test]
    fn aabb_distance_is_zero_inside_and_euclidean_outside() {
        let lo = Vec3::new(-1.0, -1.0, -1.0);
        let hi = Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(aabb_dist_sq(lo, hi, Vec3::ZERO), 0.0);
        assert_eq!(aabb_dist_sq(lo, hi, Vec3::new(0.9, -0.9, 0.0)), 0.0);
        assert_eq!(aabb_dist_sq(lo, hi, Vec3::new(3.0, 0.0, 0.0)), 4.0);
        assert_eq!(aabb_dist_sq(lo, hi, Vec3::new(2.0, 2.0, 0.0)), 2.0);
    }

    #[test]
    fn group_criterion_is_conservative_for_points_in_the_box() {
        // If the group accepts, every point inside the box accepts.
        let lo = Vec3::new(0.0, 0.0, 0.0);
        let hi = Vec3::new(1.0, 1.0, 1.0);
        let cofm = Vec3::new(5.0, 0.5, 0.5);
        let theta = 1.0;
        let l = 3.0;
        assert!(group_cell_is_far(l, lo, hi, cofm, theta));
        for p in [lo, hi, Vec3::new(1.0, 0.0, 1.0), Vec3::new(0.3, 0.7, 0.2)] {
            assert!(cell_is_far(l, p.dist_sq(cofm), theta));
        }
        // A cell close enough that some box point would open it is opened.
        assert!(!group_cell_is_far(3.0, lo, hi, Vec3::new(2.0, 0.5, 0.5), theta));
    }

    #[test]
    fn partition_groups_chunks_by_morton_order_with_tight_boxes() {
        let members: Vec<(u32, Vec3)> =
            (0..20).map(|i| (i as u32, Vec3::new((i % 5) as f64, (i / 5) as f64, 0.0))).collect();
        let groups = partition_groups(&members, Vec3::new(2.0, 2.0, 0.0), 5.0);
        let total: usize = groups.iter().map(|g| g.ids.len()).sum();
        assert_eq!(total, 20);
        assert!(groups.iter().all(|g| g.ids.len() <= GROUP_SIZE));
        for g in &groups {
            for &id in &g.ids {
                let pos = members[id as usize].1;
                assert_eq!(aabb_dist_sq(g.lo, g.hi, pos), 0.0, "member outside its group box");
            }
        }
    }
}
