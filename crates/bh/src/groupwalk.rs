//! Group tree-walks: one traversal per body *group*, streamed to its
//! members ([`engine::config::WalkMode::Group`]).
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
//! * each group walks the force cache **once** under a *conservative*
//!   opening criterion: a cell is opened when **any** point of the group's
//!   bounding box could open it under θ (`l/d_min ≥ θ` with `d_min` the
//!   box-to-centre-of-mass distance).  Since every member body lies inside
//!   the box, `d_min ≤ d_body`, so every cell the group *accepts* would
//!   also be accepted by each member's own criterion;
//! * cells far even from the *farthest* box corner are accepted by every
//!   member; nearer cells are opened by every member.  In the borderline
//!   shell in between, each member's *own* acceptance test decides: a
//!   member that accepts takes the point mass and leaves the subtree, the
//!   others stream the cell's coalesced leaf batch
//!   ([`crate::cache::LeafArena`]) and descend.
//!
//! The traversal applies each accepted cell and each opened leaf batch to
//! the members still descending as it meets them, in the per-body stack
//! walk's order (children in *reverse* octant order, depth first), so every
//! member accumulates exactly the sequence of its own per-body walk: the
//! group walk computes bit-for-bit the per-body forces and the identical
//! interaction count, while the traversal volume (the `macs` counter: one group test per visited cell,
//! plus the member tests of the borderline shell, billed once per group
//! instead of once per body) drops by roughly the group occupancy.
//!
//! Nothing is carried across steps but what the per-body walk carries (the
//! tree under a persistent [`TreePolicy`](engine::config::TreePolicy); the
//! force cache is built fresh every step), so the group walk is the
//! per-body walk under every tree policy.

use crate::cache::CacheTree;
use crate::cellnode::NodeKind;
use crate::force::BodyForce;
use crate::shared::{read_body, read_eps, read_theta, BhShared, RankState};
use engine::config::SimConfig;
use nbody::direct::pairwise_acceleration;
use nbody::{morton, Vec3};
use octree::walk::cell_is_far;
use pgas::{Ctx, Price};

/// Target number of bodies per walk group.  Eight matches one octree level
/// of fan-out: the Morton chunks stay within a few sibling leaf cells, so
/// the group boxes stay tight (the borderline shell, where members fall
/// back to their own acceptance tests, stays thin) while the traversal
/// volume drops by roughly this factor.
pub const GROUP_SIZE: usize = 8;

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

/// `true` when the group walk descends into this cell for the given
/// members: the box cannot accept it for everyone, and in the borderline
/// shell at least one member's own test opens it.  The §5.5 group engine's
/// discovery pass uses this to localize exactly the cells
/// [`walk_group`] will open.
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

/// A Morton-ordered body group: its members' ids and positions (the first
/// `n` of each array) and their tight bounding box.
#[derive(Debug, Clone)]
pub(crate) struct Group {
    pub n: usize,
    pub ids: [u32; GROUP_SIZE],
    pub pos: [Vec3; GROUP_SIZE],
    pub lo: Vec3,
    pub hi: Vec3,
}

impl Group {
    /// The members' positions.
    pub(crate) fn positions(&self) -> &[Vec3] {
        &self.pos[..self.n]
    }
}

/// Partitions `(id, position)` pairs into Morton-ordered groups of at most
/// [`GROUP_SIZE`] bodies, with the tight bounding box of each chunk.
/// The Morton keys are computed in the cube around the box `[lo, hi]`
/// (the step's global bounding box).
pub(crate) fn partition_groups(members: &[(u32, Vec3)], lo: Vec3, hi: Vec3) -> Vec<Group> {
    let center = (lo + hi) * 0.5;
    let extent = hi - lo;
    let rsize = extent.x.max(extent.y).max(extent.z);
    let rsize = if rsize > 0.0 { rsize } else { 1.0 };
    // Each key is computed once; `(key, id)` is unique, so the unstable
    // sort orders exactly as a stable one would.
    let mut order: Vec<(u64, u32, usize)> = members
        .iter()
        .enumerate()
        .map(|(i, &(id, pos))| (morton::encode(pos, center, rsize), id, i))
        .collect();
    order.sort_unstable();
    order
        .chunks(GROUP_SIZE)
        .map(|chunk| {
            let mut g = Group {
                n: chunk.len(),
                ids: [0; GROUP_SIZE],
                pos: [Vec3::ZERO; GROUP_SIZE],
                lo: Vec3::new(f64::INFINITY, f64::INFINITY, f64::INFINITY),
                hi: Vec3::new(f64::NEG_INFINITY, f64::NEG_INFINITY, f64::NEG_INFINITY),
            };
            for (k, &(_, _, i)) in chunk.iter().enumerate() {
                let (id, pos) = members[i];
                g.ids[k] = id;
                g.pos[k] = pos;
                g.lo.x = g.lo.x.min(pos.x);
                g.lo.y = g.lo.y.min(pos.y);
                g.lo.z = g.lo.z.min(pos.z);
                g.hi.x = g.hi.x.max(pos.x);
                g.hi.y = g.hi.y.max(pos.y);
                g.hi.z = g.hi.z.max(pos.z);
            }
            g
        })
        .collect()
}

/// One group's traversal state: the group, the step's θ and ε, and each
/// member's running sums.
struct GroupWalk<'g> {
    g: &'g Group,
    theta: f64,
    eps: f64,
    acc: [Vec3; GROUP_SIZE],
    phi: [f64; GROUP_SIZE],
    interactions: [u32; GROUP_SIZE],
    macs: u64,
}

/// The member indices whose bits are set in `mask`, in ascending order.
fn members(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

impl GroupWalk<'_> {
    /// Applies a point mass to the members in `mask`, except the member
    /// whose own body leaf it is (`body`).
    fn take(&mut self, cofm: Vec3, mass: f64, body: Option<u32>, mask: u32) {
        for i in members(mask) {
            if body == Some(self.g.ids[i]) {
                continue;
            }
            let (a, p) = pairwise_acceleration(self.g.pos[i], cofm, mass, self.eps);
            self.acc[i] += a;
            self.phi[i] += p;
            self.interactions[i] += 1;
        }
    }

    /// Visits cache node `idx` on behalf of the members in `active` (those
    /// whose own walks reach it).  The decisions — box tests, the members'
    /// tests in the borderline shell, which cells are opened — are the
    /// group's and cover every member, so the traversal, its cache loads
    /// and its MAC bill do not depend on who is still active.
    fn visit(
        &mut self,
        ctx: &Ctx,
        shared: &BhShared,
        cache: &mut CacheTree,
        idx: u32,
        active: u32,
    ) {
        let node = cache.nodes[idx as usize].node;
        let (cofm, mass, side) = (node.cofm, node.mass, node.side());
        if node.kind == NodeKind::Body {
            // Only reachable when the root itself is a body leaf.
            let body = Some(node.body_id);
            self.take(cofm, mass, body, active);
            return;
        }
        if node.nbodies == 0 {
            return;
        }
        let (g, theta) = (self.g, self.theta);
        self.macs += 1;
        if group_cell_is_far(side, g.lo, g.hi, cofm, theta) {
            self.take(cofm, mass, None, active);
            return;
        }
        // The box could not accept for everyone.  In the borderline shell
        // (some box point would accept) the members' own tests decide;
        // nearer cells are opened by every member's test automatically.
        let mut descend = active;
        if group_cell_all_far(side, g.lo, g.hi, cofm, theta) {
            self.macs += g.n as u64;
            let mut accept = 0u32;
            for (i, pos) in g.positions().iter().enumerate() {
                if cell_is_far(side, pos.dist_sq(cofm), theta) {
                    accept |= 1 << i;
                }
            }
            if accept == (1 << g.n) - 1 {
                // Every member accepts: the subtree is never needed — no
                // localization, no descent, exactly like the per-body walks.
                self.take(cofm, mass, None, active);
                return;
            }
            self.take(cofm, mass, None, active & accept);
            descend &= !accept;
        }
        cache.localize_children(ctx, shared, idx as usize);
        for i in members(descend) {
            self.interactions[i] += cache.accumulate(
                idx as usize,
                g.pos[i],
                g.ids[i],
                self.eps,
                &mut self.acc[i],
                &mut self.phi[i],
            );
        }
        let mut kids = [0u32; 8];
        let n = {
            let k = cache.kids(idx as usize);
            kids[..k.len()].copy_from_slice(k);
            k.len()
        };
        for &k in kids[..n].iter().rev() {
            self.visit(ctx, shared, cache, k, descend);
        }
    }
}

/// Walks the cache once for group `g`, applying every accepted cell and
/// every opened leaf batch to the members that reach it, and appends each
/// member's force to `out`.  Bills the group's MACs — one group test per
/// visited non-empty cell, plus one member test each in the borderline
/// shell — and returns the members' interactions for the caller to bill.
pub(crate) fn walk_group(
    ctx: &Ctx,
    shared: &BhShared,
    cache: &mut CacheTree,
    g: &Group,
    theta: f64,
    eps: f64,
    out: &mut Vec<BodyForce>,
) -> u64 {
    let n = g.n;
    assert!((1..=GROUP_SIZE).contains(&n), "a group holds 1..={GROUP_SIZE} members");
    let mut w = GroupWalk {
        g,
        theta,
        eps,
        acc: [Vec3::ZERO; GROUP_SIZE],
        phi: [0.0; GROUP_SIZE],
        interactions: [0; GROUP_SIZE],
        macs: 0,
    };
    w.visit(ctx, shared, cache, 0, (1 << n) - 1);
    ctx.bill(Price::Mac, w.macs);
    for i in 0..n {
        out.push(BodyForce { id: g.ids[i], acc: w.acc[i], phi: w.phi[i], cost: w.interactions[i] });
    }
    w.interactions[..n].iter().map(|&k| u64::from(k)).sum()
}

/// The group-walk force phase ([`engine::config::WalkMode::Group`] at the
/// caching levels): the counterpart of
/// [`crate::force::force_phase_cached`] over the same step cache, with one
/// [`walk_group`] per Morton-ordered group of the rank's bodies.
pub fn force_phase_group(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
) -> Vec<BodyForce> {
    let theta = read_theta(ctx, shared, st, cfg.opt);
    let eps = read_eps(ctx, shared, st, cfg.opt);
    let mut cache = CacheTree::new(ctx, shared, cfg.shadow_cache);
    // Read every owned body once, under the same access discipline as the
    // per-body engine.
    let members: Vec<(u32, Vec3)> =
        st.my_ids.iter().map(|&id| (id, read_body(ctx, shared, st, cfg, id).pos)).collect();
    let mut out = Vec::with_capacity(members.len());
    let mut interactions = 0u64;
    for g in partition_groups(&members, st.bbox_lo, st.bbox_hi) {
        interactions += walk_group(ctx, shared, &mut cache, &g, theta, eps, &mut out);
    }
    ctx.bill(Price::Interaction, interactions);
    out
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

    /// Builds a shared tree over `bodies` and, on every rank, streams each
    /// group of the owned bodies through one cache while every member walks
    /// a second cache on its own: the two must agree bit for bit.
    fn assert_groups_stream_the_per_body_walk(bodies: Vec<nbody::Body>, ranks: usize, theta: f64) {
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
            let mut streamed = CacheTree::new(ctx, &shared, false);
            let mut own = CacheTree::new(ctx, &shared, false);
            for g in partition_groups(&members, st.bbox_lo, st.bbox_hi) {
                let mut out = Vec::new();
                let total =
                    walk_group(ctx, &shared, &mut streamed, &g, cfg.theta, cfg.eps, &mut out);
                assert_eq!(total, out.iter().map(|f| u64::from(f.cost)).sum::<u64>());
                for (f, (&id, &pos)) in out.iter().zip(g.ids.iter().zip(g.positions())) {
                    let r = own.walk(ctx, &shared, pos, id, cfg.theta, cfg.eps);
                    assert_eq!(f.id, id);
                    assert_eq!(f.cost, r.interactions, "body {id}");
                    for (x, y) in [(f.acc.x, r.acc.x), (f.acc.y, r.acc.y), (f.acc.z, r.acc.z)] {
                        assert_eq!(x.to_bits(), y.to_bits(), "body {id}");
                    }
                    assert_eq!(f.phi.to_bits(), r.phi.to_bits(), "body {id}");
                }
            }
            // Every cell a member's walk opens, the group's walk opens too.
            assert!(streamed.len() >= own.len());
            ctx.barrier();
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every scenario family, varied sizes/seeds/θ/rank counts: each
        /// member of a streamed group gets bit for bit the force, potential
        /// and interaction count of its own per-body walk.
        #[test]
        fn group_walks_reproduce_every_members_walk_for_every_scenario_family(
            family in 0usize..6,
            nbodies in 48usize..160,
            seed in 0u64..1_000,
            theta in 0.5f64..1.2,
            ranks in 1usize..4,
        ) {
            let registry = scenarios::builtin();
            let scenario = registry.iter().nth(family).expect("six builtin families");
            let bodies = scenario.generate(nbodies, seed);
            assert_groups_stream_the_per_body_walk(bodies, ranks, theta);
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
        let groups = partition_groups(&members, Vec3::ZERO, Vec3::new(4.0, 3.0, 0.0));
        let total: usize = groups.iter().map(|g| g.n).sum();
        assert_eq!(total, 20);
        assert!(groups.iter().all(|g| (1..=GROUP_SIZE).contains(&g.n)));
        for g in &groups {
            for &id in &g.ids[..g.n] {
                let pos = members[id as usize].1;
                assert_eq!(aabb_dist_sq(g.lo, g.hi, pos), 0.0, "member outside its group box");
            }
        }
    }
}
