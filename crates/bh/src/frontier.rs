//! The §5.5 force engine: non-blocking communication and message
//! aggregation (Listing 3 of the paper).
//!
//! Each rank processes `n1` *working units* concurrently — bodies under the
//! paper's per-body walk, body groups under
//! [`engine::config::WalkMode::Group`].  Every working unit keeps a
//! *frontier* of cache-tree nodes still to be examined.  When a node must be
//! opened but its children are not cached yet, the node is parked on the
//! unit's *stalled* list and added (once) to a request list.  Once at least
//! `n3` cells are requested and fewer than `n2` gathers are in flight, all
//! requested cells' children are fetched with a single non-blocking
//! aggregated gather (the emulated `bupc_memget_vlist_async`).  While
//! gathers are in flight the rank keeps computing on other working units,
//! which is what hides the miss latency; it only blocks (`wait_sync`) when
//! no unit can make progress.
//!
//! That schedule is written once (`schedule`); the two unit kinds
//! (`PerBody`, `PerGroup`) supply only what differs — what visiting a
//! node means, and how a finished unit becomes forces (`UnitKind`).

use crate::cache::CacheTree;
use crate::cellnode::{CellNode, NodeKind};
use crate::force::BodyForce;
use crate::groupwalk::{group_descends, partition_groups, walk_group, Group};
use crate::shared::{read_body, read_eps, read_theta, BhShared, RankState};
use engine::config::SimConfig;
use nbody::direct::pairwise_acceleration;
use nbody::Vec3;
use octree::walk::cell_is_far;
use pgas::{Ctx, Handle, Price};
use std::collections::VecDeque;

/// One in-flight aggregated gather: the handle plus, for each parent cell
/// whose children it carries, the parent's cache index and its child count.
struct InFlight {
    handle: Handle<CellNode>,
    parents: Vec<(usize, usize)>,
}

/// A working unit (an entry of the paper's list of `n1` concurrently
/// processed bodies): the unit kind's own state plus the traversal
/// bookkeeping every kind shares.
struct Unit<S> {
    state: S,
    /// Cache-node indices still to be examined.
    frontier: Vec<usize>,
    /// Cache-node indices waiting for their children to arrive.
    stalled: Vec<usize>,
}

impl<S> Unit<S> {
    fn new(state: S) -> Self {
        Unit { state, frontier: vec![0], stalled: Vec::new() }
    }

    fn finished(&self) -> bool {
        self.frontier.is_empty() && self.stalled.is_empty()
    }
}

/// The two decisions that separate the per-body and the per-group engine;
/// everything else is [`schedule`].
trait UnitKind {
    /// Per-unit state.
    type State;

    /// Examines one frontier node on behalf of `unit`, evaluating whatever
    /// can be evaluated from the node alone.  Returns `true` when the unit
    /// must descend into the node: the scheduler then pushes its cached
    /// children, or parks it until they arrive.
    fn visit(&mut self, unit: &mut Self::State, node: &CellNode) -> bool;

    /// Ends a round — called once after every working unit has advanced as
    /// far as it can, with the units that finished in it: bills the round's
    /// work and appends the finished units' forces.
    fn retire(
        &mut self,
        ctx: &Ctx,
        shared: &BhShared,
        cache: &mut CacheTree,
        finished: impl Iterator<Item = Self::State>,
        out: &mut Vec<BodyForce>,
    );
}

/// The §5.5 schedule over `pending` working units of one kind.  The cache
/// tree lives for one force phase, as under every cached engine, and loads
/// under the copy discipline.
///
/// The per-body kind sums each body's terms in the order its frontier
/// reaches them, not in the blocking walk's depth-first order, so it agrees
/// with [`crate::cache::CacheTree::walk`] to rounding, not bit for bit; the
/// per-group kind finishes with [`walk_group`] and is bit-identical to the
/// blocking walks.
///
/// `pending` is pulled lazily, one unit per free working slot, so a unit
/// kind that reads its inputs while building a unit pays for them at fill
/// time — which is also why "is there new work" asks its `len()` instead of
/// peeking: a peek would charge the next unit's reads a round early.
fn schedule<K: UnitKind>(
    ctx: &Ctx,
    shared: &BhShared,
    cfg: &SimConfig,
    mut cache: CacheTree,
    mut kind: K,
    mut pending: impl ExactSizeIterator<Item = K::State>,
    nbodies: usize,
) -> Vec<BodyForce> {
    let n1 = cfg.n1.max(1);
    let n2 = cfg.n2.max(1);
    let n3 = cfg.n3.max(1);

    let mut out = Vec::with_capacity(nbodies);
    let mut working: Vec<Unit<K::State>> = Vec::with_capacity(n1);
    let mut finished: Vec<K::State> = Vec::new();
    let mut request_list: Vec<usize> = Vec::new();
    let mut outstanding: VecDeque<InFlight> = VecDeque::new();

    loop {
        // Fill up the list of working units.
        while working.len() < n1 {
            match pending.next() {
                Some(state) => working.push(Unit::new(state)),
                None => break,
            }
        }
        if working.is_empty() {
            // Nothing left to compute; any gathers still in flight are
            // irrelevant and simply dropped.
            break;
        }

        // Advance every working unit until it can't make progress.
        for w in working.iter_mut() {
            while let Some(idx) = w.frontier.pop() {
                if !kind.visit(&mut w.state, &cache.nodes[idx].node) {
                    continue;
                }
                let node = &mut cache.nodes[idx];
                if node.localized {
                    for o in 0..8 {
                        let c = node.children_local[o];
                        if c >= 0 {
                            w.frontier.push(c as usize);
                        }
                    }
                } else {
                    // Park the node and request its children (once).
                    w.stalled.push(idx);
                    if !node.requested {
                        node.requested = true;
                        request_list.push(idx);
                    }
                }
            }
        }

        // Retire finished units.
        let mut i = 0;
        while i < working.len() {
            if working[i].finished() {
                finished.push(working.swap_remove(i).state);
            } else {
                i += 1;
            }
        }
        kind.retire(ctx, shared, &mut cache, finished.drain(..), &mut out);

        // Issue aggregated gathers when enough cells have been requested.
        while request_list.len() >= n3 && outstanding.len() < n2 {
            issue_request(ctx, shared, &cache, &mut request_list, &mut outstanding, n3);
        }

        // If nothing can progress, complete (or force-issue) communication.
        let all_stalled = working.iter().all(|w| w.frontier.is_empty());
        let no_new_work = pending.len() == 0 || working.len() >= n1;
        if all_stalled && no_new_work && !working.is_empty() {
            if let Some(flight) = outstanding.pop_front() {
                complete_request(ctx, &mut cache, flight);
                revive(&mut working, &cache);
            } else if !request_list.is_empty() && outstanding.len() < n2 {
                // Not enough requests to reach n3, but nobody can progress:
                // flush what we have.
                issue_request(ctx, shared, &cache, &mut request_list, &mut outstanding, n3);
            } else {
                // No outstanding communication and nothing to issue, yet a
                // unit is stalled: fall back to a blocking localization (this
                // only happens when n2 is saturated by requests that are not
                // ours, which cannot occur in this single-threaded engine,
                // but the guard keeps the loop total).
                let idx = working
                    .iter()
                    .flat_map(|w| w.stalled.iter().copied())
                    .next()
                    .expect("stalled node");
                cache.localize_children(ctx, shared, idx);
                revive(&mut working, &cache);
            }
        }
    }

    // Any gathers still in flight are complete by construction of the cost
    // model; dropping them is equivalent to never having needed them.
    out
}

/// A working body: its walk accumulates as the frontier advances.
struct Work {
    id: u32,
    pos: Vec3,
    acc: Vec3,
    phi: f64,
    interactions: u32,
}

impl Work {
    fn interact(&mut self, node: &CellNode, eps: f64) {
        let (a, p) = pairwise_acceleration(self.pos, node.cofm, node.mass, eps);
        self.acc += a;
        self.phi += p;
        self.interactions += 1;
    }
}

/// The paper's unit kind: one body per working unit, the MAC and the
/// interactions evaluated node by node as the frontier advances and billed
/// once per round.
struct PerBody {
    theta: f64,
    eps: f64,
    round_macs: u64,
    round_interactions: u64,
}

impl UnitKind for PerBody {
    type State = Work;

    fn visit(&mut self, w: &mut Work, node: &CellNode) -> bool {
        match node.kind {
            NodeKind::Body => {
                if node.body_id != w.id {
                    w.interact(node, self.eps);
                    self.round_interactions += 1;
                }
                false
            }
            NodeKind::Cell => {
                if node.nbodies == 0 {
                    return false;
                }
                self.round_macs += 1;
                let dist_sq = w.pos.dist_sq(node.cofm);
                if cell_is_far(node.side(), dist_sq, self.theta) {
                    w.interact(node, self.eps);
                    self.round_interactions += 1;
                    false
                } else {
                    true
                }
            }
        }
    }

    fn retire(
        &mut self,
        ctx: &Ctx,
        _shared: &BhShared,
        _cache: &mut CacheTree,
        finished: impl Iterator<Item = Work>,
        out: &mut Vec<BodyForce>,
    ) {
        let (macs, interactions) =
            (std::mem::take(&mut self.round_macs), std::mem::take(&mut self.round_interactions));
        if macs > 0 {
            ctx.bill(Price::Mac, macs);
        }
        if interactions > 0 {
            ctx.bill(Price::Interaction, interactions);
        }
        out.extend(finished.map(|w| BodyForce {
            id: w.id,
            acc: w.acc,
            phi: w.phi,
            cost: w.interactions,
        }));
    }
}

/// The §5.5 force phase.  Functionally identical to
/// [`crate::force::force_phase_cached`]; only the communication schedule
/// differs.  Each body is read when it enters the working list.
pub fn force_phase_async(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
) -> Vec<BodyForce> {
    let kind = PerBody {
        theta: read_theta(ctx, shared, st, cfg.opt),
        eps: read_eps(ctx, shared, st, cfg.opt),
        round_macs: 0,
        round_interactions: 0,
    };
    let cache = CacheTree::new(ctx, shared, false);
    let pending = st.my_ids.iter().map(|&id| {
        let pos = read_body(ctx, shared, st, cfg, id).pos;
        Work { id, pos, acc: Vec3::ZERO, phi: 0.0, interactions: 0 }
    });
    schedule(ctx, shared, cfg, cache, kind, pending, st.my_ids.len())
}

/// The [`engine::config::WalkMode::Group`] unit kind: working units are body
/// groups instead of bodies, so one traversal (and one set of cache misses)
/// serves every member of a group.  `n1` bounds the number of concurrently
/// processed *groups*; `n2`/`n3` keep their meaning.
///
/// The frontier pass is pure *discovery*: it repeats the group acceptance
/// decisions of the group's final [`walk_group`], driving the non-blocking
/// localization of every cell that walk will open, but only the latter is
/// billed — the group's MAC work happens once per group, which is the point
/// of the mode; the frontier pass exists to overlap the cache misses with
/// other groups' work, exactly like the per-body kind.
struct PerGroup {
    theta: f64,
    eps: f64,
}

impl UnitKind for PerGroup {
    type State = Group;

    fn visit(&mut self, g: &mut Group, node: &CellNode) -> bool {
        node.kind == NodeKind::Cell
            && node.nbodies != 0
            && group_descends(node.side(), g.lo, g.hi, node.cofm, g.positions(), self.theta)
    }

    /// Every cell a finished group's walk opens is localized now, so the
    /// walk is one local (billed) pass that streams every cell it meets to
    /// the members.
    fn retire(
        &mut self,
        ctx: &Ctx,
        shared: &BhShared,
        cache: &mut CacheTree,
        finished: impl Iterator<Item = Group>,
        out: &mut Vec<BodyForce>,
    ) {
        for g in finished {
            let interactions = walk_group(ctx, shared, cache, &g, self.theta, self.eps, out);
            ctx.bill(Price::Interaction, interactions);
        }
    }
}

/// The §5.5 engine under [`engine::config::WalkMode::Group`] (see
/// `PerGroup`).  All members are read up front: the Morton partition
/// needs every position before the first group exists.
pub fn force_phase_async_group(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
) -> Vec<BodyForce> {
    let kind = PerGroup {
        theta: read_theta(ctx, shared, st, cfg.opt),
        eps: read_eps(ctx, shared, st, cfg.opt),
    };
    let cache = CacheTree::new(ctx, shared, false);
    let mut members: Vec<(u32, Vec3)> = Vec::with_capacity(st.my_ids.len());
    for &id in &st.my_ids {
        let body = read_body(ctx, shared, st, cfg, id);
        members.push((id, body.pos));
    }
    let pending = partition_groups(&members, st.bbox_lo, st.bbox_hi).into_iter();
    schedule(ctx, shared, cfg, cache, kind, pending, st.my_ids.len())
}

/// Issues one aggregated gather for the oldest requested cells.
///
/// The paper issues a gather as soon as at least `n3` cells are requested,
/// so each message carries the children of a handful of spatially close
/// cells (which is why §5.5 finds that >90 % of requests have a single
/// source thread).  The batch is therefore capped rather than draining the
/// whole request list.
fn issue_request(
    ctx: &Ctx,
    shared: &BhShared,
    cache: &CacheTree,
    request_list: &mut Vec<usize>,
    outstanding: &mut VecDeque<InFlight>,
    batch_limit: usize,
) {
    if request_list.is_empty() {
        return;
    }
    let take = request_list.len().min(batch_limit.max(1));
    let batch: Vec<usize> = request_list.drain(..take).collect();
    let mut ptrs = Vec::new();
    let mut parents = Vec::with_capacity(batch.len());
    for parent in batch {
        let children = cache.children_ptrs(parent);
        parents.push((parent, children.len()));
        ptrs.extend(children);
    }
    let handle = shared.cells.get_vlist_async(ctx, &ptrs);
    outstanding.push_back(InFlight { handle, parents });
}

/// Waits for one gather and installs its children into the cache.
fn complete_request(ctx: &Ctx, cache: &mut CacheTree, flight: InFlight) {
    let data = ctx.wait_sync(flight.handle);
    let mut offset = 0usize;
    for (parent, count) in flight.parents {
        let children = data[offset..offset + count].to_vec();
        offset += count;
        cache.install_children(ctx, parent, children);
    }
}

/// Moves stalled nodes whose parents are now localized back onto the
/// frontier of their working units.
fn revive<S>(working: &mut [Unit<S>], cache: &CacheTree) {
    for w in working.iter_mut() {
        let mut still_stalled = Vec::new();
        for idx in w.stalled.drain(..) {
            if cache.nodes[idx].localized {
                w.frontier.push(idx);
            } else {
                still_stalled.push(idx);
            }
        }
        w.stalled = still_stalled;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::force::{force_phase_cached, write_back};
    use crate::shared::RankState;
    use crate::treebuild::{
        allocate_root, bounding_box_phase, center_of_mass_phase, insert_owned_bodies,
    };
    use engine::config::{OptLevel, SimConfig};
    use nbody::Body;
    use pgas::Runtime;

    fn run_force(
        cfg: &SimConfig,
        engine: impl Fn(&Ctx, &BhShared, &RankState, &SimConfig) -> Vec<BodyForce> + Sync,
    ) -> (Vec<Body>, f64, Option<f64>) {
        let shared = BhShared::new(cfg);
        let rt = Runtime::new(cfg.machine.clone());
        let report = rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, cfg);
            let (center, rsize) = bounding_box_phase(ctx, &shared, &mut st, cfg);
            allocate_root(ctx, &shared, center, rsize);
            ctx.barrier();
            insert_owned_bodies(ctx, &shared, &mut st, cfg);
            ctx.barrier();
            center_of_mass_phase(ctx, &shared, &mut st, cfg);
            ctx.barrier();
            let start = ctx.now();
            let forces = engine(ctx, &shared, &st, cfg);
            let force_time = ctx.now() - start;
            write_back(ctx, &shared, &st, cfg, &forces);
            ctx.barrier();
            force_time
        });
        let max_force_time = report.ranks.iter().map(|r| r.result).fold(0.0, f64::max);
        let single_source = report.total_stats().vlist_single_source_fraction();
        (shared.bodytab.snapshot(), max_force_time, single_source)
    }

    #[test]
    fn async_forces_match_blocking_cached_forces() {
        let cfg_async = SimConfig::test(300, 4, OptLevel::AsyncAggregation);
        let cfg_cached = SimConfig::test(300, 4, OptLevel::CacheLocalTree);
        let (async_bodies, _, _) = run_force(&cfg_async, force_phase_async);
        let (cached_bodies, _, _) = run_force(&cfg_cached, force_phase_cached);
        for (a, b) in async_bodies.iter().zip(&cached_bodies) {
            let err = (a.acc - b.acc).norm() / b.acc.norm().max(1e-12);
            assert!(err < 1e-9, "async engine changed the physics (err {err})");
            assert_eq!(a.cost, b.cost, "both engines must evaluate the same interactions");
        }
    }

    #[test]
    fn async_engine_hides_latency() {
        // On several ranks the blocking cached walk pays a full round trip per
        // miss; the aggregated non-blocking engine should spend clearly less
        // simulated time in the force phase.
        let mut cfg_async = SimConfig::test(400, 8, OptLevel::AsyncAggregation);
        let mut cfg_cached = SimConfig::test(400, 8, OptLevel::CacheLocalTree);
        cfg_async.measured_steps = 1;
        cfg_cached.measured_steps = 1;
        let (_, t_async, _) = run_force(&cfg_async, force_phase_async);
        let (_, t_cached, _) = run_force(&cfg_cached, force_phase_cached);
        assert!(
            t_async < t_cached,
            "async force phase ({t_async:.4}s) should beat blocking cached ({t_cached:.4}s)"
        );
    }

    #[test]
    fn aggregated_requests_record_source_statistics() {
        // §5.5 reports that >90 % of aggregated requests are served by a
        // single source thread.  That locality only appears after the
        // partitioner has made ownership spatially compact (checked by the
        // whole-simulation integration tests); here, with the initial block
        // distribution, we only require the statistic to be well-formed.
        let cfg = SimConfig::test(600, 4, OptLevel::AsyncAggregation);
        let (_, _, single) = run_force(&cfg, force_phase_async);
        let fraction = single.expect("async engine must issue aggregated requests");
        assert!(fraction > 0.0 && fraction <= 1.0, "ill-formed single-source fraction {fraction}");
    }

    #[test]
    fn works_with_n_parameters_of_one() {
        let mut cfg = SimConfig::test(150, 2, OptLevel::AsyncAggregation);
        cfg.n1 = 1;
        cfg.n2 = 1;
        cfg.n3 = 1;
        let cfg_ref = SimConfig::test(150, 2, OptLevel::CacheLocalTree);
        let (a, _, _) = run_force(&cfg, force_phase_async);
        let (b, _, _) = run_force(&cfg_ref, force_phase_cached);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.acc - y.acc).norm() / y.acc.norm().max(1e-12) < 1e-9);
        }
    }
}
