//! Lock-free sort-based tree construction ([`engine::config::TreeBuild::Sorted`]).
//!
//! The global-insertion builders ([`crate::treebuild`], [`crate::mergetree`])
//! share one structural bottleneck: bodies descend a *shared* tree and claim
//! child slots under per-cell locks, so every subdivision is a lock round
//! trip and every descent step a shared-pointer read.  This module builds
//! the *same* tree — bit for bit, see below — without touching a single
//! lock:
//!
//! 1. **Key encoding.**  Every rank encodes each owned body's root-to-leaf
//!    descent path as a 63-bit key ([`descent_key`]): [`KEY_LEVELS`] (21)
//!    octant digits of 3 bits, derived with exactly the arithmetic of the
//!    insertion descent (`octant_of` + `child_geometry` from the root cube),
//!    so sorting by key groups bodies precisely by the subtree the insertion
//!    build would have put them in.
//! 2. **Cooperative global sort.**  A fixed-size histogram over the
//!    [`BUCKETS`] (512) depth-3 key prefixes is allgathered, every rank
//!    computes the same contiguous bucket → rank assignment
//!    ([`assign_buckets`], a deterministic greedy split balancing body
//!    counts), and one all-to-all exchange routes each `(key, body)` record
//!    to its bucket owner, which sorts its slice by `(key, id)` — together:
//!    a globally sorted key array, distributed by contiguous key range.
//! 3. **Prefix-boundary cell construction.**  Each bucket owner builds its
//!    buckets' subtrees recursively from the sorted slice: a run of ≥ 2
//!    bodies sharing a prefix becomes a cell at that prefix's depth, a
//!    single body becomes a leaf ([`build_range`]).  Cells are allocated
//!    *fully formed*, children linked and summaries folded post-order in
//!    fixed octant order — **zero locks**, and no separate centre-of-mass
//!    phase.
//! 4. **Spine hooking.**  Bucket roots are reported to rank 0, which builds
//!    the depth 0–2 spine cells above them with the same post-order fold
//!    and publishes the root ([`build_spine`]).
//!
//! **Bit-for-bit equivalence.**  Under [`engine::config::TreePolicy::Rebuild`]
//! the resulting tree is *identical* to the global-insertion tree: a cell
//! exists at a (depth, prefix) region exactly when ≥ 2 bodies share that
//! region (plus the always-present root) under both algorithms, geometry is
//! derived with the same `child_geometry` arithmetic, and summaries are
//! folded with the same per-cell arithmetic in the same octant order as
//! [`crate::treebuild`]'s centre-of-mass phase — so the force phase sees
//! the same positions, masses and cell cubes to the last bit (pinned by
//! this module's tests and the `sorted_equivalence` proptest).

use crate::cellnode::{CellNode, NodeKind};
use crate::shared::{read_body, BhShared, RankState};
use engine::config::{SimConfig, MAX_DEPTH};
use nbody::Vec3;
use pgas::{Ctx, GlobalPtr, Price};

/// Depth of the key encoding: 21 octant digits fill 63 of a `u64`'s bits.
pub const KEY_LEVELS: usize = 21;

/// Depth of the bucket split (the cooperative-sort granularity).
const BUCKET_DEPTH: usize = 3;

/// Number of key buckets: all depth-3 octant prefixes.
pub const BUCKETS: usize = 1 << (3 * BUCKET_DEPTH);

/// One body record routed to its bucket owner: the descent key plus the
/// body payload a leaf needs, so building a foreign bucket never touches
/// the body table again.
#[derive(Debug, Clone, Copy)]
struct SortedBody {
    /// 63-bit descent key ([`descent_key`]).
    key: u64,
    /// Body position (the leaf payload).
    pos: Vec3,
    /// Body mass.
    mass: f64,
    /// Global body id.
    id: u32,
    /// Interaction cost from the previous step.
    cost: u32,
}

/// Encodes `pos`'s root-to-leaf descent path from the root cube `(center,
/// half)` as [`KEY_LEVELS`] octant digits, most significant first.
///
/// The digits are produced by the *same* arithmetic the insertion build
/// uses (`octant_of` against the cell centre, then [`CellNode::child_geometry`]
/// to the chosen sub-cube), so key order is descent order bit for bit.
pub fn descent_key(pos: Vec3, center: Vec3, half: f64) -> u64 {
    let mut c = center;
    let mut h = half;
    let mut key = 0u64;
    for _ in 0..KEY_LEVELS {
        let oct = pos.octant_of(c);
        key = (key << 3) | oct as u64;
        let (nc, nh) = child_geometry(c, h, oct);
        c = nc;
        h = nh;
    }
    key
}

/// The bucket (depth-3 key prefix) of a descent key.
#[inline]
fn bucket_of(key: u64) -> usize {
    (key >> (3 * (KEY_LEVELS - BUCKET_DEPTH))) as usize
}

/// Child-cube geometry, routed through [`CellNode::child_geometry`] so the
/// sorted build can never drift from the insertion build's arithmetic.
#[inline]
fn child_geometry(center: Vec3, half: f64, octant: usize) -> (Vec3, f64) {
    CellNode::new_cell(center, half).child_geometry(octant)
}

/// Geometry of bucket `bucket`'s cube: the root cube descended through the
/// bucket's three octant digits.
fn bucket_geometry(center: Vec3, half: f64, bucket: usize) -> (Vec3, f64) {
    let mut c = center;
    let mut h = half;
    for level in (0..BUCKET_DEPTH).rev() {
        let oct = (bucket >> (3 * level)) & 7;
        let (nc, nh) = child_geometry(c, h, oct);
        c = nc;
        h = nh;
    }
    (c, h)
}

/// Deterministic contiguous bucket → rank assignment: walking the buckets
/// in key order, rank `r` is closed once the cumulative body count reaches
/// its share of the total.  Every rank computes this from the same
/// allgathered histogram with pure integer arithmetic, so the assignment
/// never diverges between ranks.
fn assign_buckets(counts: &[u64; BUCKETS], ranks: usize) -> [usize; BUCKETS] {
    let total: u64 = counts.iter().sum();
    let mut owner = [0usize; BUCKETS];
    let mut r = 0usize;
    let mut acc = 0u64;
    for b in 0..BUCKETS {
        owner[b] = r;
        acc += counts[b];
        while r + 1 < ranks && acc * ranks as u64 >= (r as u64 + 1) * total {
            r += 1;
        }
    }
    owner
}

/// Accumulates child summaries with exactly the arithmetic (and, via the
/// callers, exactly the octant order) of the centre-of-mass phase's
/// per-cell fold, so sorted-build summaries match insertion-build
/// summaries to the last bit.
struct Fold {
    mass: f64,
    moment: Vec3,
    cost: u64,
    nbodies: u32,
}

impl Fold {
    fn new() -> Fold {
        Fold { mass: 0.0, moment: Vec3::ZERO, cost: 0, nbodies: 0 }
    }

    /// Folds one child's summary in (a leaf's payload *is* its body record,
    /// so both arms mirror `try_summarize_cell`).
    fn add(&mut self, child: &CellNode) {
        self.mass += child.mass;
        self.moment += child.cofm * child.mass;
        self.cost += child.cost;
        self.nbodies += match child.kind {
            NodeKind::Body => 1,
            NodeKind::Cell => child.nbodies,
        };
    }

    /// Writes the folded summary into `cell` and marks it done.
    fn finish(self, cell: &mut CellNode) {
        cell.mass = self.mass;
        cell.cofm = if self.mass > 0.0 { self.moment / self.mass } else { cell.center };
        cell.cost = self.cost;
        cell.nbodies = self.nbodies;
        cell.done = true;
    }
}

/// Runs the sorted build for this step: encodes, routes, sorts, builds the
/// bucket subtrees and hooks them under the rank-0 spine.  On return (all
/// ranks, after a barrier) the shared root points at a fully summarized
/// tree — the centre-of-mass phase has nothing left to do.
///
/// Returns `(local_seconds, hook_seconds)` simulated sub-phase times for
/// the Figure 8 style breakdown (like the §5.4 merged build: per-rank
/// bucket construction vs. spine hooking).
pub fn sorted_build(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    center: Vec3,
    rsize: f64,
) -> (f64, f64) {
    let local_start = ctx.now();
    let root_half = rsize / 2.0;

    // Phase 1: encode every owned body's descent key (21 cheap local tree
    // ops — against the insertion build's 1 shared read + 1 tree op + lock
    // traffic *per level per body*).
    let mut mine: Vec<SortedBody> = Vec::with_capacity(st.my_ids.len());
    let mut histogram = [0u32; BUCKETS];
    for i in 0..st.my_ids.len() {
        let id = st.my_ids[i];
        let b = read_body(ctx, shared, st, cfg, id);
        let key = descent_key(b.pos, center, root_half);
        histogram[bucket_of(key)] += 1;
        mine.push(SortedBody { key, pos: b.pos, mass: b.mass, id, cost: b.cost });
    }
    ctx.bill(Price::TreeOp, st.my_ids.len() as u64 * KEY_LEVELS as u64);

    // Phase 2: global bucket histogram.  A fixed-size array, so the
    // collective bills its real 2 KiB payload.
    let all_histograms = ctx.allgather(histogram);
    let mut counts = [0u64; BUCKETS];
    for h in &all_histograms {
        for (c, n) in counts.iter_mut().zip(h.iter()) {
            *c += *n as u64;
        }
    }
    ctx.bill(Price::LocalAccess, BUCKETS as u64);

    // Phase 3: every rank computes the same bucket → rank assignment.
    let owner_of = assign_buckets(&counts, ctx.ranks());

    // Phase 4: all-to-all key routing (billed per byte, like the §6 body
    // exchange).
    let mut outgoing: Vec<Vec<SortedBody>> = vec![Vec::new(); ctx.ranks()];
    for sb in mine {
        outgoing[owner_of[bucket_of(sb.key)]].push(sb);
    }
    let mut local: Vec<SortedBody> = ctx.exchange(outgoing).into_iter().flatten().collect();

    // Phase 5: sort the received slice by (key, id) — with the contiguous
    // bucket ranges this completes the cooperative global sort.
    local.sort_unstable_by_key(|sb| (sb.key, sb.id));
    let m = local.len() as u64;
    if m > 1 {
        ctx.bill(Price::TreeOp, m * (64 - (m - 1).leading_zeros()) as u64);
    }

    // Phase 6: build each assigned bucket's subtree from its sorted run.
    // Cells are allocated fully formed (children linked, summary folded,
    // `done` set) in post-order — no locks, no later fix-up writes.
    let mut reports: Vec<(u32, GlobalPtr)> = Vec::new();
    let mut start = 0usize;
    while start < local.len() {
        let bucket = bucket_of(local[start].key);
        let mut end = start + 1;
        while end < local.len() && bucket_of(local[end].key) == bucket {
            end += 1;
        }
        let (bc, bh) = bucket_geometry(center, root_half, bucket);
        let (ptr, _) = build_range(ctx, shared, st, &local[start..end], BUCKET_DEPTH, bc, bh);
        reports.push((bucket as u32, ptr));
        start = end;
    }
    let hook_start = ctx.now();

    // Phase 7: route the bucket roots to rank 0 (an exchange, so the report
    // bytes are billed honestly).
    let mut report_out: Vec<Vec<(u32, GlobalPtr)>> = vec![Vec::new(); ctx.ranks()];
    report_out[0] = reports;
    let gathered = ctx.exchange(report_out);

    // Phase 8: rank 0 hooks the buckets under the depth 0–2 spine and
    // publishes the root.
    if ctx.rank() == 0 {
        let mut ptrs = [GlobalPtr::NULL; BUCKETS];
        for (bucket, ptr) in gathered.into_iter().flatten() {
            ptrs[bucket as usize] = ptr;
        }
        let (root, _) = build_spine(ctx, shared, st, &counts, &ptrs, 0, 0, center, root_half);
        shared.root.write(ctx, root);
    }
    let hook_end = ctx.now();
    ctx.barrier();
    (hook_start - local_start, hook_end - hook_start)
}

/// Builds the subtree over a sorted, non-empty run of bodies that all share
/// the `depth`-digit key prefix of the cube `(center, half)`.  Returns the
/// node's pointer and a copy of its record (so parents fold without
/// re-reading the arena).
#[allow(clippy::too_many_arguments)]
fn build_range(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    bodies: &[SortedBody],
    depth: usize,
    center: Vec3,
    half: f64,
) -> (GlobalPtr, CellNode) {
    debug_assert!(!bodies.is_empty(), "build_range over an empty run");
    if bodies.len() == 1 {
        let b = &bodies[0];
        let leaf = CellNode::new_body(b.id, b.pos, b.mass, b.cost);
        return (shared.cells.alloc(ctx, leaf), leaf);
    }
    if depth > MAX_DEPTH + 16 {
        // Pathologically coincident bodies: keep the lowest id, drop the
        // rest — the same give-up as the insertion builders (their depth
        // guard orphans the excess leaves), which never triggers on the
        // registered scenario families.
        let b = bodies.iter().min_by_key(|b| b.id).expect("non-empty run");
        let leaf = CellNode::new_body(b.id, b.pos, b.mass, b.cost);
        return (shared.cells.alloc(ctx, leaf), leaf);
    }

    let mut cell = CellNode::new_cell(center, half);
    ctx.bill(Price::TreeOp, 1);
    let mut kids: [Option<CellNode>; 8] = [None; 8];
    if depth < KEY_LEVELS {
        // The run is key-sorted, so each child octant is a contiguous
        // sub-run of the next key digit.
        let shift = 3 * (KEY_LEVELS - 1 - depth);
        let mut start = 0usize;
        while start < bodies.len() {
            let oct = ((bodies[start].key >> shift) & 7) as usize;
            let mut end = start + 1;
            while end < bodies.len() && ((bodies[end].key >> shift) & 7) as usize == oct {
                end += 1;
            }
            let (cc, ch) = child_geometry(center, half, oct);
            let (ptr, node) = build_range(ctx, shared, st, &bodies[start..end], depth + 1, cc, ch);
            cell.children[oct] = ptr;
            kids[oct] = Some(node);
            start = end;
        }
    } else {
        // Below the key resolution (coincident to 21 levels): partition by
        // the true positions, like the insertion descent would.
        let mut groups: [Vec<SortedBody>; 8] = Default::default();
        for b in bodies {
            groups[b.pos.octant_of(center)].push(*b);
        }
        for (oct, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let (cc, ch) = child_geometry(center, half, oct);
            let (ptr, node) = build_range(ctx, shared, st, group, depth + 1, cc, ch);
            cell.children[oct] = ptr;
            kids[oct] = Some(node);
        }
    }

    let mut fold = Fold::new();
    for node in kids.iter().flatten() {
        fold.add(node);
    }
    fold.finish(&mut cell);
    let ptr = shared.cells.alloc(ctx, cell);
    st.my_cells.push(ptr);
    (ptr, cell)
}

/// Builds the spine node over the bucket range of `(depth, prefix)` on
/// rank 0: attaches bucket roots at [`BUCKET_DEPTH`], hands single-body
/// subtrees up as bare leaves (a cell only exists where ≥ 2 bodies share
/// the region — the insertion build's structural rule), and folds spine
/// cell summaries from their children's records.
#[allow(clippy::too_many_arguments)]
fn build_spine(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    counts: &[u64; BUCKETS],
    ptrs: &[GlobalPtr; BUCKETS],
    depth: usize,
    prefix: usize,
    center: Vec3,
    half: f64,
) -> (GlobalPtr, CellNode) {
    if depth == BUCKET_DEPTH {
        let ptr = ptrs[prefix];
        debug_assert!(!ptr.is_null(), "non-empty bucket without a reported root");
        return (ptr, shared.cells.read(ctx, ptr));
    }
    let span = 1usize << (3 * (BUCKET_DEPTH - depth - 1));
    let mut cell = CellNode::new_cell(center, half);
    ctx.bill(Price::TreeOp, 1);
    let mut kids: [Option<CellNode>; 8] = [None; 8];
    let mut total = 0u64;
    for (oct, kid) in kids.iter_mut().enumerate() {
        let cprefix = (prefix << 3) | oct;
        let cnt: u64 = counts[cprefix * span..(cprefix + 1) * span].iter().sum();
        total += cnt;
        if cnt == 0 {
            continue;
        }
        let (cc, ch) = child_geometry(center, half, oct);
        let (ptr, node) = build_spine(ctx, shared, st, counts, ptrs, depth + 1, cprefix, cc, ch);
        cell.children[oct] = ptr;
        *kid = Some(node);
    }
    if depth > 0 && total == 1 {
        // A single body below this region: no cell here — hand the leaf up.
        let oct = (0..8).find(|&o| kids[o].is_some()).expect("one child must exist");
        return (cell.children[oct], kids[oct].expect("checked above"));
    }
    let mut fold = Fold::new();
    for node in kids.iter().flatten() {
        fold.add(node);
    }
    fold.finish(&mut cell);
    let ptr = shared.cells.alloc(ctx, cell);
    if depth > 0 {
        st.my_cells.push(ptr);
    }
    (ptr, cell)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treebuild::{
        allocate_root, bounding_box_phase, center_of_mass_phase, insert_owned_bodies,
    };
    use engine::config::{OptLevel, SimConfig, TreeBuild};
    use pgas::Runtime;

    fn build_with(
        build: TreeBuild,
        nbodies: usize,
        ranks: usize,
        opt: OptLevel,
    ) -> (BhShared, pgas::RunReport<()>) {
        let mut cfg = SimConfig::test(nbodies, ranks, opt);
        cfg.build = build;
        let shared = BhShared::with_bodies(
            &cfg,
            nbody::plummer::generate(&nbody::plummer::PlummerConfig::new(nbodies, cfg.seed)),
        );
        let rt = Runtime::new(cfg.machine.clone());
        let report = rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            let (center, rsize) = bounding_box_phase(ctx, &shared, &mut st, &cfg);
            match build {
                TreeBuild::Sorted => {
                    sorted_build(ctx, &shared, &mut st, &cfg, center, rsize);
                }
                TreeBuild::Insertion => {
                    allocate_root(ctx, &shared, center, rsize);
                    ctx.barrier();
                    insert_owned_bodies(ctx, &shared, &mut st, &cfg);
                    ctx.barrier();
                    center_of_mass_phase(ctx, &shared, &mut st, &cfg);
                    ctx.barrier();
                }
            }
        });
        (shared, report)
    }

    /// Asserts the two trees are identical: same shape, same kinds, same
    /// geometry and summaries to the last bit.
    fn assert_trees_identical(a: &BhShared, b: &BhShared, pa: GlobalPtr, pb: GlobalPtr) {
        let na = a.cells.read_raw(pa);
        let nb = b.cells.read_raw(pb);
        assert_eq!(na.kind, nb.kind);
        assert_eq!(na.center.x.to_bits(), nb.center.x.to_bits());
        assert_eq!(na.center.y.to_bits(), nb.center.y.to_bits());
        assert_eq!(na.center.z.to_bits(), nb.center.z.to_bits());
        assert_eq!(na.half.to_bits(), nb.half.to_bits());
        assert_eq!(na.mass.to_bits(), nb.mass.to_bits());
        assert_eq!(na.cofm.x.to_bits(), nb.cofm.x.to_bits());
        assert_eq!(na.cofm.y.to_bits(), nb.cofm.y.to_bits());
        assert_eq!(na.cofm.z.to_bits(), nb.cofm.z.to_bits());
        assert_eq!(na.cost, nb.cost);
        assert_eq!(na.nbodies, nb.nbodies);
        assert_eq!(na.body_id, nb.body_id);
        assert_eq!(na.done, nb.done);
        if na.kind == NodeKind::Cell {
            for oct in 0..8 {
                assert_eq!(
                    na.children[oct].is_null(),
                    nb.children[oct].is_null(),
                    "child shape differs at octant {oct}"
                );
                if !na.children[oct].is_null() {
                    assert_trees_identical(a, b, na.children[oct], nb.children[oct]);
                }
            }
        }
    }

    #[test]
    fn sorted_build_matches_insertion_bit_for_bit() {
        for ranks in [1, 3, 4] {
            let (ins, _) = build_with(TreeBuild::Insertion, 220, ranks, OptLevel::Redistribute);
            let (srt, _) = build_with(TreeBuild::Sorted, 220, ranks, OptLevel::Redistribute);
            assert_trees_identical(&ins, &srt, ins.root.read_raw(), srt.root.read_raw());
        }
    }

    #[test]
    fn sorted_build_acquires_zero_locks() {
        let (_, sorted_report) = build_with(TreeBuild::Sorted, 300, 4, OptLevel::CacheLocalTree);
        for r in &sorted_report.ranks {
            assert_eq!(
                r.stats.lock_acquires, 0,
                "rank {}: the sorted build must never take a lock",
                r.rank
            );
        }
        // Contrast: the insertion build's subdivisions do lock.
        let (_, insertion_report) =
            build_with(TreeBuild::Insertion, 300, 4, OptLevel::CacheLocalTree);
        let insertion_locks: u64 =
            insertion_report.ranks.iter().map(|r| r.stats.lock_acquires).sum();
        assert!(insertion_locks > 0, "insertion build is expected to lock on subdivision");
    }

    #[test]
    fn sorted_tree_contains_every_body_once() {
        for (nbodies, ranks) in [(64usize, 1usize), (200, 3), (257, 7)] {
            let (shared, _) = build_with(TreeBuild::Sorted, nbodies, ranks, OptLevel::Redistribute);
            let root = shared.root.read_raw();
            assert!(!root.is_null());
            let mut seen = vec![false; nbodies];
            fn visit(shared: &BhShared, ptr: GlobalPtr, seen: &mut [bool]) -> u32 {
                let node = shared.cells.read_raw(ptr);
                match node.kind {
                    NodeKind::Body => {
                        assert!(!seen[node.body_id as usize], "body {} twice", node.body_id);
                        seen[node.body_id as usize] = true;
                        1
                    }
                    NodeKind::Cell => {
                        assert!(node.done, "sorted cells are born summarized");
                        let mut count = 0;
                        for c in node.children {
                            if !c.is_null() {
                                count += visit(shared, c, seen);
                            }
                        }
                        assert_eq!(count, node.nbodies);
                        count
                    }
                }
            }
            let count = visit(&shared, root, &mut seen);
            assert_eq!(count as usize, nbodies, "{ranks} ranks");
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn descent_keys_sort_like_the_descent() {
        // Keys of bodies in different root octants order by root octant;
        // equal prefixes group together.
        let center = Vec3::ZERO;
        let half = 4.0;
        let a = descent_key(Vec3::new(-1.0, -1.0, -1.0), center, half);
        let b = descent_key(Vec3::new(1.0, -1.0, -1.0), center, half);
        let c = descent_key(Vec3::new(1.0, 1.0, 1.0), center, half);
        assert!(a < b && b < c);
        assert_eq!(bucket_of(a) >> 6, 0);
        assert_eq!(bucket_of(c) >> 6, 7);
        // 63 bits: the top bit is never set.
        assert_eq!(descent_key(Vec3::new(3.9, 3.9, 3.9), center, half) >> 63, 0);
    }

    #[test]
    fn bucket_assignment_is_contiguous_and_balanced() {
        let mut counts = [0u64; BUCKETS];
        for (b, c) in counts.iter_mut().enumerate() {
            *c = (b % 7) as u64;
        }
        let owner = assign_buckets(&counts, 4);
        // Contiguous, monotone, starts at rank 0 and uses every rank.
        assert_eq!(owner[0], 0);
        for w in owner.windows(2) {
            assert!(w[1] == w[0] || w[1] == w[0] + 1);
        }
        assert_eq!(owner[BUCKETS - 1], 3);
        // Balanced to within one bucket's weight.
        let total: u64 = counts.iter().sum();
        for r in 0..4 {
            let share: u64 = (0..BUCKETS).filter(|&b| owner[b] == r).map(|b| counts[b]).sum();
            assert!(share <= total / 4 + 7, "rank {r} got {share} of {total}");
        }
    }
}
