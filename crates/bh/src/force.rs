//! The force-computation and body-advancement phases.
//!
//! Three force engines are provided, matching the paper's ladder:
//!
//! * [`force_phase_uncached`] — the literal translation: the walk
//!   dereferences pointers-to-shared for every cell it touches and re-reads
//!   `tol`/`eps` according to the level's scalar discipline (Tables 2–4).
//!   Nothing writes the tree or the scalars while forces are computed, so
//!   the emulator only *bills* those reads: the walk reads the epoch's
//!   frozen copy of the cell arena ([`pgas::Frozen`]) and θ/ε fetched once
//!   per phase, counts every field read and every scalar use, and pays for
//!   them at the walk's end exactly as fetches through the
//!   pointer-to-shared would.
//! * [`force_phase_cached`] — the §5.3 demand-driven cache
//!   ([`crate::cache::CacheTree`]) with blocking misses (Tables 5–6).
//! * the §5.5 non-blocking aggregated engine lives in [`crate::frontier`]
//!   (Table 7 onwards).
//!
//! The body-advancement phase ([`advance_phase`]) is the SPLASH-2 leapfrog
//! update, with the same access discipline as every other body access.

use crate::cache::CacheTree;
use crate::cellnode::{CellNode, NodeKind};
use crate::shared::{read_body, read_eps, read_theta, write_body, BhShared, RankState};
use engine::config::{OptLevel, SimConfig, FINE_GRAINED_FIELDS};
use nbody::direct::pairwise_acceleration;
use nbody::{Body, Vec3};
use octree::walk::cell_is_far;
use pgas::{Ctx, Frozen, GlobalPtr, Price};

/// Per-body force result used by all engines before write-back.
#[derive(Debug, Clone, Copy)]
pub struct BodyForce {
    /// Global body id.
    pub id: u32,
    /// New acceleration.
    pub acc: Vec3,
    /// New potential.
    pub phi: f64,
    /// Interactions evaluated (next step's cost).
    pub cost: u32,
}

/// Writes computed forces back into the body table under the level's access
/// discipline.
///
/// On the redistributed path (§5.2 onwards) every force belongs to an owned,
/// local body (its pointer-to-shared cast to local), so the write-back runs
/// as one read pass over all owned bodies, the field updates in private
/// memory, then one write pass — instead of interleaving a read-modify-write
/// round trip through the body table per body.  The accesses stay individual
/// local slot accesses (not pgas bulk messages: nothing is remote here), and
/// the charged counts are identical to the per-body path — one local access
/// per body for the read and one for the write, charged in two batches.
pub fn write_back(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
    forces: &[BodyForce],
) {
    if cfg.opt.redistributes_bodies() {
        debug_assert!(
            forces.iter().all(|f| st.owns(f.id)),
            "owner-computes: only the owner may write a body"
        );
        // Read pass: all owned bodies, one batched charge.
        ctx.bill(Price::LocalAccess, forces.len() as u64);
        let mut bodies: Vec<Body> =
            forces.iter().map(|f| shared.bodytab.read_raw(f.id as usize)).collect();
        for (body, f) in bodies.iter_mut().zip(forces) {
            body.acc = f.acc;
            body.phi = f.phi;
            body.cost = f.cost.max(1);
        }
        // Write pass: the updated bodies back into the table, one batched
        // charge.
        ctx.bill(Price::LocalAccess, forces.len() as u64);
        for (body, f) in bodies.iter().zip(forces) {
            shared.bodytab.write_raw(f.id as usize, *body);
        }
    } else {
        for f in forces {
            let mut body = read_body(ctx, shared, st, cfg, f.id);
            body.acc = f.acc;
            body.phi = f.phi;
            body.cost = f.cost.max(1);
            write_body(ctx, shared, st, cfg, f.id, body);
        }
    }
}

/// The force phase of the literal translation (no caching): every visited
/// cell is re-read through its pointer-to-shared for every body.
///
/// The reads are billed, not fetched: the walk reads the epoch's frozen copy
/// of the cell arena, which the ranks share, counts each visit's
/// [`FINE_GRAINED_FIELDS`] field reads per owner and pays for a whole walk
/// in one charge per owner.
pub fn force_phase_uncached(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
) -> Vec<BodyForce> {
    let root = shared.root.read(ctx);
    let mut walk = SharedWalk {
        cells: shared.cells.frozen(ctx),
        scalars: WalkScalars::new(shared, st, cfg.opt),
        stack: Vec::new(),
        visits: vec![0; ctx.ranks()],
    };
    let mut out = Vec::with_capacity(st.my_ids.len());
    for &id in &st.my_ids {
        let body = read_body(ctx, shared, st, cfg, id);
        walk.stack.push(root);
        out.push(walk.run(ctx, id, &body));
    }
    out
}

/// θ and ε as the uncached walk uses them.  Where the level re-reads the
/// shared scalar at every use (the baseline without the software cache),
/// the values are fetched once per phase — nobody writes them — and the
/// walk counts its uses, paid for at its end through
/// [`pgas::shared::SharedScalar::pay_for_reads`]; the replicated copies and
/// the software cache keep their own discipline ([`read_theta`],
/// [`read_eps`]).
struct WalkScalars<'a> {
    shared: &'a BhShared,
    st: &'a RankState,
    opt: OptLevel,
    /// `(θ, ε)` when each use is a billed read of the shared scalar.
    held: Option<(f64, f64)>,
    /// Uses of the held θ and ε not paid for yet.
    theta_uses: u64,
    eps_uses: u64,
}

impl<'a> WalkScalars<'a> {
    fn new(shared: &'a BhShared, st: &'a RankState, opt: OptLevel) -> Self {
        let rereads = !opt.replicates_scalars() && st.scalar_caches.is_none();
        let held = rereads.then(|| (shared.tol.read_raw(), shared.eps.read_raw()));
        WalkScalars { shared, st, opt, held, theta_uses: 0, eps_uses: 0 }
    }

    #[inline]
    fn theta(&mut self, ctx: &Ctx) -> f64 {
        match self.held {
            Some((theta, _)) => {
                self.theta_uses += 1;
                theta
            }
            None => read_theta(ctx, self.shared, self.st, self.opt),
        }
    }

    #[inline]
    fn eps(&mut self, ctx: &Ctx) -> f64 {
        match self.held {
            Some((_, eps)) => {
                self.eps_uses += 1;
                eps
            }
            None => read_eps(ctx, self.shared, self.st, self.opt),
        }
    }

    /// Pays for the held scalars' uses counted so far.
    fn pay(&mut self, ctx: &Ctx) {
        self.shared.tol.pay_for_reads(ctx, std::mem::take(&mut self.theta_uses));
        self.shared.eps.pay_for_reads(ctx, std::mem::take(&mut self.eps_uses));
    }
}

/// The uncached walk's per-phase state: the frozen cells, the scalars, one
/// traversal stack every walk drains and the visits per owner rank the
/// current walk has not paid for yet.
struct SharedWalk<'a> {
    cells: Frozen<CellNode>,
    scalars: WalkScalars<'a>,
    stack: Vec<GlobalPtr>,
    visits: Vec<u64>,
}

impl SharedWalk<'_> {
    /// Walks the shared tree for one body without caching, from the cells
    /// on the stack (the root) until it is empty again.  Nothing reads the
    /// clock inside a walk, so paying for every visit and scalar use at its
    /// end bills exactly what paying for each one as it happens would.
    fn run(&mut self, ctx: &Ctx, id: u32, body: &Body) -> BodyForce {
        let mut acc = Vec3::ZERO;
        let mut phi = 0.0;
        let mut interactions = 0u32;
        let mut macs = 0u64;

        while let Some(ptr) = self.stack.pop() {
            // The literal translation reads the cell's fields one by one
            // through the pointer-to-shared (mass, centre of mass, child
            // pointers), so each visit is several fine-grained accesses.
            let node = self.cells.get(ctx, ptr);
            self.visits[ptr.threadof()] += 1;
            match node.kind {
                NodeKind::Body => {
                    if node.body_id == id {
                        continue;
                    }
                    let eps = self.scalars.eps(ctx);
                    let (a, p) = pairwise_acceleration(body.pos, node.cofm, node.mass, eps);
                    acc += a;
                    phi += p;
                    interactions += 1;
                }
                NodeKind::Cell => {
                    if node.nbodies == 0 {
                        continue;
                    }
                    macs += 1;
                    let theta = self.scalars.theta(ctx);
                    let dist_sq = body.pos.dist_sq(node.cofm);
                    if cell_is_far(node.side(), dist_sq, theta) {
                        let eps = self.scalars.eps(ctx);
                        let (a, p) = pairwise_acceleration(body.pos, node.cofm, node.mass, eps);
                        acc += a;
                        phi += p;
                        interactions += 1;
                    } else {
                        for &c in &node.children {
                            if !c.is_null() {
                                self.stack.push(c);
                            }
                        }
                    }
                }
            }
        }
        self.cells.pay_for_reads(ctx, &self.visits, FINE_GRAINED_FIELDS);
        self.visits.fill(0);
        self.scalars.pay(ctx);
        ctx.bill(Price::Mac, macs);
        ctx.bill(Price::Interaction, interactions as u64);
        ctx.bill(Price::PtrSurcharge, interactions as u64);
        BodyForce { id, acc, phi, cost: interactions }
    }
}

/// The §5.3 cached force phase: one cache tree per rank, blocking
/// localization on miss.
///
/// [`SimConfig::shadow_cache`] selects the cache's load discipline — §5.3.1
/// copies every cell it opens, §5.3.2 pointer-casts the ones local to the
/// rank (see [`crate::cache`]); both produce identical forces and identical
/// remote traffic.
///
/// The cache lives for exactly one force phase, as the paper describes,
/// under every [`engine::config::TreePolicy`]: a persistent tree outlives
/// the step, its cache does not.
///
/// Under [`engine::config::WalkMode::Group`] the per-group engine
/// ([`crate::groupwalk::force_phase_group`]) replaces the per-body loop
/// below: one traversal per body group over the same cache, streaming each
/// accepted cell and opened leaf batch to the members that reach it with
/// the same SoA leaf-coalesced kernel.  The per-body path here stays
/// bit-for-bit what it was before the walk-mode knob existed.
pub fn force_phase_cached(
    ctx: &Ctx,
    shared: &BhShared,
    st: &RankState,
    cfg: &SimConfig,
) -> Vec<BodyForce> {
    if cfg.walk == engine::config::WalkMode::Group {
        return crate::groupwalk::force_phase_group(ctx, shared, st, cfg);
    }
    let theta = read_theta(ctx, shared, st, cfg.opt);
    let eps = read_eps(ctx, shared, st, cfg.opt);
    let mut cache = CacheTree::new(ctx, shared, cfg.shadow_cache);
    let mut out = Vec::with_capacity(st.my_ids.len());
    for &id in &st.my_ids {
        let body = read_body(ctx, shared, st, cfg, id);
        let r = cache.walk(ctx, shared, body.pos, id, theta, eps);
        out.push(BodyForce { id, acc: r.acc, phi: r.phi, cost: r.interactions });
    }
    out
}

/// The body-advancement phase ("Body-adv."): a leapfrog update of every
/// owned body using the freshly computed accelerations.
pub fn advance_phase(ctx: &Ctx, shared: &BhShared, st: &RankState, cfg: &SimConfig) {
    for &id in &st.my_ids {
        let mut body = read_body(ctx, shared, st, cfg, id);
        body.vel += body.acc * cfg.dt;
        body.pos += body.vel * cfg.dt;
        write_body(ctx, shared, st, cfg, id, body);
    }
    ctx.bill(Price::LocalAccess, 2 * st.my_ids.len() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::RankState;
    use crate::treebuild::{
        allocate_root, bounding_box_phase, center_of_mass_phase, insert_owned_bodies,
    };
    use engine::config::OptLevel;
    use nbody::direct;
    use pgas::Runtime;

    fn forces_with(
        cfg: &SimConfig,
        engine: impl Fn(&Ctx, &BhShared, &RankState, &SimConfig) -> Vec<BodyForce> + Sync,
    ) -> (Vec<Body>, Vec<Body>, u64) {
        let shared = BhShared::new(cfg);
        let initial = shared.bodytab.snapshot();
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
            let forces = engine(ctx, &shared, &st, cfg);
            write_back(ctx, &shared, &st, cfg, &forces);
            ctx.barrier();
        });
        (initial, shared.bodytab.snapshot(), report.total_stats().remote_gets)
    }

    fn max_relative_error(result: &[Body], reference: &[Body]) -> f64 {
        result
            .iter()
            .zip(reference)
            .map(|(a, b)| (a.acc - b.acc).norm() / b.acc.norm().max(1e-12))
            .fold(0.0, f64::max)
    }

    #[test]
    fn uncached_forces_agree_with_sequential_tree_code() {
        let cfg = SimConfig::test(200, 3, OptLevel::ReplicateScalars);
        let (initial, after, _) = forces_with(&cfg, force_phase_uncached);
        let reference = octree::walk::compute_forces(&initial, cfg.theta, cfg.eps);
        // Both are Barnes-Hut with theta=1; trees may differ slightly in
        // construction order (and hence grouping), so allow a loose bound
        // while requiring agreement with direct summation below.
        let direct_ref = direct::compute_forces(&initial, cfg.eps);
        let err_direct = after
            .iter()
            .zip(&direct_ref)
            .map(|(a, b)| (a.acc - b.acc).norm() / b.acc.norm().max(1e-12))
            .sum::<f64>()
            / after.len() as f64;
        assert!(err_direct < 0.05, "mean error vs direct summation too large: {err_direct}");
        let _ = reference;
    }

    #[test]
    fn cached_and_uncached_forces_are_identical() {
        // Same tree, same traversal criterion: the cached walk must produce
        // exactly the same accelerations as the uncached walk.
        let cfg_a = SimConfig::test(250, 4, OptLevel::Redistribute);
        let cfg_b = SimConfig::test(250, 4, OptLevel::CacheLocalTree);
        let (_, after_uncached, remote_uncached) = forces_with(&cfg_a, force_phase_uncached);
        let (_, after_cached, remote_cached) = forces_with(&cfg_b, force_phase_cached);
        let err = max_relative_error(&after_cached, &after_uncached);
        assert!(err < 1e-9, "cached vs uncached force mismatch: {err}");
        assert!(
            remote_cached < remote_uncached,
            "caching must reduce remote traffic ({remote_cached} vs {remote_uncached})"
        );
    }

    #[test]
    fn batched_write_back_charges_match_per_body_discipline() {
        // The redistributed-path write-back runs as two passes with batched
        // charges but must charge exactly what the per-body discipline
        // charged: one local access per body for the read and one for the
        // write, and no remote traffic at all.
        let cfg = SimConfig::test(60, 2, OptLevel::Redistribute);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(cfg.machine.clone());
        rt.run(|ctx| {
            let st = RankState::new(ctx, &shared, &cfg);
            let forces: Vec<BodyForce> = st
                .my_ids
                .iter()
                .map(|&id| BodyForce { id, acc: Vec3::ZERO, phi: -1.0, cost: 7 })
                .collect();
            let before = ctx.stats_snapshot();
            write_back(ctx, &shared, &st, &cfg, &forces);
            let charged = ctx.stats_snapshot().delta(&before);
            assert_eq!(charged.local_accesses, 2 * forces.len() as u64);
            assert_eq!(charged.remote_gets, 0);
            assert_eq!(charged.remote_puts, 0);
            ctx.barrier();
        });
        let snap = shared.bodytab.snapshot();
        assert!(snap.iter().all(|b| b.cost == 7 && b.phi == -1.0));
    }

    #[test]
    fn advance_phase_moves_bodies() {
        let cfg = SimConfig::test(50, 2, OptLevel::Redistribute);
        let shared = BhShared::new(&cfg);
        let before = shared.bodytab.snapshot();
        let rt = Runtime::new(cfg.machine.clone());
        rt.run(|ctx| {
            let st = RankState::new(ctx, &shared, &cfg);
            advance_phase(ctx, &shared, &st, &cfg);
            ctx.barrier();
        });
        let after = shared.bodytab.snapshot();
        let moved = before.iter().zip(&after).filter(|(b, a)| (b.pos - a.pos).norm() > 0.0).count();
        // Plummer bodies have non-zero velocities, so essentially all move.
        assert!(moved > before.len() * 9 / 10);
    }

    #[test]
    fn baseline_force_reads_scalars_remotely_replicated_does_not() {
        let base = SimConfig::test(80, 2, OptLevel::Baseline);
        let repl = SimConfig::test(80, 2, OptLevel::ReplicateScalars);
        let (_, _, base_remote) = forces_with(&base, force_phase_uncached);
        let (_, _, repl_remote) = forces_with(&repl, force_phase_uncached);
        assert!(
            base_remote > repl_remote,
            "baseline must perform more remote reads ({base_remote}) than replicated scalars ({repl_remote})"
        );
    }
}
