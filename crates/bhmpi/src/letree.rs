//! Locally essential tree (LET) construction by explicit message passing.
//!
//! In the UPC code, remote octree cells are pulled in on demand during the
//! force walk and cached (§5.3/§5.5 of the paper).  A message-passing code
//! cannot dereference a remote pointer, so it does the inverse: *before* the
//! force phase, every rank pushes to every other rank exactly the part of its
//! local tree that the other rank could possibly need — Salmon's "locally
//! essential tree" (cited as [21] by the paper).  After the exchange each
//! rank walks a purely local tree and the force phase needs no communication
//! at all.
//!
//! Export rule: for a destination whose bodies all lie inside a bounding box
//! `B`, a local cell may be summarised as a single point mass if it satisfies
//! the `l/d < θ` opening criterion for **every** point of `B` (i.e. using the
//! minimum distance from `B` to the cell's centre of mass).  Cells that fail
//! the test are opened and their children considered; leaves that fail are
//! exported body-by-body.  The receiver therefore gets, from each peer, a
//! list of point masses that is guaranteed to be sufficient for a θ-accurate
//! walk over its own bodies.

use nbody::body::Body;
use nbody::vec3::Vec3;
use octree::tree::{Octree, NO_CHILD};
use octree::walk::cell_is_far;
use pgas::{Ctx, Price};
use serde::{Deserialize, Serialize};

/// Message tag used by the LET exchange.
pub const LET_TAG: u64 = 0x4c45_5421; // "LET!"

/// One exported element of a locally essential tree: either a far-cell
/// summary or an individual body, both reduced to a point mass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LetItem {
    /// Position (the cell's centre of mass, or the body position).
    pub pos: Vec3,
    /// Mass.
    pub mass: f64,
    /// `true` when this item summarises a whole cell rather than one body.
    pub is_summary: bool,
}

/// An axis-aligned bounding box of a rank's domain.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DomainBox {
    /// Lower corner.
    pub lo: Vec3,
    /// Upper corner.
    pub hi: Vec3,
    /// `false` when the rank owns no bodies (the box is then meaningless).
    pub occupied: bool,
}

impl DomainBox {
    /// The bounding box of a set of bodies.
    pub fn of(bodies: &[Body]) -> DomainBox {
        if bodies.is_empty() {
            return DomainBox { lo: Vec3::ZERO, hi: Vec3::ZERO, occupied: false };
        }
        let (lo, hi) = nbody::body::bounding_box(bodies);
        DomainBox { lo, hi, occupied: true }
    }

    /// Squared distance from the closest point of the box to `p`
    /// (zero when `p` lies inside the box).
    pub fn min_dist_sq(&self, p: Vec3) -> f64 {
        let clamped = Vec3::new(
            p.x.clamp(self.lo.x, self.hi.x),
            p.y.clamp(self.lo.y, self.hi.y),
            p.z.clamp(self.lo.z, self.hi.z),
        );
        clamped.dist_sq(p)
    }
}

/// Builds the export list of this rank's tree for a destination domain box.
///
/// Returns the list and the number of tree nodes visited (for work charging).
pub fn export_for(
    tree: &Octree,
    bodies: &[Body],
    dest: &DomainBox,
    theta: f64,
) -> (Vec<LetItem>, u64) {
    let mut items = Vec::new();
    let mut visited = 0u64;
    if !dest.occupied || tree.is_empty() {
        return (items, visited);
    }
    export_node(tree, bodies, 0, dest, theta, &mut items, &mut visited);
    (items, visited)
}

fn export_node(
    tree: &Octree,
    bodies: &[Body],
    node: usize,
    dest: &DomainBox,
    theta: f64,
    items: &mut Vec<LetItem>,
    visited: &mut u64,
) {
    let n = &tree.nodes[node];
    *visited += 1;
    if n.nbodies == 0 {
        return;
    }
    if n.is_leaf {
        for &bi in &n.bodies {
            items.push(LetItem { pos: bodies[bi].pos, mass: bodies[bi].mass, is_summary: false });
        }
        return;
    }
    let dist_sq = dest.min_dist_sq(n.cofm);
    if cell_is_far(n.side(), dist_sq, theta) {
        items.push(LetItem { pos: n.cofm, mass: n.mass, is_summary: true });
        return;
    }
    for octant in 0..8 {
        let child = n.children[octant];
        if child != NO_CHILD {
            export_node(tree, bodies, child as usize, dest, theta, items, visited);
        }
    }
}

/// Exchanges locally essential tree fragments with every other rank using
/// explicit point-to-point messages.
///
/// `tree` must already have its centres of mass computed.  Returns the items
/// imported from all peers (flattened).
pub fn exchange_let(
    ctx: &Ctx,
    tree: &Octree,
    owned: &[Body],
    domains: &[DomainBox],
    theta: f64,
) -> Vec<LetItem> {
    assert_eq!(domains.len(), ctx.ranks(), "one domain box per rank required");
    // Export pass: one message per peer.
    for (dest, domain) in domains.iter().enumerate() {
        if dest == ctx.rank() {
            continue;
        }
        let (items, visited) = export_for(tree, owned, domain, theta);
        ctx.bill(Price::TreeOp, visited);
        ctx.send(dest, LET_TAG, items);
    }
    // Import pass: one receive per peer.
    let mut imported = Vec::new();
    for source in 0..ctx.ranks() {
        if source == ctx.rank() {
            continue;
        }
        imported.extend(ctx.recv::<LetItem>(source, LET_TAG));
    }
    ctx.bill(Price::LocalAccess, imported.len() as u64);
    imported
}

/// Total mass of a list of LET items.
pub fn imported_mass(items: &[LetItem]) -> f64 {
    items.iter().map(|i| i.mass).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::plummer::{generate, PlummerConfig};
    use octree::tree::TreeParams;
    use pgas::{Machine, Runtime};

    fn tree_over(bodies: &[Body]) -> Octree {
        let mut t = Octree::build(bodies, TreeParams::default());
        t.compute_mass(bodies);
        t
    }

    #[test]
    fn domain_box_distance() {
        let b = DomainBox { lo: Vec3::ZERO, hi: Vec3::splat(1.0), occupied: true };
        assert_eq!(b.min_dist_sq(Vec3::splat(0.5)), 0.0);
        assert_eq!(b.min_dist_sq(Vec3::new(2.0, 0.5, 0.5)), 1.0);
        assert_eq!(b.min_dist_sq(Vec3::new(-1.0, -1.0, 0.5)), 2.0);
    }

    #[test]
    fn empty_domain_box() {
        let b = DomainBox::of(&[]);
        assert!(!b.occupied);
        let bodies = generate(&PlummerConfig::new(64, 1));
        let tree = tree_over(&bodies);
        let (items, _) = export_for(&tree, &bodies, &b, 1.0);
        assert!(items.is_empty(), "nothing is exported to an empty domain");
    }

    #[test]
    fn export_mass_is_conserved() {
        // Whatever mix of summaries and bodies is exported, the total mass
        // must equal the exporter's total mass (every body is covered exactly
        // once).
        let bodies = generate(&PlummerConfig::new(500, 7));
        let tree = tree_over(&bodies);
        let far_box = DomainBox { lo: Vec3::splat(40.0), hi: Vec3::splat(50.0), occupied: true };
        let near_box = DomainBox { lo: Vec3::splat(-0.2), hi: Vec3::splat(0.2), occupied: true };
        for dest in [far_box, near_box] {
            let (items, _) = export_for(&tree, &bodies, &dest, 1.0);
            let m = imported_mass(&items);
            assert!((m - 1.0).abs() < 1e-9, "exported mass {m} must equal total mass");
        }
    }

    #[test]
    fn far_destination_gets_few_summaries() {
        let bodies = generate(&PlummerConfig::new(500, 7));
        let tree = tree_over(&bodies);
        let far_box = DomainBox { lo: Vec3::splat(100.0), hi: Vec3::splat(101.0), occupied: true };
        let near_box = DomainBox { lo: Vec3::splat(-0.1), hi: Vec3::splat(0.1), occupied: true };
        let (far_items, _) = export_for(&tree, &bodies, &far_box, 1.0);
        let (near_items, _) = export_for(&tree, &bodies, &near_box, 1.0);
        assert!(
            far_items.len() < 10,
            "a very distant domain should receive a handful of summaries"
        );
        assert!(
            near_items.len() > 10 * far_items.len(),
            "a nearby domain needs far more detail ({} vs {})",
            near_items.len(),
            far_items.len()
        );
        assert!(far_items.iter().all(|i| i.is_summary));
    }

    #[test]
    fn smaller_theta_exports_more_detail() {
        let bodies = generate(&PlummerConfig::new(400, 9));
        let tree = tree_over(&bodies);
        let dest = DomainBox { lo: Vec3::splat(1.0), hi: Vec3::splat(2.0), occupied: true };
        let (coarse, _) = export_for(&tree, &bodies, &dest, 1.2);
        let (fine, _) = export_for(&tree, &bodies, &dest, 0.3);
        assert!(fine.len() > coarse.len());
    }

    #[test]
    fn exchange_let_covers_all_remote_mass() {
        let bodies = generate(&PlummerConfig::new(400, 21));
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let per = bodies.len() / ctx.ranks();
            let mine: Vec<Body> = bodies.iter().skip(ctx.rank() * per).take(per).copied().collect();
            let my_mass: f64 = mine.iter().map(|b| b.mass).sum();
            let domains: Vec<DomainBox> = ctx.allgather(DomainBox::of(&mine));
            let tree = tree_over(&mine);
            let imported = exchange_let(ctx, &tree, &mine, &domains, 1.0);
            my_mass + imported_mass(&imported)
        });
        for r in &report.ranks {
            assert!(
                (r.result - 1.0).abs() < 1e-9,
                "own + imported mass must equal the total system mass, got {}",
                r.result
            );
        }
    }

    #[test]
    fn exchange_let_single_rank_is_empty() {
        let bodies = generate(&PlummerConfig::new(100, 3));
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            let tree = tree_over(&bodies);
            let domains = vec![DomainBox::of(&bodies)];
            exchange_let(ctx, &tree, &bodies, &domains, 1.0).len()
        });
        assert_eq!(report.ranks[0].result, 0);
    }
}
