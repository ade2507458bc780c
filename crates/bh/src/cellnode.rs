//! The shared octree node stored in the PGAS cell arena.
//!
//! SPLASH-2 (and the paper's UPC port) represents the octree with two kinds
//! of records: *cells* (internal nodes with eight child pointers) and
//! *bodies* (leaves).  Both are reached through pointers-to-shared.  Here the
//! two are folded into one `Copy` struct so that a single
//! [`pgas::SharedArena`] can hold the whole distributed tree; the `kind`
//! field distinguishes them.
//!
//! Every tree build stores its nodes in that one arena; what differs is the
//! record a node access bills.  The insertion build bills the host struct,
//! `size_of::<CellNode>()` = 152 bytes.  The sorted build bills the compact
//! record it models, [`COMPACT_NODE_BYTES`] = 120, whose child links are
//! 32-bit handles instead of fat pointers-to-shared.

use nbody::Vec3;
use pgas::GlobalPtr;
use serde::{Deserialize, Serialize};

/// Bytes one node bills under the sorted build: the compact record of eight
/// 32-bit child handles (`rank << 24 | index`), the centre of mass, the mass,
/// the cube centre and half side, and the cost, body count, body id, kind
/// and done flag padded to 8-byte alignment.
pub const COMPACT_NODE_BYTES: usize = 8 * 4 // child handles
    + 24 + 8 // centre of mass, mass
    + 24 + 8 // cube centre, half side
    + 8 + 4 + 4 + 1 + 1 + 6; // cost, nbodies, body_id, kind, done, padding

const _: () = assert!(COMPACT_NODE_BYTES < std::mem::size_of::<CellNode>());

/// Number of ranks a compact child handle can address: the rank takes its
/// top 8 bits and the all-ones handle is null, so ranks `0..255`.  The upc
/// capability row ([`crate::backend::CAPS`]) rejects a sorted build on a
/// larger machine.
pub const COMPACT_MAX_RANKS: usize = 0xFF;

/// Kind of a shared tree node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// Internal cell with up to eight children.
    Cell,
    /// Leaf referencing one body (`body_id` indexes the global body table).
    Body,
}

/// A node of the distributed octree, stored in the shared cell arena.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CellNode {
    /// Cell or body leaf.
    pub kind: NodeKind,
    /// Geometric centre of the cell (unused for body leaves).
    pub center: Vec3,
    /// Half of the cell side length (unused for body leaves).
    pub half: f64,
    /// Total mass below this node (for body leaves: the body's mass).
    pub mass: f64,
    /// Centre of mass below this node (for body leaves: the body position).
    pub cofm: Vec3,
    /// Accumulated interaction cost below this node.
    pub cost: u64,
    /// Number of bodies below this node.
    pub nbodies: u32,
    /// Child pointers (cells only).
    pub children: [GlobalPtr; 8],
    /// Global body index (body leaves only).
    pub body_id: u32,
    /// `true` once the centre of mass of this node is valid (the SPLASH-2
    /// `done` flag used by the parallel centre-of-mass phase).
    pub done: bool,
}

impl CellNode {
    /// Creates an empty internal cell with the given geometry.
    pub fn new_cell(center: Vec3, half: f64) -> Self {
        CellNode {
            kind: NodeKind::Cell,
            center,
            half,
            mass: 0.0,
            cofm: Vec3::ZERO,
            cost: 0,
            nbodies: 0,
            children: [GlobalPtr::NULL; 8],
            body_id: u32::MAX,
            done: false,
        }
    }

    /// Creates a body leaf for global body `body_id` with the given position
    /// and mass (copied so that tree walks need not re-read the body table).
    pub fn new_body(body_id: u32, pos: Vec3, mass: f64, cost: u32) -> Self {
        CellNode {
            kind: NodeKind::Body,
            center: pos,
            half: 0.0,
            mass,
            cofm: pos,
            cost: cost.max(1) as u64,
            nbodies: 1,
            children: [GlobalPtr::NULL; 8],
            body_id,
            done: true,
        }
    }

    /// `true` for internal cells.
    pub fn is_cell(&self) -> bool {
        self.kind == NodeKind::Cell
    }

    /// `true` for body leaves.
    pub fn is_body(&self) -> bool {
        self.kind == NodeKind::Body
    }

    /// Side length of the cell (0 for body leaves).
    pub fn side(&self) -> f64 {
        2.0 * self.half
    }

    /// Centre and half-size of the `octant`-th child sub-cell.
    pub fn child_geometry(&self, octant: usize) -> (Vec3, f64) {
        let q = self.half / 2.0;
        let offset = Vec3::new(
            if octant & 1 != 0 { q } else { -q },
            if octant & 2 != 0 { q } else { -q },
            if octant & 4 != 0 { q } else { -q },
        );
        (self.center + offset, q)
    }

    /// The octant of `pos` within this cell.
    pub fn octant_of(&self, pos: Vec3) -> usize {
        pos.octant_of(self.center)
    }

    /// Folds another node's (mass, centre of mass, cost, body count) into
    /// this one as a weighted average — the commutative, associative merge
    /// used by §5.4 when two cells are combined.
    pub fn merge_summary(&mut self, mass: f64, cofm: Vec3, cost: u64, nbodies: u32) {
        let total = self.mass + mass;
        if total > 0.0 {
            self.cofm = (self.cofm * self.mass + cofm * mass) / total;
        }
        self.mass = total;
        self.cost += cost;
        self.nbodies += nbodies;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_and_body_constructors() {
        let c = CellNode::new_cell(Vec3::ZERO, 2.0);
        assert!(c.is_cell());
        assert!(!c.is_body());
        assert_eq!(c.side(), 4.0);
        assert!(c.children.iter().all(|p| p.is_null()));
        assert!(!c.done);

        let b = CellNode::new_body(7, Vec3::new(1.0, 2.0, 3.0), 0.5, 0);
        assert!(b.is_body());
        assert_eq!(b.body_id, 7);
        assert_eq!(b.mass, 0.5);
        assert_eq!(b.cofm, Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.nbodies, 1);
        assert_eq!(b.cost, 1, "zero cost is clamped to one");
        assert!(b.done);
    }

    #[test]
    fn child_geometry_octants() {
        let c = CellNode::new_cell(Vec3::ZERO, 2.0);
        let (c0, h0) = c.child_geometry(0);
        assert_eq!(h0, 1.0);
        assert_eq!(c0, Vec3::new(-1.0, -1.0, -1.0));
        let (c7, _) = c.child_geometry(7);
        assert_eq!(c7, Vec3::new(1.0, 1.0, 1.0));
        // The octant of a child centre maps back to its index.
        for octant in 0..8 {
            let (pos, _) = c.child_geometry(octant);
            assert_eq!(c.octant_of(pos), octant);
        }
    }

    #[test]
    fn merge_summary_is_weighted_average() {
        let mut a = CellNode::new_cell(Vec3::ZERO, 1.0);
        a.merge_summary(1.0, Vec3::new(0.0, 0.0, 0.0), 2, 1);
        a.merge_summary(3.0, Vec3::new(4.0, 0.0, 0.0), 5, 3);
        assert_eq!(a.mass, 4.0);
        assert_eq!(a.cofm, Vec3::new(3.0, 0.0, 0.0));
        assert_eq!(a.cost, 7);
        assert_eq!(a.nbodies, 4);
    }

    #[test]
    fn merge_summary_commutes() {
        let mut a = CellNode::new_cell(Vec3::ZERO, 1.0);
        let mut b = CellNode::new_cell(Vec3::ZERO, 1.0);
        let parts = [
            (1.0, Vec3::new(1.0, 0.0, 0.0)),
            (2.0, Vec3::new(0.0, 3.0, 0.0)),
            (0.5, Vec3::new(0.0, 0.0, -2.0)),
        ];
        for &(m, p) in &parts {
            a.merge_summary(m, p, 1, 1);
        }
        for &(m, p) in parts.iter().rev() {
            b.merge_summary(m, p, 1, 1);
        }
        assert!((a.cofm - b.cofm).norm() < 1e-12);
        assert!((a.mass - b.mass).abs() < 1e-12);
    }
}
