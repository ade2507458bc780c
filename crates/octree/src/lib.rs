//! # octree — sequential Barnes-Hut octree substrate
//!
//! The paper's distributed solvers all manipulate *some* octree: the shared
//! global tree of the baseline, per-thread local trees used as caches (§5.3),
//! per-thread local trees that are merged (§5.4), and the cost-threshold
//! subspace tree of §6.  This crate provides the sequential pieces those
//! solvers are assembled from:
//!
//! * [`tree::Octree`] — an arena-based octree over a slice of bodies, with
//!   SPLASH-2 geometry (cubic cells, power-of-two root size, one body per
//!   leaf up to a depth limit);
//! * [`tree::Octree::compute_mass`] — bottom-up centre-of-mass / total-mass
//!   computation;
//! * [`walk`] — the force-computation tree walk with the `l/d < θ` multipole
//!   acceptance criterion and Plummer softening (identical arithmetic to
//!   `nbody::direct`, so the two converge as θ → 0).
//!
//! Assigning bodies to threads is not done here: the SPLASH-2 costzones
//! partitioner every distributed solver runs is `bh::partition`.
//!
//! The distributed variants in the `bh` crate re-express tree *construction*
//! against the PGAS emulator; they reuse this crate's geometry helpers and
//! its tree walk for correctness checks.

pub mod tree;
pub mod walk;

pub use tree::{Node, Octree, TreeParams};
pub use walk::{accel_on, accel_on_body, compute_forces, WalkResult};
