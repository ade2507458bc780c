//! Simulation configuration — re-exported from the solver-neutral
//! [`engine`] crate.
//!
//! [`SimConfig`] and [`OptLevel`] moved to `engine::config` when the backend
//! layer was introduced, so that every solver (`bh`, `bh_mpi`, the direct
//! reference) shares one configuration type without depending on this crate.
//! This module keeps the historical `bh::config::*` and `bh::SimConfig`
//! paths working.

pub use engine::config::{
    OptLevel, SimConfig, TreeBuild, TreePolicy, WalkMode, LEAF_CAPACITY, MAX_DEPTH, SUBSPACE_ALPHA,
};
