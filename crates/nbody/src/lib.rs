//! # nbody — N-body physics substrate
//!
//! This crate provides the physical building blocks used by the Barnes-Hut
//! reproduction of *"Optimizing the Barnes-Hut Algorithm in UPC"*
//! (Zhang, Behzad, Snir; SC 2011):
//!
//! * [`Vec3`] — a small 3-component vector type with the operations the
//!   force kernels need.
//! * [`Body`] — the particle record (position, velocity, acceleration, mass,
//!   work cost from the previous step) shared by every solver in the
//!   workspace.
//! * [`plummer`] — the Plummer-model initial-condition generator used by the
//!   paper (M = −4E = G = 1, following Aarseth, Hénon and Wielen).
//! * [`morton`] — 3-D Morton (Z-order) codes, used for locality-preserving
//!   body orderings and costzones-style partitioning.
//! * [`direct`] — the O(n²) direct-summation force computation, used as the
//!   accuracy baseline against which Barnes-Hut forces are validated.
//! * [`soa`] — structure-of-arrays point-mass batches ([`SoaBodies`]): the
//!   leaf-coalesced inner loop shared by the cached tree walks and the
//!   direct solvers (bit-identical to the scalar loop, faster layout).
//! * [`integrate`] — the leapfrog (kick-drift-kick) integrator with the
//!   SPLASH-2 default time step.
//! * [`energy`] — kinetic/potential energy and virial diagnostics.
//! * [`stats`] — structural statistics (Lagrangian radii, velocity
//!   dispersion, radial profiles) used to validate the generator and to give
//!   the examples physically meaningful output.
//!
//! Everything here is sequential and deterministic; parallel and distributed
//! concerns live in the `pgas` and `bh` crates.

pub mod body;
pub mod direct;
pub mod energy;
pub mod integrate;
pub mod morton;
pub mod plummer;
pub mod soa;
pub mod stats;
pub mod vec3;

pub use body::Body;
pub use soa::SoaBodies;
pub use vec3::Vec3;

/// Gravitational constant used throughout the workspace.
///
/// The paper (and SPLASH-2) use natural units with `G = 1`.
pub const G: f64 = 1.0;

/// Default opening-criterion parameter θ (SPLASH-2 default, §4.1 of the paper).
pub const DEFAULT_THETA: f64 = 1.0;

/// Default potential-softening term ε (SPLASH-2 default).
pub const DEFAULT_EPS: f64 = 0.05;

/// Default time step (SPLASH-2 default, §4.1 of the paper: 0.025 s).
pub const DEFAULT_DT: f64 = 0.025;

/// Solver parameters a scenario recommends for itself.
///
/// The defaults are the paper's (θ = 1.0, ε = 0.05, dt = 0.025); scenarios
/// with sharper density contrasts or faster internal dynamics tighten them.
/// Every front end applies these unless the run overrides them
/// (`engine::knobs`).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tuning {
    /// Opening criterion θ.
    pub theta: f64,
    /// Softening ε.
    pub eps: f64,
    /// Time step.
    pub dt: f64,
}

impl Default for Tuning {
    fn default() -> Self {
        Tuning { theta: DEFAULT_THETA, eps: DEFAULT_EPS, dt: DEFAULT_DT }
    }
}
