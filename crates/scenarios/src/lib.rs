//! # scenarios — workload-generation subsystem
//!
//! The paper (Zhang, Behzad, Snir; SC 2011) evaluates its UPC Barnes-Hut
//! ladder on a single workload family: Plummer spheres (§4.1).  Real
//! deployments — and every load-balancing, caching and partitioning ablation
//! this workspace wants to run — care about *non*-uniform workloads: cold
//! collapses that form transient dense cores, rotating disks whose mass is
//! confined to a plane, lowered-isothermal clusters with sharp tidal edges,
//! and mergers of any of the above.  This crate turns initial conditions
//! into a first-class, extensible subsystem:
//!
//! * [`Scenario`] — the generator interface: a deterministic, seedable
//!   `generate(n, seed)`, a [`Tuning`] of recommended solver parameters and
//!   a [`Diagnostics`] summary used by examples, tests and the `bhsim` CLI.
//! * [`Registry`] — a string-keyed registry of scenarios; [`builtin`]
//!   returns one preloaded with the six built-in families:
//!
//! | name        | family                                     | stresses |
//! |-------------|--------------------------------------------|----------|
//! | `plummer`   | Plummer sphere (the paper's workload)      | baseline |
//! | `king`      | King (lowered isothermal) sphere, W₀ = 6   | sharp tidal edge, dense core |
//! | `hernquist` | Hernquist profile                          | steep ρ ∝ 1/r cusp → deep trees |
//! | `exp-disk`  | rotating exponential disk                  | anisotropy, costzones imbalance |
//! | `cold-cube` | uniform cold cube (collapse)               | violent relaxation, migration |
//! | `merger`    | two offset, boosted sub-scenarios          | bimodal mass distribution |
//!
//! All generators share the paper's conventions: `G = 1`, total mass 1, the
//! centre of mass at the origin with zero net momentum, and bodies whose ids
//! are `0..n`.  Two calls with the same `(n, seed)` return bit-identical
//! bodies.
//!
//! ```
//! use scenarios::builtin;
//!
//! let registry = builtin();
//! let disk = registry.get("exp-disk").unwrap();
//! let bodies = disk.generate(512, 42);
//! assert_eq!(bodies, disk.generate(512, 42));
//! let d = disk.diagnostics(&bodies);
//! assert!((d.total_mass - 1.0).abs() < 1e-9 && d.com_offset < 1e-9);
//! ```

pub mod cube;
pub mod disk;
pub mod hernquist;
pub mod king;
pub mod merger;
pub mod plummer;
mod sampling;

pub use cube::ColdCube;
pub use disk::ExpDisk;
pub use hernquist::Hernquist;
pub use king::King;
pub use merger::Merger;
pub use nbody::Tuning;
pub use plummer::Plummer;

use nbody::{energy, stats, Body, Vec3};
use octree::{Octree, TreeParams};
use serde::{Deserialize, Serialize};

/// Structural summary of a generated body set.
///
/// Used by property tests to pin each generator's physical shape and by the
/// `bhsim` CLI / examples to describe the workload they are about to run.
///
/// Everything here is O(n log n) or better, so describing a workload never
/// costs more than a solver step on it: the one quantity that is a sum over
/// pairs, the potential energy under [`Diagnostics::virial_ratio`], is a
/// Barnes-Hut estimate ([`estimate_potential`]: θ = [`POTENTIAL_THETA`], at
/// most [`POTENTIAL_TARGETS`] target bodies, within 1.5 % of the exact sum
/// on every built-in family — the table is there).  Code that needs the
/// exact ratio calls `nbody::energy::virial_ratio`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Diagnostics {
    /// Number of bodies.
    pub nbodies: usize,
    /// Total mass (all built-in scenarios normalize to 1).
    pub total_mass: f64,
    /// Distance of the centre of mass from the origin.
    pub com_offset: f64,
    /// Net momentum magnitude.
    pub momentum: f64,
    /// Radius enclosing 10% of the mass.
    pub r10: f64,
    /// Half-mass radius.
    pub r50: f64,
    /// Radius enclosing 90% of the mass.
    pub r90: f64,
    /// One-dimensional velocity dispersion.
    pub velocity_dispersion: f64,
    /// Virial ratio `2T / |W|` (1 for equilibrium, 0 for cold systems,
    /// infinite without a potential), `W` from [`estimate_potential`].
    pub virial_ratio: f64,
    /// Magnitude of the total angular momentum (large for disks,
    /// ~0 for isotropic spheres).
    pub angular_momentum: f64,
    /// `r90 / r10`: the density contrast the tree and partitioner face.
    pub concentration: f64,
}

/// Opening criterion of the potential estimate's tree walk.  Fixed: the
/// estimate describes the bodies, not the solver configuration about to run.
pub const POTENTIAL_THETA: f64 = 1.0;

/// Most bodies whose potential [`estimate_potential`] evaluates.
pub const POTENTIAL_TARGETS: usize = 2048;

/// A Barnes-Hut estimate of the softened potential energy of a body set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PotentialEstimate {
    /// The estimate of `nbody::energy::potential_energy`.
    pub energy: f64,
    /// Pair evaluations (accepted cells + leaf bodies) summed over the
    /// target bodies' walks: the estimate's cost, O(targets · log n).
    pub interactions: u64,
}

/// Estimates `W = ½ Σ mᵢ φᵢ` with the workspace's own algorithm instead of
/// the O(n²) pair sum: one sequential [`octree::Octree`] over `bodies`, the
/// monopole walk of [`octree::accel_on_body`] at [`POTENTIAL_THETA`] for at
/// most [`POTENTIAL_TARGETS`] bodies, and the sampled sum scaled by the mass
/// it stands for, `W ≈ ½ · (M / Σ m_target) · Σ m_target φ_target`.
///
/// The targets are radius-stratified: bodies are ordered by distance from
/// the centre of mass and the middle body of each of `targets` equal-count
/// strata is taken, so a dense core and a thin halo are both represented
/// however the generator happened to order its output.  Up to
/// [`POTENTIAL_TARGETS`] bodies every body is a target and the only error
/// is the walk's.  Nothing is random: the same bodies give the same bits.
///
/// A target is left out of its own walk by its index
/// ([`octree::accel_on_body`]), so body ids play no part.
///
/// Relative error of the resulting virial ratio against the exact sum
/// (`2T / |potential_energy|`), six seeds per family, and the cost on one
/// core of the host that measured it (the exact sum took 125–133 ms at
/// n = 16384):
///
/// | n       | targets | exp-disk      | merger  | other four | all, median | cost        |
/// |---------|---------|---------------|---------|------------|-------------|-------------|
/// | 1024    | 1024    | 1.33–1.40 %   | ≤ 0.3 % | ≤ 0.16 %   | 0.08 %      | 1.0–3.2 ms  |
/// | 4096    | 2048    | 1.39–1.42 %   | ≤ 0.9 % | ≤ 0.37 %   | 0.08 %      | 3.3–10.5 ms |
/// | 16384   | 2048    | 1.36–1.42 %   | ≤ 1.0 % | ≤ 0.20 %   | 0.08 %      | 8–17.6 ms   |
/// | 1048576 | 2048    | —             | —       | —          | —           | ≈ 1.2 s     |
///
/// The thin disk's error is the monopole walk's bias at θ = 1, the same at
/// every size; the rest is sampling noise.  The cost is the tree build, not
/// the walks (≤ 46 · n pair evaluations at n = 16384, fewer per body as n
/// grows), so it is O(n log n).  The strided pair sample this replaced was
/// a flat 125 ms beyond 8192 bodies: cheaper than the tree from roughly
/// 10⁵ bodies up, where a solver step costs more than either, and 2.7 % off
/// on `hernquist` at n = 16384.
pub fn estimate_potential(bodies: &[Body], eps: f64) -> PotentialEstimate {
    let mut tree = Octree::build(bodies, TreeParams::default());
    tree.compute_mass(bodies);

    let com = nbody::body::center_of_mass(bodies);
    let mut by_radius: Vec<(f64, usize)> =
        bodies.iter().enumerate().map(|(i, b)| (b.pos.dist_sq(com), i)).collect();
    by_radius.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let n = bodies.len();
    let targets = n.min(POTENTIAL_TARGETS);
    let (mut weighted_phi, mut target_mass, mut interactions) = (0.0, 0.0, 0u64);
    for stratum in 0..targets {
        let index = by_radius[(2 * stratum + 1) * n / (2 * targets)].1;
        let walk = octree::accel_on_body(&tree, bodies, index, POTENTIAL_THETA, eps);
        weighted_phi += bodies[index].mass * walk.phi;
        target_mass += bodies[index].mass;
        interactions += walk.interactions as u64;
    }
    let energy = if target_mass > 0.0 {
        0.5 * (nbody::body::total_mass(bodies) / target_mass) * weighted_phi
    } else {
        0.0
    };
    PotentialEstimate { energy, interactions }
}

impl Diagnostics {
    /// Measures `bodies`, using `eps` to soften the potential behind the
    /// virial ratio, which comes from [`estimate_potential`] at every size.
    pub fn measure(bodies: &[Body], eps: f64) -> Diagnostics {
        let radii = stats::lagrangian_radii(bodies, &[0.1, 0.5, 0.9]);
        let (r10, r50, r90) = (radii[0], radii[1], radii[2]);
        Diagnostics {
            nbodies: bodies.len(),
            total_mass: nbody::body::total_mass(bodies),
            com_offset: nbody::body::center_of_mass(bodies).norm(),
            momentum: energy::total_momentum(bodies).norm(),
            r10,
            r50,
            r90,
            velocity_dispersion: stats::velocity_dispersion(bodies),
            virial_ratio: {
                let t = energy::kinetic_energy(bodies);
                let w = estimate_potential(bodies, eps).energy;
                if w == 0.0 {
                    f64::INFINITY
                } else {
                    2.0 * t / w.abs()
                }
            },
            angular_momentum: energy::total_angular_momentum(bodies).norm(),
            concentration: if r10 > 0.0 { r90 / r10 } else { f64::INFINITY },
        }
    }
}

/// A deterministic, seedable initial-condition generator.
///
/// Implementations must be pure functions of `(n, seed)`: two calls with the
/// same arguments return bit-identical bodies (the `bhsim` CLI, benches and
/// the distributed solvers all rely on replaying workloads by seed).  The
/// conventions of the paper apply: `G = 1`, total mass 1, the centre of mass
/// at the origin with zero net momentum, ids `0..n`.
pub trait Scenario: Send + Sync {
    /// Registry key (kebab-case, stable across versions).
    fn name(&self) -> &'static str;

    /// One-line human description for `bhsim --list`.
    fn description(&self) -> &'static str;

    /// Generates `n` bodies deterministically from `seed`.
    fn generate(&self, n: usize, seed: u64) -> Vec<Body>;

    /// Solver parameters recommended for this workload.
    fn recommended_config(&self) -> Tuning {
        Tuning::default()
    }

    /// Structural summary of a generated body set.
    fn diagnostics(&self, bodies: &[Body]) -> Diagnostics {
        Diagnostics::measure(bodies, self.recommended_config().eps)
    }
}

/// A string-keyed collection of scenarios.
///
/// Later registrations shadow earlier ones with the same name, so
/// applications can override a built-in family while keeping the rest.
#[derive(Default)]
pub struct Registry {
    entries: Vec<Box<dyn Scenario>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds a scenario (shadowing any previous entry with the same name).
    pub fn register(&mut self, scenario: Box<dyn Scenario>) {
        self.entries.push(scenario);
    }

    /// Looks a scenario up by its [`Scenario::name`].
    pub fn get(&self, name: &str) -> Option<&dyn Scenario> {
        self.entries.iter().rev().find(|s| s.name() == name).map(|s| s.as_ref())
    }

    /// The names currently registered, in registration order, deduplicated.
    pub fn names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for s in &self.entries {
            if !names.contains(&s.name()) {
                names.push(s.name());
            }
        }
        names
    }

    /// Iterates over the visible (non-shadowed) scenarios.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Scenario> {
        self.names().into_iter().filter_map(|n| self.get(n))
    }
}

/// Constructs a fresh default-configured instance of a built-in family by
/// name (the single source of truth for the name → constructor mapping;
/// [`builtin`] and any composer needing owned sub-scenarios build on it).
pub fn make(name: &str) -> Option<Box<dyn Scenario>> {
    match name {
        "plummer" => Some(Box::new(Plummer)),
        "king" => Some(Box::new(King::default())),
        "hernquist" => Some(Box::new(Hernquist::default())),
        "exp-disk" => Some(Box::new(ExpDisk::default())),
        "cold-cube" => Some(Box::new(ColdCube::default())),
        "merger" => Some(Box::new(Merger::default())),
        _ => None,
    }
}

/// The names [`make`] understands, in presentation order.
pub const BUILTIN_NAMES: [&str; 6] =
    ["plummer", "king", "hernquist", "exp-disk", "cold-cube", "merger"];

/// A registry preloaded with the six built-in scenario families.
pub fn builtin() -> Registry {
    let mut registry = Registry::new();
    for name in BUILTIN_NAMES {
        registry.register(make(name).expect("builtin family must be constructible"));
    }
    registry
}

/// Moves the centre of mass to the origin and zeroes the net momentum.
///
/// Every generator applies this as its final step so that solver-side
/// invariants (momentum conservation checks, COM-at-origin assumptions in
/// diagnostics) hold exactly, not just in expectation.
pub fn to_com_frame(bodies: &mut [Body]) {
    let total: f64 = bodies.iter().map(|b| b.mass).sum();
    if total <= 0.0 {
        return;
    }
    let com = bodies.iter().map(|b| b.pos * b.mass).sum::<Vec3>() / total;
    let mom = bodies.iter().map(|b| b.vel * b.mass).sum::<Vec3>() / total;
    for b in bodies {
        b.pos -= com;
        b.vel -= mom;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_has_all_six_families() {
        let registry = builtin();
        for name in ["plummer", "king", "hernquist", "exp-disk", "cold-cube", "merger"] {
            assert!(registry.get(name).is_some(), "missing builtin scenario {name}");
        }
        assert_eq!(registry.names().len(), 6);
    }

    #[test]
    fn registration_shadows_by_name() {
        struct Custom;
        impl Scenario for Custom {
            fn name(&self) -> &'static str {
                "plummer"
            }
            fn description(&self) -> &'static str {
                "custom override"
            }
            fn generate(&self, _n: usize, _seed: u64) -> Vec<Body> {
                Vec::new()
            }
        }
        let mut registry = builtin();
        registry.register(Box::new(Custom));
        assert_eq!(registry.get("plummer").unwrap().description(), "custom override");
        assert_eq!(registry.names().len(), 6, "shadowing must not duplicate names");
    }

    #[test]
    fn com_frame_is_exact() {
        let mut bodies = vec![
            Body::new(0, Vec3::new(1.0, 2.0, 3.0), Vec3::new(0.5, 0.0, 0.0), 2.0),
            Body::new(1, Vec3::new(-3.0, 0.0, 1.0), Vec3::new(0.0, -0.25, 0.0), 1.0),
        ];
        to_com_frame(&mut bodies);
        let com = nbody::body::center_of_mass(&bodies);
        let mom = energy::total_momentum(&bodies);
        assert!(com.norm() < 1e-15);
        assert!(mom.norm() < 1e-15);
    }
}
