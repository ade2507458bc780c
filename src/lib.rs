//! # barnes-hut-upc
//!
//! Umbrella crate for the reproduction of *"Optimizing the Barnes-Hut
//! Algorithm in UPC"* (Zhang, Behzad, Snir; SC 2011).  It re-exports the
//! workspace's public API so that applications can depend on a single crate:
//!
//! * [`pgas`] — the UPC-style PGAS emulator with its communication cost
//!   model (machine description, shared arrays, global pointers, collectives,
//!   non-blocking aggregated gathers).
//! * [`nbody`] — the physics substrate (bodies, Plummer model, Morton codes,
//!   direct summation, leapfrog, energy diagnostics).
//! * [`octree`] — the sequential Barnes-Hut octree and tree walk (the
//!   costzones partitioner is [`bh::partition`]).
//! * [`engine`] — the solver-neutral engine layer: [`SimConfig`], the
//!   per-phase [`SimResult`] vocabulary, the [`Backend`] trait with its
//!   string-keyed registry, the direct-summation reference backend and the
//!   shared head-to-head comparison driver.
//! * [`bh`] — the UPC-emulated Barnes-Hut application with the paper's full
//!   optimization ladder (backend `upc`).
//! * [`bh_mpi`] — the message-passing (MPI-style) comparator the paper's
//!   conclusion plans to compare against (backend `mpi`).
//! * [`scenarios`] — the workload-generation subsystem: six deterministic,
//!   seedable initial-condition families (`plummer`, `king`, `hernquist`,
//!   `exp-disk`, `cold-cube`, `merger`) behind a string-keyed registry, so
//!   every solver and bench can run any workload, not just the paper's
//!   Plummer spheres.  The `bhsim` binary drives any scenario through any
//!   backend on any emulated machine shape.
//!
//! ## Quickstart
//!
//! ```
//! use barnes_hut_upc::prelude::*;
//!
//! // Emulate 4 single-threaded nodes and run the fully optimized solver.
//! let machine = Machine::process_per_node(4);
//! let mut cfg = SimConfig::new(2_000, machine, OptLevel::Subspace);
//! cfg.steps = 2;
//! cfg.measured_steps = 1;
//! let result = run_simulation(&cfg);
//! println!("force phase: {:.3} simulated seconds", result.phases.force);
//! assert_eq!(result.bodies.len(), 2_000);
//! ```
//!
//! ## Any scenario on any backend
//!
//! Workloads and solvers are both registries: pick a scenario by name, pick
//! a backend by name (`upc`, `mpi`, `direct`), and run one against the
//! other — or several backends head-to-head through the shared comparison
//! driver:
//!
//! ```
//! use barnes_hut_upc::prelude::*;
//!
//! // A rotating exponential disk under message passing, 2 emulated nodes.
//! let scenarios = scenario_registry();
//! let disk = scenarios.get("exp-disk").unwrap();
//! let mut cfg = SimConfig::new(512, Machine::process_per_node(2), OptLevel::Subspace);
//! cfg.steps = 2;
//! cfg.measured_steps = 1;
//! let tuning = disk.recommended_config();
//! cfg.theta = tuning.theta;
//! cfg.eps = tuning.eps;
//! cfg.dt = tuning.dt;
//! let bodies = disk.generate(cfg.nbodies, cfg.seed);
//!
//! let backends = backend_registry();
//! let mpi = backends.get("mpi").unwrap().run(&cfg, bodies.clone());
//! assert_eq!(mpi.bodies.len(), 512);
//!
//! // Head-to-head: the same workload through two backends, one table.
//! let names = vec!["mpi".to_string(), "direct".to_string()];
//! let runs = engine::run_backends(&backends, &names, &cfg, &bodies).unwrap();
//! println!("{}", engine::comparison_table(&runs));
//! ```
//!
//! From the command line, the same comparison is
//! `cargo run --release --bin bhsim -- --scenario exp-disk --n 512 --nodes 2 --compare mpi,direct`.

pub use bh;
pub use bh_mpi;
pub use engine;
pub use nbody;
pub use octree;
pub use pgas;
pub use scenarios;

use engine::BackendRegistry;

/// A backend registry preloaded with the three built-in solvers:
///
/// | name     | crate          | programming model |
/// |----------|----------------|-------------------|
/// | `upc`    | [`bh`]         | one-sided PGAS (the paper's ladder, all seven levels via `cfg.opt`) |
/// | `mpi`    | [`bh_mpi`]     | two-sided message passing (Morton decomposition + pushed LETs) |
/// | `direct` | [`engine`]     | exact O(n²) direct summation (replicated data), the ground truth |
///
/// Mirrors [`scenarios::builtin`]: any scenario's bodies can be pushed
/// through any backend listed here.
pub fn backends() -> BackendRegistry {
    let mut registry = BackendRegistry::new();
    registry.register(Box::new(bh::UpcBackend));
    registry.register(Box::new(bh_mpi::MpiBackend));
    registry.register(Box::new(engine::DirectBackend));
    registry
}

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use crate::backends as backend_registry;
    pub use bh::{
        run_simulation, run_simulation_on, OptLevel, Phase, PhaseTimes, SimConfig, SimResult,
        TreeBuild, TreePolicy, WalkMode,
    };
    pub use engine::{Backend, BackendRegistry, BackendRun};
    pub use nbody::plummer::{generate, PlummerConfig};
    pub use nbody::{Body, Vec3};
    pub use octree::{Octree, TreeParams};
    pub use pgas::{Ctx, GlobalPtr, Machine, Runtime, SharedArena, SharedVec};
    pub use scenarios::{builtin as scenario_registry, Diagnostics, Registry, Scenario, Tuning};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_a_working_pipeline() {
        let cfg = SimConfig::test(128, 2, OptLevel::CacheLocalTree);
        let result = run_simulation(&cfg);
        assert_eq!(result.bodies.len(), 128);
        assert!(result.phases.total() > 0.0);
    }

    #[test]
    fn builtin_backends_are_all_registered() {
        let registry = backend_registry();
        assert_eq!(registry.names(), vec!["upc", "mpi", "direct"]);
        for backend in registry.iter() {
            assert!(!backend.description().is_empty());
        }
    }
}
