//! # bh — distributed Barnes-Hut over an emulated PGAS runtime
//!
//! This crate is the core of the reproduction of *"Optimizing the Barnes-Hut
//! Algorithm in UPC"* (Zhang, Behzad, Snir; SC 2011).  It expresses the
//! SPLASH-2 Barnes-Hut application against the UPC-like runtime of the
//! [`pgas`] crate and implements the paper's full, cumulative optimization
//! ladder:
//!
//! | [`OptLevel`]              | paper section | what changes |
//! |---------------------------|---------------|--------------|
//! | `Baseline`                | §4            | literal SPLASH-2 → UPC translation |
//! | `ReplicateScalars`        | §5.1          | `tol`/`eps`/`rsize` replicated per thread |
//! | `Redistribute`            | §5.2          | bodies moved to their owner each step |
//! | `CacheLocalTree`          | §5.3          | remote cells cached in a per-thread local tree |
//! | `MergedTreeBuild`         | §5.4          | lock-free local trees merged into the global tree |
//! | `AsyncAggregation`        | §5.5          | non-blocking aggregated cell gathers |
//! | `Subspace`                | §6            | cost-threshold subspace tree build, vector reductions |
//!
//! The cached levels share one force cache ([`cache::CacheTree`]) whose load
//! discipline — §5.3.1 copy every cell, or §5.3.2 pointer-cast the local
//! ones ([`SimConfig::shadow_cache`]) — is decided in one place, and from
//! §5.5 on one non-blocking scheduler ([`frontier`]) drives it for both
//! walk modes (per-body and per-group working units).
//!
//! The main entry point is [`run_simulation`], which runs the paper's
//! experiment protocol (four time steps, last two measured) and returns the
//! per-phase timing breakdown its tables report, together with the final
//! body states for correctness checks.  The configuration and result types
//! are the solver-neutral ones from the [`engine`] crate (re-exported here),
//! and [`UpcBackend`] registers this solver as the `upc` backend so any
//! scenario can run on it next to the `mpi` and `direct` competitors.
//!
//! ```
//! use bh::{run_simulation, OptLevel, SimConfig};
//! use pgas::Machine;
//!
//! let cfg = SimConfig::test(256, 2, OptLevel::CacheLocalTree);
//! let result = run_simulation(&cfg);
//! assert!(result.phases.force > 0.0);
//! assert_eq!(result.bodies.len(), 256);
//! # let _ = Machine::test_cluster(2);
//! ```

pub mod backend;
pub mod cache;
pub mod cellnode;
pub mod force;
pub mod frontier;
pub mod groupwalk;
pub mod lifecycle;
pub mod mergetree;
pub mod partition;
pub mod shared;
pub mod sim;
pub mod sortbuild;
pub mod subspace;
pub mod treebuild;

pub use backend::UpcBackend;
pub use cellnode::{CellNode, NodeKind};
pub use engine::config::{OptLevel, SimConfig, TreeBuild, TreePolicy, WalkMode};
pub use engine::report::{Phase, PhaseTimes, RankOutcome, SimResult};
pub use shared::{BhShared, RankState};
pub use sim::{run_simulation, run_simulation_on};
