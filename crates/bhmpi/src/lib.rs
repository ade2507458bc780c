//! # bh-mpi — a message-passing Barnes-Hut comparator
//!
//! The paper's conclusion (§9) argues that its fully optimized UPC code "is
//! quite similar to an MPI code implementing the same algorithm" and promises
//! a direct comparison as future work; its related-work section (§8) cites
//! Dinan et al.'s hybrid MPI+UPC variant and Warren & Salmon's classic
//! message-passing tree code.  This crate supplies that comparator: a
//! Barnes-Hut solver written the way a distributed-memory MPI code would be,
//! running on the **same emulated machine model** ([`pgas::Machine`]) and
//! the same workloads as the UPC solver, so the two programming models can
//! be compared head-to-head in simulated time.
//!
//! The solver follows the standard message-passing structure:
//!
//! * [`domain`] — Morton-histogram domain decomposition and an all-to-all
//!   body exchange (the explicit counterpart of the §5.2 redistribution);
//! * [`letree`] — locally essential tree exchange: every rank *pushes* the
//!   part of its tree that each peer will need (Salmon's LET), instead of
//!   peers pulling cells on demand as the UPC cache does (§5.3/§5.5);
//! * [`sim`] — the step driver: [`run_simulation_on`] accepts any workload's
//!   initial conditions (every `scenarios` family runs under message
//!   passing) and produces the solver-neutral [`engine::SimResult`];
//! * [`backend`] — [`MpiBackend`], the [`engine::Backend`] registration
//!   (key `mpi`) that makes this solver selectable next to `upc` and
//!   `direct` in `bhsim --backend`/`--compare`.
//!
//! This crate depends only on the neutral [`engine`] vocabulary — not on the
//! UPC solver — so the two competitors stay symmetric.
//!
//! ```
//! use engine::{OptLevel, SimConfig};
//!
//! let cfg = SimConfig::test(256, 2, OptLevel::Subspace);
//! let result = bh_mpi::run_simulation(&cfg);
//! assert_eq!(result.bodies.len(), 256);
//! assert!(result.phases.force > 0.0);
//! ```

pub mod backend;
pub mod domain;
pub mod letree;
pub mod sim;

pub use backend::MpiBackend;
pub use domain::{decompose, Decomposition, GlobalBox};
pub use letree::{DomainBox, LetItem};
pub use sim::{run_simulation, run_simulation_on, PSEUDO_ID_BASE};
