//! # engine — the solver-neutral engine layer
//!
//! The workspace contains three Barnes-Hut solvers — the UPC-emulated ladder
//! (`bh`), the message-passing comparator (`bhmpi`) and the direct-summation
//! reference ([`direct`], in this crate) — and the paper's conclusion (§9)
//! explicitly asks for them to be compared head-to-head.  A comparison needs
//! a shared vocabulary that none of the competitors owns, so this crate holds
//! everything that is solver-*neutral*:
//!
//! * [`config`] — [`SimConfig`] and the [`OptLevel`] ladder: the full
//!   description of one run (workload size, seed, physics parameters,
//!   emulated machine, measurement protocol).
//! * [`report`] — [`Phase`], [`PhaseTimes`], [`RankOutcome`] and
//!   [`SimResult`]: the per-phase timing rows of the paper's tables, the
//!   per-rank outcomes, the rank-report aggregation
//!   ([`SimResult::aggregate`]) and the measured-window bookkeeping
//!   ([`report::measurement_begins`]).
//! * [`drive`] — the one step driver every backend's [`drive::Solver`]
//!   runs under: checks, step loop, measured window, fault site, observer.
//! * [`backend`] — the [`Backend`] trait (`name()`, `caps()`, `drive()`,
//!   and `run()`/`run_tracked()` over it) and the string-keyed
//!   [`BackendRegistry`], mirroring the `scenarios` registry: any
//!   scenario's bodies can be pushed through any backend.
//! * [`caps`] — the capability table: one [`Caps`] row per backend and the
//!   one evaluator of "which configurations are valid" every surface reads.
//! * [`bench`] — the run-report vocabulary: [`bench::Sample`] (what
//!   `bhsim --json` prints per backend).  Written, never read back:
//!   performance is judged by `benchmark/`.
//! * [`knobs`] — the knob table: one row per [`SimConfig`] knob with its
//!   default, `bhsim` flag, `bhserve` job key and `bhsnap/v1` manifest key.
//!   bhsim's flags, bhserve's jobs and snapstore's manifests are loops over
//!   it, so every front end builds the same `SimConfig` from the same values;
//!   a row's `spec` in `bhsim --json` is the `bhserve` job that reruns it.
//! * [`cli`] — the one command-line cursor every binary parses with:
//!   value-of-flag, parsed number, and the unknown-flag did-you-mean from a
//!   flag list each binary declares once.
//! * [`direct`] — [`DirectBackend`], a distributed O(n²) direct-summation
//!   solver wrapping `nbody::direct` as the ground-truth reference.
//! * [`compare`] — the one shared comparison driver: run the same
//!   configuration and bodies through a list of registered backends and
//!   render a side-by-side per-phase timing + traffic table.
//! * [`snap`] — the solver-neutral checkpoint vocabulary: the per-step
//!   [`snap::StepRecord`] a tracked run emits and the bit-exact body
//!   comparison the resume contract is pinned against (the storage layer —
//!   chunking, content addressing, manifests — lives in the `snapstore`
//!   crate).
//! * [`suggest`] — did-you-mean suggestions for string-keyed lookups, shared
//!   by every surface that resolves user-supplied registry keys (`bhsim`,
//!   `bhserve`) and by [`cli`] for flags.
//!
//! The dependency arrows all point *into* this crate: `bh` and `bhmpi` each
//! depend on `engine` (never on each other), and the umbrella crate
//! assembles the built-in backend registry from all three solvers.

pub mod backend;
pub mod bench;
pub mod caps;
pub mod cli;
pub mod compare;
pub mod config;
pub mod direct;
pub mod drive;
pub mod fault;
pub mod knobs;
pub mod report;
pub mod snap;
pub mod suggest;

pub use backend::{Backend, BackendRegistry};
pub use caps::{Caps, Reasons, Rungs};
pub use compare::{comparison_table, run_backends, BackendRun};
pub use config::{ConfigError, OptLevel, SimConfig, TreeBuild, TreePolicy, WalkMode, DEFAULT_SEED};
pub use direct::DirectBackend;
pub use fault::FaultPlan;
pub use report::{Phase, PhaseTimes, RankOutcome, SimResult};
pub use snap::StepRecord;
