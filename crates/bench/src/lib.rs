//! # bh-bench — the paper's tables and figures
//!
//! One entry point: `tables`
//! (`cargo run -p bh-bench --release --bin tables -- --help`) regenerates
//! every table and figure of the paper's evaluation from the emulated
//! implementation, and prints under each the paper's claims that read it.
//! This library holds the one table of experiments ([`experiments`]) and
//! the one table of claims ([`claims`]), so that tests check the claims on
//! the runs `tables` makes.  (Performance of the code itself is measured by
//! `benchmark/`, not here.)
//!
//! The paper's runs use 2M bodies (strong scaling) and 250K bodies/thread
//! (weak scaling) on up to 1024 threads of a Power5 cluster.  Those sizes are
//! impractical for an emulator running on one host, so every experiment has
//! a scaled-down default and accepts `--bodies` / `--weak-bodies` /
//! `--threads` overrides.  Because all reported times are *simulated*,
//! scaling the workload changes magnitudes but preserves the qualitative
//! shape (who wins, where the crossovers are), which is what the
//! reproduction targets.

pub mod claims;
pub mod experiments;
pub mod scale;
pub mod table;

pub use experiments::{Experiment, ExperimentOutput, EXPERIMENTS};
pub use scale::Scale;
pub use table::{PhaseTable, Series};
