//! `bhmark` — the benchmark every performance claim about this repository
//! is measured with.
//!
//! Two binaries share this library.  `bhmark` takes the end-to-end numbers
//! through the surfaces users touch — the `bhsim`, `snapdiff` and `bhserve`
//! binaries and the framed-JSON wire protocol — and links no workspace
//! crate.  `bhtrace` links the crates and times calls into each layer's
//! public functions from outside, for the per-layer numbers.  See
//! `benchmark/README.md` for the workloads, the metrics and what each is
//! expected to move.

pub mod cli;
pub mod host;
pub mod metrics;
pub mod proc;
pub mod report;
pub mod script;
pub mod serve;
pub mod span;
pub mod stats;
pub mod wire;
pub mod workload;
