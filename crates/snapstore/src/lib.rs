//! # snapstore — content-addressed checkpoint/restore for simulation state
//!
//! The paper's experiment protocol is short (four steps), but everything
//! built around it here — long reuse-cadence runs, multi-tenant serving,
//! bench sweeps that re-integrate the same equilibration prefix for every
//! point — wants runs that can *stop and continue*.  This crate owns that:
//!
//! - [`SimState`] is the one serializable value a bit-exact resume needs:
//!   run identity (scenario, backend, full config), step counter, tree
//!   generation, the current bodies **and** the anchor bodies (the state
//!   that entered the last full tree rebuild, so a persistent-tree run
//!   resumes with its rebuild cadence phase intact).
//! - [`Recorder`] folds a backend's per-step [`engine::snap::StepRecord`]
//!   stream into [`SimState`] values; [`resume`] replays from the anchor,
//!   verifies the replay against the checkpoint bit-for-bit, and continues
//!   the run.
//! - [`Store`] persists states chunked per column and content-addressed by
//!   a vendored SHA-256 ([`sha256`]: the SHA extensions when the CPU has
//!   them, the scalar reference otherwise, the same digests either way),
//!   so consecutive-step snapshots and sweep points sharing an
//!   equilibration prefix share unchanged chunks in one on-disk store;
//!   manifests (`bhsnap/v1`) record chunk hashes plus the full run identity
//!   with floats as bit-exact hex.
//! - [`diff_manifests`] / [`diff_bodies`] report which chunks and which
//!   bodies moved between two snapshots (the `snapdiff` tool).
//!
//! Integrity failures are structured [`SnapError`] values — a corrupted or
//! missing chunk names itself; nothing panics on bad input.

pub mod diff;
pub mod sha256;
pub mod state;
pub mod store;

pub use diff::{diff_bodies, diff_manifests, diff_states, BodyDelta, ColumnDiff, SnapDiff};
pub use state::{
    digest_bodies, hex_f64, hex_u32, resume, unhex_f64, unhex_u32, Recorder, SimState,
};
pub use store::{
    load_manifest, load_state, ColumnHashes, Manifest, Saved, SnapError, Store, CHUNK_BODIES,
    FORMAT,
};
