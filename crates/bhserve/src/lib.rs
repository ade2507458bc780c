//! # bhserve — a multi-tenant simulation service over the engine
//!
//! The workspace's solvers are batch programs: one process, one
//! configuration, one run.  This crate turns them into a *service*: a
//! daemon that accepts simulation jobs over a socket, dispatches them
//! through the shared [`engine::BackendRegistry`], keeps simulations alive
//! across requests as *sessions*, and meters every tenant in the engine's
//! deterministic cost counters.  The companion `bhload` binary is the
//! stress harness: it drives thousands of concurrent clients against a
//! live server and reports latency percentiles and throughput per cell.
//!
//! The layers, bottom up:
//!
//! * [`frame`] — length-prefixed framing over a byte stream, with an
//!   explicitly enumerated failure taxonomy (fuzzed by the proptest
//!   suite).  No network dependencies: `std::net` and 4-byte headers.
//! * [`proto`] — the JSON request/response vocabulary: job decoding with
//!   defaults, stable machine-readable error codes (including relayed
//!   [`engine::ConfigError`] codes), and the bit-exact hex encoding of
//!   body state.
//! * [`quota`] — per-tenant ledgers denominated in deterministic counters
//!   (interactions, tree operations) and post-paid admission.
//! * [`session`] — persistent simulations stepped across requests,
//!   guaranteed bit-for-bit identical to one standalone run (the
//!   [`engine::Backend`] chunked-stepping convention, admitted by
//!   [`engine::Caps::check_session`]).
//! * [`server`] — the daemon: accept loop, thread-per-connection
//!   dispatch, the engine run gate, and the minimal blocking [`server::Client`].
//! * [`load`] — the `bhload` workload mixes, client scripts and the
//!   per-cell latency summaries they produce.

pub mod frame;
pub mod load;
pub mod proto;
pub mod quota;
pub mod server;
pub mod session;

pub use frame::{read_frame, write_frame, MAX_FRAME};
pub use proto::{Job, Reject};
pub use quota::QuotaBook;
pub use server::{Client, Server, ServerOptions};
