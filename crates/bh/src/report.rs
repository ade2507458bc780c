//! Per-phase timing reports — re-exported from the solver-neutral
//! [`engine`] crate.
//!
//! [`Phase`], [`PhaseTimes`], [`RankOutcome`] and [`SimResult`] (plus the
//! rank-report aggregation and measured-window bookkeeping) moved to
//! `engine::report` when the backend layer was introduced, so that every
//! solver produces the same result type and comparisons never go through one
//! competitor's crate.  This module keeps the historical `bh::report::*`
//! paths working.

pub use engine::report::{Phase, PhaseTimes, RankOutcome, SimResult};
