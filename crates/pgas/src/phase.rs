//! Per-rank phase timing.
//!
//! Every table in the paper breaks execution time down by phase
//! (tree-building, centre-of-mass computation, partitioning, redistribution,
//! force computation, body advancement).  [`PhaseTimer`] records simulated
//! elapsed time per named phase on one rank; the `bh` crate aggregates the
//! per-rank timers into the per-phase maxima that the tables report.
//!
//! Beside the simulated clock the timer reads the host's: what emulating a
//! phase cost this rank's thread in real time (two `Instant::now()` per
//! phase, nanosecond resolution).  The host column never feeds back into the simulated clock
//! or any counter.

use crate::ctx::Ctx;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Simulated seconds and host time accumulated by one phase.
#[derive(Debug, Default, Clone, Copy)]
struct Elapsed {
    sim: f64,
    host: Duration,
}

/// Accumulates simulated time, and host time beside it, per named phase for
/// a single rank.
#[derive(Debug, Default, Clone)]
pub struct PhaseTimer {
    phases: BTreeMap<String, Elapsed>,
    open: Option<(String, f64, Instant)>,
}

impl PhaseTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts timing `phase` at the rank's current simulated time.
    ///
    /// # Panics
    /// Panics if another phase is still open.
    pub fn begin(&mut self, ctx: &Ctx, phase: &str) {
        assert!(
            self.open.is_none(),
            "phase {:?} still open",
            self.open.as_ref().map(|(n, ..)| n.clone())
        );
        self.open = Some((phase.to_string(), ctx.now(), Instant::now()));
    }

    /// Ends the currently open phase, accumulating the simulated and the
    /// host time spent.
    ///
    /// # Panics
    /// Panics if no phase is open or a different phase name is given.
    pub fn end(&mut self, ctx: &Ctx, phase: &str) {
        let (name, start, host_start) = self.open.take().expect("no phase open");
        assert_eq!(name, phase, "mismatched phase end");
        let elapsed = self.phases.entry(name).or_default();
        elapsed.sim += ctx.now() - start;
        elapsed.host += host_start.elapsed();
    }

    /// Runs `f` inside the named phase and returns its result.
    pub fn scope<R>(&mut self, ctx: &Ctx, phase: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.begin(ctx, phase);
        let r = f(self);
        self.end(ctx, phase);
        r
    }

    /// Accumulated simulated time of `phase` (0 when never recorded).
    pub fn get(&self, phase: &str) -> f64 {
        self.phases.get(phase).map_or(0.0, |e| e.sim)
    }

    /// Host time this rank's thread spent inside `phase`, waits at its
    /// barriers included (zero when never recorded).
    pub fn host(&self, phase: &str) -> Duration {
        self.phases.get(phase).map_or(Duration::ZERO, |e| e.host)
    }

    /// All recorded phases and their accumulated simulated times, in name
    /// order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, f64)> {
        self.phases.iter().map(|(k, e)| (k.as_str(), e.sim))
    }

    /// Sum of simulated time over all phases.
    pub fn total(&self) -> f64 {
        self.phases.values().map(|e| e.sim).sum()
    }

    /// Resets every accumulator (used when discarding warm-up steps, as the
    /// paper measures only the last two of four time steps).
    pub fn reset(&mut self) {
        assert!(self.open.is_none(), "cannot reset with a phase open");
        self.phases.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::runtime::Runtime;

    #[test]
    fn records_elapsed_simulated_time() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            let mut t = PhaseTimer::new();
            t.begin(ctx, "force");
            ctx.charge_compute(2.0);
            t.end(ctx, "force");
            t.begin(ctx, "tree");
            ctx.charge_compute(1.0);
            t.end(ctx, "tree");
            t.begin(ctx, "force");
            ctx.charge_compute(0.5);
            t.end(ctx, "force");
            (t.get("force"), t.get("tree"), t.get("absent"), t.total())
        });
        let (force, tree, absent, total) = report.ranks[0].result;
        assert!((force - 2.5).abs() < 1e-12);
        assert!((tree - 1.0).abs() < 1e-12);
        assert_eq!(absent, 0.0);
        assert!((total - 3.5).abs() < 1e-12);
    }

    #[test]
    fn host_time_accumulates_beside_simulated_time_and_resets_with_it() {
        let rt = Runtime::new(Machine::test_cluster(1));
        rt.run(|ctx| {
            let mut t = PhaseTimer::new();
            assert_eq!(t.host("force"), Duration::ZERO);
            let nap = Duration::from_millis(2);
            t.scope(ctx, "force", |_| std::thread::sleep(nap));
            let once = t.host("force");
            assert!(once >= nap, "a 2 ms sleep must show on the host clock, got {once:?}");
            assert_eq!(t.get("force"), 0.0, "host time never reaches the simulated clock");
            t.scope(ctx, "force", |_| ());
            assert!(t.host("force") >= once);
            t.reset();
            assert_eq!(t.host("force"), Duration::ZERO);
        });
    }

    #[test]
    fn scope_times_closure() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            let mut t = PhaseTimer::new();
            let out = t.scope(ctx, "x", |_| {
                ctx.charge_compute(1.5);
                42
            });
            (out, t.get("x"))
        });
        assert_eq!(report.ranks[0].result.0, 42);
        assert!((report.ranks[0].result.1 - 1.5).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_accumulators() {
        let rt = Runtime::new(Machine::test_cluster(1));
        rt.run(|ctx| {
            let mut t = PhaseTimer::new();
            t.scope(ctx, "warmup", |_| ctx.charge_compute(1.0));
            t.reset();
            assert_eq!(t.total(), 0.0);
        });
    }

    #[test]
    #[should_panic(expected = "mismatched phase end")]
    fn mismatched_end_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        rt.run(|ctx| {
            let mut t = PhaseTimer::new();
            t.begin(ctx, "a");
            t.end(ctx, "b");
        });
    }

    #[test]
    #[should_panic(expected = "still open")]
    fn nested_begin_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        rt.run(|ctx| {
            let mut t = PhaseTimer::new();
            t.begin(ctx, "a");
            t.begin(ctx, "b");
        });
    }
}
