//! The SPMD runtime: spawns one OS thread per emulated UPC thread (rank) and
//! provides the shared "world" state (barrier, collective board, clock
//! exchange slots) that the per-rank [`crate::Ctx`] handles talk to.
//!
//! The number of OS threads equals the number of *emulated* ranks, not the
//! number of physical cores: because all performance results are expressed in
//! simulated time, oversubscribing the host CPU does not change any reported
//! number, it only changes how long the emulation takes to run for real.

use crate::ctx::Ctx;
use crate::machine::Machine;
use crate::msg::MsgBoard;
use crate::stats::RankStats;
use crate::sync_cell::SyncSlot;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::Barrier;

/// Shared state visible to every rank during a run.
pub(crate) struct World {
    pub(crate) machine: Machine,
    pub(crate) ranks: usize,
    barrier: Barrier,
    /// Two clocks per rank: [`World::align_clocks`] call `k` uses the set
    /// `k % 2`, so call `k + 1`'s writes never meet call `k`'s reads.
    clock_slots: [Vec<SyncSlot<f64>>; 2],
    /// Board used to move values between ranks during collectives.  Keyed by
    /// the collective sequence number (all ranks execute collectives in the
    /// same order, so the sequence number identifies the operation); the
    /// last rank to read an entry removes it.
    pub(crate) board: Mutex<HashMap<u64, Box<dyn Any + Send>>>,
    /// Mailboxes for the two-sided message-passing extension
    /// ([`crate::msg`]).
    pub(crate) msgs: MsgBoard,
}

impl World {
    fn new(machine: Machine) -> Self {
        let ranks = machine.ranks();
        World {
            machine,
            ranks,
            barrier: Barrier::new(ranks),
            clock_slots: [0, 1].map(|_| (0..ranks).map(|_| SyncSlot::new(0.0)).collect()),
            board: Mutex::new(HashMap::new()),
            msgs: MsgBoard::new(),
        }
    }

    /// Real (host) barrier across all rank threads.  Carries no simulated
    /// cost by itself; simulated synchronization cost is charged by the
    /// caller.
    pub(crate) fn host_barrier(&self) {
        self.barrier.wait();
    }

    /// Simulated barrier: returns the maximum of every rank's clock.  The
    /// caller advances to it and charges the barrier latency.
    ///
    /// `call` is the number of earlier `align_clocks` calls of this rank
    /// (the same on every rank: barriers are collective).  One host barrier
    /// suffices because consecutive calls use different slot sets; the
    /// argument is in [`crate::collectives`].
    pub(crate) fn align_clocks(&self, rank: usize, clock: f64, call: u64) -> f64 {
        let slots = &self.clock_slots[(call % 2) as usize];
        slots[rank].set(clock);
        self.host_barrier();
        slots.iter().map(SyncSlot::get).fold(f64::MIN, f64::max)
    }
}

/// Per-rank summary returned by [`Runtime::run`].
#[derive(Debug, Clone)]
pub struct RankReport<R> {
    /// The rank this report describes.
    pub rank: usize,
    /// Final simulated clock of the rank, in seconds.
    pub clock: f64,
    /// Communication/work counters accumulated by the rank.
    pub stats: RankStats,
    /// Whatever the SPMD closure returned on this rank.
    pub result: R,
}

/// Result of a whole SPMD run.
#[derive(Debug, Clone)]
pub struct RunReport<R> {
    /// One report per rank, indexed by rank.
    pub ranks: Vec<RankReport<R>>,
}

impl<R> RunReport<R> {
    /// The simulated makespan: the largest final clock across ranks.
    pub fn makespan(&self) -> f64 {
        self.ranks.iter().map(|r| r.clock).fold(0.0, f64::max)
    }

    /// Aggregated statistics across all ranks.
    pub fn total_stats(&self) -> RankStats {
        let mut total = RankStats::default();
        for r in &self.ranks {
            total.merge(&r.stats);
        }
        total
    }
}

/// The emulated UPC runtime.
///
/// ```
/// use pgas::{Machine, Runtime, SharedVec};
///
/// let machine = Machine::test_cluster(4);
/// let runtime = Runtime::new(machine);
/// let data = SharedVec::from_fn(runtime.ranks(), 16, |i| i as u64);
/// let report = runtime.run(|ctx| {
///     // Every rank sums the whole shared array (remote reads are billed).
///     let mut sum = 0;
///     for i in 0..data.len() {
///         sum += data.read(ctx, i);
///     }
///     ctx.barrier();
///     sum
/// });
/// assert!(report.ranks.iter().all(|r| r.result == 120));
/// assert!(report.makespan() > 0.0);
/// ```
pub struct Runtime {
    machine: Machine,
    stack_size: usize,
}

impl Runtime {
    /// Creates a runtime for the given machine description.
    pub fn new(machine: Machine) -> Self {
        Runtime { machine, stack_size: 2 * 1024 * 1024 }
    }

    /// Number of ranks (UPC threads) this runtime will spawn.
    pub fn ranks(&self) -> usize {
        self.machine.ranks()
    }

    /// The machine description used by this runtime.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Overrides the per-rank stack size (bytes).  The default of 2 MiB is
    /// enough for every algorithm in the workspace.
    pub fn with_stack_size(mut self, bytes: usize) -> Self {
        self.stack_size = bytes;
        self
    }

    /// Runs `f` in SPMD style: one thread per rank, each receiving its own
    /// [`Ctx`].  Returns per-rank clocks, statistics and results.
    ///
    /// # Panics
    ///
    /// Panics if any rank panics (the panic is propagated).
    pub fn run<F, R>(&self, f: F) -> RunReport<R>
    where
        F: Fn(&Ctx) -> R + Sync,
        R: Send,
    {
        let world = World::new(self.machine.clone());
        let ranks = world.ranks;
        let f = &f;
        let world_ref = &world;
        let mut reports: Vec<Option<RankReport<R>>> = (0..ranks).map(|_| None).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(ranks);
            for rank in 0..ranks {
                let builder = std::thread::Builder::new()
                    .name(format!("pgas-rank-{rank}"))
                    .stack_size(self.stack_size);
                let handle = builder
                    .spawn_scoped(scope, move || {
                        let ctx = Ctx::new(rank, world_ref);
                        let result = f(&ctx);
                        let (clock, stats) = ctx.into_summary();
                        RankReport { rank, clock, stats, result }
                    })
                    .expect("failed to spawn rank thread");
                handles.push(handle);
            }
            for (rank, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok(report) => reports[rank] = Some(report),
                    Err(e) => std::panic::resume_unwind(e),
                }
            }
        });

        RunReport { ranks: reports.into_iter().map(|r| r.expect("missing rank report")).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_rank_once() {
        let rt = Runtime::new(Machine::test_cluster(8));
        let report = rt.run(|ctx| ctx.rank());
        assert_eq!(report.ranks.len(), 8);
        for (i, r) in report.ranks.iter().enumerate() {
            assert_eq!(r.rank, i);
            assert_eq!(r.result, i);
        }
    }

    #[test]
    fn makespan_is_max_clock() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            // Each rank charges a different amount of compute.
            ctx.charge_compute(ctx.rank() as f64 * 0.5);
        });
        assert!((report.makespan() - 1.5).abs() < 1e-9);
        assert!((report.ranks[2].clock - 1.0).abs() < 1e-9);
    }

    #[test]
    fn barrier_aligns_clocks() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            ctx.charge_compute(ctx.rank() as f64);
            ctx.barrier();
            ctx.now()
        });
        let clocks: Vec<f64> = report.ranks.iter().map(|r| r.result).collect();
        for c in &clocks {
            assert!((c - clocks[0]).abs() < 1e-12, "clocks must be aligned after a barrier");
        }
        assert!(clocks[0] >= 3.0);
    }

    #[test]
    fn total_stats_aggregates() {
        let rt = Runtime::new(Machine::test_cluster(3));
        let report = rt.run(|ctx| {
            ctx.bill(crate::machine::Price::Interaction, 10);
        });
        assert_eq!(report.total_stats().interactions, 30);
    }

    #[test]
    fn single_rank_machine_works() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            ctx.barrier();
            ctx.allreduce_sum(2.5)
        });
        assert_eq!(report.ranks.len(), 1);
        assert!((report.ranks[0].result - 2.5).abs() < 1e-12);
    }
}
