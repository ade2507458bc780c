//! The per-rank execution context: simulated clock, the ledger every price
//! is billed through, barriers and non-blocking communication handles.
//!
//! A [`Ctx`] is the emulated equivalent of "being a UPC thread": it knows its
//! rank (`MYTHREAD`), the total number of ranks (`THREADS`), and it owns the
//! simulated clock and statistics for that rank.  All PGAS containers take a
//! `&Ctx` on every operation so that the operation can be billed to the right
//! rank.

use crate::machine::{Ledger, Machine, Price};
use crate::runtime::World;
use crate::stats::RankStats;
use std::cell::{Cell, RefCell};

/// Handle returned by non-blocking gathers
/// (the emulated `bupc_memget_vlist_async`).
///
/// The data is materialized eagerly (the source cells are read-only during
/// the phase that issues gathers, exactly as §5.3/§5.5 of the paper argue),
/// but it only becomes *available to the simulated program* once the
/// simulated clock passes `complete_at` — which is what
/// [`Ctx::wait_sync`] / [`Ctx::try_sync`] enforce.  Compute charged between
/// issue and completion therefore genuinely hides the transfer latency.
#[derive(Debug)]
pub struct Handle<T> {
    pub(crate) data: Vec<T>,
    pub(crate) complete_at: f64,
}

impl<T> Handle<T> {
    /// Simulated completion time of the transfer.
    pub fn complete_at(&self) -> f64 {
        self.complete_at
    }

    /// Number of elements carried by this handle.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the handle carries no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// Adds `t` seconds to `ledger`: the one writer of the seconds ledgers.
fn book(stats: &mut RankStats, ledger: Ledger, t: f64) {
    match ledger {
        Ledger::Compute => stats.compute_seconds += t,
        Ledger::Comm => stats.comm_seconds += t,
        Ledger::Sync => stats.sync_seconds += t,
    }
}

/// Per-rank execution context (the emulated UPC thread).
///
/// # The ledger
///
/// Every priced event is billed through [`Ctx::bill`] as a count at one
/// [`Price`], and the counts are turned into time in one place: before
/// anything reads this rank's time or ledgers (`now`, `stats_snapshot`, a
/// barrier, a collective, a message, a handle's issue or wait), each
/// pending count `c` at price `p` adds `p·c` (× the compute factor for a
/// compute price) to the clock and to the price's [`Ledger`], in
/// [`Price::ALL`] order.  Between two reads the clock therefore depends
/// only on the counts: `k` bills of one event and one bill of `k` are the
/// same clock, bit for bit.  The only other writes of the clock are the
/// jumps to another rank's time (a barrier, a collective, a receive, a
/// handle's completion), booked as waits.
pub struct Ctx<'w> {
    rank: usize,
    world: &'w World,
    /// The [`Machine::link`] prices from this rank to each rank, looked up
    /// once here so that billing an access is a table index.
    links: Vec<(Price, Option<Price>)>,
    /// Events billed since the last flush, per [`Price`].
    pending: [Cell<u64>; Price::ALL.len()],
    clock: Cell<f64>,
    stats: RefCell<RankStats>,
    coll_seq: Cell<u64>,
    epoch: Cell<u64>,
}

/// Which way a one-sided access moves data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dir {
    /// A read (get) of the target's memory.
    Get,
    /// A write (put) into the target's memory.
    Put,
}

impl<'w> Ctx<'w> {
    pub(crate) fn new(rank: usize, world: &'w World) -> Self {
        let machine = &world.machine;
        Ctx {
            rank,
            world,
            links: (0..world.ranks).map(|to| machine.link(rank, to)).collect(),
            pending: Default::default(),
            clock: Cell::new(0.0),
            stats: RefCell::new(RankStats::default()),
            coll_seq: Cell::new(0),
            epoch: Cell::new(0),
        }
    }

    pub(crate) fn world(&self) -> &'w World {
        self.world
    }

    /// Consumes the context, returning the final clock and statistics.
    pub(crate) fn into_summary(self) -> (f64, RankStats) {
        self.flush();
        (self.clock.get(), self.stats.into_inner())
    }

    /// This rank's id (UPC `MYTHREAD`).
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Total number of ranks (UPC `THREADS`).
    #[inline]
    pub fn ranks(&self) -> usize {
        self.world.ranks
    }

    /// The machine description (cost model) in effect.
    #[inline]
    pub fn machine(&self) -> &Machine {
        &self.world.machine
    }

    /// Current simulated time of this rank, in seconds.
    #[inline]
    pub fn now(&self) -> f64 {
        self.flush();
        self.clock.get()
    }

    /// Runs a closure with mutable access to this rank's event counters
    /// (the seconds ledgers are the flush's alone).
    pub(crate) fn with_stats<R>(&self, f: impl FnOnce(&mut RankStats) -> R) -> R {
        f(&mut self.stats.borrow_mut())
    }

    /// A snapshot of this rank's statistics so far.
    pub fn stats_snapshot(&self) -> RankStats {
        self.flush();
        self.stats.borrow().clone()
    }

    // ----------------------------------------------------------------------
    // The ledger
    // ----------------------------------------------------------------------

    /// Bills `n` events at `price`.  The work counter of a compute price
    /// (interactions, MACs, tree ops, local accesses) counts the events;
    /// their time reaches the clock at the next read of it.
    #[inline]
    pub fn bill(&self, price: Price, n: u64) {
        let count = &self.pending[price as usize];
        count.set(count.get() + n);
    }

    /// Turns the pending counts into time: `p·c` per price, in
    /// [`Price::ALL`] order, on the clock and on the price's ledger.
    fn flush(&self) {
        let machine = self.machine();
        let mut clock = self.clock.get();
        let mut stats = self.stats.borrow_mut();
        for price in Price::ALL {
            let count = self.pending[price as usize].replace(0);
            if count == 0 {
                continue;
            }
            let mut t = count as f64 * machine.price(price);
            if price.ledger() == Ledger::Compute {
                t *= machine.compute_factor();
            }
            book(&mut stats, price.ledger(), t);
            clock += t;
            match price {
                Price::Interaction => stats.interactions += count,
                Price::TreeOp => stats.tree_ops += count,
                Price::Mac => stats.macs += count,
                Price::LocalAccess => stats.local_accesses += count,
                _ => {}
            }
        }
        self.clock.set(clock);
    }

    /// Moves the clock forward to `t` if it is behind — a wait for another
    /// rank's time — and books the wait on `ledger`.
    pub(crate) fn advance_to(&self, t: f64, ledger: Ledger) {
        self.flush();
        let waited = t - self.clock.get();
        if waited > 0.0 {
            self.clock.set(t);
            book(&mut self.stats.borrow_mut(), ledger, waited);
        }
    }

    /// Charges `seconds` of raw compute time (scaled by the pthreads runtime
    /// overhead factor of the machine): a test's way to put a rank ahead by
    /// an amount no price describes.
    #[cfg(test)]
    pub(crate) fn charge_compute(&self, seconds: f64) {
        self.advance_to(self.now() + seconds * self.machine().compute_factor(), Ledger::Compute);
    }

    /// Bills `k` fine-grained accesses of a `bytes`-byte element owned by
    /// `owner` through a pointer-to-shared.  A local element costs the
    /// dereference surcharge plus one local access (compute), whatever the
    /// container; a remote one costs a transfer on the link per access.
    pub(crate) fn access(&self, dir: Dir, owner: usize, bytes: usize, k: u64) {
        if owner == self.rank {
            self.bill(Price::PtrSurcharge, k);
            self.bill(Price::LocalAccess, k);
        } else {
            self.transfer(dir, owner, k, k * bytes as u64, k);
        }
    }

    /// Bills `messages` one-sided messages to or from `owner`, carrying
    /// `bytes` and `elements` in total: each message pays the link's
    /// latency, each byte its byte price.  A transfer to the rank itself
    /// pays the software overhead per message, moves no bytes and counts
    /// its elements as local accesses.
    pub(crate) fn transfer(
        &self,
        dir: Dir,
        owner: usize,
        messages: u64,
        bytes: u64,
        elements: u64,
    ) {
        let (latency, byte) = self.links[owner];
        self.bill(latency, messages);
        if let Some(byte) = byte {
            self.bill(byte, bytes);
        }
        self.with_stats(|s| {
            if owner == self.rank {
                s.local_accesses += elements;
                return;
            }
            s.messages += messages;
            match dir {
                Dir::Get => {
                    s.remote_gets += elements;
                    s.bytes_in += bytes;
                }
                Dir::Put => {
                    s.remote_puts += elements;
                    s.bytes_out += bytes;
                }
            }
        });
    }

    /// Computes (without charging) the pure network cost of a gather of
    /// `bytes_per_source` from the given sources, assuming the messages
    /// overlap on the network.  Used by the non-blocking gather.
    pub(crate) fn gather_cost(&self, sources: &[(usize, usize)]) -> f64 {
        let m = self.machine();
        sources
            .iter()
            .map(|&(owner, bytes)| m.transfer_cost(self.rank, owner, bytes))
            .fold(0.0, f64::max)
    }

    /// Records the bookkeeping for an aggregated (vlist) request.
    pub(crate) fn record_vlist(&self, num_sources: usize, remote_elements: u64, bytes: u64) {
        self.with_stats(|s| {
            s.vlist_requests += 1;
            if num_sources <= 1 {
                s.vlist_single_source += 1;
            }
            s.messages += num_sources as u64;
            s.remote_gets += remote_elements;
            s.bytes_in += bytes;
        });
    }

    // ----------------------------------------------------------------------
    // Synchronization
    // ----------------------------------------------------------------------

    /// UPC barrier: blocks (for real) until every rank arrives and aligns the
    /// simulated clocks to the latest arrival, plus the barrier cost.
    ///
    /// Barriers also advance the rank's *synchronization epoch*
    /// ([`Ctx::epoch`]), which the software-caching layer
    /// ([`crate::swcache`]) uses as its invalidation point.
    pub fn barrier(&self) {
        // The epoch counts this rank's barriers: it is the call number.
        let epoch = self.epoch.get();
        let max = self.world.align_clocks(self.rank, self.now(), epoch);
        self.advance_to(max, Ledger::Sync);
        self.bill(Price::Barrier, self.machine().hops());
        self.epoch.set(epoch + 1);
    }

    /// Host-only rendezvous: blocks until every rank arrives and charges
    /// nothing — no clock, counter or epoch moves.  For drivers that observe
    /// a run between steps without the model seeing it.
    pub fn host_barrier(&self) {
        self.world.host_barrier();
    }

    /// The rank's synchronization epoch: the number of barriers this rank has
    /// passed.  Software caches of shared data are only coherent within one
    /// epoch (MuPC-style caching, §8 of the paper, writes back and
    /// invalidates at every synchronization point).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Waits for a non-blocking transfer to complete
    /// (the emulated `bupc_waitsync`), returning its payload.
    pub fn wait_sync<T>(&self, handle: Handle<T>) -> Vec<T> {
        self.advance_to(handle.complete_at, Ledger::Comm);
        handle.data
    }

    /// Polls a non-blocking transfer (the emulated `bupc_trysync`): returns
    /// the payload if the transfer already completed, otherwise hands the
    /// handle back after charging a small polling cost.
    pub fn try_sync<T>(&self, handle: Handle<T>) -> Result<Vec<T>, Handle<T>> {
        self.bill(Price::SwOverhead, 1);
        if handle.complete_at <= self.now() {
            Ok(handle.data)
        } else {
            Err(handle)
        }
    }

    /// Next collective sequence number (all ranks call collectives in the
    /// same order, so this identifies the matching operation across ranks).
    pub(crate) fn next_collective_seq(&self) -> u64 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq + 1);
        seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lock::GlobalLock;
    use crate::machine::Machine;
    use crate::runtime::Runtime;

    #[test]
    fn compute_charges_scale_with_pthreads_overhead() {
        let process = Runtime::new(Machine::power5(2, 1, false));
        let t_process = process.run(|ctx| {
            ctx.bill(Price::Interaction, 1_000_000);
            ctx.now()
        });
        let pthread = Runtime::new(Machine::power5(2, 1, true));
        let t_pthread = pthread.run(|ctx| {
            ctx.bill(Price::Interaction, 1_000_000);
            ctx.now()
        });
        assert!(t_pthread.ranks[0].result > 1.5 * t_process.ranks[0].result);
    }

    #[test]
    fn shared_ptr_interactions_cost_more() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            ctx.bill(Price::Interaction, 1000);
            let local = ctx.now();
            ctx.bill(Price::Interaction, 1000);
            ctx.bill(Price::PtrSurcharge, 1000);
            (local, ctx.now() - local)
        });
        let (local, shared) = report.ranks[0].result;
        assert!(shared > local);
        assert_eq!(report.ranks[0].stats.interactions, 2000);
    }

    #[test]
    fn wait_sync_advances_clock_to_completion() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let handle = Handle { data: vec![1u8, 2, 3], complete_at: 5.0 };
            let data = ctx.wait_sync(handle);
            assert_eq!(data, vec![1, 2, 3]);
            ctx.now()
        });
        assert!(report.ranks.iter().all(|r| r.result >= 5.0));
    }

    #[test]
    fn try_sync_before_completion_returns_handle() {
        let rt = Runtime::new(Machine::test_cluster(1));
        rt.run(|ctx| {
            let handle = Handle { data: vec![7u32], complete_at: 1.0 };
            let back = ctx.try_sync(handle);
            assert!(back.is_err());
            ctx.charge_compute(2.0);
            let handle = back.unwrap_err();
            let data = ctx.try_sync(handle).expect("should be complete now");
            assert_eq!(data, vec![7]);
        });
    }

    #[test]
    fn link_table_reproduces_the_machine_cost_model_bit_for_bit() {
        for pthreads in [true, false] {
            let machine = Machine::power5(2, 4, pthreads);
            let rt = Runtime::new(machine.clone());
            rt.run(|ctx| {
                let from = ctx.rank();
                for to in 0..ctx.ranks() {
                    for bytes in [0, 8, 120, 152, 65_536] {
                        let before = ctx.now();
                        ctx.transfer(Dir::Get, to, 1, bytes as u64, 1);
                        assert_eq!(
                            ctx.now().to_bits(),
                            (before
                                + machine.latency(from, to)
                                + machine.byte_cost(from, to) * bytes as f64)
                                .to_bits(),
                            "transfer {from} -> {to}, {bytes} B, pthreads {pthreads}"
                        );
                        assert_eq!(
                            ctx.gather_cost(&[(to, bytes)]).to_bits(),
                            machine.transfer_cost(from, to, bytes).to_bits()
                        );
                    }
                    // A lock is an acquire and a release round trip on the
                    // link to its home, then the lock runtime's overhead.
                    let before = ctx.now();
                    drop(GlobalLock::new(to).lock(ctx));
                    let after_trips = before + 2.0 * machine.latency(from, to);
                    assert_eq!(
                        ctx.now().to_bits(),
                        (after_trips + machine.lock_overhead).to_bits(),
                        "lock {from} -> {to}, pthreads {pthreads}"
                    );
                }
            });
        }
    }

    #[test]
    fn lock_billing_counts_acquisitions() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let (home0, home1) = (GlobalLock::new(0), GlobalLock::new(1));
        let report = rt.run(|ctx| {
            drop(home0.lock(ctx));
            drop(home1.lock(ctx));
            ctx.stats_snapshot().lock_acquires
        });
        assert!(report.ranks.iter().all(|r| r.result == 2));
    }

    /// The clock bits and counters of rank 0 of a two-node machine after
    /// `bill` ran once against its own rank and once against rank 3, for
    /// each of several starting clocks (so that an addition regrouped by
    /// the batch would round differently at one of them).
    fn billed(bill: impl Fn(&Ctx, usize) + Sync) -> Vec<(u64, RankStats)> {
        [1e-7, 0.1, 1.0 / 3.0, 12.345, 987.654_321]
            .into_iter()
            .map(|start| {
                let rt = Runtime::new(Machine::power5(2, 2, true));
                let report = rt.run(|ctx| {
                    if ctx.rank() == 0 {
                        ctx.charge_compute(start);
                        bill(ctx, 0);
                        bill(ctx, 3);
                    }
                    (ctx.now().to_bits(), ctx.stats_snapshot())
                });
                report.ranks.into_iter().next().unwrap().result
            })
            .collect()
    }

    #[test]
    fn batched_billing_replays_successive_single_charges_bit_for_bit() {
        for k in [1, 3, 5] {
            for bytes in [8, 120, 152] {
                let label = format!("{k} x {bytes} B");
                for dir in [Dir::Get, Dir::Put] {
                    let singles = billed(|ctx, owner| {
                        for _ in 0..k {
                            ctx.access(dir, owner, bytes, 1);
                        }
                    });
                    let batched = billed(|ctx, owner| ctx.access(dir, owner, bytes, k));
                    assert_eq!(singles, batched, "{label} {dir:?}");
                    let stats = &singles[0].1;
                    assert_eq!(stats.local_accesses, k, "{label}");
                    let remote = if dir == Dir::Get {
                        (stats.remote_gets, stats.bytes_in)
                    } else {
                        (stats.remote_puts, stats.bytes_out)
                    };
                    assert_eq!(remote, (k, k * bytes as u64), "{label} {dir:?}");
                }
            }
        }
    }

    #[test]
    fn every_price_reaches_the_clock_and_its_ledger_once() {
        let machine = Machine::power5(2, 2, true);
        let report = Runtime::new(machine.clone()).run(|ctx| {
            if ctx.rank() == 0 {
                for (i, price) in Price::ALL.into_iter().enumerate() {
                    ctx.bill(price, i as u64 + 1);
                }
            }
        });
        let stats = &report.ranks[0].stats;
        let mut ledgers = [0.0; 3];
        let mut clock = 0.0;
        for (i, price) in Price::ALL.into_iter().enumerate() {
            let mut t = (i + 1) as f64 * machine.price(price);
            if price.ledger() == Ledger::Compute {
                t *= machine.compute_factor();
            }
            ledgers[price.ledger() as usize] += t;
            clock += t;
        }
        assert_eq!(report.ranks[0].clock.to_bits(), clock.to_bits());
        let booked = [stats.compute_seconds, stats.comm_seconds, stats.sync_seconds];
        assert_eq!(booked.map(f64::to_bits), ledgers.map(f64::to_bits));
        assert_eq!(
            (stats.interactions, stats.tree_ops, stats.macs, stats.local_accesses),
            (1, 3, 4, 5)
        );
    }

    #[test]
    fn remote_get_is_billed_more_than_local() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            ctx.access(Dir::Get, ctx.rank(), 64, 1);
            let local = ctx.now();
            ctx.access(Dir::Get, (ctx.rank() + 1) % 2, 64, 1);
            (local, ctx.now() - local)
        });
        for r in &report.ranks {
            let (local, remote) = r.result;
            assert!(remote > 10.0 * local, "remote {remote} should dwarf local {local}");
        }
    }
}
