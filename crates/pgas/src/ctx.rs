//! The per-rank execution context: simulated clock, cost charging, barriers
//! and non-blocking communication handles.
//!
//! A [`Ctx`] is the emulated equivalent of "being a UPC thread": it knows its
//! rank (`MYTHREAD`), the total number of ranks (`THREADS`), and it owns the
//! simulated clock and statistics for that rank.  All PGAS containers take a
//! `&Ctx` on every operation so that the operation can be billed to the right
//! rank.

use crate::machine::Machine;
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

/// Per-rank execution context (the emulated UPC thread).
pub struct Ctx<'w> {
    rank: usize,
    world: &'w World,
    /// `(latency, byte_cost)` of a one-sided operation from this rank to
    /// each rank, looked up once here so that billing an access is a table
    /// index instead of two `Machine::node_of` divisions.
    links: Vec<(f64, f64)>,
    clock: Cell<f64>,
    stats: RefCell<RankStats>,
    coll_seq: Cell<u64>,
    epoch: Cell<u64>,
}

impl<'w> Ctx<'w> {
    pub(crate) fn new(rank: usize, world: &'w World) -> Self {
        let machine = &world.machine;
        Ctx {
            rank,
            world,
            links: (0..world.ranks)
                .map(|to| (machine.latency(rank, to), machine.byte_cost(rank, to)))
                .collect(),
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
        self.clock.get()
    }

    /// Runs a closure with mutable access to this rank's statistics.
    pub(crate) fn with_stats<R>(&self, f: impl FnOnce(&mut RankStats) -> R) -> R {
        f(&mut self.stats.borrow_mut())
    }

    /// A snapshot of this rank's statistics so far.
    pub fn stats_snapshot(&self) -> RankStats {
        self.stats.borrow().clone()
    }

    /// Advances the clock unconditionally (used internally).
    #[inline]
    pub(crate) fn advance(&self, dt: f64) {
        debug_assert!(dt >= 0.0, "cannot advance the clock backwards");
        self.clock.set(self.clock.get() + dt);
    }

    /// Sets the clock to at least `t` (used when waiting on async handles and
    /// at barriers).
    #[inline]
    pub(crate) fn advance_to(&self, t: f64) -> f64 {
        let waited = (t - self.clock.get()).max(0.0);
        if waited > 0.0 {
            self.clock.set(t);
        }
        waited
    }

    // ----------------------------------------------------------------------
    // Compute charging
    // ----------------------------------------------------------------------

    /// Charges `seconds` of raw compute time (scaled by the pthreads runtime
    /// overhead factor of the machine).
    pub fn charge_compute(&self, seconds: f64) {
        let t = seconds * self.machine().compute_factor();
        self.advance(t);
        self.with_stats(|s| s.compute_seconds += t);
    }

    /// Charges `n` body–cell interactions computed through *local* pointers.
    pub fn charge_interactions(&self, n: u64) {
        let t = n as f64 * self.machine().interaction_cost * self.machine().compute_factor();
        self.advance(t);
        self.with_stats(|s| {
            s.interactions += n;
            s.compute_seconds += t;
        });
    }

    /// Charges `n` body–cell interactions computed through pointers-to-shared
    /// (the un-cast baseline of §4; each interaction pays the dereference
    /// surcharge).
    pub fn charge_interactions_shared_ptr(&self, n: u64) {
        let m = self.machine();
        let t = n as f64 * (m.interaction_cost + m.global_ptr_overhead) * m.compute_factor();
        self.advance(t);
        self.with_stats(|s| {
            s.interactions += n;
            s.compute_seconds += t;
        });
    }

    /// Charges `n` multipole-acceptance tests (the `l/d < θ` opening
    /// decisions a force walk evaluates, one per visited cell).
    pub fn charge_macs(&self, n: u64) {
        let t = n as f64 * self.machine().mac_cost * self.machine().compute_factor();
        self.advance(t);
        self.with_stats(|s| {
            s.macs += n;
            s.compute_seconds += t;
        });
    }

    /// Charges `n` elementary tree operations (insertion descents, merge
    /// steps, subspace splits, …).
    pub fn charge_tree_ops(&self, n: u64) {
        let t = n as f64 * self.machine().treeop_cost * self.machine().compute_factor();
        self.advance(t);
        self.with_stats(|s| {
            s.tree_ops += n;
            s.compute_seconds += t;
        });
    }

    /// Charges `n` plain local memory accesses.
    pub fn charge_local_accesses(&self, n: u64) {
        let t = n as f64 * self.machine().local_access_cost * self.machine().compute_factor();
        self.advance(t);
        self.with_stats(|s| {
            s.local_accesses += n;
            s.compute_seconds += t;
        });
    }

    // ----------------------------------------------------------------------
    // Communication charging (used by the shared containers)
    // ----------------------------------------------------------------------

    /// [`Machine::transfer_cost`] from this rank to `owner`, from the link
    /// table: the same expression on the same operands, so bit-identical.
    #[inline]
    fn transfer_cost(&self, owner: usize, bytes: usize) -> f64 {
        let (latency, byte_cost) = self.links[owner];
        latency + byte_cost * bytes as f64
    }

    /// Charges a fine-grained read of `bytes` bytes owned by `owner`.
    pub(crate) fn bill_get(&self, owner: usize, bytes: usize) {
        self.bill_gets(owner, bytes, 1);
    }

    /// Charges a fine-grained write of `bytes` bytes owned by `owner`.
    pub(crate) fn bill_put(&self, owner: usize, bytes: usize) {
        self.bill_puts(owner, bytes, 1);
    }

    /// Charges `k` successive fine-grained reads of `bytes` bytes owned by
    /// `owner`, one f64 addition of the transfer cost per read on the clock
    /// and on the communication seconds, under one borrow of the statistics
    /// with the clock kept in a local.
    pub(crate) fn bill_gets(&self, owner: usize, bytes: usize, k: u32) {
        let cost = self.transfer_cost(owner, bytes);
        let mut clock = self.clock.get();
        let mut stats = self.stats.borrow_mut();
        for _ in 0..k {
            clock += cost;
            stats.comm_seconds += cost;
        }
        self.clock.set(clock);
        let k = u64::from(k);
        if owner == self.rank {
            stats.local_accesses += k;
        } else {
            stats.remote_gets += k;
            stats.messages += k;
            stats.bytes_in += k * bytes as u64;
        }
    }

    /// Write counterpart of [`Ctx::bill_gets`].
    pub(crate) fn bill_puts(&self, owner: usize, bytes: usize, k: u32) {
        let cost = self.transfer_cost(owner, bytes);
        let mut clock = self.clock.get();
        let mut stats = self.stats.borrow_mut();
        for _ in 0..k {
            clock += cost;
            stats.comm_seconds += cost;
        }
        self.clock.set(clock);
        let k = u64::from(k);
        if owner == self.rank {
            stats.local_accesses += k;
        } else {
            stats.remote_puts += k;
            stats.messages += k;
            stats.bytes_out += k * bytes as u64;
        }
    }

    /// Charges a bulk get of `bytes` bytes from `owner` in a single message
    /// and returns its cost.
    pub(crate) fn bill_bulk_get(&self, owner: usize, bytes: usize, elements: u64) -> f64 {
        let cost = self.transfer_cost(owner, bytes);
        self.advance(cost);
        self.with_stats(|s| {
            s.comm_seconds += cost;
            if owner == self.rank {
                s.local_accesses += elements;
            } else {
                s.messages += 1;
                s.remote_gets += elements;
                s.bytes_in += bytes as u64;
            }
        });
        cost
    }

    /// Charges a bulk put of `bytes` bytes to `owner` in a single message.
    pub(crate) fn bill_bulk_put(&self, owner: usize, bytes: usize, elements: u64) {
        let cost = self.transfer_cost(owner, bytes);
        self.advance(cost);
        self.with_stats(|s| {
            s.comm_seconds += cost;
            if owner == self.rank {
                s.local_accesses += elements;
            } else {
                s.messages += 1;
                s.remote_puts += elements;
                s.bytes_out += bytes as u64;
            }
        });
    }

    /// Computes (without charging) the pure network cost of a gather of
    /// `bytes_per_source` from the given sources, assuming the messages
    /// overlap on the network.  Used by the non-blocking gather.
    pub(crate) fn gather_cost(&self, sources: &[(usize, usize)]) -> f64 {
        sources.iter().map(|&(owner, bytes)| self.transfer_cost(owner, bytes)).fold(0.0, f64::max)
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

    /// Charges the CPU-side cost of issuing `messages` one-sided operations.
    pub(crate) fn charge_issue_overhead(&self, messages: usize) {
        let t = messages as f64 * self.machine().sw_overhead;
        self.advance(t);
        self.with_stats(|s| s.comm_seconds += t);
    }

    /// Charges a global lock acquisition on a lock owned by `owner`.
    pub(crate) fn bill_lock(&self, owner: usize) {
        // Acquire + release round trips to the lock's home plus the runtime
        // overhead of the lock implementation.
        let cost = 2.0 * self.links[owner].0 + self.machine().lock_overhead;
        self.advance(cost);
        self.with_stats(|s| {
            s.comm_seconds += cost;
            s.lock_acquires += 1;
            if owner != self.rank {
                s.messages += 2;
            }
        });
    }

    /// Bills one shared-object read of `bytes` bytes owned by `owner`, as a
    /// [`crate::SharedArena::read`] of a record that size: a local target
    /// pays the pointer-to-shared dereference surcharge plus one local
    /// access, a remote target pays a fine-grained get.  The unbatched
    /// reference [`Ctx::charge_shared_reads`] is pinned to.
    #[cfg(test)]
    pub(crate) fn charge_shared_read(&self, owner: usize, bytes: usize) {
        if owner == self.rank {
            self.advance(self.machine().global_ptr_overhead);
            self.charge_local_accesses(1);
        } else {
            self.bill_get(owner, bytes);
        }
    }

    /// Bills `k` successive shared-object reads of `bytes` bytes owned by
    /// `owner` — a struct read field by field through a pointer-to-shared.
    /// Bit for bit what `k` [`Ctx::charge_shared_read`]s bill: the same f64
    /// additions, in the same order, on the clock and on every counter, but
    /// under one borrow of the statistics with the clock kept in a local.
    pub(crate) fn charge_shared_reads(&self, owner: usize, bytes: usize, k: u32) {
        if owner == self.rank {
            self.charge_local_derefs(k);
        } else {
            self.bill_gets(owner, bytes, k);
        }
    }

    /// Write counterpart of [`Ctx::charge_shared_reads`]: what `k`
    /// [`Ctx::charge_shared_write`]s bill.
    pub(crate) fn charge_shared_writes(&self, owner: usize, bytes: usize, k: u32) {
        if owner == self.rank {
            self.charge_local_derefs(k);
        } else {
            self.bill_puts(owner, bytes, k);
        }
    }

    /// `k` dereferences of a local pointer-to-shared, each the surcharge
    /// plus one local access, replayed in [`Ctx::charge_shared_read`]'s
    /// order: clock += surcharge, clock += access, compute += access.
    fn charge_local_derefs(&self, k: u32) {
        let m = self.machine();
        let access = m.local_access_cost * m.compute_factor();
        let mut clock = self.clock.get();
        let mut stats = self.stats.borrow_mut();
        for _ in 0..k {
            clock += m.global_ptr_overhead;
            clock += access;
            stats.compute_seconds += access;
        }
        self.clock.set(clock);
        stats.local_accesses += u64::from(k);
    }

    /// Write counterpart of [`Ctx::charge_shared_read`] (the billing of a
    /// [`crate::SharedArena::write`]), the reference
    /// [`Ctx::charge_shared_writes`] is pinned to.
    #[cfg(test)]
    pub(crate) fn charge_shared_write(&self, owner: usize, bytes: usize) {
        if owner == self.rank {
            self.advance(self.machine().global_ptr_overhead);
            self.charge_local_accesses(1);
        } else {
            self.bill_put(owner, bytes);
        }
    }

    /// Bills an atomic read-modify-write of a `bytes`-byte shared object
    /// owned by `owner` — a round trip (get + put), local or not, as
    /// [`crate::SharedArena::update`].
    pub(crate) fn charge_rmw(&self, owner: usize, bytes: usize) {
        self.bill_get(owner, bytes);
        self.bill_put(owner, bytes);
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
        let max = self.world.align_clocks(self.rank, self.clock.get(), epoch);
        let waited = self.advance_to(max);
        let cost = self.machine().barrier_cost();
        self.advance(cost);
        self.epoch.set(epoch + 1);
        self.with_stats(|s| s.sync_seconds += waited + cost);
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
        let waited = self.advance_to(handle.complete_at);
        self.with_stats(|s| s.comm_seconds += waited);
        handle.data
    }

    /// Polls a non-blocking transfer (the emulated `bupc_trysync`): returns
    /// the payload if the transfer already completed, otherwise hands the
    /// handle back after charging a small polling cost.
    pub fn try_sync<T>(&self, handle: Handle<T>) -> Result<Vec<T>, Handle<T>> {
        self.charge_issue_overhead(1);
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
    use crate::machine::Machine;
    use crate::runtime::Runtime;

    #[test]
    fn compute_charges_scale_with_pthreads_overhead() {
        let process = Runtime::new(Machine::power5(2, 1, false));
        let t_process = process.run(|ctx| {
            ctx.charge_interactions(1_000_000);
            ctx.now()
        });
        let pthread = Runtime::new(Machine::power5(2, 1, true));
        let t_pthread = pthread.run(|ctx| {
            ctx.charge_interactions(1_000_000);
            ctx.now()
        });
        assert!(t_pthread.ranks[0].result > 1.5 * t_process.ranks[0].result);
    }

    #[test]
    fn shared_ptr_interactions_cost_more() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            ctx.charge_interactions(1000);
            let local = ctx.now();
            ctx.charge_interactions_shared_ptr(1000);
            (local, ctx.now() - local)
        });
        let (local, shared) = report.ranks[0].result;
        assert!(shared > local);
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
                        assert_eq!(
                            ctx.transfer_cost(to, bytes).to_bits(),
                            machine.transfer_cost(from, to, bytes).to_bits(),
                            "transfer {from} -> {to}, {bytes} B, pthreads {pthreads}"
                        );
                        assert_eq!(
                            ctx.gather_cost(&[(to, bytes)]).to_bits(),
                            machine.transfer_cost(from, to, bytes).to_bits()
                        );
                    }
                    let before = ctx.now();
                    ctx.bill_lock(to);
                    let lock_cost = 2.0 * machine.latency(from, to) + machine.lock_overhead;
                    assert_eq!(
                        ctx.now().to_bits(),
                        (before + lock_cost).to_bits(),
                        "lock {from} -> {to}, pthreads {pthreads}"
                    );
                }
            });
        }
    }

    #[test]
    fn lock_billing_counts_acquisitions() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            ctx.bill_lock(0);
            ctx.bill_lock(1);
            ctx.stats_snapshot().lock_acquires
        });
        assert!(report.ranks.iter().all(|r| r.result == 2));
    }

    /// The clock bits and counters of rank 0 of a two-node machine after
    /// `bill` ran once against its own rank and once against rank 3, for
    /// each of several starting clocks (so that an addition regrouped in
    /// the replay would round differently at one of them).
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
                let reads = billed(|ctx, owner| {
                    for _ in 0..k {
                        ctx.charge_shared_read(owner, bytes);
                    }
                });
                let batched = billed(|ctx, owner| ctx.charge_shared_reads(owner, bytes, k));
                assert_eq!(reads, batched, "{label}");
                let stats = &reads[0].1;
                assert_eq!(stats.local_accesses, u64::from(k), "{label}");
                assert_eq!(stats.remote_gets, u64::from(k), "{label}");
                assert_eq!(stats.bytes_in, u64::from(k) * bytes as u64, "{label}");

                let writes = billed(|ctx, owner| {
                    for _ in 0..k {
                        ctx.charge_shared_write(owner, bytes);
                    }
                });
                let batched = billed(|ctx, owner| ctx.charge_shared_writes(owner, bytes, k));
                assert_eq!(writes, batched, "{label}");
                assert_eq!(writes[0].1.remote_puts, u64::from(k), "{label}");
            }
        }
    }

    #[test]
    fn remote_get_is_billed_more_than_local() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            ctx.bill_get(ctx.rank(), 64);
            let local = ctx.now();
            ctx.bill_get((ctx.rank() + 1) % 2, 64);
            (local, ctx.now() - local)
        });
        for r in &report.ranks {
            let (local, remote) = r.result;
            assert!(remote > 10.0 * local, "remote {remote} should dwarf local {local}");
        }
    }
}
