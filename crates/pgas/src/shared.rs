//! Block-distributed shared arrays and shared scalars.
//!
//! [`SharedVec`] models a UPC shared array allocated with
//! `upc_global_alloc`: a fixed-length array whose elements are distributed
//! block-wise across ranks (rank 0 owns the first block, rank 1 the second,
//! and so on — the distribution the baseline code uses for `bodytab[]`).
//! [`SharedScalar`] models a UPC shared scalar, which the language pins to
//! thread 0 (§5.1 of the paper is entirely about the cost of that choice).

use crate::ctx::{Ctx, Dir};
use crate::machine::Price;
use crate::sync_cell::SyncSlot;
use std::ops::Range;

/// A block-distributed shared array of `T`.
pub struct SharedVec<T> {
    slots: Vec<SyncSlot<T>>,
    ranks: usize,
    block: usize,
}

impl<T: Copy + Send + Sync> SharedVec<T> {
    /// Allocates a shared array of `len` copies of `init`, block-distributed
    /// over `ranks` ranks.
    pub fn new(ranks: usize, len: usize, init: T) -> Self {
        assert!(ranks > 0, "SharedVec requires at least one rank");
        let block = len.div_ceil(ranks).max(1);
        SharedVec { slots: (0..len).map(|_| SyncSlot::new(init)).collect(), ranks, block }
    }

    /// Allocates a shared array initialized element-wise by `f`.
    pub fn from_fn(ranks: usize, len: usize, mut f: impl FnMut(usize) -> T) -> Self {
        assert!(ranks > 0, "SharedVec requires at least one rank");
        let block = len.div_ceil(ranks).max(1);
        SharedVec { slots: (0..len).map(|i| SyncSlot::new(f(i))).collect(), ranks, block }
    }

    /// Allocates a shared array from an existing vector.
    pub fn from_vec(ranks: usize, data: Vec<T>) -> Self {
        let len = data.len();
        let mut it = data.into_iter();
        Self::from_fn(ranks, len, |_| it.next().expect("length mismatch"))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when the array is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of ranks the array is distributed over.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Rank with affinity to element `i` (UPC `upc_threadof(&a[i])`).
    #[inline]
    pub fn owner_of(&self, i: usize) -> usize {
        (i / self.block).min(self.ranks - 1)
    }

    /// The contiguous index range owned by `rank`.
    pub fn local_range(&self, rank: usize) -> Range<usize> {
        let start = (rank * self.block).min(self.slots.len());
        let end = ((rank + 1) * self.block).min(self.slots.len());
        start..end
    }

    /// Fine-grained read of element `i` through a pointer-to-shared: a
    /// remote get, or the local dereference price if the caller owns it.
    pub fn read(&self, ctx: &Ctx, i: usize) -> T {
        self.read_fields(ctx, i, 1)
    }

    /// Reads element `i` the way the literal translation does, one field at
    /// a time: bills exactly what `fields` successive [`SharedVec::read`]s
    /// bill and copies the element out once.
    ///
    /// # Panics
    /// Panics if `fields` is zero.
    pub fn read_fields(&self, ctx: &Ctx, i: usize, fields: u32) -> T {
        assert!(fields > 0, "a read of zero fields has no value to return");
        ctx.access(Dir::Get, self.owner_of(i), std::mem::size_of::<T>(), u64::from(fields));
        self.slots[i].get()
    }

    /// Fine-grained write of element `i`.
    pub fn write(&self, ctx: &Ctx, i: usize, value: T) {
        self.write_fields(ctx, i, value, 1);
    }

    /// Write counterpart of [`SharedVec::read_fields`]: bills `fields`
    /// successive [`SharedVec::write`]s and stores the element once.
    pub fn write_fields(&self, ctx: &Ctx, i: usize, value: T, fields: u32) {
        assert!(fields > 0, "a write of zero fields would store without being billed");
        ctx.access(Dir::Put, self.owner_of(i), std::mem::size_of::<T>(), u64::from(fields));
        self.slots[i].set(value);
    }

    /// Read of an element the caller has verified to be local; models the
    /// "cast pointer-to-shared to local pointer" optimization (§5.2).
    ///
    /// # Panics
    /// Panics in debug builds if the element is not local to the caller.
    pub fn read_local(&self, ctx: &Ctx, i: usize) -> T {
        debug_assert_eq!(self.owner_of(i), ctx.rank(), "read_local on a remote element");
        ctx.bill(Price::LocalAccess, 1);
        self.slots[i].get()
    }

    /// Local write counterpart of [`SharedVec::read_local`].
    pub fn write_local(&self, ctx: &Ctx, i: usize, value: T) {
        debug_assert_eq!(self.owner_of(i), ctx.rank(), "write_local on a remote element");
        ctx.bill(Price::LocalAccess, 1);
        self.slots[i].set(value);
    }

    /// Read-modify-write of element `i` under the element lock.
    pub fn update<R>(&self, ctx: &Ctx, i: usize, f: impl FnOnce(&mut T) -> R) -> R {
        // A read-modify-write is a round trip on the link, a get plus a put.
        let (owner, bytes) = (self.owner_of(i), std::mem::size_of::<T>() as u64);
        ctx.transfer(Dir::Get, owner, 1, bytes, 1);
        ctx.transfer(Dir::Put, owner, 1, bytes, 1);
        self.slots[i].update(f)
    }

    /// Bulk read of `range` (the emulated `upc_memget`): one message per
    /// owning rank touched by the range.
    pub fn get_block(&self, ctx: &Ctx, range: Range<usize>) -> Vec<T> {
        let elem = std::mem::size_of::<T>();
        let mut out = Vec::with_capacity(range.len());
        let mut i = range.start;
        while i < range.end {
            let owner = self.owner_of(i);
            let owner_end = self.local_range(owner).end.min(range.end);
            let count = owner_end - i;
            ctx.transfer(Dir::Get, owner, 1, (count * elem) as u64, count as u64);
            for slot in &self.slots[i..owner_end] {
                out.push(slot.get());
            }
            i = owner_end;
        }
        out
    }

    /// Bulk write starting at `start` (the emulated `upc_memput`).
    pub fn put_block(&self, ctx: &Ctx, start: usize, values: &[T]) {
        let elem = std::mem::size_of::<T>();
        let mut i = 0usize;
        while i < values.len() {
            let idx = start + i;
            let owner = self.owner_of(idx);
            let owner_end = (self.local_range(owner).end - start).min(values.len());
            let count = owner_end - i;
            ctx.transfer(Dir::Put, owner, 1, (count * elem) as u64, count as u64);
            for (j, value) in values.iter().enumerate().take(owner_end).skip(i) {
                self.slots[start + j].set(*value);
            }
            i = owner_end;
        }
    }

    /// Indexed gather (the emulated `upc_memget_ilist`): fetches the listed
    /// elements paying one message per distinct owning rank.
    pub fn get_ilist(&self, ctx: &Ctx, indices: &[usize]) -> Vec<T> {
        let elem = std::mem::size_of::<T>();
        // Bill one message per distinct owner.
        let mut per_owner: Vec<(usize, usize)> = Vec::new();
        for &i in indices {
            let owner = self.owner_of(i);
            match per_owner.iter_mut().find(|(o, _)| *o == owner) {
                Some((_, count)) => *count += 1,
                None => per_owner.push((owner, 1)),
            }
        }
        for &(owner, count) in &per_owner {
            ctx.transfer(Dir::Get, owner, 1, (count * elem) as u64, count as u64);
        }
        indices.iter().map(|&i| self.slots[i].get()).collect()
    }

    /// Unbilled read, for drivers, tests and result extraction only.
    pub fn read_raw(&self, i: usize) -> T {
        self.slots[i].get()
    }

    /// Unbilled write, for drivers and tests only.
    pub fn write_raw(&self, i: usize, value: T) {
        self.slots[i].set(value);
    }

    /// Unbilled snapshot of the whole array, for drivers and tests only.
    pub fn snapshot(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.slots[i].get()).collect()
    }
}

/// A UPC shared scalar: a single value with affinity to rank 0.
pub struct SharedScalar<T> {
    slot: SyncSlot<T>,
}

impl<T: Copy + Send + Sync> SharedScalar<T> {
    /// Creates a shared scalar holding `value` (stored on rank 0).
    pub fn new(value: T) -> Self {
        SharedScalar { slot: SyncSlot::new(value) }
    }

    /// Reads the scalar; every rank other than 0 pays a remote access
    /// (this is exactly the cost that §5.1 removes by replication), rank 0
    /// the local dereference price.
    pub fn read(&self, ctx: &Ctx) -> T {
        self.pay_for_reads(ctx, 1);
        self.slot.get()
    }

    /// Bills exactly what `n` [`SharedScalar::read`]s bill and fetches
    /// nothing: for a caller that already holds the value of a scalar
    /// nobody writes in the phase, and must still pay for each use the
    /// model reads it.
    pub fn pay_for_reads(&self, ctx: &Ctx, n: u64) {
        if n > 0 {
            ctx.access(Dir::Get, 0, std::mem::size_of::<T>(), n);
        }
    }

    /// Writes the scalar (remote for every rank other than 0).
    pub fn write(&self, ctx: &Ctx, value: T) {
        ctx.access(Dir::Put, 0, std::mem::size_of::<T>(), 1);
        self.slot.set(value);
    }

    /// Unbilled read for drivers and tests.
    pub fn read_raw(&self) -> T {
        self.slot.get()
    }

    /// Unbilled write for drivers and tests.
    pub fn write_raw(&self, value: T) {
        self.slot.set(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::runtime::Runtime;

    #[test]
    fn block_distribution_owners() {
        let v: SharedVec<u32> = SharedVec::new(4, 10, 0);
        // block = ceil(10/4) = 3
        assert_eq!(v.owner_of(0), 0);
        assert_eq!(v.owner_of(2), 0);
        assert_eq!(v.owner_of(3), 1);
        assert_eq!(v.owner_of(8), 2);
        assert_eq!(v.owner_of(9), 3);
        assert_eq!(v.local_range(0), 0..3);
        assert_eq!(v.local_range(3), 9..10);
    }

    #[test]
    fn local_range_of_small_array() {
        let v: SharedVec<u32> = SharedVec::new(8, 3, 0);
        // block = ceil(3/8) = 1: the first three ranks own one element each,
        // later ranks own empty ranges.
        assert_eq!(v.local_range(0), 0..1);
        assert_eq!(v.local_range(2), 2..3);
        assert!(v.local_range(5).is_empty());
    }

    #[test]
    fn read_write_roundtrip_and_billing() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let v: SharedVec<u64> = SharedVec::new(2, 8, 0);
        let report = rt.run(|ctx| {
            // Each rank writes its own block locally and reads the other's.
            for i in v.local_range(ctx.rank()) {
                v.write_local(ctx, i, (ctx.rank() * 100 + i) as u64);
            }
            ctx.barrier();
            let other = 1 - ctx.rank();
            let mut sum = 0;
            for i in v.local_range(other) {
                sum += v.read(ctx, i);
            }
            (sum, ctx.stats_snapshot().remote_gets)
        });
        // Rank 0 reads rank 1's block: values 104..=107 -> sum = 100*4 + 4+5+6+7
        assert_eq!(report.ranks[0].result.0, 422);
        assert_eq!(report.ranks[0].result.1, 4);
        assert_eq!(report.ranks[1].result.1, 4);
    }

    /// What one rank's clock and counters show after `access` ran against
    /// an element of its own block and then one of its neighbour's.
    fn local_then_remote(
        access: impl Fn(&Ctx, &SharedVec<[u64; 3]>, usize) + Sync,
    ) -> Vec<(u64, crate::RankStats, [u64; 3])> {
        let rt = Runtime::new(Machine::power5(2, 2, false));
        let v: SharedVec<[u64; 3]> = SharedVec::from_fn(4, 8, |i| [i as u64; 3]);
        let report = rt.run(|ctx| {
            access(ctx, &v, v.local_range(ctx.rank()).start);
            ctx.barrier();
            let neighbour = v.local_range((ctx.rank() + 1) % 4).start;
            access(ctx, &v, neighbour);
            ctx.barrier();
            (ctx.now().to_bits(), ctx.stats_snapshot(), v.read_raw(neighbour))
        });
        report.ranks.into_iter().map(|r| r.result).collect()
    }

    #[test]
    fn read_fields_and_write_fields_bill_what_successive_accesses_bill() {
        for fields in [1, 3, 5] {
            let reads = local_then_remote(|ctx, v, i| {
                for _ in 0..fields {
                    v.read(ctx, i);
                }
            });
            let read_at_once = local_then_remote(|ctx, v, i| {
                v.read_fields(ctx, i, fields);
            });
            assert_eq!(reads, read_at_once, "{fields} field(s) read");
            assert_eq!(read_at_once[1].1.remote_gets, fields as u64);

            let writes = local_then_remote(|ctx, v, i| {
                for _ in 0..fields {
                    v.write(ctx, i, [40 + ctx.rank() as u64; 3]);
                }
            });
            let written_at_once = local_then_remote(|ctx, v, i| {
                v.write_fields(ctx, i, [40 + ctx.rank() as u64; 3], fields);
            });
            assert_eq!(writes, written_at_once, "{fields} field(s) written");
            assert_eq!(written_at_once[1].1.remote_puts, fields as u64);
            assert_eq!(written_at_once[1].2, [41; 3], "rank 1 wrote its neighbour's element");
        }
    }

    #[test]
    fn bulk_get_matches_fine_grained_but_fewer_messages() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let v: SharedVec<u32> = SharedVec::from_fn(2, 100, |i| i as u32);
        let report = rt.run(|ctx| {
            if ctx.rank() == 0 {
                let bulk = v.get_block(ctx, 50..100);
                let msgs_after_bulk = ctx.stats_snapshot().messages;
                let fine: Vec<u32> = (50..100).map(|i| v.read(ctx, i)).collect();
                let msgs_total = ctx.stats_snapshot().messages;
                assert_eq!(bulk, fine);
                assert_eq!(msgs_after_bulk, 1);
                assert_eq!(msgs_total - msgs_after_bulk, 50);
            }
            ctx.barrier();
        });
        drop(report);
    }

    #[test]
    fn put_block_spanning_owners() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let v: SharedVec<u32> = SharedVec::new(4, 16, 0);
        rt.run(|ctx| {
            if ctx.rank() == 0 {
                let vals: Vec<u32> = (0..16).map(|i| i * 2).collect();
                v.put_block(ctx, 0, &vals);
            }
            ctx.barrier();
            for i in 0..16 {
                assert_eq!(v.read(ctx, i), (i * 2) as u32);
            }
        });
    }

    #[test]
    fn ilist_gathers_in_request_order() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let v: SharedVec<u64> = SharedVec::from_fn(4, 40, |i| (i * i) as u64);
        let report = rt.run(|ctx| {
            let idx = vec![39, 0, 17, 22, 1];
            let got = v.get_ilist(ctx, &idx);
            (got, ctx.stats_snapshot().messages)
        });
        for r in &report.ranks {
            assert_eq!(r.result.0, vec![39 * 39, 0, 17 * 17, 22 * 22, 1]);
            // 39->rank3, 0/1->rank0, 17->rank1, 22->rank2: 4 distinct owners,
            // one of which is always the calling rank itself (no message).
            assert_eq!(r.result.1, 3);
        }
    }

    #[test]
    fn update_is_atomic_under_contention() {
        let rt = Runtime::new(Machine::test_cluster(8));
        let v: SharedVec<u64> = SharedVec::new(8, 1, 0);
        rt.run(|ctx| {
            for _ in 0..100 {
                v.update(ctx, 0, |x| *x += 1);
            }
            ctx.barrier();
            assert_eq!(v.read(ctx, 0), 800);
        });
    }

    #[test]
    fn shared_scalar_affinity_is_rank_zero() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let s = SharedScalar::new(1.25f64);
        let report = rt.run(|ctx| {
            let v = s.read(ctx);
            (v, ctx.stats_snapshot().remote_gets)
        });
        assert_eq!(report.ranks[0].result, (1.25, 0));
        assert_eq!(report.ranks[1].result, (1.25, 1));
    }

    #[test]
    fn pay_for_reads_bills_what_reads_bill() {
        let s = SharedScalar::new(0.5f64);
        let billed = |uses: &(dyn Fn(&Ctx) + Sync)| {
            let report = Runtime::new(Machine::power5(2, 2, true)).run(|ctx| uses(ctx));
            report.ranks.iter().map(|r| (r.clock.to_bits(), r.stats.clone())).collect::<Vec<_>>()
        };
        let read = billed(&|ctx| {
            for _ in 0..3 {
                assert_eq!(s.read(ctx), 0.5);
            }
        });
        let charged = billed(&|ctx| s.pay_for_reads(ctx, 3));
        assert_eq!(read, charged);
        assert_eq!(read[0].1.local_accesses, 3, "rank 0 owns the scalar");
        assert_eq!(read[3].1.remote_gets, 3);
    }

    #[test]
    fn snapshot_reflects_writes() {
        let v: SharedVec<u8> = SharedVec::new(2, 4, 7);
        v.write_raw(2, 9);
        assert_eq!(v.snapshot(), vec![7, 7, 9, 7]);
        assert_eq!(v.read_raw(2), 9);
    }
}
