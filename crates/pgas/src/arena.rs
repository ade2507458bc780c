//! Per-rank shared heaps (the emulated `upc_alloc`).
//!
//! Octree cells in the paper are allocated with `upc_alloc`, which places the
//! allocation in the *calling* thread's shared segment and returns a
//! pointer-to-shared.  [`SharedArena`] models exactly that: each rank has a
//! growable region; [`SharedArena::alloc`] appends to the caller's region and
//! returns a [`GlobalPtr`]; any rank may then read or write through the
//! pointer, paying local or remote cost according to affinity.
//!
//! A region is an append-only table of doubling chunks, so dereferencing a
//! pointer costs one length check, one bit scan and the element's own slot
//! lock — no lock on the region, whoever else is allocating into it.  The
//! literal translation's field-by-field accesses go through
//! [`SharedArena::read_fields`] / [`SharedArena::write_fields`], which bill
//! every field in one bill and move the element once.
//!
//! A phase that only reads the arena — the fine-grained force walk — reads
//! a [`Frozen`] view instead ([`SharedArena::frozen`]): one immutable copy
//! of each region per barrier epoch, made by the first rank that asks and
//! shared by the others, through which a read is *billed* exactly as
//! [`SharedArena::read_fields`] bills it but *fetched* as a plain reference,
//! without the slot lock or the copy.  An alloc, write or clear of a region
//! frozen for the writer's epoch panics, so a view is never silently stale.
//!
//! The arena also carries the non-blocking aggregated gather
//! (`bupc_memget_vlist_async`, §5.5) because the paper uses it to fetch cells.
//!
//! Every billed access moves one *record* of a size fixed when the arena is
//! built: `size_of::<T>()` by default ([`SharedArena::new`]), or an explicit
//! size ([`SharedArena::with_record_bytes`]) when the element stands for a
//! record the model lays out differently from its host type.  The same size
//! prices [`SharedArena::peak_bytes`], the most elements the arena held at
//! once — sampled at each [`SharedArena::clear`], since regions only grow
//! between clears, so allocation itself touches no shared counter.

use crate::ctx::{Ctx, Dir, Handle};
use crate::gptr::GlobalPtr;
use crate::machine::Price;
use crate::sync_cell::SyncSlot;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Slots in a region's first chunk; chunk `c` holds `FIRST_CHUNK << c`.
const FIRST_CHUNK: usize = 64;
/// Enough doubling chunks that every `usize` index has one.
const CHUNKS: usize = (usize::BITS - FIRST_CHUNK.ilog2()) as usize;

/// Chunk number and offset within it of element `index`: chunk `c` covers
/// `FIRST_CHUNK * (2^c - 1) ..  FIRST_CHUNK * (2^(c+1) - 1)`, so the chunk is
/// the position of the top bit of `index + FIRST_CHUNK` — no division.
#[inline]
fn locate(index: usize) -> (usize, usize) {
    let biased = index + FIRST_CHUNK;
    let chunk = (biased.ilog2() - FIRST_CHUNK.ilog2()) as usize;
    (chunk, biased - (FIRST_CHUNK << chunk))
}

/// One rank's region of the arena: an append-only table of doubling chunks.
///
/// A chunk, once allocated, never moves and is never freed, so an element
/// access takes no lock on the table: it checks the index against the
/// published length, finds the chunk with a bit scan and locks only the
/// element's own slot.  Growth and [`Region::clear`] serialize on `grow`;
/// `clear` resets the length and keeps the chunks, so the next step's tree
/// overwrites the same slots.
struct Region<T> {
    chunks: [OnceLock<Box<[SyncSlot<T>]>>; CHUNKS],
    /// Published length: stored with `Release` after the new element's slot
    /// is written, loaded with `Acquire` by every access, so an index below
    /// it always names an allocated chunk and an initialized slot.
    len: AtomicUsize,
    grow: Mutex<()>,
    /// The region's immutable copy and the epoch it was made in (see
    /// [`SharedArena::frozen`]); the next epoch's first request replaces it.
    frozen: Mutex<Option<(u64, Arc<[T]>)>>,
    /// The epoch of `frozen`'s copy, [`NOT_FROZEN`] when there is none:
    /// what a write checks, without taking the mutex.  `Relaxed`: it
    /// publishes no data (the copy itself is handed over under `frozen`'s
    /// mutex) and only guards against a write in the copy's epoch.
    frozen_at: AtomicU64,
}

/// [`Region::frozen_at`] of a region without a copy.
const NOT_FROZEN: u64 = u64::MAX;

impl<T: Copy> Region<T> {
    fn new() -> Self {
        Region {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            grow: Mutex::new(()),
            frozen: Mutex::new(None),
            frozen_at: AtomicU64::new(NOT_FROZEN),
        }
    }

    fn push(&self, value: T) -> usize {
        let _growing = self.grow.lock();
        let index = self.len.load(Ordering::Relaxed);
        let (chunk, offset) = locate(index);
        // A fresh chunk is filled with copies of the element that opened it
        // (`T` has no default); every later push overwrites its own slot.
        let slots = self.chunks[chunk]
            .get_or_init(|| (0..FIRST_CHUNK << chunk).map(|_| SyncSlot::new(value)).collect());
        slots[offset].set(value);
        self.len.store(index + 1, Ordering::Release);
        index
    }

    /// The slot of element `index`.
    ///
    /// # Panics
    /// Panics if `index` is at or beyond the published length (a pointer
    /// into a region that was cleared since, or never allocated).
    #[inline]
    fn slot(&self, index: usize) -> &SyncSlot<T> {
        let len = self.len.load(Ordering::Acquire);
        assert!(index < len, "pointer-to-shared index {index} out of a region of {len} elements");
        let (chunk, offset) = locate(index);
        &self.chunks[chunk].get().expect("a chunk below the published length is allocated")[offset]
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn clear(&self) {
        let _growing = self.grow.lock();
        self.len.store(0, Ordering::Release);
        // Whatever copy is left belongs to an earlier epoch: drop it with the
        // tree it copied.
        *self.frozen.lock() = None;
        self.frozen_at.store(NOT_FROZEN, Ordering::Relaxed);
    }

    /// The region's copy for `epoch`, made from the slots on the first
    /// request of the epoch and shared by every later one.
    fn frozen(&self, epoch: u64) -> Arc<[T]> {
        let mut copy = self.frozen.lock();
        if let Some((at, data)) = &*copy {
            if *at == epoch {
                return Arc::clone(data);
            }
        }
        let data: Arc<[T]> = (0..self.len()).map(|i| self.slot(i).get()).collect();
        *copy = Some((epoch, Arc::clone(&data)));
        self.frozen_at.store(epoch, Ordering::Relaxed);
        data
    }
}

/// A read-only view of a [`SharedArena`] for one barrier epoch: every
/// region's immutable copy ([`SharedArena::frozen`]).
pub struct Frozen<T> {
    regions: Vec<Arc<[T]>>,
    record_bytes: usize,
    epoch: u64,
}

impl<T> Frozen<T> {
    /// Reads an element field by field through its pointer-to-shared:
    /// bills exactly what [`SharedArena::read_fields`] bills and returns a
    /// reference into the epoch's copy — no lock, no copy.
    ///
    /// # Panics
    /// As [`Frozen::get`], and if `fields` is zero.
    #[inline]
    pub fn read_fields(&self, ctx: &Ctx, ptr: GlobalPtr, fields: u32) -> &T {
        assert!(fields > 0, "a read of zero fields has no value to return");
        let element = self.get(ctx, ptr);
        ctx.access(Dir::Get, ptr.threadof(), self.record_bytes, u64::from(fields));
        element
    }

    /// The element `ptr` addresses in the epoch's copy, unbilled: for a
    /// walk that counts its reads per owner and pays for them in one
    /// [`Frozen::pay_for_reads`].
    ///
    /// # Panics
    /// Panics if the pointer is null or addresses no element of the copy;
    /// in debug builds, if the view is read in an epoch other than the one
    /// it was taken in.
    #[inline]
    pub fn get(&self, ctx: &Ctx, ptr: GlobalPtr) -> &T {
        assert!(!ptr.is_null(), "dereference of a null pointer-to-shared");
        debug_assert_eq!(ctx.epoch(), self.epoch, "a frozen view read outside its epoch");
        let region = &self.regions[ptr.threadof()];
        let index = ptr.indexof();
        region.get(index).unwrap_or_else(|| {
            panic!("pointer-to-shared index {index} out of a region of {} elements", region.len())
        })
    }

    /// Bills `reads[owner]` reads of `fields` fields each of elements owned
    /// by every `owner`: exactly what that many [`Frozen::read_fields`]
    /// calls bill, since a bill only counts until the clock is next read.
    pub fn pay_for_reads(&self, ctx: &Ctx, reads: &[u64], fields: u32) {
        for (owner, &n) in reads.iter().enumerate() {
            if n > 0 {
                ctx.access(Dir::Get, owner, self.record_bytes, n * u64::from(fields));
            }
        }
    }
}

/// A partitioned shared heap: one growable region per rank.
pub struct SharedArena<T> {
    regions: Vec<Region<T>>,
    /// Bytes one element bills per access and counts in the footprint.
    record_bytes: usize,
    /// Largest [`SharedArena::total_len`] any [`SharedArena::clear`] saw.
    peak_len: AtomicUsize,
}

impl<T: Copy + Send + Sync> SharedArena<T> {
    /// Creates an arena with one empty region per rank, billing
    /// `size_of::<T>()` per element.
    pub fn new(ranks: usize) -> Self {
        Self::with_record_bytes(ranks, std::mem::size_of::<T>())
    }

    /// Creates an arena whose elements bill `record_bytes` each: the size of
    /// the record the element models, whatever its host layout.
    pub fn with_record_bytes(ranks: usize, record_bytes: usize) -> Self {
        assert!(ranks > 0, "SharedArena requires at least one rank");
        SharedArena {
            regions: (0..ranks).map(|_| Region::new()).collect(),
            record_bytes,
            peak_len: AtomicUsize::new(0),
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.regions.len()
    }

    /// Peak footprint since creation: the most elements held at once, times
    /// the record size.  A pure count, so it is deterministic wherever the
    /// allocations are.
    pub fn peak_bytes(&self) -> u64 {
        let peak = self.peak_len.load(Ordering::Relaxed).max(self.total_len());
        (peak * self.record_bytes) as u64
    }

    /// Number of elements currently allocated in `rank`'s region.
    pub fn len_of(&self, rank: usize) -> usize {
        self.regions[rank].len()
    }

    /// Total number of elements across all regions.
    pub fn total_len(&self) -> usize {
        self.regions.iter().map(|r| r.len()).sum()
    }

    /// Panics if `region` is frozen for the caller's epoch: a write there
    /// would leave the epoch's [`Frozen`] copy stale.
    #[inline]
    fn assert_unfrozen(&self, ctx: &Ctx, region: usize, what: &str) {
        let epoch = ctx.epoch();
        assert!(
            self.regions[region].frozen_at.load(Ordering::Relaxed) != epoch,
            "{what} in region {region}, which is frozen for epoch {epoch}"
        );
    }

    /// The arena as one immutable copy for the caller's barrier epoch
    /// ([`Ctx::epoch`]): the first rank that asks copies each region, every
    /// other rank in the epoch shares that copy, so a step holds one copy
    /// of the arena in total.  Takes no barrier and bills nothing; reads
    /// through the view bill what [`SharedArena::read_fields`] bills.
    ///
    /// Every rank must be done writing the arena for the epoch — an alloc,
    /// write or clear of a frozen region in the same epoch panics.
    pub fn frozen(&self, ctx: &Ctx) -> Frozen<T> {
        let epoch = ctx.epoch();
        let ranks = self.ranks();
        // Start at the caller's own region, so ranks that ask at once copy
        // different regions side by side; then rotate back into rank order.
        let mut regions: Vec<Arc<[T]>> =
            (0..ranks).map(|i| self.regions[(ctx.rank() + i) % ranks].frozen(epoch)).collect();
        regions.rotate_right(ctx.rank());
        Frozen { regions, record_bytes: self.record_bytes, epoch }
    }

    /// Allocates `value` in the calling rank's region (UPC `upc_alloc`) and
    /// returns a pointer-to-shared to it.
    pub fn alloc(&self, ctx: &Ctx, value: T) -> GlobalPtr {
        self.assert_unfrozen(ctx, ctx.rank(), "alloc");
        ctx.bill(Price::LocalAccess, 1);
        let index = self.regions[ctx.rank()].push(value);
        GlobalPtr::new(ctx.rank(), index)
    }

    /// Dereferences a pointer-to-shared (billed: remote transfer if the
    /// target is remote, otherwise the shared-pointer overhead of a local
    /// dereference).
    pub fn read(&self, ctx: &Ctx, ptr: GlobalPtr) -> T {
        self.read_fields(ctx, ptr, 1)
    }

    /// Reads an element the way the literal translation does, one field at
    /// a time through the pointer-to-shared: bills exactly what `fields`
    /// successive [`SharedArena::read`]s bill and copies the element out
    /// once.
    ///
    /// # Panics
    /// Panics if `fields` is zero or the pointer is null.
    pub fn read_fields(&self, ctx: &Ctx, ptr: GlobalPtr, fields: u32) -> T {
        assert!(!ptr.is_null(), "dereference of a null pointer-to-shared");
        assert!(fields > 0, "a read of zero fields has no value to return");
        let owner = ptr.threadof();
        // A local target still goes through the pointer-to-shared and pays
        // the dereference surcharge the paper's casting removes.
        ctx.access(Dir::Get, owner, self.record_bytes, u64::from(fields));
        self.regions[owner].slot(ptr.indexof()).get()
    }

    /// Reads through a pointer the caller has proven local and cast to a
    /// local pointer (§5.2/§5.3 casting): only a plain local access is
    /// charged.
    ///
    /// # Panics
    /// Panics in debug builds if the pointer is not local to the caller.
    pub fn read_local(&self, ctx: &Ctx, ptr: GlobalPtr) -> T {
        debug_assert!(ptr.is_local_to(ctx.rank()), "read_local through a remote pointer");
        ctx.bill(Price::LocalAccess, 1);
        self.regions[ptr.threadof()].slot(ptr.indexof()).get()
    }

    /// Writes through a pointer-to-shared.
    pub fn write(&self, ctx: &Ctx, ptr: GlobalPtr, value: T) {
        self.write_fields(ctx, ptr, value, 1);
    }

    /// Write counterpart of [`SharedArena::read_fields`]: bills `fields`
    /// successive [`SharedArena::write`]s and stores the element once.
    pub fn write_fields(&self, ctx: &Ctx, ptr: GlobalPtr, value: T, fields: u32) {
        assert!(!ptr.is_null(), "write through a null pointer-to-shared");
        assert!(fields > 0, "a write of zero fields would store without being billed");
        let owner = ptr.threadof();
        self.assert_unfrozen(ctx, owner, "write");
        ctx.access(Dir::Put, owner, self.record_bytes, u64::from(fields));
        self.regions[owner].slot(ptr.indexof()).set(value);
    }

    /// Local-pointer write counterpart of [`SharedArena::read_local`].
    pub fn write_local(&self, ctx: &Ctx, ptr: GlobalPtr, value: T) {
        debug_assert!(ptr.is_local_to(ctx.rank()), "write_local through a remote pointer");
        self.assert_unfrozen(ctx, ptr.threadof(), "write");
        ctx.bill(Price::LocalAccess, 1);
        self.regions[ptr.threadof()].slot(ptr.indexof()).set(value);
    }

    /// Atomic read-modify-write through a pointer-to-shared (used for the
    /// commutative centre-of-mass merges of §5.4: "the update of the center
    /// of mass is done atomically").
    pub fn update<R>(&self, ctx: &Ctx, ptr: GlobalPtr, f: impl FnOnce(&mut T) -> R) -> R {
        assert!(!ptr.is_null(), "update through a null pointer-to-shared");
        let owner = ptr.threadof();
        self.assert_unfrozen(ctx, owner, "update");
        // An atomic update is a round trip on the link (get + put), the
        // caller's own memory included.
        let bytes = self.record_bytes as u64;
        ctx.transfer(Dir::Get, owner, 1, bytes, 1);
        ctx.transfer(Dir::Put, owner, 1, bytes, 1);
        self.regions[owner].slot(ptr.indexof()).update(f)
    }

    /// Blocking aggregated gather of the listed elements
    /// (an `upc_memget`-per-source equivalent): one message per distinct
    /// source rank.
    pub fn get_vlist(&self, ctx: &Ctx, ptrs: &[GlobalPtr]) -> Vec<T> {
        let handle = self.get_vlist_async(ctx, ptrs);
        ctx.wait_sync(handle)
    }

    /// Non-blocking aggregated gather (the emulated
    /// `bupc_memget_vlist_async`, §5.5): issues one message per distinct
    /// source rank, charges only the CPU-side issue overhead now, and returns
    /// a [`Handle`] whose payload becomes available once the simulated clock
    /// reaches the transfer completion time ([`Ctx::wait_sync`] /
    /// [`Ctx::try_sync`]).
    pub fn get_vlist_async(&self, ctx: &Ctx, ptrs: &[GlobalPtr]) -> Handle<T> {
        let elem = self.record_bytes;
        let me = ctx.rank();

        // Group by source rank to count messages and bytes.
        let mut sources: Vec<(usize, usize)> = Vec::new();
        let mut remote_elements = 0u64;
        let mut remote_bytes = 0u64;
        for p in ptrs {
            assert!(!p.is_null(), "vlist gather of a null pointer");
            let owner = p.threadof();
            match sources.iter_mut().find(|(o, _)| *o == owner) {
                Some((_, bytes)) => *bytes += elem,
                None => sources.push((owner, elem)),
            }
            if owner != me {
                remote_elements += 1;
                remote_bytes += elem as u64;
            }
        }

        // CPU-side issue cost now; network completion later.
        ctx.bill(Price::SwOverhead, sources.len().max(1) as u64);
        // The §5.5 source statistic counts the *remote* threads a gather
        // touches; purely local gathers generate no communication and are
        // not counted as requests.
        let remote_sources = sources.iter().filter(|&&(o, _)| o != me).count();
        if remote_sources > 0 {
            ctx.record_vlist(remote_sources, remote_elements, remote_bytes);
        }
        let complete_at = ctx.now() + ctx.gather_cost(&sources);

        let data = ptrs.iter().map(|p| self.read_raw(*p)).collect();
        Handle { data, complete_at }
    }

    /// Clears every region.  Intended to be called by a single rank between
    /// time steps (with barriers around it), mirroring how the paper's code
    /// resets its cell arrays each step.
    pub fn clear(&self, ctx: &Ctx) {
        for region in 0..self.ranks() {
            self.assert_unfrozen(ctx, region, "clear");
        }
        ctx.bill(Price::LocalAccess, 1);
        self.peak_len.fetch_max(self.total_len(), Ordering::Relaxed);
        for region in &self.regions {
            region.clear();
        }
    }

    /// Unbilled read for drivers and tests.
    pub fn read_raw(&self, ptr: GlobalPtr) -> T {
        self.regions[ptr.threadof()].slot(ptr.indexof()).get()
    }

    /// Unbilled allocation into an explicit rank's region, for test setup and
    /// drivers only.
    pub fn alloc_raw(&self, rank: usize, value: T) -> GlobalPtr {
        GlobalPtr::new(rank, self.regions[rank].push(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::runtime::Runtime;

    #[test]
    fn alloc_has_affinity_to_caller() {
        let rt = Runtime::new(Machine::test_cluster(3));
        let arena: SharedArena<u64> = SharedArena::new(3);
        rt.run(|ctx| {
            let p = arena.alloc(ctx, ctx.rank() as u64 * 7);
            assert_eq!(p.threadof(), ctx.rank());
            assert_eq!(arena.read_local(ctx, p), ctx.rank() as u64 * 7);
        });
        assert_eq!(arena.total_len(), 3);
    }

    #[test]
    fn remote_read_costs_more_than_local() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let arena: SharedArena<u64> = SharedArena::new(2);
        let report = rt.run(|ctx| {
            let p = arena.alloc(ctx, ctx.rank() as u64);
            let all = ctx.allgather(p);
            let t0 = ctx.now();
            let _ = arena.read(ctx, all[ctx.rank()]); // local via shared ptr
            let local_cost = ctx.now() - t0;
            let t1 = ctx.now();
            let _ = arena.read(ctx, all[1 - ctx.rank()]); // remote
            let remote_cost = ctx.now() - t1;
            (local_cost, remote_cost)
        });
        for r in &report.ranks {
            let (local, remote) = r.result;
            assert!(remote > 10.0 * local, "remote={remote} local={local}");
        }
    }

    #[test]
    fn cast_local_read_is_cheaper_than_shared_ptr_read() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let arena: SharedArena<u64> = SharedArena::new(1);
        let report = rt.run(|ctx| {
            let p = arena.alloc(ctx, 5);
            let t0 = ctx.now();
            for _ in 0..1000 {
                let _ = arena.read(ctx, p);
            }
            let shared_cost = ctx.now() - t0;
            let t1 = ctx.now();
            for _ in 0..1000 {
                let _ = arena.read_local(ctx, p);
            }
            let local_cost = ctx.now() - t1;
            (shared_cost, local_cost)
        });
        let (shared, local) = report.ranks[0].result;
        assert!(shared > local, "shared-pointer deref {shared} must exceed cast-local {local}");
    }

    #[test]
    fn write_and_update_through_pointers() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let arena: SharedArena<u64> = SharedArena::new(2);
        rt.run(|ctx| {
            let p = if ctx.rank() == 0 { arena.alloc(ctx, 1) } else { GlobalPtr::NULL };
            let p = ctx.broadcast(0, p);
            ctx.barrier();
            // Both ranks add 10 atomically.
            arena.update(ctx, p, |v| *v += 10);
            ctx.barrier();
            assert_eq!(arena.read(ctx, p), 21);
            ctx.barrier();
            if ctx.rank() == 1 {
                arena.write(ctx, p, 100);
            }
            ctx.barrier();
            assert_eq!(arena.read(ctx, p), 100);
        });
    }

    #[test]
    fn vlist_async_counts_sources_and_hides_latency() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let arena: SharedArena<u64> = SharedArena::new(4);
        let report = rt.run(|ctx| {
            let mine = arena.alloc(ctx, ctx.rank() as u64 + 100);
            let all = ctx.allgather(mine);
            ctx.barrier();

            // Fetch every other rank's element with one aggregated request.
            let remote: Vec<GlobalPtr> =
                all.iter().copied().filter(|p| !p.is_local_to(ctx.rank())).collect();
            let t0 = ctx.now();
            let handle = arena.get_vlist_async(ctx, &remote);
            let issue_cost = ctx.now() - t0;
            // Overlap: do some compute while the gather is in flight.
            ctx.bill(Price::Interaction, 1000);
            let values = ctx.wait_sync(handle);
            let snapshot = ctx.stats_snapshot();
            (values, issue_cost, snapshot.vlist_requests, snapshot.vlist_single_source)
        });
        for (rank, r) in report.ranks.iter().enumerate() {
            let (values, issue_cost, requests, single) = &r.result;
            let expected: Vec<u64> =
                (0..4).filter(|&s| s != rank).map(|s| s as u64 + 100).collect();
            assert_eq!(values, &expected);
            // Issuing is far cheaper than a blocking remote latency.
            assert!(*issue_cost < 1e-5);
            assert_eq!(*requests, 1);
            assert_eq!(*single, 0, "three distinct sources -> not single-source");
        }
    }

    #[test]
    fn vlist_single_source_statistic() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let arena: SharedArena<u64> = SharedArena::new(2);
        let report = rt.run(|ctx| {
            let mine: Vec<GlobalPtr> = (0..4).map(|i| arena.alloc(ctx, i)).collect();
            let all = ctx.allgather(mine);
            ctx.barrier();
            let other = &all[1 - ctx.rank()];
            let _ = arena.get_vlist(ctx, other);
            ctx.stats_snapshot().vlist_single_source_fraction()
        });
        assert!(report.ranks.iter().all(|r| r.result == Some(1.0)));
    }

    #[test]
    fn clear_resets_regions() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let arena: SharedArena<u32> = SharedArena::new(2);
        rt.run(|ctx| {
            arena.alloc(ctx, 1);
            ctx.barrier();
            if ctx.rank() == 0 {
                arena.clear(ctx);
            }
            ctx.barrier();
            assert_eq!(arena.len_of(ctx.rank()), 0);
        });
        assert_eq!(arena.total_len(), 0);
    }

    #[test]
    fn chunks_double_and_tile_the_index_space() {
        let mut next = 0;
        for chunk in 0..12 {
            assert_eq!(locate(next), (chunk, 0));
            next += FIRST_CHUNK << chunk;
            assert_eq!(locate(next - 1), (chunk, (FIRST_CHUNK << chunk) - 1));
        }
        assert_eq!(locate(usize::MAX - FIRST_CHUNK).0, CHUNKS - 1);
    }

    /// A record size unlike the host element's 40 bytes, so a test can tell
    /// which of the two an access billed.
    const RECORD: usize = 24;

    /// What one rank's clock and counters show after `access` ran against
    /// its own element and then against its neighbour's, in an arena billing
    /// `record_bytes` per element.
    fn local_then_remote(
        record_bytes: usize,
        access: impl Fn(&Ctx, &SharedArena<[u64; 5]>, GlobalPtr) + Sync,
    ) -> Vec<(u64, crate::RankStats, [u64; 5])> {
        let rt = Runtime::new(Machine::power5(2, 2, true));
        let arena: SharedArena<[u64; 5]> = SharedArena::with_record_bytes(4, record_bytes);
        let report = rt.run(|ctx| {
            let all = ctx.allgather(arena.alloc(ctx, [ctx.rank() as u64; 5]));
            ctx.barrier();
            access(ctx, &arena, all[ctx.rank()]);
            ctx.barrier();
            let neighbour = all[(ctx.rank() + 1) % 4];
            access(ctx, &arena, neighbour);
            ctx.barrier();
            (ctx.now().to_bits(), ctx.stats_snapshot(), arena.read_raw(neighbour))
        });
        report.ranks.into_iter().map(|r| r.result).collect()
    }

    #[test]
    fn read_fields_bills_what_successive_reads_bill() {
        for record in [std::mem::size_of::<[u64; 5]>(), RECORD] {
            for fields in [1, 3, 5] {
                let one_by_one = local_then_remote(record, |ctx, arena, ptr| {
                    for _ in 0..fields {
                        arena.read(ctx, ptr);
                    }
                });
                let at_once = local_then_remote(record, |ctx, arena, ptr| {
                    arena.read_fields(ctx, ptr, fields);
                });
                assert_eq!(one_by_one, at_once, "{record} B record, {fields} field(s)");
                assert_eq!(at_once[0].1.remote_gets, fields as u64);
                assert_eq!(at_once[0].1.bytes_in, (fields as usize * record) as u64);
            }
        }
    }

    #[test]
    fn write_fields_bills_what_successive_writes_bill() {
        for record in [std::mem::size_of::<[u64; 5]>(), RECORD] {
            for fields in [1, 3, 5] {
                let one_by_one = local_then_remote(record, |ctx, arena, ptr| {
                    for _ in 0..fields {
                        arena.write(ctx, ptr, [7 + ctx.rank() as u64; 5]);
                    }
                });
                let at_once = local_then_remote(record, |ctx, arena, ptr| {
                    arena.write_fields(ctx, ptr, [7 + ctx.rank() as u64; 5], fields);
                });
                assert_eq!(one_by_one, at_once, "{record} B record, {fields} field(s)");
                assert_eq!(at_once[0].1.remote_puts, fields as u64);
                assert_eq!(at_once[0].1.bytes_out, (fields as usize * record) as u64);
                assert_eq!(at_once[0].2, [7; 5], "the neighbour's element holds rank 0's write");
            }
        }
    }

    #[test]
    fn a_frozen_read_returns_the_element_and_bills_what_read_fields_bills() {
        for record in [std::mem::size_of::<[u64; 5]>(), RECORD] {
            for fields in [1, 3, 5] {
                let through_slots = local_then_remote(record, |ctx, arena, ptr| {
                    arena.read_fields(ctx, ptr, fields);
                });
                let through_view = local_then_remote(record, |ctx, arena, ptr| {
                    let view = arena.frozen(ctx);
                    assert_eq!(*view.read_fields(ctx, ptr, fields), arena.read_raw(ptr));
                });
                assert_eq!(through_slots, through_view, "{record} B record, {fields} field(s)");
            }
        }
    }

    #[test]
    fn frozen_reads_paid_in_one_batch_bill_what_each_read_bills() {
        for record in [std::mem::size_of::<[u64; 5]>(), RECORD] {
            for fields in [1, 3, 5] {
                let each = local_then_remote(record, |ctx, arena, ptr| {
                    let view = arena.frozen(ctx);
                    for _ in 0..4 {
                        view.read_fields(ctx, ptr, fields);
                    }
                });
                let batched = local_then_remote(record, |ctx, arena, ptr| {
                    let view = arena.frozen(ctx);
                    let mut reads = vec![0u64; ctx.ranks()];
                    for _ in 0..4 {
                        assert_eq!(*view.get(ctx, ptr), arena.read_raw(ptr));
                        reads[ptr.threadof()] += 1;
                    }
                    view.pay_for_reads(ctx, &reads, fields);
                });
                assert_eq!(each, batched, "{record} B record, {fields} field(s)");
            }
        }
    }

    #[test]
    fn ranks_in_one_epoch_share_one_copy_and_the_next_epoch_sees_new_writes() {
        let rt = Runtime::new(Machine::test_cluster(3));
        let arena: SharedArena<u64> = SharedArena::new(3);
        let report = rt.run(|ctx| {
            let mine = arena.alloc(ctx, ctx.rank() as u64);
            let all = ctx.allgather(mine);
            let first = arena.frozen(ctx);
            let again = arena.frozen(ctx);
            assert!(first.regions.iter().zip(&again.regions).all(|(a, b)| Arc::ptr_eq(a, b)));
            ctx.barrier();
            // A new epoch may write again, and its view holds the write.
            arena.write_local(ctx, mine, 10 + ctx.rank() as u64);
            ctx.barrier();
            let next = arena.frozen(ctx);
            let seen: Vec<u64> = all.iter().map(|&p| *next.read_fields(ctx, p, 1)).collect();
            assert_eq!(seen, [10, 11, 12]);
            (first.regions, next.regions)
        });
        let (first, next) = &report.ranks[0].result;
        for other in &report.ranks[1..] {
            for (region, copy) in first.iter().enumerate() {
                assert!(Arc::ptr_eq(copy, &other.result.0[region]), "region {region}");
                assert!(Arc::ptr_eq(&next[region], &other.result.1[region]), "region {region}");
            }
        }
        assert!(!Arc::ptr_eq(&first[0], &next[0]), "each epoch makes its own copy");
        assert_eq!(*first[1], [1]);
    }

    #[test]
    #[should_panic(expected = "write in region 0, which is frozen for epoch 1")]
    fn a_write_into_a_frozen_region_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let arena: SharedArena<u8> = SharedArena::new(1);
        rt.run(|ctx| {
            let p = arena.alloc(ctx, 1);
            ctx.barrier();
            let _view = arena.frozen(ctx);
            arena.write(ctx, p, 2);
        });
    }

    #[test]
    #[should_panic(expected = "alloc in region 0, which is frozen for epoch 0")]
    fn an_alloc_into_a_frozen_region_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let arena: SharedArena<u8> = SharedArena::new(1);
        rt.run(|ctx| {
            drop(arena.frozen(ctx));
            arena.alloc(ctx, 1);
        });
    }

    #[test]
    #[should_panic(expected = "clear in region 0, which is frozen for epoch 0")]
    fn a_clear_of_a_frozen_arena_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let arena: SharedArena<u8> = SharedArena::new(1);
        rt.run(|ctx| {
            arena.alloc(ctx, 1);
            drop(arena.frozen(ctx));
            arena.clear(ctx);
        });
    }

    #[test]
    fn vlist_bills_the_record_size() {
        let arena: SharedArena<[u64; 5]> = SharedArena::with_record_bytes(2, RECORD);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let mine: Vec<GlobalPtr> =
                (0..4).map(|i| arena.alloc(ctx, [10 * ctx.rank() as u64 + i; 5])).collect();
            ctx.barrier();
            if ctx.rank() == 0 {
                // Two local, three remote elements in one aggregated gather.
                let ptrs = [
                    mine[0],
                    GlobalPtr::new(1, 0),
                    GlobalPtr::new(1, 1),
                    mine[1],
                    GlobalPtr::new(1, 2),
                ];
                let firsts: Vec<u64> = arena.get_vlist(ctx, &ptrs).iter().map(|v| v[0]).collect();
                assert_eq!(firsts, [0, 10, 11, 1, 12]);
            }
            ctx.stats_snapshot()
        });
        let stats = &report.ranks[0].result;
        assert_eq!(stats.vlist_requests, 1);
        assert_eq!(stats.remote_gets, 3);
        assert_eq!(stats.bytes_in, 3 * RECORD as u64);
    }

    #[test]
    fn update_is_a_round_trip_of_one_record() {
        let arena: SharedArena<[u64; 5]> = SharedArena::with_record_bytes(2, RECORD);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let p = ctx.broadcast(
                0,
                if ctx.rank() == 0 { arena.alloc(ctx, [3; 5]) } else { GlobalPtr::NULL },
            );
            ctx.barrier();
            let before = ctx.stats_snapshot();
            let old = if ctx.rank() == 1 {
                arena.update(ctx, p, |v| std::mem::replace(&mut v[0], 4))
            } else {
                0
            };
            let after = ctx.stats_snapshot();
            (
                old,
                after.remote_gets - before.remote_gets,
                after.remote_puts - before.remote_puts,
                after.bytes_in - before.bytes_in,
                after.bytes_out - before.bytes_out,
            )
        });
        let record = RECORD as u64;
        assert_eq!(report.ranks[1].result, (3, 1, 1, record, record));
        assert_eq!(arena.read_raw(GlobalPtr::new(0, 0))[0], 4);
    }

    #[test]
    fn the_peak_survives_clear_and_never_shrinks() {
        let arena: SharedArena<[u64; 5]> = SharedArena::with_record_bytes(2, RECORD);
        assert_eq!(arena.peak_bytes(), 0);
        let rt = Runtime::new(Machine::test_cluster(2));
        rt.run(|ctx| {
            let record = RECORD as u64;
            for _ in 0..5 {
                arena.alloc(ctx, [0; 5]);
            }
            ctx.barrier();
            assert_eq!(arena.peak_bytes(), 10 * record, "live elements count before any clear");
            ctx.barrier();
            if ctx.rank() == 0 {
                arena.clear(ctx);
            }
            ctx.barrier();
            assert_eq!(arena.len_of(ctx.rank()), 0);
            // A smaller second generation leaves the peak where it was.
            arena.alloc(ctx, [0; 5]);
            ctx.barrier();
            assert_eq!(arena.peak_bytes(), 10 * record);
            ctx.barrier();
            if ctx.rank() == 0 {
                arena.clear(ctx);
            }
            ctx.barrier();
            // A larger one raises it, without a clear to sample it.
            for _ in 0..7 {
                arena.alloc(ctx, [0; 5]);
            }
            ctx.barrier();
            assert_eq!(arena.peak_bytes(), 14 * record);
        });
    }

    #[test]
    fn regions_grow_across_chunks_under_concurrent_reads_and_survive_clear() {
        const RANKS: usize = 4;
        const BATCH: u64 = 500;
        const BATCHES: u64 = 11;
        let value = |rank: usize, seq: u64| ((rank as u64) << 32) | seq;
        let rt = Runtime::new(Machine::test_cluster(RANKS));
        let arena: SharedArena<u64> = SharedArena::new(RANKS);
        rt.run(|ctx| {
            let me = ctx.rank();
            // Every batch is allocated while the previous batch of every
            // other rank — published through the allgather — is read back.
            let mut published: Vec<Vec<GlobalPtr>> = vec![Vec::new(); RANKS];
            for batch in 0..BATCHES {
                let mut mine = Vec::with_capacity(BATCH as usize);
                for i in 0..BATCH {
                    let seq = batch * BATCH + i;
                    mine.push(arena.alloc(ctx, value(me, seq)));
                    for (owner, ptrs) in published.iter().enumerate() {
                        if let Some(&ptr) = ptrs.get(i as usize) {
                            assert_eq!(arena.read(ctx, ptr), value(owner, seq - BATCH));
                        }
                    }
                }
                published = ctx.allgather(mine);
            }
            assert_eq!(arena.len_of(me), (BATCH * BATCHES) as usize);
            assert!(locate(arena.len_of(me) - 1).0 >= 6, "the test must cross several chunks");

            ctx.barrier();
            if me == 0 {
                arena.clear(ctx);
            }
            ctx.barrier();
            assert_eq!(arena.len_of(me), 0);

            // The cleared region hands out the same indices over the same
            // chunks, and they hold the new values.
            let mine: Vec<GlobalPtr> =
                (0..100).map(|i| arena.alloc(ctx, value(me, 9000 + i))).collect();
            assert_eq!(mine[0], GlobalPtr::new(me, 0));
            for (owner, ptrs) in ctx.allgather(mine).iter().enumerate() {
                for (i, &ptr) in ptrs.iter().enumerate() {
                    assert_eq!(arena.read(ctx, ptr), value(owner, 9000 + i as u64));
                }
            }
        });
    }

    #[test]
    fn alloc_raw_into_a_foreign_region_races_its_owner_safely() {
        const EACH: u64 = 2000;
        let rt = Runtime::new(Machine::test_cluster(2));
        let arena: SharedArena<u64> = SharedArena::new(2);
        let report = rt.run(|ctx| {
            ctx.barrier();
            // Both ranks append to rank 0's region at once.
            let base = ctx.rank() as u64 * EACH;
            (0..EACH)
                .map(|i| {
                    if ctx.rank() == 0 {
                        arena.alloc(ctx, base + i)
                    } else {
                        arena.alloc_raw(0, base + i)
                    }
                })
                .collect::<Vec<GlobalPtr>>()
        });
        assert_eq!(arena.len_of(0), 2 * EACH as usize);
        assert_eq!(arena.len_of(1), 0);
        let mut seen = vec![false; 2 * EACH as usize];
        for r in &report.ranks {
            for (i, &ptr) in r.result.iter().enumerate() {
                assert_eq!(ptr.threadof(), 0);
                assert_eq!(arena.read_raw(ptr), r.rank as u64 * EACH + i as u64);
                assert!(
                    !std::mem::replace(&mut seen[ptr.indexof()], true),
                    "index handed out twice"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of a region of 0 elements")]
    fn a_pointer_that_outlived_clear_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let arena: SharedArena<u8> = SharedArena::new(1);
        rt.run(|ctx| {
            let stale = arena.alloc(ctx, 1);
            arena.clear(ctx);
            let _ = arena.read(ctx, stale);
        });
    }

    #[test]
    #[should_panic(expected = "null pointer")]
    fn null_deref_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let arena: SharedArena<u8> = SharedArena::new(1);
        rt.run(|ctx| {
            let _ = arena.read(ctx, GlobalPtr::NULL);
        });
    }
}
