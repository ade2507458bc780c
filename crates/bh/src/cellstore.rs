//! The shared cell heap behind the distributed octree, in one of two
//! layouts.
//!
//! The **fat** layout is the historical one: a [`pgas::SharedArena`] of
//! whole [`CellNode`] records (one AoS struct per node, ~152 bytes), with
//! the arena's exact billing.  Every insertion-build configuration uses it,
//! so those paths stay bit-for-bit identical to the pre-`CellStore` solver.
//!
//! The **compact** layout backs the sorted build
//! ([`crate::config::TreeBuild::Sorted`]): per-rank SoA regions — kid
//! handles, centre of mass, mass, cube geometry and metadata in separate
//! column arrays — addressed through 32-bit node handles (`thread << 24 |
//! index`) instead of fat pointers-to-shared.  A node costs
//! [`COMPACT_NODE_BYTES`] (120) instead of `size_of::<CellNode>()` (152),
//! the smaller record is what remote transfers bill, and
//! [`CellStore::clear`] keeps the column capacity so a rebuild rewrites the
//! arena densely from index 0 (compaction on rebuild).
//!
//! Both layouts expose the same surface as [`pgas::SharedArena`], so tree
//! build, force walks, caches, group lists and the persistent-tree
//! lifecycle are layout-agnostic; [`CellStore::peak_bytes`] reports the
//! peak arena footprint as the deterministic `tree_bytes` bench metric.

use crate::cellnode::{CellNode, NodeKind};
use crate::config::TreeBuild;
use nbody::Vec3;
use pgas::{Ctx, GlobalPtr, Handle, SharedArena};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Stored size of one node in the compact SoA layout: the sum of one row of
/// every column (kid handles + centre of mass + mass + cube + metadata).
pub const COMPACT_NODE_BYTES: usize = std::mem::size_of::<[u32; 8]>()
    + std::mem::size_of::<Vec3>()
    + std::mem::size_of::<f64>()
    + std::mem::size_of::<Cube>()
    + std::mem::size_of::<Meta>();

/// Null compact kid handle (no child).
const NIL: u32 = u32::MAX;

/// Cube geometry column entry: cell centre and half side.
#[derive(Clone, Copy)]
struct Cube {
    center: Vec3,
    half: f64,
}

/// Metadata column entry: the non-geometric scalar fields of a node.
#[derive(Clone, Copy)]
struct Meta {
    cost: u64,
    nbodies: u32,
    body_id: u32,
    kind: NodeKind,
    done: bool,
}

/// Number of ranks a compact handle can address: the rank occupies the top
/// 8 bits and the all-ones pattern is reserved for the null handle, so ranks
/// `0..COMPACT_MAX_RANKS`.  The upc capability row
/// ([`crate::backend::CAPS`]) rejects larger machines up front; `pack`
/// asserts the same bound.
pub const COMPACT_MAX_RANKS: usize = 0xFF;

/// Packs a child pointer into a 32-bit handle.
fn pack(ptr: GlobalPtr) -> u32 {
    if ptr.is_null() {
        return NIL;
    }
    let (thread, index) = (ptr.threadof(), ptr.indexof());
    assert!(thread < COMPACT_MAX_RANKS, "compact handle: rank {thread} out of the 8-bit range");
    assert!(index < 0x00FF_FFFF, "compact handle: index {index} out of the 24-bit range");
    ((thread as u32) << 24) | index as u32
}

/// Unpacks a 32-bit handle back into a pointer.
fn unpack(handle: u32) -> GlobalPtr {
    if handle == NIL {
        GlobalPtr::NULL
    } else {
        GlobalPtr::new((handle >> 24) as usize, (handle & 0x00FF_FFFF) as usize)
    }
}

/// One rank's compact SoA region.
#[derive(Default)]
struct Columns {
    kids: Vec<[u32; 8]>,
    cofm: Vec<Vec3>,
    mass: Vec<f64>,
    cube: Vec<Cube>,
    meta: Vec<Meta>,
}

impl Columns {
    fn len(&self) -> usize {
        self.meta.len()
    }

    fn push(&mut self, node: CellNode) -> usize {
        self.kids.push(node.children.map(pack));
        self.cofm.push(node.cofm);
        self.mass.push(node.mass);
        self.cube.push(Cube { center: node.center, half: node.half });
        self.meta.push(Meta {
            cost: node.cost,
            nbodies: node.nbodies,
            body_id: node.body_id,
            kind: node.kind,
            done: node.done,
        });
        self.meta.len() - 1
    }

    fn get(&self, index: usize) -> CellNode {
        let meta = self.meta[index];
        let cube = self.cube[index];
        CellNode {
            kind: meta.kind,
            center: cube.center,
            half: cube.half,
            mass: self.mass[index],
            cofm: self.cofm[index],
            cost: meta.cost,
            nbodies: meta.nbodies,
            children: self.kids[index].map(unpack),
            body_id: meta.body_id,
            done: meta.done,
        }
    }

    fn set(&mut self, index: usize, node: CellNode) {
        self.kids[index] = node.children.map(pack);
        self.cofm[index] = node.cofm;
        self.mass[index] = node.mass;
        self.cube[index] = Cube { center: node.center, half: node.half };
        self.meta[index] = Meta {
            cost: node.cost,
            nbodies: node.nbodies,
            body_id: node.body_id,
            kind: node.kind,
            done: node.done,
        };
    }

    fn clear(&mut self) {
        // Vec::clear keeps the capacity: the next build rewrites the columns
        // densely from index 0 over the same allocation.
        self.kids.clear();
        self.cofm.clear();
        self.mass.clear();
        self.cube.clear();
        self.meta.clear();
    }
}

enum Repr {
    Fat(SharedArena<CellNode>),
    Compact(Vec<RwLock<Columns>>),
}

/// The cell heap of one run: fat arena or compact SoA regions, chosen by
/// the configured [`TreeBuild`], with peak-footprint accounting.
pub struct CellStore {
    repr: Repr,
    current_bytes: AtomicU64,
    peak_bytes: AtomicU64,
}

impl CellStore {
    /// Creates the store with one empty region per rank, in the layout the
    /// build algorithm calls for: the sorted build writes the compact SoA
    /// arena, insertion keeps the fat arena (and its exact billing).
    pub fn new(ranks: usize, build: TreeBuild) -> CellStore {
        assert!(ranks > 0, "CellStore requires at least one rank");
        CellStore {
            repr: match build {
                TreeBuild::Insertion => Repr::Fat(SharedArena::new(ranks)),
                TreeBuild::Sorted => {
                    Repr::Compact((0..ranks).map(|_| RwLock::new(Columns::default())).collect())
                }
            },
            current_bytes: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }

    /// Stored size of one node in the active layout.
    pub fn node_bytes(&self) -> usize {
        match &self.repr {
            Repr::Fat(_) => std::mem::size_of::<CellNode>(),
            Repr::Compact(_) => COMPACT_NODE_BYTES,
        }
    }

    /// Peak arena footprint (bytes) since creation — allocated nodes times
    /// their stored size, maximized over the run.  Deterministic: a pure
    /// count, no host addresses involved.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(Ordering::Relaxed)
    }

    fn account_alloc(&self) {
        let bytes = self.node_bytes() as u64;
        let now = self.current_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes.fetch_max(now, Ordering::Relaxed);
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        match &self.repr {
            Repr::Fat(arena) => arena.ranks(),
            Repr::Compact(regions) => regions.len(),
        }
    }

    /// Number of nodes currently allocated in `rank`'s region.
    pub fn len_of(&self, rank: usize) -> usize {
        match &self.repr {
            Repr::Fat(arena) => arena.len_of(rank),
            Repr::Compact(regions) => regions[rank].read().unwrap().len(),
        }
    }

    /// Total number of nodes across all regions.
    pub fn total_len(&self) -> usize {
        match &self.repr {
            Repr::Fat(arena) => arena.total_len(),
            Repr::Compact(regions) => regions.iter().map(|r| r.read().unwrap().len()).sum(),
        }
    }

    /// Allocates `value` in the calling rank's region (UPC `upc_alloc`) and
    /// returns a pointer-to-shared to it.
    pub fn alloc(&self, ctx: &Ctx, value: CellNode) -> GlobalPtr {
        self.account_alloc();
        match &self.repr {
            Repr::Fat(arena) => arena.alloc(ctx, value),
            Repr::Compact(regions) => {
                ctx.charge_local_accesses(1);
                let index = regions[ctx.rank()].write().unwrap().push(value);
                let ptr = GlobalPtr::new(ctx.rank(), index);
                pack(ptr); // range-check the 32-bit handle at allocation time
                ptr
            }
        }
    }

    /// Dereferences a pointer-to-shared (billed like
    /// [`SharedArena::read`]; the compact layout moves its smaller record).
    pub fn read(&self, ctx: &Ctx, ptr: GlobalPtr) -> CellNode {
        self.read_fields(ctx, ptr, 1)
    }

    /// Reads a node field by field through its pointer-to-shared, as the
    /// literal translation does (mass, centre of mass, child pointers):
    /// `fields` reads are billed, the record is copied out once (see
    /// [`SharedArena::read_fields`]).
    pub fn read_fields(&self, ctx: &Ctx, ptr: GlobalPtr, fields: u32) -> CellNode {
        match &self.repr {
            Repr::Fat(arena) => arena.read_fields(ctx, ptr, fields),
            Repr::Compact(regions) => {
                assert!(!ptr.is_null(), "dereference of a null pointer-to-shared");
                assert!(fields > 0, "a read of zero fields has no value to return");
                let owner = ptr.threadof();
                for _ in 0..fields {
                    ctx.charge_shared_read(owner, COMPACT_NODE_BYTES);
                }
                regions[owner].read().unwrap().get(ptr.indexof())
            }
        }
    }

    /// Reads through a pointer the caller has proven local (§5.2/§5.3
    /// casting): only a plain local access is charged.
    pub fn read_local(&self, ctx: &Ctx, ptr: GlobalPtr) -> CellNode {
        match &self.repr {
            Repr::Fat(arena) => arena.read_local(ctx, ptr),
            Repr::Compact(regions) => {
                debug_assert!(ptr.is_local_to(ctx.rank()), "read_local through a remote pointer");
                ctx.charge_local_accesses(1);
                regions[ptr.threadof()].read().unwrap().get(ptr.indexof())
            }
        }
    }

    /// Writes through a pointer-to-shared.
    pub fn write(&self, ctx: &Ctx, ptr: GlobalPtr, value: CellNode) {
        self.write_fields(ctx, ptr, value, 1);
    }

    /// Write counterpart of [`CellStore::read_fields`]: `fields` writes are
    /// billed, the record is stored once.
    pub fn write_fields(&self, ctx: &Ctx, ptr: GlobalPtr, value: CellNode, fields: u32) {
        match &self.repr {
            Repr::Fat(arena) => arena.write_fields(ctx, ptr, value, fields),
            Repr::Compact(regions) => {
                assert!(!ptr.is_null(), "write through a null pointer-to-shared");
                assert!(fields > 0, "a write of zero fields would store without being billed");
                let owner = ptr.threadof();
                for _ in 0..fields {
                    ctx.charge_shared_write(owner, COMPACT_NODE_BYTES);
                }
                regions[owner].write().unwrap().set(ptr.indexof(), value);
            }
        }
    }

    /// Local-pointer write counterpart of [`CellStore::read_local`].
    pub fn write_local(&self, ctx: &Ctx, ptr: GlobalPtr, value: CellNode) {
        match &self.repr {
            Repr::Fat(arena) => arena.write_local(ctx, ptr, value),
            Repr::Compact(regions) => {
                debug_assert!(ptr.is_local_to(ctx.rank()), "write_local through a remote pointer");
                ctx.charge_local_accesses(1);
                regions[ptr.threadof()].write().unwrap().set(ptr.indexof(), value);
            }
        }
    }

    /// Atomic read-modify-write through a pointer-to-shared (billed as a
    /// round trip, like [`SharedArena::update`]).
    pub fn update<R>(&self, ctx: &Ctx, ptr: GlobalPtr, f: impl FnOnce(&mut CellNode) -> R) -> R {
        match &self.repr {
            Repr::Fat(arena) => arena.update(ctx, ptr, f),
            Repr::Compact(regions) => {
                assert!(!ptr.is_null(), "update through a null pointer-to-shared");
                let owner = ptr.threadof();
                ctx.charge_rmw(owner, COMPACT_NODE_BYTES);
                let mut region = regions[owner].write().unwrap();
                let index = ptr.indexof();
                let mut node = region.get(index);
                let out = f(&mut node);
                region.set(index, node);
                out
            }
        }
    }

    /// Blocking aggregated gather of the listed nodes.
    pub fn get_vlist(&self, ctx: &Ctx, ptrs: &[GlobalPtr]) -> Vec<CellNode> {
        let handle = self.get_vlist_async(ctx, ptrs);
        ctx.wait_sync(handle)
    }

    /// Non-blocking aggregated gather (the emulated
    /// `bupc_memget_vlist_async`, §5.5): one message per distinct source
    /// rank; the compact layout bills its smaller per-node transfer size.
    pub fn get_vlist_async(&self, ctx: &Ctx, ptrs: &[GlobalPtr]) -> Handle<CellNode> {
        match &self.repr {
            Repr::Fat(arena) => arena.get_vlist_async(ctx, ptrs),
            Repr::Compact(regions) => {
                let mut sources: Vec<(usize, usize, u64)> = Vec::new();
                let mut data = Vec::with_capacity(ptrs.len());
                for p in ptrs {
                    assert!(!p.is_null(), "vlist gather of a null pointer");
                    let owner = p.threadof();
                    match sources.iter_mut().find(|(o, _, _)| *o == owner) {
                        Some((_, bytes, elements)) => {
                            *bytes += COMPACT_NODE_BYTES;
                            *elements += 1;
                        }
                        None => sources.push((owner, COMPACT_NODE_BYTES, 1)),
                    }
                    data.push(regions[owner].read().unwrap().get(p.indexof()));
                }
                ctx.issue_vlist(data, &sources)
            }
        }
    }

    /// Clears all regions (the per-step tree teardown).  Column capacity is
    /// kept, so the next build compacts into the same allocation.
    pub fn clear(&self, ctx: &Ctx) {
        self.current_bytes.store(0, Ordering::Relaxed);
        match &self.repr {
            Repr::Fat(arena) => arena.clear(ctx),
            Repr::Compact(regions) => {
                ctx.charge_local_accesses(1);
                for region in regions {
                    region.write().unwrap().clear();
                }
            }
        }
    }

    /// Unbilled read for drivers and tests.
    pub fn read_raw(&self, ptr: GlobalPtr) -> CellNode {
        match &self.repr {
            Repr::Fat(arena) => arena.read_raw(ptr),
            Repr::Compact(regions) => regions[ptr.threadof()].read().unwrap().get(ptr.indexof()),
        }
    }

    /// Unbilled allocation into an explicit rank's region, for test setup
    /// and drivers only.
    pub fn alloc_raw(&self, rank: usize, value: CellNode) -> GlobalPtr {
        self.account_alloc();
        match &self.repr {
            Repr::Fat(arena) => arena.alloc_raw(rank, value),
            Repr::Compact(regions) => {
                let index = regions[rank].write().unwrap().push(value);
                GlobalPtr::new(rank, index)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pgas::{Machine, Runtime};

    fn sample_cell() -> CellNode {
        let mut cell = CellNode::new_cell(Vec3::new(0.5, -0.25, 1.0), 2.0);
        cell.children[3] = GlobalPtr::new(1, 42);
        cell.children[7] = GlobalPtr::new(0, 7);
        cell.mass = 3.5;
        cell.cofm = Vec3::new(0.1, 0.2, 0.3);
        cell.cost = 17;
        cell.nbodies = 4;
        cell
    }

    #[test]
    fn compact_nodes_are_smaller_than_fat_nodes() {
        assert!(
            COMPACT_NODE_BYTES < std::mem::size_of::<CellNode>(),
            "compact layout ({COMPACT_NODE_BYTES} B) must beat the fat node \
             ({} B)",
            std::mem::size_of::<CellNode>()
        );
    }

    #[test]
    fn handles_pack_and_unpack() {
        assert_eq!(pack(GlobalPtr::NULL), NIL);
        assert!(unpack(NIL).is_null());
        for (thread, index) in [(0usize, 0usize), (3, 12345), (254, 0x00FF_FFFE)] {
            let ptr = GlobalPtr::new(thread, index);
            assert_eq!(unpack(pack(ptr)), ptr);
        }
    }

    #[test]
    fn compact_round_trips_every_field() {
        let store = CellStore::new(2, TreeBuild::Sorted);
        let cell = sample_cell();
        let body = CellNode::new_body(9, Vec3::new(1.0, 2.0, 3.0), 0.5, 3);
        let rt = Runtime::new(Machine::test_cluster(2));
        rt.run(|ctx| {
            let p = store.alloc(ctx, if ctx.rank() == 0 { cell } else { body });
            ctx.barrier();
            let back = store.read(ctx, p);
            let want = if ctx.rank() == 0 { cell } else { body };
            assert_eq!(back.kind, want.kind);
            assert_eq!(back.center, want.center);
            assert_eq!(back.half, want.half);
            assert_eq!(back.mass, want.mass);
            assert_eq!(back.cofm, want.cofm);
            assert_eq!(back.cost, want.cost);
            assert_eq!(back.nbodies, want.nbodies);
            assert_eq!(back.children, want.children);
            assert_eq!(back.body_id, want.body_id);
            assert_eq!(back.done, want.done);
        });
    }

    #[test]
    fn both_layouts_account_peak_bytes_and_compact_on_clear() {
        for build in TreeBuild::ALL {
            let store = CellStore::new(1, build);
            assert_eq!(store.peak_bytes(), 0);
            let rt = Runtime::new(Machine::test_cluster(1));
            rt.run(|ctx| {
                for _ in 0..10 {
                    store.alloc(ctx, sample_cell());
                }
                let peak = store.peak_bytes();
                assert_eq!(peak, 10 * store.node_bytes() as u64);
                store.clear(ctx);
                assert_eq!(store.total_len(), 0);
                // The peak is monotonic across rebuilds; a smaller second
                // tree does not shrink it.
                for _ in 0..3 {
                    store.alloc(ctx, sample_cell());
                }
                assert_eq!(store.peak_bytes(), peak);
            });
        }
    }

    #[test]
    fn compact_remote_reads_bill_the_compact_size() {
        let store = CellStore::new(2, TreeBuild::Sorted);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let p = store.alloc(ctx, sample_cell());
            ctx.barrier();
            // Each rank reads the other's node.
            let other = GlobalPtr::new(1 - ctx.rank(), p.indexof());
            let before = ctx.stats_snapshot();
            let _ = store.read(ctx, other);
            let after = ctx.stats_snapshot();
            (after.remote_gets - before.remote_gets, after.bytes_in - before.bytes_in)
        });
        for r in &report.ranks {
            assert_eq!(r.result, (1, COMPACT_NODE_BYTES as u64));
        }
    }

    #[test]
    fn compact_vlist_bills_like_the_arena() {
        let store = CellStore::new(2, TreeBuild::Sorted);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let mut mine = Vec::new();
            for _ in 0..4 {
                mine.push(store.alloc(ctx, sample_cell()));
            }
            ctx.barrier();
            if ctx.rank() == 0 {
                // Two local, three remote nodes in one aggregated gather.
                let ptrs = [
                    mine[0],
                    GlobalPtr::new(1, 0),
                    GlobalPtr::new(1, 1),
                    mine[1],
                    GlobalPtr::new(1, 2),
                ];
                let nodes = store.get_vlist(ctx, &ptrs);
                assert_eq!(nodes.len(), 5);
            }
            ctx.stats_snapshot()
        });
        let stats = &report.ranks[0].result;
        assert_eq!(stats.vlist_requests, 1);
        assert_eq!(stats.remote_gets, 3);
        assert_eq!(stats.bytes_in, 3 * COMPACT_NODE_BYTES as u64);
    }

    /// What one rank's clock and counters show after `access` ran against
    /// its own node and then against the other rank's, in layout `build`.
    fn local_then_remote(
        build: TreeBuild,
        access: impl Fn(&Ctx, &CellStore, GlobalPtr) + Sync,
    ) -> Vec<(u64, pgas::RankStats, f64)> {
        let store = CellStore::new(2, build);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let all = ctx.allgather(store.alloc(ctx, sample_cell()));
            ctx.barrier();
            access(ctx, &store, all[ctx.rank()]);
            ctx.barrier();
            let other = all[1 - ctx.rank()];
            access(ctx, &store, other);
            ctx.barrier();
            (ctx.now().to_bits(), ctx.stats_snapshot(), store.read_raw(other).mass)
        });
        report.ranks.into_iter().map(|r| r.result).collect()
    }

    #[test]
    fn read_fields_and_write_fields_bill_what_successive_accesses_bill_in_both_layouts() {
        for build in TreeBuild::ALL {
            for fields in [1, 3, 5] {
                let reads = local_then_remote(build, |ctx, store, ptr| {
                    for _ in 0..fields {
                        store.read(ctx, ptr);
                    }
                });
                let read_at_once = local_then_remote(build, |ctx, store, ptr| {
                    store.read_fields(ctx, ptr, fields);
                });
                assert_eq!(reads, read_at_once, "{build:?}, {fields} field(s) read");
                assert_eq!(read_at_once[0].1.remote_gets, fields as u64);

                let heavier = |rank: usize| {
                    let mut cell = sample_cell();
                    cell.mass = 10.0 + rank as f64;
                    cell
                };
                let writes = local_then_remote(build, |ctx, store, ptr| {
                    for _ in 0..fields {
                        store.write(ctx, ptr, heavier(ctx.rank()));
                    }
                });
                let written_at_once = local_then_remote(build, |ctx, store, ptr| {
                    store.write_fields(ctx, ptr, heavier(ctx.rank()), fields);
                });
                assert_eq!(writes, written_at_once, "{build:?}, {fields} field(s) written");
                assert_eq!(written_at_once[0].1.remote_puts, fields as u64);
                assert_eq!(written_at_once[0].2, 10.0, "rank 0 wrote the other rank's node");
            }
        }
    }

    #[test]
    fn update_is_a_billed_round_trip() {
        let store = CellStore::new(1, TreeBuild::Sorted);
        let rt = Runtime::new(Machine::test_cluster(1));
        rt.run(|ctx| {
            let p = store.alloc(ctx, sample_cell());
            let old_mass = store.update(ctx, p, |node| {
                let m = node.mass;
                node.mass += 1.0;
                m
            });
            assert_eq!(old_mass, 3.5);
            assert_eq!(store.read_raw(p).mass, 4.5);
        });
    }
}
