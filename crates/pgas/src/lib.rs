//! # pgas — a UPC-style Partitioned Global Address Space emulator
//!
//! The paper this workspace reproduces ("Optimizing the Barnes-Hut Algorithm
//! in UPC", SC 2011) evaluates its optimizations on an IBM Power5 cluster
//! using the Berkeley UPC compiler and the GASNet/LAPI runtime.  None of that
//! is available here, so this crate provides the closest synthetic
//! equivalent: an **emulated PGAS runtime** whose API mirrors the UPC
//! features the paper's code relies on, layered over plain Rust threads and a
//! **deterministic communication cost model**.
//!
//! The key idea: algorithms built on this crate run *for real* (they compute
//! real forces over real shared data), but every access to shared data is
//! classified by affinity (local / same node / remote node) and charged to a
//! per-rank **simulated clock**.  Phase times reported by the `bh` crate are
//! simulated seconds, which makes the scaling experiments independent of how
//! many physical cores execute the emulation — exactly what is needed to
//! reproduce the *shape* of the paper's tables on a single host.
//!
//! ## Feature map (UPC → this crate)
//!
//! | UPC / Berkeley UPC                      | here |
//! |-----------------------------------------|------|
//! | `THREADS`, `MYTHREAD`                   | [`Ctx::ranks`], [`Ctx::rank`] |
//! | shared arrays (block-distributed)       | [`SharedVec`] |
//! | `upc_alloc` (per-thread shared heap)    | [`SharedArena`] (billing one record size per element: `size_of::<T>()`, or [`SharedArena::with_record_bytes`]) |
//! | pointer-to-shared                       | [`GlobalPtr`] |
//! | `p->f1; p->f2; …` (a struct read field by field through a pointer-to-shared) | [`SharedArena::read_fields`], [`SharedVec::read_fields`] (and `write_fields`), each one bill of `fields` accesses; [`Frozen::read_fields`] in a read-only phase |
//! | `upc_memget` / `upc_memput`             | [`SharedVec::get_block`] / [`SharedVec::put_block`] |
//! | `upc_memget_ilist`                      | [`SharedVec::get_ilist`] |
//! | `bupc_memget_vlist_async` + `waitsync`  | [`SharedArena::get_vlist_async`], [`Handle`] |
//! | `upc_lock_t`                            | [`GlobalLock`] |
//! | `upc_barrier`                           | [`Ctx::barrier`] |
//! | collectives (reduce, broadcast, …)      | [`Ctx::allreduce_sum`], [`Ctx::allreduce_vec_sum`], [`Ctx::broadcast`], [`Ctx::exchange`] |
//! | MPI-style two-sided messages (for the §9 comparator) | [`Ctx::send`], [`Ctx::recv`], [`Ctx::send_recv`] ([`msg`]) |
//! | MuPC-style software scalar caching (§8) | [`swcache::CachedScalar`] |
//!
//! ## Safety model
//!
//! Like UPC's relaxed shared accesses, [`SharedVec`] and [`SharedArena`] give
//! every rank read/write access to every element with no application-visible
//! locking.  The emulator forbids torn reads at the type level by only
//! exposing whole-value copies (`T: Copy`), but it is the application's
//! responsibility to avoid logically conflicting writes — which the
//! Barnes-Hut phases do by construction (owner-computes, phase-wise read-only
//! structures), exactly as argued in §7 of the paper.  Conflicting concurrent
//! writes are a bug in the application, not undefined behaviour visible to
//! safe callers: the crate contains no `unsafe`, and every element sits
//! behind its own reader-writer lock (`sync_cell`).
//!
//! That slot lock is the only lock on the fine-grained access path, and a
//! phase that only reads the cell arena skips it: [`SharedArena::frozen`]
//! hands every rank the same immutable copy for the barrier epoch, whose
//! reads are billed exactly like fetches ([`Frozen::read_fields`]).  A
//! [`SharedVec`] is a fixed array of slots; a [`SharedArena`] region is an
//! append-only table of power-of-two chunks (`OnceLock` each, never moved or
//! freed) whose length is published with `Release` after a new element is
//! written and read with `Acquire` before any dereference, so readers and
//! the allocating rank never meet on a lock; growth and `clear` serialize on
//! a small mutex, and `clear` resets the length and keeps the chunks.  A
//! pointer at or beyond the published length — one that outlived a `clear`
//! — panics.
//!
//! ## The ledger
//!
//! Every priced event is a count at one [`Price`] — one per [`Machine`]
//! constant but the compute factor — billed through [`Ctx::bill`]; a
//! transfer is a latency of its link plus `bytes` of the link's byte price,
//! looked up in a per-rank table of [`Machine::link`]s built once in
//! `Ctx::new`.  A rank's pending counts become time in one place, at every
//! read of its clock or ledgers: `price × count` per price, in
//! [`Price::ALL`] order, on the clock and on the price's [`Ledger`].  So a
//! rank's clock is always the sum of its compute, communication and
//! synchronization seconds, `k` bills of one event equal one bill of `k`
//! bit for bit, and doubling every price doubles every simulated second.
//! A local element read or written through a pointer-to-shared has one
//! price in every container: the dereference surcharge plus one local
//! access.

pub mod arena;
pub mod collectives;
pub mod ctx;
pub mod gptr;
pub mod lock;
pub mod machine;
pub mod msg;
pub mod phase;
pub mod runtime;
pub mod shared;
pub mod stats;
pub mod swcache;
mod sync_cell;

pub use arena::{Frozen, SharedArena};
pub use ctx::{Ctx, Handle};
pub use gptr::GlobalPtr;
pub use lock::GlobalLock;
pub use machine::{Ledger, Machine, Price};
pub use phase::PhaseTimer;
pub use runtime::{RankReport, RunReport, Runtime};
pub use shared::SharedVec;
pub use stats::RankStats;
