//! Internal storage slot used by the shared-memory containers.
//!
//! Every element of a [`crate::SharedVec`] or [`crate::SharedArena`] lives in
//! a `SyncSlot<T>`: a value behind a `parking_lot::RwLock`.  This keeps the
//! emulator entirely free of `unsafe` code — concurrent readers proceed in
//! parallel, and a logically racy write (an application bug under the UPC
//! relaxed model) degrades into a well-defined last-writer-wins outcome
//! instead of undefined behaviour.
//!
//! The slot lock is the lock a fine-grained access takes when it fetches
//! through a container: the containers above it find the slot without one
//! (`SharedVec` indexes a fixed array, `SharedArena` an append-only chunk
//! table, see [`crate::arena`]), and `read_fields`/`write_fields` take it
//! once per element however many field accesses they bill.  It stays
//! because dropping it means handing out `&T`/`*mut T` into memory another
//! rank thread may be writing, which safe Rust cannot express.  A phase in
//! which nobody writes does not take it at all: it reads the epoch's
//! immutable copy of the arena ([`crate::arena::Frozen`]), which is billed
//! like a fetch but needs neither the lock nor the copy out of the slot.
//!
//! The lock is an implementation detail: it is *not* part of the simulated
//! cost model (real lock overhead is a few tens of nanoseconds and does not
//! perturb simulated time at all).

use parking_lot::RwLock;

/// A single shared storage slot.
#[derive(Debug, Default)]
pub(crate) struct SyncSlot<T>(RwLock<T>);

impl<T: Copy> SyncSlot<T> {
    /// Creates a slot holding `value`.
    pub(crate) fn new(value: T) -> Self {
        SyncSlot(RwLock::new(value))
    }

    /// Copies the value out.
    #[inline]
    pub(crate) fn get(&self) -> T {
        *self.0.read()
    }

    /// Overwrites the value.
    #[inline]
    pub(crate) fn set(&self, value: T) {
        *self.0.write() = value;
    }

    /// Applies `f` to the value under the write lock and returns its result.
    ///
    /// This is the primitive behind read-modify-write operations such as the
    /// commutative centre-of-mass merges of §5.4 of the paper.
    #[inline]
    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.0.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_set_roundtrip() {
        let s = SyncSlot::new(41u64);
        assert_eq!(s.get(), 41);
        s.set(42);
        assert_eq!(s.get(), 42);
    }

    #[test]
    fn update_returns_value() {
        let s = SyncSlot::new(10i32);
        let prev = s.update(|v| {
            let p = *v;
            *v += 5;
            p
        });
        assert_eq!(prev, 10);
        assert_eq!(s.get(), 15);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = Arc::new(SyncSlot::new(0u64));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        s.update(|v| *v += 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.get(), 8000);
    }
}
