//! Global locks (the emulated `upc_lock_t`).
//!
//! The SPLASH-2 tree-building phase protects every cell modification with a
//! lock; the paper's baseline inherits this and §5.4 shows how expensive
//! global locks become as the thread count grows (remote round trips plus
//! contention).  [`GlobalLock`] provides the same semantics: real mutual
//! exclusion across rank threads, plus a simulated acquisition cost that
//! depends on the lock's home rank.

use crate::ctx::{Ctx, Dir};
use crate::machine::Price;
use parking_lot::{Mutex, MutexGuard};

/// A UPC-style global lock with affinity to a home rank.
pub struct GlobalLock {
    home: usize,
    mutex: Mutex<()>,
}

/// RAII guard for a held [`GlobalLock`]; releasing is billed on drop through
/// the acquisition charge (acquire + release round trips are charged
/// up front, as the release is a one-way fire-and-forget message).
pub struct LockGuard<'a> {
    _guard: MutexGuard<'a, ()>,
}

impl GlobalLock {
    /// Creates a lock whose home (affinity) is `home`.
    pub fn new(home: usize) -> Self {
        GlobalLock { home, mutex: Mutex::new(()) }
    }

    /// The rank holding the lock's memory.
    pub fn home(&self) -> usize {
        self.home
    }

    /// Acquires the lock (really blocking other rank threads) and charges the
    /// simulated acquire/release cost.
    pub fn lock<'a>(&'a self, ctx: &Ctx) -> LockGuard<'a> {
        let guard = self.mutex.lock();
        // An acquire and a release round trip to the home (two bodiless
        // messages on the link), then the lock runtime's overhead.
        ctx.transfer(Dir::Get, self.home, 2, 0, 0);
        ctx.bill(Price::Lock, 1);
        ctx.with_stats(|s| s.lock_acquires += 1);
        LockGuard { _guard: guard }
    }
}

/// A table of global locks, as SPLASH-2 allocates (one lock per cell hashed
/// into a fixed-size array).
pub struct LockTable {
    locks: Vec<GlobalLock>,
}

impl LockTable {
    /// Creates `count` locks, with homes distributed round-robin over
    /// `ranks` ranks (mirroring how `upc_all_lock_alloc` spreads locks).
    pub fn new(count: usize, ranks: usize) -> Self {
        assert!(count > 0 && ranks > 0);
        LockTable { locks: (0..count).map(|i| GlobalLock::new(i % ranks)).collect() }
    }

    /// Number of locks in the table.
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// `true` if the table is empty (never the case for a valid table).
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// The lock that protects hash key `key`.
    pub fn lock_for(&self, key: usize) -> &GlobalLock {
        &self.locks[key % self.locks.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::runtime::Runtime;
    use crate::shared::SharedVec;

    #[test]
    fn provides_mutual_exclusion() {
        let ranks = 8;
        let rt = Runtime::new(Machine::test_cluster(ranks));
        let lock = GlobalLock::new(0);
        let counter: SharedVec<u64> = SharedVec::new(ranks, 1, 0);
        rt.run(|ctx| {
            for _ in 0..50 {
                let _guard = lock.lock(ctx);
                // Unprotected read-modify-write; correctness relies purely on
                // the lock.
                let v = counter.read_raw(0);
                counter.write_raw(0, v + 1);
            }
        });
        assert_eq!(counter.read_raw(0), 50 * ranks as u64);
    }

    #[test]
    fn billing_counts_acquisitions_and_costs_remote_more() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let lock_home0 = GlobalLock::new(0);
        let report = rt.run(|ctx| {
            let t0 = ctx.now();
            drop(lock_home0.lock(ctx));
            (ctx.now() - t0, ctx.stats_snapshot().lock_acquires)
        });
        let (cost_rank0, acq0) = report.ranks[0].result;
        let (cost_rank1, acq1) = report.ranks[1].result;
        assert_eq!(acq0, 1);
        assert_eq!(acq1, 1);
        assert!(cost_rank1 > cost_rank0, "remote lock must cost more than a local one");
    }

    #[test]
    fn lock_table_hashes_to_fixed_set() {
        let table = LockTable::new(16, 4);
        assert_eq!(table.len(), 16);
        assert!(!table.is_empty());
        assert!(std::ptr::eq(table.lock_for(3), table.lock_for(19)));
        assert!(!std::ptr::eq(table.lock_for(3), table.lock_for(4)));
        assert_eq!(table.lock_for(5).home(), 1);
    }
}
