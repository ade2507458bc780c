//! Transparent software caching of shared scalars (MuPC-style).
//!
//! The paper's related-work section (§8) discusses runtime-maintained
//! software caches for UPC: the MuPC runtime caches shared scalar variables
//! and writes them back at every synchronization point, and a similar scheme
//! was prototyped for Berkeley UPC.  The paper is sceptical that such fully
//! transparent caching helps complex codes, because the manual optimizations
//! of §5 exploit application knowledge (which data is read-only in which
//! phase) that a blind cache does not have.
//!
//! This module provides the emulated equivalent so the claim can be tested:
//! a [`CachedScalar`] remembers the value it last read from a
//! [`SharedScalar`](crate::shared::SharedScalar) and serves repeated reads
//! locally until the next barrier ([`Ctx::epoch`] changes), at which point
//! the cache is invalidated — exactly the MuPC discipline of "write back at
//! each synchronization point, to avoid coherence issues".  The `bh` crate
//! exposes a configuration switch that routes the baseline solver's scalar
//! reads through these caches, and the `swcache` experiment of `tables`
//! compares the result with both the un-cached baseline and the manual §5.1
//! replication.

use crate::ctx::Ctx;
use crate::machine::Price;
use crate::shared::SharedScalar;
use std::cell::Cell;

/// A per-rank software cache in front of one shared scalar.
///
/// The cache holds at most one value and is only valid within the
/// synchronization epoch in which it was filled.
#[derive(Debug, Default)]
pub struct CachedScalar<T: Copy> {
    slot: Cell<Option<(u64, T)>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

impl<T: Copy> CachedScalar<T> {
    /// Creates an empty cache.
    pub fn new() -> Self {
        CachedScalar { slot: Cell::new(None), hits: Cell::new(0), misses: Cell::new(0) }
    }

    /// Reads the scalar through the cache.
    ///
    /// The first read in each synchronization epoch pays the normal shared
    /// read (remote for every rank but the scalar's owner); repeated reads in
    /// the same epoch are served from the local copy at local-access cost.
    pub fn read(&self, ctx: &Ctx, scalar: &SharedScalar<T>) -> T
    where
        T: Send + Sync,
    {
        let epoch = ctx.epoch();
        if let Some((cached_epoch, value)) = self.slot.get() {
            if cached_epoch == epoch {
                ctx.bill(Price::LocalAccess, 1);
                self.hits.set(self.hits.get() + 1);
                return value;
            }
        }
        let value = scalar.read(ctx);
        self.slot.set(Some((epoch, value)));
        self.misses.set(self.misses.get() + 1);
        value
    }

    /// Explicitly invalidates the cache (used by writers; a write to a
    /// software-cached scalar must not leave stale copies behind).
    pub fn invalidate(&self) {
        self.slot.set(None);
    }

    /// Number of reads served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Number of reads that went to the shared scalar.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::runtime::Runtime;
    use crate::shared::SharedScalar;

    #[test]
    fn repeated_reads_hit_the_cache() {
        let scalar = SharedScalar::new(3.25_f64);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let cache = CachedScalar::new();
            for _ in 0..100 {
                assert_eq!(cache.read(ctx, &scalar), 3.25);
            }
            (cache.hits(), cache.misses(), ctx.stats_snapshot().remote_gets)
        });
        // Rank 0 owns the scalar (reads are local either way); rank 1 must
        // fetch it remotely exactly once.
        let (hits, misses, remote) = report.ranks[1].result;
        assert_eq!(misses, 1);
        assert_eq!(hits, 99);
        assert_eq!(remote, 1);
    }

    #[test]
    fn barrier_invalidates_the_cache() {
        let scalar = SharedScalar::new(1.0_f64);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let cache = CachedScalar::new();
            let _ = cache.read(ctx, &scalar);
            let _ = cache.read(ctx, &scalar);
            ctx.barrier();
            let _ = cache.read(ctx, &scalar);
            cache.misses()
        });
        assert!(report.ranks.iter().all(|r| r.result == 2), "one miss per epoch");
    }

    #[test]
    fn invalidation_after_write_observes_new_value() {
        let scalar = SharedScalar::new(10_u64);
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let cache = CachedScalar::new();
            let before = cache.read(ctx, &scalar);
            ctx.barrier();
            if ctx.rank() == 0 {
                scalar.write(ctx, 20);
            }
            ctx.barrier();
            // The barrier moved the epoch forward, so the next cached read
            // re-fetches and sees the new value.
            let after = cache.read(ctx, &scalar);
            (before, after)
        });
        for r in &report.ranks {
            assert_eq!(r.result, (10, 20));
        }
    }

    #[test]
    fn caching_is_cheaper_than_uncached_reads() {
        let scalar = SharedScalar::new(0.5_f64);
        let reads = 10_000;
        let uncached = Runtime::new(Machine::test_cluster(2)).run(|ctx| {
            for _ in 0..reads {
                let _ = scalar.read(ctx);
            }
            ctx.now()
        });
        let scalar2 = SharedScalar::new(0.5_f64);
        let cached = Runtime::new(Machine::test_cluster(2)).run(|ctx| {
            let cache = CachedScalar::new();
            for _ in 0..reads {
                let _ = cache.read(ctx, &scalar2);
            }
            ctx.now()
        });
        assert!(
            uncached.makespan() > 50.0 * cached.makespan(),
            "caching must remove almost all remote scalar traffic ({} vs {})",
            uncached.makespan(),
            cached.makespan()
        );
    }

    #[test]
    fn explicit_invalidate_forces_a_refetch() {
        let scalar = SharedScalar::new(7_u32);
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            let cache = CachedScalar::new();
            let _ = cache.read(ctx, &scalar);
            cache.invalidate();
            let _ = cache.read(ctx, &scalar);
            cache.misses()
        });
        assert_eq!(report.ranks[0].result, 2);
    }
}
