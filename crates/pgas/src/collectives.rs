//! Collective operations.
//!
//! The paper's scalable tree-building algorithm (§6) relies on collectives
//! that UPC provides either natively or through extensions: a
//! reduce-and-broadcast of per-cell costs ("vector reduction"), an
//! all-to-all exchange of bodies, and ordinary scalar broadcasts.  This
//! module implements them over the runtime's collective board, with
//! tree-based (log₂ P) cost charging.
//!
//! All collectives must be called by **every rank** and in the **same
//! program order** on every rank (exactly like UPC collectives); the
//! sequence number kept by each [`Ctx`] pairs up the matching calls.
//!
//! # One host barrier per collective
//!
//! On the host, an [`Ctx::allgather`] (and so every collective here) and a
//! [`Ctx::barrier`] each cross the rank threads' `std::sync::Barrier`
//! exactly once — *deposit, barrier, read*:
//!
//! * a rank deposits its value **and its simulated clock** in the board
//!   entry of this call's sequence number, waits at the host barrier, then
//!   reads every deposit and takes the maximum clock from the same entry;
//! * nothing is read before the barrier and nothing of this call is written
//!   after it, so no second barrier has to separate readers from writers;
//! * the storage of call *k* is never the storage of call *k + 1*: board
//!   entries are keyed by sequence number, and `Ctx::barrier`'s clock slots
//!   are double-buffered by call parity.  A rank can only reach call
//!   *k + 2*, whose storage may coincide with call *k*'s, by passing call
//!   *k + 1*'s host barrier, which every rank reaches only after it has
//!   finished reading call *k*;
//! * the last rank to read a board entry removes it, so the board is empty
//!   whenever every rank has returned from its collectives.
//!
//! The simulated clock cannot tell the difference: a rank's clock does not
//! move between its deposit and its read, so the maximum is the number the
//! separate clock exchange used to produce.

use crate::ctx::{Ctx, Dir};
use crate::machine::{Ledger, Price};

/// One allgather's entry on the collective board.
struct Gather<T> {
    /// Every rank's deposit with the simulated clock it was made at.
    slots: Vec<Option<(T, f64)>>,
    /// Ranks that have not read the entry yet; the last one removes it.
    unread: usize,
}

impl<'w> Ctx<'w> {
    /// Deposits `value` on the collective board and returns the vector of
    /// every rank's deposit, in rank order.  This is the building block for
    /// the other collectives (an allgather).
    pub fn allgather<T>(&self, value: T) -> Vec<T>
    where
        T: Clone + Send + 'static,
    {
        let seq = self.next_collective_seq();
        let world = self.world();
        let ranks = self.ranks();

        // Deposit the value with this rank's clock (an allgather is a
        // synchronizing operation: the clocks align on the way).
        {
            let mut board = world.board.lock();
            let entry = board.entry(seq).or_insert_with(|| {
                Box::new(Gather::<T> { slots: vec![None; ranks], unread: ranks })
                    as Box<dyn std::any::Any + Send>
            });
            let gather = entry.downcast_mut::<Gather<T>>().expect("collective type mismatch");
            gather.slots[self.rank()] = Some((value, self.now()));
        }
        world.host_barrier();

        // Read; the last reader takes the entry off the board.
        let (gathered, max) = {
            let mut board = world.board.lock();
            let entry = board.get_mut(&seq).expect("collective board entry missing");
            let gather = entry.downcast_mut::<Gather<T>>().expect("collective type mismatch");
            let mut max = f64::MIN;
            let gathered: Vec<T> = gather
                .slots
                .iter()
                .map(|slot| {
                    let (value, clock) = slot.as_ref().expect("rank missed collective");
                    max = max.max(*clock);
                    value.clone()
                })
                .collect();
            gather.unread -= 1;
            if gather.unread == 0 {
                board.remove(&seq);
            }
            (gathered, max)
        };

        // Simulated cost: the wait for the latest arrival, then a
        // tree-based gather of the payload, every hop moving all of it.
        self.advance_to(max, Ledger::Sync);
        let hops = self.machine().hops();
        self.bill(Price::Collective, hops);
        self.bill(Price::RemoteByte, hops * (std::mem::size_of::<T>() * ranks) as u64);
        self.with_stats(|s| s.messages += 1);
        gathered
    }

    /// Broadcast from `root`: `value` is taken from the root rank and
    /// returned on every rank.
    pub fn broadcast<T>(&self, root: usize, value: T) -> T
    where
        T: Clone + Send + 'static,
    {
        let all = self.allgather(value);
        all[root].clone()
    }

    /// Sum-allreduce of a scalar.
    pub fn allreduce_sum(&self, value: f64) -> f64 {
        self.allgather(value).into_iter().sum()
    }

    /// Max-allreduce of a scalar.
    pub fn allreduce_max(&self, value: f64) -> f64 {
        self.allgather(value).into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Min-allreduce of a scalar.
    pub fn allreduce_min(&self, value: f64) -> f64 {
        self.allgather(value).into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Element-wise sum-allreduce of a vector (the paper's "vector
    /// reduction", §6.1).  All ranks must pass vectors of the same length.
    ///
    /// The cost is that of **one** collective over the whole vector — this is
    /// precisely the optimization that Figure 11 contrasts with Figure 10
    /// (one collective per *cell* instead of one per *level*).
    pub fn allreduce_vec_sum(&self, values: &[f64]) -> Vec<f64> {
        let all = self.allgather(values.to_vec());
        let len = values.len();
        let mut out = vec![0.0; len];
        for contribution in &all {
            assert_eq!(contribution.len(), len, "allreduce_vec_sum length mismatch across ranks");
            for (o, v) in out.iter_mut().zip(contribution) {
                *o += v;
            }
        }
        out
    }

    /// All-to-all personalized exchange: `outgoing[d]` is the data this rank
    /// sends to rank `d`; the return value is, for each source rank `s`, the
    /// data that rank `s` sent to this rank.
    ///
    /// Cost model: every rank pays latency per non-empty destination plus the
    /// byte cost of everything it sends and receives, each bucket at its
    /// link's byte price (the §6 body exchange).
    pub fn exchange<T>(&self, outgoing: Vec<Vec<T>>) -> Vec<Vec<T>>
    where
        T: Clone + Send + 'static,
    {
        assert_eq!(
            outgoing.len(),
            self.ranks(),
            "exchange requires one bucket per destination rank"
        );
        let elem_bytes = std::mem::size_of::<T>();

        // Charge the send side before the gather: one message per
        // non-empty remote bucket.
        for (dest, bucket) in outgoing.iter().enumerate() {
            if dest != self.rank() && !bucket.is_empty() {
                self.transfer(Dir::Put, dest, 1, (bucket.len() * elem_bytes) as u64, 0);
            }
        }

        let all: Vec<Vec<Vec<T>>> = self.allgather(outgoing);

        // Collect the column addressed to this rank and charge the receive
        // side (bytes only, at the source's link; the latency was paid by
        // the senders).
        let mut received = Vec::with_capacity(self.ranks());
        for (source, buckets) in all.into_iter().enumerate() {
            let bucket = buckets.into_iter().nth(self.rank()).expect("exchange bucket missing");
            if let (_, Some(byte)) = self.machine().link(source, self.rank()) {
                let bytes = (bucket.len() * elem_bytes) as u64;
                self.bill(byte, bytes);
                self.with_stats(|s| s.bytes_in += bytes);
            }
            received.push(bucket);
        }
        received
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::Machine;
    use crate::runtime::Runtime;

    #[test]
    fn allgather_collects_in_rank_order() {
        let rt = Runtime::new(Machine::test_cluster(5));
        let report = rt.run(|ctx| ctx.allgather(ctx.rank() * 10));
        for r in &report.ranks {
            assert_eq!(r.result, vec![0, 10, 20, 30, 40]);
        }
    }

    #[test]
    fn broadcast_takes_root_value() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let mine = if ctx.rank() == 2 { 99 } else { ctx.rank() as i32 };
            ctx.broadcast(2, mine)
        });
        assert!(report.ranks.iter().all(|r| r.result == 99));
    }

    #[test]
    fn allreduce_sum_and_extrema() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let sum = ctx.allreduce_sum(ctx.rank() as f64);
            let max = ctx.allreduce_max(ctx.rank() as f64);
            let min = ctx.allreduce_min(ctx.rank() as f64);
            (sum, max, min)
        });
        for r in &report.ranks {
            assert_eq!(r.result, (6.0, 3.0, 0.0));
        }
    }

    #[test]
    fn vector_reduction_sums_elementwise() {
        let rt = Runtime::new(Machine::test_cluster(3));
        let report = rt.run(|ctx| {
            let mine = vec![ctx.rank() as f64, 1.0, 2.0 * ctx.rank() as f64];
            ctx.allreduce_vec_sum(&mine)
        });
        for r in &report.ranks {
            assert_eq!(r.result, vec![3.0, 3.0, 6.0]);
        }
    }

    #[test]
    fn vector_reduction_is_cheaper_than_many_scalars() {
        // One 1024-element vector reduction must cost far less than 1024
        // scalar reductions — the Figure 10 vs Figure 11 effect.
        let rt = Runtime::new(Machine::test_cluster(8));
        let vec_time = rt
            .run(|ctx| {
                let v = vec![1.0; 1024];
                ctx.allreduce_vec_sum(&v);
                ctx.now()
            })
            .makespan();
        let rt = Runtime::new(Machine::test_cluster(8));
        let scalar_time = rt
            .run(|ctx| {
                for _ in 0..1024 {
                    ctx.allreduce_sum(1.0);
                }
                ctx.now()
            })
            .makespan();
        assert!(scalar_time > 20.0 * vec_time, "scalar {scalar_time} vs vector {vec_time}");
    }

    #[test]
    fn exchange_routes_data_to_destinations() {
        let rt = Runtime::new(Machine::test_cluster(3));
        let report = rt.run(|ctx| {
            // Rank r sends the value 100*r + d to destination d.
            let outgoing: Vec<Vec<u32>> =
                (0..ctx.ranks()).map(|d| vec![(100 * ctx.rank() + d) as u32]).collect();
            ctx.exchange(outgoing)
        });
        for (rank, r) in report.ranks.iter().enumerate() {
            let got: Vec<u32> = r.result.iter().flatten().copied().collect();
            let expected: Vec<u32> = (0..3).map(|s| (100 * s + rank) as u32).collect();
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn exchange_bills_bytes() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); ctx.ranks()];
            outgoing[1 - ctx.rank()] = vec![0u64; 1000];
            ctx.exchange(outgoing);
            ctx.stats_snapshot()
        });
        for r in &report.ranks {
            assert_eq!(r.result.bytes_out, 8000);
            assert_eq!(r.result.bytes_in, 8000);
        }
    }

    #[test]
    fn exchange_bills_each_source_at_its_link() {
        // On 2 nodes x 2 pthreads rank 1 shares rank 0's node: the bytes
        // rank 0 receives from it cost the intranode byte price.
        let machine = Machine::pthreads_per_node(2, 2);
        let comm = |words: usize| {
            let report = Runtime::new(machine.clone()).run(|ctx| {
                let mut outgoing: Vec<Vec<u64>> = vec![Vec::new(); ctx.ranks()];
                if ctx.rank() == 1 {
                    outgoing[0] = vec![0; words];
                }
                ctx.exchange(outgoing);
                ctx.stats_snapshot().comm_seconds
            });
            report.ranks[0].result
        };
        let billed = comm(1000) - comm(0);
        let want = machine.intranode_byte_cost * 8000.0;
        assert!((billed - want).abs() <= 1e-9 * want, "billed {billed}, want {want}");
    }

    /// The one-barrier protocol's slot-reuse argument, pinned: back-to-back
    /// collectives of every kind, one rank arriving late at a different
    /// call each round, so that the other ranks are as far ahead as the
    /// protocol lets them get.
    #[test]
    fn back_to_back_collectives_with_a_straggler_stay_paired() {
        const ROUNDS: usize = 60; // five collective calls each
        for ranks in [3usize, 5] {
            let rt = Runtime::new(Machine::test_cluster(ranks));
            let report = rt.run(|ctx| {
                let (me, n) = (ctx.rank(), ctx.ranks());
                // Uneven simulated clocks for the next collective to align.
                let skew = |round: usize| ctx.charge_compute(1e-6 * ((me + round) % n) as f64);
                for round in 0..ROUNDS {
                    // The straggler, and which of the round's calls it is
                    // late for, both rotate.
                    let late = |call: usize| {
                        if me == round % n && call == (round / n) % 4 {
                            std::thread::sleep(std::time::Duration::from_micros(300));
                        }
                    };

                    skew(round);
                    late(0);
                    let gathered = ctx.allgather((round, me));
                    let expected: Vec<_> = (0..n).map(|r| (round, r)).collect();
                    assert_eq!(gathered, expected, "allgather, round {round}");

                    // Two barriers in a row: the second one's clock writes
                    // must not reach a rank still reading the first one's.
                    late(1);
                    ctx.barrier();
                    let after_first = ctx.now().to_bits();
                    skew(round + 1);
                    late(2);
                    ctx.barrier();
                    let clocks = ctx.allgather((after_first, ctx.now().to_bits()));
                    assert!(clocks.iter().all(|&c| c == clocks[0]), "clocks, round {round}");

                    skew(round + 2);
                    late(3);
                    let outgoing = (0..n).map(|dest| vec![(round, me, dest)]).collect();
                    let received = ctx.exchange(outgoing);
                    let expected: Vec<_> = (0..n).map(|src| vec![(round, src, me)]).collect();
                    assert_eq!(received, expected, "exchange, round {round}");
                }
                // Past this barrier every rank has read every entry.
                ctx.barrier();
                assert!(ctx.world().board.lock().is_empty(), "collective board not drained");
                ctx.now().to_bits()
            });
            let clock = report.ranks[0].result;
            assert!(report.ranks.iter().all(|r| r.result == clock), "{ranks} ranks end aligned");
        }
    }
}
