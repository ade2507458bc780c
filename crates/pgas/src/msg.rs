//! Two-sided (send/receive) message passing over the same machine model.
//!
//! The paper closes by promising a direct comparison between the optimized
//! UPC Barnes-Hut code and "a similar code expressed in MPI" (§9), and cites
//! Dinan et al.'s hybrid MPI+UPC variant as related work (§8).  To make that
//! comparison possible inside this workspace, this module adds explicit,
//! two-sided message passing to the emulated runtime: the same SPMD ranks,
//! the same [`crate::Machine`] cost model and the same simulated clocks, but
//! communication is initiated by matching `send`/`recv` pairs rather than by
//! dereferencing global pointers.
//!
//! The semantics follow blocking MPI point-to-point communication with eager
//! delivery:
//!
//! * [`Ctx::send`] charges the sender the full transfer cost (latency plus
//!   bytes) and deposits the message; it never blocks on the receiver.
//! * [`Ctx::recv`] blocks (for real, on the host) until a matching message is
//!   available, then advances the receiver's simulated clock to at least the
//!   message's arrival time — so a late sender genuinely delays the receiver
//!   in simulated time, exactly as `MPI_Recv` would.
//! * Messages between the same (source, destination, tag) triple are
//!   delivered in the order they were sent (MPI's non-overtaking rule).
//!
//! Collectives are shared with the one-sided world ([`Ctx::allgather`],
//! [`Ctx::exchange`], …): MPI codes use both, and charging them identically
//! keeps the UPC-vs-MPI comparison about the *point-to-point and caching
//! structure* of the algorithms, not about collective implementations.

use crate::ctx::{Ctx, Dir};
use crate::machine::{Ledger, Price};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{HashMap, VecDeque};

/// A message in flight: its payload, its simulated arrival time at the
/// destination, and its size for billing.
struct Envelope {
    payload: Box<dyn Any + Send>,
    arrival: f64,
    bytes: usize,
}

/// Mailbox shared by all ranks: one FIFO queue per
/// (destination, source, tag) triple.
pub(crate) struct MsgBoard {
    queues: Mutex<HashMap<(usize, usize, u64), VecDeque<Envelope>>>,
    available: Condvar,
}

impl MsgBoard {
    pub(crate) fn new() -> Self {
        MsgBoard { queues: Mutex::new(HashMap::new()), available: Condvar::new() }
    }

    fn deposit(&self, dest: usize, source: usize, tag: u64, envelope: Envelope) {
        let mut queues = self.queues.lock();
        queues.entry((dest, source, tag)).or_default().push_back(envelope);
        self.available.notify_all();
    }

    fn collect(&self, dest: usize, source: usize, tag: u64) -> Envelope {
        let mut queues = self.queues.lock();
        loop {
            if let Some(queue) = queues.get_mut(&(dest, source, tag)) {
                if let Some(envelope) = queue.pop_front() {
                    return envelope;
                }
            }
            self.available.wait(&mut queues);
        }
    }

    fn try_collect(&self, dest: usize, source: usize, tag: u64) -> Option<Envelope> {
        let mut queues = self.queues.lock();
        queues.get_mut(&(dest, source, tag)).and_then(|q| q.pop_front())
    }
}

impl<'w> Ctx<'w> {
    /// Sends `data` to rank `dest` under `tag` (blocking, eager).
    ///
    /// The sender is charged one message worth of transfer cost
    /// (latency + bytes); the call returns as soon as the message is
    /// deposited, like an eager `MPI_Send`.
    ///
    /// # Panics
    ///
    /// Panics if `dest` is not a valid rank.
    pub fn send<T>(&self, dest: usize, tag: u64, data: Vec<T>)
    where
        T: Send + 'static,
    {
        assert!(dest < self.ranks(), "send destination {dest} out of range");
        let bytes = std::mem::size_of::<T>() * data.len();
        self.transfer(Dir::Put, dest, 1, bytes as u64, 0);
        if dest == self.rank() {
            // A message to oneself is still a message.
            self.with_stats(|s| s.messages += 1);
        }
        let envelope = Envelope { payload: Box::new(data), arrival: self.now(), bytes };
        self.world().msgs.deposit(dest, self.rank(), tag, envelope);
    }

    /// Receives the next message sent by `source` under `tag` (blocking).
    ///
    /// Blocks until a matching message exists, then advances the simulated
    /// clock to at least the message's arrival time; the waiting time is
    /// recorded as synchronization time.
    ///
    /// # Panics
    ///
    /// Panics if `source` is not a valid rank, or if the matching message was
    /// sent with a different element type.
    pub fn recv<T>(&self, source: usize, tag: u64) -> Vec<T>
    where
        T: Send + 'static,
    {
        assert!(source < self.ranks(), "recv source {source} out of range");
        let envelope = self.world().msgs.collect(self.rank(), source, tag);
        self.finish_recv(source, envelope)
    }

    /// Non-blocking probe-and-receive: returns the next matching message if
    /// one has already been deposited, `None` otherwise.
    ///
    /// A small polling overhead is charged either way.
    pub fn try_recv<T>(&self, source: usize, tag: u64) -> Option<Vec<T>>
    where
        T: Send + 'static,
    {
        assert!(source < self.ranks(), "recv source {source} out of range");
        self.bill(Price::SwOverhead, 1);
        let envelope = self.world().msgs.try_collect(self.rank(), source, tag)?;
        Some(self.finish_recv(source, envelope))
    }

    /// Sends `outgoing` to `dest` and receives one message from `source`
    /// under the same tag — the `MPI_Sendrecv` pattern used by shift-style
    /// exchanges.  Deadlock-free because [`Ctx::send`] never blocks on the
    /// receiver.
    pub fn send_recv<T>(&self, dest: usize, source: usize, tag: u64, outgoing: Vec<T>) -> Vec<T>
    where
        T: Send + 'static,
    {
        self.send(dest, tag, outgoing);
        self.recv(source, tag)
    }

    /// Books the receive side of a collected envelope: waits (in simulated
    /// time) for the arrival, charges the receive overhead and the inbound
    /// bytes.
    fn finish_recv<T>(&self, source: usize, envelope: Envelope) -> Vec<T>
    where
        T: Send + 'static,
    {
        self.advance_to(envelope.arrival, Ledger::Sync);
        self.bill(Price::SwOverhead, 1);
        if source != self.rank() {
            self.with_stats(|s| s.bytes_in += envelope.bytes as u64);
        }
        *envelope.payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
            panic!("message from rank {source} received with the wrong element type")
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::machine::Machine;
    use crate::runtime::Runtime;

    #[test]
    fn ping_pong_roundtrip() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 7, vec![1u32, 2, 3]);
                ctx.recv::<u32>(1, 8)
            } else {
                let got = ctx.recv::<u32>(0, 7);
                ctx.send(0, 8, got.iter().map(|x| x * 10).collect());
                got
            }
        });
        assert_eq!(report.ranks[0].result, vec![10, 20, 30]);
        assert_eq!(report.ranks[1].result, vec![1, 2, 3]);
    }

    #[test]
    fn recv_waits_for_late_sender_in_simulated_time() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            if ctx.rank() == 0 {
                // Busy for 2 simulated seconds before sending.
                ctx.charge_compute(2.0);
                ctx.send(1, 0, vec![42u8]);
                ctx.now()
            } else {
                let _ = ctx.recv::<u8>(0, 0);
                ctx.now()
            }
        });
        // The receiver cannot finish the receive before the sender sent.
        assert!(report.ranks[1].result >= 2.0);
        assert!(report.ranks[1].stats.sync_seconds > 1.0);
    }

    #[test]
    fn messages_are_not_overtaken() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            if ctx.rank() == 0 {
                for i in 0..5u32 {
                    ctx.send(1, 3, vec![i]);
                }
                Vec::new()
            } else {
                (0..5).map(|_| ctx.recv::<u32>(0, 3)[0]).collect::<Vec<_>>()
            }
        });
        assert_eq!(report.ranks[1].result, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tags_separate_message_streams() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, vec![10u32]);
                ctx.send(1, 2, vec![20u32]);
                (0, 0)
            } else {
                // Receive in the opposite order of the sends.
                let b = ctx.recv::<u32>(0, 2)[0];
                let a = ctx.recv::<u32>(0, 1)[0];
                (a, b)
            }
        });
        assert_eq!(report.ranks[1].result, (10, 20));
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            if ctx.rank() == 0 {
                // Nothing has been sent to rank 0: the probe must come back
                // empty.  (No barrier needed: nobody ever sends to rank 0.)
                let empty = ctx.try_recv::<u8>(1, 0).is_none();
                ctx.send(1, 0, vec![5u8]);
                empty
            } else {
                // Blocking receive, then the probe of the now-empty queue.
                let got = ctx.recv::<u8>(0, 0);
                got == vec![5] && ctx.try_recv::<u8>(0, 0).is_none()
            }
        });
        assert!(report.ranks.iter().all(|r| r.result));
    }

    #[test]
    fn send_recv_shift_pattern() {
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let dest = (ctx.rank() + 1) % ctx.ranks();
            let source = (ctx.rank() + ctx.ranks() - 1) % ctx.ranks();
            ctx.send_recv(dest, source, 9, vec![ctx.rank() as u64])
        });
        for (rank, r) in report.ranks.iter().enumerate() {
            let expected = (rank + 3) % 4;
            assert_eq!(r.result, vec![expected as u64]);
        }
    }

    #[test]
    fn transfer_costs_and_bytes_are_billed() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0u64; 1000]);
            } else {
                let _ = ctx.recv::<u64>(0, 0);
            }
            ctx.stats_snapshot()
        });
        assert_eq!(report.ranks[0].stats.bytes_out, 8000);
        assert_eq!(report.ranks[1].stats.bytes_in, 8000);
        assert!(report.ranks[0].clock > 0.0);
        // The sender paid at least latency + bytes/bandwidth.
        let m = Machine::test_cluster(2);
        assert!(report.ranks[0].clock >= m.transfer_cost(0, 1, 8000) * 0.99);
    }

    #[test]
    fn self_messages_are_cheap_and_legal() {
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| {
            ctx.send(0, 0, vec![1u8, 2]);
            let got = ctx.recv::<u8>(0, 0);
            (got, ctx.stats_snapshot().bytes_out)
        });
        assert_eq!(report.ranks[0].result.0, vec![1, 2]);
        // Self-sends move no bytes over the network.
        assert_eq!(report.ranks[0].result.1, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_to_invalid_rank_panics() {
        let rt = Runtime::new(Machine::test_cluster(1));
        rt.run(|ctx| ctx.send(5, 0, vec![0u8]));
    }

    #[test]
    fn large_messages_amortize_latency() {
        // One 64 KiB message must be much cheaper than 1024 64-byte messages,
        // mirroring Machine::transfer_cost_scales_with_bytes at the msg level.
        let one_big = Runtime::new(Machine::test_cluster(2)).run(|ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, vec![0u8; 64 * 1024]);
            } else {
                let _ = ctx.recv::<u8>(0, 0);
            }
            ctx.now()
        });
        let many_small = Runtime::new(Machine::test_cluster(2)).run(|ctx| {
            if ctx.rank() == 0 {
                for _ in 0..1024 {
                    ctx.send(1, 0, vec![0u8; 64]);
                }
            } else {
                for _ in 0..1024 {
                    let _ = ctx.recv::<u8>(0, 0);
                }
            }
            ctx.now()
        });
        assert!(many_small.makespan() > 10.0 * one_big.makespan());
    }
}
