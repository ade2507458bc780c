//! Machine description and communication cost model.
//!
//! The paper's testbed (§4.1) is an IBM Power5 cluster: 118 nodes, 16 cores
//! per node at 1.9 GHz, Berkeley UPC over GASNet's LAPI conduit, with an
//! optional `-pthreads` mode that maps several UPC threads onto one process.
//! This module replaces that hardware with an explicit LogGP-style cost
//! model:
//!
//! * a fine-grained access to shared data owned by another rank costs a
//!   **latency** term plus a **per-byte** term, where both depend on whether
//!   the two ranks share a node and on whether the runtime is in pthreads
//!   mode (shared memory within a node) or process mode (every access goes
//!   through the network stack, even on the same node — the §4.1 "36 000 s"
//!   observation);
//! * bulk transfers pay the latency once per message and the per-byte cost
//!   for the whole payload (this is what makes the paper's aggregation
//!   optimizations profitable);
//! * compute work is charged per body–cell interaction and per tree
//!   operation, with a dereference surcharge when the application walks
//!   shared pointers instead of casting them to local pointers (§5.3's 25 %
//!   single-thread improvement), and a multiplicative runtime overhead in
//!   pthreads mode (the Table 8 vs Table 9 gap);
//! * a fine-grained access to the caller's own shared data through a
//!   pointer-to-shared is that surcharge plus one local access, compute
//!   like the rest, in every shared container.
//!
//! Each priced constant is one [`Price`]: a rank's clock moves by counts of
//! events at those prices (see [`crate::Ctx::bill`]), and each price's
//! seconds are booked in one [`Ledger`] — the five compute prices as
//! compute, [`Price::Barrier`] as synchronization, every other price as
//! communication.
//!
//! The default constants are calibrated so that the single-thread 2M-body
//! run lands in the same order of magnitude as the paper's Table 2 and the
//! relative shape of every experiment is preserved.

use serde::{Deserialize, Serialize};

/// Description of the emulated machine and of all cost-model constants.
///
/// All times are in (simulated) seconds, all rates in bytes per second.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    /// Number of physical nodes.
    pub nodes: usize,
    /// UPC threads (ranks) per node.
    pub threads_per_node: usize,
    /// `true` when the Berkeley UPC `-pthreads` mode is emulated: ranks on
    /// the same node share memory (cheap intra-node access) but every rank
    /// pays a runtime overhead on compute ([`Machine::cpu_overhead`]).
    pub pthreads: bool,

    /// Seconds of compute per body–cell (or body–body) interaction when the
    /// cell is reached through a local pointer.
    pub interaction_cost: f64,
    /// Additional seconds per interaction when the cell is reached by
    /// dereferencing a pointer-to-shared that happens to point locally
    /// (the overhead removed by the §5.2/§5.3 pointer casting), and per
    /// fine-grained access of a local element through a pointer-to-shared.
    pub global_ptr_overhead: f64,
    /// Seconds per elementary tree operation (descending one level during
    /// insertion, examining one child during a merge, …).
    pub treeop_cost: f64,
    /// Seconds per multipole-acceptance test (the `l/d < θ` opening decision
    /// a force walk evaluates at every cell it visits).
    pub mac_cost: f64,
    /// Seconds per elementary local memory access performed by the PGAS
    /// layer on behalf of the application (reading a local body, …).
    pub local_access_cost: f64,

    /// One-sided get/put latency between ranks on *different* nodes.
    pub remote_latency: f64,
    /// Per-byte cost between ranks on different nodes (1 / bandwidth).
    pub remote_byte_cost: f64,
    /// One-sided get/put latency between distinct ranks on the *same* node
    /// when `pthreads` is true (shared-memory copy).
    pub intranode_latency: f64,
    /// Per-byte cost for same-node transfers in pthreads mode.
    pub intranode_byte_cost: f64,
    /// Latency for same-node transfers in *process* mode (no pthreads): the
    /// access still traverses the network stack, which §4.1 shows to be
    /// disastrous.
    pub loopback_latency: f64,
    /// Per-byte cost for same-node transfers in process mode.
    pub loopback_byte_cost: f64,

    /// Extra cost charged for acquiring a global lock, on top of the
    /// round-trip latency to the lock's owner.
    pub lock_overhead: f64,
    /// Cost of a barrier, charged as `barrier_latency * ceil(log2(ranks))`.
    pub barrier_latency: f64,
    /// Per-hop cost of tree-based collectives (reduce, broadcast).
    pub collective_latency: f64,
    /// Multiplicative factor applied to all compute when `pthreads` is true
    /// (GASNet polling / thread-safety overhead; Table 8 vs Table 9).
    pub cpu_overhead: f64,
    /// Fixed per-call software overhead of issuing a one-sided operation
    /// (argument marshalling, conduit entry): the latency of a bulk transfer
    /// or an atomic update whose target is the caller's own memory, the
    /// issue cost of a non-blocking gather or a poll, and the receive
    /// overhead of a message.  A fine-grained
    /// dereference of a local element does not pay it; it pays
    /// [`Machine::global_ptr_overhead`] plus one
    /// [`Machine::local_access_cost`].
    pub sw_overhead: f64,
}

/// One price of the cost model: a variant per priced [`Machine`] constant
/// (every one but [`Machine::cpu_overhead`], the compute factor).
///
/// Every movement of a rank's simulated clock other than a wait is a count
/// of events at one of these prices ([`crate::Ctx::bill`]); a transfer is
/// two events, one latency and `bytes` of the byte price of its link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Price {
    /// [`Machine::interaction_cost`].
    Interaction,
    /// [`Machine::global_ptr_overhead`], the dereference surcharge of a
    /// pointer-to-shared.
    PtrSurcharge,
    /// [`Machine::treeop_cost`].
    TreeOp,
    /// [`Machine::mac_cost`].
    Mac,
    /// [`Machine::local_access_cost`].
    LocalAccess,
    /// [`Machine::sw_overhead`]: issuing a one-sided operation, and the
    /// latency of a transfer between a rank and itself.
    SwOverhead,
    /// [`Machine::intranode_latency`].
    IntranodeLatency,
    /// [`Machine::intranode_byte_cost`].
    IntranodeByte,
    /// [`Machine::loopback_latency`].
    LoopbackLatency,
    /// [`Machine::loopback_byte_cost`].
    LoopbackByte,
    /// [`Machine::remote_latency`].
    RemoteLatency,
    /// [`Machine::remote_byte_cost`].
    RemoteByte,
    /// [`Machine::lock_overhead`].
    Lock,
    /// [`Machine::collective_latency`], per hop.
    Collective,
    /// [`Machine::barrier_latency`], per hop.
    Barrier,
}

/// The three seconds ledgers of [`crate::RankStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ledger {
    /// `compute_seconds`.
    Compute,
    /// `comm_seconds`.
    Comm,
    /// `sync_seconds`.
    Sync,
}

impl Price {
    /// Every price, in the fixed order a rank's pending counts are turned
    /// into time.
    pub const ALL: [Price; 15] = [
        Price::Interaction,
        Price::PtrSurcharge,
        Price::TreeOp,
        Price::Mac,
        Price::LocalAccess,
        Price::SwOverhead,
        Price::IntranodeLatency,
        Price::IntranodeByte,
        Price::LoopbackLatency,
        Price::LoopbackByte,
        Price::RemoteLatency,
        Price::RemoteByte,
        Price::Lock,
        Price::Collective,
        Price::Barrier,
    ];

    /// The ledger this price's seconds are booked in.  The five compute
    /// prices are the ones the pthreads compute factor scales.
    pub fn ledger(self) -> Ledger {
        match self {
            Price::Interaction
            | Price::PtrSurcharge
            | Price::TreeOp
            | Price::Mac
            | Price::LocalAccess => Ledger::Compute,
            Price::Barrier => Ledger::Sync,
            _ => Ledger::Comm,
        }
    }
}

impl Machine {
    /// Total number of ranks (UPC threads) in the machine.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.nodes * self.threads_per_node
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        rank / self.threads_per_node
    }

    /// `true` if the two ranks live on the same node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Effective compute multiplier (pthreads overhead).
    #[inline]
    pub fn compute_factor(&self) -> f64 {
        if self.pthreads {
            self.cpu_overhead
        } else {
            1.0
        }
    }

    /// Seconds per event at `price`, before the compute factor.
    #[inline]
    pub fn price(&self, price: Price) -> f64 {
        match price {
            Price::Interaction => self.interaction_cost,
            Price::PtrSurcharge => self.global_ptr_overhead,
            Price::TreeOp => self.treeop_cost,
            Price::Mac => self.mac_cost,
            Price::LocalAccess => self.local_access_cost,
            Price::SwOverhead => self.sw_overhead,
            Price::IntranodeLatency => self.intranode_latency,
            Price::IntranodeByte => self.intranode_byte_cost,
            Price::LoopbackLatency => self.loopback_latency,
            Price::LoopbackByte => self.loopback_byte_cost,
            Price::RemoteLatency => self.remote_latency,
            Price::RemoteByte => self.remote_byte_cost,
            Price::Lock => self.lock_overhead,
            Price::Collective => self.collective_latency,
            Price::Barrier => self.barrier_latency,
        }
    }

    /// The latency and byte prices of the link from `from` to `to`: remote
    /// between nodes; within a node, shared memory in pthreads mode and the
    /// network stack in process mode.  A rank's link to itself pays the
    /// software overhead of issuing the operation and moves no bytes.
    #[inline]
    pub fn link(&self, from: usize, to: usize) -> (Price, Option<Price>) {
        if from == to {
            (Price::SwOverhead, None)
        } else if !self.same_node(from, to) {
            (Price::RemoteLatency, Some(Price::RemoteByte))
        } else if self.pthreads {
            (Price::IntranodeLatency, Some(Price::IntranodeByte))
        } else {
            (Price::LoopbackLatency, Some(Price::LoopbackByte))
        }
    }

    /// Latency of a one-sided operation from `from` to `to`
    /// (the latency price of their [`Machine::link`]).
    #[inline]
    pub fn latency(&self, from: usize, to: usize) -> f64 {
        self.price(self.link(from, to).0)
    }

    /// Per-byte cost of a transfer from `from` to `to` (zero to itself).
    #[inline]
    pub fn byte_cost(&self, from: usize, to: usize) -> f64 {
        self.link(from, to).1.map_or(0.0, |byte| self.price(byte))
    }

    /// Cost of transferring `bytes` bytes in a single message.
    #[inline]
    pub fn transfer_cost(&self, from: usize, to: usize, bytes: usize) -> f64 {
        self.latency(from, to) + self.byte_cost(from, to) * bytes as f64
    }

    /// Hops of a tree-based barrier or collective: `ceil(log2(ranks))`,
    /// at least one.
    #[inline]
    pub fn hops(&self) -> u64 {
        self.ranks().max(2).next_power_of_two().trailing_zeros() as u64
    }

    /// A Power5/LAPI-like preset calibrated against the paper's Table 2 and
    /// Table 8 single-thread columns.
    ///
    /// * `nodes` — number of nodes,
    /// * `threads_per_node` — UPC threads per node,
    /// * `pthreads` — whether the Berkeley UPC `-pthreads` runtime is used.
    pub fn power5(nodes: usize, threads_per_node: usize, pthreads: bool) -> Machine {
        Machine {
            nodes,
            threads_per_node,
            pthreads,
            // ~160 s for 2M bodies x 2 steps at ~430 interactions/body/step
            // => ~9e-8 s per interaction (1.9 GHz in-order core, ~50 flops).
            interaction_cost: 9.0e-8,
            // Baseline single-thread force phase is ~190 s vs ~137-160 s with
            // local pointers: ~20-30 % surcharge per interaction.
            global_ptr_overhead: 2.5e-8,
            treeop_cost: 6.0e-8,
            // One multipole-acceptance test, billed per cell a force walk
            // visits: dragging the ~120-byte node record through the cache
            // plus the squared-distance/compare arithmetic — the same scale
            // as examining one child during a merge (`treeop_cost`), and
            // well under a full softened interaction (no sqrt, no
            // accumulate).
            mac_cost: 6.0e-8,
            local_access_cost: 4.0e-9,
            // LAPI one-sided latency on Power5 era hardware: ~10 us.
            remote_latency: 1.0e-5,
            remote_byte_cost: 1.0 / 1.0e9, // ~1 GB/s per link
            intranode_latency: 1.2e-6,
            intranode_byte_cost: 1.0 / 4.0e9,
            loopback_latency: 1.4e-5, // process mode: through the NIC stack
            loopback_byte_cost: 1.0 / 0.8e9,
            lock_overhead: 4.0e-6,
            barrier_latency: 8.0e-6,
            collective_latency: 1.0e-5,
            // Table 9 vs Table 8: pthreads runtime roughly doubles the
            // single-thread force time (309 s vs 158 s).
            cpu_overhead: 1.95,
            sw_overhead: 1.5e-7,
        }
    }

    /// A small, fast preset for unit tests and examples: same cost structure
    /// as [`Machine::power5`] but with one rank per node and process mode.
    pub fn test_cluster(ranks: usize) -> Machine {
        Machine::power5(ranks, 1, false)
    }

    /// A preset emulating the paper's default large-run configuration:
    /// one process per node (no pthreads), `nodes` nodes.
    pub fn process_per_node(nodes: usize) -> Machine {
        Machine::power5(nodes, 1, false)
    }

    /// A preset emulating `-pthreads` runs with `threads_per_node` UPC
    /// threads on each of `nodes` nodes.
    pub fn pthreads_per_node(nodes: usize, threads_per_node: usize) -> Machine {
        Machine::power5(nodes, threads_per_node, true)
    }
}

impl Default for Machine {
    fn default() -> Self {
        Machine::power5(1, 1, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_topology() {
        let m = Machine::power5(4, 16, true);
        assert_eq!(m.ranks(), 64);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(15), 0);
        assert_eq!(m.node_of(16), 1);
        assert!(m.same_node(17, 31));
        assert!(!m.same_node(15, 16));
    }

    #[test]
    fn local_access_is_cheapest() {
        let m = Machine::power5(4, 4, true);
        assert!(m.latency(0, 0) < m.latency(0, 1));
        assert!(m.latency(0, 1) < m.latency(0, 5));
    }

    #[test]
    fn process_mode_intranode_is_expensive() {
        // §4.1: 16 processes on one node is disastrous compared with
        // 16 pthreads on one node.
        let pthread = Machine::power5(1, 16, true);
        let process = Machine::power5(1, 16, false);
        assert!(process.latency(0, 1) > 5.0 * pthread.latency(0, 1));
    }

    #[test]
    fn pthreads_mode_slows_compute() {
        let pthread = Machine::power5(4, 1, true);
        let process = Machine::power5(4, 1, false);
        assert!(pthread.compute_factor() > 1.5);
        assert_eq!(process.compute_factor(), 1.0);
    }

    #[test]
    fn transfer_cost_scales_with_bytes() {
        let m = Machine::power5(2, 1, false);
        let small = m.transfer_cost(0, 1, 64);
        let large = m.transfer_cost(0, 1, 64 * 1024);
        assert!(large > small);
        // One large message is much cheaper than many small ones.
        assert!(large < 1024.0 * small);
    }

    #[test]
    fn collective_and_barrier_grow_logarithmically() {
        let small = Machine::power5(4, 1, false);
        let large = Machine::power5(256, 1, false);
        assert!(large.hops() < 8 * small.hops());
        assert!(large.hops() > small.hops());
        for (ranks, hops) in [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (112, 7), (256, 8)] {
            let m = Machine::power5(ranks, 1, false);
            assert_eq!(m.hops(), (ranks.max(2) as f64).log2().ceil() as u64, "{ranks} ranks");
            assert_eq!(m.hops(), hops, "{ranks} ranks");
        }
    }

    #[test]
    fn every_price_names_its_own_constant() {
        let m = Machine {
            interaction_cost: 1.0,
            global_ptr_overhead: 2.0,
            treeop_cost: 3.0,
            mac_cost: 4.0,
            local_access_cost: 5.0,
            sw_overhead: 6.0,
            intranode_latency: 7.0,
            intranode_byte_cost: 8.0,
            loopback_latency: 9.0,
            loopback_byte_cost: 10.0,
            remote_latency: 11.0,
            remote_byte_cost: 12.0,
            lock_overhead: 13.0,
            collective_latency: 14.0,
            barrier_latency: 15.0,
            ..Machine::power5(2, 2, true)
        };
        let prices: Vec<f64> = Price::ALL.iter().map(|&p| m.price(p)).collect();
        assert_eq!(prices, (1..=15).map(f64::from).collect::<Vec<_>>());
        let compute: Vec<Price> =
            Price::ALL.into_iter().filter(|p| p.ledger() == Ledger::Compute).collect();
        assert_eq!(compute, Price::ALL[..5]);
        assert_eq!(Price::Barrier.ledger(), Ledger::Sync);
        assert_eq!(m.link(1, 1), (Price::SwOverhead, None));
        assert_eq!(m.link(0, 1), (Price::IntranodeLatency, Some(Price::IntranodeByte)));
        assert_eq!(m.link(0, 2), (Price::RemoteLatency, Some(Price::RemoteByte)));
        let process = Machine { pthreads: false, ..m };
        assert_eq!(process.link(0, 1), (Price::LoopbackLatency, Some(Price::LoopbackByte)));
    }

    #[test]
    fn presets_are_consistent() {
        assert_eq!(Machine::process_per_node(8).ranks(), 8);
        assert_eq!(Machine::pthreads_per_node(8, 16).ranks(), 128);
        assert!(Machine::pthreads_per_node(8, 16).pthreads);
        assert!(!Machine::process_per_node(8).pthreads);
        assert_eq!(Machine::default().ranks(), 1);
    }
}
