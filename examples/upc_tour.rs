//! A tour of the PGAS (UPC-emulation) substrate itself: shared arrays,
//! per-thread shared heaps, global pointers, collectives, locks and
//! non-blocking aggregated gathers — each with the communication cost the
//! emulator charges for it.
//!
//! ```text
//! cargo run --release --example upc_tour -- [ranks]
//! ```

use barnes_hut_upc::prelude::*;
use pgas::{GlobalLock, Machine, Price};

fn main() {
    let ranks: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4);
    let machine = Machine::process_per_node(ranks);
    let runtime = Runtime::new(machine);

    println!("UPC-style PGAS tour on {ranks} emulated ranks");
    println!();

    // A block-distributed shared array (upc_global_alloc) ...
    let table: SharedVec<u64> = SharedVec::new(ranks, ranks * 8, 0);
    // ... a per-thread shared heap (upc_alloc) ...
    let arena: SharedArena<u64> = SharedArena::new(ranks);
    // ... and a global lock.
    let lock = GlobalLock::new(0);

    let report = runtime.run(|ctx| {
        // 1. Every rank fills its own block with local writes.
        for i in table.local_range(ctx.rank()) {
            table.write_local(ctx, i, (ctx.rank() * 100 + i) as u64);
        }
        ctx.barrier();

        // 2. Fine-grained remote reads vs one bulk get of a neighbour's block.
        let neighbour = (ctx.rank() + 1) % ctx.ranks();
        let t0 = ctx.now();
        let mut fine_sum = 0u64;
        for i in table.local_range(neighbour) {
            fine_sum += table.read(ctx, i);
        }
        let fine_cost = ctx.now() - t0;
        let t1 = ctx.now();
        let bulk: u64 = table.get_block(ctx, table.local_range(neighbour)).into_iter().sum();
        let bulk_cost = ctx.now() - t1;
        assert_eq!(fine_sum, bulk);

        // 3. Allocate in the local shared heap and share the pointers.
        let mine = arena.alloc(ctx, 1000 + ctx.rank() as u64);
        let everyone: Vec<GlobalPtr> = ctx.allgather(mine);

        // 4. Aggregated non-blocking gather of everyone's element, with
        //    compute overlapping the transfer.
        let t2 = ctx.now();
        let handle = arena.get_vlist_async(ctx, &everyone);
        // Pretend to work: twice as long as the fine-grained reads took.
        let work = 2.0 * fine_cost.max(1e-6) / ctx.machine().interaction_cost;
        ctx.bill(Price::Interaction, work.ceil() as u64);
        let values = ctx.wait_sync(handle);
        let async_cost = ctx.now() - t2;

        // 5. A reduction and a mutual-exclusion update.
        let total = ctx.allreduce_sum(values.iter().sum::<u64>() as f64);
        {
            let _guard = lock.lock(ctx);
            // critical section
        }
        ctx.barrier();

        (fine_cost, bulk_cost, async_cost, total, ctx.stats_snapshot())
    });

    println!(
        "{:<6} {:>14} {:>14} {:>14} {:>12} {:>12}",
        "rank", "fine-grained", "bulk memget", "async vlist", "remote gets", "messages"
    );
    for r in &report.ranks {
        let (fine, bulk, asynchronous, _, stats) = &r.result;
        println!(
            "{:<6} {:>12.1}us {:>12.1}us {:>12.1}us {:>12} {:>12}",
            r.rank,
            fine * 1e6,
            bulk * 1e6,
            asynchronous * 1e6,
            stats.remote_gets,
            stats.messages
        );
    }
    let total = report.ranks[0].result.3;
    println!();
    println!("allreduce over every rank's gathered values: {total}");
    println!("simulated makespan: {:.1} us", report.makespan() * 1e6);
    println!();
    println!("note how one bulk get costs a single latency while the fine-grained loop pays one per element,");
    println!("and how the aggregated non-blocking gather overlaps its transfer with compute.");
}
