//! The ledger is complete: whatever a rank does, its simulated clock is
//! the sum of its three seconds ledgers (compute, communication,
//! synchronization), so no billed event moves the clock without saying
//! what it was.

use pgas::shared::SharedScalar;
use pgas::{GlobalLock, GlobalPtr, Machine, RankStats, Runtime, SharedArena, SharedVec};

/// Asserts that `clock` equals the sum of `stats`' ledgers within 1e-12
/// relative.
fn assert_booked(clock: f64, stats: &RankStats, what: &str) {
    let booked = stats.compute_seconds + stats.comm_seconds + stats.sync_seconds;
    assert!(
        (clock - booked).abs() <= 1e-12 * clock.abs().max(booked.abs()),
        "after {what}: clock {clock} but the ledgers book {booked} \
         (compute {}, comm {}, sync {})",
        stats.compute_seconds,
        stats.comm_seconds,
        stats.sync_seconds
    );
}

/// Runs every billed container operation on `machine`, checking the
/// ledger after each one on every rank.
fn every_op_is_booked(machine: Machine) {
    let ranks = machine.ranks();
    let label = format!(
        "{} x {} {}",
        machine.nodes,
        machine.threads_per_node,
        if machine.pthreads { "pthreads" } else { "processes" }
    );
    let arena: SharedArena<[u64; 4]> = SharedArena::new(ranks);
    let vec: SharedVec<u64> = SharedVec::from_fn(ranks, 8 * ranks, |i| i as u64);
    let scalar = SharedScalar::new(0.5f64);
    let lock = GlobalLock::new(ranks - 1);
    let report = Runtime::new(machine).run(|ctx| {
        let check = |what: &str| {
            let clock = ctx.now();
            assert_booked(clock, &ctx.stats_snapshot(), &format!("{what} on rank {}", ctx.rank()));
        };
        let (me, n) = (ctx.rank(), ctx.ranks());
        let next = (me + 1) % n;

        // The per-rank heap.
        let mine: Vec<GlobalPtr> = (0..3).map(|i| arena.alloc(ctx, [me as u64 + i; 4])).collect();
        check("arena alloc");
        let all = ctx.allgather(mine.clone());
        check("allgather");
        for ptrs in [&mine, &all[next]] {
            arena.read(ctx, ptrs[0]);
            check("arena read");
            arena.read_fields(ctx, ptrs[1], 3);
            check("arena read_fields");
        }
        arena.read_local(ctx, mine[2]);
        check("arena read_local");
        arena.write(ctx, mine[0], [7; 4]);
        check("arena write, local");
        arena.write_local(ctx, mine[1], [8; 4]);
        check("arena write_local");
        ctx.barrier();
        check("barrier");
        arena.update(ctx, all[next][2], |v| v[0] += 1);
        check("arena update, remote");
        arena.update(ctx, mine[2], |v| v[1] += 1);
        check("arena update, local");
        ctx.barrier();
        check("barrier");
        if me == 0 {
            arena.write(ctx, all[n - 1][0], [9; 4]);
            check("arena write, remote");
        }
        ctx.barrier();
        let view = arena.frozen(ctx);
        view.read_fields(ctx, all[next][0], 3);
        view.read_fields(ctx, mine[0], 3);
        check("frozen read_fields");
        ctx.barrier();

        // Non-blocking gathers, polled and waited.
        let everyone: Vec<GlobalPtr> = all.iter().map(|ptrs| ptrs[0]).collect();
        let handle = arena.get_vlist_async(ctx, &everyone);
        check("get_vlist_async");
        let handle = match ctx.try_sync(handle) {
            Ok(_) => panic!("a gather cannot complete at its issue"),
            Err(handle) => handle,
        };
        check("try_sync");
        ctx.wait_sync(handle);
        check("wait_sync");
        arena.get_vlist(ctx, &everyone);
        check("get_vlist");

        // The block-distributed array.
        let (own, theirs) = (vec.local_range(me), vec.local_range(next));
        vec.read(ctx, own.start);
        check("vec read, local");
        vec.read(ctx, theirs.start);
        check("vec read, remote");
        vec.read_fields(ctx, own.start, 3);
        vec.read_fields(ctx, theirs.start, 3);
        check("vec read_fields");
        vec.write(ctx, own.start + 1, 10);
        check("vec write, local");
        vec.write(ctx, theirs.start + 1, 11);
        check("vec write, remote");
        vec.read_local(ctx, own.start + 2);
        vec.write_local(ctx, own.start + 2, 12);
        check("vec read_local / write_local");
        vec.update(ctx, own.start + 3, |x| *x += 1);
        vec.update(ctx, theirs.start + 3, |x| *x += 1);
        check("vec update");
        vec.get_block(ctx, 0..vec.len());
        check("vec get_block");
        vec.put_block(ctx, own.start + 4, &[1, 2]);
        vec.put_block(ctx, theirs.start + 4, &[3, 4]);
        check("vec put_block");
        vec.get_ilist(ctx, &[own.start, theirs.start + 5, 0]);
        check("vec get_ilist");

        // The shared scalar, local to rank 0 and remote to the others.
        scalar.read(ctx);
        check("scalar read");
        ctx.barrier();
        if me == 0 {
            scalar.write(ctx, 0.25);
            check("scalar write");
        }
        ctx.barrier();

        // Locks, collectives and messages.
        drop(lock.lock(ctx));
        check("lock");
        ctx.allreduce_sum(me as f64);
        check("allreduce");
        let outgoing = (0..n).map(|dest| vec![(me, dest); dest % 3]).collect();
        ctx.exchange(outgoing);
        check("exchange");
        ctx.send(next, 1, vec![me as u64; 5]);
        check("send");
        ctx.recv::<u64>((me + n - 1) % n, 1);
        check("recv");
        ctx.send(me, 2, vec![0u8; 3]);
        ctx.recv::<u8>(me, 2);
        check("send and recv to self");
        assert!(ctx.try_recv::<u8>(me, 3).is_none());
        check("try_recv");
        ctx.barrier();
        check("final barrier");
    });
    for r in &report.ranks {
        assert_booked(r.clock, &r.stats, &format!("the run, rank {} of {label}", r.rank));
        assert!(r.stats.compute_seconds > 0.0 && r.stats.comm_seconds > 0.0);
        assert!(r.stats.sync_seconds > 0.0, "{label}: every rank passed barriers");
    }
}

#[test]
fn every_billed_operation_is_booked_on_two_ranks() {
    for pthreads in [false, true] {
        every_op_is_booked(Machine::power5(2, 1, pthreads));
        every_op_is_booked(Machine::power5(1, 2, pthreads));
    }
}

#[test]
fn every_billed_operation_is_booked_on_four_ranks() {
    for pthreads in [false, true] {
        every_op_is_booked(Machine::power5(4, 1, pthreads));
        every_op_is_booked(Machine::power5(2, 2, pthreads));
    }
}
