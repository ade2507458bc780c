//! Property-based tests for the PGAS emulator.

use pgas::{GlobalPtr, Machine, Price, Runtime, SharedArena, SharedVec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shared_vec_block_distribution_covers_every_index(ranks in 1usize..16, len in 1usize..200) {
        let v: SharedVec<u8> = SharedVec::new(ranks, len, 0);
        let mut counted = 0usize;
        for r in 0..ranks {
            let range = v.local_range(r);
            for i in range.clone() {
                prop_assert_eq!(v.owner_of(i), r);
            }
            counted += range.len();
        }
        prop_assert_eq!(counted, len);
        // Owners are monotone in the index.
        for i in 1..len {
            prop_assert!(v.owner_of(i) >= v.owner_of(i - 1));
        }
    }

    #[test]
    fn memput_memget_roundtrip(ranks in 1usize..6, data in prop::collection::vec(any::<u32>(), 1..100)) {
        let runtime = Runtime::new(Machine::test_cluster(ranks));
        let shared: SharedVec<u32> = SharedVec::new(ranks, data.len(), 0);
        let data_ref = &data;
        let report = runtime.run(|ctx| {
            if ctx.rank() == 0 {
                shared.put_block(ctx, 0, data_ref);
            }
            ctx.barrier();
            shared.get_block(ctx, 0..data_ref.len())
        });
        for rank in report.ranks {
            prop_assert_eq!(&rank.result, data_ref);
        }
    }

    #[test]
    fn ilist_gather_returns_requested_elements(ranks in 1usize..6, picks in prop::collection::vec(0usize..50, 1..40)) {
        let runtime = Runtime::new(Machine::test_cluster(ranks));
        let shared: SharedVec<u64> = SharedVec::from_fn(ranks, 50, |i| (i * 3) as u64);
        let picks_ref = &picks;
        let report = runtime.run(|ctx| shared.get_ilist(ctx, picks_ref));
        for rank in report.ranks {
            let expected: Vec<u64> = picks_ref.iter().map(|&i| (i * 3) as u64).collect();
            prop_assert_eq!(rank.result, expected);
        }
    }

    #[test]
    fn allreduce_vec_sum_equals_sequential_sum(ranks in 1usize..6, len in 1usize..20) {
        let runtime = Runtime::new(Machine::test_cluster(ranks));
        let report = runtime.run(|ctx| {
            let mine: Vec<f64> = (0..len).map(|i| (ctx.rank() * 100 + i) as f64).collect();
            ctx.allreduce_vec_sum(&mine)
        });
        let expected: Vec<f64> =
            (0..len).map(|i| (0..ranks).map(|r| (r * 100 + i) as f64).sum()).collect();
        for rank in report.ranks {
            prop_assert_eq!(&rank.result, &expected);
        }
    }

    #[test]
    fn exchange_is_a_permutation_of_payloads(ranks in 1usize..6, payload in 0u32..1000) {
        let runtime = Runtime::new(Machine::test_cluster(ranks));
        let report = runtime.run(|ctx| {
            // Every rank sends `payload + dest` to each destination.
            let outgoing: Vec<Vec<u32>> =
                (0..ctx.ranks()).map(|d| vec![payload + d as u32]).collect();
            ctx.exchange(outgoing)
        });
        for (rank_id, rank) in report.ranks.into_iter().enumerate() {
            // Every source sent exactly one value addressed to this rank.
            let got: Vec<u32> = rank.result.into_iter().flatten().collect();
            prop_assert_eq!(got, vec![payload + rank_id as u32; ranks]);
        }
    }

    #[test]
    fn arena_vlist_gather_preserves_order(ranks in 2usize..6, n in 1usize..30) {
        let runtime = Runtime::new(Machine::test_cluster(ranks));
        let arena: SharedArena<u64> = SharedArena::new(ranks);
        let report = runtime.run(|ctx| {
            let mine: Vec<GlobalPtr> =
                (0..n).map(|i| arena.alloc(ctx, (ctx.rank() * 1000 + i) as u64)).collect();
            let all: Vec<Vec<GlobalPtr>> = ctx.allgather(mine);
            ctx.barrier();
            // Gather everyone's elements interleaved and check ordering.
            let ptrs: Vec<GlobalPtr> = (0..n).flat_map(|i| all.iter().map(move |v| v[i])).collect();
            let values = arena.get_vlist(ctx, &ptrs);
            let expected: Vec<u64> =
                (0..n).flat_map(|i| (0..ctx.ranks()).map(move |r| (r * 1000 + i) as u64)).collect();
            values == expected
        });
        prop_assert!(report.ranks.into_iter().all(|r| r.result));
    }

    #[test]
    fn barrier_aligns_arbitrary_charges(ranks in 1usize..8, charges in prop::collection::vec(0u64..50_000_000, 1..8)) {
        let runtime = Runtime::new(Machine::test_cluster(ranks));
        let charges_ref = &charges;
        let report = runtime.run(|ctx| {
            let c = charges_ref[ctx.rank() % charges_ref.len()];
            ctx.bill(Price::Interaction, c);
            ctx.barrier();
            ctx.now()
        });
        let clocks: Vec<f64> = report.ranks.iter().map(|r| r.result).collect();
        let max = clocks.iter().copied().fold(0.0, f64::max);
        for c in clocks {
            prop_assert!((c - max).abs() < 1e-12);
        }
    }
}
