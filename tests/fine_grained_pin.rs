//! Deterministic pins for the paper's fine-grained rungs (Tables 2–4).
//!
//! The uncached force walk reads every visited cell field by field through
//! its pointer-to-shared; the emulator bills each field read and hands the
//! walk the cell from the epoch's frozen copy of the arena.  Every run
//! below is lock-free or single-rank, so it repeats exactly, and the
//! golden fingerprints fail if a change bills a field read it no longer
//! performs, performs one it no longer bills, or moves any simulated bit.

use barnes_hut_upc::prelude::*;

/// A 1024-body run of the redistribute rung on the sorted build, 2 ranks.
fn run_sorted_1024() -> SimResult {
    let mut cfg = SimConfig::new(1024, Machine::process_per_node(2), OptLevel::Redistribute);
    cfg.build = TreeBuild::Sorted;
    cfg.steps = 2;
    cfg.measured_steps = 1;
    bh::run_simulation(&cfg)
}

#[test]
fn redistribute_on_the_sorted_build_repeats_exactly() {
    let (a, b) = (run_sorted_1024(), run_sorted_1024());
    assert_eq!(a.total.to_bits(), b.total.to_bits(), "{} vs {}", a.total, b.total);
    let (sa, sb) = (a.total_stats(), b.total_stats());
    assert_eq!(sa.lock_acquires, 0, "the sorted build takes no locks");
    assert_eq!(sa.remote_gets, sb.remote_gets);
    assert_eq!(sa.messages, sb.messages);
    assert_eq!(sa.bytes_in, sb.bytes_in);
    assert_eq!(sa.interactions, sb.interactions);
    assert_eq!(sa.macs, sb.macs);
    assert!(engine::snap::bodies_bits_equal(&a.bodies, &b.bodies));
}

/// Everything a run of the uncached walk bills and computes, as text: the
/// simulated total and every phase's time as f64 bits, every rank's
/// counters (its seconds as bits), and the state digest of the final
/// bodies.
fn fingerprint(result: &SimResult) -> Vec<String> {
    let bits = |x: f64| format!("{:016x}", x.to_bits());
    let p = &result.phases;
    let mut lines = vec![
        format!("total {}", bits(result.total)),
        format!(
            "phases tree {} cofm {} partition {} redistribute {} force {} advance {}",
            bits(p.tree),
            bits(p.cofm),
            bits(p.partition),
            bits(p.redistribute),
            bits(p.force),
            bits(p.advance)
        ),
    ];
    for (rank, r) in result.ranks.iter().enumerate() {
        let s = &r.stats;
        lines.push(format!(
            "rank {rank} gets {} puts {} local {} messages {} in {} out {} locks {} vlists {} \
             single {} interactions {} tree_ops {} macs {} compute {} comm {} sync {}",
            s.remote_gets,
            s.remote_puts,
            s.local_accesses,
            s.messages,
            s.bytes_in,
            s.bytes_out,
            s.lock_acquires,
            s.vlist_requests,
            s.vlist_single_source,
            s.interactions,
            s.tree_ops,
            s.macs,
            bits(s.compute_seconds),
            bits(s.comm_seconds),
            bits(s.sync_seconds)
        ));
    }
    lines.push(format!("digest {}", snapstore::digest_bodies(&result.bodies)));
    lines
}

/// A 512-body Plummer run of `opt` on `nodes` single-rank nodes, 2 steps
/// with the second measured.
fn run(opt: OptLevel, nodes: usize, build: TreeBuild, scalar_cache: bool) -> SimResult {
    let mut cfg = SimConfig::new(512, Machine::process_per_node(nodes), opt);
    cfg.build = build;
    cfg.steps = 2;
    cfg.measured_steps = 1;
    cfg.software_scalar_cache = scalar_cache;
    bh::run_simulation(&cfg)
}

/// Asserts that a run's fingerprint is the recorded one.
fn assert_pinned(name: &str, result: &SimResult, pinned: &[&str]) {
    assert_eq!(fingerprint(result), pinned, "{name} moved off its recorded fingerprint");
}

#[test]
fn the_three_uncached_rungs_at_one_rank_are_pinned_bit_for_bit() {
    use OptLevel::*;
    let insertion = TreeBuild::Insertion;
    assert_pinned("baseline", &run(Baseline, 1, insertion, false), BASELINE_1);
    assert_pinned(
        "baseline + software scalar cache",
        &run(Baseline, 1, insertion, true),
        BASELINE_SCALAR_CACHE_1,
    );
    assert_pinned(
        "replicate-scalars",
        &run(ReplicateScalars, 1, insertion, false),
        REPLICATE_SCALARS_1,
    );
    assert_pinned("redistribute", &run(Redistribute, 1, insertion, false), REDISTRIBUTE_1);
}

#[test]
fn redistribute_on_the_sorted_build_is_pinned_bit_for_bit_at_two_and_four_ranks() {
    let sorted = TreeBuild::Sorted;
    assert_pinned("2 ranks", &run(OptLevel::Redistribute, 2, sorted, false), REDISTRIBUTE_SORTED_2);
    assert_pinned("4 ranks", &run(OptLevel::Redistribute, 4, sorted, false), REDISTRIBUTE_SORTED_4);
}

// Recorded from the one-ledger clock: every priced event is a count, turned
// into time as count × price, and a local element read through a
// pointer-to-shared costs the dereference surcharge plus one local access
// in every container.  Against the walk that fetched every visited cell
// through its slot, every integer counter and the digest are unchanged.
const BASELINE_1: &[&str] = &[
    "total 3f993986338b47cb",
    "phases tree 3f7045b8460217e4 cofm 3f1c4379f4b00d00 partition 3f2086e0da4ae500 redistribute 3ef50c0956489800 force 3f94cafd8c29bbdd advance 3f1a8657e22df800",
    "rank 0 gets 0 puts 0 local 760948 messages 8 in 0 out 0 locks 1580 vlists 0 single 0 interactions 115334 tree_ops 9594 macs 110562 compute 3fa5b5399964fc96 comm 3f7c2829bfc1f75b sync 3f1d5c31593e5fb9",
    "digest b876b542ae9a0292370fc1d306bc761fd850337fcc123f9273d2239cb98a577d",
];
const BASELINE_SCALAR_CACHE_1: &[&str] = &[
    "total 3f964f0b000e42bd",
    "phases tree 3f702aedbf60a890 cofm 3f1c4379f4b00d00 partition 3f2086e0da4ae500 redistribute 3ef50c0956489800 force 3f91e734fa5512a4 advance 3f1a8657e22df800",
    "rank 0 gets 0 puts 0 local 760948 messages 8 in 0 out 0 locks 1580 vlists 0 single 0 interactions 115334 tree_ops 9594 macs 110562 compute 3fa2ca53061d8c94 comm 3f7c2829bfc1f75b sync 3f1d5c31593e5fb9",
    "digest b876b542ae9a0292370fc1d306bc761fd850337fcc123f9273d2239cb98a577d",
];
const REPLICATE_SCALARS_1: &[&str] = &[
    "total 3f95d78b8f0c445a",
    "phases tree 3f7026853eb2871c cofm 3f1c4379f4b00d00 partition 3f2084eea2f19900 redistribute 3ef50c0956489800 force 3f9170d38ded4f36 advance 3f1a8657e22df800",
    "rank 0 gets 0 puts 0 local 532996 messages 8 in 0 out 0 locks 1580 vlists 0 single 0 interactions 115334 tree_ops 9594 macs 110562 compute 3fa252c2670fa609 comm 3f7c2829bfc1f75b sync 3f1d5c31593e5fb9",
    "digest b876b542ae9a0292370fc1d306bc761fd850337fcc123f9273d2239cb98a577d",
];
const REDISTRIBUTE_1: &[&str] = &[
    "total 3f957348d58f71b0",
    "phases tree 3f6f9accc1dc7b40 cofm 3f111f9e3c26de00 partition 3f15e6018d5a0300 redistribute 3ef50c0956489800 force 3f914f67fac3b3a9 advance 3ef0fa81c46e6000",
    "rank 0 gets 0 puts 0 local 514564 messages 8 in 0 out 0 locks 1580 vlists 0 single 0 interactions 115334 tree_ops 9594 macs 110562 compute 3fa1ee7fad92d360 comm 3f7c2829bfc1f75b sync 3f1d5c31593e5fb9",
    "digest b876b542ae9a0292370fc1d306bc761fd850337fcc123f9273d2239cb98a577d",
];
const REDISTRIBUTE_SORTED_2: &[&str] = &[
    "total 3fe28fb72c157674",
    "phases tree 3f43d15cee315800 cofm 3ee0c6f7a0b60000 partition 3f16628f63ad0000 redistribute 3f048d55be784000 force 3fe2899366129d55 advance 3ee95dfd94ca0000",
    "rank 0 gets 87512 puts 0 local 161053 messages 87403 in 10514960 out 8256 locks 0 vlists 0 single 0 interactions 57667 tree_ops 16688 macs 55281 compute 3f8f950274e924e0 comm 3fec4e55229c372f sync 3fd0dfd054ec966c",
    "rank 1 gets 113611 puts 0 local 134888 messages 113506 in 13638280 out 16616 locks 0 vlists 0 single 0 interactions 57667 tree_ops 15622 macs 55281 compute 3f8de61c654c9c20 comm 3ff2612c529954f8 sync 3f350200f25496be",
    "digest b876b542ae9a0292370fc1d306bc761fd850337fcc123f9273d2239cb98a577d",
];
const REDISTRIBUTE_SORTED_4: &[&str] = &[
    "total 3fdfe03423af42e0",
    "phases tree 3f407cc96e0c6c00 cofm 3ef0c6f7a0b60000 partition 3f198e4f16464000 redistribute 3f1999b7aa2e6000 force 3fdfd433f786e844 advance 3ef30ac9b2910000",
    "rank 0 gets 57773 puts 0 local 65755 messages 57698 in 6954104 out 5440 locks 0 vlists 0 single 0 interactions 28261 tree_ops 9889 macs 27214 compute 3f7dc10c01f47f76 comm 3fe2b112414b23ed sync 3fdb9ef86bea9262",
    "rank 1 gets 100463 puts 0 local 26129 messages 100398 in 12056848 out 13816 locks 0 vlists 0 single 0 interactions 29475 tree_ops 6662 macs 28170 compute 3f791bfac3914afe comm 3ff042767a2fc6ee sync 3f43ae957696aebf",
    "rank 2 gets 80819 puts 0 local 45974 messages 80750 in 9703688 out 10640 locks 0 vlists 0 single 0 interactions 29533 tree_ops 8127 macs 28156 compute 3f7bd4db16c51c06 comm 3fea280eef5381d7 sync 3fc9715fa70d283d",
    "rank 3 gets 83820 puts 0 local 38543 messages 83745 in 10061648 out 11880 locks 0 vlists 0 single 0 interactions 28065 tree_ops 7276 macs 27022 compute 3f79c4f96ec153c6 comm 3feb2059ef2c14aa sync 3fc5a0b2b4eafb33",
    "digest b876b542ae9a0292370fc1d306bc761fd850337fcc123f9273d2239cb98a577d",
];
