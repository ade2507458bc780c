//! A deterministic pin for the paper's fine-grained rungs (Tables 2–4).
//!
//! The uncached force walk reads every visited cell field by field through
//! its pointer-to-shared; the emulator bills each field read and performs
//! the copy once.  On the sorted build (no locks, deterministic affinity) a
//! run repeats exactly, so these tests fail if a change bills a field read
//! it no longer performs, or performs one it no longer bills.

use barnes_hut_upc::bh::cellnode::COMPACT_NODE_BYTES;
use barnes_hut_upc::prelude::*;

fn run(fine_grained_fields: u32) -> SimResult {
    let mut cfg = SimConfig::new(1024, Machine::process_per_node(2), OptLevel::Redistribute);
    cfg.build = TreeBuild::Sorted;
    cfg.steps = 2;
    cfg.measured_steps = 1;
    cfg.fine_grained_fields = fine_grained_fields;
    bh::run_simulation(&cfg)
}

#[test]
fn redistribute_on_the_sorted_build_repeats_exactly() {
    let (a, b) = (run(3), run(3));
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

#[test]
fn field_count_scales_the_billed_reads_and_nothing_else() {
    let [one, three, five] = [1, 3, 5].map(run);
    for other in [&three, &five] {
        assert!(
            engine::snap::bodies_bits_equal(&one.bodies, &other.bodies),
            "how many field reads a visit is billed must not reach the physics"
        );
        assert_eq!(one.total_stats().interactions, other.total_stats().interactions);
        assert_eq!(one.total_stats().macs, other.total_stats().macs);
    }
    // Every visit of a remote cell is `fields` gets; everything else the run
    // fetches does not depend on the field count: gets = a + b * fields.
    let gets = [&one, &three, &five].map(|r| r.total_stats().remote_gets);
    let per_two_fields = gets[1] - gets[0];
    assert!(per_two_fields > 0, "remote cell visits must be billed per field ({gets:?})");
    assert_eq!(
        gets[2] - gets[1],
        per_two_fields,
        "remote gets must be linear in fields ({gets:?})"
    );
    // Each extra get moves one compact record: the sorted build's billed
    // node size.
    let bytes = [&one, &three, &five].map(|r| r.total_stats().bytes_in);
    for (i, j) in [(0, 1), (1, 2)] {
        assert_eq!(
            bytes[j] - bytes[i],
            (gets[j] - gets[i]) * COMPACT_NODE_BYTES as u64,
            "bytes in per extra remote get ({gets:?}, {bytes:?})"
        );
    }
    assert!(one.total < three.total && three.total < five.total);
}
