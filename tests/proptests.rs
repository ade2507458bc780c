//! Workspace-level property-based tests spanning the `bh` crate's building
//! blocks (partitioning splitters, cell summaries, phase bookkeeping) and the
//! message-passing comparator's domain splitters.

use bh::cellnode::CellNode;
use bh::partition::{compute_splitters, PartitionPlan};
use engine::report::{Phase, PhaseTimes};
use nbody::Vec3;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn splitters_partition_every_key(
        mut keyed in prop::collection::vec((any::<u64>(), 1u32..50), 1..300),
        parts in 1usize..20,
    ) {
        keyed.sort_unstable_by_key(|&(k, _)| k);
        let splitters = compute_splitters(&keyed, parts);
        prop_assert_eq!(splitters.len(), parts - 1);
        prop_assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        let plan = PartitionPlan { splitters };
        // Every key maps to exactly one zone in range.
        for &(k, _) in &keyed {
            prop_assert!(plan.owner_of_key(k) < parts);
        }
        // Zone assignment is monotone in the key (zones are contiguous).
        for pair in keyed.windows(2) {
            prop_assert!(plan.owner_of_key(pair[0].0) <= plan.owner_of_key(pair[1].0));
        }
    }

    #[test]
    fn splitters_balance_within_one_heavy_body(
        mut keyed in prop::collection::vec((any::<u64>(), 1u32..20), 30..300),
        parts in 2usize..8,
    ) {
        keyed.sort_unstable_by_key(|&(k, _)| k);
        // Avoid duplicate keys straddling zone boundaries, which legitimately
        // skew the balance (all equal keys must land in one zone).
        keyed.dedup_by_key(|&mut (k, _)| k);
        prop_assume!(keyed.len() >= parts * 4);
        let splitters = compute_splitters(&keyed, parts);
        let plan = PartitionPlan { splitters };
        let mut zone_costs = vec![0u64; parts];
        for &(k, c) in &keyed {
            zone_costs[plan.owner_of_key(k)] += c as u64;
        }
        let total: u64 = zone_costs.iter().sum();
        let ideal = total as f64 / parts as f64;
        let heaviest = keyed.iter().map(|&(_, c)| c as u64).max().unwrap() as f64;
        for &z in &zone_costs {
            prop_assert!(z as f64 <= ideal + heaviest + 1.0,
                "zone cost {z} exceeds ideal {ideal} by more than one body ({heaviest})");
        }
    }

    #[test]
    fn cell_summary_merge_is_commutative_and_mass_conserving(
        parts in prop::collection::vec(((-10.0f64..10.0, -10.0f64..10.0, -10.0f64..10.0), 0.01f64..5.0), 1..20),
    ) {
        let mut forward = CellNode::new_cell(Vec3::ZERO, 1.0);
        let mut backward = CellNode::new_cell(Vec3::ZERO, 1.0);
        for &((x, y, z), m) in &parts {
            forward.merge_summary(m, Vec3::new(x, y, z), 1, 1);
        }
        for &((x, y, z), m) in parts.iter().rev() {
            backward.merge_summary(m, Vec3::new(x, y, z), 1, 1);
        }
        let total: f64 = parts.iter().map(|&(_, m)| m).sum();
        prop_assert!((forward.mass - total).abs() < 1e-9);
        prop_assert!((forward.mass - backward.mass).abs() < 1e-9);
        prop_assert!((forward.cofm - backward.cofm).norm() < 1e-6);
        prop_assert_eq!(forward.nbodies as usize, parts.len());
        // The merged centre of mass lies inside the points' bounding box.
        let lo = parts.iter().fold(Vec3::splat(f64::INFINITY), |a, &((x, y, z), _)| a.min(Vec3::new(x, y, z)));
        let hi = parts.iter().fold(Vec3::splat(f64::NEG_INFINITY), |a, &((x, y, z), _)| a.max(Vec3::new(x, y, z)));
        prop_assert!(forward.cofm.x >= lo.x - 1e-9 && forward.cofm.x <= hi.x + 1e-9);
        prop_assert!(forward.cofm.y >= lo.y - 1e-9 && forward.cofm.y <= hi.y + 1e-9);
        prop_assert!(forward.cofm.z >= lo.z - 1e-9 && forward.cofm.z <= hi.z + 1e-9);
    }

    #[test]
    fn phase_times_algebra(
        a in prop::collection::vec(0.0f64..100.0, 6),
        b in prop::collection::vec(0.0f64..100.0, 6),
    ) {
        let mut ta = PhaseTimes::default();
        let mut tb = PhaseTimes::default();
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            ta.set(phase, a[i]);
            tb.set(phase, b[i]);
        }
        let max = ta.max(&tb);
        let sum = ta.add(&tb);
        for (i, phase) in Phase::ALL.into_iter().enumerate() {
            prop_assert_eq!(max.get(phase), a[i].max(b[i]));
            prop_assert!((sum.get(phase) - (a[i] + b[i])).abs() < 1e-12);
            prop_assert!(max.get(phase) <= sum.get(phase));
        }
        prop_assert!((sum.total() - (ta.total() + tb.total())).abs() < 1e-9);
        // Percentages sum to 100 whenever the total is positive.
        if ta.total() > 0.0 {
            let percent_sum: f64 = Phase::ALL.iter().map(|&p| ta.percent(p)).sum();
            prop_assert!((percent_sum - 100.0).abs() < 1e-6);
        }
    }

    #[test]
    fn mpi_domain_splitters_assign_every_key_monotonically(
        mut samples in prop::collection::vec((any::<u64>(), 0.01f64..10.0), 1..200),
        ranks in 1usize..16,
    ) {
        let splitters = bh_mpi::domain::splitters_from_samples(samples.clone(), ranks);
        prop_assert_eq!(splitters.len(), ranks - 1);
        prop_assert!(splitters.windows(2).all(|w| w[0] <= w[1]));
        samples.sort_unstable_by_key(|&(k, _)| k);
        let mut last_owner = 0usize;
        for &(k, _) in &samples {
            let owner = bh_mpi::domain::owner_of(k, &splitters);
            prop_assert!(owner < ranks);
            prop_assert!(owner >= last_owner, "ownership must be monotone in the key");
            last_owner = owner;
        }
    }

    #[test]
    fn cellnode_child_geometry_partitions_the_cell(
        cx in -10.0f64..10.0, cy in -10.0f64..10.0, cz in -10.0f64..10.0,
        half in 0.1f64..10.0,
        px in -1.0f64..1.0, py in -1.0f64..1.0, pz in -1.0f64..1.0,
    ) {
        let cell = CellNode::new_cell(Vec3::new(cx, cy, cz), half);
        // A point inside the cell lands in exactly the child cell whose
        // octant index the cell computes for it.
        let p = cell.center + Vec3::new(px, py, pz) * half;
        let octant = cell.octant_of(p);
        let (child_center, child_half) = cell.child_geometry(octant);
        prop_assert!((p - child_center).max_abs_component() <= child_half + 1e-9);
        // And in no other child.
        for other in 0..8 {
            if other != octant {
                let (oc, oh) = cell.child_geometry(other);
                prop_assert!((p - oc).max_abs_component() >= oh - 1e-9);
            }
        }
    }

    #[test]
    fn the_hex_codec_is_the_format_macro_and_round_trips(v in any::<u64>(), at in 0usize..16) {
        use engine::snap::{parse_hex_u32, parse_hex_u64, push_hex_u32, push_hex_u64};
        let mut out = Vec::new();
        push_hex_u64(&mut out, v);
        prop_assert_eq!(out.clone(), format!("{v:016x}").into_bytes());
        prop_assert_eq!(parse_hex_u64(&out), Some(v));
        prop_assert_eq!(parse_hex_u64(format!("{v:016X}").as_bytes()), Some(v));
        // One byte that is no hex digit, anywhere, and the text is refused.
        for bad in [b'+', b'-', b' ', b'g', b'G', b'/', b':', b'@', b'`', 0x00, 0xff] {
            let mut text = out.clone();
            text[at] = bad;
            prop_assert_eq!(parse_hex_u64(&text), None);
        }
        let low = v as u32;
        out.clear();
        push_hex_u32(&mut out, low);
        prop_assert_eq!(out.clone(), format!("{low:08x}").into_bytes());
        prop_assert_eq!(parse_hex_u32(&out), Some(low));
        prop_assert_eq!(parse_hex_u32(&out[1..]), None);
    }
}
