//! Partitioning and body-redistribution phases.
//!
//! SPLASH-2 assigns bodies to threads with *costzones*: bodies are ordered by
//! a space-filling traversal of the octree and cut into contiguous zones of
//! equal accumulated cost.  The paper keeps that partitioner and adds, in
//! §5.2, a *redistribution* phase that physically moves each body into its
//! owner's shared memory so every later access is local.
//!
//! Here the costzones cut is realised with Morton keys: each rank computes
//! the keys and costs of the bodies it currently owns, rank 0 gathers them,
//! computes `ranks − 1` splitter keys that balance cost, and broadcasts the
//! splitters.  Ownership of any body is then a pure function of its key,
//! which is how every rank learns both who loses and who gains each body.
//! The subsequent [`redistribute_phase`] exchanges the (few) migrating bodies
//! and, from [`OptLevel::Redistribute`] up, charges the indexed bulk gather
//! (`upc_memget_ilist`) that the paper uses to move them.

use crate::shared::{read_body, read_root_geometry, BhShared, RankState};
use engine::config::SimConfig;
use nbody::morton;
use pgas::{Ctx, Price};

/// Outcome of the partitioning phase: Morton splitters defining the zones.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// `ranks − 1` ascending Morton keys; zone `r` holds keys in
    /// `[splitters[r−1], splitters[r])` (with open ends at the extremes).
    pub splitters: Vec<u64>,
}

impl PartitionPlan {
    /// The rank that owns a body with Morton key `key` under this plan.
    #[inline]
    pub fn owner_of_key(&self, key: u64) -> usize {
        // partition_point returns the number of splitters <= key, which is
        // exactly the zone index.
        self.splitters.partition_point(|&s| s <= key)
    }
}

/// The partitioning phase (the "Partitioning" row of the tables).
///
/// Returns the plan plus, for reuse by [`redistribute_phase`], this rank's
/// owned body ids paired with their Morton keys.
pub fn partition_phase(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
) -> (PartitionPlan, Vec<(u32, u64)>) {
    let ranks = ctx.ranks();
    let (center, rsize) = read_root_geometry(ctx, shared, st, cfg.opt);

    // 1. Morton key and cost of every owned body.
    let mut keyed: Vec<(u32, u64)> = Vec::with_capacity(st.my_ids.len());
    let mut contributions: Vec<(u64, u32)> = Vec::with_capacity(st.my_ids.len());
    for &id in &st.my_ids {
        let body = read_body(ctx, shared, st, cfg, id);
        let key = morton::encode(body.pos, center, rsize);
        keyed.push((id, key));
        contributions.push((key, body.cost.max(1)));
    }
    ctx.bill(Price::TreeOp, st.my_ids.len() as u64);

    // 2. Gather (key, cost) pairs on rank 0.
    let mut outgoing: Vec<Vec<(u64, u32)>> = vec![Vec::new(); ranks];
    outgoing[0] = contributions;
    let gathered = ctx.exchange(outgoing);

    // 3. Rank 0 computes cost-balanced splitters.
    let splitters = if ctx.rank() == 0 {
        let mut all: Vec<(u64, u32)> = gathered.into_iter().flatten().collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        ctx.bill(Price::TreeOp, all.len() as u64);
        compute_splitters(&all, ranks)
    } else {
        Vec::new()
    };

    // 4. Broadcast the splitters.
    let splitters = ctx.broadcast(0, splitters);
    (PartitionPlan { splitters }, keyed)
}

/// Computes `parts − 1` splitter keys cutting the sorted `(key, cost)` list
/// into contiguous zones of approximately equal cost.
pub fn compute_splitters(sorted: &[(u64, u32)], parts: usize) -> Vec<u64> {
    assert!(parts > 0);
    let total: u64 = sorted.iter().map(|&(_, c)| c as u64).sum();
    let mut splitters = Vec::with_capacity(parts.saturating_sub(1));
    let mut acc = 0u64;
    let mut zone = 0usize;
    let mut idx = 0usize;
    let mut remaining = total as f64;
    while zone + 1 < parts {
        let remaining_zones = (parts - zone) as f64;
        let target = remaining / remaining_zones;
        let mut zone_cost = 0u64;
        // Always leave enough bodies for the remaining zones to be non-empty
        // when possible.
        while idx < sorted.len()
            && ((zone_cost as f64) < target || zone_cost == 0)
            && sorted.len() - idx > parts - zone - 1
        {
            zone_cost += sorted[idx].1 as u64;
            idx += 1;
        }
        acc += zone_cost;
        let _ = acc;
        remaining -= zone_cost as f64;
        // The splitter is the key of the first body of the next zone (or
        // u64::MAX when everything has been consumed).
        let key = if idx < sorted.len() { sorted[idx].0 } else { u64::MAX };
        splitters.push(key);
        zone += 1;
    }
    splitters
}

/// Result of the redistribution phase.
#[derive(Debug, Clone, Default)]
pub struct RedistributeOutcome {
    /// Number of bodies that migrated *to* this rank this step.
    pub migrated_in: u64,
    /// Number of bodies owned after redistribution.
    pub owned: u64,
}

/// The body-redistribution phase (§5.2; the "Redistribution" row).
///
/// All levels run the ownership exchange (SPLASH-2 also re-partitions the
/// *pointers* each step); from [`engine::config::OptLevel::Redistribute`] up,
/// the migrated bodies' data is additionally fetched with an indexed bulk
/// gather so that later accesses are local.
pub fn redistribute_phase(
    ctx: &Ctx,
    shared: &BhShared,
    st: &mut RankState,
    cfg: &SimConfig,
    plan: &PartitionPlan,
    keyed: Vec<(u32, u64)>,
) -> RedistributeOutcome {
    let ranks = ctx.ranks();

    // Route every owned body id to its new owner (keyed by Morton order so
    // each rank's list arrives sorted in space-filling order).
    let mut outgoing: Vec<Vec<(u64, u32)>> = vec![Vec::new(); ranks];
    for &(id, key) in &keyed {
        outgoing[plan.owner_of_key(key)].push((key, id));
    }
    let received = ctx.exchange(outgoing);

    // New ownership list, in Morton order.
    let mut new_ids: Vec<(u64, u32)> = received.into_iter().flatten().collect();
    new_ids.sort_unstable();
    let new_ids: Vec<u32> = new_ids.into_iter().map(|(_, id)| id).collect();

    // Which of these are new to this rank?
    let migrated: Vec<usize> =
        new_ids.iter().filter(|&&id| !st.owns(id)).map(|&id| id as usize).collect();

    if cfg.opt.redistributes_bodies() && !migrated.is_empty() {
        // Fetch the migrated bodies' data in bulk (upc_memget_ilist); the
        // values are already visible through the body table, so only the
        // transfer cost matters.
        let _ = shared.bodytab.get_ilist(ctx, &migrated);
    }

    let outcome =
        RedistributeOutcome { migrated_in: migrated.len() as u64, owned: new_ids.len() as u64 };
    st.set_owned(new_ids);
    ctx.bill(Price::LocalAccess, st.my_ids.len() as u64);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::{BhShared, RankState};
    use engine::config::{OptLevel, SimConfig};
    use pgas::{Machine, Runtime};

    #[test]
    fn splitters_balance_cost() {
        let sorted: Vec<(u64, u32)> =
            (0..1000).map(|i| (i as u64 * 10, 1 + (i % 7) as u32)).collect();
        let splitters = compute_splitters(&sorted, 8);
        assert_eq!(splitters.len(), 7);
        assert!(splitters.windows(2).all(|w| w[0] <= w[1]), "splitters must be sorted");
        // Reconstruct zone costs.
        let plan = PartitionPlan { splitters };
        let mut costs = vec![0u64; 8];
        for &(k, c) in &sorted {
            costs[plan.owner_of_key(k)] += c as u64;
        }
        let total: u64 = costs.iter().sum();
        let ideal = total as f64 / 8.0;
        for &c in &costs {
            assert!((c as f64) < 1.6 * ideal, "zone cost {c} too far from ideal {ideal}");
            assert!(c > 0, "no zone may be empty");
        }
    }

    #[test]
    fn splitters_with_single_part() {
        let sorted = vec![(1u64, 1u32), (2, 1)];
        assert!(compute_splitters(&sorted, 1).is_empty());
    }

    #[test]
    fn splitters_with_fewer_bodies_than_parts() {
        let sorted = vec![(10u64, 5u32), (20, 5), (30, 5)];
        let splitters = compute_splitters(&sorted, 8);
        assert_eq!(splitters.len(), 7);
        let plan = PartitionPlan { splitters };
        // The three bodies land in three distinct zones.
        let owners: std::collections::HashSet<usize> =
            sorted.iter().map(|&(k, _)| plan.owner_of_key(k)).collect();
        assert_eq!(owners.len(), 3);
    }

    #[test]
    fn owner_of_key_is_monotone() {
        let plan = PartitionPlan { splitters: vec![100, 200, 300] };
        assert_eq!(plan.owner_of_key(0), 0);
        assert_eq!(plan.owner_of_key(99), 0);
        assert_eq!(plan.owner_of_key(100), 1);
        assert_eq!(plan.owner_of_key(250), 2);
        assert_eq!(plan.owner_of_key(5000), 3);
    }

    #[test]
    fn partition_and_redistribute_cover_all_bodies_exactly_once() {
        let cfg = SimConfig::test(256, 4, OptLevel::Redistribute);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            // The partitioner needs a root geometry; compute it like the
            // tree-build phase would.
            let bodies = shared.bodytab.snapshot();
            let (center, rsize) = nbody::body::root_cell(&bodies);
            st.center = center;
            st.rsize = rsize;
            let (plan, keyed) = partition_phase(ctx, &shared, &mut st, &cfg);
            let outcome = redistribute_phase(ctx, &shared, &mut st, &cfg, &plan, keyed);
            assert_eq!(outcome.owned as usize, st.my_ids.len());
            st.my_ids.clone()
        });
        let mut seen = vec![false; 256];
        for r in &report.ranks {
            for &id in &r.result {
                assert!(!seen[id as usize], "body {id} owned by two ranks");
                seen[id as usize] = true;
            }
            assert!(!r.result.is_empty(), "every rank should own some bodies");
        }
        assert!(seen.iter().all(|&s| s), "every body must have an owner");
    }

    #[test]
    fn second_partition_migrates_little() {
        // Running the partition twice in a row without moving bodies should
        // migrate (almost) nothing the second time — the §5.2 observation
        // that only ~2 % of bodies move per step.
        let cfg = SimConfig::test(512, 4, OptLevel::Redistribute);
        let shared = BhShared::new(&cfg);
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let mut st = RankState::new(ctx, &shared, &cfg);
            let bodies = shared.bodytab.snapshot();
            let (center, rsize) = nbody::body::root_cell(&bodies);
            st.center = center;
            st.rsize = rsize;
            let (plan, keyed) = partition_phase(ctx, &shared, &mut st, &cfg);
            let first = redistribute_phase(ctx, &shared, &mut st, &cfg, &plan, keyed);
            let (plan2, keyed2) = partition_phase(ctx, &shared, &mut st, &cfg);
            let second = redistribute_phase(ctx, &shared, &mut st, &cfg, &plan2, keyed2);
            (first.migrated_in, second.migrated_in)
        });
        let second_total: u64 = report.ranks.iter().map(|r| r.result.1).sum();
        assert_eq!(second_total, 0, "an identical repartition must not migrate bodies");
    }
}
