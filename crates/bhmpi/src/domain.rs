//! Domain decomposition for the message-passing solver.
//!
//! A message-passing Barnes-Hut code cannot rely on a shared body table: each
//! rank privately owns a subset of the bodies and ownership must be
//! renegotiated explicitly when the distribution drifts.  This module
//! implements the standard Morton-order decomposition used by distributed
//! tree codes (Warren & Salmon, cited as [26] by the paper): bodies are
//! ordered by the Morton code of their coordinates and the ordered sequence
//! is cut into one contiguous, equal-cost segment per rank.
//!
//! The cut points (key *splitters*) are agreed with a weighted sample sort:
//!
//! 1. every rank computes the bounding box of its bodies; an allgather turns
//!    the local boxes into the global root cell;
//! 2. every rank Morton-sorts its bodies, picks a fixed number of samples at
//!    equal-cost intervals, and contributes them (key + represented cost) to
//!    an allgather;
//! 3. every rank independently sorts the combined samples and reads off the
//!    splitter keys at equal-cost quantiles — so all ranks agree on the
//!    ownership map without further communication;
//! 4. an all-to-all exchange moves each body to its owner (the explicit
//!    message-passing counterpart of the paper's §5.2 redistribution, and the
//!    collective repartitioning of Dinan et al. cited in §8).

use nbody::body::Body;
use nbody::morton;
use nbody::vec3::Vec3;
use pgas::{Ctx, Price};

/// Number of splitter samples each rank contributes per decomposition round.
pub const SAMPLES_PER_RANK: usize = 32;

/// The global root-cell geometry agreed by all ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalBox {
    /// Centre of the global root cell.
    pub center: Vec3,
    /// Side length of the global root cell (power of two, SPLASH-2 style).
    pub rsize: f64,
}

/// The result of one domain-decomposition round on one rank.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// The global root cell.
    pub global: GlobalBox,
    /// Bodies owned by this rank after the exchange, Morton-sorted.
    pub owned: Vec<Body>,
    /// Bodies that arrived from other ranks during the exchange.
    pub migrated_in: u64,
    /// Morton-key splitters: rank `r` owns keys in
    /// `splitters[r-1]..splitters[r]` (with open ends for the first and last
    /// rank).
    pub splitters: Vec<u64>,
}

/// Computes the global root cell from the locally owned bodies.
///
/// Every rank contributes its local bounding box; the result is identical on
/// all ranks.  Ranks with no bodies contribute a degenerate, ignored box.
pub fn global_box(ctx: &Ctx, owned: &[Body]) -> GlobalBox {
    ctx.bill(Price::LocalAccess, owned.len() as u64);
    let (lo, hi) = if owned.is_empty() {
        (Vec3::splat(f64::INFINITY), Vec3::splat(f64::NEG_INFINITY))
    } else {
        nbody::body::bounding_box(owned)
    };
    let boxes = ctx.allgather((lo, hi));
    let mut glo = Vec3::splat(f64::INFINITY);
    let mut ghi = Vec3::splat(f64::NEG_INFINITY);
    for (lo, hi) in boxes {
        glo = glo.min(lo);
        ghi = ghi.max(hi);
    }
    if glo.x > ghi.x {
        // No bodies anywhere.
        return GlobalBox { center: Vec3::ZERO, rsize: 1.0 };
    }
    let center = (glo + ghi) * 0.5;
    let half_extent = (ghi - glo).max_abs_component() * 0.5;
    let mut rsize = 1.0_f64;
    while rsize < 2.0 * half_extent + 1e-12 {
        rsize *= 2.0;
    }
    GlobalBox { center, rsize }
}

/// The Morton key of a body position inside the global box.
#[inline]
pub fn key_of(pos: Vec3, global: &GlobalBox) -> u64 {
    morton::encode(pos, global.center, global.rsize)
}

/// Picks up to [`SAMPLES_PER_RANK`] weighted key samples from a rank's
/// Morton-sorted bodies.
///
/// Each sample is `(key, represented_cost)`: the cost of the run of bodies it
/// stands for, so the sum of sample weights equals the rank's total cost.
fn local_samples(owned: &[Body], global: &GlobalBox) -> Vec<(u64, f64)> {
    if owned.is_empty() {
        return Vec::new();
    }
    let mut keyed: Vec<(u64, f64)> =
        owned.iter().map(|b| (key_of(b.pos, global), b.cost.max(1) as f64)).collect();
    keyed.sort_unstable_by_key(|&(k, _)| k);
    let total: f64 = keyed.iter().map(|&(_, c)| c).sum();
    let nsamples = SAMPLES_PER_RANK.min(keyed.len());
    let chunk = total / nsamples as f64;

    let mut samples = Vec::with_capacity(nsamples);
    let mut acc = 0.0;
    let mut since_last = 0.0;
    for &(key, cost) in &keyed {
        acc += cost;
        since_last += cost;
        if acc + 1e-12 >= chunk * (samples.len() + 1) as f64 {
            samples.push((key, since_last));
            since_last = 0.0;
        }
    }
    if since_last > 0.0 {
        // Attach any residual cost to the last sample so weights stay exact.
        if let Some(last) = samples.last_mut() {
            last.1 += since_last;
        } else {
            samples.push((keyed.last().unwrap().0, since_last));
        }
    }
    samples
}

/// Derives `ranks − 1` splitter keys from the combined weighted samples.
///
/// Deterministic, so every rank computes the same splitters from the same
/// allgathered samples.
pub fn splitters_from_samples(mut samples: Vec<(u64, f64)>, ranks: usize) -> Vec<u64> {
    assert!(ranks > 0, "cannot decompose over zero ranks");
    if ranks == 1 {
        return Vec::new();
    }
    samples.sort_unstable_by_key(|&(k, _)| k);
    let total: f64 = samples.iter().map(|&(_, c)| c).sum();
    if total == 0.0 || samples.is_empty() {
        return vec![u64::MAX; ranks - 1];
    }
    let per_rank = total / ranks as f64;
    let mut splitters = Vec::with_capacity(ranks - 1);
    let mut acc = 0.0;
    for &(key, cost) in &samples {
        acc += cost;
        while splitters.len() < ranks - 1 && acc >= per_rank * (splitters.len() + 1) as f64 {
            // Keys strictly greater than the splitter go to the next rank.
            splitters.push(key);
        }
    }
    while splitters.len() < ranks - 1 {
        splitters.push(u64::MAX);
    }
    splitters
}

/// The rank owning a Morton key under the given splitters.
#[inline]
pub fn owner_of(key: u64, splitters: &[u64]) -> usize {
    splitters.partition_point(|&s| s < key)
}

/// Computes the ownership plan: global box and Morton-key splitters
/// (one sample allgather).  This is the "partitioning" part of a
/// decomposition round; no body moves yet.
pub fn plan(ctx: &Ctx, owned: &[Body]) -> (GlobalBox, Vec<u64>) {
    let global = global_box(ctx, owned);
    let samples = local_samples(owned, &global);
    ctx.bill(Price::LocalAccess, owned.len() as u64);
    let all_samples: Vec<(u64, f64)> = ctx.allgather(samples).into_iter().flatten().collect();
    let splitters = splitters_from_samples(all_samples, ctx.ranks());
    (global, splitters)
}

/// Moves every body to the owner designated by the plan (an all-to-all
/// exchange) and Morton-sorts the received set.
///
/// Returns the new owned set and the number of bodies that arrived from
/// other ranks.
pub fn exchange_bodies(
    ctx: &Ctx,
    owned: Vec<Body>,
    global: &GlobalBox,
    splitters: &[u64],
) -> (Vec<Body>, u64) {
    let mut outgoing: Vec<Vec<Body>> = vec![Vec::new(); ctx.ranks()];
    for b in owned {
        let dest = owner_of(key_of(b.pos, global), splitters);
        outgoing[dest].push(b);
    }
    let kept = outgoing[ctx.rank()].len();
    let incoming = ctx.exchange(outgoing);

    let mut owned: Vec<Body> = incoming.into_iter().flatten().collect();
    let migrated_in = (owned.len() - kept) as u64;
    // Keep bodies Morton-sorted so later tree builds and walks have locality.
    owned.sort_unstable_by_key(|b| key_of(b.pos, global));
    ctx.bill(Price::LocalAccess, owned.len() as u64);
    (owned, migrated_in)
}

/// Runs one full decomposition round: global box, splitter agreement and the
/// all-to-all body exchange.
///
/// `owned` is consumed; the returned [`Decomposition`] holds this rank's new
/// body set.
pub fn decompose(ctx: &Ctx, owned: Vec<Body>) -> Decomposition {
    let (global, splitters) = plan(ctx, &owned);
    let (owned, migrated_in) = exchange_bodies(ctx, owned, &global, &splitters);
    Decomposition { global, owned, migrated_in, splitters }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbody::plummer::{generate, PlummerConfig};
    use pgas::{Machine, Runtime};

    /// Splits the Plummer bodies block-wise, as the initial distribution does.
    fn block_split(bodies: &[Body], ranks: usize, rank: usize) -> Vec<Body> {
        let per = bodies.len().div_ceil(ranks);
        bodies.iter().skip(rank * per).take(per).copied().collect()
    }

    #[test]
    fn global_box_contains_every_body() {
        let bodies = generate(&PlummerConfig::new(512, 3));
        let rt = Runtime::new(Machine::test_cluster(4));
        let all = bodies.clone();
        let report = rt.run(|ctx| {
            let mine = block_split(&bodies, ctx.ranks(), ctx.rank());
            global_box(ctx, &mine)
        });
        let gb = report.ranks[0].result;
        for r in &report.ranks {
            assert_eq!(r.result, gb, "all ranks must agree on the global box");
        }
        for b in &all {
            assert!((b.pos - gb.center).max_abs_component() <= gb.rsize / 2.0 + 1e-9);
        }
    }

    #[test]
    fn splitters_cover_the_key_space_in_order() {
        let samples: Vec<(u64, f64)> = (0..256).map(|i| (i as u64 * 1000, 1.0)).collect();
        for ranks in [1, 2, 3, 8, 16] {
            let s = splitters_from_samples(samples.clone(), ranks);
            assert_eq!(s.len(), ranks - 1);
            for w in s.windows(2) {
                assert!(w[0] <= w[1], "splitters must be non-decreasing");
            }
            // Every key maps to a valid owner.
            for &(k, _) in &samples {
                assert!(owner_of(k, &s) < ranks);
            }
        }
    }

    #[test]
    fn splitters_balance_uniform_cost() {
        let samples: Vec<(u64, f64)> = (0..1024).map(|i| (i as u64, 1.0)).collect();
        let s = splitters_from_samples(samples.clone(), 8);
        let mut counts = vec![0usize; 8];
        for &(k, _) in &samples {
            counts[owner_of(k, &s)] += 1;
        }
        let ideal = 1024.0 / 8.0;
        for c in &counts {
            assert!((*c as f64) < 1.3 * ideal, "owner count {c} too far above ideal {ideal}");
            assert!(*c > 0);
        }
    }

    #[test]
    fn empty_samples_give_degenerate_splitters() {
        let s = splitters_from_samples(Vec::new(), 4);
        assert_eq!(s, vec![u64::MAX; 3]);
        assert_eq!(owner_of(12345, &s), 0);
    }

    #[test]
    fn decompose_preserves_every_body_exactly_once() {
        let bodies = generate(&PlummerConfig::new(600, 11));
        let rt = Runtime::new(Machine::test_cluster(5));
        let report = rt.run(|ctx| {
            let mine = block_split(&bodies, ctx.ranks(), ctx.rank());
            let d = decompose(ctx, mine);
            d.owned.iter().map(|b| b.id).collect::<Vec<_>>()
        });
        let mut seen = vec![false; 600];
        for r in &report.ranks {
            for &id in &r.result {
                assert!(!seen[id as usize], "body {id} owned twice");
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every body must have exactly one owner");
    }

    #[test]
    fn decompose_balances_cost() {
        let mut bodies = generate(&PlummerConfig::new(2000, 13));
        for b in &mut bodies {
            b.cost = (1.0 + 30.0 / (0.1 + b.pos.norm())) as u32;
        }
        let rt = Runtime::new(Machine::test_cluster(8));
        let report = rt.run(|ctx| {
            let mine = block_split(&bodies, ctx.ranks(), ctx.rank());
            let d = decompose(ctx, mine);
            d.owned.iter().map(|b| b.cost.max(1) as u64).sum::<u64>()
        });
        let costs: Vec<u64> = report.ranks.iter().map(|r| r.result).collect();
        let total: u64 = costs.iter().sum();
        let ideal = total as f64 / costs.len() as f64;
        let max = *costs.iter().max().unwrap() as f64;
        assert!(max < 1.4 * ideal, "max rank cost {max} vs ideal {ideal}");
    }

    #[test]
    fn decompose_owned_sets_are_spatially_compact() {
        let bodies = generate(&PlummerConfig::new(800, 17));
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let mine = block_split(&bodies, ctx.ranks(), ctx.rank());
            let d = decompose(ctx, mine);
            d.owned
        });
        let mean_dist = |set: &[Body]| {
            let mut total = 0.0;
            let mut count = 0usize;
            for (a, i) in set.iter().enumerate() {
                for j in set.iter().skip(a + 1) {
                    total += i.pos.dist(j.pos);
                    count += 1;
                }
            }
            if count == 0 {
                0.0
            } else {
                total / count as f64
            }
        };
        let global = mean_dist(&bodies);
        let zonal: f64 = report.ranks.iter().map(|r| mean_dist(&r.result)).sum::<f64>()
            / report.ranks.len() as f64;
        assert!(zonal < 0.85 * global, "owned sets should be compact: {zonal} vs {global}");
    }

    #[test]
    fn second_decomposition_migrates_little() {
        // Once bodies are distributed by Morton range, re-running the
        // decomposition without moving anything should migrate only what the
        // re-sampled splitters shift at the boundaries — the §5.2 "ownership
        // is stable" property.
        let bodies = generate(&PlummerConfig::new(1000, 19));
        let rt = Runtime::new(Machine::test_cluster(4));
        let report = rt.run(|ctx| {
            let mine = block_split(&bodies, ctx.ranks(), ctx.rank());
            let first = decompose(ctx, mine);
            let second = decompose(ctx, first.owned.clone());
            (first.migrated_in, second.migrated_in, second.owned.len())
        });
        for r in &report.ranks {
            let (_, second_migrated, owned) = r.result;
            assert!(
                (second_migrated as f64) < 0.15 * owned.max(1) as f64,
                "re-decomposition should move few bodies ({second_migrated} of {owned} moved)"
            );
        }
    }

    #[test]
    fn single_rank_decomposition_is_identity_up_to_order() {
        let bodies = generate(&PlummerConfig::new(200, 23));
        let rt = Runtime::new(Machine::test_cluster(1));
        let report = rt.run(|ctx| decompose(ctx, bodies.clone()));
        let d = &report.ranks[0].result;
        assert_eq!(d.owned.len(), 200);
        assert_eq!(d.migrated_in, 0);
        assert!(d.splitters.is_empty());
        let mut ids: Vec<u32> = d.owned.iter().map(|b| b.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn empty_world_is_handled() {
        let rt = Runtime::new(Machine::test_cluster(2));
        let report = rt.run(|ctx| decompose(ctx, Vec::new()));
        for r in &report.ranks {
            assert!(r.result.owned.is_empty());
            assert_eq!(r.result.global.rsize, 1.0);
        }
    }
}
