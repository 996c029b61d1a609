//! Property tests for the shard plan (DESIGN.md §13): the quadtree
//! partition is total and disjoint for arbitrary coordinates — including
//! cell boundaries, the poles and the antimeridian — the scale run's
//! arrival list (the work it schedules) is the same list in the same order
//! at every shard count, and the roll-up merge is associative and
//! commutative under arbitrary regroupings.

use periscope_repro::core::shard::{Arrival, ShardPlan, ShardStats};
use periscope_repro::simnet::geo::quad_depth_for;
use periscope_repro::simnet::{GeoPoint, GeoRect, RngFactory};
use periscope_repro::workload::population::{Population, PopulationConfig};
use pscp_check::{check, ensure, Gen};

/// Arbitrary coordinates biased toward the places partitions go wrong:
/// exact cell edges at every depth, the poles, the antimeridian, and raw
/// out-of-range values that [`GeoPoint::new`] must clamp/wrap first.
fn arb_point(g: &mut Gen) -> GeoPoint {
    // Cell edges at depths 0-3 are multiples of 22.5° (lat) / 45° (lon).
    let edge = |g: &mut Gen, step: f64, n: i64| step * g.i64(-n..=n) as f64;
    let lat = match g.choice(4) {
        0 => g.f64(-90.0..=90.0),
        1 => edge(g, 22.5, 4),
        2 => [-90.0, 90.0, 0.0][g.choice(3)],
        _ => g.f64(-200.0..=200.0), // out of range: constructor clamps
    };
    let lon = match g.choice(4) {
        0 => g.f64(-180.0..=180.0),
        1 => edge(g, 45.0, 4),
        2 => [-180.0, 180.0, 0.0][g.choice(3)],
        _ => g.f64(-400.0..=400.0), // out of range: constructor wraps
    };
    GeoPoint::new(lat, lon)
}

#[test]
fn every_point_lands_in_exactly_one_cell() {
    check(
        "shard/point-in-one-cell",
        |g| (arb_point(g), g.u64(0..=3) as u8),
        |(p, depth)| {
            let cells = 1u16 << (2 * depth);
            let containing: Vec<u16> =
                (0..cells).filter(|&k| GeoRect::quad_rect(k, *depth).contains(p)).collect();
            ensure!(
                containing.len() == 1,
                "point {p:?} at depth {depth} is in {} cells: {containing:?}",
                containing.len()
            );
            let key = GeoRect::quad_cell(p, *depth);
            ensure!(
                containing == [key],
                "quad_cell says {key} but containment says {containing:?} for {p:?}"
            );
            Ok(())
        },
    );
}

#[test]
fn plan_partition_is_total_and_disjoint() {
    check(
        "shard/plan-partition",
        |g| {
            let seed = g.u64(..);
            let shards = [1usize, 4, 16, 64][g.choice(4)];
            (seed, shards)
        },
        |&(seed, shards)| {
            // A tiny but fully arbitrary world per case.
            let cfg = PopulationConfig {
                window: periscope_repro::simnet::SimDuration::from_secs(600),
                arrivals_per_sec: 0.2,
                ..PopulationConfig::small()
            };
            let pop = Population::generate(cfg, &RngFactory::new(seed));
            let plan = ShardPlan::build(&pop, shards);
            ensure!(plan.shards() == shards, "plan has {} cells, want {shards}", plan.shards());
            ensure!(
                quad_depth_for(shards) == Some(plan.depth),
                "depth {} does not match shard count {shards}",
                plan.depth
            );
            let mut seen = vec![0u32; pop.broadcasts.len()];
            for cell in &plan.cells {
                for &i in &cell.members {
                    seen[i as usize] += 1;
                    let b = &pop.broadcasts[i as usize];
                    ensure!(
                        cell.id.rect().contains(&b.location),
                        "broadcast {i} at {:?} assigned outside its cell {:?}",
                        b.location,
                        cell.id
                    );
                    ensure!(
                        plan.cell_index(&b.location) == cell.id.key as usize,
                        "cell_index disagrees with membership for broadcast {i}"
                    );
                }
            }
            for (i, &n) in seen.iter().enumerate() {
                ensure!(n == 1, "broadcast {i} assigned to {n} cells (must be exactly 1)");
            }
            Ok(())
        },
    );
}

/// The scale engine's work list is shard-invariant: the same arrivals —
/// as a multiset and as a sequence — whatever depth of plan listed them.
#[test]
fn arrival_list_is_the_same_at_every_shard_count() {
    check(
        "shard/arrivals-shard-invariant",
        |g| (g.u64(..), g.u64(..), g.u64(0..400) as usize),
        |&(world_seed, run_seed, target)| {
            let cfg = PopulationConfig {
                window: periscope_repro::simnet::SimDuration::from_secs(600),
                arrivals_per_sec: 0.2,
                ..PopulationConfig::small()
            };
            let pop = Population::generate(cfg, &RngFactory::new(world_seed));
            let base = ShardPlan::build(&pop, 1).arrivals(&pop, run_seed, target);
            ensure!(
                base.windows(2)
                    .all(|w| (w[0].minute, w[0].broadcast) < (w[1].minute, w[1].broadcast)),
                "arrivals not strictly ordered by (minute, broadcast)"
            );
            ensure!(target > 0 || base.is_empty(), "a zero target spawned {}", base.len());
            for a in &base {
                let b = &pop.broadcasts[a.broadcast as usize];
                let minute = a.minute as u64;
                ensure!(
                    !b.private
                        && b.location_public
                        && b.start.as_micros() / 60_000_000 <= minute
                        && minute <= b.end().as_micros() / 60_000_000,
                    "arrival {a:?} is not on a discoverable broadcast live in its minute"
                );
            }
            let sorted = |mut v: Vec<Arrival>| {
                v.sort_unstable_by_key(|a| (a.minute, a.broadcast, a.key));
                v
            };
            for shards in [4usize, 16] {
                let got = ShardPlan::build(&pop, shards).arrivals(&pop, run_seed, target);
                ensure!(
                    sorted(got.clone()) == sorted(base.clone()),
                    "{shards} shards list a different multiset ({} vs {} arrivals)",
                    got.len(),
                    base.len()
                );
                ensure!(got == base, "{shards} shards list the same arrivals in another order");
            }
            Ok(())
        },
    );
}

/// One arbitrary per-shard roll-up leaf.
fn arb_stats(g: &mut Gen) -> ShardStats {
    let mut st = ShardStats::new();
    st.sessions = g.u64(0..1000);
    st.primary = g.u64(0..1000);
    st.migrated_in = g.u64(0..100);
    st.never_joined = g.u64(0..50);
    st.skipped = g.u64(0..50);
    for _ in 0..g.u64(0..40) {
        st.join_us.observe(g.u64(0..60_000_000));
        st.stall_ppm.observe(g.u64(0..1_000_000));
    }
    st.watch_us = g.u64(0..u32::MAX as u64);
    st.migrations_out = g.u64(0..100);
    st.migrations_cross = g.u64(0..100);
    st.migrations_dropped = g.u64(0..100);
    st.chat_out = g.u64(0..10_000);
    st.chat_in = g.u64(0..10_000);
    st.chat_cross = g.u64(0..10_000);
    st
}

/// Folds leaves under an arbitrary grouping tree described by `splits`:
/// repeatedly merge a random contiguous run into a subtotal, then fold
/// the subtotals left-to-right.
fn fold_grouped(leaves: &[ShardStats], splits: &[usize]) -> ShardStats {
    let mut groups: Vec<ShardStats> = Vec::new();
    let mut i = 0;
    let mut si = 0;
    while i < leaves.len() {
        let take = if si < splits.len() { splits[si].clamp(1, leaves.len() - i) } else { 1 };
        si += 1;
        let mut sub = ShardStats::new();
        for leaf in &leaves[i..i + take] {
            sub.merge(leaf);
        }
        groups.push(sub);
        i += take;
    }
    let mut acc = ShardStats::new();
    for gstats in &groups {
        acc.merge(gstats);
    }
    acc
}

#[test]
fn rollup_merge_is_associative_and_commutative() {
    check(
        "shard/rollup-merge-regroup",
        |g| {
            let leaves: Vec<ShardStats> = (0..g.u64(1..10)).map(|_| arb_stats(g)).collect();
            let splits: Vec<usize> = (0..g.u64(0..6)).map(|_| g.u64(1..4) as usize).collect();
            // An arbitrary permutation via repeated swaps (commutativity).
            let swaps: Vec<(usize, usize)> = (0..g.u64(0..8))
                .map(|_| {
                    (g.u64(0..leaves.len() as u64) as usize, g.u64(0..leaves.len() as u64) as usize)
                })
                .collect();
            (leaves, splits, swaps)
        },
        |(leaves, splits, swaps)| {
            // Plan order, flat fold: the reference.
            let reference = fold_grouped(leaves, &[]);
            // Same leaves, arbitrary grouping: associativity.
            let grouped = fold_grouped(leaves, splits);
            ensure!(
                grouped.json() == reference.json(),
                "regrouped fold diverged:\n  {}\nvs {}",
                grouped.json(),
                reference.json()
            );
            // Same leaves, arbitrary order: commutativity.
            let mut shuffled = leaves.clone();
            for &(a, b) in swaps {
                shuffled.swap(a, b);
            }
            let permuted = fold_grouped(&shuffled, splits);
            ensure!(
                permuted.json() == reference.json(),
                "permuted fold diverged:\n  {}\nvs {}",
                permuted.json(),
                reference.json()
            );
            Ok(())
        },
    );
}
