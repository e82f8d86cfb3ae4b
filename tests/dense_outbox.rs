//! Differential test of the bit-frontier exchange step (dense outbox,
//! sorted per-owner batches, append-only recovery log).
//!
//! On a seeded Graph 500 graph carrying a delta overlay with
//! cross-partition inserts and deletes, every lane of the plain batch,
//! the recoverable batch, and the recoverable batch under a machine
//! crash (whose confined replay reads the recovery log) must report the
//! same `per_level` and `per_lane_visited` as the queue-based oracle,
//! across p ∈ {1, 2, 3, 4} and every batch width W ∈ {64, 128, 256,
//! 512}. On a middle machine the overlay also deletes edges from rows
//! whose remote targets lie both below and above its local range, the
//! rows whose scan takes the per-edge delete check.

use cgraph::prelude::*;
use cgraph_comm::PersistentCluster;
use cgraph_core::traverse::ValueMode;
use cgraph_core::{BatchResult, EdgeUpdate, FaultInjection, FaultPlan, RecoveryConfig};

/// splitmix64: a tiny seeded generator for picking updates and sources.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

fn graph() -> EdgeList {
    let raw = cgraph::gen::graph500(10, 8, 0x0B0C);
    let mut b = GraphBuilder::new();
    b.add_edge_list(&raw);
    b.build().edges
}

/// 48 inserts and 48 deletes whose endpoints lie in different
/// partitions (on one machine, every edge qualifies).
fn cross_partition_updates(engine: &DistributedEngine, edges: &EdgeList) -> Vec<EdgeUpdate> {
    let part = engine.partition();
    let cross = |s: u64, t: u64| part.num_partitions() == 1 || part.owner(s) != part.owner(t);
    let n = edges.num_vertices();
    let mut rng = Rng(0xD17A);
    let mut updates = Vec::new();
    while updates.len() < 48 {
        let (s, t) = (rng.below(n), rng.below(n));
        if s != t && cross(s, t) {
            updates.push(EdgeUpdate::insert(s, t));
        }
    }
    let existing: Vec<(u64, u64)> =
        edges.edges().iter().map(|e| (e.src, e.dst)).filter(|&(s, t)| cross(s, t)).collect();
    for _ in 0..48 {
        let (s, t) = existing[rng.below(existing.len() as u64) as usize];
        updates.push(EdgeUpdate::delete(s, t));
    }
    updates
}

/// Four sources on each machine strictly inside the partition order,
/// each with remote targets both below and above its machine's range,
/// paired with deletes of one target on each side (none for p < 3).
fn split_row_deletes(engine: &DistributedEngine) -> (Vec<u64>, Vec<EdgeUpdate>) {
    let part = engine.partition();
    let (mut rows, mut deletes) = (Vec::new(), Vec::new());
    for m in 1..part.num_partitions().saturating_sub(1) {
        let shard = &engine.shards()[m];
        let local = shard.local_range();
        for v in local.iter() {
            let ts = shard.out_neighbors(v);
            let below = ts.iter().find(|&&t| t < local.start);
            let above = ts.iter().find(|&&t| t >= local.end);
            if let (Some(&b), Some(&a)) = (below, above) {
                rows.push(v);
                deletes.extend([EdgeUpdate::delete(v, b), EdgeUpdate::delete(v, a)]);
                if rows.len() % 4 == 0 {
                    break;
                }
            }
        }
    }
    (rows, deletes)
}

/// Asserts every lane of `r` equals the queue-based oracle's answer.
fn assert_matches_oracle(
    r: &BatchResult,
    oracle: &[(u64, Vec<u64>)],
    ks: &[u32],
    path: &str,
    p: usize,
) {
    for (lane, (visited, levels)) in oracle.iter().enumerate() {
        let mut got: Vec<u64> = r.per_level.iter().map(|row| row[lane]).collect();
        while got.len() > 1 && got.last() == Some(&0) {
            got.pop();
        }
        let ctx = format!("{path}, p={p}, lanes={}, lane {lane} (k={})", ks.len(), ks[lane]);
        assert_eq!(&got, levels, "per_level: {ctx}");
        assert_eq!(r.per_lane_visited[lane], *visited, "per_lane_visited: {ctx}");
    }
}

#[test]
fn exchange_paths_match_queue_oracle_on_overlaid_graph() {
    let edges = graph();
    let n = edges.num_vertices();
    for p in 1..=4usize {
        let base = DistributedEngine::new(&edges, EngineConfig::new(p));
        let mut updates = cross_partition_updates(&base, &edges);
        let (split_rows, split_deletes) = split_row_deletes(&base);
        assert_eq!(
            split_rows.len(),
            4 * p.saturating_sub(2),
            "p={p}: split rows on middle machines"
        );
        updates.extend(split_deletes);
        let (engine, folded) = base.with_updates(&updates, usize::MAX);
        assert!(!folded && engine.has_delta(), "the overlay must stay unfolded");
        let cluster = PersistentCluster::new(p);
        for lanes in [64usize, 128, 256, 512] {
            let mut rng = Rng(0x5EED ^ (p * lanes) as u64);
            let mut sources: Vec<u64> = (0..lanes).map(|_| rng.below(n)).collect();
            // The split rows are sources, so their first scan runs with
            // the overlay's deletes.
            sources[..split_rows.len()].copy_from_slice(&split_rows);
            // Mostly short budgets, with a full BFS every 16th lane so
            // the batch runs long enough for checkpoints and a crash.
            let ks: Vec<u32> =
                (0..lanes).map(|i| if i % 16 == 5 { u32::MAX } else { 1 + i as u32 % 4 }).collect();
            let oracle: Vec<(u64, Vec<u64>)> = sources
                .iter()
                .zip(&ks)
                .map(|(&s, &k)| {
                    let q = engine.run_single_queue(&[s], k, ValueMode::TwoLevel);
                    let mut levels = q.per_level;
                    while levels.len() > 1 && levels.last() == Some(&0) {
                        levels.pop();
                    }
                    (q.visited, levels)
                })
                .collect();

            let plain = engine.run_traversal_batch(&sources, &ks).unwrap();
            assert_matches_oracle(&plain, &oracle, &ks, "plain batch", p);

            let rc = RecoveryConfig { checkpoint_interval: 2, max_recoveries: 2 };
            let (rec, report) =
                engine.run_traversal_batch_recoverable(&cluster, &sources, &ks, &rc, None).unwrap();
            assert_matches_oracle(&rec, &oracle, &ks, "recoverable batch", p);
            assert_eq!(report.recoveries, 0);

            // The last machine dies at superstep 3 on the first attempt:
            // with p > 1 it is replayed alone from the checkpoint at
            // boundary 2, absorbing superstep 2's logged messages.
            let plan = FaultPlan::new(11).crash(p - 1, 3).heal_after(1);
            let fault = FaultInjection { plan: &plan, job: 0, first_attempt: 0 };
            let (crashed, report) = engine
                .run_traversal_batch_recoverable(&cluster, &sources, &ks, &rc, Some(fault))
                .unwrap();
            assert_matches_oracle(&crashed, &oracle, &ks, "recoverable batch after a crash", p);
            assert_eq!(report.recoveries, 1, "p={p}, lanes={lanes}");
            if p > 1 {
                assert_eq!(report.full_rollbacks, 0, "p={p}: the crash must replay confined");
                assert_eq!(report.partitions_replayed, 1);
                assert_eq!(report.supersteps_replayed, 1);
            }
        }
        cluster.shutdown();
    }
}
