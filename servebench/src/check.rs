//! Correctness gates: served answers against a plain engine with no
//! cache and no index.

use crate::client::Answer;
use crate::inputs::K;
use cgraph_core::{DistributedEngine, EngineConfig, KhopQuery, QueryScheduler, SchedulerConfig};
use cgraph_graph::{EdgeList, MAX_LANES};
use std::collections::{BTreeMap, BTreeSet};

/// Reference `(visited, per_level)` for `sources` from
/// `QueryScheduler::execute` on a freshly built single-machine engine
/// over `edges`: no cache, no index, and no cross-machine path shared
/// with the served engine.
pub fn reference(edges: &EdgeList, sources: &BTreeSet<u64>) -> BTreeMap<u64, (u64, Vec<u64>)> {
    let engine = DistributedEngine::new(edges, EngineConfig::new(1));
    let queries: Vec<KhopQuery> =
        sources.iter().enumerate().map(|(i, &s)| KhopQuery::single(i, s, K)).collect();
    let config = SchedulerConfig { batch_lanes: MAX_LANES, ..Default::default() };
    let results = QueryScheduler::new(&engine, config).execute(&queries);
    sources.iter().zip(results).map(|(&s, r)| (s, (r.visited, r.per_level))).collect()
}

/// Checks `answers`, all stamped with `epoch`, against the reference on
/// `edges`; returns one line per mismatch.
pub fn mismatches(edges: &EdgeList, epoch: u64, answers: &[&Answer]) -> Vec<String> {
    let expect = reference(edges, &answers.iter().map(|a| a.source).collect());
    let mut bad = Vec::new();
    for a in answers {
        let (v, pl) = &expect[&a.source];
        if a.epoch != epoch {
            bad.push(format!(
                "source {}: answer stamped with epoch {}, expected {epoch}",
                a.source, a.epoch
            ));
        } else if (*v, pl) != (a.visited, &a.per_level) {
            bad.push(format!(
                "source {} epoch {epoch}: served visited {} levels {:?}, reference visited {v} levels {pl:?}",
                a.source, a.visited, a.per_level
            ));
        }
    }
    bad
}
