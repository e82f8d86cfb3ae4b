//! Seeded inputs. The graph, the query streams and the update stream of
//! every workload derive from the workload seed alone, so one seed
//! always replays the same traffic against the same graph.

use cgraph_core::{DistributedEngine, EdgeUpdate, UpdateBatch};
use cgraph_gen::QueryStream;
use cgraph_graph::EdgeList;
use std::collections::BTreeSet;

/// Hop budget of every query.
pub const K: u32 = 3;
/// Sources the index holds sketches for (the builder keeps the
/// highest-out-degree boundary vertices).
pub const INDEX_SOURCES: usize = 64;
/// Candidate sources of the Zipf streams.
pub const ZIPF_CANDIDATES: usize = 4096;
/// Zipf exponent of the hot-set streams.
pub const ZIPF_ALPHA: f64 = 1.0;
/// Length of a pre-drawn query stream; the client wraps around it.
pub const STREAM_LEN: usize = 1 << 18;
/// Edge updates per writer batch: 4 inserts to 1 delete.
pub const UPDATE_INSERTS: usize = 8;
/// Deletes per writer batch.
pub const UPDATE_DELETES: usize = 2;
/// Pre-drawn writer batches; more than any run commits.
pub const UPDATE_BATCHES: usize = 2048;

/// One traffic mix the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Uniform 3-hop sources: the cache and index rarely help, so the
    /// engine does nearly all the work.
    KhopUniform,
    /// Zipf(1.0) sources over a candidate set headed by the indexed
    /// boundary vertices: most queries never reach the engine.
    ZipfHot,
    /// Zipf reads beside a writer that applies and commits updates on
    /// a smaller, durable graph.
    CommitMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::KhopUniform, Workload::ZipfHot, Workload::CommitMix];

    /// The workload named `name` on the command line.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KhopUniform => "khop_uniform",
            Workload::ZipfHot => "zipf_hot",
            Workload::CommitMix => "commit_mix",
        }
    }

    /// Graph 500 `(scale, edge factor)`. The two read-only workloads
    /// share one graph size; `commit_mix` uses a smaller graph so one
    /// commit, index rebuild included, costs tens of milliseconds.
    pub fn graph_size(self) -> (u32, usize) {
        match self {
            Workload::KhopUniform | Workload::ZipfHot => (15, 32),
            Workload::CommitMix => (11, 16),
        }
    }
}

/// Deterministic 64-bit generator (SplitMix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`; the
    /// streams of one seed are independent of each other.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stream ids: one independent generator per input.
const GRAPH: u64 = 1;
const UNIFORM: u64 = 2;
const CANDIDATES: u64 = 3;
const ZIPF: u64 = 4;
const UPDATES: u64 = 5;
/// Stream id of the benchmark's own sampling (oracle samples, re-asked
/// sources), kept apart from the workload inputs.
pub const SAMPLING: u64 = 6;

/// The workload's Graph 500 graph.
pub fn graph(w: Workload, seed: u64) -> EdgeList {
    let (scale, ef) = w.graph_size();
    cgraph_gen::graph500(scale, ef, Rng::new(seed, GRAPH).next_u64())
}

/// Vertices with at least one incident edge, ascending.
pub fn non_isolated(edges: &EdgeList) -> Vec<u64> {
    let mut touched = vec![false; edges.num_vertices() as usize];
    for e in edges.edges() {
        touched[e.src as usize] = true;
        touched[e.dst as usize] = true;
    }
    (0..edges.num_vertices()).filter(|&v| touched[v as usize]).collect()
}

/// The sources a run queries, in arrival order.
pub fn query_stream(
    w: Workload,
    seed: u64,
    edges: &EdgeList,
    engine: &DistributedEngine,
) -> Vec<u64> {
    let live = non_isolated(edges);
    match w {
        Workload::KhopUniform => {
            let mut rng = Rng::new(seed, UNIFORM);
            (0..STREAM_LEN).map(|_| live[rng.below(live.len() as u64) as usize]).collect()
        }
        Workload::ZipfHot | Workload::CommitMix => {
            let candidates = zipf_candidates(seed, &live, engine);
            let ranks = QueryStream::zipf_over(
                Rng::new(seed, ZIPF).next_u64(),
                ZIPF_ALPHA,
                STREAM_LEN,
                candidates.len(),
            );
            ranks.sources(&candidates)
        }
    }
}

/// Zipf candidates, hottest first: the [`INDEX_SOURCES`] boundary
/// vertices of highest out-degree (the ones the index covers) take the
/// head ranks; a seeded sample of the other non-isolated vertices
/// fills the tail up to [`ZIPF_CANDIDATES`].
pub fn zipf_candidates(seed: u64, live: &[u64], engine: &DistributedEngine) -> Vec<u64> {
    let shards = engine.shards();
    let mut boundary: Vec<u64> =
        shards.iter().flat_map(|s| s.boundary_vertices().iter().copied()).collect();
    boundary.sort_unstable();
    boundary.dedup();
    boundary.sort_by_key(|&v| (std::cmp::Reverse(shards[0].global_out_degree(v)), v));
    boundary.truncate(INDEX_SOURCES);
    let head: BTreeSet<u64> = boundary.iter().copied().collect();
    let mut rest: Vec<u64> = live.iter().copied().filter(|v| !head.contains(v)).collect();
    let mut rng = Rng::new(seed, CANDIDATES);
    // Partial Fisher-Yates: the first `want` entries become the tail.
    let want = ZIPF_CANDIDATES.saturating_sub(boundary.len()).min(rest.len());
    for i in 0..want {
        let j = i + rng.below((rest.len() - i) as u64) as usize;
        rest.swap(i, j);
    }
    boundary.extend_from_slice(&rest[..want]);
    boundary
}

/// The writer's update batches, in commit order: [`UPDATE_INSERTS`]
/// inserts between random distinct vertices and [`UPDATE_DELETES`]
/// deletes of base edges. A delete of an edge an earlier batch already
/// removed is a no-op, so every batch is valid against every epoch.
pub fn update_batches(seed: u64, edges: &EdgeList) -> Vec<Vec<EdgeUpdate>> {
    let n = edges.num_vertices();
    let base = edges.edges();
    let mut rng = Rng::new(seed, UPDATES);
    (0..UPDATE_BATCHES)
        .map(|_| {
            let mut batch = Vec::with_capacity(UPDATE_INSERTS + UPDATE_DELETES);
            for i in 0..UPDATE_INSERTS + UPDATE_DELETES {
                // One delete after every fourth insert.
                if i % 5 == 4 {
                    let e = base[rng.below(base.len() as u64) as usize];
                    batch.push(EdgeUpdate::delete(e.src, e.dst));
                } else {
                    let s = rng.below(n);
                    let t = (s + 1 + rng.below(n - 1)) % n;
                    batch.push(EdgeUpdate::insert(s, t));
                }
            }
            batch
        })
        .collect()
}

/// `updates` as the batch type `apply_updates` takes.
pub fn to_batch(updates: &[EdgeUpdate]) -> UpdateBatch {
    let mut b = UpdateBatch::new();
    for &u in updates {
        b.push(u);
    }
    b
}

/// The edge set after `batches` were committed in order over `edges`
/// (last update wins per pair), as an edge list over the same vertex
/// range.
pub fn edges_after<'a>(
    edges: &EdgeList,
    batches: impl IntoIterator<Item = &'a Vec<EdgeUpdate>>,
) -> EdgeList {
    let mut set: BTreeSet<(u64, u64)> = edges.edges().iter().map(|e| (e.src, e.dst)).collect();
    for u in batches.into_iter().flatten() {
        if u.is_insert() {
            set.insert((u.src(), u.dst()));
        } else {
            set.remove(&(u.src(), u.dst()));
        }
    }
    let mut out = EdgeList::with_num_vertices(edges.num_vertices());
    for (s, t) in set {
        out.push_pair(s, t);
    }
    out.set_num_vertices(edges.num_vertices());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_core::EngineConfig;

    /// A workload's graph edges, query stream and update batches.
    type Inputs = (Vec<(u64, u64)>, Vec<u64>, Vec<Vec<EdgeUpdate>>);

    fn inputs(w: Workload, seed: u64) -> Inputs {
        let edges = graph(w, seed);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
        let pairs = edges.edges().iter().map(|e| (e.src, e.dst)).collect();
        let stream = query_stream(w, seed, &edges, &engine);
        (pairs, stream, update_batches(seed, &edges))
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in Workload::ALL {
            assert_eq!(inputs(w, 11), inputs(w, 11), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        for w in Workload::ALL {
            let (g1, q1, u1) = inputs(w, 11);
            let (g2, q2, u2) = inputs(w, 12);
            assert_ne!(g1, g2, "{} graph", w.name());
            assert_ne!(q1, q2, "{} query stream", w.name());
            assert_ne!(u1, u2, "{} update stream", w.name());
        }
    }

    #[test]
    fn zipf_head_is_the_indexed_hubs() {
        let edges = graph(Workload::ZipfHot, 3);
        let engine = DistributedEngine::new(&edges, EngineConfig::new(2));
        let live = non_isolated(&edges);
        let c = zipf_candidates(3, &live, &engine);
        assert_eq!(c.len(), ZIPF_CANDIDATES);
        let distinct: BTreeSet<u64> = c.iter().copied().collect();
        assert_eq!(distinct.len(), c.len(), "candidates are distinct");
        let deg = |v: u64| engine.shards()[0].global_out_degree(v);
        assert!(deg(c[0]) >= deg(c[INDEX_SOURCES]));
    }

    #[test]
    fn updates_are_four_inserts_to_one_delete() {
        let edges = graph(Workload::CommitMix, 5);
        for b in update_batches(5, &edges).iter().take(8) {
            let ins = b.iter().filter(|u| u.is_insert()).count();
            assert_eq!((ins, b.len() - ins), (UPDATE_INSERTS, UPDATE_DELETES));
            assert!(b.iter().all(|u| u.src() != u.dst() || !u.is_insert()));
        }
    }
}
