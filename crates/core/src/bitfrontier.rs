//! Bit-packed concurrent traversal state (§3.5, Fig. 6).
//!
//! Up to [`MAX_LANES`](cgraph_graph::MAX_LANES) queries form a *batch*;
//! each query owns one bit lane. Per local vertex the shard keeps three
//! lane rows — `frontier`, `next` (frontierNext) and `visited` — of
//! `N = W/64` words each, where `W ∈ {64, 128, 256, 512}` is the batch
//! width, so one row read covers a vertex's membership in every
//! concurrent frontier at once. The state is generic over `N`: every
//! hot loop works on fixed-size `[u64; N]` rows, and the engine picks
//! the instantiation once per batch from the lane count. A traversal
//! hop is then:
//!
//! 1. **Scan**: for every tile row `v` with a non-zero `frontier` row,
//!    split `v`'s targets — ascending within the row — with two binary
//!    searches into three runs: remote below the machine's local range,
//!    local, and remote above it. The row is ORed into `next[t]` for
//!    each local target and into the outbox row of each remote one,
//!    with no per-edge branch. Shared neighbours of shared frontiers
//!    cost a single pass — the "one traversal on these two vertices"
//!    sharing of Fig. 3b. Rows with overlay deletes keep a per-edge
//!    delete check.
//! 2. **Absorb**: OR the [`FrontierBatch`] rows received from peers into
//!    `next`.
//! 3. **Advance**: `new = next & !visited`; `visited |= new`;
//!    `frontier = new`; count newly visited vertices per lane in
//!    bit-sliced 16-bit counters, fed by a carry-save adder tree over
//!    blocks of 16 rows and flushed to per-lane totals every
//!    2¹⁶ − 1 rows.
//!
//! The state is per-shard; [`crate::engine`] wires shards together.

use crate::outbox::Outbox;
use crate::shard::Shard;
use cgraph_graph::bitmap::{LaneMask, LaneWidth};
use cgraph_graph::delta::DeltaOverlay;
use cgraph_graph::types::VertexRange;
use cgraph_graph::VertexId;

/// ORs lane row `src` into `dst`.
#[inline(always)]
pub(crate) fn or_row<const N: usize>(dst: &mut [u64; N], src: &[u64; N]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// True when no lane of `row` is set.
#[inline(always)]
pub(crate) fn row_is_zero<const N: usize>(row: &[u64; N]) -> bool {
    row.iter().fold(0, |acc, &w| acc | w) == 0
}

/// The `N`-word lane row of `mask`, which must be `N` words wide.
pub(crate) fn lane_row<const N: usize>(mask: &LaneMask) -> [u64; N] {
    mask.words().try_into().expect("mask width must match the batch's lane words")
}

/// One superstep's frontier deliveries from one machine to one peer:
/// the destination vertices in ascending order, and one lane row of
/// `N = W/64` words per vertex in a single flat vector. The same value
/// is sent, logged for recovery and absorbed; on the wire it costs
/// `8 + 8·N` bytes per entry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrontierBatch {
    vertices: Vec<VertexId>,
    words: Vec<u64>,
}

impl FrontierBatch {
    /// Number of destination vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// True when the batch carries no entry.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Simulated wire bytes: an 8-byte vertex id plus the lane row.
    pub fn wire_bytes(&self) -> usize {
        8 * (self.vertices.len() + self.words.len())
    }

    /// The `(vertex, lane row)` entries in vertex order; `N` must be
    /// the lane-word count of the batch that produced them.
    pub fn rows<const N: usize>(&self) -> impl Iterator<Item = (VertexId, &[u64; N])> {
        let (rows, rest) = self.words.as_chunks::<N>();
        debug_assert!(rest.is_empty() && rows.len() == self.vertices.len(), "lane words != N");
        self.vertices.iter().copied().zip(rows)
    }

    /// Appends vertex `v`, which must exceed every vertex already held.
    #[inline]
    pub(crate) fn push<const N: usize>(&mut self, v: VertexId, row: &[u64; N]) {
        debug_assert!(self.vertices.last().is_none_or(|&last| last < v), "vertices ascend");
        self.vertices.push(v);
        self.words.extend_from_slice(row);
    }

    /// ANDs every row with `keep` and drops the rows left empty.
    /// Returns the number of entries dropped.
    pub(crate) fn retain_lanes<const N: usize>(&mut self, keep: &[u64; N]) -> usize {
        let before = self.len();
        let (rows, _) = self.words.as_chunks_mut::<N>();
        let mut kept = 0;
        for i in 0..before {
            let mut row = rows[i];
            for (w, k) in row.iter_mut().zip(keep) {
                *w &= k;
            }
            if !row_is_zero(&row) {
                self.vertices[kept] = self.vertices[i];
                rows[kept] = row;
                kept += 1;
            }
        }
        self.vertices.truncate(kept);
        self.words.truncate(kept * N);
        before - kept
    }

    /// The sorted union of two batches, ORing the rows of a vertex
    /// present in both.
    pub(crate) fn merge<const N: usize>(&self, other: &FrontierBatch) -> FrontierBatch {
        let mut out = FrontierBatch {
            vertices: Vec::with_capacity(self.len() + other.len()),
            words: Vec::with_capacity(self.words.len() + other.words.len()),
        };
        let (mut a, mut b) = (self.rows::<N>().peekable(), other.rows::<N>().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&(va, ra)), Some(&(vb, rb))) => {
                    if va < vb {
                        out.push(va, ra);
                        a.next();
                    } else if vb < va {
                        out.push(vb, rb);
                        b.next();
                    } else {
                        let mut row = *ra;
                        or_row(&mut row, rb);
                        out.push(va, &row);
                        a.next();
                        b.next();
                    }
                }
                (Some(&(v, row)), None) => {
                    out.push(v, row);
                    a.next();
                }
                (None, Some(&(v, row))) => {
                    out.push(v, row);
                    b.next();
                }
                (None, None) => return out,
            }
        }
    }
}

/// Per-shard traversal state for one query batch of `N` lane words
/// per vertex (`N = W/64`).
#[derive(Debug)]
pub struct BitFrontier<const N: usize> {
    frontier: Vec<[u64; N]>,
    next: Vec<[u64; N]>,
    visited: Vec<[u64; N]>,
    /// The shard's local range; row `i` holds vertex `local.start + i`.
    local: VertexRange,
    /// Live lanes in this batch (`lanes <= 64 * N`).
    lanes: usize,
    /// Row with the low `lanes` bits set.
    all_lanes: [u64; N],
}

/// Outcome of one [`BitFrontier::advance`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvanceResult {
    /// OR of all new frontier rows: lane `q` set ⇔ query `q` still has
    /// local frontier vertices.
    pub active_lanes: LaneMask,
    /// Newly visited vertices per lane this hop (length = batch
    /// width in bits).
    pub new_per_lane: Vec<u64>,
    /// Total local frontier vertices after the advance.
    pub frontier_vertices: u64,
}

impl<const N: usize> BitFrontier<N> {
    /// Creates zeroed state for a shard's local range, sized for a
    /// batch of `lanes` queries.
    ///
    /// # Panics
    ///
    /// Panics unless `N` is the word count of the narrowest supported
    /// width holding `lanes`.
    pub fn new(shard: &Shard, lanes: usize) -> Self {
        assert_eq!(
            LaneWidth::for_lanes(lanes).words(),
            N,
            "{lanes} lanes do not pack into {N} lane words"
        );
        let num_local = shard.num_local();
        Self {
            frontier: vec![[0; N]; num_local],
            next: vec![[0; N]; num_local],
            visited: vec![[0; N]; num_local],
            local: shard.local_range(),
            lanes,
            all_lanes: lane_row(&LaneMask::all(lanes)),
        }
    }

    /// The batch width backing this state.
    pub fn width(&self) -> LaneWidth {
        LaneWidth::new(64 * N).expect("N is a supported lane word count")
    }

    /// Live lanes in this batch.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    #[inline]
    fn index(&self, v: VertexId) -> usize {
        (v - self.local.start) as usize
    }

    /// Seeds query lane `lane` at local-owned global vertex `v`: the
    /// source enters both `frontier` and `visited`.
    pub fn seed(&mut self, v: VertexId, lane: usize) {
        debug_assert!(lane < self.lanes);
        let i = self.index(v);
        self.frontier[i][lane / 64] |= 1 << (lane % 64);
        self.visited[i][lane / 64] |= 1 << (lane % 64);
    }

    /// True when no lane has local frontier vertices.
    pub fn frontier_empty(&self) -> bool {
        self.frontier.iter().all(row_is_zero)
    }

    /// The first frontier word of a local-owned global vertex (lanes
    /// 0..64; tests).
    pub fn frontier_word(&self, v: VertexId) -> u64 {
        self.frontier[self.index(v)][0]
    }

    /// The first visited word of a local-owned global vertex (lanes
    /// 0..64; tests).
    pub fn visited_word(&self, v: VertexId) -> u64 {
        self.visited[self.index(v)][0]
    }

    /// The full frontier row of a local-owned global vertex at any
    /// batch width. Right after [`BitFrontier::advance`] the frontier
    /// holds exactly the lanes that *first reached* each vertex this
    /// superstep — index construction probes boundary vertices here to
    /// learn per-lane first-visit levels without touching the scan
    /// path.
    pub fn frontier_mask(&self, v: VertexId) -> LaneMask {
        LaneMask::from_words(&self.frontier[self.index(v)])
    }

    /// Clears every frontier lane not present in `keep` — used by the
    /// engine to retire lanes whose hop budget (`k`) is exhausted while
    /// other lanes in the batch keep traversing. Skipped entirely when
    /// `keep` covers every live lane of the batch (no lane retired), so
    /// steady-state supersteps never pay the pass — regardless of how
    /// many of the width's bits the batch actually uses.
    pub fn mask_frontier(&mut self, keep: &LaneMask) {
        let keep: [u64; N] = lane_row(keep);
        if self.all_lanes.iter().zip(&keep).all(|(a, k)| a & !k == 0) {
            return;
        }
        for row in &mut self.frontier {
            for (w, k) in row.iter_mut().zip(&keep) {
                *w &= k;
            }
        }
    }

    /// Scan phase: walks the shard's edge-set tiles in row-major order.
    /// Each live frontier row is ORed into `next` for its local targets
    /// and into `outbox` for its remote ones; with no outbox (a replay,
    /// whose peers already received these rows) remote targets are
    /// skipped. The exchange step then sends each owner one
    /// vertex-sorted batch with a single row per destination.
    ///
    /// When a [`DeltaOverlay`] is present the scan consults it
    /// alongside the base edge-sets: base neighbours whose edge the
    /// overlay deletes are skipped, and a second pass emits the
    /// overlay's inserted edges for every frontier source. Emission is
    /// OR-idempotent, so the overlay pass needs no ordering relative to
    /// the base pass.
    ///
    /// Returns the number of (row, tile) pairs actually scanned — the
    /// work metric the edge-set and lane-width ablations report.
    pub(crate) fn scan(
        &mut self,
        shard: &Shard,
        delta: Option<&DeltaOverlay>,
        mut outbox: Option<&mut Outbox<N>>,
    ) -> u64 {
        let mut scanned = 0u64;
        let local = self.local;
        for set in shard.out_sets().sets() {
            for v in set.row_range.iter() {
                let row = self.frontier[self.index(v)];
                if row_is_zero(&row) {
                    continue;
                }
                let ts = set.neighbors(v);
                if ts.is_empty() {
                    continue;
                }
                scanned += 1;
                let dels =
                    delta.and_then(|d| d.row(v)).map(|r| r.deletes()).filter(|d| !d.is_empty());
                let outbox = outbox.as_deref_mut();
                match dels {
                    None => spread(ts, |&t| t, |_| true, &row, local, &mut self.next, outbox),
                    Some(dels) => {
                        let kept = |t| dels.binary_search(&t).is_err();
                        spread(ts, |&t| t, kept, &row, local, &mut self.next, outbox)
                    }
                }
            }
        }
        // Overlay insert pass: sources with pending inserted edges whose
        // frontier row is live. Rows iterate in arbitrary (HashMap)
        // order — harmless, since `next` accumulation is a pure OR.
        if let Some(d) = delta {
            for (v, drow) in d.rows() {
                if drow.inserts().is_empty() || !local.contains(v) {
                    continue;
                }
                let row = self.frontier[self.index(v)];
                if row_is_zero(&row) {
                    continue;
                }
                scanned += 1;
                let outbox = outbox.as_deref_mut();
                spread(drow.inserts(), |&(t, _)| t, |_| true, &row, local, &mut self.next, outbox);
            }
        }
        scanned
    }

    /// Absorb phase: ORs every row of a peer's batch into `next`; each
    /// of its vertices must be local.
    pub fn absorb(&mut self, batch: &FrontierBatch) {
        for (v, row) in batch.rows::<N>() {
            let i = self.index(v);
            or_row(&mut self.next[i], row);
        }
    }

    /// Advance phase: filters `next` against `visited`, promotes the
    /// survivors to the new frontier, and counts per-lane discoveries.
    pub fn advance(&mut self) -> AdvanceResult {
        let mut active = [0u64; N];
        let mut counts = LaneCounts::<N>::new();
        let mut frontier_vertices = 0u64;
        let rows = self.frontier.iter_mut().zip(&mut self.next).zip(&mut self.visited);
        for ((frontier, next), visited) in rows {
            let mut new = [0u64; N];
            for ((n, &x), &seen) in new.iter_mut().zip(next.iter()).zip(visited.iter()) {
                *n = x & !seen;
            }
            *next = [0; N];
            *frontier = new;
            if !row_is_zero(&new) {
                or_row(visited, &new);
                or_row(&mut active, &new);
                counts.add(&new);
                frontier_vertices += 1;
            }
        }
        AdvanceResult {
            active_lanes: LaneMask::from_words(&active),
            new_per_lane: counts.finish(),
            frontier_vertices,
        }
    }

    /// Per-lane counts of *currently visited* local vertices (length =
    /// batch width in bits), one bit at a time — the unit tests' oracle
    /// for the advance counters.
    #[cfg(test)]
    fn visited_per_lane(&self) -> Vec<u64> {
        let mut per_lane = vec![0u64; 64 * N];
        for row in &self.visited {
            for (lane, count) in per_lane.iter_mut().enumerate() {
                *count += (row[lane / 64] >> (lane % 64)) & 1;
            }
        }
        per_lane
    }

    /// Resets all state for batch reuse (dynamic resource allocation:
    /// the three matrices are the only per-batch memory, recycled
    /// rather than reallocated).
    pub fn reset(&mut self) {
        self.frontier.fill([0; N]);
        self.next.fill([0; N]);
        self.visited.fill([0; N]);
    }

    /// Snapshots the `(frontier, visited)` words — the complete
    /// traversal state at a superstep boundary (`next` is always zero
    /// there, having just been promoted by [`BitFrontier::advance`]).
    /// This is the checkpoint payload of the recovery layer; each
    /// vector holds `num_local × N` words.
    pub fn snapshot_words(&self) -> (Vec<u64>, Vec<u64>) {
        (self.frontier.as_flattened().to_vec(), self.visited.as_flattened().to_vec())
    }

    /// Restores state captured by [`BitFrontier::snapshot_words`];
    /// `next` is cleared (a boundary has no pending accumulation).
    ///
    /// # Panics
    ///
    /// Panics when the snapshot was taken at a different batch width —
    /// a checkpoint of one width can never resume a batch of another.
    pub fn restore_words(&mut self, frontier: &[u64], visited: &[u64]) {
        let num_local = self.frontier.len();
        let expect = num_local * N;
        assert_eq!(
            frontier.len(),
            expect,
            "snapshot width mismatch: {} words for {num_local} local vertices at width {} \
             (want {expect})",
            frontier.len(),
            64 * N,
        );
        assert_eq!(visited.len(), expect, "snapshot width mismatch (visited)");
        self.frontier.as_flattened_mut().copy_from_slice(frontier);
        self.visited.as_flattened_mut().copy_from_slice(visited);
        self.next.fill([0; N]);
    }

    /// Discards any half-accumulated `next` words. A machine saving
    /// state at a poisoned barrier is mid-superstep: its `frontier` and
    /// `visited` still hold the last boundary's values, but `next` may
    /// hold partial scan results that a resume would re-derive.
    pub fn clear_next(&mut self) {
        self.next.fill([0; N]);
    }

    /// Heap bytes held (3 × `N` words per local vertex).
    pub fn size_bytes(&self) -> usize {
        3 * self.frontier.len() * N * 8
    }
}

/// ORs `row` into the destination of every edge in `edges` whose
/// target passes `keep`: into `next` for local targets, into `outbox`
/// (when there is one) for remote ones. Targets must ascend, so the
/// local ones form one run found by two binary searches, and each of
/// the three runs is a plain loop of ORs.
#[inline(always)]
fn spread<const N: usize, E>(
    edges: &[E],
    target: impl Fn(&E) -> VertexId,
    keep: impl Fn(VertexId) -> bool,
    row: &[u64; N],
    local: VertexRange,
    next: &mut [[u64; N]],
    outbox: Option<&mut Outbox<N>>,
) {
    let lo = edges.partition_point(|e| target(e) < local.start);
    let hi = lo + edges[lo..].partition_point(|e| target(e) < local.end);
    for t in edges[lo..hi].iter().map(&target).filter(|&t| keep(t)) {
        or_row(&mut next[(t - local.start) as usize], row);
    }
    if let Some(outbox) = outbox {
        outbox.push_below(edges[..lo].iter().map(&target).filter(|&t| keep(t)), row);
        outbox.push_above(edges[hi..].iter().map(&target).filter(|&t| keep(t)), row);
    }
}

/// Rows a counter absorbs before it must flush: each lane's count since
/// the last flush is a 16-bit binary number.
const FLUSH_EVERY: u32 = u16::MAX as u32;

/// Rows folded at once by the carry-save tree.
const BLOCK: usize = 16;

/// Three words' carry-save sum: `a + b + c = sum + 2·carry` in every
/// bit position. Returns `(carry, sum)`.
#[inline(always)]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

/// Per-lane counters kept bit-sliced (vertically): bit `b` of
/// `bits[j][d]` is bit `d` of lane `64j + b`'s count. Rows are held in
/// blocks of 16 and folded by a carry-save adder tree (Harley–Seal)
/// into the four low bits, whose one carry of weight 16 ripples into
/// the twelve high ones, so adding a row costs about one carry-save
/// step per word instead of one increment per set bit.
struct LaneCounts<const N: usize> {
    block: [[u64; N]; BLOCK],
    held: usize,
    bits: [[u64; 16]; N],
    /// Rows added since the last flush.
    pending: u32,
    totals: Vec<u64>,
}

impl<const N: usize> LaneCounts<N> {
    fn new() -> Self {
        Self {
            block: [[0; N]; BLOCK],
            held: 0,
            bits: [[0; 16]; N],
            pending: 0,
            totals: vec![0; 64 * N],
        }
    }

    /// Adds one to the count of every lane set in `row`.
    #[inline]
    fn add(&mut self, row: &[u64; N]) {
        self.block[self.held] = *row;
        self.held += 1;
        if self.held == BLOCK {
            self.fold();
        }
        self.pending += 1;
        if self.pending == FLUSH_EVERY {
            self.flush();
        }
    }

    /// Adds the held rows, zero-padded to a block, into `bits`.
    fn fold(&mut self) {
        self.block[self.held..].fill([0; N]);
        self.held = 0;
        for (j, bits) in self.bits.iter_mut().enumerate() {
            // Level d adds pairs of weight-2^d words into bit d; each
            // pair leaves one carry of weight 2^(d+1) for level d + 1.
            let mut carries: [u64; BLOCK] = std::array::from_fn(|i| self.block[i][j]);
            let mut len = BLOCK;
            for bit in &mut bits[..4] {
                for p in 0..len / 2 {
                    let (carry, sum) = csa(*bit, carries[2 * p], carries[2 * p + 1]);
                    *bit = sum;
                    carries[p] = carry;
                }
                len /= 2;
            }
            let mut carry = carries[0];
            let mut d = 4;
            while carry != 0 {
                let next = bits[d] & carry;
                bits[d] ^= carry;
                carry = next;
                d += 1;
            }
        }
    }

    /// Moves the counts into `totals` and zeroes them.
    fn flush(&mut self) {
        if self.held > 0 {
            self.fold();
        }
        for (j, bits) in self.bits.iter_mut().enumerate() {
            for (d, plane) in bits.iter_mut().enumerate() {
                let mut lanes = std::mem::take(plane);
                while lanes != 0 {
                    self.totals[64 * j + lanes.trailing_zeros() as usize] += 1 << d;
                    lanes &= lanes - 1;
                }
            }
        }
        self.pending = 0;
    }

    /// The per-lane totals (length `64 * N`).
    fn finish(mut self) -> Vec<u64> {
        self.flush();
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::RangePartition;
    use cgraph_graph::{ConsolidationPolicy, EdgeList};

    /// Single-shard helper over a small graph.
    fn single_shard(edges: &EdgeList) -> Shard {
        let part = RangePartition::by_vertices(edges.num_vertices(), 1);
        Shard::build(0, &part, edges.edges(), ConsolidationPolicy::default(), false)
    }

    /// A 64-wide mask from a single word.
    fn m64(w: u64) -> LaneMask {
        LaneMask::from_words(&[w])
    }

    /// A one-entry batch delivering `row` to vertex `v`.
    fn delivery<const N: usize>(v: VertexId, row: [u64; N]) -> FrontierBatch {
        let mut b = FrontierBatch::default();
        b.push(v, &row);
        b
    }

    #[test]
    fn one_query_one_hop() {
        // 0 -> 1 -> 2
        let g: EdgeList = [(0u64, 1u64), (1, 2)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<1>::new(&shard, 64);
        bf.seed(0, 0);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert_eq!(r.active_lanes, m64(1));
        assert_eq!(r.new_per_lane[0], 1); // vertex 1
        assert_eq!(bf.frontier_word(1), 1);
        // second hop reaches 2
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert_eq!(r.new_per_lane[0], 1);
        // third hop: nothing new
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert!(r.active_lanes.is_zero());
    }

    #[test]
    fn two_queries_share_one_scan() {
        // Diamond: 0 -> 2, 1 -> 2, 2 -> 3. Queries from 0 and 1 meet at
        // 2 and must both discover 3 in the same pass.
        let g: EdgeList = [(0u64, 2u64), (1, 2), (2, 3)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<1>::new(&shard, 2);
        bf.seed(0, 0);
        bf.seed(1, 1);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert_eq!(bf.frontier_word(2), 0b11, "both lanes reached vertex 2");
        assert_eq!(r.new_per_lane[0], 1);
        assert_eq!(r.new_per_lane[1], 1);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert_eq!(bf.visited_word(3), 0b11);
        assert_eq!(r.new_per_lane[0], 1);
        assert_eq!(r.new_per_lane[1], 1);
    }

    #[test]
    fn visited_not_revisited() {
        // Cycle 0 -> 1 -> 0: after visiting both, traversal stops.
        let g: EdgeList = [(0u64, 1u64), (1, 0)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<1>::new(&shard, 64);
        bf.seed(0, 5);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert_eq!(r.new_per_lane[5], 1);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert!(r.active_lanes.is_zero(), "source must not be revisited");
    }

    #[test]
    fn remote_destinations_emitted_with_mask() {
        let g: EdgeList = [(0u64, 5u64), (1, 5)].into_iter().collect();
        let mut g = g;
        g.set_num_vertices(10);
        let part = RangePartition::by_vertices(10, 2);
        let shard = Shard::build(0, &part, g.edges(), ConsolidationPolicy::default(), false);
        let mut bf = BitFrontier::<1>::new(&shard, 2);
        bf.seed(0, 0);
        bf.seed(1, 1);
        let mut outbox = Outbox::new(10, shard.local_range());
        bf.scan(&shard, None, Some(&mut outbox));
        let mut sent = Vec::new();
        outbox.drain(&part, |m, batch| sent.push((m, batch)));
        // Both lanes reach remote vertex 5, in one entry to its owner.
        assert_eq!(sent, vec![(1, delivery(5, [0b11]))]);
    }

    #[test]
    fn scan_splits_rows_with_remote_targets_on_both_sides() {
        // Machine 1 of 3 owns 4..8. Vertex 5's row targets 1 and 3
        // (below), 6 (local) and 9 and 11 (above); the overlay deletes
        // 3 and 9 and inserts 0 and 7.
        let g: EdgeList = [(5u64, 1u64), (5, 3), (5, 6), (5, 9), (5, 11)].into_iter().collect();
        let mut g = g;
        g.set_num_vertices(12);
        let part = RangePartition::by_vertices(12, 3);
        let shard = Shard::build(1, &part, g.edges(), ConsolidationPolicy::default(), false);
        assert_eq!(shard.local_range(), VertexRange::new(4, 8));
        let mut delta = DeltaOverlay::new();
        for u in [
            cgraph_graph::delta::EdgeUpdate::delete(5, 3),
            cgraph_graph::delta::EdgeUpdate::delete(5, 9),
            cgraph_graph::delta::EdgeUpdate::insert(5, 0),
            cgraph_graph::delta::EdgeUpdate::insert(5, 7),
        ] {
            delta.apply(&u);
        }
        for (overlay, below, above) in
            [(None, vec![1, 3], vec![9, 11]), (Some(&delta), vec![0, 1], vec![11])]
        {
            let mut bf = BitFrontier::<2>::new(&shard, 128);
            bf.seed(5, 3);
            bf.seed(5, 100);
            let mut outbox = Outbox::new(12, shard.local_range());
            let scanned = bf.scan(&shard, overlay, Some(&mut outbox));
            assert_eq!(scanned, 1 + u64::from(overlay.is_some()));
            let mut sent = Vec::new();
            outbox.drain(&part, |m, batch| sent.push((m, batch)));
            let lanes = [1 << 3, 1 << 36];
            let batch = |vs: &[u64]| {
                let mut b = FrontierBatch::default();
                for &v in vs {
                    b.push(v, &lanes);
                }
                b
            };
            assert_eq!(sent, vec![(0, batch(&below)), (2, batch(&above))]);
            let r = bf.advance();
            let local: Vec<u64> = (4..8).filter(|&v| bf.frontier_mask(v).get(100)).collect();
            let expect = if overlay.is_some() { vec![6, 7] } else { vec![6] };
            assert_eq!(local, expect);
            assert_eq!(r.new_per_lane[3], expect.len() as u64);
        }
    }

    #[test]
    fn absorb_feeds_next_frontier() {
        let g: EdgeList = [(5u64, 6u64)].into_iter().collect();
        let mut g = g;
        g.set_num_vertices(10);
        let part = RangePartition::by_vertices(10, 2);
        let shard = Shard::build(1, &part, g.edges(), ConsolidationPolicy::default(), false);
        let mut bf = BitFrontier::<1>::new(&shard, 64);
        bf.absorb(&delivery(5, [0b100]));
        let r = bf.advance();
        assert_eq!(r.active_lanes, m64(0b100));
        assert_eq!(bf.frontier_word(5), 0b100);
        // the absorbed vertex now traverses locally
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert_eq!(bf.visited_word(6), 0b100);
        assert_eq!(r.new_per_lane[2], 1);
    }

    #[test]
    fn per_lane_counts_match_visited() {
        let g: EdgeList = [(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 4)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<1>::new(&shard, 1);
        bf.seed(0, 0);
        let mut total = [1u64; 1]; // source counted
        for _ in 0..4 {
            bf.scan(&shard, None, None);
            let r = bf.advance();
            total[0] += r.new_per_lane[0];
        }
        assert_eq!(total[0], 5);
        assert_eq!(bf.visited_per_lane()[0], 5);
    }

    /// Advances one hop over `rows` local vertices whose `next` rows
    /// are all live, and checks the per-lane counts against a naive
    /// popcount. Lane 0 is set in every row, so it alone needs more
    /// than one counter flush.
    fn counts_survive_flushes<const N: usize>(rows: u64) {
        let mut g = EdgeList::new();
        g.set_num_vertices(rows);
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<N>::new(&shard, 64 * N);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for row in &mut bf.next {
            for w in row.iter_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *w = x;
            }
            row[0] |= 1;
        }
        let r = bf.advance();
        assert_eq!(r.frontier_vertices, rows);
        assert_eq!(r.new_per_lane[0], rows, "N={N}: lane 0 is set in every row");
        assert_eq!(r.new_per_lane, bf.visited_per_lane(), "N={N}");
    }

    #[test]
    fn advance_counts_survive_counter_flushes() {
        let rows = u64::from(FLUSH_EVERY) + 4_000;
        counts_survive_flushes::<1>(rows);
        counts_survive_flushes::<2>(rows);
        counts_survive_flushes::<4>(rows);
        counts_survive_flushes::<8>(rows);
    }

    #[test]
    fn snapshot_restore_round_trips_mid_traversal() {
        let g: EdgeList = [(0u64, 1u64), (0, 2), (1, 3), (2, 3), (3, 4)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<1>::new(&shard, 64);
        bf.seed(0, 0);
        bf.scan(&shard, None, None);
        bf.advance();
        let (front, vis) = bf.snapshot_words();

        // Continue to completion, recording the trajectory.
        let mut rest = Vec::new();
        for _ in 0..3 {
            bf.scan(&shard, None, None);
            rest.push(bf.advance());
        }
        let final_visited = bf.visited_per_lane();

        // Restore into *dirty* state (mid-superstep, next half-full)
        // and replay: the trajectory must be identical.
        let mut bf2 = BitFrontier::<1>::new(&shard, 64);
        bf2.seed(0, 0);
        bf2.scan(&shard, None, None);
        bf2.restore_words(&front, &vis);
        for expect in &rest {
            bf2.scan(&shard, None, None);
            assert_eq!(bf2.advance(), *expect);
        }
        assert_eq!(bf2.visited_per_lane(), final_visited);
    }

    #[test]
    fn clear_next_discards_partial_scan() {
        let g: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<1>::new(&shard, 64);
        bf.seed(0, 0);
        bf.scan(&shard, None, None);
        bf.clear_next();
        let r = bf.advance();
        assert!(r.active_lanes.is_zero(), "cleared next must yield no discoveries");
    }

    #[test]
    fn reset_clears_everything() {
        let g: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<1>::new(&shard, 64);
        bf.seed(0, 0);
        bf.scan(&shard, None, None);
        bf.advance();
        bf.reset();
        assert!(bf.frontier_empty());
        assert_eq!(bf.visited_per_lane()[0], 0);
    }

    #[test]
    fn wide_batch_lanes_above_64_traverse_independently() {
        // 0 -> 1 -> 2; lanes 0 and 100 traverse the same graph and
        // must see identical per-lane trajectories.
        let g: EdgeList = [(0u64, 1u64), (1, 2)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<2>::new(&shard, 128);
        assert_eq!(bf.width().bits(), 128);
        bf.seed(0, 0);
        bf.seed(0, 100);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert!(r.active_lanes.get(0) && r.active_lanes.get(100));
        assert_eq!(r.new_per_lane[0], 1);
        assert_eq!(r.new_per_lane[100], 1);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert_eq!(r.new_per_lane[100], 1);
        let visited = bf.visited_per_lane();
        assert_eq!(visited[0], 3);
        assert_eq!(visited[100], 3);
        assert_eq!(visited[1], 0);
    }

    #[test]
    fn mask_frontier_retires_wide_lanes() {
        let g: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let shard = single_shard(&g);
        let mut bf = BitFrontier::<2>::new(&shard, 128);
        bf.seed(0, 3);
        bf.seed(0, 90);
        // Keeping every live lane is a no-op (early-out path).
        bf.mask_frontier(&LaneMask::all(128));
        assert!(!bf.frontier_empty());
        // Retire lane 90 only.
        let mut keep = LaneMask::zero(LaneWidth::new(128).unwrap());
        keep.set(3);
        bf.mask_frontier(&keep);
        bf.scan(&shard, None, None);
        let r = bf.advance();
        assert!(r.active_lanes.get(3));
        assert!(!r.active_lanes.get(90), "retired lane must not advance");
    }

    #[test]
    fn batch_filter_and_merge_keep_vertex_order() {
        let mut a = FrontierBatch::default();
        a.push(2, &[0b011]);
        a.push(5, &[0b100]);
        a.push(9, &[0b001]);
        let mut b = FrontierBatch::default();
        b.push(5, &[0b001]);
        b.push(7, &[0b010]);
        let merged: Vec<_> = a.merge::<1>(&b).rows::<1>().map(|(v, r)| (v, r[0])).collect();
        assert_eq!(merged, vec![(2, 0b011), (5, 0b101), (7, 0b010), (9, 0b001)]);
        assert_eq!(a.retain_lanes(&[0b110]), 1);
        let kept: Vec<_> = a.rows::<1>().map(|(v, r)| (v, r[0])).collect();
        assert_eq!(kept, vec![(2, 0b010), (5, 0b100)]);
        assert_eq!(a.wire_bytes(), 2 * 16);
    }

    #[test]
    #[should_panic(expected = "snapshot width mismatch")]
    fn restore_rejects_width_mismatch() {
        let g: EdgeList = [(0u64, 1u64)].into_iter().collect();
        let shard = single_shard(&g);
        let narrow = BitFrontier::<1>::new(&shard, 64);
        let (front, vis) = narrow.snapshot_words();
        let mut wide = BitFrontier::<2>::new(&shard, 128);
        wide.restore_words(&front, &vis);
    }
}
