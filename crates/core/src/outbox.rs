//! The dense remote outbox of the bit-frontier batch path.
//!
//! During a superstep's edge-set scan, every live frontier row is ORed
//! into the outbox row of each of its remote targets. The outbox holds
//! one `[u64; N]` lane row per *remote* vertex (every vertex outside
//! the machine's local range): ids below the local range index rows
//! directly and ids above it shift down by the range's length. The scan
//! hands over each row's remote targets as two ascending runs, one per
//! side of the local range, so a push is a plain OR with no hashing and
//! no branch.
//!
//! At the end of the scan, [`Outbox::drain`] sweeps each destination's
//! run of rows in vertex order. Partitions are contiguous vertex
//! ranges, so every destination receives one batch, sorted by vertex,
//! and destinations are emitted in machine order. The sweep emits the
//! non-zero rows and zeroes them, leaving the outbox clean for the next
//! superstep. It costs O(remote rows) per superstep — the same order as
//! the O(local rows) pass the advance phase already makes.

use crate::bitfrontier::{or_row, row_is_zero, FrontierBatch};
use crate::partition::RangePartition;
use cgraph_graph::types::VertexRange;
use cgraph_graph::VertexId;

/// One machine's per-batch remote outbox at `N` lane words per row
/// (see the module docs).
#[derive(Debug)]
pub(crate) struct Outbox<const N: usize> {
    /// One row per remote vertex: ids below the local range keep their
    /// id as row index, ids above it shift down by the range's length.
    rows: Vec<[u64; N]>,
    /// The machine's local range, which has no rows.
    local: VertexRange,
}

impl<const N: usize> Outbox<N> {
    /// An empty outbox for the machine owning `local` in a graph of
    /// `num_vertices` vertices.
    pub(crate) fn new(num_vertices: u64, local: VertexRange) -> Self {
        let remote = num_vertices - local.len();
        Self { rows: vec![[0; N]; remote as usize], local }
    }

    /// Row index of remote vertex `t`; for a range end `t`, the first
    /// row at or past it (the local range's own end maps to its start).
    #[inline]
    fn row_of(&self, t: VertexId) -> usize {
        if t <= self.local.start {
            t as usize
        } else {
            (t - self.local.len()) as usize
        }
    }

    /// ORs `row` into the rows of `targets`, which all lie below the
    /// local range.
    #[inline]
    pub(crate) fn push_below(&mut self, targets: impl Iterator<Item = VertexId>, row: &[u64; N]) {
        for t in targets {
            debug_assert!(t < self.local.start, "vertex {t} is not below the local range");
            or_row(&mut self.rows[t as usize], row);
        }
    }

    /// ORs `row` into the rows of `targets`, which all lie above the
    /// local range.
    #[inline]
    pub(crate) fn push_above(&mut self, targets: impl Iterator<Item = VertexId>, row: &[u64; N]) {
        let shift = self.local.len();
        for t in targets {
            debug_assert!(t >= self.local.end, "vertex {t} is not above the local range");
            or_row(&mut self.rows[(t - shift) as usize], row);
        }
    }

    /// Hands every non-zero row to `emit` as one vertex-sorted batch per
    /// destination machine, in machine order, and leaves the outbox
    /// empty.
    pub(crate) fn drain(
        &mut self,
        partition: &RangePartition,
        mut emit: impl FnMut(usize, FrontierBatch),
    ) {
        for (m, range) in partition.ranges().iter().enumerate() {
            // The local range maps to an empty row run and emits nothing.
            let (first, end) = (self.row_of(range.start), self.row_of(range.end));
            let run = &mut self.rows[first..end];
            let mut batch = FrontierBatch::default();
            for (t, row) in (range.start..).zip(run) {
                if !row_is_zero(row) {
                    batch.push(t, row);
                    *row = [0; N];
                }
            }
            if !batch.is_empty() {
                emit(m, batch);
            }
        }
    }

    /// True when no row holds a bit.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.rows.iter().all(row_is_zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgraph_graph::{LaneMask, LaneWidth};

    /// The lane row with `ls` set.
    fn lanes<const N: usize>(ls: &[usize]) -> [u64; N] {
        let mut m = LaneMask::zero(LaneWidth::new(64 * N).unwrap());
        for &l in ls {
            m.set(l);
        }
        crate::bitfrontier::lane_row(&m)
    }

    /// Pushes one remote target, on whichever side of the local range
    /// it lies.
    fn push<const N: usize>(ob: &mut Outbox<N>, t: VertexId, row: [u64; N]) {
        if t < ob.local.start {
            ob.push_below(std::iter::once(t), &row);
        } else {
            ob.push_above(std::iter::once(t), &row);
        }
    }

    /// One destination's drained `(vertex, lane row)` entries.
    type Sent<const N: usize> = (usize, Vec<(u64, [u64; N])>);

    fn drained<const N: usize>(ob: &mut Outbox<N>, part: &RangePartition) -> Vec<Sent<N>> {
        let mut out = Vec::new();
        ob.drain(part, |m, batch| {
            out.push((m, batch.rows::<N>().map(|(t, r)| (t, *r)).collect()));
        });
        out
    }

    fn repeated_pushes_or_into_one_entry_at<const N: usize>() {
        let part = RangePartition::by_vertices(100, 2);
        let mut ob = Outbox::<N>::new(100, part.range(0));
        let top = 64 * N - 1;
        push(&mut ob, 70, lanes(&[0]));
        push(&mut ob, 70, lanes(&[3, top]));
        push(&mut ob, 70, lanes(&[0, 3]));
        let out = drained(&mut ob, &part);
        assert_eq!(out, vec![(1, vec![(70, lanes(&[0, 3, top]))])]);
    }

    #[test]
    fn repeated_pushes_or_into_one_entry() {
        repeated_pushes_or_into_one_entry_at::<1>();
        repeated_pushes_or_into_one_entry_at::<8>();
    }

    fn drain_is_sorted_and_split_at_partition_boundaries_at<const N: usize>() {
        let bits = 64 * N;
        for p in [2usize, 3, 4] {
            let n = 97u64;
            let part = RangePartition::by_vertices(n, p);
            for me in 0..p {
                let local = part.range(me);
                let mut ob = Outbox::<N>::new(n, local);
                // Every remote vertex, pushed in descending order and
                // again scrambled, each with a lane derived from its id.
                let remote: Vec<u64> = (0..n).filter(|&v| !local.contains(v)).collect();
                let len = remote.len();
                let order = remote.iter().rev().chain((0..len).map(|i| &remote[(i * 37) % len]));
                for &t in order {
                    push(&mut ob, t, lanes(&[(t as usize * 7) % bits]));
                }
                let out = drained(&mut ob, &part);
                let dests: Vec<usize> = out.iter().map(|(m, _)| *m).collect();
                let expect: Vec<usize> = (0..p).filter(|&m| m != me).collect();
                assert_eq!(dests, expect, "p={p} me={me}: one batch per peer, in order");
                for (m, batch) in &out {
                    let r = part.range(*m);
                    let got: Vec<u64> = batch.iter().map(|&(t, _)| t).collect();
                    let want: Vec<u64> = (r.start..r.end).collect();
                    assert_eq!(got, want, "p={p} me={me} dest={m}: exactly its range");
                    for (t, row) in batch {
                        assert_eq!(*row, lanes(&[(*t as usize * 7) % bits]));
                    }
                }
            }
        }
    }

    #[test]
    fn drain_is_sorted_and_split_at_partition_boundaries() {
        drain_is_sorted_and_split_at_partition_boundaries_at::<1>();
        drain_is_sorted_and_split_at_partition_boundaries_at::<8>();
    }

    fn drain_leaves_the_outbox_clean_at<const N: usize>() {
        let bits = 64 * N;
        let part = RangePartition::by_vertices(60, 3);
        let mut ob = Outbox::<N>::new(60, part.range(1));
        for t in [0u64, 5, 19, 40, 59, 5] {
            push(&mut ob, t, lanes(&[t as usize % bits, bits - 1]));
        }
        assert!(!ob.is_clean());
        drained(&mut ob, &part);
        assert!(ob.is_clean(), "every row zero");
        // The next superstep sees only its own pushes.
        push(&mut ob, 40, lanes(&[2]));
        assert_eq!(drained(&mut ob, &part), vec![(2, vec![(40, lanes(&[2]))])]);
        assert!(drained(&mut ob, &part).is_empty());
    }

    #[test]
    fn drain_leaves_the_outbox_clean() {
        drain_leaves_the_outbox_clean_at::<1>();
        drain_leaves_the_outbox_clean_at::<8>();
    }
}
