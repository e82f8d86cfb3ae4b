//! The dense remote outbox of the bit-frontier batch path.
//!
//! During a superstep's edge-set scan, every remote edge `(v, t)` of a
//! live frontier row hands `(t, row)` to the outbox, which ORs the row
//! into its own row for `t`. The outbox is a [`LaneMatrix`] with one
//! row per *remote* vertex (every vertex outside the machine's local
//! range) plus the list of rows touched this superstep, so a push is
//! one row OR and, on first touch, one list append — no hashing.
//!
//! At the end of the scan, [`Outbox::drain`] sorts the touched rows
//! and splits them by owner. Partitions are contiguous vertex ranges,
//! so each owner's rows form one run of the sorted list: every
//! destination receives one batch, sorted by vertex, and destinations
//! are emitted in machine order. Only the touched rows are zeroed, so
//! the next superstep starts clean at a cost proportional to what this
//! one sent, not to the graph.

use crate::partition::RangePartition;
use cgraph_graph::types::VertexRange;
use cgraph_graph::{LaneMask, LaneMatrix, LaneWidth, VertexId};

/// One machine's per-batch remote outbox (see the module docs).
#[derive(Debug)]
pub(crate) struct Outbox {
    /// One row per remote vertex: ids below the local range keep their
    /// id as row index, ids above it shift down by the range's length.
    rows: LaneMatrix,
    /// The machine's local range, which has no rows.
    local: VertexRange,
    /// Rows first touched since the last drain, in touch order.
    touched: Vec<usize>,
}

impl Outbox {
    /// An empty outbox for the machine owning `local` in a graph of
    /// `num_vertices` vertices, at batch width `width`.
    pub(crate) fn new(num_vertices: u64, local: VertexRange, width: LaneWidth) -> Self {
        let remote = num_vertices - local.len();
        Self { rows: LaneMatrix::with_width(remote as usize, width), local, touched: Vec::new() }
    }

    /// The batch width of the masks this outbox holds.
    pub(crate) fn width(&self) -> LaneWidth {
        self.rows.width()
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

    #[inline]
    fn vertex_of(&self, r: usize) -> VertexId {
        let r = r as VertexId;
        if r < self.local.start {
            r
        } else {
            r + self.local.len()
        }
    }

    /// ORs `mask` (non-zero) into remote vertex `t`'s row.
    #[inline]
    pub(crate) fn push(&mut self, t: VertexId, mask: &LaneMask) {
        debug_assert!(!mask.is_zero(), "the scan only emits live rows");
        debug_assert!(!self.local.contains(t), "vertex {t} is local, not remote");
        let r = self.row_of(t);
        let row = self.rows.row_mut(r);
        if row.iter().all(|&w| w == 0) {
            self.touched.push(r);
        }
        for (w, &m) in row.iter_mut().zip(mask.words()) {
            *w |= m;
        }
    }

    /// Hands every touched row to `emit` as one vertex-sorted batch per
    /// destination machine, in machine order, and leaves the outbox
    /// empty: touched rows are zeroed and the touched list cleared.
    pub(crate) fn drain(
        &mut self,
        partition: &RangePartition,
        mut emit: impl FnMut(usize, Vec<(u64, LaneMask)>),
    ) {
        self.touched.sort_unstable();
        let mut at = 0;
        for (m, range) in partition.ranges().iter().enumerate() {
            // The local range maps to an empty row run and emits nothing.
            let end_row = self.row_of(range.end);
            let end = at + self.touched[at..].partition_point(|&r| r < end_row);
            if end == at {
                continue;
            }
            let mut batch = Vec::with_capacity(end - at);
            for &r in &self.touched[at..end] {
                let t = self.vertex_of(r);
                let row = self.rows.row_mut(r);
                batch.push((t, LaneMask::from_words(row)));
                row.fill(0);
            }
            emit(m, batch);
            at = end;
        }
        debug_assert_eq!(at, self.touched.len(), "every touched row has an owner");
        self.touched.clear();
    }

    /// True when no row holds a bit and nothing is listed as touched.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        self.touched.is_empty() && self.rows.all_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn widths() -> [LaneWidth; 2] {
        [LaneWidth::W64, LaneWidth::new(512).unwrap()]
    }

    fn lanes(width: LaneWidth, ls: &[usize]) -> LaneMask {
        let mut m = LaneMask::zero(width);
        for &l in ls {
            m.set(l);
        }
        m
    }

    fn drained(ob: &mut Outbox, part: &RangePartition) -> Vec<(usize, Vec<(u64, LaneMask)>)> {
        let mut out = Vec::new();
        ob.drain(part, |m, batch| out.push((m, batch)));
        out
    }

    #[test]
    fn repeated_pushes_or_into_one_entry() {
        for width in widths() {
            let part = RangePartition::by_vertices(100, 2);
            let mut ob = Outbox::new(100, part.range(0), width);
            let top = width.bits() - 1;
            ob.push(70, &lanes(width, &[0]));
            ob.push(70, &lanes(width, &[3, top]));
            ob.push(70, &lanes(width, &[0, 3]));
            let out = drained(&mut ob, &part);
            assert_eq!(out, vec![(1, vec![(70, lanes(width, &[0, 3, top]))])]);
        }
    }

    #[test]
    fn drain_is_sorted_and_split_at_partition_boundaries() {
        for width in widths() {
            for p in [2usize, 3, 4] {
                let n = 97u64;
                let part = RangePartition::by_vertices(n, p);
                for me in 0..p {
                    let local = part.range(me);
                    let mut ob = Outbox::new(n, local, width);
                    // Every remote vertex, pushed in descending order and
                    // again scrambled, each with a lane derived from its id.
                    let remote: Vec<u64> = (0..n).filter(|&v| !local.contains(v)).collect();
                    let len = remote.len();
                    let order =
                        remote.iter().rev().chain((0..len).map(|i| &remote[(i * 37) % len]));
                    for &t in order {
                        ob.push(t, &lanes(width, &[(t as usize * 7) % width.bits()]));
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
                        for (t, mask) in batch {
                            assert_eq!(*mask, lanes(width, &[(*t as usize * 7) % width.bits()]));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn drain_leaves_the_outbox_clean() {
        for width in widths() {
            let part = RangePartition::by_vertices(60, 3);
            let mut ob = Outbox::new(60, part.range(1), width);
            for t in [0u64, 5, 19, 40, 59, 5] {
                ob.push(t, &lanes(width, &[t as usize % width.bits(), width.bits() - 1]));
            }
            assert!(!ob.is_clean());
            drained(&mut ob, &part);
            assert!(ob.is_clean(), "every row zero and the touched list empty");
            // The next superstep sees only its own pushes.
            ob.push(40, &lanes(width, &[2]));
            assert_eq!(drained(&mut ob, &part), vec![(2, vec![(40, lanes(width, &[2]))])]);
            assert!(drained(&mut ob, &part).is_empty());
        }
    }
}
