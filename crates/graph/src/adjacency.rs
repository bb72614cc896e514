//! Search-time graph representations.
//!
//! Builders work on their own plain per-vertex lists (the descent
//! engines on flat packed-key tables) and, since search never mutates,
//! *freeze* the result into a [`CsrGraph`]: one offsets array plus one
//! flat edge array — contiguous neighbors, one indirection, no
//! per-vertex allocation.
//!
//! Indexes that keep growing while they are searched (HNSW's insertion,
//! the dynamic HNSW) sit between the two: single-writer, degree-bounded,
//! read far more often than written. [`SlotGraph`] is their layout — one
//! array, one fixed-stride block per vertex with the degree in the block,
//! so a neighbor list is one address computation and one load, and the
//! block can be prefetched before it is read.

use weavess_data::Neighbor;

/// Read access to a graph's out-neighbors — the only view search needs.
///
/// Implemented by the frozen [`CsrGraph`], by the mutable fixed-stride
/// [`SlotGraph`] (HNSW's growing layers) and by plain `Vec<Vec<u32>>`
/// adjacency lists (NSW, NGT), so incremental builders run the same
/// routing code on their still-growing graphs.
pub trait GraphView {
    /// Out-neighbors of vertex `v`.
    fn neighbors(&self, v: u32) -> &[u32];
    /// Number of vertices.
    fn len(&self) -> usize;
    /// True when the graph has no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Hints the cache that vertex `v`'s neighbor data is about to be
    /// read. Default: no-op. Contiguous layouts prefetch the head of the
    /// adjacency (or fused node) block; the routers issue this for the
    /// *next* expansion candidate while scoring the current one.
    #[inline]
    fn prefetch_neighbors(&self, _v: u32) {}
}

impl GraphView for Vec<Vec<u32>> {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        &self[v as usize]
    }
    fn len(&self) -> usize {
        Vec::len(self)
    }
}

impl GraphView for [Vec<u32>] {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        &self[v as usize]
    }
    fn len(&self) -> usize {
        <[Vec<u32>]>::len(self)
    }
}

/// Mutable fixed-stride adjacency: one `Vec<u32>` holding, per vertex, the
/// block `[degree, id × (cap + 1)]`.
///
/// `cap` is the degree bound the owner maintains. The one slot past it is
/// what an insert fills when it appends a reverse edge to a full list,
/// before the owner's pruning rule shrinks the list back to `cap` with
/// [`SlotGraph::set`] — so the over-full list never needs a side buffer.
/// Pushing past that slot is a bug in the owner and panics.
///
/// ```
/// use weavess_graph::SlotGraph;
///
/// let mut g = SlotGraph::new(2);
/// g.resize(3);
/// g.push(0, 1);
/// g.push(0, 2);
/// g.push(0, 1); // the over-full slot
/// assert_eq!(g.neighbors(0), &[1, 2, 1]);
/// g.set(0, [2, 1]);
/// assert_eq!(g.neighbors(0), &[2, 1]);
/// assert!(g.neighbors(2).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotGraph {
    slots: Vec<u32>,
    /// Words per block: the degree, `cap` ids, the over-full slot.
    stride: usize,
}

impl SlotGraph {
    /// An empty graph whose lists hold `cap` ids (plus the over-full slot).
    pub fn new(cap: usize) -> Self {
        SlotGraph {
            slots: Vec::new(),
            stride: cap + 2,
        }
    }

    /// The degree bound the blocks were sized for.
    pub fn cap(&self) -> usize {
        self.stride - 2
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.slots.len() / self.stride
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Grows to `n` vertices (new ones edgeless) or truncates to `n`.
    pub fn resize(&mut self, n: usize) {
        self.slots.resize(n * self.stride, 0);
    }

    /// Out-neighbors of vertex `v`, in insertion order.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let row = &self.slots[v as usize * self.stride..][..self.stride];
        &row[1..1 + row[0] as usize]
    }

    /// Appends `id` to `v`'s list.
    ///
    /// # Panics
    /// Panics when `v`'s list already holds `cap + 1` ids.
    #[inline]
    pub fn push(&mut self, v: u32, id: u32) {
        let row = &mut self.slots[v as usize * self.stride..][..self.stride];
        let degree = row[0] as usize;
        assert!(
            degree + 1 < row.len(),
            "SlotGraph: vertex {v} already holds {degree} ids (cap {} + 1)",
            row.len() - 2
        );
        row[1 + degree] = id;
        row[0] += 1;
    }

    /// Replaces `v`'s list with `ids`, in order.
    ///
    /// # Panics
    /// Panics when `ids` yields more than `cap + 1` ids.
    pub fn set(&mut self, v: u32, ids: impl IntoIterator<Item = u32>) {
        self.clear(v);
        for id in ids {
            self.push(v, id);
        }
    }

    /// Empties `v`'s list.
    pub fn clear(&mut self, v: u32) {
        self.slots[v as usize * self.stride] = 0;
    }
}

impl GraphView for SlotGraph {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        SlotGraph::neighbors(self, v)
    }
    fn len(&self) -> usize {
        SlotGraph::len(self)
    }
    /// Requests the block's first two lines (the degree and the first ~30
    /// ids) and the line of its last slot: HNSW's 34-word layer-0 block
    /// spans three lines at any offset. Out-of-range `v` requests nothing.
    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        let at = v as usize * self.stride;
        if let Some(row) = self.slots.get(at..at + self.stride) {
            weavess_data::prefetch::prefetch_span(row.as_ptr(), row.len());
            weavess_data::prefetch::prefetch_read(&row[row.len() - 1]);
        }
    }
}

/// Immutable compressed-sparse-row graph used for search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    edges: Vec<u32>,
}

impl GraphView for CsrGraph {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        CsrGraph::neighbors(self, v)
    }
    fn len(&self) -> usize {
        CsrGraph::len(self)
    }
    #[inline]
    fn prefetch_neighbors(&self, v: u32) {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        weavess_data::prefetch::prefetch_span(self.edges[s..e].as_ptr(), e - s);
    }
}

impl CsrGraph {
    /// Builds from per-vertex id lists.
    pub fn from_lists<L: AsRef<[u32]>>(lists: &[L]) -> Self {
        Self::from_rows(lists.iter().map(|l| l.as_ref()))
    }

    /// Builds from per-vertex [`Neighbor`] lists, keeping each list's ids
    /// in order — how every builder freezes its working lists. Two passes
    /// (size, fill) straight into the CSR arrays: no intermediate
    /// `Vec<Vec<u32>>`.
    pub fn from_neighbor_lists(lists: &[Vec<Neighbor>]) -> Self {
        let total: usize = lists.iter().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut edges = Vec::with_capacity(total);
        offsets.push(0u64);
        for l in lists {
            edges.extend(l.iter().map(|n| n.id));
            offsets.push(edges.len() as u64);
        }
        CsrGraph { offsets, edges }
    }

    /// Builds from one neighbor slice per vertex, in vertex order — how a
    /// non-list layout (e.g. [`SlotGraph`]) freezes without materialising
    /// lists. The iterator is walked twice: once to size the edge array
    /// exactly, once to fill it.
    pub fn from_rows<'a>(rows: impl Iterator<Item = &'a [u32]> + Clone) -> Self {
        let total: usize = rows.clone().map(<[u32]>::len).sum();
        let mut offsets = Vec::with_capacity(rows.size_hint().0 + 1);
        let mut edges = Vec::with_capacity(total);
        offsets.push(0u64);
        for row in rows {
            edges.extend_from_slice(row);
            offsets.push(edges.len() as u64);
        }
        CsrGraph { offsets, edges }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-neighbors of vertex `v` as a contiguous slice.
    #[inline]
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let s = self.offsets[v as usize] as usize;
        let e = self.offsets[v as usize + 1] as usize;
        &self.edges[s..e]
    }

    /// Out-degree of vertex `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// Reconstructs plain per-vertex lists (tests, round-trips).
    pub fn to_lists(&self) -> Vec<Vec<u32>> {
        (0..self.len() as u32)
            .map(|v| self.neighbors(v).to_vec())
            .collect()
    }

    /// Heap footprint in bytes — the Figure 6 "index size" contribution of
    /// the adjacency structure.
    pub fn memory_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<u64>()
            + self.edges.len() * std::mem::size_of::<u32>()
    }

    /// Out-degree histogram: `hist[d]` counts vertices with out-degree
    /// `d` (length `max_degree + 1`). The Table 5 out-degree column reads
    /// straight off this; `metrics::degree_stats` gives the summary form.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let max_d = (0..self.len() as u32).map(|v| self.degree(v)).max();
        let mut hist = vec![0usize; max_d.map_or(0, |m| m + 1)];
        for v in 0..self.len() as u32 {
            hist[self.degree(v)] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_roundtrip() {
        let lists = vec![vec![1u32, 2], vec![], vec![0]];
        let csr = CsrGraph::from_lists(&lists);
        assert_eq!(csr.len(), 3);
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.to_lists(), lists);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(1), 0);
    }

    #[test]
    fn slot_graph_prefetch_accepts_the_last_vertex_and_an_empty_graph() {
        let mut g = SlotGraph::new(4);
        g.prefetch_neighbors(0);
        g.resize(3);
        g.push(2, 1);
        g.prefetch_neighbors(2);
        g.prefetch_neighbors(3);
        assert_eq!(GraphView::neighbors(&g, 2), &[1]);
        assert_eq!((GraphView::len(&g), g.cap()), (3, 4));
    }

    #[test]
    fn slot_graph_freezes_to_the_same_csr_as_its_lists() {
        let mut g = SlotGraph::new(2);
        g.resize(3);
        g.set(0, [1, 2]);
        g.push(2, 0);
        let csr = CsrGraph::from_rows((0..3).map(|v| g.neighbors(v)));
        assert_eq!(csr, CsrGraph::from_lists(&[vec![1u32, 2], vec![], vec![0]]));
        assert_eq!(csr.edges.capacity(), 3);
    }

    #[test]
    fn degree_histogram_counts_every_vertex() {
        let csr = CsrGraph::from_lists(&[vec![1u32, 2, 3], vec![], vec![0u32], vec![0u32]]);
        assert_eq!(csr.degree_histogram(), vec![1, 2, 0, 1]);
        assert_eq!(
            CsrGraph::from_lists::<Vec<u32>>(&[]).degree_histogram(),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn csr_memory_accounts_offsets_and_edges() {
        let csr = CsrGraph::from_lists(&[vec![1u32], vec![0u32]]);
        assert_eq!(csr.memory_bytes(), 3 * 8 + 2 * 4);
    }
}
