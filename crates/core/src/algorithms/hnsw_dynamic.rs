//! Dynamically updated HNSW — the survey's outstanding challenge (§6):
//! "how to ... realize the real-time update of the graph index".
//!
//! [`DynamicHnsw`] owns its growing dataset and supports interleaved
//! `insert` / `delete` / `search`:
//!
//! - **Insert** is HNSW's native increment (the *Increment* construction
//!   strategy needs no rebuild).
//! - **Delete** is a tombstone: the vertex keeps routing (removing it
//!   would fragment the graph) but never appears in results — the
//!   standard production compromise (e.g. hnswlib's `markDelete`), with
//!   [`DynamicHnsw::tombstone_fraction`] exposed so callers can schedule
//!   rebuilds.
//! - **Search** uses the filtered traversal from
//!   [`crate::search::filtered`] to skip tombstones.

use crate::algorithms::hnsw::{self, Entry, HnswParams, LayeredGraph};
use crate::components::selection::select_rng_alpha;
use crate::search::{filtered_beam_search, SearchScratch, SearchStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use weavess_data::{Dataset, Neighbor};

/// An HNSW index supporting online insert, delete, and search.
///
/// ```
/// use weavess_core::algorithms::hnsw::HnswParams;
/// use weavess_core::algorithms::hnsw_dynamic::DynamicHnsw;
///
/// let mut idx = DynamicHnsw::new(4, HnswParams::tuned(1, 1));
/// let a = idx.insert(&[0.0, 0.0, 0.0, 0.0]);
/// let b = idx.insert(&[1.0, 0.0, 0.0, 0.0]);
/// let _ = idx.insert(&[5.0, 5.0, 5.0, 5.0]);
/// assert_eq!(idx.search(&[0.1, 0.0, 0.0, 0.0], 1, 8)[0].id, a);
/// idx.delete(a);
/// assert_eq!(idx.search(&[0.1, 0.0, 0.0, 0.0], 1, 8)[0].id, b);
/// ```
pub struct DynamicHnsw {
    data: Dataset,
    /// Every layer's adjacency and each vertex's level, in fixed-stride
    /// blocks: layer 0 is searched and prefetched as one flat array.
    graph: LayeredGraph,
    /// Tombstones: a deleted vertex keeps routing until `consolidate`.
    deleted: Vec<bool>,
    live: usize,
    /// Entry vertex and the layer it tops (the top one in use).
    entry: Entry,
    params: HnswParams,
    /// Level stream; a bulk load leaves it where `len()` inserts would.
    rng: StdRng,
    /// Search buffers; its visited set also dedupes `consolidate`'s
    /// candidates.
    scratch: SearchScratch,
    stats: SearchStats,
}

impl DynamicHnsw {
    /// An empty index over `dim`-dimensional vectors.
    pub fn new(dim: usize, params: HnswParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        DynamicHnsw {
            data: Dataset::empty(dim),
            graph: LayeredGraph::new(&params),
            deleted: Vec::new(),
            live: 0,
            entry: Entry { id: 0, level: 0 },
            params,
            rng,
            scratch: SearchScratch::new(0),
            stats: SearchStats::default(),
        }
    }

    /// Bulk-loads `base` with the deterministic parallel batch
    /// construction shared with the static HNSW builder — prefix-doubling
    /// batches search the frozen prior graph in parallel
    /// (`params.threads` workers, 0 = one per core), commits apply in
    /// point-id order.
    ///
    /// The result is bit-identical for every thread count, and all
    /// `base.len()` geometric levels are drawn from the same RNG stream
    /// one-at-a-time [`Self::insert`] would use — so incremental inserts
    /// after a bulk load continue identically no matter how many threads
    /// built the base.
    pub fn bulk_load(base: &Dataset, params: HnswParams) -> Self {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let n = base.len();
        let levels = crate::telemetry::span("C1 init", || hnsw::draw_levels(n, &params, &mut rng));
        let data = base.clone();
        let (graph, entry) = crate::telemetry::span("C2+C3 insertion", || {
            hnsw::build_layers(base, levels, &params)
        });
        DynamicHnsw {
            data,
            graph,
            deleted: vec![false; n],
            live: n,
            entry,
            params,
            rng,
            scratch: SearchScratch::new(n),
            stats: SearchStats::default(),
        }
    }

    /// Total points ever inserted (tombstones included).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no points were ever inserted.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Points currently visible to search.
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Fraction of tombstoned points — rebuild when this grows large.
    pub fn tombstone_fraction(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        1.0 - self.live as f64 / self.data.len() as f64
    }

    /// The owned vectors (ids are stable across deletes).
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Inserts a vector, returning its id.
    pub fn insert(&mut self, vector: &[f32]) -> u32 {
        let p = self.data.push(vector);
        self.live += 1;
        self.deleted.push(false);
        self.scratch.ensure_len(self.data.len());
        let lp = hnsw::draw_level(&self.params, &mut self.rng);
        self.graph.push_vertex(lp);
        if p == 0 {
            self.entry = Entry { id: 0, level: lp };
            return p;
        }
        let per_layer = hnsw::search_one(
            &self.data,
            &self.graph,
            self.entry,
            &self.params,
            p,
            &mut self.scratch,
            &mut self.stats,
        );
        self.graph
            .commit(&self.data, &mut self.entry, p, &per_layer);
        p
    }

    /// Tombstones `id`; returns false when already deleted or out of range.
    pub fn delete(&mut self, id: u32) -> bool {
        match self.deleted.get_mut(id as usize) {
            Some(d) if !*d => {
                *d = true;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Searches the live points for `k` nearest neighbors.
    ///
    /// When tombstones smother the query's neighborhood (e.g. a whole
    /// deleted cluster), a fixed-width traversal can converge without ever
    /// touching a live vertex; the beam is doubled until `k` live results
    /// are found or the pool covers the whole dataset, so a connected
    /// graph always yields every reachable live point.
    pub fn search(&mut self, query: &[f32], k: usize, beam: usize) -> Vec<Neighbor> {
        if self.data.is_empty() || self.live == 0 {
            return Vec::new();
        }
        let mut ep = self.entry.id;
        for l in (1..=self.entry.level).rev() {
            ep = self.greedy_closest(l, query, ep);
        }
        let deleted = &self.deleted;
        // Borrow dance: split disjoint fields for the filtered search.
        let mut stats = self.stats;
        let mut beam = beam.max(k);
        let res = loop {
            self.scratch.next_epoch();
            let res = filtered_beam_search(
                &self.data,
                self.graph.base(),
                query,
                &[ep],
                k,
                beam,
                &|id| !deleted[id as usize],
                &mut self.scratch,
                &mut stats,
            );
            if res.len() >= k.min(self.live) || beam >= self.data.len() {
                break res;
            }
            beam = (beam * 2).min(self.data.len());
        };
        self.stats = stats;
        res
    }

    /// Accumulated work counters (reset with [`std::mem::take`] semantics).
    pub fn take_stats(&mut self) -> SearchStats {
        std::mem::take(&mut self.stats)
    }

    /// Repairs the graph around tombstones: every live vertex that points
    /// at a deleted one replaces its neighborhood by RNG-selecting from
    /// its live 2-hop neighborhood (routing *through* tombstones so their
    /// connectivity is inherited), and tombstoned vertices lose their
    /// out-edges. Call when [`Self::tombstone_fraction`] grows large;
    /// vector storage is not reclaimed (ids stay stable).
    ///
    /// Returns the number of vertices whose neighborhoods were rebuilt.
    pub fn consolidate(&mut self) -> usize {
        let n = self.data.len() as u32;
        let mut rebuilt = 0usize;
        // Repairs read the graph as it was: one flat copy per block array.
        let before = self.graph.clone();
        let mut cands: Vec<Neighbor> = Vec::new();
        for l in 0..self.graph.num_layers() {
            let max_deg = if l == 0 {
                self.params.m0
            } else {
                self.params.m
            };
            for v in (0..n).filter(|&v| !self.deleted[v as usize]) {
                let nbrs = before.neighbors(l, v);
                if !nbrs.iter().any(|&u| self.deleted[u as usize]) {
                    continue;
                }
                // Live 2-hop neighborhood through tombstones, each vertex
                // once (the visited stamps dedupe; `v` itself is excluded).
                self.scratch.next_epoch();
                self.scratch.visited.visit(v);
                cands.clear();
                for &u in nbrs {
                    for &w in std::iter::once(&u).chain(before.neighbors(l, u)) {
                        if !self.deleted[w as usize] && self.scratch.visited.visit(w) {
                            cands.push(Neighbor::new(w, self.data.dist(v, w)));
                        }
                    }
                }
                cands.sort_unstable();
                let kept = select_rng_alpha(&self.data, v, &cands, max_deg, 1.0);
                self.graph.set(l, v, kept.iter().map(|x| x.id));
                rebuilt += 1;
            }
            // Tombstones stop routing entirely on this layer.
            for v in (0..n).filter(|&v| self.deleted[v as usize]) {
                self.graph.clear(l, v);
            }
        }
        // The entry must be live. Take the live vertex of the highest
        // level (lowest id among equals) so the hierarchy above layer 0
        // stays in use.
        if self.deleted.get(self.entry.id as usize) == Some(&true) {
            let top = (0..n)
                .filter(|&v| !self.deleted[v as usize])
                .max_by_key(|&v| (self.graph.level(v), std::cmp::Reverse(v)));
            if let Some(live) = top {
                self.entry = Entry {
                    id: live,
                    level: self.graph.level(live),
                };
            }
        }
        rebuilt
    }

    fn greedy_closest(&mut self, layer: usize, query: &[f32], start: u32) -> u32 {
        hnsw::greedy_closest(
            &self.data,
            &self.graph.layer(layer),
            query,
            start,
            &mut self.scratch.batch_dists,
            &mut self.stats,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::synthetic::MixtureSpec;

    fn vectors(n: usize) -> (Dataset, Dataset) {
        MixtureSpec {
            intrinsic_dim: Some(6),
            noise: 0.05,
            shared_subspace: true,
            ..MixtureSpec::table10(16, n, 3, 5.0, 30)
        }
        .generate()
    }

    fn build_dynamic(base: &Dataset) -> DynamicHnsw {
        let mut idx = DynamicHnsw::new(base.dim(), HnswParams::tuned(2, 3));
        for i in 0..base.len() as u32 {
            idx.insert(base.point(i));
        }
        idx
    }

    #[test]
    fn insert_then_search_matches_ground_truth() {
        let (base, queries) = vectors(1_200);
        let mut idx = build_dynamic(&base);
        let mut hits = 0usize;
        for qi in 0..queries.len() as u32 {
            let q = queries.point(qi);
            let res = idx.search(q, 10, 60);
            let truth: Vec<u32> = knn_scan(&base, q, 10, None).iter().map(|n| n.id).collect();
            hits += res.iter().filter(|n| truth.contains(&n.id)).count();
        }
        let recall = hits as f64 / (10 * queries.len()) as f64;
        assert!(recall > 0.9, "recall={recall}");
    }

    #[test]
    fn deleted_points_never_appear_in_results() {
        let (base, queries) = vectors(800);
        let mut idx = build_dynamic(&base);
        // Delete every third point.
        for id in (0..base.len() as u32).step_by(3) {
            assert!(idx.delete(id));
        }
        assert!(!idx.delete(0), "double delete must fail");
        assert!((idx.tombstone_fraction() - 1.0 / 3.0).abs() < 0.01);
        for qi in 0..queries.len() as u32 {
            let res = idx.search(queries.point(qi), 10, 60);
            assert!(res.iter().all(|n| n.id % 3 != 0));
            assert!(!res.is_empty());
        }
    }

    #[test]
    fn recall_against_live_ground_truth_after_deletes() {
        let (base, queries) = vectors(1_000);
        let mut idx = build_dynamic(&base);
        for id in (0..base.len() as u32).step_by(2) {
            idx.delete(id);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in 0..queries.len() as u32 {
            let q = queries.point(qi);
            let truth: Vec<u32> = knn_scan(&base, q, base.len(), None)
                .into_iter()
                .filter(|n| n.id % 2 == 1)
                .take(10)
                .map(|n| n.id)
                .collect();
            let res = idx.search(q, 10, 80);
            hits += res.iter().filter(|n| truth.contains(&n.id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.85, "post-delete recall {recall}");
    }

    #[test]
    fn interleaved_inserts_remain_searchable() {
        let (base, queries) = vectors(1_000);
        let mut idx = DynamicHnsw::new(base.dim(), HnswParams::tuned(2, 3));
        // First half.
        for i in 0..500u32 {
            idx.insert(base.point(i));
        }
        let early = idx.search(queries.point(0), 5, 40);
        assert_eq!(early.len(), 5);
        // Second half, interleaved with deletes of the first.
        for i in 500..1_000u32 {
            idx.insert(base.point(i));
            if i % 10 == 0 {
                idx.delete(i - 500);
            }
        }
        assert_eq!(idx.len(), 1_000);
        assert_eq!(idx.live_len(), 1_000 - 50);
        let res = idx.search(queries.point(1), 10, 60);
        assert_eq!(res.len(), 10);
    }

    #[test]
    fn consolidate_removes_tombstone_edges_and_keeps_recall() {
        let (base, queries) = vectors(1_000);
        let mut idx = build_dynamic(&base);
        for id in (0..base.len() as u32).step_by(2) {
            idx.delete(id);
        }
        let rebuilt = idx.consolidate();
        assert!(rebuilt > 0);
        // No live vertex points at a tombstone anymore; tombstones have no
        // out-edges.
        for v in 0..base.len() as u32 {
            for l in 0..idx.graph.num_layers() {
                let list = idx.graph.neighbors(l, v);
                if idx.deleted[v as usize] {
                    assert!(list.is_empty());
                } else {
                    assert!(list.iter().all(|&u| !idx.deleted[u as usize]));
                }
            }
        }
        // Recall against live ground truth stays high after repair.
        let mut hits = 0usize;
        let mut total = 0usize;
        for qi in 0..queries.len() as u32 {
            let q = queries.point(qi);
            let truth: Vec<u32> = knn_scan(&base, q, base.len(), None)
                .into_iter()
                .filter(|n| n.id % 2 == 1)
                .take(10)
                .map(|n| n.id)
                .collect();
            let res = idx.search(q, 10, 80);
            hits += res.iter().filter(|n| truth.contains(&n.id)).count();
            total += truth.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.85, "post-consolidate recall {recall}");
    }

    #[test]
    fn consolidate_moves_a_deleted_entry_point() {
        let (base, _) = vectors(400);
        let mut idx = build_dynamic(&base);
        let entry_before = idx.entry.id;
        assert!(idx.graph.num_layers() >= 2, "no hierarchy to lose");
        idx.delete(entry_before);
        idx.consolidate();
        assert_ne!(idx.entry.id, entry_before);
        assert!(!idx.deleted[idx.entry.id as usize]);
        // The new entry is the top of the live hierarchy (lowest id among
        // equals), so searches keep descending through the upper layers.
        let top_live = (0..base.len() as u32)
            .filter(|&v| !idx.deleted[v as usize])
            .map(|v| idx.graph.level(v))
            .max()
            .unwrap();
        assert!(top_live >= 1);
        assert_eq!(idx.entry.level, top_live);
        let first_at_top = (0..base.len() as u32)
            .find(|&v| !idx.deleted[v as usize] && idx.graph.level(v) == top_live);
        assert_eq!(Some(idx.entry.id), first_at_top);
        let res = idx.search(base.point(3), 5, 40);
        assert_eq!(res.len(), 5);
    }

    /// Small-integer coordinates: every distance is exact in any summation
    /// order, so a digest over them holds under every kernel tier.
    fn integer_vectors(n: usize, dim: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(41);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-16i32..17) as f32).collect())
            .collect();
        Dataset::from_rows(&rows)
    }

    /// `consolidate` repairs to exactly the graph it produced when it
    /// deduped candidates by linear scan over nested lists (digest recorded
    /// on commit f2bcfbf): every layer, every list, order included.
    #[test]
    fn consolidate_repairs_to_the_recorded_graph() {
        let base = integer_vectors(1_500, 16);
        let mut idx = DynamicHnsw::bulk_load(&base, HnswParams::tuned(2, 7));
        let mut rng = StdRng::seed_from_u64(23);
        for id in 0..base.len() as u32 {
            if rng.gen_range(0..10) < 3 {
                idx.delete(id);
            }
        }
        let rebuilt = idx.consolidate();
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut fnv1a = |word: u32| {
            for b in word.to_le_bytes() {
                digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        assert!(
            idx.graph.num_layers() >= 3,
            "the pin must cover upper layers"
        );
        for l in 0..idx.graph.num_layers() {
            for v in 0..base.len() as u32 {
                let list = idx.graph.neighbors(l, v);
                fnv1a(list.len() as u32);
                list.iter().for_each(|&u| fnv1a(u));
            }
        }
        assert_eq!((rebuilt, digest), (1_083, 0xcd6c6abd81280470));
    }

    /// Every stored list is a valid HNSW list: bounded, duplicate- and
    /// loop-free, and only between vertices present on that layer.
    fn assert_lists_are_valid(idx: &DynamicHnsw) {
        for l in 0..idx.graph.num_layers() {
            let max_deg = if l == 0 { idx.params.m0 } else { idx.params.m };
            for v in 0..idx.len() as u32 {
                let list = idx.graph.neighbors(l, v);
                assert!(list.len() <= max_deg, "layer {l} vertex {v}: {list:?}");
                assert!(idx.graph.level(v) >= l || list.is_empty());
                for (i, &u) in list.iter().enumerate() {
                    assert!((u as usize) < idx.len() && u != v, "layer {l} vertex {v}");
                    assert!(idx.graph.level(u) >= l, "layer {l}: {v} -> absent {u}");
                    assert!(!list[..i].contains(&u), "layer {l} vertex {v}: {list:?}");
                }
            }
        }
    }

    /// Seeded insert/delete/search/consolidate interleavings against a
    /// brute-force oracle over the live points.
    #[test]
    fn interleaved_ops_keep_every_invariant() {
        for (seed, start) in [(1u64, 300usize), (2, 550), (3, 800)] {
            let (points, queries) = vectors(start + 400);
            let base = points.subset(&(0..start as u32).collect::<Vec<u32>>());
            let mut idx = DynamicHnsw::bulk_load(&base, HnswParams::tuned(2, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let mut live: Vec<u32> = (0..start as u32).collect();
            let (mut hits, mut wanted) = (0usize, 0usize);
            for batch in 0..16 {
                for _ in 0..50 {
                    match rng.gen_range(0..10) {
                        0..=2 if idx.len() < points.len() => {
                            let id = idx.insert(points.point(idx.len() as u32));
                            assert_eq!(id as usize, idx.len() - 1);
                            live.push(id);
                        }
                        3..=4 if live.len() > 20 => {
                            let id = live.swap_remove(rng.gen_range(0..live.len()));
                            assert!(idx.delete(id) && !idx.delete(id));
                        }
                        _ => {
                            let q = queries.point(rng.gen_range(0..queries.len() as u32));
                            let k = [1, 10, 40][rng.gen_range(0..3)];
                            let res = idx.search(q, k, 80);
                            assert_eq!(res.len(), k.min(live.len()));
                            assert!(res.windows(2).all(|w| w[0] < w[1]), "unsorted or duplicate");
                            assert!(
                                res.iter().all(|n| live.contains(&n.id)),
                                "dead or foreign id"
                            );
                            if k == 10 {
                                let truth: Vec<u32> = knn_scan(idx.dataset(), q, idx.len(), None)
                                    .into_iter()
                                    .filter(|n| live.contains(&n.id))
                                    .take(k)
                                    .map(|n| n.id)
                                    .collect();
                                hits += res.iter().filter(|n| truth.contains(&n.id)).count();
                                wanted += truth.len();
                            }
                        }
                    }
                }
                assert_eq!(idx.live_len(), live.len());
                if batch % 4 == 3 {
                    idx.consolidate();
                    assert!(!idx.deleted[idx.entry.id as usize]);
                    for v in 0..idx.len() as u32 {
                        for l in 0..idx.graph.num_layers() {
                            let list = idx.graph.neighbors(l, v);
                            assert!(list.iter().all(|&u| !idx.deleted[u as usize]));
                            assert!(!idx.deleted[v as usize] || list.is_empty());
                        }
                    }
                }
                assert_lists_are_valid(&idx);
            }
            let recall = hits as f64 / wanted as f64;
            assert!(recall > 0.85, "seed {seed}: recall {recall} over {wanted}");
        }
        // Nothing to repair, nothing to index out of.
        assert_eq!(
            DynamicHnsw::new(4, HnswParams::tuned(1, 1)).consolidate(),
            0
        );
    }

    /// Inserts grow the owned vectors past several reallocations; every
    /// row must stay on a cache line (16 floats are one 64-byte line).
    #[test]
    fn inserted_rows_stay_on_cache_lines() {
        let (base, _) = vectors(10_500);
        let ids: Vec<u32> = (0..500).collect();
        let mut idx = DynamicHnsw::bulk_load(&base.subset(&ids), HnswParams::tuned(2, 5));
        for i in 500..base.len() as u32 {
            idx.insert(base.point(i));
        }
        let ds = idx.dataset();
        assert_eq!(ds.len(), 10_500);
        for i in 0..ds.len() as u32 {
            assert!(
                (ds.point(i).as_ptr() as usize).is_multiple_of(64),
                "row {i}"
            );
        }
        assert_eq!(ds, &base);
    }

    #[test]
    fn empty_and_exhausted_indexes_return_empty() {
        let mut idx = DynamicHnsw::new(8, HnswParams::tuned(1, 1));
        assert!(idx.search(&[0.0; 8], 5, 20).is_empty());
        let id = idx.insert(&[1.0; 8]);
        idx.delete(id);
        assert!(idx.search(&[0.0; 8], 5, 20).is_empty());
    }
}
