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

use crate::algorithms::hnsw::{self, HnswParams};
use crate::components::selection::select_rng_alpha;
use crate::search::{beam_search, filtered_beam_search, SearchScratch, SearchStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    /// Per-layer adjacency; `layers[l][v]` empty when `v` is absent at `l`.
    layers: Vec<Vec<Vec<u32>>>,
    levels: Vec<usize>,
    deleted: Vec<bool>,
    live: usize,
    enter: u32,
    enter_level: usize,
    params: HnswParams,
    rng: StdRng,
    scratch: SearchScratch,
    stats: SearchStats,
}

impl DynamicHnsw {
    /// An empty index over `dim`-dimensional vectors.
    pub fn new(dim: usize, params: HnswParams) -> Self {
        let rng = StdRng::seed_from_u64(params.seed);
        DynamicHnsw {
            data: Dataset::empty(dim),
            layers: vec![Vec::new()],
            levels: Vec::new(),
            deleted: Vec::new(),
            live: 0,
            enter: 0,
            enter_level: 0,
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
        let mut data = Dataset::empty(base.dim());
        for i in 0..n as u32 {
            data.push(base.point(i));
        }
        let (layers, enter, enter_level) = if n == 0 {
            (vec![Vec::new()], 0, 0)
        } else {
            crate::telemetry::span("C2+C3 insertion", || {
                hnsw::build_layers(base, &levels, &params)
            })
        };
        DynamicHnsw {
            data,
            layers,
            levels,
            deleted: vec![false; n],
            live: n,
            enter,
            enter_level,
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
        // Geometric level.
        let ml = 1.0 / (self.params.m.max(2) as f64).ln();
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let lp = (-u.ln() * ml).floor() as usize;
        self.levels.push(lp);
        while self.layers.len() <= lp {
            let mut layer = Vec::new();
            layer.resize(self.data.len(), Vec::new());
            self.layers.push(layer);
        }
        for layer in &mut self.layers {
            layer.resize(self.data.len(), Vec::new());
        }
        if p == 0 {
            self.enter = 0;
            self.enter_level = lp;
            return p;
        }

        let mut ep = self.enter;
        // Greedy descent above lp.
        for l in ((lp + 1)..=self.enter_level).rev() {
            ep = self.greedy_closest(l, vector, ep);
        }
        // Beam insert on lp..=0.
        for l in (0..=lp.min(self.enter_level)).rev() {
            self.scratch.next_epoch();
            let pool = beam_search(
                &self.data,
                self.layers[l].as_slice(),
                vector,
                &[ep],
                self.params.ef_construction,
                &mut self.scratch,
                &mut self.stats,
            );
            let max_deg = if l == 0 {
                self.params.m0
            } else {
                self.params.m
            };
            let selected = select_rng_alpha(&self.data, p, &pool, self.params.m, 1.0);
            for s in &selected {
                self.layers[l][p as usize].push(s.id);
                self.layers[l][s.id as usize].push(p);
                if self.layers[l][s.id as usize].len() > max_deg {
                    let mut cands: Vec<Neighbor> = self.layers[l][s.id as usize]
                        .iter()
                        .map(|&u| Neighbor::new(u, self.data.dist(s.id, u)))
                        .collect();
                    cands.sort_unstable();
                    self.layers[l][s.id as usize] =
                        select_rng_alpha(&self.data, s.id, &cands, max_deg, 1.0)
                            .iter()
                            .map(|x| x.id)
                            .collect();
                }
            }
            ep = selected.first().map(|s| s.id).unwrap_or(ep);
        }
        if lp > self.enter_level {
            self.enter = p;
            self.enter_level = lp;
        }
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
        let mut ep = self.enter;
        for l in (1..=self.enter_level).rev() {
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
                self.layers[0].as_slice(),
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
        let n = self.data.len();
        let mut rebuilt = 0usize;
        for l in 0..self.layers.len() {
            let max_deg = if l == 0 {
                self.params.m0
            } else {
                self.params.m
            };
            let snapshot: Vec<Vec<u32>> = self.layers[l].clone();
            for v in 0..n as u32 {
                if self.deleted[v as usize] {
                    continue;
                }
                if !snapshot[v as usize]
                    .iter()
                    .any(|&u| self.deleted[u as usize])
                {
                    continue;
                }
                // Live 2-hop neighborhood through tombstones.
                let mut cands: Vec<Neighbor> = Vec::new();
                for &u in &snapshot[v as usize] {
                    if !self.deleted[u as usize] {
                        push_unique(&mut cands, Neighbor::new(u, self.data.dist(v, u)));
                    }
                    for &w in &snapshot[u as usize] {
                        if w != v && !self.deleted[w as usize] {
                            push_unique(&mut cands, Neighbor::new(w, self.data.dist(v, w)));
                        }
                    }
                }
                cands.sort_unstable();
                self.layers[l][v as usize] = select_rng_alpha(&self.data, v, &cands, max_deg, 1.0)
                    .iter()
                    .map(|x| x.id)
                    .collect();
                rebuilt += 1;
            }
            // Tombstones stop routing entirely on this layer.
            for v in 0..n {
                if self.deleted[v] {
                    self.layers[l][v].clear();
                }
            }
        }
        // The entry must be live; fall back to any live vertex.
        if self.deleted[self.enter as usize] {
            if let Some(live) = (0..n as u32).find(|&v| !self.deleted[v as usize]) {
                self.enter = live;
                self.enter_level = self.levels[live as usize];
            }
        }
        rebuilt
    }

    fn greedy_closest(&mut self, layer: usize, query: &[f32], start: u32) -> u32 {
        hnsw::greedy_closest(
            &self.data,
            self.layers[layer].as_slice(),
            query,
            start,
            &mut self.scratch.batch_dists,
            &mut self.stats,
        )
    }
}

fn push_unique(cands: &mut Vec<Neighbor>, n: Neighbor) {
    if !cands.iter().any(|c| c.id == n.id) {
        cands.push(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        for v in 0..base.len() {
            for l in 0..idx.layers.len() {
                if idx.deleted[v] {
                    assert!(idx.layers[l][v].is_empty());
                } else {
                    assert!(idx.layers[l][v].iter().all(|&u| !idx.deleted[u as usize]));
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
        let entry_before = idx.enter;
        idx.delete(entry_before);
        idx.consolidate();
        assert_ne!(idx.enter, entry_before);
        assert!(!idx.deleted[idx.enter as usize]);
        let res = idx.search(base.point(3), 5, 40);
        assert_eq!(res.len(), 5);
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
