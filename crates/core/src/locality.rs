//! The cache-locality layer: runtime-selectable node layout and vertex
//! ordering beneath every router.
//!
//! A [`LayoutIndex`] wraps a built [`FlatIndex`] in one of four physical
//! arrangements — {original, BFS-reordered} × {split CSR+matrix, fused
//! arena} — without changing a single search result: ids in and out stay
//! in the caller's original space (the permutation is applied on entry
//! and inverted on exit), and distances, NDC, and hops are identical
//! because the traversal visits the same vertices through the same
//! kernels. Only the memory-access pattern moves, which is the entire
//! point: after PR 2 the routing hot path is memory-bound, so layout is
//! where the remaining QPS lives. `crates/core/tests/layout.rs` holds the
//! identity over the matrix; the `layout.*_qps_ratio` rows of
//! `benchmark/run.sh --trace 1` time it.

use crate::components::SeedStrategy;
use crate::index::{AnnIndex, FlatIndex, IndexError, SearchContext};
use crate::search::Router;
use crate::telemetry::{NoopTracer, RouteTracer};
use weavess_data::{Dataset, Neighbor};
use weavess_graph::reorder::{bfs_order, Permutation};
use weavess_graph::{merge_overlay, strip_overlay, CsrGraph, FusedArena};

/// Physical node layout for the routing structures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeLayout {
    /// Classic split storage: CSR adjacency in one allocation, the vector
    /// matrix in another — two pointer chases per expansion.
    Split,
    /// Fused arena: each vertex's degree, neighbors, and vector in one
    /// 64-byte-aligned block — one pointer chase per expansion.
    Fused,
}

/// The owned routing storage behind a [`LayoutIndex`].
pub(crate) enum LayoutStore {
    /// CSR + the dataset in index id space: the reordered copy, or `None`
    /// when no permutation is applied and the caller's dataset already is
    /// that matrix.
    Split {
        graph: CsrGraph,
        vectors: Option<Dataset>,
    },
    /// Fused arena; the CSR is kept alongside so [`AnnIndex::graph`] and
    /// persistence still see a plain graph (its bytes are counted in the
    /// stats — fusing buys speed, not memory).
    Fused { graph: CsrGraph, arena: FusedArena },
}

/// Memory accounting for a [`LayoutIndex`], field by field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayoutStats {
    /// CSR adjacency bytes.
    pub graph_bytes: usize,
    /// Vector storage bytes (split layout's reordered dataset copy; 0
    /// when not reordered — the index then reads the caller's dataset).
    pub vector_bytes: usize,
    /// Fused arena bytes (0 for split).
    pub arena_bytes: usize,
    /// Bytes of the arena that are padding (unused neighbor slots and
    /// cache-line rounding) — the overhead fusing pays for alignment.
    pub arena_padding_bytes: usize,
    /// Permutation bytes (both direction arrays; 0 when not reordered).
    pub permutation_bytes: usize,
    /// Catapult overlay segment bytes (0 when the index is unadapted).
    pub overlay_bytes: usize,
}

/// A [`FlatIndex`] re-hosted on a selectable physical layout.
///
/// Seeds are evaluated against the *caller's* dataset in original id
/// space (so tree-backed strategies keep working), then mapped through
/// the permutation; results are mapped back and re-sorted into canonical
/// (distance, original id) order before truncation. Assuming no exact
/// distance ties, results are identical to the wrapped [`FlatIndex`].
pub struct LayoutIndex {
    pub(crate) name: &'static str,
    pub(crate) router: Router,
    /// Seed strategy, operating in the original id space.
    pub(crate) seeds: SeedStrategy,
    /// `Some` when the graph/vectors were BFS-reordered.
    pub(crate) perm: Option<Permutation>,
    /// Catapult overlay segment in index id space: `Some` once the index
    /// has been adapted ([`LayoutIndex::adapt`]). The stored routing
    /// graph is then the base+overlay merge; the base is recoverable
    /// exactly via [`LayoutIndex::base_graph`].
    pub(crate) overlay: Option<CsrGraph>,
    pub(crate) store: LayoutStore,
}

impl LayoutIndex {
    /// Re-hosts `flat` (consumed — [`SeedStrategy`] owns its trees) on the
    /// chosen layout. `reorder` renumbers vertices by a BFS from the
    /// dataset medoid before laying them out.
    ///
    /// # Panics
    /// Panics on an empty dataset or a graph/dataset size mismatch; use
    /// [`LayoutIndex::try_from_flat`] where those are runtime conditions
    /// (e.g. building over a partitioned shard).
    pub fn from_flat(flat: FlatIndex, ds: &Dataset, layout: NodeLayout, reorder: bool) -> Self {
        Self::try_from_flat(flat, ds, layout, reorder).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`LayoutIndex::from_flat`]: returns a typed error instead
    /// of panicking when the dataset is empty (reordering needs a medoid
    /// and an empty index cannot answer anything) or when the graph does
    /// not match the dataset — both real hazards once a seeded partition
    /// can produce arbitrarily small shards.
    pub fn try_from_flat(
        flat: FlatIndex,
        ds: &Dataset,
        layout: NodeLayout,
        reorder: bool,
    ) -> Result<Self, IndexError> {
        if ds.is_empty() {
            return Err(IndexError::EmptyDataset {
                context: "LayoutIndex",
            });
        }
        if flat.graph.len() != ds.len() {
            return Err(IndexError::SizeMismatch {
                graph: flat.graph.len(),
                dataset: ds.len(),
            });
        }
        let perm = reorder.then(|| bfs_order(&flat.graph, ds.medoid()));
        Ok(Self::assemble(flat, perm, None, ds, layout))
    }

    /// Hosts `flat`, whose graph is in *original* id space, on `layout`
    /// over the caller's dataset, renumbered by `perm` when given, with an
    /// optional catapult overlay segment (also in original id space; the
    /// routing graph becomes the base+overlay merge). The persist loader
    /// calls this with what a file stores, which is why the permutation is
    /// applied here rather than in `from_flat`.
    pub(crate) fn assemble(
        flat: FlatIndex,
        perm: Option<Permutation>,
        overlay: Option<CsrGraph>,
        ds: &Dataset,
        layout: NodeLayout,
    ) -> Self {
        let renumber = |g: CsrGraph| match &perm {
            Some(p) => p.apply_to_graph(&g),
            None => g,
        };
        let base = renumber(flat.graph);
        let overlay = overlay.map(renumber);
        let graph = match &overlay {
            Some(o) => merge_overlay(&base, o),
            None => base,
        };
        let store = Self::store_from(graph, perm.as_ref(), ds, layout);
        LayoutIndex {
            name: flat.name,
            router: flat.router,
            seeds: flat.seeds,
            perm,
            overlay,
            store,
        }
    }

    /// Builds the physical store for a routing graph in index id space
    /// over the caller's dataset (original id space). Vectors are copied
    /// only when `perm` renumbers them: the reordered copy is the point of
    /// reordering, an unreordered one would be a second `ds`.
    fn store_from(
        graph: CsrGraph,
        perm: Option<&Permutation>,
        ds: &Dataset,
        layout: NodeLayout,
    ) -> LayoutStore {
        let vectors = perm.map(|p| p.apply_to_dataset(ds));
        match layout {
            NodeLayout::Split => LayoutStore::Split { graph, vectors },
            NodeLayout::Fused => {
                let arena = FusedArena::with_vectors(&graph, vectors.as_ref().unwrap_or(ds));
                LayoutStore::Fused { graph, arena }
            }
        }
    }

    /// Swaps in an adapted routing graph (base+overlay merge, index id
    /// space) and its overlay segment, rebuilding the physical store in
    /// the current layout. `ds` is the caller's dataset in original id
    /// space. Used by [`LayoutIndex::adapt`].
    pub(crate) fn install_combined(&mut self, combined: CsrGraph, overlay: CsrGraph, ds: &Dataset) {
        self.store = Self::store_from(combined, self.perm.as_ref(), ds, self.layout());
        self.overlay = Some(overlay);
    }

    /// The layout this index stores its nodes in.
    pub fn layout(&self) -> NodeLayout {
        match self.store {
            LayoutStore::Split { .. } => NodeLayout::Split,
            LayoutStore::Fused { .. } => NodeLayout::Fused,
        }
    }

    /// True when vertices were BFS-reordered.
    pub fn is_reordered(&self) -> bool {
        self.perm.is_some()
    }

    /// The applied permutation, if any.
    pub fn permutation(&self) -> Option<&Permutation> {
        self.perm.as_ref()
    }

    /// The catapult overlay segment (index id space), if the index has
    /// been adapted.
    pub fn overlay(&self) -> Option<&CsrGraph> {
        self.overlay.as_ref()
    }

    /// The base graph in index id space — the routing graph with any
    /// catapult overlay stripped back out (exact inverse of the merge:
    /// overlay edges are the per-vertex suffix). Identical to
    /// [`AnnIndex::graph`] when unadapted.
    pub fn base_graph(&self) -> CsrGraph {
        let graph = match &self.store {
            LayoutStore::Split { graph, .. } | LayoutStore::Fused { graph, .. } => graph,
        };
        match &self.overlay {
            Some(o) => strip_overlay(graph, o),
            None => graph.clone(),
        }
    }

    /// Per-structure memory accounting.
    pub fn layout_stats(&self) -> LayoutStats {
        let (graph_bytes, vector_bytes, arena_bytes, arena_padding_bytes) = match &self.store {
            LayoutStore::Split { graph, vectors } => {
                let vector_bytes = vectors.as_ref().map_or(0, Dataset::memory_bytes);
                (graph.memory_bytes(), vector_bytes, 0, 0)
            }
            LayoutStore::Fused { graph, arena } => (
                graph.memory_bytes(),
                0,
                arena.memory_bytes(),
                arena.padding_bytes(),
            ),
        };
        LayoutStats {
            graph_bytes,
            vector_bytes,
            arena_bytes,
            arena_padding_bytes,
            permutation_bytes: self.perm.as_ref().map_or(0, |p| p.memory_bytes()),
            overlay_bytes: self.overlay.as_ref().map_or(0, |o| o.memory_bytes()),
        }
    }
}

impl LayoutIndex {
    /// The query body behind [`AnnIndex::search`] and
    /// [`AnnIndex::search_traced`].
    fn route<T: RouteTracer>(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
        tracer: &mut T,
    ) -> Vec<Neighbor> {
        let beam = beam.max(k);
        // Seeds in original space, against the caller's dataset (same RNG
        // stream and NDC accounting as the wrapped FlatIndex)…
        let mut seeds = self.seeds.seeds(ds, query, &mut ctx.rng, &mut ctx.stats);
        // …then into the index's id space.
        if let Some(p) = &self.perm {
            for s in &mut seeds {
                *s = p.to_new(*s);
            }
        }
        ctx.scratch.next_epoch();
        let (scratch, stats) = (&mut ctx.scratch, &mut ctx.stats);
        let mut pool = match &self.store {
            LayoutStore::Split { graph, vectors } => {
                let vectors = vectors.as_ref().unwrap_or(ds);
                self.router
                    .search_traced(vectors, graph, query, &seeds, beam, scratch, stats, tracer)
            }
            LayoutStore::Fused { arena, .. } => self
                .router
                .search_traced(arena, arena, query, &seeds, beam, scratch, stats, tracer),
        };
        if let Some(p) = &self.perm {
            for n in &mut pool {
                n.id = p.to_old(n.id);
            }
            // Canonical (distance, original id) order: without ties this
            // only reorders equal-distance pairs the renaming shuffled.
            pool.sort_unstable();
        }
        pool.truncate(k);
        pool
    }
}

impl AnnIndex for LayoutIndex {
    fn name(&self) -> &'static str {
        self.name
    }

    fn search(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
    ) -> Vec<Neighbor> {
        self.route(ds, query, k, beam, ctx, &mut NoopTracer)
    }

    /// Route events carry *index id-space* vertex ids (the ids the
    /// traversal actually touches); reordered layouts therefore trace the
    /// renamed ids, matching the graph returned by [`AnnIndex::graph`].
    fn search_traced(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
        mut tracer: &mut dyn RouteTracer,
    ) -> Vec<Neighbor> {
        self.route(ds, query, k, beam, ctx, &mut tracer)
    }

    /// The routing graph *in index id space* — reordered when
    /// [`LayoutIndex::is_reordered`]. Degree statistics and edge counts
    /// are permutation-invariant, so the Table 4/11 metrics read the same.
    fn graph(&self) -> &CsrGraph {
        match &self.store {
            LayoutStore::Split { graph, .. } | LayoutStore::Fused { graph, .. } => graph,
        }
    }

    fn memory_bytes(&self) -> usize {
        let s = self.layout_stats();
        s.graph_bytes
            + s.vector_bytes
            + s.arena_bytes
            + s.permutation_bytes
            + s.overlay_bytes
            + self.seeds.memory_bytes()
    }

    fn overlay_edges(&self) -> usize {
        self.overlay.as_ref().map_or(0, |o| o.num_edges())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::base::exact_knng;

    fn setup() -> (Dataset, Dataset, FlatIndex) {
        let (ds, qs) = MixtureSpec::table10(16, 800, 4, 4.0, 25).generate();
        let graph = exact_knng(&ds, 10, 2);
        let idx = FlatIndex {
            name: "test",
            graph,
            seeds: SeedStrategy::Fixed(vec![0, 123, 456]),
            router: Router::BestFirst,
        };
        (ds, qs, idx)
    }

    fn clone_flat(idx: &FlatIndex) -> FlatIndex {
        let SeedStrategy::Fixed(v) = &idx.seeds else {
            unreachable!()
        };
        FlatIndex {
            name: idx.name,
            graph: idx.graph.clone(),
            seeds: SeedStrategy::Fixed(v.clone()),
            router: idx.router.clone(),
        }
    }

    #[test]
    fn every_layout_matches_the_flat_index_exactly() {
        let (ds, qs, flat) = setup();
        for layout in [NodeLayout::Split, NodeLayout::Fused] {
            for reorder in [false, true] {
                let li = LayoutIndex::from_flat(clone_flat(&flat), &ds, layout, reorder);
                let mut c1 = SearchContext::new(ds.len());
                let mut c2 = SearchContext::new(ds.len());
                for qi in 0..qs.len() as u32 {
                    let a = flat.search(&ds, qs.point(qi), 10, 50, &mut c1);
                    let b = li.search(&ds, qs.point(qi), 10, 50, &mut c2);
                    assert_eq!(a.len(), b.len(), "{layout:?} reorder={reorder} q={qi}");
                    for (x, y) in a.iter().zip(&b) {
                        assert_eq!(x.id, y.id, "{layout:?} reorder={reorder} q={qi}");
                        assert_eq!(x.dist.to_bits(), y.dist.to_bits());
                    }
                }
                assert_eq!(c1.stats, c2.stats, "{layout:?} reorder={reorder}");
            }
        }
    }

    #[test]
    fn reordered_graph_is_a_renaming_of_the_original() {
        let (ds, _, flat) = setup();
        let original = flat.graph.clone();
        let li = LayoutIndex::from_flat(clone_flat(&flat), &ds, NodeLayout::Split, true);
        let p = li.permutation().unwrap();
        let rg = li.graph();
        assert_eq!(rg.num_edges(), original.num_edges());
        for v in 0..original.len() as u32 {
            let renamed: Vec<u32> = rg
                .neighbors(p.to_new(v))
                .iter()
                .map(|&u| p.to_old(u))
                .collect();
            assert_eq!(renamed, original.neighbors(v));
        }
    }

    #[test]
    fn layout_stats_account_for_each_layout() {
        let (ds, _, flat) = setup();
        let split = LayoutIndex::from_flat(clone_flat(&flat), &ds, NodeLayout::Split, false);
        let fused = LayoutIndex::from_flat(clone_flat(&flat), &ds, NodeLayout::Fused, true);
        let s = split.layout_stats();
        assert!(s.vector_bytes == 0 && s.arena_bytes == 0 && s.permutation_bytes == 0);
        let reordered = LayoutIndex::from_flat(clone_flat(&flat), &ds, NodeLayout::Split, true);
        let r = reordered.layout_stats();
        assert_eq!(r.vector_bytes, ds.memory_bytes());
        assert!(r.arena_bytes == 0 && r.permutation_bytes > 0);
        let f = fused.layout_stats();
        assert!(f.arena_bytes > 0 && f.vector_bytes == 0 && f.permutation_bytes > 0);
        assert!(f.arena_padding_bytes < f.arena_bytes);
        assert!(fused.memory_bytes() >= f.graph_bytes + f.arena_bytes);
    }
}
