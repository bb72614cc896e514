//! A2 — HNSW (Hierarchical Navigable Small World): the survey's only
//! multi-layer index, hence its own [`AnnIndex`] implementation.
//!
//! Points draw a geometric level; upper layers are sparse navigation maps,
//! layer 0 holds everyone. Inserts greedily descend to the target level,
//! then run a beam search per layer and keep `M` neighbors by the RNG
//! heuristic (≡ NSG's MRNG, Appendix A). Search enters at the fixed top
//! vertex (its C4 is "top layer"), descends greedily, and beams on
//! layer 0. The hierarchy costs memory (Figure 6's HNSW bar) — the
//! flat-vs-hierarchy trade §3.2 discusses.
//!
//! Storage: layer 0 freezes to one [`CsrGraph`]; the upper layers keep
//! the builder's hnswlib-style layout (`UpperLayers`): one locator of
//! `n + 1` `u32`, whose consecutive differences are the vertex levels,
//! and one CSR over the (vertex, layer ≥ 1) blocks. Upper layers so cost
//! what they hold: on a 120 000 × 32 build (`M` 16, 7 431 / 470 / 37 / 2
//! points on layers 1–4) ≈ 7.2 B per point (locator 4.0, block offsets
//! 0.5, edges 2.7) beside layer 0's 69.4 B, where one full-`n` CSR per
//! upper layer would cost 34.7 B, 32 B of it offsets.
//!
//! Construction is the *Increment* strategy parallelized with
//! deterministic batch insertion (ParlayANN's scheme): points join in
//! prefix-doubling batches; within a batch every point searches the
//! *frozen* graph of all prior batches in parallel, then edges are
//! committed sequentially in point-id order. The built graph is therefore
//! bit-identical for any [`HnswParams::threads`].

use crate::components::selection::select_rng_alpha;
use crate::index::{AnnIndex, SearchContext};
use crate::parallel;
use crate::search::{beam_search, Router, SearchScratch, SearchStats};
use crate::telemetry::{NoopTracer, RouteTracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_data::{Dataset, Neighbor};
use weavess_graph::adjacency::GraphView;
use weavess_graph::{CsrGraph, SlotGraph};

/// HNSW parameters (`M`, `M0`, `ef_construction`).
#[derive(Debug, Clone)]
pub struct HnswParams {
    /// Max neighbors per vertex on upper layers (`M`).
    pub m: usize,
    /// Max neighbors on layer 0 (`M0`, conventionally `2M`).
    pub m0: usize,
    /// Insertion-time beam width.
    pub ef_construction: usize,
    /// RNG seed for level assignment.
    pub seed: u64,
    /// Construction threads (0 = one per available core). The built graph
    /// is identical for every value.
    pub threads: usize,
}

impl HnswParams {
    /// Defaults tuned for the harness's dataset scales.
    pub fn tuned(threads: usize, seed: u64) -> Self {
        HnswParams {
            m: 16,
            m0: 32,
            ef_construction: 60,
            seed,
            threads,
        }
    }
}

/// A built HNSW index: layer 0 as one [`CsrGraph`], the upper layers in
/// the block layout the builder grows them in, frozen to CSR.
#[derive(Debug, PartialEq)]
pub struct HnswIndex {
    /// Layer 0, every vertex: what the beam search walks and
    /// [`AnnIndex::graph`] returns.
    base: CsrGraph,
    /// Layers 1.., each vertex's blocks up to its last non-empty list.
    upper: UpperLayers<CsrGraph>,
    num_layers: usize,
    /// Fixed entry vertex (a top-layer member).
    enter: u32,
}

impl HnswIndex {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.num_layers
    }

    /// The fixed entry point.
    pub fn enter_point(&self) -> u32 {
        self.enter
    }

    /// `v`'s neighbors on layer `l` (empty when `v` is absent from it,
    /// and on every layer at or above [`Self::num_layers`]).
    pub fn neighbors(&self, l: usize, v: u32) -> &[u32] {
        if l == 0 {
            self.base.neighbors(v)
        } else {
            self.upper.neighbors(l, v)
        }
    }

    /// Reassembles an index from one graph per layer, layer 0 first
    /// (persistence); the upper layers are compacted as [`build`] freezes
    /// them, so a saved index loads back equal.
    ///
    /// # Panics
    /// Panics when `layers` is empty or layer vertex counts disagree.
    pub fn from_parts(mut layers: Vec<CsrGraph>, enter: u32) -> Self {
        assert!(!layers.is_empty(), "need at least the bottom layer");
        let n = layers[0].len();
        assert!(layers.iter().all(|l| l.len() == n), "layer size mismatch");
        assert!((enter as usize) < n, "enter point out of range");
        let num_layers = layers.len();
        let upper = UpperLayers::freeze(n, num_layers, |l, v| layers[l].neighbors(v));
        HnswIndex {
            base: layers.swap_remove(0),
            upper,
            num_layers,
            enter,
        }
    }
}

/// Builds an HNSW index.
pub fn build(ds: &Dataset, params: &HnswParams) -> HnswIndex {
    let levels = crate::telemetry::span("C1 init", || {
        draw_levels(ds.len(), params, &mut StdRng::seed_from_u64(params.seed))
    });
    let (graph, enter, _) =
        crate::telemetry::span("C2+C3 insertion", || build_layers(ds, levels, params));
    crate::telemetry::span("freeze", || HnswIndex {
        base: CsrGraph::from_rows((0..ds.len() as u32).map(|v| graph.base.neighbors(v))),
        upper: UpperLayers::freeze(ds.len(), graph.num_layers(), |l, v| graph.neighbors(l, v)),
        num_layers: graph.num_layers(),
        enter,
    })
}

/// HNSW's upper layers (`l >= 1`) in hnswlib's scheme, shared by the
/// growing [`LayeredGraph`] (`G` = [`SlotGraph`]) and the frozen
/// [`HnswIndex`] (`G` = [`CsrGraph`]).
///
/// `blocks` holds one list per (vertex, layer) block, in vertex order and
/// layer order within a vertex. Vertex `v` owns blocks `at[v]..at[v + 1]`,
/// its layer-`l` list in block `at[v] + l - 1`, so `at[v + 1] - at[v]` is
/// its level and a layer costs what it holds, not one offset per point.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct UpperLayers<G> {
    /// `n + 1` block offsets.
    at: Vec<u32>,
    blocks: G,
}

impl<G: GraphView> UpperLayers<G> {
    /// Number of vertices.
    fn len(&self) -> usize {
        self.at.len() - 1
    }

    /// `v`'s level: its number of blocks.
    fn level(&self, v: u32) -> usize {
        (self.at[v as usize + 1] - self.at[v as usize]) as usize
    }

    /// `v`'s block on layer `l >= 1`, if it has one.
    #[inline]
    fn block(&self, l: usize, v: u32) -> Option<u32> {
        debug_assert!(l >= 1, "layer 0 is not an upper layer");
        let at = self.at[v as usize] as usize + l - 1;
        (at < self.at[v as usize + 1] as usize).then_some(at as u32)
    }

    /// `v`'s neighbors on layer `l >= 1` (empty when it has no block there).
    #[inline]
    fn neighbors(&self, l: usize, v: u32) -> &[u32] {
        match self.block(l, v) {
            Some(b) => self.blocks.neighbors(b),
            None => &[],
        }
    }

    /// Layer `l >= 1` as a routable graph.
    fn layer(&self, l: usize) -> UpperLayer<'_, G> {
        UpperLayer { upper: self, l }
    }
}

impl UpperLayers<CsrGraph> {
    /// Freezes layers `1..num_layers` of `n` vertices, read through
    /// `list(l, v)`. Each vertex keeps its blocks up to its last non-empty
    /// list: empty blocks above it are dropped (no route can tell them
    /// from absent ones), so an index and its save → load are equal.
    fn freeze<'a>(n: usize, num_layers: usize, list: impl Fn(usize, u32) -> &'a [u32]) -> Self {
        let mut at = Vec::with_capacity(n + 1);
        at.push(0u32);
        for v in 0..n as u32 {
            let level = (1..num_layers).rev().find(|&l| !list(l, v).is_empty());
            let end = at[v as usize] as usize + level.unwrap_or(0);
            at.push(u32::try_from(end).expect("more than u32::MAX upper-layer blocks"));
        }
        let list = &list;
        let rows = at
            .windows(2)
            .enumerate()
            .flat_map(|(v, w)| (1..=(w[1] - w[0]) as usize).map(move |l| list(l, v as u32)));
        let blocks = CsrGraph::from_rows(rows);
        UpperLayers { at, blocks }
    }

    /// Heap bytes: the block offsets and the CSR.
    fn memory_bytes(&self) -> usize {
        self.at.len() * std::mem::size_of::<u32>() + self.blocks.memory_bytes()
    }
}

/// One upper layer of an [`UpperLayers`], borrowed for routing; vertices
/// without a block on it are edgeless.
pub(crate) struct UpperLayer<'a, G> {
    upper: &'a UpperLayers<G>,
    l: usize,
}

impl<G: GraphView> GraphView for UpperLayer<'_, G> {
    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        self.upper.neighbors(self.l, v)
    }
    fn len(&self) -> usize {
        self.upper.len()
    }
}

/// The growing HNSW graph, shared by the batch builder and the dynamic
/// index: every layer in fixed-stride blocks ([`SlotGraph`]).
///
/// Layer 0 is one `m0`-wide block per vertex, indexed by vertex id. The
/// upper layers are one [`UpperLayers`] of `m`-wide blocks: a vertex of
/// level `L` owns `L` of them, one per layer it is on, empty or not.
/// Blocks are appended in vertex-id order, so a bulk load and the same
/// points inserted one at a time lay out the same arrays.
#[derive(Debug, Clone)]
pub(crate) struct LayeredGraph {
    base: SlotGraph,
    upper: UpperLayers<SlotGraph>,
    top: usize,
}

impl LayeredGraph {
    /// An empty graph with `params`' degree bounds.
    pub(crate) fn new(params: &HnswParams) -> Self {
        LayeredGraph {
            base: SlotGraph::new(params.m0),
            upper: UpperLayers {
                at: vec![0],
                blocks: SlotGraph::new(params.m),
            },
            top: 0,
        }
    }

    /// Appends an edgeless vertex present on layers `0..=level`.
    pub(crate) fn push_vertex(&mut self, level: usize) {
        let end = self.upper.blocks.len() + level;
        self.upper.blocks.resize(end);
        self.upper.at.push(end as u32);
        self.base.resize(self.upper.len());
        self.top = self.top.max(level);
    }

    /// Number of layers (at least the bottom one).
    pub(crate) fn num_layers(&self) -> usize {
        self.top + 1
    }

    /// The highest layer `v` is present on.
    pub(crate) fn level(&self, v: u32) -> usize {
        self.upper.level(v)
    }

    /// Layer 0, the graph every search ends on.
    pub(crate) fn base(&self) -> &SlotGraph {
        &self.base
    }

    /// Upper layer `l >= 1` as a routable graph; vertices absent from it
    /// are edgeless.
    pub(crate) fn layer(&self, l: usize) -> UpperLayer<'_, SlotGraph> {
        self.upper.layer(l)
    }

    /// `v`'s neighbors on layer `l` (empty when `v` is absent from it).
    #[inline]
    pub(crate) fn neighbors(&self, l: usize, v: u32) -> &[u32] {
        if l == 0 {
            self.base.neighbors(v)
        } else {
            self.upper.neighbors(l, v)
        }
    }

    /// Replaces `v`'s list on layer `l`, which `v` must be present on.
    pub(crate) fn set(&mut self, l: usize, v: u32, ids: impl IntoIterator<Item = u32>) {
        let at = self.present(l, v);
        self.blocks_mut(l).set(at, ids);
    }

    /// Empties `v`'s list on layer `l`, if it has one.
    pub(crate) fn clear(&mut self, l: usize, v: u32) {
        if let Some(at) = self.slot(l, v) {
            self.blocks_mut(l).clear(at);
        }
    }

    /// Links `p` to `selected` on layer `l` in both directions; a reverse
    /// list pushed past the layer's degree bound is shrunk back with the
    /// same RNG heuristic that selected `p`'s own neighbors.
    pub(crate) fn link(&mut self, ds: &Dataset, l: usize, p: u32, selected: &[Neighbor]) {
        let at_p = self.present(l, p);
        for s in selected {
            let at_s = self.present(l, s.id);
            let blocks = self.blocks_mut(l);
            blocks.push(at_p, s.id);
            blocks.push(at_s, p);
            if blocks.neighbors(at_s).len() > blocks.cap() {
                let mut cands: Vec<Neighbor> = blocks
                    .neighbors(at_s)
                    .iter()
                    .map(|&u| Neighbor::new(u, ds.dist(s.id, u)))
                    .collect();
                cands.sort_unstable();
                let kept = select_rng_alpha(ds, s.id, &cands, blocks.cap(), 1.0);
                blocks.set(at_s, kept.iter().map(|x| x.id));
            }
        }
    }

    /// Best-first search of layer `l` from `ep` with an `ef`-wide pool.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn beam(
        &self,
        ds: &Dataset,
        l: usize,
        query: &[f32],
        ep: u32,
        ef: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        scratch.next_epoch();
        if l == 0 {
            beam_search(ds, &self.base, query, &[ep], ef, scratch, stats)
        } else {
            beam_search(ds, &self.layer(l), query, &[ep], ef, scratch, stats)
        }
    }

    /// `v`'s block in the array holding layer `l` ([`Self::blocks_mut`]).
    fn slot(&self, l: usize, v: u32) -> Option<u32> {
        if l == 0 {
            Some(v)
        } else {
            self.upper.block(l, v)
        }
    }

    fn present(&self, l: usize, v: u32) -> u32 {
        match self.slot(l, v) {
            Some(at) => at,
            None => panic!("HNSW: vertex {v} is linked on layer {l}, above its level"),
        }
    }

    fn blocks_mut(&mut self, l: usize) -> &mut SlotGraph {
        if l == 0 {
            &mut self.base
        } else {
            &mut self.upper.blocks
        }
    }
}

/// Draws `n` geometric levels from `rng`, one [`draw_level`] per point, so
/// the stream position after the draw equals `n` single inserts' worth
/// (what lets [`super::hnsw_dynamic::DynamicHnsw::bulk_load`] continue the
/// same stream for later incremental inserts).
pub(crate) fn draw_levels(n: usize, params: &HnswParams, rng: &mut StdRng) -> Vec<usize> {
    (0..n).map(|_| draw_level(params, rng)).collect()
}

/// One point's geometric level, `⌊−ln(u) / ln M⌋`, from one `gen_range`.
pub(crate) fn draw_level(params: &HnswParams, rng: &mut StdRng) -> usize {
    let ml = 1.0 / (params.m.max(2) as f64).ln();
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * ml).floor() as usize
}

/// Work-unit size for the parallel search phase: small, because one unit
/// is `SEARCH_CHUNK` beam searches.
const SEARCH_CHUNK: usize = 32;

/// The deterministic batch-insert core, shared with the dynamic index:
/// returns `(graph, enter, enter_level)` as mutable adjacency.
///
/// Each prefix-doubling batch runs two phases. The **search phase** is
/// parallel and pure: every batch point descends and beam-searches the
/// frozen graph of all prior batches, producing its per-layer selected
/// neighbors. The **commit phase** is sequential in point-id order: edges
/// (and reverse-list shrinks) are applied, then the entry point advances
/// to the first point of the batch that raised the top level. No step
/// depends on the thread count, so the graph is bit-identical at 1/2/N
/// threads.
pub(crate) fn build_layers(
    ds: &Dataset,
    levels: Vec<usize>,
    params: &HnswParams,
) -> (LayeredGraph, u32, usize) {
    let n = ds.len();
    let mut graph = LayeredGraph::new(params);
    for &level in &levels {
        graph.push_vertex(level);
    }
    let mut enter: u32 = 0;
    let mut enter_level: usize = levels.first().copied().unwrap_or(0);
    let threads = parallel::resolve_threads(params.threads);
    let max_batch = (n / 8).max(64);
    let build_ndc = std::sync::atomic::AtomicU64::new(0);

    for batch in parallel::prefix_doubling(n, max_batch) {
        // Search phase: per-point selected neighbors per layer, computed
        // against the frozen `graph` — parallel, in fixed chunks.
        let selected: Vec<Vec<(usize, Vec<Neighbor>)>> = parallel::par_chunks_map(
            batch.len(),
            SEARCH_CHUNK,
            threads,
            || (SearchScratch::new(n), SearchStats::default()),
            |(scratch, stats), range| {
                let before = stats.ndc;
                let out = range
                    .map(|i| {
                        let p = (batch.start + i) as u32;
                        search_one(ds, &graph, enter, enter_level, params, p, scratch, stats)
                    })
                    .collect::<Vec<_>>();
                build_ndc.fetch_add(stats.ndc - before, std::sync::atomic::Ordering::Relaxed);
                out
            },
        )
        .into_iter()
        .flatten()
        .collect();

        // Commit phase: sequential, in point-id order.
        for (i, per_layer) in selected.into_iter().enumerate() {
            let p = (batch.start + i) as u32;
            for (l, selected) in &per_layer {
                graph.link(ds, *l, p, selected);
            }
            let lp = graph.level(p);
            if lp > enter_level {
                enter = p;
                enter_level = lp;
            }
        }
    }
    crate::telemetry::add_span_ndc(build_ndc.load(std::sync::atomic::Ordering::Relaxed));
    (graph, enter, enter_level)
}

/// The pure (read-only) half of one insertion: greedy descent above the
/// point's level, then per-layer beam search + RNG selection against the
/// frozen graph. Returns `(layer, selected)` pairs, top layer first; the
/// caller commits them with [`LayeredGraph::link`] (the dynamic index
/// too: a link on layer `l` changes nothing a lower layer's search reads).
#[allow(clippy::too_many_arguments)]
pub(crate) fn search_one(
    ds: &Dataset,
    graph: &LayeredGraph,
    enter: u32,
    enter_level: usize,
    params: &HnswParams,
    p: u32,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<(usize, Vec<Neighbor>)> {
    let lp = graph.level(p);
    let query = ds.point(p);
    let mut ep = enter;
    for l in ((lp + 1)..=enter_level).rev() {
        ep = greedy_closest(
            ds,
            &graph.layer(l),
            query,
            ep,
            &mut scratch.batch_dists,
            stats,
        );
    }
    let mut out = Vec::with_capacity(lp.min(enter_level) + 1);
    for l in (0..=lp.min(enter_level)).rev() {
        let pool = graph.beam(ds, l, query, ep, params.ef_construction, scratch, stats);
        let sel = select_rng_alpha(ds, p, &pool, params.m, 1.0);
        ep = sel.first().map(|s| s.id).unwrap_or(ep);
        out.push((l, sel));
    }
    out
}

/// Greedy descent on a single layer (HNSW's upper-layer `ef = 1` search):
/// score the current vertex's whole adjacency with one `dist_to_many`
/// into `dists`, move to the nearest strict improvement (first in
/// adjacency order among equals), stop when there is none.
pub(crate) fn greedy_closest(
    ds: &Dataset,
    layer: &(impl GraphView + ?Sized),
    query: &[f32],
    start: u32,
    dists: &mut Vec<f32>,
    stats: &mut SearchStats,
) -> u32 {
    let mut cur = start;
    let mut cur_d = ds.dist_to(query, cur);
    stats.ndc += 1;
    loop {
        let nbrs = layer.neighbors(cur);
        stats.ndc += nbrs.len() as u64;
        ds.dist_to_many(query, nbrs, dists);
        let mut improved = false;
        for (&u, &d) in nbrs.iter().zip(dists.iter()) {
            if d < cur_d {
                cur = u;
                cur_d = d;
                improved = true;
            }
        }
        if !improved {
            return cur;
        }
        stats.hops += 1;
    }
}

impl HnswIndex {
    /// The query body behind [`AnnIndex::search`] and
    /// [`AnnIndex::search_traced`]. The upper-layer greedy descent is
    /// untraced (its `ef = 1` walk has no candidate pool); the tracer
    /// observes the layer-0 beam search, whose entry point is reported as
    /// the seed.
    fn route<T: RouteTracer>(
        &self,
        ds: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        ctx: &mut SearchContext,
        tracer: &mut T,
    ) -> Vec<Neighbor> {
        let mut ep = self.enter;
        for l in (1..self.num_layers).rev() {
            ep = greedy_closest(
                ds,
                &self.upper.layer(l),
                query,
                ep,
                &mut ctx.scratch.batch_dists,
                &mut ctx.stats,
            );
        }
        ctx.scratch.next_epoch();
        let mut pool = Router::BestFirst.search_traced(
            ds,
            &self.base,
            query,
            &[ep],
            beam.max(k),
            &mut ctx.scratch,
            &mut ctx.stats,
            tracer,
        );
        pool.truncate(k);
        pool
    }
}

impl AnnIndex for HnswIndex {
    fn name(&self) -> &'static str {
        "HNSW"
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

    fn graph(&self) -> &CsrGraph {
        &self.base
    }

    fn memory_bytes(&self) -> usize {
        self.base.memory_bytes() + self.upper.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::metrics::degree_stats;

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 2_000, 5, 3.0, 30).generate()
    }

    #[test]
    fn hnsw_reaches_high_recall_from_fixed_entry() {
        let (ds, qs) = dataset();
        let idx = build(&ds, &HnswParams::tuned(2, 1));
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let r: Vec<u32> = idx
                .search(&ds, qs.point(qi), 10, 100, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            total += recall(&r, &gt[qi as usize]);
        }
        let r = total / qs.len() as f64;
        assert!(r > 0.9, "recall={r}");
    }

    /// Batched descent against the one-neighbor-at-a-time walk it
    /// replaced: same vertex, same NDC and hops, on a layer dense enough
    /// that several neighbors improve on the current vertex at once.
    #[test]
    fn batched_greedy_descent_matches_per_neighbor_scoring() {
        let (ds, qs) = dataset();
        let idx = build(&ds, &HnswParams::tuned(2, 1));
        let layer = idx.graph();
        let mut dists = Vec::new();
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            let start = qi * 37 % ds.len() as u32;
            let mut stats = SearchStats::default();
            let got = greedy_closest(&ds, layer, q, start, &mut dists, &mut stats);

            let mut want = SearchStats::default();
            let (mut cur, mut cur_d) = (start, ds.dist_to(q, start));
            want.ndc += 1;
            loop {
                let mut improved = false;
                for &u in layer.neighbors(cur) {
                    want.ndc += 1;
                    let d = ds.dist_to(q, u);
                    if d < cur_d {
                        (cur, cur_d, improved) = (u, d, true);
                    }
                }
                if !improved {
                    break;
                }
                want.hops += 1;
            }
            assert_eq!((got, stats), (cur, want), "query {qi}");
        }
    }

    /// Freezing keeps every list the builder grew, in order, on every
    /// layer and for every vertex: empty above a vertex's level and on the
    /// layer above the top one.
    #[test]
    fn frozen_lists_are_the_builders_on_every_layer() {
        let (ds, _) = dataset();
        let p = HnswParams {
            m: 4,
            m0: 8,
            ..HnswParams::tuned(2, 1)
        };
        let levels = draw_levels(ds.len(), &p, &mut StdRng::seed_from_u64(p.seed));
        let (graph, enter, _) = build_layers(&ds, levels, &p);
        let idx = build(&ds, &p);
        assert!(
            idx.num_layers() >= 4,
            "the check must cover several upper layers"
        );
        assert_eq!(
            (idx.num_layers(), idx.enter_point()),
            (graph.num_layers(), enter)
        );
        for l in 0..=idx.num_layers() {
            for v in 0..ds.len() as u32 {
                assert_eq!(
                    idx.neighbors(l, v),
                    graph.neighbors(l, v),
                    "layer {l}, vertex {v}"
                );
            }
        }
    }

    #[test]
    fn hierarchy_exists_and_layer0_degree_is_bounded() {
        let (ds, _) = dataset();
        let p = HnswParams::tuned(2, 1);
        let idx = build(&ds, &p);
        assert!(idx.num_layers() >= 2, "no hierarchy formed");
        assert!(degree_stats(idx.graph()).max <= p.m0);
    }

    #[test]
    fn upper_layers_are_sparser() {
        let (ds, _) = dataset();
        let idx = build(&ds, &HnswParams::tuned(2, 1));
        let edges = |l| -> usize {
            (0..ds.len() as u32)
                .map(|v| idx.neighbors(l, v).len())
                .sum()
        };
        for l in 1..idx.num_layers() {
            assert!(edges(l) < edges(l - 1), "layer {l} not sparser");
        }
    }

    #[test]
    fn level_assignment_is_roughly_geometric() {
        // With ml = 1/ln(M), P(level >= 1) = 1/M; on 2 000 points with
        // M = 16 expect ~125 upper-layer members, well within [40, 320].
        let (ds, _) = dataset();
        let idx = build(&ds, &HnswParams::tuned(2, 7));
        let upper: usize = (0..ds.len() as u32)
            .filter(|&v| !idx.neighbors(1, v).is_empty())
            .count();
        assert!(
            (40..=320).contains(&upper),
            "upper-layer members {upper} outside geometric expectation"
        );
    }

    #[test]
    fn memory_exceeds_bottom_layer_alone() {
        let (ds, _) = dataset();
        let idx = build(&ds, &HnswParams::tuned(2, 1));
        assert!(idx.memory_bytes() > idx.graph().memory_bytes());
    }
}
