//! The one best-first loop — the paper's Algorithm 1 (Appendix F) — behind
//! every routing strategy.
//!
//! §4.2 presents NGT's range search, FANNG's backtracking and HCNNG's
//! guided search as modifications of a single loop, and that is how they
//! are built: [`Walk::run`] owns seeding, expansion, tracing, prefetch and
//! batch scoring, and a router contributes only a policy — a [`Frontier`]
//! (what is expanded next, what happens to each scored vertex, when to
//! stop, what is returned), a [`Gate`] (which unvisited neighbors are
//! scored at all) and a [`Start`]. Every combination is monomorphized, so
//! the [`Open`] gate and [`crate::telemetry::NoopTracer`] compile to
//! nothing.
//!
//! Expansion is batch-scored: the admitted neighbors of the expanded vertex
//! are staged and scored with one [`VectorView::dist_to_many`] call, then
//! offered to the frontier in adjacency order — visit order, distances and
//! hence results are bit-identical to scoring one neighbor at a time. The
//! [`Open`] gate stages without a branch per neighbor
//! ([`VisitedPool::visit_all`]); gated routers stage through their
//! admission test. While a vertex is expanded the likely next candidate's
//! node block and each staged neighbor's vector are prefetched — pure
//! hints, so results are identical with prefetch on or off.

use super::scratch::{SearchScratch, Stores};
use super::{SearchStats, VisitedPool};
use crate::telemetry::RouteTracer;
use weavess_data::prefetch::prefetch_enabled;
use weavess_data::vectors::VectorView;
use weavess_data::Neighbor;
use weavess_graph::adjacency::GraphView;

/// A router's candidate bookkeeping over the scratch's [`Stores`]. The
/// provided methods are Algorithm 1's own: every scored vertex is offered
/// to the bounded pool, the nearest unexpanded entry is expanded next, the
/// search stops when every entry is expanded (the result set can no longer
/// improve) and the pool is the answer.
pub(crate) trait Frontier {
    /// Takes a scored neighbor of the vertex being expanded.
    #[inline]
    fn offer(&mut self, s: &mut Stores, n: Neighbor) {
        s.pool.insert(n);
    }

    /// Takes a scored seed. Differs from [`Frontier::offer`] only where
    /// seeds bypass an admission test neighbors must pass.
    #[inline]
    fn seed(&mut self, s: &mut Stores, n: Neighbor) {
        self.offer(s, n);
    }

    /// The vertex to expand next; `None` ends the search.
    #[inline]
    fn next(&mut self, s: &mut Stores) -> Option<Neighbor> {
        s.pool.next_unexpanded()
    }

    /// Id of the likely expansion after the one [`Frontier::next`] just
    /// returned, for adjacency prefetch.
    #[inline]
    fn peek(&self, s: &Stores) -> Option<u32> {
        s.pool.peek()
    }

    /// The occupancy reported to the tracer at each hop and tracked by
    /// [`SearchStats::pool_peak`].
    #[inline]
    fn len(&self, s: &Stores) -> usize {
        s.pool.len()
    }

    /// The answer, nearest first.
    fn finish(&self, s: &Stores) -> Vec<Neighbor> {
        s.pool.to_vec()
    }
}

/// Plain best-first search: every provided [`Frontier`] method.
pub(crate) struct Bounded;

impl Frontier for Bounded {}

/// Decides which unvisited neighbors of an expanded vertex are scored. A
/// refused neighbor stays *unvisited*, so a later expansion — or a later
/// stage sharing the visited epoch — may still score it.
pub(crate) trait Gate {
    /// The admission test for the unvisited neighbors of `v`, the vertex
    /// about to be expanded.
    fn aim(&self, ds: &(impl VectorView + ?Sized), query: &[f32], v: u32) -> impl Fn(u32) -> bool;

    /// Marks the unvisited neighbors `nbrs` of `v` that [`Gate::aim`]
    /// admits visited and stages them into `ids` in adjacency order.
    #[inline]
    fn stage(
        &self,
        ds: &(impl VectorView + ?Sized),
        query: &[f32],
        v: u32,
        nbrs: &[u32],
        visited: &mut VisitedPool,
        ids: &mut Vec<u32>,
    ) {
        let admits = self.aim(ds, query, v);
        ids.clear();
        for &u in nbrs {
            if visited.visit_if(u, || admits(u)) {
                ids.push(u);
            }
        }
    }
}

/// The always-pass gate of plain best-first search.
pub(crate) struct Open;

impl Gate for Open {
    #[inline(always)]
    fn aim(&self, _: &(impl VectorView + ?Sized), _: &[f32], _: u32) -> impl Fn(u32) -> bool {
        |_| true
    }

    /// Every unvisited neighbor, staged without a branch per neighbor.
    #[inline(always)]
    fn stage(
        &self,
        _: &(impl VectorView + ?Sized),
        _: &[f32],
        _: u32,
        nbrs: &[u32],
        visited: &mut VisitedPool,
        ids: &mut Vec<u32>,
    ) {
        visited.visit_all(nbrs, ids);
    }
}

/// Where a walk begins.
pub(crate) enum Start<'a> {
    /// Vertices to visit, score and report to the tracer.
    Seeds(&'a [u32]),
    /// An already-scored pool from an earlier stage of the same visited
    /// epoch: entries cost no distance computation, are already marked
    /// visited and were already reported by the stage that scored them.
    Scored(&'a [Neighbor]),
}

/// Everything the loop shares across policies.
pub(crate) struct Walk<'a, D: ?Sized, G: ?Sized, T> {
    pub ds: &'a D,
    pub g: &'a G,
    pub query: &'a [f32],
    pub scratch: &'a mut SearchScratch,
    pub stats: &'a mut SearchStats,
    pub tracer: &'a mut T,
}

impl<D, G, T> Walk<'_, D, G, T>
where
    D: VectorView + ?Sized,
    G: GraphView + ?Sized,
    T: RouteTracer,
{
    /// Algorithm 1 with a candidate set of `beam`: score the start, then
    /// expand the frontier's next vertex and offer it the admitted
    /// neighbors until it has none left.
    pub(crate) fn run(
        &mut self,
        start: Start<'_>,
        beam: usize,
        mut frontier: impl Frontier,
        gate: impl Gate,
    ) -> Vec<Neighbor> {
        let pf = prefetch_enabled();
        let (ds, g, query) = (self.ds, self.g, self.query);
        let (stats, tracer) = (&mut *self.stats, &mut *self.tracer);
        let SearchScratch {
            visited,
            stores,
            batch_ids: ids,
            batch_dists: dists,
        } = &mut *self.scratch;
        stores.reset(beam);
        match start {
            Start::Seeds(seeds) => {
                for &s in seeds {
                    if visited.visit(s) {
                        stats.ndc += 1;
                        let d = ds.dist_to(query, s);
                        tracer.on_seed(s, d);
                        frontier.seed(stores, Neighbor::new(s, d));
                    }
                }
            }
            Start::Scored(pool) => {
                for &n in pool {
                    debug_assert!(visited.is_visited(n.id));
                    frontier.offer(stores, n);
                }
            }
        }
        let mut peak = frontier.len(stores);
        while let Some(c) = frontier.next(stores) {
            stats.hops += 1;
            tracer.on_hop(c.id, c.dist, stats.ndc, frontier.len(stores));
            if pf {
                if let Some(next) = frontier.peek(stores) {
                    g.prefetch_neighbors(next);
                }
            }
            score_admitted(ds, g, query, c.id, pf, &gate, visited, ids, dists, stats);
            for (&u, &d) in ids.iter().zip(dists.iter()) {
                frontier.offer(stores, Neighbor::new(u, d));
            }
            peak = peak.max(frontier.len(stores));
        }
        stats.pool_peak = stats.pool_peak.max(peak as u64);
        frontier.finish(stores)
    }
}

/// One expansion's scoring pass: marks `v`'s unvisited, admitted neighbors
/// visited and stages them in adjacency order ([`Gate::stage`]), requests
/// each staged vector's first lines when `pf`, and scores the batch with a
/// single [`VectorView::dist_to_many`] — one kernel-tier dispatch per
/// expansion. `ids[i]`'s distance is `dists[i]`. The buffers arrive as
/// separate `&mut` parameters so that the stamp array, the id stage and
/// the counters are known not to alias and stay in registers across the
/// loop.
#[inline]
#[allow(clippy::too_many_arguments)]
fn score_admitted(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    v: u32,
    pf: bool,
    gate: &impl Gate,
    visited: &mut VisitedPool,
    ids: &mut Vec<u32>,
    dists: &mut Vec<f32>,
    stats: &mut SearchStats,
) {
    gate.stage(ds, query, v, g.neighbors(v), visited, ids);
    if pf {
        for &u in ids.iter() {
            ds.prefetch_vector(u);
        }
    }
    stats.ndc += ids.len() as u64;
    ds.dist_to_many(query, ids, dists);
}
