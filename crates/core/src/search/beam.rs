//! Best-first search — the paper's Algorithm 1 (Appendix F), C7's
//! dominant implementation over the bounded candidate pool of Definition
//! 4.7 — with an optional caller-decided stop, and the full-vector rerank.

use super::core::{Frontier, Open, Start, Walk};
use super::pool::PoolView;
use super::scratch::Stores;
use super::{Router, SearchScratch, SearchStats};
use crate::telemetry::NoopTracer;
use weavess_data::vectors::VectorView;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::adjacency::GraphView;

/// Best-first (beam) search from `seeds`, returning up to `beam` nearest
/// candidates nearest-first — [`Router::BestFirst`] by its builder-facing
/// name.
///
/// ```
/// use weavess_core::search::{beam_search, SearchScratch, SearchStats};
/// use weavess_data::Dataset;
/// use weavess_graph::CsrGraph;
///
/// // Three points on a line, chained 0 -> 1 -> 2.
/// let ds = Dataset::from_rows(&[vec![0.0], vec![1.0], vec![2.0]]);
/// let g = CsrGraph::from_lists(&[vec![1u32], vec![0, 2], vec![1]]);
/// let mut scratch = SearchScratch::new(3);
/// let mut stats = SearchStats::default();
/// scratch.next_epoch();
/// let res = beam_search(&ds, &g, &[1.9], &[0], 3, &mut scratch, &mut stats);
/// assert_eq!(res[0].id, 2);
/// assert!(stats.ndc >= 3);
/// ```
///
/// `ds` is any [`VectorView`]: the raw [`weavess_data::Dataset`], an SQ8
/// code table, or a fused node arena.
pub fn beam_search(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    Router::BestFirst.search(ds, g, query, seeds, beam, scratch, stats)
}

/// [`beam_search`] that ends early when `stop` says so: before each
/// expansion, and once more when no unexpanded candidate is left, `stop`
/// gets the hops this walk has made and a read-only view of its pool.
/// Learned early termination (ML2) is this loop with a predicted budget.
#[allow(clippy::too_many_arguments)]
pub fn beam_search_until(
    ds: &(impl VectorView + ?Sized),
    g: &(impl GraphView + ?Sized),
    query: &[f32],
    seeds: &[u32],
    beam: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
    stop: impl FnMut(u64, PoolView<'_>) -> bool,
) -> Vec<Neighbor> {
    let mut walk = Walk {
        ds,
        g,
        query,
        scratch,
        stats,
        tracer: &mut NoopTracer,
    };
    walk.run(Start::Seeds(seeds), beam, Until { hops: 0, stop }, Open)
}

/// Best-first search that asks a caller closure whether to stop.
struct Until<F> {
    hops: u64,
    stop: F,
}

impl<F: FnMut(u64, PoolView<'_>) -> bool> Frontier for Until<F> {
    fn next(&mut self, s: &mut Stores) -> Option<Neighbor> {
        if (self.stop)(self.hops, PoolView(&s.pool)) {
            return None;
        }
        let c = s.pool.next_unexpanded()?;
        self.hops += 1;
        Some(c)
    }
}

/// The `k` nearest of a routed `pool` by `ds`'s distances, nearest first:
/// the full-vector rerank after a route over compressed or quantized
/// vectors. The pool is scored with one [`Dataset::dist_to_many`] gather
/// into `scratch`'s staging buffers; its ids must be distinct, as every
/// router's are.
pub fn rerank(
    ds: &Dataset,
    query: &[f32],
    pool: &[Neighbor],
    k: usize,
    scratch: &mut SearchScratch,
) -> Vec<Neighbor> {
    let (ids, dists) = (&mut scratch.batch_ids, &mut scratch.batch_dists);
    ids.clear();
    ids.extend(pool.iter().map(|n| n.id));
    ds.dist_to_many(query, ids, dists);
    let mut out = pool.to_vec();
    for (n, &d) in out.iter_mut().zip(dists.iter()) {
        n.dist = d;
    }
    out.sort_unstable();
    out.truncate(k);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_data::ground_truth::knn_scan;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_data::Dataset;
    use weavess_graph::base::exact_knng;
    use weavess_graph::CsrGraph;

    fn setup() -> (Dataset, Dataset, CsrGraph) {
        let (base, queries) = MixtureSpec::table10(8, 500, 4, 3.0, 25).generate();
        let g = exact_knng(&base, 10, 4);
        (base, queries, g)
    }

    #[test]
    fn finds_true_nearest_on_exact_knng() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let mut ok = 0usize;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            // Seed from several spread points to escape disconnected KNNG parts.
            let seeds: Vec<u32> = (0..8u32).map(|i| i * 61 % ds.len() as u32).collect();
            let res = beam_search(&ds, &g, q, &seeds, 40, &mut scratch, &mut stats);
            let truth = knn_scan(&ds, q, 1, None)[0].id;
            if res.first().map(|n| n.id) == Some(truth) {
                ok += 1;
            }
        }
        assert!(ok as f64 / qs.len() as f64 > 0.85, "ok={ok}/{}", qs.len());
        assert!(stats.ndc > 0 && stats.hops > 0);
        assert!(stats.pool_peak > 0 && stats.pool_peak <= 40);
    }

    #[test]
    fn result_is_sorted_and_bounded() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let res = beam_search(&ds, &g, qs.point(0), &[0, 5], 16, &mut scratch, &mut stats);
        assert!(res.len() <= 16);
        assert!(res.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert_eq!(stats.pool_peak, res.len() as u64);
    }

    #[test]
    fn ndc_counts_each_vertex_once() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        beam_search(&ds, &g, qs.point(0), &[0], 64, &mut scratch, &mut stats);
        assert!(stats.ndc <= ds.len() as u64);
    }

    #[test]
    fn empty_seeds_give_empty_result() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        let res = beam_search(&ds, &g, qs.point(0), &[], 8, &mut scratch, &mut stats);
        assert!(res.is_empty());
        assert_eq!(stats.ndc, 0);
        assert_eq!(stats.pool_peak, 0);
    }

    /// Regression: an insertion at exactly the resume index must re-enter
    /// the loop there. On a 1-d path graph the first expansion inserts the
    /// next-left vertex at position 0 while expanding position 0 — with a
    /// strict `<` resume check the search would only ever walk right.
    #[test]
    fn walks_both_directions_on_a_path_graph() {
        let ds = Dataset::from_rows(&(0..100).map(|i| vec![i as f32]).collect::<Vec<_>>());
        // Path graph: i <-> i+1.
        let lists: Vec<Vec<u32>> = (0..100u32)
            .map(|i| {
                let mut l = Vec::new();
                if i > 0 {
                    l.push(i - 1);
                }
                if i < 99 {
                    l.push(i + 1);
                }
                l
            })
            .collect();
        let g = CsrGraph::from_lists(&lists);
        let mut scratch = SearchScratch::new(100);
        let mut stats = SearchStats::default();
        scratch.next_epoch();
        // Query left of the seed: the search must walk 49 -> 42.
        let res = beam_search(&ds, &g, &[42.4], &[49], 20, &mut scratch, &mut stats);
        assert_eq!(res[0].id, 42, "failed to walk left: {:?}", &res[..3]);
    }

    #[test]
    fn larger_beam_never_reduces_accuracy() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let seeds: Vec<u32> = (0..4u32).collect();
        let mut hits_small = 0;
        let mut hits_large = 0;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            let truth: Vec<u32> = knn_scan(&ds, q, 10, None).iter().map(|n| n.id).collect();
            let mut s = SearchStats::default();
            scratch.next_epoch();
            let small = beam_search(&ds, &g, q, &seeds, 10, &mut scratch, &mut s);
            scratch.next_epoch();
            let large = beam_search(&ds, &g, q, &seeds, 80, &mut scratch, &mut s);
            hits_small += small
                .iter()
                .take(10)
                .filter(|n| truth.contains(&n.id))
                .count();
            hits_large += large
                .iter()
                .take(10)
                .filter(|n| truth.contains(&n.id))
                .count();
        }
        assert!(hits_large >= hits_small, "{hits_large} < {hits_small}");
    }

    /// The recording tracer must observe exactly `hops` expansions and one
    /// seed event per scored seed, without changing results or stats.
    #[test]
    fn recording_tracer_observes_the_route_without_changing_it() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        let mut plain = SearchStats::default();
        scratch.next_epoch();
        let a = beam_search(&ds, &g, qs.point(0), &[0, 5], 16, &mut scratch, &mut plain);
        let mut traced = SearchStats::default();
        let mut tracer = crate::telemetry::RecordingTracer::default();
        scratch.next_epoch();
        let b = Router::BestFirst.search_traced(
            &ds,
            &g,
            qs.point(0),
            &[0, 5],
            16,
            &mut scratch,
            &mut traced,
            &mut tracer,
        );
        assert_eq!(a, b);
        assert_eq!(plain, traced);
        assert_eq!(u64::from(tracer.hops()), traced.hops);
        assert!(tracer.replay_check(&ds, qs.point(0)));
    }

    /// A stop rule that never fires is plain best-first search: same
    /// results, same counters. It is asked once per expansion plus once
    /// at the end, with the hop count of this walk alone, and sees the
    /// pool nearest first.
    #[test]
    fn until_without_a_stop_is_beam_search() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        // Counters from an earlier query: the rule still counts from 0.
        let mut plain = SearchStats::default();
        scratch.next_epoch();
        beam_search(&ds, &g, qs.point(1), &[0], 16, &mut scratch, &mut plain);
        let mut until = plain;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            scratch.next_epoch();
            let a = beam_search(&ds, &g, q, &[0, 5], 16, &mut scratch, &mut plain);
            let (hops_before, mut asked) = (until.hops, Vec::new());
            scratch.next_epoch();
            let b = beam_search_until(&ds, &g, q, &[0, 5], 16, &mut scratch, &mut until, |h, p| {
                assert!((1..p.len()).all(|i| p.get(i - 1) < p.get(i)));
                asked.push(h);
                false
            });
            assert_eq!(a, b);
            assert_eq!(plain, until);
            let hops = until.hops - hops_before;
            assert_eq!(asked, (0..=hops).collect::<Vec<_>>());
        }
    }

    #[test]
    fn until_stops_at_the_hop_the_rule_names() {
        let (ds, qs, g) = setup();
        let mut scratch = SearchScratch::new(ds.len());
        for budget in [0u64, 1, 3, 7] {
            let mut stats = SearchStats::default();
            scratch.next_epoch();
            let res = beam_search_until(
                &ds,
                &g,
                qs.point(0),
                &[0],
                32,
                &mut scratch,
                &mut stats,
                |h, p| {
                    assert!(!p.is_empty());
                    h >= budget
                },
            );
            assert_eq!(stats.hops, budget);
            assert!(!res.is_empty() && res.len() <= 32);
        }
    }

    /// The rerank returns the pool's `k` nearest by the full distances,
    /// bit-equal to scoring each id with `dist_to`, and leaves a pool
    /// shorter than `k` whole.
    #[test]
    fn rerank_orders_the_pool_by_full_distance() {
        let (ds, qs, _) = setup();
        let q = qs.point(0);
        // A routed pool whose proxy distances are all wrong.
        let pool: Vec<Neighbor> = (0..40u32).map(|i| Neighbor::new(i * 7, 0.0)).collect();
        let mut want: Vec<Neighbor> = pool
            .iter()
            .map(|n| Neighbor::new(n.id, ds.dist_to(q, n.id)))
            .collect();
        want.sort();
        let mut scratch = SearchScratch::new(ds.len());
        for k in [0, 1, 10, 40, 100] {
            let got = rerank(&ds, q, &pool, k, &mut scratch);
            let bits = |v: &[Neighbor]| {
                v.iter()
                    .map(|n| (n.id, n.dist.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&got), bits(&want[..k.min(40)]));
        }
        assert!(rerank(&ds, q, &[], 10, &mut scratch).is_empty());
    }
}
