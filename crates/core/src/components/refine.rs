//! The *Refinement* and *Increment* skeletons (§4, Table 9, §5.4).
//!
//! [`per_id`] is the runner under every per-point pass: it runs a pure
//! step for each id of a range and owns the rest (threads, chunks,
//! scratch, NDC). On it sit two schedules:
//! - refinement: after C1, every refinement builder runs one pass —
//!   acquire `p`'s candidates (C2), select its neighbors (C3) — through
//!   [`per_point`] and freezes the lists into a [`CsrGraph`] with
//!   [`freeze`]: `PipelineBuilder` (KGraph, EFANNA, IEH, FANNG, DPG, NSG,
//!   NSSG, OA) and SPTAG's passes; HCNNG and Vamana freeze here too;
//! - increment: NSW and HNSW, static and `DynamicHnsw`'s bulk load, run
//!   [`insert_in_batches`]: each point searches the graph built so far,
//!   then its edges are committed in id order. Vamana's fixed batches
//!   search through [`per_id`] directly.
//!
//! A builder supplies only what happens for one point.

use crate::parallel;
use crate::search::{SearchScratch, SearchStats};
use crate::telemetry;
use std::ops::Range;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;

/// Runs `step(p, scratch, stats)` for every point id `p` in `ids` and
/// returns what it produced, in id order.
///
/// Owns everything about the pass that is not the algorithm: the output
/// (allocated once, each chunk's slots filled in place), thread
/// resolution (`threads == 0` is one per core), the fixed
/// [`parallel::CHUNK`] partition that makes the result independent of the
/// worker count, one reusable [`SearchScratch`] (sized for `ds`) and
/// [`SearchStats`] per worker, and crediting the distance computations
/// `step` counted in `stats` to the open telemetry span. `step` must be a
/// pure function of `p` and of state that does not change during the pass.
pub(crate) fn per_id<T: Default + Send>(
    ds: &Dataset,
    ids: Range<usize>,
    threads: usize,
    step: impl Fn(u32, &mut SearchScratch, &mut SearchStats) -> T + Sync,
) -> Vec<T> {
    let mut out: Vec<T> = std::iter::repeat_with(T::default).take(ids.len()).collect();
    let ndc_per_chunk = parallel::par_fill(
        &mut out,
        parallel::CHUNK,
        parallel::resolve_threads(threads),
        || (SearchScratch::new(ds.len()), SearchStats::default()),
        |(scratch, stats), start, slot| {
            let before = stats.ndc;
            for (j, out) in slot.iter_mut().enumerate() {
                *out = step((ids.start + start + j) as u32, scratch, stats);
            }
            stats.ndc - before
        },
    );
    telemetry::add_span_ndc(ndc_per_chunk.into_iter().sum());
    out
}

/// [`per_id`] over every point of `ds`, inside the `span_name` telemetry
/// span: one refinement pass, producing each point's neighbor list.
pub(crate) fn per_point(
    ds: &Dataset,
    threads: usize,
    span_name: &'static str,
    step: impl Fn(u32, &mut SearchScratch, &mut SearchStats) -> Vec<Neighbor> + Sync,
) -> Vec<Vec<Neighbor>> {
    telemetry::span(span_name, || per_id(ds, 0..ds.len(), threads, step))
}

/// The *Increment* schedule (ParlayANN's deterministic batch insertion):
/// the points of `ds` join `graph` in prefix-doubling batches of at most
/// `max(n / 8, 64)`. Every point `p` of a batch runs
/// `search(graph, frozen, p, ..)` in parallel through [`per_id`] against
/// the graph of the `frozen` points committed before the batch; then
/// `commit(graph, p, found)` applies the results sequentially in id order.
/// Neither phase depends on the thread count, so neither does `graph`.
pub(crate) fn insert_in_batches<G: Sync, T: Default + Send>(
    ds: &Dataset,
    threads: usize,
    graph: &mut G,
    search: impl Fn(&G, usize, u32, &mut SearchScratch, &mut SearchStats) -> T + Sync,
    mut commit: impl FnMut(&mut G, u32, T),
) {
    let n = ds.len();
    for batch in parallel::prefix_doubling(n, (n / 8).max(64)) {
        let frozen = batch.start;
        let view = &*graph;
        let found = per_id(ds, batch.clone(), threads, |p, scratch, stats| {
            search(view, frozen, p, scratch, stats)
        });
        for (p, found) in batch.zip(found) {
            commit(graph, p as u32, found);
        }
    }
}

/// Freezes working neighbor lists into the search graph, under the
/// `"freeze"` span.
pub(crate) fn freeze(lists: &[Vec<Neighbor>]) -> CsrGraph {
    telemetry::span("freeze", || CsrGraph::from_neighbor_lists(lists))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::candidates::candidates_by_search;
    use crate::telemetry::profile_build;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::base::exact_knng;

    /// A search-based step, so every worker's scratch and stats are used,
    /// over `ids` inside one span: the whole dataset through [`per_point`],
    /// a sub-range through [`per_id`].
    fn searched(
        ds: &Dataset,
        ids: Range<usize>,
        threads: usize,
    ) -> (Vec<Vec<Neighbor>>, Vec<(&'static str, u64)>) {
        let g = exact_knng(ds, 6, 2);
        let step = |p, scratch: &mut SearchScratch, stats: &mut SearchStats| {
            candidates_by_search(ds, &g, p, &[0], 12, 8, scratch, stats)
        };
        let (lists, profile) = profile_build("per_point", || {
            if ids == (0..ds.len()) {
                per_point(ds, threads, "C2+C3 test pass", step)
            } else {
                telemetry::span("C2+C3 test pass", || per_id(ds, ids, threads, step))
            }
        });
        let spans = profile.spans.iter().map(|s| (s.component, s.ndc)).collect();
        (lists, spans)
    }

    #[test]
    fn lists_and_span_ndc_are_thread_count_independent() {
        let n = 2 * parallel::CHUNK + 37;
        let ds = MixtureSpec::table10(8, n, 3, 3.0, 1).generate().0;
        let (all, _) = searched(&ds, 0..n, 1);
        // Two full chunks and a ragged third; and a ragged sub-range that
        // starts mid-dataset, as an insertion batch does.
        for ids in [0..n, 101..n - 5] {
            let (lists, spans) = searched(&ds, ids.clone(), 1);
            assert_eq!(
                lists,
                all[ids.clone()],
                "lists of {ids:?} are not in id order"
            );
            assert!(lists.iter().all(|l| !l.is_empty()));
            assert_eq!(spans.len(), 1);
            assert_eq!(spans[0].0, "C2+C3 test pass");
            assert!(spans[0].1 > 0);
            for threads in [2, 8, 0] {
                let (lists_t, spans_t) = searched(&ds, ids.clone(), threads);
                assert_eq!(
                    lists, lists_t,
                    "lists of {ids:?} diverge at {threads} threads"
                );
                assert_eq!(
                    spans, spans_t,
                    "span NDC of {ids:?} diverges at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_point_datasets() {
        let empty = Dataset::empty(4);
        let lists = per_point(&empty, 4, "pass", |_, _, _| unreachable!());
        assert!(lists.is_empty());
        assert_eq!(freeze(&lists).len(), 0);

        let one = Dataset::from_rows(&[vec![1.0, 2.0]]);
        let lists = per_point(&one, 4, "pass", |p, _, _| vec![Neighbor::new(p, 0.0)]);
        assert_eq!(lists, vec![vec![Neighbor::new(0, 0.0)]]);
        assert_eq!(freeze(&lists).neighbors(0), &[0]);
    }

    #[test]
    fn a_panicking_step_is_re_raised() {
        let ds = MixtureSpec::table10(4, 2 * parallel::CHUNK, 1, 1.0, 1)
            .generate()
            .0;
        for threads in [1, 2, 8] {
            let outcome = std::panic::catch_unwind(|| {
                per_point(&ds, threads, "pass", |p, _, _| {
                    assert!(p != 300, "step failed");
                    Vec::new()
                })
            });
            assert!(outcome.is_err(), "panic swallowed at {threads} threads");
        }
    }
}
