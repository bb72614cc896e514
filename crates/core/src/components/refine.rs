//! The *Refinement* skeleton (§4, Table 9, §5.4): after C1, every
//! refinement-strategy builder runs the same per-point pass — acquire
//! `p`'s candidates (C2), select its neighbors (C3) — and ends by
//! freezing its neighbor lists into a [`CsrGraph`]. Both steps exist once,
//! here; a builder supplies only what happens for one point.

use crate::parallel;
use crate::search::{SearchScratch, SearchStats};
use crate::telemetry;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;

/// Runs `step(p, scratch, stats)` for every point of `ds` and returns the
/// lists it produced, in point order.
///
/// Owns everything about the pass that is not the algorithm: the output,
/// thread resolution (`threads == 0` is one per core), the fixed
/// [`parallel::CHUNK`] partition that makes the result independent of the
/// worker count, one reusable [`SearchScratch`] and [`SearchStats`] per
/// worker, and the `span_name` telemetry span with the distance
/// computations `step` counted in `stats` attributed to it. `step` must be
/// a pure function of `p` and of state that does not change during the
/// pass.
pub(crate) fn per_point(
    ds: &Dataset,
    threads: usize,
    span_name: &'static str,
    step: impl Fn(u32, &mut SearchScratch, &mut SearchStats) -> Vec<Neighbor> + Sync,
) -> Vec<Vec<Neighbor>> {
    let n = ds.len();
    let mut lists: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
    telemetry::span(span_name, || {
        let ndc_per_chunk = parallel::par_fill(
            &mut lists,
            parallel::CHUNK,
            parallel::resolve_threads(threads),
            || (SearchScratch::new(n), SearchStats::default()),
            |(scratch, stats), start, slot| {
                let before = stats.ndc;
                for (j, out) in slot.iter_mut().enumerate() {
                    *out = step((start + j) as u32, scratch, stats);
                }
                stats.ndc - before
            },
        );
        telemetry::add_span_ndc(ndc_per_chunk.into_iter().sum());
    });
    lists
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

    /// A search-based step, so every worker's scratch and stats are used.
    fn searched(ds: &Dataset, threads: usize) -> (Vec<Vec<Neighbor>>, Vec<(&'static str, u64)>) {
        let g = exact_knng(ds, 6, 2);
        let (lists, profile) = profile_build("per_point", || {
            per_point(ds, threads, "C2+C3 test pass", |p, scratch, stats| {
                candidates_by_search(ds, &g, p, &[0], 12, 8, scratch, stats)
            })
        });
        let spans = profile.spans.iter().map(|s| (s.component, s.ndc)).collect();
        (lists, spans)
    }

    #[test]
    fn lists_and_span_ndc_are_thread_count_independent() {
        // Two full chunks and a ragged third.
        let n = 2 * parallel::CHUNK + 37;
        let ds = MixtureSpec::table10(8, n, 3, 3.0, 1).generate().0;
        let (lists, spans) = searched(&ds, 1);
        assert_eq!(lists.len(), n);
        assert!(lists.iter().all(|l| !l.is_empty()));
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].0, "C2+C3 test pass");
        assert!(spans[0].1 > 0);
        for threads in [2, 8, 0] {
            let (lists_t, spans_t) = searched(&ds, threads);
            assert_eq!(lists, lists_t, "lists diverge at {threads} threads");
            assert_eq!(spans, spans_t, "span NDC diverges at {threads} threads");
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
