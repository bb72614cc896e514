//! Relative NN-Descent (RNN-Descent, Ono & Matsui, arXiv 2310.20419): an
//! alternative C1 initializer that interleaves RNG-style pruning into the
//! descent loop itself.
//!
//! Plain NN-Descent ([`crate::nndescent`]) scores every sampled
//! new×(new+old) pair of every vertex's pool each iteration — the local
//! join dominates refinement-strategy construction end to end (~87% of an
//! NSG build's `C1 init` span when this module was written). RNN-Descent
//! replaces the join with a
//! *prune-and-propagate* step built on the relative-neighborhood rule:
//!
//! 1. **Update (prune + add).** Scan each vertex `u`'s pool nearest-first.
//!    A neighbor `v` is kept only if no already-kept neighbor `w` occludes
//!    it (`d(w, v) < d(u, v)` — the MRNG edge rule of C3, applied during
//!    C1). A pruned `v` is not discarded: it is *offered* to the occluder
//!    `w`'s pool, carrying the just-computed `d(w, v)`. That offer is the
//!    descent step — a pair NN-Descent would reach through a sampled join
//!    here rides along a pruning distance that was needed anyway. Pairs
//!    whose flags are both *old* were compared in an earlier pass and skip
//!    their distance computation entirely, so converged neighborhoods cost
//!    nothing.
//! 2. **Reverse-edge augmentation.** After each round of update passes the
//!    graph is symmetrized — every edge `u→v` is offered back to `v` as
//!    `v→u`, flagged new — handing the next round fresh material and
//!    keeping in-degrees from starving.
//!
//! Working pools stay near the pruned (RNG-sparse) degree instead of the
//! KNN degree, so each pass touches far fewer pairs than a local join —
//! the paper reports substantially faster construction at equal recall;
//! the `build.span_s.c1_init` row of `benchmark/run.sh --workload hidim
//! --trace 1` is this module's wall time.
//!
//! **The emitted graph.** A pruned pool's nearest-`k` is deliberately
//! *not* the KNN — mutually-close neighbors occlude each other — but C1
//! consumers (NSG/NSSG/DPG/OA/EFANNA/KGraph) expect an approximate KNN
//! graph. So every pair the pruning loop scores is also mirrored, in both
//! directions, into a bounded per-vertex **harvest pool** of capacity `k`:
//! distances are paid for once and harvested twice. The emitted rows are
//! the harvest pools — a genuine approximate KNN graph, directly
//! comparable to [`crate::nndescent::nn_descent`] output — while the
//! pruned pools exist only to decide *which* pairs are worth scoring.
//! All candidate scoring goes through [`Dataset::dist_to_many`], so the
//! PR-2 kernel tier carries construction exactly the way it carries
//! search.
//!
//! # State and determinism
//!
//! Both sides are descent tables, the crate's one bounded-row structure
//! (see *Descent tables* in [`crate::nndescent`]): one of `n × l` pruned
//! slots, seeded by the shared routine, and one of `n × k` harvest slots
//! with bounds. The output is a pure function of `(dataset, params)` —
//! never of the thread count. An update pass has two phases, and nothing
//! in it is written concurrently.
//!
//! *Frozen while workers score:* every pruned row a worker does not own,
//! every harvest row, and the harvest bounds.
//!
//! *Phase A* walks vertices in the fixed chunks of [`crate::parallel`].
//! A worker receives its chunk's pruned rows as `&mut`, prunes each
//! against itself, and rewrites it in place; everything addressed to
//! another vertex is **staged** as an `(owner, key)` pair — the descent
//! offer of a pruned edge, and both directions of the harvest mirror of
//! every scored pair, less those worse than their owner's frozen bound.
//!
//! *Apply* is the table's staged apply. Harvest offers are applied, and
//! the bounds refreshed, after every `WAVE` (4 096) phase-A vertices,
//! which bounds staging memory independently of `n`; pruned-pool offers
//! are applied once per pass, after phase A, so every pruning decision
//! sees the pruned rows as they stood at the start of the pass,
//! regardless of worker interleaving. Reverse-edge augmentation and the
//! initial mirror go through the same apply.
//!
//! Wave size is a constant, convergence is decided on pool content (items
//! still flagged new, the shared
//! [`crate::nndescent::descent_converged`] contract), and the RNG only
//! runs in the sequential initialization — so who computes never changes
//! what is computed.

use crate::nndescent::{
    descent_converged, live, seed_table, stage_pair, NnDescentParams, Offer, Table, EMPTY,
};
use crate::parallel;
use crate::search::pool::{neighbor, slot, FLAG as NEW};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use weavess_data::prefetch::{prefetch_enabled, prefetch_lines};
use weavess_data::{Dataset, Neighbor};

/// RNN-Descent parameters.
///
/// The `outer`/`inner` pair mirrors the paper's `T1`/`T2`: `inner` update
/// passes refine pools between reverse-edge augmentations, and the whole
/// cycle runs `outer` times. Both descent engines share the
/// [`crate::nndescent::descent_converged`] early-termination contract
/// (see the *Termination contract* section of [`crate::nndescent`]), so
/// `inner` is a budget, not a fixed cost.
#[derive(Debug, Clone)]
pub struct RnnDescentParams {
    /// Neighbors emitted per vertex (the C1 output degree, like
    /// NN-Descent's `K`): the capacity of the harvest pools.
    pub k: usize,
    /// Initial random out-degree (the paper's `R`), and the degree the
    /// convergence threshold is normalized by.
    pub r: usize,
    /// Pruned-pool capacity during descent (`≥ max(r, k)` enforced):
    /// bounds the pruned core plus the reverse edges riding on top of it.
    pub l: usize,
    /// Rounds of (update passes + reverse-edge augmentation) — `T1`.
    pub outer: usize,
    /// Update-pass budget per round — `T2`, early-terminated per the
    /// shared convergence contract.
    pub inner: usize,
    /// RNG seed for the random initialization.
    pub seed: u64,
    /// Construction threads (0 = one per available core). The produced
    /// graph is identical for every value.
    pub threads: usize,
}

impl Default for RnnDescentParams {
    fn default() -> Self {
        RnnDescentParams {
            k: 20,
            r: 16,
            l: 32,
            outer: 3,
            inner: 8,
            seed: 0xBEEF,
            threads: 0,
        }
    }
}

impl RnnDescentParams {
    /// Derives an RNN-Descent configuration that stands in for a given
    /// NN-Descent configuration as C1: same output degree, seed and
    /// threads, with descent knobs sized so the pruned pools regrow a
    /// comparable candidate stream. These are the settings
    /// `NsgParams::with_rnn_c1` (and so the benchmark's NSG workloads)
    /// runs as [`crate::pipeline::InitChoice::RnnDescent`].
    pub fn matching(nd: &NnDescentParams) -> Self {
        // Two outer rounds with a generous inner budget beat three lean
        // rounds at equal wall-clock: the inner loop self-terminates via
        // `descent_converged`, so the extra passes only run while they
        // still flag work, while each outer round pays a fixed
        // reverse-augmentation sweep.
        RnnDescentParams {
            k: nd.k,
            r: (nd.k * 3 / 5).max(16),
            l: (nd.k * 6 / 5).max(24),
            outer: 2,
            inner: 12,
            seed: nd.seed,
            threads: nd.threads,
        }
    }
}

/// Phase-A vertices between two harvest applies. Staging memory is
/// proportional to this, not to `n`; the bounds are refreshed this
/// often. A multiple of [`parallel::CHUNK`], so waves never split a
/// chunk.
const WAVE: usize = 16 * parallel::CHUNK;

/// Whether a row holds an entry flagged new (phase A scores only those).
fn has_new(row: &[u64]) -> bool {
    row.iter().any(|&s| s & NEW != 0)
}

/// How many phase-A items ahead of the one being scored its vector is
/// prefetched. One to four measured alike on `hidim`'s 1 KiB rows; eight
/// lost.
const LOOKAHEAD: usize = 2;

/// Runs RNN-Descent and returns each vertex's `k` nearest discovered
/// neighbors (sorted nearest-first) — a drop-in replacement for
/// [`crate::nndescent::nn_descent`] as the C1 component. When `initial`
/// is given it seeds the pools (EFANNA's KD-tree initialization);
/// otherwise pools start random.
///
/// A one-point dataset gets one empty list: a lone point has no neighbor.
///
/// # Panics
/// If the dataset is empty or has more than 2^31 points, or if
/// `initial` does not have one row per point or names an id outside the
/// dataset.
pub fn rnn_descent(
    ds: &Dataset,
    params: &RnnDescentParams,
    initial: Option<&[Vec<Neighbor>]>,
) -> Vec<Vec<Neighbor>> {
    let n = ds.len();
    assert!(n >= 1, "need at least one point");
    if n == 1 {
        return vec![Vec::new()];
    }
    let k = params.k.max(1);
    let r = params.r.max(2).min(n - 1);
    let l = params.l.max(r).max(k);
    let threads = parallel::resolve_threads(params.threads);

    // --- Initialization: the shared seeding (one sequential RNG stream,
    // distances scored in parallel). ---
    let mut pruned = telemetry::span("C1 rnn init", || {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let (pruned, scored) = seed_table(ds, initial, r, l, &mut rng, threads);
        telemetry::add_span_ndc(scored);
        pruned
    });

    // Harvest rows start as the top-k of the initial material; every
    // scored pair lands here from then on. The initial edges' reverse
    // directions are knowledge too (an edge u→c scores c as well as u);
    // mirror them before descent starts.
    let mut knn = pruned.top(k);
    knn.apply(&snapshot_reverse(&pruned, threads), threads);

    let outer = params.outer.max(1);
    for round in 0..outer {
        telemetry::span("C1 rnn prune+add", || {
            for _pass in 0..params.inner.max(1) {
                let fresh = update_pass(ds, &mut pruned, &mut knn, threads);
                if descent_converged(fresh, n, r) {
                    break;
                }
            }
        });
        // Symmetrization: offer every edge u→v back to v as v→u (same
        // distance — no scoring), flagged new so the next round's pruning
        // revisits it; mirrored into the harvest rows as well. The final
        // round's reverse edges still enrich the emitted KNN, but no pass
        // reads the pruned rows again — skip their maintenance.
        telemetry::span("C1 rnn reverse", || {
            let offers = snapshot_reverse(&pruned, threads);
            if round + 1 < outer {
                pruned.apply(&offers, threads);
            }
            knn.apply(&offers, threads);
        });
    }

    knn.lists(k)
}

/// What one phase-A chunk hands back besides its rewritten rows.
#[derive(Default)]
struct Staged {
    /// Pruned edges recycled toward their occluders.
    pruned: Vec<Offer>,
    /// Both directions of every scored pair that passed the frozen bound.
    harvest: Vec<Offer>,
    /// Distance computations, for the span's NDC.
    scored: u64,
}

/// One prune-and-propagate pass. Returns the number of pruned-pool items
/// flagged new after the pass — the thread-count-independent convergence
/// metric of the shared contract.
fn update_pass(ds: &Dataset, pruned: &mut Table, knn: &mut Table, threads: usize) -> usize {
    let l = pruned.cap;
    let mut offers: Vec<Vec<Offer>> = Vec::new();
    let mut scored = 0u64;
    let pf = prefetch_enabled();

    // Phase A: prune every row against the state frozen at pass start.
    // A worker owns the rows of its chunk; edges for other rows — pruned
    // or harvest — are staged, never applied while a wave is scored.
    for wave in pruned.slots.chunks_mut(WAVE * l) {
        let bounds = &knn.bounds;
        let staged = parallel::par_fill(
            wave,
            parallel::CHUNK * l,
            threads,
            || {
                (
                    Vec::<usize>::new(), // accepted indices
                    Vec::<u32>::new(),   // ids to score
                    Vec::<f32>::new(),   // their distances
                    Vec::<u32>::new(),   // the chunk's items, for prefetch
                )
            },
            |(accepted, ids, dists, items), _, rows| {
                let mut out = Staged::default();
                // Every item the loop below will visit, in order: while
                // one is scored, all of the vector `LOOKAHEAD` items on
                // (in this row or a later one) is requested.
                items.clear();
                if pf {
                    for row in rows.chunks_exact(l).filter(|row| has_new(row)) {
                        items.extend(live(row).iter().map(|&s| neighbor(s).id));
                    }
                }
                let mut ahead = items.iter().skip(LOOKAHEAD);
                for row in rows.chunks_exact_mut(l) {
                    // All-old rows are a fixed point: no pair scores
                    // (old/old pairs skip), so no occluder can arise and
                    // every item would be re-accepted unchanged. Skipping
                    // them is bit-identical and makes converged vertices
                    // free.
                    if !has_new(row) {
                        continue;
                    }
                    accepted.clear();
                    for i in 0..live(row).len() {
                        if let Some(&next) = ahead.next() {
                            prefetch_lines(ds.point(next));
                        }
                        // Score `it` against the kept neighbors closer to
                        // the owner, skipping old/old pairs (compared in
                        // the pass that made them old). One dist_to_many
                        // covers every check.
                        let it = neighbor(row[i]);
                        ids.clear();
                        for &j in accepted.iter() {
                            if (row[i] | row[j]) & NEW != 0 {
                                ids.push(neighbor(row[j]).id);
                            }
                        }
                        let mut occluder: Option<(u32, f32)> = None;
                        if !ids.is_empty() {
                            ds.dist_to_many(ds.point(it.id), ids, dists);
                            out.scored += ids.len() as u64;
                            for (&wid, &d) in ids.iter().zip(dists.iter()) {
                                // Every scored pair is harvested by both
                                // endpoints — paid for once, used twice.
                                stage_pair(&mut out.harvest, bounds, it.id, wid, d);
                                if occluder.is_none() && d < it.dist {
                                    occluder = Some((wid, d));
                                }
                            }
                        }
                        match occluder {
                            // Kept: compared against every kept
                            // predecessor — old from here on.
                            None => accepted.push(i),
                            // Pruned: recycle the edge toward the
                            // occluder, reusing the distance the prune
                            // already paid.
                            Some((wid, d)) => {
                                out.pruned.push((wid, slot(Neighbor::new(it.id, d))));
                            }
                        }
                    }
                    for (to, &from) in accepted.iter().enumerate() {
                        row[to] = row[from] & !NEW;
                    }
                    row[accepted.len()..].fill(EMPTY);
                }
                out
            },
        );
        let mut harvest = Vec::with_capacity(staged.len());
        for s in staged {
            scored += s.scored;
            offers.push(s.pruned);
            harvest.push(s.harvest);
        }
        knn.apply(&harvest, threads);
    }
    telemetry::add_span_ndc(scored);

    // Phase B: apply the descent offers to the pruned rows.
    pruned.apply(&offers, threads);

    // Convergence metric: surviving new-flagged items.
    pruned.count_new(threads)
}

/// Snapshots every pruned-pool edge `u→v` as an offer `(v, v→u)` — the
/// raw material of both reverse augmentation and harvest mirroring.
fn snapshot_reverse(pruned: &Table, threads: usize) -> Vec<Vec<Offer>> {
    let l = pruned.cap;
    parallel::par_chunks_map(
        pruned.slots.len(),
        parallel::CHUNK * l,
        threads,
        || (),
        |_, range| {
            let first = range.start / l;
            let mut out = Vec::new();
            for (i, row) in pruned.slots[range].chunks_exact(l).enumerate() {
                for &s in live(row) {
                    let edge = neighbor(s);
                    out.push((edge.id, slot(Neighbor::new((first + i) as u32, edge.dist))));
                }
            }
            out
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::{knn_recall, nn_descent};
    use weavess_data::ground_truth::exact_knn_graph;
    use weavess_data::synthetic::MixtureSpec;

    fn dataset() -> Dataset {
        MixtureSpec::table10(16, 1_000, 5, 3.0, 10).generate().0
    }

    #[test]
    fn two_points_find_each_other() {
        let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        let g = rnn_descent(&ds, &RnnDescentParams::default(), None);
        assert_eq!(
            g,
            vec![vec![Neighbor::new(1, 25.0)], vec![Neighbor::new(0, 25.0)]]
        );
    }

    #[test]
    fn pruned_and_harvest_rows_may_be_equally_wide() {
        let ds = dataset();
        let run = |threads: usize| {
            let params = RnnDescentParams {
                k: 8,
                r: 8,
                l: 8,
                outer: 2,
                inner: 4,
                seed: 3,
                threads,
            };
            rnn_descent(&ds, &params, None)
        };
        let g = run(1);
        assert_eq!(g, run(8));
        assert!(g.iter().all(|row| row.len() == 8));
        assert!(g.iter().all(|row| row.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    #[should_panic(expected = "`initial` has 999 rows for 1000 points")]
    fn a_short_initial_graph_is_refused_before_any_work() {
        let ds = dataset();
        let init = vec![Vec::new(); ds.len() - 1];
        rnn_descent(&ds, &RnnDescentParams::default(), Some(&init));
    }

    #[test]
    #[should_panic(expected = "`initial` row 17 names id 1000, the dataset has 1000 points")]
    fn an_initial_id_outside_the_dataset_is_refused_before_any_work() {
        let ds = dataset();
        let mut init = vec![Vec::new(); ds.len()];
        init[17] = vec![Neighbor::new(5, 1.0), Neighbor::new(1000, 2.0)];
        rnn_descent(&ds, &RnnDescentParams::default(), Some(&init));
    }

    #[test]
    fn converges_to_high_graph_quality() {
        let ds = dataset();
        let params = RnnDescentParams {
            k: 10,
            r: 12,
            l: 24,
            outer: 3,
            inner: 8,
            seed: 7,
            threads: 4,
        };
        let g = rnn_descent(&ds, &params, None);
        let exact = exact_knn_graph(&ds, 10, 4);
        let q = knn_recall(&g, &exact);
        assert!(q > 0.85, "graph quality {q}");
    }

    #[test]
    fn respects_k_excludes_self_and_sorts() {
        let ds = dataset();
        let params = RnnDescentParams {
            k: 6,
            r: 8,
            l: 16,
            outer: 2,
            inner: 4,
            ..Default::default()
        };
        let g = rnn_descent(&ds, &params, None);
        assert_eq!(g.len(), ds.len());
        for (v, row) in g.iter().enumerate() {
            assert!(row.len() <= 6);
            assert!(row.iter().all(|n| n.id != v as u32));
            assert!(row.windows(2).all(|w| w[0].dist <= w[1].dist));
            // Distances are the true kernel distances.
            for n in row {
                assert_eq!(n.dist.to_bits(), ds.dist(v as u32, n.id).to_bits());
            }
        }
    }

    #[test]
    fn matches_nn_descent_quality() {
        // The headline claim at unit scale: RNN-Descent reaches
        // NN-Descent-level graph quality. (How fast is the benchmark's
        // `build.span_s.c1_init` row, not a unit test's business.)
        let ds = dataset();
        let exact = exact_knn_graph(&ds, 10, 4);
        let nd = NnDescentParams {
            k: 10,
            l: 20,
            iters: 8,
            sample: 8,
            reverse: 10,
            seed: 7,
            threads: 4,
        };
        let q_nnd = knn_recall(&nn_descent(&ds, &nd, None), &exact);
        let rnn = RnnDescentParams::matching(&nd);
        let q_rnn = knn_recall(&rnn_descent(&ds, &rnn, None), &exact);
        assert!(
            q_rnn > q_nnd - 0.05,
            "RNN quality {q_rnn} too far below NND {q_nnd}"
        );
    }

    #[test]
    fn good_initialization_improves_quality_at_equal_budget() {
        let ds = dataset();
        let exact = exact_knn_graph(&ds, 10, 4);
        let params = RnnDescentParams {
            k: 10,
            r: 12,
            l: 24,
            outer: 1,
            inner: 1,
            seed: 7,
            threads: 2,
        };
        let from_random = knn_recall(&rnn_descent(&ds, &params, None), &exact);
        let init: Vec<Vec<Neighbor>> = exact
            .iter()
            .enumerate()
            .map(|(v, row)| {
                row.iter()
                    .map(|&u| Neighbor::new(u, ds.dist(v as u32, u)))
                    .collect()
            })
            .collect();
        let from_exact = knn_recall(&rnn_descent(&ds, &params, Some(&init)), &exact);
        assert!(from_exact > from_random, "{from_exact} <= {from_random}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let params = RnnDescentParams {
            k: 8,
            r: 10,
            l: 20,
            outer: 2,
            inner: 3,
            threads: 1,
            ..Default::default()
        };
        let digest = |g: &[Vec<Neighbor>]| {
            g.iter()
                .map(|r| {
                    r.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let a = rnn_descent(&ds, &params, None);
        let b = rnn_descent(&ds, &params, None);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn thread_count_does_not_change_output() {
        // The integration suite digests this at build scale
        // (`tests/build_determinism.rs`); this is the fast unit-level
        // check of the same contract.
        let ds = dataset();
        let digest = |threads: usize| {
            let params = RnnDescentParams {
                k: 10,
                r: 12,
                l: 24,
                outer: 2,
                inner: 4,
                seed: 11,
                threads,
            };
            rnn_descent(&ds, &params, None)
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let base = digest(1);
        assert_eq!(digest(2), base);
        assert_eq!(digest(8), base);
    }
}
