//! The §5.4 unified evaluation framework: a *Refinement*-strategy builder
//! with one pluggable choice per pipeline component.
//!
//! The paper's component study (Figure 10) fixes a benchmark algorithm
//! (Table 13) and swaps exactly one component per experiment; this module
//! is that machine. [`PipelineBuilder::benchmark`] reproduces the Table 13
//! configuration: `C1_NSG` (NN-Descent), `C2_NSSG` (expansion), `C3_HNSW`
//! (RNG rule), `C4_NSSG`/`C6_NSSG` (fixed random entries), `C5_IEH`
//! (no connectivity repair), `C7_NSW` (best-first). The eight refinement
//! algorithms (KGraph, EFANNA, IEH, FANNG, DPG, NSG, NSSG, OA) are presets
//! of the same builder: each module's `pipeline(&Params)`.

use crate::components::candidates::{
    candidates_by_expansion, candidates_by_search, candidates_subspace,
};
use crate::components::connectivity::{add_reverse_edges, dfs_repair};
use crate::components::init::{init_brute_force, init_kdtree_nn_descent, init_random};
use crate::components::refine::{freeze, per_point};
use crate::components::seeds::{spread_entries, SeedStrategy};
use crate::components::selection::{
    select_angle, select_closest, select_dpg, select_mst, select_rng_alpha,
};
use crate::index::FlatIndex;
use crate::nndescent::{nn_descent, NnDescentParams};
use crate::rnndescent::{rnn_descent, RnnDescentParams};
use crate::search::Router;
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::OnceCell;
use weavess_data::neighbor::insert_into_pool;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;
use weavess_trees::{BkTree, KdForest, LshTable, VpTree};

/// C1 choice.
#[derive(Debug, Clone)]
pub enum InitChoice {
    /// Random neighbors (KGraph / Vamana style).
    Random {
        /// Neighbors per point.
        k: usize,
    },
    /// NN-Descent (`C1_NSG`).
    NnDescent(NnDescentParams),
    /// Relative NN-Descent (`C1_RNND`, arXiv 2310.20419): the pruning
    /// descent — same output contract as NN-Descent, far fewer distance
    /// computations.
    RnnDescent(RnnDescentParams),
    /// KD-forest assisted NN-Descent (`C1_EFANNA`). The forest is the first
    /// draw from the builder's `seed`; a [`SeedChoice::KdSearch`] of equal
    /// `n_trees` searches it, so that C4 depends on this C1.
    KdTree {
        /// Trees in the forest.
        n_trees: usize,
        /// Distance budget per tree per point.
        checks_per_tree: usize,
        /// The NN-Descent refinement that follows.
        nd: NnDescentParams,
    },
    /// Exact KNNG by brute force (`C1_IEH` / `C1_FANNG`).
    BruteForce {
        /// Neighbors per point.
        k: usize,
    },
}

/// C2 choice.
#[derive(Debug, Clone)]
pub enum CandidateChoice {
    /// No C2+C3 pass: the C1 lists, already each point's nearest, are the
    /// graph (KGraph, EFANNA, IEH). `selection` is not read.
    None,
    /// Greedy search on the initial graph (`C2_NSW` / `C2_NSG`).
    Search {
        /// Search beam width (NSG's `L`).
        beam: usize,
        /// Candidate cap (NSG's `C`).
        cap: usize,
    },
    /// [`CandidateChoice::Search`], then the point's C1 neighbors merged
    /// into the capped pool (NSG's `sync_prune`).
    SearchMerge {
        /// Search beam width (NSG's `L`).
        beam: usize,
        /// Candidate cap (NSG's `C`).
        cap: usize,
    },
    /// Neighbors + neighbors' neighbors (`C2_NSSG`).
    Expansion {
        /// Candidate cap.
        cap: usize,
    },
    /// Direct neighbors only (`C2_DPG`).
    Direct,
    /// Every other point (FANNG's exact rule; no C1 runs) up to `up_to`
    /// points; above, the C1 lists as [`CandidateChoice::Direct`].
    Exhaustive {
        /// Largest dataset searched exhaustively.
        up_to: usize,
    },
}

/// C3 choice.
#[derive(Debug, Clone)]
pub enum SelectionChoice {
    /// Distance-only top-K (`C3_KGraph`).
    Closest {
        /// Max degree.
        degree: usize,
    },
    /// RNG rule with Vamana's α (`C3_HNSW`/`C3_NSG` at α=1, `C3_Vamana` at α>1).
    RngAlpha {
        /// Max degree.
        degree: usize,
        /// Occlusion relaxation (≥ 1).
        alpha: f32,
    },
    /// NSSG's angle threshold (`C3_NSSG`).
    Angle {
        /// Max degree.
        degree: usize,
        /// Minimum pairwise angle in degrees.
        min_deg: f32,
    },
    /// DPG's angular diversification (`C3_DPG`).
    Dpg {
        /// Neighbors kept (the DPG paper's κ).
        kappa: usize,
    },
    /// MST-adjacency (`C3_HCNNG`).
    Mst,
}

/// C4/C6 choice (built into a [`SeedStrategy`] at build time).
#[derive(Debug, Clone)]
pub enum SeedChoice {
    /// Fresh random seeds every query (`C4_DPG` etc.).
    Random {
        /// Seeds per query.
        count: usize,
    },
    /// The dataset medoid (`C4_NSG` / `C4_Vamana`).
    Medoid,
    /// Random but fixed at build time (`C4_NSSG`).
    FixedRandom {
        /// Number of fixed entries.
        count: usize,
    },
    /// Fixed at build time, spread by farthest-point sampling
    /// ([`spread_entries`] from the builder's `seed`; NSSG, OA).
    Spread {
        /// Number of fixed entries.
        count: usize,
    },
    /// KD-forest leaf lookup (`C4_HCNNG`).
    KdLeaf {
        /// Trees.
        n_trees: usize,
        /// Seeds per query.
        count: usize,
    },
    /// KD-forest budgeted search (`C4_EFANNA` / `C4_SPTAG-KDT`), over C1's
    /// forest after an [`InitChoice::KdTree`] of equal `n_trees` (EFANNA).
    KdSearch {
        /// Trees.
        n_trees: usize,
        /// Seeds per query.
        count: usize,
        /// Distance budget per tree.
        checks_per_tree: usize,
    },
    /// VP-tree (`C4_NGT`).
    VpTree {
        /// Seeds per query.
        count: usize,
        /// Distance budget.
        checks: usize,
    },
    /// Balanced k-means tree (`C4_SPTAG-BKT`).
    BkTree {
        /// Seeds per query.
        count: usize,
        /// Distance budget.
        checks: usize,
    },
    /// LSH buckets (`C4_IEH`).
    Lsh {
        /// Hash tables.
        tables: usize,
        /// Bits per table.
        bits: usize,
        /// Seeds per query.
        count: usize,
    },
    /// PQ-compressed scan (the §4.1 OPQ-seed reference).
    Pq {
        /// Subspaces (must divide the dimension).
        m: usize,
        /// Seeds per query.
        count: usize,
    },
}

/// C5 choice.
#[derive(Debug, Clone)]
pub enum ConnectivityChoice {
    /// No repair (`C5_IEH` / `C5_Vamana`).
    None,
    /// NSG-style DFS repair from the medoid (`C5_NSG`), bridges found at
    /// beam 64.
    DfsRepair,
    /// DFS repair from C4's first fixed entry (else the medoid), bridges
    /// found at `beam`: NSG from its medoid at its `L`, NSSG and OA from
    /// their first spread entry at 64.
    DfsRepairFromEntry {
        /// Beam of the search that finds each bridge.
        beam: usize,
    },
    /// DPG-style reverse edges (`C5_DPG`), bounded per vertex.
    ReverseEdges {
        /// Per-vertex degree cap after undirection.
        max_degree: usize,
    },
}

/// A full pipeline configuration.
///
/// ```
/// use weavess_core::index::{AnnIndex, SearchContext};
/// use weavess_core::pipeline::{PipelineBuilder, SeedChoice};
/// use weavess_data::synthetic::MixtureSpec;
///
/// let (base, queries) = MixtureSpec::table10(8, 500, 2, 5.0, 5).generate();
/// let mut builder = PipelineBuilder::benchmark(2, 2);
/// builder.seeds = SeedChoice::Medoid; // swap one component (C4)
/// let index = builder.build(&base);
/// let mut ctx = SearchContext::new(base.len());
/// let res = index.search(&base, queries.point(0), 5, 20, &mut ctx);
/// assert_eq!(res.len(), 5);
/// ```
pub struct PipelineBuilder {
    /// C1.
    pub init: InitChoice,
    /// C2.
    pub candidates: CandidateChoice,
    /// C3.
    pub selection: SelectionChoice,
    /// C4 + C6.
    pub seeds: SeedChoice,
    /// C5.
    pub connectivity: ConnectivityChoice,
    /// C7.
    pub router: Router,
    /// Construction threads (0 = one per available core). The built graph
    /// is identical for every value.
    pub threads: usize,
    /// Seeds C1's random pools, C4's spread, and the one RNG stream that
    /// C1's KD-forest, then C4's random entries, trees and tables draw from.
    pub seed: u64,
    /// Name stamped on the built index.
    pub name: &'static str,
}

impl PipelineBuilder {
    /// The Table 13 benchmark configuration, with NN-Descent running
    /// `iters` iterations (Figure 15 studies this knob; the paper settles
    /// on 8).
    pub fn benchmark(iters: usize, threads: usize) -> Self {
        PipelineBuilder {
            init: InitChoice::NnDescent(NnDescentParams {
                k: 40,
                l: 60,
                iters,
                sample: 15,
                reverse: 30,
                seed: 0xBE11C4,
                threads,
            }),
            candidates: CandidateChoice::Expansion { cap: 100 },
            selection: SelectionChoice::RngAlpha {
                degree: 30,
                alpha: 1.0,
            },
            seeds: SeedChoice::FixedRandom { count: 8 },
            connectivity: ConnectivityChoice::None,
            router: Router::BestFirst,
            threads,
            seed: 0xBE11C4,
            name: "benchmark",
        }
    }

    /// Runs the pipeline.
    pub fn build(&self, ds: &Dataset) -> FlatIndex {
        self.build_timed(ds).0
    }

    /// Runs the pipeline and reports `(index, init_seconds, total_seconds)`
    /// for the Table 15 per-component construction-time study. A stage
    /// with nothing to build (random or medoid seeds, say) opens no span.
    pub fn build_timed(&self, ds: &Dataset) -> (FlatIndex, f64, f64) {
        let t0 = std::time::Instant::now();
        let n = ds.len();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let medoid_cell = OnceCell::new();
        let medoid = || *medoid_cell.get_or_init(|| ds.medoid());

        // --- C1: initialization, unless C2 reads no starting graph ---
        let exhaustive =
            matches!(self.candidates, CandidateChoice::Exhaustive { up_to } if n <= up_to);
        let mut c1_forest = None;
        let init_lists: Vec<Vec<Neighbor>> = if exhaustive {
            Vec::new()
        } else {
            telemetry::span("C1 init", || match &self.init {
                InitChoice::Random { k } => init_random(ds, *k, self.seed),
                InitChoice::NnDescent(p) => nn_descent(ds, p, None),
                InitChoice::RnnDescent(p) => rnn_descent(ds, p, None),
                InitChoice::KdTree {
                    n_trees,
                    checks_per_tree,
                    nd,
                } => {
                    let forest = KdForest::build(ds, *n_trees, 32, &mut rng);
                    let (_, forest) = c1_forest.insert((*n_trees, forest));
                    init_kdtree_nn_descent(ds, forest, *checks_per_tree, nd, self.threads)
                }
                InitChoice::BruteForce { k } => init_brute_force(ds, *k, self.threads),
            })
        };
        let init_secs = t0.elapsed().as_secs_f64();

        // --- C2 + C3: per-point candidate acquisition and selection ---
        let select = |p: u32, cands: &[Neighbor]| match &self.selection {
            SelectionChoice::Closest { degree } => select_closest(cands, *degree),
            SelectionChoice::RngAlpha { degree, alpha } => {
                select_rng_alpha(ds, p, cands, *degree, *alpha)
            }
            SelectionChoice::Angle { degree, min_deg } => {
                select_angle(ds, p, cands, *degree, *min_deg)
            }
            SelectionChoice::Dpg { kappa } => select_dpg(ds, p, cands, *kappa),
            SelectionChoice::Mst => select_mst(ds, p, cands),
        };
        let c2_c3 = "C2+C3 candidates+selection";
        let mut lists = match &self.candidates {
            CandidateChoice::None => init_lists,
            CandidateChoice::Exhaustive { .. } if exhaustive => {
                let all: Vec<u32> = (0..n as u32).collect();
                per_point(ds, self.threads, c2_c3, |p, _, _| {
                    select(p, &candidates_subspace(ds, &all, p))
                })
            }
            CandidateChoice::Direct | CandidateChoice::Exhaustive { .. } => {
                per_point(ds, self.threads, "C3 selection", |p, _, _| {
                    select(p, &init_lists[p as usize])
                })
            }
            CandidateChoice::Expansion { cap } => per_point(ds, self.threads, c2_c3, |p, _, _| {
                select(p, &candidates_by_expansion(ds, &init_lists, p, *cap))
            }),
            CandidateChoice::Search { beam, cap } | CandidateChoice::SearchMerge { beam, cap } => {
                let init_csr = CsrGraph::from_neighbor_lists(&init_lists);
                let entry = [medoid()];
                let merge = matches!(self.candidates, CandidateChoice::SearchMerge { .. });
                per_point(ds, self.threads, c2_c3, |p, scratch, stats| {
                    let mut cands =
                        candidates_by_search(ds, &init_csr, p, &entry, *beam, *cap, scratch, stats);
                    if merge {
                        for x in &init_lists[p as usize] {
                            insert_into_pool(&mut cands, *cap, *x);
                        }
                    }
                    select(p, &cands)
                })
            }
        };

        // --- C4: seed preprocessing ---
        let c4 = || match &self.seeds {
            SeedChoice::Random { count } => SeedStrategy::Random { count: *count },
            SeedChoice::Medoid => SeedStrategy::Fixed(vec![medoid()]),
            SeedChoice::FixedRandom { count } => {
                SeedStrategy::Fixed((0..*count).map(|_| rng.gen_range(0..n as u32)).collect())
            }
            SeedChoice::Spread { count } => {
                SeedStrategy::Fixed(spread_entries(ds, *count, self.seed))
            }
            SeedChoice::KdLeaf { n_trees, count } => SeedStrategy::KdLeaf {
                forest: KdForest::build(ds, *n_trees, 32, &mut rng),
                count: *count,
            },
            SeedChoice::KdSearch {
                n_trees,
                count,
                checks_per_tree,
            } => SeedStrategy::KdSearch {
                forest: match c1_forest {
                    Some((t, forest)) if t == *n_trees => forest,
                    _ => KdForest::build(ds, *n_trees, 32, &mut rng),
                },
                count: *count,
                checks_per_tree: *checks_per_tree,
            },
            SeedChoice::VpTree { count, checks } => SeedStrategy::Vp {
                tree: VpTree::build(ds, 16),
                count: *count,
                checks: *checks,
            },
            SeedChoice::BkTree { count, checks } => SeedStrategy::Bk {
                tree: BkTree::build(ds, 8, 32),
                count: *count,
                checks: *checks,
            },
            SeedChoice::Lsh {
                tables,
                bits,
                count,
            } => SeedStrategy::Lsh {
                table: LshTable::build(ds, *tables, *bits, &mut rng),
                count: *count,
                fallback: vec![medoid()],
            },
            SeedChoice::Pq { m, count } => SeedStrategy::Pq {
                pq: weavess_data::pq::PqDataset::train(ds, *m, ds.len().min(20_000)),
                count: *count,
            },
        };
        let seeds = match self.seeds {
            SeedChoice::Random { .. } | SeedChoice::Medoid => c4(),
            _ => telemetry::span("C4 seeds", c4),
        };

        // --- C5: connectivity ---
        let first_entry = match &seeds {
            SeedStrategy::Fixed(entries) => entries.first().copied(),
            _ => None,
        };
        let c5 = "C5 connectivity";
        match self.connectivity {
            ConnectivityChoice::None => {}
            ConnectivityChoice::DfsRepair => {
                let root = medoid();
                telemetry::span(c5, || dfs_repair(ds, &mut lists, root, 64));
            }
            ConnectivityChoice::DfsRepairFromEntry { beam } => {
                let root = first_entry.unwrap_or_else(medoid);
                telemetry::span(c5, || dfs_repair(ds, &mut lists, root, beam));
            }
            ConnectivityChoice::ReverseEdges { max_degree } => {
                telemetry::span(c5, || add_reverse_edges(&mut lists, max_degree));
            }
        }

        let graph = freeze(&lists);
        let total_secs = t0.elapsed().as_secs_f64();
        (
            FlatIndex {
                name: self.name,
                graph,
                seeds,
                router: self.router.clone(),
            },
            init_secs,
            total_secs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::{mean_recall, recall};
    use weavess_data::synthetic::MixtureSpec;

    fn dataset() -> (Dataset, Dataset) {
        MixtureSpec::table10(16, 1_500, 5, 3.0, 30).generate()
    }

    fn run_recall(idx: &FlatIndex, ds: &Dataset, qs: &Dataset, beam: usize) -> f64 {
        let gt = ground_truth(ds, qs, 10, 4);
        let mut ctx = SearchContext::new(ds.len());
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let res: Vec<u32> = idx
                .search(ds, qs.point(qi), 10, beam, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            total += recall(&res, &gt[qi as usize]);
        }
        total / qs.len() as f64
    }

    #[test]
    fn benchmark_pipeline_reaches_high_recall() {
        let (ds, qs) = dataset();
        let idx = PipelineBuilder::benchmark(4, 4).build(&ds);
        let r = run_recall(&idx, &ds, &qs, 80);
        assert!(r > 0.85, "recall={r}");
    }

    #[test]
    fn component_swaps_produce_working_indexes() {
        let (ds, qs) = dataset();
        let gt = ground_truth(&ds, &qs, 10, 4);
        let mut b = PipelineBuilder::benchmark(2, 4);
        b.selection = SelectionChoice::Angle {
            degree: 30,
            min_deg: 60.0,
        };
        b.connectivity = ConnectivityChoice::DfsRepair;
        b.seeds = SeedChoice::Medoid;
        b.router = Router::Guided;
        let idx = b.build(&ds);
        let mut ctx = SearchContext::new(ds.len());
        let results: Vec<Vec<u32>> = (0..qs.len() as u32)
            .map(|qi| {
                idx.search(&ds, qs.point(qi), 10, 80, &mut ctx)
                    .iter()
                    .map(|n| n.id)
                    .collect()
            })
            .collect();
        let r = mean_recall(&results, &gt);
        assert!(r > 0.5, "recall={r}");
    }

    #[test]
    fn build_timed_reports_monotone_times() {
        let (ds, _) = MixtureSpec::table10(8, 400, 3, 3.0, 5).generate();
        let (_, init_s, total_s) = PipelineBuilder::benchmark(2, 2).build_timed(&ds);
        assert!(init_s >= 0.0);
        assert!(total_s >= init_s);
    }

    #[test]
    fn rng_selection_bounds_degree() {
        let (ds, _) = dataset();
        let idx = PipelineBuilder::benchmark(2, 4).build(&ds);
        let stats = weavess_graph::metrics::degree_stats(idx.graph());
        assert!(stats.max <= 30, "max degree {}", stats.max);
    }
}
