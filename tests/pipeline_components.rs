//! Integration: the §5.4 unified pipeline — component swaps compose into
//! working indexes and reproduce the paper's qualitative component-study
//! findings at miniature scale.

use weavess::core::index::{AnnIndex, SearchContext};
use weavess::core::pipeline::{
    CandidateChoice, ConnectivityChoice, InitChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use weavess::core::search::Router;
use weavess::data::ground_truth::ground_truth;
use weavess::data::metrics::mean_recall;
use weavess::data::synthetic::MixtureSpec;
use weavess::data::Dataset;
use weavess::graph::connectivity::weak_components;

fn dataset() -> (Dataset, Dataset) {
    MixtureSpec {
        intrinsic_dim: Some(8),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(24, 2_000, 4, 5.0, 50)
    }
    .generate()
}

fn recall_of(b: &PipelineBuilder, base: &Dataset, queries: &Dataset, beam: usize) -> f64 {
    let idx = b.build(base);
    let gt = ground_truth(base, queries, 10, 2);
    let mut ctx = SearchContext::new(base.len());
    let results: Vec<Vec<u32>> = (0..queries.len() as u32)
        .map(|qi| {
            idx.search(base, queries.point(qi), 10, beam, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();
    mean_recall(&results, &gt)
}

#[test]
fn c1_nn_descent_beats_random_init() {
    // Figure 10(a): C1_NSG (NN-Descent) >> C1_KGraph (random pools).
    let (base, queries) = dataset();
    let good = PipelineBuilder::benchmark(6, 2);
    let mut bad = PipelineBuilder::benchmark(6, 2);
    bad.init = InitChoice::Random { k: 40 };
    let r_good = recall_of(&good, &base, &queries, 40);
    let r_bad = recall_of(&bad, &base, &queries, 40);
    assert!(r_good > r_bad, "nn-descent {r_good} !> random {r_bad}");
}

#[test]
fn c3_distribution_aware_selection_beats_distance_only() {
    // Figure 10(c): RNG-rule selection beats closest-only at equal degree.
    let (base, queries) = dataset();
    let rng_rule = PipelineBuilder::benchmark(6, 2);
    let mut closest = PipelineBuilder::benchmark(6, 2);
    closest.selection = SelectionChoice::Closest { degree: 30 };
    // Compare NDC at similar recall by fixing the beam and comparing recall.
    let r_rng = recall_of(&rng_rule, &base, &queries, 30);
    let r_closest = recall_of(&closest, &base, &queries, 30);
    assert!(
        r_rng >= r_closest - 0.01,
        "rng-rule {r_rng} < closest {r_closest}"
    );
}

#[test]
fn c5_dfs_repair_connects_the_graph() {
    // Figure 10(e): connectivity assurance matters. Build on *separated*
    // clusters where repair is actually needed.
    let (base, _) = MixtureSpec::table10(16, 1_500, 5, 3.0, 30).generate();
    let mut without = PipelineBuilder::benchmark(6, 2);
    without.connectivity = ConnectivityChoice::None;
    let mut with = PipelineBuilder::benchmark(6, 2);
    with.connectivity = ConnectivityChoice::DfsRepair;
    let g_without = without.build(&base);
    let g_with = with.build(&base);
    assert!(weak_components(g_without.graph()) > 1);
    // DFS repair adds directed bridges; weak components must collapse.
    assert_eq!(weak_components(g_with.graph()), 1);
}

#[test]
fn c7_guided_search_saves_distance_computations() {
    // Figure 10(f): C7_HCNNG trades a little accuracy for fewer NDC.
    let (base, queries) = dataset();
    let best_first = PipelineBuilder::benchmark(6, 2);
    let mut guided = PipelineBuilder::benchmark(6, 2);
    guided.router = Router::Guided;
    let idx_bf = best_first.build(&base);
    let idx_g = guided.build(&base);
    let mut ctx_bf = SearchContext::new(base.len());
    let mut ctx_g = SearchContext::new(base.len());
    for qi in 0..queries.len() as u32 {
        idx_bf.search(&base, queries.point(qi), 10, 40, &mut ctx_bf);
        idx_g.search(&base, queries.point(qi), 10, 40, &mut ctx_g);
    }
    assert!(
        ctx_g.stats.ndc < ctx_bf.stats.ndc,
        "guided {} !< best-first {}",
        ctx_g.stats.ndc,
        ctx_bf.stats.ndc
    );
}

#[test]
fn all_seed_choices_produce_working_indexes() {
    let (base, queries) = dataset();
    let seeds = [
        SeedChoice::Random { count: 8 },
        SeedChoice::Medoid,
        SeedChoice::FixedRandom { count: 8 },
        SeedChoice::Spread { count: 8 },
        SeedChoice::KdLeaf {
            n_trees: 2,
            count: 8,
        },
        SeedChoice::KdSearch {
            n_trees: 2,
            count: 8,
            checks_per_tree: 64,
        },
        SeedChoice::VpTree {
            count: 8,
            checks: 128,
        },
        SeedChoice::BkTree {
            count: 8,
            checks: 128,
        },
        SeedChoice::Lsh {
            tables: 2,
            bits: 10,
            count: 8,
        },
    ];
    for seed in seeds {
        let mut b = PipelineBuilder::benchmark(4, 2);
        let label = format!("{seed:?}");
        b.seeds = seed;
        let r = recall_of(&b, &base, &queries, 60);
        assert!(r > 0.7, "{label}: recall {r}");
    }
}

#[test]
fn all_candidate_choices_produce_working_indexes() {
    let (base, queries) = dataset();
    for cand in [
        CandidateChoice::Expansion { cap: 100 },
        CandidateChoice::Direct,
        CandidateChoice::Search { beam: 40, cap: 100 },
        CandidateChoice::None,
        CandidateChoice::SearchMerge { beam: 40, cap: 100 },
        CandidateChoice::Exhaustive { up_to: 2_000 },
    ] {
        let mut b = PipelineBuilder::benchmark(4, 2);
        let label = format!("{cand:?}");
        b.candidates = cand;
        let r = recall_of(&b, &base, &queries, 60);
        assert!(r > 0.7, "{label}: recall {r}");
    }
}
