//! Ablation study of the optimized algorithm's design choices (beyond the
//! paper: §6 asserts each pick; this measures what each contributes).
//!
//! Every variant starts from `oa::pipeline(&OaParams::tuned(threads, 1))`,
//! the OA that `fig11_optimized` measures, and degrades exactly one choice:
//! - `no-two-stage` — C7 falls back to plain best-first;
//! - `no-dfs-repair` — C5 skipped;
//! - `closest-selection` — C3 falls back to distance-only;
//! - `search-candidates` — C2 uses NSG-style per-point graph search
//!   (the expensive acquisition OA deliberately avoids);
//! - `entries-1` / `entries-32` — C4 entry-count sensitivity (of the
//!   farthest-point spread).

use weavess_bench::datasets::simple_and_hard;
use weavess_bench::report::{banner, f, Table};
use weavess_bench::runner::{default_beams, SweepPoint};
use weavess_bench::{env_scale, env_threads};
use weavess_core::algorithms::oa::{self, OaParams};
use weavess_core::index::{AnnIndex, SearchContext};
use weavess_core::pipeline::{
    CandidateChoice, ConnectivityChoice, PipelineBuilder, SeedChoice, SelectionChoice,
};
use weavess_core::search::Router;
use weavess_data::metrics::recall;

const K: usize = 10;

fn main() {
    let scale = env_scale();
    let threads = env_threads();
    let sets = simple_and_hard(scale, threads);
    banner(&format!("OA design-choice ablations (scale={scale})"));

    type Mutator = Box<dyn Fn(&mut PipelineBuilder)>;
    let variants: Vec<(&str, Mutator)> = vec![
        ("OA (full)", Box::new(|_b: &mut PipelineBuilder| {})),
        ("no-two-stage", Box::new(|b| b.router = Router::BestFirst)),
        (
            "no-dfs-repair",
            Box::new(|b| b.connectivity = ConnectivityChoice::None),
        ),
        (
            "closest-selection",
            Box::new(|b| b.selection = SelectionChoice::Closest { degree: 30 }),
        ),
        (
            "search-candidates",
            Box::new(|b| b.candidates = CandidateChoice::Search { beam: 60, cap: 100 }),
        ),
        ("entries-1", Box::new(|b| spread(b, 1))),
        ("entries-32", Box::new(|b| spread(b, 32))),
    ];

    let mut t = Table::new(vec![
        "Variant",
        "Dataset",
        "Build(s)",
        "beam",
        "Recall@10",
        "NDC",
        "Speedup",
    ]);
    for (label, mutate) in &variants {
        for ds in &sets {
            let mut b = oa::pipeline(&OaParams::tuned(threads, 1));
            mutate(&mut b);
            let (idx, _, secs) = b.build_timed(&ds.base);
            for &beam in &default_beams(K)[..6] {
                let p = run(&idx, ds, beam);
                t.row(vec![
                    label.to_string(),
                    ds.name.clone(),
                    f(secs, 2),
                    beam.to_string(),
                    f(p.recall, 4),
                    f(p.ndc, 0),
                    f(p.speedup, 1),
                ]);
            }
            eprintln!("{label} on {} done", ds.name);
        }
    }
    banner("OA ablations: search performance per degraded choice");
    t.print();
    t.write_csv("ablation_oa").expect("csv");
}

/// Sets how many entries OA's farthest-point sampling spreads.
fn spread(b: &mut PipelineBuilder, entries: usize) {
    if let SeedChoice::Spread { count } = &mut b.seeds {
        *count = entries;
    }
}

fn run(
    idx: &weavess_core::index::FlatIndex,
    ds: &weavess_bench::datasets::NamedDataset,
    beam: usize,
) -> SweepPoint {
    let mut ctx = SearchContext::new(ds.base.len());
    let t0 = std::time::Instant::now();
    let mut total = 0.0;
    for qi in 0..ds.queries.len() as u32 {
        let res = idx.search(&ds.base, ds.queries.point(qi), K, beam, &mut ctx);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        total += recall(&ids, &ds.gt[qi as usize][..K]);
    }
    let secs = t0.elapsed().as_secs_f64();
    let stats = ctx.take_stats();
    let nq = ds.queries.len() as f64;
    SweepPoint {
        beam,
        recall: total / nq,
        qps: nq / secs.max(1e-9),
        ndc: stats.ndc as f64 / nq,
        hops: stats.hops as f64 / nq,
        speedup: ds.base.len() as f64 / (stats.ndc as f64 / nq).max(1e-9),
    }
}
