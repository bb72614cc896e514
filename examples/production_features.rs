//! Production features beyond the survey's evaluation loop: persist a
//! built index to disk, reload it without rebuilding, route over
//! quantized vectors to shrink resident memory, and answer query batches
//! in parallel.
//!
//! ```sh
//! cargo run --release --example production_features
//! ```

use weavess::core::algorithms::nsg::{self, NsgParams};
use weavess::core::index::{AnnIndex, SearchContext};
use weavess::core::persist::{load_index, save_index};
use weavess::core::quantized::QuantizedIndex;
use weavess::core::search::{SearchScratch, SearchStats};
use weavess::core::serve::{EngineOptions, QueryEngine};
use weavess::data::ground_truth::ground_truth;
use weavess::data::metrics::mean_recall;
use weavess::data::synthetic::MixtureSpec;

fn main() {
    let spec = MixtureSpec {
        intrinsic_dim: Some(9),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(64, 10_000, 8, 5.0, 200)
    };
    let (base, queries) = spec.generate();
    let gt = ground_truth(&base, &queries, 10, 4);

    // Build once (the expensive part)...
    let t0 = std::time::Instant::now();
    let index = nsg::build(&base, &NsgParams::tuned(4, 1));
    println!("built NSG in {:.2}s", t0.elapsed().as_secs_f64());

    // ...persist, and reload instantly.
    let path = std::env::temp_dir().join("weavess_example.wvss");
    save_index(&path, &index).expect("save");
    let t0 = std::time::Instant::now();
    let loaded = load_index(&path).expect("load");
    println!(
        "reloaded from {} in {:.3}s ({} KB on disk)",
        path.display(),
        t0.elapsed().as_secs_f64(),
        std::fs::metadata(&path).unwrap().len() / 1024
    );

    // Parallel batch search on the reloaded index.
    let engine = QueryEngine::with_options(
        &loaded,
        &base,
        EngineOptions {
            workers: 4,
            ..EngineOptions::default()
        },
    );
    let report = engine.search_batch(&queries, 10, 60);
    let ids: Vec<Vec<u32>> = report
        .results
        .iter()
        .map(|r| r.iter().map(|n| n.id).collect())
        .collect();
    println!(
        "batch of {} queries: Recall@10 {:.3}, {:.0} QPS aggregate, {} NDC total",
        queries.len(),
        mean_recall(&ids, &gt),
        report.qps(),
        report.stats.ndc
    );

    // Quantized routing: 4x smaller resident vectors, full-precision
    // rerank, codes fused next to the adjacency for one-chase expansions.
    let q_idx =
        QuantizedIndex::new(loaded.graph.clone(), &base, vec![base.medoid()]).with_fused_layout();
    let mut scratch = SearchScratch::new(base.len());
    let mut qstats = SearchStats::default();
    let mut full_evals = 0u64;
    let q_ids: Vec<Vec<u32>> = (0..queries.len() as u32)
        .map(|qi| {
            q_idx
                .search(
                    &base,
                    queries.point(qi),
                    10,
                    60,
                    &mut scratch,
                    &mut qstats,
                    &mut full_evals,
                )
                .iter()
                .map(|n| n.id)
                .collect()
        })
        .collect();
    let full_route = loaded.graph.memory_bytes() + base.memory_bytes();
    let split_route = loaded.graph.memory_bytes() + q_idx.codes_memory_bytes();
    println!(
        "quantized routing: Recall@10 {:.3}, graph+codes {:.1} MB split, {:.1} MB as the \
         fused arena (the only copy it keeps), vs {:.1} MB full precision",
        mean_recall(&q_ids, &gt),
        split_route as f64 / 1e6,
        q_idx.memory_bytes() as f64 / 1e6,
        full_route as f64 / 1e6
    );

    // Serial baseline for comparison.
    let mut ctx = SearchContext::new(base.len());
    let t0 = std::time::Instant::now();
    for qi in 0..queries.len() as u32 {
        loaded.search(&base, queries.point(qi), 10, 60, &mut ctx);
    }
    println!(
        "serial baseline: {:.0} QPS single-thread",
        queries.len() as f64 / t0.elapsed().as_secs_f64()
    );
}
