//! Domain scenario: accelerate an image-feature workload (SIFT-like) with
//! the ML-based optimizations of §5.5 — and see their preprocessing/memory
//! price, the paper's Table 6/24 trade-off.
//!
//! ```sh
//! cargo run --release --example ml_accelerated
//! ```

use weavess::core::algorithms::nsg::{self, NsgParams};
use weavess::core::index::{AnnIndex, SearchContext};
use weavess::core::search::SearchScratch;
use weavess::data::ground_truth::ground_truth;
use weavess::data::metrics::recall;
use weavess::data::synthetic::MixtureSpec;
use weavess::ml::{ml1, ml3};

fn main() {
    // SIFT-like image features: dim 128, intrinsic dimension ~9.
    let spec = MixtureSpec {
        intrinsic_dim: Some(9),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(128, 8_000, 8, 5.0, 200)
    };
    let (base, queries) = spec.generate();
    let gt = ground_truth(&base, &queries, 1, 4);
    let nq = queries.len() as f64;

    // Baseline NSG.
    let t0 = std::time::Instant::now();
    let base_idx = nsg::build(&base, &NsgParams::tuned(4, 1));
    let base_build = t0.elapsed().as_secs_f64();
    let mut ctx = SearchContext::new(base.len());
    let mut r = 0.0;
    for qi in 0..queries.len() as u32 {
        let res = base_idx.search(&base, queries.point(qi), 1, 40, &mut ctx);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        r += recall(&ids, &gt[qi as usize][..1]);
    }
    let stats = ctx.take_stats();
    println!(
        "NSG      : build {base_build:.1}s | Recall@1 {:.3} | {:.0} NDC/query",
        r / nq,
        stats.ndc as f64 / nq
    );

    // ML1: routing over PCA-compressed vectors with full rerank.
    let m1 = ml1::optimize(&base, base_idx.graph.clone(), vec![base.medoid()], 16);
    let mut scratch = SearchScratch::new(base.len());
    let mut r = 0.0;
    let mut eff = 0.0;
    for qi in 0..queries.len() as u32 {
        let (res, s) = m1.search(&base, queries.point(qi), 1, 40, &mut scratch);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        r += recall(&ids, &gt[qi as usize][..1]);
        eff += s.effective_ndc(16, base.dim());
    }
    println!(
        "NSG+ML1  : +{:.1}s preprocessing, +{:.1} MB | Recall@1 {:.3} | {:.0} effective NDC/query",
        m1.preprocessing_secs,
        m1.extra_memory_bytes() as f64 / 1e6,
        r / nq,
        eff / nq
    );

    // ML3: search in a learned (PCA) low-dimensional space, rerank.
    let m3 = ml3::optimize(&base, 16, &NsgParams::tuned(4, 1));
    let mut mctx = m3.context();
    let mut r = 0.0;
    let mut eff = 0.0;
    for qi in 0..queries.len() as u32 {
        let (res, re, fe) = m3.search(&base, queries.point(qi), 1, 40, &mut mctx);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        r += recall(&ids, &gt[qi as usize][..1]);
        eff += fe as f64 + re as f64 * 16.0 / base.dim() as f64;
    }
    println!(
        "NSG+ML3  : {:.1}s preprocessing, +{:.1} MB | Recall@1 {:.3} | {:.0} effective NDC/query",
        m3.preprocessing_secs,
        m3.extra_memory_bytes() as f64 / 1e6,
        r / nq,
        eff / nq
    );
    println!("\n(the paper's §5.5 conclusion: ML add-ons improve the trade-off but\n cost preprocessing time and memory — visible above at miniature scale)");
}
