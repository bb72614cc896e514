//! Integration: the §5.5 ML optimizations wrap base indexes through the
//! public API and reproduce the paper's qualitative trade-off — better
//! efficiency at the same recall, for extra preprocessing and memory.

use weavess::core::algorithms::nsg::{self, NsgParams};
use weavess::core::index::{AnnIndex, SearchContext};
use weavess::core::search::SearchScratch;
use weavess::data::ground_truth::ground_truth;
use weavess::data::metrics::recall;
use weavess::data::synthetic::MixtureSpec;
use weavess::data::Dataset;
use weavess::ml::{ml1, ml2, ml3};

fn dataset() -> (Dataset, Dataset) {
    MixtureSpec {
        intrinsic_dim: Some(8),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(48, 2_000, 4, 5.0, 60)
    }
    .generate()
}

#[test]
fn ml1_and_ml3_cut_effective_ndc_at_high_recall() {
    let (base, queries) = dataset();
    let gt = ground_truth(&base, &queries, 1, 2);
    let nsg_params = NsgParams::tuned(2, 1);
    let base_idx = nsg::build(&base, &nsg_params);
    let nq = queries.len() as f64;

    // Baseline NDC at beam 40.
    let mut ctx = SearchContext::new(base.len());
    let mut r_base = 0.0;
    for qi in 0..queries.len() as u32 {
        let res = base_idx.search(&base, queries.point(qi), 1, 40, &mut ctx);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        r_base += recall(&ids, &gt[qi as usize][..1]);
    }
    let base_ndc = ctx.stats.ndc as f64 / nq;

    // ML1.
    let m1 = ml1::optimize(&base, base_idx.graph.clone(), vec![base.medoid()], 12);
    let mut scratch = SearchScratch::new(base.len());
    let (mut r1, mut eff1) = (0.0, 0.0);
    for qi in 0..queries.len() as u32 {
        let (res, s) = m1.search(&base, queries.point(qi), 1, 40, &mut scratch);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        r1 += recall(&ids, &gt[qi as usize][..1]);
        eff1 += s.effective_ndc(12, base.dim());
    }
    assert!(eff1 / nq < base_ndc, "ml1 {} !< {}", eff1 / nq, base_ndc);
    assert!(r1 / nq > r_base / nq - 0.1);
    assert!(m1.extra_memory_bytes() > 0);

    // ML3.
    let m3 = ml3::optimize(&base, 12, &nsg_params);
    let mut mctx = m3.context();
    let (mut r3, mut eff3) = (0.0, 0.0);
    for qi in 0..queries.len() as u32 {
        let (res, re, fe) = m3.search(&base, queries.point(qi), 1, 40, &mut mctx);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        r3 += recall(&ids, &gt[qi as usize][..1]);
        eff3 += fe as f64 + re as f64 * 12.0 / base.dim() as f64;
    }
    assert!(eff3 / nq < base_ndc, "ml3 {} !< {}", eff3 / nq, base_ndc);
    assert!(r3 / nq > r_base / nq - 0.1);
}

#[test]
fn ml2_terminates_early_without_collapsing_recall() {
    let (base, queries) = dataset();
    let gt = ground_truth(&base, &queries, 1, 2);
    let base_idx = nsg::build(&base, &NsgParams::tuned(2, 1));
    let half = queries.len() / 2;
    let train = queries.subset(&(0..half as u32).collect::<Vec<_>>());
    let m2 = ml2::optimize(
        &base,
        base_idx.graph.clone(),
        vec![base.medoid()],
        &train,
        &ml2::Ml2Params::default(),
    );

    let mut ctx = SearchContext::new(base.len());
    let mut scratch = SearchScratch::new(base.len());
    let eval: Vec<u32> = (half as u32..queries.len() as u32).collect();
    let (mut r_base, mut r_ml2) = (0.0, 0.0);
    let mut ndc_ml2 = 0u64;
    for &qi in &eval {
        let res = base_idx.search(&base, queries.point(qi), 1, 60, &mut ctx);
        let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
        r_base += recall(&ids, &gt[qi as usize][..1]);
        let (res2, ndc, _) = m2.search(&base, queries.point(qi), 1, 60, &mut scratch);
        let ids2: Vec<u32> = res2.iter().map(|n| n.id).collect();
        r_ml2 += recall(&ids2, &gt[qi as usize][..1]);
        ndc_ml2 += ndc;
    }
    assert!(
        ndc_ml2 < ctx.stats.ndc,
        "ml2 {ndc_ml2} !< base {}",
        ctx.stats.ndc
    );
    let n = eval.len() as f64;
    assert!(r_ml2 / n > r_base / n - 0.2, "{r_ml2} vs {r_base}");
}
