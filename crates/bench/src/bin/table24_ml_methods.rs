//! §5.5 + Appendix R — the ML-based optimizations: NSG+ML1 (learned
//! routing stand-in), HNSW+ML2 (learned early termination), NSG+ML3
//! (learned dimensionality reduction) against plain NSG, on SIFT100K /
//! GIST100K stand-ins (scaled):
//!
//! - **Tables 6 & 24** — index processing time (IPT) and extra memory
//!   consumption (MC);
//! - **Figures 9 & 19** — Speedup vs Recall@1 trade-off rows (ML1 is
//!   limited to k=1, so the paper reports Recall@1 here).

use weavess_bench::datasets::NamedDataset;
use weavess_bench::report::{banner, f, mb, Table};
use weavess_bench::{env_scale, env_threads};
use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::index::{AnnIndex, SearchContext};
use weavess_core::search::SearchScratch;
use weavess_data::metrics::recall;
use weavess_data::synthetic::MixtureSpec;
use weavess_ml::ml1;
use weavess_ml::ml2::{self, Ml2Params};
use weavess_ml::ml3;

const BEAMS: [usize; 4] = [10, 20, 40, 80];

fn main() {
    let scale = env_scale();
    let threads = env_threads();
    // SIFT100K / GIST100K stand-ins: real dims, low intrinsic dimension.
    let n = ((100_000.0 * scale * 10.0) as usize).clamp(2_000, 100_000);
    let sift = MixtureSpec {
        intrinsic_dim: Some(9),
        noise: 0.05,
        ..MixtureSpec::table10(128, n, 10, 5.0, 200)
    };
    let gist = MixtureSpec {
        intrinsic_dim: Some(19),
        noise: 0.05,
        ..MixtureSpec::table10(960, n / 4, 10, 5.0, 100)
    };
    let sets = vec![
        NamedDataset::from_spec("SIFT100K", &sift, threads),
        NamedDataset::from_spec("GIST100K", &gist, threads),
    ];
    banner(&format!("ML-based optimizations (n={n})"));

    let mut t24 = Table::new(vec!["Method", "Dataset", "IPT(s)", "MC(MB)"]);
    let mut fig19 = Table::new(vec!["Method", "Dataset", "beam", "Recall@1", "Speedup"]);

    for ds in &sets {
        let nsg_params = NsgParams::tuned(threads, 1);
        let t0 = std::time::Instant::now();
        let base = nsg::build(&ds.base, &nsg_params);
        let base_secs = t0.elapsed().as_secs_f64();
        let medoid = ds.base.medoid();
        let dsn = ds.base.len() as f64;

        // --- plain NSG baseline ---
        t24.row(vec![
            "NSG".to_string(),
            ds.name.clone(),
            f(base_secs, 1),
            mb(base.memory_bytes() + ds.base.memory_bytes()),
        ]);
        let mut ctx = SearchContext::new(ds.base.len());
        for &beam in &BEAMS {
            let mut r = 0.0;
            ctx.take_stats();
            for qi in 0..ds.queries.len() as u32 {
                let res = base.search(&ds.base, ds.queries.point(qi), 1, beam, &mut ctx);
                let ids: Vec<u32> = res.iter().map(|x| x.id).collect();
                r += recall(&ids, &ds.gt[qi as usize][..1]);
            }
            let stats = ctx.take_stats();
            fig19.row(vec![
                "NSG".to_string(),
                ds.name.clone(),
                beam.to_string(),
                f(r / ds.queries.len() as f64, 4),
                f(dsn / (stats.ndc as f64 / ds.queries.len() as f64), 1),
            ]);
        }

        // --- NSG + ML1 ---
        let m1 = ml1::optimize(&ds.base, base.graph.clone(), vec![medoid], 16);
        t24.row(vec![
            "NSG+ML1".to_string(),
            ds.name.clone(),
            f(base_secs + m1.preprocessing_secs, 1),
            mb(base.memory_bytes() + ds.base.memory_bytes() + m1.extra_memory_bytes()),
        ]);
        let mut scratch = SearchScratch::new(ds.base.len());
        for &beam in &BEAMS {
            let mut r = 0.0;
            let mut eff = 0.0;
            for qi in 0..ds.queries.len() as u32 {
                let (res, s) = m1.search(&ds.base, ds.queries.point(qi), 1, beam, &mut scratch);
                let ids: Vec<u32> = res.iter().map(|x| x.id).collect();
                r += recall(&ids, &ds.gt[qi as usize][..1]);
                eff += s.effective_ndc(16, ds.base.dim());
            }
            fig19.row(vec![
                "NSG+ML1".to_string(),
                ds.name.clone(),
                beam.to_string(),
                f(r / ds.queries.len() as f64, 4),
                f(dsn / (eff / ds.queries.len() as f64), 1),
            ]);
        }

        // --- HNSW + ML2 ---
        let t0 = std::time::Instant::now();
        let hnsw = weavess_core::algorithms::hnsw::build(
            &ds.base,
            &weavess_core::algorithms::hnsw::HnswParams::tuned(1, 1),
        );
        let hnsw_secs = t0.elapsed().as_secs_f64();
        // Train on a held-out half of the queries, evaluate on the rest.
        let half = ds.queries.len() / 2;
        let train = ds.queries.subset(&(0..half as u32).collect::<Vec<_>>());
        let m2 = ml2::optimize(
            &ds.base,
            hnsw.graph().clone(),
            vec![hnsw.enter_point()],
            &train,
            &Ml2Params::default(),
        );
        t24.row(vec![
            "HNSW+ML2".to_string(),
            ds.name.clone(),
            f(hnsw_secs + m2.training_secs, 1),
            mb(hnsw.memory_bytes() + ds.base.memory_bytes() + m2.extra_memory_bytes()),
        ]);
        for &beam in &BEAMS {
            let mut r = 0.0;
            let mut ndc = 0u64;
            let eval: Vec<u32> = (half as u32..ds.queries.len() as u32).collect();
            for &qi in &eval {
                let (res, n, _) = m2.search(&ds.base, ds.queries.point(qi), 1, beam, &mut scratch);
                let ids: Vec<u32> = res.iter().map(|x| x.id).collect();
                r += recall(&ids, &ds.gt[qi as usize][..1]);
                ndc += n;
            }
            fig19.row(vec![
                "HNSW+ML2".to_string(),
                ds.name.clone(),
                beam.to_string(),
                f(r / eval.len() as f64, 4),
                f(dsn / (ndc as f64 / eval.len() as f64), 1),
            ]);
        }

        // --- NSG + ML3 ---
        let m3 = ml3::optimize(&ds.base, 16, &nsg_params);
        t24.row(vec![
            "NSG+ML3".to_string(),
            ds.name.clone(),
            f(m3.preprocessing_secs, 1),
            mb(ds.base.memory_bytes() + m3.extra_memory_bytes()),
        ]);
        let mut mctx = m3.context();
        for &beam in &BEAMS {
            let mut r = 0.0;
            let mut eff = 0.0;
            for qi in 0..ds.queries.len() as u32 {
                let (res, re, fe) = m3.search(&ds.base, ds.queries.point(qi), 1, beam, &mut mctx);
                let ids: Vec<u32> = res.iter().map(|x| x.id).collect();
                r += recall(&ids, &ds.gt[qi as usize][..1]);
                eff += fe as f64 + re as f64 * 16.0 / ds.base.dim() as f64;
            }
            fig19.row(vec![
                "NSG+ML3".to_string(),
                ds.name.clone(),
                beam.to_string(),
                f(r / ds.queries.len() as f64, 4),
                f(dsn / (eff / ds.queries.len() as f64), 1),
            ]);
        }
        eprintln!("{} done", ds.name);
    }

    banner("Tables 6/24: index processing time and memory consumption");
    t24.print();
    t24.write_csv("table24_ml_methods").expect("csv");
    banner("Figures 9/19: Speedup vs Recall@1");
    fig19.print();
    fig19.write_csv("fig19_ml_curves").expect("csv");
}
