//! Absolute pins for the three ML indexes' searches: results (ids and
//! distance bits) and the counters each search returns, over a sweep of
//! `k` and `beam`, plus ML2's trained model predictions on held-out
//! queries (which pins the training features and targets it was fit on).
//!
//! The data are float mixtures, so distances differ across kernel tiers
//! by reassociation: each pin is one constant per tier, and CI's
//! `kernel-matrix` job runs this file under every tier.

use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::index::SearchContext;
use weavess_core::search::SearchScratch;
use weavess_data::ground_truth::knn_scan;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::{Dataset, KernelTier, Neighbor};
use weavess_ml::{ml1, ml2, ml3};

const KS: [usize; 2] = [1, 10];
const BEAMS: [usize; 5] = [10, 20, 40, 60, 100];

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds one query's answer and counters into `digest`.
fn fold(digest: &mut u64, res: &[Neighbor], counters: &[u64]) {
    fnv1a(digest, &(res.len() as u32).to_le_bytes());
    for n in res {
        fnv1a(digest, &n.id.to_le_bytes());
        fnv1a(digest, &n.dist.to_bits().to_le_bytes());
    }
    for c in counters {
        fnv1a(digest, &c.to_le_bytes());
    }
}

fn golden_for_tier([scalar, unrolled, simd]: [u64; 3]) -> u64 {
    match KernelTier::active() {
        KernelTier::Scalar => scalar,
        KernelTier::Unrolled => unrolled,
        KernelTier::Simd => simd,
    }
}

/// A 2 000 x 32 mixture of intrinsic dimension 8, 60 queries: the first
/// 30 train ML2, the last 30 are searched.
fn setup() -> (Dataset, Dataset, Dataset, weavess_core::index::FlatIndex) {
    let (ds, qs) = MixtureSpec {
        intrinsic_dim: Some(8),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(32, 2_000, 4, 5.0, 60)
    }
    .generate();
    let train = qs.subset(&(0..30u32).collect::<Vec<_>>());
    let test = qs.subset(&(30..60u32).collect::<Vec<_>>());
    let idx = nsg::build(&ds, &NsgParams::tuned(2, 1));
    (ds, train, test, idx)
}

fn check(what: &str, got: u64, golden: [u64; 3]) {
    let want = golden_for_tier(golden);
    assert_eq!(got, want, "{what}: {got:#018x} != golden {want:#018x}");
}

#[test]
fn ml1_search_is_pinned() {
    let (ds, _, test, idx) = setup();
    let m1 = ml1::optimize(&ds, idx.graph.clone(), vec![ds.medoid()], 12);
    let mut scratch = SearchScratch::new(ds.len());
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for k in KS {
        for beam in [4].into_iter().chain(BEAMS) {
            for qi in 0..test.len() as u32 {
                let (res, s) = m1.search(&ds, test.point(qi), k, beam, &mut scratch);
                fold(&mut digest, &res, &[s.compressed_evals, s.full_evals]);
            }
        }
    }
    check(
        "ML1",
        digest,
        [
            0x3f27_247c_e771_9f85,
            0x3280_3ba5_c06e_25b7,
            0xeff7_b677_728a_6fb2,
        ],
    );
}

#[test]
fn ml2_search_and_predictions_are_pinned() {
    let (ds, train, test, idx) = setup();
    let m2 = ml2::optimize(
        &ds,
        idx.graph.clone(),
        vec![ds.medoid()],
        &train,
        &ml2::Ml2Params::default(),
    );
    // The model on held-out probes: the checkpoint features' layout
    // (d1, d10, dlast, d1/d10, d10/dlast, hops) read off exact k-NN lists.
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for qi in 0..test.len() as u32 {
        let nn = knn_scan(&ds, test.point(qi), 60, None);
        let (d1, dk, dlast) = (nn[0].dist, nn[9].dist, nn[59].dist);
        for hops in [10.0, 30.0] {
            let p = m2
                .model()
                .predict(&[d1, dk, dlast, d1 / dk, dk / dlast, hops]);
            fnv1a(&mut digest, &p.to_bits().to_le_bytes());
        }
    }
    check(
        "ML2 predictions",
        digest,
        [
            0x3d22_9f6b_fa07_4d29,
            0x3d22_9f6b_fa07_4d29,
            0x3d22_9f6b_fa07_4d29,
        ],
    );
    let mut scratch = SearchScratch::new(ds.len());
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for k in KS {
        for beam in BEAMS {
            for qi in 0..test.len() as u32 {
                let (res, ndc, hops) = m2.search(&ds, test.point(qi), k, beam, &mut scratch);
                fold(&mut digest, &res, &[ndc, hops]);
            }
        }
    }
    check(
        "ML2 search",
        digest,
        [
            0x95e0_cd88_c8d1_c69d,
            0x4ce5_6ec2_4b02_6bb6,
            0xdf98_c39d_98a5_9ecb,
        ],
    );
}

#[test]
fn ml3_search_is_pinned() {
    let (ds, _, test, _) = setup();
    let m3 = ml3::optimize(&ds, 12, &NsgParams::tuned(2, 1));
    let mut ctx = SearchContext::new(ds.len());
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for k in KS {
        for beam in [4].into_iter().chain(BEAMS) {
            for qi in 0..test.len() as u32 {
                let (res, reduced, full) = m3.search(&ds, test.point(qi), k, beam, &mut ctx);
                let s = ctx.take_stats();
                fold(
                    &mut digest,
                    &res,
                    &[reduced, full, s.ndc, s.hops, s.pool_peak],
                );
            }
        }
    }
    check(
        "ML3",
        digest,
        [
            0x1931_8f1f_e94b_db09,
            0x8634_a378_c3e3_c99b,
            0x2787_d5d2_15a1_c54a,
        ],
    );
}
