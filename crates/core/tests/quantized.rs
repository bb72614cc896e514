//! Absolute pins for [`QuantizedIndex::search`] — SQ8 routing over the
//! split codes and over the fused arena, then the full-vector rerank:
//! results (ids and distance bits) and every counter it returns, over a
//! sweep of `k` and `beam`.
//!
//! The data are float mixtures, so distances differ across kernel tiers
//! by reassociation: each pin is one constant per tier, and CI's
//! `kernel-matrix` job runs this file under every tier.

use weavess_core::algorithms::nsg::{self, NsgParams};
use weavess_core::quantized::QuantizedIndex;
use weavess_core::search::{SearchScratch, SearchStats};
use weavess_data::synthetic::MixtureSpec;
use weavess_data::KernelTier;

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn golden_for_tier([scalar, unrolled, simd]: [u64; 3]) -> u64 {
    match KernelTier::active() {
        KernelTier::Scalar => scalar,
        KernelTier::Unrolled => unrolled,
        KernelTier::Simd => simd,
    }
}

#[test]
fn split_and_fused_searches_are_pinned() {
    let (ds, qs) = MixtureSpec {
        intrinsic_dim: Some(8),
        noise: 0.05,
        shared_subspace: true,
        ..MixtureSpec::table10(32, 2_000, 4, 5.0, 40)
    }
    .generate();
    let idx = nsg::build(&ds, &NsgParams::tuned(2, 1));
    let split = QuantizedIndex::new(idx.graph.clone(), &ds, vec![ds.medoid()]);
    let fused = QuantizedIndex::new(idx.graph.clone(), &ds, vec![ds.medoid()]).with_fused_layout();
    let mut scratch = SearchScratch::new(ds.len());
    for (what, index, golden) in [
        (
            "split",
            &split,
            [
                0x1f67_d480_05a8_c8d6,
                0x9010_e3ed_f4ea_e5ba,
                0x4f95_d0c4_daf1_e751,
            ],
        ),
        (
            "fused",
            &fused,
            [
                0x1f67_d480_05a8_c8d6,
                0x9010_e3ed_f4ea_e5ba,
                0x4f95_d0c4_daf1_e751,
            ],
        ),
    ] {
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for k in [1, 10] {
            for beam in [4, 10, 20, 40, 60, 100] {
                for qi in 0..qs.len() as u32 {
                    let mut stats = SearchStats::default();
                    let mut full_evals = 0u64;
                    let res = index.search(
                        &ds,
                        qs.point(qi),
                        k,
                        beam,
                        &mut scratch,
                        &mut stats,
                        &mut full_evals,
                    );
                    fnv1a(&mut digest, &(res.len() as u32).to_le_bytes());
                    for n in &res {
                        fnv1a(&mut digest, &n.id.to_le_bytes());
                        fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
                    }
                    for c in [stats.ndc, stats.hops, stats.pool_peak, full_evals] {
                        fnv1a(&mut digest, &c.to_le_bytes());
                    }
                }
            }
        }
        let want = golden_for_tier(golden);
        assert_eq!(
            digest, want,
            "{what}: {digest:#018x} != golden {want:#018x}"
        );
    }
}
