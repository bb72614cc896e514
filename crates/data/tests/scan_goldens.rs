//! Absolute digests of weavess-data's parallel scans: `Dataset::centroid`
//! and `Dataset::medoid`, `ground_truth`, `exact_knn_graph` and
//! `dataset_lid`.
//!
//! The base set spans three of the scans' 8 192-row work chunks, so the
//! chunked partial sums and minima are folded across chunks, and every
//! scan runs at 0 ("all cores"), 1, 2, 3 and 8 threads. One digest per
//! kernel tier covers them all; it was recorded before the scans moved
//! onto the shared worker pool and must hold unedited. CI runs this file
//! under every `WEAVESS_KERNEL` tier and on one CPU.

use weavess_data::ground_truth::{exact_knn_graph, ground_truth};
use weavess_data::metrics::dataset_lid;
use weavess_data::synthetic::MixtureSpec;
use weavess_data::KernelTier;

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn ids(digest: &mut u64, rows: &[Vec<u32>]) {
    for row in rows {
        fnv1a(digest, &(row.len() as u32).to_le_bytes());
        for id in row {
            fnv1a(digest, &id.to_le_bytes());
        }
    }
}

/// `(scalar, unrolled, simd)`.
const GOLDEN: (u64, u64, u64) = (0xbc5295dd5303310c, 0xf3e96dea1c5baf13, 0x3acbc3977c2d329d);

#[test]
fn scans_are_pinned_at_every_thread_count() {
    let (base, queries) = MixtureSpec::table10(16, 20_000, 10, 3.0, 48)
        .with_seed(44)
        .generate();
    // The exact KNNG is quadratic; a prefix keeps it to a few seconds in
    // a debug build while still spanning many row chunks.
    let head = base.subset(&(0..1_500).collect::<Vec<u32>>());
    let want = match KernelTier::active() {
        KernelTier::Scalar => GOLDEN.0,
        KernelTier::Unrolled => GOLDEN.1,
        KernelTier::Simd => GOLDEN.2,
    };
    for threads in [0, 1, 2, 3, 8] {
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        for x in base.centroid() {
            fnv1a(&mut digest, &x.to_bits().to_le_bytes());
        }
        fnv1a(&mut digest, &base.medoid().to_le_bytes());
        ids(&mut digest, &ground_truth(&base, &queries, 10, threads));
        ids(&mut digest, &exact_knn_graph(&head, 10, threads));
        let lid = dataset_lid(&base, 20, 100, threads);
        assert!(lid > 1.0, "a degenerate LID pins nothing: {lid}");
        fnv1a(&mut digest, &lid.to_bits().to_le_bytes());
        assert_eq!(
            digest,
            want,
            "threads={threads} tier={:?}: got {digest:#018x}",
            KernelTier::active()
        );
    }
}
