//! Property tests for the data substrate.

use proptest::prelude::*;
use weavess_data::distance::{
    cosine_angle_at, euclidean, scalar, simd, squared_euclidean, unrolled,
};
use weavess_data::metrics::{lid_mle, recall};
use weavess_data::neighbor::{insert_into_pool, Neighbor};
use weavess_data::Dataset;

proptest! {
    /// Squared Euclidean is a symmetric, non-negative form with zero
    /// self-distance, and agrees with the rooted version.
    #[test]
    fn distance_axioms(
        a in prop::collection::vec(-100.0f32..100.0, 1..64),
        b_seed in 0u64..1000,
    ) {
        let b: Vec<f32> = a
            .iter()
            .enumerate()
            .map(|(i, &x)| x + ((b_seed.wrapping_add(i as u64) % 17) as f32 - 8.0))
            .collect();
        let d = squared_euclidean(&a, &b);
        prop_assert!(d >= 0.0);
        prop_assert_eq!(d, squared_euclidean(&b, &a));
        prop_assert_eq!(squared_euclidean(&a, &a), 0.0);
        prop_assert!((euclidean(&a, &b) - d.sqrt()).abs() < 1e-3);
    }

    /// The triangle inequality holds for the true Euclidean distance.
    #[test]
    fn triangle_inequality(
        vals in prop::collection::vec(-50.0f32..50.0, 6..48),
    ) {
        let dim = vals.len() / 3;
        let (a, rest) = vals.split_at(dim);
        let (b, c) = rest.split_at(dim);
        let c = &c[..dim];
        let ab = euclidean(a, b);
        let bc = euclidean(b, c);
        let ac = euclidean(a, &c[..dim]);
        prop_assert!(ac <= ab + bc + 1e-3, "{ac} > {ab} + {bc}");
    }

    /// Cosine of an angle is always within [-1, 1].
    #[test]
    fn cosine_is_bounded(
        p in prop::collection::vec(-10.0f32..10.0, 4),
        a in prop::collection::vec(-10.0f32..10.0, 4),
        b in prop::collection::vec(-10.0f32..10.0, 4),
    ) {
        let c = cosine_angle_at(&p, &a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
    }

    /// The bounded pool is always sorted, deduplicated, and within
    /// capacity, and keeps the globally smallest entries seen.
    #[test]
    fn pool_invariants(
        entries in prop::collection::vec((0u32..64, 0.0f32..100.0), 1..80),
        cap in 1usize..12,
    ) {
        let mut pool: Vec<Neighbor> = Vec::new();
        for &(id, d) in &entries {
            insert_into_pool(&mut pool, cap, Neighbor::new(id, d));
        }
        prop_assert!(pool.len() <= cap);
        prop_assert!(pool.windows(2).all(|w| w[0] < w[1]));
        // No (id, dist) duplicates.
        for i in 0..pool.len() {
            for j in (i + 1)..pool.len() {
                prop_assert!(pool[i] != pool[j]);
            }
        }
        // The head is the global minimum of everything inserted.
        let min = entries
            .iter()
            .map(|&(id, d)| Neighbor::new(id, d))
            .min()
            .unwrap();
        prop_assert_eq!(pool[0], min);
    }

    /// Recall is within [0, 1] and equals 1 on identical sets.
    #[test]
    fn recall_bounds(
        truth in prop::collection::hash_set(0u32..1000, 1..20),
    ) {
        let truth: Vec<u32> = truth.into_iter().collect();
        let r = recall(&truth, &truth);
        prop_assert_eq!(r, 1.0);
        let empty: Vec<u32> = Vec::new();
        let r0 = recall(&empty, &truth);
        prop_assert_eq!(r0, 0.0);
    }

    /// The LID estimator is positive on strictly increasing distances.
    #[test]
    fn lid_positive_on_increasing_distances(
        start in 0.1f32..2.0,
        steps in prop::collection::vec(0.01f32..1.0, 3..40),
    ) {
        let mut d = start;
        let dists: Vec<f32> = steps
            .iter()
            .map(|&s| {
                d += s;
                d
            })
            .collect();
        let lid = lid_mle(&dists).unwrap();
        prop_assert!(lid > 0.0, "lid={lid}");
    }

    /// The unrolled kernels agree with the scalar reference within a
    /// 1e-4 relative tolerance, at every dimension shape (pure tail,
    /// chunk boundary, chunks + tail): dims 1, 3, 17, 100 are all hit by
    /// the 1..128 range.
    #[test]
    fn kernel_flavors_agree(
        a in prop::collection::vec(-100.0f32..100.0, 1..128),
        shift in -8.0f32..8.0,
    ) {
        let b: Vec<f32> = a.iter().map(|&x| x * 0.9 + shift).collect();
        let tol = |x: f32, y: f32| (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0);
        prop_assert!(
            tol(scalar::squared_euclidean(&a, &b), unrolled::squared_euclidean(&a, &b)),
            "squared_euclidean diverged at dim {}", a.len()
        );
        prop_assert!(
            tol(scalar::dot(&a, &b), unrolled::dot(&a, &b)),
            "dot diverged at dim {}", a.len()
        );
    }

    /// Unrolled `cosine_angle_at` agrees with the scalar reference.
    #[test]
    fn cosine_kernel_flavors_agree(
        p in prop::collection::vec(-10.0f32..10.0, 1..100),
        seed in 0u64..1000,
    ) {
        let a: Vec<f32> = p.iter().enumerate()
            .map(|(i, &x)| x + ((seed.wrapping_add(i as u64) % 13) as f32 - 6.0))
            .collect();
        let b: Vec<f32> = p.iter().enumerate()
            .map(|(i, &x)| x - ((seed.wrapping_mul(3).wrapping_add(i as u64) % 11) as f32 - 5.0))
            .collect();
        let cs = scalar::cosine_angle_at(&p, &a, &b);
        let cu = unrolled::cosine_angle_at(&p, &a, &b);
        prop_assert!((cs - cu).abs() <= 1e-4, "{cs} vs {cu} at dim {}", p.len());
    }

    /// Exercise the named odd dimensions explicitly: 1, 3, 17, 100.
    #[test]
    fn kernel_flavors_agree_at_odd_dims(
        seed in 0u64..10_000,
    ) {
        for dim in [1usize, 3, 17, 100] {
            let a: Vec<f32> = (0..dim)
                .map(|i| ((seed.wrapping_add(i as u64 * 37) % 200) as f32 - 100.0) * 0.5)
                .collect();
            let b: Vec<f32> = (0..dim)
                .map(|i| ((seed.wrapping_mul(7).wrapping_add(i as u64 * 11) % 200) as f32 - 100.0) * 0.5)
                .collect();
            let ds = scalar::squared_euclidean(&a, &b);
            let du = unrolled::squared_euclidean(&a, &b);
            prop_assert!(
                (ds - du).abs() <= 1e-4 * ds.abs().max(1.0),
                "dim {dim}: {ds} vs {du}"
            );
        }
    }

    /// `dist_to_many` equals element-wise `dist_to` exactly (bit-equal):
    /// the batch path runs the same dispatched kernel per point.
    #[test]
    fn dist_to_many_matches_dist_to_exactly(
        n in 1usize..40,
        dim in 1usize..48,
        qseed in 0u64..1000,
    ) {
        let flat: Vec<f32> = (0..n * dim).map(|i| (i as f32 * 0.37).sin() * 10.0).collect();
        let ds = Dataset::from_flat(flat, n, dim);
        let q: Vec<f32> = (0..dim)
            .map(|i| ((qseed.wrapping_add(i as u64) % 41) as f32 - 20.0) * 0.7)
            .collect();
        // Ids in arbitrary (non-contiguous, repeating) order.
        let ids: Vec<u32> = (0..n as u32).rev().chain(0..n as u32 / 2).collect();
        let mut out = Vec::new();
        ds.dist_to_many(&q, &ids, &mut out);
        prop_assert_eq!(out.len(), ids.len());
        for (&i, &d) in ids.iter().zip(out.iter()) {
            // Bit-exact, not approximate: same kernel, same inputs.
            prop_assert_eq!(d.to_bits(), ds.dist_to(&q, i).to_bits(), "id {}", i);
        }
    }

    /// The simd kernels agree with both scalar and unrolled within a
    /// 1e-4 relative tolerance across the 1..128 dim range (pure tail,
    /// one lane, lanes + tail). On hosts without AVX2+FMA the simd
    /// wrappers fall back to unrolled, so the property still holds.
    #[test]
    fn simd_kernels_agree_with_scalar_and_unrolled(
        a in prop::collection::vec(-100.0f32..100.0, 1..128),
        shift in -8.0f32..8.0,
    ) {
        let b: Vec<f32> = a.iter().map(|&x| x * 0.9 + shift).collect();
        let tol = |x: f32, y: f32| (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0);
        let dv = simd::squared_euclidean(&a, &b);
        prop_assert!(
            tol(dv, scalar::squared_euclidean(&a, &b))
                && tol(dv, unrolled::squared_euclidean(&a, &b)),
            "squared_euclidean diverged at dim {}", a.len()
        );
        let pv = simd::dot(&a, &b);
        prop_assert!(
            tol(pv, scalar::dot(&a, &b)) && tol(pv, unrolled::dot(&a, &b)),
            "dot diverged at dim {}", a.len()
        );
        let c: Vec<f32> = a.iter().map(|&x| x * -0.5 + 1.0).collect();
        let cv = simd::cosine_angle_at(&a, &b, &c);
        let cs = scalar::cosine_angle_at(&a, &b, &c);
        prop_assert!(
            cv.is_nan() && cs.is_nan() || (cv - cs).abs() <= 1e-4,
            "cosine diverged at dim {}: {} vs {}", a.len(), cv, cs
        );
    }

    /// Simd agreement survives unaligned slice starts: AVX2 loads are
    /// issued with `loadu`, so sub-32-byte offsets must not change the
    /// contract. Slices carved at offsets 0..=4 from a shared buffer.
    #[test]
    fn simd_kernels_agree_at_unaligned_offsets(
        buf in prop::collection::vec(-50.0f32..50.0, 40..160),
        off in 0usize..5,
    ) {
        let half = buf.len() / 2;
        prop_assume!(off < half);
        let a = &buf[off..half];
        let b = &buf[half + off..half + off + a.len()];
        let tol = |x: f32, y: f32| (x - y).abs() <= 1e-4 * x.abs().max(y.abs()).max(1.0);
        prop_assert!(
            tol(simd::squared_euclidean(a, b), scalar::squared_euclidean(a, b)),
            "squared_euclidean diverged at offset {off}, dim {}", a.len()
        );
        prop_assert!(
            tol(simd::dot(a, b), scalar::dot(a, b)),
            "dot diverged at offset {off}, dim {}", a.len()
        );
    }

    /// Simd agreement at the named odd dims plus sub-lane widths
    /// (1..8 floats never fill one AVX2 lane; the wrapper must take the
    /// scalar tail path and stay bit-equal to scalar there).
    #[test]
    fn simd_kernels_agree_at_odd_dims(
        seed in 0u64..10_000,
    ) {
        for dim in [1usize, 2, 3, 5, 7, 8, 9, 15, 17, 31, 33, 100] {
            let a: Vec<f32> = (0..dim)
                .map(|i| ((seed.wrapping_add(i as u64 * 37) % 200) as f32 - 100.0) * 0.5)
                .collect();
            let b: Vec<f32> = (0..dim)
                .map(|i| ((seed.wrapping_mul(7).wrapping_add(i as u64 * 11) % 200) as f32 - 100.0) * 0.5)
                .collect();
            let ds = scalar::squared_euclidean(&a, &b);
            let dv = simd::squared_euclidean(&a, &b);
            prop_assert!(
                (ds - dv).abs() <= 1e-4 * ds.abs().max(1.0),
                "dim {dim}: {ds} vs {dv}"
            );
            if dim < 8 {
                // Below one lane the simd wrapper is the scalar tail:
                // bit-equal, not merely close.
                prop_assert_eq!(ds.to_bits(), dv.to_bits(), "sub-lane dim {}", dim);
            }
        }
    }

    /// Subsetting a dataset preserves the selected rows exactly.
    #[test]
    fn subset_preserves_rows(
        n in 2usize..30,
        dim in 1usize..8,
        pick_seed in 0u64..100,
    ) {
        let flat: Vec<f32> = (0..n * dim).map(|i| (i as f32).sin()).collect();
        let ds = Dataset::from_flat(flat, n, dim);
        let ids: Vec<u32> = (0..n as u32).filter(|i| (i + pick_seed as u32).is_multiple_of(3)).collect();
        prop_assume!(!ids.is_empty());
        let sub = ds.subset(&ids);
        for (j, &i) in ids.iter().enumerate() {
            prop_assert_eq!(sub.point(j as u32), ds.point(i));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The worst-entry early reject never changes an outcome: against the
    /// binary-search-only insertion it fronts, pools and returned positions
    /// stay equal step by step — from a palette that makes ties, exact
    /// duplicates and inserts equal to the worst entry common, and
    /// starting from a pool already longer than `capacity`.
    #[test]
    fn pool_early_reject_matches_binary_search_only(
        start in prop::collection::vec((0u32..4, 0usize..8), 0..12),
        entries in prop::collection::vec((0u32..4, 0usize..8), 1..60),
        cap in 1usize..8,
    ) {
        const DISTS: [f32; 8] =
            [0.0, -0.0, 0.5, 1.0, 2.0, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        fn search_only(pool: &mut Vec<Neighbor>, capacity: usize, n: Neighbor) -> Option<usize> {
            let pos = pool.partition_point(|x| x < &n);
            if (pos < pool.len() && pool[pos] == n) || pos >= capacity {
                return None;
            }
            pool.insert(pos, n);
            pool.truncate(capacity);
            Some(pos)
        }
        let bits = |p: &[Neighbor]| -> Vec<(u32, u32)> {
            p.iter().map(|n| (n.id, n.dist.to_bits())).collect()
        };
        let mut fast: Vec<Neighbor> =
            start.iter().map(|&(id, d)| Neighbor::new(id, DISTS[d])).collect();
        fast.sort();
        let mut slow = fast.clone();
        for &(id, d) in &entries {
            let n = Neighbor::new(id, DISTS[d]);
            prop_assert_eq!(
                insert_into_pool(&mut fast, cap, n),
                search_only(&mut slow, cap, n),
                "insert {:?}", n
            );
            prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }
}
