//! Forced-tier dispatch test: proves [`KernelTier::force`] reaches every
//! public scoring entry point — the free distance functions, the
//! `Dataset` batch seam (inherent and through `VectorView`), SQ8
//! asymmetric scoring (single and batch), and PQ ADC lookups.
//!
//! The kernel tier is process-wide state, so every assertion lives in
//! ONE `#[test]` in its OWN test binary: the libtest harness runs tests
//! within a binary in parallel, and a second test here could observe a
//! tier mid-force.

use weavess_data::distance::{self, scalar, simd, unrolled, KernelTier};
use weavess_data::pq::PqDataset;
use weavess_data::prefetch::{prefetch_enabled, set_prefetch_enabled};
use weavess_data::quant::{sq8_distance, sq8_kernels, Sq8Dataset};
use weavess_data::synthetic::MixtureSpec;
use weavess_data::VectorView;

/// Reference implementation of the dispatched `squared_euclidean` for a
/// given tier, bypassing the dispatcher.
fn direct_sq_eucl(tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
    match tier {
        KernelTier::Scalar => scalar::squared_euclidean(a, b),
        KernelTier::Unrolled => unrolled::squared_euclidean(a, b),
        KernelTier::Simd => simd::squared_euclidean(a, b),
    }
}

fn direct_dot(tier: KernelTier, a: &[f32], b: &[f32]) -> f32 {
    match tier {
        KernelTier::Scalar => scalar::dot(a, b),
        KernelTier::Unrolled => unrolled::dot(a, b),
        KernelTier::Simd => simd::dot(a, b),
    }
}

fn direct_cosine(tier: KernelTier, p: &[f32], a: &[f32], b: &[f32]) -> f32 {
    match tier {
        KernelTier::Scalar => scalar::cosine_angle_at(p, a, b),
        KernelTier::Unrolled => unrolled::cosine_angle_at(p, a, b),
        KernelTier::Simd => simd::cosine_angle_at(p, a, b),
    }
}

fn direct_sq8(tier: KernelTier, residual: &[f32], step: &[f32], codes: &[u8]) -> f32 {
    match tier {
        KernelTier::Scalar => sq8_kernels::scalar(residual, step, codes),
        KernelTier::Unrolled => sq8_kernels::unrolled(residual, step, codes),
        KernelTier::Simd => sq8_kernels::simd(residual, step, codes),
    }
}

#[test]
fn forced_tier_reaches_every_public_entry_point() {
    let initial = KernelTier::active();
    let initial_prefetch = prefetch_enabled();

    // Dim 96 exercises full lanes; the mixture gives non-trivial data.
    let (ds, qs) = MixtureSpec::table10(96, 400, 3, 5.0, 4).generate();
    let sq = Sq8Dataset::quantize(&ds);
    let pq = PqDataset::train(&ds, 8, 256);
    let ids: Vec<u32> = (0..ds.len() as u32).step_by(7).collect();

    // dist_with under scalar and unrolled both run the serial ADC walk;
    // record the scalar-tier values to compare tiers against below.
    let mut adc_by_tier: Vec<Vec<f32>> = Vec::new();

    for tier in KernelTier::ALL {
        if !tier.is_available() {
            // Off-AVX2 hosts: Simd must refuse to force, not fall back
            // silently — silent fallback would let a CI matrix think it
            // covered a tier it never ran.
            assert!(
                KernelTier::force(tier).is_err(),
                "{tier} forced while unavailable"
            );
            continue;
        }
        KernelTier::force(tier).unwrap();
        assert_eq!(KernelTier::active(), tier);

        let mut adc_vals = Vec::new();
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            let p0 = ds.point(0);
            let p1 = ds.point(1);

            // Free functions dispatch to the forced tier's kernel.
            assert_eq!(
                distance::squared_euclidean(q, p0).to_bits(),
                direct_sq_eucl(tier, q, p0).to_bits(),
                "squared_euclidean missed tier {tier}"
            );
            assert_eq!(
                distance::dot(q, p0).to_bits(),
                direct_dot(tier, q, p0).to_bits(),
                "dot missed tier {tier}"
            );
            assert_eq!(
                distance::cosine_angle_at(q, p0, p1).to_bits(),
                direct_cosine(tier, q, p0, p1).to_bits(),
                "cosine_angle_at missed tier {tier}"
            );

            // Dataset seams: dist, dist_to, dist_to_many.
            assert_eq!(
                ds.dist(0, 1).to_bits(),
                direct_sq_eucl(tier, p0, p1).to_bits(),
                "Dataset::dist missed tier {tier}"
            );
            assert_eq!(
                ds.dist_to(q, 0).to_bits(),
                direct_sq_eucl(tier, q, p0).to_bits(),
                "Dataset::dist_to missed tier {tier}"
            );
            let mut batch = Vec::new();
            ds.dist_to_many(q, &ids, &mut batch);
            for (&id, &d) in ids.iter().zip(&batch) {
                assert_eq!(
                    d.to_bits(),
                    direct_sq_eucl(tier, q, ds.point(id)).to_bits(),
                    "Dataset::dist_to_many missed tier {tier} at id {id}"
                );
            }

            // The seam the routers score through: `VectorView` on a
            // `Dataset` takes the batch kernel, bit-equal to per-id
            // `dist_to`, with the prefetch switch (a pure hint) either way.
            for pf in [true, false] {
                set_prefetch_enabled(pf);
                VectorView::dist_to_many(&ds, q, &ids, &mut batch);
                assert_eq!(batch.len(), ids.len());
                for (&id, &d) in ids.iter().zip(&batch) {
                    assert_eq!(
                        d.to_bits(),
                        VectorView::dist_to(&ds, q, id).to_bits(),
                        "VectorView::dist_to_many on Dataset, tier {tier}, prefetch {pf}, id {id}"
                    );
                }
            }
            set_prefetch_enabled(initial_prefetch);

            // SQ8: single-point wrapper and batch path both score the
            // residual form on the forced tier's kernel.
            let residual: Vec<f32> = q.iter().zip(sq.mins()).map(|(&x, &m)| x - m).collect();
            for &id in &ids {
                let want = direct_sq8(tier, &residual, sq.steps(), sq.codes_of(id));
                assert_eq!(
                    sq.dist_to(q, id).to_bits(),
                    want.to_bits(),
                    "Sq8Dataset::dist_to missed tier {tier} at id {id}"
                );
                assert_eq!(
                    sq8_distance(q, sq.codes_of(id), sq.mins(), sq.steps()).to_bits(),
                    want.to_bits(),
                    "sq8_distance missed tier {tier} at id {id}"
                );
            }
            sq.dist_to_many(q, &ids, &mut batch);
            for (&id, &d) in ids.iter().zip(&batch) {
                assert_eq!(
                    d.to_bits(),
                    direct_sq8(tier, &residual, sq.steps(), sq.codes_of(id)).to_bits(),
                    "Sq8Dataset::dist_to_many missed tier {tier} at id {id}"
                );
            }

            // PQ ADC.
            let t = pq.tables(q);
            for &id in &ids {
                adc_vals.push(pq.dist_with(&t, id));
            }
        }
        adc_by_tier.push(adc_vals);
    }

    // Scalar and unrolled tiers share the serial ADC walk: bit-equal.
    // The simd gather differs only by summation order: tolerance-bounded.
    let scalar_adc = &adc_by_tier[0];
    for (t, vals) in adc_by_tier.iter().enumerate().skip(1) {
        for (j, (&a, &b)) in scalar_adc.iter().zip(vals).enumerate() {
            if KernelTier::ALL[t] == KernelTier::Unrolled {
                assert_eq!(a.to_bits(), b.to_bits(), "ADC scalar vs unrolled at {j}");
            } else {
                assert!(
                    (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                    "ADC scalar vs simd diverged at {j}: {a} vs {b}"
                );
            }
        }
    }

    KernelTier::force(initial).unwrap();
}
