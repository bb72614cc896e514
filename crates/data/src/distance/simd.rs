//! Explicit AVX2+FMA distance kernels — the `simd` tier of the runtime
//! [`KernelTier`](super::KernelTier) dispatch.
//!
//! Where the [`unrolled`](super::unrolled) tier recovers only what the
//! autovectorizer volunteers, these kernels state the vectorization
//! outright with `std::arch` intrinsics: 256-bit lanes (8 f32), fused
//! multiply-add, multiple independent accumulator registers, and — for
//! quantized scoring — in-register `u8 → f32` widening and gathered ADC
//! table lookups, so no dequantized vector is ever materialized.
//!
//! Every public function here is *checked*: it runs the AVX2 path only
//! when the host supports AVX2 and FMA (detected once, cached) and
//! otherwise falls back to the `unrolled` tier, so calling them is safe
//! on any machine. The [`KernelTier`](super::KernelTier) dispatcher never
//! selects this tier on hardware that lacks it, so the hot path pays one
//! predictable branch, not a per-call `cpuid`.
//!
//! Determinism contract (same as the other tiers): accumulation order is
//! fixed, so equal inputs give bit-equal outputs on the same tier. Across
//! tiers results differ only by floating-point reassociation and FMA
//! rounding (≤ ~1e-4 relative on unit-scale data; property-tested in
//! `crates/data/tests/properties.rs`). For `dim < 8` the whole input is
//! scalar tail, so the result is bit-equal to the scalar tier.
//!
//! All loads are unaligned (`loadu`): slice offsets never change results
//! or correctness, and on modern x86 an unaligned load that does not
//! split a cache line costs the same as an aligned one.

/// True when the host can run the AVX2+FMA kernels (detected once,
/// cached; always `false` off x86-64).
pub fn available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAIL: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
        *AVAIL.get_or_init(|| {
            std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma")
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics if the lengths differ, on every host.
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector lengths differ");
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX2+FMA on this host.
        return unsafe { imp::squared_euclidean(a, b) };
    }
    super::unrolled::squared_euclidean(a, b)
}

/// Inner product of two equal-length vectors.
///
/// # Panics
/// Panics if the lengths differ, on every host.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "vector lengths differ");
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX2+FMA on this host.
        return unsafe { imp::dot(a, b) };
    }
    super::unrolled::dot(a, b)
}

/// Cosine of the angle at `p` formed by points `a` and `b` (∠ a-p-b).
///
/// # Panics
/// Panics if the three lengths differ, on every host.
#[inline]
pub fn cosine_angle_at(p: &[f32], a: &[f32], b: &[f32]) -> f32 {
    assert!(
        p.len() == a.len() && p.len() == b.len(),
        "vector lengths differ"
    );
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX2+FMA on this host.
        return unsafe { imp::cosine_angle_at(p, a, b) };
    }
    super::unrolled::cosine_angle_at(p, a, b)
}

/// One-query-many-points squared Euclidean: scores `query` against row
/// `id` of the row-major `flat` matrix for every id in `ids`, appending
/// to `out` (cleared first). The whole batch runs inside one
/// feature-enabled region, so the per-call dispatch cost is paid once
/// per batch rather than once per point; each output is computed by the
/// exact same instruction sequence as [`squared_euclidean`], so results
/// are bit-equal to the one-at-a-time path.
///
/// # Panics
/// Panics if `query` is not `dim` long or any id addresses a row outside
/// `flat`, on every host.
#[inline]
pub fn squared_euclidean_to_many(
    query: &[f32],
    flat: &[f32],
    dim: usize,
    ids: &[u32],
    out: &mut Vec<f32>,
) {
    assert_eq!(query.len(), dim, "query length differs from dim");
    out.clear();
    out.reserve(ids.len());
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX2+FMA on this host.
        unsafe { imp::squared_euclidean_to_many(query, flat, dim, ids, out) };
        return;
    }
    for &id in ids {
        let s = id as usize * dim;
        out.push(super::unrolled::squared_euclidean(query, &flat[s..s + dim]));
    }
}

/// Fused SQ8 asymmetric distance in residual form: given the per-query
/// residual `r[d] = query[d] - min[d]` and the per-dimension `step`,
/// computes `Σ (r[d] - codes[d]·step[d])²` with codes widened `u8 → f32`
/// in-register — the dequantized vector never exists in memory.
///
/// # Panics
/// Panics if the three lengths differ, on every host.
#[inline]
pub fn sq8_residual_distance(residual: &[f32], step: &[f32], codes: &[u8]) -> f32 {
    assert!(
        residual.len() == step.len() && residual.len() == codes.len(),
        "vector lengths differ"
    );
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX2+FMA on this host.
        return unsafe { imp::sq8_residual_distance(residual, step, codes) };
    }
    crate::quant::sq8_kernels::unrolled(residual, step, codes)
}

/// PQ asymmetric distance via gathered table lookups: `tables` is the
/// per-query `m × 256` partial-distance table (row-major, one row per
/// subspace), `codes` the point's `m` codebook indices. Eight subspaces
/// are resolved per `vpgatherdps`; the tail falls back to scalar
/// lookups. Summation order (8-lane tree + scalar tail) differs from the
/// scalar tier's left-to-right reduction — bit-identical within this
/// tier, tolerance-bounded across tiers, like every other kernel.
///
/// # Panics
/// Panics unless `tables` holds 256 entries per code, on every host.
#[inline]
pub fn pq_adc(tables: &[f32], codes: &[u8]) -> f32 {
    assert_eq!(
        tables.len(),
        codes.len() * 256,
        "one 256-entry table per code"
    );
    #[cfg(target_arch = "x86_64")]
    if available() {
        // SAFETY: `available()` verified AVX2+FMA on this host.
        return unsafe { imp::pq_adc(tables, codes) };
    }
    crate::pq::adc_scalar(tables, codes)
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use std::arch::x86_64::*;

    /// Horizontal sum of one 256-bit register, in a fixed shuffle order
    /// (lanes 0-3 + lanes 4-7, then pairwise): deterministic.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps::<1>(v);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let shuf2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, shuf2))
    }

    /// # Safety
    /// Caller must ensure AVX2+FMA are available and equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        // 32 floats per iteration: 4 independent FMA chains hide latency.
        while i + 32 <= n {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            let d1 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
            );
            let d2 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
            );
            let d3 = _mm256_sub_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            acc2 = _mm256_fmadd_ps(d2, d2, acc2);
            acc3 = _mm256_fmadd_ps(d3, d3, acc3);
            i += 32;
        }
        while i + 8 <= n {
            let d = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut total = hsum256(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ));
        while i < n {
            let d = *pa.add(i) - *pb.add(i);
            total += d * d;
            i += 1;
        }
        total
    }

    /// # Safety
    /// Caller must ensure AVX2+FMA are available and equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut i = 0usize;
        while i + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 8)),
                _mm256_loadu_ps(pb.add(i + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 16)),
                _mm256_loadu_ps(pb.add(i + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(pa.add(i + 24)),
                _mm256_loadu_ps(pb.add(i + 24)),
                acc3,
            );
            i += 32;
        }
        while i + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(pa.add(i)), _mm256_loadu_ps(pb.add(i)), acc0);
            i += 8;
        }
        let mut total = hsum256(_mm256_add_ps(
            _mm256_add_ps(acc0, acc1),
            _mm256_add_ps(acc2, acc3),
        ));
        while i < n {
            total += *pa.add(i) * *pb.add(i);
            i += 1;
        }
        total
    }

    /// # Safety
    /// Caller must ensure AVX2+FMA are available and equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn cosine_angle_at(p: &[f32], a: &[f32], b: &[f32]) -> f32 {
        let n = p.len();
        let pp = p.as_ptr();
        let pa = a.as_ptr();
        let pb = b.as_ptr();
        let mut dab = _mm256_setzero_ps();
        let mut na = _mm256_setzero_ps();
        let mut nb = _mm256_setzero_ps();
        let mut i = 0usize;
        // Three live accumulators already break the dependency chain; one
        // 8-lane stride keeps register pressure low.
        while i + 8 <= n {
            let q = _mm256_loadu_ps(pp.add(i));
            let ua = _mm256_sub_ps(_mm256_loadu_ps(pa.add(i)), q);
            let ub = _mm256_sub_ps(_mm256_loadu_ps(pb.add(i)), q);
            dab = _mm256_fmadd_ps(ua, ub, dab);
            na = _mm256_fmadd_ps(ua, ua, na);
            nb = _mm256_fmadd_ps(ub, ub, nb);
            i += 8;
        }
        let mut tab = hsum256(dab);
        let mut ta = hsum256(na);
        let mut tb = hsum256(nb);
        while i < n {
            let ua = *pa.add(i) - *pp.add(i);
            let ub = *pb.add(i) - *pp.add(i);
            tab += ua * ub;
            ta += ua * ua;
            tb += ub * ub;
            i += 1;
        }
        if ta == 0.0 || tb == 0.0 {
            return 1.0;
        }
        (tab / (ta.sqrt() * tb.sqrt())).clamp(-1.0, 1.0)
    }

    /// # Safety
    /// Caller must ensure AVX2+FMA are available and `query.len() == dim`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn squared_euclidean_to_many(
        query: &[f32],
        flat: &[f32],
        dim: usize,
        ids: &[u32],
        out: &mut Vec<f32>,
    ) {
        for &id in ids {
            let s = id as usize * dim;
            // Bounds-checked row slice: an out-of-range id panics rather
            // than reading out of bounds.
            out.push(squared_euclidean(query, &flat[s..s + dim]));
        }
    }

    /// # Safety
    /// Caller must ensure AVX2+FMA are available and equal lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn sq8_residual_distance(residual: &[f32], step: &[f32], codes: &[u8]) -> f32 {
        let n = residual.len();
        let pr = residual.as_ptr();
        let ps = step.as_ptr();
        let pc = codes.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0usize;
        // 16 codes per iteration: one unaligned 128-bit load supplies two
        // widened 8-lane groups.
        while i + 16 <= n {
            let c = _mm_loadu_si128(pc.add(i) as *const __m128i);
            let f0 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c));
            let f1 = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(_mm_srli_si128::<8>(c)));
            // diff = residual - code·step, fused.
            let d0 = _mm256_fnmadd_ps(f0, _mm256_loadu_ps(ps.add(i)), _mm256_loadu_ps(pr.add(i)));
            let d1 = _mm256_fnmadd_ps(
                f1,
                _mm256_loadu_ps(ps.add(i + 8)),
                _mm256_loadu_ps(pr.add(i + 8)),
            );
            acc0 = _mm256_fmadd_ps(d0, d0, acc0);
            acc1 = _mm256_fmadd_ps(d1, d1, acc1);
            i += 16;
        }
        while i + 8 <= n {
            let c = _mm_loadl_epi64(pc.add(i) as *const __m128i);
            let f = _mm256_cvtepi32_ps(_mm256_cvtepu8_epi32(c));
            let d = _mm256_fnmadd_ps(f, _mm256_loadu_ps(ps.add(i)), _mm256_loadu_ps(pr.add(i)));
            acc0 = _mm256_fmadd_ps(d, d, acc0);
            i += 8;
        }
        let mut total = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            let d = *pr.add(i) - *pc.add(i) as f32 * *ps.add(i);
            total += d * d;
            i += 1;
        }
        total
    }

    /// # Safety
    /// Caller must ensure AVX2+FMA are available and 256 table entries
    /// per code.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn pq_adc(tables: &[f32], codes: &[u8]) -> f32 {
        let m = codes.len();
        let pc = codes.as_ptr();
        let mut acc = _mm256_setzero_ps();
        // Lane k of each gather reads row (s+k) of the table block at
        // offset code[s+k]: rows are 256 floats apart.
        let row_off = _mm256_setr_epi32(0, 256, 512, 768, 1024, 1280, 1536, 1792);
        let mut s = 0usize;
        while s + 8 <= m {
            let c = _mm_loadl_epi64(pc.add(s) as *const __m128i);
            let idx = _mm256_add_epi32(_mm256_cvtepu8_epi32(c), row_off);
            let vals = _mm256_i32gather_ps::<4>(tables.as_ptr().add(s * 256), idx);
            acc = _mm256_add_ps(acc, vals);
            s += 8;
        }
        let mut total = hsum256(acc);
        while s < m {
            total += *tables.get_unchecked(s * 256 + *pc.add(s) as usize);
            s += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{scalar, unrolled};

    fn vecs(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 2000) as f32 * 0.01 - 10.0
        };
        let a: Vec<f32> = (0..dim).map(|_| next()).collect();
        let b: Vec<f32> = (0..dim).map(|_| next()).collect();
        (a, b)
    }

    #[test]
    fn agrees_with_scalar_within_tolerance_across_dims() {
        for dim in [1usize, 3, 7, 8, 9, 15, 16, 31, 32, 33, 96, 100, 128, 237] {
            let (a, b) = vecs(dim, dim as u64);
            let s = scalar::squared_euclidean(&a, &b);
            let v = squared_euclidean(&a, &b);
            assert!(
                (s - v).abs() <= 1e-4 * s.abs().max(1.0),
                "sq_eucl dim {dim}: {s} vs {v}"
            );
            let s = scalar::dot(&a, &b);
            let v = dot(&a, &b);
            assert!(
                (s - v).abs() <= 1e-4 * s.abs().max(1.0),
                "dot dim {dim}: {s} vs {v}"
            );
        }
    }

    #[test]
    fn below_lane_width_is_bit_equal_to_scalar() {
        // dim < 8 is pure scalar tail in this tier.
        for dim in 1..8usize {
            let (a, b) = vecs(dim, 0xab + dim as u64);
            assert_eq!(
                squared_euclidean(&a, &b).to_bits(),
                scalar::squared_euclidean(&a, &b).to_bits()
            );
            assert_eq!(dot(&a, &b).to_bits(), scalar::dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn unaligned_slice_offsets_do_not_change_results() {
        let (a, b) = vecs(96 + 4, 0x0ff5e7);
        for off in 0..4usize {
            let x = &a[off..off + 96];
            let y = &b[off..off + 96];
            let u = unrolled::squared_euclidean(x, y);
            let v = squared_euclidean(x, y);
            assert!(
                (u - v).abs() <= 1e-4 * u.abs().max(1.0),
                "offset {off}: {u} vs {v}"
            );
        }
    }

    #[test]
    fn batch_variant_is_bit_equal_to_single_calls() {
        let dim = 37;
        let n = 50;
        let mut flat = Vec::with_capacity(n * dim);
        for i in 0..n {
            flat.extend(vecs(dim, i as u64).0);
        }
        let (q, _) = vecs(dim, 0xdead);
        let ids: Vec<u32> = (0..n as u32).rev().collect();
        let mut out = Vec::new();
        squared_euclidean_to_many(&q, &flat, dim, &ids, &mut out);
        for (&id, &d) in ids.iter().zip(&out) {
            let s = id as usize * dim;
            assert_eq!(
                d.to_bits(),
                squared_euclidean(&q, &flat[s..s + dim]).to_bits()
            );
        }
    }

    #[test]
    fn cosine_matches_scalar_within_tolerance() {
        for dim in [1usize, 5, 8, 24, 96, 200] {
            let (p, a) = vecs(dim, 7 + dim as u64);
            let (b, _) = vecs(dim, 1000 + dim as u64);
            let s = scalar::cosine_angle_at(&p, &a, &b);
            let v = cosine_angle_at(&p, &a, &b);
            assert!((s - v).abs() <= 1e-4, "dim {dim}: {s} vs {v}");
        }
    }

    // Every safe entry point checks its lengths before choosing a path,
    // so a short operand panics on every host instead of being read past.
    #[test]
    #[should_panic(expected = "vector lengths differ")]
    fn squared_euclidean_rejects_a_shorter_operand() {
        squared_euclidean(&[1.0; 16], &[0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "vector lengths differ")]
    fn dot_rejects_a_shorter_operand() {
        dot(&[1.0; 16], &[0.0; 8]);
    }

    #[test]
    #[should_panic(expected = "vector lengths differ")]
    fn cosine_angle_at_rejects_a_shorter_operand() {
        cosine_angle_at(&[1.0; 16], &[0.0; 16], &[2.0; 8]);
    }

    #[test]
    #[should_panic(expected = "vector lengths differ")]
    fn sq8_residual_distance_rejects_short_codes() {
        sq8_residual_distance(&[1.0; 16], &[0.5; 16], &[3; 8]);
    }

    #[test]
    #[should_panic(expected = "one 256-entry table per code")]
    fn pq_adc_rejects_a_short_table() {
        pq_adc(&[1.0; 256 * 4], &[255; 8]);
    }

    #[test]
    #[should_panic(expected = "query length differs from dim")]
    fn batch_variant_rejects_a_long_query() {
        let flat = [0.5f32; 16];
        squared_euclidean_to_many(&[1.0; 64], &flat, 8, &[1], &mut Vec::new());
    }
}
