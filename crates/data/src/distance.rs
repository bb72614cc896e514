//! Euclidean distance kernels in three tiers, selected at runtime.
//!
//! The survey strips SIMD intrinsics, prefetching, and other
//! hardware-specific optimizations from every algorithm so that measured
//! differences come from the graphs themselves (§5.1 "Implementation
//! setup"). The [`scalar`] module keeps those deliberately plain loops;
//! [`unrolled`] holds multi-accumulator, chunk-unrolled kernels in stable
//! Rust that break the floating-point dependency chain so the
//! autovectorizer can emit packed instructions; [`simd`] states the
//! vectorization outright with explicit AVX2+FMA `std::arch` intrinsics.
//! The same tier applies to every algorithm equally, so relative
//! comparisons remain meaningful while absolute numbers approach what
//! the hardware allows.
//!
//! **Selection** is a [`KernelTier`]: resolved once at first use from CPU
//! feature detection (`simd` where AVX2+FMA exist, else `unrolled`),
//! overridable by the `WEAVESS_KERNEL=scalar|unrolled|simd` environment
//! variable and programmatically by [`KernelTier::force`] — so every tier
//! is testable on any box. A survey-faithful run is `WEAVESS_KERNEL=scalar`
//! (or `KernelTier::force(KernelTier::Scalar)`).
//!
//! **Determinism contract**: within one tier the kernels are fully
//! deterministic — accumulation order is fixed, so equal inputs always
//! produce bit-equal outputs at any thread/worker/shard count. Across
//! tiers results differ only by floating-point reassociation and FMA
//! rounding (≤ ~1e-4 relative on unit-scale data; see the property tests
//! in `crates/data/tests/properties.rs`).
//!
//! All graph code compares *squared* Euclidean distances: the square root is
//! monotone, so nearest-neighbor orderings are identical and we avoid a
//! `sqrt` per comparison.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod simd;

/// Survey-faithful plain scalar loops (§5.1): the [`KernelTier::Scalar`]
/// tier, and the reference the other tiers are tested against.
pub mod scalar {
    /// Squared Euclidean distance between two equal-length vectors.
    #[inline]
    pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for i in 0..a.len() {
            let d = a[i] - b[i];
            acc += d * d;
        }
        acc
    }

    /// Inner product of two equal-length vectors.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut acc = 0.0f32;
        for i in 0..a.len() {
            acc += a[i] * b[i];
        }
        acc
    }

    /// Cosine of the angle at `p` formed by points `a` and `b` (∠ a-p-b),
    /// computed from the offset vectors `a - p` and `b - p` without
    /// allocating.
    #[inline]
    pub fn cosine_angle_at(p: &[f32], a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(p.len(), a.len());
        debug_assert_eq!(p.len(), b.len());
        let mut dab = 0.0f32;
        let mut na = 0.0f32;
        let mut nb = 0.0f32;
        for i in 0..p.len() {
            let ua = a[i] - p[i];
            let ub = b[i] - p[i];
            dab += ua * ub;
            na += ua * ua;
            nb += ub * ub;
        }
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        (dab / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
    }
}

/// Autovectorizer-friendly kernels: 16-lane chunks feeding 4 independent
/// accumulators (breaking the serial FP dependency chain that blocks
/// vectorization of the naive reduction), plus a scalar tail identical to
/// the [`scalar`] loops. For `dim < 16` the whole input is tail, so the
/// result is bit-equal to the scalar kernel.
pub mod unrolled {
    /// Lanes consumed per unrolled iteration.
    const CHUNK: usize = 16;

    /// Squared Euclidean distance between two equal-length vectors.
    #[inline]
    pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut ca = a.chunks_exact(CHUNK);
        let mut cb = b.chunks_exact(CHUNK);
        let mut acc = [0.0f32; 4];
        for (x, y) in (&mut ca).zip(&mut cb) {
            for (lane, slot) in acc.iter_mut().enumerate() {
                let o = lane * 4;
                let d0 = x[o] - y[o];
                let d1 = x[o + 1] - y[o + 1];
                let d2 = x[o + 2] - y[o + 2];
                let d3 = x[o + 3] - y[o + 3];
                *slot += d0 * d0 + d1 * d1 + d2 * d2 + d3 * d3;
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            let d = x - y;
            tail += d * d;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// Inner product of two equal-length vectors.
    #[inline]
    pub fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let mut ca = a.chunks_exact(CHUNK);
        let mut cb = b.chunks_exact(CHUNK);
        let mut acc = [0.0f32; 4];
        for (x, y) in (&mut ca).zip(&mut cb) {
            for (lane, slot) in acc.iter_mut().enumerate() {
                let o = lane * 4;
                *slot +=
                    x[o] * y[o] + x[o + 1] * y[o + 1] + x[o + 2] * y[o + 2] + x[o + 3] * y[o + 3];
            }
        }
        let mut tail = 0.0f32;
        for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
            tail += x * y;
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
    }

    /// Cosine of the angle at `p` formed by points `a` and `b` (∠ a-p-b).
    /// Single pass over the three slices; the three sums each get their own
    /// accumulator bank.
    #[inline]
    pub fn cosine_angle_at(p: &[f32], a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(p.len(), a.len());
        debug_assert_eq!(p.len(), b.len());
        let mut cp = p.chunks_exact(CHUNK);
        let mut ca = a.chunks_exact(CHUNK);
        let mut cb = b.chunks_exact(CHUNK);
        let mut dab = [0.0f32; 4];
        let mut na = [0.0f32; 4];
        let mut nb = [0.0f32; 4];
        for ((q, x), y) in (&mut cp).zip(&mut ca).zip(&mut cb) {
            for lane in 0..4 {
                let o = lane * 4;
                let mut tab = 0.0f32;
                let mut ta = 0.0f32;
                let mut tb = 0.0f32;
                for j in o..o + 4 {
                    let ua = x[j] - q[j];
                    let ub = y[j] - q[j];
                    tab += ua * ub;
                    ta += ua * ua;
                    tb += ub * ub;
                }
                dab[lane] += tab;
                na[lane] += ta;
                nb[lane] += tb;
            }
        }
        let mut tab = 0.0f32;
        let mut ta = 0.0f32;
        let mut tb = 0.0f32;
        for ((q, x), y) in cp
            .remainder()
            .iter()
            .zip(ca.remainder())
            .zip(cb.remainder())
        {
            let ua = x - q;
            let ub = y - q;
            tab += ua * ub;
            ta += ua * ua;
            tb += ub * ub;
        }
        let dab = (dab[0] + dab[1]) + (dab[2] + dab[3]) + tab;
        let na = (na[0] + na[1]) + (na[2] + na[3]) + ta;
        let nb = (nb[0] + nb[1]) + (nb[2] + nb[3]) + tb;
        if na == 0.0 || nb == 0.0 {
            return 1.0;
        }
        (dab / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
    }
}

/// One hand-written implementation level of the distance kernels.
///
/// Tiers order by hardware specificity: [`Scalar`](KernelTier::Scalar) is
/// the survey-faithful reference, [`Unrolled`](KernelTier::Unrolled)
/// relies on the autovectorizer, [`Simd`](KernelTier::Simd) is explicit
/// AVX2+FMA. The active tier governs every dispatched entry point in this
/// crate: [`squared_euclidean`], [`dot`], [`cosine_angle_at`],
/// [`squared_euclidean_to_many`], the SQ8 kernels in [`crate::quant`],
/// and the PQ ADC lookups in [`crate::pq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Plain scalar loops (§5.1 survey fidelity).
    Scalar,
    /// Autovectorizer-friendly multi-accumulator kernels.
    Unrolled,
    /// Explicit AVX2+FMA kernels (x86-64 with AVX2 and FMA only).
    Simd,
}

/// Sentinel meaning "not resolved yet" in [`ACTIVE`].
const TIER_UNINIT: u8 = 0xff;

/// The process-wide active tier (`TIER_UNINIT` until first use). Relaxed
/// atomics suffice: the value is a pure performance selector and every
/// tier computes correct distances.
static ACTIVE: AtomicU8 = AtomicU8::new(TIER_UNINIT);

impl KernelTier {
    /// All tiers, in increasing hardware specificity.
    pub const ALL: [KernelTier; 3] = [KernelTier::Scalar, KernelTier::Unrolled, KernelTier::Simd];

    /// Stable lowercase name (the `WEAVESS_KERNEL` vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Unrolled => "unrolled",
            KernelTier::Simd => "simd",
        }
    }

    /// Parses a `WEAVESS_KERNEL` value (case-insensitive).
    pub fn parse(s: &str) -> Option<KernelTier> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Some(KernelTier::Scalar),
            "unrolled" => Some(KernelTier::Unrolled),
            "simd" => Some(KernelTier::Simd),
            _ => None,
        }
    }

    /// True when this tier can run on the current host. `Scalar` and
    /// `Unrolled` always can; `Simd` needs AVX2+FMA.
    pub fn is_available(self) -> bool {
        match self {
            KernelTier::Scalar | KernelTier::Unrolled => true,
            KernelTier::Simd => simd::available(),
        }
    }

    /// The best tier the hardware supports: `simd` where AVX2+FMA exist,
    /// else `unrolled`.
    pub fn detect() -> KernelTier {
        if simd::available() {
            KernelTier::Simd
        } else {
            KernelTier::Unrolled
        }
    }

    /// The tier every dispatched kernel currently routes to.
    ///
    /// Resolved on first call: `WEAVESS_KERNEL` if set (falling back with
    /// a warning when it names an unavailable or unknown tier), else
    /// [`KernelTier::detect`].
    #[inline]
    pub fn active() -> KernelTier {
        match ACTIVE.load(Ordering::Relaxed) {
            0 => KernelTier::Scalar,
            1 => KernelTier::Unrolled,
            2 => KernelTier::Simd,
            _ => Self::init_active(),
        }
    }

    /// Cold path of [`KernelTier::active`]: resolves env override +
    /// detection and publishes the result.
    #[cold]
    fn init_active() -> KernelTier {
        let tier = match std::env::var("WEAVESS_KERNEL") {
            Ok(v) => match KernelTier::parse(&v) {
                Some(t) if t.is_available() => t,
                Some(t) => {
                    eprintln!(
                        "WEAVESS_KERNEL={} requested but the {} tier is unavailable on this \
                         host; falling back to {}",
                        v,
                        t.name(),
                        KernelTier::detect().name()
                    );
                    KernelTier::detect()
                }
                None => {
                    eprintln!(
                        "WEAVESS_KERNEL={v} is not one of scalar|unrolled|simd; using {}",
                        KernelTier::detect().name()
                    );
                    KernelTier::detect()
                }
            },
            Err(_) => KernelTier::detect(),
        };
        ACTIVE.store(tier as u8, Ordering::Relaxed);
        tier
    }

    /// Forces the active tier for every dispatched entry point in this
    /// process (tests, benches, reproductions). Fails without changing
    /// anything when the tier cannot run here (forcing `simd` on a
    /// non-AVX2 box).
    pub fn force(tier: KernelTier) -> Result<(), &'static str> {
        if !tier.is_available() {
            return Err("kernel tier is unavailable on this host (needs AVX2+FMA)");
        }
        ACTIVE.store(tier as u8, Ordering::Relaxed);
        Ok(())
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Comma-separated list of the kernel-relevant CPU features this host
/// exposes (empty off x86-64) — recorded in bench artifacts and the
/// serving metrics so archived numbers stay interpretable.
pub fn host_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = Vec::new();
        if std::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
        if std::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        feats.join(",")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::new()
    }
}

/// Squared Euclidean distance through the active [`KernelTier`].
#[inline]
pub fn squared_euclidean(a: &[f32], b: &[f32]) -> f32 {
    match KernelTier::active() {
        KernelTier::Scalar => scalar::squared_euclidean(a, b),
        KernelTier::Unrolled => unrolled::squared_euclidean(a, b),
        KernelTier::Simd => simd::squared_euclidean(a, b),
    }
}

/// Inner product through the active [`KernelTier`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    match KernelTier::active() {
        KernelTier::Scalar => scalar::dot(a, b),
        KernelTier::Unrolled => unrolled::dot(a, b),
        KernelTier::Simd => simd::dot(a, b),
    }
}

/// Cosine of the angle at `p` through the active [`KernelTier`].
#[inline]
pub fn cosine_angle_at(p: &[f32], a: &[f32], b: &[f32]) -> f32 {
    match KernelTier::active() {
        KernelTier::Scalar => scalar::cosine_angle_at(p, a, b),
        KernelTier::Unrolled => unrolled::cosine_angle_at(p, a, b),
        KernelTier::Simd => simd::cosine_angle_at(p, a, b),
    }
}

/// One-query-many-points squared Euclidean over rows of a row-major
/// matrix: the batch seam behind [`crate::Dataset::dist_to_many`]. The
/// tier is resolved once per batch; each output is bit-equal to the
/// corresponding single [`squared_euclidean`] call on the same tier.
#[inline]
pub fn squared_euclidean_to_many(
    query: &[f32],
    flat: &[f32],
    dim: usize,
    ids: &[u32],
    out: &mut Vec<f32>,
) {
    if KernelTier::active() == KernelTier::Simd {
        simd::squared_euclidean_to_many(query, flat, dim, ids, out);
        return;
    }
    out.clear();
    out.reserve(ids.len());
    for &id in ids {
        let s = id as usize * dim;
        out.push(squared_euclidean(query, &flat[s..s + dim]));
    }
}

/// True Euclidean distance (`l2` norm of the difference), Equation 1 of the
/// paper. Only used at reporting boundaries; internal comparisons use
/// [`squared_euclidean`].
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    squared_euclidean(a, b).sqrt()
}

/// Euclidean norm of a vector.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine of the angle ∠(u, v) between two direction vectors, clamped to
/// [-1, 1]. Returns 1.0 for degenerate (zero-length) inputs so that
/// zero-offset "directions" are treated as maximally aligned (and hence
/// pruned first by angle-based selectors such as DPG's and NSSG's).
#[inline]
pub fn cosine_angle(u: &[f32], v: &[f32]) -> f32 {
    let nu = norm(u);
    let nv = norm(v);
    if nu == 0.0 || nv == 0.0 {
        return 1.0;
    }
    (dot(u, v) / (nu * nv)).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_euclidean_matches_hand_computation() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 6.0, 3.0];
        assert_eq!(squared_euclidean(&a, &b), 9.0 + 16.0);
        assert_eq!(euclidean(&a, &b), 5.0);
    }

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = [0.5, -1.5, 2.25, 0.0];
        let b = [1.0, 0.0, -3.0, 4.0];
        assert_eq!(squared_euclidean(&a, &b), squared_euclidean(&b, &a));
        assert_eq!(squared_euclidean(&a, &a), 0.0);
    }

    #[test]
    fn cosine_angle_of_orthogonal_vectors_is_zero() {
        let u = [1.0, 0.0];
        let v = [0.0, 2.0];
        assert!(cosine_angle(&u, &v).abs() < 1e-6);
    }

    #[test]
    fn cosine_angle_at_matches_offset_formulation() {
        let p = [1.0, 1.0];
        let a = [2.0, 1.0]; // offset (1, 0)
        let b = [1.0, 3.0]; // offset (0, 2)
        assert!(cosine_angle_at(&p, &a, &b).abs() < 1e-6);
        let c = [3.0, 1.0]; // offset (2, 0): parallel to a-p
        assert!((cosine_angle_at(&p, &a, &c) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_direction_counts_as_aligned() {
        let p = [1.0, 1.0];
        assert_eq!(cosine_angle_at(&p, &p, &[2.0, 2.0]), 1.0);
    }

    #[test]
    fn flavors_agree_below_chunk_size_bit_exactly() {
        // dim < 16 means the unrolled kernels are pure tail, which runs the
        // same loop as the scalar kernels.
        let a: Vec<f32> = (0..15).map(|i| (i as f32) * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..15).map(|i| (i as f32 * i as f32) * 0.11).collect();
        assert_eq!(
            scalar::squared_euclidean(&a, &b),
            unrolled::squared_euclidean(&a, &b)
        );
        assert_eq!(scalar::dot(&a, &b), unrolled::dot(&a, &b));
        let p: Vec<f32> = (0..15).map(|i| (i as f32).sin()).collect();
        assert_eq!(
            scalar::cosine_angle_at(&p, &a, &b),
            unrolled::cosine_angle_at(&p, &a, &b)
        );
    }

    #[test]
    fn flavors_agree_on_long_vectors_within_tolerance() {
        let a: Vec<f32> = (0..237)
            .map(|i| ((i * 31 % 97) as f32) * 0.021 - 1.0)
            .collect();
        let b: Vec<f32> = (0..237)
            .map(|i| ((i * 17 % 89) as f32) * 0.017 - 0.7)
            .collect();
        let s = scalar::squared_euclidean(&a, &b);
        let u = unrolled::squared_euclidean(&a, &b);
        assert!((s - u).abs() <= 1e-4 * s.abs().max(1.0));
        let s = scalar::dot(&a, &b);
        let u = unrolled::dot(&a, &b);
        assert!((s - u).abs() <= 1e-4 * s.abs().max(1.0));
    }
}
