//! [`VectorView`]: the storage-side abstraction the routers search over.
//!
//! The search routines only ever need three things from vector storage:
//! how many points there are, a distance from a query to a stored point,
//! and (for guided search's coordinate gate) a borrowed `f32` slice.
//! Putting those behind a trait lets the same beam/backtrack/guided/
//! filtered/range code run over a plain [`Dataset`], an [`Sq8Dataset`]
//! (asymmetric f32-vs-u8 distances), or a fused node arena that stores
//! each vertex's vector next to its adjacency list.
//!
//! The provided [`VectorView::dist_to_many`] scores one id at a time with
//! software-prefetch look-ahead: while id `j` is being scored, the lines
//! for id `j + AHEAD` are requested. Prefetch is a pure hint, so distances
//! are unchanged with it on or off. [`Dataset`] and [`Sq8Dataset`]
//! override it with their batch kernels, bit-equal to per-id scoring.

use crate::dataset::Dataset;
use crate::prefetch::prefetch_enabled;
use crate::quant::Sq8Dataset;

/// How many ids ahead of the current one `dist_to_many` prefetches.
/// Scoring one vector costs tens of nanoseconds; two iterations of
/// look-ahead covers an L3/DRAM miss without thrashing the L1 fill
/// buffers.
const PREFETCH_AHEAD: usize = 2;

/// Read access to vector storage, as the search routines consume it.
pub trait VectorView {
    /// Number of stored points.
    fn len(&self) -> usize;

    /// True when no points are stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the stored points.
    fn dim(&self) -> usize;

    /// Borrows point `i`'s coordinates. Implementations that do not keep
    /// raw `f32` coordinates (e.g. SQ8 codes) panic; routers that need
    /// coordinates (guided search) document that requirement.
    fn vector(&self, i: u32) -> &[f32];

    /// Squared distance from `query` to stored point `i`.
    fn dist_to(&self, query: &[f32], i: u32) -> f32;

    /// Hints the cache that point `i`'s data is about to be read.
    /// Default: no-op. Implementations prefetch the head of the vector
    /// (or fused block); callers gate on [`prefetch_enabled`] themselves
    /// when issuing per-neighbor hints in a hot loop.
    #[inline]
    fn prefetch_vector(&self, _i: u32) {}

    /// Scores `query` against each of `ids`, appending to `out` (cleared
    /// first), with prefetch look-ahead over the id list. Bit-equal to
    /// calling [`VectorView::dist_to`] per id.
    fn dist_to_many(&self, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(ids.len());
        if prefetch_enabled() {
            for (j, &id) in ids.iter().enumerate() {
                if let Some(&ahead) = ids.get(j + PREFETCH_AHEAD) {
                    self.prefetch_vector(ahead);
                }
                out.push(self.dist_to(query, id));
            }
        } else {
            for &id in ids {
                out.push(self.dist_to(query, id));
            }
        }
    }
}

impl VectorView for Dataset {
    #[inline]
    fn len(&self) -> usize {
        Dataset::len(self)
    }

    #[inline]
    fn dim(&self) -> usize {
        Dataset::dim(self)
    }

    #[inline]
    fn vector(&self, i: u32) -> &[f32] {
        self.point(i)
    }

    #[inline]
    fn dist_to(&self, query: &[f32], i: u32) -> f32 {
        Dataset::dist_to(self, query, i)
    }

    #[inline]
    fn prefetch_vector(&self, i: u32) {
        let p = self.point(i);
        crate::prefetch::prefetch_span(p.as_ptr(), p.len());
    }

    /// The batch kernel: the tier is resolved once for the whole id list
    /// and, on the simd tier, every row is scored inside one
    /// `#[target_feature]` region. No look-ahead here — the routers
    /// already request each staged vector while they build `ids`.
    #[inline]
    fn dist_to_many(&self, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        Dataset::dist_to_many(self, query, ids, out);
    }
}

impl VectorView for Sq8Dataset {
    #[inline]
    fn len(&self) -> usize {
        Sq8Dataset::len(self)
    }

    #[inline]
    fn dim(&self) -> usize {
        Sq8Dataset::dim(self)
    }

    /// SQ8 storage keeps codes, not coordinates. Guided search's
    /// dominant-coordinate gate therefore cannot run over it; use
    /// best-first routing (as `QuantizedIndex` does) instead.
    fn vector(&self, _i: u32) -> &[f32] {
        panic!("Sq8Dataset stores u8 codes; raw coordinates are unavailable (guided search is unsupported over SQ8)")
    }

    #[inline]
    fn dist_to(&self, query: &[f32], i: u32) -> f32 {
        Sq8Dataset::dist_to(self, query, i)
    }

    #[inline]
    fn prefetch_vector(&self, i: u32) {
        let c = self.codes_of(i);
        crate::prefetch::prefetch_span(c.as_ptr(), c.len());
    }

    /// Batch scoring with the per-query dequantization residual hoisted
    /// out of the candidate loop (computed once per batch instead of per
    /// candidate) — bit-equal to per-id [`VectorView::dist_to`] on the
    /// same kernel tier, with the same prefetch look-ahead.
    #[inline]
    fn dist_to_many(&self, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        Sq8Dataset::dist_to_many(self, query, ids, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetch::set_prefetch_enabled;
    use crate::synthetic::MixtureSpec;

    #[test]
    fn dataset_view_matches_inherent_methods_bitwise() {
        let (ds, qs) = MixtureSpec::table10(24, 300, 3, 5.0, 4).generate();
        let view: &dyn VectorView = &ds;
        let ids: Vec<u32> = (0..ds.len() as u32).step_by(7).collect();
        let mut via_view = Vec::new();
        let mut via_inherent = Vec::new();
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            view.dist_to_many(q, &ids, &mut via_view);
            ds.dist_to_many(q, &ids, &mut via_inherent);
            assert_eq!(
                via_view.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                via_inherent.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(view.dist_to(q, id).to_bits(), ds.dist_to(q, id).to_bits());
                assert_eq!(view.vector(id), ds.point(id));
                let _ = j;
            }
        }
    }

    #[test]
    fn sq8_view_matches_inherent_distance() {
        let (ds, qs) = MixtureSpec::table10(16, 200, 3, 5.0, 3).generate();
        let sq = Sq8Dataset::quantize(&ds);
        let view: &dyn VectorView = &sq;
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            for i in 0..ds.len() as u32 {
                assert_eq!(view.dist_to(q, i).to_bits(), sq.dist_to(q, i).to_bits());
            }
        }
    }

    #[test]
    fn prefetch_toggle_does_not_change_distances() {
        let (ds, qs) = MixtureSpec::table10(24, 300, 3, 5.0, 2).generate();
        let ids: Vec<u32> = (0..ds.len() as u32).collect();
        let q = qs.point(0);
        let initial = prefetch_enabled();
        let mut on = Vec::new();
        let mut off = Vec::new();
        set_prefetch_enabled(true);
        VectorView::dist_to_many(&ds, q, &ids, &mut on);
        set_prefetch_enabled(false);
        VectorView::dist_to_many(&ds, q, &ids, &mut off);
        set_prefetch_enabled(initial);
        assert_eq!(
            on.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            off.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "raw coordinates are unavailable")]
    fn sq8_vector_access_panics() {
        let (ds, _) = MixtureSpec::table10(8, 50, 2, 5.0, 1).generate();
        let sq = Sq8Dataset::quantize(&ds);
        let view: &dyn VectorView = &sq;
        let _ = view.vector(0);
    }
}
