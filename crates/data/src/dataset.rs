//! Flat, row-major vector dataset.

use crate::distance::squared_euclidean;
use crate::neighbor::Neighbor;
use crate::parallel::{par_chunks_map, resolve_threads};

/// A dense set of `n` vectors of dimension `dim`, stored contiguously
/// row-major. Points are addressed by `u32` ids (the survey's largest
/// dataset is ~2M points; `u32` halves edge-list memory vs `usize`).
///
/// A dataset that allocates its own buffer (generated, subset, built
/// from rows, cloned, grown by [`Dataset::push`]) starts its rows on a
/// 64-byte cache line.
#[derive(Debug)]
pub struct Dataset {
    /// The rows are the `n * dim` floats from `start` on; the floats
    /// before it only pad the rows onto the boundary.
    buf: Vec<f32>,
    start: usize,
    n: usize,
    dim: usize,
}

/// Where a dataset's own rows start, in bytes: one cache line. Where
/// malloc happens to put a buffer otherwise decides how many lines every
/// vector spans (a 128-byte row two or three, a 1 KiB row 16 or 17), and
/// with it up to ~13 % of a memory-bound walk's throughput.
const ROW_ALIGN: usize = 64;

/// Floats of padding that reach any [`ROW_ALIGN`] boundary.
const PAD: usize = ROW_ALIGN / std::mem::size_of::<f32>() - 1;

impl Clone for Dataset {
    fn clone(&self) -> Self {
        let mut copy = Self::zeroed(self.n, self.dim);
        copy.flat_mut().copy_from_slice(self.flat());
        copy
    }
}

impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        (self.n, self.dim) == (other.n, other.dim) && self.flat() == other.flat()
    }
}

impl Dataset {
    /// Wraps a flat buffer of `n * dim` floats.
    ///
    /// # Panics
    /// Panics if `data.len() != n * dim` or `dim == 0`.
    pub fn from_flat(data: Vec<f32>, n: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert_eq!(data.len(), n * dim, "buffer length must be n * dim");
        Dataset {
            buf: data,
            start: 0,
            n,
            dim,
        }
    }

    /// `n` all-zero rows starting on a [`ROW_ALIGN`]-byte boundary, to be
    /// filled in place through [`Self::flat_mut`]. The zeroed allocation
    /// is lazy: a large one costs nothing until it is written.
    pub(crate) fn zeroed(n: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut buf = vec![0.0f32; n * dim + PAD];
        let start = buf.as_ptr().align_offset(ROW_ALIGN).min(PAD);
        buf.truncate(start + n * dim);
        Dataset { buf, start, n, dim }
    }

    /// The rows, writable.
    pub(crate) fn flat_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.start..]
    }

    /// Builds a dataset from per-point rows (testing convenience).
    ///
    /// # Panics
    /// Panics if rows are empty or have inconsistent dimensions.
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "dataset must contain at least one point");
        let dim = rows[0].len();
        let mut ds = Self::zeroed(rows.len(), dim);
        for (dst, r) in ds.flat_mut().chunks_exact_mut(dim).zip(rows) {
            assert_eq!(r.len(), dim, "all rows must share a dimension");
            dst.copy_from_slice(r);
        }
        ds
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the dataset holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Vector dimensionality.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th vector.
    #[inline]
    pub fn point(&self, i: u32) -> &[f32] {
        let s = self.start + i as usize * self.dim;
        &self.buf[s..s + self.dim]
    }

    /// The underlying flat buffer.
    #[inline]
    pub fn flat(&self) -> &[f32] {
        &self.buf[self.start..]
    }

    /// Squared Euclidean distance between base points `a` and `b`.
    #[inline]
    pub fn dist(&self, a: u32, b: u32) -> f32 {
        squared_euclidean(self.point(a), self.point(b))
    }

    /// Squared Euclidean distance between an external query and base point `b`.
    ///
    /// # Panics
    /// Panics if `query` is not [`Self::dim`] long, under every kernel tier.
    #[inline]
    pub fn dist_to(&self, query: &[f32], b: u32) -> f32 {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        squared_euclidean(query, self.point(b))
    }

    /// Scores `query` against every id in `ids` in one pass, overwriting
    /// `out` (cleared and refilled; capacity is reused across calls).
    ///
    /// Beam expansion calls this once per expanded vertex instead of one
    /// [`Self::dist_to`] per neighbor: the query slice and its bounds stay
    /// hot across the whole batch. Each output is computed by the exact
    /// same kernel as `dist_to`, so `out[i]` is bit-equal to
    /// `self.dist_to(query, ids[i])` — batching never perturbs results.
    ///
    /// # Panics
    /// Panics if `query` is not [`Self::dim`] long (checked once per
    /// call, under every kernel tier) or an id is out of range.
    #[inline]
    pub fn dist_to_many(&self, query: &[f32], ids: &[u32], out: &mut Vec<f32>) {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        crate::distance::squared_euclidean_to_many(query, self.flat(), self.dim, ids, out);
    }

    /// Points per work unit for the threaded scans below. Fixed (rather
    /// than derived from the thread count) so reduction order — and hence
    /// every floating-point rounding — is identical at any parallelism.
    const SCAN_CHUNK: usize = 8_192;

    /// Component-wise mean of all points (the "approximate centroid" used by
    /// NSG's and Vamana's seed preprocessing). Threaded over fixed-size
    /// chunks whose partial sums are combined in chunk order, so the result
    /// is independent of the worker count.
    pub fn centroid(&self) -> Vec<f32> {
        let partials = par_chunks_map(
            self.n,
            Self::SCAN_CHUNK,
            resolve_threads(0),
            || (),
            |_, rows| {
                let mut acc = vec![0.0f64; self.dim];
                for i in rows {
                    for (a, &x) in acc.iter_mut().zip(self.point(i as u32)) {
                        *a += x as f64;
                    }
                }
                acc
            },
        );
        let mut c = vec![0.0f64; self.dim];
        for p in &partials {
            for (a, &x) in c.iter_mut().zip(p) {
                *a += x;
            }
        }
        c.iter().map(|&x| (x / self.n as f64) as f32).collect()
    }

    /// The base point nearest to the centroid (the *medoid*; NSG's fixed
    /// entry point). Threaded linear scan; each chunk covers an ascending
    /// id range and the chunk minima are folded in order with a strict `<`,
    /// so the serial "first strict improvement" winner is reproduced at any
    /// worker count.
    pub fn medoid(&self) -> u32 {
        let c = self.centroid();
        let first_strict_min =
            |best: Neighbor, cand: Neighbor| if cand.dist < best.dist { cand } else { best };
        let none = Neighbor::new(0, f32::INFINITY);
        par_chunks_map(
            self.n,
            Self::SCAN_CHUNK,
            resolve_threads(0),
            || (),
            |_, rows| {
                rows.map(|i| Neighbor::new(i as u32, self.dist_to(&c, i as u32)))
                    .fold(none, first_strict_min)
            },
        )
        .into_iter()
        .fold(none, first_strict_min)
        .id
    }

    /// A new dataset containing the given rows of `self` (dataset-division
    /// substrate for divide-and-conquer builders and validation splits).
    pub fn subset(&self, ids: &[u32]) -> Dataset {
        let mut out = Self::zeroed(ids.len(), self.dim);
        for (dst, &i) in out.flat_mut().chunks_exact_mut(self.dim).zip(ids) {
            dst.copy_from_slice(self.point(i));
        }
        out
    }

    /// Approximate heap footprint of the raw vectors, in bytes.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of_val(self.flat())
    }

    /// An empty dataset of the given dimensionality (growable via
    /// [`Self::push`]; the substrate for dynamically updated indexes).
    pub fn empty(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Dataset {
            buf: Vec::new(),
            start: 0,
            n: 0,
            dim,
        }
    }

    /// Appends one vector, returning its new id. A push that outgrows the
    /// buffer moves the rows to a new one of twice the rows that starts
    /// on a 64-byte cache line, so a growing dataset keeps its rows on
    /// lines like every buffer a dataset allocates itself.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn push(&mut self, point: &[f32]) -> u32 {
        assert_eq!(point.len(), self.dim, "dimension mismatch");
        if self.buf.capacity() - self.buf.len() < self.dim {
            let mut grown = Self::zeroed((2 * self.n).max(16), self.dim);
            grown.buf.truncate(grown.start + self.n * self.dim);
            grown.flat_mut().copy_from_slice(self.flat());
            self.buf = grown.buf;
            self.start = grown.start;
        }
        self.buf.extend_from_slice(point);
        self.n += 1;
        (self.n - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Dataset {
        Dataset::from_rows(&[
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
        ])
    }

    #[test]
    fn accessors_roundtrip() {
        let ds = square();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.point(2), &[0.0, 1.0]);
    }

    #[test]
    fn distances_match_kernel() {
        let ds = square();
        assert_eq!(ds.dist(0, 3), 2.0);
        assert_eq!(ds.dist_to(&[0.5, 0.0], 1), 0.25);
    }

    #[test]
    fn centroid_and_medoid_of_square() {
        let ds = square();
        assert_eq!(ds.centroid(), vec![0.5, 0.5]);
        // All four corners are equidistant from the centroid; the scan keeps
        // the first strict improvement, i.e. point 0.
        assert_eq!(ds.medoid(), 0);
    }

    #[test]
    fn subset_extracts_rows() {
        let ds = square();
        let sub = ds.subset(&[3, 1]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.point(0), &[1.0, 1.0]);
        assert_eq!(sub.point(1), &[1.0, 0.0]);
    }

    #[test]
    fn empty_and_push_grow_the_dataset() {
        let mut ds = Dataset::empty(3);
        assert!(ds.is_empty());
        assert_eq!(ds.push(&[1.0, 2.0, 3.0]), 0);
        assert_eq!(ds.push(&[4.0, 5.0, 6.0]), 1);
        assert_eq!(ds.len(), 2);
        assert_eq!(ds.point(1), &[4.0, 5.0, 6.0]);
        assert_eq!(ds.dist(0, 1), 27.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dimension() {
        let mut ds = Dataset::empty(2);
        ds.push(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn own_rows_start_on_a_cache_line() {
        let on_line = |ds: &Dataset| (ds.flat().as_ptr() as usize).is_multiple_of(ROW_ALIGN);
        let ds = square();
        assert!(on_line(&ds));
        for n in 0..ROW_ALIGN {
            let sub = ds.subset(&vec![3; n]);
            assert!(on_line(&sub) && on_line(&sub.clone()), "n={n}");
            assert_eq!(sub, sub.clone());
        }
        assert!(on_line(&Dataset::zeroed(1_000, 3)));
        // A caller's buffer is wrapped as it is.
        let flat = vec![1.0; 6];
        let ptr = flat.as_ptr();
        assert_eq!(Dataset::from_flat(flat, 2, 3).flat().as_ptr(), ptr);
    }

    #[test]
    fn pushed_rows_stay_on_cache_lines_across_reallocations() {
        let dim = 64;
        let mut ds = Dataset::empty(dim);
        let mut moves = 0;
        let mut base = ds.flat().as_ptr();
        for i in 0..50_000u32 {
            assert_eq!(ds.push(&[i as f32; 64]), i);
            if ds.flat().as_ptr() != base {
                moves += 1;
                base = ds.flat().as_ptr();
            }
        }
        assert!(moves >= 3, "only {moves} reallocations");
        for i in 0..ds.len() as u32 {
            assert!(
                (ds.point(i).as_ptr() as usize).is_multiple_of(ROW_ALIGN),
                "row {i}"
            );
            assert_eq!(ds.point(i)[dim - 1], i as f32);
        }
        // A caller's buffer is kept until it is outgrown.
        let mut wrapped = Dataset::from_flat(vec![1.0; 6], 2, 3);
        wrapped.push(&[2.0; 3]);
        assert!((wrapped.flat().as_ptr() as usize).is_multiple_of(ROW_ALIGN));
        assert_eq!(
            wrapped.flat(),
            &[1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
        );
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_flat_validates_shape() {
        let _ = Dataset::from_flat(vec![0.0; 5], 2, 3);
    }

    /// Two 8-dim rows: a 64-float query against the last one would read
    /// 56 floats past the matrix if the length went unchecked.
    fn two_rows() -> Dataset {
        Dataset::from_rows(&[vec![0.0; 8], vec![1.0; 8]])
    }

    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn dist_to_rejects_a_wrong_length_query() {
        two_rows().dist_to(&[2.0; 64], 1);
    }

    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn dist_to_many_rejects_a_wrong_length_query() {
        two_rows().dist_to_many(&[2.0; 64], &[1], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "query dimensionality mismatch")]
    fn dist_to_many_rejects_a_short_query() {
        two_rows().dist_to_many(&[2.0; 4], &[0, 1], &mut Vec::new());
    }
}
