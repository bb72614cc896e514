//! Exact k-nearest-neighbor ground truth by parallel brute force.
//!
//! The paper computes every query's true 20/100 nearest neighbors by linear
//! scan; recall and the exact-KNNG graph-quality reference both depend on
//! this. Rows are scanned in fixed chunks on the shared build pool
//! ([`crate::parallel::par_fill`]) — the same "parallelize only vector
//! math, keep algorithms scalar" policy the paper applies to index
//! construction — so every row is the serial scan's at any thread count.

use crate::dataset::Dataset;
use crate::neighbor::{insert_into_pool, Neighbor};
use crate::parallel::{par_fill, resolve_threads};

/// Points scored per [`Dataset::dist_to_many`] call in [`knn_scan`] — big
/// enough to amortize the loop, small enough to stay in L1/L2.
const SCAN_BLOCK: u32 = 256;

/// Rows per work unit of [`scan_rows`]: every row is a scan of the whole
/// base set, so a few already amortize the work queue.
const SCAN_ROWS: usize = 8;

/// Exact k nearest base points for one query vector (linear scan).
///
/// `exclude` skips one base id (used when the "query" is itself a base
/// point, e.g. when building the exact KNNG).
///
/// The scan is batch-scored over fixed contiguous id blocks; the exclusion
/// check happens at insertion time, so results are identical to the
/// point-at-a-time scan.
pub fn knn_scan(base: &Dataset, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Neighbor> {
    let mut pool = Vec::with_capacity(k + 1);
    let n = base.len() as u32;
    let mut ids: Vec<u32> = Vec::with_capacity(SCAN_BLOCK as usize);
    let mut dists: Vec<f32> = Vec::with_capacity(SCAN_BLOCK as usize);
    let mut lo = 0u32;
    while lo < n {
        let hi = lo.saturating_add(SCAN_BLOCK).min(n);
        ids.clear();
        ids.extend(lo..hi);
        base.dist_to_many(query, &ids, &mut dists);
        for (&i, &d) in ids.iter().zip(dists.iter()) {
            if exclude == Some(i) {
                continue;
            }
            if pool.len() < k || d < pool.last().map_or(f32::INFINITY, |w: &Neighbor| w.dist) {
                insert_into_pool(&mut pool, k, Neighbor::new(i, d));
            }
        }
        lo = hi;
    }
    pool
}

/// `row(i)` for every `i` in `0..n`, in order, on `threads` workers (`0`:
/// one per core) by fixed chunks of [`SCAN_ROWS`], so the output is the
/// serial map's at any thread count.
pub(crate) fn scan_rows<R: Default + Send>(
    n: usize,
    threads: usize,
    row: impl Fn(u32) -> R + Sync,
) -> Vec<R> {
    let mut out: Vec<R> = std::iter::repeat_with(R::default).take(n).collect();
    par_fill(
        &mut out,
        SCAN_ROWS,
        resolve_threads(threads),
        || (),
        |_, start, slot| {
            for (j, x) in slot.iter_mut().enumerate() {
                *x = row((start + j) as u32);
            }
        },
    );
    out
}

fn ids(nn: Vec<Neighbor>) -> Vec<u32> {
    nn.iter().map(|n| n.id).collect()
}

/// Exact k-NN ids for every query, computed in parallel across `threads`
/// (`0`: one per core).
pub fn ground_truth(base: &Dataset, queries: &Dataset, k: usize, threads: usize) -> Vec<Vec<u32>> {
    assert_eq!(base.dim(), queries.dim(), "dimension mismatch");
    scan_rows(queries.len(), threads, |q| {
        ids(knn_scan(base, queries.point(q), k, None))
    })
}

/// Exact KNN ids for every *base* point against the rest of the base set
/// (self excluded), on `threads` (`0`: one per core): the exact KNNG used
/// by the graph-quality metric and by brute-force initializers (IEH,
/// FANNG, k-DR).
pub fn exact_knn_graph(base: &Dataset, k: usize, threads: usize) -> Vec<Vec<u32>> {
    scan_rows(base.len(), threads, |id| {
        ids(knn_scan(base, base.point(id), k, Some(id)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Dataset {
        // Points at x = 0, 1, 2, 3, 4 on a line.
        Dataset::from_rows(&(0..5).map(|i| vec![i as f32, 0.0]).collect::<Vec<_>>())
    }

    #[test]
    fn knn_scan_orders_by_distance() {
        let ds = line();
        let nn = knn_scan(&ds, &[1.9, 0.0], 3, None);
        assert_eq!(nn.iter().map(|n| n.id).collect::<Vec<_>>(), vec![2, 1, 3]);
    }

    #[test]
    fn knn_scan_can_exclude_self() {
        let ds = line();
        let nn = knn_scan(&ds, ds.point(2), 2, Some(2));
        let ids: Vec<u32> = nn.iter().map(|n| n.id).collect();
        assert!(!ids.contains(&2));
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn ground_truth_matches_serial_scan() {
        let ds = line();
        let queries = Dataset::from_rows(&[vec![0.2, 0.0], vec![3.8, 0.0]]);
        let gt = ground_truth(&ds, &queries, 2, 4);
        assert_eq!(gt[0], vec![0, 1]);
        assert_eq!(gt[1], vec![4, 3]);
    }

    #[test]
    fn exact_knn_graph_excludes_self_and_is_parallel_safe() {
        let ds = line();
        for threads in [1, 3] {
            let g = exact_knn_graph(&ds, 2, threads);
            assert_eq!(g.len(), 5);
            assert_eq!(g[0], vec![1, 2]);
            assert_eq!(g[2], vec![1, 3]); // ties broken by id
            for (i, row) in g.iter().enumerate() {
                assert!(!row.contains(&(i as u32)));
            }
        }
    }
}
