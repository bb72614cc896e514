//! Accuracy and difficulty metrics: `Recall@k`, speedup, and local
//! intrinsic dimensionality (LID).

use crate::dataset::Dataset;
use crate::ground_truth::{knn_scan, scan_rows};

/// `Recall@k` for one query: |result ∩ truth| / |truth| (§2.1 and §5.1).
///
/// `truth` must hold the exact k ids; extra entries in `result` beyond
/// `truth.len()` are ignored, matching the paper's |R| = |T| convention.
pub fn recall(result: &[u32], truth: &[u32]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = result
        .iter()
        .take(truth.len())
        .filter(|id| truth.contains(id))
        .count();
    hits as f64 / truth.len() as f64
}

/// Mean `Recall@k` over a query batch.
pub fn mean_recall(results: &[Vec<u32>], truths: &[Vec<u32>]) -> f64 {
    assert_eq!(results.len(), truths.len());
    if results.is_empty() {
        return 1.0;
    }
    results
        .iter()
        .zip(truths)
        .map(|(r, t)| recall(r, t))
        .sum::<f64>()
        / results.len() as f64
}

/// The paper's *speedup* metric: |S| / NDC, i.e. how many times fewer
/// distance computations a search needed than a linear scan.
pub fn speedup(dataset_size: usize, ndc: u64) -> f64 {
    if ndc == 0 {
        return f64::INFINITY;
    }
    dataset_size as f64 / ndc as f64
}

/// Maximum-likelihood LID estimate at one query point from its `k` nearest
/// neighbor distances (Amsaleg et al.; the estimator behind the paper's
/// Table 3 "LID" column):
///
/// `LID = - ( (1/k) Σ_i ln(r_i / r_k) )^-1`
///
/// `dists` must be the *true* (non-squared) neighbor distances in ascending
/// order. Returns `None` when the estimate is degenerate (all distances
/// equal or zero).
pub fn lid_mle(dists: &[f32]) -> Option<f64> {
    let k = dists.len();
    if k < 2 {
        return None;
    }
    let rk = *dists.last().unwrap() as f64;
    if rk <= 0.0 {
        return None;
    }
    let mut acc = 0.0f64;
    let mut used = 0usize;
    for &r in &dists[..k - 1] {
        let r = r as f64;
        if r > 0.0 {
            acc += (r / rk).ln();
            used += 1;
        }
    }
    if used == 0 || acc == 0.0 {
        return None;
    }
    Some(-(used as f64) / acc)
}

/// Mean MLE-LID of a dataset, estimated on `samples` random-stride points
/// with `k` neighbors each (the survey uses k = 100), scanned on `threads`
/// (`0`: one per core).
pub fn dataset_lid(base: &Dataset, k: usize, samples: usize, threads: usize) -> f64 {
    let n = base.len();
    let samples = samples.min(n).max(1);
    let stride = (n / samples).max(1);
    let lids = scan_rows(samples, threads, |s| {
        let id = (s as usize * stride) as u32;
        let nn = knn_scan(base, base.point(id), k, Some(id));
        let dists: Vec<f32> = nn.iter().map(|x| x.dist.sqrt()).collect();
        lid_mle(&dists).unwrap_or(0.0)
    });
    let valid: Vec<f64> = lids.into_iter().filter(|&x| x > 0.0).collect();
    if valid.is_empty() {
        return 0.0;
    }
    valid.iter().sum::<f64>() / valid.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::MixtureSpec;

    #[test]
    fn recall_counts_overlap() {
        assert_eq!(recall(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(recall(&[1, 9, 8], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(recall(&[], &[1, 2]), 0.0);
    }

    #[test]
    fn recall_ignores_extra_results() {
        // |R| = |T| convention: only the first |T| results count.
        assert_eq!(recall(&[9, 8, 1, 2], &[1, 2]), 0.0);
    }

    #[test]
    fn mean_recall_averages() {
        let r = vec![vec![1u32], vec![9u32]];
        let t = vec![vec![1u32], vec![1u32]];
        assert_eq!(mean_recall(&r, &t), 0.5);
    }

    #[test]
    fn speedup_is_scan_over_ndc() {
        assert_eq!(speedup(1000, 10), 100.0);
        assert_eq!(speedup(1000, 0), f64::INFINITY);
    }

    #[test]
    fn lid_of_uniform_ball_tracks_dimension() {
        // Distances r_i = rk * (i/k)^(1/d) are the expected order statistics
        // of a d-dimensional uniform ball; the MLE should recover ~d.
        for d in [2.0f64, 8.0, 16.0] {
            let k = 200;
            let dists: Vec<f32> = (1..=k)
                .map(|i| ((i as f64 / k as f64).powf(1.0 / d)) as f32)
                .collect();
            let est = lid_mle(&dists).unwrap();
            assert!((est - d).abs() / d < 0.15, "d={d} est={est}");
        }
    }

    #[test]
    fn lid_mle_handles_degenerate_input() {
        assert!(lid_mle(&[1.0]).is_none());
        assert!(lid_mle(&[0.0, 0.0]).is_none());
        assert!(lid_mle(&[1.0, 1.0, 1.0]).is_none());
    }

    #[test]
    fn subspace_clusters_lower_measured_lid() {
        // Same ambient dimension, different intrinsic dimension: the
        // measured LID must rank accordingly (this is the property the
        // real-world stand-ins rely on).
        let lo = MixtureSpec {
            intrinsic_dim: Some(4),
            noise: 0.01,
            ..MixtureSpec::table10(32, 2_000, 4, 5.0, 10)
        };
        let hi = MixtureSpec {
            intrinsic_dim: Some(24),
            noise: 0.01,
            ..MixtureSpec::table10(32, 2_000, 4, 5.0, 10)
        };
        let (lo_ds, _) = lo.generate();
        let (hi_ds, _) = hi.generate();
        let lid_lo = dataset_lid(&lo_ds, 50, 100, 4);
        let lid_hi = dataset_lid(&hi_ds, 50, 100, 4);
        assert!(
            lid_lo < lid_hi,
            "expected intrinsic-4 LID ({lid_lo:.2}) < intrinsic-24 LID ({lid_hi:.2})"
        );
    }
}
