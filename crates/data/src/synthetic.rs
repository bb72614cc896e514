//! Seeded synthetic dataset generators.
//!
//! Two families:
//!
//! 1. **Table 10 generators** — the paper's 12 synthetic datasets are
//!    Gaussian mixtures parameterized by dimension, cardinality, number of
//!    clusters, and the per-cluster standard deviation. [`MixtureSpec`]
//!    reproduces them directly.
//! 2. **Real-world stand-ins** — the evaluation machines here have no access
//!    to SIFT1M/GIST1M/etc., so [`standins`] provides eight named generators
//!    with each dataset's true dimensionality and a *controlled intrinsic
//!    dimension*: every cluster lives on a random linear subspace of
//!    dimension ≈ the paper's reported LID (Table 3), plus small ambient
//!    noise. Measured MLE-LID then ranks the stand-ins the same way the
//!    paper ranks the real datasets (audio easiest … glove hardest), which
//!    is the property the paper's "simple vs hard dataset" findings rely on.

use crate::dataset::Dataset;
use crate::parallel::build_pool;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Mutex;

/// Specification of a Gaussian-mixture dataset.
///
/// ```
/// use weavess_data::synthetic::MixtureSpec;
///
/// let (base, queries) = MixtureSpec::table10(16, 1_000, 4, 5.0, 50).generate();
/// assert_eq!((base.len(), base.dim()), (1_000, 16));
/// assert_eq!(queries.len(), 50);
/// // Same spec, same data; new seed, new data.
/// let (again, _) = MixtureSpec::table10(16, 1_000, 4, 5.0, 50).generate();
/// assert_eq!(base, again);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MixtureSpec {
    /// Ambient vector dimensionality.
    pub dim: usize,
    /// Number of base points.
    pub n: usize,
    /// Number of query points (drawn from the same mixture, disjoint draws).
    pub n_queries: usize,
    /// Number of mixture components.
    pub clusters: usize,
    /// Per-cluster standard deviation (the paper's "SD" column).
    pub std: f32,
    /// When set, each cluster is generated on a random `intrinsic_dim`-
    /// dimensional linear subspace (plus [`Self::noise`] ambient jitter),
    /// pinning the local intrinsic dimensionality. `None` = full-dimension
    /// isotropic Gaussian, matching the paper's Table 10 datasets.
    pub intrinsic_dim: Option<usize>,
    /// Ambient isotropic noise added on top of subspace clusters.
    pub noise: f32,
    /// With `intrinsic_dim` set: place every cluster on ONE shared
    /// subspace, with latent centers close enough that cluster tails
    /// overlap. Real feature embeddings are fuzzy multi-modal manifolds,
    /// not disjoint islands; without this, widely separated random
    /// subspaces put an artificial recall ceiling on every single-entry
    /// algorithm. The real-world stand-ins set this; the paper's Table 10
    /// synthetics do not.
    pub shared_subspace: bool,
    /// RNG seed; equal specs generate equal datasets.
    pub seed: u64,
}

impl MixtureSpec {
    /// A full-dimension mixture in the paper's Table 10 style.
    pub fn table10(dim: usize, n: usize, clusters: usize, std: f32, n_queries: usize) -> Self {
        MixtureSpec {
            dim,
            n,
            n_queries,
            clusters,
            std,
            intrinsic_dim: None,
            noise: 0.0,
            shared_subspace: false,
            seed: 0x5EED_0001,
        }
    }

    /// Overrides the seed (Appendix Q reruns randomized builds with
    /// different seeds; dataset seeds vary the same way).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates `(base, queries)` datasets, on every available core.
    ///
    /// The bytes are a pure function of the spec: equal to what one
    /// thread drawing every point from one seeded stream produces, on
    /// any number of cores.
    pub fn generate(&self) -> (Dataset, Dataset) {
        let workers = std::thread::available_parallelism().map_or(1, |p| p.get());
        self.generate_on(workers)
    }

    /// [`Self::generate`] on at most `workers` threads, the caller's
    /// included.
    pub(crate) fn generate_on(&self, workers: usize) -> (Dataset, Dataset) {
        assert!(self.clusters >= 1, "need at least one cluster");
        assert!(self.n > 0 && self.dim > 0);
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Cluster centers uniform in [0, 100]^dim: well separated relative
        // to typical SD values (1..10), like the paper's setup where more
        // clusters / larger SD make the dataset harder.
        let centers: Vec<Vec<f32>> = (0..self.clusters)
            .map(|_| (0..self.dim).map(|_| rng.gen_range(0.0..100.0)).collect())
            .collect();

        // Optional subspace bases (dim x m), orthonormalized: one per
        // cluster, or a single shared one (see `shared_subspace`).
        let bases: Option<Vec<Vec<f32>>> = self.intrinsic_dim.map(|m| {
            assert!(m >= 1 && m <= self.dim, "intrinsic_dim must be in 1..=dim");
            if self.shared_subspace {
                vec![random_orthonormal_basis(self.dim, m, &mut rng)]
            } else {
                (0..self.clusters)
                    .map(|_| random_orthonormal_basis(self.dim, m, &mut rng))
                    .collect()
            }
        });
        // Shared-subspace latent cluster centers: spread ~6 sigma keeps
        // modes distinct while tails overlap (fuzzy, navigable manifold).
        let latent_centers: Option<Vec<Vec<f32>>> = if self.shared_subspace {
            self.intrinsic_dim.map(|m| {
                let spread = self.std * 6.0;
                (0..self.clusters)
                    .map(|_| (0..m).map(|_| rng.gen_range(0.0..spread)).collect())
                    .collect()
            })
        } else {
            None
        };

        // Fills `out` with consecutive points of one set, the first being
        // that set's point `first`, drawing from `rng` positioned at it.
        let m = self.intrinsic_dim.unwrap_or(0);
        let fill = |first: usize, out: &mut [f32], rng: &mut StdRng, z: &mut Vec<f32>| {
            for (r, row) in out.chunks_exact_mut(self.dim).enumerate() {
                // Deterministic round-robin cluster assignment keeps cluster
                // sizes balanced, as in the paper's balanced mixtures.
                let c = (first + r) % self.clusters;
                let center = &centers[c];
                match &bases {
                    None => {
                        for (x, &cd) in row.iter_mut().zip(center) {
                            *x = cd + gaussian(rng) * self.std;
                        }
                    }
                    Some(bs) => {
                        z.clear();
                        let basis = match &latent_centers {
                            // Shared subspace: latent = cluster center + noise.
                            Some(lc) => {
                                z.extend(lc[c].iter().map(|&l| l + gaussian(rng) * self.std));
                                &bs[0]
                            }
                            // Per-cluster subspace around the ambient center.
                            None => {
                                z.extend((0..m).map(|_| gaussian(rng) * self.std));
                                &bs[c]
                            }
                        };
                        // Shared subspace ignores the ambient centers: the
                        // whole manifold hangs off one global offset.
                        let global = 50.0f32;
                        for (d, dst) in row.iter_mut().enumerate() {
                            let mut x = if latent_centers.is_some() {
                                global
                            } else {
                                center[d]
                            };
                            for (j, &zj) in z.iter().enumerate() {
                                x += basis[j * self.dim + d] * zj;
                            }
                            if self.noise > 0.0 {
                                x += gaussian(rng) * self.noise;
                            }
                            *dst = x;
                        }
                    }
                }
            }
        };

        // Every point consumes the same number of raw draws, two per
        // normal, so where the stream stands at any point is known without
        // generating the points before it.
        let normals = match self.intrinsic_dim {
            None => self.dim,
            Some(m) => m + if self.noise > 0.0 { self.dim } else { 0 },
        };
        let draws_per_point = 2 * normals;

        // The stream is handed out one chunk at a time, base chunks then
        // query chunks, in order: whoever takes a chunk gets the stream's
        // state at its first point (a checkpoint) and advances the shared
        // state past the chunk (~1 ns a draw, against ~20 ns a draw to
        // fill it) while the other workers fill theirs. Who fills a chunk
        // never changes what it holds.
        let mut base = Dataset::zeroed(self.n, self.dim);
        let mut queries = Dataset::zeroed(self.n_queries, self.dim);
        let rows = CHUNK * self.dim;
        let n_chunks = self.n.div_ceil(CHUNK) + self.n_queries.div_ceil(CHUNK);
        let chunks = base
            .flat_mut()
            .chunks_mut(rows)
            .enumerate()
            .chain(queries.flat_mut().chunks_mut(rows).enumerate());
        let stream = Mutex::new((rng, chunks));
        let work = || {
            let mut z = Vec::with_capacity(m);
            loop {
                let (mut checkpoint, c, out) = {
                    let mut guard = stream.lock().expect("a generator worker panicked");
                    let (rng, chunks) = &mut *guard;
                    let Some((c, out)) = chunks.next() else {
                        return;
                    };
                    let checkpoint = rng.clone();
                    for _ in 0..out.len() / self.dim * draws_per_point {
                        rng.next_u64();
                    }
                    (checkpoint, c, out)
                };
                fill(c * CHUNK, out, &mut checkpoint, &mut z);
            }
        };
        build_pool().run(workers.min(n_chunks), |_| work());
        (base, queries)
    }
}

/// Points per generation chunk, the unit one worker fills: a 2 000-point
/// stand-in still splits across cores, and the serial skip over a chunk's
/// draws stays a few percent of filling it.
pub(crate) const CHUNK: usize = 512;

/// Standard-normal sample via Box-Muller (avoids a rand_distr dependency).
fn gaussian(rng: &mut StdRng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

/// Random `m`-dimensional orthonormal basis in `R^dim`, rows concatenated
/// (`m * dim` floats), produced by Gram-Schmidt on Gaussian vectors.
fn random_orthonormal_basis(dim: usize, m: usize, rng: &mut StdRng) -> Vec<f32> {
    let mut basis = vec![0.0f32; m * dim];
    for j in 0..m {
        // Draw, then orthogonalize against previous rows.
        let mut v: Vec<f32> = (0..dim).map(|_| gaussian(rng)).collect();
        for prev in 0..j {
            let row = &basis[prev * dim..(prev + 1) * dim];
            let proj: f32 = v.iter().zip(row).map(|(a, b)| a * b).sum();
            for d in 0..dim {
                v[d] -= proj * row[d];
            }
        }
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt().max(1e-12);
        for d in 0..dim {
            basis[j * dim + d] = v[d] / norm;
        }
    }
    basis
}

/// The paper's 12 synthetic datasets (Table 10), scaled by `scale`
/// (`scale = 1.0` reproduces the paper's cardinalities).
pub fn table10_specs(scale: f64) -> Vec<(&'static str, MixtureSpec)> {
    let n = |base: usize| ((base as f64 * scale) as usize).max(1000);
    let q = |base: usize| ((base as f64 * scale) as usize).max(100);
    vec![
        (
            "d_8",
            MixtureSpec::table10(8, n(100_000), 10, 5.0, q(1_000)),
        ),
        (
            "d_32",
            MixtureSpec::table10(32, n(100_000), 10, 5.0, q(1_000)),
        ),
        (
            "d_128",
            MixtureSpec::table10(128, n(100_000), 10, 5.0, q(1_000)),
        ),
        (
            "n_10000",
            MixtureSpec::table10(32, n(10_000), 10, 5.0, q(100)),
        ),
        (
            "n_100000",
            MixtureSpec::table10(32, n(100_000), 10, 5.0, q(1_000)),
        ),
        (
            "n_1000000",
            MixtureSpec::table10(32, n(1_000_000), 10, 5.0, q(10_000)),
        ),
        (
            "c_1",
            MixtureSpec::table10(32, n(100_000), 1, 5.0, q(1_000)),
        ),
        (
            "c_10",
            MixtureSpec::table10(32, n(100_000), 10, 5.0, q(1_000)),
        ),
        (
            "c_100",
            MixtureSpec::table10(32, n(100_000), 100, 5.0, q(1_000)),
        ),
        (
            "s_1",
            MixtureSpec::table10(32, n(100_000), 10, 1.0, q(1_000)),
        ),
        (
            "s_5",
            MixtureSpec::table10(32, n(100_000), 10, 5.0, q(1_000)),
        ),
        (
            "s_10",
            MixtureSpec::table10(32, n(100_000), 10, 10.0, q(1_000)),
        ),
    ]
}

/// Stand-ins for the paper's eight real-world datasets (Table 3).
///
/// Dimensions are the real ones; intrinsic dimension tracks the paper's LID
/// column so difficulty *ranks* the same; cardinality is the real count
/// scaled by `scale` (the evaluation here is laptop-scale).
pub mod standins {
    use super::MixtureSpec;

    /// One stand-in: paper-reported stats plus the generator.
    pub struct StandIn {
        /// Dataset name as used in the paper.
        pub name: &'static str,
        /// LID reported in Table 3 (target for the generator).
        pub paper_lid: f32,
        /// Generator specification.
        pub spec: MixtureSpec,
    }

    fn spec(
        dim: usize,
        real_n: usize,
        scale: f64,
        clusters: usize,
        intrinsic: usize,
        seed: u64,
    ) -> MixtureSpec {
        let n = ((real_n as f64 * scale) as usize).clamp(2_000, real_n);
        // Local structure (and hence measured LID) needs clusters that are
        // large relative to the k-NN neighborhoods; cap the cluster count
        // so each keeps at least ~500 points at reduced scales.
        let clusters = clusters.min((n / 500).max(2));
        MixtureSpec {
            dim,
            n,
            n_queries: (n / 100).clamp(100, 10_000),
            clusters,
            std: 5.0,
            intrinsic_dim: Some(intrinsic.min(dim)),
            noise: 0.05,
            shared_subspace: true,
            seed,
        }
    }

    /// All eight stand-ins at a given cardinality scale.
    pub fn all(scale: f64) -> Vec<StandIn> {
        vec![
            StandIn {
                name: "UQ-V",
                paper_lid: 7.2,
                spec: spec(256, 1_000_000, scale, 20, 7, 0xD5_0001),
            },
            StandIn {
                name: "Msong",
                paper_lid: 9.5,
                spec: spec(420, 992_272, scale, 15, 9, 0xD5_0002),
            },
            StandIn {
                name: "Audio",
                paper_lid: 5.6,
                spec: spec(192, 53_387, scale, 10, 5, 0xD5_0003),
            },
            StandIn {
                name: "SIFT1M",
                paper_lid: 9.3,
                spec: spec(128, 1_000_000, scale, 25, 9, 0xD5_0004),
            },
            StandIn {
                name: "GIST1M",
                paper_lid: 18.9,
                spec: spec(960, 1_000_000, scale, 30, 19, 0xD5_0005),
            },
            StandIn {
                name: "Crawl",
                paper_lid: 15.7,
                spec: spec(300, 1_989_995, scale, 40, 16, 0xD5_0006),
            },
            StandIn {
                name: "GloVe",
                paper_lid: 20.0,
                spec: spec(100, 1_183_514, scale, 50, 20, 0xD5_0007),
            },
            StandIn {
                name: "Enron",
                paper_lid: 11.7,
                spec: spec(1_369, 94_987, scale, 15, 12, 0xD5_0008),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = MixtureSpec::table10(8, 200, 4, 2.0, 10);
        let (a, _) = s.generate();
        let (b, _) = s.clone().generate();
        assert_eq!(a, b);
        let (c, _) = s.with_seed(99).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn shapes_match_spec() {
        let s = MixtureSpec::table10(16, 500, 5, 3.0, 40);
        let (base, queries) = s.generate();
        assert_eq!(base.len(), 500);
        assert_eq!(base.dim(), 16);
        assert_eq!(queries.len(), 40);
        assert_eq!(queries.dim(), 16);
    }

    #[test]
    fn clusters_are_separated() {
        // With std=1 and centers in [0,100]^8, same-cluster points are far
        // closer than the typical inter-center distance.
        let s = MixtureSpec::table10(8, 400, 4, 1.0, 10);
        let (base, _) = s.generate();
        // Points i and i+4 share a cluster under round-robin assignment.
        let same = base.dist(0, 4);
        let cross = base.dist(0, 1);
        assert!(same < cross, "same={same} cross={cross}");
    }

    #[test]
    fn orthonormal_basis_is_orthonormal() {
        let mut rng = StdRng::seed_from_u64(7);
        let dim = 24;
        let m = 6;
        let b = random_orthonormal_basis(dim, m, &mut rng);
        for i in 0..m {
            for j in 0..m {
                let dot: f32 = (0..dim).map(|d| b[i * dim + d] * b[j * dim + d]).sum();
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((dot - want).abs() < 1e-4, "({i},{j}) dot={dot}");
            }
        }
    }

    #[test]
    fn table10_has_twelve_datasets() {
        let specs = table10_specs(0.01);
        assert_eq!(specs.len(), 12);
        assert!(specs.iter().any(|(n, _)| *n == "c_100"));
    }

    #[test]
    fn standins_cover_all_eight() {
        let s = standins::all(0.01);
        assert_eq!(s.len(), 8);
        let gist = s.iter().find(|x| x.name == "GIST1M").unwrap();
        assert_eq!(gist.spec.dim, 960);
    }
}
