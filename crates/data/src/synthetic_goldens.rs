//! Absolute digests of [`MixtureSpec::generate`]'s output bytes.
//!
//! Every dataset in the workspace — the benchmark's inputs, every
//! builder's golden digest, the paper-table runs — starts here, so the
//! generator's bytes are pinned on their own: one FNV-1a digest of the
//! base set and one of the queries, per spec shape and per size around
//! the generator's fixed chunk of [`CHUNK`] points. The digests were
//! recorded from the serial generator; any rewrite must reproduce them
//! unedited.

use crate::dataset::Dataset;
use crate::synthetic::{standins, MixtureSpec};

/// Points per generation chunk; the sizes below straddle it.
const CHUNK: usize = 512;

fn fnv1a(data: &Dataset) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for x in data.flat() {
        for b in x.to_bits().to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    digest
}

/// The four spec shapes `generate` branches on, at `n` base points and
/// `nq` queries.
fn shape(name: &str, n: usize, nq: usize) -> MixtureSpec {
    let subspace = |dim, clusters, std, m, noise, shared, seed| MixtureSpec {
        dim,
        n,
        n_queries: nq,
        clusters,
        std,
        intrinsic_dim: Some(m),
        noise,
        shared_subspace: shared,
        seed,
    };
    match name {
        // Full-dimension isotropic clusters (the paper's Table 10).
        "isotropic" => MixtureSpec::table10(8, n, 5, 3.0, nq),
        // One random subspace per cluster, plus ambient noise.
        "per_cluster" => subspace(10, 4, 2.0, 3, 0.1, false, 0xC0FF_EE01),
        // One shared subspace with overlapping latent centres, plus noise:
        // the benchmark's and the real-world stand-ins' shape.
        "shared" => subspace(12, 6, 5.0, 4, 0.05, true, 0x5EED_0001),
        // Subspace without noise: only the latent normals are drawn.
        "noiseless" => subspace(9, 3, 4.0, 2, 0.0, false, 7),
        _ => unreachable!("unknown shape {name}"),
    }
}

/// Every pinned case, in [`GOLDENS`] order.
fn cases() -> Vec<(String, MixtureSpec)> {
    let sizes = [
        (1, 1),
        (CHUNK - 1, CHUNK + 1),
        (CHUNK, 0),
        (CHUNK + 1, 7),
        (3 * CHUNK + 77, 2 * CHUNK + 76),
    ];
    let mut out = Vec::new();
    for name in ["isotropic", "per_cluster", "shared", "noiseless"] {
        for (n, nq) in sizes {
            out.push((format!("{name} n={n} nq={nq}"), shape(name, n, nq)));
        }
    }
    for s in standins::all(0.002) {
        out.push((format!("standin {}", s.name), s.spec));
    }
    out
}

/// `(case, base digest, query digest)`.
#[rustfmt::skip]
const GOLDENS: &[(&str, u64, u64)] = &[
    ("isotropic n=1 nq=1", 0x5c395c90b95d10e4, 0x25934ba43318df98),
    ("isotropic n=511 nq=513", 0x62b96de5428d2111, 0x2b4810a2ddd9d525),
    ("isotropic n=512 nq=0", 0xb62bf8027de69ffb, 0xcbf29ce484222325),
    ("isotropic n=513 nq=7", 0xfcef54c1c2db157f, 0xf302453ba5487b35),
    ("isotropic n=1613 nq=1100", 0x579962865c0782b8, 0xa93ac5853b2decf4),
    ("per_cluster n=1 nq=1", 0xe0d33546ba99e800, 0xf6d2120e61b9c1ea),
    ("per_cluster n=511 nq=513", 0x73b589ba0687ff1a, 0xaf254cf0f9f580f6),
    ("per_cluster n=512 nq=0", 0x9fd3e7aa58caedf5, 0xcbf29ce484222325),
    ("per_cluster n=513 nq=7", 0x7e957fcb0a867879, 0x55a62ca57107c88f),
    ("per_cluster n=1613 nq=1100", 0x5f4f52aebe018e04, 0x6f7065a2f5ca78a6),
    ("shared n=1 nq=1", 0x1fb20b9292cbcf6e, 0x19628c0dfcc7a984),
    ("shared n=511 nq=513", 0x99294db43fd348a0, 0x58a691e5eea57b9e),
    ("shared n=512 nq=0", 0x053d2ebb3eba4e33, 0xcbf29ce484222325),
    ("shared n=513 nq=7", 0x821ce6a1ea5e7e84, 0x7d936504f748afa0),
    ("shared n=1613 nq=1100", 0x0ca965731bccdf70, 0x29bd4f9eae1a6c74),
    ("noiseless n=1 nq=1", 0x02473d22ec5bce36, 0x6a58c987830264b7),
    ("noiseless n=511 nq=513", 0xbb53d63f7b7a2dfc, 0x20b976adccbbde03),
    ("noiseless n=512 nq=0", 0x6a067f8d55074193, 0xcbf29ce484222325),
    ("noiseless n=513 nq=7", 0x6311e1cce525564e, 0x8b727cd953dce7d1),
    ("noiseless n=1613 nq=1100", 0x95ee434ba12e5734, 0x24f4bae65739efc8),
    ("standin UQ-V", 0x51613aee4beeb034, 0xa2f7da1769525e91),
    ("standin Msong", 0x846fdf037cc9bec7, 0xb8cacdc82c244774),
    ("standin Audio", 0xefc92d3fe68dd8bd, 0xf26c564272268d5c),
    ("standin SIFT1M", 0xe73a0831cf81b57e, 0x9cdb343c2f9f5e5e),
    ("standin GIST1M", 0x9d75dabb38f365c8, 0x8f86e9e8957c7b3b),
    ("standin Crawl", 0x9453e7cabb9eb875, 0x8e52c4b01f0fa04d),
    ("standin GloVe", 0x5e746512ccb068c6, 0x09bea17d94328eb4),
    ("standin Enron", 0xf4853697cb6e644e, 0xbc2ee338fa304150),
];

/// Checks every case generated by `generate` against [`GOLDENS`].
fn check(generate: impl Fn(&MixtureSpec) -> (Dataset, Dataset)) {
    let cases = cases();
    assert_eq!(cases.len(), GOLDENS.len(), "one golden per case");
    for ((label, spec), &(want_label, want_base, want_queries)) in cases.iter().zip(GOLDENS) {
        assert_eq!(label, want_label, "case order");
        let (base, queries) = generate(spec);
        assert_eq!((base.len(), base.dim()), (spec.n, spec.dim), "{label}");
        assert_eq!(queries.len(), spec.n_queries, "{label}");
        assert_eq!(
            (fnv1a(&base), fnv1a(&queries)),
            (want_base, want_queries),
            "{label}: generated bytes moved"
        );
    }
}

#[test]
fn generate_matches_golden_digests() {
    check(MixtureSpec::generate);
}

/// One worker fills every chunk inline; two, three and eight (more
/// workers than chunks for most cases) split them differently.
#[test]
fn every_worker_count_reproduces_the_goldens() {
    assert_eq!(CHUNK, crate::synthetic::CHUNK, "sizes straddle the chunk");
    for workers in [1, 2, 3, 8] {
        check(|spec| spec.generate_on(workers));
    }
}
