//! Behaviour pins for HNSW's mutable adjacency.
//!
//! The builder and the dynamic index keep their growing layers in
//! fixed-stride blocks (`weavess_graph::SlotGraph`); the goldens below were
//! recorded on the nested `Vec<Vec<Vec<u32>>>` lists those blocks replaced
//! (commit f2bcfbf), so they hold only while every neighbor list keeps its
//! content *and order* through every insert, shrink and freeze.
//!
//! Integer coordinates make every distance exact in any summation order
//! (see `kernel_modes.rs`), so the constants hold under all kernel tiers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_core::algorithms::hnsw::{self, HnswParams};
use weavess_core::algorithms::hnsw_dynamic::DynamicHnsw;
use weavess_core::index::AnnIndex;
use weavess_core::persist;
use weavess_data::Dataset;
use weavess_graph::CsrGraph;

/// Seeded small-integer dataset: coordinates in [-16, 16].
fn integer_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-16i32..17) as f32).collect())
        .collect();
    Dataset::from_rows(&rows)
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= b as u64;
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The static index freezes its block layers into the same CSR lists the
/// nested lists froze into: the enter point, `graph()` and every layer are
/// unchanged, so the frozen search path cannot have moved. The digest is
/// over a test-local encoding (enter point, then every layer's lists, each
/// as its length and ids), so it pins the index, not a file format.
#[test]
fn static_hnsw_freezes_to_the_recorded_bytes() {
    let ds = integer_dataset(3_000, 16, 1);
    let idx = hnsw::build(&ds, &HnswParams::tuned(2, 3));
    assert!(idx.num_layers() >= 3, "the pin must cover upper layers");
    let n = ds.len() as u32;
    let mut digest = FNV_OFFSET;
    fnv1a(&mut digest, &idx.enter_point().to_le_bytes());
    for l in 0..idx.num_layers() {
        for list in (0..n).map(|v| idx.neighbors(l, v)) {
            fnv1a(&mut digest, &(list.len() as u32).to_le_bytes());
            list.iter()
                .for_each(|u| fnv1a(&mut digest, &u.to_le_bytes()));
        }
    }
    assert_eq!(digest, 0x9c514b3d1c1a8865, "frozen HNSW layers moved");
    // Layers are exactly their lists: nothing of the block layout (spare
    // slots, stride) leaks into the frozen graph. Layer 0 is one CSR; the
    // upper layers hold one `u32` locator per vertex (and one past the
    // last), one `u64` offset per (vertex, layer) block up to the vertex's
    // last non-empty list (and one past the last) and their edges.
    let layer0 = (0..n).map(|v| idx.neighbors(0, v)).collect::<Vec<_>>();
    assert_eq!(idx.graph(), &CsrGraph::from_lists(&layer0));
    let last_list = |v| {
        (1..idx.num_layers())
            .rev()
            .find(|&l| !idx.neighbors(l, v).is_empty())
    };
    let blocks: usize = (0..n).map(|v| last_list(v).unwrap_or(0)).sum();
    let edges: usize = (1..idx.num_layers())
        .flat_map(|l| (0..n).map(move |v| (l, v)))
        .map(|(l, v)| idx.neighbors(l, v).len())
        .sum();
    assert_eq!(
        idx.memory_bytes(),
        idx.graph().memory_bytes() + 4 * (n as usize + 1) + 8 * (blocks + 1) + 4 * edges
    );
}

/// A fixed 5 000-op insert/delete/search stream answers exactly as it did
/// on the nested lists: result ids, distance bits, returned ids and the
/// work counters of every op.
#[test]
fn dynamic_stream_repeats_the_recorded_answers() {
    const BASE: usize = 600;
    let points = integer_dataset(BASE + 1_400, 16, 2);
    let queries = integer_dataset(64, 16, 3);
    let base = points.subset(&(0..BASE as u32).collect::<Vec<u32>>());
    let mut idx = DynamicHnsw::bulk_load(&base, HnswParams::tuned(2, 5));
    let mut rng = StdRng::seed_from_u64(17);
    let mut live: Vec<u32> = (0..BASE as u32).collect();
    let mut digest = FNV_OFFSET;
    for _ in 0..5_000 {
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < 0.25 && idx.len() < points.len() {
            let id = idx.insert(points.point(idx.len() as u32));
            live.push(id);
            fnv1a(&mut digest, &id.to_le_bytes());
        } else if u < 0.4 && live.len() > 1 {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            fnv1a(&mut digest, &[idx.delete(id) as u8]);
        } else {
            let q = queries.point(rng.gen_range(0..queries.len() as u32));
            for n in idx.search(q, 10, 48) {
                fnv1a(&mut digest, &n.id.to_le_bytes());
                fnv1a(&mut digest, &n.dist.to_bits().to_le_bytes());
            }
        }
        let stats = idx.take_stats();
        fnv1a(&mut digest, &stats.ndc.to_le_bytes());
        fnv1a(&mut digest, &stats.hops.to_le_bytes());
    }
    assert_eq!(idx.len(), BASE + 1_265, "the stream itself moved");
    assert_eq!(digest, 0x7c0a67782f2cb94d, "dynamic HNSW answers moved");
}

/// The saved file is the format, whatever layout the index holds its
/// layers in: `write_hnsw`'s bytes (the record with layer 0, then one list
/// per vertex on every upper layer) for one build at four thread counts.
#[test]
fn write_hnsw_bytes_are_pinned() {
    let ds = integer_dataset(3_000, 16, 1);
    for threads in [1, 2, 3, 8] {
        let idx = hnsw::build(&ds, &HnswParams::tuned(threads, 3));
        let mut bytes = Vec::new();
        persist::write_hnsw(&mut bytes, &idx).unwrap();
        let mut digest = FNV_OFFSET;
        fnv1a(&mut digest, &bytes);
        assert_eq!(
            (bytes.len(), digest),
            (253_159, 0x7fb5_c207_cd01_d4aa),
            "threads {threads}: write_hnsw bytes moved"
        );
    }
}
