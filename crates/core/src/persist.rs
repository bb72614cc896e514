//! Index persistence: save a built graph index to disk and reload it
//! without rebuilding — what makes the survey's expensive constructions
//! (Figure 5) a one-time cost in practice.
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! magic "WVSS" | u32 version | name | router | seeds | graph
//! ```
//!
//! Only self-contained seed strategies (`Random`, `Fixed`) serialize;
//! tree-backed strategies are cheap to rebuild relative to the graph and
//! are rejected with [`PersistError::UnsupportedSeeds`] — callers keep the
//! tree's build recipe alongside the file.

use crate::algorithms::hnsw::HnswIndex;
use crate::algorithms::Algo;
use crate::components::seeds::SeedStrategy;
use crate::index::FlatIndex;
use crate::locality::{LayoutIndex, NodeLayout};
use crate::search::Router;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use weavess_data::Dataset;
use weavess_graph::reorder::Permutation;
use weavess_graph::CsrGraph;

const MAGIC: &[u8; 4] = b"WVSS";
const VERSION: u32 = 1;
const HNSW_MAGIC: &[u8; 4] = b"WVSH";
const HNSW_VERSION: u32 = 1;
const LAYOUT_MAGIC: &[u8; 4] = b"WVSL";
/// v2 appended the optional catapult overlay segment; v1 files (no
/// overlay section) still load.
const LAYOUT_VERSION: u32 = 2;

/// Errors from saving or loading an index.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a weavess index or has a wrong version.
    BadFormat(String),
    /// The index uses a seed strategy that is not self-contained.
    UnsupportedSeeds(&'static str),
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "io error: {e}"),
            PersistError::BadFormat(m) => write!(f, "bad index file: {m}"),
            PersistError::UnsupportedSeeds(s) => {
                write!(
                    f,
                    "seed strategy '{s}' is not serializable; rebuild it at load time"
                )
            }
        }
    }
}

impl std::error::Error for PersistError {}

/// Saves a [`FlatIndex`] (graph + router + self-contained seeds).
pub fn save_index(path: &Path, index: &FlatIndex) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_index(&mut w, index)?;
    w.flush()?;
    Ok(())
}

/// Serializes a [`FlatIndex`] to any writer — the exact bytes
/// [`save_index`] puts on disk, also usable for in-memory digesting (the
/// build-determinism tests hash this stream).
pub fn write_index(w: &mut impl Write, index: &FlatIndex) -> Result<(), PersistError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_str(w, index.name)?;
    write_router(w, &index.router)?;
    write_seeds(w, &index.seeds)?;
    write_graph_lists(w, &index.graph.to_lists())?;
    Ok(())
}

fn write_router(w: &mut impl Write, router: &Router) -> Result<(), PersistError> {
    match router {
        Router::BestFirst => {
            w.write_all(&[0u8])?;
        }
        Router::Range { epsilon } => {
            w.write_all(&[1u8])?;
            w.write_all(&epsilon.to_le_bytes())?;
        }
        Router::Backtrack { extra } => {
            w.write_all(&[2u8])?;
            w.write_all(&(*extra as u64).to_le_bytes())?;
        }
        Router::Guided => {
            w.write_all(&[3u8])?;
        }
        Router::TwoStage { stage1_beam_frac } => {
            w.write_all(&[4u8])?;
            w.write_all(&stage1_beam_frac.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_router(r: &mut impl Read) -> Result<Router, PersistError> {
    Ok(match read_u8(r)? {
        0 => Router::BestFirst,
        1 => Router::Range {
            epsilon: read_f32(r)?,
        },
        2 => Router::Backtrack {
            extra: read_u64(r)? as usize,
        },
        3 => Router::Guided,
        4 => Router::TwoStage {
            stage1_beam_frac: read_f32(r)?,
        },
        t => return Err(PersistError::BadFormat(format!("unknown router tag {t}"))),
    })
}

fn write_seeds(w: &mut impl Write, seeds: &SeedStrategy) -> Result<(), PersistError> {
    match seeds {
        SeedStrategy::Random { count } => {
            w.write_all(&[0u8])?;
            w.write_all(&(*count as u64).to_le_bytes())?;
        }
        SeedStrategy::Fixed(v) => {
            w.write_all(&[1u8])?;
            w.write_all(&(v.len() as u64).to_le_bytes())?;
            for &x in v {
                w.write_all(&x.to_le_bytes())?;
            }
        }
        other => return Err(PersistError::UnsupportedSeeds(other.label())),
    }
    Ok(())
}

fn read_seeds(r: &mut impl Read) -> Result<SeedStrategy, PersistError> {
    Ok(match read_u8(r)? {
        0 => SeedStrategy::Random {
            count: read_u64(r)? as usize,
        },
        1 => {
            let len = read_u64(r)? as usize;
            SeedStrategy::Fixed(read_u32s(r, len)?)
        }
        t => return Err(PersistError::BadFormat(format!("unknown seed tag {t}"))),
    })
}

/// Rejects seeds no saved index carries and no query could use: a fixed
/// id outside the graph (an out-of-bounds read at the first query, or in
/// the permutation remap at load), or a per-query random draw above
/// [`MAX_PREALLOC`]. The count is not held to `n`: a tiny index may carry
/// the default ten draws over fewer points, and seeding clamps it.
fn check_seeds(seeds: &SeedStrategy, n: usize) -> Result<(), PersistError> {
    let problem = match seeds {
        SeedStrategy::Fixed(ids) => ids
            .iter()
            .find(|&&id| id as usize >= n)
            .map(|id| format!("fixed seed {id} out of range (n={n})")),
        SeedStrategy::Random { count } if *count > MAX_PREALLOC => {
            Some(format!("implausible random seed count {count}"))
        }
        _ => None,
    };
    problem.map_or(Ok(()), |m| Err(PersistError::BadFormat(m)))
}

fn write_graph_lists(w: &mut impl Write, lists: &[Vec<u32>]) -> Result<(), PersistError> {
    w.write_all(&(lists.len() as u64).to_le_bytes())?;
    for l in lists {
        w.write_all(&(l.len() as u32).to_le_bytes())?;
        for &x in l {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_graph_lists(r: &mut impl Read) -> Result<Vec<Vec<u32>>, PersistError> {
    let n = read_u64(r)? as usize;
    let mut lists: Vec<Vec<u32>> = Vec::with_capacity(n.min(MAX_PREALLOC));
    for _ in 0..n {
        let deg = read_u32(r)? as usize;
        let l = read_u32s(r, deg)?;
        if let Some(id) = l.iter().find(|&&id| id as usize >= n) {
            return Err(PersistError::BadFormat(format!(
                "edge target {id} out of range (n={n})"
            )));
        }
        lists.push(l);
    }
    Ok(lists)
}

/// Loads a [`FlatIndex`] saved by [`save_index`].
pub fn load_index(path: &Path) -> Result<FlatIndex, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(PersistError::BadFormat("wrong magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(PersistError::BadFormat(format!(
            "version {version}, expected {VERSION}"
        )));
    }
    let name = read_str(&mut r)?;
    let router = read_router(&mut r)?;
    let seeds = read_seeds(&mut r)?;
    let lists = read_graph_lists(&mut r)?;
    check_seeds(&seeds, lists.len())?;
    Ok(FlatIndex {
        name: intern_name(name),
        graph: CsrGraph::from_lists(&lists),
        seeds,
        router,
    })
}

/// Saves a [`LayoutIndex`] (graph + router + seeds + permutation +
/// layout tag + optional catapult overlay segment). Both graph segments
/// are written in *original* id space — the permutation is stored
/// separately and re-applied at load — so files saved from a reordered
/// and an unreordered index differ only in the permutation block. The
/// *base* segment is stored (overlay stripped back out), then the
/// overlay segment; the load path re-merges them, so an adapted index
/// round-trips without storing its adjacency twice.
pub fn save_layout_index(path: &Path, index: &LayoutIndex) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_layout_index(&mut w, index)?;
    w.flush()?;
    Ok(())
}

/// Serializes a [`LayoutIndex`] to any writer — the exact bytes
/// [`save_layout_index`] puts on disk.
pub fn write_layout_index(w: &mut impl Write, index: &LayoutIndex) -> Result<(), PersistError> {
    w.write_all(LAYOUT_MAGIC)?;
    w.write_all(&LAYOUT_VERSION.to_le_bytes())?;
    write_str(w, index.name)?;
    write_router(w, &index.router)?;
    write_seeds(w, &index.seeds)?;
    match index.layout() {
        crate::locality::NodeLayout::Split => w.write_all(&[0u8])?,
        crate::locality::NodeLayout::Fused => w.write_all(&[1u8])?,
    }
    let base = index.base_graph();
    match index.permutation() {
        Some(p) => {
            w.write_all(&[1u8])?;
            w.write_all(&(p.len() as u64).to_le_bytes())?;
            for &old in p.inverse() {
                w.write_all(&old.to_le_bytes())?;
            }
            write_graph_lists(w, &unpermute_lists(&base, p))?;
        }
        None => {
            w.write_all(&[0u8])?;
            write_graph_lists(w, &base.to_lists())?;
        }
    }
    // v2: the catapult overlay segment, also in original id space.
    match index.overlay() {
        Some(o) => {
            w.write_all(&[1u8])?;
            let lists = match index.permutation() {
                Some(p) => unpermute_lists(o, p),
                None => o.to_lists(),
            };
            write_graph_lists(w, &lists)?;
        }
        None => w.write_all(&[0u8])?,
    }
    Ok(())
}

/// Un-applies a permutation: adjacency of `graph` rewritten in original
/// id space.
fn unpermute_lists(graph: &CsrGraph, p: &Permutation) -> Vec<Vec<u32>> {
    (0..graph.len() as u32)
        .map(|v| {
            graph
                .neighbors(p.to_new(v))
                .iter()
                .map(|&u| p.to_old(u))
                .collect()
        })
        .collect()
}

/// Loads a [`LayoutIndex`] saved by [`save_layout_index`], rebuilding the
/// vector copy / fused arena from `ds` (the same dataset the index was
/// built over — vectors are not stored in the file).
pub fn load_layout_index(path: &Path, ds: &Dataset) -> Result<LayoutIndex, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != LAYOUT_MAGIC {
        return Err(PersistError::BadFormat("wrong layout magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version == 0 || version > LAYOUT_VERSION {
        return Err(PersistError::BadFormat(format!(
            "layout version {version}, expected 1..={LAYOUT_VERSION}"
        )));
    }
    let name = read_str(&mut r)?;
    let router = read_router(&mut r)?;
    let seeds = read_seeds(&mut r)?;
    let layout = match read_u8(&mut r)? {
        0 => NodeLayout::Split,
        1 => NodeLayout::Fused,
        t => return Err(PersistError::BadFormat(format!("unknown layout tag {t}"))),
    };
    let perm = match read_u8(&mut r)? {
        0 => None,
        1 => {
            let n = read_u64(&mut r)? as usize;
            let inverse = read_u32s(&mut r, n)?;
            Some(Permutation::from_inverse(inverse).map_err(PersistError::BadFormat)?)
        }
        t => {
            return Err(PersistError::BadFormat(format!(
                "unknown permutation flag {t}"
            )))
        }
    };
    let lists = read_graph_lists(&mut r)?;
    check_seeds(&seeds, lists.len())?;
    if lists.len() != ds.len() {
        return Err(PersistError::BadFormat(format!(
            "graph has {} vertices but dataset has {}",
            lists.len(),
            ds.len()
        )));
    }
    if let Some(p) = &perm {
        if p.len() != lists.len() {
            return Err(PersistError::BadFormat(format!(
                "permutation over {} vertices but graph has {}",
                p.len(),
                lists.len()
            )));
        }
    }
    // v2: the optional catapult overlay segment, validated before the
    // merge (edge ranges are checked by `read_graph_lists`; self-loops
    // and duplicate shortcuts can never come out of the miner, so their
    // presence means corruption).
    let overlay = if version >= 2 {
        match read_u8(&mut r)? {
            0 => None,
            1 => {
                let olists = read_graph_lists(&mut r)?;
                if olists.len() != lists.len() {
                    return Err(PersistError::BadFormat(format!(
                        "overlay covers {} vertices but graph has {}",
                        olists.len(),
                        lists.len()
                    )));
                }
                for (v, l) in olists.iter().enumerate() {
                    for (i, &t) in l.iter().enumerate() {
                        if t as usize == v {
                            return Err(PersistError::BadFormat(format!(
                                "overlay self-loop at vertex {v}"
                            )));
                        }
                        if l[..i].contains(&t) {
                            return Err(PersistError::BadFormat(format!(
                                "duplicate overlay edge {v} -> {t}"
                            )));
                        }
                    }
                }
                Some(CsrGraph::from_lists(&olists))
            }
            t => return Err(PersistError::BadFormat(format!("unknown overlay flag {t}"))),
        }
    } else {
        None
    };
    Ok(LayoutIndex::assemble_with_overlay(
        intern_name(name),
        router,
        seeds,
        perm,
        &CsrGraph::from_lists(&lists),
        overlay.as_ref(),
        ds,
        layout,
    ))
}

/// Saves an [`HnswIndex`] (all layers + enter point).
pub fn save_hnsw(path: &Path, index: &HnswIndex) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    write_hnsw(&mut w, index)?;
    w.flush()?;
    Ok(())
}

/// Serializes an [`HnswIndex`] to any writer — the exact bytes
/// [`save_hnsw`] puts on disk, also usable for in-memory digesting.
pub fn write_hnsw(w: &mut impl Write, index: &HnswIndex) -> Result<(), PersistError> {
    w.write_all(HNSW_MAGIC)?;
    w.write_all(&HNSW_VERSION.to_le_bytes())?;
    w.write_all(&index.enter_point().to_le_bytes())?;
    w.write_all(&(index.num_layers() as u32).to_le_bytes())?;
    for l in 0..index.num_layers() {
        write_graph_lists(w, &index.layer(l).to_lists())?;
    }
    Ok(())
}

/// Loads an [`HnswIndex`] saved by [`save_hnsw`].
pub fn load_hnsw(path: &Path) -> Result<HnswIndex, PersistError> {
    let mut r = BufReader::new(File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != HNSW_MAGIC {
        return Err(PersistError::BadFormat("wrong HNSW magic".into()));
    }
    let version = read_u32(&mut r)?;
    if version != HNSW_VERSION {
        return Err(PersistError::BadFormat(format!(
            "HNSW version {version}, expected {HNSW_VERSION}"
        )));
    }
    let enter = read_u32(&mut r)?;
    let n_layers = read_u32(&mut r)? as usize;
    if n_layers == 0 || n_layers > 64 {
        return Err(PersistError::BadFormat(format!(
            "implausible layer count {n_layers}"
        )));
    }
    let mut layers = Vec::with_capacity(n_layers);
    let mut n0 = 0usize;
    for li in 0..n_layers {
        let lists = read_graph_lists(&mut r)?;
        if li == 0 {
            n0 = lists.len();
        } else if lists.len() != n0 {
            return Err(PersistError::BadFormat("layer size mismatch".into()));
        }
        layers.push(CsrGraph::from_lists(&lists));
    }
    if enter as usize >= n0 {
        return Err(PersistError::BadFormat("enter point out of range".into()));
    }
    Ok(HnswIndex::from_parts(layers, enter))
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

/// Longest index name a file may carry.
const MAX_NAME_LEN: usize = 1024;

/// Names [`intern_name`] has leaked, one allocation per distinct string
/// for the life of the process.
static INTERNED_NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// The `&'static str` an index carries for a name read from a file: the
/// registry's own string for a built-in algorithm, otherwise one leaked
/// copy per distinct name however often it is loaded ([`read_str`] has
/// bounded its length), so reloading indexes does not grow the process.
fn intern_name(name: String) -> &'static str {
    if let Some(builtin) = Algo::all().iter().map(Algo::name).find(|b| *b == name) {
        return builtin;
    }
    // Insert-only set: valid at every step, so a poisoned guard is too.
    let mut interned = INTERNED_NAMES
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(known) = interned.get(name.as_str()) {
        return known;
    }
    let leaked: &'static str = Box::leak(name.into_boxed_str());
    interned.insert(leaked);
    leaked
}

fn read_str(r: &mut impl Read) -> Result<String, PersistError> {
    let len = read_u32(r)? as usize;
    if len > MAX_NAME_LEN {
        return Err(PersistError::BadFormat("name too long".into()));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| PersistError::BadFormat("name not utf-8".into()))
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(f32::from_le_bytes(b))
}

/// Most elements reserved ahead of reading them. A count in the file is
/// unvalidated input: reserving it whole lets a 25-byte file panic with
/// "capacity overflow" or abort in the allocator, where reading on simply
/// runs into `UnexpectedEof`.
const MAX_PREALLOC: usize = 1 << 16;

fn read_u32s(r: &mut impl Read, count: usize) -> io::Result<Vec<u32>> {
    let mut v = Vec::with_capacity(count.min(MAX_PREALLOC));
    for _ in 0..count {
        v.push(read_u32(r)?);
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::nsg::{self, NsgParams};
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::synthetic::MixtureSpec;
    use weavess_trees::VpTree;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("weavess_persist");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn nsg_roundtrips_and_searches_identically() {
        let (ds, qs) = MixtureSpec::table10(8, 600, 2, 5.0, 10).generate();
        let idx = nsg::build(&ds, &NsgParams::tuned(2, 1));
        let path = tmp("nsg.wvss");
        save_index(&path, &idx).unwrap();
        let loaded = load_index(&path).unwrap();
        assert_eq!(loaded.name, "NSG");
        assert_eq!(loaded.graph, idx.graph);
        assert_eq!(loaded.router, idx.router);
        // Fixed seeds -> identical search results.
        let mut c1 = SearchContext::new(ds.len());
        let mut c2 = SearchContext::new(ds.len());
        for qi in 0..qs.len() as u32 {
            let a = idx.search(&ds, qs.point(qi), 10, 40, &mut c1);
            let b = loaded.search(&ds, qs.point(qi), 10, 40, &mut c2);
            assert_eq!(a, b);
        }
        assert_eq!(c1.stats, c2.stats);
    }

    #[test]
    fn hnsw_roundtrips_and_searches_identically() {
        use crate::algorithms::hnsw::{self, HnswParams};
        let (ds, qs) = MixtureSpec::table10(8, 800, 2, 5.0, 15).generate();
        let idx = hnsw::build(&ds, &HnswParams::tuned(1, 1));
        let path = tmp("hnsw.wvsh");
        save_hnsw(&path, &idx).unwrap();
        let loaded = load_hnsw(&path).unwrap();
        assert_eq!(loaded.num_layers(), idx.num_layers());
        assert_eq!(loaded.enter_point(), idx.enter_point());
        let mut c1 = SearchContext::new(ds.len());
        let mut c2 = SearchContext::new(ds.len());
        for qi in 0..qs.len() as u32 {
            let a = idx.search(&ds, qs.point(qi), 10, 40, &mut c1);
            let b = loaded.search(&ds, qs.point(qi), 10, 40, &mut c2);
            assert_eq!(a, b);
        }
        assert_eq!(c1.stats, c2.stats);
    }

    #[test]
    fn hnsw_loader_rejects_flat_index_files() {
        let (ds, _) = MixtureSpec::table10(4, 50, 1, 5.0, 5).generate();
        let idx = nsg::build(&ds, &NsgParams::tuned(1, 1));
        let path = tmp("flat_as_hnsw.wvss");
        save_index(&path, &idx).unwrap();
        assert!(matches!(load_hnsw(&path), Err(PersistError::BadFormat(_))));
    }

    #[test]
    fn all_router_variants_roundtrip() {
        let (ds, _) = MixtureSpec::table10(4, 50, 1, 5.0, 5).generate();
        for router in [
            Router::BestFirst,
            Router::Range { epsilon: 0.25 },
            Router::Backtrack { extra: 7 },
            Router::Guided,
            Router::TwoStage {
                stage1_beam_frac: 0.4,
            },
        ] {
            let idx = FlatIndex {
                name: "test",
                graph: weavess_graph::base::exact_knng(&ds, 3, 1),
                seeds: SeedStrategy::Fixed(vec![0, 7]),
                router: router.clone(),
            };
            let path = tmp("router.wvss");
            save_index(&path, &idx).unwrap();
            let loaded = load_index(&path).unwrap();
            assert_eq!(loaded.router, router);
        }
    }

    #[test]
    fn tree_seeds_are_rejected_with_clear_error() {
        let (ds, _) = MixtureSpec::table10(4, 50, 1, 5.0, 5).generate();
        let idx = FlatIndex {
            name: "test",
            graph: weavess_graph::base::exact_knng(&ds, 3, 1),
            seeds: SeedStrategy::Vp {
                tree: VpTree::build(&ds, 8),
                count: 4,
                checks: 32,
            },
            router: Router::BestFirst,
        };
        let err = save_index(&tmp("vp.wvss"), &idx).unwrap_err();
        assert!(matches!(err, PersistError::UnsupportedSeeds("vp-tree")));
    }

    #[test]
    fn layout_index_roundtrips_for_every_layout_combination() {
        use crate::locality::{LayoutIndex, NodeLayout};
        let (ds, qs) = MixtureSpec::table10(8, 600, 2, 5.0, 10).generate();
        for layout in [NodeLayout::Split, NodeLayout::Fused] {
            for reorder in [false, true] {
                let flat = nsg::build(&ds, &NsgParams::tuned(2, 1));
                let idx = LayoutIndex::from_flat(flat, &ds, layout, reorder);
                let path = tmp("layout.wvsl");
                save_layout_index(&path, &idx).unwrap();
                let loaded = load_layout_index(&path, &ds).unwrap();
                assert_eq!(loaded.layout(), layout);
                assert_eq!(loaded.is_reordered(), reorder);
                assert_eq!(loaded.permutation(), idx.permutation());
                assert_eq!(loaded.graph(), idx.graph());
                let mut c1 = SearchContext::new(ds.len());
                let mut c2 = SearchContext::new(ds.len());
                for qi in 0..qs.len() as u32 {
                    let a = idx.search(&ds, qs.point(qi), 10, 40, &mut c1);
                    let b = loaded.search(&ds, qs.point(qi), 10, 40, &mut c2);
                    assert_eq!(a, b, "{layout:?} reorder={reorder} q={qi}");
                }
                assert_eq!(c1.stats, c2.stats);
            }
        }
    }

    #[test]
    fn layout_loader_rejects_corrupt_permutations() {
        use crate::locality::{LayoutIndex, NodeLayout};
        let (ds, _) = MixtureSpec::table10(4, 60, 1, 5.0, 2).generate();
        let flat = nsg::build(&ds, &NsgParams::tuned(1, 1));
        let idx = LayoutIndex::from_flat(flat, &ds, NodeLayout::Split, true);
        let path = tmp("perm_corrupt.wvsl");
        save_layout_index(&path, &idx).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // The permutation block starts right after name/router/seeds/
        // layout/flag; duplicate one entry to break the bijection. The
        // inverse array begins after the u64 length; stomp entry 1 with
        // entry 0's value.
        let flag_pos = bytes
            .windows(2)
            .position(|w| w == [1u8, 60])
            .expect("perm flag + n");
        let arr = flag_pos + 1 + 8;
        let first: [u8; 4] = bytes[arr..arr + 4].try_into().unwrap();
        bytes[arr + 4..arr + 8].copy_from_slice(&first);
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(
            load_layout_index(&path, &ds),
            Err(PersistError::BadFormat(_))
        ));
    }

    #[test]
    fn layout_loader_rejects_wrong_dataset_size() {
        use crate::locality::{LayoutIndex, NodeLayout};
        let (ds, _) = MixtureSpec::table10(4, 60, 1, 5.0, 2).generate();
        let flat = nsg::build(&ds, &NsgParams::tuned(1, 1));
        let idx = LayoutIndex::from_flat(flat, &ds, NodeLayout::Fused, false);
        let path = tmp("size_mismatch.wvsl");
        save_layout_index(&path, &idx).unwrap();
        let smaller = ds.subset(&(0..30u32).collect::<Vec<_>>());
        assert!(matches!(
            load_layout_index(&path, &smaller),
            Err(PersistError::BadFormat(_))
        ));
    }

    /// Reloading never grows the process: a built-in name comes back as
    /// the registry's own string, any other is leaked once however often
    /// it is loaded, and a name past the bound is refused before anything
    /// is allocated for it.
    #[test]
    fn loaded_names_are_interned_not_leaked_per_load() {
        let (ds, _) = MixtureSpec::table10(4, 40, 1, 5.0, 2).generate();
        let mut idx = nsg::build(&ds, &NsgParams::tuned(1, 1));
        let path = tmp("intern_builtin.wvss");
        save_index(&path, &idx).unwrap();
        assert_eq!(load_index(&path).unwrap().name, Algo::Nsg.name());
        let interned = |name: &str| INTERNED_NAMES.lock().unwrap().contains(name);
        assert!(!interned("NSG"), "a built-in name needs no copy at all");

        idx.name = "a name only this test uses";
        let path = tmp("intern_custom.wvss");
        save_index(&path, &idx).unwrap();
        let layout_path = tmp("intern_custom.wvsl");
        let layout =
            LayoutIndex::from_flat(load_index(&path).unwrap(), &ds, NodeLayout::Split, false);
        save_layout_index(&layout_path, &layout).unwrap();
        let first = load_index(&path).unwrap().name;
        assert_eq!(first, idx.name);
        let copies = |set: &BTreeSet<&'static str>| set.iter().filter(|n| **n == first).count();
        for _ in 0..1_000 {
            let again = load_index(&path).unwrap().name;
            assert!(std::ptr::eq(again, first), "a reload leaked a new copy");
        }
        let from_layout = load_layout_index(&layout_path, &ds).unwrap().name;
        assert!(
            std::ptr::eq(from_layout, first),
            "both loaders share the set"
        );
        assert_eq!(copies(&INTERNED_NAMES.lock().unwrap()), 1);

        // One byte over the bound: refused by length, before any read of
        // (or allocation for) the name itself.
        for magic in [MAGIC, LAYOUT_MAGIC] {
            let mut bytes = magic.to_vec();
            bytes.extend(1u32.to_le_bytes());
            bytes.extend((MAX_NAME_LEN as u32 + 1).to_le_bytes());
            bytes.extend(vec![b'x'; MAX_NAME_LEN + 1]);
            let path = tmp("intern_overlong.bin");
            std::fs::write(&path, &bytes).unwrap();
            let outcome = match magic {
                MAGIC => load_index(&path).err(),
                _ => load_layout_index(&path, &ds).err(),
            };
            assert!(
                matches!(&outcome, Some(PersistError::BadFormat(m)) if m == "name too long"),
                "{outcome:?}"
            );
        }
        assert!(!INTERNED_NAMES
            .lock()
            .unwrap()
            .iter()
            .any(|n| n.len() > MAX_NAME_LEN));
    }

    #[test]
    fn corrupted_files_are_rejected() {
        let path = tmp("corrupt.wvss");
        std::fs::write(&path, b"NOT AN INDEX FILE AT ALL").unwrap();
        assert!(matches!(load_index(&path), Err(PersistError::BadFormat(_))));
        std::fs::write(&path, b"WV").unwrap();
        assert!(matches!(load_index(&path), Err(PersistError::Io(_))));

        // Short files that stop right after an element count far past their
        // own length (the first is the 25-byte `WVSS` whose seed count is
        // `u64::MAX`): every loader must run into EOF, not reserve the count.
        let (ds, _) = MixtureSpec::table10(4, 10, 1, 5.0, 2).generate();
        let header = |magic: &[u8; 4], version: u32| {
            let mut b = magic.to_vec();
            b.extend(version.to_le_bytes());
            write_str(&mut b, "NSG").unwrap();
            write_router(&mut b, &Router::BestFirst).unwrap();
            b
        };
        // The `SeedStrategy::Fixed` tag: its length is the hostile count.
        let fixed_seeds = |mut b: Vec<u8>| {
            b.push(1);
            b
        };
        // A complete seed block, then the tag bytes up to the next count.
        let random_seeds = |mut b: Vec<u8>, tags: &[u8]| {
            write_seeds(&mut b, &SeedStrategy::Random { count: 1 }).unwrap();
            b.extend(tags);
            b
        };
        let flat_header = || header(MAGIC, VERSION);
        let layout_header = || header(LAYOUT_MAGIC, LAYOUT_VERSION);
        let mut hnsw = HNSW_MAGIC.to_vec();
        hnsw.extend(HNSW_VERSION.to_le_bytes());
        hnsw.extend(0u32.to_le_bytes()); // enter point
        hnsw.extend(1u32.to_le_bytes()); // layer count
        type Loader<'a> = &'a dyn Fn(&Path) -> Option<PersistError>;
        let flat: Loader = &|p| load_index(p).err();
        let layout: Loader = &|p| load_layout_index(p, &ds).err();
        let cases: [(&str, Vec<u8>, Loader); 6] = [
            ("flat seeds", fixed_seeds(flat_header()), flat),
            ("flat graph", random_seeds(flat_header(), &[]), flat),
            ("layout seeds", fixed_seeds(layout_header()), layout),
            // Split layout, permutation flag set / clear.
            (
                "layout permutation",
                random_seeds(layout_header(), &[0, 1]),
                layout,
            ),
            (
                "layout graph",
                random_seeds(layout_header(), &[0, 0]),
                layout,
            ),
            ("hnsw layer", hnsw, &|p| load_hnsw(p).err()),
        ];
        for (what, prefix, load) in &cases {
            for count in [u64::MAX, 1u64 << 42] {
                let mut bytes = prefix.clone();
                bytes.extend(count.to_le_bytes());
                std::fs::write(&path, &bytes).unwrap();
                match load(&path) {
                    Some(PersistError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {}
                    other => panic!("{what}, count {count}: {other:?}"),
                }
            }
        }
    }

    /// Seeds are file input like any count: a fixed id past the graph or
    /// an absurd random-draw count is `BadFormat` from both loaders, not an
    /// out-of-bounds panic or an O(n²) draw at the first query.
    #[test]
    fn hostile_seeds_are_rejected() {
        use crate::locality::{LayoutIndex, NodeLayout};
        let n = 10u64;
        let (ds, _) = MixtureSpec::table10(4, n as usize, 1, 5.0, 2).generate();
        let index = |seeds: SeedStrategy| FlatIndex {
            name: "t",
            graph: weavess_graph::base::exact_knng(&ds, 2, 1),
            seeds,
            router: Router::BestFirst,
        };
        // Magic, version, the one-byte name and router, then the seed tag:
        // a `Random` count follows it, a `Fixed` id follows its length.
        let seeds_at = 4 + 4 + (4 + 1) + 1;
        let (count_at, id_at) = (seeds_at + 1, seeds_at + 1 + 8);
        let random = || SeedStrategy::Random { count: 1 };
        let fixed = || SeedStrategy::Fixed(vec![0]);
        let max = MAX_PREALLOC as u64;
        type Seeds<'a> = &'a dyn Fn() -> SeedStrategy;
        let cases: [(Seeds, usize, Vec<u8>, bool); 7] = [
            (&fixed, id_at, (n as u32 - 1).to_le_bytes().to_vec(), true),
            (&fixed, id_at, (n as u32).to_le_bytes().to_vec(), false),
            (&fixed, id_at, u32::MAX.to_le_bytes().to_vec(), false),
            // More draws than points is legitimate (seeding clamps).
            (&random, count_at, (5 * n).to_le_bytes().to_vec(), true),
            (&random, count_at, max.to_le_bytes().to_vec(), true),
            (&random, count_at, (max + 1).to_le_bytes().to_vec(), false),
            (&random, count_at, u64::MAX.to_le_bytes().to_vec(), false),
        ];
        let path = tmp("hostile_seeds.wvss");
        for (seeds, at, patch, ok) in &cases {
            let mut flat = Vec::new();
            write_index(&mut flat, &index(seeds())).unwrap();
            let mut layout = Vec::new();
            let reordered = LayoutIndex::from_flat(index(seeds()), &ds, NodeLayout::Split, true);
            write_layout_index(&mut layout, &reordered).unwrap();
            for (what, mut bytes) in [("flat", flat), ("layout", layout)] {
                bytes[*at..*at + patch.len()].copy_from_slice(patch);
                std::fs::write(&path, &bytes).unwrap();
                let err = match what {
                    "flat" => load_index(&path).err(),
                    _ => load_layout_index(&path, &ds).err(),
                };
                match (ok, &err) {
                    (true, None) | (false, Some(PersistError::BadFormat(_))) => {}
                    _ => panic!("{what}, seed bytes {patch:?}: {err:?}"),
                }
            }
        }
    }

    #[test]
    fn out_of_range_edges_are_rejected() {
        // Hand-craft a file with an edge pointing past n.
        let (ds, _) = MixtureSpec::table10(4, 10, 1, 5.0, 2).generate();
        let idx = FlatIndex {
            name: "t",
            graph: weavess_graph::base::exact_knng(&ds, 2, 1),
            seeds: SeedStrategy::Fixed(vec![0]),
            router: Router::BestFirst,
        };
        let path = tmp("oob.wvss");
        save_index(&path, &idx).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Overwrite the final edge id with a huge value.
        let len = bytes.len();
        bytes[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        assert!(matches!(load_index(&path), Err(PersistError::BadFormat(_))));
    }
}
