//! Index persistence: save a built graph index to disk and reload it
//! without rebuilding — what makes the survey's expensive constructions
//! (Figure 5) a one-time cost in practice.
//!
//! Every index type writes one format (little-endian, versioned): a flat
//! record, then zero or more optional sections, each one byte of tag
//! followed by its payload.
//!
//! ```text
//! magic "WVSS" | u32 version | name | router | seeds | graph
//! 1 fused layout   (no payload)
//! 2 permutation    u64 n | n × u32 inverse
//! 3 overlay        graph lists, original id space
//! 4 upper layers   u32 count | count × graph lists      (HNSW layers 1..)
//! ```
//!
//! Graphs are in original id space, the record's with any catapult overlay
//! stripped out. Sections are written only where they differ from the
//! default (split, unreordered, unadapted, flat), in ascending tag order;
//! a file ends at a section boundary, and an unknown, repeated or
//! out-of-order tag is [`PersistError::BadFormat`]. A split, unreordered,
//! unadapted [`LayoutIndex`] thus writes exactly its [`FlatIndex`]'s bytes.
//! An [`HnswIndex`] is the record named `"HNSW"` (`BestFirst`, seeds
//! `Fixed([enter point])`, layer 0) plus section 4, always present. The
//! section holds every upper layer as one list per vertex, whatever
//! layout the index keeps them in; the loader compacts them
//! ([`HnswIndex::from_parts`]).
//!
//! One reader validates every file. Each loader projects its result and
//! refuses (`BadFormat`) a section its index type cannot store, so none
//! silently drops data: [`load_index`] takes no section,
//! [`load_layout_index`] sections 1–3, [`load_hnsw`] exactly section 4.
//!
//! Only self-contained seed strategies (`Random`, `Fixed`) serialize;
//! tree-backed strategies are cheap to rebuild relative to the graph and
//! are rejected with [`PersistError::UnsupportedSeeds`] — callers keep the
//! tree's build recipe alongside the file.

use crate::algorithms::hnsw::HnswIndex;
use crate::algorithms::Algo;
use crate::components::seeds::SeedStrategy;
use crate::index::{AnnIndex, FlatIndex};
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

/// Section tags, in the order a file carries them.
const FUSED: u8 = 1;
const PERMUTATION: u8 = 2;
const OVERLAY: u8 = 3;
const UPPER_LAYERS: u8 = 4;

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

fn bad(message: impl Into<String>) -> PersistError {
    PersistError::BadFormat(message.into())
}

/// Saves a [`FlatIndex`] (graph + router + self-contained seeds).
pub fn save_index(path: &Path, index: &FlatIndex) -> Result<(), PersistError> {
    save_with(path, |w| write_index(w, index))
}

/// Serializes a [`FlatIndex`] to any writer — the exact bytes
/// [`save_index`] puts on disk, also usable for in-memory digesting (the
/// build-determinism tests hash this stream).
pub fn write_index(w: &mut impl Write, index: &FlatIndex) -> Result<(), PersistError> {
    let lists = index.graph.to_lists();
    write_record(w, index.name, &index.router, &index.seeds, &lists)
}

/// Saves a [`LayoutIndex`]: the record of the [`FlatIndex`] it wraps,
/// then its layout, permutation and catapult overlay sections. The loader
/// re-applies the permutation and re-merges the overlay, so an adapted
/// index round-trips without storing its adjacency twice.
pub fn save_layout_index(path: &Path, index: &LayoutIndex) -> Result<(), PersistError> {
    save_with(path, |w| write_layout_index(w, index))
}

/// Serializes a [`LayoutIndex`] to any writer — the exact bytes
/// [`save_layout_index`] puts on disk.
pub fn write_layout_index(w: &mut impl Write, index: &LayoutIndex) -> Result<(), PersistError> {
    let perm = index.permutation();
    let base = original_lists(&index.base_graph(), perm);
    write_record(w, index.name, &index.router, &index.seeds, &base)?;
    if index.layout() == NodeLayout::Fused {
        w.write_all(&[FUSED])?;
    }
    if let Some(p) = perm {
        w.write_all(&[PERMUTATION])?;
        w.write_all(&(p.len() as u64).to_le_bytes())?;
        write_u32s(w, p.inverse())?;
    }
    if let Some(o) = index.overlay() {
        w.write_all(&[OVERLAY])?;
        write_graph_lists(w, &original_lists(o, perm))?;
    }
    Ok(())
}

/// Saves an [`HnswIndex`] (all layers + enter point).
pub fn save_hnsw(path: &Path, index: &HnswIndex) -> Result<(), PersistError> {
    save_with(path, |w| write_hnsw(w, index))
}

/// Serializes an [`HnswIndex`] to any writer — the exact bytes
/// [`save_hnsw`] puts on disk, also usable for in-memory digesting.
pub fn write_hnsw(w: &mut impl Write, index: &HnswIndex) -> Result<(), PersistError> {
    let enter = SeedStrategy::Fixed(vec![index.enter_point()]);
    let layer0 = index.graph().to_lists();
    write_record(w, Algo::Hnsw.name(), &Router::BestFirst, &enter, &layer0)?;
    w.write_all(&[UPPER_LAYERS])?;
    w.write_all(&(index.num_layers() as u32 - 1).to_le_bytes())?;
    for l in 1..index.num_layers() {
        let lists: Vec<&[u32]> = (0..layer0.len() as u32)
            .map(|v| index.neighbors(l, v))
            .collect();
        write_graph_lists(w, &lists)?;
    }
    Ok(())
}

/// Loads a [`FlatIndex`] saved by [`save_index`], or by
/// [`save_layout_index`] from a split, unreordered, unadapted index.
pub fn load_index(path: &Path) -> Result<FlatIndex, PersistError> {
    read_file(path)?.into_flat()
}

/// Loads a [`LayoutIndex`] saved by [`save_layout_index`] or
/// [`save_index`] (split and unreordered), rebuilding the vector copy /
/// fused arena from `ds` (the same dataset the index was built over —
/// vectors are not stored in the file). The layout is the file's.
pub fn load_layout_index(path: &Path, ds: &Dataset) -> Result<LayoutIndex, PersistError> {
    read_file(path)?.into_layout(ds)
}

/// Loads an [`HnswIndex`] saved by [`save_hnsw`].
pub fn load_hnsw(path: &Path) -> Result<HnswIndex, PersistError> {
    read_file(path)?.into_hnsw()
}

fn save_with(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> Result<(), PersistError>,
) -> Result<(), PersistError> {
    let mut w = BufWriter::new(File::create(path)?);
    write(&mut w)?;
    w.flush()?;
    Ok(())
}

/// The record every file starts with.
fn write_record(
    w: &mut impl Write,
    name: &str,
    router: &Router,
    seeds: &SeedStrategy,
    graph: &[Vec<u32>],
) -> Result<(), PersistError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_str(w, name)?;
    write_router(w, router)?;
    write_seeds(w, seeds)?;
    write_graph_lists(w, graph)
}

/// `graph`'s adjacency in original id space, un-applying `perm`.
fn original_lists(graph: &CsrGraph, perm: Option<&Permutation>) -> Vec<Vec<u32>> {
    let Some(p) = perm else {
        return graph.to_lists();
    };
    (0..graph.len() as u32)
        .map(|v| {
            let list = graph.neighbors(p.to_new(v));
            list.iter().map(|&u| p.to_old(u)).collect()
        })
        .collect()
}

/// A parsed, validated index file: its record as a [`FlatIndex`] (graph
/// in original id space) and what its sections add.
struct IndexFile {
    flat: FlatIndex,
    /// Tags of the sections present, ascending.
    sections: Vec<u8>,
    layout: NodeLayout,
    perm: Option<Permutation>,
    overlay: Option<CsrGraph>,
    /// HNSW layers 1.. (empty without section 4).
    upper: Vec<CsrGraph>,
}

/// Opens and parses any index file.
fn read_file(path: &Path) -> Result<IndexFile, PersistError> {
    IndexFile::parse(&mut BufReader::new(File::open(path)?))
}

impl IndexFile {
    /// Parses and validates a whole file: every id in range of the
    /// record's graph, every section over its vertices, nothing after the
    /// last section.
    fn parse(r: &mut impl Read) -> Result<Self, PersistError> {
        if &read_bytes::<4>(r)? != MAGIC {
            return Err(bad("wrong magic"));
        }
        let version = read_u32(r)?;
        if version != VERSION {
            return Err(bad(format!("version {version}, expected {VERSION}")));
        }
        let name = read_str(r)?;
        let router = read_router(r)?;
        let seeds = read_seeds(r)?;
        let graph = CsrGraph::from_lists(&read_graph_lists(r)?);
        let n = graph.len();
        if n == 0 {
            return Err(bad("graph has no vertices"));
        }
        check_seeds(&seeds, n)?;
        let mut sections = Vec::new();
        let (mut layout, mut perm, mut overlay, mut upper) =
            (NodeLayout::Split, None, None, Vec::new());
        while let Some(tag) = read_tag(r)? {
            if !(FUSED..=UPPER_LAYERS).contains(&tag) || sections.last() >= Some(&tag) {
                return Err(bad(format!("unexpected section {tag}")));
            }
            sections.push(tag);
            match tag {
                FUSED => layout = NodeLayout::Fused,
                PERMUTATION => {
                    let len = read_u64(r)? as usize;
                    let p = Permutation::from_inverse(read_u32s(r, len)?).map_err(bad)?;
                    if len != n {
                        return Err(bad(format!("permutation over {len} of {n} vertices")));
                    }
                    perm = Some(p);
                }
                OVERLAY => overlay = Some(read_overlay(r, n)?),
                _ => {
                    let count = read_u32(r)?;
                    upper = (0..count)
                        .map(|_| read_section_graph(r, n, "upper layer"))
                        .collect::<Result<_, _>>()?;
                }
            }
        }
        Ok(IndexFile {
            flat: FlatIndex {
                name: intern_name(name),
                graph,
                seeds,
                router,
            },
            sections,
            layout,
            perm,
            overlay,
            upper,
        })
    }

    /// Refuses any section but `allowed`: `into` cannot store it.
    fn only(&self, allowed: &[u8], into: &str) -> Result<(), PersistError> {
        match self.sections.iter().find(|t| !allowed.contains(t)) {
            Some(t) => Err(bad(format!("{into} cannot store section {t}"))),
            None => Ok(()),
        }
    }

    fn into_flat(self) -> Result<FlatIndex, PersistError> {
        self.only(&[], "a flat index")?;
        Ok(self.flat)
    }

    fn into_layout(self, ds: &Dataset) -> Result<LayoutIndex, PersistError> {
        self.only(&[FUSED, PERMUTATION, OVERLAY], "a layout index")?;
        let (n, len) = (self.flat.graph.len(), ds.len());
        if n != len {
            return Err(bad(format!("graph has {n} vertices, dataset {len}")));
        }
        let index = LayoutIndex::assemble(self.flat, self.perm, self.overlay, ds, self.layout);
        Ok(index)
    }

    /// An HNSW record (module docs); its enter point is the one fixed
    /// seed, which the reader has already held to the graph like any seed.
    fn into_hnsw(self) -> Result<HnswIndex, PersistError> {
        self.only(&[UPPER_LAYERS], "an HNSW index")?;
        let flat = self.flat;
        let hnsw = flat.name == Algo::Hnsw.name() && flat.router == Router::BestFirst;
        match flat.seeds {
            SeedStrategy::Fixed(enter) if enter.len() == 1 && hnsw && !self.sections.is_empty() => {
                let layers = std::iter::once(flat.graph).chain(self.upper).collect();
                Ok(HnswIndex::from_parts(layers, enter[0]))
            }
            _ => Err(bad("not an HNSW record")),
        }
    }
}

/// A graph section over the record's `n` vertices.
fn read_section_graph(r: &mut impl Read, n: usize, what: &str) -> Result<CsrGraph, PersistError> {
    let lists = read_graph_lists(r)?;
    if lists.len() != n {
        return Err(bad(format!("{what} over {} of {n} vertices", lists.len())));
    }
    Ok(CsrGraph::from_lists(&lists))
}

/// The catapult overlay section. Self-loops and duplicate shortcuts can
/// never come out of the miner, so their presence means corruption (edge
/// ranges are checked by [`read_graph_lists`]).
fn read_overlay(r: &mut impl Read, n: usize) -> Result<CsrGraph, PersistError> {
    let overlay = read_section_graph(r, n, "overlay")?;
    for v in 0..n as u32 {
        let mut list = overlay.neighbors(v).to_vec();
        list.sort_unstable();
        if list.binary_search(&v).is_ok() || list.windows(2).any(|w| w[0] == w[1]) {
            return Err(bad(format!("overlay self-loop or duplicate at vertex {v}")));
        }
    }
    Ok(overlay)
}

fn write_router(w: &mut impl Write, router: &Router) -> io::Result<()> {
    let (tag, payload) = match router {
        Router::BestFirst => (0u8, Vec::new()),
        Router::Range { epsilon } => (1, epsilon.to_le_bytes().to_vec()),
        Router::Backtrack { extra } => (2, (*extra as u64).to_le_bytes().to_vec()),
        Router::Guided => (3, Vec::new()),
        Router::TwoStage { stage1_beam_frac } => (4, stage1_beam_frac.to_le_bytes().to_vec()),
    };
    w.write_all(&[tag])?;
    w.write_all(&payload)
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
        t => return Err(bad(format!("unknown router tag {t}"))),
    })
}

fn write_seeds(w: &mut impl Write, seeds: &SeedStrategy) -> Result<(), PersistError> {
    let (tag, count, ids): (u8, usize, &[u32]) = match seeds {
        SeedStrategy::Random { count } => (0, *count, &[]),
        SeedStrategy::Fixed(ids) => (1, ids.len(), ids),
        other => return Err(PersistError::UnsupportedSeeds(other.label())),
    };
    w.write_all(&[tag])?;
    w.write_all(&(count as u64).to_le_bytes())?;
    Ok(write_u32s(w, ids)?)
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
        t => return Err(bad(format!("unknown seed tag {t}"))),
    })
}

/// Rejects seeds no saved index carries and no query could use: a fixed
/// id outside the graph (an out-of-bounds read at the first query, or in
/// the permutation remap at load; for HNSW this is the enter point), or a
/// per-query random draw above [`MAX_PREALLOC`]. The count is not held to
/// `n`: a tiny index may carry the default ten draws over fewer points,
/// and seeding clamps it.
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
    problem.map_or(Ok(()), |m| Err(bad(m)))
}

fn write_graph_lists(w: &mut impl Write, lists: &[impl AsRef<[u32]>]) -> Result<(), PersistError> {
    w.write_all(&(lists.len() as u64).to_le_bytes())?;
    for l in lists {
        let l = l.as_ref();
        w.write_all(&(l.len() as u32).to_le_bytes())?;
        write_u32s(w, l)?;
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
            return Err(bad(format!("edge target {id} out of range (n={n})")));
        }
        lists.push(l);
    }
    Ok(lists)
}

fn write_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn write_u32s(w: &mut impl Write, values: &[u32]) -> io::Result<()> {
    values
        .iter()
        .try_for_each(|x| w.write_all(&x.to_le_bytes()))
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
        return Err(bad("name too long"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| bad("name not utf-8"))
}

/// The next section tag, or `None` where the file ends.
fn read_tag(r: &mut impl Read) -> io::Result<Option<u8>> {
    match read_u8(r) {
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(None),
        tag => tag.map(Some),
    }
}

fn read_bytes<const N: usize>(r: &mut impl Read) -> io::Result<[u8; N]> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

fn read_u8(r: &mut impl Read) -> io::Result<u8> {
    read_bytes(r).map(u8::from_le_bytes)
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    read_bytes(r).map(u32::from_le_bytes)
}

fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    read_bytes(r).map(u64::from_le_bytes)
}

fn read_f32(r: &mut impl Read) -> io::Result<f32> {
    read_bytes(r).map(f32::from_le_bytes)
}

/// Most elements reserved ahead of reading them. A count in the file is
/// unvalidated input: reserving it whole lets a 25-byte file panic with
/// "capacity overflow" or abort in the allocator, where reading on simply
/// runs into `UnexpectedEof`.
const MAX_PREALLOC: usize = 1 << 16;

/// Reads `count` ids 64 at a time: one copy out of the reader per chunk,
/// not one per id, and never more reserved than [`MAX_PREALLOC`].
fn read_u32s(r: &mut impl Read, count: usize) -> io::Result<Vec<u32>> {
    let mut v = Vec::with_capacity(count.min(MAX_PREALLOC));
    let mut chunk = [0u8; 256];
    while v.len() < count {
        let bytes = &mut chunk[..4 * (count - v.len()).min(64)];
        r.read_exact(bytes)?;
        v.extend(
            bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::AdaptParams;
    use crate::algorithms::hnsw::{self, HnswParams};
    use crate::algorithms::nsg::{self, NsgParams};
    use crate::index::{AnnIndex, SearchContext};
    use crate::telemetry::{RecordingTracer, TraceAggregate};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::base::exact_knng;
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
        let (ds, qs) = MixtureSpec::table10(8, 800, 2, 5.0, 15).generate();
        let idx = hnsw::build(&ds, &HnswParams::tuned(1, 1));
        let path = tmp("hnsw.wvss");
        save_hnsw(&path, &idx).unwrap();
        let loaded = load_hnsw(&path).unwrap();
        assert_eq!(loaded, idx);
        assert_eq!(loaded.memory_bytes(), idx.memory_bytes());
        let mut c1 = SearchContext::new(ds.len());
        let mut c2 = SearchContext::new(ds.len());
        for qi in 0..qs.len() as u32 {
            let a = idx.search(&ds, qs.point(qi), 10, 40, &mut c1);
            let b = loaded.search(&ds, qs.point(qi), 10, 40, &mut c2);
            assert_eq!(a, b);
        }
        assert_eq!(c1.stats, c2.stats);
    }

    /// A file the builder never writes: a vertex that another one names
    /// on layer 3, with a list there and an empty one on layer 2. It loads list for list, writes back
    /// to the same bytes, and answers as recorded from the per-layer CSR
    /// form (integer coordinates: every kernel tier gives equal bits).
    #[test]
    fn hnsw_file_with_a_gap_below_a_list_loads_and_answers_as_recorded() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut rows = |n: usize| -> Vec<Vec<f32>> {
            (0..n)
                .map(|_| (0..8).map(|_| rng.gen_range(-16i32..17) as f32).collect())
                .collect()
        };
        let (ds, qs) = (
            Dataset::from_rows(&rows(2_000)),
            Dataset::from_rows(&rows(50)),
        );
        let params = HnswParams {
            m: 4,
            m0: 8,
            ..HnswParams::tuned(2, 3)
        };
        let idx = hnsw::build(&ds, &params);
        assert!(idx.num_layers() >= 4, "no layer 3");
        let mut lists: Vec<Vec<Vec<u32>>> = (0..idx.num_layers())
            .map(|l| {
                (0..ds.len() as u32)
                    .map(|v| idx.neighbors(l, v).to_vec())
                    .collect()
            })
            .collect();
        // The enter point: every descent reads its layer-3 list.
        let gap = idx.enter_point();
        assert!(!lists[3][gap as usize].is_empty() && !lists[2][gap as usize].is_empty());
        assert!(lists[3].iter().any(|list| list.contains(&gap)));
        lists[2][gap as usize].clear();
        let mut bytes = Vec::new();
        let enter = SeedStrategy::Fixed(vec![idx.enter_point()]);
        write_record(&mut bytes, "HNSW", &Router::BestFirst, &enter, &lists[0]).unwrap();
        bytes.push(UPPER_LAYERS);
        bytes.extend((lists.len() as u32 - 1).to_le_bytes());
        for layer in &lists[1..] {
            write_graph_lists(&mut bytes, layer).unwrap();
        }

        let loaded = IndexFile::parse(&mut &bytes[..])
            .and_then(IndexFile::into_hnsw)
            .unwrap();
        assert_eq!(loaded.num_layers(), lists.len());
        for l in 0..=lists.len() {
            for v in 0..ds.len() as u32 {
                let want = lists.get(l).map_or(&[][..], |layer| &layer[v as usize]);
                assert_eq!(loaded.neighbors(l, v), want, "layer {l}, vertex {v}");
            }
        }
        let mut again = Vec::new();
        write_hnsw(&mut again, &loaded).unwrap();
        assert!(again == bytes, "the loaded index writes other bytes");
        let mut ctx = SearchContext::new(ds.len());
        let mut digest = 0xcbf2_9ce4_8422_2325_u64;
        let mut fnv = |bytes: &[u8]| {
            for &b in bytes {
                digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for qi in 0..qs.len() as u32 {
            for r in loaded.search(&ds, qs.point(qi), 10, 40, &mut ctx) {
                fnv(&r.id.to_le_bytes());
                fnv(&r.dist.to_bits().to_le_bytes());
            }
            fnv(&ctx.stats.ndc.to_le_bytes());
            fnv(&ctx.stats.hops.to_le_bytes());
        }
        assert_eq!(digest, 0x4989_11f4_fd92_9f18, "answers moved");
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
                graph: exact_knng(&ds, 3, 1),
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
            graph: exact_knng(&ds, 3, 1),
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
        let (ds, qs) = MixtureSpec::table10(8, 600, 2, 5.0, 10).generate();
        for layout in [NodeLayout::Split, NodeLayout::Fused] {
            for reorder in [false, true] {
                let flat = nsg::build(&ds, &NsgParams::tuned(2, 1));
                let idx = LayoutIndex::from_flat(flat, &ds, layout, reorder);
                let path = tmp("layout.wvss");
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

    /// A split, unreordered, unadapted layout index is the flat index it
    /// wraps on disk: the same bytes, and either loader reads either file.
    #[test]
    fn a_plain_file_loads_as_flat_or_split_layout() {
        let (ds, qs) = MixtureSpec::table10(8, 300, 2, 5.0, 10).generate();
        let build = || nsg::build(&ds, &NsgParams::tuned(1, 1));
        let flat = build();
        let flat_path = tmp("plain_flat.wvss");
        save_index(&flat_path, &flat).unwrap();
        let layout_path = tmp("plain_layout.wvss");
        let split = LayoutIndex::from_flat(build(), &ds, NodeLayout::Split, false);
        save_layout_index(&layout_path, &split).unwrap();
        let bytes = std::fs::read(&flat_path).unwrap();
        assert_eq!(bytes, std::fs::read(&layout_path).unwrap());

        let as_layout = load_layout_index(&flat_path, &ds).unwrap();
        assert_eq!(as_layout.layout(), NodeLayout::Split);
        assert!(!as_layout.is_reordered() && as_layout.overlay().is_none());
        assert_eq!(as_layout.graph(), &flat.graph);
        let as_flat = load_index(&layout_path).unwrap();
        assert_eq!((as_flat.name, &as_flat.graph), (flat.name, &flat.graph));
        assert_eq!(as_flat.router, flat.router);
        let mut ctx = SearchContext::new(ds.len());
        for qi in 0..qs.len() as u32 {
            let q = qs.point(qi);
            let want = flat.search(&ds, q, 10, 40, &mut ctx);
            assert_eq!(as_layout.search(&ds, q, 10, 40, &mut ctx), want);
            assert_eq!(as_flat.search(&ds, q, 10, 40, &mut ctx), want);
        }
    }

    /// `lists`' record, named `name`, then the sections `tags` with small
    /// valid payloads (a reversing permutation, an empty overlay, no
    /// upper layer).
    fn file_with_sections(name: &str, lists: &[Vec<u32>], tags: &[u8]) -> Vec<u8> {
        let n = lists.len();
        let mut b = Vec::new();
        let seeds = SeedStrategy::Fixed(vec![0]);
        write_record(&mut b, name, &Router::BestFirst, &seeds, lists).unwrap();
        for &tag in tags {
            b.push(tag);
            match tag {
                PERMUTATION => {
                    b.extend((n as u64).to_le_bytes());
                    write_u32s(&mut b, &(0..n as u32).rev().collect::<Vec<_>>()).unwrap();
                }
                OVERLAY => write_graph_lists(&mut b, &vec![Vec::new(); n]).unwrap(),
                UPPER_LAYERS => b.extend(0u32.to_le_bytes()),
                _ => {}
            }
        }
        b
    }

    /// Each loader takes exactly the sections its index type stores and
    /// refuses every other, so none drops data; each shape loads with the
    /// loader that stores it.
    #[test]
    fn loaders_refuse_sections_their_type_cannot_store() {
        let (ds, _) = MixtureSpec::table10(4, 40, 1, 5.0, 2).generate();
        let lists = exact_knng(&ds, 3, 1).to_lists();
        let file = |name: &str, tags: &[u8]| file_with_sections(name, &lists, tags);
        type Load<'a> = &'a dyn Fn(&Path) -> Result<(), PersistError>;
        let flat: Load = &|p| load_index(p).map(drop);
        let layout: Load = &|p| load_layout_index(p, &ds).map(drop);
        let hnsw: Load = &|p| load_hnsw(p).map(drop);
        let path = tmp("refusals.wvss");
        for (what, bytes, load, ok) in [
            ("flat", file("NSG", &[]), flat, true),
            ("flat as layout", file("NSG", &[]), layout, true),
            (
                "fused reordered adapted",
                file("NSG", &[1, 2, 3]),
                layout,
                true,
            ),
            ("HNSW", file("HNSW", &[4]), hnsw, true),
            ("flat <- HNSW", file("HNSW", &[4]), flat, false),
            ("flat <- fused", file("NSG", &[1]), flat, false),
            ("flat <- reordered", file("NSG", &[2]), flat, false),
            ("flat <- adapted", file("NSG", &[3]), flat, false),
            ("HNSW <- flat", file("HNSW", &[]), hnsw, false),
            ("HNSW <- fused", file("HNSW", &[1, 4]), hnsw, false),
            ("HNSW <- reordered", file("HNSW", &[2, 4]), hnsw, false),
            ("HNSW <- adapted", file("HNSW", &[3, 4]), hnsw, false),
            ("HNSW <- another name", file("NSG", &[4]), hnsw, false),
            ("layout <- HNSW", file("HNSW", &[4]), layout, false),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            match (ok, load(&path)) {
                (true, Ok(())) | (false, Err(PersistError::BadFormat(_))) => {}
                (_, outcome) => panic!("{what}: {outcome:?}"),
            }
        }
    }

    /// A file ends at a section boundary: an unknown, repeated or
    /// out-of-order tag, and so any stray byte after section 4, is
    /// `BadFormat` from the one reader every loader projects.
    #[test]
    fn section_tags_must_be_known_unique_and_ascending() {
        let (ds, _) = MixtureSpec::table10(4, 40, 1, 5.0, 2).generate();
        let lists = exact_knng(&ds, 3, 1).to_lists();
        let parse = |bytes: &[u8]| IndexFile::parse(&mut &bytes[..]).map(|f| f.sections);
        let flat = file_with_sections("t", &lists, &[]);
        let hnsw = file_with_sections("HNSW", &lists, &[UPPER_LAYERS]);
        assert_eq!(parse(&flat).unwrap(), []);
        assert_eq!(parse(&hnsw).unwrap(), [UPPER_LAYERS]);
        let with = |file: &[u8], tail: &[u8]| [file, tail].concat();
        let mut cases = vec![
            ("repeated", with(&flat, &[FUSED, FUSED])),
            (
                "repeated with payload",
                with(&hnsw, &[UPPER_LAYERS, 0, 0, 0, 0]),
            ),
            ("out of order", with(&hnsw, &[FUSED])),
            ("unknown 0", with(&flat, &[0])),
            ("unknown 5", with(&flat, &[5])),
        ];
        cases.extend((0..=u8::MAX).map(|b| ("stray byte", with(&hnsw, &[b]))));
        for (what, bytes) in &cases {
            let outcome = parse(bytes);
            assert!(
                matches!(outcome, Err(PersistError::BadFormat(_))),
                "{what} {:?}: {outcome:?}",
                bytes.last()
            );
        }
    }

    /// Every section is over the record's vertices, and there is at least
    /// one: otherwise assembling the index (or its first random seed
    /// draw) would panic instead of the reader refusing the file.
    #[test]
    fn sections_must_cover_the_records_vertices() {
        let (ds, _) = MixtureSpec::table10(4, 40, 1, 5.0, 2).generate();
        let lists = exact_knng(&ds, 3, 1).to_lists();
        let n = lists.len();
        let record = file_with_sections("t", &lists, &[]);
        let graph = |n: usize| {
            let mut b = Vec::new();
            write_graph_lists(&mut b, &vec![Vec::new(); n]).unwrap();
            b
        };
        let mut short_perm = vec![PERMUTATION];
        short_perm.extend((n as u64 - 1).to_le_bytes());
        write_u32s(&mut short_perm, &(0..n as u32 - 1).collect::<Vec<_>>()).unwrap();
        let mut empty = Vec::new();
        let seeds = SeedStrategy::Random { count: 1 };
        write_record(&mut empty, "t", &Router::BestFirst, &seeds, &[]).unwrap();
        for (what, bytes) in [
            ("short permutation", [record.clone(), short_perm].concat()),
            (
                "long overlay",
                [record.clone(), vec![OVERLAY], graph(n + 1)].concat(),
            ),
            (
                "short upper layer",
                [record, vec![UPPER_LAYERS, 1, 0, 0, 0], graph(n - 1)].concat(),
            ),
            ("no vertices", empty),
        ] {
            let outcome = IndexFile::parse(&mut &bytes[..]).map(drop);
            assert!(
                matches!(outcome, Err(PersistError::BadFormat(_))),
                "{what}: {outcome:?}"
            );
        }
    }

    #[test]
    fn layout_loader_rejects_corrupt_permutations() {
        let (ds, _) = MixtureSpec::table10(4, 60, 1, 5.0, 2).generate();
        let flat = nsg::build(&ds, &NsgParams::tuned(1, 1));
        let idx = LayoutIndex::from_flat(flat, &ds, NodeLayout::Split, true);
        let path = tmp("perm_corrupt.wvss");
        save_layout_index(&path, &idx).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // A split, reordered, unadapted file ends with the permutation's
        // inverse array; stomp entry 1 with entry 0 to break the bijection.
        let arr = bytes.len() - 4 * ds.len();
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
        let (ds, _) = MixtureSpec::table10(4, 60, 1, 5.0, 2).generate();
        let flat = nsg::build(&ds, &NsgParams::tuned(1, 1));
        let idx = LayoutIndex::from_flat(flat, &ds, NodeLayout::Fused, false);
        let path = tmp("size_mismatch.wvss");
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
        let layout_path = tmp("intern_custom_fused.wvss");
        let layout =
            LayoutIndex::from_flat(load_index(&path).unwrap(), &ds, NodeLayout::Fused, false);
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
        // (or allocation for) the name itself, by every loader.
        let mut bytes = MAGIC.to_vec();
        bytes.extend(VERSION.to_le_bytes());
        bytes.extend((MAX_NAME_LEN as u32 + 1).to_le_bytes());
        bytes.extend(vec![b'x'; MAX_NAME_LEN + 1]);
        let path = tmp("intern_overlong.bin");
        std::fs::write(&path, &bytes).unwrap();
        for outcome in [
            load_index(&path).err(),
            load_layout_index(&path, &ds).err(),
            load_hnsw(&path).err(),
        ] {
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
        // own length (the first is the 25-byte file whose seed count is
        // `u64::MAX`): every loader must run into EOF, not reserve the count.
        let (ds, _) = MixtureSpec::table10(4, 10, 1, 5.0, 2).generate();
        let header = |seeds: Option<SeedStrategy>| {
            let mut b = MAGIC.to_vec();
            b.extend(VERSION.to_le_bytes());
            write_str(&mut b, "NSG").unwrap();
            write_router(&mut b, &Router::BestFirst).unwrap();
            match seeds {
                Some(s) => write_seeds(&mut b, &s).unwrap(),
                // The `SeedStrategy::Fixed` tag: its length is the count.
                None => b.push(1),
            }
            b
        };
        let random = || Some(SeedStrategy::Random { count: 1 });
        // A complete one-vertex record, then the bytes up to a count.
        let record = |tail: &[u8]| {
            let mut b = header(random());
            write_graph_lists(&mut b, &[vec![]]).unwrap();
            b.extend(tail);
            b
        };
        let one_layer = [&[UPPER_LAYERS][..], &1u32.to_le_bytes()].concat();
        let mut cases = Vec::new();
        for (what, prefix) in [
            ("seeds", header(None)),
            ("graph", header(random())),
            ("permutation", record(&[PERMUTATION])),
            ("overlay", record(&[OVERLAY])),
            ("upper layer", record(&one_layer)),
        ] {
            for count in [u64::MAX, 1u64 << 42] {
                cases.push((
                    what,
                    [prefix.clone(), count.to_le_bytes().to_vec()].concat(),
                ));
            }
        }
        // The two `u32` counts: a list's degree and the upper-layer count.
        let one_list = [header(random()), 1u64.to_le_bytes().to_vec()].concat();
        for (what, prefix) in [("degree", one_list), ("layers", record(&[UPPER_LAYERS]))] {
            cases.push((what, [prefix, u32::MAX.to_le_bytes().to_vec()].concat()));
        }
        for (what, bytes) in &cases {
            std::fs::write(&path, bytes).unwrap();
            for outcome in [
                load_index(&path).err(),
                load_layout_index(&path, &ds).err(),
                load_hnsw(&path).err(),
            ] {
                match outcome {
                    Some(PersistError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {}
                    other => panic!("{what}, {} bytes: {other:?}", bytes.len()),
                }
            }
        }
    }

    /// Seeds are file input like any count: a fixed id past the graph or
    /// an absurd random-draw count is `BadFormat` from both loaders, not an
    /// out-of-bounds panic or an O(n²) draw at the first query.
    #[test]
    fn hostile_seeds_are_rejected() {
        let n = 10u64;
        let (ds, _) = MixtureSpec::table10(4, n as usize, 1, 5.0, 2).generate();
        let index = |seeds: SeedStrategy| FlatIndex {
            name: "t",
            graph: exact_knng(&ds, 2, 1),
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
            graph: exact_knng(&ds, 2, 1),
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

    /// The four files the mutation fuzz starts from: a flat NSG index, a
    /// reordered fused layout, the same layout carrying a catapult overlay
    /// mined from its own routes, and an HNSW index.
    fn fuzz_files(ds: &Dataset, qs: &Dataset) -> [(&'static str, Vec<u8>); 4] {
        let nsg = || nsg::build(ds, &NsgParams::tuned(1, 1));
        let reordered = LayoutIndex::from_flat(nsg(), ds, NodeLayout::Fused, true);
        let mut adapted = LayoutIndex::from_flat(nsg(), ds, NodeLayout::Fused, true);
        let mut agg = TraceAggregate::new(ds.len());
        let mut ctx = SearchContext::new(ds.len());
        for qi in 0..qs.len() as u32 {
            let mut tracer = RecordingTracer::new();
            adapted.search_traced(ds, qs.point(qi), 10, 24, &mut ctx, &mut tracer);
            agg.absorb(&tracer);
        }
        let params = AdaptParams {
            min_gap: 2.0,
            min_traffic: 1,
            max_reach: 2.0,
            ..AdaptParams::default()
        };
        adapted.adapt(ds, &agg, &params).unwrap();
        assert!(adapted.overlay_edges() > 0, "no overlay to fuzz");
        let mut files = [
            ("NSG", Vec::new()),
            ("reordered fused layout", Vec::new()),
            ("adapted layout", Vec::new()),
            ("HNSW", Vec::new()),
        ];
        write_index(&mut files[0].1, &nsg()).unwrap();
        write_layout_index(&mut files[1].1, &reordered).unwrap();
        write_layout_index(&mut files[2].1, &adapted).unwrap();
        let hnsw = hnsw::build(ds, &HnswParams::tuned(1, 1));
        assert!(hnsw.num_layers() >= 2, "no upper layer to fuzz");
        write_hnsw(&mut files[3].1, &hnsw).unwrap();
        files
    }

    /// Offset and width of every count field in a well-formed file: the
    /// name length, the seed count, each graph's list count and degrees,
    /// the permutation length and the upper-layer count.
    fn count_fields(b: &[u8]) -> Vec<(usize, usize)> {
        let word = |at: usize, width: usize| {
            let mut w = [0u8; 8];
            w[..width].copy_from_slice(&b[at..at + width]);
            u64::from_le_bytes(w) as usize
        };
        let graph = |at: &mut usize, fields: &mut Vec<(usize, usize)>| {
            fields.push((*at, 8));
            let n = word(*at, 8);
            *at += 8;
            for _ in 0..n {
                fields.push((*at, 4));
                *at += 4 + 4 * word(*at, 4);
            }
        };
        let mut fields = vec![(8, 4)];
        let mut at = 12 + word(8, 4);
        at += match b[at] {
            0 | 3 => 1,
            1 | 4 => 5,
            _ => 9,
        };
        fields.push((at + 1, 8));
        at += 9 + if b[at] == 1 { 4 * word(at + 1, 8) } else { 0 };
        graph(&mut at, &mut fields);
        while at < b.len() {
            at += 1;
            match b[at - 1] {
                PERMUTATION => {
                    fields.push((at, 8));
                    at += 8 + 4 * word(at, 8);
                }
                OVERLAY => graph(&mut at, &mut fields),
                UPPER_LAYERS => {
                    fields.push((at, 4));
                    let count = word(at, 4);
                    at += 4;
                    for _ in 0..count {
                        graph(&mut at, &mut fields);
                    }
                }
                _ => {}
            }
        }
        fields
    }

    /// Every loader refuses `bytes` or returns an index that answers one
    /// query over a dataset of its size.
    fn load_and_answer(bytes: &[u8], ds: &Dataset, query: &[f32]) {
        fn answer(index: &impl AnnIndex, ds: &Dataset, query: &[f32]) {
            let n = index.graph().len() as u32;
            let rows: Vec<u32> = (0..n).map(|v| v % ds.len() as u32).collect();
            let mut ctx = SearchContext::new(n as usize);
            let res = index.search(&ds.subset(&rows), query, 10, 40, &mut ctx);
            assert!(res.len() <= 10 && res.iter().all(|r| r.id < n));
        }
        let parse = || IndexFile::parse(&mut &bytes[..]);
        let Ok(file) = parse() else { return };
        if let Ok(index) = file.into_flat() {
            answer(&index, ds, query);
        }
        if let Ok(index) = parse().and_then(|f| f.into_layout(ds)) {
            answer(&index, ds, query);
        }
        if let Ok(index) = parse().and_then(IndexFile::into_hnsw) {
            answer(&index, ds, query);
        }
    }

    /// Seeded mutation fuzz over the one format: every truncation, a fixed
    /// set of single-bit flips and each count field inflated, of each of
    /// four saved files. Every mutant must be refused by every loader or
    /// load an index that answers a query (k 10, beam 40) without panicking.
    #[test]
    fn mutated_files_fail_cleanly_or_load_and_answer() {
        const FLIPS: usize = 1_500;
        let (ds, qs) = MixtureSpec::table10(8, 150, 2, 5.0, 30).generate();
        let mut rng = StdRng::seed_from_u64(0xF0_22ED);
        for (file, bytes) in fuzz_files(&ds, &qs) {
            let check = |what: String, mutant: &[u8]| {
                let run = || load_and_answer(mutant, &ds, qs.point(0));
                if catch_unwind(AssertUnwindSafe(run)).is_err() {
                    panic!("{file}, {what}: a loader or the query panicked");
                }
            };
            for len in 0..bytes.len() {
                check(format!("truncated to {len} bytes"), &bytes[..len]);
            }
            for _ in 0..FLIPS {
                let bit = rng.gen_range(0..8 * bytes.len());
                let mut mutant = bytes.clone();
                mutant[bit / 8] ^= 1 << (bit % 8);
                check(format!("bit {bit} flipped"), &mutant);
            }
            for (at, width) in count_fields(&bytes) {
                let max = u64::MAX >> (64 - 8 * width);
                let mut field = [0u8; 8];
                field[..width].copy_from_slice(&bytes[at..at + width]);
                let count = u64::from_le_bytes(field);
                for inflated in [count + 1, count + (1 << 20), max] {
                    let mut mutant = bytes.clone();
                    mutant[at..at + width]
                        .copy_from_slice(&inflated.min(max).to_le_bytes()[..width]);
                    check(format!("count at byte {at} set to {inflated}"), &mutant);
                }
            }
        }
    }
}
