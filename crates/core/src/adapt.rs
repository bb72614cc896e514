//! Trace-driven graph adaptation: catapult shortcut edges + hub-aware
//! entry refresh.
//!
//! The survey's cost analyses say search spends its budget on routing
//! hops and NDC, and that entry placement and long detours are where
//! skewed query distributions waste the most. This module closes the
//! observation loop opened by [`crate::telemetry::RecordingTracer`]: an
//! **offline** mining pass over a [`TraceAggregate`] that
//!
//! 1. finds recurring long detours — hop chains whose endpoints are close
//!    in distance but far apart in hops — scores the candidate shortcut
//!    `src -> dst` by observed traffic × expected hop savings, and
//!    inserts the winners under a bounded per-vertex extra-degree budget
//!    (catapult edges, after CatapultDB's trajectory-remembering edges);
//! 2. moves the fixed entry points toward the vertices searches actually
//!    converge on (hub-aware entry refresh), optionally keeping the
//!    build-time entries so structural invariants (NSG's
//!    reachability-from-medoid) survive.
//!
//! **Determinism contract.** Adaptation is a pure function of
//! `(graph, dataset, trace aggregate, AdaptParams)`. The aggregate is
//! itself order-invariant, candidate enumeration walks a `BTreeMap`,
//! scoring runs on the fixed-chunk [`crate::parallel`] scheduler, and the
//! final ranking breaks every tie down to `(src, dst)` — so the adapted
//! index is byte-identical at any mining thread count and for any
//! ordering of the trace files.
//!
//! **Separation contract.** Shortcuts live in an overlay segment
//! ([`weavess_graph::GraphOverlay`]); the base graph's bytes and the
//! caller-visible ids are untouched, and pre-adaptation traces still pass
//! `replay_check` because vertex distances never change — only extra
//! edges appear at the end of adjacency lists.

use crate::components::SeedStrategy;
use crate::locality::LayoutIndex;
use crate::parallel::{self, par_chunks_map, CHUNK};
use crate::telemetry::TraceAggregate;
use weavess_data::Dataset;
use weavess_graph::reorder::Permutation;
use weavess_graph::{merge_overlay, CsrGraph, GraphOverlay, OverlayError};

/// Tuning knobs for one adaptation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptParams {
    /// Minimum *mean* detour length (hops saved per observed traversal)
    /// for a pair to become a candidate shortcut.
    pub min_gap: f64,
    /// Minimum routes that must have traversed a pair for it to become a
    /// candidate — shortcuts should encode recurring traffic, not one
    /// query's bad luck.
    pub min_traffic: u64,
    /// Per-vertex extra-degree budget for the overlay segment. Zero is a
    /// configuration error ([`AdaptError::ZeroDegreeBudget`]), not "no
    /// adaptation".
    pub max_extra_degree: usize,
    /// Spatial reach gate, as a multiple of the source's *median* base
    /// neighbor distance: a shortcut is admitted only when
    /// `dist(src, dst) <= max_reach * median_nbr_dist(src)` — it must look
    /// like a typical edge of its source, because catapults repair
    /// *detours*: pairs close in space but far in hops. Ungated
    /// (`f64::INFINITY`), high-traffic mining also builds wormholes from
    /// the entry region into the hot region; those flood the bounded
    /// candidate pool on every query's first hops and evict the route
    /// toward cold regions before it is expanded, turning rare-cluster
    /// queries into total misses. The gate is the median rather than the
    /// maximum because the vertices where wormholes do the most damage —
    /// the navigating backbone — are precisely the ones that legitimately
    /// own a few very long edges.
    pub max_reach: f64,
    /// Global cap on inserted shortcut edges.
    pub max_edges: usize,
    /// Number of observed hub vertices to promote to entry points; 0
    /// disables entry refresh.
    pub refresh_entries: usize,
    /// Keep the build-time fixed entries and append hubs (default), vs.
    /// replace them outright. Keeping them preserves builder invariants
    /// like NSG's reachability-from-medoid.
    pub keep_base_entries: bool,
    /// Mining threads; 0 = auto (the [`crate::parallel`] convention).
    /// Never changes the output, only the wall clock.
    pub threads: usize,
}

impl Default for AdaptParams {
    fn default() -> Self {
        AdaptParams {
            min_gap: 4.0,
            min_traffic: 2,
            max_extra_degree: 4,
            max_reach: 1.0,
            max_edges: usize::MAX,
            refresh_entries: 8,
            keep_base_entries: true,
            threads: 0,
        }
    }
}

impl AdaptParams {
    /// Disables the `max_reach` median-distance gate (sets it to
    /// infinity), admitting arbitrarily long "wormhole" shortcuts.
    ///
    /// This is the documented *degradation-inducing* configuration: the
    /// gate exists precisely because ungated catapults drag searches
    /// toward hot clusters and hurt cold-cluster recall. The online
    /// recall auditor's tests use it to manufacture a real quality
    /// regression (the recall SLO must flip to breach while the latency
    /// SLO stays ok); production configurations should never ship it.
    pub fn ungated(mut self) -> Self {
        self.max_reach = f64::INFINITY;
        self
    }
}

/// A typed adaptation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdaptError {
    /// The trace aggregate covers a different vertex count than the graph.
    SizeMismatch {
        /// Vertices in the index graph.
        graph: usize,
        /// Vertices the aggregate covers.
        traces: usize,
    },
    /// The dataset does not match the index.
    DatasetMismatch {
        /// Vertices in the index graph.
        graph: usize,
        /// Points in the dataset.
        dataset: usize,
    },
    /// The aggregate absorbed no routes — nothing to mine.
    NoTraces,
    /// `max_extra_degree == 0`: the budget admits no shortcut anywhere.
    ZeroDegreeBudget,
    /// Per-shard adaptation got the wrong number of aggregates.
    ShardCount {
        /// Shards in the set.
        shards: usize,
        /// Aggregates supplied.
        aggs: usize,
    },
    /// An overlay insertion failed (defensive; the miner pre-filters).
    Overlay(OverlayError),
}

impl std::fmt::Display for AdaptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptError::SizeMismatch { graph, traces } => write!(
                f,
                "trace aggregate covers {traces} vertices but the graph has {graph}"
            ),
            AdaptError::DatasetMismatch { graph, dataset } => write!(
                f,
                "dataset has {dataset} points but the graph has {graph} vertices"
            ),
            AdaptError::NoTraces => write!(f, "trace aggregate holds no routes"),
            AdaptError::ZeroDegreeBudget => {
                write!(f, "max_extra_degree is 0: no shortcut could ever be added")
            }
            AdaptError::ShardCount { shards, aggs } => {
                write!(f, "{aggs} trace aggregates supplied for {shards} shards")
            }
            AdaptError::Overlay(e) => write!(f, "overlay insertion failed: {e}"),
        }
    }
}

impl std::error::Error for AdaptError {}

impl From<OverlayError> for AdaptError {
    fn from(e: OverlayError) -> Self {
        AdaptError::Overlay(e)
    }
}

/// What one adaptation pass did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptReport {
    /// Routes the aggregate was mined from.
    pub routes: u64,
    /// Candidate shortcuts that survived the traffic/gap/novelty filters.
    pub candidates: usize,
    /// Shortcut edges actually inserted (≤ candidates: budget + cap).
    pub edges_added: usize,
    /// Vertices that received at least one shortcut.
    pub vertices_extended: usize,
    /// The entry points after refresh, in **original** id space (the
    /// pre-adaptation entries when refresh is disabled or found no hubs).
    pub entries: Vec<u32>,
}

/// One scored candidate shortcut (index id space).
struct Candidate {
    src: u32,
    dst: u32,
    count: u64,
    saved: u64,
    /// Bit pattern of the endpoint distance — total order for f32 ≥ 0.
    dist_bits: u32,
}

/// Mines the aggregate for catapult shortcuts over `base` (index id
/// space) and freezes them into an overlay segment. `perm` maps index ids
/// back to the caller's dataset for endpoint-distance scoring. Returns
/// the overlay plus the number of surviving candidates.
///
/// Pure function of its arguments: see the module docs for why thread
/// count and trace ordering cannot change the result.
pub fn mine_catapults(
    base: &CsrGraph,
    ds: &Dataset,
    perm: Option<&Permutation>,
    agg: &TraceAggregate,
    params: &AdaptParams,
) -> Result<(CsrGraph, usize), AdaptError> {
    let n = base.len();
    if agg.len() != n {
        return Err(AdaptError::SizeMismatch {
            graph: n,
            traces: agg.len(),
        });
    }
    if ds.len() != n {
        return Err(AdaptError::DatasetMismatch {
            graph: n,
            dataset: ds.len(),
        });
    }
    if params.max_extra_degree == 0 {
        return Err(AdaptError::ZeroDegreeBudget);
    }
    if agg.routes() == 0 {
        return Err(AdaptError::NoTraces);
    }
    // Candidate filter, in deterministic BTreeMap (src, dst) order: enough
    // traffic, a long enough mean detour, and genuinely new (the base
    // already reaching dst from src in one hop means there is no detour to
    // cut — the router simply didn't take it).
    let mut cands: Vec<Candidate> = Vec::new();
    for (&(src, dst), stat) in agg.pairs() {
        if src == dst
            || stat.count < params.min_traffic
            || (stat.saved as f64 / stat.count as f64) < params.min_gap
            || base.neighbors(src).contains(&dst)
        {
            continue;
        }
        cands.push(Candidate {
            src,
            dst,
            count: stat.count,
            saved: stat.saved,
            dist_bits: 0,
        });
    }
    // Endpoint distances and the spatial reach gate, chunked on the
    // fixed-partition scheduler. `ds.dist` is squared Euclidean, so the
    // reach multiple is applied squared.
    let to_old = |v: u32| perm.map_or(v, |p| p.to_old(v));
    let threads = parallel::resolve_threads(params.threads);
    let reach_sq = (params.max_reach * params.max_reach) as f32;
    let scored: Vec<Vec<(u32, bool)>> = par_chunks_map(
        cands.len(),
        CHUNK,
        threads,
        || (),
        |_, range| {
            range
                .map(|i| {
                    let c = &cands[i];
                    let d = ds.dist(to_old(c.src), to_old(c.dst));
                    let mut nbr: Vec<u32> = base
                        .neighbors(c.src)
                        .iter()
                        .map(|&nb| ds.dist(to_old(c.src), to_old(nb)).to_bits())
                        .collect();
                    nbr.sort_unstable();
                    let span = nbr
                        .get(nbr.len() / 2)
                        .map_or(0.0, |&bits| f32::from_bits(bits));
                    (d.to_bits(), !reach_sq.is_finite() || d <= reach_sq * span)
                })
                .collect()
        },
    );
    let keep: Vec<bool> = scored
        .into_iter()
        .flatten()
        .enumerate()
        .map(|(i, (bits, within_reach))| {
            cands[i].dist_bits = bits;
            within_reach
        })
        .collect();
    let mut it = keep.iter();
    cands.retain(|_| *it.next().expect("one verdict per candidate"));
    // Rank: most total hops saved first, then heaviest traffic, then the
    // shortest jump (closest endpoints), then ids — a total order.
    cands.sort_unstable_by(|a, b| {
        b.saved
            .cmp(&a.saved)
            .then(b.count.cmp(&a.count))
            .then(a.dist_bits.cmp(&b.dist_bits))
            .then(a.src.cmp(&b.src))
            .then(a.dst.cmp(&b.dst))
    });
    // Greedy insertion under the budget: saturated vertices are skipped
    // (their remaining candidates lost the slot race), everything else is
    // a real error.
    let mut overlay = GraphOverlay::new(n, params.max_extra_degree);
    for c in &cands {
        if overlay.num_edges() >= params.max_edges {
            break;
        }
        if overlay.degree(c.src) >= params.max_extra_degree {
            continue;
        }
        overlay.try_add(c.src, c.dst)?;
    }
    Ok((overlay.freeze(), cands.len()))
}

/// The observed hub entry vertices, best first (index id space).
///
/// Hubs are ranked by how often searches *converged* on them (terminal
/// counts), tie-broken by raw visits then id. Terminal counts — not
/// visits — because visit counts are dominated by the old entry region,
/// which is exactly what refresh is trying to escape.
///
/// Selection is *diversified*: accepting hubs in traffic order alone
/// packs every slot into the hottest cluster, and entries concentrated
/// there hijack cold-region queries — their extra seeds flood the
/// bounded candidate pool and evict the old entry before its route to a
/// cold cluster is expanded (observed as total misses, not graceful
/// degradation). So a candidate is skipped when it lies within the
/// spacing radius of an already-accepted hub: half the median pairwise
/// distance over a stride sample of the whole dataset, a scale-free
/// threshold that separates "same region" from "different region" with
/// no tuning. Any slots spacing leaves unfilled fall back to pure
/// traffic order.
///
/// Each selected hub is then replaced by its *gateway*: the busiest
/// recorded predecessor on routes converging at that hub (max traffic,
/// then shortest mean detour, then id). Entering at the terminal itself
/// starts the search too deep — it radiates from one point, loses the
/// approach diversity of the build-time descent, and measurably drops
/// one or two true neighbors per hot query at a fixed beam. The gateway
/// is the crossroads a couple of hops upstream that those routes
/// actually funneled through, so the final approach still fans out the
/// way the traces did.
///
/// Deterministic: distances compared by their bit patterns, ties broken
/// by id.
pub fn hub_entries(
    agg: &TraceAggregate,
    ds: &Dataset,
    perm: Option<&Permutation>,
    count: usize,
) -> Vec<u32> {
    let mut ranked: Vec<u32> = (0..agg.len() as u32)
        .filter(|&v| agg.terminals()[v as usize] > 0)
        .collect();
    ranked.sort_unstable_by(|&a, &b| {
        let (ta, tb) = (agg.terminals()[a as usize], agg.terminals()[b as usize]);
        let (va, vb) = (agg.visits()[a as usize], agg.visits()[b as usize]);
        tb.cmp(&ta).then(vb.cmp(&va)).then(a.cmp(&b))
    });
    if count == 0 || ranked.len() <= count {
        ranked.truncate(count);
        return ranked;
    }

    // Spacing radius: half the median pairwise distance over a fixed
    // stride sample of the *whole dataset* — the global scale, not the
    // candidates'. (Deriving it from the top candidates fails exactly when
    // diversification matters most: under skewed traffic the top
    // candidates all sit in the hottest region, their pairwise distances
    // are local, and the radius collapses to accept them all.) `ds.dist`
    // is squared Euclidean, so half-the-distance is a quarter of the
    // squared median.
    let to_old = |v: u32| perm.map_or(v, |p| p.to_old(v));
    let stride = (ds.len() / 64).max(1) as u32;
    let sample: Vec<u32> = (0..ds.len() as u32).step_by(stride as usize).collect();
    let mut pair_dists: Vec<f32> = Vec::with_capacity(sample.len() * (sample.len() - 1) / 2);
    for (i, &a) in sample.iter().enumerate() {
        for &b in &sample[i + 1..] {
            pair_dists.push(ds.dist(a, b));
        }
    }
    pair_dists.sort_unstable_by_key(|d| d.to_bits());
    let radius = pair_dists
        .get(pair_dists.len() / 2)
        .map_or(0.0, |median| median / 4.0);

    let mut selected: Vec<u32> = Vec::with_capacity(count);
    for &c in &ranked {
        if selected.len() == count {
            break;
        }
        let spaced = selected
            .iter()
            .all(|&s| ds.dist(to_old(c), to_old(s)) >= radius);
        if spaced {
            selected.push(c);
        }
    }
    // Top up unfilled slots in traffic order.
    for &c in &ranked {
        if selected.len() == count {
            break;
        }
        if !selected.contains(&c) {
            selected.push(c);
        }
    }

    // Swap each hub for its gateway: among the hub's well-traveled
    // recorded predecessors (at least half the traffic of its busiest
    // one — early route vertices like the old entry see *every* route,
    // so raw traffic alone would just pick the old entry back), the one
    // with the smallest mean detour, i.e. the heavy crossroads nearest
    // the hub. Pairs are keyed (src, dst) in a BTreeMap, so the scan
    // order — and with the explicit tie-breaks the winner — is
    // deterministic. Mean detours are compared by exact cross
    // multiplication, no float rounding.
    let mut entries: Vec<u32> = Vec::with_capacity(selected.len());
    for &hub in &selected {
        let mut max_count = 0u64;
        for (&(src, dst), stat) in agg.pairs() {
            if dst == hub && src != hub {
                max_count = max_count.max(stat.count);
            }
        }
        let floor = (max_count / 2).max(1);
        let mut best: Option<(u64, u64, u32)> = None; // (saved, count, src)
        for (&(src, dst), stat) in agg.pairs() {
            if dst != hub || src == hub || stat.count < floor {
                continue;
            }
            let better = match best {
                None => true,
                Some((bs, bc, bsrc)) => {
                    // saved/count < bs/bc  <=>  saved*bc < bs*count.
                    let (lhs, rhs) = (
                        stat.saved as u128 * bc as u128,
                        bs as u128 * stat.count as u128,
                    );
                    lhs < rhs
                        || (lhs == rhs && (stat.count > bc || (stat.count == bc && src < bsrc)))
                }
            };
            if better {
                best = Some((stat.saved, stat.count, src));
            }
        }
        let gateway = best.map_or(hub, |(_, _, src)| src);
        if !entries.contains(&gateway) {
            entries.push(gateway);
        }
    }
    entries
}

impl LayoutIndex {
    /// Adapts this index in place from a mined trace aggregate: installs
    /// the catapult overlay (replacing any previous overlay — adaptation
    /// is a pure function of the *base* graph and the supplied traces)
    /// and refreshes the entry points toward the observed hubs.
    ///
    /// `ds` is the caller's dataset in original id space — the same one
    /// handed to every `search` call. The trace aggregate must be in
    /// index id space, which is what [`crate::index::AnnIndex::search_traced`]
    /// records for this index.
    pub fn adapt(
        &mut self,
        ds: &Dataset,
        agg: &TraceAggregate,
        params: &AdaptParams,
    ) -> Result<AdaptReport, AdaptError> {
        let base = self.base_graph();
        let (overlay, candidates) = mine_catapults(&base, ds, self.perm.as_ref(), agg, params)?;
        let combined = merge_overlay(&base, &overlay);
        let vertices_extended = (0..overlay.len() as u32)
            .filter(|&v| overlay.degree(v) > 0)
            .count();
        let edges_added = overlay.num_edges();
        self.install_combined(combined, overlay, ds);
        // Entry refresh: hubs are index-space ids; seeds live in original
        // id space.
        let to_old = |v: u32| self.perm.as_ref().map_or(v, |p| p.to_old(v));
        let hubs: Vec<u32> = hub_entries(agg, ds, self.perm.as_ref(), params.refresh_entries)
            .into_iter()
            .map(to_old)
            .collect();
        if !hubs.is_empty() {
            let mut entries = match (&self.seeds, params.keep_base_entries) {
                (SeedStrategy::Fixed(v), true) => v.clone(),
                _ => Vec::new(),
            };
            for h in hubs {
                if !entries.contains(&h) {
                    entries.push(h);
                }
            }
            self.seeds = SeedStrategy::Fixed(entries);
        }
        let entries = match &self.seeds {
            SeedStrategy::Fixed(v) => v.clone(),
            _ => Vec::new(),
        };
        Ok(AdaptReport {
            routes: agg.routes(),
            candidates,
            edges_added,
            vertices_extended,
            entries,
        })
    }
}
