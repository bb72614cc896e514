//! Quantized graph search: route over SQ8 codes, rerank with raw vectors —
//! one concrete answer to the survey's §6 challenge of combining data
//! encoding with graph-based ANNS (the memory side of the trade-off the
//! paper's Table 5 "MO" column measures).

use crate::index::IndexError;
use crate::search::{beam_search, rerank, SearchScratch, SearchStats};
use weavess_data::quant::Sq8Dataset;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::{CsrGraph, FusedArena};

/// A graph index whose routing distances come from SQ8 codes.
///
/// The graph is built however the caller likes (full precision); only
/// *search* touches the quantized vectors, so a deployment can drop the
/// raw vectors from RAM and keep them on slower storage for reranking.
/// [`QuantizedIndex::with_fused_layout`] instead packs each vertex's
/// codes next to its adjacency in a [`FusedArena`] — bit-identical
/// results, one pointer chase per expansion.
pub struct QuantizedIndex {
    routing: Routing,
    entries: Vec<u32>,
    /// [`Sq8Dataset::memory_bytes`] of the codes, also once only the
    /// arena holds them.
    codes_bytes: usize,
}

/// What routing reads: the split graph and codes, or the one arena fused
/// from them.
enum Routing {
    Split { graph: CsrGraph, codes: Sq8Dataset },
    Fused(FusedArena),
}

impl QuantizedIndex {
    /// Wraps a built graph with quantized routing.
    ///
    /// # Panics
    /// Panics on an empty dataset or a graph/dataset size mismatch; use
    /// [`QuantizedIndex::try_new`] where those are runtime conditions.
    pub fn new(graph: CsrGraph, ds: &Dataset, entries: Vec<u32>) -> Self {
        Self::try_new(graph, ds, entries).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`QuantizedIndex::new`]: returns a typed error instead of
    /// panicking when the dataset is empty (SQ8 training has no ranges to
    /// fit) or when the graph does not cover the dataset — conditions a
    /// seeded shard partition can legitimately produce.
    pub fn try_new(graph: CsrGraph, ds: &Dataset, entries: Vec<u32>) -> Result<Self, IndexError> {
        if ds.is_empty() {
            return Err(IndexError::EmptyDataset {
                context: "QuantizedIndex",
            });
        }
        if graph.len() != ds.len() {
            return Err(IndexError::SizeMismatch {
                graph: graph.len(),
                dataset: ds.len(),
            });
        }
        let codes = Sq8Dataset::quantize(ds);
        Ok(QuantizedIndex {
            codes_bytes: codes.memory_bytes(),
            routing: Routing::Split { graph, codes },
            entries,
        })
    }

    /// Switches routing to a fused adjacency+codes arena. The split graph
    /// and codes go into the arena and are dropped: routing reads only the
    /// arena, and [`Self::search`]'s rerank reads the caller's `full`
    /// vectors.
    pub fn with_fused_layout(self) -> Self {
        let routing = match self.routing {
            Routing::Split { graph, codes } => Routing::Fused(FusedArena::with_sq8(&graph, &codes)),
            fused => fused,
        };
        QuantizedIndex { routing, ..self }
    }

    /// Best-first search over quantized distances; returns up to `beam`
    /// candidates ordered by *quantized* distance. `stats.ndc` counts
    /// quantized evaluations.
    ///
    /// Runs the shared [`beam_search`] over the SQ8 [`weavess_data::VectorView`]
    /// with the caller's [`SearchScratch`] — no per-query allocation.
    pub fn search_quantized(
        &self,
        query: &[f32],
        beam: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
    ) -> Vec<Neighbor> {
        scratch.next_epoch();
        match &self.routing {
            Routing::Fused(arena) => {
                beam_search(arena, arena, query, &self.entries, beam, scratch, stats)
            }
            Routing::Split { graph, codes } => {
                beam_search(codes, graph, query, &self.entries, beam, scratch, stats)
            }
        }
    }

    /// Full search: quantized routing, then rerank the pool with raw
    /// vectors from `full`. `full_evals` counts the rerank distances.
    #[allow(clippy::too_many_arguments)]
    pub fn search(
        &self,
        full: &Dataset,
        query: &[f32],
        k: usize,
        beam: usize,
        scratch: &mut SearchScratch,
        stats: &mut SearchStats,
        full_evals: &mut u64,
    ) -> Vec<Neighbor> {
        let pool = self.search_quantized(query, beam.max(k), scratch, stats);
        *full_evals += pool.len() as u64;
        rerank(full, query, &pool, k, scratch)
    }

    /// Routing memory: the graph plus codes, or the fused arena (raw
    /// vectors excluded — that is the point).
    pub fn memory_bytes(&self) -> usize {
        match &self.routing {
            Routing::Split { graph, codes } => graph.memory_bytes() + codes.memory_bytes(),
            Routing::Fused(arena) => arena.memory_bytes(),
        }
    }

    /// Bytes of the SQ8 codes alone — the resident-vector footprint the
    /// quantization buys, independent of which layout routes over them.
    pub fn codes_memory_bytes(&self) -> usize {
        self.codes_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::nsg::{self, NsgParams};
    use crate::index::{AnnIndex, SearchContext};
    use weavess_data::ground_truth::ground_truth;
    use weavess_data::metrics::recall;
    use weavess_data::synthetic::MixtureSpec;

    fn setup() -> (Dataset, Dataset, crate::index::FlatIndex) {
        let spec = MixtureSpec {
            intrinsic_dim: Some(8),
            noise: 0.05,
            shared_subspace: true,
            ..MixtureSpec::table10(32, 2_000, 4, 5.0, 40)
        };
        let (base, queries) = spec.generate();
        let idx = nsg::build(&base, &NsgParams::tuned(2, 1));
        (base, queries, idx)
    }

    #[test]
    fn quantized_routing_keeps_recall() {
        let (ds, qs, base_idx) = setup();
        let gt = ground_truth(&ds, &qs, 10, 2);
        let q_idx = QuantizedIndex::new(base_idx.graph.clone(), &ds, vec![ds.medoid()]);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let mut full_evals = 0u64;
        let mut total = 0.0;
        for qi in 0..qs.len() as u32 {
            let res = q_idx.search(
                &ds,
                qs.point(qi),
                10,
                60,
                &mut scratch,
                &mut stats,
                &mut full_evals,
            );
            let ids: Vec<u32> = res.iter().map(|n| n.id).collect();
            total += recall(&ids, &gt[qi as usize]);
        }
        let r = total / qs.len() as f64;
        assert!(r > 0.9, "quantized recall {r}");
        assert!(full_evals > 0);
    }

    #[test]
    fn quantized_routing_memory_is_much_smaller() {
        let (ds, _, base_idx) = setup();
        let q_idx = QuantizedIndex::new(base_idx.graph.clone(), &ds, vec![0]);
        let full_route_bytes = base_idx.graph.memory_bytes() + ds.memory_bytes();
        assert!(
            q_idx.memory_bytes() * 2 < full_route_bytes,
            "{} !<< {}",
            q_idx.memory_bytes(),
            full_route_bytes
        );
    }

    #[test]
    fn quantized_matches_full_precision_results_mostly() {
        let (ds, qs, base_idx) = setup();
        let q_idx = QuantizedIndex::new(base_idx.graph.clone(), &ds, vec![ds.medoid()]);
        let mut ctx = SearchContext::new(ds.len());
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let mut full_evals = 0u64;
        let mut overlap = 0usize;
        for qi in 0..qs.len() as u32 {
            let a: Vec<u32> = base_idx
                .search(&ds, qs.point(qi), 10, 60, &mut ctx)
                .iter()
                .map(|n| n.id)
                .collect();
            let b: Vec<u32> = q_idx
                .search(
                    &ds,
                    qs.point(qi),
                    10,
                    60,
                    &mut scratch,
                    &mut stats,
                    &mut full_evals,
                )
                .iter()
                .map(|n| n.id)
                .collect();
            overlap += b.iter().filter(|id| a.contains(id)).count();
        }
        let frac = overlap as f64 / (10 * qs.len()) as f64;
        assert!(frac > 0.8, "overlap {frac}");
    }

    /// Fusing keeps the arena alone: no split graph or codes stay
    /// resident beside it, and the codes' byte count survives.
    #[test]
    fn fused_index_holds_only_its_arena() {
        let (ds, _, base_idx) = setup();
        let split = QuantizedIndex::new(base_idx.graph.clone(), &ds, vec![0]);
        let fused = QuantizedIndex::new(base_idx.graph.clone(), &ds, vec![0]).with_fused_layout();
        let codes = Sq8Dataset::quantize(&ds);
        let arena = FusedArena::with_sq8(&base_idx.graph, &codes);
        assert_eq!(fused.memory_bytes(), arena.memory_bytes());
        assert_eq!(fused.codes_memory_bytes(), codes.memory_bytes());
        assert_eq!(split.codes_memory_bytes(), codes.memory_bytes());
        assert_eq!(
            split.memory_bytes(),
            base_idx.graph.memory_bytes() + codes.memory_bytes()
        );
    }

    /// The fused SQ8 arena must be a pure layout change: same ids, same
    /// distance bits, same NDC/hops as the split codes+graph routing.
    #[test]
    fn fused_layout_is_bit_identical_to_split() {
        let (ds, qs, base_idx) = setup();
        let split = QuantizedIndex::new(base_idx.graph.clone(), &ds, vec![ds.medoid()]);
        let fused =
            QuantizedIndex::new(base_idx.graph.clone(), &ds, vec![ds.medoid()]).with_fused_layout();
        let mut scratch = SearchScratch::new(ds.len());
        for qi in 0..qs.len() as u32 {
            let mut s1 = SearchStats::default();
            let mut s2 = SearchStats::default();
            let a = split.search_quantized(qs.point(qi), 60, &mut scratch, &mut s1);
            let b = fused.search_quantized(qs.point(qi), 60, &mut scratch, &mut s2);
            assert_eq!(a.len(), b.len(), "query {qi}");
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.dist.to_bits(), y.dist.to_bits());
            }
            assert_eq!(s1, s2, "query {qi}");
        }
    }
}
