//! C2 — candidate neighbor acquisition (Definition 4.4): produce the
//! candidate set from which C3 selects a point's final neighbors.

use crate::search::{beam_search, SearchScratch, SearchStats};
use weavess_data::neighbor::insert_into_pool;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::CsrGraph;

/// Graph-search acquisition (NSW, HNSW, NSG, Vamana): treat `p` as a query
/// and run best-first search on the current graph from `entry` seeds;
/// the visited pool beyond the beam is *also* collected (NSG keeps every
/// visited vertex as a candidate, which diversifies the pool).
#[allow(clippy::too_many_arguments)]
pub fn candidates_by_search(
    ds: &Dataset,
    g: &CsrGraph,
    p: u32,
    entry: &[u32],
    beam: usize,
    cap: usize,
    scratch: &mut SearchScratch,
    stats: &mut SearchStats,
) -> Vec<Neighbor> {
    scratch.next_epoch();
    let mut pool = beam_search(ds, g, ds.point(p), entry, beam, scratch, stats);
    pool.retain(|n| n.id != p);
    pool.truncate(cap);
    pool
}

/// Expansion acquisition (KGraph, EFANNA, NSSG): `p`'s neighbors plus
/// neighbors-of-neighbors on the initial graph — no distance-guided search,
/// which is what makes NSSG's construction fast (§3.2 A11).
pub fn candidates_by_expansion(
    ds: &Dataset,
    lists: &[Vec<Neighbor>],
    p: u32,
    cap: usize,
) -> Vec<Neighbor> {
    let mut pool: Vec<Neighbor> = Vec::with_capacity(cap + 1);
    for n1 in &lists[p as usize] {
        insert_into_pool(&mut pool, cap, *n1);
        for n2 in &lists[n1.id as usize] {
            if n2.id != p {
                insert_into_pool(&mut pool, cap, Neighbor::new(n2.id, ds.dist(p, n2.id)));
            }
        }
    }
    pool
}

/// Subspace acquisition (SPTAG, HCNNG): within a divide-and-conquer leaf,
/// every other member is a candidate.
pub fn candidates_subspace(ds: &Dataset, leaf: &[u32], p: u32) -> Vec<Neighbor> {
    let mut pool: Vec<Neighbor> = leaf
        .iter()
        .filter(|&&x| x != p)
        .map(|&x| Neighbor::new(x, ds.dist(p, x)))
        .collect();
    pool.sort_unstable();
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::init::init_brute_force;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::base::exact_knng;

    fn dataset() -> Dataset {
        MixtureSpec::table10(8, 300, 3, 3.0, 5).generate().0
    }

    #[test]
    fn search_candidates_exclude_self_and_are_sorted() {
        let ds = dataset();
        let g = exact_knng(&ds, 8, 2);
        let mut scratch = SearchScratch::new(ds.len());
        let mut stats = SearchStats::default();
        let c = candidates_by_search(&ds, &g, 7, &[0], 30, 20, &mut scratch, &mut stats);
        assert!(c.iter().all(|n| n.id != 7));
        assert!(c.len() <= 20);
        assert!(c.windows(2).all(|w| w[0].dist <= w[1].dist));
        assert!(stats.ndc > 0);
    }

    #[test]
    fn expansion_includes_two_hop_neighborhood() {
        let ds = dataset();
        let lists = init_brute_force(&ds, 4, 2);
        let c = candidates_by_expansion(&ds, &lists, 0, 64);
        // Must contain the direct neighbors...
        for n in &lists[0] {
            assert!(c.iter().any(|x| x.id == n.id));
        }
        // ...and likely more than just them.
        assert!(c.len() > lists[0].len());
        assert!(c.iter().all(|n| n.id != 0));
    }

    #[test]
    fn subspace_candidates_cover_leaf() {
        let ds = dataset();
        let leaf = [3u32, 9, 12, 20];
        let c = candidates_subspace(&ds, &leaf, 9);
        assert_eq!(c.len(), 3);
        assert!(c.iter().all(|n| n.id != 9));
        assert!(c.windows(2).all(|w| w[0].dist <= w[1].dist));
    }
}
