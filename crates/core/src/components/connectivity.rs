//! C5 — connectivity (§4.1): make sure search can reach every vertex.
//!
//! *Increment* builders get this for free; *Refinement* builders (NSG,
//! NSSG, OA) attach a DFS-based repair pass; DPG undirects all edges.

use crate::search::{beam_search, SearchScratch, SearchStats};
use weavess_data::neighbor::insert_into_pool;
use weavess_data::{Dataset, Neighbor};
use weavess_graph::connectivity::reachable_from;
use weavess_graph::CsrGraph;

/// NSG-style DFS repair: repeatedly find a vertex unreachable from `entry`
/// (following directed edges), locate its approximate nearest *reachable*
/// vertex by graph search, and add one bridging edge from that vertex.
///
/// Operates on plain neighbor lists; returns the number of edges added.
pub fn dfs_repair(ds: &Dataset, lists: &mut [Vec<Neighbor>], entry: u32, beam: usize) -> usize {
    let n = lists.len();
    let mut added = 0usize;
    let mut scratch = SearchScratch::new(n);
    let mut stats = SearchStats::default();
    // One frozen snapshot for bridge searches; bridge targets are checked
    // against the live `reach` array, so the snapshot staying stale is fine.
    let csr = CsrGraph::from_neighbor_lists(lists);
    let mut reach = reachable_from(&csr, entry);
    let mut scan = 0usize;
    loop {
        let Some(orphan) = (scan..n).find(|&v| !reach[v]) else {
            return added;
        };
        scan = orphan; // earlier vertices are all reachable now
        let orphan = orphan as u32;
        // Approximate nearest reachable vertex to the orphan.
        scratch.next_epoch();
        let pool = beam_search(
            ds,
            &csr,
            ds.point(orphan),
            &[entry],
            beam,
            &mut scratch,
            &mut stats,
        );
        let bridge = pool
            .iter()
            .find(|c| reach[c.id as usize] && c.id != orphan)
            .map(|c| c.id)
            .unwrap_or(entry);
        let d = ds.dist(bridge, orphan);
        // Append without evicting: the bridge must survive, even if it
        // bumps the vertex over its degree bound (NSG does the same).
        lists[bridge as usize].push(Neighbor::new(orphan, d));
        lists[bridge as usize].sort_unstable();
        added += 1;
        // Extend reachability from the newly bridged orphan (its whole
        // downstream component becomes reachable).
        let mut stack = vec![orphan];
        reach[orphan as usize] = true;
        while let Some(v) = stack.pop() {
            for x in &lists[v as usize] {
                if !reach[x.id as usize] {
                    reach[x.id as usize] = true;
                    stack.push(x.id);
                }
            }
        }
    }
}

/// DPG-style undirection: add every edge's reverse, bounding each vertex's
/// list at `max_degree` (nearest kept). Returns edges added.
pub fn add_reverse_edges(lists: &mut [Vec<Neighbor>], max_degree: usize) -> usize {
    let mut reverse: Vec<Vec<Neighbor>> = vec![Vec::new(); lists.len()];
    for (v, l) in lists.iter().enumerate() {
        for n in l {
            reverse[n.id as usize].push(Neighbor::new(v as u32, n.dist));
        }
    }
    let mut added = 0usize;
    for (l, r) in lists.iter_mut().zip(reverse) {
        for n in r {
            if insert_into_pool(l, max_degree, n).is_some() {
                added += 1;
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavess_data::synthetic::MixtureSpec;
    use weavess_graph::connectivity::weak_components;

    #[test]
    fn dfs_repair_makes_everything_reachable() {
        let ds = MixtureSpec::table10(4, 60, 3, 1.0, 5).generate().0;
        // Start with a graph of 3 chains, one per 20 ids, disconnected.
        let mut lists: Vec<Vec<Neighbor>> = (0..60u32)
            .map(|v| {
                if v % 20 == 19 {
                    Vec::new()
                } else {
                    vec![Neighbor::new(v + 1, ds.dist(v, v + 1))]
                }
            })
            .collect();
        let added = dfs_repair(&ds, &mut lists, 0, 10);
        assert!(added >= 2, "added={added}");
        let csr = CsrGraph::from_neighbor_lists(&lists);
        let reach = reachable_from(&csr, 0);
        assert!(reach.iter().all(|&r| r));
    }

    #[test]
    fn dfs_repair_is_noop_on_connected_graph() {
        let ds = MixtureSpec::table10(4, 10, 1, 1.0, 2).generate().0;
        let mut lists: Vec<Vec<Neighbor>> = (0..10u32)
            .map(|v| {
                let u = (v + 1) % 10;
                vec![Neighbor::new(u, ds.dist(v, u))]
            })
            .collect();
        assert_eq!(dfs_repair(&ds, &mut lists, 0, 5), 0);
    }

    #[test]
    fn reverse_edges_undirect_the_graph() {
        let ds = MixtureSpec::table10(4, 20, 1, 2.0, 2).generate().0;
        let mut lists: Vec<Vec<Neighbor>> = (0..20u32)
            .map(|v| {
                let u = (v + 7) % 20;
                vec![Neighbor::new(u, ds.dist(v, u))]
            })
            .collect();
        add_reverse_edges(&mut lists, 8);
        for (v, l) in lists.iter().enumerate() {
            for n in l {
                assert!(
                    lists[n.id as usize].iter().any(|m| m.id == v as u32),
                    "edge {v}->{} lost its reverse",
                    n.id
                );
            }
        }
        assert_eq!(weak_components(&CsrGraph::from_neighbor_lists(&lists)), 1);
    }

    #[test]
    fn reverse_edges_respect_degree_bound() {
        // A star: everyone points at vertex 0; reversing must cap 0's list.
        let ds = MixtureSpec::table10(4, 30, 1, 2.0, 2).generate().0;
        let mut lists: Vec<Vec<Neighbor>> = (0..30u32)
            .map(|v| {
                if v == 0 {
                    Vec::new()
                } else {
                    vec![Neighbor::new(0, ds.dist(v, 0))]
                }
            })
            .collect();
        add_reverse_edges(&mut lists, 5);
        assert!(lists[0].len() <= 5);
    }
}
