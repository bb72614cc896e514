//! C1 — initialization of the *Refinement* construction strategy
//! (Definition 4.2): produce each point's starting neighbor pool.

use crate::nndescent::{nn_descent, seed_table, NnDescentParams};
use crate::parallel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use weavess_data::{Dataset, Neighbor};
use weavess_trees::KdForest;

/// Random neighbor initialization (KGraph, Vamana): `k` distinct random
/// neighbors per point, distances computed — the descent engines' seeding
/// without given neighbors, scored on one worker.
pub fn init_random(ds: &Dataset, k: usize, seed: u64) -> Vec<Vec<Neighbor>> {
    let k = k.min(ds.len().saturating_sub(1));
    let (table, _) = seed_table(ds, None, k, k.max(1), &mut StdRng::seed_from_u64(seed), 1);
    table.lists(k)
}

/// KD-forest initialization (EFANNA): seed each point's pool with a
/// budgeted forest search (`params.l` entries, self excluded), then refine
/// with NN-Descent.
pub fn init_kdtree_nn_descent(
    ds: &Dataset,
    forest: &KdForest,
    checks_per_tree: usize,
    params: &NnDescentParams,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    let mut initial: Vec<Vec<Neighbor>> = vec![Vec::new(); ds.len()];
    parallel::par_fill(
        &mut initial,
        parallel::CHUNK,
        parallel::resolve_threads(threads),
        || (),
        |_, start, slot| {
            for (j, row) in slot.iter_mut().enumerate() {
                let v = (start + j) as u32;
                let (mut pool, _) = forest.search(ds, ds.point(v), params.l, checks_per_tree);
                pool.retain(|x| x.id != v);
                *row = pool;
            }
        },
    );
    nn_descent(ds, params, Some(&initial))
}

/// Brute-force initialization (IEH, FANNG, k-DR): the exact KNNG with
/// distances attached. `threads == 0` is one per available core, as for
/// every builder.
pub fn init_brute_force(ds: &Dataset, k: usize, threads: usize) -> Vec<Vec<Neighbor>> {
    weavess_data::ground_truth::exact_knn_graph(ds, k, parallel::resolve_threads(threads))
        .into_iter()
        .enumerate()
        .map(|(v, row)| {
            row.into_iter()
                .map(|u| Neighbor::new(u, ds.dist(v as u32, u)))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::knn_recall;
    use weavess_data::ground_truth::exact_knn_graph;
    use weavess_data::synthetic::MixtureSpec;

    fn dataset() -> Dataset {
        MixtureSpec::table10(12, 600, 4, 3.0, 10).generate().0
    }

    #[test]
    fn random_init_has_right_shape_and_no_self_loops() {
        let ds = dataset();
        let g = init_random(&ds, 8, 3);
        assert_eq!(g.len(), ds.len());
        for (v, row) in g.iter().enumerate() {
            assert_eq!(row.len(), 8);
            assert!(row.iter().all(|n| n.id != v as u32));
            let mut ids: Vec<u32> = row.iter().map(|n| n.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 8);
        }
    }

    #[test]
    fn brute_force_init_is_exact() {
        let ds = dataset();
        let g = init_brute_force(&ds, 5, 4);
        let exact = exact_knn_graph(&ds, 5, 4);
        assert!((knn_recall(&g, &exact) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn kdtree_init_beats_random_at_equal_iterations() {
        let ds = dataset();
        let exact = exact_knn_graph(&ds, 10, 4);
        let params = NnDescentParams {
            k: 10,
            l: 20,
            iters: 1,
            sample: 8,
            reverse: 10,
            seed: 5,
            threads: 2,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let forest = KdForest::build(&ds, 4, 16, &mut rng);
        let tree_init = init_kdtree_nn_descent(&ds, &forest, 200, &params, 2);
        let random = nn_descent(&ds, &params, None);
        let q_tree = knn_recall(&tree_init, &exact);
        let q_rand = knn_recall(&random, &exact);
        assert!(q_tree > q_rand, "{q_tree} <= {q_rand}");
    }
}
