//! The `(id, distance)` pair used by every graph and search structure.

use std::cmp::Ordering;

/// A candidate neighbor: a point id plus its distance to some reference
/// point (a query or another base point).
///
/// Ordering is by distance first and id second, so sorting a slice of
/// `Neighbor`s yields a deterministic nearest-first order even under
/// distance ties.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Index of the point in its [`crate::Dataset`].
    pub id: u32,
    /// Distance to the reference point (squared Euclidean throughout this
    /// workspace; monotone in true Euclidean, so orderings agree).
    pub dist: f32,
}

impl Neighbor {
    /// Creates a neighbor record.
    #[inline]
    pub fn new(id: u32, dist: f32) -> Self {
        Neighbor { id, dist }
    }
}

impl Eq for Neighbor {}

impl PartialOrd for Neighbor {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Neighbor {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // NaN distances never occur for finite inputs; total_cmp keeps the
        // ordering total anyway.
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// Inserts `n` into a nearest-first sorted, capacity-bounded pool.
///
/// Returns the insertion position, or `None` when `n` was rejected (already
/// present, or farther than the current worst while the pool is full). This
/// is the primitive behind the builders' candidate gathering and the
/// routers' result pools. The best-first candidate set of the paper's
/// Algorithm 1 (`weavess_core::search`) and the descent engines' pools
/// (`weavess_core::nndescent`) keep the same order and outcomes on packed
/// arrays.
#[inline]
pub fn insert_into_pool(pool: &mut Vec<Neighbor>, capacity: usize, n: Neighbor) -> Option<usize> {
    debug_assert!(capacity > 0);
    // A full pool turns most candidates away, so settle those with one
    // comparison against the current worst. Strictly worse only: a
    // candidate that ties the worst entry may be its duplicate, which the
    // search below decides.
    if pool.len() >= capacity && pool[capacity - 1] < n {
        return None;
    }
    // Binary search on the full (dist, id) order keeps ties deterministic.
    let pos = pool.partition_point(|x| x < &n);
    // A true duplicate (same id, same distance — distances are a pure
    // function of the pair) lands exactly at `pos`.
    if pos < pool.len() && pool[pos] == n {
        return None;
    }
    if pos >= capacity {
        return None;
    }
    pool.insert(pos, n);
    pool.truncate(capacity);
    Some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_distance_then_id() {
        let a = Neighbor::new(3, 1.0);
        let b = Neighbor::new(1, 2.0);
        let c = Neighbor::new(0, 1.0);
        let mut v = vec![a, b, c];
        v.sort();
        assert_eq!(v, vec![c, a, b]);
    }

    #[test]
    fn pool_insert_keeps_sorted_and_bounded() {
        let mut pool = Vec::new();
        for (id, d) in [(0u32, 5.0f32), (1, 3.0), (2, 4.0), (3, 1.0), (4, 2.0)] {
            insert_into_pool(&mut pool, 3, Neighbor::new(id, d));
        }
        assert_eq!(pool.len(), 3);
        assert_eq!(pool[0], Neighbor::new(3, 1.0));
        assert_eq!(pool[1], Neighbor::new(4, 2.0));
        assert_eq!(pool[2], Neighbor::new(1, 3.0));
    }

    #[test]
    fn pool_rejects_duplicates() {
        let mut pool = Vec::new();
        assert!(insert_into_pool(&mut pool, 4, Neighbor::new(7, 1.5)).is_some());
        assert!(insert_into_pool(&mut pool, 4, Neighbor::new(7, 1.5)).is_none());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn pool_rejects_worse_than_worst_when_full() {
        let mut pool = vec![Neighbor::new(0, 1.0), Neighbor::new(1, 2.0)];
        assert!(insert_into_pool(&mut pool, 2, Neighbor::new(2, 3.0)).is_none());
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pool_insert_reports_position() {
        let mut pool = vec![Neighbor::new(0, 1.0), Neighbor::new(1, 3.0)];
        let pos = insert_into_pool(&mut pool, 3, Neighbor::new(2, 2.0));
        assert_eq!(pos, Some(1));
    }
}
