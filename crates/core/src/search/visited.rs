//! Epoch-stamped visited set.
//!
//! Search visits thousands of vertices per query; clearing a boolean array
//! each time would cost O(n). An epoch stamp array makes reset O(1): a
//! vertex is visited iff its stamp equals the current epoch.
//!
//! Stamps are `u16`, as in hnswlib: the array is half the size of a `u32`
//! one (260 KB at 130k vertices), so more of it stays cached across a
//! walk's random touches, and the price is one O(n) reset every 65 535
//! epochs when the counter wraps.

/// Reusable visited-set for graphs of a fixed vertex count.
#[derive(Debug, Clone)]
pub struct VisitedPool {
    stamp: Vec<u16>,
    epoch: u16,
}

impl VisitedPool {
    /// A pool for `n` vertices, all unvisited.
    pub fn new(n: usize) -> Self {
        VisitedPool {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Starts a fresh query: every vertex becomes unvisited in O(1).
    pub fn next_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped after 65 535 queries: do the rare O(n) reset.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `v` visited; returns `true` when it was not yet visited this
    /// epoch (i.e. the caller should process it).
    #[inline]
    pub fn visit(&mut self, v: u32) -> bool {
        self.visit_if(v, || true)
    }

    /// Marks every vertex of `vs` visited and stages the ones that were
    /// fresh into `fresh`, in order — [`Self::visit`] over `vs` without a
    /// branch per vertex: each id is written at the stage's end and kept
    /// by advancing the end only when it was fresh, and each stamp is
    /// written unconditionally. A vertex repeated in `vs` is staged once.
    #[inline]
    pub(crate) fn visit_all(&mut self, vs: &[u32], fresh: &mut Vec<u32>) {
        fresh.clear();
        fresh.resize(vs.len(), 0);
        let mut m = 0;
        for &v in vs {
            let s = &mut self.stamp[v as usize];
            let new = *s != self.epoch;
            *s = self.epoch;
            fresh[m] = v;
            m += new as usize;
        }
        fresh.truncate(m);
    }

    /// [`Self::visit`] for callers that may turn a fresh vertex away:
    /// `admit` runs only when `v` is unvisited, and a refused `v` stays
    /// unvisited.
    #[inline]
    pub(crate) fn visit_if(&mut self, v: u32, admit: impl FnOnce() -> bool) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch || !admit() {
            false
        } else {
            *s = self.epoch;
            true
        }
    }

    /// True when `v` was already visited this epoch.
    #[inline]
    pub fn is_visited(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// Fast-forwards so the epoch counter wraps after `remaining` more
    /// [`next_epoch`](Self::next_epoch) calls. Only jumps forward (stamps
    /// stay strictly older than the new epoch), so the visible state is
    /// exactly "fresh epoch, nothing visited" — this lets tests exercise
    /// the rollover without 65 535 queries. A `remaining` at or past the
    /// counter's range leaves the epoch where it is.
    pub fn jump_near_rollover(&mut self, remaining: u32) {
        let target = u32::from(u16::MAX).saturating_sub(remaining) as u16;
        if target > self.epoch {
            self.epoch = target;
        }
    }

    /// Grows the pool to cover at least `n` vertices (new vertices start
    /// unvisited). Needed by dynamically updated indexes.
    pub fn ensure_len(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Number of vertices this pool covers.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// True when the pool covers zero vertices.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_marks_once_per_epoch() {
        let mut p = VisitedPool::new(4);
        assert!(p.visit(2));
        assert!(!p.visit(2));
        assert!(p.is_visited(2));
        assert!(!p.is_visited(1));
    }

    #[test]
    fn next_epoch_resets_in_constant_time() {
        let mut p = VisitedPool::new(4);
        p.visit(0);
        p.visit(3);
        p.next_epoch();
        assert!(!p.is_visited(0));
        assert!(!p.is_visited(3));
        assert!(p.visit(0));
    }

    #[test]
    fn epoch_wraparound_is_handled() {
        let mut p = VisitedPool::new(2);
        p.epoch = u16::MAX - 1;
        p.visit(0);
        p.next_epoch(); // MAX
        p.visit(1);
        p.next_epoch(); // wraps to 0 -> reset -> 1
        assert!(!p.is_visited(0));
        assert!(!p.is_visited(1));
        assert!(p.visit(0));
    }

    #[test]
    fn visit_all_stages_fresh_vertices_once_in_order() {
        let mut p = VisitedPool::new(8);
        p.visit(3);
        let mut fresh = vec![9; 2];
        p.visit_all(&[5, 3, 1, 5, 7, 1], &mut fresh);
        assert_eq!(fresh, [5, 1, 7]);
        assert!([1, 3, 5, 7].iter().all(|&v| p.is_visited(v)));
        p.visit_all(&[1, 7], &mut fresh);
        assert!(fresh.is_empty());
    }
}
