//! NN-Descent (Dong et al.), the refinement engine behind KGraph and the
//! initializer of choice (C1) for EFANNA, DPG, NSG, NSSG and the optimized
//! algorithm.
//!
//! Principle: "neighbors of neighbors are likely neighbors". Each vertex
//! keeps a bounded pool of its best known neighbors with *new/old* flags;
//! each iteration joins every vertex's sampled new neighbors against its
//! new+old neighbors (forward and reverse) and inserts improvements. The
//! paper's KGraph parameters map directly: `K` (result degree), `L` (pool
//! size), `iter`, `S` (sample), `R` (reverse sample).
//!
//! An iteration samples every pool (up to `S` new items per vertex are
//! consumed: listed as new, then flagged old), draws the reverse lists
//! from the one RNG stream, and joins. The join reads only those lists,
//! never the pools, so its chunks run in parallel and *stage* both
//! directions of every scored pair for the staged apply below, in waves of
//! one chunk per worker: staging memory grows with the thread count, not
//! `n`, and each apply refreshes the bounds the next wave filters against.
//! The output (ids and distance bits) and the NDC never depend on the
//! thread count.
//!
//! # Descent tables
//!
//! Both descent engines — `nn_descent` here and
//! [`crate::rnndescent::rnn_descent`] — keep their pools in one
//! crate-private `Table`: `n` rows of `cap` slots in one flat `Vec<u64>`,
//! no per-vertex allocation, no lock. A slot is [`crate::search`]'s packed
//! candidate key, `rank(dist) << 32 | id << 1 | new`, so rows sort by one
//! integer comparison and unused (all-ones) slots sort last. One seeding
//! routine fills both engines' first table, and
//! [`crate::components::init::init_random`]'s: a row's `initial` entries
//! (self and repeated ids skipped), then ids drawn from one sequential RNG
//! stream up to the target count, scored in parallel.
//!
//! Insertions for other vertices are staged as `(owner, key)` pairs.
//! `Table::apply` counting-sorts them by owner bucket of `BUCKET` (256)
//! rows and hands each bucket to one worker, which inserts in the total
//! `(distance, id)` order of [`Neighbor`] and rejects exact duplicates. A
//! row's content — flags included: an inserted entry is new, a duplicate
//! offer leaves the entry there untouched — is the top-`cap` of its
//! previous content and all distinct offers, whatever their order or the
//! thread count. An offer strictly worse than its owner's *bound* (a full
//! row's worst distance rank) is dropped before staging; a bound of any
//! age is safe, since a row's worst entry only improves while it receives
//! offers, so staleness changes how much is staged, never what a row holds.
//!
//! # Termination contract
//!
//! Both descent engines share one convergence rule, [`descent_converged`]:
//!
//! - **What is counted.** After each refinement pass, the number of pool
//!   items still flagged *new* — discoveries the next pass would actually
//!   work on. The count is taken from **pool content after the pass**,
//!   never from a "successful inserts this pass" counter: pool content is
//!   the top-`L` of the distinct items offered (order-independent),
//!   whereas an insert counter depends on the order offers arrive in (an
//!   item can be inserted then displaced, or rejected because its
//!   displacer arrived first — the tally differs between orders even
//!   though the final pool is identical).
//! - **The threshold.** The pass loop stops early when the count drops
//!   below `DESCENT_DELTA × n × degree` — KGraph's `delta = 0.001` rule,
//!   where `degree` is the engine's working degree (`K` here, the initial
//!   out-degree `r` for RNN-Descent). `iters`/`inner` are therefore
//!   *budgets*, not fixed costs: a converged dataset stops in fewer
//!   passes, and extra budget changes nothing.
//! - **What "new" means.** An item is flagged new when it enters a pool
//!   and old once a pass has consumed it: sampled into a join here
//!   (`sample` bounds how many new items each vertex may consume per
//!   iteration — `sample = 0` therefore disables refinement entirely), or
//!   pruned-and-kept by RNN-Descent's update pass. Old items are
//!   re-compared only against new ones, which is what makes converged
//!   neighborhoods cheap in both engines.

use crate::parallel;
use crate::search::pool::{dist_rank, neighbor, slot, FLAG as NEW, MAX_VERTICES};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_data::{Dataset, Neighbor};

/// KGraph's `delta`: the early-termination fraction shared by both descent
/// engines (see the module-level *Termination contract*).
pub const DESCENT_DELTA: f64 = 0.001;

/// The shared convergence test: true when `new_flagged` — the number of
/// pool items still flagged new after a refinement pass, a pure function
/// of pool content and therefore of the input, never of thread count —
/// has dropped below `DESCENT_DELTA × n × degree`.
pub fn descent_converged(new_flagged: usize, n: usize, degree: usize) -> bool {
    new_flagged < (DESCENT_DELTA * (n * degree) as f64) as usize
}

/// NN-Descent parameters (KGraph's five sensitive knobs, Appendix H).
#[derive(Debug, Clone)]
pub struct NnDescentParams {
    /// Out-degree of the produced graph (`K`).
    pub k: usize,
    /// Neighbor-pool size during refinement (`L ≥ K`).
    pub l: usize,
    /// Refinement-iteration budget (`iter`) — an upper bound, not a fixed
    /// cost: iteration stops early per the module-level *Termination
    /// contract* ([`descent_converged`]).
    pub iters: usize,
    /// Forward sample size per vertex per iteration (`S`): how many
    /// new-flagged pool items each vertex may consume (join, then mark
    /// old) per iteration. `0` disables refinement — no pair is ever
    /// joined and the output is the initialization's top-`K`.
    pub sample: usize,
    /// Reverse sample size per vertex per iteration (`R`).
    pub reverse: usize,
    /// RNG seed for the random initialization and sampling.
    pub seed: u64,
    /// Construction threads (0 = one per available core). The produced
    /// graph is identical for every value.
    pub threads: usize,
}

impl Default for NnDescentParams {
    fn default() -> Self {
        NnDescentParams {
            k: 20,
            l: 30,
            iters: 8,
            sample: 10,
            reverse: 20,
            seed: 0xBEEF,
            threads: 0,
        }
    }
}

/// Owner rows per apply bucket: what one worker writes while it applies
/// staged offers. 256 rows of 20–60 slots are 40–120 KiB — a bucket's
/// rows stay cache-resident while its offers stream through — and a
/// 20k-point table still splits into ~80 buckets to balance.
const BUCKET: usize = 256;
// `Table::apply` keeps an owner's index within its bucket in a byte.
const _: () = assert!(BUCKET - 1 == u8::MAX as usize);

/// An unused slot. It sorts after every key that occurs: it is the key
/// of id `2^31 - 1` at the NaN with an all-ones payload, which no
/// arithmetic produces. Its flag bit is clear and its distance rank is
/// `u32::MAX`.
pub(crate) const EMPTY: u64 = u64::MAX << 1;

/// A staged insertion: the vertex whose row it is for, and the unflagged
/// key to insert there.
pub(crate) type Offer = (u32, u64);

/// `n` rows of `cap` slots, each sorted nearest-first with [`EMPTY`]
/// padding.
pub(crate) struct Table {
    pub(crate) slots: Vec<u64>,
    pub(crate) cap: usize,
    /// Per row, the distance rank of its last slot — `u32::MAX` while
    /// the row is short, its worst entry's once full. A compact copy for
    /// an admission filter; empty for a table nobody filters against
    /// (RNN-Descent's pruned side, whose rows also shrink).
    pub(crate) bounds: Vec<u32>,
}

impl Table {
    fn empty(n: usize, cap: usize) -> Self {
        Table {
            slots: vec![EMPTY; n * cap],
            cap,
            bounds: Vec::new(),
        }
    }

    /// `self` with the bound of every row.
    pub(crate) fn bounded(mut self) -> Table {
        let cap = self.cap;
        self.bounds = self
            .slots
            .chunks_exact(cap)
            .map(|r| dist_rank(r[cap - 1]))
            .collect();
        self
    }

    /// A bounded table holding the first `cap` slots of each of `self`'s
    /// rows.
    pub(crate) fn top(&self, cap: usize) -> Table {
        let rows = self.slots.chunks_exact(self.cap);
        Table {
            slots: rows.flat_map(|r| &r[..cap]).copied().collect(),
            cap,
            bounds: Vec::new(),
        }
        .bounded()
    }

    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.slots.chunks_exact(self.cap).map(live)
    }

    /// The first `k` entries of every row.
    pub(crate) fn lists(&self, k: usize) -> Vec<Vec<Neighbor>> {
        self.rows()
            .map(|row| row.iter().take(k).map(|&s| neighbor(s)).collect())
            .collect()
    }

    /// The number of entries flagged new: the convergence metric of the
    /// shared contract, a pure function of row content.
    pub(crate) fn count_new(&self, threads: usize) -> usize {
        parallel::par_chunks_map(
            self.slots.len(),
            parallel::CHUNK * self.cap,
            threads,
            || (),
            |_, range| self.slots[range].iter().filter(|&&s| s & NEW != 0).count(),
        )
        .into_iter()
        .sum()
    }

    /// Inserts every staged offer into its owner's row, flagged new, and
    /// refreshes the bounds of the rows that changed. Offers are
    /// counting-sorted by owner bucket so that each bucket of rows is
    /// written by one worker; the outcome does not depend on the order
    /// of `staged`, of the offers within it, or on `threads`.
    pub(crate) fn apply(&mut self, staged: &[Vec<Offer>], threads: usize) {
        let cap = self.cap;
        let n_buckets = self.slots.len().div_ceil(BUCKET * cap);
        // ends[b]: one past bucket b's last offer in the sorted arrays.
        let mut ends = vec![0usize; n_buckets];
        for &(owner, _) in staged.iter().flatten() {
            ends[owner as usize / BUCKET] += 1;
        }
        let mut total = 0;
        for e in &mut ends {
            (*e, total) = (total, total + *e);
        }
        if total == 0 {
            return;
        }
        // Within its bucket an owner is one byte, so a sorted pair is nine
        // bytes, not sixteen: these are the largest transient blocks.
        let mut sorted_rows = vec![0u8; total];
        let mut sorted_keys = vec![0u64; total];
        for &(owner, key) in staged.iter().flatten() {
            let e = &mut ends[owner as usize / BUCKET];
            sorted_rows[*e] = (owner as usize % BUCKET) as u8;
            sorted_keys[*e] = key;
            *e += 1;
        }
        let mut bounds = self.bounds.chunks_mut(BUCKET);
        let mut buckets: Vec<(&mut [u64], &mut [u32])> = self
            .slots
            .chunks_mut(BUCKET * cap)
            .map(|rows| (rows, bounds.next().unwrap_or_default()))
            .collect();
        parallel::par_fill(
            &mut buckets,
            1,
            threads,
            || (),
            |_, b, bucket| {
                let (rows, bounds) = &mut bucket[0];
                let begin = b.checked_sub(1).map_or(0, |prev| ends[prev]);
                let offers = begin..ends[b];
                for (&r, &key) in sorted_rows[offers.clone()].iter().zip(&sorted_keys[offers]) {
                    let r = r as usize;
                    let row = &mut rows[r * cap..(r + 1) * cap];
                    if insert(row, key) {
                        if let Some(bound) = bounds.get_mut(r) {
                            *bound = dist_rank(row[cap - 1]);
                        }
                    }
                }
            },
        );
    }
}

/// The occupied prefix of a row.
pub(crate) fn live(row: &[u64]) -> &[u64] {
    &row[..row.partition_point(|&s| s < EMPTY)]
}

/// Bounded sorted insertion of an unflagged `key` into a full-width row;
/// the inserted entry is flagged new. Exact duplicates (same id, same
/// distance — distances are a pure function of the pair) are rejected
/// whatever their flag, so row content is independent of insertion
/// order.
fn insert(row: &mut [u64], key: u64) -> bool {
    let last = row.len() - 1;
    // Strictly worse than a full row's worst entry (an `EMPTY` last slot
    // is worse than anything). `key`'s flag is clear, so `s < key`
    // compares `(dist, id)` alone whatever `s`'s flag is.
    if row[last] < key {
        return false;
    }
    let pos = row.partition_point(|&s| s < key);
    // `Neighbor`'s `==`, as the candidate pool spells it; an `EMPTY`
    // slot decodes to a NaN distance and equals nothing.
    if neighbor(row[pos]) == neighbor(key) {
        return false;
    }
    row.copy_within(pos..last, pos + 1);
    row[pos] = key | NEW;
    true
}

/// Stages both directions of the pair `(a, b)` scored at `d`, except a
/// direction strictly worse than its owner's bound.
pub(crate) fn stage_pair(staged: &mut Vec<Offer>, bounds: &[u32], a: u32, b: u32, d: f32) {
    for (owner, other) in [(a, b), (b, a)] {
        let key = slot(Neighbor::new(other, d));
        if dist_rank(key) <= bounds[owner as usize] {
            staged.push((owner, key));
        }
    }
}

/// Seeds a table of `cap`-slot rows: row `v` holds `initial[v]` (self and
/// repeated ids skipped), then ids drawn from `rng` until it names
/// `target` neighbors (at most `n - 1`). The draws are one sequential
/// stream, whatever `threads`; their distances are scored on `threads`
/// workers. Returns the table and the number of distances computed.
///
/// # Panics
/// If the dataset has more than 2^31 points, or if `initial` does not
/// have one row per point or names an id outside the dataset.
pub(crate) fn seed_table(
    ds: &Dataset,
    initial: Option<&[Vec<Neighbor>]>,
    target: usize,
    cap: usize,
    rng: &mut StdRng,
    threads: usize,
) -> (Table, u64) {
    let n = ds.len();
    // Slots keep the new flag in a spare id bit.
    assert!(
        n <= MAX_VERTICES,
        "descent tables cover at most 2^31 points, got {n}"
    );
    if let Some(init) = initial {
        assert!(
            init.len() == n,
            "`initial` has {} rows for {n} points",
            init.len()
        );
        for (v, row) in init.iter().enumerate() {
            if let Some(nb) = row.iter().find(|nb| nb.id as usize >= n) {
                panic!(
                    "`initial` row {v} names id {}, the dataset has {n} points",
                    nb.id
                );
            }
        }
    }
    let target = target.min(n.saturating_sub(1));
    // Per vertex, its given neighbors and drawn ids, back to back.
    let (mut given, mut drawn) = (Vec::<Neighbor>::new(), Vec::<u32>::new());
    let mut ends: Vec<(usize, usize)> = Vec::with_capacity(n);
    for v in 0..n as u32 {
        let (g, d) = (given.len(), drawn.len());
        for nb in initial.map_or(&[][..], |init| &init[v as usize]) {
            if nb.id != v && !given[g..].iter().any(|x| x.id == nb.id) {
                given.push(*nb);
            }
        }
        while given.len() - g + drawn.len() - d < target {
            let c = rng.gen_range(0..n as u32);
            if c != v && !drawn[d..].contains(&c) && !given[g..].iter().any(|x| x.id == c) {
                drawn.push(c);
            }
        }
        ends.push((given.len(), drawn.len()));
    }
    let mut table = Table::empty(n, cap);
    let scored = parallel::par_fill(
        &mut table.slots,
        parallel::CHUNK * cap,
        threads,
        Vec::<f32>::new,
        |dists, start, rows| {
            let mut scored = 0u64;
            for (i, row) in rows.chunks_exact_mut(cap).enumerate() {
                let v = start / cap + i;
                let (g, d) = v.checked_sub(1).map_or((0, 0), |u| ends[u]);
                for nb in &given[g..ends[v].0] {
                    insert(row, slot(*nb));
                }
                let ids = &drawn[d..ends[v].1];
                if !ids.is_empty() {
                    ds.dist_to_many(ds.point(v as u32), ids, dists);
                    scored += ids.len() as u64;
                    for (&c, &dist) in ids.iter().zip(dists.iter()) {
                        insert(row, slot(Neighbor::new(c, dist)));
                    }
                }
            }
            scored
        },
    );
    (table, scored.iter().sum())
}

/// Runs NN-Descent and returns each vertex's `k` nearest discovered
/// neighbors (sorted nearest-first). When `initial` is given it seeds the
/// pools (EFANNA's KD-tree initialization); otherwise pools start random.
///
/// # Panics
/// If the dataset has fewer than two or more than 2^31 points, or if
/// `initial` does not have one row per point or names an id outside the
/// dataset.
pub fn nn_descent(
    ds: &Dataset,
    params: &NnDescentParams,
    initial: Option<&[Vec<Neighbor>]>,
) -> Vec<Vec<Neighbor>> {
    let n = ds.len();
    assert!(n >= 2, "need at least two points");
    let l = params.l.max(params.k).max(2);
    let k = params.k.max(1);
    let threads = parallel::resolve_threads(params.threads);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let (pools, mut ndc) = seed_table(ds, initial, l, l, &mut rng, threads);
    let mut pools = pools.bounded();
    // Vertices joined between two applies: one chunk per worker.
    let wave = threads * parallel::CHUNK;
    for _iter in 0..params.iters {
        // --- Sample step: per-vertex forward new/old lists. ---
        let mut fwd_new: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut fwd_old: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (v, row) in pools.slots.chunks_exact_mut(l).enumerate() {
            let mut sampled = 0usize;
            let len = live(row).len();
            for s in &mut row[..len] {
                if *s & NEW == 0 {
                    fwd_old[v].push(neighbor(*s).id);
                } else if sampled < params.sample {
                    fwd_new[v].push(neighbor(*s).id);
                    *s &= !NEW; // consumed: old next round
                    sampled += 1;
                }
            }
        }
        // --- Reverse lists (bounded random sample of R). ---
        let mut rev_new: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut rev_old: Vec<Vec<u32>> = vec![Vec::new(); n];
        for v in 0..n as u32 {
            for &u in &fwd_new[v as usize] {
                reservoir_push(&mut rev_new[u as usize], v, params.reverse, &mut rng);
            }
            for &u in &fwd_old[v as usize] {
                reservoir_push(&mut rev_old[u as usize], v, params.reverse, &mut rng);
            }
        }
        // --- Local join, one wave at a time: chunks stage offers against
        // the bounds as the previous wave left them. ---
        for first in (0..n).step_by(wave) {
            let bounds = &pools.bounds;
            let staged = parallel::par_chunks_map(
                wave.min(n - first),
                parallel::CHUNK,
                threads,
                <(Vec<u32>, Vec<u32>, Vec<u32>, Vec<f32>)>::default,
                |(news, olds, partners, dists), range| {
                    let mut offers: Vec<Offer> = Vec::new();
                    let mut scored = 0u64;
                    for v in first + range.start..first + range.end {
                        news.clear();
                        olds.clear();
                        news.extend_from_slice(&fwd_new[v]);
                        news.extend_from_slice(&rev_new[v]);
                        olds.extend_from_slice(&fwd_old[v]);
                        olds.extend_from_slice(&rev_old[v]);
                        news.sort_unstable();
                        news.dedup();
                        olds.sort_unstable();
                        olds.dedup();
                        // All partners of one `a` (new × new upper
                        // triangle, then new × old) are scored with a
                        // single `dist_to_many` over `a`'s point.
                        for (i, &a) in news.iter().enumerate() {
                            partners.clear();
                            partners.extend_from_slice(&news[i + 1..]);
                            partners.extend(olds.iter().copied().filter(|&b| b != a));
                            ds.dist_to_many(ds.point(a), partners, dists);
                            scored += partners.len() as u64;
                            for (&b, &d) in partners.iter().zip(dists.iter()) {
                                stage_pair(&mut offers, bounds, a, b, d);
                            }
                        }
                    }
                    (offers, scored)
                },
            );
            let (offers, scored): (Vec<Vec<Offer>>, Vec<u64>) = staged.into_iter().unzip();
            ndc += scored.iter().sum::<u64>();
            pools.apply(&offers, threads);
        }
        // KGraph-style delta termination on new-flagged items after the
        // join — surviving discoveries not yet consumed by sampling.
        if descent_converged(pools.count_new(threads), n, k) {
            break;
        }
    }

    telemetry::add_span_ndc(ndc);
    pools.lists(k)
}

/// Bounded reservoir-style push: appends until `cap`, then replaces a
/// random slot with probability cap/len — an O(1) approximation of
/// KGraph's reverse-neighbor sampling.
fn reservoir_push(list: &mut Vec<u32>, v: u32, cap: usize, rng: &mut StdRng) {
    if list.len() < cap.max(1) {
        list.push(v);
    } else {
        let slot = rng.gen_range(0..list.len() * 2);
        if slot < list.len() {
            list[slot] = v;
        }
    }
}

/// Graph quality of an NN-Descent output against the exact KNNG — a
/// convenience used by tests and the Figure 15 iteration study.
pub fn knn_recall(result: &[Vec<Neighbor>], exact: &[Vec<u32>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (row, truth) in result.iter().zip(exact) {
        let have: Vec<u32> = row.iter().map(|n| n.id).collect();
        for t in truth.iter().take(row.len()) {
            total += 1;
            if have.contains(t) {
                hit += 1;
            }
        }
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use weavess_data::ground_truth::exact_knn_graph;
    use weavess_data::synthetic::MixtureSpec;

    fn dataset() -> Dataset {
        MixtureSpec::table10(16, 1_000, 5, 3.0, 10).generate().0
    }

    /// Rows as `(rank, id, new)` triples.
    type Rows = Vec<Vec<(u32, u32, bool)>>;

    /// The rows of `t`, and its bounds.
    fn dump(t: &Table) -> (Rows, &[u32]) {
        let rows = t
            .rows()
            .map(|row| {
                row.iter()
                    .map(|&s| (dist_rank(s), neighbor(s).id, s & NEW != 0))
                    .collect()
            })
            .collect();
        (rows, &t.bounds)
    }

    /// Owners on both sides of the bucket edge of a 300-row table, whose
    /// last bucket is partial.
    const OWNERS: [u32; 7] = [0, 1, 254, 255, 256, 257, 299];

    /// Ties, near-ties, infinities and a negative; the zero's sign is
    /// the offered id's parity, so ±0.0 both occur but — as for real
    /// distances, a pure function of the pair — never for one id.
    fn palette(pick: usize, id: u32) -> f32 {
        let zero = if id.is_multiple_of(2) { 0.0 } else { -0.0 };
        [
            zero,
            0.5,
            1.0,
            1.0000001,
            2.0,
            f32::INFINITY,
            -1.5,
            f32::NEG_INFINITY,
        ][pick]
    }

    type Picks = Vec<(usize, u32, usize)>;

    fn offers(picks: &Picks) -> Vec<Offer> {
        picks
            .iter()
            .map(|&(o, id, d)| (OWNERS[o], slot(Neighbor::new(id, palette(d, id)))))
            .collect()
    }

    /// Cuts `offers` into staging chunks at `cuts`, then rotates and
    /// optionally reverses the chunk order.
    fn stage(offers: &[Offer], cuts: &[usize], shuffle: usize) -> Vec<Vec<Offer>> {
        let mut at: Vec<usize> = cuts.iter().map(|&c| c.min(offers.len())).collect();
        at.extend([0, offers.len()]);
        at.sort_unstable();
        let mut chunks: Vec<Vec<Offer>> =
            at.windows(2).map(|w| offers[w[0]..w[1]].to_vec()).collect();
        let by = shuffle % chunks.len();
        chunks.rotate_left(by);
        if shuffle % 2 == 1 {
            chunks.reverse();
        }
        chunks
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Staged apply against a sorted-set model: whatever the
        /// chunking, chunk order and thread count, every row is the
        /// model's first `cap` entries, bounds mirror the last slot, and
        /// an entry that was already there keeps its flag.
        #[test]
        fn staged_apply_matches_the_sorted_set_model(
            cap in 1usize..6,
            first in prop::collection::vec((0usize..7, 0u32..12, 0usize..8), 0..120),
            second in prop::collection::vec((0usize..7, 0u32..12, 0usize..8), 0..120),
            cuts in prop::collection::vec(0usize..120, 0..6),
            shuffle in 0usize..12,
        ) {
            let n = 300;
            // Model: per owner, (rank, id) -> new; truncated to `cap`.
            let mut model: Vec<BTreeMap<(u32, u32), bool>> = vec![BTreeMap::new(); n];
            let mut model_apply = |batch: &[Offer], age: bool| {
                for row in model.iter_mut() {
                    row.values_mut().for_each(|new| *new &= !age);
                }
                for &(owner, key) in batch {
                    model[owner as usize]
                        .entry((dist_rank(key), neighbor(key).id))
                        .or_insert(true);
                }
                for row in model.iter_mut() {
                    while row.len() > cap {
                        row.pop_last();
                    }
                }
            };
            let (first, second) = (offers(&first), offers(&second));
            model_apply(&first, false);
            model_apply(&second, true);
            let want: Rows = model
                .iter()
                .map(|row| row.iter().map(|(&(rank, id), &new)| (rank, id, new)).collect())
                .collect();

            for (threads, shuffle) in [(1, 0), (2, shuffle), (8, shuffle + 1)] {
                let mut t = Table::empty(n, cap).top(cap);
                t.apply(&stage(&first, &cuts, shuffle), threads);
                // What phase A does to a row it keeps: every entry old.
                t.slots.iter_mut().for_each(|s| *s &= !NEW);
                t.apply(&stage(&second, &cuts, shuffle), threads);
                let (rows, bounds) = dump(&t);
                prop_assert_eq!(&rows, &want, "threads={}", threads);
                for (v, row) in want.iter().enumerate() {
                    let full = row.get(cap - 1).map_or(u32::MAX, |&(rank, _, _)| rank);
                    prop_assert_eq!(bounds[v], full, "bound of row {}", v);
                }
            }
        }
    }

    #[test]
    fn a_duplicate_offer_leaves_the_present_entry_old() {
        let mut t = Table::empty(2, 3);
        let key = slot(Neighbor::new(1, 0.25));
        t.apply(&[vec![(0, key)]], 1);
        assert_eq!(t.slots[0], key | NEW);
        t.slots[0] = key;
        t.apply(&[vec![(0, key)], vec![(0, key)]], 2);
        assert_eq!(&t.slots[..3], &[key, EMPTY, EMPTY]);
    }

    #[test]
    fn apply_skips_buckets_without_offers() {
        // Two buckets, the second partial: offers for one must leave the
        // other exactly as it was.
        let key = slot(Neighbor::new(7, 1.0));
        for (owner, untouched) in [(3u32, 256..300), (299, 0..256)] {
            let mut t = Table::empty(300, 2).top(2);
            t.apply(&[vec![(owner, key)], Vec::new()], 2);
            let (rows, bounds) = dump(&t);
            assert_eq!(rows[owner as usize].len(), 1);
            assert!(untouched.clone().all(|v| rows[v].is_empty()));
            assert!(bounds.iter().all(|&b| b == u32::MAX));
        }
        let mut t = Table::empty(300, 2);
        t.apply(&[], 2);
        assert!(t.slots.iter().all(|&s| s == EMPTY));
    }

    #[test]
    fn converges_to_high_graph_quality() {
        let ds = dataset();
        let params = NnDescentParams {
            k: 10,
            l: 30,
            iters: 10,
            sample: 12,
            reverse: 20,
            seed: 7,
            threads: 4,
        };
        let g = nn_descent(&ds, &params, None);
        let exact = exact_knn_graph(&ds, 10, 4);
        let q = knn_recall(&g, &exact);
        assert!(q > 0.90, "graph quality {q}");
    }

    #[test]
    fn more_iterations_do_not_hurt_quality() {
        let ds = dataset();
        let exact = exact_knn_graph(&ds, 10, 4);
        let mut qualities = Vec::new();
        for iters in [1, 4, 10] {
            let params = NnDescentParams {
                k: 10,
                l: 20,
                iters,
                sample: 8,
                reverse: 10,
                seed: 7,
                threads: 4,
            };
            qualities.push(knn_recall(&nn_descent(&ds, &params, None), &exact));
        }
        assert!(qualities[2] >= qualities[0] - 0.02, "{qualities:?}");
        assert!(qualities[2] > 0.7, "{qualities:?}");
    }

    #[test]
    fn respects_k_and_excludes_self() {
        let ds = dataset();
        let params = NnDescentParams {
            k: 6,
            l: 12,
            iters: 3,
            ..Default::default()
        };
        let g = nn_descent(&ds, &params, None);
        for (v, row) in g.iter().enumerate() {
            assert!(row.len() <= 6);
            assert!(row.iter().all(|n| n.id != v as u32));
            assert!(row.windows(2).all(|w| w[0].dist <= w[1].dist));
        }
    }

    #[test]
    fn good_initialization_speeds_convergence() {
        let ds = dataset();
        let exact = exact_knn_graph(&ds, 10, 4);
        // One iteration from random vs one iteration from the exact graph.
        let params = NnDescentParams {
            k: 10,
            l: 20,
            iters: 1,
            sample: 8,
            reverse: 10,
            seed: 7,
            threads: 2,
        };
        let from_random = knn_recall(&nn_descent(&ds, &params, None), &exact);
        let init: Vec<Vec<Neighbor>> = exact
            .iter()
            .enumerate()
            .map(|(v, row)| {
                row.iter()
                    .map(|&u| Neighbor::new(u, ds.dist(v as u32, u)))
                    .collect()
            })
            .collect();
        let from_exact = knn_recall(&nn_descent(&ds, &params, Some(&init)), &exact);
        assert!(from_exact > from_random, "{from_exact} <= {from_random}");
        assert!(from_exact > 0.95);
    }

    #[test]
    fn descent_converged_threshold_is_delta_n_degree() {
        // n=1000, degree=10 → threshold 0.001 * 10_000 = 10: strictly
        // below converges, at the threshold does not.
        assert!(descent_converged(0, 1_000, 10));
        assert!(descent_converged(9, 1_000, 10));
        assert!(!descent_converged(10, 1_000, 10));
        assert!(!descent_converged(11, 1_000, 10));
        // Tiny problems (threshold truncates to 0): only an exact zero
        // count can never converge early — budget runs to completion.
        assert!(!descent_converged(0, 10, 10));
    }

    #[test]
    fn iteration_budget_is_cut_short_by_convergence() {
        // Once converged, surplus budget changes nothing: a 40-iteration
        // run and a 50-iteration run terminate at the same pass and emit
        // identical graphs (far sooner than either budget — the contract's
        // "iters is a budget" clause).
        let ds = dataset();
        let mk = |iters| NnDescentParams {
            k: 10,
            l: 20,
            iters,
            sample: 8,
            reverse: 10,
            seed: 7,
            threads: 2,
        };
        let digest = |g: &[Vec<Neighbor>]| {
            g.iter()
                .map(|r| {
                    r.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let a = nn_descent(&ds, &mk(40), None);
        let b = nn_descent(&ds, &mk(50), None);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn zero_sample_disables_refinement() {
        // sample = 0 means no new item is ever consumed: no joins happen
        // and the output equals the initialization's top-K (the iters=0
        // run), regardless of the iteration budget.
        let ds = dataset();
        let mk = |iters, sample| NnDescentParams {
            k: 10,
            l: 20,
            iters,
            sample,
            reverse: 10,
            seed: 7,
            threads: 2,
        };
        let digest = |g: &[Vec<Neighbor>]| {
            g.iter()
                .map(|r| {
                    r.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let no_sampling = nn_descent(&ds, &mk(5, 0), None);
        let no_iterations = nn_descent(&ds, &mk(0, 8), None);
        assert_eq!(digest(&no_sampling), digest(&no_iterations));
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let params = NnDescentParams {
            k: 8,
            l: 16,
            iters: 2,
            threads: 1,
            ..Default::default()
        };
        let a = nn_descent(&ds, &params, None);
        let b = nn_descent(&ds, &params, None);
        assert_eq!(
            a.iter()
                .map(|r| r.iter().map(|n| n.id).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
            b.iter()
                .map(|r| r.iter().map(|n| n.id).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "`initial` has 999 rows for 1000 points")]
    fn a_short_initial_graph_is_refused_before_any_work() {
        let ds = dataset();
        let init = vec![Vec::new(); ds.len() - 1];
        nn_descent(&ds, &NnDescentParams::default(), Some(&init));
    }

    #[test]
    #[should_panic(expected = "`initial` row 17 names id 1000, the dataset has 1000 points")]
    fn an_initial_id_outside_the_dataset_is_refused_before_any_work() {
        let ds = dataset();
        let mut init = vec![Vec::new(); ds.len()];
        init[17] = vec![Neighbor::new(5, 1.0), Neighbor::new(1000, 2.0)];
        nn_descent(&ds, &NnDescentParams::default(), Some(&init));
    }

    #[test]
    fn both_engines_seed_an_initial_graph_as_its_deduplicated_top_l() {
        // Every row names itself, names each neighbor twice and holds 19
        // distinct neighbors, more than `l`: NN-Descent's seeding (target
        // `l`) and RNN-Descent's (target `r < l`) keep the same top-`l`
        // and draw nothing.
        let ds = dataset();
        let n = ds.len() as u32;
        let (k, r, l) = (6, 8, 12);
        let init: Vec<Vec<Neighbor>> = (0..n)
            .map(|v| {
                (0..20)
                    .flat_map(|j| [(v + 7 * j) % n; 2])
                    .map(|u| Neighbor::new(u, ds.dist(v, u)))
                    .collect()
            })
            .collect();
        let want: Vec<Vec<Neighbor>> = init
            .iter()
            .enumerate()
            .map(|(v, row)| {
                let mut row: Vec<Neighbor> =
                    row.iter().filter(|nb| nb.id != v as u32).copied().collect();
                row.sort_unstable();
                row.dedup();
                row.truncate(l);
                row
            })
            .collect();
        for target in [l, r] {
            let mut rng = StdRng::seed_from_u64(3);
            let (table, scored) = seed_table(&ds, Some(&init), target, l, &mut rng, 3);
            assert_eq!(scored, 0, "target {target}");
            assert_eq!(table.lists(l), want, "target {target}");
            assert!(table.slots.iter().all(|&s| s == EMPTY || s & NEW != 0));
        }
        let params = NnDescentParams {
            k,
            l,
            iters: 0,
            ..Default::default()
        };
        let top_k: Vec<Vec<Neighbor>> = want.iter().map(|row| row[..k].to_vec()).collect();
        assert_eq!(nn_descent(&ds, &params, Some(&init)), top_k);
    }
}
