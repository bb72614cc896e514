//! Relative NN-Descent (RNN-Descent, Ono & Matsui, arXiv 2310.20419): an
//! alternative C1 initializer that interleaves RNG-style pruning into the
//! descent loop itself.
//!
//! Plain NN-Descent ([`crate::nndescent`]) scores every sampled
//! new×(new+old) pair of every vertex's pool each iteration — the local
//! join dominates refinement-strategy construction end to end (~87% of an
//! NSG build's `C1 init` span when this module was written). RNN-Descent
//! replaces the join with a
//! *prune-and-propagate* step built on the relative-neighborhood rule:
//!
//! 1. **Update (prune + add).** Scan each vertex `u`'s pool nearest-first.
//!    A neighbor `v` is kept only if no already-kept neighbor `w` occludes
//!    it (`d(w, v) < d(u, v)` — the MRNG edge rule of C3, applied during
//!    C1). A pruned `v` is not discarded: it is *offered* to the occluder
//!    `w`'s pool, carrying the just-computed `d(w, v)`. That offer is the
//!    descent step — a pair NN-Descent would reach through a sampled join
//!    here rides along a pruning distance that was needed anyway. Pairs
//!    whose flags are both *old* were compared in an earlier pass and skip
//!    their distance computation entirely, so converged neighborhoods cost
//!    nothing.
//! 2. **Reverse-edge augmentation.** After each round of update passes the
//!    graph is symmetrized — every edge `u→v` is offered back to `v` as
//!    `v→u`, flagged new — handing the next round fresh material and
//!    keeping in-degrees from starving.
//!
//! Working pools stay near the pruned (RNG-sparse) degree instead of the
//! KNN degree, so each pass touches far fewer pairs than a local join —
//! the paper reports substantially faster construction at equal recall;
//! the `build.span_s.c1_init` row of `benchmark/run.sh --workload hidim
//! --trace 1` is this module's wall time.
//!
//! **The emitted graph.** A pruned pool's nearest-`k` is deliberately
//! *not* the KNN — mutually-close neighbors occlude each other — but C1
//! consumers (NSG/NSSG/DPG/OA/EFANNA/KGraph) expect an approximate KNN
//! graph. So every pair the pruning loop scores is also mirrored, in both
//! directions, into a bounded per-vertex **harvest pool** of capacity `k`:
//! distances are paid for once and harvested twice. The emitted rows are
//! the harvest pools — a genuine approximate KNN graph, directly
//! comparable to [`crate::nndescent::nn_descent`] output — while the
//! pruned pools exist only to decide *which* pairs are worth scoring.
//! All candidate scoring goes through [`Dataset::dist_to_many`], so the
//! PR-2 kernel tier carries construction exactly the way it carries
//! search.
//!
//! # State
//!
//! Both sides are flat fixed-stride tables — one `Vec<u64>` of `n × l`
//! pruned slots and one of `n × k` harvest slots, no per-vertex
//! allocation and no lock. A slot is the packed key of
//! [`crate::search`]'s candidate pool, `rank(dist) << 32 | id << 1 | new`,
//! so a row's order is one integer comparison per step and unused slots
//! (an all-ones key) sort last. A vertex's row is only ever written by
//! one worker at a time: either the worker whose phase-A chunk contains
//! it, or the worker that owns its *bucket* of `BUCKET` (256) consecutive
//! rows while staged offers are applied.
//!
//! # Determinism
//!
//! Same contract as every builder in this workspace: the output is a pure
//! function of `(dataset, params)` — never of the thread count. An
//! update pass has two phases, and nothing in it is written concurrently.
//!
//! *Frozen while workers score:* every pruned row a worker does not own,
//! every harvest row, and the compact array of harvest *bounds* (the
//! distance rank of each full harvest row's worst entry, `u32::MAX`
//! while the row is short).
//!
//! *Phase A* walks vertices in the fixed chunks of [`crate::parallel`].
//! A worker receives its chunk's pruned rows as `&mut`, prunes each
//! against itself, and rewrites it in place; everything addressed to
//! another vertex is **staged** as an `(owner, key)` pair — the descent
//! offer of a pruned edge, and both directions of the harvest mirror of
//! every scored pair. A mirror offer strictly worse than its owner's
//! frozen bound is dropped on the spot. That is safe with a bound of any
//! age: a harvest row's worst entry only ever improves, so an offer worse
//! than *some earlier* worst can never be in the final top-`k` — the
//! filter drops certain rejections only, and how stale the bound was
//! changes how much is staged, never what a row ends up holding.
//!
//! *Apply* counting-sorts staged pairs by owner bucket and hands each
//! bucket's rows (and bounds) to exactly one worker, which performs
//! bounded sorted insertion keyed by the total `(distance, id)` order
//! with exact-duplicate rejection. A row's content — flags included: an
//! inserted entry is new, a duplicate offer never touches the entry
//! already there — is the top-`cap` of its previous content and all
//! distinct offers, independent of arrival order (the
//! [`crate::nndescent`] argument). Harvest offers are applied, and the
//! bounds refreshed, after every `WAVE` (4 096) phase-A vertices, which bounds
//! staging memory independently of `n`; pruned-pool offers are applied
//! once per pass, after phase A, so every pruning decision sees the
//! pruned rows as they stood at the start of the pass, regardless of
//! worker interleaving. Reverse-edge augmentation and the initial mirror
//! go through the same apply.
//!
//! Bucket and wave sizes are constants, convergence is decided on pool
//! content (items still flagged new, the shared
//! [`crate::nndescent::descent_converged`] contract), and the RNG only
//! runs in the sequential initialization — so who computes never changes
//! what is computed.

use crate::nndescent::{descent_converged, NnDescentParams};
use crate::parallel;
use crate::search::pool::{dist_rank, neighbor, slot, FLAG as NEW, MAX_VERTICES};
use crate::telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use weavess_data::prefetch::{prefetch_enabled, prefetch_read};
use weavess_data::{Dataset, Neighbor};

/// RNN-Descent parameters.
///
/// The `outer`/`inner` pair mirrors the paper's `T1`/`T2`: `inner` update
/// passes refine pools between reverse-edge augmentations, and the whole
/// cycle runs `outer` times. Both descent engines share the
/// [`crate::nndescent::descent_converged`] early-termination contract
/// (see the *Termination contract* section of [`crate::nndescent`]), so
/// `inner` is a budget, not a fixed cost.
#[derive(Debug, Clone)]
pub struct RnnDescentParams {
    /// Neighbors emitted per vertex (the C1 output degree, like
    /// NN-Descent's `K`): the capacity of the harvest pools.
    pub k: usize,
    /// Initial random out-degree (the paper's `R`), and the degree the
    /// convergence threshold is normalized by.
    pub r: usize,
    /// Pruned-pool capacity during descent (`≥ max(r, k)` enforced):
    /// bounds the pruned core plus the reverse edges riding on top of it.
    pub l: usize,
    /// Rounds of (update passes + reverse-edge augmentation) — `T1`.
    pub outer: usize,
    /// Update-pass budget per round — `T2`, early-terminated per the
    /// shared convergence contract.
    pub inner: usize,
    /// RNG seed for the random initialization.
    pub seed: u64,
    /// Construction threads (0 = one per available core). The produced
    /// graph is identical for every value.
    pub threads: usize,
}

impl Default for RnnDescentParams {
    fn default() -> Self {
        RnnDescentParams {
            k: 20,
            r: 16,
            l: 32,
            outer: 3,
            inner: 8,
            seed: 0xBEEF,
            threads: 0,
        }
    }
}

impl RnnDescentParams {
    /// Derives an RNN-Descent configuration that stands in for a given
    /// NN-Descent configuration as C1: same output degree, seed and
    /// threads, with descent knobs sized so the pruned pools regrow a
    /// comparable candidate stream. These are the settings the
    /// `C1Choice::RnnDescent` builders (and so the benchmark's NSG
    /// workloads) run.
    pub fn matching(nd: &NnDescentParams) -> Self {
        // Two outer rounds with a generous inner budget beat three lean
        // rounds at equal wall-clock: the inner loop self-terminates via
        // `descent_converged`, so the extra passes only run while they
        // still flag work, while each outer round pays a fixed
        // reverse-augmentation sweep.
        RnnDescentParams {
            k: nd.k,
            r: (nd.k * 3 / 5).max(16),
            l: (nd.k * 6 / 5).max(24),
            outer: 2,
            inner: 12,
            seed: nd.seed,
            threads: nd.threads,
        }
    }
}

/// Owner rows per apply bucket: what one worker writes while it applies
/// staged offers. 256 rows of 20–30 slots are 40–60 KiB — a bucket's
/// rows stay cache-resident while its offers stream through — and a
/// 20k-point table still splits into ~80 buckets to balance.
const BUCKET: usize = 256;
// `Table::apply` keeps an owner's index within its bucket in a byte.
const _: () = assert!(BUCKET - 1 == u8::MAX as usize);

/// Phase-A vertices between two harvest applies. Staging memory is
/// proportional to this, not to `n`; the bounds are refreshed this
/// often. A multiple of [`parallel::CHUNK`], so waves never split a
/// chunk.
const WAVE: usize = 16 * parallel::CHUNK;

/// An unused slot. It sorts after every key that occurs: it is the key
/// of id `2^31 - 1` at the NaN with an all-ones payload, which no
/// arithmetic produces. Its flag bit is clear and its distance rank is
/// `u32::MAX`.
const EMPTY: u64 = u64::MAX << 1;

/// A staged insertion: the vertex whose row it is for, and the unflagged
/// key to insert there.
type Offer = (u32, u64);

/// `n` rows of `cap` slots, each sorted nearest-first with [`EMPTY`]
/// padding.
struct Table {
    slots: Vec<u64>,
    cap: usize,
    /// Per row, the distance rank of its last slot — `u32::MAX` while
    /// the row is short, its worst entry's once full. A compact copy for
    /// phase A's admission filter; empty for a table nobody filters
    /// against (the pruned side, whose rows also shrink).
    bounds: Vec<u32>,
}

impl Table {
    fn empty(n: usize, cap: usize) -> Self {
        Table {
            slots: vec![EMPTY; n * cap],
            cap,
            bounds: Vec::new(),
        }
    }

    /// A bounded table holding the first `cap` slots of each of `self`'s
    /// rows.
    fn top(&self, cap: usize) -> Table {
        let rows = self.slots.chunks_exact(self.cap);
        Table {
            slots: rows.clone().flat_map(|r| &r[..cap]).copied().collect(),
            cap,
            bounds: rows.map(|r| dist_rank(r[cap - 1])).collect(),
        }
    }

    fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.slots.chunks_exact(self.cap).map(live)
    }

    /// Inserts every staged offer into its owner's row, flagged new, and
    /// refreshes the bounds of the rows that changed. Offers are
    /// counting-sorted by owner bucket so that each bucket of rows is
    /// written by one worker; the outcome does not depend on the order
    /// of `staged`, of the offers within it, or on `threads`.
    fn apply(&mut self, staged: &[Vec<Offer>], threads: usize) {
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
fn live(row: &[u64]) -> &[u64] {
    &row[..row.partition_point(|&s| s < EMPTY)]
}

/// Whether a row holds an entry flagged new (phase A scores only those).
fn has_new(row: &[u64]) -> bool {
    row.iter().any(|&s| s & NEW != 0)
}

/// How many phase-A items ahead of the one being scored its vector is
/// prefetched. One to four measured alike on `hidim`'s 1 KiB rows; eight
/// lost.
const LOOKAHEAD: usize = 2;

/// Requests every cache line of `v`: a whole row is scored at once, and
/// the two lines `prefetch_span` asks for are an eighth of a 1 KiB one.
fn prefetch_lines(v: &[f32]) {
    // 16 floats are one 64-byte line; the last element closes a row whose
    // start is not line-aligned.
    for line in v.chunks(16) {
        prefetch_read(line.as_ptr());
    }
    if let Some(last) = v.last() {
        prefetch_read(last);
    }
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

/// Runs RNN-Descent and returns each vertex's `k` nearest discovered
/// neighbors (sorted nearest-first) — a drop-in replacement for
/// [`crate::nndescent::nn_descent`] as the C1 component. When `initial`
/// is given it seeds the pools (EFANNA's KD-tree initialization);
/// otherwise pools start random.
///
/// # Panics
/// If the dataset has fewer than two or more than 2^31 points, or if
/// `initial` does not have one row per point or names an id outside the
/// dataset.
pub fn rnn_descent(
    ds: &Dataset,
    params: &RnnDescentParams,
    initial: Option<&[Vec<Neighbor>]>,
) -> Vec<Vec<Neighbor>> {
    let n = ds.len();
    assert!(n >= 2, "need at least two points");
    // Slots keep the new flag in a spare id bit.
    assert!(
        n <= MAX_VERTICES,
        "rnn_descent covers at most 2^31 points, got {n}"
    );
    if let Some(init) = initial {
        assert!(
            init.len() == n,
            "rnn_descent: `initial` has {} rows for {n} points",
            init.len()
        );
        for (v, row) in init.iter().enumerate() {
            if let Some(nb) = row.iter().find(|nb| nb.id as usize >= n) {
                panic!(
                    "rnn_descent: `initial` row {v} names id {}, the dataset has {n} points",
                    nb.id
                );
            }
        }
    }
    let k = params.k.max(1);
    let r = params.r.max(2).min(n - 1);
    let l = params.l.max(r).max(k);
    let threads = parallel::resolve_threads(params.threads);

    // --- Initialization: sequential id draws (one RNG stream, thread
    // count irrelevant), distances batch-scored in parallel. ---
    let mut pruned = Table::empty(n, l);
    telemetry::span("C1 rnn init", || {
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut seeds: Vec<Vec<Neighbor>> = Vec::with_capacity(n);
        let mut pad: Vec<Vec<u32>> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            let mut given: Vec<Neighbor> = Vec::new();
            if let Some(init) = initial {
                for nb in &init[v as usize] {
                    if nb.id != v && !given.iter().any(|x| x.id == nb.id) {
                        given.push(*nb);
                    }
                }
            }
            let target = r.min(n - 1);
            let mut ids: Vec<u32> = Vec::new();
            while given.len() + ids.len() < target {
                let c = rng.gen_range(0..n as u32);
                if c != v && !ids.contains(&c) && !given.iter().any(|x| x.id == c) {
                    ids.push(c);
                }
            }
            seeds.push(given);
            pad.push(ids);
        }
        let scored = parallel::par_fill(
            &mut pruned.slots,
            parallel::CHUNK * l,
            threads,
            Vec::<f32>::new,
            |dists, start, rows| {
                let mut scored = 0u64;
                for (i, row) in rows.chunks_exact_mut(l).enumerate() {
                    let v = start / l + i;
                    for nb in &seeds[v] {
                        insert(row, slot(*nb));
                    }
                    if !pad[v].is_empty() {
                        ds.dist_to_many(ds.point(v as u32), &pad[v], dists);
                        scored += pad[v].len() as u64;
                        for (&c, &d) in pad[v].iter().zip(dists.iter()) {
                            insert(row, slot(Neighbor::new(c, d)));
                        }
                    }
                }
                scored
            },
        );
        telemetry::add_span_ndc(scored.iter().sum());
    });

    // Harvest rows start as the top-k of the initial material; every
    // scored pair lands here from then on. The initial edges' reverse
    // directions are knowledge too (an edge u→c scores c as well as u);
    // mirror them before descent starts.
    let mut knn = pruned.top(k);
    knn.apply(&snapshot_reverse(&pruned, threads), threads);

    let outer = params.outer.max(1);
    for round in 0..outer {
        telemetry::span("C1 rnn prune+add", || {
            for _pass in 0..params.inner.max(1) {
                let fresh = update_pass(ds, &mut pruned, &mut knn, threads);
                if descent_converged(fresh, n, r) {
                    break;
                }
            }
        });
        // Symmetrization: offer every edge u→v back to v as v→u (same
        // distance — no scoring), flagged new so the next round's pruning
        // revisits it; mirrored into the harvest rows as well. The final
        // round's reverse edges still enrich the emitted KNN, but no pass
        // reads the pruned rows again — skip their maintenance.
        telemetry::span("C1 rnn reverse", || {
            let offers = snapshot_reverse(&pruned, threads);
            if round + 1 < outer {
                pruned.apply(&offers, threads);
            }
            knn.apply(&offers, threads);
        });
    }

    knn.rows()
        .map(|row| row.iter().map(|&s| neighbor(s)).collect())
        .collect()
}

/// What one phase-A chunk hands back besides its rewritten rows.
#[derive(Default)]
struct Staged {
    /// Pruned edges recycled toward their occluders.
    pruned: Vec<Offer>,
    /// Both directions of every scored pair that passed the frozen bound.
    harvest: Vec<Offer>,
    /// Distance computations, for the span's NDC.
    scored: u64,
}

/// One prune-and-propagate pass. Returns the number of pruned-pool items
/// flagged new after the pass — the thread-count-independent convergence
/// metric of the shared contract.
fn update_pass(ds: &Dataset, pruned: &mut Table, knn: &mut Table, threads: usize) -> usize {
    let l = pruned.cap;
    let mut offers: Vec<Vec<Offer>> = Vec::new();
    let mut scored = 0u64;
    let pf = prefetch_enabled();

    // Phase A: prune every row against the state frozen at pass start.
    // A worker owns the rows of its chunk; edges for other rows — pruned
    // or harvest — are staged, never applied while a wave is scored.
    for wave in pruned.slots.chunks_mut(WAVE * l) {
        let bounds = &knn.bounds;
        let staged = parallel::par_fill(
            wave,
            parallel::CHUNK * l,
            threads,
            || {
                (
                    Vec::<usize>::new(), // accepted indices
                    Vec::<u32>::new(),   // ids to score
                    Vec::<f32>::new(),   // their distances
                    Vec::<u32>::new(),   // the chunk's items, for prefetch
                )
            },
            |(accepted, ids, dists, items), _, rows| {
                let mut out = Staged::default();
                // Every item the loop below will visit, in order: while
                // one is scored, all of the vector `LOOKAHEAD` items on
                // (in this row or a later one) is requested.
                items.clear();
                if pf {
                    for row in rows.chunks_exact(l).filter(|row| has_new(row)) {
                        items.extend(live(row).iter().map(|&s| neighbor(s).id));
                    }
                }
                let mut ahead = items.iter().skip(LOOKAHEAD);
                for row in rows.chunks_exact_mut(l) {
                    // All-old rows are a fixed point: no pair scores
                    // (old/old pairs skip), so no occluder can arise and
                    // every item would be re-accepted unchanged. Skipping
                    // them is bit-identical and makes converged vertices
                    // free.
                    if !has_new(row) {
                        continue;
                    }
                    accepted.clear();
                    for i in 0..live(row).len() {
                        if let Some(&next) = ahead.next() {
                            prefetch_lines(ds.point(next));
                        }
                        // Score `it` against the kept neighbors closer to
                        // the owner, skipping old/old pairs (compared in
                        // the pass that made them old). One dist_to_many
                        // covers every check.
                        let it = neighbor(row[i]);
                        ids.clear();
                        for &j in accepted.iter() {
                            if (row[i] | row[j]) & NEW != 0 {
                                ids.push(neighbor(row[j]).id);
                            }
                        }
                        let mut occluder: Option<(u32, f32)> = None;
                        if !ids.is_empty() {
                            ds.dist_to_many(ds.point(it.id), ids, dists);
                            out.scored += ids.len() as u64;
                            for (&wid, &d) in ids.iter().zip(dists.iter()) {
                                // Every scored pair is harvested by both
                                // endpoints — paid for once, used twice.
                                for (owner, other) in [(it.id, wid), (wid, it.id)] {
                                    let key = slot(Neighbor::new(other, d));
                                    if dist_rank(key) <= bounds[owner as usize] {
                                        out.harvest.push((owner, key));
                                    }
                                }
                                if occluder.is_none() && d < it.dist {
                                    occluder = Some((wid, d));
                                }
                            }
                        }
                        match occluder {
                            // Kept: compared against every kept
                            // predecessor — old from here on.
                            None => accepted.push(i),
                            // Pruned: recycle the edge toward the
                            // occluder, reusing the distance the prune
                            // already paid.
                            Some((wid, d)) => {
                                out.pruned.push((wid, slot(Neighbor::new(it.id, d))));
                            }
                        }
                    }
                    for (to, &from) in accepted.iter().enumerate() {
                        row[to] = row[from] & !NEW;
                    }
                    row[accepted.len()..].fill(EMPTY);
                }
                out
            },
        );
        let mut harvest = Vec::with_capacity(staged.len());
        for s in staged {
            scored += s.scored;
            offers.push(s.pruned);
            harvest.push(s.harvest);
        }
        knn.apply(&harvest, threads);
    }
    telemetry::add_span_ndc(scored);

    // Phase B: apply the descent offers to the pruned rows.
    pruned.apply(&offers, threads);

    // Convergence metric: surviving new-flagged items (row content — a
    // pure function of the offer *set*, not of insertion order).
    parallel::par_chunks_map(
        pruned.slots.len(),
        parallel::CHUNK * l,
        threads,
        || (),
        |_, range| {
            pruned.slots[range]
                .iter()
                .filter(|&&s| s & NEW != 0)
                .count()
        },
    )
    .into_iter()
    .sum()
}

/// Snapshots every pruned-pool edge `u→v` as an offer `(v, v→u)` — the
/// raw material of both reverse augmentation and harvest mirroring.
fn snapshot_reverse(pruned: &Table, threads: usize) -> Vec<Vec<Offer>> {
    let l = pruned.cap;
    parallel::par_chunks_map(
        pruned.slots.len(),
        parallel::CHUNK * l,
        threads,
        || (),
        |_, range| {
            let first = range.start / l;
            let mut out = Vec::new();
            for (i, row) in pruned.slots[range].chunks_exact(l).enumerate() {
                for &s in live(row) {
                    let edge = neighbor(s);
                    out.push((edge.id, slot(Neighbor::new((first + i) as u32, edge.dist))));
                }
            }
            out
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nndescent::{knn_recall, nn_descent};
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
    fn two_points_find_each_other() {
        let ds = Dataset::from_rows(&[vec![0.0, 0.0], vec![3.0, 4.0]]);
        let g = rnn_descent(&ds, &RnnDescentParams::default(), None);
        assert_eq!(
            g,
            vec![vec![Neighbor::new(1, 25.0)], vec![Neighbor::new(0, 25.0)]]
        );
    }

    #[test]
    fn pruned_and_harvest_rows_may_be_equally_wide() {
        let ds = dataset();
        let run = |threads: usize| {
            let params = RnnDescentParams {
                k: 8,
                r: 8,
                l: 8,
                outer: 2,
                inner: 4,
                seed: 3,
                threads,
            };
            rnn_descent(&ds, &params, None)
        };
        let g = run(1);
        assert_eq!(g, run(8));
        assert!(g.iter().all(|row| row.len() == 8));
        assert!(g.iter().all(|row| row.windows(2).all(|w| w[0] < w[1])));
    }

    #[test]
    #[should_panic(expected = "`initial` has 999 rows for 1000 points")]
    fn a_short_initial_graph_is_refused_before_any_work() {
        let ds = dataset();
        let init = vec![Vec::new(); ds.len() - 1];
        rnn_descent(&ds, &RnnDescentParams::default(), Some(&init));
    }

    #[test]
    #[should_panic(expected = "`initial` row 17 names id 1000, the dataset has 1000 points")]
    fn an_initial_id_outside_the_dataset_is_refused_before_any_work() {
        let ds = dataset();
        let mut init = vec![Vec::new(); ds.len()];
        init[17] = vec![Neighbor::new(5, 1.0), Neighbor::new(1000, 2.0)];
        rnn_descent(&ds, &RnnDescentParams::default(), Some(&init));
    }

    #[test]
    fn converges_to_high_graph_quality() {
        let ds = dataset();
        let params = RnnDescentParams {
            k: 10,
            r: 12,
            l: 24,
            outer: 3,
            inner: 8,
            seed: 7,
            threads: 4,
        };
        let g = rnn_descent(&ds, &params, None);
        let exact = exact_knn_graph(&ds, 10, 4);
        let q = knn_recall(&g, &exact);
        assert!(q > 0.85, "graph quality {q}");
    }

    #[test]
    fn respects_k_excludes_self_and_sorts() {
        let ds = dataset();
        let params = RnnDescentParams {
            k: 6,
            r: 8,
            l: 16,
            outer: 2,
            inner: 4,
            ..Default::default()
        };
        let g = rnn_descent(&ds, &params, None);
        assert_eq!(g.len(), ds.len());
        for (v, row) in g.iter().enumerate() {
            assert!(row.len() <= 6);
            assert!(row.iter().all(|n| n.id != v as u32));
            assert!(row.windows(2).all(|w| w[0].dist <= w[1].dist));
            // Distances are the true kernel distances.
            for n in row {
                assert_eq!(n.dist.to_bits(), ds.dist(v as u32, n.id).to_bits());
            }
        }
    }

    #[test]
    fn matches_nn_descent_quality() {
        // The headline claim at unit scale: RNN-Descent reaches
        // NN-Descent-level graph quality. (How fast is the benchmark's
        // `build.span_s.c1_init` row, not a unit test's business.)
        let ds = dataset();
        let exact = exact_knn_graph(&ds, 10, 4);
        let nd = NnDescentParams {
            k: 10,
            l: 20,
            iters: 8,
            sample: 8,
            reverse: 10,
            seed: 7,
            threads: 4,
        };
        let q_nnd = knn_recall(&nn_descent(&ds, &nd, None), &exact);
        let rnn = RnnDescentParams::matching(&nd);
        let q_rnn = knn_recall(&rnn_descent(&ds, &rnn, None), &exact);
        assert!(
            q_rnn > q_nnd - 0.05,
            "RNN quality {q_rnn} too far below NND {q_nnd}"
        );
    }

    #[test]
    fn good_initialization_improves_quality_at_equal_budget() {
        let ds = dataset();
        let exact = exact_knn_graph(&ds, 10, 4);
        let params = RnnDescentParams {
            k: 10,
            r: 12,
            l: 24,
            outer: 1,
            inner: 1,
            seed: 7,
            threads: 2,
        };
        let from_random = knn_recall(&rnn_descent(&ds, &params, None), &exact);
        let init: Vec<Vec<Neighbor>> = exact
            .iter()
            .enumerate()
            .map(|(v, row)| {
                row.iter()
                    .map(|&u| Neighbor::new(u, ds.dist(v as u32, u)))
                    .collect()
            })
            .collect();
        let from_exact = knn_recall(&rnn_descent(&ds, &params, Some(&init)), &exact);
        assert!(from_exact > from_random, "{from_exact} <= {from_random}");
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = dataset();
        let params = RnnDescentParams {
            k: 8,
            r: 10,
            l: 20,
            outer: 2,
            inner: 3,
            threads: 1,
            ..Default::default()
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
        let a = rnn_descent(&ds, &params, None);
        let b = rnn_descent(&ds, &params, None);
        assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn thread_count_does_not_change_output() {
        // The integration suite digests this at build scale
        // (`tests/build_determinism.rs`); this is the fast unit-level
        // check of the same contract.
        let ds = dataset();
        let digest = |threads: usize| {
            let params = RnnDescentParams {
                k: 10,
                r: 12,
                l: 24,
                outer: 2,
                inner: 4,
                seed: 11,
                threads,
            };
            rnn_descent(&ds, &params, None)
                .iter()
                .map(|r| {
                    r.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        };
        let base = digest(1);
        assert_eq!(digest(2), base);
        assert_eq!(digest(8), base);
    }
}
