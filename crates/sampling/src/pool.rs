//! Progressive sample pools — the backend implementations of the
//! [`WorldEngine`] seam.
//!
//! The clustering algorithms lower their probability threshold `q`
//! geometrically and re-estimate probabilities at each step (paper §4); the
//! required sample count grows as `q` shrinks. Pools therefore **grow
//! monotonically**: `ensure(r)` tops the pool up to `r` samples, reusing
//! everything drawn before — the progressive sampling strategy of the
//! paper. Because sample `i` is generated from a per-index RNG (see
//! [`crate::rng`]), the pool contents are independent of the growth
//! schedule, of the number of worker threads, **and of the backend**:
//!
//! * [`ComponentPool`] — scalar, unlimited connectivity: each world is
//!   reduced to its connected-component partition at generation time, so
//!   center queries only walk the center's component members;
//! * [`WorldPool`] — scalar, depth-limited: each world is kept as an edge
//!   bitset and queried with one bounded BFS per world;
//! * [`BitParallelPool`] — the adaptive backend: `W · 64` worlds per block
//!   (256 in production) as structure-of-arrays edge masks (`masks[e]`
//!   spans the worlds of one block), queried with mask-propagating
//!   multi-world BFS — one traversal answers a whole block, for both
//!   unlimited and depth-limited semantics — plus lazily finalized
//!   per-block component labels for unlimited-depth rows.
//!
//! ## Parallelism
//!
//! Generation (`ensure`) and the Monte-Carlo aggregation queries
//! (`counts_from_center`, `counts_within_depths`, `pair_count*`) run on
//! rayon, gated by the shared [`crate::tuning`] heuristics. Queries
//! partition their work items (sample rows, worlds, or mask blocks)
//! into chunks, accumulate per-chunk integer count vectors, and merge
//! them — so every estimate is bit-identical no matter how many threads
//! run, which the property tests assert.

use rayon::prelude::*;

use ugraph_graph::{
    Bitset, DepthBfs, Mask, MultiWorldBfs, NodeId, UncertainGraph, UnionFind, WorldView, LANES,
    MAX_SOURCES,
};

use crate::budget::{MemoryBudget, MemoryStats};
use crate::engine::{EngineStats, WorldEngine, DEPTH_UNLIMITED};
use crate::error::SamplingPhase;
use crate::faults::{self, FaultSite};
use crate::interrupt::RunState;
use crate::tuning::{
    chunked_counts, chunked_counts2_with, chunked_counts_with, chunked_sum_with,
    finalize_on_unlimited_query, ThreadConfig,
};
use crate::world::WorldSampler;

/// Blocks per shard of the width-64 bit-parallel backend — the granularity
/// at which pool storage is allocated, charged against a [`MemoryBudget`],
/// and evicted. Wider backends pack the same [`SHARD_WORLDS`] worlds into
/// proportionally fewer blocks per shard (`blocks_per_shard`), so
/// shard indices, touch stamps, and eviction order are identical at every
/// block width.
pub const SHARD_BLOCKS: usize = 16;

/// Worlds per shard (16 × 64 = 1,024 at every block width), the shard
/// granularity shared by all backends so they report memory uniformly.
pub const SHARD_WORLDS: usize = SHARD_BLOCKS * LANES;

/// Blocks per shard at block width `W` words (64·W worlds per block):
/// 16 for width 64, 4 for width 256, 2 for width 512 — always the same
/// [`SHARD_WORLDS`] worlds per shard.
#[inline]
const fn blocks_per_shard<const W: usize>() -> usize {
    SHARD_WORLDS / (W * LANES)
}

/// Residency metadata of one shard of a **scalar** pool (the shard's
/// samples live in the pool's flat storage; evicted samples are replaced
/// by empty placeholders so indices stay stable).
#[derive(Clone, Debug, Default)]
struct ShardMeta {
    /// Heap bytes currently charged to the budget for this shard.
    bytes: usize,
    /// Recency stamp from [`MemoryBudget::touch`].
    last_used: u64,
    /// Whether the shard's samples are materialized.
    resident: bool,
}

/// Index of the least-recently-used resident shard, by `(stamp, index)` —
/// the deterministic victim order of the eviction loop.
fn lru_victim<T>(
    shards: &[T],
    resident: impl Fn(&T) -> bool,
    stamp: impl Fn(&T) -> u64,
) -> Option<usize> {
    shards
        .iter()
        .enumerate()
        .filter(|(_, sh)| resident(sh))
        .min_by_key(|&(s, sh)| (stamp(sh), s))
        .map(|(s, _)| s)
}

/// The shard indices covering sample range `[lo, hi)`.
#[inline]
fn shard_span(lo: usize, hi: usize) -> std::ops::RangeInclusive<usize> {
    debug_assert!(lo < hi);
    lo / SHARD_WORLDS..=(hi - 1) / SHARD_WORLDS
}

/// Storage width of component labels and membership indexes.
///
/// Labels and node ids are at most `n − 1`, so graphs with
/// `n ≤ u16::MAX` store them as `u16` — halving label memory on every
/// shipped dataset — while larger graphs use the `u32` path behind the
/// same interface. Both widths are property-tested against each other.
trait Label: Copy + Eq + Send + Sync + std::fmt::Debug + 'static {
    fn from_u32(x: u32) -> Self;
    fn index(self) -> usize;
}

impl Label for u16 {
    #[inline]
    fn from_u32(x: u32) -> Self {
        debug_assert!(x <= u16::MAX as u32);
        x as u16
    }
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

impl Label for u32 {
    #[inline]
    fn from_u32(x: u32) -> Self {
        x
    }
    #[inline]
    fn index(self) -> usize {
        self as usize
    }
}

/// Whether `n`-node labels fit the narrow (`u16`) width.
#[inline]
fn narrow_fits(n: usize) -> bool {
    n <= u16::MAX as usize
}

/// One sampled world reduced to its connected-component partition, at a
/// fixed label width `L`.
///
/// Stores the canonical label per node plus a *membership index* (nodes
/// sorted by label with bucket offsets), so all members of a given
/// component can be enumerated in time proportional to the component size.
#[derive(Clone, Debug)]
struct RowData<L> {
    /// Canonical component label per node.
    labels: Vec<L>,
    /// Node indices grouped by label.
    order: Vec<L>,
    /// `starts[c]..starts[c+1]` delimits component `c` in `order`.
    starts: Vec<u32>,
}

impl<L: Label> RowData<L> {
    fn build(labels: &[u32], num_components: usize) -> Self {
        let n = labels.len();
        let mut starts = vec![0u32; num_components + 1];
        for &l in labels {
            starts[l as usize + 1] += 1;
        }
        for c in 0..num_components {
            starts[c + 1] += starts[c];
        }
        let mut cursor = starts.clone();
        let mut order = vec![L::from_u32(0); n];
        for (node, &l) in labels.iter().enumerate() {
            let slot = cursor[l as usize] as usize;
            order[slot] = L::from_u32(node as u32);
            cursor[l as usize] += 1;
        }
        let labels = labels.iter().map(|&l| L::from_u32(l)).collect();
        RowData { labels, order, starts }
    }

    #[inline]
    fn members(&self, label: usize) -> &[L] {
        let lo = self.starts[label] as usize;
        let hi = self.starts[label + 1] as usize;
        &self.order[lo..hi]
    }

    /// Increments `counts[u]` for every member `u` of `center`'s component.
    #[inline]
    fn accumulate_center(&self, center: usize, counts: &mut [u32]) {
        for &u in self.members(self.labels[center].index()) {
            counts[u.index()] += 1;
        }
    }
}

/// [`RowData`] at the width picked for the pool's node count — the
/// narrow/wide dispatch point of the scalar backend.
#[derive(Clone, Debug)]
enum SampleRow {
    Narrow(RowData<u16>),
    Wide(RowData<u32>),
}

impl SampleRow {
    fn build(labels: &[u32], num_components: usize, wide: bool) -> Self {
        if wide {
            SampleRow::Wide(RowData::build(labels, num_components))
        } else {
            SampleRow::Narrow(RowData::build(labels, num_components))
        }
    }

    #[inline]
    fn accumulate_center(&self, center: usize, counts: &mut [u32]) {
        match self {
            SampleRow::Narrow(r) => r.accumulate_center(center, counts),
            SampleRow::Wide(r) => r.accumulate_center(center, counts),
        }
    }

    #[inline]
    fn connected(&self, u: usize, v: usize) -> bool {
        match self {
            SampleRow::Narrow(r) => r.labels[u] == r.labels[v],
            SampleRow::Wide(r) => r.labels[u] == r.labels[v],
        }
    }

    fn labels_into(&self, out: &mut [u32]) {
        match self {
            SampleRow::Narrow(r) => {
                for (o, &l) in out.iter_mut().zip(&r.labels) {
                    *o = u32::from(l);
                }
            }
            SampleRow::Wide(r) => out.copy_from_slice(&r.labels),
        }
    }

    fn members_u32(&self, label: u32) -> Vec<u32> {
        match self {
            SampleRow::Narrow(r) => {
                r.members(label as usize).iter().map(|&u| u32::from(u)).collect()
            }
            SampleRow::Wide(r) => r.members(label as usize).to_vec(),
        }
    }

    fn component_count(&self) -> usize {
        match self {
            SampleRow::Narrow(r) => r.starts.len() - 1,
            SampleRow::Wide(r) => r.starts.len() - 1,
        }
    }

    /// The empty placeholder standing in for an evicted row (indices stay
    /// stable; the shard regenerates as a whole on first touch).
    fn placeholder(wide: bool) -> Self {
        SampleRow::build(&[], 0, wide)
    }

    /// Heap bytes of this row — the unit of shard accounting.
    fn heap_bytes(&self) -> usize {
        match self {
            SampleRow::Narrow(r) => (r.labels.len() + r.order.len()) * 2 + r.starts.len() * 4,
            SampleRow::Wide(r) => (r.labels.len() + r.order.len() + r.starts.len()) * 4,
        }
    }
}

/// Pool of per-sample connected-component partitions, for **unlimited**
/// connection probabilities (the scalar backend of [`WorldEngine`]).
#[derive(Debug)]
pub struct ComponentPool<'g> {
    sampler: WorldSampler<'g>,
    rows: Vec<SampleRow>,
    config: ThreadConfig,
    /// `true` = `u32` labels; picked from the node count at construction
    /// (see [`Label`]), overridable for width-equivalence tests.
    wide: bool,
    /// Per-[`SHARD_WORLDS`]-rows residency/accounting metadata.
    shards: Vec<ShardMeta>,
    /// Shared byte ledger governing eviction (unbounded by default).
    budget: MemoryBudget,
    /// Shards evicted / regenerated by this pool (cumulative).
    evicted: u64,
    regenerated: u64,
    /// Per-solve interruption state, polled at shard boundaries
    /// (unarmed by default — see [`RunState`]).
    run: RunState,
}

impl Clone for ComponentPool<'_> {
    fn clone(&self) -> Self {
        // The clone shares the budget handle, so its copy of the resident
        // rows is charged to the ledger like any other pool's.
        self.budget.charge(self.shards.iter().map(|m| m.bytes).sum());
        ComponentPool {
            sampler: self.sampler,
            rows: self.rows.clone(),
            config: self.config.clone(),
            wide: self.wide,
            shards: self.shards.clone(),
            budget: self.budget.clone(),
            evicted: self.evicted,
            regenerated: self.regenerated,
            run: self.run.clone(),
        }
    }
}

impl Drop for ComponentPool<'_> {
    fn drop(&mut self) {
        self.budget.release(self.shards.iter().map(|m| m.bytes).sum());
    }
}

impl<'g> ComponentPool<'g> {
    /// Creates an empty pool over `graph` with master `seed`. `threads = 0`
    /// uses all available cores.
    pub fn new(graph: &'g UncertainGraph, seed: u64, threads: usize) -> Self {
        ComponentPool {
            sampler: WorldSampler::new(graph, seed),
            rows: Vec::new(),
            config: ThreadConfig::new(threads),
            wide: !narrow_fits(graph.num_nodes()),
            shards: Vec::new(),
            budget: MemoryBudget::unbounded(),
            evicted: 0,
            regenerated: 0,
            run: RunState::unlimited(),
        }
    }

    /// Re-derives shard `s`'s byte charge from its rows and settles the
    /// difference with the ledger.
    fn sync_shard_bytes(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.rows.len());
        let now: usize = self.rows[lo..hi].iter().map(SampleRow::heap_bytes).sum();
        let meta = &mut self.shards[s];
        if now >= meta.bytes {
            self.budget.charge(now - meta.bytes);
        } else {
            self.budget.release(meta.bytes - now);
        }
        meta.bytes = now;
    }

    /// The resolve-or-regenerate accessor of every aggregate query path:
    /// stamps the shards covering sample range `[lo, hi)` as recently used
    /// and regenerates any evicted one from its per-index RNG streams —
    /// bit-identical to the originally sampled rows. Doubles as the
    /// query-path cooperative checkpoint and the [`FaultSite::ShardRegen`]
    /// failpoint: returns `false` (recording the error on the
    /// [`RunState`]) if the query should be abandoned, in which case no
    /// shard has been touched beyond its recency stamp and the caller
    /// must not read the rows.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            self.shards[s].last_used = self.budget.touch();
            if !self.shards[s].resident {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.run.record(e);
                    return false;
                }
                self.regenerate_shard(s);
            }
        }
        true
    }

    /// Infallible single-sample resolve of the per-sample accessors
    /// (`labels*`, `component_*`): these back evaluation paths that run
    /// outside any solve, so they are neither checkpoints nor failpoints.
    fn resolve_point(&mut self, i: usize) {
        let s = i / SHARD_WORLDS;
        self.shards[s].last_used = self.budget.touch();
        if !self.shards[s].resident {
            self.regenerate_shard(s);
        }
    }

    fn regenerate_shard(&mut self, s: usize) {
        let n = self.graph().num_nodes();
        let sampler = self.sampler;
        let wide = self.wide;
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.rows.len());
        if self.config.parallel_generation(hi - lo) {
            let rows: Vec<SampleRow> = self.config.run(|| {
                (lo as u64..hi as u64)
                    .into_par_iter()
                    .map_init(
                        || (UnionFind::new(n), vec![0u32; n]),
                        |(uf, labels), i| {
                            let comps = sampler.sample_components(i, uf, labels);
                            SampleRow::build(labels, comps, wide)
                        },
                    )
                    .collect()
            });
            for (i, row) in rows.into_iter().enumerate() {
                self.rows[lo + i] = row;
            }
        } else {
            let mut uf = UnionFind::new(n);
            let mut labels = vec![0u32; n];
            for i in lo..hi {
                let comps = sampler.sample_components(i as u64, &mut uf, &mut labels);
                self.rows[i] = SampleRow::build(&labels, comps, wide);
            }
        }
        self.shards[s].resident = true;
        self.regenerated += 1;
        self.budget.note_regeneration();
        self.sync_shard_bytes(s);
    }

    fn evict_shard(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.rows.len());
        for row in &mut self.rows[lo..hi] {
            *row = SampleRow::placeholder(self.wide);
        }
        self.shards[s].resident = false;
        self.evicted += 1;
        self.budget.note_eviction();
        self.sync_shard_bytes(s);
    }

    /// Evicts least-recently-used shards until the shared ledger fits its
    /// limit (or this pool has nothing left to shed) — the epilogue of
    /// `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.budget.over_budget() {
            match lru_victim(&self.shards, |m| m.resident, |m| m.last_used) {
                Some(s) => self.evict_shard(s),
                None => break,
            }
        }
    }

    /// Forces the wide (`u32`) label path even on small graphs. Counts are
    /// identical either way; the property tests use this to exercise the
    /// wide path without 65k-node instances.
    ///
    /// # Panics
    /// Panics if the pool already holds samples (rows are stored at a
    /// single width).
    #[doc(hidden)]
    pub fn with_wide_labels(mut self, wide: bool) -> Self {
        assert!(self.rows.is_empty(), "label width is fixed once samples exist");
        self.wide = wide || !narrow_fits(self.graph().num_nodes());
        self
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.sampler.graph()
    }

    /// Number of samples currently in the pool.
    pub fn num_samples(&self) -> usize {
        self.rows.len()
    }

    /// Grows the pool to at least `r` samples (no-op if already there).
    ///
    /// Samples are drawn in parallel; sample `i` always comes from RNG
    /// stream `i`, so the result is independent of the thread count.
    pub fn ensure(&mut self, r: usize) {
        let cur = self.rows.len();
        if r <= cur {
            return;
        }
        let n = self.graph().num_nodes();
        let sampler = self.sampler;
        let wide = self.wide;
        // Rows landing in a currently evicted trailing shard are appended
        // as placeholders — that shard regenerates as a whole on its next
        // touch, filling them from their RNG streams.
        let mut from = cur;
        if let Some(meta) = self.shards.last() {
            if !meta.resident {
                let end = (self.shards.len() * SHARD_WORLDS).min(r);
                self.rows.extend((cur..end).map(|_| SampleRow::placeholder(wide)));
                from = end;
                let s = self.shards.len() - 1;
                self.shards[s].last_used = self.budget.touch();
                self.sync_shard_bytes(s);
            }
        }
        // Grow shard by shard: each chunk is generated, appended, and
        // accounted as a unit, with a cooperative checkpoint (and the
        // `PoolGrow` failpoint) between chunks — an interrupted `ensure`
        // leaves a consistent, smaller pool that a re-issued request tops
        // up bit-identically.
        while from < r {
            if self.run.checkpoint(SamplingPhase::Generation) {
                break;
            }
            if let Err(e) = faults::hit(FaultSite::PoolGrow) {
                self.run.record(e);
                break;
            }
            let hi = ((from / SHARD_WORLDS + 1) * SHARD_WORLDS).min(r);
            if !self.config.parallel_generation(hi - from) {
                let mut uf = UnionFind::new(n);
                let mut labels = vec![0u32; n];
                for i in from as u64..hi as u64 {
                    let comps = sampler.sample_components(i, &mut uf, &mut labels);
                    self.rows.push(SampleRow::build(&labels, comps, wide));
                }
            } else {
                let new_rows: Vec<SampleRow> = self.config.run(|| {
                    (from as u64..hi as u64)
                        .into_par_iter()
                        .map_init(
                            || (UnionFind::new(n), vec![0u32; n]),
                            |(uf, labels), i| {
                                let comps = sampler.sample_components(i, uf, labels);
                                SampleRow::build(labels, comps, wide)
                            },
                        )
                        .collect()
                });
                self.rows.extend(new_rows);
            }
            // Account the finished chunk's shard, then move on.
            let s = from / SHARD_WORLDS;
            if s == self.shards.len() {
                self.shards.push(ShardMeta { bytes: 0, last_used: 0, resident: true });
            }
            self.shards[s].last_used = self.budget.touch();
            self.sync_shard_bytes(s);
            from = hi;
        }
        self.trim_to_budget();
    }

    /// Component labels of sample `i` (one per node), widened to `u32`.
    /// Regenerates `i`'s shard if it was evicted (these per-sample
    /// accessors resolve but do not trim — callers iterating the pool keep
    /// it resident; the next aggregate query or `ensure` settles the
    /// ledger).
    pub fn labels(&mut self, i: usize) -> Vec<u32> {
        let mut out = vec![0u32; self.graph().num_nodes()];
        self.labels_into(i, &mut out);
        out
    }

    /// Writes the component labels of sample `i` into `out` (the
    /// allocation-free form of [`ComponentPool::labels`]).
    ///
    /// # Panics
    /// Panics if `out.len() != n`.
    pub fn labels_into(&mut self, i: usize, out: &mut [u32]) {
        assert_eq!(out.len(), self.graph().num_nodes(), "labels buffer has wrong length");
        self.resolve_point(i);
        self.rows[i].labels_into(out);
    }

    /// Members of the component with `label` in sample `i`.
    pub fn component_members(&mut self, i: usize, label: u32) -> Vec<u32> {
        self.resolve_point(i);
        self.rows[i].members_u32(label)
    }

    /// Number of components in sample `i`.
    pub fn component_count(&mut self, i: usize) -> usize {
        self.resolve_point(i);
        self.rows[i].component_count()
    }

    /// The kernel of the center-count queries, over rows already resolved
    /// by the caller.
    fn counts_center_resident(&self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        let n = self.graph().num_nodes();
        let run = &self.run;
        let accumulate = |counts: &mut [u32], (): &mut (), rows: &[SampleRow]| {
            for row in rows {
                // Cooperative per-row checkpoint (one relaxed load): once
                // the run trips, remaining rows are skipped and the
                // partial counts are discarded by the fallible caller.
                if run.checkpoint(SamplingPhase::Sweep) {
                    return;
                }
                row.accumulate_center(center.index(), counts);
            }
        };
        chunked_counts(&self.config, &self.rows[lo..hi], n, n, accumulate, out);
    }
}

/// Panics unless both depths are [`DEPTH_UNLIMITED`]: component labels
/// carry no distance information, so [`ComponentPool`] answers
/// unlimited-depth queries only.
fn assert_unlimited(d_select: u32, d_cover: u32) {
    assert!(
        d_select == DEPTH_UNLIMITED && d_cover == DEPTH_UNLIMITED,
        "ComponentPool answers unlimited-depth queries only; use WorldPool or \
         BitParallelPool for finite depths"
    );
}

impl WorldEngine for ComponentPool<'_> {
    /// Binds the pool to a (possibly shared) memory budget: the resident
    /// bytes move to the new ledger and the pool immediately sheds
    /// least-recently-used shards if the new ledger is over its limit.
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let held: usize = self.shards.iter().map(|m| m.bytes).sum();
        self.budget.release(held);
        budget.charge(held);
        self.budget = budget;
        self.trim_to_budget();
    }

    fn set_run_state(&mut self, run: RunState) {
        self.run = run;
    }

    /// Resident bytes, the budget limit, and this pool's cumulative shard
    /// eviction/regeneration counters.
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            bytes_held: self.shards.iter().map(|m| m.bytes).sum(),
            bytes_limit: self.budget.limit(),
            shards_evicted: self.evicted,
            shards_regenerated: self.regenerated,
        }
    }

    fn graph(&self) -> &UncertainGraph {
        ComponentPool::graph(self)
    }

    fn supports_finite_depths(&self) -> bool {
        false
    }

    fn num_samples(&self) -> usize {
        ComponentPool::num_samples(self)
    }

    fn ensure(&mut self, r: usize) {
        ComponentPool::ensure(self, r)
    }

    /// Runs in `Σ_i |comp_i(center)|` over the window — only the center's
    /// component members are touched per sample, which on sparse sampled
    /// worlds is far below `n·r`. Sample rows are processed in parallel
    /// chunks; integer count merging keeps the result independent of the
    /// chunking.
    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.rows.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        self.counts_center_resident(center, lo, hi, out);
        self.trim_to_budget();
    }

    /// Implemented as a per-center loop: the membership index already makes
    /// a single-center sweep proportional to the center's component sizes,
    /// and keeping each pass focused on one `n`-sized output row is faster
    /// than a transposed one-pass sweep that scatters writes across all
    /// `k` rows (measured on the Krogan-like instance). The batch entry
    /// point still matters for the seam: other backends amortize real work
    /// here, and callers stay backend-agnostic.
    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out.len(), k * n, "batch counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.rows.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        for (j, &c) in centers.iter().enumerate() {
            self.counts_center_resident(c, lo, hi, &mut out[j * n..(j + 1) * n]);
        }
        self.trim_to_budget();
    }

    /// One label comparison per in-window sample.
    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.rows.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        let total = chunked_sum_with(
            &self.config,
            &self.rows[lo..hi],
            1,
            &mut (),
            || (),
            |(), row| usize::from(row.connected(u.index(), v.index())),
        );
        self.trim_to_budget();
        total
    }

    /// Component labels carry no distance information, so this scalar
    /// backend only answers [`DEPTH_UNLIMITED`] depths.
    ///
    /// # Panics
    /// Panics if either depth is finite.
    fn counts_within_depths_range(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        assert_unlimited(d_select, d_cover);
        self.counts_from_center_range(center, lo, hi, out_cover);
        out_select.copy_from_slice(out_cover);
    }

    /// # Panics
    /// Panics if either depth is finite (see
    /// [`counts_within_depths_range`](WorldEngine::counts_within_depths_range)).
    fn counts_within_depths_batch_range(
        &mut self,
        centers: &[NodeId],
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        assert_unlimited(d_select, d_cover);
        self.counts_from_centers_range(centers, lo, hi, out_cover);
        out_select.copy_from_slice(out_cover);
    }

    /// # Panics
    /// Panics if `depth` is finite (see
    /// [`counts_within_depths_range`](WorldEngine::counts_within_depths_range)).
    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        assert_unlimited(depth, depth);
        self.pair_count_range(u, v, lo, hi)
    }
}

/// Pool of per-sample edge bitsets, for **depth-limited** d-connection
/// probabilities (paper §3.4) — the scalar depth-capable backend of
/// [`WorldEngine`], one bounded BFS per world per query.
#[derive(Debug)]
pub struct WorldPool<'g> {
    sampler: WorldSampler<'g>,
    worlds: Vec<Bitset>,
    config: ThreadConfig,
    /// Reusable bounded-BFS workspace for serial query paths; parallel
    /// chunks build their own.
    bfs: DepthBfs,
    /// Per-[`SHARD_WORLDS`]-worlds residency/accounting metadata.
    shards: Vec<ShardMeta>,
    /// Shared byte ledger governing eviction (unbounded by default).
    budget: MemoryBudget,
    /// Shards evicted / regenerated by this pool (cumulative).
    evicted: u64,
    regenerated: u64,
    /// Per-solve interruption state, polled at shard/world boundaries
    /// (unarmed by default — see [`RunState`]).
    run: RunState,
}

impl Clone for WorldPool<'_> {
    fn clone(&self) -> Self {
        // The clone shares the budget handle, so its copy of the resident
        // worlds is charged to the ledger like any other pool's.
        self.budget.charge(self.shards.iter().map(|m| m.bytes).sum());
        WorldPool {
            sampler: self.sampler,
            worlds: self.worlds.clone(),
            config: self.config.clone(),
            bfs: self.bfs.clone(),
            shards: self.shards.clone(),
            budget: self.budget.clone(),
            evicted: self.evicted,
            regenerated: self.regenerated,
            run: self.run.clone(),
        }
    }
}

impl Drop for WorldPool<'_> {
    fn drop(&mut self) {
        self.budget.release(self.shards.iter().map(|m| m.bytes).sum());
    }
}

impl<'g> WorldPool<'g> {
    /// Creates an empty world pool over `graph` with master `seed`.
    /// `threads = 0` uses all available cores.
    pub fn new(graph: &'g UncertainGraph, seed: u64, threads: usize) -> Self {
        WorldPool {
            sampler: WorldSampler::new(graph, seed),
            worlds: Vec::new(),
            config: ThreadConfig::new(threads),
            bfs: DepthBfs::new(graph.num_nodes()),
            shards: Vec::new(),
            budget: MemoryBudget::unbounded(),
            evicted: 0,
            regenerated: 0,
            run: RunState::unlimited(),
        }
    }

    /// Re-derives shard `s`'s byte charge from its world bitsets and
    /// settles the difference with the ledger.
    fn sync_shard_bytes(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.worlds.len());
        let now: usize = self.worlds[lo..hi].iter().map(|w| w.blocks().len() * 8).sum();
        let meta = &mut self.shards[s];
        if now >= meta.bytes {
            self.budget.charge(now - meta.bytes);
        } else {
            self.budget.release(meta.bytes - now);
        }
        meta.bytes = now;
    }

    /// The resolve-or-regenerate accessor of every aggregate query path:
    /// stamps the shards covering world range `[lo, hi)` as recently used
    /// and regenerates any evicted one from its per-index RNG streams —
    /// bit-identical to the originally sampled worlds.
    ///
    /// Doubles as the query-entry cooperative checkpoint: returns `false`
    /// (without touching any world data) when the attached [`RunState`]
    /// has tripped, or records the error and returns `false` when the
    /// [`FaultSite::ShardRegen`] failpoint fires. The failpoint fires
    /// *before* regeneration mutates anything, so a shard is always either
    /// fully regenerated or untouched.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            self.shards[s].last_used = self.budget.touch();
            if !self.shards[s].resident {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.run.record(e);
                    return false;
                }
                self.regenerate_shard(s);
            }
        }
        true
    }

    /// Infallible single-world resolve for per-sample accessors: touches
    /// and (if evicted) regenerates world `i`'s shard with no checkpoint
    /// and no failpoint, so evaluation paths that walk the pool world by
    /// world cannot be broken by an armed fault plan or a tripped run
    /// state.
    fn resolve_point(&mut self, i: usize) {
        let s = i / SHARD_WORLDS;
        self.shards[s].last_used = self.budget.touch();
        if !self.shards[s].resident {
            self.regenerate_shard(s);
        }
    }

    fn regenerate_shard(&mut self, s: usize) {
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.worlds.len());
        let draw = move |i: u64| {
            let mut world = Bitset::with_len(m);
            sampler
                .sample_into(i, &mut world)
                .unwrap_or_else(|e| unreachable!("pool-sized bitset cannot mismatch: {e}"));
            world
        };
        if self.config.parallel_generation(hi - lo) {
            let worlds: Vec<Bitset> =
                self.config.run(|| (lo as u64..hi as u64).into_par_iter().map(draw).collect());
            for (i, world) in worlds.into_iter().enumerate() {
                self.worlds[lo + i] = world;
            }
        } else {
            for i in lo..hi {
                self.worlds[i] = draw(i as u64);
            }
        }
        self.shards[s].resident = true;
        self.regenerated += 1;
        self.budget.note_regeneration();
        self.sync_shard_bytes(s);
    }

    fn evict_shard(&mut self, s: usize) {
        let lo = s * SHARD_WORLDS;
        let hi = ((s + 1) * SHARD_WORLDS).min(self.worlds.len());
        for world in &mut self.worlds[lo..hi] {
            *world = Bitset::with_len(0);
        }
        self.shards[s].resident = false;
        self.evicted += 1;
        self.budget.note_eviction();
        self.sync_shard_bytes(s);
    }

    /// Evicts least-recently-used shards until the shared ledger fits its
    /// limit (or this pool has nothing left to shed) — the epilogue of
    /// `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.budget.over_budget() {
            match lru_victim(&self.shards, |m| m.resident, |m| m.last_used) {
                Some(s) => self.evict_shard(s),
                None => break,
            }
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.sampler.graph()
    }

    /// Number of sampled worlds.
    pub fn num_samples(&self) -> usize {
        self.worlds.len()
    }

    /// Grows the pool to at least `r` worlds, sampling in parallel (world
    /// `i` always comes from RNG stream `i`).
    pub fn ensure(&mut self, r: usize) {
        let cur = self.worlds.len();
        if r <= cur {
            return;
        }
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let draw = move |i: u64| {
            let mut world = Bitset::with_len(m);
            sampler
                .sample_into(i, &mut world)
                .unwrap_or_else(|e| unreachable!("pool-sized bitset cannot mismatch: {e}"));
            world
        };
        // Worlds landing in a currently evicted trailing shard are
        // appended as empty placeholders — that shard regenerates as a
        // whole on its next touch.
        let mut from = cur;
        if let Some(meta) = self.shards.last() {
            if !meta.resident {
                let end = (self.shards.len() * SHARD_WORLDS).min(r);
                self.worlds.extend((cur..end).map(|_| Bitset::with_len(0)));
                from = end;
                let s = self.shards.len() - 1;
                self.shards[s].last_used = self.budget.touch();
                self.sync_shard_bytes(s);
            }
        }
        // Grow shard by shard so interruption latency is bounded by one
        // shard of sampling; each chunk is fully generated and charged
        // before the next checkpoint, so a break leaves the pool smaller
        // but consistent.
        while from < r {
            if self.run.checkpoint(SamplingPhase::Generation) {
                break;
            }
            if let Err(e) = faults::hit(FaultSite::PoolGrow) {
                self.run.record(e);
                break;
            }
            let hi = ((from / SHARD_WORLDS + 1) * SHARD_WORLDS).min(r);
            if !self.config.parallel_generation(hi - from) {
                self.worlds.extend((from as u64..hi as u64).map(draw));
            } else {
                let new_worlds: Vec<Bitset> = self
                    .config
                    .run(|| (from as u64..hi as u64).into_par_iter().map(draw).collect());
                self.worlds.extend(new_worlds);
            }
            let s = from / SHARD_WORLDS;
            if s == self.shards.len() {
                self.shards.push(ShardMeta { bytes: 0, last_used: 0, resident: true });
            }
            self.shards[s].last_used = self.budget.touch();
            self.sync_shard_bytes(s);
            from = hi;
        }
        self.trim_to_budget();
    }

    /// The edge bitset of world `i`. Regenerates `i`'s shard if it was
    /// evicted (this per-sample accessor resolves but does not trim —
    /// callers iterating the pool keep it resident; the next aggregate
    /// query or `ensure` settles the ledger).
    pub fn world(&mut self, i: usize) -> &Bitset {
        self.resolve_point(i);
        &self.worlds[i]
    }
}

impl WorldEngine for WorldPool<'_> {
    /// Binds the pool to a (possibly shared) memory budget: the resident
    /// bytes move to the new ledger and the pool immediately sheds
    /// least-recently-used shards if the new ledger is over its limit.
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let held: usize = self.shards.iter().map(|m| m.bytes).sum();
        self.budget.release(held);
        budget.charge(held);
        self.budget = budget;
        self.trim_to_budget();
    }

    fn set_run_state(&mut self, run: RunState) {
        self.run = run;
    }

    /// Resident bytes, the budget limit, and this pool's cumulative shard
    /// eviction/regeneration counters.
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            bytes_held: self.shards.iter().map(|m| m.bytes).sum(),
            bytes_limit: self.budget.limit(),
            shards_evicted: self.evicted,
            shards_regenerated: self.regenerated,
        }
    }

    fn graph(&self) -> &UncertainGraph {
        WorldPool::graph(self)
    }

    fn num_samples(&self) -> usize {
        WorldPool::num_samples(self)
    }

    fn ensure(&mut self, r: usize) {
        WorldPool::ensure(self, r)
    }

    /// Dedicated unlimited path: one increment per reached node, no select
    /// row to duplicate.
    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts_with(
            config,
            &worlds[lo..hi],
            n,
            n,
            bfs,
            || DepthBfs::new(n),
            |counts, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    bfs.run(&view, center, DEPTH_UNLIMITED, |node, _| counts[node.index()] += 1);
                }
            },
            out,
        );
        self.trim_to_budget();
    }

    /// One pass over the window: each in-window world's view is built once
    /// for all centers instead of once per center.
    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out.len(), k * n, "batch counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if k == 0 {
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts_with(
            config,
            &worlds[lo..hi],
            k * n,
            k * n,
            bfs,
            || DepthBfs::new(n),
            |counts, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    for (j, &c) in centers.iter().enumerate() {
                        bfs.run(&view, c, DEPTH_UNLIMITED, |node, _| {
                            counts[j * n + node.index()] += 1;
                        });
                    }
                }
            },
            out,
        );
        self.trim_to_budget();
    }

    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        self.pair_count_within_range(u, v, DEPTH_UNLIMITED, lo, hi)
    }

    /// One bounded BFS per in-window world covers both depths (hence
    /// `d_select ≤ d_cover`).
    fn counts_within_depths_range(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        assert_eq!(out_select.len(), n, "select buffer has wrong length");
        assert_eq!(out_cover.len(), n, "cover buffer has wrong length");
        assert!(d_select <= d_cover, "d_select ({d_select}) must be ≤ d_cover ({d_cover})");
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts2_with(
            config,
            &worlds[lo..hi],
            n,
            n,
            bfs,
            || DepthBfs::new(n),
            |select, cover, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    bfs.run(&view, center, d_cover, |node, depth| {
                        cover[node.index()] += 1;
                        if depth <= d_select {
                            select[node.index()] += 1;
                        }
                    });
                }
            },
            out_select,
            out_cover,
        );
        self.trim_to_budget();
    }

    /// Each in-window world's edge bitset is materialized as a
    /// [`WorldView`] **once** for all centers (one pass over the window).
    fn counts_within_depths_batch_range(
        &mut self,
        centers: &[NodeId],
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out_select.len(), k * n, "batch select buffer has wrong length");
        assert_eq!(out_cover.len(), k * n, "batch cover buffer has wrong length");
        assert!(d_select <= d_cover, "d_select ({d_select}) must be ≤ d_cover ({d_cover})");
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if k == 0 {
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        chunked_counts2_with(
            config,
            &worlds[lo..hi],
            k * n,
            k * n,
            bfs,
            || DepthBfs::new(n),
            |select, cover, bfs, worlds| {
                for world in worlds {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let view = WorldView::new(graph, world);
                    for (j, &c) in centers.iter().enumerate() {
                        bfs.run(&view, c, d_cover, |node, depth| {
                            cover[j * n + node.index()] += 1;
                            if depth <= d_select {
                                select[j * n + node.index()] += 1;
                            }
                        });
                    }
                }
            },
            out_select,
            out_cover,
        );
        self.trim_to_budget();
    }

    /// One bounded BFS per in-window world.
    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        assert!(lo <= hi && hi <= self.worlds.len(), "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        let run = self.run.clone();
        let WorldPool { sampler, worlds, config, bfs, .. } = self;
        let graph = sampler.graph();
        let n = graph.num_nodes();
        let total = chunked_sum_with(
            config,
            &worlds[lo..hi],
            n,
            bfs,
            || DepthBfs::new(n),
            |bfs, world| {
                if run.checkpoint(SamplingPhase::Sweep) {
                    return 0;
                }
                let view = WorldView::new(graph, world);
                let mut hit = false;
                bfs.run(&view, u, depth, |node, _| hit |= node == v);
                usize::from(hit)
            },
        );
        self.trim_to_budget();
        total
    }
}

/// Finalized per-lane component structure of one mask block — what lets
/// unlimited queries over the block skip most of their mask traversal.
///
/// Two parts, both node-major:
/// * `labels[u * LANES + l]` = `u`'s component in world `l` (`LANES` =
///   `W · 64`, the block's lane capacity), stored at the label width
///   picked for the pool's node count; a pair's two label strips are
///   contiguous loads, so pair queries are O(lanes) label compares;
/// * `giant[u]` lane `l` ⇔ `u` lies in world `l`'s **largest** component
///   (the smallest label among equally large ones). In a lane where the
///   center is in the giant, `u ~ center` ⇔ `giant[u]` has the lane, so a
///   row over those lanes is one `n · W`-word AND + popcount pass; only
///   the lanes where the center lies outside the giant — small components
///   — still need a mask traversal.
///
/// Lanes are labeled **append-only**: finalizing a partially filled block
/// and topping it up later labels only the new lanes — already-labeled
/// lanes (and their giant bits) are never recomputed (worlds are immutable
/// once sampled).
#[derive(Clone, Debug)]
struct BlockLabels<const W: usize> {
    /// Per-lane labels (sized `n · LANES` up front so lane appends are
    /// in-place writes).
    labels: LabelVec,
    /// Per-node lanes of membership in the lane's largest component.
    giant: Vec<Mask<W>>,
    /// Lanes labeled so far (a prefix of the block's lanes).
    labeled: u32,
}

/// Block label storage at the width picked for the pool's node count.
#[derive(Clone, Debug)]
enum LabelVec {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl<const W: usize> BlockLabels<W> {
    fn new(n: usize, wide: bool) -> Self {
        let cells = n * Mask::<W>::LANES;
        BlockLabels {
            labels: if wide {
                LabelVec::Wide(vec![0; cells])
            } else {
                LabelVec::Narrow(vec![0; cells])
            },
            giant: vec![Mask::ZERO; n],
            labeled: 0,
        }
    }

    /// Heap bytes held: `n · LANES` labels plus `n · W` giant-mask words.
    fn heap_bytes(&self) -> usize {
        let labels = match &self.labels {
            LabelVec::Narrow(l) => std::mem::size_of_val(l.as_slice()),
            LabelVec::Wide(l) => std::mem::size_of_val(l.as_slice()),
        };
        labels + std::mem::size_of_val(self.giant.as_slice())
    }

    /// Labels lanes `[self.labeled, target)` from the block's edge masks
    /// with one component-sharing sweep and marks their giant components.
    /// Already-labeled lanes are untouched.
    fn extend(
        &mut self,
        graph: &UncertainGraph,
        bfs: &mut MultiWorldBfs<W>,
        masks: &[Mask<W>],
        target: usize,
    ) {
        let from = self.labeled as usize;
        debug_assert!(from < target && target <= Mask::<W>::LANES);
        match &mut self.labels {
            LabelVec::Narrow(l) => label_lanes(l, &mut self.giant, graph, bfs, masks, from, target),
            LabelVec::Wide(l) => label_lanes(l, &mut self.giant, graph, bfs, masks, from, target),
        }
        self.labeled = target as u32;
    }

    /// Adds, for every node `u`, the number of lanes of `lanes` in which
    /// `u` is in the giant component — `u`'s row over the lanes where the
    /// center is in the giant (callers pass `giant[center] & labeled`).
    #[inline]
    fn add_giant_counts(&self, lanes: Mask<W>, counts: &mut [u32]) {
        if lanes.any() {
            for (c, &g) in counts.iter_mut().zip(&self.giant) {
                *c += (g & lanes).count_ones();
            }
        }
    }

    /// Number of lanes in `lanes` where `u` and `v` share a component
    /// (`lanes` must be ⊆ the labeled lanes).
    #[inline]
    fn pair_lanes(&self, u: usize, v: usize, lanes: Mask<W>) -> usize {
        match &self.labels {
            LabelVec::Narrow(l) => pair_hits(l, u, v, lanes),
            LabelVec::Wide(l) => pair_hits(l, u, v, lanes),
        }
    }
}

/// Lanes of `lanes` in which `u` and `v` carry equal labels.
fn pair_hits<L: Label, const W: usize>(labels: &[L], u: usize, v: usize, lanes: Mask<W>) -> usize {
    let (bu, bv) = (u * Mask::<W>::LANES, v * Mask::<W>::LANES);
    let mut hits = 0usize;
    lanes.for_each_lane(|l| hits += usize::from(labels[bu + l] == labels[bv + l]));
    hits
}

/// Labels lanes `[from, target)` of a block (node-major `labels`, stride
/// `W · 64`) and ORs each new lane's largest component into `giant`.
fn label_lanes<L: Label, const W: usize>(
    labels: &mut [L],
    giant: &mut [Mask<W>],
    graph: &UncertainGraph,
    bfs: &mut MultiWorldBfs<W>,
    masks: &[Mask<W>],
    from: usize,
    target: usize,
) {
    let stride = Mask::<W>::LANES;
    let new_lanes = Mask::<W>::prefix(target).and_not(Mask::prefix(from));
    let counts = bfs.label_components(graph, masks, new_lanes, |v, mask, next| {
        let base = v.index() * stride;
        mask.for_each_lane(|l| labels[base + l] = L::from_u32(next[l]));
    });
    // Component sizes of every new lane in one node-major pass over the
    // label strips, `sizes[offset[i] + c]` for lane `from + i`.
    let mut offset = Vec::with_capacity(target - from);
    let mut total = 0usize;
    for &c in &counts[from..target] {
        offset.push(total);
        total += c as usize;
    }
    let mut sizes = vec![0u32; total];
    for row in labels.chunks_exact(stride) {
        for (&c, &o) in row[from..target].iter().zip(&offset) {
            sizes[o + c.index()] += 1;
        }
    }
    let biggest: Vec<usize> = offset
        .iter()
        .zip(&counts[from..target])
        .map(|(&o, &c)| {
            let s = &sizes[o..o + c as usize];
            (1..s.len()).fold(0, |best, c| if s[c] > s[best] { c } else { best })
        })
        .collect();
    for (row, g) in labels.chunks_exact(stride).zip(giant) {
        let mut words = [0u64; W];
        for (i, (&c, &b)) in row[from..target].iter().zip(&biggest).enumerate() {
            let l = from + i;
            words[l / LANES] |= u64::from(c.index() == b) << (l % LANES);
        }
        *g |= Mask(words);
    }
}

/// Shape of an unlimited-depth point query, as seen by the adaptive
/// backend's finalization prologue: single-center **rows** finalize
/// touched blocks eagerly, **pair** queries convert a block only after
/// repeated hits ([`finalize_on_unlimited_query`]). Multi-center batches
/// never go through the prologue — they neither finalize nor count toward
/// the threshold; on blocks other traffic finalized they start each
/// center's sharing sweep from its non-giant lanes only.
#[derive(Clone, Copy, PartialEq, Eq)]
enum UnlimitedShape {
    Row,
    Pair,
}

/// One block of up to `W · 64` sampled worlds as per-edge presence masks.
#[derive(Clone, Debug)]
struct MaskBlock<const W: usize> {
    /// `masks[e]` lane `l` ⇔ edge `e` exists in world `base + l`.
    masks: Vec<Mask<W>>,
    /// Number of valid lanes (worlds) in this block; only the last block
    /// of a pool can be partial.
    lanes: u32,
    /// Lazily finalized component labels and giant masks; covers the first
    /// `labels.labeled` lanes, never invalidated — a lane top-up extends
    /// the labels, it does not recompute them.
    labels: Option<BlockLabels<W>>,
    /// Mask-path unlimited point queries absorbed while unfinalized — the
    /// input of [`finalize_on_unlimited_query`].
    mask_queries: u32,
}

impl<const W: usize> MaskBlock<W> {
    /// Heap bytes held by the block's masks and finalized labels.
    fn heap_bytes(&self) -> usize {
        self.masks.len() * std::mem::size_of::<Mask<W>>()
            + self.labels.as_ref().map_or(0, BlockLabels::heap_bytes)
    }

    /// Splits a query's lane selection into its (labeled, unlabeled)
    /// parts.
    #[inline]
    fn split_lanes(&self, query: Mask<W>) -> (Mask<W>, Mask<W>) {
        match &self.labels {
            Some(l) => {
                let labeled = Mask::prefix(l.labeled as usize);
                (query & labeled, query.and_not(labeled))
            }
            None => (Mask::ZERO, query),
        }
    }
}

/// A group of consecutive mask blocks covering [`SHARD_WORLDS`] worlds —
/// the allocation/eviction granularity of the bit-parallel backend. The
/// shard owns its blocks' masks **and** their finalized labels; eviction
/// drops both (an empty `blocks` vector ⇔ evicted), and regeneration
/// rebuilds the masks bit-identically from their per-index RNG streams
/// while labels simply re-finalize on the next unlimited query.
#[derive(Clone, Debug)]
struct BlockShard<const W: usize> {
    blocks: Vec<MaskBlock<W>>,
    /// Heap bytes currently charged to the budget for this shard.
    bytes: usize,
    /// Recency stamp from [`MemoryBudget::touch`].
    last_used: u64,
}

impl<const W: usize> BlockShard<W> {
    #[inline]
    fn resident(&self) -> bool {
        !self.blocks.is_empty()
    }

    fn heap_bytes(&self) -> usize {
        self.blocks.iter().map(MaskBlock::heap_bytes).sum()
    }
}

/// Block `b` of a sharded bit-parallel pool (the shard must be resident).
#[inline]
fn shard_block<const W: usize>(shards: &[BlockShard<W>], b: usize) -> &MaskBlock<W> {
    &shards[b / blocks_per_shard::<W>()].blocks[b % blocks_per_shard::<W>()]
}

/// The **adaptive** backend of [`WorldEngine`]: worlds stored in blocks
/// of `B = W · 64` as structure-of-arrays edge masks, queried with
/// mask-propagating multi-world BFS ([`MultiWorldBfs`]) and, for
/// unlimited-depth rows, lazily finalized per-block component labels (see
/// [`BitParallelPool::new_adaptive`]). Production runs at `W = 4` (256
/// worlds per block); other widths give the tests cheap coverage across
/// many blocks.
///
/// One traversal answers `B` worlds at once, so queries cost
/// `O((n + m) · W · ⌈r/B⌉)` word operations instead of `r` per-world
/// walks — and generation skips the per-world union-find/labeling pass
/// entirely. World `i` lives in lane `i % B` of block `i / B` and is drawn from
/// per-index RNG stream `i`, so the pool is world-for-world identical to
/// the scalar pools under the same master seed (property-tested). Blocks
/// are grouped into [`SHARD_BLOCKS`]-block shards charged against a
/// [`MemoryBudget`].
#[derive(Debug)]
pub struct BitParallelPool<'g, const W: usize = 1> {
    sampler: WorldSampler<'g>,
    shards: Vec<BlockShard<W>>,
    samples: usize,
    config: ThreadConfig,
    /// Reusable multi-world BFS workspace for serial query paths; parallel
    /// chunks build their own.
    bfs: MultiWorldBfs<W>,
    /// Reusable `(block, lane mask)` work-item buffer of the ranged query
    /// paths (allocation-free single-row queries).
    items: Vec<(u32, Mask<W>)>,
    /// `true` = `u32` block labels (see [`Label`]).
    wide: bool,
    /// Finalization counters (see [`EngineStats`]).
    stats: EngineStats,
    /// Shared byte ledger governing eviction (unbounded by default).
    budget: MemoryBudget,
    /// Shards evicted / regenerated by this pool (cumulative).
    evicted: u64,
    regenerated: u64,
    /// Per-solve interruption state, polled at shard/block boundaries
    /// (unarmed by default — see [`RunState`]).
    run: RunState,
}

impl<const W: usize> Clone for BitParallelPool<'_, W> {
    fn clone(&self) -> Self {
        // The clone shares the budget handle, so its copy of the resident
        // shards is charged to the ledger like any other pool's.
        self.budget.charge(self.shards.iter().map(|sh| sh.bytes).sum());
        BitParallelPool {
            sampler: self.sampler,
            shards: self.shards.clone(),
            samples: self.samples,
            config: self.config.clone(),
            bfs: self.bfs.clone(),
            items: self.items.clone(),
            wide: self.wide,
            stats: self.stats,
            budget: self.budget.clone(),
            evicted: self.evicted,
            regenerated: self.regenerated,
            run: self.run.clone(),
        }
    }
}

impl<const W: usize> Drop for BitParallelPool<'_, W> {
    fn drop(&mut self) {
        self.budget.release(self.shards.iter().map(|sh| sh.bytes).sum());
    }
}

impl<'g, const W: usize> BitParallelPool<'g, W> {
    /// Worlds per block at this width (`W · 64`).
    const BLOCK_LANES: usize = W * LANES;

    /// Creates an empty pool over `graph` with master `seed`
    /// (`threads = 0` uses all available cores), with **lazy block
    /// finalization**: the first unlimited-depth row query against a block
    /// materializes per-lane component labels and giant-component lane
    /// masks (one component-sharing fixpoint sweep, cached next to the edge
    /// masks); every later row over the block counts the center's giant
    /// lanes with one AND + popcount pass and traverses only its small
    /// components, and pairs compare labels. Point queries convert a block
    /// only after repeated mask-path hits
    /// ([`crate::tuning::finalize_on_unlimited_query`]), and multi-center
    /// batches and depth-limited queries never finalize. Counts are
    /// identical either way — finalization trades memory (one label per
    /// node and world plus one giant bit) for mask traversals.
    pub fn new_adaptive(graph: &'g UncertainGraph, seed: u64, threads: usize) -> Self {
        BitParallelPool {
            sampler: WorldSampler::new(graph, seed),
            shards: Vec::new(),
            samples: 0,
            config: ThreadConfig::new(threads),
            bfs: MultiWorldBfs::new(graph.num_nodes()),
            items: Vec::new(),
            wide: !narrow_fits(graph.num_nodes()),
            stats: EngineStats::default(),
            budget: MemoryBudget::unbounded(),
            evicted: 0,
            regenerated: 0,
            run: RunState::unlimited(),
        }
    }

    /// Forces the wide (`u32`) label path even on small graphs (see
    /// [`ComponentPool::with_wide_labels`]).
    ///
    /// # Panics
    /// Panics if any block is already finalized.
    #[doc(hidden)]
    pub fn with_wide_labels(mut self, wide: bool) -> Self {
        assert!(
            self.shards.iter().flat_map(|sh| &sh.blocks).all(|b| b.labels.is_none()),
            "label width is fixed once blocks are finalized"
        );
        self.wide = wide || !narrow_fits(self.graph().num_nodes());
        self
    }

    /// Re-derives shard `s`'s byte charge from its blocks (masks plus any
    /// finalized labels) and settles the difference with the ledger.
    fn sync_shard_bytes(&mut self, s: usize) {
        let now = self.shards[s].heap_bytes();
        let sh = &mut self.shards[s];
        if now >= sh.bytes {
            self.budget.charge(now - sh.bytes);
        } else {
            self.budget.release(sh.bytes - now);
        }
        sh.bytes = now;
    }

    /// The resolve-or-regenerate accessor of every query path: stamps the
    /// shards covering sample range `[lo, hi)` as recently used and
    /// regenerates any evicted one from its per-index RNG streams —
    /// bit-identical to the originally sampled blocks (dropped labels
    /// re-finalize lazily, per the usual adaptive heuristics).
    ///
    /// Doubles as the query-entry cooperative checkpoint: returns `false`
    /// (without touching any sample data) when the attached [`RunState`]
    /// has tripped, or records the error and returns `false` when the
    /// [`FaultSite::ShardRegen`] failpoint fires. The failpoint fires
    /// *before* regeneration mutates anything, so a shard is always either
    /// fully regenerated or untouched.
    #[must_use]
    fn resolve_range(&mut self, lo: usize, hi: usize) -> bool {
        if lo >= hi {
            return true;
        }
        if self.run.checkpoint(SamplingPhase::Sweep) {
            return false;
        }
        for s in shard_span(lo, hi) {
            self.shards[s].last_used = self.budget.touch();
            if !self.shards[s].resident() {
                if let Err(e) = faults::hit(FaultSite::ShardRegen) {
                    self.run.record(e);
                    return false;
                }
                self.regenerate_shard(s);
            }
        }
        true
    }

    fn regenerate_shard(&mut self, s: usize) {
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let r = self.samples;
        let first = s * blocks_per_shard::<W>();
        let last = ((s + 1) * blocks_per_shard::<W>()).min(r.div_ceil(Self::BLOCK_LANES));
        let build = |b: usize| Self::build_block(&sampler, m, b, r);
        let blocks: Vec<MaskBlock<W>> =
            if self.config.parallel_generation((last - first) * Self::BLOCK_LANES) {
                self.config.run(|| (first..last).into_par_iter().map(build).collect())
            } else {
                (first..last).map(build).collect()
            };
        self.shards[s].blocks = blocks;
        self.regenerated += 1;
        self.budget.note_regeneration();
        self.sync_shard_bytes(s);
    }

    fn evict_shard(&mut self, s: usize) {
        // Dropping a shard drops its finalized labels with it; the
        // finalized-block gauge shrinks accordingly (lanes/query counters
        // are cumulative and stand).
        let labeled = self.shards[s].blocks.iter().filter(|b| b.labels.is_some()).count();
        self.stats.finalized_blocks = self.stats.finalized_blocks.saturating_sub(labeled);
        self.shards[s].blocks = Vec::new();
        self.evicted += 1;
        self.budget.note_eviction();
        self.sync_shard_bytes(s);
    }

    /// Evicts least-recently-used shards until the shared ledger fits its
    /// limit (or this pool has nothing left to shed) — the epilogue of
    /// `ensure` and of every aggregate query.
    fn trim_to_budget(&mut self) {
        while self.budget.over_budget() {
            match lru_victim(&self.shards, BlockShard::resident, |sh| sh.last_used) {
                Some(s) => self.evict_shard(s),
                None => break,
            }
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g UncertainGraph {
        self.sampler.graph()
    }

    /// Number of samples currently in the pool.
    pub fn num_samples(&self) -> usize {
        self.samples
    }

    /// Number of `W·64`-world blocks backing the pool (resident or
    /// evicted).
    pub fn num_blocks(&self) -> usize {
        self.samples.div_ceil(Self::BLOCK_LANES)
    }

    /// Presence mask of edge `e` in block `block` (lane `l` ⇔ the edge
    /// exists in world `block·W·64 + l`). Exposed for tests and
    /// diagnostics; the block's shard must be resident.
    pub fn edge_mask(&self, block: usize, e: usize) -> Mask<W> {
        shard_block(&self.shards, block).masks[e]
    }

    fn build_block(sampler: &WorldSampler<'g>, m: usize, block: usize, r: usize) -> MaskBlock<W> {
        let base = block * Self::BLOCK_LANES;
        let lanes = (r - base).min(Self::BLOCK_LANES);
        let mut masks = vec![Mask::<W>::ZERO; m];
        for lane in 0..lanes {
            sampler
                .sample_block_lane((base + lane) as u64, lane, &mut masks)
                .unwrap_or_else(|e| unreachable!("pool-sized mask buffer cannot mismatch: {e}"));
        }
        MaskBlock { masks, lanes: lanes as u32, labels: None, mask_queries: 0 }
    }

    /// Finalization prologue of every unlimited-depth query over the
    /// sample window `[lo, hi)`: decides per touched block whether to
    /// materialize (or extend) its component labels before the query runs,
    /// per the [`finalize_on_unlimited_query`] heuristic, and accounts the
    /// query in [`EngineStats`]. Fresh blocks are labeled in parallel when
    /// the batch is worth it; a partially labeled block (the grown trailing
    /// block) extends **append-only** — labeled lanes are never recomputed.
    fn prepare_unlimited(&mut self, lo: usize, hi: usize, shape: UnlimitedShape) {
        if lo >= hi || self.run.checkpoint(SamplingPhase::Labeling) {
            return;
        }
        let graph = self.sampler.graph();
        let n = graph.num_nodes();
        let bps = blocks_per_shard::<W>();
        let (mut label_q, mut mask_q) = (0usize, 0usize);
        let mut todo: Vec<usize> = Vec::new();
        for b in lo / Self::BLOCK_LANES..=(hi - 1) / Self::BLOCK_LANES {
            let block = &mut self.shards[b / bps].blocks[b % bps];
            let labeled = block.labels.as_ref().map_or(0, |l| l.labeled) as usize;
            if labeled >= block.lanes as usize {
                label_q += 1;
            } else if finalize_on_unlimited_query(shape == UnlimitedShape::Row, block.mask_queries)
            {
                todo.push(b);
                label_q += 1;
            } else {
                block.mask_queries += 1;
                mask_q += 1;
            }
        }
        self.stats.label_queries += label_q;
        self.stats.mask_queries += mask_q;
        if todo.is_empty() {
            return;
        }
        // Fresh full finalizations are independent per block: build the
        // label structures by value in parallel, then attach. Extensions of
        // a partially labeled block (at most one — the trailing block) run
        // serially on the pool's workspace.
        let wide = self.wide;
        let fresh: Vec<usize> = todo
            .iter()
            .copied()
            .filter(|&b| shard_block(&self.shards, b).labels.is_none())
            .collect();
        if fresh.len() > 1 && self.config.parallel_generation(fresh.len() * Self::BLOCK_LANES) {
            let shards: &[BlockShard<W>] = &self.shards;
            let built: Vec<(usize, BlockLabels<W>)> = self.config.run(|| {
                fresh
                    .par_iter()
                    .map_init(
                        || MultiWorldBfs::<W>::new(n),
                        |bfs, &b| {
                            let block = shard_block(shards, b);
                            let mut labels = BlockLabels::new(n, wide);
                            labels.extend(graph, bfs, &block.masks, block.lanes as usize);
                            (b, labels)
                        },
                    )
                    .collect()
            });
            for (b, labels) in built {
                self.stats.finalized_blocks += 1;
                self.stats.finalized_lanes += labels.labeled as usize;
                self.shards[b / bps].blocks[b % bps].labels = Some(labels);
            }
        }
        // Serial (and catch-up) path: blocks the parallel branch already
        // attached are fully labeled and fall through both updates.
        for &b in &todo {
            let block = &mut self.shards[b / bps].blocks[b % bps];
            let labels = block.labels.get_or_insert_with(|| BlockLabels::new(n, wide));
            let before = labels.labeled as usize;
            if before == 0 {
                self.stats.finalized_blocks += 1;
            }
            let target = block.lanes as usize;
            if before < target {
                labels.extend(graph, &mut self.bfs, &block.masks, target);
                self.stats.finalized_lanes += target - before;
            }
        }
        // Labels grew: re-charge the touched shards' bytes to the ledger.
        for s in shard_span(lo, hi) {
            self.sync_shard_bytes(s);
        }
    }

    /// Grows the pool to at least `r` samples (no-op if already there).
    ///
    /// A partial last block is topped up lane by lane; full new blocks are
    /// generated in parallel. Either way world `i` comes from RNG stream
    /// `i`, so the pool is independent of the growth schedule and thread
    /// count.
    pub fn ensure(&mut self, r: usize) {
        if r <= self.samples {
            return;
        }
        let cur = self.samples;
        let m = self.graph().num_edges();
        let sampler = self.sampler;
        let bps = blocks_per_shard::<W>();
        let total = r.div_ceil(Self::BLOCK_LANES);
        let trailing_evicted = self.shards.last().is_some_and(|sh| !sh.resident());
        // Top up the trailing partial block, if any — unless its shard is
        // evicted, in which case the whole shard (top-up included)
        // regenerates at the new extent on its next touch.
        let mut achieved = cur;
        if !cur.is_multiple_of(Self::BLOCK_LANES) && !trailing_evicted {
            let b = cur / Self::BLOCK_LANES;
            let base = b * Self::BLOCK_LANES;
            let target = (r - base).min(Self::BLOCK_LANES);
            let last = &mut self.shards[b / bps].blocks[b % bps];
            for lane in last.lanes as usize..target {
                sampler
                    .sample_block_lane((base + lane) as u64, lane, &mut last.masks)
                    .unwrap_or_else(|e| {
                        unreachable!("pool-sized mask buffer cannot mismatch: {e}")
                    });
            }
            last.lanes = target as u32;
            achieved = base + target;
        }
        if trailing_evicted {
            // Samples landing in the evicted trailing shard are recorded
            // without generating anything — that shard regenerates as a
            // whole, at the new extent, on its next touch.
            achieved = (self.shards.len() * bps * Self::BLOCK_LANES).min(r);
        }
        // Append new blocks shard by shard so interruption latency is
        // bounded by one shard of sampling; each chunk is fully generated
        // before the next checkpoint, so a break leaves the pool smaller
        // but consistent. Blocks landing in the evicted trailing shard are
        // left to that shard's regeneration.
        let first = if trailing_evicted {
            (self.shards.len() * bps).min(total)
        } else {
            cur.div_ceil(Self::BLOCK_LANES)
        };
        let mut from = first;
        while from < total {
            if self.run.checkpoint(SamplingPhase::Generation) {
                break;
            }
            if let Err(e) = faults::hit(FaultSite::PoolGrow) {
                self.run.record(e);
                break;
            }
            let chunk_end = ((from / bps + 1) * bps).min(total);
            let build = |b: usize| Self::build_block(&sampler, m, b, r);
            let new_blocks: Vec<MaskBlock<W>> =
                if self.config.parallel_generation((chunk_end - from) * Self::BLOCK_LANES) {
                    self.config.run(|| (from..chunk_end).into_par_iter().map(build).collect())
                } else {
                    (from..chunk_end).map(build).collect()
                };
            let s = from / bps;
            if s == self.shards.len() {
                self.shards.push(BlockShard { blocks: Vec::new(), bytes: 0, last_used: 0 });
            }
            self.shards[s].blocks.extend(new_blocks);
            achieved = (chunk_end * Self::BLOCK_LANES).min(r);
            from = chunk_end;
        }
        self.samples = achieved;
        // Account the new samples shard by shard, then shed LRU shards if
        // the shared ledger now exceeds its limit.
        if achieved > cur {
            for s in shard_span(cur, achieved) {
                self.shards[s].last_used = self.budget.touch();
                self.sync_shard_bytes(s);
            }
        }
        self.trim_to_budget();
    }

    /// The blocks overlapping sample range `[lo, hi)`, each with the lane
    /// mask selecting exactly the in-range worlds of that block, written
    /// into `out` (reused across queries to keep single-row queries
    /// allocation-free).
    fn range_blocks_into(lo: usize, hi: usize, out: &mut Vec<(u32, Mask<W>)>) {
        out.clear();
        if lo >= hi {
            return;
        }
        let first = lo / Self::BLOCK_LANES;
        let last = (hi - 1) / Self::BLOCK_LANES;
        out.extend((first..=last).map(|b| {
            let base = b * Self::BLOCK_LANES;
            let s = lo.max(base) - base;
            let e = hi.min(base + Self::BLOCK_LANES) - base;
            (b as u32, Mask::<W>::prefix(e).and_not(Mask::prefix(s)))
        }));
    }
}

impl<const W: usize> WorldEngine for BitParallelPool<'_, W> {
    /// Binds the pool to a (possibly shared) memory budget: the resident
    /// bytes move to the new ledger and the pool immediately sheds
    /// least-recently-used shards if the new ledger is over its limit.
    fn set_memory_budget(&mut self, budget: MemoryBudget) {
        let held: usize = self.shards.iter().map(|sh| sh.bytes).sum();
        self.budget.release(held);
        budget.charge(held);
        self.budget = budget;
        self.trim_to_budget();
    }

    fn set_run_state(&mut self, run: RunState) {
        self.run = run;
    }

    /// Resident bytes, the budget limit, and this pool's cumulative shard
    /// eviction/regeneration counters.
    fn memory_stats(&self) -> MemoryStats {
        MemoryStats {
            bytes_held: self.shards.iter().map(|sh| sh.bytes).sum(),
            bytes_limit: self.budget.limit(),
            shards_evicted: self.evicted,
            shards_regenerated: self.regenerated,
        }
    }

    fn graph(&self) -> &UncertainGraph {
        BitParallelPool::graph(self)
    }

    fn num_samples(&self) -> usize {
        BitParallelPool::num_samples(self)
    }

    /// Finalization counters (see [`EngineStats`]).
    fn engine_stats(&self) -> EngineStats {
        self.stats
    }

    fn ensure(&mut self, r: usize) {
        BitParallelPool::ensure(self, r)
    }

    /// Only the blocks overlapping the window are traversed, with their lane
    /// masks narrowed to the window's lanes: per block, one
    /// connectivity-fixpoint traversal popcounting the final reach masks; on a
    /// finalized block the lanes where the center is in the giant component
    /// are counted from the giant masks instead and the traversal covers only
    /// the rest.
    fn counts_from_center_range(&mut self, center: NodeId, lo: usize, hi: usize, out: &mut [u32]) {
        let n = self.graph().num_nodes();
        assert_eq!(out.len(), n, "counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return;
        }
        self.prepare_unlimited(lo, hi, UnlimitedShape::Row);
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
        let per_block = n + 2 * graph.num_edges();
        chunked_counts_with(
            config,
            &items,
            n,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |counts, bfs, items| {
                for &(b, mask) in items {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let block = shard_block(shards, b as usize);
                    let (labeled, mut masked) = block.split_lanes(mask);
                    if let Some(labels) = &block.labels {
                        // Lanes where the center is in the giant are one
                        // popcount pass; the rest join the traversal.
                        let inside = labels.giant[center.index()] & labeled;
                        labels.add_giant_counts(inside, counts);
                        masked |= labeled.and_not(inside);
                    }
                    if masked.any() {
                        bfs.run_unlimited(graph, &block.masks, center, masked, |node, m| {
                            counts[node.index()] += m.count_ones();
                        });
                    }
                }
            },
            out,
        );
        self.items = items;
        self.trim_to_budget();
    }

    /// Amortization by **component sharing**: connectivity reach sets are
    /// per-component, so if centers `c_i` and `c_j` are connected in some of a
    /// block's worlds, their rows are identical in those worlds. Per
    /// overlapping block, each center runs a mask BFS only over the window
    /// lanes where its component is still unknown; every later center found
    /// inside the traversed reach set inherits the reach masks for the shared
    /// worlds with one AND + popcount sweep instead of a re-traversal. On
    /// instances with a supercritical giant component (most candidate centers
    /// connected in most worlds), a block costs roughly one traversal plus `k`
    /// cheap sweeps — the amortization that makes the adaptive backend win the
    /// multi-row query workload, and one shared pass over the new worlds for
    /// all rows of a row-cache top-up wave.
    fn counts_from_centers_range(
        &mut self,
        centers: &[NodeId],
        lo: usize,
        hi: usize,
        out: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out.len(), k * n, "batch counts buffer has wrong length");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if k == 0 {
            return;
        }
        if k == 1 {
            return self.counts_from_center_range(centers[0], lo, hi, out);
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        // Batches never finalize (that is the single-row/pair paths' job);
        // a block-query counts as label-served when every lane it covers
        // is labeled.
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        for &(b, lanes) in &items {
            if shard_block(&self.shards, b as usize).split_lanes(lanes).1.is_zero() {
                self.stats.label_queries += 1;
            } else {
                self.stats.mask_queries += 1;
            }
        }
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
        let per_block = n + 2 * graph.num_edges();
        // The reach list of the sharing sweep lives inside the BFS
        // workspace, so warm batches allocate only the per-center lane
        // masks, once per chunk.
        chunked_counts_with(
            config,
            &items,
            k * n,
            per_block + k * n,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |counts, bfs, items: &[(u32, Mask<W>)]| {
                let mut todo = Vec::with_capacity(k);
                for &(b, lanes) in items {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    let block = shard_block(shards, b as usize);
                    let (labeled, masked) = block.split_lanes(lanes);
                    todo.clear();
                    match &block.labels {
                        // Each center's giant lanes are one popcount pass;
                        // the sweep covers its other lanes.
                        Some(labels) if labeled.any() => {
                            for (j, c) in centers.iter().enumerate() {
                                let inside = labels.giant[c.index()] & labeled;
                                labels.add_giant_counts(inside, &mut counts[j * n..(j + 1) * n]);
                                todo.push(masked | labeled.and_not(inside));
                            }
                        }
                        _ => todo.resize(k, lanes),
                    }
                    bfs.shared_component_counts(graph, &block.masks, centers, &todo, counts);
                }
            },
            out,
        );
        self.items = items;
        self.trim_to_budget();
    }

    /// One masked fixpoint traversal per overlapping block; finalized lanes
    /// are label compares.
    fn pair_count_range(&mut self, u: NodeId, v: NodeId, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        self.prepare_unlimited(lo, hi, UnlimitedShape::Pair);
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
        let n = graph.num_nodes();
        let per_block = n + 2 * graph.num_edges();
        let total = chunked_sum_with(
            config,
            &items,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |bfs, &(b, mask)| {
                if run.checkpoint(SamplingPhase::Sweep) {
                    return 0;
                }
                let block = shard_block(shards, b as usize);
                let (labeled, masked) = block.split_lanes(mask);
                let mut hits = 0usize;
                if labeled.any() {
                    let labels = block
                        .labels
                        .as_ref()
                        .unwrap_or_else(|| unreachable!("labeled lanes imply labels"));
                    hits += labels.pair_lanes(u.index(), v.index(), labeled);
                }
                if masked.any() {
                    bfs.run_unlimited(graph, &block.masks, u, masked, |_, _| {});
                    hits += bfs.reach(v).count_ones() as usize;
                }
                hits
            },
        );
        self.items = items;
        self.trim_to_budget();
        total
    }

    /// One depth-limited masked BFS per overlapping block.
    fn counts_within_depths_range(
        &mut self,
        center: NodeId,
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        assert_eq!(out_select.len(), n, "select buffer has wrong length");
        assert_eq!(out_cover.len(), n, "cover buffer has wrong length");
        assert!(d_select <= d_cover, "d_select ({d_select}) must be ≤ d_cover ({d_cover})");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if d_select == DEPTH_UNLIMITED {
            self.counts_from_center_range(center, lo, hi, out_cover);
            out_select.copy_from_slice(out_cover);
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
        let per_block = n + 2 * graph.num_edges();
        chunked_counts2_with(
            config,
            &items,
            n,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |select, cover, bfs, items| {
                for &(b, mask) in items {
                    if run.checkpoint(SamplingPhase::Sweep) {
                        return;
                    }
                    bfs.run(
                        graph,
                        &shard_block(shards, b as usize).masks,
                        center,
                        mask,
                        d_cover,
                        |node, depth, m| {
                            let c = m.count_ones();
                            cover[node.index()] += c;
                            if depth <= d_select {
                                select[node.index()] += c;
                            }
                        },
                    );
                }
            },
            out_select,
            out_cover,
        );
        self.items = items;
        self.trim_to_budget();
    }

    /// Multi-source level-synchronous mask BFS in groups of up to
    /// [`MAX_SOURCES`] centers — one traversal per overlapping block per group,
    /// with lane masks narrowed to the window's worlds.
    fn counts_within_depths_batch_range(
        &mut self,
        centers: &[NodeId],
        d_select: u32,
        d_cover: u32,
        lo: usize,
        hi: usize,
        out_select: &mut [u32],
        out_cover: &mut [u32],
    ) {
        let n = self.graph().num_nodes();
        let k = centers.len();
        assert_eq!(out_select.len(), k * n, "batch select buffer has wrong length");
        assert_eq!(out_cover.len(), k * n, "batch cover buffer has wrong length");
        assert!(d_select <= d_cover, "d_select ({d_select}) must be ≤ d_cover ({d_cover})");
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if d_select == DEPTH_UNLIMITED {
            // Both depths unlimited: the fixpoint mode is cheaper.
            self.counts_from_centers_range(centers, lo, hi, out_cover);
            out_select.copy_from_slice(out_cover);
            return;
        }
        if !self.resolve_range(lo, hi) {
            return;
        }
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
        let per_block = n + 2 * graph.num_edges();
        for (gi, group) in centers.chunks(MAX_SOURCES).enumerate() {
            let kg = group.len();
            let sel_group = &mut out_select[gi * MAX_SOURCES * n..][..kg * n];
            let cov_group = &mut out_cover[gi * MAX_SOURCES * n..][..kg * n];
            chunked_counts2_with(
                config,
                &items,
                kg * n,
                per_block * kg,
                bfs,
                || MultiWorldBfs::<W>::new(n),
                |select, cover, bfs, items| {
                    for &(b, mask) in items {
                        if run.checkpoint(SamplingPhase::Sweep) {
                            return;
                        }
                        bfs.run_multi(
                            graph,
                            &shard_block(shards, b as usize).masks,
                            group,
                            mask,
                            d_cover,
                            |node, depth, j, m| {
                                let c = m.count_ones();
                                cover[j * n + node.index()] += c;
                                if depth <= d_select {
                                    select[j * n + node.index()] += c;
                                }
                            },
                        );
                    }
                },
                sel_group,
                cov_group,
            );
        }
        self.items = items;
        self.trim_to_budget();
    }

    fn pair_count_within_range(
        &mut self,
        u: NodeId,
        v: NodeId,
        depth: u32,
        lo: usize,
        hi: usize,
    ) -> usize {
        if depth == DEPTH_UNLIMITED {
            return self.pair_count_range(u, v, lo, hi);
        }
        assert!(lo <= hi && hi <= self.samples, "invalid sample range [{lo}, {hi})");
        if !self.resolve_range(lo, hi) {
            return 0;
        }
        let mut items = std::mem::take(&mut self.items);
        Self::range_blocks_into(lo, hi, &mut items);
        let run = self.run.clone();
        let BitParallelPool { sampler, shards, config, bfs, .. } = self;
        let graph = sampler.graph();
        let shards: &[BlockShard<W>] = shards;
        let n = graph.num_nodes();
        let per_block = n + 2 * graph.num_edges();
        let total = chunked_sum_with(
            config,
            &items,
            per_block,
            bfs,
            || MultiWorldBfs::<W>::new(n),
            |bfs, &(b, mask)| {
                if run.checkpoint(SamplingPhase::Sweep) {
                    return 0;
                }
                let mut hit = Mask::<W>::ZERO;
                bfs.run(
                    graph,
                    &shard_block(shards, b as usize).masks,
                    u,
                    mask,
                    depth,
                    |node, _, m| {
                        if node == v {
                            hit |= m;
                        }
                    },
                );
                hit.count_ones() as usize
            },
        );
        self.items = items;
        self.trim_to_budget();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ugraph_graph::GraphBuilder;

    fn chain(n: u32, p: f64) -> UncertainGraph {
        let mut b = GraphBuilder::new(n as usize);
        for i in 0..n - 1 {
            b.add_edge(i, i + 1, p).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn ensure_grows_monotonically() {
        let g = chain(10, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        assert_eq!(pool.num_samples(), 0);
        pool.ensure(10);
        assert_eq!(pool.num_samples(), 10);
        pool.ensure(5); // no shrink
        assert_eq!(pool.num_samples(), 10);
        pool.ensure(25);
        assert_eq!(pool.num_samples(), 25);
    }

    #[test]
    fn growth_schedule_does_not_change_samples() {
        let g = chain(12, 0.4);
        let mut a = ComponentPool::new(&g, 3, 1);
        a.ensure(20);
        let mut b = ComponentPool::new(&g, 3, 1);
        b.ensure(7);
        b.ensure(13);
        b.ensure(20);
        for i in 0..20 {
            assert_eq!(a.labels(i), b.labels(i), "sample {i} differs");
        }
    }

    #[test]
    fn parallel_generation_matches_serial() {
        let g = chain(20, 0.5);
        let mut serial = ComponentPool::new(&g, 5, 1);
        serial.ensure(33);
        let mut parallel = ComponentPool::new(&g, 5, 4);
        parallel.ensure(33);
        for i in 0..33 {
            assert_eq!(serial.labels(i), parallel.labels(i), "sample {i} differs");
        }
    }

    #[test]
    fn membership_index_consistent_with_labels() {
        let g = chain(15, 0.5);
        let mut pool = ComponentPool::new(&g, 9, 1);
        pool.ensure(20);
        for i in 0..20 {
            let labels = pool.labels(i);
            for c in 0..pool.component_count(i) as u32 {
                let members = pool.component_members(i, c);
                assert!(!members.is_empty());
                for u in members {
                    assert_eq!(labels[u as usize], c);
                }
            }
            let total: usize = (0..pool.component_count(i) as u32)
                .map(|c| pool.component_members(i, c).len())
                .sum();
            assert_eq!(total, g.num_nodes());
        }
    }

    #[test]
    fn counts_from_center_match_pair_counts() {
        let g = chain(8, 0.6);
        let mut pool = ComponentPool::new(&g, 2, 1);
        pool.ensure(50);
        let center = NodeId(3);
        let mut counts = vec![0u32; 8];
        pool.counts_from_center(center, &mut counts);
        for u in 0..8u32 {
            assert_eq!(counts[u as usize] as usize, pool.pair_count(center, NodeId(u)));
        }
        // The center is connected to itself in every sample.
        assert_eq!(counts[3] as usize, 50);
    }

    #[test]
    fn parallel_counts_match_serial_counts() {
        // 64 nodes × 1100 rows clears the MIN_PARALLEL_WORK gate, so the
        // 4-worker pool genuinely takes the chunked parallel path.
        let g = chain(64, 0.55);
        let mut serial = ComponentPool::new(&g, 13, 1);
        let mut parallel = ComponentPool::new(&g, 13, 4);
        serial.ensure(1100);
        parallel.ensure(1100);
        let mut counts_serial = vec![0u32; 64];
        let mut counts_parallel = vec![0u32; 64];
        for center in [0u32, 21, 42, 63] {
            serial.counts_from_center(NodeId(center), &mut counts_serial);
            parallel.counts_from_center(NodeId(center), &mut counts_parallel);
            assert_eq!(counts_serial, counts_parallel, "center {center}");
        }
    }

    #[test]
    fn parallel_pair_counts_match_serial() {
        // pair_count is O(1) per row, so its parallel path needs a pool
        // larger than MIN_PARALLEL_WORK rows.
        let g = chain(8, 0.5);
        let mut serial = ComponentPool::new(&g, 17, 1);
        let mut parallel = ComponentPool::new(&g, 17, 4);
        serial.ensure(70_000);
        parallel.ensure(70_000);
        for v in 1..8u32 {
            assert_eq!(
                serial.pair_count(NodeId(0), NodeId(v)),
                parallel.pair_count(NodeId(0), NodeId(v)),
                "pair (0, {v})"
            );
        }
    }

    #[test]
    fn pair_estimate_converges_on_certain_graph() {
        let g = chain(4, 1.0);
        let mut pool = ComponentPool::new(&g, 8, 1);
        pool.ensure(10);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(3)), 1.0);
    }

    #[test]
    fn empty_pool_estimates_zero() {
        let g = chain(3, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(1)), 0.0);
    }

    #[test]
    fn world_pool_grows_and_reproduces() {
        let g = chain(10, 0.5);
        let mut a = WorldPool::new(&g, 77, 1);
        a.ensure(12);
        let mut b = WorldPool::new(&g, 77, 3);
        b.ensure(4);
        b.ensure(12);
        for i in 0..12 {
            assert_eq!(a.world(i), b.world(i), "world {i} differs");
        }
    }

    #[test]
    fn depth_counts_respect_depth() {
        // Certain chain 0-1-2-3: within depth 1 of node 0 only {0,1}.
        let g = chain(4, 1.0);
        let mut pool = WorldPool::new(&g, 1, 1);
        pool.ensure(5);
        let mut sel = vec![0u32; 4];
        let mut cov = vec![0u32; 4];
        pool.counts_within_depths(NodeId(0), 1, 2, &mut sel, &mut cov);
        assert_eq!(sel, vec![5, 5, 0, 0]);
        assert_eq!(cov, vec![5, 5, 5, 0]);
    }

    #[test]
    fn parallel_depth_counts_match_serial() {
        // 64 nodes × 1100 worlds clears the MIN_PARALLEL_WORK gate for the
        // depth-limited queries (per-item work ≈ n).
        let g = chain(64, 0.6);
        let mut serial = WorldPool::new(&g, 21, 1);
        let mut parallel = WorldPool::new(&g, 21, 4);
        serial.ensure(1100);
        parallel.ensure(1100);
        let (mut s1, mut c1) = (vec![0u32; 64], vec![0u32; 64]);
        let (mut s2, mut c2) = (vec![0u32; 64], vec![0u32; 64]);
        for center in [0u32, 21, 42, 63] {
            serial.counts_within_depths(NodeId(center), 2, 4, &mut s1, &mut c1);
            parallel.counts_within_depths(NodeId(center), 2, 4, &mut s2, &mut c2);
            assert_eq!(s1, s2, "select counts differ at center {center}");
            assert_eq!(c1, c2, "cover counts differ at center {center}");
        }
        for v in [1u32, 31, 63] {
            assert_eq!(
                serial.pair_count_within(NodeId(0), NodeId(v), 3),
                parallel.pair_count_within(NodeId(0), NodeId(v), 3),
                "pair counts differ for (0, {v})"
            );
        }
    }

    #[test]
    fn depth_pair_estimates() {
        let g = chain(3, 1.0);
        let mut pool = WorldPool::new(&g, 4, 1);
        pool.ensure(8);
        assert_eq!(pool.pair_estimate_within(NodeId(0), NodeId(2), 1), 0.0);
        assert_eq!(pool.pair_estimate_within(NodeId(0), NodeId(2), 2), 1.0);
    }

    #[test]
    fn world_and_component_pools_agree_at_full_depth() {
        let g = chain(6, 0.5);
        let mut cpool = ComponentPool::new(&g, 31, 1);
        let mut wpool = WorldPool::new(&g, 31, 1);
        cpool.ensure(200);
        wpool.ensure(200);
        for u in 0..6u32 {
            for v in (u + 1)..6 {
                let a = cpool.pair_estimate(NodeId(u), NodeId(v));
                let b = wpool.pair_estimate_within(NodeId(u), NodeId(v), 5);
                assert!((a - b).abs() < 1e-12, "({u},{v}): {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "d_select")]
    fn depth_order_enforced() {
        let g = chain(3, 1.0);
        let mut pool = WorldPool::new(&g, 1, 1);
        pool.ensure(1);
        let mut sel = vec![0u32; 3];
        let mut cov = vec![0u32; 3];
        pool.counts_within_depths(NodeId(0), 2, 1, &mut sel, &mut cov);
    }

    // ───────────── bit-parallel backend ─────────────

    #[test]
    fn bit_pool_blocks_and_lanes() {
        let g = chain(10, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 7, 1);
        pool.ensure(1);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (1, 1));
        pool.ensure(64);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (64, 1));
        pool.ensure(65);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (65, 2));
        pool.ensure(300);
        assert_eq!((pool.num_samples(), pool.num_blocks()), (300, 5));
    }

    #[test]
    fn bit_pool_worlds_match_scalar_worlds() {
        let g = chain(12, 0.45);
        let mut scalar = WorldPool::new(&g, 99, 1);
        scalar.ensure(130);
        // Grown in uneven steps to exercise partial-block top-up.
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 99, 1);
        bit.ensure(10);
        bit.ensure(64);
        bit.ensure(70);
        bit.ensure(130);
        for i in 0..130 {
            let world = scalar.world(i);
            for e in 0..g.num_edges() {
                assert_eq!(
                    bit.edge_mask(i / LANES, e).get(i % LANES),
                    world.get(e),
                    "world {i} edge {e} differs"
                );
            }
        }
    }

    #[test]
    fn bit_pool_counts_match_component_pool() {
        let g = chain(9, 0.5);
        let mut scalar = ComponentPool::new(&g, 42, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 42, 1);
        // 100 is deliberately not a multiple of 64.
        scalar.ensure(100);
        bit.ensure(100);
        let mut a = vec![0u32; 9];
        let mut b = vec![0u32; 9];
        for c in 0..9u32 {
            scalar.counts_from_center(NodeId(c), &mut a);
            bit.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "center {c}");
            for v in 0..9u32 {
                assert_eq!(
                    scalar.pair_count(NodeId(c), NodeId(v)),
                    bit.pair_count(NodeId(c), NodeId(v)),
                    "pair ({c},{v})"
                );
            }
        }
    }

    #[test]
    fn bit_pool_depth_counts_match_world_pool() {
        let g = chain(10, 0.6);
        let mut scalar = WorldPool::new(&g, 5, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 5, 1);
        scalar.ensure(97);
        bit.ensure(97);
        let (mut s1, mut c1) = (vec![0u32; 10], vec![0u32; 10]);
        let (mut s2, mut c2) = (vec![0u32; 10], vec![0u32; 10]);
        for center in 0..10u32 {
            for (ds, dc) in [(0, 0), (1, 2), (2, 2), (3, 9)] {
                scalar.counts_within_depths(NodeId(center), ds, dc, &mut s1, &mut c1);
                bit.counts_within_depths(NodeId(center), ds, dc, &mut s2, &mut c2);
                assert_eq!(s1, s2, "select center {center} depths ({ds},{dc})");
                assert_eq!(c1, c2, "cover center {center} depths ({ds},{dc})");
            }
        }
        for v in 1..10u32 {
            for d in [1u32, 3, 8] {
                assert_eq!(
                    scalar.pair_count_within(NodeId(0), NodeId(v), d),
                    bit.pair_count_within(NodeId(0), NodeId(v), d),
                    "pair (0,{v}) depth {d}"
                );
            }
        }
    }

    #[test]
    fn bit_pool_growth_schedule_invariant() {
        let g = chain(8, 0.5);
        let mut a = BitParallelPool::<1>::new_adaptive(&g, 13, 1);
        a.ensure(150);
        let mut b = BitParallelPool::<1>::new_adaptive(&g, 13, 4);
        b.ensure(3);
        b.ensure(66);
        b.ensure(150);
        let mut ca = vec![0u32; 8];
        let mut cb = vec![0u32; 8];
        for c in 0..8u32 {
            a.counts_from_center(NodeId(c), &mut ca);
            b.counts_from_center(NodeId(c), &mut cb);
            assert_eq!(ca, cb, "center {c}");
        }
    }

    #[test]
    fn bit_pool_empty_and_certain() {
        let g = chain(4, 1.0);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 8, 1);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(3)), 0.0);
        pool.ensure(10);
        assert_eq!(pool.pair_estimate(NodeId(0), NodeId(3)), 1.0);
        let mut counts = vec![0u32; 4];
        pool.counts_from_center(NodeId(0), &mut counts);
        assert_eq!(counts, vec![10, 10, 10, 10]);
    }

    #[test]
    fn engine_trait_unifies_backends() {
        fn total_reach(engine: &mut dyn WorldEngine, center: NodeId) -> u32 {
            let n = engine.graph().num_nodes();
            let mut counts = vec![0u32; n];
            engine.counts_from_center(center, &mut counts);
            counts.iter().sum()
        }
        let g = chain(6, 0.7);
        let mut scalar = ComponentPool::new(&g, 3, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        WorldEngine::ensure(&mut scalar, 70);
        WorldEngine::ensure(&mut bit, 70);
        assert_eq!(total_reach(&mut scalar, NodeId(2)), total_reach(&mut bit, NodeId(2)));
    }

    #[test]
    fn batched_counts_match_sequential_on_all_backends() {
        let g = chain(11, 0.5);
        let centers: Vec<NodeId> = [0u32, 5, 5, 10, 3].iter().map(|&c| NodeId(c)).collect(); // incl. duplicate
        let k = centers.len();
        let mut want = vec![0u32; k * 11];
        let mut scalar = ComponentPool::new(&g, 77, 1);
        scalar.ensure(90);
        for (j, &c) in centers.iter().enumerate() {
            scalar.counts_from_center(c, &mut want[j * 11..(j + 1) * 11]);
        }
        let mut got = vec![0u32; k * 11];
        scalar.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want, "component pool batch differs");
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 77, 1);
        bit.ensure(90);
        got.fill(0);
        bit.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want, "bit-parallel batch differs");
        let mut world = WorldPool::new(&g, 77, 1);
        world.ensure(90);
        got.fill(0);
        WorldEngine::counts_from_centers(&mut world, &centers, &mut got);
        assert_eq!(got, want, "world pool batch differs");
    }

    #[test]
    fn ranged_counts_add_up_to_full_counts() {
        let g = chain(9, 0.55);
        let mut scalar = ComponentPool::new(&g, 5, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 5, 1);
        scalar.ensure(150);
        bit.ensure(150);
        let mut full = vec![0u32; 9];
        let mut acc = vec![0u32; 9];
        let mut part = vec![0u32; 9];
        for center in [0u32, 4, 8] {
            scalar.counts_from_center(NodeId(center), &mut full);
            // Split points chosen to straddle the 64-world block boundary.
            for (engine, name) in [
                (&mut scalar as &mut dyn WorldEngine, "scalar"),
                (&mut bit as &mut dyn WorldEngine, "adaptive"),
            ] {
                acc.fill(0);
                for w in [(0usize, 10usize), (10, 64), (64, 65), (65, 130), (130, 150)] {
                    engine.counts_from_center_range(NodeId(center), w.0, w.1, &mut part);
                    for (a, &p) in acc.iter_mut().zip(&part) {
                        *a += p;
                    }
                }
                assert_eq!(acc, full, "{name} ranged counts at center {center}");
            }
        }
    }

    #[test]
    fn ranged_depth_counts_add_up_to_full_counts() {
        let g = chain(10, 0.6);
        let mut scalar = WorldPool::new(&g, 21, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 21, 1);
        scalar.ensure(100);
        bit.ensure(100);
        let (mut fs, mut fc) = (vec![0u32; 10], vec![0u32; 10]);
        scalar.counts_within_depths(NodeId(2), 1, 3, &mut fs, &mut fc);
        let (mut ps, mut pc) = (vec![0u32; 10], vec![0u32; 10]);
        for (engine, name) in [
            (&mut scalar as &mut dyn WorldEngine, "scalar"),
            (&mut bit as &mut dyn WorldEngine, "adaptive"),
        ] {
            let (mut acs, mut acc) = (vec![0u32; 10], vec![0u32; 10]);
            for w in [(0usize, 63usize), (63, 64), (64, 100)] {
                engine.counts_within_depths_range(NodeId(2), 1, 3, w.0, w.1, &mut ps, &mut pc);
                for i in 0..10 {
                    acs[i] += ps[i];
                    acc[i] += pc[i];
                }
            }
            assert_eq!(acs, fs, "{name} ranged select counts");
            assert_eq!(acc, fc, "{name} ranged cover counts");
        }
    }

    #[test]
    fn batched_depth_counts_match_sequential() {
        let g = chain(10, 0.6);
        let centers: Vec<NodeId> = (0..10).map(NodeId).collect();
        let k = centers.len();
        let mut scalar = WorldPool::new(&g, 9, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 9, 1);
        scalar.ensure(97);
        bit.ensure(97);
        let (mut ws, mut wc) = (vec![0u32; k * 10], vec![0u32; k * 10]);
        for (j, &c) in centers.iter().enumerate() {
            scalar.counts_within_depths(
                c,
                1,
                4,
                &mut ws[j * 10..(j + 1) * 10],
                &mut wc[j * 10..(j + 1) * 10],
            );
        }
        let (mut gs, mut gc) = (vec![0u32; k * 10], vec![0u32; k * 10]);
        scalar.counts_within_depths_batch(&centers, 1, 4, &mut gs, &mut gc);
        assert_eq!((&gs, &gc), (&ws, &wc), "world pool batch depth rows differ");
        gs.fill(0);
        gc.fill(0);
        bit.counts_within_depths_batch(&centers, 1, 4, &mut gs, &mut gc);
        assert_eq!((&gs, &gc), (&ws, &wc), "bit-parallel batch depth rows differ");
    }

    #[test]
    fn empty_center_batch_is_a_noop() {
        let g = chain(4, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        pool.ensure(8);
        pool.counts_from_centers(&[], &mut []);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 1, 1);
        bit.ensure(8);
        bit.counts_from_centers(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "invalid sample range")]
    fn ranged_counts_reject_out_of_bounds() {
        let g = chain(4, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        pool.ensure(8);
        let mut out = vec![0u32; 4];
        pool.counts_from_center_range(NodeId(0), 2, 9, &mut out);
    }

    #[test]
    #[should_panic(expected = "unlimited-depth queries only")]
    fn component_pool_rejects_finite_depths() {
        let g = chain(3, 0.5);
        let mut pool = ComponentPool::new(&g, 1, 1);
        pool.ensure(4);
        let mut sel = vec![0u32; 3];
        let mut cov = vec![0u32; 3];
        WorldEngine::counts_within_depths(&mut pool, NodeId(0), 1, 2, &mut sel, &mut cov);
    }

    #[test]
    fn ranged_batch_counts_match_sequential_ranged_on_all_backends() {
        let g = chain(11, 0.55);
        let centers: Vec<NodeId> = [0u32, 5, 5, 10, 3].iter().map(|&c| NodeId(c)).collect(); // incl. duplicate
        let k = centers.len();
        let n = 11;
        let mut scalar = ComponentPool::new(&g, 33, 1);
        let mut world = WorldPool::new(&g, 33, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 33, 1);
        scalar.ensure(150);
        world.ensure(150);
        bit.ensure(150);
        // Windows straddle block boundaries, incl. a single-world window.
        for (lo, hi) in [(0usize, 10usize), (10, 64), (64, 65), (37, 130), (130, 150), (70, 70)] {
            let mut want = vec![0u32; k * n];
            for (j, &c) in centers.iter().enumerate() {
                scalar.counts_from_center_range(c, lo, hi, &mut want[j * n..(j + 1) * n]);
            }
            let mut got = vec![0u32; k * n];
            for (engine, name) in [
                (&mut scalar as &mut dyn WorldEngine, "scalar"),
                (&mut world as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "adaptive"),
            ] {
                got.fill(0);
                engine.counts_from_centers_range(&centers, lo, hi, &mut got);
                assert_eq!(got, want, "{name} ranged batch differs on [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn ranged_batch_depth_counts_match_sequential_ranged() {
        let g = chain(10, 0.6);
        let centers: Vec<NodeId> = [1u32, 4, 4, 9, 0].iter().map(|&c| NodeId(c)).collect();
        let k = centers.len();
        let n = 10;
        let mut scalar = WorldPool::new(&g, 13, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 13, 1);
        scalar.ensure(130);
        bit.ensure(130);
        for (lo, hi) in [(0usize, 50usize), (50, 64), (63, 65), (64, 130), (90, 90)] {
            let (mut ws, mut wc) = (vec![0u32; k * n], vec![0u32; k * n]);
            for (j, &c) in centers.iter().enumerate() {
                scalar.counts_within_depths_range(
                    c,
                    1,
                    3,
                    lo,
                    hi,
                    &mut ws[j * n..(j + 1) * n],
                    &mut wc[j * n..(j + 1) * n],
                );
            }
            let (mut gs, mut gc) = (vec![0u32; k * n], vec![0u32; k * n]);
            for (engine, name) in [
                (&mut scalar as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "adaptive"),
            ] {
                gs.fill(0);
                gc.fill(0);
                engine.counts_within_depths_batch_range(&centers, 1, 3, lo, hi, &mut gs, &mut gc);
                assert_eq!(gs, ws, "{name} ranged batch select differs on [{lo}, {hi})");
                assert_eq!(gc, wc, "{name} ranged batch cover differs on [{lo}, {hi})");
            }
        }
    }

    #[test]
    fn ranged_pair_counts_add_up_to_full_counts() {
        let g = chain(10, 0.55);
        let mut scalar = ComponentPool::new(&g, 19, 1);
        let mut world = WorldPool::new(&g, 19, 1);
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 19, 1);
        scalar.ensure(150);
        world.ensure(150);
        bit.ensure(150);
        let windows = [(0usize, 10usize), (10, 64), (64, 65), (65, 130), (130, 150)];
        for (u, v) in [(0u32, 1u32), (0, 9), (3, 7)] {
            let (u, v) = (NodeId(u), NodeId(v));
            let full = scalar.pair_count(u, v);
            for (engine, name) in [
                (&mut scalar as &mut dyn WorldEngine, "scalar"),
                (&mut world as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "adaptive"),
            ] {
                let sum: usize =
                    windows.iter().map(|&(lo, hi)| engine.pair_count_range(u, v, lo, hi)).sum();
                assert_eq!(sum, full, "{name} ranged pair counts for ({u}, {v})");
            }
            // Depth-limited ranged pair counts on the depth-capable pair.
            let full_d = world.pair_count_within(u, v, 3);
            for (engine, name) in [
                (&mut world as &mut dyn WorldEngine, "world"),
                (&mut bit as &mut dyn WorldEngine, "adaptive"),
            ] {
                let sum: usize = windows
                    .iter()
                    .map(|&(lo, hi)| engine.pair_count_within_range(u, v, 3, lo, hi))
                    .sum();
                assert_eq!(sum, full_d, "{name} ranged depth pair counts for ({u}, {v})");
            }
        }
    }

    // ───────────── adaptive finalization ─────────────

    #[test]
    fn adaptive_counts_match_scalar_and_pure_mask() {
        let g = chain(11, 0.5);
        let centers: Vec<NodeId> = (0..11).map(NodeId).collect();
        let mut scalar = ComponentPool::new(&g, 6, 1);
        // Multi-center batches never finalize, so this pool stays on the
        // pure-mask path.
        let mut mask = BitParallelPool::<1>::new_adaptive(&g, 6, 1);
        let mut adaptive = BitParallelPool::<1>::new_adaptive(&g, 6, 1);
        // 150 = 2 full blocks + a 22-lane tail.
        scalar.ensure(150);
        mask.ensure(150);
        adaptive.ensure(150);
        let mut a = vec![0u32; 11];
        let mut b = vec![0u32; 11 * 11];
        let mut c = vec![0u32; 11];
        mask.counts_from_centers(&centers, &mut b);
        for center in 0..11u32 {
            scalar.counts_from_center(NodeId(center), &mut a);
            adaptive.counts_from_center(NodeId(center), &mut c);
            let j = center as usize;
            assert_eq!(a, b[j * 11..(j + 1) * 11], "mask center {center}");
            assert_eq!(a, c, "adaptive center {center}");
            for v in 0..11u32 {
                assert_eq!(
                    scalar.pair_count(NodeId(center), NodeId(v)),
                    adaptive.pair_count(NodeId(center), NodeId(v)),
                    "pair ({center},{v})"
                );
            }
        }
        let stats = adaptive.engine_stats();
        assert_eq!(stats.finalized_blocks, 3, "{stats:?}");
        assert_eq!(stats.finalized_lanes, 150, "{stats:?}");
        assert!(stats.label_queries > 0);
        let mask_stats = mask.engine_stats();
        assert_eq!(
            (mask_stats.finalized_blocks, mask_stats.label_queries),
            (0, 0),
            "{mask_stats:?}"
        );
        assert_eq!(mask_stats.mask_queries, 3, "one mask block-query per block");
    }

    #[test]
    fn depth_only_workload_never_finalizes() {
        let g = chain(9, 0.6);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 4, 1);
        pool.ensure(130);
        let (mut sel, mut cov) = (vec![0u32; 9], vec![0u32; 9]);
        for center in 0..9u32 {
            pool.counts_within_depths(NodeId(center), 2, 4, &mut sel, &mut cov);
        }
        pool.pair_count_within(NodeId(0), NodeId(5), 3);
        assert_eq!(pool.engine_stats(), EngineStats::default(), "finite depths must stay on masks");
    }

    #[test]
    fn growth_never_relabels_finalized_blocks() {
        let g = chain(8, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 12, 1);
        let mut counts = vec![0u32; 8];
        pool.ensure(64);
        pool.counts_from_center(NodeId(0), &mut counts);
        let s1 = pool.engine_stats();
        assert_eq!((s1.finalized_blocks, s1.finalized_lanes), (1, 64));
        // Growing appends worlds; the already-finalized block keeps its
        // labels (finalized_lanes counts every lane at most once, so any
        // recomputation would overshoot the pool size).
        pool.ensure(200);
        pool.counts_from_center(NodeId(3), &mut counts);
        let s2 = pool.engine_stats();
        assert_eq!((s2.finalized_blocks, s2.finalized_lanes), (4, 200), "{s2:?}");
        // A further query finalizes nothing new.
        pool.counts_from_center(NodeId(5), &mut counts);
        let s3 = pool.engine_stats();
        assert_eq!((s3.finalized_blocks, s3.finalized_lanes), (4, 200), "{s3:?}");
        assert_eq!(s3.label_queries, s2.label_queries + 4);
    }

    #[test]
    fn partial_block_topup_extends_labels_append_only() {
        let g = chain(7, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 9, 1);
        let mut counts = vec![0u32; 7];
        // Finalize a 10-lane partial block...
        pool.ensure(10);
        pool.counts_from_center(NodeId(2), &mut counts);
        let s1 = pool.engine_stats();
        assert_eq!((s1.finalized_blocks, s1.finalized_lanes), (1, 10));
        // ...top the same block up to 40 lanes: only the 30 new lanes are
        // labeled, on the same block.
        pool.ensure(40);
        pool.counts_from_center(NodeId(2), &mut counts);
        let s2 = pool.engine_stats();
        assert_eq!((s2.finalized_blocks, s2.finalized_lanes), (1, 40), "{s2:?}");
        // Counts still match a fresh scalar pool.
        let mut scalar = ComponentPool::new(&g, 9, 1);
        scalar.ensure(40);
        let mut want = vec![0u32; 7];
        scalar.counts_from_center(NodeId(2), &mut want);
        assert_eq!(counts, want);
    }

    #[test]
    fn cold_pair_queries_stay_on_masks_until_threshold() {
        use crate::tuning::FINALIZE_AFTER_MASK_QUERIES;
        let g = chain(6, 0.5);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 3, 1);
        pool.ensure(64);
        let want = {
            let mut scalar = ComponentPool::new(&g, 3, 1);
            scalar.ensure(64);
            scalar.pair_count(NodeId(0), NodeId(4))
        };
        for i in 0..FINALIZE_AFTER_MASK_QUERIES {
            assert_eq!(pool.pair_count(NodeId(0), NodeId(4)), want);
            let s = pool.engine_stats();
            assert_eq!(s.finalized_lanes, 0, "pair query {i} should stay on masks");
            assert_eq!(s.mask_queries, i as usize + 1);
        }
        // The next pair query crosses the threshold and converts the block.
        assert_eq!(pool.pair_count(NodeId(0), NodeId(4)), want);
        let s = pool.engine_stats();
        assert_eq!((s.finalized_blocks, s.finalized_lanes), (1, 64), "{s:?}");
        assert_eq!(s.label_queries, 1);
    }

    #[test]
    fn mixed_finalized_and_mask_blocks_answer_ranged_queries() {
        let g = chain(10, 0.55);
        let mut scalar = ComponentPool::new(&g, 21, 1);
        let mut pool = BitParallelPool::<1>::new_adaptive(&g, 21, 1);
        scalar.ensure(200);
        pool.ensure(200);
        // Finalize only block 1 (a row query restricted to its worlds).
        let mut row = vec![0u32; 10];
        pool.counts_from_center_range(NodeId(0), 64, 128, &mut row);
        let s = pool.engine_stats();
        assert_eq!((s.finalized_blocks, s.finalized_lanes), (1, 64));
        // Pair queries spanning finalized and mask blocks agree with
        // scalar for windows straddling both kinds.
        for (lo, hi) in [(0usize, 200usize), (10, 130), (64, 128), (100, 190), (0, 64)] {
            for (u, v) in [(0u32, 9u32), (3, 7)] {
                assert_eq!(
                    scalar.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    pool.pair_count_range(NodeId(u), NodeId(v), lo, hi),
                    "pair ({u},{v}) on [{lo},{hi})"
                );
            }
        }
        // Batched rows across the mixed pool agree too.
        let centers: Vec<NodeId> = (0..10).map(NodeId).collect();
        let mut want = vec![0u32; 10 * 10];
        let mut got = vec![0u32; 10 * 10];
        scalar.counts_from_centers(&centers, &mut want);
        pool.counts_from_centers(&centers, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn wide_and_narrow_labels_agree() {
        let g = chain(13, 0.5);
        let mut narrow = ComponentPool::new(&g, 5, 1);
        let mut wide = ComponentPool::new(&g, 5, 1).with_wide_labels(true);
        narrow.ensure(90);
        wide.ensure(90);
        let mut a = vec![0u32; 13];
        let mut b = vec![0u32; 13];
        for c in 0..13u32 {
            narrow.counts_from_center(NodeId(c), &mut a);
            wide.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "scalar width mismatch at center {c}");
        }
        let mut bn = BitParallelPool::<1>::new_adaptive(&g, 5, 1);
        let mut bw = BitParallelPool::<1>::new_adaptive(&g, 5, 1).with_wide_labels(true);
        bn.ensure(90);
        bw.ensure(90);
        for c in 0..13u32 {
            bn.counts_from_center(NodeId(c), &mut a);
            bw.counts_from_center(NodeId(c), &mut b);
            assert_eq!(a, b, "block-label width mismatch at center {c}");
        }
        assert_eq!(bn.engine_stats().finalized_lanes, 90);
        assert_eq!(bw.engine_stats().finalized_lanes, 90);
    }

    #[test]
    fn ranged_batch_windows_add_up_to_full_batch() {
        let g = chain(9, 0.5);
        let centers: Vec<NodeId> = (0..9).map(NodeId).collect();
        let n = 9;
        let mut bit = BitParallelPool::<1>::new_adaptive(&g, 8, 1);
        bit.ensure(150);
        let mut full = vec![0u32; 9 * n];
        bit.counts_from_centers(&centers, &mut full);
        let mut acc = vec![0u32; 9 * n];
        let mut part = vec![0u32; 9 * n];
        for (lo, hi) in [(0usize, 70usize), (70, 128), (128, 150)] {
            bit.counts_from_centers_range(&centers, lo, hi, &mut part);
            for (a, &p) in acc.iter_mut().zip(&part) {
                *a += p;
            }
        }
        assert_eq!(acc, full, "disjoint ranged batches must add up to the full batch");
    }

    /// Block `b`'s finalized structure (the block must be finalized).
    fn finalized<'p, const W: usize>(
        pool: &'p BitParallelPool<'_, W>,
        b: usize,
    ) -> &'p BlockLabels<W> {
        shard_block(&pool.shards, b).labels.as_ref().expect("block is finalized")
    }

    #[test]
    fn finalized_block_bytes_are_labels_plus_giant_masks() {
        fn check<const W: usize>(wide: bool) {
            let g = chain(11, 0.5);
            let (n, m) = (11, g.num_edges());
            let lanes = Mask::<W>::LANES;
            let ledger = MemoryBudget::unbounded();
            let mut pool = BitParallelPool::<W>::new_adaptive(&g, 4, 1).with_wide_labels(wide);
            pool.set_memory_budget(ledger.clone());
            // One full block and a partial trailing one.
            pool.ensure(lanes + 20);
            let mask_bytes = m * W * 8;
            assert_eq!(ledger.bytes_held(), 2 * mask_bytes, "masks only before finalization");
            let label_bytes = n * lanes * if wide { 4 } else { 2 };
            let giant_bytes = n * W * 8;
            let mut row = vec![0u32; n];
            // Finalize both blocks, then top the partial one up and extend
            // its labels: the label storage is sized for a full block up
            // front, so the extension changes no byte count.
            for r in [lanes + 20, lanes + 50] {
                pool.ensure(r);
                pool.counts_from_center(NodeId(3), &mut row);
                for b in 0..2 {
                    assert_eq!(finalized(&pool, b).heap_bytes(), label_bytes + giant_bytes);
                    assert_eq!(
                        shard_block(&pool.shards, b).heap_bytes(),
                        mask_bytes + label_bytes + giant_bytes
                    );
                }
                let want = 2 * (mask_bytes + label_bytes + giant_bytes);
                assert_eq!(pool.memory_stats().bytes_held, want, "width {W}, {r} samples");
                assert_eq!(ledger.bytes_held(), want, "ledger, width {W}, {r} samples");
            }
        }
        for wide in [false, true] {
            check::<1>(wide);
            check::<4>(wide);
            check::<8>(wide);
        }
    }

    #[test]
    fn giant_masks_mark_largest_components_and_extend_append_only() {
        // A certain triangle, a certain pair, and uncertain links between
        // them: largest components change from world to world and tie in
        // some (triangle + pair bridged vs. not, node 5 attached or not).
        let mut b = GraphBuilder::new(7);
        for (u, v, p) in [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (3, 4, 1.0)] {
            b.add_edge(u, v, p).unwrap();
        }
        for (u, v, p) in [(2, 3, 0.3), (4, 5, 0.5), (5, 6, 0.4)] {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build().unwrap();
        let n = g.num_nodes();
        let mut scalar = ComponentPool::new(&g, 13, 1);
        scalar.ensure(200);
        let mut pool = BitParallelPool::<4>::new_adaptive(&g, 13, 1);
        let mut row = vec![0u32; n];
        pool.ensure(70);
        pool.counts_from_center(NodeId(0), &mut row);
        let before = finalized(&pool, 0).giant.clone();
        pool.ensure(200);
        pool.counts_from_center(NodeId(0), &mut row);
        let labels = finalized(&pool, 0);
        assert_eq!(labels.labeled, 200);
        let old = Mask::<4>::prefix(70);
        for (u, (&now, &was)) in labels.giant.iter().zip(&before).enumerate() {
            assert_eq!(now & old, was, "node {u}: old lanes' giant bits moved");
        }
        // Every lane's giant bits select exactly one largest component.
        for l in 0..200 {
            let comp = scalar.labels(l);
            let mut sizes = vec![0usize; n];
            for &c in &comp {
                sizes[c as usize] += 1;
            }
            let members: Vec<usize> = (0..n).filter(|&u| labels.giant[u].get(l)).collect();
            assert!(!members.is_empty(), "lane {l} has no giant");
            assert!(members.iter().all(|&u| comp[u] == comp[members[0]]), "lane {l}");
            assert_eq!(members.len(), sizes.iter().copied().max().unwrap_or(0), "lane {l}");
            assert_eq!(members.len(), sizes[comp[members[0]] as usize], "lane {l}");
        }
        // A block finalized in one go marks the same giants.
        let mut fresh = BitParallelPool::<4>::new_adaptive(&g, 13, 1);
        fresh.ensure(200);
        fresh.counts_from_center(NodeId(0), &mut row);
        assert_eq!(finalized(&fresh, 0).giant, labels.giant);
    }
}
