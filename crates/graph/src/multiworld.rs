//! Bit-parallel traversal over blocks of possible worlds.
//!
//! Monte-Carlo reliability estimation runs the *same* traversal over many
//! independently sampled worlds of the *same* topology. Packing worlds
//! into machine words per edge (bit `l` of `edge_masks[e]` = "edge `e`
//! exists in world `l` of the block") turns per-world traversals into a
//! single mask-propagating traversal: every node carries a *reach mask*
//! (the worlds in which it has been reached), and traversing an edge
//! ANDs the frontier mask with the edge's presence mask.
//!
//! Masks are [`Mask<W>`] — a fixed `[u64; W]` word array, so one block
//! carries `W * 64` worlds (64/256/512 for `W` ∈ {1, 4, 8}). All mask
//! ops are fixed-size-array loops that LLVM autovectorizes on stable;
//! there is no `portable_simd` dependency. `W = 1` is the default and
//! behaves exactly like the historical plain-`u64` kernels.
//!
//! Two propagation modes are provided, matching the two query families of
//! the sampling layer:
//!
//! * [`MultiWorldBfs::run`] — level-synchronous BFS with a depth limit;
//!   `visit(node, depth, mask)` reports, per node and hop distance, the
//!   worlds in which the node is first reached at exactly that distance
//!   (the d-connection semantics of the paper, §3.4);
//! * [`MultiWorldBfs::run_unlimited`] — chaotic worklist iteration to the
//!   connectivity fixpoint, ignoring distances; `visit(node, mask)` reports
//!   each reached node once with the full set of worlds in which it is
//!   connected to the source. This is the cheaper mode when only
//!   connectivity matters, because a node is not re-visited per hop level
//!   when different worlds reach it at different distances.
//!
//! Both modes also come in **multi-source** variants
//! ([`MultiWorldBfs::run_multi`], [`MultiWorldBfs::run_unlimited_multi`])
//! that propagate up to [`MAX_SOURCES`] independent frontier masks in a
//! single traversal. The per-source semantics are exactly those of the
//! single-source runs, but every edge mask is loaded — and every adjacency
//! list walked — once for *all* sources that are active at a node instead
//! of once per source. This is the amortization that makes batched
//! multi-center reliability rows cheap: the dominant cost of a mask BFS is
//! the memory traffic of edge masks and CSR neighbor lists, and a batch of
//! `k` centers shares that traffic `k` ways.
//!
//! The workspace is reusable across calls (and across blocks): only nodes
//! touched by the previous run are cleared, so a run over a small reachable
//! set costs proportionally to that set, not to `n`.

use crate::ids::NodeId;
use crate::traversal::Adjacency;

/// Number of possible worlds packed per mask *word* (a block of width `W`
/// carries `W * LANES` worlds).
pub const LANES: usize = 64;

/// Maximum number of sources a multi-source traversal can carry at once
/// (per-node source activity is tracked in one `u64` bitmask, independent
/// of the block width).
pub const MAX_SOURCES: usize = 64;

/// Mask with the low `lanes` bits set — the valid lanes of a partially
/// filled single-word block (`lanes == 64` gives the all-ones mask).
/// The width-generic equivalent is [`Mask::prefix`].
///
/// # Panics
/// Panics if `lanes > 64`.
#[inline]
pub fn lane_mask(lanes: usize) -> u64 {
    assert!(lanes <= LANES, "a block holds at most {LANES} worlds, got {lanes}");
    if lanes == LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// A block-width lane set: `W` words of 64 lanes each, lane `l` living in
/// bit `l % 64` of word `l / 64`.
///
/// This is the block-width seam: every mask kernel is generic over `W`,
/// and all combining ops below compile to fixed-size-array loops that
/// LLVM unrolls and autovectorizes (AVX2 for `W = 4`, AVX-512 where
/// available for `W = 8`) on stable Rust.
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mask<const W: usize>(pub [u64; W]);

impl<const W: usize> Mask<W> {
    /// Total lanes (worlds) carried by one mask of this width.
    pub const LANES: usize = W * LANES;

    /// The empty lane set.
    pub const ZERO: Self = Mask([0; W]);

    /// The full lane set.
    #[inline]
    pub fn ones() -> Self {
        Mask([!0; W])
    }

    /// Mask with the low `lanes` bits set — the valid lanes of a partially
    /// filled block (`lanes == Self::LANES` gives the all-ones mask).
    ///
    /// # Panics
    /// Panics if `lanes > Self::LANES`.
    #[inline]
    pub fn prefix(lanes: usize) -> Self {
        assert!(lanes <= Self::LANES, "a block holds at most {} worlds, got {lanes}", Self::LANES);
        let mut out = [0u64; W];
        let full = lanes / LANES;
        for w in out.iter_mut().take(full) {
            *w = !0;
        }
        let rem = lanes % LANES;
        if rem != 0 {
            out[full] = (1u64 << rem) - 1;
        }
        Mask(out)
    }

    /// Mask with only `lane` set.
    ///
    /// # Panics
    /// Panics if `lane >= Self::LANES`.
    #[inline]
    pub fn bit(lane: usize) -> Self {
        assert!(lane < Self::LANES, "lane {lane} out of range for width {}", Self::LANES);
        let mut out = [0u64; W];
        out[lane / LANES] = 1u64 << (lane % LANES);
        Mask(out)
    }

    /// Whether `lane` is set.
    #[inline]
    pub fn get(self, lane: usize) -> bool {
        self.0[lane / LANES] >> (lane % LANES) & 1 == 1
    }

    /// Whether any lane is set.
    #[inline]
    pub fn any(self) -> bool {
        let mut or = 0u64;
        for w in self.0 {
            or |= w;
        }
        or != 0
    }

    /// Whether no lane is set.
    #[inline]
    pub fn is_zero(self) -> bool {
        !self.any()
    }

    /// Number of set lanes.
    #[inline]
    pub fn count_ones(self) -> u32 {
        let mut c = 0u32;
        for w in self.0 {
            c += w.count_ones();
        }
        c
    }

    /// `self & !rhs` without materializing the intermediate complement.
    #[inline]
    pub fn and_not(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o &= !r;
        }
        Mask(out)
    }

    /// Calls `f(lane)` for every set lane, in increasing lane order.
    #[inline]
    pub fn for_each_lane(self, mut f: impl FnMut(usize)) {
        for (wi, mut w) in self.0.into_iter().enumerate() {
            while w != 0 {
                let l = w.trailing_zeros() as usize;
                w &= w - 1;
                f(wi * LANES + l);
            }
        }
    }
}

impl<const W: usize> Default for Mask<W> {
    #[inline]
    fn default() -> Self {
        Self::ZERO
    }
}

impl From<u64> for Mask<1> {
    #[inline]
    fn from(word: u64) -> Self {
        Mask([word])
    }
}

impl<const W: usize> std::ops::BitAnd for Mask<W> {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o &= r;
        }
        Mask(out)
    }
}

impl<const W: usize> std::ops::BitOr for Mask<W> {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0) {
            *o |= r;
        }
        Mask(out)
    }
}

impl<const W: usize> std::ops::Not for Mask<W> {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = !*o;
        }
        Mask(out)
    }
}

impl<const W: usize> std::ops::BitAndAssign for Mask<W> {
    #[inline]
    fn bitand_assign(&mut self, rhs: Self) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o &= r;
        }
    }
}

impl<const W: usize> std::ops::BitOrAssign for Mask<W> {
    #[inline]
    fn bitor_assign(&mut self, rhs: Self) {
        for (o, r) in self.0.iter_mut().zip(rhs.0) {
            *o |= r;
        }
    }
}

/// Reusable workspace for bit-parallel multi-world traversals over blocks
/// of `W * 64` worlds.
///
/// One `MultiWorldBfs` is typically reused across all blocks of a sample
/// pool; rayon workers build their own (see the sampling crate's pools).
#[derive(Clone, Debug)]
pub struct MultiWorldBfs<const W: usize = 1> {
    /// Worlds in which each node has been reached so far.
    reach: Vec<Mask<W>>,
    /// Worlds that first reached each node at the current BFS level.
    gain: Vec<Mask<W>>,
    /// Next-level accumulation (nonzero only for nodes queued in `next`).
    pend: Vec<Mask<W>>,
    /// Current-level frontier nodes.
    cur: Vec<u32>,
    /// Next-level frontier nodes.
    next: Vec<u32>,
    /// Every node reached in the current run, for O(touched) cleanup.
    touched: Vec<u32>,
    /// Multi-source reach masks, node-major with stride `k`
    /// (`mreach[u * k + j]` = worlds in which source `j` reached `u`).
    /// Lazily grown; multi-source runs clean these up on exit.
    mreach: Vec<Mask<W>>,
    /// Multi-source gain masks (same layout as `mreach`).
    mgain: Vec<Mask<W>>,
    /// Multi-source next-level accumulation (same layout).
    mpend: Vec<Mask<W>>,
    /// Per node: bitmask of sources that have reached it.
    rmask: Vec<u64>,
    /// Per node: bitmask of sources with unpropagated gain (queued flag).
    gmask: Vec<u64>,
    /// Per node: bitmask of sources with pending next-level masks.
    pmask: Vec<u64>,
    /// Nodes reached by the current multi-source run.
    mtouched: Vec<u32>,
    /// Per-center pending lanes for the component-sharing batch sweep
    /// ([`MultiWorldBfs::shared_component_counts`]).
    sweep_todo: Vec<Mask<W>>,
    /// Reached `(node, mask)` pairs of the sweep's current traversal.
    sweep_reach: Vec<(u32, Mask<W>)>,
}

impl<const W: usize> MultiWorldBfs<W> {
    /// Creates a workspace for graphs of at most `n` nodes.
    pub fn new(n: usize) -> Self {
        MultiWorldBfs {
            reach: vec![Mask::ZERO; n],
            gain: vec![Mask::ZERO; n],
            pend: vec![Mask::ZERO; n],
            cur: Vec::new(),
            next: Vec::new(),
            touched: Vec::new(),
            mreach: Vec::new(),
            mgain: Vec::new(),
            mpend: Vec::new(),
            rmask: vec![0; n],
            gmask: vec![0; n],
            pmask: vec![0; n],
            mtouched: Vec::new(),
            sweep_todo: Vec::new(),
            sweep_reach: Vec::new(),
        }
    }

    /// Clears state left by the previous run (only touched nodes).
    fn reset(&mut self) {
        for &t in &self.touched {
            self.reach[t as usize] = Mask::ZERO;
            self.gain[t as usize] = Mask::ZERO;
        }
        self.touched.clear();
        self.cur.clear();
        self.next.clear();
    }

    /// Level-synchronous BFS from `source` over the worlds selected by
    /// `lanes`, limited to `depth_limit` hops.
    ///
    /// `edge_masks[e]` holds the presence mask of edge `e` (lane `l` set ⇔
    /// the edge exists in world `l`). `visit(node, depth, mask)` is called
    /// once per `(node, depth)` pair with the worlds in which `node` is
    /// first reached at exactly `depth` hops — including the source at
    /// depth 0 with the full `lanes` mask. Summing `mask.count_ones()` over
    /// all calls for a node therefore counts the worlds in which the node
    /// is within `depth_limit` hops of the source.
    ///
    /// # Panics
    /// Panics if the workspace is sized for fewer nodes than `g`, or if an
    /// edge id of `g` indexes past `edge_masks`.
    pub fn run(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        source: NodeId,
        lanes: Mask<W>,
        depth_limit: u32,
        mut visit: impl FnMut(NodeId, u32, Mask<W>),
    ) {
        assert!(
            g.num_nodes() <= self.reach.len(),
            "MultiWorldBfs workspace sized for {} nodes, graph has {}",
            self.reach.len(),
            g.num_nodes()
        );
        self.reset();
        if lanes.is_zero() {
            return;
        }
        self.reach[source.index()] = lanes;
        self.gain[source.index()] = lanes;
        self.touched.push(source.0);
        self.cur.push(source.0);
        visit(source, 0, lanes);

        let mut depth = 0u32;
        while !self.cur.is_empty() && depth < depth_limit {
            depth += 1;
            let reach = &mut self.reach;
            let gain = &mut self.gain;
            let pend = &mut self.pend;
            let next = &mut self.next;
            for &u in &self.cur {
                let gu = gain[u as usize];
                g.for_each_neighbor(NodeId(u), |v, e| {
                    let add = (gu & edge_masks[e.index()]).and_not(reach[v.index()]);
                    if add.any() {
                        if pend[v.index()].is_zero() {
                            next.push(v.0);
                        }
                        pend[v.index()] |= add;
                    }
                });
            }
            for &v in next.iter() {
                let mask = pend[v as usize];
                pend[v as usize] = Mask::ZERO;
                if reach[v as usize].is_zero() {
                    self.touched.push(v);
                }
                reach[v as usize] |= mask;
                gain[v as usize] = mask;
                visit(NodeId(v), depth, mask);
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            self.next.clear();
        }
    }

    /// Connectivity fixpoint from `source` over the worlds selected by
    /// `lanes`, ignoring distances.
    ///
    /// Chaotic worklist iteration: a node is re-queued whenever its reach
    /// mask grows, until no mask changes. `visit(node, mask)` is called
    /// once per reached node (source included) with the final mask of
    /// worlds in which the node is connected to the source.
    ///
    /// # Panics
    /// Same conditions as [`MultiWorldBfs::run`].
    pub fn run_unlimited(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        source: NodeId,
        lanes: Mask<W>,
        mut visit: impl FnMut(NodeId, Mask<W>),
    ) {
        assert!(
            g.num_nodes() <= self.reach.len(),
            "MultiWorldBfs workspace sized for {} nodes, graph has {}",
            self.reach.len(),
            g.num_nodes()
        );
        self.reset();
        if lanes.is_zero() {
            return;
        }
        // `gain` doubles as the "queued" flag: nonzero ⇔ node is in `cur`
        // awaiting propagation of those newly arrived worlds.
        self.reach[source.index()] = lanes;
        self.gain[source.index()] = lanes;
        self.touched.push(source.0);
        self.cur.push(source.0);
        let mut head = 0usize;
        while head < self.cur.len() {
            let u = self.cur[head];
            head += 1;
            let gu = std::mem::take(&mut self.gain[u as usize]);
            if gu.is_zero() {
                continue; // re-queued entry already drained
            }
            let reach = &mut self.reach;
            let gain = &mut self.gain;
            let cur = &mut self.cur;
            let touched = &mut self.touched;
            g.for_each_neighbor(NodeId(u), |v, e| {
                let add = (gu & edge_masks[e.index()]).and_not(reach[v.index()]);
                if add.any() {
                    if reach[v.index()].is_zero() {
                        touched.push(v.0);
                    }
                    reach[v.index()] |= add;
                    if gain[v.index()].is_zero() {
                        cur.push(v.0);
                    }
                    gain[v.index()] |= add;
                }
            });
        }
        for &v in &self.touched {
            visit(NodeId(v), self.reach[v as usize]);
        }
    }

    /// The reach mask of `node` after the last run (zero if unreached).
    #[inline]
    pub fn reach(&self, node: NodeId) -> Mask<W> {
        self.reach[node.index()]
    }

    /// Connection counts for a batch of `centers` in one component-sharing
    /// sweep, using the workspace's own scratch buffers (no per-call
    /// allocation). `counts` is center-major (`counts[j * n + u]` gains the
    /// number of worlds of `lanes[j]` in which `u` is connected to
    /// `centers[j]`; entries are **added to**, not overwritten). Each
    /// center brings its own lane set, so callers can leave out worlds
    /// they count another way.
    ///
    /// The sweep runs one connectivity fixpoint per center, but any later
    /// center that lands in an earlier center's component inherits that
    /// traversal's reach row for the shared worlds instead of re-walking
    /// it — within one block, centers in the same component are the common
    /// case, so a batch of `k` centers usually pays far fewer than `k`
    /// traversals.
    ///
    /// # Panics
    /// Panics if `counts.len() != centers.len() * g.num_nodes()`,
    /// `lanes.len() != centers.len()`, or under the conditions of
    /// [`MultiWorldBfs::run_unlimited`].
    pub fn shared_component_counts(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        centers: &[NodeId],
        lanes: &[Mask<W>],
        counts: &mut [u32],
    ) {
        let k = centers.len();
        let n = g.num_nodes();
        assert_eq!(
            counts.len(),
            k * n,
            "counts sized for {} entries, want {k} centers x {n} nodes",
            counts.len()
        );
        assert_eq!(lanes.len(), k, "one lane mask per center");
        // The scratch buffers are detached from `self` for the duration of
        // the sweep so the traversal below can still borrow the workspace.
        let mut todo = std::mem::take(&mut self.sweep_todo);
        let mut reach = std::mem::take(&mut self.sweep_reach);
        todo.clear();
        todo.extend_from_slice(lanes);
        for j in 0..k {
            let m = todo[j];
            if m.is_zero() {
                continue;
            }
            reach.clear();
            self.run_unlimited(g, edge_masks, centers[j], m, |u, mask| reach.push((u.0, mask)));
            for &(u, mask) in reach.iter() {
                counts[j * n + u as usize] += mask.count_ones();
            }
            // Any later center reached by this traversal shares the whole
            // component in those worlds: inherit the reach row and drop the
            // worlds from its own pending set.
            for j2 in j + 1..k {
                let shared = todo[j2] & self.reach(centers[j2]);
                if shared.any() {
                    todo[j2] = todo[j2].and_not(shared);
                    for &(u, mask) in reach.iter() {
                        counts[j2 * n + u as usize] += (mask & shared).count_ones();
                    }
                }
            }
        }
        self.sweep_todo = todo;
        self.sweep_reach = reach;
    }

    /// Labels the connected components of **every** world selected by
    /// `lanes` in one component-sharing sweep: one connectivity-fixpoint
    /// traversal per *component*, not per node — the traversal from a node
    /// `u` that is still unlabeled in lanes `M` discovers, for every lane
    /// `l ∈ M` simultaneously, the full member set of `u`'s component in
    /// world `l` (the reach masks say which lanes each reached node shares
    /// with `u`).
    ///
    /// `assign(node, mask, next)` is called once per `(reached node,
    /// traversal)` with the lanes `mask` the node was reached in and the
    /// per-lane label counters `next` (one per lane, `Mask::<W>::LANES`
    /// entries): the node's label in lane `l` of `mask` is `next[l]`.
    /// Labels are dense per lane (`0..counts[l]`) in first-seen node
    /// order. Returns the per-lane component counts (0 for lanes outside
    /// `lanes`).
    ///
    /// Unlabeled lanes of a node are always a superset of the unlabeled
    /// lanes of its whole component (components are labeled atomically), so
    /// restricting each traversal to the source's unlabeled lanes never
    /// splits a component.
    ///
    /// # Panics
    /// Panics if the workspace is sized for fewer nodes than `g`, or if an
    /// edge id of `g` indexes past `edge_masks`.
    pub fn label_components(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        lanes: Mask<W>,
        mut assign: impl FnMut(NodeId, Mask<W>, &[u32]),
    ) -> Vec<u32> {
        let n = g.num_nodes();
        assert!(
            n <= self.reach.len(),
            "MultiWorldBfs workspace sized for {} nodes, graph has {}",
            self.reach.len(),
            n
        );
        let mut next = vec![0u32; Mask::<W>::LANES];
        if lanes.is_zero() {
            return next;
        }
        // Lanes in which each node has not been assigned a label yet.
        let mut unlabeled = vec![lanes; n];
        for u in 0..n as u32 {
            let m = unlabeled[u as usize];
            if m.is_zero() {
                continue;
            }
            // `next` is only advanced after the traversal, so the counters
            // seen by `assign` are the labels of this component per lane.
            self.run_unlimited(g, edge_masks, NodeId(u), m, |v, mask| {
                unlabeled[v.index()] = unlabeled[v.index()].and_not(mask);
                assign(v, mask, &next);
            });
            m.for_each_lane(|l| next[l] += 1);
        }
        next
    }

    /// Prepares the stride-`k` multi-source buffers and seeds the sources.
    /// Returns `false` when `lanes` selects no worlds (nothing to do).
    fn init_multi(&mut self, n_graph: usize, sources: &[NodeId], lanes: Mask<W>) -> bool {
        let k = sources.len();
        assert!(
            (1..=MAX_SOURCES).contains(&k),
            "multi-source traversal carries 1..={MAX_SOURCES} sources, got {k}"
        );
        assert!(
            n_graph <= self.rmask.len(),
            "MultiWorldBfs workspace sized for {} nodes, graph has {}",
            self.rmask.len(),
            n_graph
        );
        let want = self.rmask.len() * k;
        if self.mreach.len() < want {
            self.mreach.resize(want, Mask::ZERO);
            self.mgain.resize(want, Mask::ZERO);
            self.mpend.resize(want, Mask::ZERO);
        }
        self.cur.clear();
        self.next.clear();
        self.mtouched.clear();
        if lanes.is_zero() {
            return false;
        }
        for (j, s) in sources.iter().enumerate() {
            let u = s.index();
            if self.rmask[u] == 0 {
                self.mtouched.push(s.0);
            }
            self.rmask[u] |= 1 << j;
            if self.gmask[u] == 0 {
                self.cur.push(s.0);
            }
            self.gmask[u] |= 1 << j;
            self.mreach[u * k + j] = lanes;
            self.mgain[u * k + j] = lanes;
        }
        true
    }

    /// Restores the multi-source buffers to their all-zero state, touching
    /// only what the run dirtied.
    fn cleanup_multi(&mut self, k: usize) {
        for &t in &self.mtouched {
            let u = t as usize;
            let mut m = self.rmask[u];
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                m &= m - 1;
                self.mreach[u * k + j] = Mask::ZERO;
                self.mgain[u * k + j] = Mask::ZERO;
            }
            self.rmask[u] = 0;
            self.gmask[u] = 0;
        }
        self.mtouched.clear();
        self.cur.clear();
        self.next.clear();
    }

    /// Multi-source connectivity fixpoint: the semantics of
    /// [`MultiWorldBfs::run_unlimited`] for every source independently, in
    /// **one** traversal. `visit(node, source_idx, mask)` is called once
    /// per `(reached node, source)` pair with the final mask of worlds in
    /// which the node is connected to `sources[source_idx]`.
    ///
    /// Edge masks are loaded (and adjacency lists walked) once for all
    /// sources active at a node, which is the whole point: a batch of `k`
    /// sources shares the traversal's memory traffic instead of paying it
    /// `k` times. Duplicate sources are allowed and reported separately.
    ///
    /// # Panics
    /// Panics if `sources` is empty or longer than [`MAX_SOURCES`], if the
    /// workspace is sized for fewer nodes than `g`, or if an edge id of `g`
    /// indexes past `edge_masks`.
    pub fn run_unlimited_multi(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        sources: &[NodeId],
        lanes: Mask<W>,
        mut visit: impl FnMut(NodeId, usize, Mask<W>),
    ) {
        let k = sources.len();
        if !self.init_multi(g.num_nodes(), sources, lanes) {
            return;
        }
        let mut head = 0usize;
        while head < self.cur.len() {
            let u = self.cur[head] as usize;
            head += 1;
            let gm = std::mem::take(&mut self.gmask[u]);
            if gm == 0 {
                continue; // re-queued entry already drained
            }
            // Union of the active gains: a cheap pre-filter that skips the
            // per-source loop for edges absent from every gained world.
            let mut gor = Mask::ZERO;
            let mut m = gm;
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                m &= m - 1;
                gor |= self.mgain[u * k + j];
            }
            let mreach = &mut self.mreach;
            let mgain = &mut self.mgain;
            let rmask = &mut self.rmask;
            let gmask = &mut self.gmask;
            let cur = &mut self.cur;
            let mtouched = &mut self.mtouched;
            g.for_each_neighbor(NodeId(u as u32), |v, e| {
                let em = edge_masks[e.index()];
                if (gor & em).is_zero() {
                    return;
                }
                let vi = v.index();
                let mut m = gm;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let add = (mgain[u * k + j] & em).and_not(mreach[vi * k + j]);
                    if add.any() {
                        if rmask[vi] == 0 {
                            mtouched.push(v.0);
                        }
                        rmask[vi] |= 1 << j;
                        mreach[vi * k + j] |= add;
                        if gmask[vi] == 0 {
                            cur.push(v.0);
                        }
                        gmask[vi] |= 1 << j;
                        mgain[vi * k + j] |= add;
                    }
                }
            });
            // Gains propagated; drop them so a later re-queue of `u` only
            // pushes genuinely new worlds.
            let mut m = gm;
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                m &= m - 1;
                self.mgain[u * k + j] = Mask::ZERO;
            }
        }
        for i in 0..self.mtouched.len() {
            let u = self.mtouched[i] as usize;
            let mut m = self.rmask[u];
            while m != 0 {
                let j = m.trailing_zeros() as usize;
                m &= m - 1;
                visit(NodeId(u as u32), j, self.mreach[u * k + j]);
            }
        }
        self.cleanup_multi(k);
    }

    /// Multi-source level-synchronous BFS: the semantics of
    /// [`MultiWorldBfs::run`] for every source independently, in one
    /// traversal. `visit(node, depth, source_idx, mask)` reports the worlds
    /// in which `node` is first reached at exactly `depth` hops from
    /// `sources[source_idx]` (each source is reported at depth 0 with the
    /// full `lanes` mask).
    ///
    /// # Panics
    /// Same conditions as [`MultiWorldBfs::run_unlimited_multi`].
    pub fn run_multi(
        &mut self,
        g: &impl Adjacency,
        edge_masks: &[Mask<W>],
        sources: &[NodeId],
        lanes: Mask<W>,
        depth_limit: u32,
        mut visit: impl FnMut(NodeId, u32, usize, Mask<W>),
    ) {
        let k = sources.len();
        if !self.init_multi(g.num_nodes(), sources, lanes) {
            return;
        }
        for (j, s) in sources.iter().enumerate() {
            visit(*s, 0, j, lanes);
        }
        let mut depth = 0u32;
        while !self.cur.is_empty() && depth < depth_limit {
            depth += 1;
            for head in 0..self.cur.len() {
                let u = self.cur[head] as usize;
                let gm = self.gmask[u];
                let mut gor = Mask::ZERO;
                let mut m = gm;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    gor |= self.mgain[u * k + j];
                }
                let mreach = &self.mreach;
                let mgain = &self.mgain;
                let mpend = &mut self.mpend;
                let pmask = &mut self.pmask;
                let next = &mut self.next;
                g.for_each_neighbor(NodeId(u as u32), |v, e| {
                    let em = edge_masks[e.index()];
                    if (gor & em).is_zero() {
                        return;
                    }
                    let vi = v.index();
                    let mut m = gm;
                    while m != 0 {
                        let j = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let add = (mgain[u * k + j] & em).and_not(mreach[vi * k + j]);
                        if add.any() {
                            if pmask[vi] == 0 {
                                next.push(v.0);
                            }
                            pmask[vi] |= 1 << j;
                            mpend[vi * k + j] |= add;
                        }
                    }
                });
            }
            // Close the level: consume this level's gains, then promote the
            // pending masks to the next frontier.
            for head in 0..self.cur.len() {
                let u = self.cur[head] as usize;
                let mut m = std::mem::take(&mut self.gmask[u]);
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    self.mgain[u * k + j] = Mask::ZERO;
                }
            }
            for head in 0..self.next.len() {
                let v = self.next[head] as usize;
                let pm = std::mem::take(&mut self.pmask[v]);
                let mut m = pm;
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let mask = std::mem::take(&mut self.mpend[v * k + j]);
                    if self.rmask[v] == 0 {
                        self.mtouched.push(v as u32);
                    }
                    self.rmask[v] |= 1 << j;
                    self.mreach[v * k + j] |= mask;
                    self.mgain[v * k + j] = mask;
                    visit(NodeId(v as u32), depth, j, mask);
                }
                self.gmask[v] = pm;
            }
            std::mem::swap(&mut self.cur, &mut self.next);
            self.next.clear();
        }
        // Leftover gains of the final frontier are cleared by the generic
        // cleanup (gmask bits are ⊆ rmask bits for reached nodes).
        self.cleanup_multi(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::uncertain::UncertainGraph;

    /// Single-word mask literal.
    fn m1(word: u64) -> Mask<1> {
        Mask([word])
    }

    /// 0-1-2-3 path plus isolated node 4.
    fn path_graph() -> UncertainGraph {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lane_mask_bounds() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(3), 0b111);
        assert_eq!(lane_mask(64), !0);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn lane_mask_rejects_overflow() {
        lane_mask(65);
    }

    #[test]
    fn mask_prefix_matches_lane_mask_per_word() {
        assert_eq!(Mask::<1>::prefix(0), m1(0));
        assert_eq!(Mask::<1>::prefix(5), m1(0b11111));
        assert_eq!(Mask::<1>::prefix(64), m1(!0));
        // Tails that straddle word boundaries.
        assert_eq!(Mask::<4>::prefix(64), Mask([!0, 0, 0, 0]));
        assert_eq!(Mask::<4>::prefix(70), Mask([!0, 0b111111, 0, 0]));
        assert_eq!(Mask::<4>::prefix(256), Mask([!0; 4]));
        assert_eq!(Mask::<8>::prefix(511), Mask([!0, !0, !0, !0, !0, !0, !0, !0 >> 1]));
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn mask_prefix_rejects_overflow() {
        Mask::<4>::prefix(257);
    }

    #[test]
    fn mask_ops_cover_all_words() {
        let a = Mask([0b1100, 0, !0, 1]);
        let b = Mask([0b1010, 5, 0, 1]);
        assert_eq!(a & b, Mask([0b1000, 0, 0, 1]));
        assert_eq!(a | b, Mask([0b1110, 5, !0, 1]));
        assert_eq!(a.and_not(b), Mask([0b0100, 0, !0, 0]));
        assert_eq!(a.and_not(b), a & !b);
        assert_eq!(a.count_ones(), 2 + 64 + 1);
        assert!(a.any());
        assert!(!Mask::<4>::ZERO.any());
        assert!(Mask::<4>::ZERO.is_zero());
        assert_eq!(Mask::<4>::ones().count_ones(), 256);
        let mut c = a;
        c |= b;
        assert_eq!(c, a | b);
        c = a;
        c &= b;
        assert_eq!(c, a & b);
    }

    #[test]
    fn mask_lane_addressing_spans_words() {
        let bit = Mask::<4>::bit(130);
        assert_eq!(bit, Mask([0, 0, 1 << 2, 0]));
        assert!(bit.get(130));
        assert!(!bit.get(129));
        let mut lanes = Vec::new();
        (Mask::<4>::bit(3) | Mask::<4>::bit(64) | Mask::<4>::bit(255)).for_each_lane(|l| {
            lanes.push(l);
        });
        assert_eq!(lanes, vec![3, 64, 255]);
        assert_eq!(Mask::<4>::LANES, 256);
        assert_eq!(Mask::<8>::LANES, 512);
        assert_eq!(Mask::from(0b101u64), m1(0b101));
    }

    #[test]
    fn all_worlds_full_edges_reach_everything() {
        let g = path_graph();
        // All three edges present in all 64 worlds.
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut seen: Vec<(u32, u32, u64)> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(!0), 10, |n, d, m| seen.push((n.0, d, m.0[0])));
        seen.sort_unstable();
        assert_eq!(seen, vec![(0, 0, !0), (1, 1, !0), (2, 2, !0), (3, 3, !0)]);
    }

    #[test]
    fn per_world_edges_split_reach_masks() {
        let g = path_graph();
        // Edge (0,1) exists only in world 0; edge (1,2) in worlds 0 and 1;
        // edge (2,3) nowhere.
        let masks = vec![m1(0b01), m1(0b11), m1(0b00)];
        let mut bfs = MultiWorldBfs::new(5);
        let mut seen: Vec<(u32, u32, u64)> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(0b11), 10, |n, d, m| seen.push((n.0, d, m.0[0])));
        seen.sort_unstable();
        // World 1 never leaves the source: edge (0,1) is missing there.
        assert_eq!(seen, vec![(0, 0, 0b11), (1, 1, 0b01), (2, 2, 0b01)]);
    }

    #[test]
    fn depth_limit_respected() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut reached: Vec<u32> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(!0), 2, |n, _, _| reached.push(n.0));
        reached.sort_unstable();
        assert_eq!(reached, vec![0, 1, 2]);
    }

    #[test]
    fn zero_depth_visits_source_only() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut count = 0;
        bfs.run(&g, &masks, NodeId(1), m1(!0), 0, |_, _, _| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn lane_mask_restricts_worlds() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let mut seen: Vec<(u32, u64)> = Vec::new();
        bfs.run(&g, &masks, NodeId(0), m1(0b101), 10, |n, _, m| seen.push((n.0, m.0[0])));
        assert!(seen.iter().all(|&(_, m)| m == 0b101));
    }

    #[test]
    fn unlimited_matches_depth_run_totals() {
        // Cycle where worlds take different routes, so distances differ but
        // connectivity agrees.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.add_edge(3, 0, 0.5).unwrap();
        let g = b.build().unwrap();
        let masks = vec![m1(0b110), m1(0b011), m1(0b101), m1(0b111)];
        let mut bfs = MultiWorldBfs::new(4);
        let mut by_depth = vec![0u64; 4];
        bfs.run(&g, &masks, NodeId(0), m1(0b111), 10, |n, _, m| by_depth[n.index()] |= m.0[0]);
        let mut by_fix = vec![0u64; 4];
        bfs.run_unlimited(&g, &masks, NodeId(0), m1(0b111), |n, m| by_fix[n.index()] = m.0[0]);
        assert_eq!(by_depth, by_fix);
    }

    #[test]
    fn unlimited_visits_each_node_once() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.add_edge(3, 0, 0.5).unwrap();
        let g = b.build().unwrap();
        let masks = vec![m1(0b01), m1(0b10), m1(0b10), m1(0b01)];
        let mut bfs = MultiWorldBfs::new(4);
        let mut visits = vec![0u32; 4];
        bfs.run_unlimited(&g, &masks, NodeId(0), m1(0b11), |n, _| visits[n.index()] += 1);
        assert!(visits.iter().all(|&v| v <= 1), "visits {visits:?}");
    }

    #[test]
    fn workspace_reuse_is_clean() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        bfs.run(&g, &masks, NodeId(0), m1(!0), 10, |_, _, _| {});
        assert_eq!(bfs.reach(NodeId(3)), m1(!0));
        // Second run from the isolated node must not see stale reach masks.
        let mut reached: Vec<u32> = Vec::new();
        bfs.run(&g, &masks, NodeId(4), m1(!0), 10, |n, _, _| reached.push(n.0));
        assert_eq!(reached, vec![4]);
        assert_eq!(bfs.reach(NodeId(3)), m1(0));
        // And a mode switch must also start clean.
        let mut reached_fix: Vec<u32> = Vec::new();
        bfs.run_unlimited(&g, &masks, NodeId(2), m1(!0), |n, _| reached_fix.push(n.0));
        reached_fix.sort_unstable();
        assert_eq!(reached_fix, vec![0, 1, 2, 3]);
    }

    #[test]
    fn multi_source_unlimited_matches_per_source_runs() {
        let mut b = GraphBuilder::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (2, 3)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let masks = vec![m1(0b1101), m1(0b0111), m1(0b1010), m1(0b1111), m1(0b0001), m1(0b0110)];
        let sources = [NodeId(0), NodeId(4), NodeId(0), NodeId(5)]; // incl. duplicate
        let mut bfs = MultiWorldBfs::new(6);
        let mut multi = vec![0u64; 6 * sources.len()];
        bfs.run_unlimited_multi(&g, &masks, &sources, m1(0b1111), |n, j, m| {
            multi[j * 6 + n.index()] = m.0[0];
        });
        for (j, &s) in sources.iter().enumerate() {
            let mut single = [0u64; 6];
            bfs.run_unlimited(&g, &masks, s, m1(0b1111), |n, m| single[n.index()] = m.0[0]);
            assert_eq!(&multi[j * 6..(j + 1) * 6], &single[..], "source {j} ({s}) differs");
        }
    }

    #[test]
    fn multi_source_depth_matches_per_source_runs() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        let mut masks = vec![m1(0); m];
        for (e, mask) in masks.iter_mut().enumerate() {
            for l in 0..8 {
                if (e * 13 + l * 29 + 3) % 3 != 0 {
                    mask.0[0] |= 1 << l;
                }
            }
        }
        let sources = [NodeId(0), NodeId(6), NodeId(3)];
        let mut bfs = MultiWorldBfs::new(7);
        for depth in [0u32, 1, 2, 5, 10] {
            // Accumulate per (source, node, depth) masks.
            let mut multi = vec![0u64; sources.len() * 7 * 11];
            bfs.run_multi(&g, &masks, &sources, Mask::prefix(8), depth, |n, d, j, mk| {
                multi[(j * 7 + n.index()) * 11 + d as usize] |= mk.0[0];
            });
            for (j, &s) in sources.iter().enumerate() {
                let mut single = vec![0u64; 7 * 11];
                bfs.run(&g, &masks, s, Mask::prefix(8), depth, |n, d, mk| {
                    single[n.index() * 11 + d as usize] |= mk.0[0];
                });
                assert_eq!(
                    &multi[j * 7 * 11..(j + 1) * 7 * 11],
                    &single[..],
                    "source {j} depth limit {depth} differs"
                );
            }
        }
    }

    #[test]
    fn multi_source_runs_leave_workspace_clean() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        // Multi run dirties stride-k state...
        bfs.run_unlimited_multi(&g, &masks, &[NodeId(0), NodeId(1)], m1(!0), |_, _, _| {});
        // ...a following multi run with a different k starts clean...
        let mut seen = [0u64; 5 * 3];
        bfs.run_unlimited_multi(
            &g,
            &masks,
            &[NodeId(4), NodeId(4), NodeId(2)],
            m1(!0),
            |n, j, m| {
                seen[j * 5 + n.index()] = m.0[0];
            },
        );
        assert_eq!(seen[5], 0, "isolated source must not reach node 0");
        assert_eq!(seen[4], !0, "source 0 is node 4");
        assert_eq!(seen[2 * 5], !0, "source 2 reaches node 0");
        // ...and so does a single-source run afterwards.
        let mut reached: Vec<u32> = Vec::new();
        bfs.run(&g, &masks, NodeId(4), m1(!0), 10, |n, _, _| reached.push(n.0));
        assert_eq!(reached, vec![4]);
    }

    #[test]
    #[should_panic(expected = "1..=64 sources")]
    fn multi_source_rejects_empty_sources() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        bfs.run_unlimited_multi(&g, &masks, &[], m1(!0), |_, _, _| {});
    }

    #[test]
    fn label_components_partitions_every_lane() {
        // Deterministic pseudo-random 8-lane block over a denser graph;
        // check per-lane labels against a per-world scalar labeling.
        use crate::bitset::Bitset;
        use crate::view::WorldView;
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        let lanes = 8;
        let mut masks = vec![m1(0); m];
        for (e, mask) in masks.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 23 + l * 41 + 5) % 3 != 0 {
                    mask.0[0] |= 1 << l;
                }
            }
        }
        let mut bfs = MultiWorldBfs::new(7);
        let mut labels = vec![u32::MAX; 7 * LANES];
        let counts = bfs.label_components(&g, &masks, Mask::prefix(lanes), |v, mk, next| {
            mk.for_each_lane(|l| {
                assert_eq!(labels[v.index() * LANES + l], u32::MAX, "node relabeled");
                labels[v.index() * LANES + l] = next[l];
            });
        });
        for l in 0..lanes {
            let mut world = Bitset::with_len(m);
            for (e, mask) in masks.iter().enumerate() {
                if mask.get(l) {
                    world.insert(e);
                }
            }
            let view = WorldView::new(&g, &world);
            let (want, want_count) = crate::connected_components(&view);
            assert_eq!(counts[l] as usize, want_count, "lane {l} component count");
            // Same partition: labels agree on every node pair.
            for u in 0..7 {
                assert!(labels[u * LANES + l] < counts[l], "lane {l} node {u} unlabeled");
                for v in 0..7 {
                    assert_eq!(
                        labels[u * LANES + l] == labels[v * LANES + l],
                        want[u] == want[v],
                        "lane {l} pair ({u}, {v}) partition disagrees"
                    );
                }
            }
        }
        // Lanes outside the mask are untouched.
        assert!(counts[lanes..].iter().all(|&c| c == 0));
    }

    #[test]
    fn label_components_zero_mask_is_noop() {
        let g = path_graph();
        let masks = vec![m1(!0); 3];
        let mut bfs = MultiWorldBfs::new(5);
        let counts = bfs.label_components(&g, &masks, m1(0), |_, _, _| panic!("no assignments"));
        assert_eq!(counts, vec![0u32; LANES]);
    }

    #[test]
    fn mask_bfs_agrees_with_per_world_bfs() {
        // A denser random-ish fixed graph; compare against per-world
        // DepthBfs through WorldViews for all depths.
        use crate::bitset::Bitset;
        use crate::traversal::DepthBfs;
        use crate::view::WorldView;
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5), (1, 6)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        // 8 worlds with deterministic pseudo-random edge membership.
        let lanes = 8;
        let mut masks = vec![m1(0); m];
        for (e, mask) in masks.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 31 + l * 17 + 7) % 3 != 0 {
                    mask.0[0] |= 1 << l;
                }
            }
        }
        let mut mw = MultiWorldBfs::new(7);
        let mut scalar = DepthBfs::new(7);
        for depth in [0u32, 1, 2, 3, 10] {
            for source in 0..7u32 {
                let mut counts = vec![0u32; 7];
                mw.run(&g, &masks, NodeId(source), Mask::prefix(lanes), depth, |n, _, mk| {
                    counts[n.index()] += mk.count_ones();
                });
                let mut want = vec![0u32; 7];
                for l in 0..lanes {
                    let mut world = Bitset::with_len(m);
                    for (e, mask) in masks.iter().enumerate() {
                        if mask.get(l) {
                            world.insert(e);
                        }
                    }
                    let view = WorldView::new(&g, &world);
                    scalar.run(&view, NodeId(source), depth, |n, _| want[n.index()] += 1);
                }
                assert_eq!(counts, want, "source {source} depth {depth}");
            }
        }
    }

    /// Deterministic pseudo-random masks for a width-4 block with `lanes`
    /// active lanes, plus the same worlds split into four width-1 blocks
    /// (word `w` of the wide mask = the narrow block `w`).
    fn wide_and_narrow_masks(m: usize, lanes: usize) -> (Vec<Mask<4>>, [Vec<Mask<1>>; 4]) {
        let mut wide = vec![Mask::<4>::ZERO; m];
        let mut narrow = [vec![m1(0); m], vec![m1(0); m], vec![m1(0); m], vec![m1(0); m]];
        for (e, mask) in wide.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 37 + l * 11 + 1) % 3 != 0 {
                    mask.0[l / LANES] |= 1 << (l % LANES);
                    narrow[l / LANES][e].0[0] |= 1 << (l % LANES);
                }
            }
        }
        (wide, narrow)
    }

    #[test]
    fn wide_runs_match_per_word_narrow_runs() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5), (1, 6)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        // 200 lanes: words 0–2 full, word 3 a partial tail.
        let lanes = 200;
        let (wide_masks, narrow_masks) = wide_and_narrow_masks(m, lanes);
        let wide_lanes = Mask::<4>::prefix(lanes);
        let mut wide = MultiWorldBfs::<4>::new(7);
        let mut narrow = MultiWorldBfs::<1>::new(7);
        for depth in [0u32, 2, 10] {
            for source in 0..7u32 {
                let mut wide_counts = vec![0u32; 7];
                wide.run(&g, &wide_masks, NodeId(source), wide_lanes, depth, |n, _, mk| {
                    wide_counts[n.index()] += mk.count_ones();
                });
                let mut narrow_counts = vec![0u32; 7];
                for (w, masks) in narrow_masks.iter().enumerate() {
                    let word_lanes = m1(wide_lanes.0[w]);
                    narrow.run(&g, masks, NodeId(source), word_lanes, depth, |n, _, mk| {
                        narrow_counts[n.index()] += mk.count_ones();
                    });
                }
                assert_eq!(wide_counts, narrow_counts, "source {source} depth {depth}");
            }
        }
        // Connectivity fixpoint agrees word-for-word, not just in counts.
        let mut wide_reach = vec![Mask::<4>::ZERO; 7];
        wide.run_unlimited(&g, &wide_masks, NodeId(0), wide_lanes, |n, mk| {
            wide_reach[n.index()] = mk;
        });
        for (w, masks) in narrow_masks.iter().enumerate() {
            let mut narrow_reach = [0u64; 7];
            narrow.run_unlimited(&g, masks, NodeId(0), m1(wide_lanes.0[w]), |n, mk| {
                narrow_reach[n.index()] = mk.0[0];
            });
            for u in 0..7 {
                assert_eq!(wide_reach[u].0[w], narrow_reach[u], "word {w} node {u}");
            }
        }
    }

    #[test]
    fn wide_label_components_match_per_word_narrow_labels() {
        let mut b = GraphBuilder::new(7);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 3), (2, 5)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        let lanes = 130; // partial tail in word 2
        let (wide_masks, narrow_masks) = wide_and_narrow_masks(m, lanes);
        let mut wide = MultiWorldBfs::<4>::new(7);
        let mut narrow = MultiWorldBfs::<1>::new(7);
        let mut wide_labels = vec![u32::MAX; 7 * Mask::<4>::LANES];
        let wide_counts =
            wide.label_components(&g, &wide_masks, Mask::prefix(lanes), |v, mk, next| {
                mk.for_each_lane(|l| wide_labels[v.index() * Mask::<4>::LANES + l] = next[l]);
            });
        for (w, masks) in narrow_masks.iter().enumerate() {
            let word_lanes = m1(Mask::<4>::prefix(lanes).0[w]);
            let mut narrow_labels = vec![u32::MAX; 7 * LANES];
            let narrow_counts = narrow.label_components(&g, masks, word_lanes, |v, mk, next| {
                mk.for_each_lane(|l| narrow_labels[v.index() * LANES + l] = next[l]);
            });
            for l in 0..LANES {
                assert_eq!(wide_counts[w * LANES + l], narrow_counts[l], "word {w} lane {l}");
                for u in 0..7 {
                    assert_eq!(
                        wide_labels[u * Mask::<4>::LANES + w * LANES + l],
                        narrow_labels[u * LANES + l],
                        "word {w} lane {l} node {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_component_counts_match_independent_runs() {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (2, 4), (0, 7)] {
            b.add_edge(u, v, 0.5).unwrap();
        }
        let g = b.build().unwrap();
        let m = g.num_edges();
        let lanes = 10;
        let mut masks = vec![m1(0); m];
        for (e, mask) in masks.iter_mut().enumerate() {
            for l in 0..lanes {
                if (e * 19 + l * 7 + 2) % 3 != 0 {
                    mask.0[0] |= 1 << l;
                }
            }
        }
        // Duplicates and same-component centers exercise the inherit path.
        let centers = [NodeId(0), NodeId(2), NodeId(0), NodeId(5), NodeId(7)];
        let mut bfs = MultiWorldBfs::new(8);
        // Uniform lane sets, then one per center (overlapping, disjoint and
        // empty), which is how callers hand over only the lanes they do not
        // count another way.
        let uniform = [Mask::prefix(lanes); 5];
        let mixed = [m1(0b11_0110_1111), m1(0b00_1111_0000), m1(0), m1(0b10_1010_1010), m1(0b1)];
        for per_center in [uniform, mixed] {
            let mut counts = vec![0u32; centers.len() * 8];
            bfs.shared_component_counts(&g, &masks, &centers, &per_center, &mut counts);
            for (j, &c) in centers.iter().enumerate() {
                let mut want = [0u32; 8];
                bfs.run_unlimited(&g, &masks, c, per_center[j], |n, mk| {
                    want[n.index()] += mk.count_ones();
                });
                assert_eq!(&counts[j * 8..(j + 1) * 8], &want[..], "center {j} ({c}) differs");
            }
            // The sweep accumulates: a second pass doubles every entry.
            let before = counts.clone();
            bfs.shared_component_counts(&g, &masks, &centers, &per_center, &mut counts);
            for (a, b) in counts.iter().zip(before.iter()) {
                assert_eq!(*a, b * 2);
            }
        }
    }
}
