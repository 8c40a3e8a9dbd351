//! Depth-unlimited connectivity is the `d' = d = ∞` case of the paper's
//! depth-limited objective (§3.4), so the Monte-Carlo oracle built with
//! `(DEPTH_UNLIMITED, DEPTH_UNLIMITED)` depths must behave exactly like the
//! plain connectivity oracle: bit-identical estimates and identical
//! row-cache, engine and memory counters over a request script that
//! exercises schedule growth, single rows, batches with duplicate centers
//! and grouped top-ups, pair queries, warm `begin_request` replays and a
//! tight `MemoryBudget`.
//!
//! A golden fingerprint per engine × {unlimited, `(1, 3)`, `(2, 2)`} pins
//! the same script's output on a fixed graph, so a refactor of the oracle
//! or of the engine seam that changes any estimate or counter fails here.

use proptest::prelude::*;
use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::{
    ComponentPool, DepthMcOracle, EngineKind, McOracle, MemoryBudget, Oracle, SampleSchedule,
    DEPTH_UNLIMITED,
};

const U: u32 = DEPTH_UNLIMITED;

/// What one oracle produced over a script: estimate bit patterns, and the
/// counters it reported after every phase.
#[derive(Debug, Default, PartialEq, Eq)]
struct Trace {
    estimates: Vec<u64>,
    counters: Vec<u64>,
}

impl Trace {
    fn record_counters(&mut self, o: &dyn Oracle) {
        let c = o.cache_stats();
        let e = o.engine_stats();
        let m = o.memory_stats();
        self.counters.extend([
            o.num_samples() as u64,
            o.pool_samples() as u64,
            u64::from(o.identical_rows()),
            c.hits as u64,
            c.topups as u64,
            c.fulls as u64,
            e.finalized_blocks as u64,
            e.finalized_lanes as u64,
            e.label_queries as u64,
            e.mask_queries as u64,
            m.bytes_held as u64,
            m.bytes_limit.map_or(u64::MAX, |l| l as u64),
            m.shards_evicted,
            m.shards_regenerated,
        ]);
    }

    fn push(&mut self, xs: &[f64]) {
        self.estimates.extend(xs.iter().map(|x| x.to_bits()));
    }

    /// FNV-1a over both streams — the golden fingerprint.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &x in self.estimates.iter().chain(&[u64::MAX]).chain(&self.counters) {
            for b in x.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Serves one request phase: single rows, a batch with a full select
/// buffer, the identical-rows batch form when the oracle advertises it,
/// and pair queries. `batch_first` puts the batch before the single rows,
/// so growth is absorbed by grouped batch top-ups instead of single-row
/// top-ups.
fn serve(o: &mut dyn Oracle, centers: &[NodeId], batch_first: bool, t: &mut Trace) {
    let n = o.num_nodes();
    let k = centers.len();
    let (mut sel, mut cov) = (vec![0.0; n], vec![0.0; n]);
    let (mut bsel, mut bcov) = (vec![0.0; k * n], vec![0.0; k * n]);
    let mut batch = |o: &mut dyn Oracle, t: &mut Trace| {
        o.center_probs_batch(centers, &mut bsel, &mut bcov).unwrap();
        t.push(&bsel);
        t.push(&bcov);
        if o.identical_rows() {
            bcov.fill(0.0);
            o.center_probs_batch(centers, &mut [], &mut bcov).unwrap();
            t.push(&bcov);
        }
    };
    if batch_first {
        batch(o, t);
    }
    for &c in centers {
        o.center_probs(c, &mut sel, &mut cov).unwrap();
        t.push(&sel);
        t.push(&cov);
    }
    if !batch_first {
        batch(o, t);
    }
    let last = NodeId(n as u32 - 1);
    for &c in centers {
        let p = o.pair_prob(centers[0], c).unwrap();
        let q = o.pair_prob(last, c).unwrap();
        t.push(&[p, q]);
    }
    t.record_counters(o);
}

/// The request script: one request growing through `qs` (alternating
/// batch-first and row-first phases), then a warm replay of its first two
/// thresholds after `begin_request`.
fn run_script(o: &mut dyn Oracle, qs: &[f64], centers: &[NodeId]) -> Trace {
    let mut t = Trace::default();
    t.record_counters(o);
    for (i, &q) in qs.iter().enumerate() {
        o.prepare(q).unwrap();
        serve(o, centers, i % 2 == 0, &mut t);
    }
    o.begin_request();
    t.record_counters(o);
    for (i, &q) in qs.iter().take(2).enumerate() {
        o.prepare(q).unwrap();
        serve(o, centers, i % 2 == 1, &mut t);
    }
    t
}

fn kind_of(adaptive: bool) -> EngineKind {
    if adaptive {
        EngineKind::Adaptive
    } else {
        EngineKind::Scalar
    }
}

fn with_budget<'g, O: Oracle + 'g>(
    o: O,
    budget: Option<usize>,
    attach: impl FnOnce(O, MemoryBudget) -> O,
) -> Box<dyn Oracle + 'g> {
    Box::new(match budget {
        Some(bytes) => attach(o, MemoryBudget::bounded(bytes)),
        None => o,
    })
}

/// The plain connectivity oracle.
fn plain<'g>(
    g: &'g UncertainGraph,
    seed: u64,
    kind: EngineKind,
    budget: Option<usize>,
) -> Box<dyn Oracle + 'g> {
    let o = McOracle::with_engine(g, seed, 1, SampleSchedule::practical(), 0.1, kind);
    with_budget(o, budget, |o, b| o.with_memory_budget(b))
}

/// The depth oracle built through the depth constructors.
fn depth<'g>(
    g: &'g UncertainGraph,
    seed: u64,
    depths: (u32, u32),
    kind: EngineKind,
    budget: Option<usize>,
) -> Box<dyn Oracle + 'g> {
    let schedule = SampleSchedule::practical();
    let o =
        DepthMcOracle::with_engine(g, seed, 1, schedule, 0.1, depths.0, depths.1, kind).unwrap();
    with_budget(o, budget, |o, b| o.with_memory_budget(b))
}

/// The depth oracle wrapped around the component-label pool — the scalar
/// engine that answers unlimited depths.
fn depth_on_components<'g>(
    g: &'g UncertainGraph,
    seed: u64,
    budget: Option<usize>,
) -> Box<dyn Oracle + 'g> {
    let engine = Box::new(ComponentPool::new(g, seed, 1));
    let o = DepthMcOracle::from_engine(engine, SampleSchedule::practical(), 0.1, U, U).unwrap();
    with_budget(o, budget, |o, b| o.with_memory_budget(b))
}

/// Strategy: a small random uncertain graph.
fn small_graph() -> impl Strategy<Value = UncertainGraph> {
    (2u32..=10).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 0.05f64..=1.0);
        proptest::collection::vec(edge, 0..16).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n as usize);
            for (u, v, p) in edges {
                if u != v {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            b.build().unwrap()
        })
    })
}

/// Budgets: unbounded, below one shard of any engine (every query evicts
/// and regenerates), and a few shards' worth.
fn budgets() -> impl Strategy<Value = Option<usize>> {
    (0u32..3).prop_map(|i| [None, Some(64), Some(16 << 10)][i as usize])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unlimited_depth_oracle_equals_connectivity_oracle(
        g in small_graph(),
        seed in any::<u64>(),
        qs in proptest::collection::vec(0.03f64..1.0, 2..5),
        picks in proptest::collection::vec(any::<u32>(), 1..5),
        adaptive in any::<bool>(),
        budget in budgets(),
    ) {
        let n = g.num_nodes() as u32;
        let mut centers: Vec<NodeId> = picks.iter().map(|&p| NodeId(p % n)).collect();
        centers.push(centers[0]);
        let kind = kind_of(adaptive);
        let want = run_script(plain(&g, seed, kind, budget).as_mut(), &qs, &centers);
        let got = run_script(depth(&g, seed, (U, U), kind, budget).as_mut(), &qs, &centers);
        // Estimates agree on every engine the depth constructors pick.
        prop_assert_eq!(&got.estimates, &want.estimates);
        if adaptive {
            prop_assert_eq!(&got.counters, &want.counters);
        } else {
            // On the scalar engine the counters are pinned against the
            // depth oracle over the unlimited engine the plain oracle
            // uses: the counters describe the engine's storage, which the
            // depth constructors may choose per depth.
            let on_components =
                run_script(depth_on_components(&g, seed, budget).as_mut(), &qs, &centers);
            prop_assert_eq!(&on_components, &want);
        }
    }
}

/// A fixed 12-node graph: two dense communities bridged by a short,
/// unreliable path, plus a pendant tail.
fn golden_graph() -> UncertainGraph {
    let mut b = GraphBuilder::new(12);
    let edges = [
        (0, 1, 0.9),
        (1, 2, 0.8),
        (0, 2, 0.7),
        (2, 3, 0.6),
        (3, 4, 0.3),
        (4, 5, 0.4),
        (5, 6, 0.85),
        (6, 7, 0.9),
        (5, 7, 0.75),
        (7, 8, 0.5),
        (8, 9, 0.65),
        (9, 10, 0.35),
        (10, 11, 0.55),
        (1, 6, 0.1),
    ];
    for (u, v, p) in edges {
        b.add_edge(u, v, p).unwrap();
    }
    b.build().unwrap()
}

#[test]
fn golden_fingerprints() {
    let g = golden_graph();
    let qs = [1.0, 0.5, 0.5, 0.2, 0.03];
    let centers: Vec<NodeId> = [0u32, 5, 5, 9, 11, 0].into_iter().map(NodeId).collect();
    let shapes: [(&str, Option<(u32, u32)>); 3] =
        [("unlimited", None), ("(1,3)", Some((1, 3))), ("(2,2)", Some((2, 2)))];
    let mut got = Vec::new();
    for adaptive in [false, true] {
        let kind = kind_of(adaptive);
        for (name, depths) in shapes {
            for budget in [None, Some(4 << 10)] {
                let mut o = match depths {
                    None => plain(&g, 0x5eed, kind, budget),
                    Some(d) => depth(&g, 0x5eed, d, kind, budget),
                };
                let fp = run_script(o.as_mut(), &qs, &centers).fingerprint();
                got.push(format!("{} {name} {budget:?}: {fp:#018x}", kind.name()));
            }
        }
    }
    let want = [
        "scalar unlimited None: 0x2d0acc2189ce5343",
        "scalar unlimited Some(4096): 0xdb51099a506b73a4",
        "scalar (1,3) None: 0xdb1f64d0be93b4e1",
        "scalar (1,3) Some(4096): 0xb5aae6e221054111",
        "scalar (2,2) None: 0x5fe0e95ab3cbff95",
        "scalar (2,2) Some(4096): 0x42b6573025a4066d",
        "adaptive unlimited None: 0xea277ac26a7cfe7f",
        "adaptive unlimited Some(4096): 0x418d3c3e28e3224e",
        "adaptive (1,3) None: 0xc184910f6c36d91f",
        "adaptive (1,3) Some(4096): 0x87544db47186eec7",
        "adaptive (2,2) None: 0x52587f8e8310dedb",
        "adaptive (2,2) Some(4096): 0xf0ce3aa3e657c7a3",
    ];
    assert_eq!(got, want, "golden fingerprints changed:\n{}", got.join("\n"));
}
