//! Statistical conformance of the Monte-Carlo oracle against exact
//! probabilities on enumerable graphs (at most 12 edges).
//!
//! After `prepare(q)`, an estimate of a probability `p ≥ q` over the
//! oracle's window of `r` samples misses `(1 ± ε)·p` with probability at
//! most `δ = 2·exp(−r·ε²·q / 3)` — the δ for which Eq. 4 asks exactly `r`
//! samples. Each trial checks one estimate on a fresh master seed, so
//! trials are independent and the number of misses is dominated by a
//! binomial `B(N, δ)`. The test allows the largest count that binomial
//! exceeds with probability at most 1e-6, across both engines, plain
//! connectivity and finite depths. The seeds are fixed, so the outcome is
//! deterministic.

use ugraph_graph::{GraphBuilder, NodeId, UncertainGraph};
use ugraph_sampling::bounds::eq4_samples;
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::{EngineKind, ExactOracle, McOracle, Oracle, SampleSchedule, DEPTH_UNLIMITED};

const EPSILON: f64 = 0.2;
const Q: f64 = 0.3;
const FALSE_ALARM: f64 = 1e-6;
/// Trials per (graph, engine, depths) configuration.
const SEEDS: u64 = 100;

fn graph(edges: &[(u32, u32, f64)]) -> UncertainGraph {
    let n = edges.iter().map(|&(u, v, _)| u.max(v) + 1).max().unwrap_or(1);
    let mut b = GraphBuilder::new(n as usize);
    for &(u, v, p) in edges {
        b.add_edge(u, v, p).unwrap();
    }
    b.build().unwrap()
}

/// Two enumerable graphs: triangles joined by a path plus a weak chord
/// (10 edges), and a 6-cycle with one chord (7 edges).
fn graphs() -> Vec<UncertainGraph> {
    vec![
        graph(&[
            (0, 1, 0.9),
            (1, 2, 0.8),
            (0, 2, 0.7),
            (2, 3, 0.6),
            (3, 4, 0.75),
            (4, 5, 0.85),
            (5, 6, 0.9),
            (4, 6, 0.8),
            (6, 7, 0.65),
            (1, 5, 0.3),
        ]),
        graph(&[
            (0, 1, 0.95),
            (1, 2, 0.9),
            (2, 3, 0.85),
            (3, 4, 0.8),
            (4, 5, 0.75),
            (5, 0, 0.7),
            (0, 3, 0.5),
        ]),
    ]
}

/// Exact probabilities at `depth`.
fn exact(g: &UncertainGraph, depth: u32) -> ExactOracle {
    if depth == DEPTH_UNLIMITED {
        ExactOracle::new(g).unwrap()
    } else {
        ExactOracle::with_depth(g, depth).unwrap()
    }
}

/// The largest number of misses `m` a binomial `B(trials, delta)`
/// exceeds with probability at most `alpha` (pmf summed in log space, so
/// large trial counts cannot underflow it).
fn binomial_allowance(trials: usize, delta: f64, alpha: f64) -> usize {
    let step = (delta / (1.0 - delta)).ln();
    let mut log_pmf = trials as f64 * (1.0 - delta).ln();
    let mut cdf = log_pmf.exp();
    let mut m = 0;
    while 1.0 - cdf > alpha && m < trials {
        log_pmf += ((trials - m) as f64 / (m + 1) as f64).ln() + step;
        m += 1;
        cdf += log_pmf.exp();
    }
    m
}

/// One checked estimate: the row of `u` at the selection (`select`) or
/// cover radius, entry `v`, whose exact probability is `p ≥ Q`.
struct Check {
    u: u32,
    v: u32,
    select: bool,
    p: f64,
}

fn checks(g: &UncertainGraph, (d_select, d_cover): (u32, u32)) -> Vec<Check> {
    let (sel, cov) = (exact(g, d_select), exact(g, d_cover));
    let n = g.num_nodes() as u32;
    let mut out = Vec::new();
    for u in 0..n {
        for v in (0..n).filter(|&v| v != u) {
            for (select, oracle) in [(false, &cov), (true, &sel)] {
                let p = oracle.pair_probability(NodeId(u), NodeId(v));
                if p >= Q {
                    out.push(Check { u, v, select, p });
                }
            }
        }
    }
    out
}

#[test]
fn estimates_meet_the_eq4_bound() {
    let schedule = SampleSchedule::Practical { initial: 400, cap: 4096 };
    let shapes = [(DEPTH_UNLIMITED, DEPTH_UNLIMITED), (1, 3), (2, 2)];
    let mut trials = 0usize;
    let mut misses = Vec::new();
    let mut window = None;
    for (gi, g) in graphs().iter().enumerate() {
        let n = g.num_nodes();
        for (si, &depths) in shapes.iter().enumerate() {
            let checks = checks(g, depths);
            assert!(!checks.is_empty(), "graph {gi} {depths:?}: no pair reaches q");
            for kind in [EngineKind::Scalar, EngineKind::Adaptive] {
                for s in 0..SEEDS {
                    let seed = mix_seed(s, (gi * shapes.len() + si) as u64);
                    let c = &checks[s as usize % checks.len()];
                    let (d_select, d_cover) = depths;
                    let mut o = McOracle::with_depths(
                        g, seed, 1, schedule, EPSILON, d_select, d_cover, kind,
                    )
                    .unwrap();
                    let (mut sel, mut cov) = (vec![0.0; n], vec![0.0; n]);
                    // A coarse first window, then growth to `Q`: the
                    // checked row is served as a cache top-up.
                    o.prepare(1.0).unwrap();
                    o.center_probs(NodeId(c.u), &mut sel, &mut cov).unwrap();
                    o.prepare(Q).unwrap();
                    o.center_probs(NodeId(c.u), &mut sel, &mut cov).unwrap();
                    assert_eq!(o.cache_stats().topups, 1);
                    let r = o.num_samples();
                    assert_eq!(*window.get_or_insert(r), r, "one window size for every trial");
                    let est = if c.select { sel[c.v as usize] } else { cov[c.v as usize] };
                    trials += 1;
                    if (est - c.p).abs() > EPSILON * c.p {
                        misses.push(format!(
                            "graph {gi} {depths:?} {} seed {s}: ({}, {}) {} est {est} vs p {}",
                            kind.name(),
                            c.u,
                            c.v,
                            if c.select { "select" } else { "cover" },
                            c.p
                        ));
                    }
                }
            }
        }
    }
    let r = window.unwrap();
    let delta = 2.0 * (-(r as f64) * EPSILON * EPSILON * Q / 3.0).exp();
    assert!(eq4_samples(EPSILON, delta, Q).abs_diff(r) <= 1, "δ must be Eq. 4's for r = {r}");
    assert!(delta < 0.5, "the window must give an informative δ (r = {r}, δ = {delta})");
    let allowed = binomial_allowance(trials, delta, FALSE_ALARM);
    eprintln!(
        "{} of {trials} misses over r = {r}, δ = {delta:.4}, allowed {allowed}",
        misses.len()
    );
    assert!(
        misses.len() <= allowed,
        "{} of {trials} estimates missed (1 ± {EPSILON})·p over r = {r} samples; \
         B({trials}, δ = {delta:.4}) allows {allowed}:\n{}",
        misses.len(),
        misses.join("\n")
    );
}

#[test]
fn binomial_allowance_brackets_the_tail() {
    // P(B(10, 0.5) > 9) = 2^-10 ≈ 9.8e-4 > 1e-6, so all 10 are allowed;
    // at alpha = 1e-2 the allowance is 9 (tail 2^-10 ≤ 1e-2 < P(> 8)).
    assert_eq!(binomial_allowance(10, 0.5, 1e-6), 10);
    assert_eq!(binomial_allowance(10, 0.5, 1e-2), 9);
    // A vanishing δ allows no miss at all.
    assert_eq!(binomial_allowance(1000, 1e-12, 1e-6), 0);
}
