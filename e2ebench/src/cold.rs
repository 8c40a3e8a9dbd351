//! `cold`: one-shot calls, each on a fresh session — what `ugraph cluster`
//! runs after loading a graph. Nothing is shared between requests, so
//! pool generation, first-touch label finalization and full row sweeps do
//! the work; the row cache and the server layers do almost nothing.

use std::time::Instant;

use ugraph_cluster::{
    acp, acp_depth, mcp, mcp_depth, ClusterConfig, Clustering, EngineKind, Objective,
};
use ugraph_graph::UncertainGraph;

use crate::common::*;
use crate::layers::{gen_worlds_per_s, overhead_pct, Layers};
use crate::trace::{write_spans, TracedSession, Tracer};

/// Krogan-/Gavin-like instance pairs a run spreads its passes over. A
/// window is one pass on every pair: 96 requests, about 8 s on two cores.
const PAIRS: usize = 8;
/// Pairs whose answers are graded for `quality_*`, to bound its cost.
const GRADED_PAIRS: usize = 2;
const TINY_PAIRS: usize = 2;
/// Every run measures at least this many windows.
const MIN_WINDOWS: usize = 3;

/// Latency limit behind the computed `max_rps`.
pub const LIMIT_MS: f64 = 2000.0;

/// Byte budget of the traced run's budgeted replay of one pass: below the
/// working set of one Gavin-like MCP request (a 2048-world pool), so
/// shards are evicted and regenerated within requests. A fixed count, not
/// a share of measured bytes, so a change that shrinks memory shows.
pub const REPLAY_BUDGET_BYTES: usize = 12 << 20;
const TINY_REPLAY_BUDGET_BYTES: usize = 96 << 10;

/// One pass of the mix on one instance pair: graph 0 is the Krogan-like
/// instance, 1 the Gavin-like one. The shapes are the ones whose sample
/// count does not flip with the graph instance: on Krogan-like graphs MCP
/// requests land on either side of the schedule's q = 0.2 step (251 vs
/// 2048 worlds), so only k = 160 is kept; Gavin's low edge probabilities
/// put all its MCP requests at the 2048-world cap. Depth limits are asked
/// of ACP only: depth-limited MCP finds no full clustering on Krogan-like
/// graphs and on some Gavin-like instances even at k = 40.
pub fn base_shapes(tiny: bool) -> Vec<Shape> {
    if tiny {
        return vec![
            Shape::mcp(0, 6, None),
            Shape::acp(1, 6, None),
            Shape::acp(0, 6, Some(4)),
            Shape::mcp(1, 10, None),
        ];
    }
    vec![
        Shape::mcp(1, 10, None),
        Shape::acp(0, 20, None),
        Shape::mcp(1, 40, None),
        Shape::acp(0, 20, Some(4)),
        Shape::acp(1, 40, None),
        Shape::mcp(0, 160, None),
        Shape::acp(1, 40, Some(4)),
        Shape::acp(0, 80, None),
        Shape::mcp(1, 20, None),
        Shape::acp(0, 80, Some(4)),
        Shape::acp(1, 160, None),
        Shape::acp(0, 160, None),
    ]
}

/// The graphs (Krogan-like `i` at `2i`, Gavin-like `i` at `2i + 1`) and
/// every pass's shapes, pass `p` on pair `p % pairs`.
fn inputs(args: &Args) -> (Vec<UncertainGraph>, Vec<Shape>, usize) {
    let pairs = if args.tiny { TINY_PAIRS } else { PAIRS };
    let base = base_shapes(args.tiny);
    let graphs = (0..pairs)
        .flat_map(|i| {
            [GraphKind::Krogan, GraphKind::Gavin].map(|k| k.instance(args.seed, i, args.tiny))
        })
        .collect();
    let shapes = (0..pairs).flat_map(|i| base.iter().map(move |s| s.on(2 * i + s.graph))).collect();
    (graphs, shapes, base.len())
}

/// One-shot solve through the public free functions.
fn one_shot(
    g: &UncertainGraph,
    s: &Shape,
    cfg: &ClusterConfig,
) -> Result<(Answer, Clustering), String> {
    let r = match (s.objective, s.depth) {
        (Objective::MinProb, None) => mcp(g, s.k, cfg).map(|r| (Answer::of_mcp(&r), r.clustering)),
        (Objective::MinProb, Some(d)) => {
            mcp_depth(g, s.k, d, cfg).map(|r| (Answer::of_mcp(&r), r.clustering))
        }
        (Objective::AvgProb, None) => acp(g, s.k, cfg).map(|r| (Answer::of_acp(&r), r.clustering)),
        (Objective::AvgProb, Some(d)) => {
            acp_depth(g, s.k, d, cfg).map(|r| (Answer::of_acp(&r), r.clustering))
        }
    };
    r.map_err(|e| e.to_string())
}

/// The shape indices of pass `p`.
fn pass(p: usize, per_pass: usize, shapes: usize) -> std::ops::Range<usize> {
    let start = (p * per_pass) % shapes;
    start..start + per_pass
}

/// Whole windows, each one pass on every pair, until `seconds` have
/// elapsed and at least [`MIN_WINDOWS`] windows and `min_requests`
/// requests completed; returns each window's latencies (ms) and the pass
/// count.
fn measure(
    graphs: &[UncertainGraph],
    shapes: &[Shape],
    per_pass: usize,
    cfg: &ClusterConfig,
    seconds: f64,
    min_requests: usize,
    book: &mut AnswerBook,
) -> (Latencies, usize) {
    let pairs = shapes.len() / per_pass;
    let mut lat = Latencies::new(per_pass);
    let mut passes = 0;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds
        || lat.windows().len() < MIN_WINDOWS
        || lat.samples() < min_requests
    {
        let mut window = Vec::with_capacity(shapes.len());
        for _ in 0..pairs {
            for i in pass(passes, per_pass, shapes.len()) {
                let t = Instant::now();
                let r = one_shot(&graphs[shapes[i].graph], &shapes[i], cfg);
                window.push((i % per_pass, ms(t.elapsed())));
                book.record(i, r);
            }
            passes += 1;
        }
        lat.push_window(window);
    }
    (lat, passes)
}

pub fn run(args: &Args) -> Report {
    let ((graphs, shapes, per_pass), setup_s) = repeated_setup(15, || inputs(args));
    let cfg = ClusterConfig::default().with_seed(args.seed);
    if args.trace {
        return traced(args, &graphs, &shapes, per_pass, &cfg, setup_s);
    }
    let mut book = AnswerBook::new(shapes.len());
    let (lat, passes) =
        measure(&graphs, &shapes, per_pass, &cfg, args.seconds, MIN_REQUESTS, &mut book);
    let peak = peak_rss_mb();
    eprintln!(
        "cold: {} requests in {passes} passes, {} windows",
        lat.samples(),
        lat.windows().len()
    );

    // Each request shape against the scalar engine, the only non-mask
    // backend: shape `j` of the mix on the pair of pass `j % passes`.
    let scalar = cfg.clone().with_engine(EngineKind::Scalar);
    for j in 0..per_pass {
        let i = pass(j % passes, per_pass, shapes.len()).start + j;
        let s = &shapes[i];
        match one_shot(&graphs[s.graph], s, &scalar) {
            Ok((a, _)) => book.check_reference(i, "the scalar engine", &a),
            Err(e) => book.fail(format!("{}: scalar reference failed: {e}", s.label())),
        }
    }
    let graded = GRADED_PAIRS * per_pass;
    let (pmin, pavg) =
        quality(&graphs, &shapes, &book, args.seed, eval_samples(args, 2048), |i| i < graded);
    Report::new(
        &[&book],
        vec![
            metric("setup_s", setup_s, "s"),
            metric("p50_ms", lat.p50(), "ms"),
            metric("p90_ms", lat.p90(), "ms"),
            metric("rps", lat.rps(), "req/s"),
            metric("max_rps", lat.median_over_windows(|w| replay_max_rate(w, LIMIT_MS)), "req/s"),
            metric("peak_rss_mb", peak, "MiB"),
            metric("quality_pmin", pmin, "prob"),
            metric("quality_pavg", pavg, "prob"),
        ],
    )
}

/// Untraced passes for half the time, then as many traced passes, each
/// traced request on a fresh traced session (the one-shot path). The
/// budget layer comes from the first pass replayed under a memory budget
/// and once more without one.
fn traced(
    args: &Args,
    graphs: &[UncertainGraph],
    shapes: &[Shape],
    per_pass: usize,
    cfg: &ClusterConfig,
    setup_s: f64,
) -> Report {
    let mut book = AnswerBook::new(shapes.len());
    let (lat, passes) =
        measure(graphs, shapes, per_pass, cfg, args.seconds / 2.0, MIN_REQUESTS, &mut book);
    let lat: Vec<f64> = lat.windows().concat();
    let replay = |cfg: &ClusterConfig, passes: usize, book: &mut AnswerBook| {
        let tracer = Tracer::shared();
        let mut lat = Vec::new();
        let mut id = 0u64;
        for p in 0..passes {
            for i in pass(p, per_pass, shapes.len()) {
                let s = &shapes[i];
                let t = Instant::now();
                let r = TracedSession::new(&graphs[s.graph], cfg.clone(), tracer.clone())
                    .solve(s, id)
                    .map_err(|e| e.to_string());
                lat.push(ms(t.elapsed()));
                book.record(i, r);
                id += 1;
            }
        }
        (tracer, lat)
    };
    let mut traced_book = AnswerBook::new(shapes.len());
    let (tracer, traced_lat) = replay(cfg, passes, &mut traced_book);
    let budget = if args.tiny { TINY_REPLAY_BUDGET_BYTES } else { REPLAY_BUDGET_BYTES };
    let (budgeted, _) = replay(&cfg.clone().with_memory_budget(budget), 1, &mut traced_book);
    let (unbounded, _) = replay(cfg, 1, &mut traced_book);
    traced_book.check_against("the untraced answer", &book);

    let mut layers = Layers::default();
    layers.solver_from(&tracer.borrow());
    layers.budget_from(&budgeted.borrow(), &unbounded.borrow());
    layers.datasets_generate_s = setup_s;
    layers.pool_gen_worlds_per_s = gen_worlds_per_s(&graphs[0], args.seed, 2048);
    layers.trace_overhead_pct = overhead_pct(mean(&lat), mean(&traced_lat));
    write_spans(&tracer.borrow(), "cold", args.seed);
    Report::new(&[&book, &traced_book], layers.metrics())
}
