//! `serve-cold`: one-shot requests through a `ugraph serve` server on
//! loopback that evicts idle sessions, driven by one closed-loop
//! `ClientPool` caller. The server holds Krogan-like and Gavin-like
//! graphs and runs the `cold` mix. Requests visit the graphs round-robin,
//! so a graph's session has been idle long enough to be evicted before
//! its next request: every request spawns a session actor and generates
//! its pools, as a one-shot call does, and adds the wire codec, the
//! registry's spawn and eviction, and the actor hop on top.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ugraph_cluster::{ClusterConfig, Clustering, SessionHandle, UgraphSession};
use ugraph_graph::UncertainGraph;
use ugraph_sampling::{BlockWidth, EngineKind};
use ugraph_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use ugraph_server::{
    ClientPool, ClusterCall, Request, Response, RetryPolicy, RunningServer, Server, ServerConfig,
    WireDepth, WireSolve,
};

use crate::cold;
use crate::common::*;
use crate::layers::{gen_worlds_per_s, overhead_pct, Layers};
use crate::trace::{write_spans, TracedSession, Tracer};

/// Krogan-/Gavin-like instance pairs the server holds. A window is one
/// pass of the `cold` mix on every pair: 96 requests, about 9 s on two
/// cores.
const PAIRS: usize = 8;
const TINY_PAIRS: usize = 1;
/// Pairs whose answers are graded for `quality_*`, to bound its cost.
const GRADED_PAIRS: usize = 2;
/// Every run measures at least this many windows.
const MIN_WINDOWS: usize = 3;
/// Sessions idle this long are evicted. The server checks every 25 ms,
/// and a graph's next request comes at least `2 * PAIRS - 1` requests
/// (over 100 ms) later.
const IDLE_EVICT: Duration = Duration::from_millis(1);

/// The graphs with their served names (Krogan-like `i` at `2i`,
/// Gavin-like `i` at `2i + 1`) and the requests of one window: each
/// shape of the `cold` mix on every pair in turn, so consecutive requests
/// go to different graphs. Request `r` is base shape `r / pairs`.
fn inputs(args: &Args) -> (Vec<(String, Arc<UncertainGraph>)>, Vec<Shape>) {
    let pairs = if args.tiny { TINY_PAIRS } else { PAIRS };
    let graphs = (0..pairs)
        .flat_map(|i| {
            [GraphKind::Krogan, GraphKind::Gavin].map(|k| {
                (format!("{}-{i}", k.name()), Arc::new(k.instance(args.seed, i, args.tiny)))
            })
        })
        .collect();
    let shapes = cold::base_shapes(args.tiny)
        .into_iter()
        .flat_map(|s| (0..pairs).map(move |i| s.on(2 * i + s.graph)))
        .collect();
    (graphs, shapes)
}

fn call(s: &Shape, names: &[(String, Arc<UncertainGraph>)]) -> ClusterCall {
    ClusterCall {
        graph: names[s.graph].0.clone(),
        engine: EngineKind::default(),
        width: BlockWidth::default(),
        objective: s.objective,
        k: s.k as u32,
        depth: s.depth.map_or(WireDepth::Unlimited, WireDepth::Uniform),
        deadline_micros: None,
    }
}

fn pool(addr: &str) -> ClientPool {
    ClientPool::new(addr, 1, RetryPolicy::default())
}

/// One served request as the caller saw it.
struct Sample {
    shape: usize,
    sent: Instant,
    done: Instant,
    reply: Result<WireSolve, String>,
}

impl Sample {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.sent)
    }
    fn overhead_ms(&self) -> Option<f64> {
        let solve = self.reply.as_ref().ok()?.elapsed_micros as f64 / 1e3;
        Some(self.latency_ms() - solve)
    }
    fn outcome(&self) -> Result<(Answer, Clustering), String> {
        self.reply.as_ref().map_err(Clone::clone).and_then(Answer::of_wire)
    }
}

/// What set-up builds: the graphs, the requests and a running server.
struct Setup {
    graphs: Vec<Arc<UncertainGraph>>,
    shapes: Vec<Shape>,
    pairs: usize,
    calls: Vec<ClusterCall>,
    server: RunningServer,
}

fn setup(args: &Args) -> Setup {
    let (named, shapes) = inputs(args);
    let calls: Vec<ClusterCall> = shapes.iter().map(|s| call(s, &named)).collect();
    let graphs: Vec<Arc<UncertainGraph>> = named.iter().map(|(_, g)| g.clone()).collect();
    let pairs = graphs.len() / 2;
    let server = Server::bind(
        "127.0.0.1:0",
        named,
        ClusterConfig::default().with_seed(args.seed),
        ServerConfig { idle_evict: Some(IDLE_EVICT), ..ServerConfig::default() },
    )
    .and_then(Server::start)
    .expect("loopback server starts");
    Setup { graphs, shapes, pairs, calls, server }
}

/// One closed-loop caller issuing every request of the window once.
fn closed_loop(p: &mut ClientPool, calls: &[ClusterCall]) -> Vec<Sample> {
    (0..calls.len())
        .map(|shape| {
            let sent = Instant::now();
            let reply = p.cluster(&calls[shape]).map_err(|e| e.to_string());
            Sample { shape, sent, done: Instant::now(), reply }
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let (setup, setup_s) = repeated_setup(5, || setup(args));
    let (shapes, calls) = (&setup.shapes, &setup.calls);
    let addr = setup.server.addr().to_string();
    let mut book = AnswerBook::new(shapes.len());
    if args.trace {
        return traced(args, &setup, book);
    }

    let mut caller = pool(&addr);
    let mut lat = Latencies::new(shapes.len() / setup.pairs);
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < args.seconds
        || lat.windows().len() < MIN_WINDOWS
        || lat.samples() < MIN_REQUESTS
    {
        let window = closed_loop(&mut caller, calls);
        lat.push_window(window.iter().map(|s| (s.shape / setup.pairs, s.latency_ms())));
        samples.extend(window);
    }
    let peak = peak_rss_mb();
    match caller.stats(None) {
        Ok(st) => eprintln!(
            "serve-cold: {} requests in {} windows, {} sessions evicted",
            samples.len(),
            lat.windows().len(),
            st.sessions_evicted
        ),
        Err(e) => book.fail(format!("stats request failed: {e}")),
    }
    for s in &samples {
        book.record(s.shape, s.outcome());
    }

    check_local(&setup, args.seed, &mut book);
    let graphs: Vec<UncertainGraph> = setup.graphs.iter().map(|g| (**g).clone()).collect();
    let graded = |i: usize| shapes[i].graph < 2 * GRADED_PAIRS;
    let (pmin, pavg) = quality(&graphs, shapes, &book, args.seed, eval_samples(args, 2048), graded);
    let _ = setup.server.stop();
    let max_rps = lat.median_over_windows(|w| replay_max_rate(w, cold::LIMIT_MS));
    Report::new(
        &[&book],
        vec![
            metric("setup_s", setup_s, "s"),
            metric("p50_ms", lat.p50(), "ms"),
            metric("p90_ms", lat.p90(), "ms"),
            metric("rps", lat.rps(), "req/s"),
            metric("max_rps", max_rps, "req/s"),
            metric("peak_rss_mb", peak, "MiB"),
            metric("quality_pmin", pmin, "prob"),
            metric("quality_pavg", pavg, "prob"),
        ],
    )
}

/// Served answers must equal a fresh local session's, bit for bit.
fn check_local(setup: &Setup, seed: u64, book: &mut AnswerBook) {
    let t0 = Instant::now();
    let cfg = ClusterConfig::default().with_seed(seed);
    for (i, s) in setup.shapes.iter().enumerate() {
        let reply = UgraphSession::new(&setup.graphs[s.graph], cfg.clone())
            .map_err(|e| e.to_string())
            .and_then(|mut session| session.solve(s.request()).map_err(|e| e.to_string()));
        match reply {
            Ok(r) => book.check_reference(i, "a fresh local session", &Answer::of_solve(&r)),
            Err(e) => book.fail(format!("{}: local reference failed: {e}", s.label())),
        }
    }
    eprintln!("serve-cold: local reference answers in {:.1?}", t0.elapsed());
}

/// The traced run: closed-loop windows alternately untraced and traced
/// from the client side, the sent frames replayed through the public
/// codecs, a traced local replay of the requests on fresh sessions for
/// the solver layers, and the session actor hop.
fn traced(args: &Args, setup: &Setup, mut book: AnswerBook) -> Report {
    let (shapes, calls) = (&setup.shapes, &setup.calls);
    let addr = setup.server.addr().to_string();
    let share = args.seconds / 4.0;
    let mut caller = pool(&addr);
    let (mut plain, mut observed) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 2.0 * share || observed.len() < MIN_REQUESTS {
        plain.extend(closed_loop(&mut caller, calls));
        observed.extend(closed_loop(&mut caller, calls));
    }
    for s in plain.iter().chain(&observed) {
        book.record(s.shape, s.outcome());
    }
    let mut layers = Layers {
        serve_dials: caller.dials() as f64,
        serve_reconnects: caller.reconnects() as f64,
        ..Layers::default()
    };

    // Client-side spans of the observed windows: the round trip, and
    // inside it the server's own solve time (placed at the start of the
    // round trip; only its length is measured).
    let tracer = Tracer::shared();
    let mut over = Vec::new();
    {
        let mut t = tracer.borrow_mut();
        for (id, s) in observed.iter().enumerate() {
            t.set_request(id as u64);
            let rt = t.record("round_trip", s.sent, s.done, None);
            if let Ok(w) = &s.reply {
                let solve = s.sent + Duration::from_micros(w.elapsed_micros);
                t.record("server_solve", s.sent, solve.min(s.done), rt);
            }
            over.extend(s.overhead_ms());
        }
    }
    layers.serve_overhead_p50_ms = median(&over);
    layers.serve_overhead_p90_ms = percentile(&over, 90.0);
    let mean_lat = |v: &[Sample]| mean(&v.iter().map(Sample::latency_ms).collect::<Vec<_>>());
    layers.trace_overhead_pct = overhead_pct(mean_lat(&plain), mean_lat(&observed));
    wire_replay(calls, &observed, &mut layers);
    match caller.stats(None) {
        Ok(st) => {
            layers.serve_admission_rejections = st.admission_rejections as f64;
            layers.serve_sessions_evicted = st.sessions_evicted as f64;
            layers.serve_solve_errors = st.solve_errors as f64;
        }
        Err(e) => book.fail(format!("stats request failed: {e}")),
    }
    drop(caller);
    write_spans(&tracer.borrow(), "serve-cold", args.seed);

    // Solver layers: a traced local replay of the requests, each on a
    // fresh traced session (the path an evicted session takes).
    let cfg = ClusterConfig::default().with_seed(args.seed);
    let local = Tracer::shared();
    let mut traced_book = AnswerBook::new(shapes.len());
    let t0 = Instant::now();
    let mut id = 0u64;
    while t0.elapsed().as_secs_f64() < share || (id as usize) < shapes.len() {
        let i = id as usize % shapes.len();
        let s = &shapes[i];
        let r = TracedSession::new(&setup.graphs[s.graph], cfg.clone(), local.clone()).solve(s, id);
        traced_book.record(i, r.map_err(|e| e.to_string()));
        id += 1;
    }
    traced_book.check_against("the served answer", &book);
    layers.solver_from(&local.borrow());
    layers.trace_requests = observed.len() as f64;
    layers.handle_hop_us = handle_hop(setup, shapes, &cfg, share, &mut traced_book);
    layers.pool_gen_worlds_per_s = gen_worlds_per_s(&setup.graphs[0], args.seed, 2048);
    layers.datasets_generate_s = repeated_setup(3, || inputs(args)).1;
    Report::new(&[&book, &traced_book], layers.metrics())
}

/// Replays every observed request and reply through the public codecs.
fn wire_replay(calls: &[ClusterCall], observed: &[Sample], layers: &mut Layers) {
    let (mut enc, mut dec, mut req_b, mut resp_b, mut n) = (0.0, 0.0, 0usize, 0usize, 0usize);
    for s in observed {
        let Ok(w) = &s.reply else { continue };
        let request = Request::Cluster(calls[s.shape].clone());
        let response = Response::Cluster(w.clone());
        let t = Instant::now();
        let req = encode_request(&request);
        let resp = encode_response(&response);
        enc += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let req_ok = decode_request(req[4], &req[5..]).map(|r| r == request);
        let resp_ok = decode_response(resp[4], &resp[5..]).map(|r| r == response);
        dec += t.elapsed().as_secs_f64();
        assert!(
            matches!((req_ok, resp_ok), (Ok(true), Ok(true))),
            "replayed frames must decode to what was sent"
        );
        req_b += req.len();
        resp_b += resp.len();
        n += 1;
    }
    let n = n.max(1) as f64;
    layers.wire_encode_us = enc * 1e6 / n;
    layers.wire_decode_us = dec * 1e6 / n;
    layers.wire_req_bytes = req_b as f64 / n;
    layers.wire_resp_bytes = resp_b as f64 / n;
}

/// `SessionHandle::solve` minus `UgraphSession::solve` on warm sessions,
/// alternating over the mix; mean per request in microseconds.
fn handle_hop(
    setup: &Setup,
    shapes: &[Shape],
    cfg: &ClusterConfig,
    seconds: f64,
    book: &mut AnswerBook,
) -> f64 {
    let handles: Vec<SessionHandle> = setup
        .graphs
        .iter()
        .map(|g| SessionHandle::spawn(g.clone(), cfg.clone()).expect("valid default config"))
        .collect();
    let mut sessions: Vec<UgraphSession<'_>> = setup
        .graphs
        .iter()
        .map(|g| UgraphSession::new(g, cfg.clone()).expect("valid default config"))
        .collect();
    for s in shapes {
        let _ = handles[s.graph].solve(s.request());
        let _ = sessions[s.graph].solve(s.request());
    }
    let (mut diff_s, mut n) = (0.0, 0usize);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds || n < MIN_REQUESTS {
        let i = n % shapes.len();
        let s = &shapes[i];
        let t = Instant::now();
        let via_handle = handles[s.graph].solve(s.request());
        let hop = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let direct = sessions[s.graph].solve(s.request());
        diff_s += hop - t.elapsed().as_secs_f64();
        n += 1;
        book.record(
            i,
            via_handle.map(|r| (Answer::of_solve(&r), r.clustering)).map_err(|e| e.to_string()),
        );
        book.record(
            i,
            direct.map(|r| (Answer::of_solve(&r), r.clustering)).map_err(|e| e.to_string()),
        );
    }
    diff_s * 1e6 / n as f64
}
