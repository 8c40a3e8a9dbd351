//! Pieces shared by the workloads: inputs, request shapes, answer
//! checks, latency statistics, quality evaluation and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use ugraph_cluster::{AcpResult, ClusterRequest, Clustering, McpResult, Objective, SolveResult};
use ugraph_datasets::{ppi_like, DatasetSpec, PpiConfig, ProbDistribution};
use ugraph_graph::{largest_connected_component, NodeId, UncertainGraph};
use ugraph_metrics::clustering_quality;
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::ComponentPool;
use ugraph_server::WireSolve;

/// Every workload completes at least this many measured requests, so at
/// least ten latency samples lie beyond the reported 90th percentile.
pub const MIN_REQUESTS: usize = 100;

/// Seed tag of the evaluation pool; distinct from every solver stream.
const TAG_BENCH_EVAL: u64 = 0x4245_5641; // "BEVA"

/// Command-line arguments of one run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for the self-test.
    pub tiny: bool,
}

/// The synthetic stand-ins for the paper's PPI datasets.
#[derive(Clone, Copy, Debug)]
pub enum GraphKind {
    Krogan,
    Gavin,
}

impl GraphKind {
    pub fn name(self) -> &'static str {
        match self {
            GraphKind::Krogan => "krogan",
            GraphKind::Gavin => "gavin",
        }
    }

    /// Generates the graph from `seed`: the full Table 1-sized dataset, or
    /// a ~150-node graph with the same edge-probability character for the
    /// self-test.
    pub fn generate(self, seed: u64, tiny: bool) -> UncertainGraph {
        if !tiny {
            let spec = match self {
                GraphKind::Krogan => DatasetSpec::Krogan,
                GraphKind::Gavin => DatasetSpec::Gavin,
            };
            return spec.generate(seed).graph;
        }
        let prob_dist = match self {
            GraphKind::Krogan => ProbDistribution::KroganMixture,
            GraphKind::Gavin => ProbDistribution::LowConfidence,
        };
        let d = ppi_like(&PpiConfig {
            num_proteins: 150,
            num_complexes: 12,
            complex_size_range: (4, 8),
            intra_density: 0.8,
            background_edges: 260,
            prob_dist,
            intra_prob_dist: ProbDistribution::Uniform(0.9, 1.0),
            seed,
        });
        largest_connected_component(&d.graph).graph
    }

    /// Instance `i` of this dataset under the run's `seed`. A run spreads
    /// its requests over several instances, so its figures average over
    /// graphs instead of hinging on one draw.
    pub fn instance(self, seed: u64, i: usize, tiny: bool) -> UncertainGraph {
        self.generate(mix_seed(seed, (self as u64) << 32 | i as u64), tiny)
    }
}

/// One request shape of a workload's mix: which graph, MCP or ACP, `k`,
/// and an optional uniform depth limit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    pub graph: usize,
    pub objective: Objective,
    pub k: usize,
    pub depth: Option<u32>,
}

impl Shape {
    pub fn mcp(graph: usize, k: usize, depth: Option<u32>) -> Shape {
        Shape { graph, objective: Objective::MinProb, k, depth }
    }

    pub fn acp(graph: usize, k: usize, depth: Option<u32>) -> Shape {
        Shape { graph, objective: Objective::AvgProb, k, depth }
    }

    pub fn request(&self) -> ClusterRequest {
        match (self.objective, self.depth) {
            (Objective::MinProb, None) => ClusterRequest::mcp(self.k),
            (Objective::MinProb, Some(d)) => ClusterRequest::mcp_depth(self.k, d),
            (Objective::AvgProb, None) => ClusterRequest::acp(self.k),
            (Objective::AvgProb, Some(d)) => ClusterRequest::acp_depth(self.k, d),
        }
    }

    /// The same shape on graph `graph`.
    pub fn on(self, graph: usize) -> Shape {
        Shape { graph, ..self }
    }

    pub fn label(&self) -> String {
        format!("graph {}: {}", self.graph, self.request())
    }
}

/// The comparable part of a solve: the clustering, the bit patterns of
/// every estimate, and the deterministic schedule counters. Wall-clock
/// fields are deliberately absent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    pub centers: Vec<u32>,
    pub assignment: Vec<Option<usize>>,
    pub probs: Vec<u64>,
    pub objective: u64,
    pub final_q: u64,
    pub guesses: u64,
    pub samples: u64,
}

impl Answer {
    fn new(
        c: &Clustering,
        probs: &[f64],
        objective: f64,
        final_q: f64,
        guesses: usize,
        samples: usize,
    ) -> Answer {
        Answer {
            centers: c.centers().iter().map(|n| n.0).collect(),
            assignment: (0..c.num_nodes()).map(|u| c.cluster_of(NodeId::from_index(u))).collect(),
            probs: probs.iter().map(|p| p.to_bits()).collect(),
            objective: objective.to_bits(),
            final_q: final_q.to_bits(),
            guesses: guesses as u64,
            samples: samples as u64,
        }
    }

    pub fn of_solve(r: &SolveResult) -> Answer {
        Answer::new(
            &r.clustering,
            &r.assign_probs,
            r.objective_estimate,
            r.final_q,
            r.guesses,
            r.samples_used,
        )
    }

    pub fn of_mcp(r: &McpResult) -> Answer {
        Answer::new(
            &r.clustering,
            &r.assign_probs,
            r.min_prob_estimate,
            r.final_q,
            r.guesses,
            r.samples_used,
        )
    }

    pub fn of_acp(r: &AcpResult) -> Answer {
        Answer::new(
            &r.clustering,
            &r.assign_probs,
            r.avg_prob_estimate,
            r.final_q,
            r.guesses,
            r.samples_used,
        )
    }

    /// A served answer, with its decoded clustering.
    pub fn of_wire(w: &WireSolve) -> Result<(Answer, Clustering), String> {
        let c = w.clustering().map_err(|e| format!("undecodable clustering: {e}"))?;
        let a = Answer::new(
            &c,
            &w.assign_probs,
            w.objective_estimate,
            w.final_q,
            w.guesses as usize,
            w.samples_used as usize,
        );
        Ok((a, c))
    }
}

/// Every clustering must be internally consistent and cover every node.
pub fn check_clustering(c: &Clustering) -> Result<(), String> {
    c.validate()?;
    if !c.is_full() {
        return Err(format!("{} of {} nodes left unassigned", c.outliers().len(), c.num_nodes()));
    }
    Ok(())
}

/// Describes the first difference between two answers, if any.
pub fn diff(got: &Answer, want: &Answer) -> Option<String> {
    if got.centers != want.centers {
        return Some("centers differ".into());
    }
    if let Some(u) = got.assignment.iter().zip(&want.assignment).position(|(a, b)| a != b) {
        return Some(format!(
            "node {u} assigned to {:?}, expected {:?}",
            got.assignment[u], want.assignment[u]
        ));
    }
    if got.assignment.len() != want.assignment.len() {
        return Some("node counts differ".into());
    }
    if got.probs != want.probs {
        return Some("assign_probs bit patterns differ".into());
    }
    if (got.objective, got.final_q) != (want.objective, want.final_q) {
        return Some("objective estimate or final q differs".into());
    }
    if (got.guesses, got.samples) != (want.guesses, want.samples) {
        return Some(format!(
            "guesses/samples {}/{} vs {}/{}",
            got.guesses, got.samples, want.guesses, want.samples
        ));
    }
    None
}

/// The answers of one run, per shape: the first answer of each shape is
/// kept, every later one must repeat it bit for bit, and each kept answer
/// is finally compared with a reference computed outside timed regions.
pub struct AnswerBook {
    pub first: Vec<Option<(Answer, Clustering)>>,
    pub count: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl AnswerBook {
    pub fn new(shapes: usize) -> AnswerBook {
        AnswerBook { first: vec![None; shapes], count: vec![0; shapes], attempted: 0, failed: 0 }
    }

    /// Counts one failed request; the first 20 are described on stderr.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("answer check failed: {msg}");
        }
    }

    /// Records one measured request's outcome.
    pub fn record(&mut self, shape: usize, outcome: Result<(Answer, Clustering), String>) {
        self.attempted += 1;
        let (answer, clustering) = match outcome {
            Ok(pair) => pair,
            Err(e) => return self.fail(format!("shape {shape}: {e}")),
        };
        if let Err(e) = check_clustering(&clustering) {
            return self.fail(format!("shape {shape}: invalid clustering: {e}"));
        }
        self.count[shape] += 1;
        match &self.first[shape] {
            None => self.first[shape] = Some((answer, clustering)),
            Some((want, _)) => {
                if let Some(d) = diff(&answer, want) {
                    self.fail(format!("shape {shape}: repeated request changed its answer: {d}"));
                }
            }
        }
    }

    /// Compares the kept answer of `shape` with `reference`; a mismatch
    /// fails every recorded answer of that shape.
    pub fn check_reference(&mut self, shape: usize, what: &str, reference: &Answer) {
        let Some((got, _)) = &self.first[shape] else { return };
        if let Some(d) = diff(got, reference) {
            let n = self.count[shape].max(1);
            self.fail(format!("shape {shape}: differs from {what}: {d}"));
            self.failed += n - 1;
        }
    }

    /// Checks every kept answer of `self` against the kept answer of the
    /// same shape in `reference`.
    pub fn check_against(&mut self, what: &str, reference: &AnswerBook) {
        for (i, r) in reference.first.iter().enumerate() {
            if let Some((want, _)) = r {
                self.check_reference(i, what, want);
            }
        }
    }

    /// Kept clusterings with their shapes' indices.
    pub fn clusterings(&self) -> impl Iterator<Item = (usize, &Clustering)> {
        self.first.iter().enumerate().filter_map(|(i, f)| f.as_ref().map(|(_, c)| (i, c)))
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Latencies (ms) of a run's measured requests, kept two ways: by the
/// mix's base shape, pooled over the instances the shape runs on, and by
/// window, one pass over the whole mix on every instance.
///
/// A shape's cost moves by up to a third from one graph instance to the
/// next, and a shared host can run the same request up to 1.7× slower
/// for seconds at a time. Percentiles over a heterogeneous mix jump when two
/// shapes swap places, so latencies are summarised per shape and the
/// shapes combined by a geometric mean, in which every shape weighs the
/// same and none can jump. Throughput is taken per window and the median
/// over windows reported, so a slow spell that covers fewer than half of
/// the windows does not move it.
#[derive(Clone, Debug)]
pub struct Latencies {
    by_shape: Vec<Vec<f64>>,
    windows: Vec<Vec<f64>>,
}

impl Latencies {
    /// An empty record for a mix of `shapes` base shapes.
    pub fn new(shapes: usize) -> Latencies {
        Latencies { by_shape: vec![Vec::new(); shapes], windows: Vec::new() }
    }

    /// Adds one window of `(base shape, latency ms)` samples.
    pub fn push_window(&mut self, samples: impl IntoIterator<Item = (usize, f64)>) {
        let mut window = Vec::new();
        for (shape, ms) in samples {
            self.by_shape[shape].push(ms);
            window.push(ms);
        }
        self.windows.push(window);
    }

    pub fn windows(&self) -> &[Vec<f64>] {
        &self.windows
    }

    pub fn samples(&self) -> usize {
        self.windows.iter().map(Vec::len).sum()
    }

    /// Geometric mean over the shapes of each shape's `p`-th percentile.
    pub fn shape_geomean(&self, p: f64) -> f64 {
        let logs: Vec<f64> = self
            .by_shape
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| percentile(v, p).max(f64::MIN_POSITIVE).ln())
            .collect();
        mean(&logs).exp()
    }

    pub fn p50(&self) -> f64 {
        self.shape_geomean(50.0)
    }

    pub fn p90(&self) -> f64 {
        self.shape_geomean(90.0)
    }

    /// The median over windows of `stat` of each window's latencies.
    pub fn median_over_windows(&self, stat: impl Fn(&[f64]) -> f64) -> f64 {
        median(&self.windows.iter().map(|w| stat(w)).collect::<Vec<_>>())
    }

    /// Requests completed per second of request time, for one closed-loop
    /// caller.
    pub fn rps(&self) -> f64 {
        self.median_over_windows(|w| w.len() as f64 * 1e3 / w.iter().sum::<f64>())
    }
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time in seconds.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&times))
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Highest arrival rate (req/s) at which one FIFO server with the given
/// measured service times (ms, in issue order) keeps the 90th-percentile
/// latency within `limit_ms` and its utilization at or below 0.95, so its
/// backlog does not grow. Computed by replaying the service times through
/// Lindley's recursion at fixed inter-arrival gaps and bisecting on the
/// rate; the percentile is monotone in the rate.
pub fn replay_max_rate(service_ms: &[f64], limit_ms: f64) -> f64 {
    let p90_at = |rate: f64| {
        let gap = 1e3 / rate;
        let mut wait = 0.0f64;
        let lat: Vec<f64> = service_ms
            .iter()
            .map(|&s| {
                let l = wait + s;
                wait = (l - gap).max(0.0);
                l
            })
            .collect();
        percentile(&lat, 90.0)
    };
    let busy = mean(service_ms);
    if busy <= 0.0 || p90_at(1e-9) > limit_ms {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 0.95 * 1e3 / busy);
    if p90_at(hi) <= limit_ms {
        return hi;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if p90_at(mid) <= limit_ms {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Mean `p_min` of the MCP answers and mean `p_avg` of the ACP answers
/// with unlimited path length among the shapes `keep` selects,
/// re-estimated over an independent pool of `samples` worlds per graph.
/// Runs outside timed regions.
pub fn quality(
    graphs: &[UncertainGraph],
    shapes: &[Shape],
    book: &AnswerBook,
    seed: u64,
    samples: usize,
    keep: impl Fn(usize) -> bool,
) -> (f64, f64) {
    let t0 = Instant::now();
    let mut pools: Vec<Option<ComponentPool<'_>>> = graphs.iter().map(|_| None).collect();
    let (mut pmin, mut pavg) = (Vec::new(), Vec::new());
    for (i, c) in book.clusterings().filter(|&(i, _)| keep(i)) {
        let s = shapes[i];
        if s.depth.is_some() {
            continue;
        }
        let pool = pools[s.graph].get_or_insert_with(|| {
            let mut p = ComponentPool::new(&graphs[s.graph], mix_seed(seed, TAG_BENCH_EVAL), 0);
            p.ensure(samples);
            p
        });
        let q = clustering_quality(pool, c);
        match s.objective {
            Objective::MinProb => pmin.push(q.p_min),
            Objective::AvgProb => pavg.push(q.p_avg),
        }
    }
    eprintln!("quality: {} answers evaluated in {:.1?}", pmin.len() + pavg.len(), t0.elapsed());
    (mean(&pmin), mean(&pavg))
}

/// Evaluation-pool size: `full` worlds, or 64 on the self-test's tiny
/// graphs.
pub fn eval_samples(args: &Args, full: usize) -> usize {
    if args.tiny {
        64
    } else {
        full
    }
}

/// One named metric with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one run: what the last line of standard output reports.
#[derive(Debug)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report over the requests recorded in `books`.
    pub fn new(books: &[&AnswerBook], metrics: Vec<Metric>) -> Report {
        let attempted: u64 = books.iter().map(|b| b.attempted).sum();
        let failed: u64 = books.iter().map(|b| b.failed).sum();
        Report {
            correct: failed == 0 && attempted > 0,
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }

    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
