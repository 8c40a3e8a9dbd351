//! The traced run's instrumentation, all in benchmark code: an [`Oracle`]
//! wrapper timing the calls into the sampling layer, and a session mirror
//! that drives it through the public `mcp_with_oracle`/`acp_with_oracle`.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out when the run ends. A span's self time is its duration minus
//! its children's; the `request` span's self time is the residual of the
//! wall time, assigned to the guess loop, so self times sum to wall time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::rc::Rc;
use std::time::Instant;

use ugraph_cluster::{
    acp_with_oracle, mcp_with_oracle, AcpInvocation, ClusterConfig, ClusterError, Clustering,
    Objective,
};
use ugraph_graph::{NodeId, UncertainGraph};
use ugraph_sampling::rng::mix_seed;
use ugraph_sampling::{
    DepthMcOracle, EngineStats, McOracle, MemoryBudget, MemoryStats, Oracle, RowCacheStats,
    RunState, SamplingError,
};

use crate::common::{Answer, Shape};

/// The session's per-family seed tags (`crates/core/src/session.rs`),
/// mirrored so a traced solve samples the very worlds an untraced one
/// does. If they ever change, the traced-equals-untraced check fails.
const TAG_MCP: u64 = 0x4d43_5031; // "MCP1"
const TAG_MCP_DEPTH: u64 = 0x4d43_5044; // "MCPD"
const TAG_ACP: u64 = 0x4143_5031; // "ACP1"
const TAG_ACP_DEPTH: u64 = 0x4143_5044; // "ACPD"

/// Upper bound on spans kept in memory; later spans are counted, not kept.
const MAX_SPANS: usize = 2_000_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Deterministic per-request counters gathered at the same boundaries.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub requests: u64,
    pub row_calls: u64,
    pub rows_requested: u64,
    pub worlds_sampled: u64,
    pub guesses: u64,
    pub samples_used: u64,
    pub cache: RowCacheStats,
    pub engine: EngineStats,
    pub memory: MemoryStats,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<usize>,
    request: u64,
    pub counts: Counts,
}

pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
            request: 0,
            counts: Counts::default(),
        }))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(id);
        Some(id)
    }

    pub fn end(&mut self, id: Option<usize>) {
        let Some(id) = id else { return };
        let now = self.now();
        self.spans[id].end_ns = now;
        if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
            self.stack.truncate(pos);
        }
    }

    /// Records an already-measured interval as a closed span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            request: self.request,
        });
        Some(self.spans.len() - 1)
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(c);
            *out.entry(s.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// Total duration per span name, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        if self.dropped > 0 {
            writeln!(w, "{{\"dropped_spans\": {}}}", self.dropped)?;
        }
        w.flush()
    }
}

/// Times every call into the wrapped oracle; answers pass through
/// untouched.
pub struct TracedOracle<'g> {
    inner: Box<dyn Oracle + 'g>,
    tracer: SharedTracer,
}

impl<'g> TracedOracle<'g> {
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut dyn Oracle) -> T) -> T {
        let id = self.tracer.borrow_mut().begin(name);
        let out = f(self.inner.as_mut());
        self.tracer.borrow_mut().end(id);
        out
    }
}

impl Oracle for TracedOracle<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn epsilon(&self) -> f64 {
        self.inner.epsilon()
    }
    fn prepare(&mut self, q: f64) -> Result<(), SamplingError> {
        self.timed("prepare", |o| o.prepare(q))
    }
    fn set_run_state(&mut self, run: RunState) {
        self.inner.set_run_state(run);
    }
    fn begin_request(&mut self) {
        self.inner.begin_request();
    }
    fn num_samples(&self) -> usize {
        self.inner.num_samples()
    }
    fn pool_samples(&self) -> usize {
        self.inner.pool_samples()
    }
    fn center_probs(
        &mut self,
        center: NodeId,
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        {
            let mut t = self.tracer.borrow_mut();
            t.counts.row_calls += 1;
            t.counts.rows_requested += 1;
        }
        self.timed("rows", |o| o.center_probs(center, select, cover))
    }
    fn pair_prob(&mut self, u: NodeId, v: NodeId) -> Result<f64, SamplingError> {
        self.timed("pair", |o| o.pair_prob(u, v))
    }
    fn identical_rows(&self) -> bool {
        self.inner.identical_rows()
    }
    fn center_probs_batch(
        &mut self,
        centers: &[NodeId],
        select: &mut [f64],
        cover: &mut [f64],
    ) -> Result<(), SamplingError> {
        {
            let mut t = self.tracer.borrow_mut();
            t.counts.row_calls += 1;
            t.counts.rows_requested += centers.len() as u64;
        }
        self.timed("rows", |o| o.center_probs_batch(centers, select, cover))
    }
    fn cache_stats(&self) -> RowCacheStats {
        self.inner.cache_stats()
    }
    fn engine_stats(&self) -> EngineStats {
        self.inner.engine_stats()
    }
    fn memory_stats(&self) -> MemoryStats {
        self.inner.memory_stats()
    }
}

/// The shape an oracle serves: objective and resolved `(d_select,
/// d_cover)` depths (`None` = unlimited).
type OracleKey = (Objective, Option<(u32, u32)>);

/// Mirror of `UgraphSession::solve` over traced oracles: one oracle per
/// (objective, depth) shape, seeded and configured as the session seeds
/// and configures its own, all charging one memory ledger.
pub struct TracedSession<'g> {
    graph: &'g UncertainGraph,
    config: ClusterConfig,
    budget: MemoryBudget,
    oracles: Vec<(OracleKey, TracedOracle<'g>)>,
    tracer: SharedTracer,
}

impl<'g> TracedSession<'g> {
    pub fn new(graph: &'g UncertainGraph, config: ClusterConfig, tracer: SharedTracer) -> Self {
        let budget =
            config.memory_budget.map_or_else(MemoryBudget::unbounded, MemoryBudget::bounded);
        TracedSession { graph, config, budget, oracles: Vec::new(), tracer }
    }

    fn depths(&self, shape: &Shape) -> Option<(u32, u32)> {
        shape.depth.map(|d| match shape.objective {
            Objective::MinProb => (d, d),
            Objective::AvgProb => {
                let d_select = match self.config.acp_invocation {
                    AcpInvocation::Theory => (d / 3).max(1),
                    AcpInvocation::Practical => d,
                };
                (d_select.min(d), d)
            }
        })
    }

    fn oracle_index(&mut self, shape: &Shape) -> Result<usize, ClusterError> {
        let key = (shape.objective, self.depths(shape));
        if let Some(i) = self.oracles.iter().position(|(k, _)| *k == key) {
            return Ok(i);
        }
        let span = self.tracer.borrow_mut().begin("oracle_build");
        let cfg = &self.config;
        let tag = match (key.0, key.1.is_some()) {
            (Objective::MinProb, false) => TAG_MCP,
            (Objective::MinProb, true) => TAG_MCP_DEPTH,
            (Objective::AvgProb, false) => TAG_ACP,
            (Objective::AvgProb, true) => TAG_ACP_DEPTH,
        };
        let seed = mix_seed(cfg.seed, tag);
        let inner: Box<dyn Oracle + 'g> = match key.1 {
            None => Box::new(
                McOracle::with_engine_width(
                    self.graph,
                    seed,
                    cfg.threads,
                    cfg.schedule,
                    cfg.epsilon,
                    cfg.engine,
                    cfg.block_width,
                )
                .with_row_cache(cfg.row_cache)
                .with_memory_budget(self.budget.clone()),
            ),
            Some((d_select, d_cover)) => Box::new(
                DepthMcOracle::with_engine_width(
                    self.graph,
                    seed,
                    cfg.threads,
                    cfg.schedule,
                    cfg.epsilon,
                    d_select,
                    d_cover,
                    cfg.engine,
                    cfg.block_width,
                )?
                .with_row_cache(cfg.row_cache)
                .with_memory_budget(self.budget.clone()),
            ),
        };
        self.tracer.borrow_mut().end(span);
        self.oracles.push((key, TracedOracle { inner, tracer: self.tracer.clone() }));
        Ok(self.oracles.len() - 1)
    }

    /// Solves `shape` as request `id`, under a `request` root span.
    pub fn solve(&mut self, shape: &Shape, id: u64) -> Result<(Answer, Clustering), ClusterError> {
        let root = {
            let mut t = self.tracer.borrow_mut();
            t.set_request(id);
            t.begin("request")
        };
        let mem_before = self.budget.stats();
        let out = self.solve_inner(shape);
        let mut t = self.tracer.borrow_mut();
        t.end(root);
        let mem = self.budget.stats().since(&mem_before);
        let c = &mut t.counts.memory;
        c.shards_evicted += mem.shards_evicted;
        c.shards_regenerated += mem.shards_regenerated;
        c.bytes_held = self.budget.stats().bytes_held;
        out
    }

    fn solve_inner(&mut self, shape: &Shape) -> Result<(Answer, Clustering), ClusterError> {
        let idx = self.oracle_index(shape)?;
        let config = self.config.clone();
        let oracle = &mut self.oracles[idx].1;
        let cache_before = oracle.cache_stats();
        let engine_before = oracle.engine_stats();
        let worlds_before = oracle.pool_samples();
        oracle.begin_request();
        oracle.set_run_state(RunState::unlimited());
        let (answer, clustering, guesses, samples) = match shape.objective {
            Objective::MinProb => {
                let r = mcp_with_oracle(oracle, shape.k, &config)?;
                (Answer::of_mcp(&r), r.clustering, r.guesses, r.samples_used)
            }
            Objective::AvgProb => {
                let r = acp_with_oracle(oracle, shape.k, &config)?;
                (Answer::of_acp(&r), r.clustering, r.guesses, r.samples_used)
            }
        };
        let mut t = self.tracer.borrow_mut();
        let c = &mut t.counts;
        c.requests += 1;
        c.guesses += guesses as u64;
        c.samples_used += samples as u64;
        c.worlds_sampled += (oracle.pool_samples() - worlds_before) as u64;
        c.cache = c.cache.merged(oracle.cache_stats().since(cache_before));
        c.engine = c.engine.merged(oracle.engine_stats().since(engine_before));
        Ok((answer, clustering))
    }
}

/// Writes the traced run's spans under `e2ebench/out/`.
pub fn write_spans(t: &Tracer, workload: &str, seed: u64) {
    let path =
        std::path::Path::new("e2ebench").join("out").join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) = t.write(&path) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
