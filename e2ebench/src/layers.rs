//! The per-layer metrics of a traced run. Every workload reports every
//! name; a layer the workload does not pass through reads 0.

use std::time::Instant;

use ugraph_graph::UncertainGraph;
use ugraph_sampling::BitParallelPool;

use crate::common::{median, metric, Metric};
use crate::trace::Tracer;

/// Per-request means unless the name says otherwise.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub datasets_generate_s: f64,
    pub pool_prepare_ms: f64,
    pub pool_worlds_sampled: f64,
    pub pool_gen_worlds_per_s: f64,
    pub oracle_rows_ms: f64,
    pub oracle_row_calls: f64,
    pub oracle_rows_requested: f64,
    pub oracle_pair_ms: f64,
    pub oracle_row_hits: f64,
    pub oracle_row_topups: f64,
    pub oracle_row_fulls: f64,
    pub oracle_row_lookups: f64,
    pub oracle_row_hit_ratio: f64,
    pub engine_finalized_lanes: f64,
    pub engine_label_queries: f64,
    pub engine_mask_queries: f64,
    pub budget_shards_evicted: f64,
    pub budget_shards_regenerated: f64,
    pub budget_regen_per_evict: f64,
    pub budget_bytes_held_mb: f64,
    pub budget_regen_ms: f64,
    pub guess_self_ms: f64,
    pub guess_guesses: f64,
    pub guess_samples_used: f64,
    pub session_oracle_build_ms: f64,
    pub handle_hop_us: f64,
    pub wire_encode_us: f64,
    pub wire_decode_us: f64,
    pub wire_req_bytes: f64,
    pub wire_resp_bytes: f64,
    pub serve_overhead_p50_ms: f64,
    pub serve_overhead_p90_ms: f64,
    pub serve_dials: f64,
    pub serve_reconnects: f64,
    pub serve_admission_rejections: f64,
    pub serve_sessions_evicted: f64,
    pub serve_solve_errors: f64,
    pub trace_overhead_pct: f64,
    pub trace_requests: f64,
}

impl Layers {
    /// Fills the solver layers from a traced pass: self times per span
    /// name and the counters gathered at the same boundaries, as means
    /// per traced request.
    pub fn solver_from(&mut self, t: &Tracer) {
        let c = &t.counts;
        let n = c.requests.max(1) as f64;
        let own = t.self_ms();
        let get = |name: &str| own.get(name).copied().unwrap_or(0.0) / n;
        self.trace_requests = c.requests as f64;
        self.pool_prepare_ms = get("prepare");
        self.oracle_rows_ms = get("rows");
        self.oracle_pair_ms = get("pair");
        self.session_oracle_build_ms = get("oracle_build");
        self.guess_self_ms = get("request");
        self.pool_worlds_sampled = c.worlds_sampled as f64 / n;
        self.oracle_row_calls = c.row_calls as f64 / n;
        self.oracle_rows_requested = c.rows_requested as f64 / n;
        let lookups = (c.cache.hits + c.cache.topups + c.cache.fulls) as f64;
        self.oracle_row_hits = c.cache.hits as f64 / n;
        self.oracle_row_topups = c.cache.topups as f64 / n;
        self.oracle_row_fulls = c.cache.fulls as f64 / n;
        self.oracle_row_lookups = lookups / n;
        self.oracle_row_hit_ratio = if lookups > 0.0 { c.cache.hits as f64 / lookups } else { 0.0 };
        self.engine_finalized_lanes = c.engine.finalized_lanes as f64 / n;
        self.engine_label_queries = c.engine.label_queries as f64 / n;
        self.engine_mask_queries = c.engine.mask_queries as f64 / n;
        self.guess_guesses = c.guesses as f64 / n;
        self.guess_samples_used = c.samples_used as f64 / n;
    }

    /// Fills the budget layer from a replay of the same requests under a
    /// memory budget; `regen_ms` is computed as the replay's rows time
    /// minus the unbounded pass's, per request.
    pub fn budget_from(&mut self, budgeted: &Tracer, unbounded: &Tracer) {
        let m = &budgeted.counts.memory;
        let n = budgeted.counts.requests.max(1) as f64;
        self.budget_shards_evicted = m.shards_evicted as f64 / n;
        self.budget_shards_regenerated = m.shards_regenerated as f64 / n;
        self.budget_regen_per_evict = if m.shards_evicted > 0 {
            m.shards_regenerated as f64 / m.shards_evicted as f64
        } else {
            0.0
        };
        self.budget_bytes_held_mb = m.bytes_held as f64 / (1024.0 * 1024.0);
        self.budget_regen_ms = (budgeted.total_ms("rows") - unbounded.total_ms("rows")) / n;
    }

    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("datasets.generate_s", self.datasets_generate_s, "s"),
            metric("pool.prepare_ms", self.pool_prepare_ms, "ms"),
            metric("pool.worlds_sampled", self.pool_worlds_sampled, "count"),
            metric("pool.gen_worlds_per_s", self.pool_gen_worlds_per_s, "worlds/s"),
            metric("oracle.rows_ms", self.oracle_rows_ms, "ms"),
            metric("oracle.row_calls", self.oracle_row_calls, "count"),
            metric("oracle.rows_requested", self.oracle_rows_requested, "count"),
            metric("oracle.pair_ms", self.oracle_pair_ms, "ms"),
            metric("oracle.row_hits", self.oracle_row_hits, "count"),
            metric("oracle.row_topups", self.oracle_row_topups, "count"),
            metric("oracle.row_fulls", self.oracle_row_fulls, "count"),
            metric("oracle.row_lookups", self.oracle_row_lookups, "count"),
            metric("oracle.row_hit_ratio", self.oracle_row_hit_ratio, "ratio"),
            metric("engine.finalized_lanes", self.engine_finalized_lanes, "count"),
            metric("engine.label_queries", self.engine_label_queries, "count"),
            metric("engine.mask_queries", self.engine_mask_queries, "count"),
            metric("budget.shards_evicted", self.budget_shards_evicted, "count"),
            metric("budget.shards_regenerated", self.budget_shards_regenerated, "count"),
            metric("budget.regen_per_evict", self.budget_regen_per_evict, "ratio"),
            metric("budget.bytes_held_mb", self.budget_bytes_held_mb, "MiB"),
            metric("budget.regen_ms", self.budget_regen_ms, "ms"),
            metric("guess.self_ms", self.guess_self_ms, "ms"),
            metric("guess.guesses", self.guess_guesses, "count"),
            metric("guess.samples_used", self.guess_samples_used, "count"),
            metric("session.oracle_build_ms", self.session_oracle_build_ms, "ms"),
            metric("handle.hop_us", self.handle_hop_us, "us"),
            metric("wire.encode_us", self.wire_encode_us, "us"),
            metric("wire.decode_us", self.wire_decode_us, "us"),
            metric("wire.req_bytes", self.wire_req_bytes, "bytes"),
            metric("wire.resp_bytes", self.wire_resp_bytes, "bytes"),
            metric("serve.overhead_p50_ms", self.serve_overhead_p50_ms, "ms"),
            metric("serve.overhead_p90_ms", self.serve_overhead_p90_ms, "ms"),
            metric("serve.dials", self.serve_dials, "count"),
            metric("serve.reconnects", self.serve_reconnects, "count"),
            metric("serve.admission_rejections", self.serve_admission_rejections, "count"),
            metric("serve.sessions_evicted", self.serve_sessions_evicted, "count"),
            metric("serve.solve_errors", self.serve_solve_errors, "count"),
            metric("trace.overhead_pct", self.trace_overhead_pct, "%"),
            metric("trace.requests", self.trace_requests, "count"),
        ]
    }
}

/// Worlds per second of fresh pool generation (`ensure`) on `graph`, on
/// the default engine (adaptive, 256-world blocks); median of three.
pub fn gen_worlds_per_s(graph: &UncertainGraph, seed: u64, worlds: usize) -> f64 {
    let rates: Vec<f64> = (0..3u64)
        .map(|i| {
            let mut pool = BitParallelPool::<4>::new_adaptive(graph, seed.wrapping_add(i), 0);
            let t = Instant::now();
            pool.ensure(worlds);
            worlds as f64 / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

/// Traced-vs-untraced difference of mean request time, in percent.
pub fn overhead_pct(untraced_ms: f64, traced_ms: f64) -> f64 {
    if untraced_ms > 0.0 {
        (traced_ms / untraced_ms - 1.0) * 100.0
    } else {
        0.0
    }
}
