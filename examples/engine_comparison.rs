//! Backend selection on the `WorldEngine` seam: the scalar per-world
//! pools (the reference) versus the adaptive backend (256-world mask
//! blocks plus lazy per-block component-label finalization, the default).
//!
//! Demonstrates (a) selecting the Monte-Carlo backend through
//! `ClusterConfig::with_engine`, (b) that both backends produce
//! **identical** clusterings and estimates for a fixed seed, and (c) the
//! raw timing difference on depth-limited queries, where one masked
//! traversal answers a whole block of sampled worlds, and on unlimited
//! rows served from finalized labels.
//!
//! Run with: `cargo run --release --example engine_comparison`

use std::time::Instant;

use ugraph::prelude::*;
use ugraph::sampling::{BitParallelPool, WorldPool};

fn main() {
    // A mid-sized synthetic PPI network (the paper's Gavin-like setup).
    let d = DatasetSpec::Gavin.generate(7);
    let g = d.graph;
    println!("graph: {} nodes / {} edges\n", g.num_nodes(), g.num_edges());

    // ── 1. Backend selection via ClusterConfig ─────────────────────────
    // The engine knob is threaded through mcp/acp (and their depth
    // variants) into every probability estimate; backends hold
    // bit-identical worlds, so results agree exactly — the knob trades
    // nothing but time. Depth-limited clustering (paper §3.4) runs one
    // bounded BFS per sampled world on the scalar oracle, and a single
    // masked traversal per 256-world block on the adaptive one.
    let (k, d) = (40, 3);
    let scalar_cfg = ClusterConfig::default().with_seed(11).with_engine(EngineKind::Scalar);
    let adaptive_cfg = ClusterConfig::default().with_seed(11).with_engine(EngineKind::Adaptive);

    let t = Instant::now();
    let scalar_run = acp_depth(&g, k, d, &scalar_cfg).expect("acp_depth (scalar)");
    let scalar_time = t.elapsed();
    let t = Instant::now();
    let adaptive_run = acp_depth(&g, k, d, &adaptive_cfg).expect("acp_depth (adaptive)");
    let adaptive_time = t.elapsed();

    assert_eq!(scalar_run.clustering, adaptive_run.clustering, "backends must agree exactly");
    assert_eq!(scalar_run.avg_prob_estimate, adaptive_run.avg_prob_estimate);
    println!("acp_depth k = {k}, d = {d}: identical clusterings from both backends");
    println!("  scalar   {scalar_time:>10.2?}   (avg-prob {:.3})", scalar_run.avg_prob_estimate);
    println!(
        "  adaptive {adaptive_time:>10.2?}   (avg-prob {:.3})",
        adaptive_run.avg_prob_estimate
    );

    // ── 2. Where bit-packing pays: depth-limited traversal ─────────────
    // The scalar backend runs one bounded BFS per sampled world; the
    // adaptive backend propagates 256-world reach masks, answering a
    // whole block per traversal. Depth queries never finalize labels.
    let samples = 512;
    let depth = 4;
    let n = g.num_nodes();
    let centers: Vec<NodeId> = (0..16u32).map(|i| NodeId(i * (n as u32 / 16))).collect();
    let (mut sel, mut cov) = (vec![0u32; n], vec![0u32; n]);

    let t = Instant::now();
    let mut scalar_pool = WorldPool::new(&g, 3, 1);
    scalar_pool.ensure(samples);
    for &c in &centers {
        scalar_pool.counts_within_depths(c, depth, depth, &mut sel, &mut cov);
    }
    let scalar_depth = t.elapsed();
    let scalar_cov = cov.clone();

    let t = Instant::now();
    let mut pool = BitParallelPool::<4>::new_adaptive(&g, 3, 1);
    pool.ensure(samples);
    for &c in &centers {
        pool.counts_within_depths(c, depth, depth, &mut sel, &mut cov);
    }
    let adaptive_depth = t.elapsed();

    assert_eq!(scalar_cov, cov, "depth counts must be identical");
    println!("\ndepth-{depth} counts, {samples} worlds, {} centers:", centers.len());
    println!("  scalar   {scalar_depth:>10.2?}");
    println!("  adaptive {adaptive_depth:>10.2?}");
    println!(
        "  speedup  {:>9.1}x (single-core: pure bit-packing, no threads)",
        scalar_depth.as_secs_f64() / adaptive_depth.as_secs_f64().max(1e-12)
    );

    // ── 3. Labels on demand: unlimited-depth rows ──────────────────────
    // The first unlimited row query finalizes per-block component labels;
    // every later row counts the center's giant lanes with one popcount
    // pass and traverses only its small components.
    let mut counts = vec![0u32; n];
    let t = Instant::now();
    pool.counts_from_center(centers[0], &mut counts); // finalizes
    let warm = Instant::now();
    for &c in &centers {
        pool.counts_from_center(c, &mut counts);
    }
    let adaptive_warm = warm.elapsed();
    let adaptive_total = t.elapsed();
    let stats = pool.engine_stats();
    println!(
        "\nadaptive unlimited rows, {samples} worlds, {} centers (after one-time \
         finalization of {} blocks / {} lanes):",
        centers.len(),
        stats.finalized_blocks,
        stats.finalized_lanes
    );
    println!(
        "  warm queries {adaptive_warm:>10.2?}   (finalize + all queries {adaptive_total:>.2?})"
    );
    println!(
        "  {} block-queries served from labels, {} from masks",
        stats.label_queries, stats.mask_queries
    );
}
