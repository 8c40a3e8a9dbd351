//! End-to-end benchmark of the ugraph stack.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <cold|serve-cold> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- --smoke
//! ```
//!
//! Run from the repository root. With `--trace 0` the last line of
//! standard output is one JSON object with the end-to-end metrics; with
//! `--trace 1` it carries the per-layer metrics of a separate traced run,
//! whose spans go to `e2ebench/out/`. Every answer is checked outside the
//! timed regions. `--smoke` is the self-test: every workload on tiny
//! inputs, every metric named with its unit, and a tampered answer must
//! trip the check. `e2ebench/WORKLOADS.md` documents the workloads.

mod cold;
mod common;
mod layers;
mod serve;
mod trace;

use std::process::ExitCode;

use ugraph_cluster::{ClusterConfig, Clustering, UgraphSession};

use common::*;

/// The end-to-end metrics every workload reports, with their units.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rps", "req/s"),
    ("max_rps", "req/s"),
    ("peak_rss_mb", "MiB"),
    ("quality_pmin", "prob"),
    ("quality_pavg", "prob"),
];

const WORKLOADS: [&str; 2] = ["cold", "serve-cold"];

fn parse(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args =
        Args { workload: String::new(), seed: 0, seconds: 10.0, trace: false, tiny: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Some(args))
}

fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "cold" => cold::run(args),
        _ => serve::run(args),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok(Some(args)) => {
            let report = run(&args);
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Ok(None) => match smoke() {
            Ok(()) => {
                eprintln!("smoke: all checks passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke: FAILED: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("error: {e}\nusage: --workload <cold|serve-cold> --seed <n> --seconds <s> --trace <0|1> | --smoke");
            ExitCode::from(2)
        }
    }
}

/// The self-test: each workload, untraced and traced, on tiny inputs.
fn smoke() -> Result<(), String> {
    let per_layer: Vec<(&str, &str)> =
        layers::Layers::default().metrics().iter().map(|m| (m.name, m.unit)).collect();
    let spec = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("run from the repository root (BENCHMARK.json: {e})"))?;
    for (name, unit) in END_TO_END.iter().chain(&per_layer) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        if !spec.contains(&entry) {
            return Err(format!("BENCHMARK.json does not declare {entry}"));
        }
    }
    for workload in WORKLOADS {
        for trace in [false, true] {
            let args = Args { workload: workload.into(), seed: 7, seconds: 0.3, trace, tiny: true };
            let report = run(&args);
            let want: &[(&str, &str)] = if trace { &per_layer } else { &END_TO_END };
            let got: Vec<(&str, &str)> = report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            if got != want {
                return Err(format!(
                    "{workload} (trace {trace}) emitted {got:?}, expected {want:?}"
                ));
            }
            if !report.correct || report.failed > 0 || report.attempted < MIN_REQUESTS as u64 {
                return Err(format!("{workload} (trace {trace}) failed: {report:?}"));
            }
            eprintln!("smoke: {workload} trace={trace}: {}", report.json());
        }
    }
    tamper_trips_the_check()
}

/// One flipped assignment in an otherwise valid answer must fail the
/// repeat check and the reference check; an unassigned node must fail
/// the validity check.
fn tamper_trips_the_check() -> Result<(), String> {
    let g = GraphKind::Krogan.generate(7, true);
    let mut session =
        UgraphSession::new(&g, ClusterConfig::default().with_seed(7)).map_err(|e| e.to_string())?;
    let r = session.solve(Shape::mcp(0, 6, None).request()).map_err(|e| e.to_string())?;
    let c = &r.clustering;
    let n = c.num_nodes();
    let assignment = |u: usize| c.cluster_of_u32(u as u32).map(|a| a as u32);
    let victim = (0..n)
        .find(|&u| !c.centers().iter().any(|x| x.index() == u))
        .ok_or("no non-center node")?;
    let mut flipped: Vec<Option<u32>> = (0..n).map(assignment).collect();
    flipped[victim] = flipped[victim].map(|a| (a + 1) % c.num_clusters() as u32);
    let mut tampered = r.clone();
    tampered.clustering = Clustering::new(c.centers().to_vec(), flipped);

    let mut book = AnswerBook::new(1);
    book.record(0, Ok((Answer::of_solve(&r), r.clustering.clone())));
    book.record(0, Ok((Answer::of_solve(&tampered), tampered.clustering.clone())));
    if book.failed != 1 {
        return Err("a flipped assignment passed the repeat check".into());
    }
    let mut book = AnswerBook::new(1);
    book.record(0, Ok((Answer::of_solve(&tampered), tampered.clustering.clone())));
    book.check_reference(0, "the untampered answer", &Answer::of_solve(&r));
    if book.failed != 1 {
        return Err("a flipped assignment passed the reference check".into());
    }
    let mut unassigned: Vec<Option<u32>> = (0..n).map(assignment).collect();
    unassigned[victim] = None;
    if check_clustering(&Clustering::new(c.centers().to_vec(), unassigned)).is_ok() {
        return Err("an unassigned node passed the validity check".into());
    }
    eprintln!("smoke: tampered answers are caught");
    Ok(())
}
