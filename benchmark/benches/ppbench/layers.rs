//! Direct calls into single layers, timed in the traced pass only.
//!
//! Each function times one `pub` entry point of a layer on the workload's
//! own graph (or its own edge-list bytes) and returns the median of a few
//! repetitions. None of this feeds an end-to-end metric.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pp_engine::registry::AlgoRun;
use pp_engine::{ingest, DirectionPolicy, Engine, Frontier, PaContext};
use pp_graph::{io, snapshot, BlockPartition, CsrGraph, PartitionAwareGraph, VertexId};
use pp_serve::protocol::{self, LatencySplit, Request};

use crate::stats::median;

/// Repetitions of the millisecond-scale calls.
const REPS: usize = 5;

/// Median seconds of `reps` calls of `f`.
fn median_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// `Pool::run(T, no-op)`: one wake + barrier, microseconds.
pub fn pool_dispatch_us(engine: &Engine) -> f64 {
    let chunks = engine.threads();
    median_s(500, || engine.pool().run(chunks, &|_, _| {})) * 1e6
}

fn every_16th(g: &CsrGraph) -> Vec<VertexId> {
    (0..g.num_vertices() as VertexId).step_by(16).collect()
}

/// `Frontier::from_vertices` over `n/16` vertices, microseconds.
pub fn frontier_from_vertices_us(g: &CsrGraph) -> f64 {
    let mut lists: Vec<Vec<VertexId>> = (0..REPS).map(|_| every_16th(g)).collect();
    median_s(REPS, || {
        Frontier::from_vertices(g, lists.pop().expect("one list per repetition"))
    }) * 1e6
}

/// `Frontier::densify` of that frontier, microseconds.
pub fn frontier_densify_us(g: &CsrGraph) -> f64 {
    let mut frontiers: Vec<Frontier> = (0..REPS)
        .map(|_| Frontier::from_vertices(g, every_16th(g)))
        .collect();
    median_s(REPS, || {
        let mut f = frontiers.pop().expect("one frontier per repetition");
        f.densify();
        f
    }) * 1e6
}

/// One adaptive `DirectionPolicy::next` on a frontier whose edge count is
/// cached, nanoseconds.
pub fn policy_decide_ns(g: &CsrGraph) -> f64 {
    let frontier = Frontier::from_vertices(g, every_16th(g));
    frontier.edge_count(g);
    const CALLS: usize = 1000;
    median_s(REPS, || {
        let mut policy = DirectionPolicy::adaptive();
        for _ in 0..CALLS {
            black_box(policy.next(&frontier, g));
        }
    }) * 1e9
        / CALLS as f64
}

/// `PaContext::new(g, T)` — what every `PartitionAware` run pays first.
pub fn pa_context_build_ms(g: &CsrGraph, threads: usize) -> f64 {
    median_s(3, || PaContext::new(g, threads)) * 1e3
}

/// `PartitionAwareGraph::new` alone (the split without the buffers).
pub fn pa_graph_build_ms(g: &CsrGraph, threads: usize) -> f64 {
    median_s(3, || {
        PartitionAwareGraph::new(g, BlockPartition::new(g.num_vertices(), threads))
    }) * 1e3
}

/// Sequential sum over `targets()`: the bandwidth this machine sustains in
/// this run, the ceiling any `mteps` is read against. GB/s.
pub fn csr_scan_gb_s(g: &CsrGraph) -> f64 {
    let bytes = std::mem::size_of_val(g.targets()) as f64;
    let s = median_s(REPS, || g.targets().iter().map(|&t| t as u64).sum::<u64>());
    bytes / s.max(1e-12) / 1e9
}

/// `(parse_shard_ms, assemble_ms)` of the whole buffer as one shard.
pub fn io_stages_ms(bytes: &[u8]) -> Result<(f64, f64), String> {
    let mut parse = Vec::new();
    let mut assemble = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let shard = io::parse_shard(bytes, 1).map_err(|e| e.to_string())?;
        parse.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(io::assemble_shards(vec![shard], 0).map_err(|e| e.to_string())?);
        assemble.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&parse), median(&assemble)))
}

/// `(parse_ms, speedup_vs_seq)`: `read_edge_list_parallel` against
/// `io::parse_edge_list` on the same bytes.
pub fn ingest_ms(engine: &Engine, bytes: &[u8]) -> (f64, f64) {
    let par = median_s(3, || ingest::read_edge_list_parallel(engine, bytes, 0)) * 1e3;
    let seq = median_s(3, || io::parse_edge_list(bytes, 0)) * 1e3;
    (par, seq / par.max(1e-9))
}

/// `(save_ms, load_ms, load_mb_s)` of the `.ppg` snapshot at `path`.
pub fn snapshot_ms(g: &CsrGraph, path: &Path) -> Result<(f64, f64, f64), String> {
    let save = median_s(3, || snapshot::save_ppg_path(g, path)) * 1e3;
    let size = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as f64;
    let load = median_s(3, || snapshot::load_ppg_path(path)) * 1e3;
    Ok((save, load, size / 1e6 / (load / 1e3).max(1e-9)))
}

/// `(parse_us, render_us)`: `parse_request` of a request line and
/// `render_run_response` of `run` for it.
pub fn protocol_us(line: &str, run: &AlgoRun) -> Result<(f64, f64), String> {
    const CALLS: usize = 200;
    let parse = median_s(REPS, || {
        for _ in 0..CALLS {
            black_box(protocol::parse_request(black_box(line)).is_ok());
        }
    }) * 1e6
        / CALLS as f64;
    let Request::Run(spec) = protocol::parse_request(line)? else {
        return Err(format!("not a run request: {line}"));
    };
    let render = median_s(REPS, || {
        for _ in 0..CALLS {
            black_box(protocol::render_run_response(
                &spec,
                "ppbench",
                1,
                run,
                1.0,
                LatencySplit::default(),
            ));
        }
    }) * 1e6
        / CALLS as f64;
    Ok((parse, render))
}
