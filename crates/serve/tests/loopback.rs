//! Loopback integration: a real TCP server, real client connections, and
//! the answers checked against direct `registry` runs of the same
//! configuration.
//!
//! Four claims under test:
//!
//! 1. **Correctness under concurrency** — 140 queries across five
//!    algorithms, fired from 1, then 2, then 8 client threads, each come
//!    back with the digest a direct sequential run produces. Workers run
//!    single-threaded engines, so the digests must be *exactly* equal
//!    (floats included), not merely close.
//! 2. **Observability** — after the batch, `stats` reports a latency
//!    histogram whose count matches the served count and whose
//!    percentiles are populated and ordered.
//! 3. **Admission control** — flooding a 1-worker/1-slot server yields
//!    structured `overloaded` rejections for the overflow and normal
//!    answers for the admitted queries: every request is answered, nothing
//!    hangs, nothing crashes.
//! 4. **Partition-aware serving** — forced-push `pa` queries on two-thread
//!    workers equal direct runs of that schedule and of the default one.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;

use pp_core::Direction;
use pp_engine::registry::{self, RunConfig};
use pp_engine::{DirectionPolicy, Engine, ExecutionMode, ProbeShards};
use pp_graph::{gen, CsrGraph};
use pp_serve::json::{self, Value};
use pp_serve::{Client, ServeConfig, Server};
use pp_telemetry::NullProbe;

/// The shared test graph: weighted, so every registered algorithm
/// (including SSSP/MST) is servable.
fn test_graph() -> CsrGraph {
    let g = gen::rmat(9, 8, 7);
    gen::with_random_weights(&g, 1, 64, 42)
}

/// Boots a TCP server on an ephemeral port; returns its address and the
/// handle whose join yields the final stats.
fn boot(
    g: CsrGraph,
    cfg: ServeConfig,
) -> (SocketAddr, thread::JoinHandle<pp_serve::StatsSnapshot>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let handle = thread::spawn(move || Server::new(g, cfg).serve_tcp(listener));
    (addr, handle)
}

/// The query mix: (algo, source) pairs cycling through five algorithms
/// and spreading sources across the vertex range.
fn query_mix(count: usize, n: usize) -> Vec<(&'static str, u32)> {
    const ALGOS: [&str; 5] = ["bfs", "cc", "pagerank", "sssp", "kcore"];
    (0..count)
        .map(|i| (ALGOS[i % ALGOS.len()], ((i * 37) % n) as u32))
        .collect()
}

/// Runs `algo` directly through the registry on a fresh engine — the
/// ground truth a served response must match exactly. `None` runs the
/// default schedule on one thread; `Some(t)` runs partition-aware forced
/// push on `t` threads.
fn direct_summary(
    g: &CsrGraph,
    algo: &str,
    source: u32,
    pa_threads: Option<usize>,
) -> Vec<(String, String)> {
    let engine = Engine::new(pa_threads.unwrap_or(1));
    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
    let mut cfg = RunConfig {
        source,
        ..RunConfig::new(&engine, &probes)
    };
    if pa_threads.is_some() {
        cfg.policy = DirectionPolicy::Fixed(Direction::Push);
        cfg.mode = ExecutionMode::PartitionAware;
    }
    let run = registry::run_checked(algo, &cfg, g).expect("mix contains only valid queries");
    let mut pairs: Vec<_> = run
        .summary
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    pairs.sort();
    pairs
}

/// Extracts the summary object of an `ok: true` response as sorted pairs.
fn response_summary(line: &str) -> Vec<(String, String)> {
    let v = json::parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"));
    assert_eq!(
        v.get("ok").and_then(Value::bool),
        Some(true),
        "expected success: {line}"
    );
    let Some(Value::Obj(map)) = v.get("summary") else {
        panic!("response has no summary object: {line}");
    };
    // BTreeMap iteration is key-sorted, matching the sorted ground truth.
    map.iter()
        .map(|(k, val)| {
            let Value::Str(s) = val else {
                panic!("summary values are strings: {line}");
            };
            (k.clone(), s.clone())
        })
        .collect()
}

#[test]
fn hundred_concurrent_queries_match_direct_runs_and_populate_percentiles() {
    let g = test_graph();
    let n = g.num_vertices();
    let (addr, server) = boot(
        g.clone(),
        ServeConfig {
            workers: 2,
            threads: 1,
            queue: 256,
            name: "loopback".to_string(),
            ..ServeConfig::default()
        },
    );

    // Phases: 1 thread x 20, 2 threads x 20, 8 threads x 10 = 140 queries.
    let mut answered: Vec<(&'static str, u32, String)> = Vec::new();
    let mut total = 0usize;
    for (threads, per_thread) in [(1usize, 20usize), (2, 20), (8, 10)] {
        let mix = Arc::new(query_mix(threads * per_thread, n));
        total += mix.len();
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mix = mix.clone();
                thread::spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut got = Vec::new();
                    for (i, &(algo, source)) in
                        mix.iter().enumerate().skip(t * per_thread).take(per_thread)
                    {
                        let req =
                            format!("{{\"algo\": \"{algo}\", \"source\": {source}, \"id\": {i}}}");
                        let resp = client.request(&req).expect("response");
                        got.push((algo, source, resp));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            answered.extend(h.join().expect("client thread"));
        }
    }
    assert_eq!(answered.len(), total);
    assert!(total >= 100, "the mix must exercise at least 100 queries");

    // Percentiles before shutdown: count matches the work done, and the
    // quantiles are populated and ordered.
    let mut meta = Client::connect(addr).expect("connect");
    let stats_line = meta.request("{\"op\": \"stats\"}").expect("stats");
    let stats = json::parse(&stats_line).expect("stats parses");
    let lat = stats.get("latency").expect("latency object");
    let quantile = |k: &str| lat.get(k).and_then(Value::u64).unwrap();
    assert_eq!(lat.get("count").and_then(Value::u64), Some(total as u64));
    assert!(quantile("p50_ns") > 0, "p50 populated: {stats_line}");
    assert!(quantile("p50_ns") <= quantile("p95_ns"));
    assert!(quantile("p95_ns") <= quantile("p99_ns"));
    assert!(quantile("p99_ns") <= quantile("max_ns"));

    let _ = meta
        .request("{\"op\": \"shutdown\"}")
        .expect("shutdown ack");
    let final_stats = server.join().expect("server thread");
    assert_eq!(final_stats.served, total as u64);
    assert_eq!(final_stats.rejected, 0);
    assert_eq!(final_stats.errors, 0);

    // Every served response equals the direct sequential run bit-for-bit.
    let mut truth: HashMap<(&str, u32), Vec<(String, String)>> = HashMap::new();
    for (algo, source, resp) in &answered {
        let expected = truth
            .entry((algo, *source))
            .or_insert_with(|| direct_summary(&g, algo, *source, None));
        assert_eq!(
            &response_summary(resp),
            expected,
            "served {algo} from {source} diverged from the direct run"
        );
    }
}

#[test]
fn partition_aware_push_queries_match_direct_runs() {
    // Two engine threads per worker: a two-part split, so remote arcs go
    // through the owner-computes exchange.
    let g = test_graph();
    let cfg = ServeConfig {
        workers: 1,
        threads: 2,
        name: "pa".to_string(),
        ..ServeConfig::default()
    };
    let (addr, server) = boot(g.clone(), cfg);
    let mut client = Client::connect(addr).expect("connect");
    let mix = query_mix(40, g.num_vertices());
    let mix: Vec<_> = mix.into_iter().filter(|q| q.0 != "pagerank").collect();
    for &(algo, source) in &mix {
        let params = r#""params": {"direction": "push", "mode": "pa"}"#;
        let req = format!(r#"{{"algo": "{algo}", "source": {source}, {params}}}"#);
        let resp = client.request(&req).expect("response");
        assert!(resp.contains(r#""mode": "pa""#), "{resp}");
        let expected = direct_summary(&g, algo, source, Some(2));
        assert_eq!(response_summary(&resp), expected, "{algo} from {source}");
        // The same digest as the default atomic adaptive schedule.
        assert_eq!(expected, direct_summary(&g, algo, source, None), "{algo}");
    }
    let shutdown = r#"{"op": "shutdown"}"#;
    client.request(shutdown).expect("shutdown ack");
    let stats = server.join().expect("server thread");
    assert_eq!((stats.served, stats.errors), (mix.len() as u64, 0));
}

#[test]
fn pipelined_bfs_flood_coalesces_and_stays_bit_equal_to_solo_runs() {
    let g = test_graph();
    let n = g.num_vertices();
    let (addr, server) = boot(
        g.clone(),
        ServeConfig {
            workers: 2,
            threads: 1,
            queue: 256,
            name: "coalesce".to_string(),
            ..ServeConfig::default()
        },
    );

    // Three clients each pipeline 20 bfs queries (write all, then read
    // all) so the admission queue floods and workers claim real batches.
    const CLIENTS: usize = 3;
    const PER_CLIENT: usize = 20;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|t| {
            thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut burst = String::new();
                for i in 0..PER_CLIENT {
                    let id = t * PER_CLIENT + i;
                    let source = (id * 37) % n;
                    burst.push_str(&format!(
                        "{{\"algo\": \"bfs\", \"source\": {source}, \"id\": {id}}}\n"
                    ));
                }
                writer.write_all(burst.as_bytes()).expect("write burst");
                writer.flush().expect("flush");
                let reader = BufReader::new(stream);
                reader
                    .lines()
                    .take(PER_CLIENT)
                    .map(|l| l.expect("read response"))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut responses = Vec::new();
    for h in handles {
        responses.extend(h.join().expect("client thread"));
    }
    assert_eq!(responses.len(), CLIENTS * PER_CLIENT);

    // Every response — batched or solo — is bit-equal to the direct
    // single-source registry run of its own source; the batch a query
    // rode in must be invisible everywhere but the `batched` field.
    let mut max_batched = 0u64;
    let mut truth: HashMap<u32, Vec<(String, String)>> = HashMap::new();
    for line in &responses {
        let v = json::parse(line).expect("response parses");
        let id = v.get("id").and_then(Value::u64).expect("id echoed") as usize;
        let source = ((id * 37) % n) as u32;
        let expected = truth
            .entry(source)
            .or_insert_with(|| direct_summary(&g, "bfs", source, None));
        assert_eq!(
            &response_summary(line),
            expected,
            "served bfs from {source} diverged from the direct run"
        );
        max_batched = max_batched.max(
            v.get("batched")
                .and_then(Value::u64)
                .expect("batched field"),
        );
    }
    assert!(
        max_batched >= 2,
        "a 60-query pipelined flood into 2 workers must coalesce at least once"
    );

    let mut meta = Client::connect(addr).expect("connect");
    let stats_line = meta.request("{\"op\": \"stats\"}").expect("stats");
    let stats = json::parse(&stats_line).expect("stats parses");
    let batching = stats.get("batching").expect("batching object");
    assert!(batching.get("batches").and_then(Value::u64).unwrap() >= 1);
    assert!(batching.get("max_batch").and_then(Value::u64).unwrap() >= 2);

    let _ = meta
        .request("{\"op\": \"shutdown\"}")
        .expect("shutdown ack");
    let final_stats = server.join().expect("server thread");
    assert_eq!(final_stats.served, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(final_stats.errors, 0);
    assert_eq!(final_stats.rejected, 0);
    assert!(final_stats.coalesced >= 2);
}

#[test]
fn flooding_a_tiny_queue_yields_structured_overload_not_hangs() {
    let (addr, server) = boot(
        test_graph(),
        ServeConfig {
            workers: 1,
            threads: 1,
            queue: 1,
            name: "flood".to_string(),
            ..ServeConfig::default()
        },
    );

    // Burst 40 requests down one connection without reading a single
    // response: the reader thread must keep dispatching (rejecting once
    // the one queue slot is taken), not block behind the worker.
    const BURST: usize = 40;
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut burst = String::new();
    for i in 0..BURST {
        burst.push_str(&format!("{{\"algo\": \"pagerank\", \"id\": {i}}}\n"));
    }
    writer.write_all(burst.as_bytes()).expect("write burst");
    writer.flush().expect("flush");

    let reader = BufReader::new(stream);
    let (mut ok, mut overloaded) = (0usize, 0usize);
    for line in reader.lines().take(BURST) {
        let line = line.expect("read response");
        let v = json::parse(&line).expect("every response parses");
        if v.get("ok").and_then(Value::bool) == Some(true) {
            ok += 1;
        } else {
            let kind = v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::str)
                .expect("failures carry error.kind");
            assert_eq!(kind, "overloaded", "unexpected failure: {line}");
            overloaded += 1;
        }
    }
    assert_eq!(
        ok + overloaded,
        BURST,
        "every request in the burst answered"
    );
    assert!(ok >= 1, "the first request is admitted to an empty queue");
    assert!(
        overloaded >= 1,
        "a 40-deep burst into a 1-slot queue must overflow"
    );

    let mut meta = Client::connect(addr).expect("connect");
    let _ = meta
        .request("{\"op\": \"shutdown\"}")
        .expect("shutdown ack");
    let stats = server.join().expect("server thread");
    assert_eq!(stats.served, ok as u64);
    assert_eq!(stats.rejected, overloaded as u64);
}
