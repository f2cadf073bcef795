//! `ppgraph` — the unified graph driver: generate, convert, inspect, and
//! run any engine algorithm on any graph.
//!
//! This is the missing piece between the paper's evaluation (on-disk
//! SNAP/Graph500 edge lists) and the workspace's synthetic stand-ins: a
//! binary that takes *your* graph, in text or binary form, and feeds it to
//! all ten `Program`s through `pp_engine::registry`.
//!
//! ```text
//! ppgraph gen rmat 14 16 --format ppg -o g.ppg
//! ppgraph convert graph.txt -o graph.ppg
//! ppgraph stats graph.ppg
//! ppgraph run bfs graph.ppg --threads 4 --direction adaptive --json -
//! ```
//!
//! Subcommands read a file argument or stdin and write `-o <path>` or
//! stdout, so the whole pipeline composes with pipes:
//! `ppgraph gen rmat 10 8 | ppgraph convert | ppgraph run cc --json -`.
//! Binary `.ppg` snapshots (`pp_graph::snapshot`) and text edge lists
//! (`pp_graph::io`) are told apart by their first bytes; text inputs parse
//! on the engine pool (`pp_engine::ingest`).

use std::io::{BufRead, Read, Write};
use std::time::Instant;

use pp_core::Direction;
use pp_engine::policy::{BEAMER_ALPHA, BEAMER_BETA};
use pp_engine::registry::{self, AlgoRun, RunConfig};
use pp_engine::{ingest, DirectionPolicy, Engine, ExecutionMode, ProbeShards};
use pp_graph::datasets::{Dataset, Scale};
use pp_graph::{gen, io as gio, reorder, snapshot, stats, CsrGraph, VertexId, Weight};
use pp_serve::json::{self, Value};
use pp_serve::{Client, ServeConfig, Server};
use pp_telemetry::{CountingProbe, EventCounts, MetricsLevel, NullProbe};

const USAGE: &str = "\
usage: ppgraph <command> [args]

commands:
  gen <family> <params..> [--seed S] [--weights LO:HI] [--format edges|ppg]
                          [-o PATH]
      families: rmat <scale> <edge_factor> | er <n> <m> |
                road <rows> <cols> [keep] | community <k> <cs> <intra> <inter> |
                ba <n> <m_per_vertex> | ws <n> <k> <beta> |
                bipartite <left> <right> <m> |
                path <n> | cycle <n> | star <n> | complete <n> | tree <n> |
                dataset <orc|pok|ljn|am|rca> [--scale test|small|medium]
  convert [IN] [-o PATH] [--format edges|ppg] [--reorder degree|bfs]
          [--min-vertices N] [--threads N]
      IN defaults to stdin; the output format defaults to the opposite of
      the input's (text in -> .ppg out and vice versa)
  stats [IN]
      prints n, m, degree statistics, components, and diameter bound
  run <algo> [IN] [--threads N] [--direction push|pull|adaptive]
             [--mode atomic|pa] [--source V] [--sources V1,V2,..]
             [--reorder degree|bfs] [--weights LO:HI] [--lp-iters K]
             [--bc-sources K] [--json PATH] [--trace PATH] [--metrics PATH]
      runs a registry algorithm; --json dumps a machine-readable report
      ('-' = stdout) with one dataset/mode/algo/threads/ms row.
      --sources batches bfs (alias msbfs) over up to 64 distinct sources
      in ONE bit-parallel traversal (one lane per source); the summary
      and JSON report carry per-source reached/depth digests.
      --trace writes a Chrome trace-event JSON (chrome://tracing /
      Perfetto: per-round spans, per-worker lanes, switch markers);
      --metrics writes the unified observability JSON (rows + RunReport
      timing + per-round policy decisions + Table-1 event counts +
      per-worker laps), readable by `ppgraph report`
  report <metrics.json> [--imbalance-threshold X] [--no-direction-check]
      renders a --metrics file as a per-round table and flags anomalies
      (policy decisions contradicting the Beamer thresholds — disable
      with --no-direction-check — and worker load imbalance over the
      --imbalance-threshold, default 2.0)
  serve [IN] [--port P] [--workers N] [--threads N] [--queue N]
            [--weights LO:HI] [--seed S] [--min-vertices N]
            [--trace-queries PATH]
      loads the graph once and answers newline-delimited JSON queries
      ({\"algo\": ..., \"source\": ..., \"params\": {...}} -> one response
      line each; {\"op\": \"stats\"|\"metrics\"|\"ping\"|\"shutdown\"}
      meta-queries; \"metrics\" returns Prometheus text exposition in its
      body field). --port serves TCP on 127.0.0.1:P; without it requests
      are read from stdin and answered on stdout until EOF. --workers
      runners of --threads engine threads each execute queries; at most
      --queue queries wait admitted (beyond that: structured 'overloaded'
      rejections). --trace-queries writes a per-query Chrome trace (queue
      span + run span per query, one lane per worker, rejection markers)
      when the server drains. Final stats go to stderr as JSON on
      shutdown.
  query [--connect HOST:PORT] [--stats | --metrics-op | --prom | --ping |
         --shutdown]
      client for `serve --port`: sends stdin's request lines one at a
      time and prints each response line (or just the one meta-query
      named by the flag). --prom fetches the metrics meta-query and
      prints the raw Prometheus text body (scrape adapter). Exit is
      nonzero only on transport failure; ok:false responses are data.
  top [HOST:PORT] [--interval S] [--once]
      live terminal dashboard for a running `serve --port`: polls stats
      every --interval seconds (default 2) and redraws RPS, queue depth,
      rejection rate, per-worker utilization, and per-algo queue/run
      latency percentiles. --once prints a single frame and exits
      (scripting). The address defaults to 127.0.0.1:7878.
  algos
      lists every runnable algorithm with its aliases

Graphs read from a path or stdin may be text edge lists (`u v [w]` lines,
'#' comments) or binary .ppg snapshots; the format is sniffed from the
first bytes. Weighted algorithms (see `ppgraph algos`) attach
deterministic random weights 1..=64 to unweighted inputs unless
--weights overrides the range.
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => print!("{USAGE}"),
        Some("gen") => cmd_gen(&args[1..]),
        Some("convert") => cmd_convert(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("algos") => cmd_algos(),
        Some(other) => die(&format!("unknown command: {other}\n\n{USAGE}")),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

// ---------------------------------------------------------------- options

/// Parsed flag set shared by the subcommands; positional arguments are
/// collected in order.
#[derive(Default)]
struct Opts {
    positional: Vec<String>,
    out: Option<String>,
    format: Option<String>,
    seed: u64,
    weights: Option<(Weight, Weight)>,
    scale: Option<Scale>,
    reorder: Option<String>,
    min_vertices: usize,
    threads: usize,
    direction: Option<String>,
    mode: Option<String>,
    source: VertexId,
    sources: Vec<VertexId>,
    lp_iters: usize,
    bc_sources: Option<usize>,
    json: Option<String>,
    trace: Option<String>,
    metrics: Option<String>,
    port: Option<u16>,
    workers: usize,
    queue: usize,
    connect: Option<String>,
    meta_op: Option<&'static str>,
    trace_queries: Option<String>,
    prom: bool,
    imbalance_threshold: f64,
    direction_check: bool,
    interval_s: f64,
    once: bool,
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts {
        seed: 1,
        lp_iters: 20,
        bc_sources: Some(8),
        workers: 2,
        queue: 64,
        imbalance_threshold: 2.0,
        direction_check: true,
        interval_s: 2.0,
        ..Opts::default()
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        args.get(*i)
            .unwrap_or_else(|| die(&format!("{flag} expects a value")))
            .clone()
    };
    while i < args.len() {
        match args[i].as_str() {
            "-o" | "--out" => o.out = Some(value(args, &mut i, "-o")),
            "--format" => o.format = Some(value(args, &mut i, "--format")),
            "--seed" => {
                o.seed = value(args, &mut i, "--seed")
                    .parse()
                    .unwrap_or_else(|_| die("--seed expects an integer"))
            }
            "--weights" => {
                let v = value(args, &mut i, "--weights");
                o.weights = Some(
                    parse_weight_range(&v)
                        .unwrap_or_else(|| die("--weights expects LO:HI with 0 < LO <= HI")),
                );
            }
            "--scale" => {
                let v = value(args, &mut i, "--scale");
                o.scale = Some(
                    pp_bench::experiments::parse_scale(&v)
                        .unwrap_or_else(|| die("--scale expects test|small|medium")),
                );
            }
            "--reorder" => {
                let v = value(args, &mut i, "--reorder");
                if v != "degree" && v != "bfs" {
                    die("--reorder expects degree|bfs");
                }
                o.reorder = Some(v);
            }
            "--min-vertices" => {
                o.min_vertices = value(args, &mut i, "--min-vertices")
                    .parse()
                    .unwrap_or_else(|_| die("--min-vertices expects an integer"))
            }
            "--threads" => {
                o.threads = value(args, &mut i, "--threads")
                    .parse()
                    .unwrap_or_else(|_| die("--threads expects an integer"))
            }
            "--direction" => o.direction = Some(value(args, &mut i, "--direction")),
            "--mode" => o.mode = Some(value(args, &mut i, "--mode")),
            "--source" => {
                o.source = value(args, &mut i, "--source")
                    .parse()
                    .unwrap_or_else(|_| die("--source expects a vertex id"))
            }
            "--sources" => {
                o.sources = value(args, &mut i, "--sources")
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse()
                            .unwrap_or_else(|_| die("--sources expects comma-separated vertex ids"))
                    })
                    .collect()
            }
            "--lp-iters" => {
                o.lp_iters = value(args, &mut i, "--lp-iters")
                    .parse()
                    .ok()
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| die("--lp-iters expects a positive integer"))
            }
            "--bc-sources" => {
                let k: usize = value(args, &mut i, "--bc-sources")
                    .parse()
                    .unwrap_or_else(|_| die("--bc-sources expects an integer (0 = all)"));
                o.bc_sources = (k > 0).then_some(k);
            }
            "--json" => o.json = Some(value(args, &mut i, "--json")),
            "--trace" => o.trace = Some(value(args, &mut i, "--trace")),
            "--metrics" => o.metrics = Some(value(args, &mut i, "--metrics")),
            "--port" => {
                o.port = Some(
                    value(args, &mut i, "--port")
                        .parse()
                        .unwrap_or_else(|_| die("--port expects a port number")),
                )
            }
            "--workers" => {
                o.workers = value(args, &mut i, "--workers")
                    .parse()
                    .ok()
                    .filter(|&w| w >= 1)
                    .unwrap_or_else(|| die("--workers expects a positive integer"))
            }
            "--queue" => {
                o.queue = value(args, &mut i, "--queue")
                    .parse()
                    .ok()
                    .filter(|&q| q >= 1)
                    .unwrap_or_else(|| die("--queue expects a positive integer"))
            }
            "--connect" => o.connect = Some(value(args, &mut i, "--connect")),
            "--stats" => o.meta_op = Some("stats"),
            "--metrics-op" => o.meta_op = Some("metrics"),
            "--ping" => o.meta_op = Some("ping"),
            "--shutdown" => o.meta_op = Some("shutdown"),
            "--prom" => o.prom = true,
            "--trace-queries" => o.trace_queries = Some(value(args, &mut i, "--trace-queries")),
            "--imbalance-threshold" => {
                o.imbalance_threshold = value(args, &mut i, "--imbalance-threshold")
                    .parse()
                    .ok()
                    .filter(|x: &f64| x.is_finite() && *x >= 1.0)
                    .unwrap_or_else(|| die("--imbalance-threshold expects a number >= 1.0"))
            }
            "--no-direction-check" => o.direction_check = false,
            "--interval" => {
                o.interval_s = value(args, &mut i, "--interval")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| die("--interval expects a positive number of seconds"))
            }
            "--once" => o.once = true,
            flag if flag.starts_with("--") => die(&format!("unknown option: {flag}")),
            positional => o.positional.push(positional.to_string()),
        }
        i += 1;
    }
    o
}

fn parse_weight_range(s: &str) -> Option<(Weight, Weight)> {
    let (lo, hi) = s.split_once(':')?;
    let (lo, hi): (Weight, Weight) = (lo.parse().ok()?, hi.parse().ok()?);
    (lo > 0 && lo <= hi).then_some((lo, hi))
}

// ------------------------------------------------------------------- I/O

/// Reads a positional input path (`None`/`-` = stdin) fully into memory.
fn read_input(path: Option<&str>) -> Vec<u8> {
    let mut bytes = Vec::new();
    match path {
        None | Some("-") => {
            std::io::stdin()
                .read_to_end(&mut bytes)
                .unwrap_or_else(|e| die(&format!("failed to read stdin: {e}")));
        }
        Some(p) => {
            bytes = std::fs::read(p).unwrap_or_else(|e| die(&format!("failed to read {p}: {e}")));
        }
    }
    bytes
}

/// Sniffs and loads a graph from raw bytes: `.ppg` by magic, text edge
/// list otherwise (parsed on `engine`'s pool).
fn load_graph(engine: &Engine, bytes: &[u8], min_vertices: usize) -> Result<CsrGraph, String> {
    if snapshot::is_ppg(bytes) {
        snapshot::load_ppg(bytes).map_err(|e| e.to_string())
    } else {
        ingest::read_edge_list_parallel(engine, bytes, min_vertices).map_err(|e| e.to_string())
    }
}

/// The on-disk format of already-loaded input bytes.
fn input_format(bytes: &[u8]) -> &'static str {
    if snapshot::is_ppg(bytes) {
        "ppg"
    } else {
        "edges"
    }
}

fn write_output(out: Option<&str>, f: impl FnOnce(&mut dyn Write) -> std::io::Result<()>) {
    let result = match out {
        None | Some("-") => {
            let stdout = std::io::stdout();
            let mut w = std::io::BufWriter::new(stdout.lock());
            f(&mut w).and_then(|()| w.flush())
        }
        Some(p) => std::fs::File::create(p)
            .map(std::io::BufWriter::new)
            .and_then(|mut w| f(&mut w).and_then(|()| w.flush())),
    };
    result.unwrap_or_else(|e| die(&format!("failed to write output: {e}")));
}

fn emit_graph(g: &CsrGraph, format: &str, out: Option<&str>) {
    match format {
        "ppg" => write_output(out, |w| snapshot::save_ppg(g, w)),
        "edges" => write_output(out, |w| gio::write_edge_list(g, w)),
        other => die(&format!("unknown format: {other} (expected edges|ppg)")),
    }
}

fn apply_reorder(g: CsrGraph, which: Option<&str>) -> CsrGraph {
    match which {
        None => g,
        Some("degree") => reorder::apply_permutation(&g, &reorder::degree_order(&g)),
        Some("bfs") => reorder::apply_permutation(&g, &reorder::bfs_order(&g, 0)),
        Some(other) => die(&format!("unknown reorder: {other}")),
    }
}

// ------------------------------------------------------------------- gen

fn cmd_gen(args: &[String]) {
    let o = parse_opts(args);
    let mut pos = o.positional.iter().map(String::as_str);
    let family = pos.next().unwrap_or_else(|| die("gen: missing family"));
    let mut num = {
        let params: Vec<String> = pos.map(str::to_string).collect();
        let mut i = 0;
        move |name: &str| -> Option<f64> {
            let v = params
                .get(i)?
                .parse()
                .ok()
                .or_else(|| die(&format!("gen {family}: parameter {name} must be numeric")));
            i += 1;
            v
        }
    };
    let req = |v: Option<f64>, name: &str| -> usize {
        v.unwrap_or_else(|| die(&format!("gen: missing parameter <{name}>"))) as usize
    };
    let g = match family {
        "rmat" => {
            let scale = req(num("scale"), "scale");
            let ef = req(num("edge_factor"), "edge_factor");
            gen::rmat(scale as u32, ef, o.seed)
        }
        "er" => gen::erdos_renyi(req(num("n"), "n"), req(num("m"), "m"), o.seed),
        "road" => {
            let rows = req(num("rows"), "rows");
            let cols = req(num("cols"), "cols");
            let keep = num("keep").unwrap_or(0.6);
            gen::road_grid(rows, cols, keep, o.seed)
        }
        "community" => {
            let k = req(num("k"), "k");
            let cs = req(num("cs"), "cs");
            let intra = req(num("intra"), "intra");
            let inter = req(num("inter"), "inter");
            gen::community(k, cs, intra, inter, o.seed)
        }
        "ba" => gen::barabasi_albert(req(num("n"), "n"), req(num("m_per_vertex"), "m"), o.seed),
        "ws" => {
            let n = req(num("n"), "n");
            let k = req(num("k"), "k");
            let beta = num("beta").unwrap_or_else(|| die("gen ws: missing <beta>"));
            gen::watts_strogatz(n, k, beta, o.seed)
        }
        "bipartite" => {
            let left = req(num("left"), "left");
            let right = req(num("right"), "right");
            let m = req(num("m"), "m");
            gen::bipartite(left, right, m, o.seed)
        }
        "path" => gen::path(req(num("n"), "n")),
        "cycle" => gen::cycle(req(num("n"), "n")),
        "star" => gen::star(req(num("n"), "n")),
        "complete" => gen::complete(req(num("n"), "n")),
        "tree" => gen::binary_tree(req(num("n"), "n")),
        "dataset" => {
            let id = o
                .positional
                .get(1)
                .unwrap_or_else(|| die("gen dataset: missing id (orc|pok|ljn|am|rca)"));
            let ds = Dataset::ALL
                .into_iter()
                .find(|d| d.id() == id)
                .unwrap_or_else(|| die(&format!("unknown dataset: {id}")));
            ds.generate(o.scale.unwrap_or(Scale::Test))
        }
        other => die(&format!("unknown family: {other}\n\n{USAGE}")),
    };
    let g = match o.weights {
        Some((lo, hi)) => gen::with_random_weights(&g, lo, hi, o.seed ^ 0x5eed),
        None => g,
    };
    emit_graph(&g, o.format.as_deref().unwrap_or("edges"), o.out.as_deref());
}

// --------------------------------------------------------------- convert

fn cmd_convert(args: &[String]) {
    let o = parse_opts(args);
    if o.positional.len() > 1 {
        die("convert: at most one input path");
    }
    let bytes = read_input(o.positional.first().map(String::as_str));
    let engine = Engine::new(o.threads);
    let g = load_graph(&engine, &bytes, o.min_vertices).unwrap_or_else(|e| die(&e));
    let g = apply_reorder(g, o.reorder.as_deref());
    // Default to the opposite of the input format: `convert` with no flags
    // is "turn my download into a snapshot" (and back).
    let format = o.format.clone().unwrap_or_else(|| {
        if input_format(&bytes) == "ppg" {
            "edges".to_string()
        } else {
            "ppg".to_string()
        }
    });
    emit_graph(&g, &format, o.out.as_deref());
}

// ----------------------------------------------------------------- stats

fn cmd_stats(args: &[String]) {
    let o = parse_opts(args);
    let bytes = read_input(o.positional.first().map(String::as_str));
    let engine = Engine::new(o.threads);
    let g = load_graph(&engine, &bytes, o.min_vertices).unwrap_or_else(|e| die(&e));
    let s = stats::stats(&g);
    println!("format:        {}", input_format(&bytes));
    println!("vertices:      {}", s.n);
    println!("edges:         {}", s.m);
    println!("weighted:      {}", g.is_weighted());
    println!("directed:      {}", g.is_directed());
    println!("avg degree:    {:.2}", s.avg_degree);
    println!("max degree:    {}", s.max_degree);
    println!("components:    {}", stats::num_components(&g));
    println!("diameter >=:   {}", s.diameter_lb);
}

// ------------------------------------------------------------------- run

fn policy_of(name: &str) -> DirectionPolicy {
    match name {
        "push" => DirectionPolicy::Fixed(Direction::Push),
        "pull" => DirectionPolicy::Fixed(Direction::Pull),
        "adaptive" => DirectionPolicy::adaptive(),
        other => die(&format!("unknown direction: {other} (push|pull|adaptive)")),
    }
}

fn mode_of(name: &str) -> ExecutionMode {
    match name {
        "atomic" => ExecutionMode::Atomic,
        "pa" => ExecutionMode::PartitionAware,
        other => die(&format!("unknown mode: {other} (atomic|pa)")),
    }
}

fn cmd_run(args: &[String]) {
    let o = parse_opts(args);
    let mut pos = o.positional.iter().map(String::as_str);
    let algo = pos
        .next()
        .unwrap_or_else(|| die("run: missing algorithm name (see `ppgraph algos`)"));
    let spec = registry::find(algo)
        .unwrap_or_else(|| die(&format!("unknown algorithm: {algo} (see `ppgraph algos`)")));
    let input = pos.next();
    if pos.next().is_some() {
        die("run: at most one input path");
    }

    let bytes = read_input(input);
    let engine = Engine::new(o.threads);
    let load_start = Instant::now();
    let g = load_graph(&engine, &bytes, o.min_vertices).unwrap_or_else(|e| die(&e));
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;
    let g = apply_reorder(g, o.reorder.as_deref());
    let g = if spec.needs_weights && !g.is_weighted() {
        let (lo, hi) = o.weights.unwrap_or((1, 64));
        gen::with_random_weights(&g, lo, hi, o.seed ^ 0x5eed)
    } else {
        g
    };
    if g.num_vertices() == 0 {
        die("run: the input graph has no vertices");
    }

    let policy_name = o.direction.as_deref().unwrap_or("adaptive");
    let mode_name = o.mode.as_deref().unwrap_or("atomic");
    // Observability level: --trace needs the per-round × per-worker
    // substrate, --metrics alone needs timing, neither keeps today's
    // zero-overhead NullProbe path untouched.
    let level = if o.trace.is_some() {
        MetricsLevel::Trace
    } else if o.metrics.is_some() {
        MetricsLevel::Timing
    } else {
        MetricsLevel::Off
    };
    let run_start = Instant::now();
    let (run, counts) = if level == MetricsLevel::Off {
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let cfg = RunConfig {
            policy: policy_of(policy_name),
            mode: mode_of(mode_name),
            source: o.source,
            sources: o.sources.clone(),
            lp_iters: o.lp_iters,
            bc_sources: o.bc_sources,
            ..RunConfig::new(&engine, &probes)
        };
        (
            spec.try_run(&cfg, &g)
                .unwrap_or_else(|e| die(&format!("run: {e}"))),
            None,
        )
    } else {
        // Observed runs count events too: one run yields timing AND the
        // Table-1 counters for the metrics file.
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let cfg = RunConfig {
            policy: policy_of(policy_name),
            mode: mode_of(mode_name),
            collect: level,
            source: o.source,
            sources: o.sources.clone(),
            lp_iters: o.lp_iters,
            bc_sources: o.bc_sources,
            ..RunConfig::new(&engine, &probes)
        };
        let spec = registry::find_counting(algo).expect("the registry tables mirror each other");
        let run = spec
            .try_run(&cfg, &g)
            .unwrap_or_else(|e| die(&format!("run: {e}")));
        (run, Some(probes.merged()))
    };
    let ms = run_start.elapsed().as_secs_f64() * 1e3;

    // Human-readable account. When the JSON goes to stdout it must be the
    // only thing there (the CI smoke pipes it into a parser), so the
    // narrative moves to stderr.
    let json_to_stdout = o.json.as_deref() == Some("-");
    let mut narrate: Box<dyn Write> = if json_to_stdout {
        Box::new(std::io::stderr())
    } else {
        Box::new(std::io::stdout())
    };
    let dataset = input.filter(|p| *p != "-").unwrap_or("<stdin>");
    let _ = writeln!(
        narrate,
        "{} on {} (n={}, m={}): load {:.1} ms, run {:.1} ms \
         [{} threads, {policy_name}, {mode_name}]",
        spec.name,
        dataset,
        g.num_vertices(),
        g.num_edges(),
        load_ms,
        ms,
        engine.threads(),
    );
    for (k, v) in &run.summary {
        let _ = writeln!(narrate, "  {k}: {v}");
    }
    let _ = writeln!(
        narrate,
        "  rounds: {} ({} push / {} pull), phases: {}, |E_F| total: {}",
        run.report.num_rounds(),
        run.report.push_rounds(),
        run.report.pull_rounds(),
        run.report.phases,
        run.report.edges_traversed(),
    );
    if level.times() {
        let _ = writeln!(
            narrate,
            "  timed: {:.3} ms in rounds ({:.3} ms elapsed), {} switches, \
             imbalance {:.2}x",
            run.report.round_duration_ns() as f64 / 1e6,
            run.report.elapsed_ns as f64 / 1e6,
            run.report.switches(),
            run.report.imbalance(),
        );
    }

    let j = RunJson {
        dataset,
        algo: spec.name,
        policy: policy_name,
        mode: mode_name,
        threads: engine.threads(),
        n: g.num_vertices(),
        m: g.num_edges(),
        ms,
        load_ms,
        sources: &o.sources,
        run: &run,
    };
    if let Some(path) = o.json.as_deref() {
        let doc = render_run_json(&j);
        write_output(Some(path), |w| w.write_all(doc.as_bytes()));
        if path != "-" {
            let _ = writeln!(narrate, "wrote JSON report to {path}");
        }
    }
    if let Some(path) = o.trace.as_deref() {
        let trace = run
            .report
            .chrome_trace(&format!("{} {policy_name}", spec.name));
        write_output(Some(path), |w| trace.write(w));
        if path != "-" {
            let _ = writeln!(
                narrate,
                "wrote Chrome trace to {path} ({} events; load in chrome://tracing)",
                trace.len()
            );
        }
    }
    if let Some(path) = o.metrics.as_deref() {
        let doc = render_metrics_json(&j, &counts.unwrap_or_default());
        write_output(Some(path), |w| w.write_all(doc.as_bytes()));
        if path != "-" {
            let _ = writeln!(
                narrate,
                "wrote metrics to {path} (render with `ppgraph report {path}`)"
            );
        }
    }
}

/// Everything the JSON report serializes.
struct RunJson<'a> {
    dataset: &'a str,
    algo: &'a str,
    policy: &'a str,
    mode: &'a str,
    threads: usize,
    n: usize,
    m: usize,
    ms: f64,
    load_ms: f64,
    /// The configured `--sources` batch, verbatim (order and duplicates
    /// preserved); empty for single-source runs.
    sources: &'a [VertexId],
    run: &'a AlgoRun,
}

/// The sections `--json` and `--metrics` share: one `rows` record
/// (`dataset`/`mode`/`algo`/`threads`/`ms`) naming what ran and how long
/// it took; `graph` and `summary` carry the input's shape and the run's
/// output digest.
fn push_common_sections(out: &mut String, j: &RunJson<'_>) {
    out.push_str("  \"experiment\": \"ppgraph\",\n");
    out.push_str(&format!(
        "  \"rows\": [\n    {{\"dataset\": \"{}\", \"mode\": \"{}\", \"algo\": \"{} {}\", \
         \"threads\": {}, \"ms\": {:.3}}}\n  ],\n",
        json::escape(j.dataset),
        json::escape(j.mode),
        json::escape(j.algo),
        json::escape(j.policy),
        j.threads,
        j.ms
    ));
    out.push_str(&format!(
        "  \"graph\": {{\"n\": {}, \"m\": {}, \"load_ms\": {:.3}}},\n",
        j.n, j.m, j.load_ms
    ));
    // Batched runs echo the configured --sources verbatim (order and
    // duplicates preserved) so downstream tooling can line responses up
    // with what was asked for.
    if !j.sources.is_empty() {
        out.push_str("  \"sources\": [");
        for (i, s) in j.sources.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&s.to_string());
        }
        out.push_str("],\n");
    }
    out.push_str("  \"summary\": {");
    for (i, (k, v)) in j.run.summary.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", json::escape(k), json::escape(v)));
    }
    out.push_str("},\n");
}

fn push_report_object(out: &mut String, j: &RunJson<'_>, extended: bool) {
    let r = &j.run.report;
    out.push_str(&format!(
        "  \"report\": {{\"rounds\": {}, \"phases\": {}, \"push_rounds\": {}, \
         \"pull_rounds\": {}, \"edges_traversed\": {}, \"remote_updates\": {}, \
         \"max_buffer_peak\": {}",
        r.num_rounds(),
        r.phases,
        r.push_rounds(),
        r.pull_rounds(),
        r.edges_traversed(),
        r.remote_updates(),
        r.max_buffer_peak()
    ));
    if extended {
        out.push_str(&format!(
            ", \"elapsed_ns\": {}, \"round_duration_ns\": {}, \"push_ns\": {}, \
             \"pull_ns\": {}, \"switches\": {}, \"imbalance\": {:.4}",
            r.elapsed_ns,
            r.round_duration_ns(),
            r.dir_duration_ns(Direction::Push),
            r.dir_duration_ns(Direction::Pull),
            r.switches(),
            r.imbalance()
        ));
    }
    out.push('}');
}

/// Renders the `--json` run report (rows + graph + summary + aggregate
/// report — the PR-5 shape, unchanged).
fn render_run_json(j: &RunJson<'_>) -> String {
    let mut out = String::from("{\n");
    push_common_sections(&mut out, j);
    push_report_object(&mut out, j, false);
    out.push_str("\n}\n");
    out
}

/// Renders the `--metrics` document: the common sections plus the timed
/// report aggregates, round-duration percentiles, Table-1 event counts,
/// per-worker laps, and one record per round with its policy decision —
/// everything `ppgraph report` renders back.
fn render_metrics_json(j: &RunJson<'_>, counts: &EventCounts) -> String {
    let r = &j.run.report;
    let mut out = String::from("{\n");
    push_common_sections(&mut out, j);
    push_report_object(&mut out, j, true);
    out.push_str(",\n");
    let h = r.round_histogram();
    out.push_str(&format!(
        "  \"timing\": {{\"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
         \"max_ns\": {}}},\n",
        h.p50(),
        h.p95(),
        h.p99(),
        h.max()
    ));
    out.push_str(&format!(
        "  \"counts\": {{\"reads\": {}, \"writes\": {}, \"atomics\": {}, \"locks\": {}, \
         \"branches_cond\": {}, \"branches_uncond\": {}, \"barriers\": {}, \
         \"remote_sends\": {}, \"l1_misses\": {}, \"l2_misses\": {}, \"l3_misses\": {}, \
         \"dtlb_misses\": {}}},\n",
        counts.reads,
        counts.writes,
        counts.atomics,
        counts.locks,
        counts.branches_cond,
        counts.branches_uncond,
        counts.barriers,
        counts.remote_sends,
        counts.l1_misses,
        counts.l2_misses,
        counts.l3_misses,
        counts.dtlb_misses
    ));
    out.push_str("  \"workers\": [\n");
    for (w, lap) in r.worker_laps.iter().enumerate() {
        let comma = if w + 1 < r.worker_laps.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"worker\": {w}, \"busy_ns\": {}, \"idle_ns\": {}, \
             \"chunks\": {}}}{comma}\n",
            lap.busy_ns, lap.idle_ns, lap.chunks_claimed
        ));
    }
    out.push_str("  ],\n");
    // The per-source axis of a batched run: how long each lane stayed
    // active and the depth it reached.
    if !r.sources.is_empty() {
        out.push_str("  \"source_stats\": [\n");
        for (i, s) in r.sources.iter().enumerate() {
            let comma = if i + 1 < r.sources.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"source\": {}, \"rounds_active\": {}, \"depth\": {}}}{comma}\n",
                s.source, s.rounds_active, s.depth
            ));
        }
        out.push_str("  ],\n");
    }
    out.push_str("  \"rounds\": [\n");
    for (i, s) in r.rounds.iter().enumerate() {
        let comma = if i + 1 < r.rounds.len() { "," } else { "" };
        let dir = match s.dir {
            Direction::Push => "push",
            Direction::Pull => "pull",
        };
        out.push_str(&format!(
            "    {{\"round\": {}, \"phase\": {}, \"dir\": \"{dir}\", \"frontier\": {}, \
             \"frontier_edges\": {}, \"duration_ns\": {}, \"remote_updates\": {}, \
             \"buffer_peak\": {}, \"lanes_active\": {}, ",
            s.round,
            s.phase,
            s.frontier,
            s.frontier_edges,
            s.duration_ns,
            s.remote_updates,
            s.buffer_peak,
            s.lanes_active
        ));
        match s.decision {
            Some(d) => out.push_str(&format!(
                "\"decision\": {{\"share\": {:.6}, \"threshold\": {:.6}, \
                 \"switched\": {}}}",
                d.observed_share, d.threshold, d.switched
            )),
            None => out.push_str("\"decision\": null"),
        }
        if let Some(busy) = r.round_worker_busy.get(i) {
            out.push_str(", \"workers_busy_ns\": [");
            for (w, b) in busy.iter().enumerate() {
                if w > 0 {
                    out.push_str(", ");
                }
                out.push_str(&b.to_string());
            }
            out.push(']');
        }
        out.push_str(&format!("}}{comma}\n"));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------- report

fn cmd_report(args: &[String]) {
    let o = parse_opts(args);
    if o.positional.len() > 1 {
        die("report: at most one metrics file");
    }
    let bytes = read_input(o.positional.first().map(String::as_str));
    let text = String::from_utf8(bytes).unwrap_or_else(|_| die("report: input is not UTF-8"));
    let doc = json::parse(&text).unwrap_or_else(|e| die(&format!("report: bad JSON: {e}")));
    let thresholds = ReportThresholds {
        imbalance: o.imbalance_threshold,
        direction_check: o.direction_check,
    };
    let rendered =
        render_report(&doc, &thresholds).unwrap_or_else(|e| die(&format!("report: {e}")));
    print!("{rendered}");
}

/// Anomaly knobs for [`render_report`]: the flag-promoted thresholds with
/// the historical hardcoded values as defaults.
struct ReportThresholds {
    /// Flag worker load imbalance above this many × (max busy vs. mean).
    imbalance: f64,
    /// Whether to flag per-round direction decisions against the Beamer
    /// window at all (`--no-direction-check` clears it).
    direction_check: bool,
}

impl Default for ReportThresholds {
    fn default() -> Self {
        Self {
            imbalance: 2.0,
            direction_check: true,
        }
    }
}

/// Flags a policy decision that contradicts the Beamer window the adaptive
/// policy operates: pushing a frontier whose share is above the pull
/// threshold (`1/α`), or pulling one below the push threshold (`1/(αβ)`).
/// For adaptive runs a flag means hysteresis lag (one round of lag is
/// normal right at a crossing; persistent flags are not); for fixed
/// schedules it marks rounds where the forced direction disagrees with
/// what the frontier called for.
fn decision_anomaly(dir: &str, share: f64) -> Option<String> {
    let pull_above = 1.0 / BEAMER_ALPHA;
    let push_below = 1.0 / (BEAMER_ALPHA * BEAMER_BETA);
    match dir {
        "push" if share > pull_above => Some(format!(
            "pushed at share {share:.4} > 1/α = {pull_above:.4} (pull territory)"
        )),
        "pull" if share < push_below => Some(format!(
            "pulled at share {share:.4} < 1/αβ = {push_below:.4} (push territory)"
        )),
        _ => None,
    }
}

/// Renders a parsed `--metrics` document as the per-round table with an
/// anomaly section. Pure (string in, string out) so tests can round-trip
/// `render_metrics_json` through the parser and back.
fn render_report(doc: &Value, thresholds: &ReportThresholds) -> Result<String, String> {
    let row = doc
        .get("rows")
        .and_then(Value::arr)
        .and_then(<[Value]>::first)
        .ok_or("missing rows[0] — is this a `ppgraph run --metrics` file?")?;
    let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or(Value::Null);
    let mut out = String::new();
    let mut anomalies: Vec<String> = Vec::new();

    out.push_str(&format!(
        "{} on {} [{} threads, mode {}]: {} ms\n",
        field(row, "algo").str().unwrap_or("?"),
        field(row, "dataset").str().unwrap_or("?"),
        field(row, "threads").u64().unwrap_or(0),
        field(row, "mode").str().unwrap_or("?"),
        field(row, "ms").num().unwrap_or(0.0),
    ));
    if let Some(graph) = doc.get("graph") {
        out.push_str(&format!(
            "graph: n = {}, m = {}\n",
            field(graph, "n").u64().unwrap_or(0),
            field(graph, "m").u64().unwrap_or(0)
        ));
    }
    let report = doc.get("report").ok_or("missing report object")?;
    out.push_str(&format!(
        "report: {} rounds ({} push / {} pull), {} phases, {} switches, \
         {:.3} ms in rounds, imbalance {:.2}x\n",
        field(report, "rounds").u64().unwrap_or(0),
        field(report, "push_rounds").u64().unwrap_or(0),
        field(report, "pull_rounds").u64().unwrap_or(0),
        field(report, "phases").u64().unwrap_or(0),
        field(report, "switches").u64().unwrap_or(0),
        field(report, "round_duration_ns").num().unwrap_or(0.0) / 1e6,
        field(report, "imbalance").num().unwrap_or(0.0),
    ));
    if let Some(t) = doc.get("timing") {
        out.push_str(&format!(
            "round durations: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms\n",
            field(t, "p50_ns").num().unwrap_or(0.0) / 1e6,
            field(t, "p95_ns").num().unwrap_or(0.0) / 1e6,
            field(t, "p99_ns").num().unwrap_or(0.0) / 1e6,
        ));
    }

    let rounds = doc
        .get("rounds")
        .and_then(Value::arr)
        .ok_or("missing rounds array")?;
    out.push_str("\n round  phase  dir   |F|        |E_F|      dur_ms     share      switch\n");
    for r in rounds {
        let dir = field(r, "dir").str().unwrap_or("?").to_string();
        let decision = r.get("decision").cloned().unwrap_or(Value::Null);
        let (share_txt, switch_txt) = match &decision {
            Value::Obj(_) => {
                let share = field(&decision, "share").num().unwrap_or(0.0);
                let switched = field(&decision, "switched").bool().unwrap_or(false);
                if thresholds.direction_check {
                    if let Some(a) = decision_anomaly(&dir, share) {
                        anomalies.push(format!(
                            "round {}: {a}",
                            field(r, "round").u64().unwrap_or(0)
                        ));
                    }
                }
                (format!("{share:.4}"), if switched { "*" } else { "" })
            }
            _ => ("-".to_string(), ""),
        };
        out.push_str(&format!(
            " {:<6} {:<6} {:<5} {:<10} {:<10} {:<10.3} {:<10} {}\n",
            field(r, "round").u64().unwrap_or(0),
            field(r, "phase").u64().unwrap_or(0),
            dir,
            field(r, "frontier").u64().unwrap_or(0),
            field(r, "frontier_edges").u64().unwrap_or(0),
            field(r, "duration_ns").num().unwrap_or(0.0) / 1e6,
            share_txt,
            switch_txt,
        ));
    }

    if let Some(workers) = doc.get("workers").and_then(Value::arr) {
        out.push_str("\n worker  busy_ms    idle_ms    chunks     util\n");
        for w in workers {
            let busy = field(w, "busy_ns").num().unwrap_or(0.0);
            let idle = field(w, "idle_ns").num().unwrap_or(0.0);
            let util = if busy + idle > 0.0 {
                busy / (busy + idle)
            } else {
                0.0
            };
            out.push_str(&format!(
                " {:<7} {:<10.3} {:<10.3} {:<10} {:.0}%\n",
                field(w, "worker").u64().unwrap_or(0),
                busy / 1e6,
                idle / 1e6,
                field(w, "chunks").u64().unwrap_or(0),
                util * 100.0,
            ));
        }
    }
    let imbalance = field(report, "imbalance").num().unwrap_or(0.0);
    if imbalance > thresholds.imbalance {
        anomalies.push(format!(
            "worker load imbalance {imbalance:.2}x exceeds {:.1}x (max busy vs. mean busy)",
            thresholds.imbalance
        ));
    }

    if anomalies.is_empty() {
        out.push_str("\nno anomalies\n");
    } else {
        out.push_str(&format!("\nanomalies ({}):\n", anomalies.len()));
        for a in &anomalies {
            out.push_str(&format!("  - {a}\n"));
        }
    }
    Ok(out)
}

// ----------------------------------------------------------------- serve

fn cmd_serve(args: &[String]) {
    let o = parse_opts(args);
    let mut pos = o.positional.iter().map(String::as_str);
    let input = pos.next();
    if pos.next().is_some() {
        die("serve: at most one input path");
    }
    let from_stdin = matches!(input, None | Some("-"));
    if from_stdin && o.port.is_none() {
        die("serve: without --port, queries arrive on stdin, so the graph must be a file path");
    }

    let bytes = read_input(input);
    let load_engine = Engine::new(0);
    let load_start = Instant::now();
    let g = load_graph(&load_engine, &bytes, o.min_vertices).unwrap_or_else(|e| die(&e));
    drop(bytes);
    drop(load_engine);
    // Unweighted inputs get the same deterministic weights `ppgraph run`
    // would attach, so all ten algorithms are servable from one resident
    // graph.
    let g = if g.is_weighted() {
        g
    } else {
        let (lo, hi) = o.weights.unwrap_or((1, 64));
        gen::with_random_weights(&g, lo, hi, o.seed ^ 0x5eed)
    };
    if g.num_vertices() == 0 {
        die("serve: the input graph has no vertices");
    }
    let load_ms = load_start.elapsed().as_secs_f64() * 1e3;

    let name = input.filter(|p| *p != "-").unwrap_or("<stdin>").to_string();
    let cfg = ServeConfig {
        workers: o.workers,
        // Unlike `run` (0 = hardware parallelism), each of the serve
        // workers defaults to a single engine thread: throughput comes
        // from concurrent queries, not from one wide query.
        threads: o.threads.max(1),
        queue: o.queue,
        name: name.clone(),
        trace_queries: o.trace_queries.clone(),
        ..ServeConfig::default()
    };
    eprintln!(
        "serving {name} (n={}, m={}; loaded in {load_ms:.1} ms): \
         {} workers x {} threads, queue {}",
        g.num_vertices(),
        g.num_edges(),
        cfg.workers,
        cfg.threads,
        cfg.queue,
    );
    let server = Server::new(g, cfg);
    let stats = match o.port {
        Some(port) => {
            let listener = std::net::TcpListener::bind(("127.0.0.1", port))
                .unwrap_or_else(|e| die(&format!("serve: cannot bind 127.0.0.1:{port}: {e}")));
            eprintln!(
                "listening on 127.0.0.1:{port}; stop with \
                 `ppgraph query --connect 127.0.0.1:{port} --shutdown`"
            );
            server.serve_tcp(listener)
        }
        None => {
            let stdin = std::io::stdin();
            server.serve_lines(stdin.lock(), std::io::stdout())
        }
    };
    // The final counters go to stderr so a stdio session's stdout stays
    // pure NDJSON responses.
    eprintln!("{}", pp_serve::protocol::render_stats(&stats));
}

// ----------------------------------------------------------------- query

fn cmd_query(args: &[String]) {
    let o = parse_opts(args);
    if !o.positional.is_empty() {
        die("query: unexpected positional arguments");
    }
    let addr = o.connect.as_deref().unwrap_or("127.0.0.1:7878");
    let mut client = Client::connect(addr)
        .unwrap_or_else(|e| die(&format!("query: cannot connect to {addr}: {e}")));

    if o.prom {
        // Scrape adapter: unwrap the metrics meta-query's body field and
        // print the raw Prometheus text (pipe to a .prom file or a
        // node_exporter textfile directory).
        let resp = client
            .request("{\"op\": \"metrics\"}")
            .unwrap_or_else(|e| die(&format!("query: transport error: {e}")));
        let doc = json::parse(&resp)
            .unwrap_or_else(|e| die(&format!("query: unparseable metrics response: {e}")));
        let body = doc
            .get("body")
            .and_then(Value::str)
            .unwrap_or_else(|| die("query: metrics response has no body field"));
        print!("{body}");
        return;
    }

    if let Some(op) = o.meta_op {
        let resp = client
            .request(&format!("{{\"op\": \"{op}\"}}"))
            .unwrap_or_else(|e| die(&format!("query: transport error: {e}")));
        println!("{resp}");
        return;
    }

    // Lock-step relay: one request line in, one response line out. An
    // ok:false response is data for the caller, not a client failure —
    // only transport errors exit nonzero.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line.unwrap_or_else(|e| die(&format!("query: failed to read stdin: {e}")));
        if line.trim().is_empty() {
            continue;
        }
        let resp = client
            .request(&line)
            .unwrap_or_else(|e| die(&format!("query: transport error: {e}")));
        println!("{resp}");
    }
}

// ------------------------------------------------------------------- top

/// The slice of a stats response `top` renders: enough to diff two polls
/// into rates and print the latency breakdown.
struct TopSample {
    uptime_s: f64,
    served: u64,
    rejected: u64,
    errors: u64,
    queue_depth: u64,
    queue_capacity: u64,
    doc: Value,
}

fn top_sample(client: &mut Client) -> Result<TopSample, String> {
    let resp = client
        .request("{\"op\": \"stats\"}")
        .map_err(|e| format!("transport error: {e}"))?;
    let doc = json::parse(&resp).map_err(|e| format!("unparseable stats response: {e}"))?;
    let num = |k: &str| doc.get(k).and_then(Value::num).unwrap_or(0.0);
    let int = |k: &str| doc.get(k).and_then(Value::u64).unwrap_or(0);
    let queue = doc.get("queue").cloned().unwrap_or(Value::Null);
    Ok(TopSample {
        uptime_s: num("uptime_s"),
        served: int("served"),
        rejected: int("rejected"),
        errors: int("errors"),
        queue_depth: queue.get("depth").and_then(Value::u64).unwrap_or(0),
        queue_capacity: queue.get("capacity").and_then(Value::u64).unwrap_or(0),
        doc,
    })
}

/// Renders one dashboard frame from the current sample and (when polling)
/// the previous one; pure so tests can feed it canned stats documents.
fn render_top_frame(addr: &str, cur: &TopSample, prev: Option<&TopSample>) -> String {
    let mut out = String::new();
    let field = |v: &Value, k: &str| v.get(k).cloned().unwrap_or(Value::Null);
    let total = cur.served + cur.rejected + cur.errors;
    // RPS: completions per second between polls; on the first (or only)
    // frame, the lifetime average.
    let (rps, basis) = match prev {
        Some(p) if cur.uptime_s > p.uptime_s => (
            (cur.served + cur.errors).saturating_sub(p.served + p.errors) as f64
                / (cur.uptime_s - p.uptime_s),
            "interval",
        ),
        _ if cur.uptime_s > 0.0 => ((cur.served + cur.errors) as f64 / cur.uptime_s, "lifetime"),
        _ => (0.0, "lifetime"),
    };
    let reject_rate = if total > 0 {
        cur.rejected as f64 / total as f64 * 100.0
    } else {
        0.0
    };
    let graph = field(&cur.doc, "graph");
    out.push_str(&format!(
        "pp-serve {addr} — {} (n={}, m={}), up {:.0}s\n",
        field(&graph, "dataset").str().unwrap_or("?"),
        field(&graph, "n").u64().unwrap_or(0),
        field(&graph, "m").u64().unwrap_or(0),
        cur.uptime_s,
    ));
    out.push_str(&format!(
        "rps {rps:.1} ({basis})  queue {}/{}  served {}  errors {}  rejected {} ({reject_rate:.1}%)\n",
        cur.queue_depth, cur.queue_capacity, cur.served, cur.errors, cur.rejected,
    ));
    if let Some(util) = cur.doc.get("workers_util").and_then(Value::arr) {
        out.push_str("workers ");
        for (w, u) in util.iter().enumerate() {
            out.push_str(&format!("[{w}] {:.0}%  ", u.num().unwrap_or(0.0) * 100.0));
        }
        out.push('\n');
    }
    // Servers without query coalescing (pre-batching) send no `batching`
    // object; skip the line rather than print zeros that mean "unknown".
    if let Some(b) = cur.doc.get("batching") {
        out.push_str(&format!(
            "batching {} runs  coalesced {} queries  max batch {}\n",
            field(b, "batches").u64().unwrap_or(0),
            field(b, "coalesced").u64().unwrap_or(0),
            field(b, "max_batch").u64().unwrap_or(0),
        ));
    }
    let window_s = field(&cur.doc, "window")
        .get("seconds")
        .and_then(Value::num)
        .unwrap_or(0.0);
    out.push_str(&format!(
        "\n algo       served     errors     queue p50/p95/p99 (ms)     run p50/p95/p99 (ms)   [last {window_s:.0}s]\n"
    ));
    let quantiles = |lat: &Value| {
        format!(
            "{:.3}/{:.3}/{:.3}",
            field(lat, "p50_ns").num().unwrap_or(0.0) / 1e6,
            field(lat, "p95_ns").num().unwrap_or(0.0) / 1e6,
            field(lat, "p99_ns").num().unwrap_or(0.0) / 1e6,
        )
    };
    if let Some(algos) = cur.doc.get("algos").and_then(Value::arr) {
        for a in algos {
            out.push_str(&format!(
                " {:<10} {:<10} {:<10} {:<25} {}\n",
                field(a, "algo").str().unwrap_or("?"),
                field(a, "served").u64().unwrap_or(0),
                field(a, "errors").u64().unwrap_or(0),
                quantiles(&field(a, "window_queue")),
                quantiles(&field(a, "window_run")),
            ));
        }
    }
    out
}

fn cmd_top(args: &[String]) {
    let o = parse_opts(args);
    if o.positional.len() > 1 {
        die("top: at most one HOST:PORT address");
    }
    let addr = o
        .positional
        .first()
        .map(String::as_str)
        .or(o.connect.as_deref())
        .unwrap_or("127.0.0.1:7878")
        .to_string();
    let mut client = Client::connect(&addr)
        .unwrap_or_else(|e| die(&format!("top: cannot connect to {addr}: {e}")));
    let mut prev: Option<TopSample> = None;
    loop {
        let cur = top_sample(&mut client).unwrap_or_else(|e| die(&format!("top: {e}")));
        let frame = render_top_frame(&addr, &cur, prev.as_ref());
        if o.once {
            print!("{frame}");
            return;
        }
        // Plain ANSI home+clear redraw — no TUI dependency.
        print!("\x1b[H\x1b[2J{frame}");
        let _ = std::io::stdout().flush();
        prev = Some(cur);
        std::thread::sleep(std::time::Duration::from_secs_f64(o.interval_s));
    }
}

// ----------------------------------------------------------------- algos

fn cmd_algos() {
    println!("algorithms (ppgraph run <name> [IN]):");
    for spec in registry::all() {
        let aliases = if spec.aliases.is_empty() {
            String::new()
        } else {
            format!(" (aka {})", spec.aliases.join(", "))
        };
        let weights = if spec.needs_weights {
            "  [weighted]"
        } else {
            ""
        };
        println!(
            "  {:<10}{aliases:<24}{}{weights}",
            spec.name, spec.description
        );
    }
    println!("\n[weighted]: unweighted inputs get deterministic random weights");
    println!("(override the range with --weights LO:HI)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_range_parsing() {
        assert_eq!(parse_weight_range("1:9"), Some((1, 9)));
        assert_eq!(parse_weight_range("5:5"), Some((5, 5)));
        assert_eq!(parse_weight_range("0:9"), None, "zero breaks Δ-stepping");
        assert_eq!(parse_weight_range("9:1"), None);
        assert_eq!(parse_weight_range("1"), None);
        assert_eq!(parse_weight_range("a:b"), None);
    }

    #[test]
    fn option_parser_collects_flags_and_positionals() {
        let args: Vec<String> = [
            "cc",
            "in.ppg",
            "--threads",
            "4",
            "--mode",
            "pa",
            "--json",
            "-",
            "--source",
            "7",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse_opts(&args);
        assert_eq!(o.positional, vec!["cc", "in.ppg"]);
        assert_eq!(o.threads, 4);
        assert_eq!(o.mode.as_deref(), Some("pa"));
        assert_eq!(o.json.as_deref(), Some("-"));
        assert_eq!(o.source, 7);
    }

    #[test]
    fn run_json_is_well_formed_and_row_compatible() {
        let g = gen::rmat(6, 4, 1);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let cfg = RunConfig::new(&engine, &probes);
        let run = registry::find("cc").unwrap().run(&cfg, &g);
        let doc = render_run_json(&RunJson {
            dataset: "test \"quoted\"",
            algo: "cc",
            policy: "adaptive",
            mode: "atomic",
            threads: 2,
            n: g.num_vertices(),
            m: g.num_edges(),
            ms: 1.25,
            load_ms: 0.5,
            sources: &[],
            run: &run,
        });
        assert!(doc.contains("\"experiment\": \"ppgraph\""));
        assert!(doc.contains("\"algo\": \"cc adaptive\""));
        assert!(doc.contains("\\\"quoted\\\""), "dataset name escaped");
        assert!(doc.contains("\"components\""));
        assert!(doc.contains("\"rounds\""));
        // Balanced braces/brackets (the smoke test parses this for real).
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
    }

    #[test]
    fn batched_run_json_echoes_sources_and_round_trips_through_report() {
        let g = gen::rmat(7, 6, 4);
        let engine = Engine::new(2);

        // --json: the configured batch appears verbatim (duplicate kept),
        // the summary digests follow lane (dedup) order.
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let mut cfg = RunConfig::new(&engine, &probes);
        cfg.sources = vec![3, 17, 3, 5];
        let run = registry::find("bfs").unwrap().try_run(&cfg, &g).unwrap();
        let doc = render_run_json(&RunJson {
            dataset: "rmat7",
            algo: "bfs",
            policy: "adaptive",
            mode: "atomic",
            threads: 2,
            n: g.num_vertices(),
            m: g.num_edges(),
            ms: 1.0,
            load_ms: 0.1,
            sources: &cfg.sources,
            run: &run,
        });
        assert!(
            doc.contains("\"sources\": [3, 17, 3, 5]"),
            "configured list verbatim: {doc}"
        );
        assert!(
            doc.contains("\"sources\": \"3,17,5\""),
            "lane-order summary"
        );
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());

        // --metrics: per-source stats and per-round lane counts survive a
        // parse + `ppgraph report` render.
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let mut cfg = RunConfig::new(&engine, &probes);
        cfg.collect = MetricsLevel::Timing;
        cfg.sources = vec![3, 17, 5];
        let run = registry::find_counting("bfs")
            .unwrap()
            .try_run(&cfg, &g)
            .unwrap();
        let doc = render_metrics_json(
            &RunJson {
                dataset: "rmat7",
                algo: "bfs",
                policy: "adaptive",
                mode: "atomic",
                threads: 2,
                n: g.num_vertices(),
                m: g.num_edges(),
                ms: 1.0,
                load_ms: 0.1,
                sources: &cfg.sources,
                run: &run,
            },
            &probes.merged(),
        );
        let parsed = json::parse(&doc).expect("batched metrics JSON parses");
        let stats = parsed.get("source_stats").unwrap().arr().unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats[0].get("source").unwrap().u64(), Some(3));
        let rounds = parsed.get("rounds").unwrap().arr().unwrap();
        assert!(rounds
            .iter()
            .any(|r| r.get("lanes_active").unwrap().u64().unwrap() > 1));
        let rendered = render_report(&parsed, &ReportThresholds::default())
            .expect("batched rows render through ppgraph report");
        assert!(rendered.contains("bfs adaptive on rmat7"));
    }

    #[test]
    fn metrics_json_round_trips_through_the_report_renderer() {
        let g = gen::rmat(7, 6, 4);
        let engine = Engine::new(2);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let mut cfg = RunConfig::new(&engine, &probes);
        cfg.collect = MetricsLevel::Trace;
        let run = registry::find_counting("bfs").unwrap().run(&cfg, &g);
        let doc = render_metrics_json(
            &RunJson {
                dataset: "rmat7",
                algo: "bfs",
                policy: "adaptive",
                mode: "atomic",
                threads: 2,
                n: g.num_vertices(),
                m: g.num_edges(),
                ms: 1.0,
                load_ms: 0.1,
                sources: &[],
                run: &run,
            },
            &probes.merged(),
        );
        let parsed = json::parse(&doc).expect("the metrics writer emits valid JSON");
        let rounds = parsed.get("rounds").unwrap().arr().unwrap();
        assert_eq!(rounds.len(), run.report.rounds.len());
        assert!(rounds
            .iter()
            .all(|r| r.get("duration_ns").unwrap().num().unwrap() > 0.0));
        // At Trace level every round carries the per-worker busy split.
        assert!(rounds.iter().all(|r| r
            .get("workers_busy_ns")
            .and_then(Value::arr)
            .is_some_and(|b| b.len() == engine.threads())));
        assert_eq!(
            parsed.get("workers").unwrap().arr().unwrap().len(),
            engine.threads()
        );
        assert!(parsed.get("counts").unwrap().get("reads").unwrap().u64() > Some(0));
        let rendered = render_report(&parsed, &ReportThresholds::default())
            .expect("the renderer reads its own format");
        assert!(rendered.contains("bfs adaptive on rmat7"));
        assert!(rendered.contains("round  phase  dir"));
        assert!(rendered.contains("worker  busy_ms"));
    }

    #[test]
    fn report_renderer_flags_contradictory_decisions_and_imbalance() {
        assert!(decision_anomaly("push", 0.5).is_some(), "share ≫ 1/α");
        assert!(decision_anomaly("pull", 0.0001).is_some(), "share ≪ 1/αβ");
        assert!(decision_anomaly("push", 0.001).is_none());
        assert!(decision_anomaly("pull", 0.5).is_none());
        // Hysteresis band: neither direction is anomalous between the
        // thresholds.
        let mid = 0.5 * (1.0 / BEAMER_ALPHA + 1.0 / (BEAMER_ALPHA * BEAMER_BETA));
        assert!(decision_anomaly("push", mid).is_none());
        assert!(decision_anomaly("pull", mid).is_none());

        let doc = json::parse(
            r#"{
              "rows": [{"dataset": "d", "mode": "atomic", "algo": "bfs fixed",
                        "threads": 2, "ms": 1.0}],
              "report": {"rounds": 1, "phases": 1, "push_rounds": 1,
                         "pull_rounds": 0, "switches": 0,
                         "round_duration_ns": 1000, "imbalance": 3.5},
              "rounds": [{"round": 0, "phase": 0, "dir": "push", "frontier": 9,
                          "frontier_edges": 900, "duration_ns": 1000,
                          "decision": {"share": 0.9, "threshold": 0.066,
                                       "switched": false}}]
            }"#,
        )
        .unwrap();
        let rendered = render_report(&doc, &ReportThresholds::default()).unwrap();
        assert!(rendered.contains("anomalies (2):"));
        assert!(rendered.contains("pull territory"));
        assert!(rendered.contains("imbalance 3.50x exceeds 2.0x"));

        // The promoted thresholds change what gets flagged: a looser
        // imbalance bar drops that anomaly, --no-direction-check drops
        // the Beamer-window one.
        let loose = render_report(
            &doc,
            &ReportThresholds {
                imbalance: 4.0,
                direction_check: true,
            },
        )
        .unwrap();
        assert!(loose.contains("anomalies (1):"));
        assert!(!loose.contains("exceeds"));
        let quiet = render_report(
            &doc,
            &ReportThresholds {
                imbalance: 4.0,
                direction_check: false,
            },
        )
        .unwrap();
        assert!(quiet.contains("no anomalies"));

        let bad = json::parse("{\"rows\": []}").unwrap();
        assert!(render_report(&bad, &ReportThresholds::default()).is_err());
    }

    #[test]
    fn graph_loading_sniffs_both_formats() {
        let g = gen::rmat(6, 4, 2);
        let engine = Engine::new(2);
        let mut ppg = Vec::new();
        snapshot::save_ppg(&g, &mut ppg).unwrap();
        let mut txt = Vec::new();
        gio::write_edge_list(&g, &mut txt).unwrap();
        assert_eq!(input_format(&ppg), "ppg");
        assert_eq!(input_format(&txt), "edges");
        assert_eq!(load_graph(&engine, &ppg, 0).unwrap(), g);
        assert_eq!(load_graph(&engine, &txt, 0).unwrap(), g);
        assert!(load_graph(&engine, b"0 1\n1 2 9\n", 0)
            .unwrap_err()
            .contains("mixes"));
    }

    #[test]
    fn reorder_preserves_structure() {
        let g = gen::rmat(6, 4, 3);
        for which in ["degree", "bfs"] {
            let h = apply_reorder(g.clone(), Some(which));
            assert_eq!(h.num_vertices(), g.num_vertices(), "{which}");
            assert_eq!(h.num_edges(), g.num_edges(), "{which}");
        }
    }
}
