//! One workload process: set-up, the timed phases, metric assembly.
//!
//! The untraced pass (`MetricsLevel::Off`, `NullProbe`, allocation
//! counting off) yields the end-to-end metrics; the traced pass
//! (`MetricsLevel::Timing` passes, one `CountingProbe` run per probe
//! algorithm, counting allocator, spans) yields the per-layer metrics and
//! the Chrome trace. Neither feeds the other.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pp_engine::registry::{self, RunConfig};
use pp_graph::snapshot;

use crate::input::{Input, Needs};
use crate::loadgen::{self, Phase, ServerHandle, Target};
use crate::ops::{algo_sample, cold_run, Detail, Look, Rig, Sched};
use crate::plan::{
    self, all_ops, Family, MetricDecl, Op, Traffic, Workload, ALGOS, MAX_THREADS, PROBES,
    RATE_STEPS, SLO_P95_MS,
};
use crate::report::{json_str, Row};
use crate::spans::Tracer;
use crate::stats::{median, percentile, summarize, tail_percentile, Summary};
use crate::{alloc, layers};

/// Times the load + construct part of set-up is repeated; `setup_s` uses
/// the median repetition.
const SETUP_REPS: usize = 3;
/// Fewest passes a full-size run reports a median over.
const MIN_PASSES: usize = 7;
/// Runs of each canary algorithm per pass (their mean is one sample).
const CANARY_REPEATS: usize = 4;
/// Timed and plain passes of the traced run (interleaved); after the
/// first pair the loop also stops once half of `--seconds` is spent.
const TRACED_PASSES: usize = 3;

pub struct Args {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny inputs, two passes: exercises the harness, numbers unusable.
    pub quick: bool,
    /// `out/<label>`: where part files and the trace go.
    pub out_dir: PathBuf,
}

pub struct Outcome {
    pub rows: Vec<Row>,
    pub attempted: u64,
    pub failed: u64,
    /// `results.json` settings of this run (values already JSON).
    pub meta: Vec<(String, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `T = min(available_parallelism, 4)`: the engine threads, serve workers
/// and closed-loop connections of every reading, end-to-end and per-layer
/// alike. Never more, so the load generator cannot oversubscribe the
/// machine it shares with the server.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(MAX_THREADS)
}

/// Serve workers, and the closed loop's lock-step connections.
fn serve_workers(w: &Workload) -> usize {
    if w.wide(Op::Serve) {
        threads()
    } else {
        1
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
    fn detail(&mut self, d: &Detail) {
        self.attempted += d.attempted;
        self.failed += d.failed;
    }
    fn phase(&mut self, p: &Phase) {
        self.attempted += p.attempted();
        self.failed += p.failed();
    }
}

/// Removes the process's scratch directory when the run ends, however.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything set-up leaves for the timed phases.
struct World {
    w: &'static Workload,
    quick: bool,
    sched: Sched,
    inputs: Vec<Input>,
    /// [`threads`] engine threads: the focus operations run on it.
    wide: Rig,
    /// One engine thread: canary and `narrow` operations run on it.
    narrow: Rig,
    server: Option<ServerHandle>,
    scratch: Scratch,
}

impl World {
    fn input(&self, op: Op) -> &Input {
        let family = self.w.input_of(op, self.quick);
        self.inputs
            .iter()
            .find(|i| i.family == family)
            .expect("set-up built every input of the plan")
    }

    fn rig(&self, op: Op) -> &Rig {
        if self.w.wide(op) {
            &self.wide
        } else {
            &self.narrow
        }
    }

    fn target(&self, epoch: Instant) -> Target<'_> {
        Target {
            addr: self
                .server
                .as_ref()
                .expect("set-up started the server")
                .addr,
            input: self.input(Op::Serve),
            params: self.w.query_params(),
            traffic: self.w.traffic,
            epoch,
        }
    }
}

fn needs_of(w: &Workload, family: Family, quick: bool) -> Needs {
    let mut needs = Needs::default();
    for op in all_ops() {
        if w.input_of(op, quick) == family {
            match op {
                Op::Algo(a) => needs.algos.push(a),
                Op::Cold => needs.cold = true,
                Op::Serve => needs.serve = true,
            }
        }
    }
    needs
}

/// One pass: every batch operation in fixed order, each run checked.
/// Focus operations run once; canary operations (a few milliseconds
/// together) run [`CANARY_REPEATS`] times and their mean is the pass's
/// one sample — a single 0.4 ms run is at the mercy of one cache miss.
struct PassSamples {
    algo: BTreeMap<&'static str, Vec<Detail>>,
    cold_s: f64,
}

impl PassSamples {
    /// One `(algorithm, milliseconds)` sample per algorithm.
    fn ms(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.algo.iter().map(|(a, runs)| {
            (
                *a,
                runs.iter().map(|d| d.ms).sum::<f64>() / runs.len() as f64,
            )
        })
    }
}

fn pass(
    world: &World,
    tracer: &mut Tracer,
    sample: u32,
    look: Look,
    tally: &mut Tally,
) -> PassSamples {
    let open = tracer.begin("pass", sample);
    let mut algo: BTreeMap<&'static str, Vec<Detail>> = BTreeMap::new();
    for a in ALGOS {
        let op = Op::Algo(a);
        let repeats = if world.w.focus.contains(&op) {
            1
        } else {
            CANARY_REPEATS
        };
        for _ in 0..repeats {
            let run = tracer.begin(&format!("run:{a}"), sample);
            let d = algo_sample(world.rig(op), world.input(op), a, world.sched, look);
            tracer.end(run);
            tally.detail(&d);
            algo.entry(a).or_default().push(d);
        }
    }
    let cold = tracer.begin("cold_run", sample);
    let (cold_s, ok) = cold_run(
        world.rig(Op::Cold),
        world.input(Op::Cold),
        &world.scratch.0.join("cold.ppg"),
        world.sched,
        sample,
        tracer,
    );
    tracer.end(cold);
    tally.op(ok);
    tracer.end(open);
    PassSamples { algo, cold_s }
}

/// Set-up: inputs and oracle once; load + construct [`SETUP_REPS`] times
/// (median counts); one warm-up pass and a short warm-up of the server.
/// Returns the world and one `setup_s` reading per repetition.
fn setup(args: &Args, tracer: &mut Tracer, tally: &mut Tally) -> Result<(World, Vec<f64>), String> {
    let w = args.workload;
    let open = tracer.begin("setup", 0);
    let t_once = Instant::now();
    let scratch = Scratch(
        args.out_dir
            .join(format!("tmp-{}-{}", w.name, std::process::id())),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("create {:?}: {e}", scratch.0))?;
    let mut inputs = Vec::new();
    for family in w.inputs(args.quick) {
        let needs = needs_of(w, family, args.quick);
        inputs.push(Input::build(
            family,
            args.seed,
            needs,
            &scratch.0,
            args.traced,
            tracer,
        )?);
    }
    let once_s = t_once.elapsed().as_secs_f64();

    let serve_family = w.input_of(Op::Serve, args.quick);
    let mut reps = Vec::new();
    let mut built: Option<((Rig, Rig), ServerHandle)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, server)) = built.take() {
            server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
        let open = tracer.begin("load_construct", rep as u32);
        let t = Instant::now();
        let rigs = (Rig::new(threads()), Rig::new(1));
        let mut resident = None;
        for input in &inputs {
            let (g, _) = tracer.time("load_ppg", rep as u32, || {
                snapshot::load_ppg_path(&input.ppg_path)
            });
            let g = g.map_err(|e| format!("load {:?}: {e}", input.ppg_path))?;
            if input.family == serve_family {
                resident = Some(g);
            }
        }
        let (server, _) = tracer.time("server_start", rep as u32, || {
            loadgen::start_server(
                resident.expect("the serve input is one of the inputs"),
                serve_workers(w),
                &serve_family.label(),
            )
        });
        reps.push(t.elapsed().as_secs_f64());
        tracer.end(open);
        built = Some((rigs, server.map_err(|e| format!("start server: {e}"))?));
    }
    let ((wide, narrow), server) = built.expect("SETUP_REPS > 0");

    let world = World {
        w,
        quick: args.quick,
        sched: Sched {
            mode: w.mode(),
            policy: w.policy(),
        },
        inputs,
        wide,
        narrow,
        server: Some(server),
        scratch,
    };
    let t_warm = Instant::now();
    let warm = tracer.begin("warmup", 0);
    pass(&world, tracer, 0, Look::Plain, tally);
    let phase = serve_warmup(&world).map_err(|e| format!("serve warm-up: {e}"))?;
    tally.phase(&phase);
    tracer.end(warm);
    let warm_s = t_warm.elapsed().as_secs_f64();
    tracer.end(open);
    Ok((world, reps.iter().map(|r| once_s + r + warm_s).collect()))
}

fn serve_warmup(world: &World) -> std::io::Result<Phase> {
    let target = world.target(Instant::now());
    loadgen::closed_loop(&target, serve_workers(world.w), Duration::from_millis(50))
}

fn secs(share: f64, args: &Args) -> Duration {
    Duration::from_secs_f64((share * args.seconds).max(0.02))
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One row per declared metric, in declaration order. The declared and
/// the measured names must be the same set: a metric the run did not
/// measure is an error, not a zero (which would read as the best possible
/// time), and so is a measured one nobody declared.
fn rows(
    tier: &str,
    workload: &str,
    decls: &[MetricDecl],
    mut values: BTreeMap<String, Summary>,
) -> Result<Vec<Row>, String> {
    let rows = decls
        .iter()
        .map(|decl| {
            let summary = values.remove(&decl.name).ok_or_else(|| {
                format!("{workload}: {} was declared but not measured", decl.name)
            })?;
            Ok(Row::new(tier, workload, decl, summary))
        })
        .collect::<Result<Vec<Row>, String>>()?;
    match values.keys().next() {
        Some(extra) => Err(format!("{workload}: {extra} was measured but not declared")),
        None => Ok(rows),
    }
}

/// p50 and p95 of `latencies`. A p95 is reported only from a sample that
/// leaves ten requests beyond it ([`tail_percentile`]); a smaller one is
/// an error, except at `--quick` size, whose numbers are unusable anyway.
fn latency_rows(latencies: &[f64], quick: bool) -> Result<(Summary, Summary), String> {
    let n = latencies.len();
    if !quick && tail_percentile(n).is_none_or(|p| p < 95.0) {
        return Err(format!("{n} latency samples are too few for a p95"));
    }
    let at = |p: f64| Summary {
        n,
        ..Summary::single(percentile(latencies, p))
    };
    Ok((at(50.0), at(95.0)))
}

fn untraced(
    args: &Args,
    world: &World,
    tracer: &mut Tracer,
    tally: &mut Tally,
    meta: &mut Vec<(String, String)>,
) -> Result<BTreeMap<String, Summary>, String> {
    let w = args.workload;
    let mut ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut cold = Vec::new();
    // The passes run in three blocks around the serve phases, so a slow
    // few seconds of the machine cannot cover every sample of a metric.
    let min_passes = if args.quick { 2 } else { MIN_PASSES };
    let mut passes = |block: usize, tracer: &mut Tracer, tally: &mut Tally| {
        let t = Instant::now();
        let budget = secs(w.shares.passes / 3.0, args);
        while cold.len() < min_passes * block / 3 || t.elapsed() < budget {
            let p = pass(world, tracer, cold.len() as u32 + 1, Look::Plain, tally);
            for (a, sample) in p.ms() {
                ms.entry(a).or_default().push(sample);
            }
            cold.push(p.cold_s);
        }
    };

    let epoch = tracer.epoch();
    let target = world.target(epoch);
    let io = |e: std::io::Error| format!("serve phase: {e}");
    passes(1, tracer, tally);
    let (throughput, latencies) = match w.traffic {
        Traffic::Mix => {
            let closed =
                loadgen::closed_loop(&target, serve_workers(w), secs(w.shares.closed, args))
                    .map_err(io)?;
            tally.phase(&closed);
            passes(2, tracer, tally);
            let open = loadgen::open_loop(&target, w.open_rate_qps, secs(w.shares.open, args))
                .map_err(io)?;
            tally.phase(&open);
            meta.push((
                "closed_loop_queries".to_string(),
                closed.records.len().to_string(),
            ));
            (closed.throughput(), open.latencies_ms())
        }
        Traffic::Flood => {
            passes(2, tracer, tally);
            let flood = loadgen::flood(&target, secs(w.shares.open, args)).map_err(io)?;
            tally.phase(&flood);
            (flood.throughput(), flood.latencies_ms())
        }
    };
    passes(3, tracer, tally);
    meta.push(("passes".to_string(), cold.len().to_string()));

    let mut out: BTreeMap<String, Summary> = BTreeMap::new();
    for (a, samples) in &ms {
        out.insert(format!("{a}_ms"), summarize(samples));
    }
    out.insert("cold_run_s".to_string(), summarize(&cold));
    meta.push(("latency_samples".to_string(), latencies.len().to_string()));
    let (p50, p95) = latency_rows(&latencies, args.quick)?;
    out.insert("throughput_qps".to_string(), throughput);
    out.insert("latency_p50_ms".to_string(), p50);
    out.insert("latency_p95_ms".to_string(), p95);
    Ok(out)
}

/// Sums and medians over the traced samples of one algorithm.
struct Folded {
    rounds: f64,
    edges: f64,
    mteps: f64,
    round_us_p50: f64,
    push_share: f64,
    outside_rounds_ms: f64,
    idle_share: f64,
    switches: f64,
    remote_updates: f64,
    buffer_peak: f64,
    allocs_per_round: f64,
    bytes_per_run: f64,
    ms: f64,
}

fn fold(samples: &[Detail]) -> Folded {
    let med = |f: &dyn Fn(&Detail) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&Detail) -> u64| samples.iter().map(f).sum::<u64>() as f64;
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let round_us: Vec<f64> = samples
        .iter()
        .flat_map(|d| d.round_us.iter().copied())
        .collect();
    Folded {
        rounds: med(&|d| d.rounds as f64),
        edges: med(&|d| d.edges as f64),
        mteps: med(&|d| d.edges as f64 / (d.ms * 1e3).max(1e-9)),
        round_us_p50: median(&round_us),
        push_share: share(sum(&|d| d.push_ns), sum(&|d| d.rounds_ns)),
        outside_rounds_ms: med(&|d| d.elapsed_ns.saturating_sub(d.rounds_ns) as f64 / 1e6),
        idle_share: share(sum(&|d| d.idle_ns), sum(&|d| d.idle_ns + d.busy_ns)),
        switches: med(&|d| d.switches as f64),
        remote_updates: med(&|d| d.remote_updates as f64),
        buffer_peak: samples.iter().map(|d| d.buffer_peak).max().unwrap_or(0) as f64,
        allocs_per_round: share(sum(&|d| d.allocs), sum(&|d| d.rounds)),
        bytes_per_run: med(&|d| d.alloc_bytes as f64 / d.attempted.max(1) as f64),
        ms: med(&|d| d.ms),
    }
}

fn traced(
    args: &Args,
    world: &mut World,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<BTreeMap<String, f64>, String> {
    let w = args.workload;
    let mut out: BTreeMap<String, f64> = BTreeMap::new();

    // Timed and plain passes alternate, so both medians see the same
    // machine state; their ratio is the cost of `MetricsLevel::Timing`.
    let mut with: BTreeMap<&str, Vec<Detail>> = BTreeMap::new();
    let mut without: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let passes = if args.quick { 2 } else { TRACED_PASSES };
    let t = Instant::now();
    for i in 0..passes {
        if i > 0 && t.elapsed() > secs(0.5, args) {
            break;
        }
        for (a, sample) in pass(world, tracer, 2 * i as u32 + 1, Look::Plain, tally).ms() {
            without.entry(a).or_default().push(sample);
        }
        for (a, samples) in pass(world, tracer, 2 * i as u32 + 2, Look::Timed, tally).algo {
            with.entry(a).or_default().extend(samples);
        }
    }
    // Each algorithm once more on the other rig, for `speedup_vs_1t`: one
    // thread where the passes ran on all `T`, all `T` where they ran on
    // one (canary and `narrow` operations).
    for a in ALGOS {
        let op = Op::Algo(a);
        let f = fold(&with[a]);
        out.insert(format!("engine.runner.{a}.rounds"), f.rounds);
        out.insert(format!("engine.runner.{a}.edges_traversed"), f.edges);
        out.insert(format!("engine.runner.{a}.mteps"), f.mteps);
        let wide = world.w.wide(op);
        let other_rig = if wide { &world.narrow } else { &world.wide };
        let open = tracer.begin(&format!("other_threads:{a}"), 0);
        let other = algo_sample(other_rig, world.input(op), a, world.sched, Look::Plain);
        tracer.end(open);
        tally.detail(&other);
        let pass_ms = median(&without[a]);
        let (one_ms, all_ms) = if wide {
            (other.ms, pass_ms)
        } else {
            (pass_ms, other.ms)
        };
        out.insert(
            format!("engine.runner.{a}.speedup_vs_1t"),
            one_ms / all_ms.max(1e-9),
        );
    }
    // The probe algorithms twice more on all `T` threads: timed, for the
    // worker laps and the exchange volume, and with counting probes (kept
    // out of the timed passes: counting every read costs up to 10x).
    for p in PROBES {
        let f = fold(&with[p]);
        let base_ms = median(&without[p]);
        let input = world.input(Op::Algo(p));
        let open = tracer.begin(&format!("all_threads:{p}"), 0);
        let timed = algo_sample(&world.wide, input, p, world.sched, Look::Timed);
        tracer.end(open);
        let open = tracer.begin(&format!("counted:{p}"), 0);
        let counted = algo_sample(&world.wide, input, p, world.sched, Look::Counted);
        tracer.end(open);
        tally.detail(&timed);
        tally.detail(&counted);
        let all = fold(&[timed]);
        for (name, value) in [
            (format!("engine.runner.{p}.round_us_p50"), f.round_us_p50),
            (format!("engine.runner.{p}.push_share"), f.push_share),
            (
                format!("engine.runner.{p}.outside_rounds_ms"),
                f.outside_rounds_ms,
            ),
            (format!("engine.pool.{p}.idle_share"), all.idle_share),
            (format!("engine.policy.{p}.switches"), f.switches),
            (
                format!("engine.partitioned.{p}.remote_updates"),
                all.remote_updates,
            ),
            (
                format!("engine.partitioned.{p}.buffer_peak"),
                all.buffer_peak,
            ),
            (
                format!("engine.alloc.{p}.allocs_per_round"),
                f.allocs_per_round,
            ),
            (format!("engine.alloc.{p}.bytes_per_run"), f.bytes_per_run),
            (
                format!("telemetry.probe.{p}.atomics"),
                counted.counts.atomics as f64,
            ),
            (
                format!("telemetry.probe.{p}.remote_sends"),
                counted.counts.remote_sends as f64,
            ),
            (
                format!("telemetry.probe.{p}.locks"),
                counted.counts.locks as f64,
            ),
            (
                format!("telemetry.timing.{p}.overhead_pct"),
                (f.ms / base_ms.max(1e-9) - 1.0) * 100.0,
            ),
            (
                format!("core.oracle.{p}.seq_ms"),
                *input
                    .oracle
                    .seq_ms
                    .get(p)
                    .ok_or_else(|| format!("set-up did not time the sequential twin of {p}"))?,
            ),
        ] {
            out.insert(name, value);
        }
    }

    // Direct calls into single layers, on the workload's own graph and on
    // the bytes its cold run parses.
    let open = tracer.begin("layers", 0);
    let primary = &world.inputs[0];
    let g = &primary.graph;
    let cold_input = world.input(Op::Cold);
    let text = cold_input
        .text_path
        .as_ref()
        .expect("cold input has a text file");
    let bytes = std::fs::read(text).map_err(|e| format!("read {text:?}: {e}"))?;
    let (parse_shard_ms, assemble_ms) = layers::io_stages_ms(&bytes)?;
    let (ingest_ms, ingest_speedup) = layers::ingest_ms(&world.wide.engine, &bytes);
    let (save_ms, load_ms, load_mb_s) =
        layers::snapshot_ms(&cold_input.graph, &world.scratch.0.join("layer.ppg"))?;
    let serve_input = world.input(Op::Serve);
    let line = format!(
        "{{\"algo\": \"bfs\", \"source\": {}, \"id\": 1{}}}",
        serve_input.pool[0],
        w.query_params()
    );
    let cfg = RunConfig {
        source: serve_input.pool[0],
        ..RunConfig::new(&world.narrow.engine, &world.narrow.null)
    };
    let bfs = registry::run_checked("bfs", &cfg, &serve_input.graph).map_err(|e| e.to_string())?;
    let (parse_us, render_us) = layers::protocol_us(&line, &bfs)?;
    for (name, value) in [
        (
            "engine.pool.dispatch_us",
            layers::pool_dispatch_us(&world.wide.engine),
        ),
        (
            "engine.frontier.from_vertices_us",
            layers::frontier_from_vertices_us(g),
        ),
        ("engine.frontier.densify_us", layers::frontier_densify_us(g)),
        ("engine.policy.decide_ns", layers::policy_decide_ns(g)),
        (
            "engine.partitioned.pa_build_ms",
            layers::pa_context_build_ms(g, threads()),
        ),
        ("engine.ingest.parse_ms", ingest_ms),
        ("engine.ingest.speedup_vs_seq", ingest_speedup),
        ("graph.gen.generate_s", primary.generate_s),
        ("graph.io.parse_shard_ms", parse_shard_ms),
        ("graph.io.assemble_ms", assemble_ms),
        ("graph.snapshot.save_ms", save_ms),
        ("graph.snapshot.load_ms", load_ms),
        ("graph.snapshot.load_mb_s", load_mb_s),
        (
            "graph.partition_aware.build_ms",
            layers::pa_graph_build_ms(g, threads()),
        ),
        ("graph.csr.scan_gb_s", layers::csr_scan_gb_s(g)),
        ("serve.protocol.parse_us", parse_us),
        ("serve.protocol.render_us", render_us),
    ] {
        out.insert(name.to_string(), value);
    }
    tracer.end(open);

    // Serve: the workload's own traffic first (allocations per query, the
    // batch and latency splits), then the three open-loop rate steps.
    let epoch = tracer.epoch();
    let io = |e: std::io::Error| format!("serve phase: {e}");
    let mut all: Vec<loadgen::Record> = Vec::new();
    let mut lateness = Vec::new();
    let own = {
        let target = world.target(epoch);
        let open = tracer.begin("serve_own_traffic", 0);
        let before = alloc::snapshot().0;
        let phase = match w.traffic {
            Traffic::Mix => loadgen::closed_loop(&target, serve_workers(w), secs(0.08, args)),
            Traffic::Flood => loadgen::flood(&target, secs(0.2, args)),
        }
        .map_err(io)?;
        let allocs = alloc::snapshot().0 - before;
        out.insert(
            "serve.alloc.allocs_per_query".to_string(),
            allocs as f64 / phase.records.len().max(1) as f64,
        );
        phase.add_spans(tracer, open.index(), 0);
        tracer.end(open);
        phase
    };
    tally.phase(&own);
    all.extend(own.records);

    let mut max_rate = 0.0;
    for (i, rate) in RATE_STEPS.into_iter().enumerate() {
        let step = {
            let target = Target {
                traffic: Traffic::Mix,
                ..world.target(epoch)
            };
            let open = tracer.begin(&format!("serve_open_r{rate}"), 0);
            // Long enough for ten requests, whatever `--seconds` is.
            let duration = secs(0.1, args).max(Duration::from_secs_f64(10.0 / rate as f64));
            let phase = loadgen::open_loop(&target, rate as f64, duration).map_err(io)?;
            phase.add_spans(tracer, open.index(), 1000 * (i as u32 + 1));
            tracer.end(open);
            phase
        };
        tally.phase(&step);
        let lat = step.latencies_ms();
        if lat.is_empty() {
            return Err(format!("no request of the {rate} q/s step was answered"));
        }
        let (p50, p95) = (percentile(&lat, 50.0), percentile(&lat, 95.0));
        out.insert(format!("serve.server.latency_p50_ms.r{rate}"), p50);
        out.insert(format!("serve.server.latency_p95_ms.r{rate}"), p95);
        if p95 <= SLO_P95_MS && step.failed() == 0 && !step.backlog_grows() {
            max_rate = rate as f64;
        }
        lateness.extend(step.lateness_ms());
        all.extend(step.records);
    }
    out.insert("serve.server.max_rate_slo_qps".to_string(), max_rate);
    out.insert(
        "serve.loadgen.lateness_ms_p95".to_string(),
        percentile(&lateness, 95.0),
    );

    let answered: Vec<&loadgen::Record> = all
        .iter()
        .filter(|r| r.recv_ns.is_some() && r.reply.ok)
        .collect();
    let med = |f: &dyn Fn(&loadgen::Record) -> f64| {
        median(&answered.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let n = answered.len().max(1) as f64;
    let stats = world
        .server
        .take()
        .expect("the server runs until here")
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    for (name, value) in [
        (
            "serve.server.queue_ms_p50",
            med(&|r| r.reply.queue_ns as f64 / 1e6),
        ),
        (
            "serve.server.run_ms_p50",
            med(&|r| r.reply.run_ns as f64 / 1e6),
        ),
        (
            "serve.server.outside_ms_p50",
            med(&|r| {
                let client = r.recv_ns.expect("answered") - r.sent_ns;
                client.saturating_sub(r.reply.latency_ns) as f64 / 1e6
            }),
        ),
        (
            "serve.server.batch_size_mean",
            answered.iter().map(|r| r.reply.batched as f64).sum::<f64>() / n,
        ),
        (
            "serve.server.coalesced_share",
            answered.iter().filter(|r| r.reply.batched > 1).count() as f64 / n,
        ),
        ("serve.server.rejected", stats.rejected as f64),
        ("serve.server.errors", stats.errors as f64),
        (
            "serve.server.worker_util",
            stats.worker_utilization.iter().sum::<f64>()
                / stats.worker_utilization.len().max(1) as f64,
        ),
    ] {
        out.insert(name.to_string(), value);
    }
    Ok(out)
}

/// Runs one workload and returns its rows. Also writes the trace (traced
/// runs) and the part files `all` merges.
pub fn run_workload(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let mut tracer = Tracer::new(args.traced);
    let mut tally = Tally::default();
    let (mut world, setup_samples) = setup(args, &mut tracer, &mut tally)?;
    let start_ms = world.server.as_ref().map_or(0.0, |s| s.start_ms);

    let mut meta: Vec<(String, String)> = vec![
        ("workload".to_string(), json_str(w.name)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("traced".to_string(), args.traced.to_string()),
        ("quick".to_string(), args.quick.to_string()),
        ("threads".to_string(), threads().to_string()),
        ("serve_workers".to_string(), serve_workers(w).to_string()),
        (
            "ops_on_all_threads".to_string(),
            json_str(&format!(
                "{:?}",
                all_ops()
                    .into_iter()
                    .filter(|op| w.wide(*op))
                    .collect::<Vec<_>>()
            )),
        ),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("setup_reps".to_string(), SETUP_REPS.to_string()),
    ];
    for input in &world.inputs {
        meta.push((
            format!("input.{}", input.family.label()),
            format!(
                "{{\"n\": {}, \"m\": {}, \"ops\": {}}}",
                input.graph.num_vertices(),
                input.graph.num_edges(),
                json_str(&format!("{:?}", input.needs))
            ),
        ));
    }

    alloc::set_enabled(args.traced);
    let measure = tracer.begin("measure", 0);
    let rows = if args.traced {
        let mut values = traced(args, &mut world, &mut tracer, &mut tally)?;
        values.insert("serve.server.start_ms".to_string(), start_ms);
        let values = values
            .into_iter()
            .map(|(name, v)| (name, Summary::single(v)))
            .collect();
        rows("layer", w.name, &plan::per_layer(), values)?
    } else {
        let mut values = untraced(args, &world, &mut tracer, &mut tally, &mut meta)?;
        values.insert("setup_s".to_string(), summarize(&setup_samples));
        values.insert("peak_rss_mb".to_string(), Summary::single(peak_rss_mib()?));
        rows("e2e", w.name, &plan::end_to_end(), values)?
    };
    tracer.end(measure);
    alloc::set_enabled(false);
    if let Some(server) = world.server.take() {
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    drop(world);

    if args.traced {
        tracer.check_nesting()?;
        let path = args.out_dir.join(format!("trace-{}.json", w.name));
        write_file(&path, &tracer.to_chrome().to_json())?;
        let own: Vec<String> = tracer
            .self_ms_by_name()
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        meta.push(("self_ms".to_string(), format!("{{{}}}", own.join(", "))));
    }
    meta.push(("ops_attempted".to_string(), tally.attempted.to_string()));
    meta.push(("ops_failed".to_string(), tally.failed.to_string()));
    Ok(Outcome {
        rows,
        attempted: tally.attempted,
        failed: tally.failed,
        meta,
    })
}

pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_and_measured_metrics_must_be_the_same_set() {
        let decls = plan::end_to_end();
        let all = || -> BTreeMap<String, Summary> {
            decls
                .iter()
                .map(|d| (d.name.clone(), Summary::single(1.5)))
                .collect()
        };
        let full = rows("e2e", "w", &decls, all()).unwrap();
        assert_eq!(full.len(), decls.len());
        assert!(full.iter().zip(&decls).all(|(r, d)| r.metric == d.name));

        let mut missing = all();
        missing.remove("tc_ms");
        let err = rows("e2e", "w", &decls, missing).unwrap_err();
        assert!(
            err.contains("tc_ms") && err.contains("not measured"),
            "{err}"
        );

        let mut extra = all();
        extra.insert("surprise_ms".to_string(), Summary::single(1.0));
        let err = rows("e2e", "w", &decls, extra).unwrap_err();
        assert!(err.contains("surprise_ms"), "{err}");
    }
}
