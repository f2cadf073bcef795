//! The resident query service: one hot graph, a bounded admission queue,
//! and a pool of worker runners draining it through
//! [`pp_engine::registry`].
//!
//! ## Anatomy
//!
//! ```text
//!             reader threads (1/conn or stdio)            worker runners
//!  NDJSON ──▶ parse_request ──▶ admission queue (bounded) ──▶ registry::run_checked
//!     │            │                  │ full?                      │
//!     │            └── bad_request ◀──┴── overloaded               └──▶ response line
//!     └── EOF / {"op":"shutdown"} → close queue → drain → join
//! ```
//!
//! * **Admission control** — the queue holds at most `queue` jobs
//!   ([`ServeConfig::queue`]). A query arriving while it is full gets an
//!   immediate structured `overloaded` rejection from the reader thread;
//!   nothing buffers without bound and the reader never blocks on the
//!   runners.
//! * **Worker runners** — each worker owns its own [`Engine`] (pool of
//!   [`ServeConfig::threads`] threads) and probe shards, so concurrent
//!   queries never share a round loop; the graph itself is shared
//!   read-only. Digests are identical to a direct [`registry`] run of the
//!   same config on an engine of the same thread count.
//! * **Latency accounting** — every completed query stamps three clocks
//!   (admission, dequeue, completion) and records the decomposition
//!   `queue_ns + run_ns == latency_ns` — the same clock readings feed all
//!   three, so the identity is exact — into per-`{algo, outcome}`
//!   [`pp_telemetry::MetricsRegistry`] histograms (windowed: every series
//!   answers both "since boot" and "last 60 s"): [`M_QUEUE_NS`],
//!   [`M_RUN_NS`] and their sum, [`M_LATENCY_NS`]. The registry is the
//!   only store of service statistics: the `stats` meta-query is a view of
//!   it, and the `metrics` meta-query returns it whole as Prometheus text
//!   exposition.
//! * **Per-query tracing** — with [`ServeConfig::trace_queries`] set, each
//!   query contributes a queue-wait async span (the admission lane, where
//!   overlapping waits get sub-rows) and a run span on its worker's lane;
//!   overload rejections appear as instants. The stitched
//!   [`pp_telemetry::ChromeTrace`] is written when the serve loop drains.
//! * **Query coalescing** — when a worker claims work it takes the front
//!   job *and*, if that job is a batchable single-source query (`bfs` and
//!   its aliases) with an in-range source, up to
//!   [`pp_engine::algo::msbfs::MAX_LANES`]` - 1` queued queries that share
//!   its execution config (direction/mode/metrics), wherever they sit in
//!   the queue — all under one lock acquisition. The batch runs as one
//!   bit-parallel multi-source traversal
//!   ([`registry::run_bfs_sliced`]) and each query is answered with its
//!   own `id` and a per-source summary bit-equal to running alone; the
//!   only visible difference is the additive `batched` response field (the
//!   batch size) and a shared `run_ns`. Admission control stays per-query.
//!   Batch sizes feed the [`M_BATCH_SIZE`] histogram and the
//!   [`M_COALESCED`] counter.
//! * **Graceful shutdown** — EOF (stdio transport) or a `shutdown` request
//!   (any transport) closes the queue: admitted queries still execute and
//!   answer, new ones are refused as `shutting_down`, and the serve loop
//!   returns the final [`StatsSnapshot`] once the workers drain.
//!
//! [`registry`]: pp_engine::registry

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use pp_engine::algo::msbfs::MAX_LANES;
use pp_engine::registry::{self, RunConfig};
use pp_engine::{Engine, ProbeShards};
use pp_graph::CsrGraph;
use pp_telemetry::timing::Clock;
use pp_telemetry::trace::ArgValue;
use pp_telemetry::{ChromeTrace, Labels, MetricsLevel, MetricsRegistry, NullProbe};

use crate::protocol::{
    self, parse_request, AlgoStats, LatencySplit, LatencySummary, QuerySpec, Request,
    StatsSnapshot, KIND_BAD_REQUEST, KIND_OVERLOADED, KIND_SHUTTING_DOWN,
};

/// Run queries by algorithm and outcome (`ok`/`error`/`rejected`); sums to
/// every run request ever received.
pub const M_QUERIES: &str = "pp_serve_queries_total";
/// Admission→dequeue wait, per `{algo, outcome}` (ns).
pub const M_QUEUE_NS: &str = "pp_serve_queue_ns";
/// Dequeue→completion execution time, per `{algo, outcome}` (ns).
pub const M_RUN_NS: &str = "pp_serve_run_ns";
/// Admission→completion time (`queue_ns + run_ns` of the same query), per
/// `{algo, outcome}` (ns).
pub const M_LATENCY_NS: &str = "pp_serve_latency_ns";
/// Run queries answered with a structured error, per
/// [`registry::RunError::kind`] tag.
pub const M_ERRORS: &str = "pp_serve_errors_total";
/// Jobs waiting in the admission queue (sampled at render).
pub const M_QUEUE_DEPTH: &str = "pp_serve_queue_depth";
/// Share of wall-clock each worker runner spent executing queries.
pub const M_WORKER_UTIL: &str = "pp_serve_worker_utilization";
/// Seconds since the graph went resident.
pub const M_UPTIME: &str = "pp_serve_uptime_seconds";
/// Admission queue capacity (constant over a server's life).
pub const M_QUEUE_CAP: &str = "pp_serve_queue_capacity";
/// Vertices in the resident graph.
pub const M_GRAPH_N: &str = "pp_serve_graph_vertices";
/// Edges in the resident graph.
pub const M_GRAPH_M: &str = "pp_serve_graph_edges";
/// Queries per coalesced batched run (histogram; only batches of ≥ 2
/// queries are recorded — solo runs are the baseline, not a batch).
pub const M_BATCH_SIZE: &str = "pp_serve_batch_size";
/// Queries answered through a shared batched run (each query counts once).
pub const M_COALESCED: &str = "pp_serve_coalesced_total";

/// Trace lane for admission events (queue-wait spans, rejection instants).
const TID_ADMISSION: u32 = 0;
/// Worker `w` runs on trace lane `TID_WORKER_BASE + w`.
const TID_WORKER_BASE: u32 = 1;

/// The `algo` label value for a query: the registry's canonical name when
/// the request named a real algorithm (aliases collapse — `pr` and
/// `pagerank` are one series), the raw string otherwise (so `unknown_algo`
/// rejections stay attributable).
fn algo_label(requested: &str) -> String {
    registry::find(requested)
        .map(|spec| spec.name.to_string())
        .unwrap_or_else(|| requested.to_string())
}

/// Server knobs. `Default` is sized for the 2-core CI box: two worker
/// runners of one engine thread each and a 64-deep admission queue.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker runners executing queries concurrently (min 1).
    pub workers: usize,
    /// Engine threads per worker runner (min 1). `workers × threads`
    /// should not exceed the machine's cores by much — each worker owns a
    /// full engine pool.
    pub threads: usize,
    /// Admission queue capacity (min 1): queries beyond
    /// `workers + queue` in flight are rejected as `overloaded`.
    pub queue: usize,
    /// Dataset label echoed into response rows (snapshot path).
    pub name: String,
    /// Ring slots per windowed histogram series (min 1). With
    /// [`ServeConfig::window_bucket_ns`] this sets how far back the
    /// "last N seconds" half of every latency series reaches; the default
    /// pair is 60 × 1 s.
    pub window_buckets: usize,
    /// Width of one window ring slot in nanoseconds (min 1).
    pub window_bucket_ns: u64,
    /// When set, collect a per-query Chrome trace (queue span + run span
    /// per served query, rejection instants) and write it to this path as
    /// the serve loop drains.
    pub trace_queries: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            threads: 1,
            queue: 64,
            name: "<graph>".to_string(),
            window_buckets: 60,
            window_bucket_ns: 1_000_000_000,
            trace_queries: None,
        }
    }
}

/// A sink responses are written to: shared because the worker that
/// finishes a query writes to the same stream the reader thread rejects
/// on. One response line per `write_line` call, flushed — NDJSON framing
/// over TCP needs the flush.
type Out = Arc<Mutex<Box<dyn Write + Send>>>;

fn write_line(out: &Out, line: &str) {
    let mut w = out.lock().unwrap();
    // A vanished client (broken pipe) must not kill the server; its
    // remaining in-flight responses just go nowhere.
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// One admitted query: what to run, where to answer, when it was admitted,
/// and its server-wide sequence number (the trace correlation id).
struct Job {
    spec: QuerySpec,
    out: Out,
    admitted_ns: u64,
    seq: u64,
}

/// The bounded admission queue: `try_push` never blocks (that is the
/// point), `pop` blocks until a job or close-and-empty.
struct JobQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
}

struct QueueInner {
    jobs: VecDeque<Job>,
    capacity: usize,
    closed: bool,
}

/// Why a push was refused.
enum PushError {
    Full,
    Closed,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn try_push(&self, job: Job) -> Result<(), PushError> {
        let mut q = self.inner.lock().unwrap();
        if q.closed {
            return Err(PushError::Closed);
        }
        if q.jobs.len() >= q.capacity {
            return Err(PushError::Full);
        }
        q.jobs.push_back(job);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job and coalesces compatible queued queries
    /// behind it: if the front job satisfies `batchable`, up to `max - 1`
    /// other queued jobs that are batchable *and* share its execution
    /// config (direction, mode, metrics, algorithm knobs) are removed from
    /// the queue — wherever they sit; non-matching jobs keep their relative
    /// order — and returned with it, all under one lock acquisition (no
    /// waiting for more load: a batch is only what has already queued).
    /// The returned batch has length ≥ 1. `None` once closed *and*
    /// drained.
    fn pop_batch(&self, max: usize, batchable: impl Fn(&QuerySpec) -> bool) -> Option<Vec<Job>> {
        let mut q = self.inner.lock().unwrap();
        loop {
            if let Some(first) = q.jobs.pop_front() {
                let mut batch = vec![first];
                if max > 1 && batchable(&batch[0].spec) {
                    let head = batch[0].spec.clone();
                    let mut i = 0;
                    while i < q.jobs.len() && batch.len() < max {
                        let s = &q.jobs[i].spec;
                        if batchable(s)
                            && s.policy_name == head.policy_name
                            && s.mode_name == head.mode_name
                            && s.metrics == head.metrics
                            && s.lp_iters == head.lp_iters
                            && s.bc_sources == head.bc_sources
                        {
                            batch.push(q.jobs.remove(i).unwrap());
                        } else {
                            i += 1;
                        }
                    }
                }
                return Some(batch);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap();
        }
    }

    fn depth(&self) -> usize {
        self.inner.lock().unwrap().jobs.len()
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.ready.notify_all();
    }
}

/// State shared between reader threads, worker runners, and the accept
/// loop.
struct Core {
    graph: Arc<CsrGraph>,
    cfg: ServeConfig,
    queue: JobQueue,
    clock: Clock,
    /// Every service statistic: query and error counters, queue/run/latency
    /// and batch-size histograms, point-in-time gauges. `stats` and
    /// `metrics` both read it.
    metrics: MetricsRegistry,
    /// Nanoseconds each worker runner has spent executing queries.
    worker_busy_ns: Vec<AtomicU64>,
    /// Per-query trace events; `Some` iff `cfg.trace_queries` is set.
    trace: Option<Mutex<ChromeTrace>>,
    /// Monotonic query sequence — trace span correlation ids.
    seq: AtomicU64,
    stop: AtomicBool,
}

/// The value of label `key` in `labels`, if present.
fn label<'a>(labels: &'a Labels, key: &str) -> Option<&'a str> {
    labels
        .pairs()
        .iter()
        .find_map(|(k, v)| (k == key).then_some(v.as_str()))
}

/// Whether a query can join a coalesced batch: a batchable registry
/// algorithm (`bfs` and its aliases) with an in-range source. Out-of-range
/// sources are left to run solo so their structured error cannot poison a
/// batch that would otherwise validate.
fn coalescable(spec: &QuerySpec, n: usize) -> bool {
    registry::find(&spec.algo).is_some_and(|s| s.batched) && (spec.source as usize) < n
}

impl Core {
    /// Share of wall-clock each worker runner has spent executing queries.
    fn worker_utilization(&self, now_ns: u64) -> Vec<f64> {
        self.worker_busy_ns
            .iter()
            // ORDERING: Relaxed — statistics read for reporting; a reading
            // that trails a concurrent bump is an acceptable snapshot.
            .map(|busy| (busy.load(Ordering::Relaxed) as f64 / now_ns.max(1) as f64).min(1.0))
            .collect()
    }

    /// The `stats` view of the registry. Query outcomes come from one read
    /// of [`M_QUERIES`], so `served`/`errors`/`rejected` and the per-algo
    /// rows always agree with each other.
    fn snapshot(&self) -> StatsSnapshot {
        let now_ns = self.clock.now_ns();
        let merged = |name: &str, keep: &dyn Fn(&Labels) -> bool| {
            self.metrics.histogram_merged(name, now_ns, keep)
        };
        let (mut served, mut errors, mut rejected) = (0, 0, 0);
        let mut per_algo: Vec<AlgoStats> = Vec::new();
        // Label-sorted, so each algorithm's outcomes are adjacent.
        for (labels, n) in self.metrics.counter_series(M_QUERIES) {
            let algo = label(&labels, "algo").unwrap_or_default();
            if per_algo.last().map(|a| a.algo.as_str()) != Some(algo) {
                let of_algo = |l: &Labels| label(l, "algo") == Some(algo);
                let q = merged(M_QUEUE_NS, &of_algo);
                let r = merged(M_RUN_NS, &of_algo);
                per_algo.push(AlgoStats {
                    algo: algo.to_string(),
                    queue: LatencySummary::from(&q.total),
                    run: LatencySummary::from(&r.total),
                    window_queue: LatencySummary::from(&q.windowed),
                    window_run: LatencySummary::from(&r.windowed),
                    ..AlgoStats::default()
                });
            }
            let row = per_algo.last_mut().expect("pushed above");
            match label(&labels, "outcome") {
                Some("ok") => {
                    served += n;
                    row.served += n;
                }
                Some("error") => {
                    errors += n;
                    row.errors += n;
                }
                _ => rejected += n,
            }
        }
        let queue_split = merged(M_QUEUE_NS, &|_| true);
        let run_split = merged(M_RUN_NS, &|_| true);
        let latency = merged(M_LATENCY_NS, &|l| label(l, "outcome") == Some("ok"));
        let batch = merged(M_BATCH_SIZE, &|_| true).total;
        StatsSnapshot {
            uptime_ns: now_ns,
            dataset: self.cfg.name.clone(),
            n: self.graph.num_vertices(),
            m: self.graph.num_edges(),
            workers: self.cfg.workers,
            threads_per_worker: self.cfg.threads,
            queue_capacity: self.cfg.queue,
            queue_depth: self.queue.depth(),
            served,
            rejected,
            errors,
            errors_by_kind: self
                .metrics
                .counter_series(M_ERRORS)
                .into_iter()
                .map(|(l, n)| (label(&l, "kind").unwrap_or_default().to_string(), n))
                .collect(),
            latency: LatencySummary::from(&latency.total),
            window_s: self.metrics.window_ns() as f64 / 1e9,
            queue_lat: LatencySummary::from(&queue_split.total),
            run_lat: LatencySummary::from(&run_split.total),
            window_queue_lat: LatencySummary::from(&queue_split.windowed),
            window_run_lat: LatencySummary::from(&run_split.windowed),
            per_algo,
            worker_utilization: self.worker_utilization(now_ns),
            batches: batch.count(),
            coalesced: batch.sum(),
            max_batch: batch.max(),
        }
    }

    /// Refreshes the point-in-time gauges and renders the whole registry
    /// as Prometheus text exposition (the `metrics` meta-query body).
    fn render_prometheus(&self) -> String {
        let now_ns = self.clock.now_ns();
        let none = Labels::none();
        self.metrics.set_gauge(
            M_UPTIME,
            "Seconds since the graph went resident.",
            &none,
            now_ns as f64 / 1e9,
        );
        self.metrics.set_gauge(
            M_QUEUE_CAP,
            "Admission queue capacity.",
            &none,
            self.cfg.queue as f64,
        );
        self.metrics.set_gauge(
            M_QUEUE_DEPTH,
            "Jobs waiting in the admission queue.",
            &none,
            self.queue.depth() as f64,
        );
        self.metrics.set_gauge(
            M_GRAPH_N,
            "Vertices in the resident graph.",
            &none,
            self.graph.num_vertices() as f64,
        );
        self.metrics.set_gauge(
            M_GRAPH_M,
            "Edges in the resident graph.",
            &none,
            self.graph.num_edges() as f64,
        );
        for (w, util) in self.worker_utilization(now_ns).into_iter().enumerate() {
            self.metrics.set_gauge(
                M_WORKER_UTIL,
                "Share of wall-clock each worker runner spent executing queries.",
                &Labels::new([("worker", w.to_string())]),
                util,
            );
        }
        self.metrics.render_prometheus(now_ns)
    }

    /// Counts one run request into the per-`{algo, outcome}` counter.
    fn count_query(&self, algo: &str, outcome: &str) {
        self.metrics.inc_counter(
            M_QUERIES,
            "Run queries by algorithm and outcome (ok/error/rejected).",
            &Labels::new([("algo", algo), ("outcome", outcome)]),
            1,
        );
    }

    /// Parses and routes one input line. Meta-queries answer inline from
    /// the reader thread (they must work even when the runners are
    /// saturated — that is when you need `stats` most); run queries go
    /// through admission.
    fn dispatch_line(self: &Arc<Self>, line: &str, out: &Out) {
        let line = line.trim();
        if line.is_empty() {
            return;
        }
        match parse_request(line) {
            Err(msg) => write_line(out, &protocol::render_error(None, KIND_BAD_REQUEST, &msg)),
            Ok(Request::Ping) => write_line(out, &protocol::render_pong()),
            Ok(Request::Stats) => write_line(out, &protocol::render_stats(&self.snapshot())),
            Ok(Request::Metrics) => write_line(
                out,
                &protocol::render_metrics_response(&self.render_prometheus()),
            ),
            Ok(Request::Shutdown) => {
                write_line(out, &protocol::render_shutdown_ack());
                // ORDERING: Relaxed — `stop` is an independent latch that
                // readers poll; no data is published through it. Workers
                // synchronize through `queue.close()` below, and reader
                // loops only need to observe the latch eventually.
                self.stop.store(true, Ordering::Relaxed);
                self.queue.close();
            }
            Ok(Request::Run(spec)) => {
                let id = spec.id.clone();
                let algo = algo_label(&spec.algo);
                let job = Job {
                    spec,
                    out: out.clone(),
                    admitted_ns: self.clock.now_ns(),
                    // ORDERING: Relaxed — the fetch_add itself guarantees
                    // unique ids; nothing is published through `seq`.
                    seq: self.seq.fetch_add(1, Ordering::Relaxed),
                };
                let rejected_ns = job.admitted_ns;
                let seq = job.seq;
                let Err(refused) = self.queue.try_push(job) else {
                    return;
                };
                let (kind, message) = match refused {
                    PushError::Full => (
                        KIND_OVERLOADED,
                        format!("admission queue full (capacity {})", self.cfg.queue),
                    ),
                    PushError::Closed => (
                        KIND_SHUTTING_DOWN,
                        "server is draining; no new queries".to_string(),
                    ),
                };
                self.count_query(&algo, "rejected");
                self.trace_rejection(&algo, seq, rejected_ns);
                write_line(out, &protocol::render_error(id.as_deref(), kind, &message));
            }
        }
    }

    /// Records an overload/drain rejection on the admission trace lane.
    fn trace_rejection(&self, algo: &str, seq: u64, ts_ns: u64) {
        if let Some(trace) = &self.trace {
            trace.lock().unwrap().instant(
                format!("rejected {algo}"),
                "admission",
                TID_ADMISSION,
                ts_ns,
                vec![
                    ("algo".to_string(), ArgValue::from(algo)),
                    ("query".to_string(), ArgValue::from(seq)),
                ],
            );
        }
    }

    /// Executes one claimed batch on worker `worker`'s engine and answers
    /// every job in it, stamping each one's queue/run latency
    /// decomposition. A single job runs alone through
    /// [`registry::run_checked`]; two or more run as one bit-parallel
    /// multi-source traversal through [`registry::run_bfs_sliced`], and
    /// each is answered from its own lane's slice — per-query `queue_ns`
    /// from its own admission stamp, shared `run_ns`, and the batch size in
    /// the `batched` field.
    fn execute(
        &self,
        worker: usize,
        engine: &Engine,
        probes: &ProbeShards<NullProbe>,
        jobs: Vec<Job>,
    ) {
        let batch = jobs.len();
        let dequeued_ns = self.clock.now_ns();
        // A batch shares its head's execution config (`JobQueue::pop_batch`).
        let head = &jobs[0].spec;
        let cfg = RunConfig {
            policy: head.policy,
            mode: head.mode,
            collect: if head.metrics {
                MetricsLevel::Timing
            } else {
                MetricsLevel::Off
            },
            source: head.source,
            lp_iters: head.lp_iters,
            bc_sources: head.bc_sources,
            ..RunConfig::new(engine, probes)
        };
        let result = if batch == 1 {
            registry::run_checked(&head.algo, &cfg, &self.graph).map(|run| vec![run])
        } else {
            let sources = jobs.iter().map(|j| j.spec.source).collect();
            registry::run_bfs_sliced(&RunConfig { sources, ..cfg }, &self.graph)
        };
        let done_ns = self.clock.now_ns();
        let run_ns = done_ns.saturating_sub(dequeued_ns);
        let ms = run_ns as f64 / 1e6;
        // One traversal ran, so the worker was busy for `run_ns` once —
        // not once per answered query.
        // ORDERING: Relaxed — per-worker statistics accumulator; only this
        // worker writes it, snapshots read it for reporting.
        self.worker_busy_ns[worker].fetch_add(run_ns, Ordering::Relaxed);
        let outcome = if result.is_ok() { "ok" } else { "error" };
        if batch > 1 && result.is_ok() {
            self.metrics.observe(
                M_BATCH_SIZE,
                "Queries per coalesced batched run.",
                &Labels::none(),
                done_ns,
                batch as u64,
            );
            self.metrics.inc_counter(
                M_COALESCED,
                "Queries answered through a shared batched run.",
                &Labels::none(),
                batch as u64,
            );
        }
        // One slice per job, in claim order (`run_bfs_sliced` returns one
        // run per configured source in input order).
        for (i, job) in jobs.iter().enumerate() {
            // All three figures come from the same two clock readings, so
            // the decomposition is exact: queue_ns + run_ns == latency_ns.
            let queue_ns = dequeued_ns.saturating_sub(job.admitted_ns);
            let latency_ns = queue_ns + run_ns;
            let algo = algo_label(&job.spec.algo);
            self.count_query(&algo, outcome);
            let labels = Labels::new([("algo", algo.as_str()), ("outcome", outcome)]);
            let observe = |name, help, ns| self.metrics.observe(name, help, &labels, done_ns, ns);
            observe(
                M_QUEUE_NS,
                "Admission-to-dequeue wait in nanoseconds.",
                queue_ns,
            );
            observe(
                M_RUN_NS,
                "Dequeue-to-completion execution time in nanoseconds.",
                run_ns,
            );
            observe(
                M_LATENCY_NS,
                "Admission-to-completion latency in nanoseconds.",
                latency_ns,
            );
            if let Some(trace) = &self.trace {
                let mut t = trace.lock().unwrap();
                let wait = format!("queue {algo}");
                t.async_begin(
                    wait.clone(),
                    "queue",
                    TID_ADMISSION,
                    job.admitted_ns,
                    job.seq,
                    vec![
                        ("algo".to_string(), ArgValue::from(algo.as_str())),
                        ("query".to_string(), ArgValue::from(job.seq)),
                    ],
                );
                t.async_end(wait, "queue", TID_ADMISSION, dequeued_ns, job.seq);
                let mut run_args = vec![
                    ("algo".to_string(), ArgValue::from(algo.as_str())),
                    ("outcome".to_string(), ArgValue::from(outcome)),
                    ("query".to_string(), ArgValue::from(job.seq)),
                    ("queue_ns".to_string(), ArgValue::from(queue_ns)),
                ];
                // The run spans of one batch share the same interval on the
                // worker lane; their `batched` arg says why they overlap.
                let mut name = format!("run {algo}");
                if batch > 1 {
                    name.push_str(&format!(" ×{batch}"));
                    run_args.push(("batched".to_string(), ArgValue::from(batch as u64)));
                }
                if let Some(id) = &job.spec.id {
                    // The client's raw id scalar: lets a trace consumer join
                    // spans back to response lines exactly.
                    run_args.push(("id".to_string(), ArgValue::from(id.as_str())));
                }
                let lane = TID_WORKER_BASE + worker as u32;
                t.duration(name, "run", lane, dequeued_ns, run_ns, run_args);
            }
            let line = match &result {
                Ok(runs) => protocol::render_run_response(
                    &job.spec,
                    &self.cfg.name,
                    engine.threads(),
                    &runs[i],
                    ms,
                    LatencySplit {
                        queue_ns,
                        run_ns,
                        latency_ns,
                        worker,
                        batched: batch,
                    },
                ),
                Err(e) => {
                    self.metrics.inc_counter(
                        M_ERRORS,
                        "Run queries answered with a structured error, by kind.",
                        &Labels::new([("kind", e.kind())]),
                        1,
                    );
                    protocol::render_run_error(job.spec.id.as_deref(), e)
                }
            };
            write_line(&job.out, &line);
        }
    }
}

/// A running server: workers are live from [`Server::new`] on; feed it a
/// transport with [`Server::serve_lines`] or [`Server::serve_tcp`].
pub struct Server {
    core: Arc<Core>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Loads `graph` resident and spawns the worker runners. The graph is
    /// read-only from here on; queries needing weights fail structurally
    /// if it has none (attach weights before constructing — see
    /// `ppgraph serve --weights`).
    pub fn new(graph: CsrGraph, cfg: ServeConfig) -> Self {
        let cfg = ServeConfig {
            workers: cfg.workers.max(1),
            threads: cfg.threads.max(1),
            queue: cfg.queue.max(1),
            window_buckets: cfg.window_buckets.max(1),
            window_bucket_ns: cfg.window_bucket_ns.max(1),
            ..cfg
        };
        let trace = cfg.trace_queries.as_ref().map(|_| {
            let mut t = ChromeTrace::new();
            t.name_track(TID_ADMISSION, "admission");
            for w in 0..cfg.workers {
                t.name_track(TID_WORKER_BASE + w as u32, format!("worker {w}"));
            }
            Mutex::new(t)
        });
        let core = Arc::new(Core {
            graph: Arc::new(graph),
            cfg: cfg.clone(),
            queue: JobQueue::new(cfg.queue),
            clock: Clock::start(),
            metrics: MetricsRegistry::new(cfg.window_buckets, cfg.window_bucket_ns),
            worker_busy_ns: (0..cfg.workers).map(|_| AtomicU64::new(0)).collect(),
            trace,
            seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let workers = (0..cfg.workers)
            .map(|w| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("pp-serve-worker-{w}"))
                    .spawn(move || {
                        // Each worker owns an engine pool for its whole
                        // life — pool spin-up is paid once, not per query.
                        let engine = Engine::new(core.cfg.threads);
                        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                        let n = core.graph.num_vertices();
                        while let Some(jobs) =
                            core.queue.pop_batch(MAX_LANES, |spec| coalescable(spec, n))
                        {
                            core.execute(w, &engine, &probes, jobs);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self { core, workers }
    }

    /// The current counters (what the `stats` meta-query renders).
    pub fn stats(&self) -> StatsSnapshot {
        self.core.snapshot()
    }

    /// The current Prometheus text exposition (what the `metrics`
    /// meta-query returns in its `body`).
    pub fn metrics_text(&self) -> String {
        self.core.render_prometheus()
    }

    /// Routes one already-read request line (test/embedding hook; the
    /// transports below are line-loops over exactly this).
    pub fn dispatch(&self, line: &str, out: &Out) {
        self.core.dispatch_line(line, out);
    }

    /// Serves newline-delimited requests from `input` until EOF, writing
    /// responses to `output` (the stdio transport:
    /// `... | ppgraph serve g.ppg | ...`). Response order across
    /// *different* queries is completion order, not arrival order — match
    /// by `id`. Returns the final stats once the queue drains.
    pub fn serve_lines(
        self,
        input: impl BufRead,
        output: impl Write + Send + 'static,
    ) -> StatsSnapshot {
        let out: Out = Arc::new(Mutex::new(Box::new(output)));
        for line in input.lines() {
            match line {
                Ok(line) => self.core.dispatch_line(&line, &out),
                Err(_) => break,
            }
            // ORDERING: Relaxed — poll of the shutdown latch; see the
            // store in `dispatch_line` (no data rides on this flag).
            if self.core.stop.load(Ordering::Relaxed) {
                break;
            }
        }
        self.finish()
    }

    /// Serves TCP connections accepted from `listener` (one reader thread
    /// per connection) until a `shutdown` request arrives, then drains and
    /// returns the final stats. Bind the listener yourself — port 0 gives
    /// an ephemeral port for tests:
    ///
    /// ```no_run
    /// # use pp_serve::{Server, ServeConfig};
    /// # let g = pp_graph::gen::path(8);
    /// let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    /// let addr = listener.local_addr().unwrap();
    /// let stats = Server::new(g, ServeConfig::default()).serve_tcp(listener);
    /// # let _ = (addr, stats);
    /// ```
    pub fn serve_tcp(self, listener: TcpListener) -> StatsSnapshot {
        listener
            .set_nonblocking(true)
            .expect("set listener nonblocking");
        // ORDERING: Relaxed — poll of the shutdown latch; the accept loop
        // only needs to see the flag eventually (no data rides on it).
        while !self.core.stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let core = self.core.clone();
                    std::thread::spawn(move || handle_connection(core, stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
        self.finish()
    }

    /// Closes the queue, lets the workers drain it, joins them, writes the
    /// per-query trace (if configured), and returns the final counters.
    fn finish(self) -> StatsSnapshot {
        self.core.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
        if let (Some(path), Some(trace)) = (&self.core.cfg.trace_queries, &self.core.trace) {
            // Best-effort: a bad trace path must not lose the final stats.
            if let Ok(mut f) = std::fs::File::create(path) {
                let _ = trace.lock().unwrap().write(&mut f);
            }
        }
        self.core.snapshot()
    }
}

/// Reader loop for one TCP connection: requests in lines, responses out
/// through the shared write half (workers answer on it directly, so a
/// slow query does not block the next request on the same connection).
fn handle_connection(core: Arc<Core>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out: Out = Arc::new(Mutex::new(Box::new(write_half)));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        match line {
            Ok(line) => core.dispatch_line(&line, &out),
            Err(_) => break,
        }
        // ORDERING: Relaxed — poll of the shutdown latch; see the store
        // in `dispatch_line` (no data rides on this flag).
        if core.stop.load(Ordering::Relaxed) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use pp_graph::gen;
    use std::time::Instant;

    /// An in-memory `Out` whose contents tests can read back.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        fn lines(&self) -> Vec<Value> {
            let bytes = self.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(|l| json::parse(l).unwrap_or_else(|e| panic!("bad line {l:?}: {e}")))
                .collect()
        }
    }

    fn server(queue: usize) -> Server {
        Server::new(
            gen::rmat(7, 6, 3),
            ServeConfig {
                workers: 1,
                threads: 1,
                queue,
                name: "test".to_string(),
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn serve_lines_answers_every_request_and_drains_on_eof() {
        let sink = Sink::default();
        let input = b"{\"algo\": \"cc\", \"id\": 1}\n\
                      \n\
                      {\"algo\": \"bfs\", \"source\": 0, \"id\": 2}\n\
                      {\"op\": \"stats\"}\n"
            .to_vec();
        let stats = server(8).serve_lines(&input[..], sink.clone());
        assert_eq!(stats.served, 2);
        assert_eq!(stats.rejected, 0);
        let lines = sink.lines();
        assert_eq!(lines.len(), 3, "blank line answered nothing");
        // Two run responses (matched by id) and one stats response.
        let by_id = |id: u64| {
            lines
                .iter()
                .find(|l| l.get("id").and_then(Value::u64) == Some(id))
                .unwrap_or_else(|| panic!("no response with id {id}"))
        };
        assert_eq!(by_id(1).get("ok").unwrap().bool(), Some(true));
        assert!(by_id(1).get("summary").unwrap().get("components").is_some());
        assert!(by_id(2).get("latency_ns").unwrap().u64().unwrap() > 0);
        let stats_line = lines
            .iter()
            .find(|l| l.get("op").and_then(Value::str) == Some("stats"))
            .unwrap();
        assert!(stats_line.get("latency").unwrap().get("count").is_some());
    }

    #[test]
    fn malformed_and_invalid_queries_answer_structurally_and_do_not_kill_the_server() {
        let sink = Sink::default();
        let input = b"this is not json\n\
                      {\"algo\": \"nope\", \"id\": 1}\n\
                      {\"algo\": \"bfs\", \"source\": 100000, \"id\": 2}\n\
                      {\"algo\": \"mst\", \"id\": 3}\n\
                      {\"algo\": \"bc\", \"params\": {\"bc_sources\": 0}, \"id\": 4}\n\
                      {\"algo\": \"cc\", \"id\": 5}\n"
            .to_vec();
        let stats = server(8).serve_lines(&input[..], sink.clone());
        let lines = sink.lines();
        assert_eq!(lines.len(), 6);
        let kind_of = |v: &Value| {
            v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Value::str)
                .map(str::to_string)
        };
        assert_eq!(kind_of(&lines[0]).as_deref(), Some(KIND_BAD_REQUEST));
        let by_id = |id: u64| {
            lines
                .iter()
                .find(|l| l.get("id").and_then(Value::u64) == Some(id))
                .unwrap()
                .clone()
        };
        assert_eq!(kind_of(&by_id(1)).as_deref(), Some("unknown_algo"));
        assert_eq!(kind_of(&by_id(2)).as_deref(), Some("source_out_of_range"));
        assert_eq!(kind_of(&by_id(3)).as_deref(), Some("needs_weights"));
        assert_eq!(kind_of(&by_id(4)).as_deref(), Some("bad_param"));
        // The valid query after five failures still ran.
        assert_eq!(by_id(5).get("ok").unwrap().bool(), Some(true));
        assert_eq!(stats.served, 1);
        assert_eq!(stats.errors, 4);
    }

    #[test]
    fn shutdown_request_stops_the_line_loop_before_later_lines() {
        let sink = Sink::default();
        let input = b"{\"op\": \"shutdown\"}\n{\"algo\": \"cc\", \"id\": 9}\n".to_vec();
        let stats = server(8).serve_lines(&input[..], sink.clone());
        let lines = sink.lines();
        assert_eq!(lines.len(), 1, "the line after shutdown is never read");
        assert_eq!(lines[0].get("draining").unwrap().bool(), Some(true));
        assert_eq!(stats.served, 0);
    }

    #[test]
    fn metrics_meta_query_returns_prometheus_text() {
        // Dispatch the runs, wait for the async workers to finish them,
        // then render — the meta-query itself answers inline, so a fixed
        // input script would race the counters.
        let s = server(8);
        let sink = Sink::default();
        let out: Out = Arc::new(Mutex::new(Box::new(sink.clone())));
        s.dispatch("{\"algo\": \"cc\", \"id\": 1}", &out);
        s.dispatch("{\"algo\": \"nope\", \"id\": 2}", &out);
        let deadline = Instant::now() + Duration::from_secs(30);
        while s.stats().served + s.stats().errors < 2 {
            assert!(Instant::now() < deadline, "workers never drained");
            std::thread::sleep(Duration::from_millis(5));
        }
        s.dispatch("{\"op\": \"metrics\"}", &out);
        let lines = sink.lines();
        let metrics = lines
            .iter()
            .find(|l| l.get("op").and_then(Value::str) == Some("metrics"))
            .expect("no metrics response");
        assert_eq!(metrics.get("ok").unwrap().bool(), Some(true));
        let body = metrics.get("body").unwrap().str().unwrap();
        assert!(body.contains("# TYPE pp_serve_queries_total counter"));
        assert!(body.contains("algo=\"cc\",outcome=\"ok\""));
        assert!(body.contains("algo=\"nope\",outcome=\"error\""));
        assert!(body.contains("# TYPE pp_serve_run_ns summary"));
        assert!(body.contains("# TYPE pp_serve_run_ns_window summary"));
        assert!(body.contains("pp_serve_uptime_seconds"));
        assert!(body.contains("pp_serve_worker_utilization{worker=\"0\"}"));
    }

    #[test]
    fn stats_decomposition_is_consistent_and_error_kinds_are_tallied() {
        let sink = Sink::default();
        let input = b"{\"algo\": \"cc\", \"id\": 1}\n\
                      {\"algo\": \"bfs\", \"id\": 2}\n\
                      {\"algo\": \"nope\", \"id\": 3}\n"
            .to_vec();
        let stats = server(8).serve_lines(&input[..], sink.clone());
        assert_eq!(stats.served, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.errors_by_kind, vec![("unknown_algo".to_string(), 1)]);
        // Queue/run histograms saw every completed query (ok and error).
        assert_eq!(stats.queue_lat.count, 3);
        assert_eq!(stats.run_lat.count, 3);
        // A freshly-booted server's window still holds everything.
        assert_eq!(stats.window_run_lat.count, 3);
        let served: u64 = stats.per_algo.iter().map(|a| a.served).sum();
        let errors: u64 = stats.per_algo.iter().map(|a| a.errors).sum();
        assert_eq!(served, 2);
        assert_eq!(errors, 1);
        assert_eq!(stats.worker_utilization.len(), 1);
        assert!(stats.worker_utilization[0] > 0.0);
    }

    #[test]
    fn trace_queries_config_writes_paired_spans_at_drain() {
        let path =
            std::env::temp_dir().join(format!("pp_serve_unit_trace_{}.json", std::process::id()));
        let sink = Sink::default();
        let input = b"{\"algo\": \"cc\", \"id\": 1}\n{\"algo\": \"bfs\", \"id\": 2}\n".to_vec();
        let s = Server::new(
            gen::rmat(7, 6, 3),
            ServeConfig {
                workers: 1,
                threads: 1,
                queue: 8,
                name: "traced".to_string(),
                trace_queries: Some(path.to_string_lossy().into_owned()),
                ..ServeConfig::default()
            },
        );
        let stats = s.serve_lines(&input[..], sink.clone());
        assert_eq!(stats.served, 2);
        let text = std::fs::read_to_string(&path).expect("trace written at drain");
        let _ = std::fs::remove_file(&path);
        let Value::Arr(events) = json::parse(&text).unwrap() else {
            panic!("trace is not an array");
        };
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::str) == Some(ph))
                .count()
        };
        assert_eq!(count("b"), 2, "one queue-wait span per query");
        assert_eq!(count("e"), 2);
        // Two run spans on the worker lane + lane-name metadata events.
        let runs: Vec<_> = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::str) == Some("X")
                    && e.get("cat").and_then(Value::str) == Some("run")
            })
            .collect();
        assert_eq!(runs.len(), 2);
        for r in &runs {
            assert_eq!(r.get("tid").and_then(Value::u64), Some(1));
        }
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Value::str) == Some("M")));
    }

    #[test]
    fn pop_batch_coalesces_compatible_bfs_and_leaves_the_rest_in_order() {
        let q = JobQueue::new(16);
        let out: Out = Arc::new(Mutex::new(Box::new(Sink::default())));
        let mk = |algo: &str, source: u32, mode_name: &'static str, seq: u64| Job {
            spec: QuerySpec {
                algo: algo.to_string(),
                source,
                mode_name,
                ..QuerySpec::default()
            },
            out: out.clone(),
            admitted_ns: seq,
            seq,
        };
        let n = 128;
        for job in [
            mk("bfs", 1, "atomic", 0),
            mk("cc", 0, "atomic", 1),
            mk("msbfs", 2, "atomic", 2), // alias — joins the bfs batch
            mk("bfs", 900, "atomic", 3), // out of range — must run solo
            mk("bfs", 3, "pa", 4),       // different mode — must not join
            mk("bfs", 4, "atomic", 5),
        ] {
            assert!(q.try_push(job).is_ok());
        }
        let seqs = |jobs: &[Job]| jobs.iter().map(|j| j.seq).collect::<Vec<_>>();
        let batch = q.pop_batch(MAX_LANES, |s| coalescable(s, n)).unwrap();
        assert_eq!(seqs(&batch), vec![0, 2, 5], "compatible bfs coalesce");
        // The skipped jobs kept their relative order and come out solo.
        for expect in [vec![1], vec![3], vec![4]] {
            let b = q.pop_batch(MAX_LANES, |s| coalescable(s, n)).unwrap();
            assert_eq!(seqs(&b), expect);
        }
        q.close();
        assert!(q.pop_batch(MAX_LANES, |s| coalescable(s, n)).is_none());
    }

    #[test]
    fn pop_batch_respects_the_claim_cap() {
        let q = JobQueue::new(16);
        let out: Out = Arc::new(Mutex::new(Box::new(Sink::default())));
        for seq in 0..6u64 {
            assert!(q
                .try_push(Job {
                    spec: QuerySpec {
                        algo: "bfs".to_string(),
                        source: seq as u32,
                        ..QuerySpec::default()
                    },
                    out: out.clone(),
                    admitted_ns: seq,
                    seq,
                })
                .is_ok());
        }
        let batch = q.pop_batch(4, |s| coalescable(s, 128)).unwrap();
        assert_eq!(batch.len(), 4);
        let rest = q.pop_batch(4, |s| coalescable(s, 128)).unwrap();
        assert_eq!(rest.len(), 2);
    }

    /// Sums the samples of exposition series `name` whose label set holds
    /// every `key="value"` pair in `with`.
    fn prom_sum(body: &str, name: &str, with: &[(&str, &str)]) -> u64 {
        body.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .filter(|(series, _)| {
                let (family, labels) = series.split_once('{').unwrap_or((series, ""));
                family == name
                    && with
                        .iter()
                        .all(|(k, v)| labels.contains(&format!("{k}=\"{v}\"")))
            })
            .map(|(_, value)| value.parse::<u64>().expect("integer sample"))
            .sum()
    }

    #[test]
    fn stats_is_a_view_of_the_exposition_after_mixed_traffic() {
        let s = server(16);
        let sink = Sink::default();
        let out: Out = Arc::new(Mutex::new(Box::new(sink.clone())));
        // Occupy the single worker with a slow query so the bfs burst
        // queues up behind it and gets claimed as one batch.
        s.dispatch(
            "{\"algo\": \"bc\", \"params\": {\"bc_sources\": 64}, \"id\": 0}",
            &out,
        );
        for i in 1..=5 {
            s.dispatch(
                &format!("{{\"algo\": \"bfs\", \"source\": {i}, \"id\": {i}}}"),
                &out,
            );
        }
        s.dispatch("{\"algo\": \"cc\"}", &out);
        s.dispatch("{\"algo\": \"nope\"}", &out);
        s.dispatch("{\"algo\": \"bfs\", \"source\": 100000}", &out);
        let deadline = Instant::now() + Duration::from_secs(30);
        while sink.lines().len() < 9 {
            assert!(Instant::now() < deadline, "workers never drained");
            std::thread::sleep(Duration::from_millis(2));
        }
        s.core.queue.close();
        s.dispatch("{\"algo\": \"cc\"}", &out);
        let lines = sink.lines();
        for i in 1..=5u64 {
            let resp = lines
                .iter()
                .find(|l| l.get("id").and_then(Value::u64) == Some(i))
                .unwrap_or_else(|| panic!("no response with id {i}"));
            assert_eq!(resp.get("ok").unwrap().bool(), Some(true));
            assert!(resp.get("batched").unwrap().u64().unwrap() >= 1);
            assert!(resp.get("summary").unwrap().get("reached").is_some());
        }

        // Every stats figure equals its series in the exposition.
        let stats = s.stats();
        let body = s.metrics_text();
        let queries = |outcome| prom_sum(&body, M_QUERIES, &[("outcome", outcome)]);
        assert_eq!((stats.served, stats.errors, stats.rejected), (7, 2, 1));
        assert_eq!(stats.served, queries("ok"));
        assert_eq!(stats.errors, queries("error"));
        assert_eq!(stats.rejected, queries("rejected"));
        assert_eq!(
            stats.errors_by_kind,
            vec![
                ("source_out_of_range".to_string(), 1),
                ("unknown_algo".to_string(), 1)
            ]
        );
        for (kind, n) in &stats.errors_by_kind {
            assert_eq!(*n, prom_sum(&body, M_ERRORS, &[("kind", kind)]), "{kind}");
        }
        assert!(stats.batches >= 1, "no batch formed: {stats:?}");
        assert!(stats.coalesced >= 2);
        assert!(stats.max_batch >= 2);
        assert_eq!(stats.coalesced, prom_sum(&body, M_COALESCED, &[]));
        let count_of = |family| format!("{family}_count");
        assert_eq!(stats.batches, prom_sum(&body, &count_of(M_BATCH_SIZE), &[]));
        assert_eq!(stats.latency.count, 7);
        assert_eq!(
            stats.latency.count,
            prom_sum(&body, &count_of(M_LATENCY_NS), &[("outcome", "ok")])
        );
    }

    #[test]
    fn queue_capacity_is_enforced_once_closed() {
        // A closed queue refuses instead of buffering.
        let s = server(2);
        s.core.queue.close();
        let sink = Sink::default();
        let out: Out = Arc::new(Mutex::new(Box::new(sink.clone())));
        s.dispatch("{\"algo\": \"cc\"}", &out);
        let lines = sink.lines();
        assert_eq!(
            lines[0].get("error").unwrap().get("kind").unwrap().str(),
            Some(KIND_SHUTTING_DOWN)
        );
        assert_eq!(s.stats().rejected, 1);
    }
}
