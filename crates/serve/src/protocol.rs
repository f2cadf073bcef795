//! The serve wire protocol: newline-delimited JSON, one request and one
//! response per line.
//!
//! Requests are parsed from untrusted bytes with [`crate::json`] and
//! validated strictly (unknown fields are rejected — a typo like
//! `"soruce"` should fail loudly, not silently run from vertex 0).
//! Responses are rendered as single-line JSON so they frame cleanly on a
//! byte stream; the `rows` array inside a run response matches the record
//! shape of `ppgraph run --json` (`dataset`/`mode`/`algo`/`threads`/`ms`),
//! so the same tooling can consume both.
//!
//! ## Requests
//!
//! ```json
//! {"algo": "bfs", "source": 3}
//! {"algo": "bc", "params": {"direction": "pull", "bc_sources": 4}, "metrics": true, "id": 7}
//! {"op": "stats"}
//! {"op": "metrics"}
//! {"op": "ping"}
//! {"op": "shutdown"}
//! ```
//!
//! * `op` — `"run"` (default), `"stats"`, `"metrics"` (Prometheus text
//!   exposition, returned in the response's `body` string), `"ping"`, or
//!   `"shutdown"`.
//! * `algo` — registry name or alias (run requests only; required).
//! * `source` — source vertex for rooted algorithms (default 0).
//! * `params` — optional object: `direction` (`push|pull|adaptive`),
//!   `mode` (`atomic|pa`), `lp_iters`, `bc_sources`.
//! * `metrics` — when true the response report carries wall-clock timing
//!   (`elapsed_ns`, switches) collected at `MetricsLevel::Timing`.
//! * `id` — any JSON scalar, echoed verbatim in the response so clients
//!   can match responses to requests when queries execute out of order.
//!
//! ## Responses
//!
//! ```json
//! {"ok": true, "id": 7, "rows": [{"dataset": "g.ppg", "mode": "atomic",
//!  "algo": "bfs adaptive", "threads": 1, "ms": 1.25}],
//!  "summary": {"reached": "1024", "depth": "9"},
//!  "report": {"rounds": 10, ...},
//!  "latency_ns": 1830211, "queue_ns": 120331, "run_ns": 1709880, "worker": 1,
//!  "batched": 1}
//! {"ok": false, "id": 8, "error": {"kind": "overloaded",
//!  "message": "admission queue full (capacity 64)"}}
//! ```
//!
//! `error.kind` is one of [`RunError::kind`]'s tags
//! (`unknown_algo`/`source_out_of_range`/`needs_weights`/`bad_param`) or a
//! transport-level tag: [`KIND_BAD_REQUEST`] (the line did not parse or
//! validate), [`KIND_OVERLOADED`] (admission control refused the query),
//! [`KIND_SHUTTING_DOWN`] (the server is draining).
//!
//! `batched` reports how many queries shared the traversal that produced
//! the response (workers coalesce compatible queued `bfs` queries into one
//! bit-parallel multi-source run — see [`crate::server`]). Everything else
//! about a batched response — summary, report digests, `id` echo — is
//! identical to the query running alone.

use pp_core::Direction;
use pp_engine::registry::{AlgoRun, RunError};
use pp_engine::{DirectionPolicy, ExecutionMode};
use pp_graph::VertexId;

use crate::json::{self, escape, Value};

/// `error.kind` for a line that failed to parse or validate as a request.
pub const KIND_BAD_REQUEST: &str = "bad_request";
/// `error.kind` for a query refused by admission control (queue full).
pub const KIND_OVERLOADED: &str = "overloaded";
/// `error.kind` for a query arriving while the server drains.
pub const KIND_SHUTTING_DOWN: &str = "shutting_down";

/// A parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Execute a registry algorithm.
    Run(QuerySpec),
    /// Report uptime, served/rejected counters, latency percentiles.
    Stats,
    /// Return the Prometheus text exposition of every service metric.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Stop accepting queries, drain the queue, exit the serve loop.
    Shutdown,
}

/// Everything a run request carries. Defaults mirror
/// [`pp_engine::registry::RunConfig::new`] so a bare `{"algo": "cc"}` runs
/// the same configuration `ppgraph run cc` would.
#[derive(Clone, Debug)]
pub struct QuerySpec {
    /// The request's `id`, pre-rendered as a JSON scalar for echoing.
    pub id: Option<String>,
    /// Registry algorithm name or alias.
    pub algo: String,
    /// Source vertex for rooted algorithms.
    pub source: VertexId,
    /// Direction schedule (`push`/`pull`/`adaptive`).
    pub policy: DirectionPolicy,
    /// Human name of the policy, echoed into the response row.
    pub policy_name: &'static str,
    /// Push execution mode.
    pub mode: ExecutionMode,
    /// Human name of the mode, echoed into the response row.
    pub mode_name: &'static str,
    /// Iteration cap for label propagation.
    pub lp_iters: usize,
    /// Source cap for betweenness centrality.
    pub bc_sources: Option<usize>,
    /// Collect wall-clock timing for this query.
    pub metrics: bool,
}

impl Default for QuerySpec {
    fn default() -> Self {
        Self {
            id: None,
            algo: String::new(),
            source: 0,
            policy: DirectionPolicy::adaptive(),
            policy_name: "adaptive",
            mode: ExecutionMode::Atomic,
            mode_name: "atomic",
            lp_iters: 20,
            bc_sources: Some(8),
            metrics: false,
        }
    }
}

fn render_scalar(v: &Value) -> Option<String> {
    match v {
        Value::Null => Some("null".to_string()),
        Value::Bool(b) => Some(b.to_string()),
        Value::Num(n) => Some(format_f64(*n)),
        Value::Str(s) => Some(format!("\"{}\"", escape(s))),
        Value::Arr(_) | Value::Obj(_) => None,
    }
}

/// Renders an `f64` as JSON: integers without a fraction, everything else
/// via the shortest round-trip form Rust's formatter produces.
fn format_f64(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn as_usize(v: &Value, field: &str) -> Result<usize, String> {
    match v {
        Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 9e15 => Ok(*n as usize),
        _ => Err(format!("{field} must be a non-negative integer")),
    }
}

/// Parses one request line. `Err` is a human-readable message the server
/// wraps into a [`KIND_BAD_REQUEST`] response; it never panics, whatever
/// the bytes.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let doc = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let obj = match &doc {
        Value::Obj(m) => m,
        _ => return Err("a request must be a JSON object".to_string()),
    };
    for key in obj.keys() {
        if !matches!(
            key.as_str(),
            "op" | "algo" | "source" | "params" | "metrics" | "id"
        ) {
            return Err(format!("unknown field: {key}"));
        }
    }
    let op = match doc.get("op") {
        None => "run",
        Some(Value::Str(s)) => s.as_str(),
        Some(_) => return Err("op must be a string".to_string()),
    };
    match op {
        "stats" => return Ok(Request::Stats),
        "metrics" => return Ok(Request::Metrics),
        "ping" => return Ok(Request::Ping),
        "shutdown" => return Ok(Request::Shutdown),
        "run" => {}
        other => {
            return Err(format!(
                "unknown op: {other} (run|stats|metrics|ping|shutdown)"
            ))
        }
    }

    let algo = match doc.get("algo") {
        Some(Value::Str(s)) if !s.is_empty() => s.clone(),
        Some(_) => return Err("algo must be a non-empty string".to_string()),
        None => return Err("missing field: algo".to_string()),
    };
    let mut spec = QuerySpec {
        algo,
        ..QuerySpec::default()
    };
    if let Some(v) = doc.get("source") {
        let s = as_usize(v, "source")?;
        spec.source = VertexId::try_from(s).map_err(|_| "source exceeds u32".to_string())?;
    }
    if let Some(v) = doc.get("metrics") {
        spec.metrics = v.bool().ok_or("metrics must be a boolean")?;
    }
    if let Some(v) = doc.get("id") {
        spec.id = Some(render_scalar(v).ok_or("id must be a JSON scalar")?);
    }
    if let Some(params) = doc.get("params") {
        let pobj = match params {
            Value::Obj(m) => m,
            _ => return Err("params must be an object".to_string()),
        };
        for key in pobj.keys() {
            if !matches!(
                key.as_str(),
                "direction" | "mode" | "lp_iters" | "bc_sources"
            ) {
                return Err(format!("unknown params field: {key}"));
            }
        }
        if let Some(v) = params.get("direction") {
            (spec.policy, spec.policy_name) = match v.str() {
                Some("push") => (DirectionPolicy::Fixed(Direction::Push), "push"),
                Some("pull") => (DirectionPolicy::Fixed(Direction::Pull), "pull"),
                Some("adaptive") => (DirectionPolicy::adaptive(), "adaptive"),
                _ => return Err("direction must be push|pull|adaptive".to_string()),
            };
        }
        if let Some(v) = params.get("mode") {
            (spec.mode, spec.mode_name) = match v.str() {
                Some("atomic") => (ExecutionMode::Atomic, "atomic"),
                Some("pa") => (ExecutionMode::PartitionAware, "pa"),
                _ => return Err("mode must be atomic|pa".to_string()),
            };
        }
        if let Some(v) = params.get("lp_iters") {
            spec.lp_iters = as_usize(v, "lp_iters")?;
        }
        if let Some(v) = params.get("bc_sources") {
            // `Some(0)` flows through to the registry, which refuses it as
            // a structured `bad_param` — the protocol does not reinterpret
            // zero the way the CLI's `--bc-sources 0` (= all) does.
            spec.bc_sources = Some(as_usize(v, "bc_sources")?);
        }
    }
    Ok(Request::Run(spec))
}

fn push_id(out: &mut String, id: Option<&str>) {
    if let Some(id) = id {
        out.push_str(", \"id\": ");
        out.push_str(id);
    }
}

/// The latency decomposition of one query's life: `queue_ns` (admission to
/// dequeue by a worker runner) + `run_ns` (dequeue to completion) =
/// `latency_ns` exactly (all three cut from the same clock readings).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySplit {
    /// Nanoseconds spent waiting in the admission queue.
    pub queue_ns: u64,
    /// Nanoseconds spent executing on the worker runner.
    pub run_ns: u64,
    /// End-to-end nanoseconds (admission to completion).
    pub latency_ns: u64,
    /// The worker runner that executed the query.
    pub worker: usize,
    /// How many queries shared the traversal that produced this response.
    /// `1` means the query ran alone; `k > 1` means the worker coalesced it
    /// with `k - 1` compatible queued queries into one bit-parallel batched
    /// run (one lane per source), and `run_ns` is that shared run's time.
    pub batched: usize,
}

impl Default for LatencySplit {
    fn default() -> Self {
        Self {
            queue_ns: 0,
            run_ns: 0,
            latency_ns: 0,
            worker: 0,
            batched: 1,
        }
    }
}

/// Renders a successful run response: one `ppgraph run --json`-compatible
/// row, the output digest, the aggregate report, the query's end-to-end
/// latency (admission to completion) with its queue/run decomposition, and
/// the worker that ran it. Single line, no interior newlines.
pub fn render_run_response(
    spec: &QuerySpec,
    dataset: &str,
    threads: usize,
    run: &AlgoRun,
    ms: f64,
    split: LatencySplit,
) -> String {
    let r = &run.report;
    let mut out = String::from("{\"ok\": true");
    push_id(&mut out, spec.id.as_deref());
    out.push_str(&format!(
        ", \"rows\": [{{\"dataset\": \"{}\", \"mode\": \"{}\", \"algo\": \"{} {}\", \
         \"threads\": {}, \"ms\": {:.3}}}]",
        escape(dataset),
        spec.mode_name,
        escape(&spec.algo),
        spec.policy_name,
        threads,
        ms
    ));
    out.push_str(", \"summary\": {");
    for (i, (k, v)) in run.summary.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": \"{}\"", escape(k), escape(v)));
    }
    out.push('}');
    out.push_str(&format!(
        ", \"report\": {{\"rounds\": {}, \"phases\": {}, \"push_rounds\": {}, \
         \"pull_rounds\": {}, \"edges_traversed\": {}",
        r.num_rounds(),
        r.phases,
        r.push_rounds(),
        r.pull_rounds(),
        r.edges_traversed()
    ));
    if spec.metrics {
        out.push_str(&format!(
            ", \"elapsed_ns\": {}, \"round_duration_ns\": {}, \"switches\": {}",
            r.elapsed_ns,
            r.round_duration_ns(),
            r.switches()
        ));
    }
    out.push_str(&format!(
        "}}, \"latency_ns\": {}, \"queue_ns\": {}, \"run_ns\": {}, \"worker\": {}, \
         \"batched\": {}}}",
        split.latency_ns, split.queue_ns, split.run_ns, split.worker, split.batched
    ));
    out
}

/// Renders a structured failure (`ok: false`).
pub fn render_error(id: Option<&str>, kind: &str, message: &str) -> String {
    let mut out = String::from("{\"ok\": false");
    push_id(&mut out, id);
    out.push_str(&format!(
        ", \"error\": {{\"kind\": \"{}\", \"message\": \"{}\"}}}}",
        escape(kind),
        escape(message)
    ));
    out
}

/// Renders a [`RunError`] as its structured response.
pub fn render_run_error(id: Option<&str>, e: &RunError) -> String {
    render_error(id, e.kind(), &e.to_string())
}

/// Renders the ping acknowledgement.
pub fn render_pong() -> String {
    "{\"ok\": true, \"op\": \"ping\"}".to_string()
}

/// Renders the shutdown acknowledgement (sent before the drain begins).
pub fn render_shutdown_ack() -> String {
    "{\"ok\": true, \"op\": \"shutdown\", \"draining\": true}".to_string()
}

/// Count/mean/quantiles of one latency series, the unit every breakdown
/// entry is made of. All values in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples in the series.
    pub count: u64,
    /// Mean sample (ns).
    pub mean_ns: f64,
    /// Median estimate (ns).
    pub p50_ns: u64,
    /// 95th-percentile estimate (ns).
    pub p95_ns: u64,
    /// 99th-percentile estimate (ns).
    pub p99_ns: u64,
    /// Largest observed sample (ns).
    pub max_ns: u64,
}

impl From<&pp_telemetry::LogHistogram> for LatencySummary {
    fn from(h: &pp_telemetry::LogHistogram) -> Self {
        Self {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.p50(),
            p95_ns: h.p95(),
            p99_ns: h.p99(),
            max_ns: h.max(),
        }
    }
}

impl LatencySummary {
    fn render(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \
             \"p95_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}}}",
            self.count, self.mean_ns, self.p50_ns, self.p95_ns, self.p99_ns, self.max_ns
        )
    }
}

/// One algorithm's row in the stats breakdown: how many queries it served
/// and erred, and its queue/run latency split, since boot and in-window.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlgoStats {
    /// Canonical registry algorithm name.
    pub algo: String,
    /// Queries of this algorithm completed successfully.
    pub served: u64,
    /// Queries of this algorithm that returned a structured error.
    pub errors: u64,
    /// Since-boot queue-wait latency.
    pub queue: LatencySummary,
    /// Since-boot execution latency.
    pub run: LatencySummary,
    /// Queue-wait latency over the trailing window.
    pub window_queue: LatencySummary,
    /// Execution latency over the trailing window.
    pub window_run: LatencySummary,
}

/// A point-in-time view of the server's counters, rendered by
/// [`render_stats`] and filled in by `crate::server`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Nanoseconds since the server finished loading the graph.
    pub uptime_ns: u64,
    /// The served graph's name (snapshot path or `<stdin>`).
    pub dataset: String,
    /// Vertices in the resident graph.
    pub n: usize,
    /// Edges in the resident graph.
    pub m: usize,
    /// Worker runners executing queries.
    pub workers: usize,
    /// Engine threads per worker runner.
    pub threads_per_worker: usize,
    /// Admission queue capacity.
    pub queue_capacity: usize,
    /// Queries waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Run queries completed successfully.
    pub served: u64,
    /// Run queries refused by admission control.
    pub rejected: u64,
    /// Run queries that returned a structured error.
    pub errors: u64,
    /// `errors` decomposed by [`RunError::kind`] tag, tag-sorted.
    pub errors_by_kind: Vec<(String, u64)>,
    /// Since-boot end-to-end latency (admission to completion) of the
    /// queries served successfully.
    pub latency: LatencySummary,
    /// Width of the trailing metrics window, in seconds.
    pub window_s: f64,
    /// Since-boot queue-wait latency across all algorithms.
    pub queue_lat: LatencySummary,
    /// Since-boot execution latency across all algorithms.
    pub run_lat: LatencySummary,
    /// Queue-wait latency over the trailing window.
    pub window_queue_lat: LatencySummary,
    /// Execution latency over the trailing window.
    pub window_run_lat: LatencySummary,
    /// Per-algorithm breakdown, algorithm-sorted.
    pub per_algo: Vec<AlgoStats>,
    /// Per-worker-runner busy share (`0.0..=1.0`) at the snapshot.
    pub worker_utilization: Vec<f64>,
    /// Batched runs executed (each covers ≥ 2 coalesced queries).
    pub batches: u64,
    /// Queries served through a shared batched run (each counted once).
    pub coalesced: u64,
    /// Largest batch executed so far (queries per run; 0 before any batch).
    pub max_batch: u64,
}

impl StatsSnapshot {
    /// Seconds since the server finished loading the graph.
    pub fn uptime_s(&self) -> f64 {
        self.uptime_ns as f64 / 1e9
    }
}

/// Renders the `stats` meta-query response. The PR-7 fields keep their
/// exact shapes; the latency decomposition, window, per-algo, error-kind,
/// and utilization sections are additive.
pub fn render_stats(s: &StatsSnapshot) -> String {
    let mut out = format!(
        "{{\"ok\": true, \"op\": \"stats\", \"uptime_ns\": {}, \"uptime_s\": {:.3}, \
         \"graph\": {{\"dataset\": \"{}\", \"n\": {}, \"m\": {}}}, \
         \"workers\": {}, \"threads_per_worker\": {}, \
         \"queue\": {{\"capacity\": {}, \"depth\": {}}}, \
         \"served\": {}, \"rejected\": {}, \"errors\": {}",
        s.uptime_ns,
        s.uptime_s(),
        escape(&s.dataset),
        s.n,
        s.m,
        s.workers,
        s.threads_per_worker,
        s.queue_capacity,
        s.queue_depth,
        s.served,
        s.rejected,
        s.errors,
    );
    out.push_str(", \"errors_by_kind\": {");
    for (i, (kind, n)) in s.errors_by_kind.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\": {n}", escape(kind)));
    }
    out.push('}');
    out.push_str(&format!(
        ", \"latency\": {}, \"breakdown\": {{\"queue\": {}, \"run\": {}}}",
        s.latency.render(),
        s.queue_lat.render(),
        s.run_lat.render()
    ));
    out.push_str(&format!(
        ", \"window\": {{\"seconds\": {:.1}, \"queue\": {}, \"run\": {}}}",
        s.window_s,
        s.window_queue_lat.render(),
        s.window_run_lat.render()
    ));
    out.push_str(", \"algos\": [");
    for (i, a) in s.per_algo.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "{{\"algo\": \"{}\", \"served\": {}, \"errors\": {}, \
             \"queue\": {}, \"run\": {}, \"window_queue\": {}, \"window_run\": {}}}",
            escape(&a.algo),
            a.served,
            a.errors,
            a.queue.render(),
            a.run.render(),
            a.window_queue.render(),
            a.window_run.render()
        ));
    }
    out.push(']');
    out.push_str(&format!(
        ", \"batching\": {{\"batches\": {}, \"coalesced\": {}, \"max_batch\": {}}}",
        s.batches, s.coalesced, s.max_batch
    ));
    out.push_str(", \"workers_util\": [");
    for (i, u) in s.worker_utilization.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{u:.4}"));
    }
    out.push_str("]}");
    out
}

/// Renders the `metrics` meta-query response: the Prometheus text
/// exposition, JSON-escaped into the `body` field (unwrap it with
/// `ppgraph query --prom`, or any JSON reader, to get a scrapable
/// `.prom` document).
pub fn render_metrics_response(body: &str) -> String {
    format!(
        "{{\"ok\": true, \"op\": \"metrics\", \"format\": \"prometheus-text\", \
         \"body\": \"{}\"}}",
        escape(body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_run_request_gets_registry_defaults() {
        let r = parse_request(r#"{"algo": "cc"}"#).unwrap();
        let spec = match r {
            Request::Run(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(spec.algo, "cc");
        assert_eq!(spec.source, 0);
        assert_eq!(spec.policy_name, "adaptive");
        assert_eq!(spec.mode_name, "atomic");
        assert_eq!(spec.lp_iters, 20);
        assert_eq!(spec.bc_sources, Some(8));
        assert!(!spec.metrics);
        assert_eq!(spec.id, None);
    }

    #[test]
    fn full_run_request_parses_every_field() {
        let r = parse_request(
            r#"{"op": "run", "algo": "bc", "source": 7,
                "params": {"direction": "pull", "mode": "pa",
                           "lp_iters": 5, "bc_sources": 3},
                "metrics": true, "id": "q-1"}"#,
        )
        .unwrap();
        let spec = match r {
            Request::Run(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(spec.algo, "bc");
        assert_eq!(spec.source, 7);
        assert!(matches!(
            spec.policy,
            DirectionPolicy::Fixed(Direction::Pull)
        ));
        assert_eq!(spec.mode, ExecutionMode::PartitionAware);
        assert_eq!(spec.policy_name, "pull");
        assert_eq!(spec.mode_name, "pa");
        assert_eq!(spec.lp_iters, 5);
        assert_eq!(spec.bc_sources, Some(3));
        assert!(spec.metrics);
        assert_eq!(spec.id.as_deref(), Some("\"q-1\""));
    }

    #[test]
    fn ids_echo_as_scalars_of_any_type() {
        for (id, rendered) in [
            ("7", "7"),
            ("7.5", "7.5"),
            ("\"a\\\"b\"", "\"a\\\"b\""),
            ("true", "true"),
            ("null", "null"),
        ] {
            let line = format!("{{\"algo\": \"cc\", \"id\": {id}}}");
            match parse_request(&line).unwrap() {
                Request::Run(s) => assert_eq!(s.id.as_deref(), Some(rendered), "{id}"),
                other => panic!("{other:?}"),
            }
        }
        assert!(parse_request(r#"{"algo": "cc", "id": [1]}"#).is_err());
        assert!(parse_request(r#"{"algo": "cc", "id": {"a": 1}}"#).is_err());
    }

    #[test]
    fn meta_ops_parse() {
        assert!(matches!(
            parse_request(r#"{"op": "stats"}"#).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(r#"{"op": "metrics"}"#).unwrap(),
            Request::Metrics
        ));
        assert!(matches!(
            parse_request(r#"{"op": "ping"}"#).unwrap(),
            Request::Ping
        ));
        assert!(matches!(
            parse_request(r#"{"op": "shutdown"}"#).unwrap(),
            Request::Shutdown
        ));
    }

    #[test]
    fn malformed_requests_are_messages_not_panics() {
        for bad in [
            "",
            "not json",
            "[1, 2]",
            "\"just a string\"",
            r#"{"op": "run"}"#,
            r#"{"algo": ""}"#,
            r#"{"algo": 3}"#,
            r#"{"algo": "cc", "soruce": 1}"#,
            r#"{"algo": "cc", "source": -1}"#,
            r#"{"algo": "cc", "source": 1.5}"#,
            r#"{"algo": "cc", "source": 5000000000}"#,
            r#"{"algo": "cc", "metrics": "yes"}"#,
            r#"{"algo": "cc", "params": 3}"#,
            r#"{"algo": "cc", "params": {"direction": "sideways"}}"#,
            r#"{"algo": "cc", "params": {"mode": "quantum"}}"#,
            r#"{"algo": "cc", "params": {"bc_souces": 1}}"#,
            r#"{"op": "selfdestruct"}"#,
        ] {
            let e = parse_request(bad);
            assert!(e.is_err(), "{bad:?} parsed: {e:?}");
        }
    }

    #[test]
    fn responses_are_single_line_parseable_json() {
        let err = render_error(Some("42"), KIND_OVERLOADED, "queue full (capacity 2)");
        assert!(!err.contains('\n'));
        let doc = json::parse(&err).unwrap();
        assert_eq!(doc.get("ok").unwrap().bool(), Some(false));
        assert_eq!(doc.get("id").unwrap().u64(), Some(42));
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().str(),
            Some("overloaded")
        );

        let e = RunError::SourceOutOfRange { source: 9, n: 4 };
        let doc = json::parse(&render_run_error(None, &e)).unwrap();
        assert_eq!(
            doc.get("error").unwrap().get("kind").unwrap().str(),
            Some("source_out_of_range")
        );
        assert!(doc
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .str()
            .unwrap()
            .contains("out of range"));

        let doc = json::parse(&render_pong()).unwrap();
        assert_eq!(doc.get("op").unwrap().str(), Some("ping"));
        let doc = json::parse(&render_shutdown_ack()).unwrap();
        assert_eq!(doc.get("draining").unwrap().bool(), Some(true));

        let snap = StatsSnapshot {
            uptime_ns: 5_000_000_000,
            dataset: "g.ppg".to_string(),
            n: 10,
            m: 20,
            workers: 2,
            threads_per_worker: 1,
            queue_capacity: 64,
            queue_depth: 3,
            served: 100,
            rejected: 7,
            errors: 2,
            errors_by_kind: vec![
                ("bad_param".to_string(), 1),
                ("unknown_algo".to_string(), 1),
            ],
            latency: LatencySummary {
                count: 100,
                mean_ns: 1500.5,
                p50_ns: 1023,
                p95_ns: 2047,
                p99_ns: 4095,
                max_ns: 5000,
            },
            window_s: 60.0,
            queue_lat: LatencySummary {
                count: 100,
                mean_ns: 400.0,
                p50_ns: 255,
                p95_ns: 511,
                p99_ns: 511,
                max_ns: 480,
            },
            run_lat: LatencySummary {
                count: 100,
                mean_ns: 1100.5,
                p50_ns: 1023,
                p95_ns: 2047,
                p99_ns: 2047,
                max_ns: 1900,
            },
            window_queue_lat: LatencySummary::default(),
            window_run_lat: LatencySummary::default(),
            per_algo: vec![AlgoStats {
                algo: "bfs".to_string(),
                served: 100,
                errors: 2,
                ..AlgoStats::default()
            }],
            worker_utilization: vec![0.75, 0.5],
            batches: 4,
            coalesced: 11,
            max_batch: 5,
        };
        let rendered = render_stats(&snap);
        assert!(!rendered.contains('\n'));
        let doc = json::parse(&rendered).unwrap();
        assert_eq!(doc.get("served").unwrap().u64(), Some(100));
        assert_eq!(
            doc.get("latency").unwrap().get("p99_ns").unwrap().u64(),
            Some(4095)
        );
        assert_eq!(doc.get("graph").unwrap().get("n").unwrap().u64(), Some(10));
        // The additive PR-8 sections parse and carry the breakdown.
        assert_eq!(doc.get("uptime_s").unwrap().num(), Some(5.0));
        assert_eq!(
            doc.get("errors_by_kind")
                .unwrap()
                .get("bad_param")
                .unwrap()
                .u64(),
            Some(1)
        );
        let breakdown = doc.get("breakdown").unwrap();
        assert_eq!(
            breakdown.get("queue").unwrap().get("p50_ns").unwrap().u64(),
            Some(255)
        );
        assert_eq!(
            breakdown.get("run").unwrap().get("p95_ns").unwrap().u64(),
            Some(2047)
        );
        let window = doc.get("window").unwrap();
        assert_eq!(window.get("seconds").unwrap().num(), Some(60.0));
        assert_eq!(
            window.get("queue").unwrap().get("count").unwrap().u64(),
            Some(0)
        );
        let algos = doc.get("algos").unwrap().arr().unwrap();
        assert_eq!(algos.len(), 1);
        assert_eq!(algos[0].get("algo").unwrap().str(), Some("bfs"));
        assert_eq!(algos[0].get("served").unwrap().u64(), Some(100));
        let util = doc.get("workers_util").unwrap().arr().unwrap();
        assert_eq!(util.len(), 2);
        assert_eq!(util[0].num(), Some(0.75));
        let batching = doc.get("batching").unwrap();
        assert_eq!(batching.get("batches").unwrap().u64(), Some(4));
        assert_eq!(batching.get("coalesced").unwrap().u64(), Some(11));
        assert_eq!(batching.get("max_batch").unwrap().u64(), Some(5));
    }

    #[test]
    fn metrics_response_round_trips_the_prometheus_body() {
        let body = "# TYPE pp_serve_queries_total counter\n\
                    pp_serve_queries_total{algo=\"bfs\",outcome=\"ok\"} 3\n";
        let rendered = render_metrics_response(body);
        assert!(!rendered.contains('\n'));
        let doc = json::parse(&rendered).unwrap();
        assert_eq!(doc.get("ok").unwrap().bool(), Some(true));
        assert_eq!(doc.get("op").unwrap().str(), Some("metrics"));
        assert_eq!(doc.get("format").unwrap().str(), Some("prometheus-text"));
        assert_eq!(doc.get("body").unwrap().str(), Some(body));
    }

    #[test]
    fn latency_summary_reads_a_histogram() {
        let mut h = pp_telemetry::LogHistogram::new();
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        let s = LatencySummary::from(&h);
        assert_eq!(s.count, 4);
        assert_eq!(s.max_ns, 800);
        assert!(s.mean_ns > 0.0);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        let rendered = s.render();
        let doc = json::parse(&rendered).unwrap();
        assert_eq!(doc.get("count").unwrap().u64(), Some(4));
        assert_eq!(doc.get("max_ns").unwrap().u64(), Some(800));
    }
}
