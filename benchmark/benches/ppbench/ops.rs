//! The two batch operations a pass times — one registry run, one cold
//! run — each checked against the input's oracle before it counts.

use std::path::Path;
use std::time::Instant;

use pp_core::Direction;
use pp_engine::registry::{self, AlgoRun, RunConfig};
use pp_engine::{ingest, DirectionPolicy, Engine, ExecutionMode, ProbeShards, RunReport};
use pp_graph::{snapshot, VertexId};
use pp_telemetry::{CountingProbe, EventCounts, MetricsLevel, NullProbe};

use crate::alloc;
use crate::input::{digest_matches, digest_of, Input};
use crate::plan::BC_SOURCES;
use crate::spans::Tracer;

/// The engine a workload process runs on, with both probe registries.
pub struct Rig {
    pub engine: Engine,
    pub null: ProbeShards<NullProbe>,
    pub counting: ProbeShards<CountingProbe>,
}

impl Rig {
    pub fn new(threads: usize) -> Self {
        let engine = Engine::new(threads);
        Self {
            null: ProbeShards::new(engine.threads()),
            counting: ProbeShards::new(engine.threads()),
            engine,
        }
    }
}

/// The schedule of a workload's runs.
#[derive(Clone, Copy)]
pub struct Sched {
    pub mode: ExecutionMode,
    pub policy: DirectionPolicy,
}

/// What one sample of an algorithm did. The timing fields beyond `ms`
/// are filled by traced samples only.
#[derive(Clone, Debug, Default)]
pub struct Detail {
    /// Harness wall time of the registry call(s), milliseconds.
    pub ms: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rounds: u64,
    pub edges: u64,
    pub round_us: Vec<f64>,
    pub rounds_ns: u64,
    pub push_ns: u64,
    pub elapsed_ns: u64,
    pub busy_ns: u64,
    pub idle_ns: u64,
    pub switches: u64,
    pub remote_updates: u64,
    pub buffer_peak: u64,
    pub counts: EventCounts,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Detail {
    fn absorb(&mut self, r: &RunReport) {
        self.rounds += r.num_rounds() as u64;
        self.edges += r.edges_traversed();
        self.round_us
            .extend(r.rounds.iter().map(|x| x.duration_ns as f64 / 1e3));
        self.rounds_ns += r.round_duration_ns();
        self.push_ns += r.dir_duration_ns(Direction::Push);
        self.elapsed_ns += r.elapsed_ns;
        for lap in &r.worker_laps {
            self.busy_ns += lap.busy_ns;
            self.idle_ns += lap.idle_ns;
        }
        self.switches += r.switches() as u64;
        self.remote_updates += r.remote_updates();
        self.buffer_peak = self.buffer_peak.max(r.max_buffer_peak());
    }
}

/// The sources one sample of `algo` runs from: `bfs` sums over all the
/// batch sources, everything else uses the first (unrooted algorithms
/// ignore it).
fn sample_sources<'a>(input: &'a Input, algo: &str) -> &'a [VertexId] {
    if algo == "bfs" {
        &input.batch_sources
    } else {
        &input.batch_sources[..1]
    }
}

/// How much a sample looks at the run it times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Look {
    /// `MetricsLevel::Off`, `NullProbe`: what every end-to-end metric is.
    Plain,
    /// `MetricsLevel::Timing`, `NullProbe`: round timings, worker laps,
    /// policy decisions.
    Timed,
    /// `CountingProbe`: Table-1 event counts. Kept apart from `Timed`
    /// because counting every read costs up to 10× (pagerank 900 % here)
    /// and would pass that on to every round duration.
    Counted,
}

/// One sample of `algo` on `input` under `sched`, through
/// `registry::run_checked` (or its counting twin).
pub fn algo_sample(rig: &Rig, input: &Input, algo: &str, sched: Sched, look: Look) -> Detail {
    let mut d = Detail::default();
    for &source in sample_sources(input, algo) {
        let counts_before = (look == Look::Counted).then(|| rig.counting.merged());
        let allocs_before = alloc::snapshot();
        let t = Instant::now();
        let run: Result<AlgoRun, _> = if look == Look::Counted {
            let cfg = RunConfig {
                policy: sched.policy,
                mode: sched.mode,
                source,
                bc_sources: Some(BC_SOURCES),
                ..RunConfig::new(&rig.engine, &rig.counting)
            };
            registry::find_counting(algo)
                .ok_or_else(|| registry::RunError::UnknownAlgo(algo.to_string()))
                .and_then(|spec| spec.try_run(&cfg, &input.graph))
        } else {
            let cfg = RunConfig {
                policy: sched.policy,
                mode: sched.mode,
                collect: if look == Look::Timed {
                    MetricsLevel::Timing
                } else {
                    MetricsLevel::Off
                },
                source,
                bc_sources: Some(BC_SOURCES),
                ..RunConfig::new(&rig.engine, &rig.null)
            };
            registry::run_checked(algo, &cfg, &input.graph)
        };
        d.ms += t.elapsed().as_secs_f64() * 1e3;
        let allocs_after = alloc::snapshot();
        d.attempted += 1;
        let ok = run.as_ref().is_ok_and(|r| {
            input.oracle.expected(algo, source).is_some_and(|want| {
                digest_matches(algo, &digest_of(&r.summary), want, input.oracle.max_degree)
            })
        });
        if !ok {
            d.failed += 1;
            eprintln!(
                "ppbench: {algo} on {} from source {source} failed its check: {:?}",
                input.family.label(),
                run.as_ref().map(|r| &r.summary)
            );
        }
        if let Ok(r) = &run {
            d.absorb(&r.report);
        }
        d.allocs += allocs_after.0 - allocs_before.0;
        d.alloc_bytes += allocs_after.1 - allocs_before.1;
        if let Some(before) = counts_before {
            let delta = rig.counting.merged().saturating_sub(&before);
            d.counts.atomics += delta.atomics;
            d.counts.locks += delta.locks;
            d.counts.remote_sends += delta.remote_sends;
        }
    }
    d
}

/// One cold run: text edge list on disk → `read_edge_list_parallel` →
/// `save_ppg_path` → `load_ppg_path` → `bfs` → digest. Returns seconds
/// and whether the digest (and the reloaded graph) were right. Stage
/// spans are recorded under the caller's open span.
pub fn cold_run(
    rig: &Rig,
    input: &Input,
    scratch_ppg: &Path,
    sched: Sched,
    sample: u32,
    tracer: &mut Tracer,
) -> (f64, bool) {
    let text = input
        .text_path
        .as_ref()
        .expect("set-up wrote the text file of the cold-run input");
    let t = Instant::now();
    let run = (|| -> Result<(AlgoRun, bool), String> {
        let (bytes, _) = tracer.time("read_text", sample, || std::fs::read(text));
        let bytes = bytes.map_err(|e| e.to_string())?;
        let (g, _) = tracer.time("ingest", sample, || {
            ingest::read_edge_list_parallel(&rig.engine, &bytes, 0)
        });
        let g = g.map_err(|e| e.to_string())?;
        let (saved, _) = tracer.time("save_ppg", sample, || {
            snapshot::save_ppg_path(&g, scratch_ppg)
        });
        saved.map_err(|e| e.to_string())?;
        let (loaded, _) = tracer.time("load_ppg", sample, || snapshot::load_ppg_path(scratch_ppg));
        let loaded = loaded.map_err(|e| e.to_string())?;
        let cfg = RunConfig {
            policy: sched.policy,
            mode: sched.mode,
            source: input.batch_sources[0],
            ..RunConfig::new(&rig.engine, &rig.null)
        };
        let (run, _) = tracer.time("run:bfs", sample, || {
            registry::run_checked("bfs", &cfg, &loaded)
        });
        let same_shape = loaded.num_vertices() == input.graph.num_vertices()
            && loaded.num_arcs() == input.graph.num_arcs();
        Ok((run.map_err(|e| e.to_string())?, same_shape))
    })();
    let secs = t.elapsed().as_secs_f64();
    let ok = match &run {
        Ok((r, same_shape)) => {
            *same_shape
                && input
                    .oracle
                    .expected("bfs", input.batch_sources[0])
                    .is_some_and(|want| {
                        digest_matches("bfs", &digest_of(&r.summary), want, input.oracle.max_degree)
                    })
        }
        Err(e) => {
            eprintln!("ppbench: cold run on {} failed: {e}", input.family.label());
            false
        }
    };
    (secs, ok)
}
