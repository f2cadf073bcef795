//! The `Runner`: what a *run* is — engine, direction policy, probe shards,
//! and the one shared round loop every [`Program`] executes on.
//!
//! Before this abstraction each algorithm hand-rolled its own loop
//! (direction handling, convergence check, telemetry plumbing); now the
//! loop exists exactly once, and a policy/scheduling improvement reaches
//! all ten algorithms at the same commit.

use pp_core::Direction;
use pp_graph::CsrGraph;
use pp_telemetry::timing::Clock;
use pp_telemetry::MetricsLevel;

use crate::frontier::Frontier;
use crate::ops::Engine;
use crate::partitioned::{ExecutionMode, PaContext};
use crate::policy::DirectionPolicy;
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::{PhaseKernel, Program, RoundCtx};
use crate::report::{RoundStat, RunReport};

/// A completed run: the program's output plus the unified round telemetry.
#[derive(Clone, Debug)]
pub struct Run<T> {
    /// What the program computed.
    pub output: T,
    /// Per-round direction/frontier/edge statistics.
    pub report: RunReport,
}

/// Builder for program runs: borrows an [`Engine`] and a probe-shard set,
/// carries a [`DirectionPolicy`], and drives any [`Program`] to its
/// fixpoint. Reusable: `run` takes `&self` and clones the policy, so one
/// runner can execute many programs (or the same program repeatedly).
pub struct Runner<'a, P: ShardProbe> {
    engine: &'a Engine,
    probes: &'a ProbeShards<P>,
    policy: DirectionPolicy,
    mode: ExecutionMode,
    metrics: MetricsLevel,
}

impl<'a, P: ShardProbe> Runner<'a, P> {
    /// A runner over `engine` with per-worker `probes`, defaulting to the
    /// adaptive direction policy, atomic push execution, and no run-wide
    /// metrics collection ([`MetricsLevel::Off`]).
    pub fn new(engine: &'a Engine, probes: &'a ProbeShards<P>) -> Self {
        Self {
            engine,
            probes,
            policy: DirectionPolicy::adaptive(),
            mode: ExecutionMode::Atomic,
            metrics: MetricsLevel::Off,
        }
    }

    /// Selects the direction policy for subsequent runs.
    pub fn policy(mut self, policy: DirectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Selects how push rounds execute (§5):
    /// [`ExecutionMode::PartitionAware`] replaces per-edge atomics with
    /// plain local writes plus an owner-computes exchange, binding one
    /// partition part to each engine thread. Pull rounds are unaffected.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects how much run-wide observability subsequent runs collect:
    /// policy decision records at [`MetricsLevel::Counts`], clocks and
    /// per-worker laps at [`MetricsLevel::Timing`], the per-round ×
    /// per-worker trace substrate at [`MetricsLevel::Trace`]. At
    /// [`MetricsLevel::Off`] (the default) the run takes exactly today's
    /// uninstrumented path and the report is identical to one from a
    /// runner without this knob.
    pub fn metrics(mut self, metrics: MetricsLevel) -> Self {
        self.metrics = metrics;
        self
    }

    /// The engine this runner schedules onto.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// Drives `program` to convergence and returns its output with the
    /// per-round report.
    ///
    /// Each iteration: ask the program for the phase's kernel family
    /// ([`Program::phase_kernel`]) and the policy for a direction, let the
    /// program see the round ([`Program::begin_round`]), then `edge_map`
    /// the frontier — or, for a [`PhaseKernel::VertexStep`] phase, skip
    /// edge traversal entirely (the round's vertex work happened in
    /// `begin_round`). When a phase drains, [`Program::next_phase`] reseeds
    /// or ends the run.
    ///
    /// The report's `phases` counts the phases that executed at least one
    /// round; a run whose every frontier was empty reports `phases == 0`
    /// and `rounds.is_empty()`, exactly like [`RunReport::default`].
    pub fn run<Pg: Program<P>>(&self, g: &CsrGraph, mut program: Pg) -> Run<Pg::Output> {
        let mut policy = self.policy;
        // Partition-aware runs bind one part per engine thread and cut
        // the §5 split lazily at the first push round (a run whose policy
        // never pushes skips the build entirely); the context — split
        // view and exchange buffers — then persists (and keeps its buffer
        // capacity) across every push round of the run.
        let mut pa: Option<PaContext> = None;
        let metrics = self.metrics;
        // All observability is opt-in per level: at `Off`, `clock` is None,
        // lap recording stays off, and every gate below is a dead branch —
        // the loop body is today's uninstrumented path and the report it
        // builds is identical to the legacy one.
        let clock = metrics.times().then(Clock::start);
        let pool = self.engine.pool();
        if metrics.times() {
            pool.reset_laps();
            pool.set_lap_recording(true);
        }
        // Previous cumulative per-worker busy, for per-round deltas.
        let mut lap_mark: Vec<u64> = Vec::new();
        let mut frontier = program.initial_frontier(g);
        let mut report = RunReport::default();
        let mut round = 0u32;
        let mut phase = 0u32;
        let mut ran_this_phase = false;
        loop {
            while !frontier.is_empty() {
                let kernel = program.phase_kernel(phase);
                // A vertex step runs no edge kernel: don't feed the
                // adaptive hysteresis a frontier it will never traverse —
                // and don't charge |E_F| it will never touch.
                let (dir, decision) = match kernel {
                    PhaseKernel::EdgeMap => {
                        let d = policy.next_decision(&frontier, g);
                        (d.dir, (metrics >= MetricsLevel::Counts).then_some(d))
                    }
                    PhaseKernel::VertexStep => (policy.current(), None),
                };
                let stat_frontier = frontier.len();
                let stat_edges = match kernel {
                    PhaseKernel::EdgeMap => frontier.edge_count(g),
                    PhaseKernel::VertexStep => 0,
                };
                let start_ns = clock.as_ref().map_or(0, Clock::now_ns);
                let ctx = RoundCtx { round, phase, dir };
                program.begin_round(ctx, g, &mut frontier, self.engine, self.probes);
                // Batched programs publish their per-round lane count in
                // `begin_round` (where the lane fold happens); query it
                // while the round's frontier is current.
                let lanes_active = program.lanes_active().unwrap_or(0);
                let (next, stats) = match (kernel, self.mode, dir) {
                    (PhaseKernel::VertexStep, _, _) => (Frontier::empty(g.num_vertices()), None),
                    (PhaseKernel::EdgeMap, ExecutionMode::PartitionAware, Direction::Push) => {
                        let pactx =
                            pa.get_or_insert_with(|| PaContext::new(g, self.engine.threads()));
                        let (next, stats) =
                            pactx.push_round(self.engine, &mut frontier, &program, self.probes);
                        (next, Some(stats))
                    }
                    (PhaseKernel::EdgeMap, _, _) => (
                        self.engine
                            .edge_map(g, &mut frontier, dir, &program, self.probes),
                        None,
                    ),
                };
                frontier = next;
                let duration_ns = clock
                    .as_ref()
                    .map_or(0, |c| c.now_ns().saturating_sub(start_ns));
                if metrics.traces() {
                    // Per-round worker busy = delta of the pool's cumulative
                    // ledgers across the round (the round barrier has
                    // passed, so the ledgers are quiescent here).
                    let laps = pool.laps();
                    lap_mark.resize(laps.len(), 0);
                    let row: Vec<u64> = laps
                        .iter()
                        .zip(lap_mark.iter())
                        .map(|(lap, prev)| lap.busy_ns.saturating_sub(*prev))
                        .collect();
                    for (prev, lap) in lap_mark.iter_mut().zip(&laps) {
                        *prev = lap.busy_ns;
                    }
                    report.round_worker_busy.push(row);
                }
                report.rounds.push(RoundStat {
                    round,
                    phase,
                    dir,
                    frontier: stat_frontier,
                    frontier_edges: stat_edges,
                    remote_updates: stats.map_or(0, |s| s.remote_updates),
                    buffer_peak: stats.map_or(0, |s| s.buffer_peak),
                    start_ns,
                    duration_ns,
                    decision,
                    lanes_active,
                });
                round += 1;
                ran_this_phase = true;
            }
            match program.next_phase(g, self.engine, self.probes) {
                Some(next) => {
                    frontier = next;
                    // A reseed only opens a new phase index if the current
                    // one actually executed a round — so phase indices in
                    // the report stay contiguous (0..phases) even when a
                    // program reseeds with an empty frontier and the
                    // runner asks again.
                    if ran_this_phase {
                        phase += 1;
                        ran_this_phase = false;
                    }
                }
                None => break,
            }
        }
        // Convention (documented on `RunReport::phases`): count the phases
        // that actually executed a round, so the zero-round run reports 0 —
        // identical to `RunReport::default()` — instead of a phantom 1.
        report.phases = phase + u32::from(ran_this_phase);
        // The per-source axis must be read before `finish` consumes the
        // program; single-source programs return the empty default, so
        // their reports keep the pre-batch shape (and the zero-round run
        // still equals `RunReport::default()`).
        report.sources = program.source_stats();
        if let Some(c) = &clock {
            report.elapsed_ns = c.now_ns();
            report.worker_laps = pool.laps();
            pool.set_lap_recording(false);
        }
        Run {
            output: program.finish(g),
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::Frontier;
    use crate::ops::EdgeKernel;
    use crate::program::frontier_where;
    use pp_core::Direction;
    use pp_graph::{VertexId, Weight};
    use pp_telemetry::{NullProbe, Probe};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Two-phase reachability: phase 0 marks the component of vertex 0,
    /// phase 1 the component of the smallest unmarked vertex (if any).
    struct TwoSweep {
        mark: Vec<AtomicU32>,
        sweeps: u32,
    }

    impl<P: Probe> EdgeKernel<P> for TwoSweep {
        fn push_update(&self, _u: VertexId, v: VertexId, _w: Weight, _probe: &P) -> bool {
            self.mark[v as usize]
                .compare_exchange(0, self.sweeps, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        }

        fn pull_gather(&self, v: VertexId, _u: VertexId, _w: Weight, _probe: &P) -> bool {
            // Own-cell write; candidate gate keeps this exactly-once.
            self.mark[v as usize].store(self.sweeps, Ordering::Relaxed);
            true
        }

        fn pull_candidate(&self, v: VertexId, _probe: &P) -> bool {
            self.mark[v as usize].load(Ordering::Relaxed) == 0
        }

        fn pull_saturates(&self) -> bool {
            true
        }
    }

    impl<P: ShardProbe> Program<P> for TwoSweep {
        type Output = Vec<u32>;

        fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
            self.sweeps = 1;
            self.mark[0].store(1, Ordering::Relaxed);
            Frontier::single(g, 0)
        }

        fn next_phase(
            &mut self,
            g: &CsrGraph,
            _engine: &Engine,
            _probes: &ProbeShards<P>,
        ) -> Option<Frontier> {
            if self.sweeps >= 2 {
                return None;
            }
            let seed =
                (0..g.num_vertices()).find(|&v| self.mark[v].load(Ordering::Relaxed) == 0)?;
            self.sweeps = 2;
            self.mark[seed].store(2, Ordering::Relaxed);
            Some(frontier_where(g, |v| v as usize == seed))
        }

        fn finish(self, _g: &CsrGraph) -> Vec<u32> {
            self.mark.into_iter().map(AtomicU32::into_inner).collect()
        }
    }

    fn two_component_graph() -> CsrGraph {
        // Component A: cycle 0..6; component B: path 6..12.
        let mut b = pp_graph::GraphBuilder::undirected(12);
        for i in 0..6u32 {
            b.add_edge(i, (i + 1) % 6);
        }
        for i in 6..11u32 {
            b.add_edge(i, i + 1);
        }
        b.build()
    }

    fn run_two_sweep(
        policy: DirectionPolicy,
        threads: usize,
        mode: ExecutionMode,
    ) -> Run<Vec<u32>> {
        let g = two_component_graph();
        let engine = Engine::new(threads);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let program = TwoSweep {
            mark: (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect(),
            sweeps: 0,
        };
        Runner::new(&engine, &probes)
            .policy(policy)
            .mode(mode)
            .run(&g, program)
    }

    #[test]
    fn phases_reseed_and_finish_extracts_state() {
        for threads in [1, 4] {
            for policy in [
                DirectionPolicy::Fixed(Direction::Push),
                DirectionPolicy::Fixed(Direction::Pull),
                DirectionPolicy::adaptive(),
            ] {
                for (_, mode) in ExecutionMode::sweep() {
                    let r = run_two_sweep(policy, threads, mode);
                    assert!(r.output[..6].iter().all(|&m| m == 1), "{policy:?} {mode:?}");
                    assert!(r.output[6..].iter().all(|&m| m == 2), "{policy:?} {mode:?}");
                    assert_eq!(r.report.phases, 2);
                    assert!(r.report.phase_rounds(0).count() >= 3);
                    assert!(r.report.phase_rounds(1).count() >= 5);
                }
            }
        }
    }

    #[test]
    fn partition_aware_push_reports_exchange_traffic_and_no_atomics() {
        use pp_telemetry::CountingProbe;
        let g = two_component_graph();
        let engine = Engine::new(4);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let program = TwoSweep {
            mark: (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect(),
            sweeps: 0,
        };
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .mode(ExecutionMode::PartitionAware)
            .run(&g, program);
        assert!(r.output[..6].iter().all(|&m| m == 1));
        let counts = probes.merged();
        assert_eq!(counts.atomics, 0, "owner-computes push must not CAS");
        // 12 vertices over 4 threads: the cycle and the path both cross
        // part boundaries, so some updates must travel through buffers.
        assert!(r.report.remote_updates() > 0);
        assert_eq!(counts.remote_sends, r.report.remote_updates());
        assert!(r.report.max_buffer_peak() >= 1);
        assert!(counts.barriers as usize >= r.report.num_rounds());
    }

    /// A program that never activates anything: empty initial frontier,
    /// immediate convergence.
    struct NullProgram;

    impl<P: Probe> EdgeKernel<P> for NullProgram {
        fn push_update(&self, _u: VertexId, _v: VertexId, _w: Weight, _p: &P) -> bool {
            false
        }
        fn pull_gather(&self, _v: VertexId, _u: VertexId, _w: Weight, _p: &P) -> bool {
            false
        }
    }

    impl<P: ShardProbe> Program<P> for NullProgram {
        type Output = ();

        fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
            Frontier::empty(g.num_vertices())
        }

        fn finish(self, _g: &CsrGraph) {}
    }

    #[test]
    fn zero_round_run_reports_zero_phases_like_the_default_report() {
        // The convention documented on `RunReport::phases`: a run that never
        // executes a round is indistinguishable from `RunReport::default()`.
        let g = two_component_graph();
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in [
            DirectionPolicy::Fixed(Direction::Push),
            DirectionPolicy::adaptive(),
        ] {
            for (_, mode) in ExecutionMode::sweep() {
                let r = Runner::new(&engine, &probes)
                    .policy(policy)
                    .mode(mode)
                    .run(&g, NullProgram);
                assert_eq!(r.report, RunReport::default(), "{policy:?} {mode:?}");
                assert_eq!(r.report.phases, 0);
                assert_eq!(r.report.num_rounds(), 0);
            }
        }
    }

    /// A program that reseeds with an empty frontier once between its two
    /// real phases: marks vertex `v` on each round of a single-vertex
    /// frontier, walking 0 → (empty reseed) → 6.
    struct GappyReseed {
        mark: Vec<AtomicU32>,
        reseeds: u32,
    }

    impl<P: Probe> EdgeKernel<P> for GappyReseed {
        fn push_update(&self, _u: VertexId, _v: VertexId, _w: Weight, _p: &P) -> bool {
            false
        }
        fn pull_gather(&self, _v: VertexId, _u: VertexId, _w: Weight, _p: &P) -> bool {
            false
        }
        fn pull_candidate(&self, _v: VertexId, _p: &P) -> bool {
            false
        }
    }

    impl<P: ShardProbe> Program<P> for GappyReseed {
        type Output = Vec<u32>;

        fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
            Frontier::single(g, 0)
        }

        fn begin_round(
            &mut self,
            _ctx: RoundCtx,
            _g: &CsrGraph,
            frontier: &mut Frontier,
            _engine: &Engine,
            _probes: &ProbeShards<P>,
        ) {
            for &v in frontier.vertices() {
                self.mark[v as usize].store(1, Ordering::Relaxed);
            }
        }

        fn next_phase(
            &mut self,
            g: &CsrGraph,
            _engine: &Engine,
            _probes: &ProbeShards<P>,
        ) -> Option<Frontier> {
            self.reseeds += 1;
            match self.reseeds {
                1 => Some(Frontier::empty(g.num_vertices())),
                2 => Some(Frontier::single(g, 6)),
                _ => None,
            }
        }

        fn finish(self, _g: &CsrGraph) -> Vec<u32> {
            self.mark.into_iter().map(AtomicU32::into_inner).collect()
        }
    }

    #[test]
    fn empty_reseeds_do_not_gap_the_phase_indices() {
        // Regression for the phases convention: a reseed with an empty
        // frontier must not burn a phase index, so `phases` stays a valid
        // bound for `phase_rounds(0..phases)` sweeps.
        let g = two_component_graph();
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(
                &g,
                GappyReseed {
                    mark: (0..12).map(|_| AtomicU32::new(0)).collect(),
                    reseeds: 0,
                },
            );
        assert_eq!(r.output[0], 1);
        assert_eq!(r.output[6], 1);
        assert_eq!(r.report.phases, 2, "the empty reseed is not a phase");
        let indices: Vec<u32> = r.report.rounds.iter().map(|s| s.phase).collect();
        assert_eq!(indices, vec![0, 1], "contiguous despite the empty reseed");
        for p in 0..r.report.phases {
            assert_eq!(r.report.phase_rounds(p).count(), 1);
        }
    }

    /// Two-phase program: an edge phase (mark component of 0) followed by a
    /// vertex-step phase that doubles every mark in `begin_round`.
    struct SweepThenScale {
        mark: Vec<AtomicU32>,
        scaled: bool,
    }

    impl<P: Probe> EdgeKernel<P> for SweepThenScale {
        fn push_update(&self, _u: VertexId, v: VertexId, _w: Weight, _p: &P) -> bool {
            self.mark[v as usize]
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        }
        fn pull_gather(&self, v: VertexId, _u: VertexId, _w: Weight, _p: &P) -> bool {
            self.mark[v as usize].store(1, Ordering::Relaxed);
            true
        }
        fn pull_candidate(&self, v: VertexId, _p: &P) -> bool {
            self.mark[v as usize].load(Ordering::Relaxed) == 0
        }
        fn pull_saturates(&self) -> bool {
            true
        }
    }

    impl<P: ShardProbe> Program<P> for SweepThenScale {
        type Output = Vec<u32>;

        fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
            self.mark[0].store(1, Ordering::Relaxed);
            Frontier::single(g, 0)
        }

        fn phase_kernel(&self, phase: u32) -> crate::program::PhaseKernel {
            if phase == 0 {
                crate::program::PhaseKernel::EdgeMap
            } else {
                crate::program::PhaseKernel::VertexStep
            }
        }

        fn begin_round(
            &mut self,
            ctx: RoundCtx,
            g: &CsrGraph,
            frontier: &mut Frontier,
            engine: &Engine,
            probes: &ProbeShards<P>,
        ) {
            if ctx.phase == 1 {
                let mark = &self.mark;
                engine.vertex_map(g, frontier, probes, |v, _| {
                    let m = mark[v as usize].load(Ordering::Relaxed);
                    mark[v as usize].store(m * 2, Ordering::Relaxed);
                });
                self.scaled = true;
            }
        }

        fn next_phase(
            &mut self,
            g: &CsrGraph,
            _engine: &Engine,
            _probes: &ProbeShards<P>,
        ) -> Option<Frontier> {
            if self.scaled {
                return None;
            }
            Some(frontier_where(g, |v| {
                self.mark[v as usize].load(Ordering::Relaxed) != 0
            }))
        }

        fn finish(self, _g: &CsrGraph) -> Vec<u32> {
            self.mark.into_iter().map(AtomicU32::into_inner).collect()
        }
    }

    #[test]
    fn vertex_step_phases_skip_edge_traversal_but_appear_in_the_report() {
        use pp_telemetry::CountingProbe;
        let g = two_component_graph();
        for (_, mode) in ExecutionMode::sweep() {
            let engine = Engine::new(2);
            let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
            let r = Runner::new(&engine, &probes)
                .policy(DirectionPolicy::Fixed(Direction::Push))
                .mode(mode)
                .run(
                    &g,
                    SweepThenScale {
                        mark: (0..12).map(|_| AtomicU32::new(0)).collect(),
                        scaled: false,
                    },
                );
            // Component of 0 (the 6-cycle) marked then doubled; the rest 0.
            assert!(r.output[..6].iter().all(|&m| m == 2), "{mode:?}");
            assert!(r.output[6..].iter().all(|&m| m == 0), "{mode:?}");
            assert_eq!(r.report.phases, 2, "{mode:?}");
            // The vertex step is one round consuming the 6-vertex frontier,
            // with no edge traversal: no atomics, no exchange traffic.
            let steps: Vec<_> = r.report.phase_rounds(1).collect();
            assert_eq!(steps.len(), 1, "a vertex-step phase is single-round");
            assert_eq!(steps[0].frontier, 6);
            assert_eq!(steps[0].frontier_edges, 0, "no edge traversal charged");
            assert_eq!(steps[0].remote_updates, 0);
        }
    }

    #[test]
    fn report_rounds_are_contiguous_and_phase_ordered() {
        let r = run_two_sweep(
            DirectionPolicy::Fixed(Direction::Push),
            2,
            ExecutionMode::Atomic,
        );
        for (i, stat) in r.report.rounds.iter().enumerate() {
            assert_eq!(stat.round as usize, i);
        }
        assert!(r.report.rounds.windows(2).all(|w| w[0].phase <= w[1].phase));
        assert_eq!(r.report.num_rounds(), r.report.push_rounds());
    }
}
