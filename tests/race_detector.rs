//! Dynamic owner-computes discipline check (`--features race-detect`).
//!
//! The §5 exchange path argues its plain writes are safe because each
//! vertex-state slot has exactly one writer per phase. With the
//! `race-detect` feature on, every instrumented plain write runs through
//! the engine's shadow-write tracker, which panics on a cross-owner
//! write. This suite (a) runs all ten registry Programs in
//! `PartitionAware` mode at 2 and 8 threads under the detector and
//! asserts they still land on the `Atomic`-mode results with zero
//! violations, and (b) drives a deliberately broken kernel through the
//! exchange to prove the detector actually fires.

#![cfg(feature = "race-detect")]

use pushpull::core::Direction;
use pushpull::engine::registry::{self, RunConfig};
use pushpull::engine::{
    race, DirectionPolicy, EdgeKernel, Engine, ExecutionMode, Frontier, PaContext, ProbeShards,
};
use pushpull::graph::{gen, VertexId};
use pushpull::telemetry::{NullProbe, Probe};
use std::sync::atomic::{AtomicU32, Ordering};

/// All ten Programs, both thread counts: partition-aware execution under
/// the race detector must be panic-free, must actually exercise the
/// checker, and must reproduce the shared-state (Atomic) results.
#[test]
fn all_programs_run_clean_under_the_detector() {
    let g = gen::rmat(8, 8, 7);
    let gw = gen::with_random_weights(&g, 1, 64, 0xabc);
    assert_eq!(registry::all().len(), 10);
    for threads in [2usize, 8] {
        let engine = Engine::new(threads);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for spec in registry::all() {
            let graph = if spec.needs_weights { &gw } else { &g };
            // Fixed push: the detector guards the push exchange, and an
            // adaptive policy would route dense rounds to pull, leaving
            // nothing to check.
            let push = DirectionPolicy::Fixed(Direction::Push);
            let atomic = spec.run(
                &RunConfig {
                    mode: ExecutionMode::Atomic,
                    policy: push,
                    ..RunConfig::new(&engine, &probes)
                },
                graph,
            );
            let before = race::checked_writes();
            let pa = spec.run(
                &RunConfig {
                    mode: ExecutionMode::PartitionAware,
                    policy: push,
                    ..RunConfig::new(&engine, &probes)
                },
                graph,
            );
            let checked = race::checked_writes() - before;
            assert!(
                checked > 0,
                "{} x{threads}: partition-aware run never hit the detector",
                spec.name
            );
            // Speculative coloring's color count legitimately depends on
            // the schedule; every other summary is schedule-invariant.
            if spec.name != "coloring" {
                assert_eq!(
                    atomic.summary, pa.summary,
                    "{} x{threads}: atomic vs partition-aware digest",
                    spec.name
                );
            } else {
                assert!(!pa.summary.is_empty());
            }
        }
    }
}

/// A kernel that violates the owner-computes contract on purpose: its
/// `apply_owned` writes (and instruments) the *source* vertex's slot,
/// which in the delivery phase belongs to a foreign part.
struct SmearKernel<'a> {
    mark: &'a [AtomicU32],
}

impl<P: Probe> EdgeKernel<P> for SmearKernel<'_> {
    fn push_update(&self, _u: VertexId, v: VertexId, _w: u32, _probe: &P) -> bool {
        self.mark[v as usize]
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: u32, _probe: &P) -> bool {
        // The bug under test: plain-writing `u`'s state from `v`'s owner.
        race::note_state_write(u);
        self.mark[u as usize].store(1, Ordering::Relaxed);
        self.mark[v as usize].store(1, Ordering::Relaxed);
        true
    }

    fn pull_candidate(&self, v: VertexId, _probe: &P) -> bool {
        self.mark[v as usize].load(Ordering::Relaxed) == 0
    }

    fn pull_saturates(&self) -> bool {
        true
    }
}

#[test]
#[should_panic(expected = "race-detect")]
fn broken_kernel_is_caught_at_the_offending_vertex() {
    // A path split over two parts: every cross-part edge routes through
    // the exchange, and the delivery-phase `apply_owned` touches the
    // foreign source vertex. One engine thread keeps the phase inline so
    // the panic surfaces on this thread.
    let g = gen::path(64);
    let engine = Engine::new(1);
    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
    let mark: Vec<AtomicU32> = (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect();
    mark[0].store(1, Ordering::Relaxed);
    let kernel = SmearKernel { mark: &mark };
    let mut ctx = PaContext::new(&g, 2);
    let mut frontier = Frontier::single(&g, 0);
    while !frontier.is_empty() {
        let (next, _) = ctx.push_round(&engine, &mut frontier, &kernel, &probes);
        frontier = next;
    }
}
