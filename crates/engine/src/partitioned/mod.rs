//! Partition-aware execution (§5): atomic-free push via owner-computes
//! delivery.
//!
//! The paper's central shared-memory observation is that the push
//! schedule's per-edge atomics are an artifact of *not knowing who owns
//! the target*. Fix an ownership map (a [`BlockPartition`] of the vertex
//! range over the workers) and split every adjacency list into the
//! same-owner and foreign-owner halves
//! ([`pp_graph::PartitionAwareGraph`], two cut indices per CSR row) and a
//! pushing thread can
//!
//! * apply **local** updates with plain writes — both endpoints belong to
//!   it, so nobody races — and
//! * **buffer** remote updates into a per-(worker × owner) queue
//!   ([`buffers::ExchangeBuffers`]), one [`pp_telemetry::Probe::remote_send`]
//!   event each, instead of a CAS.
//!
//! A barrier later, every owner drains its inbound queues and applies the
//! buffered updates to its own vertices — again plain writes
//! ([`exchange`]). No atomic RMW is issued anywhere on the push path; the
//! synchronization is the ownership discipline plus one barrier per round,
//! exactly §5's owner-computes exchange.
//!
//! The mode is a property of the *run*, not the algorithm:
//! [`crate::Runner::mode`] takes an [`ExecutionMode`] and every
//! [`crate::Program`] runs unmodified on either, because the delivery
//! applies updates through [`crate::EdgeKernel::apply_owned`] — by default
//! the program's own atomic-free pull kernel gated by its pull candidate,
//! which the trait contract already requires to encode the same update
//! semantics as `push_update`. Pull rounds are untouched (they were
//! already synchronization-free), so a [`crate::DirectionPolicy`] may
//! interleave owner-computes push rounds with pull rounds freely; the
//! policy's frontier-share decision is mode-independent.
//!
//! Telemetry: each partition-aware push round contributes
//! `remote_updates` (exchange volume — the would-be atomics) and
//! `buffer_peak` (largest single owner's backlog, the skew a per-owner
//! rebalancer would act on) to its [`crate::report::RoundStat`].

pub mod buffers;
pub mod exchange;

pub use buffers::{ExchangeBuffers, Update};
pub use exchange::PaRoundStats;

use pp_graph::{BlockPartition, CsrGraph, PartitionAwareGraph};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};

/// How a [`crate::Runner`] executes push rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Shared-state push: any thread may update any vertex, synchronizing
    /// per edge (CAS / FAA / lock) — the pre-§5 baseline.
    #[default]
    Atomic,
    /// Owner-computes push over the [`PartitionAwareGraph`] split: plain
    /// writes locally, buffered exchange remotely, zero atomics.
    PartitionAware,
}

impl ExecutionMode {
    /// Every mode a sweep should cover, labeled for benchmark/test axes —
    /// the same single-source-of-truth pattern as
    /// [`crate::DirectionPolicy::sweep`].
    pub fn sweep() -> [(&'static str, ExecutionMode); 2] {
        [
            ("atomic", ExecutionMode::Atomic),
            ("pa", ExecutionMode::PartitionAware),
        ]
    }
}

/// The per-run state of partition-aware execution: the split view of the
/// run's graph plus the reusable exchange buffers. Built by the runner at
/// the start of a `PartitionAware` run (one part per engine thread) and
/// threaded through its push rounds; `&mut` access serializes rounds,
/// which is what the buffers' single-writer contracts assume.
pub struct PaContext<'g> {
    pa: PartitionAwareGraph<'g>,
    buffers: ExchangeBuffers,
    scratch: exchange::Scratch,
}

impl<'g> PaContext<'g> {
    /// Builds the §5 view of `g` split over `parts` owners.
    pub fn new(g: &'g CsrGraph, parts: usize) -> Self {
        let parts = parts.max(1);
        Self {
            pa: PartitionAwareGraph::new(g, BlockPartition::new(g.num_vertices(), parts)),
            buffers: ExchangeBuffers::new(parts),
            scratch: exchange::Scratch::new(parts, g.num_vertices()),
        }
    }

    /// The underlying split view.
    pub fn partition_graph(&self) -> &PartitionAwareGraph<'g> {
        &self.pa
    }

    /// Executes one owner-computes push round and returns the next
    /// frontier plus the round's exchange telemetry. Mirrors
    /// [`Engine::edge_map`]'s contract (duplicate-free result, automatic
    /// densification).
    pub fn push_round<P: ShardProbe, K: EdgeKernel<P>>(
        &mut self,
        engine: &Engine,
        frontier: &mut Frontier,
        kernel: &K,
        probes: &ProbeShards<P>,
    ) -> (Frontier, PaRoundStats) {
        let (active, stats) = exchange::pa_push_round(
            engine,
            &self.pa,
            &mut self.buffers,
            &mut self.scratch,
            frontier,
            kernel,
            probes,
        );
        let g = self.pa.graph();
        let mut next = Frontier::from_vertices(g, active);
        if next.wants_dense(g) {
            next.densify();
        }
        (next, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_sweep_covers_both_modes() {
        let sweep = ExecutionMode::sweep();
        assert_eq!(sweep[0], ("atomic", ExecutionMode::Atomic));
        assert_eq!(sweep[1], ("pa", ExecutionMode::PartitionAware));
        assert_eq!(ExecutionMode::default(), ExecutionMode::Atomic);
    }

    #[test]
    fn context_clamps_to_at_least_one_part() {
        let g = pp_graph::gen::path(10);
        let ctx = PaContext::new(&g, 0);
        assert_eq!(ctx.partition_graph().partition().num_parts(), 1);
        assert_eq!(ctx.partition_graph().num_remote_arcs(), 0);
    }
}
