//! Community label propagation as a [`Program`] [Raghavan et al. 2007].
//!
//! Synchronous most-frequent-label adoption: every iteration is one phase
//! whose single round deposits each vertex's label with every neighbor;
//! [`Program::next_phase`] then tallies the ballots (most frequent label,
//! smallest on ties — deterministic), double-buffers, and reseeds the full
//! frontier until fixpoint or the iteration cap.
//!
//! The ballots are the push–pull battleground (§3.8): the push update
//! deposits into the *target's* ballot under a sharded lock (the same
//! lock-heavy signature as push-PR, §4.1); the pull gather appends to the
//! *own* ballot — single-owner, no synchronization. Both fill the same
//! multiset, so every schedule computes the identical label sequence as
//! the `pp-core` twin ([`pp_core::labelprop::label_propagation`]).

use std::cell::UnsafeCell;

use pp_core::sync::ShardedLocks;
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::Program;

/// Per-vertex vote boxes with two disciplines over one storage: push
/// deposits under the sharded lock table, pull deposits single-owner.
struct Ballots(Vec<UnsafeCell<Vec<u32>>>);

// SAFETY: concurrent access follows the engine's contracts — push deposits
// serialize through `LabelPropProgram::locks`, pull deposits touch only the
// cell of the vertex the chunk partition assigned to the calling thread.
unsafe impl Sync for Ballots {}

impl Ballots {
    /// # Safety
    /// Caller must hold the deposit discipline for `v` (lock or ownership).
    unsafe fn deposit(&self, v: VertexId, label: u32) {
        (*self.0[v as usize].get()).push(label);
    }
}

/// Picks the winning label from a *sorted* vote slice: most frequent,
/// smallest on ties. `None` for an empty ballot (isolated vertex).
fn tally(sorted_votes: &[u32]) -> Option<u32> {
    if sorted_votes.is_empty() {
        return None;
    }
    let (mut best, mut best_count) = (sorted_votes[0], 0usize);
    let mut i = 0;
    while i < sorted_votes.len() {
        let label = sorted_votes[i];
        let mut j = i;
        while j < sorted_votes.len() && sorted_votes[j] == label {
            j += 1;
        }
        // Strict `>` keeps the first (smallest) label on equal counts.
        if j - i > best_count {
            best = label;
            best_count = j - i;
        }
        i = j;
    }
    Some(best)
}

/// Synchronous label propagation as a vertex program.
pub struct LabelPropProgram {
    /// Labels of the previous iteration (read-only during a round).
    labels: Vec<u32>,
    /// Labels being decided this iteration.
    new_labels: Vec<u32>,
    ballots: Ballots,
    locks: ShardedLocks,
    max_iters: usize,
    iterations: usize,
    converged: bool,
}

impl LabelPropProgram {
    /// A program running at most `max_iters` synchronous iterations.
    pub fn new(g: &CsrGraph, max_iters: usize) -> Self {
        let n = g.num_vertices();
        let labels: Vec<u32> = (0..n as u32).collect();
        Self {
            new_labels: labels.clone(),
            labels,
            ballots: Ballots((0..n).map(|_| UnsafeCell::new(Vec::new())).collect()),
            locks: ShardedLocks::new(256),
            max_iters,
            iterations: 0,
            converged: false,
        }
    }
}

impl<P: Probe> EdgeKernel<P> for LabelPropProgram {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        // W: lock-guarded deposit into the target's shared ballot.
        probe.lock();
        probe.write(addr_of_index(&self.ballots.0, v as usize), 4);
        self.locks.with(v as usize, || {
            // SAFETY: the shard lock for `v` serializes all push deposits;
            // rounds are all-push or all-pull, so no unlocked pull deposit
            // races this cell.
            unsafe { self.ballots.deposit(v, self.labels[u as usize]) };
        });
        false
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        // R: read the neighbor's label; own-ballot append, no locks.
        probe.read(addr_of_index(&self.labels, u as usize), 4);
        probe.write(addr_of_index(&self.ballots.0, v as usize), 4);
        // SAFETY: the engine hands `v` to exactly one thread in a pull
        // round, making this cell single-owner.
        unsafe { self.ballots.deposit(v, self.labels[u as usize]) };
        false
    }
}

impl<P: ShardProbe> Program<P> for LabelPropProgram {
    /// `(labels, iterations, converged)`: the final per-vertex community
    /// label, the iterations executed (≤ the cap), and whether a fixpoint
    /// was reached before the cap (synchronous LP can oscillate on
    /// bipartite-ish structures, so the cap is load-bearing).
    type Output = (Vec<u32>, usize, bool);

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        if self.max_iters == 0 || g.num_vertices() == 0 {
            self.converged = g.num_vertices() == 0;
            Frontier::empty(g.num_vertices())
        } else {
            Frontier::full(g)
        }
    }

    fn next_phase(
        &mut self,
        g: &CsrGraph,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) -> Option<Frontier> {
        if self.iterations >= self.max_iters || self.converged || g.num_vertices() == 0 {
            return None;
        }
        self.iterations += 1;
        // Tally: owners sort and count their own ballots — the apply half
        // of the synchronous update, identical for both directions.
        {
            let (ballots, labels) = (&self.ballots, &self.labels);
            let new_labels = pp_core::sync::SyncSlice::new(&mut self.new_labels);
            engine.map_vertices(g, probes, |v, _| {
                // SAFETY: map_vertices hands each vertex to exactly one
                // chunk; ballot and output cells are exclusive to it.
                let votes = unsafe { &mut *ballots.0[v as usize].get() };
                votes.sort_unstable();
                let decided = tally(votes).unwrap_or(labels[v as usize]);
                votes.clear();
                unsafe { new_labels.write(v as usize, decided) };
            });
        }
        if self.new_labels == self.labels {
            self.converged = true;
            return None;
        }
        self.labels.copy_from_slice(&self.new_labels);
        if self.iterations >= self.max_iters {
            return None;
        }
        Some(Frontier::full(g))
    }

    fn finish(self, _g: &CsrGraph) -> Self::Output {
        (self.labels, self.iterations, self.converged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::labelprop::label_propagation as lp_oracle;
    use pp_core::Direction;
    use pp_graph::{gen, GraphBuilder};
    use pp_telemetry::{CountingProbe, NullProbe};

    /// Single source of truth for the schedule axis: the same sweep the
    /// benches and equivalence tests iterate.
    fn policies() -> impl Iterator<Item = DirectionPolicy> {
        DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
    }

    #[test]
    fn tally_prefers_frequency_then_smallest() {
        assert_eq!(tally(&[]), None);
        assert_eq!(tally(&[5]), Some(5));
        assert_eq!(tally(&[1, 2, 2, 3]), Some(2));
        assert_eq!(tally(&[1, 1, 2, 2]), Some(1));
        assert_eq!(tally(&[0, 3, 3, 3, 9, 9]), Some(3));
    }

    #[test]
    fn matches_the_core_oracle_exactly() {
        for seed in 0..3 {
            let g = gen::community(3, 25, 120, 15, seed);
            let expected = lp_oracle(&g, Direction::Pull, 30);
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for policy in policies() {
                    let (labels, iterations, converged) = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&g, LabelPropProgram::new(&g, 30))
                        .output;
                    assert_eq!(labels, expected.labels, "seed {seed} x{threads} {policy:?}");
                    assert_eq!(iterations, expected.iterations, "seed {seed} {policy:?}");
                    assert_eq!(converged, expected.converged, "seed {seed} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn iteration_cap_halts_oscillation() {
        // A star oscillates under synchronous LP: the center adopts the
        // leaves' label while the leaves adopt the center's.
        let g = gen::star(8);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let r = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, LabelPropProgram::new(&g, 10));
            let (_, iterations, converged) = r.output;
            assert_eq!(iterations, 10, "{policy:?}");
            assert!(!converged, "{policy:?}");
            assert_eq!(r.report.num_rounds(), 10, "one round per iteration");
        }
    }

    #[test]
    fn isolated_vertices_keep_their_label() {
        let g = GraphBuilder::undirected(4).edge(0, 1).build();
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let (labels, _, _) = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, LabelPropProgram::new(&g, 20))
                .output;
            assert_eq!(labels[2], 2, "{policy:?}");
            assert_eq!(labels[3], 3, "{policy:?}");
        }
    }

    #[test]
    fn push_locks_pull_reads() {
        let g = gen::community(2, 20, 60, 5, 1);
        let engine = Engine::new(2);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, LabelPropProgram::new(&g, 5));
        assert!(probes.merged().locks > 0);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, LabelPropProgram::new(&g, 5));
        assert_eq!(probes.merged().locks, 0);
        assert!(probes.merged().reads > 0);
    }

    #[test]
    fn empty_graph_and_zero_cap() {
        let engine = Engine::new(1);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let g = GraphBuilder::undirected(0).build();
        let (labels, _, converged) = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, LabelPropProgram::new(&g, 5))
            .output;
        assert!(labels.is_empty());
        assert!(converged);

        let g = gen::path(5);
        let (labels, iterations, _) = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, LabelPropProgram::new(&g, 0))
            .output;
        assert_eq!(labels, vec![0, 1, 2, 3, 4]);
        assert_eq!(iterations, 0);
    }
}
