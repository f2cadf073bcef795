//! Frontier-driven BFS as a [`Program`] (§3.3/§4.3).
//!
//! Push rounds are Algorithm 3's top-down step (CAS parent claims); pull
//! rounds are bottom-up (own-cell writes, scan saturates at the first
//! frontier parent); the [`crate::DirectionPolicy`] decides per round,
//! making [`crate::DirectionPolicy::adaptive`] the engine's
//! direction-optimizing BFS.
//! The round loop itself lives in [`crate::runner::Runner`] — this module
//! supplies only state, kernels, and the seed frontier.

use std::sync::atomic::{AtomicU32, Ordering};

use pp_core::bfs::{NO_PARENT, UNVISITED};
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::{Program, RoundCtx};

/// BFS as a vertex program: parent claims and level stamps.
pub struct BfsProgram {
    root: VertexId,
    parent: Vec<AtomicU32>,
    level: Vec<AtomicU32>,
    /// Level being discovered this round (= round index).
    cur: u32,
}

impl BfsProgram {
    /// A program computing the BFS tree from `root`.
    pub fn new(g: &CsrGraph, root: VertexId) -> Self {
        let n = g.num_vertices();
        assert!((root as usize) < n, "root out of range");
        Self {
            root,
            parent: (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect(),
            level: (0..n).map(|_| AtomicU32::new(UNVISITED)).collect(),
            cur: 0,
        }
    }
}

impl<P: Probe> EdgeKernel<P> for BfsProgram {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        probe.branch_cond();
        probe.read(addr_of_index(&self.parent, v as usize), 4);
        if self.parent[v as usize].load(Ordering::Relaxed) != NO_PARENT {
            return false;
        }
        // W: write conflict — one CAS decides among racing claimants (§4.3).
        // ORDERING: AcqRel — the claim must not reorder with the winner's
        // level store below (Release side) and a racing loser that sees
        // the parent set must also see that level (Acquire side).
        probe.atomic_rmw(addr_of_index(&self.parent, v as usize), 4);
        if self.parent[v as usize]
            .compare_exchange(NO_PARENT, u, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
        {
            probe.write(addr_of_index(&self.level, v as usize), 4);
            self.level[v as usize].store(self.cur + 1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        // Own-cell writes only: v is processed by exactly one thread (§3.8).
        self.parent[v as usize].store(u, Ordering::Relaxed);
        probe.write(addr_of_index(&self.level, v as usize), 4);
        self.level[v as usize].store(self.cur + 1, Ordering::Relaxed);
        true
    }

    fn pull_candidate(&self, v: VertexId, probe: &P) -> bool {
        probe.branch_cond();
        self.level[v as usize].load(Ordering::Relaxed) == UNVISITED
    }

    fn pull_saturates(&self) -> bool {
        true
    }
}

impl<P: ShardProbe> Program<P> for BfsProgram {
    /// `(parent, level)`: the BFS-tree parent per vertex ([`NO_PARENT`] if
    /// unreached; the root is its own parent) and the distance from the
    /// root ([`UNVISITED`] if unreached).
    type Output = (Vec<VertexId>, Vec<u32>);

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        self.parent[self.root as usize].store(self.root, Ordering::Relaxed);
        self.level[self.root as usize].store(0, Ordering::Relaxed);
        Frontier::single(g, self.root)
    }

    fn begin_round(
        &mut self,
        ctx: RoundCtx,
        _g: &CsrGraph,
        _frontier: &mut Frontier,
        _engine: &Engine,
        _probes: &ProbeShards<P>,
    ) {
        self.cur = ctx.round;
    }

    fn finish(self, _g: &CsrGraph) -> Self::Output {
        (
            self.parent.into_iter().map(AtomicU32::into_inner).collect(),
            self.level.into_iter().map(AtomicU32::into_inner).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::Direction;
    use pp_graph::{gen, stats};
    use pp_telemetry::{CountingProbe, NullProbe};

    fn engine_levels(g: &CsrGraph, policy: DirectionPolicy, threads: usize) -> Vec<u32> {
        let engine = Engine::new(threads);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(policy)
            .run(g, BfsProgram::new(g, 0))
            .output
            .1
    }

    #[test]
    fn levels_match_sequential_reference_in_every_mode() {
        for g in [gen::path(60), gen::rmat(8, 5, 7), gen::complete(40)] {
            let (expected, _, _) = stats::bfs_levels(&g, 0);
            for threads in [1, 4] {
                for policy in [
                    DirectionPolicy::Fixed(Direction::Push),
                    DirectionPolicy::Fixed(Direction::Pull),
                    DirectionPolicy::adaptive(),
                ] {
                    assert_eq!(engine_levels(&g, policy, threads), expected);
                }
            }
        }
    }

    #[test]
    fn adaptive_policy_actually_switches_on_dense_graphs() {
        let g = gen::complete(128);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, BfsProgram::new(&g, 0));
        assert!(r.report.switched());
    }

    #[test]
    fn parents_form_a_valid_tree() {
        let g = gen::rmat(7, 6, 13);
        let engine = Engine::new(4);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let (parent, level) = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, BfsProgram::new(&g, 0))
            .output;
        for v in g.vertices() {
            if v == 0 {
                assert_eq!(parent[0], 0);
            } else if level[v as usize] != UNVISITED {
                let p = parent[v as usize];
                assert!(g.has_edge(p, v), "parent edge {p}->{v} must exist");
                assert_eq!(level[p as usize] + 1, level[v as usize]);
            } else {
                assert_eq!(parent[v as usize], NO_PARENT);
            }
        }
    }

    #[test]
    fn report_traces_one_round_per_level() {
        let g = gen::path(30);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, BfsProgram::new(&g, 0));
        assert_eq!(r.report.num_rounds(), 30, "path: one frontier per level");
        assert_eq!(r.report.phases, 1, "BFS is single-phase");
        assert!(r.report.rounds.iter().all(|s| s.frontier == 1));
    }

    #[test]
    fn push_counts_cas_pull_counts_none() {
        let g = gen::rmat(7, 4, 5);
        let engine = Engine::new(2);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, BfsProgram::new(&g, 0));
        let push = probes.merged();
        assert!(push.atomics > 0, "push BFS must CAS");
        assert_eq!(push.locks, 0);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, BfsProgram::new(&g, 0));
        let pull = probes.merged();
        assert_eq!(pull.atomics, 0, "pull BFS is synchronization-free");
        assert!(pull.reads > 0);
    }
}
