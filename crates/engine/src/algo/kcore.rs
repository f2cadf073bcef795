//! k-core decomposition as a [`Program`] (§3.8 peeling).
//!
//! Phases are the peel levels `k = 0, 1, …`; rounds inside a phase are the
//! peel waves. [`Program::begin_round`] stamps the incoming frontier with
//! coreness `k` (a frontier vertex map); the edge kernels then propagate
//! the removal to live neighbors: the push update decrements the shared
//! induced-degree counter with an FAA (the §2.3 write conflict), the pull
//! gather decrements the owned counter per peeled frontier neighbor — the
//! same arithmetic, scheduled the other way. A neighbor whose counter
//! crosses the `k` threshold joins the next wave. The sequential
//! Batagelj–Zaveršnik peeling ([`pp_core::kcore::coreness_seq`]) is the
//! oracle.

use std::sync::atomic::{AtomicU32, Ordering};

use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::{frontier_where, Program, RoundCtx};

/// A live (not yet peeled) vertex.
const LIVE: u32 = u32::MAX;

/// Peeling as a vertex program: one phase per coreness level.
pub struct KCoreProgram {
    /// Induced degree among still-live vertices.
    deg: Vec<AtomicU32>,
    /// Coreness once peeled; [`LIVE`] while alive.
    coreness: Vec<AtomicU32>,
    /// Current peel level.
    k: u32,
    /// Live vertices remaining.
    remaining: usize,
}

impl KCoreProgram {
    /// A program computing every vertex's core number.
    pub fn new(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        Self {
            deg: g
                .vertices()
                .map(|v| AtomicU32::new(g.degree(v) as u32))
                .collect(),
            coreness: (0..n).map(|_| AtomicU32::new(LIVE)).collect(),
            k: 0,
            remaining: n,
        }
    }

    /// Seed frontier for the smallest level with members: live vertices of
    /// induced degree ≤ k, bumping k while levels are empty. Empty iff no
    /// live vertex remains.
    fn seed_level(&mut self, g: &CsrGraph) -> Frontier {
        loop {
            if self.remaining == 0 {
                return Frontier::empty(g.num_vertices());
            }
            let k = self.k;
            let seeds = frontier_where(g, |v| {
                self.coreness[v as usize].load(Ordering::Relaxed) == LIVE
                    && self.deg[v as usize].load(Ordering::Relaxed) <= k
            });
            if !seeds.is_empty() {
                return seeds;
            }
            self.k += 1;
        }
    }
}

impl<P: Probe> EdgeKernel<P> for KCoreProgram {
    fn push_update(&self, _u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        probe.branch_cond();
        if self.coreness[v as usize].load(Ordering::Relaxed) != LIVE {
            return false;
        }
        // W(i): FAA on the shared degree counter; the neighbor whose
        // counter crosses the threshold under *this* FAA joins the next
        // wave (exactly-once: FAA returns the previous value).
        // ORDERING: AcqRel — the threshold-crossing FAA decides wave
        // membership, so it must not reorder with the liveness check
        // above (Acquire) nor with the enqueue that follows (Release).
        probe.atomic_rmw(addr_of_index(&self.deg, v as usize), 4);
        let prev = self.deg[v as usize].fetch_sub(1, Ordering::AcqRel);
        prev == self.k + 1
    }

    fn pull_gather(&self, v: VertexId, _u: VertexId, _w: Weight, probe: &P) -> bool {
        // Own-cell decrement: `u` was peeled this round, so `v` loses one
        // live neighbor; only v's owner thread touches deg[v].
        probe.read(addr_of_index(&self.deg, v as usize), 4);
        probe.branch_cond();
        let d = self.deg[v as usize].load(Ordering::Relaxed) - 1;
        probe.write(addr_of_index(&self.deg, v as usize), 4);
        self.deg[v as usize].store(d, Ordering::Relaxed);
        d <= self.k
    }

    fn pull_candidate(&self, v: VertexId, probe: &P) -> bool {
        probe.branch_cond();
        self.coreness[v as usize].load(Ordering::Relaxed) == LIVE
    }
}

impl<P: ShardProbe> Program<P> for KCoreProgram {
    /// Per-vertex coreness (core number); its maximum is the graph's
    /// degeneracy.
    type Output = Vec<u32>;

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        self.seed_level(g)
    }

    fn begin_round(
        &mut self,
        _ctx: RoundCtx,
        g: &CsrGraph,
        frontier: &mut Frontier,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) {
        // Peel the whole wave at coreness k before its removal propagates.
        let (coreness, k) = (&self.coreness, self.k);
        engine.vertex_map(g, frontier, probes, |v, _| {
            coreness[v as usize].store(k, Ordering::Relaxed);
        });
        self.remaining -= frontier.len();
    }

    fn next_phase(
        &mut self,
        g: &CsrGraph,
        _engine: &Engine,
        _probes: &ProbeShards<P>,
    ) -> Option<Frontier> {
        if self.remaining == 0 {
            return None;
        }
        // Level k drained: every remaining live vertex has induced degree
        // > k, so the next phase starts at k + 1 (or higher).
        self.k += 1;
        Some(self.seed_level(g))
    }

    fn finish(self, _g: &CsrGraph) -> Vec<u32> {
        self.coreness
            .into_iter()
            .map(AtomicU32::into_inner)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::kcore::coreness_seq;
    use pp_core::Direction;
    use pp_graph::{gen, GraphBuilder};
    use pp_telemetry::{CountingProbe, NullProbe};

    /// Single source of truth for the schedule axis: the same sweep the
    /// benches and equivalence tests iterate.
    fn policies() -> impl Iterator<Item = DirectionPolicy> {
        DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
    }

    #[test]
    fn matches_sequential_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::rmat(8, 6, seed);
            let expected = coreness_seq(&g);
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for policy in policies() {
                    let coreness = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&g, KCoreProgram::new(&g))
                        .output;
                    assert_eq!(coreness, expected, "seed {seed} x{threads} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn clique_with_tail() {
        // 4-clique {0,1,2,3} with a pendant path 3-4-5: coreness 3,3,3,3,1,1.
        let g = GraphBuilder::undirected(6)
            .edges([
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ])
            .build();
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let coreness = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, KCoreProgram::new(&g))
                .output;
            assert_eq!(coreness, vec![3, 3, 3, 3, 1, 1], "{policy:?}");
        }
    }

    #[test]
    fn phases_are_the_occupied_levels() {
        // A path is 1-degenerate: phase 0 peels nothing at k=0 (no isolated
        // vertices → the seed jumps to k=1) and the whole path unravels at
        // level 1 in end-inward waves.
        let g = gen::path(20);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, KCoreProgram::new(&g));
        assert_eq!(r.output, vec![1; 20], "a path is 1-degenerate");
        assert_eq!(r.report.phases, 1, "one occupied peel level");
        assert_eq!(r.report.num_rounds(), 10, "20-path peels 2 ends per wave");
    }

    #[test]
    fn push_uses_atomics_pull_does_not() {
        let g = gen::rmat(8, 5, 11);
        let engine = Engine::new(2);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, KCoreProgram::new(&g));
        let push = probes.merged();
        assert!(push.atomics > 0);
        // Push's total decrements are bounded by the arc count.
        assert!(push.atomics <= g.num_arcs() as u64);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, KCoreProgram::new(&g));
        let pull = probes.merged();
        assert_eq!(pull.atomics, 0);
        assert!(pull.reads > 0);
    }

    #[test]
    fn empty_and_edgeless() {
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let empty = GraphBuilder::undirected(0).build();
        assert!(Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&empty, KCoreProgram::new(&empty))
            .output
            .is_empty());
        let edgeless = GraphBuilder::undirected(5).build();
        let coreness = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&edgeless, KCoreProgram::new(&edgeless))
            .output;
        assert_eq!(coreness, vec![0; 5]);
    }
}
