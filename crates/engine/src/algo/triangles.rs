//! Triangle counting as a [`Program`] (§3.2, Algorithm 2): one dense
//! all-vertices round.
//!
//! The NodeIterator scheme cast into the edge-kernel shape: the push
//! kernel, handed frontier vertex `u` and neighbor `v`, scans `N(u)` and
//! FAAs the *remote* counter `tc[v]` once per common neighbor it finds —
//! over all of `u`'s neighbors that is exactly Algorithm 2's ordered-pair
//! enumeration `(w1, w2) ∈ N(u)²` with its `tc[w1]++` conflict, one FAA
//! per corner hit. The pull kernel counts the same common neighbors into
//! the *own* counter `tc[v]` with a plain write. Both count every triangle
//! twice per corner, halved at [`Program::finish`].
//!
//! Under [`crate::ExecutionMode::PartitionAware`] the default
//! [`EdgeKernel::apply_owned`] (the pull kernel, executed by `v`'s owner)
//! is exactly right: a common-neighbor count is symmetric in `(u, v)` and
//! reads only the immutable adjacency structure, so the owner-computes
//! push issues zero atomics and lands on the identical integer counts.
//!
//! This is the one program whose kernels need the graph itself (adjacency
//! intersection, not a per-edge cell update), so it borrows the
//! [`CsrGraph`] for its lifetime.

use std::sync::atomic::{AtomicU64, Ordering};

use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::EdgeKernel;
use crate::probes::ShardProbe;
use crate::program::Program;

/// NodeIterator triangle counting as a vertex program: one dense round.
pub struct TcProgram<'g> {
    g: &'g CsrGraph,
    tc: Vec<AtomicU64>,
}

impl<'g> TcProgram<'g> {
    /// A program counting the triangles of `g`.
    pub fn new(g: &'g CsrGraph) -> Self {
        Self {
            g,
            tc: (0..g.num_vertices()).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// `adj(w1, w2)` with probe accounting: a binary search over `N(w1)`,
    /// mirroring the instrumented `pp-core` twin.
    #[inline]
    fn adj<P: Probe>(&self, w1: VertexId, w2: VertexId, probe: &P) -> bool {
        let nbrs = self.g.neighbors(w1);
        probe.read(nbrs.as_ptr() as usize, nbrs.len().min(8) * 4);
        let mut lo = 0usize;
        let mut hi = nbrs.len();
        while lo < hi {
            probe.branch_cond();
            let mid = (lo + hi) / 2;
            if nbrs[mid] < w2 {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo < nbrs.len() && nbrs[lo] == w2
    }

    /// `|{w2 ∈ N(u) \ {v} : adj(v, w2)}|` — the ordered pairs `(v, w2)` of
    /// `N(u)²` that close a triangle at corner `u`.
    #[inline]
    fn common<P: Probe>(&self, u: VertexId, v: VertexId, probe: &P) -> u64 {
        let mut hits = 0u64;
        for &w2 in self.g.neighbors(u) {
            probe.branch_cond();
            if w2 != v && self.adj(v, w2, probe) {
                hits += 1;
            }
        }
        hits
    }
}

impl<P: Probe> EdgeKernel<P> for TcProgram<'_> {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        // W(i) conflict on tc[v], one FAA per corner hit (§4.2 "We use FAA
        // atomics") — the same event count as the pp-core push twin.
        for _ in 0..self.common(u, v, probe) {
            probe.atomic_rmw(addr_of_index(&self.tc, v as usize), 8);
            probe.branch_uncond();
            self.tc[v as usize].fetch_add(1, Ordering::Relaxed);
        }
        false
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        // Own-cell accumulate: the count is symmetric in (u, v), so this is
        // the same quantity the push kernel scatters — scheduled the other
        // way, with a plain write.
        let hits = self.common(v, u, probe);
        if hits > 0 {
            probe.write(addr_of_index(&self.tc, v as usize), 8);
            let cur = self.tc[v as usize].load(Ordering::Relaxed);
            self.tc[v as usize].store(cur + hits, Ordering::Relaxed);
        }
        false
    }
}

impl<P: ShardProbe> Program<P> for TcProgram<'_> {
    /// Per-vertex triangle counts: `counts[v]` = triangles containing `v`.
    type Output = Vec<u64>;

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        Frontier::full(g)
    }

    fn finish(self, _g: &CsrGraph) -> Vec<u64> {
        // Ordered-pair enumeration sees each triangle twice per corner.
        self.tc.into_iter().map(|c| c.into_inner() / 2).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Engine;
    use crate::partitioned::ExecutionMode;
    use crate::policy::DirectionPolicy;
    use crate::probes::ProbeShards;
    use crate::runner::Runner;
    use pp_core::triangles::triangle_counts_seq;
    use pp_core::Direction;
    use pp_graph::{gen, GraphBuilder};
    use pp_telemetry::{CountingProbe, NullProbe};

    fn policies() -> impl Iterator<Item = DirectionPolicy> {
        DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
    }

    #[test]
    fn matches_sequential_reference_on_random_graphs() {
        for seed in 0..3 {
            let g = gen::rmat(7, 6, seed);
            let expected = triangle_counts_seq(&g);
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for policy in policies() {
                    let counts = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&g, TcProgram::new(&g))
                        .output;
                    assert_eq!(counts, expected, "seed {seed} x{threads} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn analytic_families() {
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        // K5: each vertex in C(4,2) = 6 triangles, C(5,3) = 10 total.
        let k5 = gen::complete(5);
        for policy in policies() {
            let counts = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&k5, TcProgram::new(&k5))
                .output;
            assert_eq!(counts, vec![6; 5], "{policy:?}");
        }
        // Triangle-free families.
        for g in [gen::path(10), gen::star(10), gen::cycle(8)] {
            let counts = Runner::new(&engine, &probes)
                .policy(DirectionPolicy::adaptive())
                .run(&g, TcProgram::new(&g))
                .output;
            assert!(counts.iter().all(|&c| c == 0));
        }
        // Bowtie: two triangles sharing vertex 2.
        let bow = GraphBuilder::undirected(5)
            .edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
            .build();
        let counts = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&bow, TcProgram::new(&bow))
            .output;
        assert_eq!(counts, vec![1, 1, 2, 1, 1]);
    }

    #[test]
    fn single_dense_round() {
        let g = gen::rmat(6, 5, 4);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, TcProgram::new(&g));
        assert_eq!(r.report.phases, 1);
        assert_eq!(r.report.num_rounds(), 1);
        assert_eq!(r.report.rounds[0].frontier, g.num_vertices());
    }

    #[test]
    fn atomic_push_faas_per_corner_hit_and_pa_push_does_not() {
        // §4.2 telemetry on K8: every vertex sees C(7,2) = 21 ordered pairs
        // ×2, all adjacent — 8 × 42 = 336 FAAs under shared-state push. The
        // owner-computes schedule removes every one of them.
        let g = gen::complete(8);
        let engine = Engine::new(4);
        let run_mode = |mode: ExecutionMode| {
            let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
            let run = Runner::new(&engine, &probes)
                .policy(DirectionPolicy::Fixed(Direction::Push))
                .mode(mode)
                .run(&g, TcProgram::new(&g));
            assert_eq!(run.output, vec![21; 8], "K8: C(7,2) triangles/vertex");
            probes.merged()
        };

        let atomic = run_mode(ExecutionMode::Atomic);
        assert_eq!(atomic.atomics, 336, "one FAA per triangle corner hit");
        assert_eq!(atomic.locks, 0);

        let pa = run_mode(ExecutionMode::PartitionAware);
        assert_eq!(pa.atomics, 0, "owner-computes TC push must not FAA");
        assert_eq!(pa.locks, 0);
        assert!(pa.remote_sends > 0, "K8 over 4 parts must cut edges");
    }

    #[test]
    fn empty_and_single_vertex() {
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let empty = GraphBuilder::undirected(0).build();
        assert!(Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&empty, TcProgram::new(&empty))
            .output
            .is_empty());
        let one = GraphBuilder::undirected(1).build();
        let counts = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&one, TcProgram::new(&one))
            .output;
        assert_eq!(counts, vec![0]);
    }
}
