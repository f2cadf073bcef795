//! PageRank as a [`Program`] (§3.1/§4.1): dense all-vertices rounds.
//!
//! Every iteration is one phase whose single round consumes the full
//! frontier. The pull gather accumulates neighbor shares into the owned
//! cell — no synchronization, deterministic across thread counts (each
//! vertex's sum runs in neighbor order on one thread). The push update
//! scatters shares through the CAS-loop [`AtomicF64`], genuinely
//! contending the float emulation the paper discusses (§4.1); float
//! addition reorders, so push agrees with the oracle to ε rather than
//! bitwise.

use pp_core::pagerank::PrOptions;
use pp_core::sync::AtomicF64;
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::Program;

/// PageRank as a vertex program: double-buffered ranks, one phase per
/// iteration.
pub struct PageRankProgram {
    /// Ranks of the previous iteration (read-only during a round).
    pr: Vec<AtomicF64>,
    /// Ranks being accumulated this iteration (pre-filled with the base
    /// teleport term).
    new_pr: Vec<AtomicF64>,
    /// Out-degrees, snapshotted so the kernels need no graph access.
    degree: Vec<u32>,
    base: f64,
    damping: f64,
    iters_left: usize,
}

impl PageRankProgram {
    /// A program running `opts.iters` damped iterations.
    pub fn new(g: &CsrGraph, opts: &PrOptions) -> Self {
        let n = g.num_vertices();
        let base = if n == 0 {
            0.0
        } else {
            (1.0 - opts.damping) / n as f64
        };
        let init = if n == 0 { 0.0 } else { 1.0 / n as f64 };
        Self {
            pr: (0..n).map(|_| AtomicF64::new(init)).collect(),
            new_pr: (0..n).map(|_| AtomicF64::new(base)).collect(),
            degree: g.vertices().map(|v| g.degree(v) as u32).collect(),
            base,
            damping: opts.damping,
            iters_left: opts.iters,
        }
    }
}

impl<P: Probe> EdgeKernel<P> for PageRankProgram {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        probe.read(addr_of_index(&self.pr, u as usize), 8);
        probe.branch_cond();
        let share = self.damping * self.pr[u as usize].load() / self.degree[u as usize] as f64;
        // W(f): float write conflict resolved by the CAS loop; one atomic
        // per attempt (§4.1).
        let attempts = self.new_pr[v as usize].fetch_add(share);
        for _ in 0..attempts {
            probe.atomic_rmw(addr_of_index(&self.new_pr, v as usize), 8);
        }
        false
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        // R: the neighbor's rank and degree (§7.3); the accumulate is an
        // own-cell load/store pair — no synchronization.
        probe.read(addr_of_index(&self.pr, u as usize), 8);
        probe.read(addr_of_index(&self.degree, u as usize), 4);
        let share = self.damping * self.pr[u as usize].load() / self.degree[u as usize] as f64;
        probe.write(addr_of_index(&self.new_pr, v as usize), 8);
        self.new_pr[v as usize].store(self.new_pr[v as usize].load() + share);
        false
    }
}

impl<P: ShardProbe> Program<P> for PageRankProgram {
    type Output = Vec<f64>;

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        if self.iters_left == 0 || g.num_vertices() == 0 {
            self.iters_left = 0;
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
        if self.iters_left == 0 {
            return None;
        }
        // One iteration just drained: promote the accumulator.
        std::mem::swap(&mut self.pr, &mut self.new_pr);
        self.iters_left -= 1;
        if self.iters_left == 0 {
            return None;
        }
        let (new_pr, base) = (&self.new_pr, self.base);
        engine.map_vertices(g, probes, |v, _| new_pr[v as usize].store(base));
        Some(Frontier::full(g))
    }

    fn finish(self, _g: &CsrGraph) -> Vec<f64> {
        self.pr.iter().map(AtomicF64::load).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::pagerank::{l1_distance, pagerank_seq};
    use pp_core::Direction;
    use pp_graph::gen;
    use pp_telemetry::{CountingProbe, NullProbe};

    #[test]
    fn both_directions_match_the_sequential_oracle() {
        let opts = PrOptions {
            iters: 12,
            damping: 0.85,
        };
        for g in [gen::rmat(8, 5, 3), gen::complete(32), gen::path(100)] {
            let reference = pagerank_seq(&g, &opts);
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for dir in Direction::BOTH {
                    let r = Runner::new(&engine, &probes)
                        .policy(DirectionPolicy::Fixed(dir))
                        .run(&g, PageRankProgram::new(&g, &opts))
                        .output;
                    let diff = l1_distance(&reference, &r);
                    assert!(diff < 1e-9, "{dir:?} x{threads}: L1 {diff}");
                }
            }
        }
    }

    #[test]
    fn pull_is_bitwise_deterministic_across_thread_counts() {
        let g = gen::rmat(7, 6, 9);
        let opts = PrOptions::default();
        let runs: Vec<Vec<f64>> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let engine = Engine::new(t);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                Runner::new(&engine, &probes)
                    .policy(DirectionPolicy::Fixed(Direction::Pull))
                    .run(&g, PageRankProgram::new(&g, &opts))
                    .output
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn one_phase_per_iteration_with_one_dense_round() {
        let g = gen::rmat(7, 5, 4);
        let opts = PrOptions {
            iters: 7,
            damping: 0.85,
        };
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let run = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, PageRankProgram::new(&g, &opts));
        assert_eq!(run.report.num_rounds(), 7);
        assert_eq!(run.report.phases, 7);
        assert!(run
            .report
            .rounds
            .iter()
            .all(|s| s.frontier == g.num_vertices()));
    }

    #[test]
    fn empty_graph_converges_immediately() {
        let g = pp_graph::GraphBuilder::undirected(0).build();
        let engine = Engine::new(1);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let opts = PrOptions {
            iters: 1_000_000,
            damping: 0.85,
        };
        let run = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, PageRankProgram::new(&g, &opts));
        assert!(run.output.is_empty());
        assert_eq!(run.report.num_rounds(), 0, "no phantom phases on n = 0");
        assert_eq!(run.report.phases, 0, "zero-round run reports zero phases");
    }

    #[test]
    fn zero_iterations_return_the_uniform_vector() {
        let g = gen::path(10);
        let engine = Engine::new(1);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let opts = PrOptions {
            iters: 0,
            damping: 0.85,
        };
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, PageRankProgram::new(&g, &opts))
            .output;
        assert!(r.iter().all(|&x| (x - 0.1).abs() < 1e-15));
    }

    #[test]
    fn push_contends_atomics_pull_stays_clean() {
        let g = gen::rmat(7, 5, 2);
        let engine = Engine::new(4);
        let opts = PrOptions {
            iters: 3,
            damping: 0.85,
        };

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, PageRankProgram::new(&g, &opts));
        let push = probes.merged();
        assert!(
            push.atomics as usize >= 3 * g.num_arcs(),
            "push issues ≥ one atomic per edge per iteration"
        );

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, PageRankProgram::new(&g, &opts));
        let pull = probes.merged();
        assert_eq!(pull.atomics, 0);
        assert_eq!(pull.locks, 0);
        assert!(pull.reads > push.reads, "pull gathers rank + degree");
    }
}
