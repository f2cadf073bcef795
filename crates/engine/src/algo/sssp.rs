//! Δ-stepping SSSP as a [`Program`] (§3.4/§4.4).
//!
//! Phases are the distance buckets, walked in order by
//! [`Program::next_phase`]; within a phase, rounds repeat until the bucket
//! stops improving, exactly like the core variants. The frontier of a round
//! is the set of bucket members that changed in the previous round; the
//! kernel relaxes with CAS-min when pushing and with own-cell mins when
//! pulling, and the [`crate::DirectionPolicy`] may switch direction phase
//! by phase — a schedule neither core variant offers.

use std::sync::atomic::{AtomicU64, Ordering};

use pp_core::sssp::{SsspOptions, INF};
use pp_core::sync::atomic_min_u64;
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::{frontier_where, Program};

/// Δ-stepping as a vertex program: one phase per distance bucket.
pub struct SsspProgram {
    root: VertexId,
    dist: Vec<AtomicU64>,
    /// Current bucket index.
    b: u64,
    delta: u64,
    /// Bucket index of each executed phase, in order.
    buckets: Vec<u64>,
}

impl SsspProgram {
    /// A program computing shortest distances from `root` with bucket
    /// width `opts.delta`.
    pub fn new(g: &CsrGraph, root: VertexId, opts: &SsspOptions) -> Self {
        assert!(g.is_weighted(), "Δ-stepping requires edge weights");
        assert!(opts.delta >= 1, "Δ must be at least 1");
        let n = g.num_vertices();
        assert!((root as usize) < n, "root out of range");
        Self {
            root,
            dist: (0..n).map(|_| AtomicU64::new(INF)).collect(),
            b: 0,
            delta: opts.delta,
            buckets: Vec::new(),
        }
    }

    /// Every current member of bucket `b`, as a frontier.
    fn bucket_members(&self, g: &CsrGraph) -> Frontier {
        frontier_where(g, |v| {
            let d = self.dist[v as usize].load(Ordering::Relaxed);
            d != INF && d / self.delta == self.b
        })
    }
}

impl<P: Probe> EdgeKernel<P> for SsspProgram {
    fn push_update(&self, u: VertexId, v: VertexId, w: Weight, probe: &P) -> bool {
        let du = self.dist[u as usize].load(Ordering::Relaxed);
        let cand = du.saturating_add(w as u64);
        probe.read(addr_of_index(&self.dist, v as usize), 8);
        probe.branch_cond();
        // W(i): write conflict on d[v]; CAS-min (§4.4).
        let (updated, attempts) = atomic_min_u64(&self.dist[v as usize], cand);
        for _ in 0..attempts {
            probe.atomic_rmw(addr_of_index(&self.dist, v as usize), 8);
        }
        // Only same-bucket improvements re-activate within this epoch;
        // later buckets are rediscovered from the distance array.
        updated && cand / self.delta == self.b
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, w: Weight, probe: &P) -> bool {
        // R: read conflict on d[u] (§4.4); write only to the owned d[v].
        probe.read(addr_of_index(&self.dist, u as usize), 8);
        probe.branch_cond();
        let cand = self.dist[u as usize]
            .load(Ordering::Relaxed)
            .saturating_add(w as u64);
        let dv = self.dist[v as usize].load(Ordering::Relaxed);
        if cand < dv {
            probe.write(addr_of_index(&self.dist, v as usize), 8);
            self.dist[v as usize].store(cand, Ordering::Relaxed);
            cand / self.delta == self.b
        } else {
            false
        }
    }

    fn pull_candidate(&self, v: VertexId, probe: &P) -> bool {
        probe.branch_cond();
        // Only vertices that can still improve relative to this bucket
        // participate as pull targets (Algorithm 4 line 23).
        self.dist[v as usize].load(Ordering::Relaxed) > self.b * self.delta
    }

    fn may_activate_twice(&self) -> bool {
        // Every successful CAS-min improvement of one vertex returns true;
        // edge_map folds the repeats.
        true
    }
}

impl<P: ShardProbe> Program<P> for SsspProgram {
    /// `(dist, buckets)`: the shortest distance from the root per vertex
    /// ([`INF`] if unreachable) and the bucket index (distances in
    /// `[bΔ, (b+1)Δ)`) each runner phase settled, in phase order.
    type Output = (Vec<u64>, Vec<u64>);

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        self.dist[self.root as usize].store(0, Ordering::Relaxed);
        self.buckets.push(0);
        self.bucket_members(g)
    }

    fn next_phase(
        &mut self,
        g: &CsrGraph,
        _engine: &Engine,
        _probes: &ProbeShards<P>,
    ) -> Option<Frontier> {
        // Next unsettled bucket, straight from the distance array.
        let next = (0..g.num_vertices())
            .filter_map(|v| {
                let d = self.dist[v].load(Ordering::Relaxed);
                (d != INF && d / self.delta > self.b).then_some(d / self.delta)
            })
            .min()?;
        self.b = next;
        self.buckets.push(next);
        Some(self.bucket_members(g))
    }

    fn finish(self, _g: &CsrGraph) -> Self::Output {
        (
            self.dist.into_iter().map(AtomicU64::into_inner).collect(),
            self.buckets,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::sssp::dijkstra;
    use pp_core::Direction;
    use pp_graph::gen;
    use pp_telemetry::{CountingProbe, NullProbe};

    fn weighted_graphs() -> Vec<CsrGraph> {
        vec![
            gen::with_random_weights(&gen::path(50), 1, 20, 1),
            gen::with_random_weights(&gen::rmat(7, 4, 5), 1, 50, 2),
            gen::with_random_weights(&gen::complete(24), 1, 100, 4),
        ]
    }

    #[test]
    fn matches_dijkstra_in_every_mode_and_thread_count() {
        for g in weighted_graphs() {
            let reference = dijkstra(&g, 0);
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for delta in [1u64, 16, 1 << 12] {
                    for policy in [
                        DirectionPolicy::Fixed(Direction::Push),
                        DirectionPolicy::Fixed(Direction::Pull),
                        DirectionPolicy::adaptive(),
                    ] {
                        let (dist, _) = Runner::new(&engine, &probes)
                            .policy(policy)
                            .run(&g, SsspProgram::new(&g, 0, &SsspOptions { delta }))
                            .output;
                        assert_eq!(dist, reference, "Δ={delta} x{threads} {policy:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn push_counts_cas_pull_counts_none() {
        let g = gen::with_random_weights(&gen::rmat(7, 4, 9), 1, 30, 7);
        let engine = Engine::new(2);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, SsspProgram::new(&g, 0, &SsspOptions { delta: 16 }));
        assert!(probes.merged().atomics > 0, "push relaxations CAS-min");

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, SsspProgram::new(&g, 0, &SsspOptions { delta: 16 }));
        assert_eq!(probes.merged().atomics, 0, "pull is synchronization-free");
    }

    #[test]
    fn epochs_walk_buckets_in_order() {
        let g = gen::with_random_weights(&gen::path(40), 1, 9, 3);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, SsspProgram::new(&g, 0, &SsspOptions { delta: 8 }));
        let (_, buckets) = &r.output;
        assert!(buckets.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(r.report.phases as usize, buckets.len());
        assert!((0..r.report.phases).all(|p| r.report.phase_rounds(p).count() >= 1));
    }
}
