//! Boman-style graph coloring as a [`Program`] (§3.6/§4.6).
//!
//! Each round plays Boman's two phases on the engine's primitives: the
//! frontier is the set of vertices needing (re)color;
//! [`Program::begin_round`] greedily colors them (the speculative parallel
//! phase — within a chunk the scan is sequential and reads fresh colors,
//! exactly Boman's per-partition greedy; across chunks reads race), and
//! the edge kernels are the conflict detection — for a same-color edge
//! inside the frontier, the *higher* id resolves to recolor, so the lower
//! endpoint stabilizes and termination is guaranteed in ≤ n rounds. The
//! push update scatters the recolor request to the remote offender's flag
//! (atomic claim, §4.6); the pull gather schedules *itself* with an
//! own-cell write — Algorithm 6's lines 16 vs 18, as one kernel pair.
//!
//! Colors stay within the greedy bound (≤ Δ + 1): every pick is the
//! smallest color absent from the observed neighborhood.
//! [`pp_core::coloring::is_proper_coloring`] is the oracle.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

use pp_core::coloring::NO_COLOR;
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::Program;

/// Speculative greedy coloring as a vertex program.
pub struct ColoringProgram {
    colors: Vec<AtomicU32>,
    /// Push-side recolor claims (exactly-once activation).
    flagged: Vec<AtomicBool>,
}

impl ColoringProgram {
    /// A program coloring every vertex of `g`.
    pub fn new(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        Self {
            colors: (0..n).map(|_| AtomicU32::new(NO_COLOR)).collect(),
            flagged: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// The smallest color not present in `v`'s observed neighborhood.
    /// Same-chunk neighbors are read fresh (the chunk scan is sequential);
    /// concurrently recolored cross-chunk neighbors may be read stale —
    /// the conflict kernels exist to catch exactly those.
    fn smallest_free(&self, g: &CsrGraph, v: VertexId) -> u32 {
        // Greedy never needs more than deg(v) + 1 candidates.
        let words = g.degree(v) / 64 + 1;
        let mut banned = vec![0u64; words];
        let cap = (words * 64) as u32;
        for &u in g.neighbors(v) {
            let c = self.colors[u as usize].load(Ordering::Relaxed);
            if c != NO_COLOR && c < cap {
                banned[(c / 64) as usize] |= 1 << (c % 64);
            }
        }
        for (i, &b) in banned.iter().enumerate() {
            if b != u64::MAX {
                return i as u32 * 64 + (!b).trailing_zeros();
            }
        }
        cap
    }
}

impl<P: Probe> EdgeKernel<P> for ColoringProgram {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        probe.read(addr_of_index(&self.colors, v as usize), 4);
        probe.branch_cond();
        // Conflicts exist only between same-round colorings (the snapshot
        // shields stable neighbors), and the higher id yields.
        if v > u
            && self.colors[v as usize].load(Ordering::Relaxed)
                == self.colors[u as usize].load(Ordering::Relaxed)
        {
            // W(i): scatter the recolor request to the remote offender
            // (Algorithm 6 line 16); swap makes the activation exactly-once.
            // ORDERING: AcqRel — Release orders the conflicting-color
            // reads above before the flag is raised; Acquire pairs with
            // the recolor pass's flag reset so it observes those colors.
            probe.atomic_rmw(addr_of_index(&self.flagged, v as usize), 1);
            !self.flagged[v as usize].swap(true, Ordering::AcqRel)
        } else {
            false
        }
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        probe.read(addr_of_index(&self.colors, u as usize), 4);
        probe.branch_cond();
        // Own-flag scheduling (Algorithm 6 line 18): v defers itself when
        // it clashes with a lower-id frontier neighbor.
        v > u
            && self.colors[v as usize].load(Ordering::Relaxed)
                == self.colors[u as usize].load(Ordering::Relaxed)
    }
}

impl<P: ShardProbe> Program<P> for ColoringProgram {
    /// Per-vertex colors, each below max-degree + 1.
    type Output = Vec<u32>;

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        Frontier::full(g)
    }

    fn begin_round(
        &mut self,
        _ctx: crate::program::RoundCtx,
        g: &CsrGraph,
        frontier: &mut Frontier,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) {
        // Speculatively color the frontier (Boman's parallel phase 1).
        let this = &*self;
        engine.vertex_map(g, frontier, probes, |v, probe| {
            let free = this.smallest_free(g, v);
            probe.write(addr_of_index(&this.colors, v as usize), 4);
            this.colors[v as usize].store(free, Ordering::Relaxed);
            this.flagged[v as usize].store(false, Ordering::Relaxed);
        });
    }

    fn finish(self, _g: &CsrGraph) -> Vec<u32> {
        self.colors.into_iter().map(AtomicU32::into_inner).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::coloring::is_proper_coloring;
    use pp_core::Direction;
    use pp_graph::gen;
    use pp_telemetry::{CountingProbe, NullProbe};

    /// Single source of truth for the schedule axis: the same sweep the
    /// benches and equivalence tests iterate.
    fn policies() -> impl Iterator<Item = DirectionPolicy> {
        DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
    }

    fn graphs() -> Vec<CsrGraph> {
        vec![
            gen::path(30),
            gen::cycle(31),
            gen::complete(17),
            gen::star(25),
            gen::rmat(7, 5, 3),
            gen::road_grid(8, 8, 0.6, 1),
        ]
    }

    #[test]
    fn every_schedule_produces_a_proper_bounded_coloring() {
        for g in graphs() {
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for policy in policies() {
                    let colors = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&g, ColoringProgram::new(&g))
                        .output;
                    assert!(
                        is_proper_coloring(&g, &colors),
                        "x{threads} {policy:?} n={}",
                        g.num_vertices()
                    );
                    let max = colors.iter().copied().max().unwrap_or(0);
                    assert!(
                        max as usize <= g.max_degree(),
                        "greedy bound violated: color {max}, Δ = {}",
                        g.max_degree()
                    );
                }
            }
        }
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        let g = gen::complete(9);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let mut colors = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, ColoringProgram::new(&g))
                .output;
            colors.sort_unstable();
            assert_eq!(colors, (0..9).collect::<Vec<u32>>(), "{policy:?}");
        }
    }

    #[test]
    fn single_thread_converges_in_one_round() {
        // One thread scans chunks sequentially and reads fresh colors, so
        // the speculative phase is plain sequential greedy: no conflicts.
        let g = gen::rmat(7, 5, 9);
        let engine = Engine::new(1);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, ColoringProgram::new(&g));
        assert!(is_proper_coloring(&g, &r.output));
        assert_eq!(r.report.num_rounds(), 1);
    }

    #[test]
    fn rounds_shrink_monotonically() {
        let g = gen::rmat(8, 6, 7);
        let engine = Engine::new(4);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, ColoringProgram::new(&g));
        assert!(is_proper_coloring(&g, &r.output));
        assert!(
            r.report
                .rounds
                .windows(2)
                .all(|w| w[1].frontier < w[0].frontier),
            "each round must strictly shrink the conflict set"
        );
    }

    #[test]
    fn push_schedules_remote_pull_schedules_own() {
        // §4.6: the directions differ in *whose* state the conflict pass
        // writes — push claims the remote flag atomically, pull never
        // synchronizes.
        let g = gen::rmat(7, 5, 7);
        let engine = Engine::new(4);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let push_colors = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, ColoringProgram::new(&g))
            .output;
        let push = probes.merged();

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let pull_colors = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, ColoringProgram::new(&g))
            .output;
        let pull = probes.merged();

        assert!(is_proper_coloring(&g, &push_colors));
        assert!(is_proper_coloring(&g, &pull_colors));
        assert_eq!(pull.atomics, 0, "pull conflict detection is sync-free");
        // Push only claims flags when conflicts exist; with one round there
        // are none, so only assert the pull side's cleanliness plus push's
        // lock-freedom.
        assert_eq!(push.locks, 0);
    }
}
