//! Connected components (label-min propagation) as a [`Program`] (§3.7).
//!
//! Every vertex carries a label (initially its id); labels propagate until
//! each component agrees on its minimum id. The frontier is the set of
//! vertices whose label changed in the previous round — seeded with every
//! vertex, so the first round covers every edge. The push update scatters
//! the smaller label with a CAS-min; the pull gather takes own-cell
//! minimums over frontier neighbors. Labels only decrease, so any
//! interleaving of directions converges to the same fixpoint — the
//! per-component minimum — which the `pp-core` twin
//! ([`pp_core::components::connected_components`]) oracles in tests.

use std::sync::atomic::{AtomicU32, Ordering};

use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::EdgeKernel;
use crate::probes::ShardProbe;
use crate::program::Program;

/// Label-min connected components as a vertex program.
pub struct CcProgram {
    labels: Vec<AtomicU32>,
}

impl CcProgram {
    /// A program labeling each vertex with its component's minimum id.
    pub fn new(g: &CsrGraph) -> Self {
        Self {
            labels: (0..g.num_vertices() as u32).map(AtomicU32::new).collect(),
        }
    }
}

impl<P: Probe> EdgeKernel<P> for CcProgram {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        let lu = self.labels[u as usize].load(Ordering::Relaxed);
        probe.read(addr_of_index(&self.labels, v as usize), 4);
        probe.branch_cond();
        // W(i): scatter the smaller label with CAS-min (§4.9 push side).
        // ORDERING: AcqRel on the CAS — a racing pusher that loses must
        // Acquire the smaller label it lost to, so its retry loop
        // converges on the min instead of reviving a stale label.
        let mut cur = self.labels[v as usize].load(Ordering::Relaxed);
        while lu < cur {
            probe.atomic_rmw(addr_of_index(&self.labels, v as usize), 4);
            match self.labels[v as usize].compare_exchange_weak(
                cur,
                lu,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => cur = actual,
            }
        }
        false
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        // R: read conflict on the neighbor's label; own-cell write only.
        probe.read(addr_of_index(&self.labels, u as usize), 4);
        probe.branch_cond();
        let lu = self.labels[u as usize].load(Ordering::Relaxed);
        if lu < self.labels[v as usize].load(Ordering::Relaxed) {
            probe.write(addr_of_index(&self.labels, v as usize), 4);
            self.labels[v as usize].store(lu, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    fn may_activate_twice(&self) -> bool {
        // Every improving CAS-min reports the target active again.
        true
    }
}

impl<P: ShardProbe> Program<P> for CcProgram {
    /// Per-vertex component label: the minimum vertex id in the component.
    type Output = Vec<VertexId>;

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        Frontier::full(g)
    }

    fn finish(self, g: &CsrGraph) -> Vec<VertexId> {
        // Pointer-style flattening: labels may still point at non-minimum
        // ids transitively on pathological schedules; chase to the fixpoint
        // (same safeguard as the pp-core twin).
        let mut flat: Vec<VertexId> = self.labels.into_iter().map(AtomicU32::into_inner).collect();
        for v in 0..g.num_vertices() {
            let mut l = flat[v];
            while flat[l as usize] != l {
                l = flat[l as usize];
            }
            flat[v] = l;
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Engine;
    use crate::policy::DirectionPolicy;
    use crate::probes::ProbeShards;
    use crate::runner::Runner;
    use pp_core::components::connected_components as cc_oracle;
    use pp_core::Direction;
    use pp_graph::{gen, GraphBuilder};
    use pp_telemetry::{CountingProbe, NullProbe};

    /// Single source of truth for the schedule axis: the same sweep the
    /// benches and equivalence tests iterate.
    fn policies() -> impl Iterator<Item = DirectionPolicy> {
        DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
    }

    #[test]
    fn labels_match_the_core_oracle_on_standard_families() {
        for (name, g) in [
            ("path", gen::path(40)),
            ("rmat", gen::rmat(8, 4, 5)),
            ("sparse-er", gen::erdos_renyi(200, 150, 3)),
            ("isolated", GraphBuilder::undirected(7).edge(0, 1).build()),
        ] {
            let expected = cc_oracle(&g, Direction::Pull).labels;
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for policy in policies() {
                    let labels = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&g, CcProgram::new(&g))
                        .output;
                    assert_eq!(labels, expected, "{name} x{threads} {policy:?}");
                }
            }
        }
    }

    #[test]
    fn label_is_component_minimum() {
        let g = gen::cycle(12);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let labels = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, CcProgram::new(&g))
            .output;
        assert_eq!(labels, vec![0; 12], "one component, labeled by vertex 0");
    }

    #[test]
    fn push_atomics_pull_none() {
        let g = gen::rmat(7, 4, 2);
        let engine = Engine::new(2);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, CcProgram::new(&g));
        assert!(probes.merged().atomics > 0);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, CcProgram::new(&g));
        assert_eq!(probes.merged().atomics, 0);
        assert!(probes.merged().reads > 0);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build();
        let engine = Engine::new(1);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, CcProgram::new(&g));
        assert!(r.output.is_empty());
        assert_eq!(r.report.num_rounds(), 0);
    }
}
