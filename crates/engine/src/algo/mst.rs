//! Boruvka minimum spanning tree as a [`Program`] (§3.7, Algorithm 7,
//! Figure 4) — the multi-kernel showcase of the per-phase lifecycle.
//!
//! Each Boruvka iteration contributes the paper's three timed phases to
//! the run, in order, so `RunReport::phase_rounds(p)` exposes them
//! directly (`p % 3` maps to [`MstPhaseKind`]):
//!
//! * **FM (Find Minimum)** — an edge phase. Every vertex elects its
//!   minimum incident *cut* edge into a per-vertex slot: the push kernel
//!   CAS-mins the remote slot `best[v]` (Algorithm 7 lines 10-14, the
//!   W(i) conflict), the pull kernel mins the own slot with a plain write
//!   (lines 15-17). Packing `(w, u)` into the slot orders candidates at
//!   `v` exactly by the canonical per-edge key `(w, min(u,v), max(u,v))`
//!   — globally distinct keys, the classic fix that keeps the merge graph
//!   free of cycles longer than mutual pairs.
//! * **BMT (Build Merge Tree)** — a [`PhaseKernel::VertexStep`]. The
//!   per-vertex slots are reduced to per-supervertex champions, 2-cycles
//!   are broken (lower label roots), pointer jumping flattens the merge
//!   forest, and every non-root's elected edge joins the forest — all in
//!   [`Program::begin_round`], no edge traversal.
//! * **M (Merge)** — a vertex step relabeling every vertex to its root
//!   supervertex and resetting its slot for the next FM sweep (a
//!   frontier-wide [`Engine::vertex_map`], own-cell writes only).
//!
//! The run converges when a BMT finds no mergeable edge. The sequential
//! Kruskal union-find ([`pp_core::mst::kruskal_seq`]) is the oracle for
//! forest weight and edge count.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use pp_core::sync::atomic_min_u64;
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::{frontier_where, PhaseKernel, Program, RoundCtx};

/// An empty minimum-edge slot.
const EMPTY: u64 = u64::MAX;

/// The paper's phase taxonomy for one Boruvka iteration (Figure 4's three
/// subplots). Runner phase `p` belongs to iteration `p / 3` and kind
/// `MstPhaseKind::of(p)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MstPhaseKind {
    /// Find Minimum: the edge sweep electing each supervertex's cheapest
    /// outgoing edge.
    FindMin,
    /// Build Merge Tree: champion reduction, cycle breaking, pointer
    /// jumping (a vertex step over the active supervertices).
    BuildMergeTree,
    /// Merge: relabel every vertex to its root supervertex (a vertex step
    /// over all vertices).
    Merge,
}

impl MstPhaseKind {
    /// The kind of runner phase `p`.
    pub fn of(phase: u32) -> Self {
        match phase % 3 {
            0 => MstPhaseKind::FindMin,
            1 => MstPhaseKind::BuildMergeTree,
            _ => MstPhaseKind::Merge,
        }
    }
}

/// Boruvka as a vertex program: per-vertex minimum-edge election (FM edge
/// kernels) plus vertex-step BMT/M phases.
pub struct MstProgram {
    /// Supervertex label per vertex.
    sv: Vec<AtomicU32>,
    /// Per-vertex minimum cut-edge slot, packed `(w, other endpoint)`.
    best: Vec<AtomicU64>,
    /// Merge pointer per supervertex (BMT output, M input).
    parent: Vec<u32>,
    /// Forest edges chosen so far, canonical `(min, max, w)`.
    chosen: Vec<(VertexId, VertexId, Weight)>,
    /// Which of the three phase kinds the current runner phase is.
    state: MstPhaseKind,
    /// Whether the last BMT found anything to merge.
    any_merge: bool,
    /// BMT scratch, reused across iterations: champion per supervertex.
    champ: Vec<Option<Champion>>,
    /// Reseed scratch, reused across iterations: label-in-use flags.
    active: Vec<bool>,
}

#[inline]
fn pack(w: Weight, other: VertexId) -> u64 {
    ((w as u64) << 32) | other as u64
}

#[inline]
fn unpack(packed: u64) -> (Weight, VertexId) {
    ((packed >> 32) as Weight, packed as VertexId)
}

/// The canonical, globally distinct key of edge `(v, u, w)`.
#[inline]
fn canonical(w: Weight, v: VertexId, u: VertexId) -> (Weight, VertexId, VertexId) {
    (w, v.min(u), v.max(u))
}

/// A supervertex's elected edge: its canonical key plus the endpoint on the
/// far side (whose label is the merge target).
type Champion = ((Weight, VertexId, VertexId), VertexId);

impl MstProgram {
    /// A program computing the minimum spanning forest of `g`.
    pub fn new(g: &CsrGraph) -> Self {
        assert!(g.is_weighted(), "Boruvka requires edge weights");
        let n = g.num_vertices();
        Self {
            sv: (0..n as u32).map(AtomicU32::new).collect(),
            best: (0..n).map(|_| AtomicU64::new(EMPTY)).collect(),
            parent: (0..n as u32).collect(),
            chosen: Vec::new(),
            state: MstPhaseKind::FindMin,
            any_merge: false,
            champ: vec![None; n],
            active: vec![false; n],
        }
    }

    #[inline]
    fn label(&self, v: VertexId) -> u32 {
        self.sv[v as usize].load(Ordering::Relaxed)
    }

    /// The BMT vertex step: reduce per-vertex slots to per-supervertex
    /// champions, build and flatten the merge forest, record the elected
    /// edges. Sequential, like the `pp-core` twin's merge-tree phase.
    fn build_merge_tree(&mut self, g: &CsrGraph) {
        let n = g.num_vertices();
        // Champion per supervertex: (canonical key, other endpoint). The
        // buffer lives on the program, cleared here, so iterations don't
        // re-allocate O(n) scratch.
        let (champ, sv, best) = (&mut self.champ, &self.sv, &self.best);
        champ.fill(None);
        for v in 0..n as VertexId {
            let slot = best[v as usize].load(Ordering::Relaxed);
            if slot == EMPTY {
                continue;
            }
            let (w, u) = unpack(slot);
            let key = canonical(w, v, u);
            let f = sv[v as usize].load(Ordering::Relaxed) as usize;
            if champ[f].is_none_or(|(best, _)| key < best) {
                champ[f] = Some((key, u));
            }
        }
        // Merge pointers: champion edges define parent[f] = sv(other side).
        let parent = &mut self.parent;
        for (f, p) in parent.iter_mut().enumerate() {
            *p = f as u32;
        }
        let mut any_merge = false;
        for (f, c) in champ.iter().enumerate() {
            if let Some((_, u)) = c {
                parent[f] = sv[*u as usize].load(Ordering::Relaxed);
                any_merge = true;
            }
        }
        self.any_merge = any_merge;
        if !self.any_merge {
            return;
        }
        // Break mutual pairs: the lower label roots the merged tree.
        for f in 0..n as u32 {
            let p = self.parent[f as usize];
            if self.parent[p as usize] == f && f < p {
                self.parent[f as usize] = f;
            }
        }
        // Pointer jumping to the root (O(log n) sweeps; canonical keys
        // guarantee no cycle longer than a mutual pair survives).
        loop {
            let mut changed = false;
            for f in 0..n {
                let p = self.parent[f] as usize;
                let gp = self.parent[p];
                if self.parent[f] != gp {
                    self.parent[f] = gp;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Every non-root supervertex contributes its elected edge.
        for (f, c) in champ.iter().enumerate() {
            if self.parent[f] != f as u32 {
                let ((w, lo, hi), _) = c.expect("non-root must have an edge");
                self.chosen.push((lo, hi, w));
            }
        }
    }
}

impl<P: Probe> EdgeKernel<P> for MstProgram {
    fn push_update(&self, u: VertexId, v: VertexId, w: Weight, probe: &P) -> bool {
        probe.branch_cond();
        if self.label(u) == self.label(v) {
            return false;
        }
        // W(i): write conflict on the shared slot, CAS-min (§4.7).
        let (_, attempts) = atomic_min_u64(&self.best[v as usize], pack(w, u));
        for _ in 0..attempts {
            probe.atomic_rmw(addr_of_index(&self.best, v as usize), 8);
        }
        false
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, w: Weight, probe: &P) -> bool {
        // R: read conflict on the neighbor's label; the min lands in the
        // own slot with a plain write — no synchronization (§4.7).
        probe.read(addr_of_index(&self.sv, u as usize), 4);
        probe.branch_cond();
        if self.label(u) == self.label(v) {
            return false;
        }
        let packed = pack(w, u);
        if packed < self.best[v as usize].load(Ordering::Relaxed) {
            probe.write(addr_of_index(&self.best, v as usize), 8);
            self.best[v as usize].store(packed, Ordering::Relaxed);
        }
        false
    }
}

impl<P: ShardProbe> Program<P> for MstProgram {
    /// `(edges, total_weight)`: the spanning forest's edges, canonical
    /// `(min, max, w)` and sorted, and the sum of their weights.
    type Output = (Vec<(VertexId, VertexId, Weight)>, u64);

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        // Iteration 0's FM sweep: every vertex scans its incident edges.
        Frontier::full(g)
    }

    fn phase_kernel(&self, _phase: u32) -> PhaseKernel {
        match self.state {
            MstPhaseKind::FindMin => PhaseKernel::EdgeMap,
            _ => PhaseKernel::VertexStep,
        }
    }

    fn begin_round(
        &mut self,
        _ctx: RoundCtx,
        g: &CsrGraph,
        frontier: &mut Frontier,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) {
        match self.state {
            MstPhaseKind::FindMin => {}
            MstPhaseKind::BuildMergeTree => self.build_merge_tree(g),
            MstPhaseKind::Merge => {
                // Relabel to the root supervertex and reset the slot for
                // the next FM sweep — own-cell writes only.
                let (sv, best, parent) = (&self.sv, &self.best, &self.parent);
                engine.vertex_map(g, frontier, probes, |v, probe| {
                    let s = sv[v as usize].load(Ordering::Relaxed);
                    probe.read(addr_of_index(parent, s as usize), 4);
                    probe.write(addr_of_index(sv, v as usize), 4);
                    sv[v as usize].store(parent[s as usize], Ordering::Relaxed);
                    best[v as usize].store(EMPTY, Ordering::Relaxed);
                });
            }
        }
    }

    fn next_phase(
        &mut self,
        g: &CsrGraph,
        _engine: &Engine,
        _probes: &ProbeShards<P>,
    ) -> Option<Frontier> {
        match self.state {
            MstPhaseKind::FindMin => {
                // FM drained: reduce over the active supervertices (the
                // flag buffer is program-owned, reused across iterations).
                self.state = MstPhaseKind::BuildMergeTree;
                let n = g.num_vertices();
                let (active, sv) = (&mut self.active, &self.sv);
                active.fill(false);
                for v in 0..n {
                    active[sv[v].load(Ordering::Relaxed) as usize] = true;
                }
                Some(frontier_where(g, |f| self.active[f as usize]))
            }
            MstPhaseKind::BuildMergeTree => {
                if !self.any_merge {
                    return None;
                }
                self.state = MstPhaseKind::Merge;
                Some(Frontier::full(g))
            }
            MstPhaseKind::Merge => {
                self.state = MstPhaseKind::FindMin;
                Some(Frontier::full(g))
            }
        }
    }

    fn finish(mut self, _g: &CsrGraph) -> Self::Output {
        // A mutual pair elects one edge from the non-root side only, but be
        // defensive about repeats, like the pp-core twin.
        self.chosen.sort_unstable();
        self.chosen.dedup();
        let total = self.chosen.iter().map(|&(_, _, w)| w as u64).sum();
        (self.chosen, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::ExecutionMode;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::mst::kruskal_seq;
    use pp_core::Direction;
    use pp_graph::{gen, GraphBuilder};
    use pp_telemetry::{CountingProbe, NullProbe};

    fn weighted(seed: u64) -> CsrGraph {
        gen::with_random_weights(&gen::rmat(7, 5, seed), 1, 1000, seed ^ 0xff)
    }

    fn policies() -> impl Iterator<Item = DirectionPolicy> {
        DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
    }

    #[test]
    fn matches_kruskal_on_random_graphs() {
        for seed in 0..3 {
            let g = weighted(seed);
            let (kedges, kweight) = kruskal_seq(&g);
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for policy in policies() {
                    let (edges, total_weight) = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&g, MstProgram::new(&g))
                        .output;
                    assert_eq!(total_weight, kweight, "seed {seed} x{threads} {policy:?}");
                    assert_eq!(edges.len(), kedges.len(), "seed {seed} edge count");
                }
            }
        }
    }

    #[test]
    fn unique_mst_matches_exactly() {
        // Distinct weights ⇒ unique MST ⇒ identical edge sets.
        let g = GraphBuilder::undirected(5)
            .weighted_edges([
                (0, 1, 10),
                (0, 2, 20),
                (1, 2, 30),
                (1, 3, 40),
                (2, 4, 50),
                (3, 4, 60),
            ])
            .build();
        let (mut kedges, kw) = kruskal_seq(&g);
        kedges.sort_unstable();
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let (edges, total_weight) = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, MstProgram::new(&g))
                .output;
            assert_eq!(edges, kedges, "{policy:?}");
            assert_eq!(total_weight, kw);
        }
    }

    #[test]
    fn heavy_ties_still_yield_optimal_weight() {
        // All weights equal: any spanning tree is minimal; the canonical
        // (w, min, max) tie-break must keep the merge graph cycle-free.
        let g = GraphBuilder::undirected(8)
            .weighted_edges(
                gen::complete(8)
                    .edges()
                    .map(|(u, v, _)| (u, v, 7))
                    .collect::<Vec<_>>(),
            )
            .build();
        let engine = Engine::new(4);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let (edges, total_weight) = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, MstProgram::new(&g))
                .output;
            assert_eq!(total_weight, 7 * 7, "{policy:?}");
            assert_eq!(edges.len(), 7);
        }
    }

    #[test]
    fn forest_on_disconnected_graph() {
        let g = GraphBuilder::undirected(6)
            .weighted_edges([(0, 1, 3), (1, 2, 4), (3, 4, 1), (4, 5, 2)])
            .build();
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let (edges, total_weight) = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, MstProgram::new(&g))
                .output;
            assert_eq!(edges.len(), 4, "{policy:?}");
            assert_eq!(total_weight, 10);
        }
    }

    #[test]
    fn report_exposes_fm_bmt_m_phase_structure() {
        let g = gen::with_random_weights(&gen::path(64), 1, 9, 4);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, MstProgram::new(&g));
        // Phases cycle FM, BMT, M; the last iteration stops after its BMT.
        assert_eq!(r.report.phases % 3, 2, "final iteration has no merge");
        let iterations = r.report.phases.div_ceil(3);
        assert!((2..=8).contains(&iterations), "log-ish rounds");
        for p in 0..r.report.phases {
            let rounds: Vec<_> = r.report.phase_rounds(p).collect();
            assert_eq!(rounds.len(), 1, "every MST phase is single-round");
            match MstPhaseKind::of(p) {
                MstPhaseKind::FindMin | MstPhaseKind::Merge => {
                    assert_eq!(rounds[0].frontier, 64, "all vertices sweep")
                }
                MstPhaseKind::BuildMergeTree => {
                    assert!(rounds[0].frontier <= 64, "active supervertices")
                }
            }
        }
        // Supervertex counts (the BMT frontiers) decline monotonically.
        let bmt_sizes: Vec<usize> = (0..r.report.phases)
            .filter(|&p| MstPhaseKind::of(p) == MstPhaseKind::BuildMergeTree)
            .flat_map(|p| r.report.phase_rounds(p).map(|s| s.frontier))
            .collect();
        assert!(bmt_sizes.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn push_uses_cas_pull_does_not_and_pa_push_removes_them() {
        let g = weighted(9);
        let engine = Engine::new(4);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, MstProgram::new(&g));
        assert!(probes.merged().atomics > 0, "FM push must CAS-min");

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, MstProgram::new(&g));
        assert_eq!(probes.merged().atomics, 0, "FM pull is sync-free");
        assert_eq!(probes.merged().locks, 0);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let (kedges, kweight) = kruskal_seq(&g);
        let run = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .mode(ExecutionMode::PartitionAware)
            .run(&g, MstProgram::new(&g));
        assert_eq!(run.output.1, kweight, "PA push matches Kruskal");
        assert_eq!(run.output.0.len(), kedges.len());
        let pa = probes.merged();
        assert_eq!(pa.atomics, 0, "owner-computes FM push must not CAS");
        assert!(pa.remote_sends > 0, "RMAT cuts across 4 parts");
    }

    #[test]
    fn empty_and_single_vertex_and_edgeless() {
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let empty = GraphBuilder::undirected(0)
            .weighted_edges(std::iter::empty::<(u32, u32, u32)>())
            .build();
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&empty, MstProgram::new(&empty));
        assert!(r.output.0.is_empty());
        assert_eq!(r.report.phases, 0, "nothing ran on the empty graph");
        let single = GraphBuilder::undirected(3)
            .weighted_edges(std::iter::empty::<(u32, u32, u32)>())
            .build();
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&single, MstProgram::new(&single));
        assert_eq!(r.output.1, 0);
        assert_eq!(r.report.phases, 2, "one FM + one BMT, no merge");
    }

    #[test]
    #[should_panic(expected = "requires edge weights")]
    fn rejects_unweighted() {
        MstProgram::new(&gen::path(3));
    }
}
