//! Bit-parallel multi-source BFS (MS-BFS): one traversal advances up to 64
//! BFS frontiers at once.
//!
//! A [`SourceBatch`] maps each source to a *lane* — one bit in a `u64` mask
//! word — and the program keeps three mask words per vertex:
//!
//! * `visit[v]` — lanes whose BFS has reached `v` (monotone union),
//! * `cur[v]` — lanes for which `v` is in the round's frontier
//!   (round-immutable: written only by the pre-round fold),
//! * `visit_next[v]` — lanes arriving at `v` during the round.
//!
//! Push ORs `cur[u] & !visit[v]` into `visit_next[v]` with a single
//! `fetch_or` per touched edge — 64 frontier advances for the price of one
//! atomic. Pull gathers the same masks into `v`'s own cell with plain
//! writes, and the default [`EdgeKernel::apply_owned`] (pull gated by the
//! pull candidate) makes the §5 owner-computes path work unchanged: the
//! source read (`cur[u]`) is a round-immutable snapshot, exactly what the
//! delivery-phase timing contract requires, so PartitionAware MS-BFS stays
//! zero-RMW.
//!
//! The scheduler-visible [`Frontier`] is the *union* of the per-lane
//! frontiers, so the [`crate::DirectionPolicy`] steers on the batch's
//! aggregate `|F|`/`|E_F|` with no policy changes. Per-lane depths are
//! extracted at the pre-round fold (where discovery rounds are known
//! exactly), and every lane's level vector is bit-equal to the
//! corresponding single-source [`crate::algo::bfs`] run.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use pp_core::bfs::UNVISITED;
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::{Program, RoundCtx};
use crate::report::SourceStat;

/// Lane width of a batch: sources per run, one bit per lane in the mask
/// words.
pub const MAX_LANES: usize = 64;

/// An ordered, deduplicated batch of at most [`MAX_LANES`] sources; lane
/// `l` is `sources()[l]` and bit `l` in every mask word. Duplicates are
/// folded onto their first occurrence, preserving lane order.
#[derive(Clone, Debug)]
pub struct SourceBatch {
    sources: Vec<VertexId>,
}

impl SourceBatch {
    /// A batch over the distinct vertices of `sources`, in first-occurrence
    /// order. Panics if a source is out of range, the list is empty, or
    /// more than [`MAX_LANES`] distinct sources remain — callers that take
    /// untrusted input validate first (`registry::AlgoSpec::validate`).
    pub fn new(g: &CsrGraph, sources: &[VertexId]) -> Self {
        let n = g.num_vertices();
        let mut uniq: Vec<VertexId> = Vec::new();
        for &s in sources {
            assert!((s as usize) < n, "source {s} out of range");
            if !uniq.contains(&s) {
                uniq.push(s);
            }
        }
        assert!(!uniq.is_empty(), "a source batch needs at least one source");
        assert!(
            uniq.len() <= MAX_LANES,
            "a source batch holds at most {MAX_LANES} distinct sources"
        );
        Self { sources: uniq }
    }

    /// The deduplicated sources, lane-ordered: lane `l` traverses from
    /// `sources()[l]`.
    pub fn sources(&self) -> &[VertexId] {
        &self.sources
    }

    /// Number of lanes in use (≥ 1, ≤ [`MAX_LANES`]).
    pub fn len(&self) -> usize {
        self.sources.len()
    }

    /// Never true — `new` rejects empty batches — but keeps the `len`
    /// convention.
    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Mask with every in-use lane bit set.
    pub fn full_mask(&self) -> u64 {
        if self.sources.len() >= MAX_LANES {
            u64::MAX
        } else {
            (1u64 << self.sources.len()) - 1
        }
    }
}

/// MS-BFS as a vertex program: per-vertex lane-mask words plus per-lane
/// depth extraction (see the module docs for the three-word scheme).
pub struct MsBfsProgram {
    batch: SourceBatch,
    /// [`SourceBatch::full_mask`], cached for the pull-candidate gate.
    full: u64,
    /// Lanes that have reached `v` (monotone union, advanced at the fold).
    visit: Vec<AtomicU64>,
    /// Lanes arriving at `v` this round (merged by the edge kernels,
    /// consumed and cleared by the next fold).
    visit_next: Vec<AtomicU64>,
    /// Lanes for which `v` is in the current frontier (round-immutable).
    cur: Vec<AtomicU64>,
    /// `depth[l * n + v]`: BFS level of `v` in lane `l` ([`UNVISITED`]
    /// until lane `l` reaches `v`).
    depth: Vec<AtomicU32>,
    /// Union of the lane masks folded this round (the round's active
    /// lanes).
    round_lanes: u64,
    /// Rounds in which each lane had frontier vertices.
    rounds_active: Vec<u32>,
    /// Last round index at which each lane discovered vertices — the
    /// lane's eccentricity from its source once the run drains.
    last_depth: Vec<u32>,
}

impl MsBfsProgram {
    /// A program traversing all lanes of `batch` simultaneously.
    pub fn new(g: &CsrGraph, batch: SourceBatch) -> Self {
        let n = g.num_vertices();
        let lanes = batch.len();
        Self {
            full: batch.full_mask(),
            visit: (0..n).map(|_| AtomicU64::new(0)).collect(),
            visit_next: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cur: (0..n).map(|_| AtomicU64::new(0)).collect(),
            depth: (0..n * lanes).map(|_| AtomicU32::new(UNVISITED)).collect(),
            round_lanes: 0,
            rounds_active: vec![0; lanes],
            last_depth: vec![0; lanes],
            batch,
        }
    }
}

impl<P: Probe> EdgeKernel<P> for MsBfsProgram {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        probe.read(addr_of_index(&self.visit, v as usize), 8);
        probe.branch_cond();
        // ORDERING: Relaxed — `cur[u]` is round-immutable (written only by
        // the pre-round fold, behind the round barrier) and `visit[v]` is
        // likewise advanced only at the fold, so both loads see frozen
        // snapshots; a stale read cannot invent lanes.
        let delta = self.cur[u as usize].load(Ordering::Relaxed)
            & !self.visit[v as usize].load(Ordering::Relaxed);
        if delta == 0 {
            return false;
        }
        // W: write conflict — many frontier vertices push lanes into the
        // same `v` concurrently; one OR merges the masks (§4.3).
        probe.atomic_rmw(addr_of_index(&self.visit_next, v as usize), 8);
        // ORDERING: Relaxed — the fetch_or is a commutative, idempotent
        // mask merge; its consumer (the next fold) runs after the round
        // barrier, and no other data is published through this word.
        let prev = self.visit_next[v as usize].fetch_or(delta, Ordering::Relaxed);
        // Exactly-once activation: the first nonzero merge into an empty
        // word claims `v` for the next frontier.
        prev == 0
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        probe.branch_cond();
        // ORDERING: Relaxed — `cur[u]` and `visit[v]` are round-immutable
        // here (fold-written, see push_update); `visit_next[v]` is `v`'s
        // own cell, single-writer in a pull round and in owner-computes
        // delivery, so plain load/OR/store suffices.
        let delta = self.cur[u as usize].load(Ordering::Relaxed)
            & !self.visit[v as usize].load(Ordering::Relaxed);
        if delta == 0 {
            return false;
        }
        // ORDERING: Relaxed — own-cell read-modify-write, single writer.
        let have = self.visit_next[v as usize].load(Ordering::Relaxed);
        let fresh = delta & !have;
        if fresh == 0 {
            return false;
        }
        probe.write(addr_of_index(&self.visit_next, v as usize), 8);
        // ORDERING: Relaxed — own-cell store; consumed by the next fold.
        self.visit_next[v as usize].store(have | fresh, Ordering::Relaxed);
        true
    }

    fn pull_candidate(&self, v: VertexId, probe: &P) -> bool {
        probe.branch_cond();
        // ORDERING: Relaxed — `visit[v]` is a round-immutable snapshot
        // during edge kernels (only the fold advances it).
        self.visit[v as usize].load(Ordering::Relaxed) != self.full
    }

    fn pull_saturates(&self) -> bool {
        // Unlike single-source BFS, a pull scan must visit *every* frontier
        // neighbor: each may carry lanes the others do not.
        false
    }
}

impl<P: ShardProbe> Program<P> for MsBfsProgram {
    /// One level vector per lane, in [`SourceBatch::sources`] order:
    /// `level[l][v]` is the distance from `sources()[l]` to `v`
    /// ([`UNVISITED`] if unreached), bit-equal to the single-source BFS
    /// level vector.
    type Output = Vec<Vec<u32>>;

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        let mut verts: Vec<VertexId> = Vec::with_capacity(self.batch.len());
        for (l, &s) in self.batch.sources.iter().enumerate() {
            // Seed the arrival word; round 0's fold stamps depth 0 and
            // moves the bit into `visit`/`cur`.
            *self.visit_next[s as usize].get_mut() |= 1u64 << l;
            verts.push(s);
        }
        verts.sort_unstable();
        Frontier::from_vertices(g, verts)
    }

    /// The pre-round fold: move each frontier vertex's arrivals into
    /// `visit`/`cur`, stamp per-lane depths (discovery round = BFS level),
    /// and record the round's active-lane union. Completeness: a vertex has
    /// nonzero `visit_next` iff an edge kernel activated it last round (or
    /// it is a seeded source), and exactly those vertices form `frontier` —
    /// so the fold never misses an arrival.
    fn begin_round(
        &mut self,
        ctx: RoundCtx,
        g: &CsrGraph,
        frontier: &mut Frontier,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) {
        let n = g.num_vertices();
        let round = ctx.round;
        let visit = &self.visit;
        let visit_next = &self.visit_next;
        let cur = &self.cur;
        let depth = &self.depth;
        let union = AtomicU64::new(0);
        engine.vertex_map(g, frontier, probes, |v, probe| {
            let vi = v as usize;
            probe.read(addr_of_index(visit_next, vi), 8);
            // ORDERING: Relaxed — the round barrier has passed and
            // vertex_map hands each frontier vertex to exactly one thread,
            // so every word of `v` read or written here is single-owner.
            let seen = visit[vi].load(Ordering::Relaxed);
            let d = visit_next[vi].load(Ordering::Relaxed) & !seen;
            probe.write(addr_of_index(cur, vi), 8);
            // ORDERING: Relaxed — own-cell stores (single owner, above);
            // the edge kernels that read them run after this fold's
            // barrier, which orders the handoff.
            visit[vi].store(seen | d, Ordering::Relaxed);
            cur[vi].store(d, Ordering::Relaxed);
            visit_next[vi].store(0, Ordering::Relaxed);
            let mut m = d;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                // ORDERING: Relaxed — depth cell (l, v) has exactly one
                // writer ever: lane l discovers v exactly once.
                depth[l * n + vi].store(round, Ordering::Relaxed);
                m &= m - 1;
            }
            // ORDERING: Relaxed — commutative mask union, consumed only
            // after the vertex_map barrier below.
            union.fetch_or(d, Ordering::Relaxed);
        });
        let mask = union.into_inner();
        self.round_lanes = mask;
        for l in 0..self.batch.len() {
            if mask >> l & 1 == 1 {
                self.rounds_active[l] += 1;
                self.last_depth[l] = round;
            }
        }
    }

    fn lanes_active(&self) -> Option<u32> {
        Some(self.round_lanes.count_ones())
    }

    fn source_stats(&self) -> Vec<SourceStat> {
        self.batch
            .sources
            .iter()
            .enumerate()
            .map(|(l, &s)| SourceStat {
                source: s,
                rounds_active: self.rounds_active[l],
                depth: self.last_depth[l],
            })
            .collect()
    }

    fn finish(self, g: &CsrGraph) -> Self::Output {
        let n = g.num_vertices();
        let depth: Vec<u32> = self.depth.into_iter().map(AtomicU32::into_inner).collect();
        depth.chunks(n).map(<[u32]>::to_vec).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::bfs::BfsProgram;
    use crate::partitioned::ExecutionMode;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::Direction;
    use pp_graph::{gen, stats};
    use pp_telemetry::{CountingProbe, NullProbe};

    fn oracle(g: &CsrGraph, s: VertexId) -> Vec<u32> {
        stats::bfs_levels(g, s).0
    }

    #[test]
    fn batch_dedupes_and_preserves_lane_order() {
        let g = gen::path(16);
        let b = SourceBatch::new(&g, &[5, 9, 5, 9, 1]);
        assert_eq!(b.sources(), &[5, 9, 1]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.full_mask(), 0b111);
        let full = SourceBatch::new(&g, &(0..16).collect::<Vec<_>>());
        assert_eq!(full.full_mask(), (1u64 << 16) - 1);
    }

    #[test]
    fn every_lane_is_bit_equal_to_its_single_source_run() {
        let g = gen::rmat(8, 5, 7);
        let sources: Vec<VertexId> = vec![0, 3, 7, 11, 42, 100, 5, 9, 1, 2, 64, 33];
        let expected: Vec<Vec<u32>> = sources.iter().map(|&s| oracle(&g, s)).collect();
        for threads in [1, 2, 8] {
            for policy in [
                DirectionPolicy::Fixed(Direction::Push),
                DirectionPolicy::Fixed(Direction::Pull),
                DirectionPolicy::adaptive(),
            ] {
                for (_, mode) in ExecutionMode::sweep() {
                    let engine = Engine::new(threads);
                    let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                    let run = Runner::new(&engine, &probes)
                        .policy(policy)
                        .mode(mode)
                        .run(&g, MsBfsProgram::new(&g, SourceBatch::new(&g, &sources)));
                    for (l, exp) in expected.iter().enumerate() {
                        assert_eq!(
                            &run.output[l], exp,
                            "lane {l} (source {}) {policy:?} {mode:?} t={threads}",
                            sources[l]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn report_carries_lane_and_source_axes() {
        let g = gen::rmat(8, 5, 7);
        let sources: Vec<VertexId> = vec![0, 17, 99];
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, MsBfsProgram::new(&g, SourceBatch::new(&g, &sources)));
        assert!(r.report.rounds.iter().all(|s| s.lanes_active >= 1));
        assert!(
            r.report.rounds[0].lanes_active == 3,
            "all lanes start active"
        );
        assert_eq!(r.report.sources.len(), 3);
        for (l, stat) in r.report.sources.iter().enumerate() {
            assert_eq!(stat.source, sources[l]);
            assert!(stat.rounds_active >= 1);
            let max_level = r.output[l]
                .iter()
                .filter(|&&d| d != UNVISITED)
                .max()
                .copied()
                .unwrap();
            assert_eq!(stat.depth, max_level, "lane {l} depth is its max level");
            assert_eq!(
                r.output[l][sources[l] as usize], 0,
                "lane {l} reaches its source"
            );
        }
    }

    #[test]
    fn partition_aware_push_stays_zero_rmw() {
        let g = gen::rmat(8, 5, 7);
        let sources: Vec<VertexId> = (0..24).map(|i| i * 7 % 256).collect();
        let engine = Engine::new(4);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let run = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .mode(ExecutionMode::PartitionAware)
            .run(&g, MsBfsProgram::new(&g, SourceBatch::new(&g, &sources)));
        let counts = probes.merged();
        assert_eq!(counts.atomics, 0, "owner-computes mask merge must not RMW");
        assert!(counts.remote_sends > 0, "lanes must cross part boundaries");
        assert!(run.report.remote_updates() > 0);
    }

    #[test]
    fn pull_rounds_are_synchronization_free() {
        let g = gen::rmat(8, 5, 7);
        let engine = Engine::new(2);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, MsBfsProgram::new(&g, SourceBatch::new(&g, &[0, 9, 33])));
        assert_eq!(probes.merged().atomics, 0, "pull MS-BFS issues no RMW");
    }

    #[test]
    fn batched_traversal_touches_far_fewer_edges_than_sequential() {
        let g = gen::rmat(10, 8, 7);
        let n = g.num_vertices() as VertexId;
        let sources: Vec<VertexId> = (0..64).map(|i| i * 13 % n).collect();
        let engine = Engine::new(4);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let policy = DirectionPolicy::Fixed(Direction::Push);
        let batched = Runner::new(&engine, &probes)
            .policy(policy)
            .run(&g, MsBfsProgram::new(&g, SourceBatch::new(&g, &sources)))
            .report
            .edges_traversed();
        let sequential: u64 = sources
            .iter()
            .map(|&s| {
                Runner::new(&engine, &probes)
                    .policy(policy)
                    .run(&g, BfsProgram::new(&g, s))
                    .report
                    .edges_traversed()
            })
            .sum();
        assert!(
            batched * 4 < sequential,
            "batched {batched} vs sequential {sequential}"
        );
    }
}
