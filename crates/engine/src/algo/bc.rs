//! Brandes betweenness centrality as a [`Program`] (§3.5, Algorithm 5) —
//! a forward/backward kernel state machine over the per-phase lifecycle,
//! with the forward σ sweep batched over *waves* of up to 64 sources
//! (PR 10, same lane calculus as [`crate::algo::msbfs`]).
//!
//! Sources `0..limit` are processed in waves of [`MAX_LANES`]; within a
//! wave, source `wave_base + l` owns lane bit `l`. The run alternates two
//! kernel families, dispatched on the program's internal forward/backward
//! mode (advanced by [`Program::next_phase`], so the `&self` kernels only
//! ever see settled state):
//!
//! * **Forward** — *one phase per wave* whose rounds are the union BFS
//!   levels, counting shortest-path multiplicities σ per `(vertex, lane)`.
//!   Per-vertex mask words carry lane membership: `visit` (lanes settled),
//!   `cur_mask` (lanes whose frontier the round consumes — written only by
//!   the pre-round fold, hence round-immutable) and `visit_next` (lanes
//!   arriving). Push scatters σ with one FAA per arriving lane and claims
//!   discovery with a mask `fetch_or` (the §4.5 W(i) conflicts, amortized
//!   across the wave); pull gathers every frontier parent's per-lane σ
//!   into owned cells. The fold in `begin_round` also records each lane's
//!   level frontier — the structure the backward walk needs.
//! * **Backward** — per *lane*, one phase per level, deepest first,
//!   folding partial dependencies `δ[v] += σ[v]/σ[w] · (1 + δ[w])` down
//!   that lane's shortest-path DAG. The push side scatters
//!   *floating-point* partials — the conflict class the paper highlights
//!   (§4.9), resolved here with the CAS-loop [`AtomicF64`] (each attempt
//!   counted as an atomic); the pull side reads finished successor cells
//!   and writes only its own δ.
//!
//! Batching fixes the one blemish the single-source program had: its
//! forward pull gate ("still unvisited") was *mutated by the gather*, so
//! the default owner-computes [`EdgeKernel::apply_owned`] would have
//! dropped σ contributions and a hand-written override was required. The
//! batched gate (`cur_mask[u] & !visit[v]`) reads only round-immutable
//! words, so the default pull-delegating apply is correct as-is under
//! [`crate::ExecutionMode::PartitionAware`] — owner-exclusive plain
//! writes, zero RMWs, no override.
//!
//! Push float accumulation reorders, so scores match the sequential
//! Brandes oracle to ε rather than bitwise (pull is deterministic: σ is
//! integral and δ folds in neighbor order into owned cells).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use pp_core::bc::BcOptions;
use pp_core::bfs::UNVISITED;
use pp_core::sync::AtomicF64;
use pp_graph::{CsrGraph, VertexId, Weight};
use pp_telemetry::{addr_of_index, Probe};

use crate::algo::msbfs::MAX_LANES;
use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine};
use crate::probes::{ProbeShards, ShardProbe};
use crate::program::{Program, RoundCtx};

/// Which sweep the kernels currently implement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BcMode {
    /// Batched σ-counting BFS over the wave's lanes.
    Forward,
    /// Dependency accumulation for one lane; `cur` is the *target* level
    /// receiving from the `cur + 1` frontier.
    Backward,
}

/// Brandes BC as a vertex program: a forward/backward kernel state machine
/// whose forward sweeps run [`MAX_LANES`]-wide waves of sources.
pub struct BcProgram {
    /// Number of sources ([`BcOptions::max_sources`]-capped).
    limit: usize,
    n: usize,
    /// First source of the current wave.
    wave_base: usize,
    /// Lanes in the current wave (≤ [`MAX_LANES`]).
    wave_len: usize,
    /// Mask with the wave's `wave_len` low bits set.
    full: u64,
    /// Backward: the lane whose dependencies are being accumulated.
    lane: usize,
    mode: BcMode,
    /// Forward: union levels recorded so far (the level the next fold
    /// stamps); backward: target level.
    cur: u32,
    /// Lanes settled at any consumed level (round-immutable during a
    /// round: only the pre-round fold writes it).
    visit: Vec<AtomicU64>,
    /// Lanes arriving this round (drained by the next fold).
    visit_next: Vec<AtomicU64>,
    /// Lanes whose current frontier contains the vertex (fold-written,
    /// round-immutable — what makes the default owner-computes apply
    /// safe here).
    cur_mask: Vec<AtomicU64>,
    /// Per-`(lane, vertex)` multiplicities, lane-major: `σ_l(v)` is
    /// `sigma[l * n + v]`.
    sigma: Vec<AtomicU64>,
    /// Per-`(lane, vertex)` BFS level, lane-major, `UNVISITED` when the
    /// lane never reaches the vertex.
    level: Vec<AtomicU32>,
    delta: Vec<AtomicF64>,
    /// Accumulated scores across finished lanes.
    scores: Vec<f64>,
    /// The wave's per-lane per-level frontiers, recorded by the forward
    /// folds; `wave_levels[l][r]` is lane `l`'s level-`r` frontier.
    wave_levels: Vec<Vec<Vec<VertexId>>>,
    /// Lanes concurrently in flight this round (forward: wave lanes with
    /// arrivals; backward: 1).
    round_lanes: u32,
}

impl BcProgram {
    /// A program accumulating dependencies from sources `0..limit`.
    pub fn new(g: &CsrGraph, opts: &BcOptions) -> Self {
        let n = g.num_vertices();
        let limit = opts.max_sources.unwrap_or(n).min(n);
        let cap = limit.min(MAX_LANES);
        Self {
            limit,
            n,
            wave_base: 0,
            wave_len: 0,
            full: 0,
            lane: 0,
            mode: BcMode::Forward,
            cur: 0,
            visit: (0..n).map(|_| AtomicU64::new(0)).collect(),
            visit_next: (0..n).map(|_| AtomicU64::new(0)).collect(),
            cur_mask: (0..n).map(|_| AtomicU64::new(0)).collect(),
            sigma: (0..n * cap).map(|_| AtomicU64::new(0)).collect(),
            level: (0..n * cap).map(|_| AtomicU32::new(UNVISITED)).collect(),
            delta: (0..n).map(|_| AtomicF64::new(0.0)).collect(),
            scores: vec![0.0; n],
            wave_levels: (0..cap).map(|_| Vec::new()).collect(),
            round_lanes: 0,
        }
    }

    /// The backward lane's level of `v`.
    #[inline]
    fn lv(&self, v: VertexId) -> u32 {
        // ORDERING: Relaxed — levels are stamped by the forward folds and
        // immutable throughout the backward walk.
        self.level[self.lane * self.n + v as usize].load(Ordering::Relaxed)
    }

    /// The backward contribution of successor `u` to predecessor `v` in
    /// the current lane.
    #[inline]
    fn partial(&self, v: VertexId, u: VertexId) -> f64 {
        let base = self.lane * self.n;
        // ORDERING: Relaxed — σ settled when the wave's forward sweep
        // drained; the backward phases only read it.
        let su = self.sigma[base + u as usize].load(Ordering::Relaxed) as f64;
        self.sigma[base + v as usize].load(Ordering::Relaxed) as f64
            * ((1.0 + self.delta[u as usize].load()) / su)
    }

    /// Seed the wave's sources (lane `l` ↔ source `wave_base + l`) and
    /// hand back their frontier.
    fn seed_wave(&mut self, g: &CsrGraph) -> Frontier {
        self.mode = BcMode::Forward;
        self.cur = 0;
        self.lane = 0;
        let mut sources = Vec::with_capacity(self.wave_len);
        for l in 0..self.wave_len {
            let s = self.wave_base + l;
            *self.visit_next[s].get_mut() |= 1 << l;
            *self.sigma[l * self.n + s].get_mut() = 1;
            sources.push(s as VertexId);
        }
        Frontier::from_vertices(g, sources)
    }

    /// Fold the finished lane's dependencies into the scores and clear δ
    /// for the next lane.
    fn fold_lane_scores<P: ShardProbe>(
        &mut self,
        g: &CsrGraph,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) {
        let s = self.wave_base + self.lane;
        for v in 0..self.n {
            if v != s {
                self.scores[v] += self.delta[v].load();
            }
        }
        let delta = &self.delta;
        engine.map_vertices(g, probes, |v, _| delta[v as usize].store(0.0));
    }

    /// Enter the next lane's backward walk (skipping lanes whose source
    /// reached nothing), or reseed the next wave, or finish.
    fn backward_or_advance<P: ShardProbe>(
        &mut self,
        g: &CsrGraph,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) -> Option<Frontier> {
        while self.lane < self.wave_len {
            let depth = self.wave_levels[self.lane].len();
            if depth > 1 {
                self.mode = BcMode::Backward;
                self.cur = (depth - 2) as u32;
                // Each level list is consumed exactly once per wave (and
                // cleared at the next wave), so hand it to the frontier
                // instead of copying it.
                let lvl = std::mem::take(&mut self.wave_levels[self.lane][depth - 1]);
                return Some(Frontier::from_vertices(g, lvl));
            }
            // Isolated source: nothing to accumulate (δ untouched).
            self.lane += 1;
        }
        self.advance_wave(g, engine, probes)
    }

    /// Reset the wave-scoped state and seed the next wave of sources, or
    /// return `None` when all sources are done.
    fn advance_wave<P: ShardProbe>(
        &mut self,
        g: &CsrGraph,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) -> Option<Frontier> {
        self.wave_base += self.wave_len;
        if self.wave_base >= self.limit {
            return None;
        }
        let prev = self.wave_len;
        self.wave_len = (self.limit - self.wave_base).min(MAX_LANES);
        self.full = full_mask(self.wave_len);
        let n = self.n;
        let (visit, visit_next, cur_mask) = (&self.visit, &self.visit_next, &self.cur_mask);
        let (sigma, level) = (&self.sigma, &self.level);
        engine.map_vertices(g, probes, |v, _| {
            let vi = v as usize;
            // ORDERING: Relaxed — exclusive reseed between waves; the
            // runner's phase barrier orders it against the kernels.
            visit[vi].store(0, Ordering::Relaxed);
            visit_next[vi].store(0, Ordering::Relaxed);
            cur_mask[vi].store(0, Ordering::Relaxed);
            for l in 0..prev {
                sigma[l * n + vi].store(0, Ordering::Relaxed);
                level[l * n + vi].store(UNVISITED, Ordering::Relaxed);
            }
        });
        for per_lane in &mut self.wave_levels {
            per_lane.clear();
        }
        Some(self.seed_wave(g))
    }
}

/// Mask with the `lanes` low bits set.
#[inline]
fn full_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        u64::MAX
    } else {
        (1u64 << lanes) - 1
    }
}

impl<P: Probe> EdgeKernel<P> for BcProgram {
    fn push_update(&self, u: VertexId, v: VertexId, _w: Weight, probe: &P) -> bool {
        match self.mode {
            BcMode::Forward => {
                probe.branch_cond();
                probe.read(addr_of_index(&self.cur_mask, u as usize), 8);
                probe.read(addr_of_index(&self.visit, v as usize), 8);
                // ORDERING: Relaxed — cur_mask and visit are written only
                // by the pre-round fold, so both loads are round-immutable
                // snapshots: every frontier parent of v computes the same
                // per-lane arrival condition.
                let avail = self.cur_mask[u as usize].load(Ordering::Relaxed)
                    & !self.visit[v as usize].load(Ordering::Relaxed);
                if avail == 0 {
                    return false;
                }
                let mut m = avail;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    // W(i): multiplicity scatter, one integer FAA per
                    // arriving lane (§4.5).
                    probe.atomic_rmw(addr_of_index(&self.sigma, l * self.n + v as usize), 8);
                    // ORDERING: Relaxed — σ_l(u) settled at a previous
                    // level; the adds commute across racing parents.
                    let su = self.sigma[l * self.n + u as usize].load(Ordering::Relaxed);
                    self.sigma[l * self.n + v as usize].fetch_add(su, Ordering::Relaxed);
                }
                // W(i): discovery race — one mask fetch_or claims every
                // arriving lane at once (the §4.5 CAS, batched).
                probe.atomic_rmw(addr_of_index(&self.visit_next, v as usize), 8);
                // ORDERING: Relaxed — the OR is commutative; the fold
                // behind the round barrier sees the union.
                let prev = self.visit_next[v as usize].fetch_or(avail, Ordering::Relaxed);
                prev == 0
            }
            BcMode::Backward => {
                probe.branch_cond();
                probe.read(
                    addr_of_index(&self.level, self.lane * self.n + v as usize),
                    4,
                );
                if self.lv(v) == self.cur {
                    // W(f): float write conflict — the CAS-loop emulation,
                    // one atomic per attempt (§4.9).
                    let attempts = self.delta[v as usize].fetch_add(self.partial(v, u));
                    for _ in 0..attempts {
                        probe.atomic_rmw(addr_of_index(&self.delta, v as usize), 8);
                    }
                }
                false
            }
        }
    }

    fn pull_gather(&self, v: VertexId, u: VertexId, _w: Weight, probe: &P) -> bool {
        match self.mode {
            BcMode::Forward => {
                // Own-cell per-lane σ accumulate (§3.8): v gathers from
                // every frontier parent, one thread owns it.
                probe.read(addr_of_index(&self.cur_mask, u as usize), 8);
                probe.read(addr_of_index(&self.visit, v as usize), 8);
                // ORDERING: Relaxed — round-immutable fold-written words.
                let avail = self.cur_mask[u as usize].load(Ordering::Relaxed)
                    & !self.visit[v as usize].load(Ordering::Relaxed);
                if avail == 0 {
                    return false;
                }
                let mut m = avail;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= m - 1;
                    probe.read(addr_of_index(&self.sigma, l * self.n + u as usize), 8);
                    probe.write(addr_of_index(&self.sigma, l * self.n + v as usize), 8);
                    // ORDERING: Relaxed — σ_l(v) is an owned cell: only
                    // v's thread touches it this round, in neighbor order
                    // (what makes pull σ deterministic).
                    let su = self.sigma[l * self.n + u as usize].load(Ordering::Relaxed);
                    let sv = self.sigma[l * self.n + v as usize].load(Ordering::Relaxed);
                    self.sigma[l * self.n + v as usize].store(sv + su, Ordering::Relaxed);
                }
                probe.write(addr_of_index(&self.visit_next, v as usize), 8);
                // ORDERING: Relaxed — own-cell discovery bits, plain
                // load/OR/store; the fold drains them behind the barrier.
                let have = self.visit_next[v as usize].load(Ordering::Relaxed);
                self.visit_next[v as usize].store(have | avail, Ordering::Relaxed);
                avail & !have != 0
            }
            BcMode::Backward => {
                // Pure reads of finished successor cells, own-cell δ write.
                probe.read(addr_of_index(&self.delta, u as usize), 8);
                probe.read(
                    addr_of_index(&self.sigma, self.lane * self.n + u as usize),
                    8,
                );
                let add = self.partial(v, u);
                probe.write(addr_of_index(&self.delta, v as usize), 8);
                self.delta[v as usize].store(self.delta[v as usize].load() + add);
                false
            }
        }
    }

    fn pull_candidate(&self, v: VertexId, probe: &P) -> bool {
        probe.branch_cond();
        match self.mode {
            // ORDERING: Relaxed — visit is round-immutable (fold-written);
            // a vertex every wave lane has settled has nothing to gather.
            BcMode::Forward => self.visit[v as usize].load(Ordering::Relaxed) != self.full,
            BcMode::Backward => self.lv(v) == self.cur,
        }
    }

    // No `apply_owned` override: both sweeps' pull gates read only
    // round-immutable state (`cur_mask`/`visit` masks forward, `level`
    // backward), so the default owner-computes delegate to the
    // already-atomic-free pull side is exact — see the module docs.
}

impl<P: ShardProbe> Program<P> for BcProgram {
    /// Centrality scores (undirected convention: each unordered pair
    /// counted once). The run's phases are, per wave, one forward phase
    /// (rounds = union levels) followed, per lane, by one backward phase
    /// per level, deepest first.
    type Output = Vec<f64>;

    fn initial_frontier(&mut self, g: &CsrGraph) -> Frontier {
        if self.limit == 0 || g.num_vertices() == 0 {
            return Frontier::empty(g.num_vertices());
        }
        self.wave_len = self.limit.min(MAX_LANES);
        self.full = full_mask(self.wave_len);
        self.seed_wave(g)
    }

    fn begin_round(
        &mut self,
        _ctx: RoundCtx,
        _g: &CsrGraph,
        frontier: &mut Frontier,
        _engine: &Engine,
        _probes: &ProbeShards<P>,
    ) {
        if self.mode == BcMode::Backward {
            self.round_lanes = 1;
            return;
        }
        // Fold arrivals into the settled set, freeze the round's frontier
        // masks, stamp per-lane levels and record each lane's level
        // frontier for the backward walk. Runs on settled post-barrier
        // state (`&mut self`, plain `get_mut` access). The round about to
        // run consumes exactly level `cur`'s frontiers.
        let r = self.cur as usize;
        let n = self.n;
        let mut union = 0u64;
        for &v in frontier.vertices() {
            let vi = v as usize;
            let d = *self.visit_next[vi].get_mut() & !*self.visit[vi].get_mut();
            *self.visit_next[vi].get_mut() = 0;
            *self.visit[vi].get_mut() |= d;
            *self.cur_mask[vi].get_mut() = d;
            union |= d;
            let mut m = d;
            while m != 0 {
                let l = m.trailing_zeros() as usize;
                m &= m - 1;
                *self.level[l * n + vi].get_mut() = r as u32;
                // A lane's levels are contiguous (an arrival at r needs a
                // parent at r-1), so at most one new list opens per lane.
                if self.wave_levels[l].len() == r {
                    self.wave_levels[l].push(Vec::new());
                }
                self.wave_levels[l][r].push(v);
            }
        }
        self.round_lanes = union.count_ones();
        self.cur += 1;
    }

    fn lanes_active(&self) -> Option<u32> {
        Some(self.round_lanes)
    }

    fn next_phase(
        &mut self,
        g: &CsrGraph,
        engine: &Engine,
        probes: &ProbeShards<P>,
    ) -> Option<Frontier> {
        match self.mode {
            BcMode::Forward => {
                // Wave forward drained: every lane's level frontiers are
                // recorded; walk the lanes' dependency DAGs in turn.
                self.lane = 0;
                self.backward_or_advance(g, engine, probes)
            }
            BcMode::Backward => {
                if self.cur > 0 {
                    self.cur -= 1;
                    let lvl =
                        std::mem::take(&mut self.wave_levels[self.lane][self.cur as usize + 1]);
                    Some(Frontier::from_vertices(g, lvl))
                } else {
                    self.fold_lane_scores(g, engine, probes);
                    self.lane += 1;
                    self.backward_or_advance(g, engine, probes)
                }
            }
        }
    }

    fn finish(mut self, g: &CsrGraph) -> Vec<f64> {
        // Undirected graphs see each (s, t) pair from both endpoints.
        if !g.is_directed() {
            for x in &mut self.scores {
                *x /= 2.0;
            }
        }
        self.scores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::ExecutionMode;
    use crate::policy::DirectionPolicy;
    use crate::runner::Runner;
    use pp_core::bc::betweenness_seq;
    use pp_core::Direction;
    use pp_graph::gen;
    use pp_telemetry::{CountingProbe, NullProbe};

    fn assert_close(a: &[f64], b: &[f64], tol: f64, ctx: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() < tol * (1.0 + y.abs()),
                "{ctx}: vertex {i}: {x} vs {y}"
            );
        }
    }

    fn policies() -> impl Iterator<Item = DirectionPolicy> {
        DirectionPolicy::sweep().into_iter().map(|(_, p)| p)
    }

    #[test]
    fn matches_brandes_on_random_graphs() {
        for seed in [1, 2] {
            let g = gen::rmat(6, 4, seed);
            let reference = betweenness_seq(&g, None);
            for threads in [1, 4] {
                let engine = Engine::new(threads);
                let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
                for policy in policies() {
                    let r = Runner::new(&engine, &probes)
                        .policy(policy)
                        .run(&g, BcProgram::new(&g, &BcOptions::default()));
                    assert_close(
                        &r.output,
                        &reference,
                        1e-6,
                        &format!("seed {seed} x{threads} {policy:?}"),
                    );
                }
            }
        }
    }

    #[test]
    fn analytic_families() {
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        // Path 0-1-2-3-4: bc = [0, 3, 4, 3, 0].
        let path = gen::path(5);
        for policy in policies() {
            let r = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&path, BcProgram::new(&path, &BcOptions::default()));
            assert_close(&r.output, &[0.0, 3.0, 4.0, 3.0, 0.0], 1e-9, "path");
        }
        // Star K_{1,5}: the center lies on every leaf pair: C(5,2) = 10.
        let star = gen::star(6);
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&star, BcProgram::new(&star, &BcOptions::default()));
        assert!((r.output[0] - 10.0).abs() < 1e-9);
        for &leaf in &r.output[1..] {
            assert!(leaf.abs() < 1e-12);
        }
    }

    #[test]
    fn diamond_splits_multiplicities() {
        // 0-1, 0-2, 1-3, 2-3: two shortest 0→3 paths split the dependency.
        let g = pp_graph::GraphBuilder::undirected(4)
            .edges([(0, 1), (0, 2), (1, 3), (2, 3)])
            .build();
        let reference = betweenness_seq(&g, None);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let r = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, BcProgram::new(&g, &BcOptions::default()));
            assert_close(&r.output, &reference, 1e-9, "diamond");
        }
        assert!((reference[1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn capped_sources_match_the_capped_oracle() {
        let g = gen::rmat(6, 5, 9);
        let opts = BcOptions {
            max_sources: Some(10),
        };
        let reference = betweenness_seq(&g, Some(10));
        let engine = Engine::new(4);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let r = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, BcProgram::new(&g, &opts));
            assert_close(&r.output, &reference, 1e-6, "sampled");
        }
    }

    #[test]
    fn source_count_above_lane_width_spans_waves() {
        // n = 128 > MAX_LANES forces two full waves (plus their backward
        // walks) through the wave-reset path.
        let g = gen::rmat(7, 3, 5);
        let reference = betweenness_seq(&g, None);
        let engine = Engine::new(4);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        for policy in policies() {
            let r = Runner::new(&engine, &probes)
                .policy(policy)
                .run(&g, BcProgram::new(&g, &BcOptions::default()));
            assert_close(&r.output, &reference, 1e-6, "two waves");
        }
        // An off-width cap exercises a short tail wave.
        let opts = BcOptions {
            max_sources: Some(MAX_LANES + 3),
        };
        let reference = betweenness_seq(&g, Some(MAX_LANES + 3));
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&g, BcProgram::new(&g, &opts));
        assert_close(&r.output, &reference, 1e-6, "tail wave");
    }

    #[test]
    fn pull_is_deterministic_across_thread_counts() {
        let g = gen::rmat(6, 4, 7);
        let opts = BcOptions {
            max_sources: Some(12),
        };
        let run = |threads: usize| {
            let engine = Engine::new(threads);
            let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
            Runner::new(&engine, &probes)
                .policy(DirectionPolicy::Fixed(Direction::Pull))
                .run(&g, BcProgram::new(&g, &opts))
                .output
        };
        let one = run(1);
        assert_eq!(one, run(2), "pull BC is bitwise thread-invariant");
        assert_eq!(one, run(8));
    }

    #[test]
    fn phase_structure_per_source_is_forward_then_backward_levels() {
        // Path of 6: from each source the forward phase has `depth` rounds
        // and is followed by `depth - 1` single-round backward phases. A
        // wave of one source must reproduce the single-source structure.
        let g = gen::path(6);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(
                &g,
                BcProgram::new(
                    &g,
                    &BcOptions {
                        max_sources: Some(1),
                    },
                ),
            );
        // Source 0 on a 6-path: the forward phase consumes the six level
        // frontiers {0}..{5}; the backward walk then runs one single-round
        // phase per target level 4, 3, 2, 1, 0.
        assert_eq!(r.report.phases, 6, "1 forward + 5 backward phases");
        assert_eq!(r.report.phase_rounds(0).count(), 6, "forward rounds");
        for p in 1..r.report.phases {
            assert_eq!(r.report.phase_rounds(p).count(), 1, "backward level");
        }
    }

    #[test]
    fn forward_rounds_report_wave_lanes() {
        // Path of 6, all six sources in one wave: every lane is in flight
        // in the seeding round, and the forward rounds carry lane counts.
        let g = gen::path(6);
        let engine = Engine::new(2);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, BcProgram::new(&g, &BcOptions::default()));
        let forward: Vec<u32> = r.report.phase_rounds(0).map(|s| s.lanes_active).collect();
        assert_eq!(forward[0], 6, "all lanes seed in round 0");
        assert!(
            forward.iter().all(|&l| l >= 1),
            "forward rounds carry lane counts: {forward:?}"
        );
        // Backward phases accumulate one lane at a time.
        for p in 1..r.report.phases {
            assert!(r.report.phase_rounds(p).all(|s| s.lanes_active == 1));
        }
    }

    #[test]
    fn push_uses_atomics_pull_and_pa_do_not() {
        let g = gen::rmat(6, 4, 4);
        let engine = Engine::new(4);
        let opts = BcOptions {
            max_sources: Some(4),
        };

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .run(&g, BcProgram::new(&g, &opts));
        let push = probes.merged();
        assert!(
            push.atomics > 0,
            "forward FAA/fetch_or + backward float CAS"
        );

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Pull))
            .run(&g, BcProgram::new(&g, &opts));
        let pull = probes.merged();
        assert_eq!(pull.atomics, 0, "pull BC is synchronization-free");
        assert_eq!(pull.locks, 0);

        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let reference = betweenness_seq(&g, Some(4));
        let run = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::Fixed(Direction::Push))
            .mode(ExecutionMode::PartitionAware)
            .run(&g, BcProgram::new(&g, &opts));
        assert_close(&run.output, &reference, 1e-6, "pa push");
        let pa = probes.merged();
        assert_eq!(pa.atomics, 0, "owner-computes BC push must not CAS");
        assert!(pa.remote_sends > 0);
    }

    #[test]
    fn empty_graph_and_zero_sources() {
        let engine = Engine::new(1);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(engine.threads());
        let empty = pp_graph::GraphBuilder::undirected(0).build();
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(&empty, BcProgram::new(&empty, &BcOptions::default()));
        assert!(r.output.is_empty());
        assert_eq!(r.report.phases, 0);
        let g = gen::path(4);
        let r = Runner::new(&engine, &probes)
            .policy(DirectionPolicy::adaptive())
            .run(
                &g,
                BcProgram::new(
                    &g,
                    &BcOptions {
                        max_sources: Some(0),
                    },
                ),
            );
        assert_eq!(r.output, vec![0.0; 4]);
        assert_eq!(r.report.phases, 0);
    }
}
