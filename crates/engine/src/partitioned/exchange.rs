//! The owner-computes push round (§5): traversal phase, exchange barrier,
//! delivery phase.
//!
//! **Traversal.** The frontier is bucketed by owning part; each part is one
//! schedulable unit (parts are claimed dynamically, heaviest first, using
//! O(1) degrees as the weight — the partitioned analogue of
//! [`crate::ops`]' degree-aware chunking). The worker holding part `t`
//! walks its frontier vertices' *local* runs (sub-slices of the CSR rows,
//! cut by [`PartitionAwareGraph::split`]) applying
//! [`EdgeKernel::apply_owned`] — plain writes, since both endpoints belong
//! to `t` — and buffers every *remote* entry into the
//! [`ExchangeBuffers`], counting one [`pp_telemetry::Probe::remote_send`]
//! where the atomic engine would have counted a CAS.
//!
//! **Delivery.** After the barrier (one [`pp_telemetry::Probe::barrier`]
//! event per round), owners drain their inbound columns — heaviest backlog
//! first — and apply each buffered update with the same `apply_owned`
//! kernel. No path in either phase issues an atomic RMW: single-writer
//! ownership is the synchronization.
//!
//! All per-round working memory (owner buckets, part weights, schedule
//! orders, activation slots) lives in a crate-private `Scratch` arena
//! owned by the run's [`super::PaContext`], so steady-state rounds
//! allocate only for the produced frontier itself — matching the exchange
//! buffers' keep-capacity discipline.

use std::cell::UnsafeCell;

use pp_graph::{PartitionAwareGraph, VertexId, Weight};

use crate::frontier::Frontier;
use crate::ops::{EdgeKernel, Engine, GRAIN};
use crate::pool::Pool;
use crate::probes::{ProbeShards, ShardProbe};
use crate::race;

use super::buffers::{ExchangeBuffers, Update};

/// Telemetry of one partition-aware push round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PaRoundStats {
    /// Updates routed through the exchange (the round's would-be atomics).
    pub remote_updates: u64,
    /// Largest single owner's inbound backlog at the exchange barrier —
    /// the skew a per-owner rebalancer would act on.
    pub buffer_peak: u64,
}

/// Reusable per-round working memory: owner buckets, part weights,
/// schedule orders, and the per-phase activation slots. Everything keeps
/// its capacity across rounds.
pub(crate) struct Scratch {
    parts: usize,
    /// Frontier vertices bucketed by owning part.
    per_part: Vec<Vec<VertexId>>,
    /// Arc weight of each part's bucket.
    weight: Vec<u64>,
    /// Part schedule for the traversal phase (heaviest first).
    order: Vec<usize>,
    /// Owner schedule for the delivery phase (largest backlog first).
    dorder: Vec<usize>,
    /// Per-owner inbound backlog at the barrier.
    inbound: Vec<u64>,
    /// Activation outputs: slot `c` for traversal chunk `c`, slot `p + c`
    /// for delivery chunk `c`. `UnsafeCell` so workers can append into the
    /// retained allocation instead of replacing it.
    slots: Vec<UnsafeCell<Vec<VertexId>>>,
    /// Shadow-write checker for the owner-computes discipline (a ZST
    /// no-op unless the `race-detect` feature is on).
    tracker: race::WriteTracker,
}

// SAFETY: the only interior mutability is `slots`, and each slot index is
// written exclusively by the worker holding its (exactly-once-claimed)
// chunk — the same single-writer discipline as `ExchangeBuffers`.
unsafe impl Sync for Scratch {}

impl Scratch {
    /// Empty scratch for `parts` partition parts over `n` vertices.
    pub(crate) fn new(parts: usize, n: usize) -> Self {
        Self {
            parts,
            per_part: (0..parts).map(|_| Vec::new()).collect(),
            weight: vec![0; parts],
            order: Vec::with_capacity(parts),
            dorder: Vec::with_capacity(parts),
            inbound: Vec::with_capacity(parts),
            slots: (0..2 * parts)
                .map(|_| UnsafeCell::new(Vec::new()))
                .collect(),
            tracker: race::WriteTracker::new(n),
        }
    }

    /// Clears the round-scoped contents, keeping every allocation.
    fn begin_round(&mut self) {
        for bucket in &mut self.per_part {
            bucket.clear();
        }
        self.weight.iter_mut().for_each(|w| *w = 0);
        self.order.clear();
        self.dorder.clear();
        self.inbound.clear();
        // Slots were drained when the previous round's frontier was built.
    }
}

/// Runs `chunks` units either inline on the caller (tiny rounds: a pool
/// handshake costs more than the work) or fanned out over the pool.
fn run_units(pool: &Pool, inline: bool, chunks: usize, f: &(dyn Fn(usize, usize) + Sync)) {
    if inline {
        for c in 0..chunks {
            f(0, c);
        }
    } else {
        pool.run(chunks, f);
    }
}

/// Calls `f(v, w)` for each target `v` of a row slice with its weight `w`
/// from the parallel weight slice (1 on an unweighted graph).
#[inline(always)]
fn for_each_arc(
    targets: &[VertexId],
    weights: Option<&[Weight]>,
    f: &mut impl FnMut(VertexId, Weight),
) {
    match weights {
        Some(ws) => targets.iter().zip(ws).for_each(|(&v, &w)| f(v, w)),
        None => targets.iter().for_each(|&v| f(v, 1)),
    }
}

/// One owner-computes push round over the partition-aware split. Returns
/// the activated vertices (duplicate-free, ascending) plus the round's
/// exchange telemetry.
pub(crate) fn pa_push_round<P: ShardProbe, K: EdgeKernel<P>>(
    engine: &Engine,
    pa: &PartitionAwareGraph<'_>,
    buffers: &mut ExchangeBuffers,
    scratch: &mut Scratch,
    frontier: &mut Frontier,
    kernel: &K,
    probes: &ProbeShards<P>,
) -> (Vec<VertexId>, PaRoundStats) {
    let part = pa.partition();
    let p = part.num_parts();
    debug_assert_eq!(buffers.parts(), p);
    debug_assert_eq!(scratch.parts, p);
    scratch.begin_round();

    // Bucket the frontier by owner, weighing each part by its incident
    // arcs (degree + 1 per vertex, all O(1) reads).
    let mut total_weight = 0u64;
    for &u in frontier.vertices() {
        let t = part.owner(u);
        scratch.per_part[t].push(u);
        let w = (pa.degree(u) + 1) as u64;
        scratch.weight[t] += w;
        total_weight += w;
    }
    let inline = total_weight <= GRAIN || engine.threads() == 1;

    // Heaviest part first: dynamic claiming then keeps the stragglers off
    // the critical path.
    scratch.order.extend(0..p);
    let weight = &scratch.weight;
    scratch.order.sort_by_key(|&t| std::cmp::Reverse(weight[t]));

    let g = pa.graph();
    let weighted = g.is_weighted();
    let bufref: &ExchangeBuffers = buffers;
    scratch.tracker.advance_phase();
    {
        let sc: &Scratch = scratch;
        run_units(engine.pool(), inline, p, &|worker, c| {
            let t = sc.order[c];
            let probe = probes.shard(worker);
            // Scope this thread's plain writes to part `t`'s owned range
            // for the shadow checker (no-op unless `race-detect` is on).
            let _scope = sc.tracker.scope(t, part.range(t));
            // SAFETY: chunk `c` is claimed exactly once, making this
            // worker the sole user of slot `c`.
            let active = unsafe { &mut *sc.slots[c].get() };
            for &u in &sc.per_part[t] {
                // Both endpoints owned by `t`: plain-write apply.
                let mut local = |v: VertexId, w: Weight| {
                    race::note_state_write(v);
                    if kernel.apply_owned(v, u, w, probe) {
                        active.push(v);
                    }
                };
                // Foreign-owned: buffer for the owner. One send event
                // where the atomic engine would have counted a CAS.
                let mut send = |v: VertexId, w: Weight| {
                    // SAFETY: part `t` is claimed by exactly one worker
                    // this phase, making it the sole writer of row `t`.
                    let addr =
                        unsafe { bufref.push(t, part.owner(v), Update { src: u, dst: v, w }) };
                    probe.remote_send(addr, std::mem::size_of::<Update>());
                };
                // The local run, then the remote prefix and suffix, each in
                // row order: the exchange sees one fixed update sequence.
                let (prefix, owned, suffix) = pa.split(u, g.neighbors(u));
                let ws = weighted.then(|| pa.split(u, g.neighbor_weights(u)));
                for_each_arc(owned, ws.map(|w| w.1), &mut local);
                for_each_arc(prefix, ws.map(|w| w.0), &mut send);
                for_each_arc(suffix, ws.map(|w| w.2), &mut send);
            }
        });
    }

    // Exchange barrier: traversal is complete on every part before any
    // owner applies inbound updates (§5's phase separation).
    probes.shard(0).barrier();
    // SAFETY: no worker is pushing or draining between the two pool rounds.
    scratch
        .inbound
        .extend((0..p).map(|o| unsafe { bufref.inbound_len(o) }));
    let stats = PaRoundStats {
        remote_updates: scratch.inbound.iter().sum(),
        buffer_peak: scratch.inbound.iter().copied().max().unwrap_or(0),
    };

    // Delivery: owners drain their columns, largest backlog first.
    scratch.dorder.extend(0..p);
    let inbound = &scratch.inbound;
    scratch
        .dorder
        .sort_by_key(|&o| std::cmp::Reverse(inbound[o]));
    let inline_delivery = stats.remote_updates <= GRAIN || engine.threads() == 1;
    scratch.tracker.advance_phase();
    {
        let sc: &Scratch = scratch;
        run_units(engine.pool(), inline_delivery, p, &|worker, c| {
            let o = sc.dorder[c];
            let probe = probes.shard(worker);
            // Scope this thread's plain writes to owner `o`'s range for
            // the shadow checker (no-op unless `race-detect` is on).
            let _scope = sc.tracker.scope(o, part.range(o));
            // SAFETY: owner `o` is claimed by exactly one worker this
            // phase; only it drains column `o`, writes part-`o` state, and
            // appends to slot `p + c`.
            unsafe {
                let active = &mut *sc.slots[p + c].get();
                bufref.drain_inbound(o, |up| {
                    race::note_state_write(up.dst);
                    if kernel.apply_owned(up.dst, up.src, up.w, probe) {
                        active.push(up.dst);
                    }
                });
            }
        });
    }

    // Owner-computes applies may report a vertex active once per inbound
    // edge (the pull-side kernels are allowed to), and the two phases can
    // both report it — fold unconditionally. Draining the slots leaves
    // their capacity in the arena for the next round.
    let mut active = Vec::new();
    for slot in &mut scratch.slots {
        active.append(slot.get_mut());
    }
    active.sort_unstable();
    active.dedup();
    (active, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::Frontier;
    use pp_graph::{gen, BlockPartition};
    use pp_telemetry::Probe;
    use pp_telemetry::{CountingProbe, NullProbe};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// Reachability kernel with pull-side own-cell writes (the shape every
    /// Program's pull half has).
    struct MarkKernel<'a> {
        mark: &'a [AtomicU32],
    }

    impl<P: Probe> EdgeKernel<P> for MarkKernel<'_> {
        fn push_update(&self, _u: VertexId, v: VertexId, _w: u32, probe: &P) -> bool {
            probe.atomic_rmw(0, 4);
            self.mark[v as usize]
                .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        }

        fn pull_gather(&self, v: VertexId, _u: VertexId, _w: u32, probe: &P) -> bool {
            probe.write(0, 4);
            self.mark[v as usize].store(1, Ordering::Relaxed);
            true
        }

        fn pull_candidate(&self, v: VertexId, _probe: &P) -> bool {
            self.mark[v as usize].load(Ordering::Relaxed) == 0
        }

        fn pull_saturates(&self) -> bool {
            true
        }
    }

    fn reach_pa(g: &pp_graph::CsrGraph, threads: usize, parts: usize) -> (usize, u64) {
        let engine = Engine::new(threads);
        let probes: ProbeShards<CountingProbe> = ProbeShards::new(engine.threads());
        let pa = PartitionAwareGraph::new(g, BlockPartition::new(g.num_vertices(), parts));
        let n = g.num_vertices();
        let mut buffers = ExchangeBuffers::new(parts);
        let mut scratch = Scratch::new(parts, n);
        let mark: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        mark[0].store(1, Ordering::Relaxed);
        let kernel = MarkKernel { mark: &mark };
        let mut frontier = Frontier::single(g, 0);
        let mut remote_total = 0u64;
        while !frontier.is_empty() {
            let (active, stats) = pa_push_round(
                &engine,
                &pa,
                &mut buffers,
                &mut scratch,
                &mut frontier,
                &kernel,
                &probes,
            );
            remote_total += stats.remote_updates;
            frontier = Frontier::from_vertices(g, active);
        }
        let merged = probes.merged();
        assert_eq!(merged.atomics, 0, "owner-computes push must not CAS");
        assert_eq!(merged.remote_sends, remote_total);
        let reached = mark
            .iter()
            .filter(|m| m.load(Ordering::Relaxed) == 1)
            .count();
        (reached, remote_total)
    }

    #[test]
    fn pa_push_reaches_the_component_for_any_part_count() {
        let g = gen::rmat(8, 6, 3);
        let engine = Engine::new(1);
        let probes: ProbeShards<NullProbe> = ProbeShards::new(1);
        // Atomic-push oracle.
        let n = g.num_vertices();
        let mark: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        mark[0].store(1, Ordering::Relaxed);
        let kernel = MarkKernel { mark: &mark };
        let mut frontier = Frontier::single(&g, 0);
        while !frontier.is_empty() {
            frontier = engine.edge_map(
                &g,
                &mut frontier,
                pp_core::Direction::Push,
                &kernel,
                &probes,
            );
        }
        let expected = mark
            .iter()
            .filter(|m| m.load(Ordering::Relaxed) == 1)
            .count();

        for (threads, parts) in [(1, 1), (1, 4), (2, 2), (2, 4), (4, 4), (2, 7)] {
            let (reached, _) = reach_pa(&g, threads, parts);
            assert_eq!(reached, expected, "t={threads} p={parts}");
        }
    }

    #[test]
    fn single_part_never_buffers_and_multi_part_does() {
        let g = gen::rmat(7, 5, 9);
        let (_, remote_one) = reach_pa(&g, 2, 1);
        assert_eq!(remote_one, 0, "one part owns everything");
        let (_, remote_many) = reach_pa(&g, 2, 4);
        assert!(remote_many > 0, "an RMAT graph must cut across 4 parts");
    }
}
