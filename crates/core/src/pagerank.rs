//! PageRank in push, pull, and partition-aware push form (§3.1, §4.1, §5).
//!
//! Per power iteration, `new_pr[v] = (1-f)/n + f·Σ_{u∈N(v)} pr[u]/d(u)`.
//! The push variant scatters `f·pr[v]/d(v)` into every neighbor's
//! accumulator — a float write conflict the paper resolves with locks (no
//! CPU float atomics, §4.1); we also provide the CAS-loop emulation. The
//! pull variant gathers from neighbors into the thread-owned cell: no
//! synchronization at all. Partition-aware push (§5, Algorithm 8) splits
//! every iteration into a local phase (plain writes) and a remote phase
//! (atomics), separated by a barrier.

use pp_graph::{BlockPartition, CsrGraph, PartitionAwareGraph};
use pp_telemetry::{addr_of_index, NullProbe, Probe};
use rayon::prelude::*;

use crate::sync::{AtomicF64, ShardedLocks, SyncSlice};
use crate::Direction;

/// PageRank parameters: `L` power iterations with damping `f` (§3.1).
#[derive(Clone, Copy, Debug)]
pub struct PrOptions {
    /// Number of power iterations `L` (a user parameter per §2.2).
    pub iters: usize,
    /// Damping factor `f`.
    pub damping: f64,
}

impl Default for PrOptions {
    fn default() -> Self {
        Self {
            iters: 20,
            damping: 0.85,
        }
    }
}

/// How the push variant resolves its float write conflicts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushSync {
    /// Sharded locks — the paper's choice (§4.1: `O(Lm)` locks issued).
    Locks,
    /// CAS-loop emulated float atomic (counted as atomics, one per attempt).
    Cas,
}

/// Convenience entry point: runs the chosen direction with the default
/// probe and (for push) CAS-based conflict resolution — the variant the
/// paper's measured implementation uses (Table 1 reports PR push conflicts
/// as atomics; the lock-based alternative stays available via
/// [`pagerank_push`]).
pub fn pagerank(g: &CsrGraph, dir: Direction, opts: &PrOptions) -> Vec<f64> {
    match dir {
        Direction::Push => pagerank_push(g, opts, PushSync::Cas, &NullProbe),
        Direction::Pull => pagerank_pull(g, opts, &NullProbe),
    }
}

/// Sequential reference implementation (used by tests and as the
/// greedy-style baseline in strategy comparisons).
pub fn pagerank_seq(g: &CsrGraph, opts: &PrOptions) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - opts.damping) / n as f64;
    let mut pr = vec![1.0 / n as f64; n];
    let mut new_pr = vec![0.0f64; n];
    for _ in 0..opts.iters {
        new_pr.fill(base);
        for v in g.vertices() {
            let share = opts.damping * pr[v as usize] / g.degree(v).max(1) as f64;
            for &u in g.neighbors(v) {
                new_pr[u as usize] += share;
            }
        }
        std::mem::swap(&mut pr, &mut new_pr);
    }
    pr
}

/// Pull-based PageRank (Algorithm 1, grey "pulling" path): each thread
/// updates only vertices it owns — zero atomics, zero locks (§4.1), at the
/// price of gathering each neighbor's rank *and* degree (§7.3).
pub fn pagerank_pull<P: Probe>(g: &CsrGraph, opts: &PrOptions, probe: &P) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - opts.damping) / n as f64;
    let mut pr = vec![1.0 / n as f64; n];
    let mut new_pr = vec![0.0f64; n];
    let part = BlockPartition::new(n, rayon::current_num_threads().max(1));
    let offsets = g.offsets();

    for _ in 0..opts.iters {
        {
            let pr_ref = &pr;
            let out = SyncSlice::new(&mut new_pr);
            (0..part.num_parts()).into_par_iter().for_each(|t| {
                for v in part.range(t) {
                    let mut acc = 0.0;
                    for &u in g.neighbors(v) {
                        // R: read the neighbor's rank and degree (two cells;
                        // pulling must fetch both, §7.3).
                        probe.read(addr_of_index(pr_ref, u as usize), 8);
                        probe.read(addr_of_index(offsets, u as usize), 8);
                        probe.branch_cond();
                        let d = (offsets[u as usize + 1] - offsets[u as usize]) as f64;
                        acc += pr_ref[u as usize] / d;
                    }
                    // Owned write: t == t[v], no conflict possible (§3.8).
                    probe.write(out.addr(v as usize), 8);
                    // SAFETY: v lies in this task's partition range; ranges
                    // are disjoint across tasks.
                    unsafe { out.write(v as usize, base + opts.damping * acc) };
                }
            });
        }
        std::mem::swap(&mut pr, &mut new_pr);
    }
    pr
}

/// Push-based PageRank (Algorithm 1, "pushing" path): every edge scatter is
/// a float write conflict resolved by `sync` (§4.1).
pub fn pagerank_push<P: Probe>(
    g: &CsrGraph,
    opts: &PrOptions,
    sync: PushSync,
    probe: &P,
) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let base = (1.0 - opts.damping) / n as f64;
    let mut pr = vec![1.0 / n as f64; n];
    let mut new_pr = vec![0.0f64; n];
    let part = BlockPartition::new(n, rayon::current_num_threads().max(1));
    let locks = ShardedLocks::new(1024);

    for _ in 0..opts.iters {
        new_pr.fill(base);
        {
            let pr_ref = &pr;
            let atomics = AtomicF64::from_mut_slice(&mut new_pr);
            (0..part.num_parts()).into_par_iter().for_each(|t| {
                for v in part.range(t) {
                    let d = g.degree(v);
                    if d == 0 {
                        continue;
                    }
                    probe.read(addr_of_index(pr_ref, v as usize), 8);
                    let share = opts.damping * pr_ref[v as usize] / d as f64;
                    for &u in g.neighbors(v) {
                        probe.branch_cond();
                        // W(f): float write conflict on new_pr[u] (§4.1).
                        match sync {
                            PushSync::Locks => {
                                probe.lock();
                                probe.branch_uncond();
                                probe.write(addr_of_index_atomic(atomics, u as usize), 8);
                                locks.with(u as usize, || {
                                    let cell = &atomics[u as usize];
                                    cell.store(cell.load() + share);
                                });
                            }
                            PushSync::Cas => {
                                let attempts = atomics[u as usize].fetch_add(share);
                                probe.branch_uncond();
                                for _ in 0..attempts {
                                    probe.atomic_rmw(addr_of_index_atomic(atomics, u as usize), 8);
                                }
                            }
                        }
                    }
                }
            });
        }
        std::mem::swap(&mut pr, &mut new_pr);
    }
    pr
}

/// Partition-aware push PageRank (§5, Algorithm 8). Phase 1 updates local
/// neighbors with plain writes; a barrier; phase 2 updates remote neighbors
/// with synchronization. The atomic count drops from `2m` to the number of
/// cut arcs.
pub fn pagerank_push_pa<P: Probe>(
    g: &CsrGraph,
    pa: &PartitionAwareGraph<'_>,
    opts: &PrOptions,
    sync: PushSync,
    probe: &P,
) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    assert_eq!(pa.num_vertices(), n, "PA representation mismatch");
    let part = pa.partition();
    let base = (1.0 - opts.damping) / n as f64;
    let mut pr = vec![1.0 / n as f64; n];
    let mut new_pr = vec![0.0f64; n];
    let locks = ShardedLocks::new(1024);

    for _ in 0..opts.iters {
        new_pr.fill(base);
        {
            let pr_ref = &pr;
            // Phase 1: local updates. Each task writes only cells inside its
            // own partition (u is a *local* neighbor, so t[u] == t[v] == t) —
            // plain writes, no conflicts (Algorithm 8 lines 6-8).
            let out = SyncSlice::new(&mut new_pr);
            (0..part.num_parts()).into_par_iter().for_each(|t| {
                for v in part.range(t) {
                    let d = pa.degree(v);
                    if d == 0 {
                        continue;
                    }
                    probe.read(addr_of_index(pr_ref, v as usize), 8);
                    let share = opts.damping * pr_ref[v as usize] / d as f64;
                    for &u in pa.local_neighbors(v) {
                        probe.branch_cond();
                        probe.write(out.addr(u as usize), 8);
                        // SAFETY: u is owned by this task's partition.
                        unsafe { out.write(u as usize, out.read(u as usize) + share) };
                    }
                }
            });
            // The lightweight barrier of Algorithm 8 line 10 (implicit in the
            // join of the parallel phase; surfaced to the probe).
            probe.barrier();
            // Phase 2: remote updates with synchronization (lines 12-14).
            let atomics = AtomicF64::from_mut_slice(&mut new_pr);
            (0..part.num_parts()).into_par_iter().for_each(|t| {
                for v in part.range(t) {
                    let d = pa.degree(v);
                    if d == 0 {
                        continue;
                    }
                    probe.read(addr_of_index(pr_ref, v as usize), 8);
                    let share = opts.damping * pr_ref[v as usize] / d as f64;
                    for half in pa.remote_neighbors(v) {
                        for &u in half {
                            probe.branch_cond();
                            let addr = addr_of_index_atomic(atomics, u as usize);
                            match sync {
                                PushSync::Locks => {
                                    probe.lock();
                                    probe.branch_uncond();
                                    probe.write(addr, 8);
                                    locks.with(u as usize, || {
                                        let cell = &atomics[u as usize];
                                        cell.store(cell.load() + share);
                                    });
                                }
                                PushSync::Cas => {
                                    let attempts = atomics[u as usize].fetch_add(share);
                                    probe.branch_uncond();
                                    for _ in 0..attempts {
                                        probe.atomic_rmw(addr, 8);
                                    }
                                }
                            }
                        }
                    }
                }
            });
        }
        std::mem::swap(&mut pr, &mut new_pr);
    }
    pr
}

#[inline]
fn addr_of_index_atomic(slice: &[AtomicF64], i: usize) -> usize {
    slice.as_ptr() as usize + i * std::mem::size_of::<AtomicF64>()
}

/// L1 distance between two rank vectors (test/convergence helper).
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_graph::{gen, PartitionAwareGraph};
    use pp_telemetry::CountingProbe;

    fn opts() -> PrOptions {
        PrOptions {
            iters: 15,
            damping: 0.85,
        }
    }

    #[test]
    fn push_and_pull_agree_with_sequential() {
        for g in [gen::cycle(50), gen::star(40), gen::rmat(8, 4, 3)] {
            let reference = pagerank_seq(&g, &opts());
            for dir in Direction::BOTH {
                let r = pagerank(&g, dir, &opts());
                assert!(
                    l1_distance(&reference, &r) < 1e-10,
                    "{dir:?} diverges from sequential"
                );
            }
        }
    }

    #[test]
    fn cas_variant_matches_lock_variant() {
        let g = gen::rmat(9, 6, 1);
        let a = pagerank_push(&g, &opts(), PushSync::Locks, &NullProbe);
        let b = pagerank_push(&g, &opts(), PushSync::Cas, &NullProbe);
        assert!(l1_distance(&a, &b) < 1e-10);
    }

    #[test]
    fn partition_aware_matches_plain_push() {
        let g = gen::rmat(8, 6, 2);
        let pa = PartitionAwareGraph::new(&g, BlockPartition::new(g.num_vertices(), 4));
        let plain = pagerank_push(&g, &opts(), PushSync::Locks, &NullProbe);
        let aware = pagerank_push_pa(&g, &pa, &opts(), PushSync::Locks, &NullProbe);
        assert!(l1_distance(&plain, &aware) < 1e-10);
    }

    #[test]
    fn cycle_has_uniform_ranks() {
        let g = gen::cycle(64);
        let r = pagerank(&g, Direction::Pull, &opts());
        for &x in &r {
            assert!((x - 1.0 / 64.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_damping_gives_uniform_distribution() {
        let g = gen::star(10);
        let r = pagerank(
            &g,
            Direction::Push,
            &PrOptions {
                iters: 5,
                damping: 0.0,
            },
        );
        for &x in &r {
            assert!((x - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn star_center_dominates() {
        let g = gen::star(30);
        let r = pagerank(&g, Direction::Pull, &opts());
        assert!(r[0] > 5.0 * r[1]);
        // Rank mass conserved: no dangling vertices in a star.
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pull_issues_no_sync_push_issues_locks() {
        // §4.1 atomics/locks: pull requires none; push issues O(Lm) locks.
        let g = gen::rmat(7, 4, 9);
        let opts = PrOptions {
            iters: 3,
            damping: 0.85,
        };

        let probe = CountingProbe::new();
        pagerank_pull(&g, &opts, &probe);
        let pull = probe.counts();
        assert_eq!(pull.atomics, 0);
        assert_eq!(pull.locks, 0);
        assert!(pull.reads > 0);

        let probe = CountingProbe::new();
        pagerank_push(&g, &opts, PushSync::Locks, &probe);
        let push = probe.counts();
        assert_eq!(push.locks as usize, opts.iters * g.num_arcs());
        assert_eq!(push.atomics, 0);

        let probe = CountingProbe::new();
        pagerank_push(&g, &opts, PushSync::Cas, &probe);
        let push_cas = probe.counts();
        assert!(push_cas.atomics as usize >= opts.iters * g.num_arcs());
        assert_eq!(push_cas.locks, 0);
    }

    #[test]
    fn pa_reduces_sync_to_cut_arcs() {
        // §5: with PA the atomic count is bounded by the remote arcs.
        let g = gen::rmat(8, 4, 11);
        let part = BlockPartition::new(g.num_vertices(), 4);
        let pa = PartitionAwareGraph::new(&g, part);
        let opts = PrOptions {
            iters: 2,
            damping: 0.85,
        };
        let probe = CountingProbe::new();
        pagerank_push_pa(&g, &pa, &opts, PushSync::Locks, &probe);
        let c = probe.counts();
        assert_eq!(c.locks as usize, opts.iters * pa.num_remote_arcs());
        assert!(
            (c.locks as usize) < opts.iters * g.num_arcs(),
            "PA must lock less than plain push"
        );
        assert_eq!(c.barriers as usize, opts.iters);
    }

    #[test]
    fn empty_graph_yields_empty_ranks() {
        let g = pp_graph::GraphBuilder::undirected(0).build();
        assert!(pagerank(&g, Direction::Push, &opts()).is_empty());
        assert!(pagerank(&g, Direction::Pull, &opts()).is_empty());
    }

    #[test]
    fn pull_writes_exactly_n_per_iteration() {
        let g = gen::cycle(32);
        let opts = PrOptions {
            iters: 4,
            damping: 0.85,
        };
        let probe = CountingProbe::new();
        pagerank_pull(&g, &opts, &probe);
        assert_eq!(probe.counts().writes as usize, 4 * 32);
    }
}
