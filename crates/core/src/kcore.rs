//! k-core decomposition in push and pull form.
//!
//! The coreness of a vertex `v` is the largest `k` such that `v` survives in
//! the maximal subgraph where every vertex has degree ≥ `k`. The parallel
//! peeling algorithm removes vertices level by level (all vertices of
//! induced degree ≤ k receive coreness k), which makes it a member of the
//! paper's "iterative schemes" class (§3.8) with a textbook push–pull
//! choice inside each peel sub-round:
//!
//! * **push**: every vertex peeled this sub-round *scatters* a decrement to
//!   the shared induced-degree counter of each live neighbor (`FAA`, §2.3) —
//!   write conflicts on integers, `O(m)` total decrements, work proportional
//!   to the peeled frontier;
//! * **pull**: every live vertex *recounts* its live neighbors from scratch
//!   each sub-round — no synchronization at all, but `O(m)` reads per
//!   sub-round, the §4.9 communication-for-synchronization trade.
//!
//! Both produce the same coreness array as the sequential
//! Batagelj–Zaveršnik bucket peeling ([`coreness_seq`]), which tests use as
//! the reference.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use pp_graph::{BlockPartition, CsrGraph, VertexId};
use pp_telemetry::{addr_of_index, NullProbe, Probe};
use rayon::prelude::*;

use crate::Direction;

/// Result of a k-core decomposition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KCoreResult {
    /// Per-vertex coreness (core number).
    pub coreness: Vec<u32>,
    /// The degeneracy of the graph: the maximum coreness.
    pub degeneracy: u32,
    /// Total peel sub-rounds executed (one per frontier wave; Fig.-1-style
    /// iteration counts for the strategy analysis).
    pub rounds: usize,
}

impl KCoreResult {
    /// Vertices belonging to the `k`-core (coreness ≥ k).
    pub fn core_members(&self, k: u32) -> Vec<VertexId> {
        self.coreness
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c >= k)
            .map(|(v, _)| v as VertexId)
            .collect()
    }
}

/// k-core decomposition with the default probe.
pub fn kcore(g: &CsrGraph, dir: Direction) -> KCoreResult {
    kcore_probed(g, dir, &NullProbe)
}

/// Instrumented parallel peeling.
pub fn kcore_probed<P: Probe>(g: &CsrGraph, dir: Direction, probe: &P) -> KCoreResult {
    let n = g.num_vertices();
    if n == 0 {
        return KCoreResult {
            coreness: Vec::new(),
            degeneracy: 0,
            rounds: 0,
        };
    }
    // deg[v]: induced degree among still-live vertices. alive[v]: u32 flag so
    // both directions share one layout (coreness doubles as the tombstone —
    // u32::MAX means live).
    let deg: Vec<AtomicU32> = g
        .vertices()
        .map(|v| AtomicU32::new(g.degree(v) as u32))
        .collect();
    let coreness: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let remaining = AtomicUsize::new(n);
    let part = BlockPartition::new(n, rayon::current_num_threads().max(1));
    let mut rounds = 0usize;
    let mut k = 0u32;

    while remaining.load(Ordering::Relaxed) > 0 {
        // Seed frontier for level k: live vertices whose induced degree
        // already dropped to ≤ k.
        let mut frontier: Vec<VertexId> = (0..part.num_parts())
            .into_par_iter()
            .flat_map_iter(|t| {
                part.range(t).filter(|&v| {
                    coreness[v as usize].load(Ordering::Relaxed) == u32::MAX
                        && deg[v as usize].load(Ordering::Relaxed) <= k
                })
            })
            .collect();

        while !frontier.is_empty() {
            rounds += 1;
            // Peel the whole frontier at coreness k.
            frontier.par_iter().for_each(|&v| {
                coreness[v as usize].store(k, Ordering::Relaxed);
            });
            remaining.fetch_sub(frontier.len(), Ordering::Relaxed);

            match dir {
                Direction::Push => {
                    // Scatter decrements to live neighbors; a neighbor whose
                    // counter crosses the k threshold under *this* FAA joins
                    // the next wave (exactly-once because FAA returns the
                    // previous value).
                    let next: Vec<VertexId> = frontier
                        .par_iter()
                        .fold(Vec::new, |mut my_f, &v| {
                            for &u in g.neighbors(v) {
                                probe.branch_cond();
                                if coreness[u as usize].load(Ordering::Relaxed) != u32::MAX {
                                    continue;
                                }
                                // W(i): FAA on the shared degree counter.
                                probe.atomic_rmw(addr_of_index(&deg, u as usize), 4);
                                let prev = deg[u as usize].fetch_sub(1, Ordering::AcqRel);
                                if prev == k + 1 {
                                    my_f.push(u);
                                }
                            }
                            my_f
                        })
                        .reduce(Vec::new, |mut a, mut b| {
                            a.append(&mut b);
                            a
                        });
                    // A vertex can be pushed into `next` and then peeled by a
                    // racing decrement path only through the prev==k+1 gate,
                    // which fires once; dedup is still cheap insurance against
                    // multi-edge builders.
                    frontier = next;
                    frontier.sort_unstable();
                    frontier.dedup();
                    frontier.retain(|&v| coreness[v as usize].load(Ordering::Relaxed) == u32::MAX);
                }
                Direction::Pull => {
                    // Every live vertex recounts its live neighbors. No
                    // writes to remote state; each thread refreshes only the
                    // counters of vertices it owns.
                    let next: Vec<VertexId> = (0..part.num_parts())
                        .into_par_iter()
                        .fold(Vec::new, |mut my_f, t| {
                            for v in part.range(t) {
                                if coreness[v as usize].load(Ordering::Relaxed) != u32::MAX {
                                    continue;
                                }
                                let mut live = 0u32;
                                for &u in g.neighbors(v) {
                                    // R: read-only conflict on the tombstone.
                                    probe.read(addr_of_index(&coreness, u as usize), 4);
                                    probe.branch_cond();
                                    if coreness[u as usize].load(Ordering::Relaxed) == u32::MAX {
                                        live += 1;
                                    }
                                }
                                probe.write(addr_of_index(&deg, v as usize), 4);
                                deg[v as usize].store(live, Ordering::Relaxed);
                                if live <= k {
                                    my_f.push(v);
                                }
                            }
                            my_f
                        })
                        .reduce(Vec::new, |mut a, mut b| {
                            a.append(&mut b);
                            a
                        });
                    frontier = next;
                }
            }
        }
        k += 1;
    }

    let coreness: Vec<u32> = coreness.into_iter().map(AtomicU32::into_inner).collect();
    let degeneracy = coreness.iter().copied().max().unwrap_or(0);
    KCoreResult {
        coreness,
        degeneracy,
        rounds,
    }
}

/// Partition-aware push k-core (the §5 PA strategy applied to peeling,
/// exactly as Algorithm 8 applies it to PageRank).
///
/// Each peel wave splits into two phases separated by a barrier: frontier
/// vertices first decrement their *local* neighbors' counters with plain
/// stores (the owning thread is the only writer of its partition's cells),
/// then decrement *remote* neighbors with FAAs. The atomic count drops from
/// every decrement to only the cut-crossing ones — between 0 (each thread
/// owns whole components) and all of them (bipartite graph with ownership
/// split along the sides, the §5 worst case).
pub fn kcore_push_pa<P: Probe>(
    g: &CsrGraph,
    pa: &pp_graph::PartitionAwareGraph<'_>,
    probe: &P,
) -> KCoreResult {
    let n = g.num_vertices();
    assert_eq!(pa.num_vertices(), n, "PA representation mismatch");
    if n == 0 {
        return KCoreResult {
            coreness: Vec::new(),
            degeneracy: 0,
            rounds: 0,
        };
    }
    let part = pa.partition();
    let deg: Vec<AtomicU32> = g
        .vertices()
        .map(|v| AtomicU32::new(g.degree(v) as u32))
        .collect();
    let coreness: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
    let mut remaining = n;
    let mut rounds = 0usize;
    let mut k = 0u32;

    while remaining > 0 {
        let mut frontier: Vec<VertexId> = (0..part.num_parts())
            .into_par_iter()
            .flat_map_iter(|t| {
                part.range(t).filter(|&v| {
                    coreness[v as usize].load(Ordering::Relaxed) == u32::MAX
                        && deg[v as usize].load(Ordering::Relaxed) <= k
                })
            })
            .collect();

        while !frontier.is_empty() {
            rounds += 1;
            frontier.par_iter().for_each(|&v| {
                coreness[v as usize].store(k, Ordering::Relaxed);
            });
            remaining -= frontier.len();

            // Phase 1: local decrements. Frontier vertices grouped by owner;
            // every touched counter belongs to the executing thread's
            // partition, so a load/store pair suffices (counted as a plain
            // write, not an atomic).
            let frontier_ref = &frontier;
            let local_next: Vec<VertexId> = (0..part.num_parts())
                .into_par_iter()
                .fold(Vec::new, |mut my_f, t| {
                    for &v in frontier_ref.iter().filter(|&&v| part.owner(v) == t) {
                        for &u in pa.local_neighbors(v) {
                            probe.branch_cond();
                            if coreness[u as usize].load(Ordering::Relaxed) != u32::MAX {
                                continue;
                            }
                            probe.write(addr_of_index(&deg, u as usize), 4);
                            let prev = deg[u as usize].load(Ordering::Relaxed);
                            deg[u as usize].store(prev - 1, Ordering::Relaxed);
                            if prev == k + 1 {
                                my_f.push(u);
                            }
                        }
                    }
                    my_f
                })
                .reduce(Vec::new, |mut a, mut b| {
                    a.append(&mut b);
                    a
                });
            probe.barrier();

            // Phase 2: remote decrements with FAA.
            let remote_next: Vec<VertexId> = (0..part.num_parts())
                .into_par_iter()
                .fold(Vec::new, |mut my_f, t| {
                    for &v in frontier_ref.iter().filter(|&&v| part.owner(v) == t) {
                        for half in pa.remote_neighbors(v) {
                            for &u in half {
                                probe.branch_cond();
                                if coreness[u as usize].load(Ordering::Relaxed) != u32::MAX {
                                    continue;
                                }
                                probe.atomic_rmw(addr_of_index(&deg, u as usize), 4);
                                let prev = deg[u as usize].fetch_sub(1, Ordering::AcqRel);
                                if prev == k + 1 {
                                    my_f.push(u);
                                }
                            }
                        }
                    }
                    my_f
                })
                .reduce(Vec::new, |mut a, mut b| {
                    a.append(&mut b);
                    a
                });

            frontier = local_next;
            frontier.extend(remote_next);
            frontier.sort_unstable();
            frontier.dedup();
            frontier.retain(|&v| coreness[v as usize].load(Ordering::Relaxed) == u32::MAX);
        }
        k += 1;
    }

    let coreness: Vec<u32> = coreness.into_iter().map(AtomicU32::into_inner).collect();
    let degeneracy = coreness.iter().copied().max().unwrap_or(0);
    KCoreResult {
        coreness,
        degeneracy,
        rounds,
    }
}

/// Sequential Batagelj–Zaveršnik bucket peeling: `O(n + m)` reference used
/// by tests and as the Greedy-Switch endpoint for peeling-style schemes.
pub fn coreness_seq(g: &CsrGraph) -> Vec<u32> {
    let n = g.num_vertices();
    let mut deg: Vec<u32> = g.vertices().map(|v| g.degree(v) as u32).collect();
    let max_deg = deg.iter().copied().max().unwrap_or(0) as usize;
    // Bucket sort vertices by degree.
    let mut bucket_start = vec![0usize; max_deg + 2];
    for &d in &deg {
        bucket_start[d as usize + 1] += 1;
    }
    for i in 0..max_deg + 1 {
        bucket_start[i + 1] += bucket_start[i];
    }
    let mut pos = vec![0usize; n];
    let mut order = vec![0 as VertexId; n];
    {
        let mut cursor = bucket_start.clone();
        for v in 0..n {
            let d = deg[v] as usize;
            pos[v] = cursor[d];
            order[cursor[d]] = v as VertexId;
            cursor[d] += 1;
        }
    }
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = order[i] as usize;
        core[v] = deg[v];
        for &u in g.neighbors(v as VertexId) {
            let u = u as usize;
            if deg[u] > deg[v] {
                // Move u one bucket down: swap it with the first vertex of
                // its current bucket, then shrink the bucket.
                let du = deg[u] as usize;
                let pu = pos[u];
                let pw = bucket_start[du];
                let w = order[pw] as usize;
                if u != w {
                    order.swap(pu, pw);
                    pos.swap(u, w);
                }
                bucket_start[du] += 1;
                deg[u] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_graph::{gen, GraphBuilder};
    use pp_telemetry::CountingProbe;

    #[test]
    fn clique_coreness_is_n_minus_one() {
        let g = gen::complete(6);
        for dir in Direction::BOTH {
            let r = kcore(&g, dir);
            assert!(r.coreness.iter().all(|&c| c == 5), "{dir:?}");
            assert_eq!(r.degeneracy, 5);
        }
    }

    #[test]
    fn path_and_cycle_coreness() {
        for dir in Direction::BOTH {
            // A path is 1-degenerate, a cycle is 2-degenerate.
            assert_eq!(kcore(&gen::path(10), dir).degeneracy, 1, "{dir:?}");
            assert!(kcore(&gen::cycle(10), dir).coreness.iter().all(|&c| c == 2));
        }
    }

    #[test]
    fn clique_with_tail() {
        // 4-clique {0,1,2,3} with a pendant path 3-4-5: coreness 3,3,3,3,1,1.
        let g = GraphBuilder::undirected(6)
            .edges([
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ])
            .build();
        for dir in Direction::BOTH {
            let r = kcore(&g, dir);
            assert_eq!(r.coreness, vec![3, 3, 3, 3, 1, 1], "{dir:?}");
            assert_eq!(r.core_members(3), vec![0, 1, 2, 3]);
            assert_eq!(r.core_members(4), Vec::<VertexId>::new());
        }
    }

    #[test]
    fn matches_sequential_reference_on_random_graphs() {
        for seed in 0..5 {
            let g = gen::rmat(9, 6, seed);
            let expected = coreness_seq(&g);
            for dir in Direction::BOTH {
                let r = kcore(&g, dir);
                assert_eq!(r.coreness, expected, "{dir:?} seed {seed}");
            }
        }
    }

    #[test]
    fn push_and_pull_agree_on_all_families() {
        for (name, g) in [
            ("er", gen::erdos_renyi(300, 900, 3)),
            ("ba", gen::barabasi_albert(300, 4, 3)),
            ("ws", gen::watts_strogatz(300, 3, 0.1, 3)),
            ("road", gen::road_grid(15, 20, 0.6, 3)),
        ] {
            let push = kcore(&g, Direction::Push);
            let pull = kcore(&g, Direction::Pull);
            assert_eq!(push.coreness, pull.coreness, "{name}");
            assert_eq!(push.coreness, coreness_seq(&g), "{name} vs seq");
        }
    }

    #[test]
    fn barabasi_albert_core_floor() {
        // Every BA vertex attaches with m edges, so the m-core is the whole
        // graph: coreness >= m everywhere.
        let r = kcore(&gen::barabasi_albert(200, 3, 1), Direction::Pull);
        assert!(r.coreness.iter().all(|&c| c >= 3));
    }

    #[test]
    fn push_uses_atomics_pull_does_not() {
        let g = gen::rmat(8, 5, 11);
        let probe = CountingProbe::new();
        kcore_probed(&g, Direction::Push, &probe);
        assert!(probe.counts().atomics > 0);
        assert_eq!(probe.counts().reads, 0);

        let probe = CountingProbe::new();
        kcore_probed(&g, Direction::Pull, &probe);
        assert_eq!(probe.counts().atomics, 0);
        assert!(probe.counts().reads > 0);
    }

    #[test]
    fn pull_reads_exceed_push_atomics() {
        // The §4.9 trade: pull re-reads the whole edge set per sub-round,
        // push decrements each arc at most once.
        let g = gen::erdos_renyi(400, 1600, 7);
        let push = CountingProbe::new();
        kcore_probed(&g, Direction::Push, &push);
        let pull = CountingProbe::new();
        kcore_probed(&g, Direction::Pull, &pull);
        assert!(pull.counts().reads > push.counts().atomics);
        // Push's total decrements are bounded by the arc count.
        assert!(push.counts().atomics <= g.num_arcs() as u64);
    }

    #[test]
    fn empty_and_edgeless() {
        let empty = GraphBuilder::undirected(0).build();
        let edgeless = GraphBuilder::undirected(5).build();
        for dir in Direction::BOTH {
            assert_eq!(kcore(&empty, dir).degeneracy, 0);
            let r = kcore(&edgeless, dir);
            assert_eq!(r.coreness, vec![0; 5]);
            assert_eq!(r.degeneracy, 0);
        }
    }

    #[test]
    fn pa_variant_matches_plain_push() {
        use pp_graph::{BlockPartition, PartitionAwareGraph};
        for seed in 0..3 {
            let g = gen::rmat(8, 5, seed);
            let pa = PartitionAwareGraph::new(&g, BlockPartition::new(g.num_vertices(), 4));
            let expected = coreness_seq(&g);
            let r = kcore_push_pa(&g, &pa, &pp_telemetry::NullProbe);
            assert_eq!(r.coreness, expected, "seed {seed}");
        }
    }

    #[test]
    fn pa_reduces_atomics_to_cut_decrements() {
        use pp_graph::{BlockPartition, PartitionAwareGraph};
        let g = gen::erdos_renyi(400, 1600, 5);
        let part = BlockPartition::new(g.num_vertices(), 8);
        let cut = part.cut_arcs(&g) as u64;
        let pa = PartitionAwareGraph::new(&g, part);

        let plain = CountingProbe::new();
        kcore_probed(&g, Direction::Push, &plain);
        let pa_probe = CountingProbe::new();
        kcore_push_pa(&g, &pa, &pa_probe);

        assert!(
            pa_probe.counts().atomics <= cut,
            "atomics bounded by cut arcs"
        );
        assert!(
            pa_probe.counts().atomics < plain.counts().atomics,
            "PA must reduce atomics: {} vs {}",
            pa_probe.counts().atomics,
            plain.counts().atomics
        );
        // Total decrements are conserved: plain writes pick up the slack.
        assert_eq!(
            pa_probe.counts().atomics + pa_probe.counts().writes,
            plain.counts().atomics
        );
    }

    #[test]
    fn pa_bipartite_worst_case_keeps_all_atomics() {
        // §5: if each thread owns vertices from only one side of a bipartite
        // graph, every update crosses the cut and stays atomic.
        use pp_graph::{BlockPartition, PartitionAwareGraph};
        let g = gen::bipartite(64, 64, 400, 2);
        // Two partitions of 64: partition 0 = left side, partition 1 = right.
        let part = BlockPartition::new(g.num_vertices(), 2);
        let pa = PartitionAwareGraph::new(&g, part);
        let probe = CountingProbe::new();
        let r = kcore_push_pa(&g, &pa, &probe);
        assert_eq!(r.coreness, coreness_seq(&g));
        assert_eq!(probe.counts().writes, 0, "no local-phase decrements exist");
        assert!(probe.counts().atomics > 0);
    }
}
