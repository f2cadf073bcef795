//! The Partition-Awareness representation of §5, as a view of the CSR.
//!
//! A pushing thread updates *local* neighbors (owned by its own part) with
//! plain writes and reserves atomics for *remote* ones. CSR rows are sorted
//! and a [`BlockPartition`] owner is one contiguous id interval, so the
//! local neighbors of `v` are one run of its row and the remote ones are
//! the prefix and suffix around it. The view adds two cut indices per
//! vertex (`2n` cells) to the CSR's `n + 2m`, where the paper copies the
//! halves into a `2n + 2m`-cell second graph.

use crate::{BlockPartition, CsrGraph, VertexId};

/// Partition-aware adjacency: per-vertex local/remote neighbor split of a
/// borrowed [`CsrGraph`] under a fixed [`BlockPartition`]. Any row-parallel
/// slice (targets or weights) is cut with [`PartitionAwareGraph::split`].
#[derive(Clone, Debug)]
pub struct PartitionAwareGraph<'g> {
    graph: &'g CsrGraph,
    partition: BlockPartition,
    /// Row-relative `[start, end)` of each vertex's same-owner run.
    cuts: Vec<[u32; 2]>,
    local_arcs: usize,
}

impl<'g> PartitionAwareGraph<'g> {
    /// Cuts every row of `g` at the bounds of its vertex's owner range.
    pub fn new(g: &'g CsrGraph, partition: BlockPartition) -> Self {
        assert_eq!(partition.num_vertices(), g.num_vertices());
        let mut cuts = Vec::with_capacity(g.num_vertices());
        for t in 0..partition.num_parts() {
            let owned = partition.range(t);
            cuts.extend(owned.clone().map(|v| {
                let row = g.neighbors(v);
                [lower_bound(row, owned.start), lower_bound(row, owned.end)]
            }));
        }
        let local_arcs = cuts.iter().map(|[start, end]| (end - start) as usize).sum();
        Self {
            graph: g,
            partition,
            cuts,
            local_arcs,
        }
    }

    /// The graph this view cuts.
    pub fn graph(&self) -> &'g CsrGraph {
        self.graph
    }

    /// The partition this view was built for.
    pub fn partition(&self) -> BlockPartition {
        self.partition
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.cuts.len()
    }

    /// Cuts `row`, a slice parallel to `v`'s CSR row (its neighbors or
    /// their weights), into `(prefix, local, suffix)`: the same-owner run
    /// and the remote entries before and after it, in row order.
    #[inline]
    pub fn split<'a, T>(&self, v: VertexId, row: &'a [T]) -> (&'a [T], &'a [T], &'a [T]) {
        debug_assert_eq!(row.len(), self.graph.degree(v));
        let [start, end] = self.cuts[v as usize];
        let (head, suffix) = row.split_at(end as usize);
        let (prefix, local) = head.split_at(start as usize);
        (prefix, local, suffix)
    }

    /// Neighbors of `v` owned by the same thread as `v`.
    #[inline]
    pub fn local_neighbors(&self, v: VertexId) -> &'g [VertexId] {
        self.split(v, self.graph.neighbors(v)).1
    }

    /// Neighbors of `v` owned by other threads: the two remote runs of its
    /// row, below and above the owner range.
    #[inline]
    pub fn remote_neighbors(&self, v: VertexId) -> [&'g [VertexId]; 2] {
        let (prefix, _, suffix) = self.split(v, self.graph.neighbors(v));
        [prefix, suffix]
    }

    /// Number of same-owner neighbors of `v` — O(1) from the cuts, so
    /// schedulers can weigh chunks without touching the rows.
    #[inline]
    pub fn local_degree(&self, v: VertexId) -> usize {
        let [start, end] = self.cuts[v as usize];
        (end - start) as usize
    }

    /// Number of foreign-owner neighbors of `v` — O(1), see
    /// [`PartitionAwareGraph::local_degree`].
    #[inline]
    pub fn remote_degree(&self, v: VertexId) -> usize {
        self.degree(v) - self.local_degree(v)
    }

    /// Degree of `v` (local + remote).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.graph.degree(v)
    }

    /// Total number of remote arcs: the upper bound on atomics a
    /// partition-aware push sweep issues (§5: between 0 and `2m`).
    pub fn num_remote_arcs(&self) -> usize {
        self.graph.num_arcs() - self.local_arcs
    }

    /// Total number of local arcs.
    pub fn num_local_arcs(&self) -> usize {
        self.local_arcs
    }
}

/// Index of the first entry of the sorted `row` that is `>= x`. Rows that
/// lie wholly on one side of `x` (most rows, at any cut) skip the search.
fn lower_bound(row: &[VertexId], x: VertexId) -> u32 {
    let i = match (row.first(), row.last()) {
        (Some(&first), _) if first >= x => 0,
        (_, Some(&last)) if last < x => row.len(),
        _ => row.partition_point(|&u| u < x),
    };
    u32::try_from(i).expect("row longer than u32::MAX")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, GraphBuilder};

    #[test]
    fn split_preserves_all_arcs() {
        let g = gen::rmat(8, 4, 9);
        let pa = PartitionAwareGraph::new(&g, BlockPartition::new(g.num_vertices(), 4));
        assert_eq!(
            pa.num_local_arcs() + pa.num_remote_arcs(),
            g.num_arcs(),
            "split must not lose arcs"
        );
        for v in g.vertices() {
            let [prefix, suffix] = pa.remote_neighbors(v);
            let merged = [prefix, pa.local_neighbors(v), suffix].concat();
            assert_eq!(merged, g.neighbors(v), "vertex {v}");
            assert_eq!(pa.degree(v), g.degree(v));
        }
    }

    #[test]
    fn locality_classification_is_correct() {
        let g = gen::path(6);
        let part = BlockPartition::new(6, 2);
        let pa = PartitionAwareGraph::new(&g, part);
        for v in g.vertices() {
            for &u in pa.local_neighbors(v) {
                assert_eq!(part.owner(u), part.owner(v));
            }
            for u in pa.remote_neighbors(v).concat() {
                assert_ne!(part.owner(u), part.owner(v));
            }
        }
        // Only the middle edge 2-3 crosses the cut.
        assert_eq!(pa.num_remote_arcs(), 2);
    }

    #[test]
    fn single_part_means_no_remote_arcs() {
        let g = gen::complete(8);
        let pa = PartitionAwareGraph::new(&g, BlockPartition::new(8, 1));
        assert_eq!(pa.num_remote_arcs(), 0);
        assert_eq!(pa.num_local_arcs(), g.num_arcs());
    }

    #[test]
    fn split_degrees_are_constant_time_views_of_the_arrays() {
        let g = gen::rmat(7, 5, 3);
        let pa = PartitionAwareGraph::new(&g, BlockPartition::new(g.num_vertices(), 3));
        for v in g.vertices() {
            assert_eq!(pa.local_degree(v), pa.local_neighbors(v).len());
            assert_eq!(pa.remote_degree(v), pa.remote_neighbors(v).concat().len());
        }
    }

    #[test]
    fn weights_travel_with_their_targets() {
        let g = gen::with_random_weights(&gen::rmat(7, 4, 6), 1, 99, 5);
        let part = BlockPartition::new(g.num_vertices(), 4);
        let pa = PartitionAwareGraph::new(&g, part);
        for v in g.vertices() {
            // Cutting the weight row where the target row is cut keeps every
            // (target, weight) pair of the CSR together, in the same piece.
            let (tp, tl, ts) = pa.split(v, g.neighbors(v));
            let (wp, wl, ws) = pa.split(v, g.neighbor_weights(v));
            assert_eq!(tl, pa.local_neighbors(v), "vertex {v}");
            assert_eq!([tp, ts], pa.remote_neighbors(v), "vertex {v}");
            let split: Vec<(VertexId, crate::Weight)> = [(tp, wp), (tl, wl), (ts, ws)]
                .into_iter()
                .flat_map(|(t, w)| {
                    assert_eq!(t.len(), w.len(), "vertex {v}");
                    t.iter().copied().zip(w.iter().copied())
                })
                .collect();
            let csr: Vec<(VertexId, crate::Weight)> = g.weighted_neighbors(v).collect();
            assert_eq!(split, csr, "vertex {v}");
        }
    }

    #[test]
    fn bipartite_cross_partition_is_all_remote() {
        // §5: the all-remote extreme occurs when the graph is bipartite and
        // each thread owns only one side. Build K_{2,2} with sides {0,1} and
        // {2,3} and a 2-part block partition that matches the sides.
        let g = GraphBuilder::undirected(4)
            .edges([(0, 2), (0, 3), (1, 2), (1, 3)])
            .build();
        let pa = PartitionAwareGraph::new(&g, BlockPartition::new(4, 2));
        assert_eq!(pa.num_local_arcs(), 0);
        assert_eq!(pa.num_remote_arcs(), g.num_arcs());
    }
}
