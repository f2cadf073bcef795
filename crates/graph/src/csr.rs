//! Compressed-sparse-row adjacency storage.
//!
//! The paper (§2.2) stores the neighbor arrays of all vertices in one
//! contiguous array plus per-vertex offsets: `n + 2m` cells for an undirected
//! graph. `CsrGraph` is exactly that layout. For directed graphs the same
//! structure doubles as CSR (out-edges) and, after [`CsrGraph::transpose`],
//! CSC (in-edges) — the dichotomy §7.1 maps onto pull and push.

use crate::{VertexId, Weight};

/// A graph in CSR form. Neighbor lists are sorted ascending, which lets
/// [`CsrGraph::has_edge`] run in `O(log d(v))` (used by triangle counting).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<VertexId>,
    weights: Option<Vec<Weight>>,
    directed: bool,
}

/// Whether every row of a CSR slab (monotone `offsets` ending at
/// `targets.len()`) is sorted: iff every descent sits on a row boundary.
/// Both counts are branch-free sums, so they vectorize.
pub(crate) fn rows_are_sorted(offsets: &[u64], targets: &[VertexId]) -> bool {
    let next = targets.get(1..).unwrap_or_default();
    let in_slab: usize = targets
        .iter()
        .zip(next)
        .map(|(a, b)| usize::from(a > b))
        .sum();
    // Each interior boundary once: where a non-empty row ends.
    let on_boundaries: usize = offsets
        .windows(2)
        .filter(|w| w[0] < w[1] && (w[1] as usize) < targets.len())
        .map(|w| w[1] as usize)
        .map(|o| usize::from(targets[o - 1] > targets[o]))
        .sum();
    in_slab == on_boundaries
}

impl CsrGraph {
    /// Builds a CSR graph from raw parts. Callers normally go through
    /// [`crate::GraphBuilder`]; this is the trusted-input path used by
    /// generators.
    ///
    /// # Panics
    /// Panics if the offsets are not monotone, do not start at 0, do not end
    /// at `targets.len()`, if a target is out of range, or if the weight
    /// array length does not match the target array. Debug builds also
    /// panic if a row is not sorted ascending.
    pub fn from_parts(
        offsets: Vec<u64>,
        targets: Vec<VertexId>,
        weights: Option<Vec<Weight>>,
        directed: bool,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert_eq!(
            *offsets.last().unwrap(),
            targets.len() as u64,
            "offsets must end at targets.len()"
        );
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        let n = offsets.len() - 1;
        assert!(
            targets.iter().max().is_none_or(|&t| (t as usize) < n),
            "edge target out of range"
        );
        debug_assert!(rows_are_sorted(&offsets, &targets), "rows not sorted");
        if let Some(w) = &weights {
            assert_eq!(w.len(), targets.len(), "weights must match targets");
        }
        Self {
            offsets,
            targets,
            weights,
            directed,
        }
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of stored arcs (directed edge slots). For an undirected graph
    /// this is `2m`; for a directed graph it is `m`.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Number of edges `m` in the paper's sense: undirected edges count once.
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.directed {
            self.targets.len()
        } else {
            self.targets.len() / 2
        }
    }

    /// Whether this graph is directed.
    #[inline]
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Whether edge weights are attached.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weights.is_some()
    }

    /// Degree of `v` (out-degree for directed graphs).
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as usize
    }

    /// The neighbors of `v` as a sorted slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// The weights parallel to [`CsrGraph::neighbors`].
    ///
    /// # Panics
    /// Panics if the graph is unweighted.
    #[inline]
    pub fn neighbor_weights(&self, v: VertexId) -> &[Weight] {
        let w = self
            .weights
            .as_ref()
            .expect("neighbor_weights on unweighted graph");
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &w[lo..hi]
    }

    /// Neighbors of `v` zipped with their edge weights.
    pub fn weighted_neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.neighbors(v)
            .iter()
            .copied()
            .zip(self.neighbor_weights(v).iter().copied())
    }

    /// Raw offset array (`n + 1` entries). Exposed for the probe-instrumented
    /// kernels that account for every memory cell they touch.
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Raw target array. See [`CsrGraph::offsets`].
    #[inline]
    pub fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Raw weight array parallel to [`CsrGraph::targets`], if the graph is
    /// weighted. Exposed for bulk serialization ([`crate::snapshot`]).
    #[inline]
    pub fn weight_slab(&self) -> Option<&[Weight]> {
        self.weights.as_deref()
    }

    /// Binary-search adjacency test: is `(u, v)` an arc?
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Weight of arc `(u, v)`, if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        let idx = self.neighbors(u).binary_search(&v).ok()?;
        Some(self.neighbor_weights(u)[idx])
    }

    /// Iterate over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices() as VertexId
    }

    /// Iterate over every stored arc `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterate over undirected edges once (`u <= v`), or all arcs if the
    /// graph is directed. For weighted graphs the weight rides along.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.vertices().flat_map(move |u| {
            let ws = self.weights.as_deref();
            let lo = self.offsets[u as usize] as usize;
            self.neighbors(u)
                .iter()
                .enumerate()
                .filter(move |(_, &v)| self.directed || u <= v)
                .map(move |(i, &v)| (u, v, ws.map_or(1, |w| w[lo + i])))
        })
    }

    /// Maximum degree `d̂` (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Average degree `d̄` over stored arcs.
    pub fn avg_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_arcs() as f64 / self.num_vertices() as f64
        }
    }

    /// Memory cells used by the representation, matching the paper's
    /// accounting: `n + 2m` for an undirected unweighted graph (offsets are
    /// counted as `n`, each undirected edge appears in two adjacency lists).
    pub fn representation_cells(&self) -> usize {
        self.num_vertices() + self.num_arcs() + self.weights.as_ref().map_or(0, |w| w.len())
    }

    /// The transposed graph: arc `(u, v)` becomes `(v, u)`. For an undirected
    /// graph this is an (expensive) identity. The result is the CSC view of
    /// §7.1: iterating its rows is iterating the original graph's columns.
    pub fn transpose(&self) -> CsrGraph {
        let n = self.num_vertices();
        let mut counts = vec![0u64; n + 1];
        for &t in &self.targets {
            counts[t as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut targets = vec![0 as VertexId; self.targets.len()];
        let mut weights = self
            .weights
            .as_ref()
            .map(|_| vec![0 as Weight; self.targets.len()]);
        for u in 0..n as VertexId {
            let lo = self.offsets[u as usize] as usize;
            for (i, &v) in self.neighbors(u).iter().enumerate() {
                let slot = cursor[v as usize] as usize;
                cursor[v as usize] += 1;
                targets[slot] = u;
                if let Some(w) = &mut weights {
                    w[slot] = self.weights.as_ref().unwrap()[lo + i];
                }
            }
        }
        // Transposition fills each bucket in increasing source order, so the
        // neighbor lists come out sorted and `from_parts` invariants hold.
        CsrGraph::from_parts(offsets, targets, weights, self.directed)
    }

    /// Strips weights, keeping the structure.
    pub fn unweighted(&self) -> CsrGraph {
        CsrGraph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: None,
            directed: self.directed,
        }
    }

    /// Attaches the given weight array (length must equal `num_arcs`). For
    /// undirected graphs the caller must supply symmetric weights; use
    /// [`crate::gen::with_random_weights`] for that.
    pub fn with_weights(&self, weights: Vec<Weight>) -> CsrGraph {
        assert_eq!(weights.len(), self.num_arcs());
        CsrGraph {
            offsets: self.offsets.clone(),
            targets: self.targets.clone(),
            weights: Some(weights),
            directed: self.directed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::undirected(3)
            .edges([(0, 1), (1, 2), (0, 2)])
            .build()
    }

    #[test]
    fn counts_match_paper_notation() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        assert_eq!(g.representation_cells(), 3 + 2 * 3);
    }

    #[test]
    fn neighbors_sorted_and_queryable() {
        let g = GraphBuilder::undirected(5)
            .edges([(4, 0), (4, 2), (4, 1), (0, 1)])
            .build();
        assert_eq!(g.neighbors(4), &[0, 1, 2]);
        assert!(g.has_edge(4, 2));
        assert!(g.has_edge(2, 4));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(4), 3);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn degree_statistics() {
        let g = triangle();
        assert_eq!(g.max_degree(), 2);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterates_each_undirected_edge_once() {
        let g = triangle();
        let mut e: Vec<_> = g.edges().map(|(u, v, _)| (u, v)).collect();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn directed_edges_and_transpose() {
        let g = GraphBuilder::directed(3)
            .edges([(0, 1), (0, 2), (1, 2)])
            .build();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 3);
        let t = g.transpose();
        assert_eq!(t.neighbors(2), &[0, 1]);
        assert_eq!(t.neighbors(0), &[] as &[VertexId]);
        // Transposing twice is the identity.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn transpose_of_undirected_graph_is_identity() {
        let g = triangle();
        assert_eq!(g.transpose(), g);
    }

    #[test]
    fn weighted_access() {
        let g = GraphBuilder::undirected(3)
            .weighted_edges([(0, 1, 5), (1, 2, 7)])
            .build();
        assert_eq!(g.edge_weight(0, 1), Some(5));
        assert_eq!(g.edge_weight(1, 0), Some(5));
        assert_eq!(g.edge_weight(1, 2), Some(7));
        assert_eq!(g.edge_weight(0, 2), None);
        let wn: Vec<_> = g.weighted_neighbors(1).collect();
        assert_eq!(wn, vec![(0, 5), (2, 7)]);
    }

    #[test]
    fn weighted_transpose_preserves_weights() {
        let g = GraphBuilder::directed(3)
            .weighted_edges([(0, 1, 5), (2, 1, 9)])
            .build();
        let t = g.transpose();
        assert_eq!(t.edge_weight(1, 0), Some(5));
        assert_eq!(t.edge_weight(1, 2), Some(9));
    }

    #[test]
    fn arcs_enumerates_both_directions() {
        let g = triangle();
        assert_eq!(g.arcs().count(), 6);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn from_parts_validates_offsets() {
        CsrGraph::from_parts(vec![0, 3], vec![0], None, false);
    }

    #[test]
    #[should_panic(expected = "target out of range")]
    fn from_parts_validates_targets() {
        CsrGraph::from_parts(vec![0, 1], vec![7], None, false);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::undirected(0).build();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.edges().count(), 0);
    }
}
