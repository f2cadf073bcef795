//! Graph substrate for the push–pull reproduction.
//!
//! Implements the representation of §2.2 of the paper: adjacency arrays of
//! all vertices stored contiguously (`n + 2m` cells for an undirected graph),
//! plus the partition-aware split of §5 as a view of those rows (`2n` cut
//! indices, no copied targets), 1D vertex partitioning with an ownership map
//! `t[v]`, synthetic graph generators, and stand-ins for the real-world
//! datasets of Table 2.

pub mod builder;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod io;
pub mod partition;
pub mod partition_aware;
pub mod reorder;
pub mod snapshot;
pub mod stats;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use partition::BlockPartition;
pub use partition_aware::PartitionAwareGraph;

/// Vertex identifier. `u32` keeps adjacency arrays compact; graph algorithms
/// in this workspace are memory-bound (§6 of the paper), so halving the
/// per-edge footprint matters more than supporting >4B vertices.
pub type VertexId = u32;

/// Edge weight type used by weighted algorithms (SSSP-Δ, Boruvka MST).
pub type Weight = u32;
