//! Graph substrate for the reproduction of Kuhn & Schneider,
//! *Computing Shortest Paths and Diameter in the Hybrid Network Model* (PODC 2020).
//!
//! This crate contains everything the distributed algorithms of the paper need to
//! stand on, but nothing about the communication model itself:
//!
//! * [`Graph`] — a weighted, undirected, connected-checkable graph in CSR form,
//!   built through [`GraphBuilder`].
//! * [`generators`] — workload graph families (paths, cycles, grids, trees,
//!   Erdős–Rényi, random geometric, caterpillars, barbells, …).
//! * Reference (sequential) algorithms used as ground truth by the test- and
//!   benchmark-suites: [`dijkstra`], [`bfs`], [`limited`] (the paper's `h`-limited
//!   distances `d_h`), [`apsp`].
//! * [`skeleton`] — skeleton graphs à la Appendix C of the paper (and originally
//!   Ullman & Yannakakis), with the sampling lemmas' invariants exposed for testing.
//! * [`minplus`] — the shared blocked min-plus kernel (cache-tiled, branch-free)
//!   behind the skeleton merges and the CLIQUE semiring squaring.
//! * [`lower_bounds`] — the two worst-case constructions of the paper:
//!   the k-SSP path construction (Figure 1) and the set-disjointness diameter
//!   construction `Γ^{a,b}_{k,ℓ,W}` (Figure 2).
//!
//! # Example
//!
//! ```
//! use hybrid_graph::{GraphBuilder, NodeId};
//! use hybrid_graph::dijkstra::dijkstra;
//!
//! # fn main() -> Result<(), hybrid_graph::GraphError> {
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(NodeId::new(0), NodeId::new(1), 2)?;
//! b.add_edge(NodeId::new(1), NodeId::new(2), 3)?;
//! b.add_edge(NodeId::new(0), NodeId::new(3), 1)?;
//! b.add_edge(NodeId::new(3), NodeId::new(2), 1)?;
//! let g = b.build()?;
//! let d = dijkstra(&g, NodeId::new(0));
//! assert_eq!(d.dist(NodeId::new(2)), 2); // 0 -3-> 2 with weight 1+1
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod apsp;
pub mod bfs;
pub mod delta;
pub mod dijkstra;
pub mod dist;
pub mod export;
pub mod generators;
pub mod graph;
pub mod ids;
pub mod limited;
pub mod lower_bounds;
pub mod minplus;
pub mod skeleton;

pub use delta::{DeltaBatch, DeltaError, GraphDelta};
pub use dist::{dist_add, Distance, INFINITY};
pub use graph::{Graph, GraphBuilder, GraphError};
pub use ids::NodeId;
