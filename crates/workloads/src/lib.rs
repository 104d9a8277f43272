//! # dpcons-workloads — datasets and CPU oracles
//!
//! Graph/tree data structures (CSR), seeded synthetic generators standing in
//! for the paper's DIMACS datasets (see [`gen`] for the substitution
//! argument), fixed-point arithmetic helpers, and exact sequential reference
//! implementations of all seven benchmark algorithms.

pub mod fixed;
pub mod gen;
pub mod graph;
pub mod reference;
pub mod rng;
pub mod tree;

pub use fixed::{fdiv, fmul, to_fixed, to_float, FRAC_BITS, ONE};
pub use graph::CsrGraph;
pub use reference::{
    bfs_levels, coloring_is_proper, coloring_priorities, graph_coloring, pagerank, spmv, sssp, INF,
};
pub use tree::{generate as generate_tree, Tree, TreeParams};
