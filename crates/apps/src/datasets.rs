//! Named dataset presets used across tests, benches, and the reproduction
//! harness, with two size profiles:
//!
//! * [`Profile::Test`] — small inputs for fast CI-style runs,
//! * [`Profile::Bench`] — the default experiment scale: the same
//!   distribution shapes as the paper's datasets at a size one CPU core can
//!   simulate in minutes; every figure runs at these presets.

use dpcons_workloads::{gen, generate_tree, CsrGraph, Tree, TreeParams};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    Test,
    Bench,
}

/// CiteSeer-like citation network (used by SSSP, SpMV, PageRank).
pub fn citeseer(p: Profile) -> CsrGraph {
    match p {
        Profile::Test => gen::citeseer_like(1200, 8.0, 150, 0xC17E),
        Profile::Bench => gen::citeseer_like(8000, 16.0, 1199, 0xC17E),
    }
}

/// Kron_log16-like RMAT graph (used by GC, BFS-Rec).
pub fn kron(p: Profile) -> CsrGraph {
    match p {
        Profile::Test => gen::kron_like(9, 8.0, 0x5C10),
        Profile::Bench => gen::kron_like(13, 16.0, 0x5C10),
    }
}

/// Tree dataset1 shape: half-filled interior. The bench profile keeps the
/// paper's property that node fanout exceeds the warp size (the paper uses
/// 128-256 children), at a reduced depth so the node count stays simulable.
pub fn tree1(p: Profile) -> Tree {
    match p {
        Profile::Test => generate_tree(TreeParams::dataset1_scaled(4, 9, 0x7E31)),
        Profile::Bench => generate_tree(TreeParams {
            depth: 3,
            min_children: 33,
            max_children: 64,
            fill_prob: 0.5,
            seed: 0x7E31,
        }),
    }
}

/// Tree dataset2 shape: dense interior, fanout above the warp size.
pub fn tree2(p: Profile) -> Tree {
    match p {
        Profile::Test => generate_tree(TreeParams::dataset2_scaled(3, 6, 0x7E32)),
        Profile::Bench => generate_tree(TreeParams {
            depth: 3,
            min_children: 33,
            max_children: 48,
            fill_prob: 1.0,
            seed: 0x7E32,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_sized() {
        for p in [Profile::Test, Profile::Bench] {
            citeseer(p).validate().unwrap();
            kron(p).validate().unwrap();
            tree1(p).validate().unwrap();
            tree2(p).validate().unwrap();
        }
        assert!(citeseer(Profile::Bench).n > citeseer(Profile::Test).n);
        assert!(tree2(Profile::Bench).n > tree2(Profile::Test).n);
    }

    #[test]
    fn bench_graphs_are_irregular() {
        let (_, max, mean) = citeseer(Profile::Bench).degree_stats();
        assert!(max as f64 > 8.0 * mean);
        let (_, kmax, kmean) = kron(Profile::Bench).degree_stats();
        assert!(kmax as f64 > 10.0 * kmean);
    }
}
