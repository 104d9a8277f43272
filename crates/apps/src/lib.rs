//! # dpcons-apps — the seven IPDPS'16 benchmarks
//!
//! Each benchmark provides a flat (no-dp) kernel module, an annotated
//! basic-dp module following the paper's Fig. 1 template, a `#pragma dp`
//! directive, a host driver, and a CPU oracle. The consolidated variants are
//! **generated** from the basic-dp module by `dpcons-core` at run time — they
//! are never hand-written, exactly as in the paper's compiler workflow.
//!
//! | app | pattern | dataset (paper) |
//! |-----|---------|-----------------|
//! | [`sssp::Sssp`] | irregular loop | CiteSeer |
//! | [`spmv::Spmv`] | irregular loop | CiteSeer |
//! | [`pagerank::PageRank`] | irregular loop | CiteSeer |
//! | [`graph_coloring::GraphColoring`] | irregular loop | Kron_log16 |
//! | [`bfs_rec::BfsRec`] | parallel recursion | Kron_log16 |
//! | [`tree_heights::TreeHeights`] | parallel recursion | tree datasets |
//! | [`tree_descendants::TreeDescendants`] | parallel recursion | tree datasets |

pub mod bfs_rec;
pub mod datasets;
pub mod graph_coloring;
pub mod pagerank;
pub mod runner;
pub mod spmv;
pub mod sssp;
pub mod tree_descendants;
pub mod tree_heights;

pub use bfs_rec::BfsRec;
pub use datasets::Profile;
pub use graph_coloring::GraphColoring;
pub use pagerank::PageRank;
pub use runner::{
    output_mismatch, AppError, AppOutcome, Benchmark, CaptureSet, RunConfig, TuneModel, Variant,
    VariantSession,
};
pub use spmv::Spmv;
pub use sssp::Sssp;
pub use tree_descendants::TreeDescendants;
pub use tree_heights::TreeHeights;

/// One registry entry: the name [`Benchmark::name`] reports, and the
/// constructor over a dataset profile.
type Entry = (&'static str, fn(Profile) -> Box<dyn Benchmark>);

/// The seven benchmarks in paper order. Constructors are stored, not run:
/// building one generates its dataset, so [`benchmark_by_name`] pays for the
/// app it was asked for and nothing else.
const REGISTRY: [Entry; 7] = [
    ("SSSP", |p| Box::new(Sssp::new(datasets::citeseer(p).with_weights(15, 0xD15), 0))),
    ("SpMV", |p| {
        let m = datasets::citeseer(p).with_weights(1 << 18, 0xA2);
        let x = Spmv::default_x(m.n);
        Box::new(Spmv::new(m, x))
    }),
    ("PageRank", |p| Box::new(PageRank::new(datasets::citeseer(p), pagerank::DEFAULT_ITERS))),
    ("GC", |p| Box::new(GraphColoring::new(datasets::kron(p).symmetrize(), 0x6C))),
    ("BFS-Rec", |p| Box::new(BfsRec::new(datasets::kron(p), 0))),
    ("TH", |p| Box::new(TreeHeights::new(datasets::tree1(p)))),
    ("TD", |p| Box::new(TreeDescendants::new(datasets::tree2(p)))),
];

/// The registry names, in the order [`all_benchmarks`] returns them.
pub fn benchmark_names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|&(name, _)| name)
}

/// Construct all seven benchmarks over a dataset profile (boxed, for uniform
/// iteration in the harness and the figure benches).
pub fn all_benchmarks(p: Profile) -> Vec<Box<dyn Benchmark>> {
    REGISTRY.iter().map(|&(_, build)| build(p)).collect()
}

/// Construct the one benchmark registered under `name` (ASCII case and
/// surrounding whitespace ignored) — the same object [`all_benchmarks`] holds
/// at that position, without building the other six.
pub fn benchmark_by_name(name: &str, p: Profile) -> Option<Box<dyn Benchmark>> {
    let name = name.trim();
    REGISTRY.iter().find(|(known, _)| known.eq_ignore_ascii_case(name)).map(|&(_, build)| build(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_builds_the_benchmark_all_benchmarks_lists() {
        let all = all_benchmarks(Profile::Test);
        assert_eq!(all.len(), REGISTRY.len());
        for (app, name) in all.iter().zip(benchmark_names()) {
            assert_eq!(app.name(), name, "registry name must be the benchmark's own");
            let one = benchmark_by_name(&format!(" {} ", name.to_lowercase()), Profile::Test)
                .expect("registered name resolves");
            assert_eq!(one.name(), name);
            assert_eq!(one.reference(), app.reference(), "{name}: same dataset, same seeds");
        }
        assert!(benchmark_by_name("NotAnApp", Profile::Test).is_none());
    }
}
