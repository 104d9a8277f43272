//! The launch tree a capture records (`ExecRecord`s), on real captures: a
//! hand-built deep recursion chain (depth > 8), a hand-built branching tree,
//! and a generated Tree Descendants dataset. Every expectation is either
//! hand-computed from the tree shape or derived from the `Tree` itself, so
//! these pin the records' kernel count, `depth`, launch `spec` and `parent`
//! links against the actual capture pipeline.

use std::sync::Arc;

use dpcons::apps::{Benchmark, CaptureSet, RunConfig, TreeDescendants, Variant};
use dpcons::sim::ExecRecord;
use dpcons::workloads::{generate_tree, Tree, TreeParams};

/// Capture the BasicDp run of Tree Descendants on `tree`: the capture of
/// its single host launch, and the descendant count it computed.
fn capture(tree: Tree) -> (Arc<CaptureSet>, i64) {
    let app = TreeDescendants::new(tree);
    let cfg = RunConfig { capture: true, ..RunConfig::default() };
    let out = app.run(Variant::BasicDp, &cfg).expect("basic-dp run");
    let caps = out.captures.expect("capture was enabled");
    assert_eq!(caps.launches.len(), 1, "TD basic-dp is a single host launch");
    (caps, out.output[0])
}

/// Kernels executed at each depth, root first.
fn kernels_per_level(records: &[ExecRecord]) -> Vec<u64> {
    let max_depth = records.iter().map(|r| r.depth).max().unwrap_or(0);
    let mut levels = vec![0u64; max_depth as usize + 1];
    for r in records {
        levels[r.depth as usize] += 1;
    }
    levels
}

/// Device launches made by each record, from the children's `parent` links.
fn child_counts(records: &[ExecRecord]) -> Vec<u32> {
    let mut kids = vec![0u32; records.len()];
    for (parent, _, _) in records.iter().filter_map(|r| r.parent) {
        kids[parent] += 1;
    }
    kids
}

/// `(grid, block)` of every record's launch.
fn shapes(records: &[ExecRecord]) -> Vec<(u32, u32)> {
    records.iter().map(|r| (r.spec.grid, r.spec.block)).collect()
}

#[test]
fn deep_chain_summary_is_exact() {
    // A 12-node path 0 → 1 → ... → 11: every node but the last has exactly
    // one child, so td_rec recurses once per interior child and the launch
    // tree is a chain of depth 10 (the leaf's parent launches nothing).
    let n = 12;
    let mut child_ptr: Vec<i64> = (0..n as i64).collect();
    child_ptr.push((n - 1) as i64); // node 11 is a leaf: [11, 11)
    let children: Vec<i64> = (1..n as i64).collect();
    let tree = Tree { n, child_ptr, children, root: 0 };
    tree.validate().expect("hand-built path tree is well-formed");

    let (caps, descendants) = capture(tree);
    let records = &caps.launches[0];
    assert_eq!(descendants, 11);

    // Kernels: the host launch for node 0, plus one device launch per
    // interior non-root node (1..=10) — node 11 is a leaf.
    assert_eq!(records.len(), 11);
    assert_eq!(records.iter().map(|r| r.depth).max(), Some(10), "must recurse past depth 8");
    assert_eq!(kernels_per_level(records), vec![1; 11]);
    // Every kernel launches exactly one child except the deepest.
    assert_eq!(child_counts(records), [vec![1; 10], vec![0]].concat());
    // Single-child nodes run one block of one thread.
    assert_eq!(shapes(records), vec![(1, 1); 11]);
}

#[test]
fn branching_tree_summary_is_exact() {
    // 0 → {1, 2}, 1 → {3, 4}, 3 → {5}: only nodes 1 and 3 are interior
    // non-root nodes, so the capture holds exactly three kernels.
    let tree =
        Tree { n: 6, child_ptr: vec![0, 2, 4, 4, 5, 5, 5], children: vec![1, 2, 3, 4, 5], root: 0 };
    tree.validate().expect("hand-built branching tree is well-formed");

    let (caps, descendants) = capture(tree);
    let records = &caps.launches[0];
    assert_eq!(descendants, 5);
    assert_eq!(records.len(), 3);
    assert_eq!(kernels_per_level(records), vec![1, 1, 1]);
    assert_eq!(child_counts(records), vec![1, 1, 0]);
    // The root kernel runs with block = root degree; recursion launches
    // block = min(child degree, 256).
    assert_eq!(shapes(records), vec![(1, 2), (1, 2), (1, 1)]);
}

#[test]
fn generated_dataset_summary_matches_tree_shape() {
    // A real TD dataset: expectations computed from the Tree itself (node
    // depths + interior counts), independently of the capture.
    let tree = generate_tree(TreeParams::dataset2_scaled(3, 6, 23));
    let mut depth = vec![0u32; tree.n];
    let mut order = vec![tree.root as usize];
    let mut i = 0;
    while i < order.len() {
        let v = order[i];
        for &c in tree.children_of(v) {
            depth[c as usize] = depth[v] + 1;
            order.push(c as usize);
        }
        i += 1;
    }
    // Kernel at record-depth d = interior node at tree-depth d (the root's
    // kernel is the host launch; each interior non-root node gets one
    // device launch at its own depth).
    let max_interior_depth =
        (0..tree.n).filter(|&v| tree.degree(v) > 0).map(|v| depth[v]).max().unwrap();
    let mut expect_per_level = vec![0u64; max_interior_depth as usize + 1];
    for v in 0..tree.n {
        if v == tree.root as usize || tree.degree(v) > 0 {
            expect_per_level[depth[v] as usize] += 1;
        }
    }

    let (caps, descendants) = capture(tree.clone());
    let records = &caps.launches[0];
    assert_eq!(descendants, tree.descendants());
    assert_eq!(kernels_per_level(records), expect_per_level);
    // One host launch, then one device launch per interior non-root node.
    let interior_below_root =
        (0..tree.n).filter(|&v| v != tree.root as usize && tree.degree(v) > 0).count();
    assert_eq!(records.len(), interior_below_root + 1);
    assert!(records[0].parent.is_none() && records[1..].iter().all(|r| r.parent.is_some()));
}
