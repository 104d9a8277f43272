//! Trees in CSR child-list form, and the paper's two tree datasets.
//!
//! The paper's recursive benchmarks (Tree Heights, Tree Descendants) use two
//! synthetic trees from its reference \[3\]: *dataset1* is a depth-5 tree
//! with 128–256 children per node where only half of the non-leaf nodes have
//! children; *dataset2* is a depth-5 tree with 32–128 children where all
//! non-leaf nodes have children. At those fanouts the trees have hundreds of
//! millions of nodes, so the generators scale the fanout range while
//! preserving the two distinguishing shapes (sparse-interior vs.
//! dense-interior).

use crate::rng::Rng64;

/// A rooted tree: `child_ptr[v]..child_ptr[v+1]` indexes `children`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tree {
    pub n: usize,
    pub child_ptr: Vec<i64>,
    pub children: Vec<i64>,
    pub root: i64,
}

/// Generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    pub depth: u32,
    pub min_children: usize,
    pub max_children: usize,
    /// Probability that a non-leaf-depth node actually has children.
    pub fill_prob: f64,
    pub seed: u64,
}

impl TreeParams {
    /// Shape of the paper's dataset1 (sparse interior), scaled fanout.
    pub fn dataset1_scaled(min_children: usize, max_children: usize, seed: u64) -> TreeParams {
        TreeParams { depth: 5, min_children, max_children, fill_prob: 0.5, seed }
    }

    /// Shape of the paper's dataset2 (dense interior), scaled fanout.
    pub fn dataset2_scaled(min_children: usize, max_children: usize, seed: u64) -> TreeParams {
        TreeParams { depth: 5, min_children, max_children, fill_prob: 1.0, seed }
    }
}

/// Generate a tree breadth-first according to `params`.
pub fn generate(params: TreeParams) -> Tree {
    let mut rng = Rng64::seed_from_u64(params.seed);
    // children lists per node, nodes numbered in BFS order.
    let mut kids: Vec<Vec<i64>> = vec![Vec::new()];
    let mut frontier = vec![0usize];
    for level in 0..params.depth {
        let mut next = Vec::new();
        for &v in &frontier {
            let has_children = level == 0 || rng.gen_bool(params.fill_prob);
            if !has_children {
                continue;
            }
            let fanout = rng.range_usize_incl(params.min_children, params.max_children);
            for _ in 0..fanout {
                let id = kids.len();
                kids.push(Vec::new());
                kids[v].push(id as i64);
                next.push(id);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    let n = kids.len();
    let mut child_ptr = Vec::with_capacity(n + 1);
    let mut children = Vec::new();
    let mut acc = 0i64;
    for k in &kids {
        child_ptr.push(acc);
        acc += k.len() as i64;
        children.extend_from_slice(k);
    }
    child_ptr.push(acc);
    Tree { n, child_ptr, children, root: 0 }
}

impl Tree {
    pub fn degree(&self, v: usize) -> i64 {
        self.child_ptr[v + 1] - self.child_ptr[v]
    }

    pub fn children_of(&self, v: usize) -> &[i64] {
        &self.children[self.child_ptr[v] as usize..self.child_ptr[v + 1] as usize]
    }

    /// Height: edges on the longest root-to-leaf path.
    pub fn height(&self) -> i64 {
        fn go(t: &Tree, v: usize) -> i64 {
            t.children_of(v).iter().map(|&c| 1 + go(t, c as usize)).max().unwrap_or(0)
        }
        go(self, self.root as usize)
    }

    /// Number of descendants of the root (all nodes except the root).
    pub fn descendants(&self) -> i64 {
        (self.n - 1) as i64
    }

    pub fn validate(&self) -> Result<(), String> {
        if self.child_ptr.len() != self.n + 1 {
            return Err("child_ptr length mismatch".into());
        }
        let mut seen = vec![false; self.n];
        seen[self.root as usize] = true;
        for v in 0..self.n {
            for &c in self.children_of(v) {
                let c = c as usize;
                if c >= self.n {
                    return Err(format!("child {c} out of range"));
                }
                if seen[c] {
                    return Err(format!("node {c} has two parents"));
                }
                seen[c] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err("disconnected nodes".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_shapes_differ() {
        let t1 = generate(TreeParams::dataset1_scaled(8, 16, 5));
        let t2 = generate(TreeParams::dataset2_scaled(8, 16, 5));
        t1.validate().unwrap();
        t2.validate().unwrap();
        // Dense interior grows much larger than half-filled interior.
        assert!(t2.n > t1.n, "dataset2 ({}) should exceed dataset1 ({})", t2.n, t1.n);
        assert!(t1.height() <= 5);
        assert!(t2.height() == 5);
    }

    #[test]
    fn generation_is_deterministic() {
        let p = TreeParams::dataset1_scaled(4, 9, 77);
        assert_eq!(generate(p), generate(p));
    }

    #[test]
    fn descendants_counts_everything_but_root() {
        let t = generate(TreeParams::dataset2_scaled(2, 3, 1));
        assert_eq!(t.descendants(), (t.n - 1) as i64);
    }

    #[test]
    fn single_node_tree() {
        let t = generate(TreeParams {
            depth: 0,
            min_children: 2,
            max_children: 3,
            fill_prob: 1.0,
            seed: 0,
        });
        assert_eq!(t.n, 1);
        assert_eq!(t.height(), 0);
        assert_eq!(t.descendants(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn fanout_respects_bounds() {
        let t = generate(TreeParams::dataset2_scaled(3, 5, 9));
        for v in 0..t.n {
            let d = t.degree(v);
            assert!(d == 0 || (3..=5).contains(&d), "node {v} has fanout {d}");
        }
    }
}
