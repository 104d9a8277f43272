//! Synthetic dataset generators standing in for the paper's datasets.
//!
//! The paper evaluates on CiteSeer (434k nodes, 16M edges, outdegree 1..1199,
//! mean 73.9) and Kron_log16 (65k nodes, 5M edges, outdegree 8..36114), both
//! from the DIMACS challenges. The experiments depend on the *shape* of the
//! outdegree distribution — heavy-tailed irregularity — not on node
//! identity, so we generate seeded synthetic graphs with matching shapes and
//! a `scale` knob (scale = 1.0 approximates the paper's sizes; the default
//! harness uses smaller scales to keep simulation times reasonable; the
//! presets in `dpcons_apps::datasets` fix the scale of every experiment).

use crate::graph::CsrGraph;
use crate::rng::Rng64;

/// Power-law citation-network-like graph ("CiteSeer-like"): most nodes have
/// small outdegree, a heavy tail reaches `max_deg`.
pub fn citeseer_like(n: usize, avg_deg: f64, max_deg: usize, seed: u64) -> CsrGraph {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut edges = Vec::with_capacity((n as f64 * avg_deg) as usize);
    // Bounded Pareto via inverse transform, tuned so the mean lands near
    // avg_deg: alpha chosen empirically for the 1..max_deg support.
    let alpha = 1.16f64;
    let xmin = (avg_deg * (alpha - 1.0) / alpha).max(1.0);
    for u in 0..n {
        let uni: f64 = rng.range_f64(1e-9, 1.0);
        let d = (xmin * uni.powf(-1.0 / alpha)) as usize;
        let d = d.clamp(1, max_deg.min(n.saturating_sub(1)).max(1));
        for _ in 0..d {
            let v = rng.range_usize(0, n) as u32;
            edges.push((u as u32, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// R-MAT / Kronecker-like graph ("Kron_log16-like"): highly skewed degrees.
pub fn kron_like(log_n: u32, avg_deg: f64, seed: u64) -> CsrGraph {
    let n = 1usize << log_n;
    let m = (n as f64 * avg_deg) as usize;
    let mut rng = Rng64::seed_from_u64(seed);
    let (a, b, c) = (0.57f64, 0.19f64, 0.19f64);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..log_n {
            u <<= 1;
            v <<= 1;
            let r: f64 = rng.next_f64();
            if r < a {
                // top-left quadrant
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        edges.push((u as u32, v as u32));
    }
    CsrGraph::from_edges(n, &edges)
}

/// Uniform random graph: every node has exactly `deg` random neighbors.
pub fn uniform(n: usize, deg: usize, seed: u64) -> CsrGraph {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n * deg);
    for u in 0..n {
        for _ in 0..deg {
            edges.push((u as u32, rng.range_usize(0, n) as u32));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

/// Star: node 0 points at everyone (the most extreme irregularity).
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (1..n as u32).map(|v| (0, v)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// Chain: `u -> u+1` (degenerate regular case; max BFS depth).
pub fn chain(n: usize) -> CsrGraph {
    let edges: Vec<(u32, u32)> = (0..n.saturating_sub(1) as u32).map(|u| (u, u + 1)).collect();
    CsrGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn citeseer_like_shape() {
        let g = citeseer_like(4000, 16.0, 300, 7);
        g.validate().unwrap();
        let (min, max, mean) = g.degree_stats();
        assert!(min >= 1);
        assert!(max > 4 * mean as i64, "expected heavy tail, max {max} mean {mean}");
        assert!(max <= 300);
        assert!(mean > 4.0 && mean < 64.0, "mean {mean} out of band");
    }

    #[test]
    fn kron_like_is_skewed() {
        let g = kron_like(12, 16.0, 11);
        g.validate().unwrap();
        let (_, max, mean) = g.degree_stats();
        assert!(max as f64 > 10.0 * mean, "kron graphs are extremely skewed");
        assert_eq!(g.n, 4096);
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(citeseer_like(500, 8.0, 100, 3), citeseer_like(500, 8.0, 100, 3));
        assert_eq!(kron_like(9, 8.0, 3), kron_like(9, 8.0, 3));
        assert_ne!(citeseer_like(500, 8.0, 100, 3), citeseer_like(500, 8.0, 100, 4));
    }

    #[test]
    fn star_and_chain_shapes() {
        let s = star(100);
        assert_eq!(s.degree(0), 99);
        assert_eq!(s.degree(50), 0);
        let c = chain(100);
        assert_eq!(c.degree(0), 1);
        assert_eq!(c.degree(99), 0);
        s.validate().unwrap();
        c.validate().unwrap();
    }

    #[test]
    fn uniform_is_regular() {
        let g = uniform(200, 5, 1);
        let (min, max, mean) = g.degree_stats();
        assert_eq!(min, 5);
        assert_eq!(max, 5);
        assert!((mean - 5.0).abs() < 1e-9);
    }
}
