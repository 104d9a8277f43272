//! Seeded inputs: the seven apps over generated datasets at two scales, and
//! the `serve_mix` request list. `--seed` reaches the program under test only
//! through what is generated here.

use std::time::Instant;

use dpcons::apps::{
    pagerank, Benchmark, BfsRec, GraphColoring, PageRank, Spmv, Sssp, TreeDescendants, TreeHeights,
};
use dpcons::workloads::rng::Rng64;
use dpcons::workloads::{gen, generate_tree, TreeParams};

/// Dataset scale. `S` has the shapes of `Profile::Test`, where a consolidated
/// datapoint is setup-dominated; `M` is several times larger, so that
/// functional execution dominates a basic-dp or flat run, and small enough
/// that a run can afford several instances of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    S,
    M,
}

/// App names in the fixed order every workload uses.
pub const APP_NAMES: [&str; 7] = ["SSSP", "SpMV", "PageRank", "GC", "BFS-Rec", "TH", "TD"];

/// The seven apps over one seed's datasets, with the CPU references the timed
/// path checks against.
pub struct Inputs {
    pub apps: Vec<Box<dyn Benchmark>>,
    pub refs: Vec<Vec<i64>>,
    /// Nodes and edges summed over the four generated datasets.
    pub nodes: u64,
    pub edges: u64,
    pub gen_ms: f64,
    pub reference_ms: f64,
}

/// Generate instance `instance` of the datasets for (`scale`, `seed`), build
/// the apps and compute their CPU references.
pub fn build(scale: Scale, seed: u64, instance: u64) -> Inputs {
    let mut rng = Rng64::seed_from_u64(seed.wrapping_mul(16).wrapping_add(instance));
    let mut sub = || rng.next_u64();
    let started = Instant::now();
    // Trees are depth 3 with a narrow fan-out: the Test-profile shape (depth
    // 5, 4-9 children, half the interior empty) varies threefold in size
    // from seed to seed, which no number of rounds averages out. `tree1`
    // keeps the half-empty interior of the paper's dataset1, `tree2` the
    // dense one of dataset2.
    let tree = |fanout: (usize, usize), fill_prob: f64, seed: u64| {
        let (min_children, max_children) = fanout;
        generate_tree(TreeParams { depth: 3, min_children, max_children, fill_prob, seed })
    };
    let (cite, kron, tree1, tree2) = match scale {
        Scale::S => (
            gen::citeseer_like(1200, 8.0, 150, sub()),
            gen::kron_like(9, 8.0, sub()),
            tree((14, 16), 0.5, sub()),
            tree((12, 13), 1.0, sub()),
        ),
        Scale::M => (
            gen::citeseer_like(4000, 12.0, 600, sub()),
            gen::kron_like(10, 10.0, sub()),
            tree((44, 52), 0.5, sub()),
            tree((38, 42), 1.0, sub()),
        ),
    };
    let nodes = (cite.n + kron.n + tree1.n + tree2.n) as u64;
    let edges =
        (cite.num_edges() + kron.num_edges() + tree1.children.len() + tree2.children.len()) as u64;
    let spmv_matrix = cite.clone().with_weights(1 << 18, sub());
    let spmv_x = Spmv::default_x(spmv_matrix.n);
    let apps: Vec<Box<dyn Benchmark>> = vec![
        Box::new(Sssp::new(cite.clone().with_weights(15, sub()), 0)),
        Box::new(Spmv::new(spmv_matrix, spmv_x)),
        Box::new(PageRank::new(cite, pagerank::DEFAULT_ITERS)),
        Box::new(GraphColoring::new(kron.symmetrize(), sub())),
        Box::new(BfsRec::new(kron, 0)),
        Box::new(TreeHeights::new(tree1)),
        Box::new(TreeDescendants::new(tree2)),
    ];
    let gen_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let refs = apps.iter().map(|a| a.reference()).collect();
    let reference_ms = started.elapsed().as_secs_f64() * 1e3;
    debug_assert!(apps.iter().map(|a| a.name()).eq(APP_NAMES));
    Inputs { apps, refs, nodes, edges, gen_ms, reference_ms }
}

/// Devices of the what-if fleet, capture device first.
pub const FLEET: [&str; 4] = ["k20c", "k40", "titan", "tk1"];

/// The four request classes of `serve_mix`; they are its op keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqClass {
    TuneCold,
    FleetCold,
    /// Duplicate sent right after its original, while that is in flight.
    DupInflight,
    /// Duplicate sent at least [`DONE_GAP`] requests after its original.
    DupDone,
}

impl ReqClass {
    pub fn label(self) -> &'static str {
        match self {
            ReqClass::TuneCold => "tune_cold",
            ReqClass::FleetCold => "fleet_cold",
            ReqClass::DupInflight => "dup_inflight",
            ReqClass::DupDone => "dup_done",
        }
    }
}

/// One distinct sweep request. The daemon serves only its built-in datasets,
/// so the seed shapes the mix of requests, not the data behind them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSpec {
    pub app: usize,
    /// One device is a `/tune` request, several a `/fleet` request.
    pub devices: Vec<&'static str>,
    pub max_evals: u64,
}

/// The requests of one `serve_mix` round. `keys[k]` is request `k`: an index
/// into `specs` and its class; the first `specs.len()` keys are the fresh
/// requests in `specs` order, the duplicates follow. The set is fixed per
/// seed; [`Mix::order`] arranges it anew for every round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mix {
    pub specs: Vec<ReqSpec>,
    pub keys: Vec<(usize, ReqClass)>,
    seed: u64,
}

/// A done-duplicate follows its original by at least this many requests, so
/// with two closed-loop clients the original has finished.
pub const DONE_GAP: usize = 12;

/// The `/tune` requests every app gets, in order: (device, `max_evals`).
const TUNES: [(&str, u64); 3] = [("k20c", 4), ("k40", 8), ("titan", 10)];
/// `max_evals` of every `/fleet` request; it names the whole [`FLEET`].
const FLEET_EVALS: u64 = 6;

/// Seeded request set: the first `tunes_per_app` (at most 3) of [`TUNES`] and
/// one `/fleet` request per app, plus `dups` in-flight and `dups` done
/// duplicates of requests the seed picks. Every app gets the same devices
/// and budgets: which device captures and how many candidates run change a
/// request's work severalfold, so drawing them per seed would make the seed,
/// not the program, decide how long a round takes.
pub fn request_mix(seed: u64, tunes_per_app: usize, dups: usize) -> Mix {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5E21_7E0D);
    let mut specs = Vec::new();
    for app in 0..APP_NAMES.len() {
        for &(device, max_evals) in &TUNES[..tunes_per_app] {
            specs.push(ReqSpec { app, devices: vec![device], max_evals });
        }
        specs.push(ReqSpec { app, devices: FLEET.to_vec(), max_evals: FLEET_EVALS });
    }
    assert!(dups + DONE_GAP <= specs.len(), "list too short for {dups} done-duplicates");
    let mut keys: Vec<(usize, ReqClass)> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| {
            (i, if s.devices.len() == 1 { ReqClass::TuneCold } else { ReqClass::FleetCold })
        })
        .collect();
    // No request is repeated twice.
    let mut repeated: Vec<usize> = (0..specs.len()).collect();
    shuffle(&mut repeated, &mut rng);
    keys.extend(repeated[..dups].iter().map(|&s| (s, ReqClass::DupDone)));
    keys.extend(repeated[dups..2 * dups].iter().map(|&s| (s, ReqClass::DupInflight)));
    Mix { specs, keys, seed }
}

impl Mix {
    /// The order of round `round`, as indices into `keys`: a seeded shuffle
    /// in which every in-flight duplicate directly follows its original and
    /// every done-duplicate follows its original by at least [`DONE_GAP`].
    /// The order changes from round to round because a request's latency
    /// depends on what the other client sent beside it; over the rounds each
    /// request meets different neighbours.
    pub fn order(&self, round: u64) -> Vec<usize> {
        let mut rng = Rng64::seed_from_u64(self.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let fresh = self.specs.len();
        let mut order: Vec<usize> = (0..fresh).collect();
        shuffle(&mut order, &mut rng);
        let dups =
            |class| self.keys.iter().enumerate().skip(fresh).filter(move |(_, k)| k.1 == class);
        // Originals of done-duplicates move into the head of the list.
        let head = fresh - DONE_GAP;
        let done_specs: Vec<usize> = dups(ReqClass::DupDone).map(|(_, k)| k.0).collect();
        for &spec in &done_specs {
            let at = order.iter().position(|&k| k == spec).expect("fresh request is listed");
            if at >= head {
                let free: Vec<usize> =
                    (0..head).filter(|&p| !done_specs.contains(&order[p])).collect();
                order.swap(at, free[rng.range_usize(0, free.len())]);
            }
        }
        for (key, &(spec, _)) in dups(ReqClass::DupDone) {
            let at = order.iter().position(|&k| k == spec).expect("fresh request is listed");
            order.insert(rng.range_usize_incl(at + DONE_GAP, order.len()), key);
        }
        // In-flight duplicates go in last: an insertion only ever widens the
        // gap between a done-duplicate and its original.
        for (key, &(spec, _)) in dups(ReqClass::DupInflight) {
            let at = order.iter().position(|&k| k == spec).expect("fresh request is listed");
            order.insert(at + 1, key);
        }
        order
    }
}

fn shuffle<T>(xs: &mut [T], rng: &mut Rng64) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.range_usize_incl(0, i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_repeat_per_seed_and_differ_across_seeds() {
        let a = build(Scale::S, 7, 0);
        let b = build(Scale::S, 7, 0);
        let c = build(Scale::S, 8, 0);
        assert_eq!(a.refs, b.refs);
        assert_eq!((a.nodes, a.edges), (b.nodes, b.edges));
        assert_ne!(a.refs, c.refs);
        assert_ne!(a.refs, build(Scale::S, 7, 1).refs, "instances of one seed differ");
        assert!(a.apps.iter().map(|x| x.name()).eq(APP_NAMES));
        assert!(a.refs.iter().all(|r| !r.is_empty()));
    }

    #[test]
    fn mix_repeats_per_seed_and_differs_across_seeds_and_rounds() {
        let mix = request_mix(3, 2, 2);
        assert_eq!(mix, request_mix(3, 2, 2));
        assert_ne!(mix.keys, request_mix(4, 2, 2).keys);
        assert_eq!(mix.order(5), request_mix(3, 2, 2).order(5));
        assert_ne!(mix.order(5), mix.order(6));
    }

    #[test]
    fn mix_has_the_specified_classes_and_placement() {
        for seed in 0..50 {
            let (tunes, dups) = (2, 3);
            let mix = request_mix(seed, tunes, dups);
            let count = |c| mix.keys.iter().filter(|k| k.1 == c).count();
            assert_eq!(count(ReqClass::TuneCold), 7 * tunes);
            assert_eq!(count(ReqClass::FleetCold), 7);
            assert_eq!(count(ReqClass::DupInflight), dups);
            assert_eq!(count(ReqClass::DupDone), dups);
            // Between a fifth and a quarter of the list repeats an earlier request.
            let share = 2.0 * dups as f64 / mix.keys.len() as f64;
            assert!((0.2..=0.25).contains(&share), "duplicate share {share}");
            // Fresh requests are pairwise distinct, every app appears equally
            // often, and no request is repeated twice.
            for (i, a) in mix.specs.iter().enumerate() {
                assert!(mix.specs[i + 1..].iter().all(|b| a != b), "seed {seed}: repeated spec");
                assert!(mix.keys.iter().filter(|k| k.0 == i).count() <= 2, "seed {seed}");
            }
            for app in 0..7 {
                assert_eq!(mix.specs.iter().filter(|s| s.app == app).count(), tunes + 1);
            }
            for round in 0..4 {
                let order = mix.order(round);
                let mut sorted = order.clone();
                sorted.sort_unstable();
                assert!(sorted.iter().copied().eq(0..mix.keys.len()), "every key exactly once");
                for (pos, &key) in order.iter().enumerate() {
                    let (spec, class) = mix.keys[key];
                    let original = order.iter().position(|&k| k == spec).unwrap();
                    match class {
                        ReqClass::DupInflight => assert_eq!(pos, original + 1, "seed {seed}"),
                        ReqClass::DupDone => assert!(pos >= original + DONE_GAP, "seed {seed}"),
                        _ => assert_eq!(pos, original),
                    }
                }
            }
        }
    }
}
