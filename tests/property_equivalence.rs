//! Property-based tests: on randomly generated workloads, every compiler
//! variant must produce exactly the CPU oracle's output, on the bytecode VM
//! and on the tree walker alike, with equal `ProfileReport`s. This is the
//! strongest statement about the consolidation transforms — they are
//! semantics-preserving over the whole input space we can sample — and
//! about the two executors agreeing on it.
//!
//! The offline build has no `proptest`, so sampling is a hand-rolled
//! deterministic sweep: parameters are drawn from a seeded [`Rng64`] stream,
//! which keeps the suite reproducible (failures name the case seed). Named
//! edge inputs sit beside the sweeps.

use std::sync::{Mutex, PoisonError};

use dpcons::apps::{AppError, AppOutcome, Benchmark, BfsRec, RunConfig, Spmv, Sssp};
use dpcons::apps::{TreeDescendants, Variant};
use dpcons::ir::{set_engine_override, ExecEngine};
use dpcons::sim::SimError;
use dpcons::workloads::rng::Rng64;
use dpcons::workloads::{gen, generate_tree, TreeParams};

const CASES: usize = 8;

/// The engine override is process-global; every run in this binary holds
/// this lock while it flips the override.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

fn small_cfg() -> RunConfig {
    RunConfig { threshold: 8, ..Default::default() }
}

/// Run one variant on the bytecode VM and on the tree walker. Both must end
/// alike: the same `ProfileReport` and output, or the same error.
fn run_on_both(
    app: &dyn Benchmark,
    variant: Variant,
    cfg: &RunConfig,
    case: &str,
) -> Result<AppOutcome, AppError> {
    let [vm, tree] = [ExecEngine::Bytecode, ExecEngine::Tree].map(|engine| {
        let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_engine_override(Some(engine));
        let out = app.run(variant, cfg);
        set_engine_override(None);
        out
    });
    let what = format!("[{case}] {} ({})", app.name(), variant.label());
    match (&vm, &tree) {
        (Ok(v), Ok(t)) => {
            assert_eq!(v.report, t.report, "{what}: the tree executor's profile diverged");
            assert_eq!(v.output, t.output, "{what}: the tree executor's output diverged");
        }
        (Err(v), Err(t)) => {
            assert_eq!(v.to_string(), t.to_string(), "{what}: the tree executor's error diverged")
        }
        _ => panic!("{what}: the bytecode VM returned {vm:?}, the tree executor {tree:?}"),
    }
    vm
}

fn check_all_variants(app: &dyn Benchmark, case: &str) {
    let expected = app.reference();
    for variant in Variant::ALL {
        let out = run_on_both(app, variant, &small_cfg(), case).unwrap_or_else(|e| {
            panic!("[{case}] {} ({}) failed: {e}", app.name(), variant.label())
        });
        assert_eq!(
            out.output,
            expected,
            "[{case}] {} diverged from the oracle under {}",
            app.name(),
            variant.label()
        );
    }
}

#[test]
fn bfs_rec_on_a_chain_past_the_nesting_limit() {
    let app = BfsRec::new(gen::chain(64), 0);
    // Every recursive variant nests once per level (consolidation merges the
    // launches of one level, not the levels) and trips the device nesting
    // limit of 24 identically on both executors; flat handles any depth.
    for variant in Variant::ALL {
        match run_on_both(&app, variant, &RunConfig::default(), "chain(64)") {
            Ok(out) if variant == Variant::Flat => assert_eq!(out.output, app.reference()),
            Err(AppError::Sim(SimError::NestingTooDeep { limit: 24, .. }))
                if variant != Variant::Flat => {}
            other => panic!("chain(64) BFS-Rec ({}): {other:?}", variant.label()),
        }
    }
}

#[test]
fn sssp_all_variants_equal_oracle() {
    let mut r = Rng64::seed_from_u64(0x55511);
    for case in 0..CASES {
        let n = r.range_usize(50, 400);
        let avg = r.range_f64(2.0, 12.0);
        let maxd = r.range_usize(20, 120);
        let seed = r.next_u64();
        let g = gen::citeseer_like(n, avg, maxd, seed).with_weights(15, seed ^ 1);
        check_all_variants(&Sssp::new(g, 0), &format!("sssp case {case} seed {seed:#x}"));
    }
    // One heavy node: the star's center delegates every edge.
    check_all_variants(&Sssp::new(gen::star(300).with_weights(3, 9), 0), "star(300)");
}

#[test]
fn spmv_all_variants_equal_oracle() {
    let mut r = Rng64::seed_from_u64(0x59317);
    for case in 0..CASES {
        let n = r.range_usize(50, 300);
        let avg = r.range_f64(2.0, 10.0);
        let seed = r.next_u64();
        let m = gen::citeseer_like(n, avg, 80, seed).with_weights(1 << 18, seed ^ 2);
        let x = Spmv::default_x(n);
        check_all_variants(&Spmv::new(m, x), &format!("spmv case {case} seed {seed:#x}"));
    }
}

#[test]
fn bfs_all_variants_equal_oracle() {
    let mut r = Rng64::seed_from_u64(0xBF5);
    for case in 0..CASES {
        let log_n = r.range_usize(6, 9) as u32;
        let avg = r.range_f64(4.0, 12.0);
        let seed = r.next_u64();
        let g = gen::kron_like(log_n, avg, seed);
        check_all_variants(&BfsRec::new(g, 0), &format!("bfs case {case} seed {seed:#x}"));
    }
}

#[test]
fn tree_descendants_all_variants_equal_oracle() {
    let mut r = Rng64::seed_from_u64(0x7D35C);
    for case in 0..CASES {
        let depth = r.range_usize(1, 5) as u32;
        let min_c = r.range_usize(2, 5);
        let extra = r.range_usize(1, 6);
        let fill = [0.4f64, 0.7, 1.0][r.range_usize(0, 3)];
        let seed = r.next_u64();
        let t = generate_tree(TreeParams {
            depth,
            min_children: min_c,
            max_children: min_c + extra,
            fill_prob: fill,
            seed,
        });
        check_all_variants(
            &TreeDescendants::new(t),
            &format!("tree-descendants case {case} seed {seed:#x}"),
        );
    }
}
