//! Bytecode-VM ⇄ tree-walker differential suite: the exact-equivalence
//! guardrail for the flat bytecode executor.
//!
//! Every benchmark × every variant runs through **both** functional
//! executors (the process-wide engine override, serialized behind one mutex
//! because the override is process-global), and every observable must
//! be bit-identical: the app's functional output (memory state), the full
//! [`dpcons_sim::ProfileReport`] (cycle / active-thread / DRAM counters),
//! and the captured [`dpcons_sim::ExecRecord`] DAGs block by block, segment
//! by segment. A second test pins fuel-watchdog parity: the minimal fuel
//! budget that lets a run complete is the same number in both executors, and
//! one step less faults with `FuelExhausted` in both.
//!
//! This is the same contract `replay_differential.rs` pins for
//! capture-vs-fresh, extended across the executor axis: if the bytecode
//! lowering ever drifted — an elided `SeqCheck`, a reordered charge, a
//! different fuel-spend point — these assertions name the first divergent
//! app/variant instead of letting tuner sweeps silently change.

use std::sync::{Mutex, PoisonError};

use dpcons_apps::{all_benchmarks, AppError, AppOutcome, Profile, RunConfig, Variant};
use dpcons_ir::{set_engine_override, ExecEngine};
use dpcons_sim::SimError;

/// The engine override is process-global; every test in this binary holds
/// this lock while flipping it.
static ENGINE_LOCK: Mutex<()> = Mutex::new(());

/// Run every (app, variant) pair with capture enabled under one executor.
/// Apps run on parallel scoped threads (the override is read per block, and
/// it stays fixed for the whole sweep).
fn run_everything(engine: ExecEngine) -> Vec<(String, String, AppOutcome)> {
    set_engine_override(Some(engine));
    let cfg = RunConfig { capture: true, ..RunConfig::default() };
    let n_apps = all_benchmarks(Profile::Test).len();
    let mut out: Vec<(String, String, AppOutcome)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n_apps)
            .map(|app_idx| {
                let cfg = &cfg;
                scope.spawn(move || {
                    let apps = all_benchmarks(Profile::Test);
                    let app = &apps[app_idx];
                    Variant::ALL
                        .into_iter()
                        .map(|variant| {
                            let o = app.run(variant, cfg).unwrap_or_else(|e| {
                                panic!("{} ({}): {e}", app.name(), variant.label())
                            });
                            (app.name().to_string(), variant.label(), o)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("app sweep thread panicked"));
        }
    });
    set_engine_override(None);
    out
}

/// Assert two full sweeps are bit-identical in every observable: functional
/// output, host loop, profile report, allocator stats, and every captured
/// `ExecRecord` DAG.
fn assert_sweeps_identical(a: &[(String, String, AppOutcome)], b: &[(String, String, AppOutcome)]) {
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    for ((app, variant, x), (app_b, variant_b, y)) in a.iter().zip(b) {
        assert_eq!((app, variant), (app_b, variant_b), "sweep order must be deterministic");
        let ctx = format!("{app} ({variant})");
        assert_eq!(x.output, y.output, "{ctx}: functional output diverged");
        assert_eq!(x.host_iterations, y.host_iterations, "{ctx}: host loop diverged");
        assert_eq!(x.report, y.report, "{ctx}: profile (cycles/active/dram) diverged");
        let (xc, yc) = (
            x.captures.as_ref().expect("capture enabled"),
            y.captures.as_ref().expect("capture enabled"),
        );
        assert_eq!(xc.alloc_ops, yc.alloc_ops, "{ctx}: allocator ops diverged");
        assert_eq!(xc.alloc_cycles, yc.alloc_cycles, "{ctx}: allocator cycles diverged");
        assert_eq!(xc.launches.len(), yc.launches.len(), "{ctx}: host-launch count diverged");
        for (li, (xl, yl)) in xc.launches.iter().zip(&yc.launches).enumerate() {
            assert_eq!(xl, yl, "{ctx}: captured ExecRecord DAG of host launch {li} diverged");
        }
    }
}

/// All 7 apps × all variants: outputs, reports, and captured `ExecRecord`
/// DAGs are bit-identical between the bytecode VM and the tree walker.
#[test]
fn both_executors_agree_on_every_app_and_variant() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let bytecode = run_everything(ExecEngine::Bytecode);
    let tree = run_everything(ExecEngine::Tree);
    assert_sweeps_identical(&bytecode, &tree);
}

/// Fuel/watchdog parity: both executors spend functional fuel at identical
/// points, so the minimal completing budget is the same step count and one
/// step less faults with `FuelExhausted` in both.
#[test]
fn fuel_exhaustion_fires_at_the_same_step_count_in_both_executors() {
    let _guard = ENGINE_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let completes = |fuel: u64| -> bool {
        let apps = all_benchmarks(Profile::Test);
        let cfg = RunConfig { fuel: Some(fuel), ..RunConfig::default() };
        match apps[0].run(Variant::BasicDp, &cfg) {
            Ok(_) => true,
            Err(AppError::Sim(SimError::FuelExhausted { limit })) => {
                assert_eq!(limit, fuel, "fault must name the configured budget");
                false
            }
            Err(e) => panic!("unexpected error under fuel budget {fuel}: {e}"),
        }
    };
    // Smallest completing budget per executor, by doubling + binary search.
    let min_fuel = |engine: ExecEngine| -> u64 {
        set_engine_override(Some(engine));
        let mut hi = 64u64;
        while !completes(hi) {
            hi = hi.checked_mul(2).expect("fuel bound overflow");
            assert!(hi < 1 << 40, "runaway fuel search");
        }
        let mut lo = 0u64; // fuel 0 always exhausts (one step per block)
        while lo + 1 < hi {
            let mid = lo + (hi - lo) / 2;
            if completes(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        set_engine_override(None);
        hi
    };
    let b = min_fuel(ExecEngine::Bytecode);
    let t = min_fuel(ExecEngine::Tree);
    assert_eq!(b, t, "minimal completing fuel budget must match across executors");
    assert!(b > 1, "the probe workload must actually spend fuel");
}
