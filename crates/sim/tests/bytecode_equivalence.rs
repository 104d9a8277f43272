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
//! A third test sweeps the consolidated SSSP child, the kernel shape whose
//! empty warps the VM copies instead of running, over seeded item degrees
//! and block sizes, including partial last warps.
//!
//! This is the same contract `replay_differential.rs` pins for
//! capture-vs-fresh, extended across the executor axis: if the bytecode
//! lowering ever drifted — an elided `SeqCheck`, a reordered charge, a
//! different fuel-spend point — these assertions name the first divergent
//! app/variant instead of letting tuner sweeps silently change.

use std::sync::{Mutex, PoisonError};

use dpcons_apps::{all_benchmarks, AppError, AppOutcome, Profile, RunConfig, Sssp, Variant};
use dpcons_core::{consolidate, Granularity};
use dpcons_ir::{
    compile_module, install_with_engine, lower_module, set_engine_override, ExecEngine, Module,
};
use dpcons_sim::{AllocKind, Engine, FuelMeter, GpuConfig, LaunchSpec, SimError};
use dpcons_workloads::rng::Rng64;

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

/// Seeded sweep of the consolidated SSSP child (block level; every
/// granularity emits the same child) launched on its own over a random
/// graph and item buffer: per-item degrees in [0, 300], half of them at most
/// 32, `blockDim` in {32, 64, 200, 256, 1024} and 1..=52 blocks over 1..=6
/// items, so most launches copy idle blocks. Both executors are pinned per
/// install, so the override lock is not needed; arrays, report, launch DAG
/// or fault and the fuel left must be equal in every case.
#[test]
fn the_consolidated_sssp_child_agrees_across_item_degrees_and_block_sizes() {
    const INF: i64 = 1 << 40;
    let dir = Sssp::directive(Granularity::Block);
    let cons = consolidate(&Sssp::module_dp(), "sssp_parent", &dir, &GpuConfig::k20c(), None)
        .expect("SSSP consolidates");
    let mut module = Module::new();
    module.add(cons.module.get("sssp_child__cons").expect("the consolidated child").clone());
    let cm = compile_module(&module).unwrap();
    let bk = &lower_module(&cm)[0];
    assert!(bk.has_empty_warp_rule() && bk.has_idle_block_rule(), "the sweep must use both rules");

    let mut rng = Rng64::seed_from_u64(0x5EED_0048);
    let (mut copies, mut idle_copies) = (0, 0);
    for case in 0..250 {
        let block = [32u32, 64, 200, 256, 1024][case % 5];
        let grid = rng.range_u64(1, 53) as u32;
        let nodes = rng.range_usize_incl(1, 8);
        let degs: Vec<i64> = (0..nodes)
            .map(|_| {
                let hi = if rng.gen_bool(0.5) { 33 } else { 301 };
                rng.range_i64(0, hi)
            })
            .collect();
        let mut row = vec![0];
        for d in &degs {
            row.push(row.last().unwrap() + d);
        }
        let edges = *row.last().unwrap() as usize;
        let col: Vec<i64> = (0..edges).map(|_| rng.range_usize(0, nodes) as i64).collect();
        let wgt: Vec<i64> = (0..edges).map(|_| rng.range_i64(1, 10)).collect();
        let dist: Vec<i64> = (0..nodes)
            .map(|_| if rng.gen_bool(0.4) { rng.range_i64(0, 50) } else { INF })
            .collect();
        // The item buffer at a random offset: count, then buffered nodes.
        let off = rng.range_usize(0, 40);
        let items: Vec<usize> =
            (0..rng.range_usize_incl(1, 6)).map(|_| rng.range_usize(0, nodes)).collect();
        let mut buf = vec![0; off];
        buf.push(items.len() as i64);
        buf.extend(items.iter().map(|&u| u as i64));
        // Full warps past the widest item never enter its loop; with two of
        // them one at least copies the other's trace.
        let widest = items.iter().map(|&u| degs[u]).max().unwrap_or(0);
        if i64::from(block / 32) - (widest + 31) / 32 >= 2 {
            copies += 1;
        }
        // Blocks past the item count never enter the fetch loop; with two of
        // them the second copies the first's result.
        if grid as usize >= items.len() + 2 {
            idle_copies += 1;
        }

        let arrays = [row, col, wgt, dist, vec![0], buf];
        let run = |exec| {
            let mut e = Engine::new(GpuConfig::k20c(), AllocKind::PreAlloc, 1 << 12);
            e.fuel = FuelMeter::new(Some(1 << 40));
            let handles: Vec<_> =
                arrays.iter().map(|d| e.mem.alloc_array_init("a", d.clone())).collect();
            let ids = install_with_engine(&mut e, &module, Some(exec)).unwrap();
            let mut args: Vec<i64> = handles.iter().map(|&h| h as i64).collect();
            args.push(off as i64);
            let r = e.launch_traced(LaunchSpec::new(ids["sssp_child__cons"], grid, block, args));
            let out: Vec<Vec<i64>> =
                handles.iter().map(|&h| e.mem.slice(h).unwrap().to_vec()).collect();
            (out, r, e.fuel.remaining())
        };
        let (vm, tree) = (run(ExecEngine::Bytecode), run(ExecEngine::Tree));
        assert!(
            vm == tree,
            "case {case} (<<<{grid}, {block}>>>, degrees {degs:?}): the executors diverged"
        );
        assert!(vm.1.is_ok(), "case {case}: {:?}", vm.1);
    }
    assert!(copies > 100, "only {copies} of 250 cases have two empty warps in a block");
    assert!(idle_copies > 200, "only {idle_copies} of 250 cases copy an idle block");
}
