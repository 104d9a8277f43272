//! Differential replay harness: the correctness contract the device-fleet
//! what-if sweep rests on.
//!
//! For every benchmark and every variant (flat, basic-dp, and all three
//! consolidation granularities), a run that keeps its record DAGs
//! ([`dpcons_apps::RunConfig::capture`]) must reproduce the *exact*
//! [`dpcons_sim::ProfileReport`] — cycle counts included — of a run that
//! drops them, and re-timing the kept DAGs on the same device via
//! [`dpcons_sim::Engine::replay_timing_on`] (`CaptureSet::replay_on`) must
//! match too. If replay ever drifted from live execution, every fleet
//! datapoint would silently be wrong.

use dpcons_apps::{all_benchmarks, Profile, RunConfig, Variant};
use dpcons_core::{Granularity, Knobs};
use dpcons_ir::dsl::*;
use dpcons_ir::{install, Module};
use dpcons_sim::{AllocKind, ArrayId, Engine, ExecRecord, GpuConfig, LaunchSpec, ProfileReport};

/// capture + replay_timing ≡ launch, and replay_timing_on(same device) ≡
/// both, for every (app, variant) pair.
#[test]
fn capture_replay_matches_fresh_launch_for_every_app_and_granularity() {
    let cfg = RunConfig::default();
    let capture_cfg = RunConfig { capture: true, ..cfg.clone() };
    let n_apps = all_benchmarks(Profile::Test).len();
    std::thread::scope(|scope| {
        for app_idx in 0..n_apps {
            let (cfg, capture_cfg) = (&cfg, &capture_cfg);
            scope.spawn(move || {
                let apps = all_benchmarks(Profile::Test);
                let app = &apps[app_idx];
                for variant in Variant::ALL {
                    let fail = |e| panic!("{} ({}): {e}", app.name(), variant.label());
                    let direct = app.run(variant, cfg).unwrap_or_else(fail);
                    let captured = app.run(variant, capture_cfg).unwrap_or_else(fail);
                    assert_eq!(
                        direct.output,
                        captured.output,
                        "{} ({}): capture mode changed functional output",
                        app.name(),
                        variant.label()
                    );
                    assert_eq!(
                        direct.report,
                        captured.report,
                        "{} ({}): capture+replay diverged from a fresh launch",
                        app.name(),
                        variant.label()
                    );
                    let caps = captured.captures.expect("capture mode fills AppOutcome::captures");
                    assert_eq!(
                        caps.replay_on(&cfg.gpu),
                        direct.report,
                        "{} ({}): replay_timing_on(same device) diverged",
                        app.name(),
                        variant.label()
                    );
                    assert_eq!(caps.kernels_executed(), direct.report.kernels_executed);
                }
            });
        }
    });
}

/// A small dynamic-parallelism "app": parent delegates work to per-thread
/// child launches. Returns a fresh engine, its root spec, and the output
/// array, so every capture below starts from identical initial state.
fn build_app_a() -> (Engine, LaunchSpec, ArrayId) {
    let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 16);
    let out = e.mem.alloc_array_init("out", vec![0; 64]);
    let child = KernelBuilder::new("child").array("out").scalar("base").body(vec![store(
        v("out"),
        add(v("base"), tid()),
        add(v("base"), tid()),
    )]);
    let parent = KernelBuilder::new("parent").array("out").body(vec![when(
        eq(rem(tid(), i(2)), i(0)),
        vec![launch("child", i(1), i(4), vec![v("out"), mul(tid(), i(4))])],
    )]);
    let mut m = Module::new();
    m.add(child);
    m.add(parent);
    let ids = install(&mut e, &m).expect("module installs");
    let spec = LaunchSpec::new(ids["parent"], 2, 8, vec![out as i64]);
    (e, spec, out)
}

/// A structurally different app: two-deep nesting through a device-side
/// sync, different grid shape and argument counts than app A.
fn build_app_b() -> (Engine, LaunchSpec, ArrayId) {
    let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 16);
    let out = e.mem.alloc_array_init("acc", vec![0; 32]);
    let leaf = KernelBuilder::new("leaf")
        .array("acc")
        .scalar("slot")
        .scalar("val")
        .body(vec![atomic_add(None, v("acc"), v("slot"), v("val"))]);
    let mid = KernelBuilder::new("mid").array("acc").scalar("slot").body(vec![
        launch("leaf", i(1), i(2), vec![v("acc"), v("slot"), add(tid(), i(1))]),
        device_sync(),
        atomic_add(None, v("acc"), v("slot"), i(100)),
    ]);
    let root = KernelBuilder::new("root")
        .array("acc")
        .body(vec![when(lt(tid(), i(3)), vec![launch("mid", i(1), i(2), vec![v("acc"), tid()])])]);
    let mut m = Module::new();
    m.add(leaf);
    m.add(mid);
    m.add(root);
    let ids = install(&mut e, &m).expect("module installs");
    let spec = LaunchSpec::new(ids["root"], 1, 4, vec![out as i64]);
    (e, spec, out)
}

/// What one capture leaves behind: its records, its output memory and the
/// report of its launch.
type Capture = (Vec<ExecRecord>, Vec<i64>, ProfileReport);

fn capture(build: fn() -> (Engine, LaunchSpec, ArrayId)) -> Capture {
    let (mut e, spec, out) = build();
    let (report, records) = e.launch_traced(spec).expect("app captures");
    assert_eq!(
        Engine::replay_timing_on(&e.gpu, &records),
        report,
        "replay of the kept records diverged"
    );
    (records, e.mem.slice(out).expect("output array").to_vec(), report)
}

fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("capture thread")
}

/// Recycled state leaks nothing between captures. Two things outlive a
/// capture's records: the VM's thread-local scratch (register file, launch
/// buffer, warp traces) lives as long as its thread, and the engine's
/// `SegSet` lives across every block of a capture. Apps A, B and A again are
/// captured back to back on one thread, and A and B each alone on a fresh
/// thread; records, memory and reports must be identical.
#[test]
fn recycled_scratch_leaks_no_state_across_captures() {
    let fresh_a = on_fresh_thread(|| capture(build_app_a));
    let fresh_b = on_fresh_thread(|| capture(build_app_b));
    assert!(fresh_a.0.len() > 1 && fresh_b.0.len() > 1, "both apps must actually nest launches");

    let [a, b, a_again] =
        on_fresh_thread(|| [capture(build_app_a), capture(build_app_b), capture(build_app_a)]);
    assert_eq!(a, fresh_a, "app A diverged as its thread's first capture");
    assert_eq!(b, fresh_b, "app B inherited state from app A's capture");
    assert_eq!(a_again, fresh_a, "app A inherited state from app B's capture");
}

/// `Engine::replay_timing_on` never populates allocator statistics — they
/// belong to the functional capture — while `CaptureSet::replay_on`
/// re-attaches the captured values (see the engine doc comment this pins).
#[test]
fn raw_replay_leaves_allocator_stats_empty() {
    let apps = all_benchmarks(Profile::Test);
    // A halloc-buffered consolidated run device-allocates its consolidation
    // buffers, so the capture has nonzero allocator stats.
    let model = apps[0].tune_model().expect("SSSP is tunable");
    let warp = Knobs::of(&(model.directive)(Granularity::Warp));
    let tuned = Some(Knobs { alloc: AllocKind::Halloc, ..warp });
    let cfg = RunConfig { tuned, capture: true, ..RunConfig::default() };
    let out = apps[0].run(Variant::ConsolidatedTuned, &cfg).expect("SSSP warp-level halloc runs");
    assert!(out.report.alloc_ops > 0, "expected device allocations in this configuration");
    assert!(out.report.alloc_cycles > 0);
    let caps = out.captures.expect("capture mode fills AppOutcome::captures");
    for records in &caps.launches {
        let raw = Engine::replay_timing_on(&cfg.gpu, records);
        assert_eq!(raw.alloc_ops, 0, "raw replay must not populate alloc_ops");
        assert_eq!(raw.alloc_cycles, 0, "raw replay must not populate alloc_cycles");
    }
    let replayed = caps.replay_on(&cfg.gpu);
    assert_eq!(replayed.alloc_ops, out.report.alloc_ops);
    assert_eq!(replayed.alloc_cycles, out.report.alloc_cycles);
}
