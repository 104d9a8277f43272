//! Property-style tests for the autotuner (ISSUE 1 satellite):
//!
//! * **determinism** — same inputs produce byte-identical `TuneReport`s,
//!   including under a budget (early stopping is machine-independent);
//! * **cache-hit equivalence** — a cached result equals a fresh search,
//!   through both the in-memory and the on-disk layer;
//! * **pruning soundness** — no pruned candidate would have been feasible:
//!   force-evaluating every pruned point fails.

use std::sync::{Mutex, MutexGuard, PoisonError};

use dpcons_apps::{datasets, Benchmark, Profile, RunConfig, Sssp, TreeDescendants};
use dpcons_core::{consolidate, BufferKind, Granularity, KnobSpace};
use dpcons_sim::{AllocKind, GpuConfig};
use dpcons_tune::{
    default_knobs, enumerate_candidates, evaluate_candidate, fleet_sweep, prune_reason, tune,
    Budget, Cache, FleetOptions, Knobs, Status, TuneOptions,
};

/// `Cache`'s memory layer is process-global and tests run in parallel: every
/// test that clears it, or expects a hit from it, holds this lock.
static MEMORY_LAYER: Mutex<()> = Mutex::new(());

fn memory_layer() -> MutexGuard<'static, ()> {
    MEMORY_LAYER.lock().unwrap_or_else(PoisonError::into_inner)
}

fn sssp() -> Sssp {
    Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0)
}

fn tiny_space() -> KnobSpace {
    KnobSpace {
        granularities: Granularity::ALL.to_vec(),
        buffers: vec![BufferKind::Custom, BufferKind::Halloc],
        per_buffer_sizes: vec![None],
        configs: vec![None, Some((13, 64))],
    }
}

fn opts(space: KnobSpace) -> TuneOptions {
    TuneOptions {
        base: RunConfig::default(),
        space,
        budget: Budget::default(),
        with_baselines: false,
        cache: None,
    }
}

#[test]
fn same_inputs_produce_identical_reports() {
    let app = sssp();
    let o = opts(tiny_space());
    let a = tune(&app, &o).unwrap();
    let b = tune(&app, &o).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.to_text(), b.to_text(), "serialized forms are byte-identical");
    assert!(a.best_knobs().is_some());
    assert!(!a.from_cache && !b.from_cache);
}

#[test]
fn budgeted_search_is_deterministic_and_never_worse_than_defaults() {
    let app = sssp();
    let mut o = opts(KnobSpace::quick(13));
    o.budget = Budget { max_evals: Some(6), patience: Some(1), ..Budget::default() };
    let a = tune(&app, &o).unwrap();
    let b = tune(&app, &o).unwrap();
    assert_eq!(a, b);
    assert!(a.skipped > 0, "the budget should leave part of the quick space unvisited");
    // The paper defaults are always evaluated, so best <= every default.
    let model = app.tune_model().unwrap();
    let best = a.best_cycles().expect("budgeted sweep still finds a winner");
    for g in Granularity::ALL {
        let d = a
            .cycles_for(&default_knobs(&model, g))
            .unwrap_or_else(|| panic!("{}-level default not evaluated", g.label()));
        assert!(best <= d, "best {best} worse than {}-level default {d}", g.label());
    }
}

#[test]
fn cache_hit_equals_fresh_search_across_both_layers() {
    let _memory = memory_layer();
    let app = sssp();
    let dir = std::env::temp_dir().join(format!("dpcons-tune-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = opts(tiny_space());
    o.cache = Some(Cache::new(Some(dir.clone())));

    let fresh = tune(&app, &o).unwrap();
    assert!(!fresh.from_cache);

    // Memory-layer hit.
    let warm = tune(&app, &o).unwrap();
    assert!(warm.from_cache);
    assert_eq!(warm, fresh);

    // Disk-layer hit (simulates a second process).
    Cache::clear_memory();
    let cold = tune(&app, &o).unwrap();
    assert!(cold.from_cache);
    assert_eq!(cold, fresh);
    assert_eq!(cold.to_text(), fresh.to_text());

    // A different dataset must miss: same options, different graph.
    Cache::clear_memory();
    let other = Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xBEEF), 0);
    let miss = tune(&other, &o).unwrap();
    assert!(!miss.from_cache);
    assert_ne!(miss.fingerprint, fresh.fingerprint);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn pruned_candidates_are_never_feasible() {
    // A space salted with statically-infeasible points: an oversized block
    // configuration and a per-buffer size beyond the device heap.
    let app = sssp();
    let base = RunConfig { heap_words: 1 << 16, ..RunConfig::default() };
    let space = KnobSpace {
        granularities: Granularity::ALL.to_vec(),
        buffers: vec![BufferKind::Custom],
        per_buffer_sizes: vec![None, Some(1 << 20)],
        configs: vec![None, Some((13, 2048))],
    };
    let o = TuneOptions {
        base: base.clone(),
        space,
        budget: Budget::default(),
        with_baselines: false,
        cache: None,
    };
    let report = tune(&app, &o).unwrap();
    assert!(report.pruned > 0, "the salted space must trigger pruning");
    assert!(report.best_knobs().is_some(), "feasible points remain");

    let expected = app.reference();
    for c in &report.candidates {
        if let Status::Pruned(reason) = &c.status {
            let st = evaluate_candidate(&app, &base, &c.knobs, &expected);
            assert!(
                matches!(st, Status::Failed(_)),
                "pruned candidate {} (reason: {reason}) evaluated to {st:?} — prune is unsound",
                c.knobs.label()
            );
        }
    }
}

#[test]
fn analysis_prune_matches_the_compiler_rejection() {
    // Warp-level consolidation of a parent that device-synchronizes is
    // rejected by `analyze`; the pruner must report it and `consolidate`
    // (what evaluation would run) must fail identically. Built synthetically
    // since none of the seven apps' parents use cudaDeviceSynchronize.
    use dpcons_apps::TuneModel;
    use dpcons_core::Directive;
    use dpcons_ir::dsl::*;
    use dpcons_ir::Module;

    fn module() -> Module {
        let mut m = Module::new();
        m.add(KernelBuilder::new("child").array("d").scalar("w").body(vec![for_step(
            "j",
            tid(),
            load(v("d"), v("w")),
            ntid(),
            vec![compute(i(1))],
        )]));
        m.add(KernelBuilder::new("parent").array("d").scalar("n").body(vec![
            let_("u", gtid()),
            when(lt(v("u"), v("n")), vec![launch("child", i(1), i(64), vec![v("d"), v("u")])]),
            dpcons_ir::Stmt::DeviceSync,
        ]));
        m
    }
    fn directive(g: Granularity) -> Directive {
        Directive::new(g, &["u"])
    }
    let model = TuneModel { module_dp: module(), parent: "parent", directive };
    let cfg = RunConfig::default();
    let warp = Knobs {
        granularity: Granularity::Warp,
        alloc: AllocKind::PreAlloc,
        per_buffer_size: None,
        config: None,
    };
    let reason = prune_reason(&model, &cfg, &warp).expect("warp x device-sync must be pruned");
    assert!(reason.contains("analysis"), "unexpected reason: {reason}");
    let dir = directive(Granularity::Warp);
    assert!(
        consolidate(&model.module_dp, "parent", &dir, &cfg.gpu, None).is_err(),
        "the compiler must reject exactly what the pruner pruned"
    );
    // Grid level is fine for the same kernel.
    let grid = Knobs { granularity: Granularity::Grid, ..warp };
    assert!(prune_reason(&model, &cfg, &grid).is_none());
}

#[test]
fn fleet_cache_key_covers_every_dimension_including_device() {
    let _memory = memory_layer();
    // Property sweep over the fleet cache: the exact same (app fingerprint,
    // run config, knob space, budget, fleet) hits through both layers;
    // perturbing any single dimension — in particular the new *device*
    // dimension — misses.
    let app = sssp();
    let dir = std::env::temp_dir().join(format!("dpcons-fleet-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base_opts = FleetOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        budget: Budget::default(),
        fleet: vec![GpuConfig::k20c(), GpuConfig::k40()],
        cache: Some(Cache::new(Some(dir.clone()))),
    };

    let fresh = fleet_sweep(&app, &base_opts).unwrap();
    assert!(!fresh.from_cache);
    assert_eq!(fresh.devices, vec!["K20c-like", "K40-like"]);

    // Same key: memory-layer hit, then (fresh process simulated) disk hit.
    let warm = fleet_sweep(&app, &base_opts).unwrap();
    assert!(warm.from_cache, "identical sweep must hit the memory layer");
    assert_eq!(warm, fresh);
    Cache::clear_memory();
    let cold = fleet_sweep(&app, &base_opts).unwrap();
    assert!(cold.from_cache, "identical sweep must hit the disk layer");
    assert_eq!(cold, fresh);
    assert_eq!(cold.to_text(), fresh.to_text());

    // Device dimension: growing the fleet misses...
    let mut grown = base_opts.clone();
    grown.fleet.push(GpuConfig::titan());
    let grown = fleet_sweep(&app, &grown).unwrap();
    assert!(!grown.from_cache, "adding a device must be a new key");
    // ...and so does swapping one device for another of the same count.
    let mut swapped = base_opts.clone();
    swapped.fleet[1] = GpuConfig::titan();
    assert!(!fleet_sweep(&app, &swapped).unwrap().from_cache, "swapping a device must miss");
    // Even a purely structural edit to one device (same name) must miss:
    // the key hashes the full description, not the display name.
    let mut edited = base_opts.clone();
    edited.fleet[1].max_concurrent_kernels = 2;
    assert!(!fleet_sweep(&app, &edited).unwrap().from_cache, "editing a device must miss");

    // Non-device dimensions still miss as before.
    let mut thr = base_opts.clone();
    thr.base.threshold += 1;
    assert!(!fleet_sweep(&app, &thr).unwrap().from_cache, "run config must be keyed");
    let mut budget = base_opts.clone();
    budget.budget = Budget { max_evals: Some(3), patience: None, ..Budget::default() };
    assert!(!fleet_sweep(&app, &budget).unwrap().from_cache, "budget must be keyed");
    let other = Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xBEEF), 0);
    let other_report = fleet_sweep(&other, &base_opts).unwrap();
    assert!(!other_report.from_cache, "dataset fingerprint must be keyed");
    assert_ne!(other_report.fingerprint, fresh.fingerprint);

    // And after all those misses, the original key still hits.
    assert!(fleet_sweep(&app, &base_opts).unwrap().from_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_rejects_empty_and_incompatible_fleets() {
    use dpcons_tune::FleetError;
    let app = sssp();
    let mut opts = FleetOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        budget: Budget::default(),
        fleet: Vec::new(),
        cache: None,
    };
    assert_eq!(fleet_sweep(&app, &opts).unwrap_err(), FleetError::EmptyFleet);

    let mut alien = GpuConfig::k40();
    alien.costs.swap_cycles += 1;
    opts.fleet = vec![GpuConfig::k20c(), alien];
    match fleet_sweep(&app, &opts).unwrap_err() {
        FleetError::IncompatibleDevice { device, .. } => assert_eq!(device, "K40-like"),
        other => panic!("expected IncompatibleDevice, got {other:?}"),
    }
}

#[test]
fn grid_level_duplicates_are_collapsed() {
    let app = TreeDescendants::new(datasets::tree2(Profile::Test));
    let model = app.tune_model().unwrap();
    let space = KnobSpace {
        granularities: vec![Granularity::Grid],
        buffers: vec![BufferKind::Custom, BufferKind::Halloc, BufferKind::Default],
        per_buffer_sizes: vec![None, Some(64), Some(256)],
        configs: vec![None, Some((13, 128))],
    };
    let (cands, collapsed) = enumerate_candidates(&model, &space);
    // 3 buffers x 3 sizes x 2 configs = 18 points, but only the config knob
    // reaches grid-level codegen: 2 distinct candidates survive.
    assert_eq!(cands.len(), 2);
    assert_eq!(collapsed, 16);
    for k in &cands {
        assert_eq!(k.alloc, AllocKind::PreAlloc);
    }
}
