//! Property-style tests for the autotuner (ISSUE 1 satellite):
//!
//! * **determinism** — same inputs produce byte-identical `TuneReport`s,
//!   including under a budget (early stopping is machine-independent);
//! * **cache-hit equivalence** — a cached result equals a fresh search,
//!   through both the in-memory and the on-disk layer;
//! * **infeasible points** — a statically infeasible candidate is evaluated
//!   like any other, fails with the compiler's or simulator's own error, and
//!   never changes the winner;
//! * **enumeration** — candidates walk the knob product in row-major order
//!   behind the paper defaults, skip degenerate launch shapes, keep the app
//!   directive's `work` and sizes, and hold each distinct program the
//!   compiler generates from the knob product exactly once.

use std::sync::{Mutex, MutexGuard, PoisonError};

use dpcons_apps::{
    benchmark_by_name, datasets, Benchmark, Profile, RunConfig, Sssp, TreeDescendants,
};
use dpcons_core::{consolidate, Granularity, KnobSpace};
use dpcons_ir::ast::{visit_stmts, Stmt};
use dpcons_ir::module_to_string;
use dpcons_sim::{AllocKind, GpuConfig};
use dpcons_tune::{
    default_knobs, enumerate_candidates, fleet_sweep, materialize_directive, tune, Budget, Cache,
    FleetOptions, Knobs, Status, TuneOptions,
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
        buffers: vec![AllocKind::PreAlloc, AllocKind::Halloc],
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
    o.budget = Budget { max_evals: Some(6), ..Budget::default() };
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
fn infeasible_candidates_fail_and_never_win() {
    // A space salted with statically-infeasible points: an oversized block
    // configuration and a per-buffer size beyond the device heap. Nothing is
    // rejected up front; each such point runs, fails with the compiler's or
    // simulator's own error, and leaves the winner of the feasible
    // sub-space unchanged.
    let app = sssp();
    let base = RunConfig { heap_words: 1 << 16, ..RunConfig::default() };
    let salted = KnobSpace {
        granularities: Granularity::ALL.to_vec(),
        buffers: vec![AllocKind::PreAlloc],
        per_buffer_sizes: vec![None, Some(1 << 20)],
        configs: vec![None, Some((13, 2048))],
    };
    let feasible =
        KnobSpace { per_buffer_sizes: vec![None], configs: vec![None], ..salted.clone() };
    let sweep = |space: KnobSpace| {
        let o = TuneOptions {
            base: base.clone(),
            space,
            budget: Budget::default(),
            with_baselines: false,
            cache: None,
        };
        tune(&app, &o).unwrap()
    };
    let report = sweep(salted);

    let is_salted = |k: &Knobs| {
        k.config == Some((13, 2048))
            || (k.granularity != Granularity::Grid && k.per_buffer_size == Some(1 << 20))
    };
    let mut salted_rows = 0;
    for c in report.candidates.iter().filter(|c| is_salted(&c.knobs)) {
        salted_rows += 1;
        assert!(
            matches!(c.status, Status::Failed(_)),
            "infeasible candidate {} evaluated to {:?}",
            c.knobs.label(),
            c.status
        );
    }
    // cfg=13x2048 at each of the three granularities, plus pbs=1048576
    // under either config at warp and block.
    assert_eq!(salted_rows, 7, "the salted space must reach evaluation");
    assert_eq!(report.failed, salted_rows, "only the salted points fail");

    let clean = sweep(feasible);
    assert!(clean.best_knobs().is_some(), "feasible points remain");
    assert_eq!(report.best_knobs(), clean.best_knobs());
    assert_eq!(report.best_cycles(), clean.best_cycles());
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
    budget.budget = Budget { max_evals: Some(3), ..Budget::default() };
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
        FleetError::IncompatibleDevice { device } => assert_eq!(device, "K40-like"),
        other => panic!("expected IncompatibleDevice, got {other:?}"),
    }
}

#[test]
fn grid_level_duplicates_are_collapsed() {
    let app = TreeDescendants::new(datasets::tree2(Profile::Test));
    let model = app.tune_model().unwrap();
    let space = KnobSpace {
        granularities: vec![Granularity::Grid],
        buffers: vec![AllocKind::PreAlloc, AllocKind::Halloc, AllocKind::Default],
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

/// A candidate is one program. Every point of the quick knob product, on
/// K20c, is consolidated and keyed by the printed consolidated module plus
/// the allocator when that module allocates on the device heap: every
/// point's program is some candidate's, and no two candidates share one.
#[test]
fn candidates_are_the_distinct_programs_of_the_knob_product() {
    let gpu = GpuConfig::k20c();
    let space = KnobSpace::quick(gpu.num_sms);
    for app in dpcons_apps::all_benchmarks(Profile::Test) {
        let model = app.tune_model().unwrap();
        let program = |k: &Knobs| {
            let d = materialize_directive(&model, k);
            let cons = consolidate(&model.module_dp, model.parent, &d, &gpu, None).unwrap();
            let mut allocates = false;
            for kernel in &cons.module.kernels {
                visit_stmts(&kernel.body, &mut |s| allocates |= matches!(s, Stmt::Alloc { .. }));
            }
            (module_to_string(&cons.module), allocates.then_some(d.buffer))
        };
        let (cands, _) = enumerate_candidates(&model, &space);
        let programs: Vec<_> = cands.iter().map(program).collect();
        for (i, p) in programs.iter().enumerate() {
            if let Some(j) = programs[..i].iter().position(|q| q == p) {
                let (a, b) = (cands[j].label(), cands[i].label());
                panic!("{}: candidates {a} and {b} generate one program", app.name());
            }
        }
        for &granularity in &space.granularities {
            let own = default_knobs(&model, granularity).per_buffer_size;
            for &alloc in &space.buffers {
                for &pbs in &space.per_buffer_sizes {
                    for &config in &space.configs {
                        let per_buffer_size = pbs.or(own);
                        let k = Knobs { granularity, alloc, per_buffer_size, config };
                        let name = app.name();
                        assert!(
                            programs.contains(&program(&k)),
                            "{name} {} is no candidate's program",
                            k.label()
                        );
                    }
                }
            }
        }
    }
}

/// Candidates walk the knob product row-major (granularity, buffer,
/// per-buffer size, launch shape) behind the paper defaults, which lead.
#[test]
fn candidates_walk_the_knob_product_in_row_major_order() {
    let model = sssp().tune_model().unwrap();
    let space = KnobSpace {
        granularities: vec![Granularity::Warp, Granularity::Block],
        buffers: vec![AllocKind::PreAlloc, AllocKind::Halloc],
        per_buffer_sizes: vec![None, Some(256)],
        configs: vec![None, Some((13, 128))],
    };
    let (cands, collapsed) = enumerate_candidates(&model, &space);
    assert_eq!((cands.len(), collapsed), (space.len(), 0));
    let mut want = Vec::new();
    for &granularity in &space.granularities {
        for &alloc in &space.buffers {
            for &per_buffer_size in &space.per_buffer_sizes {
                for &config in &space.configs {
                    want.push(Knobs { granularity, alloc, per_buffer_size, config });
                }
            }
        }
    }
    // The paper defaults, `{warp,block}/pre-alloc/pbs=-/cfg=-`, lead.
    let (defaults, rest): (Vec<Knobs>, Vec<Knobs>) =
        want.into_iter().partition(|k| *k == default_knobs(&model, k.granularity));
    assert_eq!(defaults.len(), 2);
    assert_eq!(cands, [defaults, rest].concat());
    assert_eq!(enumerate_candidates(&model, &space), (cands, 0), "deterministic");
}

#[test]
fn candidates_skip_degenerate_launch_shapes() {
    let space = KnobSpace {
        granularities: vec![Granularity::Warp],
        buffers: vec![AllocKind::PreAlloc],
        per_buffer_sizes: vec![None],
        configs: vec![Some((0, 128)), Some((4, 0)), Some((4, 128))],
    };
    let (cands, collapsed) = enumerate_candidates(&sssp().tune_model().unwrap(), &space);
    assert_eq!(collapsed, 0);
    assert_eq!(cands.iter().map(|k| k.config).collect::<Vec<_>>(), [Some((4, 128))]);
}

/// A candidate keeps the app directive's `work` and `totalSize` clauses and,
/// where the point sets none, its `perBufferSize`.
#[test]
fn candidates_keep_the_directives_work_and_sizes() {
    let app = benchmark_by_name("BFS-Rec", Profile::Test).unwrap();
    let model = app.tune_model().unwrap();
    let (cands, _) = enumerate_candidates(&model, &KnobSpace::quick(13));
    for k in &cands {
        let base = (model.directive)(k.granularity);
        let d = materialize_directive(&model, k);
        assert_eq!((&d.work, d.total_size), (&base.work, base.total_size), "{}", k.label());
        assert!(d.total_size.is_some());
    }
    let own = default_knobs(&model, Granularity::Warp).per_buffer_size.expect("BFS-Rec sizes");
    let sized = |n| cands.iter().filter(|k| k.per_buffer_size == Some(n)).count();
    assert!(sized(own) > 0 && sized(128) > 0, "`None` keeps {own}; `Some(128)` overrides it");
}
