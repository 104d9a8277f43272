//! Cross-crate pipeline tests: pragma text → analysis → transformation →
//! generated source → execution, plus determinism of the whole stack.

use dpcons::apps::{all_benchmarks, AppError, Profile, RunConfig, Variant};
use dpcons::compiler::{consolidate, Directive, Granularity};
use dpcons::ir::module_to_string;
use dpcons::sim::{GpuConfig, SimError};

#[test]
fn every_benchmark_and_variant_matches_the_oracle() {
    let cfg = RunConfig::default();
    for app in all_benchmarks(Profile::Test) {
        for variant in Variant::ALL {
            app.verify(variant, &cfg)
                .unwrap_or_else(|e| panic!("{} ({}) failed: {e}", app.name(), variant.label()));
        }
    }
}

#[test]
fn full_stack_is_deterministic() {
    let run = || {
        let cfg = RunConfig::default();
        let apps = all_benchmarks(Profile::Test);
        let app = &apps[0];
        let out = app.run(Variant::Consolidated(Granularity::Block), &cfg).unwrap();
        (out.output, out.report.total_cycles, out.report.dram_transactions)
    };
    assert_eq!(run(), run());
}

#[test]
fn generated_source_round_trips_through_the_pragma() {
    // The directive printed back from its parse must produce the same
    // consolidated module.
    let module = dpcons::apps::Sssp::module_dp();
    let gpu = GpuConfig::k20c();
    for g in Granularity::ALL {
        let d1 = dpcons::apps::Sssp::directive(g);
        let d2 = Directive::parse(&d1.to_pragma()).unwrap();
        let c1 = consolidate(&module, "sssp_parent", &d1, &gpu, None).unwrap();
        let c2 = consolidate(&module, "sssp_parent", &d2, &gpu, None).unwrap();
        assert_eq!(module_to_string(&c1.module), module_to_string(&c2.module));
    }
}

#[test]
fn consolidated_modules_emit_inspectable_cuda() {
    // Every app's grid-level consolidation prints source containing the
    // global-barrier idiom; warp/block contain the buffer machinery.
    let gpu = GpuConfig::k20c();
    let cases: Vec<(dpcons::ir::Module, &str, Directive)> = vec![
        (
            dpcons::apps::Sssp::module_dp(),
            "sssp_parent",
            dpcons::apps::Sssp::directive(Granularity::Grid),
        ),
        (
            dpcons::apps::TreeDescendants::module_dp(),
            "td_rec",
            dpcons::apps::TreeDescendants::directive(Granularity::Grid),
        ),
    ];
    for (m, parent, d) in cases {
        let c = consolidate(&m, parent, &d, &gpu, None).unwrap();
        let src = module_to_string(&c.module);
        assert!(src.contains("atomicAdd(&__cons_counter["), "{parent}: barrier missing");
        assert!(src.contains("cons"), "{parent}: consolidated kernel missing");
    }
    let d = dpcons::apps::Sssp::directive(Granularity::Block);
    let c = consolidate(&dpcons::apps::Sssp::module_dp(), "sssp_parent", &d, &gpu, None).unwrap();
    let src = module_to_string(&c.module);
    assert!(src.contains("__cons_alloc_block"));
    assert!(src.contains("__syncthreads();"));
}

#[test]
fn profile_reports_are_internally_consistent() {
    let cfg = RunConfig::default();
    for app in all_benchmarks(Profile::Test) {
        for variant in Variant::ALL {
            let out = app.run(variant, &cfg).unwrap();
            let r = &out.report;
            assert!(r.total_cycles > 0);
            assert!(r.kernels_executed >= r.host_launches);
            assert_eq!(r.kernels_executed, r.host_launches + r.device_launches);
            assert!((0.0..=1.0).contains(&r.warp_exec_efficiency), "{}", app.name());
            assert!(
                (0.0..=1.0 + 1e-9).contains(&r.achieved_occupancy),
                "{} {}: occupancy {}",
                app.name(),
                variant.label(),
                r.achieved_occupancy
            );
            if variant == Variant::Flat {
                assert_eq!(r.device_launches, 0)
            }
        }
    }
}

#[test]
fn threshold_controls_delegation_volume() {
    let apps = all_benchmarks(Profile::Test);
    let app = &apps[0]; // SSSP
    let low = RunConfig { threshold: 2, ..Default::default() };
    let high = RunConfig { threshold: 1_000_000, ..Default::default() };
    let low_launches = app.run(Variant::BasicDp, &low).unwrap().report.device_launches;
    let high_launches = app.run(Variant::BasicDp, &high).unwrap().report.device_launches;
    assert!(low_launches > high_launches * 5, "{low_launches} vs {high_launches}");
    assert_eq!(high_launches, 0, "an infinite threshold disables DP entirely");
}

#[test]
fn small_pool_overflows_recursion_cleanly_and_leaves_loops_unchanged() {
    // A 64 K-word pool holds every irregular-loop buffer at this scale, but
    // only level 0 of the recursive apps' default 64 K-item level stride:
    // their first insertion into level 1 is a typed out-of-bounds fault.
    let grid = Variant::Consolidated(Granularity::Grid);
    let small = RunConfig { pool_words: 1 << 16, ..Default::default() };
    for app in all_benchmarks(Profile::Test) {
        let got = app.verify(grid, &small);
        if matches!(app.name(), "BFS-Rec" | "TH" | "TD") {
            match got {
                Err(AppError::Sim(SimError::OutOfBounds { array, index, len, .. })) => {
                    assert_eq!(array, "__cons_pool", "{}", app.name());
                    assert_eq!(len, 1 << 16);
                    assert!(index >= len as i64);
                }
                other => panic!("{}: expected a pool overflow, got {other:?}", app.name()),
            }
        } else {
            let full = app.verify(grid, &RunConfig::default()).unwrap();
            let report = got.unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            assert_eq!(report, full, "{}: pool capacity must not reach the profile", app.name());
        }
    }
}
