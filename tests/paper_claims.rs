//! Integration tests pinning the paper's qualitative claims.
//!
//! These assert *orderings and shapes*, not absolute numbers: who wins, in
//! which direction each profiling metric moves, and how launch counts shrink
//! with consolidation granularity. Run at the Test dataset profile so the
//! suite stays fast.

use dpcons::apps::{datasets, Benchmark, Profile, RunConfig, Sssp, TreeDescendants, Variant};
use dpcons::compiler::Granularity;

fn sssp() -> Sssp {
    Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0)
}

fn td() -> TreeDescendants {
    TreeDescendants::new(datasets::tree2(Profile::Test))
}

#[test]
fn basic_dp_is_much_slower_than_flat() {
    // Section III / V.C: basic-dp underperforms flat implementations by
    // large factors (80-1100x on the paper's testbed). At the small Test
    // dataset profile the launch queue barely spills into the virtualized
    // pool, so the gap is smaller; the Bench profile reaches two orders of
    // magnitude.
    let app = sssp();
    let cfg = RunConfig::default();
    let basic = app.run(Variant::BasicDp, &cfg).unwrap().report;
    let flat = app.run(Variant::Flat, &cfg).unwrap().report;
    assert!(
        basic.total_cycles > 3 * flat.total_cycles,
        "basic-dp {} vs flat {}",
        basic.total_cycles,
        flat.total_cycles
    );
}

#[test]
fn consolidation_speedup_increases_with_granularity() {
    // Section V.C: grid-level > block-level > warp-level > basic-dp.
    for app in [&sssp() as &dyn Benchmark, &td() as &dyn Benchmark] {
        let cfg = RunConfig::default();
        let basic = app.run(Variant::BasicDp, &cfg).unwrap().report.total_cycles;
        let warp =
            app.run(Variant::Consolidated(Granularity::Warp), &cfg).unwrap().report.total_cycles;
        let block =
            app.run(Variant::Consolidated(Granularity::Block), &cfg).unwrap().report.total_cycles;
        let grid =
            app.run(Variant::Consolidated(Granularity::Grid), &cfg).unwrap().report.total_cycles;
        assert!(warp < basic, "{}: warp {} !< basic {}", app.name(), warp, basic);
        assert!(block < basic, "{}: block {} !< basic {}", app.name(), block, basic);
        assert!(grid < block, "{}: grid {} !< block {}", app.name(), grid, block);
        assert!(grid < warp, "{}: grid {} !< warp {}", app.name(), grid, warp);
    }
}

#[test]
fn launch_counts_shrink_with_granularity() {
    // Section V.D: consolidation reduces child launches to a small fraction
    // of basic-dp (0.07%-14.48% in the paper).
    let app = sssp();
    let cfg = RunConfig::default();
    let basic = app.run(Variant::BasicDp, &cfg).unwrap().report.device_launches;
    let warp =
        app.run(Variant::Consolidated(Granularity::Warp), &cfg).unwrap().report.device_launches;
    let block =
        app.run(Variant::Consolidated(Granularity::Block), &cfg).unwrap().report.device_launches;
    let grid =
        app.run(Variant::Consolidated(Granularity::Grid), &cfg).unwrap().report.device_launches;
    assert!(warp < basic / 2);
    assert!(block < warp);
    assert!(grid < block);
    assert!(grid as usize <= 2 * 20, "grid-level launches one child per host launch");
}

#[test]
fn warp_efficiency_and_occupancy_improve_monotonically() {
    // Sections V.D Figures 8 and 9.
    let app = sssp();
    let cfg = RunConfig::default();
    let basic = app.run(Variant::BasicDp, &cfg).unwrap().report;
    let warp = app.run(Variant::Consolidated(Granularity::Warp), &cfg).unwrap().report;
    let block = app.run(Variant::Consolidated(Granularity::Block), &cfg).unwrap().report;
    let grid = app.run(Variant::Consolidated(Granularity::Grid), &cfg).unwrap().report;
    assert!(basic.warp_exec_efficiency < warp.warp_exec_efficiency);
    assert!(warp.warp_exec_efficiency <= block.warp_exec_efficiency + 1e-9);
    assert!(block.warp_exec_efficiency <= grid.warp_exec_efficiency + 1e-9);
    assert!(basic.achieved_occupancy < grid.achieved_occupancy);
}

#[test]
fn dram_transactions_reduced_by_consolidation() {
    // Figure 10: consolidated kernels perform fewer DRAM transactions.
    let app = sssp();
    let cfg = RunConfig::default();
    let basic = app.run(Variant::BasicDp, &cfg).unwrap().report.dram_transactions;
    for g in Granularity::ALL {
        let c = app.run(Variant::Consolidated(g), &cfg).unwrap().report.dram_transactions;
        assert!(c < basic, "{}: {} !< {}", g.label(), c, basic);
    }
}

#[test]
fn prealloc_beats_default_and_halloc_at_warp_and_block_level() {
    // Figure 5: the pre-allocated pool wins where allocations are frequent;
    // at grid level (single runtime-provided buffer) allocators tie.
    use dpcons::sim::AllocKind;
    let app = sssp();
    let mut cycles = std::collections::HashMap::new();
    for alloc in [AllocKind::Default, AllocKind::Halloc, AllocKind::PreAlloc] {
        for g in Granularity::ALL {
            let cfg = RunConfig { alloc, ..Default::default() };
            let r = app.run(Variant::Consolidated(g), &cfg).unwrap().report;
            cycles.insert((alloc.label(), g.label()), r.total_cycles);
        }
    }
    for g in ["warp", "block"] {
        assert!(
            cycles[&("pre-alloc", g)] < cycles[&("default", g)],
            "{g}: pre-alloc should beat default"
        );
        assert!(
            cycles[&("pre-alloc", g)] <= cycles[&("halloc", g)],
            "{g}: pre-alloc should not lose to halloc"
        );
        assert!(
            cycles[&("halloc", g)] < cycles[&("default", g)],
            "{g}: halloc should beat the default allocator"
        );
    }
    // Grid level: no device-side allocation at all -> identical cycles.
    assert_eq!(cycles[&("default", "grid")], cycles[&("pre-alloc", "grid")]);
    assert_eq!(cycles[&("halloc", "grid")], cycles[&("pre-alloc", "grid")]);
}

#[test]
fn paper_default_policies_are_near_optimal_for_their_granularity() {
    // Figure 6 / Section V.B: KC_1 best for grid, KC_16 for block, KC_32 for
    // warp among the KC policies.
    use dpcons::compiler::ConfigPolicy;
    let app = td();
    let run = |g, p| {
        let cfg = RunConfig { policy: Some(p), ..Default::default() };
        app.run(Variant::Consolidated(g), &cfg).unwrap().report.total_cycles
    };
    // The paper's defaults must be within 25% of the best KC choice for
    // their granularity (the paper reports ~97% of exhaustive).
    for (g, default) in [
        (Granularity::Grid, ConfigPolicy::Kc(1)),
        (Granularity::Block, ConfigPolicy::Kc(16)),
        (Granularity::Warp, ConfigPolicy::Kc(32)),
    ] {
        let d = run(g, default);
        let best = [ConfigPolicy::Kc(1), ConfigPolicy::Kc(16), ConfigPolicy::Kc(32)]
            .into_iter()
            .map(|p| run(g, p))
            .min()
            .unwrap();
        assert!((d as f64) <= best as f64 * 1.25, "{}: default {} vs best {}", g.label(), d, best);
    }
}

#[test]
fn one_to_one_mapping_underperforms_kc_policies() {
    // Section V.B: the varying configuration of 1-1 mapping lowers kernel
    // concurrency and loses to the KC defaults at block/warp level. At the
    // tiny Test profile the two policies run nearly identical schedules, so
    // the ordering is asserted with a 1% noise margin (the bench profile
    // shows the full gap).
    use dpcons::compiler::ConfigPolicy;
    let app = td();
    for g in [Granularity::Warp, Granularity::Block] {
        let kc = RunConfig::default(); // paper defaults per granularity
        let oto = RunConfig { policy: Some(ConfigPolicy::OneToOne), ..Default::default() };
        let kc_c = app.run(Variant::Consolidated(g), &kc).unwrap().report.total_cycles;
        let oto_c = app.run(Variant::Consolidated(g), &oto).unwrap().report.total_cycles;
        assert!(
            kc_c as f64 <= oto_c as f64 * 1.01,
            "{}: KC {} should not lose to 1-1 {}",
            g.label(),
            kc_c,
            oto_c
        );
    }
}

#[test]
fn orderings_hold_on_a_different_device() {
    // Robustness: the consolidation orderings are not artifacts of the
    // K20c configuration — they hold on a K40-class device too.
    use dpcons::sim::GpuConfig;
    let app = sssp();
    let cfg = RunConfig { gpu: GpuConfig::k40(), ..Default::default() };
    let basic = app.run(Variant::BasicDp, &cfg).unwrap().report.total_cycles;
    let flat = app.run(Variant::Flat, &cfg).unwrap().report.total_cycles;
    let grid = app.run(Variant::Consolidated(Granularity::Grid), &cfg).unwrap().report.total_cycles;
    let block =
        app.run(Variant::Consolidated(Granularity::Block), &cfg).unwrap().report.total_cycles;
    assert!(grid < block && block < basic);
    assert!(flat < basic);
    assert!(grid < flat);
    // And results still verify.
    app.verify(Variant::Consolidated(Granularity::Grid), &cfg).unwrap();
}
