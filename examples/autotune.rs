//! Autotune the `#pragma dp` directive for a benchmark, end to end.
//!
//! ```sh
//! cargo run --release --example autotune
//! ```
//!
//! The tuner enumerates the directive knob space (granularity × buffer
//! allocator × perBufferSize × kernel configuration), evaluates every point
//! in parallel on the simulator (an infeasible one fails with the compiler's
//! or simulator's own error), and returns a ranked report.
//! Running the example twice demonstrates the deterministic results cache:
//! the second sweep is a hit and reproduces the identical report.

use dpcons::apps::{datasets, Benchmark, Profile, RunConfig, Sssp, Variant};
use dpcons::compiler::KnobSpace;
use dpcons::tune::{
    candidate_config, default_knobs, materialize_directive, tune, Budget, Cache, Status,
    TuneOptions,
};

fn main() {
    let app = Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0);
    let cfg = RunConfig::default();
    let opts = TuneOptions {
        base: cfg.clone(),
        space: KnobSpace::quick(cfg.gpu.num_sms),
        budget: Budget { max_evals: Some(32), ..Budget::default() },
        with_baselines: true,
        cache: Some(Cache::new(Some(std::env::temp_dir().join("dpcons-tune-cache")))),
    };

    // -----------------------------------------------------------------
    // 1. Search the knob space and launch under the winner.
    // -----------------------------------------------------------------
    let report = tune(&app, &opts).expect("SSSP is tunable");
    let best = report.best_knobs().expect("a winner exists");
    let tuned_run = app
        .run(Variant::ConsolidatedTuned, &candidate_config(&cfg, &best))
        .expect("the winner ran in the sweep");
    println!(
        "# Autotuning {} on {} — {} candidates ({} evaluated, {} faulted, {} skipped, {} collapsed)\n",
        report.app,
        report.captured_on(),
        report.candidates.len(),
        report.evaluated,
        report.fault_count(),
        report.skipped,
        report.collapsed,
    );

    // -----------------------------------------------------------------
    // 2. The ranked picture: baselines and the best evaluated candidates.
    // -----------------------------------------------------------------
    for (label, cycles) in &report.baselines {
        println!("baseline {label:<10} {cycles:>12} cycles");
    }
    let mut ranked: Vec<_> = report
        .candidates
        .iter()
        .filter_map(|c| match &c.status {
            Status::Evaluated(m) if m.output_ok => Some((m.cycles, c.knobs)),
            _ => None,
        })
        .collect();
    ranked.sort_by_key(|(cycles, knobs)| (*cycles, knobs.label()));
    println!("\ntop candidates:");
    for (cycles, knobs) in ranked.iter().take(5) {
        println!("  {cycles:>12} cycles  {}", knobs.label());
    }

    // -----------------------------------------------------------------
    // 3. The winning directive as pragma text, vs the hand-written default.
    // -----------------------------------------------------------------
    let model = app.tune_model().expect("SSSP exposes a tune model");
    println!("\nwinning pragma:  {}", materialize_directive(&model, &best).to_pragma());
    let best_cycles = report.best_cycles().expect("winner has metrics");
    for g in dpcons::compiler::Granularity::ALL {
        if let Some(d) = report.cycles_for(&default_knobs(&model, g)) {
            println!(
                "vs {:<5} default: {:>12} cycles ({:.2}x)",
                g.label(),
                d,
                d as f64 / best_cycles as f64
            );
        }
    }
    println!(
        "\ntuned end-to-end run: {} cycles over {} host iterations",
        tuned_run.report.total_cycles, tuned_run.host_iterations
    );

    // -----------------------------------------------------------------
    // 4. Repeat the sweep: the deterministic cache makes it O(1).
    // -----------------------------------------------------------------
    let again = tune(&app, &opts).expect("same sweep");
    assert_eq!(again, report, "cache reproduces the identical report");
    println!(
        "\nsecond sweep: cache {} — identical report",
        if again.from_cache { "hit" } else { "miss" }
    );
}
