//! Acceptance: for each of the seven apps, the tuner's chosen configuration
//! achieves simulated cycles <= the app's seed hand-written directive (every
//! granularity's default), and the tuned run still matches the CPU oracle.

use dpcons_apps::{all_benchmarks, Profile, RunConfig, Variant};
use dpcons_core::{Granularity, KnobSpace};
use dpcons_sim::AllocKind;
use dpcons_tune::{candidate_config, default_knobs, tune, Budget, TuneOptions};

#[test]
fn tuner_never_loses_to_the_hand_written_directive() {
    let base = RunConfig::default();
    // A lean space: the three hand-written defaults plus a few alternative
    // kernel configurations. The defaults are always part of the space, so
    // the winner is <= them by construction; this test pins that end to end.
    let space = KnobSpace {
        granularities: Granularity::ALL.to_vec(),
        buffers: vec![AllocKind::PreAlloc],
        per_buffer_sizes: vec![None],
        configs: vec![None, Some((13, 64)), Some((52, 256))],
    };
    let opts = TuneOptions {
        base: base.clone(),
        space,
        budget: Budget::default(),
        with_baselines: false,
        cache: None,
    };
    for app in all_benchmarks(Profile::Test) {
        let report = tune(app.as_ref(), &opts)
            .unwrap_or_else(|e| panic!("{}: tuning failed: {e}", app.name()));
        let best =
            report.best_cycles().unwrap_or_else(|| panic!("{}: no feasible candidate", app.name()));
        let model = app.tune_model().expect("all seven apps are tunable");
        for g in Granularity::ALL {
            let default = report.cycles_for(&default_knobs(&model, g)).unwrap_or_else(|| {
                panic!("{}: {}-level default was not evaluated", app.name(), g.label())
            });
            assert!(
                best <= default,
                "{}: tuned {best} cycles worse than the hand-written {}-level directive ({default})",
                app.name(),
                g.label()
            );
        }
        // The tuned variant still matches the oracle end to end.
        let knobs = report.best_knobs().unwrap();
        let cfg = candidate_config(&base, &knobs);
        let out = app.run(Variant::ConsolidatedTuned, &cfg).unwrap();
        assert_eq!(out.output, app.reference(), "{}: tuned output diverged", app.name());
    }
}
