//! Pins the two contracts a serving front end depends on, for every device
//! count — there is one sweep, so each is checked over a list of device sets:
//!
//! 1. `cache_key_for` is the *exact* normalization the sweep uses internally
//!    — an out-of-process dedup table keyed through it can never disagree
//!    with the disk cache.
//! 2. The `WaveHook` progress callback reports every evaluated wave, in
//!    order, and its per-wave counts sum to exactly the evaluated candidates,
//!    also when the evaluation cap ends the sweep inside a wave.

use std::sync::Mutex;

use dpcons_apps::{datasets, Profile, RunConfig, Sssp};
use dpcons_sim::GpuConfig;
use dpcons_tune::{
    cache_key_for, fingerprint, fleet_sweep_with_progress, tune, Budget, FleetOptions, Status,
    TuneOptions, WaveHook, WaveProgress,
};

fn app() -> Sssp {
    Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0)
}

fn space() -> dpcons_core::KnobSpace {
    dpcons_core::KnobSpace {
        granularities: dpcons_core::Granularity::ALL.to_vec(),
        buffers: vec![dpcons_sim::AllocKind::PreAlloc, dpcons_sim::AllocKind::Halloc],
        per_buffer_sizes: vec![None],
        configs: vec![None, Some((13, 64))],
    }
}

/// One device (a plain tune) and a two-device fleet.
fn device_sets() -> [Vec<GpuConfig>; 2] {
    [vec![GpuConfig::k20c()], vec![GpuConfig::k20c(), GpuConfig::k40()]]
}

fn fleet_opts(fleet: Vec<GpuConfig>, budget: Budget) -> FleetOptions {
    FleetOptions { base: RunConfig::default(), space: space(), budget, fleet, cache: None }
}

#[test]
fn report_key_matches_public_cache_key_for() {
    let app = app();
    let fp = fingerprint(&app);
    for devices in device_sets() {
        let opts = fleet_opts(devices.clone(), Budget { max_evals: Some(8), ..Budget::default() });
        let report = fleet_sweep_with_progress(&app, &opts, &WaveHook::default()).unwrap();
        assert_eq!(report.fingerprint, fp);
        // The capture device is always devices[0]; `base.gpu` must not matter.
        let skewed = RunConfig { gpu: GpuConfig::tk1(), ..opts.base.clone() };
        assert_eq!(
            report.key,
            cache_key_for("SSSP", fp, &skewed, &opts.space, &opts.budget, &devices, false),
            "public key normalization diverged from the sweep's internal key"
        );
        // A one-device sweep is the tune of that device: same key.
        if let [device] = &devices[..] {
            let tune_opts = TuneOptions {
                base: RunConfig { gpu: device.clone(), ..opts.base.clone() },
                space: opts.space.clone(),
                budget: opts.budget,
                with_baselines: false,
                cache: None,
            };
            let tuned = tune(&app, &tune_opts).unwrap();
            assert_eq!(tuned.key, report.key);
        }
    }
}

#[test]
fn cache_key_is_sensitive_to_every_request_dimension() {
    let base = RunConfig::default();
    let space = space();
    let budget = Budget::default();
    let [one, ab] = device_sets();
    let key = cache_key_for;
    let k0 = key("SSSP", 7, &base, &space, &budget, &one, false);

    assert_ne!(k0, key("SpMV", 7, &base, &space, &budget, &one, false), "app");
    assert_ne!(k0, key("SSSP", 8, &base, &space, &budget, &one, false), "fingerprint");
    assert_ne!(k0, key("SSSP", 7, &base, &space, &budget, &one, true), "with_baselines");

    let other_thresh = RunConfig { threshold: base.threshold + 1, ..base.clone() };
    assert_ne!(k0, key("SSSP", 7, &other_thresh, &space, &budget, &one, false), "threshold");

    // With `budget.fuel` unset every candidate (and baseline) runs under the
    // base's step budget: 16 steps time everything out, unlimited does not.
    let starved = RunConfig { fuel: Some(16), ..base.clone() };
    assert_ne!(k0, key("SSSP", 7, &starved, &space, &budget, &one, false), "base.fuel");

    let mut narrow = space.clone();
    narrow.buffers.pop();
    assert_ne!(k0, key("SSSP", 7, &base, &narrow, &budget, &one, false), "space");

    let tight = Budget { max_evals: Some(3), ..budget };
    assert_ne!(k0, key("SSSP", 7, &base, &space, &tight, &one, false), "budget");

    // The device dimension: which device, how many, and in which order.
    let kab = key("SSSP", 7, &base, &space, &budget, &ab, false);
    let ba = [GpuConfig::k40(), GpuConfig::k20c()];
    let abc = [GpuConfig::k20c(), GpuConfig::k40(), GpuConfig::titan()];
    assert_ne!(k0, key("SSSP", 7, &base, &space, &budget, &[GpuConfig::tk1()], false), "device");
    assert_ne!(k0, kab, "device count");
    assert_ne!(kab, key("SSSP", 7, &base, &space, &budget, &ba, false), "order");
    assert_ne!(kab, key("SSSP", 7, &base, &space, &budget, &abc, false), "composition");

    // And the normalization is deterministic.
    assert_eq!(k0, key("SSSP", 7, &base, &space, &budget, &one, false));
    assert_eq!(kab, key("SSSP", 7, &base, &space, &budget, &ab, false));
}

#[test]
fn wave_progress_arrives_in_order_and_sums_to_candidates() {
    let app = app();
    for devices in device_sets() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::<WaveProgress>::new()));
        let sink = seen.clone();
        let hook = WaveHook::new(move |p| sink.lock().unwrap().push(p));
        let opts = fleet_opts(devices, Budget::default());
        let report = fleet_sweep_with_progress(&app, &opts, &hook).unwrap();
        let waves = seen.lock().unwrap();

        assert!(!waves.is_empty(), "an uncached sweep must report at least one wave");
        for (i, w) in waves.iter().enumerate() {
            assert_eq!(w.wave, i as u64, "wave indices must arrive 0,1,2,... in order");
            assert!(w.evaluated > 0, "every reported wave evaluated someone");
        }
        // Nothing was skipped under the default (unbounded) budget, so every
        // candidate was evaluated and reported through the hook.
        assert_eq!(report.skipped, 0);
        let ran = report.evaluated + report.failed + report.panicked + report.timed_out;
        assert_eq!(ran as u64, report.functional_runs);
        let sum: usize = waves.iter().map(|w| w.evaluated).sum();
        assert_eq!(sum, ran, "per-wave counts must sum to the evaluated candidate count");
        assert_eq!(waves.last().unwrap().evaluated_total, sum, "running total tracks the sum");
        assert!(waves.iter().any(|w| w.improved), "some wave found an incumbent");
        let planned = report.candidates.len();
        assert!(waves.iter().all(|w| w.planned == planned), "planned is every candidate");
    }
}

#[test]
fn an_evaluation_cap_inside_a_later_wave_cuts_that_wave_short() {
    // 20 is one full wave of 16 plus 4 of the next: the cap must cut the
    // second wave, not round it up to a whole wave or stop after the first.
    let app = app();
    let seen = std::sync::Arc::new(Mutex::new(Vec::<WaveProgress>::new()));
    let sink = seen.clone();
    let hook = WaveHook::new(move |p| sink.lock().unwrap().push(p));
    let opts = FleetOptions {
        space: dpcons_core::KnobSpace::quick(GpuConfig::k20c().num_sms),
        ..fleet_opts(vec![GpuConfig::k20c()], Budget { max_evals: Some(20), ..Budget::default() })
    };
    let report = fleet_sweep_with_progress(&app, &opts, &hook).unwrap();
    let waves = seen.lock().unwrap();

    assert_eq!(report.candidates.len(), 40, "SSSP's quick space");
    let sizes: Vec<usize> = waves.iter().map(|w| w.evaluated).collect();
    assert_eq!(sizes, [16, 4]);
    assert_eq!(waves.last().unwrap().evaluated_total, 20);
    assert_eq!(report.functional_runs, 20, "exactly the capped candidates ran");
    assert_eq!(report.skipped, 20);
    let skipped = report.candidates.iter().filter(|c| c.status == Status::Skipped).count();
    assert_eq!(skipped, 20);
    assert!(report.candidates[20..].iter().all(|c| c.status == Status::Skipped), "the tail is cut");
}
