//! Observability contract of the tuner: disabled tracing records **zero**
//! spans, enabled tracing covers the sweep, every wave exactly once, the
//! host-launch `app.launch`/`app.prepare`/`app.reset` stages, capture and
//! timing replay (serial, never the batched entry), and a warm second sweep is visible as cache hits
//! in the metrics registry.
//!
//! This is deliberately the only test in this integration-test binary — the
//! span rings, the tracing flag, and the metrics registry are process-wide,
//! and a lone test owns its whole process, so nothing but these sweeps can
//! perturb what it observes.

use std::path::PathBuf;

use dpcons_apps::{datasets, Profile, RunConfig, Sssp};
use dpcons_sim::GpuConfig;
use dpcons_tune::{fleet_sweep, tune, Budget, Cache, FleetOptions, TuneOptions};

fn opts(cache: Option<PathBuf>) -> TuneOptions {
    let cache = cache.map(|dir| Cache::new(Some(dir)));
    TuneOptions {
        base: RunConfig::default(),
        space: dpcons_core::KnobSpace::quick(RunConfig::default().gpu.num_sms),
        budget: Budget { max_evals: Some(6), ..Budget::default() },
        with_baselines: false,
        cache,
    }
}

#[test]
fn tracing_and_cache_metrics_across_cold_and_warm_sweeps() {
    let app = Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0);
    let dir = std::env::temp_dir().join(format!("dpcons-obs-itest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Tracing disabled (the default): a full sweep records no spans at all.
    assert!(!dpcons_obs::tracing_enabled());
    let cold = tune(&app, &opts(Some(dir.clone()))).expect("cold sweep");
    assert!(cold.evaluated > 0);
    assert!(dpcons_obs::take_spans().is_empty(), "disabled tracing must record zero spans");
    // Metrics are not gated on tracing: the sweep's grid-level candidates
    // already counted the words their host-launch resets wrote.
    let reset_words = dpcons_obs::counter("app.reset_words").get();
    assert!(reset_words > 0, "grid-level candidates reset their launch state");

    // The cold sweep missed the cache and then wrote its report.
    let misses = dpcons_obs::counter("tune.cache.misses").get();
    let writes = dpcons_obs::counter("tune.cache.writes").get();
    assert!(misses >= 1, "cold sweep must miss the empty cache");
    assert!(writes >= 1, "cold sweep must write its report to the cache");
    let hits_before = dpcons_obs::counter("tune.cache.hits").get();

    // 2. Tracing enabled: the identical sweep is a warm cache hit, and the
    // spans cover the sweep itself. (A cache hit skips the waves, so wave
    // spans are asserted on a cache-less sweep below.)
    dpcons_obs::set_tracing(true);
    let warm = tune(&app, &opts(Some(dir.clone()))).expect("warm sweep");
    let hits = dpcons_obs::counter("tune.cache.hits").get();
    assert!(hits > hits_before, "warm identical sweep must hit the cache");
    assert_eq!(warm.to_text(), cold.to_text(), "cache hit reproduces the report byte-exactly");

    let uncached = tune(&app, &opts(None)).expect("uncached sweep");
    assert!(uncached.evaluated > 0);
    // The warm sweep hit the cache, so every wave span so far is the
    // uncached sweep's: each of its waves is traced exactly once, as 0..n.
    let mut spans = dpcons_obs::take_spans();
    let mut waves: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "tune.wave")
        .map(|s| s.arg.expect("wave number"))
        .collect();
    waves.sort_unstable();
    assert!(!waves.is_empty(), "the uncached sweep must trace its waves");
    assert_eq!(waves, (0..waves.len() as u64).collect::<Vec<_>>(), "waves traced once each");
    // A multi-device sweep is the same pipeline: same spans, and every
    // functional run lands in the candidate-latency histogram too.
    let latency = dpcons_obs::histogram("tune.candidate_us");
    let recorded = latency.count();
    let o = opts(None);
    let fleet_opts = FleetOptions {
        base: o.base,
        space: o.space,
        budget: o.budget,
        fleet: vec![GpuConfig::k20c(), GpuConfig::k40()],
        cache: None,
    };
    let wide = fleet_sweep(&app, &fleet_opts).expect("two-device sweep");
    assert!(wide.functional_runs > 0);
    assert!(latency.count() - recorded >= wide.functional_runs, "/fleet-only daemons see latency");
    dpcons_obs::set_tracing(false);

    spans.extend(dpcons_obs::take_spans());
    // The two-device sweep captures each candidate, replays it, and re-times
    // it on the second device with the serial `CaptureSet::replay_on`, never
    // through the batched parallel entry.
    for name in ["app.launch", "sim.capture", "sim.replay"] {
        assert!(spans.iter().any(|s| s.name == name), "trace must contain a {name} span");
    }
    assert!(
        !spans.iter().any(|s| s.name == "tune.replay.batch"),
        "the sweep must not re-time through the batched replay"
    );
    let sweeps = spans.iter().filter(|s| s.name == "tune.sweep").count();
    assert_eq!(sweeps, 3, "all three traced sweeps open a tune.sweep span");
    // Wave spans nest under the sweep.
    assert!(spans.iter().filter(|s| s.name == "tune.wave").all(|w| w.depth > 0));
    // The sweep has grid-level candidates, and SSSP launches its entry kernel
    // once per relaxation round: the first launch of a session prepares the
    // consolidation state, every later one resets it, each inside its span.
    let prepares = spans.iter().filter(|s| s.name == "app.prepare").count();
    let resets = spans.iter().filter(|s| s.name == "app.reset").count();
    assert!(prepares > 0, "no app.prepare span in a sweep with consolidated candidates");
    assert!(resets >= prepares, "SSSP relaunches: {resets} resets for {prepares} sessions");
    // A reset writes count headers and counters, never the 4 M-word pool.
    // (Warp- and block-level loops keep no host-side state and write none.)
    let words = (dpcons_obs::counter("app.reset_words").get() - reset_words) as usize;
    assert!(words > 0 && words < 64 * (prepares + resets), "{words} words reset");
    // Every evaluated candidate's latency landed in the histogram.
    assert!(latency.count() >= uncached.evaluated as u64 + wide.functional_runs);

    // 3. The export of those spans is a well-formed Chrome trace, one
    // complete event per span.
    let json = dpcons_obs::chrome_trace_json(&spans);
    let stats = dpcons_obs::validate_chrome_trace(&json).expect("trace must validate");
    assert_eq!(stats.span_count, spans.len());
    assert!(stats.names.contains(&"tune.wave".to_string()));

    let _ = std::fs::remove_dir_all(&dir);
}
