//! Fault-injection proof for the robust sweep substrate (ISSUE 7 tentpole):
//! under deterministically injected candidate panics, fuel exhaustion,
//! artificial delays, and cache corruption, sweeps must
//!
//! * still complete and return a report,
//! * record every faulted candidate with its outcome class
//!   (`Panicked` / `TimedOut` / `Failed`), and
//! * pick the same winner as the fault-free sweep whenever the winner itself
//!   was not faulted.
//!
//! Injection decisions are pure functions of `(plan seed, kind, app,
//! candidate label)`, so everything in here is deterministic — no flaky
//! probabilistic assertions. The fault plan is process-global, so every
//! sweep below runs inside a `fault::install` scope (a zero-rate plan is a
//! behavioral no-op); scopes serialize on an internal lock, which keeps
//! concurrently running tests from seeing each other's plans.

use dpcons_apps::{datasets, Benchmark, Profile, RunConfig, Sssp};
use dpcons_core::{BufferKind, Granularity, KnobSpace};
use dpcons_sim::GpuConfig;
use dpcons_tune::fault::{self, FaultPlan};
use dpcons_tune::{
    fleet_sweep, tune, Budget, Cache, FleetOptions, FleetReport, Status, TuneOptions, TuneReport,
};

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

fn opts() -> TuneOptions {
    TuneOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        // Unbounded budget: every candidate is visited, so winner identity
        // cannot shift through early-stopping interactions with faults.
        budget: Budget::default(),
        with_baselines: false,
        cache: None,
    }
}

/// A plan that injects nothing — used to wrap fault-free sweeps in the same
/// serialization scope as faulted ones.
fn no_faults() -> FaultPlan {
    FaultPlan::new(0)
}

fn tune_with(plan: FaultPlan, app: &Sssp, o: &TuneOptions) -> TuneReport {
    let _scope = fault::install(plan);
    tune(app, o).expect("the sweep must complete, faults or not")
}

fn fleet_with(plan: FaultPlan, app: &Sssp, o: &FleetOptions) -> FleetReport {
    let _scope = fault::install(plan);
    fleet_sweep(app, o).expect("the fleet sweep must complete, faults or not")
}

/// Labels of candidates that actually ran in a fault-free sweep (pruned ones
/// never reach the injection hooks).
fn evaluated_labels(report: &TuneReport) -> Vec<String> {
    report
        .candidates
        .iter()
        .filter(|c| matches!(c.status, Status::Evaluated(_)))
        .map(|c| c.knobs.label())
        .collect()
}

/// Find a plan seed where the fault-free winner is NOT faulted but at least
/// one other evaluated candidate is — the interesting case for the
/// winner-stability property. Pure search over pure functions: stable.
fn seed_sparing_the_winner(plan: &FaultPlan, app: &str, winner: &str, labels: &[String]) -> u64 {
    (0..1000)
        .find(|&seed| {
            let p = FaultPlan { seed, ..*plan };
            !fault::outcome_faulted(&p, app, winner)
                && labels.iter().any(|l| fault::outcome_faulted(&p, app, l))
        })
        .expect("some seed in 0..1000 faults a non-winner candidate")
}

#[test]
fn injected_panics_are_isolated_recorded_and_spare_the_winner() {
    let app = sssp();
    let o = opts();
    let clean = tune_with(no_faults(), &app, &o);
    let winner = clean.best_knobs().expect("fault-free sweep has a winner").label();
    let labels = evaluated_labels(&clean);

    let base_plan = FaultPlan { panic_rate: 0.4, ..FaultPlan::new(0) };
    let seed = seed_sparing_the_winner(&base_plan, app.name(), &winner, &labels);
    let faulted = tune_with(FaultPlan { seed, ..base_plan }, &app, &o);

    assert!(faulted.panicked > 0, "the chosen seed injects at least one panic");
    let panic_rows =
        faulted.candidates.iter().filter(|c| matches!(c.status, Status::Panicked(_))).count();
    assert_eq!(faulted.panicked, panic_rows, "the count matches the rows");
    for (_, c) in faulted.faulted() {
        match &c.status {
            Status::Panicked(msg) => {
                assert!(msg.contains("injected candidate panic"), "payload preserved: {msg}")
            }
            other => panic!("panic-only plan produced a non-panic fault: {other:?}"),
        }
    }
    // Winner stability: the winner was not faulted, so it must be the same.
    assert_eq!(faulted.best_knobs().expect("winner survives").label(), winner);
    assert_eq!(faulted.best_cycles(), clean.best_cycles());
}

#[test]
fn injected_fuel_exhaustion_times_candidates_out_deterministically() {
    let app = sssp();
    let o = opts();
    let clean = tune_with(no_faults(), &app, &o);
    let winner = clean.best_knobs().expect("winner").label();
    let labels = evaluated_labels(&clean);

    let base_plan = FaultPlan { fuel_rate: 0.4, ..FaultPlan::new(0) };
    let seed = seed_sparing_the_winner(&base_plan, app.name(), &winner, &labels);
    let faulted = tune_with(FaultPlan { seed, ..base_plan }, &app, &o);

    assert!(faulted.timed_out > 0, "forced tiny fuel budgets must exhaust");
    for (_, c) in faulted.faulted() {
        match &c.status {
            Status::TimedOut(msg) => {
                assert!(msg.contains("fuel exhausted"), "outcome names the fuel budget: {msg}")
            }
            other => panic!("fuel-only plan produced a non-timeout fault: {other:?}"),
        }
    }
    assert_eq!(faulted.best_knobs().expect("winner survives").label(), winner);

    // Same plan, same decisions: the faulted report replays byte-identically.
    let again = tune_with(FaultPlan { seed, ..base_plan }, &app, &o);
    assert_eq!(again.to_text(), faulted.to_text());
}

#[test]
fn soft_deadline_times_out_delayed_candidates() {
    let app = sssp();
    let mut o = opts();
    o.budget.max_candidate_ms = Some(5);
    let plan = FaultPlan { delay_rate: 1.0, delay_ms: 20, ..FaultPlan::new(6) };
    let faulted = tune_with(plan, &app, &o);
    assert!(faulted.timed_out > 0, "a 20ms injected delay must blow a 5ms deadline");
    assert!(faulted
        .faulted()
        .all(|(_, c)| matches!(&c.status, Status::TimedOut(m) if m.contains("soft deadline"))));
}

#[test]
fn corrupted_cache_writes_are_quarantined_and_recomputed() {
    let app = sssp();
    let dir = std::env::temp_dir().join(format!("dpcons-faultcache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = opts();
    // Distinct cache key from every other test in this binary (the key hashes
    // the run config), so concurrent tests cannot cross-serve entries.
    o.base.threshold += 7;
    o.cache = Some(Cache::new(Some(dir.clone())));

    let corrupt_counter = dpcons_obs::counter("tune.cache.corrupt");
    let quarantine_counter = dpcons_obs::counter("tune.cache.quarantined");
    let (corrupt0, quarantine0) = (corrupt_counter.get(), quarantine_counter.get());

    // Sweep with every cache write corrupted on disk.
    let fresh = tune_with(FaultPlan { cache_corrupt_rate: 1.0, ..FaultPlan::new(7) }, &app, &o);
    assert!(!fresh.from_cache);

    // Cold read (fresh process simulated): the corrupt file must be detected,
    // quarantined to *.corrupt, treated as a miss, and the sweep recomputed
    // to the identical report.
    Cache::clear_memory();
    let recomputed = tune_with(no_faults(), &app, &o);
    assert!(!recomputed.from_cache, "corrupt entry must read as a miss");
    assert_eq!(recomputed.to_text(), fresh.to_text());
    assert!(corrupt_counter.get() > corrupt0, "corruption must be counted");
    assert!(quarantine_counter.get() > quarantine0, "quarantine must be counted");
    let quarantined: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "corrupt"))
        .collect();
    assert!(!quarantined.is_empty(), "the bad file is kept for post-mortem");

    // The healthy rewrite now hits from disk.
    Cache::clear_memory();
    assert!(tune_with(no_faults(), &app, &o).from_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_fault_campaign_meets_the_acceptance_bar() {
    // The acceptance scenario: panics + fuel exhaustion + corrupted cache
    // files injected into >= 10% of candidates; the sweep completes, reports
    // every faulted candidate with its outcome class, and preserves the
    // winner when the winner was spared.
    let app = sssp();
    let dir = std::env::temp_dir().join(format!("dpcons-mixedfault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = opts();
    o.base.threshold += 13; // distinct cache key (see above)
    let clean = tune_with(no_faults(), &app, &o);
    let winner = clean.best_knobs().expect("winner").label();
    let labels = evaluated_labels(&clean);

    let base_plan = FaultPlan {
        panic_rate: 0.25,
        fuel_rate: 0.25,
        cache_corrupt_rate: 1.0,
        ..FaultPlan::new(0)
    };
    let seed = seed_sparing_the_winner(&base_plan, app.name(), &winner, &labels);
    let plan = FaultPlan { seed, ..base_plan };

    let evaluated_n = labels.len();
    let injected = labels.iter().filter(|l| fault::outcome_faulted(&plan, app.name(), l)).count();
    assert!(
        injected * 10 >= evaluated_n,
        "campaign must fault >= 10% of evaluated candidates ({injected}/{evaluated_n})"
    );

    o.cache = Some(Cache::new(Some(dir.clone())));
    let faulted = tune_with(plan, &app, &o);
    assert!(!faulted.from_cache);
    assert_eq!(faulted.fault_count(), faulted.panicked + faulted.timed_out + faulted.failed);
    assert!(faulted.panicked + faulted.timed_out > 0, "outcome-changing faults landed");
    for (_, c) in faulted.faulted() {
        assert!(
            matches!(c.status, Status::Panicked(_) | Status::TimedOut(_) | Status::Failed(_)),
            "every fault row carries its outcome class"
        );
    }
    assert_eq!(faulted.best_knobs().expect("winner survives").label(), winner);

    // The faulted report's cache write was itself corrupted: a cold re-run
    // under the same plan quarantines it, recomputes, and converges on the
    // identical faulted report — self-healing plus determinism in one step.
    Cache::clear_memory();
    let replay = tune_with(plan, &app, &o);
    assert!(!replay.from_cache, "corrupted faulted entry must miss");
    assert_eq!(replay.to_text(), faulted.to_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_sweep_survives_faults_and_keeps_unfaulted_winners() {
    let app = sssp();
    let fo = FleetOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        budget: Budget::default(),
        fleet: vec![GpuConfig::k20c(), GpuConfig::k40()],
        cache: None,
    };
    let clean = fleet_with(no_faults(), &app, &fo);
    let winners: Vec<Option<String>> =
        (0..clean.devices.len()).map(|d| clean.winner_knobs(d).map(|k| k.label())).collect();
    let labels: Vec<String> = clean
        .candidates
        .iter()
        .filter(|c| matches!(c.status, Status::Evaluated(_)))
        .map(|c| c.knobs.label())
        .collect();

    let base_plan = FaultPlan { panic_rate: 0.3, fuel_rate: 0.2, ..FaultPlan::new(0) };
    let seed = (0..1000)
        .find(|&s| {
            let p = FaultPlan { seed: s, ..base_plan };
            winners.iter().flatten().all(|w| !fault::outcome_faulted(&p, app.name(), w))
                && labels.iter().any(|l| fault::outcome_faulted(&p, app.name(), l))
        })
        .expect("some seed spares every per-device winner while faulting another candidate");
    let faulted = fleet_with(FaultPlan { seed, ..base_plan }, &app, &fo);

    assert!(faulted.fault_count() > 0, "the chosen seed faults at least one candidate");
    for (_, c) in faulted.faulted() {
        assert!(matches!(c.status, Status::Panicked(_) | Status::TimedOut(_) | Status::Failed(_)));
    }
    for (d, w) in winners.iter().enumerate() {
        assert_eq!(
            faulted.winner_knobs(d).map(|k| k.label()),
            *w,
            "device {d} winner must be stable when unfaulted"
        );
    }
}
