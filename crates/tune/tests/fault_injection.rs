//! Fault-injection proof for the robust sweep substrate: under candidate
//! panics, fuel exhaustion, artificial delays, failing baselines and
//! corrupted cache files, sweeps must
//!
//! * still complete and return a report,
//! * record every faulted candidate with its outcome class
//!   (`Panicked` / `TimedOut` / `Failed`), and
//! * pick the same winner as the fault-free sweep whenever the winner itself
//!   was not faulted.
//!
//! The library has no fault hooks. Faults come from outside it: [`Faulty`]
//! is a `Benchmark` that wraps the real SSSP app and misbehaves for the
//! candidates it names by knobs label, and the cache tests overwrite the
//! entry file a sweep wrote. Fault sets are explicit labels taken from a
//! fault-free sweep, so every assertion is deterministic.
//!
//! Tests run in parallel threads. Each cache test has its own cache key (its
//! own `threshold`) and directory, and none expects a hit from the
//! process-global memory layer, so one test clearing that layer cannot
//! change another's outcome.

use std::collections::HashMap;
use std::time::Duration;

use dpcons_apps::{
    datasets, AppError, AppOutcome, Benchmark, Profile, RunConfig, Sssp, TuneModel, Variant,
};
use dpcons_core::{BufferKind, ConfigPolicy, Granularity, KnobSpace};
use dpcons_sim::GpuConfig;
use dpcons_tune::{
    fleet_sweep, tune, Budget, Cache, FleetOptions, Knobs, Status, TuneOptions, TuneReport,
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

/// What [`Faulty`] does to one candidate.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Panic instead of running.
    Panic,
    /// Run under a 4-step fuel budget, which every real run exhausts.
    Fuel,
    /// Sleep this long, then run normally.
    Delay(Duration),
}

/// SSSP that faults the candidates named in `faults` (by knobs label) and,
/// with `broken_baselines`, panics on the basic-dp baseline and fails the
/// no-dp one. Every other call goes straight to SSSP.
struct Faulty {
    app: Sssp,
    faults: HashMap<String, Fault>,
    broken_baselines: bool,
}

impl Faulty {
    fn new(faults: impl IntoIterator<Item = (String, Fault)>) -> Faulty {
        Faulty { app: sssp(), faults: faults.into_iter().collect(), broken_baselines: false }
    }
}

/// The knobs label of the candidate a sweep runs under `cfg`, rebuilt from
/// what `candidate_config` sets; `None` for a baseline run.
fn candidate_label(cfg: &RunConfig) -> Option<String> {
    let tuned = cfg.tuned?;
    let config = match cfg.policy {
        Some(ConfigPolicy::Custom(b, t)) => Some((b, t)),
        _ => None,
    };
    let knobs = Knobs {
        granularity: tuned.granularity,
        alloc: cfg.alloc,
        per_buffer_size: tuned.per_buffer_size,
        config,
    };
    Some(knobs.label())
}

impl Benchmark for Faulty {
    fn name(&self) -> &'static str {
        self.app.name()
    }

    fn reference(&self) -> Vec<i64> {
        self.app.reference()
    }

    fn tune_model(&self) -> Option<TuneModel> {
        self.app.tune_model()
    }

    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError> {
        match variant {
            Variant::BasicDp if self.broken_baselines => panic!("injected baseline panic"),
            Variant::Flat if self.broken_baselines => {
                return Err(AppError::Driver("injected baseline failure".to_string()))
            }
            _ => {}
        }
        let Some(label) = candidate_label(cfg) else {
            return self.app.run(variant, cfg);
        };
        match self.faults.get(&label) {
            Some(Fault::Panic) => panic!("injected candidate panic for {label}"),
            Some(Fault::Fuel) => self.app.run(variant, &RunConfig { fuel: Some(4), ..cfg.clone() }),
            Some(Fault::Delay(d)) => {
                std::thread::sleep(*d);
                self.app.run(variant, cfg)
            }
            None => self.app.run(variant, cfg),
        }
    }
}

fn tune_ok(app: &dyn Benchmark, o: &TuneOptions) -> TuneReport {
    tune(app, o).expect("the sweep must complete, faults or not")
}

/// Labels of candidates that actually ran in a fault-free sweep (pruned
/// ones never reach `Benchmark::run`), except those in `spared`.
fn evaluated_labels_except(report: &TuneReport, spared: &[String]) -> Vec<String> {
    report
        .candidates
        .iter()
        .filter(|c| matches!(c.status, Status::Evaluated(_)))
        .map(|c| c.knobs.label())
        .filter(|l| !spared.contains(l))
        .collect()
}

/// Fault every label, alternating panics and fuel exhaustion.
fn panics_and_fuel(labels: Vec<String>) -> Faulty {
    let kinds = [Fault::Panic, Fault::Fuel];
    Faulty::new(labels.into_iter().enumerate().map(|(i, l)| (l, kinds[i % 2])))
}

#[test]
fn injected_panics_are_isolated_recorded_and_spare_the_winner() {
    let o = opts();
    let clean = tune_ok(&sssp(), &o);
    let winner = clean.best_knobs().expect("fault-free sweep has a winner").label();
    let victims = evaluated_labels_except(&clean, std::slice::from_ref(&winner));
    let app = Faulty::new(victims.iter().map(|l| (l.clone(), Fault::Panic)));
    let faulted = tune_ok(&app, &o);

    assert!(faulted.panicked > 0, "every candidate but the winner panics");
    let panic_rows =
        faulted.candidates.iter().filter(|c| matches!(c.status, Status::Panicked(_))).count();
    assert_eq!(faulted.panicked, panic_rows, "the count matches the rows");
    assert_eq!(panic_rows, victims.len(), "one row per injected panic");
    for (_, c) in faulted.faulted() {
        match &c.status {
            Status::Panicked(msg) => {
                assert!(msg.contains("injected candidate panic"), "payload preserved: {msg}")
            }
            other => panic!("panic-only faults produced a non-panic outcome: {other:?}"),
        }
    }
    // Winner stability: the winner was not faulted, so it must be the same.
    assert_eq!(faulted.best_knobs().expect("winner survives").label(), winner);
    assert_eq!(faulted.best_cycles(), clean.best_cycles());
}

#[test]
fn injected_fuel_exhaustion_times_candidates_out_deterministically() {
    let o = opts();
    let clean = tune_ok(&sssp(), &o);
    let winner = clean.best_knobs().expect("winner").label();
    let victims = evaluated_labels_except(&clean, std::slice::from_ref(&winner));
    let app = Faulty::new(victims.into_iter().map(|l| (l, Fault::Fuel)));
    let faulted = tune_ok(&app, &o);

    assert!(faulted.timed_out > 0, "forced tiny fuel budgets must exhaust");
    for (_, c) in faulted.faulted() {
        match &c.status {
            Status::TimedOut(msg) => {
                assert!(msg.contains("fuel exhausted"), "outcome names the fuel budget: {msg}")
            }
            other => panic!("fuel-only faults produced a non-timeout outcome: {other:?}"),
        }
    }
    assert_eq!(faulted.best_knobs().expect("winner survives").label(), winner);

    // Same faults, same outcomes: the faulted report replays byte-identically.
    let again = tune_ok(&app, &o);
    assert_eq!(again.to_text(), faulted.to_text());
}

#[test]
fn soft_deadline_times_out_delayed_candidates() {
    let mut o = opts();
    let every = evaluated_labels_except(&tune_ok(&sssp(), &o), &[]);
    let app = Faulty::new(every.into_iter().map(|l| (l, Fault::Delay(Duration::from_millis(20)))));
    o.budget.max_candidate_ms = Some(5);
    let faulted = tune_ok(&app, &o);
    assert!(faulted.timed_out > 0, "a 20ms injected delay must blow a 5ms deadline");
    assert!(faulted
        .faulted()
        .all(|(_, c)| matches!(&c.status, Status::TimedOut(m) if m.contains("soft deadline"))));
}

#[test]
fn failing_baselines_are_omitted_and_never_fatal() {
    let o = TuneOptions { with_baselines: true, ..opts() };
    let clean = tune_ok(&sssp(), &o);
    assert!(clean.baseline("basic-dp").is_some() && clean.baseline("no-dp").is_some());

    let app = Faulty { broken_baselines: true, ..Faulty::new([]) };
    let faulted = tune(&app, &o).expect("a failed or panicking baseline is never fatal");
    assert_eq!(faulted.baseline("basic-dp"), None, "a panicking baseline is omitted");
    assert_eq!(faulted.baseline("no-dp"), None, "a failed baseline is omitted");
    assert_eq!(faulted.best_knobs(), clean.best_knobs());
    assert_eq!(faulted.best_cycles(), clean.best_cycles());
}

/// Overwrite the disk entry `report`'s sweep wrote with garbage.
fn corrupt_entry(dir: &std::path::Path, report: &TuneReport) -> std::path::PathBuf {
    let entry = dir.join(format!("{:016x}.tune", report.key));
    assert!(entry.exists(), "the sweep wrote its entry");
    std::fs::write(&entry, "not a cache entry\n").expect("corrupt the entry");
    entry
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

    let fresh = tune_ok(&app, &o);
    assert!(!fresh.from_cache);
    let entry = corrupt_entry(&dir, &fresh);

    // Cold read (fresh process simulated): the corrupt file must be detected,
    // quarantined to *.corrupt, treated as a miss, and the sweep recomputed
    // to the identical report.
    Cache::clear_memory();
    let recomputed = tune_ok(&app, &o);
    assert!(!recomputed.from_cache, "corrupt entry must read as a miss");
    assert_eq!(recomputed.to_text(), fresh.to_text());
    assert!(corrupt_counter.get() > corrupt0, "corruption must be counted");
    assert!(quarantine_counter.get() > quarantine0, "quarantine must be counted");
    let mut quarantined = entry.into_os_string();
    quarantined.push(".corrupt");
    assert_eq!(
        std::fs::read_to_string(&quarantined).expect("the bad file is kept for post-mortem"),
        "not a cache entry\n"
    );

    // The healthy rewrite now hits from disk.
    Cache::clear_memory();
    assert!(tune_ok(&app, &o).from_cache);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_fault_campaign_meets_the_acceptance_bar() {
    // The acceptance scenario: panics + fuel exhaustion in >= 10% of
    // evaluated candidates, plus a corrupted cache file; the sweep
    // completes, reports every faulted candidate with its outcome class, and
    // preserves the winner when the winner was spared.
    let dir = std::env::temp_dir().join(format!("dpcons-mixedfault-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut o = opts();
    o.base.threshold += 13; // distinct cache key (see above)
    let clean = tune_ok(&sssp(), &o);
    let winner = clean.best_knobs().expect("winner").label();
    let evaluated_n = evaluated_labels_except(&clean, &[]).len();
    // Every third non-winner runs clean; the rest panic or run out of fuel.
    let victims: Vec<String> = evaluated_labels_except(&clean, std::slice::from_ref(&winner))
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 3 != 2)
        .map(|(_, l)| l)
        .collect();
    let injected = victims.len();
    assert!(
        injected * 10 >= evaluated_n,
        "campaign must fault >= 10% of evaluated candidates ({injected}/{evaluated_n})"
    );
    let app = panics_and_fuel(victims);

    o.cache = Some(Cache::new(Some(dir.clone())));
    let faulted = tune_ok(&app, &o);
    assert!(!faulted.from_cache);
    assert_eq!(faulted.fault_count(), faulted.panicked + faulted.timed_out + faulted.failed);
    assert_eq!(faulted.fault_count(), clean.fault_count() + injected, "every fault landed");
    assert!(faulted.panicked > 0 && faulted.timed_out > 0, "both fault kinds landed");
    for (_, c) in faulted.faulted() {
        assert!(
            matches!(c.status, Status::Panicked(_) | Status::TimedOut(_) | Status::Failed(_)),
            "every fault row carries its outcome class"
        );
    }
    assert_eq!(faulted.best_knobs().expect("winner survives").label(), winner);

    // Corrupt the faulted report's cache entry: a cold re-run with the same
    // faults quarantines it, recomputes, and converges on the identical
    // faulted report — self-healing plus determinism in one step.
    corrupt_entry(&dir, &faulted);
    Cache::clear_memory();
    let replay = tune_ok(&app, &o);
    assert!(!replay.from_cache, "corrupted faulted entry must miss");
    assert_eq!(replay.to_text(), faulted.to_text());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fleet_sweep_survives_faults_and_keeps_unfaulted_winners() {
    let fo = FleetOptions {
        base: RunConfig::default(),
        space: tiny_space(),
        budget: Budget::default(),
        fleet: vec![GpuConfig::k20c(), GpuConfig::k40()],
        cache: None,
    };
    let clean = fleet_sweep(&sssp(), &fo).expect("fault-free fleet sweep");
    let winners: Vec<Option<String>> =
        (0..clean.devices.len()).map(|d| clean.winner_knobs(d).map(|k| k.label())).collect();
    let spared: Vec<String> = winners.iter().flatten().cloned().collect();
    let app = panics_and_fuel(evaluated_labels_except(&clean, &spared));
    let faulted = fleet_sweep(&app, &fo).expect("the fleet sweep must complete, faults or not");

    assert!(faulted.fault_count() > 0, "every candidate but the winners faults");
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
