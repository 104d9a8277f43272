//! Deterministic fault injection for the sweep substrate.
//!
//! The robustness layer (panic isolation in [`crate::par`], the fuel/deadline
//! watchdog in [`crate::tuner`], the self-healing [`crate::cache`]) is only
//! trustworthy if it is exercised, so this module lets tests inject faults
//! *inside* a real sweep without any `#[cfg]` seams: a [`FaultPlan`] is
//! installed at runtime ([`install`]) and the production code calls the hooks
//! ([`before_candidate`], [`maybe_corrupt_cache_file`]) unconditionally —
//! with no plan installed they are a single relaxed atomic load.
//!
//! Every injection decision is a pure function of `(plan seed, fault kind,
//! app, candidate label)` hashed through [`Fnv64`] into the workspace's
//! seeded [`Rng64`]. Decisions therefore do not depend on thread scheduling
//! or evaluation order, are identical for every device count, and
//! replay exactly across runs — which is what lets the test suite assert
//! that a faulted sweep picks the same winner as the fault-free sweep
//! whenever the winner itself was not faulted.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use dpcons_workloads::rng::Rng64;

use crate::cache::Fnv64;

/// Injection rates and parameters for one deterministic fault campaign.
///
/// All `*_rate` fields are probabilities in `[0, 1]`; each candidate's
/// per-kind decision is an independent deterministic roll keyed by
/// `(seed, kind, app, label)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every injection roll.
    pub seed: u64,
    /// Probability a candidate evaluation panics.
    pub panic_rate: f64,
    /// Probability a candidate's fuel budget is forced down to
    /// [`FaultPlan::fuel_steps`], guaranteeing `SimError::FuelExhausted`.
    pub fuel_rate: f64,
    /// Forced fuel budget for fuel-faulted candidates. Keep it tiny: any
    /// real run spends more than a handful of steps.
    pub fuel_steps: u64,
    /// Probability a candidate evaluation is artificially delayed (for
    /// exercising the wall-clock soft deadline).
    pub delay_rate: f64,
    /// Length of the injected delay in milliseconds.
    pub delay_ms: u64,
    /// Probability a freshly written cache file is corrupted on disk.
    pub cache_corrupt_rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and every rate at zero.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_rate: 0.0,
            fuel_rate: 0.0,
            fuel_steps: 4,
            delay_rate: 0.0,
            delay_ms: 5,
            cache_corrupt_rate: 0.0,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan::new(0)
    }
}

// Fast path: hooks check this relaxed flag before touching the mutex, so
// production sweeps (no plan installed) pay one atomic load per hook.
static ENABLED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
// Serializes fault campaigns within one process: `install` holds this for
// the lifetime of the returned scope so concurrent tests cannot see each
// other's plans.
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// Take the campaign lock: whoever holds it is the only one who can have a
/// plan installed.
fn campaign_lock() -> MutexGuard<'static, ()> {
    SCOPE_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn plan_slot() -> MutexGuard<'static, Option<FaultPlan>> {
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The currently installed plan, if any.
pub fn current() -> Option<FaultPlan> {
    if !ENABLED.load(Ordering::Relaxed) {
        return None;
    }
    *plan_slot()
}

/// Keeps a [`FaultPlan`] installed; uninstalls it on drop. Also holds the
/// process-wide campaign lock so overlapping test threads serialize.
pub struct FaultScope {
    _serial: MutexGuard<'static, ()>,
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
        *plan_slot() = None;
    }
}

/// Install `plan` for the lifetime of the returned scope.
#[must_use = "the plan is uninstalled when the scope drops"]
pub fn install(plan: FaultPlan) -> FaultScope {
    let serial = campaign_lock();
    *plan_slot() = Some(plan);
    ENABLED.store(true, Ordering::Relaxed);
    FaultScope { _serial: serial }
}

/// One deterministic roll in `[0, 1)` for a `(kind, app, label)` site.
fn roll(plan: &FaultPlan, kind: &str, app: &str, label: &str) -> f64 {
    let mut h = Fnv64::new();
    h.write_u64(plan.seed).write_str(kind).write_str(app).write_str(label);
    Rng64::seed_from_u64(h.finish()).next_f64()
}

/// Whether the plan faults this candidate in a way that changes its sweep
/// outcome (panic or fuel exhaustion — delays only matter under a soft
/// deadline). Used by tests to predict which report rows may legitimately
/// differ from a fault-free run.
pub fn outcome_faulted(plan: &FaultPlan, app: &str, label: &str) -> bool {
    roll(plan, "panic", app, label) < plan.panic_rate
        || roll(plan, "fuel", app, label) < plan.fuel_rate
}

/// Candidate-evaluation hook, called once per candidate before the run.
///
/// In order: injects an artificial delay, clamps the fuel budget, or panics.
pub fn before_candidate(app: &str, label: &str, fuel: &mut Option<u64>) {
    let Some(plan) = current() else {
        return;
    };
    if roll(&plan, "delay", app, label) < plan.delay_rate {
        dpcons_obs::counter("tune.fault.injected.delay").inc();
        std::thread::sleep(std::time::Duration::from_millis(plan.delay_ms));
    }
    if roll(&plan, "fuel", app, label) < plan.fuel_rate {
        dpcons_obs::counter("tune.fault.injected.fuel").inc();
        *fuel = Some(plan.fuel_steps);
    }
    if roll(&plan, "panic", app, label) < plan.panic_rate {
        dpcons_obs::counter("tune.fault.injected.panic").inc();
        panic!("injected candidate panic for {app} {label} (plan seed {})", plan.seed);
    }
}

/// Cache-write hook: after `path` is durably written for `key`, maybe
/// overwrite it with garbage so the self-healing read path has something to
/// quarantine.
pub fn maybe_corrupt_cache_file(key: u64, path: &Path) {
    let Some(plan) = current() else {
        return;
    };
    let mut h = Fnv64::new();
    h.write_u64(plan.seed).write_str("cache").write_u64(key);
    if Rng64::seed_from_u64(h.finish()).next_f64() < plan.cache_corrupt_rate {
        dpcons_obs::counter("tune.fault.injected.cache_corrupt").inc();
        let _ = std::fs::write(path, "not a cache entry\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_plan_means_no_faults() {
        // Sibling tests install plans; hold their lock so none is in force.
        let _serial = campaign_lock();
        assert!(current().is_none());
        let mut fuel = None;
        before_candidate("bfs", "grid/default", &mut fuel);
        assert_eq!(fuel, None);
    }

    #[test]
    fn rolls_are_deterministic_and_site_dependent() {
        let plan = FaultPlan::new(7);
        let a = roll(&plan, "panic", "bfs", "grid/default");
        assert_eq!(a, roll(&plan, "panic", "bfs", "grid/default"));
        // Different kind, app, label, or seed each shift the roll.
        assert_ne!(a, roll(&plan, "fuel", "bfs", "grid/default"));
        assert_ne!(a, roll(&plan, "panic", "sssp", "grid/default"));
        assert_ne!(a, roll(&plan, "panic", "bfs", "warp/default"));
        assert_ne!(a, roll(&FaultPlan::new(8), "panic", "bfs", "grid/default"));
    }

    #[test]
    fn install_scope_applies_and_clears_the_plan() {
        {
            let _scope = install(FaultPlan { fuel_rate: 1.0, ..FaultPlan::new(1) });
            let mut fuel = None;
            before_candidate("bfs", "grid/default", &mut fuel);
            assert_eq!(fuel, Some(4));
        }
        let _serial = campaign_lock();
        assert!(current().is_none());
    }

    #[test]
    fn panic_faults_panic_with_a_recognizable_message() {
        let _scope = install(FaultPlan { panic_rate: 1.0, ..FaultPlan::new(3) });
        let err = std::panic::catch_unwind(|| {
            let mut fuel = None;
            before_candidate("bfs", "grid/default", &mut fuel);
        })
        .expect_err("must panic");
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected candidate panic"));
    }

    #[test]
    fn outcome_faulted_matches_the_hook_decisions() {
        let plan = FaultPlan { panic_rate: 0.3, fuel_rate: 0.3, ..FaultPlan::new(11) };
        let labels = ["grid/default", "warp/halloc", "block/custom", "grid/halloc"];
        assert!(
            labels.iter().any(|l| outcome_faulted(&plan, "bfs", l)),
            "with 30%+30% rates over four labels at this seed, at least one faults"
        );
        for l in labels {
            let hit = roll(&plan, "panic", "bfs", l) < plan.panic_rate
                || roll(&plan, "fuel", "bfs", l) < plan.fuel_rate;
            assert_eq!(outcome_faulted(&plan, "bfs", l), hit);
        }
    }

    #[test]
    fn cache_corruption_overwrites_the_file() {
        let _scope = install(FaultPlan { cache_corrupt_rate: 1.0, ..FaultPlan::new(4) });
        let dir = std::env::temp_dir().join("dpcons-fault-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("entry.tune");
        std::fs::write(&path, "real payload").expect("write");
        maybe_corrupt_cache_file(42, &path);
        let got = std::fs::read_to_string(&path).expect("read");
        assert_eq!(got, "not a cache entry\n");
        let _ = std::fs::remove_file(&path);
    }
}
