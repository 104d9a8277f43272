//! Multi-device what-if sweeps — capture once, re-time everywhere — and the
//! dataset-transfer check.
//!
//! [`fleet_sweep`] is [`crate::tuner`]'s one sweep handed a whole fleet of
//! devices instead of one: each surviving candidate executes functionally
//! once on `fleet[0]` and is re-priced on every further device by timing
//! replay, so one functional execution yields `fleet.len()` datapoints of the
//! knobs × device matrix. All this module adds is the precondition that
//! makes replay valid (`check_fleet`); the pipeline, the [`FleetReport`]
//! (the same type as a [`crate::TuneReport`]), the cache and its key are the
//! tuner's, and a one-device fleet *is* the `tune` of that device.
//!
//! [`transfer_check`] quantifies dataset transfer: knobs tuned on the small
//! Test-profile dataset are re-scored on the Bench-profile dataset and
//! compared against that profile's own (same-space, same-budget) oracle
//! sweep, reporting the relative regret.

use dpcons_apps::{Benchmark, RunConfig};
use dpcons_core::KnobSpace;
use dpcons_sim::GpuConfig;

use crate::cache::Cache;
use crate::knobs::Knobs;
use crate::report::{FleetReport, Status};
use crate::tuner::{evaluate_candidate, sweep, tune, Budget, TuneError, TuneOptions, WaveHook};

/// Everything configuring one fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Base run configuration. Its `gpu` field is overridden by the first
    /// fleet device (the capture device).
    pub base: RunConfig,
    pub space: KnobSpace,
    pub budget: Budget,
    /// Devices every candidate is priced on; `fleet[0]` is the capture
    /// device. All must share the capture device's warp size and cost model.
    pub fleet: Vec<GpuConfig>,
    /// Results cache; `None` disables caching entirely.
    pub cache: Option<Cache>,
}

/// Errors surfaced by the fleet sweep itself (candidate-level failures are
/// data, recorded in the report).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    Tune(TuneError),
    /// The fleet names no device.
    EmptyFleet,
    /// Replay is only valid across devices sharing the capture device's warp
    /// size and cost model (segment durations are baked into the capture).
    IncompatibleDevice {
        device: String,
        reason: &'static str,
    },
}

impl From<TuneError> for FleetError {
    fn from(e: TuneError) -> Self {
        FleetError::Tune(e)
    }
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Tune(e) => write!(f, "{e}"),
            FleetError::EmptyFleet => write!(f, "the device fleet is empty"),
            FleetError::IncompatibleDevice { device, reason } => {
                write!(f, "device `{device}` cannot join the fleet: {reason}")
            }
        }
    }
}

impl std::error::Error for FleetError {}

/// Whether one capture on `fleet[0]` can be re-timed on every other device.
fn check_fleet(fleet: &[GpuConfig]) -> Result<(), FleetError> {
    let Some((capture_dev, others)) = fleet.split_first() else {
        return Err(FleetError::EmptyFleet);
    };
    for d in others {
        let reason = if d.warp_size != capture_dev.warp_size {
            "warp size differs from the capture device"
        } else if d.costs != capture_dev.costs {
            "cost model differs from the capture device"
        } else {
            continue;
        };
        return Err(FleetError::IncompatibleDevice { device: d.name.clone(), reason });
    }
    Ok(())
}

/// Run (or fetch from cache) a device-fleet what-if sweep for `app`: the
/// tuner's sweep over `opts.fleet`, without baselines.
pub fn fleet_sweep(app: &dyn Benchmark, opts: &FleetOptions) -> Result<FleetReport, FleetError> {
    fleet_sweep_with_progress(app, opts, &WaveHook::default())
}

/// [`fleet_sweep`] with a per-wave progress callback. The hook fires after
/// each evaluated wave is recorded; a cache hit replays no waves, so the hook
/// is never called on that path.
pub fn fleet_sweep_with_progress(
    app: &dyn Benchmark,
    opts: &FleetOptions,
    on_wave: &WaveHook,
) -> Result<FleetReport, FleetError> {
    check_fleet(&opts.fleet)?;
    let tune_opts = TuneOptions {
        base: opts.base.clone(),
        space: opts.space.clone(),
        budget: opts.budget,
        with_baselines: false,
        cache: opts.cache.clone(),
    };
    Ok(sweep(app, &tune_opts, &opts.fleet, on_wave)?)
}

// ---------------------------------------------------------------- transfer --

/// Result of a Test→Bench transfer-tuning check for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferReport {
    pub app: String,
    /// Device both sweeps ran on.
    pub device: String,
    /// Winner of the Test-profile sweep.
    pub test_knobs: Knobs,
    /// The Test-tuned knobs re-scored on the Bench-profile dataset; `None`
    /// when they are infeasible there (failed run or oracle mismatch).
    pub transferred_cycles: Option<u64>,
    /// Winner of the Bench-profile sweep — the per-profile oracle within the
    /// same knob space and budget.
    pub oracle_knobs: Knobs,
    pub oracle_cycles: u64,
}

impl TransferReport {
    /// Relative regret of transferring: `0.0` means the Test-tuned knobs are
    /// exactly as good as tuning on the Bench profile directly; `None` means
    /// they do not transfer at all.
    pub fn regret(&self) -> Option<f64> {
        self.transferred_cycles.map(|c| c as f64 / self.oracle_cycles.max(1) as f64 - 1.0)
    }
}

/// Tune `test_app` (the Test-scale dataset), re-score its winning knobs on
/// `bench_app` (the same benchmark over the Bench-scale dataset), and compare
/// against `bench_app`'s own sweep under identical options. Both sweeps go
/// through [`tune`] and therefore share its cache.
pub fn transfer_check(
    test_app: &dyn Benchmark,
    bench_app: &dyn Benchmark,
    opts: &TuneOptions,
) -> Result<TransferReport, TuneError> {
    // A report with winning knobs always has the winner's cycles, but under
    // the crate's no-panic policy a disagreement degrades to "no feasible
    // candidate" instead of crashing the caller's sweep.
    let winner_of = |app: &dyn Benchmark| {
        let report = tune(app, opts)?;
        match (report.best_knobs(), report.best_cycles()) {
            (Some(knobs), Some(cycles)) => Ok((report, knobs, cycles)),
            _ => Err(TuneError::NoFeasibleCandidate { app: app.name().to_string() }),
        }
    };
    let (_, test_knobs, _) = winner_of(test_app)?;
    let (bench_report, oracle_knobs, oracle_cycles) = winner_of(bench_app)?;
    // The bench sweep may already have scored the transferred point; if the
    // budget skipped it, evaluate it directly. In both paths a run whose
    // output diverged from the oracle counts as not transferring at all
    // (`cycles_for` alone would report such a run's cycles).
    let scored = bench_report
        .candidates
        .iter()
        .find(|c| c.knobs == test_knobs)
        .and_then(|c| c.metrics().copied());
    let transferred_cycles = match scored {
        Some(m) => m.output_ok.then_some(m.cycles),
        None => {
            let expected = bench_app.reference();
            match evaluate_candidate(bench_app, &opts.base, &test_knobs, &expected) {
                Status::Evaluated(m) if m.output_ok => Some(m.cycles),
                _ => None,
            }
        }
    };
    Ok(TransferReport {
        app: test_app.name().to_string(),
        device: opts.base.gpu.name.clone(),
        test_knobs,
        transferred_cycles,
        oracle_knobs,
        oracle_cycles,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons_core::Granularity;
    use dpcons_sim::AllocKind;

    #[test]
    fn transfer_regret_is_relative() {
        let knobs = Knobs {
            granularity: Granularity::Grid,
            alloc: AllocKind::PreAlloc,
            per_buffer_size: None,
            config: None,
        };
        let t = TransferReport {
            app: "SSSP".into(),
            device: "K20c-like".into(),
            test_knobs: knobs,
            transferred_cycles: Some(1100),
            oracle_knobs: knobs,
            oracle_cycles: 1000,
        };
        assert!((t.regret().unwrap() - 0.1).abs() < 1e-12);
        let none = TransferReport { transferred_cycles: None, ..t };
        assert_eq!(none.regret(), None);
    }
}
