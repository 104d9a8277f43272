//! Multi-device what-if sweeps: capture once, re-time everywhere.
//!
//! [`fleet_sweep`] is [`crate::tuner`]'s one sweep handed a whole fleet of
//! devices instead of one: each candidate executes functionally once on
//! `fleet[0]` and is re-priced on every further device by timing replay, so
//! one functional execution yields `fleet.len()` datapoints of the knobs ×
//! device matrix. All this module adds is the precondition that
//! makes replay valid (`check_fleet`); the pipeline, the [`FleetReport`]
//! (the same type as a [`crate::TuneReport`]), the cache and its key are the
//! tuner's, and a one-device fleet *is* the `tune` of that device.

use dpcons_apps::{Benchmark, RunConfig};
use dpcons_core::KnobSpace;
use dpcons_sim::GpuConfig;

use crate::cache::Cache;
use crate::report::FleetReport;
use crate::tuner::{sweep, Budget, TuneError, TuneOptions, WaveHook};

/// Everything configuring one fleet sweep.
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Base run configuration. Its `gpu` field is overridden by the first
    /// fleet device (the capture device).
    pub base: RunConfig,
    pub space: KnobSpace,
    pub budget: Budget,
    /// Devices every candidate is priced on; `fleet[0]` is the capture
    /// device. All must share the capture device's cost model.
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
    /// Replay is only valid across devices sharing the capture device's cost
    /// model (segment durations are baked into the capture).
    IncompatibleDevice {
        device: String,
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
            FleetError::IncompatibleDevice { device } => write!(
                f,
                "device `{device}` cannot join the fleet: cost model differs from the capture device"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Whether one capture on `fleet[0]` can be re-timed on every other device.
fn check_fleet(fleet: &[GpuConfig]) -> Result<(), FleetError> {
    let Some((capture_dev, others)) = fleet.split_first() else {
        return Err(FleetError::EmptyFleet);
    };
    match others.iter().find(|d| d.costs != capture_dev.costs) {
        Some(d) => Err(FleetError::IncompatibleDevice { device: d.name.clone() }),
        None => Ok(()),
    }
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
