//! Device-fleet what-if sweeps: capture once, re-time everywhere.
//!
//! A tuner candidate's functional execution does not depend on the device's
//! structural resources — only its timing does (`dpcons-sim`'s two-phase
//! engine bakes segment durations into the capture and applies SM counts,
//! residency limits, concurrency and pending pools at replay). So instead of
//! paying one full functional run per (candidate, device) pair,
//! [`fleet_sweep`] runs the tuner's enumerate → prune pipeline, executes each
//! surviving candidate **functionally once** on the capture device (the first
//! device of the fleet, with [`RunConfig::capture`] enabled), and re-prices
//! the captured launch DAGs on every fleet device via
//! [`dpcons_sim::Engine::replay_timing_on`]. One functional execution yields
//! `fleet.len()` timing datapoints; the correctness contract (replayed timing
//! ≡ fresh execution) is pinned by `crates/sim/tests/replay_differential.rs`
//! and the no-extra-functional-work property by
//! `crates/tune/tests/fleet_exec_count.rs`.
//!
//! The result is a [`FleetReport`] matrix (knobs × device) with per-device
//! winners, cached in the same deterministic two-layer [`Cache`] as tuning
//! sweeps under a key that includes the **device dimension** (every fleet
//! device's full description).
//!
//! [`transfer_check`] quantifies dataset transfer: knobs tuned on the small
//! Test-profile dataset are re-scored on the Bench-profile dataset and
//! compared against that profile's own (same-space, same-budget) oracle
//! sweep, reporting the relative regret.

use dpcons_apps::{AppError, Benchmark, RunConfig, Variant};
use dpcons_core::KnobSpace;
use dpcons_sim::{GpuConfig, SimError};

use crate::cache::{Cache, Fnv64};
use crate::fault;
use crate::knobs::Knobs;
use crate::par::parallel_map_robust;
use crate::report::Status;
use crate::tuner::{
    candidate_config, enumerate_candidates, evaluate_candidate, fingerprint_of,
    leading_default_count, prune_reason, run_waves, tune, Budget, TuneError, TuneOptions, WaveHook,
    CACHE_SCHEMA,
};

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

/// Timing metrics of one candidate on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCell {
    pub cycles: u64,
    pub dram_transactions: u64,
    pub warp_exec_efficiency: f64,
    pub achieved_occupancy: f64,
}

/// What the sweep did with one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetStatus {
    /// Captured once and re-timed on every fleet device; cells are
    /// index-aligned with [`FleetReport::devices`].
    Retimed(Vec<DeviceCell>),
    /// Rejected up front without running (reason recorded).
    Pruned(String),
    /// The capture run itself errored.
    Failed(String),
    /// Ran but its output diverged from the CPU oracle; never ranked.
    Rejected,
    /// Not captured: the search budget stopped the sweep first.
    Skipped,
    /// The capture run panicked; isolated to this candidate.
    Panicked(String),
    /// The watchdog stopped the capture run (fuel budget exhausted or soft
    /// deadline passed).
    TimedOut(String),
}

impl FleetStatus {
    /// Whether this outcome is a fault the sweep survived.
    pub fn is_fault(&self) -> bool {
        matches!(self, FleetStatus::Failed(_) | FleetStatus::Panicked(_) | FleetStatus::TimedOut(_))
    }
}

/// One enumerated candidate and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCandidate {
    pub knobs: Knobs,
    pub status: FleetStatus,
}

impl FleetCandidate {
    pub fn cells(&self) -> Option<&[DeviceCell]> {
        match &self.status {
            FleetStatus::Retimed(cells) => Some(cells),
            _ => None,
        }
    }
}

/// The knobs × device what-if matrix for one app.
#[derive(Debug, Clone)]
pub struct FleetReport {
    pub app: String,
    /// Dataset fingerprint (hash of the app's oracle output).
    pub fingerprint: u64,
    /// Full cache key (app + dataset + run config + space + budget + fleet).
    pub key: u64,
    /// Fleet device display names; `devices[0]` is the capture device and
    /// the column order of every candidate's cells.
    pub devices: Vec<String>,
    /// Every candidate in deterministic search order.
    pub candidates: Vec<FleetCandidate>,
    /// Per-device winner: index into `candidates` of the minimum-cycle
    /// retimed candidate, `None` when nothing was retimed.
    pub winners: Vec<Option<usize>>,
    /// Functional app executions the sweep performed (captures plus
    /// oracle-rejected and failed attempts) — at most one per candidate,
    /// independent of the fleet size.
    pub functional_runs: u64,
    /// (candidate, device) timing datapoints produced from those runs.
    pub retimings: u64,
    /// True when this report came from the results cache. Not serialized;
    /// ignored by equality.
    pub from_cache: bool,
}

impl PartialEq for FleetReport {
    fn eq(&self, other: &Self) -> bool {
        self.app == other.app
            && self.fingerprint == other.fingerprint
            && self.key == other.key
            && self.devices == other.devices
            && self.candidates == other.candidates
            && self.winners == other.winners
            && self.functional_runs == other.functional_runs
            && self.retimings == other.retimings
    }
}

impl FleetReport {
    /// Display name of the capture device.
    pub fn captured_on(&self) -> &str {
        &self.devices[0]
    }

    pub fn device_index(&self, name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d == name)
    }

    pub fn winner(&self, device: usize) -> Option<&FleetCandidate> {
        self.winners.get(device).copied().flatten().map(|i| &self.candidates[i])
    }

    pub fn winner_knobs(&self, device: usize) -> Option<Knobs> {
        self.winner(device).map(|c| c.knobs)
    }

    pub fn winner_cycles(&self, device: usize) -> Option<u64> {
        self.winner(device).and_then(|c| c.cells()).map(|cells| cells[device].cycles)
    }

    /// Candidates that were captured and re-timed, with their cells.
    pub fn retimed(&self) -> impl Iterator<Item = (&FleetCandidate, &[DeviceCell])> {
        self.candidates.iter().filter_map(|c| c.cells().map(|cells| (c, cells)))
    }

    /// Total faulted candidates (panicked + timed out + failed).
    pub fn fault_count(&self) -> usize {
        self.candidates.iter().filter(|c| c.status.is_fault()).count()
    }

    /// Candidates whose outcome was a fault, with their indices.
    pub fn faulted(&self) -> impl Iterator<Item = (usize, &FleetCandidate)> {
        self.candidates.iter().enumerate().filter(|(_, c)| c.status.is_fault())
    }

    // ------------------------------------------------------ serialization --

    /// Deterministic textual form (the cache file format).
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("dpcons-fleet v2\n");
        s.push_str(&format!("app {}\n", self.app));
        s.push_str(&format!("fingerprint {:016x}\n", self.fingerprint));
        s.push_str(&format!("key {:016x}\n", self.key));
        for d in &self.devices {
            s.push_str(&format!("device {d}\n"));
        }
        for c in &self.candidates {
            s.push_str(&format!("candidate {} ", c.knobs.label()));
            match &c.status {
                FleetStatus::Retimed(cells) => {
                    s.push_str("retimed");
                    for cell in cells {
                        s.push_str(&format!(
                            " {} {} {:016x} {:016x}",
                            cell.cycles,
                            cell.dram_transactions,
                            cell.warp_exec_efficiency.to_bits(),
                            cell.achieved_occupancy.to_bits(),
                        ));
                    }
                    s.push('\n');
                }
                FleetStatus::Pruned(msg) => {
                    s.push_str(&format!("pruned {}\n", msg.replace(['\n', '\r'], " ")));
                }
                FleetStatus::Failed(msg) => {
                    s.push_str(&format!("failed {}\n", msg.replace(['\n', '\r'], " ")));
                }
                FleetStatus::Rejected => s.push_str("rejected\n"),
                FleetStatus::Skipped => s.push_str("skipped\n"),
                FleetStatus::Panicked(msg) => {
                    s.push_str(&format!("panicked {}\n", msg.replace(['\n', '\r'], " ")));
                }
                FleetStatus::TimedOut(msg) => {
                    s.push_str(&format!("timedout {}\n", msg.replace(['\n', '\r'], " ")));
                }
            }
        }
        for w in &self.winners {
            match w {
                Some(i) => s.push_str(&format!("winner {i}\n")),
                None => s.push_str("winner -\n"),
            }
        }
        s.push_str(&format!("counts {} {}\n", self.functional_runs, self.retimings));
        s.push_str("end\n");
        s
    }

    /// Parse [`FleetReport::to_text`] output. `from_cache` is set to `true`.
    pub fn from_text(text: &str) -> Result<FleetReport, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty fleet cache entry")?;
        if header != "dpcons-fleet v2" {
            return Err(format!("unknown fleet cache version `{header}`"));
        }
        let mut app = None;
        let mut fingerprint = None;
        let mut key = None;
        let mut devices: Vec<String> = Vec::new();
        let mut candidates: Vec<FleetCandidate> = Vec::new();
        let mut winners: Vec<Option<usize>> = Vec::new();
        let mut counts = None;
        let mut saw_end = false;
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "app" => app = Some(rest.to_string()),
                "fingerprint" => {
                    fingerprint = Some(u64::from_str_radix(rest, 16).map_err(|e| e.to_string())?)
                }
                "key" => key = Some(u64::from_str_radix(rest, 16).map_err(|e| e.to_string())?),
                "device" => devices.push(rest.to_string()),
                "candidate" => candidates.push(parse_candidate(rest, devices.len())?),
                "winner" => winners.push(match rest {
                    "-" => None,
                    i => Some(i.parse().map_err(|e: std::num::ParseIntError| e.to_string())?),
                }),
                "counts" => {
                    let ns: Vec<u64> = rest
                        .split_whitespace()
                        .map(|n| n.parse().map_err(|e: std::num::ParseIntError| e.to_string()))
                        .collect::<Result<_, _>>()?;
                    if ns.len() != 2 {
                        return Err(format!("bad counts line `{rest}`"));
                    }
                    counts = Some((ns[0], ns[1]));
                }
                "end" => saw_end = true,
                other => return Err(format!("unknown fleet cache line tag `{other}`")),
            }
        }
        if !saw_end {
            return Err("truncated fleet cache entry (no `end` marker)".into());
        }
        if devices.is_empty() {
            return Err("fleet cache entry has no devices".into());
        }
        if winners.len() != devices.len() {
            return Err(format!("{} winner lines for {} devices", winners.len(), devices.len()));
        }
        for w in winners.iter().flatten() {
            if *w >= candidates.len() {
                return Err(format!("winner index {w} out of range"));
            }
        }
        let (functional_runs, retimings) = counts.ok_or("missing counts line")?;
        Ok(FleetReport {
            app: app.ok_or("missing app line")?,
            fingerprint: fingerprint.ok_or("missing fingerprint line")?,
            key: key.ok_or("missing key line")?,
            devices,
            candidates,
            winners,
            functional_runs,
            retimings,
            from_cache: true,
        })
    }
}

fn parse_candidate(rest: &str, n_devices: usize) -> Result<FleetCandidate, String> {
    let (knobs_s, rest) =
        rest.split_once(' ').ok_or_else(|| format!("bad fleet candidate line `{rest}`"))?;
    let knobs = Knobs::parse(knobs_s)?;
    let (kind, tail) = rest.split_once(' ').unwrap_or((rest, ""));
    let status = match kind {
        "retimed" => {
            let f: Vec<&str> = tail.split_whitespace().collect();
            if n_devices == 0 || f.len() != 4 * n_devices {
                return Err(format!("bad cell count for {n_devices} devices: `{tail}`"));
            }
            let cells = f
                .chunks(4)
                .map(|c| {
                    Ok(DeviceCell {
                        cycles: c[0].parse().map_err(|e: std::num::ParseIntError| e.to_string())?,
                        dram_transactions: c[1]
                            .parse()
                            .map_err(|e: std::num::ParseIntError| e.to_string())?,
                        warp_exec_efficiency: f64::from_bits(
                            u64::from_str_radix(c[2], 16).map_err(|e| e.to_string())?,
                        ),
                        achieved_occupancy: f64::from_bits(
                            u64::from_str_radix(c[3], 16).map_err(|e| e.to_string())?,
                        ),
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            FleetStatus::Retimed(cells)
        }
        "pruned" => FleetStatus::Pruned(tail.to_string()),
        "failed" => FleetStatus::Failed(tail.to_string()),
        "rejected" => FleetStatus::Rejected,
        "skipped" => FleetStatus::Skipped,
        "panicked" => FleetStatus::Panicked(tail.to_string()),
        "timedout" => FleetStatus::TimedOut(tail.to_string()),
        other => return Err(format!("unknown fleet candidate status `{other}`")),
    };
    Ok(FleetCandidate { knobs, status })
}

/// Cache key of a fleet sweep: the tuner key dimensions (minus the single
/// device, which the fleet replaces) plus the full description — structural
/// limits *and* cost model — of every fleet device, in order.
///
/// This is the exact normalization [`fleet_sweep`] uses for its own cache,
/// published so out-of-process dedup layers (e.g. a serving front end) derive
/// the same key. Note `base.gpu` is ignored: the capture device is always
/// `fleet[0]`, so callers may pass `base` as-is.
pub fn fleet_cache_key_for(
    app: &str,
    fp: u64,
    base: &RunConfig,
    space: &KnobSpace,
    budget: &Budget,
    fleet: &[GpuConfig],
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("dpcons-fleet-key");
    h.write_u64(CACHE_SCHEMA as u64);
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(app);
    h.write_u64(fp);
    h.write_str(&format!("{:?}", base.alloc));
    h.write_str(&format!("{:?}", base.policy));
    h.write_u64(base.threshold as u64);
    h.write_u64(base.heap_words);
    h.write_u64(base.pool_words);
    h.write_str(&format!("{space:?}"));
    h.write_str(&format!("{budget:?}"));
    for d in fleet {
        h.write_str(&format!("{d:?}"));
    }
    h.finish()
}

/// Run (or fetch from cache) a device-fleet what-if sweep for `app`: one
/// functional capture per surviving candidate, re-timed on every fleet
/// device. Reuses the tuner's enumeration order, pruning, deterministic
/// wave parallelism and [`Budget`] semantics (paper defaults are always
/// captured; patience counts waves without improvement on *any* device).
pub fn fleet_sweep(app: &dyn Benchmark, opts: &FleetOptions) -> Result<FleetReport, FleetError> {
    fleet_sweep_with_progress(app, opts, &WaveHook::none())
}

/// [`fleet_sweep`] with a per-wave progress callback. The hook fires after
/// each evaluated wave is recorded; a cache hit replays no waves, so the hook
/// is never called on that path.
pub fn fleet_sweep_with_progress(
    app: &dyn Benchmark,
    opts: &FleetOptions,
    on_wave: &WaveHook,
) -> Result<FleetReport, FleetError> {
    let _sweep = dpcons_obs::span("fleet.sweep");
    let Some(capture_dev) = opts.fleet.first() else {
        return Err(FleetError::EmptyFleet);
    };
    for d in &opts.fleet[1..] {
        if d.warp_size != capture_dev.warp_size {
            return Err(FleetError::IncompatibleDevice {
                device: d.name.clone(),
                reason: "warp size differs from the capture device",
            });
        }
        if d.costs != capture_dev.costs {
            return Err(FleetError::IncompatibleDevice {
                device: d.name.clone(),
                reason: "cost model differs from the capture device",
            });
        }
    }
    let model =
        app.tune_model().ok_or_else(|| TuneError::NotTunable { app: app.name().to_string() })?;
    if opts.space.is_empty() || opts.space.granularities.is_empty() {
        return Err(TuneError::EmptySpace.into());
    }
    if opts.budget.max_evals == Some(0) {
        return Err(TuneError::InvalidBudget {
            reason: "max_evals must be nonzero (use None for an unbounded sweep)",
        }
        .into());
    }
    let base = RunConfig { gpu: capture_dev.clone(), ..opts.base.clone() };

    let expected = app.reference();
    let fp = fingerprint_of(app.name(), &expected);
    let key = fleet_cache_key_for(app.name(), fp, &base, &opts.space, &opts.budget, &opts.fleet);
    if let Some(cache) = &opts.cache {
        if let Some(text) = cache.get_text(key) {
            match FleetReport::from_text(&text) {
                Ok(hit) => return Ok(hit),
                // Stale payload schema: stop it resurfacing, then resweep.
                Err(reason) => cache.quarantine_key(key, &reason),
            }
        }
    }

    let (cands, _collapsed) = enumerate_candidates(&model, &opts.space);

    // Static pruning, identical to the tuner's.
    let mut statuses: Vec<Option<FleetStatus>> =
        cands.iter().map(|k| prune_reason(&model, &base, k).map(FleetStatus::Pruned)).collect();
    for st in statuses.iter().flatten() {
        if let FleetStatus::Pruned(reason) = st {
            crate::tuner::count_prune_reason(reason);
        }
    }
    let eval_idx: Vec<usize> = (0..cands.len()).filter(|&i| statuses[i].is_none()).collect();
    let n_defaults = leading_default_count(&model, &opts.space, &cands, &eval_idx);

    let mut best: Vec<Option<(u64, usize)>> = vec![None; opts.fleet.len()];
    let mut functional_runs = 0u64;
    let mut retimings = 0u64;
    run_waves(
        "fleet.wave",
        &eval_idx,
        n_defaults,
        &opts.budget,
        on_wave,
        |batch| {
            let jobs: Vec<_> = batch
                .iter()
                .map(|&i| {
                    let k = &cands[i];
                    let base = &base;
                    let expected = &expected;
                    let fleet = &opts.fleet;
                    let budget = &opts.budget;
                    move || fleet_evaluate_robust(app, base, k, expected, fleet, budget)
                })
                .collect();
            parallel_map_robust(jobs)
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|panic_msg| {
                        dpcons_obs::counter("tune.candidate.panicked").inc();
                        FleetStatus::Panicked(panic_msg)
                    })
                })
                .collect()
        },
        |i, st| {
            functional_runs += 1;
            let mut improved = false;
            if let FleetStatus::Retimed(cells) = &st {
                retimings += cells.len() as u64;
                for (d, cell) in cells.iter().enumerate() {
                    let entry = (cell.cycles, i);
                    if best[d].is_none_or(|b| entry < b) {
                        best[d] = Some(entry);
                        improved = true;
                    }
                }
            }
            statuses[i] = Some(st);
            improved
        },
    );
    for &i in &eval_idx {
        if statuses[i].is_none() {
            statuses[i] = Some(FleetStatus::Skipped);
        }
    }
    dpcons_obs::counter("fleet.captures").add(functional_runs);
    dpcons_obs::counter("fleet.retimings").add(retimings);

    let candidates: Vec<FleetCandidate> = cands
        .into_iter()
        .zip(statuses)
        .map(|(knobs, status)| FleetCandidate {
            knobs,
            status: status.unwrap_or(FleetStatus::Skipped),
        })
        .collect();
    let report = FleetReport {
        app: app.name().to_string(),
        fingerprint: fp,
        key,
        devices: opts.fleet.iter().map(|d| d.name.clone()).collect(),
        candidates,
        winners: best.into_iter().map(|b| b.map(|(_, i)| i)).collect(),
        functional_runs,
        retimings,
        from_cache: false,
    };
    if let Some(cache) = &opts.cache {
        cache.put_text(key, &report.to_text());
    }
    Ok(report)
}

/// Capture-and-retime one candidate under the full watchdog, mirroring
/// [`crate::tuner::evaluate_candidate_robust`]: fuel/deadline enforcement,
/// fault-injection hooks, and one bounded retry on transient failures.
/// Panics are isolated by the parallel sweep driver, not here.
fn fleet_evaluate_robust(
    app: &dyn Benchmark,
    base: &RunConfig,
    k: &Knobs,
    expected: &[i64],
    fleet: &[GpuConfig],
    budget: &Budget,
) -> FleetStatus {
    let first = fleet_attempt(app, base, k, expected, fleet, budget, 0);
    match &first {
        FleetStatus::Failed(msg) if crate::tuner::is_transient(msg) => {
            dpcons_obs::counter("tune.candidate.retries").inc();
            fleet_attempt(app, base, k, expected, fleet, budget, 1)
        }
        _ => first,
    }
}

fn fleet_attempt(
    app: &dyn Benchmark,
    base: &RunConfig,
    k: &Knobs,
    expected: &[i64],
    fleet: &[GpuConfig],
    budget: &Budget,
    attempt: u32,
) -> FleetStatus {
    let started = std::time::Instant::now();
    let mut cfg = candidate_config(base, k);
    cfg.capture = true;
    if budget.fuel.is_some() {
        cfg.fuel = budget.fuel;
    }
    if let Err(msg) = fault::before_candidate(app.name(), &k.label(), attempt, &mut cfg.fuel) {
        return FleetStatus::Failed(msg);
    }
    let status = match app.run(Variant::ConsolidatedTuned, &cfg) {
        Err(AppError::Sim(SimError::FuelExhausted { limit })) => {
            dpcons_obs::counter("tune.candidate.fuel_exhausted").inc();
            FleetStatus::TimedOut(format!("fuel exhausted: exceeded the {limit}-step budget"))
        }
        Err(e) => FleetStatus::Failed(e.to_string()),
        Ok(out) if out.output != *expected => FleetStatus::Rejected,
        Ok(out) => match out.captures.as_ref() {
            None => FleetStatus::Failed("capture was requested but none was recorded".to_string()),
            Some(caps) => {
                // The capture run's own report *is* the replay on fleet[0]
                // (pinned bit-exact by replay_differential.rs), so only the
                // other devices need a fresh replay. Each remaining device is
                // priced through the batched parallel entry
                // ([`crate::replay::replay_timing_many_robust`]): every
                // captured host-launch DAG re-timed concurrently, then merged
                // in launch order so the result is bit-identical to a serial
                // `CaptureSet::replay_on`. A panicking replay poisons only
                // this candidate.
                let cell_of = |r: &dpcons_sim::ProfileReport| DeviceCell {
                    cycles: r.total_cycles,
                    dram_transactions: r.dram_transactions,
                    warp_exec_efficiency: r.warp_exec_efficiency,
                    achieved_occupancy: r.achieved_occupancy,
                };
                let dags: Vec<&[dpcons_sim::ExecRecord]> =
                    caps.launches.iter().map(|l| l.as_slice()).collect();
                let mut cells = Vec::with_capacity(fleet.len());
                cells.push(cell_of(&out.report));
                let mut panicked = None;
                'devices: for d in &fleet[1..] {
                    let mut reports = Vec::with_capacity(dags.len());
                    for r in crate::replay::replay_timing_many_robust(d, &dags) {
                        match r {
                            Ok(rep) => reports.push(rep),
                            Err(msg) => {
                                dpcons_obs::counter("tune.replay.panicked").inc();
                                panicked = Some(msg);
                                break 'devices;
                            }
                        }
                    }
                    cells.push(cell_of(&crate::replay::merge_reports(&reports)));
                }
                match panicked {
                    Some(msg) => FleetStatus::Panicked(format!("timing replay panicked: {msg}")),
                    None => FleetStatus::Retimed(cells),
                }
            }
        },
    };
    if let Some(ms) = budget.max_candidate_ms {
        let elapsed = started.elapsed().as_millis() as u64;
        if elapsed > ms {
            dpcons_obs::counter("tune.candidate.deadline_exceeded").inc();
            return FleetStatus::TimedOut(format!(
                "exceeded the {ms} ms soft deadline (took {elapsed} ms)"
            ));
        }
    }
    status
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
    let test_report = tune(test_app, opts)?;
    let test_knobs = test_report
        .best_knobs()
        .ok_or_else(|| TuneError::NoFeasibleCandidate { app: test_app.name().to_string() })?;
    let bench_report = tune(bench_app, opts)?;
    let oracle_knobs = bench_report
        .best_knobs()
        .ok_or_else(|| TuneError::NoFeasibleCandidate { app: bench_app.name().to_string() })?;
    // A report with winning knobs always has the winner's metrics, but under
    // the crate's no-panic policy a disagreement degrades to "no feasible
    // candidate" instead of crashing the caller's sweep.
    let oracle_cycles = bench_report
        .best_cycles()
        .ok_or_else(|| TuneError::NoFeasibleCandidate { app: bench_app.name().to_string() })?;
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

    fn knobs(g: Granularity) -> Knobs {
        Knobs { granularity: g, alloc: AllocKind::PreAlloc, per_buffer_size: None, config: None }
    }

    fn sample() -> FleetReport {
        FleetReport {
            app: "SSSP".into(),
            fingerprint: 0x0123456789ABCDEF,
            key: 0xFEE7,
            devices: vec!["K20c-like".into(), "K40-like".into()],
            candidates: vec![
                FleetCandidate {
                    knobs: knobs(Granularity::Grid),
                    status: FleetStatus::Retimed(vec![
                        DeviceCell {
                            cycles: 900,
                            dram_transactions: 40,
                            warp_exec_efficiency: 0.75,
                            achieved_occupancy: 0.3,
                        },
                        DeviceCell {
                            cycles: 800,
                            dram_transactions: 40,
                            warp_exec_efficiency: 0.75,
                            achieved_occupancy: 0.27,
                        },
                    ]),
                },
                FleetCandidate {
                    knobs: knobs(Granularity::Warp),
                    status: FleetStatus::Pruned("analysis: nope".into()),
                },
                FleetCandidate { knobs: knobs(Granularity::Block), status: FleetStatus::Rejected },
            ],
            winners: vec![Some(0), Some(0)],
            functional_runs: 2,
            retimings: 2,
            from_cache: false,
        }
    }

    #[test]
    fn fleet_text_roundtrip_is_exact() {
        let r = sample();
        let parsed = FleetReport::from_text(&r.to_text()).unwrap();
        assert!(parsed.from_cache);
        assert_eq!(parsed, r, "equality ignores from_cache");
        assert_eq!(parsed.to_text(), r.to_text());
    }

    #[test]
    fn fleet_accessors_find_winners() {
        let r = sample();
        assert_eq!(r.captured_on(), "K20c-like");
        assert_eq!(r.device_index("K40-like"), Some(1));
        assert_eq!(r.winner_knobs(0), Some(knobs(Granularity::Grid)));
        assert_eq!(r.winner_cycles(0), Some(900));
        assert_eq!(r.winner_cycles(1), Some(800));
        assert_eq!(r.retimed().count(), 1);
    }

    #[test]
    fn corrupt_fleet_entries_are_rejected() {
        assert!(FleetReport::from_text("").is_err());
        assert!(FleetReport::from_text("dpcons-fleet v0\n").is_err());
        let r = sample();
        assert!(FleetReport::from_text(&r.to_text().replace("end\n", "")).is_err());
        assert!(FleetReport::from_text(&r.to_text().replace("winner 0\n", "winner 9\n")).is_err());
        // A winner-per-device mismatch is structural corruption.
        let missing = r.to_text().replacen("winner 0\n", "", 1);
        assert!(FleetReport::from_text(&missing).is_err());
        // Cell count must match the device count.
        let short = r.to_text().replace("device K40-like\n", "");
        assert!(FleetReport::from_text(&short).is_err());
    }

    #[test]
    fn transfer_regret_is_relative() {
        let t = TransferReport {
            app: "SSSP".into(),
            device: "K20c-like".into(),
            test_knobs: knobs(Granularity::Grid),
            transferred_cycles: Some(1100),
            oracle_knobs: knobs(Granularity::Grid),
            oracle_cycles: 1000,
        };
        assert!((t.regret().unwrap() - 0.1).abs() < 1e-12);
        let none = TransferReport { transferred_cycles: None, ..t };
        assert_eq!(none.regret(), None);
    }
}
