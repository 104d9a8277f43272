//! The one sweep: the directive search over a set of devices.
//!
//! Every search in this crate — a single-device [`tune`], a multi-device
//! [`crate::fleet_sweep`], and through them `reproduce tune`/`fleet` and
//! the `dpcons-serve` daemon — is the private `sweep` below; `tune` is the
//! sweep over `[base.gpu]`. Its stages: key the request ([`cache_key_for`])
//! and look the results cache up → enumerate the knob space, collapsing
//! redundant grid-level combinations → prune infeasible points with the
//! compiler's own static analyses → optionally run the baselines → evaluate
//! the survivors in parallel, in deterministic waves under the search budget
//! → rank by cycles among oracle-exact runs, once per device → store.
//!
//! A candidate executes functionally **once**, on `devices[0]`, whatever the
//! device count: only timing depends on a device's structural resources
//! (`dpcons-sim`'s two-phase engine bakes segment durations into a capture
//! and applies SM counts, residency limits, concurrency and pending pools at
//! replay). With further devices the run keeps its launch DAGs and each
//! device re-prices them by timing-only replay; with none it drops them, as
//! a plain run does. Pinned by `crates/sim/tests/replay_differential.rs`
//! (replayed timing ≡ fresh execution) and, in `crates/tune/tests/`, by
//! `fleet_exec_count.rs` (no extra functional work) and `one_sweep.rs` (the
//! one-device column ≡ the single-device sweep).

use std::collections::HashSet;
use std::sync::Arc;

use dpcons_apps::{AppError, AppOutcome, Benchmark, RunConfig, TuneModel, TunedDirective, Variant};
use dpcons_core::{
    analyze, max_blocks_per_sm, ConfigPolicy, Granularity, KernelResources, KnobSpace,
};
use dpcons_sim::{AllocKind, ExecRecord, GpuConfig, ProfileReport, SimError};

use crate::cache::{Cache, Fnv64};
use crate::knobs::Knobs;
use crate::par::parallel_map_robust;
use crate::replay::{merge_reports, replay_timing_many};
use crate::report::{CandidateOutcome, Metrics, Status, TuneReport};

/// Candidates evaluated per deterministic wave. Fixed (not tied to the core
/// count) so that budget-driven early stopping is machine-independent.
pub const WAVE_SIZE: usize = 16;

/// Version salt folded into every cache key, together with the crate
/// version. **Bump this whenever simulator timing or consolidation codegen
/// changes behaviorally** — the on-disk cache outlives builds, and a stale
/// entry would otherwise report pre-change cycles as current.
/// v2: fault-tolerant sweeps (panicked/timed-out outcomes, `Budget` watchdog
/// fields). v3: one report format for every device count, one key function.
pub const CACHE_SCHEMA: u32 = 3;

/// Search budget: caps and early stopping for large knob grids. The paper's
/// per-granularity default candidates are always evaluated (they are ordered
/// first and exempt from the cap), so a budgeted sweep can never do worse
/// than the hand-written directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Stop after this many evaluations (`None` = unbounded).
    pub max_evals: Option<usize>,
    /// Stop after this many consecutive waves without an improvement
    /// (`None` = never stop early).
    pub patience: Option<usize>,
    /// Per-candidate functional step budget (blocks + warp loop
    /// iterations); a candidate that exceeds it is recorded as
    /// [`Status::TimedOut`] instead of hanging the sweep. Deterministic:
    /// the same candidate exhausts at the same step on every machine.
    /// `None` = unlimited.
    pub fuel: Option<u64>,
    /// Per-candidate wall-clock soft deadline in milliseconds, checked
    /// after the run returns (the deterministic hard stop is [`Budget::fuel`]).
    /// A candidate that overruns it is recorded as [`Status::TimedOut`].
    /// Machine-dependent — leave `None` when reports must be reproducible.
    pub max_candidate_ms: Option<u64>,
}

/// Progress of one completed evaluation wave, delivered to the optional
/// observer of [`crate::fleet_sweep_with_progress`]. Waves are strictly ordered within a sweep (`wave` counts 0, 1, 2, …), so
/// a streaming consumer can render monotonic progress without buffering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveProgress {
    /// 0-based wave index, strictly increasing within one sweep.
    pub wave: u64,
    /// Candidates evaluated in this wave.
    pub evaluated: usize,
    /// Candidates evaluated so far, this wave included.
    pub evaluated_total: usize,
    /// Evaluable candidates the sweep planned after pruning; the budget may
    /// legitimately stop the sweep before reaching them all.
    pub planned: usize,
    /// Whether this wave improved the incumbent best on any ranking.
    pub improved: bool,
}

/// Observer called after every sweep wave. The default is a no-op; the
/// callback must be `Send + Sync` because waves run on sweep worker threads.
/// Cache hits return a finished report without replaying any waves, so an
/// observer that must see every wave should disable the cache.
#[derive(Clone, Default)]
pub struct WaveHook(Option<Arc<dyn Fn(WaveProgress) + Send + Sync>>);

impl WaveHook {
    /// Wrap a callback.
    pub fn new(f: impl Fn(WaveProgress) + Send + Sync + 'static) -> WaveHook {
        WaveHook(Some(Arc::new(f)))
    }

    /// Invoke the callback, if one is set.
    pub fn call(&self, p: WaveProgress) {
        if let Some(f) = &self.0 {
            f(p);
        }
    }
}

/// Everything configuring one single-device sweep.
#[derive(Debug, Clone)]
pub struct TuneOptions {
    /// Base run configuration (device, threshold, heap sizes). The
    /// `alloc`/`policy`/`tuned` fields are overridden per candidate.
    pub base: RunConfig,
    pub space: KnobSpace,
    pub budget: Budget,
    /// Also measure the `no-dp` and `basic-dp` baselines for the report.
    pub with_baselines: bool,
    /// Results cache; `None` disables caching entirely.
    pub cache: Option<Cache>,
}

/// Errors surfaced by the tuner itself (candidate-level failures are data,
/// recorded in the report, not errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TuneError {
    /// The app exposes no [`TuneModel`].
    NotTunable { app: String },
    /// The knob space enumerates to nothing.
    EmptySpace,
    /// Every candidate was pruned, failed, or corrupted its output.
    NoFeasibleCandidate { app: String },
    /// The budget is structurally unusable (e.g. `max_evals == Some(0)`).
    InvalidBudget { reason: &'static str },
    /// Re-running the sweep winner failed — only possible when the
    /// environment changed between the sweep and the rerun, or the
    /// benchmark's runs are not deterministic.
    WinnerFailed { app: String, error: String },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NotTunable { app } => {
                write!(f, "benchmark `{app}` exposes no tuning model")
            }
            TuneError::EmptySpace => write!(f, "the knob space is empty"),
            TuneError::NoFeasibleCandidate { app } => {
                write!(f, "no feasible directive candidate found for `{app}`")
            }
            TuneError::InvalidBudget { reason } => write!(f, "invalid search budget: {reason}"),
            TuneError::WinnerFailed { app, error } => {
                write!(f, "re-running the sweep winner for `{app}` failed: {error}")
            }
        }
    }
}

impl std::error::Error for TuneError {}

/// The budgeted wave driver: walk `eval_idx` in [`WAVE_SIZE`] batches,
/// honoring the evaluation cap (the `n_defaults` leading defaults are always
/// covered) and the no-improvement patience. `evaluate` runs one batch
/// (parallel inside); `record` stores one result and reports whether it
/// improved the incumbent on any device — patience only stops the sweep once
/// at least one improvement has ever been recorded. Each wave is traced as a
/// `tune.wave` span carrying the wave number, and reported to `hook` after
/// its results are recorded.
fn run_waves<S>(
    eval_idx: &[usize],
    n_defaults: usize,
    budget: &Budget,
    hook: &WaveHook,
    evaluate: impl Fn(&[usize]) -> Vec<S>,
    mut record: impl FnMut(usize, S) -> bool,
) {
    let max_evals = budget.max_evals.map(|m| m.max(n_defaults)).unwrap_or(usize::MAX);
    let mut evaluated = 0usize;
    let mut stale_waves = 0usize;
    let mut any_best = false;
    let mut wave_no = 0u64;
    while evaluated < eval_idx.len().min(max_evals) {
        let room = WAVE_SIZE.min(max_evals - evaluated);
        let batch = &eval_idx[evaluated..(evaluated + room).min(eval_idx.len())];
        let results = {
            let _wave = dpcons_obs::span_n("tune.wave", wave_no);
            evaluate(batch)
        };
        let mut improved = false;
        for (&i, st) in batch.iter().zip(results) {
            improved |= record(i, st);
        }
        evaluated += batch.len();
        any_best |= improved;
        hook.call(WaveProgress {
            wave: wave_no,
            evaluated: batch.len(),
            evaluated_total: evaluated,
            planned: eval_idx.len(),
            improved,
        });
        wave_no += 1;
        if let Some(p) = budget.patience {
            if improved {
                stale_waves = 0;
            } else {
                stale_waves += 1;
                if stale_waves >= p && any_best {
                    break;
                }
            }
        }
    }
}

/// Hash of the app's oracle output: identifies (app, dataset) pairs without
/// any per-app plumbing, since the oracle is a deterministic function of the
/// dataset.
pub fn fingerprint(app: &dyn Benchmark) -> u64 {
    fingerprint_of(app.name(), &app.reference())
}

/// [`fingerprint`] of an oracle output already in hand: a sweep computes the
/// reference once, hashes it here, and checks candidates against it.
fn fingerprint_of(name: &str, reference: &[i64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(name);
    h.write_u64(reference.len() as u64);
    for &v in reference {
        h.write_u64(v as u64);
    }
    h.finish()
}

/// The knob coordinates of the app's hand-written directive at `g`.
pub fn default_knobs(model: &TuneModel, g: Granularity) -> Knobs {
    Knobs::from_directive(&(model.directive)(g))
}

/// Enumerate the candidate list in deterministic search order. Grid-level
/// combinations that differ only in buffer allocator or per-buffer size are
/// collapsed onto one canonical candidate (neither knob reaches grid-level
/// codegen: the buffer is the host-provided pool), and the paper-default
/// candidates are moved to the front so budgeted sweeps always cover them.
/// Returns the candidates plus the number of collapsed duplicates.
pub fn enumerate_candidates(model: &TuneModel, space: &KnobSpace) -> (Vec<Knobs>, usize) {
    let mut seen: HashSet<Knobs> = HashSet::new();
    let mut out: Vec<Knobs> = Vec::new();
    let mut collapsed = 0usize;
    for &g in &space.granularities {
        let base = (model.directive)(g);
        let sub = KnobSpace { granularities: vec![g], ..space.clone() };
        for d in base.enumerate(&sub) {
            let mut k = Knobs::from_directive(&d);
            if g == Granularity::Grid {
                k.alloc = AllocKind::PreAlloc;
                k.per_buffer_size = Knobs::from_directive(&base).per_buffer_size;
            }
            if seen.insert(k) {
                out.push(k);
            } else {
                collapsed += 1;
            }
        }
    }
    let defaults: Vec<Knobs> =
        space.granularities.iter().map(|&g| default_knobs(model, g)).collect();
    out.sort_by_key(|k| usize::from(!defaults.contains(k)));
    (out, collapsed)
}

/// Static feasibility check; `Some(reason)` means the candidate cannot run.
///
/// Every predicate is conservative — a pruned candidate is *guaranteed* to
/// fail when evaluated (compiler rejection, launch-config rejection, or heap
/// exhaustion), which `crates/tune/tests/` verifies by force-evaluating
/// pruned points.
pub fn prune_reason(model: &TuneModel, cfg: &RunConfig, k: &Knobs) -> Option<String> {
    let dir = materialize_directive(model, k);
    // (a) template/analysis feasibility for this granularity (e.g. warp-level
    // consolidation of a kernel that device-synchronizes is rejected).
    let analysis = match analyze(&model.module_dp, model.parent, &dir) {
        Ok(a) => a,
        Err(e) => return Some(format!("analysis: {e}")),
    };
    // (b) launch-configuration limits of the consolidated kernel.
    if let Some((_, t)) = k.config {
        if t > cfg.gpu.max_threads_per_block {
            return Some(format!(
                "occupancy: block dimension {t} exceeds device limit {}",
                cfg.gpu.max_threads_per_block
            ));
        }
        // `analyze` resolved the child kernel above, so this lookup cannot
        // miss; treat a miss as a (conservative) prune anyway rather than
        // panicking inside a sweep worker.
        let Some(child) = model.module_dp.get(&analysis.launch.target) else {
            return Some(format!("analysis: child kernel `{}` not found", analysis.launch.target));
        };
        let res = KernelResources {
            regs_per_thread: child.regs_per_thread,
            shared_bytes: child.shared_bytes,
        };
        if max_blocks_per_sm(&cfg.gpu, t, res) == 0 {
            return Some(format!(
                "occupancy: no SM can host a {t}-thread block of `{}`",
                analysis.launch.target
            ));
        }
    }
    // (c) heap capacity: a single warp/block consolidation buffer larger than
    // the device heap can never be allocated. (Grid level uses the
    // host-provided pool, not the device heap.)
    if k.granularity != Granularity::Grid {
        if let Some(n) = k.per_buffer_size {
            let nv = analysis.launch.buffered.len() as u64;
            let words = 1 + n * nv;
            if words > cfg.heap_words {
                return Some(format!(
                    "heap: one {words}-word buffer exceeds the {}-word device heap",
                    cfg.heap_words
                ));
            }
        }
    }
    None
}

/// The full [`dpcons_core::Directive`] a knob point stands for (the app's
/// base directive at that granularity with the knob overrides applied) —
/// useful for printing the winning pragma.
pub fn materialize_directive(model: &TuneModel, k: &Knobs) -> dpcons_core::Directive {
    let mut d = (model.directive)(k.granularity);
    d = d.with_per_buffer_size(k.per_buffer_size);
    d = d.with_buffer(k.alloc.into());
    d
}

/// The run configuration a candidate evaluates under.
pub fn candidate_config(base: &RunConfig, k: &Knobs) -> RunConfig {
    RunConfig {
        alloc: k.alloc,
        policy: k.config.map(|(b, t)| ConfigPolicy::Custom(b, t)).or(base.policy),
        tuned: Some(TunedDirective {
            granularity: k.granularity,
            per_buffer_size: k.per_buffer_size,
        }),
        ..base.clone()
    }
}

/// The configuration one evaluation of `k` runs under: [`candidate_config`]
/// with the budget's fuel (when set), recording launch DAGs exactly when
/// some other device will replay them — a single-device sweep copies none
/// and costs a plain run.
fn attempt_config(base: &RunConfig, k: &Knobs, others: &[GpuConfig], budget: &Budget) -> RunConfig {
    RunConfig {
        capture: !others.is_empty(),
        fuel: budget.fuel.or(base.fuel),
        ..candidate_config(base, k)
    }
}

/// Run one candidate end to end on `base.gpu` and score it. Public so tests
/// can force-evaluate pruned candidates: the sweep's own evaluation of one
/// row, on one device, under a default (watchdog-free) budget.
pub fn evaluate_candidate(
    app: &dyn Benchmark,
    base: &RunConfig,
    k: &Knobs,
    expected: &[i64],
) -> Status {
    evaluate(app, base, k, expected, &[], &Budget::default()).0
}

/// Run one candidate under the full watchdog and price it on `base.gpu` plus
/// `others`: fuel/deadline enforcement from `budget`. A failure is final: the
/// simulator is deterministic, so a rerun would fail identically. Panics are
/// *not* caught here — the parallel sweep driver isolates them per job
/// ([`crate::par::parallel_map_robust`]) and records them as
/// [`Status::Panicked`]. There is no fault hook: tests provoke panics, fuel
/// exhaustion and delays through a `Benchmark` of their own that wraps a
/// real app (`tests/fault_injection.rs`).
fn evaluate(
    app: &dyn Benchmark,
    base: &RunConfig,
    k: &Knobs,
    expected: &[i64],
    others: &[GpuConfig],
    budget: &Budget,
) -> (Status, Vec<Metrics>) {
    // `tune.candidate_us` histogram: wall-clock per candidate evaluation.
    static HIST: std::sync::OnceLock<&'static dpcons_obs::Histogram> = std::sync::OnceLock::new();
    let hist = HIST.get_or_init(|| dpcons_obs::histogram("tune.candidate_us"));
    let started = std::time::Instant::now();
    let cfg = attempt_config(base, k, others, budget);
    let mut retimed = Vec::new();
    let status = match app.run(Variant::ConsolidatedTuned, &cfg) {
        Ok(out) => {
            let captured = metrics_of(&out.report, out.output == expected);
            // A run that diverged from the oracle is never ranked, so it is
            // not re-timed either.
            let others = if captured.output_ok { others } else { &[] };
            match retime(&out, others) {
                Ok(columns) => {
                    retimed = columns;
                    Status::Evaluated(captured)
                }
                Err(fault) => fault,
            }
        }
        Err(AppError::Sim(SimError::FuelExhausted { limit })) => {
            dpcons_obs::counter("tune.candidate.fuel_exhausted").inc();
            Status::TimedOut(format!("fuel exhausted: exceeded the {limit}-step budget"))
        }
        Err(e) => Status::Failed(e.to_string()),
    };
    hist.record(started.elapsed().as_micros() as u64);
    if let Some(ms) = budget.max_candidate_ms {
        let elapsed = started.elapsed().as_millis() as u64;
        if elapsed > ms {
            dpcons_obs::counter("tune.candidate.deadline_exceeded").inc();
            let msg = format!("exceeded the {ms} ms soft deadline (took {elapsed} ms)");
            return (Status::TimedOut(msg), Vec::new());
        }
    }
    (status, retimed)
}

/// Price a captured run on each of `others`. The run's own report *is* the
/// replay on the capture device (pinned bit-exact by
/// `replay_differential.rs`), so only the other devices need one. Each goes
/// through the batched parallel entry: every captured host-launch DAG
/// re-timed in record-balanced chunks, then merged in launch order, so the
/// result is bit-identical to a serial `CaptureSet::replay_on`. A replay
/// panic is a panic of this candidate's job: the wave's
/// [`parallel_map_robust`] fence records it as [`Status::Panicked`].
fn retime(out: &AppOutcome, others: &[GpuConfig]) -> Result<Vec<Metrics>, Status> {
    if others.is_empty() {
        return Ok(Vec::new());
    }
    let Some(caps) = out.captures.as_ref() else {
        return Err(Status::Failed("capture was requested but none was recorded".to_string()));
    };
    let dags: Vec<&[ExecRecord]> = caps.launches.iter().map(|l| l.as_slice()).collect();
    Ok(others
        .iter()
        .map(|d| metrics_of(&merge_reports(&replay_timing_many(d, &dags)), true))
        .collect())
}

fn metrics_of(r: &ProfileReport, output_ok: bool) -> Metrics {
    Metrics {
        cycles: r.total_cycles,
        device_launches: r.device_launches,
        warp_exec_efficiency: r.warp_exec_efficiency,
        achieved_occupancy: r.achieved_occupancy,
        output_ok,
    }
}

/// The canonical sweep key: the exact normalization the sweep uses for both
/// the in-process dedup layer and the disk cache, whatever the device count.
/// Any out-of-process deduplication (e.g. a serving front end) must derive
/// its key through this function so the two layers can never disagree.
///
/// `fp` is the functional fingerprint from [`fingerprint`]; `devices` is
/// every device priced, capture device first, each hashed by its full
/// description (structural limits *and* cost model) — `[base.gpu]` for a
/// single-device tune. `base.gpu` itself is not hashed: the capture device is
/// always `devices[0]`.
pub fn cache_key_for(
    app: &str,
    fp: u64,
    base: &RunConfig,
    space: &KnobSpace,
    budget: &Budget,
    devices: &[GpuConfig],
    with_baselines: bool,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("dpcons-tune-key");
    h.write_u64(CACHE_SCHEMA as u64);
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(app);
    h.write_u64(fp);
    h.write_str(&format!("{:?}", base.alloc));
    h.write_str(&format!("{:?}", base.policy));
    h.write_u64(base.threshold as u64);
    h.write_u64(base.heap_words);
    h.write_u64(base.pool_words);
    // The step budget in force: baselines run under `base.fuel`, and so do
    // candidates whenever `budget.fuel` (hashed with the budget) is `None`.
    h.write_str(&format!("{:?}", base.fuel));
    h.write_str(&format!("{space:?}"));
    h.write_str(&format!("{budget:?}"));
    for d in devices {
        h.write_str(&format!("{d:?}"));
    }
    h.write(&[u8::from(with_baselines)]);
    h.finish()
}

/// Run (or fetch from cache) a full tuning sweep for `app` on `opts.base.gpu`.
pub fn tune(app: &dyn Benchmark, opts: &TuneOptions) -> Result<TuneReport, TuneError> {
    sweep(app, opts, std::slice::from_ref(&opts.base.gpu), &WaveHook::default())
}

/// The sweep (see the module docs) of `app` over `devices`, which the caller
/// guarantees non-empty and replay-compatible with `devices[0]` (the fleet
/// adapter checks); `opts.base.gpu` is overridden by
/// `devices[0]`, the capture device. Paper defaults are always evaluated;
/// patience counts waves without an improvement on *any* device.
pub(crate) fn sweep(
    app: &dyn Benchmark,
    opts: &TuneOptions,
    devices: &[GpuConfig],
    on_wave: &WaveHook,
) -> Result<TuneReport, TuneError> {
    let _sweep = dpcons_obs::span("tune.sweep");
    let model =
        app.tune_model().ok_or_else(|| TuneError::NotTunable { app: app.name().to_string() })?;
    if opts.space.is_empty() || opts.space.granularities.is_empty() {
        return Err(TuneError::EmptySpace);
    }
    if opts.budget.max_evals == Some(0) {
        return Err(TuneError::InvalidBudget {
            reason: "max_evals must be nonzero (use None for an unbounded sweep)",
        });
    }
    let base = RunConfig { gpu: devices[0].clone(), ..opts.base.clone() };

    let expected = app.reference();
    let fp = fingerprint_of(app.name(), &expected);
    let key = cache_key_for(
        app.name(),
        fp,
        &base,
        &opts.space,
        &opts.budget,
        devices,
        opts.with_baselines,
    );
    if let Some(hit) = opts.cache.as_ref().and_then(|cache| cache.get(key)) {
        return Ok(hit);
    }

    // Enumerate, then prune statically; what survives starts out `Skipped`
    // and stays so if the budget stops the sweep before reaching it.
    let (cands, collapsed) = enumerate_candidates(&model, &opts.space);
    let mut rows: Vec<CandidateOutcome> = cands
        .iter()
        .map(|&knobs| {
            let status = match prune_reason(&model, &base, &knobs) {
                Some(reason) => {
                    // One `tune.pruned.<family>` counter per reason prefix
                    // ("analysis", "occupancy", "heap") — a bounded set.
                    let family = reason.split(':').next().unwrap_or("other").trim();
                    dpcons_obs::counter(&format!("tune.pruned.{family}")).inc();
                    Status::Pruned(reason)
                }
                None => Status::Skipped,
            };
            CandidateOutcome { knobs, status, retimed: Vec::new() }
        })
        .collect();
    let eval_idx: Vec<usize> =
        (0..rows.len()).filter(|&i| rows[i].status == Status::Skipped).collect();

    // Baselines. A failed or panicking baseline run is omitted from the
    // report (never recorded as a fake cycle count, never fatal);
    // `TuneReport::baseline` then returns `None` for it.
    let baselines: Vec<(String, u64)> = if opts.with_baselines {
        let jobs: Vec<_> = [Variant::Flat, Variant::BasicDp]
            .into_iter()
            .map(|v| {
                let base = &base;
                move || app.run(v, base).ok().map(|o| (v.label(), o.report.total_cycles))
            })
            .collect();
        parallel_map_robust(jobs).into_iter().flatten().flatten().collect()
    } else {
        Vec::new()
    };

    // Defaults are ordered first by `enumerate_candidates` and are exempt
    // from the evaluation cap, so a budgeted sweep can never do worse than
    // the hand-written directive.
    let is_default =
        |k: &Knobs| opts.space.granularities.iter().any(|&g| default_knobs(&model, g) == *k);
    let n_defaults = eval_idx.iter().take_while(|&&i| is_default(&cands[i])).count();
    // Best cycles so far per device; candidates are visited in index order,
    // so only a strictly faster run takes over — the report's tie-break.
    let mut best = vec![u64::MAX; devices.len()];
    run_waves(
        &eval_idx,
        n_defaults,
        &opts.budget,
        on_wave,
        |batch| {
            let jobs: Vec<_> = batch
                .iter()
                .map(|&i| {
                    let (k, base, expected) = (&cands[i], &base, &expected);
                    move || evaluate(app, base, k, expected, &devices[1..], &opts.budget)
                })
                .collect();
            parallel_map_robust(jobs)
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|panic_msg| {
                        dpcons_obs::counter("tune.candidate.panicked").inc();
                        (Status::Panicked(panic_msg), Vec::new())
                    })
                })
                .collect()
        },
        |i, (status, retimed)| {
            rows[i].status = status;
            rows[i].retimed = retimed;
            let mut improved = false;
            for (d, best) in best.iter_mut().enumerate() {
                if let Some(cycles) = rows[i].cycles_on(d).filter(|c| c < best) {
                    *best = cycles;
                    improved = true;
                }
            }
            improved
        },
    );

    let names = devices.iter().map(|d| d.name.clone()).collect();
    let report =
        TuneReport::new(app.name().to_string(), names, fp, key, baselines, rows, collapsed);
    if devices.len() > 1 {
        dpcons_obs::counter("fleet.captures").add(report.functional_runs);
        dpcons_obs::counter("fleet.retimings").add(report.retimings);
    }
    if let Some(cache) = &opts.cache {
        cache.put(key, &report);
    }
    Ok(report)
}

/// Tune, then run the app once under the winning knobs, returning the tuned
/// outcome alongside the report. This is the `Variant::ConsolidatedTuned`
/// end-to-end path: search first, launch with the winner.
pub fn run_tuned(
    app: &dyn Benchmark,
    opts: &TuneOptions,
) -> Result<(TuneReport, dpcons_apps::AppOutcome), TuneError> {
    let report = tune(app, opts)?;
    let knobs = report
        .best_knobs()
        .ok_or_else(|| TuneError::NoFeasibleCandidate { app: app.name().to_string() })?;
    let cfg = candidate_config(&opts.base, &knobs);
    // The winner evaluated successfully during the sweep, so this rerun can
    // only fail if the environment changed in between.
    let out = app.run(Variant::ConsolidatedTuned, &cfg).map_err(|e| TuneError::WinnerFailed {
        app: app.name().to_string(),
        error: e.to_string(),
    })?;
    Ok((report, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_attempt_captures_iff_another_device_will_replay_it() {
        let k = Knobs {
            granularity: Granularity::Grid,
            alloc: AllocKind::PreAlloc,
            per_buffer_size: None,
            config: None,
        };
        // Computed from the device list, never inherited from the base.
        for capture in [false, true] {
            let base = RunConfig { capture, fuel: Some(9), ..RunConfig::default() };
            let budget = Budget::default();
            assert!(!attempt_config(&base, &k, &[], &budget).capture);
            assert!(attempt_config(&base, &k, &[GpuConfig::k40()], &budget).capture);
            assert_eq!(attempt_config(&base, &k, &[], &budget).fuel, Some(9));
            let tight = Budget { fuel: Some(5), ..budget };
            assert_eq!(attempt_config(&base, &k, &[], &tight).fuel, Some(5));
        }
    }
}
