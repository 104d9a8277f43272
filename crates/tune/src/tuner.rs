//! The directive autotuning search.
//!
//! Pipeline per sweep: enumerate the knob space from the app's base
//! directives → collapse redundant grid-level combinations → prune
//! infeasible points with the compiler's own static analyses → evaluate the
//! survivors in parallel against the simulator's cycle model, in
//! deterministic waves with an optional search budget → rank by cycles among
//! oracle-exact runs → cache the report.

use std::collections::HashSet;
use std::sync::Arc;

use dpcons_apps::{AppError, Benchmark, RunConfig, TuneModel, TunedDirective, Variant};
use dpcons_core::{
    analyze, max_blocks_per_sm, ConfigPolicy, Granularity, KernelResources, KnobSpace,
};
use dpcons_sim::{AllocKind, SimError};

use crate::cache::{Cache, Fnv64};
use crate::fault;
use crate::knobs::Knobs;
use crate::par::parallel_map_robust;
use crate::report::{CandidateOutcome, Metrics, Status, TuneReport};

/// Candidates evaluated per deterministic wave. Fixed (not tied to the core
/// count) so that budget-driven early stopping is machine-independent.
pub const WAVE_SIZE: usize = 16;

/// Version salt folded into every cache key, together with the crate
/// version. **Bump this whenever simulator timing or consolidation codegen
/// changes behaviorally** — the on-disk cache outlives builds, and a stale
/// entry would otherwise report pre-change cycles as current.
/// v2: fault-tolerant sweeps (report format v2 with panicked/timed-out
/// outcomes, `Budget` watchdog fields).
pub const CACHE_SCHEMA: u32 = 2;

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
/// observer of [`tune_with_progress`] / [`crate::fleet_sweep_with_progress`].
/// Waves are strictly ordered within a sweep (`wave` counts 0, 1, 2, …), so
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

    /// The no-op hook.
    pub fn none() -> WaveHook {
        WaveHook(None)
    }

    /// Invoke the callback, if one is set.
    pub fn call(&self, p: WaveProgress) {
        if let Some(f) = &self.0 {
            f(p);
        }
    }
}

impl std::fmt::Debug for WaveHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() { "WaveHook(set)" } else { "WaveHook(none)" })
    }
}

/// Everything configuring one sweep.
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

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            base: RunConfig::default(),
            space: KnobSpace::quick(dpcons_sim::GpuConfig::k20c().num_sms),
            budget: Budget::default(),
            with_baselines: true,
            cache: Some(Cache::in_temp_dir()),
        }
    }
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
    /// environment changed between the sweep and the rerun (e.g. fault
    /// injection is active).
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

/// How many leading entries of `eval_idx` are paper-default candidates.
/// Defaults are ordered first by [`enumerate_candidates`] and are exempt
/// from the evaluation cap, so a budgeted sweep can never do worse than the
/// hand-written directive.
pub(crate) fn leading_default_count(
    model: &TuneModel,
    space: &KnobSpace,
    cands: &[Knobs],
    eval_idx: &[usize],
) -> usize {
    eval_idx
        .iter()
        .take_while(|&&i| space.granularities.iter().any(|&g| default_knobs(model, g) == cands[i]))
        .count()
}

/// Shared budgeted wave driver for [`tune`] and the fleet sweep: walk
/// `eval_idx` in [`WAVE_SIZE`] batches, honoring the evaluation cap (the
/// `n_defaults` leading defaults are always covered) and the no-improvement
/// patience. `evaluate` runs one batch (parallel inside); `record` stores one
/// result and reports whether it improved the incumbent(s) — patience only
/// stops the sweep once at least one improvement has ever been recorded.
/// Each wave is traced as a `wave_span` span carrying the wave number, and
/// reported to `hook` after its results are recorded.
pub(crate) fn run_waves<S>(
    wave_span: &'static str,
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
    let mut pos = 0usize;
    let mut wave_no = 0u64;
    while pos < eval_idx.len() {
        let room = max_evals.saturating_sub(evaluated);
        if room == 0 {
            break;
        }
        let end = (pos + WAVE_SIZE.min(room)).min(eval_idx.len());
        let batch = &eval_idx[pos..end];
        let results = {
            let _wave = dpcons_obs::span_n(wave_span, wave_no);
            evaluate(batch)
        };
        let mut improved = false;
        for (&i, st) in batch.iter().zip(results) {
            improved |= record(i, st);
            evaluated += 1;
        }
        any_best |= improved;
        hook.call(WaveProgress {
            wave: wave_no,
            evaluated: batch.len(),
            evaluated_total: evaluated,
            planned: eval_idx.len(),
            improved,
        });
        wave_no += 1;
        pos = end;
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
pub(crate) fn fingerprint_of(name: &str, reference: &[i64]) -> u64 {
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
    d = d.with_buffer(match k.alloc {
        AllocKind::Default => dpcons_core::BufferKind::Default,
        AllocKind::Halloc => dpcons_core::BufferKind::Halloc,
        AllocKind::PreAlloc => dpcons_core::BufferKind::Custom,
    });
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

/// Run one candidate end to end and score it. Public so tests can
/// force-evaluate pruned candidates. Equivalent to
/// [`evaluate_candidate_robust`] under a default (watchdog-free) budget.
pub fn evaluate_candidate(
    app: &dyn Benchmark,
    base: &RunConfig,
    k: &Knobs,
    expected: &[i64],
) -> Status {
    evaluate_candidate_robust(app, base, k, expected, &Budget::default())
}

/// Whether a failure message names a transient class — worth one bounded
/// retry. The simulator itself is deterministic, so rerunning a genuine
/// simulator fault would fail identically; transient failures only come
/// from the environment (and from [`crate::fault`] injection, which is how
/// the retry path is tested).
pub(crate) fn is_transient(msg: &str) -> bool {
    msg.contains("transient")
}

/// Run one candidate under the full watchdog: fuel/deadline enforcement
/// from `budget`, fault-injection hooks, and one bounded retry when the
/// failure is transient. Panics are *not* caught here — the parallel sweep
/// driver isolates them per job ([`crate::par::parallel_map_robust`]) and
/// records them as [`Status::Panicked`].
pub fn evaluate_candidate_robust(
    app: &dyn Benchmark,
    base: &RunConfig,
    k: &Knobs,
    expected: &[i64],
    budget: &Budget,
) -> Status {
    let first = evaluate_attempt(app, base, k, expected, budget, 0);
    match &first {
        Status::Failed(msg) if is_transient(msg) => {
            dpcons_obs::counter("tune.candidate.retries").inc();
            evaluate_attempt(app, base, k, expected, budget, 1)
        }
        _ => first,
    }
}

fn evaluate_attempt(
    app: &dyn Benchmark,
    base: &RunConfig,
    k: &Knobs,
    expected: &[i64],
    budget: &Budget,
    attempt: u32,
) -> Status {
    // `tune.candidate_us` histogram: wall-clock per candidate evaluation.
    static HIST: std::sync::OnceLock<&'static dpcons_obs::Histogram> = std::sync::OnceLock::new();
    let hist = HIST.get_or_init(|| dpcons_obs::histogram("tune.candidate_us"));
    let started = std::time::Instant::now();
    let mut cfg = candidate_config(base, k);
    if budget.fuel.is_some() {
        cfg.fuel = budget.fuel;
    }
    if let Err(msg) = fault::before_candidate(app.name(), &k.label(), attempt, &mut cfg.fuel) {
        return Status::Failed(msg);
    }
    let status = match app.run(Variant::ConsolidatedTuned, &cfg) {
        Ok(out) => Status::Evaluated(Metrics {
            cycles: out.report.total_cycles,
            device_launches: out.report.device_launches,
            warp_exec_efficiency: out.report.warp_exec_efficiency,
            achieved_occupancy: out.report.achieved_occupancy,
            output_ok: out.output == expected,
        }),
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
            return Status::TimedOut(format!(
                "exceeded the {ms} ms soft deadline (took {elapsed} ms)"
            ));
        }
    }
    status
}

/// The canonical single-device tune cache key: the exact normalization used
/// by [`tune`] for both the in-process dedup layer and the disk cache. Any
/// out-of-process deduplication (e.g. a serving front end) must derive its
/// key through this function so the two layers can never disagree.
///
/// `fp` is the functional fingerprint from [`fingerprint`].
pub fn cache_key_for(
    app: &str,
    fp: u64,
    cfg: &RunConfig,
    space: &KnobSpace,
    budget: &Budget,
    with_baselines: bool,
) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("dpcons-tune-key");
    h.write_u64(CACHE_SCHEMA as u64);
    h.write_str(env!("CARGO_PKG_VERSION"));
    h.write_str(app);
    h.write_u64(fp);
    h.write_str(&format!("{:?}", cfg.gpu));
    h.write_str(&format!("{:?}", cfg.alloc));
    h.write_str(&format!("{:?}", cfg.policy));
    h.write_u64(cfg.threshold as u64);
    h.write_u64(cfg.heap_words);
    h.write_u64(cfg.pool_words);
    h.write_str(&format!("{space:?}"));
    h.write_str(&format!("{budget:?}"));
    h.write(&[u8::from(with_baselines)]);
    h.finish()
}

/// Record one `tune.pruned.<family>` counter per pruned candidate, where the
/// family is the reason's prefix before the first `:` ("analysis",
/// "occupancy", "heap") — a bounded set, so the metric namespace stays small.
pub(crate) fn count_prune_reason(reason: &str) {
    let family = reason.split(':').next().unwrap_or("other").trim();
    dpcons_obs::counter(&format!("tune.pruned.{family}")).inc();
}

/// Run (or fetch from cache) a full tuning sweep for `app`.
pub fn tune(app: &dyn Benchmark, opts: &TuneOptions) -> Result<TuneReport, TuneError> {
    tune_with_progress(app, opts, &WaveHook::none())
}

/// [`tune`] with a per-wave progress callback. The hook fires after each
/// evaluated wave is recorded; a cache hit replays no waves, so the hook is
/// never called on that path.
pub fn tune_with_progress(
    app: &dyn Benchmark,
    opts: &TuneOptions,
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

    let expected = app.reference();
    let fp = fingerprint_of(app.name(), &expected);
    let key =
        cache_key_for(app.name(), fp, &opts.base, &opts.space, &opts.budget, opts.with_baselines);
    if let Some(cache) = &opts.cache {
        if let Some(hit) = cache.get(key) {
            return Ok(hit);
        }
    }

    let (cands, collapsed) = enumerate_candidates(&model, &opts.space);

    // Static pruning.
    let mut statuses: Vec<Option<Status>> =
        cands.iter().map(|k| prune_reason(&model, &opts.base, k).map(Status::Pruned)).collect();
    for st in statuses.iter().flatten() {
        if let Status::Pruned(reason) = st {
            count_prune_reason(reason);
        }
    }
    let eval_idx: Vec<usize> = (0..cands.len()).filter(|&i| statuses[i].is_none()).collect();

    // Baselines. A failed baseline run is omitted from the report (never
    // recorded as a fake cycle count); `TuneReport::baseline` then returns
    // `None` for it.
    let baselines: Vec<(String, u64)> = if opts.with_baselines {
        let jobs: Vec<_> = [Variant::Flat, Variant::BasicDp]
            .into_iter()
            .map(|v| {
                let base = opts.base.clone();
                move || app.run(v, &base).ok().map(|o| (v.label(), o.report.total_cycles))
            })
            .collect();
        // A failed or panicking baseline is omitted, never fatal.
        parallel_map_robust(jobs).into_iter().flatten().flatten().collect()
    } else {
        Vec::new()
    };

    let n_defaults = leading_default_count(&model, &opts.space, &cands, &eval_idx);

    let mut best: Option<(u64, usize)> = None;
    run_waves(
        "tune.wave",
        &eval_idx,
        n_defaults,
        &opts.budget,
        on_wave,
        |batch| {
            let jobs: Vec<_> = batch
                .iter()
                .map(|&i| {
                    let k = cands[i];
                    let base = &opts.base;
                    let expected = &expected;
                    let budget = &opts.budget;
                    move || evaluate_candidate_robust(app, base, &k, expected, budget)
                })
                .collect();
            parallel_map_robust(jobs)
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|panic_msg| {
                        dpcons_obs::counter("tune.candidate.panicked").inc();
                        Status::Panicked(panic_msg)
                    })
                })
                .collect()
        },
        |i, st| {
            let mut improved = false;
            if let Status::Evaluated(m) = &st {
                if m.output_ok {
                    let entry = (m.cycles, i);
                    if best.is_none_or(|b| entry < b) {
                        best = Some(entry);
                        improved = true;
                    }
                }
            }
            statuses[i] = Some(st);
            improved
        },
    );
    // Whatever was not reached is recorded as skipped.
    for &i in &eval_idx {
        if statuses[i].is_none() {
            statuses[i] = Some(Status::Skipped);
        }
    }

    let candidates: Vec<CandidateOutcome> = cands
        .into_iter()
        .zip(statuses)
        .map(|(knobs, status)| CandidateOutcome {
            // Every index was filled by pruning, evaluation, or the
            // skipped-backfill above; `Skipped` is the safe fallback.
            knobs,
            status: status.unwrap_or(Status::Skipped),
        })
        .collect();
    let count = |f: fn(&Status) -> bool| candidates.iter().filter(|c| f(&c.status)).count();
    let report = TuneReport {
        app: app.name().to_string(),
        gpu: opts.base.gpu.name.clone(),
        fingerprint: fp,
        key,
        baselines,
        best: best.map(|(_, i)| i),
        evaluated: count(|s| matches!(s, Status::Evaluated(_))),
        pruned: count(|s| matches!(s, Status::Pruned(_))),
        failed: count(|s| matches!(s, Status::Failed(_))),
        skipped: count(|s| matches!(s, Status::Skipped)),
        panicked: count(|s| matches!(s, Status::Panicked(_))),
        timed_out: count(|s| matches!(s, Status::TimedOut(_))),
        collapsed,
        from_cache: false,
        candidates,
    };
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
    // only fail if the environment changed in between (e.g. fault injection).
    let out = app.run(Variant::ConsolidatedTuned, &cfg).map_err(|e| TuneError::WinnerFailed {
        app: app.name().to_string(),
        error: e.to_string(),
    })?;
    Ok((report, out))
}
