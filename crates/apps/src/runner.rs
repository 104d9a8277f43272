//! Variant runner: build, transform, launch, and profile one benchmark
//! variant (flat / basic-dp / consolidated×{warp,block,grid}).
//!
//! Every app supplies two modules — a flat (no-dp) implementation and an
//! annotated basic-dp implementation — plus its host driver loop. The runner
//! owns the boilerplate the paper's framework implies: applying the
//! consolidation compiler for the consolidated variants, allocating the
//! grid-level pool/barrier arrays, resetting consolidation state between
//! host launches, and merging per-launch profiles.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use dpcons_core::{
    consolidate, prepare_launch, reset_launch, ConfigPolicy, Consolidated, Directive, Granularity,
    PreparedLaunch, SizeSpec, TransformError,
};
use dpcons_ir::{install, IrError, Module};
use dpcons_sim::{
    AllocKind, ArrayId, Engine, ExecRecord, GpuConfig, KernelId, LaunchSpec, ProfileReport,
    SimError,
};

/// `app.host_launches` counter: every host-side kernel launch made through a
/// [`VariantSession`], cached so the per-launch cost is one atomic add.
fn host_launches_counter() -> &'static dpcons_obs::Counter {
    static C: OnceLock<&'static dpcons_obs::Counter> = OnceLock::new();
    C.get_or_init(|| dpcons_obs::counter("app.host_launches"))
}

/// `app.reset_words` counter: words written by `prepare_launch` /
/// `reset_launch` to ready the consolidation state for a host launch.
fn reset_words_counter() -> &'static dpcons_obs::Counter {
    static C: OnceLock<&'static dpcons_obs::Counter> = OnceLock::new();
    C.get_or_init(|| dpcons_obs::counter("app.reset_words"))
}

/// Which implementation of a benchmark to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Flat (no-dp) kernel: one thread per work element, loops inline.
    Flat,
    /// Basic dynamic parallelism: per-thread child launches (Fig. 1).
    BasicDp,
    /// Compiler-consolidated dynamic parallelism.
    Consolidated(Granularity),
    /// Consolidation under an autotuned directive: the knobs come from
    /// [`RunConfig::tuned`] (granularity and per-buffer capacity) together
    /// with the session's `alloc`/`policy` fields, normally filled in by
    /// `dpcons-tune` after a knob-space search.
    ConsolidatedTuned,
}

impl Variant {
    pub fn label(self) -> String {
        match self {
            Variant::Flat => "no-dp".to_string(),
            Variant::BasicDp => "basic-dp".to_string(),
            Variant::Consolidated(g) => format!("{}-level", g.label()),
            Variant::ConsolidatedTuned => "tuned".to_string(),
        }
    }

    pub const ALL: [Variant; 5] = [
        Variant::BasicDp,
        Variant::Flat,
        Variant::Consolidated(Granularity::Warp),
        Variant::Consolidated(Granularity::Block),
        Variant::Consolidated(Granularity::Grid),
    ];
}

/// Errors from building or running a benchmark variant.
#[derive(Debug)]
pub enum AppError {
    Sim(SimError),
    Ir(IrError),
    Transform(TransformError),
    Driver(String),
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::Sim(e) => write!(f, "simulator: {e}"),
            AppError::Ir(e) => write!(f, "ir: {e}"),
            AppError::Transform(e) => write!(f, "transform: {e}"),
            AppError::Driver(m) => write!(f, "driver: {m}"),
        }
    }
}

impl std::error::Error for AppError {}

impl From<SimError> for AppError {
    fn from(e: SimError) -> Self {
        AppError::Sim(e)
    }
}

impl From<IrError> for AppError {
    fn from(e: IrError) -> Self {
        AppError::Ir(e)
    }
}

impl From<TransformError> for AppError {
    fn from(e: TransformError) -> Self {
        AppError::Transform(e)
    }
}

/// Directive knobs selected by an autotuner for [`Variant::ConsolidatedTuned`].
/// The remaining knobs ride on the session config: the buffer mechanism
/// follows [`RunConfig::alloc`] and the consolidated-kernel configuration
/// follows [`RunConfig::policy`], exactly as for [`Variant::Consolidated`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TunedDirective {
    pub granularity: Granularity,
    /// Per-buffer capacity override in items; `None` keeps the app's
    /// hand-written `perBufferSize`.
    pub per_buffer_size: Option<u64>,
}

/// Execution configuration shared by all benchmarks.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub gpu: GpuConfig,
    pub alloc: AllocKind,
    /// Nested-kernel configuration policy; `None` = the paper's default
    /// (KC_1 / KC_16 / KC_32 by granularity).
    pub policy: Option<ConfigPolicy>,
    /// Work-delegation threshold (`neighbors.size > THRESHOLD` in Fig. 1b).
    pub threshold: i64,
    pub heap_words: u64,
    pub pool_words: u64,
    /// Autotuned directive knobs; required by [`Variant::ConsolidatedTuned`].
    pub tuned: Option<TunedDirective>,
    /// Keep the functional launch DAG of every host launch so the run can
    /// be re-timed on other devices ([`AppOutcome::captures`]). Every run
    /// captures and prices each launch the same way; this flag only decides
    /// whether the DAGs are kept or dropped, so the report is the same
    /// either way (`crates/sim/tests/replay_differential.rs` pins it).
    pub capture: bool,
    /// Functional step budget for the whole session (all host launches
    /// share one [`dpcons_sim::FuelMeter`]); `None` = unlimited. A limited
    /// budget turns a hung or exploding run into a deterministic
    /// `SimError::FuelExhausted` — the tuner's candidate watchdog.
    pub fuel: Option<u64>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            gpu: GpuConfig::k20c(),
            alloc: AllocKind::PreAlloc,
            policy: None,
            threshold: 4,
            heap_words: 1 << 26, // 512 MB, the paper's default pool size
            pool_words: 1 << 22,
            tuned: None,
            capture: false,
            fuel: None,
        }
    }
}

/// Functional capture of one whole app run: every host launch's
/// [`ExecRecord`] DAG (in launch order) plus the capture engine's final
/// allocator statistics. [`CaptureSet::replay_on`] re-prices the identical
/// functional execution on another device without re-running any kernel —
/// the substrate of the `dpcons-tune` device-fleet what-if sweep.
#[derive(Debug)]
pub struct CaptureSet {
    /// Device the functional run executed on. Codegen (configuration
    /// policies scale with SM count) and segment durations are baked in
    /// against this device, so replay targets must share its warp size and
    /// cost model (see [`Engine::replay_timing_on`]).
    pub captured_on: GpuConfig,
    /// One record DAG per host launch.
    pub launches: Vec<Vec<ExecRecord>>,
    /// Final allocator statistics of the capture engine. Timing replay never
    /// produces these ([`Engine::replay_timing_on`] leaves them zero): they
    /// are functional facts, identical on every replay device.
    pub alloc_ops: u64,
    pub alloc_cycles: u64,
}

impl CaptureSet {
    /// Total kernels executed across all captured launches.
    pub fn kernels_executed(&self) -> u64 {
        self.launches.iter().map(|l| l.len() as u64).sum()
    }

    /// Whether `gpu` can validly re-time this capture (same warp size and
    /// cost model as the capture device).
    pub fn compatible_with(&self, gpu: &GpuConfig) -> bool {
        gpu.warp_size == self.captured_on.warp_size && gpu.costs == self.captured_on.costs
    }

    /// Re-time the captured run on `gpu`: per-launch timing replays merged
    /// exactly as the live runner merges per-launch profiles, with the
    /// capture-time allocator statistics re-attached (replay itself leaves
    /// them zero). Replaying on the capture device reproduces the original
    /// run's [`AppOutcome::report`] bit for bit.
    pub fn replay_on(&self, gpu: &GpuConfig) -> ProfileReport {
        assert!(
            self.compatible_with(gpu),
            "device `{}` cannot replay a capture from `{}`: warp size or cost model differs",
            gpu.name,
            self.captured_on.name
        );
        let mut total = ProfileReport::default();
        for records in &self.launches {
            total.merge(&Engine::replay_timing_on(gpu, records));
        }
        total.alloc_ops = self.alloc_ops;
        total.alloc_cycles = self.alloc_cycles;
        total
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone)]
pub struct AppOutcome {
    pub report: ProfileReport,
    /// App-defined primary output (distances, ranks, colors, counters...).
    pub output: Vec<i64>,
    pub host_iterations: u32,
    /// The functional capture, present when [`RunConfig::capture`] was set.
    pub captures: Option<Arc<CaptureSet>>,
}

/// One prepared variant: engine + installed module (+ consolidation info).
pub struct VariantSession {
    pub engine: Engine,
    pub ids: HashMap<String, KernelId>,
    pub cons: Option<Consolidated>,
    pub cfg: RunConfig,
    prep: Option<PreparedLaunch>,
    pub total: ProfileReport,
    /// Per-launch record DAGs, collected when [`RunConfig::capture`] is set.
    captures: Option<Vec<Vec<ExecRecord>>>,
}

impl VariantSession {
    /// Build a session: pick/transform the module for `variant` and install
    /// it into a fresh engine.
    ///
    /// * `module_dp` — the annotated basic-dp module (parent kernel
    ///   `parent`); also used for the consolidated variants.
    /// * `module_flat` — the flat implementation.
    pub fn new(
        module_dp: &Module,
        module_flat: &Module,
        parent: &str,
        directive: &dyn Fn(Granularity) -> Directive,
        variant: Variant,
        cfg: &RunConfig,
    ) -> Result<VariantSession, AppError> {
        let (module, cons) = match variant {
            Variant::Flat => (module_flat.clone(), None),
            Variant::BasicDp => (module_dp.clone(), None),
            Variant::Consolidated(_) | Variant::ConsolidatedTuned => {
                let mut dir = match variant {
                    Variant::Consolidated(g) => directive(g),
                    _ => {
                        let t = cfg.tuned.as_ref().ok_or_else(|| {
                            AppError::Driver(
                                "Variant::ConsolidatedTuned requires RunConfig.tuned".to_string(),
                            )
                        })?;
                        let mut d = directive(t.granularity);
                        if let Some(n) = t.per_buffer_size {
                            d.per_buffer_size = Some(SizeSpec::Items(n));
                        }
                        d
                    }
                };
                // The directive's buffer clause follows the session allocator
                // so Fig. 5 can sweep allocators from RunConfig.
                dir.buffer = cfg.alloc.into();
                let cons = consolidate(module_dp, parent, &dir, &cfg.gpu, cfg.policy)?;
                (cons.module.clone(), Some(cons))
            }
        };
        let mut engine = Engine::new(cfg.gpu.clone(), cfg.alloc, cfg.heap_words);
        engine.fuel = dpcons_sim::FuelMeter::new(cfg.fuel);
        let ids = install(&mut engine, &module)?;
        Ok(VariantSession {
            engine,
            ids,
            cons,
            captures: cfg.capture.then(Vec::new),
            cfg: cfg.clone(),
            prep: None,
            total: ProfileReport::default(),
        })
    }

    /// Run one launch through the engine and fold its profile into the
    /// session total. In capture mode the launch's record DAG is kept for
    /// later cross-device re-timing; otherwise it is dropped here.
    fn run_spec(&mut self, spec: LaunchSpec) -> Result<(), AppError> {
        let _span = dpcons_obs::span("app.launch");
        host_launches_counter().inc();
        let (report, records) = self.engine.launch_traced(spec)?;
        if let Some(log) = &mut self.captures {
            log.push(records);
        }
        self.total.merge(&report);
        Ok(())
    }

    pub fn alloc_array(&mut self, label: &str, data: Vec<i64>) -> ArrayId {
        self.engine.mem.alloc_array_init(label, data)
    }

    /// Launch the benchmark's parent/entry kernel with the *original*
    /// (basic-dp) arguments and configuration; the session translates to the
    /// consolidated entry when needed.
    pub fn launch_entry(
        &mut self,
        basic_entry: &str,
        args: &[i64],
        config: (u32, u32),
    ) -> Result<(), AppError> {
        let spec = match &self.cons {
            None => {
                let id = *self
                    .ids
                    .get(basic_entry)
                    .ok_or_else(|| AppError::Driver(format!("no kernel `{basic_entry}`")))?;
                LaunchSpec::new(id, config.0, config.1, args.to_vec())
            }
            Some(cons) => {
                let prep = match &mut self.prep {
                    Some(prep) => {
                        let _span = dpcons_obs::span("app.reset");
                        reset_launch(&mut self.engine, prep)?;
                        prep
                    }
                    // A freshly prepared launch is already reset.
                    none => {
                        let _span = dpcons_obs::span("app.prepare");
                        none.insert(prepare_launch(
                            &mut self.engine,
                            &cons.info,
                            &self.ids,
                            args,
                            config,
                            self.cfg.pool_words,
                        )?)
                    }
                };
                reset_words_counter().add(prep.reset_words());
                prep.spec.clone()
            }
        };
        self.run_spec(spec)
    }

    /// Launch an auxiliary kernel that is not part of the consolidation
    /// (e.g. PageRank's apply step, coloring's assign step).
    pub fn launch_plain(
        &mut self,
        name: &str,
        args: &[i64],
        config: (u32, u32),
    ) -> Result<(), AppError> {
        let id =
            *self.ids.get(name).ok_or_else(|| AppError::Driver(format!("no kernel `{name}`")))?;
        self.run_spec(LaunchSpec::new(id, config.0, config.1, args.to_vec()))
    }

    pub fn read(&self, a: ArrayId) -> Vec<i64> {
        self.engine.mem.slice(a).expect("valid array").to_vec()
    }

    pub fn finish(self, output: Vec<i64>, host_iterations: u32) -> AppOutcome {
        let captures = self.captures.map(|launches| {
            Arc::new(CaptureSet {
                captured_on: self.cfg.gpu.clone(),
                launches,
                alloc_ops: self.engine.heap.stats.allocs,
                alloc_cycles: self.engine.heap.stats.alloc_cycles,
            })
        });
        AppOutcome { report: self.total, output, host_iterations, captures }
    }
}

/// The static tuning surface of a benchmark: the annotated basic-dp module,
/// the parent kernel the directive applies to, and the per-granularity base
/// directive (the seed's hand-written pragma, carrying the `work` clause and
/// any app-specific sizes). `dpcons-tune` uses this to enumerate and prune
/// directive candidates without running anything.
pub struct TuneModel {
    pub module_dp: Module,
    pub parent: &'static str,
    pub directive: fn(Granularity) -> Directive,
}

/// Shared interface for the seven benchmarks.
pub trait Benchmark: Send + Sync {
    fn name(&self) -> &'static str;

    /// Run one variant end to end.
    fn run(&self, variant: Variant, cfg: &RunConfig) -> Result<AppOutcome, AppError>;

    /// The exact expected output (CPU oracle).
    fn reference(&self) -> Vec<i64>;

    /// Static tuning model, when the app supports directive autotuning.
    fn tune_model(&self) -> Option<TuneModel> {
        None
    }

    /// Run and check against the oracle; returns the profile on success.
    fn verify(&self, variant: Variant, cfg: &RunConfig) -> Result<ProfileReport, AppError> {
        let out = self.run(variant, cfg)?;
        let expected = self.reference();
        if out.output != expected {
            let diffs = out
                .output
                .iter()
                .zip(&expected)
                .enumerate()
                .filter(|(_, (a, b))| a != b)
                .take(5)
                .map(|(i, (a, b))| format!("[{i}] got {a} want {b}"))
                .collect::<Vec<_>>()
                .join(", ");
            return Err(AppError::Driver(format!(
                "{} ({}) output mismatch: {diffs}{}",
                self.name(),
                variant.label(),
                if out.output.len() != expected.len() { " (length mismatch)" } else { "" },
            )));
        }
        Ok(out.report)
    }
}
