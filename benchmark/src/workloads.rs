//! The five workloads and the run that turns one into end-to-end metrics.
//!
//! A workload is a fixed list of op keys. A round executes every key once;
//! after one untimed warm-up round (which also runs the deeper output
//! checks) rounds repeat until `--seconds` have passed. Batch workloads drive
//! the library from one thread (the tuner fans out inside the program, which
//! is the program's business); `serve_mix` uses two closed-loop clients.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dpcons::apps::{CaptureSet, RunConfig, Variant};
use dpcons::compiler::{Granularity, KnobSpace};
use dpcons::obs::jsonv::Value;
use dpcons::serve::{
    parse_request, serve, CacheMode, Client, JobKind, Limits, ServerConfig, ServerHandle,
};
use dpcons::sim::{AllocKind, ExecRecord, GpuConfig};
use dpcons::tune::{
    default_knobs, evaluate_candidate, fleet_sweep, merge_reports, replay_timing_many, tune,
    Budget, Cache, FleetOptions, Knobs, Status, TuneOptions,
};

use crate::inputs::{self, Inputs, Mix, ReqClass, ReqSpec, APP_NAMES, FLEET};
use crate::spec::Workload;
use crate::stats;
use crate::trace::Tracer;

/// `setup_s` is the median of several set-ups: at least `SETUP_MIN`, and more
/// (up to `SETUP_MAX`) while they have taken less than `SETUP_BUDGET_S`
/// seconds together, so that a millisecond set-up is not reported from three
/// samples.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// `/tune` requests per app and duplicates per class in one `serve_mix` list.
pub const MIX_TUNES_PER_APP: usize = 2;
pub const MIX_DUPS: usize = 3;

/// How an op went wrong. A failure is counted; an incorrect output ends the
/// run with a non-zero exit code.
#[derive(Debug)]
pub enum OpError {
    Failed(String),
    Incorrect(String),
}

pub struct Sample {
    pub key: usize,
    pub ms: f64,
}

#[derive(Default)]
pub struct Round {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
    pub failed: u64,
    /// Messages of incorrect outputs, each naming its key.
    pub incorrect: Vec<String>,
}

/// What the run loop needs from a workload.
pub trait Load {
    fn keys(&self) -> &[String];
    /// Whether the ops of a round overlap in time, so that only the whole
    /// round can be timed, not the sum of its ops.
    fn ops_overlap(&self) -> bool {
        false
    }
    /// Execute every key once. The warm-up round also runs the checks that
    /// are too slow for the timed path.
    fn round(&mut self, tr: &Tracer, warmup: bool) -> Round;
}

// ------------------------------------------------------------------ batch --

enum Action {
    Run(Variant),
    Candidate(Knobs),
    /// Serial `CaptureSet::replay_on` on fleet device `.0`.
    ReplaySerial(usize),
    /// `replay_timing_many` + `merge_reports` on fleet device `.0`.
    ReplayMany(usize),
    Tune,
    Fleet,
}

struct Key {
    /// Which dataset instance, then which app of it.
    inst: usize,
    app: usize,
    action: Action,
}

/// What an op returns for checking: a simulated cycle count, which must
/// repeat exactly in every round, and the winning knobs of a sweep.
struct OpOut {
    cycles: u64,
    winner: Option<Knobs>,
}

pub struct Batch {
    instances: Vec<Inputs>,
    /// Basic-dp capture per instance and app (`retime_fleet` only).
    captures: Vec<Vec<Arc<CaptureSet>>>,
    capture_cycles: Vec<Vec<u64>>,
    fleet: Vec<GpuConfig>,
    cfg: RunConfig,
    keys: Vec<Key>,
    labels: Vec<String>,
    /// Cycle count of each key in the warm-up round.
    expected: Vec<Option<u64>>,
}

pub fn fleet() -> Vec<GpuConfig> {
    FLEET.iter().map(|d| GpuConfig::by_name(d).expect("registry device")).collect()
}

pub fn sweep_budget() -> Budget {
    Budget { max_evals: Some(6), ..Budget::default() }
}

/// The seven paper-default directives of an app: warp and block level under
/// each allocator, and grid level (which uses the host pool, no allocator).
pub fn default_directives(app: &dyn dpcons::apps::Benchmark) -> Vec<Knobs> {
    let model = app.tune_model().expect("every app is tunable");
    let mut out = Vec::new();
    for g in [Granularity::Warp, Granularity::Block] {
        for alloc in [AllocKind::Default, AllocKind::Halloc, AllocKind::PreAlloc] {
            out.push(Knobs { alloc, ..default_knobs(&model, g) });
        }
    }
    out.push(default_knobs(&model, Granularity::Grid));
    out
}

impl Batch {
    pub fn setup(w: &Workload, seed: u64) -> Batch {
        let instances: Vec<Inputs> =
            (0..w.instances as u64).map(|i| inputs::build(w.scale, seed, i)).collect();
        let cfg = RunConfig::default();
        let fleet = fleet();
        let mut keys = Vec::new();
        let mut labels = Vec::new();
        let (mut captures, mut capture_cycles) = (Vec::new(), Vec::new());
        for (inst, inputs) in instances.iter().enumerate() {
            let mut add = |app: usize, what: String, action: Action| {
                labels.push(format!("{inst}/{}/{what}", APP_NAMES[app]));
                keys.push(Key { inst, app, action });
            };
            let (mut caps, mut cycles) = (Vec::new(), Vec::new());
            for (a, app) in inputs.apps.iter().enumerate() {
                match w.name {
                    "baseline_runs" => {
                        for v in [Variant::BasicDp, Variant::Flat] {
                            add(a, v.label(), Action::Run(v));
                        }
                    }
                    "cons_datapoint" => {
                        for k in default_directives(app.as_ref()) {
                            add(a, k.label(), Action::Candidate(k));
                        }
                    }
                    "retime_fleet" => {
                        let out = app
                            .run(Variant::BasicDp, &RunConfig { capture: true, ..cfg.clone() })
                            .unwrap_or_else(|e| panic!("capture of {} failed: {e}", app.name()));
                        assert_eq!(out.output, inputs.refs[a], "{} capture output", app.name());
                        cycles.push(out.report.total_cycles);
                        caps.push(out.captures.expect("capture was requested"));
                        for (d, dev) in fleet.iter().enumerate() {
                            add(a, format!("{}/serial", dev.name), Action::ReplaySerial(d));
                            add(a, format!("{}/many", dev.name), Action::ReplayMany(d));
                        }
                    }
                    "tune_sweep" => {
                        add(a, "tune".to_string(), Action::Tune);
                        add(a, "fleet".to_string(), Action::Fleet);
                    }
                    other => panic!("`{other}` is not a batch workload"),
                }
            }
            captures.push(caps);
            capture_cycles.push(cycles);
        }
        let expected = vec![None; keys.len()];
        Batch { instances, captures, capture_cycles, fleet, cfg, keys, labels, expected }
    }

    fn exec(&self, key: &Key) -> Result<OpOut, OpError> {
        let inputs = &self.instances[key.inst];
        let app = inputs.apps[key.app].as_ref();
        let expected = &inputs.refs[key.app];
        let captures = self.captures.get(key.inst).and_then(|c| c.get(key.app));
        let cycles_only = |cycles| Ok(OpOut { cycles, winner: None });
        match &key.action {
            Action::Run(v) => {
                let out = app.run(*v, &self.cfg).map_err(|e| OpError::Failed(e.to_string()))?;
                if &out.output != expected {
                    return Err(OpError::Incorrect("output differs from the CPU reference".into()));
                }
                cycles_only(out.report.total_cycles)
            }
            Action::Candidate(k) => cycles_only(candidate_cycles(app, &self.cfg, k, expected)?),
            Action::ReplaySerial(d) => {
                let report = captures.expect("captured in set-up").replay_on(&self.fleet[*d]);
                if *d == 0 && report.total_cycles != self.capture_cycles[key.inst][key.app] {
                    return Err(OpError::Incorrect(
                        "replay on the capture device differs from the captured run".into(),
                    ));
                }
                cycles_only(report.total_cycles)
            }
            Action::ReplayMany(d) => {
                let launches = &captures.expect("captured in set-up").launches;
                let dags: Vec<&[ExecRecord]> = launches.iter().map(|l| l.as_slice()).collect();
                let report = merge_reports(&replay_timing_many(&self.fleet[*d], &dags));
                cycles_only(report.total_cycles)
            }
            Action::Tune => {
                let opts = TuneOptions {
                    base: self.cfg.clone(),
                    space: KnobSpace::quick(self.cfg.gpu.num_sms),
                    budget: sweep_budget(),
                    with_baselines: false,
                    cache: None,
                };
                let report = tune(app, &opts).map_err(|e| OpError::Failed(e.to_string()))?;
                match (report.best_cycles(), report.best_knobs()) {
                    (Some(cycles), winner @ Some(_)) => Ok(OpOut { cycles, winner }),
                    _ => Err(OpError::Failed("sweep found no winner".into())),
                }
            }
            Action::Fleet => {
                let opts = FleetOptions {
                    base: self.cfg.clone(),
                    space: KnobSpace::quick(self.fleet[0].num_sms),
                    budget: sweep_budget(),
                    fleet: self.fleet.clone(),
                    cache: None,
                };
                let report = fleet_sweep(app, &opts).map_err(|e| OpError::Failed(e.to_string()))?;
                match (report.winner_cycles(0), report.winner_knobs(0)) {
                    (Some(cycles), winner @ Some(_)) => Ok(OpOut { cycles, winner }),
                    _ => Err(OpError::Failed("fleet sweep found no winner".into())),
                }
            }
        }
    }

    /// Checks kept out of the timed path: batched replay against serial
    /// replay, and each sweep winner against a serial evaluation of its knobs.
    fn verify_slow(&self, key: &Key, out: &OpOut) -> Result<(), OpError> {
        let inputs = &self.instances[key.inst];
        let want = match (&key.action, out.winner) {
            (Action::ReplayMany(d), _) => {
                self.captures[key.inst][key.app].replay_on(&self.fleet[*d]).total_cycles
            }
            (Action::Tune | Action::Fleet, Some(k)) => {
                let app = inputs.apps[key.app].as_ref();
                candidate_cycles(app, &self.cfg, &k, &inputs.refs[key.app])?
            }
            _ => return Ok(()),
        };
        if want == out.cycles {
            Ok(())
        } else {
            Err(OpError::Incorrect(format!("{} cycles, but a serial run gives {want}", out.cycles)))
        }
    }
}

/// Evaluate one candidate; anything but an evaluated, oracle-exact run is an
/// error.
pub fn candidate_cycles(
    app: &dyn dpcons::apps::Benchmark,
    cfg: &RunConfig,
    k: &Knobs,
    expected: &[i64],
) -> Result<u64, OpError> {
    match evaluate_candidate(app, cfg, k, expected) {
        Status::Evaluated(m) if m.output_ok => Ok(m.cycles),
        Status::Evaluated(_) => {
            Err(OpError::Incorrect("output differs from the CPU reference".into()))
        }
        other => Err(OpError::Failed(format!("{other:?}"))),
    }
}

impl Load for Batch {
    fn keys(&self) -> &[String] {
        &self.labels
    }

    fn round(&mut self, tr: &Tracer, warmup: bool) -> Round {
        let mut round = Round::default();
        let started = Instant::now();
        for i in 0..self.keys.len() {
            let key = &self.keys[i];
            let name = match key.action {
                Action::Run(_) => "apps.run_ms",
                Action::Candidate(_) => "tune.candidate_ms",
                Action::ReplaySerial(_) => "sim.replay_ms",
                Action::ReplayMany(_) => "tune.replay_many_ms",
                Action::Tune => "tune.sweep_ms",
                Action::Fleet => "tune.fleet_sweep_ms",
            };
            tr.next_op();
            let (result, secs) = tr.time(name, || self.exec(key));
            round.samples.push(Sample { key: i, ms: secs * 1e3 });
            let checked = result.and_then(|out| {
                if warmup {
                    self.verify_slow(key, &out)?;
                }
                match self.expected[i] {
                    Some(want) if want != out.cycles => Err(OpError::Incorrect(format!(
                        "{} cycles, {want} in the warm-up round",
                        out.cycles
                    ))),
                    _ => Ok(out.cycles),
                }
            });
            match checked {
                Ok(cycles) => self.expected[i] = Some(cycles),
                Err(OpError::Failed(msg)) => {
                    round.failed += 1;
                    eprintln!("failed op {}: {msg}", self.labels[i]);
                }
                Err(OpError::Incorrect(msg)) => {
                    round.incorrect.push(format!("{}: {msg}", self.labels[i]));
                }
            }
        }
        round.wall_s = started.elapsed().as_secs_f64();
        round
    }
}

// -------------------------------------------------------------- serve_mix --

/// Winner of a served job: one `(knobs, cycles)` per device.
type Answer = Vec<(String, u64)>;

/// One request as a client saw it.
pub struct Served {
    pub client: u32,
    /// Which request of the round: an index into `Mix::keys`.
    pub key: usize,
    /// Where the round's order put it.
    pub pos: usize,
    pub started: Instant,
    pub ack: Duration,
    pub total: Duration,
    pub deduped: bool,
    pub events: usize,
    pub answer: Result<Answer, String>,
}

pub struct ServeMix {
    pub mix: Mix,
    labels: Vec<String>,
    /// Winner per spec from the in-process sweep (filled in the warm-up round).
    expected: Vec<Option<Answer>>,
    /// Every request of the most recent round, for the per-layer metrics.
    pub last: Vec<Served>,
    rounds_run: u64,
}

pub fn boot() -> ServerHandle {
    serve(ServerConfig { workers: 2, cache: CacheMode::Memory, ..ServerConfig::default() })
        .unwrap_or_else(|e| panic!("daemon failed to start: {e}"))
}

impl ServeMix {
    /// Generate the requests and check that the daemon boots, answers and
    /// drains.
    pub fn setup(seed: u64, tunes_per_app: usize, dups: usize) -> ServeMix {
        let mix = inputs::request_mix(seed, tunes_per_app, dups);
        let server = boot();
        Client::new(server.addr().to_string())
            .healthz()
            .unwrap_or_else(|e| panic!("daemon does not answer: {e}"));
        server.shutdown().unwrap_or_else(|e| panic!("daemon failed to drain: {e}"));
        let expected = vec![None; mix.specs.len()];
        let labels = mix
            .keys
            .iter()
            .map(|&(spec, class)| {
                let ReqSpec { app, devices, max_evals } = &mix.specs[spec];
                format!(
                    "{} {}/{}/evals={max_evals}",
                    class.label(),
                    APP_NAMES[*app],
                    devices.join("+")
                )
            })
            .collect();
        ServeMix { mix, labels, expected, last: Vec::new(), rounds_run: 0 }
    }

    fn body(spec: &ReqSpec) -> (&'static str, Value) {
        let app = APP_NAMES[spec.app];
        match spec.devices.as_slice() {
            [device] => ("tune", Client::tune_body(app, device, spec.max_evals)),
            devices => ("fleet", Client::fleet_body(app, devices, spec.max_evals)),
        }
    }

    /// Submit, follow the progress stream to its terminal line, fetch the
    /// result: what a caller waits for. (`Client::wait` would add its 10 ms
    /// poll to the number.)
    fn request(client: &Client, spec: &ReqSpec) -> (Duration, bool, usize, Result<Answer, String>) {
        let (endpoint, body) = Self::body(spec);
        let started = Instant::now();
        let sub = match client.submit(endpoint, &body) {
            Ok(sub) => sub,
            Err(e) => return (started.elapsed(), false, 0, Err(format!("submit: {e}"))),
        };
        let ack = started.elapsed();
        let answer = (|| {
            let lines = client.stream_lines(sub.job).map_err(|e| format!("stream: {e}"))?;
            let last = lines.last().ok_or("empty progress stream")?;
            if !last.contains("\"done\"") {
                return Err(format!("job ended with {last}"));
            }
            let view = client.job(sub.job).map_err(|e| format!("job view: {e}"))?;
            let result = view.get("result").ok_or("done job has no result")?;
            let winners = match result.get("winners").and_then(Value::as_arr) {
                Some(list) => list.to_vec(),
                None => vec![result.get("winner").ok_or("result has no winner")?.clone()],
            };
            let answer: Option<Answer> = winners
                .iter()
                .map(|w| {
                    let knobs = w.get("knobs")?.as_str()?.to_string();
                    Some((knobs, w.get("cycles")?.as_num()? as u64))
                })
                .collect();
            Ok((lines.len(), answer.ok_or("a device has no winner")?))
        })();
        match answer {
            Ok((events, answer)) => (ack, sub.deduped, events, Ok(answer)),
            Err(e) => (ack, sub.deduped, 0, Err(e)),
        }
    }

    /// The same sweep run in-process, with the budget and space the daemon
    /// derives from the request.
    pub fn in_process(spec: &ReqSpec) -> Result<Answer, String> {
        let (endpoint, body) = Self::body(spec);
        let kind = if endpoint == "tune" { JobKind::Tune } else { JobKind::Fleet };
        let job =
            parse_request(kind, &body.render(), &Limits::default()).map_err(|e| e.to_string())?;
        let app =
            dpcons::serve::proto::find_app(&job.app, job.profile).map_err(|e| e.to_string())?;
        match kind {
            JobKind::Tune => {
                let opts = TuneOptions {
                    base: RunConfig { gpu: job.devices[0].clone(), ..RunConfig::default() },
                    space: job.space,
                    budget: job.budget,
                    with_baselines: false,
                    cache: None,
                };
                let report = tune(app.as_ref(), &opts).map_err(|e| e.to_string())?;
                let knobs = report.best_knobs().ok_or("no winner")?;
                Ok(vec![(knobs.label(), report.best_cycles().ok_or("no winner")?)])
            }
            JobKind::Fleet => {
                let opts = FleetOptions {
                    base: RunConfig::default(),
                    space: job.space,
                    budget: job.budget,
                    fleet: job.devices.clone(),
                    cache: None,
                };
                let report = fleet_sweep(app.as_ref(), &opts).map_err(|e| e.to_string())?;
                (0..job.devices.len())
                    .map(|d| {
                        let knobs = report.winner_knobs(d).ok_or("a device has no winner")?;
                        Ok((knobs.label(), report.winner_cycles(d).ok_or("no winner")?))
                    })
                    .collect()
            }
        }
    }
}

impl Load for ServeMix {
    fn keys(&self) -> &[String] {
        &self.labels
    }

    fn ops_overlap(&self) -> bool {
        true
    }

    /// A fresh daemon and an empty result cache per round, so every round
    /// serves the same requests from the same state, in an order of its own.
    fn round(&mut self, tr: &Tracer, warmup: bool) -> Round {
        let order = self.mix.order(self.rounds_run);
        self.rounds_run += 1;
        Cache::clear_memory();
        let server = boot();
        let addr = server.addr().to_string();
        let next = AtomicUsize::new(0);
        let served: Mutex<Vec<Served>> = Mutex::new(Vec::new());
        let started = Instant::now();
        std::thread::scope(|s| {
            for c in 0..2u32 {
                let (addr, mix, order, next, served) = (&addr, &self.mix, &order, &next, &served);
                s.spawn(move || {
                    let client = Client::new(addr.as_str());
                    loop {
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&key) = order.get(pos) else { break };
                        let started = Instant::now();
                        let (ack, deduped, events, answer) =
                            Self::request(&client, &mix.specs[mix.keys[key].0]);
                        let total = started.elapsed();
                        let one = Served {
                            client: c,
                            key,
                            pos,
                            started,
                            ack,
                            total,
                            deduped,
                            events,
                            answer,
                        };
                        served.lock().expect("no client panics while holding it").push(one);
                    }
                });
            }
        });
        let wall_s = started.elapsed().as_secs_f64();
        if let Err(e) = server.shutdown() {
            eprintln!("daemon did not drain cleanly: {e}");
        }
        let mut served = served.into_inner().expect("clients have finished");
        served.sort_by_key(|s| s.pos);

        let mut round = Round { wall_s, ..Round::default() };
        for s in &served {
            let (spec, class) = self.mix.keys[s.key];
            round.samples.push(Sample { key: s.key, ms: s.total.as_secs_f64() * 1e3 });
            tr.next_op();
            tr.record(class_span(class), s.client + 1, 0, s.started, s.total);
            tr.record("serve.submit_ack_ms", s.client + 1, 1, s.started, s.ack);
            let label = &self.labels[s.key];
            let answer = match &s.answer {
                Ok(answer) => answer,
                Err(e) => {
                    round.failed += 1;
                    eprintln!("failed request {label}: {e}");
                    continue;
                }
            };
            if warmup && self.expected[spec].is_none() {
                match Self::in_process(&self.mix.specs[spec]) {
                    Ok(want) => self.expected[spec] = Some(want),
                    Err(e) => round.incorrect.push(format!("{label}: in-process sweep: {e}")),
                }
            }
            if self.expected[spec].as_ref().is_some_and(|want| want != answer) {
                round.incorrect.push(format!(
                    "{label}: served {answer:?}, in-process {:?}",
                    self.expected[spec]
                ));
            }
        }
        // Whichever of a request and its duplicate arrives first is admitted;
        // the other must attach to it, so each spec costs exactly one sweep.
        for spec in 0..self.mix.specs.len() {
            let of_spec = || served.iter().filter(|s| self.mix.keys[s.key].0 == spec);
            let admitted = of_spec().filter(|s| !s.deduped).count();
            if of_spec().all(|s| s.answer.is_ok()) && admitted != 1 {
                round.incorrect.push(format!(
                    "{:?}: {admitted} of {} requests were admitted as new jobs",
                    self.mix.specs[spec],
                    of_spec().count()
                ));
            }
        }
        self.last = served;
        round
    }
}

pub fn class_span(class: ReqClass) -> &'static str {
    match class {
        ReqClass::TuneCold => "serve.cold_tune_ms",
        ReqClass::FleetCold => "serve.cold_fleet_ms",
        ReqClass::DupInflight => "serve.dup_inflight_ms",
        ReqClass::DupDone => "serve.dup_done_ms",
    }
}

// --------------------------------------------------------------- run loop --

/// Set the workload up, `repeat`edly for the untraced run; returns it with
/// the wall time of each set-up in seconds.
pub fn setup(w: &Workload, seed: u64, repeat: bool) -> (Box<dyn Load>, Vec<f64>) {
    let (min, max) = if repeat { (SETUP_MIN, SETUP_MAX) } else { (1, 1) };
    let mut times: Vec<f64> = Vec::new();
    let mut load: Option<Box<dyn Load>> = None;
    while times.len() < min || (times.len() < max && times.iter().sum::<f64>() < SETUP_BUDGET_S) {
        drop(load.take());
        let started = Instant::now();
        load = Some(match w.name {
            "serve_mix" => Box::new(ServeMix::setup(seed, MIX_TUNES_PER_APP, MIX_DUPS)),
            _ => Box::new(Batch::setup(w, seed)),
        });
        times.push(started.elapsed().as_secs_f64());
    }
    (load.expect("at least one set-up"), times)
}

/// Outcome of one run, as the result line reports it.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, note for the human-readable table).
    pub metrics: Vec<(&'static str, f64, String)>,
}

/// The untraced run: every end-to-end metric of one workload.
pub fn run_end_to_end(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let tr = Tracer::new(false);
    let (mut load, setup_times) = setup(w, seed, true);
    let n_keys = load.keys().len();

    let warm = load.round(&tr, true);
    let mut incorrect = warm.incorrect;
    let ops_per_round = warm.samples.len();

    let mut per_key: Vec<Vec<f64>> = vec![Vec::new(); n_keys];
    let mut round_wall = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // CPU time comes in 10 ms ticks, so it is read over groups of rounds
    // that last at least a second.
    let mut cpu_per_op = Vec::new();
    let mut round_peak_mb = Vec::new();
    let rss = stats::RssSampler::start();
    rss.take_peak_mb();
    let (mut group_cpu, mut group_wall, mut group_ops) = (stats::process_cpu_ms(), 0.0, 0usize);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while round_wall.is_empty() || Instant::now() < deadline {
        let round = load.round(&tr, false);
        for s in &round.samples {
            per_key[s.key].push(s.ms);
        }
        attempted += round.samples.len() as u64;
        failed += round.failed;
        incorrect.extend(round.incorrect);
        round_wall.push(round.wall_s);
        round_peak_mb.push(rss.take_peak_mb());
        group_wall += round.wall_s;
        group_ops += round.samples.len();
        if group_wall >= 1.0 {
            let now = stats::process_cpu_ms();
            cpu_per_op.push((now - group_cpu) / group_ops as f64);
            (group_cpu, group_wall, group_ops) = (now, 0.0, 0);
        }
    }
    if cpu_per_op.is_empty() {
        // A timed phase of under a second: its one, short group.
        cpu_per_op.push((stats::process_cpu_ms() - group_cpu) / group_ops as f64);
    }
    for msg in &incorrect {
        eprintln!("INCORRECT {msg}");
    }

    // External load on the machine only ever adds time, so the quiet-machine
    // cost of an op is its best time over the rounds, not its median.
    let best_round_s = if load.ops_overlap() {
        stats::best(&round_wall)
    } else {
        per_key.iter().map(|k| stats::best(k)).sum::<f64>() / 1e3
    };
    let tail = stats::tail_over_keys(&per_key);
    let rounds = round_wall.len();
    let metrics = vec![
        (
            "setup_s",
            stats::median(&setup_times),
            format!("median of {} set-ups", setup_times.len()),
        ),
        (
            "ops_per_s",
            ops_per_round as f64 / best_round_s,
            format!("{ops_per_round} ops per round, each at its best of {rounds} rounds"),
        ),
        (
            "op_ms_geomean",
            stats::geomean_of_best(&per_key),
            format!("{n_keys} keys, each at its best of {rounds} rounds"),
        ),
        (
            "op_ms_tail",
            tail,
            format!(
                "mean over the slowest {} of {n_keys} keys, each at its best",
                n_keys.div_ceil(10)
            ),
        ),
        (
            "cpu_ms_per_op",
            stats::best(&cpu_per_op),
            format!("best of {} groups of rounds, {attempted} ops", cpu_per_op.len()),
        ),
        (
            "peak_rss_mb",
            stats::median(&round_peak_mb),
            "median over rounds of the round's peak, sampled every 5 ms".to_string(),
        ),
    ];
    Outcome { correct: incorrect.is_empty(), attempted, failed, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Scale;

    fn one_instance(name: &'static str) -> Workload {
        Workload { name, why: "", scale: Scale::S, instances: 1 }
    }

    #[test]
    fn every_app_contributes_its_keys() {
        for (name, per_app) in [("baseline_runs", 2), ("cons_datapoint", 7), ("tune_sweep", 2)] {
            let batch = Batch::setup(&one_instance(name), 1);
            assert_eq!(batch.keys().len(), 7 * per_app, "{name}");
            assert!(batch.keys()[0].starts_with("0/SSSP/"), "{:?}", batch.keys()[0]);
        }
    }

    /// The hook behind "a corrupted reference makes the run exit non-zero":
    /// `main` exits with a failure code whenever a round reports an
    /// incorrect output.
    #[test]
    fn corrupted_reference_is_reported_with_its_key() {
        let mut batch = Batch::setup(&one_instance("baseline_runs"), 1);
        let clean = batch.round(&Tracer::new(false), true);
        assert!(clean.incorrect.is_empty() && clean.failed == 0, "{:?}", clean.incorrect);
        batch.instances[0].refs[3][0] ^= 1;
        let round = batch.round(&Tracer::new(false), false);
        assert_eq!(round.incorrect.len(), 2, "{:?}", round.incorrect);
        assert!(round.incorrect.iter().all(|m| m.starts_with("0/GC/") && m.contains("reference")));
        assert_eq!(round.failed, 0, "a wrong answer is not a failed op");
    }

    #[test]
    fn a_run_shorter_than_one_cpu_group_reports_every_metric() {
        let outcome = run_end_to_end(&one_instance("cons_datapoint"), 1, 0.01);
        assert!(outcome.correct && outcome.failed == 0 && outcome.attempted == 49);
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        assert!(names.iter().copied().eq(crate::spec::END_TO_END.iter().map(|m| m.name)));
        assert!(outcome.metrics.iter().all(|m| m.1.is_finite() && m.1 >= 0.0));
    }

    #[test]
    fn a_cycle_count_that_changes_between_rounds_is_incorrect() {
        let mut batch = Batch::setup(&one_instance("baseline_runs"), 1);
        batch.round(&Tracer::new(false), true);
        batch.expected[0] = batch.expected[0].map(|c| c + 1);
        let round = batch.round(&Tracer::new(false), false);
        assert_eq!(round.incorrect.len(), 1);
        assert!(round.incorrect[0].contains("warm-up"), "{:?}", round.incorrect);
    }
}
