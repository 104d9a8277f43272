//! The worker pool: `workers` threads, each taking the oldest queued job
//! from the registry ([`Registry::next_job`]) whenever it is idle, running
//! its sweep and recording the outcome. The registry admits at most one
//! queued or running job per key, so no routing is needed to keep two
//! sweeps of one key apart. A worker exits when `next_job` reports the
//! drain; the server joins the workers against its drain deadline
//! (`Threads`).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use dpcons_obs::jsonv::Value;
use dpcons_tune::{fleet_sweep_with_progress, Cache, FleetOptions, WaveHook};

use crate::error::ServeError;
use crate::jobs::Registry;
use crate::proto::{find_app, key_hex, JobSpec};

/// Where workers put sweep results.
#[derive(Debug, Clone)]
pub enum CacheMode {
    /// No caching at all (every fresh key sweeps).
    Off,
    /// Process-memory layer only.
    Memory,
    /// Memory + disk under this directory.
    Disk(std::path::PathBuf),
}

impl CacheMode {
    fn build(&self) -> Option<Cache> {
        match self {
            CacheMode::Off => None,
            CacheMode::Memory => Some(Cache::new(None)),
            CacheMode::Disk(dir) => Some(Cache::new(Some(dir.clone()))),
        }
    }
}

/// Threads that are joined against a deadline. `std` has no timed join, so
/// each thread holds a sender that it drops on the way out (a panic
/// included), and the joiner sleeps until the channel disconnects.
pub(crate) struct Threads {
    handles: Vec<JoinHandle<()>>,
    alive: Sender<()>,
    /// Behind a `Mutex` only so that the owners stay `Sync`.
    exited: Mutex<Receiver<()>>,
}

impl Threads {
    pub(crate) fn new() -> Threads {
        let (alive, exited) = mpsc::channel();
        Threads { handles: Vec::new(), alive, exited: Mutex::new(exited) }
    }

    pub(crate) fn spawn(
        &mut self,
        name: String,
        f: impl FnOnce() + Send + 'static,
    ) -> std::io::Result<()> {
        let alive = self.alive.clone();
        self.handles.push(std::thread::Builder::new().name(name).spawn(move || {
            let _alive = alive;
            f()
        })?);
        Ok(())
    }

    /// Wait until `until` for every thread to exit, then join them all.
    /// `false` if some thread was still running at the deadline; they are
    /// all left detached then.
    pub(crate) fn join_until(self, until: Instant) -> bool {
        let Threads { handles, alive, exited } = self;
        drop(alive);
        let exited = exited.into_inner().unwrap_or_else(|p| p.into_inner());
        let left = until.saturating_duration_since(Instant::now());
        let all_exited = matches!(exited.recv_timeout(left), Err(RecvTimeoutError::Disconnected));
        if all_exited {
            for h in handles {
                let _ = h.join();
            }
        }
        all_exited
    }
}

/// Spawn `workers` threads that run queued jobs until the drain.
pub(crate) fn start_workers(
    workers: usize,
    registry: &Arc<Registry>,
    cache: &CacheMode,
) -> Threads {
    let mut threads = Threads::new();
    for i in 0..workers.max(1) {
        let registry = registry.clone();
        let cache = cache.clone();
        threads
            .spawn(format!("dpcons-serve-worker-{i}"), move || worker_loop(&registry, &cache))
            .unwrap_or_else(|e| panic!("failed to spawn worker thread: {e}"));
    }
    threads
}

fn worker_loop(registry: &Arc<Registry>, cache: &CacheMode) {
    while let Some((job_id, spec)) = registry.next_job() {
        let _span = dpcons_obs::span("serve.job");
        // One bad job must never take the worker down: sweeps already
        // isolate candidate panics, and this isolates everything else
        // (setup, result shaping).
        let outcome =
            catch_unwind(AssertUnwindSafe(|| execute(&spec, registry.clone(), job_id, cache)))
                .unwrap_or_else(|p| {
                    let msg = p
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| p.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    Err(ServeError::internal(format!("job panicked: {msg}")))
                });
        registry.finish(job_id, outcome);
    }
}

/// Run one admitted job to completion: the one sweep over `spec.devices` —
/// a single device for `/tune` (and for a one-device `/fleet`, which is the
/// same job) — and one result shape for both endpoints.
fn execute(
    spec: &JobSpec,
    registry: Arc<Registry>,
    job_id: u64,
    cache: &CacheMode,
) -> Result<Value, ServeError> {
    let app = find_app(&spec.app, spec.profile)?;
    // Wave events stream straight into the registry, so `GET /jobs/{id}`
    // and the chunked stream endpoint see progress while the sweep runs.
    let hook = WaveHook::new(move |p| registry.push_wave(job_id, p));
    let opts = FleetOptions {
        base: dpcons_apps::RunConfig::default(),
        space: spec.space.clone(),
        budget: spec.budget,
        fleet: spec.devices.clone(),
        cache: cache.build(),
    };
    let report = fleet_sweep_with_progress(app.as_ref(), &opts, &hook)
        .map_err(|e| ServeError::faulted(e.to_string()))?;
    debug_assert_eq!(report.key, spec.key);
    if report.winners.iter().all(Option::is_none) {
        return Err(ServeError::faulted(format!(
            "no feasible winner on any device: {} evaluated, {} failed, {} panicked, {} timed out",
            report.evaluated, report.failed, report.panicked, report.timed_out
        )));
    }
    let num = |n: u64| Value::Num(n as f64);
    let winners: Vec<Value> = (0..report.devices.len())
        .map(|d| match (report.winner_knobs(d), report.winner_cycles(d)) {
            (Some(knobs), Some(cycles)) => Value::Obj(BTreeMap::from([
                ("device".to_string(), Value::Str(report.devices[d].clone())),
                ("knobs".to_string(), Value::Str(knobs.label())),
                ("cycles".to_string(), num(cycles)),
            ])),
            _ => Value::Null,
        })
        .collect();
    let devices = report.devices.iter().map(|d| Value::Str(d.clone())).collect();
    let mut o = BTreeMap::from([
        ("kind".to_string(), Value::Str(spec.kind.as_str().to_string())),
        ("app".to_string(), Value::Str(report.app.clone())),
        ("devices".to_string(), Value::Arr(devices)),
        ("key".to_string(), Value::Str(key_hex(report.key))),
        ("evaluated".to_string(), num(report.evaluated as u64)),
        ("faulted".to_string(), num(report.fault_count() as u64)),
        ("functional_runs".to_string(), num(report.functional_runs)),
        ("retimings".to_string(), num(report.retimings)),
        ("from_cache".to_string(), Value::Bool(report.from_cache)),
    ]);
    // A one-device sweep also answers in the singular, the form `/tune`
    // clients read.
    if let [winner] = &winners[..] {
        o.insert("device".to_string(), Value::Str(report.captured_on().to_string()));
        o.insert("winner".to_string(), winner.clone());
    }
    o.insert("winners".to_string(), Value::Arr(winners));
    Ok(Value::Obj(o))
}
