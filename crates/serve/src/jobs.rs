//! In-memory job registry, request-dedup table and the daemon's job queue.
//!
//! Identity is the normalized cache key from [`crate::proto`]. The dedup
//! table maps each key to the most recent job for it: while that job is
//! queued, running, or done, every new submission for the key attaches to it
//! (N clients, one sweep). A *failed* job releases its key so the next
//! submission retries fresh. Completed jobs are kept (bounded, FIFO-evicted)
//! so late pollers and dedup-attached clients can still read results.
//!
//! The registry is the only job state. One mutex and one `Condvar` carry a
//! job from admission through a FIFO queue of fresh ids, hand-out to any
//! idle worker ([`Registry::next_job`]), its waves and its terminal
//! transition; the drain flag sits under the same lock. Since a key has at
//! most one queued or running job, two sweeps of one key never run at once,
//! and since [`Registry::submit`] refuses under that lock once the drain is
//! requested, every admitted job is handed out before `next_job` reports
//! the drain: a job is run or refused, never stranded.
//!
//! Nobody polls the table: every admission, wave, terminal transition and
//! the drain notify the one `Condvar`, on which idle workers, progress
//! streams ([`Registry::wait_change`]) and drain sleepers each wait for
//! their own condition.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use dpcons_obs::jsonv::Value;
use dpcons_tune::WaveProgress;

use crate::error::ServeError;
use crate::proto::JobSpec;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
}

impl JobState {
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    pub fn terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

struct Job {
    spec: JobSpec,
    state: JobState,
    /// How many submissions share this job (1 + dedup hits).
    clients: u64,
    waves: Vec<WaveProgress>,
    result: Option<Value>,
    error: Option<ServeError>,
    /// When the job was admitted, then when a worker picked it up: the two
    /// ends of `serve.queue_wait_us` and the start of `serve.job_us`.
    queued_at: Instant,
    started_at: Option<Instant>,
}

impl Job {
    fn view(&self, id: u64) -> JobView {
        JobView {
            id,
            spec: self.spec.clone(),
            state: self.state,
            clients: self.clients,
            waves: self.waves.clone(),
            result: self.result.clone(),
            error: self.error.clone(),
        }
    }
}

/// A point-in-time snapshot of one job, safe to render outside the lock.
#[derive(Debug, Clone)]
pub struct JobView {
    pub id: u64,
    pub spec: JobSpec,
    pub state: JobState,
    pub clients: u64,
    pub waves: Vec<WaveProgress>,
    pub result: Option<Value>,
    pub error: Option<ServeError>,
}

/// Outcome of a submission.
#[derive(Debug, Clone, Copy)]
pub struct Admission {
    pub id: u64,
    pub state: JobState,
    /// True if this submission attached to an existing job instead of
    /// queueing a fresh one.
    pub deduped: bool,
}

struct Inner {
    next_id: u64,
    jobs: HashMap<u64, Job>,
    /// key -> job id, for every non-failed job still in `jobs`.
    by_key: HashMap<u64, u64>,
    /// Insertion order, for bounded eviction of terminal jobs.
    order: VecDeque<u64>,
    /// Fresh jobs waiting for a worker, oldest first.
    queue: VecDeque<u64>,
    /// Set by the drain request: admissions are refused, and workers exit
    /// once `queue` is empty.
    draining: bool,
}

/// The process-wide job table and queue. All methods are short critical
/// sections; the waits sleep on `changed`.
pub struct Registry {
    inner: Mutex<Inner>,
    /// Notified by every admission, wave, terminal transition and the drain.
    changed: Condvar,
    /// Terminal jobs beyond this count are evicted oldest-first.
    capacity: usize,
}

impl Registry {
    pub fn new(capacity: usize) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                next_id: 1,
                jobs: HashMap::new(),
                by_key: HashMap::new(),
                order: VecDeque::new(),
                queue: VecDeque::new(),
                draining: false,
            }),
            changed: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Workers isolate job panics with catch_unwind, so the lock is never
        // poisoned by job code; recover rather than propagate regardless.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit a request: attach to the live/done job with the same key, or
    /// queue a fresh job for the next idle worker. Once the drain is
    /// requested every submission is refused as `Unavailable`.
    pub fn submit(&self, spec: JobSpec) -> Result<Admission, ServeError> {
        let mut g = self.lock();
        if g.draining {
            return Err(ServeError::unavailable("server is draining; not admitting new jobs"));
        }
        if let Some(&id) = g.by_key.get(&spec.key) {
            if let Some(job) = g.jobs.get_mut(&id) {
                if job.state != JobState::Failed {
                    job.clients += 1;
                    dpcons_obs::counter("serve.deduped").inc();
                    return Ok(Admission { id, state: job.state, deduped: true });
                }
            }
        }
        let id = g.next_id;
        g.next_id += 1;
        g.jobs.insert(
            id,
            Job {
                spec: spec.clone(),
                state: JobState::Queued,
                clients: 1,
                waves: Vec::new(),
                result: None,
                error: None,
                queued_at: Instant::now(),
                started_at: None,
            },
        );
        g.by_key.insert(spec.key, id);
        g.order.push_back(id);
        g.queue.push_back(id);
        dpcons_obs::gauge("serve.queue_depth").add(1);
        self.evict(&mut g);
        self.changed.notify_all();
        Ok(Admission { id, state: JobState::Queued, deduped: false })
    }

    /// Drop the oldest terminal jobs beyond capacity. Live jobs are never
    /// evicted, so the table stays bounded only once sweeps finish — which
    /// is also the only time their results stop being authoritative (the
    /// tune cache has them).
    fn evict(&self, g: &mut Inner) {
        while g.jobs.len() > self.capacity {
            let Some(pos) =
                g.order.iter().position(|id| g.jobs.get(id).is_some_and(|j| j.state.terminal()))
            else {
                return; // nothing terminal yet; stay over-capacity briefly
            };
            if let Some(id) = g.order.remove(pos) {
                if let Some(job) = g.jobs.remove(&id) {
                    if g.by_key.get(&job.spec.key) == Some(&id) {
                        g.by_key.remove(&job.spec.key);
                    }
                }
            }
        }
    }

    /// A worker's blocking take: the oldest queued job, marked `Running`.
    /// `None` only once the drain is requested and the queue is empty —
    /// the worker's cue to exit.
    pub fn next_job(&self) -> Option<(u64, JobSpec)> {
        let mut g = self.lock();
        loop {
            if let Some(id) = g.queue.pop_front() {
                dpcons_obs::gauge("serve.queue_depth").add(-1);
                // Queued jobs are live, and eviction keeps live jobs.
                let Some(job) = g.jobs.get_mut(&id) else { continue };
                job.state = JobState::Running;
                let now = Instant::now();
                job.started_at = Some(now);
                dpcons_obs::counter("serve.jobs_running").inc();
                dpcons_obs::histogram("serve.queue_wait_us")
                    .record((now - job.queued_at).as_micros() as u64);
                return Some((id, job.spec.clone()));
            }
            if g.draining {
                return None;
            }
            g = self.changed.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Record one completed sweep wave.
    pub fn push_wave(&self, id: u64, p: WaveProgress) {
        let mut g = self.lock();
        if let Some(job) = g.jobs.get_mut(&id) {
            job.waves.push(p);
            self.changed.notify_all();
        }
    }

    /// Terminal transition. A failure releases the dedup key so the next
    /// identical request retries instead of attaching to a corpse.
    pub fn finish(&self, id: u64, outcome: Result<Value, ServeError>) {
        let mut g = self.lock();
        let Some(job) = g.jobs.get_mut(&id) else { return };
        if let Some(started) = job.started_at {
            dpcons_obs::histogram("serve.job_us").record(started.elapsed().as_micros() as u64);
        }
        match outcome {
            Ok(result) => {
                job.state = JobState::Done;
                job.result = Some(result);
                dpcons_obs::counter("serve.jobs_done").inc();
            }
            Err(err) => {
                job.state = JobState::Failed;
                job.error = Some(err);
                dpcons_obs::counter("serve.jobs_failed").inc();
                let key = job.spec.key;
                if g.by_key.get(&key) == Some(&id) {
                    g.by_key.remove(&key);
                }
            }
        }
        self.changed.notify_all();
    }

    /// Snapshot a job for rendering.
    pub fn view(&self, id: u64) -> Option<JobView> {
        self.lock().jobs.get(&id).map(|job| job.view(id))
    }

    /// Block until job `id` has more than `seen` waves, is terminal, or
    /// `deadline` passes, and return its view as of that moment (at the
    /// deadline: the unchanged view). `None` if the id is unknown or the job
    /// was evicted meanwhile.
    pub fn wait_change(&self, id: u64, seen: usize, deadline: Instant) -> Option<JobView> {
        let mut g = self.lock();
        loop {
            let job = g.jobs.get(&id)?;
            let left = deadline.saturating_duration_since(Instant::now());
            if job.waves.len() > seen || job.state.terminal() || left.is_zero() {
                return Some(job.view(id));
            }
            g = self.changed.wait_timeout(g, left).unwrap_or_else(|p| p.into_inner()).0;
        }
    }

    /// True once every job is terminal (used by drain).
    pub fn idle(&self) -> bool {
        let g = self.lock();
        g.jobs.values().all(|j| j.state.terminal())
    }

    /// Stop admitting and let the workers exit once the queue is empty.
    pub fn request_drain(&self) {
        self.lock().draining = true;
        self.changed.notify_all();
    }

    /// Whether the drain was requested.
    pub fn draining(&self) -> bool {
        self.lock().draining
    }

    /// Sleep until the drain is requested.
    pub fn wait_drain_requested(&self) {
        let mut g = self.lock();
        while !g.draining {
            g = self.changed.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{parse_request, JobKind, Limits};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn spec(body: &str) -> JobSpec {
        parse_request(JobKind::Tune, body, &Limits::default()).unwrap()
    }

    #[test]
    fn identical_submissions_share_one_job_until_failure() {
        let reg = Registry::new(64);
        let s = spec(r#"{"app":"TH","device":"k20c"}"#);
        let a = reg.submit(s.clone()).unwrap();
        let b = reg.submit(s.clone()).unwrap();
        assert!(!a.deduped);
        assert!(b.deduped);
        assert_eq!(a.id, b.id);
        assert_eq!(reg.view(a.id).unwrap().clients, 2);

        // Done jobs still dedup (instant answers)...
        reg.finish(a.id, Ok(Value::Null));
        let c = reg.submit(s.clone()).unwrap();
        assert!(c.deduped);
        assert_eq!(c.id, a.id);
        assert_eq!(c.state, JobState::Done);

        // ...but a failed job releases the key.
        let other = reg.submit(spec(r#"{"app":"TD","device":"k20c"}"#)).unwrap();
        assert!(!other.deduped);
        reg.finish(other.id, Err(ServeError::faulted("boom")));
        let retry = reg.submit(spec(r#"{"app":"TD","device":"k20c"}"#)).unwrap();
        assert!(!retry.deduped, "failure must not poison the key");
        assert_ne!(retry.id, other.id);
    }

    #[test]
    fn eviction_drops_only_terminal_jobs_and_releases_keys() {
        let reg = Registry::new(2);
        let live = reg.submit(spec(r#"{"app":"TH","device":"k20c"}"#)).unwrap();
        let d1 = reg.submit(spec(r#"{"app":"TD","device":"k20c"}"#)).unwrap();
        reg.finish(d1.id, Ok(Value::Null));
        let d2 = reg.submit(spec(r#"{"app":"SSSP","device":"k20c"}"#)).unwrap();
        reg.finish(d2.id, Ok(Value::Null));
        // Capacity 2 with 3 jobs: the oldest terminal one (d1) is evicted.
        let d3 = reg.submit(spec(r#"{"app":"SpMV","device":"k20c"}"#)).unwrap();
        assert!(reg.view(d1.id).is_none(), "oldest done job evicted");
        assert!(reg.view(live.id).is_some(), "live job never evicted");
        assert!(reg.view(d3.id).is_some());
        // The evicted key is free again: resubmitting creates a fresh job.
        let again = reg.submit(spec(r#"{"app":"TD","device":"k20c"}"#)).unwrap();
        assert!(!again.deduped);
    }

    fn wave(n: u64) -> WaveProgress {
        WaveProgress {
            wave: n,
            evaluated: 1,
            evaluated_total: n as usize + 1,
            planned: 4,
            improved: false,
        }
    }

    /// What a `wait_change(id, seen, ..)` on a second thread returns when
    /// `wake` runs after that thread announced it is about to wait. The 60 s
    /// deadline is far beyond any passing run, so a prompt return proves the
    /// change (not the timeout) ended the wait.
    fn woken_by(reg: &Registry, id: u64, seen: usize, wake: impl FnOnce()) -> Option<JobView> {
        let (tx, rx) = mpsc::channel();
        let began = Instant::now();
        let view = std::thread::scope(|s| {
            let waiter = s.spawn(move || {
                tx.send(()).unwrap();
                reg.wait_change(id, seen, Instant::now() + Duration::from_secs(60))
            });
            rx.recv().unwrap();
            wake();
            waiter.join().unwrap()
        });
        assert!(began.elapsed() < Duration::from_secs(30), "the waiter slept to its deadline");
        view
    }

    #[test]
    fn waiter_is_woken_by_push_wave_and_sees_the_wave() {
        let reg = Registry::new(64);
        let job = reg.submit(spec(r#"{"app":"TH","device":"k20c"}"#)).unwrap();
        let view = woken_by(&reg, job.id, 0, || reg.push_wave(job.id, wave(0))).unwrap();
        assert_eq!(view.waves.len(), 1);
        assert!(!view.state.terminal());
        // A waiter that has already sent that wave sleeps until the next one.
        let view = woken_by(&reg, job.id, 1, || reg.push_wave(job.id, wave(1))).unwrap();
        assert_eq!(view.waves.iter().map(|w| w.wave).collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn waiter_is_woken_by_finish_with_either_outcome() {
        let reg = Registry::new(64);
        let ok = reg.submit(spec(r#"{"app":"TH","device":"k20c"}"#)).unwrap();
        let view = woken_by(&reg, ok.id, 0, || reg.finish(ok.id, Ok(Value::Null))).unwrap();
        assert_eq!(view.state, JobState::Done);
        assert_eq!(view.result, Some(Value::Null));

        let bad = reg.submit(spec(r#"{"app":"TD","device":"k20c"}"#)).unwrap();
        let boom = || reg.finish(bad.id, Err(ServeError::faulted("boom")));
        let view = woken_by(&reg, bad.id, 0, boom).unwrap();
        assert_eq!(view.state, JobState::Failed);
        assert_eq!(view.error.map(|e| e.message), Some("boom".to_string()));
    }

    #[test]
    fn wait_returns_the_unchanged_view_at_its_deadline() {
        let reg = Registry::new(64);
        let job = reg.submit(spec(r#"{"app":"TH","device":"k20c"}"#)).unwrap();
        reg.push_wave(job.id, wave(0));
        let began = Instant::now();
        let view = reg.wait_change(job.id, 1, began + Duration::from_millis(30)).unwrap();
        assert!(began.elapsed() >= Duration::from_millis(30), "nothing changed: it must wait");
        assert_eq!(view.waves.len(), 1);
        assert_eq!(view.state, JobState::Queued);
    }

    #[test]
    fn wait_on_an_unknown_or_evicted_job_is_none() {
        let reg = Registry::new(1);
        let soon = || Instant::now() + Duration::from_secs(60);
        assert!(reg.wait_change(42, 0, soon()).is_none(), "unknown id");
        let old = reg.submit(spec(r#"{"app":"TH","device":"k20c"}"#)).unwrap();
        reg.finish(old.id, Ok(Value::Null));
        let _new = reg.submit(spec(r#"{"app":"TD","device":"k20c"}"#)).unwrap();
        assert!(reg.view(old.id).is_none(), "capacity 1: the done job was evicted");
        assert!(reg.wait_change(old.id, 0, soon()).is_none(), "evicted id");
    }

    #[test]
    fn queued_jobs_go_to_any_taker_in_fifo_order() {
        let reg = Registry::new(64);
        let ids: Vec<u64> = ["TH", "TD", "SSSP"]
            .iter()
            .map(|app| reg.submit(spec(&format!(r#"{{"app":"{app}","device":"k20c"}}"#))))
            .map(|a| a.unwrap().id)
            .collect();
        // Two takers, no `finish` in between: each gets the next job in
        // admission order, whatever their keys.
        let first = reg.next_job().unwrap();
        let second = reg.next_job().unwrap();
        assert_eq!([first.0, second.0], [ids[0], ids[1]]);
        assert_eq!((first.1.app.as_str(), second.1.app.as_str()), ("TH", "TD"));
        for id in &ids[..2] {
            assert_eq!(reg.view(*id).unwrap().state, JobState::Running);
        }
        assert_eq!(reg.view(ids[2]).unwrap().state, JobState::Queued);
        // A duplicate of a running job attaches to it and queues nothing.
        let dup = reg.submit(spec(r#"{"app":"TH","device":"k20c"}"#)).unwrap();
        assert!(dup.deduped);
        assert_eq!(reg.next_job().unwrap().0, ids[2]);
        reg.request_drain();
        assert!(reg.next_job().is_none(), "the duplicate must not have queued a second sweep");
    }

    #[test]
    fn a_submission_after_the_drain_request_is_refused() {
        let reg = Registry::new(64);
        let s = spec(r#"{"app":"TH","device":"k20c"}"#);
        let admitted = reg.submit(s.clone()).unwrap();
        assert!(!reg.draining());
        reg.request_drain();
        assert!(reg.draining());
        for late in [s, spec(r#"{"app":"TD","device":"k20c"}"#)] {
            let err = reg.submit(late).unwrap_err();
            assert_eq!(err.class, crate::error::ErrorClass::Unavailable);
        }
        assert_eq!(
            reg.view(admitted.id).unwrap().clients,
            1,
            "a refused duplicate attaches to nothing"
        );
    }

    #[test]
    fn a_job_queued_before_the_drain_is_handed_out_before_none() {
        let reg = Registry::new(64);
        let job = reg.submit(spec(r#"{"app":"TH","device":"k20c"}"#)).unwrap();
        reg.request_drain();
        let (id, spec) = reg.next_job().expect("an admitted job is run, never stranded");
        assert_eq!((id, spec.app.as_str()), (job.id, "TH"));
        assert!(reg.next_job().is_none(), "draining with an empty queue: the worker exits");
        reg.finish(id, Ok(Value::Null));
        assert!(reg.idle());
    }

    /// Run `sleeper` on a second thread and request the drain once that
    /// thread announced it is about to sleep. The sleepers have no deadline
    /// of their own, so the answer is awaited for 60 s, far beyond any
    /// passing run: a prompt answer proves the drain woke them.
    fn woken_by_drain<T: Send + 'static>(
        reg: &Arc<Registry>,
        sleeper: impl FnOnce(&Registry) -> T + Send + 'static,
    ) -> T {
        let (ready_tx, ready) = mpsc::channel();
        let (done_tx, done) = mpsc::channel();
        let sleeping = reg.clone();
        std::thread::spawn(move || {
            ready_tx.send(()).unwrap();
            let _ = done_tx.send(sleeper(&sleeping));
        });
        ready.recv().unwrap();
        reg.request_drain();
        done.recv_timeout(Duration::from_secs(60)).expect("the drain must wake the sleeper")
    }

    #[test]
    fn drain_sleepers_and_idle_workers_are_woken_by_the_drain() {
        let reg = Arc::new(Registry::new(64));
        woken_by_drain(&reg, Registry::wait_drain_requested);
        assert!(reg.draining());
        let reg = Arc::new(Registry::new(64));
        assert!(woken_by_drain(&reg, Registry::next_job).is_none(), "an idle worker exits");
    }
}
