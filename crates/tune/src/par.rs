//! Scoped-thread fork/join helper with per-job panic isolation.
//!
//! The workspace has no `rayon`; this is the only parallel primitive the
//! tuner (and the bench harness) needs: run independent closures across the
//! cores and collect the results *in submission order*, so downstream
//! selection stays deterministic regardless of scheduling.
//!
//! [`parallel_map_robust`] is the foundation: every job runs under
//! [`std::panic::catch_unwind`], so one exploding candidate is returned as an
//! `Err(panic message)` at its own index instead of unwinding through a
//! worker thread — which would poison the shared queue/result mutexes and
//! cascade one candidate bug into a whole-sweep abort. No lock is ever held
//! across user code, so the shared state cannot be poisoned by a job; if a
//! lock is nevertheless found poisoned the inner value is recovered
//! ([`std::sync::PoisonError::into_inner`]) rather than re-panicking.
//! [`parallel_map`] keeps the historical strict contract as a thin wrapper:
//! any job panic is resumed on the caller's thread after the batch drains.
//!
//! The pool is [`pool_width`] wide, derived here only. No library caller
//! nests a batch inside another's job, so a sweep, whose wave is its only
//! fan-out, holds at most `min(WAVE_SIZE, pool_width())` workers; the
//! `par.workers.peak` gauge shows it (`tests/thread_budget.rs`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Render a caught panic payload the way the default panic hook would.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The pool width: one worker per core granted to this process, else 1.
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Live pool workers, process-wide; `par.workers.peak` keeps its high-water mark.
static LIVE_WORKERS: AtomicI64 = AtomicI64::new(0);

/// Run `jobs` on up to [`pool_width`] scoped threads, preserving
/// result order. Each job is isolated with `catch_unwind`: index `i` of the
/// returned vector holds `Ok(result)` or `Err(panic message)` for job `i`,
/// and one panicking job never disturbs the others' results or order.
pub fn parallel_map_robust<T, F>(jobs: Vec<F>) -> Vec<Result<T, String>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let run = |f: F| catch_unwind(AssertUnwindSafe(f)).map_err(panic_message);
    let workers = pool_width().min(n);
    if workers == 1 {
        return jobs.into_iter().map(run).collect();
    }
    let results: Mutex<Vec<Option<Result<T, String>>>> = Mutex::new((0..n).map(|_| None).collect());
    // LIFO over a reversed list = FIFO by original index.
    let queue: Mutex<Vec<(usize, F)>> = Mutex::new(jobs.into_iter().enumerate().rev().collect());
    let peak = dpcons_obs::gauge("par.workers.peak");
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                // `run` catches every job panic, so the decrement is reached.
                peak.raise_to(LIVE_WORKERS.fetch_add(1, Ordering::SeqCst) + 1);
                loop {
                    let job = queue.lock().unwrap_or_else(PoisonError::into_inner).pop();
                    match job {
                        Some((idx, f)) => {
                            let r = run(f);
                            results.lock().unwrap_or_else(PoisonError::into_inner)[idx] = Some(r);
                        }
                        None => break,
                    }
                }
                LIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
    results
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .map(|r| r.unwrap_or_else(|| Err("job was never executed".to_string())))
        .collect()
}

/// Strict variant: run `jobs` in parallel, preserving result order, and
/// resume the first job panic on the caller's thread. The whole batch still
/// drains first (panic isolation happens per job), so sibling jobs are never
/// lost mid-flight — the historical contract callers like the bench harness
/// rely on.
pub fn parallel_map<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    parallel_map_robust(jobs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|msg| std::panic::resume_unwind(Box::new(msg))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_runs_everything() {
        let jobs: Vec<_> = (0..97).map(|i| move || i * 3).collect();
        assert_eq!(parallel_map(jobs), (0..97).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_job_work() {
        let none: Vec<Box<dyn FnOnce() -> i32 + Send>> = Vec::new();
        assert!(parallel_map(none).is_empty());
        assert_eq!(parallel_map(vec![|| 41 + 1]), vec![42]);
    }

    #[test]
    fn one_panicking_job_of_32_loses_nothing() {
        // Regression for the mutex-poisoning cascade: job 13 panics; the
        // other 31 results must come back intact, in submission order.
        let jobs: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    if i == 13 {
                        panic!("injected failure in job {i}");
                    }
                    i * 7
                }
            })
            .collect();
        let out = parallel_map_robust(jobs);
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let msg = r.as_ref().unwrap_err();
                assert!(msg.contains("injected failure in job 13"), "got `{msg}`");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i * 7, "job {i} lost or reordered");
            }
        }
    }

    #[test]
    fn all_jobs_panicking_still_returns_per_index_errors() {
        let jobs: Vec<_> = (0..8).map(|i| move || -> u32 { panic!("boom {i}") }).collect();
        let out = parallel_map_robust(jobs);
        for (i, r) in out.iter().enumerate() {
            assert!(r.as_ref().unwrap_err().contains(&format!("boom {i}")));
        }
    }

    #[test]
    fn strict_wrapper_resumes_the_panic() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("strict mode panic")), Box::new(|| 3)];
        let err = catch_unwind(AssertUnwindSafe(|| parallel_map(jobs))).unwrap_err();
        assert!(panic_message(err).contains("strict mode panic"));
    }

    #[test]
    fn non_string_payloads_are_described() {
        let jobs: Vec<_> =
            vec![move || -> u32 { std::panic::panic_any(42usize) }, move || -> u32 { 7 }];
        let out = parallel_map_robust(jobs);
        assert_eq!(out[0].as_ref().unwrap_err(), "non-string panic payload");
        assert_eq!(*out[1].as_ref().unwrap(), 7);
    }
}
