//! # dpcons-serve — tuning-as-a-service over the capture/replay substrate
//!
//! The autotuner ([`dpcons_tune`]) answers one question — "which directive
//! knobs win for this app on this device (or fleet)?" — and a sweep is
//! expensive enough that *many clients asking the same question should cost
//! one sweep*. This crate is that front door: a std-only HTTP/1.1 + JSON
//! daemon, hand-rolled on `std::net::TcpListener` (the workspace is
//! offline/zero-dep), that turns the tuner into a long-running multi-client
//! service.
//!
//! The pieces, in request order:
//!
//! * [`proto`] — the `dpcons-serve v1` wire protocol. `POST /tune` and
//!   `POST /fleet` bodies are parsed with [`dpcons_obs::jsonv`], budget caps
//!   are **clamped server-side** ([`proto::Limits`]: `max_evals` past the cap
//!   is a typed `over_budget` rejection, fuel is always forced on), and the
//!   request is normalized into the *exact* cache key the sweep uses
//!   ([`dpcons_tune::cache_key_for`]) — so serve-side dedup and the result
//!   cache cannot disagree. The endpoints differ only in naming one `device`
//!   or a list of `devices`; a one-device `/fleet` is that device's `/tune`.
//! * [`jobs`] — the in-memory job registry, dedup table and job queue: the
//!   daemon's only job state, under one lock. N concurrent identical
//!   requests attach to one job (one functional sweep, N responses); a key
//!   has at most one queued or running job, so identical keys never sweep
//!   at once; failed jobs release their key so retries are fresh; terminal
//!   jobs are retained bounded-FIFO for late pollers. Fresh jobs are handed
//!   out FIFO to whichever worker is idle, and a drain refuses admission
//!   under the same lock, so an admitted job is always run.
//! * [`pool`] — the worker threads. Each runs the one sweep over its job's
//!   devices through the [`dpcons_tune::WaveHook`] progress callback,
//!   streaming wave events into the registry as they complete, and renders
//!   one result shape; job panics are isolated with `catch_unwind` and
//!   reported as `failed`, never fatal. A sweep's wave is its only fan-out
//!   and a worker runs one sweep at a time, so the daemon holds at most
//!   `workers × min(WAVE_SIZE, cores)` pool threads besides its worker and
//!   connection threads (two workers on 2 cores: 4).
//! * [`http`] — the router/server: `GET /jobs/{id}` (status + partial wave
//!   results), `GET /jobs/{id}/stream` (chunked-transfer NDJSON progress),
//!   `GET /metrics` (the [`dpcons_obs`] registry), `GET /healthz`, and
//!   `POST /shutdown` → drain: stop admitting (503), finish queued jobs,
//!   bounded join.
//! * [`client`] — a blocking client library used by the integration tests,
//!   `examples/serve_client.rs`, and anything else that wants typed access.
//! * [`error`] — the single [`ErrorClass`] taxonomy mapping every failure to
//!   both an HTTP status and a process exit code, shared with the
//!   `reproduce` CLI so `--strict` semantics and HTTP statuses stay aligned.
//!
//! Observability: the server feeds `serve.requests`, `serve.deduped`,
//! `serve.jobs_running` / `serve.jobs_done` / `serve.jobs_failed` counters,
//! the `serve.queue_depth` gauge, and the `serve.request_us` (per
//! connection), `serve.queue_wait_us` (admission → worker) and
//! `serve.job_us` (worker → terminal) histograms, all visible at
//! `GET /metrics`.

pub mod client;
pub mod error;
pub mod http;
pub mod jobs;
pub mod pool;
pub mod proto;

pub use client::{Client, Submission};
pub use error::{ErrorClass, ServeError};
pub use http::{serve, ServerConfig, ServerHandle};
pub use jobs::{JobState, JobView, Registry};
pub use pool::CacheMode;
pub use proto::{parse_request, JobKind, JobSpec, Limits, PROTO};
