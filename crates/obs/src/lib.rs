//! # dpcons-obs — host-side observability substrate
//!
//! The paper's evaluation is built on device profiler counters, which
//! `dpcons_sim::ProfileReport` mirrors for the *simulated* device. This crate
//! is the complementary instrument for the reproduction itself: where does
//! host wall-clock go across capture, replay, and tuning sweeps, why did
//! candidates fail, and is the results cache actually saving work?
//!
//! Three pieces, all std-only and process-wide:
//!
//! * [`metrics`] — a named registry of [`Counter`]s (lock-striped atomics),
//!   [`Gauge`]s, and [`Histogram`]s (power-of-two atomic buckets). Handles
//!   are `&'static`; hot paths cache them in a `OnceLock` so an increment is
//!   one striped atomic add. [`reset_metrics`] zeroes everything for tests.
//! * [`trace`] — span-based structured tracing into a bounded per-thread
//!   ring buffer. [`span`] is **cheap when idle**: with tracing disabled it
//!   is one relaxed atomic load and a branch — no allocation, no lock, no
//!   clock read. [`take_spans`] drains every thread's ring;
//!   [`stage_summary`] renders a human stage-timing table.
//! * [`chrome`] — exports drained spans as Chrome trace-event JSON
//!   (loadable in `chrome://tracing` or <https://ui.perfetto.dev>), with a
//!   [`validate_chrome_trace`] checker (built on the minimal [`jsonv`]
//!   parser) that CI uses to prove emitted traces are well-formed: one
//!   complete event per span, start times in order on every thread.
//!
//! A fourth small piece, [`warn`], emits process-wide deduplicated
//! degraded-mode warnings ([`warn_once`]) so a cache falling back to
//! memory-only mode is reported exactly once, not once per sweep.
//!
//! Wall-clock timestamps live only in traces and stage summaries, never in
//! the deterministic `BENCH_*` fields that tests pin.

pub mod chrome;
pub mod jsonv;
pub mod metrics;
pub mod trace;
pub mod warn;

pub use chrome::{chrome_trace_json, validate_chrome_trace, TraceStats};
pub use metrics::{
    counter, gauge, histogram, render_metrics_table, reset_metrics, snapshot_metrics, Counter,
    Gauge, Histogram, MetricSnapshot, MetricValue,
};
pub use trace::{
    dropped_spans, set_tracing, span, span_n, stage_summary, take_spans, tracing_enabled, Span,
    SpanRec,
};
pub use warn::{reset_warnings, warn_once};
