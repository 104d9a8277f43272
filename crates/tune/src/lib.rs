//! # dpcons-tune — parallel autotuning of `#pragma dp` directive knobs
//!
//! The paper's directive (Table I / Section IV.D) exposes real tuning knobs —
//! consolidation granularity (`warp`/`block`/`grid`), buffer allocator
//! (`default`/`halloc`/`custom`), `perBufferSize`, and the consolidated
//! kernel's `threads`/`blocks` — and its Figures 5–6 are ablations over
//! exactly this space. This crate turns those ablations into a subsystem:
//! given a benchmark's annotated basic-dp module and dataset, it finds the
//! best directive automatically.
//!
//! There is one sweep pipeline ([`tuner`]), over however many devices it is
//! handed — [`tune`] prices one, [`fleet_sweep`] a whole fleet:
//!
//! 1. **Enumerate** — [`enumerate_candidates`] walks the
//!    [`dpcons_core::KnobSpace`] product into [`Knobs`] points, filling
//!    unset sizes from the app's hand-written base directives (exposed via
//!    [`dpcons_apps::TuneModel`]) and keeping one point per program the
//!    compiler would generate ([`dpcons_core::generated_buffer`] says which
//!    buffer knobs reach the code). A candidate stays one `Knobs` value
//!    from here on: [`candidate_config`] puts it in
//!    `RunConfig::tuned`, the runner applies it to the base directive
//!    ([`Knobs::apply`]) and the report prints that directive as the
//!    winning pragma ([`materialize_directive`]).
//! 2. **Evaluate** — every candidate runs end to end against
//!    `dpcons-sim`'s cycle model in parallel ([`par::parallel_map`]; scoped
//!    std threads — the environment has no `rayon`), in fixed-size waves;
//!    the optional [`Budget`] evaluation cap stops the sweep at the same
//!    candidate on every machine. Each runs functionally **once**, on the
//!    first device; with more devices the run is captured and re-timed on
//!    each of the others via `Engine::replay_timing_on`, so one functional
//!    run yields a whole row of the (knobs × device) matrix.
//!    Candidates whose output diverges from the CPU oracle are never ranked.
//!    Nothing is rejected before it runs: a statically infeasible point (a
//!    template the compiler's analysis refuses, a block larger than the
//!    device allows, a buffer larger than the device heap) fails during
//!    evaluation with the compiler's or simulator's own error and is
//!    recorded as [`Status::Failed`].
//! 3. **Rank & cache** — the [`TuneReport`] lists every candidate with its
//!    metrics and names one winner per device; it is stored in a
//!    deterministic two-layer [`Cache`] keyed by (app, dataset fingerprint,
//!    run configuration, knob space, budget, every device's description)
//!    ([`cache_key_for`]), so repeated sweeps are O(1) and byte-identical.
//!
//! End-to-end integration: `dpcons_apps::Variant::ConsolidatedTuned` runs a
//! benchmark under a knob point ([`candidate_config`] sets it on a
//! `RunConfig`), `reproduce tune` sweeps all seven apps and reports
//! tuned-vs-default speedups, and `examples/autotune.rs` searches, then
//! launches the winner.
//!
//! [`fleet`] holds the multi-device entry point — it only adds the check
//! that every device can replay a capture from the first. `reproduce fleet`
//! and `examples/fleet.rs` drive it end to end.
//!
//! The sweep substrate is **fault-tolerant**: candidate panics are isolated
//! per job ([`par::parallel_map_robust`]) and recorded as
//! [`Status::Panicked`]; runaway candidates are stopped by a deterministic
//! fuel budget and a wall-clock soft deadline ([`Budget::fuel`],
//! [`Budget::max_candidate_ms`]) and recorded as [`Status::TimedOut`];
//! and the disk cache validates a checksummed envelope on every read,
//! quarantining corrupt entries to `*.corrupt` and degrading to memory-only
//! when the directory is unwritable. Production code carries no fault
//! hooks: the tests provoke every one of these fault classes from outside,
//! through a [`dpcons_apps::Benchmark`] wrapper and by damaging cache files.

// Sweeps must survive bad candidates, so the non-test library code is not
// allowed to panic through `unwrap`/`expect` — fault outcomes are data, not
// crashes. Unit tests are exempt (`cfg(test)`).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod fleet;
pub mod par;
pub mod replay;
pub mod report;
pub mod tuner;

pub use cache::{fnv1a, Cache, Fnv64};
pub use dpcons_core::Knobs;
pub use fleet::{fleet_sweep, fleet_sweep_with_progress, FleetError, FleetOptions};
pub use par::{parallel_map, parallel_map_robust};
pub use replay::{merge_reports, replay_timing_many};
pub use report::{CandidateOutcome, FleetReport, Metrics, Status, TuneReport};
pub use tuner::{
    cache_key_for, candidate_config, default_knobs, enumerate_candidates, evaluate_candidate,
    fingerprint, materialize_directive, prune_reason, tune, Budget, TuneError, TuneOptions,
    WaveHook, WaveProgress, WAVE_SIZE,
};
