//! # dpcons-core — the workload-consolidation compiler
//!
//! Reproduction of the compiler contribution of Wu, Li & Becchi (IPDPS'16):
//! a directive-based source-to-source transformation that consolidates the
//! child kernels spawned by individual GPU threads (dynamic parallelism) into
//! one larger kernel per **warp**, **block**, or **grid**, dramatically
//! reducing nested-launch overhead and improving device utilization.
//!
//! Pipeline:
//!
//! 1. [`directive::Directive::parse`] — parse the `#pragma dp` annotation
//!    (paper Table I),
//! 2. [`analysis::analyze`] — check the kernel against the basic-dp template
//!    (paper Fig. 1a), classify the child kernel, map launch arguments,
//! 3. [`transform::consolidate`] — generate the consolidated child (+
//!    postwork kernel at grid level) and rewrite the parent: buffer
//!    allocation, buffer insertions, the granularity's barrier, and the
//!    consolidated launch, each step one piece of code shared by the
//!    irregular-loop and recursion templates. The launch's one
//!    [`occupancy::LaunchShape`] is decided here and nowhere else: the
//!    `blocks`/`threads` clauses, else a [`occupancy::ConfigPolicy`]
//!    (`KC_1` / `KC_16` / `KC_32` by default, Section IV.E, or 1-1); a
//!    recursive entry's host launch is the same shape at its seeded item.
//!
//! The output is a plain `dpcons_ir::Module` — run it on `dpcons_sim`, or
//! pretty-print it with `dpcons_ir::module_to_string` to inspect the
//! generated CUDA-like source.

pub mod analysis;
pub mod directive;
pub mod occupancy;
pub mod runtime;
pub mod transform;

pub use analysis::{analyze, Analysis, ChildClass, LaunchInfo, TransformError};
pub use directive::{Directive, DirectiveError, Granularity, KnobSpace, Knobs, SizeSpec};
pub use occupancy::{
    best_single_kernel_config, max_blocks_per_sm, occupancy, ConfigPolicy, KernelResources,
    LaunchShape,
};
pub use runtime::{prepare_launch, reset_launch, PreparedLaunch};
pub use transform::{
    consolidate, generated_buffer, prework_slice, Consolidated, GridExtras, TransformInfo,
};
