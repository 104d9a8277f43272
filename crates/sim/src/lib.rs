//! # dpcons-sim — deterministic SIMT GPU simulator with dynamic parallelism
//!
//! The hardware substrate for the IPDPS'16 workload-consolidation
//! reproduction. It models the parts of a Kepler-class GPU that the paper's
//! evaluation depends on:
//!
//! * warp-granular execution metrics (warp execution efficiency via active
//!   masks, per-`__syncthreads`-phase block durations),
//! * the dynamic-parallelism runtime: device-side launches with per-launch
//!   overhead, the fixed (2048-entry) + virtualized pending pools, the
//!   32-concurrent-kernel limit, and parent-block swapping around device-side
//!   `cudaDeviceSynchronize`,
//! * SM residency limits (threads/blocks/registers/shared memory) and
//!   achieved-occupancy accounting,
//! * a coalescing DRAM-transaction model,
//! * the three consolidation-buffer allocators from the paper's Table I
//!   (CUDA default malloc, Halloc-like slabs, pre-allocated pool).
//!
//! Execution is two-phase ([`engine::Engine::launch`]): a deterministic
//! functional phase (so compiler transformations can be validated for exact
//! output equivalence) followed by a discrete-event timing phase that
//! produces cycle counts and profiler metrics.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod alloc;
pub mod config;
pub mod engine;
pub mod kernel;
pub mod mem;
pub mod profiler;

pub use alloc::{AllocKind, DeviceHeap, HeapStats};
pub use config::{parse_fleet, CostModel, FleetSpecError, GpuConfig, WARP_SIZE};
/// The metrics registry, re-exported so kernel-body crates (the IR's VM)
/// record counters in it without a dependency edge of their own.
pub use dpcons_obs as obs;
pub use engine::{functional_execs_total, Engine, ExecRecord};
pub use kernel::{
    BlockCtx, BlockResult, FuelMeter, KernelBody, KernelId, LaunchSpec, SegmentResult,
};
pub use mem::{coalesced_transactions, ArrayId, GlobalMem};
pub use profiler::ProfileReport;

/// Errors surfaced by the simulator. These model device-side faults
/// (out-of-bounds accesses, heap exhaustion, launch-config violations) as
/// well as harness misuse (unknown kernels, runaway recursion).
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    OutOfBounds {
        array: String,
        handle: i64,
        index: i64,
        len: usize,
    },
    BadHandle {
        handle: i64,
    },
    UploadSizeMismatch {
        array: String,
        expected: usize,
        got: usize,
    },
    /// A host bulk operation (`slice`, `upload`, `fill`) on a sparse array
    /// (the device heap), which has no contiguous contents to hand out.
    SparseBulkAccess {
        array: String,
        op: &'static str,
    },
    HeapExhausted {
        kind: &'static str,
        requested: u64,
        capacity: u64,
        in_use: u64,
    },
    UnknownKernel {
        id: usize,
    },
    BadLaunchConfig {
        kernel: String,
        grid: u32,
        block: u32,
        reason: &'static str,
    },
    NestingTooDeep {
        depth: u32,
        limit: u32,
    },
    KernelExecLimit {
        limit: usize,
    },
    /// The functional phase spent its step budget ([`kernel::FuelMeter`]):
    /// the candidate watchdog's deterministic alternative to a wall-clock
    /// timeout for hung or exploding configurations.
    FuelExhausted {
        limit: u64,
    },
    /// Raised by kernel bodies (e.g. the IR interpreter) for program errors.
    KernelFault {
        kernel: String,
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::OutOfBounds { array, handle, index, len } => write!(
                f,
                "out-of-bounds access to array `{array}` (handle {handle}): index {index} >= len {len}"
            ),
            SimError::BadHandle { handle } => {
                write!(f, "value {handle} is not a live device array handle")
            }
            SimError::UploadSizeMismatch { array, expected, got } => write!(
                f,
                "upload to `{array}` has wrong length: expected {expected}, got {got}"
            ),
            SimError::SparseBulkAccess { array, op } => {
                write!(f, "host {op} of sparse array `{array}` is not supported")
            }
            SimError::HeapExhausted { kind, requested, capacity, in_use } => write!(
                f,
                "device heap ({kind}) exhausted: requested {requested} words, capacity {capacity}, in use {in_use}"
            ),
            SimError::UnknownKernel { id } => write!(f, "kernel id {id} is not registered"),
            SimError::BadLaunchConfig { kernel, grid, block, reason } => write!(
                f,
                "bad launch configuration <<<{grid},{block}>>> for kernel `{kernel}`: {reason}"
            ),
            SimError::NestingTooDeep { depth, limit } => write!(
                f,
                "dynamic-parallelism nesting depth {depth} exceeds device limit {limit}"
            ),
            SimError::KernelExecLimit { limit } => write!(
                f,
                "kernel execution count exceeded the safety limit of {limit}"
            ),
            SimError::FuelExhausted { limit } => write!(
                f,
                "functional fuel exhausted: the run exceeded its {limit}-step budget"
            ),
            SimError::KernelFault { kernel, message } => {
                write!(f, "fault in kernel `{kernel}`: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_with_context() {
        let e = SimError::OutOfBounds { array: "dist".into(), handle: 3, index: 10, len: 8 };
        let s = e.to_string();
        assert!(s.contains("dist") && s.contains("10") && s.contains('8'));
        let e = SimError::NestingTooDeep { depth: 25, limit: 24 };
        assert!(e.to_string().contains("24"));
    }
}
