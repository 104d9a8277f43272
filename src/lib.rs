//! # dpcons — compiler-assisted workload consolidation for GPU dynamic parallelism
//!
//! Umbrella crate for the reproduction of Wu, Li & Becchi, *"Compiler-Assisted
//! Workload Consolidation For Efficient Dynamic Parallelism on GPU"*
//! (IPDPS 2016). It re-exports the workspace crates:
//!
//! * [`sim`] — deterministic SIMT GPU simulator with a dynamic-parallelism
//!   runtime model (the hardware substrate standing in for the paper's K20c),
//! * [`ir`] — kernel IR, builder, warp-lockstep interpreter, CUDA-flavoured
//!   pretty printer,
//! * [`compiler`] — the paper's contribution: the `#pragma dp` directive and
//!   the warp/block/grid workload-consolidation transformations,
//! * [`workloads`] — graph/tree generators and CPU reference algorithms,
//! * [`apps`] — the seven IPDPS'16 benchmarks and the variant runner,
//! * [`obs`] — host-side observability: metrics registry, span tracing, and
//!   Chrome-trace export for the capture/replay/tune pipeline,
//! * [`serve`] — the tuning-as-a-service daemon: std-only HTTP/JSON server
//!   with request dedup, a FIFO job queue, and streamed wave progress.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, and the `reproduce`
//! binary of `dpcons-bench` for the experiment inventory.

pub use dpcons_apps as apps;
pub use dpcons_core as compiler;
pub use dpcons_ir as ir;
pub use dpcons_obs as obs;
pub use dpcons_serve as serve;
pub use dpcons_sim as sim;
pub use dpcons_tune as tune;
pub use dpcons_workloads as workloads;
