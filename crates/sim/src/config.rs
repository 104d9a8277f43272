//! GPU hardware description and cycle-cost model.
//!
//! Defaults model the NVIDIA K20c (GK110) used in the paper's evaluation:
//! 13 SMXs, 2048 threads / 16 blocks / 64 warps per SMX, at most 32 concurrent
//! kernels, a fixed pending-launch pool of 2048 entries backed by a virtualized
//! pool, and a device-side nesting limit of 24 (Section II.A / III.B of the
//! paper). Cost-model constants are not calibrated against real silicon; they
//! encode the *relative* magnitudes the paper describes (device-side launches
//! are thousands of cycles, buffer insertions are tens) so that the shapes of
//! the paper's figures emerge from the same mechanisms.
//!
//! Every field prices something: `tests/device_model.rs` perturbs each one
//! and requires a run's result to change. The simulator reports cycles, not
//! time, so the device has no clock. The warp width is not a field but the
//! constant [`WARP_SIZE`]: the executors hold one lane per bit of a `u32`
//! active mask.

/// Threads per warp, on every simulated device. The IR executors keep a
/// warp's active lanes in a `u32` mask, so this is fixed at `u32::BITS`.
pub const WARP_SIZE: u32 = 32;
const _: () = assert!(WARP_SIZE == u32::BITS);

/// Per-operation cycle costs used by both the functional interpreter and the
/// discrete-event timing engine.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Driver/runtime work for a host-side kernel launch.
    pub host_launch_cycles: u64,
    /// Per-launch device-side overhead: parameter parsing, buffering and
    /// dispatch (Section III.B "Kernel Launch Overhead"). Charged serially to
    /// the issuing lane.
    pub device_launch_cycles: u64,
    /// Scheduling latency between a kernel leaving the pending pool and its
    /// first block starting.
    pub kernel_dispatch_cycles: u64,
    /// Extra management cost for kernels that overflow the fixed-size pending
    /// pool into the virtualized pool (Section III.B "Kernel Buffering
    /// Overhead").
    pub virtual_pool_penalty_cycles: u64,
    /// DRAM transactions per device-side launch (parameter buffering through
    /// global memory by the device runtime).
    pub launch_dram_transactions: u64,
    /// Extra DRAM transactions for a kernel managed by the virtualized pool.
    pub virtual_pool_dram_transactions: u64,
    /// Fixed issue cost of a warp-wide memory instruction (latency assumed
    /// mostly hidden by multithreading).
    pub mem_base_cycles: u64,
    /// Additional cost per DRAM transaction the access splits into
    /// (uncoalesced accesses replay the instruction per segment).
    pub mem_cycles_per_transaction: u64,
    /// Cost of an arithmetic/logic operation (per `Compute` unit).
    pub compute_cycles_per_op: u64,
    /// Serialized cost of one atomic RMW.
    pub atomic_cycles: u64,
    /// Cost of a `__syncthreads` barrier per participating warp.
    pub syncthreads_cycles: u64,
    /// Cycles to swap a parent block out (and later back in) around a
    /// device-side `cudaDeviceSynchronize` (Section III.B "Synchronization
    /// Overhead").
    pub swap_cycles: u64,
    /// DRAM transactions charged per block swap (state spill + refill).
    pub swap_dram_transactions: u64,
    /// Device-side `malloc`/`free` cost (CUDA default allocator).
    pub alloc_default_cycles: u64,
    /// Halloc-style slab allocator per-op cost.
    pub alloc_halloc_cycles: u64,
    /// Pre-allocated pool bump-pointer per-op cost.
    pub alloc_prealloc_cycles: u64,
    /// Coalescing segment size in 8-byte words (128 bytes on Kepler).
    pub segment_words: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            host_launch_cycles: 6_000,
            device_launch_cycles: 3_000,
            // The grid management unit processes pending launches serially.
            // Launches served from the fixed-size pool are cheap; once the
            // backlog spills into the virtualized pool, per-launch management
            // cost explodes (Section III.B "Kernel Buffering Overhead") —
            // this congestion dependence is what makes basic-dp codes 2-3
            // orders of magnitude slower while consolidated codes, whose
            // queues stay short, dispatch almost for free.
            kernel_dispatch_cycles: 600,
            virtual_pool_penalty_cycles: 12_000,
            launch_dram_transactions: 6,
            virtual_pool_dram_transactions: 16,
            mem_base_cycles: 6,
            mem_cycles_per_transaction: 12,
            compute_cycles_per_op: 1,
            atomic_cycles: 24,
            syncthreads_cycles: 32,
            swap_cycles: 2_500,
            swap_dram_transactions: 128,
            alloc_default_cycles: 12_000,
            alloc_halloc_cycles: 900,
            alloc_prealloc_cycles: 24,
            segment_words: 16, // 16 * 8 B = 128 B segments
        }
    }
}

/// Static description of the simulated device.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    pub name: String,
    pub num_sms: u32,
    pub max_threads_per_sm: u32,
    pub max_blocks_per_sm: u32,
    pub max_warps_per_sm: u32,
    pub max_threads_per_block: u32,
    pub registers_per_sm: u32,
    pub shared_mem_per_sm: u32,
    /// Maximum number of kernels executing concurrently (32 on compute 3.5).
    pub max_concurrent_kernels: u32,
    /// Fixed-size pending-launch pool capacity (2048 by default since CUDA 6;
    /// adjustable via `cudaDeviceSetLimit`, which the ablation bench sweeps).
    pub fixed_pool_capacity: u32,
    /// Maximum device-side nesting depth (24).
    pub max_nesting_depth: u32,
    pub costs: CostModel,
}

impl GpuConfig {
    /// The K20c-like device every experiment in the paper ran on.
    pub fn k20c() -> Self {
        GpuConfig {
            name: "K20c-like".to_string(),
            num_sms: 13,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 16,
            max_warps_per_sm: 64,
            max_threads_per_block: 1024,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 48 * 1024,
            max_concurrent_kernels: 32,
            fixed_pool_capacity: 2048,
            max_nesting_depth: 24,
            costs: CostModel::default(),
        }
    }

    /// A K40-class device (15 SMX): used to check that the consolidation
    /// results are not artifacts of one hardware configuration.
    pub fn k40() -> Self {
        GpuConfig { name: "K40-like".to_string(), num_sms: 15, ..GpuConfig::k20c() }
    }

    /// A Titan-class device (14 SMX GK110B): the "big node" synthetic
    /// profile for fleet what-if sweeps.
    pub fn titan() -> Self {
        GpuConfig { name: "Titan-like".to_string(), num_sms: 14, ..GpuConfig::k20c() }
    }

    /// An embedded Kepler profile (single SMX, half the register file, a
    /// shallow pending pool, and few concurrent kernels): launch congestion
    /// and pool overflow appear at small input sizes, so consolidation
    /// matters *more* here — the interesting low end of a what-if fleet.
    pub fn tk1() -> Self {
        GpuConfig {
            name: "TK1-like".to_string(),
            num_sms: 1,
            registers_per_sm: 32_768,
            max_concurrent_kernels: 4,
            fixed_pool_capacity: 512,
            ..GpuConfig::k20c()
        }
    }

    /// A deliberately tiny device for unit tests: failure modes (pool
    /// overflow, slot exhaustion) trigger with small inputs.
    pub fn tiny() -> Self {
        GpuConfig {
            name: "tiny-test-gpu".to_string(),
            num_sms: 2,
            max_threads_per_sm: 256,
            max_blocks_per_sm: 4,
            max_warps_per_sm: 8,
            max_threads_per_block: 128,
            registers_per_sm: 16_384,
            shared_mem_per_sm: 16 * 1024,
            max_concurrent_kernels: 4,
            fixed_pool_capacity: 8,
            max_nesting_depth: 24,
            costs: CostModel::default(),
        }
    }

    /// Short names of every registered device profile, in canonical order.
    /// Each resolves via [`GpuConfig::by_name`]; all registered profiles
    /// share the default [`CostModel`], so any capture can be replayed on
    /// any of them (`Engine::replay_timing_on`).
    pub fn registry_names() -> &'static [&'static str] {
        &["k20c", "k40", "titan", "tk1", "tiny"]
    }

    /// Look a device profile up by its short registry name
    /// (case-insensitive, surrounding whitespace ignored).
    pub fn by_name(name: &str) -> Option<GpuConfig> {
        match name.trim().to_ascii_lowercase().as_str() {
            "k20c" => Some(GpuConfig::k20c()),
            "k40" => Some(GpuConfig::k40()),
            "titan" => Some(GpuConfig::titan()),
            "tk1" => Some(GpuConfig::tk1()),
            "tiny" => Some(GpuConfig::tiny()),
            _ => None,
        }
    }
}

/// Error from [`parse_fleet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetSpecError {
    /// The spec names no device at all.
    Empty,
    /// A name that is not in the registry.
    Unknown { name: String },
}

impl std::fmt::Display for FleetSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetSpecError::Empty => write!(f, "empty device fleet: name at least one device"),
            FleetSpecError::Unknown { name } => write!(
                f,
                "unknown device `{name}`; known devices: {}",
                GpuConfig::registry_names().join(", ")
            ),
        }
    }
}

impl std::error::Error for FleetSpecError {}

/// Parse a `--devices`-style comma-separated fleet spec (e.g.
/// `"k20c,k40,titan"`) against the device registry. Blank entries are
/// skipped; an entirely empty fleet is rejected.
pub fn parse_fleet(spec: &str) -> Result<Vec<GpuConfig>, FleetSpecError> {
    let mut fleet = Vec::new();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match GpuConfig::by_name(part) {
            Some(g) => fleet.push(g),
            None => return Err(FleetSpecError::Unknown { name: part.to_string() }),
        }
    }
    if fleet.is_empty() {
        return Err(FleetSpecError::Empty);
    }
    Ok(fleet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20c_matches_paper_limits() {
        let g = GpuConfig::k20c();
        assert_eq!(g.max_concurrent_kernels, 32);
        assert_eq!(g.fixed_pool_capacity, 2048);
        assert_eq!(g.max_nesting_depth, 24);
        assert_eq!(g.num_sms, 13);
        assert_eq!(g.max_warps_per_sm, 64);
    }

    #[test]
    fn registry_names_round_trip() {
        for &name in GpuConfig::registry_names() {
            let g = GpuConfig::by_name(name)
                .unwrap_or_else(|| panic!("registered name `{name}` must resolve"));
            // Case and whitespace are forgiven.
            assert_eq!(GpuConfig::by_name(&format!("  {}  ", name.to_uppercase())), Some(g));
        }
        let spec = GpuConfig::registry_names().join(",");
        let fleet = parse_fleet(&spec).unwrap();
        assert_eq!(fleet.len(), GpuConfig::registry_names().len());
        for (g, &name) in fleet.iter().zip(GpuConfig::registry_names()) {
            assert_eq!(Some(g.clone()), GpuConfig::by_name(name));
        }
    }

    #[test]
    fn registry_devices_share_replay_compatible_substrate() {
        // Replay validity: segment durations are baked in at capture time, so
        // every registered profile must share the cost model.
        let base = GpuConfig::k20c();
        for &name in GpuConfig::registry_names() {
            let g = GpuConfig::by_name(name).unwrap();
            assert_eq!(g.costs, base.costs, "{name} cost model diverges");
        }
    }

    #[test]
    fn unknown_device_error_names_the_culprit_and_the_registry() {
        let err = parse_fleet("k20c,gtx9000").unwrap_err();
        assert_eq!(err, FleetSpecError::Unknown { name: "gtx9000".into() });
        let msg = err.to_string();
        assert!(msg.contains("gtx9000"), "{msg}");
        for &name in GpuConfig::registry_names() {
            assert!(msg.contains(name), "error should list `{name}`: {msg}");
        }
    }

    #[test]
    fn empty_fleets_are_rejected() {
        assert_eq!(parse_fleet(""), Err(FleetSpecError::Empty));
        assert_eq!(parse_fleet(" ,  , "), Err(FleetSpecError::Empty));
        // Blank entries between real ones are skipped, not fatal.
        let fleet = parse_fleet("k20c,,k40,").unwrap();
        assert_eq!(fleet.len(), 2);
        assert_eq!(fleet[1].name, "K40-like");
    }

    #[test]
    fn cost_model_orders_allocators() {
        let c = CostModel::default();
        assert!(c.alloc_default_cycles > c.alloc_halloc_cycles);
        assert!(c.alloc_halloc_cycles > c.alloc_prealloc_cycles);
    }
}
