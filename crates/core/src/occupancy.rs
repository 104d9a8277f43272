//! Occupancy calculator and nested-kernel configuration policies.
//!
//! Section IV.E "Kernel Configuration Handling": the CUDA Occupancy
//! Calculator finds a `(B, T)` configuration maximizing single-kernel
//! occupancy, but concurrent kernels launched with dynamic parallelism share
//! the device, so the configuration must be *downgraded* to allow a target
//! Kernel Concurrency (KC): `KC_X = (ceil(B / X), T)`. The paper's policy:
//! `KC_1` for grid-level, `KC_16` for block-level, `KC_32` for warp-level
//! consolidation, which Figure 6 shows reaches ~97% of exhaustive search.
//!
//! A consolidated kernel has one [`LaunchShape`], resolved once inside
//! [`crate::consolidate`]: the directive's `blocks`/`threads` clauses when it
//! has both, else a [`ConfigPolicy`] (its argument, else the paper's default
//! for the granularity). [`LaunchShape::exprs`] is the one rule for
//! launching it over N items, from the device and, folded at the seeded
//! count, from the host.

use dpcons_ir::ast::Expr;
use dpcons_ir::dsl::{add, div, i, min_};
use dpcons_sim::{GpuConfig, WARP_SIZE};

use crate::analysis::{const_eval, ChildClass, LaunchInfo};
use crate::directive::Granularity;

/// Resource requirements of a kernel, as used by the occupancy calculator
/// and the SM residency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelResources {
    pub regs_per_thread: u32,
    pub shared_bytes: u32,
}

impl Default for KernelResources {
    fn default() -> Self {
        KernelResources { regs_per_thread: 32, shared_bytes: 0 }
    }
}

/// Maximum resident blocks per SM for a given block size and resource usage.
pub fn max_blocks_per_sm(gpu: &GpuConfig, threads_per_block: u32, res: KernelResources) -> u32 {
    if threads_per_block == 0 || threads_per_block > gpu.max_threads_per_block {
        return 0;
    }
    let threads = threads_per_block.div_ceil(WARP_SIZE) * WARP_SIZE;
    let by_blocks = gpu.max_blocks_per_sm;
    let by_threads = gpu.max_threads_per_sm / threads;
    let by_regs =
        gpu.registers_per_sm.checked_div(res.regs_per_thread * threads).unwrap_or(u32::MAX);
    let by_shared = gpu.shared_mem_per_sm.checked_div(res.shared_bytes).unwrap_or(u32::MAX);
    by_blocks.min(by_threads).min(by_regs).min(by_shared)
}

/// Theoretical occupancy (active warps / max warps per SM) for a block size.
pub fn occupancy(gpu: &GpuConfig, threads_per_block: u32, res: KernelResources) -> f64 {
    let blocks = max_blocks_per_sm(gpu, threads_per_block, res);
    let warps = threads_per_block.div_ceil(WARP_SIZE);
    (blocks * warps) as f64 / gpu.max_warps_per_sm as f64
}

/// Block sizes the calculator searches (multiples used in practice).
const CANDIDATE_BLOCK_SIZES: [u32; 8] = [64, 128, 192, 256, 384, 512, 768, 1024];

/// The CUDA-Occupancy-Calculator-style single-kernel optimum: the `(B, T)`
/// filling every SM at the occupancy-maximizing block size.
pub fn best_single_kernel_config(gpu: &GpuConfig, res: KernelResources) -> (u32, u32) {
    let mut best = (gpu.num_sms, 64u32);
    let mut best_occ = -1.0f64;
    for &t in &CANDIDATE_BLOCK_SIZES {
        if t > gpu.max_threads_per_block {
            continue;
        }
        let occ = occupancy(gpu, t, res);
        // Prefer higher occupancy; tie-break toward smaller blocks (more
        // scheduling freedom for the consolidated fetch loops).
        if occ > best_occ + 1e-12 {
            best_occ = occ;
            best = (max_blocks_per_sm(gpu, t, res) * gpu.num_sms, t);
        }
    }
    (best.0.max(1), best.1)
}

/// Configuration policy for a consolidated child kernel whose directive
/// has no `blocks`/`threads` clauses (those clauses are the only explicit
/// shape; [`crate::consolidate`] resolves both into one [`LaunchShape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigPolicy {
    /// `KC_X`: downgrade the single-kernel optimum to allow X concurrent
    /// kernels: `(ceil(B/X), T)`.
    Kc(u32),
    /// One block (or thread, for thread-mapped children) per buffered item;
    /// the launch configuration depends on the runtime buffer count.
    OneToOne,
}

impl ConfigPolicy {
    /// The paper's default policy per consolidation granularity.
    pub fn default_for(g: Granularity) -> ConfigPolicy {
        match g {
            Granularity::Grid => ConfigPolicy::Kc(1),
            Granularity::Block => ConfigPolicy::Kc(16),
            Granularity::Warp => ConfigPolicy::Kc(32),
        }
    }

    /// The shape this policy gives the consolidated form of `launch`'s child
    /// on `gpu`. 1-1 keeps a static child block size, else 256 threads.
    pub(crate) fn shape(
        &self,
        gpu: &GpuConfig,
        res: KernelResources,
        launch: &LaunchInfo,
    ) -> LaunchShape {
        match (self, launch.class) {
            (ConfigPolicy::Kc(x), _) => {
                let (b, t) = best_single_kernel_config(gpu, res);
                LaunchShape::Fixed(b.div_ceil((*x).max(1)).max(1), t)
            }
            (ConfigPolicy::OneToOne, ChildClass::SoloThread) => LaunchShape::ThreadPerItem,
            (ConfigPolicy::OneToOne, _) => LaunchShape::BlockPerItem(
                const_eval(&launch.block).and_then(|t| u32::try_from(t).ok()).unwrap_or(256),
            ),
        }
    }

    pub fn label(&self) -> String {
        match self {
            ConfigPolicy::Kc(x) => format!("KC_{x}"),
            ConfigPolicy::OneToOne => "1-1".to_string(),
        }
    }
}

/// The consolidated kernel's launch shape, resolved once by
/// [`crate::consolidate`]: every launch of it, from the device or (for
/// recursion) from the host, takes its `<<<grid, block>>>` from
/// [`LaunchShape::exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchShape {
    /// `<<<blocks, threads>>>` whatever the item count: the directive's
    /// `blocks`/`threads` clauses or a `KC_X` policy.
    Fixed(u32, u32),
    /// 1-1 for a thread-mapped child: one thread per item.
    ThreadPerItem,
    /// 1-1 for a block-mapped child: one block of this many threads per item.
    BlockPerItem(u32),
}

impl LaunchShape {
    /// `(grid, block)` expressions of a launch over `items` buffered items.
    pub fn exprs(&self, items: Expr) -> (Expr, Expr) {
        match *self {
            LaunchShape::Fixed(b, t) => (i(b as i64), i(t as i64)),
            // <<<ceil(items/1024), min(items,1024)>>>
            LaunchShape::ThreadPerItem => {
                (div(add(items.clone(), i(1023)), i(1024)), min_(items, i(1024)))
            }
            LaunchShape::BlockPerItem(t) => (items, i(t as i64)),
        }
    }

    /// [`LaunchShape::exprs`] folded at a constant item count: the host's
    /// launch of a recursive kernel over its seeded items.
    pub fn at(&self, items: u32) -> (u32, u32) {
        let (grid, block) = self.exprs(i(items as i64));
        let fold = |e: &Expr| {
            const_eval(e).and_then(|x| u32::try_from(x).ok()).expect("a constant count folds")
        };
        (fold(&grid), fold(&block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k20c_occupancy_hand_checked() {
        let g = GpuConfig::k20c();
        let res = KernelResources::default();
        // 256 threads, 32 regs: thread-limited to 2048/256 = 8 blocks
        // (registers: 65536/(32*256) = 8 too); 8 blocks * 8 warps = 64 warps
        // = full occupancy.
        assert_eq!(max_blocks_per_sm(&g, 256, res), 8);
        assert!((occupancy(&g, 256, res) - 1.0).abs() < 1e-12);
        // 64 threads: capped by the 16-block limit -> 16*2 = 32 warps = 50%.
        assert_eq!(max_blocks_per_sm(&g, 64, res), 16);
        assert!((occupancy(&g, 64, res) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn register_pressure_limits_blocks() {
        let g = GpuConfig::k20c();
        let heavy = KernelResources { regs_per_thread: 128, shared_bytes: 0 };
        // 65536 / (128 * 256) = 2 blocks.
        assert_eq!(max_blocks_per_sm(&g, 256, heavy), 2);
        assert!(occupancy(&g, 256, heavy) < 0.5);
    }

    #[test]
    fn shared_memory_limits_blocks() {
        let g = GpuConfig::k20c();
        let shared = KernelResources { regs_per_thread: 16, shared_bytes: 24 * 1024 };
        assert_eq!(max_blocks_per_sm(&g, 128, shared), 2);
    }

    #[test]
    fn best_config_fills_device() {
        let g = GpuConfig::k20c();
        let (b, t) = best_single_kernel_config(&g, KernelResources::default());
        // Full occupancy achievable: B covers all SMs at max residency.
        assert!((occupancy(&g, t, KernelResources::default()) - 1.0).abs() < 1e-12);
        assert_eq!(b, max_blocks_per_sm(&g, t, KernelResources::default()) * g.num_sms);
    }

    fn launch_of(class: ChildClass, block: Expr) -> LaunchInfo {
        LaunchInfo {
            target: "child".into(),
            grid: i(1),
            block,
            args: Vec::new(),
            top_level_index: 0,
            class,
            buffered: Vec::new(),
            passthrough: Vec::new(),
        }
    }

    #[test]
    fn kc_downgrades_block_count() {
        let g = GpuConfig::k20c();
        let launch = launch_of(ChildClass::SoloBlock, i(32));
        let kc = |x| match ConfigPolicy::Kc(x).shape(&g, KernelResources::default(), &launch) {
            LaunchShape::Fixed(b, t) => (b, t),
            other => panic!("KC_{x} resolved to {other:?}"),
        };
        let ((b1, t1), (b16, t16), (b32, t32)) = (kc(1), kc(16), kc(32));
        assert_eq!(t1, t16);
        assert_eq!(t16, t32);
        assert!(b1 >= 16 * b16 - 16 && b1 <= 16 * b16);
        assert!(b32 >= 1 && b32 <= b16);
        assert_eq!(b16, b1.div_ceil(16));
    }

    #[test]
    fn default_policies_match_paper() {
        assert_eq!(ConfigPolicy::default_for(Granularity::Grid), ConfigPolicy::Kc(1));
        assert_eq!(ConfigPolicy::default_for(Granularity::Block), ConfigPolicy::Kc(16));
        assert_eq!(ConfigPolicy::default_for(Granularity::Warp), ConfigPolicy::Kc(32));
    }

    /// 1-1 maps an item to a thread of a thread-mapped child, else to a
    /// block of the child's static size (256 when it is not static).
    #[test]
    fn one_to_one_follows_the_child_launch() {
        let g = GpuConfig::k20c();
        let shape = |class, block| {
            ConfigPolicy::OneToOne.shape(&g, KernelResources::default(), &launch_of(class, block))
        };
        assert_eq!(shape(ChildClass::SoloThread, i(1)), LaunchShape::ThreadPerItem);
        assert_eq!(shape(ChildClass::SoloBlock, i(32)), LaunchShape::BlockPerItem(32));
        let deg = dpcons_ir::dsl::min_(dpcons_ir::dsl::v("deg"), i(256));
        assert_eq!(shape(ChildClass::MultiBlock, deg), LaunchShape::BlockPerItem(256));
    }

    /// The host's count-folded shape is the device launch rule at that count.
    #[test]
    fn launch_shape_at_a_count_folds_its_exprs() {
        assert_eq!(LaunchShape::Fixed(7, 96).at(1), (7, 96));
        assert_eq!(LaunchShape::BlockPerItem(32).at(1), (1, 32));
        assert_eq!(LaunchShape::ThreadPerItem.at(1), (1, 1));
        assert_eq!(LaunchShape::ThreadPerItem.at(3000), (3, 1024));
    }

    #[test]
    fn oversized_blocks_rejected() {
        let g = GpuConfig::k20c();
        assert_eq!(max_blocks_per_sm(&g, 2048, KernelResources::default()), 0);
        assert_eq!(max_blocks_per_sm(&g, 0, KernelResources::default()), 0);
    }
}
