//! Kernel interface between the simulator and kernel implementations.
//!
//! A kernel's *functional* behaviour is supplied by a [`KernelBody`]: the
//! engine calls [`KernelBody::run_block`] once per block, in deterministic
//! block order. The body executes the block's threads (however it likes —
//! the `dpcons-ir` crate provides a warp-lockstep SIMT interpreter), mutates
//! global memory, and reports per-segment metrics that the timing engine
//! later replays against hardware resource limits. The returned
//! [`BlockResult`] is plain owned data: the engine moves it into the
//! launch's `ExecRecord`, and it lives exactly as long as that record.
//!
//! A block's execution is divided into **segments** at device-side
//! `cudaDeviceSynchronize` points: the timing engine must be able to swap the
//! block out between segments while its child kernels run (Section III.B
//! "Synchronization Overhead").

use std::sync::Arc;

use crate::alloc::DeviceHeap;
use crate::config::CostModel;
use crate::mem::GlobalMem;
use crate::SimError;

/// Index of a registered kernel within an [`crate::engine::Engine`].
pub type KernelId = usize;

/// A kernel launch request: either from the host or from a device thread.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchSpec {
    pub kernel: KernelId,
    /// Number of thread blocks.
    pub grid: u32,
    /// Threads per block.
    pub block: u32,
    /// Scalar arguments (array handles are passed as their `ArrayId` value).
    /// Shared, immutable: a launch spec travels from the issuing warp's
    /// launch buffer into the captured segment *and* the functional BFS
    /// queue, so the argument vector is interned behind an `Arc` once at
    /// creation and every subsequent clone is a refcount bump instead of a
    /// heap copy (equality and `Debug` still see the values).
    pub args: Arc<[i64]>,
}

impl LaunchSpec {
    pub fn new(kernel: KernelId, grid: u32, block: u32, args: Vec<i64>) -> Self {
        LaunchSpec { kernel, grid, block, args: args.into() }
    }

    /// Build a spec around an already-interned argument vector (the executors
    /// use this to share one allocation across clone sites).
    pub fn with_shared_args(kernel: KernelId, grid: u32, block: u32, args: Arc<[i64]>) -> Self {
        LaunchSpec { kernel, grid, block, args }
    }
}

/// Metrics for one segment of one block (between `cudaDeviceSynchronize`
/// boundaries), produced by the functional phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentResult {
    /// Block-level duration in cycles: per-`__syncthreads`-phase maximum over
    /// the block's warps, summed over phases.
    pub duration: u64,
    /// Sum of per-warp cycle counts (the denominator basis for warp
    /// execution efficiency and the occupancy integration).
    pub warp_cycles_sum: u64,
    /// Sum over warps of per-lane *active* cycles (numerator of warp
    /// execution efficiency: "average active threads per warp").
    pub active_thread_cycles: u64,
    /// `warp_cycles_sum * warp_size`: the efficiency denominator.
    pub thread_cycles_possible: u64,
    /// Coalesced DRAM transactions issued by this segment.
    pub dram_transactions: u64,
    /// Device-side child launches issued during this segment, in issue order.
    pub launches: Vec<LaunchSpec>,
    /// True when the segment ended at a `cudaDeviceSynchronize`: the block
    /// must wait for all children it has launched so far before continuing.
    pub ends_with_device_sync: bool,
}

/// Functional result of one block: one or more segments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockResult {
    pub segments: Vec<SegmentResult>,
}

impl BlockResult {
    /// Convenience for single-segment blocks (no device-side sync).
    pub fn single(seg: SegmentResult) -> Self {
        BlockResult { segments: vec![seg] }
    }
}

/// Deterministic step budget for the functional phase.
///
/// A "step" is one unit of forward progress a kernel body charges via
/// [`FuelMeter::spend`] — the IR interpreter charges one per warp loop
/// iteration, and the engine charges one per block executed. An unlimited
/// meter (the default) costs a single branch per charge; a limited meter
/// turns a hung or exploding configuration into a deterministic
/// [`SimError::FuelExhausted`] at the exact same step on every machine —
/// the watchdog primitive `dpcons-tune` uses to bound candidate runs
/// without machine-dependent wall-clock timeouts.
#[derive(Debug, Clone)]
pub struct FuelMeter {
    limit: Option<u64>,
    remaining: u64,
}

impl FuelMeter {
    /// A meter that never exhausts (the engine default).
    pub fn unlimited() -> FuelMeter {
        FuelMeter { limit: None, remaining: 0 }
    }

    /// A meter with `limit` steps of fuel; `None` means unlimited.
    pub fn new(limit: Option<u64>) -> FuelMeter {
        FuelMeter { limit, remaining: limit.unwrap_or(0) }
    }

    pub fn limit(&self) -> Option<u64> {
        self.limit
    }

    /// Steps left, `None` when unlimited.
    pub fn remaining(&self) -> Option<u64> {
        self.limit.map(|_| self.remaining)
    }

    /// Charge `n` steps of progress.
    #[inline]
    pub fn spend(&mut self, n: u64) -> Result<(), SimError> {
        match self.limit {
            None => Ok(()),
            Some(limit) => {
                if self.remaining < n {
                    self.remaining = 0;
                    Err(SimError::FuelExhausted { limit })
                } else {
                    self.remaining -= n;
                    Ok(())
                }
            }
        }
    }
}

impl Default for FuelMeter {
    fn default() -> Self {
        FuelMeter::unlimited()
    }
}

/// The set of coalescing segments one block has touched.
///
/// Segment ids enter it once per warp memory access — the functional
/// phase's hottest path outside the VM — and it is cleared once per block,
/// so both operations are made cheap here:
///
/// * an open-addressing table of `(segment, epoch)` slots, where a slot is
///   live iff its epoch equals the set's; `clear` bumps the epoch instead of
///   touching the table (only a `u32` wrap refills it);
/// * an insert is one Fibonacci-hash multiply plus linear-probe compares;
/// * the table is a power of two kept at load ≤ 1/2, so it grows to the
///   smallest power of two ≥ 2× the largest block's distinct segments and
///   never shrinks.
///
/// A table indexed directly by segment id was tried and rejected: the
/// 64 M-word device heap spans 4 M+ segments, so it cost RSS and time.
#[derive(Debug, Clone)]
pub struct SegSet {
    slots: Vec<(u64, u32)>,
    epoch: u32,
    len: usize,
    /// `64 - log2(slots.len())`: the Fibonacci hash keeps the top bits.
    shift: u32,
}

impl Default for SegSet {
    fn default() -> Self {
        SegSet::with_capacity_log2(4)
    }
}

impl SegSet {
    fn with_capacity_log2(bits: u32) -> Self {
        // Slots start at epoch 0 and the set at 1, so every slot is free.
        SegSet { slots: vec![(0, 0); 1 << bits], epoch: 1, len: 0, shift: 64 - bits }
    }

    /// Forget every segment: O(1) except once every `u32::MAX` clears.
    #[inline]
    pub fn clear(&mut self) {
        self.len = 0;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // A stale stamp must never equal a future epoch.
            self.slots.fill((0, 0));
            self.epoch = 1;
        }
    }

    /// Add `seg`; `true` if it was not yet in the set.
    #[inline]
    pub fn insert(&mut self, seg: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = (seg.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            let (s, e) = self.slots[i];
            if e != self.epoch {
                self.slots[i] = (seg, self.epoch);
                self.len += 1;
                if self.len * 2 > self.slots.len() {
                    self.grow();
                }
                return true;
            }
            if s == seg {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let bits = 64 - self.shift + 1;
        let old = std::mem::replace(self, SegSet::with_capacity_log2(bits));
        for (s, e) in old.slots {
            if e == old.epoch {
                self.insert(s);
            }
        }
    }
}

/// Execution context handed to [`KernelBody::run_block`].
pub struct BlockCtx<'a> {
    pub block_id: u32,
    pub grid_dim: u32,
    pub block_dim: u32,
    /// Dynamic-parallelism nesting depth of this kernel (0 = host-launched).
    pub depth: u32,
    pub args: &'a [i64],
    pub warp_size: u32,
    pub mem: &'a mut GlobalMem,
    pub heap: &'a mut DeviceHeap,
    pub cost: &'a CostModel,
    /// Coalescing segments already fetched by this block: re-accesses hit
    /// cache instead of DRAM. Larger (consolidated) blocks reuse more —
    /// the caching effect Section V.D credits for the DRAM reduction. The
    /// engine owns one [`SegSet`] per functional phase and clears it (an
    /// epoch bump) before every block, so it arrives empty.
    pub touched_segments: &'a mut SegSet,
    /// Shared functional step budget ([`crate::engine::Engine::fuel`]); kernel
    /// bodies charge loop iterations against it so runaway candidates fault
    /// deterministically instead of spinning.
    pub fuel: &'a mut FuelMeter,
}

/// The functional behaviour of a kernel.
pub trait KernelBody: Send + Sync {
    fn name(&self) -> &str;

    /// Execute one block: mutate memory, return per-segment metrics.
    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<BlockResult, SimError>;

    /// Registers per thread, used for SM residency and occupancy.
    fn regs_per_thread(&self) -> u32 {
        32
    }

    /// Static shared memory per block in bytes.
    fn shared_bytes(&self) -> u32 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl KernelBody for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn run_block(&self, _ctx: &mut BlockCtx<'_>) -> Result<BlockResult, SimError> {
            Ok(BlockResult::single(SegmentResult { duration: 1, ..Default::default() }))
        }
    }

    #[test]
    fn default_resource_metadata() {
        let k = Nop;
        assert_eq!(k.regs_per_thread(), 32);
        assert_eq!(k.shared_bytes(), 0);
    }

    fn capacity(s: &SegSet) -> usize {
        s.slots.len()
    }

    #[test]
    fn seg_set_matches_hash_set_across_clears_and_growth() {
        let mut ours = SegSet::default();
        let mut model = std::collections::HashSet::new();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for block in 0..200u64 {
            ours.clear();
            model.clear();
            // Block sizes up to ~3k inserts force several doublings; ids
            // from a small range repeat, ids near the heap's top collide in
            // the low bits.
            for _ in 0..(block * 37) % 3000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let seg = match x % 3 {
                    0 => x % 512,
                    1 => (1 << 22) + (x % 4096) * 64,
                    _ => x >> 8,
                };
                assert_eq!(ours.insert(seg), model.insert(seg), "block {block} seg {seg}");
                assert_eq!(ours.len, model.len());
            }
        }
        assert!(capacity(&ours) > 16, "the sequence must force growth");
    }

    #[test]
    fn seg_set_epoch_wrap_forgets_every_old_segment() {
        let mut s = SegSet { epoch: u32::MAX - 1, ..SegSet::default() };
        assert!(s.insert(7));
        s.clear(); // epoch u32::MAX
        assert!(s.insert(7) && s.insert(8));
        assert!(!s.insert(8));
        s.clear(); // wraps: the table is refilled, epoch restarts at 1
        assert_eq!(s.epoch, 1);
        assert_eq!(s.len, 0);
        assert!(s.insert(8), "a segment from before the wrap must be gone");
        assert!(s.insert(7));
        for _ in 0..u8::MAX {
            s.clear();
            assert!(s.insert(7), "stale stamps must never look live");
        }
    }

    #[test]
    fn seg_set_capacity_tracks_the_largest_block_and_never_shrinks() {
        let mut s = SegSet::default();
        for seg in 0..4096u64 {
            s.insert(seg * 3);
        }
        // Load ≤ 1/2 on a power of two: exactly 2× a power-of-two count.
        assert_eq!(capacity(&s), 2 * 4096);
        for round in 0..100u64 {
            s.clear();
            for seg in 0..50 {
                s.insert(round * 1000 + seg);
            }
            assert_eq!(capacity(&s), 2 * 4096);
        }
        // In general: the smallest power of two ≥ 2× the largest count.
        let mut s = SegSet::default();
        for seg in 0..3000u64 {
            s.insert(seg);
        }
        s.clear();
        s.insert(1);
        assert_eq!(capacity(&s), (2 * 3000usize).next_power_of_two());
    }
}
