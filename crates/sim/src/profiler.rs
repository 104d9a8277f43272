//! Profiling counters mirroring the metrics the paper collects with the
//! NVIDIA Visual Profiler (Section V.D): warp execution efficiency, achieved
//! SM occupancy, DRAM transactions, and kernel launch counts, plus
//! DP-runtime internals (pending-pool pressure, parent swaps).

/// Aggregated metrics for one host launch tree (or a merged sequence).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// End-to-end simulated cycles.
    pub total_cycles: u64,
    pub host_launches: u64,
    /// Device-side (nested) kernel launches.
    pub device_launches: u64,
    /// Total kernels executed (host + device).
    pub kernels_executed: u64,
    /// "Ratio of the average active threads per warp to the maximum number of
    /// threads per warp" (CUDA profiler definition quoted in the paper),
    /// cycle-weighted.
    pub warp_exec_efficiency: f64,
    /// "Ratio of average active warps over maximum warps supported per SM",
    /// integrated over the run.
    pub achieved_occupancy: f64,
    /// Coalesced DRAM transactions (reads + writes + swap traffic).
    pub dram_transactions: u64,
    /// Peak occupancy of the fixed-size pending pool (clamped to capacity).
    pub fixed_pool_peak: u64,
    /// Peak total pending kernels (fixed + virtualized pools).
    pub pool_peak: u64,
    /// Kernels that overflowed into the virtualized pool.
    pub virtual_pool_kernels: u64,
    /// Parent-block swap-outs around device-side synchronization.
    pub swaps: u64,
    /// Deepest dynamic-parallelism nesting level reached.
    pub max_depth: u32,
    /// Total executed warp-cycles (work volume; basis of the efficiency
    /// weighting when merging reports).
    pub warp_cycles: u64,
    /// Device-side allocator operations and their cycle cost.
    pub alloc_ops: u64,
    pub alloc_cycles: u64,
}

impl ProfileReport {
    /// Merge a subsequent host launch into this report. Host launches execute
    /// back to back (same stream), so cycle counts add; ratio metrics are
    /// re-weighted by work volume (warp-cycles for efficiency, total cycles
    /// for occupancy).
    pub fn merge(&mut self, other: &ProfileReport) {
        let self_w = self.warp_cycles as f64;
        let other_w = other.warp_cycles as f64;
        if self_w + other_w > 0.0 {
            self.warp_exec_efficiency = (self.warp_exec_efficiency * self_w
                + other.warp_exec_efficiency * other_w)
                / (self_w + other_w);
        }
        let self_t = self.total_cycles as f64;
        let other_t = other.total_cycles as f64;
        if self_t + other_t > 0.0 {
            self.achieved_occupancy = (self.achieved_occupancy * self_t
                + other.achieved_occupancy * other_t)
                / (self_t + other_t);
        }
        self.total_cycles += other.total_cycles;
        self.host_launches += other.host_launches;
        self.device_launches += other.device_launches;
        self.kernels_executed += other.kernels_executed;
        self.dram_transactions += other.dram_transactions;
        self.fixed_pool_peak = self.fixed_pool_peak.max(other.fixed_pool_peak);
        self.pool_peak = self.pool_peak.max(other.pool_peak);
        self.virtual_pool_kernels += other.virtual_pool_kernels;
        self.swaps += other.swaps;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.warp_cycles += other.warp_cycles;
        // Allocator work accumulates across back-to-back launches like every
        // other additive counter. Per-launch reports carry the launch's own
        // allocator delta (not the heap's running total), so summing is exact.
        self.alloc_ops += other.alloc_ops;
        self.alloc_cycles += other.alloc_cycles;
    }

    /// All kernel launches (host + device).
    pub fn total_launches(&self) -> u64 {
        self.host_launches + self.device_launches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_counts_and_weights_ratios() {
        let mut a = ProfileReport {
            total_cycles: 100,
            warp_cycles: 100,
            warp_exec_efficiency: 0.5,
            achieved_occupancy: 0.2,
            device_launches: 3,
            host_launches: 1,
            kernels_executed: 4,
            dram_transactions: 10,
            swaps: 1,
            max_depth: 2,
            ..Default::default()
        };
        let b = ProfileReport {
            total_cycles: 300,
            warp_cycles: 300,
            warp_exec_efficiency: 0.9,
            achieved_occupancy: 0.6,
            device_launches: 5,
            host_launches: 1,
            kernels_executed: 6,
            dram_transactions: 20,
            swaps: 0,
            max_depth: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total_cycles, 400);
        assert_eq!(a.device_launches, 8);
        assert_eq!(a.host_launches, 2);
        assert_eq!(a.kernels_executed, 10);
        assert_eq!(a.dram_transactions, 30);
        assert_eq!(a.swaps, 1);
        assert_eq!(a.max_depth, 2);
        assert!((a.warp_exec_efficiency - 0.8).abs() < 1e-12);
        assert!((a.achieved_occupancy - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates_allocator_stats() {
        // Regression: alloc_ops/alloc_cycles used to merge with `max`, which
        // under-counted allocator work across back-to-back host launches.
        let mut a = ProfileReport { alloc_ops: 4, alloc_cycles: 400, ..Default::default() };
        let b = ProfileReport { alloc_ops: 3, alloc_cycles: 120, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.alloc_ops, 7);
        assert_eq!(a.alloc_cycles, 520);
    }

    #[test]
    fn merge_handles_empty_reports() {
        let mut a = ProfileReport::default();
        let b = ProfileReport::default();
        a.merge(&b);
        assert_eq!(a.total_cycles, 0);
        assert_eq!(a.warp_exec_efficiency, 0.0);
    }
}
