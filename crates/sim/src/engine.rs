//! Two-phase execution engine.
//!
//! **Phase A (functional)** executes the kernel-launch DAG deterministically:
//! the root kernel's blocks run in order, device-side launches are queued
//! breadth-first, and every kernel execution is captured as an [`ExecRecord`]
//! holding per-block, per-segment metrics.
//!
//! **Phase B (timing)** replays the recorded DAG against the device's
//! resource limits as a discrete-event simulation: SM thread/block/register
//! slots, the concurrent-kernel limit (32), the fixed + virtualized pending
//! pools, dispatch latency, and parent-block swapping around device-side
//! `cudaDeviceSynchronize`. This phase produces the wall-clock cycle count
//! and the achieved-occupancy profile.
//!
//! The split keeps functional results bit-deterministic (so every compiler
//! transformation can be checked for exact output equivalence) while the
//! timing model reproduces the contention phenomena the paper analyses.
//!
//! Every host launch takes one path, [`Engine::launch_traced`]: capture,
//! replay on this engine's device, and the launch's allocator delta. The
//! DAG it returns is a plain owned `Vec<ExecRecord>` that the caller keeps
//! (capture mode, for re-timing on other devices) or drops
//! ([`Engine::launch`]). No record buffer outlives its DAG. What is reused
//! is the functional phase's [`crate::kernel::SegSet`], across the blocks of
//! one capture, and whatever per-thread scratch a kernel body keeps across
//! captures (the IR's VM keeps its register file and warp traces there).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, OnceLock};

use crate::alloc::{AllocKind, DeviceHeap};
use crate::config::GpuConfig;
use crate::kernel::{BlockCtx, BlockResult, FuelMeter, KernelBody, KernelId, LaunchSpec};
use crate::mem::GlobalMem;
use crate::profiler::ProfileReport;
use crate::SimError;
use dpcons_obs as obs;

/// Process-wide count of kernel executions performed by the **functional**
/// phase, across every [`Engine`] ever created in this process. Backed by
/// the `sim.functional_execs` counter in the `dpcons-obs` registry; cached
/// here so the hot functional loop pays one striped atomic add, not a
/// registry lookup.
fn functional_execs_counter() -> &'static obs::Counter {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("sim.functional_execs"))
}

/// Counter of timing-only replays (`sim.replays`), cached like the above.
fn replays_counter() -> &'static obs::Counter {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("sim.replays"))
}

/// Total functional kernel executions so far in this process. Timing-only
/// replays ([`Engine::replay_timing_on`]) never advance this counter, so
/// tests can prove that what-if re-timing across a device fleet adds no
/// functional work.
pub fn functional_execs_total() -> u64 {
    functional_execs_counter().get()
}

/// One kernel execution captured by the functional phase.
#[derive(Debug, PartialEq)]
pub struct ExecRecord {
    pub spec: LaunchSpec,
    pub depth: u32,
    /// `(record, block, segment)` of the launch site, `None` for host launches.
    pub parent: Option<(usize, u32, usize)>,
    pub blocks: Vec<BlockResult>,
    pub regs_per_thread: u32,
    pub shared_bytes: u32,
}

/// The simulated device: global memory, the device heap, registered kernels.
pub struct Engine {
    pub gpu: GpuConfig,
    pub mem: GlobalMem,
    pub heap: DeviceHeap,
    kernels: Vec<Arc<dyn KernelBody>>,
    /// Safety valve against runaway recursion in the functional phase.
    pub max_kernel_execs: usize,
    /// Functional step budget shared by every launch on this engine (one
    /// step per block plus one per warp loop iteration in the IR
    /// interpreter). Unlimited by default; `dpcons-tune` installs a limited
    /// meter per candidate session so pathological knob combinations fault
    /// with [`SimError::FuelExhausted`] instead of hanging the sweep.
    pub fuel: FuelMeter,
}

impl Engine {
    /// Create an engine with a device heap of `heap_words` words managed by
    /// the chosen allocator.
    pub fn new(gpu: GpuConfig, alloc: AllocKind, heap_words: u64) -> Self {
        let mut mem = GlobalMem::new();
        let heap = DeviceHeap::new(alloc, heap_words, &mut mem);
        Engine {
            gpu,
            mem,
            heap,
            kernels: Vec::new(),
            max_kernel_execs: 20_000_000,
            fuel: FuelMeter::unlimited(),
        }
    }

    pub fn register(&mut self, k: Arc<dyn KernelBody>) -> KernelId {
        let id = self.kernels.len();
        self.kernels.push(k);
        id
    }

    pub fn kernel_name(&self, id: KernelId) -> Option<&str> {
        self.kernels.get(id).map(|k| k.name())
    }

    /// Launch a kernel from the host and run the whole dynamic-parallelism
    /// DAG to completion. Returns the profile for this launch tree.
    pub fn launch(&mut self, spec: LaunchSpec) -> Result<ProfileReport, SimError> {
        self.launch_traced(spec).map(|(report, _)| report)
    }

    /// [`Engine::launch`], also returning the captured launch DAG: keep it to
    /// re-time the launch on another device ([`Engine::replay_timing_on`]) or
    /// summarize it ([`crate::trace::summarize`]), or drop it.
    ///
    /// This is the one place a host launch is priced. The report carries the
    /// allocator work of *this* launch (the delta over the heap's cumulative
    /// stats), so back-to-back launches merge additively in
    /// [`ProfileReport::merge`] instead of each carrying the running total.
    pub fn launch_traced(
        &mut self,
        spec: LaunchSpec,
    ) -> Result<(ProfileReport, Vec<ExecRecord>), SimError> {
        let allocs_before = self.heap.stats.allocs;
        let alloc_cycles_before = self.heap.stats.alloc_cycles;
        let records = self.capture(spec)?;
        let mut report = self.replay_timing(&records);
        report.alloc_ops = self.heap.stats.allocs - allocs_before;
        report.alloc_cycles = self.heap.stats.alloc_cycles - alloc_cycles_before;
        Ok((report, records))
    }

    /// Run only the **functional phase**: execute the launch DAG
    /// deterministically, mutating device memory, and return the captured
    /// [`ExecRecord`]s without timing them.
    fn capture(&mut self, spec: LaunchSpec) -> Result<Vec<ExecRecord>, SimError> {
        let _span = obs::span("sim.capture");
        self.functional_phase(spec)
    }

    /// Timing-only replay of a captured launch DAG on this engine's device.
    /// Launch counters are derived from the records; allocator statistics
    /// are not filled in (they belong to the capture).
    fn replay_timing(&self, records: &[ExecRecord]) -> ProfileReport {
        Self::replay_timing_on(&self.gpu, records)
    }

    /// Replay captured records against an arbitrary device description.
    ///
    /// Valid when `gpu` shares the capture device's [`crate::CostModel`] and
    /// warp size: segment durations are baked into the records at capture
    /// time, while structural resources (SM count, residency limits,
    /// concurrency, pending pools) are applied here. This is what lets a
    /// K20c-captured run be re-timed on a K40-like device for free — the
    /// `dpcons-tune` fleet sweep prices every candidate on a whole device
    /// fleet from one capture this way.
    ///
    /// The returned report covers timing-derived metrics only. The allocator
    /// statistics (`alloc_ops`, `alloc_cycles`) are **not** populated on
    /// replay — they stay zero, because they are functional facts of the
    /// capture, owned by the capture engine's [`crate::DeviceHeap`]
    /// (`Engine::launch`/`launch_traced` fill them from `heap.stats`;
    /// `dpcons_apps::CaptureSet::replay_on` re-attaches the captured values).
    pub fn replay_timing_on(gpu: &GpuConfig, records: &[ExecRecord]) -> ProfileReport {
        let _span = obs::span_n("sim.replay", records.len() as u64);
        replays_counter().inc();
        let mut report = TimingSim::new(gpu, records).run();
        if !records.is_empty() {
            report.host_launches = 1;
            report.device_launches = records.len() as u64 - 1;
            report.kernels_executed = records.len() as u64;
        }
        report
    }

    // ---------------------------------------------------------- Phase A ----

    fn functional_phase(&mut self, root: LaunchSpec) -> Result<Vec<ExecRecord>, SimError> {
        self.validate_spec(&root, 0)?;
        let mut queue: VecDeque<(LaunchSpec, u32, Option<(usize, u32, usize)>)> = VecDeque::new();
        queue.push_back((root, 0, None));

        // One scratch set reused across every block of every kernel in the
        // DAG: clearing it per block is an epoch bump and its table keeps
        // the largest block's capacity, so the hot loop never reallocates.
        let mut touched = crate::kernel::SegSet::default();
        let mut records = Vec::new();
        while let Some((spec, depth, parent)) = queue.pop_front() {
            if records.len() >= self.max_kernel_execs {
                return Err(SimError::KernelExecLimit { limit: self.max_kernel_execs });
            }
            functional_execs_counter().inc();
            let rec_id = records.len();
            let body = Arc::clone(&self.kernels[spec.kernel]);
            let mut blocks = Vec::with_capacity(spec.grid as usize);
            for b in 0..spec.grid {
                self.fuel.spend(1)?;
                touched.clear();
                let mut ctx = BlockCtx {
                    block_id: b,
                    grid_dim: spec.grid,
                    block_dim: spec.block,
                    depth,
                    args: &spec.args,
                    warp_size: self.gpu.warp_size,
                    mem: &mut self.mem,
                    heap: &mut self.heap,
                    cost: &self.gpu.costs,
                    touched_segments: &mut touched,
                    fuel: &mut self.fuel,
                };
                let result = body.run_block(&mut ctx)?;
                for (s, seg) in result.segments.iter().enumerate() {
                    for child in &seg.launches {
                        self.validate_spec(child, depth + 1)?;
                        // `LaunchSpec.args` is an `Arc<[i64]>`, so this clone
                        // is a refcount bump, not an argument-vector copy.
                        queue.push_back((child.clone(), depth + 1, Some((rec_id, b, s))));
                    }
                }
                blocks.push(result);
            }
            records.push(ExecRecord {
                regs_per_thread: body.regs_per_thread(),
                shared_bytes: body.shared_bytes(),
                spec,
                depth,
                parent,
                blocks,
            });
        }
        Ok(records)
    }

    fn validate_spec(&self, spec: &LaunchSpec, depth: u32) -> Result<(), SimError> {
        if spec.kernel >= self.kernels.len() {
            return Err(SimError::UnknownKernel { id: spec.kernel });
        }
        if spec.grid == 0 || spec.block == 0 {
            return Err(SimError::BadLaunchConfig {
                kernel: self.kernels[spec.kernel].name().to_string(),
                grid: spec.grid,
                block: spec.block,
                reason: "grid and block dimensions must be nonzero",
            });
        }
        if spec.block > self.gpu.max_threads_per_block {
            return Err(SimError::BadLaunchConfig {
                kernel: self.kernels[spec.kernel].name().to_string(),
                grid: spec.grid,
                block: spec.block,
                reason: "block dimension exceeds device limit",
            });
        }
        if depth > self.gpu.max_nesting_depth {
            return Err(SimError::NestingTooDeep { depth, limit: self.gpu.max_nesting_depth });
        }
        Ok(())
    }
}

// ------------------------------------------------------------------------
// Discrete-event timing simulation.
// ------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SmState {
    free_threads: u32,
    free_blocks: u32,
    free_regs: u32,
    free_shared: u32,
}

#[derive(Debug)]
struct BlockRt {
    next_seg: usize,
    /// Child kernels launched by this block that have not completed.
    waiting_children: u32,
    swapped: bool,
    sm: Option<usize>,
}

#[derive(Debug)]
struct KernelRt {
    ready_at: u64,
    dispatched: bool,
    start_at: u64,
    in_virtual_pool: bool,
    next_block: u32,
    unfinished_blocks: u32,
    pending_children: u32,
    holds_slot: bool,
    blocks_done_at: u64,
    completed: bool,
}

struct TimingSim<'a> {
    gpu: &'a GpuConfig,
    records: &'a [ExecRecord],
    /// Children launched from each `(record, block, segment)` site.
    child_idx: HashMap<(usize, u32, usize), Vec<usize>>,
    kstate: Vec<KernelRt>,
    bstate: Vec<Vec<BlockRt>>,
    sms: Vec<SmState>,
    /// Segment-end events: (time, seq, record, block).
    events: BinaryHeap<Reverse<(u64, u64, usize, u32)>>,
    /// Kernels ready for dispatch, FIFO in ready order.
    ready: BinaryHeap<Reverse<(u64, u64, usize)>>,
    ready_fifo: VecDeque<usize>,
    /// Blocks resuming after a device-sync swap; dispatched with priority.
    resume_fifo: VecDeque<(usize, u32)>,
    /// Kernels dispatched but with blocks left to place.
    sched_queue: VecDeque<usize>,
    slots_in_use: u32,
    pool_count: u32,
    /// The grid management unit processes launches serially; this is when it
    /// becomes free to dispatch the next pending kernel.
    dispatcher_free_at: u64,
    seq: u64,
    now: u64,
    // Metrics.
    swaps: u64,
    swap_dram: u64,
    virtual_pool_kernels: u64,
    fixed_pool_peak: u32,
    warp_residency_integral: u128,
    /// Number of blocks currently resident on SMs, and accumulated time with
    /// at least one resident block ("busy" time: the denominator of achieved
    /// occupancy, matching the profiler's per-kernel-execution averaging).
    resident_blocks: u32,
    busy_since: u64,
    busy_time: u64,
    end_time: u64,
}

impl<'a> TimingSim<'a> {
    fn new(gpu: &'a GpuConfig, records: &'a [ExecRecord]) -> Self {
        let kstate = records
            .iter()
            .map(|r| KernelRt {
                ready_at: 0,
                dispatched: false,
                start_at: 0,
                in_virtual_pool: false,
                next_block: 0,
                unfinished_blocks: r.spec.grid,
                pending_children: 0,
                holds_slot: false,
                blocks_done_at: 0,
                completed: false,
            })
            .collect();
        let bstate = records
            .iter()
            .map(|r| {
                (0..r.spec.grid)
                    .map(|_| BlockRt { next_seg: 0, waiting_children: 0, swapped: false, sm: None })
                    .collect()
            })
            .collect();
        let sms = vec![
            SmState {
                free_threads: gpu.max_threads_per_sm,
                free_blocks: gpu.max_blocks_per_sm,
                free_regs: gpu.registers_per_sm,
                free_shared: gpu.shared_mem_per_sm,
            };
            gpu.num_sms as usize
        ];
        let mut child_idx: HashMap<(usize, u32, usize), Vec<usize>> = HashMap::new();
        for (i, r) in records.iter().enumerate() {
            if let Some(site) = r.parent {
                child_idx.entry(site).or_default().push(i);
            }
        }
        TimingSim {
            gpu,
            records,
            child_idx,
            kstate,
            bstate,
            sms,
            events: BinaryHeap::new(),
            ready: BinaryHeap::new(),
            ready_fifo: VecDeque::new(),
            resume_fifo: VecDeque::new(),
            sched_queue: VecDeque::new(),
            slots_in_use: 0,
            pool_count: 0,
            dispatcher_free_at: 0,
            seq: 0,
            now: 0,
            swaps: 0,
            swap_dram: 0,
            virtual_pool_kernels: 0,
            fixed_pool_peak: 0,
            warp_residency_integral: 0,
            resident_blocks: 0,
            busy_since: 0,
            busy_time: 0,
            end_time: 0,
        }
    }

    fn run(mut self) -> ProfileReport {
        if self.records.is_empty() {
            return ProfileReport::default();
        }
        // Host launch of the root kernel.
        self.enqueue_kernel(0, self.gpu.costs.host_launch_cycles);

        loop {
            // Advance to the earliest pending moment.
            let next_event = self.events.peek().map(|Reverse((t, ..))| *t);
            let next_ready = self.ready.peek().map(|Reverse((t, ..))| *t);
            let t = match (next_event, next_ready) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            self.now = t;
            self.end_time = self.end_time.max(t);

            // Move kernels whose ready time has arrived into the dispatch FIFO.
            while let Some(&Reverse((rt, _, rec))) = self.ready.peek() {
                if rt <= self.now {
                    self.ready.pop();
                    self.ready_fifo.push_back(rec);
                } else {
                    break;
                }
            }
            // Process all segment-end events at this instant.
            while let Some(&Reverse((et, _, rec, block))) = self.events.peek() {
                if et <= self.now {
                    self.events.pop();
                    self.segment_end(rec, block);
                } else {
                    break;
                }
            }
            self.dispatch();
            self.schedule_blocks();
        }

        self.finish_report()
    }

    fn enqueue_kernel(&mut self, rec: usize, at: u64) {
        self.seq += 1;
        self.kstate[rec].ready_at = at;
        self.pool_count += 1;
        self.fixed_pool_peak = self.fixed_pool_peak.max(self.pool_count);
        if self.pool_count > self.gpu.fixed_pool_capacity {
            self.kstate[rec].in_virtual_pool = true;
            self.virtual_pool_kernels += 1;
        }
        self.ready.push(Reverse((at, self.seq, rec)));
    }

    fn dispatch(&mut self) {
        // Resumed blocks first: their kernels re-acquire a slot with priority.
        // Each queued resume is attempted at most once per dispatch round to
        // guarantee progress.
        let mut stalled_on_slot = false;
        let mut retry: VecDeque<(usize, u32)> = VecDeque::new();
        while let Some((rec, block)) = self.resume_fifo.pop_front() {
            if !self.kstate[rec].holds_slot {
                if self.slots_in_use >= self.gpu.max_concurrent_kernels {
                    retry.push_back((rec, block));
                    stalled_on_slot = true;
                    continue;
                }
                self.slots_in_use += 1;
                self.kstate[rec].holds_slot = true;
            }
            self.bstate[rec][block as usize].swapped = false;
            self.sched_resume(rec, block);
        }
        for e in retry.into_iter().rev() {
            self.resume_fifo.push_front(e);
        }
        if stalled_on_slot {
            // Keep priority for resumes: do not hand slots to new kernels,
            // and make sure the loop wakes up to retry.
            self.seq += 1;
            self.events.push(Reverse((
                self.now + self.gpu.costs.kernel_dispatch_cycles,
                self.seq,
                usize::MAX,
                0,
            )));
            return;
        }
        while self.slots_in_use < self.gpu.max_concurrent_kernels {
            let Some(rec) = self.ready_fifo.pop_front() else { break };
            self.pool_count -= 1;
            self.slots_in_use += 1;
            let k = &mut self.kstate[rec];
            k.dispatched = true;
            k.holds_slot = true;
            let mut lat = self.gpu.costs.kernel_dispatch_cycles;
            if k.in_virtual_pool {
                lat += self.gpu.costs.virtual_pool_penalty_cycles;
            }
            // Serial grid-management unit: each dispatch occupies it for
            // `lat` cycles, so massive launch counts back up the queue —
            // the core pathology of basic-dp codes (Section III.B).
            let begin = self.now.max(k.ready_at).max(self.dispatcher_free_at);
            k.start_at = begin + lat;
            self.dispatcher_free_at = k.start_at;
            self.end_time = self.end_time.max(k.start_at);
            self.sched_queue.push_back(rec);
        }
    }

    /// Try to place blocks of dispatched kernels on SMs.
    fn schedule_blocks(&mut self) {
        let mut rounds = self.sched_queue.len();
        while rounds > 0 {
            rounds -= 1;
            let Some(rec) = self.sched_queue.pop_front() else { break };
            let grid = self.records[rec].spec.grid;
            let mut placed_all = true;
            while self.kstate[rec].next_block < grid {
                let b = self.kstate[rec].next_block;
                if self.place_block(rec, b) {
                    self.kstate[rec].next_block += 1;
                } else {
                    placed_all = false;
                    break;
                }
            }
            if !placed_all {
                self.sched_queue.push_back(rec);
            }
        }
    }

    /// A resumed block schedules its next segment immediately if resources
    /// allow, otherwise it waits in the scheduling queue of its kernel.
    fn sched_resume(&mut self, rec: usize, block: u32) {
        let resumed_at = self.now;
        if !self.place_block_at(rec, block, resumed_at) {
            // Could not place now; retry by re-queueing as a resume entry so
            // it keeps priority. To guarantee progress we push a synthetic
            // event one dispatch-latency ahead.
            self.resume_fifo.push_front((rec, block));
            self.bstate[rec][block as usize].swapped = true;
            self.seq += 1;
            self.events.push(Reverse((
                self.now + self.gpu.costs.kernel_dispatch_cycles,
                self.seq,
                usize::MAX,
                0,
            )));
        }
    }

    fn block_footprint(&self, rec: usize) -> (u32, u32, u32) {
        let r = &self.records[rec];
        let threads = r.spec.block.div_ceil(self.gpu.warp_size) * self.gpu.warp_size;
        let regs = threads * r.regs_per_thread;
        (threads, regs, r.shared_bytes)
    }

    fn place_block(&mut self, rec: usize, block: u32) -> bool {
        let start = self.now.max(self.kstate[rec].start_at);
        self.place_block_at(rec, block, start)
    }

    fn place_block_at(&mut self, rec: usize, block: u32, start: u64) -> bool {
        let (threads, regs, shared) = self.block_footprint(rec);
        // Pick the SM with the most free threads that fits the block.
        let mut best: Option<(usize, u32)> = None;
        for (i, sm) in self.sms.iter().enumerate() {
            if sm.free_blocks >= 1
                && sm.free_threads >= threads
                && sm.free_regs >= regs
                && sm.free_shared >= shared
            {
                match best {
                    Some((_, ft)) if ft >= sm.free_threads => {}
                    _ => best = Some((i, sm.free_threads)),
                }
            }
        }
        let Some((smi, _)) = best else { return false };
        let sm = &mut self.sms[smi];
        sm.free_blocks -= 1;
        sm.free_threads -= threads;
        sm.free_regs -= regs;
        sm.free_shared -= shared;
        if self.resident_blocks == 0 {
            self.busy_since = start.max(self.now);
        }
        self.resident_blocks += 1;

        let bst = &mut self.bstate[rec][block as usize];
        bst.sm = Some(smi);
        let seg = &self.records[rec].blocks[block as usize].segments[bst.next_seg];
        let dur = seg.duration.max(1);
        let warps = self.records[rec].spec.block.div_ceil(self.gpu.warp_size) as u128;
        self.warp_residency_integral += warps * dur as u128;
        self.seq += 1;
        self.events.push(Reverse((start + dur, self.seq, rec, block)));
        true
    }

    fn release_sm(&mut self, rec: usize, block: u32) {
        let (threads, regs, shared) = self.block_footprint(rec);
        if let Some(smi) = self.bstate[rec][block as usize].sm.take() {
            let sm = &mut self.sms[smi];
            sm.free_blocks += 1;
            sm.free_threads += threads;
            sm.free_regs += regs;
            sm.free_shared += shared;
            self.resident_blocks -= 1;
            if self.resident_blocks == 0 {
                self.busy_time += self.now.saturating_sub(self.busy_since);
            }
        }
    }

    fn segment_end(&mut self, rec: usize, block: u32) {
        if rec == usize::MAX {
            // Synthetic retry tick for a resume that could not be placed.
            return;
        }
        let seg_idx = self.bstate[rec][block as usize].next_seg;
        let nsegs = self.records[rec].blocks[block as usize].segments.len();

        // Enqueue children launched in this segment.
        if let Some(children) = self.child_idx.get(&(rec, block, seg_idx)) {
            for child in children.clone() {
                self.kstate[rec].pending_children += 1;
                self.bstate[rec][block as usize].waiting_children += 1;
                self.enqueue_kernel(child, self.now);
            }
        }

        let ends_sync =
            self.records[rec].blocks[block as usize].segments[seg_idx].ends_with_device_sync;
        let has_more = seg_idx + 1 < nsegs;

        if has_more {
            self.bstate[rec][block as usize].next_seg += 1;
            if ends_sync && self.bstate[rec][block as usize].waiting_children > 0 {
                // Swap the parent block out while its children run.
                self.swaps += 1;
                self.swap_dram += self.gpu.costs.swap_dram_transactions;
                self.bstate[rec][block as usize].swapped = true;
                self.release_sm(rec, block);
                // If this kernel now has no runnable blocks, it yields its slot.
                self.maybe_release_slot(rec);
            } else {
                // Continue on the same SM: schedule the next segment in place.
                let smi = self.bstate[rec][block as usize].sm;
                let seg = &self.records[rec].blocks[block as usize].segments[seg_idx + 1];
                let dur = seg.duration.max(1);
                let warps = self.records[rec].spec.block.div_ceil(self.gpu.warp_size) as u128;
                self.warp_residency_integral += warps * dur as u128;
                self.seq += 1;
                self.events.push(Reverse((self.now + dur, self.seq, rec, block)));
                debug_assert!(smi.is_some());
            }
        } else {
            // Block finished.
            self.release_sm(rec, block);
            self.kstate[rec].unfinished_blocks -= 1;
            if self.kstate[rec].unfinished_blocks == 0 {
                self.kstate[rec].blocks_done_at = self.now;
                self.maybe_release_slot(rec);
                self.check_completion(rec);
            }
        }
    }

    /// Release the concurrency slot if no block of `rec` is resident or
    /// placeable (all finished or swapped out waiting on children).
    fn maybe_release_slot(&mut self, rec: usize) {
        let k = &self.kstate[rec];
        if !k.holds_slot {
            return;
        }
        let any_runnable = self.bstate[rec].iter().any(|b| b.sm.is_some())
            || k.next_block < self.records[rec].spec.grid;
        if !any_runnable {
            self.kstate[rec].holds_slot = false;
            self.slots_in_use -= 1;
        }
    }

    fn check_completion(&mut self, rec: usize) {
        let k = &self.kstate[rec];
        if k.completed || k.unfinished_blocks > 0 || k.pending_children > 0 {
            return;
        }
        self.kstate[rec].completed = true;
        let done_at = self.now.max(self.kstate[rec].blocks_done_at);
        self.end_time = self.end_time.max(done_at);
        if let Some((prec, pblock, _pseg)) = self.records[rec].parent {
            self.kstate[prec].pending_children -= 1;
            self.bstate[prec][pblock as usize].waiting_children -= 1;
            if self.bstate[prec][pblock as usize].swapped
                && self.bstate[prec][pblock as usize].waiting_children == 0
            {
                // Swap the parent block back in after the swap-in latency.
                self.swap_dram += self.gpu.costs.swap_dram_transactions;
                self.resume_fifo.push_back((prec, pblock));
                // Wake the event loop after the swap-in latency; the block
                // stays marked swapped until dispatch places it again.
                self.seq += 1;
                self.events.push(Reverse((
                    self.now + self.gpu.costs.swap_cycles,
                    self.seq,
                    usize::MAX,
                    0,
                )));
            }
            // Parent may itself now be complete.
            if self.kstate[prec].unfinished_blocks == 0 {
                self.check_completion(prec);
            }
        }
    }

    fn finish_report(self) -> ProfileReport {
        let mut warp_cycles_sum = 0u64;
        let mut active_thread_cycles = 0u64;
        let mut thread_cycles_possible = 0u64;
        let mut dram = self.swap_dram
            + (self.records.len() as u64 - 1) * self.gpu.costs.launch_dram_transactions
            + self.virtual_pool_kernels * self.gpu.costs.virtual_pool_dram_transactions;
        let mut max_depth = 0u32;
        for r in self.records {
            max_depth = max_depth.max(r.depth);
            for b in &r.blocks {
                for s in &b.segments {
                    warp_cycles_sum += s.warp_cycles_sum;
                    active_thread_cycles += s.active_thread_cycles;
                    thread_cycles_possible += s.thread_cycles_possible;
                    dram += s.dram_transactions;
                }
            }
        }
        // Achieved occupancy over *busy* device time (time with at least one
        // resident block), matching the profiler's per-kernel-execution
        // averaging rather than penalizing queueing gaps twice.
        let busy = self.busy_time.max(1);
        let max_warp_capacity =
            (self.gpu.num_sms as u128) * (self.gpu.max_warps_per_sm as u128) * busy as u128;
        ProfileReport {
            total_cycles: self.end_time,
            host_launches: 0,
            device_launches: 0,
            kernels_executed: 0,
            warp_exec_efficiency: if thread_cycles_possible == 0 {
                0.0
            } else {
                active_thread_cycles as f64 / thread_cycles_possible as f64
            },
            achieved_occupancy: self.warp_residency_integral as f64 / max_warp_capacity as f64,
            dram_transactions: dram,
            fixed_pool_peak: self.fixed_pool_peak.min(self.gpu.fixed_pool_capacity) as u64,
            pool_peak: self.fixed_pool_peak as u64,
            virtual_pool_kernels: self.virtual_pool_kernels,
            swaps: self.swaps,
            max_depth,
            warp_cycles: warp_cycles_sum,
            alloc_ops: 0,
            alloc_cycles: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SegmentResult;

    /// Test helper: a kernel defined by a closure.
    struct FnKernel<F> {
        name: String,
        f: F,
    }
    impl<F> KernelBody for FnKernel<F>
    where
        F: Fn(&mut BlockCtx<'_>) -> Result<BlockResult, SimError> + Send + Sync,
    {
        fn name(&self) -> &str {
            &self.name
        }
        fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<BlockResult, SimError> {
            (self.f)(ctx)
        }
    }

    fn fn_kernel<F>(name: &str, f: F) -> Arc<dyn KernelBody>
    where
        F: Fn(&mut BlockCtx<'_>) -> Result<BlockResult, SimError> + Send + Sync + 'static,
    {
        Arc::new(FnKernel { name: name.to_string(), f })
    }

    fn seg(duration: u64) -> SegmentResult {
        SegmentResult {
            duration,
            warp_cycles_sum: duration,
            active_thread_cycles: duration * 32,
            thread_cycles_possible: duration * 32,
            ..Default::default()
        }
    }

    #[test]
    fn leaf_kernel_timing_includes_launch_and_dispatch() {
        let gpu = GpuConfig::tiny();
        let c = gpu.costs.clone();
        let mut e = Engine::new(gpu, AllocKind::PreAlloc, 1024);
        let k = e.register(fn_kernel("leaf", |_ctx| Ok(BlockResult::single(seg(500)))));
        let r = e.launch(LaunchSpec::new(k, 1, 32, vec![])).unwrap();
        assert_eq!(r.kernels_executed, 1);
        assert_eq!(r.device_launches, 0);
        assert_eq!(r.total_cycles, c.host_launch_cycles + c.kernel_dispatch_cycles + 500);
        assert!((r.warp_exec_efficiency - 1.0).abs() < 1e-9);
    }

    #[test]
    fn children_execute_after_parent_functionally() {
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        // parent writes 1 to cell 0, child reads it and writes double to cell 1
        let data = e.mem.alloc_array("data", 2);
        let child = e.register(fn_kernel("child", move |ctx| {
            let v = ctx.mem.read(ctx.args[0] as usize, 0)?;
            ctx.mem.write(ctx.args[0] as usize, 1, v * 2)?;
            Ok(BlockResult::single(seg(10)))
        }));
        let parent = e.register(fn_kernel("parent", move |ctx| {
            let arr = ctx.args[0] as usize;
            ctx.mem.write(arr, 0, 21)?;
            let mut s = seg(10);
            s.launches.push(LaunchSpec::new(ctx.args[1] as usize, 1, 32, vec![arr as i64]));
            Ok(BlockResult::single(s))
        }));
        let r = e.launch(LaunchSpec::new(parent, 1, 32, vec![data as i64, child as i64])).unwrap();
        assert_eq!(r.device_launches, 1);
        assert_eq!(r.kernels_executed, 2);
        assert_eq!(e.mem.read(data, 1).unwrap(), 42);
        assert_eq!(r.max_depth, 1);
    }

    #[test]
    fn pending_pool_overflow_is_tracked() {
        let gpu = GpuConfig::tiny(); // fixed pool capacity 8
        let mut e = Engine::new(gpu, AllocKind::PreAlloc, 1024);
        let child = e.register(fn_kernel("child", |_| Ok(BlockResult::single(seg(50)))));
        let parent = e.register(fn_kernel("parent", move |ctx| {
            let mut s = seg(10);
            for _ in 0..20 {
                s.launches.push(LaunchSpec::new(ctx.args[0] as usize, 1, 32, vec![]));
            }
            Ok(BlockResult::single(s))
        }));
        let r = e.launch(LaunchSpec::new(parent, 1, 32, vec![child as i64])).unwrap();
        assert_eq!(r.device_launches, 20);
        assert!(r.pool_peak > 8, "pool peak {} should exceed fixed capacity", r.pool_peak);
        assert!(r.virtual_pool_kernels > 0);
        assert_eq!(r.fixed_pool_peak, 8);
    }

    #[test]
    fn concurrency_limit_serializes_small_kernels() {
        // tiny GPU: 4 concurrent kernels. 16 children of 100 cycles each must
        // take at least 4 rounds of 100 cycles.
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let child = e.register(fn_kernel("child", |_| Ok(BlockResult::single(seg(100)))));
        let parent = e.register(fn_kernel("parent", move |ctx| {
            let mut s = seg(1);
            for _ in 0..16 {
                s.launches.push(LaunchSpec::new(ctx.args[0] as usize, 1, 32, vec![]));
            }
            Ok(BlockResult::single(s))
        }));
        let r = e.launch(LaunchSpec::new(parent, 1, 32, vec![child as i64])).unwrap();
        let c = &e.gpu.costs;
        let floor = c.host_launch_cycles + 4 * 100;
        assert!(r.total_cycles >= floor, "{} < {}", r.total_cycles, floor);
    }

    #[test]
    fn device_sync_swaps_parent_block() {
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let child = e.register(fn_kernel("child", |_| Ok(BlockResult::single(seg(1000)))));
        let parent = e.register(fn_kernel("parent", move |ctx| {
            let mut s1 = seg(10);
            s1.launches.push(LaunchSpec::new(ctx.args[0] as usize, 1, 32, vec![]));
            s1.ends_with_device_sync = true;
            Ok(BlockResult { segments: vec![s1, seg(10)] })
        }));
        let r = e.launch(LaunchSpec::new(parent, 1, 32, vec![child as i64])).unwrap();
        assert_eq!(r.swaps, 1);
        let c = &e.gpu.costs;
        // Parent must outlast its child plus the swap round trip.
        assert!(
            r.total_cycles
                >= c.host_launch_cycles + 10 + c.kernel_dispatch_cycles + 1000 + c.swap_cycles + 10
        );
    }

    #[test]
    fn device_sync_without_children_continues_inline() {
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let k = e.register(fn_kernel("k", |_| {
            let mut s1 = seg(10);
            s1.ends_with_device_sync = true;
            Ok(BlockResult { segments: vec![s1, seg(10)] })
        }));
        let r = e.launch(LaunchSpec::new(k, 1, 32, vec![])).unwrap();
        assert_eq!(r.swaps, 0);
        assert_eq!(r.kernels_executed, 1);
    }

    #[test]
    fn nesting_depth_limit_enforced() {
        let mut gpu = GpuConfig::tiny();
        gpu.max_nesting_depth = 3;
        let mut e = Engine::new(gpu, AllocKind::PreAlloc, 1024);
        // Self-recursive kernel that always launches itself (depth passed as arg 0).
        let name = "rec";
        let kid = e.kernels.len();
        let k = e.register(fn_kernel(name, move |ctx| {
            let mut s = seg(5);
            s.launches.push(LaunchSpec::new(kid, 1, 32, vec![ctx.args[0] + 1]));
            Ok(BlockResult::single(s))
        }));
        let err = e.launch(LaunchSpec::new(k, 1, 32, vec![0])).unwrap_err();
        assert!(matches!(err, SimError::NestingTooDeep { limit: 3, .. }));
    }

    #[test]
    fn bounded_recursion_completes() {
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let kid = e.kernels.len();
        let k = e.register(fn_kernel("rec", move |ctx| {
            let mut s = seg(5);
            if ctx.args[0] < 5 {
                s.launches.push(LaunchSpec::new(kid, 1, 32, vec![ctx.args[0] + 1]));
            }
            Ok(BlockResult::single(s))
        }));
        let r = e.launch(LaunchSpec::new(k, 1, 32, vec![0])).unwrap();
        assert_eq!(r.kernels_executed, 6);
        assert_eq!(r.max_depth, 5);
    }

    #[test]
    fn occupancy_and_efficiency_are_ratios() {
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let k = e.register(fn_kernel("k", |_| {
            let mut s = seg(100);
            // Half the lanes idle.
            s.active_thread_cycles = 100 * 16;
            Ok(BlockResult::single(s))
        }));
        let r = e.launch(LaunchSpec::new(k, 4, 64, vec![])).unwrap();
        assert!(r.achieved_occupancy > 0.0 && r.achieved_occupancy <= 1.0);
        assert!((r.warp_exec_efficiency - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bad_launch_configs_rejected() {
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let k = e.register(fn_kernel("k", |_| Ok(BlockResult::single(seg(1)))));
        assert!(matches!(
            e.launch(LaunchSpec::new(k, 0, 32, vec![])),
            Err(SimError::BadLaunchConfig { .. })
        ));
        assert!(matches!(
            e.launch(LaunchSpec::new(k, 1, 0, vec![])),
            Err(SimError::BadLaunchConfig { .. })
        ));
        assert!(matches!(
            e.launch(LaunchSpec::new(k, 1, 4096, vec![])),
            Err(SimError::BadLaunchConfig { .. })
        ));
        assert!(matches!(
            e.launch(LaunchSpec::new(99, 1, 32, vec![])),
            Err(SimError::UnknownKernel { .. })
        ));
    }

    #[test]
    fn exec_limit_guards_runaway_recursion() {
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        e.max_kernel_execs = 10;
        let kid = e.kernels.len();
        let k = e.register(fn_kernel("fanout", move |ctx| {
            let mut s = seg(1);
            if ctx.args[0] < 10 {
                for _ in 0..3 {
                    s.launches.push(LaunchSpec::new(kid, 1, 32, vec![ctx.args[0] + 1]));
                }
            }
            Ok(BlockResult::single(s))
        }));
        assert!(matches!(
            e.launch(LaunchSpec::new(k, 1, 32, vec![0])),
            Err(SimError::KernelExecLimit { limit: 10 })
        ));
    }

    #[test]
    fn more_blocks_than_sm_slots_round_robin() {
        // tiny GPU: 2 SMs x 4 blocks x 256 threads. 32 blocks of 128 threads:
        // at most 4 per SM (threads: 256/128 = 2 per SM binds first).
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let k = e.register(fn_kernel("wide", |_| Ok(BlockResult::single(seg(100)))));
        let r = e.launch(LaunchSpec::new(k, 32, 128, vec![])).unwrap();
        // 2 SMs * 2 blocks resident => 4 at a time => at least 8 waves.
        let c = &e.gpu.costs;
        assert!(r.total_cycles >= c.host_launch_cycles + 8 * 100);
    }

    #[test]
    fn capture_then_replay_matches_launch() {
        let build = |e: &mut Engine| {
            let child = e.register(fn_kernel("child", |_| Ok(BlockResult::single(seg(120)))));
            e.register(fn_kernel("parent", move |_ctx| {
                let mut s = seg(30);
                for _ in 0..6 {
                    s.launches.push(LaunchSpec::new(child, 2, 64, vec![]));
                }
                s.ends_with_device_sync = true;
                Ok(BlockResult { segments: vec![s, seg(30)] })
            }))
        };
        let mut e1 = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let parent = build(&mut e1);
        let direct = e1.launch(LaunchSpec::new(parent, 2, 64, vec![])).unwrap();

        let mut e2 = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let parent = build(&mut e2);
        let records = e2.capture(LaunchSpec::new(parent, 2, 64, vec![])).unwrap();
        let replayed = e2.replay_timing(&records);
        assert_eq!(direct, replayed);
        // Replay is repeatable without functional re-execution.
        assert_eq!(replayed, e2.replay_timing(&records));
    }

    #[test]
    fn launch_and_launch_traced_report_the_same() {
        let build = |e: &mut Engine| {
            let child = e.register(fn_kernel("child", |ctx| {
                ctx.heap.alloc(16, ctx.cost)?;
                Ok(BlockResult::single(seg(40)))
            }));
            e.register(fn_kernel("parent", move |_ctx| {
                let mut s = seg(25);
                for _ in 0..5 {
                    s.launches.push(LaunchSpec::new(child, 2, 32, vec![]));
                }
                Ok(BlockResult::single(s))
            }))
        };
        let spec = |k| LaunchSpec::new(k, 3, 64, vec![]);
        let mut e1 = Engine::new(GpuConfig::tiny(), AllocKind::Default, 4096);
        let k = build(&mut e1);
        let plain = e1.launch(spec(k)).unwrap();
        let mut e2 = Engine::new(GpuConfig::tiny(), AllocKind::Default, 4096);
        let k = build(&mut e2);
        let (traced, records) = e2.launch_traced(spec(k)).unwrap();
        assert!(plain.alloc_ops > 0, "the allocator delta is part of both reports");
        assert_eq!(plain, traced);
        // The kept records are the launch: replay and summary agree with it.
        assert_eq!(e2.replay_timing(&records).total_cycles, traced.total_cycles);
        let tree = crate::trace::summarize(&records);
        assert_eq!(tree.kernels.len() as u64, traced.kernels_executed);
        // A second launch on each engine reports only its own delta, alike.
        assert_eq!(e1.launch(spec(k)).unwrap(), e2.launch_traced(spec(k)).unwrap().0);
    }

    #[test]
    fn replay_on_bigger_device_is_not_slower() {
        let mut e = Engine::new(GpuConfig::k20c(), AllocKind::PreAlloc, 1024);
        let child = e.register(fn_kernel("child", |_| Ok(BlockResult::single(seg(200)))));
        let parent = e.register(fn_kernel("parent", move |ctx| {
            let mut s = seg(10);
            for _ in 0..40 {
                s.launches.push(LaunchSpec::new(ctx.args[0] as usize, 4, 256, vec![]));
            }
            Ok(BlockResult::single(s))
        }));
        let records = e.capture(LaunchSpec::new(parent, 8, 256, vec![child as i64])).unwrap();
        let k20 = e.replay_timing(&records);
        let k40 = Engine::replay_timing_on(&GpuConfig::k40(), &records);
        assert_eq!(k20.kernels_executed, k40.kernels_executed);
        assert!(
            k40.total_cycles <= k20.total_cycles,
            "more SMs should not slow the replay: {} vs {}",
            k40.total_cycles,
            k20.total_cycles
        );
    }

    #[test]
    fn replay_does_not_populate_allocator_stats() {
        let build = |e: &mut Engine| {
            e.register(fn_kernel("allocator", |ctx| {
                ctx.heap.alloc(64, ctx.cost)?;
                Ok(BlockResult::single(seg(50)))
            }))
        };
        let mut e1 = Engine::new(GpuConfig::tiny(), AllocKind::Default, 4096);
        let k = build(&mut e1);
        let direct = e1.launch(LaunchSpec::new(k, 2, 32, vec![])).unwrap();
        assert!(direct.alloc_ops > 0 && direct.alloc_cycles > 0, "launch fills heap stats");

        let mut e2 = Engine::new(GpuConfig::tiny(), AllocKind::Default, 4096);
        let k = build(&mut e2);
        let records = e2.capture(LaunchSpec::new(k, 2, 32, vec![])).unwrap();
        for gpu in [GpuConfig::tiny(), GpuConfig::k20c()] {
            let replayed = Engine::replay_timing_on(&gpu, &records);
            assert_eq!(replayed.alloc_ops, 0, "replay must not invent allocator stats");
            assert_eq!(replayed.alloc_cycles, 0);
        }
        // The captured values live on the capture engine's heap.
        assert_eq!(e2.heap.stats.allocs, direct.alloc_ops);
        assert_eq!(e2.heap.stats.alloc_cycles, direct.alloc_cycles);
    }

    #[test]
    fn functional_exec_counter_advances_on_capture() {
        // The counter is process-wide and other tests run concurrently, so
        // only monotonicity is asserted here; the replay-adds-nothing claim
        // is pinned by `crates/tune/tests/fleet_exec_count.rs`, which owns
        // its whole test process.
        let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1024);
        let child = e.register(fn_kernel("child", |_| Ok(BlockResult::single(seg(20)))));
        let parent = e.register(fn_kernel("parent", move |ctx| {
            let mut s = seg(5);
            for _ in 0..3 {
                s.launches.push(LaunchSpec::new(ctx.args[0] as usize, 1, 32, vec![]));
            }
            Ok(BlockResult::single(s))
        }));
        let before = functional_execs_total();
        let records = e.capture(LaunchSpec::new(parent, 1, 32, vec![child as i64])).unwrap();
        assert!(functional_execs_total() - before >= 4, "capture runs the kernels");
        assert_eq!(e.replay_timing(&records).kernels_executed, 4);
    }

    #[test]
    fn grid_execution_is_deterministic() {
        let run = || {
            let mut e = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 4096);
            let arr = e.mem.alloc_array("a", 64);
            let k = e.register(fn_kernel("acc", move |ctx| {
                let a = ctx.args[0] as usize;
                ctx.mem.atomic_add(a, 0, ctx.block_id as i64 + 1)?;
                Ok(BlockResult::single(seg(10 + ctx.block_id as u64)))
            }));
            let r = e.launch(LaunchSpec::new(k, 16, 64, vec![arr as i64])).unwrap();
            (e.mem.read(arr, 0).unwrap(), r.total_cycles)
        };
        assert_eq!(run(), run());
        assert_eq!(run().0, (1..=16).sum::<i64>());
    }
}
