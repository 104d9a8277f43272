//! Warp-lockstep SIMT interpretation: engine selection, the tree-walking
//! reference executor, and the shared trace/assembly machinery.
//!
//! Each warp executes the compiled kernel over 32-lane value vectors with an
//! active mask, exactly like SIMT hardware:
//!
//! * divergent `if` serializes both paths (cycles accrue for each taken path,
//!   lane-active cycles only for the lanes on that path — this is what warp
//!   execution efficiency measures),
//! * loops iterate until the mask drains,
//! * warp-wide memory accesses are coalesced into 128-byte segments and the
//!   instruction replays per extra segment,
//! * atomics serialize in lane order,
//! * device-side `Launch` serializes per active lane and charges the launch
//!   overhead to the issuing lane only — in basic-dp code this is the
//!   dominant divergence cost the paper reports (Section V.D),
//! * `__syncthreads` splits the warp's trace into phases; the block duration
//!   is the per-phase maximum over warps,
//! * `cudaDeviceSynchronize` splits the block into segments the timing engine
//!   can swap out around.
//!
//! Two executors implement these semantics over the same compiled module:
//!
//! * the **bytecode VM** ([`crate::bytecode`]) — the default hot path: each
//!   kernel is lowered once into a flat `Vec<Op>` with explicit jump targets
//!   and executed over a flat SoA register file,
//! * the **tree walker** (this module) — the readable reference
//!   implementation, kept as the differential oracle and selected in code:
//!   per install with [`install_with_engine`], or process-wide with
//!   [`set_engine_override`].
//!
//! Both funnel their warp traces through the same `assemble_block`, so the
//! segment/phase assembly cannot diverge between them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use dpcons_sim::{
    coalesced_transactions, BlockCtx, BlockResult, GlobalMem, KernelBody, KernelId, LaunchSpec,
    SegmentResult, SimError, WARP_SIZE,
};

use crate::ast::{AllocScope, AtomicOp, BinOp, Module, UnOp};
use crate::bytecode::{lower_module, ByteKernel};
use crate::compile::{compile_module, CExpr, CKernel, CModule, CStmt, IrError};

/// Per-warp iteration safety valve: a single warp executing more than this
/// many loop iterations is assumed to be stuck.
pub(crate) const MAX_WARP_ITERATIONS: u64 = 200_000_000;

/// Fault message for the safety valve — identical in both executors.
pub(crate) const WARP_ITER_LIMIT_MSG: &str = "warp exceeded the loop-iteration safety limit";

/// Lanes per warp ([`WARP_SIZE`]), as an array length and lane index bound.
pub(crate) const LANES: usize = WARP_SIZE as usize;

pub(crate) type Lanes = [i64; LANES];

// ------------------------------------------------------------------------
// Executor selection.
// ------------------------------------------------------------------------

/// Which functional executor runs compiled kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEngine {
    /// Flat bytecode VM over a SoA register file (the default hot path).
    Bytecode,
    /// Recursive tree walker over `CStmt`/`CExpr` (reference oracle).
    Tree,
}

/// Process-wide override: 0 = none (the VM), 1 = bytecode, 2 = tree.
static ENGINE_OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Current process-wide override, if any (see [`set_engine_override`]).
pub fn engine_override() -> Option<ExecEngine> {
    match ENGINE_OVERRIDE.load(Ordering::Relaxed) {
        1 => Some(ExecEngine::Bytecode),
        2 => Some(ExecEngine::Tree),
        _ => None,
    }
}

/// Force every subsequently-launched kernel installed without a pin onto one
/// executor (`None` restores the default, the bytecode VM). Process-global:
/// callers that flip it around a run must restore the previous value and
/// must not run concurrently with other launches they don't want affected —
/// tests that need per-run pinning should use [`install_with_engine`].
pub fn set_engine_override(engine: Option<ExecEngine>) {
    let v = match engine {
        None => 0,
        Some(ExecEngine::Bytecode) => 1,
        Some(ExecEngine::Tree) => 2,
    };
    ENGINE_OVERRIDE.store(v, Ordering::Relaxed);
}

// ------------------------------------------------------------------------
// Shared warp-trace model.
// ------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Boundary {
    Sync,
    DeviceSync,
    #[default]
    End,
}

/// One `__syncthreads`-delimited span of a warp's execution. `launches` is a
/// half-open index range into the per-block launch arena — keeping the chunk
/// flat (no inner `Vec`) is what lets both executors reuse one arena per
/// block instead of allocating per chunk.
#[derive(Debug, Default, Clone)]
pub(crate) struct Chunk {
    pub cycles: u64,
    pub active: u64,
    pub dram: u64,
    pub launches: (u32, u32),
    pub boundary: Boundary,
}

// ------------------------------------------------------------------------
// Shared scalar semantics (used by both executors, pinned by tests).
// ------------------------------------------------------------------------

/// Division faults carry no lane info at this level; executors wrap them
/// into a `KernelFault` naming the kernel.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BinFault {
    DivZero,
    RemZero,
}

impl BinFault {
    pub(crate) fn message(self) -> &'static str {
        match self {
            BinFault::DivZero => "division by zero",
            BinFault::RemZero => "remainder by zero",
        }
    }
}

/// Scalar binary-op semantics shared by the tree walker and the bytecode VM.
///
/// Shifts are **total**: a shift amount outside `0..=63` yields 0 (for both
/// `<<` and `>>`), matching the C/CUDA convention of avoiding the UB range
/// rather than silently wrapping the amount mod 64 (the historical behaviour,
/// where `x << 64` acted as `x << 0` and `x << -1` as `x << 63`).
#[inline]
pub(crate) fn scalar_binop(op: BinOp, a: i64, b: i64) -> Result<i64, BinFault> {
    match op {
        BinOp::Div => {
            if b == 0 {
                return Err(BinFault::DivZero);
            }
            Ok(a.wrapping_div(b))
        }
        BinOp::Rem => {
            if b == 0 {
                return Err(BinFault::RemZero);
            }
            Ok(a.wrapping_rem(b))
        }
        _ => Ok(scalar_binop_total(op, a, b)),
    }
}

/// The total (never-faulting) subset of [`scalar_binop`]: every op except
/// `Div`/`Rem`. The bytecode VM evaluates these full-width (all 32 lanes,
/// active or not) so the lane loop vectorizes; that is only sound because
/// these ops cannot fault on the garbage in inactive lanes.
#[inline]
pub(crate) fn scalar_binop_total(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div | BinOp::Rem => unreachable!("Div/Rem take the faulting path"),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if (0..64).contains(&b) {
                a.wrapping_shl(b as u32)
            } else {
                0
            }
        }
        BinOp::Shr => {
            if (0..64).contains(&b) {
                a.wrapping_shr(b as u32)
            } else {
                0
            }
        }
        BinOp::Eq => (a == b) as i64,
        BinOp::Ne => (a != b) as i64,
        BinOp::Lt => (a < b) as i64,
        BinOp::Le => (a <= b) as i64,
        BinOp::Gt => (a > b) as i64,
        BinOp::Ge => (a >= b) as i64,
        BinOp::LAnd => (a != 0 && b != 0) as i64,
        BinOp::LOr => (a != 0 || b != 0) as i64,
    }
}

/// Convert a lane's device-side launch dimension to `u32`, faulting (instead
/// of silently clamping to 0) when the value does not fit — the clamp used to
/// surface later as a misleading `BadLaunchConfig`.
#[inline]
pub(crate) fn launch_dim(kernel: &str, what: &str, lane: usize, v: i64) -> Result<u32, SimError> {
    u32::try_from(v).map_err(|_| SimError::KernelFault {
        kernel: kernel.to_string(),
        message: format!(
            "device-side launch {what} dimension {v} in lane {lane} is outside \
             the valid u32 range 0..=4294967295"
        ),
    })
}

/// Resolve an (handle, index) pair against global memory, shared by both
/// executors so out-of-bounds faults are formatted identically.
#[inline]
pub(crate) fn resolve_addr(
    mem: &GlobalMem,
    handle: i64,
    index: i64,
) -> Result<(usize, usize), SimError> {
    let a = mem.handle_from_value(handle)?;
    let i = usize::try_from(index).map_err(|_| SimError::OutOfBounds {
        array: mem.label(a).unwrap_or("?").to_string(),
        handle,
        index,
        len: mem.len(a).unwrap_or(0),
    })?;
    Ok((a, i))
}

/// Coalesce the already-resolved global addresses in `addrs` and charge DRAM
/// traffic for segments this block has not yet touched. Returns
/// `(warp_cycles, new_dram_transactions)`; `addrs` is left holding the
/// segment ids (scratch reuse).
#[inline]
pub(crate) fn charge_group_from_addrs(ctx: &mut BlockCtx<'_>, addrs: &mut Vec<u64>) -> (u64, u64) {
    let tx = coalesced_transactions(addrs, ctx.cost.segment_words);
    let mut new_tx = 0u64;
    for &seg in addrs.iter() {
        if ctx.touched_segments.insert(seg) {
            new_tx += 1;
        }
    }
    (ctx.cost.mem_base_cycles + tx * ctx.cost.mem_cycles_per_transaction, new_tx)
}

// ------------------------------------------------------------------------
// Installation and dispatch.
// ------------------------------------------------------------------------

/// A kernel from a compiled module, installed into a sim engine.
pub struct IrKernelBody {
    module: Arc<CModule>,
    /// Bytecode lowering of every module kernel, produced once at install.
    bytecode: Arc<Vec<ByteKernel>>,
    idx: usize,
    /// Engine kernel ids for every module kernel, filled after registration.
    ids: Arc<OnceLock<Vec<KernelId>>>,
    /// Per-install executor pin; `None` follows [`engine_override`], and
    /// without an override the bytecode VM runs.
    engine: Option<ExecEngine>,
}

/// Compile `module` and register every kernel with the engine. Returns the
/// name → engine-id map used to build host launches.
pub fn install(
    engine: &mut dpcons_sim::Engine,
    module: &Module,
) -> Result<HashMap<String, KernelId>, IrError> {
    install_with_engine(engine, module, None)
}

/// Like [`install`], but pins every kernel of this module to one executor
/// regardless of the process-wide override. Tests use this to run both
/// executors side by side without global state.
pub fn install_with_engine(
    engine: &mut dpcons_sim::Engine,
    module: &Module,
    exec: Option<ExecEngine>,
) -> Result<HashMap<String, KernelId>, IrError> {
    let cm = Arc::new(compile_module(module)?);
    let bc = Arc::new(lower_module(&cm));
    let ids: Arc<OnceLock<Vec<KernelId>>> = Arc::new(OnceLock::new());
    let mut map = HashMap::new();
    let mut vec_ids = Vec::with_capacity(cm.kernels.len());
    for i in 0..cm.kernels.len() {
        let id = engine.register(Arc::new(IrKernelBody {
            module: Arc::clone(&cm),
            bytecode: Arc::clone(&bc),
            idx: i,
            ids: Arc::clone(&ids),
            engine: exec,
        }));
        map.insert(cm.kernels[i].name.clone(), id);
        vec_ids.push(id);
    }
    ids.set(vec_ids).expect("ids set exactly once");
    Ok(map)
}

impl KernelBody for IrKernelBody {
    fn name(&self) -> &str {
        &self.module.kernels[self.idx].name
    }

    fn regs_per_thread(&self) -> u32 {
        self.module.kernels[self.idx].regs_per_thread
    }

    fn shared_bytes(&self) -> u32 {
        self.module.kernels[self.idx].shared_bytes
    }

    fn run_block(&self, ctx: &mut BlockCtx<'_>) -> Result<BlockResult, SimError> {
        let k = &self.module.kernels[self.idx];
        if ctx.args.len() != k.param_kinds.len() {
            return Err(SimError::KernelFault {
                kernel: k.name.clone(),
                message: format!(
                    "launched with {} arguments, expected {}",
                    ctx.args.len(),
                    k.param_kinds.len()
                ),
            });
        }
        let ids = self.ids.get().ok_or_else(|| SimError::KernelFault {
            kernel: k.name.clone(),
            message: "module not fully installed before launch".to_string(),
        })?;
        match self.executor() {
            ExecEngine::Bytecode => {
                crate::bytecode::run_block(k, &self.bytecode[self.idx], ids, ctx)
            }
            ExecEngine::Tree => run_block_tree(k, ids, ctx),
        }
    }
}

impl IrKernelBody {
    /// The executor this kernel runs on: its pin, else the process-wide
    /// override, else the bytecode VM.
    fn executor(&self) -> ExecEngine {
        self.engine.or_else(engine_override).unwrap_or(ExecEngine::Bytecode)
    }
}

// ------------------------------------------------------------------------
// Tree-walking executor (reference oracle).
// ------------------------------------------------------------------------

fn run_block_tree(
    k: &CKernel,
    ids: &[KernelId],
    ctx: &mut BlockCtx<'_>,
) -> Result<BlockResult, SimError> {
    let warps = ctx.block_dim.div_ceil(WARP_SIZE);
    let mut block_allocs: HashMap<u32, (i64, i64)> = HashMap::new();
    let mut arena: Vec<LaunchSpec> = Vec::new();
    let mut traces: Vec<Vec<Chunk>> = Vec::with_capacity(warps as usize);
    for w in 0..warps {
        let nlanes = (ctx.block_dim - w * WARP_SIZE).min(WARP_SIZE);
        let mut exec = WarpExec {
            ctx,
            k,
            ids,
            warp: w,
            env: vec![[0i64; LANES]; k.n_slots as usize],
            chunks: Vec::new(),
            cur: Chunk::default(),
            chunk_launch_start: arena.len() as u32,
            arena: &mut arena,
            returned: 0,
            iters: 0,
            block_allocs: &mut block_allocs,
            scratch: Vec::with_capacity(LANES),
        };
        let mask = if nlanes >= WARP_SIZE { u32::MAX } else { (1u32 << nlanes) - 1 };
        exec.exec_block_body(mask)?;
        traces.push(exec.finish());
    }
    assemble_block(k, ctx, &traces, &arena)
}

struct WarpExec<'a, 'b, 'c> {
    ctx: &'a mut BlockCtx<'b>,
    k: &'a CKernel,
    ids: &'a [KernelId],
    warp: u32,
    env: Vec<Lanes>,
    chunks: Vec<Chunk>,
    cur: Chunk,
    /// Arena index where the current chunk's launches began.
    chunk_launch_start: u32,
    arena: &'c mut Vec<LaunchSpec>,
    /// Lanes that executed `Return`.
    returned: u32,
    iters: u64,
    block_allocs: &'c mut HashMap<u32, (i64, i64)>,
    scratch: Vec<u64>,
}

impl WarpExec<'_, '_, '_> {
    fn fault(&self, message: impl Into<String>) -> SimError {
        SimError::KernelFault { kernel: self.k.name.clone(), message: message.into() }
    }

    fn finish(mut self) -> Vec<Chunk> {
        self.cut(Boundary::End);
        self.chunks
    }

    fn cut(&mut self, b: Boundary) {
        self.cur.boundary = b;
        self.cur.launches = (self.chunk_launch_start, self.arena.len() as u32);
        self.chunk_launch_start = self.arena.len() as u32;
        self.chunks.push(std::mem::take(&mut self.cur));
    }

    /// Charge `c` warp cycles with `lanes` lanes active for all of them.
    fn charge(&mut self, c: u64, lanes: u32) {
        self.cur.cycles += c;
        self.cur.active += c * lanes.count_ones() as u64;
    }

    fn exec_block_body(&mut self, mask: u32) -> Result<(), SimError> {
        // Copy the `&'a CKernel` out of `self` so the body borrow is not tied
        // to the `&mut self` used during execution.
        let k = self.k;
        self.exec(&k.body, mask)?;
        Ok(())
    }

    /// Execute statements under `mask`; returns the mask of lanes still
    /// active afterwards (lanes drop out via `Return`).
    fn exec(&mut self, stmts: &[CStmt], mut mask: u32) -> Result<u32, SimError> {
        for s in stmts {
            mask &= !self.returned;
            if mask == 0 {
                break;
            }
            self.step(s, mask)?;
        }
        Ok(mask & !self.returned)
    }

    fn step(&mut self, s: &CStmt, mask: u32) -> Result<(), SimError> {
        let costs = self.ctx.cost;
        match s {
            CStmt::Assign { slot, value, ops } => {
                self.charge(*ops as u64 * costs.compute_cycles_per_op, mask);
                let vals = self.eval(value, mask)?;
                let dst = &mut self.env[*slot as usize];
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        dst[l] = vals[l];
                    }
                }
            }
            CStmt::Store { handle, index, value, ops } => {
                self.charge(*ops as u64 * costs.compute_cycles_per_op, mask);
                let h = self.eval(handle, mask)?;
                let idx = self.eval(index, mask)?;
                let val = self.eval(value, mask)?;
                self.mem_group_cost(&h, &idx, mask)?;
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        let (a, i) = self.resolve_addr(h[l], idx[l])?;
                        self.ctx.mem.write(a, i, val[l])?;
                    }
                }
            }
            CStmt::Atomic { op, old, handle, index, value, value2, ops } => {
                self.charge(*ops as u64 * costs.compute_cycles_per_op, mask);
                let h = self.eval(handle, mask)?;
                let idx = self.eval(index, mask)?;
                let val = self.eval(value, mask)?;
                let val2 = match value2 {
                    Some(v) => Some(self.eval(v, mask)?),
                    None => None,
                };
                self.mem_group_cost(&h, &idx, mask)?;
                // Atomics serialize across lanes.
                let n = mask.count_ones() as u64;
                self.cur.cycles += costs.atomic_cycles * n;
                self.cur.active += costs.atomic_cycles * n;
                let mut olds = [0i64; LANES];
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        let (a, i) = self.resolve_addr(h[l], idx[l])?;
                        olds[l] = match op {
                            AtomicOp::Add => self.ctx.mem.atomic_add(a, i, val[l])?,
                            AtomicOp::Min => self.ctx.mem.atomic_min(a, i, val[l])?,
                            AtomicOp::Max => self.ctx.mem.atomic_max(a, i, val[l])?,
                            AtomicOp::Exch => self.ctx.mem.atomic_exch(a, i, val[l])?,
                            AtomicOp::Cas => {
                                let desired = val2.as_ref().expect("cas has value2")[l];
                                self.ctx.mem.atomic_cas(a, i, val[l], desired)?
                            }
                        };
                    }
                }
                if let Some(slot) = old {
                    let dst = &mut self.env[*slot as usize];
                    for l in 0..LANES {
                        if mask & (1 << l) != 0 {
                            dst[l] = olds[l];
                        }
                    }
                }
            }
            CStmt::If { cond, then, els, ops } => {
                self.charge(*ops as u64 * costs.compute_cycles_per_op, mask);
                let c = self.eval(cond, mask)?;
                let mut tmask = 0u32;
                for l in 0..LANES {
                    if mask & (1 << l) != 0 && c[l] != 0 {
                        tmask |= 1 << l;
                    }
                }
                let emask = mask & !tmask;
                if tmask != 0 {
                    self.exec(then, tmask)?;
                }
                if emask != 0 {
                    self.exec(els, emask)?;
                }
            }
            CStmt::While { cond, body, ops } => {
                let mut m = mask;
                loop {
                    m &= !self.returned;
                    if m == 0 {
                        break;
                    }
                    self.bump_iters()?;
                    self.charge(*ops as u64 * costs.compute_cycles_per_op, m);
                    let c = self.eval(cond, m)?;
                    let mut next = 0u32;
                    for l in 0..LANES {
                        if m & (1 << l) != 0 && c[l] != 0 {
                            next |= 1 << l;
                        }
                    }
                    if next == 0 {
                        break;
                    }
                    self.exec(body, next)?;
                    m = next;
                }
            }
            CStmt::For { var, lo, hi, step, body, ops } => {
                let lov = self.eval(lo, mask)?;
                {
                    let dst = &mut self.env[*var as usize];
                    for l in 0..LANES {
                        if mask & (1 << l) != 0 {
                            dst[l] = lov[l];
                        }
                    }
                }
                let mut m = mask;
                loop {
                    m &= !self.returned;
                    if m == 0 {
                        break;
                    }
                    self.bump_iters()?;
                    self.charge(*ops as u64 * costs.compute_cycles_per_op, m);
                    let hiv = self.eval(hi, m)?;
                    let cur = self.env[*var as usize];
                    let mut next = 0u32;
                    for l in 0..LANES {
                        if m & (1 << l) != 0 && cur[l] < hiv[l] {
                            next |= 1 << l;
                        }
                    }
                    if next == 0 {
                        break;
                    }
                    self.exec(body, next)?;
                    let stepv = self.eval(step, next)?;
                    let dst = &mut self.env[*var as usize];
                    for l in 0..LANES {
                        if next & (1 << l) != 0 {
                            dst[l] = dst[l].wrapping_add(stepv[l]);
                        }
                    }
                    m = next;
                }
            }
            CStmt::Compute { units, ops } => {
                self.charge(*ops as u64 * costs.compute_cycles_per_op, mask);
                let u = self.eval(units, mask)?;
                let mut maxu = 0u64;
                let mut sum = 0u64;
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        let w = u[l].max(0) as u64;
                        maxu = maxu.max(w);
                        sum += w;
                    }
                }
                self.cur.cycles += maxu * costs.compute_cycles_per_op;
                self.cur.active += sum * costs.compute_cycles_per_op;
            }
            CStmt::Launch { target, grid, block, args, ops } => {
                self.charge(*ops as u64 * costs.compute_cycles_per_op, mask);
                let g = self.eval(grid, mask)?;
                let b = self.eval(block, mask)?;
                let mut argv: Vec<Lanes> = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, mask)?);
                }
                // One child grid per active lane; launches serialize, and each
                // lane is only active during its own launch — this is the warp
                // divergence penalty of per-thread nested launches.
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        let grid_l = launch_dim(&self.k.name, "grid", l, g[l])?;
                        let block_l = launch_dim(&self.k.name, "block", l, b[l])?;
                        self.cur.cycles += costs.device_launch_cycles;
                        self.cur.active += costs.device_launch_cycles;
                        // Collect straight into the shared `Arc<[i64]>` so the
                        // argument vector is allocated exactly once per launch.
                        let args: Arc<[i64]> = argv.iter().map(|v| v[l]).collect();
                        self.arena.push(LaunchSpec::with_shared_args(
                            self.ids[*target],
                            grid_l,
                            block_l,
                            args,
                        ));
                    }
                }
            }
            CStmt::Sync => {
                // The barrier cost itself is charged during block assembly
                // (per phase boundary), not per warp, to avoid double counting.
                self.cut(Boundary::Sync);
            }
            CStmt::DeviceSync => {
                // Any single warp of the block may device-sync; the block
                // assembly below segments the block around that warp's
                // boundary (two different warps syncing is rejected there).
                self.cut(Boundary::DeviceSync);
            }
            CStmt::Alloc { handle_slot, offset_slot, words, scope, site, ops } => {
                self.charge(*ops as u64 * costs.compute_cycles_per_op, mask);
                let w = self.eval(words, mask)?;
                let first = mask.trailing_zeros() as usize;
                let words_req = w[first].max(1) as u64;
                let kind = self.ctx.heap.kind;
                let (hv, ov) = match scope {
                    AllocScope::Warp => {
                        // The leader lane allocates; the warp waits.
                        self.cur.cycles += kind.op_cycles(costs);
                        self.cur.active += kind.op_cycles(costs);
                        let off = self.ctx.heap.alloc(words_req, costs)?;
                        (self.ctx.heap.array as i64, off as i64)
                    }
                    AllocScope::Block => {
                        if let Some(&(h, o)) = self.block_allocs.get(site) {
                            // Other warps wait at the implied barrier.
                            self.cur.cycles += kind.op_cycles(costs);
                            (h, o)
                        } else {
                            self.cur.cycles += kind.op_cycles(costs);
                            self.cur.active += kind.op_cycles(costs);
                            let off = self.ctx.heap.alloc(words_req, costs)?;
                            let pair = (self.ctx.heap.array as i64, off as i64);
                            self.block_allocs.insert(*site, pair);
                            pair
                        }
                    }
                };
                for (slot, val) in [(handle_slot, hv), (offset_slot, ov)] {
                    let dst = &mut self.env[*slot as usize];
                    for l in 0..LANES {
                        if mask & (1 << l) != 0 {
                            dst[l] = val;
                        }
                    }
                }
            }
            CStmt::Return => {
                self.returned |= mask;
            }
        }
        Ok(())
    }

    fn bump_iters(&mut self) -> Result<(), SimError> {
        // Charge the engine's functional fuel budget first: a limited meter
        // (the tuner's candidate watchdog) converts runaway loops into a
        // deterministic `SimError::FuelExhausted` long before the per-warp
        // safety valve below would trip.
        self.ctx.fuel.spend(1)?;
        self.iters += 1;
        if self.iters > MAX_WARP_ITERATIONS {
            return Err(self.fault(WARP_ITER_LIMIT_MSG));
        }
        Ok(())
    }

    fn resolve_addr(&self, handle: i64, index: i64) -> Result<(usize, usize), SimError> {
        resolve_addr(self.ctx.mem, handle, index)
    }

    /// Charge the warp-wide cost of one memory access group: coalesce into
    /// segments, replay the instruction per segment, and count DRAM traffic
    /// only for segments this block has not already fetched (block-scope
    /// cache reuse).
    fn mem_group_cost(&mut self, h: &Lanes, idx: &Lanes, mask: u32) -> Result<(), SimError> {
        let mut addrs = std::mem::take(&mut self.scratch);
        addrs.clear();
        for l in 0..LANES {
            if mask & (1 << l) != 0 {
                let (a, i) = self.resolve_addr(h[l], idx[l])?;
                addrs.push(self.ctx.mem.global_addr(a, i)?);
            }
        }
        let (cycles, new_tx) = charge_group_from_addrs(self.ctx, &mut addrs);
        self.scratch = addrs;
        self.cur.dram += new_tx;
        self.charge(cycles, mask);
        Ok(())
    }

    fn eval(&mut self, e: &CExpr, mask: u32) -> Result<Lanes, SimError> {
        let mut out = [0i64; LANES];
        match e {
            CExpr::I(v) => out = [*v; LANES],
            CExpr::Gtid => {
                let base = self.ctx.block_id as i64 * self.ctx.block_dim as i64
                    + (self.warp * WARP_SIZE) as i64;
                for (l, o) in out.iter_mut().enumerate() {
                    *o = base + l as i64;
                }
            }
            CExpr::Tid => {
                let base = (self.warp * WARP_SIZE) as i64;
                for (l, o) in out.iter_mut().enumerate() {
                    *o = base + l as i64;
                }
            }
            CExpr::CtaId => out = [self.ctx.block_id as i64; LANES],
            CExpr::NTid => out = [self.ctx.block_dim as i64; LANES],
            CExpr::NCta => out = [self.ctx.grid_dim as i64; LANES],
            CExpr::Depth => out = [self.ctx.depth as i64; LANES],
            CExpr::Arg(i) => out = [self.ctx.args[*i as usize]; LANES],
            CExpr::Var(s) => out = self.env[*s as usize],
            CExpr::Load(h, i) => {
                let hv = self.eval(h, mask)?;
                let iv = self.eval(i, mask)?;
                self.mem_group_cost(&hv, &iv, mask)?;
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        let (a, idx) = self.resolve_addr(hv[l], iv[l])?;
                        out[l] = self.ctx.mem.read(a, idx)?;
                    }
                }
            }
            CExpr::Un(op, a) => {
                let av = self.eval(a, mask)?;
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        out[l] = match op {
                            UnOp::Neg => av[l].wrapping_neg(),
                            UnOp::Not => (av[l] == 0) as i64,
                        };
                    }
                }
            }
            CExpr::Bin(op, a, b) if matches!(op, BinOp::LAnd | BinOp::LOr) => {
                // Short-circuit semantics per lane, as in CUDA C: the right
                // operand is only evaluated (and only charges memory costs)
                // for lanes the left operand does not decide.
                let av = self.eval(a, mask)?;
                let mut need = 0u32;
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        let decided = matches!(op, BinOp::LAnd) == (av[l] == 0);
                        if decided {
                            out[l] = (matches!(op, BinOp::LOr)) as i64;
                        } else {
                            need |= 1 << l;
                        }
                    }
                }
                if need != 0 {
                    let bv = self.eval(b, need)?;
                    for l in 0..LANES {
                        if need & (1 << l) != 0 {
                            out[l] = (bv[l] != 0) as i64;
                        }
                    }
                }
            }
            CExpr::Bin(op, a, b) => {
                let av = self.eval(a, mask)?;
                let bv = self.eval(b, mask)?;
                for l in 0..LANES {
                    if mask & (1 << l) != 0 {
                        out[l] =
                            scalar_binop(*op, av[l], bv[l]).map_err(|f| self.fault(f.message()))?;
                    }
                }
            }
        }
        Ok(out)
    }
}

// ------------------------------------------------------------------------
// Block assembly: warp traces -> segments with phase-aware durations.
// Shared by both executors — segment/phase assembly cannot diverge.
// ------------------------------------------------------------------------

/// Fold a block's warp traces into its segments, in one pass over the
/// chunks and without building per-block chunk lists.
///
/// A warp's trace is its `__syncthreads` phases in order; a phase that ends
/// at `cudaDeviceSynchronize` also ends a segment. At most one warp of a
/// block may device-sync, and that warp alone defines the segments: every
/// other warp's work lands in segment 0. So a block in which no warp synced
/// (nearly all of them) is one segment, whose launches are the arena in
/// issue order. Durations:
///
/// * segment 0 — when every warp has the same number of phases in it, the
///   sum over phases of the slowest warp's phase; otherwise the slowest
///   warp's serial total. Each phase boundary adds one `__syncthreads` cost.
/// * later segments — the syncing warp's serial total, same barrier rule.
pub(crate) fn assemble_block(
    k: &CKernel,
    ctx: &BlockCtx<'_>,
    traces: &[Vec<Chunk>],
    arena: &[LaunchSpec],
) -> Result<BlockResult, SimError> {
    let sync_cost = ctx.cost.syncthreads_cycles;
    let device_sync = |c: &Chunk| c.boundary == Boundary::DeviceSync;

    let mut syncing = traces.iter().enumerate().filter(|(_, t)| t.iter().any(device_sync));
    let sync_warp = syncing.next().map_or(0, |(w, _)| w);
    let more = syncing.count();
    if more > 0 {
        return Err(SimError::KernelFault {
            kernel: k.name.clone(),
            message: format!(
                "cudaDeviceSynchronize executed by {} warps of one block; the \
                 block-segmentation model supports at most one",
                more + 1
            ),
        });
    }
    let sync_trace = &traces[sync_warp];
    let nseg = sync_trace.iter().filter(|c| device_sync(c)).count()
        + usize::from(!sync_trace.last().is_some_and(device_sync));
    let mut segments = vec![SegmentResult::default(); nseg];

    // Segment 0's phases: a warp's chunks up to its first device sync.
    let seg0_len = |t: &[Chunk]| t.iter().position(device_sync).map_or(t.len(), |p| p + 1);
    let barriers = |phases: usize| sync_cost * phases.saturating_sub(1) as u64;
    let phases = seg0_len(&traces[0]);
    segments[0].duration = if traces.iter().all(|t| seg0_len(t) == phases) {
        (0..phases).map(|p| traces.iter().map(|t| t[p].cycles).max().unwrap_or(0)).sum::<u64>()
            + barriers(phases)
    } else {
        traces
            .iter()
            .map(|t| {
                let n = seg0_len(t);
                t[..n].iter().map(|c| c.cycles).sum::<u64>() + barriers(n)
            })
            .max()
            .unwrap_or(0)
    };

    for (w, trace) in traces.iter().enumerate() {
        let mut si = 0;
        let mut first_phase = true;
        for c in trace {
            let seg = &mut segments[si];
            seg.warp_cycles_sum += c.cycles;
            seg.active_thread_cycles += c.active;
            seg.thread_cycles_possible += c.cycles * u64::from(WARP_SIZE);
            seg.dram_transactions += c.dram;
            let (ls, le) = c.launches;
            seg.launches.extend_from_slice(&arena[ls as usize..le as usize]);
            if w == sync_warp {
                if si > 0 {
                    seg.duration += c.cycles + if first_phase { 0 } else { sync_cost };
                }
                first_phase = false;
                if device_sync(c) {
                    seg.ends_with_device_sync = true;
                    si += 1;
                    first_phase = true;
                }
            }
        }
    }

    Ok(BlockResult { segments })
}
