//! Flat bytecode lowering and VM for the functional phase.
//!
//! `lower_kernel` walks a compiled [`CKernel`] **once** — at module install,
//! not per block — into a flat `Vec<Op>` with explicit jump targets:
//! `If`/`While`/`For` become conditional branches over pre-resolved register
//! indices, short-circuit `&&`/`||` become mask-switching skip branches, and
//! per-statement ops-costs are folded into `Charge`/`LoopIter` opcodes. The
//! VM then executes each warp as a tight `pc`-dispatch loop with no
//! recursion, no boxed-node matching, and no per-statement allocation.
//! There is one lowering and one op set: the VM runs exactly the ops
//! `lower_kernel` emits, with no peephole pass over them.
//!
//! Warp state is a register file in SoA layout: one `[i64; 32]` lane row per
//! register, in three bands:
//!
//! * `0..n_slots` — the kernel's variable slots, zeroed per warp like the
//!   tree walker's fresh `env`;
//! * `n_slots..n_slots + params` — the kernel arguments, splatted once per
//!   block and never written, so an argument read is a register operand
//!   exactly like a variable read (no op at all);
//! * the rest — expression temporaries assigned stack-wise at lowering time
//!   (always written before read, so they carry over between warps).
//!
//! Fixed-size rows keep lane loops bounds-check-free, and pure ops evaluate
//! full-width when the warp is full so they vectorize; with a partial mask
//! they write only active lanes. That last property is what lets an
//! assignment `x = e` evaluate straight into `x`'s slot when `e`'s final op
//! is a `Load`, `Un` or non-short-circuit `Bin`/`BinImm`; the splats
//! (`Imm`, `Sp`) and the short-circuit pair still go through a temporary
//! plus `CopyMasked`. Div/Rem keep a masked faulting path either way: they
//! compute every active lane into a local before writing any, so a fault
//! leaves the destination untouched.
//!
//! Source rows are read in place, never copied: lane `l` of an op reads only
//! lane `l` of its operands before writing lane `l` of its destination, so
//! the destination may be one of the sources. A 256-byte row copy per
//! operand was a `memmove` call, most of an op's cost on a 30-op warp.
//!
//! Ops that need one answer about a whole row ask it as a reduction, not a
//! lane bitmask: "do all active lanes hold `v`?" is an OR of `x ^ v`. The
//! default x86-64 target has no 64-bit vector compare, so a packed
//! `(x == v) << l` mask costs 32 scalar compares, while the XOR-OR reduction
//! is SSE2 `pxor`/`por`.
//!
//! Memory ops do shared work once per warp. When every active lane of an
//! access resolves to the same `(array, index)` — parent state like `row[u]`
//! read by a whole consolidated warp — `group_cost` says so and `Load` reads
//! the cell once and splats it into the active lanes, `Store` writes once
//! with the highest active lane's value (the value lane-order stores would
//! leave), and `Atomic` folds the lanes in lane order over one read and one
//! write. The register file, launch arena, chunk buffers and the VM's
//! counters (`ir.vm.*`, flushed to the metrics registry once per block)
//! live in thread-local scratch reused across blocks, so the capture hot
//! loop stops churning the allocator.
//!
//! Lowering also asks `guard.rs` for two loop shapes, and for each the VM
//! runs until the first block or warp that never entered its loop, then
//! copies it. A consolidated child's item-fetch loop (a block-uniform
//! prefix, the item slot set from `blockIdx.x` or the global thread id, and
//! a final `while (item < bound)` that cannot return) gets the idle-block
//! rule: `run_block_with` sets `BlockCtx::idle` when every warp of the
//! block, run or copied, spent exactly one loop step, the `while`'s failing
//! first test, and the engine copies that block's result and fuel to the
//! rest of the launch. A solo-block item loop (around one
//! `for (j = threadIdx.x; j < bound; ...)`, only warp-uniform assignments
//! and `__syncthreads`) gets the empty-warp rule. Its `ForCond` is the only
//! op that writes its iteration-mask slot, and only when a lane enters, so
//! `run_block_with` zeroes that slot before each warp and reads it after:
//! the first warp that left it 0 and recorded no new DRAM transaction is an
//! empty warp, and every later warp with as many lanes copies its chunk
//! trace (into a `trace_pool` buffer) and spends its fuel instead of
//! running. Neither rule adds an op; the recursive templates (they
//! allocate and zero the next level's buffer before the loop) get neither.
//!
//! Equivalence with the tree walker in [`crate::interp`] is a hard contract:
//! both executors share the scalar semantics (`scalar_binop`, `launch_dim`,
//! `resolve_addr`, `charge_group_from_addrs`) and the block assembly
//! (`assemble_block`), and `crates/sim/tests/bytecode_equivalence.rs` pins
//! bit-identical `ExecRecord` DAGs, memory, cycle/active/dram counters, and
//! fuel accounting across all apps and variants.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use dpcons_sim::{obs, BlockCtx, BlockResult, KernelId, LaunchSpec, SimError, WARP_SIZE};

use crate::ast::{AllocScope, AtomicOp, BinOp, UnOp};
use crate::compile::{CExpr, CKernel, CModule, CStmt};
use crate::guard;
use crate::interp::{
    assemble_block, charge_group_from_addrs, launch_dim, resolve_addr, scalar_binop,
    scalar_binop_total, Boundary, Chunk, Lanes, LANES, MAX_WARP_ITERATIONS, WARP_ITER_LIMIT_MSG,
};

/// Sentinel register index meaning "absent" (`Atomic.old`, `Atomic.v2`).
const NONE_REG: u16 = u16::MAX;

/// Warp-invariant special values (lane-indexed at execution time).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Special {
    Gtid,
    Tid,
    CtaId,
    NTid,
    NCta,
    Depth,
}

/// One bytecode instruction. Register operands index the SoA register file
/// (`reg * 32 + lane`); jump targets are absolute instruction indices.
///
/// Mask-manipulating ops use `save` indices into a small per-warp mask-slot
/// array, statically assigned by nesting depth at lowering time (an `If`
/// holds its entry mask and else mask, a `For` its entry mask and
/// iteration mask, and so on) — the VM never needs a dynamic mask stack.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `dst = imm` in all 32 lanes.
    Imm { dst: u16, v: i64 },
    /// `dst = special` in all 32 lanes.
    Sp { dst: u16, s: Special },
    /// `dst = src` in active lanes.
    CopyMasked { dst: u16, src: u16 },
    /// `dst = op a` in active lanes.
    Un { dst: u16, op: UnOp, a: u16 },
    /// `dst = a op b` in active lanes (shared `scalar_binop` semantics).
    Bin { dst: u16, op: BinOp, a: u16, b: u16 },
    /// `dst = a op imm` in active lanes: a constant RHS folded at lowering,
    /// skipping the `Imm` splat and its temporary (never `Div`/`Rem`).
    BinImm { dst: u16, op: BinOp, a: u16, v: i64 },
    /// Coalesced-cost group + `dst = mem[h[i]]` in active lanes (one read
    /// when they all hit one site).
    Load { dst: u16, h: u16, i: u16 },
    /// Short-circuit split: decided lanes get the constant result in `dst`;
    /// lanes still needing the RHS become the active mask (entry mask saved
    /// at `save`). If no lane needs the RHS, jump to `skip`.
    ScSplit { dst: u16, a: u16, is_and: bool, save: u16, skip: u32 },
    /// Short-circuit join: `dst = (b != 0)` in active lanes, restore mask.
    ScEnd { dst: u16, b: u16, save: u16 },
    /// Charge `ops * compute_cycles_per_op` under the active mask.
    Charge { ops: u32 },
    /// Statement-list re-check after a possible `Return`: drop returned
    /// lanes; if the mask drains, jump to the list end.
    SeqCheck { end: u32 },
    /// Coalesced-cost group + `mem[h[i]] = v` in active lanes (one write
    /// when they all hit one site).
    Store { h: u16, i: u16, v: u16 },
    /// Atomic read-modify-write, serialized in lane order.
    Atomic { op: AtomicOp, old: u16, h: u16, i: u16, v: u16, v2: u16 },
    /// Data-dependent compute: warp takes the lane max, lanes charge their own.
    Compute { units: u16 },
    /// Per-active-lane device-side child launch; `n_args` consecutive
    /// registers starting at `args_at` hold the argument vector.
    Launch { target: u16, grid: u16, block: u16, args_at: u16, n_args: u16 },
    /// `__syncthreads`: cut a phase boundary.
    Sync,
    /// `cudaDeviceSynchronize`: cut a segment boundary.
    DeviceSync,
    /// Device-side heap allocation (warp- or block-scope).
    Alloc { handle_slot: u16, offset_slot: u16, words: u16, scope: AllocScope, site: u32 },
    /// Retire the active lanes.
    Return,
    /// Evaluate an `if`: save entry/else masks, activate the then-mask, or
    /// jump to `else_to` when no lane takes the then-path.
    IfSplit { c: u16, save: u16, else_to: u32 },
    /// Between then- and else-body: activate the saved else mask, or jump
    /// to `end` when it is empty.
    ElseJoin { save: u16, end: u32 },
    /// After an `if`: restore the entry mask.
    EndIf { save: u16 },
    /// `masks[save] = mask` (loop entry).
    SaveMask { save: u16 },
    /// `mask = masks[save]` (loop exit / for-step entry).
    LoadMask { save: u16 },
    /// Top of a loop iteration: drop returned lanes (exit if drained),
    /// spend fuel, bump the iteration safety valve, charge the loop's ops.
    LoopIter { ops: u32, exit: u32 },
    /// `while` condition: keep lanes where `c != 0`, exit if none.
    CondLoop { c: u16, exit: u32 },
    /// `for` condition: keep lanes where `var < hi`, save the iteration
    /// mask at `save`, exit if none.
    ForCond { var: u16, hi: u16, save: u16, exit: u32 },
    /// [`Op::ForCond`] against a constant bound: skips the per-iteration
    /// `Imm` splat a literal `hi` would otherwise re-emit every trip.
    ForCondI { var: u16, hi: i64, save: u16, exit: u32 },
    /// `var += step` in active lanes.
    ForStep { var: u16, step: u16 },
    /// `var += imm` in active lanes (constant step folded at lowering).
    ForStepI { var: u16, step: i64 },
    /// Unconditional branch.
    Jump { to: u32 },
}

/// A kernel lowered to flat bytecode, produced once per module install.
#[derive(Debug, Clone)]
pub struct ByteKernel {
    pub(crate) ops: Vec<Op>,
    pub(crate) n_slots: u16,
    /// Register-file size: variable slots + arguments + peak temporaries.
    pub(crate) n_regs: u16,
    /// Mask-slot array size: peak static nesting depth.
    pub(crate) n_masks: u16,
    /// The body is a consolidated child's item-fetch loop (`guard.rs`): a
    /// block whose warps each spent one loop step never entered it.
    pub(crate) fetch_loop: bool,
    /// The mask slot the item loop's `ForCond` alone writes, and only when a
    /// lane enters the loop, when the body has the empty-warp shape
    /// (`guard.rs`): a warp that leaves it 0 never entered the loop.
    pub(crate) item_loop_mask: Option<u16>,
}

impl ByteKernel {
    /// Number of lowered instructions (introspection for tests/tools).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Does the VM copy a launch's first idle block to the later ones (its
    /// body is the item-fetch loop of a consolidated child: see `guard.rs`)?
    pub fn has_idle_block_rule(&self) -> bool {
        self.fetch_loop
    }

    /// Does the VM skip a block's repeated empty warps (its body is a
    /// solo-block item loop: see `guard.rs`)?
    pub fn has_empty_warp_rule(&self) -> bool {
        self.item_loop_mask.is_some()
    }
}

/// Lower every kernel of a compiled module.
pub fn lower_module(cm: &CModule) -> Vec<ByteKernel> {
    cm.kernels.iter().map(lower_kernel).collect()
}

/// No-op, kept only so existing callers still build: lowering has a single
/// op set, so there is nothing left to switch. The standalone benchmark's
/// `ir.exec_ms.unfused` probe still calls it; the two go together.
#[doc(hidden)]
pub fn set_fusion_override(_on: Option<bool>) {}

/// Lower one compiled kernel into flat bytecode.
pub fn lower_kernel(k: &CKernel) -> ByteKernel {
    let temps = k.n_slots + k.param_kinds.len() as u16;
    let mut lw = Lowerer {
        ops: Vec::new(),
        n_slots: k.n_slots,
        tp: temps,
        max_tp: temps,
        mask_depth: 0,
        max_masks: 0,
    };
    let checks = lw.lower_list(&k.body);
    let end = lw.pc();
    lw.patch_checks(checks, end);
    let item_loop_mask = guard::item_loop(k).and_then(|j| entry_mask(&lw.ops, j));
    ByteKernel {
        ops: lw.ops,
        n_slots: k.n_slots,
        n_regs: lw.max_tp,
        n_masks: lw.max_masks,
        fetch_loop: guard::fetch_loop(k),
        item_loop_mask,
    }
}

/// The mask slot that records whether a warp entered the one `for` over
/// variable `var`: its `ForCond` saves the iteration mask there only when a
/// lane enters. `None` unless exactly one `ForCond` tests `var` and no
/// other op writes that slot.
fn entry_mask(ops: &[Op], var: u16) -> Option<u16> {
    let mut conds = ops.iter().filter_map(|op| match *op {
        Op::ForCond { var: v, save, .. } | Op::ForCondI { var: v, save, .. } if v == var => {
            Some(save)
        }
        _ => None,
    });
    let (Some(slot), None) = (conds.next(), conds.next()) else { return None };
    let writes = |op: &Op| match *op {
        Op::IfSplit { save, .. } => save == slot || save + 1 == slot,
        Op::ScSplit { save, .. }
        | Op::SaveMask { save }
        | Op::ForCond { save, .. }
        | Op::ForCondI { save, .. } => save == slot,
        _ => false,
    };
    (ops.iter().filter(|op| writes(op)).count() == 1).then_some(slot)
}

/// Can executing these statements set the warp's `returned` mask? Lists where
/// no prefix can return skip the `SeqCheck` re-checks entirely.
pub(crate) fn stmt_can_return(s: &CStmt) -> bool {
    match s {
        CStmt::Return => true,
        CStmt::If { then, els, .. } => {
            then.iter().any(stmt_can_return) || els.iter().any(stmt_can_return)
        }
        CStmt::While { body, .. } | CStmt::For { body, .. } => body.iter().any(stmt_can_return),
        _ => false,
    }
}

/// Does `e`'s final op write only the active lanes of its destination? Then
/// an assignment can evaluate straight into the variable's slot: every
/// operand (the slot itself included) is read before that op writes it.
fn writes_active_lanes_only(e: &CExpr) -> bool {
    match e {
        CExpr::Load(..) | CExpr::Un(..) => true,
        CExpr::Bin(op, ..) => !matches!(op, BinOp::LAnd | BinOp::LOr),
        _ => false,
    }
}

struct Lowerer {
    ops: Vec<Op>,
    /// Arguments live in registers `n_slots..`, right above the variables.
    n_slots: u16,
    /// Next free register (temporaries live above the argument registers).
    tp: u16,
    max_tp: u16,
    /// Next free mask slot (static nesting depth).
    mask_depth: u16,
    max_masks: u16,
}

impl Lowerer {
    fn pc(&self) -> u32 {
        self.ops.len() as u32
    }

    fn emit(&mut self, op: Op) -> u32 {
        self.ops.push(op);
        self.ops.len() as u32 - 1
    }

    fn charge(&mut self, ops: u32) {
        if ops > 0 {
            self.emit(Op::Charge { ops });
        }
    }

    fn alloc_masks(&mut self, n: u16) -> u16 {
        let base = self.mask_depth;
        self.mask_depth += n;
        self.max_masks = self.max_masks.max(self.mask_depth);
        base
    }

    fn alloc_temp(&mut self) -> u16 {
        let dst = self.tp;
        self.tp += 1;
        self.max_tp = self.max_tp.max(self.tp);
        dst
    }

    /// Lower an expression; returns the register holding the result. A
    /// variable or argument already lives in a register (read-only during
    /// expression evaluation), so it needs no op and no copy.
    fn lower_expr(&mut self, e: &CExpr) -> u16 {
        match e {
            CExpr::Var(s) => return *s,
            CExpr::Arg(i) => return self.n_slots + *i,
            _ => {}
        }
        let dst = self.alloc_temp();
        self.emit_expr(e, dst);
        // Children's temporaries are dead now; only `dst` stays live.
        self.tp = dst + 1;
        dst
    }

    /// Lower an expression into a caller-chosen register (used where results
    /// must land in consecutive registers, e.g. launch argument vectors).
    fn lower_expr_into(&mut self, e: &CExpr, dst: u16) {
        self.emit_expr(e, dst);
        self.tp = dst + 1;
    }

    fn emit_expr(&mut self, e: &CExpr, dst: u16) {
        match e {
            CExpr::I(v) => {
                self.emit(Op::Imm { dst, v: *v });
            }
            CExpr::Gtid => {
                self.emit(Op::Sp { dst, s: Special::Gtid });
            }
            CExpr::Tid => {
                self.emit(Op::Sp { dst, s: Special::Tid });
            }
            CExpr::CtaId => {
                self.emit(Op::Sp { dst, s: Special::CtaId });
            }
            CExpr::NTid => {
                self.emit(Op::Sp { dst, s: Special::NTid });
            }
            CExpr::NCta => {
                self.emit(Op::Sp { dst, s: Special::NCta });
            }
            CExpr::Depth => {
                self.emit(Op::Sp { dst, s: Special::Depth });
            }
            CExpr::Var(s) => {
                self.emit(Op::CopyMasked { dst, src: *s });
            }
            CExpr::Arg(i) => {
                self.emit(Op::CopyMasked { dst, src: self.n_slots + *i });
            }
            CExpr::Load(h, i) => {
                let rh = self.lower_expr(h);
                let ri = self.lower_expr(i);
                self.emit(Op::Load { dst, h: rh, i: ri });
            }
            CExpr::Un(op, a) => {
                let ra = self.lower_expr(a);
                self.emit(Op::Un { dst, op: *op, a: ra });
            }
            CExpr::Bin(op, a, b) if matches!(op, BinOp::LAnd | BinOp::LOr) => {
                // Short-circuit: the RHS only executes (and only charges
                // memory costs) under the lanes the LHS does not decide.
                let ra = self.lower_expr(a);
                let save = self.alloc_masks(1);
                let split = self.emit(Op::ScSplit {
                    dst,
                    a: ra,
                    is_and: matches!(op, BinOp::LAnd),
                    save,
                    skip: 0,
                });
                let rb = self.lower_expr(b);
                self.emit(Op::ScEnd { dst, b: rb, save });
                let end = self.pc();
                if let Op::ScSplit { skip, .. } = &mut self.ops[split as usize] {
                    *skip = end;
                }
                self.mask_depth = save;
            }
            CExpr::Bin(op, a, b) => {
                // Constant RHS folds into the op itself (`BinImm`) for the
                // total ops; `Div`/`Rem` keep the generic faulting path.
                if let CExpr::I(v) = b.as_ref() {
                    if !matches!(op, BinOp::Div | BinOp::Rem) {
                        let ra = self.lower_expr(a);
                        self.emit(Op::BinImm { dst, op: *op, a: ra, v: *v });
                        return;
                    }
                }
                let ra = self.lower_expr(a);
                let rb = self.lower_expr(b);
                self.emit(Op::Bin { dst, op: *op, a: ra, b: rb });
            }
        }
    }

    /// Lower a statement list; returns the emitted `SeqCheck` pcs so the
    /// caller can patch them to the list's end (which the caller only knows
    /// once it has emitted the construct's join/exit op).
    fn lower_list(&mut self, stmts: &[CStmt]) -> Vec<u32> {
        let mut checks = Vec::new();
        let mut can_ret = false;
        for s in stmts {
            if can_ret {
                checks.push(self.emit(Op::SeqCheck { end: 0 }));
            }
            self.lower_stmt(s);
            can_ret = can_ret || stmt_can_return(s);
        }
        checks
    }

    fn patch_checks(&mut self, checks: Vec<u32>, target: u32) {
        for pc in checks {
            if let Op::SeqCheck { end } = &mut self.ops[pc as usize] {
                *end = target;
            }
        }
    }

    fn lower_stmt(&mut self, s: &CStmt) {
        let tp0 = self.tp;
        match s {
            CStmt::Assign { slot, value, ops } => {
                self.charge(*ops);
                if writes_active_lanes_only(value) {
                    self.emit_expr(value, *slot);
                } else {
                    let r = self.lower_expr(value);
                    self.emit(Op::CopyMasked { dst: *slot, src: r });
                }
            }
            CStmt::Store { handle, index, value, ops } => {
                self.charge(*ops);
                let rh = self.lower_expr(handle);
                let ri = self.lower_expr(index);
                let rv = self.lower_expr(value);
                self.emit(Op::Store { h: rh, i: ri, v: rv });
            }
            CStmt::Atomic { op, old, handle, index, value, value2, ops } => {
                self.charge(*ops);
                let rh = self.lower_expr(handle);
                let ri = self.lower_expr(index);
                let rv = self.lower_expr(value);
                let rv2 = match value2 {
                    Some(v) => self.lower_expr(v),
                    None => NONE_REG,
                };
                self.emit(Op::Atomic {
                    op: *op,
                    old: old.unwrap_or(NONE_REG),
                    h: rh,
                    i: ri,
                    v: rv,
                    v2: rv2,
                });
            }
            CStmt::If { cond, then, els, ops } => {
                self.charge(*ops);
                let rc = self.lower_expr(cond);
                let save = self.alloc_masks(2);
                let split = self.emit(Op::IfSplit { c: rc, save, else_to: 0 });
                let then_checks = self.lower_list(then);
                if els.is_empty() {
                    let endif = self.emit(Op::EndIf { save });
                    if let Op::IfSplit { else_to, .. } = &mut self.ops[split as usize] {
                        *else_to = endif;
                    }
                    self.patch_checks(then_checks, endif);
                } else {
                    let else_join = self.emit(Op::ElseJoin { save, end: 0 });
                    if let Op::IfSplit { else_to, .. } = &mut self.ops[split as usize] {
                        *else_to = else_join;
                    }
                    self.patch_checks(then_checks, else_join);
                    let else_checks = self.lower_list(els);
                    let endif = self.emit(Op::EndIf { save });
                    if let Op::ElseJoin { end, .. } = &mut self.ops[else_join as usize] {
                        *end = endif;
                    }
                    self.patch_checks(else_checks, endif);
                }
                self.mask_depth = save;
            }
            CStmt::While { cond, body, ops } => {
                let save = self.alloc_masks(1);
                self.emit(Op::SaveMask { save });
                let head = self.pc();
                let iter = self.emit(Op::LoopIter { ops: *ops, exit: 0 });
                let rc = self.lower_expr(cond);
                let cl = self.emit(Op::CondLoop { c: rc, exit: 0 });
                let checks = self.lower_list(body);
                let back = self.emit(Op::Jump { to: head });
                let exit = self.emit(Op::LoadMask { save });
                if let Op::LoopIter { exit: e, .. } = &mut self.ops[iter as usize] {
                    *e = exit;
                }
                if let Op::CondLoop { exit: e, .. } = &mut self.ops[cl as usize] {
                    *e = exit;
                }
                self.patch_checks(checks, back);
                self.mask_depth = save;
            }
            CStmt::For { var, lo, hi, step, body, ops } => {
                let rlo = self.lower_expr(lo);
                self.emit(Op::CopyMasked { dst: *var, src: rlo });
                self.tp = tp0;
                let save = self.alloc_masks(2);
                self.emit(Op::SaveMask { save });
                let head = self.pc();
                let iter = self.emit(Op::LoopIter { ops: *ops, exit: 0 });
                // A literal bound would re-splat an `Imm` every iteration;
                // fold it into the condition op instead.
                let fc = if let CExpr::I(v) = hi {
                    self.emit(Op::ForCondI { var: *var, hi: *v, save: save + 1, exit: 0 })
                } else {
                    let rhi = self.lower_expr(hi);
                    self.emit(Op::ForCond { var: *var, hi: rhi, save: save + 1, exit: 0 })
                };
                let checks = self.lower_list(body);
                // The step executes under the full iteration mask — including
                // lanes that returned inside the body, exactly like the tree
                // walker — so restore it before evaluating the step.
                let step_pc = self.emit(Op::LoadMask { save: save + 1 });
                self.tp = tp0;
                if let CExpr::I(v) = step {
                    self.emit(Op::ForStepI { var: *var, step: *v });
                } else {
                    let rstep = self.lower_expr(step);
                    self.emit(Op::ForStep { var: *var, step: rstep });
                }
                self.emit(Op::Jump { to: head });
                let exit = self.emit(Op::LoadMask { save });
                if let Op::LoopIter { exit: e, .. } = &mut self.ops[iter as usize] {
                    *e = exit;
                }
                match &mut self.ops[fc as usize] {
                    Op::ForCond { exit: e, .. } | Op::ForCondI { exit: e, .. } => *e = exit,
                    _ => unreachable!("fc indexes the ForCond just emitted"),
                }
                self.patch_checks(checks, step_pc);
                self.mask_depth = save;
            }
            CStmt::Compute { units, ops } => {
                self.charge(*ops);
                let ru = self.lower_expr(units);
                self.emit(Op::Compute { units: ru });
            }
            CStmt::Launch { target, grid, block, args, ops } => {
                self.charge(*ops);
                let rg = self.lower_expr(grid);
                let rb = self.lower_expr(block);
                let args_at = self.tp;
                for a in args {
                    let dst = self.alloc_temp();
                    self.lower_expr_into(a, dst);
                }
                let target = u16::try_from(*target).expect("module kernel index fits u16");
                self.emit(Op::Launch {
                    target,
                    grid: rg,
                    block: rb,
                    args_at,
                    n_args: args.len() as u16,
                });
            }
            CStmt::Sync => {
                self.emit(Op::Sync);
            }
            CStmt::DeviceSync => {
                self.emit(Op::DeviceSync);
            }
            CStmt::Alloc { handle_slot, offset_slot, words, scope, site, ops } => {
                self.charge(*ops);
                let rw = self.lower_expr(words);
                self.emit(Op::Alloc {
                    handle_slot: *handle_slot,
                    offset_slot: *offset_slot,
                    words: rw,
                    scope: *scope,
                    site: *site,
                });
            }
            CStmt::Return => {
                self.emit(Op::Return);
            }
        }
        self.tp = tp0;
    }
}

// ------------------------------------------------------------------------
// Execution.
// ------------------------------------------------------------------------

/// Reusable per-thread scratch: the bytecode VM's register file (variable
/// slots, argument registers, temporaries — see the module header), mask
/// slots, launch arena, bookkeeping maps and counters persist across
/// `run_block` calls so the hot functional loop stops paying one allocator
/// round-trip per block. Capture is single-threaded per engine (the tuner
/// parallelizes across engines on separate threads), so thread-local reuse
/// is exact.
struct Scratch {
    regs: Vec<Lanes>,
    masks: Vec<u32>,
    arena: Vec<LaunchSpec>,
    addrs: Vec<u64>,
    block_allocs: HashMap<u32, (i64, i64)>,
    /// Per-warp chunk traces of the block in flight; the buffers (and their
    /// capacity) are recycled across blocks via `trace_pool`.
    traces: Vec<Vec<Chunk>>,
    trace_pool: Vec<Vec<Chunk>>,
    counts: VmCounts,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::new(Scratch {
        regs: Vec::new(),
        masks: Vec::new(),
        arena: Vec::new(),
        addrs: Vec::with_capacity(LANES),
        block_allocs: HashMap::new(),
        traces: Vec::new(),
        trace_pool: Vec::new(),
        counts: VmCounts::default(),
    });
}

/// What the VM did, as plain integers bumped in the hot loop and added to
/// the metrics registry once per block ([`VmCounts::flush`]), never per op.
#[derive(Default)]
struct VmCounts {
    /// `ir.vm.ops`: instructions dispatched.
    ops: u64,
    /// `ir.vm.ops_full_warp`: those dispatched with all 32 lanes active.
    ops_full_warp: u64,
    /// `ir.vm.mem_groups`: warp memory accesses costed (`Load`, `Store`,
    /// `Atomic`).
    mem_groups: u64,
    /// `ir.vm.mem_groups_single_site`: those where every active lane hit
    /// one `(array, index)`, so the op touched memory once.
    single_site: u64,
    /// `ir.vm.empty_warps`: warps that copied an empty warp's trace instead
    /// of running (`guard.rs`).
    empty_warps: u64,
}

impl VmCounts {
    fn flush(&mut self) {
        static COUNTERS: OnceLock<[&'static obs::Counter; 5]> = OnceLock::new();
        let [ops, full, groups, single, empty] = COUNTERS.get_or_init(|| {
            [
                obs::counter("ir.vm.ops"),
                obs::counter("ir.vm.ops_full_warp"),
                obs::counter("ir.vm.mem_groups"),
                obs::counter("ir.vm.mem_groups_single_site"),
                obs::counter("ir.vm.empty_warps"),
            ]
        });
        ops.add(self.ops);
        full.add(self.ops_full_warp);
        groups.add(self.mem_groups);
        single.add(self.single_site);
        empty.add(self.empty_warps);
        *self = VmCounts::default();
    }
}

/// Execute one block through the bytecode VM. Mirrors the tree walker's
/// `run_block_tree` exactly; all per-warp state lives in thread-local scratch
/// buffers reused across warps and blocks.
pub(crate) fn run_block(
    k: &CKernel,
    bk: &ByteKernel,
    ids: &[KernelId],
    ctx: &mut BlockCtx<'_>,
) -> Result<BlockResult, SimError> {
    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        let r = run_block_with(k, bk, ids, ctx, s);
        s.counts.flush();
        r
    })
}

fn run_block_with(
    k: &CKernel,
    bk: &ByteKernel,
    ids: &[KernelId],
    ctx: &mut BlockCtx<'_>,
    s: &mut Scratch,
) -> Result<BlockResult, SimError> {
    let warps = ctx.block_dim.div_ceil(WARP_SIZE);
    let n_slots = bk.n_slots as usize;
    // Grow-only buffers: stale register and mask contents are unobservable
    // (temps and mask slots are written before every read, the argument
    // registers just below, and the variable slots `0..n_slots` are
    // re-zeroed per warp).
    if s.regs.len() < bk.n_regs as usize {
        s.regs.resize(bk.n_regs as usize, [0; LANES]);
    }
    if s.masks.len() < bk.n_masks as usize {
        s.masks.resize(bk.n_masks as usize, 0);
    }
    // Argument registers: splatted once here, read-only for every warp.
    for (r, &a) in s.regs[n_slots..].iter_mut().zip(ctx.args) {
        *r = [a; LANES];
    }
    s.arena.clear();
    s.block_allocs.clear();
    // Recycle last block's chunk buffers: emptied, capacity kept.
    for mut t in s.traces.drain(..) {
        t.clear();
        s.trace_pool.push(t);
    }
    // The first empty warp (`guard.rs`): its index, lane count and fuel.
    let mut empty: Option<(usize, u32, u64)> = None;
    // A fetch-loop block is idle when each warp, run or copied, spent one
    // loop step: the `while`'s failing first test.
    let mut idle = bk.fetch_loop;
    for w in 0..warps {
        let nlanes = (ctx.block_dim - w * WARP_SIZE).min(WARP_SIZE);
        if let Some((t, n, fuel)) = empty {
            if n == nlanes {
                ctx.fuel.spend(fuel)?;
                idle &= fuel == 1;
                let mut chunks = s.trace_pool.pop().unwrap_or_default();
                chunks.extend_from_slice(&s.traces[t]);
                s.traces.push(chunks);
                s.counts.empty_warps += 1;
                continue;
            }
        }
        if let Some(m) = bk.item_loop_mask {
            s.masks[m as usize] = 0;
        }
        // Variable slots start zeroed per warp (the tree walker's fresh
        // `env`); temporaries are always written before read and carry over.
        s.regs[..n_slots].fill([0; LANES]);
        let mask = if nlanes >= WARP_SIZE { u32::MAX } else { (1u32 << nlanes) - 1 };
        let chunk_launch_start = s.arena.len() as u32;
        let chunks = s.trace_pool.pop().unwrap_or_default();
        let mut vm = Vm {
            ctx,
            kname: &k.name,
            ids,
            warp: w,
            regs: &mut s.regs,
            masks: &mut s.masks,
            arena: &mut s.arena,
            addrs: &mut s.addrs,
            block_allocs: &mut s.block_allocs,
            counts: &mut s.counts,
            mask,
            returned: 0,
            iters: 0,
            cur: Chunk::default(),
            chunk_launch_start,
            chunks,
            single_site: false,
            sites: [(0, 0); LANES],
        };
        vm.run(&bk.ops)?;
        // `LoopIter` spends one step of fuel per iteration it counts.
        let fuel = vm.iters;
        idle &= fuel == 1;
        let trace = vm.finish();
        if let (Some(m), None) = (bk.item_loop_mask, empty) {
            if s.masks[m as usize] == 0 && trace.iter().all(|c| c.dram == 0) {
                empty = Some((s.traces.len(), nlanes, fuel));
            }
        }
        s.traces.push(trace);
    }
    ctx.idle = idle;
    assemble_block(k, ctx, &s.traces, &s.arena)
}

struct Vm<'a, 'b, 'c> {
    ctx: &'a mut BlockCtx<'b>,
    kname: &'a str,
    ids: &'a [KernelId],
    warp: u32,
    /// SoA register file: one 32-lane row per register. Fixed-size rows keep
    /// the lane loops bounds-check-free and let the pure ops vectorize; ops
    /// index source rows in place (`regs[a][l]`) rather than copying them
    /// out, so a destination may alias a source.
    regs: &'c mut [Lanes],
    /// Static mask slots (see [`Op`]).
    masks: &'c mut [u32],
    arena: &'c mut Vec<LaunchSpec>,
    addrs: &'c mut Vec<u64>,
    block_allocs: &'c mut HashMap<u32, (i64, i64)>,
    counts: &'c mut VmCounts,
    mask: u32,
    returned: u32,
    iters: u64,
    cur: Chunk,
    chunk_launch_start: u32,
    chunks: Vec<Chunk>,
    /// Set by the last [`Vm::group_cost`] when every active lane resolved to
    /// one `(array, index)`, held in `sites[0]` alone.
    single_site: bool,
    /// Per-lane `(array, index)` pairs resolved by the last [`Vm::group_cost`]
    /// call; `Load`/`Store`/`Atomic` reuse them via the validated accessors
    /// instead of re-resolving (and re-bounds-checking) every lane.
    sites: [(usize, usize); LANES],
}

/// Full-width `r[d] = r[a] op rhs(r, l)` over all 32 lanes, active or not,
/// reading the sources in place: lane `l` reads only lane `l` of `r[a]` (and
/// of whatever row `rhs` reads) before writing lane `l` of `r[d]`, so `d`
/// may equal either source. Sound for every op except `Div`/`Rem`:
/// [`scalar_binop_total`] cannot fault on the garbage in inactive lanes, and
/// inactive lanes of an expression temporary are never observed. The op
/// match sits **outside** the lane loop so each arm monomorphizes — and the
/// loop vectorizes — the shared scalar semantics.
#[inline]
fn vector_binop(
    op: BinOp,
    r: &mut [Lanes],
    d: usize,
    a: usize,
    rhs: impl Fn(&[Lanes], usize) -> i64,
) {
    macro_rules! arms {
        ($($v:ident),* $(,)?) => {
            match op {
                BinOp::Div | BinOp::Rem => {
                    unreachable!("Div/Rem take the masked faulting path")
                }
                $(BinOp::$v => {
                    for l in 0..LANES {
                        r[d][l] = scalar_binop_total(BinOp::$v, r[a][l], rhs(r, l));
                    }
                })*
            }
        };
    }
    arms!(Add, Sub, Mul, Min, Max, And, Or, Xor, Shl, Shr, Eq, Ne, Lt, Le, Gt, Ge, LAnd, LOr)
}

/// The value an atomic leaves in a cell holding `old` (the `GlobalMem`
/// `atomic_*` semantics); `desired` is `Cas`'s second operand, read only
/// for `Cas`.
#[inline]
fn atomic_update(op: AtomicOp, old: i64, val: i64, desired: impl FnOnce() -> i64) -> i64 {
    match op {
        AtomicOp::Add => old.wrapping_add(val),
        AtomicOp::Min => old.min(val),
        AtomicOp::Max => old.max(val),
        AtomicOp::Exch => val,
        AtomicOp::Cas if old == val => desired(),
        AtomicOp::Cas => old,
    }
}

/// Bitmask of lanes whose row value is nonzero (all 32 lanes; callers AND
/// with the active mask, so garbage in inactive lanes drops out).
#[inline]
fn nonzero_lanes(row: &Lanes) -> u32 {
    let mut m = 0u32;
    for (l, v) in row.iter().enumerate() {
        m |= ((*v != 0) as u32) << l;
    }
    m
}

/// Iterate the set lanes of a mask, in lane order. The full-warp mask — the
/// overwhelmingly common case — takes a plain `0..32` loop the compiler can
/// unroll; sparse masks walk their set bits. Bodies index register rows in
/// place (`regs[a][l]`), so the rows need not be copied out first.
macro_rules! for_lanes {
    ($mask:expr, $l:ident, $body:block) => {{
        let __m = $mask;
        if __m == u32::MAX {
            for $l in 0..LANES {
                $body
            }
        } else {
            let mut __m = __m;
            while __m != 0 {
                let $l = __m.trailing_zeros() as usize;
                __m &= __m - 1;
                $body
            }
        }
    }};
}

/// Do the lanes of `mask` all hold `v`? An OR of `x ^ v`, zero exactly when
/// every one matches. On a full warp it covers all 32 lanes with no branch
/// and compiles to SSE2 `pxor`/`por`; a lane bitmask `(x == v) << l` would
/// be 32 scalar compares, since the default x86-64 target has no 64-bit
/// vector compare. On a divergent warp it covers the set bits of the mask.
#[inline]
fn lanes_equal(row: &Lanes, mask: u32, v: i64) -> bool {
    let mut diff = 0;
    for_lanes!(mask, l, {
        diff |= row[l] ^ v;
    });
    diff == 0
}

impl Vm<'_, '_, '_> {
    fn fault(&self, message: impl Into<String>) -> SimError {
        SimError::KernelFault { kernel: self.kname.to_string(), message: message.into() }
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

    fn charge(&mut self, c: u64, lanes: u32) {
        self.cur.cycles += c;
        self.cur.active += c * lanes.count_ones() as u64;
    }

    /// Coalesced-group cost of one memory access (`h[i]` per active lane):
    /// identical to the tree walker's `mem_group_cost`.
    fn group_cost(&mut self, h: u16, i: u16) -> Result<(), SimError> {
        let (hb, ib) = (h as usize, i as usize);
        self.addrs.clear();
        self.counts.mem_groups += 1;
        self.single_site = false;
        // Warp-uniform handle (one array accessed by every active lane) is
        // the overwhelmingly common shape: resolve the array once and only
        // range-check each lane's index. Faults are constructed identically
        // to `resolve_addr`/`global_addr`, in the same lane order.
        let first = self.mask.trailing_zeros() as usize;
        let h0 = self.regs[hb][first.min(31)];
        if self.mask != 0 && lanes_equal(&self.regs[hb], self.mask, h0) {
            let a = self.ctx.mem.handle_from_value(h0)?;
            let (base, len) = self.ctx.mem.base_len(a)?;
            // Scalar addressing (one cell read by every active lane — parent
            // state like `row[u]` in delegated child kernels) collapses to a
            // single resolved address: coalescing 32 copies of one address
            // yields the same one-transaction group, so cycles are untouched,
            // and the memory op itself touches the cell once.
            let i0 = self.regs[ib][first.min(31)];
            if lanes_equal(&self.regs[ib], self.mask, i0) {
                match usize::try_from(i0) {
                    Ok(idx) if idx < len => {
                        self.addrs.push(base + idx as u64);
                        self.sites[0] = (a, idx);
                        self.single_site = true;
                        self.counts.single_site += 1;
                    }
                    _ => {
                        return Err(SimError::OutOfBounds {
                            array: self.ctx.mem.label(a).unwrap_or("?").to_string(),
                            handle: h0,
                            index: i0,
                            len,
                        });
                    }
                }
            } else {
                for_lanes!(self.mask, l, {
                    let iv = self.regs[ib][l];
                    match usize::try_from(iv) {
                        Ok(idx) if idx < len => {
                            self.addrs.push(base + idx as u64);
                            self.sites[l] = (a, idx);
                        }
                        _ => {
                            return Err(SimError::OutOfBounds {
                                array: self.ctx.mem.label(a).unwrap_or("?").to_string(),
                                handle: h0,
                                index: iv,
                                len,
                            });
                        }
                    }
                });
            }
        } else {
            for_lanes!(self.mask, l, {
                let (a, idx) = resolve_addr(self.ctx.mem, self.regs[hb][l], self.regs[ib][l])?;
                self.addrs.push(self.ctx.mem.global_addr(a, idx)?);
                self.sites[l] = (a, idx);
            });
        }
        let (cycles, new_tx) = charge_group_from_addrs(self.ctx, self.addrs);
        self.cur.dram += new_tx;
        self.charge(cycles, self.mask);
        Ok(())
    }

    /// Total-op `dst = a op rhs` — `Bin` for every op but `Div`/`Rem`, and
    /// `BinImm` — with sources read in place: full-width vectorized on full
    /// warps, masked scalar otherwise.
    #[inline(always)]
    fn bin_rows(&mut self, dst: u16, op: BinOp, a: u16, rhs: impl Fn(&[Lanes], usize) -> i64) {
        let (r, d, a) = (&mut *self.regs, dst as usize, a as usize);
        if self.mask == u32::MAX {
            vector_binop(op, r, d, a, rhs);
        } else {
            for_lanes!(self.mask, l, {
                r[d][l] = scalar_binop_total(op, r[a][l], rhs(r, l));
            });
        }
    }

    /// Read the sites resolved by the last `group_cost` into the active
    /// lanes of `dst`; a single site is read once and splatted.
    #[inline]
    fn load_sites(&mut self, dst: u16) {
        let d = &mut self.regs[dst as usize];
        if self.single_site {
            let (a, idx) = self.sites[0];
            let v = self.ctx.mem.read_validated(a, idx);
            if self.mask == u32::MAX {
                *d = [v; LANES];
            } else {
                for_lanes!(self.mask, l, {
                    d[l] = v;
                });
            }
        } else {
            for_lanes!(self.mask, l, {
                let (a, idx) = self.sites[l];
                d[l] = self.ctx.mem.read_validated(a, idx);
            });
        }
    }

    /// Write register `v` to the sites resolved by the last `group_cost`. A
    /// single site is written once, with the highest active lane's value:
    /// what storing lane by lane in lane order would leave there.
    #[inline]
    fn store_sites(&mut self, v: u16) {
        let vv = &self.regs[v as usize];
        if self.single_site {
            let (a, idx) = self.sites[0];
            let last = 31 - self.mask.leading_zeros() as usize;
            self.ctx.mem.write_validated(a, idx, vv[last]);
        } else {
            for_lanes!(self.mask, l, {
                let (a, idx) = self.sites[l];
                self.ctx.mem.write_validated(a, idx, vv[l]);
            });
        }
    }

    fn run(&mut self, ops: &[Op]) -> Result<(), SimError> {
        let cpo = self.ctx.cost.compute_cycles_per_op;
        let mut pc = 0usize;
        while pc < ops.len() {
            let op = ops[pc];
            pc += 1;
            self.counts.ops += 1;
            self.counts.ops_full_warp += (self.mask == u32::MAX) as u64;
            match op {
                Op::Imm { dst, v } => {
                    self.regs[dst as usize] = [v; LANES];
                }
                Op::Sp { dst, s } => {
                    let d = &mut self.regs[dst as usize];
                    match s {
                        Special::Gtid => {
                            let base = self.ctx.block_id as i64 * self.ctx.block_dim as i64
                                + (self.warp * WARP_SIZE) as i64;
                            for (l, o) in d.iter_mut().enumerate() {
                                *o = base + l as i64;
                            }
                        }
                        Special::Tid => {
                            let base = (self.warp * WARP_SIZE) as i64;
                            for (l, o) in d.iter_mut().enumerate() {
                                *o = base + l as i64;
                            }
                        }
                        Special::CtaId => *d = [self.ctx.block_id as i64; LANES],
                        Special::NTid => *d = [self.ctx.block_dim as i64; LANES],
                        Special::NCta => *d = [self.ctx.grid_dim as i64; LANES],
                        Special::Depth => *d = [self.ctx.depth as i64; LANES],
                    }
                }
                Op::CopyMasked { dst, src } => {
                    let (d, s) = (dst as usize, src as usize);
                    if self.mask == u32::MAX {
                        self.regs.copy_within(s..s + 1, d);
                    } else {
                        let r = &mut *self.regs;
                        for_lanes!(self.mask, l, {
                            r[d][l] = r[s][l];
                        });
                    }
                }
                Op::Un { dst, op, a } => {
                    // Full warps take the full-width vector path (Neg/Not are
                    // total and inactive temp lanes are never observed);
                    // divergent warps only touch their active lanes.
                    let (r, d, a) = (&mut *self.regs, dst as usize, a as usize);
                    match (self.mask == u32::MAX, op) {
                        (true, UnOp::Neg) => {
                            for l in 0..LANES {
                                r[d][l] = r[a][l].wrapping_neg();
                            }
                        }
                        (true, UnOp::Not) => {
                            for l in 0..LANES {
                                r[d][l] = (r[a][l] == 0) as i64;
                            }
                        }
                        (false, UnOp::Neg) => for_lanes!(self.mask, l, {
                            r[d][l] = r[a][l].wrapping_neg();
                        }),
                        (false, UnOp::Not) => for_lanes!(self.mask, l, {
                            r[d][l] = (r[a][l] == 0) as i64;
                        }),
                    }
                }
                Op::Bin { dst, op, a, b } => match op {
                    BinOp::Div | BinOp::Rem => {
                        // Every active lane is computed before any is
                        // written, so a faulting lane leaves `dst` intact.
                        let (r, a, b) = (&*self.regs, a as usize, b as usize);
                        let mut out = [0i64; LANES];
                        for_lanes!(self.mask, l, {
                            out[l] = scalar_binop(op, r[a][l], r[b][l])
                                .map_err(|f| self.fault(f.message()))?;
                        });
                        let d = &mut self.regs[dst as usize];
                        for_lanes!(self.mask, l, {
                            d[l] = out[l];
                        });
                    }
                    _ => {
                        let b = b as usize;
                        self.bin_rows(dst, op, a, |r, l| r[b][l]);
                    }
                },
                Op::BinImm { dst, op, a, v } => {
                    self.bin_rows(dst, op, a, |_, _| v);
                }
                Op::Load { dst, h, i } => {
                    self.group_cost(h, i)?;
                    self.load_sites(dst);
                }
                Op::ScSplit { dst, a, is_and, save, skip } => {
                    let (r, d, a) = (&mut *self.regs, dst as usize, a as usize);
                    let mut need = 0u32;
                    for_lanes!(self.mask, l, {
                        let decided = is_and == (r[a][l] == 0);
                        if decided {
                            r[d][l] = !is_and as i64;
                        } else {
                            need |= 1 << l;
                        }
                    });
                    if need == 0 {
                        pc = skip as usize;
                    } else {
                        self.masks[save as usize] = self.mask;
                        self.mask = need;
                    }
                }
                Op::ScEnd { dst, b, save } => {
                    let (r, d, b) = (&mut *self.regs, dst as usize, b as usize);
                    for_lanes!(self.mask, l, {
                        r[d][l] = (r[b][l] != 0) as i64;
                    });
                    self.mask = self.masks[save as usize];
                }
                Op::Charge { ops } => {
                    self.charge(ops as u64 * cpo, self.mask);
                }
                Op::SeqCheck { end } => {
                    self.mask &= !self.returned;
                    if self.mask == 0 {
                        pc = end as usize;
                    }
                }
                Op::Store { h, i, v } => {
                    self.group_cost(h, i)?;
                    self.store_sites(v);
                }
                Op::Atomic { op, old, h, i, v, v2 } => {
                    self.group_cost(h, i)?;
                    // Atomics serialize across lanes.
                    let n = self.mask.count_ones() as u64;
                    let ac = self.ctx.cost.atomic_cycles;
                    self.cur.cycles += ac * n;
                    self.cur.active += ac * n;
                    let vv = &self.regs[v as usize];
                    // `Cas` is the only atomic with a second operand.
                    let desired = |l: usize| self.regs[v2 as usize][l];
                    let mut olds = [0i64; LANES];
                    // Same read-modify-write semantics as the `GlobalMem`
                    // `atomic_*` helpers, over the sites `group_cost` already
                    // resolved and bounds-checked. A single site is folded
                    // in lane order over one read and one write.
                    if self.single_site {
                        let (a, idx) = self.sites[0];
                        let mut cur = self.ctx.mem.read_validated(a, idx);
                        for_lanes!(self.mask, l, {
                            olds[l] = cur;
                            cur = atomic_update(op, cur, vv[l], || desired(l));
                        });
                        self.ctx.mem.write_validated(a, idx, cur);
                    } else {
                        for_lanes!(self.mask, l, {
                            let (a, idx) = self.sites[l];
                            let old = self.ctx.mem.read_validated(a, idx);
                            let new = atomic_update(op, old, vv[l], || desired(l));
                            self.ctx.mem.write_validated(a, idx, new);
                            olds[l] = old;
                        });
                    }
                    if old != NONE_REG {
                        let d = &mut self.regs[old as usize];
                        for_lanes!(self.mask, l, {
                            d[l] = olds[l];
                        });
                    }
                }
                Op::Compute { units } => {
                    let ub = units as usize;
                    let mut maxu = 0u64;
                    let mut sum = 0u64;
                    for_lanes!(self.mask, l, {
                        let w = self.regs[ub][l].max(0) as u64;
                        maxu = maxu.max(w);
                        sum += w;
                    });
                    self.cur.cycles += maxu * cpo;
                    self.cur.active += sum * cpo;
                }
                Op::Launch { target, grid, block, args_at, n_args } => {
                    let lc = self.ctx.cost.device_launch_cycles;
                    let (gb, bb) = (grid as usize, block as usize);
                    let kid = self.ids[target as usize];
                    // One child grid per active lane; launches serialize, and
                    // each lane is only active during its own launch.
                    for_lanes!(self.mask, l, {
                        let grid_l = launch_dim(self.kname, "grid", l, self.regs[gb][l])?;
                        let block_l = launch_dim(self.kname, "block", l, self.regs[bb][l])?;
                        self.cur.cycles += lc;
                        self.cur.active += lc;
                        // Collect straight into the shared `Arc<[i64]>`: one
                        // allocation per launch, cloned by refcount after.
                        let args: Arc<[i64]> = (0..n_args as usize)
                            .map(|a| self.regs[args_at as usize + a][l])
                            .collect();
                        self.arena.push(LaunchSpec::with_shared_args(kid, grid_l, block_l, args));
                    });
                }
                Op::Sync => self.cut(Boundary::Sync),
                Op::DeviceSync => self.cut(Boundary::DeviceSync),
                Op::Alloc { handle_slot, offset_slot, words, scope, site } => {
                    let first = self.mask.trailing_zeros() as usize;
                    let words_req = self.regs[words as usize][first].max(1) as u64;
                    let costs = self.ctx.cost;
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
                            if let Some(&(h, o)) = self.block_allocs.get(&site) {
                                // Other warps wait at the implied barrier.
                                self.cur.cycles += kind.op_cycles(costs);
                                (h, o)
                            } else {
                                self.cur.cycles += kind.op_cycles(costs);
                                self.cur.active += kind.op_cycles(costs);
                                let off = self.ctx.heap.alloc(words_req, costs)?;
                                let pair = (self.ctx.heap.array as i64, off as i64);
                                self.block_allocs.insert(site, pair);
                                pair
                            }
                        }
                    };
                    for (slot, val) in [(handle_slot, hv), (offset_slot, ov)] {
                        let d = &mut self.regs[slot as usize];
                        for_lanes!(self.mask, l, {
                            d[l] = val;
                        });
                    }
                }
                Op::Return => {
                    self.returned |= self.mask;
                }
                Op::IfSplit { c, save, else_to } => {
                    let t = nonzero_lanes(&self.regs[c as usize]) & self.mask;
                    self.masks[save as usize] = self.mask;
                    self.masks[save as usize + 1] = self.mask & !t;
                    if t == 0 {
                        pc = else_to as usize;
                    } else {
                        self.mask = t;
                    }
                }
                Op::ElseJoin { save, end } => {
                    self.mask = self.masks[save as usize + 1];
                    if self.mask == 0 {
                        pc = end as usize;
                    }
                }
                Op::EndIf { save } => {
                    self.mask = self.masks[save as usize];
                }
                Op::SaveMask { save } => {
                    self.masks[save as usize] = self.mask;
                }
                Op::LoadMask { save } => {
                    self.mask = self.masks[save as usize];
                }
                Op::LoopIter { ops, exit } => {
                    self.mask &= !self.returned;
                    if self.mask == 0 {
                        pc = exit as usize;
                    } else {
                        // Fuel first: the tuner watchdog converts runaway
                        // loops into a deterministic `FuelExhausted` long
                        // before the per-warp safety valve trips.
                        self.ctx.fuel.spend(1)?;
                        self.iters += 1;
                        if self.iters > MAX_WARP_ITERATIONS {
                            return Err(self.fault(WARP_ITER_LIMIT_MSG));
                        }
                        self.charge(ops as u64 * cpo, self.mask);
                    }
                }
                Op::CondLoop { c, exit } => {
                    let next = nonzero_lanes(&self.regs[c as usize]) & self.mask;
                    if next == 0 {
                        pc = exit as usize;
                    } else {
                        self.mask = next;
                    }
                }
                Op::ForCond { var, hi, save, exit } => {
                    let (vv, hv) = (&self.regs[var as usize], &self.regs[hi as usize]);
                    let mut lt = 0u32;
                    for l in 0..LANES {
                        lt |= ((vv[l] < hv[l]) as u32) << l;
                    }
                    let next = lt & self.mask;
                    if next == 0 {
                        pc = exit as usize;
                    } else {
                        self.masks[save as usize] = next;
                        self.mask = next;
                    }
                }
                Op::ForCondI { var, hi, save, exit } => {
                    let vv = &self.regs[var as usize];
                    let mut lt = 0u32;
                    for l in 0..LANES {
                        lt |= ((vv[l] < hi) as u32) << l;
                    }
                    let next = lt & self.mask;
                    if next == 0 {
                        pc = exit as usize;
                    } else {
                        self.masks[save as usize] = next;
                        self.mask = next;
                    }
                }
                Op::ForStep { var, step } => {
                    let (r, d, s) = (&mut *self.regs, var as usize, step as usize);
                    let m = self.mask;
                    for l in 0..LANES {
                        if m & (1 << l) != 0 {
                            r[d][l] = r[d][l].wrapping_add(r[s][l]);
                        }
                    }
                }
                Op::ForStepI { var, step } => {
                    let d = &mut self.regs[var as usize];
                    let m = self.mask;
                    for l in 0..LANES {
                        if m & (1 << l) != 0 {
                            d[l] = d[l].wrapping_add(step);
                        }
                    }
                }
                Op::Jump { to } => {
                    pc = to as usize;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_module;
    use crate::dsl::*;
    use crate::Module;

    /// `set_fusion_override` is a no-op: either setting lowers one program.
    /// The kernel holds the `Load`→`BinImm`, `BinImm`→`Store` and
    /// compare→branch chains a peephole pass would have fused.
    #[test]
    fn fusion_override_leaves_the_lowered_program_alone() {
        let mut m = Module::new();
        m.add(KernelBuilder::new("k").array("out").body(vec![
            let_("x", add(load(v("out"), tid()), i(1))),
            store(v("out"), tid(), mul(v("x"), i(3))),
            when(lt(v("x"), i(4)), vec![store(v("out"), i(0), v("x"))]),
            while_(gt(v("x"), i(0)), vec![assign("x", sub(v("x"), i(2)))]),
        ]));
        let cm = compile_module(&m).unwrap();
        let op_count = |on| {
            set_fusion_override(Some(on));
            let n = lower_module(&cm)[0].op_count();
            set_fusion_override(None);
            n
        };
        assert_eq!(op_count(true), op_count(false));
    }

    /// The definition `lanes_equal` replaces: a lane bitmask of `x == v`,
    /// every active bit set.
    fn bitmask_equal(row: &Lanes, mask: u32, v: i64) -> bool {
        let mut eq = 0u32;
        for (l, x) in row.iter().enumerate() {
            eq |= ((*x == v) as u32) << l;
        }
        eq & mask == mask
    }

    /// SplitMix64: a seeded stream for rows and masks.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn uniformity_reduction_matches_the_bitmask_definition() {
        let mut s = 0x5EED_u64;
        let (mut agreed_true, mut agreed_false) = (0, 0);
        for round in 0..4000 {
            // Few distinct values, so uniform rows are common; `i64::MIN`
            // and -1 catch sign and high-bit differences.
            let pick = [0, 7, -1, i64::MIN][round % 4];
            let mut row = [pick; LANES];
            let n_odd = next(&mut s) % 3;
            for _ in 0..n_odd {
                let lane = (next(&mut s) % LANES as u64) as usize;
                row[lane] = [pick ^ 1, pick ^ (1 << 63), next(&mut s) as i64][lane % 3];
            }
            let lane = (next(&mut s) % 32) as u32;
            let mask = match round % 7 {
                0 => u32::MAX,
                1 => 1 << lane,
                2 => 1 << 31,
                3 => next(&mut s) as u32,
                4 => (next(&mut s) as u32) & (next(&mut s) as u32),
                5 => u32::MAX >> lane,
                _ => !(1 << lane),
            };
            let first = mask.trailing_zeros().min(31) as usize;
            for v in [row[first], pick, next(&mut s) as i64] {
                let want = bitmask_equal(&row, mask, v);
                assert_eq!(
                    lanes_equal(&row, mask, v),
                    want,
                    "round {round}: row {row:?} mask {mask:#010x} v {v}"
                );
                if want {
                    agreed_true += 1;
                } else {
                    agreed_false += 1;
                }
            }
        }
        assert!(agreed_true > 1000 && agreed_false > 1000, "{agreed_true} / {agreed_false}");
    }

    #[test]
    fn uniformity_ignores_inactive_lanes() {
        let mut s = 977_u64;
        for _ in 0..500 {
            let mask = (next(&mut s) as u32) | 1 << (next(&mut s) % 32);
            let v = next(&mut s) as i64;
            let mut row = [v; LANES];
            // Rows that differ from `v` only outside the mask.
            for (l, x) in row.iter_mut().enumerate() {
                if mask & (1 << l) == 0 {
                    *x = next(&mut s) as i64;
                }
            }
            assert!(lanes_equal(&row, mask, v), "mask {mask:#010x}");
            assert!(bitmask_equal(&row, mask, v));
            // One active lane off by a single bit flips both answers.
            let l = mask.trailing_zeros() as usize;
            row[l] ^= 1 << (next(&mut s) % 64);
            assert!(!lanes_equal(&row, mask, v) && !bitmask_equal(&row, mask, v));
        }
        // Lane 31 alone, and a single lane anywhere, decide by that lane.
        let mut row = [3i64; LANES];
        row[31] = 4;
        assert!(lanes_equal(&row, 1 << 31, 4) && !lanes_equal(&row, 1 << 31, 3));
        assert!(lanes_equal(&row, 1 << 5, 3) && !lanes_equal(&row, u32::MAX, 3));
    }
}
