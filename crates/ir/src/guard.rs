//! Idle-block guards and empty warps: which blocks of a launch only fail
//! their work guard, and which warps of a block never enter its item loop.
//!
//! A consolidated child is launched in a fixed shape (`KC_X`, or the
//! directive's `blocks`/`threads`) whatever the number of buffered items,
//! and its body is the item-fetch loop `dpcons-core` emits:
//!
//! ```text
//! __cons_cnt  = __cons_buf[__cons_off];      // block-invariant prefix
//! __cons_item = blockIdx.x;                  // or the global thread id
//! while (__cons_item < __cons_cnt) { ... }   // nothing after the loop
//! ```
//!
//! A block whose first item (`b`, or `b * blockDim`) is `>= __cons_cnt`
//! fails the guard on every lane and writes nothing. [`analyze`] recognises
//! that shape once per kernel at install, beside the bytecode lowering, and
//! [`FetchGuard::is_idle`] decides it per block on current memory.
//!
//! Exactness follows from the shape. The first item grows with the block
//! index and the bound does not depend on it, and an idle block writes
//! nothing. So once a block is idle, memory stays as it is and every later
//! block of the launch is idle too. Each of them runs the same
//! straight-line prefix over the same memory and leaves the loop at its
//! first test, so its `BlockResult` and fuel equal the first idle block's.
//! The shape excludes:
//! * a prefix that reads `threadIdx.x` or the block or thread id, or that
//!   divides (`Div`/`Rem` can fault);
//! * any statement other than an assignment before the loop (the recursive
//!   templates allocate and zero the next level's buffer there);
//! * a guard other than `item < bound`, and anything after the loop.
//!
//! # Empty warps
//!
//! A solo-block child (`for (j = threadIdx.x; j < deg; j += blockDim.x)`)
//! runs at a fixed block size, usually 256 threads, and many items have a
//! degree below 32, so warps 1-7 of an active block run only the item
//! body's straight-line part and never enter the loop. [`item_loop`]
//! recognises the shape once per kernel: a body of assignments, then a
//! final `while` over a warp-uniform condition whose body holds only
//! assignments, `__syncthreads` and exactly one `for` starting at
//! `threadIdx.x` with a warp-uniform bound and step. Warp-uniform means
//! reading neither `threadIdx.x` nor the global id; every assignment
//! outside the `for` must be warp-uniform too, and there is no store,
//! atomic, launch or alloc outside it. So the block-stride fetch loop
//! (`__cons_item = blockIdx.x`) qualifies and a grid-stride one (the global
//! thread id) does not.
//!
//! The VM (`run_block_with`) then runs warps in order until one never
//! entered the `for` on any item and recorded no new DRAM transaction;
//! every later warp with as many lanes copies that warp's chunk trace and
//! spends its fuel instead of running. That is exact. A warp that never
//! enters writes nothing, so memory stays as it is from that warp on. A
//! later warp runs the same uniform statements over the same memory, and
//! its loop starts at a higher `threadIdx.x` against the same bound, so it
//! never enters either. Its loads hit the same segments, which the template
//! warp found already touched, so it adds no DRAM transaction. Its cycles
//! and active-thread cycles follow from the ops it runs, their addresses and
//! its lane count, which is why only warps with the template's lane count
//! copy it. Whether a warp entered the loop is read from the mask slot the
//! loop's `ForCond` writes only on entry (`bytecode.rs`), so no op is added
//! to any kernel, and the tree walker still runs every warp.

use dpcons_sim::{obs, BlockCtx, IdleGuard};

use crate::ast::BinOp;
use crate::compile::{CExpr, CKernel, CStmt};
use crate::interp::{resolve_addr, scalar_binop_total, scalar_unop};

/// Prefix slots a guard can hold; the fetch loop's prefix uses one.
const GUARD_SLOTS: usize = 8;

/// The first item of the fetch loop.
#[derive(Debug, Clone, Copy)]
enum First {
    /// `blockIdx.x`: every lane of block `b` starts at item `b`.
    Block,
    /// The global thread id: block `b` starts at `b * blockDim.x`.
    Thread,
}

/// An exact idle-block test for one kernel (see the module header).
#[derive(Debug, Clone)]
pub(crate) struct FetchGuard {
    n_params: usize,
    /// Block-invariant assignments `(slot, value)`, every slot below
    /// [`GUARD_SLOTS`], in program order.
    prefix: Vec<(u16, CExpr)>,
    first: First,
    /// The loop bound: `while (item < bound)`.
    bound: CExpr,
}

/// Recognise the item-fetch loop shape in `k`'s body.
pub(crate) fn analyze(k: &CKernel) -> Option<FetchGuard> {
    let (CStmt::While { cond, .. }, head) = k.body.split_last()? else { return None };
    let (CStmt::Assign { slot: item, value, .. }, prefix) = head.split_last()? else {
        return None;
    };
    let first = match value {
        CExpr::CtaId => First::Block,
        CExpr::Gtid => First::Thread,
        _ => return None,
    };
    let mut inv = [false; GUARD_SLOTS];
    let mut assigns = Vec::with_capacity(prefix.len());
    for s in prefix {
        let CStmt::Assign { slot, value, .. } = s else { return None };
        if !invariant(value, &inv) {
            return None;
        }
        *inv.get_mut(*slot as usize)? = true;
        assigns.push((*slot, value.clone()));
    }
    if let Some(c) = inv.get_mut(*item as usize) {
        *c = false;
    }
    let CExpr::Bin(BinOp::Lt, lhs, bound) = cond else { return None };
    if **lhs != CExpr::Var(*item) || !invariant(bound, &inv) {
        return None;
    }
    Some(FetchGuard {
        n_params: k.param_kinds.len(),
        prefix: assigns,
        first,
        bound: (**bound).clone(),
    })
}

/// Recognise the empty-warp shape (see the module header) in `k`'s body;
/// returns the slot of the `for` loop's variable.
pub(crate) fn item_loop(k: &CKernel) -> Option<u16> {
    let (CStmt::While { cond, body, .. }, prefix) = k.body.split_last()? else { return None };
    let mut fors = body.iter().filter(|s| matches!(s, CStmt::For { .. }));
    let (Some(CStmt::For { var, lo: CExpr::Tid, hi, step, .. }), None) = (fors.next(), fors.next())
    else {
        return None;
    };
    let straight = |s: &CStmt| match s {
        CStmt::Assign { value, .. } => warp_uniform(value),
        _ => false,
    };
    let item_stmt = |s: &CStmt| match s {
        CStmt::For { .. } | CStmt::Sync => true,
        s => straight(s),
    };
    (prefix.iter().all(straight)
        && warp_uniform(cond)
        && warp_uniform(hi)
        && warp_uniform(step)
        && body.iter().all(item_stmt))
    .then_some(*var)
}

/// Does `e` read neither the thread id nor the global id? In a warp that
/// never enters the item loop, every variable `e` reads is then uniform too:
/// each assignment such a warp runs is checked with this (it never runs the
/// loop body), and the compiler scopes the loop's variable to that body. So
/// every such warp of a block computes `e` to the same value over the same
/// memory.
fn warp_uniform(e: &CExpr) -> bool {
    match e {
        CExpr::Tid | CExpr::Gtid => false,
        CExpr::I(_)
        | CExpr::Arg(_)
        | CExpr::Var(_)
        | CExpr::CtaId
        | CExpr::NTid
        | CExpr::NCta
        | CExpr::Depth => true,
        CExpr::Load(a, b) | CExpr::Bin(_, a, b) => warp_uniform(a) && warp_uniform(b),
        CExpr::Un(_, a) => warp_uniform(a),
    }
}

/// Is `e` the same in every lane of every block that sees the same memory,
/// and unable to fault except on a load?
fn invariant(e: &CExpr, inv: &[bool; GUARD_SLOTS]) -> bool {
    match e {
        CExpr::I(_) | CExpr::Arg(_) | CExpr::NTid | CExpr::NCta | CExpr::Depth => true,
        CExpr::Var(s) => inv.get(*s as usize) == Some(&true),
        CExpr::Gtid | CExpr::Tid | CExpr::CtaId => false,
        CExpr::Bin(BinOp::Div | BinOp::Rem, ..) => false,
        CExpr::Load(a, b) | CExpr::Bin(_, a, b) => invariant(a, inv) && invariant(b, inv),
        CExpr::Un(_, a) => invariant(a, inv),
    }
}

/// Evaluate an [`invariant`] expression as one lane of the VM would, except
/// that both sides of `&&`/`||` run; `None` where a load would fault (a bad
/// handle or an out-of-bounds index), which leaves the block to the VM.
fn eval(e: &CExpr, env: &[i64; GUARD_SLOTS], ctx: &BlockCtx<'_>) -> Option<i64> {
    Some(match e {
        CExpr::I(v) => *v,
        CExpr::Arg(i) => ctx.args[*i as usize],
        CExpr::NTid => ctx.block_dim as i64,
        CExpr::NCta => ctx.grid_dim as i64,
        CExpr::Depth => ctx.depth as i64,
        CExpr::Var(s) => env[*s as usize],
        CExpr::Load(h, i) => {
            let (a, i) = resolve_addr(ctx.mem, eval(h, env, ctx)?, eval(i, env, ctx)?).ok()?;
            ctx.mem.read(a, i).ok()?
        }
        CExpr::Un(op, a) => scalar_unop(*op, eval(a, env, ctx)?),
        CExpr::Bin(op, a, b) => scalar_binop_total(*op, eval(a, env, ctx)?, eval(b, env, ctx)?),
        CExpr::Gtid | CExpr::Tid | CExpr::CtaId => unreachable!("rejected by `invariant`"),
    })
}

impl IdleGuard for FetchGuard {
    fn is_idle(&self, ctx: &BlockCtx<'_>) -> bool {
        // A wrong arity faults in the VM; leave that to it.
        if ctx.args.len() != self.n_params {
            return false;
        }
        let mut env = [0i64; GUARD_SLOTS];
        for (slot, value) in &self.prefix {
            match eval(value, &env, ctx) {
                Some(v) => env[*slot as usize] = v,
                None => return false,
            }
        }
        let Some(bound) = eval(&self.bound, &env, ctx) else { return false };
        let first = match self.first {
            First::Block => ctx.block_id as i64,
            First::Thread => ctx.block_id as i64 * ctx.block_dim as i64,
        };
        first >= bound
    }

    fn reused(&self, blocks: u64) {
        static IDLE: std::sync::OnceLock<&'static obs::Counter> = std::sync::OnceLock::new();
        IDLE.get_or_init(|| obs::counter("ir.vm.idle_blocks")).add(blocks);
    }
}
