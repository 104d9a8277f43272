//! Idle-block guards: which blocks of a launch only fail their work guard.
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
