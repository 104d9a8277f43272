//! Idle blocks and empty warps: the loop shapes in which the VM runs a
//! launch's first block, or a block's first warp, that never entered its
//! loop, and copies it to the later ones.
//!
//! A consolidated child is launched in a fixed shape (`KC_X`, or the
//! directive's `blocks`/`threads`) whatever the number of buffered items,
//! and its body is the item-fetch loop `dpcons-core` emits:
//!
//! ```text
//! __cons_cnt  = __cons_buf[__cons_off];      // block-uniform prefix
//! __cons_item = blockIdx.x;                  // or the global thread id
//! while (__cons_item < __cons_cnt) { ... }   // nothing after the loop
//! ```
//!
//! # Idle blocks
//!
//! [`fetch_loop`] recognises that shape once per kernel at install: a
//! prefix of assignments that read neither `threadIdx.x`, the global id nor
//! `blockIdx.x`; then the item slot set from `blockIdx.x` or the global id;
//! then a final `while (item < bound)` whose bound is block-uniform too and
//! does not read the item slot, and whose body cannot `return`. The prefix
//! may divide: the block that runs raises any fault, and every later block
//! computes the same values.
//!
//! The VM (`run_block_with`) then reports a block that never entered the
//! loop: every warp, run or copied, spent exactly one loop step, the
//! failing first test (with no `return` in the body, a warp that entered
//! spends a second step at the back edge). `Engine::functional_phase`
//! copies that block's result and fuel to every later block of the launch.
//! That is exact. An idle block writes nothing, so memory stays as it is
//! from that block on. A later block runs the same prefix over the same
//! memory to the same bound, and its first item (`b`, or `b * blockDim.x`)
//! only grows with the block index, so it fails its first test too, on
//! every lane. The recursive templates allocate and zero the next level's
//! buffer before their loop, so they run every block.
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
//! loop's `ForCond` writes only on entry (`bytecode.rs`).
//!
//! Neither rule adds an op to any kernel, and the tree walker runs every
//! block and every warp.

use crate::ast::BinOp;
use crate::bytecode::stmt_can_return;
use crate::compile::{CExpr, CKernel, CStmt};

/// Recognise the idle-block shape (see the module header) in `k`'s body.
pub(crate) fn fetch_loop(k: &CKernel) -> bool {
    let Some((CStmt::While { cond, body, .. }, head)) = k.body.split_last() else { return false };
    let Some((CStmt::Assign { slot, value: CExpr::CtaId | CExpr::Gtid, .. }, prefix)) =
        head.split_last()
    else {
        return false;
    };
    let CExpr::Bin(BinOp::Lt, lhs, bound) = cond else { return false };
    let item = CExpr::Var(*slot);
    prefix.iter().all(|s| matches!(s, CStmt::Assign { value, .. } if block_uniform(value)))
        && **lhs == item
        && block_uniform(bound)
        && !reads(bound, &|e| *e == item)
        && !body.iter().any(stmt_can_return)
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
    !reads(e, &|e| matches!(e, CExpr::Tid | CExpr::Gtid))
}

/// Does `e` read none of the thread, global and block ids? Every block that
/// sees the same memory then computes it to the same value, given that the
/// variables it reads are block-uniform too.
fn block_uniform(e: &CExpr) -> bool {
    !reads(e, &|e| matches!(e, CExpr::Tid | CExpr::Gtid | CExpr::CtaId))
}

/// Does `e` or any subexpression satisfy `hit`?
fn reads(e: &CExpr, hit: &impl Fn(&CExpr) -> bool) -> bool {
    hit(e)
        || match e {
            CExpr::Load(a, b) | CExpr::Bin(_, a, b) => reads(a, hit) || reads(b, hit),
            CExpr::Un(_, a) => reads(a, hit),
            CExpr::I(_)
            | CExpr::Arg(_)
            | CExpr::Var(_)
            | CExpr::Tid
            | CExpr::Gtid
            | CExpr::CtaId
            | CExpr::NTid
            | CExpr::NCta
            | CExpr::Depth => false,
        }
}
