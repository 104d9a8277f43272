//! Lane-semantics regressions, each pinned on every executor so none can
//! drift independently.
//!
//! Bugs fixed alongside the bytecode VM (tree walker + bytecode VM, via the
//! per-install engine pin `install_with_engine`):
//!
//! 1. Shift amounts outside `0..=63` used to wrap modulo 64 (`x << 64` acted
//!    as `x << 0`, `x << -1` as `x << 63`); they now yield `0` for both `<<`
//!    and `>>`, the C/CUDA UB-avoidance convention.
//! 2. Device-side launch dimensions overflowing `u32` used to be silently
//!    clamped to 0 and then surface as a misleading
//!    `BadLaunchConfig: "grid and block dimensions must be nonzero"`; they
//!    now raise a typed `KernelFault` naming the kernel, lane, and value.
//!
//! The VM's shared-work paths (tree walker and bytecode VM): memory
//! ops where every active lane hits one site, assignments evaluated straight
//! into the variable's slot, and arguments held in registers filled once per
//! block.
//!
//! The VM reads source rows in place, so an op whose destination is one of
//! its sources (`x = x + x`, `x = -x`, `x = x / y`) must read each lane
//! before writing it: pinned on full and divergent warps, on both
//! executors, with `Div` faulting identically everywhere.

use std::collections::HashMap;

use dpcons_ir::dsl::*;
use dpcons_ir::{install_with_engine, ExecEngine, Expr, Module};
use dpcons_sim::{AllocKind, Engine, GpuConfig, KernelId, LaunchSpec, SimError};

const ENGINES: [ExecEngine; 2] = [ExecEngine::Bytecode, ExecEngine::Tree];

/// Build an engine + module pinned to one executor and return the launched
/// kernel's result along with the engine for memory inspection.
fn run_pinned(
    engine: ExecEngine,
    m: &Module,
    kernel: &str,
    grid: u32,
    block: u32,
    extra_args: Vec<i64>,
    out_words: usize,
) -> (Engine, usize, Result<(), SimError>) {
    let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
    let out = eng.mem.alloc_array("out", out_words);
    let ids = install_with_engine(&mut eng, m, Some(engine)).unwrap();
    let mut args = vec![out as i64];
    args.extend(extra_args);
    let r = eng.launch(LaunchSpec::new(ids[kernel], grid, block, args)).map(|_| ());
    (eng, out, r)
}

#[test]
fn out_of_range_shift_amounts_yield_zero_in_both_engines() {
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("out").body(vec![
        // Historical bug: `1 << 64` wrapped to `1 << 0` = 1.
        store(v("out"), i(0), shl(i(1), i(64))),
        // Historical bug: `1 << -1` wrapped to `1 << 63`.
        store(v("out"), i(1), shl(i(1), i(-1))),
        store(v("out"), i(2), shl(i(5), i(2))),
        store(v("out"), i(3), shr(i(-8), i(1))),
        store(v("out"), i(4), shr(i(123), i(64))),
        store(v("out"), i(5), shr(i(123), i(-2))),
        store(v("out"), i(6), shl(i(1), i(63))),
        store(v("out"), i(7), shr(i(i64::MIN), i(63))),
    ]));
    for engine in ENGINES {
        let (eng, out, r) = run_pinned(engine, &m, "k", 1, 1, vec![], 8);
        r.unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        let got = eng.mem.slice(out).unwrap();
        let want: [i64; 8] = [0, 0, 20, -4, 0, 0, i64::MIN, -1];
        assert_eq!(got, &want[..], "{engine:?}: total-shift semantics");
    }
}

#[test]
fn launch_dim_overflow_faults_instead_of_clamping_in_both_engines() {
    // grid = 2^33 does not fit u32; the old clamp turned it into 0 and the
    // launch then failed with the misleading "must be nonzero" config error.
    for (what, grid, block) in
        [("grid", 1i64 << 33, 1i64), ("block", 1, 1 << 33), ("grid", -1, 1), ("block", 1, -5)]
    {
        let (g, b) = (grid, block);
        let mut m = Module::new();
        m.add(KernelBuilder::new("child").array("out").body(vec![]));
        m.add(KernelBuilder::new("parent").array("out").body(vec![launch(
            "child",
            i(g),
            i(b),
            vec![v("out")],
        )]));
        for engine in ENGINES {
            let (_eng, _out, r) = run_pinned(engine, &m, "parent", 1, 1, vec![], 1);
            let err = r.expect_err("overflowing launch dim must fault");
            match &err {
                SimError::KernelFault { kernel, message } => {
                    assert_eq!(kernel, "parent", "{engine:?}");
                    let bad = if what == "grid" { g } else { b };
                    assert!(
                        message.contains(&format!("launch {what} dimension {bad} in lane 0")),
                        "{engine:?}: fault must name the dimension, value, and lane: {message}"
                    );
                    assert!(message.contains("u32 range"), "{engine:?}: {message}");
                }
                other => panic!("{engine:?}: expected KernelFault, got {other:?}"),
            }
        }
    }
}

#[test]
fn in_range_launch_dims_still_work_in_both_engines() {
    let mut m = Module::new();
    m.add(KernelBuilder::new("child").array("out").body(vec![store(v("out"), i(0), i(7))]));
    m.add(KernelBuilder::new("parent").array("out").body(vec![launch(
        "child",
        i(1),
        i(1),
        vec![v("out")],
    )]));
    for engine in ENGINES {
        let (eng, out, r) = run_pinned(engine, &m, "parent", 1, 1, vec![], 1);
        r.unwrap_or_else(|e| panic!("{engine:?}: {e}"));
        assert_eq!(eng.mem.read(out, 0).unwrap(), 7, "{engine:?}");
    }
}

// ------------------------------------------------------------------------
// Shared-work paths of the VM, on both executors.
// ------------------------------------------------------------------------

/// The tree walker first, so the VM is checked against the reference.
const EXECUTORS: [(&str, ExecEngine); 2] =
    [("tree", ExecEngine::Tree), ("bytecode", ExecEngine::Bytecode)];

/// An engine with `arrays` uploaded, `m` installed on one executor, and the
/// array handles in upload order.
fn engine_on(
    exec: ExecEngine,
    m: &Module,
    arrays: &[Vec<i64>],
) -> (Engine, HashMap<String, KernelId>, Vec<usize>) {
    let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
    let handles = arrays
        .iter()
        .enumerate()
        .map(|(n, a)| eng.mem.alloc_array_init(&format!("a{n}"), a.clone()))
        .collect();
    let ids = install_with_engine(&mut eng, m, Some(exec)).unwrap();
    (eng, ids, handles)
}

/// Launch `kernel<<<1, block>>>(arrays.., scalars..)` on every executor and
/// require every array to end as `want`.
fn check_all(
    m: &Module,
    kernel: &str,
    block: u32,
    arrays: &[Vec<i64>],
    scalars: &[i64],
    want: &[Vec<i64>],
) {
    for (name, exec) in EXECUTORS {
        let (mut eng, ids, handles) = engine_on(exec, m, arrays);
        let mut args: Vec<i64> = handles.iter().map(|&h| h as i64).collect();
        args.extend_from_slice(scalars);
        eng.launch(LaunchSpec::new(ids[kernel], 1, block, args))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for (n, (&h, w)) in handles.iter().zip(want).enumerate() {
            assert_eq!(eng.mem.slice(h).unwrap(), &w[..], "{name}: array {n}");
        }
    }
}

#[test]
fn single_site_store_under_a_divergent_mask_leaves_the_highest_active_lane() {
    // Every active lane stores to out[0]: tids 0, 3, .., 39 across two warps
    // (the second one partial). Warps run in order and lanes store in lane
    // order, so the last writer is the second warp's highest active lane.
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("out").body(vec![when(
        land(lt(tid(), i(40)), eq(rem(tid(), i(3)), i(0))),
        vec![store(v("out"), i(0), add(tid(), i(100)))],
    )]));
    check_all(&m, "k", 48, &[vec![-1]], &[], &[vec![139]]);
    // A one-warp block whose active lanes are not a prefix.
    check_all(&m, "k", 32, &[vec![-1]], &[], &[vec![130]]);
}

#[test]
fn single_site_load_into_a_variable_keeps_inactive_lanes() {
    // `x = inp[5]` in odd lanes only: the even lanes keep `tid + 1000`.
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("inp").array("out").body(vec![
        let_("x", add(tid(), i(1000))),
        when(eq(rem(tid(), i(2)), i(1)), vec![assign("x", load(v("inp"), i(5)))]),
        store(v("out"), tid(), v("x")),
    ]));
    let inp: Vec<i64> = (0..8).map(|j| j * 11 - 3).collect();
    let want: Vec<i64> = (0..40).map(|t| if t % 2 == 1 { inp[5] } else { t + 1000 }).collect();
    check_all(&m, "k", 40, &[inp.clone(), vec![0; 40]], &[], &[inp, want]);
}

#[test]
fn single_site_atomics_keep_lane_order() {
    // Every active lane (tid % 3 != 1) hits cell 0 of each array. Expected
    // values come from applying the lanes one by one in tid order.
    let mut m = Module::new();
    let active = ne(rem(tid(), i(3)), i(1));
    m.add(KernelBuilder::new("k").array("acc").array("cas").array("olds").body(vec![when(
        active,
        vec![
            atomic_add(Some("a"), v("acc"), i(0), add(tid(), i(1))),
            atomic_cas(Some("c"), v("cas"), i(0), v("a"), add(v("a"), tid())),
            store(v("olds"), mul(tid(), i(2)), v("a")),
            store(v("olds"), add(mul(tid(), i(2)), i(1)), v("c")),
        ],
    )]));
    let block = 45;
    // The CAS cell starts at lane 3's `a`, so lane 3 swaps and every later
    // lane compares against the value lane 3 left.
    let (mut acc, mut cas) = (7i64, 11i64);
    let mut olds = vec![0i64; 2 * block];
    // A warp runs the whole body before the next starts: warp 0's adds, its
    // CASes, then warp 1's.
    for warp in 0..block.div_ceil(32) as i64 {
        let in_warp: Vec<i64> =
            (warp * 32..(warp * 32 + 32).min(block as i64)).filter(|t| t % 3 != 1).collect();
        for &t in &in_warp {
            olds[2 * t as usize] = acc;
            acc += t + 1;
        }
        for &t in &in_warp {
            let a = olds[2 * t as usize];
            olds[2 * t as usize + 1] = cas;
            if cas == a {
                cas = a + t;
            }
        }
    }
    check_all(
        &m,
        "k",
        block as u32,
        &[vec![7], vec![11], vec![0; 2 * block]],
        &[],
        &[vec![acc], vec![cas], olds],
    );
}

#[test]
fn direct_assignments_under_divergence_keep_inactive_lanes() {
    // `x = a[x]` (per-lane sites), `y = y * 2 + y` and `z = -z`, each under
    // its own divergent mask: the slot is both an operand and the target.
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("inp").array("out").body(vec![
        let_("x", tid()),
        let_("y", add(tid(), i(1))),
        let_("z", sub(tid(), i(5))),
        when(ne(rem(tid(), i(3)), i(0)), vec![assign("x", load(v("inp"), v("x")))]),
        when(eq(rem(tid(), i(2)), i(0)), vec![assign("y", add(mul(v("y"), i(2)), v("y")))]),
        when(ge(tid(), i(10)), vec![assign("z", neg(v("z")))]),
        store(v("out"), mul(tid(), i(3)), v("x")),
        store(v("out"), add(mul(tid(), i(3)), i(1)), v("y")),
        store(v("out"), add(mul(tid(), i(3)), i(2)), v("z")),
    ]));
    let block = 40usize;
    let inp: Vec<i64> = (0..block as i64).map(|j| j * 7 + 1).collect();
    let mut want = vec![0i64; 3 * block];
    for t in 0..block as i64 {
        let x = if t % 3 != 0 { inp[t as usize] } else { t };
        let y = if t % 2 == 0 { (t + 1) * 3 } else { t + 1 };
        let z = if t >= 10 { 5 - t } else { t - 5 };
        want[3 * t as usize..3 * t as usize + 3].copy_from_slice(&[x, y, z]);
    }
    check_all(&m, "k", block as u32, &[inp.clone(), vec![0; 3 * block]], &[], &[inp, want]);
}

#[test]
fn short_circuit_assignment_keeps_its_temporary() {
    // `x = c && x` and `x = c || x`: the right operand reads the slot the
    // assignment writes, under the lanes the left operand leaves undecided.
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("out").body(vec![
        let_("x", rem(tid(), i(4))),
        let_("c", rem(tid(), i(3))),
        when(lt(tid(), i(24)), vec![assign("x", land(v("c"), v("x")))]),
        when(ge(tid(), i(30)), vec![assign("x", lor(eq(v("c"), i(0)), v("x")))]),
        store(v("out"), tid(), v("x")),
    ]));
    let want: Vec<i64> = (0..36i64)
        .map(|t| {
            let (x, c) = (t % 4, t % 3);
            if t < 24 {
                (c != 0 && x != 0) as i64
            } else if t >= 30 {
                (c == 0 || x != 0) as i64
            } else {
                x
            }
        })
        .collect();
    check_all(&m, "k", 36, &[vec![0; 36]], &[], &[want]);
}

#[test]
fn arguments_read_in_loops_across_warps_and_launches() {
    // `n` bounds a loop and `bias` is read inside it by every warp of a
    // three-warp block; the parent passes its arguments on, reordered, to a
    // child with a different register layout. Two host launches with
    // different arguments on one engine must each see their own.
    let mut m = Module::new();
    m.add(KernelBuilder::new("child").array("out").scalar("bias").scalar("n").body(vec![
        let_("k", mul(v("n"), i(100))),
        for_("j", i(0), v("n"), vec![store(v("out"), add(v("k"), v("j")), add(v("bias"), tid()))]),
    ]));
    m.add(KernelBuilder::new("parent").array("out").scalar("n").scalar("bias").body(vec![
        for_(
            "j",
            i(0),
            v("n"),
            vec![store(
                v("out"),
                add(mul(tid(), v("n")), v("j")),
                add(mul(v("j"), v("bias")), tid()),
            )],
        ),
        when(
            eq(tid(), i(69)),
            vec![launch("child", i(1), i(1), vec![v("out"), add(v("bias"), i(1)), v("n")])],
        ),
    ]));
    for (name, exec) in EXECUTORS {
        let (mut eng, ids, handles) = engine_on(exec, &m, &[vec![0; 512]]);
        let out = handles[0];
        for (n, bias) in [(3i64, 5i64), (2, -7)] {
            eng.mem.fill(out, 0).unwrap();
            let args = vec![out as i64, n, bias];
            eng.launch(LaunchSpec::new(ids["parent"], 1, 70, args))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            let mut want = vec![0i64; 512];
            for t in 0..70 {
                for j in 0..n {
                    want[(t * n + j) as usize] = j * bias + t;
                }
            }
            for j in 0..n {
                want[(n * 100 + j) as usize] = bias + 1;
            }
            assert_eq!(eng.mem.slice(out).unwrap(), &want[..], "{name}: n={n} bias={bias}");
        }
    }
}

// ------------------------------------------------------------------------
// Destination aliasing a source, on both executors.
// ------------------------------------------------------------------------

/// `x`, with zeros (for `!x` and `&&`) and negatives.
fn x_of(t: i64) -> i64 {
    (t % 5) * 13 - 26
}

/// `y`, never zero.
fn y_of(t: i64) -> i64 {
    [-3, -1, 2, 5][t as usize % 4]
}

/// `x = e` for every lane, or only where `tid % 3 != 1` (divergent warps,
/// the second one partial), then `out[tid] = x`.
fn aliasing_kernel(e: Expr, divergent: bool) -> Module {
    let set = assign("x", e);
    let set = if divergent { when(ne(rem(tid(), i(3)), i(1)), vec![set]) } else { set };
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("ys").array("out").body(vec![
        let_("x", sub(mul(rem(tid(), i(5)), i(13)), i(26))),
        let_("y", load(v("ys"), tid())),
        set,
        store(v("out"), tid(), v("x")),
    ]));
    m
}

#[test]
fn destination_aliasing_a_source_reads_each_lane_before_writing_it() {
    type Case = (&'static str, fn() -> Expr, fn(i64, i64) -> i64);
    let cases: [Case; 7] = [
        ("x + x", || add(v("x"), v("x")), |x, _| x.wrapping_add(x)),
        ("x - y", || sub(v("x"), v("y")), |x, y| x - y),
        ("y - x", || sub(v("y"), v("x")), |x, y| y - x),
        ("-x", || neg(v("x")), |x, _| -x),
        ("!x", || not(v("x")), |x, _| (x == 0) as i64),
        ("x && y", || land(v("x"), v("y")), |x, y| (x != 0 && y != 0) as i64),
        ("x / y", || div(v("x"), v("y")), |x, y| x / y),
    ];
    for (name, e, f) in cases {
        for (divergent, block) in [(false, 64i64), (true, 40)] {
            let ys: Vec<i64> = (0..block).map(y_of).collect();
            let want: Vec<i64> = (0..block)
                .map(|t| {
                    let (x, y) = (x_of(t), y_of(t));
                    if divergent && t % 3 == 1 {
                        x
                    } else {
                        f(x, y)
                    }
                })
                .collect();
            let m = aliasing_kernel(e(), divergent);
            let arrays = [ys.clone(), vec![0; block as usize]];
            eprintln!("case `x = {name}`, divergent {divergent}");
            check_all(&m, "k", block as u32, &arrays, &[], &[ys, want]);
        }
    }
}

#[test]
fn in_place_division_by_zero_faults_alike_on_every_executor() {
    // `y` is zero in lane 4 (inactive under the divergent mask, where lanes
    // `tid % 3 == 1` sit out) and, in the second ys, also in lane 36.
    let block = 40usize;
    let mut one_zero: Vec<i64> = (0..block as i64).map(y_of).collect();
    one_zero[4] = 0;
    let mut two_zeros = one_zero.clone();
    two_zeros[36] = 0;
    for (divergent, ys, faults) in
        [(false, &one_zero, true), (true, &one_zero, false), (true, &two_zeros, true)]
    {
        let m = aliasing_kernel(div(v("x"), v("y")), divergent);
        let mut first: Option<Result<(), SimError>> = None;
        for (name, exec) in EXECUTORS {
            let (mut eng, ids, handles) = engine_on(exec, &m, &[ys.clone(), vec![0; block]]);
            let args = handles.iter().map(|&h| h as i64).collect();
            let r = eng.launch(LaunchSpec::new(ids["k"], 1, block as u32, args)).map(|_| ());
            match &r {
                Err(SimError::KernelFault { kernel, message }) if faults => {
                    assert_eq!((kernel.as_str(), message.as_str()), ("k", "division by zero"))
                }
                Ok(()) if !faults => {
                    let want: Vec<i64> = (0..block as i64)
                        .map(|t| if t % 3 == 1 { x_of(t) } else { x_of(t) / ys[t as usize] })
                        .collect();
                    assert_eq!(eng.mem.slice(handles[1]).unwrap(), &want[..], "{name}");
                }
                other => panic!("{name}, divergent {divergent}: unexpected {other:?}"),
            }
            match &first {
                None => first = Some(r),
                Some(f) => assert_eq!(&r, f, "{name} must fail like the tree walker"),
            }
        }
    }
}
