//! The VM's empty-warp rule: which kernels get it, and that copying the
//! first empty warp's trace to the rest of the block is exact. Every program
//! runs on both executors; the tree walker runs every warp, so equal arrays,
//! report, launch DAG and remaining fuel mean the copies changed nothing.

use dpcons_ir::ast::{Expr, Kernel, Stmt};
use dpcons_ir::dsl::*;
use dpcons_ir::{compile_module, install_with_engine, lower_module, ExecEngine, Module};
use dpcons_sim::{
    AllocKind, Engine, ExecRecord, FuelMeter, GpuConfig, LaunchSpec, ProfileReport, SimError,
};

/// The parts of the consolidated SSSP child (`sssp_child` in the
/// block-stride fetch loop `dpcons-core` emits for a solo-block child);
/// each negative case changes one part.
struct Child {
    first: Expr,
    stride: Expr,
    /// The item body before the `threadIdx.x` loop.
    before: Vec<Stmt>,
    lo: Expr,
    hi: Expr,
    step: Expr,
    /// The item body after the loop.
    after: Vec<Stmt>,
}

impl Child {
    fn kernel(self) -> Kernel {
        let mut inner = self.before;
        inner.push(for_step(
            "j",
            self.lo,
            self.hi,
            self.step,
            vec![
                let_("e", add(v("first"), v("j"))),
                let_("dst", load(v("col"), v("e"))),
                let_("nd", add(v("du"), load(v("wgt"), v("e")))),
                atomic_min(Some("old"), v("dist"), v("dst"), v("nd")),
                when(lt(v("nd"), v("old")), vec![store(v("flag"), i(0), i(1))]),
            ],
        ));
        inner.extend(self.after);
        inner.push(assign("item", add(v("item"), self.stride)));
        KernelBuilder::new("sssp_child__cons")
            .array("row")
            .array("col")
            .array("wgt")
            .array("dist")
            .array("flag")
            .array("buf")
            .scalar("off")
            .body(vec![
                let_("cnt", load(v("buf"), v("off"))),
                let_("item", self.first),
                while_(lt(v("item"), v("cnt")), inner),
            ])
    }
}

fn sssp() -> Child {
    Child {
        first: cta_id(),
        stride: ncta(),
        before: vec![
            let_("u", load(v("buf"), add(add(v("off"), i(1)), v("item")))),
            let_("first", load(v("row"), v("u"))),
            let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
            let_("du", load(v("dist"), v("u"))),
        ],
        lo: tid(),
        hi: v("deg"),
        step: ntid(),
        after: vec![sync()],
    }
}

/// `sssp()` with `s` appended to the item body before the loop.
fn with_before(s: Stmt) -> Child {
    let mut c = sssp();
    c.before.push(s);
    c
}

fn has_rule(k: &Kernel) -> bool {
    let mut m = Module::new();
    m.add(k.clone());
    lower_module(&compile_module(&m).unwrap())[0].has_empty_warp_rule()
}

/// The child's arrays over nodes of degrees `degs`, every node buffered in
/// order: `row`, `col`, `wgt`, `dist` (node 0 is the source), `flag`, `buf`.
fn graph(degs: &[i64]) -> Vec<Vec<i64>> {
    let n = degs.len() as i64;
    let mut row = vec![0];
    for d in degs {
        row.push(row.last().unwrap() + d);
    }
    let edges = *row.last().unwrap();
    let col = (0..edges).map(|e| (e * 7 + 1) % n).collect();
    let wgt = (0..edges).map(|e| 1 + e % 3).collect();
    let mut dist = vec![1 << 20; n as usize];
    dist[0] = 0;
    let mut buf = vec![n];
    buf.extend(0..n);
    vec![row, col, wgt, dist, vec![0], buf]
}

type Run = Result<(ProfileReport, Vec<ExecRecord>), SimError>;

/// Launch `k` over fresh copies of `arrays` (then the buffer offset 0) on
/// `exec`: the final arrays, the report and DAG or the fault, and the fuel
/// left.
fn run(
    k: &Kernel,
    exec: ExecEngine,
    arrays: &[Vec<i64>],
    (grid, block): (u32, u32),
    fuel: Option<u64>,
) -> (Vec<Vec<i64>>, Run, Option<u64>) {
    let mut e = Engine::new(GpuConfig::k20c(), AllocKind::PreAlloc, 1 << 16);
    e.fuel = FuelMeter::new(fuel);
    let handles: Vec<_> = arrays.iter().map(|d| e.mem.alloc_array_init("a", d.clone())).collect();
    let mut m = Module::new();
    m.add(k.clone());
    let ids = install_with_engine(&mut e, &m, Some(exec)).unwrap();
    let mut args: Vec<i64> = handles.iter().map(|&h| h as i64).collect();
    args.push(0);
    let r = e.launch_traced(LaunchSpec::new(ids[&k.name], grid, block, args));
    let out = handles.iter().map(|&h| e.mem.slice(h).unwrap().to_vec()).collect();
    (out, r, e.fuel.remaining())
}

/// [`run`] on both executors, which must agree; returns the VM's outcome.
fn on_both(k: &Kernel, arrays: &[Vec<i64>], shape: (u32, u32)) -> (Vec<Vec<i64>>, Run) {
    let vm = run(k, ExecEngine::Bytecode, arrays, shape, None);
    let tree = run(k, ExecEngine::Tree, arrays, shape, None);
    assert!(tree == vm, "{shape:?}: the tree executor diverged from the bytecode VM");
    (vm.0, vm.1)
}

#[test]
fn the_sssp_child_gets_the_rule_and_copies_are_exact() {
    let k = sssp().kernel();
    assert!(has_rule(&k), "the consolidated SSSP child is the item-loop shape");
    let (out, r) = on_both(&k, &graph(&[2, 9, 0, 40, 5, 31, 33, 1]), (2, 256));
    r.unwrap();
    assert_eq!(out[3][0], 0, "the source keeps distance 0");
    assert!(out[3].iter().filter(|&&d| d < 1 << 20).count() > 1, "some node was relaxed");
}

#[test]
fn shapes_outside_the_item_loop_have_no_rule() {
    let negatives: Vec<(&str, Child)> = vec![
        ("a store in the prefix", with_before(store(v("flag"), i(0), v("u")))),
        ("an atomic in the prefix", with_before(atomic_add(None, v("flag"), i(0), i(1)))),
        ("tid() in the prefix", with_before(let_("lane", tid()))),
        // Lanes in reverse: the last warp starts at 0.
        ("a loop start other than tid()", Child { lo: sub(ntid(), add(tid(), i(1))), ..sssp() }),
        // Threads past 100 only: warp 1 skips item 1 (degree 300), warp 4
        // enters it.
        ("a non-uniform bound", Child { hi: mul(v("deg"), gt(tid(), i(100))), ..sssp() }),
        ("a non-uniform step", Child { step: add(ntid(), tid()), ..sssp() }),
        (
            "a second tid loop",
            Child {
                after: vec![
                    for_step("k", tid(), v("deg"), ntid(), vec![store(v("flag"), i(0), v("k"))]),
                    sync(),
                ],
                ..sssp()
            },
        ),
        ("a gtid fetch loop", Child { first: gtid(), stride: mul(ntid(), ncta()), ..sssp() }),
    ];
    for (what, c) in negatives {
        let k = c.kernel();
        assert!(!has_rule(&k), "{what}: must not get the rule");
        let (_, r) = on_both(&k, &graph(&[3, 300, 0, 7]), (2, 256));
        r.unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

#[test]
fn warp_one_entering_only_on_the_last_item_is_exact() {
    // Warp 1 skips items 0..3 and enters on item 3 (degree 40), so the
    // first empty warp is warp 2.
    let k = sssp().kernel();
    on_both(&k, &graph(&[3, 5, 1, 40]), (1, 256)).1.unwrap();
}

#[test]
fn a_partial_last_warp_runs_itself() {
    // blockDim 200: warps 0..6 have 32 lanes and warp 6 has 8.
    let k = sssp().kernel();
    for degs in [&[2, 9, 0, 17][..], &[200, 1], &[0, 0, 0]] {
        on_both(&k, &graph(degs), (1, 200)).1.unwrap();
    }
}

#[test]
fn an_all_idle_block_copies_its_first_dram_free_warp() {
    // Two items over <<<5, 64>>> and <<<5, 256>>>: blocks 2..5 are idle,
    // and an idle block's warp 0 is the first to load the item count.
    let k = sssp().kernel();
    for block in [64, 256] {
        on_both(&k, &graph(&[4, 33]), (5, block)).1.unwrap();
    }
}

#[test]
fn a_prefix_div_by_zero_faults_on_both_executors() {
    let k = with_before(let_("avg", div(v("du"), v("deg")))).kernel();
    assert!(has_rule(&k), "a warp-uniform Div faults in warp 0 if anywhere");
    let (_, r) = on_both(&k, &graph(&[3, 0, 5]), (1, 256));
    assert!(
        matches!(&r, Err(SimError::KernelFault { message, .. }) if message.contains("division")),
        "got {r:?}"
    );
    on_both(&k, &graph(&[3, 1, 5]), (1, 256)).1.unwrap();
}

/// Fuel parity where copies happen: 6 items over <<<2, 256>>>, so every
/// block runs two warps and copies six. The tree walker's minimal completing
/// budget completes on the VM, and one step less exhausts both.
#[test]
fn fuel_runs_out_at_the_same_step_across_copied_warps() {
    let k = sssp().kernel();
    let arrays = graph(&[3, 9, 0, 30, 2, 1]);
    let go = |exec, fuel| run(&k, exec, &arrays, (2, 256), Some(fuel));
    let completes = |fuel| go(ExecEngine::Tree, fuel).1.is_ok();
    let mut hi = 1u64;
    while !completes(hi) {
        hi *= 2;
    }
    let mut lo = 0u64; // fuel 0 always exhausts (one step per block)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if completes(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    assert!(hi > 16 * 4, "every warp spends fuel on each item's loops");
    let (tree, vm) = (go(ExecEngine::Tree, hi), go(ExecEngine::Bytecode, hi));
    assert!(vm.1.is_ok(), "the VM must complete on the tree walker's minimal budget");
    assert!(vm == tree, "same arrays, report, DAG and fuel left at the minimal budget");
    for exec in [ExecEngine::Tree, ExecEngine::Bytecode] {
        let r = go(exec, hi - 1).1;
        assert!(
            matches!(r, Err(SimError::FuelExhausted { limit }) if limit == hi - 1),
            "{exec:?} one step short: {r:?}"
        );
    }
}
