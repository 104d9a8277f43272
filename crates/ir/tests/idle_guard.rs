//! The VM's idle-block rule: which kernels get it, and that copying the
//! first idle block's result to the rest of the launch is exact. Every
//! program runs on both executors; the tree walker runs every block, so
//! equal arrays, report, launch DAG and remaining fuel mean the copy
//! changed nothing.

use dpcons_ir::ast::{AllocScope, Expr, Kernel, Stmt};
use dpcons_ir::dsl::*;
use dpcons_ir::{compile_module, install_with_engine, lower_module, ExecEngine, Module};
use dpcons_sim::{
    AllocKind, Engine, ExecRecord, FuelMeter, GpuConfig, LaunchSpec, ProfileReport, SimError,
};

/// The parts of a consolidated child's item-fetch loop, as `dpcons-core`'s
/// `fetch_loop` emits it; each negative case changes one part.
struct Fetch {
    name: &'static str,
    arrays: &'static [&'static str],
    prefix: Vec<Stmt>,
    cnt: Expr,
    first: Expr,
    stride: Expr,
    guard: fn(Expr, Expr) -> Expr,
    body: Vec<Stmt>,
    after: Vec<Stmt>,
}

impl Fetch {
    fn kernel(self) -> Kernel {
        let mut kb = KernelBuilder::new(self.name);
        for a in self.arrays {
            kb = kb.array(a);
        }
        let mut inner = self.body;
        inner.push(assign("__cons_item", add(v("__cons_item"), self.stride)));
        let mut body = self.prefix;
        body.extend([
            let_("__cons_cnt", self.cnt),
            let_("__cons_item", self.first),
            while_((self.guard)(v("__cons_item"), v("__cons_cnt")), inner),
        ]);
        body.extend(self.after);
        kb.array("__cons_buf").scalar("__cons_off").body(body)
    }
}

/// Buffered item `j` of the current item, `nv` values per item.
fn item_var(nv: i64, j: i64) -> Expr {
    load(v("__cons_buf"), add(add(v("__cons_off"), i(1)), add(mul(v("__cons_item"), i(nv)), i(j))))
}

/// The SoloBlock child of `transform_classes.rs` (`pair_child`, two
/// buffered values per item), consolidated: block-stride over `blockIdx.x`.
fn solo_block() -> Fetch {
    Fetch {
        name: "pair_child_cons",
        arrays: &["out"],
        prefix: vec![],
        cnt: load(v("__cons_buf"), v("__cons_off")),
        first: cta_id(),
        stride: ncta(),
        guard: lt,
        body: vec![
            let_("slot", item_var(2, 0)),
            let_("value", item_var(2, 1)),
            for_step(
                "j",
                tid(),
                i(1),
                ntid(),
                vec![store(v("out"), v("slot"), mul(v("value"), i(10)))],
            ),
            sync(),
        ],
        after: vec![],
    }
}

/// The SoloThread child of `transform_classes.rs` (`serial_child`, one
/// buffered value per item), consolidated: grid-stride over the thread id.
fn solo_thread() -> Fetch {
    Fetch {
        name: "serial_child_cons",
        arrays: &["vals", "out"],
        prefix: vec![],
        cnt: load(v("__cons_buf"), v("__cons_off")),
        first: gtid(),
        stride: mul(ntid(), ncta()),
        guard: lt,
        body: vec![
            let_("item", item_var(1, 0)),
            let_("acc", i(0)),
            for_(
                "j",
                i(0),
                load(v("vals"), v("item")),
                vec![assign("acc", add(v("acc"), add(v("item"), v("j"))))],
            ),
            store(v("out"), v("item"), v("acc")),
        ],
        after: vec![],
    }
}

fn has_rule(k: &Kernel) -> bool {
    let mut m = Module::new();
    m.add(k.clone());
    lower_module(&compile_module(&m).unwrap())[0].has_idle_block_rule()
}

type Run = Result<(ProfileReport, Vec<ExecRecord>), SimError>;

/// Launch `k` over fresh copies of `arrays` (then `scalars`) on `exec`:
/// the final arrays, the report and DAG or the fault, and the fuel left.
fn run(
    k: &Kernel,
    exec: ExecEngine,
    arrays: &[Vec<i64>],
    scalars: &[i64],
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
    args.extend(scalars);
    let r = e.launch_traced(LaunchSpec::new(ids[&k.name], grid, block, args));
    let out = handles.iter().map(|&h| e.mem.slice(h).unwrap().to_vec()).collect();
    (out, r, e.fuel.remaining())
}

/// [`run`] on both executors, which must agree; returns the VM's outcome.
fn on_both(
    k: &Kernel,
    arrays: &[Vec<i64>],
    scalars: &[i64],
    shape: (u32, u32),
) -> (Vec<Vec<i64>>, Run, Option<u64>) {
    let vm = run(k, ExecEngine::Bytecode, arrays, scalars, shape, None);
    let tree = run(k, ExecEngine::Tree, arrays, scalars, shape, None);
    assert!(tree == vm, "{}: the tree executor diverged from the bytecode VM", k.name);
    vm
}

/// A pair buffer at offset 0: count 3, then `(slot, value)` items, padded
/// with zeros so a `<=` guard reads in bounds.
fn pair_buf() -> Vec<i64> {
    let mut buf = vec![3, 16, 1, 17, 2, 18, 3];
    buf.resize(64, 0);
    buf
}

fn run_solo_block(k: &Kernel) -> (Vec<Vec<i64>>, Run, Option<u64>) {
    on_both(k, &[vec![2; 32], pair_buf()], &[0], (8, 64))
}

#[test]
fn fetch_loop_children_have_a_guard_and_reuse_is_exact() {
    let halving = Fetch { prefix: vec![let_("half", div(v("__cons_off"), i(2)))], ..solo_block() };
    for k in [solo_block().kernel(), halving.kernel()] {
        assert!(has_rule(&k), "{}: the SoloBlock child is the fetch-loop shape", k.name);
        let (out, r, _) = run_solo_block(&k);
        let (report, dag) = r.unwrap();
        assert_eq!(out[0][16..19], [10, 20, 30]);
        assert_eq!(dag[0].blocks.len(), 8);
        assert!(report.total_cycles > 0);
    }

    let k = solo_thread().kernel();
    assert!(has_rule(&k), "the SoloThread child is the fetch-loop shape");
    // 100 items over <<<8, 64>>>: blocks 0 and 1 work, blocks 2..8 are idle.
    let n = 100usize;
    let vals: Vec<i64> = (0..n as i64).map(|x| x % 13).collect();
    let mut buf = vec![n as i64];
    buf.extend(0..n as i64);
    let (out, r, _) = on_both(&k, &[vals.clone(), vec![0; n], buf], &[0], (8, 64));
    r.unwrap();
    let want: Vec<i64> =
        vals.iter().enumerate().map(|(id, &s)| (0..s).map(|j| id as i64 + j).sum()).collect();
    assert_eq!(out[1], want);
}

#[test]
fn a_faulting_prefix_load_faults_on_both_executors() {
    let k = solo_block().kernel();
    let (_, r, _) = on_both(&k, &[vec![2; 32], pair_buf()], &[64], (8, 64));
    assert!(matches!(r, Err(SimError::OutOfBounds { .. })), "got {r:?}");
}

/// A dividing prefix gets the rule: the block that runs raises the fault.
/// Here the last active block (2) stores `out[18] = 30`, so the first idle
/// block (3) divides by zero.
#[test]
fn a_prefix_dividing_by_a_loaded_zero_faults_on_both_executors() {
    let d = div(i(1), sub(load(v("out"), i(18)), i(30)));
    let k = Fetch { prefix: vec![let_("d", d)], ..solo_block() }.kernel();
    assert!(has_rule(&k));
    let (_, r, _) = run_solo_block(&k);
    assert!(
        matches!(&r, Err(SimError::KernelFault { message, .. }) if message.contains("division by zero")),
        "got {r:?}"
    );
}

/// A fetch body that returns gets no rule: a warp that entered the loop
/// and returned spends one loop step, as an idle warp does. All 5 items of
/// `<<<8, 64>>>` are written.
#[test]
fn a_returning_fetch_body_has_no_rule_and_runs_every_block() {
    let k = Fetch { body: vec![store(v("out"), v("__cons_item"), i(1)), ret()], ..solo_block() }
        .kernel();
    assert!(!has_rule(&k));
    let mut buf = vec![5];
    buf.resize(64, 0);
    let (out, r, _) = on_both(&k, &[vec![2; 32], buf], &[0], (8, 64));
    r.unwrap();
    assert_eq!(out[0][..6], [1, 1, 1, 1, 1, 2]);
}

#[test]
fn shapes_outside_the_fetch_loop_have_no_guard() {
    let negatives: Vec<(&str, Fetch)> = vec![
        (
            "a store after the loop",
            Fetch { after: vec![store(v("out"), add(i(20), cta_id()), ntid())], ..solo_block() },
        ),
        ("tid() in the prefix", Fetch { prefix: vec![let_("lane", tid())], ..solo_block() }),
        (
            "an alloc before the loop",
            Fetch { prefix: vec![alloc("nb", "no", i(64), AllocScope::Block)], ..solo_block() },
        ),
        ("`<=` in the guard", Fetch { guard: le, ..solo_block() }),
        ("a block-dependent load index", Fetch { cnt: load(v("out"), cta_id()), ..solo_block() }),
    ];
    for (what, f) in negatives {
        let k = f.kernel();
        assert!(!has_rule(&k), "{what}: must not get the rule");
        let (_, r, _) = run_solo_block(&k);
        r.unwrap_or_else(|e| panic!("{what}: {e}"));
    }
}

/// Fuel parity where copying starts: 52 blocks of 256 threads over 3 items,
/// so 49 idle blocks and 48 copied results. The tree walker's minimal
/// completing budget completes on the VM, and one step less exhausts both.
#[test]
fn fuel_runs_out_at_the_same_step_across_reused_blocks() {
    let k = solo_block().kernel();
    assert!(has_rule(&k));
    let arrays = [vec![2; 32], pair_buf()];
    let go = |exec, fuel| run(&k, exec, &arrays, &[0], (52, 256), Some(fuel));
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
    assert!(hi > 52, "every block must spend fuel beyond its launch step");
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
