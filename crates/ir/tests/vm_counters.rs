//! The VM's `ir.vm.*` counters and `sim.idle_blocks` (the blocks that
//! copied a VM block's result) are process-global, so this must stay the
//! only test in its binary: any concurrent launch would move them. The
//! kernel is installed without an executor pin, and only the VM moves these
//! counters, so the test also proves that the default executor is the VM.

use dpcons_ir::dsl::*;
use dpcons_ir::{install, install_with_engine, ExecEngine, Module};
use dpcons_sim::obs;
use dpcons_sim::{AllocKind, Engine, GpuConfig, LaunchSpec};

const COUNTERS: [&str; 4] =
    ["ir.vm.ops", "ir.vm.ops_full_warp", "ir.vm.mem_groups", "ir.vm.mem_groups_single_site"];

fn read() -> [u64; 4] {
    COUNTERS.map(|c| obs::counter(c).get())
}

/// One fresh engine running a kernel with per-lane and single-site loads,
/// stores and atomics; returns how far it moved each counter.
fn run_once() -> [u64; 4] {
    let mut m = Module::new();
    m.add(KernelBuilder::new("k").array("inp").array("out").scalar("n").body(vec![
        let_("row", load(v("inp"), i(0))),
        for_(
            "j",
            i(0),
            v("n"),
            vec![
                let_("x", load(v("inp"), add(v("row"), v("j")))),
                store(v("out"), tid(), add(v("x"), v("j"))),
            ],
        ),
        when(lt(tid(), i(20)), vec![atomic_add(None, v("out"), i(0), i(1))]),
    ]));
    let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
    let inp = eng.mem.alloc_array_init("inp", (0..64).collect());
    let out = eng.mem.alloc_array("out", 96);
    let ids = install(&mut eng, &m).unwrap();
    let before = read();
    let spec = LaunchSpec::new(ids["k"], 3, 96, vec![inp as i64, out as i64, 5]);
    eng.launch(spec).unwrap();
    let after = read();
    std::array::from_fn(|c| after[c] - before[c])
}

#[test]
fn vm_counters_are_deterministic_bounded_and_independent_of_tracing() {
    obs::set_tracing(false);
    let first = run_once();
    let second = run_once();
    assert_eq!(first, second, "two identical runs must count identically");
    let [ops, full, groups, single] = first;
    assert!(ops > 0 && groups > 0, "tracing off must still count: {first:?}");
    assert!(full > 0, "three full warps run the loop with every lane active: {first:?}");
    assert!(full < ops, "the `tid < 20` branch runs on a divergent warp: {first:?}");
    assert!(single > 0, "`inp[0]` and `inp[row + j]` are single-site: {first:?}");
    assert!(single <= groups, "single-site groups are a subset: {first:?}");
    assert!(single < groups, "`out[tid]` stores are per-lane: {first:?}");
    idle_blocks_count_the_copied_results_of_fetch_loop_launches_only();
}

/// A block-stride item-fetch loop (a consolidated SoloBlock child) launched
/// `<<<8, 64>>>` over 3 items, on `exec` (`None`: unpinned); returns how far
/// it moved `sim.idle_blocks`.
fn idle_blocks_moved(exec: Option<ExecEngine>) -> u64 {
    let mut m = Module::new();
    m.add(KernelBuilder::new("cons").array("out").array("buf").scalar("off").body(vec![
        let_("cnt", load(v("buf"), v("off"))),
        let_("item", cta_id()),
        while_(
            lt(v("item"), v("cnt")),
            vec![
                let_("x", load(v("buf"), add(add(v("off"), i(1)), v("item")))),
                store(v("out"), add(v("x"), tid()), v("item")),
                sync(),
                assign("item", add(v("item"), ncta())),
            ],
        ),
    ]));
    let mut eng = Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 12);
    let out = eng.mem.alloc_array("out", 256);
    let buf = eng.mem.alloc_array_init("buf", vec![3, 0, 64, 128]);
    let ids = install_with_engine(&mut eng, &m, exec).unwrap();
    let idle = obs::counter("sim.idle_blocks");
    let before = idle.get();
    eng.launch(LaunchSpec::new(ids["cons"], 8, 64, vec![out as i64, buf as i64, 0])).unwrap();
    idle.get() - before
}

/// `sim.idle_blocks` counts the copied results of fetch-loop launches on
/// the VM only; called from the one test so no other launch runs beside it.
fn idle_blocks_count_the_copied_results_of_fetch_loop_launches_only() {
    // Blocks 3..8 are idle: the first runs, the other 4 copy its result.
    assert_eq!(idle_blocks_moved(None), 4);
    assert_eq!(idle_blocks_moved(Some(ExecEngine::Tree)), 0, "the tree walker runs every block");
    let idle = obs::counter("sim.idle_blocks");
    let before = idle.get();
    run_once();
    assert_eq!(idle.get() - before, 0, "a kernel of another shape copies nothing");
    empty_warps_count_the_copied_traces_of_vm_runs_only();
}

/// The consolidated SSSP child (`sssp_child` in a block-stride fetch loop)
/// launched `<<<1, 256>>>` over 4 items of degree at most 32, on `exec`;
/// returns how far it moved `ir.vm.empty_warps`.
fn empty_warps_moved(exec: Option<ExecEngine>) -> u64 {
    let item = |j: i64| load(v("buf"), add(add(v("off"), i(1)), add(v("item"), i(j))));
    let mut m = Module::new();
    m.add(
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
                let_("item", cta_id()),
                while_(
                    lt(v("item"), v("cnt")),
                    vec![
                        let_("u", item(0)),
                        let_("first", load(v("row"), v("u"))),
                        let_("deg", sub(load(v("row"), add(v("u"), i(1))), v("first"))),
                        let_("du", load(v("dist"), v("u"))),
                        for_step(
                            "j",
                            tid(),
                            v("deg"),
                            ntid(),
                            vec![
                                let_("e", add(v("first"), v("j"))),
                                let_("dst", load(v("col"), v("e"))),
                                let_("nd", add(v("du"), load(v("wgt"), v("e")))),
                                atomic_min(Some("old"), v("dist"), v("dst"), v("nd")),
                                when(lt(v("nd"), v("old")), vec![store(v("flag"), i(0), i(1))]),
                            ],
                        ),
                        sync(),
                        assign("item", add(v("item"), ncta())),
                    ],
                ),
            ]),
    );
    // Nodes 0..4 with degrees 32, 1, 17, 0 over a 50-edge list.
    let mut eng = Engine::new(GpuConfig::k20c(), AllocKind::PreAlloc, 1 << 12);
    let arr = |e: &mut Engine, name, data: Vec<i64>| e.mem.alloc_array_init(name, data) as i64;
    let row = arr(&mut eng, "row", vec![0, 32, 33, 50, 50]);
    let col = arr(&mut eng, "col", (0..50).map(|e| e % 4).collect());
    let wgt = arr(&mut eng, "wgt", vec![1; 50]);
    let dist = arr(&mut eng, "dist", vec![0, 9, 9, 9]);
    let flag = arr(&mut eng, "flag", vec![0]);
    let buf = arr(&mut eng, "buf", vec![4, 0, 1, 2, 3]);
    let ids = install_with_engine(&mut eng, &m, exec).unwrap();
    let empty = obs::counter("ir.vm.empty_warps");
    let before = empty.get();
    let args = vec![row, col, wgt, dist, flag, buf, 0];
    eng.launch(LaunchSpec::new(ids["sssp_child__cons"], 1, 256, args)).unwrap();
    assert_eq!(eng.mem.slice(dist as usize).unwrap(), [0, 1, 1, 1], "{exec:?}");
    empty.get() - before
}

/// `ir.vm.empty_warps` counts the warps that copied a trace on the VM only.
fn empty_warps_count_the_copied_traces_of_vm_runs_only() {
    // Warp 0 runs every item's loop; warp 1 never enters it and touches only
    // segments warp 0 touched, so warps 2..8 copy its trace.
    assert_eq!(empty_warps_moved(None), 6);
    assert_eq!(empty_warps_moved(Some(ExecEngine::Tree)), 0, "the tree walker runs every warp");
    let empty = obs::counter("ir.vm.empty_warps");
    let before = empty.get();
    run_once();
    assert_eq!(empty.get() - before, 0, "a kernel without the item loop copies nothing");
}
