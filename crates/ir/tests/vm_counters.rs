//! The VM's `ir.vm.*` counters are process-global, so this must stay the
//! only test in its binary: any concurrent launch would move them.

use dpcons_ir::dsl::*;
use dpcons_ir::{install_with_engine, ExecEngine, Module};
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
    let ids = install_with_engine(&mut eng, &m, Some(ExecEngine::Bytecode)).unwrap();
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
}
