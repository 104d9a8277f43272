//! End-to-end validation of the consolidation transforms: for a
//! representative irregular-loop kernel and a recursive kernel, the
//! consolidated code generated at every granularity must produce *bit
//! identical* memory contents to the basic-dp original, and must launch far
//! fewer child kernels.

use std::collections::HashMap;

use dpcons_core::{
    consolidate, prepare_launch, reset_launch, ChildClass, ConfigPolicy, Directive, Granularity,
};
use dpcons_ir::dsl::*;
use dpcons_ir::{install, install_with_engine, ExecEngine, Module};
use dpcons_sim::{AllocKind, Engine, ExecRecord, GpuConfig, LaunchSpec, ProfileReport, SimError};

const HEAP_WORDS: u64 = 1 << 20;
const POOL_WORDS: u64 = 1 << 20;

fn engine() -> Engine {
    Engine::new(GpuConfig::k20c(), AllocKind::PreAlloc, HEAP_WORDS)
}

/// Run `f` on the bytecode VM and on the tree walker; both must leave the
/// same arrays and `ProfileReport`. Returns the VM's result.
fn on_both_executors<T: PartialEq>(what: &str, f: impl Fn(ExecEngine) -> T) -> T {
    let vm = f(ExecEngine::Bytecode);
    assert!(f(ExecEngine::Tree) == vm, "{what}: the tree executor diverged from the bytecode VM");
    vm
}

// ---------------------------------------------------------------------
// Scenario 1: irregular loop ("scatter-expand"). Each of n items has a
// degree; heavy items are delegated to a child kernel, light ones are
// processed inline. out[base[i] + j] = i for all j < deg[i].
// ---------------------------------------------------------------------

fn scatter_module() -> Module {
    let mut m = Module::new();
    m.add(
        KernelBuilder::new("expand_child")
            .array("deg")
            .array("base")
            .array("out")
            .scalar("item")
            .body(vec![for_step(
                "j",
                tid(),
                load(v("deg"), v("item")),
                ntid(),
                vec![store(v("out"), add(load(v("base"), v("item")), v("j")), v("item"))],
            )]),
    );
    m.add(
        KernelBuilder::new("expand_parent")
            .array("deg")
            .array("base")
            .array("out")
            .scalar("n")
            .scalar("thr")
            .body(vec![
                let_("id", gtid()),
                when(
                    lt(v("id"), v("n")),
                    vec![
                        let_("d", load(v("deg"), v("id"))),
                        if_(
                            gt(v("d"), v("thr")),
                            vec![launch(
                                "expand_child",
                                i(1),
                                i(64),
                                vec![v("deg"), v("base"), v("out"), v("id")],
                            )],
                            vec![for_(
                                "j",
                                i(0),
                                v("d"),
                                vec![store(
                                    v("out"),
                                    add(load(v("base"), v("id")), v("j")),
                                    v("id"),
                                )],
                            )],
                        ),
                    ],
                ),
            ]),
    );
    m
}

struct ScatterData {
    deg: Vec<i64>,
    base: Vec<i64>,
    total: usize,
}

fn scatter_data(n: usize) -> ScatterData {
    // Deterministic irregular degrees: mostly small, a few heavy.
    let deg: Vec<i64> = (0..n)
        .map(|i| if i % 17 == 0 { 200 + (i % 7) as i64 * 31 } else { (i % 9) as i64 })
        .collect();
    let mut base = Vec::with_capacity(n);
    let mut acc = 0i64;
    for &d in &deg {
        base.push(acc);
        acc += d;
    }
    ScatterData { deg, base, total: acc as usize }
}

fn scatter_expected(d: &ScatterData) -> Vec<i64> {
    let mut out = vec![-1i64; d.total];
    for (i, (&dg, &b)) in d.deg.iter().zip(&d.base).enumerate() {
        for j in 0..dg {
            out[(b + j) as usize] = i as i64;
        }
    }
    out
}

fn run_scatter_basic(n: usize, thr: i64) -> (Vec<i64>, ProfileReport) {
    let d = scatter_data(n);
    on_both_executors("scatter basic-dp", |exec| {
        let mut e = engine();
        let deg = e.mem.alloc_array_init("deg", d.deg.clone());
        let base = e.mem.alloc_array_init("base", d.base.clone());
        let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
        let ids = install_with_engine(&mut e, &scatter_module(), Some(exec)).unwrap();
        let grid = (n as u32).div_ceil(128);
        let r = e
            .launch(LaunchSpec::new(
                ids["expand_parent"],
                grid,
                128,
                vec![deg as i64, base as i64, out as i64, n as i64, thr],
            ))
            .unwrap();
        (e.mem.slice(out).unwrap().to_vec(), r)
    })
}

fn run_scatter_consolidated(
    n: usize,
    thr: i64,
    g: Granularity,
    policy: Option<ConfigPolicy>,
) -> (Vec<i64>, ProfileReport) {
    let d = scatter_data(n);
    let pragma =
        format!("#pragma dp consldt({}) buffer(custom, perBufferSize: 256) work(id)", g.label());
    let dir = Directive::parse(&pragma).unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), policy).unwrap();
    assert_eq!(cons.info.child_class, ChildClass::SoloBlock);

    on_both_executors(&pragma, |exec| {
        let mut e = engine();
        let deg = e.mem.alloc_array_init("deg", d.deg.clone());
        let base = e.mem.alloc_array_init("base", d.base.clone());
        let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
        let ids: HashMap<_, _> = install_with_engine(&mut e, &cons.module, Some(exec)).unwrap();
        let grid = (n as u32).div_ceil(128);
        let mut prep = prepare_launch(
            &mut e,
            &cons.info,
            &ids,
            &[deg as i64, base as i64, out as i64, n as i64, thr],
            (grid, 128),
            POOL_WORDS,
        )
        .unwrap();
        reset_launch(&mut e, &mut prep).unwrap();
        let r = e.launch(prep.spec.clone()).unwrap();
        (e.mem.slice(out).unwrap().to_vec(), r)
    })
}

#[test]
fn scatter_basic_matches_reference() {
    let d = scatter_data(500);
    let (out, r) = run_scatter_basic(500, 32);
    assert_eq!(out, scatter_expected(&d));
    assert!(r.device_launches > 0);
}

#[test]
fn scatter_consolidation_preserves_results_all_granularities() {
    let n = 500;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    let (basic_out, basic_r) = run_scatter_basic(n, 32);
    assert_eq!(basic_out, expected);
    for g in Granularity::ALL {
        let (out, r) = run_scatter_consolidated(n, 32, g, None);
        assert_eq!(out, expected, "{} consolidation changed results", g.label());
        assert!(
            r.device_launches < basic_r.device_launches,
            "{}: {} launches vs basic {}",
            g.label(),
            r.device_launches,
            basic_r.device_launches
        );
    }
}

#[test]
fn scatter_launch_reduction_matches_granularity() {
    // Low threshold: nearly half the items are delegated, so the per-thread
    // basic-dp code performs hundreds of launches.
    let n = 2048;
    let (_, basic) = run_scatter_basic(n, 4);
    let (_, warp) = run_scatter_consolidated(n, 4, Granularity::Warp, None);
    let (_, block) = run_scatter_consolidated(n, 4, Granularity::Block, None);
    let (_, grid) = run_scatter_consolidated(n, 4, Granularity::Grid, None);
    // Warp-level consolidation reduces launches by up to 32x; block by up to
    // the block size; grid to exactly one.
    assert!(warp.device_launches <= basic.device_launches.div_ceil(4));
    assert!(block.device_launches <= warp.device_launches);
    assert_eq!(grid.device_launches, 1);
    // And the time ordering the paper reports: consolidated beats basic.
    assert!(warp.total_cycles < basic.total_cycles);
    assert!(block.total_cycles < basic.total_cycles);
    assert!(grid.total_cycles < basic.total_cycles);
}

#[test]
fn scatter_one_to_one_policy_also_correct() {
    let n = 400;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    for g in Granularity::ALL {
        let (out, _) = run_scatter_consolidated(n, 32, g, Some(ConfigPolicy::OneToOne));
        assert_eq!(out, expected, "1-1 policy at {}", g.label());
    }
}

#[test]
fn scatter_custom_policy_respects_directive() {
    let n = 300;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    let (out, _) =
        run_scatter_consolidated(n, 32, Granularity::Block, Some(ConfigPolicy::Custom(4, 64)));
    assert_eq!(out, expected);
}

#[test]
fn consolidated_warp_efficiency_improves() {
    let n = 2048;
    let (_, basic) = run_scatter_basic(n, 16);
    let (_, grid) = run_scatter_consolidated(n, 16, Granularity::Grid, None);
    assert!(
        grid.warp_exec_efficiency > basic.warp_exec_efficiency,
        "grid {} vs basic {}",
        grid.warp_exec_efficiency,
        basic.warp_exec_efficiency
    );
}

// ---------------------------------------------------------------------
// Scenario 2: parallel recursion (tree descendants counting, Fig. 1c).
// ---------------------------------------------------------------------

/// A fixed small tree in CSR layout: childptr[v]..childptr[v+1] indexes
/// children[]. Returns (childptr, children, root, expected_descendants).
fn small_tree() -> (Vec<i64>, Vec<i64>, i64, i64) {
    // 0 -> 1,2,3 ; 1 -> 4,5 ; 2 -> 6 ; 4 -> 7,8,9 ; rest leaves. 9 nodes under root.
    let childptr = vec![0, 3, 5, 6, 6, 9, 9, 9, 9, 9, 9];
    let children = vec![1, 2, 3, 4, 5, 6, 7, 8, 9];
    (childptr, children, 0, 9)
}

fn rec_module() -> Module {
    let mut m = Module::new();
    // Fig 1(c) shape: each thread takes one child of `node`; leaves do the
    // leaf work (count), inner nodes count themselves and recurse.
    m.add(
        KernelBuilder::new("treedesc")
            .array("childptr")
            .array("children")
            .array("ndesc")
            .scalar("node")
            .body(vec![
                let_("first", load(v("childptr"), v("node"))),
                let_("cnt", sub(load(v("childptr"), add(v("node"), i(1))), v("first"))),
                for_step(
                    "jj",
                    tid(),
                    v("cnt"),
                    ntid(),
                    vec![
                        let_("c", load(v("children"), add(v("first"), v("jj")))),
                        atomic_add(None, v("ndesc"), i(0), i(1)),
                        let_(
                            "cdeg",
                            sub(
                                load(v("childptr"), add(v("c"), i(1))),
                                load(v("childptr"), v("c")),
                            ),
                        ),
                        when(
                            gt(v("cdeg"), i(0)),
                            vec![launch(
                                "treedesc",
                                i(1),
                                v("cdeg"),
                                vec![v("childptr"), v("children"), v("ndesc"), v("c")],
                            )],
                        ),
                    ],
                ),
            ]),
    );
    m
}

fn run_rec_basic() -> (i64, ProfileReport) {
    let (cp, ch, root, _) = small_tree();
    on_both_executors("recursion basic-dp", |exec| {
        let mut e = engine();
        let cp_h = e.mem.alloc_array_init("childptr", cp.clone());
        let ch_h = e.mem.alloc_array_init("children", ch.clone());
        let nd = e.mem.alloc_array("ndesc", 1);
        let ids = install_with_engine(&mut e, &rec_module(), Some(exec)).unwrap();
        let rootdeg = (cp[root as usize + 1] - cp[root as usize]) as u32;
        let r = e
            .launch(LaunchSpec::new(
                ids["treedesc"],
                1,
                rootdeg,
                vec![cp_h as i64, ch_h as i64, nd as i64, root],
            ))
            .unwrap();
        (e.mem.read(nd, 0).unwrap(), r)
    })
}

fn run_rec_consolidated(g: Granularity) -> (i64, ProfileReport) {
    let (cp, ch, root, _) = small_tree();
    let pragma = format!(
        "#pragma dp consldt({}) buffer(custom, perBufferSize: 64, totalSize: 4096) work(c)",
        g.label()
    );
    let dir = Directive::parse(&pragma).unwrap();
    let cons = consolidate(&rec_module(), "treedesc", &dir, &GpuConfig::k20c(), None).unwrap();
    assert!(cons.info.recursive);

    on_both_executors(&pragma, |exec| {
        let mut e = engine();
        let cp_h = e.mem.alloc_array_init("childptr", cp.clone());
        let ch_h = e.mem.alloc_array_init("children", ch.clone());
        let nd = e.mem.alloc_array("ndesc", 1);
        let ids: HashMap<_, _> = install_with_engine(&mut e, &cons.module, Some(exec)).unwrap();
        let rootdeg = (cp[root as usize + 1] - cp[root as usize]) as u32;
        let mut prep = prepare_launch(
            &mut e,
            &cons.info,
            &ids,
            &[cp_h as i64, ch_h as i64, nd as i64, root],
            (1, rootdeg),
            POOL_WORDS,
        )
        .unwrap();
        reset_launch(&mut e, &mut prep).unwrap();
        let r = e.launch(prep.spec.clone()).unwrap();
        (e.mem.read(nd, 0).unwrap(), r)
    })
}

#[test]
fn recursion_basic_counts_descendants() {
    let (_, _, _, expected) = small_tree();
    let (count, r) = run_rec_basic();
    assert_eq!(count, expected);
    assert!(r.max_depth >= 2);
}

#[test]
fn recursion_consolidation_preserves_results() {
    let (_, _, _, expected) = small_tree();
    let (_, basic_r) = run_rec_basic();
    for g in Granularity::ALL {
        let (count, r) = run_rec_consolidated(g);
        assert_eq!(count, expected, "{} recursion consolidation broke results", g.label());
        assert!(
            r.device_launches <= basic_r.device_launches,
            "{}: {} vs {}",
            g.label(),
            r.device_launches,
            basic_r.device_launches
        );
    }
}

#[test]
fn grid_recursion_launches_once_per_level() {
    // Tree depth is 3 (root -> 1 -> 4 -> 7): grid-level consolidation should
    // launch exactly one consolidated kernel per level below the seed.
    let (count, r) = run_rec_consolidated(Granularity::Grid);
    assert_eq!(count, 9);
    assert_eq!(r.device_launches, 2, "levels below the seeded level");
}

// ---------------------------------------------------------------------
// Generated-source goldens.
// ---------------------------------------------------------------------

#[test]
fn generated_parent_contains_template_elements() {
    let dir =
        Directive::parse("dp consldt(block) buffer(custom, perBufferSize: 256) work(id)").unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    let src = dpcons_ir::module_to_string(&cons.module);
    // Figure 4(b) structure: buffer alloc, guarded count init, insertion via
    // atomicAdd, __syncthreads barrier, guarded consolidated launch.
    assert!(src.contains("__cons_alloc_block"));
    assert!(src.contains("atomicAdd(&__cons_buf["));
    assert!(src.contains("__syncthreads();"));
    assert!(src.contains("expand_child__cons<<<"));
    assert!(src.contains("(threadIdx.x % 32) == 0"), "launcher guard present:\n{src}");
    // The consolidated child fetches from the buffer with a block-stride loop.
    assert!(src.contains("__global__ void expand_child__cons"));
    assert!(src.contains("while ((__cons_item < __cons_cnt))"));
}

#[test]
fn generated_grid_parent_uses_global_barrier() {
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    let src = dpcons_ir::module_to_string(&cons.module);
    assert!(src.contains("atomicAdd(&__cons_counter[0], -1)"));
    assert!(src.contains("if ((__cons_bar == 1))"));
    assert!(!src.contains("__cons_alloc"), "grid level uses the runtime pool, not device alloc");
}

/// The scatter parent plus postwork that depends on prework (`id`): every
/// thread stores a sentinel over its own `out[id]`.
fn scatter_module_with_postwork() -> Module {
    let mut m = scatter_module();
    let p = m.get_mut("expand_parent").unwrap();
    p.body.push(when(lt(v("id"), v("n")), vec![store(v("out"), v("id"), i(-7))]));
    m
}

#[test]
fn postwork_moves_to_consolidated_kernel_at_grid_level() {
    let m = scatter_module_with_postwork();
    // Build expected by hand: the child/inline writes happen first, then
    // postwork overwrites out[id] for id < n.
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();
    let cons = consolidate(&m, "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    assert!(cons.info.postwork.is_some());
    let src = dpcons_ir::module_to_string(&cons.module);
    assert!(src.contains("__global__ void expand_parent__postwork"));
    assert!(src.contains("cudaDeviceSynchronize();"));
    assert!(src.contains("expand_parent__postwork<<<gridDim.x, blockDim.x>>>"));

    // Execute and compare against the *synchronized* expectation: children
    // complete (scatter writes), then postwork overwrites out[id] with -7.
    // (The basic-dp original is racy here: CUDA gives no ordering between
    // asynchronous children and parent postwork without synchronization.
    // The grid-level transform inserts cudaDeviceSynchronize, making the
    // consolidated code well-defined.)
    let n = 300usize;
    let thr = 32;
    let d = scatter_data(n);
    let mut expected = scatter_expected(&d);
    for id in 0..n.min(d.total) {
        expected[id] = -7;
    }
    let run = |module: &Module, consolidated: Option<&dpcons_core::Consolidated>| {
        on_both_executors("postwork", |exec| {
            let mut e = engine();
            let deg = e.mem.alloc_array_init("deg", d.deg.clone());
            let base = e.mem.alloc_array_init("base", d.base.clone());
            let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
            let ids = install_with_engine(&mut e, module, Some(exec)).unwrap();
            let args = vec![deg as i64, base as i64, out as i64, n as i64, thr];
            let grid = (n as u32).div_ceil(128);
            let r = match consolidated {
                None => e.launch(LaunchSpec::new(ids["expand_parent"], grid, 128, args)).unwrap(),
                Some(c) => {
                    let mut prep =
                        prepare_launch(&mut e, &c.info, &ids, &args, (grid, 128), POOL_WORDS)
                            .unwrap();
                    reset_launch(&mut e, &mut prep).unwrap();
                    e.launch(prep.spec.clone()).unwrap()
                }
            };
            (e.mem.slice(out).unwrap().to_vec(), r)
        })
        .0
    };
    let grid_out = run(&cons.module, Some(&cons));
    assert_eq!(grid_out, expected, "postwork consolidation broke synchronized semantics");
    // The prework slice must re-derive `id` (needed by the postwork) inside
    // the postwork kernel.
    let pw_src = dpcons_ir::kernel_to_string(cons.module.get("expand_parent__postwork").unwrap());
    assert!(pw_src.contains("long id ="), "prework slice should duplicate `id`:\n{pw_src}");
    let _ = run(&m, None); // the racy basic variant still executes fine
}

#[test]
fn pre_alloc_buffer_reuse_across_host_launches() {
    // Re-launching with a reset PreparedLaunch must give identical results.
    let n = 300;
    let d = scatter_data(n);
    let expected = scatter_expected(&d);
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();
    let cons =
        consolidate(&scatter_module(), "expand_parent", &dir, &GpuConfig::k20c(), None).unwrap();
    on_both_executors("buffer reuse", |exec| {
        let mut e = engine();
        let deg = e.mem.alloc_array_init("deg", d.deg.clone());
        let base = e.mem.alloc_array_init("base", d.base.clone());
        let out = e.mem.alloc_array_init("out", vec![-1; d.total]);
        let ids = install_with_engine(&mut e, &cons.module, Some(exec)).unwrap();
        let grid = (n as u32).div_ceil(128);
        let mut prep = prepare_launch(
            &mut e,
            &cons.info,
            &ids,
            &[deg as i64, base as i64, out as i64, n as i64, 32],
            (grid, 128),
            POOL_WORDS,
        )
        .unwrap();
        let mut reports = Vec::new();
        for _ in 0..3 {
            e.mem.fill(out, -1).unwrap();
            reset_launch(&mut e, &mut prep).unwrap();
            reports.push(e.launch(prep.spec.clone()).unwrap());
            assert_eq!(e.mem.slice(out).unwrap(), &expected[..]);
        }
        reports
    });
}

// ---------------------------------------------------------------------
// Host launch state: `reset_launch` clears only the pool's count headers,
// so nothing else in the pool may be observable. Every hand-driven
// grid-level case is re-run with the pool poisoned before each reset and
// must be indistinguishable from the clean run. (The solo-thread and
// multi-block child classes get the same treatment inside
// `transform_classes.rs`'s harness.)
// ---------------------------------------------------------------------

/// Everything observable about a sequence of host launches.
#[derive(Debug, PartialEq)]
struct Observed {
    arrays: Vec<Vec<i64>>,
    reports: Vec<ProfileReport>,
    dags: Vec<Vec<ExecRecord>>,
}

fn observe_grid(
    cons: &dpcons_core::Consolidated,
    arrays: &[(&str, Vec<i64>)],
    scalars: &[i64],
    config: (u32, u32),
    launches: usize,
    poison: Option<i64>,
) -> Observed {
    on_both_executors("grid-level host launches", |exec| {
        let mut e = engine();
        let handles: Vec<_> =
            arrays.iter().map(|(n, d)| e.mem.alloc_array_init(n, d.clone())).collect();
        let ids = install_with_engine(&mut e, &cons.module, Some(exec)).unwrap();
        let mut args: Vec<i64> = handles.iter().map(|&h| h as i64).collect();
        args.extend_from_slice(scalars);
        let mut prep = prepare_launch(&mut e, &cons.info, &ids, &args, config, POOL_WORDS).unwrap();
        let pool = prep.pool.expect("grid level uses the pool");
        let (mut reports, mut dags) = (Vec::new(), Vec::new());
        for _ in 0..launches {
            if let Some(garbage) = poison {
                e.mem.fill(pool, garbage).unwrap();
            }
            reset_launch(&mut e, &mut prep).unwrap();
            let (report, records) = e.launch_traced(prep.spec.clone()).unwrap();
            reports.push(report);
            dags.push(records);
        }
        let arrays = handles.iter().map(|&h| e.mem.slice(h).unwrap().to_vec()).collect();
        Observed { arrays, reports, dags }
    })
}

fn assert_poison_is_unobservable(
    what: &str,
    cons: &dpcons_core::Consolidated,
    arrays: &[(&str, Vec<i64>)],
    scalars: &[i64],
    config: (u32, u32),
    launches: usize,
) {
    assert_eq!(cons.info.granularity, Granularity::Grid);
    let clean = observe_grid(cons, arrays, scalars, config, launches, None);
    assert!(clean.reports.iter().all(|r| r.total_cycles > 0 && r.dram_transactions > 0));
    for garbage in [0x5A5A_5A5A_5A5A_5A5A, -1] {
        let dirty = observe_grid(cons, arrays, scalars, config, launches, Some(garbage));
        assert!(dirty == clean, "{what}: pool garbage {garbage:#x} changed the run");
    }
}

#[test]
fn stale_pool_contents_are_unobservable_at_grid_level() {
    let gpu = GpuConfig::k20c();
    let n = 500usize;
    let d = scatter_data(n);
    let arrays = [("deg", d.deg.clone()), ("base", d.base.clone()), ("out", vec![-1; d.total])];
    let scalars = [n as i64, 32];
    let config = ((n as u32).div_ceil(128), 128);
    let dir = Directive::parse("dp consldt(grid) work(id)").unwrap();

    // Irregular loop, one launch and the multi-launch loop (each launch must
    // also be indistinguishable from the first: same DAG, same profile).
    let plain = consolidate(&scatter_module(), "expand_parent", &dir, &gpu, None).unwrap();
    assert_poison_is_unobservable("irregular loop", &plain, &arrays, &scalars, config, 1);
    assert_poison_is_unobservable("multi-launch loop", &plain, &arrays, &scalars, config, 3);
    let looped = observe_grid(&plain, &arrays, &scalars, config, 3, Some(i64::MAX));
    assert_eq!(looped.arrays[2], scatter_expected(&d));
    assert!(looped.reports.iter().all(|r| *r == looped.reports[0]));
    assert!(looped.dags.iter().all(|g| *g == looped.dags[0]));

    // Irregular loop with postwork.
    let m = scatter_module_with_postwork();
    let post = consolidate(&m, "expand_parent", &dir, &gpu, None).unwrap();
    assert!(post.info.postwork.is_some());
    assert_poison_is_unobservable("postwork", &post, &arrays, &scalars, config, 2);

    // Recursion: one pool buffer per level, each with its own header.
    let (cp, ch, root, expected) = small_tree();
    let rootdeg = (cp[root as usize + 1] - cp[root as usize]) as u32;
    let tree = [("childptr", cp), ("children", ch), ("ndesc", vec![0])];
    for pragma in [
        "dp consldt(grid) buffer(custom, perBufferSize: 64, totalSize: 4096) work(c)",
        "dp consldt(grid) work(c)",
    ] {
        let dir = Directive::parse(pragma).unwrap();
        let rec = consolidate(&rec_module(), "treedesc", &dir, &gpu, None).unwrap();
        assert_poison_is_unobservable(pragma, &rec, &tree, &[root], (1, rootdeg), 1);
        let out = observe_grid(&rec, &tree, &[root], (1, rootdeg), 1, Some(i64::MIN));
        assert_eq!(out.arrays[2], [expected]);
    }
}

#[test]
fn reset_writes_headers_not_the_pool() {
    let gpu = GpuConfig::k20c();
    let dir = Directive::parse("dp consldt(grid) work(c)").unwrap();
    let rec = consolidate(&rec_module(), "treedesc", &dir, &gpu, None).unwrap();
    let mut e = engine();
    let ids = install(&mut e, &rec.module).unwrap();
    let mut prep = prepare_launch(&mut e, &rec.info, &ids, &[0, 1, 2, 3], (1, 1), 1 << 16).unwrap();
    // Default level stride is 1 + 65536 * nv: only level 0's header fits a
    // 64 K-word pool, and the reset must not index past its end.
    let pool = prep.pool.unwrap();
    e.mem.fill(pool, 9).unwrap();
    reset_launch(&mut e, &mut prep).unwrap();
    let words = e.mem.slice(pool).unwrap();
    assert_eq!(&words[..2], [1, 3], "count header, then the seeded work item");
    assert!(words[2..].iter().all(|&w| w == 9));
    // Headers + 26 barrier counters + the seed.
    assert_eq!(prep.reset_words(), 1 + 26 + 2);
}

#[test]
fn prepare_launch_rejects_malformed_host_launches_with_typed_errors() {
    let gpu = GpuConfig::k20c();
    let named_entry = |err: SimError| match err {
        SimError::KernelFault { kernel, message } => {
            assert_eq!(kernel, "treedesc__cons");
            message
        }
        other => panic!("expected a kernel fault, got {other:?}"),
    };
    for g in Granularity::ALL {
        let dir = Directive::parse(&format!("dp consldt({}) work(c)", g.label())).unwrap();
        let mut rec = consolidate(&rec_module(), "treedesc", &dir, &gpu, None).unwrap();
        let mut e = engine();
        let ids = install(&mut e, &rec.module).unwrap();
        // `treedesc` takes four arguments; the work item is the fourth.
        let short = prepare_launch(&mut e, &rec.info, &ids, &[0, 1, 2], (1, 1), POOL_WORDS);
        assert!(named_entry(short.unwrap_err()).contains("3 arguments"));
        let none = prepare_launch(&mut e, &rec.info, &ids, &[], (1, 1), POOL_WORDS);
        assert!(named_entry(none.unwrap_err()).contains("0 arguments"));
        if g == Granularity::Grid {
            rec.info.grid_extras = None;
            let bare = prepare_launch(&mut e, &rec.info, &ids, &[0, 1, 2, 3], (1, 1), POOL_WORDS);
            assert!(named_entry(bare.unwrap_err()).contains("pool layout"));
        }
    }
}
