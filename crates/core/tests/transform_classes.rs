//! End-to-end coverage of the transform paths the benchmark apps don't
//! exercise: solo-thread and multi-block child classes, multi-variable work
//! items, variable-sized buffers (`perBufferSize: <var>`), warp/block-level
//! postwork, and the default/halloc allocators under generated code.

use std::collections::HashMap;

use dpcons_core::{
    analyze, consolidate, prepare_launch, reset_launch, ChildClass, ConfigPolicy, Directive,
    Granularity,
};
use dpcons_ir::dsl::*;
use dpcons_ir::{install_with_engine, ExecEngine, Module};
use dpcons_sim::{AllocKind, Engine, GpuConfig, LaunchSpec};

const POOL: u64 = 1 << 20;

/// Run `f` on the bytecode VM and on the tree walker; both must leave the
/// same arrays and `ProfileReport`. Returns the VM's result.
fn on_both_executors<T: PartialEq>(what: &str, f: impl Fn(ExecEngine) -> T) -> T {
    let vm = f(ExecEngine::Bytecode);
    assert!(f(ExecEngine::Tree) == vm, "{what}: the tree executor diverged from the bytecode VM");
    vm
}

#[allow(clippy::too_many_arguments)] // test harness: mirrors the host-launch surface
fn run_consolidated(
    module: &Module,
    parent: &str,
    pragma: &str,
    alloc: AllocKind,
    policy: Option<ConfigPolicy>,
    arrays: Vec<(&str, Vec<i64>)>,
    scalars: Vec<i64>,
    config: (u32, u32),
) -> (Vec<Vec<i64>>, dpcons_sim::ProfileReport, ChildClass) {
    let dir = Directive::parse(pragma).unwrap();
    let cons = consolidate(module, parent, &dir, &GpuConfig::k20c(), policy).unwrap();
    let run = |poison: Option<i64>, exec: ExecEngine| {
        let mut e = Engine::new(GpuConfig::k20c(), alloc, 1 << 22);
        let handles: Vec<_> =
            arrays.iter().map(|(n, d)| e.mem.alloc_array_init(n, d.clone())).collect();
        let ids: HashMap<_, _> = install_with_engine(&mut e, &cons.module, Some(exec)).unwrap();
        let mut args: Vec<i64> = handles.iter().map(|&h| h as i64).collect();
        args.extend(&scalars);
        let mut prep = prepare_launch(&mut e, &cons.info, &ids, &args, config, POOL).unwrap();
        if let (Some(pool), Some(garbage)) = (prep.pool, poison) {
            e.mem.fill(pool, garbage).unwrap();
        }
        reset_launch(&mut e, &mut prep).unwrap();
        let r = e.launch(prep.spec.clone()).unwrap();
        let out: Vec<Vec<i64>> =
            handles.iter().map(|&h| e.mem.slice(h).unwrap().to_vec()).collect();
        (out, r)
    };
    let clean = on_both_executors(pragma, |exec| run(None, exec));
    // `reset_launch` clears the pool's count headers only: for every child
    // class, whatever else the pool holds must not reach the run.
    if cons.info.granularity == Granularity::Grid {
        let dirty = on_both_executors(pragma, |exec| run(Some(0x5A5A_5A5A_5A5A_5A5A), exec));
        assert!(dirty == clean, "{pragma}: stale pool is observable");
    }
    let (out, r) = clean;
    (out, r, analyze(module, parent, &dir).unwrap().launch.class)
}

fn run_basic(
    module: &Module,
    parent: &str,
    arrays: Vec<(&str, Vec<i64>)>,
    scalars: Vec<i64>,
    config: (u32, u32),
) -> Vec<Vec<i64>> {
    let (out, _report) = on_both_executors(parent, |exec| {
        let mut e = Engine::new(GpuConfig::k20c(), AllocKind::PreAlloc, 1 << 22);
        let handles: Vec<_> =
            arrays.iter().map(|(n, d)| e.mem.alloc_array_init(n, d.clone())).collect();
        let ids = install_with_engine(&mut e, module, Some(exec)).unwrap();
        let mut args: Vec<i64> = handles.iter().map(|&h| h as i64).collect();
        args.extend(&scalars);
        let r = e.launch(LaunchSpec::new(ids[parent], config.0, config.1, args)).unwrap();
        let out: Vec<Vec<i64>> =
            handles.iter().map(|&h| e.mem.slice(h).unwrap().to_vec()).collect();
        (out, r)
    });
    out
}

// ------------------------------------------------------------------
// Solo-thread child (<<<1,1>>>, like quick sort in the CUDA SDK).
// ------------------------------------------------------------------

/// Each heavy item is processed by a single-thread child computing a serial
/// checksum; the consolidated child becomes a grid-stride thread-per-item
/// loop.
fn solo_thread_module() -> Module {
    let mut m = Module::new();
    m.add(KernelBuilder::new("serial_child").array("vals").array("out").scalar("item").body(vec![
        let_("acc", i(0)),
        for_(
            "j",
            i(0),
            load(v("vals"), v("item")),
            vec![assign("acc", add(v("acc"), add(v("item"), v("j"))))],
        ),
        store(v("out"), v("item"), v("acc")),
    ]));
    m.add(KernelBuilder::new("parent").array("vals").array("out").scalar("n").body(vec![
        let_("id", gtid()),
        when(
            lt(v("id"), v("n")),
            vec![if_(
                gt(load(v("vals"), v("id")), i(4)),
                vec![launch("serial_child", i(1), i(1), vec![v("vals"), v("out"), v("id")])],
                vec![store(v("out"), v("id"), neg(v("id")))],
            )],
        ),
    ]));
    m
}

fn solo_thread_expected(vals: &[i64]) -> Vec<i64> {
    vals.iter()
        .enumerate()
        .map(|(id, &s)| if s > 4 { (0..s).map(|j| id as i64 + j).sum() } else { -(id as i64) })
        .collect()
}

#[test]
fn solo_thread_class_all_granularities() {
    let n = 700usize;
    let vals: Vec<i64> = (0..n as i64).map(|x| x % 13).collect();
    let expected = solo_thread_expected(&vals);
    let basic = run_basic(
        &solo_thread_module(),
        "parent",
        vec![("vals", vals.clone()), ("out", vec![0; n])],
        vec![n as i64],
        ((n as u32).div_ceil(128), 128),
    );
    assert_eq!(basic[1], expected);
    for g in Granularity::ALL {
        let pragma = format!("dp consldt({}) buffer(custom) work(id)", g.label());
        let (out, _, class) = run_consolidated(
            &solo_thread_module(),
            "parent",
            &pragma,
            AllocKind::PreAlloc,
            None,
            vec![("vals", vals.clone()), ("out", vec![0; n])],
            vec![n as i64],
            ((n as u32).div_ceil(128), 128),
        );
        assert_eq!(class, ChildClass::SoloThread);
        assert_eq!(out[1], expected, "{} broke solo-thread results", g.label());
    }
}

#[test]
fn solo_thread_one_to_one_uses_thread_mapping() {
    let n = 300usize;
    let vals: Vec<i64> = (0..n as i64).map(|x| 5 + x % 7).collect(); // all heavy
    let expected = solo_thread_expected(&vals);
    let (out, r, _) = run_consolidated(
        &solo_thread_module(),
        "parent",
        "dp consldt(grid) buffer(custom) work(id)",
        AllocKind::PreAlloc,
        Some(ConfigPolicy::OneToOne),
        vec![("vals", vals), ("out", vec![0; n])],
        vec![n as i64],
        ((n as u32).div_ceil(128), 128),
    );
    assert_eq!(out[1], expected);
    assert_eq!(r.device_launches, 1);
}

// ------------------------------------------------------------------
// Multi-block child: the whole child grid cooperates on one work item
// with a moldable grid-stride body.
// ------------------------------------------------------------------

fn multi_block_module() -> Module {
    let mut m = Module::new();
    // Child zeroes a row of `width` cells using the whole grid.
    m.add(KernelBuilder::new("wipe_row").array("data").scalar("width").scalar("row").body(vec![
        for_step(
            "j",
            gtid(),
            v("width"),
            mul(ntid(), ncta()),
            vec![store(v("data"), add(mul(v("row"), v("width")), v("j")), v("row"))],
        ),
    ]));
    m.add(
        KernelBuilder::new("parent")
            .array("data")
            .array("dirty")
            .scalar("width")
            .scalar("rows")
            .body(vec![
                let_("r", gtid()),
                when(
                    lt(v("r"), v("rows")),
                    vec![when(
                        gt(load(v("dirty"), v("r")), i(0)),
                        vec![launch("wipe_row", i(4), i(64), vec![v("data"), v("width"), v("r")])],
                    )],
                ),
            ]),
    );
    m
}

#[test]
fn multi_block_class_all_granularities() {
    let rows = 40usize;
    let width = 100usize;
    let dirty: Vec<i64> = (0..rows as i64).map(|r| (r % 3 == 0) as i64).collect();
    let mut expected = vec![-1i64; rows * width];
    for r in 0..rows {
        if dirty[r] > 0 {
            for j in 0..width {
                expected[r * width + j] = r as i64;
            }
        }
    }
    for g in Granularity::ALL {
        let pragma = format!("dp consldt({}) buffer(custom) work(r)", g.label());
        let (out, _, class) = run_consolidated(
            &multi_block_module(),
            "parent",
            &pragma,
            AllocKind::PreAlloc,
            None,
            vec![("data", vec![-1; rows * width]), ("dirty", dirty.clone())],
            vec![width as i64, rows as i64],
            (1, 64),
        );
        assert_eq!(class, ChildClass::MultiBlock);
        assert_eq!(out[0], expected, "{} broke multi-block results", g.label());
    }
}

// ------------------------------------------------------------------
// Multi-variable work items (nv = 2).
// ------------------------------------------------------------------

fn two_var_module() -> Module {
    let mut m = Module::new();
    m.add(KernelBuilder::new("pair_child").array("out").scalar("slot").scalar("value").body(vec![
        for_step(
            "j",
            tid(),
            i(1),
            ntid(),
            vec![store(v("out"), v("slot"), mul(v("value"), i(10)))],
        ),
    ]));
    m.add(KernelBuilder::new("parent").array("src").array("out").scalar("n").body(vec![
        let_("id", gtid()),
        when(
            lt(v("id"), v("n")),
            vec![
                let_("val", load(v("src"), v("id"))),
                when(
                    gt(v("val"), i(0)),
                    vec![launch("pair_child", i(1), i(32), vec![v("out"), v("id"), v("val")])],
                ),
            ],
        ),
    ]));
    m
}

#[test]
fn two_work_variables_buffer_layout() {
    let n = 500usize;
    let src: Vec<i64> = (0..n as i64).map(|x| if x % 4 == 0 { 0 } else { x }).collect();
    let expected: Vec<i64> = src.iter().map(|&val| if val > 0 { val * 10 } else { 0 }).collect();
    for g in Granularity::ALL {
        // Both `id` (slot) and `val` are thread-local: both must be buffered.
        let pragma = format!("dp consldt({}) buffer(custom) work(id, val)", g.label());
        let dir = Directive::parse(&pragma).unwrap();
        let cons =
            consolidate(&two_var_module(), "parent", &dir, &GpuConfig::k20c(), None).unwrap();
        assert_eq!(cons.info.buffered_positions.len(), 2);
        assert_eq!(cons.info.buffered_positions, vec![1, 2]);

        let (out, _, _) = run_consolidated(
            &two_var_module(),
            "parent",
            &pragma,
            AllocKind::PreAlloc,
            None,
            vec![("src", src.clone()), ("out", vec![0; n])],
            vec![n as i64],
            ((n as u32).div_ceil(128), 128),
        );
        assert_eq!(out[1], expected, "{} broke nv=2 results", g.label());
    }
}

// ------------------------------------------------------------------
// perBufferSize given as a runtime variable (a parent parameter).
// ------------------------------------------------------------------

#[test]
fn per_buffer_size_from_variable() {
    let n = 400usize;
    let vals: Vec<i64> = (0..n as i64).map(|x| x % 11).collect();
    let expected = solo_thread_expected(&vals);
    // `n` is a parent parameter; the buffer capacity derives from it.
    let (out, _, _) = run_consolidated(
        &solo_thread_module(),
        "parent",
        "dp consldt(block) buffer(custom, perBufferSize: n) work(id)",
        AllocKind::PreAlloc,
        None,
        vec![("vals", vals), ("out", vec![0; n])],
        vec![n as i64],
        ((n as u32).div_ceil(128), 128),
    );
    assert_eq!(out[1], expected);
}

#[test]
fn per_buffer_size_variable_must_be_a_param() {
    let dir = Directive::parse("dp consldt(block) buffer(custom, perBufferSize: ghost) work(id)")
        .unwrap();
    let err =
        consolidate(&solo_thread_module(), "parent", &dir, &GpuConfig::k20c(), None).unwrap_err();
    assert!(err.to_string().contains("ghost"));
}

// ------------------------------------------------------------------
// Default and Halloc allocators under generated code.
// ------------------------------------------------------------------

#[test]
fn generated_code_runs_on_all_allocators() {
    let n = 400usize;
    let vals: Vec<i64> = (0..n as i64).map(|x| x % 9).collect();
    let expected = solo_thread_expected(&vals);
    for alloc in [AllocKind::Default, AllocKind::Halloc, AllocKind::PreAlloc] {
        for g in [Granularity::Warp, Granularity::Block] {
            let pragma = format!("dp consldt({}) buffer(custom) work(id)", g.label());
            let (out, r, _) = run_consolidated(
                &solo_thread_module(),
                "parent",
                &pragma,
                alloc,
                None,
                vec![("vals", vals.clone()), ("out", vec![0; n])],
                vec![n as i64],
                ((n as u32).div_ceil(128), 128),
            );
            assert_eq!(out[1], expected, "{}/{}", alloc.label(), g.label());
            assert!(r.alloc_ops > 0, "{} should allocate buffers", g.label());
        }
    }
}

// ------------------------------------------------------------------
// Postwork stays in place at warp/block level.
// ------------------------------------------------------------------

#[test]
fn warp_and_block_level_keep_postwork_inline() {
    let mut m = solo_thread_module();
    {
        let p = m.get_mut("parent").unwrap();
        // Postwork: mark a second array per thread. Inserted before the
        // scalar so the harness's arrays-then-scalars argument order holds.
        p.params.insert(
            2,
            dpcons_ir::Param { name: "mark".to_string(), kind: dpcons_ir::ParamKind::Array },
        );
        p.body.push(when(lt(v("id"), v("n")), vec![store(v("mark"), v("id"), i(7))]));
    }
    let n = 300usize;
    let vals: Vec<i64> = (0..n as i64).map(|x| x % 13).collect();
    let expected_out = solo_thread_expected(&vals);
    for g in [Granularity::Warp, Granularity::Block] {
        let pragma = format!("dp consldt({}) buffer(custom) work(id)", g.label());
        let dir = Directive::parse(&pragma).unwrap();
        let cons = consolidate(&m, "parent", &dir, &GpuConfig::k20c(), None).unwrap();
        assert!(cons.info.postwork.is_none(), "{}: postwork should stay inline", g.label());
        let (out, _, _) = run_consolidated(
            &m,
            "parent",
            &pragma,
            AllocKind::PreAlloc,
            None,
            vec![("vals", vals.clone()), ("out", vec![0; n]), ("mark", vec![0; n])],
            vec![n as i64],
            ((n as u32).div_ceil(128), 128),
        );
        assert_eq!(out[1], expected_out, "{}", g.label());
        assert!(out[2].iter().all(|&x| x == 7), "{}: postwork must run", g.label());
    }
}
