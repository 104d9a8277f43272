//! # dpcons-ir — kernel IR, builder, SIMT interpreter, CUDA emitter
//!
//! The program representation that the workload-consolidation compiler
//! (`dpcons-core`) transforms, together with:
//!
//! * [`dsl`] — ergonomic AST constructors mirroring CUDA C,
//! * [`compile`] — name resolution, scoping, launch-target validation,
//! * [`interp`] — warp-lockstep SIMT execution on the `dpcons-sim` engine
//!   (engine selection, the tree-walking reference executor, and the shared
//!   trace assembly), producing warp-efficiency / DRAM / launch metrics per
//!   block segment,
//! * [`bytecode`] — the flat bytecode lowering + VM that serves as the
//!   default functional executor (the tree walker is selected in code, by
//!   [`install_with_engine`] or [`set_engine_override`]),
//! * [`printer`] — CUDA-flavoured source emission (the compiler is
//!   source-to-source in the paper; golden tests pin the generated code).

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod dsl;
pub mod interp;
pub mod printer;

pub use ast::{
    expr_refs, stmt_exprs, visit_expr, visit_stmts, AllocScope, AtomicOp, BinOp, Expr, Kernel,
    Module, Param, ParamKind, Stmt, UnOp,
};
pub use bytecode::{lower_kernel, lower_module, set_fusion_override, ByteKernel};
pub use compile::{compile_kernel, compile_module, CExpr, CKernel, CModule, CStmt, IrError};
pub use interp::{
    engine_override, install, install_with_engine, set_engine_override, ExecEngine, IrKernelBody,
};
pub use printer::{expr_to_string, kernel_to_string, module_to_string};

#[cfg(test)]
mod interp_tests {
    use super::dsl::*;
    use super::*;
    use dpcons_sim::{AllocKind, Engine, GpuConfig, LaunchSpec, ProfileReport, SimError};

    fn engine() -> Engine {
        Engine::new(GpuConfig::tiny(), AllocKind::PreAlloc, 1 << 16)
    }

    /// Launch `entry` of `m` on a fresh engine holding `arrays`, once on each
    /// executor. The tree walker must leave the same arrays and the same
    /// report or fault as the bytecode VM, whose result is returned.
    fn run_module(
        m: &Module,
        entry: &str,
        arrays: Vec<(&str, Vec<i64>)>,
        grid: u32,
        block: u32,
        scalars: Vec<i64>,
    ) -> (Vec<Vec<i64>>, Result<ProfileReport, SimError>) {
        let on = |exec| {
            let mut e = engine();
            let handles: Vec<_> =
                arrays.iter().map(|(n, d)| e.mem.alloc_array_init(n, d.clone())).collect();
            let ids = install_with_engine(&mut e, m, Some(exec)).unwrap();
            let mut args: Vec<i64> = handles.iter().map(|&h| h as i64).collect();
            args.extend(&scalars);
            let r = e.launch(LaunchSpec::new(ids[entry], grid, block, args));
            (handles.iter().map(|&h| e.mem.slice(h).unwrap().to_vec()).collect(), r)
        };
        let vm = on(ExecEngine::Bytecode);
        assert!(
            on(ExecEngine::Tree) == vm,
            "{entry}: the tree executor diverged from the bytecode VM"
        );
        vm
    }

    /// Helper: run a single-kernel module that must not fault; returns the
    /// final arrays and the report.
    fn run(
        k: Kernel,
        arrays: Vec<(&str, Vec<i64>)>,
        grid: u32,
        block: u32,
        scalars: Vec<i64>,
    ) -> (Vec<Vec<i64>>, ProfileReport) {
        let entry = k.name.clone();
        let mut m = Module::new();
        m.add(k);
        let (out, r) = run_module(&m, &entry, arrays, grid, block, scalars);
        (out, r.unwrap())
    }

    /// Helper: run a single-kernel module that must fault; returns the fault.
    fn run_fault(k: Kernel, block: u32) -> SimError {
        let entry = k.name.clone();
        let mut m = Module::new();
        m.add(k);
        run_module(&m, &entry, vec![], 1, block, vec![]).1.unwrap_err()
    }

    #[test]
    fn gtid_store_covers_grid() {
        let k = KernelBuilder::new("iota")
            .array("out")
            .scalar("n")
            .body(vec![when(lt(gtid(), v("n")), vec![store(v("out"), gtid(), gtid())])]);
        let (arrays, _) = run(k, vec![("out", vec![0; 96])], 3, 32, vec![96]);
        let out = &arrays[0];
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, i as i64);
        }
    }

    #[test]
    fn divergent_if_reduces_efficiency() {
        // Lanes 0..16 do heavy work, lanes 16..32 do nothing.
        let k =
            KernelBuilder::new("div").body(vec![when(lt(tid(), i(16)), vec![compute(i(10_000))])]);
        let (_, r) = run(k, vec![], 1, 32, vec![]);
        assert!(
            r.warp_exec_efficiency < 0.6,
            "expected heavy divergence, got {}",
            r.warp_exec_efficiency
        );

        let k2 = KernelBuilder::new("uni").body(vec![compute(i(10_000))]);
        let (_, r2) = run(k2, vec![], 1, 32, vec![]);
        assert!(r2.warp_exec_efficiency > 0.95, "uniform warp should be efficient");
    }

    #[test]
    fn while_loop_with_mask_drain() {
        // Each lane counts down from tid: store count per lane must equal tid.
        let k = KernelBuilder::new("drain").array("out").body(vec![
            let_("c", tid()),
            let_("n", i(0)),
            while_(
                gt(v("c"), i(0)),
                vec![assign("c", sub(v("c"), i(1))), assign("n", add(v("n"), i(1)))],
            ),
            store(v("out"), tid(), v("n")),
        ]);
        let (arrays, _) = run(k, vec![("out", vec![-1; 32])], 1, 32, vec![]);
        let out = &arrays[0];
        for (i, &x) in out.iter().enumerate() {
            assert_eq!(x, i as i64);
        }
    }

    #[test]
    fn for_loop_sums() {
        let k = KernelBuilder::new("sum").array("out").scalar("n").body(vec![
            let_("acc", i(0)),
            for_("j", i(0), v("n"), vec![assign("acc", add(v("acc"), v("j")))]),
            when(eq(gtid(), i(0)), vec![store(v("out"), i(0), v("acc"))]),
        ]);
        let (arrays, _) = run(k, vec![("out", vec![0])], 1, 32, vec![10]);
        assert_eq!(arrays[0][0], 45);
    }

    #[test]
    fn atomics_serialize_deterministically() {
        let k = KernelBuilder::new("atom").array("out").body(vec![
            atomic_add(Some("old"), v("out"), i(0), i(1)),
            store(v("out"), add(i(1), v("old")), tid()),
        ]);
        let (arrays, _) = run(k, vec![("out", vec![0; 33])], 1, 32, vec![]);
        // Lane order: old values 0..31 in lane order.
        assert_eq!(arrays[0][0], 32);
        for l in 0..32 {
            assert_eq!(arrays[0][1 + l], l as i64);
        }
    }

    #[test]
    fn coalesced_vs_strided_dram() {
        let k_seq =
            KernelBuilder::new("seq").array("a").body(vec![let_("x", load(v("a"), gtid()))]);
        let (_, r_seq) = run(k_seq, vec![("a", vec![1; 2048])], 1, 32, vec![]);
        let k_str = KernelBuilder::new("strided")
            .array("a")
            .body(vec![let_("x", load(v("a"), mul(gtid(), i(64))))]);
        let (_, r_str) = run(k_str, vec![("a", vec![1; 2048])], 1, 32, vec![]);
        assert!(
            r_str.dram_transactions >= 8 * r_seq.dram_transactions,
            "strided {} vs sequential {}",
            r_str.dram_transactions,
            r_seq.dram_transactions
        );
    }

    #[test]
    fn launch_per_active_lane() {
        let mut m = Module::new();
        m.add(
            KernelBuilder::new("child")
                .array("flag")
                .scalar("who")
                .body(vec![when(eq(tid(), i(0)), vec![store(v("flag"), v("who"), i(1))])]),
        );
        m.add(KernelBuilder::new("parent").array("flag").body(vec![when(
            lt(tid(), i(5)),
            vec![launch("child", i(1), i(32), vec![v("flag"), tid()])],
        )]));
        let (arrays, r) = run_module(&m, "parent", vec![("flag", vec![0; 64])], 1, 32, vec![]);
        let r = r.unwrap();
        assert_eq!(r.device_launches, 5);
        assert_eq!(arrays[0][..6], [1, 1, 1, 1, 1, 0]);
        // Five serialized launches, each with one active lane: efficiency low.
        assert!(r.warp_exec_efficiency < 0.5);
    }

    #[test]
    fn recursion_via_self_launch() {
        let mut m = Module::new();
        let mut k = KernelBuilder::new("rec").array("acc").scalar("level").body(vec![]);
        k.body = vec![
            when(eq(tid(), i(0)), vec![atomic_add(None, v("acc"), i(0), i(1))]),
            when(
                land(eq(tid(), i(0)), lt(v("level"), i(4))),
                vec![launch("rec", i(1), i(32), vec![v("acc"), add(v("level"), i(1))])],
            ),
        ];
        m.add(k);
        let (arrays, r) = run_module(&m, "rec", vec![("acc", vec![0])], 1, 32, vec![0]);
        let r = r.unwrap();
        assert_eq!(arrays[0], [5]);
        assert_eq!(r.max_depth, 4);
        assert_eq!(r.kernels_executed, 5);
    }

    #[test]
    fn syncthreads_phases_bound_block_duration() {
        // Warp 0 heavy in phase 1, warp 1 heavy in phase 2: with a barrier the
        // block must pay max+max across phases.
        let k = KernelBuilder::new("phased").body(vec![
            if_(lt(tid(), i(32)), vec![compute(i(10_000))], vec![compute(i(0))]),
            sync(),
            if_(lt(tid(), i(32)), vec![compute(i(0))], vec![compute(i(10_000))]),
        ]);
        let (_, r) = run(k, vec![], 1, 64, vec![]);
        // Both phases cost ~10k: duration must be >= 20k.
        assert!(r.total_cycles > 20_000, "got {}", r.total_cycles);
    }

    #[test]
    fn device_sync_in_single_nonzero_warp_is_allowed() {
        let k = KernelBuilder::new("ok").body(vec![when(
            land(ge(tid(), i(32)), eq(rem(tid(), i(32)), i(0))),
            vec![device_sync()],
        )]);
        run(k, vec![], 1, 64, vec![]);
    }

    #[test]
    fn device_sync_in_two_warps_faults() {
        let k = KernelBuilder::new("bad")
            .body(vec![when(eq(rem(tid(), i(32)), i(0)), vec![device_sync()])]);
        assert!(matches!(run_fault(k, 64), SimError::KernelFault { .. }));
    }

    #[test]
    fn short_circuit_logic_guards_memory() {
        // Classic CUDA bounds guard: `u < n && a[u] == 0` must not fault for
        // lanes with u >= n.
        let k = KernelBuilder::new("guarded").array("a").scalar("n").body(vec![when(
            land(lt(gtid(), v("n")), eq(load(v("a"), gtid()), i(0))),
            vec![store(v("a"), gtid(), i(7))],
        )]);
        let (arrays, _) = run(k, vec![("a", vec![0; 10])], 1, 64, vec![10]);
        assert_eq!(arrays[0], [7; 10]);
        // And `||` short-circuits symmetrically.
        let k2 = KernelBuilder::new("or_guard").array("a").scalar("n").body(vec![when(
            lor(ge(gtid(), v("n")), gt(load(v("a"), gtid()), i(-1))),
            vec![compute(i(1))],
        )]);
        let (_, r) = run(k2, vec![("a", vec![0; 10])], 1, 64, vec![10]);
        assert!(r.total_cycles > 0);
    }

    #[test]
    fn alloc_scopes_share_buffers_correctly() {
        // Block-scope alloc: one buffer per block; warp-scope: one per warp.
        let k = KernelBuilder::new("allocs").array("out").body(vec![
            alloc("bh", "bo", i(64), AllocScope::Block),
            alloc("wh", "wo", i(64), AllocScope::Warp),
            when(
                eq(rem(tid(), i(32)), i(0)),
                vec![
                    store(v("out"), div(tid(), i(32)), v("wo")),
                    store(v("out"), add(i(8), div(tid(), i(32))), v("bo")),
                ],
            ),
        ]);
        let (arrays, _) = run(k, vec![("out", vec![-1; 16])], 1, 64, vec![]);
        let out = &arrays[0];
        // Two warps: distinct warp buffers, same block buffer.
        assert_ne!(out[0], out[1]);
        assert_eq!(out[8], out[9]);
    }

    #[test]
    fn division_by_zero_faults() {
        let k = KernelBuilder::new("dz").body(vec![let_("x", div(i(1), i(0)))]);
        match run_fault(k, 32) {
            SimError::KernelFault { message, .. } => {
                assert!(message.contains("division"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn return_deactivates_lanes() {
        let k = KernelBuilder::new("ret")
            .array("out")
            .body(vec![when(lt(tid(), i(16)), vec![ret()]), store(v("out"), tid(), i(1))]);
        let (arrays, _) = run(k, vec![("out", vec![0; 32])], 1, 32, vec![]);
        let out = &arrays[0];
        for l in 0..16 {
            assert_eq!(out[l], 0, "lane {l} should have returned");
        }
        for l in 16..32 {
            assert_eq!(out[l], 1);
        }
    }

    #[test]
    fn partial_warp_masks_high_lanes() {
        let k = KernelBuilder::new("partial").array("out").body(vec![store(v("out"), tid(), i(1))]);
        let (arrays, _) = run(k, vec![("out", vec![0; 48])], 1, 40, vec![]);
        let out = &arrays[0];
        assert_eq!(out[..40].iter().sum::<i64>(), 40);
        assert_eq!(out[40..].iter().sum::<i64>(), 0);
    }

    #[test]
    fn wrong_arity_launch_faults() {
        let k = KernelBuilder::new("k").scalar("a").body(vec![]);
        assert!(matches!(run_fault(k, 32), SimError::KernelFault { .. }));
    }
}
