//! Every knob of the simulated device moves an answer.
//!
//! The paper attributes cycles to launch, buffering and synchronization
//! overheads (Section III.B), so every field of [`GpuConfig`] and its
//! [`CostModel`] must price something. Each row below perturbs one field and
//! names one scenario; the scenario's `Result<ProfileReport, _>` on the
//! perturbed device must differ from the one on the unperturbed device. A
//! field that no scenario can move does not belong in the device model.
//!
//! The patterns in [`rows`] name every field with no `..`: a new field does
//! not compile until it is named there, and `unused_variables` (denied below)
//! then fails until a row uses its binding. `name` is exempt; `costs` is
//! covered field by field.

#![deny(unused_variables)]

use dpcons::apps::{benchmark_by_name, Benchmark, BfsRec, Profile, RunConfig, Variant};
use dpcons::compiler::Granularity;
use dpcons::ir::dsl::*;
use dpcons::ir::{install, Module};
use dpcons::sim::{AllocKind, CostModel, Engine, GpuConfig, LaunchSpec, ProfileReport};
use dpcons::tune::{default_knobs, Knobs};
use dpcons::workloads::gen;

/// What a scenario produces: its profile, or the error that stopped it.
type Outcome = Result<ProfileReport, String>;

/// One workload that a field of the device model is priced on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scenario {
    /// SSSP on the test-profile dataset, one variant under one allocator.
    Sssp(Variant, AllocKind),
    /// TH basic-dp on the tiny device: more pending launches than its fixed
    /// pool holds, so kernels spill into the virtualized pool.
    PoolOverflow,
    /// A hand-written parent whose threads launch a child each and wait for
    /// it with `cudaDeviceSynchronize`: the parent blocks (one warp each, the
    /// most that may synchronize) swap out and back in.
    DeviceSync,
    /// A kernel whose blocks each reserve 16 KiB of shared memory.
    SharedMemory,
    /// A kernel launched with 1024-thread blocks, the K20c's limit.
    FullBlocks,
    /// BFS-Rec on a 64-node chain: one nesting level per node, past the
    /// K20c's limit of 24.
    DeepChain,
}

use Scenario::*;

const FLAT: Scenario = Sssp(Variant::Flat, AllocKind::PreAlloc);
const BASIC_DP: Scenario = Sssp(Variant::BasicDp, AllocKind::PreAlloc);
const BLOCK_LEVEL: Scenario = Sssp(Variant::Consolidated(Granularity::Block), AllocKind::PreAlloc);
const WARP_LEVEL: Scenario = Sssp(Variant::Consolidated(Granularity::Warp), AllocKind::PreAlloc);
const WARP_LEVEL_DEFAULT: Scenario =
    Sssp(Variant::Consolidated(Granularity::Warp), AllocKind::Default);
const WARP_LEVEL_HALLOC: Scenario =
    Sssp(Variant::Consolidated(Granularity::Warp), AllocKind::Halloc);

impl Scenario {
    /// The unperturbed device the scenario runs on.
    fn device(self) -> GpuConfig {
        match self {
            PoolOverflow => GpuConfig::tiny(),
            _ => GpuConfig::k20c(),
        }
    }

    fn run(self, gpu: GpuConfig) -> Outcome {
        match self {
            Sssp(variant, alloc) => {
                let app = benchmark_by_name("SSSP", Profile::Test).expect("SSSP is registered");
                let (variant, tuned) = match variant {
                    Variant::Consolidated(g) => {
                        let model = app.tune_model().expect("SSSP is tunable");
                        (
                            Variant::ConsolidatedTuned,
                            Some(Knobs { alloc, ..default_knobs(&model, g) }),
                        )
                    }
                    v => (v, None),
                };
                run_app(app.as_ref(), variant, RunConfig { gpu, tuned, ..RunConfig::default() })
            }
            PoolOverflow => {
                let app = benchmark_by_name("TH", Profile::Test).expect("TH is registered");
                run_app(app.as_ref(), Variant::BasicDp, RunConfig { gpu, ..RunConfig::default() })
            }
            DeepChain => {
                let app = BfsRec::new(gen::chain(64), 0);
                run_app(&app, Variant::BasicDp, RunConfig { gpu, ..RunConfig::default() })
            }
            DeviceSync => {
                let child = KernelBuilder::new("child")
                    .array("acc")
                    .scalar("slot")
                    .body(vec![compute(i(200)), atomic_add(None, v("acc"), v("slot"), tid())]);
                let parent = KernelBuilder::new("parent").array("acc").body(vec![
                    launch("child", i(1), i(32), vec![v("acc"), gtid()]),
                    device_sync(),
                    atomic_add(None, v("acc"), gtid(), i(1)),
                ]);
                run_kernels(gpu, vec![child, parent], "parent", 26, 32, 26 * 32)
            }
            SharedMemory => {
                let k = KernelBuilder::new("k")
                    .array("out")
                    .shared(16 * 1024)
                    .body(vec![compute(i(500)), store(v("out"), gtid(), tid())]);
                run_kernels(gpu, vec![k], "k", 13 * 6, 128, 13 * 6 * 128)
            }
            FullBlocks => {
                let k = KernelBuilder::new("k")
                    .array("out")
                    .body(vec![compute(i(50)), store(v("out"), gtid(), tid())]);
                run_kernels(gpu, vec![k], "k", 4, 1024, 4 * 1024)
            }
        }
    }
}

fn run_app(app: &dyn Benchmark, variant: Variant, cfg: RunConfig) -> Outcome {
    app.run(variant, &cfg).map(|o| o.report).map_err(|e| e.to_string())
}

/// Launch `root` of a module of `kernels` over one zeroed array of `words`.
fn run_kernels(
    gpu: GpuConfig,
    kernels: Vec<dpcons::ir::ast::Kernel>,
    root: &str,
    grid: u32,
    block: u32,
    words: usize,
) -> Outcome {
    let mut e = Engine::new(gpu, AllocKind::PreAlloc, 1 << 16);
    let out = e.mem.alloc_array_init("out", vec![0; words]);
    let mut m = Module::new();
    for k in kernels {
        m.add(k);
    }
    let ids = install(&mut e, &m).expect("module installs");
    e.launch(LaunchSpec::new(ids[root], grid, block, vec![out as i64])).map_err(|e| e.to_string())
}

/// A field, the scenario it is priced on, and its perturbation.
struct Row {
    field: &'static str,
    scenario: Scenario,
    perturb: Box<dyn Fn(&mut GpuConfig)>,
}

fn row(field: &'static str, scenario: Scenario, perturb: impl Fn(&mut GpuConfig) + 'static) -> Row {
    Row { field, scenario, perturb: Box::new(perturb) }
}

/// One row per field. Perturbed values are derived from the K20c defaults
/// bound here.
fn rows() -> Vec<Row> {
    let GpuConfig {
        name: _,
        num_sms,
        max_threads_per_sm,
        max_blocks_per_sm,
        max_warps_per_sm,
        max_threads_per_block,
        registers_per_sm,
        shared_mem_per_sm,
        max_concurrent_kernels,
        fixed_pool_capacity,
        max_nesting_depth,
        costs,
    } = GpuConfig::k20c();
    let CostModel {
        host_launch_cycles,
        device_launch_cycles,
        kernel_dispatch_cycles,
        virtual_pool_penalty_cycles,
        launch_dram_transactions,
        virtual_pool_dram_transactions,
        mem_base_cycles,
        mem_cycles_per_transaction,
        compute_cycles_per_op,
        atomic_cycles,
        syncthreads_cycles,
        swap_cycles,
        swap_dram_transactions,
        alloc_default_cycles,
        alloc_halloc_cycles,
        alloc_prealloc_cycles,
        segment_words,
    } = costs;
    vec![
        row("num_sms", BASIC_DP, move |g| g.num_sms = num_sms * 2),
        row("max_threads_per_sm", BLOCK_LEVEL, move |g| {
            g.max_threads_per_sm = max_threads_per_sm / 2
        }),
        row("max_blocks_per_sm", WARP_LEVEL, move |g| g.max_blocks_per_sm = max_blocks_per_sm / 2),
        row("max_warps_per_sm", FLAT, move |g| g.max_warps_per_sm = max_warps_per_sm * 2),
        // Half the K20c limit rejects the scenario's 1024-thread blocks.
        row("max_threads_per_block", FullBlocks, move |g| {
            g.max_threads_per_block = max_threads_per_block / 2
        }),
        row("registers_per_sm", BLOCK_LEVEL, move |g| g.registers_per_sm = registers_per_sm / 2),
        row("shared_mem_per_sm", SharedMemory, move |g| {
            g.shared_mem_per_sm = shared_mem_per_sm / 2
        }),
        row("max_concurrent_kernels", BASIC_DP, move |g| {
            g.max_concurrent_kernels = max_concurrent_kernels / 4
        }),
        // The K20c's pool holds every pending launch the tiny device spilled.
        row("fixed_pool_capacity", PoolOverflow, move |g| {
            g.fixed_pool_capacity = fixed_pool_capacity
        }),
        // Deep enough for the whole chain.
        row("max_nesting_depth", DeepChain, move |g| g.max_nesting_depth = max_nesting_depth * 4),
        row("host_launch_cycles", FLAT, move |g| {
            g.costs.host_launch_cycles = host_launch_cycles * 2
        }),
        row("device_launch_cycles", BASIC_DP, move |g| {
            g.costs.device_launch_cycles = device_launch_cycles * 2
        }),
        row("kernel_dispatch_cycles", FLAT, move |g| {
            g.costs.kernel_dispatch_cycles = kernel_dispatch_cycles * 2
        }),
        row("virtual_pool_penalty_cycles", PoolOverflow, move |g| {
            g.costs.virtual_pool_penalty_cycles = virtual_pool_penalty_cycles * 2
        }),
        row("launch_dram_transactions", BASIC_DP, move |g| {
            g.costs.launch_dram_transactions = launch_dram_transactions * 2
        }),
        row("virtual_pool_dram_transactions", PoolOverflow, move |g| {
            g.costs.virtual_pool_dram_transactions = virtual_pool_dram_transactions * 2
        }),
        row("mem_base_cycles", FLAT, move |g| g.costs.mem_base_cycles = mem_base_cycles * 2),
        row("mem_cycles_per_transaction", FLAT, move |g| {
            g.costs.mem_cycles_per_transaction = mem_cycles_per_transaction * 2
        }),
        row("compute_cycles_per_op", FLAT, move |g| {
            g.costs.compute_cycles_per_op = compute_cycles_per_op * 2
        }),
        row("atomic_cycles", FLAT, move |g| g.costs.atomic_cycles = atomic_cycles * 2),
        row("syncthreads_cycles", BLOCK_LEVEL, move |g| {
            g.costs.syncthreads_cycles = syncthreads_cycles * 2
        }),
        row("swap_cycles", DeviceSync, move |g| g.costs.swap_cycles = swap_cycles * 2),
        row("swap_dram_transactions", DeviceSync, move |g| {
            g.costs.swap_dram_transactions = swap_dram_transactions * 2
        }),
        row("alloc_default_cycles", WARP_LEVEL_DEFAULT, move |g| {
            g.costs.alloc_default_cycles = alloc_default_cycles * 2
        }),
        row("alloc_halloc_cycles", WARP_LEVEL_HALLOC, move |g| {
            g.costs.alloc_halloc_cycles = alloc_halloc_cycles * 2
        }),
        row("alloc_prealloc_cycles", WARP_LEVEL, move |g| {
            g.costs.alloc_prealloc_cycles = alloc_prealloc_cycles * 2
        }),
        row("segment_words", FLAT, move |g| g.costs.segment_words = segment_words * 2),
    ]
}

#[test]
fn every_device_field_moves_its_scenario() {
    let rows = rows();
    // Each scenario's unperturbed outcome, computed once.
    let mut base: Vec<(Scenario, Outcome)> = Vec::new();
    let mut unmoved = Vec::new();
    for r in &rows {
        let device = r.scenario.device();
        let mut perturbed = device.clone();
        (r.perturb)(&mut perturbed);
        assert_ne!(perturbed, device, "{}: the perturbation leaves the device unchanged", r.field);
        let before = match base.iter().find(|(s, _)| *s == r.scenario) {
            Some((_, o)) => o.clone(),
            None => {
                let o = r.scenario.run(device);
                base.push((r.scenario, o.clone()));
                o
            }
        };
        let after = r.scenario.run(perturbed);
        if after == before {
            unmoved.push(format!("{} on {:?}: {before:?}", r.field, r.scenario));
        }
    }
    assert!(unmoved.is_empty(), "fields that move nothing:\n{}", unmoved.join("\n"));
}

#[test]
fn scenarios_exercise_what_they_are_named_for() {
    let ok = |s: Scenario| s.run(s.device()).unwrap_or_else(|e| panic!("{s:?}: {e}"));
    assert!(ok(PoolOverflow).virtual_pool_kernels > 0, "the tiny pool must overflow");
    assert!(ok(DeviceSync).swaps > 0, "the synchronizing parents must swap");
    for s in [WARP_LEVEL, WARP_LEVEL_DEFAULT, WARP_LEVEL_HALLOC] {
        assert!(ok(s).alloc_ops > 0, "{s:?} must allocate its buffers");
    }
    ok(FullBlocks);
    let narrow = GpuConfig { max_threads_per_block: 512, ..FullBlocks.device() };
    let err = FullBlocks.run(narrow).unwrap_err();
    assert!(err.contains("block dimension exceeds device limit"), "{err}");
    let err = DeepChain.run(DeepChain.device()).unwrap_err();
    assert!(err.contains("nesting depth"), "{err}");
}
