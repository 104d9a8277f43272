//! A tour of the `#pragma dp` directive (paper Table I) and the generated
//! code at each consolidation granularity.
//!
//! ```sh
//! cargo run --release --example pragma_tour
//! ```

use dpcons::compiler::{analyze, consolidate, ConfigPolicy, Directive};
use dpcons::ir::dsl::*;
use dpcons::ir::{kernel_to_string, Module};
use dpcons::sim::GpuConfig;

fn sample_module() -> Module {
    let mut m = Module::new();
    m.add(KernelBuilder::new("process_node").array("adj").array("result").scalar("node").body(
        vec![for_step(
            "j",
            tid(),
            load(v("adj"), v("node")),
            ntid(),
            vec![atomic_add(None, v("result"), v("node"), i(1))],
        )],
    ));
    m.add(KernelBuilder::new("traverse").array("adj").array("result").scalar("n").body(vec![
        let_("node", gtid()),
        when(
            lt(v("node"), v("n")),
            vec![when(
                gt(load(v("adj"), v("node")), i(32)),
                vec![launch("process_node", i(1), i(128), vec![v("adj"), v("result"), v("node")])],
            )],
        ),
    ]));
    m
}

fn main() {
    let gpu = GpuConfig::k20c();
    let m = sample_module();

    // Parse the pragma exactly as it would appear above the kernel.
    for pragma in [
        "#pragma dp consldt(warp) buffer(custom) work(node)",
        "#pragma dp consldt(block) buffer(halloc, perBufferSize: 256) work(node)",
        "#pragma dp consldt(grid) buffer(custom, totalSize: 1048576) work(node) threads(256) blocks(26)",
    ] {
        let d = Directive::parse(pragma).unwrap();
        println!("=== {pragma}");
        println!(
            "granularity: {:?}, buffer: {:?}, work vars: {:?}",
            d.granularity, d.buffer, d.work
        );

        let a = analyze(&m, "traverse", &d).unwrap();
        println!(
            "template analysis: child `{}` is {}, buffered args {:?}, pass-through {:?}",
            a.launch.target,
            a.launch.class.label(),
            a.launch.buffered,
            a.launch.passthrough
        );

        let cons = consolidate(&m, "traverse", &d, &gpu, None).unwrap();
        println!("launch shape: {:?}\n", cons.info.shape);
        println!("{}", kernel_to_string(cons.module.get("traverse").unwrap()));
        println!("{}", kernel_to_string(cons.module.get("process_node__cons").unwrap()));
    }

    // The occupancy calculator behind KC_1/KC_16/KC_32, through the one
    // place a launch shape is resolved.
    println!("=== KC configurations for the consolidated child on the K20c ===");
    let d = Directive::parse("dp consldt(grid) work(node)").unwrap();
    for x in [1u32, 16, 32] {
        let cons = consolidate(&m, "traverse", &d, &gpu, Some(ConfigPolicy::Kc(x))).unwrap();
        println!("KC_{x:<2} -> {:?}", cons.info.shape);
    }
}
