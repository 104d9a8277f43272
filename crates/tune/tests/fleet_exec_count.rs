//! Proof that fleet re-timing adds **no functional work**: pricing every
//! candidate on N devices costs exactly the same number of functional kernel
//! executions as pricing it on one — and pricing it on one costs exactly one
//! plain run per candidate, nothing for the machinery around it.
//!
//! This is deliberately the only test in this integration-test binary —
//! `dpcons_sim::functional_execs_total` is a process-wide counter, and a
//! lone test owns its whole process, so the deltas below observe nothing but
//! this sweep's work.

use dpcons_apps::{datasets, Benchmark, Profile, RunConfig, Sssp, Variant};
use dpcons_sim::{functional_execs_total, GpuConfig};
use dpcons_tune::{candidate_config, fleet_sweep, Budget, FleetOptions, Status};

#[test]
fn fleet_retiming_adds_no_functional_kernel_executions() {
    let app = Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0);
    let space = dpcons_core::KnobSpace {
        granularities: dpcons_core::Granularity::ALL.to_vec(),
        buffers: vec![dpcons_sim::AllocKind::PreAlloc, dpcons_sim::AllocKind::Halloc],
        per_buffer_sizes: vec![None],
        configs: vec![None, Some((13, 64))],
    };
    let mk = |fleet: Vec<GpuConfig>| FleetOptions {
        base: RunConfig::default(),
        space: space.clone(),
        budget: Budget::default(),
        fleet,
        cache: None, // a cache hit would hide the work being measured
    };

    // Sweep on a single device...
    let before = functional_execs_total();
    let solo = fleet_sweep(&app, &mk(vec![GpuConfig::k20c()])).unwrap();
    let solo_execs = functional_execs_total() - before;
    assert!(solo_execs > 0, "the sweep must actually execute kernels");

    // ...and the identical sweep re-timed on four devices.
    let fleet = vec![GpuConfig::k20c(), GpuConfig::k40(), GpuConfig::titan(), GpuConfig::tk1()];
    let before = functional_execs_total();
    let wide = fleet_sweep(&app, &mk(fleet)).unwrap();
    let wide_execs = functional_execs_total() - before;

    assert_eq!(
        wide_execs, solo_execs,
        "re-timing on 3 extra devices must not add a single functional kernel execution"
    );

    // The matrix really is candidate x device, priced from one capture each.
    assert_eq!(wide.devices.len(), 4);
    assert_eq!(wide.functional_runs, solo.functional_runs);
    let retimed = wide
        .candidates
        .iter()
        .filter(|c| matches!(c.status, Status::Evaluated(m) if m.output_ok))
        .count();
    assert!(retimed > 0);
    assert_eq!(wide.retimings, retimed as u64 * 4, "every retimed candidate covers every device");
    assert_eq!(solo.retimings, retimed as u64, "same candidates, one device");
    for (d, w) in wide.winners.iter().enumerate() {
        assert!(w.is_some(), "device {d} ({}) has no winner", wide.devices[d]);
    }
    // Winners on the shared capture device agree between the two sweeps.
    assert_eq!(wide.winner_knobs(0), solo.winner_knobs(0));
    assert_eq!(wide.winner_cycles(0), solo.winner_cycles(0));

    // The one-device sweep costs what its candidates cost: each row that ran
    // is one plain (capture-free) run of its knobs, and nothing else in the
    // sweep executes a kernel.
    let before = functional_execs_total();
    let ran = solo
        .candidates
        .iter()
        .filter(|c| matches!(c.status, Status::Evaluated(_)) || c.status.is_fault());
    for c in ran {
        let cfg = candidate_config(&RunConfig::default(), &c.knobs);
        let _ = app.run(Variant::ConsolidatedTuned, &cfg);
    }
    assert_eq!(functional_execs_total() - before, solo_execs);
}
