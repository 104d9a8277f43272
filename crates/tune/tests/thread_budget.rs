//! The sweep's thread budget: the wave is its only fan-out. A four-device
//! fleet sweep re-times every capture on the candidate's own wave worker, so
//! it never holds more than `min(WAVE_SIZE, pool width)` pool workers, and
//! its report is the committed `BENCH_fleet.json` record for the same app.
//!
//! This is deliberately the only test in this integration-test binary: the
//! `par.workers.peak` gauge is a process-wide high-water mark, and a lone
//! test owns its whole process, so the peak it reads is this sweep's.
//! The test reads the gauge; it starts no threads of its own and fakes no
//! core count.

use dpcons_apps::{benchmark_by_name, Profile, RunConfig};
use dpcons_core::KnobSpace;
use dpcons_obs::jsonv::Value;
use dpcons_sim::GpuConfig;
use dpcons_tune::par::pool_width;
use dpcons_tune::{fleet_sweep, Budget, FleetOptions, WAVE_SIZE};

/// GC's `(knobs, cycles per device)` matrix and per-device winners in the
/// `BENCH_fleet.json` form.
type Record = (Vec<(String, Vec<u64>)>, Vec<Option<(String, u64)>>);

fn committed_gc_record(devices: &[String]) -> Record {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let text = std::fs::read_to_string(path).expect("BENCH_fleet.json is committed");
    let root = dpcons_obs::jsonv::parse(&text).expect("BENCH_fleet.json parses");
    let apps = root.get("apps").and_then(Value::as_arr).expect("apps array");
    let gc = apps.iter().find(|a| a.get("name").and_then(Value::as_str) == Some("GC"));
    let gc = gc.expect("GC is in the fleet record");
    let cycles = |v: &Value| v.as_num().expect("cycles are numbers") as u64;
    let matrix = gc.get("matrix").and_then(Value::as_arr).expect("matrix array");
    let matrix = matrix
        .iter()
        .map(|row| {
            let knobs = row.get("knobs").and_then(Value::as_str).expect("knobs label");
            let by_device = row.get("cycles").expect("cycles object");
            let cells = devices.iter().map(|d| cycles(by_device.get(d).expect("cell"))).collect();
            (knobs.to_string(), cells)
        })
        .collect();
    let winners = gc.get("winners").expect("winners object");
    let winners = devices
        .iter()
        .map(|d| {
            let w = winners.get(d).expect("one winner entry per device");
            let knobs = w.get("knobs").and_then(Value::as_str)?;
            Some((knobs.to_string(), cycles(w.get("cycles")?)))
        })
        .collect();
    (matrix, winners)
}

#[test]
fn a_fleet_sweep_holds_at_most_one_wave_of_pool_workers() {
    let app = benchmark_by_name("GC", Profile::Test).expect("GC is registered");
    let fleet = vec![GpuConfig::k20c(), GpuConfig::k40(), GpuConfig::titan(), GpuConfig::tk1()];
    // The options `reproduce --profile test fleet` sweeps with, minus the
    // cache: a hit would run nothing.
    let opts = FleetOptions {
        base: RunConfig::default(),
        space: KnobSpace::quick(fleet[0].num_sms),
        budget: Budget { max_evals: Some(24), ..Budget::default() },
        fleet,
        cache: None,
    };
    let peak = dpcons_obs::gauge("par.workers.peak");
    assert_eq!(peak.get(), 0, "nothing ran on the pool before the sweep");
    let report = fleet_sweep(app.as_ref(), &opts).expect("GC sweeps");

    let budget = WAVE_SIZE.min(pool_width()) as i64;
    assert!(
        peak.get() <= budget,
        "the sweep held {} pool workers at once; one wave is at most {budget}",
        peak.get()
    );
    if pool_width() > 1 {
        assert!(peak.get() > 1, "the waves must run on the pool");
    }

    // Re-timing in the wave worker prices every cell as before.
    let matrix: Vec<(String, Vec<u64>)> =
        report.matrix().map(|(c, cycles)| (c.knobs.label(), cycles)).collect();
    let winners: Vec<Option<(String, u64)>> = (0..report.devices.len())
        .map(|d| Some((report.winner_knobs(d)?.label(), report.winner_cycles(d)?)))
        .collect();
    let (want_matrix, want_winners) = committed_gc_record(&report.devices);
    assert_eq!(matrix.len(), want_matrix.len(), "matrix rows");
    for (got, want) in matrix.iter().zip(&want_matrix) {
        assert_eq!(got, want, "matrix row differs from BENCH_fleet.json");
    }
    assert_eq!(winners, want_winners, "per-device winners");
}
