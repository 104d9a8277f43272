//! Device-fleet what-if sweep, end to end.
//!
//! ```sh
//! cargo run --release --example fleet
//! ```
//!
//! The fleet sweep is the tuner's one sweep handed several devices. It
//! exploits the simulator's two-phase engine: a tuner candidate's
//! *functional* execution is device-independent, so each candidate runs
//! **once** (on the capture device) and its captured launch DAGs are
//! re-priced on every other device by timing-only replay. One functional run
//! buys a whole row of the knobs × device matrix. The walkthrough sweeps SSSP
//! across four Kepler-class profiles and prints the matrix and the
//! per-device winners.

use dpcons::apps::{datasets, Profile, RunConfig, Sssp};
use dpcons::compiler::KnobSpace;
use dpcons::sim::parse_fleet;
use dpcons::tune::{fleet_sweep, Budget, FleetOptions};

fn main() {
    // -----------------------------------------------------------------
    // 1. Assemble a fleet from the named device registry.
    // -----------------------------------------------------------------
    let fleet = parse_fleet("k20c,k40,titan,tk1").expect("registry names parse");
    let names: Vec<&str> = fleet.iter().map(|g| g.name.as_str()).collect();
    println!("# Fleet what-if sweep on {} devices: {}\n", fleet.len(), names.join(", "));

    // -----------------------------------------------------------------
    // 2. Capture once per candidate, re-time everywhere.
    // -----------------------------------------------------------------
    let app = Sssp::new(datasets::citeseer(Profile::Test).with_weights(15, 0xD15), 0);
    let opts = FleetOptions {
        base: RunConfig::default(),
        space: KnobSpace::quick(fleet[0].num_sms),
        budget: Budget { max_evals: Some(8), ..Budget::default() },
        fleet,
        cache: None,
    };
    let report = fleet_sweep(&app, &opts).expect("SSSP is tunable");
    let retimed = report.matrix().count();
    println!(
        "{}: {} functional runs -> {} timing datapoints ({} candidates x {} devices)\n",
        report.app,
        report.functional_runs,
        report.retimings,
        retimed,
        report.devices.len(),
    );
    assert_eq!(report.retimings, retimed as u64 * report.devices.len() as u64);

    // The matrix: one row per retimed candidate, one cycles column per device.
    println!("{:<28} {}", "knobs", report.devices.join("  "));
    for (c, cycles) in report.matrix() {
        let row: Vec<String> = report
            .devices
            .iter()
            .zip(cycles)
            .map(|(d, cycles)| format!("{cycles:>w$}", w = d.len()))
            .collect();
        println!("{:<28} {}", c.knobs.label(), row.join("  "));
    }

    // Per-device winners: bigger devices may prefer different knobs.
    println!("\nper-device winners:");
    for (d, name) in report.devices.iter().enumerate() {
        println!(
            "  {:<12} {}  ({} cycles)",
            name,
            report.winner_knobs(d).expect("winner exists").label(),
            report.winner_cycles(d).expect("winner exists"),
        );
    }
}
