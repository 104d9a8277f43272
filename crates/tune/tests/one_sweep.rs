//! The property the single pipeline rests on: `tune` on a device is the
//! one-device column of `fleet_sweep`. For all seven apps on the quick space:
//!
//! * `fleet_sweep` over `[d]` and `tune` on `d` (no baselines) return equal
//!   reports under equal keys;
//! * column 0 of a four-device sweep equals that one-device sweep row for row
//!   — status, capture-device metrics, winner — so widening the fleet never
//!   changes what the capture device sees;
//! * on every device the winner is the argmin of its column among the rows
//!   that ran oracle-exact, the earliest candidate on a tie.
//!
//! (That the one-device sweep costs exactly one plain run per candidate is
//! pinned in `fleet_exec_count.rs`, which owns its process's exec counter.)

use dpcons_apps::{all_benchmarks, Profile, RunConfig};
use dpcons_core::KnobSpace;
use dpcons_sim::GpuConfig;
use dpcons_tune::{fleet_sweep, tune, Budget, FleetOptions, Status, TuneOptions};

#[test]
fn tune_is_the_one_device_column_of_fleet_sweep() {
    let fleet = vec![GpuConfig::k20c(), GpuConfig::k40(), GpuConfig::titan(), GpuConfig::tk1()];
    let space = KnobSpace::quick(fleet[0].num_sms);
    let budget = Budget { max_evals: Some(8), ..Budget::default() };
    let fleet_opts = |fleet: &[GpuConfig]| FleetOptions {
        base: RunConfig::default(),
        space: space.clone(),
        budget,
        fleet: fleet.to_vec(),
        cache: None,
    };
    for app in all_benchmarks(Profile::Test) {
        let name = app.name();
        let tune_opts = TuneOptions {
            base: RunConfig { gpu: fleet[0].clone(), ..RunConfig::default() },
            space: space.clone(),
            budget,
            with_baselines: false,
            cache: None,
        };
        let tuned = tune(app.as_ref(), &tune_opts).unwrap();
        let solo = fleet_sweep(app.as_ref(), &fleet_opts(&fleet[..1])).unwrap();
        assert_eq!(solo.key, tuned.key, "{name}: one sweep, one key");
        assert_eq!(solo, tuned, "{name}: a one-device fleet is the tune of that device");
        assert_eq!(solo.to_text(), tuned.to_text());
        assert!(solo.candidates.iter().all(|c| c.retimed.is_empty()));

        let wide = fleet_sweep(app.as_ref(), &fleet_opts(&fleet)).unwrap();
        assert_ne!(wide.key, solo.key, "{name}: more devices, another key");
        assert_eq!(wide.candidates.len(), solo.candidates.len());
        for (w, s) in wide.candidates.iter().zip(&solo.candidates) {
            assert_eq!((w.knobs, &w.status), (s.knobs, &s.status), "{name}: column 0 differs");
            let ranked = matches!(w.status, Status::Evaluated(m) if m.output_ok);
            assert_eq!(w.retimed.len(), if ranked { fleet.len() - 1 } else { 0 });
        }
        assert_eq!(wide.winners[0], solo.winners[0], "{name}: capture-device winner");
        assert_eq!(wide.functional_runs, solo.functional_runs);
        assert_eq!(wide.retimings, solo.retimings * fleet.len() as u64);

        for (d, winner) in wide.winners.iter().enumerate() {
            let argmin = wide
                .candidates
                .iter()
                .enumerate()
                .filter_map(|(i, c)| Some((c.cycles_on(d)?, i)))
                .min()
                .map(|(_, i)| i);
            assert!(argmin.is_some(), "{name}: nothing ranked on {}", wide.devices[d]);
            assert_eq!(*winner, argmin, "{name}: winner on {}", wide.devices[d]);
            assert_eq!(wide.winner_cycles(d), wide.candidates[argmin.unwrap()].cycles_on(d));
        }
    }
}
