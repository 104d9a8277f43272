//! Reproduce every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [fig5] [fig6] [fig7] [fig8] [fig9] [fig10] [ablations] [verify]
//!           [headline] [tune] [fleet] [golden] [all] [--devices a,b,c]
//!           [--profile test|bench] [--json PATH] [--trace PATH]
//!           [--metrics] [--quiet] [--strict]
//! ```
//!
//! With no figure argument, everything except the tuning and fleet sweeps
//! runs. `--profile bench` (default) uses the scaled datasets of
//! `dpcons_apps::datasets`; `--profile test` runs a fast smoke pass.
//!
//! The `tune` experiment runs the `dpcons-tune` directive autotuner over all
//! seven apps and reports tuned-vs-paper-default speedups. Tuning results are
//! cached under `.dpcons-tune-cache/`, so a repeated `tune` run hits the
//! cache and reproduces the identical report. `all tune` runs it beside the
//! default set.
//!
//! The `fleet` experiment runs the device-fleet what-if sweep, and nothing
//! else: each tuner candidate is captured functionally **once** and re-timed
//! on every device of `--devices` (default `k20c,k40,titan,tk1`; names from
//! `dpcons_sim::GpuConfig::registry_names`) by timing-only replay, at the
//! selected `--profile` only. It writes `BENCH_fleet.json`: the knobs × device
//! cycle matrix and the per-device winners.
//!
//! Both records are pretty-printed JSON with sorted object keys
//! ([`dpcons_obs::jsonv::Value::render_pretty`]), so they diff cleanly.
//!
//! The `golden` experiment (not part of the default set) regenerates the
//! committed golden-datapoint record `tests/golden/datapoints.txt` in place:
//! every deterministic simulated fact of the test profile, one line per app ×
//! variant, which the root package's `tests/golden.rs` checks. It ignores
//! `--profile` and prints one summary line.
//!
//! The functional executor is the flat bytecode VM. The tree-walking
//! interpreter is the differential oracle the tests run beside it; both
//! produce bit-identical results, and only host wall-clock differs.
//!
//! Observability: `--trace PATH` records spans from every stage of the run
//! and writes a Chrome trace-event JSON (load it in Perfetto or
//! `chrome://tracing`), checked with `validate_chrome_trace` first;
//! `--metrics` prints the process metrics registry and a span stage summary
//! on exit; `--quiet` suppresses the stderr progress lines.
//!
//! Whenever the overall sweep runs, the machine-readable record
//! `BENCH_reproduce.json` (per-app cycles for flat / basic-dp / the three
//! consolidated granularities / tuned) is written so future changes have a
//! performance trajectory to compare against; `--json PATH` overrides the
//! destination.
//!
//! Every figure and ablation run is checked against its app's CPU oracle at
//! the selected `--profile` (`verify` reports the check on the overall sweep);
//! one that fails or differs still prints its cell and is listed on stderr.
//!
//! Exit status: `0` clean, `2` usage error, `1` hard failure (a run that
//! failed or differs from its oracle, a `--trace` export that does not
//! validate, or any faulted candidate under `--strict`), `3` the sweeps
//! completed but some candidates faulted (panicked / timed out / failed) and
//! were skipped. Faulted candidates are listed one per line and summarized
//! even under `--quiet`, so automation never silently loses a data point.

use std::path::PathBuf;
use std::time::Instant;

use dpcons_apps::{Profile, RunConfig};
use dpcons_bench::*;
use dpcons_serve::ErrorClass;
use dpcons_sim::parse_fleet;

/// Print a usage error to stderr and exit with the conventional CLI-misuse
/// status. Every malformed-invocation path funnels through here, and the
/// status itself comes from the shared [`ErrorClass`] taxonomy — the same
/// mapping `dpcons-serve` derives its HTTP statuses from, so the CLI and the
/// daemon cannot drift on what a caller error is.
fn usage_err(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    eprintln!(
        "usage: reproduce [verify|fig5..fig10|headline|ablations|tune|fleet|golden|all ...] \
         [--profile test|bench] [--json PATH] \
         [--devices a,b,c] [--trace PATH] [--metrics] [--quiet] [--strict]"
    );
    std::process::exit(ErrorClass::Usage.exit_code());
}

/// What runs when no experiment, or `all`, is named.
const DEFAULT: [&str; 9] =
    ["verify", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "headline", "ablations"];

/// The experiments to run, in order, given the names on the command line.
/// No name, or `all`, selects the default set (everything but the sweeps and
/// `golden`) followed by any other experiment named; `all` itself is not an
/// experiment.
fn experiments(mut figs: Vec<String>) -> Vec<String> {
    if figs.is_empty() || figs.iter().any(|f| f == "all") {
        let mut all: Vec<String> = DEFAULT.iter().map(|s| s.to_string()).collect();
        for f in figs {
            if f != "all" && !all.contains(&f) {
                all.push(f);
            }
        }
        figs = all;
    }
    figs
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = Profile::Bench;
    let mut quiet = false;
    let mut strict = false;
    let mut metrics = false;
    let mut trace_path: Option<PathBuf> = None;
    let mut json_path = PathBuf::from("BENCH_reproduce.json");
    let mut devices_spec = "k20c,k40,titan,tk1".to_string();
    let mut figs: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--profile" => match it.next().map(String::as_str) {
                Some("test") => profile = Profile::Test,
                Some("bench") => profile = Profile::Bench,
                other => usage_err(&format!("unknown profile {other:?}")),
            },
            "--quiet" => quiet = true,
            "--strict" => strict = true,
            "--metrics" => metrics = true,
            "--trace" => match it.next() {
                Some(p) => trace_path = Some(PathBuf::from(p)),
                None => usage_err("--trace needs a path"),
            },
            "--json" => match it.next() {
                Some(p) => json_path = PathBuf::from(p),
                None => usage_err("--json needs a path"),
            },
            "--devices" => match it.next() {
                Some(s) => devices_spec = s.clone(),
                None => usage_err("--devices needs a comma-separated device list"),
            },
            f => figs.push(f.to_string()),
        }
    }
    let fleet_devices = match parse_fleet(&devices_spec) {
        Ok(f) => f,
        Err(e) => usage_err(&format!("--devices {devices_spec}: {e}")),
    };
    // Span recording costs one atomic per span when off; turn it on only
    // when the run is actually going to export a trace.
    if trace_path.is_some() {
        dpcons_obs::set_tracing(true);
    }
    let figs = experiments(figs);

    let cfg = RunConfig::default();
    let emit = |t: &Table| println!("{}", t.render());
    let progress = |line: String| {
        if !quiet {
            eprintln!("{line}");
        }
    };

    // `golden` ignores the profile, so alone it prints only its summary line.
    if figs.iter().any(|f| f != "golden") {
        println!(
            "# dpcons reproduction — profile: {:?}, device: {}, threshold: {}\n",
            profile, cfg.gpu.name, cfg.threshold
        );
    }

    // Reference points that failed or differ from their app's CPU oracle;
    // any is a hard failure once every selected experiment has printed.
    let mut inexact = Vec::new();
    // `verify`, Figures 7-10, the tuning comparison, and the JSON record
    // share one profiled, oracle-checked sweep.
    let needs_matrix = figs.iter().any(|f| {
        matches!(f.as_str(), "verify" | "fig7" | "fig8" | "fig9" | "fig10" | "headline" | "tune")
    });
    let matrix = if needs_matrix {
        let t0 = Instant::now();
        let m;
        (m, inexact) = overall_matrix(profile, &cfg);
        progress(format!("[overall sweep finished in {:.1}s]", t0.elapsed().as_secs_f64()));
        m
    } else {
        Vec::new()
    };
    let matrix_faults = inexact.len();

    let mut tuned: Option<Vec<(String, TuneReport)>> = None;
    let mut fleet_results: Option<Vec<(String, FleetReport)>> = None;
    for f in &figs {
        let t0 = Instant::now();
        let mut emit_checked = |(t, faults): (Table, Vec<String>)| {
            emit(&t);
            inexact.extend(faults);
        };
        match f.as_str() {
            "verify" => match matrix_faults {
                0 => println!("verify: all 7 benchmarks x 5 variants match the CPU oracle\n"),
                n => println!("verify: {n} of 35 matrix runs fail or differ from the CPU oracle\n"),
            },
            "fig5" => emit_checked(fig5_allocators(profile, &cfg)),
            "fig6" => emit_checked(fig6_kernel_config(profile, &cfg)),
            "fig7" => emit(&fig7_overall(&matrix)),
            "fig8" => emit(&fig8_warp_efficiency(&matrix)),
            "fig9" => emit(&fig9_occupancy(&matrix)),
            "fig10" => emit(&fig10_dram(&matrix)),
            "headline" => emit(&headline_claims(profile, &matrix)),
            "tune" => {
                let results = tune_all(profile, &cfg, Some(PathBuf::from(".dpcons-tune-cache")));
                emit(&tuned_table(&matrix, &results));
                tuned = Some(results);
            }
            "fleet" => {
                let cache = Some(PathBuf::from(".dpcons-tune-cache"));
                let fleet = fleet_all(profile, &cfg, &fleet_devices, cache);
                emit(&fleet_table(&fleet));
                let fleet_path = PathBuf::from("BENCH_fleet.json");
                let record = fleet_json(profile, &cfg, &fleet).render_pretty();
                match std::fs::write(&fleet_path, record) {
                    Ok(()) => progress(format!("[wrote {}]", fleet_path.display())),
                    Err(e) => eprintln!("[failed to write {}: {e}]", fleet_path.display()),
                }
                fleet_results = Some(fleet);
            }
            "golden" => {
                let (path, record) = (golden_path(), golden_record());
                if let Err(e) = std::fs::write(&path, &record) {
                    eprintln!("reproduce: failed to write {}: {e}", path.display());
                    std::process::exit(ErrorClass::Internal.exit_code());
                }
                let (n, faults) = (record.lines().count(), record.matches(" error=").count());
                println!("golden: wrote {n} datapoints ({faults} faulted) to {}", path.display());
            }
            "ablations" => {
                emit_checked(ablation_pool_capacity(profile, &cfg));
                emit_checked(ablation_threshold(profile, &cfg));
            }
            other => usage_err(&format!("unknown experiment `{other}`")),
        }
        progress(format!("[{f} finished in {:.1}s]", t0.elapsed().as_secs_f64()));
    }

    if needs_matrix {
        let record = reproduce_json(profile, &cfg, &matrix, tuned.as_deref()).render_pretty();
        match std::fs::write(&json_path, record) {
            Ok(()) => progress(format!("[wrote {}]", json_path.display())),
            Err(e) => eprintln!("[failed to write {}: {e}]", json_path.display()),
        }
    }

    // Observability exports run last so they cover every selected experiment.
    let mut trace_invalid = false;
    if let Some(path) = &trace_path {
        let spans = dpcons_obs::take_spans();
        let json = dpcons_obs::chrome_trace_json(&spans);
        if let Err(e) = dpcons_obs::validate_chrome_trace(&json) {
            eprintln!("reproduce: the trace for {} does not validate: {e}", path.display());
            trace_invalid = true;
        }
        match std::fs::write(path, &json) {
            Ok(()) => progress(format!("[wrote {} ({} spans)]", path.display(), spans.len())),
            Err(e) => eprintln!("[failed to write {}: {e}]", path.display()),
        }
        if metrics {
            println!("{}", dpcons_obs::stage_summary(&spans));
        }
    }
    if metrics {
        println!("{}", dpcons_obs::render_metrics_table());
    }

    // Fault accounting decides the exit status, so downstream automation can
    // distinguish "completed, but some candidates were skipped" from a clean
    // run. The summary line always prints when a sweep ran — `--quiet` only
    // silences progress, never fault or oracle reporting.
    let sweeps = [("tune", tuned.as_deref()), ("fleet", fleet_results.as_deref())];
    let faults: Vec<String> =
        sweeps.iter().flat_map(|(sweep, rows)| fault_lines(sweep, rows.unwrap_or(&[]))).collect();
    for line in &faults {
        eprintln!("fault: {line}");
    }
    let (n, m) = (faults.len(), inexact.len());
    if tuned.is_some() || fleet_results.is_some() {
        println!("fault summary: {n} faulted candidate(s) across the selected sweeps");
    }
    for point in &inexact {
        eprintln!("oracle: {point}");
    }
    let status = if m > 0 {
        eprintln!("reproduce: {m} reference point(s) failed or differ from the CPU oracle");
        ErrorClass::Internal
    } else if trace_invalid {
        ErrorClass::Internal
    } else if n > 0 && strict {
        eprintln!("reproduce: --strict and {n} candidate(s) faulted");
        ErrorClass::Internal
    } else if n > 0 {
        ErrorClass::Faulted
    } else {
        return;
    };
    std::process::exit(status.exit_code());
}

#[cfg(test)]
mod tests {
    use super::{experiments, DEFAULT};

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn all_expands_to_the_default_set_and_is_not_itself_run() {
        let default = names(&DEFAULT);
        assert_eq!(experiments(names(&["all"])), default);
        assert_eq!(experiments(Vec::new()), default);
        let mut with_tune = default.clone();
        with_tune.push("tune".to_string());
        assert_eq!(experiments(names(&["tune", "all", "fig5"])), with_tune);
        assert_eq!(experiments(names(&["all", "tune"])), with_tune);
    }

    #[test]
    fn named_experiments_keep_their_order() {
        assert_eq!(experiments(names(&["fig5", "fleet"])), names(&["fig5", "fleet"]));
        assert_eq!(experiments(names(&["tune"])), names(&["tune"]));
        assert_eq!(
            experiments(names(&["golden", "fig6", "tune", "fleet"])),
            names(&["golden", "fig6", "tune", "fleet"])
        );
    }
}
