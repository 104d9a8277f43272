//! `dpcons-benchmark` — one seeded, verified benchmark for the tuner
//! datapoint: five workloads, six end-to-end metrics, a per-crate ledger.
//!
//! ```text
//! dpcons-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! dpcons-benchmark [--seed N] [--seconds S] [--trace 0|1]   # all, one child process each
//! dpcons-benchmark --aa [--seed N] [--seconds S]            # all, twice, compared to the bounds
//! dpcons-benchmark --spec                                   # the text of BENCHMARK.json
//! ```
//!
//! A single-workload run prints its metrics by name, then, as the last line
//! of standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See README.md for what each metric means.

mod inputs;
mod layers;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use dpcons::obs::jsonv::{self, Value};

use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};
use workloads::Outcome;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::DEFAULT_SEED,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        aa: false,
        spec: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            // `--trace` alone turns the traced run on; the driver passes 0 or 1.
            "--trace" => match it.next_if(|v| v == "0" || v == "1") {
                Some(v) => args.trace = v == "1",
                None => args.trace = true,
            },
            "--aa" => args.aa = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload `{name}`; known: {}", known.join(", ")));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dpcons-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => run_one(spec::workload(name).expect("checked by parse_args"), &args),
        None if args.aa => run_aa(&args),
        None => run_all(&args).is_some(),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One workload in this process: table, then the result line.
fn run_one(w: &spec::Workload, args: &Args) -> bool {
    println!(
        "workload {} seed {} seconds {} trace {} ({} cores)",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let (outcome, specs): (Outcome, &[Metric]) = if args.trace {
        (layers::run_traced(w, args.seed, args.seconds), &PER_LAYER)
    } else {
        (workloads::run_end_to_end(w, args.seed, args.seconds), &END_TO_END)
    };
    let mut metrics = Vec::new();
    for (name, value, note) in &outcome.metrics {
        let m = specs.iter().find(|m| m.name == *name).expect("declared metric");
        let better = if m.higher_is_better { "higher" } else { "lower" };
        let bound = m.bound.map(|b| format!(", may worsen {:.0}%", b * 100.0)).unwrap_or_default();
        println!("{name:<28} {value:>16.4} {:<6} ({better} is better{bound}; {note})", m.unit);
        metrics.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.unit));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    outcome.correct
}

/// Metric values by (workload, metric).
type Table = BTreeMap<(&'static str, String), f64>;

/// Every workload, each in a child process of its own, so that peak memory
/// and CPU time are per workload. `None` if any child failed.
fn run_all(args: &Args) -> Option<Table> {
    let exe = std::env::current_exe().expect("own executable path");
    let mut table = Table::new();
    for w in &WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("child process starts");
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        let result = stdout.lines().last().and_then(|l| jsonv::parse(l).ok());
        let metrics = result.as_ref().and_then(|r| r.get("metrics")).and_then(Value::as_obj);
        let (true, Some(metrics)) = (out.status.success(), metrics) else {
            eprintln!("workload {} failed ({})", w.name, out.status);
            return None;
        };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_num).expect("metric has a value");
            table.insert((w.name, name.clone()), value);
        }
    }
    Some(table)
}

/// ISSUE 12 bounds `setup_s` by "25 % or 0.05 s". `BENCHMARK.json` can state
/// only the share; the A/A also allows the absolute part, because a single
/// pair of millisecond set-ups differs by more than a quarter on this machine.
const SETUP_SLACK_S: f64 = 0.05;

/// A/A: the full set twice on the same build; each end-to-end metric of the
/// second set must be within its bound of the first.
fn run_aa(args: &Args) -> bool {
    let (Some(first), Some(second)) = (run_all(args), run_all(args)) else {
        return false;
    };
    let mut pass = true;
    println!("A/A  workload         metric               first       second    worse by   bound");
    for ((workload, name), a) in &first {
        let b = second[&(*workload, name.clone())];
        let Some(m) = END_TO_END.iter().find(|m| m.name == name) else { continue };
        let worse = if m.higher_is_better { (a - b) / a } else { (b - a) / a };
        let bound = m.bound.expect("end-to-end metrics have bounds");
        let slack = m.name == "setup_s" && worse > bound && b - a <= SETUP_SLACK_S;
        let within = worse <= bound || slack;
        let verdict = if within { "PASS" } else { "FAIL" };
        pass &= within;
        println!(
            "{verdict} {workload:<16} {name:<16} {a:>12.4} {b:>12.4} {:>9.1}% {:>6.0}%{}",
            worse * 100.0,
            bound * 100.0,
            if slack { format!(" or {SETUP_SLACK_S} s") } else { String::new() }
        );
    }
    pass
}
