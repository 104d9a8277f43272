//! Golden datapoints: every deterministic simulated fact of the test profile,
//! one line per app × {basic-dp, no-dp, every [`enumerate_candidates`] point
//! of `KnobSpace::quick`}, captured on the default device and re-timed on
//! `DEVICES`. A line is `APP LABEL output=<hash> dag=<hash> <every
//! ProfileReport field> <device>=<cycles>…`, or `APP LABEL error=<text>`.
//! The record is committed as `tests/golden/datapoints.txt`, checked by the
//! root package's `tests/golden.rs` and regenerated by `reproduce golden`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use dpcons_apps::{all_benchmarks, AppError, AppOutcome, Profile, RunConfig, Variant};
use dpcons_core::KnobSpace;
use dpcons_sim::GpuConfig;
use dpcons_tune::{candidate_config, enumerate_candidates, fnv1a};

use crate::run_points;

/// Devices every capture is re-timed on.
const DEVICES: [&str; 4] = ["k20c", "k40", "titan", "tk1"];

/// The committed record, found from this crate's manifest directory.
pub fn golden_path() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("workspace root");
    root.join("tests/golden/datapoints.txt")
}

/// Render the whole record: one `\n`-terminated line per datapoint, in app
/// order, basic-dp and no-dp first, then the candidates in search order.
pub fn golden_record() -> String {
    let apps = all_benchmarks(Profile::Test);
    let base = RunConfig { capture: true, ..RunConfig::default() };
    let space = KnobSpace::quick(base.gpu.num_sms);
    let (mut keys, mut points) = (Vec::new(), Vec::new());
    for app in &apps {
        let app = app.as_ref();
        for v in [Variant::BasicDp, Variant::Flat] {
            keys.push(format!("{} {}", app.name(), v.label()));
            points.push((app, v, base.clone()));
        }
        let model = app.tune_model().expect("every app exposes a tune model");
        for k in enumerate_candidates(&model, &space).0 {
            keys.push(format!("{} {}", app.name(), k.label()));
            points.push((app, Variant::ConsolidatedTuned, candidate_config(&base, &k)));
        }
    }
    let line = |i: usize, r: Result<AppOutcome, AppError>| {
        let error = |e: AppError| format!("error={}", e.to_string().replace('\n', " "));
        format!("{} {}\n", keys[i], r.map_or_else(error, |out| facts(&out)))
    };
    run_points(points, line).concat()
}

fn facts(out: &AppOutcome) -> String {
    let caps = out.captures.as_ref().expect("capture was enabled");
    let dag = fnv1a(format!("{:?}", caps.launches).as_bytes());
    let output: Vec<u8> = out.output.iter().flat_map(|v| v.to_le_bytes()).collect();
    // Every `ProfileReport` field, `name: value` from its `Debug` as `name=value`.
    let report = format!("{:?}", out.report);
    let report = report.trim_start_matches("ProfileReport { ").trim_end_matches(" }");
    let report = report.replace(": ", "=").replace(", ", " ");
    let mut line = format!("output={:016x} dag={dag:016x} {report}", fnv1a(&output));
    for name in DEVICES {
        let gpu = GpuConfig::by_name(name).expect("registry device");
        write!(line, " {name}={}", caps.replay_on(&gpu).total_cycles).expect("String write");
    }
    line
}

/// Compare a fresh record with the committed one. The error names the first
/// datapoint (app and label) whose line differs and its first differing
/// field, or a datapoint that only one of the two records holds.
pub fn golden_diff(committed: &str, fresh: &str) -> Result<(), String> {
    let old: HashMap<&str, Vec<&str>> = committed.lines().map(split).collect();
    let new: HashMap<&str, Vec<&str>> = fresh.lines().map(split).collect();
    for (key, want) in committed.lines().map(split) {
        let Some(got) = new.get(key) else {
            return Err(format!("{key}: datapoint missing from the fresh record"));
        };
        let i = want.iter().zip(got).take_while(|(w, g)| w == g).count();
        if let Some(field) = want.get(i).or(got.get(i)) {
            let name = field.split('=').next().unwrap_or(field);
            let w = want.get(i).copied().unwrap_or("<absent>");
            let g = got.get(i).copied().unwrap_or("<absent>");
            return Err(format!("{key}: field `{name}` differs: committed `{w}`, fresh `{g}`"));
        }
    }
    match fresh.lines().map(split).find(|(key, _)| !old.contains_key(key)) {
        Some((key, _)) => Err(format!("{key}: datapoint not in the committed record")),
        None => Ok(()),
    }
}

/// A line's `APP LABEL` key and its `name=value` fields; an error line has
/// one `error=` field holding the rest of the line.
fn split(line: &str) -> (&str, Vec<&str>) {
    let (key, rest) = match line.match_indices(' ').nth(1) {
        Some((i, _)) => (&line[..i], &line[i + 1..]),
        None => (line, ""),
    };
    (key, if rest.starts_with("error=") { vec![rest] } else { rest.split(' ').collect() })
}

#[cfg(test)]
mod tests {
    use super::*;

    const RECORD: &str = "TH basic-dp output=01 dag=02 total_cycles=10 k40=9\n\
                          TH warp/halloc/pbs=-/cfg=- output=03 dag=04 total_cycles=7 k40=6\n\
                          GC no-dp error=simulator: heap exhausted\n";

    #[test]
    fn diff_names_the_datapoint_and_first_differing_field() {
        assert_eq!(golden_diff(RECORD, RECORD), Ok(()));
        for (from, to, want) in [
            ("k40=6", "k40=5", "TH warp/halloc/pbs=-/cfg=-: field `k40`"),
            ("output=01 dag=02 total_cycles=10 k40=9", "error=boom", "TH basic-dp: field `output`"),
            (" k40=9", "", "TH basic-dp: field `k40`"),
        ] {
            let err = golden_diff(RECORD, &RECORD.replace(from, to)).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
    }

    /// The default allocator places like pre-alloc: every `…/default/…` line
    /// of the committed record has a `…/pre-alloc/…` partner with the same
    /// output, launch counts, DRAM transactions and allocation count. Only
    /// the allocation charge (`alloc_cycles`) and the timing built on it
    /// may differ.
    #[test]
    fn default_allocator_places_like_pre_alloc_in_the_record() {
        let record = std::fs::read_to_string(golden_path()).expect("read the committed record");
        let lines: HashMap<&str, Vec<&str>> = record.lines().map(split).collect();
        fn field<'a>(fields: &[&'a str], name: &str) -> Option<&'a str> {
            fields.iter().find(|f| f.split('=').next() == Some(name)).copied()
        }
        let mut pairs = 0;
        for (key, fields) in record.lines().map(split).filter(|(k, _)| k.contains("/default/")) {
            let partner = key.replace("/default/", "/pre-alloc/");
            let other = lines.get(partner.as_str()).unwrap_or_else(|| panic!("{key}: no partner"));
            for name in [
                "output",
                "host_launches",
                "device_launches",
                "kernels_executed",
                "dram_transactions",
                "alloc_ops",
            ] {
                assert_eq!(field(&fields, name), field(other, name), "{key} vs {partner}");
            }
            pairs += 1;
        }
        assert!(pairs > 0, "the record holds default-allocator candidates");
    }

    #[test]
    fn diff_names_missing_and_extra_datapoints() {
        let missing = RECORD.split_once('\n').unwrap().1;
        let err = golden_diff(RECORD, missing).unwrap_err();
        assert_eq!(err, "TH basic-dp: datapoint missing from the fresh record");
        let err = golden_diff(RECORD, &format!("{RECORD}GC basic-dp output=05\n")).unwrap_err();
        assert_eq!(err, "GC basic-dp: datapoint not in the committed record");
    }
}
