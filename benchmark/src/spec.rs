//! What the benchmark declares: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`--spec`) and a unit test
//! keeps the two equal.

use crate::inputs::Scale;

/// Seconds one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 18;
pub const DEFAULT_SEED: u64 = 1;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: Some(bound) }
}

/// End-to-end metrics, reported for every workload from the untraced run.
/// Failures are not a metric here: a metric must never read 0, so they are
/// the `failed`/`attempted` fields of the result line, and any failure on a
/// batch workload also makes the run incorrect.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("op_ms_geomean", "ms", false, 0.25),
    e2e("op_ms_tail", "ms", false, 0.25),
    e2e("cpu_ms_per_op", "ms", false, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub scale: Scale,
    /// Dataset instances a run draws from its seed. The work in an instance
    /// varies with the seed (SSSP iterations, colouring rounds, tree sizes);
    /// several instances per run average that out.
    pub instances: usize,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "baseline_runs",
        why: "basic-dp and flat runs at scale M: thousands of kernels and no consolidation, so the ir VM and sim engine do the work; an executor change shows here, a pool or setup change must not",
        scale: Scale::M,
        instances: 3,
    },
    Workload {
        name: "cons_datapoint",
        why: "the 7 paper-default directives per app through evaluate_candidate at scale S: grid keys are dominated by consolidate, install, Engine::new and pool zeroing, warp/block keys use the three allocators",
        scale: Scale::S,
        instances: 2,
    },
    Workload {
        name: "retime_fleet",
        why: "captured basic-dp runs re-timed on 4 devices, serially and batched: the only workload where sim timing replay is all of the work, with both replay paths checked against each other",
        scale: Scale::M,
        instances: 3,
    },
    Workload {
        name: "tune_sweep",
        why: "budgeted tune and fleet_sweep per app at scale S: adds fingerprint, enumerate, prune, parallel waves and report assembly to the datapoint, on both sweep pipelines",
        scale: Scale::S,
        instances: 2,
    },
    Workload {
        name: "serve_mix",
        why: "2 closed-loop clients against an in-process dpcons-serve: fresh tune and fleet requests beside in-flight and done duplicates, so compute and the dedup path are measured together",
        scale: Scale::S,
        instances: 1,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric { name, unit, higher_is_better: higher, bound: None }
}

/// Per-layer metrics, reported for every workload from the traced run; the
/// layers are the crates. Timings are medians over the run's probe passes.
/// `count` metrics are facts of the (simulated) work, not host speed: a
/// host-performance change must leave them identical for a given seed.
pub const PER_LAYER: [Metric; 75] = [
    layer("workloads.gen_ms", "ms", false),
    layer("workloads.reference_ms", "ms", false),
    layer("workloads.nodes", "count", true),
    layer("workloads.edges", "count", true),
    layer("core.analyze_us", "us", false),
    layer("core.consolidate_us", "us", false),
    layer("core.prepare_launch_us", "us", false),
    layer("core.reset_launch_us", "us", false),
    layer("core.reset_share", "ratio", false),
    layer("core.cons_kernels", "count", false),
    layer("core.cons_source_bytes", "count", false),
    layer("ir.compile_us", "us", false),
    layer("ir.lower_us", "us", false),
    layer("ir.install_us", "us", false),
    layer("ir.exec_ms.bytecode", "ms", false),
    layer("ir.exec_ms.unfused", "ms", false),
    layer("ir.exec_ms.tree", "ms", false),
    layer("ir.exec_kernels_per_s", "1/s", true),
    layer("ir.ops_lowered", "count", false),
    layer("sim.engine_new_us", "us", false),
    layer("sim.pool_alloc_us", "us", false),
    layer("sim.pool_fill_us", "us", false),
    layer("sim.replay_ms", "ms", false),
    layer("sim.replay_kernels_per_s", "1/s", true),
    layer("sim.cycles", "count", false),
    layer("sim.kernels", "count", false),
    layer("sim.device_launches", "count", false),
    layer("sim.dram_transactions", "count", false),
    layer("sim.alloc_ops", "count", false),
    layer("sim.warp_exec_efficiency", "ratio", true),
    layer("sim.achieved_occupancy", "ratio", true),
    layer("sim.cons_speedup_geomean_x", "x", true),
    layer("apps.run_ms.SSSP", "ms", false),
    layer("apps.run_ms.SpMV", "ms", false),
    layer("apps.run_ms.PageRank", "ms", false),
    layer("apps.run_ms.GC", "ms", false),
    layer("apps.run_ms.BFS-Rec", "ms", false),
    layer("apps.run_ms.TH", "ms", false),
    layer("apps.run_ms.TD", "ms", false),
    layer("apps.run_residual_ms", "ms", false),
    layer("apps.host_launches", "count", false),
    layer("tune.fingerprint_us", "us", false),
    layer("tune.enumerate_us", "us", false),
    layer("tune.prune_us", "us", false),
    layer("tune.candidate_ms", "ms", false),
    layer("tune.sweep_ms", "ms", false),
    layer("tune.fleet_sweep_ms", "ms", false),
    layer("tune.candidates_per_s", "1/s", true),
    layer("tune.wave_speedup_x", "x", true),
    layer("tune.report_render_us", "us", false),
    layer("tune.report_parse_us", "us", false),
    layer("tune.cache_put_us", "us", false),
    layer("tune.cache_get_us", "us", false),
    layer("tune.replay_many_ms", "ms", false),
    layer("tune.replay_many_speedup_x", "x", true),
    layer("tune.pruned_share", "ratio", false),
    layer("tune.failed_candidates", "count", false),
    layer("obs.span_on_ns", "ns", false),
    layer("obs.span_off_ns", "ns", false),
    layer("obs.counter_inc_ns", "ns", false),
    layer("obs.trace_overhead_pct", "%", false),
    layer("obs.chrome_export_ms", "ms", false),
    layer("obs.spans_recorded", "count", false),
    layer("obs.spans_dropped", "count", false),
    layer("serve.http_rtt_ms", "ms", false),
    layer("serve.parse_request_us", "us", false),
    layer("serve.submit_ack_ms", "ms", false),
    layer("serve.cold_tune_ms", "ms", false),
    layer("serve.cold_fleet_ms", "ms", false),
    layer("serve.dup_inflight_ms", "ms", false),
    layer("serve.dup_done_ms", "ms", false),
    layer("serve.overhead_ms", "ms", false),
    layer("serve.dedup_share", "ratio", true),
    layer("serve.stream_events", "count", false),
    layer("serve.jobs_failed", "count", false),
];

fn metric_json(m: &Metric) -> String {
    let better = if m.higher_is_better { "higher" } else { "lower" };
    let bound = m.bound.map(|b| format!(", \"bound\": {b}")).unwrap_or_default();
    format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
        m.name, m.unit
    )
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \
         \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(PER_LAYER.iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpcons::obs::jsonv;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, benchmark_json(), "regenerate with `-- --spec > BENCHMARK.json`");
    }

    #[test]
    fn declaration_is_within_the_contract() {
        let doc = jsonv::parse(&benchmark_json()).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("array")
                .iter()
                .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_string())
                .collect()
        };
        let mut all = names("workloads");
        assert!((2..=8).contains(&all.len()));
        all.extend(names("end_to_end"));
        all.extend(names("per_layer"));
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for n in &all {
            assert!(n.len() <= 64 && n.chars().all(ok), "bad name {n}");
            assert!(n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()), "bad name {n}");
            assert_eq!(all.iter().filter(|m| *m == n).count(), 1, "name {n} used twice");
        }
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        let widest = END_TO_END.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert!(setup.unit == "s" && !setup.higher_is_better && setup.bound == Some(widest));
        assert!(PER_LAYER.len() <= 128 && (1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
