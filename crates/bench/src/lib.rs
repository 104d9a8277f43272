//! # dpcons-bench — figure-by-figure reproduction harness
//!
//! One experiment function per figure of the paper's evaluation (Section V),
//! each returning printable rows:
//!
//! * [`fig5_allocators`] — buffer allocator comparison on SSSP,
//! * [`fig6_kernel_config`] — configuration policies on Tree Descendants,
//! * [`overall_matrix`] + [`fig7_overall`] / [`fig8_warp_efficiency`] /
//!   [`fig9_occupancy`] / [`fig10_dram`] — the all-benchmarks sweep feeding
//!   Figures 7–10 (shared, since they profile the same runs),
//! * ablations beyond the paper (pending-pool capacity, threshold sweep).
//!
//! Independent simulations are fanned out over scoped worker threads
//! ([`dpcons_tune::par::parallel_map`]; each simulation itself stays
//! deterministic and single-threaded).

use std::collections::BTreeMap;
use std::path::PathBuf;

use dpcons_apps::{
    all_benchmarks, benchmark_by_name, benchmark_names, AppOutcome, Benchmark, Profile, RunConfig,
    Variant,
};
use dpcons_core::{ConfigPolicy, Granularity, KnobSpace};
use dpcons_obs::jsonv::Value;
use dpcons_sim::{AllocKind, GpuConfig};
use dpcons_tune::{
    candidate_config, default_knobs, fleet_sweep, tune, Budget, Cache, FleetOptions, Knobs,
    TuneOptions,
};

pub mod golden;
pub mod tables;

pub use dpcons_tune::par::parallel_map;
pub use dpcons_tune::{FleetReport, TuneReport};
pub use golden::{golden_diff, golden_path, golden_record};
pub use tables::Table;

/// Profiled outcomes of every variant of one benchmark.
pub struct AppResults {
    pub name: &'static str,
    pub outcomes: BTreeMap<String, AppOutcome>,
}

impl AppResults {
    pub fn get(&self, v: Variant) -> &AppOutcome {
        &self.outcomes[&v.label()]
    }

    /// Speedup of `v` over basic-dp (simulated cycles).
    pub fn speedup_over_basic(&self, v: Variant) -> f64 {
        self.get(Variant::BasicDp).report.total_cycles as f64
            / self.get(v).report.total_cycles.max(1) as f64
    }
}

/// Run all seven benchmarks across all five variants (basic-dp, no-dp, and
/// the three consolidation granularities). This is the data behind Figures
/// 7, 8, 9 and 10.
pub fn overall_matrix(profile: Profile, cfg: &RunConfig) -> Vec<AppResults> {
    let mut jobs: Vec<Box<dyn FnOnce() -> (usize, String, AppOutcome) + Send>> = Vec::new();
    for (app_idx, name) in benchmark_names().enumerate() {
        for variant in Variant::ALL {
            let cfg = cfg.clone();
            jobs.push(Box::new(move || {
                let out = build(name, profile)
                    .run(variant, &cfg)
                    .unwrap_or_else(|e| panic!("{name} ({}) failed: {e}", variant.label()));
                (app_idx, variant.label(), out)
            }));
        }
    }
    let results = parallel_map(jobs);
    let mut out: Vec<AppResults> =
        benchmark_names().map(|name| AppResults { name, outcomes: BTreeMap::new() }).collect();
    for (idx, label, o) in results {
        out[idx].outcomes.insert(label, o);
    }
    out
}

/// Verify every (benchmark, variant) pair against the CPU oracle; returns
/// failures. Used by integration tests and `reproduce --verify`.
pub fn verify_all(profile: Profile, cfg: &RunConfig) -> Vec<String> {
    let mut jobs: Vec<Box<dyn FnOnce() -> Option<String> + Send>> = Vec::new();
    for name in benchmark_names() {
        for variant in Variant::ALL {
            let cfg = cfg.clone();
            jobs.push(Box::new(move || {
                build(name, profile)
                    .verify(variant, &cfg)
                    .err()
                    .map(|e| format!("{name} ({}): {e}", variant.label()))
            }));
        }
    }
    parallel_map(jobs).into_iter().flatten().collect()
}

/// Build the one registered benchmark `name` — never the other six datasets.
fn build(name: &str, profile: Profile) -> Box<dyn Benchmark> {
    benchmark_by_name(name, profile).unwrap_or_else(|| panic!("{name} is registered"))
}

// ----------------------------------------------------------------- Fig 5 --

/// Figure 5: SSSP runtime under the three buffer allocators, per
/// consolidation granularity, normalized to basic-dp (higher = faster).
pub fn fig5_allocators(profile: Profile, cfg: &RunConfig) -> Table {
    let sssp = || build("SSSP", profile);
    let basic = sssp().run(Variant::BasicDp, cfg).expect("basic-dp runs").report.total_cycles;
    let nodp = sssp().run(Variant::Flat, cfg).expect("no-dp runs").report.total_cycles;

    let model = sssp().tune_model().expect("SSSP is tunable");
    let allocators = [AllocKind::Default, AllocKind::Halloc, AllocKind::PreAlloc];
    let jobs: Vec<_> = Granularity::ALL
        .iter()
        .flat_map(|&g| allocators.iter().map(move |&a| (g, a)))
        .map(|(g, a)| {
            let cfg = candidate_config(cfg, &Knobs { alloc: a, ..default_knobs(&model, g) });
            move || {
                let out = sssp()
                    .run(Variant::ConsolidatedTuned, &cfg)
                    .unwrap_or_else(|e| panic!("fig5 {}/{} failed: {e}", g.label(), a.label()));
                (g, a, out.report.total_cycles)
            }
        })
        .collect();
    let results = parallel_map(jobs);

    let mut t = Table::new(
        "Figure 5: SSSP buffer allocator comparison (speedup over basic-dp)",
        vec!["granularity", "default", "halloc", "pre-alloc"],
    );
    t.note(format!("no-dp (flat) speedup over basic-dp: {:.1}x", basic as f64 / nodp as f64));
    for g in Granularity::ALL {
        let mut row = vec![format!("{}-level", g.label())];
        for a in allocators {
            let cycles = results.iter().find(|(rg, ra, _)| *rg == g && *ra == a).expect("ran").2;
            row.push(format!("{:.1}x", basic as f64 / cycles as f64));
        }
        t.row(row);
    }
    t
}

// ----------------------------------------------------------------- Fig 6 --

/// Figure 6: Tree Descendants under different nested-kernel configuration
/// policies, per granularity and tree dataset, normalized to basic-dp.
/// `exhaustive` runs a (blocks, threads) grid of knob points (the
/// directive's `blocks`/`threads` clauses) and reports the best.
pub fn fig6_kernel_config(profile: Profile, cfg: &RunConfig) -> Table {
    use dpcons_apps::TreeDescendants;
    let datasets = [
        ("dataset1", dpcons_apps::datasets::tree1(profile)),
        ("dataset2", dpcons_apps::datasets::tree2(profile)),
    ];
    let policies =
        [ConfigPolicy::Kc(1), ConfigPolicy::Kc(16), ConfigPolicy::Kc(32), ConfigPolicy::OneToOne];
    // A coarse but representative configuration grid: block counts spanning
    // KC_32..KC_1 and two block sizes. (The full 24-point grid of an earlier
    // revision changed the best-found config by <3%.)
    let exhaustive_space: Vec<(u32, u32)> = {
        let mut s = Vec::new();
        for b in [1u32, 13, 52] {
            for t in [64u32, 256] {
                s.push((b, t));
            }
        }
        s
    };

    let mut headers = vec!["dataset".to_string(), "granularity".to_string()];
    headers.extend(policies.iter().map(ConfigPolicy::label));
    headers.extend(["exhaustive".to_string(), "KC/exh".to_string()]);
    let mut t = Table::new(
        "Figure 6: TD kernel-configuration policies (speedup over basic-dp)",
        headers.iter().map(String::as_str).collect(),
    );
    for (dname, tree) in datasets {
        let td = TreeDescendants::new(tree.clone());
        let basic = td.run(Variant::BasicDp, cfg).expect("basic-dp runs").report.total_cycles;
        let td_model = td.tune_model().expect("TD is tunable");
        for g in Granularity::ALL {
            // Policy runs in parallel.
            let jobs: Vec<_> = policies
                .iter()
                .map(|&p| {
                    let tree = tree.clone();
                    let cfg = RunConfig { policy: Some(p), ..cfg.clone() };
                    move || {
                        let out = TreeDescendants::new(tree)
                            .run(Variant::Consolidated(g), &cfg)
                            .unwrap_or_else(|e| panic!("fig6 {} failed: {e}", p.label()));
                        (p, out.report.total_cycles)
                    }
                })
                .collect();
            let policy_cycles = parallel_map(jobs);

            // Exhaustive search.
            let ejobs: Vec<_> = exhaustive_space
                .iter()
                .map(|&(b, tt)| {
                    let tree = tree.clone();
                    let k = Knobs { config: Some((b, tt)), ..default_knobs(&td_model, g) };
                    let cfg = candidate_config(cfg, &k);
                    move || {
                        TreeDescendants::new(tree)
                            .run(Variant::ConsolidatedTuned, &cfg)
                            .map(|o| o.report.total_cycles)
                            .unwrap_or(u64::MAX)
                    }
                })
                .collect();
            let best = parallel_map(ejobs).into_iter().min().unwrap_or(u64::MAX);

            let mut row = vec![dname.to_string(), format!("{}-level", g.label())];
            for &(_, c) in &policy_cycles {
                row.push(format!("{:.1}x", basic as f64 / c as f64));
            }
            row.push(format!("{:.1}x", basic as f64 / best as f64));
            // Ratio of the paper-default policy to exhaustive best.
            let default = ConfigPolicy::default_for(g);
            let def = policy_cycles.iter().find(|(p, _)| *p == default).expect("ran").1;
            row.push(format!("{:.0}%", 100.0 * best as f64 / def as f64));
            t.row(row);
        }
    }
    t.note("KC/exh: performance of the paper's default policy relative to exhaustive search");
    t
}

// ------------------------------------------------------------- Figs 7-10 --

/// Figure 7: overall speedup over basic-dp.
pub fn fig7_overall(matrix: &[AppResults]) -> Table {
    let mut t = Table::new(
        "Figure 7: overall speedup over basic-dp",
        vec!["app", "no-dp", "warp-level", "block-level", "grid-level"],
    );
    let mut geo: Vec<f64> = vec![1.0; 4];
    for app in matrix {
        let vs = [
            Variant::Flat,
            Variant::Consolidated(Granularity::Warp),
            Variant::Consolidated(Granularity::Block),
            Variant::Consolidated(Granularity::Grid),
        ];
        let mut row = vec![app.name.to_string()];
        for (k, v) in vs.iter().enumerate() {
            let s = app.speedup_over_basic(*v);
            geo[k] *= s;
            row.push(format!("{s:.1}x"));
        }
        t.row(row);
    }
    let n = matrix.len() as f64;
    t.row(vec![
        "geo-mean".to_string(),
        format!("{:.1}x", geo[0].powf(1.0 / n)),
        format!("{:.1}x", geo[1].powf(1.0 / n)),
        format!("{:.1}x", geo[2].powf(1.0 / n)),
        format!("{:.1}x", geo[3].powf(1.0 / n)),
    ]);
    t
}

/// Figure 8: warp execution efficiency (and child-kernel launch counts).
pub fn fig8_warp_efficiency(matrix: &[AppResults]) -> Table {
    let mut t = Table::new(
        "Figure 8: warp execution efficiency (child launches)",
        vec!["app", "basic-dp", "warp-level", "block-level", "grid-level"],
    );
    for app in matrix {
        let cell = |v: Variant| {
            let o = app.get(v);
            format!("{:.1}% ({})", o.report.warp_exec_efficiency * 100.0, o.report.device_launches)
        };
        t.row(vec![
            app.name.to_string(),
            cell(Variant::BasicDp),
            cell(Variant::Consolidated(Granularity::Warp)),
            cell(Variant::Consolidated(Granularity::Block)),
            cell(Variant::Consolidated(Granularity::Grid)),
        ]);
    }
    t
}

/// Figure 9: achieved SM occupancy.
pub fn fig9_occupancy(matrix: &[AppResults]) -> Table {
    let mut t = Table::new(
        "Figure 9: achieved SM occupancy",
        vec!["app", "basic-dp", "warp-level", "block-level", "grid-level"],
    );
    for app in matrix {
        let cell = |v: Variant| format!("{:.1}%", app.get(v).report.achieved_occupancy * 100.0);
        t.row(vec![
            app.name.to_string(),
            cell(Variant::BasicDp),
            cell(Variant::Consolidated(Granularity::Warp)),
            cell(Variant::Consolidated(Granularity::Block)),
            cell(Variant::Consolidated(Granularity::Grid)),
        ]);
    }
    t
}

/// Figure 10: DRAM transactions relative to basic-dp (lower is better).
pub fn fig10_dram(matrix: &[AppResults]) -> Table {
    let mut t = Table::new(
        "Figure 10: DRAM transactions ratio over basic-dp",
        vec!["app", "warp-level", "block-level", "grid-level"],
    );
    for app in matrix {
        let basic = app.get(Variant::BasicDp).report.dram_transactions.max(1) as f64;
        let cell = |v: Variant| {
            format!("{:.0}%", 100.0 * app.get(v).report.dram_transactions as f64 / basic)
        };
        t.row(vec![
            app.name.to_string(),
            cell(Variant::Consolidated(Granularity::Warp)),
            cell(Variant::Consolidated(Granularity::Block)),
            cell(Variant::Consolidated(Granularity::Grid)),
        ]);
    }
    t
}

/// Headline-claims summary (paper abstract / Section V.C): speedup ranges of
/// consolidation over basic-dp, over flat, and the basic-dp slowdown, as
/// measured by `matrix` at `profile`.
pub fn headline_claims(profile: Profile, matrix: &[AppResults]) -> Table {
    let measured = format!("measured ({} profile)", profile_name(profile));
    let mut t = Table::new("Headline claims: measured vs paper", vec!["claim", "paper", &measured]);
    let grids: Vec<f64> = matrix
        .iter()
        .map(|a| a.speedup_over_basic(Variant::Consolidated(Granularity::Grid)))
        .collect();
    let all_cons: Vec<f64> = matrix
        .iter()
        .flat_map(|a| {
            Granularity::ALL.iter().map(move |&g| a.speedup_over_basic(Variant::Consolidated(g)))
        })
        .collect();
    let flats: Vec<f64> = matrix.iter().map(|a| a.speedup_over_basic(Variant::Flat)).collect();
    let over_flat: Vec<f64> = matrix
        .iter()
        .map(|a| {
            a.get(Variant::Flat).report.total_cycles as f64
                / a.get(Variant::Consolidated(Granularity::Grid)).report.total_cycles.max(1) as f64
        })
        .collect();
    let minmax = |v: &[f64]| {
        let mn = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = v.iter().cloned().fold(0.0f64, f64::max);
        format!("{mn:.0}x - {mx:.0}x")
    };
    t.row(vec![
        "consolidated speedup over basic-dp".into(),
        "90x - 3300x".into(),
        minmax(&all_cons),
    ]);
    t.row(vec!["grid-level speedup over basic-dp".into(), "up to 3300x".into(), minmax(&grids)]);
    t.row(vec!["basic-dp slowdown vs flat".into(), "80x - 1100x".into(), minmax(&flats)]);
    t.row(vec![
        "grid-level speedup over flat".into(),
        "2x - 6x (avg 3.78x)".into(),
        minmax(&over_flat),
    ]);
    // Launch-count reduction range (Fig. 8 annotation: 0.07% - 14.48%).
    let reductions: Vec<f64> = matrix
        .iter()
        .flat_map(|a| {
            let basic = a.get(Variant::BasicDp).report.device_launches.max(1) as f64;
            Granularity::ALL.iter().map(move |&g| {
                100.0 * a.get(Variant::Consolidated(g)).report.device_launches as f64 / basic
            })
        })
        .collect();
    let mn = reductions.iter().cloned().fold(f64::INFINITY, f64::min);
    let mx = reductions.iter().cloned().fold(0.0f64, f64::max);
    t.row(vec![
        "child launches vs basic-dp".into(),
        "0.07% - 14.48%".into(),
        format!("{mn:.2}% - {mx:.2}%"),
    ]);
    t
}

// -------------------------------------------------------------- Ablation --

/// Ablation (beyond the paper): fixed pending-pool capacity sweep on
/// PageRank basic-dp — the `cudaDeviceSetLimit` effect of Section III.B.
pub fn ablation_pool_capacity(profile: Profile, cfg: &RunConfig) -> Table {
    use dpcons_apps::PageRank;
    let caps = [64u32, 256, 1024, 2048, 8192];
    let jobs: Vec<_> = caps
        .iter()
        .map(|&c| {
            let mut cfg = cfg.clone();
            cfg.gpu.fixed_pool_capacity = c;
            move || {
                let g = dpcons_apps::datasets::citeseer(profile);
                let out = PageRank::new(g, 3).run(Variant::BasicDp, &cfg).expect("basic-dp runs");
                (c, out.report.total_cycles, out.report.virtual_pool_kernels)
            }
        })
        .collect();
    let mut t = Table::new(
        "Ablation: fixed pending-pool capacity (PageRank basic-dp)",
        vec!["capacity", "cycles", "virtual-pool kernels"],
    );
    for (c, cyc, vp) in parallel_map(jobs) {
        t.row(vec![c.to_string(), cyc.to_string(), vp.to_string()]);
    }
    t
}

/// Ablation (beyond the paper): delegation-threshold sweep on SSSP
/// grid-level consolidation.
pub fn ablation_threshold(profile: Profile, cfg: &RunConfig) -> Table {
    let thresholds = [4i64, 16, 32, 64, 256];
    let jobs: Vec<_> = thresholds
        .iter()
        .map(|&thr| {
            let cfg = RunConfig { threshold: thr, ..cfg.clone() };
            move || {
                let out = build("SSSP", profile)
                    .run(Variant::Consolidated(Granularity::Grid), &cfg)
                    .expect("runs");
                (thr, out.report.total_cycles, out.report.device_launches)
            }
        })
        .collect();
    let mut t = Table::new(
        "Ablation: delegation threshold (SSSP grid-level)",
        vec!["threshold", "cycles", "child launches"],
    );
    for (thr, cyc, dl) in parallel_map(jobs) {
        t.row(vec![thr.to_string(), cyc.to_string(), dl.to_string()]);
    }
    t
}

// ------------------------------------------------------------- Autotune --

/// Run the directive autotuner over all seven benchmarks (quick knob space,
/// budgeted). `cache_dir` persists results across `reproduce` invocations so
/// a repeated `tune` run is O(1) and reproduces the identical report.
pub fn tune_all(
    profile: Profile,
    cfg: &RunConfig,
    cache_dir: Option<PathBuf>,
) -> Vec<(String, TuneReport)> {
    let apps = all_benchmarks(profile);
    apps.iter()
        .map(|app| {
            let opts = TuneOptions {
                base: cfg.clone(),
                space: KnobSpace::quick(cfg.gpu.num_sms),
                budget: Budget { max_evals: Some(48), ..Budget::default() },
                with_baselines: true,
                cache: Some(Cache::new(cache_dir.clone())),
            };
            let report = tune(app.as_ref(), &opts).expect("the seven apps expose tune models");
            (app.name().to_string(), report)
        })
        .collect()
}

/// Total faulted candidates (panicked, timed out, or failed) across a set of
/// sweeps.
pub fn fault_count(sweeps: &[(String, TuneReport)]) -> usize {
    sweeps.iter().map(|(_, r)| r.fault_count()).sum()
}

/// One human-readable line per faulted candidate across a set of sweeps,
/// each prefixed with `sweep` ("tune" / "fleet") — the `reproduce` CLI prints
/// these so no skipped candidate goes unreported, even under `--quiet`.
pub fn fault_lines(sweep: &str, sweeps: &[(String, TuneReport)]) -> Vec<String> {
    let mut lines = Vec::new();
    for (app, r) in sweeps {
        for (_, c) in r.faulted() {
            let desc = match &c.status {
                dpcons_tune::Status::Panicked(m) => format!("panicked: {m}"),
                dpcons_tune::Status::TimedOut(m) => format!("timed out: {m}"),
                dpcons_tune::Status::Failed(m) => format!("failed: {m}"),
                _ => continue,
            };
            lines.push(format!("{sweep} {app}: {} {desc}", c.knobs.label()));
        }
    }
    lines
}

/// Tuned-vs-paper-default summary: how the autotuned directive compares to
/// the hand-written per-granularity defaults from the overall matrix.
pub fn tuned_table(matrix: &[AppResults], tuned: &[(String, TuneReport)]) -> Table {
    let mut t = Table::new(
        "Autotuned directives (quick space) vs paper defaults",
        vec![
            "app",
            "best knobs",
            "cycles",
            "vs grid-default",
            "vs best-default",
            "evaluated",
            "faults",
            "cache",
        ],
    );
    for (name, report) in tuned {
        let app = matrix.iter().find(|a| a.name == name).expect("matrix covers all apps");
        let best = report.best_cycles();
        let grid = app.get(Variant::Consolidated(Granularity::Grid)).report.total_cycles;
        let best_default = Granularity::ALL
            .iter()
            .map(|&g| app.get(Variant::Consolidated(g)).report.total_cycles)
            .min()
            .expect("three granularities");
        let (cycles_s, vs_grid, vs_best) = match best {
            Some(c) => (
                c.to_string(),
                format!("{:.2}x", grid as f64 / c as f64),
                format!("{:.2}x", best_default as f64 / c as f64),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        t.row(vec![
            name.clone(),
            report.best_knobs().map(|k| k.label()).unwrap_or_else(|| "-".into()),
            cycles_s,
            vs_grid,
            vs_best,
            format!("{}/{}", report.evaluated, report.candidates.len()),
            report.fault_count().to_string(),
            if report.from_cache { "hit" } else { "miss" }.into(),
        ]);
    }
    t.note("cycles: full app run under the tuned directive; defaults come from the overall sweep");
    t
}

// ----------------------------------------------------------------- Fleet --

/// Run the device-fleet what-if sweep over all seven benchmarks: every
/// surviving candidate is captured functionally **once** (on `fleet[0]`) and
/// re-timed on every fleet device, so the (knobs × device) matrix costs one
/// functional run per row. Results are cached per (app, dataset, config,
/// space, budget, fleet) under `cache_dir`.
pub fn fleet_all(
    profile: Profile,
    cfg: &RunConfig,
    fleet: &[GpuConfig],
    cache_dir: Option<PathBuf>,
) -> Vec<(String, FleetReport)> {
    let apps = all_benchmarks(profile);
    apps.iter()
        .map(|app| {
            let opts = FleetOptions {
                base: cfg.clone(),
                space: KnobSpace::quick(fleet[0].num_sms),
                budget: Budget { max_evals: Some(24), ..Budget::default() },
                fleet: fleet.to_vec(),
                cache: Some(Cache::new(cache_dir.clone())),
            };
            let report = fleet_sweep(app.as_ref(), &opts)
                .unwrap_or_else(|e| panic!("fleet sweep for {} failed: {e}", app.name()));
            (app.name().to_string(), report)
        })
        .collect()
}

/// Per-device winners of the fleet sweep, one row per app.
pub fn fleet_table(results: &[(String, FleetReport)]) -> Table {
    let devices: Vec<String> = results.first().map(|(_, r)| r.devices.clone()).unwrap_or_default();
    let mut header =
        vec!["app".to_string(), "runs".to_string(), "datapoints".to_string(), "faults".to_string()];
    header.extend(devices.iter().cloned());
    let mut t = Table::new(
        "Fleet what-if sweep: per-device winning knobs (cycles)",
        header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    for (name, r) in results {
        let mut row = vec![
            name.clone(),
            r.functional_runs.to_string(),
            r.retimings.to_string(),
            r.fault_count().to_string(),
        ];
        for d in 0..r.devices.len() {
            row.push(match (r.winner_knobs(d), r.winner_cycles(d)) {
                (Some(k), Some(c)) => format!("{} ({c})", k.label()),
                _ => "-".into(),
            });
        }
        t.row(row);
    }
    t.note(format!(
        "runs: functional executions; datapoints: runs x {} devices, timed by replay from one capture",
        devices.len().max(1)
    ));
    t
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn profile_name(profile: Profile) -> &'static str {
    match profile {
        Profile::Test => "test",
        Profile::Bench => "bench",
    }
}

/// Assemble the machine-readable fleet record (`BENCH_fleet.json`): the full
/// knobs × device cycle matrix per app and the per-device winners.
pub fn fleet_json(profile: Profile, cfg: &RunConfig, fleet: &[(String, FleetReport)]) -> Value {
    let devices: Vec<String> = fleet.first().map(|(_, r)| r.devices.clone()).unwrap_or_default();
    let apps = fleet
        .iter()
        .map(|(name, r)| {
            let matrix = r
                .matrix()
                .map(|(c, cycles)| {
                    let cycles = r.devices.iter().cloned().zip(cycles.into_iter().map(num));
                    obj([
                        ("knobs", Value::Str(c.knobs.label())),
                        ("cycles", Value::Obj(cycles.collect())),
                    ])
                })
                .collect();
            let winners = r
                .devices
                .iter()
                .enumerate()
                .map(|(d, dev)| {
                    let w = match (r.winner_knobs(d), r.winner_cycles(d)) {
                        (Some(k), Some(c)) => {
                            obj([("knobs", Value::Str(k.label())), ("cycles", num(c))])
                        }
                        _ => Value::Null,
                    };
                    (dev.clone(), w)
                })
                .collect();
            obj([
                ("name", Value::Str(name.clone())),
                ("functional_runs", num(r.functional_runs)),
                ("retimings", num(r.retimings)),
                ("matrix", Value::Arr(matrix)),
                ("winners", Value::Obj(winners)),
            ])
        })
        .collect();
    obj([
        ("schema", Value::Str("dpcons-bench-fleet-v2".into())),
        ("profile", Value::Str(profile_name(profile).into())),
        ("captured_on", devices.first().map_or(Value::Null, |d| Value::Str(d.clone()))),
        ("devices", Value::Arr(devices.into_iter().map(Value::Str).collect())),
        ("threshold", num(cfg.threshold as u64)),
        ("apps", Value::Arr(apps)),
    ])
}

/// Assemble the machine-readable reproduction record
/// (`BENCH_reproduce.json`): per-app cycles for flat / basic-dp / the three
/// consolidated granularities, plus the tuned result when a sweep ran.
pub fn reproduce_json(
    profile: Profile,
    cfg: &RunConfig,
    matrix: &[AppResults],
    tuned: Option<&[(String, TuneReport)]>,
) -> Value {
    let apps = matrix
        .iter()
        .map(|app| {
            let mut cycles: BTreeMap<String, Value> = Variant::ALL
                .iter()
                .map(|v| (v.label(), num(app.get(*v).report.total_cycles)))
                .collect();
            let mut fields = BTreeMap::from([("name".to_string(), Value::Str(app.name.into()))]);
            let tuned_report =
                tuned.and_then(|t| t.iter().find(|(n, _)| n == app.name)).map(|(_, r)| r);
            if let Some(r) = tuned_report {
                cycles.insert("tuned".into(), r.best_cycles().map_or(Value::Null, num));
                let best_default = Granularity::ALL
                    .iter()
                    .map(|&g| app.get(Variant::Consolidated(g)).report.total_cycles)
                    .min()
                    .unwrap_or(0);
                let speedup = match r.best_cycles() {
                    Some(c) if c > 0 => Value::Num(best_default as f64 / c as f64),
                    _ => Value::Null,
                };
                let detail = obj([
                    ("knobs", r.best_knobs().map_or(Value::Null, |k| Value::Str(k.label()))),
                    ("speedup_over_best_default", speedup),
                    ("evaluated", num(r.evaluated as u64)),
                    ("skipped", num(r.skipped as u64)),
                    ("collapsed", num(r.collapsed as u64)),
                    ("cache_hit", Value::Bool(r.from_cache)),
                ]);
                fields.insert("tuned_detail".into(), detail);
            }
            fields.insert("cycles".into(), Value::Obj(cycles));
            Value::Obj(fields)
        })
        .collect();
    obj([
        ("schema", Value::Str("dpcons-bench-reproduce-v2".into())),
        ("profile", Value::Str(profile_name(profile).into())),
        ("gpu", Value::Str(cfg.gpu.name.clone())),
        ("threshold", num(cfg.threshold as u64)),
        ("apps", Value::Arr(apps)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduce_json_has_all_variants_per_app() {
        let cfg = RunConfig::default();
        let matrix = overall_matrix(Profile::Test, &cfg);
        let j = reproduce_json(Profile::Test, &cfg, &matrix, None);
        let text = j.render_pretty();
        for app in ["SSSP", "SpMV", "PageRank"] {
            assert!(text.contains(&format!("\"name\": \"{app}\"")), "{app} missing");
        }
        for v in Variant::ALL {
            assert!(text.contains(&format!("\"{}\"", v.label())), "{} missing", v.label());
        }
        assert!(text.contains("dpcons-bench-reproduce-v2"));
        let headline = headline_claims(Profile::Test, &matrix).render();
        assert!(headline.contains("measured (test profile)"), "{headline}");
    }
}
