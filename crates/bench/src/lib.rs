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
//! Every datapoint runs through one private runner, which fans the points
//! out in order over scoped worker threads ([`dpcons_tune::par::parallel_map`];
//! each simulation stays deterministic and single-threaded). An app is built
//! once per dataset and its CPU oracle computed once; every figure and
//! ablation run is compared with that oracle, and each experiment returns,
//! beside its table, one line per reference point that failed or differs.
//! The [`golden`] record records its facts unchecked.

use std::collections::BTreeMap;
use std::path::PathBuf;

use dpcons_apps::{
    all_benchmarks, benchmark_by_name, output_mismatch, AppError, AppOutcome, Benchmark, Profile,
    RunConfig, Variant,
};
use dpcons_core::{ConfigPolicy, Granularity, KnobSpace};
use dpcons_obs::jsonv::Value;
use dpcons_sim::{AllocKind, GpuConfig, ProfileReport};
use dpcons_tune::{
    candidate_config, default_knobs, fleet_sweep, parallel_map, tune, Budget, Cache, FleetOptions,
    Knobs, TuneOptions,
};

pub mod golden;
pub mod tables;

pub use dpcons_tune::{FleetReport, TuneReport};
pub use golden::{golden_diff, golden_path, golden_record};
pub use tables::Table;

/// Run every `(app, variant, config)` point in order on the worker pool —
/// apps are shared by reference — and hand each outcome, with its point's
/// index, to `finish` on the worker that ran it. Results come in point order.
fn run_points<T: Send>(
    points: Vec<(&dyn Benchmark, Variant, RunConfig)>,
    finish: impl Fn(usize, Result<AppOutcome, AppError>) -> T + Sync,
) -> Vec<T> {
    let finish = &finish;
    let jobs = points.into_iter().enumerate();
    parallel_map(jobs.map(|(i, (app, v, cfg))| move || finish(i, app.run(v, &cfg))).collect())
}

/// A benchmark built once, with its CPU oracle computed once.
struct Subject(Box<dyn Benchmark>, Vec<i64>);

impl Subject {
    fn new(app: Box<dyn Benchmark>) -> Subject {
        let oracle = app.reference();
        Subject(app, oracle)
    }
}

/// A run compared with its app's CPU oracle.
struct Checked {
    /// The outcome when the run completed, exact or not.
    outcome: Option<AppOutcome>,
    /// `point: why` when the run failed or its output differs from the oracle.
    fault: Option<String>,
}

impl Checked {
    fn cycles(&self) -> Option<u64> {
        self.outcome.as_ref().map(|o| o.report.total_cycles)
    }
}

/// Run the points, each named for its fault line, and check every run
/// against its subject's oracle.
fn run_checked(points: Vec<(String, &Subject, Variant, RunConfig)>) -> Vec<Checked> {
    let (names, points): (Vec<_>, Vec<_>) =
        points.into_iter().map(|(what, s, v, cfg)| ((what, &s.1), (&*s.0, v, cfg))).unzip();
    run_points(points, |i, r| {
        let (what, oracle) = &names[i];
        let fault = match &r {
            Err(e) => Some(format!("failed: {e}")),
            Ok(o) => output_mismatch(&o.output, oracle),
        };
        Checked { outcome: r.ok(), fault: fault.map(|f| format!("{what}: {f}")) }
    })
}

/// The fault lines of `runs`, in order.
fn faults<'a>(runs: impl IntoIterator<Item = &'a Checked>) -> Vec<String> {
    runs.into_iter().filter_map(|r| r.fault.clone()).collect()
}

/// `basic / cycles` as a speedup cell; `-` when either run failed.
fn speedup(basic: Option<u64>, cycles: Option<u64>) -> String {
    basic.zip(cycles).map_or("-".into(), |(b, c)| format!("{:.1}x", b as f64 / c as f64))
}

/// A count from a profile report.
pub type Field = fn(&ProfileReport) -> u64;

/// Profiled outcomes of every variant of one benchmark.
pub struct AppResults {
    pub name: &'static str,
    /// Each variant's outcome by label; a failed run has none.
    pub outcomes: BTreeMap<String, AppOutcome>,
}

impl AppResults {
    pub fn get(&self, v: Variant) -> Option<&ProfileReport> {
        self.outcomes.get(&v.label()).map(|o| &o.report)
    }

    pub fn cycles(&self, v: Variant) -> Option<u64> {
        self.get(v).map(|r| r.total_cycles)
    }

    /// `field` of `num` over `field` of `den` (at least 1).
    pub fn ratio(&self, field: Field, num: Variant, den: Variant) -> Option<f64> {
        Some(field(self.get(num)?) as f64 / field(self.get(den)?).max(1) as f64)
    }
}

/// Run all seven benchmarks across all five variants (basic-dp, no-dp, and
/// the three consolidation granularities). This is the data behind Figures
/// 7, 8, 9 and 10, and what `reproduce verify` checks: returns the results
/// and one line per run that failed or differs from its app's oracle.
pub fn overall_matrix(profile: Profile, cfg: &RunConfig) -> (Vec<AppResults>, Vec<String>) {
    let subjects: Vec<Subject> = all_benchmarks(profile).into_iter().map(Subject::new).collect();
    let points = subjects.iter().flat_map(|s| {
        Variant::ALL.map(|v| (format!("matrix {} {}", s.0.name(), v.label()), s, v, cfg.clone()))
    });
    let runs = run_checked(points.collect());
    let (faults, mut runs) = (faults(&runs), runs.into_iter());
    let matrix = subjects.iter().map(|s| {
        let outcomes = Variant::ALL.iter().zip(runs.by_ref());
        let outcomes = outcomes.filter_map(|(v, r)| Some((v.label(), r.outcome?)));
        AppResults { name: s.0.name(), outcomes: outcomes.collect() }
    });
    (matrix.collect(), faults)
}

// ----------------------------------------------------------------- Fig 5 --

/// Figure 5: SSSP runtime under the three buffer allocators, per
/// consolidation granularity, normalized to basic-dp (higher = faster).
/// Returns the table and its failed or oracle-inexact runs.
pub fn fig5_allocators(profile: Profile, cfg: &RunConfig) -> (Table, Vec<String>) {
    let sssp = Subject::new(benchmark_by_name("SSSP", profile).expect("SSSP is registered"));
    let model = sssp.0.tune_model().expect("SSSP is tunable");
    let allocators = [AllocKind::Default, AllocKind::Halloc, AllocKind::PreAlloc];
    let mut points = Vec::new();
    let mut add = |what: String, v, cfg| points.push((format!("fig5 SSSP {what}"), &sssp, v, cfg));
    add("basic-dp".into(), Variant::BasicDp, cfg.clone());
    add("no-dp".into(), Variant::Flat, cfg.clone());
    for g in Granularity::ALL {
        for alloc in allocators {
            let k = Knobs { alloc, ..default_knobs(&model, g) };
            add(k.label(), Variant::ConsolidatedTuned, candidate_config(cfg, &k));
        }
    }
    let runs = run_checked(points);
    let basic = runs[0].cycles();

    let mut t = Table::new(
        "Figure 5: SSSP buffer allocator comparison (speedup over basic-dp)",
        vec!["granularity", "default", "halloc", "pre-alloc"],
    );
    t.note(format!("no-dp (flat) speedup over basic-dp: {}", speedup(basic, runs[1].cycles())));
    for (g, runs) in Granularity::ALL.iter().zip(runs[2..].chunks(allocators.len())) {
        let mut row = vec![format!("{}-level", g.label())];
        row.extend(runs.iter().map(|r| speedup(basic, r.cycles())));
        t.row(row);
    }
    (t, faults(&runs))
}

// ----------------------------------------------------------------- Fig 6 --

/// The configuration policies Figure 6 compares.
const FIG6_POLICIES: [ConfigPolicy; 4] =
    [ConfigPolicy::Kc(1), ConfigPolicy::Kc(16), ConfigPolicy::Kc(32), ConfigPolicy::OneToOne];

/// A coarse but representative (blocks, threads) grid for Figure 6's
/// exhaustive search, each point the directive's `blocks`/`threads` clauses:
/// block counts spanning KC_32..KC_1 and two block sizes. (The full 24-point
/// grid of an earlier revision changed the best-found config by <3%.)
const FIG6_GRID: [(u32, u32); 6] = [(1, 64), (1, 256), (13, 64), (13, 256), (52, 64), (52, 256)];

/// One row of Figure 6: a tree dataset at one granularity, in cycles (`None`
/// for a failed run).
pub struct Fig6Row {
    pub dataset: &'static str,
    pub granularity: Granularity,
    pub basic: Option<u64>,
    /// The policies `KC_1`, `KC_16`, `KC_32` and 1-1 with their runs.
    pub policies: Vec<(ConfigPolicy, Option<u64>)>,
    /// The best oracle-exact run among the grid shapes and the policies.
    pub exhaustive: Option<u64>,
}

/// Figure 6's numbers. Returns the rows and the failed or oracle-inexact
/// reference runs (basic-dp and the policies; a failed or inexact grid shape
/// is only left out of the exhaustive best).
pub fn fig6_rows(profile: Profile, cfg: &RunConfig) -> (Vec<Fig6Row>, Vec<String>) {
    use dpcons_apps::{datasets, TreeDescendants};
    let trees = [("dataset1", datasets::tree1(profile)), ("dataset2", datasets::tree2(profile))];
    let trees =
        trees.map(|(name, tree)| (name, Subject::new(Box::new(TreeDescendants::new(tree)))));
    let mut points = Vec::new();
    for (name, td) in &trees {
        let model = td.0.tune_model().expect("TD is tunable");
        let mut add =
            |what: String, v, cfg| points.push((format!("fig6 {name} TD {what}"), td, v, cfg));
        add("basic-dp".into(), Variant::BasicDp, cfg.clone());
        for g in Granularity::ALL {
            for p in FIG6_POLICIES {
                let what = format!("{}-level {}", g.label(), p.label());
                add(what, Variant::Consolidated(g), RunConfig { policy: Some(p), ..cfg.clone() });
            }
            for shape in FIG6_GRID {
                let k = Knobs { config: Some(shape), ..default_knobs(&model, g) };
                add(k.label(), Variant::ConsolidatedTuned, candidate_config(cfg, &k));
            }
        }
    }
    let runs = run_checked(points);

    let (mut rows, mut reference) = (Vec::new(), Vec::new());
    let row_len = FIG6_POLICIES.len() + FIG6_GRID.len();
    for ((dataset, _), runs) in trees.iter().zip(runs.chunks(1 + 3 * row_len)) {
        reference.push(&runs[0]);
        for (&granularity, row) in Granularity::ALL.iter().zip(runs[1..].chunks(row_len)) {
            reference.extend(&row[..FIG6_POLICIES.len()]);
            let policies = FIG6_POLICIES.into_iter().zip(row.iter().map(Checked::cycles));
            let exact = row.iter().filter(|r| r.fault.is_none());
            let (basic, exhaustive) = (runs[0].cycles(), exact.filter_map(Checked::cycles).min());
            rows.push(Fig6Row {
                dataset,
                granularity,
                basic,
                policies: policies.collect(),
                exhaustive,
            });
        }
    }
    (rows, faults(reference))
}

/// Figure 6: Tree Descendants under different nested-kernel configuration
/// policies, per granularity and tree dataset, normalized to basic-dp.
/// Returns the table and its failed or oracle-inexact reference runs.
pub fn fig6_kernel_config(profile: Profile, cfg: &RunConfig) -> (Table, Vec<String>) {
    let (rows, faults) = fig6_rows(profile, cfg);
    let mut headers = vec!["dataset".to_string(), "granularity".to_string()];
    headers.extend(FIG6_POLICIES.iter().map(ConfigPolicy::label));
    headers.extend(["exhaustive".to_string(), "KC/exh".to_string()]);
    let mut t = Table::new(
        "Figure 6: TD kernel-configuration policies (speedup over basic-dp)",
        headers.iter().map(String::as_str).collect(),
    );
    for r in &rows {
        let mut row = vec![r.dataset.to_string(), format!("{}-level", r.granularity.label())];
        row.extend(r.policies.iter().map(|&(_, c)| speedup(r.basic, c)));
        row.push(speedup(r.basic, r.exhaustive));
        // Ratio of the paper-default policy to exhaustive best.
        let default = ConfigPolicy::default_for(r.granularity);
        let def = r.policies.iter().find(|(p, _)| *p == default).and_then(|&(_, c)| c);
        let ratio = r.exhaustive.zip(def).map(|(best, def)| 100.0 * best as f64 / def as f64);
        row.push(ratio.map_or("-".into(), |p| format!("{p:.0}%")));
        t.row(row);
    }
    t.note("KC/exh: performance of the paper's default policy relative to exhaustive search");
    (t, faults)
}

// ------------------------------------------------------------- Figs 7-10 --

/// The consolidated variants, one per granularity.
const CONSOLIDATED: [Variant; 3] = [
    Variant::Consolidated(Granularity::Warp),
    Variant::Consolidated(Granularity::Block),
    Variant::Consolidated(Granularity::Grid),
];

/// The variants Figures 8 and 9 profile.
const PROFILED: [Variant; 4] =
    [Variant::BasicDp, CONSOLIDATED[0], CONSOLIDATED[1], CONSOLIDATED[2]];

/// One row per app and one column per variant: the loop Figures 7-10 share.
/// A cell `cell` cannot compute (a run failed) reads `-`.
fn matrix_table(
    title: &str,
    matrix: &[AppResults],
    variants: &[Variant],
    cell: impl Fn(&AppResults, Variant) -> Option<String>,
) -> Table {
    let mut headers = vec!["app".to_string()];
    headers.extend(variants.iter().map(|v| v.label()));
    let mut t = Table::new(title, headers.iter().map(String::as_str).collect());
    for app in matrix {
        let mut row = vec![app.name.to_string()];
        row.extend(variants.iter().map(|&v| cell(app, v).unwrap_or_else(|| "-".into())));
        t.row(row);
    }
    t
}

/// Figure 7: overall speedup over basic-dp.
pub fn fig7_overall(matrix: &[AppResults]) -> Table {
    let (title, variants) = ("Figure 7: overall speedup over basic-dp", &Variant::ALL[1..]);
    let speedup = |a: &AppResults, v| a.ratio(|r| r.total_cycles, Variant::BasicDp, v);
    let mut t =
        matrix_table(title, matrix, variants, |a, v| Some(format!("{:.1}x", speedup(a, v)?)));
    let mut geo = vec!["geo-mean".to_string()];
    for &v in variants {
        let s: Vec<f64> = matrix.iter().filter_map(|a| speedup(a, v)).collect();
        geo.push(format!("{:.1}x", s.iter().product::<f64>().powf(1.0 / s.len() as f64)));
    }
    t.row(geo);
    t
}

/// Figure 8: warp execution efficiency (and child-kernel launch counts).
pub fn fig8_warp_efficiency(matrix: &[AppResults]) -> Table {
    let title = "Figure 8: warp execution efficiency (child launches)";
    matrix_table(title, matrix, &PROFILED, |a, v| {
        let r = a.get(v)?;
        Some(format!("{:.1}% ({})", r.warp_exec_efficiency * 100.0, r.device_launches))
    })
}

/// Figure 9: achieved SM occupancy.
pub fn fig9_occupancy(matrix: &[AppResults]) -> Table {
    matrix_table("Figure 9: achieved SM occupancy", matrix, &PROFILED, |a, v| {
        Some(format!("{:.1}%", a.get(v)?.achieved_occupancy * 100.0))
    })
}

/// Figure 10: DRAM transactions relative to basic-dp (lower is better).
pub fn fig10_dram(matrix: &[AppResults]) -> Table {
    let title = "Figure 10: DRAM transactions ratio over basic-dp";
    matrix_table(title, matrix, &CONSOLIDATED, |a, v| {
        Some(format!("{:.0}%", 100.0 * a.ratio(|r| r.dram_transactions, v, Variant::BasicDp)?))
    })
}

/// Headline-claims summary (paper abstract / Section V.C): speedup ranges of
/// consolidation over basic-dp, over flat, and the basic-dp slowdown, as
/// measured by `matrix` at `profile` (over the runs that completed).
pub fn headline_claims(profile: Profile, matrix: &[AppResults]) -> Table {
    let measured = format!("measured ({} profile)", profile_name(profile));
    let mut t = Table::new("Headline claims: measured vs paper", vec!["claim", "paper", &measured]);
    let (basic, flat, grid) = (Variant::BasicDp, Variant::Flat, CONSOLIDATED[2]);
    // Over every app, the range of `field` of each pair's first variant over
    // its second's.
    let range = |field: Field, pairs: &[(Variant, Variant)]| {
        let r: Vec<f64> = matrix
            .iter()
            .flat_map(|a| pairs.iter().filter_map(move |&(n, d)| a.ratio(field, n, d)))
            .collect();
        (r.iter().cloned().fold(f64::INFINITY, f64::min), r.iter().cloned().fold(0.0f64, f64::max))
    };
    let consolidated = CONSOLIDATED.map(|v| (basic, v));
    for (claim, paper, pairs) in [
        ("consolidated speedup over basic-dp", "90x - 3300x", &consolidated[..]),
        ("grid-level speedup over basic-dp", "up to 3300x", &[(basic, grid)]),
        ("basic-dp slowdown vs flat", "80x - 1100x", &[(basic, flat)]),
        ("grid-level speedup over flat", "2x - 6x (avg 3.78x)", &[(flat, grid)]),
    ] {
        let (mn, mx) = range(|r| r.total_cycles, pairs);
        t.row(vec![claim.into(), paper.into(), format!("{mn:.0}x - {mx:.0}x")]);
    }
    // Launch-count reduction range (Fig. 8 annotation: 0.07% - 14.48%).
    let (mn, mx) = range(|r| r.device_launches, &CONSOLIDATED.map(|v| (v, basic)));
    let measured = format!("{:.2}% - {:.2}%", 100.0 * mn, 100.0 * mx);
    t.row(vec!["child launches vs basic-dp".into(), "0.07% - 14.48%".into(), measured]);
    t
}

// -------------------------------------------------------------- Ablation --

/// One ablation: `app` run under each `(label, config)` point, one row per
/// point of the swept value, its cycles and `field` of its report, or `-`
/// for a failed run. Returns the table and its failed or inexact runs.
fn ablation(
    title: &str,
    headers: [&str; 3],
    app: &Subject,
    variant: Variant,
    points: &[(String, RunConfig)],
    field: Field,
) -> (Table, Vec<String>) {
    let name =
        |value| format!("ablation {} {} {}={value}", app.0.name(), variant.label(), headers[0]);
    let runs =
        run_checked(points.iter().map(|(v, cfg)| (name(v), app, variant, cfg.clone())).collect());
    let mut t = Table::new(title, headers.to_vec());
    for ((value, _), run) in points.iter().zip(&runs) {
        let report = run.outcome.as_ref().map(|o| &o.report);
        let cell = |f: Field| report.map_or("-".into(), |r| f(r).to_string());
        t.row(vec![value.clone(), cell(|r| r.total_cycles), cell(field)]);
    }
    (t, faults(&runs))
}

/// Ablation (beyond the paper): fixed pending-pool capacity sweep on
/// PageRank basic-dp — the `cudaDeviceSetLimit` effect of Section III.B.
pub fn ablation_pool_capacity(profile: Profile, cfg: &RunConfig) -> (Table, Vec<String>) {
    let pagerank = dpcons_apps::PageRank::new(dpcons_apps::datasets::citeseer(profile), 3);
    let points = [64u32, 256, 1024, 2048, 8192].map(|c| {
        let mut cfg = cfg.clone();
        cfg.gpu.fixed_pool_capacity = c;
        (c.to_string(), cfg)
    });
    let title = "Ablation: fixed pending-pool capacity (PageRank basic-dp)";
    let headers = ["capacity", "cycles", "virtual-pool kernels"];
    let app = Subject::new(Box::new(pagerank));
    ablation(title, headers, &app, Variant::BasicDp, &points, |r| r.virtual_pool_kernels)
}

/// Ablation (beyond the paper): delegation-threshold sweep on SSSP
/// grid-level consolidation.
pub fn ablation_threshold(profile: Profile, cfg: &RunConfig) -> (Table, Vec<String>) {
    let points = [4i64, 16, 32, 64, 256]
        .map(|thr| (thr.to_string(), RunConfig { threshold: thr, ..cfg.clone() }));
    let title = "Ablation: delegation threshold (SSSP grid-level)";
    let headers = ["threshold", "cycles", "child launches"];
    let sssp = Subject::new(benchmark_by_name("SSSP", profile).expect("SSSP is registered"));
    ablation(title, headers, &sssp, CONSOLIDATED[2], &points, |r| r.device_launches)
}

// ------------------------------------------------------------- Autotune --

/// Run the directive autotuner over all seven benchmarks (quick knob space,
/// budgeted). `cache_dir` persists results across `reproduce` invocations so
/// a repeated `tune` run is O(1) and reproduces the identical report.
pub fn tune_all(
    profile: Profile,
    cfg: &RunConfig,
    cache: Option<PathBuf>,
) -> Vec<(String, TuneReport)> {
    let opts = TuneOptions {
        base: cfg.clone(),
        space: KnobSpace::quick(cfg.gpu.num_sms),
        budget: Budget { max_evals: Some(48), ..Budget::default() },
        with_baselines: false,
        cache: Some(Cache::new(cache)),
    };
    let sweep = |app: &dyn Benchmark| tune(app, &opts).expect("the seven apps expose tune models");
    all_benchmarks(profile).iter().map(|app| (app.name().to_string(), sweep(&**app))).collect()
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
        let grid = app.cycles(Variant::Consolidated(Granularity::Grid));
        let best_default = CONSOLIDATED.iter().filter_map(|&v| app.cycles(v)).min();
        let ratio = |default: Option<u64>| match (default, best) {
            (Some(d), Some(c)) => format!("{:.2}x", d as f64 / c as f64),
            _ => "-".into(),
        };
        let cycles_s = best.map_or_else(|| "-".into(), |c| c.to_string());
        let (vs_grid, vs_best) = (ratio(grid), ratio(best_default));
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
/// space, budget, fleet) under `cache`.
pub fn fleet_all(
    profile: Profile,
    cfg: &RunConfig,
    fleet: &[GpuConfig],
    cache: Option<PathBuf>,
) -> Vec<(String, FleetReport)> {
    let opts = FleetOptions {
        base: cfg.clone(),
        space: KnobSpace::quick(fleet[0].num_sms),
        budget: Budget { max_evals: Some(24), ..Budget::default() },
        fleet: fleet.to_vec(),
        cache: Some(Cache::new(cache)),
    };
    let sweep = |app: &dyn Benchmark| {
        fleet_sweep(app, &opts)
            .unwrap_or_else(|e| panic!("fleet sweep for {} failed: {e}", app.name()))
    };
    all_benchmarks(profile).iter().map(|app| (app.name().to_string(), sweep(&**app))).collect()
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
                .map(|&v| (v.label(), app.cycles(v).map_or(Value::Null, num)))
                .collect();
            let mut fields = BTreeMap::from([("name".to_string(), Value::Str(app.name.into()))]);
            let tuned_report =
                tuned.and_then(|t| t.iter().find(|(n, _)| n == app.name)).map(|(_, r)| r);
            if let Some(r) = tuned_report {
                cycles.insert("tuned".into(), r.best_cycles().map_or(Value::Null, num));
                let best_default =
                    CONSOLIDATED.iter().filter_map(|&v| app.cycles(v)).min().unwrap_or(0);
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
        let (matrix, faults) = overall_matrix(Profile::Test, &cfg);
        assert!(faults.is_empty(), "every test-profile variant matches its oracle: {faults:?}");
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

    #[test]
    fn checked_runs_name_failed_and_inexact_points_and_keep_their_cells() {
        let sssp = || benchmark_by_name("SSSP", Profile::Test).unwrap();
        let (sssp, wrong_oracle) = (Subject::new(sssp()), Subject(sssp(), vec![-1]));
        let cfg = RunConfig::default();
        let runs = run_checked(vec![
            ("exact".into(), &sssp, Variant::Flat, cfg.clone()),
            ("inexact".into(), &wrong_oracle, Variant::Flat, cfg.clone()),
            // `ConsolidatedTuned` without a knob point is a driver error.
            ("failed".into(), &sssp, Variant::ConsolidatedTuned, cfg),
        ]);
        assert_eq!((&runs[0].fault, runs[0].cycles()), (&None, runs[1].cycles()));
        let lines = faults(&runs);
        assert!(lines[0].starts_with("inexact: output mismatch: [0] got "), "{lines:?}");
        assert!(lines[1].starts_with("failed: failed: driver: "), "{lines:?}");
        assert_eq!((lines.len(), runs[2].cycles()), (2, None));
    }
}
