//! The traced run: the workload's own ops under the benchmark's spans, then
//! probes that time each layer's public functions on the workload's inputs.
//!
//! Every per-layer metric is a probe. The `core`, `ir`, `sim` and `apps`
//! probes use the workload's own datasets; the `tune` sweeps and the `serve`
//! requests always run at scale S (a sweep at scale L costs seconds per
//! candidate, and the daemon serves only its built-in datasets). Timings are
//! a mean over the seven apps, then a median over probe passes; counts must
//! repeat exactly from pass to pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use dpcons::apps::{Benchmark, RunConfig, Variant};
use dpcons::compiler::{
    analyze, consolidate, prepare_launch, reset_launch, Granularity, KnobSpace,
};
use dpcons::ir::{
    compile_module, engine_override, install, lower_module, module_to_string, set_engine_override,
    set_fusion_override, ExecEngine,
};
use dpcons::serve::{parse_request, Client, JobKind, Limits};
use dpcons::sim::{AllocKind, Engine, ExecRecord};
use dpcons::tune::{
    candidate_config, default_knobs, enumerate_candidates, fingerprint, fleet_sweep,
    materialize_directive, merge_reports, prune_reason, replay_timing_many, tune, Cache,
    FleetOptions, Knobs, Status, TuneOptions, TuneReport,
};

use crate::inputs::{self, Inputs, ReqClass, Scale, APP_NAMES};
use crate::spec::{Workload, PER_LAYER};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::workloads::{
    self, candidate_cycles, class_span, fleet, sweep_budget, Outcome, ServeMix,
};

/// Timing samples and counts by metric name.
#[derive(Default)]
struct Ledger {
    timings: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
    /// Counts that differed between two passes.
    drifted: Vec<String>,
}

impl Ledger {
    fn time(&mut self, name: &'static str, value: f64) {
        self.timings.entry(name).or_default().push(value);
    }

    fn count(&mut self, name: &'static str, value: f64) {
        if let Some(old) = self.counts.insert(name, value) {
            if old != value {
                self.drifted.push(format!("{name}: {old} then {value}"));
            }
        }
    }
}

/// Seconds → the unit `name` is declared with.
fn in_unit(name: &str, secs: f64) -> f64 {
    let unit = PER_LAYER.iter().find(|m| m.name == name).expect("declared metric").unit;
    secs * match unit {
        "ns" => 1e9,
        "us" => 1e6,
        "ms" => 1e3,
        other => panic!("`{name}` is not a timing: its unit is {other}"),
    }
}

struct Probe<'a> {
    work: &'a Inputs,
    small: &'a Inputs,
    cfg: RunConfig,
    tr: &'a Tracer,
    /// Host launches of the consolidated entry kernel per app in a grid-level
    /// run: the number of `reset_launch` calls. Counted once, from a capture.
    entry_launches: Vec<u64>,
    incorrect: Vec<String>,
}

/// Time `f` under a span; the duration lands in `sums[name]`.
fn timed<T>(
    tr: &Tracer,
    sums: &mut BTreeMap<&'static str, f64>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let (v, secs) = tr.time(name, f);
    *sums.entry(name).or_insert(0.0) += secs;
    v
}

impl Probe<'_> {
    fn grid_knobs(app: &dyn Benchmark) -> Knobs {
        default_knobs(&app.tune_model().expect("every app is tunable"), Granularity::Grid)
    }

    /// Walk a grid-level datapoint by hand through the public stages, then
    /// time the whole `evaluate_candidate` beside it. What the stages do not
    /// cover is `apps.run_residual_ms`, so the ledger sums to the op.
    fn datapoint(&mut self, led: &mut Ledger) {
        let (tr, work) = (self.tr, self.work);
        let cfg = self.cfg.clone();
        let mut sums = BTreeMap::new();
        let (mut kernels, mut source_bytes, mut ops_lowered, mut host_launches) = (0, 0, 0, 0);
        let (mut reset_total, mut residual_total) = (0.0, 0.0);
        println!("ledger (ms)  app        op = consolidate + engine_new + install + prepare + first reset + later resets + residual");
        for (a, app) in work.apps.iter().enumerate() {
            tr.next_op();
            let before = sums.clone();
            let model = app.tune_model().expect("every app is tunable");
            let knobs = Self::grid_knobs(app.as_ref());
            let dir = materialize_directive(&model, &knobs);
            timed(tr, &mut sums, "core.analyze_us", || {
                analyze(&model.module_dp, model.parent, &dir)
            })
            .expect("default directive analyzes");
            let cons = timed(tr, &mut sums, "core.consolidate_us", || {
                consolidate(&model.module_dp, model.parent, &dir, &cfg.gpu, None)
            })
            .expect("default directive consolidates");
            kernels += cons.module.kernels.len();
            source_bytes += module_to_string(&cons.module).len();
            let cm = timed(tr, &mut sums, "ir.compile_us", || compile_module(&cons.module))
                .expect("consolidated module compiles");
            let lowered = timed(tr, &mut sums, "ir.lower_us", || lower_module(&cm));
            ops_lowered += lowered.iter().map(|k| k.op_count()).sum::<usize>();
            let mut engine = timed(tr, &mut sums, "sim.engine_new_us", || {
                Engine::new(cfg.gpu.clone(), AllocKind::PreAlloc, cfg.heap_words)
            });
            let ids = timed(tr, &mut sums, "ir.install_us", || install(&mut engine, &cons.module))
                .expect("consolidated module installs");
            let words = cfg.pool_words as usize;
            let pool = timed(tr, &mut sums, "sim.pool_alloc_us", || {
                engine.mem.alloc_array("probe_pool", words)
            });
            timed(tr, &mut sums, "sim.pool_fill_us", || engine.mem.fill(pool, 0))
                .expect("pool exists");
            // Argument values do not matter to the cost of preparing a launch.
            let params = model.module_dp.get(model.parent).expect("parent kernel").params.len();
            let mut prep = timed(tr, &mut sums, "core.prepare_launch_us", || {
                prepare_launch(
                    &mut engine,
                    &cons.info,
                    &ids,
                    &vec![0; params],
                    (1, 32),
                    cfg.pool_words,
                )
            })
            .expect("launch prepares");
            // The first reset of a session touches the fresh pool pages (unless
            // preparing a recursive launch already did); later ones do not.
            let (first, first_reset) =
                tr.time("core.first_reset_us", || reset_launch(&mut engine, &mut prep));
            first.expect("launch resets");
            reset_launch(&mut engine, &mut prep).expect("launch resets");
            timed(tr, &mut sums, "core.reset_launch_us", || reset_launch(&mut engine, &mut prep))
                .expect("launch resets");
            drop(engine);

            if self.entry_launches.len() == a {
                let out = app
                    .run(
                        Variant::ConsolidatedTuned,
                        &RunConfig { capture: true, ..candidate_config(&cfg, &knobs) },
                    )
                    .expect("grid-level run succeeds");
                let caps = out.captures.expect("capture was requested");
                let entry = ids[&cons.info.entry];
                let n = caps.launches.iter().filter(|l| l[0].spec.kernel == entry).count();
                self.entry_launches.push(n as u64);
                host_launches += out.report.host_launches;
            }
            let n = self.entry_launches[a] as f64;
            let expected = &work.refs[a];
            let (status, op) = tr.time("tune.candidate_ms", || {
                candidate_cycles(app.as_ref(), &cfg, &knobs, expected)
            });
            if let Err(e) = status {
                self.incorrect.push(format!("{} grid datapoint: {e:?}", app.name()));
            }
            let d = |name: &str| sums[name] - before.get(name).copied().unwrap_or(0.0);
            let stages = d("core.consolidate_us")
                + d("sim.engine_new_us")
                + d("ir.install_us")
                + d("core.prepare_launch_us");
            let reset = first_reset + (n - 1.0) * d("core.reset_launch_us");
            let residual = op - stages - reset;
            println!(
                "             {:<9} {:8.3} = {:7.3} + {:7.3} + {:7.3} + {:7.3} + {:7.3} + {:>3} x {:6.3} + {:8.3}",
                app.name(),
                op * 1e3,
                d("core.consolidate_us") * 1e3,
                d("sim.engine_new_us") * 1e3,
                d("ir.install_us") * 1e3,
                d("core.prepare_launch_us") * 1e3,
                first_reset * 1e3,
                n - 1.0,
                d("core.reset_launch_us") * 1e3,
                residual * 1e3
            );
            led.time(run_ms_name(a), op * 1e3);
            *sums.entry("tune.candidate_ms").or_insert(0.0) += op;
            reset_total += reset;
            residual_total += residual;
        }
        let apps = work.apps.len() as f64;
        for (name, total) in &sums {
            led.time(name, in_unit(name, total / apps));
        }
        led.time("apps.run_residual_ms", residual_total / apps * 1e3);
        led.time("core.reset_share", reset_total / sums["tune.candidate_ms"]);
        led.count("core.cons_kernels", kernels as f64);
        led.count("core.cons_source_bytes", source_bytes as f64);
        led.count("ir.ops_lowered", ops_lowered as f64);
        if host_launches > 0 {
            led.count("apps.host_launches", host_launches as f64);
        }
    }

    /// Basic-dp on each functional executor, then serial and batched timing
    /// replay of what was captured. All three executors must agree.
    fn executors_and_replay(&mut self, led: &mut Ledger) {
        let (tr, work) = (self.tr, self.work);
        let cfg = RunConfig { capture: true, ..self.cfg.clone() };
        let mut sums = BTreeMap::new();
        let mut captures = Vec::new();
        let (mut cycles, mut kernels, mut device_launches, mut dram) = (0, 0, 0, 0);
        let mut basic_cycles = Vec::new();
        for (a, app) in work.apps.iter().enumerate() {
            tr.next_op();
            let mut run = |name: &'static str| {
                let out = timed(tr, &mut sums, name, || app.run(Variant::BasicDp, &cfg))
                    .unwrap_or_else(|e| panic!("{} basic-dp run failed: {e}", app.name()));
                if out.output != work.refs[a] {
                    self.incorrect
                        .push(format!("{} basic-dp under {name}: wrong output", app.name()));
                }
                out
            };
            let out = run("ir.exec_ms.bytecode");
            set_fusion_override(Some(false));
            let unfused = run("ir.exec_ms.unfused");
            set_fusion_override(None);
            let ambient = engine_override();
            set_engine_override(Some(ExecEngine::Tree));
            let tree = run("ir.exec_ms.tree");
            set_engine_override(ambient);
            if unfused.report != out.report || tree.report != out.report {
                self.incorrect.push(format!("{}: executors disagree on the profile", app.name()));
            }
            cycles += out.report.total_cycles;
            kernels += out.report.kernels_executed;
            device_launches += out.report.device_launches;
            dram += out.report.dram_transactions;
            basic_cycles.push(out.report.total_cycles);
            captures.push(out.captures.expect("capture was requested"));
        }
        for caps in &captures {
            tr.next_op();
            let serial = timed(tr, &mut sums, "sim.replay_ms", || caps.replay_on(&cfg.gpu));
            let dags: Vec<&[ExecRecord]> = caps.launches.iter().map(|l| l.as_slice()).collect();
            let many = timed(tr, &mut sums, "tune.replay_many_ms", || {
                merge_reports(&replay_timing_many(&cfg.gpu, &dags))
            });
            if serial.total_cycles != many.total_cycles {
                self.incorrect.push("serial and batched replay disagree".to_string());
            }
        }
        let apps = work.apps.len() as f64;
        for (name, total) in &sums {
            led.time(name, in_unit(name, total / apps));
        }
        led.time("ir.exec_kernels_per_s", kernels as f64 / sums["ir.exec_ms.bytecode"]);
        led.time("sim.replay_kernels_per_s", kernels as f64 / sums["sim.replay_ms"]);
        led.time("tune.replay_many_speedup_x", sums["sim.replay_ms"] / sums["tune.replay_many_ms"]);
        led.count("sim.cycles", cycles as f64);
        led.count("sim.kernels", kernels as f64);
        led.count("sim.device_launches", device_launches as f64);
        led.count("sim.dram_transactions", dram as f64);

        // Simulated figures of the consolidated code: block level under
        // halloc (the allocator path) beside the grid-level default.
        let (mut alloc_ops, mut eff, mut occ, mut log_speedup) = (0, 0.0, 0.0, 0.0);
        for (a, app) in work.apps.iter().enumerate() {
            let model = app.tune_model().expect("every app is tunable");
            let block =
                Knobs { alloc: AllocKind::Halloc, ..default_knobs(&model, Granularity::Block) };
            let mut best = u64::MAX;
            for k in [block, Self::grid_knobs(app.as_ref())] {
                let out = app
                    .run(Variant::ConsolidatedTuned, &candidate_config(&self.cfg, &k))
                    .unwrap_or_else(|e| panic!("{} {} failed: {e}", app.name(), k.label()));
                if out.output != work.refs[a] {
                    self.incorrect.push(format!("{} {}: wrong output", app.name(), k.label()));
                }
                best = best.min(out.report.total_cycles);
                if k == block {
                    alloc_ops += out.report.alloc_ops;
                    eff += out.report.warp_exec_efficiency / apps;
                    occ += out.report.achieved_occupancy / apps;
                }
            }
            log_speedup += (basic_cycles[a] as f64 / best as f64).ln() / apps;
        }
        led.count("sim.alloc_ops", alloc_ops as f64);
        led.count("sim.warp_exec_efficiency", eff);
        led.count("sim.achieved_occupancy", occ);
        // The paper's headline ratio under this model, which is not
        // validated against hardware: no error figure can be given.
        led.count("sim.cons_speedup_geomean_x", log_speedup.exp());
    }

    /// The sweep pipelines and their parts, at scale S.
    fn sweeps(&mut self, led: &mut Ledger) {
        let (tr, small) = (self.tr, self.small);
        let cfg = self.cfg.clone();
        let space = KnobSpace::quick(cfg.gpu.num_sms);
        let mut sums = BTreeMap::new();
        let (mut enumerated, mut pruned, mut evaluated, mut faults) = (0, 0, 0, 0);
        let mut serial = 0.0;
        let mut last_report: Option<TuneReport> = None;
        for (a, app) in small.apps.iter().enumerate() {
            tr.next_op();
            let app = app.as_ref();
            let model = app.tune_model().expect("every app is tunable");
            timed(tr, &mut sums, "tune.fingerprint_us", || fingerprint(app));
            let (cands, _) =
                timed(tr, &mut sums, "tune.enumerate_us", || enumerate_candidates(&model, &space));
            let reasons = timed(tr, &mut sums, "tune.prune_us", || {
                cands.iter().filter(|k| prune_reason(&model, &cfg, k).is_some()).count()
            });
            enumerated += cands.len();
            pruned += reasons;
            let opts = TuneOptions {
                base: cfg.clone(),
                space: space.clone(),
                budget: sweep_budget(),
                with_baselines: false,
                cache: None,
            };
            let report = timed(tr, &mut sums, "tune.sweep_ms", || tune(app, &opts))
                .unwrap_or_else(|e| panic!("{} sweep failed: {e}", app.name()));
            let fleet_opts = FleetOptions {
                base: cfg.clone(),
                space: space.clone(),
                budget: sweep_budget(),
                fleet: fleet(),
                cache: None,
            };
            timed(tr, &mut sums, "tune.fleet_sweep_ms", || fleet_sweep(app, &fleet_opts))
                .unwrap_or_else(|e| panic!("{} fleet sweep failed: {e}", app.name()));
            // The same candidates one after another: what the waves saved.
            for c in &report.candidates {
                if matches!(c.status, Status::Evaluated(_)) || c.status.is_fault() {
                    let started = Instant::now();
                    let _ = dpcons::tune::evaluate_candidate(app, &cfg, &c.knobs, &small.refs[a]);
                    serial += started.elapsed().as_secs_f64();
                }
            }
            evaluated += report.evaluated;
            faults += report.fault_count();
            last_report = Some(report);
        }
        let apps = small.apps.len() as f64;
        for (name, total) in &sums {
            led.time(name, in_unit(name, total / apps));
        }
        led.time("tune.candidates_per_s", evaluated as f64 / sums["tune.sweep_ms"]);
        led.time("tune.wave_speedup_x", serial / sums["tune.sweep_ms"]);
        led.count("tune.pruned_share", pruned as f64 / enumerated as f64);
        led.count("tune.failed_candidates", faults as f64);

        // Report text and the disk cache, write beside read.
        let report = last_report.expect("seven sweeps ran");
        let (text, secs) = tr.time("tune.report_render_us", || report.to_text());
        led.time("tune.report_render_us", secs * 1e6);
        let (parsed, secs) = tr.time("tune.report_parse_us", || TuneReport::from_text(&text));
        led.time("tune.report_parse_us", secs * 1e6);
        if parsed.ok().as_ref() != Some(&report) {
            self.incorrect.push("tune report does not survive a text round trip".to_string());
        }
        let dir = trace::out_dir().expect("benchmark/out is writable").join("cache");
        let cache = Cache::new(Some(dir.clone()));
        let (_, secs) = tr.time("tune.cache_put_us", || cache.put(report.key, &report));
        led.time("tune.cache_put_us", secs * 1e6);
        Cache::clear_memory();
        let (hit, secs) = tr.time("tune.cache_get_us", || cache.get(report.key));
        led.time("tune.cache_get_us", secs * 1e6);
        if hit.as_ref() != Some(&report) {
            self.incorrect.push("tune report does not survive the disk cache".to_string());
        }
        Cache::clear_memory();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Cost of the program's own instrumentation primitives.
    fn obs(&self, led: &mut Ledger) {
        let per_call = |n: u32, f: &dyn Fn()| {
            let started = Instant::now();
            for _ in 0..n {
                f();
            }
            started.elapsed().as_secs_f64() * 1e9 / f64::from(n)
        };
        led.time("obs.span_off_ns", per_call(200_000, &|| drop(dpcons::obs::span("bench.probe"))));
        dpcons::obs::set_tracing(true);
        // Fewer than the ring holds, so none is dropped.
        led.time("obs.span_on_ns", per_call(10_000, &|| drop(dpcons::obs::span("bench.probe"))));
        dpcons::obs::set_tracing(false);
        dpcons::obs::take_spans();
        let counter = dpcons::obs::counter("bench.probe");
        led.time("obs.counter_inc_ns", per_call(200_000, &|| counter.inc()));
    }

    /// A short request list against the daemon, and the daemon's fixed costs.
    fn serve(&mut self, seed: u64, led: &mut Ledger) {
        let tr = self.tr;
        let mut mix = ServeMix::setup(seed, 1, 1);
        let round = workloads::Load::round(&mut mix, tr, true);
        self.incorrect.extend(round.incorrect);
        let mut by_class: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut acks = Vec::new();
        for s in &mix.last {
            let class = mix.mix.keys[s.key].1;
            by_class.entry(class_span(class)).or_default().push(s.total.as_secs_f64() * 1e3);
            acks.push(s.ack.as_secs_f64() * 1e3);
        }
        for (name, samples) in &by_class {
            led.time(name, median(samples));
        }
        led.time("serve.submit_ack_ms", median(&acks));
        let deduped = mix.last.iter().filter(|s| s.deduped).count();
        led.count("serve.dedup_share", deduped as f64 / mix.last.len() as f64);
        led.count("serve.stream_events", mix.last.iter().map(|s| s.events).sum::<usize>() as f64);
        led.count("serve.jobs_failed", round.failed as f64);

        // What the service adds to a cold tune request: the same sweep
        // in-process, subtracted from that request's latency.
        let cold = mix
            .last
            .iter()
            .find(|s| mix.mix.keys[s.key].1 == ReqClass::TuneCold)
            .expect("the list has tune requests");
        let spec = &mix.mix.specs[mix.mix.keys[cold.key].0];
        let (_, direct) = tr.time("tune.sweep_ms", || ServeMix::in_process(spec));
        led.time("serve.overhead_ms", (cold.total.as_secs_f64() - direct) * 1e3);

        let body = format!("{{\"app\":\"{}\",\"device\":\"k20c\"}}", APP_NAMES[spec.app]);
        let (parsed, secs) = tr.time("serve.parse_request_us", || {
            parse_request(JobKind::Tune, &body, &Limits::default())
        });
        parsed.expect("well-formed request parses");
        led.time("serve.parse_request_us", secs * 1e6);

        let server = workloads::boot();
        let client = Client::new(server.addr().to_string());
        let rtts: Vec<f64> = (0..20)
            .map(|_| {
                let (ok, secs) = tr.time("serve.http_rtt_ms", || client.healthz());
                ok.expect("healthz answers");
                secs * 1e3
            })
            .collect();
        led.time("serve.http_rtt_ms", median(&rtts));
        server.shutdown().expect("daemon drains");
    }
}

fn run_ms_name(app: usize) -> &'static str {
    let name = format!("apps.run_ms.{}", APP_NAMES[app]);
    PER_LAYER.iter().map(|m| m.name).find(|n| *n == name).expect("declared per-app metric")
}

/// The traced run: every per-layer metric of one workload.
pub fn run_traced(w: &Workload, seed: u64, seconds: f64) -> Outcome {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let tr = Tracer::new(true);
    let mut led = Ledger::default();

    // The workload's own ops: a warm-up round, two rounds under the
    // benchmark's spans, and one more with the program's tracing on.
    let (mut load, _) = workloads::setup(w, seed, false);
    let warm = load.round(&Tracer::new(false), true);
    let mut incorrect = warm.incorrect;
    let (mut attempted, mut failed) = (0, 0);
    let mut traced_wall = Vec::new();
    for _ in 0..2 {
        let round = load.round(&tr, false);
        attempted += round.samples.len() as u64;
        failed += round.failed;
        incorrect.extend(round.incorrect);
        traced_wall.push(round.wall_s);
    }
    let own_spans = tr.spans();
    dpcons::obs::take_spans();
    dpcons::obs::set_tracing(true);
    let round = load.round(&Tracer::new(false), false);
    dpcons::obs::set_tracing(false);
    led.count("obs.spans_dropped", dpcons::obs::dropped_spans() as f64);
    let program_spans = dpcons::obs::take_spans();
    led.count("obs.spans_recorded", program_spans.len() as f64);
    led.time("obs.trace_overhead_pct", (round.wall_s / median(&traced_wall) - 1.0) * 100.0);
    let (text, secs) =
        tr.time("obs.chrome_export_ms", || dpcons::obs::chrome_trace_json(&program_spans));
    led.time("obs.chrome_export_ms", secs * 1e3);
    if let Err(e) = dpcons::obs::validate_chrome_trace(&text) {
        incorrect.push(format!("the program's own trace is malformed: {e}"));
    }
    drop(load);

    println!("own ops, self time by layer over 2 traced rounds (ms):");
    for (layer, ms) in trace::layer_self_ms(&own_spans) {
        println!("             {layer:<10} {ms:10.3}");
    }

    // Probe passes until the time is used; at least one.
    let work = inputs::build(w.scale, seed, 0);
    let small = if w.scale == Scale::S { None } else { Some(inputs::build(Scale::S, seed, 0)) };
    for inputs in [Some(&work), small.as_ref()].into_iter().flatten() {
        led.time("workloads.gen_ms", inputs.gen_ms);
        led.time("workloads.reference_ms", inputs.reference_ms);
    }
    led.count("workloads.nodes", work.nodes as f64);
    led.count("workloads.edges", work.edges as f64);
    let mut probe = Probe {
        work: &work,
        small: small.as_ref().unwrap_or(&work),
        cfg: RunConfig::default(),
        tr: &tr,
        entry_launches: Vec::new(),
        incorrect: Vec::new(),
    };
    let mut passes = 0;
    loop {
        let started = Instant::now();
        probe.datapoint(&mut led);
        probe.executors_and_replay(&mut led);
        probe.sweeps(&mut led);
        probe.obs(&mut led);
        probe.serve(seed, &mut led);
        passes += 1;
        if Instant::now() + started.elapsed() > deadline {
            break;
        }
    }
    incorrect.extend(probe.incorrect);
    incorrect.extend(led.drifted.iter().map(|d| format!("count changed between passes: {d}")));
    for msg in &incorrect {
        eprintln!("INCORRECT {msg}");
    }

    match trace::write_chrome_trace(w.name, &tr.spans()) {
        Ok(n) => println!("trace: {n} spans in benchmark/out/trace-{}.json", w.name),
        Err(e) => incorrect.push(format!("trace file: {e}")),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let (value, note) = match (led.timings.get(m.name), led.counts.get(m.name)) {
                (Some(samples), _) => {
                    (median(samples), format!("median of {} samples", samples.len()))
                }
                (None, Some(&count)) => (count, format!("same in all {passes} passes")),
                (None, None) => panic!("no probe fed `{}`", m.name),
            };
            (m.name, value, note)
        })
        .collect();
    Outcome { correct: incorrect.is_empty(), attempted, failed, metrics }
}
