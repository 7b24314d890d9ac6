//! Hot-loop comparison of the dense and activity-driven event engine
//! cores (`DAB_ENGINE=dense|event`) on two idle-heavy workloads: the
//! single-cell atomic-reduction microbenchmark and a small BC graph trace.
//!
//! Each engine × workload combination runs the DAB model end to end under
//! the vendored criterion harness, and the event engine additionally runs
//! a `DAB_TRACE` sweep (off/summary/full) plus a `DAB_PROFILE=1` phase-
//! profiler run to price the observability layer. Digests are
//! cross-checked between engines and across trace/profile modes (the
//! bench doubles as an equivalence smoke test), and the measurements are
//! written to `BENCH_engine.json` for the CI artifact, split per workload
//! into a `det` block (bit-stable counters — `dab-perf compare` demands
//! exact equality) and a `wall` block (host timings — compared with a
//! tolerance). The profiled runs' collapsed-stack profile lands in
//! `BENCH_engine.folded` next to it.
//!
//! Simulations take far longer than the stub's 100 ms calibration target,
//! so `CRITERION_ITERS` defaults to 3 here; every reported wall-clock is
//! the minimum over the timed iterations (min-of-3 policy — see
//! [`MIN_REPS`]), and values below 3 in the environment are raised.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use dab::{DabConfig, DabModel};
use dab_bench::geomean;
use dab_workloads::bc::bc_trace;
use dab_workloads::graph::Graph;
use dab_workloads::microbench::{atomic_sum_grid, OUTPUT_ADDR};
use dab_workloads::scale::Scale;
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;

/// One engine × workload measurement: the last run's report and the best
/// (minimum) single-run wall-clock across the timed iterations.
struct Measurement {
    report: RunReport,
    best_secs: f64,
}

/// All measurements for one workload: the engine comparison, the
/// event-engine trace-mode sweep, and the `DAB_PROFILE=1` phase-profiler
/// run.
struct Row {
    name: &'static str,
    dense: Measurement,
    event: Measurement,
    off: Measurement,
    summary: Measurement,
    full: Measurement,
    profiled: Measurement,
}

fn config(engine: EngineKind) -> GpuConfig {
    let mut cfg = Scale::Ci.gpu();
    cfg.engine = engine;
    cfg.commit_shard = gpu_sim::par::commit_shard_from_env();
    cfg
}

fn run(engine: EngineKind, kernels: &[KernelGrid]) -> RunReport {
    run_traced(engine, kernels, obs::TraceMode::Off)
}

fn run_traced(engine: EngineKind, kernels: &[KernelGrid], trace: obs::TraceMode) -> RunReport {
    let mut cfg = config(engine);
    cfg.trace = trace;
    let model = DabModel::new(&cfg, DabConfig::paper_default());
    let sim = GpuSim::new(cfg, Box::new(model), NdetSource::seeded(1));
    sim.run(kernels)
}

fn run_profiled(engine: EngineKind, kernels: &[KernelGrid]) -> RunReport {
    let mut cfg = config(engine);
    cfg.profile = true;
    let model = DabModel::new(&cfg, DabConfig::paper_default());
    let sim = GpuSim::new(cfg, Box::new(model), NdetSource::seeded(1));
    sim.run(kernels)
}

/// The two hot-loop workloads: a serialized atomic reduction (every warp
/// hammers one cell, so most SM cycles are response waits) and a BC trace
/// on a small uniform graph (bursty atomics with long drain phases).
fn workloads() -> Vec<(&'static str, Vec<KernelGrid>)> {
    let atomic = vec![atomic_sum_grid(65536, OUTPUT_ADDR)];
    let graph = Graph::uniform(96, 256, 7);
    let (bc, _) = bc_trace(&graph, "u96", 20.0);
    vec![("atomic_sum_64k", atomic), ("bc_uniform_96", bc)]
}

fn bench_engines(c: &mut Criterion) {
    let mut rows = Vec::new();
    for (name, kernels) in workloads() {
        let mut g = c.benchmark_group(name);
        let mut measured = Vec::new();
        for (label, engine) in [("dense", EngineKind::Dense), ("event", EngineKind::Event)] {
            let mut last: Option<Measurement> = None;
            g.bench_function(label, |b| {
                b.iter(|| {
                    let started = Instant::now();
                    let report = run(engine, &kernels);
                    let secs = started.elapsed().as_secs_f64();
                    let best = last.as_ref().map_or(secs, |m| m.best_secs.min(secs));
                    last = Some(Measurement {
                        report,
                        best_secs: best,
                    });
                });
            });
            measured.push(last.expect("bencher ran at least once"));
        }
        // Phase-profiler run (`DAB_PROFILE=1` equivalent), measured
        // immediately after the unprofiled event run so the overhead
        // ratio pairs the two closest-in-time measurements (host drift
        // over a long benchmark group otherwise biases it). The span
        // profiler is a host-side observation, so cycles and digest must
        // reproduce the unprofiled run exactly.
        let mut profiled_last: Option<Measurement> = None;
        g.bench_function("event_profiled", |b| {
            b.iter(|| {
                let started = Instant::now();
                let report = run_profiled(EngineKind::Event, &kernels);
                let secs = started.elapsed().as_secs_f64();
                let best = profiled_last
                    .as_ref()
                    .map_or(secs, |m| m.best_secs.min(secs));
                profiled_last = Some(Measurement {
                    report,
                    best_secs: best,
                });
            });
        });
        let profiled = profiled_last.expect("bencher ran at least once");
        // Trace-overhead sweep on the event engine: off re-measures the
        // default configuration (bounding the cost of the disabled
        // instrumentation to measurement noise), summary/full measure the
        // recording cost. Tracing is an observation, never a perturbation,
        // so every mode must reproduce the untraced cycles and digest.
        let mut traced = Vec::new();
        for (label, mode) in [
            ("event_trace_off", obs::TraceMode::Off),
            ("event_trace_summary", obs::TraceMode::Summary),
            ("event_trace_full", obs::TraceMode::Full),
        ] {
            let mut last: Option<Measurement> = None;
            g.bench_function(label, |b| {
                b.iter(|| {
                    let started = Instant::now();
                    let report = run_traced(EngineKind::Event, &kernels, mode);
                    let secs = started.elapsed().as_secs_f64();
                    let best = last.as_ref().map_or(secs, |m| m.best_secs.min(secs));
                    last = Some(Measurement {
                        report,
                        best_secs: best,
                    });
                });
            });
            traced.push(last.expect("bencher ran at least once"));
        }
        let [dense, event] = <[Measurement; 2]>::try_from(measured)
            .ok()
            .expect("two engines measured");
        assert_eq!(
            (dense.report.cycles(), dense.report.digest()),
            (event.report.cycles(), event.report.digest()),
            "dense and event engines diverged on {name}"
        );
        for m in &traced {
            assert_eq!(
                (m.report.cycles(), m.report.digest()),
                (event.report.cycles(), event.report.digest()),
                "tracing perturbed the event engine on {name}"
            );
        }
        assert_eq!(
            (profiled.report.cycles(), profiled.report.digest()),
            (event.report.cycles(), event.report.digest()),
            "profiling perturbed the event engine on {name}"
        );
        assert!(
            profiled.report.profile.is_some(),
            "profiled run recorded no phase profile on {name}"
        );
        let [off, summary, full] = <[Measurement; 3]>::try_from(traced)
            .ok()
            .expect("three trace modes measured");
        rows.push(Row {
            name,
            dense,
            event,
            off,
            summary,
            full,
            profiled,
        });
    }
    write_json(&rows);
}

fn write_json(rows: &[Row]) {
    let speedups: Vec<f64> = rows
        .iter()
        .map(|r| r.dense.best_secs / r.event.best_secs.max(1e-12))
        .collect();
    // Overheads are best-vs-best ratios against the untraced event run;
    // the off-mode ratio pairs two measurements of the same configuration,
    // so it reads as 1.0 plus measurement noise.
    let overhead =
        |m: &Measurement, base: &Measurement| m.best_secs / base.best_secs.max(1e-12) - 1.0;
    let mut out = String::from("{\n  \"target\": \"engine_hot_loop\",\n");
    let _ = writeln!(
        out,
        "  \"host\": {{ \"nproc\": {}, \"sim_threads\": {}, \"commit_shard\": {}, \
         \"min_reps\": {} }},",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        gpu_sim::par::sim_threads_from_env(),
        gpu_sim::par::commit_shard_from_env(),
        std::env::var("CRITERION_ITERS").map_or(MIN_REPS, |v| v.parse().unwrap_or(MIN_REPS)),
    );
    out.push_str("  \"workloads\": [");
    for (i, (row, speedup)) in rows.iter().zip(&speedups).enumerate() {
        let stats = &row.event.report.stats;
        let phase = row.event.report.phase_wall.secs();
        let full_stats = &row.full.report.stats;
        let comma = if i + 1 < rows.len() { "," } else { "" };
        // Per-workload values split by namespace, mirroring the SimStats
        // contract: everything under "det" is bit-stable for this scale
        // and seed (dab-perf compares it exactly); everything under
        // "wall" is a host timing (dab-perf applies a tolerance).
        let _ = write!(
            out,
            "\n    {{ \"name\": \"{}\",\n      \
             \"det\": {{ \"cycles\": {}, \"digest\": \"0x{:016x}\",\n        \
             \"cycles_skipped\": {}, \"wakeup_events\": {}, \"sms_ticked\": {}, \
             \"scheduler_scans\": {},\n        \
             \"commit_parallel_cycles\": {}, \"commit_groups\": {}, \
             \"partitions_ticked\": {},\n        \
             \"trace_events_full\": {}, \"trace_samples_full\": {} }},\n      \
             \"wall\": {{ \"dense_secs\": {:.6}, \"event_secs\": {:.6}, \"speedup\": {:.4},\n        \
             \"phase_secs\": {{ \"prepare\": {:.6}, \"commit\": {:.6}, \"merge\": {:.6} }},\n        \
             \"trace_off_overhead\": {:.4}, \"trace_summary_overhead\": {:.4}, \
             \"trace_full_overhead\": {:.4}, \"profile_overhead\": {:.4} }} }}{comma}",
            row.name,
            row.event.report.cycles(),
            row.event.report.digest(),
            stats.counter("det.engine.cycles_skipped"),
            stats.counter("det.engine.wakeup_events"),
            stats.counter("det.engine.sms_ticked"),
            stats.counter("det.engine.scheduler_scans"),
            stats.counter("det.engine.commit_parallel_cycles"),
            stats.counter("det.engine.commit_groups"),
            stats.counter("det.engine.partitions_ticked"),
            full_stats.counter("det.obs.trace_events"),
            full_stats.counter("det.obs.samples"),
            row.dense.best_secs,
            row.event.best_secs,
            speedup,
            phase.0,
            phase.1,
            phase.2,
            overhead(&row.off, &row.event),
            overhead(&row.summary, &row.event),
            overhead(&row.full, &row.event),
            overhead(&row.profiled, &row.event),
        );
    }
    let max_off_overhead = rows
        .iter()
        .map(|r| overhead(&r.off, &r.event))
        .fold(f64::NEG_INFINITY, f64::max);
    let max_profile_overhead = rows
        .iter()
        .map(|r| overhead(&r.profiled, &r.event))
        .fold(f64::NEG_INFINITY, f64::max);
    let _ = write!(
        out,
        "\n  ],\n  \"geomean_speedup\": {:.4},\n  \"max_trace_off_overhead\": {:.4},\n  \
         \"max_profile_overhead\": {:.4}\n}}\n",
        geomean(&speedups),
        max_off_overhead,
        max_profile_overhead,
    );
    let path = json_path();
    match std::fs::write(&path, &out) {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    write_folded(rows);
    println!(
        "engine hot loop: geomean event-engine speedup {:.2}x over dense",
        geomean(&speedups)
    );
}

/// Writes `BENCH_engine.folded` next to the JSON: the collapsed-stack
/// phase profile of each workload's profiled run, frames prefixed by the
/// workload name. Feed it to `dab-trace export --profile` for Perfetto
/// counter tracks or to any flamegraph renderer.
fn write_folded(rows: &[Row]) {
    let mut folded = String::new();
    for row in rows {
        if let Some(profile) = &row.profiled.report.profile {
            folded.push_str(&profile.to_collapsed(row.name));
        }
    }
    let path = json_path().with_file_name("BENCH_engine.folded");
    match std::fs::write(&path, &folded) {
        Ok(()) => println!("profile: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// `BENCH_engine.json` in `DAB_RESULTS_DIR` if set, else the repo root.
fn json_path() -> PathBuf {
    let dir = match std::env::var("DAB_RESULTS_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."),
    };
    dir.join("BENCH_engine.json")
}

/// Repetition policy: every measurement is the minimum of at least
/// `MIN_REPS` timed runs (min-of-3 by default), so the speedups and
/// overheads written to `BENCH_engine.json` reflect the fastest observed
/// execution of a fully deterministic simulation rather than one sample's
/// scheduler/cache luck. A larger `CRITERION_ITERS` is honored; a smaller
/// one is raised to the floor. Runs are deterministic by construction
/// (fixed seeds, no time-dependent state), so repetitions only tighten the
/// wall-clock measurement.
const MIN_REPS: u64 = 3;

fn set_default_iters() {
    let iters = std::env::var("CRITERION_ITERS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(MIN_REPS, |n| n.max(MIN_REPS));
    std::env::set_var("CRITERION_ITERS", iters.to_string());
}

fn benches_entry(c: &mut Criterion) {
    set_default_iters();
    bench_engines(c);
}

criterion_group!(benches, benches_entry);
criterion_main!(benches);
