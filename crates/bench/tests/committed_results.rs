//! Pins simulation results to the committed figure data.
//!
//! The other engine tests compare the simulator with itself: dense
//! against event engine, one worker count against another. A change to
//! the issue walk both engines share passes all of them. These tests rerun
//! two fig10 benchmarks under all three models at the figure's seed and
//! demand the cycles and memory digest recorded in
//! `results/fig10_overall.json`. `cnv2_3` releases barriers in the middle
//! of an issue walk; `BC_1k` issues sparse atomics with long drains.
//!
//! The models' own counters are pinned too, since the models bump them
//! from their hooks: the DAB runs must reproduce their
//! `results/fig15_overheads.json` `main` rows, and the GPUDet runs their
//! mode-cycle and quantum counts.
//!
//! Two idle-heavy DAB kernels pin the engine's own activity counters to
//! the `det` blocks of `BENCH_engine.json`: how many cycles the event
//! wheel skipped, how many SMs, schedulers and partitions it visited, and
//! how many events a full trace records. The dense engine, both trace
//! levels and the span profiler must reproduce their cycles and digest.

use dab::{DabConfig, DabModel};
use dab_bench::Runner;
use dab_workloads::bc::bc_trace;
use dab_workloads::graph::Graph;
use dab_workloads::microbench::{atomic_sum_grid, OUTPUT_ADDR};
use dab_workloads::scale::Scale;
use dab_workloads::suite::full_suite;
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use obs::json::Json;

const FIG10: &str = include_str!("../../../results/fig10_overall.json");
const FIG15: &str = include_str!("../../../results/fig15_overheads.json");
const BENCH_ENGINE: &str = include_str!("../../../BENCH_engine.json");

/// The DAB counters fig15's `main` table reports, by column.
const DAB_COUNTERS: [(&str, &str); 4] = [
    ("flushes", "det.dab.flushes"),
    ("flush cycles", "det.dab.flush_cycles"),
    ("buffer-full stalls", "det.stall.atomic_buffer_full"),
    ("fused ops", "det.dab.fused_ops"),
];

/// The GPUDet counters, and their values in the fig10 GPUDet runs. No
/// committed file holds these counts (fig03 reports only the mode shares),
/// so they are pinned here.
const GPUDET_COUNTERS: [&str; 4] = [
    "det.gpudet.parallel_cycles",
    "det.gpudet.commit_cycles",
    "det.gpudet.serial_cycles",
    "det.gpudet.quanta",
];
const GPUDET_RUNS: [(&str, [u64; 4]); 2] = [
    ("cnv2_3", [2949, 150, 14751, 3]),
    ("BC_1k", [47547, 16750, 64284, 335]),
];

/// The committed `(seed, cycles, digest)` of the fig10 run `label`.
fn committed(label: &str) -> (u64, u64, String) {
    let doc = Json::parse(FIG10).expect("results/fig10_overall.json parses");
    let run = doc
        .get("runs")
        .and_then(Json::as_arr)
        .expect("fig10 has a runs array")
        .iter()
        .find(|r| r.get("label").and_then(Json::as_str) == Some(label))
        .unwrap_or_else(|| panic!("no run {label:?} in results/fig10_overall.json"));
    let num = |name: &str| {
        run.get(name)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{label}: no numeric {name}")) as u64
    };
    let digest = run
        .get("digest")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{label}: no digest"));
    (num("seed"), num("cycles"), digest.to_string())
}

/// The committed fig15 `main` row of benchmark `name`: the value of each
/// [`DAB_COUNTERS`] column.
fn committed_fig15(name: &str) -> [u64; 4] {
    let doc = Json::parse(FIG15).expect("results/fig15_overheads.json parses");
    let main = doc
        .get("tables")
        .and_then(Json::as_arr)
        .expect("fig15 has a tables array")
        .iter()
        .find(|t| t.get("title").and_then(Json::as_str) == Some("main"))
        .expect("fig15 has a main table");
    let cells = |v: &Json| -> Vec<String> {
        v.as_arr()
            .expect("a table row is an array")
            .iter()
            .map(|c| c.as_str().expect("table cells are strings").to_string())
            .collect()
    };
    let header = cells(main.get("header").expect("fig15 main has a header"));
    let row = main
        .get("rows")
        .and_then(Json::as_arr)
        .expect("fig15 main has rows")
        .iter()
        .map(cells)
        .find(|r| r[0] == name)
        .unwrap_or_else(|| panic!("no fig15 main row {name:?}"));
    DAB_COUNTERS.map(|(column, _)| {
        let i = header.iter().position(|h| h == column).expect("column");
        row[i].parse().expect("a count")
    })
}

/// Checks the model counters of `report`, the `model` run of `name`.
fn check_model_counters(name: &str, model: &str, report: &RunReport) {
    let (keys, want) = match model {
        "dab" => (DAB_COUNTERS.map(|(_, key)| key), committed_fig15(name)),
        "gpudet" => {
            let (_, pinned) = GPUDET_RUNS
                .iter()
                .find(|(run, _)| *run == name)
                .expect("pinned GPUDet run");
            (GPUDET_COUNTERS, *pinned)
        }
        _ => return,
    };
    let got = keys.map(|key| report.stats.counter(key));
    assert_eq!(got, want, "{name}/{model}: counters {keys:?} drifted");
}

/// Runs benchmark `name` of the CI-scale suite under baseline, DAB
/// (`paper_default`) and GPUDet, and checks each against fig10 and the
/// model counters.
fn check_against_fig10(name: &str) {
    let runner = Runner::at_scale(Scale::Ci);
    let suite = full_suite(Scale::Ci);
    let bench = suite
        .iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("no benchmark {name} in the CI suite"));
    let reports = [
        ("baseline", runner.baseline(&bench.kernels)),
        (
            "dab",
            runner.dab(DabConfig::paper_default(), &bench.kernels),
        ),
        ("gpudet", runner.gpudet(&bench.kernels)),
    ];
    for (model, report) in reports {
        let label = format!("{name}/{model}");
        let (seed, cycles, digest) = committed(&label);
        assert_eq!(seed, runner.seed, "{label}: fig10 ran at another seed");
        assert_eq!(
            report.cycles(),
            cycles,
            "{label}: cycles drifted from fig10"
        );
        assert_eq!(
            format!("0x{:016x}", report.digest()),
            digest,
            "{label}: memory digest drifted from fig10"
        );
        check_model_counters(name, model, &report);
    }
}

#[test]
fn cnv2_3_matches_committed_fig10() {
    check_against_fig10("cnv2_3");
}

#[test]
fn bc_1k_matches_committed_fig10() {
    check_against_fig10("BC_1k");
}

/// Runs `kernels` under DAB `paper_default` on the CI machine at seed 1,
/// with `setup` applied to the configuration.
fn run_dab(kernels: &[KernelGrid], setup: impl FnOnce(&mut GpuConfig)) -> RunReport {
    let mut cfg = Scale::Ci.gpu();
    setup(&mut cfg);
    let model = DabModel::new(&cfg, DabConfig::paper_default());
    GpuSim::new(cfg, Box::new(model), NdetSource::seeded(1)).run(kernels)
}

/// The committed `det` block of `BENCH_engine.json` workload `name`.
fn committed_engine_det(name: &str) -> Vec<(String, Json)> {
    let doc = Json::parse(BENCH_ENGINE).expect("BENCH_engine.json parses");
    let workload = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCH_engine.json has a workloads array")
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        .unwrap_or_else(|| panic!("no workload {name:?} in BENCH_engine.json"));
    match workload.get("det") {
        Some(Json::Obj(fields)) => fields.clone(),
        _ => panic!("{name}: no det object in BENCH_engine.json"),
    }
}

/// Runs `kernels` on the event engine untraced, traced at both levels and
/// profiled, and on the dense engine; checks that all five agree on cycles
/// and digest and that the counters match `name`'s committed `det` block.
fn check_against_bench_engine(name: &str, kernels: &[KernelGrid]) {
    let event = run_dab(kernels, |cfg| cfg.engine = EngineKind::Event);
    let outcome = |r: &RunReport| (r.cycles(), r.digest());
    let dense = run_dab(kernels, |cfg| cfg.engine = EngineKind::Dense);
    assert_eq!(outcome(&dense), outcome(&event), "{name}: dense vs event");
    let summary = run_dab(kernels, |cfg| cfg.trace = obs::TraceMode::Summary);
    assert_eq!(outcome(&summary), outcome(&event), "{name}: summary trace");
    let full = run_dab(kernels, |cfg| cfg.trace = obs::TraceMode::Full);
    assert_eq!(outcome(&full), outcome(&event), "{name}: full trace");
    let profiled = run_dab(kernels, |cfg| cfg.profile = true);
    assert_eq!(outcome(&profiled), outcome(&event), "{name}: profiler");
    assert!(profiled.profile.is_some(), "{name}: no phase profile");

    let engine = |key: &str| Json::from(event.stats.counter(&format!("det.engine.{key}")));
    let traced = |key: &str| Json::from(full.stats.counter(&format!("det.obs.{key}")));
    let got = [
        ("cycles", Json::from(event.cycles())),
        ("digest", Json::from(format!("0x{:016x}", event.digest()))),
        ("cycles_skipped", engine("cycles_skipped")),
        ("wakeup_events", engine("wakeup_events")),
        ("sms_ticked", engine("sms_ticked")),
        ("scheduler_scans", engine("scheduler_scans")),
        ("partitions_ticked", engine("partitions_ticked")),
        ("trace_events_full", traced("trace_events")),
        ("trace_samples_full", traced("samples")),
    ]
    .map(|(key, value)| (key.to_string(), value));
    assert_eq!(
        got.as_slice(),
        committed_engine_det(name),
        "{name}: det block drifted from BENCH_engine.json"
    );
}

#[test]
fn atomic_sum_64k_matches_committed_bench_engine() {
    let kernels = [atomic_sum_grid(65536, OUTPUT_ADDR)];
    check_against_bench_engine("atomic_sum_64k", &kernels);
}

#[test]
fn bc_uniform_96_matches_committed_bench_engine() {
    let (kernels, _) = bc_trace(&Graph::uniform(96, 256, 7), "u96", 20.0);
    check_against_bench_engine("bc_uniform_96", &kernels);
}
