//! One pass of one workload: generate its inputs, run its simulations,
//! write its results, then check every output. A pass runs in a child
//! process of its own (see `main.rs`), so its peak RSS is its own.
//!
//! Every layer is timed from outside, around the public call into it:
//! the `dab_workloads` generators, `GpuSim::new`/`GpuSim::run` (or
//! `Sweep::run_with_workers` for the sweep workload), and
//! `ResultsSink::write`. Engine phases come from `RunReport::profile`,
//! which the traced pass switches on through `GpuConfig::profile`.
//! Every host time is scaled to the reference host speed by the probes
//! taken between the timed pieces (see [`crate::speed`]).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dab::{DabConfig, DabModel};
use dab_bench::{geomean, ResultsSink, Runner, Sweep, SweepJob, Table};
use dab_workloads::bc::{bc_trace_with_budget, sigma_addr};
use dab_workloads::conv::{conv_trace, layer_by_name};
use dab_workloads::graph::{brandes_sigma, table2_configs, Graph};
use dab_workloads::microbench::{atomic_sum_grid, reference_sum, OUTPUT_ADDR};
use dab_workloads::pagerank::pagerank_trace_with_pki;
use dab_workloads::scale::Scale;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::{GpuSim, KernelStatics, RunReport};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpu_sim::stats::SimStats;
use gpudet::{GpuDetConfig, GpuDetModel};
use obs::Phase;

use crate::speed::Speed;
use crate::stats::quantile;

/// Seeds per pass of the `seed_sweep` workload, starting at `--seed`.
const SWEEP_SEEDS: u64 = 24;

/// Seeds per sweep of the `seed_sweep` workload: a pass submits its 96
/// jobs as four sweeps of 24, so that host-speed probes fall between
/// them (see [`crate::speed`]).
const SWEEP_CHUNK_SEEDS: usize = 6;

/// The four workloads, each chosen to load different layers (see the
/// README for the rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AtomicDense,
    GraphSparse,
    ConvDense,
    SeedSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::AtomicDense,
        Workload::GraphSparse,
        Workload::ConvDense,
        Workload::SeedSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AtomicDense => "atomic_dense",
            Workload::GraphSparse => "graph_sparse",
            Workload::ConvDense => "conv_dense",
            Workload::SeedSweep => "seed_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmarks and model variants of one pass: every benchmark
    /// runs under every model (`seed_sweep` repeats that per seed).
    fn plan(self) -> (&'static [&'static str], &'static [Model]) {
        use Model::*;
        match self {
            Workload::AtomicDense => (
                &["atomic_sum_64k", "atomic_sum_256k", "PRK_coA"],
                &[Baseline, Dab, DabNoFusion],
            ),
            Workload::GraphSparse => (
                &["BC_CNR", "BC_ama", "BC_fol", "BC_FA"],
                &[Baseline, Dab, DabFlushHeavy],
            ),
            Workload::ConvDense => (&["cnv3_1", "cnv2_2", "cnv4_2"], &[Baseline, Dab, GpuDet]),
            Workload::SeedSweep => (&["BC_1k", "cnv2_3"], &[Baseline, Dab]),
        }
    }

    /// Timing seeds of one pass at `--seed` `seed`.
    fn seeds(self, seed: u64) -> std::ops::Range<u64> {
        match self {
            Workload::SeedSweep => seed..seed + SWEEP_SEEDS,
            _ => seed..seed + 1,
        }
    }

    /// Simulations in one pass.
    pub fn sims(self) -> usize {
        let (benches, models) = self.plan();
        benches.len() * models.len() * self.seeds(0).count()
    }

    /// Worker threads running the pass's simulations: `seed_sweep`
    /// submits its sweeps to [`sweep_workers`], the others run their
    /// simulations one after another.
    pub fn workers(self) -> usize {
        match self {
            Workload::SeedSweep => sweep_workers(),
            _ => 1,
        }
    }
}

/// Worker threads of the `seed_sweep` sweep: 2, or 1 on a one-CPU host.
pub fn sweep_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Execution-model variants the workloads run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Model {
    Baseline,
    /// DAB at the paper's default design point (GWAT, 64 entries, fusion
    /// and coalescing on).
    Dab,
    DabNoFusion,
    /// Fig. 12's flush-heavy point: 32 entries, no fusion, no coalescing.
    DabFlushHeavy,
    GpuDet,
}

/// Execution-model families: host time and slowdowns are per family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Baseline,
    Dab,
    GpuDet,
}

const FAMILIES: [Family; 3] = [Family::Baseline, Family::Dab, Family::GpuDet];

impl Family {
    fn name(self) -> &'static str {
        match self {
            Family::Baseline => "baseline",
            Family::Dab => "dab",
            Family::GpuDet => "gpudet",
        }
    }
}

impl Model {
    fn name(self) -> &'static str {
        match self {
            Model::Baseline => "baseline",
            Model::Dab => "dab",
            Model::DabNoFusion => "dab_nofusion",
            Model::DabFlushHeavy => "dab_c32_nf_nc",
            Model::GpuDet => "gpudet",
        }
    }

    fn family(self) -> Family {
        match self {
            Model::Baseline => Family::Baseline,
            Model::Dab | Model::DabNoFusion | Model::DabFlushHeavy => Family::Dab,
            Model::GpuDet => Family::GpuDet,
        }
    }

    fn build(self, gpu: &GpuConfig) -> Box<dyn ExecutionModel> {
        let dab = |cfg: DabConfig| -> Box<dyn ExecutionModel> {
            cfg.validate().expect("invalid DAB design point");
            Box::new(DabModel::new(gpu, cfg))
        };
        match self {
            Model::Baseline => Box::new(BaselineModel::new()),
            Model::Dab => dab(DabConfig::paper_default()),
            Model::DabNoFusion => dab(DabConfig::paper_default().with_fusion(false)),
            Model::DabFlushHeavy => dab(DabConfig::paper_default()
                .with_capacity(32)
                .with_fusion(false)
                .with_coalescing(false)),
            Model::GpuDet => Box::new(GpuDetModel::new(gpu, GpuDetConfig::default())),
        }
    }
}

/// One generated benchmark: its kernels plus what its output check needs.
struct Input {
    name: &'static str,
    kernels: Vec<KernelGrid>,
    /// Elements of an `atomic_sum` reduction, checked against
    /// `reference_sum`.
    sum_n: Option<usize>,
    /// The BC graph, whose `sigma` is checked against `brandes_sigma`.
    graph: Option<Graph>,
}

/// Builds a benchmark exactly as the figure suite does at `Scale::Ci`,
/// so its seed-1 cycles and digests match `results/fig10_overall.json`.
fn generate(name: &'static str) -> Input {
    let mut input = Input {
        name,
        kernels: Vec::new(),
        sum_n: None,
        graph: None,
    };
    let sum_n = match name {
        "atomic_sum_64k" => Some(65_536),
        "atomic_sum_256k" => Some(262_144),
        _ => None,
    };
    if let Some(n) = sum_n {
        input.kernels = vec![atomic_sum_grid(n, OUTPUT_ADDR)];
        input.sum_n = Some(n);
    } else if let Some((bench, graph_name)) = name
        .split_once('_')
        .filter(|(b, _)| *b == "BC" || *b == "PRK")
    {
        let cfg = table2_configs()
            .into_iter()
            .find(|c| c.name == graph_name && c.benchmark == bench)
            .unwrap_or_else(|| panic!("no Table II graph for {name}"));
        let graph = cfg.build(Scale::Ci);
        if bench == "PRK" {
            // Two iterations, as `graph_suite` runs PageRank at CI scale.
            input.kernels = pagerank_trace_with_pki(&graph, cfg.name, 2, cfg.target_pki).0;
        } else {
            // The CI-scale instruction budget of `graph_suite`.
            input.kernels = bc_trace_with_budget(&graph, cfg.name, cfg.target_pki, 25_000_000).0;
            input.graph = Some(graph);
        }
    } else {
        let layer = layer_by_name(name).unwrap_or_else(|| panic!("no Table III layer {name}"));
        input.kernels = vec![conv_trace(&layer, Scale::Ci)];
    }
    input
}

/// What the output checks read from a simulation's final memory before
/// the memory is dropped.
enum Probe {
    None,
    /// The `atomic_sum` output cell.
    Sum(f32),
    /// `sigma` of every node.
    Sigma(Vec<f32>),
}

/// One finished simulation.
struct SimOut {
    bench: &'static str,
    model: Model,
    seed: u64,
    cycles: u64,
    digest: u64,
    /// `RunReport::wall`, at the reference speed.
    wall_s: f64,
    /// The speed scale of the piece the simulation ran in.
    scale: f64,
    stats: SimStats,
    profile: Option<obs::PhaseProfile>,
    probe: Probe,
}

impl SimOut {
    fn new(input: &Input, model: Model, seed: u64, report: &RunReport, scale: f64) -> Self {
        let probe = if input.sum_n.is_some() {
            Probe::Sum(report.values.read_f32(OUTPUT_ADDR))
        } else if let Some(g) = &input.graph {
            Probe::Sigma(
                (0..g.num_nodes())
                    .map(|v| report.values.read_f32(sigma_addr(v)))
                    .collect(),
            )
        } else {
            Probe::None
        };
        Self {
            bench: input.name,
            model,
            seed,
            cycles: report.cycles(),
            digest: report.digest(),
            wall_s: report.wall_secs() * scale,
            scale,
            stats: report.stats.clone(),
            profile: report.profile.clone(),
            probe,
        }
    }

    /// Profiled host time of `phase` at the reference speed (traced
    /// passes only).
    fn phase_s(&self, phase: Phase) -> Option<f64> {
        let p = self.profile.as_ref()?;
        Some(p.total(phase).as_secs_f64() * self.scale)
    }
}

/// Everything one pass reports. Crosses the process boundary as text
/// lines (see [`PassOutput::to_lines`]).
#[derive(Debug, Default, PartialEq)]
pub struct PassOutput {
    /// Simulations attempted.
    pub attempted: usize,
    /// Simulations that panicked or failed a check.
    pub failed: usize,
    /// One line per failure, naming the simulation and the cause.
    pub causes: Vec<String>,
    /// This pass's value of every metric it measured.
    pub metrics: BTreeMap<String, f64>,
    /// `(label, cycles, digest)` of every simulation, in plan order.
    pub sims: Vec<(String, u64, u64)>,
    /// Inclusive span durations in seconds, keyed by `;`-joined path
    /// (traced passes only).
    pub spans: Vec<(String, f64)>,
}

impl PassOutput {
    /// A pass that produced nothing: every simulation counts as failed.
    pub fn lost(workload: Workload, cause: String) -> Self {
        let n = workload.sims();
        Self {
            attempted: n,
            failed: n,
            causes: vec![format!("{}: pass lost: {cause}", workload.name())],
            ..Self::default()
        }
    }

    /// Serializes the pass for the parent process.
    pub fn to_lines(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for c in &self.causes {
            out.push_str(&format!("cause {}\n", c.replace('\n', " | ")));
        }
        for (k, v) in &self.metrics {
            out.push_str(&format!("metric {k} {v}\n"));
        }
        for (label, cycles, digest) in &self.sims {
            out.push_str(&format!("sim {label} {cycles} {digest:#018x}\n"));
        }
        for (path, secs) in &self.spans {
            out.push_str(&format!("span {path} {secs}\n"));
        }
        out
    }

    /// Parses [`to_lines`](Self::to_lines) output, skipping any other
    /// line (the results sink announces its file on stdout).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for line in text.lines() {
            let bad = || format!("malformed pass line {line:?}");
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let fields: Vec<&str> = rest.split(' ').collect();
            match (tag, fields.as_slice()) {
                ("attempted", [n]) => out.attempted = n.parse().map_err(|_| bad())?,
                ("failed", [n]) => out.failed = n.parse().map_err(|_| bad())?,
                ("cause", _) => out.causes.push(rest.to_string()),
                ("metric", [k, v]) => {
                    out.metrics
                        .insert(k.to_string(), v.parse().map_err(|_| bad())?);
                }
                ("sim", [label, cycles, digest]) => out.sims.push((
                    label.to_string(),
                    cycles.parse().map_err(|_| bad())?,
                    parse_hex(digest).ok_or_else(bad)?,
                )),
                ("span", [path, secs]) => {
                    out.spans
                        .push((path.to_string(), secs.parse().map_err(|_| bad())?));
                }
                _ => {}
            }
        }
        if out.attempted == 0 {
            return Err("the pass reported no simulations".to_string());
        }
        Ok(out)
    }
}

/// Parses `0x`-prefixed hex.
pub fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// `(bench, model) -> (cycles, digest)` at seed 1.
pub type Goldens = BTreeMap<(String, String), (u64, u64)>;

/// Parses `goldens.txt`: one `bench model cycles 0xdigest` per line;
/// blank lines and `#` comments are skipped.
pub fn parse_goldens(text: &str) -> Result<Goldens, String> {
    let mut out = Goldens::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || {
            format!(
                "goldens line {}: want `bench model cycles 0xdigest`, got {line:?}",
                i + 1
            )
        };
        let [bench, model, cycles, digest] = line.split_whitespace().collect::<Vec<_>>()[..] else {
            return Err(bad());
        };
        let value = (
            cycles.parse().map_err(|_| bad())?,
            parse_hex(digest).ok_or_else(bad)?,
        );
        if out
            .insert((bench.to_string(), model.to_string()), value)
            .is_some()
        {
            return Err(format!(
                "goldens line {}: {bench} {model} listed twice",
                i + 1
            ));
        }
    }
    Ok(out)
}

/// The committed goldens.
pub fn goldens() -> Goldens {
    parse_goldens(include_str!("../goldens.txt")).expect("goldens.txt is well-formed")
}

/// Seconds since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The message of a caught panic.
fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The engine phase behind each per-layer phase metric (trace
/// bookkeeping phases are left out: they run only with `DAB_TRACE`).
const PHASE_METRICS: [(Phase, &str); 13] = [
    (Phase::Prepare, "engine.prepare_s"),
    (Phase::CommitSerial, "engine.commit_serial_s"),
    (Phase::CommitParallel, "engine.commit_parallel_s"),
    (Phase::CommitClassify, "engine.commit_classify_s"),
    (Phase::Dispatch, "engine.dispatch_s"),
    (Phase::Merge, "engine.merge_s"),
    (Phase::ModelTick, "engine.model_tick_s"),
    (Phase::Wakes, "engine.model_wakes_s"),
    (Phase::Wheel, "engine.wheel_s"),
    (Phase::Locks, "engine.locks_s"),
    (Phase::Partitions, "mem.partitions_s"),
    (Phase::Icnt, "mem.icnt_s"),
    (Phase::Responses, "mem.responses_s"),
];

/// Host-time measurements of one pass, in seconds at the reference speed
/// (see [`crate::speed`]).
#[derive(Default)]
struct Timings {
    /// The whole pass: generation, simulations and results write, without
    /// the probes between them.
    pass: f64,
    gen: f64,
    /// Model construction plus `GpuSim::new`, summed over simulations.
    /// The sweep builds its simulators on its workers, inside the batch,
    /// so for the sweep workload they are built and timed once more
    /// stand-alone after the pass (outside `pass`).
    construct: f64,
    /// The batch of simulations: the serial loop, or the sweep chunks.
    batch: f64,
    write: f64,
}

/// Runs one pass. `goldens` is `None` only while regenerating them.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    traced: bool,
    goldens: Option<&Goldens>,
) -> PassOutput {
    let mut runner = Runner::from_env();
    assert_eq!(
        runner.scale,
        Scale::Ci,
        "dab_benchmark runs at DAB_SCALE=ci only"
    );
    runner.seed = seed;
    runner.gpu.profile = traced;
    let gpu = runner.gpu.clone();
    let (benches, models) = workload.plan();
    let name = workload.name();
    let mut out = PassOutput {
        attempted: workload.sims(),
        ..PassOutput::default()
    };
    let mut t = Timings::default();
    let mut sims: Vec<SimOut> = Vec::with_capacity(workload.sims());
    let mut sink = ResultsSink::new(format!("dab_benchmark_{name}"), &runner);

    let mut speed = Speed::start();
    let gen = speed.time(|| benches.iter().map(|&b| generate(b)).collect::<Vec<Input>>());
    let inputs = gen.value;
    t.gen = gen.secs;
    if workload == Workload::SeedSweep {
        let seeds: Vec<u64> = workload.seeds(seed).collect();
        for chunk in seeds.chunks(SWEEP_CHUNK_SEEDS) {
            let mut sweep = Sweep::new(&runner);
            let mut plan = Vec::new();
            for &s in chunk {
                for input in &inputs {
                    for &m in models {
                        let label = format!("{}/{}/s{s}", input.name, m.name());
                        sweep
                            .push(SweepJob::new(label, m.build(&gpu), &input.kernels).with_seed(s));
                        plan.push((input, m, s));
                    }
                }
            }
            let jobs = plan.len();
            let run = speed.time(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    sweep.run_with_workers(workload.workers())
                }))
            });
            t.batch += run.secs;
            match run.value {
                Ok(results) => {
                    sink.sweep(&results);
                    for ((input, m, s), r) in plan.into_iter().zip(results.runs()) {
                        sims.push(SimOut::new(input, m, s, &r.report, run.scale));
                    }
                }
                Err(p) => {
                    out.failed += jobs;
                    out.causes.push(format!(
                        "{name}: a sweep of seeds {chunk:?} panicked: {}",
                        panic_cause(p.as_ref())
                    ));
                }
            }
        }
    } else {
        for input in &inputs {
            for &m in models {
                let mut construct = 0.0;
                let run = speed.time(|| {
                    catch_unwind(AssertUnwindSafe(|| {
                        let started = Instant::now();
                        let sim = GpuSim::new(gpu.clone(), m.build(&gpu), NdetSource::seeded(seed));
                        construct = secs(started);
                        sim.run(&input.kernels)
                    }))
                });
                t.batch += run.secs;
                t.construct += construct * run.scale;
                match run.value {
                    Ok(report) => sims.push(SimOut::new(input, m, seed, &report, run.scale)),
                    Err(p) => {
                        out.failed += 1;
                        let cause = panic_cause(p.as_ref());
                        out.causes
                            .push(format!("{}/{}: panicked: {cause}", input.name, m.name()));
                    }
                }
            }
        }
    }
    let with_seed = workload == Workload::SeedSweep;
    let label = |s: &SimOut| match with_seed {
        true => format!("{}/{}/s{}", s.bench, s.model.name(), s.seed),
        false => format!("{}/{}", s.bench, s.model.name()),
    };
    let write = speed.time(|| {
        let mut table = Table::new(&["run", "cycles", "digest", "run_s"]);
        for s in &sims {
            table.row(vec![
                label(s),
                s.cycles.to_string(),
                format!("{:#018x}", s.digest),
                format!("{:.4}", s.wall_s),
            ]);
        }
        sink.table("runs", &table).write();
    });
    t.write = write.secs;
    t.pass = t.gen + t.batch + t.write;
    out.metrics.insert("host.wall_s".into(), speed.raw_secs());
    if workload == Workload::SeedSweep {
        let construct = speed.time(|| {
            for s in workload.seeds(seed) {
                for _ in &inputs {
                    for &m in models {
                        let sim = GpuSim::new(gpu.clone(), m.build(&gpu), NdetSource::seeded(s));
                        drop(std::hint::black_box(sim));
                    }
                }
            }
        });
        t.construct = construct.secs;
    }

    out.metrics.insert("peak_rss_mb".into(), peak_rss_mb());
    out.sims = sims
        .iter()
        .map(|s| (label(s), s.cycles, s.digest))
        .collect();
    out.metrics.insert("setup_s".into(), t.gen + t.construct);
    out.metrics.insert("workloads.gen_s".into(), t.gen);
    out.metrics.insert("gpu_sim.new_s".into(), t.construct);
    if !sims.is_empty() {
        record_metrics(&mut out.metrics, workload, &t, &sims);
    }
    if traced {
        record_statics(&mut out.metrics, &mut speed, &gpu, &inputs, &sims);
        out.spans = spans(workload, &t, &sims);
    }
    out.metrics.insert("host.speed".into(), speed.relative());
    check(&mut out, &inputs, &sims, goldens, label);
    out
}

/// The pass's end-to-end and per-layer metrics (all but those the
/// standalone traced measurements add).
fn record_metrics(m: &mut BTreeMap<String, f64>, workload: Workload, t: &Timings, sims: &[SimOut]) {
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    let mut total = SimStats::default();
    for s in sims {
        total.merge(&s.stats);
    }
    let family_total = |f: Family| {
        let mut st = SimStats::default();
        for s in sims.iter().filter(|s| s.model.family() == f) {
            st.merge(&s.stats);
        }
        st
    };
    let run_s: f64 = sims.iter().map(|s| s.wall_s).sum();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    put("pass_s", t.pass);
    put("warp_instrs_per_s", total.warp_instrs as f64 / t.pass);
    put("sim_cycles", total.cycles as f64);
    put("dab_slowdown", slowdown(sims, Family::Dab));
    put("gpudet_slowdown", slowdown(sims, Family::GpuDet));

    let workers = workload.workers() as f64;
    let jobs: Vec<f64> = sims.iter().map(|s| s.wall_s).collect();
    put("sweep.overhead_s", t.batch - run_s / workers);
    put("sweep.parallel_eff", run_s / (t.batch * workers));
    put("sweep.job_p50_s", quantile(&jobs, 0.5));
    put("sweep.job_p90_s", quantile(&jobs, 0.9));
    put("gpu_sim.run_s", run_s);
    put("results.write_s", t.write);
    for f in FAMILIES {
        // Folded from +0.0: an empty `sum()` of floats is -0.0.
        let fam_s = sims
            .iter()
            .filter(|s| s.model.family() == f)
            .fold(0.0, |acc, s| acc + s.wall_s);
        put(&format!("model.{}.share", f.name()), fam_s / run_s);
    }
    put(
        "engine.ns_per_warp_instr",
        run_s * 1e9 / total.warp_instrs.max(1) as f64,
    );
    for (phase, metric) in PHASE_METRICS {
        let phase_s: Option<f64> = sims.iter().map(|s| s.phase_s(phase)).sum();
        if let Some(v) = phase_s {
            put(metric, v);
        }
    }

    let c = |k: &str| total.counter(k);
    put("rop.ops", c("det.rop.ops") as f64);
    put(
        "rop.fill_stall_cycles",
        c("det.rop.fill_stall_cycles") as f64,
    );
    put("dram.accesses", c("det.dram.accesses") as f64);
    put("mem.l1_miss_rate", total.l1_miss_rate());
    put("mem.l2_miss_rate", total.l2_miss_rate());
    put("icnt.packets_routed", c("det.icnt.packets_routed") as f64);
    put(
        "engine.skip_ratio",
        ratio(c("det.engine.cycles_skipped"), total.cycles),
    );
    put(
        "engine.cycles_skipped",
        c("det.engine.cycles_skipped") as f64,
    );
    put("engine.sms_ticked", c("det.engine.sms_ticked") as f64);
    put(
        "engine.partitions_ticked",
        c("det.engine.partitions_ticked") as f64,
    );

    let dab = family_total(Family::Dab);
    let d = |k: &str| dab.counter(k);
    put("dab.flushes", d("det.dab.flushes") as f64);
    put("dab.flush_txs", d("det.dab.flush_txs") as f64);
    put("dab.fused_ops", d("det.dab.fused_ops") as f64);
    put(
        "dab.fusion_ratio",
        ratio(d("det.dab.fused_ops"), dab.atomics),
    );
    put(
        "dab.entries_per_tx",
        ratio(d("det.dab.flush_entries"), d("det.dab.flush_txs")),
    );
    put(
        "dab.buffer_full_stalls",
        d("det.stall.atomic_buffer_full") as f64,
    );
    let det = family_total(Family::GpuDet);
    let g = |k: &str| det.counter(k);
    let modes = g("det.gpudet.parallel_cycles")
        + g("det.gpudet.commit_cycles")
        + g("det.gpudet.serial_cycles");
    put(
        "gpudet.serial_share",
        ratio(g("det.gpudet.serial_cycles"), modes),
    );
    put("gpudet.quanta", g("det.gpudet.quanta") as f64);
}

/// Geometric mean of `family` cycles over baseline cycles of the same
/// benchmark and seed; 0 when the pass runs no such pair.
fn slowdown(sims: &[SimOut], family: Family) -> f64 {
    let ratios: Vec<f64> = sims
        .iter()
        .filter(|s| s.model.family() == family)
        .filter_map(|s| {
            let base = sims
                .iter()
                .find(|b| b.model == Model::Baseline && b.bench == s.bench && b.seed == s.seed)?;
            Some(s.cycles as f64 / base.cycles as f64)
        })
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        geomean(&ratios)
    }
}

/// `KernelStatics::build` of every simulation's kernels, timed stand-alone
/// by the traced pass (the engine builds them inside `GpuSim::run`).
fn record_statics(
    m: &mut BTreeMap<String, f64>,
    speed: &mut Speed,
    gpu: &GpuConfig,
    inputs: &[Input],
    sims: &[SimOut],
) {
    let statics: Vec<(&str, f64)> = inputs
        .iter()
        .map(|input| {
            let built = speed.time(|| {
                for k in &input.kernels {
                    std::hint::black_box(KernelStatics::build(gpu, k));
                }
            });
            (input.name, built.secs)
        })
        .collect();
    let per_sim = |s: &SimOut| {
        statics
            .iter()
            .find(|(b, _)| *b == s.bench)
            .map_or(0.0, |x| x.1)
    };
    m.insert("gpu_sim.statics_s".into(), sims.iter().map(per_sim).sum());
    let share_max = sims
        .iter()
        .map(|s| per_sim(s) / s.wall_s)
        .fold(0.0, f64::max);
    m.insert("gpu_sim.statics_share_max".into(), share_max);
}

/// The traced pass's spans, inclusive durations keyed by path: workload
/// → layer call → model family → engine phase. Sweep jobs overlap on
/// the workers, so their spans are divided by the worker count and sum
/// to the sweep's wall minus its overhead.
fn spans(workload: Workload, t: &Timings, sims: &[SimOut]) -> Vec<(String, f64)> {
    let root = workload.name();
    let mut out = vec![
        (root.to_string(), t.pass),
        (format!("{root};workloads.gen"), t.gen),
        (format!("{root};results.write"), t.write),
    ];
    let (run_root, scale) = if workload == Workload::SeedSweep {
        out.push((format!("{root};sweep"), t.batch));
        (
            format!("{root};sweep;gpu_sim.run"),
            1.0 / workload.workers() as f64,
        )
    } else {
        out.push((format!("{root};gpu_sim.new"), t.construct));
        (format!("{root};gpu_sim.run"), 1.0)
    };
    out.push((
        run_root.clone(),
        scale * sims.iter().map(|s| s.wall_s).sum::<f64>(),
    ));
    for f in FAMILIES {
        let fam: Vec<&SimOut> = sims.iter().filter(|s| s.model.family() == f).collect();
        if fam.is_empty() {
            continue;
        }
        let fam_root = format!("{run_root};{}", f.name());
        out.push((
            fam_root.clone(),
            scale * fam.iter().map(|s| s.wall_s).sum::<f64>(),
        ));
        for (phase, metric) in PHASE_METRICS {
            let phase_s: f64 = fam.iter().filter_map(|s| s.phase_s(phase)).sum();
            let frame = metric.strip_suffix("_s").unwrap_or(metric);
            out.push((format!("{fam_root};{frame}"), scale * phase_s));
        }
    }
    out
}

/// Relative closeness, as `tests/correctness.rs` checks it.
fn close(got: f32, want: f32, rel: f32) -> bool {
    (got - want).abs() <= want.abs().max(1.0) * rel
}

/// Checks every simulation against the goldens and the host references,
/// counting each failing simulation once.
fn check(
    out: &mut PassOutput,
    inputs: &[Input],
    sims: &[SimOut],
    goldens: Option<&Goldens>,
    label: impl Fn(&SimOut) -> String,
) {
    // `sigma` per node, for nodes off the BFS source with paths to them.
    let sigma_refs: Vec<Option<Vec<(usize, f32)>>> = inputs
        .iter()
        .map(|input| {
            let g = input.graph.as_ref()?;
            // The source `bc_trace_with_budget` picks: highest out-degree.
            let source = (0..g.num_nodes())
                .max_by_key(|&u| g.degree(u))
                .expect("BC graphs are non-empty");
            let levels = g.bfs_levels(source);
            let sigma = brandes_sigma(g, &levels);
            let reached = |v: &usize| levels[*v] != 0 && levels[*v] != u32::MAX && sigma[*v] > 0.0;
            Some(
                (0..g.num_nodes())
                    .filter(reached)
                    .map(|v| (v, sigma[v]))
                    .collect(),
            )
        })
        .collect();
    for s in sims {
        let mut causes = Vec::new();
        if let Some(goldens) = goldens {
            match goldens.get(&(s.bench.to_string(), s.model.name().to_string())) {
                None => causes.push("no golden entry".to_string()),
                Some(&(cycles, digest)) => {
                    if s.model.family() != Family::Baseline && s.digest != digest {
                        causes.push(format!(
                            "digest {:#018x} differs from the seed-1 golden {digest:#018x}: \
                             deterministic models must give one result at every seed",
                            s.digest
                        ));
                    } else if s.seed == 1 && (s.cycles, s.digest) != (cycles, digest) {
                        causes.push(format!(
                            "cycles {} digest {:#018x} differ from the golden {cycles} {digest:#018x}",
                            s.cycles, s.digest
                        ));
                    }
                }
            }
        }
        let input = inputs
            .iter()
            .position(|i| i.name == s.bench)
            .expect("sims come from inputs");
        match (&s.probe, inputs[input].sum_n, &sigma_refs[input]) {
            (Probe::Sum(got), Some(n), _) => {
                let want = reference_sum(n);
                if !close(*got, want, 1e-4) {
                    causes.push(format!("atomic sum {got} is not within 1e-4 of {want}"));
                }
            }
            (Probe::Sigma(got), _, Some(want)) => {
                if let Some(&(v, w)) = want.iter().find(|&&(v, w)| !close(got[v], w, 0.01)) {
                    causes.push(format!("sigma[{v}] = {} is not within 1% of {w}", got[v]));
                }
            }
            _ => {}
        }
        if !causes.is_empty() {
            out.failed += 1;
            out.causes
                .push(format!("{}: {}", label(s), causes.join("; ")));
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (outside Linux);
/// the parent then counts the pass as lost.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("peak RSS is read from VmHWM in /proc/self/status (Linux only)");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goldens_parse_and_reject_malformed_lines() {
        let g = parse_goldens("# comment\n\natomic_sum_64k dab 3269 0xe88d0f3e5effc624\n").unwrap();
        assert_eq!(
            g.get(&("atomic_sum_64k".to_string(), "dab".to_string())),
            Some(&(3269, 0xe88d0f3e5effc624))
        );
        assert!(parse_goldens("a dab 12\n").is_err());
        assert!(parse_goldens("a dab x 0x1\n").is_err());
        assert!(parse_goldens("a dab 1 e88d\n").is_err());
        assert!(parse_goldens("a dab 1 0x1\na dab 2 0x2\n").is_err());
    }

    #[test]
    fn committed_goldens_cover_every_planned_simulation() {
        let g = goldens();
        for w in Workload::ALL {
            let (benches, models) = w.plan();
            for b in benches {
                for m in models {
                    assert!(
                        g.contains_key(&(b.to_string(), m.name().to_string())),
                        "{b} {}",
                        m.name()
                    );
                }
            }
        }
    }

    /// Every golden that `results/fig10_overall.json` (same machine, seed
    /// 1) or `BENCH_engine.json` also records must agree with it.
    #[test]
    fn goldens_match_committed_results() {
        let fig10 = include_str!("../../../../../results/fig10_overall.json");
        let mut shared = 0;
        for ((bench, model), &(cycles, digest)) in &goldens() {
            let key = format!("\"label\": \"{bench}/{model}\",");
            let Some(line) = fig10.lines().find(|l| l.contains(&key)) else {
                continue;
            };
            let want = format!("\"cycles\": {cycles}, \"digest\": \"{digest:#018x}\"");
            assert!(
                line.contains(&want),
                "{bench}/{model}: golden {want} vs fig10 {line}"
            );
            shared += 1;
        }
        // PRK_coA, the four BC graphs and BC_1k under baseline and DAB;
        // the three conv layers under all three models; cnv2_3 under two.
        assert_eq!(shared, 23, "goldens shared with fig10_overall.json");
        let engine = include_str!("../../../../../BENCH_engine.json");
        let golden = goldens()[&("atomic_sum_64k".to_string(), "dab".to_string())];
        assert_eq!(golden, (3269, 0xe88d0f3e5effc624));
        assert!(engine.contains("\"cycles\": 3269, \"digest\": \"0xe88d0f3e5effc624\""));
    }

    #[test]
    fn pass_output_round_trips_through_lines() {
        let mut p = PassOutput {
            attempted: 9,
            failed: 1,
            causes: vec!["x/dab: panicked: boom\nat line 2".to_string()],
            ..PassOutput::default()
        };
        p.metrics.insert("pass_s".into(), 1.25);
        p.sims
            .push(("atomic_sum_64k/dab".into(), 3269, 0xe88d0f3e5effc624));
        p.spans.push(("atomic_dense;workloads.gen".into(), 0.5));
        let text = format!("results: somewhere.json\n{}", p.to_lines());
        let back = PassOutput::parse(&text).unwrap();
        assert_eq!(
            back.causes,
            vec!["x/dab: panicked: boom | at line 2".to_string()]
        );
        assert_eq!((back.attempted, back.failed), (9, 1));
        assert_eq!(
            (back.metrics, back.sims, back.spans),
            (p.metrics, p.sims, p.spans)
        );
        assert!(PassOutput::parse("metric pass_s 1\n").is_err());
        assert!(PassOutput::parse("attempted 1\nmetric pass_s x\n").is_err());
    }

    #[test]
    fn workload_plans_have_the_documented_sizes() {
        let sizes: Vec<usize> = Workload::ALL.iter().map(|w| w.sims()).collect();
        assert_eq!(sizes, vec![9, 12, 9, 96]);
        assert_eq!(Workload::parse("conv_dense"), Some(Workload::ConvDense));
        assert_eq!(Workload::parse("nope"), None);
    }
}
