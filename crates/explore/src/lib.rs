//! Deterministic schedule-space exploration (`dab-explore`).
//!
//! The simulator's only nondeterminism is a handful of arbitration
//! tie-breaks: dynamic-dispatch rotation and crossbar rotation draws
//! (latency jitter is pinned to zero under an oracle-driven
//! [`NdetSource`]; see [`gpu_sim::oracle`]). Replacing the seeded PRNG
//! with a replayable [`ScheduleOracle`] turns every run into a pure
//! function of its **decision trace** — and the schedule space into an
//! enumerable tree that a stateless model checker can walk:
//!
//! 1. Run the *canonical* schedule (every decision `0`).
//! 2. For every logged decision that was **eligible** — the site reported
//!    that a different value would change the machine's immediate next
//!    action — branch: re-run with the trace prefix up to that decision
//!    forced and the decision flipped to each alternative value.
//! 3. Recurse on each branch, de-duplicating outcomes by the run's
//!    [`digest`](gpu_sim::values::ValueMem::digest) (final memory plus
//!    every observed atomic return).
//!
//! Ineligible decisions are *effect classes*: every value produces the
//! same immediate transition, and since the run is a deterministic
//! function of the decision values, the continuations are identical too —
//! pruning them loses no reachable outcome. This is the sleep-set-style
//! reduction that keeps the walk strictly below the naive
//! `∏ domain` bound.
//!
//! The static analyzer supplies a second, stronger pruning level:
//! a kernel whose happens-before graph has **zero hazard choice points**
//! ([`HbGraph::hazard_choice_points`]) is proven single-class before any
//! simulation runs — every unordered access pair is order-invariant under
//! the execution model's guarantees. For those benchmarks the explorer
//! runs the canonical schedule once and cross-checks with a configurable
//! number of *record-mode* runs (random draws at eligible sites, same
//! pinned-jitter space) so the static claim is never accepted vacuously.
//!
//! Everything is deterministic: the DFS order, the class map (keyed by
//! digest), the JSON rendering, and — because all draws happen in the
//! engine's serial commit phase — the results are byte-identical across
//! repeated runs.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use analysis::hbgraph::HbGraph;
use dab::{DabConfig, DabModel};
use dab_workloads::suite::Benchmark;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpu_sim::oracle::{Decision, ScheduleOracle};
use obs::json::Json;

/// Default DFS budget (simulator runs) per racy benchmark.
pub const DEFAULT_BUDGET: usize = 24;
/// Default record-mode verification runs per hazard-free benchmark.
pub const DEFAULT_VERIFY: usize = 8;

/// Which execution model to explore under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Deterministic atomic buffering (the paper's design, default).
    Dab,
    /// The non-deterministic baseline GPU.
    Baseline,
}

impl ModelKind {
    /// Parses a `--model` argument.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dab" => Some(ModelKind::Dab),
            "baseline" => Some(ModelKind::Baseline),
            _ => None,
        }
    }

    /// Stable label for output.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Dab => "dab",
            ModelKind::Baseline => "baseline",
        }
    }

    /// Builds the execution model for one run.
    pub fn build(self, gpu: &GpuConfig) -> Box<dyn ExecutionModel> {
        match self {
            ModelKind::Dab => Box::new(DabModel::new(gpu, DabConfig::paper_default())),
            ModelKind::Baseline => Box::new(BaselineModel::new()),
        }
    }

    /// Whether static hazard-freedom implies outcome determinism under
    /// this model. Only DAB honors the analyzer's ordering guarantees;
    /// the baseline commits in raw timing order, so nothing below a
    /// hazard is safe to prune.
    pub fn honors_static_pruning(self) -> bool {
        matches!(self, ModelKind::Dab)
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Machine to simulate.
    pub gpu: GpuConfig,
    /// Execution model under exploration.
    pub model: ModelKind,
    /// Maximum simulator runs per racy benchmark's DFS.
    pub budget: usize,
    /// Record-mode cross-check runs per statically-pruned benchmark.
    pub verify: usize,
    /// Whether zero hazard choice points skips the DFS (on by default;
    /// `--no-static-prune` forces the full walk everywhere).
    pub static_prune: bool,
}

impl ExploreConfig {
    /// Defaults for a machine: DAB model, default budgets, pruning on.
    pub fn new(gpu: GpuConfig) -> Self {
        Self {
            gpu,
            model: ModelKind::Dab,
            budget: DEFAULT_BUDGET,
            verify: DEFAULT_VERIFY,
            static_prune: true,
        }
    }
}

/// One simulated schedule: the digest it produced and the full decision
/// log that identifies it.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Outcome digest (final memory + observed atomic returns).
    pub digest: u64,
    /// Every decision the run drew, in engine commit order.
    pub decisions: Vec<Decision>,
}

fn run_with_oracle(
    gpu: &GpuConfig,
    model: ModelKind,
    kernels: &[KernelGrid],
    oracle: &ScheduleOracle,
) -> RunReport {
    let sim = GpuSim::new(
        gpu.clone(),
        model.build(gpu),
        NdetSource::with_oracle(oracle.clone()),
    );
    sim.run(kernels)
}

/// Runs one schedule: the `forced` decision prefix, canonical (`0`)
/// afterwards. An empty prefix is the canonical schedule.
pub fn run_schedule(
    gpu: &GpuConfig,
    model: ModelKind,
    kernels: &[KernelGrid],
    forced: Vec<u32>,
) -> ScheduleOutcome {
    let oracle = ScheduleOracle::replay(forced);
    let report = run_with_oracle(gpu, model, kernels, &oracle);
    ScheduleOutcome {
        digest: report.digest(),
        decisions: oracle.take_log(),
    }
}

/// Runs one *sampled* schedule: every eligible decision draws from a
/// seeded stream (record mode). Lives in the same pinned-jitter space as
/// [`run_schedule`], so its digest must fall in the enumerated classes.
pub fn run_sampled(
    gpu: &GpuConfig,
    model: ModelKind,
    kernels: &[KernelGrid],
    seed: u64,
) -> ScheduleOutcome {
    let oracle = ScheduleOracle::record(seed);
    let report = run_with_oracle(gpu, model, kernels, &oracle);
    ScheduleOutcome {
        digest: report.digest(),
        decisions: oracle.take_log(),
    }
}

/// Strips the trailing canonical (`0`) values from a decision-value
/// vector: replay pads with `0`, so the stripped vector reproduces the
/// identical schedule and is the shortest forced prefix that does.
fn minimal_prefix(values: &[u32]) -> Vec<u32> {
    let end = values
        .iter()
        .rposition(|&v| v != 0)
        .map(|p| p + 1)
        .unwrap_or(0);
    values[..end].to_vec()
}

/// One outcome equivalence class: all explored schedules that produced
/// the same digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcomeClass {
    /// Shortest forced decision prefix reaching this outcome (replay it
    /// with [`run_schedule`] to reproduce; empty = canonical schedule).
    pub witness: Vec<u32>,
    /// Explored schedules that landed in this class.
    pub runs: u64,
}

/// The exploration result for one benchmark.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Benchmark name.
    pub bench: String,
    /// Hazard choice points in the static happens-before graph.
    pub hazard_choice_points: u64,
    /// Whether static analysis proved a single class (zero hazard choice
    /// points under a model honoring them) and the DFS was skipped.
    pub statically_pruned: bool,
    /// Outcome classes, keyed by digest (deterministic order).
    pub classes: BTreeMap<u64, OutcomeClass>,
    /// Simulator runs performed (canonical + DFS branches + verify).
    pub explored: u64,
    /// Decisions logged by the canonical run.
    pub decision_sites: u64,
    /// Eligible multi-valued decisions in the canonical run (the branch
    /// points the DFS actually expands).
    pub branch_sites: u64,
    /// `log2` of the naive schedule-space bound: `Σ log2(domain)` over
    /// every canonical-run decision, eligible or not. The walk must stay
    /// strictly below this (see [`Self::below_naive_bound`]).
    pub naive_bound_log2: f64,
    /// Whether the DFS stopped because it hit the run budget (the class
    /// list is then a lower bound, not an exhaustive enumeration).
    pub budget_exhausted: bool,
    /// Record-mode cross-check runs performed (statically-pruned path).
    pub verified: u64,
}

impl Exploration {
    /// Whether exactly one outcome class was found.
    pub fn single_class(&self) -> bool {
        self.classes.len() == 1
    }

    /// Whether the schedules explored stayed strictly below the naive
    /// decision-space bound `∏ domain` — the whole point of pruning.
    pub fn below_naive_bound(&self) -> bool {
        (self.explored.max(1) as f64).log2() < self.naive_bound_log2
    }
}

/// Explores one benchmark under `cfg`.
///
/// Statically-single-class benchmarks (zero hazard choice points, model
/// honoring them, pruning enabled) run the canonical schedule plus
/// `cfg.verify` record-mode cross-checks. Everything else gets the
/// budgeted DFS over eligible decision branches.
pub fn explore_bench(cfg: &ExploreConfig, bench: &Benchmark) -> Exploration {
    let hazard_choice_points: u64 = HbGraph::of_benchmark(bench)
        .iter()
        .map(|g| g.hazard_choice_points() as u64)
        .sum();
    let statically_pruned =
        cfg.static_prune && cfg.model.honors_static_pruning() && hazard_choice_points == 0;

    let mut classes: BTreeMap<u64, OutcomeClass> = BTreeMap::new();
    let mut explored = 0u64;
    let mut record = |digest: u64, witness: Vec<u32>| {
        classes
            .entry(digest)
            .or_insert(OutcomeClass { witness, runs: 0 })
            .runs += 1;
    };

    // The canonical schedule seeds both paths and defines the naive bound.
    let canonical = run_schedule(&cfg.gpu, cfg.model, &bench.kernels, Vec::new());
    explored += 1;
    let decision_sites = canonical.decisions.len() as u64;
    let branch_sites = canonical
        .decisions
        .iter()
        .filter(|d| d.eligible && d.domain > 1)
        .count() as u64;
    let naive_bound_log2: f64 = canonical
        .decisions
        .iter()
        .map(|d| (d.domain as f64).log2())
        .sum();
    record(canonical.digest, Vec::new());

    let mut budget_exhausted = false;
    let mut verified = 0u64;
    if statically_pruned {
        for seed in 1..=cfg.verify as u64 {
            let run = run_sampled(&cfg.gpu, cfg.model, &bench.kernels, seed);
            explored += 1;
            verified += 1;
            let values: Vec<u32> = run.decisions.iter().map(|d| d.value).collect();
            record(run.digest, minimal_prefix(&values));
        }
    } else {
        // DFS with default continuation: a node is a forced prefix; its
        // children flip one eligible decision at or beyond the prefix to
        // each alternative value. Every node is pushed exactly once (the
        // child vector ends in a non-zero flip), so the walk is a tree.
        let mut stack: Vec<Vec<u32>> = branch_children(&canonical, 0);
        while let Some(prefix) = stack.pop() {
            if explored >= cfg.budget as u64 {
                budget_exhausted = true;
                break;
            }
            let depth = prefix.len();
            let run = run_schedule(&cfg.gpu, cfg.model, &bench.kernels, prefix);
            explored += 1;
            let values: Vec<u32> = run.decisions.iter().map(|d| d.value).collect();
            record(run.digest, minimal_prefix(&values));
            stack.extend(branch_children(&run, depth));
        }
        budget_exhausted |= !stack.is_empty();
    }

    Exploration {
        bench: bench.name.clone(),
        hazard_choice_points,
        statically_pruned,
        classes,
        explored,
        decision_sites,
        branch_sites,
        naive_bound_log2,
        budget_exhausted,
        verified,
    }
}

/// The child prefixes of a run, branching at every eligible multi-valued
/// decision from position `from` on. Pushed in reverse so the stack pops
/// lowest-position, lowest-value branches first (deterministic DFS
/// order).
fn branch_children(run: &ScheduleOutcome, from: usize) -> Vec<Vec<u32>> {
    let values: Vec<u32> = run.decisions.iter().map(|d| d.value).collect();
    let mut children = Vec::new();
    for (i, d) in run.decisions.iter().enumerate().skip(from) {
        if !d.eligible || d.domain < 2 {
            continue;
        }
        for alt in 0..d.domain {
            if alt == d.value {
                continue;
            }
            let mut child = values[..i].to_vec();
            child.push(alt);
            children.push(child);
        }
    }
    children.reverse();
    children
}

/// A whole-suite exploration.
#[derive(Debug, Clone)]
pub struct SuiteExploration {
    /// Scale label (`ci` / `paper`).
    pub scale: String,
    /// Model explored under.
    pub model: ModelKind,
    /// Per-benchmark results, in suite order.
    pub benches: Vec<Exploration>,
}

impl SuiteExploration {
    /// Explores every benchmark in order.
    pub fn run(cfg: &ExploreConfig, scale: &str, benches: &[Benchmark]) -> Self {
        Self {
            scale: scale.to_string(),
            model: cfg.model,
            benches: benches.iter().map(|b| explore_bench(cfg, b)).collect(),
        }
    }

    /// The JSON document (write it with [`Json::pretty`]; `wall`-free,
    /// so repeated runs produce identical bytes).
    pub fn to_json(&self) -> Json {
        let benches = self.benches.iter().map(|b| {
            let outcomes = b.classes.iter().map(|(digest, class)| {
                Json::obj([
                    ("digest", Json::from(format!("{digest:#018x}"))),
                    ("runs", Json::from(class.runs)),
                    (
                        "witness",
                        Json::Arr(class.witness.iter().map(|&v| Json::from(v)).collect()),
                    ),
                ])
            });
            Json::obj([
                ("name", Json::from(b.bench.as_str())),
                ("hazard_choice_points", Json::from(b.hazard_choice_points)),
                ("statically_pruned", Json::from(b.statically_pruned)),
                ("classes", Json::from(b.classes.len())),
                ("explored", Json::from(b.explored)),
                ("decision_sites", Json::from(b.decision_sites)),
                ("branch_sites", Json::from(b.branch_sites)),
                ("naive_bound_log2", Json::from(b.naive_bound_log2)),
                ("budget_exhausted", Json::from(b.budget_exhausted)),
                ("verified", Json::from(b.verified)),
                ("outcomes", Json::Arr(outcomes.collect())),
            ])
        });
        Json::obj([
            ("scale", Json::from(self.scale.as_str())),
            ("model", Json::from(self.model.label())),
            ("benches", Json::Arr(benches.collect())),
        ])
    }
}

/// Re-runs each outcome class's witness schedule with full event tracing
/// and writes `<dir>/<bench>__class<k>.trace` (the `dab-trace diff`
/// input format). Returns the written paths in class order.
pub fn write_witness_traces(
    cfg: &ExploreConfig,
    bench: &Benchmark,
    result: &Exploration,
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut gpu = cfg.gpu.clone();
    gpu.trace = obs::TraceMode::Full;
    let mut paths = Vec::new();
    for (k, class) in result.classes.values().enumerate() {
        let oracle = ScheduleOracle::replay(class.witness.clone());
        let report = run_with_oracle(&gpu, cfg.model, &bench.kernels, &oracle);
        let trace = report
            .trace
            .as_ref()
            .expect("TraceMode::Full run always records a trace");
        let path = dir.join(format!(
            "{}__class{k}.trace",
            result.bench.replace('/', "__")
        ));
        std::fs::write(&path, trace.to_text())?;
        paths.push(path);
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
    use gpu_sim::kernel::{CtaSpec, KernelGrid};

    /// A minimal atomic-return-race kernel: two CTAs, one warp each,
    /// `lanes` lanes drawing tickets from one cursor word.
    fn tiny_ticket(lanes: usize) -> Benchmark {
        let cta = |c: usize| {
            CtaSpec::new(
                c,
                vec![WarpProgram::new(
                    vec![Instr::Atom {
                        op: AtomicOp::AddU32,
                        accesses: (0..lanes)
                            .map(|l| AtomicAccess::new(l, 0x2000_0000, Value::U32(1)))
                            .collect(),
                    }],
                    lanes,
                )],
            )
        };
        Benchmark {
            name: "tiny_ticket".to_string(),
            family: dab_workloads::suite::Family::Micro,
            kernels: vec![KernelGrid::new("tiny_ticket", vec![cta(0), cta(1)])],
        }
    }

    /// A hazard-free reduction: same shape, `red.add.f32` (unobserved).
    fn tiny_red(lanes: usize) -> Benchmark {
        let cta = |c: usize| {
            CtaSpec::new(
                c,
                vec![WarpProgram::new(
                    vec![Instr::Red {
                        op: AtomicOp::AddF32,
                        accesses: (0..lanes)
                            .map(|l| {
                                let v = dab_workloads::microbench::element_value(c * 32 + l);
                                AtomicAccess::new(l, 0x2000_0000, Value::F32(v))
                            })
                            .collect(),
                    }],
                    lanes,
                )],
            )
        };
        Benchmark {
            name: "tiny_red".to_string(),
            family: dab_workloads::suite::Family::Micro,
            kernels: vec![KernelGrid::new("tiny_red", vec![cta(0), cta(1)])],
        }
    }

    fn tiny_cfg() -> ExploreConfig {
        let mut cfg = ExploreConfig::new(GpuConfig::tiny());
        cfg.budget = 64;
        cfg.verify = 4;
        cfg
    }

    #[test]
    fn canonical_run_logs_eligible_decisions() {
        let cfg = tiny_cfg();
        let b = tiny_ticket(8);
        let run = run_schedule(&cfg.gpu, cfg.model, &b.kernels, Vec::new());
        assert!(!run.decisions.is_empty());
        assert!(
            run.decisions.iter().any(|d| d.eligible && d.domain > 1),
            "two contending CTAs must hit at least one real arbitration choice"
        );
    }

    #[test]
    fn ticket_race_splits_into_classes() {
        let cfg = tiny_cfg();
        let b = tiny_ticket(8);
        let r = explore_bench(&cfg, &b);
        assert!(!r.statically_pruned, "AtomReturnRace is a hazard");
        assert!(r.classes.len() >= 2, "got {} classes", r.classes.len());
        assert!(r.below_naive_bound());
        // Every witness replays to its class digest.
        for (&digest, class) in &r.classes {
            let rerun = run_schedule(&cfg.gpu, cfg.model, &b.kernels, class.witness.clone());
            assert_eq!(rerun.digest, digest);
        }
    }

    #[test]
    fn hazard_free_bench_is_statically_pruned_and_single_class() {
        let cfg = tiny_cfg();
        let r = explore_bench(&cfg, &tiny_red(8));
        assert!(r.statically_pruned);
        assert_eq!(r.verified, cfg.verify as u64);
        assert!(r.single_class(), "DAB must be deterministic here");
        assert!(r.below_naive_bound());
    }

    #[test]
    fn hazard_free_bench_survives_the_full_walk() {
        let mut cfg = tiny_cfg();
        cfg.static_prune = false;
        let r = explore_bench(&cfg, &tiny_red(8));
        assert!(!r.statically_pruned);
        assert!(r.explored > 1, "the DFS must actually branch");
        assert!(r.single_class(), "every schedule converges under DAB");
    }

    #[test]
    fn exploration_is_deterministic() {
        let cfg = tiny_cfg();
        let b = tiny_ticket(8);
        let a = SuiteExploration::run(&cfg, "ci", std::slice::from_ref(&b));
        let c = SuiteExploration::run(&cfg, "ci", std::slice::from_ref(&b));
        assert_eq!(a.to_json().pretty(), c.to_json().pretty());
    }

    #[test]
    fn minimal_prefix_strips_canonical_tail() {
        assert_eq!(minimal_prefix(&[0, 1, 0, 0]), vec![0, 1]);
        assert_eq!(minimal_prefix(&[0, 0]), Vec::<u32>::new());
        assert_eq!(minimal_prefix(&[2]), vec![2]);
    }
}
