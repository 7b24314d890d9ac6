//! `dab-explore` — deterministic schedule-space exploration.
//!
//! ```text
//! cargo run --release -p dab-explore -- --suite --json
//! ```
//!
//! Flags:
//!
//! - `--suite` — explore every micro-suite benchmark
//! - `--bench <glob>` — explore matching benchmarks only (repeatable)
//! - `--model dab|baseline` — execution model (default `dab`)
//! - `--budget <n>` — simulator runs per racy benchmark (default 24)
//! - `--verify <n>` — record-mode cross-checks per statically-pruned
//!   benchmark (default 8)
//! - `--json` — also write `results/dab_explore.json`
//! - `--witness-traces <dir>` — write each multi-class benchmark's
//!   per-class witness traces (`dab-trace diff` input)
//! - `--no-static-prune` — run the full DFS even where the analyzer
//!   proves a single class
//! - `--require-racy <glob>` — gate: matching benchmarks must enumerate
//!   at least two outcome classes
//! - `--quiet` — print gate failures only
//!
//! Environment: `DAB_SCALE`, `DAB_ENGINE`, `DAB_RESULTS_DIR`; the retired
//! `DAB_SIM_THREADS` and `DAB_COMMIT_SHARD` accept only `1`. A knob value
//! that is not accepted stops the run before any work, naming the
//! variable. All output is byte-identical across runs.
//!
//! Exit codes: `0` all gates hold; `1` a gate failed (a statically
//! single-class benchmark explored to more than one class, a walk failed
//! to stay below the naive schedule bound, or a `--require-racy`
//! benchmark came back single-class); `2` usage or I/O error (a results
//! or witness-trace write that fails names its path).

use std::path::PathBuf;
use std::process::ExitCode;

use analysis::report::glob_match;
use dab_explore::{ExploreConfig, ModelKind, SuiteExploration};
use dab_workloads::scale::{SCALES, SCALE_VAR};
use dab_workloads::suite::micro_suite;
use gpu_sim::par::{ENGINES, ENGINE_VAR};
use obs::json;

fn usage() -> &'static str {
    "usage: dab-explore (--suite | --bench <glob>...) [--model dab|baseline] \
     [--budget <n>] [--verify <n>] [--json] [--witness-traces <dir>] \
     [--no-static-prune] [--require-racy <glob>] [--quiet]"
}

fn main() -> ExitCode {
    let mut suite = false;
    let mut bench_globs: Vec<String> = Vec::new();
    let mut model = ModelKind::Dab;
    let mut budget = dab_explore::DEFAULT_BUDGET;
    let mut verify = dab_explore::DEFAULT_VERIFY;
    let mut json = false;
    let mut witness_dir: Option<PathBuf> = None;
    let mut static_prune = true;
    let mut require_racy: Vec<String> = Vec::new();
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| match args.next() {
            Some(v) => Ok(v),
            None => {
                eprintln!("{flag} needs a value\n{}", usage());
                Err(ExitCode::from(2))
            }
        };
        match arg.as_str() {
            "--suite" => suite = true,
            "--bench" => match take("--bench") {
                Ok(g) => bench_globs.push(g),
                Err(e) => return e,
            },
            "--model" => match take("--model") {
                Ok(m) => match ModelKind::parse(&m) {
                    Some(m) => model = m,
                    None => {
                        eprintln!("--model must be dab or baseline, got {m:?}\n{}", usage());
                        return ExitCode::from(2);
                    }
                },
                Err(e) => return e,
            },
            "--budget" | "--verify" => match take(&arg) {
                Ok(v) => match obs::env::parse_count(v.trim()) {
                    Some(n) if arg == "--budget" => budget = n,
                    Some(n) => verify = n,
                    None => {
                        eprintln!("{arg} must be a positive integer, got {v:?}\n{}", usage());
                        return ExitCode::from(2);
                    }
                },
                Err(e) => return e,
            },
            "--json" => json = true,
            "--witness-traces" => match take("--witness-traces") {
                Ok(d) => witness_dir = Some(PathBuf::from(d)),
                Err(e) => return e,
            },
            "--no-static-prune" => static_prune = false,
            "--require-racy" => match take("--require-racy") {
                Ok(g) => require_racy.push(g),
                Err(e) => return e,
            },
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if !suite && bench_globs.is_empty() {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }

    let scale = obs::env::choice(SCALE_VAR, &SCALES).unwrap_or_default();
    let mut gpu = scale.gpu();
    gpu.sim_threads = gpu_sim::par::sim_threads_from_env();
    gpu.commit_shard = gpu_sim::par::commit_shard_from_env();
    gpu.engine = obs::env::choice(ENGINE_VAR, &ENGINES).unwrap_or_default();
    let results_dir = json::results_dir();

    let mut benches = micro_suite(scale);
    if !bench_globs.is_empty() {
        benches.retain(|b| bench_globs.iter().any(|g| glob_match(g, &b.name)));
        if benches.is_empty() {
            eprintln!("no micro-suite benchmark matches {bench_globs:?}");
            return ExitCode::from(2);
        }
    }

    let cfg = ExploreConfig {
        gpu,
        model,
        budget,
        verify,
        static_prune,
    };

    let result = SuiteExploration::run(&cfg, scale.label(), &benches);

    if !quiet {
        println!(
            "dab-explore: schedule-space exploration (scale {}, model {})",
            result.scale,
            result.model.label()
        );
        for b in &result.benches {
            let mode = if b.statically_pruned {
                format!("static prune + {} verify runs", b.verified)
            } else if b.budget_exhausted {
                "dfs (budget exhausted)".to_string()
            } else {
                "dfs (exhaustive)".to_string()
            };
            println!(
                "  {:24} classes {:>2}  explored {:>4} of 2^{:.1} naive  \
                 branch-sites {:>4}  [{}]",
                b.bench,
                b.classes.len(),
                b.explored,
                b.naive_bound_log2,
                b.branch_sites,
                mode,
            );
        }
    }

    if json {
        match json::write(&results_dir, "dab_explore.json", &result.to_json()) {
            Ok(path) => {
                if !quiet {
                    eprintln!("results: {}", path.display());
                }
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(dir) = &witness_dir {
        for (bench, expl) in benches.iter().zip(&result.benches) {
            if expl.classes.len() < 2 {
                continue;
            }
            match dab_explore::write_witness_traces(&cfg, bench, expl, dir) {
                Ok(paths) => {
                    if !quiet {
                        for p in paths {
                            println!("witness: {}", p.display());
                        }
                    }
                }
                Err(e) => {
                    eprintln!("cannot write witness traces to {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            }
        }
    }

    let mut failed = false;
    for b in &result.benches {
        // Zero hazard choice points under DAB is a *proof* of one class;
        // any exploration result disagreeing means the analyzer or the
        // engine is wrong — exactly what this gate exists to catch.
        if model.honors_static_pruning() && b.hazard_choice_points == 0 && !b.single_class() {
            eprintln!(
                "GATE: {} is statically single-class but explored {} outcome classes",
                b.bench,
                b.classes.len()
            );
            failed = true;
        }
        if !b.below_naive_bound() {
            eprintln!(
                "GATE: {} explored {} schedules, not strictly below the naive 2^{:.1} bound",
                b.bench, b.explored, b.naive_bound_log2
            );
            failed = true;
        }
        if require_racy.iter().any(|g| glob_match(g, &b.bench)) && b.classes.len() < 2 {
            eprintln!(
                "GATE: {} was required racy but explored only {} outcome class(es)",
                b.bench,
                b.classes.len()
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
