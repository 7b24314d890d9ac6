//! `dab-analyze` — static determinism analysis over the workload suite.
//!
//! ```text
//! cargo run --release -p analysis --bin dab-analyze -- --suite
//! ```
//!
//! Flags:
//!
//! - `--suite` — analyze every suite benchmark (evaluation + micro)
//! - `--bench <glob>` — analyze matching benchmarks only (repeatable)
//! - `--allowlist <path>` — allowlist file (default: the crate's
//!   `suite-allowlist.txt`)
//! - `--json` — also write `results/dab_analyze.json`
//! - `--emit-hb <dir>` — write each kernel's happens-before graph to
//!   `<dir>/<bench>__<kernel>.hb.json` (and `.hb.dot`), byte-stable
//! - `--quiet` — print totals and violations only
//!
//! Environment: `DAB_SCALE=ci|paper` picks the workload scale,
//! `DAB_JOBS` the analysis worker count (a positive integer; default the
//! machine's parallelism), `DAB_RESULTS_DIR` the JSON output directory.
//! A knob value that is not accepted stops the run before any work,
//! naming the variable. Output is byte-identical across runs and worker
//! counts.
//!
//! Exit codes: `0` clean; `1` at least one non-allowlisted hazard or
//! lint; `2` usage or I/O error; `3` the allowlist has *stale* entries —
//! exemptions matching no current hazard or lint (checked only under
//! `--suite`, where the full benchmark set is in view). A stale entry
//! means a fixed race left its exemption behind, silently ready to mask
//! a regression; delete the line to get back to green.

use std::path::PathBuf;
use std::process::ExitCode;

use analysis::hbgraph::HbGraph;
use analysis::report::glob_match;
use analysis::{analyze_suite_with_jobs, Allowlist};
use dab_workloads::scale::{SCALES, SCALE_VAR};
use dab_workloads::suite::analyze_all;
use obs::json;

fn usage() -> &'static str {
    "usage: dab-analyze (--suite | --bench <glob>...) \
     [--allowlist <path>] [--json] [--emit-hb <dir>] [--quiet]"
}

fn default_allowlist_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("suite-allowlist.txt")
}

fn main() -> ExitCode {
    let mut suite = false;
    let mut bench_globs: Vec<String> = Vec::new();
    let mut allowlist_path: Option<PathBuf> = None;
    let mut json = false;
    let mut emit_hb: Option<PathBuf> = None;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--suite" => suite = true,
            "--bench" => match args.next() {
                Some(g) => bench_globs.push(g),
                None => {
                    eprintln!("--bench needs a benchmark name or glob\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--allowlist" => match args.next() {
                Some(p) => allowlist_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--allowlist needs a path\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--emit-hb" => match args.next() {
                Some(d) => emit_hb = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--emit-hb needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
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
    let jobs = obs::env::count("DAB_JOBS").unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    let results_dir = json::results_dir();

    let mut benches = analyze_all(scale);
    if !bench_globs.is_empty() {
        benches.retain(|b| bench_globs.iter().any(|g| glob_match(g, &b.name)));
        if benches.is_empty() {
            eprintln!("no suite benchmark matches {bench_globs:?}");
            return ExitCode::from(2);
        }
    }

    let allow = {
        let path = allowlist_path.unwrap_or_else(default_allowlist_path);
        match std::fs::read_to_string(&path) {
            Ok(text) => match Allowlist::parse(&text) {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("{}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!(
                    "warning: cannot read allowlist {}: {e}; gating on every hazard",
                    path.display()
                );
                Allowlist::empty()
            }
        }
    };

    if let Some(dir) = &emit_hb {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
        let sanitize = |s: &str| s.replace(['/', ' '], "__");
        for b in &benches {
            for g in HbGraph::of_benchmark(b) {
                let stem = format!("{}__{}", sanitize(&b.name), sanitize(&g.kernel));
                for (ext, body) in [("hb.json", g.to_json().pretty()), ("hb.dot", g.to_dot())] {
                    let path = dir.join(format!("{stem}.{ext}"));
                    if let Err(e) = std::fs::write(&path, body) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                }
            }
        }
        if !quiet {
            println!("happens-before graphs: {}", dir.display());
        }
    }

    let report = analyze_suite_with_jobs(&benches, scale.label(), jobs);

    let text = report.render_text(&allow);
    if quiet {
        // Totals onwards: the tail of the report starting at "totals:".
        match text.find("\ntotals:") {
            Some(pos) => print!("{}", &text[pos + 1..]),
            None => print!("{text}"),
        }
    } else {
        print!("{text}");
    }

    if json {
        match json::write(&results_dir, "dab_analyze.json", &report.to_json(&allow)) {
            Ok(path) => eprintln!("results: {}", path.display()),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }

    if !report.violations(&allow).is_empty() {
        return ExitCode::from(1);
    }
    // Staleness is only meaningful against the full suite: a --bench
    // subset legitimately leaves entries for the benchmarks not in view.
    if suite {
        let stale = report.stale_entries(&allow);
        if !stale.is_empty() {
            for (bench, label) in &stale {
                eprintln!(
                    "stale allowlist entry: {bench} {label} (matches no current hazard or lint)"
                );
            }
            return ExitCode::from(3);
        }
    }
    ExitCode::SUCCESS
}
