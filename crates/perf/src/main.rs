//! The `dab-perf` command-line tool.
//!
//! ```text
//! dab-perf report <results.json>...
//! dab-perf compare <baseline> <candidate> [--wall-tolerance F] [--verbose]
//! ```
//!
//! `compare` accepts two files or two directories (directories pair up
//! `*.json` files by name). Exit status: 0 = pass, 1 = regression
//! detected, 2 = usage or I/O error — so CI can distinguish "the build
//! got slower" from "the gate itself is broken".

use dab_perf::compare::{compare, render, Comparison, DEFAULT_WALL_TOLERANCE};
use dab_perf::metrics::flatten;
use obs::json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: dab-perf <command> [args]

commands:
  report <results.json>...
      Print every metric of each file with its det/wall/info class.

  compare <baseline> <candidate> [--wall-tolerance F] [--verbose]
      Diff two results files (or two directories of *.json files).
      det metrics must match exactly; wall metrics may degrade up to
      the relative tolerance (default 0.5). Exits 1 on regression.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("report") => cmd_report(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command {other:?}\n\n{USAGE}")),
        None => Err(USAGE.to_string()),
    };
    match code {
        Ok(code) => code,
        Err(message) => {
            eprintln!("dab-perf: {}", message.trim_end());
            ExitCode::from(2)
        }
    }
}

fn load_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_report(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("report needs at least one results file".to_string());
    }
    for (i, arg) in args.iter().enumerate() {
        let path = Path::new(arg);
        let doc = load_json(path)?;
        if i > 0 {
            println!();
        }
        println!("{}", path.display());
        let metrics = flatten(&doc);
        let path_width = metrics.iter().map(|m| m.path.len()).max().unwrap_or(0);
        for m in &metrics {
            println!(
                "  {:<5} {:<w$}  {}",
                m.class.label(),
                m.path,
                m.value.display(),
                w = path_width
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let mut wall_tolerance = DEFAULT_WALL_TOLERANCE;
    let mut verbose = false;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--wall-tolerance" => {
                let raw = it.next().ok_or("--wall-tolerance needs a value")?;
                wall_tolerance = raw
                    .parse::<f64>()
                    .ok()
                    .filter(|t| t.is_finite() && *t >= 0.0)
                    .ok_or_else(|| {
                        format!("--wall-tolerance must be a non-negative number, got {raw:?}")
                    })?;
            }
            "--verbose" | "-v" => verbose = true,
            other if other.starts_with('-') => {
                return Err(format!("unknown compare flag {other:?}"));
            }
            _ => paths.push(PathBuf::from(arg)),
        }
    }
    let [a, b] = paths.as_slice() else {
        return Err("compare needs exactly a baseline and a candidate".to_string());
    };
    let pairs = pair_up(a, b)?;
    let mut failed = false;
    for (label, a, b) in &pairs {
        let cmp: Comparison = compare(&load_json(a)?, &load_json(b)?, wall_tolerance);
        let n_regressed = cmp.regressions().count();
        if pairs.len() > 1 || !label.is_empty() {
            println!("== {label}");
        }
        let table = render(&cmp, verbose);
        if table.is_empty() {
            println!("all {} metrics match", cmp.deltas.len());
        } else {
            print!("{table}");
        }
        if n_regressed > 0 {
            failed = true;
            println!(
                "FAIL: {n_regressed} regression{} (wall tolerance {:.0}%)",
                if n_regressed == 1 { "" } else { "s" },
                wall_tolerance * 100.0
            );
        } else {
            println!(
                "PASS ({} metrics, wall tolerance {:.0}%)",
                cmp.deltas.len(),
                wall_tolerance * 100.0
            );
        }
    }
    Ok(if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

/// Resolves the compare operands into `(label, baseline, candidate)`
/// pairs: two files become one pair; two directories pair their
/// `*.json` entries by file name (a name present on only one side is a
/// hard error — silently skipping would make the gate vacuous).
fn pair_up(a: &Path, b: &Path) -> Result<Vec<(String, PathBuf, PathBuf)>, String> {
    match (a.is_dir(), b.is_dir()) {
        (false, false) => Ok(vec![(String::new(), a.to_path_buf(), b.to_path_buf())]),
        (true, true) => {
            let names_a = json_names(a)?;
            let names_b = json_names(b)?;
            for name in &names_a {
                if !names_b.contains(name) {
                    return Err(format!(
                        "{} exists in {} but not in {}",
                        name,
                        a.display(),
                        b.display()
                    ));
                }
            }
            Ok(names_a
                .into_iter()
                .map(|name| (name.clone(), a.join(&name), b.join(&name)))
                .collect())
        }
        _ => Err(format!(
            "{} and {} must both be files or both be directories",
            a.display(),
            b.display()
        )),
    }
}

fn json_names(dir: &Path) -> Result<Vec<String>, String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| entry.file_name().into_string().ok())
        .filter(|name| name.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no *.json files in {}", dir.display()));
    }
    Ok(names)
}
