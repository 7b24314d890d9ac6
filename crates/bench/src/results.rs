//! Structured results output: one JSON document per bench target.
//!
//! Every figure/table target writes `results/<target>.json` next to its
//! human-readable `.txt`, so downstream tooling (plots, regression diffing,
//! CI artifact comparison) never has to scrape the aligned-column text.
//!
//! Schema (stable; documented in README.md):
//!
//! ```json
//! {
//!   "target": "fig10_overall",
//!   "scale": "ci",
//!   "machine": { "sms": 16, "mem_partitions": 8 },
//!   "seed": 1,
//!   "host": { "nproc": 8 },
//!   "workers": 8,
//!   "wall_secs": 1.234,
//!   "speedup": 3.21,
//!   "runs": [
//!     { "label": "BC_1k/baseline", "model": "baseline", "seed": 1,
//!       "cycles": 12345, "digest": "0x0123456789abcdef",
//!       "icnt_stall_cycles": 17, "l1_miss_rate": 0.25,
//!       "l2_miss_rate": 0.05, "atomics_pki": 32.1,
//!       "wall_secs": 0.01, "cycles_per_sec": 1234500.0 }
//!   ],
//!   "metrics": { "geomean_dab": 1.23 },
//!   "tables": [
//!     { "title": "main", "header": ["benchmark", "DAB"],
//!       "rows": [["BC_1k", "1.21x"]] }
//!   ]
//! }
//! ```
//!
//! `digest` is the run's [`gpu_sim::mem::value::ValueMem`] digest — the
//! determinism criterion — rendered as a hex string so 64-bit values
//! survive JSON readers that parse numbers as doubles. `wall_secs`,
//! `speedup` (summed per-run wall over sweep wall: the parallel-sweep win),
//! `cycles_per_sec` (per-run simulator throughput) and the `host` block
//! (CPU count) are host measurements and are **not** deterministic; everything else is bit-stable for a given
//! scale/seed regardless of `DAB_JOBS`. The CI equivalence diffs strip
//! exactly those fields.

use std::fmt::Write as _;
use std::path::PathBuf;

use obs::json::quote;

use crate::sweep::SweepResults;
use crate::{Runner, Table};

/// Accumulates a bench target's structured output and writes the JSON.
#[derive(Debug)]
pub struct ResultsSink {
    target: String,
    scale: String,
    sms: usize,
    mem_partitions: usize,
    seed: u64,
    nproc: usize,
    workers: Option<usize>,
    wall_secs: Option<f64>,
    /// Summed per-run wall-clock, for the sweep-level `speedup` field.
    run_secs: f64,
    runs: Vec<RunRecord>,
    metrics: Vec<(String, f64)>,
    tables: Vec<(String, Vec<String>, Vec<Vec<String>>)>,
}

#[derive(Debug)]
struct RunRecord {
    label: String,
    model: String,
    seed: u64,
    cycles: u64,
    digest: u64,
    icnt_stall_cycles: u64,
    l1_miss_rate: f64,
    l2_miss_rate: f64,
    atomics_pki: f64,
    wall_secs: f64,
    cycles_per_sec: f64,
}

impl ResultsSink {
    /// Starts a sink for `target` (the bench binary's name, which becomes
    /// the file stem).
    pub fn new(target: impl Into<String>, runner: &Runner) -> Self {
        Self {
            target: target.into(),
            scale: runner.scale.label().to_string(),
            sms: runner.gpu.num_sms(),
            mem_partitions: runner.gpu.num_mem_partitions,
            seed: runner.seed,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            workers: None,
            wall_secs: None,
            run_secs: 0.0,
            runs: Vec::new(),
            metrics: Vec::new(),
            tables: Vec::new(),
        }
    }

    /// Records every run of a completed sweep (labels, cycles, digests,
    /// per-run and total wall-clock, worker count).
    pub fn sweep(&mut self, results: &SweepResults) -> &mut Self {
        self.workers = Some(results.workers);
        self.wall_secs = Some(self.wall_secs.unwrap_or(0.0) + results.wall.as_secs_f64());
        for run in results.runs() {
            self.run_secs += run.report.wall_secs();
            self.runs.push(RunRecord {
                label: run.label.clone(),
                model: run.report.model.clone(),
                seed: run.seed,
                cycles: run.report.cycles(),
                digest: run.report.digest(),
                icnt_stall_cycles: run.report.stats.icnt_stall_cycles,
                l1_miss_rate: run.report.stats.l1_miss_rate(),
                l2_miss_rate: run.report.stats.l2_miss_rate(),
                atomics_pki: run.report.stats.atomics_pki(),
                wall_secs: run.report.wall_secs(),
                cycles_per_sec: run.report.cycles_per_sec(),
            });
        }
        self
    }

    /// Records a named scalar metric (geomeans, correlations, ...).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Records a rendered table (same rows the target prints).
    pub fn table(&mut self, title: impl Into<String>, table: &Table) -> &mut Self {
        self.tables
            .push((title.into(), table.header().to_vec(), table.rows().to_vec()));
        self
    }

    /// Serializes the document (deterministic field order).
    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"target\": {},", quote(&self.target));
        let _ = writeln!(out, "  \"scale\": {},", quote(&self.scale));
        let _ = writeln!(
            out,
            "  \"machine\": {{ \"sms\": {}, \"mem_partitions\": {} }},",
            self.sms, self.mem_partitions
        );
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"host\": {{ \"nproc\": {} }},", self.nproc);
        if let Some(w) = self.workers {
            let _ = writeln!(out, "  \"workers\": {w},");
        }
        if let Some(wall) = self.wall_secs {
            let _ = writeln!(out, "  \"wall_secs\": {},", json_f64(wall));
            // Parallel-sweep win: how much wall-clock the `DAB_JOBS`
            // workers saved over running every job back to back.
            let _ = writeln!(
                out,
                "  \"speedup\": {},",
                json_f64(self.run_secs / wall.max(1e-9))
            );
        }
        out.push_str("  \"runs\": [");
        for (i, r) in self.runs.iter().enumerate() {
            let comma = if i + 1 < self.runs.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    {{ \"label\": {}, \"model\": {}, \"seed\": {}, \"cycles\": {}, \
                 \"digest\": \"0x{:016x}\",\n      \
                 \"icnt_stall_cycles\": {}, \"l1_miss_rate\": {}, \
                 \"l2_miss_rate\": {}, \"atomics_pki\": {},\n      \
                 \"wall_secs\": {}, \"cycles_per_sec\": {} }}{comma}",
                quote(&r.label),
                quote(&r.model),
                r.seed,
                r.cycles,
                r.digest,
                r.icnt_stall_cycles,
                json_f64(r.l1_miss_rate),
                json_f64(r.l2_miss_rate),
                json_f64(r.atomics_pki),
                json_f64(r.wall_secs),
                json_f64(r.cycles_per_sec),
            );
        }
        out.push_str(if self.runs.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str("  \"metrics\": {");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let comma = if i + 1 < self.metrics.len() { "," } else { "" };
            let _ = write!(out, "\n    {}: {}{comma}", quote(name), json_f64(*value));
        }
        out.push_str(if self.metrics.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"tables\": [");
        for (i, (title, header, rows)) in self.tables.iter().enumerate() {
            let comma = if i + 1 < self.tables.len() { "," } else { "" };
            let _ = write!(
                out,
                "\n    {{ \"title\": {}, \"header\": {},\n      \"rows\": [",
                quote(title),
                json_str_array(header),
            );
            for (j, row) in rows.iter().enumerate() {
                let row_comma = if j + 1 < rows.len() { "," } else { "" };
                let _ = write!(out, "\n        {}{row_comma}", json_str_array(row));
            }
            out.push_str(if rows.is_empty() {
                "] }"
            } else {
                "\n      ] }"
            });
            out.push_str(comma);
        }
        out.push_str(if self.tables.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }

    /// Writes `results/<target>.json` (directory overridable with
    /// `DAB_RESULTS_DIR`) and prints the path.
    pub fn write(&self) {
        let dir = results_dir();
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("warning: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("{}.json", self.target));
        match std::fs::write(&path, self.render()) {
            Ok(()) => println!("results: {}", path.display()),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
}

/// The `results/` directory: `DAB_RESULTS_DIR` if set, else the repo-root
/// `results/` two levels above this crate.
fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("DAB_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("results")
}

fn json_str_array(items: &[String]) -> String {
    let cells: Vec<String> = items.iter().map(|s| quote(s)).collect();
    format!("[{}]", cells.join(", "))
}

/// JSON number: finite floats as-is, non-finite as null (JSON has no NaN).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `Display` for f64 prints integers without a dot; keep it a float
        // so typed readers see a consistent number shape.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dab_workloads::scale::Scale;

    #[test]
    fn json_escaping() {
        assert_eq!(quote("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(quote("x\ny"), "\"x\\ny\"");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn render_is_balanced_json() {
        let runner = Runner::at_scale(Scale::Ci);
        let mut sink = ResultsSink::new("unit_test", &runner);
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into(), "1.00x".into()]);
        sink.metric("geomean", 1.25).table("main", &t);
        let s = sink.render();
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced braces in: {s}"
        );
        assert_eq!(s.matches('[').count(), s.matches(']').count());
        assert!(s.contains("\"target\": \"unit_test\""));
        assert!(s.contains("\"geomean\": 1.25"));
        assert!(s.contains("\"rows\": ["));
        // Smoke-check nesting with a tiny bracket matcher over the
        // structural characters (our strings contain no brackets).
        let mut depth = 0i32;
        for c in s.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn results_dir_override() {
        std::env::set_var("DAB_RESULTS_DIR", "/tmp/dab-results-test");
        assert_eq!(results_dir(), PathBuf::from("/tmp/dab-results-test"));
        std::env::remove_var("DAB_RESULTS_DIR");
        assert!(results_dir().ends_with("results"));
    }
}
