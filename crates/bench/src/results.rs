//! Structured results output: one JSON document per bench target.
//!
//! Every figure/table target writes `results/<target>.json` next to its
//! human-readable `.txt`, so downstream tooling (plots, regression diffing,
//! CI artifact comparison) never has to scrape the aligned-column text.
//!
//! Schema (stable; documented in README.md), in the one layout every
//! results document shares ([`obs::json::Json::pretty`]):
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
//!     { "label": "BC_1k/baseline", "model": "baseline", "seed": 1, "cycles": 12345, "digest": "0x0123456789abcdef", "icnt_stall_cycles": 17, "l1_miss_rate": 0.25, "l2_miss_rate": 0.05, "atomics_pki": 32.1, "wall_secs": 0.01, "cycles_per_sec": 1234500 }
//!   ],
//!   "metrics": { "geomean_dab": 1.23 },
//!   "tables": [
//!     {
//!       "title": "main",
//!       "header": ["benchmark", "DAB"],
//!       "rows": [
//!         ["BC_1k", "1.21x"]
//!       ]
//!     }
//!   ]
//! }
//! ```
//!
//! `digest` is the run's [`gpu_sim::mem::value::ValueMem`] digest — what
//! determinism is judged by — rendered as a hex string so 64-bit values
//! survive JSON readers that parse numbers as doubles. Numbers follow the
//! one `obs::json` rule: integer-valued numbers print without a fraction,
//! others in their shortest round-trip form, and non-finite ones as
//! `null`.
//!
//! `wall_secs`, `speedup` (summed per-run wall over sweep wall: the
//! parallel-sweep win), `cycles_per_sec` (per-run simulator throughput)
//! and the `host` block (CPU count) are host measurements and are **not**
//! deterministic; everything else is bit-stable for a given scale/seed
//! regardless of `DAB_JOBS`. The CI equivalence diffs strip exactly those
//! fields.
//!
//! `icnt_stall_cycles` counts requests, not cycles: one per load, store or
//! atomic the interconnect refuses, at its first refusal (see
//! `SimStats::icnt_stall_cycles`).

use obs::json::{self, Json};

use crate::sweep::SweepResults;
use crate::{Runner, Table};

/// Accumulates a bench target's structured output and writes the JSON.
#[derive(Debug)]
pub struct ResultsSink {
    target: String,
    /// The members every document opens with: target, scale, machine,
    /// seed and host.
    head: Vec<(&'static str, Json)>,
    workers: Option<usize>,
    wall_secs: Option<f64>,
    /// Summed per-run wall-clock, for the sweep-level `speedup` field.
    run_secs: f64,
    runs: Vec<Json>,
    metrics: Vec<(String, Json)>,
    tables: Vec<Json>,
}

impl ResultsSink {
    /// Starts a sink for `target` (the bench binary's name, which becomes
    /// the file stem).
    pub fn new(target: impl Into<String>, runner: &Runner) -> Self {
        let target = target.into();
        let machine = Json::obj([
            ("sms", Json::from(runner.gpu.num_sms())),
            ("mem_partitions", Json::from(runner.gpu.num_mem_partitions)),
        ]);
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            head: vec![
                ("target", Json::from(target.as_str())),
                ("scale", Json::from(runner.scale.label())),
                ("machine", machine),
                ("seed", Json::from(runner.seed)),
                ("host", Json::obj([("nproc", Json::from(nproc))])),
            ],
            target,
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
            let report = &run.report;
            self.run_secs += report.wall_secs();
            self.runs.push(Json::obj([
                ("label", Json::from(run.label.as_str())),
                ("model", Json::from(report.model.as_str())),
                ("seed", Json::from(run.seed)),
                ("cycles", Json::from(report.cycles())),
                ("digest", Json::from(format!("0x{:016x}", report.digest()))),
                (
                    "icnt_stall_cycles",
                    Json::from(report.stats.icnt_stall_cycles),
                ),
                ("l1_miss_rate", Json::from(report.stats.l1_miss_rate())),
                ("l2_miss_rate", Json::from(report.stats.l2_miss_rate())),
                ("atomics_pki", Json::from(report.stats.atomics_pki())),
                ("wall_secs", Json::from(report.wall_secs())),
                ("cycles_per_sec", Json::from(report.cycles_per_sec())),
            ]));
        }
        self
    }

    /// Records a named scalar metric (geomeans, correlations, ...).
    pub fn metric(&mut self, name: impl Into<String>, value: f64) -> &mut Self {
        self.metrics.push((name.into(), Json::from(value)));
        self
    }

    /// Records a rendered table (same rows the target prints).
    pub fn table(&mut self, title: impl Into<String>, table: &Table) -> &mut Self {
        self.tables.push(Json::obj([
            ("title", Json::from(title.into())),
            ("header", Json::strs(table.header())),
            (
                "rows",
                Json::Arr(table.rows().iter().map(|r| Json::strs(r)).collect()),
            ),
        ]));
        self
    }

    /// The document, in deterministic field order.
    fn to_json(&self) -> Json {
        let mut doc = self.head.clone();
        if let Some(w) = self.workers {
            doc.push(("workers", Json::from(w)));
        }
        if let Some(wall) = self.wall_secs {
            doc.push(("wall_secs", Json::from(wall)));
            // Parallel-sweep win: how much wall-clock the `DAB_JOBS`
            // workers saved over running every job back to back.
            doc.push(("speedup", Json::from(self.run_secs / wall.max(1e-9))));
        }
        doc.push(("runs", Json::Arr(self.runs.clone())));
        doc.push(("metrics", Json::Obj(self.metrics.clone())));
        doc.push(("tables", Json::Arr(self.tables.clone())));
        Json::obj(doc)
    }

    /// Writes `results/<target>.json` (directory overridable with
    /// `DAB_RESULTS_DIR`) and prints its path on stderr.
    ///
    /// # Panics
    ///
    /// When the directory cannot be created or the file cannot be
    /// written; the message names the path.
    pub fn write(&self) {
        let file = format!("{}.json", self.target);
        match json::write(&json::results_dir(), &file, &self.to_json()) {
            Ok(path) => eprintln!("results: {}", path.display()),
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sweep;
    use dab_workloads::microbench::atomic_sum_grid;
    use dab_workloads::scale::Scale;

    #[test]
    fn json_escaping() {
        let runner = Runner::at_scale(Scale::Ci);
        let mut sink = ResultsSink::new("unit_test", &runner);
        let mut t = Table::new(&["a\"b\\c", "x\ny"]);
        t.row(vec!["1".into(), "2".into()]);
        sink.metric("half", 1.5)
            .metric("whole", 2.0)
            .metric("undefined", f64::NAN)
            .table("main", &t);
        let s = sink.to_json().render();
        assert!(s.contains(r#""a\"b\\c""#), "quote not escaped in: {s}");
        assert!(s.contains(r#""x\ny""#), "newline not escaped in: {s}");
        assert!(s.contains(r#""half": 1.5"#), "in: {s}");
        assert!(s.contains(r#""whole": 2"#), "in: {s}");
        assert!(s.contains(r#""undefined": null"#), "in: {s}");
    }

    #[test]
    fn render_is_balanced_json() {
        let runner = Runner::at_scale(Scale::Ci);
        let mut sink = ResultsSink::new("unit_test", &runner);
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into(), "1.00x".into()]);
        sink.metric("geomean", 1.25).table("main", &t);
        let s = sink.to_json().pretty();
        assert!(s.contains("\"target\": \"unit_test\""), "in: {s}");
        assert!(s.contains("\"geomean\": 1.25"), "in: {s}");
        assert!(s.contains("\"rows\": ["), "in: {s}");
        // Nesting check over the structural characters (these strings
        // contain no brackets).
        let mut depth = 0i32;
        for c in s.chars() {
            match c {
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0, "closes before it opens in: {s}");
        }
        assert_eq!(depth, 0, "unbalanced in: {s}");
    }

    #[test]
    fn render_round_trips_through_the_parser() {
        let mut runner = Runner::at_scale(Scale::Ci);
        runner.gpu = gpu_sim::config::GpuConfig::tiny();
        let grid = vec![atomic_sum_grid(64, 0x2000_0000)];
        let mut sweep = Sweep::new(&runner);
        sweep.baseline("base \"quoted\"", &grid);
        let results = sweep.run_with_workers(1);
        let mut sink = ResultsSink::new("unit_test", &runner);
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into(), "1.00x".into()]);
        sink.sweep(&results)
            .metric("geomean", 1.25)
            .metric("undefined", f64::NAN)
            .table("main", &t);
        let text = sink.to_json().pretty();
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{e} in:\n{text}"));

        assert_eq!(doc.get("target"), Some(&Json::from("unit_test")));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(metrics.get("geomean"), Some(&Json::from(1.25)));
        assert_eq!(metrics.get("undefined"), Some(&Json::Null));
        let table = &doc.get("tables").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(table.get("title"), Some(&Json::from("main")));
        let row = Json::strs(&["x".into(), "1.00x".into()]);
        assert_eq!(table.get("rows"), Some(&Json::Arr(vec![row])));
        let run = &doc.get("runs").and_then(Json::as_arr).unwrap()[0];
        let report = &results.runs()[0].report;
        let digest = format!("0x{:016x}", report.digest());
        assert_eq!(run.get("label"), Some(&Json::from("base \"quoted\"")));
        assert_eq!(run.get("cycles"), Some(&Json::from(report.cycles())));
        assert_eq!(run.get("digest"), Some(&Json::from(digest)));
    }
}
