//! Experiment harness for regenerating the paper's tables and figures.
//!
//! Each `benches/figXX_*.rs` target (plain `main`, `harness = false`) runs
//! the relevant simulations and prints the same rows/series the paper
//! reports. This library provides the shared machinery: model construction,
//! normalized-time bookkeeping, simple statistics, and aligned table
//! printing.
//!
//! Scale is controlled by `DAB_SCALE=ci|paper` (default `ci`); see
//! [`dab_workloads::scale::Scale`]. Independent design points run in
//! parallel via [`Sweep`]/[`Runner::run_many`] (`DAB_JOBS` workers), each
//! simulation can additionally shard its clusters across worker threads
//! (`DAB_SIM_THREADS`, default 1 — see [`gpu_sim::par`]), and every target
//! also writes machine-readable `results/<target>.json` through
//! [`ResultsSink`]. Neither parallelism knob changes any result bit, and
//! neither does the engine-core selection (`DAB_ENGINE=dense|event`,
//! default `event`) — the dense sweep is kept as the equivalence oracle
//! for the activity-driven engine.

use std::time::Instant;

mod results;
mod sweep;

pub use results::ResultsSink;
pub use sweep::{
    jobs_from_env, progress_from_env, JobId, Sweep, SweepJob, SweepResults, SweepRun, JOBS_VAR,
    PROGRESS_VAR,
};

use dab::{DabConfig, DabModel};
use dab_workloads::scale::Scale;
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

/// Shared experiment context: scale, machine, seed.
#[derive(Debug, Clone)]
pub struct Runner {
    /// The selected scale.
    pub scale: Scale,
    /// The machine configuration at that scale.
    pub gpu: GpuConfig,
    /// Non-determinism seed used for timing-perturbation injection.
    pub seed: u64,
    verbose: bool,
}

impl Runner {
    /// Builds a runner from the environment (`DAB_SCALE`,
    /// `DAB_SIM_THREADS`, `DAB_COMMIT_SHARD`, `DAB_ENGINE`, `DAB_TRACE`,
    /// `DAB_TRACE_SAMPLE`, `DAB_PROFILE`).
    ///
    /// # Panics
    ///
    /// Panics when `DAB_SIM_THREADS` is set to an invalid value (anything
    /// but a positive integer), `DAB_COMMIT_SHARD` to anything but
    /// `0`/`1`, `DAB_ENGINE` to anything but
    /// `dense`/`event`, `DAB_TRACE` to anything but
    /// `off`/`summary`/`full`, `DAB_TRACE_SAMPLE` to anything but a
    /// positive integer, or `DAB_PROFILE` to anything but `0`/`1`.
    pub fn from_env() -> Self {
        let scale = Scale::from_env();
        let mut gpu = scale.gpu();
        gpu.sim_threads = gpu_sim::par::sim_threads_from_env();
        gpu.commit_shard = gpu_sim::par::commit_shard_from_env();
        gpu.engine = gpu_sim::par::engine_from_env();
        gpu.trace = obs::trace_mode_from_env();
        gpu.trace_sample_interval = obs::sample_interval_from_env();
        gpu.profile = obs::profile_from_env();
        Self {
            gpu,
            scale,
            seed: 1,
            verbose: std::env::var("DAB_QUIET").is_err(),
        }
    }

    /// Builds a runner at an explicit scale.
    pub fn at_scale(scale: Scale) -> Self {
        Self {
            gpu: scale.gpu(),
            scale,
            seed: 1,
            verbose: false,
        }
    }

    /// Runs `kernels` under an arbitrary model.
    pub fn run(&self, model: Box<dyn ExecutionModel>, kernels: &[KernelGrid]) -> RunReport {
        let started = Instant::now();
        let name = model.name();
        let sim = GpuSim::new(self.gpu.clone(), model, NdetSource::seeded(self.seed));
        let report = sim.run(kernels);
        if self.verbose {
            eprintln!(
                "    [{name}] {} kernels, {} cycles, {:.1?}",
                kernels.len(),
                report.cycles(),
                started.elapsed()
            );
        }
        maybe_write_trace(&name, &report);
        report
    }

    /// Runs under the non-deterministic baseline GPU.
    pub fn baseline(&self, kernels: &[KernelGrid]) -> RunReport {
        self.run(Box::new(BaselineModel::new()), kernels)
    }

    /// Runs under DAB with the given design point.
    pub fn dab(&self, cfg: DabConfig, kernels: &[KernelGrid]) -> RunReport {
        cfg.validate().expect("invalid DAB design point");
        self.run(Box::new(DabModel::new(&self.gpu, cfg)), kernels)
    }

    /// Runs under the GPUDet baseline.
    pub fn gpudet(&self, kernels: &[KernelGrid]) -> RunReport {
        self.run(
            Box::new(GpuDetModel::new(&self.gpu, GpuDetConfig::default())),
            kernels,
        )
    }
}

impl Default for Runner {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Writes a run's event trace to `DAB_TRACE_DIR/<label>.trace` when both a
/// trace was recorded (`DAB_TRACE=summary|full`) and a directory is set.
///
/// `/` in labels (e.g. `BC_1k/dab`) becomes `__` so every run lands in one
/// flat directory. Labels are unique within a target, so concurrent sweep
/// workers never write the same file.
pub fn maybe_write_trace(label: &str, report: &RunReport) {
    let (Some(dir), Some(trace)) = (obs::trace_dir_from_env(), report.trace.as_ref()) else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let file = format!("{}.trace", label.replace('/', "__"));
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, trace.to_text()) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// Geometric mean of strictly positive values (1.0 for an empty slice).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(1e-12).ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// Pearson correlation coefficient of two equal-length series.
///
/// # Panics
///
/// Panics if the series lengths differ or are shorter than 2.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series must align");
    assert!(a.len() >= 2, "need at least two points");
    let n = a.len() as f64;
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    cov / (va.sqrt() * vb.sqrt()).max(1e-12)
}

/// Mean absolute percentage error of `sim` against `hw` (the paper's
/// "error rate" in Fig. 9).
pub fn mape(sim: &[f64], hw: &[f64]) -> f64 {
    assert_eq!(sim.len(), hw.len(), "series must align");
    let total: f64 = sim
        .iter()
        .zip(hw)
        .map(|(&s, &h)| ((s - h) / h.max(1e-12)).abs())
        .sum();
    total / sim.len() as f64
}

/// Aligned-column table printer for figure/table output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// The column headers.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The appended rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{:>w$}", s, w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a ratio as `1.23x`.
pub fn ratio(x: f64) -> String {
    format!("{x:.2}x")
}

/// Prints a standard figure banner.
pub fn banner(id: &str, title: &str, runner: &Runner) {
    println!();
    println!("=== {id}: {title} ===");
    println!(
        "    scale={} machine={} SMs / {} partitions, ndet seed={}",
        runner.scale.label(),
        runner.gpu.num_sms(),
        runner.gpu.num_mem_partitions,
        runner.seed
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert_eq!(geomean(&[]), 1.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_and_inverse() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-9);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn mape_zero_for_identical() {
        let a = [1.0, 2.0];
        assert_eq!(mape(&a, &a), 0.0);
        assert!((mape(&[1.1, 2.2], &[1.0, 2.0]) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["name", "value"]);
        t.row(vec!["a".into(), "1.00x".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn runner_construction() {
        let r = Runner::at_scale(Scale::Ci);
        assert_eq!(r.gpu.num_sms(), 16);
        assert_eq!(r.seed, 1);
        assert_eq!(ratio(1.234), "1.23x");
    }

    #[test]
    fn runner_executes_models() {
        use dab_workloads::microbench::atomic_sum_grid;
        let mut r = Runner::at_scale(Scale::Ci);
        r.gpu = gpu_sim::config::GpuConfig::tiny();
        let grid = atomic_sum_grid(256, 0x2000_0000);
        let base = r.baseline(std::slice::from_ref(&grid));
        let dab = r.dab(DabConfig::paper_default(), std::slice::from_ref(&grid));
        let det = r.gpudet(&[grid]);
        assert!(base.cycles() > 0);
        assert!(dab.cycles() > 0);
        assert!(det.cycles() > base.cycles());
    }
}
