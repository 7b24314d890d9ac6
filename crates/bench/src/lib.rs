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
//! parallel via [`Sweep`]/[`Runner::run_many`] (`DAB_JOBS` workers), and
//! every target also writes machine-readable `results/<target>.json`
//! through [`ResultsSink`]. The worker count changes no result bit, and
//! neither does the engine-core selection (`DAB_ENGINE=dense|event`,
//! default `event`) — the dense sweep is kept as the equivalence oracle
//! for the activity-driven engine.

use std::time::Instant;

mod results;
mod sweep;

pub use results::ResultsSink;
pub use sweep::{jobs_from_env, JobId, Sweep, SweepJob, SweepResults, SweepRun, JOBS_VAR};

use dab::{DabConfig, DabModel};
use dab_workloads::scale::{Scale, SCALES, SCALE_VAR};
use gpu_sim::config::GpuConfig;
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

/// Environment variable silencing the per-simulation progress lines
/// (`DAB_QUIET=1`).
const QUIET_VAR: &str = "DAB_QUIET";

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
    /// Builds a runner from the environment (`DAB_SCALE`, `DAB_ENGINE`,
    /// `DAB_TRACE`, `DAB_TRACE_SAMPLE`, `DAB_QUIET`, and the
    /// retired `DAB_SIM_THREADS` / `DAB_COMMIT_SHARD`), each read through
    /// [`obs::env`].
    ///
    /// # Panics
    ///
    /// Panics naming the variable and the value when a knob holds a value
    /// it does not accept: `DAB_SCALE` takes `ci`/`paper`, `DAB_ENGINE`
    /// `dense`/`event`, `DAB_TRACE` `off`/`summary`/`full`,
    /// `DAB_TRACE_SAMPLE` a positive integer, `DAB_QUIET` `0`/`1`, and
    /// the retired knobs only `1`.
    pub fn from_env() -> Self {
        let scale = obs::env::choice(SCALE_VAR, &SCALES).unwrap_or_default();
        let mut gpu = scale.gpu();
        gpu.sim_threads = gpu_sim::par::sim_threads_from_env();
        gpu.commit_shard = gpu_sim::par::commit_shard_from_env();
        gpu.engine =
            obs::env::choice(gpu_sim::par::ENGINE_VAR, &gpu_sim::par::ENGINES).unwrap_or_default();
        gpu.trace = obs::env::choice(obs::TRACE_VAR, &obs::TRACE_MODES).unwrap_or_default();
        gpu.trace_sample_interval =
            obs::env::count(obs::SAMPLE_VAR).map_or(obs::DEFAULT_SAMPLE_INTERVAL, |n| n as u64);
        Self {
            gpu,
            scale,
            seed: 1,
            verbose: !obs::env::flag(QUIET_VAR),
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
    let Some(trace) = report.trace.as_ref() else {
        return;
    };
    let Some(dir) = obs::env::dir(obs::TRACE_DIR_VAR) else {
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

    /// One environment knob: the setting it controls, read back as text,
    /// and what each value must give. A garbage value's panic names the
    /// variable, the quoted value and `says`.
    struct Knob {
        var: &'static str,
        read: fn() -> String,
        unset: String,
        accepted: &'static [(&'static str, &'static str)],
        garbage: &'static [&'static str],
        says: &'static str,
    }

    /// Every knob the repository reads. Retired knobs accept only `1` and
    /// call themselves retired; `Runner::from_env` reads two of them.
    fn knobs() -> Vec<Knob> {
        let retired = |var, read| Knob {
            var,
            read,
            unset: "1".into(),
            accepted: &[("1", "1"), (" 1 ", "1")],
            garbage: &["0", "2", "4", "", "on", "abc"],
            says: "retired",
        };
        vec![
            Knob {
                var: "DAB_SCALE",
                read: || format!("{:?}", Runner::from_env().scale),
                unset: "Ci".into(),
                accepted: &[("ci", "Ci"), (" paper\n", "Paper")],
                garbage: &["papr", "PAPER", "", "1"],
                says: "",
            },
            Knob {
                var: "DAB_ENGINE",
                read: || format!("{:?}", Runner::from_env().gpu.engine),
                unset: "Event".into(),
                accepted: &[("dense", "Dense"), (" event ", "Event")],
                garbage: &["Dense", "EVENT", "fast", "dense,event", ""],
                says: "",
            },
            Knob {
                var: "DAB_TRACE",
                read: || format!("{:?}", Runner::from_env().gpu.trace),
                unset: "Off".into(),
                accepted: &[("off", "Off"), (" summary ", "Summary"), ("full", "Full")],
                garbage: &["Full", "on", "1", "verbose", ""],
                says: "",
            },
            Knob {
                var: "DAB_TRACE_SAMPLE",
                read: || Runner::from_env().gpu.trace_sample_interval.to_string(),
                unset: "1024".into(),
                accepted: &[("512", "512"), (" 7\n", "7")],
                garbage: &["0", "-3", "many", "1.5", ""],
                says: "",
            },
            Knob {
                var: "DAB_QUIET",
                read: || Runner::from_env().verbose.to_string(),
                unset: "true".into(),
                accepted: &[("0", "true"), ("1", "false")],
                garbage: &["yes", "true", ""],
                says: "",
            },
            Knob {
                var: JOBS_VAR,
                read: || jobs_from_env().to_string(),
                unset: std::thread::available_parallelism()
                    .map_or(1, std::num::NonZeroUsize::get)
                    .to_string(),
                accepted: &[("1", "1"), (" 6 ", "6"), ("64", "64")],
                garbage: &["0", "O8", "abc", "", "-3", "1.5", "0x8"],
                says: "positive integer",
            },
            Knob {
                var: obs::TRACE_DIR_VAR,
                read: || format!("{:?}", obs::env::dir(obs::TRACE_DIR_VAR)),
                unset: "None".into(),
                accepted: &[("traces", "Some(\"traces\")"), ("", "None"), ("  ", "None")],
                garbage: &[],
                says: "",
            },
            Knob {
                var: obs::json::RESULTS_DIR_VAR,
                // The default is the repository's `results/`, reached from
                // the `obs` crate's directory.
                read: || match obs::json::results_dir() {
                    d if d.ends_with("../../results") => "results/".into(),
                    d => d.display().to_string(),
                },
                unset: "results/".into(),
                accepted: &[("out", "out"), (" /tmp/r ", "/tmp/r"), ("", "results/")],
                garbage: &[],
                says: "",
            },
            Knob {
                var: "DAB_BLESS",
                read: || obs::env::flag("DAB_BLESS").to_string(),
                unset: "false".into(),
                accepted: &[("0", "false"), ("1", "true")],
                garbage: &["yes", ""],
                says: "",
            },
            retired(gpu_sim::par::SIM_THREADS_VAR, || {
                Runner::from_env().gpu.sim_threads.to_string()
            }),
            retired(gpu_sim::par::COMMIT_SHARD_VAR, || {
                u8::from(Runner::from_env().gpu.commit_shard).to_string()
            }),
            retired(gpu_sim::par::REPLICATIONS_VAR, || {
                gpu_sim::par::replications_from_env().to_string()
            }),
        ]
    }

    /// The panic message of `f`, or `None` when it returns.
    fn panic_message(f: fn() -> String) -> Option<String> {
        let payload = std::panic::catch_unwind(f).err()?;
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
    }

    #[test]
    fn every_knob_reads_strictly() {
        for knob in knobs() {
            let var = knob.var;
            let saved = std::env::var_os(var);
            std::env::remove_var(var);
            assert_eq!((knob.read)(), knob.unset, "{var} unset");
            for &(value, want) in knob.accepted {
                std::env::set_var(var, value);
                assert_eq!((knob.read)(), want, "{var}={value:?}");
            }
            for &bad in knob.garbage {
                std::env::set_var(var, bad);
                let msg = panic_message(knob.read)
                    .unwrap_or_else(|| panic!("{var}={bad:?} must panic, not be read"));
                assert!(
                    msg.contains(var)
                        && msg.contains(&format!("{bad:?}"))
                        && msg.contains(knob.says),
                    "{var}={bad:?} panicked without naming the variable, the value and {:?}: {msg}",
                    knob.says
                );
            }
            match saved {
                Some(v) => std::env::set_var(var, v),
                None => std::env::remove_var(var),
            }
        }
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
