//! Parallel sweep execution over independent simulations.
//!
//! A figure regenerates dozens of runs that share nothing but the machine
//! configuration, so they parallelize trivially: [`Sweep`] collects the
//! whole design-point matrix up front and [`Runner::run_many`] executes it
//! on a scoped thread pool. Results come back **in submission order**
//! regardless of which worker finished first, so tables, geomeans, and
//! digests are bit-identical to a serial run — parallelism only changes
//! wall-clock (and each run is internally deterministic for a given seed,
//! so even `DAB_JOBS=1` vs `DAB_JOBS=64` agree bitwise).
//!
//! Worker count comes from `DAB_JOBS` (default: available parallelism);
//! tests that must not race on the environment use
//! [`Runner::run_many_with_workers`] / [`Sweep::run_with_workers`].
//! Unless `DAB_QUIET=1`, every finished job prints one stderr line with
//! the completion count, its cycles and wall time, and a linear ETA, so
//! long sweeps are observable from CI logs. Each simulation itself runs
//! on one thread; the worker count changes no result bit.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dab::{DabConfig, DabModel};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::kernel::KernelGrid;
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

use crate::Runner;

/// Environment variable selecting how many sweep jobs run concurrently.
pub const JOBS_VAR: &str = "DAB_JOBS";

/// Formats one finished job's progress line: completion count, the job
/// (with its cycles and its own wall time), sweep elapsed, and a linear
/// ETA extrapolated from the per-job completion rate so far.
fn progress_line(
    finished: usize,
    total: usize,
    label: &str,
    cycles: u64,
    job_wall: Duration,
    sweep_elapsed: Duration,
) -> String {
    let remaining = total.saturating_sub(finished);
    let eta = if finished == 0 {
        Duration::ZERO
    } else {
        sweep_elapsed.mul_f64(remaining as f64 / finished as f64)
    };
    format!(
        "    [{finished:>3}/{total} {label}] {cycles} cycles, {job_wall:.1?} \
         (sweep {sweep_elapsed:.1?}, eta {eta:.1?})"
    )
}

/// Resolves the sweep worker count: `DAB_JOBS` if set, otherwise the
/// machine's available parallelism.
///
/// # Panics
///
/// Panics naming the variable and the value when `DAB_JOBS` is set to
/// anything other than a positive integer (`0`, empty, or garbage), so an
/// intended `DAB_JOBS=16` sweep never silently runs on the default.
pub fn jobs_from_env() -> usize {
    obs::env::count(JOBS_VAR).unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    })
}

/// One simulation in a sweep: a model, the kernels to run it on, a label
/// for progress/results output, and the timing-perturbation seed.
pub struct SweepJob<'k> {
    /// Display label, also recorded in the results JSON.
    pub label: String,
    /// Timing-perturbation seed override; `None` inherits the runner's.
    seed: Option<u64>,
    model: Box<dyn ExecutionModel>,
    kernels: &'k [KernelGrid],
}

impl<'k> SweepJob<'k> {
    /// A job running `model` over `kernels` (seed inherited from the
    /// runner unless overridden).
    pub fn new(
        label: impl Into<String>,
        model: Box<dyn ExecutionModel>,
        kernels: &'k [KernelGrid],
    ) -> Self {
        Self {
            label: label.into(),
            seed: None,
            model,
            kernels,
        }
    }

    /// Overrides the timing seed (figures that sweep seeds use this).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }
}

impl std::fmt::Debug for SweepJob<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .field("model", &self.model.name())
            .field("kernels", &self.kernels.len())
            .finish()
    }
}

/// Handle to one submitted job; index into [`SweepResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobId(usize);

/// One completed run, in submission order.
#[derive(Debug)]
pub struct SweepRun {
    /// The submitted label.
    pub label: String,
    /// The seed the run used.
    pub seed: u64,
    /// The full simulation report.
    pub report: RunReport,
}

/// All runs of a sweep, in submission order, plus sweep-level timing.
#[derive(Debug)]
pub struct SweepResults {
    runs: Vec<SweepRun>,
    /// Wall-clock for the whole sweep (all workers).
    pub wall: Duration,
    /// Worker count the sweep actually used.
    pub workers: usize,
}

impl SweepResults {
    /// The report for a submitted job.
    pub fn report(&self, id: JobId) -> &RunReport {
        &self.runs[id.0].report
    }

    /// Shorthand: cycles of a submitted job.
    pub fn cycles(&self, id: JobId) -> u64 {
        self.report(id).cycles()
    }

    /// All runs in submission order.
    pub fn runs(&self) -> &[SweepRun] {
        &self.runs
    }
}

impl std::ops::Index<JobId> for SweepResults {
    type Output = RunReport;

    fn index(&self, id: JobId) -> &RunReport {
        self.report(id)
    }
}

/// Builder collecting a matrix of simulations to run in parallel.
///
/// ```no_run
/// # use dab_bench::{Runner, Sweep};
/// # use dab_workloads::suite::full_suite;
/// # use dab::DabConfig;
/// let runner = Runner::from_env();
/// let suite = full_suite(runner.scale);
/// let mut sweep = Sweep::new(&runner);
/// let ids: Vec<_> = suite
///     .iter()
///     .map(|b| {
///         (
///             sweep.baseline(format!("{}/baseline", b.name), &b.kernels),
///             sweep.dab(format!("{}/dab", b.name), DabConfig::paper_default(), &b.kernels),
///         )
///     })
///     .collect();
/// let results = sweep.run();
/// for (base, dab) in ids {
///     let slowdown = results.cycles(dab) as f64 / results.cycles(base) as f64;
///     println!("{slowdown:.2}x");
/// }
/// ```
#[derive(Debug)]
pub struct Sweep<'k> {
    runner: Runner,
    jobs: Vec<SweepJob<'k>>,
}

impl<'k> Sweep<'k> {
    /// Starts an empty sweep sharing `runner`'s machine, scale, and seed.
    pub fn new(runner: &Runner) -> Self {
        Self {
            runner: runner.clone(),
            jobs: Vec::new(),
        }
    }

    /// Submits an arbitrary pre-built job.
    pub fn push(&mut self, job: SweepJob<'k>) -> JobId {
        self.jobs.push(job);
        JobId(self.jobs.len() - 1)
    }

    /// Submits a run of the non-deterministic baseline GPU.
    pub fn baseline(&mut self, label: impl Into<String>, kernels: &'k [KernelGrid]) -> JobId {
        self.push(SweepJob::new(
            label,
            Box::new(BaselineModel::new()),
            kernels,
        ))
    }

    /// Submits a DAB run at the given design point.
    pub fn dab(
        &mut self,
        label: impl Into<String>,
        cfg: DabConfig,
        kernels: &'k [KernelGrid],
    ) -> JobId {
        cfg.validate().expect("invalid DAB design point");
        let model = DabModel::new(&self.runner.gpu, cfg);
        self.push(SweepJob::new(label, Box::new(model), kernels))
    }

    /// Submits a GPUDet run with its default configuration.
    pub fn gpudet(&mut self, label: impl Into<String>, kernels: &'k [KernelGrid]) -> JobId {
        self.gpudet_with(label, GpuDetConfig::default(), kernels)
    }

    /// Submits a GPUDet run at an explicit operating point.
    pub fn gpudet_with(
        &mut self,
        label: impl Into<String>,
        cfg: GpuDetConfig,
        kernels: &'k [KernelGrid],
    ) -> JobId {
        let model = GpuDetModel::new(&self.runner.gpu, cfg);
        self.push(SweepJob::new(label, Box::new(model), kernels))
    }

    /// Submits a run of an arbitrary execution model.
    pub fn model(
        &mut self,
        label: impl Into<String>,
        model: Box<dyn ExecutionModel>,
        kernels: &'k [KernelGrid],
    ) -> JobId {
        self.push(SweepJob::new(label, model, kernels))
    }

    /// Number of submitted jobs so far.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when nothing has been submitted.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs everything with the `DAB_JOBS` worker count.
    pub fn run(self) -> SweepResults {
        self.run_with_workers(jobs_from_env())
    }

    /// Runs everything with an explicit worker count.
    pub fn run_with_workers(self, workers: usize) -> SweepResults {
        let started = Instant::now();
        let workers = workers.max(1).min(self.jobs.len().max(1));
        let reports = self.runner.run_many_with_workers(self.jobs, workers);
        SweepResults {
            runs: reports,
            wall: started.elapsed(),
            workers,
        }
    }
}

impl Runner {
    /// Runs `jobs` in parallel (`DAB_JOBS` workers, default available
    /// parallelism), returning reports in submission order.
    pub fn run_many(&self, jobs: Vec<SweepJob<'_>>) -> Vec<SweepRun> {
        let workers = jobs_from_env().min(jobs.len().max(1));
        self.run_many_with_workers(jobs, workers)
    }

    /// Runs `jobs` on exactly `workers` scoped threads.
    ///
    /// Workers claim jobs from a shared index and deposit each report into
    /// the slot matching its submission position, so the returned order —
    /// and therefore everything derived from it — is independent of
    /// scheduling. Each job's report is deterministic for its effective
    /// seed, so results are invariant to `workers`.
    pub fn run_many_with_workers(&self, jobs: Vec<SweepJob<'_>>, workers: usize) -> Vec<SweepRun> {
        let total = jobs.len();
        let workers = workers.max(1).min(total.max(1));
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let sweep_started = Instant::now();
        let job_slots: Vec<Mutex<Option<SweepJob<'_>>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let result_slots: Vec<Mutex<Option<SweepRun>>> =
            (0..total).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let job = job_slots[i]
                        .lock()
                        .expect("sweep slot poisoned")
                        .take()
                        .expect("sweep job claimed twice");
                    let started = Instant::now();
                    let seed = job.seed.unwrap_or(self.seed);
                    let sim = GpuSim::new(self.gpu.clone(), job.model, NdetSource::seeded(seed));
                    let report = sim.run(job.kernels);
                    let elapsed = started.elapsed();
                    let label = job.label;
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    if self.verbose {
                        eprintln!(
                            "{}",
                            progress_line(
                                finished,
                                total,
                                &label,
                                report.cycles(),
                                elapsed,
                                sweep_started.elapsed()
                            )
                        );
                    }
                    crate::maybe_write_trace(&label, &report);
                    *result_slots[i].lock().expect("sweep slot poisoned") = Some(SweepRun {
                        label,
                        seed,
                        report,
                    });
                });
            }
        });
        result_slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot poisoned")
                    .expect("sweep job never completed")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dab_workloads::microbench::atomic_sum_grid;
    use dab_workloads::scale::Scale;

    fn tiny_runner() -> Runner {
        let mut r = Runner::at_scale(Scale::Ci);
        r.gpu = gpu_sim::config::GpuConfig::tiny();
        r
    }

    #[test]
    fn sweep_preserves_submission_order() {
        let r = tiny_runner();
        let grids: Vec<Vec<KernelGrid>> = (0..6)
            .map(|i| vec![atomic_sum_grid(64 + 32 * i, 0x2000_0000)])
            .collect();
        let mut sweep = Sweep::new(&r);
        let ids: Vec<JobId> = grids
            .iter()
            .enumerate()
            .map(|(i, g)| sweep.baseline(format!("job{i}"), g))
            .collect();
        let res = sweep.run_with_workers(3);
        assert_eq!(res.runs().len(), 6);
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(res.runs()[i].label, format!("job{i}"));
            assert_eq!(res.runs()[i].report.cycles(), res.cycles(*id));
        }
        // Bigger grids take longer; order must still match submission.
        assert!(res.runs()[5].report.cycles() > res.runs()[0].report.cycles());
    }

    #[test]
    fn seed_override_sticks() {
        let r = tiny_runner();
        let grid = vec![atomic_sum_grid(64, 0x2000_0000)];
        let mut sweep = Sweep::new(&r);
        sweep.push(SweepJob::new("seeded", Box::new(BaselineModel::new()), &grid).with_seed(7));
        let res = sweep.run_with_workers(1);
        assert_eq!(res.runs()[0].seed, 7);
    }

    #[test]
    fn worker_count_is_clamped() {
        let r = tiny_runner();
        let grid = vec![atomic_sum_grid(64, 0x2000_0000)];
        let mut sweep = Sweep::new(&r);
        sweep.baseline("only", &grid);
        let res = sweep.run_with_workers(64);
        assert_eq!(res.workers, 1);
    }

    fn fingerprint(run: &SweepRun) -> (u64, u64, String) {
        (
            run.report.cycles(),
            run.report.digest(),
            format!("{:?}", run.report.stats),
        )
    }

    #[test]
    fn jobs_resolve_their_effective_seeds() {
        // A job without `with_seed` reports the runner's seed, an override
        // sticks, and the inheriting job is bit-identical to an explicit
        // job with the same seed, at any worker count.
        let mut r = tiny_runner();
        r.seed = 5;
        let grid = vec![atomic_sum_grid(96, 0x2000_0000)];
        for workers in [1, 2] {
            let runs = r.run_many_with_workers(
                vec![
                    SweepJob::new("override7", Box::new(BaselineModel::new()), &grid).with_seed(7),
                    SweepJob::new("inherit", Box::new(BaselineModel::new()), &grid),
                    SweepJob::new("override5", Box::new(BaselineModel::new()), &grid).with_seed(5),
                ],
                workers,
            );
            assert_eq!(
                runs.iter().map(|x| x.seed).collect::<Vec<_>>(),
                vec![7, 5, 5],
                "workers={workers}"
            );
            assert_eq!(
                fingerprint(&runs[1]),
                fingerprint(&runs[2]),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn progress_line_reports_eta() {
        // 2 of 6 jobs done after 4s -> 4 remain at 2s/job -> eta 8s.
        let line = progress_line(
            2,
            6,
            "BC_1k/dab",
            1234,
            Duration::from_secs(1),
            Duration::from_secs(4),
        );
        assert!(line.contains("[  2/6 BC_1k/dab]"), "{line}");
        assert!(line.contains("1234 cycles"), "{line}");
        assert!(line.contains("eta 8.0s"), "{line}");
        // Everything done: eta hits zero.
        let last = progress_line(
            6,
            6,
            "tail",
            1,
            Duration::from_secs(1),
            Duration::from_secs(12),
        );
        assert!(last.contains("eta 0.0ns"), "{last}");
    }
}
