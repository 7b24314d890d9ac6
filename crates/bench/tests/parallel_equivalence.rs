//! Serial-vs-parallel equivalence: the sweep layer's worker count is a
//! throughput knob, never a results knob. A mixed baseline/DAB/GPUDet
//! sweep run with one worker and with four must produce bit-identical
//! digests, cycle counts and stats in the same submission order.

use dab::DabConfig;
use dab_bench::{Runner, Sweep};
use dab_workloads::microbench::atomic_sum_grid;
use dab_workloads::scale::Scale;
use gpu_sim::config::GpuConfig;
use gpu_sim::kernel::KernelGrid;

fn tiny_runner() -> Runner {
    let mut r = Runner::at_scale(Scale::Ci);
    r.gpu = GpuConfig::tiny();
    r
}

fn mixed_sweep<'k>(runner: &Runner, grids: &'k [Vec<KernelGrid>]) -> Sweep<'k> {
    let mut sweep = Sweep::new(runner);
    for (i, grid) in grids.iter().enumerate() {
        sweep.baseline(format!("g{i}/baseline"), grid);
        sweep.dab(format!("g{i}/dab"), DabConfig::paper_default(), grid);
        sweep.gpudet(format!("g{i}/gpudet"), grid);
    }
    sweep
}

#[test]
fn worker_count_never_changes_results() {
    let runner = tiny_runner();
    let grids: Vec<Vec<KernelGrid>> = (0..3)
        .map(|i| vec![atomic_sum_grid(96 + 64 * i, 0x2000_0000)])
        .collect();

    let serial = mixed_sweep(&runner, &grids).run_with_workers(1);
    let parallel = mixed_sweep(&runner, &grids).run_with_workers(4);

    assert_eq!(serial.runs().len(), 9);
    assert_eq!(parallel.runs().len(), 9);
    assert_eq!(serial.workers, 1);
    assert_eq!(parallel.workers, 4);

    for (s, p) in serial.runs().iter().zip(parallel.runs()) {
        assert_eq!(s.label, p.label, "submission order must be preserved");
        assert_eq!(
            s.seed, p.seed,
            "{}: seed drifted across worker counts",
            s.label
        );
        assert_eq!(
            s.report.cycles(),
            p.report.cycles(),
            "{}: cycle count depends on DAB_JOBS",
            s.label
        );
        assert_eq!(
            s.report.digest(),
            p.report.digest(),
            "{}: memory digest depends on DAB_JOBS",
            s.label
        );
        assert_eq!(
            format!("{:?}", s.report.stats),
            format!("{:?}", p.report.stats),
            "{}: stats depend on DAB_JOBS",
            s.label
        );
    }
}

#[test]
fn figure_suite_scale_matches_across_worker_counts() {
    // The CI figure scale (GpuConfig::small, 8 clusters) with a DAB and a
    // GPUDet run: one and two sweep workers agree bit-for-bit, stats
    // counters included.
    let grids = vec![vec![atomic_sum_grid(256, 0x2000_0000)]];
    let runner = Runner::at_scale(Scale::Ci);
    let serial = mixed_sweep(&runner, &grids).run_with_workers(1);
    let parallel = mixed_sweep(&runner, &grids).run_with_workers(2);
    assert_eq!(serial.runs().len(), parallel.runs().len());
    for (s, p) in serial.runs().iter().zip(parallel.runs()) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.report.cycles(), p.report.cycles(), "{}", s.label);
        assert_eq!(s.report.digest(), p.report.digest(), "{}", s.label);
        assert_eq!(
            format!("{:?}", s.report.stats),
            format!("{:?}", p.report.stats),
            "{}: stats depend on DAB_JOBS",
            s.label
        );
    }
}

#[test]
fn deterministic_models_agree_across_worker_counts_and_seeds() {
    // DAB and GPUDet promise seed-independence too: re-run the parallel
    // sweep under a different timing seed and check the deterministic
    // models' digests are unchanged while the baseline's may drift.
    let mut runner = tiny_runner();
    let grids: Vec<Vec<KernelGrid>> = vec![vec![atomic_sum_grid(128, 0x2000_0000)]];

    runner.seed = 1;
    let a = mixed_sweep(&runner, &grids).run_with_workers(4);
    runner.seed = 9;
    let b = mixed_sweep(&runner, &grids).run_with_workers(2);

    for (ra, rb) in a.runs().iter().zip(b.runs()) {
        assert_eq!(ra.label, rb.label);
        if ra.label.ends_with("/dab") || ra.label.ends_with("/gpudet") {
            assert_eq!(
                ra.report.digest(),
                rb.report.digest(),
                "{}: deterministic model digest changed with timing seed",
                ra.label
            );
        }
    }
}
