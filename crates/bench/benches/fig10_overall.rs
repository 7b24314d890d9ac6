//! Fig. 10: overall performance of DAB (GWAT-64-AF-Coalescing) compared to
//! GPUDet and the non-deterministic baseline, normalized to the baseline.
//!
//! Expected shape: DAB within tens of percent of the baseline (the paper
//! reports a 23% geomean slowdown), GPUDet 2-4x slower than DAB.

use analysis::{analyze_benchmark, Class};
use dab::DabConfig;
use dab_bench::{banner, geomean, ratio, ResultsSink, Runner, Sweep, Table};
use dab_workloads::suite::full_suite;

fn main() {
    let runner = Runner::from_env();
    banner(
        "Fig 10",
        "DAB (GWAT-64-AF-Coalescing) vs GPUDet vs baseline",
        &runner,
    );
    let suite = full_suite(runner.scale);
    let mut sweep = Sweep::new(&runner);
    let ids: Vec<_> = suite
        .iter()
        .map(|b| {
            (
                sweep.baseline(format!("{}/baseline", b.name), &b.kernels),
                sweep.dab(
                    format!("{}/dab", b.name),
                    DabConfig::paper_default(),
                    &b.kernels,
                ),
                sweep.gpudet(format!("{}/gpudet", b.name), &b.kernels),
            )
        })
        .collect();
    let results = sweep.run();

    let mut t = Table::new(&["benchmark", "baseline", "DAB", "GPUDet", "GPUDet/DAB"]);
    let mut dab_ratios = Vec::new();
    let mut det_ratios = Vec::new();
    for (b, &(base_id, dab_id, det_id)) in suite.iter().zip(&ids) {
        let base = results.cycles(base_id) as f64;
        let dab = results.cycles(dab_id) as f64;
        let det = results.cycles(det_id) as f64;
        dab_ratios.push(dab / base);
        det_ratios.push(det / base);
        t.row(vec![
            b.name.clone(),
            "1.00x".to_string(),
            ratio(dab / base),
            ratio(det / base),
            ratio(det / dab),
        ]);
    }
    println!();
    t.print();
    println!();
    println!(
        "geomean: DAB {} vs baseline (paper: 1.23x), GPUDet {} vs baseline,",
        ratio(geomean(&dab_ratios)),
        ratio(geomean(&det_ratios))
    );
    println!(
        "         GPUDet/DAB {} (paper: DAB outperforms GPUDet 2-4x)",
        ratio(geomean(&det_ratios) / geomean(&dab_ratios))
    );

    // Static hazard context for the same suite: which of the measured
    // slowdowns buy full determinism (no weak-det-ok sites left) and which
    // only weak determinism. Runs the dab-analyze passes in-process.
    let mut hazards = Table::new(&["benchmark", "benign", "weak-det-ok", "hazard"]);
    let mut hazard_sites = 0u64;
    for b in &suite {
        let report = analyze_benchmark(b);
        hazard_sites += report.class_sites(Class::Hazard);
        hazards.row(vec![
            b.name.clone(),
            report.class_sites(Class::Benign).to_string(),
            report.class_sites(Class::WeakDetOk).to_string(),
            report.class_sites(Class::Hazard).to_string(),
        ]);
    }
    println!();
    println!("static determinism analysis (dab-analyze):");
    hazards.print();

    // Engine-activity counters for the DAB runs: how much work the cycle
    // loop actually did. Dense and event engines report different values by
    // design (the event engine skips provably idle cycles), so the
    // engine-equivalence CI diff strips this table along with wall-clock.
    let mut activity = Table::new(&[
        "benchmark",
        "cycles",
        "skipped",
        "wakeups",
        "sms_ticked",
        "sched_scans",
        "parts_ticked",
    ]);
    for (b, &(_, dab_id, _)) in suite.iter().zip(&ids) {
        let s = &results[dab_id].stats;
        activity.row(vec![
            b.name.clone(),
            s.cycles.to_string(),
            s.counter("det.engine.cycles_skipped").to_string(),
            s.counter("det.engine.wakeup_events").to_string(),
            s.counter("det.engine.sms_ticked").to_string(),
            s.counter("det.engine.scheduler_scans").to_string(),
            s.counter("det.engine.partitions_ticked").to_string(),
        ]);
    }
    println!();
    println!(
        "engine activity (DAB runs, {} engine):",
        format!("{:?}", runner.gpu.engine).to_lowercase()
    );
    activity.print();

    let mut sink = ResultsSink::new("fig10_overall", &runner);
    sink.sweep(&results)
        .metric("geomean_dab_vs_baseline", geomean(&dab_ratios))
        .metric("geomean_gpudet_vs_baseline", geomean(&det_ratios))
        .metric("hazard_sites", hazard_sites as f64)
        .table("main", &t)
        .table("hazard_classes", &hazards)
        .table("engine_activity", &activity);
    sink.write();
}
