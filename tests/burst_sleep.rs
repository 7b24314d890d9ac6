//! The event engine's burst sleeps happen.
//!
//! A scheduler whose greedy warp issues an ALU instruction with two or more
//! issues of its burst left sleeps until the burst's last issue or until
//! one of its views changes, and its next visit credits the issues in
//! between. The oracle's `long_bursts` row (`tests/oracle.rs`) checks that
//! these sleeps are exact under every greedy policy; this pins that they
//! are taken, GPUDet's included, whose quantum caps each sleep.

#[path = "../crates/gpu-sim/tests/common/mod.rs"]
mod common;

use common::{baseline, build_grid, run, Barriers, ModelFn, Op};
use dab::{DabConfig, DabModel};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::exec::ExecutionModel;
use gpu_sim::ndet::NdetSource;
use gpu_sim::sched::SchedKind;
use gpudet::{GpuDetConfig, GpuDetModel};

/// On a grid of long bursts the event engine visits an SM fewer than once
/// per ten issues under the greedy policies and under GPUDet, whose
/// default quantum holds each warp's whole program.
#[test]
fn long_bursts_sleep_under_every_model() {
    let warp = |w: u64| {
        vec![
            (Op::Alu, w % 4, 63),
            (Op::Load, w % 4, 0),
            (Op::Alu, w % 4, 47),
        ]
    };
    let raw = (0..4)
        .map(|c| (0..3).map(|w| warp(c + w)).collect())
        .collect();
    let grid = build_grid(raw, 8, Barriers::PerCta);
    fn dab(gpu: &GpuConfig, kind: SchedKind) -> Box<dyn ExecutionModel> {
        let cfg = DabConfig::paper_default().with_scheduler(kind);
        Box::new(DabModel::new(gpu, cfg))
    }
    let models: [(&str, ModelFn); 5] = [
        ("baseline", baseline),
        ("dab-gwat", |gpu| dab(gpu, SchedKind::Gwat)),
        ("dab-gtar", |gpu| dab(gpu, SchedKind::Gtar)),
        ("dab-gtrr", |gpu| dab(gpu, SchedKind::Gtrr)),
        ("gpudet", |gpu| {
            Box::new(GpuDetModel::new(gpu, GpuDetConfig::default()))
        }),
    ];
    let visits = models.map(|(name, model)| {
        let r = run(
            &grid,
            &GpuConfig::tiny(),
            model,
            EngineKind::Event,
            NdetSource::seeded(1),
        );
        assert_eq!(r.stats.warp_instrs, 12 * 113, "{name}");
        r.stats.counter("det.engine.sms_ticked")
    });
    for ((name, _), &n) in models.iter().zip(&visits) {
        assert!(n * 10 < 12 * 113, "{name}: {n} SM visits");
    }
}
