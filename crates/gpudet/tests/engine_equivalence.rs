//! GPUDet's parked warps stay parked on the event engine.
//!
//! GPUDet is the one model whose `can_issue` refuses warps, and the event
//! engine parks every refused warp until the model reopens issue from its
//! tick (a new serial token holder, a new quantum). The oracle's
//! `gpudet_quanta` row (`tests/oracle.rs`) checks that both engines agree
//! on random grids at every quantum; this pins that the parking saves
//! visits.

#[path = "../../gpu-sim/tests/common/mod.rs"]
mod common;

use common::{build_grid, run, Barriers, Op, Outcome};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::ndet::NdetSource;
use gpudet::{GpuDetConfig, GpuDetModel};

/// On a serial-dominated grid only the token holder may issue, so the
/// event engine must not visit every SM on every cycle: parked warps stay
/// parked until the model reopens issue.
#[test]
fn serial_mode_parks_refused_warps() {
    let warp = vec![
        (Op::Alu, 1, 0),
        (Op::RedStrided, 0, 0),
        (Op::Alu, 1, 2),
        (Op::RedStrided, 0, 0),
    ];
    let grid = build_grid(vec![vec![warp; 4]; 24], 32, Barriers::PerCta);
    let at = |engine| {
        run(
            &grid,
            &GpuConfig::tiny(),
            |gpu| Box::new(GpuDetModel::new(gpu, GpuDetConfig::default())),
            engine,
            NdetSource::seeded(7),
        )
    };
    let (event, dense) = (at(EngineKind::Event), at(EngineKind::Dense));
    assert_eq!(Outcome::of(&event), Outcome::of(&dense));
    let ticked = |r: &gpu_sim::engine::RunReport| r.stats.counter("det.engine.sms_ticked");
    assert!(
        ticked(&event) * 4 <= ticked(&dense),
        "event engine ticked {} SMs, dense {}",
        ticked(&event),
        ticked(&dense)
    );
}
