//! Property: the metrics surface honors the namespace contract end to
//! end.
//!
//! Random microbench grids — locked sections included — run under both
//! engines:
//!
//! - the **entire** `SimStats` value (fixed fields, every counter,
//!   every gauge) is bit-identical across repeated runs of one engine —
//!   including the coordinator-only `det.engine.*` family;
//! - across dense vs. event engines, everything *except* the
//!   engine-variant `det.engine.*` / `det.obs.*` families agrees
//!   exactly (those two families are what [`is_coordinator_only`]
//!   names, and differing across engines is their documented purpose);
//! - no `wall.*` key ever appears in the stats maps, and every key that
//!   does appear validates under [`obs::metrics::validate_name`] — the
//!   run-time panic in `SimStats::bump` is exercised here from the
//!   outside;
//! - turning the span profiler on changes nothing: cycles, digest, and
//!   the full stats value match a profiler-off run bit for bit, while
//!   the profile itself is actually populated (otherwise the invariance
//!   is vacuous).

mod common;

use proptest::prelude::*;

use common::{build_grid, decode, LANES};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::{GpuSim, RunReport};
use gpu_sim::exec::BaselineModel;
use gpu_sim::isa::{Instr, MemAccess, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpu_sim::stats::SimStats;

/// Runs `grid` under one configuration point.
fn run(grid: &KernelGrid, engine: EngineKind, profile: bool, seed: u64) -> RunReport {
    let mut cfg = GpuConfig::tiny();
    cfg.engine = engine;
    cfg.profile = profile;
    let sim = GpuSim::new(
        cfg,
        Box::new(BaselineModel::new()),
        NdetSource::seeded(seed),
    );
    sim.run(std::slice::from_ref(grid))
}

/// Asserts the wall-exclusion and naming half of the contract on
/// one stats value: every key present validates as `det.*`.
fn assert_keys_are_det(stats: &SimStats) {
    for key in stats.counters.keys().chain(stats.gauges.keys()) {
        let class = obs::metrics::validate_name(key);
        assert!(
            matches!(
                class,
                Ok(obs::metrics::MetricClass::DetArch | obs::metrics::MetricClass::DetEngine)
            ),
            "stats map carries non-det key {key:?} (validated as {class:?})"
        );
        assert!(
            !key.starts_with("wall."),
            "wall-clock key {key:?} leaked into the deterministic stats"
        );
    }
}

/// Whether a key names a coordinator-only family: counted by the engine
/// once per run (`det.engine.*`, `det.obs.*`) or host timing (`wall.*`).
fn is_coordinator_only(name: &str) -> bool {
    name.starts_with("det.engine.") || name.starts_with("det.obs.") || name.starts_with("wall.")
}

#[test]
fn coordinator_only_families() {
    assert!(is_coordinator_only("det.engine.sms_ticked"));
    assert!(is_coordinator_only("det.obs.samples"));
    assert!(is_coordinator_only("wall.phase.merge"));
    assert!(!is_coordinator_only("det.dab.flushes"));
    assert!(!is_coordinator_only("det.stall.l1_mshr"));
}

/// Strips the engine-variant coordinator families (`det.engine.*`,
/// `det.obs.*`) so two *different* engines can be compared on the
/// metrics that must agree.
fn engine_invariant(stats: &SimStats) -> SimStats {
    let mut s = stats.clone();
    s.counters.retain(|k, _| !is_coordinator_only(k));
    s.gauges.retain(|k, _| !is_coordinator_only(k));
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn stats_are_repeatable_and_engine_invariant(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u32..8, 0u64..4, 0u32..8), 1..6),
                1..3,
            ),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        let grid = build_grid(raw, decode);
        let mut per_engine: Vec<RunReport> = Vec::new();
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let base = run(&grid, engine, false, seed);
            assert_keys_are_det(&base.stats);
            // A repeated run must not move a single stats bit —
            // including the coordinator-only det.engine.* family.
            let again = run(&grid, engine, false, seed);
            prop_assert_eq!(
                &base.stats, &again.stats,
                "stats diverge between repeated runs ({:?})", engine
            );
            prop_assert_eq!(
                (base.cycles(), base.digest()),
                (again.cycles(), again.digest()),
                "results diverge between repeated runs ({:?})", engine
            );
            per_engine.push(base);
        }
        // Across engines everything but det.engine.* / det.obs.* agrees.
        let [dense, event] = per_engine.as_slice() else { unreachable!() };
        prop_assert_eq!(
            engine_invariant(&dense.stats),
            engine_invariant(&event.stats),
            "engine-invariant stats differ between dense and event"
        );
        prop_assert_eq!(
            (dense.cycles(), dense.digest()),
            (event.cycles(), event.digest()),
            "dense and event engines disagree on the run result"
        );
    }

    #[test]
    fn profiler_never_perturbs_the_run(
        raw in proptest::collection::vec(
            proptest::collection::vec(
                proptest::collection::vec((0u32..8, 0u64..4, 0u32..8), 1..6),
                1..3,
            ),
            1..5,
        ),
        seed in any::<u64>(),
    ) {
        let grid = build_grid(raw, decode);
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let off = run(&grid, engine, false, seed);
            let on = run(&grid, engine, true, seed);
            prop_assert!(off.profile.is_none());
            prop_assert!(
                on.profile.is_some(),
                "profiling was requested but no profile came back"
            );
            prop_assert_eq!(
                (off.cycles(), off.digest()),
                (on.cycles(), on.digest()),
                "profiler perturbed the run ({:?})", engine
            );
            prop_assert_eq!(
                &off.stats, &on.stats,
                "profiler perturbed the stats ({:?})", engine
            );
        }
    }
}

/// The profile returned by a profiled run must actually contain spans —
/// otherwise `profiler_never_perturbs_the_run` is vacuous.
#[test]
fn profiled_run_records_spans() {
    let program = WarpProgram::new(
        (0..8)
            .map(|i| Instr::Load {
                accesses: vec![MemAccess::per_lane_f32(0x1_0000 + i * 0x400, LANES)],
            })
            .collect(),
        LANES,
    );
    let grid = KernelGrid::new("loads", vec![CtaSpec::new(0, vec![program])]);
    let report = run(&grid, EngineKind::Event, true, 0);
    let profile = report.profile.expect("profiling was enabled");
    let folded = profile.to_collapsed("loads");
    assert!(
        folded.lines().count() >= 2,
        "expected several phase stacks, got:\n{folded}"
    );
    assert!(
        folded.lines().all(|l| l.starts_with("loads;")),
        "collapsed stacks must carry the workload prefix:\n{folded}"
    );
}
