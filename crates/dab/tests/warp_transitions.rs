//! Conservation over the warp state machine's transition pair.
//!
//! Every park and every wake goes through one function each, which also
//! records the trace's `Sleep` (`Z`) and `Wake` (`W`) events and counts
//! `det.engine.wakeup_events`. So in a full trace, each warp slot's events
//! must alternate sleep, wake, sleep, … with matching reason and site,
//! except that a barrier the model releases into the flush epoch moves its
//! waiters straight on to a flush sleep. No warp may end asleep, and the
//! wake events must equal the counter.
//!
//! The kernels reach every park site (lock, load, atom, barrier, fence
//! drain, flush wait, retire drain) and every wake site (barrier release,
//! flush wake, atom ack, load response, store drain, lock grant) under the
//! baseline and scheduler- and warp-level DAB, on both engines.
//!
//! DAB records a `BufFill` (`B`) event in its atomic hook, inside the issue
//! walk, so each one must be followed directly by the `Issue` of its `red`
//! at the same cycle, SM and scheduler.

use std::collections::{BTreeMap, BTreeSet};

use dab::{DabConfig, DabModel};
use gpu_sim::config::{EngineKind, GpuConfig};
use gpu_sim::engine::GpuSim;
use gpu_sim::exec::{BaselineModel, ExecutionModel};
use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, LockKind, MemAccess, Value, WarpProgram};
use gpu_sim::kernel::{CtaSpec, KernelGrid};
use gpu_sim::ndet::NdetSource;
use gpu_sim::sched::SchedKind;
use obs::{Event, InstrKind, SleepReason, TraceMode, WakeSite};

/// 8 CTAs of 4 warps. Each warp loads, blocks on an `atom`, issues
/// enough `red`s to fill a 32-entry buffer, crosses a `bar`, stores,
/// fences, and ends on a store still in flight (the retire drain).
fn mixed_grid() -> KernelGrid {
    let red = |c: usize, w: usize, k: usize| Instr::Red {
        op: AtomicOp::AddF32,
        accesses: (0..32)
            .map(|l| {
                let addr = 0x1000 + 4 * ((l * 7 + w * 3 + k * 5) as u64 % 48);
                AtomicAccess::new(l, addr, Value::F32(0.5 * ((c + w + l + k) % 7 + 1) as f32))
            })
            .collect(),
    };
    let ctas = (0..8)
        .map(|c| {
            let warps = (0..4)
                .map(|w| {
                    let base = 0x10_0000 + 0x1000 * (c * 4 + w) as u64;
                    let mut instrs = vec![
                        Instr::Alu {
                            cycles: 2,
                            count: 1 + (c + w) as u32 % 3,
                        },
                        Instr::Load {
                            accesses: vec![MemAccess::per_lane_f32(base, 32)],
                        },
                        Instr::Atom {
                            op: AtomicOp::AddU32,
                            accesses: vec![AtomicAccess::new(0, 0x800, Value::U32(1))],
                        },
                    ];
                    instrs.extend((0..3).map(|k| red(c, w, k)));
                    instrs.push(Instr::Bar);
                    instrs.push(Instr::Store {
                        accesses: vec![MemAccess::per_lane_f32(base + 0x200, 32)],
                    });
                    instrs.push(Instr::Fence);
                    instrs.extend((3..5).map(|k| red(c, w, k)));
                    instrs.push(Instr::Store {
                        accesses: vec![MemAccess::strided(base + 0x400, 32, 128)],
                    });
                    WarpProgram::new(instrs, 32)
                })
                .collect();
            CtaSpec::new(c, warps)
        })
        .collect();
    KernelGrid::new("mixed", ctas)
}

/// 6 CTAs of 2 warps, each warp taking two locked sections on one of two
/// locks, so lanes queue behind each other and are granted in turn.
fn lock_grid() -> KernelGrid {
    let section = |lock: u64, lanes: usize| Instr::LockedSection {
        kind: LockKind::TestAndTestAndSet,
        lock_addr: 0xF000 + 0x100 * lock,
        op: AtomicOp::AddF32,
        accesses: (0..lanes)
            .map(|l| AtomicAccess::new(l, 0x2000 + 4 * lock, Value::F32(1.0)))
            .collect(),
        critical_cycles: 3,
    };
    let ctas = (0..6)
        .map(|c| {
            let warps = (0..2)
                .map(|w| {
                    let lock = ((c + w) % 2) as u64;
                    WarpProgram::new(
                        vec![
                            Instr::Alu {
                                cycles: 1,
                                count: 1 + w as u32,
                            },
                            section(lock, 4),
                            section(1 - lock, 2),
                        ],
                        4,
                    )
                })
                .collect();
            CtaSpec::new(c, warps)
        })
        .collect();
    KernelGrid::new("locks", ctas)
}

/// The wake site that ends a sleep for `reason`.
fn ends(reason: SleepReason) -> WakeSite {
    match reason {
        SleepReason::Mem => WakeSite::LoadResp,
        SleepReason::Atom => WakeSite::AtomAck,
        SleepReason::Drain => WakeSite::StoreDrain,
        SleepReason::Lock => WakeSite::LockGrant,
        SleepReason::Barrier => WakeSite::Barrier,
        SleepReason::Flush => WakeSite::Flush,
    }
}

/// What one run's trace held.
#[derive(Default)]
struct Seen {
    sleeps: BTreeSet<&'static str>,
    wakes: BTreeSet<&'static str>,
    /// Barrier sleeps followed directly by a flush sleep.
    barrier_to_flush: u64,
    /// `BufFill` events, each checked to precede its `red`'s issue.
    buf_fills: u64,
}

/// Runs `grid` under `model` with full tracing and checks the
/// conservation laws on the trace.
fn check(
    label: &str,
    grid: &KernelGrid,
    model: Box<dyn ExecutionModel>,
    engine: EngineKind,
) -> Seen {
    let mut cfg = GpuConfig::tiny();
    cfg.engine = engine;
    cfg.trace = TraceMode::Full;
    let report = GpuSim::new(cfg, model, NdetSource::seeded(3)).run(std::slice::from_ref(grid));
    let trace = report.trace.expect("full tracing is on");
    let at = format!("{label} on {engine:?}");
    // Per slot, the sleep the warp is in (if any).
    let mut asleep: BTreeMap<(u32, u32), SleepReason> = BTreeMap::new();
    let (mut seen, mut wakes) = (Seen::default(), 0);
    for (i, ev) in trace.arch.iter().enumerate() {
        match *ev {
            Event::BufFill {
                cycle, sm, sched, ..
            } => {
                let next = trace.arch.get(i + 1);
                assert!(
                    matches!(next, Some(&Event::Issue { cycle: c, sm: s, sched: q, kind, .. })
                        if (c, s, q, kind) == (cycle, sm, sched, InstrKind::Red)),
                    "{at}: buffer fill at cycle {cycle} SM {sm} scheduler {sched} is followed \
                     by {next:?}, not by the issue of its red"
                );
                seen.buf_fills += 1;
            }
            Event::Sleep {
                cycle,
                sm,
                slot,
                reason,
            } => {
                match asleep.insert((sm, slot), reason) {
                    None => {}
                    Some(SleepReason::Barrier) if reason == SleepReason::Flush => {
                        seen.barrier_to_flush += 1;
                    }
                    Some(prev) => panic!(
                        "{at}: SM {sm} slot {slot} sleeps for {} at cycle {cycle} while \
                         asleep for {}",
                        reason.as_str(),
                        prev.as_str()
                    ),
                }
                seen.sleeps.insert(reason.as_str());
            }
            Event::Wake {
                cycle,
                sm,
                slot,
                site,
            } => {
                let Some(reason) = asleep.remove(&(sm, slot)) else {
                    panic!("{at}: SM {sm} slot {slot} wakes at cycle {cycle} while awake");
                };
                assert_eq!(
                    site,
                    ends(reason),
                    "{at}: SM {sm} slot {slot} slept for {} but woke at {} (cycle {cycle})",
                    reason.as_str(),
                    site.as_str()
                );
                seen.wakes.insert(site.as_str());
                wakes += 1;
            }
            _ => {}
        }
    }
    assert!(asleep.is_empty(), "{at}: warps end asleep: {asleep:?}");
    assert_eq!(
        wakes,
        report.stats.counter("det.engine.wakeup_events"),
        "{at}: wake events vs det.engine.wakeup_events"
    );
    assert_eq!(
        report.stats.counter("det.engine.cycles_skipped") == 0,
        engine == EngineKind::Dense,
        "{at}: only the event engine skips cycles"
    );
    seen
}

#[test]
fn every_sleep_ends_in_its_wake_and_the_wakes_are_counted() {
    let dab = || {
        DabConfig::paper_default()
            .with_capacity(32)
            .with_scheduler(SchedKind::Gwat)
    };
    let (mut sleeps, mut wakes) = (BTreeSet::new(), BTreeSet::new());
    for engine in [EngineKind::Dense, EngineKind::Event] {
        let cfg = GpuConfig::tiny();
        let runs: [(&str, KernelGrid, Box<dyn ExecutionModel>); 5] = [
            (
                "baseline mixed",
                mixed_grid(),
                Box::new(BaselineModel::new()),
            ),
            (
                "baseline locks",
                lock_grid(),
                Box::new(BaselineModel::new()),
            ),
            (
                "DAB mixed",
                mixed_grid(),
                Box::new(DabModel::new(&cfg, dab())),
            ),
            (
                "warp-level DAB mixed",
                mixed_grid(),
                Box::new(DabModel::new(&cfg, DabConfig::warp_level())),
            ),
            (
                "DAB locks",
                lock_grid(),
                Box::new(DabModel::new(&cfg, dab())),
            ),
        ];
        for (label, grid, model) in runs {
            let seen = check(label, &grid, model, engine);
            if label == "DAB mixed" {
                // DAB releases every barrier into the flush epoch.
                assert!(seen.barrier_to_flush > 0, "{label} on {engine:?}");
            }
            if label.ends_with("DAB mixed") {
                assert!(seen.buf_fills > 0, "{label} on {engine:?} buffers no red");
            }
            sleeps.extend(seen.sleeps);
            wakes.extend(seen.wakes);
        }
    }
    let all_sleeps = ["atom", "barrier", "drain", "flush", "lock", "mem"];
    let all_wakes = [
        "atom_ack",
        "barrier",
        "flush",
        "load_resp",
        "lock_grant",
        "store_drain",
    ];
    assert_eq!(
        sleeps,
        all_sleeps.into_iter().collect(),
        "park sites reached"
    );
    assert_eq!(wakes, all_wakes.into_iter().collect(), "wake sites reached");
}
