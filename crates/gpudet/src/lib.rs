//! # GPUDet: strongly deterministic GPU execution (prior-work baseline)
//!
//! A reimplementation of the GPUDet architecture (Jooybar, Fung, O'Connor,
//! Devietti, Aamodt — ASPLOS 2013) as an execution model for the `gpu-sim`
//! substrate, used by the DAB paper (MICRO 2020) as its deterministic
//! baseline (Figs. 3 and 10).
//!
//! GPUDet provides *strong* determinism by handling **all** global memory
//! instructions, at a steep cost:
//!
//! - **Parallel mode**: each warp executes up to a fixed *quantum* of
//!   instructions; global stores are appended to per-warp store buffers
//!   instead of being written through. A warp ends its quantum early when
//!   it reaches an atomic instruction.
//! - **Commit mode**: once every warp has finished its quantum, store
//!   buffers are made globally visible in a deterministic order,
//!   accelerated by Z-buffer hardware (modeled as a commit latency
//!   proportional to the buffered volume).
//! - **Serial mode**: warps that stopped at atomics execute them *one at a
//!   time*, in deterministic warp-id order across the whole GPU —
//!   essentially serializing the machine, which is the dominant overhead on
//!   atomic-intensive workloads (Fig. 3).
//!
//! The per-mode cycle breakdown is exported through the statistics counters
//! `gpudet.parallel_cycles`, `gpudet.commit_cycles` and
//! `gpudet.serial_cycles`, which the `fig03_gpudet_breakdown` bench target
//! turns back into the paper's Fig. 3.
//!
//! # Examples
//!
//! ```
//! use gpudet::{GpuDetConfig, GpuDetModel};
//! use gpu_sim::config::GpuConfig;
//! use gpu_sim::engine::GpuSim;
//! use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
//! use gpu_sim::kernel::{CtaSpec, KernelGrid};
//! use gpu_sim::ndet::NdetSource;
//!
//! let cfg = GpuConfig::tiny();
//! let red = Instr::Red {
//!     op: AtomicOp::AddF32,
//!     accesses: (0..32)
//!         .map(|l| AtomicAccess::new(l, 0x100, Value::F32(0.5)))
//!         .collect(),
//! };
//! let cta = CtaSpec::new(0, vec![WarpProgram::new(vec![red], 32)]);
//! let grid = KernelGrid::new("sum", vec![cta]);
//! let model = GpuDetModel::new(&cfg, GpuDetConfig::default());
//! let report = GpuSim::new(cfg, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
//! assert_eq!(report.values.read_f32(0x100), 16.0);
//! ```

use std::collections::BTreeMap;

use gpu_sim::config::GpuConfig;
use gpu_sim::exec::{
    AtomicIssue, AtomicRoute, ExecutionModel, HookMask, ModelCtx, StoreRoute, WarpId,
};
use gpu_sim::kernel::CtaDistribution;
use gpu_sim::mem::packet::{AtomKind, WarpRef};
use gpu_sim::sched::SchedKind;

/// GPUDet tuning parameters.
///
/// The defaults follow the spirit of the original design: quanta long
/// enough to amortize commit, commits accelerated by Z-buffer hardware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GpuDetConfig {
    /// Warp instructions per quantum before a forced quantum end.
    pub quantum: u32,
    /// Fixed cycles of every commit phase (pipeline drain + Z-buffer setup).
    pub commit_base_cycles: u32,
    /// Store-buffer entries committed per cycle per memory partition.
    pub commit_entries_per_cycle: u32,
}

impl Default for GpuDetConfig {
    fn default() -> Self {
        Self {
            quantum: 200,
            commit_base_cycles: 50,
            commit_entries_per_cycle: 4,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Parallel,
    Commit,
    Serial,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WarpInfo {
    warp: WarpRef,
    issued: u32,
    /// Quantum over: budget exhausted or atomic completed in serial mode.
    done: bool,
    /// Stopped at an atomic; must run in serial mode.
    pending_atomic: bool,
    /// Waiting at a CTA barrier.
    at_barrier: bool,
}

/// The GPUDet execution model.
#[derive(Debug)]
pub struct GpuDetModel {
    cfg: GpuDetConfig,
    num_partitions: usize,
    /// Live warps keyed by deterministic unique id (the serial-mode order).
    warps: BTreeMap<u64, WarpInfo>,
    mode: Mode,
    mode_entered: u64,
    /// Store-buffer entries accumulated this quantum (whole GPU).
    store_entries: u64,
    commit_until: u64,
    /// Serial mode: the unique id currently holding the execution token.
    serial_current: Option<u64>,
    /// The current serial warp has issued and awaits its last write-back.
    awaiting_ack: bool,
    parallel_cycles: u64,
    commit_cycles: u64,
    serial_cycles: u64,
    quanta: u64,
    reported: [u64; 4],
    /// Trace mode copied from the GPU config; gates mode-change events.
    trace: obs::TraceMode,
    /// Deferred mode-transition trace events, drained by the engine after
    /// each tick (all pushes happen on the coordinating thread).
    trace_events: Vec<obs::Event>,
}

impl GpuDetModel {
    /// Builds a GPUDet model for the given machine.
    ///
    /// # Panics
    ///
    /// Panics if the quantum length is zero.
    pub fn new(gpu: &GpuConfig, cfg: GpuDetConfig) -> Self {
        assert!(cfg.quantum > 0, "quantum must be non-zero");
        Self {
            cfg,
            num_partitions: gpu.num_mem_partitions,
            warps: BTreeMap::new(),
            mode: Mode::Parallel,
            mode_entered: 0,
            store_entries: 0,
            commit_until: 0,
            serial_current: None,
            awaiting_ack: false,
            parallel_cycles: 0,
            commit_cycles: 0,
            serial_cycles: 0,
            quanta: 0,
            reported: [0; 4],
            trace: gpu.trace,
            trace_events: Vec::new(),
        }
    }

    /// The GPUDet parameters in use.
    pub fn gpudet_config(&self) -> &GpuDetConfig {
        &self.cfg
    }

    fn account_mode(&mut self, now: u64) {
        let elapsed = now.saturating_sub(self.mode_entered);
        match self.mode {
            Mode::Parallel => self.parallel_cycles += elapsed,
            Mode::Commit => self.commit_cycles += elapsed,
            Mode::Serial => self.serial_cycles += elapsed,
        }
        self.mode_entered = now;
    }

    fn enter_mode(&mut self, mode: Mode, now: u64) {
        self.account_mode(now);
        if self.trace.enabled() && mode != self.mode {
            self.trace_events.push(obs::Event::ModeChange {
                cycle: now,
                mode: match mode {
                    Mode::Parallel => obs::DetMode::Parallel,
                    Mode::Commit => obs::DetMode::Commit,
                    Mode::Serial => obs::DetMode::Serial,
                },
            });
        }
        self.mode = mode;
    }

    fn quantum_complete(&self) -> bool {
        !self.warps.is_empty()
            && self
                .warps
                .values()
                .all(|w| w.done || w.pending_atomic || w.at_barrier)
    }

    fn commit_duration(&self) -> u64 {
        let bw = (self.cfg.commit_entries_per_cycle as u64 * self.num_partitions as u64).max(1);
        self.cfg.commit_base_cycles as u64 + self.store_entries.div_ceil(bw)
    }

    fn start_commit(&mut self, now: u64) {
        self.enter_mode(Mode::Commit, now);
        self.commit_until = now + self.commit_duration();
        self.store_entries = 0;
        self.quanta += 1;
    }

    fn next_serial_warp(&self) -> Option<u64> {
        self.warps
            .iter()
            .find(|(_, w)| w.pending_atomic)
            .map(|(&u, _)| u)
    }

    fn start_new_quantum(&mut self, now: u64) {
        self.enter_mode(Mode::Parallel, now);
        for w in self.warps.values_mut() {
            w.issued = 0;
            w.done = false;
        }
        self.serial_current = None;
        self.awaiting_ack = false;
    }
}

impl ExecutionModel for GpuDetModel {
    fn name(&self) -> String {
        format!("gpudet-q{}", self.cfg.quantum)
    }

    fn scheduler_kind(&self) -> SchedKind {
        SchedKind::Gto
    }

    fn register_metrics(&self, registry: &mut obs::MetricsRegistry) {
        registry.counter(
            "det.gpudet.parallel_cycles",
            "cycles spent in parallel mode",
        );
        registry.counter("det.gpudet.commit_cycles", "cycles spent in commit mode");
        registry.counter("det.gpudet.serial_cycles", "cycles spent in serial mode");
        registry.counter("det.gpudet.quanta", "quantum rounds completed");
    }

    fn commit_hook_mask(&self) -> HookMask {
        // Quantum/serial-mode gating overrides `can_issue` for every warp,
        // so no cluster is ever eligible for the parallel commit path.
        HookMask::ALL
    }

    fn cta_distribution(&self, num_sms: usize) -> CtaDistribution {
        // GPUDet requires deterministic CTA distribution.
        CtaDistribution::Static {
            active_sms: num_sms,
        }
    }

    fn on_warp_spawn(&mut self, warp: WarpId) {
        self.warps.insert(
            warp.unique,
            WarpInfo {
                warp: WarpRef {
                    sm: warp.sched.sm,
                    slot: warp.slot,
                },
                issued: 0,
                done: false,
                pending_atomic: false,
                at_barrier: false,
            },
        );
    }

    fn on_warp_exit(&mut self, warp: WarpId) {
        self.warps.remove(&warp.unique);
        if self.serial_current == Some(warp.unique) {
            self.serial_current = None;
            self.awaiting_ack = false;
        }
    }

    fn can_issue(&mut self, warp: WarpId, is_atomic: bool, _cycle: u64) -> bool {
        match self.mode {
            Mode::Parallel => {
                let Some(w) = self.warps.get_mut(&warp.unique) else {
                    return false;
                };
                if w.done || w.pending_atomic {
                    return false;
                }
                if is_atomic {
                    // Reaching an atomic prematurely ends the quantum; the
                    // atomic itself runs in serial mode.
                    w.pending_atomic = true;
                    return false;
                }
                w.issued < self.cfg.quantum
            }
            Mode::Commit => false,
            Mode::Serial => {
                // Only the token holder may issue, and only its atomic.
                is_atomic && self.serial_current == Some(warp.unique) && !self.awaiting_ack
            }
        }
    }

    fn on_issue(&mut self, warp: WarpId, is_atomic: bool, _cycle: u64) {
        let mode = self.mode;
        let quantum = self.cfg.quantum;
        let Some(w) = self.warps.get_mut(&warp.unique) else {
            return;
        };
        w.issued += 1;
        if w.issued >= quantum && mode == Mode::Parallel {
            w.done = true;
        }
        if is_atomic && mode == Mode::Serial {
            self.awaiting_ack = true;
        }
    }

    fn on_atomic(&mut self, issue: AtomicIssue<'_>, _cycle: u64) -> AtomicRoute {
        debug_assert_eq!(self.mode, Mode::Serial, "atomics only issue in serial mode");
        debug_assert_eq!(self.serial_current, Some(issue.warp.unique));
        AtomicRoute::ToMemory
    }

    fn on_store(&mut self, _warp: WarpId, sectors: usize, _cycle: u64) -> StoreRoute {
        if self.mode == Mode::Parallel {
            self.store_entries += sectors as u64;
            StoreRoute::Buffered
        } else {
            StoreRoute::Direct
        }
    }

    fn on_barrier_wait(&mut self, warp: WarpId, _cycle: u64) {
        if let Some(w) = self.warps.get_mut(&warp.unique) {
            w.at_barrier = true;
        }
    }

    fn on_barrier_release(
        &mut self,
        _sm: usize,
        warps: &[WarpId],
        _cycle: u64,
    ) -> gpu_sim::exec::BarrierRelease {
        for id in warps {
            if let Some(w) = self.warps.get_mut(&id.unique) {
                w.at_barrier = false;
            }
        }
        gpu_sim::exec::BarrierRelease::Immediate
    }

    fn on_atomic_ack(&mut self, warp: WarpRef, _kind: AtomKind, remaining: u32, _cycle: u64) {
        if self.mode == Mode::Serial && self.awaiting_ack && remaining == 0 {
            if let Some(current) = self.serial_current {
                if self.warps.get(&current).map(|w| w.warp) == Some(warp) {
                    // The serial warp's atomic fully retired: its quantum is
                    // over; pass the token.
                    if let Some(w) = self.warps.get_mut(&current) {
                        w.pending_atomic = false;
                        w.done = true;
                    }
                    self.serial_current = None;
                    self.awaiting_ack = false;
                }
            }
        }
    }

    fn tick(&mut self, ctx: &mut ModelCtx<'_>) {
        match self.mode {
            Mode::Parallel => {
                if ctx.kernel_fully_dispatched && self.warps.is_empty() && self.store_entries > 0 {
                    // Kernel drained with uncommitted stores: final commit.
                    self.start_commit(ctx.cycle);
                } else if self.quantum_complete() {
                    self.start_commit(ctx.cycle);
                }
            }
            Mode::Commit => {
                if ctx.cycle >= self.commit_until {
                    if let Some(next) = self.next_serial_warp() {
                        self.serial_current = Some(next);
                        self.awaiting_ack = false;
                        self.enter_mode(Mode::Serial, ctx.cycle);
                    } else {
                        self.start_new_quantum(ctx.cycle);
                    }
                }
            }
            Mode::Serial => {
                if self.serial_current.is_none() {
                    match self.next_serial_warp() {
                        Some(next) => self.serial_current = Some(next),
                        None => self.start_new_quantum(ctx.cycle),
                    }
                }
            }
        }
        self.account_mode(ctx.cycle);
        // Report counter deltas.
        let totals = [
            self.parallel_cycles,
            self.commit_cycles,
            self.serial_cycles,
            self.quanta,
        ];
        let names = [
            "det.gpudet.parallel_cycles",
            "det.gpudet.commit_cycles",
            "det.gpudet.serial_cycles",
            "det.gpudet.quanta",
        ];
        for i in 0..4 {
            let delta = totals[i] - self.reported[i];
            if delta > 0 {
                ctx.stats.bump(names[i], delta);
                self.reported[i] = totals[i];
            }
        }
    }

    fn take_trace_events(&mut self) -> Vec<obs::Event> {
        std::mem::take(&mut self.trace_events)
    }

    fn buffered_entries(&self) -> u64 {
        self.store_entries
    }

    fn allow_dispatch(&self) -> bool {
        self.mode == Mode::Parallel
    }

    fn quiescent(&self) -> bool {
        self.mode == Mode::Parallel && self.store_entries == 0 && self.serial_current.is_none()
    }

    fn needs_tick(&self) -> bool {
        // In parallel mode `tick` only checks quantum completion, whose
        // inputs (per-warp issue counts, warp arrivals/retirements, dispatch
        // status) change only on engine-visited cycles and are re-checked
        // the same cycle; the mode-accounting totals telescope across a
        // gap. Commit and serial modes advance on their own clock and must
        // tick every cycle.
        self.mode != Mode::Parallel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::engine::GpuSim;
    use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
    use gpu_sim::kernel::{CtaSpec, KernelGrid};
    use gpu_sim::ndet::NdetSource;

    fn order_sensitive_grid(ctas: usize) -> KernelGrid {
        let specs = (0..ctas)
            .map(|c| {
                CtaSpec::new(
                    c,
                    vec![WarpProgram::new(
                        vec![
                            Instr::Alu {
                                cycles: 2,
                                count: 6,
                            },
                            Instr::Red {
                                op: AtomicOp::AddF32,
                                accesses: (0..32)
                                    .map(|l| {
                                        let v = 0.1f32 * (c * 32 + l + 1) as f32;
                                        AtomicAccess::new(l, 0x400, Value::F32(v))
                                    })
                                    .collect(),
                            },
                        ],
                        32,
                    )],
                )
            })
            .collect();
        KernelGrid::new("sensitive", specs)
    }

    fn run(seed: u64, ctas: usize) -> gpu_sim::engine::RunReport {
        let gpu = GpuConfig::tiny();
        let model = GpuDetModel::new(&gpu, GpuDetConfig::default());
        GpuSim::new(gpu, Box::new(model), NdetSource::seeded(seed))
            .run(&[order_sensitive_grid(ctas)])
    }

    #[test]
    fn gpudet_is_deterministic_across_seeds() {
        let digests: Vec<u64> = (0..4).map(|s| run(s, 12).digest()).collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "GPUDet must be deterministic: {digests:?}"
        );
    }

    #[test]
    fn computes_correct_integer_sum() {
        let gpu = GpuConfig::tiny();
        let grid = KernelGrid::new(
            "sum",
            (0..6)
                .map(|c| {
                    CtaSpec::new(
                        c,
                        vec![WarpProgram::new(
                            vec![Instr::Red {
                                op: AtomicOp::AddU32,
                                accesses: (0..32)
                                    .map(|l| AtomicAccess::new(l, 0x80, Value::U32(1)))
                                    .collect(),
                            }],
                            32,
                        )],
                    )
                })
                .collect(),
        );
        let model = GpuDetModel::new(&gpu, GpuDetConfig::default());
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(2)).run(&[grid]);
        assert_eq!(report.values.read_u32(0x80), 192);
    }

    #[test]
    fn serial_mode_dominates_atomic_workloads() {
        let report = run(1, 16);
        let serial = report.stats.counter("det.gpudet.serial_cycles");
        let parallel = report.stats.counter("det.gpudet.parallel_cycles");
        assert!(serial > 0, "serial mode must be exercised");
        assert!(
            serial > parallel,
            "atomic-heavy workloads should be serial-dominated: serial={serial} parallel={parallel}"
        );
    }

    #[test]
    fn slower_than_baseline_on_atomics() {
        let gpu = GpuConfig::tiny();
        let baseline = GpuSim::new(
            gpu.clone(),
            Box::new(gpu_sim::exec::BaselineModel::new()),
            NdetSource::seeded(1),
        )
        .run(&[order_sensitive_grid(16)]);
        let gpudet = run(1, 16);
        assert!(
            gpudet.cycles() > baseline.cycles(),
            "GPUDet ({}) should be slower than baseline ({})",
            gpudet.cycles(),
            baseline.cycles()
        );
    }

    #[test]
    fn stores_are_buffered_and_committed() {
        let gpu = GpuConfig::tiny();
        let grid = KernelGrid::new(
            "stores",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![
                        Instr::Store {
                            accesses: vec![gpu_sim::isa::MemAccess::per_lane_f32(0x1000, 32)],
                        },
                        Instr::Alu {
                            cycles: 1,
                            count: 4,
                        },
                    ],
                    32,
                )],
            )],
        );
        let model = GpuDetModel::new(&gpu, GpuDetConfig::default());
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        // Stores never hit the network in parallel mode.
        assert_eq!(report.stats.mem_transactions, 0);
        assert!(report.stats.counter("det.gpudet.commit_cycles") > 0);
    }

    #[test]
    fn barriers_work_under_quanta() {
        let gpu = GpuConfig::tiny();
        let prog = |spin: u32| {
            WarpProgram::new(
                vec![
                    Instr::Alu {
                        cycles: 1,
                        count: spin,
                    },
                    Instr::Bar,
                    Instr::Red {
                        op: AtomicOp::AddU32,
                        accesses: vec![AtomicAccess::new(0, 0x40, Value::U32(1))],
                    },
                ],
                32,
            )
        };
        // One warp needs several quanta of ALU work before the barrier.
        let grid = KernelGrid::new("bar", vec![CtaSpec::new(0, vec![prog(4), prog(900)])]);
        let model = GpuDetModel::new(&gpu, GpuDetConfig::default());
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        assert_eq!(report.values.read_u32(0x40), 2);
        assert!(report.stats.counter("det.gpudet.quanta") >= 2);
    }

    #[test]
    fn quantum_limits_issue() {
        let gpu = GpuConfig::tiny();
        let cfg = GpuDetConfig {
            quantum: 10,
            ..GpuDetConfig::default()
        };
        let grid = KernelGrid::new(
            "alu",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![Instr::Alu {
                        cycles: 1,
                        count: 35,
                    }],
                    32,
                )],
            )],
        );
        let model = GpuDetModel::new(&gpu, cfg);
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        // 35 instructions at quantum 10 -> at least 4 quanta.
        assert!(report.stats.counter("det.gpudet.quanta") >= 3);
    }

    #[test]
    fn mode_cycles_cover_runtime() {
        let report = run(1, 8);
        let covered = report.stats.counter("det.gpudet.parallel_cycles")
            + report.stats.counter("det.gpudet.commit_cycles")
            + report.stats.counter("det.gpudet.serial_cycles");
        assert!(covered > 0);
        assert!(covered <= report.cycles() + 1);
    }

    #[test]
    #[should_panic(expected = "quantum must be non-zero")]
    fn zero_quantum_rejected() {
        GpuDetModel::new(
            &GpuConfig::tiny(),
            GpuDetConfig {
                quantum: 0,
                ..GpuDetConfig::default()
            },
        );
    }
}
