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
//! `det.gpudet.parallel_cycles`, `det.gpudet.commit_cycles` and
//! `det.gpudet.serial_cycles` (next to `det.gpudet.quanta`), which the
//! `fig03_gpudet_breakdown` bench target turns back into the paper's Fig. 3.
//! The model bumps them, and traces its mode changes, through the
//! [`ModelCtx`] of the tick that changes mode.
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
use gpu_sim::exec::{AtomicIssue, AtomicRoute, ExecutionModel, ModelCtx, StoreRoute, WarpId};
use gpu_sim::kernel::CtaDistribution;
use gpu_sim::mem::packet::{AtomKind, WarpRef};
use gpu_sim::sm::WarpState;

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
}

/// The GPUDet execution model.
#[derive(Debug)]
pub struct GpuDetModel {
    cfg: GpuDetConfig,
    num_partitions: usize,
    /// Live warps keyed by deterministic unique id (the serial-mode order).
    warps: BTreeMap<u64, WarpInfo>,
    mode: Mode,
    /// Cycle up to which the mode's cycle counter has been charged.
    mode_entered: u64,
    /// Store-buffer entries accumulated this quantum (whole GPU).
    store_entries: u64,
    commit_until: u64,
    /// Serial mode: the unique id currently holding the execution token.
    serial_current: Option<u64>,
    /// The current serial warp has issued and awaits its last write-back.
    awaiting_ack: bool,
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
        }
    }

    /// The GPUDet parameters in use.
    pub fn gpudet_config(&self) -> &GpuDetConfig {
        &self.cfg
    }

    /// Charges the cycles since the last charge to the current mode.
    fn account_mode(&mut self, ctx: &mut ModelCtx<'_>) {
        let elapsed = ctx.cycle.saturating_sub(self.mode_entered);
        if elapsed > 0 {
            let counter = match self.mode {
                Mode::Parallel => "det.gpudet.parallel_cycles",
                Mode::Commit => "det.gpudet.commit_cycles",
                Mode::Serial => "det.gpudet.serial_cycles",
            };
            ctx.stats.bump(counter, elapsed);
        }
        self.mode_entered = ctx.cycle;
    }

    fn enter_mode(&mut self, mode: Mode, ctx: &mut ModelCtx<'_>) {
        self.account_mode(ctx);
        if mode != self.mode {
            ctx.trace(obs::Event::ModeChange {
                cycle: ctx.cycle,
                mode: match mode {
                    Mode::Parallel => obs::DetMode::Parallel,
                    Mode::Commit => obs::DetMode::Commit,
                    Mode::Serial => obs::DetMode::Serial,
                },
            });
        }
        self.mode = mode;
    }

    /// Every live warp has used its quantum, stopped at an atomic, or
    /// waits at a CTA barrier (read from the engine's warp state).
    fn quantum_complete(&self, ctx: &ModelCtx<'_>) -> bool {
        !self.warps.is_empty()
            && self.warps.values().all(|w| {
                w.done || w.pending_atomic || ctx.warp_state(w.warp) == Some(WarpState::WaitBarrier)
            })
    }

    fn commit_duration(&self) -> u64 {
        let bw = (self.cfg.commit_entries_per_cycle as u64 * self.num_partitions as u64).max(1);
        self.cfg.commit_base_cycles as u64 + self.store_entries.div_ceil(bw)
    }

    fn start_commit(&mut self, ctx: &mut ModelCtx<'_>) {
        self.enter_mode(Mode::Commit, ctx);
        self.commit_until = ctx.cycle + self.commit_duration();
        self.store_entries = 0;
        ctx.stats.bump("det.gpudet.quanta", 1);
    }

    fn next_serial_warp(&self) -> Option<u64> {
        self.warps
            .iter()
            .find(|(_, w)| w.pending_atomic)
            .map(|(&u, _)| u)
    }

    /// Counts an issue of warp `unique` against its quantum; a serial
    /// holder's atomic then waits for its acks.
    fn count_issue(&mut self, unique: u64, is_atomic: bool) {
        let Some(w) = self.warps.get_mut(&unique) else {
            return;
        };
        w.issued += 1;
        if w.issued >= self.cfg.quantum && self.mode == Mode::Parallel {
            w.done = true;
        }
        if is_atomic && self.mode == Mode::Serial {
            self.awaiting_ack = true;
        }
    }

    fn start_new_quantum(&mut self, ctx: &mut ModelCtx<'_>) {
        self.enter_mode(Mode::Parallel, ctx);
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

    fn can_issue(&mut self, warp: WarpId, is_atomic: bool, _ctx: &mut ModelCtx<'_>) -> bool {
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

    fn on_issue(&mut self, warp: WarpId, is_atomic: bool, _ctx: &mut ModelCtx<'_>) {
        self.count_issue(warp.unique, is_atomic);
    }

    fn issue_budget(&self, warp: WarpId) -> u32 {
        // The quantum counts every issue, ALU ones included; what is left
        // of it issues unrefused, and the late `on_issue` calls for it set
        // nothing but `issued`, which only this warp's hooks read. The
        // last issue of the quantum, which sets `done`, is a visited one.
        match self.warps.get(&warp.unique) {
            Some(w) if self.mode == Mode::Parallel && !w.done && !w.pending_atomic => {
                self.cfg.quantum.saturating_sub(w.issued)
            }
            _ => 0,
        }
    }

    fn on_atomic(&mut self, issue: AtomicIssue<'_>, _ctx: &mut ModelCtx<'_>) -> AtomicRoute {
        debug_assert_eq!(self.mode, Mode::Serial, "atomics only issue in serial mode");
        debug_assert_eq!(self.serial_current, Some(issue.warp.unique));
        AtomicRoute::ToMemory
    }

    fn on_store(&mut self, _warp: WarpId, sectors: usize, _ctx: &mut ModelCtx<'_>) -> StoreRoute {
        if self.mode == Mode::Parallel {
            self.store_entries += sectors as u64;
            StoreRoute::Buffered
        } else {
            StoreRoute::Direct
        }
    }

    fn on_atomic_ack(
        &mut self,
        warp: WarpRef,
        _kind: AtomKind,
        remaining: u32,
        _ctx: &mut ModelCtx<'_>,
    ) {
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
                    self.start_commit(ctx);
                } else if self.quantum_complete(ctx) {
                    self.start_commit(ctx);
                }
            }
            // Every issue gate `can_issue` closes opens here, and only
            // here: a new token holder or a new quantum. Each opening
            // reopens issue so the engine offers parked warps again: a new
            // holder's scheduler alone, since every other warp stays
            // refused in serial mode, or every scheduler for a new quantum.
            Mode::Commit => {
                if ctx.cycle >= self.commit_until {
                    if let Some(next) = self.next_serial_warp() {
                        self.serial_current = Some(next);
                        self.awaiting_ack = false;
                        self.enter_mode(Mode::Serial, ctx);
                        ctx.reopen_issue(Some(self.warps[&next].warp));
                    } else {
                        self.start_new_quantum(ctx);
                        ctx.reopen_issue(None);
                    }
                }
            }
            Mode::Serial => {
                if self.serial_current.is_none() {
                    match self.next_serial_warp() {
                        Some(next) => {
                            self.serial_current = Some(next);
                            ctx.reopen_issue(Some(self.warps[&next].warp));
                        }
                        None => {
                            self.start_new_quantum(ctx);
                            ctx.reopen_issue(None);
                        }
                    }
                }
            }
        }
        self.account_mode(ctx);
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

    fn next_event_cycle(&self) -> Option<u64> {
        // In parallel mode `tick` only checks quantum completion, whose
        // inputs (`done` and `pending_atomic`, warp states, arrivals and
        // retirements, dispatch status) change only on engine-visited
        // cycles and are re-checked the same cycle. A warp's issue count
        // may lag, since the engine credits the issues a scheduler slept
        // through on an ALU burst at its next visit, but it sets `done`
        // only with the quantum's last issue, which is within no sleep
        // (`issue_budget`) and so on a visited cycle. A commit ends on its
        // own clock, at `commit_until`. In serial mode a holder's turn ends
        // with its last ack or its exit, both on visited cycles; without a
        // holder the next tick picks one. The mode-accounting totals
        // telescope across any gap.
        match self.mode {
            Mode::Parallel => None,
            Mode::Commit => Some(self.commit_until),
            Mode::Serial => self.serial_current.is_none().then_some(0),
        }
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
        // The event engine sleeps through at most what is left of the
        // quantum, and not at all once it is used.
        let mut model = GpuDetModel::new(&gpu, cfg.clone());
        let warp = WarpId {
            sched: gpu_sim::exec::SchedId { sm: 0, sched: 0 },
            slot: 0,
            unique: 0,
        };
        model.on_warp_spawn(warp);
        for issued in 0..10 {
            assert_eq!(model.issue_budget(warp), 10 - issued);
            model.count_issue(warp.unique, false);
        }
        assert_eq!(model.issue_budget(warp), 0);
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
