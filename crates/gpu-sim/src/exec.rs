//! Execution models: the architecture-extension hook.
//!
//! An [`ExecutionModel`] decides *how atomics are handled* and *when warps
//! may issue*, which is exactly the design space the paper explores:
//!
//! - [`BaselineModel`] — the stock non-deterministic GPU: atomics go
//!   straight to the memory partitions and commit in arrival order.
//! - `dab::DabModel` (in the `dab` crate) — atomics are written into atomic
//!   buffers and made visible through a deterministic global flush.
//! - `gpudet::GpuDetModel` (in the `gpudet` crate) — quantum-based strong
//!   determinism with store buffers, commit mode, and serialized atomics.
//!
//! The engine drives the model through lifecycle callbacks (warp spawn/exit,
//! kernel boundaries), per-issue hooks (atomics, fences, barriers), packet
//! delivery hooks (flush entries at partitions, acks at clusters), and a
//! per-cycle [`tick`](ExecutionModel::tick) with a [`ModelCtx`] that lets
//! the model inject packets and wake flush-waiting warps.

use crate::config::GpuConfig;
use crate::isa::{AtomicAccess, AtomicOp};
use crate::kernel::CtaDistribution;
use crate::mem::icnt::Interconnect;
use crate::mem::packet::{AtomKind, RopOp, WarpRef};
use crate::mem::partition::MemPartition;
use crate::sched::SchedKind;
use crate::stats::SimStats;

/// Identifies one warp scheduler: `(sm, scheduler index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SchedId {
    /// Global SM index.
    pub sm: usize,
    /// Scheduler index within the SM.
    pub sched: usize,
}

/// Identity of a warp at an issue-time hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpId {
    /// Scheduler owning the warp.
    pub sched: SchedId,
    /// Hardware slot within the SM.
    pub slot: usize,
    /// Deterministic kernel-wide warp id.
    pub unique: u64,
}

/// An atomic instruction at issue time.
#[derive(Debug, Clone, Copy)]
pub struct AtomicIssue<'a> {
    /// Issuing warp.
    pub warp: WarpId,
    /// Reduction opcode.
    pub op: AtomicOp,
    /// Per-lane accesses, in lane order (the deterministic intra-warp fill
    /// order of Section IV-B).
    pub accesses: &'a [AtomicAccess],
    /// `red` (no return value) or `atom` (returning).
    pub kind: AtomKind,
}

/// How the model routes a global store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreRoute {
    /// Write through to the memory partitions (baseline path).
    Direct,
    /// Absorbed into a model-side store buffer (GPUDet's parallel mode);
    /// the engine sends no traffic and the model pays the cost at commit.
    Buffered,
}

/// How the model routes an atomic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AtomicRoute {
    /// Send to the home memory partitions as transactions; the ROP applies
    /// them in arrival order (the baseline path).
    ToMemory,
    /// Consumed locally (e.g. written into an atomic buffer). The warp
    /// proceeds after `cycles`; the model is now responsible for making the
    /// operations globally visible.
    Buffered {
        /// Local buffer-write latency.
        cycles: u32,
    },
    /// The model cannot accept the atomic now (e.g. buffer full). The warp
    /// enters flush-wait until the model wakes it via
    /// [`ModelCtx::wake_flush_waiters`].
    StallFlush,
}

/// How a memory fence is honored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceAction {
    /// Wait until the warp's own outstanding stores/atomics have acked.
    DrainWarp,
    /// Enter flush-wait; the model wakes the warp after a full buffer flush.
    WaitFlush,
}

/// How a completed CTA barrier releases its warps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierRelease {
    /// Release as soon as all warps arrived and their writes drained.
    Immediate,
    /// Hold the warps in flush-wait; the model wakes them after a flush
    /// (DAB: `__syncthreads` contains a CTA-level fence, Section IV-A).
    WaitFlush,
}

/// Per-scheduler warp census handed to [`ExecutionModel::tick`].
///
/// Maintained incrementally by the engine, so reading it each cycle is
/// cheap. The DAB flush controller derives its deterministic flush trigger
/// from this: a scheduler's buffer is *sealed* once it is full or every live
/// warp is flush-blocked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCensus {
    /// Live (spawned, not yet exited) warps.
    pub live: u32,
    /// Warps in flush-wait (stalled atomic, fence, or post-barrier).
    pub flush_wait: u32,
    /// Warps waiting at an incomplete CTA barrier.
    pub barrier_wait: u32,
    /// Ready warps whose next instruction is an atomic that the scheduling
    /// policy steadily refuses (no token / not their turn / greedy phase /
    /// batch gate). They cannot add buffer entries until a currently
    /// blocked warp acts, so their contributions are final.
    pub atomic_stuck: u32,
}

impl SchedCensus {
    /// Whether every live warp is blocked at a deterministic program point
    /// (flush-wait, barrier, or steady atomic refusal). This is DAB's
    /// *seal* condition: once every scheduler is sealed, buffer contents
    /// are a deterministic prefix of each buffer's fill sequence and a
    /// flush may begin.
    pub fn sealed(&self) -> bool {
        self.live == self.flush_wait + self.barrier_wait + self.atomic_stuck
    }
}

/// Mutable per-cycle context the engine lends to the model.
#[derive(Debug)]
pub struct ModelCtx<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// Hardware configuration.
    pub cfg: &'a GpuConfig,
    /// Interconnect, for injecting flush traffic from the cluster side.
    pub icnt: &'a mut Interconnect,
    /// Run statistics (models add their own named counters).
    pub stats: &'a mut SimStats,
    /// Census rows indexed by `sm * num_schedulers_per_sm + sched`.
    pub census: &'a [SchedCensus],
    /// Every CTA of the current kernel has been dispatched to an SM.
    pub kernel_fully_dispatched: bool,
    /// Wake commands collected this cycle, applied by the engine after the
    /// model's tick returns.
    wakes: &'a mut Vec<WakeCmd>,
}

impl<'a> ModelCtx<'a> {
    /// Builds a context (used by the engine; exposed for model unit tests).
    pub fn new(
        cycle: u64,
        cfg: &'a GpuConfig,
        icnt: &'a mut Interconnect,
        stats: &'a mut SimStats,
        census: &'a [SchedCensus],
        kernel_fully_dispatched: bool,
        wakes: &'a mut Vec<WakeCmd>,
    ) -> Self {
        Self {
            cycle,
            cfg,
            icnt,
            stats,
            census,
            kernel_fully_dispatched,
            wakes,
        }
    }

    /// Census row for one scheduler.
    pub fn census_of(&self, sched: SchedId) -> SchedCensus {
        self.census[sched.sm * self.cfg.num_schedulers_per_sm + sched.sched]
    }

    /// Cluster housing a given SM.
    pub fn cluster_of_sm(&self, sm: usize) -> usize {
        sm / self.cfg.sms_per_cluster
    }

    /// Wakes every flush-waiting warp of SM `sm` (after a flush epoch
    /// completes). Applied by the engine at the end of the model tick.
    pub fn wake_flush_waiters(&mut self, sm: usize) {
        self.wakes.push(WakeCmd::FlushWaiters { sm });
    }

    /// Wakes one specific warp out of flush-wait (used by GPUDet's serial
    /// mode to hand the execution token to a single warp).
    pub fn wake_warp(&mut self, warp: WarpRef) {
        self.wakes.push(WakeCmd::Warp { warp });
    }
}

/// Deferred wake command produced during a model tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeCmd {
    /// Wake all flush-waiting warps of an SM.
    FlushWaiters {
        /// Target SM.
        sm: usize,
    },
    /// Wake one warp.
    Warp {
        /// Target warp.
        warp: WarpRef,
    },
}

/// Bit-set of the *commit-phase* [`ExecutionModel`] hooks a model
/// implements beyond the trait defaults.
///
/// The engine's independence-sharded commit phase runs a cluster's warp
/// issues on a worker thread only when the cluster's candidate
/// instructions cannot reach any hook the model actually overrides; the
/// worker then substitutes the (pure, stateless) trait defaults for every
/// hook. A model's [`commit_hook_mask`](ExecutionModel::commit_hook_mask)
/// is its contract: any commit-phase hook *not* in the mask must behave
/// exactly like the trait default and touch no model state. The default is
/// [`HookMask::ALL`] — maximally conservative, never committed in
/// parallel — so third-party models are safe without opting in.
///
/// Only hooks reachable from the issue path are represented; hooks that
/// always run in serial coordinator phases (ticks, acks, flush handling,
/// dispatch, kernel boundaries) need no bits.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HookMask(u32);

impl HookMask {
    /// No commit-phase hook overridden (the baseline model).
    pub const EMPTY: Self = Self(0);
    /// [`ExecutionModel::can_issue`] (consulted for every ready warp).
    pub const CAN_ISSUE: Self = Self(1 << 0);
    /// [`ExecutionModel::on_issue`] (fires on every successful issue).
    pub const ON_ISSUE: Self = Self(1 << 1);
    /// [`ExecutionModel::on_store`].
    pub const STORE: Self = Self(1 << 2);
    /// [`ExecutionModel::on_atomic`].
    pub const ATOMIC: Self = Self(1 << 3);
    /// [`ExecutionModel::on_fence`].
    pub const FENCE: Self = Self(1 << 4);
    /// [`ExecutionModel::on_barrier_wait`] and
    /// [`ExecutionModel::on_barrier_release`].
    pub const BARRIER: Self = Self(1 << 5);
    /// [`ExecutionModel::can_retire`] and [`ExecutionModel::on_warp_exit`].
    pub const RETIRE: Self = Self(1 << 6);
    /// Every commit-phase hook (the conservative default).
    pub const ALL: Self = Self((1 << 7) - 1);

    /// Union of two masks.
    #[must_use]
    pub const fn union(self, other: Self) -> Self {
        Self(self.0 | other.0)
    }

    /// Whether the two masks share any hook.
    #[must_use]
    pub const fn intersects(self, other: Self) -> bool {
        self.0 & other.0 != 0
    }

    /// Whether no hook is set.
    #[must_use]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }
}

/// An architecture execution model plugged into the engine.
///
/// All methods have neutral defaults matching the baseline GPU, so a model
/// only overrides the hooks it cares about. See the crate-level docs of
/// `dab` and `gpudet` for the two non-trivial implementations.
///
/// # Threading contract
///
/// Every hook on this trait runs on the engine's coordinating thread, in
/// the same fixed (cluster, SM, scheduler) order, at any `DAB_SIM_THREADS`
/// setting, with one audited exception: commit-phase hooks whose bits are
/// *absent* from [`commit_hook_mask`](Self::commit_hook_mask) are — by
/// that mask's contract — exactly the stateless trait defaults, and the
/// sharded commit phase substitutes those defaults on worker threads
/// without calling into the model at all. Implementations may therefore
/// keep plain mutable state and need no internal synchronization; the
/// `Send` bound exists only because the engine itself may migrate between
/// threads (e.g. when a sweep job runs on a `DAB_JOBS` worker).
#[allow(unused_variables)]
pub trait ExecutionModel: std::fmt::Debug + Send {
    /// Human-readable model name (used in experiment reports).
    fn name(&self) -> String;

    /// Which warp-scheduling policy SMs should use under this model.
    fn scheduler_kind(&self) -> SchedKind {
        SchedKind::Gto
    }

    /// The commit-phase hooks this model overrides (see [`HookMask`]).
    ///
    /// Contract: every commit-phase hook whose bit is absent must behave
    /// exactly like the trait default and read or write no model state —
    /// the sharded commit phase substitutes the defaults for such hooks on
    /// worker threads. The conservative default (`ALL`) keeps unknown
    /// models on the serial path.
    fn commit_hook_mask(&self) -> HookMask {
        HookMask::ALL
    }

    /// Registers every metric name this model may bump, called once at
    /// simulator construction. A key bumped during the run that no
    /// component registered makes `GpuSim::run` panic at the end of the
    /// run, so models with counters must override this; models that bump
    /// nothing keep the default no-op.
    fn register_metrics(&self, registry: &mut obs::MetricsRegistry) {
        let _ = registry;
    }

    /// How CTAs are distributed to SMs under this model.
    fn cta_distribution(&self, num_sms: usize) -> CtaDistribution {
        CtaDistribution::Dynamic
    }

    /// A kernel is starting (`total_ctas` CTAs will be dispatched).
    fn on_kernel_start(&mut self, name: &str, total_ctas: usize) {}

    /// The current kernel fully drained (all warps exited, model quiescent).
    fn on_kernel_end(&mut self) {}

    /// A warp was placed in a hardware slot.
    fn on_warp_spawn(&mut self, warp: WarpId) {}

    /// A warp retired its program.
    fn on_warp_exit(&mut self, warp: WarpId) {}

    /// May a finished warp release its hardware slot? Warp-level DAB
    /// buffering returns `false` while the warp's buffer is non-empty (the
    /// paper keeps warps active until their buffer flushes); the engine then
    /// parks the warp in flush-wait and retries after the model's wake.
    ///
    /// A model returning `false` must also request a flush (or otherwise
    /// wake the warp later), or the machine deadlocks.
    fn can_retire(&mut self, warp: WarpId) -> bool {
        true
    }

    /// May this warp issue its next instruction this cycle? (GPUDet uses
    /// this for quantum and serial-mode gating.)
    fn can_issue(&mut self, warp: WarpId, is_atomic: bool, cycle: u64) -> bool {
        true
    }

    /// An instruction was issued (after routing hooks).
    fn on_issue(&mut self, warp: WarpId, is_atomic: bool, cycle: u64) {}

    /// Routes an atomic instruction.
    fn on_atomic(&mut self, issue: AtomicIssue<'_>, cycle: u64) -> AtomicRoute {
        AtomicRoute::ToMemory
    }

    /// Routes a global store of `sectors` write-through transactions.
    fn on_store(&mut self, warp: WarpId, sectors: usize, cycle: u64) -> StoreRoute {
        StoreRoute::Direct
    }

    /// A warp arrived at a CTA barrier and is now waiting.
    fn on_barrier_wait(&mut self, warp: WarpId, cycle: u64) {}

    /// Handles a memory fence.
    fn on_fence(&mut self, warp: WarpId, cycle: u64) -> FenceAction {
        FenceAction::DrainWarp
    }

    /// All warps of a CTA reached the barrier; how are they released?
    /// `warps` lists the releasing warps (in slot order).
    fn on_barrier_release(&mut self, sm: usize, warps: &[WarpId], cycle: u64) -> BarrierRelease {
        BarrierRelease::Immediate
    }

    /// A DAB `PreFlush` packet arrived at a partition.
    fn on_pre_flush(&mut self, part: &mut MemPartition, sm: usize, expected: u32, cycle: u64) {}

    /// A DAB `FlushEntry` packet arrived at a partition. The model decides
    /// when (and in what order) to [`MemPartition::enqueue_rop`] the ops.
    fn on_flush_entry(
        &mut self,
        part: &mut MemPartition,
        sm: usize,
        seq: u32,
        ops: Vec<RopOp>,
        cycle: u64,
    ) {
    }

    /// A `FlushAck` packet was delivered back to SM `sm`'s cluster.
    fn on_flush_ack(&mut self, sm: usize, cycle: u64) {}

    /// An `AtomicAck` was delivered back to the issuing warp's cluster.
    /// `remaining` is the warp's outstanding write/atomic transaction count
    /// after this ack (GPUDet's serial mode advances at zero).
    fn on_atomic_ack(&mut self, warp: WarpRef, kind: AtomKind, remaining: u32, cycle: u64) {}

    /// Per-cycle model work (flush controllers, quantum state machines).
    fn tick(&mut self, ctx: &mut ModelCtx<'_>) {}

    /// May new CTAs be dispatched right now?
    fn allow_dispatch(&self) -> bool {
        true
    }

    /// `true` once the model has no pending work (flushes drained, commit
    /// finished). The engine ends the run only when the model is quiescent.
    fn quiescent(&self) -> bool {
        true
    }

    /// `true` while skipping a [`tick`](Self::tick) could change behavior.
    ///
    /// The event engine (and the dense engine's fast-forward) only elides
    /// cycles on which `needs_tick` is `false`; models whose `tick` is a
    /// provable no-op whenever their externally-driven inputs are unchanged
    /// may override this to admit cycle-skipping. The default is maximally
    /// conservative: tick whenever the model is not quiescent.
    fn needs_tick(&self) -> bool {
        !self.quiescent()
    }

    /// Earliest future cycle at which the model needs to run even if the
    /// rest of the machine is idle, for engine fast-forwarding.
    fn next_event_hint(&self) -> Option<u64> {
        None
    }

    /// Drains trace events the model queued since the last call.
    ///
    /// Model hooks have no tracer access, so — like deferred stat deltas —
    /// tracing models push [`obs::Event`]s onto an internal queue and hand
    /// them to the engine here, right after [`tick`](Self::tick) on the
    /// coordinating thread, keeping the trace in commit order. Models that
    /// do not trace keep the default (empty, allocation-free). Only called
    /// when tracing is enabled.
    fn take_trace_events(&mut self) -> Vec<obs::Event> {
        Vec::new()
    }

    /// Total entries currently buffered by the model (DAB's atomic
    /// buffers), for the trace's sample grid. `0` for bufferless models.
    fn buffered_entries(&self) -> u64 {
        0
    }

    /// Per-SM buffered-entry counts for full-mode sample rows, written
    /// into `out` (pre-sized to the SM count, zero-filled). Bufferless
    /// models leave it untouched.
    fn buffered_entries_per_sm(&self, out: &mut [u64]) {}
}

/// The stock non-deterministic GPU: GTO scheduling, dynamic CTA
/// distribution, atomics applied at the ROP in arrival order.
#[derive(Debug, Default)]
pub struct BaselineModel {
    _priv: (),
}

impl BaselineModel {
    /// Creates the baseline model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ExecutionModel for BaselineModel {
    fn name(&self) -> String {
        "baseline".to_string()
    }

    fn commit_hook_mask(&self) -> HookMask {
        // Pure trait defaults everywhere: every cluster is eligible for the
        // parallel commit path.
        HookMask::EMPTY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_defaults() {
        let mut m = BaselineModel::new();
        assert_eq!(m.name(), "baseline");
        assert_eq!(m.scheduler_kind(), SchedKind::Gto);
        assert_eq!(m.cta_distribution(8), CtaDistribution::Dynamic);
        let warp = WarpId {
            sched: SchedId { sm: 0, sched: 0 },
            slot: 0,
            unique: 0,
        };
        assert!(m.can_issue(warp, true, 0));
        assert_eq!(m.on_fence(warp, 0), FenceAction::DrainWarp);
        assert_eq!(m.on_barrier_release(0, &[], 0), BarrierRelease::Immediate);
        assert!(m.quiescent());
        assert!(m.allow_dispatch());
    }

    #[test]
    fn baseline_routes_atomics_to_memory() {
        let mut m = BaselineModel::new();
        let accesses = [crate::isa::AtomicAccess::new(
            0,
            0,
            crate::isa::Value::F32(1.0),
        )];
        let issue = AtomicIssue {
            warp: WarpId {
                sched: SchedId { sm: 0, sched: 0 },
                slot: 0,
                unique: 0,
            },
            op: AtomicOp::AddF32,
            accesses: &accesses,
            kind: AtomKind::Red,
        };
        assert_eq!(m.on_atomic(issue, 0), AtomicRoute::ToMemory);
    }

    #[test]
    fn model_ctx_helpers() {
        let cfg = GpuConfig::tiny();
        let mut icnt = Interconnect::new(&cfg);
        let mut stats = SimStats::default();
        let census = vec![SchedCensus::default(); cfg.num_sms() * cfg.num_schedulers_per_sm];
        let mut wakes = Vec::new();
        {
            let mut ctx = ModelCtx::new(5, &cfg, &mut icnt, &mut stats, &census, false, &mut wakes);
            assert_eq!(ctx.cluster_of_sm(1), 1); // tiny: 1 SM per cluster
            assert_eq!(
                ctx.census_of(SchedId { sm: 1, sched: 2 }),
                SchedCensus::default()
            );
            ctx.wake_flush_waiters(1);
            ctx.wake_warp(WarpRef { sm: 0, slot: 3 });
        }
        assert_eq!(
            wakes,
            vec![
                WakeCmd::FlushWaiters { sm: 1 },
                WakeCmd::Warp {
                    warp: WarpRef { sm: 0, slot: 3 }
                }
            ]
        );
    }
}
