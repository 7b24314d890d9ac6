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
//! kernel start), per-issue hooks (atomics, fences, barriers), packet
//! delivery hooks (flush entries at partitions, acks at clusters), and a
//! per-cycle [`tick`](ExecutionModel::tick). Every hook that acts at a
//! cycle gets the same [`ModelCtx`]: it lets the model bump counters,
//! record trace events and inject packets where it acts, read warp state,
//! wake flush-waiting warps and ask whether the machine is sealed.

use crate::config::GpuConfig;
use crate::isa::{AtomicAccess, AtomicOp};
use crate::kernel::CtaDistribution;
use crate::mem::icnt::Interconnect;
use crate::mem::packet::{AtomKind, Packet, RopOp, WarpRef};
use crate::mem::partition::MemPartition;
use crate::sched::SchedKind;
use crate::sm::{Sm, WarpState};
use crate::stats::SimStats;
use std::ops::Range;

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

/// Mutable context the engine lends to every model hook that acts at a
/// cycle, built in one place (`GpuSim::model_ctx`).
///
/// It borrows the live machine, so what the model asks about the warps
/// ([`sealed`](Self::sealed), [`live_warps`](Self::live_warps),
/// [`warp_state`](Self::warp_state)) is read when asked and costs nothing
/// on hooks that do not ask, and what it records (counters in
/// [`stats`](Self::stats), events through [`trace`](Self::trace)) lands
/// at the point it happens, in the engine's one hook order.
pub struct ModelCtx<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// Hardware configuration.
    pub cfg: &'a GpuConfig,
    /// Run statistics (models add their own named counters).
    pub stats: &'a mut SimStats,
    /// Every CTA of the current kernel has been dispatched to an SM.
    pub kernel_fully_dispatched: bool,
    /// Interconnect, entered through [`inject_request`](Self::inject_request).
    pub(crate) icnt: &'a mut Interconnect,
    /// The run's tracer, `None` when tracing is off.
    pub(crate) tracer: Option<&'a mut obs::Tracer>,
    /// Every SM, in global index order.
    pub(crate) sms: &'a [Sm],
    /// The machine's scheduling policy is determinism-aware (see
    /// [`Sm::sealed`]).
    pub(crate) det_aware: bool,
    /// Global index (`sm * num_schedulers_per_sm + sched`) of the scheduler
    /// that last answered "not sealed"; the next seal query starts there.
    pub(crate) seal_witness: &'a mut usize,
    /// Wake commands collected this cycle, applied by the engine after the
    /// model's tick returns.
    pub(crate) wakes: &'a mut Vec<WakeCmd>,
}

impl std::fmt::Debug for ModelCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelCtx")
            .field("cycle", &self.cycle)
            .field("kernel_fully_dispatched", &self.kernel_fully_dispatched)
            .field("seal_witness", &self.seal_witness)
            .field("wakes", &self.wakes)
            .finish_non_exhaustive()
    }
}

impl ModelCtx<'_> {
    /// Whether every scheduler of SMs `sms` is *sealed* ([`Sm::sealed`]):
    /// DAB's flush trigger. Stops at the first scheduler that is not and
    /// remembers it; the next query starts at that scheduler (wrapping
    /// within `sms`), since a scheduler that was not sealed on one tick is
    /// the likeliest not to be on the next. The answer is a conjunction of
    /// pure reads of the machine, so the order and the early exit cannot
    /// change it.
    pub fn sealed(&mut self, sms: Range<usize>) -> bool {
        let per_sm = self.cfg.num_schedulers_per_sm;
        let (first, n) = (sms.start * per_sm, sms.len() * per_sm);
        let start = match self.seal_witness.checked_sub(first) {
            Some(d) if d < n => d,
            _ => 0,
        };
        for i in 0..n {
            let g = first + (start + i) % n;
            if !self.sms[g / per_sm].sealed(g % per_sm, self.det_aware) {
                *self.seal_witness = g;
                return false;
            }
        }
        true
    }

    /// Live warps on the whole machine, from the schedulers' counts (no
    /// warp walk).
    pub fn live_warps(&self) -> u32 {
        self.sms
            .iter()
            .flat_map(|sm| &sm.schedulers)
            .map(|s| s.live)
            .sum()
    }

    /// The engine state of the warp in `warp`'s slot (`None` if empty).
    pub fn warp_state(&self, warp: WarpRef) -> Option<WarpState> {
        self.sms[warp.sm].warps[warp.slot].as_ref().map(|w| w.state)
    }

    /// Records a trace event, if tracing is on at the event's level.
    pub fn trace(&mut self, ev: obs::Event) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(ev);
        }
    }

    /// Whether full-detail tracing is on (gate the construction of
    /// full-level events on it).
    pub fn trace_full(&self) -> bool {
        self.tracer.as_deref().is_some_and(obs::Tracer::is_full)
    }

    /// Whether cluster `cluster` can inject a request of `flits` flits now.
    pub fn can_inject_request(&self, cluster: usize, flits: u32) -> bool {
        self.icnt.can_inject_request(cluster, flits)
    }

    /// Injects a request packet at cluster `cluster` and traces it: the
    /// one injection path, which the issue walk's requests take too.
    pub fn inject_request(&mut self, cluster: usize, pkt: Packet) {
        if self.trace_full() {
            self.trace(obs::Event::IcntInject {
                cycle: self.cycle,
                cluster: cluster as u32,
                dest: pkt.dest as u32,
                kind: crate::engine::pkt_kind(&pkt.payload),
            });
        }
        self.icnt.inject_request(cluster, pkt);
    }

    /// Wakes every flush-waiting warp of SM `sm` (after a flush epoch
    /// completes). Applied by the engine at the end of the model tick.
    pub fn wake_flush_waiters(&mut self, sm: usize) {
        self.wakes.push(WakeCmd::FlushWaiters { sm });
    }

    /// Lifts standing [`ExecutionModel::can_issue`] refusals: warps the
    /// model refused may be offered again from the next cycle. With `None`
    /// every refusal lifts; with `Some(warp)` only the refusals of that
    /// warp's scheduler do, which suffices when `warp` is the one refused
    /// warp that may have become issuable. Call it from `tick` whenever a
    /// refused warp may have become issuable. Applied by the engine at the
    /// end of the model tick.
    pub fn reopen_issue(&mut self, warp: Option<WarpRef>) {
        self.wakes.push(WakeCmd::ReopenIssue { warp });
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
    /// Offer every live warp of every scheduler (`None`), or of `warp`'s
    /// scheduler, again from the next cycle (see
    /// [`ModelCtx::reopen_issue`]).
    ReopenIssue {
        /// The one warp that may have become issuable, if only one.
        warp: Option<WarpRef>,
    },
}

/// An architecture execution model plugged into the engine.
///
/// All methods have neutral defaults matching the baseline GPU, so a model
/// only overrides the hooks it cares about. See the crate-level docs of
/// `dab` and `gpudet` for the two non-trivial implementations. A model
/// names each counter only where it bumps it; it declares no metric schema
/// up front.
///
/// # Threading contract
///
/// Every hook on this trait runs on the one thread that drives the
/// simulation, in the same fixed (cluster, SM, scheduler) order, next to
/// the live machine: a hook that acts at a cycle gets a [`ModelCtx`] and
/// records its counters and trace events through it as it acts.
/// Implementations may therefore keep plain mutable state and need no
/// internal synchronization or deferral queues; the `Send` bound exists
/// only because the engine itself may migrate between threads (e.g. when
/// a sweep job runs on a `DAB_JOBS` worker).
#[allow(unused_variables)]
pub trait ExecutionModel: std::fmt::Debug + Send {
    /// Human-readable model name (used in experiment reports).
    fn name(&self) -> String;

    /// Which warp-scheduling policy SMs should use under this model.
    fn scheduler_kind(&self) -> SchedKind {
        SchedKind::Gto
    }

    /// How CTAs are distributed to SMs under this model.
    fn cta_distribution(&self, num_sms: usize) -> CtaDistribution {
        CtaDistribution::Dynamic
    }

    /// Kernel `name` is starting.
    fn on_kernel_start(&mut self, name: &str) {}

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
    ///
    /// A `false` is steady: it must hold, for this warp and this next
    /// instruction, until the model calls [`ModelCtx::reopen_issue`] from
    /// [`tick`](Self::tick). The event engine parks a refused warp and does
    /// not offer it again before that call; a model that lets a refusal
    /// lapse on its own deadlocks there, and the dense engine, which asks
    /// again at every visit, panics on the broken skip rule.
    /// Only the first refusal may change model state.
    fn can_issue(&mut self, warp: WarpId, is_atomic: bool, ctx: &mut ModelCtx<'_>) -> bool {
        true
    }

    /// An instruction was issued (after routing hooks).
    ///
    /// The event engine lets a scheduler sleep through its greedy warp's
    /// ALU burst. Under a bounded [`issue_budget`](Self::issue_budget) it
    /// makes the calls for the skipped issues late, one per issue, at the
    /// scheduler's next visit. A model that keeps the unbounded default
    /// gets no call for a skipped issue: it must not count ALU issues here.
    fn on_issue(&mut self, warp: WarpId, is_atomic: bool, ctx: &mut ModelCtx<'_>) {}

    /// How many more non-atomic instructions in a row, one per cycle, the
    /// warp may issue from the next cycle on, asked right after an issue's
    /// [`on_issue`](Self::on_issue). For each of them
    /// [`can_issue`](Self::can_issue) must answer `true`, and their
    /// `on_issue` calls may change nothing that another hook reads, since
    /// they may arrive late. The event engine sleeps through at most this
    /// many issues of an ALU burst and visits the last one; the dense
    /// engine issues every one and panics on the broken skip rule if a
    /// skipped visit would not have issued the burst's next instruction.
    ///
    /// The default, `u32::MAX`, is unbounded: it suits a model whose gates
    /// never close mid-burst and whose `on_issue` does not count ALU
    /// issues, and it spares the engine one `on_issue` call per skipped
    /// issue. GPUDet answers what is left of the warp's quantum in
    /// parallel mode, and 0 otherwise.
    fn issue_budget(&self, warp: WarpId) -> u32 {
        u32::MAX
    }

    /// Routes an atomic instruction.
    fn on_atomic(&mut self, issue: AtomicIssue<'_>, ctx: &mut ModelCtx<'_>) -> AtomicRoute {
        AtomicRoute::ToMemory
    }

    /// Routes a global store of `sectors` write-through transactions.
    fn on_store(&mut self, warp: WarpId, sectors: usize, ctx: &mut ModelCtx<'_>) -> StoreRoute {
        StoreRoute::Direct
    }

    /// Handles a memory fence.
    fn on_fence(&mut self, warp: WarpId, ctx: &mut ModelCtx<'_>) -> FenceAction {
        FenceAction::DrainWarp
    }

    /// All warps of a CTA on SM `sm` reached the barrier; how are they
    /// released?
    fn on_barrier_release(&mut self, sm: usize, ctx: &mut ModelCtx<'_>) -> BarrierRelease {
        BarrierRelease::Immediate
    }

    /// A DAB `PreFlush` packet arrived at a partition.
    fn on_pre_flush(
        &mut self,
        part: &mut MemPartition,
        sm: usize,
        expected: u32,
        ctx: &mut ModelCtx<'_>,
    ) {
    }

    /// A DAB `FlushEntry` packet arrived at a partition. The model decides
    /// when (and in what order) to [`MemPartition::enqueue_rop`] the ops.
    fn on_flush_entry(
        &mut self,
        part: &mut MemPartition,
        sm: usize,
        seq: u32,
        ops: Vec<RopOp>,
        ctx: &mut ModelCtx<'_>,
    ) {
    }

    /// A `FlushAck` packet was delivered back to SM `sm`'s cluster.
    fn on_flush_ack(&mut self, sm: usize, ctx: &mut ModelCtx<'_>) {}

    /// An `AtomicAck` was delivered back to the issuing warp's cluster.
    /// `remaining` is the warp's outstanding write/atomic transaction count
    /// after this ack (GPUDet's serial mode advances at zero).
    fn on_atomic_ack(
        &mut self,
        warp: WarpRef,
        kind: AtomKind,
        remaining: u32,
        ctx: &mut ModelCtx<'_>,
    ) {
    }

    /// Per-cycle model work (flush controllers, quantum state machines).
    /// Runs after the cycle's issue and dispatch; `ctx` answers questions
    /// about the machine as it stands then (DAB's seal:
    /// [`ModelCtx::sealed`]).
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

    /// The earliest cycle at which [`tick`](Self::tick) may act on its own
    /// clock, or `None` if every change it makes follows an input that
    /// changes only on cycles the engine visits anyway (an issue, an ack,
    /// a seal, a dispatch). A cycle at or before the present means "tick
    /// on every cycle". The event wheel folds this like every other
    /// component's next event, and the model ticks on every visited cycle;
    /// on a cycle the event engine would skip, the dense engine panics if
    /// the tick pushes a wake or changes this answer, [`quiescent`] or
    /// [`allow_dispatch`].
    ///
    /// The default is the most conservative answer: every cycle while the
    /// model is not quiescent.
    ///
    /// [`quiescent`]: Self::quiescent
    /// [`allow_dispatch`]: Self::allow_dispatch
    fn next_event_cycle(&self) -> Option<u64> {
        (!self.quiescent()).then_some(0)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Value, WarpProgram};
    use crate::kernel::CtaSpec;
    use crate::mem::packet::Payload;

    /// Runs `f` with a context over no SMs at cycle 0.
    fn with_ctx<R>(f: impl FnOnce(&mut ModelCtx<'_>) -> R) -> R {
        let cfg = GpuConfig::tiny();
        let (mut icnt, mut stats) = (Interconnect::new(&cfg), SimStats::default());
        let (mut witness, mut wakes) = (0, Vec::new());
        f(&mut ModelCtx {
            cycle: 0,
            cfg: &cfg,
            stats: &mut stats,
            kernel_fully_dispatched: false,
            icnt: &mut icnt,
            tracer: None,
            sms: &[],
            det_aware: false,
            seal_witness: &mut witness,
            wakes: &mut wakes,
        })
    }

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
        with_ctx(|ctx| {
            assert!(m.can_issue(warp, true, ctx));
            assert_eq!(m.on_fence(warp, ctx), FenceAction::DrainWarp);
            assert_eq!(m.on_barrier_release(0, ctx), BarrierRelease::Immediate);
        });
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
        assert_eq!(
            with_ctx(|ctx| m.on_atomic(issue, ctx)),
            AtomicRoute::ToMemory
        );
    }

    #[test]
    fn model_ctx_helpers() {
        let cfg = GpuConfig::tiny();
        let mut icnt = Interconnect::new(&cfg);
        let mut stats = SimStats::default();
        let mut sms: Vec<Sm> = (0..cfg.num_sms())
            .map(|id| Sm::new(id, &cfg, SchedKind::Gwat))
            .collect();
        // Five warps on SM 1, each at an atomic; warps 0 and 4 share
        // scheduler 0, where GWAT grants only warp 0.
        let red = Instr::Red {
            op: AtomicOp::AddF32,
            accesses: vec![AtomicAccess::new(0, 0, Value::F32(1.0))],
        };
        let cta = CtaSpec::new(0, vec![WarpProgram::new(vec![red], 32); 5]);
        let metas: Vec<_> = cta
            .warps
            .iter()
            .map(|p| crate::imeta::warp_meta(p, &cfg))
            .collect();
        let slots = sms[1].add_cta(&cta, 0, 0, &metas);
        let mut wakes = Vec::new();
        let mut witness = 0;
        let mut tracer = obs::Tracer::new(obs::TraceMode::Full, 1024);
        let mut ctx = ModelCtx {
            cycle: 5,
            cfg: &cfg,
            icnt: &mut icnt,
            stats: &mut stats,
            tracer: Some(&mut tracer),
            sms: &sms,
            det_aware: true,
            seal_witness: &mut witness,
            kernel_fully_dispatched: false,
            wakes: &mut wakes,
        };
        assert_eq!(ctx.live_warps(), 5);
        let warp = WarpRef {
            sm: 1,
            slot: slots[0],
        };
        assert_eq!(ctx.warp_state(warp), Some(WarpState::Ready));
        assert_eq!(ctx.warp_state(WarpRef { sm: 0, slot: 0 }), None);
        // The one injection path queues the packet and traces it.
        assert!(ctx.trace_full() && ctx.can_inject_request(1, 1));
        let pkt = Packet::new(
            0,
            Payload::PreFlush { sm: 1, expected: 0 },
            cfg.icnt_flit_size,
        );
        ctx.inject_request(1, pkt);
        assert_eq!(ctx.icnt.queued_injection_flits(), 1);
        // SM 0 is empty and sealed; SM 1's scheduler 0 (global 4) is the
        // first that is not, and the query leaves its witness there.
        assert!(ctx.sealed(0..1));
        assert!(!ctx.sealed(0..2));
        assert_eq!(*ctx.seal_witness, 4);
        ctx.wake_flush_waiters(1);
        ctx.reopen_issue(None);
        ctx.reopen_issue(Some(warp));
        assert_eq!(
            wakes,
            vec![
                WakeCmd::FlushWaiters { sm: 1 },
                WakeCmd::ReopenIssue { warp: None },
                WakeCmd::ReopenIssue { warp: Some(warp) }
            ]
        );
        // Park warps 0-3 in flush-wait: scheduler 0 is then sealed on warp
        // 4's refused atomic, schedulers 1-3 on their counts alone.
        for &slot in &slots[..4] {
            sms[1].park(slot, WarpState::WaitFlush, 6);
        }
        assert_eq!(tracer.event_count(), 1);
        let mut ctx = ModelCtx {
            cycle: 6,
            cfg: &cfg,
            icnt: &mut icnt,
            stats: &mut stats,
            tracer: None,
            sms: &sms,
            det_aware: true,
            seal_witness: &mut witness,
            kernel_fully_dispatched: true,
            wakes: &mut wakes,
        };
        assert!(ctx.sealed(0..2), "the other warp's atomic is refused");
        ctx.det_aware = false;
        assert!(
            !ctx.sealed(1..2),
            "no steady refusal without a det-aware policy"
        );
    }
}
