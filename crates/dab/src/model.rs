//! The DAB execution model: deterministic atomic buffering end to end.
//!
//! [`DabModel`] plugs into the simulator's
//! [`gpu_sim::exec::ExecutionModel`] hooks and implements
//! the paper's full mechanism:
//!
//! - **Intra-core determinism**: `red` instructions are written into atomic
//!   buffers ([`crate::buffer`]) in an order fixed by program order, lane
//!   order, and a determinism-aware warp scheduler; CTAs are statically
//!   distributed (Section IV-C5).
//! - **Inter-core determinism**: buffers flush through a global epoch
//!   protocol — pre-flush messages, per-partition round-robin reordering
//!   ([`crate::flush`]), and a no-overlap rule — so the ROPs apply every
//!   floating-point reduction in the same order on every run
//!   (Section IV-D).
//! - **Flush trigger**: an epoch begins only when a flush is *wanted*
//!   (a warp stalled on a full buffer, a fence/barrier, kernel end) and
//!   every scheduler is *sealed* — all its live warps blocked at
//!   deterministic program points — so each buffer's contents are a
//!   deterministic prefix of its fill sequence.
//! - **Optimizations**: atomic fusion (Section IV-E), flush coalescing
//!   (Section IV-F), offset flushing (Section VI-B2).
//! - **Relaxations** (Fig. 18): `NR` (no reordering), `NR-OF` (overlapping
//!   flushes), `NR-CIF` (cluster-independent flushing) — faster, but no
//!   longer deterministic.

use std::collections::{HashMap, VecDeque};

use gpu_sim::config::GpuConfig;
use gpu_sim::exec::{
    AtomicIssue, AtomicRoute, BarrierRelease, ExecutionModel, FenceAction, ModelCtx, WarpId,
};
use gpu_sim::kernel::CtaDistribution;
use gpu_sim::mem::packet::{AtomKind, Packet, Payload, RopOp};
use gpu_sim::mem::partition::{AckTarget, MemPartition, RopWork};
use gpu_sim::mem::{partition_of, sector_align};
use gpu_sim::sched::SchedKind;

use crate::buffer::{AtomicBuffer, BufferEntry};
use crate::config::{BufferLevel, DabConfig, Relaxation};
use crate::flush::PartitionReorder;

/// Entries the offset-flushing optimization rotates by (Section VI-B2:
/// "every SM with an even SM id starts flushing at the 32nd index").
const OFFSET_FLUSH_ROTATION: usize = 32;

/// Distribution of per-SM flush stream sizes (entries drained from one
/// SM's buffers per epoch). Bounds bracket the interesting regimes: empty
/// streams, a single warp-wide atomic (32 lanes), partial buffers, and
/// full default-capacity buffers.
static FLUSH_ENTRIES_HIST: obs::HistSpec = obs::HistSpec {
    name: "det.dab.flush_entries_hist",
    bounds: &[0, 32, 128, 512, 2048],
    buckets: &[
        "det.dab.flush_entries_hist.le0",
        "det.dab.flush_entries_hist.le32",
        "det.dab.flush_entries_hist.le128",
        "det.dab.flush_entries_hist.le512",
        "det.dab.flush_entries_hist.le2048",
        "det.dab.flush_entries_hist.le_inf",
    ],
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Push,
    Drain,
}

#[derive(Debug)]
enum Buffers {
    /// Indexed `sm * schedulers_per_sm + sched`.
    Scheduler(Vec<AtomicBuffer>),
    /// Keyed `(sm, slot)`, carrying the owner's unique id for deterministic
    /// per-SM stream ordering.
    Warp(HashMap<(usize, usize), (u64, AtomicBuffer)>),
}

/// Deterministic Atomic Buffering as a pluggable execution model.
///
/// # Examples
///
/// ```
/// use dab::{DabConfig, DabModel};
/// use gpu_sim::config::GpuConfig;
/// use gpu_sim::engine::GpuSim;
/// use gpu_sim::isa::{AtomicAccess, AtomicOp, Instr, Value, WarpProgram};
/// use gpu_sim::kernel::{CtaSpec, KernelGrid};
/// use gpu_sim::ndet::NdetSource;
///
/// let cfg = GpuConfig::tiny();
/// let red = Instr::Red {
///     op: AtomicOp::AddF32,
///     accesses: (0..32)
///         .map(|l| AtomicAccess::new(l, 0x1000, Value::F32(0.1)))
///         .collect(),
/// };
/// let cta = CtaSpec::new(0, vec![WarpProgram::new(vec![red], 32)]);
/// let grid = KernelGrid::new("sum", vec![cta]);
/// let model = DabModel::new(&cfg, DabConfig::default());
/// let report = GpuSim::new(cfg, Box::new(model), NdetSource::seeded(7)).run(&[grid]);
/// assert!(report.values.read_f32(0x1000) > 3.1);
/// ```
#[derive(Debug)]
pub struct DabModel {
    dab: DabConfig,
    gpu: GpuConfig,
    buffers: Buffers,
    phase: Phase,
    /// Per-SM: a warp of this SM demanded a flush (stalled atomic, fence,
    /// barrier, or held retirement).
    flush_requested: Vec<bool>,
    reorders: Vec<PartitionReorder>,
    /// Per-cluster queues of flush packets awaiting interconnect room.
    push_queues: Vec<VecDeque<Packet>>,
    /// Per-cluster flush-in-progress flag (NR-CIF mode).
    cluster_active: Vec<bool>,
    /// Cumulative flush transactions sent / acknowledged.
    sent: u64,
    acked: u64,
    /// Cumulative pre-flush messages sent / delivered (the no-overlap rule
    /// also covers protocol messages).
    preflush_sent: u64,
    preflush_delivered: u64,
    /// Total entries currently buffered across all buffers.
    total_entries: u64,
    flush_busy_since: Option<u64>,
    /// DAB is toggled off for the currently running kernel (Section IV-G).
    bypassed: bool,
}

impl DabModel {
    /// Builds a DAB model for the given machine and design point.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is unusable: scheduler-level buffers with
    /// a scheduler that is not determinism-aware, or a buffer too small to
    /// ever hold one warp-wide atomic.
    pub fn new(gpu: &GpuConfig, dab: DabConfig) -> Self {
        assert!(
            dab.capacity >= gpu.warp_size,
            "buffer capacity {} cannot hold a {}-lane warp atomic",
            dab.capacity,
            gpu.warp_size
        );
        if dab.level == BufferLevel::Scheduler {
            assert!(
                dab.scheduler.is_determinism_aware(),
                "scheduler-level buffers require a determinism-aware scheduler, got {}",
                dab.scheduler
            );
        }
        let buffers = match dab.level {
            BufferLevel::Scheduler => Buffers::Scheduler(
                (0..gpu.num_sms() * gpu.num_schedulers_per_sm)
                    .map(|_| AtomicBuffer::new(dab.capacity, dab.fusion))
                    .collect(),
            ),
            BufferLevel::Warp => Buffers::Warp(HashMap::new()),
        };
        Self {
            buffers,
            phase: Phase::Idle,
            flush_requested: vec![false; gpu.num_sms()],
            reorders: (0..gpu.num_mem_partitions)
                .map(|_| PartitionReorder::new(gpu.num_sms()))
                .collect(),
            push_queues: (0..gpu.num_clusters).map(|_| VecDeque::new()).collect(),
            cluster_active: vec![false; gpu.num_clusters],
            sent: 0,
            acked: 0,
            preflush_sent: 0,
            preflush_delivered: 0,
            total_entries: 0,
            flush_busy_since: None,
            bypassed: false,
            gpu: gpu.clone(),
            dab,
        }
    }

    /// The design point this model runs.
    pub fn dab_config(&self) -> &DabConfig {
        &self.dab
    }

    /// Records a flush-phase transition (a summary-level event).
    fn trace_flush(ctx: &mut ModelCtx<'_>, phase: obs::FlushPhase) {
        ctx.trace(obs::Event::Flush {
            cycle: ctx.cycle,
            phase,
        });
    }

    fn request_flush(&mut self, sm: usize) {
        self.flush_requested[sm] = true;
    }

    fn buffer_mut(&mut self, warp: &WarpId) -> &mut AtomicBuffer {
        let scheds = self.gpu.num_schedulers_per_sm;
        match &mut self.buffers {
            Buffers::Scheduler(v) => &mut v[warp.sched.sm * scheds + warp.sched.sched],
            Buffers::Warp(m) => {
                &mut m
                    .get_mut(&(warp.sched.sm, warp.slot))
                    .expect("warp buffer exists for live warp")
                    .1
            }
        }
    }

    fn any_entries_in_sm_range(&self, sms: std::ops::Range<usize>) -> bool {
        let scheds = self.gpu.num_schedulers_per_sm;
        match &self.buffers {
            Buffers::Scheduler(v) => sms
                .flat_map(|sm| (0..scheds).map(move |s| sm * scheds + s))
                .any(|i| !v[i].is_empty()),
            Buffers::Warp(m) => m
                .iter()
                .any(|((sm, _), (_, b))| sms.contains(sm) && !b.is_empty()),
        }
    }

    /// Drains SM `sm`'s buffers into one deterministic entry stream:
    /// scheduler-index order for scheduler-level buffers, warp-unique order
    /// for warp-level buffers, entries in fill order within each buffer.
    fn drain_sm_stream(&mut self, sm: usize) -> Vec<BufferEntry> {
        let scheds = self.gpu.num_schedulers_per_sm;
        let mut stream = Vec::new();
        match &mut self.buffers {
            Buffers::Scheduler(v) => {
                for s in 0..scheds {
                    stream.extend(v[sm * scheds + s].drain());
                }
            }
            Buffers::Warp(m) => {
                let mut keys: Vec<(u64, (usize, usize))> = m
                    .iter()
                    .filter(|((s, _), _)| *s == sm)
                    .map(|(k, (unique, _))| (*unique, *k))
                    .collect();
                keys.sort_unstable();
                for (_, k) in keys {
                    stream.extend(m.get_mut(&k).expect("key just listed").1.drain());
                }
            }
        }
        self.total_entries -= stream.len() as u64;
        if self.dab.offset_flush && sm.is_multiple_of(2) && !stream.is_empty() {
            let rot = OFFSET_FLUSH_ROTATION.min(stream.len());
            stream.rotate_left(rot);
        }
        stream
    }

    /// Groups an entry stream into flush transactions: one per cache sector
    /// when coalescing (first-occurrence order), one per entry otherwise.
    fn transactions(&self, stream: Vec<BufferEntry>) -> Vec<Vec<RopOp>> {
        if !self.dab.coalescing {
            return stream.into_iter().map(|e| vec![e.to_rop()]).collect();
        }
        let sector = self.gpu.sector_size as u64;
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<RopOp>> = HashMap::new();
        for e in stream {
            let s = sector_align(e.addr, sector);
            let g = groups.entry(s).or_insert_with(|| {
                order.push(s);
                Vec::new()
            });
            g.push(e.to_rop());
        }
        order
            .into_iter()
            .map(|s| groups.remove(&s).expect("group recorded"))
            .collect()
    }

    /// Converts SM `sm`'s buffered entries into pre-flush + transaction
    /// packets. Returns `(pre-flush packets, transaction packets)`.
    fn sm_flush_packets(
        &mut self,
        sm: usize,
        with_preflush: bool,
        ctx: &mut ModelCtx<'_>,
    ) -> (Vec<Packet>, Vec<Packet>) {
        let parts = self.gpu.num_mem_partitions;
        let flit = self.gpu.icnt_flit_size;
        let stream = self.drain_sm_stream(sm);
        let entries = stream.len() as u64;
        let txs = self.transactions(stream);
        let mut seqs = vec![0u32; parts];
        let mut packets = Vec::with_capacity(txs.len());
        for ops in txs {
            let p = partition_of(ops[0].addr, parts);
            debug_assert!(ops.iter().all(|o| partition_of(o.addr, parts) == p));
            let pkt = Packet::new(
                p,
                Payload::FlushEntry {
                    sm,
                    seq: seqs[p],
                    ops,
                },
                flit,
            );
            seqs[p] += 1;
            packets.push(pkt);
        }
        let mut preflush = Vec::new();
        if with_preflush {
            for (p, &expected) in seqs.iter().enumerate() {
                preflush.push(Packet::new(p, Payload::PreFlush { sm, expected }, flit));
            }
            self.preflush_sent += parts as u64;
            ctx.stats.bump("det.dab.preflush_msgs", parts as u64);
        }
        let n = packets.len() as u64;
        self.sent += n;
        ctx.stats.bump("det.dab.flush_entries", entries);
        ctx.stats.bump("det.dab.flush_txs", n);
        ctx.stats.bump(FLUSH_ENTRIES_HIST.bucket_key(entries), 1);
        if entries > 0 {
            ctx.stats.gauge_max("det.dab.flush_entries_max", entries);
        }
        (preflush, packets)
    }

    /// Queues a cluster's flush traffic: all pre-flush messages, then its
    /// SMs' transaction streams *interleaved* round-robin (the SMs push
    /// through the shared injection port concurrently).
    fn enqueue_cluster_flush(
        &mut self,
        cluster: usize,
        with_preflush: bool,
        ctx: &mut ModelCtx<'_>,
    ) {
        let spc = self.gpu.sms_per_cluster;
        let mut streams: Vec<std::collections::VecDeque<Packet>> = Vec::with_capacity(spc);
        for sm in cluster * spc..(cluster + 1) * spc {
            let (pre, txs) = self.sm_flush_packets(sm, with_preflush, ctx);
            self.push_queues[cluster].extend(pre);
            streams.push(txs.into());
        }
        loop {
            let mut any = false;
            for stream in &mut streams {
                if let Some(pkt) = stream.pop_front() {
                    self.push_queues[cluster].push_back(pkt);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
    }

    fn start_global_epoch(&mut self, ctx: &mut ModelCtx<'_>) {
        self.phase = Phase::Push;
        self.flush_busy_since = Some(ctx.cycle);
        let with_preflush = self.dab.relax == Relaxation::None;
        if with_preflush {
            for r in &mut self.reorders {
                r.reset();
            }
        }
        for cluster in 0..self.gpu.num_clusters {
            self.enqueue_cluster_flush(cluster, with_preflush, ctx);
        }
        ctx.stats.bump("det.dab.flushes", 1);
        Self::trace_flush(ctx, obs::FlushPhase::Start);
    }

    fn complete_epoch(&mut self, ctx: &mut ModelCtx<'_>) {
        for sm in 0..self.gpu.num_sms() {
            ctx.wake_flush_waiters(sm);
        }
        self.flush_requested.iter_mut().for_each(|f| *f = false);
        if let Some(since) = self.flush_busy_since.take() {
            ctx.stats.bump("det.dab.flush_cycles", ctx.cycle - since);
        }
        self.phase = Phase::Idle;
        Self::trace_flush(ctx, obs::FlushPhase::Complete);
    }

    /// Injects cluster `c`'s queued flush packets while its injection port
    /// has room; returns whether the queue is now empty.
    fn push_cluster(&mut self, c: usize, ctx: &mut ModelCtx<'_>) -> bool {
        while let Some(head) = self.push_queues[c].front() {
            if !ctx.can_inject_request(c, head.flits) {
                return false;
            }
            let pkt = self.push_queues[c].pop_front().expect("front exists");
            ctx.inject_request(c, pkt);
        }
        true
    }

    /// Pushes every cluster's queue; returns whether all are empty.
    fn push_packets(&mut self, ctx: &mut ModelCtx<'_>) -> bool {
        let mut all_empty = true;
        for c in 0..self.push_queues.len() {
            all_empty &= self.push_cluster(c, ctx);
        }
        all_empty
    }

    fn want_flush(&self, ctx: &ModelCtx<'_>) -> bool {
        self.flush_requested.iter().any(|&f| f)
            || (ctx.kernel_fully_dispatched && ctx.live_warps() == 0 && self.total_entries > 0)
    }

    fn tick_global(&mut self, ctx: &mut ModelCtx<'_>) {
        match self.phase {
            Phase::Idle => {
                // The seal may walk warps, so ask only once a flush is
                // wanted.
                if self.want_flush(ctx) && ctx.sealed(0..self.gpu.num_sms()) {
                    self.start_global_epoch(ctx);
                    self.push_packets(ctx);
                }
            }
            Phase::Push => {
                if self.push_packets(ctx) {
                    if self.dab.relax == Relaxation::NrOf {
                        // Overlapping flushes: resume as soon as everything
                        // is pushed; write-backs drain in the background.
                        self.complete_epoch(ctx);
                    } else {
                        self.phase = Phase::Drain;
                        Self::trace_flush(ctx, obs::FlushPhase::Drain);
                    }
                }
            }
            Phase::Drain => {
                if self.acked == self.sent && self.preflush_delivered == self.preflush_sent {
                    self.complete_epoch(ctx);
                }
            }
        }
    }

    fn tick_cif(&mut self, ctx: &mut ModelCtx<'_>) {
        let spc = self.gpu.sms_per_cluster;
        for c in 0..self.gpu.num_clusters {
            let sms = c * spc..(c + 1) * spc;
            if self.cluster_active[c] {
                // Push this cluster's packets; once pushed, release it
                // (overlap is inherent to cluster-independent flushing).
                if self.push_cluster(c, ctx) {
                    for sm in sms.clone() {
                        ctx.wake_flush_waiters(sm);
                        self.flush_requested[sm] = false;
                    }
                    self.cluster_active[c] = false;
                }
                continue;
            }
            let want = sms.clone().any(|sm| self.flush_requested[sm])
                || (ctx.kernel_fully_dispatched
                    && ctx.live_warps() == 0
                    && self.any_entries_in_sm_range(sms.clone()));
            if want && ctx.sealed(sms.clone()) {
                self.cluster_active[c] = true;
                self.flush_busy_since.get_or_insert(ctx.cycle);
                self.enqueue_cluster_flush(c, false, ctx);
                ctx.stats.bump("det.dab.flushes", 1);
                Self::trace_flush(ctx, obs::FlushPhase::Start);
            }
        }
        if self.cluster_active.iter().all(|&a| !a) {
            if let Some(since) = self.flush_busy_since.take() {
                ctx.stats.bump("det.dab.flush_cycles", ctx.cycle - since);
                Self::trace_flush(ctx, obs::FlushPhase::Complete);
            }
        }
    }
}

impl ExecutionModel for DabModel {
    fn name(&self) -> String {
        format!("dab-{}", self.dab.label())
    }

    fn scheduler_kind(&self) -> SchedKind {
        self.dab.scheduler
    }

    fn cta_distribution(&self, num_sms: usize) -> CtaDistribution {
        CtaDistribution::Static {
            active_sms: self.dab.active_sms.unwrap_or(num_sms),
        }
    }

    fn on_warp_spawn(&mut self, warp: WarpId) {
        if let Buffers::Warp(m) = &mut self.buffers {
            let prev = m.insert(
                (warp.sched.sm, warp.slot),
                (
                    warp.unique,
                    AtomicBuffer::new(self.dab.capacity, self.dab.fusion),
                ),
            );
            debug_assert!(
                prev.is_none_or(|(_, b)| b.is_empty()),
                "slot reused with non-empty warp buffer"
            );
        }
    }

    fn on_warp_exit(&mut self, warp: WarpId) {
        if let Buffers::Warp(m) = &mut self.buffers {
            if let Some((_, b)) = m.remove(&(warp.sched.sm, warp.slot)) {
                assert!(b.is_empty(), "warp retired with buffered atomics");
            }
        }
    }

    fn can_retire(&mut self, warp: WarpId) -> bool {
        match &self.buffers {
            Buffers::Scheduler(_) => true,
            Buffers::Warp(m) => {
                let empty = m
                    .get(&(warp.sched.sm, warp.slot))
                    .is_none_or(|(_, b)| b.is_empty());
                if !empty {
                    // The paper keeps warps active while their buffer is
                    // non-empty; waiting for a flush reclaims the slot.
                    self.request_flush(warp.sched.sm);
                }
                empty
            }
        }
    }

    fn on_kernel_start(&mut self, name: &str) {
        self.bypassed = self.dab.bypass_kernels.contains(name);
    }

    fn on_atomic(&mut self, issue: AtomicIssue<'_>, ctx: &mut ModelCtx<'_>) -> AtomicRoute {
        if self.bypassed {
            return AtomicRoute::ToMemory;
        }
        let sm = issue.warp.sched.sm;
        if issue.kind == AtomKind::Atom {
            // Returning atomics need global ordering: flush everything
            // first, then perform the operation directly at the ROP.
            if self.total_entries == 0 && self.phase == Phase::Idle && self.sent == self.acked {
                return AtomicRoute::ToMemory;
            }
            self.request_flush(sm);
            return AtomicRoute::StallFlush;
        }
        let write_cycles = self.dab.buffer_write_cycles;
        let accesses = issue.accesses;
        let op = issue.op;
        let before = {
            let buf = self.buffer_mut(&issue.warp);
            let before = buf.len();
            if !buf.try_insert(op, accesses) {
                self.request_flush(sm);
                return AtomicRoute::StallFlush;
            }
            before
        };
        let after = self.buffer_mut(&issue.warp).len();
        let added = (after - before) as u64;
        self.total_entries += added;
        let fused = accesses.len() as u64 - added;
        if fused > 0 {
            ctx.stats.bump("det.dab.fused_ops", fused);
        }
        if ctx.trace_full() {
            ctx.trace(obs::Event::BufFill {
                cycle: ctx.cycle,
                sm: sm as u32,
                sched: issue.warp.sched.sched as u32,
                len: after as u32,
            });
        }
        AtomicRoute::Buffered {
            cycles: write_cycles,
        }
    }

    fn on_fence(&mut self, warp: WarpId, _ctx: &mut ModelCtx<'_>) -> FenceAction {
        if self.bypassed {
            return FenceAction::DrainWarp;
        }
        self.request_flush(warp.sched.sm);
        FenceAction::WaitFlush
    }

    fn on_barrier_release(&mut self, sm: usize, _ctx: &mut ModelCtx<'_>) -> BarrierRelease {
        if self.bypassed {
            return BarrierRelease::Immediate;
        }
        // `__syncthreads` includes a CTA-level memory fence (Section IV-A):
        // buffered atomics must become visible before threads proceed.
        self.request_flush(sm);
        BarrierRelease::WaitFlush
    }

    fn on_pre_flush(
        &mut self,
        part: &mut MemPartition,
        sm: usize,
        expected: u32,
        _ctx: &mut ModelCtx<'_>,
    ) {
        debug_assert_eq!(self.dab.relax, Relaxation::None);
        self.preflush_delivered += 1;
        self.reorders[part.id()].on_pre_flush(sm, expected, part);
    }

    fn on_flush_entry(
        &mut self,
        part: &mut MemPartition,
        sm: usize,
        seq: u32,
        ops: Vec<RopOp>,
        _ctx: &mut ModelCtx<'_>,
    ) {
        match self.dab.relax {
            Relaxation::None => {
                self.reorders[part.id()].on_entry(sm, seq, ops, part, self.dab.vwq_mimic);
            }
            // Relaxed: ROP applies in (non-deterministic) arrival order.
            Relaxation::Nr | Relaxation::NrOf | Relaxation::NrCif => {
                part.enqueue_rop(RopWork {
                    ops,
                    ack: AckTarget::FlushSm { sm },
                });
            }
        }
    }

    fn on_flush_ack(&mut self, _sm: usize, _ctx: &mut ModelCtx<'_>) {
        self.acked += 1;
    }

    fn tick(&mut self, ctx: &mut ModelCtx<'_>) {
        if self.dab.relax == Relaxation::NrCif {
            self.tick_cif(ctx);
        } else {
            self.tick_global(ctx);
        }
    }

    fn buffered_entries(&self) -> u64 {
        self.total_entries
    }

    fn buffered_entries_per_sm(&self, out: &mut [u64]) {
        let scheds = self.gpu.num_schedulers_per_sm;
        match &self.buffers {
            Buffers::Scheduler(v) => {
                for (i, buf) in v.iter().enumerate() {
                    out[i / scheds] += buf.len() as u64;
                }
            }
            Buffers::Warp(m) => {
                for ((sm, _), (_, buf)) in m {
                    out[*sm] += buf.len() as u64;
                }
            }
        }
    }

    fn quiescent(&self) -> bool {
        self.phase == Phase::Idle
            && self.cluster_active.iter().all(|&a| !a)
            && self.sent == self.acked
            && self.preflush_delivered == self.preflush_sent
            && self.total_entries == 0
    }

    fn next_event_cycle(&self) -> Option<u64> {
        // While idle with no cluster flushing, `tick` only probes the
        // flush-start conditions, and every input to those (flush requests,
        // scheduler seals, dispatch status, buffered-entry counts) changes
        // only through engine actions on cycles the engine visits anyway — so
        // skipping the probe on idle cycles cannot change when a flush
        // starts. Buffered entries or in-flight acks alone keep the model
        // non-quiescent but do not require ticking.
        let flushing = self.phase != Phase::Idle || self.cluster_active.iter().any(|&a| a);
        flushing.then_some(0)
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
                                cycles: 4,
                                count: 8,
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
                            Instr::Red {
                                op: AtomicOp::AddF32,
                                accesses: (0..32)
                                    .map(|l| {
                                        AtomicAccess::new(
                                            l,
                                            0x800 + 4 * (l as u64 % 8),
                                            Value::F32(0.3),
                                        )
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

    fn run_dab(cfg: DabConfig, seed: u64, ctas: usize) -> (u64, u64) {
        let gpu = GpuConfig::tiny();
        let model = DabModel::new(&gpu, cfg);
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(seed))
            .run(&[order_sensitive_grid(ctas)]);
        (report.digest(), report.cycles())
    }

    #[test]
    fn flush_entries_hist_spec_is_well_formed() {
        let h = &FLUSH_ENTRIES_HIST;
        assert!(
            h.bounds.windows(2).all(|w| w[0] < w[1]),
            "{}: bounds must be strictly increasing",
            h.name
        );
        assert_eq!(
            h.buckets.len(),
            h.bounds.len() + 1,
            "{}: one bucket key per bound plus le_inf",
            h.name
        );
        let expect = h
            .bounds
            .iter()
            .map(|b| format!("{}.le{b}", h.name))
            .chain([format!("{}.le_inf", h.name)]);
        for (&key, want) in h.buckets.iter().zip(expect) {
            assert_eq!(key, want, "{}: misspelt bucket key", h.name);
            assert!(obs::metrics::validate_name(key).is_ok(), "{key}");
        }
    }

    #[test]
    fn dab_default_is_deterministic_across_seeds() {
        let digests: Vec<u64> = (0..4)
            .map(|seed| run_dab(DabConfig::paper_default(), seed, 24).0)
            .collect();
        assert!(
            digests.windows(2).all(|w| w[0] == w[1]),
            "DAB must be bitwise deterministic: {digests:?}"
        );
    }

    #[test]
    fn dab_all_schedulers_deterministic() {
        for sched in [
            SchedKind::Srr,
            SchedKind::Gtrr,
            SchedKind::Gtar,
            SchedKind::Gwat,
        ] {
            let cfg = DabConfig::paper_default().with_scheduler(sched);
            let a = run_dab(cfg.clone(), 1, 16).0;
            let b = run_dab(cfg, 2, 16).0;
            assert_eq!(a, b, "{sched} must be deterministic");
        }
    }

    #[test]
    fn warp_level_deterministic() {
        let cfg = DabConfig::warp_level();
        let a = run_dab(cfg.clone(), 1, 16).0;
        let b = run_dab(cfg, 5, 16).0;
        assert_eq!(a, b);
    }

    #[test]
    fn computes_correct_sum() {
        let gpu = GpuConfig::tiny();
        let model = DabModel::new(&gpu, DabConfig::paper_default());
        let grid = KernelGrid::new(
            "sum",
            (0..8)
                .map(|c| {
                    CtaSpec::new(
                        c,
                        vec![WarpProgram::new(
                            vec![Instr::Red {
                                op: AtomicOp::AddU32,
                                accesses: (0..32)
                                    .map(|l| AtomicAccess::new(l, 0x100, Value::U32(1)))
                                    .collect(),
                            }],
                            32,
                        )],
                    )
                })
                .collect(),
        );
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(3)).run(&[grid]);
        assert_eq!(report.values.read_u32(0x100), 256);
        assert!(report.stats.counter("det.dab.flushes") >= 1);
    }

    #[test]
    fn fusion_reduces_entries() {
        let gpu = GpuConfig::tiny();
        let grid = || order_sensitive_grid(8);
        let run = |fusion: bool| {
            let model = DabModel::new(&gpu, DabConfig::paper_default().with_fusion(fusion));
            GpuSim::new(gpu.clone(), Box::new(model), NdetSource::disabled()).run(&[grid()])
        };
        let with = run(true);
        let without = run(false);
        assert!(with.stats.counter("det.dab.fused_ops") > 0);
        assert_eq!(without.stats.counter("det.dab.fused_ops"), 0);
        assert!(
            with.stats.counter("det.dab.flush_entries")
                < without.stats.counter("det.dab.flush_entries")
        );
    }

    #[test]
    fn coalescing_reduces_transactions() {
        let gpu = GpuConfig::tiny();
        let run = |coal: bool| {
            let model = DabModel::new(
                &gpu,
                DabConfig::paper_default()
                    .with_fusion(false)
                    .with_coalescing(coal),
            );
            GpuSim::new(gpu.clone(), Box::new(model), NdetSource::disabled())
                .run(&[order_sensitive_grid(8)])
        };
        let with = run(true);
        let without = run(false);
        assert!(
            with.stats.counter("det.dab.flush_txs") < without.stats.counter("det.dab.flush_txs")
        );
        // Same entries either way.
        assert_eq!(
            with.stats.counter("det.dab.flush_entries"),
            without.stats.counter("det.dab.flush_entries")
        );
    }

    #[test]
    fn offset_flush_still_deterministic_and_correct() {
        let cfg = DabConfig::paper_default().with_offset_flush(true);
        let a = run_dab(cfg.clone(), 1, 16).0;
        let b = run_dab(cfg, 9, 16).0;
        assert_eq!(a, b);
    }

    #[test]
    fn relaxed_variants_run_and_are_labelled() {
        for relax in [Relaxation::Nr, Relaxation::NrOf, Relaxation::NrCif] {
            let cfg = DabConfig::paper_default().with_relaxation(relax);
            let gpu = GpuConfig::tiny();
            let model = DabModel::new(&gpu, cfg);
            assert!(model.name().contains("NR"));
            let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1))
                .run(&[order_sensitive_grid(8)]);
            // Integer check: relaxation must not lose operations.
            assert!(report.stats.atomics > 0);
        }
    }

    #[test]
    fn atom_instruction_forces_flush_then_executes() {
        let gpu = GpuConfig::tiny();
        let grid = KernelGrid::new(
            "atom",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![
                        Instr::Red {
                            op: AtomicOp::AddU32,
                            accesses: vec![AtomicAccess::new(0, 0x40, Value::U32(7))],
                        },
                        Instr::Atom {
                            op: AtomicOp::AddU32,
                            accesses: vec![AtomicAccess::new(0, 0x40, Value::U32(1))],
                        },
                    ],
                    1,
                )],
            )],
        );
        let model = DabModel::new(&gpu, DabConfig::paper_default());
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        assert_eq!(report.values.read_u32(0x40), 8);
        assert!(report.stats.counter("det.dab.flushes") >= 1);
    }

    #[test]
    fn barrier_forces_flush_visibility() {
        let gpu = GpuConfig::tiny();
        // Warp 0 reduces, barrier, then both warps reduce again; the barrier
        // must flush the first reduction.
        let prog = |first: u32| {
            WarpProgram::new(
                vec![
                    Instr::Red {
                        op: AtomicOp::AddU32,
                        accesses: vec![AtomicAccess::new(0, 0x40, Value::U32(first))],
                    },
                    Instr::Bar,
                    Instr::Red {
                        op: AtomicOp::AddU32,
                        accesses: vec![AtomicAccess::new(0, 0x44, Value::U32(1))],
                    },
                ],
                1,
            )
        };
        let grid = KernelGrid::new("bar", vec![CtaSpec::new(0, vec![prog(3), prog(4)])]);
        let model = DabModel::new(&gpu, DabConfig::paper_default());
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        assert_eq!(report.values.read_u32(0x40), 7);
        assert_eq!(report.values.read_u32(0x44), 2);
        assert!(report.stats.counter("det.dab.flushes") >= 2);
    }

    #[test]
    #[should_panic(expected = "determinism-aware")]
    fn scheduler_level_rejects_gto() {
        let gpu = GpuConfig::tiny();
        DabModel::new(
            &gpu,
            DabConfig::paper_default().with_scheduler(SchedKind::Gto),
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn tiny_capacity_rejected() {
        let gpu = GpuConfig::tiny();
        DabModel::new(&gpu, DabConfig::paper_default().with_capacity(8));
    }

    #[test]
    fn bypassed_kernels_skip_dab_while_others_stay_deterministic() {
        // Section IV-G: API calls toggle DAB off per kernel. A bypassed
        // kernel behaves like the baseline (timing-dependent f32 results);
        // a subsequent non-bypassed kernel remains bitwise deterministic.
        let gpu = GpuConfig::tiny();
        let hot = |addr: u64, c: usize| Instr::Red {
            op: AtomicOp::AddF32,
            accesses: (0..32)
                .map(|l| {
                    let v = 0.1f32 * ((c * 32 + l + 1) % 97) as f32;
                    AtomicAccess::new(l, addr, Value::F32(v))
                })
                .collect(),
        };
        let grid = |name: &str, addr: u64| {
            KernelGrid::new(
                name,
                (0..16)
                    .map(|c| CtaSpec::new(c, vec![WarpProgram::new(vec![hot(addr, c)], 32)]))
                    .collect(),
            )
        };
        let run = |seed: u64| {
            let cfg = DabConfig::paper_default()
                .with_fusion(false)
                .with_bypass_kernel("free");
            let model = DabModel::new(&gpu, cfg);
            let report = GpuSim::new(gpu.clone(), Box::new(model), NdetSource::seeded(seed))
                .run(&[grid("free", 0x100), grid("det", 0x200)]);
            (
                report.values.read_bits(0x100),
                report.values.read_bits(0x200),
            )
        };
        let results: Vec<(u32, u32)> = (0..6).map(run).collect();
        assert!(
            results.windows(2).all(|w| w[0].1 == w[1].1),
            "non-bypassed kernel must stay deterministic: {results:?}"
        );
        assert!(
            results.windows(2).any(|w| w[0].0 != w[1].0),
            "bypassed kernel should show baseline non-determinism: {results:?}"
        );
    }

    #[test]
    fn bypassed_kernel_avoids_flush_overhead() {
        let gpu = GpuConfig::tiny();
        let grid = order_sensitive_grid(16);
        let run = |bypass: bool| {
            let mut cfg = DabConfig::paper_default();
            if bypass {
                cfg = cfg.with_bypass_kernel(grid.name.clone());
            }
            let model = DabModel::new(&gpu, cfg);
            GpuSim::new(gpu.clone(), Box::new(model), NdetSource::seeded(1))
                .run(std::slice::from_ref(&grid))
        };
        let with_dab = run(false);
        let bypassed = run(true);
        assert_eq!(bypassed.stats.counter("det.dab.flushes"), 0);
        assert!(with_dab.stats.counter("det.dab.flushes") > 0);
    }

    #[test]
    fn flush_counters_account_for_all_entries() {
        let gpu = GpuConfig::tiny();
        let grid = order_sensitive_grid(16);
        let expected = grid.atomics();
        let model = DabModel::new(&gpu, DabConfig::paper_default().with_fusion(false));
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(2)).run(&[grid]);
        // Without fusion every buffered op becomes exactly one flushed entry
        // and eventually one ROP op.
        assert_eq!(report.stats.counter("det.dab.flush_entries"), expected);
        assert_eq!(report.stats.counter("det.rop.ops"), expected);
        // Coalescing merges same-sector entries: fewer transactions than
        // entries is the whole point.
        assert!(report.stats.counter("det.dab.flush_txs") < expected);
    }

    #[test]
    fn preflush_messages_scale_with_flushes() {
        let gpu = GpuConfig::tiny();
        let grid = order_sensitive_grid(12);
        let model = DabModel::new(&gpu, DabConfig::paper_default());
        let report = GpuSim::new(gpu.clone(), Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        let flushes = report.stats.counter("det.dab.flushes");
        let msgs = report.stats.counter("det.dab.preflush_msgs");
        // One message per SM per partition per epoch.
        assert_eq!(
            msgs,
            flushes * (gpu.num_sms() * gpu.num_mem_partitions) as u64
        );
    }

    #[test]
    fn nr_variants_skip_preflush() {
        let gpu = GpuConfig::tiny();
        let grid = order_sensitive_grid(12);
        let model = DabModel::new(
            &gpu,
            DabConfig::paper_default().with_relaxation(Relaxation::Nr),
        );
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        assert_eq!(report.stats.counter("det.dab.preflush_msgs"), 0);
        assert!(report.stats.counter("det.dab.flushes") > 0);
    }

    #[test]
    fn warp_level_holds_finished_warps_until_flush() {
        // A warp whose last instruction is a buffered atomic cannot retire
        // until its warp-level buffer drains; the run must still complete
        // (the can_retire path requests the flush).
        let gpu = GpuConfig::tiny();
        let grid = KernelGrid::new(
            "tail",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![Instr::Red {
                        op: AtomicOp::AddU32,
                        accesses: (0..32)
                            .map(|l| AtomicAccess::new(l, 0x40 + 4 * l as u64, Value::U32(1)))
                            .collect(),
                    }],
                    32,
                )],
            )],
        );
        let model = DabModel::new(&gpu, DabConfig::warp_level());
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        assert_eq!(report.values.read_u32(0x40), 1);
        assert!(report.stats.counter("det.dab.flushes") >= 1);
    }

    #[test]
    fn offset_flush_rotates_even_sm_streams() {
        // Unit-level: drain_sm_stream rotation is observable through the
        // transaction sequence numbers per partition.
        let gpu = GpuConfig::tiny();
        let cfg = DabConfig::paper_default()
            .with_offset_flush(true)
            .with_fusion(false)
            .with_coalescing(false);
        let grid = order_sensitive_grid(8);
        let model = DabModel::new(&gpu, cfg);
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1)).run(&[grid]);
        // Still exact: rotation must lose nothing.
        assert_eq!(
            report.stats.counter("det.dab.flush_entries"),
            report.stats.counter("det.rop.ops")
        );
    }

    #[test]
    fn sm_gating_distributes_to_fewer_sms() {
        let gpu = GpuConfig::tiny();
        let model = DabModel::new(&gpu, DabConfig::paper_default().with_active_sms(1));
        assert_eq!(
            model.cta_distribution(2),
            CtaDistribution::Static { active_sms: 1 }
        );
        let report = GpuSim::new(gpu, Box::new(model), NdetSource::seeded(1))
            .run(&[order_sensitive_grid(8)]);
        assert!(report.cycles() > 0);
    }
}
