//! The cycle-level simulation engine.
//!
//! [`GpuSim`] owns the whole machine — SMs, interconnect, memory partitions,
//! the functional value memory, the lock manager, and one
//! [`ExecutionModel`] — and advances it cycle by cycle. Each cycle:
//!
//! 1. memory partitions tick (DRAM, L2, ROP commits atomics *in queue
//!    order* into the value memory);
//! 2. the interconnect moves packets (with seeded arbitration jitter);
//! 3. arrived responses wake warps and fill L1s;
//! 4. the deterministic lock manager serves ticket holders;
//! 5. every warp scheduler, in global `(SM, scheduler)` order, picks and
//!    issues one instruction, consulting the execution model for gating and
//!    atomic routing; memory requests enter the interconnect as they issue
//!    (the issue walk, `GpuSim::issue` in the `commit` module);
//! 6. CTAs are dispatched per the model's distribution policy;
//! 7. the model ticks (flush controllers, quantum state machines) and its
//!    wake commands are applied.
//!
//! A run executes a sequence of [`KernelGrid`]s back to back and returns a
//! [`RunReport`] with statistics and the final memory contents, whose
//! [`digest`](crate::values::ValueMem::digest) is what determinism is
//! judged by throughout the test-suite and benchmarks.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::config::{EngineKind, GpuConfig};
use crate::exec::{ExecutionModel, ModelCtx, SchedId, WakeCmd, WarpId};
use crate::imeta::{warp_meta, WarpMeta};
use crate::kernel::{CtaDistribution, KernelGrid};
use crate::lock::{LockManager, LockPrescan};
use crate::mem::cache::Probed;
use crate::mem::icnt::Interconnect;
use crate::mem::packet::{AtomKind, Payload, WarpRef};
use crate::mem::partition::MemPartition;
use crate::ndet::NdetSource;
use crate::sched::{SchedKind, WarpView};
use crate::sm::{Sleeper, Sm, WarpState};
use crate::stats::SimStats;
use crate::values::ValueMem;

/// Outcome of one simulation run.
#[derive(Debug)]
pub struct RunReport {
    /// Execution model name.
    pub model: String,
    /// Aggregated statistics (cycles, IPC, counters).
    pub stats: SimStats,
    /// Final functional memory; `values.digest()` is the determinism check.
    pub values: ValueMem,
    /// Cycles consumed by each kernel, in launch order.
    pub kernel_cycles: Vec<(String, u64)>,
    /// Host wall-clock time the run took (simulator throughput, not a
    /// simulated quantity — excluded from any determinism comparison).
    pub wall: std::time::Duration,
    /// Structured event trace, present when the run was configured with
    /// `cfg.trace` enabled (`DAB_TRACE=summary|full`). Its `[arch]` and
    /// `[samples]` sections are byte-identical for either engine; the
    /// `[engine]` section (cycle-skip spans) is engine-variant by design.
    pub trace: Option<obs::Trace>,
    /// Fine-grained engine span profile, present when the run was
    /// configured with `cfg.profile` (the benchmark's traced pass). Pure
    /// host timing — excluded from every determinism comparison; the
    /// simulated results are bit-identical with the profiler on or off.
    pub profile: Option<obs::PhaseProfile>,
}

impl RunReport {
    /// Total cycles across all kernels.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Order-independent digest of the final memory (bitwise determinism
    /// comparisons between runs).
    pub fn digest(&self) -> u64 {
        self.values.digest()
    }

    /// Host wall-clock seconds the run took.
    pub fn wall_secs(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    /// Simulated cycles per host second (simulator throughput).
    pub fn cycles_per_sec(&self) -> f64 {
        self.stats.cycles as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Seed-invariant, per-kernel tables: everything that is a pure function
/// of the trace IR and the machine geometry — never of the timing seed —
/// built once per kernel at kernel start and shared read-only by every
/// CTA placement of that kernel.
#[derive(Debug)]
pub struct KernelStatics {
    /// Deterministic unique-id base per CTA.
    unique_bases: Vec<u64>,
    /// Pre-registered deterministic lock tickets for the whole grid.
    lock_prescan: LockPrescan,
    /// Per-CTA, per-warp instruction metadata tables. CTAs reusing one
    /// `Arc<WarpProgram>` share one table.
    metas: Vec<Vec<Arc<WarpMeta>>>,
}

impl KernelStatics {
    /// Builds the per-kernel tables for `grid` under `cfg`'s geometry.
    pub fn build(cfg: &GpuConfig, grid: &KernelGrid) -> Self {
        let mut unique_bases = Vec::with_capacity(grid.ctas.len());
        let mut base = 0u64;
        for cta in &grid.ctas {
            unique_bases.push(base);
            base += cta.num_warps() as u64;
        }
        let mut lock_prescan = LockPrescan::default();
        let mut by_program: HashMap<usize, Arc<WarpMeta>> = HashMap::new();
        let mut metas = Vec::with_capacity(grid.ctas.len());
        for (idx, cta) in grid.ctas.iter().enumerate() {
            let mut cta_metas = Vec::with_capacity(cta.warps.len());
            for (w, program) in cta.warps.iter().enumerate() {
                lock_prescan.scan_warp(program, unique_bases[idx] + w as u64);
                let meta = by_program
                    .entry(Arc::as_ptr(program) as usize)
                    .or_insert_with(|| warp_meta(program, cfg));
                cta_metas.push(Arc::clone(meta));
            }
            metas.push(cta_metas);
        }
        lock_prescan.finish();
        Self {
            unique_bases,
            lock_prescan,
            metas,
        }
    }
}

#[derive(Debug)]
struct Dispatcher {
    /// Dynamic mode: shared queue of CTA indices.
    dynamic_queue: VecDeque<usize>,
    /// Static mode: per-SM queues of CTA indices.
    static_queues: Vec<VecDeque<usize>>,
    /// Per-kernel tables (unique-id bases, instruction metadata).
    statics: KernelStatics,
    is_static: bool,
    rr: usize,
}

impl Dispatcher {
    fn new(
        grid: &KernelGrid,
        dist: CtaDistribution,
        num_sms: usize,
        statics: KernelStatics,
    ) -> Self {
        match dist {
            CtaDistribution::Dynamic => Self {
                dynamic_queue: (0..grid.ctas.len()).collect(),
                static_queues: Vec::new(),
                statics,
                is_static: false,
                rr: 0,
            },
            CtaDistribution::Static { active_sms } => {
                let active = active_sms.clamp(1, num_sms);
                let mut queues: Vec<VecDeque<usize>> =
                    (0..num_sms).map(|_| VecDeque::new()).collect();
                for idx in 0..grid.ctas.len() {
                    queues[idx % active].push_back(idx);
                }
                Self {
                    dynamic_queue: VecDeque::new(),
                    static_queues: queues,
                    statics,
                    is_static: true,
                    rr: 0,
                }
            }
        }
    }

    fn all_dispatched(&self) -> bool {
        if self.is_static {
            self.static_queues.iter().all(|q| q.is_empty())
        } else {
            self.dynamic_queue.is_empty()
        }
    }
}

/// Engine-activity accounting: how much work the cycle loop actually did.
///
/// The dense and event engines report different values *by design* — the
/// event engine exists to visit less — so determinism comparisons between
/// the two engines must ignore the `det.engine.*` stat keys these fold into.
#[derive(Debug, Default)]
pub(crate) struct ActivityCounters {
    /// Cycles the engine never visited: event-wheel jumps. Always 0 on the
    /// dense engine, which visits every cycle.
    cycles_skipped: u64,
    /// Warp sleep→ready transitions, counted by the one wake path
    /// (`GpuSim::wake`), so it equals the trace's `Wake` events.
    pub(crate) wakeup_events: u64,
    /// SMs entered by an issue walk (not skipped by the active-set walk).
    pub(crate) sms_ticked: u64,
    /// Full warp-array ready-bound rescans (batch-gate openings): the
    /// O(warps/scheduler) work incremental wake lists avoid. Before wake
    /// lists every scheduler visit ended in one, so comparing this against
    /// older measurements shows the saving.
    pub(crate) scheduler_scans: u64,
    /// Partitions entered by `tick_partitions` (not skipped by the
    /// sleeping-partition check).
    partitions_ticked: u64,
}

/// The simulator: one GPU, one execution model, one run.
///
/// Construct with [`GpuSim::new`] and consume with [`GpuSim::run`]; build a
/// fresh simulator for every run (runs are cheap to set up and this keeps
/// every run's initial state identical by construction).
#[derive(Debug)]
pub struct GpuSim {
    pub(crate) cfg: GpuConfig,
    pub(crate) model: Box<dyn ExecutionModel>,
    /// Root non-determinism stream (CTA-dispatch tiebreaks). Per-endpoint
    /// child streams below are split off this root at construction, so
    /// each endpoint's draws depend only on the seed and its own tag.
    ndet: NdetSource,
    /// One child stream per memory partition (DRAM timing jitter).
    part_ndet: Vec<NdetSource>,
    /// One child stream per memory partition (interconnect arbitration,
    /// cluster→memory direction).
    icnt_mem_ndet: Vec<NdetSource>,
    /// One child stream per cluster (interconnect arbitration,
    /// memory→cluster direction).
    icnt_cl_ndet: Vec<NdetSource>,
    values: ValueMem,
    /// Every SM, in global (cluster-major) index order.
    pub(crate) sms: Vec<Sm>,
    pub(crate) icnt: Interconnect,
    partitions: Vec<MemPartition>,
    pub(crate) locks: LockManager,
    pub(crate) stats: SimStats,
    pub(crate) cycle: u64,
    /// Every CTA of the current kernel has been placed (updated at each
    /// placement; [`ModelCtx::kernel_fully_dispatched`]).
    all_dispatched: bool,
    wakes: Vec<WakeCmd>,
    /// Where the model's next seal query starts ([`ModelCtx::sealed`]).
    seal_witness: usize,
    /// The issue walk's warp-view buffer, refilled at every scheduler
    /// visit (`Sm::build_views`).
    pub(crate) views: Vec<WarpView>,
    /// The L1 probes of the load being issued, reused by every load.
    pub(crate) load_probes: Vec<Probed>,
    /// Some scheduler may sleep on an interconnect refusal: the issue walk
    /// first wakes those whose request now fits (`wake_icnt_sleepers`).
    /// Set with such a sleep, cleared by the wake pass once none is left,
    /// so the pass costs nothing while no scheduler sleeps that way.
    pub(crate) icnt_sleeps: bool,
    /// Whether a scheduler may sleep through its greedy warp's ALU burst
    /// (`Sleeper::Burst`): off under full tracing, which records one
    /// `Issue` event per issue. The model's `issue_budget` caps each sleep.
    pub(crate) burst_sleeps: bool,
    /// The last CTA placement scan placed nothing and no warp has retired
    /// since. Placement capacity (`Sm::can_accept`) changes only at a
    /// placement or a retirement, and a scan that places nothing draws no
    /// perturbation, so `dispatch` skips its scan while this holds.
    pub(crate) dispatch_idle: bool,
    pub(crate) sched_kind: SchedKind,
    last_progress_cycle: u64,
    /// Dense engine only: the cycle the event engine would have advanced
    /// to from the last visited cycle (0 on the event engine). The cycles
    /// before it are ones the event engine skips.
    event_target: u64,
    /// Cycles without progress before the run panics as deadlocked
    /// ([`DEADLOCK_HORIZON`]; unit tests lower it).
    deadlock_horizon: u64,
    pub(crate) activity: ActivityCounters,
    /// Structured event tracer, `None` when `cfg.trace` is off — the
    /// off-mode fast path is a single pointer null-check per trace site.
    /// All recording happens in commit order, so the trace's deterministic
    /// sections are byte-identical for either engine.
    tracer: Option<Box<obs::Tracer>>,
    /// Fine-grained engine span profiler, `None` when `cfg.profile` is off
    /// (the off-mode cost is one null-check per phase boundary). The data
    /// is pure `wall.*` host timing and never touches [`SimStats`].
    ///
    /// The profiler *samples*: per-cycle spans are timed on one engine
    /// step in [`PROFILE_SAMPLE_INTERVAL`] and scaled back up, so the
    /// clock is read on few steps even on hosts where a read is slow (see
    /// [`Self::prof_start`]).
    profile: Option<Box<obs::PhaseProfile>>,
    /// True when the current engine step is a profiler sample step
    /// (recomputed at the top of [`Self::kernel_step`]; always false with
    /// the profiler off).
    prof_sample: bool,
    /// Engine steps taken so far, for the profiler's sampling clock. Runs
    /// on executed steps, not cycle numbers, so the event engine's cycle
    /// skipping cannot alias with the sample interval.
    prof_steps: u64,
}

/// Flattens a packet payload to its trace event class.
pub(crate) fn pkt_kind(payload: &Payload) -> obs::PacketKind {
    match payload {
        Payload::LoadReq { .. } => obs::PacketKind::LoadReq,
        Payload::StoreReq { .. } => obs::PacketKind::StoreReq,
        Payload::AtomicReq { .. } => obs::PacketKind::AtomicReq,
        Payload::PreFlush { .. } => obs::PacketKind::PreFlush,
        Payload::FlushEntry { .. } => obs::PacketKind::FlushEntry,
        Payload::LoadResp { .. } => obs::PacketKind::LoadResp,
        Payload::StoreAck { .. } => obs::PacketKind::StoreAck,
        Payload::AtomicAck { .. } => obs::PacketKind::AtomicAck,
        Payload::FlushAck { .. } => obs::PacketKind::FlushAck,
    }
}

/// Cycles of engine inactivity after which the engine declares deadlock.
const DEADLOCK_HORIZON: u64 = 5_000_000;

/// The span profiler times one engine step out of this many and scales
/// the sampled durations back up (see [`GpuSim::prof_start`]): with ~15
/// span boundaries per step and monotonic-clock reads costing hundreds of
/// nanoseconds on some hosts, timing every step would cost more than the
/// step itself. At 16, every phase is still sampled thousands of times on
/// real workloads.
const PROFILE_SAMPLE_INTERVAL: u32 = 16;

impl GpuSim {
    /// Builds a simulator for `cfg` running `model`, with hardware timing
    /// perturbations drawn from `ndet`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`GpuConfig::validate`].
    pub fn new(cfg: GpuConfig, model: Box<dyn ExecutionModel>, ndet: NdetSource) -> Self {
        cfg.validate().expect("invalid GPU configuration");
        let sched_kind = model.scheduler_kind();
        let sms = (0..cfg.num_sms())
            .map(|id| Sm::new(id, &cfg, sched_kind))
            .collect();
        let dram_jitter = if ndet.is_enabled() { 16 } else { 0 };
        let partitions = (0..cfg.num_mem_partitions)
            .map(|id| MemPartition::new(id, &cfg, dram_jitter))
            .collect();
        // Fixed stream tags keep every endpoint's draw sequence a pure
        // function of the seed.
        let part_ndet = (0..cfg.num_mem_partitions)
            .map(|p| ndet.split(0x1000_0000 + p as u64))
            .collect();
        let icnt_mem_ndet = (0..cfg.num_mem_partitions)
            .map(|p| ndet.split(0x2000_0000 + p as u64))
            .collect();
        let icnt_cl_ndet = (0..cfg.num_clusters)
            .map(|c| ndet.split(0x3000_0000 + c as u64))
            .collect();
        let burst_sleeps = cfg.trace != obs::TraceMode::Full;
        Self {
            icnt: Interconnect::new(&cfg),
            locks: LockManager::new(&cfg),
            sms,
            partitions,
            values: ValueMem::new(),
            stats: SimStats::default(),
            cycle: 0,
            all_dispatched: false,
            wakes: Vec::new(),
            seal_witness: 0,
            views: Vec::new(),
            load_probes: Vec::new(),
            icnt_sleeps: false,
            burst_sleeps,
            dispatch_idle: false,
            sched_kind,
            model,
            ndet,
            part_ndet,
            icnt_mem_ndet,
            icnt_cl_ndet,
            tracer: cfg
                .trace
                .enabled()
                .then(|| Box::new(obs::Tracer::new(cfg.trace, cfg.trace_sample_interval))),
            profile: cfg.profile.then(Box::default),
            prof_sample: false,
            prof_steps: 0,
            cfg,
            last_progress_cycle: 0,
            event_target: 0,
            deadlock_horizon: DEADLOCK_HORIZON,
            activity: ActivityCounters::default(),
        }
    }

    /// Starts a profiler span: the current instant when profiling is on
    /// *and* this engine step is a sample step, `None` (no timer read at
    /// all) otherwise.
    ///
    /// Per-cycle spans are sampled rather than timed on every step: a
    /// monotonic clock read can cost hundreds of nanoseconds on
    /// virtualized hosts, and the engine crosses ~15 span boundaries per
    /// step, which would dwarf a microsecond-scale simulated cycle.
    /// Timing one step in [`PROFILE_SAMPLE_INTERVAL`] and scaling the
    /// elapsed time back up keeps the per-phase totals an unbiased
    /// estimate while reading the clock on few steps.
    /// The sampling clock counts *executed steps* (`prof_steps`), never
    /// cycle numbers, and the profiler reads no simulated state — results
    /// are bit-identical with profiling on or off.
    #[inline]
    fn prof_start(&self) -> Option<std::time::Instant> {
        self.prof_sample.then(std::time::Instant::now)
    }

    /// Ends a profiler span started by [`prof_start`](Self::prof_start),
    /// scaling the sampled duration by the sample interval so recorded
    /// totals estimate full-run phase time.
    #[inline]
    fn prof_record(&mut self, phase: obs::Phase, started: Option<std::time::Instant>) {
        if let Some(t) = started {
            if let Some(p) = self.profile.as_deref_mut() {
                p.record(phase, t.elapsed() * PROFILE_SAMPLE_INTERVAL);
            }
        }
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Runs the kernels in order and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the machine makes no progress for an implausibly long time
    /// (a model/scheduler deadlock — always a bug, never expected load).
    pub fn run(mut self, kernels: &[KernelGrid]) -> RunReport {
        let started = std::time::Instant::now();
        let mut kernel_cycles = Vec::with_capacity(kernels.len());
        for grid in kernels {
            let statics = KernelStatics::build(&self.cfg, grid);
            let start = self.cycle;
            self.run_kernel(grid, statics);
            kernel_cycles.push((grid.name.clone(), self.cycle - start));
        }
        // Fold partition and activity counters into the final stats.
        self.stats.cycles = self.cycle;
        let mut l2_reservation_fails = 0;
        for p in &self.partitions {
            let ps = p.stats();
            self.stats.l2_accesses += ps.l2_accesses;
            self.stats.l2_misses += ps.l2_misses;
            l2_reservation_fails += ps.l2_reservation_fails;
            self.stats.bump("det.rop.ops", ps.rop_ops);
            self.stats
                .bump("det.rop.fill_stall_cycles", ps.rop_fill_stall_cycles);
            self.stats.bump("det.dram.accesses", ps.dram_accesses);
        }
        // Always fold every activity key (zeroes included) so the stat
        // key set — and hence serialized output — is engine-independent.
        self.stats
            .bump("det.engine.cycles_skipped", self.activity.cycles_skipped);
        self.stats
            .bump("det.engine.wakeup_events", self.activity.wakeup_events);
        self.stats
            .bump("det.engine.sms_ticked", self.activity.sms_ticked);
        self.stats
            .bump("det.engine.scheduler_scans", self.activity.scheduler_scans);
        self.stats.bump(
            "det.engine.partitions_ticked",
            self.activity.partitions_ticked,
        );
        self.stats
            .bump("det.icnt.packets_routed", self.icnt.packets_moved());
        // The reservation-failure key exists only once charged, as the
        // issue-stall keys the issue walk bumps.
        if l2_reservation_fails > 0 {
            self.stats
                .bump("det.l2.reservation_fails", l2_reservation_fails);
        }
        // The `det.obs.*` family is engine-invariant
        // (deterministic trace sections only), but exists only when tracing
        // is enabled, so equivalence comparisons must fix the trace mode.
        // One-shot span: timed directly (not through the sampled
        // `prof_start` path) so it is never missed and never scaled.
        let span = self.profile.is_some().then(std::time::Instant::now);
        let trace = self.tracer.take().map(|t| {
            self.stats.bump("det.obs.trace_events", t.event_count());
            self.stats.bump("det.obs.samples", t.sample_count());
            t.finish()
        });
        if let (Some(t), Some(p)) = (span, self.profile.as_deref_mut()) {
            p.record(obs::Phase::TraceFinish, t.elapsed());
        }
        RunReport {
            model: self.model.name(),
            stats: self.stats,
            values: self.values,
            kernel_cycles,
            wall: started.elapsed(),
            trace,
            profile: self.profile.map(|p| *p),
        }
    }

    fn run_kernel(&mut self, grid: &KernelGrid, statics: KernelStatics) {
        let mut dispatcher = self.begin_kernel(grid, statics);
        // The engines differ only in this: the event engine skips what
        // provably cannot act, the dense engine visits it and checks that.
        let skip = self.cfg.engine == EngineKind::Event;
        while !self.kernel_step(grid, &mut dispatcher, skip) {}
        self.end_kernel();
    }

    /// Installs per-kernel state — the dispatcher over the kernel's
    /// statics, the pre-registered lock tickets, the model's kernel hook —
    /// and returns the dispatcher driving CTA placement.
    fn begin_kernel(&mut self, grid: &KernelGrid, statics: KernelStatics) -> Dispatcher {
        self.locks.install_prescan(&statics.lock_prescan);
        let dist = self.model.cta_distribution(self.cfg.num_sms());
        let dispatcher = Dispatcher::new(grid, dist, self.cfg.num_sms(), statics);
        self.all_dispatched = dispatcher.all_dispatched();
        self.dispatch_idle = false;
        self.model.on_kernel_start(&grid.name);
        self.last_progress_cycle = self.cycle;
        dispatcher
    }

    /// Runs one iteration of the per-cycle loop; returns `true` when the
    /// kernel is complete, *without* advancing past the completion cycle.
    fn kernel_step(&mut self, grid: &KernelGrid, dispatcher: &mut Dispatcher, skip: bool) -> bool {
        if self.profile.is_some() {
            self.prof_sample = self
                .prof_steps
                .is_multiple_of(u64::from(PROFILE_SAMPLE_INTERVAL));
            self.prof_steps += 1;
        }
        {
            // Emit any due time-series samples before this cycle's work
            // mutates state: a catch-up row for grid point `g` reads the
            // machine exactly as it stood at the top of cycle `g`, because
            // every cycle either engine elides is a provable no-op of the
            // dense loop — so the sample rows are engine-invariant.
            if self.tracer.is_some() {
                let span = self.prof_start();
                self.emit_due_samples();
                self.prof_record(obs::Phase::TraceSamples, span);
            }
            let span = self.prof_start();
            self.tick_partitions();
            self.prof_record(obs::Phase::Partitions, span);
            let span = self.prof_start();
            self.icnt
                .tick(self.cycle, &mut self.icnt_mem_ndet, &mut self.icnt_cl_ndet);
            self.prof_record(obs::Phase::Icnt, span);
            let span = self.prof_start();
            self.deliver_responses();
            self.prof_record(obs::Phase::Responses, span);
            let span = self.prof_start();
            self.tick_locks();
            self.prof_record(obs::Phase::Locks, span);
            let span = self.prof_start();
            self.issue(skip);
            self.prof_record(obs::Phase::CommitSerial, span);
            let span = self.prof_start();
            self.dispatch(grid, dispatcher);
            self.prof_record(obs::Phase::Dispatch, span);
            let span = self.prof_start();
            self.model_tick();
            self.prof_record(obs::Phase::ModelTick, span);
            let span = self.prof_start();
            self.apply_wakes();
            self.prof_record(obs::Phase::Wakes, span);

            if self.kernel_done() {
                return true;
            }
            let span = self.prof_start();
            self.advance_cycle(skip);
            self.prof_record(obs::Phase::Wheel, span);
            // The recorded progress first: the scan for burst sleepers,
            // whose owed issues are progress too, runs only when it trips.
            if self.cycle - self.last_progress_cycle >= self.deadlock_horizon
                && self.cycle - self.last_progress() >= self.deadlock_horizon
            {
                let mut dump = String::new();
                for (sm_idx, sm) in self.sms.iter().enumerate() {
                    for (slot, warp) in sm.warps.iter().enumerate() {
                        if let Some(w) = warp {
                            // A Ready warp whose scheduler holds no bound is
                            // parked: a gate or model refusal that nothing
                            // reopened.
                            let parked = w.state == WarpState::Ready
                                && sm.schedulers[w.sched].ready_bound == u64::MAX;
                            dump.push_str(&format!(
                                "\n  sm {sm_idx} slot {slot} unique {} sched {} batch {} state {:?}{} pc {}/{} next_atomic {}",
                                w.unique,
                                w.sched,
                                w.batch,
                                w.state,
                                if parked { " parked" } else { "" },
                                w.pc,
                                w.program.instrs.len(),
                                w.next_is_atomic(),
                            ));
                        }
                    }
                }
                let mut tail = self.trace_tail();
                if let Some(tracer) = self.tracer.as_deref() {
                    for (sm_idx, sm) in self.sms.iter().enumerate() {
                        for (slot, warp) in sm.warps.iter().enumerate() {
                            let Some(w) = warp else { continue };
                            if w.state == WarpState::Ready {
                                continue;
                            }
                            let t = tracer.tail_for_warp(sm_idx as u32, slot as u32, 8);
                            if !t.is_empty() {
                                tail.push_str(&format!(
                                    "\nlast events for stuck sm {sm_idx} slot {slot}:\n{t}"
                                ));
                            }
                        }
                    }
                }
                panic!(
                    "deadlock: no progress since cycle {} (model {}, kernel {}); \
                     lock queues: {locks}; interconnect queues: {icnt}; live warps:{dump}{tail}",
                    self.last_progress_cycle,
                    self.model.name(),
                    grid.name,
                    locks = self.locks.queue_summary(),
                    icnt = self.icnt.queue_summary(),
                );
            }
        }
        false
    }

    /// Kernel epilogue: scheduler boundary hooks, lock reset, and the
    /// inter-kernel cycle gap.
    fn end_kernel(&mut self) {
        for sm in &mut self.sms {
            for sched in &mut sm.schedulers {
                sched.on_kernel_boundary();
            }
        }
        self.locks.reset();
        self.cycle += 1;
    }

    fn kernel_done(&self) -> bool {
        self.all_dispatched
            && self.sms.iter().all(|sm| sm.live_warps() == 0)
            && !self.icnt.is_busy()
            && self.partitions.iter().all(|p| !p.is_busy())
            && !self.locks.is_busy()
            && self.model.quiescent()
    }

    /// Advances the clock: one cycle on the dense engine, and on the event
    /// engine (`skip`) straight to the earliest cycle at which any
    /// component can act.
    ///
    /// Correctness of the jump rests on every elided cycle being a
    /// provable no-op of the dense loop: no model tick needed, and no
    /// interconnect, partition, lock manager or scheduler that could act
    /// before the target (so arbitration points draw no perturbations).
    fn advance_cycle(&mut self, skip: bool) {
        let next = self.cycle + 1;
        let target = if skip {
            self.wheel_target()
        } else {
            // The dense engine visits `next` anyway; it remembers where the
            // event engine would have gone, to check the model's ticks on
            // the cycles in between.
            self.event_target = self.wheel_target();
            next
        };
        if target > next {
            self.activity.cycles_skipped += target - next;
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.record_skip(self.cycle, target);
            }
        }
        self.cycle = target;
    }

    /// The event wheel's next cycle: the earliest absolute cycle any
    /// component reports through `next_event_cycle` (the execution model
    /// included; the schedulers through
    /// [`ready_bound`](crate::sm::SchedulerCtx)), clamped to `cycle + 1` so
    /// the wheel never stalls or re-visits the present. A value at or
    /// before the present means "visit now", so the fold stops as soon as
    /// the target reaches `cycle + 1`; the cheap queries come first and the
    /// schedulers last. A fully idle machine (no event at all) means the
    /// kernel-done check declined to finish; the wheel then steps densely
    /// and lets the deadlock horizon surface the bug.
    fn wheel_target(&self) -> u64 {
        let next = self.cycle + 1;
        // Lazy: a busy cycle stops the fold after a query or two.
        let events = std::iter::once(self.model.next_event_cycle())
            .chain(std::iter::once_with(|| self.icnt.next_event_cycle()))
            .chain(self.partitions.iter().map(MemPartition::next_event_cycle))
            .chain(std::iter::once_with(|| self.locks.next_event_cycle()))
            .flatten()
            .chain(self.sms.iter().map(Sm::ready_bound));
        let mut target = u64::MAX;
        for ev in events {
            target = target.min(ev.max(next));
            if target == next {
                break;
            }
        }
        if target == u64::MAX {
            next
        } else {
            target
        }
    }

    pub(crate) fn progress(&mut self) {
        self.last_progress_cycle = self.cycle;
    }

    /// Records progress made at `cycle`, no later than the present.
    pub(crate) fn progress_at(&mut self, cycle: u64) {
        self.last_progress_cycle = self.last_progress_cycle.max(cycle);
    }

    /// The last cycle a warp made progress, counting the issues that burst
    /// sleepers owe but have not been credited yet: each one's warp issued
    /// at every cycle before the present and before its burst's last
    /// issue, which its scheduler is visited for.
    fn last_progress(&self) -> u64 {
        let owed = self.sms.iter().flat_map(|sm| &sm.schedulers);
        let owed = owed.filter_map(|s| match s.sleeper {
            Some(Sleeper::Burst { until, .. }) => Some(until.min(self.cycle) - 1),
            _ => None,
        });
        owed.fold(self.last_progress_cycle, u64::max)
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Emits one time-series sample row for every due grid point
    /// (multiples of the sample interval) at or before the current cycle.
    ///
    /// Called at the top of the per-cycle loop. On the event engine the
    /// loop may land past a grid point; the catch-up row is still exact
    /// because every elided cycle is a provable no-op of the dense loop
    /// (otherwise the engines' equivalence would already be broken), so
    /// machine state now equals machine state at the top of the grid
    /// cycle itself.
    fn emit_due_samples(&mut self) {
        while let Some(grid) = self
            .tracer
            .as_deref()
            .and_then(|t| t.next_due_sample(self.cycle))
        {
            let ready_warps = self
                .sms
                .iter()
                .flat_map(|sm| sm.warps.iter().flatten())
                .filter(|w| w.state == WarpState::Ready)
                .count() as u64;
            let full = self.tracer.as_deref().expect("tracing on").is_full();
            let per_sm_buffered = if full {
                let mut per_sm = vec![0u64; self.cfg.num_sms()];
                self.model.buffered_entries_per_sm(&mut per_sm);
                per_sm
            } else {
                Vec::new()
            };
            let sample = obs::Sample {
                cycle: grid,
                ready_warps,
                buffered_entries: self.model.buffered_entries(),
                icnt_flits: self.icnt.queued_injection_flits(),
                rop_queued: self
                    .partitions
                    .iter()
                    .map(|p| p.rop_queue_len() as u64)
                    .sum(),
                per_sm_buffered,
            };
            self.tracer
                .as_deref_mut()
                .expect("tracing on")
                .push_sample(sample);
        }
    }

    /// Records an architectural trace event, if tracing is enabled at the
    /// event's level.
    #[inline]
    pub(crate) fn trace_event(&mut self, ev: obs::Event) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(ev);
        }
    }

    /// Whether full-detail tracing is on (gates construction of hot-path
    /// events so untraced runs pay one branch only).
    #[inline]
    pub(crate) fn trace_full(&self) -> bool {
        self.tracer.as_deref().is_some_and(obs::Tracer::is_full)
    }

    /// Last few global trace events, formatted for a panic message
    /// (empty string when tracing is off).
    fn trace_tail(&self) -> String {
        match self.tracer.as_deref() {
            Some(t) if t.event_count() > 0 => {
                format!("\nrecent trace events:\n{}", t.tail(64))
            }
            _ => String::new(),
        }
    }

    /// Last few trace events touching partition `p`, for a panic message.
    fn trace_tail_partition(&self, p: usize) -> String {
        match self.tracer.as_deref() {
            Some(t) => {
                let tail = t.tail_for_partition(p as u32, 16);
                if tail.is_empty() {
                    String::new()
                } else {
                    format!("\nrecent trace events for partition {p}:\n{tail}")
                }
            }
            None => String::new(),
        }
    }

    // ------------------------------------------------------------------
    // Memory partitions and response delivery
    // ------------------------------------------------------------------

    fn tick_partitions(&mut self) {
        let trace_full = self.trace_full();
        for p in 0..self.partitions.len() {
            // Sleeping partitions: skip a partition with no arrived input
            // and no due internal event. `MemPartition::next_event_cycle`
            // documents why the skipped tick is a no-op and why the jitter
            // stream is unperturbed.
            if !self.icnt.has_arrived_request(p)
                && self.partitions[p]
                    .next_event_cycle()
                    .is_none_or(|t| t > self.cycle)
            {
                continue;
            }
            self.activity.partitions_ticked += 1;
            let dram_before = trace_full.then(|| self.partitions[p].stats().dram_accesses);
            // Route arrived request packets.
            while let Some(pkt) = self.icnt.pop_arrived_request(p) {
                self.progress();
                if trace_full {
                    self.trace_event(obs::Event::PartReq {
                        cycle: self.cycle,
                        partition: p as u32,
                        kind: pkt_kind(&pkt.payload),
                    });
                }
                match pkt.payload {
                    Payload::PreFlush { sm, expected } => {
                        let (model, partitions, mut ctx) = self.model_ctx();
                        model.on_pre_flush(&mut partitions[p], sm, expected, &mut ctx);
                    }
                    Payload::FlushEntry { sm, seq, ops } => {
                        let (model, partitions, mut ctx) = self.model_ctx();
                        model.on_flush_entry(&mut partitions[p], sm, seq, ops, &mut ctx);
                    }
                    _ => self.partitions[p].handle_request(pkt, self.cycle),
                }
            }
            let responses =
                self.partitions[p].tick(self.cycle, &mut self.values, &mut self.part_ndet[p]);
            for mut pkt in responses {
                self.progress();
                let sm = match &pkt.payload {
                    Payload::LoadResp { warp, .. }
                    | Payload::StoreAck { warp }
                    | Payload::AtomicAck { warp, .. } => warp.sm,
                    Payload::FlushAck { sm } => *sm,
                    other => panic!(
                        "partition {p} emitted non-response {kind} at cycle {cycle} \
                         (model {model}): payload {other:?}; partition queues: {queues}{tail}",
                        kind = other.kind(),
                        cycle = self.cycle,
                        model = self.model.name(),
                        queues = self.partitions[p].queue_summary(),
                        tail = self.trace_tail_partition(p),
                    ),
                };
                if trace_full {
                    self.trace_event(obs::Event::PartResp {
                        cycle: self.cycle,
                        partition: p as u32,
                        kind: pkt_kind(&pkt.payload),
                    });
                }
                pkt.dest = sm / self.cfg.sms_per_cluster;
                self.icnt.inject_response(p, pkt);
            }
            if let Some(before) = dram_before {
                let after = self.partitions[p].stats().dram_accesses;
                if after > before {
                    self.trace_event(obs::Event::DramAccess {
                        cycle: self.cycle,
                        partition: p as u32,
                        count: after - before,
                    });
                }
            }
        }
    }

    fn deliver_responses(&mut self) {
        let trace_full = self.trace_full();
        for cluster in 0..self.cfg.num_clusters {
            while let Some(pkt) = self.icnt.pop_ejected(cluster) {
                self.progress();
                if trace_full {
                    self.trace_event(obs::Event::IcntEject {
                        cycle: self.cycle,
                        cluster: cluster as u32,
                        kind: pkt_kind(&pkt.payload),
                    });
                }
                match pkt.payload {
                    Payload::LoadResp { sector_addr, warp } => {
                        self.handle_load_resp(sector_addr, warp);
                    }
                    Payload::StoreAck { warp } => {
                        self.complete_write(warp);
                    }
                    Payload::AtomicAck { warp, kind } => {
                        let remaining = self.complete_write(warp);
                        let (model, _, mut ctx) = self.model_ctx();
                        model.on_atomic_ack(warp, kind, remaining, &mut ctx);
                        if kind == AtomKind::Atom {
                            self.wake(warp.sm, warp.slot, obs::WakeSite::AtomAck);
                        }
                        self.try_retire(warp.sm, warp.slot);
                    }
                    Payload::FlushAck { sm } => {
                        let (model, _, mut ctx) = self.model_ctx();
                        model.on_flush_ack(sm, &mut ctx);
                    }
                    other => panic!(
                        "cluster {cluster} received non-response {kind} at cycle {cycle} \
                         (model {model}): payload {other:?}; interconnect queues: {queues}{tail}",
                        kind = other.kind(),
                        cycle = self.cycle,
                        model = self.model.name(),
                        queues = self.icnt.queue_summary(),
                        tail = self.trace_tail(),
                    ),
                }
            }
        }
    }

    pub(crate) fn handle_load_resp(&mut self, sector_addr: u64, warp: WarpRef) {
        let sm = &mut self.sms[warp.sm];
        sm.l1.fill(sector_addr);
        let waiters = sm.l1_mshrs.remove(&sector_addr);
        // The fill (and a freed MSHR) may end a refused load's sleep.
        sm.recheck_l1_sleepers(sector_addr, waiters.is_some(), self.cycle);
        let Some(waiters) = waiters else {
            return;
        };
        for &slot in &waiters {
            let drained = self.sms[warp.sm].warps[slot].as_mut().is_some_and(|w| {
                w.outstanding_loads = w.outstanding_loads.saturating_sub(1);
                w.outstanding_loads == 0
            });
            if drained {
                self.wake(warp.sm, slot, obs::WakeSite::LoadResp);
            }
        }
        // A woken warp may have nothing left to execute.
        for slot in waiters {
            self.try_retire(warp.sm, slot);
        }
    }

    fn complete_write(&mut self, warp: WarpRef) -> u32 {
        let Some(w) = self.sms[warp.sm].warps[warp.slot].as_mut() else {
            return 0;
        };
        w.outstanding_writes = w.outstanding_writes.saturating_sub(1);
        let remaining = w.outstanding_writes;
        if remaining == 0 {
            self.wake(warp.sm, warp.slot, obs::WakeSite::StoreDrain);
        }
        self.try_retire(warp.sm, warp.slot);
        remaining
    }

    fn tick_locks(&mut self) {
        let released = self.locks.tick(self.cycle, &mut self.values);
        for warp in released {
            self.progress();
            let waiting = self.sms[warp.sm].warps[warp.slot]
                .as_ref()
                .filter(|w| w.state == WarpState::WaitLock)
                .map(|w| w.unique);
            if let (Some(unique), true) = (waiting, self.tracer.is_some()) {
                self.trace_event(obs::Event::LockGrant {
                    cycle: self.cycle,
                    sm: warp.sm as u32,
                    slot: warp.slot as u32,
                    unique,
                });
            }
            self.wake(warp.sm, warp.slot, obs::WakeSite::LockGrant);
            self.try_retire(warp.sm, warp.slot);
        }
    }

    // ------------------------------------------------------------------
    // Dispatch, model tick, wakes
    // ------------------------------------------------------------------

    fn dispatch(&mut self, grid: &KernelGrid, dispatcher: &mut Dispatcher) {
        if self.dispatch_idle || !self.model.allow_dispatch() {
            return;
        }
        let cycle = self.cycle;
        let mut placed = false;
        if dispatcher.is_static {
            for sm_idx in 0..self.cfg.num_sms() {
                let Some(&cta_idx) = dispatcher.static_queues[sm_idx].front() else {
                    continue;
                };
                let cta = &grid.ctas[cta_idx];
                if self.sms[sm_idx].can_accept(cta) {
                    dispatcher.static_queues[sm_idx].pop_front();
                    self.all_dispatched = dispatcher.all_dispatched();
                    let base = dispatcher.statics.unique_bases[cta_idx];
                    let slots = self.sms[sm_idx].add_cta(
                        cta,
                        base,
                        cycle,
                        &dispatcher.statics.metas[cta_idx],
                    );
                    self.notify_spawns(sm_idx, &slots);
                    self.progress();
                    placed = true;
                }
            }
        } else {
            // Rotating start with non-deterministic perturbation: which SM
            // grabs the next CTA depends on timing, as on real hardware.
            // Draw the perturbation only on cycles where the rotation start
            // can matter — a queued CTA some SM could accept. Placement
            // capacity changes only through engine actions on visited
            // cycles, so the draw cursor advances identically whether or
            // not the event engine elides the intervening idle cycles.
            let n = self.cfg.num_sms();
            let placeable = dispatcher.dynamic_queue.front().is_some_and(|&cta_idx| {
                let cta = &grid.ctas[cta_idx];
                (0..n).any(|sm_idx| self.sms[sm_idx].can_accept(cta))
            });
            if placeable {
                // Oracle branch point only when the perturbed rotation
                // start can change a placement: several SMs compete for
                // the front CTA, or several CTAs are queued behind it (the
                // multi-CTA pass makes later placements scan-dependent).
                // Conservative in the second case — a spurious branch
                // costs the explorer a duplicate schedule, never an
                // outcome.
                let eligible = self.ndet.has_oracle()
                    && dispatcher.dynamic_queue.front().is_some_and(|&cta_idx| {
                        let cta = &grid.ctas[cta_idx];
                        let acceptors = (0..n).filter(|&s| self.sms[s].can_accept(cta)).count();
                        acceptors >= 2 || dispatcher.dynamic_queue.len() >= 2
                    });
                let start = (dispatcher.rr
                    + self
                        .ndet
                        .tiebreak_hint(2, crate::oracle::TAG_DISPATCH, eligible))
                    % n;
                let mut assigned = 0;
                for i in 0..n {
                    let sm_idx = (start + i) % n;
                    let Some(&cta_idx) = dispatcher.dynamic_queue.front() else {
                        break;
                    };
                    let cta = &grid.ctas[cta_idx];
                    if self.sms[sm_idx].can_accept(cta) {
                        dispatcher.dynamic_queue.pop_front();
                        self.all_dispatched = dispatcher.all_dispatched();
                        let base = dispatcher.statics.unique_bases[cta_idx];
                        let slots = self.sms[sm_idx].add_cta(
                            cta,
                            base,
                            cycle,
                            &dispatcher.statics.metas[cta_idx],
                        );
                        self.notify_spawns(sm_idx, &slots);
                        assigned += 1;
                        self.progress();
                    }
                }
                if assigned > 0 {
                    dispatcher.rr = (dispatcher.rr + 1) % n;
                }
                placed = assigned > 0;
            }
        }
        self.dispatch_idle = !placed;
    }

    fn notify_spawns(&mut self, sm_idx: usize, slots: &[usize]) {
        for &slot in slots {
            let (sched, unique) = {
                let w = self.sms[sm_idx].warps[slot].as_ref().expect("spawned");
                (w.sched, w.unique)
            };
            self.model.on_warp_spawn(WarpId {
                sched: SchedId { sm: sm_idx, sched },
                slot,
                unique,
            });
            // Empty programs retire immediately.
            self.try_retire(sm_idx, slot);
        }
    }

    /// The execution model, the memory partitions and the context every
    /// model hook takes, borrowed from disjoint fields: the one place a
    /// [`ModelCtx`] is built.
    pub(crate) fn model_ctx(
        &mut self,
    ) -> (&mut dyn ExecutionModel, &mut [MemPartition], ModelCtx<'_>) {
        let ctx = ModelCtx {
            cycle: self.cycle,
            cfg: &self.cfg,
            stats: &mut self.stats,
            kernel_fully_dispatched: self.all_dispatched,
            icnt: &mut self.icnt,
            tracer: self.tracer.as_deref_mut(),
            sms: &self.sms,
            det_aware: self.sched_kind.is_determinism_aware(),
            seal_witness: &mut self.seal_witness,
            wakes: &mut self.wakes,
        };
        (&mut *self.model, &mut self.partitions, ctx)
    }

    /// Ticks the execution model.
    fn model_tick(&mut self) {
        if self.sched_kind == SchedKind::Gtrr {
            // Per-cycle, not on demand: GTRR times its switch to round
            // robin by these reports (`WarpScheduler::notes_pending_atomics`;
            // no other policy asks for them).
            for sm in &mut self.sms {
                sm.note_pending_atomics();
            }
        }
        // Dense engine: on a cycle the event engine skips, the model must
        // not act, or skipping changed behavior.
        let skipped = self.cycle < self.event_target;
        let before = skipped.then(|| self.model_outputs());
        let (model, _, mut ctx) = self.model_ctx();
        model.tick(&mut ctx);
        if let Some(before) = before {
            let after = self.model_outputs();
            if after != before {
                self.model_acted_in_skip(before, after);
            }
        }
    }

    /// What the engine reads of the model between ticks: the wake
    /// commands pushed, its next event, quiescence and dispatch permission.
    fn model_outputs(&self) -> (usize, Option<u64>, bool, bool) {
        (
            self.wakes.len(),
            self.model.next_event_cycle(),
            self.model.quiescent(),
            self.model.allow_dispatch(),
        )
    }

    /// The dense engine's check of a model tick failed: on a cycle the
    /// event engine would have skipped, the tick changed what the engine
    /// reads of the model, so the model's `next_event_cycle` was late.
    #[cold]
    fn model_acted_in_skip(
        &self,
        before: (usize, Option<u64>, bool, bool),
        after: (usize, Option<u64>, bool, bool),
    ) -> ! {
        panic!(
            "skip rule broken: model {} acted at cycle {}, which the event engine skips \
             (its next cycle is {}): (wakes, next_event_cycle, quiescent, allow_dispatch) \
             went from {before:?} to {after:?}",
            self.model.name(),
            self.cycle,
            self.event_target
        );
    }

    fn apply_wakes(&mut self) {
        let wakes = std::mem::take(&mut self.wakes);
        for wake in wakes {
            match wake {
                WakeCmd::FlushWaiters { sm } => {
                    self.progress();
                    for slot in 0..self.sms[sm].warps.len() {
                        self.wake(sm, slot, obs::WakeSite::Flush);
                        self.try_retire(sm, slot);
                    }
                }
                WakeCmd::ReopenIssue { warp } => {
                    // Not progress: no warp has moved yet. The model ticks
                    // after the issue phase, so `cycle + 1` is the first
                    // cycle a refused warp could issue.
                    let next = self.cycle + 1;
                    if let Some(WarpRef { sm, slot }) = warp {
                        let sm = &mut self.sms[sm];
                        if let Some(sched) = sm.warps[slot].as_ref().map(|w| w.sched) {
                            sm.schedulers[sched].note_ready(next);
                        }
                        continue;
                    }
                    let schedulers = self.sms.iter_mut().flat_map(|sm| &mut sm.schedulers);
                    for sched in schedulers.filter(|s| s.live > 0) {
                        sched.note_ready(next);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::BaselineModel;
    use crate::isa::Instr;
    use crate::isa::{AtomicAccess, AtomicOp, LockKind, MemAccess, Value, WarpProgram};
    use crate::kernel::CtaSpec;

    fn sum_grid(warps: usize, lanes: usize, target: u64) -> KernelGrid {
        let ctas = (0..warps)
            .map(|wi| {
                CtaSpec::new(
                    wi,
                    vec![WarpProgram::new(
                        vec![Instr::Red {
                            op: AtomicOp::AddF32,
                            accesses: (0..lanes)
                                .map(|l| AtomicAccess::new(l, target, Value::F32(1.0)))
                                .collect(),
                        }],
                        lanes,
                    )],
                )
            })
            .collect();
        KernelGrid::new("sum", ctas)
    }

    fn run_baseline(grid: KernelGrid) -> RunReport {
        let sim = GpuSim::new(
            GpuConfig::tiny(),
            Box::new(BaselineModel::new()),
            NdetSource::disabled(),
        );
        sim.run(&[grid])
    }

    #[test]
    fn atomic_sum_correct() {
        let report = run_baseline(sum_grid(4, 32, 0x1000));
        assert_eq!(report.values.read_f32(0x1000), 128.0);
        assert_eq!(report.stats.atomics, 128);
        assert!(report.cycles() > 0);
    }

    #[test]
    fn alu_burst_counts_instructions() {
        let grid = KernelGrid::new(
            "alu",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![Instr::Alu {
                        cycles: 4,
                        count: 10,
                    }],
                    32,
                )],
            )],
        );
        let report = run_baseline(grid);
        assert_eq!(report.stats.warp_instrs, 10);
        assert_eq!(report.stats.thread_instrs, 320);
    }

    #[test]
    fn load_store_roundtrip() {
        let grid = KernelGrid::new(
            "mem",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![
                        Instr::Load {
                            accesses: vec![MemAccess::per_lane_f32(0x2000, 32)],
                        },
                        Instr::Store {
                            accesses: vec![MemAccess::per_lane_f32(0x3000, 32)],
                        },
                        // Second load to the same line hits in L1.
                        Instr::Load {
                            accesses: vec![MemAccess::per_lane_f32(0x2000, 32)],
                        },
                    ],
                    32,
                )],
            )],
        );
        let report = run_baseline(grid);
        assert!(report.stats.l1_accesses >= 8);
        assert!(report.stats.l1_misses >= 4);
        // The refetch hits: misses are only the first 4 sectors.
        assert_eq!(report.stats.l1_misses, 4);
        assert!(report.stats.mem_transactions >= 8);
    }

    #[test]
    fn barrier_synchronizes_cta() {
        let prog = |spin: u32| {
            WarpProgram::new(
                vec![
                    Instr::Alu {
                        cycles: 1,
                        count: spin,
                    },
                    Instr::Bar,
                    Instr::Red {
                        op: AtomicOp::AddF32,
                        accesses: vec![AtomicAccess::new(0, 0x40, Value::F32(1.0))],
                    },
                ],
                32,
            )
        };
        let grid = KernelGrid::new("bar", vec![CtaSpec::new(0, vec![prog(1), prog(500)])]);
        let report = run_baseline(grid);
        assert_eq!(report.values.read_f32(0x40), 2.0);
    }

    #[test]
    fn fence_waits_for_writes() {
        let grid = KernelGrid::new(
            "fence",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![
                        Instr::Store {
                            accesses: vec![MemAccess::per_lane_f32(0x5000, 32)],
                        },
                        Instr::Fence,
                        Instr::Alu {
                            cycles: 1,
                            count: 1,
                        },
                    ],
                    32,
                )],
            )],
        );
        let report = run_baseline(grid);
        assert_eq!(report.stats.warp_instrs, 3);
    }

    #[test]
    fn atom_returns_and_blocks() {
        let grid = KernelGrid::new(
            "atom",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![Instr::Atom {
                        op: AtomicOp::AddU32,
                        accesses: vec![AtomicAccess::new(0, 0x60, Value::U32(5))],
                    }],
                    1,
                )],
            )],
        );
        let report = run_baseline(grid);
        assert_eq!(report.values.read_u32(0x60), 5);
    }

    #[test]
    fn locked_section_executes() {
        let grid = KernelGrid::new(
            "lock",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![Instr::LockedSection {
                        kind: LockKind::TestAndTestAndSet,
                        lock_addr: 0xF000,
                        op: AtomicOp::AddF32,
                        accesses: (0..4)
                            .map(|l| AtomicAccess::new(l, 0x80, Value::F32(1.0)))
                            .collect(),
                        critical_cycles: 5,
                    }],
                    4,
                )],
            )],
        );
        let report = run_baseline(grid);
        assert_eq!(report.values.read_f32(0x80), 4.0);
    }

    #[test]
    fn multi_kernel_values_persist() {
        let k1 = sum_grid(1, 32, 0x100);
        let k2 = sum_grid(1, 32, 0x100);
        let sim = GpuSim::new(
            GpuConfig::tiny(),
            Box::new(BaselineModel::new()),
            NdetSource::disabled(),
        );
        let report = sim.run(&[k1, k2]);
        assert_eq!(report.values.read_f32(0x100), 64.0);
        assert_eq!(report.kernel_cycles.len(), 2);
    }

    #[test]
    fn disabled_ndet_is_bit_repeatable() {
        let run = || {
            let sim = GpuSim::new(
                GpuConfig::tiny(),
                Box::new(BaselineModel::new()),
                NdetSource::disabled(),
            );
            let r = sim.run(&[sum_grid(8, 32, 0)]);
            (r.cycles(), r.digest())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn many_ctas_overflow_resident_capacity() {
        // More CTAs than fit at once: dispatch must drain them all.
        let report = run_baseline(sum_grid(200, 32, 0x0));
        assert_eq!(report.values.read_f32(0x0), 200.0 * 32.0);
    }

    #[test]
    fn ndet_seeds_change_order_sensitive_results() {
        // Warps add values of wildly different magnitudes to one cell from
        // different SMs; with injected timing non-determinism the ROP apply
        // order — and hence the f32 sum — varies across seeds.
        let grid = || {
            let ctas = (0..16usize)
                .map(|c| {
                    CtaSpec::new(
                        c,
                        vec![WarpProgram::new(
                            vec![Instr::Red {
                                op: AtomicOp::AddF32,
                                accesses: (0..32)
                                    .map(|l| {
                                        // 0.1 is not representable: every add
                                        // rounds, so any reordering perturbs
                                        // the final bits.
                                        let v = 0.1f32 * (c * 32 + l + 1) as f32;
                                        AtomicAccess::new(l, 0x400, Value::F32(v))
                                    })
                                    .collect(),
                            }],
                            32,
                        )],
                    )
                })
                .collect();
            KernelGrid::new("sensitive", ctas)
        };
        let digests: Vec<u64> = (0..6u64)
            .map(|seed| {
                let sim = GpuSim::new(
                    GpuConfig::tiny(),
                    Box::new(BaselineModel::new()),
                    NdetSource::seeded(seed),
                );
                sim.run(&[grid()]).digest()
            })
            .collect();
        assert!(
            digests.windows(2).any(|w| w[0] != w[1]),
            "baseline should be non-deterministic across seeds: {digests:?}"
        );
    }

    #[test]
    fn same_seed_same_result() {
        let grid = sum_grid(16, 32, 0x200);
        let run = |seed| {
            let sim = GpuSim::new(
                GpuConfig::tiny(),
                Box::new(BaselineModel::new()),
                NdetSource::seeded(seed),
            );
            let r = sim.run(std::slice::from_ref(&grid));
            (r.cycles(), r.digest())
        };
        assert_eq!(run(3), run(3));
    }

    #[test]
    fn static_distribution_is_timing_independent() {
        // Under static CTA distribution the per-SM CTA sequences are fixed
        // regardless of latency jitter; with integer atomics the per-SM
        // partial sums must be identical across seeds.
        #[derive(Debug)]
        struct StaticBase;
        impl crate::exec::ExecutionModel for StaticBase {
            fn name(&self) -> String {
                "static-baseline".into()
            }
            fn cta_distribution(&self, num_sms: usize) -> CtaDistribution {
                CtaDistribution::Static {
                    active_sms: num_sms,
                }
            }
        }
        // Each CTA adds its id into a per-SM-deterministic cell: CTA c adds
        // to cell (c % 2) — correct only if c always lands on SM c % 2.
        let grid = || {
            KernelGrid::new(
                "static",
                (0..20)
                    .map(|c| {
                        CtaSpec::new(
                            c,
                            vec![WarpProgram::new(
                                vec![Instr::Red {
                                    op: AtomicOp::AddU32,
                                    accesses: vec![AtomicAccess::new(
                                        0,
                                        0x100 + 4 * (c as u64 % 2),
                                        Value::U32(1 << c),
                                    )],
                                }],
                                1,
                            )],
                        )
                    })
                    .collect(),
            )
        };
        let run = |seed| {
            let sim = GpuSim::new(
                GpuConfig::tiny(),
                Box::new(StaticBase),
                NdetSource::seeded(seed),
            );
            let r = sim.run(&[grid()]);
            (r.values.read_u32(0x100), r.values.read_u32(0x104))
        };
        assert_eq!(run(1), run(2));
        let (even, odd) = run(3);
        assert_eq!(even, (0..20u32).step_by(2).map(|c| 1 << c).sum());
        assert_eq!(odd, (1..20u32).step_by(2).map(|c| 1 << c).sum());
    }

    #[test]
    fn fence_drain_uses_wait_drain_state() {
        // A fence behind in-flight stores must park the warp in WaitDrain
        // and resume it only after all acks return.
        let grid = KernelGrid::new(
            "drain",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![
                        Instr::Store {
                            accesses: vec![MemAccess::strided(0x7000, 32, 128)],
                        },
                        Instr::Fence,
                        Instr::Red {
                            op: AtomicOp::AddU32,
                            accesses: vec![AtomicAccess::new(0, 0x60, Value::U32(1))],
                        },
                    ],
                    32,
                )],
            )],
        );
        let report = run_baseline(grid);
        assert_eq!(report.values.read_u32(0x60), 1);
        // The fence costs at least one memory round trip.
        assert!(report.cycles() > GpuConfig::tiny().dram_latency as u64);
    }

    #[test]
    fn multi_kernel_scheduler_state_resets() {
        // Two kernels back to back: ages, batches and policy state must
        // reset at the boundary (no panic, correct results).
        let grid = |tag: u64| {
            KernelGrid::new(
                format!("k{tag}"),
                (0..40)
                    .map(|c| {
                        CtaSpec::new(
                            c,
                            vec![WarpProgram::new(
                                vec![
                                    Instr::Alu {
                                        cycles: 2,
                                        count: 3,
                                    },
                                    Instr::Red {
                                        op: AtomicOp::AddU32,
                                        accesses: vec![AtomicAccess::new(
                                            0,
                                            0x80 + 8 * tag,
                                            Value::U32(1),
                                        )],
                                    },
                                ],
                                32,
                            )],
                        )
                    })
                    .collect(),
            )
        };
        let sim = GpuSim::new(
            GpuConfig::tiny(),
            Box::new(BaselineModel::new()),
            NdetSource::seeded(4),
        );
        let r = sim.run(&[grid(0), grid(1)]);
        assert_eq!(r.values.read_u32(0x80), 40);
        assert_eq!(r.values.read_u32(0x88), 40);
    }

    #[test]
    fn icnt_backpressure_counts_stalls() {
        // A machine with a starved interconnect accumulates issue stalls
        // instead of deadlocking: one per refused request, however often
        // it retries. The refused schedulers sleep on the event engine.
        let runs: Vec<RunReport> = [EngineKind::Dense, EngineKind::Event]
            .into_iter()
            .map(|engine| {
                let mut cfg = GpuConfig::tiny();
                cfg.icnt_input_buffer = 8;
                cfg.icnt_flits_per_cycle = 1;
                cfg.engine = engine;
                let grid = sum_grid(64, 32, 0x0);
                let sim = GpuSim::new(cfg, Box::new(BaselineModel::new()), NdetSource::disabled());
                sim.run(&[grid])
            })
            .collect();
        let (dense, event) = (&runs[0], &runs[1]);
        assert_eq!(event.values.read_f32(0x0), 64.0 * 32.0);
        assert!((1..=64).contains(&event.stats.icnt_stall_cycles));
        assert_eq!(
            (
                event.cycles(),
                event.digest(),
                event.stats.icnt_stall_cycles
            ),
            (
                dense.cycles(),
                dense.digest(),
                dense.stats.icnt_stall_cycles
            )
        );
        let ticked = |r: &RunReport| r.stats.counters["det.engine.sms_ticked"];
        assert!(
            ticked(event) < ticked(dense),
            "{} vs {}",
            ticked(event),
            ticked(dense)
        );
    }

    #[test]
    fn refused_cta_is_placed_at_the_retirement() {
        // One CTA fits per SM, so the third CTA's placement is refused
        // until the shorter first CTA's warp retires; the scans between
        // are skipped. On both engines it is placed in the very step the
        // warp retires (the live count holds while arrivals grow).
        let alu = |count| WarpProgram::new(vec![Instr::Alu { cycles: 4, count }], 32);
        let grid = KernelGrid::new(
            "refill",
            [5, 30, 1]
                .into_iter()
                .enumerate()
                .map(|(i, count)| CtaSpec::new(i, vec![alu(count)]))
                .collect(),
        );
        let placed: Vec<u64> = [EngineKind::Dense, EngineKind::Event]
            .into_iter()
            .map(|engine| {
                let mut cfg = GpuConfig::tiny();
                cfg.max_ctas_per_sm = 1;
                cfg.engine = engine;
                let skip = engine == EngineKind::Event;
                let mut sim =
                    GpuSim::new(cfg, Box::new(BaselineModel::new()), NdetSource::disabled());
                let statics = KernelStatics::build(&sim.cfg, &grid);
                let mut dispatcher = sim.begin_kernel(&grid, statics);
                let census = |sim: &GpuSim| -> (u64, usize) {
                    let sms = sim.sms.iter();
                    let arrivals = sms
                        .clone()
                        .flat_map(|sm| &sm.schedulers)
                        .map(|s| s.arrivals)
                        .sum();
                    (arrivals, sms.map(Sm::live_warps).sum())
                };
                let mut idle_seen = false;
                let mut placed = None;
                loop {
                    let (cycle, before) = (sim.cycle, census(&sim));
                    let done = sim.kernel_step(&grid, &mut dispatcher, skip);
                    let after = census(&sim);
                    if before.0 == 2 && after.0 == 3 {
                        assert_eq!(after.1, before.1, "{engine:?}: placed without a retirement");
                        placed = Some(cycle);
                    }
                    idle_seen |= sim.dispatch_idle && placed.is_none();
                    if done {
                        break;
                    }
                }
                assert!(idle_seen, "{engine:?}: the refused scan was never skipped");
                placed.expect("third CTA placed")
            })
            .collect();
        assert_eq!(placed[0], placed[1]);
    }

    #[test]
    fn empty_kernel_completes() {
        let grid = KernelGrid::new("empty", vec![CtaSpec::new(0, vec![WarpProgram::empty(32)])]);
        let report = run_baseline(grid);
        assert_eq!(report.stats.warp_instrs, 0);
    }

    #[test]
    fn burst_longer_than_the_deadlock_horizon_is_progress() {
        // The event engine visits the lone warp's scheduler at the burst's
        // first and last issue only, 99 cycles apart; a watchdog lowered to
        // 16 cycles must count the issues slept through as progress.
        for engine in [EngineKind::Dense, EngineKind::Event] {
            let mut cfg = GpuConfig::tiny();
            cfg.engine = engine;
            let burst = Instr::Alu {
                cycles: 1,
                count: 100,
            };
            let program = WarpProgram::new(vec![burst], 32);
            let grid = KernelGrid::new("burst", vec![CtaSpec::new(0, vec![program])]);
            let model = Box::new(BaselineModel::new());
            let mut sim = GpuSim::new(cfg, model, NdetSource::disabled());
            sim.deadlock_horizon = 16;
            let report = sim.run(&[grid]);
            assert_eq!(report.stats.warp_instrs, 100, "{engine:?}");
        }
    }

    /// Breaks the `can_issue` contract: refuses its first query once, then
    /// admits everything, and never calls `ModelCtx::reopen_issue`.
    #[derive(Debug, Default)]
    struct RefuseOnce {
        refused: bool,
    }

    impl ExecutionModel for RefuseOnce {
        fn name(&self) -> String {
            "refuse-once".to_string()
        }

        fn can_issue(&mut self, _warp: WarpId, _is_atomic: bool, _ctx: &mut ModelCtx<'_>) -> bool {
            std::mem::replace(&mut self.refused, true)
        }
    }

    fn run_refuse_once(engine: EngineKind) -> RunReport {
        let mut cfg = GpuConfig::tiny();
        cfg.engine = engine;
        let mut sim = GpuSim::new(cfg, Box::new(RefuseOnce::default()), NdetSource::disabled());
        sim.deadlock_horizon = 10_000;
        sim.run(&[sum_grid(1, 32, 0x100)])
    }

    #[test]
    #[should_panic(expected = "skip rule broken: SM 0 scheduler 0 has a ready warp at cycle 2")]
    fn lapsed_model_refusal_breaks_skip_rule_on_dense_engine() {
        // The dense engine asks again every cycle and finds the warp the
        // event engine parked ready: it names the scheduler whose bound
        // the lapse left stale-high.
        run_refuse_once(EngineKind::Dense);
    }

    /// Breaks the `next_event_cycle` contract: reports no event of its own
    /// (it is always quiescent) but reopens issue on its own clock.
    #[derive(Debug)]
    struct ActsAt40;

    impl ExecutionModel for ActsAt40 {
        fn name(&self) -> String {
            "acts-at-40".to_string()
        }

        fn tick(&mut self, ctx: &mut ModelCtx<'_>) {
            if ctx.cycle == 40 {
                ctx.reopen_issue(None);
            }
        }
    }

    #[test]
    #[should_panic(expected = "skip rule broken: model acts-at-40 acted at cycle 40, \
                               which the event engine skips (its next cycle is 101)")]
    fn model_acting_before_its_next_event_breaks_skip_rule_on_dense_engine() {
        // An ALU op with a 100-cycle tail, issued at cycle 1: the event
        // engine jumps to 101, so the model's tick at 40 must do nothing.
        let mut cfg = GpuConfig::tiny();
        cfg.engine = EngineKind::Dense;
        let grid = KernelGrid::new(
            "tail",
            vec![CtaSpec::new(
                0,
                vec![WarpProgram::new(
                    vec![
                        Instr::Alu {
                            cycles: 100,
                            count: 1,
                        },
                        Instr::Alu {
                            cycles: 1,
                            count: 1,
                        },
                    ],
                    32,
                )],
            )],
        );
        GpuSim::new(cfg, Box::new(ActsAt40), NdetSource::disabled()).run(&[grid]);
    }

    #[test]
    #[should_panic(expected = "parked")]
    fn lapsed_model_refusal_deadlocks_event_engine_as_parked() {
        // The event engine parks the refused warp until a reopen that never
        // comes; the watchdog must name the warp as parked, not hang.
        run_refuse_once(EngineKind::Event);
    }
}
