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
//! 5. every warp scheduler picks and issues one instruction, consulting the
//!    execution model for gating and atomic routing (warp-view construction
//!    optionally runs on a [`par::WorkerPool`](crate::par::WorkerPool), one
//!    cluster per job, when `sim_threads > 1`);
//! 6. packets staged in per-cluster outboxes merge into the interconnect in
//!    cluster-index order (the deterministic merge point);
//! 7. CTAs are dispatched per the model's distribution policy;
//! 8. the model ticks (flush controllers, quantum state machines) and its
//!    wake commands are applied.
//!
//! A run executes a sequence of [`KernelGrid`]s back to back and returns a
//! [`RunReport`] with statistics and the final memory contents, whose
//! [`digest`](crate::values::ValueMem::digest) is the determinism criterion
//! used throughout the test-suite and benchmarks.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::commit::{self, CommitOut, CommitParams, EngineShared, Shared};
use crate::config::{EngineKind, GpuConfig};
use crate::exec::{ExecutionModel, ModelCtx, SchedCensus, SchedId, WakeCmd, WarpId};
use crate::imeta::{warp_meta, WarpMeta};
use crate::kernel::{CtaDistribution, KernelGrid};
use crate::lock::{LockManager, LockPrescan};
use crate::mem::icnt::Interconnect;
use crate::mem::packet::{AtomKind, Payload, WarpRef};
use crate::mem::partition::MemPartition;
use crate::ndet::NdetSource;
use crate::par::{ClusterShard, Phase, WorkerPool};
use crate::sched::SchedKind;
use crate::sm::{Sm, WarpState};
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
    /// `[samples]` sections are byte-identical at any `DAB_SIM_THREADS`
    /// and for either engine; the `[engine]` section (cycle-skip spans)
    /// is engine-variant by design.
    pub trace: Option<obs::Trace>,
    /// Per-phase host wall-clock breakdown (prepare/commit/merge). Like
    /// [`wall`](Self::wall), a throughput measurement only.
    pub phase_wall: PhaseWall,
    /// Fine-grained engine span profile, present when the run was
    /// configured with `cfg.profile` (`DAB_PROFILE=1`). Pure `wall.*`
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
/// Maintained on the coordinating thread only (never on pool workers), so
/// every value is identical at any `DAB_SIM_THREADS`. The dense and event
/// engines report different values *by design* — the event engine exists to
/// visit less — so determinism comparisons between the two engines must
/// ignore the `det.engine.*` stat keys these fold into.
#[derive(Debug, Default)]
struct ActivityCounters {
    /// Cycles the engine never visited (event-wheel jumps plus the dense
    /// engine's quiet fast-forward).
    cycles_skipped: u64,
    /// Warp sleep→ready transitions (memory responses, lock grants,
    /// barrier releases, flush wakes) that re-armed a scheduler.
    wakeup_events: u64,
    /// SMs entered by an issue phase (not skipped by the active-set walk).
    sms_ticked: u64,
    /// Full warp-array ready-bound rescans (batch-gate openings and dirty
    /// mid-commit view rebuilds): the O(warps/scheduler) work incremental
    /// wake lists avoid. Before wake lists every scheduler visit ended in
    /// one, so comparing this against older measurements shows the saving.
    scheduler_scans: u64,
    /// Cycles in which at least one cluster was admitted to the
    /// independent (sharded) commit path. Classification runs whether or
    /// not sharding executes, so the value is identical at any
    /// `DAB_SIM_THREADS` and either `DAB_COMMIT_SHARD` setting.
    commit_parallel_cycles: u64,
    /// Total cluster-commits admitted to the independent path (the sum of
    /// per-cycle commit-group sizes). Same invariance as
    /// `commit_parallel_cycles`.
    commit_groups: u64,
    /// Partitions entered by `tick_partitions` (not skipped by the
    /// sleeping-partition check).
    partitions_ticked: u64,
}

/// Host wall-clock spent inside each engine phase, accumulated across the
/// whole run. A host measurement like [`RunReport::wall`] — excluded from
/// every determinism comparison — recorded so perf trajectories can show
/// *where* a configuration spends its time (prepare on workers, commit on
/// the coordinator or the sharded path, outbox merge).
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseWall {
    /// View/census construction (`prepare_views`, serial or pooled).
    pub prepare: std::time::Duration,
    /// Commit walk (serial engine-backed plus sharded inert commits).
    pub commit: std::time::Duration,
    /// Outbox merge into the interconnect.
    pub merge: std::time::Duration,
}

impl PhaseWall {
    /// `(prepare, commit, merge)` in seconds, for serialization.
    pub fn secs(&self) -> (f64, f64, f64) {
        (
            self.prepare.as_secs_f64(),
            self.commit.as_secs_f64(),
            self.merge.as_secs_f64(),
        )
    }
}

/// The simulator: one GPU, one execution model, one run.
///
/// Construct with [`GpuSim::new`] and consume with [`GpuSim::run`]; build a
/// fresh simulator for every run (runs are cheap to set up and this keeps
/// every run's initial state identical by construction).
#[derive(Debug)]
pub struct GpuSim {
    cfg: GpuConfig,
    model: Box<dyn ExecutionModel>,
    /// Root non-determinism stream (CTA-dispatch tiebreaks). Per-endpoint
    /// child streams below are split off this root at construction so that
    /// draws stay independent of how many worker threads participate.
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
    /// Per-cluster shards: the SMs plus the worker-local scratch (warp
    /// views, census rows, outbound packet staging) that migrates to pool
    /// threads when `cfg.sim_threads > 1`.
    clusters: Vec<ClusterShard>,
    icnt: Interconnect,
    partitions: Vec<MemPartition>,
    locks: LockManager,
    stats: SimStats,
    cycle: u64,
    wakes: Vec<WakeCmd>,
    census: Vec<SchedCensus>,
    sched_kind: SchedKind,
    last_progress_cycle: u64,
    activity: ActivityCounters,
    /// Per-cluster admission scratch for the commit classifier (reused
    /// every cycle to avoid allocation).
    commit_admit: Vec<bool>,
    /// Per-phase host wall-clock accumulator (prepare/commit/merge).
    phase_wall: PhaseWall,
    /// Structured event tracer, `None` when `cfg.trace` is off — the
    /// off-mode fast path is a single pointer null-check per trace site.
    /// All recording happens on the coordinating thread in commit order,
    /// so the trace's deterministic sections are byte-identical at any
    /// `DAB_SIM_THREADS` and for either engine.
    tracer: Option<Box<obs::Tracer>>,
    /// Fine-grained engine span profiler, `None` when `cfg.profile` is off
    /// (the off-mode cost is one null-check per phase boundary). All
    /// accumulation happens on the coordinating thread; the data is pure
    /// `wall.*` host timing and never touches [`SimStats`].
    ///
    /// The profiler *samples*: per-cycle spans are timed on one engine
    /// step in [`PROFILE_SAMPLE_INTERVAL`] and scaled back up, keeping the
    /// clock-read overhead well under the 2% budget even on hosts with
    /// slow monotonic clocks (see [`Self::prof_start`]).
    profile: Option<Box<obs::PhaseProfile>>,
    /// True when the current engine step is a profiler sample step
    /// (recomputed at the top of [`Self::kernel_step`]; always false with
    /// the profiler off).
    prof_sample: bool,
    /// Engine steps taken so far, for the profiler's sampling clock. Runs
    /// on executed steps, not cycle numbers, so the event engine's cycle
    /// skipping cannot alias with the sample interval.
    prof_steps: u64,
    /// The run's metric schema: every `det.*` name this run is allowed to
    /// emit, registered at construction by the engine, the interconnect,
    /// the memory partitions, and the execution model. The end of
    /// [`run`](Self::run) checks the final stats maps against it, so
    /// typo'd or unregistered bump sites fail the run instead of silently
    /// minting a new key.
    registry: obs::MetricsRegistry,
}

/// Flattens a packet payload to its trace event class.
fn pkt_kind(payload: &Payload) -> obs::PacketKind {
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
/// step itself. 16 keeps measured overhead under the 2% budget while
/// still sampling every phase thousands of times on real workloads.
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
        let clusters = (0..cfg.num_clusters)
            .map(|c| {
                let sms = (0..cfg.sms_per_cluster)
                    .map(|i| Sm::new(c * cfg.sms_per_cluster + i, &cfg, sched_kind))
                    .collect();
                ClusterShard::new(c, sms, cfg.num_schedulers_per_sm)
            })
            .collect();
        let dram_jitter = if ndet.is_enabled() { 16 } else { 0 };
        let partitions = (0..cfg.num_mem_partitions)
            .map(|id| MemPartition::new(id, &cfg, dram_jitter))
            .collect();
        let census = vec![SchedCensus::default(); cfg.num_sms() * cfg.num_schedulers_per_sm];
        // Fixed stream tags keep every endpoint's draw sequence a pure
        // function of the seed, independent of worker-thread interleaving.
        let part_ndet = (0..cfg.num_mem_partitions)
            .map(|p| ndet.split(0x1000_0000 + p as u64))
            .collect();
        let icnt_mem_ndet = (0..cfg.num_mem_partitions)
            .map(|p| ndet.split(0x2000_0000 + p as u64))
            .collect();
        let icnt_cl_ndet = (0..cfg.num_clusters)
            .map(|c| ndet.split(0x3000_0000 + c as u64))
            .collect();
        let mut registry = obs::MetricsRegistry::new();
        Self::register_engine_metrics(&mut registry);
        Interconnect::register_metrics(&mut registry);
        MemPartition::register_metrics(&mut registry);
        model.register_metrics(&mut registry);
        Self {
            icnt: Interconnect::new(&cfg),
            locks: LockManager::new(&cfg),
            clusters,
            partitions,
            values: ValueMem::new(),
            stats: SimStats::default(),
            cycle: 0,
            wakes: Vec::new(),
            census,
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
            registry,
            cfg,
            last_progress_cycle: 0,
            activity: ActivityCounters::default(),
            commit_admit: Vec::new(),
            phase_wall: PhaseWall::default(),
        }
    }

    /// Registers the engine-owned metric families: the coordinator-only
    /// `det.engine.*` activity counters and `det.obs.*` trace counts, plus
    /// the shard-side `det.stall.*` issue-stall counters charged by the
    /// commit machinery.
    fn register_engine_metrics(registry: &mut obs::MetricsRegistry) {
        registry.counter(
            "det.engine.cycles_skipped",
            "cycles the engine never visited (event-wheel jumps, quiet fast-forward)",
        );
        registry.counter(
            "det.engine.wakeup_events",
            "warp sleep-to-ready transitions that re-armed a scheduler",
        );
        registry.counter(
            "det.engine.sms_ticked",
            "SMs entered by an issue phase (not skipped by the active-set walk)",
        );
        registry.counter(
            "det.engine.scheduler_scans",
            "full warp-array ready-bound rescans",
        );
        registry.counter(
            "det.engine.commit_parallel_cycles",
            "cycles with at least one cluster admitted to the sharded commit path",
        );
        registry.counter(
            "det.engine.commit_groups",
            "total cluster-commits admitted to the sharded path",
        );
        registry.counter(
            "det.engine.partitions_ticked",
            "partitions entered by tick_partitions (not skipped as sleeping)",
        );
        registry.counter(
            "det.obs.trace_events",
            "structured trace events recorded (tracing runs only)",
        );
        registry.counter(
            "det.obs.samples",
            "time-series sample rows recorded (tracing runs only)",
        );
        registry.counter("det.stall.l1_mshr", "issue stalls on a full L1 MSHR table");
        registry.counter(
            "det.stall.atomic_buffer_full",
            "issue stalls on a full model-side atomic buffer",
        );
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
    /// estimate while bounding the overhead to well under the 2% budget.
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

    /// The SM with global index `idx`.
    fn sm(&self, idx: usize) -> &Sm {
        let spc = self.cfg.sms_per_cluster;
        &self.clusters[idx / spc].sms[idx % spc]
    }

    /// Mutable access to the SM with global index `idx`.
    fn sm_mut(&mut self, idx: usize) -> &mut Sm {
        let spc = self.cfg.sms_per_cluster;
        &mut self.clusters[idx / spc].sms[idx % spc]
    }

    /// Iterates SMs in global (cluster-major) order.
    fn sms(&self) -> impl Iterator<Item = &Sm> {
        self.clusters.iter().flat_map(|c| c.sms.iter())
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
    pub fn run(self, kernels: &[KernelGrid]) -> RunReport {
        // Effective worker count: clamped to the cluster count (a worker per
        // cluster is the maximum useful parallelism) and floored at 1.
        let threads = self.cfg.sim_threads.min(self.clusters.len()).max(1);
        if threads > 1 {
            std::thread::scope(|scope| {
                let pool = WorkerPool::start(scope, threads);
                self.run_inner(kernels, Some(&pool))
            })
        } else {
            self.run_inner(kernels, None)
        }
    }

    fn run_inner(mut self, kernels: &[KernelGrid], pool: Option<&WorkerPool>) -> RunReport {
        let started = std::time::Instant::now();
        let mut kernel_cycles = Vec::with_capacity(kernels.len());
        for grid in kernels {
            let statics = KernelStatics::build(&self.cfg, grid);
            let start = self.cycle;
            self.run_kernel(grid, statics, pool);
            kernel_cycles.push((grid.name.clone(), self.cycle - start));
        }
        // Fold shard, partition, and activity counters into the final
        // stats. Issue-path counters accumulate per shard while a kernel
        // runs (so pool workers never touch shared stats); fold them in
        // here in cluster-index order, which keeps merged counters
        // identical at any thread count.
        for cluster in &mut self.clusters {
            let shard_stats = std::mem::take(&mut cluster.stats);
            self.stats.merge_shard(&shard_stats);
        }
        self.stats.cycles = self.cycle;
        for p in &self.partitions {
            let ps = p.stats();
            self.stats.l2_accesses += ps.l2_accesses;
            self.stats.l2_misses += ps.l2_misses;
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
            "det.engine.commit_parallel_cycles",
            self.activity.commit_parallel_cycles,
        );
        self.stats
            .bump("det.engine.commit_groups", self.activity.commit_groups);
        self.stats.bump(
            "det.engine.partitions_ticked",
            self.activity.partitions_ticked,
        );
        self.stats
            .bump("det.icnt.packets_routed", self.icnt.packets_moved());
        // The `det.obs.*` family is coordinator-only and thread/engine-invariant
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
        // Fail fast on any key that reached the stats maps without a
        // matching registration (typo'd bump site or a model missing its
        // register_metrics override).
        self.registry
            .assert_covers(self.stats.counters.keys().copied(), "run counters");
        self.registry
            .assert_covers(self.stats.gauges.keys().copied(), "run gauges");
        RunReport {
            model: self.model.name(),
            stats: self.stats,
            values: self.values,
            kernel_cycles,
            wall: started.elapsed(),
            trace,
            phase_wall: self.phase_wall,
            profile: self.profile.map(|p| *p),
        }
    }

    fn run_kernel(&mut self, grid: &KernelGrid, statics: KernelStatics, pool: Option<&WorkerPool>) {
        let mut dispatcher = self.begin_kernel(grid, statics);
        let event = self.cfg.engine == EngineKind::Event;
        while !self.kernel_step(grid, &mut dispatcher, pool, event) {}
        self.end_kernel();
    }

    /// Installs per-kernel state — the dispatcher over the kernel's
    /// statics, the pre-registered lock tickets, the model's kernel hook —
    /// and returns the dispatcher driving CTA placement.
    fn begin_kernel(&mut self, grid: &KernelGrid, statics: KernelStatics) -> Dispatcher {
        self.locks.install_prescan(&statics.lock_prescan);
        let dist = self.model.cta_distribution(self.cfg.num_sms());
        let dispatcher = Dispatcher::new(grid, dist, self.cfg.num_sms(), statics);
        self.model.on_kernel_start(&grid.name, grid.ctas.len());
        self.last_progress_cycle = self.cycle;
        dispatcher
    }

    /// Runs one iteration of the per-cycle loop; returns `true` when the
    /// kernel is complete, *without* advancing past the completion cycle.
    fn kernel_step(
        &mut self,
        grid: &KernelGrid,
        dispatcher: &mut Dispatcher,
        pool: Option<&WorkerPool>,
        event: bool,
    ) -> bool {
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
            // dense loop — so the sample rows are engine- and
            // thread-invariant.
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
            self.issue_all(pool, event);
            // Deterministic merge point: packets the issue phase staged in
            // per-cluster outboxes enter the interconnect in cluster-index
            // order, regardless of which worker produced them.
            let span = self.prof_start();
            self.merge_outboxes();
            self.prof_record(obs::Phase::Merge, span);
            let span = self.prof_start();
            self.dispatch(grid, dispatcher);
            self.prof_record(obs::Phase::Dispatch, span);
            let span = self.prof_start();
            self.model_tick(dispatcher.all_dispatched(), pool);
            self.prof_record(obs::Phase::ModelTick, span);
            let span = self.prof_start();
            self.apply_wakes();
            self.prof_record(obs::Phase::Wakes, span);

            if self.kernel_done(dispatcher) {
                return true;
            }
            let span = self.prof_start();
            if event {
                self.advance_cycle_event();
            } else {
                self.advance_cycle();
            }
            self.prof_record(obs::Phase::Wheel, span);
            if self.cycle - self.last_progress_cycle >= DEADLOCK_HORIZON {
                let mut dump = String::new();
                for (sm_idx, sm) in self.sms().enumerate() {
                    for (slot, warp) in sm.warps.iter().enumerate() {
                        if let Some(w) = warp {
                            dump.push_str(&format!(
                                "\n  sm {sm_idx} slot {slot} unique {} sched {} batch {} state {:?} pc {}/{} next_atomic {}",
                                w.unique,
                                w.sched,
                                w.batch,
                                w.state,
                                w.pc,
                                w.program.instrs.len(),
                                w.next_is_atomic(),
                            ));
                        }
                    }
                }
                let mut tail = self.trace_tail();
                if let Some(tracer) = self.tracer.as_deref() {
                    for (sm_idx, sm) in self.sms().enumerate() {
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

    /// Kernel epilogue: model and scheduler boundary hooks, lock reset, and
    /// the inter-kernel cycle gap.
    fn end_kernel(&mut self) {
        self.model.on_kernel_end();
        for cluster in &mut self.clusters {
            for sm in &mut cluster.sms {
                for sched in &mut sm.schedulers {
                    sched.on_kernel_boundary();
                }
            }
        }
        self.locks.reset();
        self.cycle += 1;
    }

    fn kernel_done(&self, dispatcher: &Dispatcher) -> bool {
        dispatcher.all_dispatched()
            && self.sms().all(|sm| sm.live_warps() == 0)
            && self.clusters.iter().all(|c| c.outbox.is_empty())
            && !self.icnt.is_busy()
            && self.partitions.iter().all(|p| !p.is_busy())
            && !self.locks.is_busy()
            && self.model.quiescent()
    }

    fn advance_cycle(&mut self) {
        // Conservative fast-forward: only when the memory system is quiet
        // (including packets still staged in cluster outboxes) and the
        // model needs no per-cycle tick may we jump to the next warp-ready
        // or lock-service event.
        let quiet = !self.icnt.is_busy()
            && self.clusters.iter().all(|c| c.outbox.is_empty())
            && self.partitions.iter().all(|p| !p.is_busy())
            && !self.model.needs_tick();
        if quiet {
            let mut target = self.sms().filter_map(Sm::earliest_ready).min();
            let mut fold = |ev: Option<u64>| {
                if let Some(e) = ev {
                    target = Some(target.map_or(e, |t| t.min(e)));
                }
            };
            fold(self.model.next_event_hint());
            if self.locks.is_busy() {
                match self.locks.next_event_cycle() {
                    // A lock can act immediately: no fast-forward.
                    Some(0) => fold(Some(self.cycle + 1)),
                    ev => fold(ev),
                }
            }
            if let Some(t) = target {
                if t > self.cycle + 1 {
                    self.activity.cycles_skipped += t - self.cycle - 1;
                    if let Some(tr) = self.tracer.as_deref_mut() {
                        tr.record_skip(self.cycle, t);
                    }
                    self.cycle = t;
                    return;
                }
            }
        }
        self.cycle += 1;
    }

    /// Event-wheel cycle advance (`DAB_ENGINE=event`): jump straight to
    /// the earliest cycle at which any component can act.
    ///
    /// Correctness rests on every elided cycle being a provable no-op of
    /// the dense loop: no queued interconnect work (so arbitration points
    /// draw no perturbations), no partition or lock with an immediate
    /// event, no model tick needed, and no scheduler whose
    /// [`ready_bound`](crate::sm::SchedulerCtx) admits a pick. Components
    /// with a known future event fold their absolute event cycle into the
    /// jump target, clamped to `cycle + 1` so the wheel never stalls or
    /// re-visits the present.
    fn advance_cycle_event(&mut self) {
        // Work that must be processed next cycle forces a dense step.
        let busy_now = self.icnt.has_queued_work()
            || self.clusters.iter().any(|c| !c.outbox.is_empty())
            || self.model.needs_tick()
            || self
                .partitions
                .iter()
                .any(|p| p.next_event_cycle() == Some(0))
            || (self.locks.is_busy() && self.locks.next_event_cycle() == Some(0));
        if !busy_now {
            let next = self.cycle + 1;
            let mut target = u64::MAX;
            let mut fold = |ev: u64| target = target.min(ev.max(next));
            for sm in self.sms() {
                let b = sm.ready_bound();
                if b < u64::MAX {
                    fold(b);
                }
            }
            for p in &self.partitions {
                if let Some(t) = p.next_event_cycle() {
                    fold(t);
                }
            }
            if let Some(t) = self.icnt.next_event_cycle() {
                fold(t);
            }
            if self.locks.is_busy() {
                if let Some(t) = self.locks.next_event_cycle() {
                    fold(t);
                }
            }
            if let Some(t) = self.model.next_event_hint() {
                fold(t);
            }
            if target > next && target < u64::MAX {
                self.activity.cycles_skipped += target - next;
                if let Some(tr) = self.tracer.as_deref_mut() {
                    tr.record_skip(self.cycle, target);
                }
                self.cycle = target;
                return;
            }
            // `target == u64::MAX` (machine fully idle) means the
            // kernel-done check declined to finish; step densely and let
            // the deadlock horizon surface the bug.
        }
        self.cycle += 1;
    }

    fn progress(&mut self) {
        self.last_progress_cycle = self.cycle;
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
                .sms()
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
    /// event's level. Call only from the coordinating thread.
    #[inline]
    fn trace_event(&mut self, ev: obs::Event) {
        if let Some(t) = self.tracer.as_deref_mut() {
            t.record(ev);
        }
    }

    /// Whether full-detail tracing is on (gates construction of hot-path
    /// events so untraced runs pay one branch only).
    #[inline]
    fn trace_full(&self) -> bool {
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
            // and no due internal event. `MemPartition::due` documents why
            // the skipped tick is a no-op and why the jitter stream is
            // unperturbed.
            if !self.icnt.has_arrived_request(p) && !self.partitions[p].due(self.cycle) {
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
                        self.model
                            .on_pre_flush(&mut self.partitions[p], sm, expected, self.cycle);
                    }
                    Payload::FlushEntry { sm, seq, ops } => {
                        self.model.on_flush_entry(
                            &mut self.partitions[p],
                            sm,
                            seq,
                            ops,
                            self.cycle,
                        );
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
            // Flush retirements are also surfaced directly (the ack packets
            // additionally travel the network for write-back accounting).
            let _ = self.partitions[p].take_retired_flush_acks();
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
                        self.model.on_atomic_ack(warp, kind, remaining, self.cycle);
                        if kind == AtomKind::Atom {
                            let cycle = self.cycle;
                            let sm = self.sm_mut(warp.sm);
                            let mut woke = None;
                            if let Some(w) = sm.warps[warp.slot].as_mut() {
                                if w.state == WarpState::WaitAtom {
                                    w.state = WarpState::Ready;
                                    w.next_ready = cycle + 1;
                                    woke = Some(w.sched);
                                }
                            }
                            if let Some(sched) = woke {
                                sm.schedulers[sched].note_ready(cycle + 1);
                                self.activity.wakeup_events += 1;
                                if trace_full {
                                    self.trace_event(obs::Event::Wake {
                                        cycle,
                                        sm: warp.sm as u32,
                                        slot: warp.slot as u32,
                                        site: obs::WakeSite::AtomAck,
                                    });
                                }
                            }
                        }
                        self.try_retire(warp.sm, warp.slot);
                    }
                    Payload::FlushAck { sm } => {
                        self.model.on_flush_ack(sm, self.cycle);
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

    fn handle_load_resp(&mut self, sector_addr: u64, warp: WarpRef) {
        let cycle = self.cycle;
        let trace_full = self.trace_full();
        let sm = self.sm_mut(warp.sm);
        sm.l1.fill(sector_addr);
        let Some(waiters) = sm.l1_mshrs.remove(&sector_addr) else {
            return;
        };
        let mut woke = 0;
        // Empty unless full tracing is on (`Vec::new` never allocates).
        let mut woke_slots: Vec<usize> = Vec::new();
        for &slot in &waiters {
            let mut woke_sched = None;
            if let Some(w) = sm.warps[slot].as_mut() {
                w.outstanding_loads = w.outstanding_loads.saturating_sub(1);
                if w.outstanding_loads == 0 && w.state == WarpState::WaitMem {
                    w.state = WarpState::Ready;
                    w.next_ready = cycle + 1;
                    woke_sched = Some(w.sched);
                }
            }
            if let Some(sched) = woke_sched {
                sm.schedulers[sched].note_ready(cycle + 1);
                woke += 1;
                if trace_full {
                    woke_slots.push(slot);
                }
            }
        }
        self.activity.wakeup_events += woke;
        for slot in woke_slots {
            self.trace_event(obs::Event::Wake {
                cycle,
                sm: warp.sm as u32,
                slot: slot as u32,
                site: obs::WakeSite::LoadResp,
            });
        }
        // A woken warp may have nothing left to execute.
        for slot in waiters {
            self.try_retire(warp.sm, slot);
        }
    }

    fn complete_write(&mut self, warp: WarpRef) -> u32 {
        let cycle = self.cycle;
        let sm = self.sm_mut(warp.sm);
        let mut remaining = 0;
        let mut woke = None;
        if let Some(w) = sm.warps[warp.slot].as_mut() {
            w.outstanding_writes = w.outstanding_writes.saturating_sub(1);
            remaining = w.outstanding_writes;
            if w.outstanding_writes == 0 && w.state == WarpState::WaitDrain {
                w.state = WarpState::Ready;
                w.next_ready = cycle + 1;
                woke = Some(w.sched);
            }
        }
        if let Some(sched) = woke {
            sm.schedulers[sched].note_ready(cycle + 1);
            self.activity.wakeup_events += 1;
            if self.trace_full() {
                self.trace_event(obs::Event::Wake {
                    cycle,
                    sm: warp.sm as u32,
                    slot: warp.slot as u32,
                    site: obs::WakeSite::StoreDrain,
                });
            }
        }
        self.try_retire(warp.sm, warp.slot);
        remaining
    }

    fn tick_locks(&mut self) {
        let released = self.locks.tick(self.cycle, &mut self.values);
        for warp in released {
            self.progress();
            let cycle = self.cycle;
            let sm = self.sm_mut(warp.sm);
            let mut woke = None;
            if let Some(w) = sm.warps[warp.slot].as_mut() {
                if w.state == WarpState::WaitLock {
                    w.state = WarpState::Ready;
                    w.next_ready = cycle + 1;
                    woke = Some((w.sched, w.unique));
                }
            }
            if let Some((sched, unique)) = woke {
                sm.schedulers[sched].note_ready(cycle + 1);
                self.activity.wakeup_events += 1;
                if self.tracer.is_some() {
                    self.trace_event(obs::Event::LockGrant {
                        cycle,
                        sm: warp.sm as u32,
                        slot: warp.slot as u32,
                        unique,
                    });
                    self.trace_event(obs::Event::Wake {
                        cycle,
                        sm: warp.sm as u32,
                        slot: warp.slot as u32,
                        site: obs::WakeSite::LockGrant,
                    });
                }
            }
            self.try_retire(warp.sm, warp.slot);
        }
    }

    // ------------------------------------------------------------------
    // Issue
    // ------------------------------------------------------------------

    /// Issues at most one instruction per warp scheduler.
    ///
    /// With a worker pool, warp-view construction (the read-only scan over
    /// each SM's warp contexts) runs on pool threads, one [`ClusterShard`]
    /// per job; the pick-and-issue *commit* then walks schedulers in global
    /// `(cluster, sm, sched)` order on this thread. Without a pool the whole
    /// loop runs interleaved exactly as the serial engine always has. Both
    /// paths perform the identical computation in the identical order, so
    /// results are bit-equal at any `DAB_SIM_THREADS`.
    fn issue_all(&mut self, pool: Option<&WorkerPool>, event: bool) {
        let det_aware = self.sched_kind.is_determinism_aware();
        let srr_like = self.sched_kind == SchedKind::Srr;
        let num_mem_partitions = self.cfg.num_mem_partitions;
        let hook_mask = self.model.commit_hook_mask();
        let admit = !self.trace_full();
        let prepare_started = std::time::Instant::now();
        match pool {
            None => {
                let cycle = self.cycle;
                for shard in &mut self.clusters {
                    shard.prepare_views(
                        cycle,
                        det_aware,
                        srr_like,
                        event,
                        num_mem_partitions,
                        hook_mask,
                        admit,
                    );
                }
            }
            Some(pool) => {
                pool.run_phase(
                    &mut self.clusters,
                    Phase::Views {
                        cycle: self.cycle,
                        det_aware,
                        srr_like,
                        use_ready_bound: event,
                        num_mem_partitions,
                        hook_mask,
                        admit,
                    },
                );
            }
        }
        let commit_started = std::time::Instant::now();
        self.phase_wall.prepare += commit_started - prepare_started;
        // Reuses the always-on `phase_wall` instants, so this span is
        // free to record exactly (every cycle, unscaled) rather than
        // through the sampled path.
        if let Some(p) = self.profile.as_deref_mut() {
            p.record(obs::Phase::Prepare, commit_started - prepare_started);
        }
        self.issue_commit(pool, event);
        self.phase_wall.commit += commit_started.elapsed();
    }

    /// The commit half of the issue phase: walk clusters in index order and
    /// commit each via [`commit::commit_cluster`] — consuming the prebuilt
    /// views in global `(cluster, sm, scheduler)` order, rebuilding any an
    /// earlier barrier release made stale this cycle. Both the serial and
    /// the pooled engine run this exact walk — only view *construction*
    /// moves to worker threads — so results are bit-equal at any
    /// `DAB_SIM_THREADS`.
    ///
    /// With `event` set, the walk is an active-set traversal: clusters, SMs
    /// and schedulers whose cached [`ready_bound`](Sm::ready_bound) lies in
    /// the future are skipped in place. Skipping is equivalent to the dense
    /// visit because `ready_bound > cycle` guarantees `build_views` would
    /// return empty (the bound is never stale-high), and an empty view set
    /// is exactly the dense `continue`: no gating, no pick, no issue.
    ///
    /// The skip conditions match the parked check in
    /// [`ClusterShard::prepare_views`](crate::par::ClusterShard): mid-commit
    /// wakes only ever lower a bound to `cycle + 1` (still parked), so
    /// prepare and commit always agree on which schedulers are active.
    ///
    /// **Sharding.** Before the walk, clusters are classified in index
    /// order: a cluster is *admitted* to the independent path when it has
    /// commit work this cycle, its [`CommitFootprint`](crate::commit::CommitFootprint) avoids locks and
    /// every hook the model overrides
    /// ([`commit_hook_mask`](ExecutionModel::commit_hook_mask)), full
    /// tracing is off (per-issue trace events must record in global
    /// order), and its destination partitions are disjoint from every
    /// earlier admitted cluster's. Admitted clusters commit with
    /// [`Shared::Inert`] — on pool workers when one is available,
    /// otherwise inline — and the rest commit serially with
    /// [`Shared::Engine`] in cluster order. The two sets touch provably
    /// disjoint state (admitted commits read and write only their own
    /// shard; packets stage in per-cluster outboxes; no commit draws
    /// non-determinism — the commit module has no access to an
    /// [`NdetSource`] at all), so any interleaving is bit-identical to
    /// the all-serial walk. Classification runs identically at every
    /// thread count and either `DAB_COMMIT_SHARD` setting, so the
    /// `commit_parallel_cycles`/`commit_groups` counters are thread- and
    /// knob-invariant.
    fn issue_commit(&mut self, pool: Option<&WorkerPool>, event: bool) {
        debug_assert_eq!(event, self.cfg.engine == EngineKind::Event);
        let cycle = self.cycle;
        let n = self.clusters.len();
        self.commit_admit.resize(n, false);
        let mask = self.model.commit_hook_mask();
        let full_trace = self.trace_full();
        let mut taken_parts = 0u64;
        let mut admitted = 0u64;
        let span = self.prof_start();
        for cl in 0..n {
            self.commit_admit[cl] = false;
            let shard = &self.clusters[cl];
            // Computed during prepare from the same per-scheduler parked
            // condition the commit walk applies; nothing between prepare
            // and here changes it. Reading the cached flag keeps this
            // classification loop O(clusters), not O(warps).
            debug_assert_eq!(
                shard.active,
                shard.sms.iter().any(|sm| sm
                    .schedulers
                    .iter()
                    .any(|s| { s.live > 0 && !(event && s.ready_bound > cycle) }))
            );
            if !shard.active {
                continue;
            }
            let fp = shard.footprint;
            if full_trace || !fp.independent(mask) || fp.partitions & taken_parts != 0 {
                continue;
            }
            taken_parts |= fp.partitions;
            self.commit_admit[cl] = true;
            admitted += 1;
        }
        if admitted > 0 {
            self.activity.commit_parallel_cycles += 1;
            self.activity.commit_groups += admitted;
        }
        self.prof_record(obs::Phase::CommitClassify, span);

        if self.cfg.commit_shard {
            let span = self.prof_start();
            match pool {
                Some(pool) if admitted > 0 => {
                    for cl in 0..n {
                        if self.commit_admit[cl] {
                            let p = self.commit_params(cl);
                            self.clusters[cl].commit_job = Some(p);
                        }
                    }
                    pool.run_phase(&mut self.clusters, Phase::Commit);
                    for cl in 0..n {
                        if self.commit_admit[cl] {
                            let out = self.clusters[cl].commit_out;
                            self.fold_commit_out(out);
                        }
                    }
                }
                _ => {
                    // No pool (or nothing admitted): run admitted clusters
                    // inert on the coordinator — the same code path the
                    // workers would take, so one thread exercises exactly
                    // what many threads do.
                    for cl in 0..n {
                        if self.commit_admit[cl] {
                            let p = self.commit_params(cl);
                            let mut out = CommitOut::default();
                            commit::commit_cluster(
                                &mut self.clusters[cl],
                                &p,
                                &mut Shared::Inert,
                                &mut out,
                            );
                            self.fold_commit_out(out);
                        }
                    }
                }
            }
            self.prof_record(obs::Phase::CommitParallel, span);
            let span = self.prof_start();
            for cl in 0..n {
                if !self.commit_admit[cl] {
                    self.with_engine_commit(cl, commit::commit_cluster);
                }
            }
            self.prof_record(obs::Phase::CommitSerial, span);
        } else {
            let span = self.prof_start();
            for cl in 0..n {
                self.with_engine_commit(cl, commit::commit_cluster);
            }
            self.prof_record(obs::Phase::CommitSerial, span);
        }
    }

    /// Folds one commit walk's activity into the coordinator totals.
    fn fold_commit_out(&mut self, out: CommitOut) {
        self.activity.sms_ticked += out.sms_ticked;
        self.activity.scheduler_scans += out.scheduler_scans;
        self.activity.wakeup_events += out.wakeup_events;
        if out.progressed {
            self.last_progress_cycle = self.cycle;
        }
    }

    /// Builds the immutable per-cluster snapshot a commit walk reads.
    fn commit_params(&self, cl: usize) -> CommitParams {
        CommitParams {
            cycle: self.cycle,
            cluster: cl,
            spc: self.cfg.sms_per_cluster,
            num_sched: self.cfg.num_schedulers_per_sm,
            l1_hit_latency: self.cfg.l1_hit_latency,
            icnt_flit_size: self.cfg.icnt_flit_size,
            num_mem_partitions: self.cfg.num_mem_partitions,
            det_aware: self.sched_kind.is_determinism_aware(),
            srr_like: self.sched_kind == SchedKind::Srr,
            event: self.cfg.engine == EngineKind::Event,
            icnt_budget: self.icnt.request_injection_budget(cl),
        }
    }

    /// Runs `f` against cluster `cl`'s shard with the live engine
    /// resources ([`Shared::Engine`]), then folds the walk's activity
    /// counters into the coordinator-side totals. Every commit-machinery
    /// entry point on the coordinating thread goes through here, so serial
    /// and sharded commits observe byte-identical parameters.
    fn with_engine_commit(
        &mut self,
        cl: usize,
        f: impl FnOnce(&mut ClusterShard, &CommitParams, &mut Shared<'_>, &mut CommitOut),
    ) {
        let p = self.commit_params(cl);
        let mut out = CommitOut::default();
        {
            let GpuSim {
                clusters,
                model,
                locks,
                tracer,
                ..
            } = self;
            let mut sh = Shared::Engine(EngineShared {
                model: model.as_mut(),
                locks,
                tracer: tracer.as_deref_mut(),
            });
            f(&mut clusters[cl], &p, &mut sh, &mut out);
        }
        self.fold_commit_out(out);
    }

    /// Drains every cluster's staged outbound packets into the interconnect,
    /// in cluster-index order: the per-cycle deterministic merge point.
    fn merge_outboxes(&mut self) {
        let merge_started = std::time::Instant::now();
        let trace_full = self.trace_full();
        for c in 0..self.clusters.len() {
            while let Some(pkt) = self.clusters[c].outbox.pop() {
                if trace_full {
                    self.trace_event(obs::Event::IcntInject {
                        cycle: self.cycle,
                        cluster: c as u32,
                        dest: pkt.dest as u32,
                        kind: pkt_kind(&pkt.payload),
                    });
                }
                self.icnt.inject_request(c, pkt);
            }
        }
        self.phase_wall.merge += merge_started.elapsed();
    }

    /// Wakes a flush-parked warp at the epoch boundary (see
    /// [`commit::wake_flush_wait`]); the model-wake entry point, called on
    /// the coordinating thread only.
    fn wake_flush_wait(&mut self, sm_idx: usize, slot: usize) {
        let spc = self.cfg.sms_per_cluster;
        self.with_engine_commit(sm_idx / spc, |shard, p, sh, out| {
            commit::wake_flush_wait(shard, p, sh, out, sm_idx % spc, slot);
        });
    }

    /// Retires the warp if it has finished and drained (see
    /// [`commit::try_retire`]); entry point for the response, lock-grant,
    /// and spawn paths, called on the coordinating thread only.
    fn try_retire(&mut self, sm_idx: usize, slot: usize) {
        let spc = self.cfg.sms_per_cluster;
        self.with_engine_commit(sm_idx / spc, |shard, p, sh, out| {
            commit::try_retire(shard, p, sh, out, sm_idx % spc, slot);
        });
    }

    // ------------------------------------------------------------------
    // Dispatch, model tick, wakes
    // ------------------------------------------------------------------

    fn dispatch(&mut self, grid: &KernelGrid, dispatcher: &mut Dispatcher) {
        if !self.model.allow_dispatch() {
            return;
        }
        let cycle = self.cycle;
        if dispatcher.is_static {
            for sm_idx in 0..self.cfg.num_sms() {
                let Some(&cta_idx) = dispatcher.static_queues[sm_idx].front() else {
                    continue;
                };
                let cta = &grid.ctas[cta_idx];
                if self.sm(sm_idx).can_accept(cta) {
                    dispatcher.static_queues[sm_idx].pop_front();
                    let base = dispatcher.statics.unique_bases[cta_idx];
                    let slots = self.sm_mut(sm_idx).add_cta(
                        cta,
                        base,
                        cycle,
                        &dispatcher.statics.metas[cta_idx],
                    );
                    self.notify_spawns(sm_idx, &slots);
                    self.progress();
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
                (0..n).any(|sm_idx| self.sm(sm_idx).can_accept(cta))
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
                        let acceptors = (0..n).filter(|&s| self.sm(s).can_accept(cta)).count();
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
                    if self.sm(sm_idx).can_accept(cta) {
                        dispatcher.dynamic_queue.pop_front();
                        let base = dispatcher.statics.unique_bases[cta_idx];
                        let slots = self.sm_mut(sm_idx).add_cta(
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
            }
        }
        if dispatcher.all_dispatched() {
            for cluster in &mut self.clusters {
                for sm in &mut cluster.sms {
                    for sched in &mut sm.schedulers {
                        if sched.advance_completed(true) {
                            // The batch gate opened for a partially filled
                            // tail batch; its warps carried no timer bound
                            // while gated, so re-arm the scheduler for the
                            // next issue phase.
                            sched.note_ready(cycle + 1);
                        }
                    }
                }
            }
        }
    }

    fn notify_spawns(&mut self, sm_idx: usize, slots: &[usize]) {
        for &slot in slots {
            let (sched, unique) = {
                let w = self.sm(sm_idx).warps[slot].as_ref().expect("spawned");
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

    fn model_tick(&mut self, all_dispatched: bool, pool: Option<&WorkerPool>) {
        let det_aware = self.sched_kind.is_determinism_aware();
        // Census rows are SM-local (counts plus per-scheduler policy
        // bookkeeping), so each cluster's rows build independently — on pool
        // workers when parallel, in cluster order when serial.
        match pool {
            None => {
                for shard in &mut self.clusters {
                    shard.prepare_census(det_aware);
                }
            }
            Some(pool) => pool.run_phase(&mut self.clusters, Phase::Census { det_aware }),
        }
        let rows = self.cfg.sms_per_cluster * self.cfg.num_schedulers_per_sm;
        for shard in &self.clusters {
            self.census[shard.id * rows..(shard.id + 1) * rows].copy_from_slice(&shard.census);
        }
        let mut ctx = ModelCtx::new(
            self.cycle,
            &self.cfg,
            &mut self.icnt,
            &mut self.stats,
            &self.census,
            all_dispatched,
            &mut self.wakes,
        );
        self.model.tick(&mut ctx);
        // Drain events the model queued while its hooks ran this cycle.
        // Models only queue when tracing is on (they copy `cfg.trace`), so
        // untraced runs skip the call entirely.
        if self.tracer.is_some() {
            for ev in self.model.take_trace_events() {
                self.trace_event(ev);
            }
        }
    }

    fn apply_wakes(&mut self) {
        let wakes = std::mem::take(&mut self.wakes);
        for wake in wakes {
            self.progress();
            match wake {
                WakeCmd::FlushWaiters { sm } => {
                    for slot in 0..self.sm(sm).warps.len() {
                        self.wake_flush_wait(sm, slot);
                    }
                }
                WakeCmd::Warp { warp } => {
                    self.wake_flush_wait(warp.sm, warp.slot);
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
    use crate::mem::packet::Packet;

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
        // instead of deadlocking.
        let mut cfg = GpuConfig::tiny();
        cfg.icnt_input_buffer = 8;
        cfg.icnt_flits_per_cycle = 1;
        let grid = sum_grid(64, 32, 0x0);
        let sim = GpuSim::new(cfg, Box::new(BaselineModel::new()), NdetSource::disabled());
        let r = sim.run(&[grid]);
        assert_eq!(r.values.read_f32(0x0), 64.0 * 32.0);
        assert!(r.stats.icnt_stall_cycles > 0);
    }

    #[test]
    fn empty_kernel_completes() {
        let grid = KernelGrid::new("empty", vec![CtaSpec::new(0, vec![WarpProgram::empty(32)])]);
        let report = run_baseline(grid);
        assert_eq!(report.stats.warp_instrs, 0);
    }

    #[test]
    fn staged_outbox_packets_block_quiescence() {
        // Regression: a packet staged in a cluster outbox but not yet merged
        // into the interconnect must keep the machine "busy" — both for
        // kernel completion and for the fast-forward's quiet check.
        let mut sim = GpuSim::new(
            GpuConfig::tiny(),
            Box::new(BaselineModel::new()),
            NdetSource::disabled(),
        );
        let empty = KernelGrid::new("noop", vec![]);
        let statics = KernelStatics::build(&sim.cfg, &empty);
        let dispatcher =
            Dispatcher::new(&empty, CtaDistribution::Dynamic, sim.cfg.num_sms(), statics);
        assert!(sim.kernel_done(&dispatcher), "idle machine must be done");

        let pkt = Packet::new(
            0,
            Payload::LoadReq {
                sector_addr: 0x40,
                warp: WarpRef { sm: 0, slot: 0 },
            },
            sim.cfg.icnt_flit_size,
        );
        sim.clusters[0].outbox.stage(pkt);
        assert!(
            !sim.kernel_done(&dispatcher),
            "staged outbox packet must count as in-flight work"
        );
        // The quiet fast-forward must also refuse to jump over the merge.
        let before = sim.cycle;
        sim.advance_cycle();
        assert_eq!(sim.cycle, before + 1, "no fast-forward while staged");

        sim.merge_outboxes();
        assert!(sim.clusters[0].outbox.is_empty());
        assert!(sim.icnt.is_busy(), "merged packet now rides the icnt");
    }

    #[test]
    fn sim_threads_run_is_bit_identical_to_serial() {
        // The pooled engine must produce byte-identical results and stats.
        let run = |threads: usize, seed: u64| {
            let mut cfg = GpuConfig::small();
            cfg.sim_threads = threads;
            let sim = GpuSim::new(
                cfg,
                Box::new(BaselineModel::new()),
                NdetSource::seeded(seed),
            );
            let r = sim.run(&[sum_grid(64, 32, 0x300)]);
            (r.cycles(), r.digest(), format!("{:?}", r.stats))
        };
        for seed in [0, 7] {
            let serial = run(1, seed);
            for threads in [2, 4, 16] {
                assert_eq!(serial, run(threads, seed), "threads={threads} seed={seed}");
            }
        }
    }

    #[test]
    fn sim_threads_clamps_to_cluster_count() {
        // More workers than clusters is clamped, not an error.
        let mut cfg = GpuConfig::tiny();
        cfg.sim_threads = 64;
        let sim = GpuSim::new(cfg, Box::new(BaselineModel::new()), NdetSource::disabled());
        let r = sim.run(&[sum_grid(4, 32, 0x500)]);
        assert_eq!(r.values.read_f32(0x500), 128.0);
    }
}
