//! Deterministic intra-simulation parallelism.
//!
//! One simulation is sharded by *compute cluster*: each [`ClusterShard`]
//! owns a cluster's SMs plus everything those SMs produce ahead of the
//! globally-ordered part of a cycle — prebuilt warp views, locally-staged
//! outbound packets ([`PacketOutbox`]), and an issue statistics
//! accumulator. A [`WorkerPool`] farms whole shards out to worker
//! threads for the cluster-local phases of a cycle and collects them back;
//! the engine then *commits* — issues instructions, consults the execution
//! model, and drains every outbox into the interconnect — serially, in
//! cluster-index order. Commit order therefore never depends on thread
//! interleaving, which is what keeps every digest bit-identical to the
//! serial engine at any `DAB_SIM_THREADS` (see DESIGN.md, "Cluster-epoch
//! merge protocol").
//!
//! The module also owns the strict parsing of the `DAB_SIM_THREADS` /
//! `DAB_JOBS` worker-count environment variables and of the `DAB_ENGINE`
//! cycle-loop selector: an unparseable value is an operator error and is
//! rejected loudly instead of silently falling back to a default.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc;

use crate::commit::{self, CommitFootprint, CommitOut, CommitParams};
use crate::config::EngineKind;
use crate::exec::HookMask;
use crate::mem::packet::Packet;
use crate::sched::WarpView;
use crate::sm::Sm;
use crate::stats::SimStats;

/// Environment variable selecting worker threads *inside* one simulation.
pub const SIM_THREADS_VAR: &str = "DAB_SIM_THREADS";

/// Environment variable selecting the cycle-loop implementation
/// (`dense` or `event`; see [`EngineKind`]).
pub const ENGINE_VAR: &str = "DAB_ENGINE";

/// Retired environment variable that used to select a replication-lane
/// count for batched seed sweeps; every sweep job now runs its own solo
/// pass (see [`replications_from_env`]).
pub const REPLICATIONS_VAR: &str = "DAB_REPLICATIONS";

/// Environment variable selecting whether independence-sharded commits are
/// enabled (`1`, the default) or every cluster commits on the serial
/// coordinator path (`0`). Either setting produces bit-identical results;
/// the knob exists for A/B verification and benchmarking.
pub const COMMIT_SHARD_VAR: &str = "DAB_COMMIT_SHARD";

/// Error from [`parse_count`]: a worker-count environment variable held
/// something other than a positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountError {
    var: String,
    raw: String,
    reason: &'static str,
}

impl std::fmt::Display for CountError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} must be a positive integer, got {:?} ({}); unset it to use the default",
            self.var, self.raw, self.reason
        )
    }
}

impl std::error::Error for CountError {}

/// Strictly parses a worker-count environment value: a positive integer,
/// surrounding whitespace allowed. `0`, empty, and non-numeric values are
/// rejected — masking an operator typo by silently using a default has cost
/// hours before ("DAB_JOBS=O8").
///
/// # Errors
///
/// Returns a [`CountError`] naming `var` when `raw` is not a positive
/// integer.
///
/// # Examples
///
/// ```
/// use gpu_sim::par::parse_count;
///
/// assert_eq!(parse_count("DAB_JOBS", " 8 "), Ok(8));
/// assert!(parse_count("DAB_JOBS", "0").is_err());
/// assert!(parse_count("DAB_JOBS", "eight").is_err());
/// ```
pub fn parse_count(var: &str, raw: &str) -> Result<usize, CountError> {
    let err = |reason| {
        Err(CountError {
            var: var.to_string(),
            raw: raw.to_string(),
            reason,
        })
    };
    match raw.trim().parse::<usize>() {
        Ok(0) => err("zero workers cannot make progress"),
        Ok(n) => Ok(n),
        Err(_) => err("not an unsigned integer"),
    }
}

/// Reads `DAB_SIM_THREADS`; absent means `1` (the serial engine).
///
/// # Panics
///
/// Panics with the [`CountError`] message on an invalid value — a typo must
/// stop the run, not silently serialize it.
pub fn sim_threads_from_env() -> usize {
    match std::env::var(SIM_THREADS_VAR) {
        Ok(raw) => match parse_count(SIM_THREADS_VAR, &raw) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => 1,
        Err(e) => panic!("{SIM_THREADS_VAR} is not valid unicode: {e}"),
    }
}

/// Reads the retired `DAB_REPLICATIONS` knob: absent or `1` means `1`,
/// the only lane count left (every sweep job runs its own solo pass).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_REPLICATIONS=4` stops the run instead of being silently ignored.
pub fn replications_from_env() -> usize {
    match std::env::var(REPLICATIONS_VAR) {
        Ok(raw) if raw.trim() == "1" => 1,
        Ok(raw) => panic!(
            "{REPLICATIONS_VAR} is retired (replication lanes were removed; every \
             sweep job runs solo), got {raw:?}; unset it"
        ),
        Err(std::env::VarError::NotPresent) => 1,
        Err(e) => panic!("{REPLICATIONS_VAR} is not valid unicode: {e}"),
    }
}

/// Error from [`parse_engine`]: `DAB_ENGINE` held something other than
/// `dense` or `event`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineError {
    raw: String,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{ENGINE_VAR} must be \"dense\" or \"event\", got {:?}; unset it to use the default",
            self.raw
        )
    }
}

impl std::error::Error for EngineError {}

/// Strictly parses a `DAB_ENGINE` value: `dense` or `event`, surrounding
/// whitespace allowed. Anything else is rejected — same policy as
/// [`parse_count`].
///
/// # Errors
///
/// Returns an [`EngineError`] when `raw` names no engine.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::EngineKind;
/// use gpu_sim::par::parse_engine;
///
/// assert_eq!(parse_engine(" dense "), Ok(EngineKind::Dense));
/// assert_eq!(parse_engine("event"), Ok(EngineKind::Event));
/// assert!(parse_engine("fast").is_err());
/// ```
pub fn parse_engine(raw: &str) -> Result<EngineKind, EngineError> {
    match raw.trim() {
        "dense" => Ok(EngineKind::Dense),
        "event" => Ok(EngineKind::Event),
        _ => Err(EngineError {
            raw: raw.to_string(),
        }),
    }
}

/// Reads `DAB_ENGINE`; absent means [`EngineKind::default`] (the event
/// engine).
///
/// # Panics
///
/// Panics with the [`EngineError`] message on an invalid value — a typo
/// must stop the run, not silently pick an engine.
pub fn engine_from_env() -> EngineKind {
    match std::env::var(ENGINE_VAR) {
        Ok(raw) => match parse_engine(&raw) {
            Ok(kind) => kind,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => EngineKind::default(),
        Err(e) => panic!("{ENGINE_VAR} is not valid unicode: {e}"),
    }
}

/// Reads `DAB_COMMIT_SHARD`; absent means `true` (sharded commits on).
///
/// # Panics
///
/// Panics on a value other than `0` or `1` — a typo must stop the run,
/// not silently change the execution path.
pub fn commit_shard_from_env() -> bool {
    match std::env::var(COMMIT_SHARD_VAR) {
        Ok(raw) => match raw.trim() {
            "0" => false,
            "1" => true,
            other => panic!("{COMMIT_SHARD_VAR} must be \"0\" or \"1\", got {other:?}"),
        },
        Err(std::env::VarError::NotPresent) => true,
        Err(e) => panic!("{COMMIT_SHARD_VAR} is not valid unicode: {e}"),
    }
}

/// Per-cluster staging buffer for outbound interconnect packets.
///
/// During issue, packets are staged here instead of entering the
/// interconnect directly; the engine drains every outbox in cluster-index
/// order at the cycle's merge point. Staged flits count against the
/// cluster's injection budget (the engine adds [`flits`](Self::flits) to
/// every admission check), so staging never admits traffic the serial
/// engine would have refused — per-cluster packet order and admission
/// decisions are bit-identical either way.
#[derive(Debug, Default)]
pub struct PacketOutbox {
    staged: VecDeque<Packet>,
    flits: u32,
}

impl PacketOutbox {
    /// Stages `pkt` for the next merge point.
    pub fn stage(&mut self, pkt: Packet) {
        self.flits += pkt.flits;
        self.staged.push_back(pkt);
    }

    /// Removes and returns the oldest staged packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.staged.pop_front()?;
        self.flits -= pkt.flits;
        Some(pkt)
    }

    /// Total flits currently staged (pending injection-budget debit).
    pub fn flits(&self) -> u32 {
        self.flits
    }

    /// Whether nothing is staged. A non-empty outbox is in-flight traffic:
    /// quiescence checks must treat it as busy.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Number of staged packets.
    pub fn len(&self) -> usize {
        self.staged.len()
    }
}

/// One compute cluster's share of the machine, plus everything its
/// cluster-local cycle phases produce.
#[derive(Debug)]
pub struct ClusterShard {
    /// Cluster index (also the shard's rank in every merge).
    pub id: usize,
    /// The cluster's SMs, locally indexed (`global = id * per_cluster + i`).
    pub sms: Vec<Sm>,
    /// Prebuilt warp views, indexed `local_sm * num_schedulers + sched`.
    pub views: Vec<Vec<WarpView>>,
    /// Aggregate timer bound per scheduler row (same indexing as `views`),
    /// valid for rows whose views were built this cycle: the exact
    /// post-visit `ready_bound` to install if the visit issues nothing.
    pub view_bounds: Vec<u64>,
    /// Outbound packets staged until the cycle's merge point.
    pub outbox: PacketOutbox,
    /// Issue-path statistics, accumulated per shard and merged into the
    /// global [`SimStats`] in cluster-index order at the end of a run.
    pub stats: SimStats,
    /// Commit-interaction footprint of this cycle's pick candidates,
    /// rebuilt by [`prepare_views`](Self::prepare_views). The coordinator
    /// classifies clusters with it before the commit phase.
    pub footprint: CommitFootprint,
    /// Independent-commit job for this cycle, set by the coordinator for
    /// admitted clusters; a pool worker (or the coordinator at one
    /// thread) takes it and runs [`commit::commit_cluster`] inert.
    pub commit_job: Option<CommitParams>,
    /// Activity the independent commit produced, folded into the
    /// coordinator's totals in cluster-index order.
    pub commit_out: CommitOut,
    /// Whether any scheduler was non-parked during the last
    /// [`prepare_views`](Self::prepare_views): the commit-sharding
    /// classifier's activity test, computed here for free since prepare
    /// already evaluates exactly the parked condition per scheduler.
    /// Nothing between prepare and classification mutates warp liveness
    /// or lowers a bound to the current cycle, so the prepare-time value
    /// is the classification-time value.
    pub active: bool,
    /// Per-local-SM flag: a barrier release during commit mutated warps of
    /// other schedulers on that SM, so its remaining prebuilt views are
    /// stale and must be rebuilt serially.
    dirty: Vec<bool>,
    num_schedulers: usize,
}

impl ClusterShard {
    /// Wraps a cluster's SMs (each with `num_schedulers` schedulers).
    pub fn new(id: usize, sms: Vec<Sm>, num_schedulers: usize) -> Self {
        let rows = sms.len() * num_schedulers;
        Self {
            id,
            views: vec![Vec::new(); rows],
            view_bounds: vec![u64::MAX; rows],
            outbox: PacketOutbox::default(),
            stats: SimStats::default(),
            footprint: CommitFootprint::default(),
            commit_job: None,
            commit_out: CommitOut::default(),
            active: false,
            dirty: vec![false; sms.len()],
            num_schedulers,
            sms,
        }
    }

    /// Rebuilds every scheduler's warp views for `cycle` and clears the
    /// dirty flags. Pure cluster-local work, safe on any worker thread.
    ///
    /// With `use_ready_bound` (the event engine), schedulers whose cached
    /// [`ready_bound`](crate::sm::SchedulerCtx::ready_bound) lies past
    /// `cycle` are skipped: the bound invariant guarantees their
    /// `build_views` would return empty, which is exactly what the commit
    /// loop treats a skipped entry as.
    ///
    /// `hook_mask`/`admit` gate the footprint work: once the footprint is
    /// [`blocked`](CommitFootprint::blocked) under the model's mask (or
    /// from the start when `admit` is false — full tracing), further
    /// accumulation cannot change the commit classification, so it stops.
    /// A blocked cluster's partial footprint is never read beyond the
    /// `independent` test it already fails.
    #[allow(clippy::too_many_arguments)]
    pub fn prepare_views(
        &mut self,
        cycle: u64,
        det_aware: bool,
        srr_like: bool,
        use_ready_bound: bool,
        num_mem_partitions: usize,
        hook_mask: HookMask,
        admit: bool,
    ) {
        let Self {
            sms,
            views,
            view_bounds,
            footprint,
            active,
            dirty,
            num_schedulers,
            ..
        } = self;
        dirty.fill(false);
        *footprint = CommitFootprint::default();
        *active = false;
        let mut fp_live = admit;
        for (local, sm) in sms.iter().enumerate() {
            for sched in 0..*num_schedulers {
                let row = local * *num_schedulers + sched;
                let parked = sm.schedulers[sched].live == 0
                    || (use_ready_bound && sm.schedulers[sched].ready_bound > cycle);
                if parked {
                    views[row] = Vec::new();
                    view_bounds[row] = u64::MAX;
                } else {
                    *active = true;
                    let (v, bound) = sm.build_views(sched, cycle, det_aware, srr_like);
                    if fp_live {
                        for view in v.iter().filter(|view| view.ready) {
                            footprint.add_candidate(sm, view.slot, num_mem_partitions);
                            if footprint.blocked(hook_mask) {
                                fp_live = false;
                                break;
                            }
                        }
                    }
                    views[row] = v;
                    view_bounds[row] = bound;
                }
            }
        }
    }

    /// Marks local SM `local`'s remaining prebuilt views stale.
    pub fn mark_dirty(&mut self, local: usize) {
        self.dirty[local] = true;
    }

    /// Whether local SM `local`'s prebuilt views are stale.
    pub fn is_dirty(&self, local: usize) -> bool {
        self.dirty[local]
    }
}

/// A cluster-local phase of one simulated cycle.
#[derive(Debug, Clone, Copy)]
pub enum Phase {
    /// Prebuild warp views ([`ClusterShard::prepare_views`]).
    Views {
        /// Current simulated cycle.
        cycle: u64,
        /// Scheduler kind is determinism-aware (batch gating applies).
        det_aware: bool,
        /// Scheduler kind is SRR (gated batches may not issue at all).
        srr_like: bool,
        /// Event engine: skip schedulers whose ready bound lies past
        /// `cycle` instead of building (provably empty) views for them.
        use_ready_bound: bool,
        /// Partition interleave divisor for footprint accumulation.
        num_mem_partitions: usize,
        /// The model's commit-hook mask: footprint accumulation stops
        /// once the cluster is already blocked under it.
        hook_mask: HookMask,
        /// False when no cluster can be admitted this run (full tracing):
        /// skips footprint accumulation entirely.
        admit: bool,
    },
    /// Run the commit walk inert for shards whose `commit_job` is set
    /// (admitted independent clusters); a no-op for the rest.
    Commit,
}

struct PhaseJob {
    shard: ClusterShard,
    phase: Phase,
}

impl PhaseJob {
    fn execute(mut self) -> ClusterShard {
        match self.phase {
            Phase::Views {
                cycle,
                det_aware,
                srr_like,
                use_ready_bound,
                num_mem_partitions,
                hook_mask,
                admit,
            } => self.shard.prepare_views(
                cycle,
                det_aware,
                srr_like,
                use_ready_bound,
                num_mem_partitions,
                hook_mask,
                admit,
            ),
            Phase::Commit => {
                if let Some(p) = self.shard.commit_job.take() {
                    let mut sh = commit::Shared::Inert;
                    let mut out = CommitOut::default();
                    commit::commit_cluster(&mut self.shard, &p, &mut sh, &mut out);
                    self.shard.commit_out = out;
                }
            }
        }
        self.shard
    }
}

type PhaseResult = Result<ClusterShard, Box<dyn std::any::Any + Send>>;

/// A pool of scoped worker threads that run cluster-local phases.
///
/// Shards travel to workers *by ownership* (cluster `i` always goes to
/// worker `i % threads`) and come back over one shared channel; the engine
/// reassembles them by shard id, so the result is order-independent.
/// Dropping the pool closes the job channels, letting the workers exit
/// before their owning [`std::thread::scope`] joins them.
#[derive(Debug)]
pub struct WorkerPool {
    job_txs: Vec<mpsc::Sender<PhaseJob>>,
    done_rx: mpsc::Receiver<PhaseResult>,
}

impl std::fmt::Debug for PhaseJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PhaseJob(cluster {}, {:?})", self.shard.id, self.phase)
    }
}

impl WorkerPool {
    /// Spawns `threads` workers inside `scope`.
    pub fn start<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        threads: usize,
    ) -> WorkerPool {
        assert!(threads > 0, "a pool needs at least one worker");
        let (done_tx, done_rx) = mpsc::channel::<PhaseResult>();
        let job_txs = (0..threads)
            .map(|_| {
                let (tx, rx) = mpsc::channel::<PhaseJob>();
                let done = done_tx.clone();
                scope.spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // A panic in cluster-local work is forwarded to the
                        // coordinator (which re-raises it) instead of
                        // deadlocking the merge that waits for this shard.
                        let result = catch_unwind(AssertUnwindSafe(|| job.execute()));
                        if done.send(result).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        WorkerPool { job_txs, done_rx }
    }

    /// Runs `phase` over every shard in parallel and puts the shards back in
    /// cluster order. Blocks until all shards return.
    ///
    /// # Panics
    ///
    /// Re-raises any worker panic on the calling thread.
    pub fn run_phase(&self, clusters: &mut Vec<ClusterShard>, phase: Phase) {
        let n = clusters.len();
        let mut returned: Vec<Option<ClusterShard>> = (0..n).map(|_| None).collect();
        for shard in clusters.drain(..) {
            let worker = shard.id % self.job_txs.len();
            self.job_txs[worker]
                .send(PhaseJob { shard, phase })
                .expect("worker alive while pool held");
        }
        for _ in 0..n {
            match self.done_rx.recv().expect("worker alive while pool held") {
                Ok(shard) => {
                    let id = shard.id;
                    debug_assert!(returned[id].is_none(), "shard {id} returned twice");
                    returned[id] = Some(shard);
                }
                Err(payload) => resume_unwind(payload),
            }
        }
        clusters.extend(
            returned
                .into_iter()
                .map(|s| s.expect("every shard returned")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;
    use crate::mem::packet::{Payload, WarpRef};
    use crate::sched::SchedKind;

    #[test]
    fn parse_count_accepts_positive_integers() {
        assert_eq!(parse_count("DAB_JOBS", "1"), Ok(1));
        assert_eq!(parse_count("DAB_JOBS", "64"), Ok(64));
        assert_eq!(parse_count("DAB_JOBS", "  4\n"), Ok(4));
    }

    #[test]
    fn parse_count_rejects_zero_and_garbage() {
        for bad in ["0", "", "abc", "-2", "3.5", "0x8", "O8"] {
            let err = parse_count("DAB_SIM_THREADS", bad)
                .expect_err("must reject")
                .to_string();
            assert!(
                err.contains("DAB_SIM_THREADS") && err.contains("positive integer"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }

    #[test]
    fn count_error_reports_the_offending_value() {
        let err = parse_count("DAB_JOBS", "many").expect_err("must reject");
        assert!(err.to_string().contains("\"many\""));
    }

    fn load_pkt(flit_size: usize) -> Packet {
        Packet::new(
            0,
            Payload::LoadReq {
                sector_addr: 0x40,
                warp: WarpRef { sm: 0, slot: 0 },
            },
            flit_size,
        )
    }

    #[test]
    fn outbox_is_fifo_and_tracks_flits() {
        let mut outbox = PacketOutbox::default();
        assert!(outbox.is_empty());
        assert_eq!(outbox.flits(), 0);
        let a = load_pkt(40);
        let b = load_pkt(8);
        let (fa, fb) = (a.flits, b.flits);
        outbox.stage(a);
        outbox.stage(b);
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox.flits(), fa + fb);
        assert_eq!(outbox.pop().expect("first").flits, fa);
        assert_eq!(outbox.flits(), fb);
        assert_eq!(outbox.pop().expect("second").flits, fb);
        assert!(outbox.pop().is_none());
        assert!(outbox.is_empty());
    }

    fn shards(cfg: &GpuConfig) -> Vec<ClusterShard> {
        (0..cfg.num_clusters)
            .map(|c| {
                let sms = (0..cfg.sms_per_cluster)
                    .map(|i| Sm::new(c * cfg.sms_per_cluster + i, cfg, SchedKind::Gto))
                    .collect();
                ClusterShard::new(c, sms, cfg.num_schedulers_per_sm)
            })
            .collect()
    }

    #[test]
    fn pool_round_trips_shards_in_cluster_order() {
        let cfg = GpuConfig::small();
        let mut clusters = shards(&cfg);
        std::thread::scope(|scope| {
            let pool = WorkerPool::start(scope, 3);
            for _ in 0..4 {
                pool.run_phase(
                    &mut clusters,
                    Phase::Views {
                        cycle: 0,
                        det_aware: false,
                        srr_like: false,
                        use_ready_bound: false,
                        num_mem_partitions: 1,
                        hook_mask: HookMask::EMPTY,
                        admit: true,
                    },
                );
            }
        });
        assert_eq!(clusters.len(), cfg.num_clusters);
        for (i, shard) in clusters.iter().enumerate() {
            assert_eq!(shard.id, i, "shards must come back in cluster order");
            assert!(shard.views.iter().all(Vec::is_empty));
        }
    }

    #[test]
    fn pool_forwards_worker_panics() {
        let cfg = GpuConfig::tiny();
        let mut clusters = shards(&cfg);
        // Missing view rows make `prepare_views` panic on a worker.
        clusters[1].views.clear();
        let result = catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|scope| {
                let pool = WorkerPool::start(scope, 2);
                pool.run_phase(
                    &mut clusters,
                    Phase::Views {
                        cycle: 0,
                        det_aware: false,
                        srr_like: false,
                        use_ready_bound: false,
                        num_mem_partitions: 1,
                        hook_mask: HookMask::EMPTY,
                        admit: true,
                    },
                );
            });
        }));
        assert!(result.is_err(), "worker panic must reach the coordinator");
    }

    #[test]
    fn dirty_flags_cleared_by_prepare() {
        let cfg = GpuConfig::tiny();
        let mut shard = shards(&cfg).remove(0);
        shard.mark_dirty(0);
        assert!(shard.is_dirty(0));
        shard.prepare_views(0, false, false, false, 1, HookMask::EMPTY, true);
        assert!(!shard.is_dirty(0));
    }

    #[test]
    fn parse_engine_accepts_both_engines() {
        assert_eq!(parse_engine("dense"), Ok(EngineKind::Dense));
        assert_eq!(parse_engine(" event\n"), Ok(EngineKind::Event));
    }

    #[test]
    fn parse_engine_rejects_garbage() {
        for bad in ["", "Dense", "EVENT", "fast", "dense,event", "1"] {
            let err = parse_engine(bad).expect_err("must reject").to_string();
            assert!(
                err.contains("DAB_ENGINE") && err.contains("dense"),
                "unhelpful error for {bad:?}: {err}"
            );
        }
    }
}
