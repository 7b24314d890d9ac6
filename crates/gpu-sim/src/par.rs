//! Cluster shards, the per-cluster packet outbox, and the strict parsing
//! of the simulator's environment knobs.
//!
//! One simulation is split by *compute cluster*: each [`ClusterShard`]
//! owns a cluster's SMs plus everything those SMs produce ahead of the
//! globally-ordered part of a cycle — prebuilt warp views, locally-staged
//! outbound packets ([`PacketOutbox`]), and an issue statistics
//! accumulator. Each cycle the engine prepares every shard's views, then
//! *commits* — issues instructions, consults the execution model — cluster
//! by cluster in index order, and finally drains every outbox into the
//! interconnect in the same order (see DESIGN.md, "The issue cycle").
//!
//! The module also owns the strict parsing of the `DAB_JOBS` worker-count
//! environment variable and of the `DAB_ENGINE` cycle-loop selector: an
//! unparseable value is an operator error and is rejected loudly instead
//! of silently falling back to a default. The retired knobs
//! (`DAB_SIM_THREADS`, `DAB_COMMIT_SHARD`, `DAB_REPLICATIONS`) accept only
//! their one remaining value, so a stale setting stops the run.

use std::collections::VecDeque;

use crate::config::EngineKind;
use crate::mem::packet::Packet;
use crate::sched::WarpView;
use crate::sm::Sm;
use crate::stats::SimStats;

/// Retired environment variable that used to select worker threads
/// *inside* one simulation; every simulation now runs one serial issue
/// path (see [`sim_threads_from_env`]).
pub const SIM_THREADS_VAR: &str = "DAB_SIM_THREADS";

/// Environment variable selecting the cycle-loop implementation
/// (`dense` or `event`; see [`EngineKind`]).
pub const ENGINE_VAR: &str = "DAB_ENGINE";

/// Retired environment variable that used to select a replication-lane
/// count for batched seed sweeps; every sweep job now runs its own solo
/// pass (see [`replications_from_env`]).
pub const REPLICATIONS_VAR: &str = "DAB_REPLICATIONS";

/// Retired environment variable that used to switch independence-sharded
/// commits off; every cluster now commits in cluster order (see
/// [`commit_shard_from_env`]).
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

/// Reads the retired `DAB_SIM_THREADS` knob: absent or `1` means `1`, the
/// only thread count left (every simulation runs one serial issue path).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_SIM_THREADS=4` stops the run instead of being silently ignored.
pub fn sim_threads_from_env() -> usize {
    match std::env::var(SIM_THREADS_VAR) {
        Ok(raw) if raw.trim() == "1" => 1,
        Ok(raw) => panic!(
            "{SIM_THREADS_VAR} is retired (intra-simulation threads were removed; \
             every simulation runs one serial issue path), got {raw:?}; unset it"
        ),
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

/// Reads the retired `DAB_COMMIT_SHARD` knob: absent or `1` means `true`,
/// the only setting left (every cluster commits in cluster order).
///
/// # Panics
///
/// Panics naming the variable as retired on any other value, so a stale
/// `DAB_COMMIT_SHARD=0` stops the run instead of being silently ignored.
pub fn commit_shard_from_env() -> bool {
    match std::env::var(COMMIT_SHARD_VAR) {
        Ok(raw) if raw.trim() == "1" => true,
        Ok(raw) => panic!(
            "{COMMIT_SHARD_VAR} is retired (commit sharding was removed; every \
             cluster commits in cluster order), got {raw:?}; unset it"
        ),
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
/// every admission check), so staging never admits traffic that direct
/// injection would have refused — per-cluster packet order and admission
/// decisions are the same either way.
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
/// prepare phase produces for the commit walk.
#[derive(Debug)]
pub struct ClusterShard {
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
    /// Per-local-SM flag: a barrier release during commit mutated warps of
    /// other schedulers on that SM, so its remaining prebuilt views are
    /// stale and must be rebuilt before use.
    dirty: Vec<bool>,
    num_schedulers: usize,
}

impl ClusterShard {
    /// Wraps a cluster's SMs (each with `num_schedulers` schedulers).
    pub fn new(sms: Vec<Sm>, num_schedulers: usize) -> Self {
        let rows = sms.len() * num_schedulers;
        Self {
            views: vec![Vec::new(); rows],
            view_bounds: vec![u64::MAX; rows],
            outbox: PacketOutbox::default(),
            stats: SimStats::default(),
            dirty: vec![false; sms.len()],
            num_schedulers,
            sms,
        }
    }

    /// Rebuilds every scheduler's warp views for `cycle` and clears the
    /// dirty flags.
    ///
    /// With `use_ready_bound` (the event engine), schedulers whose cached
    /// [`ready_bound`](crate::sm::SchedulerCtx::ready_bound) lies past
    /// `cycle` are skipped: the bound invariant guarantees their
    /// `build_views` would offer no warp the model admits, so the commit
    /// loop treats a skipped entry as empty.
    pub fn prepare_views(
        &mut self,
        cycle: u64,
        det_aware: bool,
        srr_like: bool,
        use_ready_bound: bool,
    ) {
        let Self {
            sms,
            views,
            view_bounds,
            dirty,
            num_schedulers,
            ..
        } = self;
        dirty.fill(false);
        for (local, sm) in sms.iter().enumerate() {
            for sched in 0..*num_schedulers {
                let row = local * *num_schedulers + sched;
                let parked = sm.schedulers[sched].live == 0
                    || (use_ready_bound && sm.schedulers[sched].ready_bound > cycle);
                if parked {
                    views[row] = Vec::new();
                    view_bounds[row] = u64::MAX;
                } else {
                    let (v, bound) = sm.build_views(sched, cycle, det_aware, srr_like);
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
            let err = parse_count("DAB_JOBS", bad)
                .expect_err("must reject")
                .to_string();
            assert!(
                err.contains("DAB_JOBS") && err.contains("positive integer"),
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

    #[test]
    fn dirty_flags_cleared_by_prepare() {
        let cfg = GpuConfig::tiny();
        let sms = (0..cfg.sms_per_cluster)
            .map(|i| Sm::new(i, &cfg, SchedKind::Gto))
            .collect();
        let mut shard = ClusterShard::new(sms, cfg.num_schedulers_per_sm);
        shard.mark_dirty(0);
        assert!(shard.is_dirty(0));
        shard.prepare_views(0, false, false, false);
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
