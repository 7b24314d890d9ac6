//! The low-overhead span profiler: per-phase wall-clock aggregation over
//! the engine's real per-cycle phases.
//!
//! The engine times each phase of its cycle loop with a pair of
//! `Instant` reads and folds the elapsed time into a fixed-size
//! accumulator array — no allocation, no locking, no per-span records.
//! When profiling is off (`DAB_PROFILE` unset) the engine holds no
//! profiler at all and takes none of the `Instant` reads, so the off
//! cost is a handful of pointer null-checks per cycle: not measurable.
//! When on, the cost is ~2 clock reads per instrumented phase on each
//! sampled step (one visited cycle in 16). The repository benchmark's
//! traced pass reports what that costs end to end as `trace.overhead`
//! (`crates/bench/examples/dab_benchmark/README.md`).
//!
//! All profile data lives in the `wall.*` namespace
//! ([`Phase::metric_name`]) and is excluded from every determinism
//! surface; enabling the profiler must not change cycles or digests
//! (asserted by `metrics_determinism.rs`).
//!
//! Aggregates export as collapsed-stack text ([`PhaseProfile::to_collapsed`],
//! one `path value_us` line per phase — feed it to any flamegraph
//! renderer) and as counter tracks in the Perfetto export
//! (`perfetto::to_chrome_json_with_profile`).

use std::fmt::Write as _;
use std::time::Duration;

/// One instrumented engine phase. The set is closed and array-indexed so
/// recording a span is two loads and two adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Due time-series sample rows (`emit_due_samples`).
    TraceSamples,
    /// Memory partition ticks (L2, ROP, DRAM).
    Partitions,
    /// Interconnect tick (arbitration, transit).
    Icnt,
    /// Response ejection and delivery to clusters.
    Responses,
    /// Ticket-lock service.
    Locks,
    /// Never recorded: warp views are now built inside the issue walk
    /// (`CommitSerial`). Kept so profile readers that name it still
    /// build; its total stays zero.
    Prepare,
    /// Never recorded: commit-sharding classification was retired. Kept
    /// so profile readers that name it still build; its total stays zero.
    CommitClassify,
    /// Never recorded: independence-sharded commits were retired. Kept
    /// so profile readers that name it still build; its total stays zero.
    CommitParallel,
    /// The issue walk: every SM and scheduler in global order, warp-view
    /// construction and request injection included.
    CommitSerial,
    /// Never recorded: requests now enter the interconnect as they issue
    /// (`CommitSerial`). Kept so profile readers that name it still
    /// build; its total stays zero.
    Merge,
    /// CTA dispatch.
    Dispatch,
    /// Execution-model tick (flush controllers, quantum machines).
    ModelTick,
    /// Deferred model wake application.
    Wakes,
    /// Cycle advance: event-wheel / fast-forward target computation.
    Wheel,
    /// End-of-run trace finalization.
    TraceFinish,
}

/// Number of [`Phase`] variants (accumulator array size).
pub const PHASE_COUNT: usize = 15;

/// Every phase, in fixed reporting order.
pub const ALL_PHASES: [Phase; PHASE_COUNT] = [
    Phase::TraceSamples,
    Phase::Partitions,
    Phase::Icnt,
    Phase::Responses,
    Phase::Locks,
    Phase::Prepare,
    Phase::CommitClassify,
    Phase::CommitParallel,
    Phase::CommitSerial,
    Phase::Merge,
    Phase::Dispatch,
    Phase::ModelTick,
    Phase::Wakes,
    Phase::Wheel,
    Phase::TraceFinish,
];

impl Phase {
    /// Collapsed-stack path for this phase, semicolon-separated from the
    /// `engine` root frame (flamegraph convention).
    pub fn path(self) -> &'static str {
        match self {
            Phase::TraceSamples => "engine;trace;samples",
            Phase::Partitions => "engine;mem;partitions",
            Phase::Icnt => "engine;mem;icnt",
            Phase::Responses => "engine;mem;responses",
            Phase::Locks => "engine;locks",
            Phase::Prepare => "engine;issue;prepare",
            Phase::CommitClassify => "engine;issue;commit;classify",
            Phase::CommitParallel => "engine;issue;commit;parallel",
            Phase::CommitSerial => "engine;issue;commit;serial",
            Phase::Merge => "engine;merge",
            Phase::Dispatch => "engine;dispatch",
            Phase::ModelTick => "engine;model;tick",
            Phase::Wakes => "engine;model;wakes",
            Phase::Wheel => "engine;wheel",
            Phase::TraceFinish => "engine;trace;finish",
        }
    }

    /// The phase's `wall.*` metric name (namespace contract of
    /// [`crate::metrics`]).
    pub fn metric_name(self) -> &'static str {
        match self {
            Phase::TraceSamples => "wall.profile.trace_samples",
            Phase::Partitions => "wall.profile.mem_partitions",
            Phase::Icnt => "wall.profile.mem_icnt",
            Phase::Responses => "wall.profile.mem_responses",
            Phase::Locks => "wall.profile.locks",
            Phase::Prepare => "wall.profile.issue_prepare",
            Phase::CommitClassify => "wall.profile.commit_classify",
            Phase::CommitParallel => "wall.profile.commit_parallel",
            Phase::CommitSerial => "wall.profile.commit_serial",
            Phase::Merge => "wall.profile.merge",
            Phase::Dispatch => "wall.profile.dispatch",
            Phase::ModelTick => "wall.profile.model_tick",
            Phase::Wakes => "wall.profile.model_wakes",
            Phase::Wheel => "wall.profile.wheel",
            Phase::TraceFinish => "wall.profile.trace_finish",
        }
    }
}

/// Per-run span aggregate: total wall time and span count per [`Phase`].
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    totals: [Duration; PHASE_COUNT],
    counts: [u64; PHASE_COUNT],
}

impl PhaseProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed span into the aggregate.
    #[inline]
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        let i = phase as usize;
        self.totals[i] += elapsed;
        self.counts[i] += 1;
    }

    /// Total wall time spent in a phase.
    pub fn total(&self, phase: Phase) -> Duration {
        self.totals[phase as usize]
    }

    /// Number of spans recorded for a phase.
    pub fn count(&self, phase: Phase) -> u64 {
        self.counts[phase as usize]
    }

    /// Sum over all phases.
    pub fn grand_total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Adds another profile into this one (e.g. summing workloads).
    pub fn merge(&mut self, other: &PhaseProfile) {
        for i in 0..PHASE_COUNT {
            self.totals[i] += other.totals[i];
            self.counts[i] += other.counts[i];
        }
    }

    /// Collapsed-stack text: one `prefix;path value_us` line per phase
    /// with at least one recorded span, in fixed phase order. An empty
    /// `prefix` yields bare `engine;...` paths; a non-empty prefix (e.g.
    /// a workload name) becomes the root frame.
    pub fn to_collapsed(&self, prefix: &str) -> String {
        let mut out = String::new();
        for &p in &ALL_PHASES {
            if self.count(p) == 0 {
                continue;
            }
            let us = self.total(p).as_micros();
            if prefix.is_empty() {
                writeln!(out, "{} {us}", p.path()).expect("writing to a String cannot fail");
            } else {
                writeln!(out, "{prefix};{} {us}", p.path())
                    .expect("writing to a String cannot fail");
            }
        }
        out
    }

    /// `(metric_name, total_us, count)` rows for every recorded phase,
    /// for table rendering and counter-track export.
    pub fn rows(&self) -> Vec<(&'static str, u64, u64)> {
        ALL_PHASES
            .iter()
            .filter(|&&p| self.count(p) > 0)
            .map(|&p| {
                (
                    p.metric_name(),
                    self.total(p).as_micros() as u64,
                    self.count(p),
                )
            })
            .collect()
    }
}

/// Parses collapsed-stack text (as written by
/// [`PhaseProfile::to_collapsed`] or concatenations of it) into
/// `(path, value_us)` pairs, preserving line order.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_collapsed(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (path, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: expected \"path value_us\", got {line:?}", i + 1))?;
        let value = value
            .parse::<u64>()
            .map_err(|_| format!("line {}: bad span value in {line:?}", i + 1))?;
        out.push((path.to_string(), value));
    }
    Ok(out)
}

/// Environment variable enabling the span profiler.
pub const PROFILE_VAR: &str = "DAB_PROFILE";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_phases_covers_every_variant() {
        assert_eq!(ALL_PHASES.len(), PHASE_COUNT);
        for (i, &p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(p as usize, i, "ALL_PHASES must be in discriminant order");
        }
    }

    #[test]
    fn phase_metric_names_are_wall_class() {
        for &p in &ALL_PHASES {
            assert_eq!(
                crate::metrics::validate_name(p.metric_name()),
                Ok(crate::metrics::MetricClass::Wall),
                "{}",
                p.metric_name()
            );
        }
    }

    #[test]
    fn record_and_report() {
        let mut prof = PhaseProfile::new();
        prof.record(Phase::Prepare, Duration::from_micros(30));
        prof.record(Phase::Prepare, Duration::from_micros(12));
        prof.record(Phase::CommitSerial, Duration::from_micros(100));
        assert_eq!(prof.count(Phase::Prepare), 2);
        assert_eq!(prof.total(Phase::Prepare), Duration::from_micros(42));
        assert_eq!(prof.grand_total(), Duration::from_micros(142));
        let rows = prof.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], ("wall.profile.issue_prepare", 42, 2));
    }

    #[test]
    fn collapsed_roundtrips() {
        let mut prof = PhaseProfile::new();
        prof.record(Phase::Merge, Duration::from_micros(7));
        prof.record(Phase::Wheel, Duration::from_micros(3));
        let text = prof.to_collapsed("atomic_sum");
        assert!(text.contains("atomic_sum;engine;merge 7\n"));
        assert!(text.contains("atomic_sum;engine;wheel 3\n"));
        let pairs = parse_collapsed(&text).unwrap();
        assert_eq!(
            pairs,
            vec![
                ("atomic_sum;engine;merge".to_string(), 7),
                ("atomic_sum;engine;wheel".to_string(), 3),
            ]
        );
        // Bare prefix omits the leading separator.
        let bare = prof.to_collapsed("");
        assert!(bare.starts_with("engine;merge 7\n"));
    }

    #[test]
    fn collapsed_rejects_garbage() {
        assert!(parse_collapsed("engine;merge\n").is_err());
        assert!(parse_collapsed("engine;merge seven\n").is_err());
        assert_eq!(parse_collapsed("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn merge_sums() {
        let mut a = PhaseProfile::new();
        a.record(Phase::Icnt, Duration::from_micros(5));
        let mut b = PhaseProfile::new();
        b.record(Phase::Icnt, Duration::from_micros(6));
        b.record(Phase::Dispatch, Duration::from_micros(1));
        a.merge(&b);
        assert_eq!(a.total(Phase::Icnt), Duration::from_micros(11));
        assert_eq!(a.count(Phase::Icnt), 2);
        assert_eq!(a.count(Phase::Dispatch), 1);
    }
}
