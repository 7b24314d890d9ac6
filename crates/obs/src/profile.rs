//! The low-overhead span profiler: per-phase wall-clock aggregation over
//! the engine's real per-cycle phases.
//!
//! The engine times each phase of its cycle loop with a pair of
//! `Instant` reads and folds the elapsed time into a fixed-size
//! accumulator array — no allocation, no locking, no per-span records.
//! When profiling is off (`GpuConfig::profile` false, the default) the
//! engine holds no profiler at all and takes none of the `Instant` reads,
//! so the off cost is a handful of pointer null-checks per cycle: not
//! measurable. When on, the cost is ~2 clock reads per instrumented phase
//! on each sampled step (one visited cycle in 16). The repository
//! benchmark's traced pass turns it on, reads each phase's
//! [`PhaseProfile::total`] and reports what profiling costs end to end as
//! `trace.overhead` (`crates/bench/examples/dab_benchmark/README.md`).
//!
//! Profile data is host wall-clock time, excluded from every determinism
//! surface; enabling the profiler must not change cycles or digests
//! (asserted by `metrics_determinism.rs`).
//!
//! The benchmark writes its spans as collapsed-stack text (`trace.folded`,
//! one `path value_us` line per span); [`parse_collapsed`] reads it back
//! for the Perfetto export (`perfetto::to_chrome_json_with_profile`).

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

/// Per-run span aggregate: total wall time per [`Phase`].
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    totals: [Duration; PHASE_COUNT],
}

impl PhaseProfile {
    /// A zeroed profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one completed span into the aggregate.
    #[inline]
    pub fn record(&mut self, phase: Phase, elapsed: Duration) {
        self.totals[phase as usize] += elapsed;
    }

    /// Total wall time spent in a phase.
    pub fn total(&self, phase: Phase) -> Duration {
        self.totals[phase as usize]
    }
}

/// Parses collapsed-stack text (one `path value_us` line per span, as the
/// benchmark's `trace.folded`) into `(path, value_us)` pairs, preserving
/// line order.
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
    fn record_and_report() {
        let mut prof = PhaseProfile::new();
        prof.record(Phase::CommitSerial, Duration::from_micros(30));
        prof.record(Phase::CommitSerial, Duration::from_micros(12));
        prof.record(Phase::Wheel, Duration::from_micros(100));
        assert_eq!(prof.total(Phase::CommitSerial), Duration::from_micros(42));
        assert_eq!(prof.total(Phase::Wheel), Duration::from_micros(100));
        assert_eq!(prof.total(Phase::Merge), Duration::ZERO);
    }

    #[test]
    fn collapsed_roundtrips() {
        let text = "atomic_sum;engine;merge 7\natomic_sum;engine;wheel 3\n";
        let pairs = parse_collapsed(text).unwrap();
        assert_eq!(
            pairs,
            vec![
                ("atomic_sum;engine;merge".to_string(), 7),
                ("atomic_sum;engine;wheel".to_string(), 3),
            ]
        );
        let back: String = pairs.iter().map(|(p, v)| format!("{p} {v}\n")).collect();
        assert_eq!(back, text);
    }

    #[test]
    fn collapsed_rejects_garbage() {
        assert!(parse_collapsed("engine;merge\n").is_err());
        assert!(parse_collapsed("engine;merge seven\n").is_err());
        assert_eq!(parse_collapsed("\n\n").unwrap(), vec![]);
    }
}
