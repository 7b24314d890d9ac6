//! Deterministic observability for the DAB simulator.
//!
//! This crate is the leaf of the workspace dependency graph: it defines the
//! structured trace event taxonomy ([`Event`]), the time-series sample grid
//! ([`Sample`]), the trace container and its byte-stable text format
//! ([`Trace`]), the recording side ([`Tracer`]), the first-divergence
//! bisector ([`diff`]), the Chrome trace-event / Perfetto exporter
//! ([`perfetto`]), the metric namespace contract ([`metrics`]), the engine
//! span profiler ([`profile`]), and the workspace's one JSON module
//! ([`json`]): the ordered value type, its parser, the compact and
//! pretty renderers, and the results-document writer that every results
//! file (figures, analyzer and explorer reports) goes through. The simulator crates (`gpu-sim`, `dab`, `gpudet`,
//! `bench`) and the tools (`analysis`, `dab-explore`, `dab-perf`) depend
//! on it; the `dab-trace` binary ships from here.
//!
//! # Determinism contract
//!
//! Every event in the `[arch]` section and every row of the `[samples]`
//! section is recorded **in commit order**, so a trace of a given run is
//! byte-identical for the dense and event engines alike. Engine-variant data (cycle-skip
//! spans) lives in the separate `[engine]` section, mirroring the
//! `det.engine.*` statistics counters that the equivalence jobs strip: the
//! bisector compares `[arch]` + `[samples]` by default and touches
//! `[engine]` only on request.
//!
//! # Environment knobs
//!
//! * `DAB_TRACE` — `off` (default) | `summary` | `full`. Parsed strictly:
//!   anything else panics naming the variable, like `DAB_ENGINE`.
//! * `DAB_TRACE_SAMPLE` — sampling grid interval in cycles (default 1024,
//!   must be a positive integer).
//! * `DAB_TRACE_DIR` — when set, bench runners write one `<label>.trace`
//!   file per run into this directory.
//! * `DAB_PROFILE` — `0` (default) | `1`: enable the engine span
//!   profiler. A throughput knob only — results are bit-identical either
//!   way; all profile data lives in the `wall.*` namespace.
//! * `DAB_RESULTS_DIR` — when set, every results document is written
//!   there instead of the repository's `results/`; see
//!   [`json::results_dir`].

pub mod diff;
pub mod event;
pub mod filter;
pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod trace;

pub use event::{
    DetMode, Event, FlushPhase, InstrKind, PacketKind, Sample, SkipSpan, SleepReason, WakeSite,
};
pub use filter::TraceFilter;
pub use metrics::{HistSpec, MetricClass};
pub use profile::{profile_from_env, Phase, PhaseProfile};
pub use trace::{ParseError, Trace, Tracer};

use std::fmt;

/// Environment variable selecting the trace mode.
pub const TRACE_VAR: &str = "DAB_TRACE";
/// Environment variable overriding the sampling grid interval.
pub const SAMPLE_VAR: &str = "DAB_TRACE_SAMPLE";
/// Environment variable naming a directory for per-run trace files.
pub const TRACE_DIR_VAR: &str = "DAB_TRACE_DIR";

/// How much the simulator records. Ordered: `Off < Summary < Full`; an
/// event is kept when the mode is at least the event's
/// [`Event::level`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TraceMode {
    /// No tracer is constructed at all — the fast path.
    #[default]
    Off,
    /// Rare, high-signal events only: lock grants, flush phases, GPUDet
    /// mode transitions, plus the sample grid.
    Summary,
    /// Everything: per-instruction issue, sleep/wake, interconnect and
    /// partition traffic, DRAM access deltas, buffer fills.
    Full,
}

impl TraceMode {
    /// Canonical lowercase token, as accepted by [`parse_trace_mode`].
    pub fn as_str(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Summary => "summary",
            TraceMode::Full => "full",
        }
    }

    /// True when any recording happens at all.
    pub fn enabled(self) -> bool {
        self != TraceMode::Off
    }
}

impl fmt::Display for TraceMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a `DAB_TRACE` value was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceModeError {
    message: String,
}

impl fmt::Display for TraceModeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for TraceModeError {}

/// Strictly parses a `DAB_TRACE` value. Only (whitespace-trimmed) `off`,
/// `summary`, and `full` are accepted; anything else is an error naming
/// the variable, mirroring `par::parse_count`.
pub fn parse_trace_mode(raw: &str) -> Result<TraceMode, TraceModeError> {
    match raw.trim() {
        "off" => Ok(TraceMode::Off),
        "summary" => Ok(TraceMode::Summary),
        "full" => Ok(TraceMode::Full),
        other => Err(TraceModeError {
            message: format!(
                "{TRACE_VAR} must be \"off\", \"summary\", or \"full\", got {other:?}; \
                 unset it to use the default"
            ),
        }),
    }
}

/// Reads `DAB_TRACE` from the environment. Absent means [`TraceMode::Off`];
/// present-but-invalid panics loudly rather than silently tracing the wrong
/// amount.
pub fn trace_mode_from_env() -> TraceMode {
    match std::env::var(TRACE_VAR) {
        Ok(raw) => match parse_trace_mode(&raw) {
            Ok(mode) => mode,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => TraceMode::Off,
        Err(e) => panic!("{TRACE_VAR} is not valid unicode: {e}"),
    }
}

/// Default sampling grid interval in cycles.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1024;

/// Why a `DAB_TRACE_SAMPLE` value was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleIntervalError {
    message: String,
}

impl fmt::Display for SampleIntervalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for SampleIntervalError {}

/// Strictly parses a `DAB_TRACE_SAMPLE` value: a positive integer number
/// of cycles between sample-grid points.
pub fn parse_sample_interval(raw: &str) -> Result<u64, SampleIntervalError> {
    let trimmed = raw.trim();
    match trimmed.parse::<u64>() {
        Ok(0) => Err(SampleIntervalError {
            message: format!(
                "{SAMPLE_VAR} is 0, but a zero-cycle sampling grid is meaningless; \
                 unset it to use the default of {DEFAULT_SAMPLE_INTERVAL}"
            ),
        }),
        Ok(n) => Ok(n),
        Err(_) => Err(SampleIntervalError {
            message: format!(
                "{SAMPLE_VAR} is {trimmed:?}, not an unsigned integer; \
                 unset it to use the default of {DEFAULT_SAMPLE_INTERVAL}"
            ),
        }),
    }
}

/// Reads `DAB_TRACE_SAMPLE` from the environment. Absent means
/// [`DEFAULT_SAMPLE_INTERVAL`]; present-but-invalid panics loudly.
pub fn sample_interval_from_env() -> u64 {
    match std::env::var(SAMPLE_VAR) {
        Ok(raw) => match parse_sample_interval(&raw) {
            Ok(n) => n,
            Err(e) => panic!("{e}"),
        },
        Err(std::env::VarError::NotPresent) => DEFAULT_SAMPLE_INTERVAL,
        Err(e) => panic!("{SAMPLE_VAR} is not valid unicode: {e}"),
    }
}

/// Reads `DAB_TRACE_DIR`: the directory bench runners write per-run
/// `.trace` files into, or `None` when unset.
pub fn trace_dir_from_env() -> Option<std::path::PathBuf> {
    match std::env::var(TRACE_DIR_VAR) {
        Ok(raw) if raw.trim().is_empty() => None,
        Ok(raw) => Some(std::path::PathBuf::from(raw)),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{TRACE_DIR_VAR} is not valid unicode: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parse_accepts_exact_tokens() {
        assert_eq!(parse_trace_mode("off"), Ok(TraceMode::Off));
        assert_eq!(parse_trace_mode(" summary "), Ok(TraceMode::Summary));
        assert_eq!(parse_trace_mode("full"), Ok(TraceMode::Full));
    }

    #[test]
    fn mode_parse_rejects_garbage() {
        for bad in ["", "Full", "on", "1", "verbose"] {
            let err = parse_trace_mode(bad).unwrap_err();
            assert!(err.to_string().contains(TRACE_VAR), "{err}");
        }
    }

    #[test]
    fn mode_ordering_gates_levels() {
        assert!(TraceMode::Off < TraceMode::Summary);
        assert!(TraceMode::Summary < TraceMode::Full);
        assert!(!TraceMode::Off.enabled());
        assert!(TraceMode::Summary.enabled());
    }

    #[test]
    fn sample_interval_rejects_zero_and_garbage() {
        assert_eq!(parse_sample_interval("512"), Ok(512));
        assert!(parse_sample_interval("0").is_err());
        assert!(parse_sample_interval("many").is_err());
        assert!(parse_sample_interval("-3").is_err());
    }
}
