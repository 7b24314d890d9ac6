//! Deterministic observability for the DAB simulator.
//!
//! This crate is the leaf of the workspace dependency graph: it defines the
//! structured trace event taxonomy ([`Event`]), the time-series sample grid
//! ([`Sample`]), the trace container and its byte-stable text format
//! ([`Trace`]), the recording side ([`Tracer`]), the first-divergence
//! bisector ([`diff`]), the Chrome trace-event / Perfetto exporter
//! ([`perfetto`]), the metric namespace contract ([`metrics`]), the engine
//! span profiler ([`profile`]), the one reader of the `DAB_*` environment
//! knobs ([`env`](mod@env)), and the workspace's one JSON module
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
//! Every knob is read through [`env`](mod@env): unset means the
//! default, and a value the knob does not accept panics naming the
//! variable and the value.
//!
//! * `DAB_TRACE` — `off` (default) | `summary` | `full`.
//! * `DAB_TRACE_SAMPLE` — sampling grid interval in cycles (default 1024,
//!   must be a positive integer).
//! * `DAB_TRACE_DIR` — when set and not empty, bench runners write one
//!   `<label>.trace` file per run into this directory.
//! * `DAB_PROFILE` — `0` (default) | `1`: enable the engine span
//!   profiler. A throughput knob only — results are bit-identical either
//!   way; all profile data lives in the `wall.*` namespace.
//! * `DAB_RESULTS_DIR` — when set and not empty, every results document
//!   is written there instead of the repository's `results/`; see
//!   [`json::results_dir`].

pub mod diff;
pub mod env;
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
pub use profile::{Phase, PhaseProfile};
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
    /// Canonical lowercase token, from [`TRACE_MODES`].
    pub fn as_str(self) -> &'static str {
        TRACE_MODES[self as usize].0
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

/// Every trace mode, in declaration order, by the token `DAB_TRACE` and
/// the trace-file header spell it with.
pub const TRACE_MODES: [(&str, TraceMode); 3] = [
    ("off", TraceMode::Off),
    ("summary", TraceMode::Summary),
    ("full", TraceMode::Full),
];

/// Default sampling grid interval in cycles.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1024;

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a trace whose header carries `mode_line` and
    /// `interval_line`; `None` when the header is refused.
    fn parse_header(mode_line: &str, interval_line: &str) -> Option<Trace> {
        let text = Tracer::new(TraceMode::Summary, 16)
            .finish()
            .to_text()
            .replacen("mode summary\n", &format!("{mode_line}\n"), 1)
            .replacen("interval 16\n", &format!("{interval_line}\n"), 1);
        Trace::parse(&text).ok()
    }

    #[test]
    fn mode_parse_accepts_exact_tokens() {
        for (token, mode) in TRACE_MODES {
            let trace = parse_header(&format!("mode {token}"), "interval 16");
            assert_eq!(trace.map(|t| t.mode), Some(mode), "{token}");
            assert_eq!(mode.as_str(), token);
        }
    }

    #[test]
    fn mode_parse_rejects_garbage() {
        for bad in ["", "Full", "on", "1", "verbose"] {
            let trace = parse_header(&format!("mode {bad}"), "interval 16");
            assert!(trace.is_none(), "mode {bad:?} must be refused");
        }
    }

    #[test]
    fn sample_interval_rejects_zero_and_garbage() {
        let interval = |v: &str| parse_header("mode summary", &format!("interval {v}"));
        assert_eq!(interval("512").map(|t| t.sample_interval), Some(512));
        for bad in ["0", "many", "-3"] {
            assert!(interval(bad).is_none(), "interval {bad:?} must be refused");
        }
    }

    #[test]
    fn mode_ordering_gates_levels() {
        assert!(TraceMode::Off < TraceMode::Summary);
        assert!(TraceMode::Summary < TraceMode::Full);
        assert!(!TraceMode::Off.enabled());
        assert!(TraceMode::Summary.enabled());
    }
}
