//! The trace container, its byte-stable text format, and the recording
//! side used by the simulator engine.
//!
//! # Text format
//!
//! ```text
//! DABTRACE 1
//! mode full
//! interval 1024
//! arch <count>
//! I <cycle> <sm> <sched> <slot> <unique> <pc> <kind>
//! ...
//! samples <count>
//! S <cycle> <ready> <buffered> <icnt> <rop> <n> [per-sm...]
//! ...
//! engine <count>
//! K <from> <to>
//! ...
//! end
//! ```
//!
//! Section counts make truncation detectable; the `end` sentinel makes it
//! certain. The `[arch]` and `[samples]` sections are engine-invariant;
//! `[engine]` (cycle-skip spans) is deterministic for a fixed engine
//! only.

use crate::event::{Event, Sample, SkipSpan};
use crate::TraceMode;
use std::fmt;

/// Current trace format version, bumped on any line-format change.
pub const FORMAT_VERSION: u32 = 1;

/// A completed run's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Mode the trace was recorded at (affects which events are present).
    pub mode: TraceMode,
    /// Sampling grid interval in cycles.
    pub sample_interval: u64,
    /// Architectural events in commit order.
    pub arch: Vec<Event>,
    /// Sample-grid rows in cycle order.
    pub samples: Vec<Sample>,
    /// Engine cycle-skip spans (engine-variant by design).
    pub skips: Vec<SkipSpan>,
}

impl Trace {
    /// Serializes the whole trace to its canonical text form. Two runs
    /// that behaved identically produce byte-identical output.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        use fmt::Write;
        writeln!(out, "DABTRACE {FORMAT_VERSION}").unwrap();
        writeln!(out, "mode {}", self.mode).unwrap();
        writeln!(out, "interval {}", self.sample_interval).unwrap();
        writeln!(out, "arch {}", self.arch.len()).unwrap();
        for ev in &self.arch {
            ev.write_line(&mut out);
            out.push('\n');
        }
        writeln!(out, "samples {}", self.samples.len()).unwrap();
        for s in &self.samples {
            s.write_line(&mut out);
            out.push('\n');
        }
        writeln!(out, "engine {}", self.skips.len()).unwrap();
        for k in &self.skips {
            k.write_line(&mut out);
            out.push('\n');
        }
        out.push_str("end\n");
        out
    }

    /// Parses a trace from its text form, with 1-based line numbers in
    /// errors.
    pub fn parse(text: &str) -> Result<Trace, ParseError> {
        let mut lines = text.lines().enumerate();
        let mut next = |what: &str| -> Result<(usize, &str), ParseError> {
            lines
                .next()
                .map(|(i, l)| (i + 1, l))
                .ok_or_else(|| ParseError {
                    line: 0,
                    message: format!("unexpected end of trace, wanted {what}"),
                })
        };

        let (ln, magic) = next("magic header")?;
        let version = magic
            .strip_prefix("DABTRACE ")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| ParseError::at(ln, "not a DABTRACE file"))?;
        if version != FORMAT_VERSION {
            return Err(ParseError::at(
                ln,
                format!("unsupported trace version {version}, this build reads {FORMAT_VERSION}"),
            ));
        }

        let (ln, mode_line) = next("mode line")?;
        let mode = mode_line
            .strip_prefix("mode ")
            .and_then(|m| {
                crate::TRACE_MODES
                    .iter()
                    .find(|(token, _)| *token == m.trim())
            })
            .map(|&(_, mode)| mode)
            .ok_or_else(|| ParseError::at(ln, "bad mode line"))?;

        let (ln, interval_line) = next("interval line")?;
        let sample_interval = interval_line
            .strip_prefix("interval ")
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&v| v > 0)
            .ok_or_else(|| ParseError::at(ln, "bad interval line"))?;

        fn section_count((ln, line): (usize, &str), name: &str) -> Result<usize, ParseError> {
            line.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.parse::<usize>().ok())
                .ok_or_else(|| ParseError::at(ln, format!("bad {name:?} section header")))
        }

        let n_arch = section_count(next("arch section")?, "arch")?;
        let mut arch = Vec::with_capacity(n_arch);
        for _ in 0..n_arch {
            let (ln, line) = next("arch event")?;
            arch.push(Event::parse_line(line).map_err(|m| ParseError::at(ln, m))?);
        }

        let n_samples = section_count(next("samples section")?, "samples")?;
        let mut samples = Vec::with_capacity(n_samples);
        for _ in 0..n_samples {
            let (ln, line) = next("sample row")?;
            samples.push(Sample::parse_line(line).map_err(|m| ParseError::at(ln, m))?);
        }

        let n_skips = section_count(next("engine section")?, "engine")?;
        let mut skips = Vec::with_capacity(n_skips);
        for _ in 0..n_skips {
            let (ln, line) = next("skip span")?;
            skips.push(SkipSpan::parse_line(line).map_err(|m| ParseError::at(ln, m))?);
        }

        let (ln, sentinel) = next("end sentinel")?;
        if sentinel != "end" {
            return Err(ParseError::at(
                ln,
                "missing end sentinel (truncated trace?)",
            ));
        }

        Ok(Trace {
            mode,
            sample_interval,
            arch,
            samples,
            skips,
        })
    }
}

/// A trace text-format parse failure, with its 1-based line number (0 for
/// unexpected end of input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl ParseError {
    fn at(line: usize, message: impl Into<String>) -> ParseError {
        ParseError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.message)
        } else {
            write!(f, "line {}: {}", self.line, self.message)
        }
    }
}

impl std::error::Error for ParseError {}

/// The recording side, owned by the simulator while a run is live.
///
/// Only constructed when `DAB_TRACE` is not `off`; the engine holds an
/// `Option<Box<Tracer>>`, so the off-mode fast path is a single pointer
/// null-check per site. [`Tracer::record`] filters by [`Event::level`],
/// so callers may offer events unconditionally.
#[derive(Debug)]
pub struct Tracer {
    mode: TraceMode,
    sample_interval: u64,
    next_sample: u64,
    arch: Vec<Event>,
    samples: Vec<Sample>,
    skips: Vec<SkipSpan>,
}

impl Tracer {
    /// Creates a tracer. `mode` must be enabled and `sample_interval`
    /// positive — off-mode runs must not construct a tracer at all.
    pub fn new(mode: TraceMode, sample_interval: u64) -> Tracer {
        assert!(mode.enabled(), "Tracer::new called with TraceMode::Off");
        assert!(sample_interval > 0, "sample interval must be positive");
        Tracer {
            mode,
            sample_interval,
            next_sample: 0,
            arch: Vec::new(),
            samples: Vec::new(),
            skips: Vec::new(),
        }
    }

    /// The mode this tracer records at.
    pub fn mode(&self) -> TraceMode {
        self.mode
    }

    /// True when per-cycle detail events (issue, sleep/wake, traffic) are
    /// kept; callers use this to skip building event payloads in summary
    /// mode.
    pub fn is_full(&self) -> bool {
        self.mode >= TraceMode::Full
    }

    /// Records an architectural event if the mode keeps its level.
    pub fn record(&mut self, ev: Event) {
        if self.mode >= ev.level() {
            self.arch.push(ev);
        }
    }

    /// Records an engine cycle-skip span (always kept; the `[engine]`
    /// section is cheap and engine-variant by design).
    pub fn record_skip(&mut self, from: u64, to: u64) {
        self.skips.push(SkipSpan { from, to });
    }

    /// The earliest sample-grid cycle that is due at or before `now`, or
    /// `None` when the grid is caught up. The engine calls this in a loop
    /// at the top of each visited cycle and answers each due point with
    /// [`Tracer::push_sample`]; because elided cycles are architectural
    /// no-ops, current state is the correct reading for every due point.
    pub fn next_due_sample(&self, now: u64) -> Option<u64> {
        (self.next_sample <= now).then_some(self.next_sample)
    }

    /// Appends a sample row for the grid point previously returned by
    /// [`Tracer::next_due_sample`] and advances the grid.
    pub fn push_sample(&mut self, sample: Sample) {
        debug_assert_eq!(
            sample.cycle, self.next_sample,
            "sample rows must answer next_due_sample in order"
        );
        self.next_sample = sample.cycle + self.sample_interval;
        self.samples.push(sample);
    }

    /// Number of architectural events recorded so far.
    pub fn event_count(&self) -> u64 {
        self.arch.len() as u64
    }

    /// Number of sample rows recorded so far.
    pub fn sample_count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Formats the last `n` architectural events for panic messages, most
    /// recent last. Empty string when nothing was recorded.
    pub fn tail(&self, n: usize) -> String {
        Self::render_tail(self.arch.iter().collect::<Vec<_>>(), n)
    }

    /// Formats the last `n` events that name the warp `(sm, slot)`.
    pub fn tail_for_warp(&self, sm: u32, slot: u32, n: usize) -> String {
        Self::render_tail(
            self.arch
                .iter()
                .filter(|e| e.warp() == Some((sm, slot)))
                .collect(),
            n,
        )
    }

    /// Formats the last `n` events that name the memory partition `p`.
    pub fn tail_for_partition(&self, p: u32, n: usize) -> String {
        Self::render_tail(
            self.arch
                .iter()
                .filter(|e| e.partition() == Some(p))
                .collect(),
            n,
        )
    }

    fn render_tail(matching: Vec<&Event>, n: usize) -> String {
        let start = matching.len().saturating_sub(n);
        matching[start..]
            .iter()
            .map(|e| format!("  {}\n", e.describe()))
            .collect()
    }

    /// Consumes the tracer into the finished [`Trace`].
    pub fn finish(self) -> Trace {
        Trace {
            mode: self.mode,
            sample_interval: self.sample_interval,
            arch: self.arch,
            samples: self.samples,
            skips: self.skips,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DetMode, FlushPhase, InstrKind, PacketKind, SleepReason, WakeSite};

    fn sample_trace() -> Trace {
        let mut t = Tracer::new(TraceMode::Full, 4);
        t.record(Event::Issue {
            cycle: 0,
            sm: 0,
            sched: 0,
            slot: 0,
            unique: 1,
            pc: 0,
            kind: InstrKind::Load,
        });
        t.record(Event::Sleep {
            cycle: 0,
            sm: 0,
            slot: 0,
            reason: SleepReason::Mem,
        });
        t.record(Event::IcntInject {
            cycle: 0,
            cluster: 0,
            dest: 1,
            kind: PacketKind::LoadReq,
        });
        t.record(Event::Wake {
            cycle: 9,
            sm: 0,
            slot: 0,
            site: WakeSite::LoadResp,
        });
        t.record(Event::Flush {
            cycle: 12,
            phase: FlushPhase::Start,
        });
        t.record(Event::ModeChange {
            cycle: 13,
            mode: DetMode::Commit,
        });
        while let Some(cycle) = t.next_due_sample(9) {
            t.push_sample(Sample {
                cycle,
                ready_warps: 1,
                buffered_entries: 0,
                icnt_flits: 2,
                rop_queued: 0,
                per_sm_buffered: vec![0, 0],
            });
        }
        t.record_skip(1, 8);
        t.finish()
    }

    #[test]
    fn trace_roundtrips_through_text() {
        let trace = sample_trace();
        let text = trace.to_text();
        let back = Trace::parse(&text).expect("roundtrip parse");
        assert_eq!(back, trace);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn sample_grid_catches_up_in_order() {
        let trace = sample_trace();
        let cycles: Vec<u64> = trace.samples.iter().map(|s| s.cycle).collect();
        assert_eq!(cycles, vec![0, 4, 8]);
    }

    #[test]
    fn summary_mode_drops_full_events() {
        let mut t = Tracer::new(TraceMode::Summary, 16);
        t.record(Event::Issue {
            cycle: 0,
            sm: 0,
            sched: 0,
            slot: 0,
            unique: 1,
            pc: 0,
            kind: InstrKind::Alu,
        });
        t.record(Event::Flush {
            cycle: 1,
            phase: FlushPhase::Complete,
        });
        let trace = t.finish();
        assert_eq!(trace.arch.len(), 1);
        assert!(matches!(trace.arch[0], Event::Flush { .. }));
    }

    #[test]
    fn truncated_traces_are_rejected() {
        let text = sample_trace().to_text();
        let cut = &text[..text.len() - 5];
        assert!(Trace::parse(cut).is_err());
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(4);
        assert!(Trace::parse(&lines.join("\n")).is_err());
    }

    #[test]
    fn tails_filter_by_warp_and_partition() {
        let mut t = Tracer::new(TraceMode::Full, 1024);
        t.record(Event::Wake {
            cycle: 1,
            sm: 0,
            slot: 0,
            site: WakeSite::Barrier,
        });
        t.record(Event::Wake {
            cycle: 2,
            sm: 1,
            slot: 3,
            site: WakeSite::LoadResp,
        });
        t.record(Event::PartReq {
            cycle: 3,
            partition: 1,
            kind: PacketKind::StoreReq,
        });
        let warp_tail = t.tail_for_warp(1, 3, 8);
        assert!(warp_tail.contains("sm 1 slot 3"));
        assert!(!warp_tail.contains("sm 0 slot 0"));
        let part_tail = t.tail_for_partition(1, 8);
        assert!(part_tail.contains("partition 1"));
        assert_eq!(t.tail_for_partition(0, 8), "");
        assert!(t.tail(2).lines().count() == 2);
    }
}
