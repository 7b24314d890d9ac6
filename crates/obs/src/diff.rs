//! The first-divergence bisector behind `dab-trace diff`.
//!
//! Two traces of the same workload recorded at the same mode must agree
//! byte-for-byte on their `[arch]` and `[samples]` sections regardless of
//! `DAB_ENGINE`. When they do not, the interesting
//! question is never "do they differ" (the results digest already said
//! so) but **where first** — which cycle, SM, warp, and event. This
//! module streams the deterministic sections of two traces in lockstep
//! and reports the first mismatch with a window of surrounding context.
//!
//! The `[engine]` section (cycle-skip spans) is engine-variant by design
//! and is only compared when explicitly requested, mirroring how the
//! equivalence CI jobs strip the `det.engine.*` statistics counters.

use crate::event::{Event, Sample, SkipSpan};
use crate::trace::Trace;
use std::fmt::Write as _;

/// One comparable item from a trace stream, for uniform reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    Event(Event),
    Sample(Sample),
    Skip(SkipSpan),
}

impl Item {
    /// Human one-liner for the report.
    pub fn describe(&self) -> String {
        match self {
            Item::Event(e) => e.describe(),
            Item::Sample(s) => format!("sample: {}", s.describe()),
            Item::Skip(k) => format!("engine skip: cycles {}..={}", k.from + 1, k.to - 1),
        }
    }
}

/// Where and how two traces first disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Divergence {
    /// The trace headers are incomparable — recorded at different modes
    /// or on different sampling grids.
    Header {
        field: &'static str,
        a: String,
        b: String,
    },
    /// The streams disagree at `index` of `section`.
    Stream {
        /// `"arch"`, `"samples"`, or `"engine"`.
        section: &'static str,
        /// 0-based index of the first differing item within the section.
        index: usize,
        /// The item in trace A, or `None` when A ended early.
        a: Option<Item>,
        /// The item in trace B, or `None` when B ended early.
        b: Option<Item>,
        /// Index the context windows start at.
        window_start: usize,
        /// Up to `window` items surrounding the divergence in A.
        context_a: Vec<Item>,
        /// Up to `window` items surrounding the divergence in B.
        context_b: Vec<Item>,
    },
}

/// Streams the deterministic sections of two traces and returns the first
/// divergence, or `None` when they agree. `window` bounds the context
/// captured on each side of the mismatch. `include_engine` additionally
/// compares the engine-variant `[engine]` section (off by default in the
/// CLI: dense-vs-event traces legitimately differ there).
pub fn first_divergence(
    a: &Trace,
    b: &Trace,
    window: usize,
    include_engine: bool,
) -> Option<Divergence> {
    if a.mode != b.mode {
        return Some(Divergence::Header {
            field: "mode",
            a: a.mode.to_string(),
            b: b.mode.to_string(),
        });
    }
    if a.sample_interval != b.sample_interval {
        return Some(Divergence::Header {
            field: "interval",
            a: a.sample_interval.to_string(),
            b: b.sample_interval.to_string(),
        });
    }
    if let Some(d) = diff_section("arch", &a.arch, &b.arch, window, Item::Event) {
        return Some(d);
    }
    if let Some(d) = diff_section("samples", &a.samples, &b.samples, window, Item::Sample) {
        return Some(d);
    }
    if include_engine {
        if let Some(d) = diff_section("engine", &a.skips, &b.skips, window, Item::Skip) {
            return Some(d);
        }
    }
    None
}

fn diff_section<T: Clone + PartialEq>(
    section: &'static str,
    a: &[T],
    b: &[T],
    window: usize,
    wrap: impl Fn(T) -> Item,
) -> Option<Divergence> {
    let first_mismatch = a
        .iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .or_else(|| (a.len() != b.len()).then(|| a.len().min(b.len())))?;
    let window_start = first_mismatch.saturating_sub(window);
    let window_end = |len: usize| (first_mismatch + window + 1).min(len);
    Some(Divergence::Stream {
        section,
        index: first_mismatch,
        a: a.get(first_mismatch).cloned().map(&wrap),
        b: b.get(first_mismatch).cloned().map(&wrap),
        window_start,
        context_a: a[window_start..window_end(a.len())]
            .iter()
            .cloned()
            .map(&wrap)
            .collect(),
        context_b: b[window_start..window_end(b.len())]
            .iter()
            .cloned()
            .map(&wrap)
            .collect(),
    })
}

/// Renders a divergence as the multi-line human report printed by
/// `dab-trace diff` (and by the CI equivalence jobs on failure).
pub fn render(d: &Divergence, label_a: &str, label_b: &str) -> String {
    let mut out = String::new();
    match d {
        Divergence::Header { field, a, b } => {
            writeln!(
                out,
                "traces are incomparable: header field {field:?} differs"
            )
            .unwrap();
            writeln!(out, "  {label_a}: {field} {a}").unwrap();
            writeln!(out, "  {label_b}: {field} {b}").unwrap();
        }
        Divergence::Stream {
            section,
            index,
            a,
            b,
            window_start,
            context_a,
            context_b,
        } => {
            writeln!(
                out,
                "first divergence: [{section}] item {index} \
                 (0-based within the section)"
            )
            .unwrap();
            match a {
                Some(item) => writeln!(out, "  {label_a}: {}", item.describe()).unwrap(),
                None => writeln!(out, "  {label_a}: <stream ended>").unwrap(),
            }
            match b {
                Some(item) => writeln!(out, "  {label_b}: {}", item.describe()).unwrap(),
                None => writeln!(out, "  {label_b}: <stream ended>").unwrap(),
            }
            for (label, ctx) in [(label_a, context_a), (label_b, context_b)] {
                writeln!(out, "context from {label} (items {window_start}..):").unwrap();
                for (off, item) in ctx.iter().enumerate() {
                    let marker = if window_start + off == *index {
                        ">>"
                    } else {
                        "  "
                    };
                    writeln!(out, "  {marker} {}", item.describe()).unwrap();
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{InstrKind, WakeSite};
    use crate::TraceMode;

    fn base_trace() -> Trace {
        Trace {
            mode: TraceMode::Full,
            sample_interval: 64,
            arch: (0..10)
                .map(|i| Event::Issue {
                    cycle: i,
                    sm: 0,
                    sched: 0,
                    slot: (i % 3) as u32,
                    unique: i,
                    pc: i as u32,
                    kind: InstrKind::Alu,
                })
                .collect(),
            samples: vec![],
            skips: vec![SkipSpan { from: 2, to: 5 }],
        }
    }

    #[test]
    fn identical_traces_report_none() {
        let a = base_trace();
        assert_eq!(first_divergence(&a, &a.clone(), 3, true), None);
    }

    #[test]
    fn single_injected_event_is_pinpointed() {
        let a = base_trace();
        let mut b = base_trace();
        // Inject a single differing event in the middle of the stream.
        b.arch[6] = Event::Wake {
            cycle: 6,
            sm: 0,
            slot: 0,
            site: WakeSite::Barrier,
        };
        let d = first_divergence(&a, &b, 2, false).expect("must diverge");
        match &d {
            Divergence::Stream {
                section,
                index,
                a: Some(Item::Event(ea)),
                b: Some(Item::Event(eb)),
                window_start,
                context_a,
                context_b,
            } => {
                assert_eq!(*section, "arch");
                assert_eq!(*index, 6);
                assert!(matches!(ea, Event::Issue { unique: 6, .. }));
                assert!(matches!(eb, Event::Wake { cycle: 6, .. }));
                assert_eq!(*window_start, 4);
                assert_eq!(context_a.len(), 5);
                assert_eq!(context_b.len(), 5);
            }
            other => panic!("wrong divergence shape: {other:?}"),
        }
        let report = render(&d, "a.trace", "b.trace");
        assert!(report.contains("[arch] item 6"), "{report}");
        assert!(report.contains("woke (barrier)"), "{report}");
        assert!(report.contains(">>"), "{report}");
    }

    #[test]
    fn length_mismatch_is_a_divergence() {
        let a = base_trace();
        let mut b = base_trace();
        b.arch.truncate(7);
        let d = first_divergence(&a, &b, 1, false).expect("must diverge");
        match d {
            Divergence::Stream {
                index, a, b: None, ..
            } => {
                assert_eq!(index, 7);
                assert!(a.is_some());
            }
            other => panic!("wrong divergence shape: {other:?}"),
        }
    }

    #[test]
    fn engine_section_only_compared_on_request() {
        let a = base_trace();
        let mut b = base_trace();
        b.skips = vec![];
        assert_eq!(first_divergence(&a, &b, 1, false), None);
        assert!(first_divergence(&a, &b, 1, true).is_some());
    }

    #[test]
    fn header_mismatch_reported() {
        let a = base_trace();
        let mut b = base_trace();
        b.sample_interval = 128;
        match first_divergence(&a, &b, 1, false) {
            Some(Divergence::Header { field, .. }) => assert_eq!(field, "interval"),
            other => panic!("wrong divergence shape: {other:?}"),
        }
    }
}
