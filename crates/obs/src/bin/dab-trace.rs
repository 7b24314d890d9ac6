//! `dab-trace` — inspect, diff, and export deterministic simulator traces.
//!
//! ```text
//! dab-trace diff <a.trace> <b.trace> [--window N] [--engine]
//! dab-trace export <a.trace> [-o out.json] [--profile <a.folded>]
//! dab-trace show <a.trace> [--filter kind=<tok>] [--filter sm=<n>] [--filter warp=<sm>:<slot>]
//! ```
//!
//! `diff` exits 0 when the deterministic sections agree, 1 with the
//! bisector's first-divergence report when they do not, and 2 on usage or
//! I/O errors. `export` writes Chrome trace-event JSON loadable in
//! Perfetto; `--profile` merges a collapsed-stack `.folded` profile (the
//! repository benchmark's traced pass writes `trace.folded`) as counter
//! tracks. `show` prints per-kind event
//! counts and the cycle span; `--filter` restricts the statistics (and
//! prints the matching events) to one event kind, SM, or warp — repeat
//! the flag to conjoin dimensions.

use obs::diff::{first_divergence, render};
use obs::{Event, Trace, TraceFilter};
use std::process::ExitCode;

const USAGE: &str = "usage:
  dab-trace diff <a.trace> <b.trace> [--window N] [--engine]
  dab-trace export <a.trace> [-o out.json] [--profile <a.folded>]
  dab-trace show <a.trace> [--filter kind=<tok>|sm=<n>|warp=<sm>:<slot>]...";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => cmd_diff(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("show") => cmd_show(&args[1..]),
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn load(path: &str) -> Result<Trace, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Trace::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut paths: Vec<&String> = Vec::new();
    let mut window = 5usize;
    let mut include_engine = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--window" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => window = n,
                None => {
                    eprintln!("--window needs an unsigned integer\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--engine" => include_engine = true,
            _ => paths.push(arg),
        }
    }
    let [a_path, b_path] = paths[..] else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dab-trace: {e}");
            return ExitCode::from(2);
        }
    };
    match first_divergence(&a, &b, window, include_engine) {
        None => {
            println!(
                "no divergence: {} arch events, {} samples agree",
                a.arch.len(),
                a.samples.len()
            );
            ExitCode::SUCCESS
        }
        Some(d) => {
            print!("{}", render(&d, a_path, b_path));
            ExitCode::from(1)
        }
    }
}

fn cmd_export(args: &[String]) -> ExitCode {
    let mut input: Option<&String> = None;
    let mut output: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-o" => match it.next() {
                Some(path) => output = Some(path.clone()),
                None => {
                    eprintln!("-o needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--profile" => match it.next() {
                Some(path) => profile_path = Some(path.clone()),
                None => {
                    eprintln!("--profile needs a .folded path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            _ if input.is_none() => input = Some(arg),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(input) = input else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let trace = match load(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dab-trace: {e}");
            return ExitCode::from(2);
        }
    };
    let profile = match &profile_path {
        None => Vec::new(),
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("dab-trace: cannot read {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            match obs::profile::parse_collapsed(&text) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("dab-trace: {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let out_path = output.unwrap_or_else(|| format!("{}.json", input.trim_end_matches(".trace")));
    let json = obs::perfetto::to_chrome_json_with_profile(&trace, &profile);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("dab-trace: cannot write {out_path}: {e}");
        return ExitCode::from(2);
    }
    println!("wrote {out_path} (open in https://ui.perfetto.dev)");
    ExitCode::SUCCESS
}

fn cmd_show(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut filter = TraceFilter::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--filter" => {
                let Some(spec) = it.next() else {
                    eprintln!(
                        "--filter needs a spec (kind=..., sm=..., warp=<sm>:<slot>)\n{USAGE}"
                    );
                    return ExitCode::from(2);
                };
                if let Err(e) = filter.apply(spec) {
                    eprintln!("dab-trace: {e}");
                    return ExitCode::from(2);
                }
            }
            _ if path.is_none() => path = Some(arg),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let trace = match load(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dab-trace: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", render_show(&trace, &filter));
    ExitCode::SUCCESS
}

/// Renders the `show` report: header, cycle span, per-kind counts, and —
/// when a filter is active — the matching events themselves, in trace
/// order. Split from `cmd_show` so the unit tests below cover it.
fn render_show(trace: &Trace, filter: &TraceFilter) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "mode: {}", trace.mode);
    let _ = writeln!(out, "sample interval: {} cycles", trace.sample_interval);
    let kept: Vec<&Event> = trace.arch.iter().filter(|ev| filter.matches(ev)).collect();
    let span = kept
        .iter()
        .map(|ev| ev.cycle())
        .chain(
            if filter.is_active() {
                // Sample rows are machine-wide; a dimension filter excludes them.
                &[] as &[obs::Sample]
            } else {
                &trace.samples
            }
            .iter()
            .map(|s| s.cycle),
        )
        .fold(None::<(u64, u64)>, |acc, c| match acc {
            None => Some((c, c)),
            Some((lo, hi)) => Some((lo.min(c), hi.max(c))),
        });
    match span {
        Some((lo, hi)) => {
            let _ = writeln!(out, "cycle span: {lo}..={hi}");
        }
        None => {
            let _ = writeln!(out, "cycle span: empty");
        }
    }
    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for ev in &kept {
        let name = ev.kind_name();
        match counts.iter_mut().find(|(n, _)| *n == name) {
            Some((_, c)) => *c += 1,
            None => counts.push((name, 1)),
        }
    }
    if filter.is_active() {
        let _ = writeln!(
            out,
            "arch events: {} matching (of {})",
            kept.len(),
            trace.arch.len()
        );
    } else {
        let _ = writeln!(out, "arch events: {}", trace.arch.len());
    }
    for (name, c) in counts {
        let _ = writeln!(out, "  {name}: {c}");
    }
    if filter.is_active() {
        for ev in &kept {
            let _ = writeln!(out, "{}", ev.describe());
        }
    } else {
        let _ = writeln!(out, "samples: {}", trace.samples.len());
        let _ = writeln!(out, "engine skip spans: {}", trace.skips.len());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::{InstrKind, SleepReason, TraceMode};

    fn demo_trace() -> Trace {
        Trace {
            mode: TraceMode::Full,
            sample_interval: 8,
            arch: vec![
                Event::Issue {
                    cycle: 1,
                    sm: 0,
                    sched: 0,
                    slot: 2,
                    unique: 5,
                    pc: 0,
                    kind: InstrKind::Red,
                },
                Event::Issue {
                    cycle: 2,
                    sm: 1,
                    sched: 1,
                    slot: 0,
                    unique: 9,
                    pc: 1,
                    kind: InstrKind::Alu,
                },
                Event::Sleep {
                    cycle: 3,
                    sm: 1,
                    slot: 0,
                    reason: SleepReason::Mem,
                },
            ],
            samples: Vec::new(),
            skips: Vec::new(),
        }
    }

    #[test]
    fn show_unfiltered_counts_all_kinds() {
        let out = render_show(&demo_trace(), &TraceFilter::default());
        assert!(out.contains("arch events: 3"));
        assert!(out.contains("  issue: 2"));
        assert!(out.contains("  sleep: 1"));
        assert!(out.contains("cycle span: 1..=3"));
    }

    #[test]
    fn show_filter_by_sm_restricts_counts_and_lists_events() {
        let mut filter = TraceFilter::default();
        filter.apply("sm=1").unwrap();
        let out = render_show(&demo_trace(), &filter);
        assert!(out.contains("arch events: 2 matching (of 3)"));
        assert!(out.contains("  issue: 1"));
        assert!(out.contains("  sleep: 1"));
        assert!(out.contains("cycle span: 2..=3"));
        // The matching events are printed in trace order.
        let issue_at = out.find("issue").expect("issue line");
        let sleep_at = out.rfind("sleep").expect("sleep line");
        assert!(issue_at < sleep_at);
    }

    #[test]
    fn show_filter_by_kind_and_warp_conjoin() {
        let mut filter = TraceFilter::default();
        filter.apply("kind=issue").unwrap();
        filter.apply("warp=0:2").unwrap();
        let out = render_show(&demo_trace(), &filter);
        assert!(out.contains("arch events: 1 matching (of 3)"));
        assert!(out.contains("  issue: 1"));
        assert!(!out.contains("sleep: 1"));
    }
}
