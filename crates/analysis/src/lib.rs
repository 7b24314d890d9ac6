//! # Static trace-level determinism analysis (`dab-analyze`)
//!
//! DAB's value proposition is *weak determinism*: relaxed atomics may
//! commit in any buffered order, yet the final bits must be reproducible.
//! This crate decides, **statically and per trace**, which accesses of a
//! workload are ordered, which race benignly, and which are genuine
//! determinism hazards — without running the timing simulator. That is
//! possible because the simulator is trace-driven: every
//! [`gpu_sim::isa::WarpProgram`] is fully lowered before simulation, so
//! the happens-before relation is decidable from the IR alone.
//!
//! The passes, in order:
//!
//! 1. **Happens-before construction** ([`hb`]) — program order, `Bar`
//!    barrier phases within a CTA, deterministic ticket order across
//!    `LockedSection`s sharing a lock, with `Fence`/`Atom` as
//!    warp-local flush points (driven by
//!    [`gpu_sim::isa::Instr::ordering_effect`]).
//! 2. **Conflict detection and hazard classification** ([`conflict`]) —
//!    word-granular pairing of unordered conflicting accesses, bucketed
//!    into [`report::Class::Benign`] / [`report::Class::WeakDetOk`] /
//!    [`report::Class::Hazard`], plus sector-level transaction and
//!    false-sharing statistics reusing [`gpu_sim::isa::MemAccess::sectors`].
//! 3. **Well-formedness linting** ([`lint`]) — trace invariants every
//!    workload generator must uphold.
//! 4. **Deterministic reporting and CI gating** ([`report`]) — sorted,
//!    seed-independent, byte-identical reports (text and `obs::json`),
//!    gated against an explicit allowlist.
//!
//! The `dab-analyze` binary runs the whole workload suite
//! (`cargo run --release -p analysis --bin dab-analyze -- --suite`) and
//! exits non-zero on any non-allowlisted hazard or lint.
//!
//! # Examples
//!
//! The Fig. 1 microbenchmark races on floating-point rounding — exactly
//! the class DAB makes deterministic:
//!
//! ```
//! use analysis::analyze_benchmark;
//! use analysis::report::{Class, ConflictKind};
//! use dab_workloads::scale::Scale;
//! use dab_workloads::suite::micro_suite;
//!
//! let micros = micro_suite(Scale::Ci);
//! let sum = micros.iter().find(|b| b.name == "micro_atomic_sum").unwrap();
//! let report = analyze_benchmark(sum);
//! assert_eq!(report.findings.len(), 1);
//! assert_eq!(report.findings[0].kind, ConflictKind::FpRedRace);
//! assert_eq!(report.findings[0].kind.class(), Class::WeakDetOk);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use dab_workloads::suite::{Benchmark, Family};

pub mod conflict;
pub mod hb;
pub mod hbgraph;
pub mod lint;
pub mod report;

pub use conflict::analyze_kernel;
pub use report::{Allowlist, BenchReport, Class, ConflictKind, SuiteReport};

/// Stable family label for reports.
pub fn family_label(family: Family) -> &'static str {
    match family {
        Family::Graph => "graph",
        Family::Conv => "conv",
        Family::Micro => "micro",
    }
}

/// Analyzes every kernel launch of one benchmark and merges the results.
pub fn analyze_benchmark(bench: &Benchmark) -> BenchReport {
    let kernels: Vec<report::KernelReport> =
        bench.kernels.iter().map(conflict::analyze_kernel).collect();
    BenchReport::from_kernels(&bench.name, family_label(bench.family), &kernels)
}

/// Analyzes a whole suite serially, in suite order.
pub fn analyze_suite(benches: &[Benchmark], scale: &str) -> SuiteReport {
    analyze_suite_with_jobs(benches, scale, 1)
}

/// Analyzes a suite on `jobs` worker threads (work-stealing over
/// benchmarks). Results come back **in suite order** regardless of which
/// worker finished first — mirroring `crates/bench`'s sweep contract —
/// so the report is byte-identical for any worker count.
pub fn analyze_suite_with_jobs(benches: &[Benchmark], scale: &str, jobs: usize) -> SuiteReport {
    let jobs = jobs.clamp(1, benches.len().max(1));
    let reports: Vec<BenchReport> = if jobs <= 1 {
        benches.iter().map(analyze_benchmark).collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let done: std::sync::Mutex<Vec<(usize, BenchReport)>> =
            std::sync::Mutex::new(Vec::with_capacity(benches.len()));
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= benches.len() {
                        break;
                    }
                    let report = analyze_benchmark(&benches[i]);
                    done.lock().expect("results lock").push((i, report));
                });
            }
        });
        let mut done = done.into_inner().expect("results lock");
        done.sort_by_key(|(i, _)| *i);
        done.into_iter().map(|(_, r)| r).collect()
    };
    SuiteReport {
        scale: scale.to_string(),
        benches: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dab_workloads::scale::Scale;
    use dab_workloads::suite::micro_suite;

    #[test]
    fn family_labels() {
        assert_eq!(family_label(Family::Graph), "graph");
        assert_eq!(family_label(Family::Conv), "conv");
        assert_eq!(family_label(Family::Micro), "micro");
    }

    #[test]
    fn parallel_analysis_matches_serial() {
        let micros = micro_suite(Scale::Ci);
        let serial = analyze_suite(&micros, "ci");
        for jobs in [2, 4, 16] {
            let parallel = analyze_suite_with_jobs(&micros, "ci", jobs);
            assert_eq!(serial, parallel, "jobs={jobs}");
        }
    }

    #[test]
    fn lock_benches_are_conflict_free() {
        for b in micro_suite(Scale::Ci) {
            if b.name.starts_with("micro_lock_") {
                let r = analyze_benchmark(&b);
                assert!(
                    r.findings.is_empty(),
                    "{}: ticket locks order everything, got {:?}",
                    b.name,
                    r.findings
                );
            }
        }
    }

    #[test]
    fn ticket_counter_is_a_hazard() {
        let micros = micro_suite(Scale::Ci);
        let b = micros
            .iter()
            .find(|b| b.name == "micro_ticket_counter")
            .unwrap();
        let r = analyze_benchmark(b);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].kind, ConflictKind::AtomReturnRace);
        assert_eq!(r.findings[0].kind.class(), Class::Hazard);
        // Exactly the one shared cursor word.
        assert_eq!(r.findings[0].sites, 1);
    }
}
