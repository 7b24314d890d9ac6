//! The metric namespace contract: the rules every named metric the
//! simulator emits obeys.
//!
//! A metric is named once, where it is bumped (`SimStats::bump`,
//! `gauge_max`, `observe`); its name alone carries its determinism class,
//! checked at the bump site by [`validate_name`].
//!
//! # Namespace contract
//!
//! Every metric name is dot-separated lowercase ASCII and must live in one
//! of two top-level namespaces:
//!
//! * `det.*` — **deterministic** metrics: byte-stable architectural
//!   counts, identical at any `DAB_JOBS` worker count. Two sub-classes
//!   refine the contract:
//!   - [`MetricClass::DetArch`] (everything under `det.*` except the
//!     family below): additionally identical across `DAB_ENGINE`
//!     settings — the dense and event engines must agree bit-for-bit.
//!   - [`MetricClass::DetEngine`] (`det.engine.*`): deterministic for a
//!     *fixed* configuration but **engine-variant by design** (the event
//!     engine skips work the dense engine performs, and counts it).
//!     Cross-engine comparisons strip this family; fixed-config
//!     regression gates compare it exactly.
//! * `wall.*` — host wall-clock measurements (phase timings, profiler
//!   spans). Timing-variant run to run; never merged into `SimStats`,
//!   never part of any determinism digest. `SimStats::bump` rejects
//!   `wall.*` keys outright, which is what guarantees wall data can
//!   never leak into a results digest.
//!
//! Two further properties are keyed off the name, not stored state:
//!
//! * `det.engine.*` and `det.obs.*` are **coordinator-only**: the engine
//!   folds them into the run's stats once, at the end of the run, from
//!   its own activity counters and tracer; no component bumps them while
//!   the machine runs.
//! * `det.obs.*` exists only when tracing is enabled, so equivalence
//!   comparisons must fix the trace mode on both sides.
//!
//! # Merge ordering
//!
//! Counters and histogram buckets are summed; gauges are high-watermarks
//! and merge by `max`. One run accumulates into a single `SimStats`;
//! `SimStats::merge` folds whole runs together (sweeps, the benchmark),
//! so merged values never depend on the order runs finish.
//!
//! # Examples
//!
//! ```
//! use obs::metrics::{validate_name, MetricClass};
//!
//! assert_eq!(validate_name("det.dab.flushes"), Ok(MetricClass::DetArch));
//! assert_eq!(
//!     validate_name("det.engine.sms_ticked"),
//!     Ok(MetricClass::DetEngine)
//! );
//! assert!(validate_name("dab.flushes").is_err());
//! ```

use std::fmt;

/// Determinism class of a metric, derived from its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// `det.*` (except `det.engine.*`): engine-invariant; byte-stable.
    DetArch,
    /// `det.engine.*`: deterministic for a fixed engine, engine-variant by
    /// design.
    DetEngine,
    /// `wall.*`: host timing; variant run to run.
    Wall,
}

/// A fixed-bucket histogram schema: cumulative-style `le` buckets plus an
/// overflow bucket, each materialized as an ordinary counter key so the
/// existing sum-merge machinery applies unchanged.
///
/// The key list must be `bounds.len() + 1` long: one `<name>.le<bound>`
/// key per bound (in strictly increasing order) and a final
/// `<name>.le_inf` overflow key. Keys are spelled out statically because
/// `SimStats` counters are `&'static str`-keyed. Nothing checks this shape
/// at run time: the crate that owns a spec tests it.
///
/// # Examples
///
/// ```
/// use obs::metrics::HistSpec;
///
/// static H: HistSpec = HistSpec {
///     name: "det.dab.flush_entries_hist",
///     bounds: &[1, 8, 64],
///     buckets: &[
///         "det.dab.flush_entries_hist.le1",
///         "det.dab.flush_entries_hist.le8",
///         "det.dab.flush_entries_hist.le64",
///         "det.dab.flush_entries_hist.le_inf",
///     ],
/// };
/// assert_eq!(H.bucket_key(5), "det.dab.flush_entries_hist.le8");
/// assert_eq!(H.bucket_key(1000), "det.dab.flush_entries_hist.le_inf");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct HistSpec {
    /// Base metric name (namespace rules apply).
    pub name: &'static str,
    /// Inclusive upper bounds, strictly increasing.
    pub bounds: &'static [u64],
    /// Bucket counter keys: one per bound plus the `le_inf` overflow.
    pub buckets: &'static [&'static str],
}

impl HistSpec {
    /// The bucket counter key a sample of `value` falls into: the first
    /// bucket whose bound is `>= value`, else the overflow bucket.
    pub fn bucket_key(&self, value: u64) -> &'static str {
        for (i, &b) in self.bounds.iter().enumerate() {
            if value <= b {
                return self.buckets[i];
            }
        }
        self.buckets[self.bounds.len()]
    }
}

/// Why a metric name was rejected by [`validate_name`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameError {
    message: String,
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for NameError {}

/// Validates a metric name against the namespace contract and returns its
/// class, or an error naming the violation.
pub fn validate_name(name: &str) -> Result<MetricClass, NameError> {
    let bad = |why: &str| {
        Err(NameError {
            message: format!("invalid metric name {name:?}: {why}"),
        })
    };
    if name.is_empty() {
        return bad("empty");
    }
    for seg in name.split('.') {
        if seg.is_empty() {
            return bad("empty dotted segment");
        }
        if !seg
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return bad("segments must be lowercase ASCII, digits, or '_'");
        }
    }
    if let Some(rest) = name.strip_prefix("det.") {
        if rest.is_empty() {
            return bad("nothing after the det. namespace");
        }
        if name.starts_with("det.engine.") {
            Ok(MetricClass::DetEngine)
        } else {
            Ok(MetricClass::DetArch)
        }
    } else if let Some(rest) = name.strip_prefix("wall.") {
        if rest.is_empty() {
            return bad("nothing after the wall. namespace");
        }
        Ok(MetricClass::Wall)
    } else {
        bad("must live under the det. or wall. namespace")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_namespaces() {
        assert_eq!(validate_name("det.dab.flushes"), Ok(MetricClass::DetArch));
        assert_eq!(
            validate_name("det.engine.sms_ticked"),
            Ok(MetricClass::DetEngine)
        );
        assert_eq!(validate_name("wall.phase.commit"), Ok(MetricClass::Wall));
    }

    #[test]
    fn bad_names_are_rejected() {
        for bad in [
            "",
            "det.",
            "wall.",
            "dab.flushes",
            "engine.sms_ticked",
            "det..x",
            "det.Flushes",
            "det.fl ushes",
            "obs.samples",
        ] {
            assert!(validate_name(bad).is_err(), "{bad:?} should be invalid");
        }
    }

    static HIST: HistSpec = HistSpec {
        name: "det.dab.flush_entries_hist",
        bounds: &[1, 8, 64],
        buckets: &[
            "det.dab.flush_entries_hist.le1",
            "det.dab.flush_entries_hist.le8",
            "det.dab.flush_entries_hist.le64",
            "det.dab.flush_entries_hist.le_inf",
        ],
    };

    #[test]
    fn histogram_buckets_register_and_classify() {
        for &key in HIST.buckets {
            assert_eq!(validate_name(key), Ok(MetricClass::DetArch), "{key}");
        }
        assert_eq!(HIST.bucket_key(0), "det.dab.flush_entries_hist.le1");
        assert_eq!(HIST.bucket_key(1), "det.dab.flush_entries_hist.le1");
        assert_eq!(HIST.bucket_key(2), "det.dab.flush_entries_hist.le8");
        assert_eq!(HIST.bucket_key(64), "det.dab.flush_entries_hist.le64");
        assert_eq!(HIST.bucket_key(65), "det.dab.flush_entries_hist.le_inf");
    }
}
