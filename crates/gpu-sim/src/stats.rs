//! Simulation statistics: cycles, IPC, stall and execution-mode breakdowns.
//!
//! The fixed fields cover what every execution model reports (Fig. 10-style
//! normalized execution time, IPC correlation for Fig. 9). Model-specific
//! accounting — GPUDet's parallel/commit/serial mode split (Fig. 3), DAB's
//! overhead breakdown (Fig. 15) — goes through the ordered
//! [`counters`](SimStats::counters) map so models can define their own
//! categories without widening this struct.
//!
//! The engine accumulates every counter of a run into one `SimStats`;
//! [`merge`](SimStats::merge) sums whole independent runs (sweeps and the
//! benchmark aggregate with it).
//!
//! # Counter namespaces
//!
//! Every named metric lives in the `det.*` namespace and is named once,
//! where it is bumped. The full contract (namespace classes, merge rules,
//! coordinator-only families) is documented in [`obs::metrics`] and
//! enforced here: [`bump`](SimStats::bump),
//! [`gauge_max`](SimStats::gauge_max) and [`observe`](SimStats::observe)
//! panic — naming the offending key and call site — on any key outside
//! `det.*`. `wall.*` keys are rejected outright, which is what guarantees
//! host-timing data can never leak into a results digest.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::stats::SimStats;
//!
//! let mut stats = SimStats::default();
//! stats.cycles = 1000;
//! stats.thread_instrs = 32_000;
//! assert_eq!(stats.ipc(), 32.0);
//! stats.bump("det.dab.flushes", 3);
//! assert_eq!(stats.counter("det.dab.flushes"), 3);
//! ```

use std::collections::BTreeMap;

/// Aggregated statistics from one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total core cycles simulated until kernel completion.
    pub cycles: u64,
    /// Dynamic thread-level instructions retired.
    pub thread_instrs: u64,
    /// Warp-level instructions issued.
    pub warp_instrs: u64,
    /// Atomic (red/atom) thread-level operations retired.
    pub atomics: u64,
    /// Memory transactions sent to the interconnect.
    pub mem_transactions: u64,
    /// L1 data cache accesses / misses.
    pub l1_accesses: u64,
    /// L1 data cache misses.
    pub l1_misses: u64,
    /// L2 accesses / misses (summed over slices).
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Requests refused for interconnect injection room: a load, store or
    /// atomic counts once, at its first refusal, however many visits
    /// retry it (as `det.stall.l1_mshr` counts L1 MSHR refusals). The name
    /// predates that rule: it counts requests, not cycles.
    pub icnt_stall_cycles: u64,
    /// Named `det.*` counters and histogram buckets (deterministically
    /// ordered; merged by sum).
    pub counters: BTreeMap<&'static str, u64>,
    /// Named `det.*` high-watermark gauges (merged by max).
    pub gauges: BTreeMap<&'static str, u64>,
}

/// Panics unless `name` is a valid `det.*` metric name, blaming `site`.
#[track_caller]
fn check_det_key(name: &str) {
    match obs::metrics::validate_name(name) {
        Ok(obs::metrics::MetricClass::Wall) => panic!(
            "SimStats rejects wall-clock metric {name:?}: wall.* values are \
             timing-variant and must never enter the deterministic stats maps \
             (use the span profiler instead)"
        ),
        Ok(_) => {}
        Err(e) => panic!(
            "SimStats rejects {name:?}: {e}; every stats key must be a \
             valid det.* metric name (see obs::metrics)"
        ),
    }
}

impl SimStats {
    /// Instructions per cycle over the whole run (thread-level, matching how
    /// GPGPU-Sim reports IPC for Fig. 9).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.thread_instrs as f64 / self.cycles as f64
        }
    }

    /// L1 miss rate in `[0, 1]`, or 0 if the L1 was never accessed.
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// L2 miss rate in `[0, 1]`, or 0 if the L2 was never accessed.
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// Atomics per kilo-instruction actually observed in the run.
    pub fn atomics_pki(&self) -> f64 {
        if self.thread_instrs == 0 {
            0.0
        } else {
            self.atomics as f64 * 1000.0 / self.thread_instrs as f64
        }
    }

    /// Adds `n` to the named counter, creating it at zero if absent.
    ///
    /// # Panics
    ///
    /// Panics — naming the key and this call site — when `name` is not a
    /// valid `det.*` metric name (unknown namespace, legacy unprefixed
    /// key, or a `wall.*` key).
    #[track_caller]
    pub fn bump(&mut self, name: &'static str, n: u64) {
        check_det_key(name);
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Reads a named counter (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raises the named high-watermark gauge to at least `v`.
    ///
    /// Gauges merge by `max` (not sum), which keeps a high-watermark
    /// meaningful across whole-run merges.
    ///
    /// # Panics
    ///
    /// Same key rules as [`bump`](Self::bump).
    #[track_caller]
    pub fn gauge_max(&mut self, name: &'static str, v: u64) {
        check_det_key(name);
        let g = self.gauges.entry(name).or_insert(0);
        *g = (*g).max(v);
    }

    /// Reads a named gauge (0 if never set).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Records one sample into a fixed-bucket histogram: bumps the bucket
    /// counter `value` falls into (see [`obs::metrics::HistSpec`]).
    #[track_caller]
    pub fn observe(&mut self, hist: &obs::metrics::HistSpec, value: u64) {
        self.bump(hist.bucket_key(value), 1);
    }

    /// Merges another stats object into this one: every fixed field and
    /// counter is summed, gauges take the max.
    ///
    /// Note `cycles` is summed too, which is only correct when the two
    /// operands account disjoint time (e.g. whole independent runs).
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles += other.cycles;
        self.thread_instrs += other.thread_instrs;
        self.warp_instrs += other.warp_instrs;
        self.atomics += other.atomics;
        self.mem_transactions += other.mem_transactions;
        self.l1_accesses += other.l1_accesses;
        self.l1_misses += other.l1_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
        self.icnt_stall_cycles += other.icnt_stall_cycles;
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let g = self.gauges.entry(k).or_insert(0);
            *g = (*g).max(*v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn ipc_computes() {
        let stats = SimStats {
            cycles: 10,
            thread_instrs: 250,
            ..Default::default()
        };
        assert_eq!(stats.ipc(), 25.0);
    }

    #[test]
    fn miss_rates() {
        let stats = SimStats {
            l1_accesses: 100,
            l1_misses: 25,
            l2_accesses: 25,
            l2_misses: 5,
            ..Default::default()
        };
        assert_eq!(stats.l1_miss_rate(), 0.25);
        assert_eq!(stats.l2_miss_rate(), 0.2);
        assert_eq!(SimStats::default().l1_miss_rate(), 0.0);
    }

    #[test]
    fn counters_accumulate() {
        let mut stats = SimStats::default();
        stats.bump("det.test.x", 2);
        stats.bump("det.test.x", 3);
        assert_eq!(stats.counter("det.test.x"), 5);
        assert_eq!(stats.counter("det.test.missing"), 0);
    }

    #[test]
    #[should_panic(expected = "must live under the det. or wall. namespace")]
    fn legacy_unprefixed_key_panics() {
        SimStats::default().bump("dab.flushes", 1);
    }

    #[test]
    #[should_panic(expected = "wall.* values are")]
    fn wall_key_panics() {
        SimStats::default().bump("wall.phase.commit", 1);
    }

    #[test]
    #[should_panic(expected = "det.bad key")]
    fn garbage_key_panics_naming_the_key() {
        SimStats::default().gauge_max("det.bad key", 1);
    }

    #[test]
    fn gauges_take_max() {
        let mut stats = SimStats::default();
        stats.gauge_max("det.test.peak", 4);
        stats.gauge_max("det.test.peak", 2);
        assert_eq!(stats.gauge("det.test.peak"), 4);
        assert_eq!(stats.gauge("det.test.unset"), 0);
    }

    static HIST: obs::metrics::HistSpec = obs::metrics::HistSpec {
        name: "det.test.h",
        bounds: &[2, 8],
        buckets: &["det.test.h.le2", "det.test.h.le8", "det.test.h.le_inf"],
    };

    #[test]
    fn histogram_observation_bumps_buckets() {
        let mut stats = SimStats::default();
        stats.observe(&HIST, 1);
        stats.observe(&HIST, 2);
        stats.observe(&HIST, 5);
        stats.observe(&HIST, 100);
        assert_eq!(stats.counter("det.test.h.le2"), 2);
        assert_eq!(stats.counter("det.test.h.le8"), 1);
        assert_eq!(stats.counter("det.test.h.le_inf"), 1);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = SimStats {
            cycles: 1,
            thread_instrs: 2,
            ..Default::default()
        };
        a.bump("det.test.m", 1);
        a.gauge_max("det.test.g", 9);
        let mut b = SimStats {
            cycles: 10,
            thread_instrs: 20,
            ..Default::default()
        };
        b.bump("det.test.m", 2);
        b.bump("det.test.n", 7);
        b.gauge_max("det.test.g", 4);
        a.merge(&b);
        assert_eq!(a.cycles, 11);
        assert_eq!(a.thread_instrs, 22);
        assert_eq!(a.counter("det.test.m"), 3);
        assert_eq!(a.counter("det.test.n"), 7);
        assert_eq!(a.gauge("det.test.g"), 9, "gauges merge by max, not sum");
    }

    #[test]
    fn observed_pki() {
        let stats = SimStats {
            thread_instrs: 2000,
            atomics: 3,
            ..Default::default()
        };
        assert!((stats.atomics_pki() - 1.5).abs() < 1e-12);
    }
}
