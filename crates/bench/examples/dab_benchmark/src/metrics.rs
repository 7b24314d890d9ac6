//! The metric table: every number the benchmark reports, with its unit,
//! direction, bound and class. `BENCHMARK.json` at the repository root
//! mirrors the `EndToEnd` rows (except `error_rate`, which the `measure`
//! result line carries as `attempted`/`failed`) and the `Layer` rows.

use Class::{Det, Wall};

/// Where a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What a user of the simulator sees; measured with tracing off.
    EndToEnd,
    /// One layer's share of the work; measured in the traced passes.
    Layer,
}

/// How two runs of a metric compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Host measurement: compared against its bound and its spread.
    Wall,
    /// Simulated quantity: identical for the same seed and knobs, so any
    /// drift is a regression.
    Det,
}

/// One row of the metric table.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end rows only).
    pub bound: Option<f64>,
    pub kind: Kind,
    pub class: Class,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    class: Class,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        kind: Kind::EndToEnd,
        class,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool, class: Class) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        kind: Kind::Layer,
        class,
    }
}

/// Every metric, end-to-end rows first, layers grouped by module.
pub const METRICS: &[Metric] = &[
    // Host times are scaled to the reference host speed (`speed.rs`). The
    // bounds sit at the 25% cap even so: scaled run-to-run spreads on the
    // shared 2-vCPU reference host still reach 10% (README, "Noise floor"),
    // and a bound should be at least three times the spread.
    e2e("pass_s", "s", false, 0.25, Wall),
    e2e("warp_instrs_per_s", "1/s", true, 0.25, Wall),
    e2e("setup_s", "s", false, 0.25, Wall),
    e2e("peak_rss_mb", "MB", false, 0.1, Wall),
    // Simulated values are exact for one seed; across seeds the baseline's
    // timing jitter moves them, and these bounds cover that.
    e2e("sim_cycles", "cycles", false, 0.02, Det),
    e2e("dab_slowdown", "x", false, 0.1, Det),
    e2e("error_rate", "fraction", false, 0.0, Det),
    // Set-up and scheduling: generators, construction, the sim batch.
    layer("workloads.gen_s", "s", false, Wall),
    layer("gpu_sim.new_s", "s", false, Wall),
    layer("gpu_sim.statics_s", "s", false, Wall),
    layer("gpu_sim.statics_share_max", "fraction", false, Wall),
    layer("sweep.overhead_s", "s", false, Wall),
    layer("sweep.parallel_eff", "fraction", true, Wall),
    layer("sweep.job_p50_s", "s", false, Wall),
    layer("sweep.job_p90_s", "s", false, Wall),
    // Simulation host time, split by execution model.
    layer("gpu_sim.run_s", "s", false, Wall),
    layer("model.baseline.share", "fraction", false, Wall),
    layer("model.dab.share", "fraction", false, Wall),
    layer("model.gpudet.share", "fraction", false, Wall),
    layer("engine.ns_per_warp_instr", "ns", false, Wall),
    // Engine phases (sampled profiler, traced passes only).
    layer("engine.prepare_s", "s", false, Wall),
    layer("engine.commit_serial_s", "s", false, Wall),
    layer("engine.commit_parallel_s", "s", false, Wall),
    layer("engine.commit_classify_s", "s", false, Wall),
    layer("engine.dispatch_s", "s", false, Wall),
    layer("engine.merge_s", "s", false, Wall),
    layer("engine.model_tick_s", "s", false, Wall),
    layer("engine.model_wakes_s", "s", false, Wall),
    layer("engine.wheel_s", "s", false, Wall),
    layer("engine.locks_s", "s", false, Wall),
    layer("mem.partitions_s", "s", false, Wall),
    layer("mem.icnt_s", "s", false, Wall),
    layer("mem.responses_s", "s", false, Wall),
    // Memory system counters.
    layer("rop.ops", "count", false, Det),
    layer("rop.fill_stall_cycles", "cycles", false, Det),
    layer("dram.accesses", "count", false, Det),
    layer("mem.l1_miss_rate", "fraction", false, Det),
    layer("mem.l2_miss_rate", "fraction", false, Det),
    layer("icnt.packets_routed", "count", false, Det),
    // Engine activity counters.
    layer("engine.skip_ratio", "fraction", true, Det),
    layer("engine.cycles_skipped", "cycles", true, Det),
    layer("engine.sms_ticked", "count", false, Det),
    layer("engine.partitions_ticked", "count", false, Det),
    // Execution-model counters.
    layer("dab.flushes", "count", false, Det),
    layer("dab.flush_txs", "count", false, Det),
    layer("dab.fused_ops", "count", true, Det),
    layer("dab.fusion_ratio", "fraction", true, Det),
    layer("dab.entries_per_tx", "count", true, Det),
    layer("dab.buffer_full_stalls", "count", false, Det),
    layer("gpudet.serial_share", "fraction", false, Det),
    layer("gpudet.quanta", "count", false, Det),
    layer("gpudet_slowdown", "x", false, Det),
    // Results I/O and the tracing itself.
    layer("results.write_s", "s", false, Wall),
    layer("trace.overhead", "fraction", false, Wall),
    // The host: the pass's unscaled wall time, and the host's speed
    // relative to the reference that scales every other host time.
    layer("host.wall_s", "s", false, Wall),
    layer("host.speed", "x", true, Wall),
];

/// The table row for `name`, if there is one.
pub fn lookup(name: &str) -> Option<&'static Metric> {
    METRICS.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_end_to_end_rows_are_bounded() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(
                METRICS[..i].iter().all(|o| o.name != m.name),
                "{} listed twice",
                m.name
            );
            assert_eq!(m.bound.is_some(), m.kind == Kind::EndToEnd, "{}", m.name);
        }
        assert!(METRICS.len() <= 128);
        assert_eq!(lookup("pass_s").and_then(|m| m.bound), Some(0.25));
        assert!(lookup("no_such_metric").is_none());
    }

    /// `BENCHMARK.json` lists every row but `error_rate`, with the same
    /// unit, direction and bound.
    #[test]
    fn benchmark_json_mirrors_the_table() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let listed = METRICS.iter().filter(|m| m.name != "error_rate");
        for m in listed.clone() {
            let key = format!("\"name\": \"{}\"", m.name);
            let at = json
                .find(&key)
                .unwrap_or_else(|| panic!("{} missing", m.name));
            let entry = &json[at..at + json[at..].find('}').expect("entry ends")];
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert!(
                entry.contains(&format!("\"unit\": \"{}\"", m.unit)),
                "{entry}"
            );
            assert!(
                entry.contains(&format!("\"better\": \"{better}\"")),
                "{entry}"
            );
            if let Some(bound) = m.bound {
                assert!(entry.contains(&format!("\"bound\": {bound}")), "{entry}");
            }
        }
        // Four workloads plus one entry per listed metric.
        assert_eq!(json.matches("\"name\":").count(), 4 + listed.count());
    }
}
