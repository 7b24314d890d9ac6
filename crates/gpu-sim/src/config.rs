//! GPU hardware configuration (the paper's Table I).
//!
//! [`GpuConfig`] collects every sizing parameter of the simulated GPU. Two
//! presets are provided: [`GpuConfig::titan_v`] mirrors the GPGPU-Sim TITAN V
//! configuration used by the paper, and [`GpuConfig::small`] is a scaled-down
//! machine suitable for unit tests and CI-scale experiments.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::config::GpuConfig;
//!
//! let cfg = GpuConfig::titan_v();
//! assert_eq!(cfg.num_sms(), 80);
//! assert_eq!(cfg.max_warps_per_sm, 64);
//! ```

/// Complete hardware configuration for one simulated GPU.
///
/// Field names follow the rows of Table I in the paper. All sizes are in the
/// units stated on each field. The configuration is plain data: construct one
/// with a preset and adjust fields directly before building a simulator.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
///
/// let mut cfg = GpuConfig::small();
/// cfg.num_clusters = 4;
/// assert_eq!(cfg.num_sms(), 4 * cfg.sms_per_cluster);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of compute clusters (Table I: 40).
    pub num_clusters: usize,
    /// Streaming multiprocessors per compute cluster (Table I: 2).
    pub sms_per_cluster: usize,
    /// Maximum resident warps per SM (Table I: 64).
    pub max_warps_per_sm: usize,
    /// Threads per warp (Table I: 32).
    pub warp_size: usize,
    /// Maximum resident threads per SM (Table I: 2048).
    pub max_threads_per_sm: usize,
    /// Warp schedulers per SM (Table I: 4).
    pub num_schedulers_per_sm: usize,
    /// Register file size per SM, in 32-bit registers (Table I: 65536).
    pub registers_per_sm: usize,
    /// Maximum CTAs resident per SM (hardware limit; 32 on Volta).
    pub max_ctas_per_sm: usize,

    /// Number of memory sub-partitions (L2 slices / DRAM channels).
    pub num_mem_partitions: usize,
    /// Cache line size in bytes for both cache levels (Table I: 128).
    pub line_size: usize,
    /// Sector size in bytes (sectored caches; 32 on Volta).
    pub sector_size: usize,
    /// L1 data cache size per SM in bytes (Table I: 128 KiB).
    pub l1_size: usize,
    /// L1 associativity (Table I: 64).
    pub l1_assoc: usize,
    /// L1 hit latency in core cycles.
    pub l1_hit_latency: u32,
    /// Total unified L2 size in bytes (Table I: 4.5 MiB), divided evenly
    /// across the memory partitions.
    pub l2_size: usize,
    /// L2 associativity (Table I: 24).
    pub l2_assoc: usize,
    /// L2 hit latency in cycles, charged at the memory partition.
    pub l2_hit_latency: u32,
    /// Miss-status holding registers per L1 cache.
    pub l1_mshrs: usize,
    /// Miss-status holding registers per L2 slice.
    pub l2_mshrs: usize,

    /// Zero-load DRAM access latency in cycles.
    pub dram_latency: u32,
    /// DRAM request queue capacity per partition (Table I: 32).
    pub dram_queue_capacity: usize,
    /// Minimum cycles between DRAM data bursts per partition (bandwidth model;
    /// reflects the 850 MHz memory clock relative to the 1200 MHz core clock).
    pub dram_burst_interval: u32,

    /// Interconnect flit size in bytes (Table I: 40).
    pub icnt_flit_size: usize,
    /// Interconnect input buffer size in flits per partition (Table I: 256).
    pub icnt_input_buffer: usize,
    /// Cluster ejection buffer size in flits (Table I: 32).
    pub cluster_ejection_buffer: usize,
    /// Zero-load interconnect traversal latency in cycles, each direction.
    pub icnt_latency: u32,
    /// Flits accepted per cycle per direction per endpoint.
    pub icnt_flits_per_cycle: usize,

    /// Default arithmetic instruction latency in cycles.
    pub alu_latency: u32,
    /// Atomic operations retired per cycle by each partition's ROP unit.
    pub rop_throughput: usize,
    /// Extra pipeline latency of one ROP atomic operation.
    pub rop_latency: u32,

    /// Host worker threads used *inside* one simulation (not a Table I row).
    /// Retired: the engine always runs one serial issue path, so
    /// [`validate`](Self::validate) accepts only `1`. The field stays so
    /// callers that print the retired `DAB_SIM_THREADS` knob keep reading it.
    pub sim_threads: usize,

    /// Cycle-loop implementation (not a Table I row: a simulator-host knob,
    /// set from `DAB_ENGINE`). [`EngineKind::Event`] (the default) skips
    /// provably idle SMs and schedulers and jumps over provably empty
    /// cycle ranges via a deterministic event wheel; [`EngineKind::Dense`]
    /// is the same engine with those skips turned off, visiting every SM
    /// and scheduler every cycle and checking that each skip would have
    /// been a no-op. Both produce bit-identical digests, cycle counts, and
    /// architectural statistics.
    pub engine: EngineKind,

    /// Whether the commit phase runs independence-sharded (not a Table I
    /// row). Retired: every cluster commits with the live engine resources
    /// in cluster order, so [`validate`](Self::validate) accepts only
    /// `true`. The field stays so callers that print the retired
    /// `DAB_COMMIT_SHARD` knob keep reading it.
    pub commit_shard: bool,

    /// Structured event tracing mode (not a Table I row: a simulator-host
    /// knob, set from `DAB_TRACE`). [`obs::TraceMode::Off`] (the default)
    /// constructs no tracer at all; `summary` records rare high-signal
    /// events (lock grants, flush phases, GPUDet mode transitions) plus
    /// the sample grid; `full` records everything down to per-instruction
    /// issue. The trace is recorded in commit order, so its deterministic
    /// sections are byte-identical for either [`engine`](Self::engine).
    pub trace: obs::TraceMode,

    /// Sampling grid interval in cycles for the trace's time-series rows
    /// (not a Table I row: a simulator-host knob, set from
    /// `DAB_TRACE_SAMPLE`). Rows land on cycles that are exact multiples
    /// of this interval; must be positive.
    pub trace_sample_interval: u64,

    /// Whether the fine-grained engine span profiler is on (not a Table I
    /// row: a simulator-host knob, set from `DAB_PROFILE`). When on, every
    /// engine phase (partition tick, interconnect, issue walk, dispatch,
    /// event-wheel advance, ...) accumulates host wall-clock
    /// into a [`obs::PhaseProfile`] attached to the run report. A
    /// throughput knob only: profile data lives entirely in the `wall.*`
    /// namespace and simulation results are bit-identical either way; when
    /// off (the default) no timer is read, so the cost is one branch per
    /// phase.
    pub profile: bool,
}

/// Which cycle-loop implementation drives the simulation.
///
/// Both run one engine and differ only in what they skip. The event
/// engine skips; the dense engine is the checking reference, pinned
/// equivalent by `crates/gpu-sim/tests/engine_equivalence.rs` and the CI
/// byte-diff job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Visit every SM and scheduler every cycle, skipping nothing, and
    /// panic if a visit the event engine would skip (a scheduler whose
    /// `ready_bound` lies in the future) finds a ready warp.
    Dense,
    /// Activity-driven: hierarchical active sets plus a cycle-skipping
    /// event wheel. Bit-identical to [`EngineKind::Dense`], faster.
    #[default]
    Event,
}

impl GpuConfig {
    /// The paper's TITAN V-like GPGPU-Sim configuration (Table I).
    pub fn titan_v() -> Self {
        Self {
            num_clusters: 40,
            sms_per_cluster: 2,
            max_warps_per_sm: 64,
            warp_size: 32,
            max_threads_per_sm: 2048,
            num_schedulers_per_sm: 4,
            registers_per_sm: 65536,
            max_ctas_per_sm: 32,
            num_mem_partitions: 24,
            line_size: 128,
            sector_size: 32,
            l1_size: 128 * 1024,
            l1_assoc: 64,
            l1_hit_latency: 28,
            l2_size: 4608 * 1024,
            l2_assoc: 24,
            l2_hit_latency: 120,
            l1_mshrs: 64,
            l2_mshrs: 128,
            dram_latency: 100,
            dram_queue_capacity: 32,
            dram_burst_interval: 2,
            icnt_flit_size: 40,
            icnt_input_buffer: 256,
            cluster_ejection_buffer: 32,
            icnt_latency: 12,
            icnt_flits_per_cycle: 2,
            alu_latency: 4,
            // Volta L2 slices are banked and retire several atomics per
            // cycle each; with 1/cycle the ROP, not the interconnect, would
            // bound every atomic burst.
            rop_throughput: 4,
            rop_latency: 8,
            sim_threads: 1,
            engine: EngineKind::Event,
            commit_shard: true,
            trace: obs::TraceMode::Off,
            trace_sample_interval: obs::DEFAULT_SAMPLE_INTERVAL,
            profile: false,
        }
    }

    /// A small 16-SM machine for tests and CI-scale experiments.
    ///
    /// Keeps the same per-SM shape (64 warps, 4 schedulers, sectored caches)
    /// so that scheduling and buffering behaviour is representative while
    /// whole-suite runs stay fast.
    pub fn small() -> Self {
        Self {
            num_clusters: 8,
            sms_per_cluster: 2,
            // 8 slices of 96 KiB (24-way, 128 B lines -> 32 sets each).
            l2_size: 768 * 1024,
            num_mem_partitions: 8,
            ..Self::titan_v()
        }
    }

    /// A tiny 2-SM machine for focused unit tests.
    pub fn tiny() -> Self {
        Self {
            num_clusters: 2,
            sms_per_cluster: 1,
            // 2 slices of 96 KiB.
            l2_size: 192 * 1024,
            num_mem_partitions: 2,
            ..Self::titan_v()
        }
    }

    /// Total number of SMs in the machine.
    pub fn num_sms(&self) -> usize {
        self.num_clusters * self.sms_per_cluster
    }

    /// Sectors per cache line.
    pub fn sectors_per_line(&self) -> usize {
        self.line_size / self.sector_size
    }

    /// Maximum warps managed by one warp scheduler (hardware slots).
    pub fn warps_per_scheduler(&self) -> usize {
        self.max_warps_per_sm / self.num_schedulers_per_sm
    }

    /// L2 slice size per memory partition in bytes.
    pub fn l2_slice_size(&self) -> usize {
        self.l2_size / self.num_mem_partitions
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first violated constraint,
    /// e.g. a line size that is not a multiple of the sector size.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_clusters == 0 || self.sms_per_cluster == 0 {
            return Err(ConfigError::new("machine must have at least one SM"));
        }
        if self.warp_size == 0 || self.warp_size > 64 {
            return Err(ConfigError::new("warp size must be in 1..=64"));
        }
        if self.line_size == 0
            || self.sector_size == 0
            || !self.line_size.is_multiple_of(self.sector_size)
        {
            return Err(ConfigError::new(
                "line size must be a non-zero multiple of sector size",
            ));
        }
        if self.num_schedulers_per_sm == 0
            || !self
                .max_warps_per_sm
                .is_multiple_of(self.num_schedulers_per_sm)
        {
            return Err(ConfigError::new(
                "warps per SM must divide evenly among schedulers",
            ));
        }
        if self.num_mem_partitions == 0 {
            return Err(ConfigError::new("need at least one memory partition"));
        }
        if self.l1_assoc == 0 || !self.l1_size.is_multiple_of(self.l1_assoc * self.line_size) {
            return Err(ConfigError::new("L1 size must be assoc * line * sets"));
        }
        if self.l2_assoc == 0
            || !self
                .l2_slice_size()
                .is_multiple_of(self.l2_assoc * self.line_size)
        {
            return Err(ConfigError::new(
                "L2 slice size must be assoc * line * sets",
            ));
        }
        // The caches index sets with shifts and masks.
        let l1_sets = self.l1_size / (self.l1_assoc * self.line_size);
        let l2_sets = self.l2_slice_size() / (self.l2_assoc * self.line_size);
        if ![self.line_size, self.sector_size, l1_sets, l2_sets]
            .iter()
            .all(|n| n.is_power_of_two())
        {
            return Err(ConfigError::new(
                "cache line size, sector size and L1/L2 set counts must be powers of two",
            ));
        }
        if self.icnt_flit_size == 0 || self.icnt_flits_per_cycle == 0 {
            return Err(ConfigError::new("interconnect bandwidth must be non-zero"));
        }
        if self.sim_threads != 1 {
            return Err(ConfigError::new(
                "sim_threads must be 1: intra-simulation threads were retired",
            ));
        }
        if !self.commit_shard {
            return Err(ConfigError::new(
                "commit_shard must be true: the serial-commit switch was retired",
            ));
        }
        if self.trace_sample_interval == 0 {
            return Err(ConfigError::new(
                "trace_sample_interval must be positive (cycles between sample rows)",
            ));
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::titan_v()
    }
}

/// Error returned by [`GpuConfig::validate`] for inconsistent configurations.
///
/// # Examples
///
/// ```
/// use gpu_sim::config::GpuConfig;
///
/// let mut cfg = GpuConfig::small();
/// cfg.sector_size = 33;
/// assert!(cfg.validate().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: &'static str,
}

impl ConfigError {
    fn new(message: &'static str) -> Self {
        Self { message }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid gpu configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_v_matches_table_1() {
        let cfg = GpuConfig::titan_v();
        assert_eq!(cfg.num_clusters, 40);
        assert_eq!(cfg.sms_per_cluster, 2);
        assert_eq!(cfg.num_sms(), 80);
        assert_eq!(cfg.max_warps_per_sm, 64);
        assert_eq!(cfg.warp_size, 32);
        assert_eq!(cfg.max_threads_per_sm, 2048);
        assert_eq!(cfg.num_schedulers_per_sm, 4);
        assert_eq!(cfg.registers_per_sm, 65536);
        assert_eq!(cfg.line_size, 128);
        assert_eq!(cfg.l2_size, 4608 * 1024);
        assert_eq!(cfg.dram_queue_capacity, 32);
        assert_eq!(cfg.icnt_flit_size, 40);
        assert_eq!(cfg.icnt_input_buffer, 256);
        assert_eq!(cfg.cluster_ejection_buffer, 32);
    }

    #[test]
    fn presets_validate() {
        GpuConfig::titan_v().validate().unwrap();
        GpuConfig::small().validate().unwrap();
        GpuConfig::tiny().validate().unwrap();
    }

    #[test]
    fn derived_quantities() {
        let cfg = GpuConfig::titan_v();
        assert_eq!(cfg.sectors_per_line(), 4);
        assert_eq!(cfg.warps_per_scheduler(), 16);
        assert_eq!(cfg.l2_slice_size(), 4608 * 1024 / 24);
    }

    #[test]
    fn invalid_sector_size_rejected() {
        let mut cfg = GpuConfig::small();
        cfg.sector_size = 48;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_power_of_two_cache_geometry_rejected() {
        // A 64-way L1 of 128 B lines with 48 sets.
        let mut cfg = GpuConfig::small();
        cfg.l1_size = 48 * 64 * 128;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("powers of two"), "{err}");
    }

    #[test]
    fn invalid_scheduler_split_rejected() {
        let mut cfg = GpuConfig::small();
        cfg.num_schedulers_per_sm = 5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_sms_rejected() {
        let mut cfg = GpuConfig::small();
        cfg.num_clusters = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_trace_sample_interval_rejected() {
        let mut cfg = GpuConfig::small();
        cfg.trace_sample_interval = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("trace_sample_interval"));
    }

    #[test]
    fn retired_sim_threads_rejected() {
        for threads in [0, 2, 4] {
            let mut cfg = GpuConfig::small();
            cfg.sim_threads = threads;
            let err = cfg.validate().unwrap_err();
            assert!(err.to_string().contains("sim_threads"), "{threads}: {err}");
        }
    }

    #[test]
    fn retired_commit_shard_off_rejected() {
        let mut cfg = GpuConfig::small();
        cfg.commit_shard = false;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("commit_shard"));
    }

    #[test]
    fn config_error_displays() {
        let mut cfg = GpuConfig::small();
        cfg.warp_size = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("warp size"));
    }
}
