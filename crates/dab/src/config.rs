//! DAB design-space configuration.
//!
//! Every axis the paper evaluates is a field of [`DabConfig`]: buffer
//! placement (warp vs. scheduler level, Figs. 5a/5b), capacity (Fig. 12),
//! determinism-aware scheduler (Fig. 11), atomic fusion (Fig. 13), flush
//! coalescing (Fig. 17), offset flushing (Fig. 16), SM gating (Fig. 14) and
//! the relaxed non-deterministic variants of the limitation study (Fig. 18).

use gpu_sim::sched::SchedKind;

/// Where atomic buffers live (Section IV-B vs IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferLevel {
    /// One buffer per warp (simple, 16× the area). Works with any
    /// scheduler — contents are deterministic from program + lane order.
    Warp,
    /// One buffer per warp scheduler (the paper's main design). Requires a
    /// determinism-aware scheduler so the shared fill order is reproducible.
    Scheduler,
}

/// The limitation-study relaxations of Section VI-B4 (Fig. 18). All of them
/// trade determinism away for performance insight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relaxation {
    /// Fully deterministic DAB.
    None,
    /// DAB-NR: atomics go to the ROP in *arrival* order (no reordering at
    /// the memory partition).
    Nr,
    /// DAB-NR-OF: additionally allow buffer flushes to overlap (warps
    /// resume as soon as their entries are pushed, before write-backs).
    NrOf,
    /// DAB-NR-CIF: additionally flush at cluster granularity — each cluster
    /// flushes independently when full, removing the GPU-wide implicit
    /// barrier.
    NrCif,
}

impl Relaxation {
    /// Whether this variant still guarantees deterministic results.
    pub fn is_deterministic(self) -> bool {
        self == Relaxation::None
    }
}

/// Full DAB configuration.
///
/// The default is the paper's headline configuration
/// (`GWAT-64-AF-Coalescing`, Fig. 10): scheduler-level buffers, 64 entries,
/// GWAT scheduling, atomic fusion and flush coalescing on.
#[derive(Debug, Clone, PartialEq)]
pub struct DabConfig {
    /// Buffer placement.
    pub level: BufferLevel,
    /// Entries per buffer (32 / 64 / 128 / 256 in Fig. 12).
    pub capacity: usize,
    /// Warp scheduling policy (must be determinism-aware for
    /// scheduler-level buffers).
    pub scheduler: SchedKind,
    /// Atomic fusion (Section IV-E).
    pub fusion: bool,
    /// Flush coalescing: merge flushed entries per cache sector
    /// (Section IV-F).
    pub coalescing: bool,
    /// Offset flushing: even SMs start flushing at the 32nd entry
    /// (Section VI-B2).
    pub offset_flush: bool,
    /// Distribute CTAs over only the first `n` SMs (Fig. 14 "gating").
    pub active_sms: Option<usize>,
    /// Relaxed variant for the limitation study.
    pub relax: Relaxation,
    /// Mimic the virtual-write-queue implementation of the partition
    /// reorder buffer: every out-of-order atomic evicts an L2 sector
    /// (Section V's feasibility experiment).
    pub vwq_mimic: bool,
    /// Cycles to write one warp instruction into a buffer (the paper treats
    /// buffered atomics like regular arithmetic).
    pub buffer_write_cycles: u32,
    /// Kernels (by name) for which DAB is disabled (Section IV-G: API calls
    /// toggle the determinism hardware off for kernels that do not need
    /// it). Bypassed kernels route atomics straight to memory and release
    /// barriers immediately — i.e. they run like the baseline, except for
    /// the determinism-aware scheduler, which "operates like GTO in the
    /// absence of reductions".
    pub bypass_kernels: std::collections::BTreeSet<String>,
}

impl DabConfig {
    /// The paper's headline configuration: GWAT-64-AF-Coalescing.
    pub fn paper_default() -> Self {
        Self {
            level: BufferLevel::Scheduler,
            capacity: 64,
            scheduler: SchedKind::Gwat,
            fusion: true,
            coalescing: true,
            offset_flush: false,
            active_sms: None,
            relax: Relaxation::None,
            vwq_mimic: false,
            buffer_write_cycles: 4,
            bypass_kernels: std::collections::BTreeSet::new(),
        }
    }

    /// Warp-level buffering with conventional GTO scheduling ("WarpGTO" in
    /// Fig. 11): per-warp contents are deterministic from program order, so
    /// no determinism-aware scheduler is needed.
    pub fn warp_level() -> Self {
        Self {
            level: BufferLevel::Warp,
            capacity: 32,
            scheduler: SchedKind::Gto,
            fusion: false,
            coalescing: false,
            ..Self::paper_default()
        }
    }

    /// Sets the scheduler (builder style).
    pub fn with_scheduler(mut self, scheduler: SchedKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the buffer capacity (builder style).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Enables or disables atomic fusion (builder style).
    pub fn with_fusion(mut self, fusion: bool) -> Self {
        self.fusion = fusion;
        self
    }

    /// Enables or disables flush coalescing (builder style).
    pub fn with_coalescing(mut self, coalescing: bool) -> Self {
        self.coalescing = coalescing;
        self
    }

    /// Enables or disables offset flushing (builder style).
    pub fn with_offset_flush(mut self, offset: bool) -> Self {
        self.offset_flush = offset;
        self
    }

    /// Selects a relaxed variant (builder style).
    pub fn with_relaxation(mut self, relax: Relaxation) -> Self {
        self.relax = relax;
        self
    }

    /// Restricts CTA distribution to the first `n` SMs (builder style).
    pub fn with_active_sms(mut self, n: usize) -> Self {
        self.active_sms = Some(n);
        self
    }

    /// Disables DAB for the named kernel (builder style; Section IV-G).
    pub fn with_bypass_kernel(mut self, name: impl Into<String>) -> Self {
        self.bypass_kernels.insert(name.into());
        self
    }

    /// Validates internal consistency of the design point, mirroring
    /// [`gpu_sim::config::GpuConfig::validate`].
    ///
    /// # Errors
    ///
    /// Returns a [`DabConfigError`] describing the first violated
    /// constraint: zero-entry buffers, a zero buffer-write cost, gating to
    /// zero SMs, or a scheduler-level buffer paired with a scheduler that
    /// cannot make the shared fill order deterministic (the per-warp /
    /// per-scheduler inconsistency of Section IV-C).
    pub fn validate(&self) -> Result<(), DabConfigError> {
        if self.capacity == 0 {
            return Err(DabConfigError::new("buffer must have at least one entry"));
        }
        if self.buffer_write_cycles == 0 {
            return Err(DabConfigError::new(
                "buffer write must cost at least one cycle",
            ));
        }
        if self.active_sms == Some(0) {
            return Err(DabConfigError::new(
                "SM gating must leave at least one active SM",
            ));
        }
        if self.level == BufferLevel::Scheduler
            && !self.scheduler.is_determinism_aware()
            && self.relax.is_deterministic()
        {
            return Err(DabConfigError::new(
                "scheduler-level buffers need a determinism-aware scheduler \
                 (or an explicitly relaxed variant)",
            ));
        }
        if self.offset_flush && self.capacity < 2 {
            return Err(DabConfigError::new(
                "offset flushing needs at least two buffer entries",
            ));
        }
        Ok(())
    }

    /// Short label in the paper's naming style, e.g.
    /// `"GWAT-64-AF-Coalescing"`.
    pub fn label(&self) -> String {
        let mut s = match self.level {
            BufferLevel::Warp => format!("Warp{}-{}", self.scheduler, self.capacity),
            BufferLevel::Scheduler => format!("{}-{}", self.scheduler, self.capacity),
        };
        if self.fusion {
            s.push_str("-AF");
        }
        if self.coalescing {
            s.push_str("-Coalescing");
        }
        if self.offset_flush {
            s.push_str("-Offset");
        }
        match self.relax {
            Relaxation::None => {}
            Relaxation::Nr => s.push_str("-NR"),
            Relaxation::NrOf => s.push_str("-NR-OF"),
            Relaxation::NrCif => s.push_str("-NR-CIF"),
        }
        s
    }
}

impl Default for DabConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Error returned by [`DabConfig::validate`] for inconsistent design points.
///
/// # Examples
///
/// ```
/// use dab::DabConfig;
///
/// let cfg = DabConfig::paper_default().with_capacity(0);
/// assert!(cfg.validate().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DabConfigError {
    message: &'static str,
}

impl DabConfigError {
    fn new(message: &'static str) -> Self {
        Self { message }
    }
}

impl std::fmt::Display for DabConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid DAB configuration: {}", self.message)
    }
}

impl std::error::Error for DabConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_headline_config() {
        let c = DabConfig::paper_default();
        assert_eq!(c.level, BufferLevel::Scheduler);
        assert_eq!(c.capacity, 64);
        assert_eq!(c.scheduler, SchedKind::Gwat);
        assert!(c.fusion);
        assert!(c.coalescing);
        assert_eq!(c.label(), "GWAT-64-AF-Coalescing");
    }

    #[test]
    fn builders_compose() {
        let c = DabConfig::paper_default()
            .with_scheduler(SchedKind::Srr)
            .with_capacity(256)
            .with_fusion(false)
            .with_coalescing(false)
            .with_offset_flush(true);
        assert_eq!(c.label(), "SRR-256-Offset");
    }

    #[test]
    fn relaxation_labels() {
        for (r, suffix) in [
            (Relaxation::Nr, "-NR"),
            (Relaxation::NrOf, "-NR-OF"),
            (Relaxation::NrCif, "-NR-CIF"),
        ] {
            let c = DabConfig::paper_default().with_relaxation(r);
            assert!(c.label().ends_with(suffix), "{}", c.label());
            assert!(!r.is_deterministic());
        }
        assert!(Relaxation::None.is_deterministic());
    }

    #[test]
    fn warp_level_label() {
        assert_eq!(DabConfig::warp_level().label(), "WarpGTO-32");
    }

    #[test]
    fn presets_validate() {
        DabConfig::paper_default().validate().unwrap();
        DabConfig::warp_level().validate().unwrap();
        for relax in [Relaxation::Nr, Relaxation::NrOf, Relaxation::NrCif] {
            DabConfig::paper_default()
                .with_relaxation(relax)
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn zero_capacity_rejected() {
        let err = DabConfig::paper_default()
            .with_capacity(0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("at least one entry"), "{err}");
    }

    #[test]
    fn zero_write_cost_rejected() {
        let cfg = DabConfig {
            buffer_write_cycles: 0,
            ..DabConfig::paper_default()
        };
        assert!(cfg.validate().unwrap_err().to_string().contains("cycle"));
    }

    #[test]
    fn zero_active_sms_rejected() {
        let err = DabConfig::paper_default()
            .with_active_sms(0)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("active SM"), "{err}");
        DabConfig::paper_default()
            .with_active_sms(1)
            .validate()
            .unwrap();
    }

    #[test]
    fn scheduler_level_needs_determinism_aware_scheduler() {
        let cfg = DabConfig::paper_default().with_scheduler(SchedKind::Gto);
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("determinism-aware"), "{err}");
        // Warp-level buffers tolerate any scheduler (contents are
        // deterministic from program order alone)...
        DabConfig::warp_level()
            .with_scheduler(SchedKind::Gto)
            .validate()
            .unwrap();
        // ...and explicitly relaxed variants opt out of the guarantee.
        DabConfig::paper_default()
            .with_scheduler(SchedKind::Gto)
            .with_relaxation(Relaxation::Nr)
            .validate()
            .unwrap();
    }

    #[test]
    fn offset_flush_needs_two_entries() {
        let cfg = DabConfig::paper_default()
            .with_capacity(1)
            .with_offset_flush(true);
        assert!(cfg.validate().is_err());
    }
}
