//! Experiment scale selection.
//!
//! The paper evaluates on an 80-SM TITAN V model with full-size inputs;
//! regenerating every figure at that scale takes hours of host CPU. The
//! default [`Scale::Ci`] shrinks the machine to 16 SMs and the inputs
//! proportionally so the whole suite runs in minutes, while preserving the
//! ratios the figures are about (contention per SM, buffer pressure,
//! interconnect occupancy). [`Scale::Paper`] restores Table I and the
//! full-size workloads.
//!
//! Every bench target and tool reads the `DAB_SCALE` environment variable
//! ([`SCALE_VAR`]) through [`SCALES`]: `ci` or `paper`, nothing else.

use gpu_sim::config::GpuConfig;

/// Environment variable selecting the scale.
pub const SCALE_VAR: &str = "DAB_SCALE";

/// Every scale by its `DAB_SCALE` token.
pub const SCALES: [(&str, Scale); 2] = [("ci", Scale::Ci), ("paper", Scale::Paper)];

/// Workload and machine scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// 16-SM machine, reduced inputs; minutes per suite. The default.
    #[default]
    Ci,
    /// Table I machine (80 SMs), full-size inputs; hours per suite.
    Paper,
}

impl Scale {
    /// The GPU configuration for this scale.
    pub fn gpu(self) -> GpuConfig {
        match self {
            Scale::Ci => GpuConfig::small(),
            Scale::Paper => GpuConfig::titan_v(),
        }
    }

    /// Divides a full-size quantity down to this scale.
    pub fn shrink(self, full: usize, divisor: usize) -> usize {
        match self {
            Scale::Ci => (full / divisor).max(1),
            Scale::Paper => full,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Ci => "ci",
            Scale::Paper => "paper",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_ci() {
        assert_eq!(Scale::default(), Scale::Ci);
        assert_eq!(Scale::Ci.gpu().num_sms(), 16);
        assert_eq!(Scale::Paper.gpu().num_sms(), 80);
    }

    #[test]
    fn shrink_behaviour() {
        assert_eq!(Scale::Ci.shrink(1600, 16), 100);
        assert_eq!(Scale::Paper.shrink(1600, 16), 1600);
        assert_eq!(Scale::Ci.shrink(3, 16), 1);
    }

    #[test]
    fn labels() {
        assert_eq!(Scale::Ci.label(), "ci");
        assert_eq!(Scale::Paper.label(), "paper");
    }
}
