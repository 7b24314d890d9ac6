//! Replayable decision injection for schedule-space exploration.
//!
//! Normal runs perturb timing through [`crate::ndet::NdetSource`]'s seeded
//! stream: every arbitration tie-break is an anonymous PRNG draw, so the
//! schedule space can only be *sampled* by varying seeds. A
//! [`ScheduleOracle`] replaces the anonymous stream with an explicit
//! **decision trace**: each tie-break becomes a numbered [`Decision`] that
//! is either forced (replay) or drawn (record) and always logged. The
//! `dab-explore` model checker enumerates schedules by replaying decision
//! prefixes and branching on the logged continuations.
//!
//! Two properties make the trace a faithful coordinate system for the
//! schedule space:
//!
//! - **Global order.** Every consumer of a split [`crate::ndet::NdetSource`]
//!   shares one oracle (the handle is cloned across
//!   [`crate::ndet::NdetSource::split`]), and all arbitration draws happen
//!   in the engine's serial commit phase, so the log order is the engine's
//!   deterministic visit order.
//! - **Effect classes.** Call sites report whether the draw is *eligible*
//!   to change the machine's immediate next action (e.g. whether the two
//!   possible rotation starts would serve different queues). Ineligible
//!   draws take the canonical value `0`; since any value produces the same
//!   immediate effect, collapsing them loses no reachable outcome, which
//!   is what lets the explorer prune them from its branching set.
//!
//! Oracle-driven sources are constructed *disabled*
//! ([`crate::ndet::NdetSource::with_oracle`]), so latency jitter is pinned
//! to zero: the explored space is exactly the arbitration nondeterminism.

use std::sync::{Arc, Mutex};

/// Decision-site tag: dynamic CTA dispatch rotation (engine).
pub const TAG_DISPATCH: &str = "dispatch";
/// Decision-site tag: crossbar arbitration toward a memory partition.
pub const TAG_ICNT_MEM: &str = "icnt-mem";
/// Decision-site tag: crossbar arbitration toward a cluster.
pub const TAG_ICNT_CL: &str = "icnt-cl";

/// One logged arbitration decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Which kind of site drew (one of the `TAG_*` constants).
    pub tag: &'static str,
    /// Number of alternatives the site offered (the draw is `0..domain`).
    pub domain: u32,
    /// The value the site received.
    pub value: u32,
    /// Whether the site reported that different values would produce
    /// different immediate effects. Only eligible decisions are branch
    /// points for the explorer.
    pub eligible: bool,
}

#[derive(Debug)]
struct OracleCore {
    /// Values forced for the leading positions (replay prefix).
    forced: Vec<u32>,
    /// `Some(state)` samples eligible positions beyond the prefix with an
    /// xorshift64* stream (record mode); `None` takes the canonical `0`.
    rng: Option<u64>,
    log: Vec<Decision>,
}

/// Shared, replayable decision source. Cloning shares the underlying log;
/// see the module docs for why one shared log is the right granularity.
#[derive(Debug, Clone)]
pub struct ScheduleOracle {
    core: Arc<Mutex<OracleCore>>,
}

impl ScheduleOracle {
    /// An oracle that forces the leading decisions to `forced` and takes
    /// the canonical value `0` afterwards.
    pub fn replay(forced: Vec<u32>) -> Self {
        Self {
            core: Arc::new(Mutex::new(OracleCore {
                forced,
                rng: None,
                log: Vec::new(),
            })),
        }
    }

    /// The canonical schedule: every decision takes value `0`.
    pub fn canonical() -> Self {
        Self::replay(Vec::new())
    }

    /// An oracle that samples *eligible* decisions uniformly from a seeded
    /// stream (and takes `0` at ineligible ones). Used to cross-check the
    /// exhaustive enumeration against random scheduling within the same
    /// pinned-jitter space.
    pub fn record(seed: u64) -> Self {
        Self {
            core: Arc::new(Mutex::new(OracleCore {
                forced: Vec::new(),
                // xorshift must not start at 0, as in `NdetSource::seeded`.
                rng: Some(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1),
                log: Vec::new(),
            })),
        }
    }

    /// Draws the next decision. Forced positions replay their value;
    /// positions beyond the prefix take `0` (replay mode) or, when
    /// `eligible`, a sample (record mode).
    ///
    /// # Panics
    ///
    /// Panics when `domain == 0` or a forced value is out of range — a
    /// forced trace only makes sense against the decision sequence that
    /// produced it.
    pub fn draw(&self, tag: &'static str, domain: u32, eligible: bool) -> u32 {
        assert!(domain > 0, "cannot decide among zero alternatives");
        let mut core = self.core.lock().expect("oracle lock");
        let pos = core.log.len();
        let value = if pos < core.forced.len() {
            let v = core.forced[pos];
            assert!(
                v < domain,
                "forced decision {pos} = {v} out of domain {domain} at {tag}"
            );
            v
        } else if eligible && domain > 1 {
            match &mut core.rng {
                Some(state) => {
                    let mut x = *state;
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    *state = x;
                    (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % domain as u64) as u32
                }
                None => 0,
            }
        } else {
            0
        };
        core.log.push(Decision {
            tag,
            domain,
            value,
            eligible,
        });
        value
    }

    /// Takes the decision log recorded so far, leaving it empty.
    pub fn take_log(&self) -> Vec<Decision> {
        std::mem::take(&mut self.core.lock().expect("oracle lock").log)
    }

    /// Number of decisions drawn so far.
    pub fn log_len(&self) -> usize {
        self.core.lock().expect("oracle lock").log.len()
    }

    /// Whether two handles share one decision log.
    pub fn same_log(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.core, &b.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_forces_prefix_then_canonical() {
        let o = ScheduleOracle::replay(vec![1, 0, 1]);
        assert_eq!(o.draw(TAG_DISPATCH, 2, true), 1);
        assert_eq!(o.draw(TAG_ICNT_MEM, 2, false), 0);
        assert_eq!(o.draw(TAG_ICNT_MEM, 2, true), 1);
        // Beyond the prefix: canonical 0 even when eligible.
        assert_eq!(o.draw(TAG_ICNT_CL, 2, true), 0);
        let log = o.take_log();
        assert_eq!(log.len(), 4);
        assert_eq!(log[0].value, 1);
        assert!(log[0].eligible);
        assert!(!log[1].eligible);
        assert_eq!(o.log_len(), 0);
    }

    #[test]
    fn record_samples_only_eligible_positions() {
        let o = ScheduleOracle::record(7);
        let mut any_nonzero = false;
        for i in 0..64 {
            let eligible = i % 2 == 0;
            let v = o.draw(TAG_ICNT_MEM, 2, eligible);
            if !eligible {
                assert_eq!(v, 0, "ineligible draws are canonical");
            }
            any_nonzero |= v != 0;
        }
        assert!(any_nonzero, "a seeded recorder must explore");
        // Same seed, same trace.
        let p = ScheduleOracle::record(7);
        for d in o.take_log() {
            assert_eq!(p.draw(d.tag, d.domain, d.eligible), d.value);
        }
    }

    #[test]
    fn clones_share_one_log() {
        let o = ScheduleOracle::canonical();
        let c = o.clone();
        assert!(ScheduleOracle::same_log(&o, &c));
        c.draw(TAG_DISPATCH, 2, true);
        assert_eq!(o.log_len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn out_of_range_forced_value_panics() {
        ScheduleOracle::replay(vec![5]).draw(TAG_DISPATCH, 2, true);
    }
}
