//! Seeded non-determinism injection.
//!
//! A software simulator is inherently deterministic, but real GPUs are not:
//! unknowable cache state from prior kernels, DRAM refresh, and racy
//! arbitration perturb latencies and orderings from run to run. Following the
//! paper's methodology (Section V: "we extended the baseline GPGPU-Sim and
//! DAB to model non-determinism in GPUs"), [`NdetSource`] injects small,
//! seed-controlled perturbations at the points where real hardware timing
//! varies: memory latencies and arbitration tie-breaks.
//!
//! Running the same workload with two different seeds models two executions
//! on real hardware. A *deterministic* architecture (DAB, GPUDet) must
//! produce bitwise-identical results regardless of the seed; the baseline
//! will not on order-sensitive kernels.
//!
//! # Examples
//!
//! ```
//! use gpu_sim::ndet::NdetSource;
//!
//! let mut a = NdetSource::seeded(1);
//! let mut b = NdetSource::seeded(1);
//! assert_eq!(a.latency_jitter(8), b.latency_jitter(8));
//!
//! let mut off = NdetSource::disabled();
//! assert_eq!(off.latency_jitter(8), 0);
//! ```

use crate::oracle::ScheduleOracle;

/// Source of timing perturbations, driven by a seed (xorshift64*).
///
/// A disabled source returns neutral values everywhere, which makes the
/// simulation perfectly repeatable *including timing* — useful for debugging
/// the simulator itself.
///
/// A source may instead carry a [`ScheduleOracle`]
/// ([`NdetSource::with_oracle`]): arbitration tie-breaks then come from the
/// oracle's explicit decision trace rather than the seeded stream, which is
/// how `dab-explore` replays chosen schedules. Oracle-driven sources are
/// *disabled* (no latency jitter) so the decision trace is the complete
/// coordinate system of the explored space.
#[derive(Debug, Clone)]
pub struct NdetSource {
    state: u64,
    enabled: bool,
    oracle: Option<ScheduleOracle>,
}

impl PartialEq for NdetSource {
    fn eq(&self, other: &Self) -> bool {
        // Oracles compare by log identity: two sources are interchangeable
        // exactly when their draws land in the same decision trace.
        let oracles_match = match (&self.oracle, &other.oracle) {
            (None, None) => true,
            (Some(a), Some(b)) => ScheduleOracle::same_log(a, b),
            _ => false,
        };
        self.state == other.state && self.enabled == other.enabled && oracles_match
    }
}

impl Eq for NdetSource {}

impl NdetSource {
    /// A source that injects perturbations derived from `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            // xorshift must not start at 0.
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            enabled: true,
            oracle: None,
        }
    }

    /// A source that injects nothing (fully repeatable timing).
    pub fn disabled() -> Self {
        Self {
            state: 1,
            enabled: false,
            oracle: None,
        }
    }

    /// A source whose arbitration tie-breaks come from `oracle`'s decision
    /// trace. The source is *disabled* (latency jitter pinned to 0), so a
    /// run is a pure function of the decision values — see
    /// [`crate::oracle`].
    pub fn with_oracle(oracle: ScheduleOracle) -> Self {
        Self {
            state: 1,
            enabled: false,
            oracle: Some(oracle),
        }
    }

    /// Whether this source injects perturbations.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether arbitration draws are routed through a [`ScheduleOracle`].
    /// Call sites use this to skip decision-eligibility computation on
    /// normal (non-exploring) runs.
    pub fn has_oracle(&self) -> bool {
        self.oracle.is_some()
    }

    /// Derives an independent child stream identified by `stream`.
    ///
    /// The child is a pure function of the parent's *current* state and the
    /// stream tag (splitmix64 on both), so a set of children forked at
    /// construction is fully determined by the seed — no matter which thread
    /// later consumes which child. This is what lets the engine hand every
    /// cluster and memory partition its own perturbation stream: draws made
    /// for one endpoint can never shift another endpoint's sequence, so
    /// injected "hardware" timing is independent of host thread interleaving.
    ///
    /// Children of a disabled source are disabled (still neutral everywhere).
    ///
    /// # Examples
    ///
    /// ```
    /// use gpu_sim::ndet::NdetSource;
    ///
    /// let root = NdetSource::seeded(7);
    /// let mut a = root.split(0);
    /// let mut b = root.split(0);
    /// assert_eq!(a.latency_jitter(64), b.latency_jitter(64));
    /// assert!(!NdetSource::disabled().split(3).is_enabled());
    /// ```
    pub fn split(&self, stream: u64) -> Self {
        Self {
            // `| 1` keeps the xorshift state non-zero, as in `seeded`.
            state: splitmix64(self.state ^ splitmix64(stream)) | 1,
            enabled: self.enabled,
            // All children share the parent's decision log: every
            // arbitration draw happens in the engine's serial commit
            // phase, so one globally-ordered trace covers the whole run.
            oracle: self.oracle.clone(),
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Extra cycles to add to a memory access, in `0..=max_extra`.
    ///
    /// Models DRAM refresh collisions, replay, and cross-kernel cache state.
    pub fn latency_jitter(&mut self, max_extra: u32) -> u32 {
        if !self.enabled || max_extra == 0 {
            return 0;
        }
        (self.next() % (max_extra as u64 + 1)) as u32
    }

    /// Breaks an arbitration tie among `n` equally-eligible requesters.
    ///
    /// Returns an index in `0..n`. A disabled source always picks 0, which is
    /// the fixed-priority arbiter a deterministic machine would use.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn arbitration_tiebreak(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot arbitrate among zero requesters");
        if !self.enabled || n == 1 {
            return 0;
        }
        (self.next() % n as u64) as usize
    }

    /// [`Self::arbitration_tiebreak`] with a decision-trace hint: when an
    /// oracle is attached, the draw becomes a logged [`crate::oracle::Decision`]
    /// tagged `tag`, with `eligible` reporting whether different values
    /// would produce different immediate effects at this site. Without an
    /// oracle this is *exactly* `arbitration_tiebreak(n)` — same values,
    /// same PRNG-state consumption — so instrumented call sites perturb
    /// nothing on normal runs.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn tiebreak_hint(&mut self, n: usize, tag: &'static str, eligible: bool) -> usize {
        assert!(n > 0, "cannot arbitrate among zero requesters");
        if let Some(oracle) = &self.oracle {
            return oracle.draw(tag, n as u32, eligible) as usize;
        }
        self.arbitration_tiebreak(n)
    }
}

/// The splitmix64 mixer (also behind [`NdetSource::seeded`]'s multiplier):
/// a bijective finalizer with full avalanche, which makes child streams
/// statistically independent even for adjacent stream tags.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = NdetSource::seeded(42);
        let mut b = NdetSource::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.latency_jitter(16), b.latency_jitter(16));
            assert_eq!(a.arbitration_tiebreak(7), b.arbitration_tiebreak(7));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = NdetSource::seeded(1);
        let mut b = NdetSource::seeded(2);
        let sa: Vec<u32> = (0..64).map(|_| a.latency_jitter(1000)).collect();
        let sb: Vec<u32> = (0..64).map(|_| b.latency_jitter(1000)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn disabled_is_neutral() {
        let mut s = NdetSource::disabled();
        assert!(!s.is_enabled());
        for _ in 0..10 {
            assert_eq!(s.latency_jitter(100), 0);
            assert_eq!(s.arbitration_tiebreak(5), 0);
        }
    }

    #[test]
    fn jitter_bounded() {
        let mut s = NdetSource::seeded(3);
        for _ in 0..1000 {
            assert!(s.latency_jitter(8) <= 8);
        }
    }

    #[test]
    fn tiebreak_in_range() {
        let mut s = NdetSource::seeded(9);
        for _ in 0..1000 {
            assert!(s.arbitration_tiebreak(4) < 4);
        }
    }

    #[test]
    fn tiebreak_covers_all_choices() {
        let mut s = NdetSource::seeded(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.arbitration_tiebreak(4)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "zero requesters")]
    fn tiebreak_zero_panics() {
        NdetSource::seeded(1).arbitration_tiebreak(0);
    }

    #[test]
    fn split_is_reproducible_and_pure() {
        let root = NdetSource::seeded(11);
        let mut a = root.split(5);
        let mut b = root.split(5);
        for _ in 0..50 {
            assert_eq!(a.latency_jitter(100), b.latency_jitter(100));
        }
        // Splitting does not consume from (or otherwise perturb) the parent.
        let mut p = NdetSource::seeded(11);
        let mut q = NdetSource::seeded(11);
        let _ = q.split(5);
        assert_eq!(p.latency_jitter(1 << 20), q.latency_jitter(1 << 20));
    }

    #[test]
    fn split_streams_are_independent() {
        let root = NdetSource::seeded(1);
        let draws = |mut s: NdetSource| -> Vec<u32> {
            (0..64).map(|_| s.latency_jitter(1 << 20)).collect()
        };
        assert_ne!(draws(root.split(0)), draws(root.split(1)));
        assert_ne!(draws(root.split(1)), draws(root.split(2)));
        // Child streams also differ from the parent's own sequence.
        assert_ne!(draws(root.clone()), draws(root.split(0)));
    }

    #[test]
    fn split_of_disabled_stays_neutral() {
        let child = NdetSource::disabled().split(42);
        assert!(!child.is_enabled());
        let mut c = child;
        assert_eq!(c.latency_jitter(100), 0);
        assert_eq!(c.arbitration_tiebreak(5), 0);
    }

    #[test]
    fn tiebreak_hint_matches_tiebreak_without_oracle() {
        // Same draws *and* same state consumption: instrumented call sites
        // must not perturb normal runs.
        let mut a = NdetSource::seeded(13);
        let mut b = NdetSource::seeded(13);
        for i in 0..200 {
            assert_eq!(
                a.arbitration_tiebreak(2),
                b.tiebreak_hint(2, crate::oracle::TAG_ICNT_MEM, i % 3 == 0)
            );
        }
        assert_eq!(a.latency_jitter(1 << 20), b.latency_jitter(1 << 20));
        let mut da = NdetSource::disabled();
        let mut db = NdetSource::disabled();
        assert_eq!(
            da.arbitration_tiebreak(5),
            db.tiebreak_hint(5, crate::oracle::TAG_DISPATCH, true)
        );
    }

    #[test]
    fn oracle_sources_replay_and_log() {
        use crate::oracle::{ScheduleOracle, TAG_DISPATCH, TAG_ICNT_CL};
        let oracle = ScheduleOracle::replay(vec![1]);
        let mut root = NdetSource::with_oracle(oracle.clone());
        assert!(root.has_oracle());
        assert!(!root.is_enabled());
        assert_eq!(root.latency_jitter(16), 0, "oracle runs pin jitter");
        let mut child = root.split(3);
        assert_eq!(root.tiebreak_hint(2, TAG_DISPATCH, true), 1);
        // The child draws from the *same* log, continuing the sequence.
        assert_eq!(child.tiebreak_hint(2, TAG_ICNT_CL, true), 0);
        let log = oracle.take_log();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].tag, log[0].value), (TAG_DISPATCH, 1));
        assert_eq!((log[1].tag, log[1].value), (TAG_ICNT_CL, 0));
    }

    #[test]
    fn zero_seed_is_valid() {
        let mut s = NdetSource::seeded(0);
        // Must not get stuck at zero state.
        let vals: Vec<u32> = (0..16).map(|_| s.latency_jitter(1 << 20)).collect();
        assert!(vals.iter().any(|&v| v != 0));
    }
}
