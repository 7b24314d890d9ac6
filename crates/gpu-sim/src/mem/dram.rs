//! Per-partition DRAM channel model.
//!
//! A bounded request queue (Table I: 32 entries) serviced at one burst every
//! [`GpuConfig::dram_burst_interval`] cycles, each completing after the
//! zero-load latency plus a seeded jitter term — the jitter is one of the
//! injected hardware non-determinism sources (refresh, replay, bank state
//! left over from prior kernels).
//!
//! [`GpuConfig::dram_burst_interval`]: crate::config::GpuConfig::dram_burst_interval

use std::collections::VecDeque;

use crate::config::GpuConfig;
use crate::ndet::NdetSource;

/// What a completed DRAM access was for; the partition resumes the matching
/// state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramUse {
    /// Sector fill backing an L2 load miss.
    FillForLoad {
        /// Sector-aligned address being filled.
        sector_addr: u64,
    },
    /// Sector fill backing a ROP atomic that missed in L2.
    FillForRop {
        /// Sector-aligned address being filled.
        sector_addr: u64,
    },
    /// Write-through store that missed in L2 (write-no-allocate).
    Write,
}

#[derive(Debug)]
struct InFlight {
    done_cycle: u64,
    usage: DramUse,
}

/// One DRAM channel.
#[derive(Debug)]
pub struct Dram {
    queue: VecDeque<DramUse>,
    in_flight: Vec<InFlight>,
    /// The earliest `done_cycle` in `in_flight` (`u64::MAX` when empty),
    /// kept so [`next_event_cycle`](Self::next_event_cycle) scans nothing.
    next_done: u64,
    capacity: usize,
    latency: u32,
    burst_interval: u32,
    next_issue_cycle: u64,
    max_jitter: u32,
    serviced: u64,
}

impl Dram {
    /// Builds a channel from the GPU configuration.
    ///
    /// `max_jitter` is the largest extra latency the non-determinism source
    /// may add per access (0 disables jitter even with an enabled source).
    pub fn new(cfg: &GpuConfig, max_jitter: u32) -> Self {
        Self {
            queue: VecDeque::new(),
            in_flight: Vec::new(),
            next_done: u64::MAX,
            capacity: cfg.dram_queue_capacity,
            latency: cfg.dram_latency,
            burst_interval: cfg.dram_burst_interval,
            next_issue_cycle: 0,
            max_jitter,
            serviced: 0,
        }
    }

    /// Whether the request queue has room.
    pub fn can_accept(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Requests queued and not yet issued.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a request. Returns `false` (dropping nothing) if full;
    /// callers must retry later.
    pub fn push(&mut self, usage: DramUse) -> bool {
        if !self.can_accept() {
            return false;
        }
        self.queue.push_back(usage);
        true
    }

    /// Advances one cycle; returns every access that completed this cycle.
    pub fn tick(&mut self, cycle: u64, ndet: &mut NdetSource) -> Vec<DramUse> {
        // Issue at most one burst per interval.
        if cycle >= self.next_issue_cycle {
            if let Some(usage) = self.queue.pop_front() {
                let jitter = ndet.latency_jitter(self.max_jitter);
                let done_cycle = cycle + self.latency as u64 + jitter as u64;
                self.in_flight.push(InFlight { done_cycle, usage });
                self.next_done = self.next_done.min(done_cycle);
                self.next_issue_cycle = cycle + self.burst_interval as u64;
            }
        }
        let mut done = Vec::new();
        if self.next_done > cycle {
            return done;
        }
        self.next_done = u64::MAX;
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].done_cycle <= cycle {
                done.push(self.in_flight.swap_remove(i).usage);
                self.serviced += 1;
            } else {
                self.next_done = self.next_done.min(self.in_flight[i].done_cycle);
                i += 1;
            }
        }
        done
    }

    /// One-line queue summary for stall diagnostics: queue depth,
    /// in-flight accesses with their completion cycles, and issue state.
    pub fn queue_summary(&self) -> String {
        format!(
            "queued={} in_flight={} nearest_done_cycle={:?} next_issue_cycle={} serviced={}",
            self.queue.len(),
            self.in_flight.len(),
            self.in_flight.iter().map(|f| f.done_cycle).min(),
            self.next_issue_cycle,
            self.serviced
        )
    }

    /// Whether any request is queued or in flight.
    pub fn is_busy(&self) -> bool {
        !self.queue.is_empty() || !self.in_flight.is_empty()
    }

    /// Total accesses completed.
    pub fn serviced(&self) -> u64 {
        self.serviced
    }

    /// Earliest future completion or issue opportunity, for fast-forwarding.
    pub fn next_event_cycle(&self) -> Option<u64> {
        debug_assert_eq!(
            self.in_flight.iter().map(|f| f.done_cycle).min(),
            (self.next_done != u64::MAX).then_some(self.next_done)
        );
        let fill = (self.next_done != u64::MAX).then_some(self.next_done);
        let issue = if self.queue.is_empty() {
            None
        } else {
            Some(self.next_issue_cycle)
        };
        match (fill, issue) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(&GpuConfig::tiny(), 0)
    }

    #[test]
    fn completes_after_latency() {
        let mut d = dram();
        let mut ndet = NdetSource::disabled();
        assert!(d.push(DramUse::Write));
        let mut done_at = None;
        for cycle in 0..500 {
            if !d.tick(cycle, &mut ndet).is_empty() {
                done_at = Some(cycle);
                break;
            }
        }
        assert_eq!(done_at, Some(GpuConfig::tiny().dram_latency as u64));
        assert!(!d.is_busy());
        assert_eq!(d.serviced(), 1);
    }

    #[test]
    fn queue_capacity_enforced() {
        let mut d = dram();
        let cap = GpuConfig::tiny().dram_queue_capacity;
        for _ in 0..cap {
            assert!(d.push(DramUse::Write));
        }
        assert!(!d.can_accept());
        assert!(!d.push(DramUse::Write));
    }

    #[test]
    fn bandwidth_limits_issue() {
        let mut d = dram();
        let mut ndet = NdetSource::disabled();
        for _ in 0..4 {
            d.push(DramUse::Write);
        }
        let mut completions = Vec::new();
        for cycle in 0..500 {
            for _ in d.tick(cycle, &mut ndet) {
                completions.push(cycle);
            }
        }
        assert_eq!(completions.len(), 4);
        // Spaced by burst interval (2 cycles).
        for w in completions.windows(2) {
            assert!(w[1] - w[0] >= GpuConfig::tiny().dram_burst_interval as u64);
        }
    }

    #[test]
    fn jitter_changes_latency_across_seeds() {
        let run = |seed: u64| {
            let mut d = Dram::new(&GpuConfig::tiny(), 32);
            let mut ndet = NdetSource::seeded(seed);
            d.push(DramUse::Write);
            for cycle in 0..500 {
                if !d.tick(cycle, &mut ndet).is_empty() {
                    return cycle;
                }
            }
            panic!(
                "DRAM write under jitter seed {seed} never completed by cycle 500: {}",
                d.queue_summary()
            );
        };
        let times: Vec<u64> = (0..8).map(run).collect();
        assert!(times.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn usage_roundtrips() {
        let mut d = dram();
        let mut ndet = NdetSource::disabled();
        d.push(DramUse::FillForRop { sector_addr: 0x40 });
        for cycle in 0..500 {
            let done = d.tick(cycle, &mut ndet);
            if let Some(u) = done.first() {
                assert_eq!(*u, DramUse::FillForRop { sector_addr: 0x40 });
                return;
            }
        }
        panic!(
            "DRAM ROP fill for sector 0x40 never completed by cycle 500: {}",
            d.queue_summary()
        );
    }

    #[test]
    fn next_event_tracks_queue() {
        let mut d = dram();
        assert_eq!(d.next_event_cycle(), None);
        d.push(DramUse::Write);
        assert_eq!(d.next_event_cycle(), Some(0));
    }
}
