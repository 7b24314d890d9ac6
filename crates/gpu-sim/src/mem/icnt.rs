//! Interconnection network between compute clusters and memory partitions.
//!
//! A simple flit-accurate crossbar made of two instances of one private
//! `Channel`: requests flow from per-cluster injection FIFOs to the memory
//! partitions, responses from per-partition return FIFOs to the clusters.
//! In either channel each sink pulls packets from the heads of the source
//! FIFOs (head-of-line blocking, rotating arbitration) into its bounded
//! input buffer. Transfers are serialized at
//! [`GpuConfig::icnt_flits_per_cycle`] flits per cycle per sink and add a
//! fixed pipeline latency.
//!
//! Arbitration ties are broken through the [`NdetSource`], which is one of
//! the modeled sources of GPU non-determinism: on the baseline machine the
//! *arrival order* of atomic transactions at a partition varies from run to
//! run, so the ROP applies floating-point reductions in a different order.
//!
//! [`GpuConfig::icnt_flits_per_cycle`]: crate::config::GpuConfig::icnt_flits_per_cycle
//! [`NdetSource`]: crate::ndet::NdetSource

use std::collections::VecDeque;

use crate::config::GpuConfig;
use crate::ndet::NdetSource;
use crate::oracle::{TAG_ICNT_CL, TAG_ICNT_MEM};

use super::packet::Packet;

#[derive(Debug)]
struct Transfer {
    packet: Packet,
    arrive_cycle: u64,
}

/// One direction of the crossbar: per-source injection FIFOs and, per
/// sink, a rotating arbiter, a serialized link and a bounded input buffer.
/// A packet's `dest` names its sink.
#[derive(Debug)]
struct Channel {
    /// Decision-site tag of this channel's arbitration draws.
    tag: &'static str,
    flits_per_cycle: usize,
    latency: u64,
    /// Bound on each sink's input buffer, in flits (in-flight included).
    sink_capacity: usize,
    /// Per-source injection FIFOs.
    queued: Vec<VecDeque<Packet>>,
    /// Flits waiting in each source FIFO.
    queued_flits: Vec<usize>,
    /// Per-sink transfers past arbitration, still traversing the network,
    /// ordered by arrival cycle.
    in_flight: Vec<VecDeque<Transfer>>,
    /// Cycle at which each sink's link frees up (serialization occupancy,
    /// separate from pipeline latency).
    free_at: Vec<u64>,
    /// Per-sink packets that have arrived and wait for their consumer.
    arrived: Vec<VecDeque<Packet>>,
    /// Flits occupying each sink's input buffer (in-flight included).
    sink_flits: Vec<usize>,
    /// Per-sink rotating arbitration pointer over sources.
    rr: Vec<usize>,
    /// Packets delivered to a sink since construction.
    delivered: u64,
}

impl Channel {
    fn new(
        tag: &'static str,
        sources: usize,
        sinks: usize,
        sink_capacity: usize,
        cfg: &GpuConfig,
    ) -> Self {
        Self {
            tag,
            flits_per_cycle: cfg.icnt_flits_per_cycle,
            latency: u64::from(cfg.icnt_latency),
            sink_capacity,
            queued: (0..sources).map(|_| VecDeque::new()).collect(),
            queued_flits: vec![0; sources],
            in_flight: (0..sinks).map(|_| VecDeque::new()).collect(),
            free_at: vec![0; sinks],
            arrived: (0..sinks).map(|_| VecDeque::new()).collect(),
            sink_flits: vec![0; sinks],
            rr: vec![0; sinks],
            delivered: 0,
        }
    }

    fn sinks(&self) -> usize {
        self.arrived.len()
    }

    fn inject(&mut self, source: usize, packet: Packet) {
        debug_assert!(packet.dest < self.sinks());
        self.queued_flits[source] += packet.flits as usize;
        self.queued[source].push_back(packet);
    }

    fn pop(&mut self, sink: usize) -> Option<Packet> {
        let pkt = self.arrived[sink].pop_front()?;
        self.sink_flits[sink] -= pkt.flits as usize;
        Some(pkt)
    }

    /// Advances every sink by one cycle, drawing arbitration perturbations
    /// from `ndet[sink]`.
    fn tick(&mut self, cycle: u64, ndet: &mut [NdetSource]) {
        let sources = self.queued.len();
        for (sink, nd) in ndet.iter_mut().enumerate().take(self.sinks()) {
            // Deliver transfers whose pipeline latency has elapsed.
            while self.in_flight[sink]
                .front()
                .is_some_and(|t| t.arrive_cycle <= cycle)
            {
                let t = self.in_flight[sink].pop_front().expect("checked above");
                self.arrived[sink].push_back(t.packet);
                self.delivered += 1;
            }
            // Start new pulls while the link has serialization capacity
            // this cycle. The arbitration draw happens only when some source
            // queue holds a packet: the perturbation-stream cursor must
            // advance identically whether or not the engine visits the
            // (provably idle) cycles in between.
            while self.free_at[sink] <= cycle && self.queued.iter().any(|q| !q.is_empty()) {
                // The draw perturbs the rotation start by at most one slot;
                // it is a branch point only when the two candidate starts
                // would serve different sources (see `crate::oracle`).
                let rr = self.rr[sink];
                let eligible = nd.has_oracle()
                    && self.candidate(sink, rr % sources)
                        != self.candidate(sink, (rr + 1) % sources);
                let draw = nd.tiebreak_hint(2, self.tag, eligible);
                let Some(source) = self.candidate(sink, (rr + draw) % sources) else {
                    break;
                };
                let packet = self.queued[source]
                    .pop_front()
                    .expect("candidate has a head");
                let flits = packet.flits as usize;
                self.queued_flits[source] -= flits;
                self.sink_flits[sink] += flits;
                let ser = flits.div_ceil(self.flits_per_cycle) as u64;
                self.free_at[sink] = cycle + ser;
                self.in_flight[sink].push_back(Transfer {
                    packet,
                    arrive_cycle: cycle + ser + self.latency,
                });
                self.rr[sink] = (source + 1) % sources;
            }
        }
    }

    /// The source the arbiter of `sink` serves when its scan starts at
    /// `start`: the first source whose head packet is bound for `sink` and
    /// fits the sink's input buffer. The arbiter picks with it, and the
    /// oracle compares two starts with it to tell whether a draw is a
    /// branch point.
    fn candidate(&self, sink: usize, start: usize) -> Option<usize> {
        let sources = self.queued.len();
        (0..sources).map(|i| (start + i) % sources).find(|&s| {
            self.queued[s].front().is_some_and(|head| {
                head.dest == sink
                    && self.sink_flits[sink] + head.flits as usize <= self.sink_capacity
            })
        })
    }

    /// See [`Interconnect::next_event_cycle`].
    fn next_event_cycle(&self) -> Option<u64> {
        if self
            .queued
            .iter()
            .chain(&self.arrived)
            .any(|q| !q.is_empty())
        {
            return Some(0);
        }
        self.in_flight
            .iter()
            .filter_map(VecDeque::front)
            .map(|t| t.arrive_cycle)
            .min()
    }

    fn in_flight_count(&self) -> usize {
        self.in_flight.iter().map(VecDeque::len).sum()
    }
}

/// `i:len` for every non-empty queue, or `-` when all are empty.
fn occupied(qs: &[VecDeque<Packet>]) -> String {
    let counts: Vec<String> = qs
        .iter()
        .enumerate()
        .filter(|(_, q)| !q.is_empty())
        .map(|(i, q)| format!("{i}:{}", q.len()))
        .collect();
    if counts.is_empty() {
        "-".to_string()
    } else {
        counts.join(",")
    }
}

/// The cluster↔partition interconnect.
///
/// Requests: `inject_request` (per cluster) → partition pull → arrive after
/// serialization + latency → `pop_arrived_request` (per partition).
/// Responses: `inject_response` (per partition) → cluster pull →
/// `pop_ejected` (per cluster), bounded by the cluster ejection buffer.
#[derive(Debug)]
pub struct Interconnect {
    /// Clusters → memory partitions; each partition's input buffer is the
    /// Table I "input buffer".
    requests: Channel,
    /// Memory partitions → clusters, bounded by each cluster's ejection
    /// buffer.
    responses: Channel,
    /// Soft bound on each cluster injection FIFO, in flits.
    injection_capacity_flits: usize,
}

impl Interconnect {
    /// Builds the interconnect for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let nc = cfg.num_clusters;
        let np = cfg.num_mem_partitions;
        Self {
            requests: Channel::new(TAG_ICNT_MEM, nc, np, cfg.icnt_input_buffer, cfg),
            responses: Channel::new(TAG_ICNT_CL, np, nc, cfg.cluster_ejection_buffer, cfg),
            injection_capacity_flits: cfg.icnt_input_buffer,
        }
    }

    /// Whether cluster `c` can inject a request of `flits` flits this cycle.
    pub fn can_inject_request(&self, cluster: usize, flits: u32) -> bool {
        self.requests.queued_flits[cluster] + flits as usize <= self.injection_capacity_flits
    }

    /// Remaining request-injection headroom (in flits) for `cluster`: the
    /// exact budget [`can_inject_request`](Self::can_inject_request) tests
    /// against. The issue walk checks each request against it right before
    /// injecting, so every packet already injected this cycle counts.
    pub fn request_injection_budget(&self, cluster: usize) -> u32 {
        let free = self
            .injection_capacity_flits
            .saturating_sub(self.requests.queued_flits[cluster]);
        u32::try_from(free).unwrap_or(u32::MAX)
    }

    /// Injects a request packet at cluster `c`.
    ///
    /// Callers should check [`can_inject_request`](Self::can_inject_request)
    /// first; injection past the bound is allowed but counts as buffer
    /// over-occupancy that keeps blocking subsequent injections.
    pub fn inject_request(&mut self, cluster: usize, packet: Packet) {
        self.requests.inject(cluster, packet);
    }

    /// Injects a response packet at partition `p`.
    pub fn inject_response(&mut self, partition: usize, packet: Packet) {
        self.responses.inject(partition, packet);
    }

    /// Whether any request has fully arrived at partition `p` (a
    /// non-destructive peek; [`tick_partitions`] uses it to keep a
    /// partition asleep when it has neither buffered input nor a due
    /// internal event).
    ///
    /// [`tick_partitions`]: crate::engine::GpuSim
    pub fn has_arrived_request(&self, partition: usize) -> bool {
        !self.requests.arrived[partition].is_empty()
    }

    /// Pops one request that has fully arrived at partition `p`, if any.
    pub fn pop_arrived_request(&mut self, partition: usize) -> Option<Packet> {
        self.requests.pop(partition)
    }

    /// Pops one response that has fully arrived at cluster `c`, if any.
    pub fn pop_ejected(&mut self, cluster: usize) -> Option<Packet> {
        self.responses.pop(cluster)
    }

    /// Total packets delivered since construction, both directions.
    pub fn packets_moved(&self) -> u64 {
        self.requests.delivered + self.responses.delivered
    }

    /// Flits currently queued at the cluster injection ports, waiting to
    /// enter the network — the backpressure signal sampled onto the
    /// observability time-series grid.
    pub fn queued_injection_flits(&self) -> u64 {
        self.requests.queued_flits.iter().map(|&f| f as u64).sum()
    }

    /// Whether any packet is buffered or in flight in either direction.
    pub fn is_busy(&self) -> bool {
        self.next_event_cycle().is_some()
    }

    /// Advances the network by one cycle: requests first, then responses.
    ///
    /// `mem_ndet` holds one perturbation stream per memory partition and
    /// `cl_ndet` one per cluster: every arbitration point draws from its
    /// *own* stream (forked from the run seed via
    /// [`NdetSource::split`]), so the sequence one endpoint sees never
    /// depends on how work for other endpoints is ordered.
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than the endpoint count.
    pub fn tick(&mut self, cycle: u64, mem_ndet: &mut [NdetSource], cl_ndet: &mut [NdetSource]) {
        assert!(
            mem_ndet.len() >= self.requests.sinks(),
            "stream per partition"
        );
        assert!(
            cl_ndet.len() >= self.responses.sinks(),
            "stream per cluster"
        );
        self.requests.tick(cycle, mem_ndet);
        self.responses.tick(cycle, cl_ndet);
    }

    /// One-line occupancy summary of every queue family, for diagnostics
    /// (matches the `lock.rs`/`dram.rs` panic-context style).
    pub fn queue_summary(&self) -> String {
        let (req, resp) = (&self.requests, &self.responses);
        format!(
            "cluster_out[{}] mem_in_flight={} mem_in[{}] part_out[{}] cl_in_flight={} cl_in[{}] moved={}",
            occupied(&req.queued),
            req.in_flight_count(),
            occupied(&req.arrived),
            occupied(&resp.queued),
            resp.in_flight_count(),
            occupied(&resp.arrived),
            self.packets_moved(),
        )
    }

    /// Earliest cycle at which a [`tick`](Self::tick) can change anything,
    /// or `None` when the network is empty. A packet waiting in an injection
    /// FIFO or an input buffer needs a visit every cycle, reported as cycle
    /// 0 (at or before any present); otherwise the earliest in-flight
    /// arrival. Ticks at cycles before this value are no-ops that draw no
    /// perturbation, so the event wheel may skip them.
    pub fn next_event_cycle(&self) -> Option<u64> {
        [
            self.requests.next_event_cycle(),
            self.responses.next_event_cycle(),
        ]
        .into_iter()
        .flatten()
        .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::packet::{Payload, WarpRef};

    fn cfg() -> GpuConfig {
        GpuConfig::tiny()
    }

    /// Disabled per-endpoint streams for `cfg` (mem, cluster).
    fn streams(c: &GpuConfig) -> (Vec<NdetSource>, Vec<NdetSource>) {
        (
            vec![NdetSource::disabled(); c.num_mem_partitions],
            vec![NdetSource::disabled(); c.num_clusters],
        )
    }

    fn load_req(dest: usize) -> Packet {
        Packet::new(
            dest,
            Payload::LoadReq {
                sector_addr: 0,
                warp: WarpRef { sm: 0, slot: 0 },
            },
            40,
        )
    }

    #[test]
    fn request_traverses() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        icnt.inject_request(0, load_req(1));
        let mut arrived = None;
        for cycle in 0..100 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
            if let Some(p) = icnt.pop_arrived_request(1) {
                arrived = Some((cycle, p));
                break;
            }
        }
        let (cycle, p) = arrived.expect("packet should arrive");
        assert_eq!(p.dest, 1);
        // 1 flit / 2 fpc = 1 cycle serialization + 12 latency.
        assert!((12..20).contains(&cycle), "arrival at {cycle}");
        assert!(!icnt.is_busy());
    }

    #[test]
    fn response_traverses() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        icnt.inject_response(
            0,
            Packet::new(1, Payload::FlushAck { sm: 3 }, c.icnt_flit_size),
        );
        let mut got = false;
        for cycle in 0..100 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
            if icnt.pop_ejected(1).is_some() {
                got = true;
                break;
            }
        }
        assert!(got);
    }

    #[test]
    fn fifo_order_preserved_per_cluster() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        for i in 0..5u64 {
            let mut p = load_req(0);
            if let Payload::LoadReq { sector_addr, .. } = &mut p.payload {
                *sector_addr = i * 32;
            }
            icnt.inject_request(0, p);
        }
        let mut order = Vec::new();
        for cycle in 0..500 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
            while let Some(p) = icnt.pop_arrived_request(0) {
                if let Payload::LoadReq { sector_addr, .. } = p.payload {
                    order.push(sector_addr / 32);
                }
            }
            if order.len() == 5 {
                break;
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn injection_backpressure() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        assert!(icnt.can_inject_request(0, 1));
        for _ in 0..c.icnt_input_buffer {
            icnt.inject_request(0, load_req(0));
        }
        assert!(!icnt.can_inject_request(0, 1));
    }

    #[test]
    fn head_of_line_blocking() {
        // A head packet for a full partition blocks later packets for others.
        let mut c = cfg();
        c.icnt_input_buffer = 1; // tiny input buffer: nothing fits
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        let mut p = load_req(0);
        p.flits = 2; // can never fit into a 1-flit input buffer
        icnt.inject_request(0, p);
        icnt.inject_request(0, load_req(1));
        for cycle in 0..50 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
        }
        assert!(icnt.pop_arrived_request(1).is_none());
    }

    #[test]
    fn queue_summary_reports_occupancy() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        assert!(icnt.queue_summary().contains("cluster_out[-]"));
        icnt.inject_request(1, load_req(0));
        let summary = icnt.queue_summary();
        assert!(summary.contains("cluster_out[1:1]"), "got: {summary}");
    }

    #[test]
    fn ndet_tiebreak_changes_service_order() {
        // Two clusters contend for one partition; with different seeds the
        // winner can differ over many trials.
        let c = cfg();
        let run = |seed: u64| -> Vec<usize> {
            let mut icnt = Interconnect::new(&c);
            let root = NdetSource::seeded(seed);
            let mut mem_ndet: Vec<NdetSource> = (0..c.num_mem_partitions)
                .map(|p| root.split(p as u64))
                .collect();
            let mut cl_ndet: Vec<NdetSource> = (0..c.num_clusters)
                .map(|cl| root.split(0x100 + cl as u64))
                .collect();
            let mut order = Vec::new();
            for round in 0..20u64 {
                icnt.inject_request(0, load_req(0));
                icnt.inject_request(1, load_req(0));
                for cycle in round * 100..round * 100 + 100 {
                    icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
                }
                while icnt.pop_arrived_request(0).is_some() {
                    order.push(0);
                }
            }
            order
        };
        // Identical seeds are reproducible.
        assert_eq!(run(7), run(7));
    }
}
