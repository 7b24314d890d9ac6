//! Host-speed scaling. The reference host is a shared virtual machine
//! whose speed drifts by up to 2x within seconds to minutes as other
//! tenants load its cores, and a simulation slows with it. Run-to-run
//! spreads of raw pass times therefore reached 20-40%, wider than any
//! bound worth having (README, "Noise floor").
//!
//! So every timed piece of a pass (input generation, each simulation,
//! each sweep chunk, the results write) is bracketed by a short, fixed
//! probe kernel, and the piece's host time is scaled by
//! [`REFERENCE_PROBE_S`] over the mean of the two probes around it. The
//! scaled time is the piece's time at the reference speed. The probe is
//! the benchmark's own code and touches no simulator code, so a change to
//! the simulator moves the scaled times while a change in host speed
//! moves the probe along with them.

use std::hint::black_box;
use std::time::Instant;

/// The probe's time at the reference speed: about its median on the
/// reference host (a 2-vCPU VM, `nproc` = 2) in a quiet stretch.
pub const REFERENCE_PROBE_S: f64 = 0.020;

/// Nodes and out-edges per node of the probe's random graph: about 2 MB
/// of adjacency, so the probe, like the simulator, chases pointers
/// through the cache hierarchy and allocates as it goes.
const PROBE_NODES: usize = 30_000;
const PROBE_DEGREE: usize = 6;

/// splitmix64 step.
fn mix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The probe: builds a fixed random graph twice and walks it breadth-first
/// from node 0. Returns its host time in seconds.
pub fn probe() -> f64 {
    let started = Instant::now();
    let mut x = 5u64;
    let mut reached = 0usize;
    for _ in 0..2 {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); PROBE_NODES];
        for _ in 0..PROBE_NODES * PROBE_DEGREE {
            let r = mix(&mut x);
            let (from, to) = ((r as u32) as usize, (r >> 32) as usize);
            adj[from % PROBE_NODES].push((to % PROBE_NODES) as u32);
        }
        let mut seen = vec![false; PROBE_NODES];
        let mut frontier = vec![0u32];
        seen[0] = true;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &u in &frontier {
                for &v in &adj[u as usize] {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        next.push(v);
                    }
                }
            }
            reached += next.len();
            frontier = next;
        }
        black_box(&adj);
    }
    black_box(reached);
    started.elapsed().as_secs_f64()
}

/// The factor that turns host seconds measured between two probes into
/// seconds at the reference speed.
pub fn scale(probe_before: f64, probe_after: f64) -> f64 {
    2.0 * REFERENCE_PROBE_S / (probe_before + probe_after)
}

/// A pass's probes, taken between its timed pieces.
pub struct Speed {
    probes: Vec<f64>,
    /// Host seconds of every timed piece so far, unscaled.
    raw_s: f64,
}

/// One timed piece.
pub struct Timed<T> {
    pub value: T,
    /// Host seconds at the reference speed.
    pub secs: f64,
    /// The factor `secs` was scaled by; it applies to any time measured
    /// inside the piece as well.
    pub scale: f64,
}

impl Speed {
    /// Takes the first probe.
    pub fn start() -> Self {
        Self {
            probes: vec![probe()],
            raw_s: 0.0,
        }
    }

    /// Runs and times `work`, then probes again.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> Timed<T> {
        let started = Instant::now();
        let value = work();
        let raw = started.elapsed().as_secs_f64();
        let before = *self.probes.last().expect("start() took a probe");
        let after = probe();
        self.probes.push(after);
        self.raw_s += raw;
        let scale = scale(before, after);
        Timed {
            value,
            secs: raw * scale,
            scale,
        }
    }

    /// Unscaled host seconds of every piece timed so far.
    pub fn raw_secs(&self) -> f64 {
        self.raw_s
    }

    /// The host's speed over the pass relative to the reference: the
    /// reference probe time over the median probe (above 1 is faster).
    pub fn relative(&self) -> f64 {
        REFERENCE_PROBE_S / crate::stats::quantile(&self.probes, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_the_mean_probe() {
        assert!((scale(REFERENCE_PROBE_S, REFERENCE_PROBE_S) - 1.0).abs() < 1e-12);
        // A host running at half speed doubles both probes: its seconds
        // count half.
        let half = 2.0 * REFERENCE_PROBE_S;
        assert!((scale(half, half) - 0.5).abs() < 1e-12);
        // Slowing from half to a quarter speed during the piece: the mean
        // probe is three reference probes.
        assert!((scale(half, 2.0 * half) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn timed_pieces_are_scaled_by_the_probes_around_them() {
        let mut speed = Speed::start();
        let t = speed.time(|| 7);
        assert_eq!(t.value, 7);
        let [before, after] = [speed.probes[0], speed.probes[1]];
        assert!((t.scale - scale(before, after)).abs() < 1e-12);
        assert!(t.secs >= 0.0 && speed.raw_secs() * t.scale == t.secs);
        assert!(speed.relative() > 0.0);
    }
}
