//! The trace event taxonomy, the sample-grid row, and their byte-stable
//! line formats.
//!
//! Every value serializes to exactly one line of ASCII text beginning with
//! a single-character tag, so traces diff cleanly with standard tools and
//! the [`crate::diff`] bisector can stream them. Lines round-trip exactly:
//! `parse_line(write_line(e)) == e`.

use crate::TraceMode;
use std::fmt;

/// Instruction class carried by issue events. A flattened view of the
/// simulator's `Instr` so this crate stays a dependency leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrKind {
    Alu,
    Load,
    Store,
    Red,
    Atom,
    Bar,
    Fence,
    Lock,
}

impl InstrKind {
    pub fn as_str(self) -> &'static str {
        match self {
            InstrKind::Alu => "alu",
            InstrKind::Load => "load",
            InstrKind::Store => "store",
            InstrKind::Red => "red",
            InstrKind::Atom => "atom",
            InstrKind::Bar => "bar",
            InstrKind::Fence => "fence",
            InstrKind::Lock => "lock",
        }
    }

    pub fn parse(s: &str) -> Option<InstrKind> {
        Some(match s {
            "alu" => InstrKind::Alu,
            "load" => InstrKind::Load,
            "store" => InstrKind::Store,
            "red" => InstrKind::Red,
            "atom" => InstrKind::Atom,
            "bar" => InstrKind::Bar,
            "fence" => InstrKind::Fence,
            "lock" => InstrKind::Lock,
            _ => return None,
        })
    }
}

/// Why a warp went to sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SleepReason {
    /// Outstanding load transactions (`WaitMem`).
    Mem,
    /// Blocking atomic awaiting its old value (`WaitAtom`).
    Atom,
    /// Fence draining the warp's outstanding traffic (`WaitDrain`).
    Drain,
    /// Parked in a ticket-lock queue (`WaitLock`).
    Lock,
    /// Parked at a CTA barrier (`WaitBar`).
    Barrier,
    /// Parked until the model's buffer flush completes (`WaitFlush`).
    Flush,
}

impl SleepReason {
    pub fn as_str(self) -> &'static str {
        match self {
            SleepReason::Mem => "mem",
            SleepReason::Atom => "atom",
            SleepReason::Drain => "drain",
            SleepReason::Lock => "lock",
            SleepReason::Barrier => "barrier",
            SleepReason::Flush => "flush",
        }
    }

    pub fn parse(s: &str) -> Option<SleepReason> {
        Some(match s {
            "mem" => SleepReason::Mem,
            "atom" => SleepReason::Atom,
            "drain" => SleepReason::Drain,
            "lock" => SleepReason::Lock,
            "barrier" => SleepReason::Barrier,
            "flush" => SleepReason::Flush,
            _ => return None,
        })
    }
}

/// Which of the engine's explicit wake sites released a sleeping warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeSite {
    /// Last outstanding load transaction returned.
    LoadResp,
    /// Blocking atomic's old value arrived.
    AtomAck,
    /// Last outstanding store/flush write drained.
    StoreDrain,
    /// Ticket lock granted.
    LockGrant,
    /// CTA barrier released.
    Barrier,
    /// Model flush completed (the `FlushWaiters` wake).
    Flush,
}

impl WakeSite {
    pub fn as_str(self) -> &'static str {
        match self {
            WakeSite::LoadResp => "load_resp",
            WakeSite::AtomAck => "atom_ack",
            WakeSite::StoreDrain => "store_drain",
            WakeSite::LockGrant => "lock_grant",
            WakeSite::Barrier => "barrier",
            WakeSite::Flush => "flush",
        }
    }

    pub fn parse(s: &str) -> Option<WakeSite> {
        Some(match s {
            "load_resp" => WakeSite::LoadResp,
            "atom_ack" => WakeSite::AtomAck,
            "store_drain" => WakeSite::StoreDrain,
            "lock_grant" => WakeSite::LockGrant,
            "barrier" => WakeSite::Barrier,
            "flush" => WakeSite::Flush,
            _ => return None,
        })
    }
}

/// Interconnect packet payload class, mirroring `Payload::kind()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    LoadReq,
    StoreReq,
    AtomicReq,
    PreFlush,
    FlushEntry,
    LoadResp,
    StoreAck,
    AtomicAck,
    FlushAck,
}

impl PacketKind {
    pub fn as_str(self) -> &'static str {
        match self {
            PacketKind::LoadReq => "LoadReq",
            PacketKind::StoreReq => "StoreReq",
            PacketKind::AtomicReq => "AtomicReq",
            PacketKind::PreFlush => "PreFlush",
            PacketKind::FlushEntry => "FlushEntry",
            PacketKind::LoadResp => "LoadResp",
            PacketKind::StoreAck => "StoreAck",
            PacketKind::AtomicAck => "AtomicAck",
            PacketKind::FlushAck => "FlushAck",
        }
    }

    pub fn parse(s: &str) -> Option<PacketKind> {
        Some(match s {
            "LoadReq" => PacketKind::LoadReq,
            "StoreReq" => PacketKind::StoreReq,
            "AtomicReq" => PacketKind::AtomicReq,
            "PreFlush" => PacketKind::PreFlush,
            "FlushEntry" => PacketKind::FlushEntry,
            "LoadResp" => PacketKind::LoadResp,
            "StoreAck" => PacketKind::StoreAck,
            "AtomicAck" => PacketKind::AtomicAck,
            "FlushAck" => PacketKind::FlushAck,
            _ => return None,
        })
    }
}

/// DAB global flush epoch phase markers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPhase {
    /// Epoch sealed, push phase begins.
    Start,
    /// All entries pushed, draining acknowledgements.
    Drain,
    /// Epoch complete, waiters released.
    Complete,
}

impl FlushPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            FlushPhase::Start => "start",
            FlushPhase::Drain => "drain",
            FlushPhase::Complete => "complete",
        }
    }

    pub fn parse(s: &str) -> Option<FlushPhase> {
        Some(match s {
            "start" => FlushPhase::Start,
            "drain" => FlushPhase::Drain,
            "complete" => FlushPhase::Complete,
            _ => return None,
        })
    }
}

/// GPUDet execution mode, for mode-transition events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetMode {
    Parallel,
    Commit,
    Serial,
}

impl DetMode {
    pub fn as_str(self) -> &'static str {
        match self {
            DetMode::Parallel => "parallel",
            DetMode::Commit => "commit",
            DetMode::Serial => "serial",
        }
    }

    pub fn parse(s: &str) -> Option<DetMode> {
        Some(match s {
            "parallel" => DetMode::Parallel,
            "commit" => DetMode::Commit,
            "serial" => DetMode::Serial,
            _ => return None,
        })
    }
}

/// One architectural trace event, recorded in commit order. The `[arch]`
/// section of a trace is a sequence of these and is byte-identical across
/// engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A warp issued one instruction (tag `I`, full).
    Issue {
        cycle: u64,
        sm: u32,
        sched: u32,
        slot: u32,
        unique: u64,
        pc: u32,
        kind: InstrKind,
    },
    /// A warp left `Ready` and parked (tag `Z`, full).
    Sleep {
        cycle: u64,
        sm: u32,
        slot: u32,
        reason: SleepReason,
    },
    /// A parked warp became `Ready` again (tag `W`, full).
    Wake {
        cycle: u64,
        sm: u32,
        slot: u32,
        site: WakeSite,
    },
    /// A deterministic ticket lock was granted (tag `L`, summary).
    LockGrant {
        cycle: u64,
        sm: u32,
        slot: u32,
        unique: u64,
    },
    /// A request packet entered the interconnect (tag `J`, full).
    IcntInject {
        cycle: u64,
        cluster: u32,
        dest: u32,
        kind: PacketKind,
    },
    /// A response packet left the interconnect at a cluster (tag `E`, full).
    IcntEject {
        cycle: u64,
        cluster: u32,
        kind: PacketKind,
    },
    /// A request arrived at a memory partition (tag `Q`, full).
    PartReq {
        cycle: u64,
        partition: u32,
        kind: PacketKind,
    },
    /// A partition produced a response packet (tag `R`, full).
    PartResp {
        cycle: u64,
        partition: u32,
        kind: PacketKind,
    },
    /// A partition's DRAM serviced `count` accesses this cycle (tag `D`, full).
    DramAccess {
        cycle: u64,
        partition: u32,
        count: u64,
    },
    /// A DAB buffer accepted an entry; `len` is the buffer's new occupancy
    /// (tag `B`, full).
    BufFill {
        cycle: u64,
        sm: u32,
        sched: u32,
        len: u32,
    },
    /// A DAB global flush epoch changed phase (tag `F`, summary).
    Flush { cycle: u64, phase: FlushPhase },
    /// GPUDet entered an execution mode (tag `M`, summary).
    ModeChange { cycle: u64, mode: DetMode },
}

impl Event {
    /// The minimum [`TraceMode`] at which this event is recorded.
    pub fn level(&self) -> TraceMode {
        match self {
            Event::LockGrant { .. } | Event::Flush { .. } | Event::ModeChange { .. } => {
                TraceMode::Summary
            }
            _ => TraceMode::Full,
        }
    }

    /// The cycle this event committed on.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::Issue { cycle, .. }
            | Event::Sleep { cycle, .. }
            | Event::Wake { cycle, .. }
            | Event::LockGrant { cycle, .. }
            | Event::IcntInject { cycle, .. }
            | Event::IcntEject { cycle, .. }
            | Event::PartReq { cycle, .. }
            | Event::PartResp { cycle, .. }
            | Event::DramAccess { cycle, .. }
            | Event::BufFill { cycle, .. }
            | Event::Flush { cycle, .. }
            | Event::ModeChange { cycle, .. } => cycle,
        }
    }

    /// Stable lowercase kind token, used by `dab-trace show` counts and
    /// `--filter kind=<token>`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Event::Issue { .. } => "issue",
            Event::Sleep { .. } => "sleep",
            Event::Wake { .. } => "wake",
            Event::LockGrant { .. } => "lock_grant",
            Event::IcntInject { .. } => "icnt_inject",
            Event::IcntEject { .. } => "icnt_eject",
            Event::PartReq { .. } => "part_req",
            Event::PartResp { .. } => "part_resp",
            Event::DramAccess { .. } => "dram",
            Event::BufFill { .. } => "buf_fill",
            Event::Flush { .. } => "flush",
            Event::ModeChange { .. } => "mode_change",
        }
    }

    /// Every [`kind_name`](Self::kind_name) token, in taxonomy order.
    pub fn kind_names() -> &'static [&'static str] {
        &[
            "issue",
            "sleep",
            "wake",
            "lock_grant",
            "icnt_inject",
            "icnt_eject",
            "part_req",
            "part_resp",
            "dram",
            "buf_fill",
            "flush",
            "mode_change",
        ]
    }

    /// The SM index when the event names one (warp events and DAB buffer
    /// fills).
    pub fn sm(&self) -> Option<u32> {
        match *self {
            Event::Issue { sm, .. }
            | Event::Sleep { sm, .. }
            | Event::Wake { sm, .. }
            | Event::LockGrant { sm, .. }
            | Event::BufFill { sm, .. } => Some(sm),
            _ => None,
        }
    }

    /// `(sm, slot)` when the event names a specific warp.
    pub fn warp(&self) -> Option<(u32, u32)> {
        match *self {
            Event::Issue { sm, slot, .. }
            | Event::Sleep { sm, slot, .. }
            | Event::Wake { sm, slot, .. }
            | Event::LockGrant { sm, slot, .. } => Some((sm, slot)),
            _ => None,
        }
    }

    /// The memory partition index when the event names one.
    pub fn partition(&self) -> Option<u32> {
        match *self {
            Event::PartReq { partition, .. }
            | Event::PartResp { partition, .. }
            | Event::DramAccess { partition, .. } => Some(partition),
            _ => None,
        }
    }

    /// Serializes the event as its one-line text form (no trailing newline).
    pub fn write_line(&self, out: &mut String) {
        use fmt::Write;
        match *self {
            Event::Issue {
                cycle,
                sm,
                sched,
                slot,
                unique,
                pc,
                kind,
            } => write!(
                out,
                "I {cycle} {sm} {sched} {slot} {unique} {pc} {}",
                kind.as_str()
            ),
            Event::Sleep {
                cycle,
                sm,
                slot,
                reason,
            } => write!(out, "Z {cycle} {sm} {slot} {}", reason.as_str()),
            Event::Wake {
                cycle,
                sm,
                slot,
                site,
            } => write!(out, "W {cycle} {sm} {slot} {}", site.as_str()),
            Event::LockGrant {
                cycle,
                sm,
                slot,
                unique,
            } => write!(out, "L {cycle} {sm} {slot} {unique}"),
            Event::IcntInject {
                cycle,
                cluster,
                dest,
                kind,
            } => write!(out, "J {cycle} {cluster} {dest} {}", kind.as_str()),
            Event::IcntEject {
                cycle,
                cluster,
                kind,
            } => write!(out, "E {cycle} {cluster} {}", kind.as_str()),
            Event::PartReq {
                cycle,
                partition,
                kind,
            } => write!(out, "Q {cycle} {partition} {}", kind.as_str()),
            Event::PartResp {
                cycle,
                partition,
                kind,
            } => write!(out, "R {cycle} {partition} {}", kind.as_str()),
            Event::DramAccess {
                cycle,
                partition,
                count,
            } => write!(out, "D {cycle} {partition} {count}"),
            Event::BufFill {
                cycle,
                sm,
                sched,
                len,
            } => write!(out, "B {cycle} {sm} {sched} {len}"),
            Event::Flush { cycle, phase } => write!(out, "F {cycle} {}", phase.as_str()),
            Event::ModeChange { cycle, mode } => write!(out, "M {cycle} {}", mode.as_str()),
        }
        .expect("writing to a String cannot fail");
    }

    /// Parses one event line as produced by [`Event::write_line`].
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let mut it = line.split_ascii_whitespace();
        let tag = it.next().ok_or("empty event line")?;
        fn num<T: std::str::FromStr>(
            it: &mut std::str::SplitAsciiWhitespace<'_>,
            what: &str,
        ) -> Result<T, String> {
            it.next()
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<T>()
                .map_err(|_| format!("bad {what}"))
        }
        fn word<'a>(
            it: &mut std::str::SplitAsciiWhitespace<'a>,
            what: &str,
        ) -> Result<&'a str, String> {
            it.next().ok_or_else(|| format!("missing {what}"))
        }
        let ev = match tag {
            "I" => Event::Issue {
                cycle: num(&mut it, "cycle")?,
                sm: num(&mut it, "sm")?,
                sched: num(&mut it, "sched")?,
                slot: num(&mut it, "slot")?,
                unique: num(&mut it, "unique")?,
                pc: num(&mut it, "pc")?,
                kind: InstrKind::parse(word(&mut it, "instr kind")?).ok_or("unknown instr kind")?,
            },
            "Z" => Event::Sleep {
                cycle: num(&mut it, "cycle")?,
                sm: num(&mut it, "sm")?,
                slot: num(&mut it, "slot")?,
                reason: SleepReason::parse(word(&mut it, "sleep reason")?)
                    .ok_or("unknown sleep reason")?,
            },
            "W" => Event::Wake {
                cycle: num(&mut it, "cycle")?,
                sm: num(&mut it, "sm")?,
                slot: num(&mut it, "slot")?,
                site: WakeSite::parse(word(&mut it, "wake site")?).ok_or("unknown wake site")?,
            },
            "L" => Event::LockGrant {
                cycle: num(&mut it, "cycle")?,
                sm: num(&mut it, "sm")?,
                slot: num(&mut it, "slot")?,
                unique: num(&mut it, "unique")?,
            },
            "J" => Event::IcntInject {
                cycle: num(&mut it, "cycle")?,
                cluster: num(&mut it, "cluster")?,
                dest: num(&mut it, "dest")?,
                kind: PacketKind::parse(word(&mut it, "packet kind")?)
                    .ok_or("unknown packet kind")?,
            },
            "E" => Event::IcntEject {
                cycle: num(&mut it, "cycle")?,
                cluster: num(&mut it, "cluster")?,
                kind: PacketKind::parse(word(&mut it, "packet kind")?)
                    .ok_or("unknown packet kind")?,
            },
            "Q" => Event::PartReq {
                cycle: num(&mut it, "cycle")?,
                partition: num(&mut it, "partition")?,
                kind: PacketKind::parse(word(&mut it, "packet kind")?)
                    .ok_or("unknown packet kind")?,
            },
            "R" => Event::PartResp {
                cycle: num(&mut it, "cycle")?,
                partition: num(&mut it, "partition")?,
                kind: PacketKind::parse(word(&mut it, "packet kind")?)
                    .ok_or("unknown packet kind")?,
            },
            "D" => Event::DramAccess {
                cycle: num(&mut it, "cycle")?,
                partition: num(&mut it, "partition")?,
                count: num(&mut it, "count")?,
            },
            "B" => Event::BufFill {
                cycle: num(&mut it, "cycle")?,
                sm: num(&mut it, "sm")?,
                sched: num(&mut it, "sched")?,
                len: num(&mut it, "len")?,
            },
            "F" => Event::Flush {
                cycle: num(&mut it, "cycle")?,
                phase: FlushPhase::parse(word(&mut it, "flush phase")?)
                    .ok_or("unknown flush phase")?,
            },
            "M" => Event::ModeChange {
                cycle: num(&mut it, "cycle")?,
                mode: DetMode::parse(word(&mut it, "mode")?).ok_or("unknown mode")?,
            },
            other => return Err(format!("unknown event tag {other:?}")),
        };
        if it.next().is_some() {
            return Err(format!("trailing tokens on {tag} event line"));
        }
        Ok(ev)
    }

    /// Human-readable one-line description, used by panic dumps and the
    /// bisector's report.
    pub fn describe(&self) -> String {
        match *self {
            Event::Issue {
                cycle,
                sm,
                sched,
                slot,
                unique,
                pc,
                kind,
            } => format!(
                "cycle {cycle}: sm {sm} sched {sched} slot {slot} warp {unique} issued {} at pc {pc}",
                kind.as_str()
            ),
            Event::Sleep {
                cycle,
                sm,
                slot,
                reason,
            } => format!(
                "cycle {cycle}: sm {sm} slot {slot} slept ({})",
                reason.as_str()
            ),
            Event::Wake {
                cycle,
                sm,
                slot,
                site,
            } => format!(
                "cycle {cycle}: sm {sm} slot {slot} woke ({})",
                site.as_str()
            ),
            Event::LockGrant {
                cycle,
                sm,
                slot,
                unique,
            } => format!("cycle {cycle}: lock granted to sm {sm} slot {slot} warp {unique}"),
            Event::IcntInject {
                cycle,
                cluster,
                dest,
                kind,
            } => format!(
                "cycle {cycle}: cluster {cluster} injected {} for partition {dest}",
                kind.as_str()
            ),
            Event::IcntEject {
                cycle,
                cluster,
                kind,
            } => format!(
                "cycle {cycle}: cluster {cluster} ejected {}",
                kind.as_str()
            ),
            Event::PartReq {
                cycle,
                partition,
                kind,
            } => format!(
                "cycle {cycle}: partition {partition} received {}",
                kind.as_str()
            ),
            Event::PartResp {
                cycle,
                partition,
                kind,
            } => format!(
                "cycle {cycle}: partition {partition} responded {}",
                kind.as_str()
            ),
            Event::DramAccess {
                cycle,
                partition,
                count,
            } => format!("cycle {cycle}: partition {partition} DRAM serviced {count} accesses"),
            Event::BufFill {
                cycle,
                sm,
                sched,
                len,
            } => format!("cycle {cycle}: DAB buffer sm {sm} sched {sched} filled to {len}"),
            Event::Flush { cycle, phase } => {
                format!("cycle {cycle}: DAB flush {}", phase.as_str())
            }
            Event::ModeChange { cycle, mode } => {
                format!("cycle {cycle}: GPUDet entered {} mode", mode.as_str())
            }
        }
    }
}

/// One row of the deterministic sampling grid (tag `S`).
///
/// Rows are emitted at cycles that are exact multiples of the grid
/// interval. Because elided cycles are provably architectural no-ops in
/// both engines, the state read at the top of the next visited cycle
/// equals the state at any elided grid point, so rows are byte-identical
/// across engines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Grid cycle this row describes (a multiple of the interval).
    pub cycle: u64,
    /// Warps in the `Ready` state across the machine.
    pub ready_warps: u64,
    /// Total entries buffered by the execution model (DAB buffers).
    pub buffered_entries: u64,
    /// Flits queued at the interconnect's cluster injection ports
    /// (backpressure proxy).
    pub icnt_flits: u64,
    /// Requests queued at partition ROP units, summed.
    pub rop_queued: u64,
    /// Per-SM buffered entries (model-provided; empty in summary mode or
    /// when the model has no buffers).
    pub per_sm_buffered: Vec<u64>,
}

impl Sample {
    /// Serializes the row as its one-line text form (no trailing newline).
    pub fn write_line(&self, out: &mut String) {
        use fmt::Write;
        write!(
            out,
            "S {} {} {} {} {} {}",
            self.cycle,
            self.ready_warps,
            self.buffered_entries,
            self.icnt_flits,
            self.rop_queued,
            self.per_sm_buffered.len()
        )
        .expect("writing to a String cannot fail");
        for v in &self.per_sm_buffered {
            write!(out, " {v}").expect("writing to a String cannot fail");
        }
    }

    /// Parses one sample line as produced by [`Sample::write_line`].
    pub fn parse_line(line: &str) -> Result<Sample, String> {
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("S") {
            return Err("sample line must start with S".into());
        }
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("bad {what}"))
        };
        let cycle = num("cycle")?;
        let ready_warps = num("ready_warps")?;
        let buffered_entries = num("buffered_entries")?;
        let icnt_flits = num("icnt_flits")?;
        let rop_queued = num("rop_queued")?;
        let n = num("per-sm count")? as usize;
        let per_sm_buffered = (0..n)
            .map(|i| num(&format!("per-sm value {i}")))
            .collect::<Result<Vec<_>, _>>()?;
        if it.next().is_some() {
            return Err("trailing tokens on sample line".into());
        }
        Ok(Sample {
            cycle,
            ready_warps,
            buffered_entries,
            icnt_flits,
            rop_queued,
            per_sm_buffered,
        })
    }

    /// Human-readable description for the bisector's report.
    pub fn describe(&self) -> String {
        format!(
            "cycle {}: ready {} buffered {} icnt flits {} rop queued {}",
            self.cycle, self.ready_warps, self.buffered_entries, self.icnt_flits, self.rop_queued
        )
    }
}

/// One engine cycle-skip span (tag `K`): the engine jumped from the end of
/// cycle `from` directly to cycle `to`. Engine-variant by design; lives in
/// the `[engine]` trace section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipSpan {
    pub from: u64,
    pub to: u64,
}

impl SkipSpan {
    pub fn write_line(&self, out: &mut String) {
        use fmt::Write;
        write!(out, "K {} {}", self.from, self.to).expect("writing to a String cannot fail");
    }

    pub fn parse_line(line: &str) -> Result<SkipSpan, String> {
        let mut it = line.split_ascii_whitespace();
        if it.next() != Some("K") {
            return Err("skip line must start with K".into());
        }
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("missing {what}"))?
                .parse::<u64>()
                .map_err(|_| format!("bad {what}"))
        };
        let span = SkipSpan {
            from: num("from")?,
            to: num("to")?,
        };
        if it.next().is_some() {
            return Err("trailing tokens on skip line".into());
        }
        Ok(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: Event) {
        let mut line = String::new();
        ev.write_line(&mut line);
        assert_eq!(Event::parse_line(&line).as_ref(), Ok(&ev), "line {line:?}");
    }

    #[test]
    fn events_roundtrip_through_text() {
        roundtrip(Event::Issue {
            cycle: 7,
            sm: 1,
            sched: 2,
            slot: 3,
            unique: 99,
            pc: 12,
            kind: InstrKind::Red,
        });
        roundtrip(Event::Sleep {
            cycle: 8,
            sm: 0,
            slot: 5,
            reason: SleepReason::Flush,
        });
        roundtrip(Event::Wake {
            cycle: 9,
            sm: 0,
            slot: 5,
            site: WakeSite::AtomAck,
        });
        roundtrip(Event::LockGrant {
            cycle: 10,
            sm: 2,
            slot: 0,
            unique: 41,
        });
        roundtrip(Event::IcntInject {
            cycle: 11,
            cluster: 1,
            dest: 3,
            kind: PacketKind::FlushEntry,
        });
        roundtrip(Event::IcntEject {
            cycle: 12,
            cluster: 0,
            kind: PacketKind::LoadResp,
        });
        roundtrip(Event::PartReq {
            cycle: 13,
            partition: 1,
            kind: PacketKind::AtomicReq,
        });
        roundtrip(Event::PartResp {
            cycle: 14,
            partition: 1,
            kind: PacketKind::AtomicAck,
        });
        roundtrip(Event::DramAccess {
            cycle: 15,
            partition: 0,
            count: 4,
        });
        roundtrip(Event::BufFill {
            cycle: 16,
            sm: 3,
            sched: 1,
            len: 17,
        });
        roundtrip(Event::Flush {
            cycle: 17,
            phase: FlushPhase::Drain,
        });
        roundtrip(Event::ModeChange {
            cycle: 18,
            mode: DetMode::Serial,
        });
    }

    #[test]
    fn samples_roundtrip_through_text() {
        for s in [
            Sample {
                cycle: 1024,
                ready_warps: 12,
                buffered_entries: 7,
                icnt_flits: 3,
                rop_queued: 2,
                per_sm_buffered: vec![],
            },
            Sample {
                cycle: 2048,
                ready_warps: 0,
                buffered_entries: 9,
                icnt_flits: 0,
                rop_queued: 0,
                per_sm_buffered: vec![4, 5, 0],
            },
        ] {
            let mut line = String::new();
            s.write_line(&mut line);
            assert_eq!(Sample::parse_line(&line).as_ref(), Ok(&s), "line {line:?}");
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::parse_line("").is_err());
        assert!(Event::parse_line("X 1 2 3").is_err());
        assert!(Event::parse_line("I 1 2 3").is_err());
        assert!(Event::parse_line("F 1 sideways").is_err());
        assert!(Event::parse_line("L 1 2 3 4 5").is_err());
        assert!(Sample::parse_line("S 1 2 3 4 5 2 9").is_err());
        assert!(SkipSpan::parse_line("K 5").is_err());
    }

    #[test]
    fn levels_match_the_taxonomy() {
        assert_eq!(
            Event::LockGrant {
                cycle: 0,
                sm: 0,
                slot: 0,
                unique: 0
            }
            .level(),
            TraceMode::Summary
        );
        assert_eq!(
            Event::Issue {
                cycle: 0,
                sm: 0,
                sched: 0,
                slot: 0,
                unique: 0,
                pc: 0,
                kind: InstrKind::Alu
            }
            .level(),
            TraceMode::Full
        );
    }
}
