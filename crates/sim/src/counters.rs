//! The paper's four warp-state hardware counters (§III-A, §IV-A).
//!
//! Every SM cycle the scheduler classifies each resident warp into one of
//! the states below; every `sample_interval` cycles (128 in the paper) the
//! per-cycle snapshot is accumulated into the epoch counters the runtime
//! system reads.

/// Instantaneous classification of one warp in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WarpState {
    /// Waiting for an operand (scoreboard not ready) — typically a value
    /// returning from memory.
    Waiting,
    /// Issued an instruction this cycle.
    Issued,
    /// Ready for the arithmetic pipeline but no issue slot was available
    /// (the paper's `X_alu`).
    ExcessAlu,
    /// Ready for the LD/ST pipeline but blocked by back-pressure or the
    /// memory-issue limit (the paper's `X_mem`).
    ExcessMem,
    /// At a barrier, paused, finished or without a valid instruction-buffer
    /// entry.
    Others,
}

/// Per-cycle counts of warps in each state (one SM).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleSnapshot {
    /// Warps that are active (unpaused, unfinished, accounted).
    pub active: u32,
    /// Warps waiting on the scoreboard.
    pub waiting: u32,
    /// Warps that issued this cycle.
    pub issued: u32,
    /// Warps ready for ALU but out of issue slots.
    pub excess_alu: u32,
    /// Warps ready for memory but blocked.
    pub excess_mem: u32,
    /// Warps at barriers / unaccounted.
    pub others: u32,
}

impl CycleSnapshot {
    /// Records one warp's state.
    pub fn record(&mut self, state: WarpState) {
        match state {
            WarpState::Waiting => self.waiting += 1,
            WarpState::Issued => self.issued += 1,
            WarpState::ExcessAlu => self.excess_alu += 1,
            WarpState::ExcessMem => self.excess_mem += 1,
            WarpState::Others => self.others += 1,
        }
        if state != WarpState::Others {
            self.active += 1;
        }
    }
}

/// Accumulated warp-state counters over an epoch window.
///
/// The hardware cost analysis in §V-A2 sizes these as four 11-bit counters
/// plus a 12-bit cycle counter; here they are ordinary integers with the
/// same semantics: sums of the sampled per-cycle snapshot over the epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarpStateCounters {
    /// Sum of sampled active-warp counts.
    pub active: u64,
    /// Sum of sampled waiting-warp counts.
    pub waiting: u64,
    /// Sum of sampled issued-warp counts.
    pub issued: u64,
    /// Sum of sampled `X_alu` counts.
    pub excess_alu: u64,
    /// Sum of sampled `X_mem` counts.
    pub excess_mem: u64,
    /// Sum of sampled other-warp counts.
    pub others: u64,
    /// Number of samples taken (32 per 4096-cycle epoch in the paper).
    pub samples: u64,
    /// SM cycles within the epoch in which nothing issued (used by the
    /// DynCTA baseline, which keys on idleness).
    pub idle_cycles: u64,
    /// SM cycles covered by this accumulation window.
    pub cycles: u64,
}

impl WarpStateCounters {
    /// Adds one sampled snapshot. Saturates instead of wrapping: the real
    /// hardware counters are narrow and clamp at their maximum, and a
    /// wrapped sum would silently flip the runtime's tendency decision.
    pub fn sample(&mut self, snap: &CycleSnapshot) {
        self.active = self.active.saturating_add(u64::from(snap.active));
        self.waiting = self.waiting.saturating_add(u64::from(snap.waiting));
        self.issued = self.issued.saturating_add(u64::from(snap.issued));
        self.excess_alu = self.excess_alu.saturating_add(u64::from(snap.excess_alu));
        self.excess_mem = self.excess_mem.saturating_add(u64::from(snap.excess_mem));
        self.others = self.others.saturating_add(u64::from(snap.others));
        self.samples = self.samples.saturating_add(1);
    }

    /// Mean active warps per sample.
    pub fn avg_active(&self) -> f64 {
        self.mean(self.active)
    }

    /// Mean waiting warps per sample.
    pub fn avg_waiting(&self) -> f64 {
        self.mean(self.waiting)
    }

    /// Mean `X_alu` warps per sample.
    pub fn avg_excess_alu(&self) -> f64 {
        self.mean(self.excess_alu)
    }

    /// Mean `X_mem` warps per sample.
    pub fn avg_excess_mem(&self) -> f64 {
        self.mean(self.excess_mem)
    }

    /// Mean issued warps per sample (a proxy for IPC).
    pub fn avg_issued(&self) -> f64 {
        self.mean(self.issued)
    }

    fn mean(&self, sum: u64) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            sum as f64 / self.samples as f64
        }
    }

    /// Merges another window into this one, saturating on overflow (see
    /// [`WarpStateCounters::sample`]).
    pub fn merge(&mut self, other: &WarpStateCounters) {
        self.active = self.active.saturating_add(other.active);
        self.waiting = self.waiting.saturating_add(other.waiting);
        self.issued = self.issued.saturating_add(other.issued);
        self.excess_alu = self.excess_alu.saturating_add(other.excess_alu);
        self.excess_mem = self.excess_mem.saturating_add(other.excess_mem);
        self.others = self.others.saturating_add(other.others);
        self.samples = self.samples.saturating_add(other.samples);
        self.idle_cycles = self.idle_cycles.saturating_add(other.idle_cycles);
        self.cycles = self.cycles.saturating_add(other.cycles);
    }
}

pub(crate) fn put_cycle_snapshot(w: &mut crate::snapshot::Writer, s: &CycleSnapshot) {
    let CycleSnapshot {
        active,
        waiting,
        issued,
        excess_alu,
        excess_mem,
        others,
    } = s;
    w.u32(*active);
    w.u32(*waiting);
    w.u32(*issued);
    w.u32(*excess_alu);
    w.u32(*excess_mem);
    w.u32(*others);
}

pub(crate) fn get_cycle_snapshot(
    r: &mut crate::snapshot::Reader<'_>,
) -> Result<CycleSnapshot, crate::snapshot::SnapshotError> {
    Ok(CycleSnapshot {
        active: r.u32()?,
        waiting: r.u32()?,
        issued: r.u32()?,
        excess_alu: r.u32()?,
        excess_mem: r.u32()?,
        others: r.u32()?,
    })
}

pub(crate) fn put_warp_state_counters(w: &mut crate::snapshot::Writer, c: &WarpStateCounters) {
    let WarpStateCounters {
        active,
        waiting,
        issued,
        excess_alu,
        excess_mem,
        others,
        samples,
        idle_cycles,
        cycles,
    } = c;
    w.u64(*active);
    w.u64(*waiting);
    w.u64(*issued);
    w.u64(*excess_alu);
    w.u64(*excess_mem);
    w.u64(*others);
    w.u64(*samples);
    w.u64(*idle_cycles);
    w.u64(*cycles);
}

pub(crate) fn get_warp_state_counters(
    r: &mut crate::snapshot::Reader<'_>,
) -> Result<WarpStateCounters, crate::snapshot::SnapshotError> {
    Ok(WarpStateCounters {
        active: r.u64()?,
        waiting: r.u64()?,
        issued: r.u64()?,
        excess_alu: r.u64()?,
        excess_mem: r.u64()?,
        others: r.u64()?,
        samples: r.u64()?,
        idle_cycles: r.u64()?,
        cycles: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_classifies_active() {
        let mut s = CycleSnapshot::default();
        s.record(WarpState::Waiting);
        s.record(WarpState::Issued);
        s.record(WarpState::ExcessAlu);
        s.record(WarpState::ExcessMem);
        s.record(WarpState::Others);
        assert_eq!(s.active, 4, "Others is not active");
        assert_eq!(s.waiting, 1);
        assert_eq!(s.issued, 1);
        assert_eq!(s.excess_alu, 1);
        assert_eq!(s.excess_mem, 1);
        assert_eq!(s.others, 1);
    }

    #[test]
    fn averages_use_sample_count() {
        let mut c = WarpStateCounters::default();
        let mut s = CycleSnapshot::default();
        s.record(WarpState::Waiting);
        s.record(WarpState::Waiting);
        c.sample(&s);
        c.sample(&s);
        assert_eq!(c.samples, 2);
        assert!((c.avg_waiting() - 2.0).abs() < 1e-12);
        assert!((c.avg_active() - 2.0).abs() < 1e-12);
        assert!(c.avg_excess_alu().abs() < 1e-12);
    }

    #[test]
    fn empty_counters_have_zero_averages() {
        let c = WarpStateCounters::default();
        assert!(c.avg_active().abs() < 1e-12);
        assert!(c.avg_waiting().abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = WarpStateCounters {
            active: 1,
            waiting: 2,
            issued: 3,
            excess_alu: 4,
            excess_mem: 5,
            others: 6,
            samples: 7,
            idle_cycles: 8,
            cycles: 9,
        };
        a.merge(&a.clone());
        assert_eq!(a.active, 2);
        assert_eq!(a.samples, 14);
        assert_eq!(a.cycles, 18);
    }

    #[test]
    fn sample_and_merge_saturate_instead_of_wrapping() {
        let mut c = WarpStateCounters {
            active: u64::MAX - 1,
            samples: u64::MAX,
            cycles: u64::MAX - 3,
            ..WarpStateCounters::default()
        };
        let mut snap = CycleSnapshot::default();
        snap.record(WarpState::Issued);
        snap.record(WarpState::Waiting);
        c.sample(&snap);
        assert_eq!(c.active, u64::MAX, "active clamps at the maximum");
        assert_eq!(c.samples, u64::MAX, "sample count clamps too");
        assert_eq!(c.issued, 1);

        let other = WarpStateCounters {
            active: 10,
            cycles: 10,
            ..WarpStateCounters::default()
        };
        c.merge(&other);
        assert_eq!(c.active, u64::MAX);
        assert_eq!(c.cycles, u64::MAX);
        assert!(c.avg_active() > 0.0, "averages stay finite after clamping");
    }
}
