//! Hot-path telemetry: the batch-window diagnostic.
//!
//! Everything in this module is **diagnostic only**. The counters are
//! deliberately kept outside [`crate::stats::RunStats`] and outside the
//! snapshot codec, so reading them can never change a result.
//! [`BatchWindowStats`] is the engine's breakdown of tick batching: how
//! many windows opened, their size distribution, what bounded each
//! window, and why each per-tick fallback happened. The counters are
//! plain integers recorded unconditionally — the cost is one enum match
//! per SM step.

/// Log2 buckets in [`BatchWindowStats::size_histogram`]: bucket `i`
/// counts windows of `2^(i+1) ..= 2^(i+2) - 1` ticks, with the last
/// bucket absorbing everything larger. The engine never opens a window
/// shorter than [`crate::engine::MIN_WINDOW_TICKS`], so the buckets
/// below that length stay empty in engine-recorded stats.
pub const WINDOW_SIZE_BUCKETS: usize = 11;

/// Why an SM tick could not open (or extend) a batched window, in the
/// order the proof obligations are checked by `Engine`.
///
/// The length-based reasons ([`BatchClose::EpochOrCycleCap`],
/// [`BatchClose::IssueRunway`]) mean "below break-even": the bound left
/// room for fewer than [`crate::engine::MIN_WINDOW_TICKS`] ticks, a
/// window the engine refuses even when it could prove a shorter one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose {
    /// Batching is off for this run: `SimOptions::fast_forward` is off
    /// (the reference stepper) or the SMs have per-SM VRMs.
    Disabled,
    /// A VF transition is pending on the SM or memory domain, so
    /// in-window tick times cannot be frozen.
    VfTransition,
    /// The memory system is not quiescent: a delivery could reach an SM
    /// inside the window.
    MemoryActive,
    /// The distance to the next epoch boundary or to the cycle-limit
    /// check is below break-even: it leaves no room for a window of at
    /// least [`crate::engine::MIN_WINDOW_TICKS`] ticks.
    EpochOrCycleCap,
    /// Some SM is not quiescent (staged access or non-empty queues).
    SmActive,
    /// The grid is fully dispatched and every SM is idle: the invocation
    /// ends on the next tick's termination check, which a window would
    /// skip.
    Draining,
    /// Some SM's issue runway ([`crate::sm::Sm::batch_horizon`]) is
    /// below break-even: a schedulable warp could reach memory or retire
    /// within [`crate::engine::MIN_WINDOW_TICKS`] ticks.
    IssueRunway,
}

/// What capped the length of a window that did open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowBound {
    /// The next epoch boundary.
    EpochCap,
    /// The cycle-limit check.
    LimitCap,
    /// The shortest per-SM issue runway.
    Horizon,
}

/// The engine's breakdown of tick batching: window sizes, what bounded
/// them, and why per-tick fallbacks happened.
///
/// Replaces the bare `Engine::batched_ticks` count as the profiling
/// surface (that accessor remains, and remains part of
/// [`crate::stats::RunStats`]); everything here stays out of `RunStats`
/// and out of snapshots. Deterministic — the counters are driven purely
/// by the engine's own proof attempts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchWindowStats {
    /// Batched windows opened.
    pub windows: u64,
    /// SM ticks executed inside those windows (equals
    /// `Engine::batched_ticks`).
    pub ticks: u64,
    /// Window-size distribution over log2 buckets; see
    /// [`WINDOW_SIZE_BUCKETS`].
    pub size_histogram: [u64; WINDOW_SIZE_BUCKETS],
    /// Windows capped by the next epoch boundary.
    pub bounded_by_epoch: u64,
    /// Windows capped by the cycle-limit check.
    pub bounded_by_limit: u64,
    /// Windows capped by the shortest per-SM issue runway.
    pub bounded_by_horizon: u64,
    /// Per-tick fallbacks: batching disabled for the run.
    pub closed_disabled: u64,
    /// Per-tick fallbacks: pending VF transition.
    pub closed_vf_transition: u64,
    /// Per-tick fallbacks: memory system active.
    pub closed_memory_active: u64,
    /// Per-tick fallbacks: epoch/cycle cap left no room.
    pub closed_epoch_or_cycle_cap: u64,
    /// Per-tick fallbacks: an SM was not quiescent.
    pub closed_sm_active: u64,
    /// Per-tick fallbacks: the invocation was draining (grid dispatched,
    /// every SM idle).
    pub closed_draining: u64,
    /// Per-tick fallbacks: an SM's issue runway was too short.
    pub closed_issue_runway: u64,
}

impl BatchWindowStats {
    /// Records a window of `w` ticks whose length was capped by `bound`.
    pub(crate) fn record_window(&mut self, w: u64, bound: WindowBound) {
        self.windows += 1;
        // Saturating: a diagnostic must never abort a run, and the sum
        // can only saturate when `w` itself is near the u64 horizon.
        self.ticks = self.ticks.saturating_add(w);
        // Clamped to 2 so floor(log2(w)) >= 1; the engine only records
        // windows of at least MIN_WINDOW_TICKS.
        let log2 = 63 - u64::leading_zeros(w.max(2)) as usize;
        let bucket = (log2 - 1).min(WINDOW_SIZE_BUCKETS - 1);
        self.size_histogram[bucket] += 1;
        match bound {
            WindowBound::EpochCap => self.bounded_by_epoch += 1,
            WindowBound::LimitCap => self.bounded_by_limit += 1,
            WindowBound::Horizon => self.bounded_by_horizon += 1,
        }
    }

    /// Records one per-tick fallback and its reason.
    pub(crate) fn record_close(&mut self, close: BatchClose) {
        match close {
            BatchClose::Disabled => self.closed_disabled += 1,
            BatchClose::VfTransition => self.closed_vf_transition += 1,
            BatchClose::MemoryActive => self.closed_memory_active += 1,
            BatchClose::EpochOrCycleCap => self.closed_epoch_or_cycle_cap += 1,
            BatchClose::SmActive => self.closed_sm_active += 1,
            BatchClose::Draining => self.closed_draining += 1,
            BatchClose::IssueRunway => self.closed_issue_runway += 1,
        }
    }

    /// Total per-tick fallbacks across every close reason.
    pub fn closes_total(&self) -> u64 {
        self.closed_disabled
            + self.closed_vf_transition
            + self.closed_memory_active
            + self.closed_epoch_or_cycle_cap
            + self.closed_sm_active
            + self.closed_draining
            + self.closed_issue_runway
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sizes_land_in_log2_buckets() {
        let mut stats = BatchWindowStats::default();
        stats.record_window(2, WindowBound::EpochCap);
        stats.record_window(3, WindowBound::EpochCap);
        stats.record_window(4, WindowBound::LimitCap);
        stats.record_window(1024, WindowBound::EpochCap);
        stats.record_window(u64::MAX, WindowBound::Horizon);
        assert_eq!(stats.size_histogram[0], 2, "2 and 3 share the first bucket");
        assert_eq!(stats.size_histogram[1], 1);
        assert_eq!(stats.size_histogram[9], 1, "1024 = 2^10");
        assert_eq!(stats.size_histogram[WINDOW_SIZE_BUCKETS - 1], 1);
        assert_eq!(stats.windows, 5);
        assert_eq!(stats.ticks, u64::MAX, "the tick sum saturates");
        assert_eq!(stats.bounded_by_epoch, 3);
        assert_eq!(stats.bounded_by_limit, 1);
        assert_eq!(stats.bounded_by_horizon, 1);
    }

    #[test]
    fn close_reasons_accumulate_and_total() {
        let mut stats = BatchWindowStats::default();
        stats.record_close(BatchClose::Disabled);
        stats.record_close(BatchClose::MemoryActive);
        stats.record_close(BatchClose::MemoryActive);
        stats.record_close(BatchClose::IssueRunway);
        stats.record_close(BatchClose::Draining);
        assert_eq!(stats.closed_memory_active, 2);
        assert_eq!(stats.closed_draining, 1);
        assert_eq!(stats.closes_total(), 5);
    }
}
