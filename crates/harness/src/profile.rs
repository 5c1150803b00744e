//! Host-side wall-clock profiling of the simulator itself.
//!
//! The simulation crates are deterministic and never read the host
//! clock; the harness is the layer where wall-clock timing is allowed.
//! [`run_profiled`] drives an [`Engine`] step by step, attributing the
//! host time of each `step()` call to the [`StepEvent`] kind it
//! returned. The resulting [`StepProfile`] answers "where does the
//! simulator spend its time?" — SM cycles vs. memory cycles vs. epoch
//! bookkeeping — without perturbing the simulated run in any way.
//!
//! One step is not one unit of work: a batched window executes many SM
//! ticks in a single `SmCycle` step. Each span therefore also counts the
//! SM ticks its steps executed (read from the change in
//! [`Engine::batched_ticks`] across the step), and the table shows the
//! mean host time per tick beside the mean per step.

use std::time::{Duration, Instant};

use equalizer_sim::engine::{Engine, StepEvent};
use equalizer_sim::governor::Governor;
use equalizer_sim::gpu::SimError;
use equalizer_sim::stats::RunStats;

use crate::tables::TextTable;

/// Accumulated host time for one class of engine step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// How many steps of this class ran.
    pub steps: u64,
    /// SM-domain ticks those steps executed: one per per-tick SM step,
    /// the window length for a batched window, zero for memory cycles
    /// and invocation setup.
    pub ticks: u64,
    /// Total host wall-clock time spent in them.
    pub wall: Duration,
}

impl Span {
    fn add(&mut self, d: Duration, ticks: u64) {
        self.steps += 1;
        self.ticks += ticks;
        self.wall += d;
    }

    /// Mean host nanoseconds per step (0 when the span never ran).
    pub fn mean_ns(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.wall.as_nanos() as f64 / self.steps as f64
        }
    }

    /// Mean host nanoseconds per SM tick (0 when the span ran none).
    pub fn mean_ns_per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.wall.as_nanos() as f64 / self.ticks as f64
        }
    }
}

/// Host-time breakdown of a full simulation run by step kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepProfile {
    /// Invocation setup (block dispatch, counter reset).
    pub invocation_start: Span,
    /// Memory-domain cycles (L2, MSHRs, DRAM).
    pub mem_cycle: Span,
    /// SM-domain cycles (the hot loop).
    pub sm_cycle: Span,
    /// Epoch boundaries (governor decision + observer fan-out).
    pub epoch_boundary: Span,
    /// Invocation teardown (drain + stats fold).
    pub invocation_end: Span,
    /// End-to-end host time of the whole run.
    pub total: Duration,
}

impl StepProfile {
    /// Total host time attributed to individual steps (excludes loop
    /// overhead, which is `total` minus this).
    pub fn attributed(&self) -> Duration {
        self.invocation_start.wall
            + self.mem_cycle.wall
            + self.sm_cycle.wall
            + self.epoch_boundary.wall
            + self.invocation_end.wall
    }

    /// SM-domain ticks executed over the whole run.
    pub fn sm_ticks(&self) -> u64 {
        self.sm_cycle.ticks + self.epoch_boundary.ticks + self.invocation_end.ticks
    }

    /// Renders the breakdown as an aligned text table.
    pub fn render(&self) -> String {
        let rows: [(&str, &Span); 5] = [
            ("invocation_start", &self.invocation_start),
            ("sm_cycle", &self.sm_cycle),
            ("mem_cycle", &self.mem_cycle),
            ("epoch_boundary", &self.epoch_boundary),
            ("invocation_end", &self.invocation_end),
        ];
        let total_ns = self.total.as_nanos().max(1) as f64;
        let mut table = TextTable::new([
            "stage",
            "steps",
            "sm_ticks",
            "wall_ms",
            "mean_ns",
            "ns_per_tick",
            "share",
        ]);
        for (name, span) in rows {
            let per_tick = if span.ticks == 0 {
                "-".to_string()
            } else {
                format!("{:.1}", span.mean_ns_per_tick())
            };
            table.row([
                name.to_string(),
                span.steps.to_string(),
                span.ticks.to_string(),
                format!("{:.3}", span.wall.as_secs_f64() * 1e3),
                format!("{:.1}", span.mean_ns()),
                per_tick,
                format!("{:.1}%", span.wall.as_nanos() as f64 / total_ns * 100.0),
            ]);
        }
        table.row([
            "total".to_string(),
            "-".to_string(),
            self.sm_ticks().to_string(),
            format!("{:.3}", self.total.as_secs_f64() * 1e3),
            "-".to_string(),
            "-".to_string(),
            "100.0%".to_string(),
        ]);
        table.render()
    }
}

/// Runs `engine` to completion under `governor`, timing every step.
///
/// Returns the run's [`RunStats`] and the host-time profile. The
/// simulated outcome is identical to [`Engine::run`] — profiling only
/// reads the host clock between steps.
///
/// # Errors
///
/// Propagates any [`SimError`] from the engine.
pub fn run_profiled(
    engine: &mut Engine<'_>,
    governor: &mut dyn Governor,
) -> Result<(RunStats, StepProfile), SimError> {
    let mut profile = StepProfile::default();
    let run_start = Instant::now();
    loop {
        let batched_before = engine.batched_ticks();
        let step_start = Instant::now();
        let event = engine.step(governor)?;
        let elapsed = step_start.elapsed();
        // A step that advanced the SM domain ran either one per-tick
        // cycle or a whole batched window of `batched` ticks.
        let batched = engine.batched_ticks() - batched_before;
        let sm_ticks = batched.max(1);
        match event {
            StepEvent::InvocationStart(_) => profile.invocation_start.add(elapsed, 0),
            StepEvent::MemCycle => profile.mem_cycle.add(elapsed, 0),
            StepEvent::SmCycle => profile.sm_cycle.add(elapsed, sm_ticks),
            StepEvent::EpochBoundary => profile.epoch_boundary.add(elapsed, sm_ticks),
            StepEvent::InvocationEnd(_) => profile.invocation_end.add(elapsed, sm_ticks),
            StepEvent::Complete => break,
        }
    }
    profile.total = run_start.elapsed();
    Ok((engine.stats(), profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use equalizer_sim::config::GpuConfig;
    use equalizer_sim::governor::StaticGovernor;
    use equalizer_sim::gpu::SimOptions;
    use equalizer_workloads::kernel_by_name;

    #[test]
    fn profiled_run_matches_plain_run() {
        let config = GpuConfig::gtx480();
        let kernel = kernel_by_name("mmer").unwrap();
        let mut plain = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        plain.run(&mut StaticGovernor).unwrap();
        let expected = plain.stats();

        let mut engine = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
        let (stats, profile) = run_profiled(&mut engine, &mut StaticGovernor).unwrap();
        assert_eq!(stats.wall_time_fs, expected.wall_time_fs);
        assert_eq!(stats.sm_cycles_at, expected.sm_cycles_at);
        assert!(profile.sm_cycle.steps > 0);
        assert!(profile.mem_cycle.steps > 0);
        assert!(profile.invocation_start.steps as usize == kernel.invocations().len());
        assert!(profile.total >= profile.sm_cycle.wall);

        // Every SM tick is counted once, whether it ran per-tick or
        // inside a window, so the tick total is the shared SM clock's.
        assert!(stats.batched_ticks > 0, "mmer must open windows");
        assert_eq!(profile.sm_ticks(), stats.sm_cycles_at.iter().sum::<u64>());
        assert_eq!(
            profile.sm_cycle.ticks,
            profile.sm_cycle.steps + stats.batched_ticks - engine.batch_window_stats().windows,
            "a window step carries its whole length"
        );
        assert_eq!(profile.mem_cycle.ticks, 0);
        assert_eq!(profile.invocation_start.ticks, 0);
        assert_eq!(profile.epoch_boundary.ticks, profile.epoch_boundary.steps);
        assert!(profile.sm_cycle.mean_ns_per_tick() <= profile.sm_cycle.mean_ns());
    }

    #[test]
    fn render_mentions_every_stage() {
        let p = StepProfile::default();
        let text = p.render();
        for stage in [
            "invocation_start",
            "sm_cycle",
            "mem_cycle",
            "epoch_boundary",
            "invocation_end",
            "total",
            "sm_ticks",
            "ns_per_tick",
        ] {
            assert!(text.contains(stage), "{text}");
        }
    }

    #[test]
    fn render_shows_ns_per_tick_beside_ns_per_step() {
        let mut p = StepProfile::default();
        // One per-tick step and one 9-tick window: 10 ticks in 2 steps.
        p.sm_cycle.add(Duration::from_nanos(100), 1);
        p.sm_cycle.add(Duration::from_nanos(900), 9);
        p.total = Duration::from_nanos(1000);
        assert_eq!(p.sm_cycle.ticks, 10);
        assert!((p.sm_cycle.mean_ns() - 500.0).abs() < 1e-9);
        assert!((p.sm_cycle.mean_ns_per_tick() - 100.0).abs() < 1e-9);
        let text = p.render();
        let row = text
            .lines()
            .find(|l| l.trim_start().starts_with("sm_cycle"))
            .expect("sm_cycle row");
        let cells: Vec<&str> = row.split_whitespace().collect();
        assert_eq!(cells[1..4], ["2", "10", "0.001"], "{text}");
        assert_eq!(cells[4..6], ["500.0", "100.0"], "{text}");
        // Stages that never tick the SM domain show no per-tick mean.
        let mem = text
            .lines()
            .find(|l| l.trim_start().starts_with("mem_cycle"))
            .expect("mem_cycle row");
        assert_eq!(mem.split_whitespace().nth(5), Some("-"), "{text}");
    }
}
