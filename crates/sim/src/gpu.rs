//! Run-to-completion entry points over the step-wise [`Engine`].
//!
//! [`simulate`] and [`simulate_with`] build an [`Engine`], drive it to
//! completion and return the assembled [`RunStats`]. Callers that need
//! incremental stepping, mid-run inspection or [`crate::engine::Observer`]
//! hooks should use [`Engine`] directly.

use std::error::Error;
use std::fmt;

use crate::config::GpuConfig;
use crate::engine::Engine;
use crate::governor::Governor;
use crate::kernel::KernelSpec;
use crate::stats::RunStats;

/// Errors produced by [`simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The GPU configuration failed validation.
    InvalidConfig(String),
    /// An invocation exceeded the cycle budget (likely a deadlock or a
    /// pathologically slow configuration).
    CycleLimit {
        /// Kernel name.
        kernel: String,
        /// Invocation index that overran.
        invocation: usize,
        /// The configured limit.
        limit: u64,
        /// SM cycles the invocation had executed when it was aborted.
        executed: u64,
        /// Unpaused resident blocks across all SMs at abort.
        active_blocks: usize,
        /// Paused resident blocks across all SMs at abort.
        paused_blocks: usize,
        /// Warps still resident across all SMs at abort.
        resident_warps: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid GPU configuration: {msg}"),
            SimError::CycleLimit {
                kernel,
                invocation,
                limit,
                executed,
                active_blocks,
                paused_blocks,
                resident_warps,
            } => write!(
                f,
                "kernel {kernel} invocation {invocation} exceeded {limit} SM cycles \
                 (executed {executed}; at abort: {active_blocks} active / {paused_blocks} \
                 paused blocks, {resident_warps} resident warps)"
            ),
        }
    }
}

impl Error for SimError {}

/// Knobs for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Abort an invocation after this many SM cycles.
    pub max_cycles_per_invocation: u64,
    /// Record the per-epoch timeline in [`RunStats::epochs`]. This
    /// installs the engine's bundled [`crate::engine::Recorder`] observer.
    pub record_epochs: bool,
    /// The simulator's fast paths (DESIGN.md §13). On by default.
    ///
    /// Two wall-clock optimisations ride this switch. The issue stage
    /// takes the ready-set walk: it visits only the warps whose
    /// scoreboard allows issue and counts the rest of the exact
    /// per-cycle warp-state snapshot from bitmasks (the full walk still
    /// runs while launch stagger counts down, for programs with
    /// barriers, and past 64 scheduled warps). And the engine opens
    /// batched *runway windows*: when the memory system and every SM are
    /// quiescent, no VF transition is pending and every schedulable warp
    /// is at least [`crate::engine::MIN_WINDOW_TICKS`] instructions from
    /// its next memory access and from program completion, it runs the
    /// whole window SM by SM instead of tick by tick. Results are
    /// bit-identical on or off — `tests/reference_equivalence.rs` and
    /// the `cargo xtask ci` fast-forward gate enforce it — so this is
    /// purely a wall-clock knob. Off is the reference stepper every
    /// fast path is checked against: one SM tick per engine step, full
    /// issue walks every cycle, no windows.
    pub fast_forward: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            max_cycles_per_invocation: 80_000_000,
            record_epochs: true,
            fast_forward: true,
        }
    }
}

/// Runs `kernel` to completion under `governor` with default options.
///
/// # Errors
///
/// Returns [`SimError::InvalidConfig`] for an inconsistent configuration
/// and [`SimError::CycleLimit`] if an invocation fails to complete within
/// the cycle budget.
///
/// # Examples
///
/// ```
/// # use equalizer_sim::prelude::*;
/// # use std::sync::Arc;
/// let config = GpuConfig::gtx480();
/// let program = Arc::new(Program::new(vec![Segment::new(vec![Instr::alu()], 8)]));
/// let kernel = KernelSpec::new(
///     "demo",
///     KernelCategory::Compute,
///     4,
///     8,
///     vec![Invocation { grid_blocks: 30, program }],
/// );
/// let stats = simulate(&config, &kernel, &mut StaticGovernor)?;
/// assert!(stats.instructions() > 0);
/// # Ok::<(), equalizer_sim::gpu::SimError>(())
/// ```
pub fn simulate(
    config: &GpuConfig,
    kernel: &KernelSpec,
    governor: &mut dyn Governor,
) -> Result<RunStats, SimError> {
    simulate_with(config, kernel, governor, SimOptions::default())
}

/// Runs `kernel` under `governor` with explicit [`SimOptions`].
///
/// # Errors
///
/// See [`simulate`].
pub fn simulate_with(
    config: &GpuConfig,
    kernel: &KernelSpec,
    governor: &mut dyn Governor,
    options: SimOptions,
) -> Result<RunStats, SimError> {
    Engine::new(config, kernel, options)?.run(governor)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VfLevel;
    use crate::governor::{FixedBlocksGovernor, StaticGovernor};
    use crate::kernel::{Invocation, KernelCategory};
    use crate::program::{Instr, Program, Segment};
    use std::sync::Arc;

    fn small_config() -> GpuConfig {
        let mut c = GpuConfig::gtx480();
        c.num_sms = 2;
        c
    }

    fn alu_kernel(blocks: u64) -> KernelSpec {
        KernelSpec::new(
            "gpu-alu",
            KernelCategory::Compute,
            4,
            8,
            vec![Invocation {
                grid_blocks: blocks,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu(), Instr::alu_dep()],
                    100,
                )])),
            }],
        )
    }

    #[test]
    fn simulate_completes_and_counts_instructions() {
        let stats = simulate(&small_config(), &alu_kernel(8), &mut StaticGovernor).unwrap();
        assert_eq!(stats.instructions(), 8 * 4 * 2 * 100);
        assert!(stats.wall_time_fs > 0);
        assert!(stats.time_seconds() > 0.0);
    }

    #[test]
    fn simulate_is_deterministic() {
        let a = simulate(&small_config(), &alu_kernel(8), &mut StaticGovernor).unwrap();
        let b = simulate(&small_config(), &alu_kernel(8), &mut StaticGovernor).unwrap();
        assert_eq!(a.wall_time_fs, b.wall_time_fs);
        assert_eq!(a.instructions(), b.instructions());
        assert_eq!(a.sm_cycles_at, b.sm_cycles_at);
    }

    #[test]
    fn higher_sm_frequency_speeds_up_compute() {
        let base = simulate(&small_config(), &alu_kernel(16), &mut StaticGovernor).unwrap();
        let hi_cfg = small_config().with_static_levels(VfLevel::High, VfLevel::Nominal);
        let hi = simulate(&hi_cfg, &alu_kernel(16), &mut StaticGovernor).unwrap();
        let speedup = base.time_seconds() / hi.time_seconds();
        assert!(
            speedup > 1.10,
            "compute kernel should gain from SM boost (speedup {speedup:.3})"
        );
    }

    fn long_alu_kernel(blocks: u64) -> KernelSpec {
        KernelSpec::new(
            "gpu-alu-long",
            KernelCategory::Compute,
            4,
            8,
            vec![Invocation {
                grid_blocks: blocks,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu(), Instr::alu_dep()],
                    4000,
                )])),
            }],
        )
    }

    #[test]
    fn fewer_blocks_slow_down_compute() {
        let full = simulate(&small_config(), &long_alu_kernel(32), &mut StaticGovernor).unwrap();
        let one = simulate(
            &small_config(),
            &long_alu_kernel(32),
            &mut FixedBlocksGovernor::new(1),
        )
        .unwrap();
        assert!(
            one.time_seconds() > full.time_seconds() * 1.05,
            "starving a compute kernel of blocks must cost performance"
        );
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = small_config();
        c.num_sms = 0;
        let err = simulate(&c, &alu_kernel(1), &mut StaticGovernor).unwrap_err();
        assert!(matches!(err, SimError::InvalidConfig(_)));
    }

    #[test]
    fn cycle_limit_fires_with_diagnostics() {
        let opts = SimOptions {
            max_cycles_per_invocation: 50,
            record_epochs: false,
            ..SimOptions::default()
        };
        let err =
            simulate_with(&small_config(), &alu_kernel(64), &mut StaticGovernor, opts).unwrap_err();
        match err {
            SimError::CycleLimit {
                limit,
                executed,
                active_blocks,
                resident_warps,
                ..
            } => {
                assert_eq!(limit, 50);
                assert!(executed > limit, "executed count covers the overrun");
                assert!(active_blocks > 0, "blocks were still resident at abort");
                assert!(resident_warps > 0, "warps were still resident at abort");
            }
            other => panic!("expected CycleLimit, got {other:?}"),
        }
    }

    #[test]
    fn cycle_limit_display_mentions_occupancy() {
        let err = SimError::CycleLimit {
            kernel: "k".into(),
            invocation: 0,
            limit: 10,
            executed: 17,
            active_blocks: 3,
            paused_blocks: 1,
            resident_warps: 12,
        };
        let msg = err.to_string();
        assert!(msg.contains("exceeded 10 SM cycles"));
        assert!(msg.contains("executed 17"));
        assert!(msg.contains("3 active"));
        assert!(msg.contains("1 paused"));
        assert!(msg.contains("12 resident warps"));
    }

    #[test]
    fn multi_invocation_kernels_record_per_invocation_stats() {
        let prog = Arc::new(Program::new(vec![Segment::new(vec![Instr::alu()], 50)]));
        let k = KernelSpec::new(
            "multi",
            KernelCategory::Compute,
            2,
            8,
            vec![
                Invocation {
                    grid_blocks: 4,
                    program: prog.clone(),
                },
                Invocation {
                    grid_blocks: 8,
                    program: prog,
                },
            ],
        );
        let stats = simulate(&small_config(), &k, &mut StaticGovernor).unwrap();
        assert_eq!(stats.invocations.len(), 2);
        assert!(stats.invocations[1].sm_cycles >= stats.invocations[0].sm_cycles / 2);
        assert_eq!(stats.instructions(), (4 + 8) * 2 * 50);
    }

    #[test]
    fn epoch_records_are_collected_deterministically() {
        // 2000 iterations of 2 instructions across 64 blocks on 2 SMs is
        // far beyond two 4096-cycle epochs, so the timeline is guaranteed
        // non-empty — no conditional escape hatch.
        let k = KernelSpec::new(
            "gpu-epochs",
            KernelCategory::Compute,
            4,
            8,
            vec![Invocation {
                grid_blocks: 64,
                program: Arc::new(Program::new(vec![Segment::new(
                    vec![Instr::alu(), Instr::alu_dep()],
                    2000,
                )])),
            }],
        );
        let stats = simulate(&small_config(), &k, &mut StaticGovernor).unwrap();
        assert!(
            stats.sm_cycles_at.iter().sum::<u64>() >= 2 * 4096,
            "kernel must span at least two epochs"
        );
        assert!(stats.epochs.len() >= 2);
        for (i, rec) in stats.epochs.iter().enumerate() {
            assert_eq!(rec.epoch_index, i as u64 + 1, "epoch indices are dense");
        }
        for pair in stats.epochs.windows(2) {
            assert!(pair[0].end_fs < pair[1].end_fs, "epoch times increase");
        }
        assert!(stats.epochs.last().map(|r| r.end_fs).unwrap_or(0) <= stats.wall_time_fs);
    }
}
