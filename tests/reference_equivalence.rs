//! Every fast path is a pure wall-clock optimisation: with default
//! options (ready-set issue walk and quiescence-gated runway windows)
//! the engine must produce bit-identical `RunStats` — epoch timelines
//! included — to the reference stepper, the plain per-tick serial path
//! with `fast_forward` off. These tests pin that across the tier-1
//! workloads, Equalizer, MSHR pressure, the per-SM-VRM machine, runs
//! with mid-run VF transitions, the full 15-SM machine and prtcl-2, the
//! catalog kernel that runs mostly inside windows.

use std::sync::Arc;

use equalizer_core::{Equalizer, Mode};
use equalizer_sim::governor::{
    EpochContext, EpochDecision, Governor, SmEpochReport, StaticGovernor, VfRequest,
};
use equalizer_sim::gpu::{simulate_with, SimOptions};
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::prelude::*;
use equalizer_sim::stats::RunStats;
use equalizer_workloads::kernel_by_name;

/// The reference stepper: one SM tick per engine step, full issue walks,
/// no windows.
fn reference() -> SimOptions {
    SimOptions {
        fast_forward: false,
        ..SimOptions::default()
    }
}

/// Runs `kernel` with default options and on the reference stepper,
/// each with a fresh governor from `make_gov`, asserting the complete
/// statistics are bit-identical. `batched_ticks` is zeroed on both
/// sides so a failure's diff shows only simulated state: it is the one
/// field that describes the fast paths rather than the machine. Returns
/// the default run's statistics with `batched_ticks` restored, so
/// callers can require that windows actually opened.
fn assert_matches_reference<G, F>(
    name: &str,
    config: &GpuConfig,
    kernel: &KernelSpec,
    make_gov: F,
) -> RunStats
where
    G: Governor,
    F: Fn() -> G,
{
    let mut reference: RunStats = simulate_with(config, kernel, &mut make_gov(), reference())
        .unwrap_or_else(|e| panic!("{name}: reference run failed: {e}"));
    assert!(reference.instructions() > 0, "{name}: kernel must do work");
    assert_eq!(
        reference.batched_ticks, 0,
        "{name}: the reference opened a window"
    );
    let mut fast = simulate_with(config, kernel, &mut make_gov(), SimOptions::default())
        .unwrap_or_else(|e| panic!("{name}: default run failed: {e}"));
    let batched = fast.batched_ticks;
    reference.batched_ticks = 0;
    fast.batched_ticks = 0;
    assert_eq!(
        reference, fast,
        "{name}: default options diverged from the reference stepper"
    );
    fast.batched_ticks = batched;
    fast
}

#[test]
fn tier1_workloads_match_the_reference() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    for name in ["mri-q", "mmer", "cfd-2"] {
        let kernel = kernel_by_name(name).unwrap();
        assert_matches_reference(name, &config, &kernel, || StaticGovernor);
    }
}

#[test]
fn equalizer_runs_match_the_reference() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    let kernel = kernel_by_name("mmer").unwrap();
    assert_matches_reference("equalizer/mmer", &config, &kernel, || {
        Equalizer::new(Mode::Performance, config.num_sms)
    });
}

#[test]
fn mshr_pressure_matches_the_reference() {
    // A cache-thrashing kernel keeps the interconnect back-pressured, so
    // the commit phase's arbitration order is exercised every cycle and
    // every window proof must refuse the busy memory system.
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let kernel = equalizer_workloads::cache_kernel(
        "parallel-thrash",
        8,
        6,
        1.0,
        equalizer_workloads::CacheParams {
            lines_per_warp: 96,
            divergence: 4,
            alu_per_load: 2,
            alu_dep_every: 0,
            iterations: 30,
            waves: 2.0,
        },
    );
    assert_matches_reference("thrash", &config, &kernel, || StaticGovernor);
}

#[test]
fn per_sm_vrm_runs_match_the_reference() {
    // Per-SM VRMs drift the SM clocks apart, so different subsets of SMs
    // are due each tick; batching is off on this machine, but the
    // ready-set issue walk still runs.
    let mut config = GpuConfig::gtx480();
    config.num_sms = 6;
    config.per_sm_vrm = true;
    let kernel = kernel_by_name("sc").unwrap();
    assert_matches_reference("per-sm-vrm/sc", &config, &kernel, || {
        Equalizer::new(Mode::Energy, 6).with_per_sm_vrm(true)
    });
}

/// Boosts the SM domain at the first epoch and throttles it two epochs
/// later, so the run crosses VF transitions (period changes) mid-flight.
#[derive(Default)]
struct BoostThenThrottle {
    epochs: u64,
}

impl Governor for BoostThenThrottle {
    fn name(&self) -> &str {
        "boost-then-throttle"
    }
    fn epoch(&mut self, _ctx: &EpochContext, reports: &[SmEpochReport]) -> EpochDecision {
        self.epochs += 1;
        let mut d = EpochDecision::maintain(reports.len());
        match self.epochs {
            1 => {
                d.sm_vf = VfRequest::Increase;
                d.target_blocks = reports.iter().map(|_| Some(2)).collect();
            }
            3 => {
                d.sm_vf = VfRequest::Decrease;
                d.mem_vf = VfRequest::Increase;
            }
            _ => {}
        }
        d
    }
}

#[test]
fn mid_run_vf_transitions_match_the_reference() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let kernel = vf_mix_kernel();
    assert_matches_reference("vf-mix", &config, &kernel, BoostThenThrottle::default);
}

/// A mixed ALU/load/sync kernel whose runs cross VF transitions under
/// [`BoostThenThrottle`].
fn vf_mix_kernel() -> KernelSpec {
    KernelSpec::new(
        "vf-mix",
        KernelCategory::Compute,
        4,
        8,
        vec![Invocation {
            grid_blocks: 48,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![
                    Instr::alu(),
                    Instr::load_streaming(),
                    Instr::alu_dep(),
                    Instr::Sync,
                ],
                900,
            )])),
        }],
    )
}

#[test]
fn full_machine_matches_the_reference() {
    // The full 15-SM machine: the rotated service order spans every SM.
    let config = GpuConfig::gtx480();
    assert_eq!(config.num_sms, 15, "the full gtx480 array");
    let kernel = KernelSpec::new(
        "uneven",
        KernelCategory::Compute,
        4,
        8,
        vec![Invocation {
            grid_blocks: 60,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![Instr::alu(), Instr::load_streaming(), Instr::alu_dep()],
                150,
            )])),
        }],
    );
    assert_matches_reference("uneven", &config, &kernel, || StaticGovernor);
}

#[test]
fn tick_batching_is_bit_identical_to_per_tick() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;

    // A long pure-ALU kernel: once the initial loads drain, every warp
    // is provably memory-free for thousands of cycles, so windows must
    // actually open. (Refusing windows across in-flight memory and
    // pending VF transitions is covered by
    // `mid_run_vf_transitions_match_the_reference`.)
    let alu = KernelSpec::new(
        "batch-alu",
        KernelCategory::Compute,
        4,
        8,
        vec![Invocation {
            grid_blocks: 24,
            program: Arc::new(Program::new(vec![Segment::new(
                vec![Instr::alu(), Instr::alu_dep()],
                3000,
            )])),
        }],
    );
    let stats = assert_matches_reference("batch-alu", &config, &alu, || StaticGovernor);
    assert!(
        stats.batched_ticks > 0,
        "a pure-ALU kernel must open batched windows"
    );
}

#[test]
fn prtcl2_runs_mostly_inside_windows_and_matches_the_reference() {
    // The one Table II kernel whose ticks mostly batch: if windows
    // silently stop opening, the coverage bound below fails.
    let config = GpuConfig::gtx480();
    let kernel = kernel_by_name("prtcl-2").unwrap();
    let stats = assert_matches_reference("prtcl-2", &config, &kernel, || StaticGovernor);
    let ticks: u64 = stats.sm_cycles_at.iter().sum();
    assert!(
        2 * stats.batched_ticks >= ticks,
        "prtcl-2: {} of {ticks} SM ticks batched, under half",
        stats.batched_ticks
    );
}
