//! Hot-path telemetry is observation only: the batch-window diagnostic
//! lives outside `RunStats`, is driven purely by the engine's own proof
//! attempts, and must say something coherent about the run. These tests
//! pin that contract.

use std::sync::Arc;

use equalizer_sim::engine::{Engine, StepEvent};
use equalizer_sim::governor::StaticGovernor;
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::prelude::*;
use equalizer_sim::stats::RunStats;
use equalizer_sim::telemetry::BatchWindowStats;
use equalizer_workloads::kernel_by_name;

/// Hand-steps a full run and returns its stats plus the batch-window
/// diagnostic.
fn stepped_run(
    config: &GpuConfig,
    kernel: &KernelSpec,
    options: SimOptions,
) -> (RunStats, BatchWindowStats) {
    let mut engine = Engine::new(config, kernel, options).unwrap();
    while engine.step(&mut StaticGovernor).unwrap() != StepEvent::Complete {}
    let windows = engine.batch_window_stats().clone();
    (engine.stats(), windows)
}

#[test]
fn run_reports_coherent_window_diagnostics() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    // A long pure-ALU kernel so batched windows actually open.
    let kernel = KernelSpec::new(
        "telemetry-alu",
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
    let (stats, windows) = stepped_run(&config, &kernel, SimOptions::default());

    // The batch-window diagnostic is unconditional and internally
    // coherent.
    assert!(windows.windows > 0, "ALU kernel must open windows");
    assert_eq!(windows.ticks, stats.batched_ticks, "diagnostic ticks agree");
    assert_eq!(
        windows.size_histogram.iter().sum::<u64>(),
        windows.windows,
        "every window lands in exactly one size bucket"
    );
    assert_eq!(
        windows.bounded_by_epoch + windows.bounded_by_limit + windows.bounded_by_horizon,
        windows.windows,
        "every window records exactly one binding bound"
    );
    assert!(
        windows.closes_total() > 0,
        "memory phases must close some windows"
    );

    // The reference stepper (`fast_forward` off) opens no window: every
    // SM step is a per-tick fallback with batching disabled.
    let reference = SimOptions {
        fast_forward: false,
        ..SimOptions::default()
    };
    let (_, off) = stepped_run(&config, &kernel, reference);
    assert_eq!(off.windows, 0, "the reference opened a window");
    assert_eq!(off.closed_disabled, off.closes_total());
    assert_eq!(
        off.closes_total(),
        stats.sm_cycles_at.iter().sum::<u64>(),
        "one fallback per SM tick"
    );
}

#[test]
fn batch_window_stats_are_deterministic() {
    // Like RunStats, the window diagnostic is a pure function of the
    // run: a repeat run and a one-shot `Engine::run` reproduce the
    // hand-stepped counts exactly.
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    // prtcl-2 is the catalog kernel whose ticks mostly batch, so the
    // diagnostic has windows, bounds and closes to reproduce.
    let kernel = kernel_by_name("prtcl-2").unwrap();
    let (stats, base) = stepped_run(&config, &kernel, SimOptions::default());
    assert!(base.windows > 0, "prtcl-2 must open windows");
    let (repeat_stats, repeat) = stepped_run(&config, &kernel, SimOptions::default());
    assert_eq!(stats, repeat_stats);
    assert_eq!(base, repeat, "a repeat run changed the window diagnostic");
    let mut engine = Engine::new(&config, &kernel, SimOptions::default()).unwrap();
    engine.run(&mut StaticGovernor).unwrap();
    assert_eq!(
        &base,
        engine.batch_window_stats(),
        "Engine::run and hand-stepping disagree on the window diagnostic"
    );
}
