//! `sim-ffcheck` — the fast-forward CI gate.
//!
//! `SimOptions::fast_forward` switches both fast paths (the ready-set
//! issue walk and quiescence-gated runway windows); off, the engine is
//! the reference per-tick stepper. Three assertions, in order of
//! importance:
//!
//! 1. **Bit-identity.** The fast paths are wall-clock only and must
//!    never change simulated results. The gate runs the memory-active
//!    tier-1 workload (`mri-q`, full 15-SM GTX 480) under every
//!    governor family — static, Equalizer in both modes, DynCTA and the
//!    CCWS baseline — and requires `RunStats` equality between the
//!    default run and the reference stepper for each. (`RunStats`
//!    equality deliberately excludes the `batched_ticks` diagnostic.)
//! 2. **Coverage.** On a stall-heavy workload — one load, then a
//!    dependence chain long enough for the memory system to drain — at
//!    least half of all SM ticks must execute inside batched windows.
//!    A change that silently stops windows from opening fails here.
//! 3. **Speedup.** Serial `mri-q` on the 15-SM machine must be at
//!    least 1.5x faster with the fast paths on than on the reference
//!    stepper (median over interleaved pairs, so host load drift
//!    cancels).
//!
//! Runs entirely in-process; `cargo xtask ci` invokes it on every host
//! (a single core is enough — the fast paths are about skipping work).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use equalizer_baselines::{ccws_baseline, DynCta};
use equalizer_core::{Equalizer, Mode};
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::Engine;
use equalizer_sim::governor::{Governor, StaticGovernor};
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::program::{Instr, Program, Segment};
use equalizer_sim::stats::RunStats;
use equalizer_workloads::kernel_by_name;

/// Minimum batched-tick share on the stall-heavy workload.
const COVERAGE_TARGET: f64 = 0.50;
/// Minimum median speedup over the reference stepper on serial 15-SM
/// `mri-q`.
const SPEEDUP_TARGET: f64 = 1.5;
/// Interleaved default/reference timing pairs for the speedup median.
const SPEEDUP_PAIRS: usize = 5;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("sim-ffcheck: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// One completed run: its results and its window diagnostics.
struct Run {
    stats: RunStats,
    batched_ticks: u64,
    total_ticks: u64,
    wall: f64,
}

fn simulate(
    config: &GpuConfig,
    kernel: &KernelSpec,
    governor: &mut dyn Governor,
    options: SimOptions,
) -> Result<Run, String> {
    let start = Instant::now();
    let mut engine =
        Engine::new(config, kernel, options).map_err(|e| format!("engine setup: {e}"))?;
    let stats = engine.run(governor).map_err(|e| format!("run: {e}"))?;
    Ok(Run {
        batched_ticks: engine.batched_ticks(),
        total_ticks: stats.sm_cycles_at.iter().sum(),
        wall: start.elapsed().as_secs_f64(),
        stats,
    })
}

/// A workload whose warps spend most cycles asleep — one streaming load
/// then a long dependence chain per pass — so batched windows, not the
/// per-cycle pipeline, should carry the run.
fn stall_kernel() -> KernelSpec {
    // One streaming load, then a dependence chain long enough that the
    // memory system fully drains while every warp crawls through it:
    // the chain phase is where wide windows open (long issue runway,
    // nothing in flight). Low occupancy keeps warps from papering over
    // each other's stalls with issues.
    let mut body = vec![Instr::load_streaming()];
    body.extend(std::iter::repeat_with(Instr::alu_dep).take(96));
    KernelSpec::new(
        "ffcheck-stall",
        KernelCategory::Memory,
        2,
        2,
        vec![Invocation {
            grid_blocks: 60,
            program: Arc::new(Program::new(vec![Segment::new(body, 12)])),
        }],
    )
}

/// The reference stepper: every fast path off.
fn reference() -> SimOptions {
    SimOptions {
        fast_forward: false,
        ..SimOptions::default()
    }
}

fn run() -> Result<(), String> {
    let config = GpuConfig::gtx480();
    let mri_q = kernel_by_name("mri-q").ok_or("mri-q missing from the workload catalog")?;

    // --- 1. bit-identity against the reference, across governors.
    type Setup = (
        &'static str,
        fn(&GpuConfig) -> (GpuConfig, Box<dyn Governor>),
    );
    let systems: &[Setup] = &[
        ("static", |c| (c.clone(), Box::new(StaticGovernor))),
        ("equalizer-perf", |c| {
            (
                c.clone(),
                Box::new(Equalizer::new(Mode::Performance, c.num_sms)),
            )
        }),
        ("equalizer-energy", |c| {
            (c.clone(), Box::new(Equalizer::new(Mode::Energy, c.num_sms)))
        }),
        ("dyncta", |c| (c.clone(), Box::new(DynCta::new()))),
        ("ccws", |c| {
            let (c, g) = ccws_baseline(c.clone());
            (c, Box::new(g))
        }),
    ];
    for (name, setup) in systems {
        let mut pair = Vec::new();
        for options in [SimOptions::default(), reference()] {
            let (config, mut governor) = setup(&config);
            pair.push(simulate(&config, &mri_q, governor.as_mut(), options)?);
        }
        if pair[0].stats != pair[1].stats {
            return Err(format!(
                "mri-q under `{name}`: RunStats diverge from the reference stepper"
            ));
        }
        println!(
            "identity {name:<17} ok (batched {} of {} SM ticks)",
            pair[0].batched_ticks, pair[0].total_ticks
        );
    }

    // --- 2. window coverage.
    let stall = stall_kernel();
    let on = simulate(&config, &stall, &mut StaticGovernor, SimOptions::default())?;
    let off = simulate(&config, &stall, &mut StaticGovernor, reference())?;
    if on.stats != off.stats {
        return Err("stall workload: RunStats diverge from the reference stepper".into());
    }
    let share = on.batched_ticks as f64 / on.total_ticks.max(1) as f64;
    println!(
        "coverage stall-heavy: {:.1}% of {} SM ticks batched",
        100.0 * share,
        on.total_ticks,
    );
    if share < COVERAGE_TARGET {
        return Err(format!(
            "stall workload coverage {:.1}% is under the {:.0}% target",
            100.0 * share,
            100.0 * COVERAGE_TARGET
        ));
    }

    // --- 3. wall-clock speedup, interleaved pairs.
    let mut ratios = Vec::new();
    for i in 0..SPEEDUP_PAIRS {
        let on = simulate(&config, &mri_q, &mut StaticGovernor, SimOptions::default())?;
        let off = simulate(&config, &mri_q, &mut StaticGovernor, reference())?;
        let ratio = off.wall / on.wall.max(1e-9);
        println!(
            "speedup pair {i}: {:.3}s reference / {:.3}s default = {ratio:.2}x",
            off.wall, on.wall
        );
        ratios.push(ratio);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = ratios[ratios.len() / 2];
    if median < SPEEDUP_TARGET {
        return Err(format!(
            "serial 15-SM mri-q median speedup {median:.2}x is under the \
             {SPEEDUP_TARGET:.1}x target"
        ));
    }
    println!(
        "sim-ffcheck ok: bit-identical to the reference under every governor, stall \
         coverage above {:.0}%, mri-q median speedup {median:.2}x",
        100.0 * COVERAGE_TARGET
    );
    Ok(())
}
