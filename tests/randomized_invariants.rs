//! Randomized-input tests over the simulator, decision algorithm and power
//! model: random programs terminate with conserved instruction counts,
//! random counters never produce out-of-range decisions, and energy is
//! positive and component-additive.
//!
//! Inputs are drawn from the repo's own deterministic PRNG
//! ([`equalizer_sim::util::SplitMix64`]) instead of an external
//! property-testing framework, so the suite runs in a fully offline build
//! and every failure is reproducible from the fixed seed.

use std::sync::Arc;

use equalizer_core::{decide, table_i_votes, Action, Mode};
use equalizer_power::PowerModel;
use equalizer_sim::counters::WarpStateCounters;
use equalizer_sim::governor::{FixedBlocksGovernor, StaticGovernor};
use equalizer_sim::gpu::simulate;
use equalizer_sim::kernel::{Invocation, KernelCategory, KernelSpec};
use equalizer_sim::prelude::*;
use equalizer_sim::util::SplitMix64;

/// Fixed seed: change only deliberately, and note it in the commit.
const SEED: u64 = 0xE9A1_12E8_0001;

/// Number of random kernels per simulation property.
const KERNEL_CASES: usize = 24;

/// Draws one weighted-random instruction, mirroring the old proptest
/// strategy (3x alu, 2x alu_dep, 2x streaming load, 1x working-set load,
/// 1x streaming store, 1x barrier).
fn draw_instr(rng: &mut SplitMix64) -> Instr {
    match rng.next_below(10) {
        0..=2 => Instr::alu(),
        3..=4 => Instr::alu_dep(),
        5..=6 => Instr::load_streaming(),
        7 => Instr::Mem(MemInstr {
            is_load: true,
            pattern: AddressPattern::WorkingSet {
                lines: 1 + rng.next_below(63) as u32,
            },
            accesses: 2,
            space: MemSpace::Global,
        }),
        8 => Instr::Mem(MemInstr {
            is_load: false,
            pattern: AddressPattern::Streaming,
            accesses: 1,
            space: MemSpace::Global,
        }),
        _ => Instr::Sync,
    }
}

/// Draws a small random kernel with 1–7 body instructions.
fn draw_kernel(rng: &mut SplitMix64) -> KernelSpec {
    let body_len = 1 + rng.next_below(7) as usize;
    let body: Vec<Instr> = (0..body_len).map(|_| draw_instr(rng)).collect();
    let iters = 1 + rng.next_below(19) as u32;
    let w_cta = 1 + rng.next_below(4) as usize;
    let max_blocks = 1 + rng.next_below(4) as usize;
    let grid = 1 + rng.next_below(19);
    KernelSpec::new(
        "rand",
        KernelCategory::Unsaturated,
        w_cta,
        max_blocks,
        vec![Invocation {
            grid_blocks: grid,
            program: Arc::new(Program::new(vec![Segment::new(body, iters)])),
        }],
    )
}

/// Dynamic instructions that consume issue slots (barriers do not).
fn issued_instrs(kernel: &KernelSpec) -> u64 {
    kernel
        .invocations()
        .iter()
        .map(|inv| {
            let per_warp: u64 = inv
                .program
                .segments()
                .iter()
                .map(|seg| {
                    let non_sync = seg
                        .body
                        .iter()
                        .filter(|i| !matches!(i, Instr::Sync))
                        .count() as u64;
                    non_sync * u64::from(seg.iterations)
                })
                .sum();
            per_warp * inv.grid_blocks * kernel.warps_per_block() as u64
        })
        .sum()
}

fn small_config() -> GpuConfig {
    let mut c = GpuConfig::gtx480();
    c.num_sms = 2;
    c
}

/// Every random kernel terminates and issues exactly its dynamic
/// instruction count.
#[test]
fn random_kernels_terminate_and_conserve_instructions() {
    let mut rng = SplitMix64::new(SEED);
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        let stats = simulate(&small_config(), &kernel, &mut StaticGovernor)
            .unwrap_or_else(|e| panic!("case {case}: kernel must terminate: {e}"));
        assert_eq!(
            stats.instructions(),
            issued_instrs(&kernel),
            "case {case}: instruction conservation"
        );
        assert!(stats.wall_time_fs > 0, "case {case}: time advances");
    }
}

/// The window proof is invisible: under both VRM topologies every
/// random kernel produces the same `RunStats` with default options as
/// with the plain per-tick stepper (no fast-forward, no windows).
#[test]
fn random_kernels_match_the_per_tick_stepper() {
    use equalizer_sim::engine::Engine;

    let reference = SimOptions {
        fast_forward: false,
        ..SimOptions::default()
    };
    let run = |config: &GpuConfig, kernel: &KernelSpec, options: SimOptions, case: usize| {
        let mut engine = Engine::new(config, kernel, options)
            .unwrap_or_else(|e| panic!("case {case}: setup failed: {e}"));
        let mut stats = engine
            .run(&mut StaticGovernor)
            .unwrap_or_else(|e| panic!("case {case}: run failed: {e}"));
        let batched = engine.batched_ticks();
        stats.batched_ticks = 0;
        (stats, batched)
    };
    let mut rng = SplitMix64::new(SEED ^ 5);
    let mut windowed_cases = 0;
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        for per_sm_vrm in [false, true] {
            let mut config = small_config();
            config.per_sm_vrm = per_sm_vrm;
            let (plain, plain_batched) = run(&config, &kernel, reference, case);
            assert_eq!(
                plain_batched, 0,
                "case {case}: the reference opened a window"
            );
            let (default, batched) = run(&config, &kernel, SimOptions::default(), case);
            assert_eq!(
                default, plain,
                "case {case}: default options diverged from the per-tick stepper \
                 (per_sm_vrm={per_sm_vrm})"
            );
            windowed_cases += usize::from(batched > 0);
        }
    }
    assert!(windowed_cases > 0, "no random kernel opened a window");
}

/// Draws a random kernel long enough to span several short epochs, so
/// the governors pause and unpause blocks and change VF levels mid-run.
/// One kernel in four keeps its barriers; the rest have them replaced by
/// ALU ops, so most runs take the ready-set issue walk.
fn draw_governed_kernel(rng: &mut SplitMix64) -> KernelSpec {
    let keep_sync = rng.next_below(4) == 0;
    let body_len = 1 + rng.next_below(7) as usize;
    let body: Vec<Instr> = (0..body_len)
        .map(|_| match draw_instr(rng) {
            Instr::Sync if !keep_sync => Instr::alu(),
            instr => instr,
        })
        .collect();
    let iters = 10 + rng.next_below(40) as u32;
    let w_cta = 1 + rng.next_below(8) as usize;
    let max_blocks = 2 + rng.next_below(7) as usize;
    let grid = 8 + rng.next_below(40);
    KernelSpec::new(
        "rand-governed",
        KernelCategory::Unsaturated,
        w_cta,
        max_blocks,
        vec![Invocation {
            grid_blocks: grid,
            program: Arc::new(Program::new(vec![Segment::new(body, iters)])),
        }],
    )
}

/// The fast paths are invisible under every governor family: random
/// kernels produce the same `RunStats` (epoch records included) with
/// default options as with the reference stepper under the static
/// governor, Equalizer in both modes, DynCTA, CCWS and per-SM-VRM
/// Equalizer. Block pausing rebuilds the scheduler order and CCWS gates
/// memory issue per warp — exactly the state the ready-set issue walk
/// mirrors.
#[test]
fn random_kernels_match_the_reference_under_every_governor() {
    use equalizer_baselines::{with_ccws, DynCta};
    use equalizer_core::Equalizer;
    use equalizer_sim::ccws::CcwsConfig;
    use equalizer_sim::governor::Governor;
    use equalizer_sim::gpu::simulate_with;
    use equalizer_sim::stats::RunStats;

    type Family = (
        &'static str,
        fn(GpuConfig) -> (GpuConfig, Box<dyn Governor>),
    );
    let families: [Family; 6] = [
        ("static", |c| (c, Box::new(StaticGovernor))),
        ("equalizer-p", |c| {
            let n = c.num_sms;
            (c, Box::new(Equalizer::new(Mode::Performance, n)))
        }),
        ("equalizer-e", |c| {
            let n = c.num_sms;
            (c, Box::new(Equalizer::new(Mode::Energy, n)))
        }),
        ("dyncta", |c| (c, Box::new(DynCta::new()))),
        ("ccws", |c| {
            (
                with_ccws(c, CcwsConfig::default()),
                Box::new(StaticGovernor),
            )
        }),
        ("per-sm-vrm", |mut c| {
            c.per_sm_vrm = true;
            let n = c.num_sms;
            (
                c,
                Box::new(Equalizer::new(Mode::Energy, n).with_per_sm_vrm(true)),
            )
        }),
    ];
    let reference = SimOptions {
        fast_forward: false,
        ..SimOptions::default()
    };
    let run = |make: fn(GpuConfig) -> (GpuConfig, Box<dyn Governor>),
               kernel: &KernelSpec,
               options: SimOptions,
               at: &str|
     -> RunStats {
        let mut base = small_config();
        // Short epochs, so governors act several times per kernel.
        base.epoch_cycles = 512;
        let (config, mut governor) = make(base);
        let mut stats = simulate_with(&config, kernel, governor.as_mut(), options)
            .unwrap_or_else(|e| panic!("{at}: run failed: {e}"));
        stats.batched_ticks = 0;
        stats
    };
    let mut rng = SplitMix64::new(SEED ^ 6);
    let mut acted = 0;
    for case in 0..16 {
        let kernel = draw_governed_kernel(&mut rng);
        for (name, make) in families {
            let at = format!("case {case} ({name})");
            let plain = run(make, &kernel, reference, &at);
            let default = run(make, &kernel, SimOptions::default(), &at);
            assert_eq!(
                default, plain,
                "{at}: default options diverged from the reference stepper"
            );
            acted += usize::from(plain.epochs.windows(2).any(|w| {
                w[0].mean_target_blocks.to_bits() != w[1].mean_target_blocks.to_bits()
                    || w[0].sm_level != w[1].sm_level
                    || w[0].mem_level != w[1].mem_level
            }));
        }
    }
    assert!(acted > 0, "no governor changed blocks or levels mid-run");
}

/// Throttling concurrency never deadlocks and never changes the work.
#[test]
fn fixed_block_throttling_conserves_work() {
    let mut rng = SplitMix64::new(SEED ^ 1);
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        let blocks = 1 + rng.next_below(3) as usize;
        let stats = simulate(
            &small_config(),
            &kernel,
            &mut FixedBlocksGovernor::new(blocks),
        )
        .unwrap_or_else(|e| panic!("case {case}: throttled kernel must terminate: {e}"));
        assert_eq!(
            stats.instructions(),
            issued_instrs(&kernel),
            "case {case}: throttling conserves work"
        );
    }
}

/// Energy is positive and equals the sum of its components for any run.
#[test]
fn energy_is_positive_and_additive() {
    let mut rng = SplitMix64::new(SEED ^ 2);
    for case in 0..KERNEL_CASES {
        let kernel = draw_kernel(&mut rng);
        let stats = simulate(&small_config(), &kernel, &mut StaticGovernor)
            .unwrap_or_else(|e| panic!("case {case}: run failed: {e}"));
        let e = PowerModel::gtx480().energy(&stats);
        assert!(e.total_j() > 0.0, "case {case}: positive energy");
        let sum = e.leakage_j
            + e.sm_dynamic_j
            + e.sm_clock_j
            + e.mem_dynamic_j
            + e.mem_clock_j
            + e.dram_standby_j;
        assert!(
            (e.total_j() - sum).abs() < 1e-12,
            "case {case}: components sum to total"
        );
        assert!(
            e.leakage_j > 0.0,
            "case {case}: leakage accrues with wall time"
        );
    }
}

/// Algorithm 1 output is always within bounds: block delta in {-1, 0, +1}
/// and actions only from the defined pair.
#[test]
fn decision_is_always_bounded() {
    let mut rng = SplitMix64::new(SEED ^ 3);
    for case in 0..512 {
        let active = rng.next_below(49);
        let waiting = rng.next_below(49);
        let xalu = rng.next_below(49);
        let xmem = rng.next_below(49);
        let w_cta = 1 + rng.next_below(24) as usize;
        let samples = 32;
        let c = WarpStateCounters {
            samples,
            active: active * samples,
            waiting: waiting * samples,
            excess_alu: xalu * samples,
            excess_mem: xmem * samples,
            ..WarpStateCounters::default()
        };
        let p = decide(&c, w_cta);
        assert!(
            (-1..=1).contains(&p.block_delta),
            "case {case}: block delta bounded"
        );
        // Block reductions happen only under heavy memory contention.
        if p.block_delta < 0 {
            assert!(
                xmem as f64 > w_cta as f64,
                "case {case}: reduce only on X_mem"
            );
            assert_eq!(p.action, Some(Action::Mem), "case {case}");
        }
        // Block increases only when most warps wait.
        if p.block_delta > 0 {
            assert!(
                waiting as f64 > active as f64 / 2.0,
                "case {case}: grow only when waiting dominates"
            );
        }
    }
}

/// Table I never boosts in energy mode and never throttles in
/// performance mode.
#[test]
fn table_i_is_mode_consistent() {
    for action in [Action::Comp, Action::Mem] {
        let e = table_i_votes(Mode::Energy, Some(action));
        for v in [e.sm, e.mem] {
            assert_ne!(v, equalizer_core::Vote::Up, "energy mode never boosts");
        }
        let p = table_i_votes(Mode::Performance, Some(action));
        for v in [p.sm, p.mem] {
            assert_ne!(
                v,
                equalizer_core::Vote::Down,
                "performance mode never throttles"
            );
        }
    }
}
