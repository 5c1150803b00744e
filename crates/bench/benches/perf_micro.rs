//! Micro-benchmarks of the simulator itself: cycles/second on
//! representative kernels and the cost of an Equalizer epoch decision.
//!
//! Uses the zero-dependency timing harness from `equalizer_bench::timing`
//! instead of an external benchmark framework so the workspace builds
//! with no network access.

use equalizer_bench::timing::{bench, json_report, BenchOptions, BenchResult};
use equalizer_core::{decide, Equalizer, Mode};
use equalizer_sim::config::GpuConfig;
use equalizer_sim::counters::WarpStateCounters;
use equalizer_sim::governor::StaticGovernor;
use equalizer_sim::gpu::{simulate, SimOptions};
use equalizer_sim::kernel::KernelSpec;
use equalizer_workloads::kernel_by_name;
use std::hint::black_box;

fn main() {
    let mut config = GpuConfig::gtx480();
    config.num_sms = 4;
    let sim_opts = BenchOptions {
        warmup_iters: 1,
        sample_iters: 5,
    };
    let mut results: Vec<BenchResult> = Vec::new();

    println!("=== simulator throughput ===");
    for name in ["mri-q", "cfd-2", "mmer"] {
        let kernel = kernel_by_name(name).expect("catalog kernel");
        let r = bench(&format!("baseline/{name}"), sim_opts, || {
            let stats = simulate(black_box(&config), black_box(&kernel), &mut StaticGovernor)
                .expect("simulation");
            black_box(stats.instructions())
        });
        println!("{r}");
        results.push(r);
    }

    let kernel = kernel_by_name("mmer").expect("catalog kernel");
    let r = bench("equalizer/mmer", sim_opts, || {
        let mut gov = Equalizer::new(Mode::Performance, config.num_sms);
        let stats = simulate(black_box(&config), black_box(&kernel), &mut gov).expect("simulation");
        black_box(stats.instructions())
    });
    println!("{r}");
    results.push(r);

    // A metrics observer attached to the same run: the difference to
    // `equalizer/mmer` above is the full cost of observability.
    let r = bench("equalizer+obs/mmer", sim_opts, || {
        let mut gov = Equalizer::new(Mode::Performance, config.num_sms);
        let mut obs = equalizer_obs::MetricsObserver::new(equalizer_power::PowerModel::gtx480());
        let mut engine = equalizer_sim::engine::Engine::new(
            black_box(&config),
            black_box(&kernel),
            equalizer_sim::gpu::SimOptions::default(),
        )
        .expect("engine")
        .with_observer(&mut obs);
        engine.run(&mut gov).expect("simulation");
        black_box(engine.stats().instructions())
    });
    println!("{r}");
    results.push(r);

    // A one-SM GPU exercises the engine's single-SM fast path, which
    // skips the per-step rotation hash entirely.
    let mut single = GpuConfig::gtx480();
    single.num_sms = 1;
    let kernel = kernel_by_name("mri-q").expect("catalog kernel");
    let r = bench("single-sm/mri-q", sim_opts, || {
        let stats = simulate(black_box(&single), black_box(&kernel), &mut StaticGovernor)
            .expect("simulation");
        black_box(stats.instructions())
    });
    println!("{r}");
    results.push(r);

    // The perf set, serial on the full 15-SM GTX 480: default options,
    // then the reference stepper (`fastforward/*-off`: full issue walks,
    // no windows). Results are bit-identical by contract — the engine
    // test suite pins that — so each pair is a pure wall-clock
    // comparison. Every row carries its window coverage as extra JSON
    // keys: `batched_ticks` out of `total_sm_ticks`.
    let wide = GpuConfig::gtx480(); // 15 SMs
    let engine_row = |label: String, kernel: &KernelSpec, opts: SimOptions| {
        let mut coverage = (0u64, 0u64);
        let mut r = bench(&label, sim_opts, || {
            let mut engine =
                equalizer_sim::engine::Engine::new(black_box(&wide), black_box(kernel), opts)
                    .expect("engine");
            let stats = engine.run(&mut StaticGovernor).expect("simulation");
            coverage = (engine.batched_ticks(), stats.sm_cycles_at.iter().sum());
            black_box(stats.instructions())
        });
        let (batched, total) = coverage;
        r.extra = vec![("batched_ticks", batched), ("total_sm_ticks", total)];
        println!(
            "{r}\n{:<24} batched {batched}/{total} SM ticks ({:.1}%)",
            "",
            100.0 * batched as f64 / total.max(1) as f64,
        );
        r
    };
    println!("\n=== perf set (15 SMs, serial): default vs fast paths off ===");
    for name in ["mri-q", "mmer", "cfd-2"] {
        let kernel = kernel_by_name(name).expect("catalog kernel");
        let on = engine_row(
            format!("baseline-15sm/{name}"),
            &kernel,
            SimOptions::default(),
        );
        let off = engine_row(
            format!("fastforward/{name}-off"),
            &kernel,
            SimOptions {
                fast_forward: false,
                ..SimOptions::default()
            },
        );
        println!(
            "    speedup {name}: {:.2}x (median, default vs fast-forward off)",
            off.median_ns as f64 / on.median_ns.max(1) as f64
        );
        results.push(on);
        results.push(off);
    }

    println!("\n=== decision cost ===");
    let counters = WarpStateCounters {
        samples: 32,
        active: 32 * 48,
        waiting: 32 * 20,
        excess_alu: 32 * 3,
        excess_mem: 32 * 9,
        ..WarpStateCounters::default()
    };
    let r = bench(
        "algorithm1/decide",
        BenchOptions {
            warmup_iters: 1_000,
            sample_iters: 100_000,
        },
        || black_box(decide(black_box(&counters), black_box(8))),
    );
    println!("{r}");
    results.push(r);

    // Machine-readable results at the repository root so CI and the
    // growth driver can diff simulator performance across revisions.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json");
    match std::fs::write(&out, json_report(&results)) {
        Ok(()) => println!("\nwrote {}", out.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
    }
}
