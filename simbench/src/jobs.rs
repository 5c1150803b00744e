//! One simulation job — kernel, system, observer — run plainly or with
//! per-layer timing around each call into the simulator's public API.

use std::cell::Cell;
use std::time::Instant;

use equalizer_baselines::{ccws_baseline, DynCta};
use equalizer_core::{Equalizer, Mode};
use equalizer_harness::System;
use equalizer_obs::MetricsObserver;
use equalizer_power::{EnergyBreakdown, PowerModel};
use equalizer_sim::config::{GpuConfig, VfLevel};
use equalizer_sim::engine::{BlockEvent, Engine, MachineSample, Observer, StepEvent, VfDomain};
use equalizer_sim::governor::{
    EpochContext, EpochDecision, FixedBlocksGovernor, Governor, SmEpochReport, StaticGovernor,
};
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::stats::{EpochRecord, InvocationStats, RunStats};

use crate::trace::{elapsed_ns, ns_since, Acc, JobTrace, Span};

/// SplitMix64 finaliser: derives per-job seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One simulation: a catalog kernel on the 15-SM GTX 480 under a system.
#[derive(Debug, Clone)]
pub struct Job {
    /// Catalog kernel name.
    pub kernel: &'static str,
    /// Address-stream seed.
    pub seed: u64,
    /// The system driving the hardware.
    pub system: System,
    /// Whether a `MetricsObserver` is attached.
    pub observed: bool,
}

impl Job {
    /// Stable, seed-independent label used for digests and spans.
    pub fn label(&self) -> String {
        format!("{}/{}", self.kernel, self.system.label())
    }
}

/// A job's checked output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The run's statistics.
    pub stats: RunStats,
    /// Its priced energy.
    pub energy: EnergyBreakdown,
}

/// `kernel_by_name` + `with_seed`.
pub fn build_kernel(name: &str, seed: u64) -> Result<KernelSpec, String> {
    equalizer_workloads::kernel_by_name(name)
        .map(|k| k.with_seed(seed))
        .ok_or_else(|| format!("unknown kernel `{name}`"))
}

/// The configuration and governor a system runs with; the same pairing
/// `Runner` uses.
pub fn machine(system: System) -> (GpuConfig, Box<dyn Governor>) {
    let config = GpuConfig::gtx480();
    let n = config.num_sms;
    match system {
        System::Static(point) => (point.apply(config), Box::new(StaticGovernor)),
        System::Equalizer(mode) => (config, Box::new(Equalizer::new(mode, n))),
        System::EqualizerBlocksOnly => (
            config,
            Box::new(Equalizer::new(Mode::Performance, n).with_frequency_control(false)),
        ),
        System::EqualizerPerSmVrm(mode) => {
            let mut config = config;
            config.per_sm_vrm = true;
            (
                config,
                Box::new(Equalizer::new(mode, n).with_per_sm_vrm(true)),
            )
        }
        System::DynCta => (config, Box::new(DynCta::new())),
        System::Ccws => {
            let (config, governor) = ccws_baseline(config);
            (config, Box::new(governor))
        }
        System::FixedBlocks(blocks) => (config, Box::new(FixedBlocksGovernor::new(blocks))),
    }
}

/// Everything a job needs before its first step: the set-up cost the
/// `setup_s` metric measures.
pub fn set_up(job: &Job) -> Result<(), String> {
    let kernel = build_kernel(job.kernel, job.seed)?;
    let (config, _governor) = machine(job.system);
    let _observer = job
        .observed
        .then(|| MetricsObserver::new(PowerModel::gtx480()));
    Engine::new(&config, &kernel, SimOptions::default())
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Runs `job` as a user would: `Engine::run` with the observer attached.
pub fn run_plain(job: &Job) -> Result<Outcome, String> {
    let kernel = build_kernel(job.kernel, job.seed)?;
    let (config, mut governor) = machine(job.system);
    let model = PowerModel::gtx480();
    let mut observer = job.observed.then(|| MetricsObserver::new(model));
    let mut engine =
        Engine::new(&config, &kernel, SimOptions::default()).map_err(|e| e.to_string())?;
    if let Some(observer) = observer.as_mut() {
        engine.attach(observer);
    }
    let stats = engine.run(governor.as_mut()).map_err(|e| e.to_string())?;
    drop(engine);
    if let Some(e) = observer.as_ref().and_then(MetricsObserver::error) {
        return Err(format!("observer: {e}"));
    }
    let energy = model.energy(&stats);
    Ok(Outcome { stats, energy })
}

/// Delegating governor that times `Governor::epoch`.
struct TimedGovernor<'a> {
    inner: &'a mut dyn Governor,
    acc: Acc,
}

impl Governor for TimedGovernor<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_invocation_start(&mut self, invocation: usize, kernel: &KernelSpec) {
        self.inner.on_invocation_start(invocation, kernel);
    }

    fn epoch(&mut self, ctx: &EpochContext, reports: &[SmEpochReport]) -> EpochDecision {
        let t = Instant::now();
        let decision = self.inner.epoch(ctx, reports);
        self.acc.add(elapsed_ns(t), 1);
        decision
    }
}

/// Delegating observer that times every callback. The engine borrows it
/// for the whole run, so the totals live in cells the step loop reads.
struct TimedObserver<'a> {
    inner: &'a mut dyn Observer,
    ns: &'a Cell<u64>,
    calls: &'a Cell<u64>,
}

impl TimedObserver<'_> {
    fn timed(&mut self, f: impl FnOnce(&mut dyn Observer)) {
        let t = Instant::now();
        f(&mut *self.inner);
        self.ns.set(self.ns.get() + elapsed_ns(t));
        self.calls.set(self.calls.get() + 1);
    }
}

impl Observer for TimedObserver<'_> {
    fn on_invocation_start(&mut self, invocation: usize, kernel: &KernelSpec) {
        self.timed(|o| o.on_invocation_start(invocation, kernel));
    }

    fn on_invocation_end(&mut self, stats: &InvocationStats) {
        self.timed(|o| o.on_invocation_end(stats));
    }

    fn on_epoch(&mut self, ctx: &EpochContext, reports: &[SmEpochReport], record: &EpochRecord) {
        self.timed(|o| o.on_epoch(ctx, reports, record));
    }

    fn on_machine_sample(&mut self, sample: &MachineSample) {
        self.timed(|o| o.on_machine_sample(sample));
    }

    fn on_vf_transition(&mut self, domain: VfDomain, from: VfLevel, to: VfLevel, apply_at_fs: u64) {
        self.timed(|o| o.on_vf_transition(domain, from, to, apply_at_fs));
    }

    fn on_block_event(&mut self, event: BlockEvent) {
        self.timed(|o| o.on_block_event(event));
    }
}

/// Step kinds folded per epoch, in span order.
const FOLD_NAMES: [(&str, &str); 6] = [
    ("engine.sm_step", "sim::engine"),
    ("engine.mem_step", "sim::engine"),
    ("engine.epoch_step", "sim::engine"),
    ("engine.invocation_step", "sim::engine"),
    ("governor.epoch", "core"),
    ("observer.callback", "obs"),
];

/// One epoch's steps, folded: first start, last end, and per-kind totals.
#[derive(Debug, Clone, Copy, Default)]
struct EpochFold {
    start_ns: Option<u64>,
    end_ns: u64,
    kinds: [Acc; 6],
}

/// Runs `job` step by step, timing each layer call. Spans are stamped
/// relative to `origin` on track `tid`; `observe` overrides whether the
/// observer is attached (the unobserved twin of an observed job).
pub fn run_traced(
    job: &Job,
    observe: bool,
    origin: Instant,
    tid: usize,
) -> (Result<Outcome, String>, JobTrace) {
    let mut trace = JobTrace::default();
    let job_start = Instant::now();
    let result = traced_body(job, observe, origin, tid, &mut trace);
    trace.spans.push(Span {
        name: format!("job {}", job.label()),
        cat: "simbench",
        tid,
        start_ns: ns_since(origin, job_start),
        dur_ns: elapsed_ns(job_start),
        args: vec![("observed", u64::from(observe))],
    });
    (result, trace)
}

fn timed_span<R>(
    trace: &mut JobTrace,
    name: &'static str,
    cat: &'static str,
    origin: Instant,
    tid: usize,
    f: impl FnOnce() -> R,
) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    let ns = elapsed_ns(t);
    trace.spans.push(Span {
        name: name.to_string(),
        cat,
        tid,
        start_ns: ns_since(origin, t),
        dur_ns: ns,
        args: Vec::new(),
    });
    (r, ns)
}

fn traced_body(
    job: &Job,
    observe: bool,
    origin: Instant,
    tid: usize,
    trace: &mut JobTrace,
) -> Result<Outcome, String> {
    let (kernel, ns) = timed_span(trace, "workloads.build", "workloads", origin, tid, || {
        build_kernel(job.kernel, job.seed)
    });
    trace.layers.build.add(ns, 1);
    let kernel = kernel?;
    let (config, mut governor) = machine(job.system);
    let model = PowerModel::gtx480();
    let mut metrics = MetricsObserver::new(model);
    let obs_ns = Cell::new(0);
    let obs_calls = Cell::new(0);
    let mut timed_observer = TimedObserver {
        inner: &mut metrics,
        ns: &obs_ns,
        calls: &obs_calls,
    };
    let mut timed_governor = TimedGovernor {
        inner: governor.as_mut(),
        acc: Acc::default(),
    };

    let (engine, ns) = timed_span(trace, "engine.new", "sim::engine", origin, tid, || {
        Engine::new(&config, &kernel, SimOptions::default())
    });
    trace.layers.engine_new.add(ns, 1);
    let mut engine = engine.map_err(|e| e.to_string())?;
    if observe {
        engine.attach(&mut timed_observer);
    }

    let mut folds: Vec<EpochFold> = Vec::new();
    loop {
        let epoch = usize::try_from(engine.epoch_index()).unwrap_or(usize::MAX);
        let gov_before = timed_governor.acc;
        let (obs_ns_before, obs_calls_before) = (obs_ns.get(), obs_calls.get());
        let t0 = Instant::now();
        let event = engine
            .step(&mut timed_governor)
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let kind = match event {
            StepEvent::SmCycle => 0,
            StepEvent::MemCycle => 1,
            StepEvent::EpochBoundary => 2,
            StepEvent::InvocationStart(_) | StepEvent::InvocationEnd(_) => 3,
            StepEvent::Complete => break,
        };
        let gov = Acc {
            ns: timed_governor.acc.ns - gov_before.ns,
            calls: timed_governor.acc.calls - gov_before.calls,
        };
        let obs = Acc {
            ns: obs_ns.get() - obs_ns_before,
            calls: obs_calls.get() - obs_calls_before,
        };
        let step_ns = u64::try_from(t1.duration_since(t0).as_nanos()).unwrap_or(u64::MAX);
        if folds.len() <= epoch {
            folds.resize(epoch + 1, EpochFold::default());
        }
        let fold = &mut folds[epoch];
        fold.start_ns.get_or_insert(ns_since(origin, t0));
        fold.end_ns = ns_since(origin, t1);
        fold.kinds[kind].add(step_ns.saturating_sub(gov.ns + obs.ns), 1);
        fold.kinds[4].add(gov.ns, gov.calls);
        fold.kinds[5].add(obs.ns, obs.calls);
    }

    let (stats, ns) = timed_span(trace, "engine.stats", "sim::engine", origin, tid, || {
        engine.stats()
    });
    trace.layers.engine_stats.add(ns, 1);
    drop(engine);
    if let Some(e) = metrics.error() {
        return Err(format!("observer: {e}"));
    }
    let (energy, ns) = timed_span(trace, "power.energy", "power", origin, tid, || {
        model.energy(&stats)
    });
    trace.layers.energy.add(ns, 1);
    trace.layers.sm_ticks += stats.sm_cycles_at.iter().sum::<u64>();

    for (epoch, fold) in folds.iter().enumerate() {
        let Some(start) = fold.start_ns else { continue };
        trace.spans.push(Span {
            name: format!("epoch {epoch}"),
            cat: "sim::engine",
            tid,
            start_ns: start,
            dur_ns: fold.end_ns - start,
            args: vec![("epoch", epoch as u64)],
        });
        let mut at = start;
        for (acc, (name, cat)) in fold.kinds.iter().zip(FOLD_NAMES) {
            if acc.calls == 0 {
                continue;
            }
            trace.spans.push(Span {
                name: name.to_string(),
                cat,
                tid,
                start_ns: at,
                dur_ns: acc.ns,
                args: vec![("calls", acc.calls), ("folded", 1)],
            });
            at += acc.ns;
        }
        let layers = &mut trace.layers;
        for (total, acc) in [
            &mut layers.sm_step,
            &mut layers.mem_step,
            &mut layers.epoch_step,
            &mut layers.invocation_step,
            &mut layers.governor,
            &mut layers.observer,
        ]
        .into_iter()
        .zip(fold.kinds)
        {
            total.add(acc.ns, acc.calls);
        }
    }
    Ok(Outcome { stats, energy })
}
