//! The four workloads, their measured passes, and the metrics drawn from
//! them.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

use equalizer_baselines::StaticPoint;
use equalizer_core::Mode;
use equalizer_harness::serve::{Request, Response, SimOutcome, StatsReply};
use equalizer_harness::{parallel_map, Runner, System};
use equalizer_power::PowerModel;
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::Engine;
use equalizer_sim::governor::StaticGovernor;
use equalizer_sim::gpu::SimOptions;
use equalizer_sim::snapshot::decode_run_stats;

use crate::digest::{self, run_digest};
use crate::host;
use crate::jobs::{build_kernel, mix, run_plain, run_traced, set_up, Job, Outcome};
use crate::serve::{self, Daemon, Planned};
use crate::stats::{median, tail_percentile};
use crate::trace::{elapsed_ns, ns_since, Acc, Layers, Span};

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// mri-q, mmer and cfd-2, serial, static governor, no observer.
    PerfSet,
    /// Five governed jobs with a `MetricsObserver` attached.
    GovernedObserved,
    /// A Fig. 7-style kernel × system grid through `Runner` + `parallel_map`.
    FigureSweep,
    /// Closed-loop requests against a fresh `sim-serve` daemon.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PerfSet,
        Workload::GovernedObserved,
        Workload::FigureSweep,
        Workload::ServeMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PerfSet => "perf-set",
            Workload::GovernedObserved => "governed-observed",
            Workload::FigureSweep => "figure-sweep",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The in-process simulation jobs of one pass (none for serving).
    pub fn jobs(self, seed: u64) -> Vec<Job> {
        let job = |i: u64, kernel, system, observed| Job {
            kernel,
            seed: mix(seed, i),
            system,
            observed,
        };
        let baseline = System::Static(StaticPoint::Baseline);
        match self {
            Workload::PerfSet => vec![
                job(0, "mri-q", baseline, false),
                job(1, "mmer", baseline, false),
                job(2, "cfd-2", baseline, false),
            ],
            Workload::GovernedObserved => vec![
                job(0, "kmn", System::Equalizer(Mode::Performance), true),
                job(1, "mmer", System::Equalizer(Mode::Energy), true),
                job(2, "lbm", System::DynCta, true),
                job(3, "histo-1", System::Ccws, true),
                job(4, "prtcl-2", System::EqualizerPerSmVrm(Mode::Energy), true),
            ],
            Workload::FigureSweep => {
                let systems = [
                    baseline,
                    System::Static(StaticPoint::SmHigh),
                    System::Static(StaticPoint::MemHigh),
                    System::Equalizer(Mode::Performance),
                    System::Equalizer(Mode::Energy),
                ];
                let kernels = ["sc", "stncl", "cfd-2", "mri-g-2", "bp-1"];
                let mut cells = Vec::new();
                for (i, kernel) in (0u64..).zip(kernels) {
                    for system in systems {
                        cells.push(job(i, kernel, system, false));
                    }
                }
                cells
            }
            Workload::ServeMixed => Vec::new(),
        }
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Alternate traced passes with untraced ones.
    pub trace: bool,
    /// The `sim-serve` executable.
    pub daemon_exe: PathBuf,
}

/// How an operation was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Simulated from cycle 0 (a job, a sweep cell, a cold request).
    Cold,
    /// Answered from the daemon's result cache.
    Cached,
    /// Resumed from a memoized prefix snapshot.
    Warm,
    /// Ran the shared warm-start prefix itself.
    WarmLeader,
    /// A local snapshot round trip; checked across passes but not
    /// pinned in the reference (the snapshot format may change).
    Probe,
}

/// One checked operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Seed-independent label, prefixed with the workload name.
    pub label: String,
    /// How it was served.
    pub class: Class,
    /// Host latency in seconds.
    pub latency_s: f64,
    /// Digest of its output, or why it failed.
    pub digest: Result<u64, String>,
}

/// Daemon-side figures of one traced serving pass.
#[derive(Debug, Clone, Default)]
pub struct ServeTrace {
    /// The daemon's `Stats` frame at the end of the pass.
    pub stats: StatsReply,
    /// `Engine::snapshot` of the warm prefix.
    pub snapshot_encode: Acc,
    /// `Engine::restore` of that snapshot.
    pub snapshot_restore: Acc,
    /// Snapshot size in bytes.
    pub snapshot_bytes: u64,
}

/// Per-layer figures of one traced pass.
#[derive(Debug, Clone, Default)]
pub struct TracedPass {
    /// Self time per layer inside the timed window.
    pub layers: Layers,
    /// Spans.
    pub spans: Vec<Span>,
    /// Threads doing the pass's work (wall × threads is its thread time).
    pub threads: usize,
    /// `parallel_map`: busy share and tail seconds.
    pub sweep: Option<(f64, f64)>,
    /// Serving figures.
    pub serve: Option<ServeTrace>,
    /// Seconds of the observed jobs and of their unobserved twins.
    pub observer_pair: Option<(f64, f64)>,
}

/// One measured pass over a workload's operations.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds.
    pub wall_s: f64,
    /// CPU seconds of this process plus the daemon.
    pub cpu_s: f64,
    /// The daemon's peak resident set in MiB (0 without a daemon).
    pub daemon_rss_mib: f64,
    /// Operations, in order.
    pub ops: Vec<Op>,
    /// Present on traced passes.
    pub traced: Option<TracedPass>,
}

fn op(label: String, class: Class, latency_s: f64, outcome: Result<Outcome, String>) -> Op {
    Op {
        label,
        class,
        latency_s,
        digest: outcome.map(|o| run_digest(&o.stats, &o.energy)),
    }
}

/// Times the workload's set-up `reps` times: kernel builds and
/// `Engine::new` for each job, or the daemon's spawn-to-ready.
pub fn measure_setup(cfg: &RunConfig, reps: usize) -> Result<Vec<f64>, String> {
    let jobs = cfg.workload.jobs(cfg.seed);
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..reps {
        if cfg.workload == Workload::ServeMixed {
            let daemon = Daemon::spawn(&cfg.daemon_exe, &socket_path("setup", rep))?;
            samples.push(daemon.ready_s);
            let client = daemon.connect()?;
            daemon.shutdown(client)?;
        } else {
            let t = Instant::now();
            for job in &jobs {
                set_up(job)?;
            }
            samples.push(t.elapsed().as_secs_f64());
        }
    }
    Ok(samples)
}

fn socket_path(kind: &str, n: usize) -> PathBuf {
    PathBuf::from(format!("{kind}-{}-{n}.sock", std::process::id()))
}

/// Runs one pass; `origin` is set on traced passes.
pub fn run_pass(cfg: &RunConfig, index: usize, origin: Option<Instant>) -> Result<Pass, String> {
    match cfg.workload {
        Workload::PerfSet | Workload::GovernedObserved => {
            serial_pass(cfg.workload, &cfg.workload.jobs(cfg.seed), origin)
        }
        Workload::FigureSweep => sweep_pass(cfg.workload, cfg.workload.jobs(cfg.seed), origin),
        Workload::ServeMixed => serve_pass(cfg, index, origin),
    }
}

fn serial_pass(workload: Workload, jobs: &[Job], origin: Option<Instant>) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut traced = origin.map(|_| TracedPass {
        threads: 1,
        ..TracedPass::default()
    });
    let cpu0 = host::cpu_seconds("self")?;
    let t0 = Instant::now();
    for job in jobs {
        let label = format!("{}/{}", workload.name(), job.label());
        let t = Instant::now();
        let outcome = match (origin, traced.as_mut()) {
            (Some(origin), Some(tp)) => {
                let (outcome, trace) = run_traced(job, job.observed, origin, 1);
                tp.layers.merge(&trace.layers);
                tp.spans.extend(trace.spans);
                outcome
            }
            _ => run_plain(job),
        };
        pass.ops
            .push(op(label, Class::Cold, t.elapsed().as_secs_f64(), outcome));
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = host::cpu_seconds("self")? - cpu0;

    // Each observed job's unobserved twin runs outside the timed window:
    // the pair prices the observer, and the twin's digest must match.
    if let (Some(origin), Some(tp)) = (origin, traced.as_mut()) {
        let observed: Vec<(&Job, f64)> = jobs
            .iter()
            .zip(pass.ops.iter().map(|o| o.latency_s))
            .filter(|(job, _)| job.observed)
            .collect();
        let (mut with, mut without) = (0.0, 0.0);
        for (job, observed_s) in observed {
            let t = Instant::now();
            let (outcome, trace) = run_traced(job, false, origin, 2);
            let twin_s = t.elapsed().as_secs_f64();
            with += observed_s;
            without += twin_s;
            tp.spans.extend(trace.spans);
            let label = format!("{}/{}", workload.name(), job.label());
            pass.ops.push(op(label, Class::Cold, twin_s, outcome));
        }
        if without > 0.0 {
            tp.observer_pair = Some((with, without));
        }
    }
    pass.traced = traced;
    Ok(pass)
}

fn sweep_pass(
    workload: Workload,
    cells: Vec<Job>,
    origin: Option<Instant>,
) -> Result<Pass, String> {
    let runner = Runner::new(
        GpuConfig::gtx480(),
        PowerModel::gtx480(),
        SimOptions::default(),
    );
    let workers: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let labels: Vec<String> = cells
        .iter()
        .map(|j| format!("{}/{}", workload.name(), j.label()))
        .collect();
    let threads = host::nproc().min(cells.len()).max(1);
    let cpu0 = host::cpu_seconds("self")?;
    let t0 = Instant::now();
    let results = parallel_map(cells, |job| {
        let start = Instant::now();
        let tid = {
            let mut w = workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let me = std::thread::current().id();
            match w.iter().position(|t| *t == me) {
                Some(i) => i + 1,
                None => {
                    w.push(me);
                    w.len()
                }
            }
        };
        let (outcome, trace) = match origin {
            Some(origin) => {
                let (outcome, trace) = run_traced(job, false, origin, tid);
                (outcome, Some(trace))
            }
            None => {
                let outcome = build_kernel(job.kernel, job.seed).and_then(|kernel| {
                    runner
                        .run(&kernel, job.system)
                        .map(|m| Outcome {
                            stats: m.stats,
                            energy: m.energy,
                        })
                        .map_err(|e| e.to_string())
                });
                (outcome, None)
            }
        };
        (outcome, trace, tid, start, Instant::now())
    });
    let mut pass = Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        cpu_s: host::cpu_seconds("self")? - cpu0,
        ..Pass::default()
    };
    let map_end = Instant::now();
    let mut tp = TracedPass {
        threads,
        ..TracedPass::default()
    };
    let mut busy_ns = 0u64;
    let mut last_end: BTreeMap<usize, Instant> = BTreeMap::new();
    for (label, (outcome, trace, tid, start, end)) in labels.into_iter().zip(results) {
        pass.ops.push(op(
            label,
            Class::Cold,
            end.duration_since(start).as_secs_f64(),
            outcome,
        ));
        busy_ns += ns_since(start, end);
        let slot = last_end.entry(tid).or_insert(end);
        *slot = (*slot).max(end);
        if let Some(trace) = trace {
            tp.layers.merge(&trace.layers);
            tp.spans.extend(trace.spans);
        }
    }
    if let Some(origin) = origin {
        let wall_ns = ns_since(t0, map_end).max(1);
        let busy_share = busy_ns as f64 / (wall_ns as f64 * threads as f64);
        let first_idle = last_end.values().min().copied().unwrap_or(map_end);
        let tail_s = map_end.duration_since(first_idle).as_secs_f64();
        tp.sweep = Some((busy_share, tail_s));
        tp.spans.push(Span {
            name: "harness.parallel_map".to_string(),
            cat: "harness::experiment",
            tid: 0,
            start_ns: ns_since(origin, t0),
            dur_ns: wall_ns,
            args: vec![
                ("cells", pass.ops.len() as u64),
                ("workers", threads as u64),
            ],
        });
        pass.traced = Some(tp);
    }
    Ok(pass)
}

/// Checks one reply against what its planned entry must produce.
fn check_reply(
    planned: Planned,
    outcome: &SimOutcome,
    cold_bytes: &BTreeMap<u64, Vec<u8>>,
) -> Result<Class, String> {
    match planned {
        Planned::Cold(_) if !outcome.cached && !outcome.warm_hit => Ok(Class::Cold),
        Planned::Duplicate(i) if outcome.cached => {
            if cold_bytes.get(&i) == Some(&outcome.stats_bytes) {
                Ok(Class::Cached)
            } else {
                Err("cached reply differs from its cold reply".to_string())
            }
        }
        Planned::Warm(0) if !outcome.cached && !outcome.warm_hit => Ok(Class::WarmLeader),
        Planned::Warm(_) if !outcome.cached && outcome.warm_hit => Ok(Class::Warm),
        _ => Err(format!(
            "unexpected reply kind (cached {}, warm hit {})",
            outcome.cached, outcome.warm_hit
        )),
    }
}

fn serve_pass(cfg: &RunConfig, index: usize, origin: Option<Instant>) -> Result<Pass, String> {
    let name = cfg.workload.name();
    let plan = serve::plan(cfg.seed);
    let mut pass = Pass::default();
    let mut tp = TracedPass {
        threads: 1,
        ..TracedPass::default()
    };
    let mut serve_trace = ServeTrace::default();
    if let Some(origin) = origin {
        snapshot_probe(cfg, origin, &mut pass, &mut tp, &mut serve_trace);
    }

    let daemon = Daemon::spawn(&cfg.daemon_exe, &socket_path("pass", index))?;
    let mut client = daemon.connect()?;
    let model = PowerModel::gtx480();
    let mut cold_bytes: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let cpu0 = host::cpu_seconds("self")?;
    let t0 = Instant::now();
    for planned in plan {
        let request = Request::Simulate(serve::request(cfg.seed, planned));
        let t = Instant::now();
        let reply = client.call(&request);
        let ns = elapsed_ns(t);
        let latency_s = ns as f64 / 1e9;
        let label = format!("{name}/{}", serve::label(planned));
        if let Some(origin) = origin {
            tp.layers.client_call.add(ns, 1);
            tp.spans.push(Span {
                name: "serve.client_call".to_string(),
                cat: "harness::serve",
                tid: 1,
                start_ns: ns_since(origin, t),
                dur_ns: ns,
                args: Vec::new(),
            });
        }
        let (class, digest) = match reply {
            Ok(Response::Outcome(outcome)) => match check_reply(planned, &outcome, &cold_bytes) {
                Ok(class) => {
                    if let Planned::Cold(i) = planned {
                        cold_bytes.insert(i, outcome.stats_bytes.clone());
                    }
                    let digest = decode_run_stats(&outcome.stats_bytes)
                        .map(|stats| run_digest(&stats, &model.energy(&stats)))
                        .map_err(|e| format!("undecodable stats: {e}"));
                    (class, digest)
                }
                Err(e) => (Class::Cold, Err(e)),
            },
            Ok(Response::Error(e)) => (Class::Cold, Err(format!("serve error: {e}"))),
            Ok(other) => (Class::Cold, Err(format!("unexpected response {other:?}"))),
            Err(e) => (Class::Cold, Err(format!("client: {e}"))),
        };
        pass.ops.push(Op {
            label,
            class,
            latency_s,
            digest,
        });
    }
    pass.wall_s = t0.elapsed().as_secs_f64();
    let own_cpu = host::cpu_seconds("self")? - cpu0;
    if let Some(origin) = origin {
        let t = Instant::now();
        serve_trace.stats = Daemon::stats(&mut client)?;
        tp.spans.push(Span {
            name: "serve.stats_frame".to_string(),
            cat: "harness::serve",
            tid: 1,
            start_ns: ns_since(origin, t),
            dur_ns: elapsed_ns(t),
            args: Vec::new(),
        });
    }
    pass.cpu_s = own_cpu + daemon.cpu_since_ready()?;
    pass.daemon_rss_mib = daemon.peak_rss_mib()?;
    daemon.shutdown(client)?;
    if origin.is_some() {
        tp.serve = Some(serve_trace);
        pass.traced = Some(tp);
    }
    Ok(pass)
}

/// Times `Engine::snapshot` and `Engine::restore` on the warm-start
/// sweep's prefix, and checks that the restored engine snapshots to the
/// same bytes.
fn snapshot_probe(
    cfg: &RunConfig,
    origin: Instant,
    pass: &mut Pass,
    tp: &mut TracedPass,
    st: &mut ServeTrace,
) {
    let label = format!("{}/snapshot-roundtrip", cfg.workload.name());
    let t = Instant::now();
    let result = (|| -> Result<u64, String> {
        let seed = serve::request(cfg.seed, Planned::Warm(0)).seed.unwrap_or(0);
        let kernel = build_kernel(serve::WARM_KERNEL, seed)?;
        let config = GpuConfig::gtx480();
        let mut engine =
            Engine::new(&config, &kernel, SimOptions::default()).map_err(|e| e.to_string())?;
        while engine.epoch_index() < serve::WARM_EPOCHS {
            engine
                .run_epoch(&mut StaticGovernor)
                .map_err(|e| e.to_string())?;
        }
        let t_enc = Instant::now();
        let bytes = engine.snapshot();
        st.snapshot_encode.add(elapsed_ns(t_enc), 1);
        st.snapshot_bytes = bytes.len() as u64;
        let t_res = Instant::now();
        let restored = Engine::restore(&config, &kernel, SimOptions::default(), &bytes)
            .map_err(|e| e.to_string())?;
        st.snapshot_restore.add(elapsed_ns(t_res), 1);
        for (name, start, acc) in [
            ("snapshot.encode", t_enc, st.snapshot_encode),
            ("snapshot.restore", t_res, st.snapshot_restore),
        ] {
            tp.spans.push(Span {
                name: name.to_string(),
                cat: "sim::snapshot",
                tid: 1,
                start_ns: ns_since(origin, start),
                dur_ns: acc.ns,
                args: vec![("bytes", bytes.len() as u64)],
            });
        }
        if restored.snapshot() == bytes {
            Ok(digest::digest_bytes(&bytes))
        } else {
            Err("restored engine snapshots to different bytes".to_string())
        }
    })();
    pass.ops.push(Op {
        label,
        class: Class::Probe,
        latency_s: t.elapsed().as_secs_f64(),
        digest: result,
    });
}

/// Correctness over every op of a run: errors, digests that differ from
/// the label's first run, and (on the default seed) digests that differ
/// from the committed reference.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Ops checked.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// Why, one line each.
    pub notes: Vec<String>,
    /// First digest per label, excluding probes.
    pub digests: BTreeMap<String, u64>,
}

/// Judges the ops of `passes`; `reference` is checked when given.
pub fn judge(passes: &[Pass], reference: Option<&BTreeMap<String, u64>>) -> Verdict {
    let mut v = Verdict::default();
    let mut first: BTreeMap<&str, u64> = BTreeMap::new();
    for op in passes.iter().flat_map(|p| &p.ops) {
        v.attempted += 1;
        match &op.digest {
            Err(e) => {
                v.failed += 1;
                v.notes.push(format!("{}: {e}", op.label));
            }
            Ok(d) => {
                let seen = *first.entry(&op.label).or_insert(*d);
                if seen != *d {
                    v.failed += 1;
                    v.notes.push(format!(
                        "{}: digest {d:016x} differs from {seen:016x}",
                        op.label
                    ));
                } else if op.class != Class::Probe {
                    v.digests.insert(op.label.clone(), *d);
                }
            }
        }
    }
    if let Some(reference) = reference {
        for label in digest::reference_mismatches(&v.digests, reference) {
            let count = passes
                .iter()
                .flat_map(|p| &p.ops)
                .filter(|o| o.label == label && o.digest.as_ref().ok() == v.digests.get(&label))
                .count() as u64;
            v.failed += count;
            v.notes.push(format!(
                "{label}: digest {:016x} does not match the reference",
                v.digests[&label]
            ));
        }
    }
    v
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind it (0 for derived figures).
    pub samples: usize,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value: value.filter(|v| v.is_finite()).unwrap_or(0.0),
        unit,
        samples,
    }
}

fn latencies(passes: &[Pass], class: Class) -> Vec<f64> {
    passes
        .iter()
        .filter(|p| p.traced.is_none())
        .flat_map(|p| &p.ops)
        .filter(|o| o.class == class && o.digest.is_ok())
        .map(|o| o.latency_s)
        .collect()
}

/// Mean over distinct cold simulations of each one's median latency, so
/// a workload mixing short and long jobs reads steadily.
fn cold_latency_s(passes: &[Pass]) -> (Option<f64>, usize) {
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in passes
        .iter()
        .filter(|p| p.traced.is_none())
        .flat_map(|p| &p.ops)
    {
        if op.class == Class::Cold && op.digest.is_ok() {
            by_label.entry(&op.label).or_default().push(op.latency_s);
        }
    }
    let samples = by_label.values().map(Vec::len).sum();
    let medians: Vec<f64> = by_label.values().filter_map(|v| median(v)).collect();
    let mean = (!medians.is_empty()).then(|| medians.iter().sum::<f64>() / medians.len() as f64);
    (mean, samples)
}

/// The end-to-end metrics (untraced passes only), with times multiplied
/// by `speed` (the host-speed scale; 1 for unadjusted figures).
pub fn end_to_end(passes: &[Pass], setup: &[f64], own_rss_mib: f64, speed: f64) -> Vec<Metric> {
    let plain: Vec<&Pass> = passes.iter().filter(|p| p.traced.is_none()).collect();
    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let cpus: Vec<f64> = plain.iter().map(|p| p.cpu_s).collect();
    let daemon_rss = passes.iter().map(|p| p.daemon_rss_mib).fold(0.0, f64::max);
    let (cold, cold_samples) = cold_latency_s(passes);
    vec![
        metric(
            "wall_s",
            median(&walls).map(|s| s * speed),
            "s",
            walls.len(),
        ),
        metric("cpu_s", median(&cpus).map(|s| s * speed), "s", cpus.len()),
        metric(
            "setup_s",
            median(setup).map(|s| s * speed),
            "s",
            setup.len(),
        ),
        metric("peak_rss_mib", Some(own_rss_mib + daemon_rss), "MiB", 1),
        metric(
            "cold_ms_p50",
            cold.map(|s| s * 1e3 * speed),
            "ms",
            cold_samples,
        ),
    ]
}

/// Serving latencies by reply kind and the failed share, reported
/// beside the end-to-end metrics in the human-readable table.
pub fn service_figures(passes: &[Pass], verdict: &Verdict) -> Vec<Metric> {
    let warm = latencies(passes, Class::Warm);
    let cached = latencies(passes, Class::Cached);
    let share = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    vec![
        metric(
            "failed_share",
            Some(share),
            "ratio",
            verdict.attempted as usize,
        ),
        metric(
            "serve.warm_ms_p50",
            median(&warm).map(|s| s * 1e3),
            "ms",
            warm.len(),
        ),
        metric(
            "serve.cached_us_p50",
            median(&cached).map(|s| s * 1e6),
            "us",
            cached.len(),
        ),
        metric(
            "serve.cached_us_p90",
            tail_percentile(&cached, 90).map(|s| s * 1e6),
            "us",
            cached.len(),
        ),
    ]
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den > 0.0).then(|| num / den)
}

/// The per-layer metrics (traced passes; 0 where a layer does not run).
pub fn per_layer(passes: &[Pass], verdict: &Verdict) -> Vec<Metric> {
    let traced: Vec<&TracedPass> = passes.iter().filter_map(|p| p.traced.as_ref()).collect();
    let n = traced.len().max(1) as f64;
    let mut l = Layers::default();
    for tp in &traced {
        l.merge(&tp.layers);
    }
    let thread_ns: f64 = passes
        .iter()
        .filter_map(|p| {
            p.traced
                .as_ref()
                .map(|tp| p.wall_s * 1e9 * tp.threads as f64)
        })
        .sum();
    let share = |acc: Acc| ratio(acc.ns as f64, thread_ns);
    let per_pass = |count: u64| Some(count as f64 / n);

    let (obs_with, obs_without) = traced
        .iter()
        .filter_map(|tp| tp.observer_pair)
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let sweeps: Vec<(f64, f64)> = traced.iter().filter_map(|tp| tp.sweep).collect();
    let sweep_mean = |f: fn(&(f64, f64)) -> f64| {
        (!sweeps.is_empty()).then(|| sweeps.iter().map(f).sum::<f64>() / sweeps.len() as f64)
    };

    let mut snap_enc = Acc::default();
    let mut snap_res = Acc::default();
    let mut snap_bytes = 0u64;
    let mut server = StatsReply::default();
    let mut warm_requests = 0u64;
    for st in traced.iter().filter_map(|tp| tp.serve.as_ref()) {
        snap_enc.add(st.snapshot_encode.ns, st.snapshot_encode.calls);
        snap_res.add(st.snapshot_restore.ns, st.snapshot_restore.calls);
        snap_bytes += st.snapshot_bytes;
        warm_requests += serve::WARM_SYSTEMS.len() as u64;
        let (t, s) = (&mut server.tallies, &st.stats.tallies);
        t.requests += s.requests;
        t.cache_hits += s.cache_hits;
        t.warm_hits += s.warm_hits;
        let phases = [
            (&mut server.phases.queue_wait, &st.stats.phases.queue_wait),
            (
                &mut server.phases.cache_lookup,
                &st.stats.phases.cache_lookup,
            ),
            (&mut server.phases.simulate, &st.stats.phases.simulate),
            (&mut server.phases.encode, &st.stats.phases.encode),
            (&mut server.phases.write, &st.stats.phases.write),
        ];
        for (total, h) in phases {
            total.count += h.count;
            total.sum_ns += h.sum_ns;
        }
    }
    let ph = &server.phases;
    let mean_us = |h: &equalizer_harness::serve::LatencyHistogram| {
        ratio(h.sum_ns as f64 / 1e3, h.count as f64)
    };
    let server_ns = [
        ph.queue_wait,
        ph.cache_lookup,
        ph.simulate,
        ph.encode,
        ph.write,
    ]
    .iter()
    .map(|h| h.sum_ns as f64)
    .sum::<f64>();
    let client_overhead = ratio(
        (l.client_call.ns as f64 - server_ns) / 1e3,
        l.client_call.calls as f64,
    );

    let traced_walls: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced.is_some())
        .map(|p| p.wall_s)
        .collect();
    let plain_walls: Vec<f64> = passes
        .iter()
        .filter(|p| p.traced.is_none())
        .map(|p| p.wall_s)
        .collect();
    let overhead = median(&traced_walls)
        .zip(median(&plain_walls))
        .map(|(t, p)| t / p);
    let service = service_figures(passes, verdict);
    let svc = |name: &str| service.iter().find(|m| m.name == name).map(|m| m.value);

    let ticks = l.sm_ticks as f64;
    vec![
        metric(
            "engine.sm_step.ns",
            Some(l.sm_step.mean_ns()),
            "ns",
            l.sm_step.calls as usize,
        ),
        metric("engine.sm_step.share", share(l.sm_step), "ratio", 0),
        metric("engine.sm_steps", per_pass(l.sm_step.calls), "count", 0),
        metric("engine.sm_ticks", per_pass(l.sm_ticks), "count", 0),
        metric(
            "engine.ticks_per_sm_step",
            ratio(ticks, (l.sm_step.calls + l.epoch_step.calls) as f64),
            "ratio",
            0,
        ),
        metric(
            "engine.ns_per_sm_tick",
            ratio((l.sm_step.ns + l.epoch_step.ns) as f64, ticks),
            "ns",
            0,
        ),
        metric(
            "engine.mem_step.ns",
            Some(l.mem_step.mean_ns()),
            "ns",
            l.mem_step.calls as usize,
        ),
        metric("engine.mem_step.share", share(l.mem_step), "ratio", 0),
        metric("engine.mem_steps", per_pass(l.mem_step.calls), "count", 0),
        metric(
            "engine.epoch_step.ns",
            Some(l.epoch_step.mean_ns()),
            "ns",
            l.epoch_step.calls as usize,
        ),
        metric("engine.epoch_step.share", share(l.epoch_step), "ratio", 0),
        metric("engine.epochs", per_pass(l.epoch_step.calls), "count", 0),
        metric(
            "engine.new_ns",
            Some(l.engine_new.mean_ns()),
            "ns",
            l.engine_new.calls as usize,
        ),
        metric(
            "engine.stats_ns",
            Some(l.engine_stats.mean_ns()),
            "ns",
            l.engine_stats.calls as usize,
        ),
        metric(
            "governor.epoch_ns",
            Some(l.governor.mean_ns()),
            "ns",
            l.governor.calls as usize,
        ),
        metric("governor.share", share(l.governor), "ratio", 0),
        metric(
            "observer.callback_ns",
            Some(l.observer.mean_ns()),
            "ns",
            l.observer.calls as usize,
        ),
        metric("observer.share", share(l.observer), "ratio", 0),
        metric(
            "observer.engine_overhead",
            ratio(obs_with, obs_without),
            "x",
            0,
        ),
        metric(
            "power.energy_ns",
            Some(l.energy.mean_ns()),
            "ns",
            l.energy.calls as usize,
        ),
        metric(
            "workloads.build_ns",
            Some(l.build.mean_ns()),
            "ns",
            l.build.calls as usize,
        ),
        metric(
            "snapshot.encode_ns",
            Some(snap_enc.mean_ns()),
            "ns",
            snap_enc.calls as usize,
        ),
        metric(
            "snapshot.restore_ns",
            Some(snap_res.mean_ns()),
            "ns",
            snap_res.calls as usize,
        ),
        metric(
            "snapshot.bytes",
            ratio(snap_bytes as f64, snap_enc.calls as f64),
            "bytes",
            0,
        ),
        metric(
            "sweep.busy_share",
            sweep_mean(|s| s.0),
            "ratio",
            sweeps.len(),
        ),
        metric("sweep.tail_s", sweep_mean(|s| s.1), "s", sweeps.len()),
        metric(
            "serve.queue_wait_us",
            mean_us(&ph.queue_wait),
            "us",
            ph.queue_wait.count as usize,
        ),
        metric(
            "serve.cache_lookup_us",
            mean_us(&ph.cache_lookup),
            "us",
            ph.cache_lookup.count as usize,
        ),
        metric(
            "serve.encode_us",
            mean_us(&ph.encode),
            "us",
            ph.encode.count as usize,
        ),
        metric(
            "serve.write_us",
            mean_us(&ph.write),
            "us",
            ph.write.count as usize,
        ),
        metric(
            "serve.client_overhead_us",
            client_overhead,
            "us",
            l.client_call.calls as usize,
        ),
        metric(
            "serve.cache_hit_ratio",
            ratio(
                server.tallies.cache_hits as f64,
                server.tallies.requests as f64,
            ),
            "ratio",
            0,
        ),
        metric(
            "serve.warm_hit_ratio",
            ratio(server.tallies.warm_hits as f64, warm_requests as f64),
            "ratio",
            0,
        ),
        metric(
            "serve.simulate_ms",
            mean_us(&ph.simulate).map(|us| us / 1e3),
            "ms",
            ph.simulate.count as usize,
        ),
        metric("serve.warm_ms_p50", svc("serve.warm_ms_p50"), "ms", 0),
        metric("serve.cached_us_p50", svc("serve.cached_us_p50"), "us", 0),
        metric("serve.cached_us_p90", svc("serve.cached_us_p90"), "us", 0),
        metric("trace.overhead", overhead, "x", traced_walls.len()),
        metric(
            "trace.coverage",
            ratio(l.attributed_ns() as f64, thread_ns),
            "ratio",
            0,
        ),
    ]
}
