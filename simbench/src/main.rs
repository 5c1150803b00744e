//! `simbench` — runs one benchmark workload and prints its metrics.
//!
//! ```text
//! simbench --workload <perf-set|governed-observed|figure-sweep|serve-mixed>
//!          [--seed N] [--seconds S] [--trace 0|1] [--bless]
//! ```
//!
//! The human-readable table goes to stderr. Stdout ends with a host
//! metadata line and then the one-line JSON result. `--trace 1` also
//! writes a Perfetto trace and a per-layer table under `simbench/out/`.
//! `--bless` (default seed only) rewrites this workload's entries in
//! `reference.txt` from the run.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use simbench::bench::{self, RunConfig, Workload};
use simbench::digest::{self, DEFAULT_SEED};
use simbench::host::{self, HostMeta};
use simbench::report;
use simbench::stats::median;
use simbench::trace::trace_json;

const USAGE: &str =
    "usage: simbench --workload <perf-set|governed-observed|figure-sweep|serve-mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--bless]";

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 51;

/// Host-speed probes before set-up and after the last pass, and before
/// each pass; their median scales the end-to-end times.
const PROBES_AROUND: usize = 5;
const PROBES_PER_PASS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: Workload::PerfSet,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        bless: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                let v = value()?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace `{v}` (0 or 1)")),
                };
            }
            "--bless" => parsed.bless = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    parsed.workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("simbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cfg = RunConfig {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        daemon_exe: exe.with_file_name("sim-serve"),
    };
    // Everything the run writes (sockets, trace) lives in `out/`; working
    // there keeps unix socket paths short.
    let out_dir = manifest_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    std::env::set_current_dir(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let meta = HostMeta::collect(cfg.seed);
    let name = cfg.workload.name();

    let mut probes: Vec<f64> = (0..PROBES_AROUND).map(|_| host::speed_probe()).collect();
    let setup = bench::measure_setup(&cfg, SETUP_REPS)?;

    let origin = Instant::now();
    let mut passes = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let traced = cfg.trace && passes.len() % 2 == 1;
        probes.extend((0..PROBES_PER_PASS).map(|_| host::speed_probe()));
        let t = Instant::now();
        passes.push(bench::run_pass(
            &cfg,
            passes.len(),
            traced.then_some(origin),
        )?);
        longest = longest.max(t.elapsed().as_secs_f64());
        let covered = !cfg.trace || passes.len() >= 2;
        if covered && origin.elapsed().as_secs_f64() + longest > cfg.seconds {
            break;
        }
    }

    probes.extend((0..PROBES_AROUND).map(|_| host::speed_probe()));
    let probe_s = median(&probes).unwrap_or(host::PROBE_NOMINAL_S);
    let speed = host::PROBE_NOMINAL_S / probe_s;

    let reference = if cfg.seed == DEFAULT_SEED && !args.bless {
        Some(digest::reference()?)
    } else {
        None
    };
    let verdict = bench::judge(&passes, reference.as_ref());
    for note in &verdict.notes {
        eprintln!("simbench: FAILED {note}");
    }
    if args.bless {
        bless(&cfg, &verdict.digests)?;
    }

    let own_rss = host::peak_rss_mib("self")?;
    let e2e = bench::end_to_end(&passes, &setup, own_rss, speed);
    let unadjusted = bench::end_to_end(&passes, &setup, own_rss, 1.0);
    let service = bench::service_figures(&passes, &verdict);
    let title = format!(
        "simbench {name}: seed {}, {} pass(es), {} op(s), {} failed; host {}",
        cfg.seed,
        passes.len(),
        verdict.attempted,
        verdict.failed,
        meta.to_json()
    );
    let mut shown = e2e.clone();
    shown.extend(service);
    eprint!("{}", report::table(&title, &shown));
    eprint!(
        "{}",
        report::table(
            &format!(
                "unadjusted host times (speed probe median {:.3} ms over {} probes; scale {speed:.4})",
                probe_s * 1e3,
                probes.len()
            ),
            &unadjusted
        )
    );

    let metrics = if cfg.trace {
        let layers = bench::per_layer(&passes, &verdict);
        let table = report::table(&format!("{title}\nper-layer (traced passes)"), &layers);
        eprint!("{table}");
        let spans: Vec<_> = passes
            .iter()
            .filter_map(|p| p.traced.as_ref())
            .flat_map(|tp| tp.spans.iter().cloned())
            .collect();
        let json = trace_json(&format!("simbench {name}"), &meta.to_json(), &spans);
        equalizer_obs::json::validate(&json).map_err(|e| format!("trace JSON invalid: {e}"))?;
        let stem = format!("{name}-seed{}", cfg.seed);
        write(&out_dir.join(format!("trace-{stem}.json")), &json)?;
        write(&out_dir.join(format!("layers-{stem}.txt")), &table)?;
        layers
    } else {
        e2e
    };
    let result = report::result_json(verdict.attempted, verdict.failed, &metrics);
    equalizer_obs::json::validate(&result).map_err(|e| format!("result JSON invalid: {e}"))?;
    println!("{{\"host\": {}}}", meta.to_json());
    println!("{result}");
    Ok(())
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Replaces this workload's entries in `reference.txt` with `digests`.
fn bless(cfg: &RunConfig, digests: &std::collections::BTreeMap<String, u64>) -> Result<(), String> {
    if cfg.seed != DEFAULT_SEED {
        return Err(format!("--bless needs the default seed {DEFAULT_SEED}"));
    }
    let path = manifest_dir().join("reference.txt");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut reference = digest::parse_reference(&text)?;
    let prefix = format!("{}/", cfg.workload.name());
    reference.retain(|label, _| !label.starts_with(&prefix));
    reference.extend(digests.iter().map(|(k, v)| (k.clone(), *v)));
    write(&path, &digest::render_reference(&reference))
}
