//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `cargo xtask lint [paths...]` — run the determinism/robustness/
//!   hygiene lint suite. With no paths, lints the whole workspace with
//!   per-crate rule coverage; explicit paths are linted under the
//!   strictest profile. Exits non-zero when findings survive.
//! * `cargo xtask analyze [--format json] [--explain <rule>] [paths...]`
//!   — the call-graph effect-analysis engine: proves the two-phase
//!   discipline (`local-phase-purity`, `commit-only-mutation`,
//!   `lock-order`, `float-accum-order`) over the simulation crates.
//!   With no paths, analyzes the workspace's analysis universe; explicit
//!   paths form one call-graph universe. Exits non-zero on error-severity
//!   findings; warnings are advisory.
//! * `cargo xtask ci` — the offline CI driver: release build, the
//!   workspace test suite (every crate's unit and integration tests),
//!   the same suite with the `validate` sanitizers, the benchmark's
//!   self-tests (`simbench/`, a separate cargo package), the lint pass,
//!   the effect-analysis pass (its JSON report lands in
//!   `target/analyze-report.json`), a `sim-report` artifact smoke test,
//!   the fast-forward gate (`sim-ffcheck`: bit-identical `RunStats`
//!   between default options and the reference stepper
//!   (`SimOptions::fast_forward` off) under every governor, ≥ 50%
//!   batched-tick coverage on a stall-heavy workload, and a ≥ 1.5×
//!   median serial speedup over the reference on 15-SM `mri-q`), the
//!   serving-layer smoke test, and a formatting check (skipped with a
//!   warning when rustfmt is absent).

use std::env;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Instant;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("ci") => cmd_ci(),
        Some(other) => {
            eprintln!("error: unknown subcommand `{other}`");
            eprintln!("{USAGE}");
            2
        }
        None => {
            eprintln!("{USAGE}");
            2
        }
    };
    exit(code);
}

const USAGE: &str =
    "usage: cargo xtask <lint [paths...] | analyze [--format json] [--explain <rule>] [paths...] | ci>";

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir
}

fn cmd_lint(paths: &[String]) -> i32 {
    let report = if paths.is_empty() {
        xtask::lint_workspace(&workspace_root())
    } else {
        xtask::lint_paths(&paths.iter().map(PathBuf::from).collect::<Vec<_>>())
    };
    let report = match report {
        Ok(r) => r,
        Err(err) => {
            eprintln!("error: lint walk failed: {err}");
            return 2;
        }
    };

    for finding in &report.findings {
        println!("{finding}");
    }
    if !report.suppressed.is_empty() {
        println!("suppressed ({}):", report.suppressed.len());
        for s in &report.suppressed {
            println!(
                "  {}:{}: [{}] allowed -- {}",
                s.file.display(),
                s.line,
                s.rule,
                s.reason
            );
        }
    }
    println!(
        "lint: {} file(s) scanned, {} finding(s), {} suppressed",
        report.files_scanned,
        report.findings.len(),
        report.suppressed.len()
    );
    i32::from(!report.is_clean())
}

/// Prints an [`xtask::AnalysisReport`] in the human format and returns
/// the exit code (non-zero when error-severity findings survive).
fn print_analysis(report: &xtask::AnalysisReport) -> i32 {
    for finding in &report.findings {
        println!("{finding}");
    }
    if !report.suppressed.is_empty() {
        println!("suppressed ({}):", report.suppressed.len());
        for s in &report.suppressed {
            println!(
                "  {}:{}: [{}] allowed -- {}",
                s.file.display(),
                s.line,
                s.rule,
                s.reason
            );
        }
    }
    println!(
        "analyze: {} file(s), {} error(s), {} warning(s), {} suppressed",
        report.files_scanned,
        report.errors(),
        report.warnings(),
        report.suppressed.len()
    );
    i32::from(!report.is_clean())
}

fn cmd_analyze(args: &[String]) -> i32 {
    let mut json = false;
    let mut explain: Option<String> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("json") => json = true,
                Some("human") => json = false,
                other => {
                    eprintln!(
                        "error: --format needs `json` or `human`, got {:?}",
                        other.unwrap_or("<missing>")
                    );
                    return 2;
                }
            },
            "--explain" => match it.next() {
                Some(rule) => explain = Some(rule.clone()),
                None => {
                    eprintln!("error: --explain needs a rule name");
                    return 2;
                }
            },
            other if other.starts_with("--") => {
                eprintln!("error: unknown flag `{other}`");
                eprintln!("{USAGE}");
                return 2;
            }
            other => paths.push(PathBuf::from(other)),
        }
    }

    if let Some(rule) = explain {
        return match xtask::explain(&rule) {
            Some(text) => {
                println!("{text}");
                0
            }
            None => {
                eprintln!("error: unknown rule `{rule}`");
                eprintln!(
                    "known rules: {}",
                    xtask::ANALYZE_RULES
                        .iter()
                        .chain(xtask::RULES)
                        .copied()
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                2
            }
        };
    }

    let report = if paths.is_empty() {
        xtask::analyze_workspace(&workspace_root())
    } else {
        xtask::analyze_paths(&paths)
    };
    let report = match report {
        Ok(r) => r,
        Err(err) => {
            eprintln!("error: analyze walk failed: {err}");
            return 2;
        }
    };
    if json {
        println!("{}", report.to_json());
        i32::from(!report.is_clean())
    } else {
        print_analysis(&report)
    }
}

/// Runs one cargo step, streaming its output; returns success.
fn run_step(cargo: &str, label: &str, args: &[&str]) -> bool {
    println!("==> {label}: cargo {}", args.join(" "));
    match Command::new(cargo)
        .args(args)
        .current_dir(workspace_root())
        .status()
    {
        Ok(status) if status.success() => true,
        Ok(status) => {
            eprintln!("==> {label} failed: {status}");
            false
        }
        Err(err) => {
            eprintln!("==> {label} failed to start: {err}");
            false
        }
    }
}

fn cmd_ci() -> i32 {
    let cargo = env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());

    // `--workspace` gates every crate's own unit and integration tests,
    // not only the root package's suite. The build covers the whole
    // workspace too: the serve smoke below spawns the harness's release
    // `sim-serve`, `sim-load` and `sim-stat` binaries directly.
    let steps: &[(&str, &[&str])] = &[
        ("build", &["build", "--release", "--workspace"]),
        ("test", &["test", "-q", "--workspace"]),
        (
            "test (validate)",
            &["test", "-q", "--workspace", "--features", "validate"],
        ),
        // The benchmark is its own cargo package (empty `[workspace]`),
        // so the workspace test runs above never build or test it.
        (
            "test (simbench self-tests)",
            &[
                "test",
                "--release",
                "--manifest-path",
                "simbench/Cargo.toml",
            ],
        ),
    ];
    for (label, args) in steps {
        if !run_step(&cargo, label, args) {
            return 1;
        }
    }

    println!("==> lint: workspace scan");
    let lint_started = Instant::now();
    if cmd_lint(&[]) != 0 {
        eprintln!("==> lint failed");
        return 1;
    }
    println!(
        "==> lint: pass completed in {:.3}s (single-scan walk)",
        lint_started.elapsed().as_secs_f64()
    );

    // Effect-analysis smoke: run the analyzer in-process, gate on
    // error-severity findings, and leave the machine-readable report
    // where the CI workflow can pick it up as an artifact.
    println!("==> analyze: effect analysis");
    let analyze_started = Instant::now();
    match xtask::analyze_workspace(&workspace_root()) {
        Ok(report) => {
            let json_path = workspace_root().join("target").join("analyze-report.json");
            if let Some(dir) = json_path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            if let Err(err) = std::fs::write(&json_path, report.to_json()) {
                eprintln!(
                    "==> analyze: could not write {}: {err}",
                    json_path.display()
                );
                return 1;
            }
            let code = print_analysis(&report);
            println!(
                "==> analyze: pass completed in {:.3}s, report at {}",
                analyze_started.elapsed().as_secs_f64(),
                json_path.display()
            );
            if code != 0 {
                eprintln!("==> analyze failed");
                return 1;
            }
        }
        Err(err) => {
            eprintln!("==> analyze failed to run: {err}");
            return 1;
        }
    }

    // Offline observability smoke test: run sim-report on a small
    // configuration and let its --selfcheck verify the artifacts (the
    // Perfetto trace must parse as JSON, the CSVs and summary must have
    // their expected shapes).
    if !run_step(
        &cargo,
        "sim-report smoke",
        &[
            "run",
            "--release",
            "-p",
            "equalizer-harness",
            "--bin",
            "sim-report",
            "--",
            "--workload",
            "mmer",
            "--sms",
            "2",
            "--out",
            "target/sim-report-smoke",
            "--selfcheck",
        ],
    ) {
        return 1;
    }

    // Fast-forward gate: the ready-set issue walk and the runway windows
    // must be invisible in results and visible in wall clock.
    // `sim-ffcheck` runs in-process simulations asserting (1) RunStats
    // bit-identity between default options and the reference stepper
    // (`fast_forward` off) under every governor family, (2) >= 50%
    // batched-tick coverage on a stall-heavy workload, and (3) a >= 1.5x
    // median serial speedup over the reference on 15-SM `mri-q` across
    // interleaved pairs. A single core is enough: the fast paths skip
    // work rather than spreading it, so this gate never skips.
    if !run_step(
        &cargo,
        "fast-forward gate (sim-ffcheck)",
        &[
            "run",
            "--release",
            "-p",
            "equalizer-harness",
            "--bin",
            "sim-ffcheck",
        ],
    ) {
        return 1;
    }

    // Serving-layer smoke: spawn the daemon on a unix socket, drive a
    // duplicate-heavy mix through `sim-load` (which merges `serve/`
    // rows into `BENCH_sim.json`), then query the live daemon's
    // `Stats` frame through `sim-stat --selfcheck` (hits >= 1,
    // phase histograms coherent, valid stats JSON, rendered artifacts
    // under `target/serve-stats`). Gates: at least one cache hit, a
    // clean shutdown, and the caching/warm-start speedups the rows
    // claim.
    println!("==> serve smoke: daemon + duplicate-heavy load + stats introspection");
    let serve_started = Instant::now();
    match run_serve_smoke(&workspace_root()) {
        Ok(msg) => println!(
            "==> serve smoke: {msg} ({:.1}s)",
            serve_started.elapsed().as_secs_f64()
        ),
        Err(msg) => {
            eprintln!("==> serve smoke failed: {msg}");
            return 1;
        }
    }

    // rustfmt ships with rustup toolchains but not every bare cargo
    // install; a missing formatter should not fail offline CI.
    let fmt_available = Command::new(&cargo)
        .args(["fmt", "--version"])
        .current_dir(workspace_root())
        .output()
        .map(|out| out.status.success())
        .unwrap_or(false);
    if fmt_available {
        if !run_step(&cargo, "fmt", &["fmt", "--all", "--", "--check"]) {
            return 1;
        }
    } else {
        eprintln!("==> fmt: rustfmt not installed, skipping format check");
    }

    println!("==> ci: all steps passed");
    0
}

/// Extracts the `mean_ns` value of the named row from `BENCH_sim.json`
/// text. The file is written by `equalizer_bench::timing::json_report`
/// — one object per line with `"name": "..."` and `"mean_ns": N`
/// fields — so a line scan is enough; no JSON parser needed.
fn bench_mean_ns(json: &str, name: &str) -> Option<f64> {
    let tag = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&tag))?;
    let rest = line.split("\"mean_ns\":").nth(1)?;
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse::<f64>().ok()
}

/// Spawns the release `sim-serve` daemon on a scratch unix socket,
/// drives the default duplicate-heavy `sim-load` mix through it
/// (merging `serve/` rows into `BENCH_sim.json`), then queries the
/// live daemon's telemetry through `sim-stat --selfcheck` (which gates
/// coherent phase histograms and valid stats JSON, renders the
/// artifacts under `target/serve-stats`, and shuts the daemon down).
/// Asserts: at least one cache hit, a clean daemon shutdown, cached
/// replies at least 10x faster than cold simulations, and warm-started
/// sweeps faster than their from-cycle-0 equivalents.
fn run_serve_smoke(root: &Path) -> Result<String, String> {
    let sock = root.join("target").join("sim-serve-smoke.sock");
    let _ = std::fs::remove_file(&sock);
    let serve_bin = root.join("target").join("release").join("sim-serve");
    let load_bin = root.join("target").join("release").join("sim-load");
    let stat_bin = root.join("target").join("release").join("sim-stat");

    let mut daemon = Command::new(&serve_bin)
        .arg("--unix")
        .arg(&sock)
        .args(["--workers", "3"])
        .current_dir(root)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", serve_bin.display()))?;

    // The daemon binds before printing its readiness line, so the
    // socket file appearing is the signal that connects will succeed.
    let mut waited_ms = 0u64;
    while !sock.exists() {
        if let Ok(Some(status)) = daemon.try_wait() {
            return Err(format!("sim-serve exited before binding: {status}"));
        }
        if waited_ms >= 10_000 {
            let _ = daemon.kill();
            let _ = daemon.wait();
            return Err("sim-serve never bound its socket".to_string());
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
        waited_ms += 50;
    }

    let endpoint = format!("unix:{}", sock.display());
    let load = Command::new(&load_bin)
        .args(["--endpoint", &endpoint])
        .args(["--min-hits", "1"])
        .args(["--bench", "BENCH_sim.json"])
        .arg("--stats")
        .current_dir(root)
        .status();
    let load = match load {
        Ok(status) => status,
        Err(e) => {
            let _ = daemon.kill();
            let _ = daemon.wait();
            return Err(format!("cannot spawn {}: {e}", load_bin.display()));
        }
    };
    if !load.success() {
        let _ = daemon.kill();
        let _ = daemon.wait();
        return Err(format!(
            "sim-load failed ({load}): no cache hit, or a protocol error"
        ));
    }

    // Live-daemon introspection: one Stats frame, self-checked (hit
    // count, histogram coherence, RFC 8259 stats JSON), rendered to
    // `target/serve-stats` for CI to upload, then a clean shutdown.
    let stats_dir = root.join("target").join("serve-stats");
    let stat = Command::new(&stat_bin)
        .args(["--endpoint", &endpoint])
        .args(["--min-hits", "1"])
        .arg("--selfcheck")
        .arg("--out")
        .arg(&stats_dir)
        .arg("--shutdown")
        .current_dir(root)
        .status();
    let stat = match stat {
        Ok(status) => status,
        Err(e) => {
            let _ = daemon.kill();
            let _ = daemon.wait();
            return Err(format!("cannot spawn {}: {e}", stat_bin.display()));
        }
    };
    if !stat.success() {
        let _ = daemon.kill();
        let _ = daemon.wait();
        return Err(format!(
            "sim-stat failed ({stat}): incoherent stats frame, invalid \
             stats JSON, or a protocol error"
        ));
    }

    // `--shutdown` asked the daemon to exit; a hang here means the
    // shutdown path regressed, which is exactly what CI should catch.
    let status = daemon
        .wait()
        .map_err(|e| format!("waiting for sim-serve: {e}"))?;
    if !status.success() {
        return Err(format!("sim-serve exited with {status}"));
    }

    let bench = root.join("BENCH_sim.json");
    let json = std::fs::read_to_string(&bench)
        .map_err(|e| format!("could not read {}: {e}", bench.display()))?;
    let row = |name: &str| {
        bench_mean_ns(&json, name).ok_or_else(|| format!("no {name} row in BENCH_sim.json"))
    };
    let cold = row("serve/cold")?;
    let cached = row("serve/cached")?;
    let warm_cold = row("serve/warm-cold")?;
    let warm_start = row("serve/warm-start")?;
    if cached * 10.0 > cold {
        return Err(format!(
            "cached replies are only {:.1}x faster than cold simulation \
             (mean {cached:.0} ns vs {cold:.0} ns; target 10x)",
            cold / cached.max(1.0)
        ));
    }
    if warm_start * 1.05 > warm_cold {
        return Err(format!(
            "warm-start sweep (mean {warm_start:.0} ns) is not measurably \
             faster than from-cycle-0 (mean {warm_cold:.0} ns)"
        ));
    }
    Ok(format!(
        "cached {:.0}x over cold, warm-start {:.2}x over cold sweep, \
         stats frame coherent, daemon shut down cleanly",
        cold / cached.max(1.0),
        warm_cold / warm_start.max(1.0)
    ))
}

#[cfg(test)]
mod tests {
    use super::bench_mean_ns;

    #[test]
    fn bench_mean_ns_parses_the_timing_report_shape() {
        let json = concat!(
            "[\n",
            "  {\"name\": \"baseline-15sm/mri-q\", \"min_ns\": 1, ",
            "\"median_ns\": 2, \"mean_ns\": 400, \"samples\": 5},\n",
            "  {\"name\": \"parallel/mri-q\", \"min_ns\": 1, ",
            "\"median_ns\": 2, \"mean_ns\": 100, \"samples\": 5}\n",
            "]\n",
        );
        assert_eq!(bench_mean_ns(json, "baseline-15sm/mri-q"), Some(400.0));
        assert_eq!(bench_mean_ns(json, "parallel/mri-q"), Some(100.0));
        assert_eq!(bench_mean_ns(json, "missing/row"), None);
    }
}
