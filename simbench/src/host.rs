//! Host-side measurements (CPU time, peak memory) and host metadata.

use std::process::Command;
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (user + system, every thread, live or exited) used so far
/// by process `pid` (`"self"` for this one).
pub fn cpu_seconds(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / TICKS_PER_SEC)
            .ok_or_else(|| format!("{path}: bad CPU field"))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// Seconds [`speed_probe`] takes on the nominal reference host. Reported
/// end-to-end times are scaled to it.
pub const PROBE_NOMINAL_S: f64 = 0.01;

/// Times a fixed integer workload (a SplitMix64 chain, no memory traffic)
/// that shares no code with the simulator. Its time tracks the host's
/// current speed (shared cores, clock frequency), so scaling by it takes
/// minute-scale host drift out of the reported times.
pub fn speed_probe() -> f64 {
    let t = Instant::now();
    let mut x = 1u64;
    let mut acc = 0u64;
    for _ in 0..(1u64 << 22) {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc = acc.wrapping_add(z ^ (z >> 31));
        if acc & 1 == 0 {
            acc = acc.rotate_left(7);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was measured.
#[derive(Debug, Clone)]
pub struct HostMeta {
    /// Logical cores.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// Git revision of the measured tree (`unknown` outside a git checkout).
    pub git_rev: String,
    /// Cargo profile the benchmark was built with.
    pub profile: &'static str,
    /// The workload seed.
    pub seed: u64,
}

impl HostMeta {
    /// Collects the metadata for a run with workload seed `seed`.
    pub fn collect(seed: u64) -> Self {
        Self {
            nproc: nproc(),
            rustc: command_line("rustc", &["-V"]),
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
        }
    }

    /// The metadata as one JSON object.
    pub fn to_json(&self) -> String {
        use equalizer_obs::json::escape_json;
        format!(
            "{{\"nproc\": {}, \"rustc\": \"{}\", \"git_rev\": \"{}\", \"profile\": \"{}\", \"seed\": {}}}",
            self.nproc,
            escape_json(&self.rustc),
            escape_json(&self.git_rev),
            self.profile,
            self.seed
        )
    }
}
