//! The `serve-mixed` workload's client side: a freshly spawned
//! `sim-serve` daemon and a seeded, closed-loop request sequence.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Instant;

use equalizer_baselines::StaticPoint;
use equalizer_core::Mode;
use equalizer_harness::serve::{Client, Request, Response, SimulateRequest, StatsReply};
use equalizer_harness::System;
use equalizer_sim::gpu::SimOptions;

use crate::host;
use crate::jobs::mix;

/// Kernel of the cold requests (and their duplicates).
pub const COLD_KERNEL: &str = "mri-g-2";
/// Cold requests per pass, each under its own seed.
pub const COLD_REQUESTS: u64 = 6;
/// Duplicates sent of each cold request.
pub const DUPLICATES: u64 = 3;
/// Kernel of the warm-start sweep.
pub const WARM_KERNEL: &str = "stncl";
/// Shared prefix of the warm-start sweep, in epochs (the kernel runs 24).
pub const WARM_EPOCHS: u64 = 12;
/// Systems of the warm-start sweep. None changes the machine
/// configuration, so all share one prefix snapshot.
pub const WARM_SYSTEMS: [System; 5] = [
    System::Static(StaticPoint::Baseline),
    System::Equalizer(Mode::Performance),
    System::Equalizer(Mode::Energy),
    System::DynCta,
    System::EqualizerBlocksOnly,
];

/// One planned request of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planned {
    /// The `i`-th cold request.
    Cold(u64),
    /// A duplicate of the `i`-th cold request.
    Duplicate(u64),
    /// The warm-start sweep's `g`-th system.
    Warm(usize),
}

/// The seeded request order of a pass: cold requests, duplicates (each
/// after its original) and the warm sweep (in system order), interleaved
/// by the workload seed.
pub fn plan(seed: u64) -> Vec<Planned> {
    let mut rng = mix(seed, 0x5e77e);
    let mut next = || {
        rng = mix(rng, 1);
        rng
    };
    let mut sent = 0u64;
    let mut dups_left: Vec<u64> = Vec::new();
    let mut warm = 0usize;
    let mut out = Vec::new();
    loop {
        let pending_dups: Vec<usize> = (0..dups_left.len()).filter(|&i| dups_left[i] > 0).collect();
        let mut choices = Vec::new();
        if sent < COLD_REQUESTS {
            choices.push(0);
        }
        if !pending_dups.is_empty() {
            choices.push(1);
        }
        if warm < WARM_SYSTEMS.len() {
            choices.push(2);
        }
        if choices.is_empty() {
            return out;
        }
        match choices[(next() % choices.len() as u64) as usize] {
            0 => {
                out.push(Planned::Cold(sent));
                dups_left.push(DUPLICATES);
                sent += 1;
            }
            1 => {
                let i = pending_dups[(next() % pending_dups.len() as u64) as usize];
                dups_left[i] -= 1;
                out.push(Planned::Duplicate(i as u64));
            }
            _ => {
                out.push(Planned::Warm(warm));
                warm += 1;
            }
        }
    }
}

/// The request a planned entry sends.
pub fn request(seed: u64, planned: Planned) -> SimulateRequest {
    let (kernel, seed, system, warm_epochs) = match planned {
        Planned::Cold(i) | Planned::Duplicate(i) => (
            COLD_KERNEL,
            mix(seed, 1000 + i),
            System::Static(StaticPoint::Baseline),
            0,
        ),
        Planned::Warm(g) => (WARM_KERNEL, mix(seed, 2000), WARM_SYSTEMS[g], WARM_EPOCHS),
    };
    SimulateRequest {
        kernel: kernel.to_string(),
        seed: Some(seed),
        num_sms: None,
        options: SimOptions::default(),
        system,
        warm_epochs,
    }
}

/// Seed-independent label of a planned entry (duplicates share their
/// original's label, so their digests must agree).
pub fn label(planned: Planned) -> String {
    match planned {
        Planned::Cold(i) | Planned::Duplicate(i) => format!("{COLD_KERNEL}#{i}/baseline"),
        Planned::Warm(g) => format!(
            "{WARM_KERNEL}+warm{WARM_EPOCHS}/{}",
            WARM_SYSTEMS[g].label()
        ),
    }
}

/// A running `sim-serve` daemon (unix socket, one worker, empty caches).
/// Dropping it kills and reaps the process if it is still running.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    socket: PathBuf,
    /// The endpoint the daemon printed, e.g. `unix:d1.sock`.
    pub endpoint: String,
    /// Seconds from spawn until the daemon reported it was listening.
    pub ready_s: f64,
    cpu_at_ready: f64,
}

impl Daemon {
    /// Spawns `exe` listening on `socket` and waits until it is ready.
    /// The pool-tuning variables are removed from its environment so it
    /// runs with the simulator's defaults.
    pub fn spawn(exe: &Path, socket: &Path) -> Result<Self, String> {
        let _ = std::fs::remove_file(socket);
        let start = Instant::now();
        let mut child = Command::new(exe)
            .arg("--unix")
            .arg(socket)
            .args(["--workers", "1"])
            .env_remove("SIM_THREADS")
            .env_remove("SIM_SPIN_LIMIT")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout not captured".to_string());
        };
        let mut daemon = Self {
            child,
            stdout: BufReader::new(stdout),
            socket: socket.to_path_buf(),
            endpoint: String::new(),
            ready_s: 0.0,
            cpu_at_ready: 0.0,
        };
        let mut line = String::new();
        daemon
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon readiness line: {e}"))?;
        daemon.ready_s = start.elapsed().as_secs_f64();
        daemon.endpoint = line
            .trim()
            .strip_prefix("sim-serve: listening on ")
            .ok_or_else(|| format!("unexpected daemon output `{}`", line.trim()))?
            .to_string();
        daemon.cpu_at_ready = daemon.cpu_seconds()?;
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU seconds the daemon has used so far.
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        host::cpu_seconds(&self.pid())
    }

    /// CPU seconds used since it became ready.
    pub fn cpu_since_ready(&self) -> Result<f64, String> {
        Ok(self.cpu_seconds()? - self.cpu_at_ready)
    }

    /// The daemon's peak resident set so far, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        host::peak_rss_mib(&self.pid())
    }

    /// Sends `Shutdown` on `client`, closes it and waits for a clean exit.
    pub fn shutdown(mut self, mut client: Client) -> Result<(), String> {
        match client.call(&Request::Shutdown) {
            Ok(Response::ShutdownAck) => {}
            other => return Err(format!("shutdown not acknowledged: {other:?}")),
        }
        drop(client);
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }

    /// Connects one client.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connect {}: {e}", self.endpoint))
    }

    /// Fetches the daemon's `Stats` frame.
    pub fn stats(client: &mut Client) -> Result<StatsReply, String> {
        match client.call(&Request::Stats) {
            Ok(Response::Stats(reply)) => Ok(*reply),
            other => Err(format!("unexpected Stats reply: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}
