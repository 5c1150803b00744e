//! The simulation server: single-flight deduplication, result
//! memoization, prefix warm-start, and the socket front-end.
//!
//! [`Server`] is the transport-independent core — `respond` maps one
//! [`Request`] to one [`Response`] and is what the protocol tests
//! exercise without sockets. [`Bound`] wraps it in a unix-socket or TCP
//! listener with a fixed worker pool: the acceptor thread enqueues
//! connections, workers drain the queue and serve each connection to
//! completion (frames on one connection are handled in order; sharding
//! happens across connections).
//!
//! Concurrency discipline: one mutex guards all memoization state, and
//! it is *never* held across a simulation — a leader claims its key in
//! the in-flight set, simulates unlocked, then publishes and wakes the
//! waiters. The stepping hot path of the engine itself stays lock-free;
//! `cargo xtask analyze` proves the serving layer's locks are not
//! reachable from it.

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use equalizer_power::PowerModel;
use equalizer_sim::config::GpuConfig;
use equalizer_sim::engine::{Engine, StepEvent};
use equalizer_sim::governor::{Governor, StaticGovernor};
use equalizer_sim::gpu::SimError;
use equalizer_sim::kernel::KernelSpec;
use equalizer_sim::snapshot::encode_run_stats;
use equalizer_workloads::kernel_by_name;

use super::cache::LruCache;
use super::hash;
use super::protocol::{
    decode_request, encode_response, read_frame, write_frame, Request, Response, ServerPhaseStats,
    ServerStats, SimOutcome, SimulateRequest, StatsReply,
};
use crate::Runner;

/// Nanoseconds since `start`, saturated into a `u64`.
///
/// All phase timing in this module is diagnostic: the values only ever
/// land in [`ServerPhaseStats`], never in request keys, cached bytes or
/// simulation results, so the wall clock cannot perturb determinism.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Sizing knobs for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads draining the connection queue.
    pub workers: usize,
    /// Result-cache capacity (entries; one encoded `RunStats` each).
    pub result_cache: usize,
    /// Prefix-snapshot cache capacity (entries; one machine image each).
    pub snapshot_cache: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            workers: 2,
            result_cache: 64,
            snapshot_cache: 8,
        }
    }
}

/// Failed result keys remembered at most; the map is cleared once it
/// grows past this, so a misbehaving client cannot grow it unboundedly.
const FAILED_BOUND: usize = 64;

#[derive(Debug)]
struct Shared {
    results: LruCache,
    snapshots: LruCache,
    in_flight: BTreeSet<u64>,
    /// Deterministic failures (bad config, cycle limit, …) keyed like
    /// results, so waiters on a failed flight get the error instead of
    /// re-simulating into the same wall.
    failed: std::collections::BTreeMap<u64, String>,
    tally: ServerStats,
    phases: ServerPhaseStats,
}

/// The transport-independent simulation server.
#[derive(Debug)]
pub struct Server {
    base: GpuConfig,
    options: ServeOptions,
    state: Mutex<Shared>,
    settled: Condvar,
    quit: AtomicBool,
}

impl Server {
    /// Creates a server whose requests resolve against `base` (SM-count
    /// overrides in requests start from this configuration).
    pub fn new(base: GpuConfig, options: ServeOptions) -> Self {
        Self {
            base,
            options,
            state: Mutex::new(Shared {
                results: LruCache::new(options.result_cache),
                snapshots: LruCache::new(options.snapshot_cache),
                in_flight: BTreeSet::new(),
                failed: std::collections::BTreeMap::new(),
                tally: ServerStats::default(),
                phases: ServerPhaseStats::default(),
            }),
            settled: Condvar::new(),
            quit: AtomicBool::new(false),
        }
    }

    /// The sizing knobs this server was built with.
    pub fn options(&self) -> ServeOptions {
        self.options
    }

    /// Whether a [`Request::Shutdown`] has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.quit.load(Ordering::Acquire)
    }

    /// Locks the shared state, recovering from poisoning: every
    /// critical section below leaves the maps internally consistent,
    /// so a worker that panicked elsewhere must not wedge the daemon.
    fn lock_state(&self) -> MutexGuard<'_, Shared> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Maps one request to one response. Transport-independent: the
    /// socket layer and the in-process tests both go through here.
    pub fn respond(&self, request: &Request) -> Response {
        match request {
            Request::Simulate(req) => {
                {
                    let mut st = self.lock_state();
                    st.tally.requests += 1;
                }
                match self.satisfy(req) {
                    Ok(outcome) => Response::Outcome(outcome),
                    Err(msg) => {
                        let mut st = self.lock_state();
                        st.tally.errors += 1;
                        Response::Error(msg)
                    }
                }
            }
            Request::Stats => Response::Stats(Box::new(self.stats_reply())),
            Request::Shutdown => {
                self.quit.store(true, Ordering::Release);
                Response::ShutdownAck
            }
        }
    }

    /// Current tallies (eviction counts folded in from the caches).
    pub fn tallies(&self) -> ServerStats {
        self.stats_reply().tallies
    }

    /// Everything a [`Request::Stats`] frame reports: the tallies plus
    /// the per-phase latency histograms, read in one critical section
    /// so the reply is a coherent snapshot.
    pub fn stats_reply(&self) -> StatsReply {
        let st = self.lock_state();
        let mut tally = st.tally;
        tally.result_evictions = st.results.evictions();
        tally.snapshot_evictions = st.snapshots.evictions();
        StatsReply {
            tallies: tally,
            phases: st.phases,
        }
    }

    /// Records how long an accepted connection sat in the queue before
    /// a worker picked it up.
    pub(super) fn note_queue_wait(&self, ns: u64) {
        let mut st = self.lock_state();
        st.phases.queue_wait.record(ns);
    }

    /// Records the reply-side I/O phases of one served frame.
    pub(super) fn note_reply_io(&self, encode_ns: u64, write_ns: u64) {
        let mut st = self.lock_state();
        st.phases.encode.record(encode_ns);
        st.phases.write.record(write_ns);
    }

    /// Counts a request that never decoded into a [`Request`].
    pub(super) fn note_bad_request(&self) {
        let mut st = self.lock_state();
        st.tally.errors += 1;
    }

    /// Serves one simulate request: resolve, key, then cache-hit /
    /// join-in-flight / lead-a-fresh-run.
    fn satisfy(&self, req: &SimulateRequest) -> Result<SimOutcome, String> {
        let kernel = kernel_by_name(&req.kernel)
            .ok_or_else(|| format!("unknown kernel `{}`", req.kernel))?;
        let kernel = match req.seed {
            Some(seed) => kernel.with_seed(seed),
            None => kernel,
        };
        let mut base = self.base.clone();
        if let Some(n) = req.num_sms {
            base.num_sms = n;
        }
        let runner = Runner::new(base, PowerModel::gtx480(), req.options);
        let (config, mut governor) = runner.system_setup(req.system);
        let key = hash::result_key(&config, &kernel, &req.options, req.system, req.warm_epochs);

        // Single-flight claim. Either return a memoized result (or
        // memoized failure), or leave the loop as the flight's leader.
        // The lookup phase spans the whole claim, so for coalesced
        // followers it includes the wait on the in-flight leader — by
        // design: that wait is exactly the latency a hit-after-flight
        // costs the client.
        let mut waited = false;
        // lint: allow(no-wallclock) -- phase timing only (see elapsed_ns); never feeds keys or results
        let lookup_start = Instant::now();
        {
            let mut st = self.lock_state();
            loop {
                if let Some(bytes) = st.results.lookup(key) {
                    if waited {
                        st.tally.coalesced += 1;
                    } else {
                        st.tally.cache_hits += 1;
                    }
                    st.phases.cache_lookup.record(elapsed_ns(lookup_start));
                    return Ok(SimOutcome {
                        config_hash: key,
                        cached: true,
                        warm_hit: false,
                        stats_bytes: bytes.to_vec(),
                    });
                }
                if let Some(msg) = st.failed.get(&key) {
                    let msg = msg.clone();
                    st.phases.cache_lookup.record(elapsed_ns(lookup_start));
                    return Err(msg);
                }
                if st.in_flight.insert(key) {
                    st.phases.cache_lookup.record(elapsed_ns(lookup_start));
                    break;
                }
                waited = true;
                st = self
                    .settled
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }

        // Leader: simulate with no lock held, publish, wake waiters.
        // lint: allow(no-wallclock) -- phase timing only (see elapsed_ns); never feeds keys or results
        let sim_start = Instant::now();
        let ran = self.drive_to_completion(&config, &kernel, req, governor.as_mut());
        let sim_ns = elapsed_ns(sim_start);
        let outcome = {
            let mut st = self.lock_state();
            st.phases.simulate.record(sim_ns);
            st.in_flight.remove(&key);
            match ran {
                Ok((stats_bytes, warm_hit, batched_ticks)) => {
                    st.results.store(key, Arc::new(stats_bytes.clone()));
                    st.tally.simulations += 1;
                    st.tally.batched_ticks += batched_ticks;
                    if warm_hit {
                        st.tally.warm_hits += 1;
                    }
                    Ok(SimOutcome {
                        config_hash: key,
                        cached: false,
                        warm_hit,
                        stats_bytes,
                    })
                }
                Err(msg) => {
                    if st.failed.len() >= FAILED_BOUND {
                        st.failed.clear();
                    }
                    st.failed.insert(key, msg.clone());
                    Err(msg)
                }
            }
        };
        self.settled.notify_all();
        outcome
    }

    /// Runs the simulation itself: cold from cycle 0, or warm-started
    /// from a (possibly memoized) prefix snapshot. Returns the encoded
    /// statistics, whether a snapshot was reused, and the run's batched
    /// SM ticks for the `serve.batched_ticks` tally.
    fn drive_to_completion(
        &self,
        config: &GpuConfig,
        kernel: &KernelSpec,
        req: &SimulateRequest,
        governor: &mut dyn Governor,
    ) -> Result<(Vec<u8>, bool, u64), String> {
        let sim_err = |e: SimError| format!("simulation failed: {e}");
        if req.warm_epochs == 0 {
            let mut engine = Engine::new(config, kernel, req.options).map_err(sim_err)?;
            let stats = engine.run(governor).map_err(sim_err)?;
            return Ok((encode_run_stats(&stats), false, engine.batched_ticks()));
        }

        let pkey = hash::prefix_key(config, kernel, &req.options, req.warm_epochs);
        let snapshot = {
            let mut st = self.lock_state();
            st.snapshots.lookup(pkey)
        };
        let (mut engine, warm_hit) = match snapshot {
            Some(bytes) => {
                let engine = Engine::restore(config, kernel, req.options, &bytes)
                    .map_err(|e| format!("prefix snapshot unusable: {e}"))?;
                (engine, true)
            }
            None => {
                let mut engine = Engine::new(config, kernel, req.options).map_err(sim_err)?;
                while engine.epoch_index() < req.warm_epochs {
                    if engine.run_epoch(&mut StaticGovernor).map_err(sim_err)?
                        == StepEvent::Complete
                    {
                        break;
                    }
                }
                let mut st = self.lock_state();
                st.snapshots.store(pkey, Arc::new(engine.snapshot()));
                st.tally.prefix_runs += 1;
                (engine, false)
            }
        };
        let stats = engine.run(governor).map_err(sim_err)?;
        Ok((encode_run_stats(&stats), warm_hit, engine.batched_ticks()))
    }
}

// --- socket front-end ----------------------------------------------------

/// A bidirectional connection over either transport.
#[derive(Debug)]
pub(super) enum Conn {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.read(buf),
            Conn::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

#[derive(Debug)]
enum ListenerKind {
    Unix(UnixListener),
    Tcp(TcpListener),
}

#[derive(Debug, Clone)]
enum Dial {
    Unix(PathBuf),
    Tcp(SocketAddr),
}

/// Connection queue between the acceptor and the worker pool. Each
/// entry remembers when it was enqueued so the worker that dequeues it
/// can report the queue-wait phase.
#[derive(Debug, Default)]
struct ConnQueue {
    inner: Mutex<(VecDeque<(Conn, Instant)>, bool)>,
    ready: Condvar,
}

impl ConnQueue {
    fn push_conn(&self, conn: Conn) {
        // lint: allow(no-wallclock) -- queue-wait phase timing only (see elapsed_ns)
        let enqueued = Instant::now();
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        guard.0.push_back((conn, enqueued));
        drop(guard);
        self.ready.notify_one();
    }

    fn close_queue(&self) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).1 = true;
        self.ready.notify_all();
    }

    /// Next connection and the nanoseconds it sat in the queue, or
    /// `None` once the queue is closed and drained.
    fn next_conn(&self) -> Option<(Conn, u64)> {
        let mut guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some((conn, enqueued)) = guard.0.pop_front() {
                return Some((conn, elapsed_ns(enqueued)));
            }
            if guard.1 {
                return None;
            }
            guard = self
                .ready
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A listening socket with its worker pool, ready to serve a [`Server`].
#[derive(Debug)]
pub struct Bound {
    kind: ListenerKind,
    dial: Dial,
}

impl Bound {
    /// Binds a unix-domain socket at `path`. Fails if the path exists —
    /// callers decide whether removing a stale socket is safe.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn unix(path: &Path) -> io::Result<Self> {
        let listener = UnixListener::bind(path)?;
        Ok(Self {
            kind: ListenerKind::Unix(listener),
            dial: Dial::Unix(path.to_path_buf()),
        })
    }

    /// Binds a TCP socket at `addr` (e.g. `127.0.0.1:0` for an
    /// ephemeral port; see [`Bound::endpoint`] for the resolved one).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn tcp(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(Self {
            kind: ListenerKind::Tcp(listener),
            dial: Dial::Tcp(local),
        })
    }

    /// The resolved endpoint, as `unix:PATH` or `tcp:ADDR`.
    pub fn endpoint(&self) -> String {
        match &self.dial {
            Dial::Unix(path) => format!("unix:{}", path.display()),
            Dial::Tcp(addr) => format!("tcp:{addr}"),
        }
    }

    fn accept_conn(&self) -> io::Result<Conn> {
        match &self.kind {
            ListenerKind::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
            ListenerKind::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
        }
    }

    /// Connects to our own endpoint so a blocked `accept` wakes up and
    /// observes the shutdown flag.
    fn nudge_acceptor(&self) {
        match &self.dial {
            Dial::Unix(path) => drop(UnixStream::connect(path)),
            Dial::Tcp(addr) => drop(TcpStream::connect(addr)),
        }
    }

    /// Accepts and serves connections until a [`Request::Shutdown`]
    /// arrives, then drains in-progress connections and returns. A unix
    /// socket file is removed on the way out.
    ///
    /// # Errors
    ///
    /// Propagates accept failures (shutdown is not a failure).
    pub fn run_until_shutdown(&self, server: &Server, workers: usize) -> io::Result<()> {
        let queue = ConnQueue::default();
        let result = std::thread::scope(|scope| {
            for _ in 0..workers.max(1) {
                scope.spawn(|| {
                    while let Some((conn, wait_ns)) = queue.next_conn() {
                        server.note_queue_wait(wait_ns);
                        if serve_connection(server, conn) {
                            self.nudge_acceptor();
                        }
                    }
                });
            }
            let outcome = loop {
                if server.shutdown_requested() {
                    break Ok(());
                }
                match self.accept_conn() {
                    Ok(conn) => {
                        if server.shutdown_requested() {
                            break Ok(());
                        }
                        queue.push_conn(conn);
                    }
                    Err(e) => break Err(e),
                }
            };
            queue.close_queue();
            outcome
        });
        if let Dial::Unix(path) = &self.dial {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

/// Serves every frame on one connection in order. Returns whether this
/// connection requested a shutdown.
///
/// A body that fails to decode gets an error reply and the connection
/// lives on (the length prefix kept the stream in sync); a broken frame
/// gets a best-effort error reply and the connection is dropped, since
/// the stream position can no longer be trusted. The daemon survives
/// both.
fn serve_connection(server: &Server, mut conn: Conn) -> bool {
    let mut shutdown = false;
    loop {
        match read_frame(&mut conn) {
            Ok(None) => break,
            Ok(Some(body)) => {
                let response = match decode_request(&body) {
                    Ok(request) => {
                        if matches!(request, Request::Shutdown) {
                            shutdown = true;
                        }
                        server.respond(&request)
                    }
                    Err(e) => {
                        server.note_bad_request();
                        Response::Error(format!("malformed request body: {e}"))
                    }
                };
                // lint: allow(no-wallclock) -- encode/write phase timing only (see elapsed_ns)
                let encode_start = Instant::now();
                let reply = encode_response(&response);
                let encode_ns = elapsed_ns(encode_start);
                // lint: allow(no-wallclock) -- encode/write phase timing only (see elapsed_ns)
                let write_start = Instant::now();
                let wrote = write_frame(&mut conn, &reply);
                server.note_reply_io(encode_ns, elapsed_ns(write_start));
                if wrote.is_err() || shutdown {
                    break;
                }
            }
            Err(e) => {
                server.note_bad_request();
                let reply = Response::Error(format!("malformed frame: {e}"));
                let _ = write_frame(&mut conn, &encode_response(&reply));
                break;
            }
        }
    }
    shutdown
}
