//! The traced run's in-memory spans and per-layer time accumulators,
//! written once at the end as Perfetto-loadable trace-event JSON.

use std::time::Instant;

use equalizer_obs::json::escape_json;

/// Nanoseconds from `origin` to `t`.
pub fn ns_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds elapsed since `t`.
pub fn elapsed_ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One completed span. Folded spans (many calls summed into one) carry
/// their call count in `args` and are laid out back to back inside
/// their parent, so the timeline nests.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span covers, e.g. `engine.sm_step`.
    pub name: String,
    /// Layer (module) the call belongs to.
    pub cat: &'static str,
    /// Track: 1 for the main thread, 1 + worker index for sweep workers.
    pub tid: usize,
    /// Start, in nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Extra integer arguments (call counts, epoch, bytes).
    pub args: Vec<(&'static str, u64)>,
}

/// Time and call count of one layer call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    /// Summed nanoseconds.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

impl Acc {
    /// Adds `calls` calls taking `ns` nanoseconds in total.
    pub fn add(&mut self, ns: u64, calls: u64) {
        self.ns += ns;
        self.calls += calls;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Self time per layer call, summed over a traced job or pass. Step
/// times exclude the governor and observer calls nested in them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// `kernel_by_name` + `KernelSpec::with_seed`.
    pub build: Acc,
    /// `Engine::new`.
    pub engine_new: Acc,
    /// `Engine::step` returning `SmCycle`.
    pub sm_step: Acc,
    /// `Engine::step` returning `MemCycle`.
    pub mem_step: Acc,
    /// `Engine::step` returning `EpochBoundary`.
    pub epoch_step: Acc,
    /// `Engine::step` starting or ending an invocation.
    pub invocation_step: Acc,
    /// `Engine::stats`.
    pub engine_stats: Acc,
    /// `Governor::epoch`.
    pub governor: Acc,
    /// `Observer` callbacks.
    pub observer: Acc,
    /// `PowerModel::energy`.
    pub energy: Acc,
    /// `Engine::snapshot`.
    pub snapshot_encode: Acc,
    /// `Engine::restore`.
    pub snapshot_restore: Acc,
    /// Bytes of the snapshots taken.
    pub snapshot_bytes: u64,
    /// `Client::call`.
    pub client_call: Acc,
    /// SM-domain ticks simulated (from `RunStats`).
    pub sm_ticks: u64,
}

impl Layers {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Layers) {
        for (a, b) in self.accs_mut().into_iter().zip(other.accs()) {
            a.add(b.ns, b.calls);
        }
        self.snapshot_bytes += other.snapshot_bytes;
        self.sm_ticks += other.sm_ticks;
    }

    fn accs(&self) -> [Acc; 13] {
        [
            self.build,
            self.engine_new,
            self.sm_step,
            self.mem_step,
            self.epoch_step,
            self.invocation_step,
            self.engine_stats,
            self.governor,
            self.observer,
            self.energy,
            self.snapshot_encode,
            self.snapshot_restore,
            self.client_call,
        ]
    }

    fn accs_mut(&mut self) -> [&mut Acc; 13] {
        [
            &mut self.build,
            &mut self.engine_new,
            &mut self.sm_step,
            &mut self.mem_step,
            &mut self.epoch_step,
            &mut self.invocation_step,
            &mut self.engine_stats,
            &mut self.governor,
            &mut self.observer,
            &mut self.energy,
            &mut self.snapshot_encode,
            &mut self.snapshot_restore,
            &mut self.client_call,
        ]
    }

    /// Host time attributed to some layer call (self times never overlap).
    pub fn attributed_ns(&self) -> u64 {
        self.accs().iter().map(|a| a.ns).sum()
    }
}

/// Spans and layer sums of one traced job.
#[derive(Debug, Clone, Default)]
pub struct JobTrace {
    /// Completed spans.
    pub spans: Vec<Span>,
    /// Self time per layer.
    pub layers: Layers,
}

/// Renders spans as Chrome trace-event JSON (loads in Perfetto).
pub fn trace_json(title: &str, host_json: &str, spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    out.push_str(&format!(
        "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \"args\": {{\"name\": \"{}\"}}}}",
        escape_json(title)
    ));
    for s in spans {
        let args: Vec<String> = s
            .args
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape_json(k)))
            .collect();
        out.push_str(&format!(
            ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{{}}}}}",
            escape_json(&s.name),
            escape_json(s.cat),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            args.join(", ")
        ));
    }
    out.push_str(&format!(
        "\n], \"displayTimeUnit\": \"ns\", \"otherData\": {host_json}}}\n"
    ));
    out
}
