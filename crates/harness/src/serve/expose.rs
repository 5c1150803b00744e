//! Renders a daemon's [`StatsReply`] onto the `equalizer_obs`
//! exposition stack.
//!
//! The serve layer aggregates its own telemetry (monotonic tallies plus
//! per-phase latency histograms) because it runs far from any
//! simulation's `MetricsObserver`. This module is the bridge back: it
//! loads a reply into a plain [`MetricsRegistry`] so every existing
//! exporter — summary table, per-metric CSV, Chrome trace — works on
//! daemon stats unchanged, and renders the reply as one canonical,
//! deterministic JSON document for machine consumers.
//!
//! Metric names come from [`ServerStats::named`] and
//! [`ServerPhaseStats::named`] — a single source of truth, in stable
//! declaration order, so output bytes depend only on the reply's
//! values. Histograms are loaded with
//! [`MetricsRegistry::observe_bucketed`], which preserves the exact
//! bucket counts and nanosecond sum instead of fabricating per-sample
//! values.

use equalizer_obs::registry::MetricsRegistry;
use equalizer_obs::ObsError;

use super::protocol::{LatencyHistogram, StatsReply, LATENCY_BOUNDS_NS};

/// The wire histogram bounds as `f64`, for registry registration.
fn bounds_f64() -> Vec<f64> {
    LATENCY_BOUNDS_NS.iter().map(|b| *b as f64).collect()
}

/// Loads a stats reply into a fresh registry: one counter per tally
/// (recorded as a single point at epoch 0), one fixed-bucket histogram
/// per request phase with the wire's [`LATENCY_BOUNDS_NS`] bounds.
///
/// # Errors
///
/// Propagates [`ObsError`] from registration; with the fixed name sets
/// this can only fire if the two `named()` tables ever collide, which
/// the round-trip test pins against.
pub fn stats_registry(reply: &StatsReply) -> Result<MetricsRegistry, ObsError> {
    let mut registry = MetricsRegistry::new();
    for (name, value) in reply.tallies.named() {
        let id = registry.register_counter(name, "count")?;
        registry.record(id, 0, 0, value as f64);
    }
    for (name, hist) in reply.phases.named() {
        let id = registry.register_histogram(name, "ns", bounds_f64())?;
        registry.observe_bucketed(id, &hist.buckets, hist.count, hist.sum_ns as f64)?;
    }
    Ok(registry)
}

/// Appends one histogram as a JSON object: counts, saturating sum,
/// integer mean and the raw bucket vector.
fn push_histogram_json(out: &mut String, h: &LatencyHistogram) {
    out.push_str(&format!(
        "{{\"count\": {}, \"sum_ns\": {}, \"mean_ns\": {}, \"buckets\": [",
        h.count,
        h.sum_ns,
        h.mean_ns()
    ));
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&b.to_string());
    }
    out.push_str("]}");
}

/// Renders the reply as one canonical RFC 8259 JSON document:
/// `{"tallies": {...}, "phases": {...}}` with keys in the stable
/// `named()` order and only integer values, so identical replies render
/// identical bytes. `equalizer_obs::json::validate` accepts the output
/// (the CI serve smoke gates on exactly that).
pub fn stats_json(reply: &StatsReply) -> String {
    let mut out = String::from("{\"tallies\": {");
    for (i, (name, value)) in reply.tallies.named().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": {value}"));
    }
    out.push_str("}, \"phases\": {");
    for (i, (name, hist)) in reply.phases.named().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{name}\": "));
        push_histogram_json(&mut out, hist);
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use equalizer_obs::registry::MetricKind;
    use equalizer_obs::{csv, json, summary};

    fn sample_reply() -> StatsReply {
        let mut reply = StatsReply::default();
        reply.tallies.requests = 7;
        reply.tallies.cache_hits = 4;
        reply.tallies.simulations = 3;
        reply.phases.queue_wait.record(500);
        reply.phases.cache_lookup.record(20_000);
        reply.phases.simulate.record(3_000_000);
        reply.phases.simulate.record(90_000_000);
        reply.phases.encode.record(800);
        reply.phases.write.record(12_000);
        reply
    }

    #[test]
    fn registry_carries_every_tally_and_phase() {
        let reply = sample_reply();
        let registry = stats_registry(&reply).unwrap();
        // Exactly the two `named()` tables: every key present, nothing
        // else registered.
        let mut expected: Vec<&str> = reply.tallies.named().iter().map(|(n, _)| *n).collect();
        expected.extend(reply.phases.named().iter().map(|(n, _)| *n));
        let mut registered: Vec<&str> =
            registry.metrics().iter().map(|m| m.name.as_str()).collect();
        registered.sort_unstable();
        expected.sort_unstable();
        assert_eq!(
            registered, expected,
            "the registry holds exactly the named tables"
        );
        let requests = registry.get("serve.requests").unwrap();
        assert_eq!(requests.last(), Some(7.0));
        match &registry.get("serve.phase.simulate").unwrap().kind {
            MetricKind::Histogram {
                buckets,
                count,
                sum,
                ..
            } => {
                assert_eq!(*count, 2);
                assert_eq!(buckets.iter().sum::<u64>(), 2);
                assert!((*sum - 93_000_000.0).abs() < 1e-6);
            }
            other => panic!("wrong kind {other:?}"),
        }
        // Every exporter downstream of the registry works on the reply.
        let table = summary::summary(&registry);
        assert!(table.contains("serve.requests"), "{table}");
        let csvs = csv::all_csvs(&registry);
        assert!(csvs.iter().any(|(file, _)| file == "serve_cache_hits.csv"));
    }

    #[test]
    fn stats_json_is_canonical_and_valid() {
        let reply = sample_reply();
        let rendered = stats_json(&reply);
        json::validate(&rendered).expect("stats JSON must be RFC 8259 valid");
        assert!(rendered.contains("\"serve.requests\": 7"));
        assert!(rendered.contains("\"serve.phase.queue_wait\""));
        // Deterministic bytes, and the empty reply renders too.
        assert_eq!(rendered, stats_json(&sample_reply()));
        json::validate(&stats_json(&StatsReply::default())).expect("empty reply renders valid");
    }
}
