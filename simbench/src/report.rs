//! Rendering: the human-readable table and the one-line JSON result.

use equalizer_obs::json::escape_json;

use crate::bench::Metric;

/// Formats a value with all its digits (shortest round-trip form).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// An aligned `metric value unit samples` table.
pub fn table(title: &str, metrics: &[Metric]) -> String {
    let width = metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(6)
        .max(6);
    let mut out = format!(
        "{title}\n{:<width$}  {:>16}  {:<6}  samples\n",
        "metric", "value", "unit"
    );
    for m in metrics {
        let samples = if m.samples == 0 {
            "-".to_string()
        } else {
            m.samples.to_string()
        };
        out.push_str(&format!(
            "{:<width$}  {:>16.6}  {:<6}  {samples}\n",
            m.name, m.value, m.unit
        ));
    }
    out
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape_json(m.name),
                number(m.value),
                escape_json(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}
