//! Output digests: the correctness gate behind `failed`.
//!
//! A job's result is its `RunStats` plus its priced energy. Both are
//! digested field by field from their `Debug` rendering, so every field
//! counts — including ones added later — without the benchmark naming
//! any of them. Fields listed in [`EXCLUDED_FIELDS`] are host-side
//! diagnostics whose value may change (or whose field may disappear)
//! without the simulated result changing.

use std::collections::BTreeMap;

use equalizer_power::EnergyBreakdown;
use equalizer_sim::stats::RunStats;

/// Top-level fields left out of the digest.
pub const EXCLUDED_FIELDS: [&str; 1] = ["batched_ticks"];

/// The seed whose digests are committed in `reference.txt`.
pub const DEFAULT_SEED: u64 = 1;

const REFERENCE: &str = include_str!("../reference.txt");

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    // Field separator, so ("ab","c") and ("a","bc") differ.
    (hash ^ 0xff).wrapping_mul(FNV_PRIME)
}

/// Splits a `Debug` rendering `Name { a: x, b: Y { .. } }` into its
/// top-level `(field, value)` pairs.
pub fn top_level_fields(debug: &str) -> Vec<(&str, &str)> {
    let body = match (debug.find('{'), debug.rfind('}')) {
        (Some(open), Some(close)) if open < close => &debug[open + 1..close],
        _ => return vec![("", debug)],
    };
    let mut fields = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    let bytes = body.as_bytes();
    for (i, b) in bytes.iter().enumerate() {
        match b {
            b'{' | b'[' | b'(' => depth += 1,
            b'}' | b']' | b')' => depth -= 1,
            b',' if depth == 0 => {
                fields.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    fields.push(&body[start..]);
    fields
        .into_iter()
        .map(str::trim)
        .filter(|f| !f.is_empty())
        .map(|f| f.split_once(": ").unwrap_or((f, "")))
        .collect()
}

/// Digest of one or more `Debug` renderings, skipping [`EXCLUDED_FIELDS`].
pub fn digest_debug(renderings: &[&str]) -> u64 {
    let mut hash = FNV_OFFSET;
    for rendering in renderings {
        for (name, value) in top_level_fields(rendering) {
            if EXCLUDED_FIELDS.contains(&name) {
                continue;
            }
            hash = fnv(fnv(hash, name.as_bytes()), value.as_bytes());
        }
    }
    hash
}

/// Digest of raw bytes.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    fnv(FNV_OFFSET, bytes)
}

/// Digest of a job's simulated result and its energy.
pub fn run_digest(stats: &RunStats, energy: &EnergyBreakdown) -> u64 {
    digest_debug(&[&format!("{stats:?}"), &format!("{energy:?}")])
}

/// Parses `label digest` lines (`#` starts a comment).
pub fn parse_reference(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut map = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (label, hex) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("reference line {}: expected `label digest`", n + 1))?;
        let digest = u64::from_str_radix(hex, 16)
            .map_err(|e| format!("reference line {}: bad digest `{hex}`: {e}", n + 1))?;
        map.insert(label.trim().to_string(), digest);
    }
    Ok(map)
}

/// The committed reference digests for [`DEFAULT_SEED`].
pub fn reference() -> Result<BTreeMap<String, u64>, String> {
    parse_reference(REFERENCE)
}

/// Renders digests in the `reference.txt` format.
pub fn render_reference(digests: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(
        "# Reference digests for --seed 1 (label, then digest of RunStats + energy).\n",
    );
    for (label, digest) in digests {
        out.push_str(&format!("{label} {digest:016x}\n"));
    }
    out
}

/// Labels whose digest is missing from, or differs from, `reference`.
pub fn reference_mismatches(
    digests: &BTreeMap<String, u64>,
    reference: &BTreeMap<String, u64>,
) -> Vec<String> {
    digests
        .iter()
        .filter(|(label, digest)| reference.get(*label) != Some(digest))
        .map(|(label, _)| label.clone())
        .collect()
}
