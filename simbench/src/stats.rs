//! Order statistics over timing samples.

/// Median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `pct`-th percentile (1..=99), reported only when at
/// least [`MIN_BEYOND`] samples lie beyond it; `None` otherwise.
pub fn tail_percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = (pct * n).div_ceil(100);
    if rank == 0 || rank > n || n - rank < MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}
