//! # equalizer-bench — benchmark entry points
//!
//! This crate carries one `harness = false` bench target per table and
//! figure of the paper (run with `cargo bench`), plus a micro-benchmark
//! of the simulator itself. The shared runner setup and the
//! zero-dependency timing harness live here.

#![forbid(unsafe_code)]

use equalizer_harness::Runner;

pub mod timing;

/// The runner every figure bench uses: the full 15-SM GTX 480 baseline.
pub fn default_runner() -> Runner {
    Runner::gtx480()
}
