//! Host-time benchmark of the Equalizer simulator.
//!
//! Four workloads stress different layers of the same engine:
//! `perf-set` (serial static runs, the SM hot loop), `governed-observed`
//! (governors, observers, per-SM clocks, CCWS), `figure-sweep` (`Runner`
//! and `parallel_map`, with simulations competing for cores) and
//! `serve-mixed` (the `sim-serve` daemon's cache, single-flight and
//! warm-start paths). Every simulation uses `SimOptions::default()`, so
//! the benchmark measures what users get.
//!
//! A run reports end-to-end metrics with tracing off; `--trace 1`
//! alternates traced passes with untraced ones and reports per-layer
//! self times measured around each public call into the simulator, plus
//! the tracing overhead itself. Every op's output is digested and
//! checked (see [`digest`]).

pub mod bench;
pub mod digest;
pub mod host;
pub mod jobs;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;
