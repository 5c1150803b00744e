//! # equalizer-sim — a cycle-level GPU simulator substrate
//!
//! This crate rebuilds, from scratch, the simulation substrate needed to
//! reproduce *Equalizer: Dynamic Tuning of GPU Resources for Efficient
//! Execution* (Sethia & Mahlke, MICRO 2014): a Fermi-style GPU with
//! per-SM warp scheduling, a scoreboard, an LD/ST unit with finite
//! queues, an L1 data cache with MSHRs, a shared L2, a bandwidth-limited
//! DRAM model and — crucially — **two independently tunable clock
//! domains** (SM and memory system) plus **runtime-controllable thread-
//! block concurrency** via CTA pausing.
//!
//! Runtime systems plug in through the [`governor::Governor`] trait: once
//! per epoch the simulator reports each SM's warp-state counters (the
//! paper's *active*, *waiting*, *X_alu* and *X_mem* counters) and applies
//! the returned concurrency targets and VF requests.
//!
//! ## Quick start
//!
//! ```
//! use equalizer_sim::prelude::*;
//! use std::sync::Arc;
//!
//! // A toy compute kernel: 60 blocks of 4 warps running ALU work.
//! let program = Arc::new(Program::new(vec![Segment::new(
//!     vec![Instr::alu(), Instr::alu_dep()],
//!     64,
//! )]));
//! let kernel = KernelSpec::new(
//!     "toy",
//!     KernelCategory::Compute,
//!     4,
//!     8,
//!     vec![Invocation { grid_blocks: 60, program }],
//! );
//!
//! let stats = simulate(&GpuConfig::gtx480(), &kernel, &mut StaticGovernor)?;
//! assert!(stats.ipc_per_sm() > 0.0);
//! # Ok::<(), equalizer_sim::gpu::SimError>(())
//! ```

// Compiler-enforced backstop for the `no-unwrap` lint rule: library
// code in this crate must not contain panicking escape hatches.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// Asserts a simulator invariant when the `validate` cargo feature is
/// enabled; compiles to nothing otherwise.
///
/// Unlike `debug_assert!`, the checks stay active in release builds as
/// long as the feature is on, so `cargo test --release --features
/// validate` is a true sanitizer run.
#[cfg(feature = "validate")]
#[macro_export]
macro_rules! validate_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Asserts a simulator invariant when the `validate` cargo feature is
/// enabled; compiles to nothing otherwise.
#[cfg(not(feature = "validate"))]
#[macro_export]
macro_rules! validate_assert {
    ($($arg:tt)*) => {};
}

/// True when the `validate` sanitizer feature is compiled in — lets
/// integration tests assert the feature actually reached this crate
/// through the workspace's feature forwarding.
pub const VALIDATE_ENABLED: bool = cfg!(feature = "validate");

pub mod cache;
pub mod ccws;
pub mod clock;
pub mod config;
pub mod counters;
pub mod engine;
pub mod governor;
pub mod gpu;
pub mod gwde;
pub mod kernel;
pub mod memsys;
pub mod program;
pub mod sm;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod util;
pub mod warp;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::config::{CacheConfig, ClockConfig, Femtos, GpuConfig, VfLevel};
    pub use crate::counters::{WarpState, WarpStateCounters};
    pub use crate::engine::{
        BlockEvent, Engine, MachineSample, Observer, Recorder, SmSample, StepEvent, VfDomain,
    };
    pub use crate::governor::{
        EpochContext, EpochDecision, FixedBlocksGovernor, Governor, SmEpochReport, StaticGovernor,
        VfRequest,
    };
    pub use crate::gpu::{simulate, simulate_with, SimError, SimOptions};
    pub use crate::kernel::{Invocation, KernelCategory, KernelSpec};
    pub use crate::program::{
        AddressPattern, Instr, IterProfile, MemInstr, MemSpace, Program, Segment,
    };
    pub use crate::stats::{EpochRecord, RunStats};
    pub use crate::telemetry::BatchWindowStats;
}
