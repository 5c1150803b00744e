//! # equalizer-power — GPUWattch-style energy model with DVFS
//!
//! The paper evaluates Equalizer with GPUWattch/McPAT extended for SM and
//! memory-system DVFS (§V-A1). This crate rebuilds that capability as an
//! event-based analytical model over the simulator's [`RunStats`]:
//! per-event energies for instructions, caches and DRAM; background clock
//! power per domain; the paper's 41.9 W leakage; and a per-level DRAM
//! active-standby table modelled on the Hynix GDDR5 datasheet the paper
//! cites.
//!
//! ## Example
//!
//! ```
//! use equalizer_power::{PowerModel, energy_efficiency};
//! use equalizer_sim::prelude::*;
//! use std::sync::Arc;
//!
//! let program = Arc::new(Program::new(vec![Segment::new(vec![Instr::alu()], 32)]));
//! let kernel = KernelSpec::new(
//!     "toy",
//!     KernelCategory::Compute,
//!     4,
//!     8,
//!     vec![Invocation { grid_blocks: 30, program }],
//! );
//! let stats = simulate(&GpuConfig::gtx480(), &kernel, &mut StaticGovernor)?;
//! let model = PowerModel::gtx480();
//! let energy = model.energy(&stats);
//! assert!(energy.total_j() > 0.0);
//! assert!((energy_efficiency(&model, &stats, &stats) - 1.0).abs() < 1e-12);
//! # Ok::<(), equalizer_sim::gpu::SimError>(())
//! ```

// Compiler-enforced backstop for the `no-unwrap` lint rule: library
// code in this crate must not contain panicking escape hatches.
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod model;
pub mod params;

pub use model::{energy_efficiency, EnergyBreakdown, PowerModel};
pub use params::PowerParams;
