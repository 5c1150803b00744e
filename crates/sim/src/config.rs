//! Hardware configuration of the simulated GPU.
//!
//! The defaults model a Fermi-style GTX 480 as used by the paper
//! (Table III): 15 SMs, 32 lanes per SM, up to 8 thread blocks / 48 warps
//! per SM, a 64-set 4-way 128 B/line L1 data cache, and ±15 % voltage/
//! frequency modulation on both the SM and memory clock domains.
//!
//! Everything here describes the simulated *hardware* and therefore
//! affects results. Knobs that only change how fast the host simulates
//! that hardware — the fast paths behind `fast_forward` (tick batching
//! and the ready-set issue walk; default on, off is the reference
//! stepper) — live on
//! [`SimOptions`](crate::gpu::SimOptions) instead, and are guaranteed
//! not to change `RunStats`.

use crate::ccws::CcwsConfig;

/// One femtosecond, the base unit of simulated wall-clock time.
pub type Femtos = u64;

/// Number of femtoseconds in one second.
pub const FS_PER_SEC: f64 = 1e15;

/// Discrete voltage/frequency operating points of a clock domain.
///
/// The paper uses three steps per domain: nominal, +15 % ("high") and
/// −15 % ("low"), with voltage assumed to scale linearly with frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum VfLevel {
    /// −15 % frequency and voltage.
    Low,
    /// The baseline operating point.
    #[default]
    Nominal,
    /// +15 % frequency and voltage.
    High,
}

impl VfLevel {
    /// All levels in ascending order.
    pub const ALL: [VfLevel; 3] = [VfLevel::Low, VfLevel::Nominal, VfLevel::High];

    /// Index into per-level statistics arrays.
    pub fn index(self) -> usize {
        match self {
            VfLevel::Low => 0,
            VfLevel::Nominal => 1,
            VfLevel::High => 2,
        }
    }

    /// Frequency (and voltage) multiplier relative to nominal.
    pub fn factor(self, step: f64) -> f64 {
        match self {
            VfLevel::Low => 1.0 - step,
            VfLevel::Nominal => 1.0,
            VfLevel::High => 1.0 + step,
        }
    }

    /// The level one step up, saturating at [`VfLevel::High`].
    pub fn step_up(self) -> VfLevel {
        match self {
            VfLevel::Low => VfLevel::Nominal,
            _ => VfLevel::High,
        }
    }

    /// The level one step down, saturating at [`VfLevel::Low`].
    pub fn step_down(self) -> VfLevel {
        match self {
            VfLevel::High => VfLevel::Nominal,
            _ => VfLevel::Low,
        }
    }
}

impl std::fmt::Display for VfLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VfLevel::Low => "low",
            VfLevel::Nominal => "nominal",
            VfLevel::High => "high",
        };
        f.write_str(s)
    }
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line_bytes
    }

    /// Total number of lines.
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }
}

/// A clock domain's nominal frequency and DVFS step size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClockConfig {
    /// Nominal frequency in MHz.
    pub nominal_mhz: f64,
    /// Fractional frequency/voltage step for the Low/High levels (0.15 in
    /// the paper).
    pub step: f64,
}

impl ClockConfig {
    /// Clock period at `level`, in femtoseconds.
    pub fn period_fs(&self, level: VfLevel) -> Femtos {
        let hz = self.nominal_mhz * 1e6 * level.factor(self.step);
        (FS_PER_SEC / hz).round() as Femtos
    }
}

/// Full configuration of the simulated GPU.
///
/// Use [`GpuConfig::gtx480`] (also [`Default`]) for the paper's baseline and
/// mutate individual fields for sensitivity studies.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (15 for GTX 480).
    pub num_sms: usize,
    /// Threads per warp.
    pub warp_size: usize,
    /// Maximum resident warps per SM (48 on Fermi).
    pub max_warps_per_sm: usize,
    /// Maximum resident thread blocks per SM (8 on Fermi).
    pub max_blocks_per_sm: usize,
    /// Total instructions the scheduler may issue per SM cycle.
    pub issue_width: usize,
    /// Of those, how many may go to the arithmetic pipelines.
    pub max_alu_issue: usize,
    /// Of those, how many may go to the LD/ST pipeline.
    pub max_mem_issue: usize,
    /// Dependent-use latency of an arithmetic instruction, in SM cycles.
    pub alu_latency: u32,
    /// Latency of an L1 data cache hit, in SM cycles.
    pub l1_hit_latency: u32,
    /// Capacity of the LD/ST unit's instruction queue. When full, memory-
    /// ready warps are counted in the `ExcessMem` state (back-pressure).
    pub lsu_queue_cap: usize,
    /// L1 data cache geometry (per SM).
    pub l1: CacheConfig,
    /// Maximum outstanding L1 misses (MSHR entries) per SM.
    pub l1_mshr: usize,
    /// Shared L2 cache geometry.
    pub l2: CacheConfig,
    /// L2 hit latency in memory-domain cycles (from SM injection).
    pub l2_latency: u32,
    /// DRAM access latency in memory-domain cycles (beyond L2).
    pub dram_latency: u32,
    /// Capacity of the SM→memory-system interconnect queue. A full queue
    /// back-pressures all LSUs — the paper's bandwidth-saturation signal.
    pub icnt_cap: usize,
    /// Capacity of the texture-path queue. Texture traffic bypasses the
    /// LD/ST back-pressure signal (models the paper's `leuko-1` case).
    pub tex_queue_cap: usize,
    /// Capacity of the DRAM controller queue.
    pub dram_queue_cap: usize,
    /// Requests the L2 can accept from the interconnect per memory cycle.
    pub l2_banks: usize,
    /// DRAM bandwidth in bytes per memory-domain cycle at any level (the
    /// absolute bandwidth therefore scales with memory frequency).
    pub dram_bytes_per_cycle: u64,
    /// SM clock domain.
    pub sm_clock: ClockConfig,
    /// Memory system clock domain (NoC + L2 + MC + DRAM).
    pub mem_clock: ClockConfig,
    /// Length of a runtime-system epoch, in SM cycles. Also bounds the
    /// engine's batched tick windows: a window never crosses an epoch
    /// boundary, so the boundary's sampling and governor hand-off happen
    /// on exactly the same tick as in per-tick stepping.
    pub epoch_cycles: u64,
    /// Interval between warp-state samples within an epoch, in SM cycles.
    pub sample_interval: u64,
    /// Delay for a voltage-regulator transition, in SM cycles.
    pub vrm_delay_cycles: u64,
    /// Per-warp issue stagger at block launch, in SM cycles per warp
    /// index. Real warps decohere quickly through tid-dependent control
    /// flow and memory latency; without a small initial stagger the
    /// identical synthetic warps march in lockstep and produce artificial
    /// DRAM burst/idle convoys.
    pub warp_launch_stagger: u32,
    /// Give every SM its own voltage regulator (and therefore its own
    /// independently tunable clock). The paper assumes one shared SM-domain
    /// VRM because per-SM regulators "may be cost prohibitive", and notes
    /// that per-SM VRMs remove the inefficiency when SMs disagree
    /// (§V-A1); this switch implements that variant. Epoch boundaries are
    /// then defined in wall time (4096 nominal SM cycles) since the SM
    /// clocks may drift apart. Drifted per-SM clocks also disable tick
    /// batching (see [`crate::gpu::SimOptions::fast_forward`]), which
    /// requires one shared SM tick sequence.
    pub per_sm_vrm: bool,
    /// Initial VF level of the SM domain.
    pub initial_sm_level: VfLevel,
    /// Initial VF level of the memory domain.
    pub initial_mem_level: VfLevel,
    /// Optional CCWS-style cache-conscious warp throttling in the L1.
    pub ccws: Option<CcwsConfig>,
}

impl GpuConfig {
    /// The paper's baseline: a Fermi-style GTX 480 (Table III).
    pub fn gtx480() -> Self {
        Self {
            num_sms: 15,
            warp_size: 32,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            issue_width: 2,
            max_alu_issue: 2,
            max_mem_issue: 1,
            alu_latency: 18,
            l1_hit_latency: 24,
            lsu_queue_cap: 8,
            l1: CacheConfig {
                sets: 64,
                ways: 4,
                line_bytes: 128,
            },
            l1_mshr: 32,
            l2: CacheConfig {
                sets: 768,
                ways: 8,
                line_bytes: 128,
            },
            l2_latency: 24,
            dram_latency: 90,
            icnt_cap: 96,
            tex_queue_cap: 512,
            dram_queue_cap: 64,
            l2_banks: 4,
            dram_bytes_per_cycle: 192,
            sm_clock: ClockConfig {
                nominal_mhz: 1400.0,
                step: 0.15,
            },
            mem_clock: ClockConfig {
                nominal_mhz: 924.0,
                step: 0.15,
            },
            epoch_cycles: 4096,
            sample_interval: 128,
            vrm_delay_cycles: 512,
            warp_launch_stagger: 8,
            per_sm_vrm: false,
            initial_sm_level: VfLevel::Nominal,
            initial_mem_level: VfLevel::Nominal,
            ccws: None,
        }
    }

    /// Returns the same configuration with static (initial) VF levels.
    ///
    /// Used for the paper's static operating points (SM±15 %, Mem±15 %).
    pub fn with_static_levels(mut self, sm: VfLevel, mem: VfLevel) -> Self {
        self.initial_sm_level = sm;
        self.initial_mem_level = mem;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("num_sms must be positive".into());
        }
        if self.max_warps_per_sm == 0 || self.max_blocks_per_sm == 0 {
            return Err("SM occupancy limits must be positive".into());
        }
        if self.issue_width == 0 || self.max_alu_issue == 0 || self.max_mem_issue == 0 {
            return Err("issue widths must be positive".into());
        }
        if !self.l1.line_bytes.is_power_of_two() || !self.l2.line_bytes.is_power_of_two() {
            return Err("cache line sizes must be powers of two".into());
        }
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err("L1 and L2 line sizes must match".into());
        }
        if self.sample_interval == 0 || !self.epoch_cycles.is_multiple_of(self.sample_interval) {
            return Err("epoch_cycles must be a positive multiple of sample_interval".into());
        }
        if self.dram_bytes_per_cycle == 0 {
            return Err("dram_bytes_per_cycle must be positive".into());
        }
        if self.sm_clock.nominal_mhz <= 0.0 || self.mem_clock.nominal_mhz <= 0.0 {
            return Err("clock frequencies must be positive".into());
        }
        Ok(())
    }

    /// Samples taken per epoch.
    pub fn samples_per_epoch(&self) -> u64 {
        self.epoch_cycles / self.sample_interval
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        GpuConfig::default().validate().unwrap();
    }

    #[test]
    fn l1_matches_table_iii() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.l1.sets, 64);
        assert_eq!(c.l1.ways, 4);
        assert_eq!(c.l1.line_bytes, 128);
        assert_eq!(c.l1.capacity_bytes(), 32 * 1024);
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.max_blocks_per_sm, 8);
    }

    #[test]
    fn vf_factor_steps() {
        let step = 0.15;
        assert!((VfLevel::Low.factor(step) - 0.85).abs() < 1e-12);
        assert!((VfLevel::Nominal.factor(step) - 1.0).abs() < 1e-12);
        assert!((VfLevel::High.factor(step) - 1.15).abs() < 1e-12);
    }

    #[test]
    fn vf_step_saturates() {
        assert_eq!(VfLevel::High.step_up(), VfLevel::High);
        assert_eq!(VfLevel::Low.step_down(), VfLevel::Low);
        assert_eq!(VfLevel::Nominal.step_up(), VfLevel::High);
        assert_eq!(VfLevel::Nominal.step_down(), VfLevel::Low);
        assert_eq!(VfLevel::Low.step_up(), VfLevel::Nominal);
        assert_eq!(VfLevel::High.step_down(), VfLevel::Nominal);
    }

    #[test]
    fn periods_scale_inversely_with_level() {
        let clk = ClockConfig {
            nominal_mhz: 1000.0,
            step: 0.15,
        };
        let lo = clk.period_fs(VfLevel::Low);
        let no = clk.period_fs(VfLevel::Nominal);
        let hi = clk.period_fs(VfLevel::High);
        assert!(lo > no && no > hi);
        assert_eq!(no, 1_000_000); // 1 GHz -> 1e6 fs
    }

    #[test]
    fn validation_catches_bad_epoch() {
        let mut c = GpuConfig::gtx480();
        c.sample_interval = 100; // 4096 % 100 != 0
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_catches_line_mismatch() {
        let mut c = GpuConfig::gtx480();
        c.l2.line_bytes = 64;
        assert!(c.validate().is_err());
    }
}
