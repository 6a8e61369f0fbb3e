use serde::{Deserialize, Serialize};

use crate::GpuError;

/// The three Nvidia GPU generations the paper validates against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuGeneration {
    /// Volta (V100) — the generation on which Principal Kernel Selection is
    /// performed; Turing and Ampere reuse its selected kernels.
    Volta,
    /// Turing (RTX 2060).
    Turing,
    /// Ampere (RTX 3070).
    Ampere,
}

impl GpuGeneration {
    /// Instruction-count scale relative to Volta.
    ///
    /// Different generations use different machine ISAs, so "the number of
    /// instructions and makeup of specific instructions can vary slightly
    /// across generations" (Section 3.1). We model that as a small global
    /// scale factor applied to per-kernel instruction counts.
    pub fn isa_scale(self) -> f64 {
        match self {
            GpuGeneration::Volta => 1.0,
            GpuGeneration::Turing => 1.03,
            GpuGeneration::Ampere => 0.97,
        }
    }
}

impl std::fmt::Display for GpuGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GpuGeneration::Volta => "Volta",
            GpuGeneration::Turing => "Turing",
            GpuGeneration::Ampere => "Ampere",
        };
        f.write_str(s)
    }
}

/// An architecture description shared by the silicon model and the
/// cycle-level simulator.
///
/// Build one with a preset ([`GpuConfig::v100`], [`GpuConfig::rtx2060`],
/// [`GpuConfig::rtx3070`], [`GpuConfig::v100_half_sms`]) or via
/// [`GpuConfig::builder`].
///
/// # Examples
///
/// ```
/// use pka_gpu::GpuConfig;
///
/// let v100 = GpuConfig::v100();
/// assert_eq!(v100.num_sms(), 80);
///
/// let custom = GpuConfig::builder("tiny")
///     .num_sms(4)
///     .core_clock_mhz(1000.0)
///     .build()?;
/// assert_eq!(custom.num_sms(), 4);
/// # Ok::<(), pka_gpu::GpuError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    name: String,
    generation: GpuGeneration,
    num_sms: u32,
    warp_size: u32,
    max_warps_per_sm: u32,
    max_blocks_per_sm: u32,
    max_threads_per_sm: u32,
    registers_per_sm: u32,
    shared_mem_per_sm: u32,
    core_clock_mhz: f64,
    /// Warp-instruction issue slots per SM per cycle.
    issue_width: u32,
    /// FP32 lanes per SM (CUDA cores).
    fp32_lanes_per_sm: u32,
    /// Load/store units per SM (warp memory instructions issued per cycle).
    ldst_units_per_sm: u32,
    /// Special-function units per SM.
    sfu_units_per_sm: u32,
    /// Tensor-core warp-MMA throughput per SM per cycle (ops).
    tensor_units_per_sm: u32,
    l1_bytes: u64,
    l2_bytes: u64,
    dram_bandwidth_gbps: f64,
    dram_channels: u32,
    /// Uncontended DRAM access latency in core cycles.
    dram_latency_cycles: u32,
    /// L2 hit latency in core cycles.
    l2_latency_cycles: u32,
    /// L1 hit latency in core cycles.
    l1_latency_cycles: u32,
}

impl GpuConfig {
    /// Starts building a config from conservative defaults (a V100-like
    /// part).
    pub fn builder(name: impl Into<String>) -> GpuConfigBuilder {
        GpuConfigBuilder {
            config: GpuConfig {
                name: name.into(),
                ..GpuConfig::v100()
            },
        }
    }

    /// Nvidia Volta V100 (SXM2 16GB-class): 80 SMs @ 1455 MHz, 6 MiB L2,
    /// 900 GB/s HBM2.
    pub fn v100() -> Self {
        GpuConfig {
            name: "V100".into(),
            generation: GpuGeneration::Volta,
            num_sms: 80,
            warp_size: 32,
            max_warps_per_sm: 64,
            max_blocks_per_sm: 32,
            max_threads_per_sm: 2048,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 96 * 1024,
            core_clock_mhz: 1455.0,
            issue_width: 4,
            fp32_lanes_per_sm: 64,
            ldst_units_per_sm: 4,
            sfu_units_per_sm: 4,
            tensor_units_per_sm: 8,
            l1_bytes: 128 * 1024,
            l2_bytes: 6 * 1024 * 1024,
            dram_bandwidth_gbps: 900.0,
            dram_channels: 32,
            dram_latency_cycles: 440,
            l2_latency_cycles: 210,
            l1_latency_cycles: 28,
        }
    }

    /// Nvidia Turing RTX 2060: 30 SMs @ 1680 MHz, 3 MiB L2, 336 GB/s GDDR6.
    pub fn rtx2060() -> Self {
        GpuConfig {
            name: "RTX2060".into(),
            generation: GpuGeneration::Turing,
            num_sms: 30,
            warp_size: 32,
            max_warps_per_sm: 32,
            max_blocks_per_sm: 16,
            max_threads_per_sm: 1024,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 64 * 1024,
            core_clock_mhz: 1680.0,
            issue_width: 4,
            fp32_lanes_per_sm: 64,
            ldst_units_per_sm: 4,
            sfu_units_per_sm: 4,
            tensor_units_per_sm: 8,
            l1_bytes: 96 * 1024,
            l2_bytes: 3 * 1024 * 1024,
            dram_bandwidth_gbps: 336.0,
            dram_channels: 12,
            dram_latency_cycles: 480,
            l2_latency_cycles: 230,
            l1_latency_cycles: 32,
        }
    }

    /// Nvidia Ampere RTX 3070: 46 SMs @ 1725 MHz, 4 MiB L2, 448 GB/s GDDR6.
    pub fn rtx3070() -> Self {
        GpuConfig {
            name: "RTX3070".into(),
            generation: GpuGeneration::Ampere,
            num_sms: 46,
            warp_size: 32,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 16,
            max_threads_per_sm: 1536,
            registers_per_sm: 65_536,
            shared_mem_per_sm: 100 * 1024,
            core_clock_mhz: 1725.0,
            issue_width: 4,
            fp32_lanes_per_sm: 128,
            ldst_units_per_sm: 4,
            sfu_units_per_sm: 4,
            tensor_units_per_sm: 8,
            l1_bytes: 128 * 1024,
            l2_bytes: 4 * 1024 * 1024,
            dram_bandwidth_gbps: 448.0,
            dram_channels: 16,
            dram_latency_cycles: 470,
            l2_latency_cycles: 225,
            l1_latency_cycles: 30,
        }
    }

    /// The Figure 10 case study: a V100 with half its SMs disabled via MPS.
    /// Memory system is unchanged; only the SM count halves.
    pub fn v100_half_sms() -> Self {
        let mut c = Self::v100();
        c.name = "V100-40SM".into();
        c.num_sms = 40;
        c
    }

    /// The preset a command-line name selects: `v100`, `rtx2060`,
    /// `rtx3070` or `v100-half`.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::UnknownGpu`] for any other name.
    ///
    /// # Examples
    ///
    /// ```
    /// use pka_gpu::GpuConfig;
    ///
    /// assert_eq!(GpuConfig::by_name("rtx3070").unwrap(), GpuConfig::rtx3070());
    /// assert_eq!(GpuConfig::by_name("a100").unwrap_err().to_string(), "unknown gpu `a100`");
    /// ```
    pub fn by_name(name: &str) -> Result<Self, GpuError> {
        match name {
            "v100" => Ok(Self::v100()),
            "rtx2060" => Ok(Self::rtx2060()),
            "rtx3070" => Ok(Self::rtx3070()),
            "v100-half" => Ok(Self::v100_half_sms()),
            other => Err(GpuError::UnknownGpu {
                name: other.to_string(),
            }),
        }
    }

    /// Human-readable configuration name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// GPU generation.
    pub fn generation(&self) -> GpuGeneration {
        self.generation
    }

    /// Number of streaming multiprocessors.
    pub fn num_sms(&self) -> u32 {
        self.num_sms
    }

    /// Threads per warp (always 32 on Nvidia parts).
    pub fn warp_size(&self) -> u32 {
        self.warp_size
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_warps_per_sm
    }

    /// Maximum resident thread blocks per SM.
    pub fn max_blocks_per_sm(&self) -> u32 {
        self.max_blocks_per_sm
    }

    /// Maximum resident threads per SM.
    pub fn max_threads_per_sm(&self) -> u32 {
        self.max_threads_per_sm
    }

    /// Register file size per SM (32-bit registers).
    pub fn registers_per_sm(&self) -> u32 {
        self.registers_per_sm
    }

    /// Shared memory per SM in bytes.
    pub fn shared_mem_per_sm(&self) -> u32 {
        self.shared_mem_per_sm
    }

    /// Core clock in MHz.
    pub fn core_clock_mhz(&self) -> f64 {
        self.core_clock_mhz
    }

    /// Core clock in Hz.
    pub fn core_clock_hz(&self) -> f64 {
        self.core_clock_mhz * 1e6
    }

    /// Warp-instruction issue slots per SM per cycle.
    pub fn issue_width(&self) -> u32 {
        self.issue_width
    }

    /// FP32 lanes (CUDA cores) per SM.
    pub fn fp32_lanes_per_sm(&self) -> u32 {
        self.fp32_lanes_per_sm
    }

    /// Load/store unit issue slots per SM per cycle.
    pub fn ldst_units_per_sm(&self) -> u32 {
        self.ldst_units_per_sm
    }

    /// Special-function units per SM.
    pub fn sfu_units_per_sm(&self) -> u32 {
        self.sfu_units_per_sm
    }

    /// Tensor cores per SM.
    pub fn tensor_units_per_sm(&self) -> u32 {
        self.tensor_units_per_sm
    }

    /// L1 data cache size per SM, bytes.
    pub fn l1_bytes(&self) -> u64 {
        self.l1_bytes
    }

    /// L2 cache size (device-wide), bytes.
    pub fn l2_bytes(&self) -> u64 {
        self.l2_bytes
    }

    /// Peak DRAM bandwidth, GB/s.
    pub fn dram_bandwidth_gbps(&self) -> f64 {
        self.dram_bandwidth_gbps
    }

    /// Number of independent DRAM channels.
    pub fn dram_channels(&self) -> u32 {
        self.dram_channels
    }

    /// Uncontended DRAM round-trip latency in core cycles.
    pub fn dram_latency_cycles(&self) -> u32 {
        self.dram_latency_cycles
    }

    /// L2 hit latency in core cycles.
    pub fn l2_latency_cycles(&self) -> u32 {
        self.l2_latency_cycles
    }

    /// L1 hit latency in core cycles.
    pub fn l1_latency_cycles(&self) -> u32 {
        self.l1_latency_cycles
    }

    /// DRAM sectors (32 B) the device can deliver per core cycle in
    /// aggregate. This is the quantity both performance models divide by.
    pub fn dram_sectors_per_cycle(&self) -> f64 {
        self.dram_bandwidth_gbps * 1e9 / 32.0 / self.core_clock_hz()
    }

    /// Peak warp-instructions per cycle for the whole device, assuming pure
    /// FP32 work.
    pub fn peak_warp_ipc(&self) -> f64 {
        let per_sm = self.fp32_lanes_per_sm as f64 / self.warp_size as f64;
        per_sm.min(self.issue_width as f64) * self.num_sms as f64
    }
}

/// Builder for [`GpuConfig`] (starts from V100 defaults).
#[derive(Debug, Clone)]
pub struct GpuConfigBuilder {
    config: GpuConfig,
}

impl GpuConfigBuilder {
    /// Sets the SM count.
    pub fn num_sms(mut self, n: u32) -> Self {
        self.config.num_sms = n;
        self
    }

    /// Sets the GPU generation (affects the ISA scale factor).
    pub fn generation(mut self, generation: GpuGeneration) -> Self {
        self.config.generation = generation;
        self
    }

    /// Sets the core clock in MHz.
    pub fn core_clock_mhz(mut self, mhz: f64) -> Self {
        self.config.core_clock_mhz = mhz;
        self
    }

    /// Sets the maximum resident warps per SM.
    pub fn max_warps_per_sm(mut self, n: u32) -> Self {
        self.config.max_warps_per_sm = n;
        self
    }

    /// Sets the maximum resident blocks per SM.
    pub fn max_blocks_per_sm(mut self, n: u32) -> Self {
        self.config.max_blocks_per_sm = n;
        self
    }

    /// Sets the register file size per SM.
    pub fn registers_per_sm(mut self, n: u32) -> Self {
        self.config.registers_per_sm = n;
        self
    }

    /// Sets the shared memory per SM in bytes.
    pub fn shared_mem_per_sm(mut self, bytes: u32) -> Self {
        self.config.shared_mem_per_sm = bytes;
        self
    }

    /// Sets the L2 size in bytes.
    pub fn l2_bytes(mut self, bytes: u64) -> Self {
        self.config.l2_bytes = bytes;
        self
    }

    /// Sets peak DRAM bandwidth in GB/s.
    pub fn dram_bandwidth_gbps(mut self, gbps: f64) -> Self {
        self.config.dram_bandwidth_gbps = gbps;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidConfig`] if any structural parameter is
    /// zero or the clock is not positive.
    pub fn build(self) -> Result<GpuConfig, GpuError> {
        let c = &self.config;
        let positive: [(&'static str, u64); 6] = [
            ("num_sms", c.num_sms as u64),
            ("warp_size", c.warp_size as u64),
            ("max_warps_per_sm", c.max_warps_per_sm as u64),
            ("max_blocks_per_sm", c.max_blocks_per_sm as u64),
            ("l2_bytes", c.l2_bytes),
            ("dram_channels", c.dram_channels as u64),
        ];
        for (field, v) in positive {
            if v == 0 {
                return Err(GpuError::InvalidConfig {
                    field,
                    message: "must be positive".into(),
                });
            }
        }
        if c.core_clock_mhz.is_nan() || c.core_clock_mhz <= 0.0 {
            return Err(GpuError::InvalidConfig {
                field: "core_clock_mhz",
                message: "must be positive".into(),
            });
        }
        if c.dram_bandwidth_gbps.is_nan() || c.dram_bandwidth_gbps <= 0.0 {
            return Err(GpuError::InvalidConfig {
                field: "dram_bandwidth_gbps",
                message: "must be positive".into(),
            });
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid_and_distinct() {
        let v = GpuConfig::v100();
        let t = GpuConfig::rtx2060();
        let a = GpuConfig::rtx3070();
        assert_eq!(v.generation(), GpuGeneration::Volta);
        assert_eq!(t.generation(), GpuGeneration::Turing);
        assert_eq!(a.generation(), GpuGeneration::Ampere);
        assert!(v.dram_bandwidth_gbps() > a.dram_bandwidth_gbps());
        assert!(a.dram_bandwidth_gbps() > t.dram_bandwidth_gbps());
        assert!(v.num_sms() > a.num_sms());
    }

    #[test]
    fn half_sm_config_only_changes_sms() {
        let full = GpuConfig::v100();
        let half = GpuConfig::v100_half_sms();
        assert_eq!(half.num_sms(), full.num_sms() / 2);
        assert_eq!(half.l2_bytes(), full.l2_bytes());
        assert_eq!(half.dram_bandwidth_gbps(), full.dram_bandwidth_gbps());
    }

    #[test]
    fn builder_rejects_zero_sms() {
        let err = GpuConfig::builder("bad").num_sms(0).build().unwrap_err();
        assert!(matches!(
            err,
            GpuError::InvalidConfig {
                field: "num_sms",
                ..
            }
        ));
    }

    #[test]
    fn builder_rejects_nonpositive_clock() {
        assert!(GpuConfig::builder("bad")
            .core_clock_mhz(0.0)
            .build()
            .is_err());
        assert!(GpuConfig::builder("bad")
            .core_clock_mhz(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn isa_scale_ordering() {
        assert_eq!(GpuGeneration::Volta.isa_scale(), 1.0);
        assert!(GpuGeneration::Turing.isa_scale() > 1.0);
        assert!(GpuGeneration::Ampere.isa_scale() < 1.0);
    }

    #[test]
    fn derived_rates_are_sane() {
        let v = GpuConfig::v100();
        // 900 GB/s at ~1.455 GHz is about 19 sectors per cycle.
        let s = v.dram_sectors_per_cycle();
        assert!(s > 15.0 && s < 25.0, "{s}");
        // 64 FP32 lanes = 2 warp instructions per cycle per SM, 80 SMs.
        assert_eq!(v.peak_warp_ipc(), 160.0);
    }

    #[test]
    fn display_generation() {
        assert_eq!(GpuGeneration::Volta.to_string(), "Volta");
    }
}
