use pka_stats::hash::{fnv1a, UnitStream};
use serde::{Deserialize, Serialize};

use crate::{GpuConfig, GpuError, InstClass, KernelDescriptor, Occupancy};

/// Per-class warp-instruction throughput of one SM, in warp instructions per
/// cycle. Shared by the silicon model and the cycle-level simulator (in
/// `pka-sim`) so both agree on the *meaning* of a descriptor; their accuracy
/// gap comes from structural effects (queueing, caches, scheduling), not
/// from different instruction semantics.
pub fn warp_throughput(config: &GpuConfig, class: InstClass) -> f64 {
    let lanes = config.fp32_lanes_per_sm() as f64 / config.warp_size() as f64;
    match class {
        InstClass::Fp32 | InstClass::Int => lanes,
        InstClass::Fp64 => match config.generation() {
            crate::GpuGeneration::Volta => lanes / 2.0,
            _ => lanes / 16.0,
        },
        InstClass::Sfu => config.sfu_units_per_sm() as f64 / 8.0,
        InstClass::Tensor => config.tensor_units_per_sm() as f64 / 4.0,
        InstClass::LdGlobal
        | InstClass::StGlobal
        | InstClass::LdLocal
        | InstClass::StLocal
        | InstClass::AtomicGlobal
        | InstClass::LdShared
        | InstClass::StShared => config.ldst_units_per_sm() as f64 / 4.0,
        InstClass::Branch | InstClass::Sync => config.issue_width() as f64,
    }
}

/// Typical result latency of one instruction class in core cycles, assuming
/// the access hits at the given level (memory classes use the cache model's
/// outcome instead of the L1 figure here).
pub fn base_latency(config: &GpuConfig, class: InstClass) -> u32 {
    match class {
        InstClass::Fp32 | InstClass::Int => 4,
        InstClass::Fp64 => match config.generation() {
            crate::GpuGeneration::Volta => 8,
            _ => 32,
        },
        InstClass::Sfu => 20,
        InstClass::Tensor => 16,
        InstClass::LdGlobal | InstClass::LdLocal => config.l1_latency_cycles(),
        InstClass::StGlobal | InstClass::StLocal => 8,
        InstClass::AtomicGlobal => config.l2_latency_cycles(),
        InstClass::LdShared | InstClass::StShared => 24,
        InstClass::Branch => 2,
        InstClass::Sync => 6,
    }
}

/// What real silicon reports for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SiliconResult {
    /// Kernel duration in core cycles (includes launch overhead).
    pub cycles: u64,
    /// Kernel duration in seconds at the configured clock.
    pub seconds: f64,
    /// Average warp instructions retired per cycle, device-wide.
    pub warp_ipc: f64,
    /// DRAM bandwidth utilisation, percent.
    pub dram_util_pct: f64,
    /// L2 miss rate, percent of L2 accesses.
    pub l2_miss_rate_pct: f64,
    /// L1 hit rate, percent of L1 accesses.
    pub l1_hit_rate_pct: f64,
}

/// An analytical performance model standing in for real GPU silicon.
///
/// Given a [`KernelDescriptor`] it computes execution cycles from roofline-
/// style throughput limits (compute pipes, L2 bandwidth, DRAM bandwidth),
/// a latency floor for under-occupied launches, a wave-quantisation tail
/// penalty, and a small deterministic per-kernel perturbation — i.e. the
/// ingredients that make real silicon disagree with any simulator. The
/// cycle-level simulator in `pka-sim` models the same kernels structurally,
/// and the gap between the two reproduces the paper's "SimError" column.
///
/// Results are deterministic: the perturbation is seeded from the kernel
/// seed and the configuration name.
///
/// # Examples
///
/// ```
/// use pka_gpu::{GpuConfig, KernelDescriptor, SiliconExecutor};
///
/// let silicon = SiliconExecutor::new(GpuConfig::v100());
/// let k = KernelDescriptor::builder("k")
///     .grid_blocks(640)
///     .block_threads(256)
///     .fp32_per_thread(100)
///     .build()?;
/// let r = silicon.execute(&k)?;
/// assert!(r.seconds > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct SiliconExecutor {
    config: GpuConfig,
    /// Fixed kernel-launch overhead in cycles (driver + dispatch).
    launch_overhead_cycles: u64,
}

impl SiliconExecutor {
    /// Creates an executor for `config`.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            launch_overhead_cycles: 2_500,
        }
    }

    /// The architecture this executor models.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Runs one kernel and reports what a profiler would measure.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidKernel`] if the kernel cannot be launched
    /// on this configuration (occupancy of zero blocks per SM).
    pub fn execute(&self, kernel: &KernelDescriptor) -> Result<SiliconResult, GpuError> {
        let config = &self.config;
        let occ = Occupancy::compute(kernel, config)?;
        let isa = config.generation().isa_scale();

        let sms_used = config.num_sms().min(kernel.total_blocks() as u32).max(1) as f64;
        let total_warps = kernel.total_warps() as f64;

        // --- Compute roofline: busiest pipe across the used SMs. ---
        let mut issue_insts = 0.0f64;
        let mut pipe_cycles = 0.0f64;
        for class in InstClass::ALL {
            let insts = kernel.count(class) as f64 * total_warps * isa;
            issue_insts += insts;
            let rate = warp_throughput(config, class) * sms_used;
            pipe_cycles = pipe_cycles.max(insts / rate);
        }
        let issue_cycles = issue_insts / (config.issue_width() as f64 * sms_used);
        // Divergent kernels waste issue slots re-issuing partial warps.
        let divergence_penalty = 1.0 + 0.4 * (1.0 - kernel.divergence_efficiency());
        let compute_cycles = pipe_cycles.max(issue_cycles) * divergence_penalty;

        // --- Memory rooflines. ---
        let (l1_hit, l2_hit) = self.hit_rates(kernel, sms_used);
        let sectors = kernel.total_global_sectors() * isa;
        let l2_sectors = sectors * (1.0 - l1_hit);
        let dram_sectors = l2_sectors * (1.0 - l2_hit);
        // L2 serves roughly one sector per slice per cycle.
        let l2_rate = config.dram_channels() as f64;
        let l2_cycles = l2_sectors / l2_rate;
        let dram_cycles = dram_sectors / config.dram_sectors_per_cycle();

        // --- Latency floor: waves of blocks can't beat their critical path. ---
        let ipt = kernel.instructions_per_thread() as f64 * isa;
        let mem_per_thread = kernel.global_accesses_per_thread() as f64 * isa;
        let miss_latency = config.l1_latency_cycles() as f64
            + (1.0 - l1_hit)
                * (config.l2_latency_cycles() as f64
                    + (1.0 - l2_hit) * config.dram_latency_cycles() as f64);
        // A block's critical path: issue its instructions, and pay roughly
        // one exposed miss latency per barrier segment (the slowest warp's
        // outstanding load gates every barrier) when the kernel touches
        // global memory, plus a residual dependence term for barrier-free
        // kernels (a quarter of misses on the chain at MLP 4).
        let barriers = kernel.count(InstClass::Sync) as f64 * isa;
        let mem_factor = (mem_per_thread / 8.0).min(1.0);
        let barrier_stalls = (barriers + 1.0) * miss_latency * mem_factor;
        let chain_stalls = mem_per_thread * miss_latency * 0.25 / 4.0;
        let block_critical_path = 40.0 + ipt * 1.15 + barrier_stalls.max(chain_stalls);
        let latency_cycles = occ.waves() as f64 * block_critical_path;

        // --- Combine. ---
        // Wave quantisation penalises SM-bound (compute) work: a partial
        // last wave underutilises the cores. Bandwidth-bound work drains the
        // memory system at full rate regardless of wave alignment, so the
        // tail multiplier applies to the compute component only.
        let frac_waves = kernel.total_blocks() as f64 / occ.wave_blocks() as f64;
        let tail = if frac_waves >= 1.0 {
            occ.waves() as f64 / frac_waves
        } else {
            1.0
        };
        let throughput_cycles = (compute_cycles * tail).max(l2_cycles).max(dram_cycles);
        let mut cycles = throughput_cycles;
        cycles = cycles.max(latency_cycles);

        // Deterministic silicon jitter (clock boost, DVFS, row-buffer luck).
        let mut jitter = UnitStream::new(kernel.seed() ^ fnv1a(config.name().as_bytes()));
        cycles *= 1.0 + 0.04 * (jitter.next_f64() - 0.5);

        let cycles = cycles.max(1.0) as u64 + self.launch_overhead_cycles;
        let seconds = cycles as f64 / config.core_clock_hz();
        let dram_util = (dram_cycles / cycles as f64 * 100.0).min(99.0);
        Ok(SiliconResult {
            cycles,
            seconds,
            warp_ipc: issue_insts / cycles as f64,
            dram_util_pct: dram_util,
            l2_miss_rate_pct: (1.0 - l2_hit) * 100.0,
            l1_hit_rate_pct: l1_hit * 100.0,
        })
    }

    /// Capacity-adjusted L1 and L2 hit rates for a kernel.
    fn hit_rates(&self, kernel: &KernelDescriptor, sms_used: f64) -> (f64, f64) {
        let ws = kernel.working_set_bytes().max(1) as f64;
        let l1_capacity = self.config.l1_bytes() as f64 * sms_used;
        let l2_capacity = self.config.l2_bytes() as f64;
        let l1_fit = (l1_capacity / ws).min(1.0).sqrt();
        let l2_fit = (l2_capacity / ws).min(1.0).sqrt();
        (kernel.l1_locality() * l1_fit, kernel.l2_locality() * l2_fit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute_kernel(blocks: u32) -> KernelDescriptor {
        KernelDescriptor::builder("compute")
            .grid_blocks(blocks)
            .block_threads(256)
            .fp32_per_thread(2000)
            .global_loads_per_thread(2)
            .build()
            .unwrap()
    }

    fn memory_kernel(blocks: u32) -> KernelDescriptor {
        KernelDescriptor::builder("memory")
            .grid_blocks(blocks)
            .block_threads(256)
            .fp32_per_thread(4)
            .global_loads_per_thread(64)
            .global_stores_per_thread(32)
            .coalescing_sectors(16.0)
            .l1_locality(0.05)
            .l2_locality(0.1)
            .working_set_bytes(1 << 30)
            .build()
            .unwrap()
    }

    #[test]
    fn deterministic() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        let k = compute_kernel(640);
        assert_eq!(s.execute(&k).unwrap(), s.execute(&k).unwrap());
    }

    #[test]
    fn more_work_takes_longer() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        let small = s.execute(&compute_kernel(80)).unwrap();
        let big = s.execute(&compute_kernel(8000)).unwrap();
        assert!(big.cycles > 10 * small.cycles);
    }

    #[test]
    fn memory_kernel_saturates_dram() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        let r = s.execute(&memory_kernel(2000)).unwrap();
        assert!(r.dram_util_pct > 50.0, "{}", r.dram_util_pct);
        let c = s.execute(&compute_kernel(2000)).unwrap();
        assert!(c.dram_util_pct < 20.0, "{}", c.dram_util_pct);
    }

    #[test]
    fn faster_memory_system_helps_memory_kernels_more() {
        let v100 = SiliconExecutor::new(GpuConfig::v100());
        let t2060 = SiliconExecutor::new(GpuConfig::rtx2060());
        let mem_ratio = t2060.execute(&memory_kernel(2000)).unwrap().seconds
            / v100.execute(&memory_kernel(2000)).unwrap().seconds;
        let cmp_ratio = t2060.execute(&compute_kernel(2000)).unwrap().seconds
            / v100.execute(&compute_kernel(2000)).unwrap().seconds;
        assert!(mem_ratio > cmp_ratio);
        assert!(mem_ratio > 1.5, "900 vs 336 GB/s should show: {mem_ratio}");
    }

    #[test]
    fn halving_sms_hurts_compute_bound_kernels() {
        let full = SiliconExecutor::new(GpuConfig::v100());
        let half = SiliconExecutor::new(GpuConfig::v100_half_sms());
        let k = compute_kernel(8000);
        let ratio =
            half.execute(&k).unwrap().cycles as f64 / full.execute(&k).unwrap().cycles as f64;
        assert!(ratio > 1.7 && ratio < 2.3, "{ratio}");
        // Memory-bound work cares much less.
        let m = memory_kernel(8000);
        let mratio =
            half.execute(&m).unwrap().cycles as f64 / full.execute(&m).unwrap().cycles as f64;
        assert!(mratio < ratio);
    }

    #[test]
    fn single_block_is_latency_bound() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        let one = KernelDescriptor::builder("tiny")
            .grid_blocks(1)
            .block_threads(32)
            .fp32_per_thread(100)
            .build()
            .unwrap();
        let r = s.execute(&one).unwrap();
        // Must cost at least the critical path plus launch overhead, and the
        // device-wide IPC must be far below peak.
        assert!(r.cycles > 2_500);
        assert!(r.warp_ipc < 1.0);
    }

    #[test]
    fn ipc_below_peak() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        for k in [compute_kernel(640), memory_kernel(640)] {
            let r = s.execute(&k).unwrap();
            assert!(r.warp_ipc <= s.config().peak_warp_ipc() * 1.01);
        }
    }

    #[test]
    fn seconds_track_cycles_and_clock() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        let r = s.execute(&compute_kernel(640)).unwrap();
        let expected = r.cycles as f64 / (1455.0 * 1e6);
        assert!((r.seconds - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn different_seeds_jitter_slightly() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        let a = compute_kernel(640);
        let b = KernelDescriptor::builder("compute")
            .grid_blocks(640)
            .block_threads(256)
            .fp32_per_thread(2000)
            .global_loads_per_thread(2)
            .seed(99)
            .build()
            .unwrap();
        let ra = s.execute(&a).unwrap();
        let rb = s.execute(&b).unwrap();
        assert_ne!(ra.cycles, rb.cycles);
        let rel = (ra.cycles as f64 - rb.cycles as f64).abs() / ra.cycles as f64;
        assert!(rel < 0.05, "jitter should be small: {rel}");
    }

    #[test]
    fn tensor_kernels_fly_on_tensor_cores() {
        let s = SiliconExecutor::new(GpuConfig::v100());
        let wmma = KernelDescriptor::builder("wmma")
            .grid_blocks(640)
            .block_threads(256)
            .tensor_per_thread(500)
            .shared_loads_per_thread(32)
            .build()
            .unwrap();
        let sgemm = KernelDescriptor::builder("sgemm")
            .grid_blocks(640)
            .block_threads(256)
            .fp32_per_thread(4000) // ~8x the math throughput demand
            .shared_loads_per_thread(32)
            .build()
            .unwrap();
        let rw = s.execute(&wmma).unwrap();
        let rs = s.execute(&sgemm).unwrap();
        assert!(rw.cycles < rs.cycles);
    }
}
