use serde::{Deserialize, Serialize};

use crate::GpuError;

/// Identifier of one kernel launch within a workload, in chronological
/// launch order starting at 0 (the numbering Table 3 of the paper uses).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct KernelId(u64);

impl KernelId {
    /// Wraps a raw launch index.
    pub fn new(index: u64) -> Self {
        Self(index)
    }

    /// The raw launch index.
    pub fn index(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for KernelId {
    fn from(index: u64) -> Self {
        Self(index)
    }
}

/// A CUDA-style 3-component dimension.
///
/// # Examples
///
/// ```
/// use pka_gpu::Dim3;
///
/// assert_eq!(Dim3::new(4, 2, 1).count(), 8);
/// assert_eq!(Dim3::linear(64).count(), 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dim3 {
    /// Extent along x.
    pub x: u32,
    /// Extent along y.
    pub y: u32,
    /// Extent along z.
    pub z: u32,
}

impl Dim3 {
    /// A 3-D dimension.
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        Self { x, y, z }
    }

    /// A 1-D dimension `(x, 1, 1)`.
    pub fn linear(x: u32) -> Self {
        Self { x, y: 1, z: 1 }
    }

    /// Total element count (`x * y * z`).
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Self::linear(1)
    }
}

/// Dynamic instruction classes distinguished by the performance models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstClass {
    /// Single-precision arithmetic.
    Fp32,
    /// Double-precision arithmetic.
    Fp64,
    /// Integer / address arithmetic.
    Int,
    /// Special-function (transcendental) operations.
    Sfu,
    /// Tensor-core matrix-multiply-accumulate.
    Tensor,
    /// Global-memory load.
    LdGlobal,
    /// Global-memory store.
    StGlobal,
    /// Local-memory load (register spill traffic).
    LdLocal,
    /// Local-memory store.
    StLocal,
    /// Shared-memory load.
    LdShared,
    /// Shared-memory store.
    StShared,
    /// Global atomic operation.
    AtomicGlobal,
    /// Branch instruction.
    Branch,
    /// Block-wide barrier.
    Sync,
}

impl InstClass {
    /// All classes, in a stable order.
    pub const ALL: [InstClass; 14] = [
        InstClass::Fp32,
        InstClass::Fp64,
        InstClass::Int,
        InstClass::Sfu,
        InstClass::Tensor,
        InstClass::LdGlobal,
        InstClass::StGlobal,
        InstClass::LdLocal,
        InstClass::StLocal,
        InstClass::LdShared,
        InstClass::StShared,
        InstClass::AtomicGlobal,
        InstClass::Branch,
        InstClass::Sync,
    ];

    /// Stable dense index of this class (its position in [`InstClass::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Returns `true` for classes that access global memory (and therefore
    /// the L1/L2/DRAM hierarchy).
    pub fn is_global_memory(self) -> bool {
        matches!(
            self,
            InstClass::LdGlobal
                | InstClass::StGlobal
                | InstClass::LdLocal
                | InstClass::StLocal
                | InstClass::AtomicGlobal
        )
    }
}

/// One behavioural phase of a kernel.
///
/// Regular kernels have a single phase; irregular kernels (the paper's BFS
/// example, Figure 5b) shift between phases with different memory and
/// compute intensity, producing the wandering-then-stabilising IPC curves
/// PKP must cope with.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KernelPhase {
    /// Fraction of the kernel's dynamic instructions spent in this phase.
    pub fraction: f64,
    /// Multiplier on memory intensity during the phase.
    pub mem_scale: f64,
    /// Multiplier on compute throughput during the phase.
    pub compute_scale: f64,
}

impl Default for KernelPhase {
    fn default() -> Self {
        Self {
            fraction: 1.0,
            mem_scale: 1.0,
            compute_scale: 1.0,
        }
    }
}

/// A declarative description of one kernel launch.
///
/// This is the unit both performance models consume: the silicon executor
/// turns it into cycles analytically, the cycle-level simulator expands it
/// into per-warp instruction traces. Workload generators stamp out millions
/// of these (lazily) to reproduce the launch streams of the 147 workloads.
///
/// Construct via [`KernelDescriptor::builder`].
///
/// # Examples
///
/// ```
/// use pka_gpu::KernelDescriptor;
///
/// let k = KernelDescriptor::builder("vecadd")
///     .grid_blocks(256)
///     .block_threads(128)
///     .fp32_per_thread(8)
///     .global_loads_per_thread(2)
///     .global_stores_per_thread(1)
///     .build()?;
/// assert_eq!(k.total_threads(), 256 * 128);
/// assert_eq!(k.warps_per_block(), 4);
/// # Ok::<(), pka_gpu::GpuError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDescriptor {
    name: String,
    grid: Dim3,
    block: Dim3,
    regs_per_thread: u32,
    shared_mem_per_block: u32,

    // Per-thread dynamic instruction counts.
    fp32: u32,
    fp64: u32,
    int_ops: u32,
    sfu: u32,
    tensor: u32,
    global_loads: u32,
    global_stores: u32,
    local_loads: u32,
    local_stores: u32,
    shared_loads: u32,
    shared_stores: u32,
    global_atomics: u32,
    branches: u32,
    syncs: u32,

    // Memory behaviour.
    /// Average 32-byte sectors touched per warp-level global access
    /// (4 = perfectly coalesced 128 B, 32 = fully diverged).
    coalescing_sectors: f64,
    working_set_bytes: u64,
    /// Propensity of L1 hits given infinite capacity, in `[0, 1]`.
    l1_locality: f64,
    /// Propensity of L2 hits given infinite capacity, in `[0, 1]`.
    l2_locality: f64,
    /// Average active threads per warp divided by the warp size, `(0, 1]`.
    divergence_efficiency: f64,

    phases: Vec<KernelPhase>,
    seed: u64,
}

impl KernelDescriptor {
    /// Starts building a kernel named `name`.
    pub fn builder(name: impl Into<String>) -> KernelDescriptorBuilder {
        KernelDescriptorBuilder {
            descriptor: KernelDescriptor {
                name: name.into(),
                grid: Dim3::linear(1),
                block: Dim3::linear(128),
                regs_per_thread: 32,
                shared_mem_per_block: 0,
                fp32: 0,
                fp64: 0,
                int_ops: 8,
                sfu: 0,
                tensor: 0,
                global_loads: 0,
                global_stores: 0,
                local_loads: 0,
                local_stores: 0,
                shared_loads: 0,
                shared_stores: 0,
                global_atomics: 0,
                branches: 2,
                syncs: 0,
                coalescing_sectors: 4.0,
                working_set_bytes: 1 << 20,
                l1_locality: 0.5,
                l2_locality: 0.6,
                divergence_efficiency: 1.0,
                phases: vec![KernelPhase::default()],
                seed: 0,
            },
        }
    }

    /// Kernel name (not used by any clustering — PKS is name-independent).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Grid dimensions (blocks).
    pub fn grid(&self) -> Dim3 {
        self.grid
    }

    /// Block dimensions (threads).
    pub fn block(&self) -> Dim3 {
        self.block
    }

    /// Registers per thread.
    pub fn regs_per_thread(&self) -> u32 {
        self.regs_per_thread
    }

    /// Static + dynamic shared memory per block, bytes.
    pub fn shared_mem_per_block(&self) -> u32 {
        self.shared_mem_per_block
    }

    /// Total thread blocks in the grid.
    pub fn total_blocks(&self) -> u64 {
        self.grid.count()
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    /// Warps per block (warp size 32).
    pub fn warps_per_block(&self) -> u32 {
        self.threads_per_block().div_ceil(32)
    }

    /// Total threads in the grid.
    pub fn total_threads(&self) -> u64 {
        self.total_blocks() * self.threads_per_block() as u64
    }

    /// Total warps in the grid.
    pub fn total_warps(&self) -> u64 {
        self.total_blocks() * self.warps_per_block() as u64
    }

    /// Per-thread dynamic instruction count of one class.
    pub fn count(&self, class: InstClass) -> u32 {
        match class {
            InstClass::Fp32 => self.fp32,
            InstClass::Fp64 => self.fp64,
            InstClass::Int => self.int_ops,
            InstClass::Sfu => self.sfu,
            InstClass::Tensor => self.tensor,
            InstClass::LdGlobal => self.global_loads,
            InstClass::StGlobal => self.global_stores,
            InstClass::LdLocal => self.local_loads,
            InstClass::StLocal => self.local_stores,
            InstClass::LdShared => self.shared_loads,
            InstClass::StShared => self.shared_stores,
            InstClass::AtomicGlobal => self.global_atomics,
            InstClass::Branch => self.branches,
            InstClass::Sync => self.syncs,
        }
    }

    /// Total per-thread dynamic instructions across all classes.
    pub fn instructions_per_thread(&self) -> u64 {
        InstClass::ALL.iter().map(|&c| self.count(c) as u64).sum()
    }

    /// Total dynamic warp instructions in the grid.
    pub fn total_warp_instructions(&self) -> u64 {
        self.instructions_per_thread() * self.total_warps()
    }

    /// Per-thread global-memory instructions (loads, stores, locals,
    /// atomics).
    pub fn global_accesses_per_thread(&self) -> u64 {
        (self.global_loads
            + self.global_stores
            + self.local_loads
            + self.local_stores
            + self.global_atomics) as u64
    }

    /// Average 32-byte sectors per warp-level global access.
    pub fn coalescing_sectors(&self) -> f64 {
        self.coalescing_sectors
    }

    /// Estimated working-set size, bytes.
    pub fn working_set_bytes(&self) -> u64 {
        self.working_set_bytes
    }

    /// L1 hit propensity in `[0, 1]` (before capacity effects).
    pub fn l1_locality(&self) -> f64 {
        self.l1_locality
    }

    /// L2 hit propensity in `[0, 1]` (before capacity effects).
    pub fn l2_locality(&self) -> f64 {
        self.l2_locality
    }

    /// Average active-thread fraction per warp, `(0, 1]`.
    pub fn divergence_efficiency(&self) -> f64 {
        self.divergence_efficiency
    }

    /// Behavioural phases (at least one; fractions sum to 1).
    pub fn phases(&self) -> &[KernelPhase] {
        &self.phases
    }

    /// Deterministic seed for address streams and model noise.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Total 32-byte sectors of global traffic the grid generates (before
    /// any cache filtering).
    pub fn total_global_sectors(&self) -> f64 {
        self.global_accesses_per_thread() as f64
            * self.total_warps() as f64
            * self.coalescing_sectors
    }
}

/// Builder for [`KernelDescriptor`]. Cloneable so workload generators can
/// stamp out families of similar launches from one template.
#[derive(Debug, Clone)]
pub struct KernelDescriptorBuilder {
    descriptor: KernelDescriptor,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident, $field:ident, u32) => {
        $(#[$doc])*
        pub fn $name(mut self, value: u32) -> Self {
            self.descriptor.$field = value;
            self
        }
    };
    ($(#[$doc:meta])* $name:ident, $field:ident, f64) => {
        $(#[$doc])*
        pub fn $name(mut self, value: f64) -> Self {
            self.descriptor.$field = value;
            self
        }
    };
}

impl KernelDescriptorBuilder {
    /// Sets a 1-D grid of `blocks` thread blocks.
    pub fn grid_blocks(mut self, blocks: u32) -> Self {
        self.descriptor.grid = Dim3::linear(blocks);
        self
    }

    /// Sets the full 3-D grid dimensions.
    pub fn grid(mut self, grid: Dim3) -> Self {
        self.descriptor.grid = grid;
        self
    }

    /// Sets a 1-D block of `threads` threads.
    pub fn block_threads(mut self, threads: u32) -> Self {
        self.descriptor.block = Dim3::linear(threads);
        self
    }

    /// Sets the full 3-D block dimensions.
    pub fn block(mut self, block: Dim3) -> Self {
        self.descriptor.block = block;
        self
    }

    /// Renames the kernel (useful when stamping variants from a template).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.descriptor.name = name.into();
        self
    }

    setter!(
        /// Registers per thread (occupancy limiter).
        regs_per_thread, regs_per_thread, u32);
    setter!(
        /// Shared memory per block in bytes (occupancy limiter).
        shared_mem_per_block, shared_mem_per_block, u32);
    setter!(
        /// FP32 instructions per thread.
        fp32_per_thread, fp32, u32);
    setter!(
        /// FP64 instructions per thread.
        fp64_per_thread, fp64, u32);
    setter!(
        /// Integer instructions per thread.
        int_per_thread, int_ops, u32);
    setter!(
        /// SFU instructions per thread.
        sfu_per_thread, sfu, u32);
    setter!(
        /// Tensor-core MMA instructions per thread.
        tensor_per_thread, tensor, u32);
    setter!(
        /// Global loads per thread.
        global_loads_per_thread, global_loads, u32);
    setter!(
        /// Global stores per thread.
        global_stores_per_thread, global_stores, u32);
    setter!(
        /// Local (spill) loads per thread.
        local_loads_per_thread, local_loads, u32);
    setter!(
        /// Local (spill) stores per thread.
        local_stores_per_thread, local_stores, u32);
    setter!(
        /// Shared-memory loads per thread.
        shared_loads_per_thread, shared_loads, u32);
    setter!(
        /// Shared-memory stores per thread.
        shared_stores_per_thread, shared_stores, u32);
    setter!(
        /// Global atomics per thread.
        global_atomics_per_thread, global_atomics, u32);
    setter!(
        /// Branches per thread.
        branches_per_thread, branches, u32);
    setter!(
        /// Barriers per thread.
        syncs_per_thread, syncs, u32);
    setter!(
        /// Average 32 B sectors per warp global access (4 = coalesced,
        /// 32 = diverged).
        coalescing_sectors, coalescing_sectors, f64);
    setter!(
        /// L1 hit propensity in `[0, 1]`.
        l1_locality, l1_locality, f64);
    setter!(
        /// L2 hit propensity in `[0, 1]`.
        l2_locality, l2_locality, f64);
    setter!(
        /// Average active-thread fraction per warp in `(0, 1]`.
        divergence_efficiency, divergence_efficiency, f64);

    /// Sets the working-set size in bytes.
    pub fn working_set_bytes(mut self, bytes: u64) -> Self {
        self.descriptor.working_set_bytes = bytes;
        self
    }

    /// Sets the deterministic model seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.descriptor.seed = seed;
        self
    }

    /// Replaces the phase list. Fractions are normalised at build time.
    pub fn phases(mut self, phases: Vec<KernelPhase>) -> Self {
        self.descriptor.phases = phases;
        self
    }

    /// Validates and returns the descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`GpuError::InvalidKernel`] if the grid or block is empty,
    /// the block exceeds 1024 threads, ratios are outside their ranges, the
    /// phase list is empty, or the kernel executes no instructions.
    pub fn build(mut self) -> Result<KernelDescriptor, GpuError> {
        let d = &mut self.descriptor;
        if d.grid.count() == 0 {
            return Err(GpuError::InvalidKernel {
                field: "grid",
                message: "grid must contain at least one block".into(),
            });
        }
        let tpb = d.block.count();
        if tpb == 0 || tpb > 1024 {
            return Err(GpuError::InvalidKernel {
                field: "block",
                message: format!("threads per block must be in 1..=1024, got {tpb}"),
            });
        }
        if !(1.0..=32.0).contains(&d.coalescing_sectors) {
            return Err(GpuError::InvalidKernel {
                field: "coalescing_sectors",
                message: "must be in [1, 32]".into(),
            });
        }
        for (field, v) in [
            ("l1_locality", d.l1_locality),
            ("l2_locality", d.l2_locality),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(GpuError::InvalidKernel {
                    field,
                    message: "must be in [0, 1]".into(),
                });
            }
        }
        if d.divergence_efficiency.is_nan()
            || d.divergence_efficiency <= 0.0
            || d.divergence_efficiency > 1.0
        {
            return Err(GpuError::InvalidKernel {
                field: "divergence_efficiency",
                message: "must be in (0, 1]".into(),
            });
        }
        if d.phases.is_empty() {
            return Err(GpuError::InvalidKernel {
                field: "phases",
                message: "at least one phase is required".into(),
            });
        }
        let total: f64 = d.phases.iter().map(|p| p.fraction).sum();
        if total.is_nan() || total <= 0.0 {
            return Err(GpuError::InvalidKernel {
                field: "phases",
                message: "phase fractions must sum to a positive value".into(),
            });
        }
        for p in &mut d.phases {
            p.fraction /= total;
        }
        if d.instructions_per_thread() == 0 {
            return Err(GpuError::InvalidKernel {
                field: "instructions",
                message: "kernel executes no instructions".into(),
            });
        }
        Ok(self.descriptor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> KernelDescriptorBuilder {
        KernelDescriptor::builder("k")
            .grid_blocks(4)
            .block_threads(64)
            .fp32_per_thread(10)
            .global_loads_per_thread(2)
    }

    #[test]
    fn geometry_derivations() {
        let k = simple().build().unwrap();
        assert_eq!(k.total_blocks(), 4);
        assert_eq!(k.threads_per_block(), 64);
        assert_eq!(k.warps_per_block(), 2);
        assert_eq!(k.total_threads(), 256);
        assert_eq!(k.total_warps(), 8);
    }

    #[test]
    fn ragged_block_rounds_warps_up() {
        let k = simple().block_threads(33).build().unwrap();
        assert_eq!(k.warps_per_block(), 2);
    }

    #[test]
    fn instruction_accounting() {
        let k = simple().build().unwrap();
        // fp32=10, int=8 (default), branches=2 (default), ld=2.
        assert_eq!(k.instructions_per_thread(), 22);
        assert_eq!(k.total_warp_instructions(), 22 * 8);
        assert_eq!(k.global_accesses_per_thread(), 2);
    }

    #[test]
    fn total_sectors_scales_with_coalescing() {
        let c4 = simple().coalescing_sectors(4.0).build().unwrap();
        let c32 = simple().coalescing_sectors(32.0).build().unwrap();
        assert_eq!(c32.total_global_sectors(), 8.0 * c4.total_global_sectors());
    }

    #[test]
    fn rejects_empty_grid_and_block() {
        assert!(simple().grid(Dim3::new(0, 1, 1)).build().is_err());
        assert!(simple().block_threads(0).build().is_err());
        assert!(simple().block_threads(2048).build().is_err());
    }

    #[test]
    fn rejects_out_of_range_ratios() {
        assert!(simple().coalescing_sectors(0.5).build().is_err());
        assert!(simple().coalescing_sectors(33.0).build().is_err());
        assert!(simple().l1_locality(1.5).build().is_err());
        assert!(simple().l2_locality(-0.1).build().is_err());
        assert!(simple().divergence_efficiency(0.0).build().is_err());
    }

    #[test]
    fn rejects_instructionless_kernel() {
        let err = KernelDescriptor::builder("empty")
            .int_per_thread(0)
            .branches_per_thread(0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            GpuError::InvalidKernel {
                field: "instructions",
                ..
            }
        ));
    }

    #[test]
    fn phases_normalised() {
        let k = simple()
            .phases(vec![
                KernelPhase {
                    fraction: 2.0,
                    mem_scale: 1.0,
                    compute_scale: 1.0,
                },
                KernelPhase {
                    fraction: 2.0,
                    mem_scale: 3.0,
                    compute_scale: 0.5,
                },
            ])
            .build()
            .unwrap();
        assert_eq!(k.phases().len(), 2);
        assert!((k.phases()[0].fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_phases_rejected() {
        assert!(simple().phases(vec![]).build().is_err());
    }

    #[test]
    fn kernel_id_round_trip() {
        let id = KernelId::new(1439);
        assert_eq!(id.index(), 1439);
        assert_eq!(id.to_string(), "1439");
        assert_eq!(KernelId::from(7u64), KernelId::new(7));
    }

    #[test]
    fn builder_is_cloneable_template() {
        let template = simple();
        let a = template.clone().name("a").build().unwrap();
        let b = template.grid_blocks(8).name("b").build().unwrap();
        assert_eq!(a.total_blocks(), 4);
        assert_eq!(b.total_blocks(), 8);
    }
}
