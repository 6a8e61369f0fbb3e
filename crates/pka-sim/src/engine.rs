use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::error::Error;
use std::fmt;
use std::sync::{Mutex, PoisonError};

use pka_gpu::{
    base_latency, warp_throughput, GpuConfig, GpuError, InstClass, KernelDescriptor, Occupancy,
};
use pka_stats::hash::{mix64, UnitStream};

use crate::cache::SetAssocCache;
use crate::dram::DramModel;
use crate::icnt::Interconnect;
use crate::monitor::{IpcSample, NullMonitor, SampleContext, SimControl, SimMonitor};
use crate::trace::{WarpCursor, WarpProgram};

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The kernel cannot run on the configured GPU.
    Gpu(GpuError),
    /// The cycle safety budget was exhausted before the kernel finished or a
    /// monitor stopped it (almost certainly a configuration mistake).
    CycleBudgetExhausted {
        /// The budget that was exhausted.
        max_cycles: u64,
    },
    /// A [`SimOptions`] setter was given an out-of-range value.
    InvalidOption {
        /// The option that rejected the value.
        option: &'static str,
        /// Why the value was rejected.
        reason: &'static str,
    },
    /// The kernel's working set reaches addresses the simulated caches
    /// cannot tag (see [`SetAssocCache::address_limit`]).
    WorkingSetTooLarge {
        /// The kernel's working set.
        working_set_bytes: u64,
        /// The first address the caches cannot hold.
        address_limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Gpu(e) => write!(f, "gpu error: {e}"),
            SimError::CycleBudgetExhausted { max_cycles } => {
                write!(
                    f,
                    "simulation exceeded the {max_cycles}-cycle safety budget"
                )
            }
            SimError::InvalidOption { option, reason } => {
                write!(f, "invalid simulation option {option}: {reason}")
            }
            SimError::WorkingSetTooLarge {
                working_set_bytes,
                address_limit,
            } => write!(
                f,
                "the kernel's {working_set_bytes}-byte working set reaches past the \
                 simulated caches' {address_limit}-byte address range"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Gpu(e) => Some(e),
            SimError::CycleBudgetExhausted { .. }
            | SimError::InvalidOption { .. }
            | SimError::WorkingSetTooLarge { .. } => None,
        }
    }
}

#[doc(hidden)]
impl From<GpuError> for SimError {
    fn from(e: GpuError) -> Self {
        SimError::Gpu(e)
    }
}

/// Tuning knobs for a simulation run.
///
/// # Examples
///
/// ```
/// use pka_sim::SimOptions;
///
/// let opts = SimOptions::default().with_sample_interval(500)?;
/// assert_eq!(opts.sample_interval(), 500);
/// # Ok::<(), pka_sim::SimError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    sample_interval: u64,
    max_cycles: u64,
    interconnect: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            sample_interval: 200,
            max_cycles: 2_000_000_000,
            interconnect: false,
        }
    }
}

impl SimOptions {
    /// Sets the IPC sampling interval in cycles (also the monitor callback
    /// cadence). The paper's PKP window of 3000 cycles corresponds to 15
    /// samples at the default interval of 200.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidOption`] if `interval` is zero — a zero
    /// interval would make the sampling loop never advance.
    pub fn with_sample_interval(self, interval: u64) -> Result<Self, SimError> {
        if interval == 0 {
            return Err(SimError::InvalidOption {
                option: "sample_interval",
                reason: "must be positive",
            });
        }
        Ok(Self {
            sample_interval: interval,
            ..self
        })
    }

    /// Sets the hard cycle safety budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// The IPC sampling interval in cycles.
    pub fn sample_interval(&self) -> u64 {
        self.sample_interval
    }

    /// The hard cycle safety budget.
    pub fn max_cycles(&self) -> u64 {
        self.max_cycles
    }

    /// Enables the SM-to-L2 interconnect backpressure model (see
    /// [`Interconnect`](crate::Interconnect)). Off by default: the flat L2
    /// latency already folds in the average crossing, and the PKA
    /// experiments use the default.
    pub fn with_interconnect(mut self, enabled: bool) -> Self {
        self.interconnect = enabled;
        self
    }

    /// Whether the interconnect backpressure model is enabled.
    pub fn interconnect(&self) -> bool {
        self.interconnect
    }
}

/// Result of simulating (part of) one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelSimResult {
    /// Cycles simulated (up to the stop point for early stops).
    pub cycles: u64,
    /// Warp instructions retired.
    pub instructions: u64,
    /// Total warp instructions the full kernel would retire.
    pub instructions_total: u64,
    /// Launch-overhead cycles included in `cycles` (constant per kernel;
    /// projections must extrapolate on execution cycles only).
    pub launch_overhead_cycles: u64,
    /// Average device IPC over the simulated region.
    pub warp_ipc: f64,
    /// Sampled instantaneous-IPC series (one entry per sampling interval).
    pub ipc_series: Vec<IpcSample>,
    /// DRAM bandwidth utilisation over the simulated region, percent.
    pub dram_util_pct: f64,
    /// L2 miss rate, percent.
    pub l2_miss_rate_pct: f64,
    /// L1 miss rate, percent.
    pub l1_miss_rate_pct: f64,
    /// Thread blocks fully retired at the stop point.
    pub blocks_completed: u64,
    /// Total thread blocks in the grid.
    pub blocks_total: u64,
    /// Blocks per wave at this kernel's occupancy.
    pub wave_blocks: u64,
    /// `true` if a monitor stopped the kernel before completion.
    pub early_stop: bool,
}

impl KernelSimResult {
    /// Linearly projects total kernel cycles from the completion state, the
    /// way Principal Kernel Projection does: unfinished thread blocks are
    /// assumed to retire at the observed blocks-per-cycle rate.
    ///
    /// Returns the simulated cycle count unchanged when the kernel ran to
    /// completion or no block ever finished (nothing to extrapolate from).
    pub fn projected_total_cycles(&self) -> u64 {
        if !self.early_stop || self.blocks_completed == 0 {
            return self.projected_total_cycles_by_instructions();
        }
        let exec = self.cycles.saturating_sub(self.launch_overhead_cycles);
        let remaining = self.blocks_total.saturating_sub(self.blocks_completed);
        let per_block = exec as f64 / self.blocks_completed as f64;
        self.cycles + (remaining as f64 * per_block) as u64
    }

    /// Projects total cycles from the remaining *instructions* at the
    /// observed average IPC. PKP uses this form for sub-wave grids, where
    /// the wave constraint is waived and no thread block may have finished
    /// yet (Section 3.2).
    pub fn projected_total_cycles_by_instructions(&self) -> u64 {
        if !self.early_stop || self.instructions == 0 {
            return self.cycles;
        }
        let exec = self
            .cycles
            .saturating_sub(self.launch_overhead_cycles)
            .max(1);
        let remaining = self.instructions_total.saturating_sub(self.instructions) as f64;
        let ipc = self.instructions as f64 / exec as f64;
        self.cycles + (remaining / ipc) as u64
    }
}

/// The cycle-level GPU timing simulator.
///
/// See the [crate documentation](crate) for the model description. A
/// `Simulator`'s configuration and options never change, and it can run any
/// number of kernels, from any number of threads at once. Between runs it
/// keeps the large per-kernel engine state (warp arrays and caches) in a
/// private pool, so the next kernel resets that state instead of allocating
/// it again; every result is identical to a new `Simulator`'s.
pub struct Simulator {
    config: GpuConfig,
    options: SimOptions,
    /// Engine state idle between runs: at most one entry per thread that
    /// ran this simulator at the same time.
    pool: Mutex<Vec<EngineState>>,
}

impl Clone for Simulator {
    /// Clones the configuration and options; the clone starts with an
    /// empty pool.
    fn clone(&self) -> Self {
        Self::new(self.config.clone(), self.options)
    }
}

impl fmt::Debug for Simulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulator")
            .field("config", &self.config)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

impl Simulator {
    /// Creates a simulator for `config`.
    pub fn new(config: GpuConfig, options: SimOptions) -> Self {
        Self {
            config,
            options,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// The simulated architecture.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// The run options.
    pub fn options(&self) -> &SimOptions {
        &self.options
    }

    /// Simulates `kernel` to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Gpu`] for unlaunchable kernels,
    /// [`SimError::WorkingSetTooLarge`] for a working set past the caches'
    /// address range and [`SimError::CycleBudgetExhausted`] if the safety
    /// budget trips.
    pub fn run_kernel(&self, kernel: &KernelDescriptor) -> Result<KernelSimResult, SimError> {
        self.run_kernel_monitored(kernel, &mut NullMonitor)
    }

    /// Simulates `kernel` under an online monitor (the PKP integration
    /// point). The run ends when the kernel completes or when the monitor
    /// returns [`SimControl::Stop`].
    ///
    /// # Errors
    ///
    /// Same as [`run_kernel`](Self::run_kernel).
    pub fn run_kernel_monitored(
        &self,
        kernel: &KernelDescriptor,
        monitor: &mut dyn SimMonitor,
    ) -> Result<KernelSimResult, SimError> {
        let [result] = observed(|| Ok([self.simulate(kernel, monitor, false)?.0]))?;
        Ok(result)
    }

    /// Simulates `kernel` to completion under `monitor` in one engine pass
    /// and returns `(full, stopped)`: `full` is what
    /// [`run_kernel`](Self::run_kernel) returns, and `stopped` is what
    /// [`run_kernel_monitored`](Self::run_kernel_monitored) returns with the
    /// same monitor, bit for bit. When the monitor stops the kernel, the
    /// engine records the result at that point, stops consulting the
    /// monitor and runs on; the monitor is left as it was at the stop. If
    /// it never stops the kernel, `stopped == full`.
    ///
    /// # Examples
    ///
    /// ```
    /// use pka_gpu::{GpuConfig, KernelDescriptor};
    /// use pka_sim::{MaxCyclesMonitor, SimOptions, Simulator};
    ///
    /// let sim = Simulator::new(GpuConfig::v100(), SimOptions::default());
    /// let kernel = KernelDescriptor::builder("k")
    ///     .grid_blocks(400)
    ///     .block_threads(128)
    ///     .fp32_per_thread(200)
    ///     .global_loads_per_thread(8)
    ///     .build()?;
    /// let (full, stopped) = sim.run_kernel_with_stop(&kernel, &mut MaxCyclesMonitor::new(2_000))?;
    /// assert_eq!(full, sim.run_kernel(&kernel)?);
    /// assert_eq!(
    ///     stopped,
    ///     sim.run_kernel_monitored(&kernel, &mut MaxCyclesMonitor::new(2_000))?
    /// );
    /// assert!(stopped.early_stop && stopped.cycles < full.cycles);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`run_kernel`](Self::run_kernel); an error in the part of the
    /// run after the stop is returned too.
    pub fn run_kernel_with_stop(
        &self,
        kernel: &KernelDescriptor,
        monitor: &mut dyn SimMonitor,
    ) -> Result<(KernelSimResult, KernelSimResult), SimError> {
        let [full, stopped] = observed(|| {
            let (full, stopped) = self.simulate(kernel, monitor, true)?;
            let stopped = stopped.unwrap_or_else(|| full.clone());
            Ok([full, stopped])
        })?;
        Ok((full, stopped))
    }

    /// Runs `kernel` on engine state taken from the pool (or built when the
    /// pool is empty), and returns the state to the pool however the run
    /// ends: completion, a monitor stop or an error. A kernel whose largest
    /// address the caches cannot tag is refused before it starts. See
    /// [`Engine::run`] for `finish`.
    fn simulate(
        &self,
        kernel: &KernelDescriptor,
        monitor: &mut dyn SimMonitor,
        finish: bool,
    ) -> Result<(KernelSimResult, Option<KernelSimResult>), SimError> {
        let occ = Occupancy::compute(kernel, &self.config)?;
        let pooled = self
            .pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        let state = pooled.unwrap_or_else(|| EngineState::new(&self.config));
        // Addresses are 32-byte sectors below the working set.
        let last_address = ((kernel.working_set_bytes() / 32).max(1) - 1) * 32;
        let address_limit = state.address_limit();
        let (result, state) = if last_address < address_limit {
            let mut engine = Engine::new(&self.config, &self.options, kernel, &occ, state);
            let result = engine.run(monitor, finish);
            (result, engine.into_state())
        } else {
            let refused = SimError::WorkingSetTooLarge {
                working_set_bytes: kernel.working_set_bytes(),
                address_limit,
            };
            (Err(refused), state)
        };
        self.pool
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(state);
        result
    }
}

/// Runs `run`, one engine pass. With observability on, records the pass as
/// one `sim.run_kernel` stage call and every result it returns in the
/// `sim.*` counters.
fn observed<const N: usize>(
    run: impl FnOnce() -> Result<[KernelSimResult; N], SimError>,
) -> Result<[KernelSimResult; N], SimError> {
    if !pka_obs::enabled() {
        return run();
    }
    // Stage time is accumulated directly (no span) so a fullsim over tens
    // of thousands of kernels does not flood the trace sink with one line
    // per kernel.
    let start = std::time::Instant::now();
    let results = run();
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    pka_obs::stage("sim.run_kernel").record_ns(ns);
    if let Ok(results) = &results {
        let obs = sim_obs();
        for r in results {
            obs.kernels.incr();
            obs.cycles.add(r.cycles);
            obs.instructions.add(r.instructions);
            if r.early_stop {
                obs.early_stops.incr();
            }
            obs.kernel_cycles.record(r.cycles);
        }
    }
    results
}

/// Cached simulator metric handles (kernel-rate hot path: one relaxed load
/// gates the whole block above).
struct SimObs {
    kernels: &'static pka_obs::Counter,
    cycles: &'static pka_obs::Counter,
    instructions: &'static pka_obs::Counter,
    early_stops: &'static pka_obs::Counter,
    kernel_cycles: &'static pka_obs::Histogram,
}

fn sim_obs() -> &'static SimObs {
    static OBS: std::sync::OnceLock<SimObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| SimObs {
        kernels: pka_obs::counter("sim.kernels"),
        cycles: pka_obs::counter("sim.cycles"),
        instructions: pka_obs::counter("sim.instructions"),
        early_stops: pka_obs::counter("sim.early_stops"),
        kernel_cycles: pka_obs::histogram(
            "sim.kernel_cycles",
            &[
                10_000,
                100_000,
                1_000_000,
                10_000_000,
                100_000_000,
                1_000_000_000,
            ],
        ),
    })
}

// ---------------------------------------------------------------------------
// Engine internals.
// ---------------------------------------------------------------------------

const BARRIER_RELEASE_LATENCY: u64 = 6;
const BLOCK_DISPATCH_LATENCY: u64 = 10;
/// Modelled driver + dispatch overhead added to every kernel launch, as
/// Accel-Sim's launch latency does. Deliberately close to — but not equal
/// to — the silicon model's figure, so micro-kernel-dominated workloads
/// exhibit a realistic simulator-versus-silicon gap instead of a huge one.
const KERNEL_LAUNCH_OVERHEAD: u64 = 2_300;
/// Every DEP_EVERYth instruction of a warp truly depends on the previous
/// one and waits its full result latency; the rest issue back-to-back.
/// Calibrated against the analytical silicon model so that well-tuned
/// compute tiles (which real hardware executes with deep ILP) land near
/// their throughput roofline instead of their naive dependence chain.
const DEP_EVERY: u64 = 6;
/// Per-warp hot-region size for L1-local reuse, in 32 B sectors (2 KiB:
/// small enough that even short kernels re-touch it within their lifetime).
const HOT_SECTORS: u64 = 64;
/// Ready-queue tag of a warp that has executed its whole program; the
/// other tags are instruction class indices.
const RETIRE: u8 = InstClass::ALL.len() as u8;
/// Distinct ready-queue tags: one per instruction class, plus [`RETIRE`].
const TAGS: usize = InstClass::ALL.len() + 1;

#[derive(Debug)]
struct Warp {
    cursor: WarpCursor,
    block_slot: usize,
    stream: UnitStream,
    active: bool,
}

#[derive(Debug, Default)]
struct BlockSlot {
    active: bool,
    /// First sector of the resident block's hot region.
    hot_base: u64,
    warps_done: u32,
    barrier_arrived: u32,
    barrier_waiting: Vec<usize>,
}

/// A warp in a ready bucket, tagged with what it does when it next issues:
/// an instruction class index, or [`RETIRE`]. The tag is decoded once, when
/// the warp becomes ready; its cursor cannot move before it issues.
#[derive(Debug, Clone, Copy)]
struct ReadyWarp {
    warp: u32,
    tag: u8,
}

#[derive(Debug)]
struct Sm {
    warps: Vec<Warp>,
    blocks: Vec<BlockSlot>,
    /// Ready warps bucketed per block slot; issued oldest-block-first
    /// (greedy-then-oldest, the scheduling policy Accel-Sim models) by
    /// walking `slot_order`.
    ready: Vec<Vec<ReadyWarp>>,
    /// Ready warps per tag, across the `ready` buckets.
    tag_counts: [u32; TAGS],
    /// Bit `t` is set while `tag_counts[t] > 0`; zero means no warp is
    /// ready.
    present: u32,
    /// Block slots in ascending-block-age order (a re-dispatched slot moves
    /// to the back).
    slot_order: Vec<usize>,
    /// Fast path: warps that become ready exactly next cycle (the common
    /// back-to-back issue case) skip the sleep heap entirely.
    pending_next: Vec<usize>,
    /// Warps waiting on latencies longer than one cycle.
    sleeping: BinaryHeap<Reverse<(u64, usize)>>,
    credits: [f64; InstClass::ALL.len()],
    l1: SetAssocCache,
}

impl Sm {
    fn new(config: &GpuConfig) -> Self {
        Sm {
            warps: Vec::new(),
            blocks: Vec::new(),
            ready: Vec::new(),
            tag_counts: [0; TAGS],
            present: 0,
            slot_order: Vec::new(),
            pending_next: Vec::new(),
            sleeping: BinaryHeap::new(),
            credits: [0.0; InstClass::ALL.len()],
            l1: SetAssocCache::with_capacity(config.l1_bytes(), 4, 32),
        }
    }

    /// Puts the SM in the state a new one starts a kernel in, with `slots`
    /// idle block slots of `warps_per_block` warps each, keeping every
    /// allocation it already holds. Warps keep what the last kernel left in
    /// them: nothing reads a warp before `try_dispatch` sets every field.
    fn reset(&mut self, slots: usize, warps_per_block: usize, cursor: WarpCursor) {
        self.warps.resize_with(slots * warps_per_block, || Warp {
            cursor,
            block_slot: 0,
            stream: UnitStream::new(0),
            active: false,
        });
        self.blocks.resize_with(slots, BlockSlot::default);
        for b in &mut self.blocks {
            b.active = false;
            b.hot_base = 0;
            b.warps_done = 0;
            b.barrier_arrived = 0;
            b.barrier_waiting.clear();
        }
        self.ready.resize_with(slots, Vec::new);
        for bucket in &mut self.ready {
            bucket.clear();
        }
        self.tag_counts = [0; TAGS];
        self.present = 0;
        self.slot_order.clear();
        self.slot_order.extend(0..slots);
        self.pending_next.clear();
        self.sleeping.clear();
        self.credits = [0.0; InstClass::ALL.len()];
        self.l1.reset();
    }

    /// Appends warp `idx` to its block's ready bucket, tagged with what it
    /// issues next.
    fn push_ready(&mut self, idx: usize, program: &WarpProgram) {
        let warp = &self.warps[idx];
        let tag = program
            .fetch(&warp.cursor)
            .map_or(RETIRE, |class| class.index() as u8);
        self.ready[warp.block_slot].push(ReadyWarp {
            warp: idx as u32,
            tag,
        });
        self.tag_counts[tag as usize] += 1;
        self.present |= 1 << tag;
    }

    /// Removes entry `i` of `slot`'s ready bucket (which swaps the last
    /// entry into its place).
    fn remove_ready(&mut self, slot: usize, i: usize) {
        let tag = self.ready[slot].swap_remove(i).tag as usize;
        self.tag_counts[tag] -= 1;
        if self.tag_counts[tag] == 0 {
            self.present &= !(1 << tag);
        }
    }

    /// The first cycle at which this SM can have a warp to issue: the next
    /// one while a warp is ready or due next cycle, else its earliest
    /// sleeper's wake-up, else never. Before then, visiting the SM would
    /// wake nothing and issue nothing.
    fn next_event(&self, now: u64) -> u64 {
        if self.present != 0 || !self.pending_next.is_empty() {
            now + 1
        } else {
            self.sleeping.peek().map_or(u64::MAX, |Reverse((t, _))| *t)
        }
    }
}

/// The large engine state a [`Simulator`] pools between kernels: every SM
/// (warps, block slots, scheduler queues, L1), each SM's next event cycle,
/// the list of SMs with work left, and the L2. Its size depends only on the
/// GPU configuration; [`Engine::new`] resets it for a kernel.
#[derive(Debug)]
struct EngineState {
    sms: Vec<Sm>,
    next_event: Vec<u64>,
    live: Vec<usize>,
    l2: SetAssocCache,
}

impl EngineState {
    fn new(config: &GpuConfig) -> Self {
        Self {
            sms: (0..config.num_sms()).map(|_| Sm::new(config)).collect(),
            next_event: Vec::new(),
            live: Vec::new(),
            l2: SetAssocCache::with_capacity(config.l2_bytes(), 16, 32),
        }
    }

    /// The first address one of the caches cannot hold.
    fn address_limit(&self) -> u64 {
        self.sms
            .iter()
            .map(|sm| sm.l1.address_limit())
            .fold(self.l2.address_limit(), u64::min)
    }
}

/// How a kernel's memory instructions pick their sector addresses, fixed
/// for the kernel.
#[derive(Debug, Clone, Copy)]
struct AddressMap {
    /// A draw below this goes to the block's hot region.
    hot_below: f64,
    /// A draw below this, and not hot, goes to the kernel-wide warm region.
    warm_below: f64,
    warm_sectors: u64,
    ws_sectors: u64,
}

impl AddressMap {
    fn new(config: &GpuConfig, kernel: &KernelDescriptor) -> Self {
        let (l1p, l2p) = (kernel.l1_locality(), kernel.l2_locality());
        AddressMap {
            hot_below: l1p,
            warm_below: l1p + (1.0 - l1p) * l2p,
            // The kernel-wide warm region must be small enough relative to
            // the kernel's own traffic that its locality actually
            // materialises as L2 hits (a region larger than the access
            // count is all cold misses, whatever the locality knob says).
            warm_sectors: (config.l2_bytes() / 2 / 32)
                .min(kernel.working_set_bytes().max(32) / 32)
                .min(((kernel.total_global_sectors() / 8.0) as u64).max(2_048))
                .max(1),
            ws_sectors: (kernel.working_set_bytes() / 32).max(1),
        }
    }

    /// The first sector of block `block_id`'s hot region.
    fn hot_base(&self, block_id: u64) -> u64 {
        (block_id * HOT_SECTORS * 7) % self.ws_sectors
    }

    /// Generates one sector address for a memory access of a warp whose
    /// block's hot region starts at `hot_base`.
    fn address(&self, stream: &mut UnitStream, hot_base: u64) -> u64 {
        let u = stream.next_f64();
        let sector = if u < self.hot_below {
            // Per-block hot region: fits in L1 comfortably. `hot_base` is
            // below the working set, so when the region fits in it one
            // subtraction wraps the sector.
            let s = hot_base + stream.next_u64() % HOT_SECTORS;
            if self.ws_sectors < HOT_SECTORS {
                s % self.ws_sectors
            } else if s >= self.ws_sectors {
                s - self.ws_sectors
            } else {
                s
            }
        } else if u < self.warm_below {
            // Kernel-wide warm region sized to (half) the L2.
            stream.next_u64() % self.warm_sectors
        } else {
            // Cold: anywhere in the working set.
            stream.next_u64() % self.ws_sectors
        };
        sector * 32
    }
}

struct Engine<'a> {
    config: &'a GpuConfig,
    options: &'a SimOptions,
    kernel: &'a KernelDescriptor,
    program: WarpProgram,
    warps_per_block: u32,
    blocks_total: u64,
    wave_blocks: u64,
    rates: [f64; InstClass::ALL.len()],
    latencies: [u64; InstClass::ALL.len()],
    /// Classes the kernel actually executes — the only credits worth
    /// refilling each cycle.
    active_classes: Vec<usize>,
    /// Tag bits of the classes whose credit stall has no side effect, so
    /// the issue stage may skip their later warps once one has stalled:
    /// every class but global memory (which draws its coalescing coin
    /// before the credit check) and `Sync` (which never stalls).
    skippable_tags: u32,
    /// A global-memory instruction covers `coalesce_base` sectors, plus one
    /// with probability `coalesce_frac`.
    coalesce_base: u64,
    coalesce_frac: f64,
    addresses: AddressMap,
    sms: Vec<Sm>,
    /// `next_event[sm]` is [`Sm::next_event`] as of the SM's last visit;
    /// the cycle loop skips the SM until then.
    next_event: Vec<u64>,
    /// The SMs whose next event is not `u64::MAX`, ascending; the only ones
    /// the cycle loop looks at.
    live: Vec<usize>,
    l2: SetAssocCache,
    icnt: Option<Interconnect>,
    dram: DramModel,
    next_block: u64,
    blocks_done: u64,
    cycle: u64,
    instructions: u64,
}

impl<'a> Engine<'a> {
    /// Sets up `kernel` on `state` (reset to a new engine's state) and
    /// performs the initial wave dispatch.
    fn new(
        config: &'a GpuConfig,
        options: &'a SimOptions,
        kernel: &'a KernelDescriptor,
        occ: &Occupancy,
        state: EngineState,
    ) -> Self {
        let program = WarpProgram::from_descriptor(kernel);
        let warps_per_block = kernel.warps_per_block();
        let slots_per_sm = occ.blocks_per_sm() as usize;

        let mut rates = [0.0; InstClass::ALL.len()];
        let mut latencies = [0u64; InstClass::ALL.len()];
        let mut active_classes = Vec::new();
        let mut skippable_tags = 0;
        for (i, &class) in InstClass::ALL.iter().enumerate() {
            rates[i] = warp_throughput(config, class);
            latencies[i] = base_latency(config, class) as u64;
            if kernel.count(class) > 0 && class != InstClass::Sync {
                active_classes.push(i);
            }
            if !class.is_global_memory() && class != InstClass::Sync {
                skippable_tags |= 1 << i;
            }
        }

        let coalescing = kernel.coalescing_sectors();
        let coalesce_base = coalescing.floor() as u64;

        let EngineState {
            mut sms,
            mut next_event,
            mut live,
            mut l2,
        } = state;
        let cursor = program.cursor();
        for sm in &mut sms {
            sm.reset(slots_per_sm, warps_per_block as usize, cursor);
        }
        // Every SM is visited on the first cycle.
        next_event.clear();
        next_event.resize(sms.len(), 0);
        live.clear();
        live.extend(0..sms.len());
        l2.reset();

        let mut engine = Engine {
            config,
            options,
            kernel,
            program,
            warps_per_block,
            blocks_total: kernel.total_blocks(),
            wave_blocks: occ.wave_blocks(),
            rates,
            latencies,
            active_classes,
            skippable_tags,
            coalesce_base,
            coalesce_frac: coalescing - coalesce_base as f64,
            addresses: AddressMap::new(config, kernel),
            sms,
            next_event,
            live,
            l2,
            icnt: options.interconnect.then(|| Interconnect::new(config)),
            dram: DramModel::new(config),
            next_block: 0,
            blocks_done: 0,
            cycle: 0,
            instructions: 0,
        };

        for sm in 0..engine.sms.len() {
            for slot in 0..slots_per_sm {
                engine.try_dispatch(sm, slot);
            }
        }
        engine
    }

    /// Hands the reusable state back for the pool.
    fn into_state(self) -> EngineState {
        EngineState {
            sms: self.sms,
            next_event: self.next_event,
            live: self.live,
            l2: self.l2,
        }
    }

    /// Places the next pending block into `(sm, slot)` if any work remains.
    fn try_dispatch(&mut self, sm: usize, slot: usize) {
        if self.next_block >= self.blocks_total {
            self.sms[sm].blocks[slot].active = false;
            return;
        }
        let block_id = self.next_block;
        self.next_block += 1;
        let now = self.cycle;
        let wpb = self.warps_per_block as usize;
        let seed_base = self.kernel.seed();
        let sm_ref = &mut self.sms[sm];
        // The refilled slot now hosts the youngest resident block.
        if let Some(pos) = sm_ref.slot_order.iter().position(|&s| s == slot) {
            sm_ref.slot_order.remove(pos);
        }
        sm_ref.slot_order.push(slot);
        let b = &mut sm_ref.blocks[slot];
        b.active = true;
        b.hot_base = self.addresses.hot_base(block_id);
        b.warps_done = 0;
        b.barrier_arrived = 0;
        b.barrier_waiting.clear();
        for w in 0..wpb {
            let idx = slot * wpb + w;
            let warp = &mut sm_ref.warps[idx];
            warp.cursor = self.program.cursor();
            warp.block_slot = slot;
            // mix64 decorrelates the streams: without it, seeds that differ
            // by multiples of the splitmix64 increment would alias into one
            // shared sequence and every warp would touch the same addresses.
            warp.stream = UnitStream::new(mix64(
                seed_base ^ mix64(block_id) ^ (w as u64).rotate_left(17),
            ));
            warp.active = true;
            sm_ref
                .sleeping
                .push(Reverse((now + BLOCK_DISPATCH_LATENCY + w as u64, idx)));
        }
    }

    /// Runs the kernel, consulting `monitor` at every IPC sample. When the
    /// monitor stops the kernel, a run without `finish` ends there and
    /// returns `(stopped, None)`. A run with `finish` records the result at
    /// that point, stops consulting the monitor and runs to completion,
    /// returning `(full, Some(stopped))`. The monitor has no effect on the
    /// engine, so the rest of the run is the one a run without a monitor
    /// makes. A run the monitor never stops returns `(full, None)`.
    fn run(
        &mut self,
        monitor: &mut dyn SimMonitor,
        finish: bool,
    ) -> Result<(KernelSimResult, Option<KernelSimResult>), SimError> {
        let interval = self.options.sample_interval;
        let mut series: Vec<IpcSample> = Vec::new();
        let mut last_sample_cycle = 0u64;
        let mut last_sample_insts = 0u64;
        let mut early_stop = false;
        let mut stopped = None;

        'outer: while self.blocks_done < self.blocks_total {
            if self.cycle >= self.options.max_cycles {
                return Err(SimError::CycleBudgetExhausted {
                    max_cycles: self.options.max_cycles,
                });
            }

            // Only this SM's own visit changes its warps (and dispatches
            // blocks to it), so an SM whose next event lies ahead has
            // nothing to wake or issue, and one with no next event never
            // has again: it leaves `live` for the rest of the run. Visiting
            // the due SMs in ascending order keeps the order in which the
            // L2, DRAM and interconnect see requests.
            let mut any_ready = false;
            let mut next_event = u64::MAX;
            let mut live = std::mem::take(&mut self.live);
            live.retain(|&sm| {
                if self.next_event[sm] <= self.cycle {
                    self.wake(sm);
                    if self.sms[sm].present != 0 {
                        any_ready = true;
                        self.issue_cycle(sm);
                    }
                    self.next_event[sm] = self.sms[sm].next_event(self.cycle);
                }
                next_event = next_event.min(self.next_event[sm]);
                self.next_event[sm] != u64::MAX
            });
            self.live = live;

            // IPC sampling + monitor callback.
            if self.cycle >= last_sample_cycle + interval {
                let dc = self.cycle - last_sample_cycle;
                let di = self.instructions - last_sample_insts;
                let sample = IpcSample {
                    cycle: self.cycle,
                    ipc: di as f64 / dc as f64,
                    l2_miss_pct: self.l2.miss_rate_pct(),
                    dram_util_pct: self.dram.utilization_pct(self.cycle),
                };
                series.push(sample);
                last_sample_cycle = self.cycle;
                last_sample_insts = self.instructions;
                let ctx = SampleContext {
                    sample,
                    instructions: self.instructions,
                    blocks_completed: self.blocks_done,
                    blocks_total: self.blocks_total,
                    wave_blocks: self.wave_blocks,
                };
                if stopped.is_none() && monitor.observe(&ctx) == SimControl::Stop {
                    if !finish {
                        early_stop = true;
                        break 'outer;
                    }
                    stopped = Some(self.result(series.clone(), true));
                }
            }

            if any_ready {
                self.cycle += 1;
            } else {
                // No SM had a ready warp, so none issued and none is due
                // next cycle: jump to the next wake-up event.
                match Some(next_event).filter(|&t| t != u64::MAX) {
                    Some(t) => {
                        let jump = t.max(self.cycle + 1);
                        // Cap the jump so sampling cadence is preserved.
                        self.cycle = jump.min(last_sample_cycle + interval.max(1));
                    }
                    None => {
                        debug_assert!(
                            self.blocks_done >= self.blocks_total,
                            "deadlock: no runnable warps but blocks remain"
                        );
                        break;
                    }
                }
            }
        }

        Ok((self.result(series, early_stop), stopped))
    }

    /// The result of the run so far.
    fn result(&self, ipc_series: Vec<IpcSample>, early_stop: bool) -> KernelSimResult {
        let cycles = self.cycle.max(1) + KERNEL_LAUNCH_OVERHEAD;
        let (l1_accesses, l1_misses) = self.sms.iter().fold((0u64, 0u64), |(a, m), sm| {
            (a + sm.l1.accesses(), m + sm.l1.misses())
        });
        KernelSimResult {
            cycles,
            instructions: self.instructions,
            instructions_total: self.kernel.total_warp_instructions(),
            launch_overhead_cycles: KERNEL_LAUNCH_OVERHEAD,
            warp_ipc: self.instructions as f64 / cycles as f64,
            ipc_series,
            dram_util_pct: self.dram.utilization_pct(cycles),
            l2_miss_rate_pct: self.l2.miss_rate_pct(),
            l1_miss_rate_pct: if l1_accesses == 0 {
                0.0
            } else {
                l1_misses as f64 / l1_accesses as f64 * 100.0
            },
            blocks_completed: self.blocks_done,
            blocks_total: self.blocks_total,
            wave_blocks: self.wave_blocks,
            early_stop,
        }
    }

    /// Moves due sleepers (and the next-cycle fast-path batch) into their
    /// ready buckets.
    fn wake(&mut self, sm_idx: usize) {
        let now = self.cycle;
        let sm = &mut self.sms[sm_idx];
        for i in 0..sm.pending_next.len() {
            let idx = sm.pending_next[i];
            sm.push_ready(idx, &self.program);
        }
        sm.pending_next.clear();
        while let Some(Reverse((t, idx))) = sm.sleeping.peek().copied() {
            if t > now {
                break;
            }
            sm.sleeping.pop();
            sm.push_ready(idx, &self.program);
        }
    }

    /// One SM's issue stage for the current cycle.
    fn issue_cycle(&mut self, sm_idx: usize) {
        // Refill per-class credits (only classes this kernel executes),
        // capping the surplus so idle pipes cannot bank an unbounded burst;
        // debt from oversized accesses drains first.
        {
            let sm = &mut self.sms[sm_idx];
            for &c in &self.active_classes {
                let rate = self.rates[c];
                sm.credits[c] = (sm.credits[c] + rate).min((rate * 2.0).max(2.0));
            }
        }

        let issue_width = self.config.issue_width() as usize;
        let mut issued = 0usize;
        // Tag bits of skippable classes that stalled this cycle. Credits
        // only fall between refills, so every later warp of such a class
        // would stall too, with no side effect: skip it untried, and stop
        // once every ready warp is of a blocked class.
        let mut blocked = 0u32;
        // Greedy-then-oldest: walk slots oldest block first; warps that
        // stall on a structural hazard stay in their bucket for next cycle.
        let n_slots = self.sms[sm_idx].slot_order.len();
        'slots: for oi in 0..n_slots {
            let slot = self.sms[sm_idx].slot_order[oi];
            let mut i = 0;
            loop {
                let sm = &self.sms[sm_idx];
                if issued >= issue_width || sm.present & !blocked == 0 {
                    break 'slots;
                }
                let Some(&entry) = sm.ready[slot].get(i) else {
                    break;
                };
                if blocked & (1 << entry.tag) != 0 {
                    i += 1;
                    continue;
                }
                match self.try_issue(sm_idx, entry) {
                    IssueOutcome::Issued => {
                        self.sms[sm_idx].remove_ready(slot, i);
                        issued += 1;
                    }
                    IssueOutcome::Retired => self.sms[sm_idx].remove_ready(slot, i),
                    IssueOutcome::Stalled => {
                        blocked |= (1 << entry.tag) & self.skippable_tags;
                        i += 1;
                    }
                }
            }
        }
    }

    fn try_issue(&mut self, sm_idx: usize, entry: ReadyWarp) -> IssueOutcome {
        let now = self.cycle;
        let warp_idx = entry.warp as usize;
        let Some(&class) = InstClass::ALL.get(usize::from(entry.tag)) else {
            self.retire_warp(sm_idx, warp_idx);
            return IssueOutcome::Retired;
        };
        let class_idx = class.index();

        // Barriers bypass the credit system.
        if class == InstClass::Sync {
            self.arrive_barrier(sm_idx, warp_idx);
            return IssueOutcome::Issued;
        }

        // Credit check: memory operations consume credit proportional to
        // their sector count (the coalescer occupies the LDST pipe longer
        // for divergent accesses).
        let sm = &mut self.sms[sm_idx];
        let warp = &mut sm.warps[warp_idx];
        let memory = class.is_global_memory();
        let (sectors, cost) = if memory {
            let extra = warp.stream.next_f64() < self.coalesce_frac;
            let sectors = self.coalesce_base + u64::from(extra);
            (sectors, (sectors as f64 / 4.0).max(0.25))
        } else {
            (0, 1.0)
        };
        // Leaky-bucket issue: a warp may issue while the class credit is
        // positive and drive it negative (so a 32-sector divergent access
        // still issues, then blocks the pipe for the cycles it deserves).
        if sm.credits[class_idx] <= 0.0 {
            return IssueOutcome::Stalled;
        }
        sm.credits[class_idx] -= cost;

        // Determine when the warp can issue its next instruction.
        let mut result_at = now + self.latencies[class_idx];
        if memory {
            let hot_base = sm.blocks[warp.block_slot].hot_base;
            let mut worst = now + 1;
            for _ in 0..sectors.max(1) {
                let addr = self.addresses.address(&mut warp.stream, hot_base);
                let ready = if sm.l1.access(addr) {
                    now + self.latencies[class_idx]
                } else {
                    // An L1 miss crosses the interconnect; under the
                    // optional backpressure model it may queue at its L2
                    // slice before being serviced.
                    let queued = match self.icnt.as_mut() {
                        Some(icnt) => icnt.queue_delay(addr, now),
                        None => 0,
                    };
                    if self.l2.access(addr) {
                        now + queued + self.config.l2_latency_cycles() as u64
                    } else {
                        self.dram.request(addr, now + queued)
                    }
                };
                worst = worst.max(ready);
            }
            // Stores retire immediately; loads and atomics deliver data.
            result_at = match class {
                InstClass::StGlobal | InstClass::StLocal => now + 1,
                _ => worst,
            };
        }

        // Scoreboard: every DEP_EVERYth instruction waits for its result;
        // the rest are independent and dual-issue-friendly. Global loads
        // expose their full round-trip latency through the register file,
        // but shared-memory and arithmetic results in tuned kernels are
        // software-pipelined (double buffering), so their dependent wait is
        // shallow.
        let dep_wait = match class {
            InstClass::LdGlobal | InstClass::LdLocal | InstClass::AtomicGlobal => result_at,
            _ => result_at.min(now + 8),
        };
        self.program.advance(&mut warp.cursor);
        let dependent = warp.cursor.executed().is_multiple_of(DEP_EVERY);
        let next_issue_at = if dependent {
            dep_wait.max(now + 1)
        } else {
            now + 1
        };
        self.instructions += 1;

        if next_issue_at <= now + 1 {
            sm.pending_next.push(warp_idx);
        } else {
            sm.sleeping.push(Reverse((next_issue_at, warp_idx)));
        }
        IssueOutcome::Issued
    }

    fn arrive_barrier(&mut self, sm_idx: usize, warp_idx: usize) {
        self.instructions += 1;
        let now = self.cycle;
        let sm = &mut self.sms[sm_idx];
        let warp = &mut sm.warps[warp_idx];
        self.program.advance(&mut warp.cursor);
        let block = &mut sm.blocks[warp.block_slot];
        block.barrier_arrived += 1;
        block.barrier_waiting.push(warp_idx);
        if block.barrier_arrived == self.warps_per_block {
            block.barrier_arrived = 0;
            for &w in &block.barrier_waiting {
                sm.sleeping
                    .push(Reverse((now + BARRIER_RELEASE_LATENCY, w)));
            }
            block.barrier_waiting.clear();
        }
    }

    fn retire_warp(&mut self, sm_idx: usize, warp_idx: usize) {
        let finished_slot: Option<usize> = {
            let sm = &mut self.sms[sm_idx];
            let warp = &mut sm.warps[warp_idx];
            if !warp.active {
                return;
            }
            warp.active = false;
            let slot = warp.block_slot;
            let block = &mut sm.blocks[slot];
            block.warps_done += 1;
            (block.warps_done == self.warps_per_block).then_some(slot)
        };
        if let Some(slot) = finished_slot {
            self.blocks_done += 1;
            self.try_dispatch(sm_idx, slot);
        }
    }
}

enum IssueOutcome {
    Issued,
    Stalled,
    Retired,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny_config() -> GpuConfig {
        GpuConfig::builder("tiny4")
            .num_sms(4)
            .build()
            .expect("valid config")
    }

    fn kernel(blocks: u32, fp32: u32, loads: u32) -> KernelDescriptor {
        KernelDescriptor::builder("k")
            .grid_blocks(blocks)
            .block_threads(64)
            .fp32_per_thread(fp32)
            .global_loads_per_thread(loads)
            .build()
            .unwrap()
    }

    #[test]
    fn completes_and_counts_every_instruction() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = kernel(16, 100, 10);
        let r = sim.run_kernel(&k).unwrap();
        assert_eq!(r.blocks_completed, 16);
        assert!(!r.early_stop);
        assert_eq!(r.instructions, k.total_warp_instructions());
        assert!(r.cycles > 0);
        assert!(r.warp_ipc > 0.0);
    }

    #[test]
    fn deterministic() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = kernel(8, 200, 8);
        let a = sim.run_kernel(&k).unwrap();
        let b = sim.run_kernel(&k).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_blocks_take_longer() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let small = sim.run_kernel(&kernel(8, 100, 4)).unwrap();
        let big = sim.run_kernel(&kernel(64, 100, 4)).unwrap();
        assert!(big.cycles > small.cycles);
    }

    #[test]
    fn memory_bound_kernel_has_high_dram_util() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let mem = KernelDescriptor::builder("mem")
            .grid_blocks(64)
            .block_threads(128)
            .fp32_per_thread(2)
            .global_loads_per_thread(48)
            .l1_locality(0.02)
            .l2_locality(0.05)
            .working_set_bytes(256 << 20)
            .coalescing_sectors(16.0)
            .build()
            .unwrap();
        let compute = kernel(64, 400, 2);
        let rm = sim.run_kernel(&mem).unwrap();
        let rc = sim.run_kernel(&compute).unwrap();
        assert!(rm.dram_util_pct > rc.dram_util_pct);
        assert!(rm.l2_miss_rate_pct > 50.0, "{}", rm.l2_miss_rate_pct);
        assert!(rm.warp_ipc < rc.warp_ipc);
    }

    #[test]
    fn cache_friendly_kernel_mostly_hits() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = KernelDescriptor::builder("hot")
            .grid_blocks(16)
            .block_threads(64)
            .fp32_per_thread(50)
            .global_loads_per_thread(100)
            .l1_locality(0.9)
            .l2_locality(0.9)
            .working_set_bytes(1 << 20)
            .build()
            .unwrap();
        let r = sim.run_kernel(&k).unwrap();
        assert!(r.l1_miss_rate_pct < 45.0, "{}", r.l1_miss_rate_pct);
    }

    #[test]
    fn barrier_kernel_completes() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = KernelDescriptor::builder("sync")
            .grid_blocks(8)
            .block_threads(128)
            .fp32_per_thread(60)
            .shared_loads_per_thread(10)
            .syncs_per_thread(4)
            .build()
            .unwrap();
        let r = sim.run_kernel(&k).unwrap();
        assert_eq!(r.blocks_completed, 8);
        assert_eq!(r.instructions, k.total_warp_instructions());
    }

    #[test]
    fn monitor_can_stop_early_and_projection_extends() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = kernel(128, 300, 8);
        let full = sim.run_kernel(&k).unwrap();
        // Stop after the first wave has drained (the paper's wave constraint
        // exists precisely because projecting before then is unreliable).
        let mut stopper = crate::monitor::MaxCyclesMonitor::new(full.cycles * 6 / 10);
        let partial = sim.run_kernel_monitored(&k, &mut stopper).unwrap();
        assert!(partial.early_stop);
        assert!(partial.cycles < full.cycles);
        assert!(partial.blocks_completed < partial.blocks_total);
        let projected = partial.projected_total_cycles();
        let err = (projected as f64 - full.cycles as f64).abs() / full.cycles as f64;
        assert!(err < 0.5, "projection error {err}");
    }

    #[test]
    fn instruction_budget_monitor_stops() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = kernel(128, 300, 8);
        let mut m = crate::monitor::MaxInstructionsMonitor::new(10_000);
        let r = sim.run_kernel_monitored(&k, &mut m).unwrap();
        assert!(r.early_stop);
        assert!(r.instructions >= 10_000);
        assert!(r.instructions < k.total_warp_instructions());
    }

    #[test]
    fn zero_sample_interval_is_rejected_not_panicked() {
        let err = SimOptions::default().with_sample_interval(0).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidOption {
                option: "sample_interval",
                ..
            }
        ));
        assert!(err.to_string().contains("sample_interval"));
        // A rejected value leaves nothing half-set: the builder is consumed,
        // and any positive interval still goes through.
        let opts = SimOptions::default().with_sample_interval(1).unwrap();
        assert_eq!(opts.sample_interval(), 1);
    }

    #[test]
    fn ipc_series_is_sampled() {
        let sim = Simulator::new(
            tiny_config(),
            SimOptions::default().with_sample_interval(100).unwrap(),
        );
        let r = sim.run_kernel(&kernel(32, 200, 8)).unwrap();
        assert!(!r.ipc_series.is_empty());
        for w in r.ipc_series.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
        }
        assert!(r.ipc_series.iter().all(|s| s.ipc >= 0.0));
    }

    #[test]
    fn cycle_budget_errors_out() {
        let sim = Simulator::new(tiny_config(), SimOptions::default().with_max_cycles(50));
        let err = sim.run_kernel(&kernel(128, 5000, 50)).unwrap_err();
        assert!(matches!(err, SimError::CycleBudgetExhausted { .. }));
    }

    #[test]
    fn unlaunchable_kernel_is_gpu_error() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = KernelDescriptor::builder("fat")
            .grid_blocks(1)
            .block_threads(1024)
            .regs_per_thread(255)
            .fp32_per_thread(1)
            .build()
            .unwrap();
        assert!(matches!(sim.run_kernel(&k), Err(SimError::Gpu(_))));
    }

    #[test]
    fn working_set_past_the_address_limit_is_refused_not_panicked() {
        // A one-set L2 tags lines below 2^32 - 1: the largest working set
        // it holds is 2^32 - 1 sectors.
        let config = GpuConfig::builder("one-set-l2")
            .num_sms(4)
            .l2_bytes(512)
            .build()
            .expect("valid config");
        let sim = Simulator::new(config, SimOptions::default());
        let limit = u64::from(u32::MAX) * 32;
        let cold = |working_set_bytes| {
            KernelDescriptor::builder("cold")
                .grid_blocks(8)
                .block_threads(64)
                .fp32_per_thread(4)
                .global_loads_per_thread(8)
                .l1_locality(0.0)
                .l2_locality(0.0)
                .working_set_bytes(working_set_bytes)
                .build()
                .unwrap()
        };
        let fits = sim.run_kernel(&cold(limit)).expect("the last line fits");
        assert_eq!(fits.blocks_completed, 8);
        let refused = SimError::WorkingSetTooLarge {
            working_set_bytes: limit + 32,
            address_limit: limit,
        };
        assert_eq!(sim.run_kernel(&cold(limit + 32)), Err(refused.clone()));
        let mut stop = crate::monitor::MaxCyclesMonitor::new(100);
        assert_eq!(
            sim.run_kernel_with_stop(&cold(u64::MAX), &mut stop),
            Err(SimError::WorkingSetTooLarge {
                working_set_bytes: u64::MAX,
                address_limit: limit,
            })
        );
        assert!(refused.to_string().contains("working set"), "{refused}");
        assert_eq!(sim.pool.lock().unwrap().len(), 1, "the state went back");
        assert_eq!(sim.run_kernel(&cold(limit)).unwrap(), fits);
    }

    #[test]
    fn sub_warp_blocks_work() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let k = KernelDescriptor::builder("narrow")
            .grid_blocks(4)
            .block_threads(16)
            .fp32_per_thread(10)
            .build()
            .unwrap();
        let r = sim.run_kernel(&k).unwrap();
        assert_eq!(r.blocks_completed, 4);
    }

    #[test]
    fn interconnect_backpressure_slows_l2_heavy_kernels() {
        let k = KernelDescriptor::builder("l2heavy")
            .grid_blocks(64)
            .block_threads(128)
            .fp32_per_thread(4)
            .global_loads_per_thread(40)
            .l1_locality(0.0)
            .l2_locality(0.95)
            .working_set_bytes(1 << 20)
            .coalescing_sectors(8.0)
            .build()
            .unwrap();
        let base = Simulator::new(tiny_config(), SimOptions::default());
        let icnt = Simulator::new(tiny_config(), SimOptions::default().with_interconnect(true));
        let a = base.run_kernel(&k).unwrap();
        let b = icnt.run_kernel(&k).unwrap();
        // Backpressure must not make the kernel meaningfully faster; minor
        // reordering effects can move cycles a hair in either direction on
        // a lightly-loaded crossbar.
        assert!(
            b.cycles as f64 >= a.cycles as f64 * 0.98,
            "{} << {}",
            b.cycles,
            a.cycles
        );
        // Results stay complete and deterministic either way.
        assert_eq!(b.blocks_completed, b.blocks_total);
        assert_eq!(icnt.run_kernel(&k).unwrap(), b);
    }

    #[test]
    fn interconnect_is_off_by_default() {
        assert!(!SimOptions::default().interconnect());
        assert!(SimOptions::default().with_interconnect(true).interconnect());
    }

    /// One step of a reuse scenario: a full run, or a run stopped by a
    /// cycle budget.
    #[derive(Clone)]
    enum Step {
        Full(KernelDescriptor),
        StopAt(KernelDescriptor, u64),
    }

    fn run_step(sim: &Simulator, step: &Step) -> Result<KernelSimResult, SimError> {
        match step {
            Step::Full(k) => sim.run_kernel(k),
            Step::StopAt(k, budget) => {
                sim.run_kernel_monitored(k, &mut crate::monitor::MaxCyclesMonitor::new(*budget))
            }
        }
    }

    /// A kernel of `blocks` blocks of `threads` threads that streams through
    /// a large working set, so it fills sets all over both caches.
    fn streaming(blocks: u32, threads: u32) -> KernelDescriptor {
        KernelDescriptor::builder("stream")
            .grid_blocks(blocks)
            .block_threads(threads)
            .fp32_per_thread(8)
            .global_loads_per_thread(12)
            .global_stores_per_thread(2)
            .l1_locality(0.3)
            .l2_locality(0.3)
            .working_set_bytes(64 << 20)
            .coalescing_sectors(4.0)
            .build()
            .unwrap()
    }

    /// The mixed sequence the reuse tests replay: a large grid then a tiny
    /// one, block shapes whose warps per block and slots per SM shrink and
    /// grow, a barrier kernel, and a run stopped mid-flight (sleepers,
    /// next-cycle and ready warps all live) followed by a full run of the
    /// same kernel.
    fn mixed_steps() -> Vec<Step> {
        let barrier = KernelDescriptor::builder("sync")
            .grid_blocks(12)
            .block_threads(128)
            .fp32_per_thread(40)
            .shared_loads_per_thread(10)
            .global_loads_per_thread(4)
            .syncs_per_thread(3)
            .build()
            .unwrap();
        let stopped = kernel(96, 200, 8);
        vec![
            Step::Full(streaming(64, 256)),
            Step::Full(kernel(1, 1, 2)),
            Step::Full(streaming(8, 1024)),
            Step::Full(streaming(40, 32)),
            Step::Full(streaming(12, 512)),
            Step::Full(barrier),
            Step::StopAt(stopped.clone(), 1_500),
            Step::Full(stopped),
            Step::Full(kernel(2, 3, 1)),
        ]
    }

    fn assert_matches_fresh(
        sim: &Simulator,
        steps: &[Step],
        got: &[Result<KernelSimResult, SimError>],
    ) {
        for (i, (step, got)) in steps.iter().zip(got).enumerate() {
            let fresh = Simulator::new(sim.config().clone(), *sim.options());
            assert_eq!(
                got,
                &run_step(&fresh, step),
                "step {i} differs from a new simulator"
            );
        }
    }

    #[test]
    fn reused_state_matches_a_new_simulator() {
        for options in [
            SimOptions::default(),
            SimOptions::default().with_interconnect(true),
        ] {
            let sim = Simulator::new(tiny_config(), options);
            let steps = mixed_steps();
            let got: Vec<_> = steps.iter().map(|s| run_step(&sim, s)).collect();
            assert!(got.iter().all(Result::is_ok));
            assert!(got.iter().any(|r| r.as_ref().is_ok_and(|r| r.early_stop)));
            assert_matches_fresh(&sim, &steps, &got);
            assert_eq!(
                sim.pool.lock().unwrap().len(),
                1,
                "one thread, one pooled state"
            );
        }
    }

    #[test]
    fn state_reused_after_an_error_matches_a_new_simulator() {
        let sim = Simulator::new(tiny_config(), SimOptions::default().with_max_cycles(3_000));
        let unlaunchable = KernelDescriptor::builder("fat")
            .grid_blocks(1)
            .block_threads(1024)
            .regs_per_thread(255)
            .fp32_per_thread(1)
            .build()
            .unwrap();
        let steps = [
            Step::Full(streaming(64, 256)),
            Step::Full(kernel(2, 3, 1)),
            Step::Full(unlaunchable),
            Step::Full(kernel(2, 3, 1)),
        ];
        let got: Vec<_> = steps
            .iter()
            .map(|s| {
                let r = run_step(&sim, s);
                assert_eq!(
                    sim.pool.lock().unwrap().len(),
                    1,
                    "the state went back to the pool"
                );
                r
            })
            .collect();
        assert!(matches!(got[0], Err(SimError::CycleBudgetExhausted { .. })));
        assert!(matches!(got[2], Err(SimError::Gpu(_))));
        assert_matches_fresh(&sim, &steps, &got);
    }

    #[test]
    fn concurrent_runs_share_the_pool_and_match_a_new_simulator() {
        let steps: Vec<Step> = mixed_steps().into_iter().cycle().take(18).collect();
        for workers in [2, 4] {
            let sim = Simulator::new(tiny_config(), SimOptions::default());
            let got = pka_stats::Executor::new(workers).map(&steps, |_, s| run_step(&sim, s));
            assert_matches_fresh(&sim, &steps, &got);
            let pooled = sim.pool.lock().unwrap().len();
            assert!(
                (1..=workers).contains(&pooled),
                "{pooled} states for {workers} workers"
            );
        }
    }

    #[test]
    fn clone_and_debug_leave_the_pool_out() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        sim.run_kernel(&kernel(2, 3, 1)).unwrap();
        assert_eq!(sim.clone().pool.lock().unwrap().len(), 0);
        let shown = format!("{sim:?}");
        assert!(
            shown.contains("options") && !shown.contains("pool"),
            "{shown}"
        );
    }

    /// Sector addresses with every per-kernel constant recomputed at each
    /// access, as before they moved into [`AddressMap`]: the reference the
    /// hoisted form must match draw for draw.
    fn reference_address(
        stream: &mut UnitStream,
        kernel: &KernelDescriptor,
        block_id: u64,
        warm_sectors: u64,
        ws_sectors: u64,
    ) -> u64 {
        let u = stream.next_f64();
        let l1p = kernel.l1_locality();
        let l2p = kernel.l2_locality();
        if u < l1p {
            let base = (block_id * HOT_SECTORS * 7) % ws_sectors;
            let s = base + stream.next_u64() % HOT_SECTORS;
            (s % ws_sectors) * 32
        } else if u < l1p + (1.0 - l1p) * l2p {
            (stream.next_u64() % warm_sectors) * 32
        } else {
            (stream.next_u64() % ws_sectors) * 32
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The hoisted thresholds, per-block hot base and one-subtraction
        /// wrap give the per-access form's addresses and leave the warp's
        /// stream where it leaves it, for working sets below, at and past
        /// the hot-region size, whole sectors or not.
        #[test]
        fn address_map_matches_the_per_access_form(
            ws in (0usize..3, 1u64..200, 1u64..1 << 36, 0u64..32),
            localities in (0.0f64..1.0, 0.0f64..1.0),
            block_id in 0u64..1 << 20,
            seed in any::<u64>(),
        ) {
            let (pick, small, large, odd_bytes) = ws;
            let ws_bytes = [small * 32, large, (small * 64 + odd_bytes) * 32 + odd_bytes][pick];
            let kernel = KernelDescriptor::builder("k")
                .global_loads_per_thread(4)
                .l1_locality(localities.0)
                .l2_locality(localities.1)
                .working_set_bytes(ws_bytes)
                .build()
                .unwrap();
            let map = AddressMap::new(&GpuConfig::v100(), &kernel);
            let hot_base = map.hot_base(block_id);
            let (mut a, mut b) = (UnitStream::new(seed), UnitStream::new(seed));
            for _ in 0..64 {
                let want = reference_address(&mut b, &kernel, block_id, map.warm_sectors, map.ws_sectors);
                prop_assert_eq!(map.address(&mut a, hot_base), want);
            }
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ipc_respects_issue_bound() {
        let sim = Simulator::new(tiny_config(), SimOptions::default());
        let r = sim.run_kernel(&kernel(64, 500, 0)).unwrap();
        let peak = 4.0 * 4.0; // 4 SMs x issue width 4
        assert!(r.warp_ipc <= peak, "{}", r.warp_ipc);
    }
}
