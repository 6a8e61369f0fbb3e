//! Exact simulator pins: a 64-bit digest over every field of a
//! `KernelSimResult`, including each IPC sample's `f64` bits, for a fixed
//! set of kernels. Any change to the simulator that moves a single cycle,
//! counter or sampled value fails here, whatever the tolerance of the
//! coarser end-to-end tests.

use principal_kernel_analysis::gpu::{GpuConfig, KernelDescriptor, KernelId};
use principal_kernel_analysis::sim::{
    KernelSimResult, MaxCyclesMonitor, NullMonitor, SimOptions, Simulator,
};
use principal_kernel_analysis::workloads::all_workloads;

mod common;
use common::digest;

fn first_kernel(workload: &str) -> KernelDescriptor {
    all_workloads()
        .into_iter()
        .find(|w| w.name() == workload)
        .unwrap_or_else(|| panic!("workload {workload} exists"))
        .kernel(KernelId::new(0))
}

fn tiny4() -> GpuConfig {
    GpuConfig::builder("tiny4")
        .num_sms(4)
        .build()
        .expect("valid config")
}

/// An L2-heavy kernel that queues at the interconnect's L2 slices.
fn l2_heavy() -> KernelDescriptor {
    KernelDescriptor::builder("l2heavy")
        .grid_blocks(48)
        .block_threads(128)
        .fp32_per_thread(6)
        .global_loads_per_thread(30)
        .global_stores_per_thread(4)
        .l1_locality(0.05)
        .l2_locality(0.9)
        .working_set_bytes(1 << 20)
        .coalescing_sectors(8.0)
        .build()
        .expect("valid kernel")
}

/// Six barriers per thread between shared-memory and arithmetic work.
fn barrier_heavy() -> KernelDescriptor {
    KernelDescriptor::builder("barriers")
        .grid_blocks(24)
        .block_threads(256)
        .fp32_per_thread(90)
        .shared_loads_per_thread(24)
        .shared_stores_per_thread(8)
        .global_loads_per_thread(6)
        .syncs_per_thread(6)
        .build()
        .expect("valid kernel")
}

/// A compute kernel long enough that a 3,000-cycle budget stops it with
/// blocks still resident.
fn long_compute() -> KernelDescriptor {
    KernelDescriptor::builder("long")
        .grid_blocks(96)
        .block_threads(128)
        .fp32_per_thread(400)
        .int_per_thread(60)
        .global_loads_per_thread(12)
        .build()
        .expect("valid kernel")
}

/// One pinned run. A change that only makes the simulator faster must leave
/// `cycles` and `digest` as they are.
struct Case {
    name: &'static str,
    config: fn() -> GpuConfig,
    options: fn() -> SimOptions,
    kernel: fn() -> KernelDescriptor,
    /// Stop through a `MaxCyclesMonitor` at this budget.
    stop_at: Option<u64>,
    cycles: u64,
    digest: u64,
}

impl Case {
    fn run(&self, sim: &Simulator) -> KernelSimResult {
        let kernel = (self.kernel)();
        let result = match self.stop_at {
            Some(budget) => sim.run_kernel_monitored(&kernel, &mut MaxCyclesMonitor::new(budget)),
            None => sim.run_kernel(&kernel),
        };
        result.unwrap_or_else(|e| panic!("{}: {e}", self.name))
    }

    fn simulator(&self) -> Simulator {
        Simulator::new((self.config)(), (self.options)())
    }
}

const CASES: &[Case] = &[
    Case {
        name: "gauss_208/0 on V100",
        config: GpuConfig::v100,
        options: SimOptions::default,
        kernel: || first_kernel("gauss_208"),
        stop_at: None,
        cycles: 2861,
        digest: 0x5a30_16e2_964e_9905,
    },
    Case {
        name: "backprop/0 on V100",
        config: GpuConfig::v100,
        options: SimOptions::default,
        kernel: || first_kernel("backprop"),
        stop_at: None,
        cycles: 4089,
        digest: 0xca8d_8d93_e971_3eb0,
    },
    Case {
        name: "mri/0 on V100",
        config: GpuConfig::v100,
        options: SimOptions::default,
        kernel: || first_kernel("mri"),
        stop_at: None,
        cycles: 7289,
        digest: 0x91c0_6992_7546_807f,
    },
    Case {
        name: "sad/0 on V100",
        config: GpuConfig::v100,
        options: SimOptions::default,
        kernel: || first_kernel("sad"),
        stop_at: None,
        cycles: 7010,
        digest: 0x5fdf_556f_700f_649e,
    },
    Case {
        name: "l2-heavy on 4 SMs with the interconnect",
        config: tiny4,
        options: || SimOptions::default().with_interconnect(true),
        kernel: l2_heavy,
        stop_at: None,
        cycles: 7206,
        digest: 0xa3ec_cd08_1bd6_2a8c,
    },
    Case {
        name: "barrier-heavy on 4 SMs",
        config: tiny4,
        options: SimOptions::default,
        kernel: barrier_heavy,
        stop_at: None,
        cycles: 5297,
        digest: 0xb2eb_20ad_b3d1_25b7,
    },
    Case {
        name: "long compute stopped at 3,000 cycles on 4 SMs",
        config: tiny4,
        options: SimOptions::default,
        kernel: long_compute,
        stop_at: Some(3_000),
        cycles: 5300,
        digest: 0xa76b_18c1_2489_9afa,
    },
];

#[test]
fn simulator_results_match_their_pins() {
    let mut failures = Vec::new();
    for case in CASES {
        let r = case.run(&case.simulator());
        let got = (r.cycles, digest(&r));
        if got != (case.cycles, case.digest) {
            failures.push(format!(
                "{}: cycles {} digest {:#018x}, pinned {} {:#018x}",
                case.name, got.0, got.1, case.cycles, case.digest
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn pinned_cases_keep_their_shape() {
    let stopped = CASES
        .iter()
        .find(|c| c.stop_at.is_some())
        .expect("an early-stop case");
    let r = stopped.run(&stopped.simulator());
    assert!(r.early_stop && r.blocks_completed < r.blocks_total, "{r:?}");
    let barrier = CASES
        .iter()
        .find(|c| c.name.starts_with("barrier"))
        .expect("a barrier case");
    let r = barrier.run(&barrier.simulator());
    assert_eq!(r.instructions, r.instructions_total);
}

/// A one-pass run holds the pins on both halves: the stopped half of the
/// monitor-stopped case, and the full half of each V100 case whether or not
/// a monitor stopped it halfway (with no stop, both halves are the pin).
#[test]
fn one_pass_runs_hold_the_pins() {
    for case in CASES
        .iter()
        .filter(|c| c.stop_at.is_some() || c.name.ends_with(" on V100"))
    {
        let sim = case.simulator();
        let kernel = (case.kernel)();
        let pinned = |half: &str, r: &KernelSimResult| {
            assert_eq!(
                (r.cycles, digest(r)),
                (case.cycles, case.digest),
                "{}: {half} half",
                case.name
            );
        };
        let run = |budget: Option<u64>| {
            let pair = match budget {
                Some(budget) => sim.run_kernel_with_stop(&kernel, &mut MaxCyclesMonitor::new(budget)),
                None => sim.run_kernel_with_stop(&kernel, &mut NullMonitor),
            };
            pair.unwrap_or_else(|e| panic!("{}: {e}", case.name))
        };
        match case.stop_at {
            Some(budget) => {
                let (full, stopped) = run(Some(budget));
                pinned("stopped", &stopped);
                let reference = sim.run_kernel(&kernel).expect("runs to completion");
                assert_eq!(digest(&full), digest(&reference), "{}: full half", case.name);
            }
            None => {
                let (full, stopped) = run(None);
                pinned("full", &full);
                pinned("stopped", &stopped);
                let halfway = (full.cycles - full.launch_overhead_cycles) / 2;
                let (full, stopped) = run(Some(halfway));
                pinned("full", &full);
                assert!(stopped.early_stop, "{}: stops at cycle {halfway}", case.name);
                let reference = sim
                    .run_kernel_monitored(&kernel, &mut MaxCyclesMonitor::new(halfway))
                    .expect("runs to the stop");
                assert_eq!(digest(&stopped), digest(&reference), "{}: stopped half", case.name);
            }
        }
    }
}

/// The same pins hold on a simulator whose pooled engine state a previous
/// run left mid-flight: warps sleeping, caches warm.
#[test]
fn pins_hold_on_reused_simulators() {
    for case in CASES {
        let sim = case.simulator();
        let stopped = sim.run_kernel_monitored(&long_compute(), &mut MaxCyclesMonitor::new(1_500));
        assert!(stopped.expect("the warm-up kernel launches").early_stop);
        let r = case.run(&sim);
        assert_eq!(
            (r.cycles, digest(&r)),
            (case.cycles, case.digest),
            "{}",
            case.name
        );
    }
}
