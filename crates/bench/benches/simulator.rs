//! Timing-simulator throughput: warp instructions simulated per second on
//! the behavioural archetypes, a launch-bound sequence of hundreds of tiny
//! kernels on one simulator, plus the overhead of attaching a PKP
//! monitor (which must be negligible — the whole point of an online
//! detector is that watching is free compared to simulating).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pka_core::{PkpConfig, PkpMonitor};
use pka_gpu::{GpuConfig, KernelDescriptor, KernelId};
use pka_sim::{SimOptions, Simulator};
use std::hint::black_box;

fn compute_kernel() -> KernelDescriptor {
    KernelDescriptor::builder("bench_compute")
        .grid_blocks(64)
        .block_threads(256)
        .fp32_per_thread(300)
        .shared_loads_per_thread(40)
        .global_loads_per_thread(10)
        .syncs_per_thread(4)
        .shared_mem_per_block(8 * 1024)
        .build()
        .expect("valid kernel")
}

fn memory_kernel() -> KernelDescriptor {
    KernelDescriptor::builder("bench_memory")
        .grid_blocks(64)
        .block_threads(256)
        .fp32_per_thread(20)
        .global_loads_per_thread(60)
        .global_stores_per_thread(20)
        .coalescing_sectors(12.0)
        .l1_locality(0.1)
        .l2_locality(0.2)
        .working_set_bytes(512 << 20)
        .build()
        .expect("valid kernel")
}

fn bench_throughput(c: &mut Criterion) {
    let sim = Simulator::new(
        GpuConfig::builder("bench16").num_sms(16).build().unwrap(),
        SimOptions::default(),
    );
    let mut group = c.benchmark_group("simulator_throughput");
    group.sample_size(10);
    for (name, kernel) in [("compute_tile", compute_kernel()), ("memory_stream", memory_kernel())]
    {
        group.throughput(Throughput::Elements(kernel.total_warp_instructions()));
        group.bench_function(name, |b| {
            b.iter(|| sim.run_kernel(black_box(&kernel)).unwrap())
        });
    }

    // The micro regime: `gauss_208`'s 414 kernels of ~2,800 cycles each on
    // one full-size V100 simulator, where per-kernel setup rather than the
    // cycle loop sets the pace.
    let gauss = pka_workloads::rodinia::workloads()
        .into_iter()
        .find(|w| w.name() == "gauss_208")
        .expect("gauss_208 exists");
    let kernels: Vec<KernelDescriptor> = (0..gauss.kernel_count())
        .map(|id| gauss.kernel(KernelId::new(id)))
        .collect();
    let v100 = Simulator::new(GpuConfig::v100(), SimOptions::default());
    group.throughput(Throughput::Elements(kernels.len() as u64));
    group.bench_function("micro_kernel_sequence", |b| {
        b.iter(|| {
            kernels
                .iter()
                .map(|k| v100.run_kernel(black_box(k)).unwrap().cycles)
                .sum::<u64>()
        })
    });
    group.finish();
}

fn bench_monitor_overhead(c: &mut Criterion) {
    let sim = Simulator::new(
        GpuConfig::builder("bench16").num_sms(16).build().unwrap(),
        SimOptions::default(),
    );
    let kernel = compute_kernel();
    let mut group = c.benchmark_group("pkp_monitor_overhead");
    group.sample_size(10);
    group.bench_function("unmonitored", |b| {
        b.iter(|| sim.run_kernel(black_box(&kernel)).unwrap())
    });
    group.bench_function("monitored_never_stops", |b| {
        b.iter(|| {
            // Threshold 0: stability is never declared, so this measures
            // pure observation overhead on a full-length run.
            let mut monitor = PkpMonitor::new(
                PkpConfig::default().with_threshold(0.0),
                sim.options().sample_interval(),
            );
            sim.run_kernel_monitored(black_box(&kernel), &mut monitor)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_interconnect_ablation(c: &mut Criterion) {
    // The opt-in NoC backpressure model: how much simulation cost (and
    // simulated contention) the extra fidelity buys on an L2-heavy kernel.
    let kernel = KernelDescriptor::builder("bench_l2heavy")
        .grid_blocks(64)
        .block_threads(128)
        .fp32_per_thread(8)
        .global_loads_per_thread(40)
        .l1_locality(0.0)
        .l2_locality(0.95)
        .working_set_bytes(1 << 20)
        .coalescing_sectors(8.0)
        .build()
        .expect("valid kernel");
    let mut group = c.benchmark_group("icnt_backpressure");
    group.sample_size(10);
    for (name, enabled) in [("flat_l2_latency", false), ("queued_l2_slices", true)] {
        let sim = Simulator::new(
            GpuConfig::builder("bench16").num_sms(16).build().unwrap(),
            SimOptions::default().with_interconnect(enabled),
        );
        group.bench_function(name, |b| {
            b.iter(|| sim.run_kernel(black_box(&kernel)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_throughput,
    bench_monitor_overhead,
    bench_interconnect_ablation
);
criterion_main!(benches);
