//! Helpers shared by the simulator identity tests (`sim_pins.rs`,
//! `sim_corpus.rs`).

use principal_kernel_analysis::sim::{IpcSample, KernelSimResult};
use principal_kernel_analysis::stats::hash::mix64;

/// Folds every field of `r` into one word. The destructuring is exhaustive,
/// so a new result field fails to compile here until it is digested too.
pub fn digest(r: &KernelSimResult) -> u64 {
    let KernelSimResult {
        cycles,
        instructions,
        instructions_total,
        launch_overhead_cycles,
        warp_ipc,
        ipc_series,
        dram_util_pct,
        l2_miss_rate_pct,
        l1_miss_rate_pct,
        blocks_completed,
        blocks_total,
        wave_blocks,
        early_stop,
    } = r;
    let mut words = vec![
        *cycles,
        *instructions,
        *instructions_total,
        *launch_overhead_cycles,
        warp_ipc.to_bits(),
        dram_util_pct.to_bits(),
        l2_miss_rate_pct.to_bits(),
        l1_miss_rate_pct.to_bits(),
        *blocks_completed,
        *blocks_total,
        *wave_blocks,
        u64::from(*early_stop),
        ipc_series.len() as u64,
    ];
    for IpcSample {
        cycle,
        ipc,
        l2_miss_pct,
        dram_util_pct,
    } in ipc_series
    {
        words.extend([
            *cycle,
            ipc.to_bits(),
            l2_miss_pct.to_bits(),
            dram_util_pct.to_bits(),
        ]);
    }
    words
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &w| mix64(h ^ w))
}
