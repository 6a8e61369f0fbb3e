use pka_gpu::GpuConfig;

/// A channelised DRAM bandwidth and latency model.
///
/// Each channel is a server with a deterministic per-sector service time
/// derived from the configured aggregate bandwidth; requests hash to a
/// channel by address and queue behind earlier requests on the same channel.
/// This reproduces the two behaviours the PKA evaluation cares about:
/// bandwidth saturation under memory-bound load (the "DRAM util" columns of
/// Table 4) and growing queueing latency near saturation.
///
/// # Examples
///
/// ```
/// use pka_gpu::GpuConfig;
/// use pka_sim::DramModel;
///
/// let mut dram = DramModel::new(&GpuConfig::v100());
/// let ready = dram.request(0x1000, 0);
/// assert!(ready > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DramModel {
    /// Cycle at which each channel becomes free.
    busy_until: Vec<u64>,
    /// Cycles one 32 B sector occupies a channel.
    service_cycles: f64,
    /// Fractional service remainder per channel (sub-cycle bandwidth).
    service_carry: Vec<f64>,
    latency_cycles: u64,
    busy_cycles: u64,
    sectors_served: u64,
}

impl DramModel {
    /// Creates the model for `config`.
    pub fn new(config: &GpuConfig) -> Self {
        let channels = config.dram_channels() as usize;
        // Aggregate: dram_sectors_per_cycle across all channels; one channel
        // serves 1/channels of that.
        let per_channel = config.dram_sectors_per_cycle() / channels as f64;
        Self {
            busy_until: vec![0; channels],
            service_cycles: 1.0 / per_channel,
            service_carry: vec![0.0; channels],
            latency_cycles: config.dram_latency_cycles() as u64,
            busy_cycles: 0,
            sectors_served: 0,
        }
    }

    /// Enqueues one 32 B sector request at cycle `now`; returns the cycle at
    /// which the data is available to the core.
    pub fn request(&mut self, addr: u64, now: u64) -> u64 {
        let ch = (addr >> 5) as usize % self.busy_until.len();
        let start = self.busy_until[ch].max(now);
        // Accumulate fractional service cycles so bandwidth is exact even
        // when a sector takes less than one cycle. `svc` is finite and not
        // negative, so truncating it is its floor.
        let svc = self.service_cycles + self.service_carry[ch];
        let whole = svc as u64;
        self.service_carry[ch] = svc - whole as f64;
        let done = start + whole;
        self.busy_cycles += done - start;
        self.busy_until[ch] = done;
        self.sectors_served += 1;
        done + self.latency_cycles
    }

    /// Total channel-busy cycles accumulated.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Sectors served so far.
    pub fn sectors_served(&self) -> u64 {
        self.sectors_served
    }

    /// Bandwidth utilisation over `elapsed_cycles`, percent of peak.
    pub fn utilization_pct(&self, elapsed_cycles: u64) -> f64 {
        if elapsed_cycles == 0 {
            return 0.0;
        }
        let capacity = elapsed_cycles as f64 * self.busy_until.len() as f64;
        (self.busy_cycles as f64 / capacity * 100.0).min(100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> DramModel {
        DramModel::new(&GpuConfig::v100())
    }

    #[test]
    fn uncontended_request_costs_latency() {
        let mut d = model();
        let ready = d.request(0, 100);
        assert!(ready >= 100 + 440, "{ready}");
        assert!(ready < 100 + 600);
    }

    #[test]
    fn same_channel_requests_queue() {
        let mut d = model();
        // Same address = same channel; hammer it.
        let mut last = 0;
        for _ in 0..1000 {
            let r = d.request(0, 0);
            assert!(r >= last);
            last = r;
        }
        // 1000 sectors on one channel at ~0.6 sectors/cycle/channel must
        // take far longer than the uncontended latency.
        assert!(last > 1000, "{last}");
    }

    #[test]
    fn spread_addresses_use_all_channels() {
        let mut serial = model();
        let mut spread = model();
        let mut serial_done = 0u64;
        let mut spread_done = 0u64;
        for i in 0..3200u64 {
            serial_done = serial_done.max(serial.request(0, 0));
            spread_done = spread_done.max(spread.request(i * 32, 0));
        }
        assert!(
            spread_done * 4 < serial_done,
            "spread {spread_done} vs serial {serial_done}"
        );
    }

    #[test]
    fn utilization_saturates_under_load() {
        let mut d = model();
        let mut horizon = 0u64;
        for i in 0..100_000u64 {
            horizon = horizon.max(d.request(i * 32, 0));
        }
        let busy_end = horizon - 440; // strip the final latency
        let util = d.utilization_pct(busy_end);
        assert!(util > 50.0, "{util}");
        assert!(util <= 100.0);
    }

    #[test]
    fn utilization_zero_without_traffic() {
        let d = model();
        assert_eq!(d.utilization_pct(1000), 0.0);
        assert_eq!(d.utilization_pct(0), 0.0);
    }

    #[test]
    fn bandwidth_matches_configuration() {
        // Serve N sectors as fast as possible and compare against the
        // configured sectors-per-cycle rate.
        let config = GpuConfig::v100();
        let mut d = DramModel::new(&config);
        let n = 200_000u64;
        let mut done = 0u64;
        for i in 0..n {
            done = done.max(d.request(i * 32, 0));
        }
        let cycles = (done - 440) as f64;
        let achieved = n as f64 / cycles;
        let peak = config.dram_sectors_per_cycle();
        assert!(
            (achieved - peak).abs() / peak < 0.15,
            "achieved {achieved} vs peak {peak}"
        );
    }
}
