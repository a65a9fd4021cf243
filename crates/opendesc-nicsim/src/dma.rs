//! PCIe/DMA cost model.
//!
//! The selection objective's second term (Eq. 1) favors smaller completion
//! records because every completion crosses the PCIe link. This model
//! charges a fixed per-transaction overhead (TLP header, DLLP, flow
//! control) plus a per-byte cost derived from link bandwidth, quantized to
//! the TLP payload granularity — enough fidelity for the crossover
//! behaviour experiments E4/E7 without simulating the link layer.

/// DMA link/model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmaConfig {
    /// Usable link bandwidth in gigabytes per second.
    pub bandwidth_gbps: f64,
    /// Fixed per-transaction cost in nanoseconds (TLP + DLLP overheads).
    pub per_txn_ns: f64,
    /// Payload granularity in bytes: transfers round up to a multiple.
    pub granularity: u32,
}

impl Default for DmaConfig {
    fn default() -> Self {
        // Roughly PCIe 3.0 x8 effective: ~7.9 GB/s, ~50 ns per posted
        // write, 8-byte quantization.
        DmaConfig {
            bandwidth_gbps: 7.9,
            per_txn_ns: 50.0,
            granularity: 8,
        }
    }
}

impl DmaConfig {
    /// A slower link (useful for sweeping the E4/E7 crossover).
    pub fn with_bandwidth(mut self, gbps: f64) -> Self {
        self.bandwidth_gbps = gbps;
        self
    }

    /// Cost in ns of one DMA write of `bytes` bytes.
    pub fn write_cost_ns(&self, bytes: u32) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let quantized = bytes.div_ceil(self.granularity) * self.granularity;
        self.per_txn_ns + quantized as f64 / self.bandwidth_gbps
    }
}

/// Accumulates DMA time for one direction of one queue.
#[derive(Debug, Clone, Default)]
pub struct DmaMeter {
    pub bytes: u64,
    pub transactions: u64,
    pub busy_ns: f64,
}

impl DmaMeter {
    /// Record one write and return its cost.
    pub fn record(&mut self, cfg: &DmaConfig, bytes: u32) -> f64 {
        let cost = cfg.write_cost_ns(bytes);
        self.bytes += bytes as u64;
        self.transactions += 1;
        self.busy_ns += cost;
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_cost_nothing() {
        let cfg = DmaConfig::default();
        assert_eq!(cfg.write_cost_ns(0), 0.0);
    }

    #[test]
    fn cost_monotone_in_size() {
        let cfg = DmaConfig::default();
        assert!(cfg.write_cost_ns(8) < cfg.write_cost_ns(64));
        assert!(cfg.write_cost_ns(64) < cfg.write_cost_ns(512));
    }

    #[test]
    fn quantization_rounds_up() {
        let cfg = DmaConfig {
            bandwidth_gbps: 1.0,
            per_txn_ns: 0.0,
            granularity: 8,
        };
        assert_eq!(cfg.write_cost_ns(1), 8.0);
        assert_eq!(cfg.write_cost_ns(8), 8.0);
        assert_eq!(cfg.write_cost_ns(9), 16.0);
    }

    #[test]
    fn meter_accumulates() {
        let cfg = DmaConfig::default();
        let mut m = DmaMeter::default();
        m.record(&cfg, 64);
        m.record(&cfg, 64);
        assert_eq!(m.bytes, 128);
        assert_eq!(m.transactions, 2);
        assert!(m.busy_ns > 0.0);
    }

    #[test]
    fn smaller_completions_cheaper_at_low_bandwidth() {
        // The E4 premise: with a constrained link, an 8B mini-CQE beats a
        // 64B CQE by a wide margin.
        let slow = DmaConfig::default().with_bandwidth(0.5);
        assert!(slow.write_cost_ns(8) * 4.0 < slow.write_cost_ns(64) * 2.0);
    }
}
